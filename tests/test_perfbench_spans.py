"""The benchmark tracer patches bosonet functions by name; every name must exist.

``perfbench/spans.py`` skips a place it cannot find and records it as missing,
so a rename in the package would silently zero that layer's counters. A
name that exists but is no longer called once per decomposed center would
zero or skew them as silently, so the SVD layer's count is checked too.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bosonet import chain, mpo, mps
from bosonet.circuit import sample_haar_circuit
from bosonet.linalg import TruncationPolicy

from helpers import count_centers

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_place_resolves():
    spans = _load_spans()
    places = [place for _, layer_places in spans.LAYERS for place in layer_places]
    missing = []
    for place in places:
        module_name, attr = place.split(":")
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(place)
    assert places
    assert missing == []


@pytest.mark.parametrize("kind", ["mps", "mpo"])
def test_the_tracer_sees_one_svd_per_decomposed_center(monkeypatch, kind):
    spans = _load_spans()
    plans = []
    centers = count_centers(monkeypatch, plans)
    plan = sample_haar_circuit(6, np.random.default_rng(11))
    state = mps.init_fock((1, 1, 1, 0, 0, 0)) if kind == "mps" else mpo.init_lossy(3, 6, 0.5)
    tracer = spans.Tracer()
    with tracer.patched():
        chain.apply_plan(state, plan, TruncationPolicy(chi_max=64))
    metrics = tracer.metrics()
    assert tracer.missing == []
    assert len(plans) == len(plan.gates)
    assert metrics["chain.two_site_update.calls"][0] == len(plan.gates)
    assert metrics["linalg.svd.calls"][0] == centers[0] > len(plan.gates)
    assert metrics["linalg.svd.flop_est"][0] > 0
    assert 0 < metrics["chain.two_site_update.svd_share"][0] < 1
