"""Per-layer tracing from outside the program.

``Tracer.patched()`` replaces bosonet functions with timing wrappers at the
places where callers look them up, and restores them on exit. Modules that
import a function by name hold their own reference, so those names are
patched in the importing module (``chain`` imports ``svd`` and
``truncate_global``; ``mps`` and ``mpo`` import ``fock_gate``; ``sampling``
imports ``mpo.trace`` as ``mpo_trace``; ``cli`` imports ``run_to_files``).

Every call is a span with a parent (the innermost traced call active when it
started). A layer's self time is the duration of its spans minus the time of
their child spans. Spans are aggregated as they close, so nothing grows with
the run except one duration per call.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (layer name, places where callers look the function up)
LAYERS: list[tuple[str, tuple[str, ...]]] = [
    ("cli.main", ("bosonet.cli:main",)),
    ("experiments.run_to_files", ("bosonet.cli:run_to_files",)),
    ("circuit.fock_gate", ("bosonet.mps:fock_gate", "bosonet.mpo:fock_gate")),
    ("chain.two_site_update", ("bosonet.chain:two_site_update",)),
    ("linalg.svd", ("bosonet.chain:svd",)),
    ("linalg.truncate_global", ("bosonet.chain:truncate_global",)),
    ("chain.max_bond_entropy", ("bosonet.chain:max_bond_entropy",)),
    ("mpo.trace", ("bosonet.mpo:trace", "bosonet.sampling:mpo_trace")),
    ("mpo.outcome_prob", ("bosonet.mpo:outcome_prob",)),
    ("chain.contract_selected", ("bosonet.chain:contract_selected",)),
    ("chain.prefix_environment", ("bosonet.chain:prefix_environment",)),
    ("chain.suffix_trace_environments", ("bosonet.chain:suffix_trace_environments",)),
    ("sampling.sample_many", ("bosonet.sampling:sample_many",)),
    ("sampling.sample_counts", ("bosonet.sampling:sample_counts",)),
]


def svd_flops(shape: tuple[int, int]) -> float:
    """Computed cost of a thin complex SVD with both factors.

    Golub and Van Loan's R-SVD count, 6mn^2 + 20n^3 real flops for m >= n,
    times 4 for complex arithmetic. An estimate from input shapes only.
    """
    m, n = max(shape), min(shape)
    return 4.0 * (6.0 * m * n * n + 20.0 * n**3)


class _Layer:
    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.durations: list[float] = []


class Tracer:
    """Aggregated spans of one traced section of a run."""

    def __init__(self):
        self.layers = {name: _Layer() for name, _ in LAYERS}
        self.stack: list[list] = []  # open spans: [layer name, child seconds]
        self.child_s: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.fock_seen: set = set()
        self.missing: list[str] = []

    @contextmanager
    def patched(self):
        saved = []
        try:
            for layer, targets in LAYERS:
                for target in targets:
                    module_name, attr = target.split(":")
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr, None)
                    if fn is None:
                        self.missing.append(target)
                        continue
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(layer, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _wrap(self, layer: str, fn):
        stats = self.layers[layer]
        stack = self.stack
        observe = getattr(self, "_observe_" + layer.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                stats.calls += 1
                stats.durations.append(duration)
                stats.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                    self.child_s[(stack[-1][0], layer)] += duration
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # Counters measured where the work happens, on successful calls.

    def _observe_linalg_svd(self, args, kwargs, result):
        self.counts["svd_flops"] += svd_flops(np.shape(args[0]))

    def _observe_linalg_truncate_global(self, args, kwargs, result):
        self.counts["pooled"] += sum(len(values) for _, values in args[0])
        self.counts["kept"] += len(result.kept)

    def _observe_circuit_fock_gate(self, args, kwargs, result):
        key = (args[0], args[1] if len(args) > 1 else kwargs.get("local_dim"))
        if key in self.fock_seen:
            self.counts["fock_repeats"] += 1
        self.fock_seen.add(key)

    def _observe_chain_prefix_environment(self, args, kwargs, result):
        if result:
            self.counts["prefix_useful"] += 1
        if any(frame[0] == "sampling.sample_many" for frame in self.stack):
            self.counts["prefix_in_draws"] += 1

    def _observe_sampling_sample_many(self, args, kwargs, result):
        self.counts["draws"] += len(result)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer values from the wrappers: name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name, stats in self.layers.items():
            out[f"{name}.calls"] = (stats.calls, "count")
            out[f"{name}.self_s"] = (stats.self_s, "s")
        update = self.layers["chain.two_site_update"]
        durations_ms = np.asarray(update.durations) * 1e3
        total_update = float(sum(update.durations))
        c = self.counts
        out.update({
            "chain.two_site_update.p50_ms": (_percentile(durations_ms, 50), "ms"),
            "chain.two_site_update.p90_ms": (_percentile(durations_ms, 90), "ms"),
            "chain.two_site_update.svd_share": (
                _ratio(self.child_s[("chain.two_site_update", "linalg.svd")], total_update),
                "ratio"),
            "linalg.svd.flop_est": (c["svd_flops"], "flop"),
            "linalg.truncate_global.pooled": (c["pooled"], "count"),
            "linalg.truncate_global.kept_ratio": (_ratio(c["kept"], c["pooled"]), "ratio"),
            "circuit.fock_gate.repeat_ratio": (
                _ratio(c["fock_repeats"], self.layers["circuit.fock_gate"].calls), "ratio"),
            "chain.prefix_environment.calls_per_draw": (
                _ratio(c["prefix_in_draws"], c["draws"]), "count"),
            "chain.prefix_environment.useful_ratio": (
                _ratio(c["prefix_useful"], self.layers["chain.prefix_environment"].calls),
                "ratio"),
        })
        return out


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0
