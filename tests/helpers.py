"""Helpers shared by several test modules."""

import itertools
import json

import numpy as np

from bosonet.circuit import CircuitPlan, sample_haar_circuit


def haar_plan(num_modes: int, seed: int) -> CircuitPlan:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return sample_haar_circuit(num_modes, rng)


def all_outcomes(num_modes: int, max_total: int):
    return [
        occs
        for occs in itertools.product(range(max_total + 1), repeat=num_modes)
        if sum(occs) <= max_total
    ]


def _edit_members(path, edit):
    """Rewrite the snapshot at ``path`` with ``edit(arrays)`` applied to its members."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _edit_header(path, edit):
    """Rewrite the JSON header of the snapshot at ``path`` with ``edit(header)``."""
    def edit_members(arrays):
        header = json.loads(str(arrays["header"][()]))
        edit(header)
        arrays["header"] = np.array(json.dumps(header))

    _edit_members(path, edit_members)
