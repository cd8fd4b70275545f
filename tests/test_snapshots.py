"""A pinned evolution reference: states that an earlier build stored, read bit for bit.

The ``.npz`` bits were recorded on OpenBLAS's SkylakeX kernel, the one it picks
on the recording host (``meta.json`` names a run's kernel under ``blas``).
Another kernel moves the last bits of a truncated evolution: under
``OPENBLAS_CORETYPE=Haswell`` both cases fail, on one bond value of the MPS
and on the MPO's ``discarded_weight``, each in its last bit.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from bosonet import chain, mpo, mps
from bosonet.circuit import sample_haar_circuit
from bosonet.linalg import TruncationPolicy

#: Stored snapshots of the evolutions in ``_stored_evolution``. The MPS arrays
#: were written by the build before MpsState and MpoState became tensor trains
#: (commit 8204c34); only their header's format number was raised to 3. The MPO
#: was evolved again at format 3, the first in the mirror gauge. Both headers
#: carry the ``"sector": null`` key that older builds wrote, and the MPO header
#: the ``"loss": {"mu": 0.7}`` key; neither is read here.
DATA = Path(__file__).resolve().parent / "data"


def _stored_evolution(kind):
    plan = sample_haar_circuit(4, np.random.default_rng(41))
    if kind == "mps":
        state = mps.init_fock((1, 1, 0, 0))
        chain.apply_plan(state, plan, TruncationPolicy(chi_max=3))
    else:
        state = mpo.init_lossy(2, 4, 0.7)
        chain.apply_plan(state, plan, TruncationPolicy(chi_max=6))
    return state


def _read_stored(path):
    """(header, bonds, sites) of a stored state: its JSON header, and one dict per
    bond and per site, keyed as ``chain`` keys them. Member ``bond{k}/{charge}``
    holds a bond spectrum and ``site{k}/{left};{right}`` a right-canonical site
    block; an operator's charge is written ``ket,bra``."""
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(str(data["header"][()]))
        paired = header["kind"] == "mpo"

        def charge(token):
            return tuple(map(int, token.split(","))) if paired else int(token)

        bonds = [{} for _ in range(header["num_modes"] + 1)]
        sites = [{} for _ in range(header["num_modes"])]
        for key in data.files:
            prefix, _, token = key.partition("/")
            if prefix.startswith("bond"):
                bonds[int(prefix[4:])][charge(token)] = data[key]
            elif prefix.startswith("site"):
                left, right = token.split(";")
                sites[int(prefix[4:])][(charge(left), charge(right))] = data[key]
    return header, bonds, sites


@pytest.mark.parametrize("kind", ["mps", "mpo"])
def test_snapshot_from_previous_build_is_bit_exact(kind):
    header, bonds, sites = _read_stored(DATA / f"{kind}_m4_n2.npz")
    fresh = _stored_evolution(kind)
    assert {"mps": mps.MpsState, "mpo": mpo.MpoState}[header["kind"]] is type(fresh)
    assert header["extra"] == {"seed": 41, "chi_max": 3 if kind == "mps" else 6}
    assert (header["num_modes"], header["num_photons"]) == (4, 2)
    assert header["norm_scale"] == fresh.norm_scale
    assert header["discarded_weight"] == fresh.discarded_weight > 0.0
    for stored, computed in zip(bonds + sites, fresh.bonds + fresh.sites):
        assert stored.keys() == computed.keys()
        for key, value in computed.items():
            assert stored[key].dtype == value.dtype
            assert np.array_equal(stored[key], value)
