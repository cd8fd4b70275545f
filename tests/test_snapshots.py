"""Round-trip tests for the state snapshot container."""

import json
from pathlib import Path

import numpy as np
import pytest

from bosonet import chain, mpo, mps
from bosonet.circuit import sample_haar_circuit
from bosonet.linalg import TruncationPolicy
from bosonet.oracle import enumerate_occupations
from bosonet.snapshots import (
    FORMAT_NAME,
    FORMAT_VERSION,
    load_header,
    load_state,
    save_state,
)


def _evolved_mps(seed=0, num_modes=6, num_photons=2, chi=4):
    plan = sample_haar_circuit(num_modes, np.random.default_rng(seed))
    state = mps.init_fock(tuple([1] * num_photons + [0] * (num_modes - num_photons)))
    chain.apply_plan(state, plan, TruncationPolicy(chi_max=chi))
    return state, plan


def _evolved_mpo(seed=1, num_modes=4, num_photons=2, mu=0.7, chi=8):
    plan = sample_haar_circuit(num_modes, np.random.default_rng(seed))
    state = mpo.init_lossy(num_photons, num_modes, mu)
    chain.apply_plan(state, plan, TruncationPolicy(chi_max=chi))
    return state, plan


def test_mps_round_trip_is_bit_exact(tmp_path):
    state, _ = _evolved_mps()
    path = tmp_path / "state.npz"
    save_state(path, state)
    loaded, extra = load_state(path)
    assert isinstance(loaded, mps.MpsState)
    assert extra == {}
    assert loaded.num_modes == state.num_modes
    assert loaded.num_photons == state.num_photons
    assert loaded.norm_scale == state.norm_scale
    assert loaded.discarded_weight == state.discarded_weight
    for occ in enumerate_occupations(state.num_modes, state.num_photons):
        assert mps.amplitude(loaded, occ) == mps.amplitude(state, occ)
    for k in range(state.num_modes + 1):
        assert loaded.bonds[k].keys() == state.bonds[k].keys()
        for c in state.bonds[k]:
            assert np.array_equal(loaded.bonds[k][c], state.bonds[k][c])


def test_mpo_round_trip_preserves_probabilities(tmp_path):
    state, _ = _evolved_mpo()
    path = tmp_path / "op.npz"
    save_state(path, state, extra={"layers_done": 3})
    loaded, extra = load_state(path)
    assert isinstance(loaded, mpo.MpoState)
    assert extra == {"layers_done": 3}
    assert loaded.mu == state.mu
    assert mpo.trace(loaded) == mpo.trace(state)
    for total in range(state.num_photons + 1):
        for occ in enumerate_occupations(state.num_modes, total):
            assert mpo.outcome_prob(loaded, occ) == mpo.outcome_prob(state, occ)


#: Stored snapshots of the evolutions in ``_stored_evolution``. The MPS arrays
#: were written by the build before MpsState and MpoState became tensor trains
#: (commit 8204c34); only their header's format number was raised to 3. The MPO
#: was evolved again at format 3, the first in the mirror gauge. Both headers
#: carry the ``"sector": null`` key that older builds wrote and loads ignore.
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


@pytest.mark.parametrize("kind", ["mps", "mpo"])
def test_snapshot_from_previous_build_is_bit_exact(kind):
    loaded, extra = load_state(DATA / f"{kind}_m4_n2.npz")
    fresh = _stored_evolution(kind)
    assert type(loaded) is type(fresh)
    assert extra == {"seed": 41, "chi_max": 3 if kind == "mps" else 6}
    assert (loaded.num_modes, loaded.num_photons) == (4, 2)
    assert loaded.norm_scale == fresh.norm_scale
    assert loaded.discarded_weight == fresh.discarded_weight > 0.0
    if kind == "mpo":
        assert loaded.mu == fresh.mu
    for stored, computed in zip(loaded.bonds + loaded.sites, fresh.bonds + fresh.sites):
        assert stored.keys() == computed.keys()
        for key, value in computed.items():
            assert stored[key].dtype == value.dtype
            assert np.array_equal(stored[key], value)


def test_failed_save_keeps_the_previous_snapshot(tmp_path, monkeypatch):
    state, _ = _evolved_mps()
    path = tmp_path / "state.npz"
    save_state(path, state, extra={"layers_done": 1})
    before = path.read_bytes()

    def dies_partway(fh, **arrays):
        fh.write(before[: len(before) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", dies_partway)
    with pytest.raises(OSError, match="disk full"):
        save_state(path, state, extra={"layers_done": 2})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_state(path)[1] == {"layers_done": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["state.npz"]


def test_header_records_kind_and_loss(tmp_path):
    pure, _ = _evolved_mps()
    lossy, _ = _evolved_mpo(mu=0.35)
    save_state(tmp_path / "pure.npz", pure)
    save_state(tmp_path / "lossy.npz", lossy)
    pure_header = load_header(tmp_path / "pure.npz")
    lossy_header = load_header(tmp_path / "lossy.npz")
    assert pure_header["format"] == FORMAT_NAME
    assert pure_header["version"] == FORMAT_VERSION
    assert pure_header["kind"] == "mps"
    assert pure_header["loss"] is None
    assert pure_header["local_dim"] == pure.num_photons + 1
    assert lossy_header["kind"] == "mpo"
    assert lossy_header["local_dim"] == lossy.num_photons + 1
    assert lossy_header["loss"] == {"mu": 0.35}


def _edit_header(path, edit):
    """Rewrite the JSON header of the snapshot at ``path`` with ``edit(header)``."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(str(arrays["header"][()]))
    edit(header)
    arrays["header"] = np.array(json.dumps(header))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def test_unsupported_version_is_rejected(tmp_path):
    state, _ = _evolved_mps()
    path = tmp_path / "state.npz"
    save_state(path, state)
    _edit_header(path, lambda h: h.update(version=FORMAT_VERSION + 1))
    with pytest.raises(ValueError, match="unsupported snapshot version"):
        load_state(path)
    _edit_header(path, lambda h: h.update(version=FORMAT_VERSION, format="something-else"))
    with pytest.raises(ValueError, match="unknown container format"):
        load_state(path)


def test_local_dim_must_match_photon_number(tmp_path):
    state, _ = _evolved_mpo()
    path = tmp_path / "op.npz"
    save_state(path, state)
    _edit_header(path, lambda h: h.update(local_dim=state.num_photons + 2))
    with pytest.raises(ValueError, match="local_dim 4 does not match 2 photons"):
        load_state(path)


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda h: h.update(loss=None), "field 'loss'", id="null-loss"),
    pytest.param(lambda h: h.pop("num_photons"), "field 'num_photons'", id="no-num_photons"),
    pytest.param(lambda h: h.update(num_modes=2), "outside num_modes 2", id="short-num_modes"),
])
def test_malformed_header_raises_value_error_naming_the_field(tmp_path, edit, message):
    # Checkpoint restore treats a ValueError as "not a usable snapshot" and
    # restarts the circuit, so no malformed header may raise anything else.
    state, _ = _evolved_mpo()
    path = tmp_path / "op.npz"
    save_state(path, state)
    _edit_header(path, edit)
    with pytest.raises(ValueError, match=message):
        load_state(path)


def test_resumed_evolution_matches_uninterrupted(tmp_path):
    # Evolve half the circuit, snapshot, reload, finish: bit-identical to a
    # straight-through run, which is what makes checkpoint resume exact.
    num_modes, num_photons = 6, 2
    plan = sample_haar_circuit(num_modes, np.random.default_rng(9))
    policy = TruncationPolicy(chi_max=6)
    occ = tuple([1] * num_photons + [0] * (num_modes - num_photons))

    straight = mps.init_fock(occ)
    chain.apply_plan(straight, plan, policy)

    half = len(plan.gates) // 2
    first = mps.init_fock(occ)
    for gate in plan.gates[:half]:
        chain.apply_gate(first, gate, policy)
    save_state(tmp_path / "mid.npz", first, extra={"gates_done": half})
    resumed, extra = load_state(tmp_path / "mid.npz")
    for gate in plan.gates[extra["gates_done"] :]:
        chain.apply_gate(resumed, gate, policy)

    for occ_out in enumerate_occupations(num_modes, num_photons):
        assert mps.amplitude(resumed, occ_out) == mps.amplitude(straight, occ_out)
    assert resumed.discarded_weight == straight.discarded_weight
