"""Round-trip tests for the state snapshot container."""

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

from helpers import _edit_header, _edit_members


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
    assert not hasattr(loaded, "mu")
    assert mpo.trace(loaded) == mpo.trace(state)
    for total in range(state.num_photons + 1):
        for occ in enumerate_occupations(state.num_modes, total):
            assert mpo.outcome_prob(loaded, occ) == mpo.outcome_prob(state, occ)


#: Stored snapshots of the evolutions in ``_stored_evolution``. The MPS arrays
#: were written by the build before MpsState and MpoState became tensor trains
#: (commit 8204c34); only their header's format number was raised to 3. The MPO
#: was evolved again at format 3, the first in the mirror gauge. Both headers
#: carry the ``"sector": null`` key that older builds wrote and loads ignore,
#: and the MPO header the ``"loss": {"mu": 0.7}`` key, ignored the same way.
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


def test_save_of_a_non_state_is_rejected(tmp_path):
    state, _ = _evolved_mps()
    with pytest.raises(TypeError, match="cannot snapshot object of type list"):
        save_state(tmp_path / "state.npz", state.sites)
    assert not list(tmp_path.iterdir())


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
    assert "loss" not in pure_header
    assert pure_header["local_dim"] == pure.num_photons + 1
    assert lossy_header["kind"] == "mpo"
    assert lossy_header["local_dim"] == lossy.num_photons + 1
    assert "loss" not in lossy_header


def _member(arrays, prefix):
    return next(key for key in arrays if key.startswith(prefix))


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
    pytest.param(lambda h: h.update(norm_scale=None), "field 'norm_scale'", id="null-norm_scale"),
    pytest.param(lambda h: h.update(norm_scale=float("nan")), "field 'norm_scale'",
                 id="nan-norm_scale"),
    pytest.param(lambda h: h.update(discarded_weight=float("inf")), "field 'discarded_weight'",
                 id="inf-discarded_weight"),
    pytest.param(lambda h: h.update(num_modes=float("inf")), "field 'num_modes'",
                 id="inf-num_modes"),
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


def _replace(prefix, value):
    """An edit that replaces the first member under ``prefix`` by ``value(array)``."""
    def edit(arrays):
        key = _member(arrays, prefix)
        arrays[key] = value(arrays[key])
    return edit


def _move_block(arrays):
    key = _member(arrays, "site1/")
    arrays["site1/9,9;9,9"] = arrays.pop(key)


@pytest.mark.parametrize("edit, message", [
    pytest.param(_replace("site2/", lambda b: np.zeros((7, 9), complex)),
                 r"'site2/.*' has shape \(7, 9\)", id="misshaped-block"),
    pytest.param(_move_block, r"'site1/9,9;9,9' has a charge its bonds do not hold",
                 id="block-off-its-bonds"),
    pytest.param(_replace("bond2/", lambda lam: lam[:, None]),
                 r"'bond2/.*' is not a nonempty positive 1-D array", id="matrix-bond"),
    pytest.param(_replace("bond2/", lambda lam: lam.astype(complex)),
                 r"'bond2/.*' is not a nonempty positive 1-D array", id="complex-bond"),
    pytest.param(_replace("bond2/", lambda lam: np.append(lam[:-1], 0.0)),
                 r"'bond2/.*' is not a nonempty positive 1-D array", id="zero-bond-value"),
    pytest.param(_replace("bond2/", lambda lam: -lam),
                 r"'bond2/.*' is not a nonempty positive 1-D array",
                 id="negative-bond-value"),
    pytest.param(_replace("bond2/", lambda lam: lam[:0]),
                 r"'bond2/.*' is not a nonempty positive 1-D array",
                 id="zero-length-bond-member"),
    pytest.param(lambda arrays: [arrays.pop(key) for key in list(arrays)
                                 if key.startswith("bond2/")],
                 "bond 2 holds no charge", id="empty-bond"),
    pytest.param(_replace("site2/", lambda b: np.full_like(b, np.nan)),
                 r"'site2/.*' is not a finite", id="nan-block"),
    pytest.param(_replace("bond2/", lambda lam: np.full_like(lam, np.inf)),
                 r"'bond2/.*' is not a finite", id="inf-bond"),
    pytest.param(_replace("site1/", lambda b: b.astype(str)), r"'site1/.*' is not a finite",
                 id="text-block"),
    pytest.param(lambda arrays: arrays.pop("header"), "not a state snapshot", id="no-header"),
    pytest.param(lambda arrays: arrays.update(notes=np.zeros(2)),
                 "unexpected snapshot member 'notes'", id="unexpected-member"),
])
def test_malformed_member_raises_value_error_naming_it(tmp_path, edit, message):
    state, _ = _evolved_mpo()
    path = tmp_path / "op.npz"
    save_state(path, state)
    _edit_members(path, edit)
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
