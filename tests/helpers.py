"""Helpers shared by several test modules.

Besides circuits, outcome grids, snapshot edits and a check that no worker
process is left, this holds the dense references that only the tests compare
against, built on ``bosonet.oracle``: the exact lossless output distribution,
``matrix_element`` of a density operator, and the operator-space spectra of a
lossy state, both of the charge-resolved object the train stores and of rho
itself.
"""

import itertools
import json
import os

import numpy as np
import pytest

from bosonet import chain
from bosonet.circuit import CircuitPlan, occupation_pattern, sample_haar_circuit
from bosonet.mpo import MpoState
from bosonet.oracle import ExactDistribution, dense_evolve, enumerate_occupations, exact_prob


def haar_plan(num_modes: int, seed: int) -> CircuitPlan:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return sample_haar_circuit(num_modes, rng)


def all_outcomes(num_modes: int, max_total: int):
    return [
        occs
        for occs in itertools.product(range(max_total + 1), repeat=num_modes)
        if sum(occs) <= max_total
    ]


def assert_no_child_process():
    """This process has no child process left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def exact_lossless_distribution(u: np.ndarray, s: tuple[int, ...]) -> ExactDistribution:
    """Exact output distribution for input occupations ``s`` through unitary ``u``."""
    u = np.asarray(u)
    num_modes = u.shape[0]
    total = sum(s)
    entries = {
        t: exact_prob(u, tuple(s), t) for t in enumerate_occupations(num_modes, total)
    }
    return ExactDistribution(entries=entries)


def matrix_element(state: MpoState, ket: tuple[int, ...], bra: tuple[int, ...]) -> complex:
    """<ket| rho |bra> for one pair of Fock basis states."""
    ket = occupation_pattern(ket, state.num_modes)
    bra = occupation_pattern(bra, state.num_modes)
    value = chain.contract_selected(state, [((nk, nb),) for nk, nb in zip(ket, bra)])
    return complex(value) * state.norm_scale


def _lossy_sector_operators(
    plan: CircuitPlan, num_photons: int, mu: float, cut: int
) -> list[np.ndarray]:
    """The vectorized output operator of each surviving photon number, split at ``cut``.

    Each sector's operator is the binomial-weighted sum of the projectors on
    the evolved surviving subsets, on the Fock grid truncated at
    ``num_photons`` per mode, with (ket_k, bra_k) grouped per mode and the
    modes left of ``cut`` as rows.  Sectors of zero weight are left out.
    """
    num_modes = plan.num_modes
    if not 1 <= cut <= num_modes - 1:
        raise ValueError(f"cut must be in [1, {num_modes - 1}], got {cut}")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    d = num_photons + 1
    if d**num_modes > 3000:
        raise ValueError("doubled Fock grid too large for the dense oracle")
    grid_dim = d**num_modes
    # Mode occupancies index the grid with mode 1 slowest (C order).
    strides = [d ** (num_modes - 1 - k) for k in range(num_modes)]
    order = [k for pair in zip(range(num_modes), range(num_modes, 2 * num_modes)) for k in pair]
    blocks = []
    for size in range(num_photons + 1):
        weight = mu**size * (1.0 - mu) ** (num_photons - size)
        if weight == 0.0:
            continue
        rho = np.zeros((grid_dim, grid_dim), dtype=np.complex128)
        for subset in itertools.combinations(range(num_photons), size):
            occ = [0] * num_modes
            for mode in subset:
                occ[mode] = 1
            state = dense_evolve(tuple(occ), plan)
            vec = np.zeros(grid_dim, dtype=np.complex128)
            for basis_occ, a in zip(state.basis, state.amplitudes):
                if any(o >= d for o in basis_occ):
                    continue
                vec[sum(o * st for o, st in zip(basis_occ, strides))] = a
            rho += weight * np.outer(vec, vec.conj())
        # Vectorize: group (ket_k, bra_k) per mode, then split at the cut.
        tensor = rho.reshape([d] * (2 * num_modes))
        blocks.append(np.transpose(tensor, order).reshape(
            (d * d) ** cut, (d * d) ** (num_modes - cut)
        ))
    return blocks


def _normalized_spectrum(mat: np.ndarray) -> np.ndarray:
    """Squared singular values of ``mat``, normalized to sum 1, descending."""
    spectrum = np.linalg.svd(mat, compute_uv=False) ** 2
    total = spectrum.sum()
    if total <= 0.0:
        raise ValueError("vectorized state has zero norm")
    return np.sort(spectrum / total)[::-1]


def dense_lossy_vectorized_spectrum(
    plan: CircuitPlan, num_photons: int, mu: float, cut: int
) -> np.ndarray:
    """Bond spectrum (descending) of the normalized vectorized mixed state at ``cut``.

    Builds the output density operator of the lossy circuit (binomial mixture
    of evolved surviving subsets), keeping the total-photon sectors as
    orthogonal block-diagonal components — the same layout the tensor-network
    density operator uses, where the left boundary enumerates the sectors. The
    per-sector vectorized operators are stacked along the left side of the
    cut; the squared Schmidt values of the stacked matrix, normalized to sum
    1, match the tensor-network bond spectrum at full rank.
    """
    return _normalized_spectrum(np.vstack(_lossy_sector_operators(plan, num_photons, mu, cut)))


def dense_lossy_plain_spectrum(
    plan: CircuitPlan, num_photons: int, mu: float, cut: int
) -> np.ndarray:
    """Like dense_lossy_vectorized_spectrum but without sector bookkeeping.

    The total-photon sectors are summed into one operator before the Schmidt
    decomposition, so cross-sector components can interfere. This is the
    spectrum behind the closed-form per-mode entropy calculators, which model
    the vectorized operator itself rather than the charge-resolved stored
    object; the two agree only when a single sector carries weight.
    """
    return _normalized_spectrum(sum(_lossy_sector_operators(plan, num_photons, mu, cut)))
