"""Vectorized matrix product operators for lossy boson sampling.

Uniform loss commutes through a linear-optical circuit, so a lossy experiment
is modeled by damping each input photon *before* the interferometer: every
occupied input mode carries the single-photon loss channel output
sigma = (1-mu)|0><0| + mu|1><1|. The density operator is vectorized
(|i><j| -> |i, j>>, conjugated factor second) and stored as a charge-blocked
tensor train whose bond sectors are (ket, bra) photon-count pairs; a two-site
unitary acts as U (x) conj(U) and conserves both charges independently.
This module builds that gate's sector blocks (``vectorized_blocks``), once
per gate, and ``MpoState.gate_blocks`` hands them to ``chain.apply_gate``,
which knows nothing of vectorization.

The loss is given as the per-photon transmissivity mu, a plain float. The
left boundary enumerates every total-photon sector (n, n), n = 0..N, in one
combined state. Singular vectors are normalized at initialization and kept
unrenormalized afterwards so that 1 - trace() reports accumulated truncation
error; ``chain.renyi_entropy`` renormalizes a copy of the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chain
from .chain import TensorTrainState
from .circuit import BeamSplitterGate, fock_gate


@dataclass(kw_only=True)
class MpoState(TensorTrainState):
    """Vectorized density operator of up to ``num_photons`` photons on ``num_modes`` modes."""

    mu: float

    def gate_blocks(self, gate: BeamSplitterGate) -> dict[tuple[int, int], np.ndarray]:
        """The (ket, bra) sector blocks of U (x) conj(U) that ``chain.two_site_update`` takes."""
        return vectorized_blocks(fock_gate(gate, self.local_dim))


def init_lossy(num_photons: int, num_modes: int, mu: float) -> MpoState:
    """Product MPO of single photons with transmissivity ``mu`` on modes 1..N, vacuum elsewhere."""
    if not 0 <= num_photons <= num_modes:
        raise ValueError(
            f"need 0 <= photons <= modes, got N={num_photons}, M={num_modes}"
        )
    mu = float(mu)
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"transmissivity mu must be in [0, 1], got {mu}")

    occupied: dict = {}
    if 1.0 - mu != 0.0:
        occupied[(0, 0)] = 1.0 - mu
    if mu != 0.0:
        occupied[(1, 1)] = mu
    vacuum = {(0, 0): 1.0}
    site_vectors = [occupied] * num_photons + [vacuum] * (num_modes - num_photons)
    left = [(n, n) for n in range(num_photons + 1)]
    sites, bonds, scale = chain.product_state(site_vectors, left, (0, 0))
    return MpoState(num_modes=num_modes, num_photons=num_photons, sites=sites, bonds=bonds,
                    norm_scale=scale, mu=mu)


def vectorized_blocks(blocks: list[np.ndarray]) -> dict[tuple[int, int], np.ndarray]:
    """The (ket, bra) sector blocks of U (x) conj(U) from the sector blocks of U.

    ``blocks[n]`` is U on photon-number sector n (``circuit.fock_gate``).
    Block (a, b) is kron(blocks[a], conj(blocks[b])): it acts on the
    (ket, bra) occupations of sector (a, b) in row-major order. Each entry is
    one product, formed by broadcasting (``np.kron`` is ten times slower).
    """
    bras = [block.conj() for block in blocks]
    return {(a, b): (ket[:, None, :, None] * bra[None, :, None, :]).reshape((a + 1) * (b + 1), -1)
            for a, ket in enumerate(blocks) for b, bra in enumerate(bras)}


# ``chain.apply_plan`` under its old name, which ``perfbench/workloads.py`` calls.
apply_plan_vec = chain.apply_plan


def trace_labels(local_dim: int) -> tuple[tuple[int, int], ...]:
    """The diagonal (ket, bra) labels ((0, 0), ..., (d-1, d-1)) that trace a site out."""
    return tuple((n, n) for n in range(local_dim))


def trace(state: MpoState) -> float:
    """Tr rho, by contracting every site against the vectorized identity.

    Exactly 1 for a fresh or unitarily evolved state; decreases when
    truncation discards weight, so 1 - trace() is the simulation error.
    """
    labels = [trace_labels(state.local_dim)] * state.num_modes
    value = chain.contract_selected(state, labels)
    return float(value.real) * state.norm_scale


def outcome_prob(state: MpoState, occupations: tuple[int, ...], raw: bool = False) -> float:
    """Probability of measuring one output occupation pattern, Tr[rho |n><n|].

    A pattern with more photons on a mode (or in total) than the state holds
    has probability 0. Truncation can push tiny probabilities slightly
    negative; the returned value is clamped to [0, 1] unless ``raw=True``
    (diagnostics).
    """
    occs = tuple(int(n) for n in occupations)
    if len(occs) != state.num_modes:
        raise ValueError(f"expected {state.num_modes} occupations, got {len(occs)}")
    if any(n < 0 for n in occs):
        raise ValueError(f"occupations must be non-negative, got {occs}")
    value = chain.contract_selected(state, [((n, n),) for n in occs])
    result = float(value.real) * state.norm_scale
    if raw:
        return result
    return min(max(result, 0.0), 1.0)


def matrix_element(state: MpoState, ket: tuple[int, ...], bra: tuple[int, ...]) -> complex:
    """<ket| rho |bra> for one pair of Fock basis states (small-instance diagnostics)."""
    if len(ket) != state.num_modes or len(bra) != state.num_modes:
        raise ValueError("ket and bra must list one occupation per mode")
    labels = [((int(nk), int(nb)),) for nk, nb in zip(ket, bra)]
    value = chain.contract_selected(state, labels)
    return complex(value) * state.norm_scale
