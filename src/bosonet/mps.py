"""Number-conserving matrix product states for photonic interferometers.

A pure state of ``N`` photons in ``M`` modes is stored in canonical form with
bond sectors labeled by the photon count strictly right of each cut, so a
Fock product state initializes with bond dimension one and every two-site
beam-splitter update works block-by-block inside fixed-charge sectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chain
from .chain import TensorTrainState
from .circuit import BeamSplitterGate, CircuitPlan, fock_gate
from .linalg import TruncationPolicy


@dataclass
class MpsState:
    """Pure ``num_photons``-photon state on ``num_modes`` modes in canonical form."""

    chain: TensorTrainState
    num_modes: int
    num_photons: int

    @property
    def local_dim(self) -> int:
        return self.num_photons + 1

    @property
    def discarded_weight(self) -> float:
        return self.chain.discarded_weight

    def bond_charges(self, k: int) -> tuple[int, ...]:
        """Charges present at bond k (0..num_modes), ascending."""
        return tuple(sorted(self.chain.bonds[k]))

    def bond_dimension(self, k: int) -> int:
        return self.chain.bond_dimension(k)

    def max_bond_dimension(self) -> int:
        return self.chain.max_bond_dimension()

    def norm_weight(self, k: int | None = None) -> float:
        """Sum of squared singular values at bond k (defaults to the central bond)."""
        return self.chain.total_weight(k)


def init_fock(occupations: tuple[int, ...]) -> MpsState:
    """Exact canonical form of the Fock basis state with the given occupations."""
    occs = tuple(int(n) for n in occupations)
    if len(occs) < 1:
        raise ValueError("need at least one mode")
    if any(n < 0 for n in occs):
        raise ValueError(f"occupations must be non-negative, got {occs}")
    total = sum(occs)
    state = chain.product_state(
        site_vectors=[{n: 1.0} for n in occs],
        left_charges=[total],
        right_charge=0,
    )
    return MpsState(chain=state, num_modes=len(occs), num_photons=total)


def apply_gate(state: MpsState, gate: BeamSplitterGate, policy: TruncationPolicy) -> float:
    """Apply one beam-splitter gate to adjacent modes; returns discarded weight."""
    blocks = fock_gate(gate, state.local_dim)
    return chain.two_site_update(state.chain, gate.site, blocks, policy)


def apply_plan(state: MpsState, plan: CircuitPlan, policy: TruncationPolicy) -> float:
    """Apply every gate of a circuit plan in order; returns total discarded weight."""
    if plan.num_modes != state.num_modes:
        raise ValueError(
            f"plan acts on {plan.num_modes} modes but state has {state.num_modes}"
        )
    return sum((apply_gate(state, gate, policy) for gate in plan.gates), 0.0)


def amplitude(state: MpsState, occupations: tuple[int, ...]) -> complex:
    """Amplitude of one Fock basis state in the represented (normalized) state."""
    occs = tuple(int(n) for n in occupations)
    if len(occs) != state.num_modes:
        raise ValueError(
            f"expected {state.num_modes} occupations, got {len(occs)}"
        )
    if any(n < 0 for n in occs):
        raise ValueError(f"occupations must be non-negative, got {occs}")
    if sum(occs) != state.num_photons:
        return 0.0 + 0.0j
    return chain.contract_selected(state.chain, [(n,) for n in occs])


def probability(state: MpsState, occupations: tuple[int, ...]) -> float:
    """Probability of one output occupation pattern."""
    return float(abs(amplitude(state, occupations)) ** 2)


def renyi_entropy(state: MpsState, bond: int, alpha: float) -> float:
    """Renyi-``alpha`` entanglement entropy (bits) across bond ``bond`` (1..M-1)."""
    if not 0 <= bond <= state.num_modes:
        raise ValueError(f"bond must be in [0, {state.num_modes}], got {bond}")
    return chain.spectrum_entropy(state.chain.bonds[bond], alpha)


def max_entropy(state: MpsState, alpha: float) -> tuple[int, float]:
    """(bond, value) maximizing the bond entropy; ties resolve to the smallest bond."""
    return chain.max_bond_entropy(state.chain, alpha)


def schmidt_values(state: MpsState, bond: int) -> np.ndarray:
    """All singular values at a bond, pooled over charge sectors, descending."""
    spectra = list(state.chain.bonds[bond].values())
    if not spectra:
        return np.array([])
    return np.sort(np.concatenate(spectra))[::-1]
