"""Number-conserving matrix product states for photonic interferometers.

A pure state of ``N`` photons in ``M`` modes is stored in canonical form with
bond sectors labeled by the photon count strictly right of each cut, so a
Fock product state initializes with bond dimension one and every two-site
beam-splitter update works block-by-block inside fixed-charge sectors.
Spectra and entropies come from ``chain`` (``schmidt_values``,
``renyi_entropy``, ``max_bond_entropy``), which serve MPO states too.
"""

from __future__ import annotations

import numpy as np

from . import chain
from .chain import TensorTrainState
from .circuit import BeamSplitterGate, fock_gate


class MpsState(TensorTrainState):
    """Pure ``num_photons``-photon state on ``num_modes`` modes in canonical form."""

    def gate_blocks(self, gate: BeamSplitterGate) -> list[np.ndarray]:
        """The sector blocks of U that ``chain.two_site_update`` takes."""
        return fock_gate(gate, self.local_dim)


def init_fock(occupations: tuple[int, ...]) -> MpsState:
    """Exact canonical form of the Fock basis state with the given occupations."""
    occs = tuple(int(n) for n in occupations)
    if len(occs) < 1:
        raise ValueError("need at least one mode")
    if any(n < 0 for n in occs):
        raise ValueError(f"occupations must be non-negative, got {occs}")
    total = sum(occs)
    sites, bonds, scale = chain.product_state(
        site_vectors=[{n: 1.0} for n in occs],
        left_charges=[total],
        right_charge=0,
    )
    return MpsState(num_modes=len(occs), num_photons=total, sites=sites, bonds=bonds,
                    norm_scale=scale)


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
    return chain.contract_selected(state, [(n,) for n in occs])


def probability(state: MpsState, occupations: tuple[int, ...]) -> float:
    """Probability of one output occupation pattern."""
    return float(abs(amplitude(state, occupations)) ** 2)
