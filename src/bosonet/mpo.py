"""Vectorized matrix product operators for lossy boson sampling.

Uniform loss commutes through a linear-optical circuit, so a lossy experiment
is modeled by damping each input photon *before* the interferometer: every
occupied input mode carries the single-photon loss channel output
sigma = (1-mu)|0><0| + mu|1><1|. The density operator is vectorized
(|i><j| -> |i, j>>, conjugated factor second) and stored as a charge-blocked
tensor train whose bond sectors are (ket, bra) photon-count pairs; a two-site
unitary acts as U (x) conj(U) and conserves both charges independently.

The left boundary enumerates total-photon sectors (n, n) in a single combined
state by default; post-selection on one photon-number sector is available via
the ``sector`` argument. Singular vectors are normalized at initialization and
kept unrenormalized afterwards so that 1 - trace() reports accumulated
truncation error; entropy functions renormalize a copy of the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chain
from .chain import TensorTrainState
from .circuit import BeamSplitterGate, CircuitPlan, fock_gate
from .linalg import TruncationPolicy


@dataclass(frozen=True)
class LossSpec:
    """Transmissivity model: a constant rate or the power law mu = beta * N**gamma / N."""

    kind: str
    mu: float | None = None
    beta: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        if self.kind == "constant":
            if self.mu is None or not 0.0 <= self.mu <= 1.0:
                raise ValueError(f"constant loss needs mu in [0, 1], got {self.mu}")
        elif self.kind == "power_law":
            if self.beta is None or self.beta <= 0.0:
                raise ValueError(f"power-law loss needs beta > 0, got {self.beta}")
            if self.gamma is None or not 0.0 < self.gamma <= 1.0:
                raise ValueError(f"power-law loss needs gamma in (0, 1], got {self.gamma}")
        else:
            raise ValueError(f"unknown loss kind {self.kind!r}")

    @staticmethod
    def constant(mu: float) -> "LossSpec":
        return LossSpec(kind="constant", mu=mu)

    @staticmethod
    def power_law(beta: float, gamma: float) -> "LossSpec":
        return LossSpec(kind="power_law", beta=beta, gamma=gamma)

    def rate(self, num_photons: int) -> float:
        """Per-photon transmissivity for an experiment with ``num_photons`` inputs."""
        if self.kind == "constant":
            return float(self.mu)
        if num_photons < 1:
            return 1.0
        mu = self.beta * num_photons**self.gamma / num_photons
        if not 0.0 <= mu <= 1.0:
            raise ValueError(
                f"power law beta={self.beta}, gamma={self.gamma} gives mu={mu} "
                f"outside [0, 1] at N={num_photons}"
            )
        return float(mu)


@dataclass
class MpoState:
    """Vectorized density operator of up to ``num_photons`` photons on ``num_modes`` modes."""

    chain: TensorTrainState
    num_modes: int
    num_photons: int
    mu: float
    sector: int | None = None

    @property
    def local_dim(self) -> int:
        return self.num_photons + 1

    @property
    def discarded_weight(self) -> float:
        return self.chain.discarded_weight

    def bond_charges(self, k: int) -> tuple:
        return tuple(sorted(self.chain.bonds[k]))

    def bond_dimension(self, k: int) -> int:
        return self.chain.bond_dimension(k)

    def max_bond_dimension(self) -> int:
        return self.chain.max_bond_dimension()

    def norm_weight(self, k: int | None = None) -> float:
        return self.chain.total_weight(k)


def init_lossy(
    num_photons: int,
    num_modes: int,
    loss: LossSpec | float,
    sector: int | None = None,
) -> MpoState:
    """Product MPO of damped single photons on modes 1..N and vacuum elsewhere.

    ``loss`` is a LossSpec or a plain constant transmissivity. With ``sector``
    set, the state is post-selected on that total photon number: its trace is
    the binomial probability of exactly ``sector`` photons surviving.
    """
    if isinstance(loss, (int, float)):
        loss = LossSpec.constant(float(loss))
    if not 0 <= num_photons <= num_modes:
        raise ValueError(
            f"need 0 <= photons <= modes, got N={num_photons}, M={num_modes}"
        )
    mu = loss.rate(num_photons)
    if sector is not None and not 0 <= sector <= num_photons:
        raise ValueError(f"sector must be in [0, {num_photons}], got {sector}")

    occupied: dict = {}
    if 1.0 - mu != 0.0:
        occupied[(0, 0)] = 1.0 - mu
    if mu != 0.0:
        occupied[(1, 1)] = mu
    vacuum = {(0, 0): 1.0}
    site_vectors = [occupied] * num_photons + [vacuum] * (num_modes - num_photons)
    if sector is None:
        left = [(n, n) for n in range(num_photons + 1)]
    else:
        left = [(sector, sector)]
    state = chain.product_state(site_vectors, left, (0, 0))
    return MpoState(
        chain=state,
        num_modes=num_modes,
        num_photons=num_photons,
        mu=mu,
        sector=sector,
    )


def apply_gate_vec(state: MpoState, gate: BeamSplitterGate, policy: TruncationPolicy) -> float:
    """Apply U (x) conj(U) for one beam-splitter gate; returns discarded weight."""
    blocks = fock_gate(gate, state.local_dim)
    return chain.two_site_update(state.chain, gate.site, blocks, policy)


def apply_plan_vec(state: MpoState, plan: CircuitPlan, policy: TruncationPolicy) -> float:
    """Apply every gate of a plan in order; returns total discarded weight."""
    if plan.num_modes != state.num_modes:
        raise ValueError(
            f"plan acts on {plan.num_modes} modes but state has {state.num_modes}"
        )
    return sum((apply_gate_vec(state, gate, policy) for gate in plan.gates), 0.0)


def trace_labels(local_dim: int) -> tuple[tuple[int, int], ...]:
    """The diagonal (ket, bra) labels ((0, 0), ..., (d-1, d-1)) that trace a site out."""
    return tuple((n, n) for n in range(local_dim))


def trace(state: MpoState) -> float:
    """Tr rho, by contracting every site against the vectorized identity.

    Exactly 1 for a fresh or unitarily evolved state; decreases when
    truncation discards weight, so 1 - trace() is the simulation error.
    """
    labels = [trace_labels(state.local_dim)] * state.num_modes
    value = chain.contract_selected(state.chain, labels)
    return float(value.real) * state.chain.norm_scale


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
    value = chain.contract_selected(state.chain, [((n, n),) for n in occs])
    result = float(value.real) * state.chain.norm_scale
    if raw:
        return result
    return min(max(result, 0.0), 1.0)


def matrix_element(state: MpoState, ket: tuple[int, ...], bra: tuple[int, ...]) -> complex:
    """<ket| rho |bra> for one pair of Fock basis states (small-instance diagnostics)."""
    if len(ket) != state.num_modes or len(bra) != state.num_modes:
        raise ValueError("ket and bra must list one occupation per mode")
    labels = [((int(nk), int(nb)),) for nk, nb in zip(ket, bra)]
    value = chain.contract_selected(state.chain, labels)
    return complex(value) * state.chain.norm_scale


def mpo_renyi_entropy(state: MpoState, bond: int, alpha: float) -> float:
    """Renyi-``alpha`` operator-space entanglement (bits) of the bond spectrum.

    Computed on a 2-norm-renormalized copy; the stored spectrum is untouched.
    """
    if not 0 <= bond <= state.num_modes:
        raise ValueError(f"bond must be in [0, {state.num_modes}], got {bond}")
    return chain.spectrum_entropy(state.chain.bonds[bond], alpha)


def mpo_max_entropy(state: MpoState, alpha: float) -> tuple[int, float]:
    """(bond, value) maximizing the operator-space entropy; ties -> smallest bond."""
    return chain.max_bond_entropy(state.chain, alpha)


def schmidt_values(state: MpoState, bond: int) -> np.ndarray:
    """All singular values at a bond, pooled over dual-charge sectors, descending."""
    spectra = list(state.chain.bonds[bond].values())
    if not spectra:
        return np.array([])
    return np.sort(np.concatenate(spectra))[::-1]
