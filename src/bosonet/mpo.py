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

The loss is given as the per-photon transmissivity mu, a plain float that
only ``init_lossy`` reads: once rho is prepared, the state is its train. The
left boundary enumerates every total-photon sector (n, n), n = 0..N, in one
combined state, so the train stores the direct sum of rho's fixed-number parts,
not their sum rho: its bond entropy, ``lossy-ee``'s ``max_ee``, equals rho's
operator entanglement only at mu = 1. Singular vectors are normalized at
initialization and kept unrenormalized afterwards so that 1 - trace() reports
accumulated truncation error; ``chain.renyi_entropy`` renormalizes a copy of
the spectrum. Every read of rho's diagonal is one ``marginal`` contraction:
``trace`` is its empty prefix and ``outcome_prob`` its full pattern, clamped,
each pattern checked once, by ``marginal`` as a prefix or by ``outcome_prob``
as a full pattern.

A read of s photons gets its value from the sectors k >= s alone, and a full
pattern from (s, s) alone (``_marginal``): the diagonal labels lower both
charges together, so sector k sits at charge k - p after prefix sites that
read p photons. No two sectors meet inside the prefix, a sector k < s dies
there when its charge would go negative, and only k = s ends at the right
boundary (0, 0). So leaving the other sectors out drops only terms that are
exactly absent, and every value keeps the bits of the walk over all N + 1
sectors. ``trace`` reads s = 0 and keeps them all.
"""

from __future__ import annotations

import numpy as np

from . import chain
from .chain import TensorTrainState
from .circuit import BeamSplitterGate, fock_gate, occupation_pattern


class MpoState(TensorTrainState):
    """Vectorized density operator of up to ``num_photons`` photons on ``num_modes`` modes."""

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

    occupied = {(0, 0): 1.0 - mu, (1, 1): mu}  # ``product_state`` drops a zero amplitude
    vacuum = {(0, 0): 1.0}
    site_vectors = [occupied] * num_photons + [vacuum] * (num_modes - num_photons)
    left = [(n, n) for n in range(num_photons + 1)]
    sites, bonds, scale = chain.product_state(site_vectors, left, (0, 0))
    return MpoState(num_modes=num_modes, num_photons=num_photons, sites=sites, bonds=bonds,
                    norm_scale=scale)


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


def marginal(state: MpoState, prefix: tuple[int, ...]) -> float:
    """Tr[rho P_prefix], unclamped: one walk reads each prefix site at its label
    (n, n) and traces every later site out with ``trace_labels``."""
    return _marginal(state, occupation_pattern(prefix, state.num_modes, prefix=True))


def _marginal(state: MpoState, prefix: tuple[int, ...]) -> float:
    """``marginal`` of a ``prefix`` that ``occupation_pattern`` has already checked.

    The walk starts from the boundary sectors k >= s, s the prefix's photon
    count, and from (s, s) alone for a full pattern (module docstring): the
    others die inside the prefix, where no two sectors meet, or miss the
    right boundary (0, 0), so every remaining product and sum is the one of
    the walk over every sector (``chain.contract_selected``), bit for bit.
    Each sector crosses the prefix on its own, one vector-matrix product per
    site; the traced sites then merge them with ``chain.propagate``.
    """
    num_modes, sites = state.num_modes, state.sites
    photons = sum(prefix)
    full = len(prefix) == num_modes
    env = {}
    for charge, lam in state.bonds[0].items():
        k = charge[0]
        if k < photons or (full and k > photons):
            continue
        vec = lam.astype(np.complex128)
        for site, n in enumerate(prefix):
            block = sites[site].get(((k, k), (k - n, k - n)))
            if block is None:
                break
            vec, k = vec @ block, k - n
        else:
            env[(k, k)] = vec
    labels = trace_labels(state.local_dim)
    for site in range(len(prefix), num_modes):
        if not env:
            break
        env = chain.propagate(state, site, env, labels)
    # ``sum`` starts from the int 0, as the all-sector walk's does, so an
    # empty walk and a -0.0 read alike.
    return float(complex(sum(vec.sum() for vec in env.values())).real) * state.norm_scale


def trace(state: MpoState) -> float:
    """Tr rho, the ``marginal`` of the empty prefix.

    Exactly 1 for a fresh or unitarily evolved state; decreases when
    truncation discards weight, so 1 - trace() is the simulation error.
    """
    return marginal(state, ())


def outcome_prob(state: MpoState, occupations: tuple[int, ...]) -> float:
    """Probability of measuring one output occupation pattern, Tr[rho |n><n|].

    A pattern with more photons on a mode (or in total) than the state holds
    has probability 0. Truncation can push tiny probabilities slightly
    negative; the returned value is ``marginal`` clamped to [0, 1].
    """
    return min(max(_marginal(state, occupation_pattern(occupations, state.num_modes)), 0.0), 1.0)
