"""Exact brute-force references for small boson-sampling instances.

Everything here scales exponentially and exists to validate the tensor-network
pipeline on small cases. These are the references that ``oracle-check`` runs:
matrix permanents, the exact output distribution under photon loss, dense
Fock-space evolution, and pure-state entanglement spectra computed by explicit
partial traces. The dense operator-space spectra of a lossy state, which only
the test suite compares against, are in ``tests/helpers.py``.

Occupation lists are enumerated colexicographically (compare reversed tuples)
everywhere, so tables produced by different modules line up row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .circuit import CircuitPlan, fock_gate

_MAX_PERMANENT_SIZE = 20
_MAX_DENSE_DIM = 200_000


def enumerate_occupations(num_modes: int, total: int) -> list[tuple[int, ...]]:
    """All occupation lists of ``total`` photons over ``num_modes`` modes, colex order."""
    if num_modes < 1:
        raise ValueError(f"num_modes must be >= 1, got {num_modes}")
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if num_modes == 1:
        return [(total,)]
    out: list[tuple[int, ...]] = []
    for last in range(total + 1):
        for head in enumerate_occupations(num_modes - 1, total - last):
            out.append(head + (last,))
    return out


def permanent(matrix: np.ndarray) -> complex:
    """Permanent of a square matrix by Glynn's formula with Gray-code updates.

    O(2^n n) time; empty matrices have permanent 1 by convention.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    if n == 0:
        return complex(1.0)
    if n > _MAX_PERMANENT_SIZE:
        raise ValueError(f"matrix size {n} exceeds supported maximum {_MAX_PERMANENT_SIZE}")
    # Glynn: Per(A) = 2^(1-n) * sum over delta in {+-1}^n with delta_1 = +1 of
    # (prod_i delta_i) * prod_j (sum_i delta_i A_ij), walked in Gray-code order
    # so each step updates the column sums with one row flip.
    col_sums = m.sum(axis=0)
    total = np.prod(col_sums)
    sign = 1.0
    gray = 0
    for step in range(1, 1 << (n - 1)):
        # Row whose delta flips at this Gray-code step (rows 2..n, index 1..n-1).
        flip = (step & -step).bit_length()
        gray ^= 1 << (flip - 1)
        direction = -2.0 if gray & (1 << (flip - 1)) else 2.0
        col_sums += direction * m[flip, :]
        sign = -sign
        total += sign * np.prod(col_sums)
    return complex(total / (1 << (n - 1)))


def build_submatrix(u: np.ndarray, s: tuple[int, ...], t: tuple[int, ...]) -> np.ndarray:
    """n x n matrix with t_j copies of column j, then s_j copies of row j."""
    u = np.asarray(u)
    if sum(s) != sum(t):
        raise ValueError(f"photon number mismatch: sum(s)={sum(s)} vs sum(t)={sum(t)}")
    if len(s) != u.shape[0] or len(t) != u.shape[1]:
        raise ValueError("occupation lists must match the unitary dimension")
    cols = np.repeat(u, t, axis=1)
    return np.repeat(cols, s, axis=0)


def exact_prob(u: np.ndarray, s: tuple[int, ...], t: tuple[int, ...]) -> float:
    """Probability |Per(U_{S,T})|^2 / (prod s_j! prod t_j!) of outcome t from input s."""
    sub = build_submatrix(u, s, t)
    norm = 1.0
    for occ in s:
        norm *= math.factorial(occ)
    for occ in t:
        norm *= math.factorial(occ)
    return abs(permanent(sub)) ** 2 / norm


@dataclass
class ExactDistribution:
    """A probability table over photon-count outcomes, one entry per occupation list."""

    entries: dict[tuple[int, ...], float] = field(default_factory=dict)


def exact_lossy_distribution(u: np.ndarray, num_photons: int, mu: float) -> ExactDistribution:
    """Output distribution with each input photon surviving independently with probability mu.

    The input is one photon in each of the first ``num_photons`` modes; the
    result mixes the exact lossless distribution of every surviving subset
    with binomial weights mu^|S| (1-mu)^(N-|S|), so it sums to 1 over all
    occupations with total <= N (the all-zero outcome collects the vacuum).
    """
    u = np.asarray(u)
    num_modes = u.shape[0]
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    if num_photons > num_modes:
        raise ValueError("more input photons than modes")
    entries: dict[tuple[int, ...], float] = {}
    for size in range(num_photons + 1):
        weight = mu**size * (1.0 - mu) ** (num_photons - size)
        if weight == 0.0:
            continue
        for subset in combinations(range(num_photons), size):
            s = [0] * num_modes
            for mode in subset:
                s[mode] = 1
            for t in enumerate_occupations(num_modes, size):
                p = weight * exact_prob(u, tuple(s), t)
                if p != 0.0 or t not in entries:
                    entries[t] = entries.get(t, 0.0) + p
    return ExactDistribution(entries=entries)


@dataclass
class DenseFockState:
    """Dense amplitudes over the fixed-photon-number Fock basis (colex order)."""

    num_modes: int
    total: int
    basis: list[tuple[int, ...]]
    amplitudes: np.ndarray

    def index(self) -> dict[tuple[int, ...], int]:
        return {occ: i for i, occ in enumerate(self.basis)}

    def amplitude(self, occ: tuple[int, ...]) -> complex:
        return complex(self.amplitudes[self.index()[tuple(occ)]])


def dense_evolve(occupations: tuple[int, ...], plan: CircuitPlan) -> DenseFockState:
    """Evolve a Fock basis state through the circuit in the full photon sector."""
    occupations = tuple(occupations)
    num_modes = plan.num_modes
    if len(occupations) != num_modes:
        raise ValueError("occupation list length must equal the circuit mode count")
    total = sum(occupations)
    basis = enumerate_occupations(num_modes, total)
    if len(basis) > _MAX_DENSE_DIM:
        raise ValueError(f"Fock dimension {len(basis)} exceeds {_MAX_DENSE_DIM}")
    index = {occ: i for i, occ in enumerate(basis)}
    amps = np.zeros(len(basis), dtype=np.complex128)
    amps[index[occupations]] = 1.0
    for gate in plan.gates:
        blocks = fock_gate(gate, total + 1)
        k = gate.site - 1
        new_amps = np.zeros_like(amps)
        for src, occ in enumerate(basis):
            a = amps[src]
            if a == 0.0:
                continue
            i1, i2 = occ[k], occ[k + 1]
            block = blocks[i1 + i2]
            for j1 in range(i1 + i2 + 1):
                coeff = block[j1, i1]
                if coeff == 0.0:
                    continue
                dst = occ[:k] + (j1, i1 + i2 - j1) + occ[k + 2 :]
                new_amps[index[dst]] += coeff * a
        amps = new_amps
    return DenseFockState(num_modes=num_modes, total=total, basis=basis, amplitudes=amps)


def dense_reduced_spectrum(state: DenseFockState, cut: int) -> np.ndarray:
    """Eigenvalues (descending) of the reduced density matrix over modes 1..cut."""
    if not 1 <= cut <= state.num_modes - 1:
        raise ValueError(f"cut must be in [1, {state.num_modes - 1}], got {cut}")
    left_basis = {}
    right_basis = {}
    for occ in state.basis:
        left_basis.setdefault(occ[:cut], len(left_basis))
        right_basis.setdefault(occ[cut:], len(right_basis))
    psi = np.zeros((len(left_basis), len(right_basis)), dtype=np.complex128)
    for occ, a in zip(state.basis, state.amplitudes):
        psi[left_basis[occ[:cut]], right_basis[occ[cut:]]] = a
    sing = np.linalg.svd(psi, compute_uv=False)
    spectrum = sing**2
    return np.sort(spectrum)[::-1]
