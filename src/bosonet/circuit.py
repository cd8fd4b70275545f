"""Beam-splitter circuits on a line of optical modes.

A circuit is an ordered list of two-mode gates acting on neighboring modes
(site k couples modes k and k+1, 1-indexed). ``sample_haar_circuit`` draws
the nearest-neighbor brickwork whose composed mode unitary is Haar-random up
to mode phases: blocks R_1, R_3, ..., R_(M-1), R_M, R_(M-2), ..., R_2, where
block R_n applies beam splitters at the sites listed by
``gen_index_sequence(n)``. The gate at site k keeps a Beta(1, k)-distributed
fraction of the incident amplitude: its transmittance cos^2 theta is
1 - (1 - u)^(1/k) for a uniform u, the inverse of that law's CDF (Russell,
Chakhmakhsazyan & Matthews, New J. Phys. 19, 033007 (2017)), and its phase is
uniform on [0, 2pi); composing the blocks then reproduces the nested
sphere-point-picking recursion behind Haar measure.

The mode unitary U is defined by how gates move creation operators,
a_j^dag -> sum_k U_jk a_k^dag (rows are inputs), so a gate applied earlier
sits further left in the matrix product returned by ``circuit_to_unitary``.
``occupation_pattern`` checks every occupation pattern the package reads.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BeamSplitterGate:
    """One beam splitter at site ``site`` (modes site, site+1; 1-indexed)."""

    site: int
    theta: float
    phi: float

    def matrix(self) -> np.ndarray:
        """2x2 action on (a^dag, b^dag): rows input modes, columns outputs."""
        c = math.cos(self.theta)
        s = math.sin(self.theta)
        e = np.exp(1j * self.phi)
        return np.array([[c, -e * s], [s / e, c]], dtype=np.complex128)


@dataclass
class CircuitPlan:
    """An ordered gate list plus its layer and block structure.

    ``layer_boundaries`` partitions gates into runs acting on pairwise
    disjoint site pairs (safe to apply in parallel). It is derived from the
    gates: a run ends before the first gate that shares a mode with it.
    ``block_boundaries`` partitions them into the coarser brickwork blocks
    used for depth accounting; ``depth`` counts those blocks.
    """

    num_modes: int
    gates: list[BeamSplitterGate]
    block_boundaries: list[int] = field(default_factory=list)
    layer_boundaries: list[int] = field(init=False)

    def __post_init__(self) -> None:
        if self.num_modes < 2:
            raise ValueError("a circuit needs at least two modes")
        for g in self.gates:
            if not 1 <= g.site <= self.num_modes - 1:
                raise ValueError(f"gate site {g.site} outside [1, {self.num_modes - 1}]")
        self.layer_boundaries = self._disjoint_boundaries()
        if not self.block_boundaries:
            self.block_boundaries = [0, len(self.gates)] if self.gates else [0]
        bounds = self.block_boundaries
        if bounds[0] != 0 or bounds[-1] != len(self.gates) or any(np.diff(bounds) < 0):
            raise ValueError("block boundaries must be a nondecreasing prefix list over gates")

    def _disjoint_boundaries(self) -> list[int]:
        bounds = [0]
        used: set[int] = set()
        for i, g in enumerate(self.gates):
            if g.site in used or g.site + 1 in used or g.site - 1 in used:
                bounds.append(i)
                used = set()
            used.add(g.site)
        bounds.append(len(self.gates))
        return bounds

    @property
    def depth(self) -> int:
        return len(self.block_boundaries) - 1

    def layers(self) -> list[list[BeamSplitterGate]]:
        b = self.layer_boundaries
        return [self.gates[b[i] : b[i + 1]] for i in range(len(b) - 1)]

    def to_json(self) -> str:
        doc = {
            "num_modes": self.num_modes,
            "depth": self.depth,
            "gates": [{"site": g.site, "theta": g.theta, "phi": g.phi} for g in self.gates],
            "layer_boundaries": self.layer_boundaries,
            "block_boundaries": self.block_boundaries,
        }
        return json.dumps(doc, indent=1)


def plan_fingerprint(plan: CircuitPlan) -> str:
    """Short stable hex digest of a circuit plan, for log and file headers."""
    return hashlib.sha256(plan.to_json().encode()).hexdigest()[:16]


def gen_index_sequence(n: int) -> tuple[int, ...]:
    """Site sequence for block R_n: odd sites below n descending, then even ascending."""
    if n < 2:
        raise ValueError(f"index sequences are defined for n >= 2, got {n}")
    odds = [k for k in range(n - 1, 0, -1) if k % 2 == 1]
    evens = [k for k in range(2, n) if k % 2 == 0]
    return tuple(odds + evens)


def sample_haar_circuit(num_modes: int, rng: np.random.Generator) -> CircuitPlan:
    """Draw the brickwork circuit whose composed unitary is Haar up to mode phases.

    num_modes must be even. Per gate the transmittance variate is drawn before
    the phase, so a fixed generator state fixes the circuit.
    """
    if num_modes < 2 or num_modes % 2 != 0:
        raise ValueError(f"num_modes must be even and >= 2, got {num_modes}")
    half = num_modes // 2
    block_ns = [2 * j - 1 for j in range(1, half + 1)] + [num_modes - 2 * i for i in range(half)]
    gates: list[BeamSplitterGate] = []
    block_bounds = [0]
    for n in block_ns:
        for k in gen_index_sequence(n) if n >= 2 else ():
            # The gate at site k closes a nested splitting chain over modes
            # 1..k+1, so its kept fraction cos^2(theta) carries the Beta(1, k)
            # law (a reflectivity keyed on n - k is not Haar: mode M would be
            # mixed by a single uniform-reflectivity gate).
            t = 1.0 - (1.0 - rng.random()) ** (1.0 / k)
            phi = rng.uniform(0.0, _TWO_PI)
            gates.append(BeamSplitterGate(site=k, theta=math.acos(math.sqrt(t)), phi=phi))
        block_bounds.append(len(gates))
    return CircuitPlan(num_modes=num_modes, gates=gates, block_boundaries=block_bounds)


def circuit_to_unitary(plan: CircuitPlan) -> np.ndarray:
    """Compose the full mode unitary, earliest gate leftmost."""
    u = np.eye(plan.num_modes, dtype=np.complex128)
    for g in plan.gates:
        b = g.matrix()
        k = g.site - 1
        cols = u[:, k : k + 2].copy()
        u[:, k] = cols[:, 0] * b[0, 0] + cols[:, 1] * b[1, 0]
        u[:, k + 1] = cols[:, 0] * b[0, 1] + cols[:, 1] * b[1, 1]
    return u


def occupation_pattern(occupations, num_modes: int, prefix: bool = False) -> tuple[int, ...]:
    """``occupations`` as ints, one per mode (at most one per mode for a ``prefix``).

    A wrong length, a negative entry, a bool or a non-integer is a ``ValueError``.
    """
    entries = tuple(occupations)
    try:
        occs = tuple(map(operator.index, entries))
    except TypeError:
        occs = None
    if occs is None or bool in map(type, entries):
        raise ValueError(f"occupations must be integers, got {entries}")
    if len(occs) > num_modes or (len(occs) < num_modes and not prefix):
        raise ValueError(f"expected {'at most ' * prefix}{num_modes} occupations, got {len(occs)}")
    if min(occs, default=0) < 0:
        raise ValueError(f"occupations must be non-negative, got {occs}")
    return occs


def fock_gate(gate: BeamSplitterGate, local_dim: int) -> list[np.ndarray]:
    """Photon-number sector blocks of a beam splitter on occupation space.

    ``blocks[n][j, i] = <j, n-j| B |i, n-i>`` for n = 0..local_dim-1: a beam
    splitter conserves the photon number of its two modes, so these
    (n+1) x (n+1) unitary blocks are all of it that a state with at most
    local_dim - 1 photons meets. Entry [j, i] is the a^dag^j b^dag^(n-j)
    coefficient of
    (cos(t) a^dag - e^{i phi} sin(t) b^dag)^i (e^{-i phi} sin(t) a^dag + cos(t) b^dag)^(n-i) |0, 0>,
    the convolution of two binomial rows of the 2x2 mode matrix, against
    normalized number states.
    """
    if local_dim < 1:
        raise ValueError("local_dim must be positive")
    slot, coeff, e_t, e_rp, e_r, norm, spans = _sector_terms(local_dim)
    t = math.cos(gate.theta)
    s_refl = math.sin(gate.theta)
    rp = -np.exp(1j * gate.phi) * s_refl  # coefficient sending input 1 to output 2
    r = np.exp(-1j * gate.phi) * s_refl  # coefficient sending input 2 to output 1
    powers = range(local_dim)
    f = coeff * np.array([t**e for e in powers])[e_t]
    rp_pow = np.array([rp**e for e in powers])[e_rp]
    r_pow = np.array([r**e for e in powers])[e_r]
    # The complex products are spelled out in real arithmetic and each entry
    # sums its terms in ascending order, so every block is bit-for-bit the
    # scalar expansion's value.
    a, b = f * rp_pow.real, f * rp_pow.imag
    x, y = r_pow.real, r_pow.imag
    flat = np.empty(len(norm), dtype=np.complex128)
    flat.real = norm * np.bincount(slot, a * x - b * y, len(norm))
    flat.imag = norm * np.bincount(slot, a * y + b * x, len(norm))
    return [flat[start:stop].reshape(side, side) for start, stop, side in spans]


@lru_cache(maxsize=None)
def _sector_terms(d: int) -> tuple[np.ndarray, ...]:
    """Binomial terms of every sector entry for local dimension d.

    Entries run over (n, j, i) in the order of the concatenated row-major
    blocks, each with its number-state normalization. Per term, q photons of
    input 2 and p = j - q of input 1 reach output 1: the term holds its entry's
    position, the binomial factor and the exponents of cos(t), of the 1->2
    and of the 2->1 coefficient, in ascending q within each entry. Last come
    the (first entry, end, side) of every sector's block.
    """
    terms, norm, spans = [], [], []
    for n in range(d):
        first = len(norm)
        for j in range(n + 1):
            for i in range(n + 1):
                norm.append(math.sqrt(math.factorial(j) * math.factorial(n - j)
                                      / (math.factorial(i) * math.factorial(n - i))))
                terms += [(len(norm) - 1, math.comb(i, j - q) * math.comb(n - i, q),
                           j - q + n - i - q, i - j + q, q)
                          for q in range(max(0, j - i), min(j, n - i) + 1)]
        spans.append((first, len(norm), n + 1))
    slot, coeff, e_t, e_rp, e_r = np.array(terms).T
    return slot, coeff.astype(float), e_t, e_rp, e_r, np.array(norm), tuple(spans)
