"""Closed-form entanglement accounting for collision-free photon inputs.

When an interferometer receives well-separated single photons, a bipartition
of the output modes splits each photon independently: photon ``j`` ends up on
the left of the cut with some weight ``cos^2(theta_j)`` and on the right with
``sin^2(theta_j)``.  Both the pure-state Schmidt spectrum and the vectorized
mixed-state spectrum then factor over photons, so bipartite entropies reduce
to sums of small closed-form per-photon terms.  This module evaluates those
terms, the scaling laws they imply for uniformly lossy sources, and the cost
model for brute-force sampling that the scaling laws are compared against.

Entropies are in bits throughout (base-2 logarithms). ``normalized_renyi`` is
the one place a Renyi order is read, for these closed forms and for the
simulated bond entropies of ``chain.renyi_entropy`` alike: an order within
1e-12 of 1 is the von Neumann point for both, and a negative, NaN or
infinite order is a ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import occupation_pattern

__all__ = [
    "PartitionAngles",
    "ScalingLaw",
    "partition_angles",
    "binomial_spectrum",
    "distribution_renyi",
    "normalized_renyi",
    "lossless_ee",
    "lossy_mode_operator",
    "lossy_mode_spectrum",
    "lossy_mpo_ee",
    "asymptotic_scaling",
    "naive_cost",
    "log_naive_cost",
    "log_asymptotic_cost",
]

#: Treat Renyi order ``alpha`` as the von Neumann point when this close to 1.
_VON_NEUMANN_WINDOW = 1e-12


@dataclass(frozen=True)
class PartitionAngles:
    """Per-input-mode splitting weights for one bipartition of the outputs.

    ``cos_squared[j]`` is the probability that a photon entering mode ``j``
    exits in one of the first ``cut`` output modes.
    """

    cut: int
    cos_squared: np.ndarray

    @property
    def num_modes(self) -> int:
        return len(self.cos_squared)


def partition_angles(unitary: np.ndarray, cut: int) -> PartitionAngles:
    """Splitting weights of each input mode across the cut after ``unitary``.

    Row ``j`` of the mode unitary holds the output amplitudes of input mode
    ``j``, so the left-of-cut weight is the squared norm of the first ``cut``
    entries of that row.  Rows are normalized by their full squared norm so
    that mildly non-unitary input (e.g. from accumulated rounding) still
    yields weights in [0, 1].
    """
    u = np.asarray(unitary)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    num_modes = u.shape[0]
    if not 1 <= cut <= num_modes - 1:
        raise ValueError(f"cut must be in [1, {num_modes - 1}], got {cut}")
    weights = np.abs(u) ** 2
    totals = weights.sum(axis=1)
    if np.any(totals <= 0.0):
        raise ValueError("matrix has a zero row; cannot normalize")
    cos2 = weights[:, :cut].sum(axis=1) / totals
    return PartitionAngles(cut=cut, cos_squared=np.clip(cos2, 0.0, 1.0))


def binomial_spectrum(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) probabilities for k = 0..n."""
    from scipy import stats  # here, not at module level: its import takes about a second

    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    return stats.binom.pmf(np.arange(n + 1), n, p)


def distribution_renyi(probs: np.ndarray, alpha: float) -> float:
    """Renyi entropy (bits) of a probability vector, by :func:`normalized_renyi`.

    The vector is renormalized defensively; entries must be nonnegative up
    to rounding noise.
    """
    p = np.asarray(probs, dtype=float)
    if p.size == 0:
        raise ValueError("empty distribution")
    if np.any(p < -1e-12):
        raise ValueError("distribution has a significantly negative entry")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if total <= 0.0:
        raise ValueError("distribution has zero total mass")
    return normalized_renyi(p / total, alpha)


def _check_order(alpha: float) -> None:
    if not 0 <= alpha < math.inf:
        raise ValueError(f"alpha must be nonnegative and finite, got {alpha}")


def normalized_renyi(p: np.ndarray, alpha: float) -> float:
    """Renyi entropy (bits) of a normalized nonnegative ``p``; every entropy reads its order here.

    ``alpha = 0`` counts the nonzero entries, an order within
    ``_VON_NEUMANN_WINDOW`` of 1 is the Shannon/von Neumann point, and other
    orders use ``log2(sum p^alpha) / (1 - alpha)``. A power sum that underflows
    to 0 (orders in the thousands and up) takes the largest entry out, without
    forming ``alpha * log2(p_max)``, which overflows near ``alpha = 1e300``.
    A zero entropy is +0.0: ``+ 0.0`` clears the -0.0 of a one-value ``p``.
    """
    _check_order(alpha)
    if alpha == 0:
        return math.log2(np.count_nonzero(p))
    if abs(alpha - 1.0) < _VON_NEUMANN_WINDOW:
        nz = p[p > 0.0]
        return float(-(nz * np.log2(nz)).sum()) + 0.0
    total = (p**alpha).sum()
    if total > 0.0:
        return float(math.log2(total) / (1.0 - alpha)) + 0.0
    p_max = p.max()
    return float(alpha / (alpha - 1.0) * -math.log2(p_max)
                 - math.log2(((p / p_max) ** alpha).sum()) / (alpha - 1.0))


def lossless_ee(
    occupations: tuple[int, ...] | list[int],
    angles: PartitionAngles,
    alpha: float,
) -> float:
    """Collision-free pure-state entropy of a mode bipartition, in bits.

    The ``N_j`` photons entering mode ``j`` scatter independently across the
    cut, so the left-of-cut photon count in that photon group is
    Binomial(``N_j``, ``cos_squared[j]``) and the Schmidt spectrum is the
    product of those binomials.  Renyi entropies are therefore additive over
    input modes; empty modes contribute nothing. The occupations are checked
    by ``circuit.occupation_pattern``.
    """
    _check_order(alpha)
    total = 0.0
    for n, c2 in zip(occupation_pattern(occupations, angles.num_modes), angles.cos_squared):
        if n > 0:
            total += distribution_renyi(binomial_spectrum(n, float(c2)), alpha)
    return total


def lossy_mode_operator(cos_squared: float, mu: float) -> np.ndarray:
    """Unnormalized 4x4 cross-cut Gram matrix for one lossy photon.

    A photon prepared with survival probability ``mu`` and split with
    left-of-cut weight ``cos_squared`` contributes a vectorized operator
    whose halves on either side of the cut span at most four states: the
    doubled vacuum, the two single-sided coherences, and the doubled
    single-photon component.  In that basis the Gram matrix is a 2x2 block
    on the (vacuum, doubled-photon) pair plus two degenerate coherence
    diagonals; its eigenvalues are the per-photon spectrum of the vectorized
    state across the cut.
    """
    if not 0.0 <= cos_squared <= 1.0:
        raise ValueError(f"cos_squared must be in [0, 1], got {cos_squared}")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    c2 = cos_squared
    s2 = 1.0 - cos_squared
    op = np.zeros((4, 4))
    op[0, 0] = (1.0 - mu) ** 2 + mu**2 * s2**2
    op[0, 3] = op[3, 0] = (1.0 - mu) * mu * c2
    op[3, 3] = mu**2 * c2**2
    op[1, 1] = op[2, 2] = mu**2 * s2 * c2
    return op


def lossy_mode_spectrum(cos_squared: float, mu: float) -> np.ndarray:
    """Normalized per-photon spectrum of the vectorized state across a cut.

    Closed-form eigenvalues of :func:`lossy_mode_operator`: the 2x2 block is
    diagonalized via its trace and determinant (the small root is recovered
    as ``det / large_root`` for stability), and the two coherence entries are
    already diagonal.  The four values are normalized to sum to one and
    returned in descending order.
    """
    op = lossy_mode_operator(cos_squared, mu)
    a, d, b = op[0, 0], op[3, 3], op[0, 3]
    trace = a + d
    det = a * d - b * b
    half_gap = math.hypot((a - d) / 2.0, b)
    hi = trace / 2.0 + half_gap
    lo = max(det / hi, 0.0) if hi > 0.0 else 0.0
    off = op[1, 1]
    spectrum = np.array([hi, lo, off, off])
    norm = (1.0 - mu) ** 2 + mu**2
    return np.sort(spectrum / norm)[::-1]


def lossy_mpo_ee(
    angles: PartitionAngles,
    mu: float,
    alpha: float,
    num_photons: int,
) -> float:
    """Collision-free vectorized-state entropy under uniform loss, in bits.

    Models single photons entering the first ``num_photons`` modes, each
    surviving with probability ``mu``.  The vectorized operator factors over
    photons across the cut, so the entropy is the sum of the per-photon
    contributions from :func:`lossy_mode_spectrum`.  At ``mu = 1`` each
    photon yields twice its pure-state entropy; at ``mu = 0`` the state is
    the vacuum and every contribution vanishes.
    """
    _check_order(alpha)
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    if not 0 <= num_photons <= angles.num_modes:
        raise ValueError(
            f"num_photons must be in [0, {angles.num_modes}], got {num_photons}"
        )
    total = 0.0
    for j in range(num_photons):
        spectrum = lossy_mode_spectrum(float(angles.cos_squared[j]), mu)
        total += distribution_renyi(spectrum, alpha)
    return total


@dataclass(frozen=True)
class ScalingLaw:
    """Predicted asymptotic exponent of entropy growth with photon number.

    The peak bipartite entropy scales as ``N**exponent`` (times ``log N``
    when ``has_log_factor`` is set) for single-photon inputs with survival
    probability ``mu ~ N**(gamma - 1)``.
    """

    exponent: float
    has_log_factor: bool


def asymptotic_scaling(gamma: float, alpha: float) -> ScalingLaw:
    """Growth law of the peak Renyi-``alpha`` entropy at loss exponent ``gamma``.

    With ``N`` input photons of which ``~N**gamma`` survive, the von Neumann
    entropy grows as ``N**(2*gamma - 1) * log N`` while every other Renyi
    order grows as a pure power ``N**(1 - 2*(1 - gamma)*alpha)``.  Positive
    exponents signal super-area-law growth and a simulation cost that climbs
    with system size; negative exponents signal saturation.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    _check_order(alpha)
    if abs(alpha - 1.0) < _VON_NEUMANN_WINDOW:
        return ScalingLaw(exponent=2.0 * gamma - 1.0, has_log_factor=True)
    return ScalingLaw(exponent=1.0 - 2.0 * (1.0 - gamma) * alpha, has_log_factor=False)


def naive_cost(num_photons: int, mu: float, cost_base: float) -> float:
    """Expected brute-force sampling cost for a lossy single-photon source.

    Each of the ``num_photons`` sources independently delivers its photon
    with probability ``mu``; an outcome with ``k`` survivors costs
    ``cost_base**k`` to process, so the expected cost is the binomial
    average ``(1 + mu * (cost_base - 1)) ** num_photons``.
    """
    return math.exp(log_naive_cost(num_photons, mu, cost_base))


def _check_cost_args(num_photons: int, mu: float, cost_base: float) -> None:
    if num_photons < 0:
        raise ValueError(f"num_photons must be nonnegative, got {num_photons}")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    if cost_base <= 1.0:
        raise ValueError(f"cost_base must exceed 1, got {cost_base}")


def log_naive_cost(num_photons: int, mu: float, cost_base: float) -> float:
    """Natural log of :func:`naive_cost`, safe for large photon numbers."""
    _check_cost_args(num_photons, mu, cost_base)
    return num_photons * math.log1p(mu * (cost_base - 1.0))


def log_asymptotic_cost(num_photons: int, mu: float, cost_base: float) -> float:
    """Natural log of the dilute-limit cost form ``exp((c - 1) * mu * N)``.

    For small survival probability the exact expected cost approaches
    ``exp((cost_base - 1) * expected_survivors)``; the ratio of log-costs
    tends to one as ``mu`` shrinks, which is the regime where power-law
    loss keeps brute-force sampling tractable.
    """
    _check_cost_args(num_photons, mu, cost_base)
    return (cost_base - 1.0) * mu * num_photons
