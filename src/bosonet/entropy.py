"""Closed-form entanglement accounting for collision-free photon inputs.

When an interferometer receives well-separated single photons, a bipartition
of the output modes splits each photon independently: photon ``j`` ends up on
the left of the cut with some weight ``cos^2(theta_j)`` and on the right with
``sin^2(theta_j)``.  Both the pure-state Schmidt spectrum and the vectorized
mixed-state spectrum then factor over photons, so bipartite entropies reduce
to sums of small closed-form per-photon terms.  This module holds the closed
forms that a run reads: the splitting weights of the input modes at a cut
(``partition_angles``), the per-photon spectrum of the vectorized state under
uniform loss (``lossy_mode_spectrum``) and its entropy summed over photons
(``lossy_mpo_ee``, the ``analytic-ee`` recipe), the scaling laws these imply,
and the cost model for brute-force sampling that the scaling laws are
compared against.  The pure-state (binomial) closed form is a test reference.

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

__all__ = [
    "ScalingLaw",
    "partition_angles",
    "distribution_renyi",
    "normalized_renyi",
    "lossy_mode_spectrum",
    "lossy_mpo_ee",
    "asymptotic_scaling",
    "log_naive_cost",
    "log_asymptotic_cost",
]

#: Treat Renyi order ``alpha`` as the von Neumann point when this close to 1.
_VON_NEUMANN_WINDOW = 1e-12


def partition_angles(unitary: np.ndarray, cut: int) -> np.ndarray:
    """Splitting weight ``cos_squared`` of each input mode across the cut after ``unitary``.

    ``cos_squared[j]`` is the probability that a photon entering mode ``j``
    exits in one of the first ``cut`` output modes. Row ``j`` of the mode
    unitary holds the output amplitudes of input mode ``j``, so that weight
    is the squared norm of the first ``cut`` entries of the row.  Rows are
    normalized by their full squared norm so that mildly non-unitary input
    (e.g. from accumulated rounding) still yields weights in [0, 1].
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
    return np.clip(cos2, 0.0, 1.0)


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


def lossy_mode_spectrum(cos_squared: float, mu: float) -> np.ndarray:
    """Normalized per-photon spectrum of the vectorized state across a cut.

    A photon prepared with survival probability ``mu`` and split with
    left-of-cut weight ``cos_squared`` contributes a vectorized operator
    whose halves on either side of the cut span at most four states: the
    doubled vacuum, the two single-sided coherences, and the doubled
    single-photon component.  In that basis the cross-cut Gram matrix is the
    2x2 block ``[[a, b], [b, d]]`` on the (vacuum, doubled-photon) pair plus
    two coherence diagonals ``off``; its eigenvalues, in closed form, are the
    per-photon spectrum.  The block's determinant ``a * d - b * b`` is
    ``off**2`` exactly, so its small root is ``off**2`` over the large one,
    with no cancellation; the large root is positive, as ``a + d > 0`` for
    every ``mu`` in [0, 1].  The four values are normalized to sum to one and
    returned in descending order.
    """
    if not 0.0 <= cos_squared <= 1.0:
        raise ValueError(f"cos_squared must be in [0, 1], got {cos_squared}")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    c2 = cos_squared
    s2 = 1.0 - cos_squared
    a = (1.0 - mu) ** 2 + mu**2 * s2**2
    d = mu**2 * c2**2
    b = (1.0 - mu) * mu * c2
    off = mu**2 * s2 * c2
    hi = (a + d) / 2.0 + math.hypot((a - d) / 2.0, b)
    lo = off * off / hi
    spectrum = np.array([hi, lo, off, off])
    norm = (1.0 - mu) ** 2 + mu**2
    return np.sort(spectrum / norm)[::-1]


def lossy_mpo_ee(
    cos_squared: np.ndarray,
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
    if not 0 <= num_photons <= len(cos_squared):
        raise ValueError(
            f"num_photons must be in [0, {len(cos_squared)}], got {num_photons}"
        )
    total = 0.0
    for j in range(num_photons):
        spectrum = lossy_mode_spectrum(float(cos_squared[j]), mu)
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


def _check_cost_args(num_photons: int, mu: float, cost_base: float) -> None:
    if num_photons < 0:
        raise ValueError(f"num_photons must be nonnegative, got {num_photons}")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    if cost_base <= 1.0:
        raise ValueError(f"cost_base must exceed 1, got {cost_base}")


def log_naive_cost(num_photons: int, mu: float, cost_base: float) -> float:
    """Natural log of the expected brute-force sampling cost of a lossy single-photon source.

    Each of the ``num_photons`` sources independently delivers its photon
    with probability ``mu``; an outcome with ``k`` survivors costs
    ``cost_base**k`` to process, so the expected cost is the binomial
    average ``(1 + mu * (cost_base - 1)) ** num_photons``. Its log is
    returned, which stays finite for large photon numbers.
    """
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
