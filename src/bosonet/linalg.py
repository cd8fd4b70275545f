"""Dense linear-algebra kernels and pooled singular-value truncation.

Everything downstream (two-site updates, spectra, entropies) goes through
``svd`` and ``truncate_global``; the decomposition backend is LAPACK via
numpy/scipy, wrapped so that failures surface as explicit errors instead of
silently corrupted tensors. Nothing here inverts singular values: the tensor
trains store right-canonical site tensors, so no update needs a division
cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Hashable, Sequence

import numpy as np
import scipy.linalg

# Relative threshold below which a singular value counts as an exact zero
# when deciding ranks.
RANK_CUTOFF = 1e-14


class NumericalFailure(RuntimeError):
    """A dense decomposition did not converge or produced invalid output."""


class DegradedStateError(RuntimeError):
    """A state has lost too much weight to support the requested operation."""


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``m = left @ diag(singular_values) @ right_conj``."""

    left: np.ndarray
    singular_values: np.ndarray
    right_conj: np.ndarray


@dataclass(frozen=True)
class TruncationPolicy:
    """How many singular values survive a two-site update.

    chi_max caps the total number kept across all charge sectors.
    weight_threshold, when set, additionally drops the longest tail whose
    total squared weight stays at or below it.
    """

    chi_max: int
    weight_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.chi_max < 1:
            raise ValueError(f"chi_max must be at least 1, got {self.chi_max}")
        if self.weight_threshold is not None and self.weight_threshold < 0:
            raise ValueError("weight_threshold must be nonnegative")


@dataclass
class TruncationOutcome:
    """Kept (group label, value) pairs in keep order plus the dropped weight."""

    kept: list[tuple[Hashable, float]]
    discarded_weight: float
    kept_by_group: dict[Hashable, np.ndarray] = field(default_factory=dict)


def _as_matrix(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m)
    a = a.astype(np.complex128 if a.dtype.kind == "c" else np.float64, copy=False)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError("matrix must be nonempty")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def svd(m: np.ndarray) -> SvdResult:
    """Thin SVD with singular values sorted in descending order.

    A real matrix gets a real (float64) decomposition, a complex one a
    complex128 one. Raises NumericalFailure if neither LAPACK driver
    converges.
    """
    a = _as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails on ill-conditioned input; gesvd is slower
        # but more robust.
        try:
            u, s, vh = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
        except Exception as exc:  # pragma: no cover - hard to trigger on purpose
            raise NumericalFailure(f"SVD did not converge for shape {a.shape}") from exc
    return SvdResult(u, s, vh)


def truncate_global(
    groups: Sequence[tuple[Hashable, np.ndarray]],
    policy: TruncationPolicy,
    mirror: Callable[[Hashable], Hashable] | None = None,
) -> TruncationOutcome:
    """Keep the globally largest singular values pooled across charge groups.

    All values are pooled into one list and the top policy.chi_max survive;
    there are no per-group quotas. Ties break deterministically: larger value
    first, then smaller group label, then smaller original index within the
    group. Values below RANK_CUTOFF times the largest pooled value count as
    exact zeros and are always dropped. The squared weight of everything
    dropped is returned.

    ``mirror``, when given, maps a group label to the label of its mirror
    partner (itself for a self-mirrored group). A group and its distinct
    partner must hold bitwise equal values, and each value together with its
    partner's copy is one unit of the cut: it counts 2 against chi_max and
    2 v^2 in every weight, and the two are kept or dropped together, so a cut
    at a pair that no longer fits stops there and keeps fewer than chi_max.
    ``kept`` still lists every kept value, the partner's right after its
    representative (the group with the smaller label).
    """
    arrays = [np.asarray(values, dtype=np.float64) for _, values in groups]
    if any(vals.ndim != 1 for vals in arrays):
        raise ValueError("each group must provide a 1-d value array")
    labels = [label for label, _ in groups]
    label_rank = {label: r for r, label in enumerate(sorted(set(labels)))}
    # With a mirror, only the representative of each pair (the smaller label)
    # is pooled; partners[g] is the group that rides along with group g.
    partners: dict[int, int] = {}
    if mirror is not None:
        position = {label: g for g, label in enumerate(labels)}
        for g, label in enumerate(labels):
            partner = mirror(label)
            if partner == label:
                continue
            other = arrays[position[partner]] if partner in position else None
            if other is None or not (other is arrays[g] or np.array_equal(other, arrays[g])):
                raise ValueError(f"group {label!r} has no mirror partner with equal values")
            if label_rank[label] < label_rank[partner]:
                partners[g] = position[partner]
    riders = set(partners.values())
    reps = [g for g in range(len(arrays)) if g not in riders]
    sizes = [arrays[g].size for g in reps]
    values = np.concatenate([arrays[g] for g in reps]) if reps else np.zeros(0)
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise ValueError("singular values must be finite and nonnegative")
    if values.size == 0:
        return TruncationOutcome(kept=[], discarded_weight=0.0)

    group = np.repeat(np.array(reps, dtype=np.intp), sizes)
    ranks = np.array([label_rank[label] for label in labels])[group]
    # Within one group the pooled position orders entries by index.
    order = np.lexsort((np.arange(values.size), ranks, -values))
    pooled = values[order]
    nonzero = int(np.count_nonzero(pooled > RANK_CUTOFF * pooled[0]))
    if partners:
        units = np.repeat([2 if g in partners else 1 for g in reps], sizes)[order]
        # The longest prefix of whole units whose count fits the budget.
        keep_count = min(nonzero, int(np.searchsorted(np.cumsum(units), policy.chi_max, "right")))
        weights = units * pooled**2
    else:
        keep_count = min(policy.chi_max, nonzero)
        weights = pooled**2

    if policy.weight_threshold is not None and keep_count > 0:
        # Drop the longest tail whose total squared weight fits the budget.
        tail = np.cumsum(weights[:keep_count][::-1])[::-1]  # weight of entries j..end
        keep_count = int(np.count_nonzero(tail > policy.weight_threshold))

    kept = np.zeros(values.size, dtype=bool)
    kept[order[:keep_count]] = True
    starts = list(accumulate(sizes, initial=0))
    kept_by_group = {}
    for g, start, stop in zip(reps, starts, starts[1:]):
        idx = np.flatnonzero(kept[start:stop])
        if idx.size:
            kept_by_group[labels[g]] = idx
            if g in partners:
                kept_by_group[labels[partners[g]]] = idx
    kept_list = []
    for g, v in zip(group[order[:keep_count]].tolist(), pooled[:keep_count].tolist()):
        kept_list.append((labels[g], v))
        if g in partners:
            kept_list.append((labels[partners[g]], v))
    return TruncationOutcome(
        kept=kept_list,
        discarded_weight=float(sum(weights[keep_count:].tolist())),
        kept_by_group=kept_by_group,
    )
