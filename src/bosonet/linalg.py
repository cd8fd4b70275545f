"""Dense linear-algebra kernels and pooled singular-value truncation.

Everything downstream (two-site updates, spectra, entropies) goes through
``svd`` and ``truncate_global``; the decomposition backend is LAPACK via
numpy (and scipy's gesvd as a fallback), wrapped so that failures surface as
explicit errors instead of silently corrupted tensors. Nothing here inverts
singular values: the tensor trains store right-canonical site tensors, so no
update needs a division cutoff.

``single_blas_thread`` runs a block with numpy's OpenBLAS on one thread: the
last bits of a large block product depend on the thread count, and on a
2-core host one thread evolved the M=16, N=4, chi=256 MPO faster than two.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate
from typing import Any, Hashable, Iterator, Sequence

import numpy as np

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
    """How many singular values survive a two-site update: at most chi_max,
    counted across all charge sectors."""

    chi_max: int

    def __post_init__(self) -> None:
        if self.chi_max < 1:
            raise ValueError(f"chi_max must be at least 1, got {self.chi_max}")


@dataclass
class TruncationOutcome:
    """Dropped weight and kept indices per group of one pooled cut.

    ``kept`` lists each kept value once as a (group label, value) pair in keep
    order (descending value, then pooled position). It is built from the
    groups the cut was given each time it is read, so a caller that reads
    only ``kept_by_group`` does not pay for it.
    """

    discarded_weight: float
    kept_by_group: list[np.ndarray]
    groups: Sequence[tuple[Hashable, np.ndarray]] = field(repr=False)

    @property
    def kept(self) -> list[tuple[Hashable, float]]:
        values = [np.asarray(vals, dtype=np.float64)[kept]
                  for (_, vals), kept in zip(self.groups, self.kept_by_group)]
        group = np.repeat(np.arange(len(values)), [vals.size for vals in values])
        pooled = np.concatenate(values) if values else np.zeros(0)
        order = np.argsort(-pooled, kind="stable")
        return [(self.groups[g][0], v) for g, v in zip(group[order].tolist(),
                                                        pooled[order].tolist())]


def svd(m: np.ndarray) -> SvdResult:
    """Thin SVD with singular values sorted in descending order.

    A real matrix gets a real (float64) decomposition, a complex one a
    complex128 one. numpy's driver (gesdd) runs first; if it does not
    converge, scipy's gesvd, slower but more robust, gets the same matrix.
    scipy.linalg is imported only then, so a run whose SVDs all converge
    never loads it. The factors are C-contiguous from either routine (scipy
    returns Fortran order), so a caller that slices rows of V^dag gets the
    same layout from both. Raises ValueError for an input that is not a
    nonempty 2-d matrix of finite entries, and NumericalFailure if neither
    routine converges.
    """
    a = np.asarray(m)
    if a.dtype != np.complex128 and a.dtype != np.float64:
        a = a.astype(np.complex128 if a.dtype.kind == "c" else np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError("matrix must be nonempty")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        import scipy.linalg

        try:
            u, s, vh = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
        except Exception as exc:  # pragma: no cover - hard to trigger on purpose
            raise NumericalFailure(f"SVD did not converge for shape {a.shape}") from exc
        u, vh = np.ascontiguousarray(u), np.ascontiguousarray(vh)
    return SvdResult(u, s, vh)


@cache
def _openblas_threads():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None.

    This process's memory map names the library numpy loaded, and ctypes
    calls that library's own functions. None where the map cannot be read or
    names no OpenBLAS of numpy's (another BLAS, or not Linux).
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "numpy" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                set_.argtypes = [ctypes.c_int]
                return get, set_
    return None


@contextmanager
def single_blas_thread() -> Iterator[dict[str, Any] | None]:
    """Run the block with numpy's OpenBLAS on one thread, then restore the count.

    Yields ``{"vendor": "OpenBLAS", "threads": n}``, n the count the block
    runs with, or None, and changes nothing, if no OpenBLAS is found. The
    count is process-wide: another thread's BLAS calls see it too.
    """
    functions = _openblas_threads()
    if functions is None:
        yield None
        return
    get, set_ = functions
    before = get()
    set_(1)
    try:
        yield {"vendor": "OpenBLAS", "threads": get()}
    finally:
        set_(before)


def truncate_global(
    groups: Sequence[tuple[Hashable, np.ndarray]],
    policy: TruncationPolicy,
    units: Sequence[int] | None = None,
) -> TruncationOutcome:
    """Keep the globally largest singular values pooled across charge groups.

    All values are pooled into one list and the top policy.chi_max survive;
    there are no per-group quotas. Ties break by pooled position (earlier
    group, then smaller index), so callers list groups in tie-break order.
    Values below RANK_CUTOFF times the largest pooled value count as exact
    zeros and are always dropped. The dropped squared weight is returned.

    ``units[g]`` is the number of copies of group g's values that the caller
    keeps (1 for every group when not given): each value of group g counts
    units[g] against chi_max and units[g] v^2 in every weight. The cut keeps
    the longest prefix whose count fits chi_max (so maybe fewer than chi_max)
    and always the largest value, so no cut empties a bond: at chi_max = 1 a
    mirror pair at the head keeps both copies. ``kept`` lists each kept value
    once, under its group's label; ``kept_by_group[g]`` holds group g's kept
    indices, maybe none.
    """
    arrays = [np.asarray(values, dtype=np.float64) for _, values in groups]
    if any(vals.ndim != 1 for vals in arrays):
        raise ValueError("each group must provide a 1-d value array")
    units = np.ones(len(arrays), dtype=np.int64) if units is None else np.asarray(units)
    unit_list = units.tolist()
    if (units.shape != (len(arrays),) or units.dtype.kind not in "iu"
            or min(unit_list, default=1) < 1):
        raise ValueError("units must give one positive integer per group")
    sizes = [vals.size for vals in arrays]
    values = np.concatenate(arrays) if arrays else np.zeros(0)
    top, low = values.max(initial=0.0), values.min(initial=np.inf)
    if not (low >= 0.0 and top < np.inf):  # NaN fails both
        raise ValueError("singular values must be finite and nonnegative")
    cutoff = RANK_CUTOFF * top
    all_fit = sum(u * size for u, size in zip(unit_list, sizes)) <= policy.chi_max
    if low > cutoff and all_fit:
        # Every value is nonzero and all of them fit: nothing to rank or drop.
        return TruncationOutcome(0.0, [np.arange(size) for size in sizes], groups)

    order = np.argsort(-values, kind="stable")
    pooled = values[order]
    counts = np.repeat(units, sizes)[order]
    nonzero = int(np.count_nonzero(values > cutoff))
    fits = values.size if all_fit else int(
        np.searchsorted(np.cumsum(counts), policy.chi_max, "right"))
    keep_count = min(nonzero, max(1, fits))
    dropped = counts[keep_count:] * pooled[keep_count:] ** 2

    kept = np.zeros(values.size, dtype=bool)
    kept[order[:keep_count]] = True
    starts = list(accumulate(sizes, initial=0))
    kept_by_group = [kept[start:stop].nonzero()[0] for start, stop in zip(starts, starts[1:])]
    return TruncationOutcome(float(sum(dropped.tolist())), kept_by_group, groups)
