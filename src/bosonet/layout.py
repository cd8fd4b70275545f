"""Block layouts of the two-site update, resolved before any arithmetic.

``chain.two_site_update`` runs in two steps. This module is the first: from
the block keys of the two sites and the charges and sizes of the bonds
around them, ``update_plan`` works out where every block goes, and returns
it as integer offsets and gathers (an ``UpdatePlan``). The second step, in
``chain``, moves the numbers: products, one gather into the sector stacks,
the gate-block matmuls, one gather into every Phi, the SVDs and the rebuild.
Block-sparse libraries are organised this way; TeNPy's ``np_conserved``
resolves charge blocks with sorted index tables (Hauschild & Pollmann,
SciPost Phys. Lect. Notes 5 (2018)), and ITensor pairs up blocks before it
contracts them (Fishman, White & Stoudenmire, SciPost Phys. Codebases 4
(2022)).

A plan is a pure function of its arguments, so plans are cached: the
``PLAN_CACHE_SIZE`` most recently used are kept. Below exact rank the bond
sizes change from update to update and few layouts repeat, so the build
itself is vectorized: Python visits blocks and inner charges, and every
block row of every product, stack and Phi is placed by integer arithmetic
on arrays. A gather is kept as runs of consecutive entries and expanded to
an index only while it runs, which keeps the cached plans small.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Hashable

import numpy as np

Charge = Hashable

#: Update plans kept at once (least recently used dropped first). Every
#: exact-rank circuit of the paper's M=16, N=4, chi=256 MPO meets the same 24
#: distinct plans (2.5 MiB in all), and an M=32, N=5, chi=32 MPS circuit 35, so
#: this cap holds all of a circuit's plans, and a process that evolves the next
#: circuit of the same size finds them there. The cache is per process: a
#: forked worker of ``experiments`` starts with its parent's cache, which is
#: empty because the parent evolves nothing, so each worker builds its first
#: circuit's plans.
PLAN_CACHE_SIZE = 64


@dataclass(frozen=True)
class _Center:
    """One decomposed center charge: where its Phi and row weights sit in their buffers.

    ``copies`` is 2 for an off-diagonal (a, b) of a mirrored train, whose
    spectrum the (b, a) output copies, and 1 otherwise.
    """

    charge: Charge
    copies: int
    shape: tuple[int, int]
    start: int  # first entry of Phi (row-major) in the Phi buffer
    weights: int  # first row weight in the weight buffer
    halves: tuple[int, int] | None  # mirror-pair (rows, columns) of a sector decomposed as real


@dataclass(frozen=True)
class _Output:
    """One charge of the new center bond and how its new site blocks are made.

    A decomposed charge slices its blocks out of its center's kept factors:
    ``left``/``right`` hold (key, first, end) row or column ranges. A mirror
    charge (b, a) keeps the indices its center (a, b) keeps and conjugates
    the blocks of (a, b), which sorts before it: ``left``/``right`` hold
    (key, key of the block it conjugates).
    """

    charge: Charge
    center: int  # the center whose spectrum it takes
    mirror: bool
    left: tuple[tuple, ...]
    right: tuple[tuple, ...]


@dataclass(frozen=True)
class _Runs:
    """A gather index kept as runs: run r covers the next ``length[r]`` entries
    and reads source entries from ``shift[r]`` past each entry's own position."""

    shift: np.ndarray  # int32
    length: np.ndarray  # int32
    size: int

    def index(self) -> np.ndarray:
        index = np.arange(self.size)
        index += self.shift.repeat(self.length)
        return index


@dataclass(frozen=True)
class _Gather:
    """Fill a buffer from a source: ``main`` reads the source, extended past
    its filled part by ``conj`` (conjugated source entries) and ``zeros``
    zeros for the buffer entries no block covers."""

    conj: _Runs
    main: _Runs
    zeros: int

    @property
    def extra(self) -> int:
        """Source entries needed past the filled part."""
        return self.conj.size + self.zeros

    def apply(self, source: np.ndarray, filled: int, out: np.ndarray | None = None) -> np.ndarray:
        tail = source[filled:]
        if self.conj.size:
            np.conjugate(source.take(self.conj.index()), out=tail[: self.conj.size])
        tail[self.conj.size :] = 0.0
        return source.take(self.main.index(), out=out, mode="clip")  # "clip" writes into out


@dataclass(frozen=True)
class UpdatePlan:
    """Everything a two-site update does with its blocks, as offsets and gathers.

    ``products`` lists per inner charge the left and right block keys to
    concatenate and the (start, shape) of their product in the product
    buffer. ``stacks`` fills the sector stacks from that buffer, and
    ``sectors`` gives each sector's (start, shape) in them. ``phis`` fills
    every center's Phi from the gate outputs, and ``weights`` its row weights
    from the left bond values in dict order. ``centers`` are in charge order.
    """

    products: tuple[tuple[tuple, tuple, int, tuple[int, int]], ...]
    product_size: int
    stacks: _Gather
    sectors: tuple[tuple[Charge, int, tuple[int, int]], ...]
    phis: _Gather
    weights: _Runs
    centers: tuple[_Center, ...]
    outputs: tuple[_Output, ...]


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def update_plan(
    left_keys: tuple[tuple[Charge, Charge], ...],
    right_keys: tuple[tuple[Charge, Charge], ...],
    left_charges: tuple[Charge, ...],
    left_sizes: tuple[int, ...],
    right_charges: tuple[Charge, ...],
    right_sizes: tuple[int, ...],
) -> UpdatePlan:
    """The layout of a two-site update, from the block keys of its two sites.

    ``left_keys``/``right_keys`` are the (cl, ci) and (ci, cr) keys of the
    left and right site in dict order, which fixes the operand order of the
    product matmuls; the charges and sizes are those of bonds k and k+2. A
    train with (ket, bra) charges is taken to be in the mirror gauge. Only
    per-block and per-inner-charge work runs in Python: every block of every
    product, stack and Phi is placed by integer arithmetic on arrays, with
    charges coded as integers (a * base + b for a pair) so that code order is
    charge order.
    """
    mirrored = isinstance(left_charges[0], tuple)
    lefts: dict[Charge, list] = {}
    for key in left_keys:
        lefts.setdefault(key[1], []).append(key)
    rights: dict[Charge, list] = {}
    for key in right_keys:
        rights.setdefault(key[0], []).append(key)
    # Every pair through ci = (b, a), b > a, mirrors one through (a, b).
    inner = [ci for ci in lefts if ci in rights and not (mirrored and ci[0] > ci[1])]
    base = 1 + max(max(c) if mirrored else c for c in left_charges + right_charges)
    codes = _ChargeCodes(base, mirrored)
    left_size = codes.table(left_charges, left_sizes)
    right_size = codes.table(right_charges, right_sizes)

    # Products: group g multiplies its left blocks (rows) by its right blocks
    # (columns); triple t is the (cl, ci, cr) block of one product.
    n_left = np.array([len(lefts[ci]) for ci in inner], dtype=np.int64)
    n_right = np.array([len(rights[ci]) for ci in inner], dtype=np.int64)
    block_cl = codes.encode([key[0] for ci in inner for key in lefts[ci]])
    block_cr = codes.encode([key[1] for ci in inner for key in rights[ci]])
    heights, widths = left_size[block_cl], right_size[block_cr]
    group_l = np.repeat(np.arange(len(inner)), n_left)
    group_r = np.repeat(np.arange(len(inner)), n_right)
    row0, total_h = _starts_in_groups(group_l, heights, len(inner))
    col0, total_w = _starts_in_groups(group_r, widths, len(inner))
    product_start = _exclusive_cumsum(total_h * total_w)
    products = [(tuple(lefts[ci]), tuple(rights[ci]), start, (h, w)) for ci, start, h, w in
                zip(inner, product_start.tolist(), total_h.tolist(), total_w.tolist())]
    t_left = np.repeat(np.arange(len(block_cl)), n_right[group_l])
    group = group_l[t_left]
    t_right = _exclusive_cumsum(n_right)[group] + _ragged(n_right[group_l])
    t_cl, t_cr = block_cl[t_left], block_cr[t_right]
    t_ci = codes.encode(inner)[group]
    t_label = t_cl - t_ci
    t_stride = total_w[group]
    t_src = product_start[group] + row0[t_left] * t_stride + col0[t_right]

    # Outer pairs (cl, cr) in order of first appearance; a mirrored train
    # keeps the one of each mirror pair that sorts first.
    pair = codes.pair(t_cl, t_cr)
    mirror_pair = codes.pair(codes.mirror(t_cl), codes.mirror(t_cr))
    canonical = np.minimum(pair, mirror_pair)
    pair_codes, t_pair = _first_appearance(canonical)
    p_cl, p_cr = codes.unpair(pair_codes)
    p_size = left_size[p_cl] * right_size[p_cr]

    # Each sector's stack: one row per occupation, one column range per pair.
    sector_codes, p_sector = _first_appearance(p_cl - p_cr)
    p_offset, stack_width = _starts_in_groups(p_sector, p_size, len(sector_codes))
    sector_ket, sector_bra = codes.split(sector_codes)
    stack_rows = (sector_ket + 1) * (sector_bra + 1)
    stack_start = _exclusive_cumsum(stack_rows * stack_width)
    sectors = [(n, start, (rows, width)) for n, start, rows, width in
               zip(codes.decode(sector_codes), stack_start.tolist(), stack_rows.tolist(),
                   stack_width.tolist())]

    def stack_entry(pairs, labels):
        """Stack position of the first entry of each pair's block at an occupation."""
        sector = p_sector[pairs]
        ket_label, bra_label = codes.split(labels)
        position = ket_label * (sector_bra[sector] + 1) + bra_label
        return stack_start[sector] + position * stack_width[sector] + p_offset[pairs]

    # A product lands in its pair's stack if that pair is kept, and its
    # conjugate, the product through the mirror inner charge, in the mirror
    # pair's stack if that one is.
    direct = canonical == pair
    flip = (canonical == mirror_pair) & (codes.mirror(t_ci) != t_ci)
    place = np.concatenate([np.flatnonzero(direct), np.flatnonzero(flip)])
    labels = np.concatenate([t_label[direct], codes.mirror(t_label[flip])])
    stack_gather = _gather_plan(
        int(np.sum(stack_rows * stack_width)), int(np.sum(total_h * total_w)),
        stack_entry(t_pair[place], labels), left_size[t_cl[place]], right_size[t_cr[place]],
        right_size[t_cr[place]], t_src[place], t_stride[place],
        np.arange(len(place)) >= np.count_nonzero(direct))

    # Output row j of pair (cl, cr) is its block of the Phi of center cl - j.
    # A mirrored train assembles only centers (a, b), a <= b, and the
    # conjugated block of the mirror pair lands in the mirror center.
    s_pair = np.repeat(np.arange(len(pair_codes)), stack_rows[p_sector])
    position = _ragged(stack_rows[p_sector])
    bra_rows = sector_bra[p_sector[s_pair]] + 1
    s_label = codes.join(position // bra_rows, position % bra_rows)
    s_cl, s_cr = p_cl[s_pair], p_cr[s_pair]
    s_center = s_cl - s_label
    center_ket, center_bra = codes.split(s_center)
    direct = center_ket <= center_bra
    flip = (center_ket >= center_bra) & (codes.pair(codes.mirror(s_cl), codes.mirror(s_cr))
                                         != codes.pair(s_cl, s_cr))
    centers, o_center = np.unique(
        np.concatenate([s_center[direct], codes.mirror(s_center[flip])]), return_inverse=True)
    o_cl = np.concatenate([s_cl[direct], codes.mirror(s_cl[flip])])
    o_cr = np.concatenate([s_cr[direct], codes.mirror(s_cr[flip])])
    ket, bra = codes.split(centers)
    real = (ket == bra) & mirrored
    rows = _BlockLayout(o_center, o_cl, left_size, real, codes, left_charges)
    cols = _BlockLayout(o_center, o_cr, right_size, real, codes, right_charges)
    phi_start = _exclusive_cumsum(rows.totals * cols.totals)
    place = np.concatenate([np.flatnonzero(direct), np.flatnonzero(flip)])
    phi_gather = _gather_plan(
        int(np.sum(rows.totals * cols.totals)), stack_gather.main.size,
        phi_start[o_center] + rows.placed * cols.totals[o_center] + cols.placed,
        left_size[o_cl], right_size[o_cr], cols.totals[o_center],
        stack_entry(s_pair[place], s_label[place]), right_size[o_cr],
        np.arange(len(place)) >= np.count_nonzero(direct))

    # Row weights in Phi's row order, one run per row block; a hi block of a
    # real-decomposed center reads its lo block's.
    weight_start = _exclusive_cumsum(rows.totals)
    bond_start = codes.table(left_charges, _exclusive_cumsum(np.array(left_sizes)))
    read = bond_start[np.where(rows.kind == 1, codes.mirror(rows.charge), rows.charge)]
    weight_gather = _runs((read - weight_start[rows.center] - rows.offset)[rows.order],
                          rows.size[rows.order])

    # New blocks by center, in charge order, with their row or column ranges.
    plan_centers, outputs = [], []
    for c, co in enumerate(codes.decode(centers)):
        halves = (int(rows.halves[c]), int(cols.halves[c])) if real[c] else None
        copies = 2 if mirrored and co[0] != co[1] else 1
        plan_centers.append(_Center(co, copies, (int(rows.totals[c]), int(cols.totals[c])),
                                    int(phi_start[c]), int(weight_start[c]), halves))
        left, right = rows.keys(c, co, left=True), cols.keys(c, co, left=False)
        outputs.append(_Output(co, c, False, tuple(zip(left, *rows.ranges(c))),
                               tuple(zip(right, *cols.ranges(c)))))
        if copies == 2:
            mc = co[::-1]
            outputs.append(_Output(mc, c, True,
                                   tuple(zip(rows.keys(c, mc, True, mirror=True), left)),
                                   tuple(zip(cols.keys(c, mc, False, mirror=True), right))))
    outputs.sort(key=lambda out: out.charge)
    return UpdatePlan(tuple(products), int(np.sum(total_h * total_w)), stack_gather,
                      tuple(sectors), phi_gather, weight_gather, tuple(plan_centers),
                      tuple(outputs))


class _ChargeCodes:
    """Integer codes of the charges of one update, ordered like the charges.

    A pair (a, b) is a * base + b; an int charge c is c, which is also the code
    of (0, c), so the componentwise arithmetic below serves both kinds.
    """

    def __init__(self, base: int, mirrored: bool):
        self.base, self.mirrored = base, mirrored
        self.size = base * base if mirrored else base  # every code is below this

    def encode(self, charges) -> np.ndarray:
        a = np.array(charges, dtype=np.int64).reshape(-1, 2 if self.mirrored else 1)
        return a[:, 0] * self.base + a[:, 1] if self.mirrored else a[:, 0]

    def decode(self, codes: np.ndarray) -> list:
        if self.mirrored:
            return list(zip(*(part.tolist() for part in self.split(codes))))
        return codes.tolist()

    def split(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ket, bra) components; (0, c) for an int charge."""
        return np.divmod(codes, self.base)

    def join(self, ket: np.ndarray, bra: np.ndarray) -> np.ndarray:
        return ket * self.base + bra

    def mirror(self, codes: np.ndarray) -> np.ndarray:
        """Codes of the SK images; an int charge is its own."""
        if not self.mirrored:
            return codes
        ket, bra = self.split(codes)
        return self.join(bra, ket)

    def pair(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Codes of (left, right) charge pairs, ordered like the tuples."""
        return left * self.size + right

    def unpair(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.divmod(codes, self.size)

    def table(self, charges, values) -> np.ndarray:
        """values[i] at the code of charges[i], zero elsewhere."""
        table = np.zeros(self.size, dtype=np.int64)
        table[self.encode(charges)] = values
        return table


class _BlockLayout:
    """The row (or column) blocks of every center and where each starts in its Phi.

    Built from one (center, charge) entry per placed block. A center's
    blocks run in charge order, except in a real-decomposed center: there the
    (a, b), a < b, blocks come first (kind 0), their mirrors next in the same
    order (kind 1) and the self-mirror blocks last (kind 2), and ``halves``
    counts the rows of the first part.
    """

    def __init__(self, center: np.ndarray, charge: np.ndarray, sizes: np.ndarray,
                 real: np.ndarray, codes: _ChargeCodes, bond: tuple[Charge, ...]):
        keys, inverse = np.unique(center * codes.size + charge, return_inverse=True)
        self.center, self.charge = np.divmod(keys, codes.size)
        self.size = sizes[self.charge]
        ket, bra = codes.split(self.charge)
        self.kind = np.where(real[self.center], np.where(ket < bra, 0, np.where(ket > bra, 1, 2)), 0)
        order = np.lexsort((np.where(self.kind == 1, codes.mirror(self.charge), self.charge),
                            self.kind, self.center))
        self.offset = np.empty_like(self.size)
        self.offset[order], self.totals = _starts_in_groups(
            self.center[order], self.size[order], len(real))
        self.order = order  # the blocks in Phi's order
        self.halves = np.bincount(self.center, self.size * (self.kind == 0) * real[self.center],
                                  len(real)).astype(np.int64)
        self.placed = self.offset[inverse]  # the offset of every placed block
        bounds = np.searchsorted(self.center, np.arange(len(real) + 1)).tolist()
        self._slices = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        # Keys reuse the bond's charge objects, so cached plans hold no copies.
        named = dict(zip(codes.encode(bond).tolist(), bond))
        self._charge = [named[c] for c in self.charge.tolist()]
        self._mirror = [named[c] for c in codes.mirror(self.charge).tolist()]
        self._first, self._end = self.offset.tolist(), (self.offset + self.size).tolist()

    def keys(self, c: int, co: Charge, left: bool, mirror: bool = False) -> list:
        """Block keys of center c (named co), in charge order: (charge, co) on the
        left, (co, charge) on the right; with the mirrored charges if asked."""
        charges = (self._mirror if mirror else self._charge)[self._slices[c]]
        return list(zip(charges, repeat(co))) if left else list(zip(repeat(co), charges))

    def ranges(self, c: int) -> tuple[list[int], list[int]]:
        """First and end row (or column) of every block of center c, in charge order."""
        return self._first[self._slices[c]], self._end[self._slices[c]]


def _gather_plan(size, source_size, dst, rows, cols, dst_stride, src, src_stride, conj) -> _Gather:
    """The gather that places every block into a buffer of ``size`` entries.

    Block i is a rows[i] x cols[i] matrix read from source entry src[i] with
    row stride src_stride[i] and written at buffer entry dst[i] with row
    stride dst_stride[i], conjugated where conj[i]; the source has
    ``source_size`` entries. Each block row is one run. The conjugated runs
    are copied, in run order, past the source, and buffer entries that no
    block covers read zeros placed after those.
    """
    item = np.arange(len(rows)).repeat(rows)
    row = _ragged(rows)
    start = dst[item] + row * dst_stride[item]
    read = src[item] + row * src_stride[item]
    length = cols[item]
    flip = conj[item]
    conj_at = _exclusive_cumsum(length[flip])
    conj_runs = _runs(read[flip] - conj_at, length[flip])
    read[flip] = source_size + conj_at
    # In buffer order, each run preceded by the (maybe empty) gap before it.
    order = start.argsort()
    start, length, read = start[order], length[order], read[order]
    gap_start = np.concatenate([[0], start + length])
    gap = np.concatenate([start, [size]]) - gap_start
    shift = np.empty(2 * len(start) + 1, dtype=np.int64)
    shift[0::2] = source_size + conj_runs.size - gap_start
    shift[1::2] = read - start
    lengths = np.empty_like(shift)
    lengths[0::2], lengths[1::2] = gap, length
    return _Gather(conj_runs, _runs(shift, lengths), int(gap.max()))


def _runs(shift: np.ndarray, length: np.ndarray) -> _Runs:
    """Runs of the given shifts and lengths, empty ones dropped and equal neighbours merged."""
    shift, length = shift[length > 0], length[length > 0]
    if len(shift):
        first = np.flatnonzero(np.concatenate([[True], shift[1:] != shift[:-1]]))
        shift, length = shift[first], np.add.reduceat(length, first)
    shift, length = shift.astype(np.int32), length.astype(np.int32)
    shift.flags.writeable = length.flags.writeable = False  # cached plans are shared
    return _Runs(shift, length, int(length.sum()))


def _first_appearance(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values in order of first appearance, and each value's position among them."""
    distinct, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    rank = np.empty(len(distinct), dtype=np.int64)
    rank[first.argsort()] = np.arange(len(distinct))
    ordered = np.empty_like(distinct)
    ordered[rank] = distinct
    return ordered, rank[inverse]


def _starts_in_groups(group: np.ndarray, sizes: np.ndarray, count: int):
    """Start of each item within its group (items of a group in their given order), and group totals."""
    totals = np.bincount(group, sizes, count).astype(np.int64)
    order = group.argsort(kind="stable")
    starts = np.empty_like(sizes)
    ordered = sizes[order]
    starts[order] = ordered.cumsum() - ordered - _exclusive_cumsum(totals)[group[order]]
    return starts, totals


def _exclusive_cumsum(values: np.ndarray) -> np.ndarray:
    return values.cumsum() - values


def _ragged(counts: np.ndarray) -> np.ndarray:
    """arange(counts[0]), arange(counts[1]), ... concatenated."""
    return np.arange(counts.sum()) - _exclusive_cumsum(counts).repeat(counts)
