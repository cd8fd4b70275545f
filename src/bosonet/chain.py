"""Charge-blocked tensor trains in right-canonical form.

This module is the shared chassis for the pure-state and density-operator
simulators: ``mps.MpsState`` and ``mpo.MpoState`` subclass
:class:`TensorTrainState`, so a state is its train and the contractions,
spectra and entropies below serve both. A state is stored as singular-value
vectors and site tensors; every bond index is resolved into symmetry sectors
labeled by a *charge* (the photon count strictly to the right of the cut, or a
ket/bra pair of such counts for vectorized density operators). Site tensors
keep one dense block per (left charge, right charge) pair, because the local
occupation is implied by the charge difference — that is what makes the
representation compact and what enforces particle-number conservation
structurally. The same fact lets a contraction address blocks by local
occupation label: the right charge is the left charge minus the label, so each
(charge, label) pair is one dict lookup. It also makes the two-site update
block-sparse (Singh, Pfeifer & Vidal, Phys. Rev. B 83, 115125 (2011)): for
outer charges (cl, cr) every occupation pair a number-conserving gate touches
lies in the one sector n = cl - cr. Charges are plain data, an int or an int
(ket, bra) pair, and the module needs no rule object for them:
``_sub``/``_add`` act componentwise on either kind, and no update or
contraction reads the local dimension, because n <= N and the gate blocks
``circuit.fock_gate`` returns cover every such sector.

Layout for ``M`` sites (one per mode):

- ``bonds[k]``, k = 0..M: dict charge -> descending positive float array, the
  singular values across cut k. ``bonds[0]``/``bonds[M]`` carry the boundary
  sector decomposition.
- ``sites[k]``, k = 0..M-1 (site k+1): dict (cl, cr) -> complex matrix B of
  shape (len(bonds[k][cl]), len(bonds[k+1][cr])).

Each B is the Vidal Gamma times the singular values on its right
(B = Gamma lambda), so the site tensors are right-canonical: summed over the
local occupation and the right charge, B B^dag is the identity on every left
sector. The physical amplitude of the represented (normalized) state is
lambda^[0] B^1 B^2 ... B^M contracted along the unique charge path of a basis
state. Because the singular values are already absorbed, a two-site update
never divides by them (Hastings, "Light-cone matrix product", J. Math. Phys.
50, 095207 (2009)), so tiny or truncated spectra need no regularization.
``norm_scale`` restores the raw (unnormalized) object, which
density-operator states use to keep trace bookkeeping while their singular
values stay 2-norm normalized.

A vectorized density operator |rho>> is invariant under swapping ket and bra
and conjugating (SK), because rho is Hermitian. Its trains are kept in the
*mirror gauge* that makes this symmetry visible block by block: with
c~ = (b, a) the mirror of charge c = (a, b),

- ``bonds[k][c~]`` is a bitwise copy of ``bonds[k][c]``;
- ``sites[k][(cl~, cr~)]`` equals ``conj(sites[k][(cl, cr)])`` bitwise, with
  the same row and column order, so a diagonal block (both charges of the
  form (a, a)) is real.

So the bond vectors of a diagonal sector (a, a) are each SK-invariant, and
those of (a, b) and (b, a) are SK images of each other. The product MPO and
U (x) conj(U) gates satisfy the gauge, and ``two_site_update`` keeps it; a
pure state (int charges) has no mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Hashable

import numpy as np

from .linalg import TruncationPolicy, svd, truncate_global

Charge = Hashable

_SQRT_HALF = math.sqrt(0.5)


@dataclass
class TensorTrainState:
    """Right-canonical charge-blocked tensor train: ``num_photons`` photons on ``num_modes`` sites.

    ``mps.MpsState`` and ``mpo.MpoState`` subclass it, so a state is its train.
    """

    num_modes: int
    num_photons: int
    sites: list[dict[tuple[Charge, Charge], np.ndarray]]
    bonds: list[dict[Charge, np.ndarray]]
    norm_scale: float = 1.0
    discarded_weight: float = 0.0

    @property
    def local_dim(self) -> int:
        return self.num_photons + 1

    def bond_dimension(self, k: int) -> int:
        return sum(len(v) for v in self.bonds[k].values())

    def max_bond_dimension(self) -> int:
        return max(self.bond_dimension(k) for k in range(self.num_modes + 1))

    def total_weight(self, k: int | None = None) -> float:
        """Sum of squared singular values at bond k (default: central bond)."""
        if k is None:
            k = self.num_modes // 2
        return float(sum(np.sum(v**2) for v in self.bonds[k].values()))


def product_state(
    site_vectors: list[dict[Hashable, complex]],
    left_charges: list[Charge],
    right_charge: Charge,
) -> tuple[list[dict[tuple[Charge, Charge], np.ndarray]], list[dict[Charge, np.ndarray]], float]:
    """Exact right-canonical form of a product state, one local vector per site.

    ``site_vectors[k]`` maps local occupation labels (ints for pure states,
    (ket, bra) pairs for vectorized operators) to amplitudes. The left
    boundary enumerates the allowed total-charge sectors. Returns
    ``(sites, bonds, norm_scale)``: the singular values are normalized so the
    squared total is 1 and ``norm_scale`` is the raw 2-norm.
    """
    m = len(site_vectors)
    if m < 1:
        raise ValueError("need at least one site")
    for vector in site_vectors:
        for occ in vector:
            if np.min(occ) < 0:
                raise ValueError(f"occupation labels must be non-negative, got {occ}")

    # Forward/backward squared-weight sweeps over reachable charges.
    left_sq: list[dict[Charge, float]] = [{c: 1.0 for c in left_charges}]
    for k in range(m):
        nxt: dict[Charge, float] = {}
        for cl, w in left_sq[k].items():
            for occ, amp in site_vectors[k].items():
                if amp == 0.0:
                    continue
                cr = _sub(cl, occ)
                nxt[cr] = nxt.get(cr, 0.0) + w * abs(amp) ** 2
        left_sq.append(nxt)
    right_sq: list[dict[Charge, float]] = [dict() for _ in range(m + 1)]
    right_sq[m] = {right_charge: 1.0}
    for k in range(m - 1, -1, -1):
        cur: dict[Charge, float] = {}
        for cr, w in right_sq[k + 1].items():
            for occ, amp in site_vectors[k].items():
                if amp == 0.0:
                    continue
                cl = _add(cr, occ)
                cur[cl] = cur.get(cl, 0.0) + w * abs(amp) ** 2
        right_sq[k] = cur

    total_sq = sum(
        left_sq[0].get(c, 0.0) * right_sq[0].get(c, 0.0) for c in left_sq[0]
    )
    if total_sq <= 0.0:
        raise ValueError("product state has zero weight in the requested charge sectors")
    scale = math.sqrt(total_sq)

    bonds: list[dict[Charge, np.ndarray]] = []
    for k in range(m + 1):
        spectrum: dict[Charge, np.ndarray] = {}
        for c in sorted(left_sq[k], key=_charge_sort_key):
            w = left_sq[k][c] * right_sq[k].get(c, 0.0)
            if w > 0.0:
                spectrum[c] = np.array([math.sqrt(w) / scale])
        bonds.append(spectrum)

    sites: list[dict[tuple[Charge, Charge], np.ndarray]] = []
    for k in range(m):
        blocks: dict[tuple[Charge, Charge], np.ndarray] = {}
        for cl in bonds[k]:
            for occ, amp in site_vectors[k].items():
                if amp == 0.0:
                    continue
                cr = _sub(cl, occ)
                if cr not in bonds[k + 1]:
                    continue
                value = amp * math.sqrt(right_sq[k + 1][cr] / right_sq[k][cl])
                blocks[(cl, cr)] = np.array([[value]], dtype=np.complex128)
        sites.append(blocks)

    return sites, bonds, scale


def _sub(a: Hashable, b: Hashable) -> Hashable:
    """a - b for charges or occupations: the right charge of a step, or its occupation."""
    if isinstance(a, tuple):
        return (a[0] - b[0], a[1] - b[1])
    return a - b


def _add(a: Hashable, b: Hashable) -> Hashable:
    if isinstance(a, tuple):
        return (a[0] + b[0], a[1] + b[1])
    return a + b


def _charge_sort_key(c: Charge):
    return c if isinstance(c, tuple) else (c,)


def two_site_update(
    state: TensorTrainState,
    site: int,
    gate_blocks: list[np.ndarray],
    policy: TruncationPolicy,
) -> float:
    """Apply a two-site gate at (site, site+1), 1-indexed; returns discarded weight.

    For outer charges (cl, cr) every input and output occupation pair of the
    gate lies in the photon-number sector n = cl - cr (a (ket, bra) pair for
    vectorized operators), whose gate block G_n[j, i] = <j, n-j|G|i, n-i> is
    ``gate_blocks[n]`` (see ``circuit.fock_gate``). The center products
    B_l B_r of each (cl, cr), stacked over the inner charge ci (input
    occupation i = cl - ci), fill a column range of their sector's stack, and
    one matmul with G_n contracts every pair of the sector. Output row j is
    the (cl, cr) block of Phi for center charge cl - j. Theta = lambda_left Phi is SVD'd per center charge
    and all sectors are truncated jointly against the chi budget. The new
    right tensor is the kept rows of V^dag and the new left tensor is
    Phi V_kept (= Gamma_l lambda_center), so no singular value is ever
    divided out.

    A vectorized operator must be in the mirror gauge (module docstring), and
    the update keeps it while doing the work of each mirror pair once: the
    products run only through inner charges (a, b) with a <= b, the stacks
    hold only the outer pairs that sort no later than their mirror pair, and
    only the Phi of center charges (a, b) with a <= b are assembled and
    decomposed; every mirror half is a conjugated copy. So the bond and site
    blocks of (b, a) are the conjugated copies of those of (a, b). A diagonal
    sector (a, a) maps to itself under SK: in the basis (e + Pi e)/sqrt 2,
    i (e - Pi e)/sqrt 2 of the mirror permutation Pi of its rows and of its
    columns, its Phi is real, so it takes a real SVD and its singular
    vectors, rotated back, are SK-invariant. ``truncate_global`` cuts a
    mirror pair as one unit.
    """
    m = state.num_modes
    if not 1 <= site <= m - 1:
        raise ValueError(f"site must be in [1, {m - 1}], got {site}")
    k = site - 1  # sites index of the left site; bonds k, k+1, k+2 surround it
    left_bond = state.bonds[k]
    right_bond = state.bonds[k + 2]
    mirrored = isinstance(next(iter(left_bond), None), tuple)

    # Every product B_l B_r through inner charge ci comes from one matmul of
    # the (cl, ci) blocks stacked over cl with the (ci, cr) blocks side by side.
    lefts: dict[Charge, list] = {}
    for (cl, ci), block in state.sites[k].items():
        lefts.setdefault(ci, []).append((cl, block))
    rights: dict[Charge, list] = {}
    for (ci, cr), block in state.sites[k + 1].items():
        rights.setdefault(ci, []).append((cr, block))
    inner = [ci for ci in lefts if ci in rights]

    # Each outer pair (cl, cr) takes a column range of its sector's stack, one
    # row per input occupation, and sends output occupation j to center
    # charge cl - j; those targets fix the rows and columns of every Phi.
    # A mirrored train carries only the pairs that sort before their mirror
    # pair (or are their own mirror), and assembles only the Phi of a <= b:
    # the mirror pair's output slices are the conjugated slices of its own.
    if mirrored:
        # Every pair through ci = (b, a), b > a, mirrors one through (a, b).
        inner = [ci for ci in inner if ci[0] <= ci[1]]
    pairs = dict.fromkeys((cl, cr) for ci in inner for cl, _ in lefts[ci] for cr, _ in rights[ci])
    if mirrored:
        pairs = dict.fromkeys(min(pair, (pair[0][::-1], pair[1][::-1])) for pair in pairs)
    offsets: dict[tuple[Charge, Charge], int] = {}
    widths: dict[Charge, int] = {}
    sectors: dict[Charge, tuple] = {}
    for cl, cr in pairs:
        n = _sub(cl, cr)
        _sector_block(gate_blocks, n, sectors)
        offsets[cl, cr] = widths.get(n, 0)
        widths[n] = offsets[cl, cr] + len(left_bond[cl]) * len(right_bond[cr])
    stacks = {n: np.zeros((len(sectors[n][0]), w), dtype=np.complex128) for n, w in widths.items()}
    rows: dict[Charge, set[Charge]] = {}
    cols: dict[Charge, set[Charge]] = {}
    for (cl, cr), offset in offsets.items():
        n = _sub(cl, cr)
        height, width = len(left_bond[cl]), len(right_bond[cr])
        view = stacks[n][:, offset : offset + height * width].reshape(-1, height, width)
        targets = [_sub(cl, j) for j in sectors[n][0]]
        pairs[cl, cr] = (view, sectors[n][1], targets)
        for co in targets:
            if not mirrored or co[0] <= co[1]:
                rows.setdefault(co, set()).add(cl)
                cols.setdefault(co, set()).add(cr)
            if mirrored and co[0] >= co[1]:
                rows.setdefault(co[::-1], set()).add(cl[::-1])
                cols.setdefault(co[::-1], set()).add(cr[::-1])
    for ci in inner:
        # The products through the mirror of ci are their conjugates.
        flip = mirrored and ci[0] != ci[1]
        left = np.concatenate([b for _, b in lefts[ci]])
        prod = left @ np.concatenate([b for _, b in rights[ci]], axis=1)
        r0 = 0
        for cl, left_block in lefts[ci]:
            r1 = r0 + left_block.shape[0]
            label = _sub(cl, ci)
            c0 = 0
            for cr, right_block in rights[ci]:
                c1 = c0 + right_block.shape[1]
                entry = pairs.get((cl, cr))
                if entry is not None:
                    view, positions, _ = entry
                    view[positions[label]] = prod[r0:r1, c0:c1]
                if flip:
                    entry = pairs.get((cl[::-1], cr[::-1]))
                    if entry is not None:
                        view, positions, _ = entry
                        np.conjugate(prod[r0:r1, c0:c1], out=view[positions[label[::-1]]])
                c0 = c1
            r0 = r1

    # One gate-block matmul per sector, written over its stack (numpy buffers
    # an operand that overlaps the output); then each pair's output slices
    # are copied into the Phi of their center charges.
    for n, stack in stacks.items():
        np.matmul(sectors[n][2], stack, out=stack)
    factors: dict[Charge, tuple] = {}
    for co in sorted(rows, key=_charge_sort_key):
        row_offsets, row_total = _offsets(rows[co], left_bond)
        col_offsets, col_total = _offsets(cols[co], right_bond)
        phi = np.zeros((row_total, col_total), dtype=np.complex128)
        factors[co] = (phi, row_offsets, col_offsets)
    for (cl, cr), (view, _, targets) in pairs.items():
        flip = mirrored and (cl[::-1], cr[::-1]) != (cl, cr)
        for slab, co in zip(view, targets):
            entry = factors.get(co)
            if entry is not None:
                phi, row_offsets, col_offsets = entry
                r0, c0 = row_offsets[cl], col_offsets[cr]
                phi[r0 : r0 + slab.shape[0], c0 : c0 + slab.shape[1]] = slab
            if flip:
                entry = factors.get(co[::-1])
                if entry is not None:
                    phi, row_offsets, col_offsets = entry
                    r0, c0 = row_offsets[cl[::-1]], col_offsets[cr[::-1]]
                    np.conjugate(slab, out=phi[r0 : r0 + slab.shape[0], c0 : c0 + slab.shape[1]])
    del stacks, pairs

    # Decompose Theta = lambda_left Phi per assembled center charge; a
    # diagonal sector of a mirrored train is decomposed as a real matrix.
    results = {}
    bases = {}  # co -> (row basis, column basis) of a real-decomposed diagonal sector
    for co, (phi, row_offsets, col_offsets) in factors.items():
        row_weights = np.concatenate([left_bond[cl] for cl in row_offsets])
        if mirrored and co[0] == co[1]:
            lo, _, fixed = row_basis = _mirror_basis(row_offsets, left_bond)
            bases[co] = (row_basis, _mirror_basis(col_offsets, right_bond))
            phi = _to_real(phi, *bases[co])
            factors[co] = (phi, row_offsets, col_offsets)
            row_weights = row_weights[np.concatenate([lo, lo, fixed])]
        results[co] = svd(row_weights[:, None] * phi)
    outputs = sorted({*results, *map(_mirror, results)}) if mirrored else list(results)
    spectra = [(co, (results.get(co) or results[_mirror(co)]).singular_values) for co in outputs]
    outcome = truncate_global(spectra, policy, mirror=_mirror if mirrored else None)

    # Rebuild the center bond and both site tensors from the kept columns; a
    # mirror sector (b, a) copies the conjugated blocks of (a, b), which
    # sorts before it.
    new_bond: dict[Charge, np.ndarray] = {}
    new_left: dict[tuple[Charge, Charge], np.ndarray] = {}
    new_right: dict[tuple[Charge, Charge], np.ndarray] = {}
    for co in outputs:
        kept_idx = outcome.kept_by_group.get(co)
        if kept_idx is None:
            continue
        if co not in results:
            partner = _mirror(co)
            new_bond[co] = new_bond[partner].copy()
            for cl in factors[partner][1]:
                new_left[(_mirror(cl), co)] = new_left[(cl, partner)].conj()
            for cr in factors[partner][2]:
                new_right[(co, _mirror(cr))] = new_right[(partner, cr)].conj()
            continue
        result = results[co]
        phi, row_offsets, col_offsets = factors[co]
        new_bond[co] = result.singular_values[kept_idx]
        if co in bases:
            # Rotate the real factors back: V = Q_c V_real, Phi V = Q_r Phi_real V_real.
            row_basis, col_basis = bases[co]
            right_real = result.right_conj[kept_idx, :].T
            right_kept = _from_real(right_real, col_basis).conj().T
            left_kept = _from_real(phi @ right_real, row_basis)
        else:
            right_kept = result.right_conj[kept_idx, :]
            left_kept = phi @ right_kept.conj().T
        for cl, r0 in row_offsets.items():
            new_left[(cl, co)] = left_kept[r0 : r0 + len(left_bond[cl]), :]
        # Copied, so each stored block is contiguous like a reloaded snapshot
        # block; strided views changed the last bit of later contractions and
        # broke byte-identical resumes.
        for cr, c0 in col_offsets.items():
            new_right[(co, cr)] = right_kept[:, c0 : c0 + len(right_bond[cr])].copy()

    state.bonds[k + 1] = new_bond
    state.sites[k] = new_left
    state.sites[k + 1] = new_right
    state.discarded_weight += outcome.discarded_weight
    return outcome.discarded_weight


def _mirror(c: tuple[int, int]) -> tuple[int, int]:
    """The SK image (b, a) of a (ket, bra) charge or occupation (a, b); hot loops inline it."""
    return c[::-1]


def _mirror_basis(offsets: dict[Charge, int], bond: dict[Charge, np.ndarray]) -> tuple:
    """Positions (lo, hi, fixed) of a diagonal sector's rows or columns under the mirror Pi.

    Block c = (a, b) with a < b pairs position by position with its mirror
    block (b, a): ``lo`` lists the positions of every a < b block, ``hi``
    those of their mirrors in the same order, ``fixed`` those of the a = b
    blocks, which Pi leaves in place.
    """
    lo, hi, fixed = [], [], []
    for c, start in offsets.items():
        size = len(bond[c])
        if c[0] == c[1]:
            fixed.append(np.arange(start, start + size))
        elif c[0] < c[1]:
            lo.append(np.arange(start, start + size))
            hi.append(np.arange(offsets[_mirror(c)], offsets[_mirror(c)] + size))
    return tuple(np.concatenate(part) if part else np.zeros(0, dtype=np.intp)
                 for part in (lo, hi, fixed))


def _to_real(phi: np.ndarray, rows: tuple, cols: tuple) -> np.ndarray:
    """Q_r^dag Phi Q_c for an SK-symmetric Phi, which is real in these bases.

    The columns of Q are (e_lo + e_hi)/sqrt 2, i (e_lo - e_hi)/sqrt 2 per
    mirror pair, then e_fixed. The imaginary part, roundoff only, is dropped.
    """
    lo, hi, fixed = rows
    y = np.concatenate([_SQRT_HALF * (phi[lo] + phi[hi]), -1j * _SQRT_HALF * (phi[lo] - phi[hi]),
                        phi[fixed]])
    lo, hi, fixed = cols
    return np.concatenate([_SQRT_HALF * (y[:, lo] + y[:, hi]).real,
                           -_SQRT_HALF * (y[:, lo] - y[:, hi]).imag, y[:, fixed].real], axis=1)


def _from_real(x: np.ndarray, basis: tuple) -> np.ndarray:
    """Q x: rows of a real x in the rotated basis back to the original positions.

    Row hi is the exact conjugate of row lo, so the result's mirror blocks
    are bitwise conjugates.
    """
    lo, hi, fixed = basis
    n = len(lo)
    out = np.empty((len(lo) + len(hi) + len(fixed), x.shape[1]), dtype=np.complex128)
    out[lo] = _SQRT_HALF * (x[:n] + 1j * x[n : 2 * n])
    out[hi] = out[lo].conj()
    out[fixed] = x[2 * n :]
    return out


def _sector_block(blocks: list[np.ndarray], n: Hashable, cache: dict) -> tuple:
    """(left occupations, their positions, gate block) on photon-number sector n, cached.

    A scalar sector is ``blocks[n]`` over occupations 0..n; a (ket, bra) sector
    acts as U (x) conj(U), the Kronecker product of ket and conjugated bra blocks.
    """
    if n not in cache:
        if isinstance(n, tuple):
            ket_labels, _, ket = _sector_block(blocks, n[0], cache)
            bra_labels, _, bra = _sector_block(blocks, n[1], cache)
            labels = [(a, b) for a in ket_labels for b in bra_labels]
            block = (ket[:, None, :, None] * bra.conj()[None, :, None, :]).reshape(len(labels), -1)
        else:
            labels, block = list(range(n + 1)), blocks[n]
        cache[n] = (labels, {label: pos for pos, label in enumerate(labels)}, block)
    return cache[n]


def _offsets(charges: set[Charge], bond: dict[Charge, np.ndarray]) -> tuple[dict[Charge, int], int]:
    """Offset of each charge's block in sorted charge order, and the total size."""
    ordered = sorted(charges, key=_charge_sort_key)
    sizes = [len(bond[c]) for c in ordered]
    return dict(zip(ordered, accumulate(sizes, initial=0))), sum(sizes)


def contract_selected(
    state: TensorTrainState,
    labels: list[tuple[Hashable, ...]],
) -> complex:
    """Contract the full chain, summing site k over the local labels ``labels[k]``.

    A label is a local occupation: ``(n,)`` selects occupation n of a pure
    state, ``((k, b),)`` one (ket, bra) pair of a vectorized operator, and
    the diagonal ``((0, 0), ..., (d-1, d-1))`` traces the site out. A label
    with no block (out of range or not reachable) contributes nothing.
    Returns the scalar including the boundary singular values but NOT
    ``norm_scale``.
    """
    env = {c: lam.astype(np.complex128) for c, lam in state.bonds[0].items()}
    for k in range(state.num_modes):
        env = _propagate(state, k, env, labels[k])
        if not env:
            return 0.0 + 0.0j
    return complex(sum(vec.sum() for vec in env.values()))


def _propagate(
    state: TensorTrainState,
    k: int,
    env: dict[Charge, np.ndarray],
    labels: tuple[Hashable, ...],
) -> dict[Charge, np.ndarray]:
    blocks = state.sites[k]
    nxt: dict[Charge, np.ndarray] = {}
    for cl, vec in env.items():
        for label in labels:
            cr = _sub(cl, label)
            block = blocks.get((cl, cr))
            if block is None:
                continue
            contribution = vec @ block
            if cr in nxt:
                nxt[cr] += contribution
            else:
                nxt[cr] = contribution
    return nxt


def prefix_environment(
    state: TensorTrainState,
    labels: list[tuple[Hashable, ...]],
    start_env: dict[Charge, np.ndarray] | None = None,
    start_site: int = 0,
) -> dict[Charge, np.ndarray]:
    """Left environment after contracting sites start_site..start_site+len(labels)-1.

    Site ``start_site + i`` is summed over the local labels ``labels[i]``
    (see ``contract_selected``). The site tensors carry the singular values
    on their right, so the environment already includes the bond right of the
    last contracted site; with the remaining sites right-canonical, for a pure
    state the squared 2-norm of the result is the marginal probability of the
    selected prefix.
    """
    if start_env is None:
        env = {c: lam.astype(np.complex128) for c, lam in state.bonds[0].items()}
    else:
        env = start_env
    for i, site_labels in enumerate(labels):
        env = _propagate(state, start_site + i, env, site_labels)
        if not env:
            return {}
    return env


def suffix_trace_environments(
    state: TensorTrainState,
    labels: tuple[Hashable, ...],
) -> list[dict[Charge, np.ndarray]]:
    """right_envs[l][c] = contraction of sites l+1..M, each summed over ``labels``.

    With the diagonal labels ``((0, 0), ..., (d-1, d-1))`` this traces the
    sites out. The vectors exclude the bond-l singular values (the left
    environment carries those), so marginal(prefix of length l) =
    sum_c envL[c] . right_envs[l][c].
    """
    m = state.num_modes
    envs: list[dict[Charge, np.ndarray]] = [dict() for _ in range(m + 1)]
    envs[m] = {c: np.ones(len(lam), dtype=np.complex128) for c, lam in state.bonds[m].items()}
    for k in range(m - 1, -1, -1):
        blocks = state.sites[k]
        cur: dict[Charge, np.ndarray] = {}
        for cr, vec in envs[k + 1].items():
            for label in labels:
                cl = _add(cr, label)
                block = blocks.get((cl, cr))
                if block is None:
                    continue
                contribution = block @ vec
                if cl in cur:
                    cur[cl] += contribution
                else:
                    cur[cl] = contribution
        envs[k] = cur
    return envs


def schmidt_values(state: TensorTrainState, bond: int) -> np.ndarray:
    """All singular values at a bond, pooled over charge sectors, descending."""
    spectra = list(state.bonds[bond].values())
    if not spectra:
        return np.array([])
    return np.sort(np.concatenate(spectra))[::-1]


def renyi_entropy(state: TensorTrainState, bond: int, alpha: float) -> float:
    """Renyi-``alpha`` entropy (bits) across bond ``bond`` (0..M).

    The entanglement entropy of a pure state, the operator-space entanglement
    of a vectorized density operator. Computed on a 2-norm-renormalized copy
    of the spectrum; the stored singular values are untouched.
    """
    if not 0 <= bond <= state.num_modes:
        raise ValueError(f"bond must be in [0, {state.num_modes}], got {bond}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    spectrum = state.bonds[bond]
    values = np.concatenate([v for v in spectrum.values()]) if spectrum else np.array([])
    p = values.astype(float) ** 2
    p = p[p > 0.0]
    if p.size == 0:
        return 0.0
    p = p / p.sum()
    if alpha == 0:
        return float(math.log2(p.size))
    if alpha == 1:
        return float(-(p * np.log2(p)).sum())
    return float(math.log2((p**alpha).sum()) / (1.0 - alpha))


def max_bond_entropy(state: TensorTrainState, alpha: float) -> tuple[int, float]:
    """(bond index, value) of the maximum interior-bond entropy; ties -> smallest bond."""
    if state.num_modes < 2:
        return 1, 0.0
    best_bond = 1
    best = -1.0
    for k in range(1, state.num_modes):
        s = renyi_entropy(state, k, alpha)
        if s > best + 1e-15:
            best = s
            best_bond = k
    return best_bond, best
