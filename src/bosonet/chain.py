"""Charge-blocked tensor trains in right-canonical form.

This module is the shared chassis for the pure-state and density-operator
simulators. A state is stored as singular-value vectors and site tensors;
every bond index is resolved into symmetry sectors labeled by a *charge* (the
photon count strictly to the right of the cut, or a ket/bra pair of such
counts for vectorized density operators). Site tensors keep one dense block
per (left charge, right charge) pair, because the local occupation is implied
by the charge difference — that is what makes the representation compact and
what enforces particle-number conservation structurally. The same fact lets a
contraction address blocks by local occupation label: the right charge is the
left charge minus the label, so each (charge, label) pair is one dict lookup.

Layout for ``M`` sites:

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from .linalg import TruncationPolicy, svd, truncate_global

Charge = Hashable


class PureChargeRule:
    """Integer charges; local occupation = left charge - right charge."""

    def __init__(self, local_dim: int):
        self.local_dim = local_dim

    def occupation(self, cl: int, cr: int) -> int | None:
        occ = cl - cr
        return occ if 0 <= occ < self.local_dim else None

    def gate_coeff(self, gate: np.ndarray, out_l, out_r, in_l, in_r) -> complex:
        d = self.local_dim
        return gate[out_l * d + out_r, in_l * d + in_r]


class VectorizedChargeRule:
    """Ket/bra charge pairs for vectorized density operators.

    Charges are (ket, bra) tuples; the local state is the occupation pair
    (ket_occ, bra_occ) and a two-site unitary acts as U (x) conj(U).
    """

    def __init__(self, local_dim: int):
        self.local_dim = local_dim

    def occupation(self, cl: tuple[int, int], cr: tuple[int, int]) -> tuple[int, int] | None:
        ket = cl[0] - cr[0]
        bra = cl[1] - cr[1]
        if 0 <= ket < self.local_dim and 0 <= bra < self.local_dim:
            return (ket, bra)
        return None

    def gate_coeff(self, gate: np.ndarray, out_l, out_r, in_l, in_r) -> complex:
        d = self.local_dim
        ket = gate[out_l[0] * d + out_r[0], in_l[0] * d + in_r[0]]
        bra = gate[out_l[1] * d + out_r[1], in_l[1] * d + in_r[1]]
        if ket == 0.0 or bra == 0.0:
            return 0.0 + 0.0j
        return ket * np.conj(bra)


@dataclass
class TensorTrainState:
    """Right-canonical charge-blocked tensor train (pure state or vectorized operator)."""

    num_sites: int
    rule: PureChargeRule | VectorizedChargeRule
    sites: list[dict[tuple[Charge, Charge], np.ndarray]]
    bonds: list[dict[Charge, np.ndarray]]
    norm_scale: float = 1.0
    discarded_weight: float = 0.0

    def bond_dimension(self, k: int) -> int:
        return sum(len(v) for v in self.bonds[k].values())

    def max_bond_dimension(self) -> int:
        return max(self.bond_dimension(k) for k in range(self.num_sites + 1))

    def total_weight(self, k: int | None = None) -> float:
        """Sum of squared singular values at bond k (default: central bond)."""
        if k is None:
            k = self.num_sites // 2
        return float(sum(np.sum(v**2) for v in self.bonds[k].values()))


def product_state(
    site_vectors: list[dict[Hashable, complex]],
    left_charges: list[Charge],
    right_charge: Charge,
    rule: PureChargeRule | VectorizedChargeRule,
) -> TensorTrainState:
    """Exact right-canonical form of a product state, one local vector per site.

    ``site_vectors[k]`` maps local occupation labels (ints for pure states,
    (ket, bra) pairs for vectorized operators) to amplitudes. The left
    boundary enumerates the allowed total-charge sectors; singular values are
    normalized so the squared total is 1 and the raw 2-norm is returned in
    ``norm_scale``.
    """
    m = len(site_vectors)
    if m < 1:
        raise ValueError("need at least one site")

    # Forward/backward squared-weight sweeps over reachable charges.
    left_sq: list[dict[Charge, float]] = [{c: 1.0 for c in left_charges}]
    for k in range(m):
        nxt: dict[Charge, float] = {}
        for cl, w in left_sq[k].items():
            for occ, amp in site_vectors[k].items():
                if amp == 0.0:
                    continue
                cr = _step_charge(cl, occ)
                if rule.occupation(cl, cr) is None:
                    continue
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
                cl = _unstep_charge(cr, occ)
                if rule.occupation(cl, cr) is None:
                    continue
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
                cr = _step_charge(cl, occ)
                if cr not in bonds[k + 1] or rule.occupation(cl, cr) is None:
                    continue
                value = amp * math.sqrt(right_sq[k + 1][cr] / right_sq[k][cl])
                blocks[(cl, cr)] = np.array([[value]], dtype=np.complex128)
        sites.append(blocks)

    return TensorTrainState(
        num_sites=m, rule=rule, sites=sites, bonds=bonds, norm_scale=scale
    )


def _step_charge(cl: Charge, occ: Hashable) -> Charge:
    if isinstance(occ, tuple):
        return (cl[0] - occ[0], cl[1] - occ[1])
    return cl - occ


def _unstep_charge(cr: Charge, occ: Hashable) -> Charge:
    if isinstance(occ, tuple):
        return (cr[0] + occ[0], cr[1] + occ[1])
    return cr + occ


def _charge_sort_key(c: Charge):
    return c if isinstance(c, tuple) else (c,)


def two_site_update(
    state: TensorTrainState,
    site: int,
    gate_matrix: np.ndarray,
    policy: TruncationPolicy,
) -> float:
    """Apply a two-site gate at (site, site+1), 1-indexed; returns discarded weight.

    Per output center charge, Phi = gate . (B_l B_r) is assembled from
    charge-compatible block products and Theta = lambda_left Phi is SVD'd;
    all sectors are truncated jointly against the chi budget. The new right
    tensor is the kept rows of V^dag and the new left tensor is Phi V_kept
    (= Gamma_l lambda_center), so no singular value is ever divided out.
    """
    m = state.num_sites
    if not 1 <= site <= m - 1:
        raise ValueError(f"site must be in [1, {m - 1}], got {site}")
    rule = state.rule
    k = site - 1  # sites index of the left site; bonds k, k+1, k+2 surround it
    left_bond = state.bonds[k]
    right_bond = state.bonds[k + 2]

    center: dict[tuple[Charge, Charge, Charge], np.ndarray] = {}
    for (cl, ci), left_block in state.sites[k].items():
        for (ci2, cr), right_block in state.sites[k + 1].items():
            if ci2 == ci:
                center[(cl, ci, cr)] = left_block @ right_block

    # Candidate output center charges from the charge algebra.
    out_charges: set[Charge] = set()
    for (cl, ci, cr) in center:
        out_charges.update(_center_candidates(cl, cr, rule))

    # Assemble Phi and decompose Theta = lambda_left Phi per output center charge.
    svd_groups: dict[Charge, np.ndarray] = {}
    factors: dict[Charge, tuple] = {}
    for co in sorted(out_charges, key=_charge_sort_key):
        row_charges = sorted(
            {cl for (cl, ci, cr) in center if rule.occupation(cl, co) is not None},
            key=_charge_sort_key,
        )
        col_charges = sorted(
            {cr for (cl, ci, cr) in center if rule.occupation(co, cr) is not None},
            key=_charge_sort_key,
        )
        if not row_charges or not col_charges:
            continue
        row_offsets, row_total = _offsets(row_charges, left_bond)
        col_offsets, col_total = _offsets(col_charges, right_bond)
        phi = np.zeros((row_total, col_total), dtype=np.complex128)
        filled = False
        for (cl, ci, cr), prod in center.items():
            out_l = rule.occupation(cl, co)
            out_r = rule.occupation(co, cr)
            if out_l is None or out_r is None:
                continue
            in_l = rule.occupation(cl, ci)
            in_r = rule.occupation(ci, cr)
            coeff = rule.gate_coeff(gate_matrix, out_l, out_r, in_l, in_r)
            if coeff == 0.0:
                continue
            r0 = row_offsets[cl]
            c0 = col_offsets[cr]
            phi[r0 : r0 + prod.shape[0], c0 : c0 + prod.shape[1]] += coeff * prod
            filled = True
        if not filled:
            continue
        row_weights = np.concatenate([left_bond[cl] for cl in row_charges])
        result = svd(row_weights[:, None] * phi)
        svd_groups[co] = result.singular_values
        factors[co] = (result, phi, row_charges, row_offsets, col_charges, col_offsets)

    outcome = truncate_global(
        sorted(svd_groups.items(), key=lambda kv: _charge_sort_key(kv[0])), policy
    )

    # Rebuild the center bond and both site tensors from the kept columns.
    new_bond: dict[Charge, np.ndarray] = {}
    new_left: dict[tuple[Charge, Charge], np.ndarray] = {}
    new_right: dict[tuple[Charge, Charge], np.ndarray] = {}
    for co, kept_idx in outcome.kept_by_group.items():
        result, phi, row_charges, row_offsets, col_charges, col_offsets = factors[co]
        new_bond[co] = result.singular_values[kept_idx]
        left_kept = phi @ result.right_conj[kept_idx, :].conj().T
        for cl in row_charges:
            r0 = row_offsets[cl]
            new_left[(cl, co)] = left_kept[r0 : r0 + len(left_bond[cl]), :]
        # Fancy indexing copies, so each stored block is contiguous like a
        # reloaded snapshot block; strided views changed the last bit of later
        # contractions and broke byte-identical resumes.
        for cr in col_charges:
            c0 = col_offsets[cr]
            new_right[(co, cr)] = result.right_conj[kept_idx, c0 : c0 + len(right_bond[cr])]

    state.bonds[k + 1] = new_bond
    state.sites[k] = new_left
    state.sites[k + 1] = new_right
    state.discarded_weight += outcome.discarded_weight
    return outcome.discarded_weight


def _center_candidates(cl: Charge, cr: Charge, rule) -> list[Charge]:
    d = rule.local_dim
    if isinstance(cl, tuple):
        out = []
        for ket_occ in range(d):
            for bra_occ in range(d):
                co = (cl[0] - ket_occ, cl[1] - bra_occ)
                if rule.occupation(co, cr) is not None:
                    out.append(co)
        return out
    return [cl - occ for occ in range(d) if rule.occupation(cl - occ, cr) is not None]


def _offsets(charges: list[Charge], bond: dict[Charge, np.ndarray]) -> tuple[dict[Charge, int], int]:
    offsets: dict[Charge, int] = {}
    total = 0
    for c in charges:
        offsets[c] = total
        total += len(bond[c])
    return offsets, total


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
    for k in range(state.num_sites):
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
            cr = _step_charge(cl, label)
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
    m = state.num_sites
    envs: list[dict[Charge, np.ndarray]] = [dict() for _ in range(m + 1)]
    envs[m] = {c: np.ones(len(lam), dtype=np.complex128) for c, lam in state.bonds[m].items()}
    for k in range(m - 1, -1, -1):
        blocks = state.sites[k]
        cur: dict[Charge, np.ndarray] = {}
        for cr, vec in envs[k + 1].items():
            for label in labels:
                cl = _unstep_charge(cr, label)
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


def spectrum_entropy(bond: dict[Charge, np.ndarray], alpha: float) -> float:
    """Renyi-alpha entropy (bits) of a renormalized copy of the bond spectrum."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    values = np.concatenate([v for v in bond.values()]) if bond else np.array([])
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
    if state.num_sites < 2:
        return 1, 0.0
    best_bond = 1
    best = -1.0
    for k in range(1, state.num_sites):
        s = spectrum_entropy(state.bonds[k], alpha)
        if s > best + 1e-15:
            best = s
            best_bond = k
    return best_bond, best
