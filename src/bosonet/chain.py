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
an update is given cover every such sector. It is given them in the form it
multiplies: ``gate_blocks[n]`` is the block of sector n, the
``circuit.fock_gate`` block for an int n and, for a (ket, bra) sector, the
U (x) conj(U) block that ``mpo.vectorized_blocks`` builds, so this module
knows nothing of vectorization: a state's ``gate_blocks(gate)`` supplies the
form, and ``apply_gate``/``apply_plan`` are the one gate and plan loop.

Layout for ``M`` sites (one per mode):

- ``bonds[k]``, k = 0..M: dict charge -> descending positive float array, the
  singular values across cut k; no bond is empty. ``bonds[0]``/``bonds[M]``
  carry the boundary sector decomposition.
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

``two_site_update`` is a plan and an execute step. The plan
(``layout.update_plan``) depends only on the block keys of the two sites and
the charges and sizes of the bonds around them, and places every block with
integer offsets and gathers, the mirror bookkeeping included; it is cached
in a least-recently-used cache of ``layout.PLAN_CACHE_SIZE`` (64) plans keyed
by exactly that structure. The cache is per process: a forked worker starts
with its parent's, empty in a sweep, so the plans it meets in its first
circuit are built there. The execute step is one path for pure states and
vectorized operators: matmuls, gathers, SVDs and the pooled cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from .circuit import BeamSplitterGate, CircuitPlan
from .entropy import normalized_renyi
from .layout import Charge, update_plan
from .linalg import TruncationPolicy, gesdd_errors, truncate_global
# The one SVD core, looked up here by this name once per decomposed center:
# the benchmark tracer times the ``linalg.svd`` layer by patching it.
from .linalg import svd_unchecked as svd

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
    (ket, bra) pairs for vectorized operators) to amplitudes; a zero
    amplitude adds no charge and no block. The left boundary enumerates the
    allowed total-charge sectors. Returns
    ``(sites, bonds, norm_scale)``: the singular values are normalized so the
    squared total is 1 and ``norm_scale`` is the raw 2-norm.
    """
    m = len(site_vectors)
    if m < 1:
        raise ValueError("need at least one site")
    negative = [occ for vector in site_vectors for occ in vector if np.min(occ) < 0]
    if negative:
        raise ValueError(f"occupation labels must be non-negative, got {negative[0]}")
    site_vectors = [{occ: amp for occ, amp in vector.items() if amp != 0.0}
                    for vector in site_vectors]

    # Forward/backward squared-weight sweeps over reachable charges.
    left_sq = [{c: 1.0 for c in left_charges}]
    for vector in site_vectors:
        left_sq.append(_reach(left_sq[-1], vector, _sub))
    right_sq = [{right_charge: 1.0}]
    for vector in reversed(site_vectors):
        right_sq.append(_reach(right_sq[-1], vector, _add))
    right_sq.reverse()

    total_sq = sum(
        left_sq[0].get(c, 0.0) * right_sq[0].get(c, 0.0) for c in left_sq[0]
    )
    if total_sq <= 0.0:
        raise ValueError("product state has zero weight in the requested charge sectors")
    scale = math.sqrt(total_sq)

    bonds: list[dict[Charge, np.ndarray]] = []
    for k in range(m + 1):
        spectrum: dict[Charge, np.ndarray] = {}
        for c in sorted(left_sq[k]):
            w = left_sq[k][c] * right_sq[k].get(c, 0.0)
            if w > 0.0:
                spectrum[c] = np.array([math.sqrt(w) / scale])
        bonds.append(spectrum)

    sites: list[dict[tuple[Charge, Charge], np.ndarray]] = []
    for k in range(m):
        blocks: dict[tuple[Charge, Charge], np.ndarray] = {}
        for cl in bonds[k]:
            for occ, amp in site_vectors[k].items():
                cr = _sub(cl, occ)
                if cr not in bonds[k + 1]:
                    continue
                value = amp * math.sqrt(right_sq[k + 1][cr] / right_sq[k][cl])
                blocks[(cl, cr)] = np.array([[value]], dtype=np.complex128)
        sites.append(blocks)

    return sites, bonds, scale


def _reach(weights: dict[Charge, float], vector: dict[Hashable, complex],
           step) -> dict[Charge, float]:
    """Squared weights one site on: charge ``step(c, occ)`` collects w_c |amp|^2
    from every charge c and amplitude of the site's local vector."""
    out: dict[Charge, float] = {}
    for c, w in weights.items():
        for occ, amp in vector.items():
            nxt = step(c, occ)
            out[nxt] = out.get(nxt, 0.0) + w * abs(amp) ** 2
    return out


def _sub(a: Hashable, b: Hashable) -> Hashable:
    """a - b for charges or occupations: the right charge of a step, or its occupation."""
    if isinstance(a, tuple):
        return (a[0] - b[0], a[1] - b[1])
    return a - b


def _add(a: Hashable, b: Hashable) -> Hashable:
    if isinstance(a, tuple):
        return (a[0] + b[0], a[1] + b[1])
    return a + b


def two_site_update(
    state: TensorTrainState,
    site: int,
    gate_blocks: list[np.ndarray] | dict[Charge, np.ndarray],
    policy: TruncationPolicy,
) -> float:
    """Apply a two-site gate at (site, site+1), 1-indexed; returns discarded weight.

    For outer charges (cl, cr) every input and output occupation pair of the
    gate lies in the photon-number sector n = cl - cr (a (ket, bra) pair for
    vectorized operators), whose gate block is ``gate_blocks[n]``: for a pure
    state G_n[j, i] = <j, n-j|G|i, n-i> from ``circuit.fock_gate`` (a list
    indexed by n), for a vectorized operator the block of U (x) conj(U) on
    the (ket, bra) occupations of sector n = (a, b) in row-major order, from
    ``mpo.vectorized_blocks`` (a dict keyed by (a, b)). The center products
    B_l B_r of each (cl, cr), stacked over the inner charge ci (input
    occupation i = cl - ci), fill a column range of their sector's stack, and
    one matmul with G_n contracts every pair of the sector. Output row j is
    the (cl, cr) block of Phi for center charge cl - j. Theta = lambda_left
    Phi is SVD'd per center charge and all sectors are truncated jointly
    against the chi budget. The new right tensor is the kept rows of V^dag
    and the new left tensor is Phi V_kept (= Gamma_l lambda_center), so no
    singular value is ever divided out.

    The update runs in two steps. ``layout.update_plan`` works out where
    every block goes from the block structure alone, and the execute step
    below moves the numbers: one product matmul per inner charge (a single
    block enters as stored, with no concatenate), one gather into the sector
    stacks, one gate-block matmul per sector, one gather into every Phi, the
    SVDs and ``truncate_global``, and a rebuild by precomputed offsets. The
    SVDs go to the ``linalg`` core ``svd_unchecked``, which checks nothing,
    because on a small sector a finiteness check and an error state each
    cost about a third of gesdd. So the Phi buffer and the row weights are
    checked once, raising ValueError before the state changes, and one
    ``gesdd_errors`` state is held around all the SVDs. It is entered after
    every Phi is assembled (a real center's rotation could turn an overflow
    into an invalid value), so only a gesdd that does not converge raises
    in it, and only that center goes to gesvd. Plans are cached (least
    recently used out, at most ``layout.PLAN_CACHE_SIZE``, 64) keyed by the
    block keys of both sites in dict order and the charges and sizes of
    bonds k and k+2. Bond k+1 only sets the inner dimension of the products,
    so it is not part of the key.
    A gather copies bits, and every matmul and elementwise operation sees
    the operands, shapes and memory layouts it saw before the split, so the
    results are the same bit for bit.

    A vectorized operator must be in the mirror gauge (module docstring), and
    the plan keeps it while doing the work of each mirror pair once: the
    products run only through inner charges (a, b) with a <= b, the stacks
    hold only the outer pairs that sort no later than their mirror pair, and
    only the Phi of center charges (a, b) with a <= b are assembled and
    decomposed; every mirror half is a gathered conjugate. So the bond and
    site blocks of (b, a) are the conjugated copies of those of (a, b). A
    diagonal sector (a, a) maps to itself under SK: in the basis
    (e + Pi e)/sqrt 2, i (e - Pi e)/sqrt 2 of the mirror permutation Pi of
    its rows and of its columns, its Phi is real, so it takes a real SVD and
    its singular vectors, rotated back, are SK-invariant. Its Phi is
    gathered with the (a, b), a < b, blocks first, their mirrors next in the
    same order and the self-mirror blocks last, so that rotation acts on
    contiguous halves. ``truncate_global`` gets one spectrum per decomposed
    center and the plan's copy count of each: 2 for an off-diagonal (a, b),
    whose spectrum (b, a) copies, and 1 otherwise, so a mirror pair is cut
    as one unit and the (b, a) output keeps the indices (a, b) keeps.
    """
    m = state.num_modes
    if not 1 <= site <= m - 1:
        raise ValueError(f"site must be in [1, {m - 1}], got {site}")
    k = site - 1  # sites index of the left site; bonds k, k+1, k+2 surround it
    sites_l, sites_r = state.sites[k], state.sites[k + 1]
    left_bond, right_bond = state.bonds[k], state.bonds[k + 2]
    plan = update_plan(tuple(sites_l), tuple(sites_r),
                       tuple(left_bond), tuple(map(len, left_bond.values())),
                       tuple(right_bond), tuple(map(len, right_bond.values())))

    # Every product B_l B_r through one inner charge is one matmul of its left
    # blocks stacked over cl with its right blocks side by side. A single
    # block is passed as stored: stored blocks are C-contiguous, like the copy
    # a concatenate would make, so the product keeps its bits.
    source = np.empty(plan.product_size + plan.stacks.extra, dtype=np.complex128)
    for left_keys, right_keys, start, shape in plan.products:
        left = (sites_l[left_keys[0]] if len(left_keys) == 1
                else np.concatenate([sites_l[key] for key in left_keys]))
        right = (sites_r[right_keys[0]] if len(right_keys) == 1
                 else np.concatenate([sites_r[key] for key in right_keys], axis=1))
        np.matmul(left, right, out=source[start : start + shape[0] * shape[1]].reshape(shape))
    size = plan.stacks.main.size
    stacks = np.empty(size + plan.phis.extra, dtype=np.complex128)
    plan.stacks.apply(source, plan.product_size, out=stacks[:size])
    del source
    _apply_gate_blocks(stacks, plan.sectors, gate_blocks)
    phis = plan.phis.apply(stacks, size)
    del stacks
    weights = np.concatenate(list(left_bond.values())).take(plan.weights.index())
    if not (np.isfinite(phis).all() and np.isfinite(weights).all()):
        raise ValueError("matrix contains non-finite entries")

    # Decompose Theta = lambda_left Phi per assembled center charge; only the
    # singular values and V^dag are kept. Every Phi is assembled first, so
    # the one error state holds only the SVDs and the Theta products, and a
    # product of finite factors may overflow but is never invalid.
    center_phis = []
    for center in plan.centers:
        rows, cols = center.shape
        phi = phis[center.start : center.start + rows * cols].reshape(rows, cols)
        center_phis.append(phi if center.halves is None else _to_real(phi, *center.halves))
    factors, spectra, units = [], [], []
    with gesdd_errors():
        for center, phi in zip(plan.centers, center_phis):
            row_weights = weights[center.weights : center.weights + len(phi), None]
            _, values, right_conj = svd(row_weights * phi)
            factors.append((phi, values, right_conj))
            spectra.append((center.charge, values))
            units.append(center.copies)
    outcome = truncate_global(spectra, policy, units=units)

    # Rebuild the center bond and both site tensors from the kept columns. A
    # spectrum is descending and the cut breaks ties by the smaller index, so
    # it keeps a prefix of every spectrum: the first ``kept`` values and rows
    # of V^dag, taken as C-contiguous views like the copies a gather of those
    # rows would make.
    new_bond: dict[Charge, np.ndarray] = {}
    new_left: dict[tuple[Charge, Charge], np.ndarray] = {}
    new_right: dict[tuple[Charge, Charge], np.ndarray] = {}
    for out in plan.outputs:
        kept = outcome.kept_by_group[out.center].size
        if not kept:
            continue
        phi, values, right_conj = factors[out.center]
        new_bond[out.charge] = values[:kept]
        if out.mirror:
            for key, source in out.left:
                new_left[key] = new_left[source].conj()
            for key, source in out.right:
                new_right[key] = new_right[source].conj()
            continue
        left, right = _kept_factors(phi, right_conj[:kept], plan.centers[out.center].halves)
        for key, r0, r1 in out.left:
            new_left[key] = left[r0:r1]
        # Copied, so each stored block is contiguous like a reloaded snapshot
        # block; strided views changed the last bit of later contractions and
        # broke byte-identical resumes.
        for key, c0, c1 in out.right:
            new_right[key] = right[:, c0:c1].copy()

    state.bonds[k + 1] = new_bond
    state.sites[k] = new_left
    state.sites[k + 1] = new_right
    state.discarded_weight += outcome.discarded_weight
    return outcome.discarded_weight


def apply_gate(state: TensorTrainState, gate: BeamSplitterGate, policy: TruncationPolicy) -> float:
    """Apply one beam splitter in the state's own block form; returns discarded weight."""
    return two_site_update(state, gate.site, state.gate_blocks(gate), policy)


def apply_plan(state: TensorTrainState, plan: CircuitPlan, policy: TruncationPolicy) -> float:
    """Apply every gate of a plan in order; returns total discarded weight."""
    if plan.num_modes != state.num_modes:
        raise ValueError(
            f"plan acts on {plan.num_modes} modes but state has {state.num_modes}"
        )
    return sum((apply_gate(state, gate, policy) for gate in plan.gates), 0.0)


def _apply_gate_blocks(stacks: np.ndarray, sectors: tuple,
                       gate_blocks: list[np.ndarray] | dict[Charge, np.ndarray]) -> None:
    """One gate-block matmul per sector, written over its stack (numpy buffers
    an operand that overlaps the output). A function of its own, so that no
    stack view outlives it and keeps the buffer alive past ``del stacks``."""
    for n, start, shape in sectors:
        stack = stacks[start : start + shape[0] * shape[1]].reshape(shape)
        np.matmul(gate_blocks[n], stack, out=stack)


def _kept_factors(phi: np.ndarray, right: np.ndarray,
                  halves: tuple[int, int] | None) -> tuple[np.ndarray, np.ndarray]:
    """(Phi V_kept, V_kept^dag) of one center from the kept rows of V^dag.

    A center decomposed as real has its factors rotated back:
    V = Q_c V_real and Phi V = Q_r Phi_real V_real.
    """
    if halves is None:
        return phi @ right.conj().T, right
    rows, cols = halves
    right_real = right.T
    return _from_real(phi @ right_real, rows), _from_real(right_real, cols).conj().T


def _to_real(phi: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Q_r^dag Phi Q_c for an SK-symmetric Phi, which is real in these bases.

    Phi's rows are ordered lo, hi, fixed: ``rows`` rows of (a, b), a < b,
    blocks, then as many rows of their mirror blocks in the same order, then
    the rows that Pi leaves in place; its columns likewise with ``cols``. The
    columns of Q are (e_lo + e_hi)/sqrt 2, i (e_lo - e_hi)/sqrt 2 per mirror
    pair, then e_fixed. The imaginary part, roundoff only, is dropped. The
    parts are taken with index arrays, not slices, because numpy lays out a
    column gather in Fortran order, and that layout fixes the bits of the
    later product Phi V.
    """
    lo, hi, fixed = _halves(rows, phi.shape[0])
    y = np.concatenate([_SQRT_HALF * (phi[lo] + phi[hi]), -1j * _SQRT_HALF * (phi[lo] - phi[hi]),
                        phi[fixed]])
    lo, hi, fixed = _halves(cols, phi.shape[1])
    return np.concatenate([_SQRT_HALF * (y[:, lo] + y[:, hi]).real,
                           -_SQRT_HALF * (y[:, lo] - y[:, hi]).imag, y[:, fixed].real], axis=1)


def _halves(pairs: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.arange(pairs), np.arange(pairs, 2 * pairs), np.arange(2 * pairs, size)


def _from_real(x: np.ndarray, pairs: int) -> np.ndarray:
    """Q x: rows of a real x in the rotated basis back to the lo, hi, fixed order.

    The hi rows are the exact conjugates of the lo rows, so the result's
    mirror blocks are bitwise conjugates.
    """
    lo = _SQRT_HALF * (x[:pairs] + 1j * x[pairs : 2 * pairs])
    return np.concatenate([lo, lo.conj(), x[2 * pairs :]])


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
    ``norm_scale``: the entries of the ``prefix_environment`` of all M sites,
    summed over the right boundary.
    """
    return complex(sum(vec.sum() for vec in prefix_environment(state, labels).values()))


def propagate(
    state: TensorTrainState,
    k: int,
    env: dict[Charge, np.ndarray],
    labels: tuple[Hashable, ...],
) -> dict[Charge, np.ndarray]:
    """A left environment carried across site k (0-indexed), summed over the local ``labels``."""
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
) -> dict[Charge, np.ndarray]:
    """Left environment after contracting sites 1..len(labels).

    Site i + 1 is summed over the local labels ``labels[i]`` (see
    ``contract_selected``). The site tensors carry the singular values
    on their right, so the environment already includes the bond right of the
    last contracted site; with the remaining sites right-canonical, for a pure
    state the squared 2-norm of the result is the marginal probability of the
    selected prefix.
    """
    env = {c: lam.astype(np.complex128) for c, lam in state.bonds[0].items()}
    for k, site_labels in enumerate(labels):
        env = propagate(state, k, env, site_labels)
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
    sum_c envL[c] . right_envs[l][c]. The package reads marginals through
    ``mpo.marginal``; this is the reference of a test sampler.
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
    return np.sort(np.concatenate(list(state.bonds[bond].values())))[::-1]


def renyi_entropy(state: TensorTrainState, bond: int, alpha: float) -> float:
    """Renyi-``alpha`` entropy (bits) across bond ``bond`` (0..M).

    The entanglement entropy of a pure state, the operator-space entanglement
    of a vectorized density operator, of the 2-norm-renormalized spectrum as
    stored (never empty, every value positive), with the order read by
    ``entropy.normalized_renyi``.
    """
    if not 0 <= bond <= state.num_modes:
        raise ValueError(f"bond must be in [0, {state.num_modes}], got {bond}")
    p = np.concatenate(list(state.bonds[bond].values())) ** 2
    return normalized_renyi(p / p.sum(), alpha)


def max_bond_entropy(state: TensorTrainState, alpha: float,
                     memo: dict[int, tuple[dict, float]] | None = None) -> tuple[int, float]:
    """(bond index, value) of the maximum interior-bond entropy; ties -> smallest bond.

    ``memo``, a dict that a caller keeps for one state and one ``alpha``,
    carries each bond's entropy from one call to the next, stored with the
    bond dict it was computed from: a bond whose dict is still that object
    is not recomputed. An update replaces the dicts of the bonds it changes
    and edits none in place, so after a brickwork layer only the bonds at
    its gates are recomputed, and every value is the one a call without
    ``memo`` returns, bit for bit.
    """
    if state.num_modes < 2:
        return 1, 0.0
    memo = {} if memo is None else memo
    values = []
    for k in range(1, state.num_modes):
        entry = memo.get(k)
        if entry is None or entry[0] is not state.bonds[k]:
            entry = memo[k] = (state.bonds[k], renyi_entropy(state, k, alpha))
        values.append(entry[1])
    best = max(values)
    return values.index(best) + 1, best
