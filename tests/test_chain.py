"""Property tests of the two-site update against a dense reference.

Hypothesis builds small two-site trains with random charges and sector sizes,
pure (int charges) and in the mirror gauge ((ket, bra) charges), with
right-canonical site blocks. ``chain.two_site_update`` runs on each, with
the beam splitter's sector blocks for a pure train and the (ket, bra)
blocks ``mpo.vectorized_blocks`` builds from them for a mirrored one, and a
dense reference does the same math on a copy: contract the two sites,
apply the dense two-site gate, SVD lambda_left Phi per center charge and cut
the pooled spectrum. The tests compare the kept spectrum and the rebuilt
two-site tensor, check that the new blocks are right-canonical and that a
mirrored train keeps bitwise mirror copies. The last tests check that
``chain.apply_plan`` takes each gate's blocks from the state's own module,
that a gate or plan off the chain is rejected, that a non-finite Phi fails
the update with the SVD's error and leaves the state as it was, that updates
through the gesvd fallback agree with gesdd's, and that every
reader of an occupation pattern rejects a malformed entry and reads an
occupation above N as 0.
"""

import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bosonet import chain, linalg, mpo, mps, sampling
from bosonet.circuit import BeamSplitterGate, circuit_to_unitary, fock_gate, sample_haar_circuit
from bosonet.entropy import lossless_ee, partition_angles
from bosonet.linalg import RANK_CUTOFF, TruncationPolicy

from helpers import matrix_element

TOL = 1e-10


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b)) if isinstance(a, tuple) else a - b


def _mirror(c):
    return c[::-1] if isinstance(c, tuple) else c


def _is_label(c, photons):
    """Whether c is a local occupation (or (ket, bra) pair) of a site."""
    return all(0 <= x <= photons for x in (c if isinstance(c, tuple) else (c,)))


def _orthonormal_rows(rng, rows, cols, real):
    a = rng.normal(size=(cols, rows))
    if not real:
        a = a + 1j * rng.normal(size=(cols, rows))
    q, _ = np.linalg.qr(a)
    return q.conj().T


def _right_canonical_site(rng, left, right, photons, mirrored):
    """Blocks (cl, cr) whose rows are orthonormal per left charge, in the mirror gauge if asked."""
    blocks = {}
    for cl in sorted(left):
        cols = [cr for cr in sorted(right) if _is_label(_sub(cl, cr), photons)]
        if mirrored and cl[0] > cl[1]:
            continue  # the conjugated copy of (cl~, cr~)
        if mirrored and cl[0] == cl[1]:
            # SK-invariant rows: (X + iY)/sqrt 2 on (a, b), its conjugate on
            # (b, a), and real Z on the diagonal columns.
            pairs = [cr for cr in cols if cr[0] < cr[1]]
            fixed = [cr for cr in cols if cr[0] == cr[1]]
            widths = [right[c] for c in pairs] * 2 + [right[c] for c in fixed]
            q = _orthonormal_rows(rng, left[cl], sum(widths), real=True)
            parts = np.split(q, np.cumsum(widths)[:-1], axis=1)
            for cr, x, y in zip(pairs, parts, parts[len(pairs):]):
                blocks[(cl, cr)] = math.sqrt(0.5) * (x + 1j * y)
                blocks[(cl, cr[::-1])] = blocks[(cl, cr)].conj()
            for cr, z in zip(fixed, parts[2 * len(pairs):]):
                blocks[(cl, cr)] = z.astype(np.complex128)
            continue
        widths = [right[c] for c in cols]
        q = _orthonormal_rows(rng, left[cl], sum(widths), real=False)
        for cr, block in zip(cols, np.split(q, np.cumsum(widths)[:-1], axis=1)):
            blocks[(cl, cr)] = np.ascontiguousarray(block)
            if mirrored:
                blocks[(cl[::-1], cr[::-1])] = blocks[(cl, cr)].conj()
    return blocks


def _bond(rng, sizes):
    """Descending positive values per charge, mirror charges bitwise copies."""
    bond = {}
    for c in sorted(sizes):
        if _mirror(c) in bond:
            bond[c] = bond[_mirror(c)].copy()
        else:
            bond[c] = np.sort(rng.uniform(0.1, 1.0, size=sizes[c]))[::-1].copy()
    return bond


@st.composite
def trains(draw, mirrored):
    """(state, gate blocks, policy) of a random two-site train."""
    photons = draw(st.integers(1, 3))
    labels = range(photons + 1)
    charges = list(itertools.product(labels, labels)) if mirrored else list(labels)
    reps = [c for c in charges if not mirrored or c[0] <= c[1]]

    def pick_bond(allowed):
        """Random mirror-closed charges of ``allowed`` with random sizes up to each cap."""
        chosen = draw(st.lists(st.sampled_from([c for c in reps if allowed.get(c, 0) > 0]),
                               min_size=1, unique=True))
        sizes = {}
        for c in chosen:
            sizes[c] = draw(st.integers(1, min(3, allowed[c])))
            sizes[_mirror(c)] = sizes[c]
        return sizes

    right = pick_bond({c: 3 for c in charges})
    # A charge can hold at most as many rows as the columns it reaches.
    def reach(sizes):
        return {c: sum(w for cr, w in sizes.items() if _is_label(_sub(c, cr), photons))
                for c in charges}

    inner = pick_bond(reach(right))
    left = pick_bond(reach(inner))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sites = [_right_canonical_site(rng, left, inner, photons, mirrored),
             _right_canonical_site(rng, inner, right, photons, mirrored)]
    bonds = [_bond(rng, left), _bond(rng, inner), _bond(rng, right)]
    state = chain.TensorTrainState(num_modes=2, num_photons=photons, sites=sites, bonds=bonds)
    gate = BeamSplitterGate(1, draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2 * math.pi)))
    total = sum(len(v) for v in bonds[0].values()) * sum(len(v) for v in bonds[2].values())
    chi = draw(st.one_of(st.just(10_000), st.integers(1, max(1, total))))
    return state, fock_gate(gate, photons + 1), TruncationPolicy(chi_max=chi)


def _dense_gate(blocks, photons, mirrored):
    """<j1 j2| G |i1 i2> for local labels (ket, bra pairs act as U (x) conj(U))."""
    def pure(j1, j2, i1, i2):
        n = i1 + i2
        return blocks[n][j1, i1] if j1 + j2 == n and n <= photons else 0.0

    if not mirrored:
        return pure
    return lambda j1, j2, i1, i2: (pure(j1[0], j2[0], i1[0], i2[0])
                                   * np.conj(pure(j1[1], j2[1], i1[1], i2[1])))


def _reference(state, blocks, policy):
    """Dense update: {center: (kept values, {(cl, cr): kept two-site block})}."""
    photons = state.num_photons
    left_bond, right_bond = state.bonds[0], state.bonds[2]
    mirrored = isinstance(next(iter(left_bond)), tuple)
    labels = (list(itertools.product(range(photons + 1), repeat=2)) if mirrored
              else list(range(photons + 1)))
    gate = _dense_gate(blocks, photons, mirrored)
    psi = {}  # (cl, cr) -> {(o1, o2): B_l B_r}
    for (cl, ci), bl in state.sites[0].items():
        for (ci2, cr), br in state.sites[1].items():
            if ci2 == ci:
                psi.setdefault((cl, cr), {})[(_sub(cl, ci), _sub(ci, cr))] = bl @ br
    centers = {co for cl in left_bond for co in (_sub(cl, j) for j in labels)
               if _is_label(co, photons)}
    factors = {}
    for co in sorted(centers):
        rows = [cl for cl in sorted(left_bond) if _is_label(_sub(cl, co), photons)]
        cols = [cr for cr in sorted(right_bond) if _is_label(_sub(co, cr), photons)]
        if not rows or not cols:
            continue
        phi = np.zeros((sum(len(left_bond[c]) for c in rows),
                        sum(len(right_bond[c]) for c in cols)), dtype=np.complex128)
        r0 = 0
        for cl in rows:
            c0 = 0
            for cr in cols:
                j1, j2 = _sub(cl, co), _sub(co, cr)
                for (o1, o2), t in psi.get((cl, cr), {}).items():
                    phi[r0:r0 + t.shape[0], c0:c0 + t.shape[1]] += gate(j1, j2, o1, o2) * t
                c0 += len(right_bond[cr])
            r0 += len(left_bond[cl])
        weights = np.concatenate([left_bond[c] for c in rows])
        _, s, vh = np.linalg.svd(weights[:, None] * phi, full_matrices=False)
        factors[co] = (rows, cols, phi, s, vh)
    # Pooled cut: a mirror pair of centers is one unit that counts twice, and
    # the head unit stays even when it alone exceeds chi.
    pool = sorted(((s[i], co, i) for co, (*_, s, _) in factors.items() for i in range(len(s))
                   if not mirrored or co[0] <= co[1]), reverse=True)
    top = pool[0][0] if pool else 0.0
    # Values near the rank cutoff are not reliably zero or nonzero.
    assume(not any(1e-13 * top < value < 1e-10 * top for value, _, _ in pool))
    kept, count = [], 0
    for value, co, i in pool:
        units = 2 if mirrored and co[0] != co[1] else 1
        if value <= RANK_CUTOFF * top or (kept and count + units > policy.chi_max):
            break
        kept.append((value, co, i))
        count += units
    if len(kept) < len(pool):
        # A cut inside a (near-)degenerate multiplet has no unique kept subspace.
        assume(kept == [] or kept[-1][0] - pool[len(kept)][0] > 1e-8)
    out = {}
    for co, (rows, cols, phi, s, vh) in factors.items():
        rep = co if not mirrored or co[0] <= co[1] else co[::-1]
        idx = sorted(i for _, c, i in kept if c == rep)
        if not idx:
            continue
        v = vh[idx].conj().T
        projected = phi @ v @ v.conj().T
        two_site, r0 = {}, 0
        for cl in rows:
            c0 = 0
            for cr in cols:
                two_site[(cl, cr)] = projected[r0:r0 + len(left_bond[cl]),
                                               c0:c0 + len(right_bond[cr])]
                c0 += len(right_bond[cr])
            r0 += len(left_bond[cl])
        out[co] = (s[idx], two_site)
    return out


def _check_update(state, blocks, policy):
    reference = _reference(copy.deepcopy(state), blocks, policy)
    mirrored = isinstance(next(iter(state.bonds[0])), tuple)
    chain.two_site_update(state, 1, mpo.vectorized_blocks(blocks) if mirrored else blocks, policy)
    new_bond, new_left, new_right = state.bonds[1], state.sites[0], state.sites[1]

    # Kept spectrum, per center charge.
    assert set(new_bond) == set(reference)
    for co, (values, _) in reference.items():
        np.testing.assert_allclose(np.sort(new_bond[co])[::-1], values, atol=TOL, rtol=0)

    # The rebuilt two-site tensor B_l B_r is Phi projected on the kept columns.
    for co, (_, two_site) in reference.items():
        for (cl, cr), want in two_site.items():
            bl, br = new_left.get((cl, co)), new_right.get((co, cr))
            got = bl @ br if bl is not None and br is not None else np.zeros_like(want)
            np.testing.assert_allclose(got, want, atol=TOL, rtol=0)

    # Right-canonical: the new right site always, the new left site at exact rank.
    for co, values in new_bond.items():
        rows = sum(b @ b.conj().T for (c, _), b in new_right.items() if c == co)
        np.testing.assert_allclose(rows, np.eye(len(values)), atol=TOL, rtol=0)
    if policy.chi_max >= 10_000:
        for cl, values in state.bonds[0].items():
            rows = sum(b @ b.conj().T for (c, _), b in new_left.items() if c == cl)
            np.testing.assert_allclose(rows, np.eye(len(values)), atol=TOL, rtol=0)
    return new_bond, new_left, new_right


def _bitwise_conj(a, b):
    return a.shape == b.shape and a.tobytes() == np.ascontiguousarray(b.conj()).tobytes()


@given(trains(mirrored=False))
@settings(max_examples=60, deadline=None)
def test_pure_update_matches_dense_reference(train):
    _check_update(*train)


@given(trains(mirrored=True))
@settings(max_examples=60, deadline=None)
def test_mirrored_update_matches_dense_reference_and_keeps_mirror_copies(train):
    new_bond, new_left, new_right = _check_update(*train)
    for co, values in new_bond.items():
        assert new_bond[co[::-1]].tobytes() == values.tobytes()
    for site in (new_left, new_right):
        for (a, b), block in site.items():
            if a == a[::-1] and b == b[::-1]:
                assert not np.any(block.imag)  # a self-mirror block is real
            else:
                assert _bitwise_conj(site[(a[::-1], b[::-1])], block)


@pytest.mark.parametrize("kind", ["mps", "mpo"])
def test_apply_plan_builds_each_gate_once_in_the_states_module(monkeypatch, kind):
    calls = {"mps": 0, "mpo": 0}
    for name, module in (("mps", mps), ("mpo", mpo)):
        def counting(gate, local_dim, name=name):
            calls[name] += 1
            return fock_gate(gate, local_dim)
        monkeypatch.setattr(module, "fock_gate", counting)
    plan = sample_haar_circuit(6, np.random.default_rng(11))
    state = mps.init_fock((1, 1, 1, 0, 0, 0)) if kind == "mps" else mpo.init_lossy(3, 6, 0.5)
    chain.apply_plan(state, plan, TruncationPolicy(chi_max=64))
    assert calls == {"mps": 0, "mpo": 0, kind: len(plan.gates)}


GATE = BeamSplitterGate(1, 0.7, 1.3)
TWO_MODE_PLAN = sample_haar_circuit(2, np.random.default_rng(1))


@pytest.mark.parametrize("apply, message", [
    pytest.param(lambda s, p: chain.two_site_update(s, 0, s.gate_blocks(GATE), p),
                 r"site must be in \[1, 3\], got 0", id="site-0"),
    pytest.param(lambda s, p: chain.two_site_update(s, 4, s.gate_blocks(GATE), p),
                 r"site must be in \[1, 3\], got 4", id="site-M"),
    pytest.param(lambda s, p: chain.apply_plan(s, TWO_MODE_PLAN, p),
                 "plan acts on 2 modes but state has 4", id="plan-of-2-modes"),
])
@pytest.mark.parametrize("kind", ["mps", "mpo"])
def test_gate_or_plan_off_the_chain_is_rejected(kind, apply, message):
    state = mps.init_fock((1, 1, 0, 0)) if kind == "mps" else mpo.init_lossy(2, 4, 0.5)
    with pytest.raises(ValueError, match=message):
        apply(state, TruncationPolicy(chi_max=16))


@pytest.mark.parametrize("kind", ["mps", "mpo"])
def test_a_non_finite_phi_fails_the_update_and_leaves_the_state_as_it_was(kind):
    # One NaN entry in one block of site 2 reaches the Phi of the gate at
    # sites 2 and 3, whose SVD refuses it before the update writes anything.
    state = mps.init_fock((1, 1, 0, 0)) if kind == "mps" else mpo.init_lossy(2, 4, 0.5)
    policy = TruncationPolicy(chi_max=16)
    for gate in sample_haar_circuit(4, np.random.default_rng(5)).gates[:4]:
        chain.apply_gate(state, gate, policy)
    # The products read only blocks whose inner charge is diagonal or (a, b), a < b.
    key = next(key for key in state.sites[1]
               if not isinstance(key[1], tuple) or key[1][0] <= key[1][1])
    poisoned = state.sites[1][key].copy()
    poisoned[0, 0] = np.nan
    state.sites[1][key] = poisoned
    sites, bonds, weight = state.sites, state.bonds, state.discarded_weight
    site_items = [list(site.items()) for site in sites]
    bond_items = [list(bond.items()) for bond in bonds]
    site_dicts, bond_dicts = list(sites), list(bonds)

    with pytest.raises(ValueError, match=r"^matrix contains non-finite entries$"):
        chain.apply_gate(state, BeamSplitterGate(2, 0.7, 1.3), policy)
    assert state.sites is sites and state.bonds is bonds
    assert state.discarded_weight is weight
    assert all(a is b for a, b in zip(state.sites, site_dicts)) and len(sites) == 4
    assert all(a is b for a, b in zip(state.bonds, bond_dicts)) and len(bonds) == 5
    for items, site in zip(site_items, state.sites):
        assert list(site) == [k for k, _ in items]
        assert all(site[k] is v for k, v in items)
    for items, bond in zip(bond_items, state.bonds):
        assert list(bond) == [k for k, _ in items]
        assert all(bond[k] is v for k, v in items)


@pytest.mark.parametrize("kind", ["mps", "mpo"])
def test_updates_through_the_gesvd_fallback_match_gesdd(monkeypatch, kind):
    # scipy's gesvd returns Fortran-ordered factors; svd hands them on
    # C-contiguous, so the rebuild slices the rows of V^dag with the layout
    # gesdd gives, and the evolution agrees with gesdd's.
    plan = sample_haar_circuit(6, np.random.default_rng(11))
    policy = TruncationPolicy(chi_max=64)

    def evolve():
        state = mps.init_fock((1, 1, 1, 0, 0, 0)) if kind == "mps" else mpo.init_lossy(3, 6, 0.5)
        chain.apply_plan(state, plan, policy)
        return state

    default = evolve()

    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", diverge)
    rng = np.random.default_rng(2)
    result = linalg.svd(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))
    assert result.left.flags.c_contiguous and result.right_conj.flags.c_contiguous
    fallback = evolve()
    assert all(block.flags.c_contiguous for site in fallback.sites for block in site.values())
    for got, want in zip(fallback.bonds, default.bonds):
        assert list(got) == list(want)
        for charge, values in got.items():
            np.testing.assert_allclose(values, want[charge], atol=TOL)
    # Singular vectors are fixed only up to phases, so compare what the state predicts.
    prob = mps.probability if kind == "mps" else mpo.outcome_prob
    for pattern in itertools.product(range(4), repeat=6):
        if sum(pattern) <= 3:
            assert prob(fallback, pattern) == pytest.approx(prob(default, pattern), abs=TOL)


#: Each reader of an occupation pattern, called with ``pattern`` on a lossless
#: or lossy state of 4 modes and 2 photons, or on the angles of a 4-mode Haar unitary.
HAAR_ANGLES = partition_angles(
    circuit_to_unitary(sample_haar_circuit(4, np.random.default_rng(3))), 2)
READERS = {
    "amplitude": lambda pattern: mps.amplitude(mps.init_fock((1, 1, 0, 0)), pattern),
    "outcome_prob": lambda pattern: mpo.outcome_prob(mpo.init_lossy(2, 4, 0.5), pattern),
    "marginal": lambda pattern: mpo.marginal(mpo.init_lossy(2, 4, 0.5), pattern),
    "marginal_prob": lambda pattern: sampling.marginal_prob(mpo.init_lossy(2, 4, 0.5), pattern),
    "matrix_element-bra": lambda pattern: matrix_element(
        mpo.init_lossy(2, 4, 0.5), (1, 1, 0, 0), pattern),
    "lossless_ee": lambda pattern: lossless_ee(pattern, HAAR_ANGLES, 1.0),
}


@pytest.mark.parametrize("entry", [-1, 1.5, True, np.float64(1.0)],
                         ids=["negative", "fractional", "bool", "float"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_occupation_readers_reject_a_malformed_entry(reader, entry):
    assert READERS[reader]((1, 1, 0, 0)) != 0.0
    with pytest.raises(ValueError, match="integers|non-negative"):
        READERS[reader]((entry, 1, 0, 0))


# ``lossless_ee`` reads an input pattern, which may hold any number of photons.
@pytest.mark.parametrize("read", [
    *(pytest.param(READERS[name], id=name) for name in sorted(READERS) if name != "lossless_ee"),
    pytest.param(lambda pattern: sampling.marginal_prob(mps.init_fock((1, 1, 0, 0)), pattern),
                 id="marginal_prob-mps"),
])
def test_occupation_readers_read_an_occupation_above_n_as_zero(read):
    assert read((3, 0, 0, 0)) == 0.0
