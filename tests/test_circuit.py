import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonet.circuit import (
    BeamSplitterGate,
    CircuitPlan,
    circuit_to_unitary,
    fock_gate,
    gen_index_sequence,
    plan_fingerprint,
    sample_haar_circuit,
)
from bosonet.oracle import build_submatrix, permanent


def test_index_sequences():
    assert gen_index_sequence(2) == (1,)
    assert gen_index_sequence(4) == (3, 1, 2)
    assert gen_index_sequence(5) == (3, 1, 2, 4)
    with pytest.raises(ValueError):
        gen_index_sequence(1)


def test_index_sequence_covers_all_sites():
    for n in range(2, 12):
        assert sorted(gen_index_sequence(n)) == list(range(1, n))


def test_haar_gate_transmittance_follows_beta_1_k():
    # The gate at site k keeps a Beta(1, k) fraction cos^2(theta), of mean
    # 1/(k+1) and variance k/((k+1)^2 (k+2)). Site 7 of M=8 appears once per
    # circuit, so 2000 circuits give every site at least 2000 gates.
    rng = np.random.default_rng(5)
    kept: dict[int, list[float]] = {}
    for _ in range(2000):
        for g in sample_haar_circuit(8, rng).gates:
            kept.setdefault(g.site, []).append(math.cos(g.theta) ** 2)
    assert sorted(kept) == list(range(1, 8))
    for k, values in kept.items():
        assert len(values) >= 2000
        sigma = math.sqrt(k / ((k + 1) ** 2 * (k + 2)) / len(values))
        assert abs(np.mean(values) - 1 / (k + 1)) < 4 * sigma, k


def test_haar_circuit_counts():
    rng = np.random.default_rng(0)
    for m in (2, 4, 8, 12):
        plan = sample_haar_circuit(m, rng)
        assert len(plan.gates) == m * (m - 1) // 2
        assert plan.depth == m
    with pytest.raises(ValueError):
        sample_haar_circuit(3, rng)


def test_two_mode_circuit_is_single_gate():
    plan = sample_haar_circuit(2, np.random.default_rng(1))
    assert len(plan.gates) == 1
    assert plan.gates[0].site == 1


def test_layers_are_disjoint():
    plan = sample_haar_circuit(8, np.random.default_rng(2))
    for layer in plan.layers():
        sites = [g.site for g in layer]
        for a in sites:
            assert sites.count(a) == 1
            assert a + 1 not in sites


def _brickwork_runs(m):
    """Layer boundaries by the brickwork rule: within each block R_n, one run of
    its odd sites and one of its even sites, each ending a layer."""
    half = m // 2
    bounds, done = [0], 0
    for n in [2 * j - 1 for j in range(1, half + 1)] + [m - 2 * i for i in range(half)]:
        if n < 2:
            continue
        seq = gen_index_sequence(n)
        odd = sum(1 for k in seq if k % 2 == 1)
        bounds.append(done + odd)
        if odd < len(seq):
            bounds.append(done + len(seq))
        done += len(seq)
    return bounds


def test_derived_layers_are_the_brickwork_runs():
    for m in range(2, 130, 2):
        plan = sample_haar_circuit(m, np.random.default_rng(m))
        assert plan.layer_boundaries == _brickwork_runs(m), m


def test_unitary_single_gate():
    plan = CircuitPlan(num_modes=2, gates=[BeamSplitterGate(1, math.pi / 4, 0.0)])
    u = circuit_to_unitary(plan)
    root_half = 1 / math.sqrt(2)
    assert np.allclose(u, [[root_half, -root_half], [root_half, root_half]], atol=1e-12)


def test_unitary_composition_order():
    g1 = BeamSplitterGate(1, 0.3, 0.7)
    g2 = BeamSplitterGate(2, 1.1, -0.2)
    plan = CircuitPlan(num_modes=3, gates=[g1, g2])
    e1 = np.eye(3, dtype=complex)
    e1[0:2, 0:2] = g1.matrix()
    e2 = np.eye(3, dtype=complex)
    e2[1:3, 1:3] = g2.matrix()
    assert np.allclose(circuit_to_unitary(plan), e1 @ e2, atol=1e-12)


def test_unitary_is_unitary():
    rng = np.random.default_rng(3)
    for m in (2, 4, 10):
        u = circuit_to_unitary(sample_haar_circuit(m, rng))
        assert np.allclose(u @ u.conj().T, np.eye(m), atol=1e-12)


def test_haar_moments():
    # Second and fourth moments of single entries against the known values
    # 1/M and 2/(M (M+1)); tolerance is four standard errors at this sample size.
    m, n_samples = 4, 2000
    rng = np.random.default_rng(42)
    sq = np.empty(n_samples)
    quart = np.empty(n_samples)
    for i in range(n_samples):
        u = circuit_to_unitary(sample_haar_circuit(m, rng))
        sq[i] = abs(u[0, 0]) ** 2
        quart[i] = abs(u[2, 1]) ** 4
    se2 = math.sqrt((m - 1) / (m**2 * (m + 1)) / n_samples)
    assert abs(sq.mean() - 1 / m) < 4 * se2
    mom4 = 2 / (m * (m + 1))
    mom8 = 24 * math.factorial(m - 1) / math.factorial(m + 3)
    se4 = math.sqrt((mom8 - mom4**2) / n_samples)
    assert abs(quart.mean() - mom4) < 4 * se4


def test_two_mode_entry_distribution():
    # For M = 2 the transmissivity |U_11|^2 = 1 - r must be uniform on [0, 1].
    rng = np.random.default_rng(9)
    vals = np.sort(
        [abs(circuit_to_unitary(sample_haar_circuit(2, rng))[0, 0]) ** 2 for _ in range(2000)]
    )
    ecdf = np.arange(1, 2001) / 2000
    assert np.max(np.abs(vals - ecdf)) < 0.05


@pytest.mark.parametrize("num_modes, gates, blocks, message", [
    pytest.param(1, [], [], "at least two modes", id="one-mode"),
    pytest.param(4, [BeamSplitterGate(4, 0.3, 0.1)], [], r"gate site 4 outside \[1, 3\]",
                 id="site-M"),
    pytest.param(4, [BeamSplitterGate(1, 0.3, 0.1), BeamSplitterGate(3, 0.2, 0.4)], [0, 1],
                 "block boundaries", id="blocks-short-of-the-gates"),
])
def test_malformed_plan_is_rejected(num_modes, gates, blocks, message):
    with pytest.raises(ValueError, match=message):
        CircuitPlan(num_modes=num_modes, gates=gates, block_boundaries=blocks)


def test_plan_fingerprint_is_pinned():
    # Every sample table carries this digest of CircuitPlan.to_json, so its
    # value must not move between builds.
    plan = sample_haar_circuit(6, np.random.default_rng(7))
    assert plan_fingerprint(plan) == "a9610294408fdc5b"


def test_fock_gate_block_layout():
    blocks = fock_gate(BeamSplitterGate(1, 0.7, 1.3), 5)
    assert [b.shape for b in blocks] == [(n + 1, n + 1) for n in range(5)]
    assert all(b.dtype == np.complex128 and b.flags.c_contiguous for b in blocks)
    with pytest.raises(ValueError):
        fock_gate(BeamSplitterGate(1, 0.7, 1.3), 0)


def test_fock_gate_identity_at_zero_angle():
    for n, block in enumerate(fock_gate(BeamSplitterGate(1, 0.0, 0.4), 4)):
        assert np.allclose(block, np.eye(n + 1), atol=1e-14)


def test_fock_gate_hong_ou_mandel():
    # blocks[2][j, 1] = <j, 2-j| B |1, 1>: the |1, 1> output vanishes.
    block = fock_gate(BeamSplitterGate(1, math.pi / 4, 0.0), 3)[2]
    assert abs(block[1, 1]) < 1e-14
    assert abs(block[2, 1]) == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    assert abs(block[0, 1]) == pytest.approx(1 / math.sqrt(2), abs=1e-14)


@pytest.mark.parametrize("theta", [0.0, 0.37, math.pi / 4, 1.2, math.pi / 2])
@pytest.mark.parametrize("d", range(1, 7))
def test_fock_gate_matches_permanents(theta, d):
    # <j, n-j| B |i, n-i> = Per(B[rows i, n-i; cols j, n-j]) / sqrt(i! (n-i)! j! (n-j)!)
    gate = BeamSplitterGate(1, theta, 2.1)
    b = gate.matrix()
    blocks = fock_gate(gate, d)
    assert len(blocks) == d
    for n, block in enumerate(blocks):
        for j in range(n + 1):
            for i in range(n + 1):
                norm = math.sqrt(math.factorial(i) * math.factorial(n - i)
                                 * math.factorial(j) * math.factorial(n - j))
                expected = permanent(build_submatrix(b, (i, n - i), (j, n - j))) / norm
                assert abs(block[j, i] - expected) < 1e-13, (n, j, i)


def scalar_fock_entry(gate, i1, i2, j1, j2):
    """<j1, j2| B |i1, i2> summed term by term in Python scalars (the reference)."""
    t = math.cos(gate.theta)
    s_refl = math.sin(gate.theta)
    rp = -np.exp(1j * gate.phi) * s_refl
    r = np.exp(-1j * gate.phi) * s_refl
    acc = 0.0 + 0.0j
    for q in range(max(0, j1 - i1), min(j1, i2) + 1):
        p = j1 - q
        acc += math.comb(i1, p) * math.comb(i2, q) * t ** (p + (i2 - q)) * rp ** (i1 - p) * r**q
    fact = math.factorial
    return math.sqrt(fact(j1) * fact(j2) / (fact(i1) * fact(i2))) * acc


@pytest.mark.parametrize("d", range(1, 8))
def test_fock_gate_is_bitwise_the_scalar_expansion(d):
    # Output tables stay byte-identical only if the blocks do.
    rng = np.random.default_rng(d)
    angles = [(0.0, 0.4), (math.pi / 2, 1.0), (math.pi / 4, 0.0)]
    angles += [(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi)) for _ in range(5)]
    for theta, phi in angles:
        gate = BeamSplitterGate(1, theta, phi)
        for n, block in enumerate(fock_gate(gate, d)):
            expected = np.array([[scalar_fock_entry(gate, i, n - i, j, n - j)
                                  for i in range(n + 1)] for j in range(n + 1)])
            assert block.tobytes() == expected.astype(np.complex128).tobytes(), (theta, n)


@given(
    theta=st.floats(0.0, math.pi / 2),
    phi=st.floats(0.0, 2 * math.pi),
    d=st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_fock_gate_sector_unitarity(theta, phi, d):
    for n, block in enumerate(fock_gate(BeamSplitterGate(1, theta, phi), d)):
        assert np.allclose(block.conj().T @ block, np.eye(n + 1), atol=1e-12)
