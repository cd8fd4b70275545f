"""Tests for the closed-form collision-free entropy calculators."""

import inspect
import math

import numpy as np
import pytest

from bosonet import chain, entropy, mps
from bosonet.circuit import (
    BeamSplitterGate,
    CircuitPlan,
    circuit_to_unitary,
    sample_haar_circuit,
)
from bosonet.entropy import (
    asymptotic_scaling,
    distribution_renyi,
    log_asymptotic_cost,
    log_naive_cost,
    lossy_mode_spectrum,
    lossy_mpo_ee,
    normalized_renyi,
    partition_angles,
)
from bosonet.linalg import TruncationPolicy
from bosonet.oracle import dense_evolve, dense_reduced_spectrum

from helpers import (
    binomial_spectrum,
    dense_lossy_plain_spectrum,
    dense_lossy_vectorized_spectrum,
    lossless_ee,
    lossy_mode_operator,
)

ALPHAS = (0.0, 0.5, 1.0, 2.0, 3.0)


def crossing_plan(theta_a: float = 0.7, theta_b: float = 1.1) -> CircuitPlan:
    """Four-mode plan that splits photon 1 across modes (1,3), photon 2 across (2,4).

    At the central cut each input photon has support on exactly one mode per
    side, so per-photon factorization across the cut is exact rather than an
    approximation: the ideal referee for the closed-form calculators.
    """
    return CircuitPlan(
        num_modes=4,
        gates=[
            BeamSplitterGate(site=2, theta=math.pi / 2, phi=0.0),
            BeamSplitterGate(site=1, theta=theta_a, phi=0.3),
            BeamSplitterGate(site=3, theta=theta_b, phi=-0.9),
            BeamSplitterGate(site=2, theta=math.pi / 2, phi=0.0),
        ],
    )


def test_all_names_exactly_the_public_functions_and_classes():
    public = {name for name, obj in vars(entropy).items()
              if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == entropy.__name__}
    assert len(set(entropy.__all__)) == len(entropy.__all__)
    assert set(entropy.__all__) == public


# ---------------------------------------------------------------------------
# partition_angles
# ---------------------------------------------------------------------------


def test_identity_partition_angles_are_indicator_weights():
    cos_squared = partition_angles(np.eye(6), 3)
    assert cos_squared.shape == (6,)
    assert np.allclose(cos_squared, [1, 1, 1, 0, 0, 0], atol=1e-14)
    assert np.allclose(1.0 - cos_squared, [0, 0, 0, 1, 1, 1], atol=1e-14)


def test_partition_angles_rows_use_input_modes():
    # Photon entering mode 1 keeps weight cos^2(theta_a) left of the cut.
    ta, tb = 0.7, 1.1
    u = circuit_to_unitary(crossing_plan(ta, tb))
    cos_squared = partition_angles(u, 2)
    assert cos_squared[0] == pytest.approx(math.cos(ta) ** 2, abs=1e-12)
    assert cos_squared[1] == pytest.approx(math.cos(tb) ** 2, abs=1e-12)


def test_partition_angles_complement_cut():
    u = circuit_to_unitary(sample_haar_circuit(8, np.random.default_rng(3)))
    left = partition_angles(u, 5)
    # Unitarity: weights left of the cut and right of it sum to one per row.
    tail = np.abs(u[:, 5:]) ** 2
    assert np.allclose(left + tail.sum(axis=1), 1.0, atol=1e-10)
    assert np.all((left >= 0) & (left <= 1))


def test_haar_partition_angles_average_to_half():
    rng = np.random.default_rng(42)
    samples = []
    for _ in range(20):
        u = circuit_to_unitary(sample_haar_circuit(8, rng))
        samples.append(partition_angles(u, 4))
    assert np.mean(samples) == pytest.approx(0.5, abs=0.05)


def test_partition_angles_validation():
    with pytest.raises(ValueError):
        partition_angles(np.eye(4), 0)
    with pytest.raises(ValueError):
        partition_angles(np.eye(4), 4)
    with pytest.raises(ValueError):
        partition_angles(np.ones((2, 3)), 1)
    with pytest.raises(ValueError):
        partition_angles(np.zeros((3, 3)), 1)


# ---------------------------------------------------------------------------
# spectra and Renyi helpers
# ---------------------------------------------------------------------------


def test_binomial_spectrum_basics():
    assert np.allclose(binomial_spectrum(1, 0.3), [0.7, 0.3], atol=1e-15)
    spec = binomial_spectrum(7, 0.42)
    assert spec.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(spec >= 0)
    assert np.array_equal(binomial_spectrum(3, 0.0), [1, 0, 0, 0])
    assert np.array_equal(binomial_spectrum(3, 1.0), [0, 0, 0, 1])
    with pytest.raises(ValueError):
        binomial_spectrum(-1, 0.5)
    with pytest.raises(ValueError):
        binomial_spectrum(2, 1.5)


def test_distribution_renyi_frozen_values():
    p = np.array([0.75, 0.25])
    assert distribution_renyi(p, 1.0) == pytest.approx(0.8112781244591328, abs=1e-14)
    assert distribution_renyi(p, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert distribution_renyi(p, 2.0) == pytest.approx(-math.log2(0.625), abs=1e-14)
    expected_half = 2.0 * math.log2(math.sqrt(0.75) + math.sqrt(0.25))
    assert distribution_renyi(p, 0.5) == pytest.approx(expected_half, abs=1e-14)
    # Renormalization is defensive: scaling the vector changes nothing.
    assert distribution_renyi(4.0 * p, 1.0) == pytest.approx(
        distribution_renyi(p, 1.0), abs=1e-14
    )
    # Hartley entropy counts support, ignoring zero entries.
    assert distribution_renyi(np.array([0.5, 0.5, 0.0]), 0.0) == pytest.approx(1.0)


def test_order_just_outside_the_von_neumann_window_is_a_power_sum():
    # 1 + 1e-7 lies outside the 1e-12 window, so it takes the power-sum branch
    # bit for bit and is not the Shannon value.
    p = np.array([0.75, 0.25])
    alpha = 1.0 + 1e-7
    assert normalized_renyi(p, alpha) == math.log2((p**alpha).sum()) / (1.0 - alpha)
    assert normalized_renyi(p, alpha) != normalized_renyi(p, 1.0)


def test_distribution_renyi_validation():
    for alpha in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha"):
            distribution_renyi(np.array([0.5, 0.5]), alpha)
    with pytest.raises(ValueError):
        distribution_renyi(np.array([0.7, -0.2]), 1.0)
    with pytest.raises(ValueError):
        distribution_renyi(np.array([0.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        distribution_renyi(np.array([]), 1.0)


def test_distribution_renyi_decreasing_in_alpha():
    # Orders 2000 and 1e300 underflow sum(p**alpha) to 0; the last value is H_inf.
    p = np.array([0.5, 0.3, 0.15, 0.05])
    values = [distribution_renyi(p, a) for a in (*ALPHAS, 2000.0, 1e300)] + [1.0]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# lossless_ee
# ---------------------------------------------------------------------------


def test_lossless_balanced_single_photons_give_one_bit_each():
    occ = (1, 1, 1, 1, 1, 1)
    for alpha in ALPHAS:
        assert lossless_ee(occ, np.full(6, 0.5), alpha) == pytest.approx(6.0, abs=1e-10)


def test_lossless_bunched_matches_gaussian_asymptotic():
    n = 4096
    s1 = lossless_ee((n, 0), np.array([0.5, 0.0]), 1.0)
    assert s1 == pytest.approx(0.5 * math.log2(math.pi * math.e * n / 2), abs=1e-3)


def test_lossless_empty_input_is_zero():
    cos_squared = np.array([0.3, 0.9, 0.1, 0.5])
    for alpha in ALPHAS:
        assert lossless_ee((0, 0, 0, 0), cos_squared, alpha) == 0.0


def test_lossless_additive_over_modes():
    rng = np.random.default_rng(7)
    angles = rng.uniform(0.05, 0.95, size=5)
    combined = lossless_ee((2, 0, 1, 0, 3), angles, 1.3)
    parts = (
        lossless_ee((2, 0, 0, 0, 0), angles, 1.3)
        + lossless_ee((0, 0, 1, 0, 0), angles, 1.3)
        + lossless_ee((0, 0, 0, 0, 3), angles, 1.3)
    )
    assert combined == pytest.approx(parts, abs=1e-12)


def test_lossless_matches_dense_schmidt_spectrum():
    plan = crossing_plan()
    angles = partition_angles(circuit_to_unitary(plan), 2)
    spectrum = dense_reduced_spectrum(dense_evolve((1, 1, 0, 0), plan), 2)
    product = np.sort(
        np.outer(
            binomial_spectrum(1, angles[0]),
            binomial_spectrum(1, angles[1]),
        ).ravel()
    )[::-1]
    assert np.allclose(spectrum[:4], product, atol=1e-12)
    assert np.all(np.abs(spectrum[4:]) < 1e-12)
    for alpha in (0.5, 1.0, 2.0):
        assert lossless_ee((1, 1, 0, 0), angles, alpha) == pytest.approx(
            distribution_renyi(spectrum, alpha), abs=1e-10
        )


def test_lossless_validation():
    angles = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        lossless_ee((1,), angles, 1.0)
    with pytest.raises(ValueError):
        lossless_ee((1, -1), angles, 1.0)
    # The order is checked up front, also when no mode is occupied.
    wide = np.array([0.5, 0.3, 0.8, 0.1])
    for alpha in (-1.0, math.nan, math.inf):
        for occupations in ((1, 1, 0, 0), (0, 0, 0, 0)):
            with pytest.raises(ValueError, match="alpha"):
                lossless_ee(occupations, wide, alpha)


# ---------------------------------------------------------------------------
# lossy per-photon spectra
# ---------------------------------------------------------------------------


def test_lossy_mode_operator_is_positive_with_fixed_trace():
    for mu in (0.0, 0.3, 0.55, 1.0):
        for c2 in (0.0, 0.17, 0.5, 0.83, 1.0):
            op = lossy_mode_operator(c2, mu)
            assert np.allclose(op, op.T)
            assert np.trace(op) == pytest.approx((1 - mu) ** 2 + mu**2, abs=1e-14)
            assert np.linalg.eigvalsh(op).min() >= -1e-15


def test_lossy_mode_spectrum_matches_eigendecomposition():
    for mu in (0.0, 0.3, 0.55, 1.0):
        for c2 in (0.0, 0.17, 0.5, 0.83, 1.0):
            closed = lossy_mode_spectrum(c2, mu)
            norm = (1 - mu) ** 2 + mu**2
            direct = np.sort(np.linalg.eigvalsh(lossy_mode_operator(c2, mu)))[::-1]
            assert np.allclose(closed, direct / norm, atol=1e-12)
            assert closed.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(closed >= 0)


def test_lossy_mode_small_root_is_the_coherence_squared_over_the_large_root():
    # The 2x2 block's determinant a*d - b*b is off**2 exactly; the spectrum
    # takes its small root as off**2 / hi, not from the cancelling difference.
    for c2 in np.linspace(0.0, 1.0, 21).tolist():
        for mu in np.linspace(0.0, 1.0, 21).tolist():
            s2 = 1.0 - c2
            a = (1.0 - mu) ** 2 + mu**2 * s2**2
            d = mu**2 * c2**2
            b = (1.0 - mu) * mu * c2
            off = mu**2 * s2 * c2
            hi = (a + d) / 2.0 + math.hypot((a - d) / 2.0, b)
            expected = np.array([hi, off * off / hi, off, off]) / ((1.0 - mu) ** 2 + mu**2)
            assert np.array_equal(lossy_mode_spectrum(c2, mu), np.sort(expected)[::-1]), (c2, mu)


def test_lossy_full_transmission_doubles_pure_entropy():
    rng = np.random.default_rng(11)
    angles = rng.uniform(0.05, 0.95, size=4)
    occ = (1, 1, 1, 1)
    for alpha in ALPHAS:
        assert lossy_mpo_ee(angles, 1.0, alpha, 4) == pytest.approx(
            2.0 * lossless_ee(occ, angles, alpha), abs=1e-10
        )
    balanced = np.full(5, 0.5)
    assert np.allclose(lossy_mode_spectrum(0.5, 1.0), 0.25)
    assert lossy_mpo_ee(balanced, 1.0, 1.0, 5) == pytest.approx(10.0, abs=1e-10)


def test_lossy_zero_transmission_is_vacuum():
    angles = np.array([0.3, 0.8, 0.5])
    for alpha in ALPHAS:
        assert lossy_mpo_ee(angles, 0.0, alpha, 3) == 0.0


def test_lossy_matches_dense_plain_spectrum():
    plan = crossing_plan()
    angles = partition_angles(circuit_to_unitary(plan), 2)
    mu = 0.55
    product = np.sort(
        np.outer(
            lossy_mode_spectrum(float(angles[0]), mu),
            lossy_mode_spectrum(float(angles[1]), mu),
        ).ravel()
    )[::-1]
    dense = dense_lossy_plain_spectrum(plan, 2, mu, 2)
    assert np.allclose(dense[:16], product, atol=1e-10)
    assert np.all(dense[16:] < 1e-12)
    for alpha in (0.5, 1.0, 2.0, 3.0):
        assert lossy_mpo_ee(angles, mu, alpha, 2) == pytest.approx(
            distribution_renyi(dense, alpha), abs=1e-8
        )


def test_charge_resolved_storage_spectrum_is_a_different_object():
    # The stored state keeps total-photon sectors on the boundary, so its
    # bond spectrum differs from the plain summed-operator spectrum except
    # when a single sector carries all the weight (mu = 1).
    plan = crossing_plan()
    plain = dense_lossy_plain_spectrum(plan, 2, 0.55, 2)
    sectored = dense_lossy_vectorized_spectrum(plan, 2, 0.55, 2)
    m = min(len(plain), len(sectored))
    assert np.max(np.abs(plain[:m] - sectored[:m])) > 0.05
    plain_full = dense_lossy_plain_spectrum(plan, 2, 1.0, 2)
    sectored_full = dense_lossy_vectorized_spectrum(plan, 2, 1.0, 2)
    m = min(len(plain_full), len(sectored_full))
    assert np.allclose(plain_full[:m], sectored_full[:m], atol=1e-12)


def test_lossy_validation():
    angles = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        lossy_mpo_ee(angles, 1.5, 1.0, 1)
    with pytest.raises(ValueError):
        lossy_mpo_ee(angles, 0.5, 1.0, 3)
    for alpha in (-1.0, math.nan, math.inf):
        for num_photons in (1, 0):
            with pytest.raises(ValueError, match="alpha"):
                lossy_mpo_ee(angles, 0.5, alpha, num_photons)
    with pytest.raises(ValueError):
        lossy_mode_spectrum(1.2, 0.5)
    with pytest.raises(ValueError):
        lossy_mode_spectrum(0.5, -0.1)


# ---------------------------------------------------------------------------
# consistency with the simulator
# ---------------------------------------------------------------------------


def test_lossless_tracks_mps_entropy_on_dilute_ensemble():
    # Two photons in sixteen modes: collisions are rare, so the closed form
    # should track the exact simulation on ensemble average well inside the
    # 0.1-bit budget.
    num_modes, num_photons = 16, 2
    occ = tuple([1] * num_photons + [0] * (num_modes - num_photons))
    policy = TruncationPolicy(chi_max=256)
    sim_vals, analytic_vals = [], []
    for seed in range(6):
        plan = sample_haar_circuit(num_modes, np.random.default_rng(seed))
        state = mps.init_fock(occ)
        chain.apply_plan(state, plan, policy)
        sim_vals.append(chain.renyi_entropy(state, num_modes // 2, 1.0))
        angles = partition_angles(circuit_to_unitary(plan), num_modes // 2)
        analytic_vals.append(lossless_ee(occ, angles, 1.0))
    assert abs(np.mean(sim_vals) - np.mean(analytic_vals)) < 0.1


def test_loss_exponent_controls_entropy_trend():
    # Renyi-2 means over a Haar ensemble: strongly decaying loss shrinks the
    # entropy with photon number, constant transmission grows it linearly.
    num_modes, beta = 64, 0.6
    means = {}
    for gamma in (0.25, 1.0):
        per_n = []
        for n in (4, 16):
            mu = min(1.0, beta * n ** (gamma - 1.0))
            vals = []
            for seed in range(8):
                plan = sample_haar_circuit(num_modes, np.random.default_rng(1000 + seed))
                angles = partition_angles(circuit_to_unitary(plan), num_modes // 2)
                vals.append(lossy_mpo_ee(angles, mu, 2.0, n))
            per_n.append(float(np.mean(vals)))
        means[gamma] = per_n
    assert means[0.25][1] < 0.6 * means[0.25][0]
    assert means[1.0][1] > 3.0 * means[1.0][0]


# ---------------------------------------------------------------------------
# scaling laws and cost model
# ---------------------------------------------------------------------------


def test_asymptotic_scaling_table():
    law = asymptotic_scaling(1.0, 1.0)
    assert law.exponent == pytest.approx(1.0) and law.has_log_factor
    law = asymptotic_scaling(0.25, 1.0)
    assert law.exponent == pytest.approx(-0.5) and law.has_log_factor
    law = asymptotic_scaling(0.5, 1.0)
    assert law.exponent == pytest.approx(0.0) and law.has_log_factor
    law = asymptotic_scaling(0.5, 2.0)
    assert law.exponent == pytest.approx(-1.0) and not law.has_log_factor
    law = asymptotic_scaling(1.0, 2.0)
    assert law.exponent == pytest.approx(1.0) and not law.has_log_factor
    law = asymptotic_scaling(0.75, 0.5)
    assert law.exponent == pytest.approx(0.75) and not law.has_log_factor


def test_asymptotic_scaling_validation():
    with pytest.raises(ValueError):
        asymptotic_scaling(0.0, 1.0)
    with pytest.raises(ValueError):
        asymptotic_scaling(1.2, 1.0)
    for alpha in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha"):
            asymptotic_scaling(0.5, alpha)


def test_naive_cost_values():
    assert math.exp(log_naive_cost(10, 1.0, 2.0)) == pytest.approx(1024.0, rel=1e-12)
    assert math.exp(log_naive_cost(10, 0.0, 2.0)) == 1.0
    assert math.exp(log_naive_cost(0, 0.7, 3.0)) == 1.0
    assert math.exp(log_naive_cost(10, 0.5, 2.0)) == pytest.approx(1.5**10, rel=1e-12)
    assert math.exp(log_naive_cost(10, 0.5, 2.0)) == pytest.approx(57.6650390625, rel=1e-10)


def test_naive_cost_validation():
    for bad, message in (((10, 1.1, 2.0), "mu must be in"), ((10, -0.1, 2.0), "mu must be in"),
                         ((10, 0.5, 1.0), "cost_base must exceed 1"),
                         ((-1, 0.5, 2.0), "num_photons must be nonnegative")):
        for cost in (log_naive_cost, log_asymptotic_cost):
            with pytest.raises(ValueError, match=message):
                cost(*bad)


def test_log_cost_ratio_approaches_one_in_dilute_limit():
    # log(1 + mu (c-1))^N vs (c-1) mu N: the ratio tends to 1 from below.
    n, c = 100, 2.0
    for mu, tol in ((0.1, 0.06), (1e-3, 1e-3)):
        ratio = log_naive_cost(n, mu, c) / log_asymptotic_cost(n, mu, c)
        assert ratio < 1.0
        assert ratio == pytest.approx(1.0, abs=tol)
    assert log_naive_cost(10_000, 0.5, 2.0) == pytest.approx(
        10_000 * math.log(1.5), rel=1e-12
    )
