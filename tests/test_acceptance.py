"""Package acceptance suite: end-to-end guarantees at their stated tolerances.

This file checks the headline behaviors a user of the package relies on:

- the tensor-network simulators reproduce the permanent / binomial-mixture
  references exactly at full rank, for pure states and lossy operators, also
  when bond spectra span twelve orders of magnitude;
- two-photon interference comes out exact at the 50:50 splitter;
- entanglement growth follows the known laws (linear in photon number for
  spread inputs, logarithmic for bunched inputs, saturating in mode number);
- loss turns those laws into power laws whose simulated and closed-form
  trends agree;
- truncation error is controlled and singular-value tails decay faster than
  any power;
- conservation laws (norm weight, charge structure, operator-entropy
  doubling, sampler chain rule) hold on the same evolutions;
- drawn samples follow the exact distribution;
- the classical cost model matches its closed forms;
- at the paper's operator-entanglement size, past any dense oracle, the
  lossy run reproduces its recorded entropies, keeps unit trace and keeps
  the Hermitian mirror symmetry of its bond spectra.

The suite favors wide statistical margins over speed; it runs in a few
minutes. Ensemble means were measured beforehand and every stochastic
assertion sits far from its threshold at the frozen seeds.
"""

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest

from bosonet import chain, mpo, mps, sampling
from bosonet.circuit import (
    BeamSplitterGate,
    CircuitPlan,
    circuit_to_unitary,
    sample_haar_circuit,
)
from bosonet.entropy import (
    asymptotic_scaling,
    binomial_spectrum,
    distribution_renyi,
    log_naive_cost,
    lossy_mpo_ee,
    naive_cost,
    partition_angles,
)
from bosonet.experiments import circuit_rng, config_from_dict, run, run_to_files
from bosonet.linalg import TruncationPolicy
from bosonet.oracle import (
    dense_evolve,
    enumerate_occupations,
    exact_lossy_distribution,
    exact_prob,
)

from helpers import exact_lossless_distribution

FULL_RANK = TruncationPolicy(chi_max=100_000)
REFERENCE_MAX_EE = Path(__file__).resolve().parents[1] / "perfbench" / "reference_max_ee.json"


def evolve_mps_by_layers(plan, occupations, policy):
    """Evolve a Fock input layer by layer, tracking per-layer diagnostics."""
    state = mps.init_fock(occupations)
    peak_s1 = 0.0
    max_s0 = 0.0
    max_bond = state.max_bond_dimension()
    for layer in plan.layers():
        for gate in layer:
            chain.apply_gate(state, gate, policy)
        peak_s1 = max(peak_s1, chain.max_bond_entropy(state, 1.0)[1])
        max_s0 = max(max_s0, chain.max_bond_entropy(state, 0.0)[1])
        max_bond = max(max_bond, state.max_bond_dimension())
    return state, peak_s1, max_s0, max_bond


def charge_violations(state) -> int:
    """Count structural charge-conservation defects in a state's tensor train.

    Every stored block must connect charges whose difference is a valid local
    occupation (each component in [0, d)), and must reference live sectors
    of its adjacent bonds; the count is zero for any state produced by the
    simulators.
    """
    bad = 0
    for k in range(state.num_modes):
        for (cl, cr) in state.sites[k]:
            occupation = np.atleast_1d(np.subtract(cl, cr))
            if occupation.min() < 0 or occupation.max() >= state.local_dim:
                bad += 1
            if cl not in state.bonds[k] or cr not in state.bonds[k + 1]:
                bad += 1
    return bad


# ---------------------------------------------------------------------------
# paper size: M = 16, N = 4, chi = 256 = 4^N (exact rank), no dense oracle
# ---------------------------------------------------------------------------


class TestPaperSize:
    def test_lossy_run_matches_reference_with_unit_trace_and_mirror_spectra(
        self, tmp_path, monkeypatch
    ):
        evolved = {}
        apply_gate = chain.apply_gate

        def recording(state, gate, policy):
            evolved["state"] = state
            return apply_gate(state, gate, policy)

        monkeypatch.setattr(chain, "apply_gate", recording)
        config = config_from_dict({
            "experiment": "lossy-ee", "seed": 1000, "num_modes": [16], "num_photons": [4],
            "loss": {"kind": "constant", "mu": 0.5}, "chi_max": 256, "n_circuits": 1,
            "out_dir": str(tmp_path),
        })
        record, _ = run_to_files(config)

        expected = json.loads(REFERENCE_MAX_EE.read_text())["lossy_ee"]["1000"]
        got = [row["max_ee"] for row in record.rows]
        assert len(got) == len(expected)
        assert np.max(np.abs(np.array(got) - expected)) <= 1e-8

        state = evolved["state"]
        assert abs(mpo.trace(state) - 1.0) <= 1e-10
        # |rho>> is invariant under ket <-> bra swap plus conjugation, so at
        # exact rank the sectors (a, b) and (b, a) carry the same spectrum.
        for bond in state.bonds:
            for (a, b), values in bond.items():
                mirror = bond[(b, a)]
                assert mirror.shape == values.shape
                assert np.max(np.abs(values - mirror)) <= 1e-12


# ---------------------------------------------------------------------------
# full-rank equivalence grid (shared by the oracle and conservation tests)
# ---------------------------------------------------------------------------

GRID_SEED = 11001
GRID_MUS = (1.0, 0.7, 0.3)


@dataclass
class GridInstance:
    num_modes: int
    num_photons: int
    circuit: int
    mps_deviation: float
    mpo_deviation: dict = field(default_factory=dict)
    weight_gap: float = 0.0
    charge_defects: int = 0
    doubling_gap: float = 0.0
    chain_rule_gap: float = 0.0


@pytest.fixture(scope="module")
def equivalence_grid():
    """All (M, N) with M in {2, 4, 6}, N <= min(M, 3), 10 circuits each.

    Every instance is evolved at full rank as a pure state and as a lossy
    operator for each survival rate in GRID_MUS, compared outcome by outcome
    against the permanent-based references, and probed for the conservation
    laws along the way.
    """
    instances = []
    grid = [(m, n) for m in (2, 4, 6) for n in (1, 2, 3) if n <= m]
    for point, (m, n) in enumerate(grid):
        for c in range(10):
            plan = sample_haar_circuit(m, circuit_rng(GRID_SEED, point, c))
            u = circuit_to_unitary(plan)
            occ_in = tuple([1] * n + [0] * (m - n))

            state = mps.init_fock(occ_in)
            chain.apply_plan(state, plan, FULL_RANK)
            lossless = exact_lossless_distribution(u, occ_in)
            inst = GridInstance(
                num_modes=m, num_photons=n, circuit=c,
                mps_deviation=max(
                    abs(mps.probability(state, t) - p)
                    for t, p in lossless.entries.items()
                ),
            )
            inst.weight_gap = max(
                abs(state.total_weight(k) - 1.0) for k in range(m + 1)
            )
            inst.charge_defects = charge_violations(state)
            draws = sampling.sample_many(
                state, circuit_rng(GRID_SEED, point, c, stream=1), 3
            )
            inst.chain_rule_gap = max(
                abs(d.joint_probability - sampling.marginal_prob(state, d.outcome))
                for d in draws
            )

            for mu in GRID_MUS:
                op = mpo.init_lossy(n, m, mu)
                chain.apply_plan(op, plan, FULL_RANK)
                reference = exact_lossy_distribution(u, n, mu)
                inst.mpo_deviation[mu] = max(
                    abs(mpo.outcome_prob(op, t) - p)
                    for t, p in reference.entries.items()
                )
                inst.weight_gap = max(
                    inst.weight_gap,
                    max(abs(op.total_weight(k) - 1.0) for k in range(m + 1)),
                )
                inst.charge_defects += charge_violations(op)
                op_draws = sampling.sample_many(
                    op, circuit_rng(GRID_SEED, point, c, stream=2), 3
                )
                inst.chain_rule_gap = max(
                    inst.chain_rule_gap,
                    max(
                        abs(d.joint_probability - sampling.marginal_prob(op, d.outcome))
                        for d in op_draws
                    ),
                )
                if mu == 1.0:
                    inst.doubling_gap = max(
                        abs(
                            chain.renyi_entropy(op, k, 1.0)
                            - 2.0 * chain.renyi_entropy(state, k, 1.0)
                        )
                        for k in range(1, m)
                    )
            instances.append(inst)
    return instances


class TestOracleEquivalence:
    def test_pure_state_probabilities_match_permanents(self, equivalence_grid):
        worst = max(inst.mps_deviation for inst in equivalence_grid)
        assert worst <= 1e-8

    def test_lossy_probabilities_match_binomial_mixture(self, equivalence_grid):
        for mu in GRID_MUS:
            worst = max(inst.mpo_deviation[mu] for inst in equivalence_grid)
            assert worst <= 1e-8, f"mu={mu}: {worst:.3e}"

    def test_grid_covers_every_point(self, equivalence_grid):
        points = {(i.num_modes, i.num_photons) for i in equivalence_grid}
        assert points == {(2, 1), (2, 2), (4, 1), (4, 2), (4, 3),
                          (6, 1), (6, 2), (6, 3)}
        assert len(equivalence_grid) == 80


class TestConservationLaws:
    def test_norm_weight_is_one_at_every_bond(self, equivalence_grid):
        worst = max(inst.weight_gap for inst in equivalence_grid)
        assert worst <= 1e-10

    def test_charge_structure_has_no_defects(self, equivalence_grid):
        assert sum(inst.charge_defects for inst in equivalence_grid) == 0

    def test_operator_entropy_doubles_pure_entropy_without_loss(
        self, equivalence_grid
    ):
        worst = max(inst.doubling_gap for inst in equivalence_grid)
        assert worst <= 1e-8

    def test_sampler_chain_rule_consistency(self, equivalence_grid):
        worst = max(inst.chain_rule_gap for inst in equivalence_grid)
        assert worst <= 1e-8


# ---------------------------------------------------------------------------
# near-singular bond spectra at full rank
# ---------------------------------------------------------------------------


def near_singular_plan(seed: int) -> CircuitPlan:
    """A 6-mode Haar circuit with every other gate angle scaled by 1e-3 .. 1e-13.

    The small rotations leave Schmidt values about 1e-12 of the largest one,
    where an update that divides singular values back out would need a cutoff.
    """
    plan = sample_haar_circuit(6, circuit_rng(seed, 0, 0))
    gates = list(plan.gates)
    scales = np.logspace(-3, -13, len(gates[::2]))
    for i, scale in zip(range(0, len(gates), 2), scales):
        gates[i] = replace(gates[i], theta=gates[i].theta * scale)
    return CircuitPlan(num_modes=6, gates=gates)


class TestNearSingularSpectra:
    SEEDS = (0, 1, 2)
    OCC_IN = (1, 1, 1, 0, 0, 0)

    def test_pure_amplitudes_match_dense_evolution(self):
        for seed in self.SEEDS:
            plan = near_singular_plan(seed)
            state = mps.init_fock(self.OCC_IN)
            chain.apply_plan(state, plan, FULL_RANK)
            smallest = min(
                float(chain.schmidt_values(state, k)[-1] / chain.schmidt_values(state, k)[0])
                for k in range(1, 6)
            )
            assert smallest < 1e-11, f"seed {seed}: spectra not near-singular"
            dense = dense_evolve(self.OCC_IN, plan)
            worst = max(
                abs(mps.amplitude(state, t) - dense.amplitude(t))
                for t in enumerate_occupations(6, 3)
            )
            assert worst <= 1e-8, f"seed {seed}: {worst:.3e}"

    def test_lossy_probabilities_match_binomial_mixture(self):
        for seed in self.SEEDS:
            plan = near_singular_plan(seed)
            u = circuit_to_unitary(plan)
            for mu in GRID_MUS:
                op = mpo.init_lossy(3, 6, mu)
                chain.apply_plan(op, plan, FULL_RANK)
                reference = exact_lossy_distribution(u, 3, mu)
                worst = max(
                    abs(mpo.outcome_prob(op, t) - p)
                    for t, p in reference.entries.items()
                )
                assert worst <= 1e-8, f"seed {seed}, mu={mu}: {worst:.3e}"


# ---------------------------------------------------------------------------
# two-photon interference at the 50:50 splitter
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def splitter():
    gate = BeamSplitterGate(site=1, theta=math.pi / 4, phi=0.0)
    return CircuitPlan(num_modes=2, gates=(gate,))


class TestTwoPhotonInterference:
    def test_exact_reference(self, splitter):
        u = circuit_to_unitary(splitter)
        assert exact_prob(u, (1, 1), (1, 1)) <= 1e-12
        assert abs(exact_prob(u, (1, 1), (2, 0)) - 0.5) <= 1e-10
        assert abs(exact_prob(u, (1, 1), (0, 2)) - 0.5) <= 1e-10

    def test_pure_state_pipeline(self, splitter):
        state = mps.init_fock((1, 1))
        chain.apply_plan(state, splitter, TruncationPolicy(chi_max=16))
        assert mps.probability(state, (1, 1)) <= 1e-12
        assert abs(mps.probability(state, (2, 0)) - 0.5) <= 1e-10
        assert abs(mps.probability(state, (0, 2)) - 0.5) <= 1e-10

    def test_operator_pipeline(self, splitter):
        op = mpo.init_lossy(2, 2, 1.0)
        chain.apply_plan(op, splitter, TruncationPolicy(chi_max=64))
        assert mpo.outcome_prob(op, (1, 1)) <= 1e-12
        assert abs(mpo.outcome_prob(op, (2, 0)) - 0.5) <= 1e-10
        assert abs(mpo.outcome_prob(op, (0, 2)) - 0.5) <= 1e-10


# ---------------------------------------------------------------------------
# entanglement-growth laws
# ---------------------------------------------------------------------------


class TestEntropyLinearGrowth:
    """Spread single-photon inputs: peak entropy climbs ~1 bit per photon.

    Runs M = 16 with N = 1..5 over 50 circuits each. The bond budget 2**N is
    exact for these inputs (the discarded-weight assertion proves nothing was
    truncated), which makes the Hartley-entropy bound max S_0 <= N a genuine
    property of the states rather than an artifact of the budget.
    """

    def test_mean_peak_entropy_grows_linearly(self):
        means = {}
        for n in range(1, 6):
            peaks = []
            for c in range(50):
                plan = sample_haar_circuit(16, circuit_rng(20260818, n - 1, c))
                state, peak_s1, max_s0, _ = evolve_mps_by_layers(
                    plan, tuple([1] * n + [0] * (16 - n)),
                    TruncationPolicy(chi_max=2**n),
                )
                assert state.discarded_weight <= 1e-20
                assert max_s0 <= n + 1e-12
                peaks.append(peak_s1)
            means[n] = float(np.mean(peaks))
        gaps = [means[n + 1] - means[n] for n in range(1, 5)]
        assert all(g > 0 for g in gaps), means
        assert all(0.5 <= g <= 1.1 for g in gaps), (means, gaps)


class TestBunchedInputLogEntropy:
    """All N photons in one mode: binomial spectrum, bond dimension N + 1.

    chi = 64 is far above N + 1, so the bond-dimension bound is checked on the
    whole spectrum the pooled cut keeps (it drops only values below
    RANK_CUTOFF times the largest); the discarded-weight assertion keeps the
    run effectively exact.
    """

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_entropy_matches_binomial_spectrum(self, n):
        policy = TruncationPolicy(chi_max=64)
        for c in range(5):
            plan = sample_haar_circuit(16, circuit_rng(4040, n, c))
            state, _, _, max_bond = evolve_mps_by_layers(
                plan, tuple([n] + [0] * 15), policy
            )
            assert max_bond <= n + 1
            assert state.discarded_weight <= 1e-15
            simulated = chain.renyi_entropy(state, 8, 1.0)
            p_left = float(np.sum(np.abs(circuit_to_unitary(plan)[0, :8]) ** 2))
            analytic = distribution_renyi(binomial_spectrum(n, p_left), 1.0)
            assert abs(simulated - analytic) <= 0.05


class TestModeConvergence:
    def test_entropy_saturates_toward_photon_number(self):
        means = {}
        for m in (6, 12, 24):
            peaks = []
            for c in range(20):
                plan = sample_haar_circuit(m, circuit_rng(505, m, c))
                _, peak_s1, _, _ = evolve_mps_by_layers(
                    plan, tuple([1] * 3 + [0] * (m - 3)),
                    TruncationPolicy(chi_max=8),
                )
                peaks.append(peak_s1)
            means[m] = float(np.mean(peaks))
        assert means[6] <= means[12] <= means[24]
        assert abs(3.0 - means[24]) <= 0.4


# ---------------------------------------------------------------------------
# loss-scaling trends: simulation and closed form
# ---------------------------------------------------------------------------


class TestLossScalingTrends:
    def test_simulated_operator_entropy_grows_at_constant_loss(self):
        # The lossy-ee recipe itself, so the values do not depend on the
        # host's BLAS thread count: ``run`` pins OpenBLAS to one thread.
        record = run(config_from_dict({
            "experiment": "lossy-ee", "seed": 606, "num_modes": [16],
            "num_photons": [1, 2, 3, 4], "loss": {"kind": "constant", "mu": 0.5},
            "chi_max": 256, "n_circuits": 5}))
        assert record.status == "ok", record.message
        means = {row["N"]: row["mean_peak_ee"] for row in record.summary}
        assert list(means) == [1, 2, 3, 4]
        assert means[1] < means[2] < means[3] < means[4], means

    def test_closed_form_scaling_exponents(self):
        """Ensemble of 100 half-cut angle sets from M = 128 unitaries.

        For survival mu = beta * N**(gamma - 1), the entropy trend must fall
        with N when gamma < 1/2 and rise when gamma > 1/2, with a fitted
        log-log slope within 0.25 of the closed-form exponent 2*gamma - 1.
        """
        ns = (4, 8, 16, 32)
        angle_sets = []
        for c in range(100):
            plan = sample_haar_circuit(128, circuit_rng(707, 0, c))
            angle_sets.append(partition_angles(circuit_to_unitary(plan), 64))

        for gamma, beta, falling in ((0.25, 0.6, True), (1.0, 0.3, False)):
            means = []
            for n in ns:
                mu = beta * n ** (gamma - 1.0)
                means.append(float(np.mean(
                    [lossy_mpo_ee(a, mu, 1.0, n) for a in angle_sets]
                )))
            if falling:
                assert means[0] > means[1] > means[2] > means[3], (gamma, means)
            else:
                assert means[0] < means[1] < means[2] < means[3], (gamma, means)
            slope = float(np.polyfit(np.log(ns), np.log(means), 1)[0])
            predicted = asymptotic_scaling(gamma, 1.0).exponent
            assert abs(slope - predicted) <= 0.25, (gamma, slope, predicted)


# ---------------------------------------------------------------------------
# truncation-error control
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweeps():
    """Per-circuit norm deficits across the bond-budget sweep, plus the
    full-rank central spectrum (M = 8, N = 3, mu = 0.5)."""
    out = []
    for c in range(3):
        plan = sample_haar_circuit(8, circuit_rng(70707, 0, c))
        deficits = {}
        spectrum = None
        for chi in (2, 4, 8, 16, 32, 512):
            op = mpo.init_lossy(3, 8, 0.5)
            chain.apply_plan(op, plan, TruncationPolicy(chi_max=chi))
            deficits[chi] = 1.0 - mpo.trace(op)
            if chi == 512:
                spectrum = np.sort(np.asarray(chain.schmidt_values(op, 4)))[::-1]
        out.append((deficits, spectrum))
    return out


class TestTruncationControl:
    def test_norm_deficit_non_increasing_in_bond_budget(self, sweeps):
        for deficits, _ in sweeps:
            chis = sorted(deficits)
            for lo, hi in zip(chis, chis[1:]):
                assert deficits[hi] <= deficits[lo] + 1e-12
            assert abs(deficits[512]) <= 1e-10

    def test_singular_values_decay_superpolynomially(self, sweeps):
        """Each decade of index must drop the values by a growing factor;
        a power-law tail would keep the factor constant."""
        for _, spectrum in sweeps:
            assert spectrum.size >= 10
            k = math.isqrt(spectrum.size - 1)
            early_drop = spectrum[0] / spectrum[k]
            late_drop = spectrum[k] / spectrum[k * k]
            assert early_drop < late_drop, (early_drop, late_drop)


# ---------------------------------------------------------------------------
# sampling statistics
# ---------------------------------------------------------------------------


class TestSamplingStatistics:
    def test_empirical_distribution_matches_reference(self):
        num_samples = 100_000
        plan = sample_haar_circuit(4, circuit_rng(909, 0, 0))
        op = mpo.init_lossy(2, 4, 0.7)
        chain.apply_plan(op, plan, FULL_RANK)
        counts = sampling.sample_counts(
            op, circuit_rng(909, 0, 0, stream=1), num_samples
        )
        reference = exact_lossy_distribution(circuit_to_unitary(plan), 2, 0.7)
        seen = 0
        distance = 0.0
        for occ, p in reference.entries.items():
            c = counts.get(occ, 0)
            distance += abs(c / num_samples - p)
            seen += c
        # Any sampled outcome outside the reference support counts in full.
        distance = 0.5 * (distance + (num_samples - seen) / num_samples)
        assert distance <= 0.02, distance


# ---------------------------------------------------------------------------
# classical cost model
# ---------------------------------------------------------------------------


class TestCostModel:
    def test_constant_loss_cost_closed_form(self):
        expected = 1.5**10
        assert abs(naive_cost(10, 0.5, 2.0) - expected) / expected <= 1e-9

    def test_log_cost_approaches_asymptote_from_below(self):
        """At mu = N**(-1/2) the total log-cost tends to (c - 1) * sqrt(N).

        The comparison is between log-costs: the costs themselves differ by
        an N-independent factor exp(-(c-1)**2 / 2) in this limit, so only
        the exponential scales converge.
        """
        gamma, beta, c = 0.5, 1.0, 1.69

        def log_ratio(n: int) -> float:
            mu = beta * n ** (gamma - 1.0)
            n_out = beta * n**gamma
            return log_naive_cost(n, mu, c) / ((c - 1.0) * n_out)

        at_1e4 = log_ratio(10_000)
        assert abs(at_1e4 - 1.0) <= 0.05
        assert at_1e4 < 1.0
        assert abs(log_ratio(1_000_000) - 1.0) < abs(at_1e4 - 1.0)
