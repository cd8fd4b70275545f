"""Tests for the experiment driver: configs, hashing, recipes, reproducibility."""

import json
from pathlib import Path

import numpy as np
import pytest

from bosonet import chain, experiments, mps
from bosonet.circuit import circuit_to_unitary, sample_haar_circuit
from bosonet.entropy import lossy_mpo_ee, partition_angles
from bosonet.experiments import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    LossSpec,
    circuit_rng,
    config_from_dict,
    config_hash,
    run,
    run_to_files,
    validate_config,
)


def make_doc(**overrides):
    doc = {
        "experiment": "lossless-ee",
        "seed": 7,
        "num_modes": [4],
        "num_photons": [2],
        "chi_max": 16,
        "n_circuits": 2,
    }
    doc.update(overrides)
    return doc


def assert_summary_regroups_rows(record, keys, value, mean_col, count_col, expected_keys):
    """Summary rows, in ``expected_keys`` order, are the mean, stderr and count of
    ``value`` over the rows that share their ``keys`` columns."""
    assert [tuple(s[k] for k in keys) for s in record.summary] == expected_keys
    for srow, key in zip(record.summary, expected_keys):
        vals = [r[value] for r in record.rows if tuple(r[k] for k in keys) == key]
        assert srow[count_col] == len(vals) == 2  # both sweeps run 2 circuits per point
        assert srow[mean_col] == pytest.approx(np.mean(vals), rel=1e-12, abs=0)
        assert srow["stderr"] == pytest.approx(
            np.std(vals, ddof=1) / np.sqrt(len(vals)), rel=1e-12, abs=0)


#: One small config per experiment name, for the checks every recipe must pass.
RECIPE_DOCS = {
    "lossless-ee": make_doc(),
    "fock-ee": make_doc(experiment="fock-ee"),
    "lossy-ee": make_doc(experiment="lossy-ee", loss={"kind": "constant", "mu": 0.6}),
    "analytic-ee": make_doc(experiment="analytic-ee", gammas=[0.5], betas=[0.7],
                            alphas=[1.0, 2.0]),
    "trunc-error": make_doc(experiment="trunc-error", loss={"kind": "constant", "mu": 0.7},
                            chis=[2, 4, 8]),
    "sample": make_doc(experiment="sample", num_samples=20),
    "prob": make_doc(experiment="prob", outcomes=[[1, 1, 0, 0], [0, 0, 1, 1]]),
    "oracle-check": make_doc(experiment="oracle-check", num_modes=[2, 4],
                             num_photons=[1, 2], n_circuits=1),
}


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------


class TestConfigParsing:
    def test_minimal_doc_parses(self):
        config = config_from_dict(make_doc())
        assert config.experiment == "lossless-ee"
        assert config.num_modes == [4]
        assert config.alphas == [1.0]

    def test_scalar_ranges_are_promoted_to_lists(self):
        config = config_from_dict(make_doc(num_modes=4, num_photons=2))
        assert config.num_modes == [4]
        assert config.num_photons == [2]

    @pytest.mark.parametrize("name", ["bond_budget", "workers"])
    def test_unknown_field_names_the_field(self, name):
        with pytest.raises(ConfigError, match=f"'{name}'"):
            config_from_dict(make_doc(**{name: 3}))

    @pytest.mark.parametrize("sweep, overrides", [
        pytest.param(sweep, overrides, id=sweep) for sweep, overrides in (
            ("num_modes", {"experiment": "analytic-ee", "num_modes": [4, 4],
                           "gammas": [0.5], "betas": [0.7]}),
            ("num_photons", {"num_photons": [1, 1]}),
            ("alphas", {"alphas": [1.0, 2.0, 1.0]}),
            ("chis", {"experiment": "trunc-error",
                      "loss": {"kind": "constant", "mu": 0.7}, "chis": [2, 2]}),
            ("gammas", {"experiment": "lossy-ee", "gammas": [0.5, 0.5], "betas": [0.6]}),
            ("betas", {"experiment": "lossy-ee", "gammas": [0.5], "betas": [0.6, 0.6]}),
            ("outcomes", {"experiment": "prob", "outcomes": [[1, 1, 0, 0], [1, 1, 0, 0]]}),
        )
    ])
    def test_repeated_sweep_value_names_the_field(self, sweep, overrides):
        with pytest.raises(ConfigError, match=f"'{sweep}'.*repeats"):
            config_from_dict(make_doc(**overrides))

    def test_missing_experiment(self):
        doc = make_doc()
        del doc["experiment"]
        with pytest.raises(ConfigError, match="'experiment'"):
            config_from_dict(doc)

    def test_missing_seed(self):
        doc = make_doc()
        del doc["seed"]
        with pytest.raises(ConfigError, match="'seed'"):
            config_from_dict(doc)

    def test_unknown_experiment_name(self):
        with pytest.raises(ConfigError, match="'experiment'"):
            config_from_dict(make_doc(experiment="frobnicate"))

    def test_loss_dict_round_trip(self):
        config = config_from_dict(
            make_doc(experiment="lossy-ee", loss={"kind": "constant", "mu": 0.5})
        )
        assert config.loss == LossSpec.constant(0.5)
        config = config_from_dict(
            make_doc(experiment="lossy-ee",
                     loss={"kind": "power_law", "beta": 0.6, "gamma": 0.25})
        )
        assert config.loss.beta == 0.6 and config.loss.gamma == 0.25

    def test_loss_spec_constant(self):
        assert LossSpec.constant(0.3).mu == 0.3
        with pytest.raises(ValueError):
            LossSpec.constant(1.2)
        with pytest.raises(ValueError):
            LossSpec.constant(-0.1)

    def test_loss_spec_power_law(self):
        spec = LossSpec.power_law(beta=0.6, gamma=0.25)
        assert (spec.kind, spec.beta, spec.gamma) == ("power_law", 0.6, 0.25)
        with pytest.raises(ValueError):
            LossSpec.power_law(beta=0.0, gamma=0.5)
        with pytest.raises(ValueError):
            LossSpec.power_law(beta=0.5, gamma=1.5)
        with pytest.raises(ValueError):
            LossSpec(kind="linear", mu=0.5)
        # A power law whose mu = beta * N**(gamma - 1) leaves [0, 1] is a config error.
        with pytest.raises(ConfigError, match="'betas'"):
            config_from_dict(make_doc(experiment="lossy-ee", num_photons=[4],
                                      loss={"kind": "power_law", "beta": 2.0, "gamma": 1.0}))

    def test_bad_loss_dict(self):
        with pytest.raises(ConfigError, match="'loss'"):
            config_from_dict(make_doc(loss={"mu": 0.5}))
        with pytest.raises(ConfigError, match="'loss'"):
            config_from_dict(make_doc(loss={"kind": "linear", "mu": 0.5}))

    def test_odd_mode_count_rejected(self):
        with pytest.raises(ConfigError, match="'num_modes'"):
            config_from_dict(make_doc(num_modes=[5]))

    def test_photons_above_all_mode_counts_rejected(self):
        with pytest.raises(ConfigError, match="'num_photons'"):
            config_from_dict(make_doc(num_modes=[4], num_photons=[5]))

    def test_rectangular_grid_allowed_when_some_modes_fit(self):
        config = config_from_dict(make_doc(num_modes=[2, 4], num_photons=[1, 3]))
        validate_config(config)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError, match="'alphas'"):
            config_from_dict(make_doc(alphas=[-1.0]))

    def test_gammas_without_betas_rejected(self):
        with pytest.raises(ConfigError, match="'gammas'"):
            config_from_dict(make_doc(experiment="analytic-ee", gammas=[0.5]))

    def test_loss_and_gamma_sweep_are_exclusive(self):
        with pytest.raises(ConfigError, match="'loss'"):
            config_from_dict(
                make_doc(experiment="lossy-ee",
                         loss={"kind": "constant", "mu": 0.5},
                         gammas=[0.5], betas=[0.5])
            )

    def test_lossy_experiments_require_loss(self):
        for experiment in ("lossy-ee", "analytic-ee", "trunc-error"):
            with pytest.raises(ConfigError, match="'loss'"):
                config_from_dict(make_doc(experiment=experiment))

    def test_survival_probability_must_stay_in_range(self):
        # beta * N**(gamma-1) > 1 at N=1 when beta > 1
        with pytest.raises(ConfigError, match="'betas'"):
            config_from_dict(
                make_doc(experiment="analytic-ee", num_photons=[1],
                         gammas=[0.5], betas=[1.5])
            )

    @pytest.mark.parametrize("experiment, extra", [
        ("sample", {"num_samples": 5}),
        ("prob", {"outcomes": [[1, 1, 0, 0]]}),
        ("oracle-check", {}),
    ])
    def test_single_loss_point_experiments_reject_loss_sweeps(self, experiment, extra):
        with pytest.raises(ConfigError, match="'gammas'.*single loss point"):
            config_from_dict(make_doc(experiment=experiment, gammas=[0.5, 1.0],
                                      betas=[0.3], **extra))
        config_from_dict(make_doc(experiment=experiment, gammas=[0.5], betas=[0.3], **extra))

    @pytest.mark.parametrize("experiment", ["lossless-ee", "fock-ee"])
    @pytest.mark.parametrize("name, loss", [
        ("loss", {"loss": {"kind": "constant", "mu": 0.5}}),
        ("gammas", {"gammas": [0.5], "betas": [0.3]}),
        ("betas", {"betas": [0.3]}),
    ])
    def test_lossless_experiments_reject_loss_settings(self, experiment, name, loss):
        with pytest.raises(ConfigError, match=f"'{name}'.*lossless"):
            config_from_dict(make_doc(experiment=experiment, **loss))

    def test_sample_needs_num_samples(self):
        with pytest.raises(ConfigError, match="'num_samples'"):
            config_from_dict(make_doc(experiment="sample"))

    def test_sample_needs_single_point(self):
        with pytest.raises(ConfigError, match="'num_modes'"):
            config_from_dict(
                make_doc(experiment="sample", num_samples=5, num_modes=[2, 4])
            )

    def test_prob_needs_outcomes_of_right_width(self):
        with pytest.raises(ConfigError, match="'outcomes'"):
            config_from_dict(make_doc(experiment="prob"))
        with pytest.raises(ConfigError, match="'outcomes'"):
            config_from_dict(make_doc(experiment="prob", outcomes=[[1, 1, 0]]))
        with pytest.raises(ConfigError, match="'outcomes'"):
            config_from_dict(make_doc(experiment="prob", outcomes=[[1, -1, 0, 2]]))

    def test_oracle_check_grid_is_bounded(self):
        with pytest.raises(ConfigError, match="'num_modes'"):
            config_from_dict(make_doc(experiment="oracle-check", num_modes=[8]))

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ConfigError, match="'tolerance'"):
            config_from_dict(make_doc(tolerance=0.0))

    def test_checked_in_configs_parse(self):
        paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
        assert paths, "configs/ holds no *.json"
        for path in paths:
            doc = json.loads(path.read_text())
            config = config_from_dict(doc)
            assert config.experiment == doc["experiment"], path.name


# ---------------------------------------------------------------------------
# config hashing
# ---------------------------------------------------------------------------


class TestConfigHash:
    def test_stable_across_document_key_order(self):
        doc = make_doc()
        reversed_doc = dict(reversed(list(doc.items())))
        assert config_hash(config_from_dict(doc)) == config_hash(
            config_from_dict(reversed_doc)
        )

    def test_ignores_plumbing_fields(self, tmp_path):
        base = config_from_dict(make_doc())
        moved = config_from_dict(
            make_doc(out_dir=str(tmp_path), checkpoint_every=2, max_seconds=60.0)
        )
        assert config_hash(base) == config_hash(moved)

    def test_changes_with_seed_and_ranges(self):
        base = config_hash(config_from_dict(make_doc()))
        assert base != config_hash(config_from_dict(make_doc(seed=8)))
        assert base != config_hash(config_from_dict(make_doc(num_photons=[1])))
        assert base != config_hash(config_from_dict(make_doc(chi_max=32)))

    @pytest.mark.parametrize("source, digest", [
        ("lossless_bunched.json", "8e93eda5bfb88e0c"),
        ("lossless_spread.json", "6d3aeefb2b0dd408"),
        ("lossy_peaks_analytic.json", "ce06117d10310113"),
        ("lossy_peaks_simulated.json", "942923f4f5bc8693"),
        ({"experiment": "prob", "seed": 3, "num_modes": [4], "num_photons": [2],
          "outcomes": [[1, 1, 0, 0], [2, 0, 0, 0]], "loss": {"kind": "constant", "mu": 0.7}},
         "9044dd2740c6181d"),
    ], ids=["lossless_bunched", "lossless_spread", "lossy_peaks_analytic",
            "lossy_peaks_simulated", "prob_with_outcomes"])
    def test_pinned_digests(self, source, digest):
        # Checkpoints are keyed by these digests; a change to how the config
        # is serialized must not orphan them.
        if isinstance(source, str):
            path = Path(__file__).resolve().parents[1] / "configs" / source
            source = json.loads(path.read_text())
        assert config_hash(config_from_dict(source)) == digest

    def test_is_short_hex(self):
        digest = config_hash(config_from_dict(make_doc()))
        assert len(digest) == 16
        int(digest, 16)


# ---------------------------------------------------------------------------
# recipe: lossless-ee (and the manual row recompute)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lossless_record():
    return run(config_from_dict(make_doc(alphas=[1.0, 2.0])))


class TestLosslessRecipe:
    @pytest.fixture
    def record(self, lossless_record):
        return lossless_record

    def test_row_count_and_columns(self, record):
        config = config_from_dict(make_doc(alphas=[1.0, 2.0]))
        plan = sample_haar_circuit(4, circuit_rng(config.seed, 0, 0))
        depth = len(plan.layers())
        assert record.columns == [
            "config_hash", "M", "N", "chi", "circuit", "layer", "alpha",
            "max_ee", "peak_bond", "max_bond_dim", "discarded_weight",
        ]
        assert len(record.rows) == depth * 2 * 2  # layers x circuits x alphas
        assert record.status == "ok"

    def test_row_values_match_direct_evolution(self, record):
        """Replay circuit 1 by hand from the documented seeding rule."""
        config = config_from_dict(make_doc(alphas=[1.0, 2.0]))
        plan = sample_haar_circuit(4, circuit_rng(config.seed, 0, 1))
        state = mps.init_fock((1, 1, 0, 0))
        policy = config.policy()
        for layer_index, layer in enumerate(plan.layers()):
            for gate in layer:
                chain.apply_gate(state, gate, policy)
            for alpha in (1.0, 2.0):
                bond, value = chain.max_bond_entropy(state, alpha)
                matches = [r for r in record.rows
                           if r["circuit"] == 1 and r["layer"] == layer_index + 1
                           and r["alpha"] == alpha]
                assert len(matches) == 1
                assert matches[0]["max_ee"] == value
                assert matches[0]["peak_bond"] == bond
                assert matches[0]["max_bond_dim"] == state.max_bond_dimension()

    def test_summary_is_mean_of_per_circuit_peaks(self, record):
        for alpha in (1.0, 2.0):
            peaks = []
            for c in range(2):
                vals = [r["max_ee"] for r in record.rows
                        if r["circuit"] == c and r["alpha"] == alpha]
                peaks.append(max(vals))
            srow = [s for s in record.summary if s["alpha"] == alpha]
            assert len(srow) == 1
            assert srow[0]["mean_peak_ee"] == pytest.approx(float(np.mean(peaks)))
            assert srow[0]["n_circuits"] == 2


class TestFockRecipe:
    def test_bunched_input_bond_dimension_stays_small(self):
        record = run(config_from_dict(make_doc(experiment="fock-ee",
                                               num_modes=[6], num_photons=[3],
                                               n_circuits=1, chi_max=64)))
        assert record.status == "ok"
        # A single-mode Fock input keeps every bond at most N + 1.
        assert max(r["max_bond_dim"] for r in record.rows) <= 4


class TestLossyRecipe:
    def test_trace_is_preserved_and_mu_column_matches(self):
        record = run(config_from_dict(
            make_doc(experiment="lossy-ee", loss={"kind": "constant", "mu": 0.6},
                     chi_max=64, n_circuits=1)
        ))
        assert record.status == "ok"
        for row in record.rows:
            assert row["mu"] == 0.6
            assert row["gamma"] == 1.0 and row["beta"] == 0.6
            assert row["trace"] == pytest.approx(1.0, abs=1e-8)

    def test_power_law_mu_scales_with_photon_number(self):
        record = run(config_from_dict(
            make_doc(experiment="lossy-ee", num_photons=[1, 2],
                     loss={"kind": "power_law", "beta": 0.8, "gamma": 0.5},
                     chi_max=32, n_circuits=1)
        ))
        mus = {row["N"]: row["mu"] for row in record.rows}
        assert mus[1] == pytest.approx(0.8)
        assert mus[2] == pytest.approx(0.8 * 2 ** (-0.5))


# ---------------------------------------------------------------------------
# recipe: analytic-ee
# ---------------------------------------------------------------------------


class TestAnalyticRecipe:
    def test_summary_schema_and_values(self):
        config = config_from_dict(
            make_doc(experiment="analytic-ee", num_modes=[4], num_photons=[2],
                     gammas=[0.5], betas=[0.7], alphas=[1.0, 2.0], n_circuits=3)
        )
        record = run(config)
        assert record.summary_columns == [
            "N", "M", "gamma", "beta", "alpha",
            "mean_ee", "stderr", "n_samples", "config_hash",
        ]
        # Recompute circuit 2's entropy from the documented stream rule.
        mu = 0.7 * 2 ** (0.5 - 1.0)
        plan = sample_haar_circuit(4, circuit_rng(config.seed, 0, 2))
        angles = partition_angles(circuit_to_unitary(plan), 2)
        expected = lossy_mpo_ee(angles, mu, 1.0, 2)
        row = [r for r in record.rows if r["circuit"] == 2 and r["alpha"] == 1.0]
        assert len(row) == 1
        assert row[0]["ee"] == expected
        for srow in record.summary:
            vals = [r["ee"] for r in record.rows if r["alpha"] == srow["alpha"]]
            assert srow["mean_ee"] == pytest.approx(float(np.mean(vals)))
            assert srow["n_samples"] == 3


# ---------------------------------------------------------------------------
# recipe: trunc-error
# ---------------------------------------------------------------------------


class TestTruncRecipe:
    def test_norm_deficit_shrinks_with_bond_budget(self):
        record = run(config_from_dict(
            make_doc(experiment="trunc-error", num_modes=[6], num_photons=[3],
                     loss={"kind": "constant", "mu": 0.7},
                     chis=[2, 8, 64], n_circuits=2)
        ))
        assert record.status == "ok"
        for c in range(2):
            deficits = {r["chi"]: r["one_minus_trace"] for r in record.rows
                        if r["circuit"] == c}
            assert deficits[64] <= deficits[8] + 1e-12
            assert deficits[8] <= deficits[2] + 1e-12
            assert deficits[64] == pytest.approx(0.0, abs=1e-10)

    def test_summary_regroups_rows_of_a_multi_point_sweep(self):
        record = run(config_from_dict(
            make_doc(experiment="trunc-error", num_modes=[6], num_photons=[2, 3],
                     loss={"kind": "power_law", "beta": 0.8, "gamma": 0.5},
                     chis=[2, 8], n_circuits=2)
        ))
        keys = ["config_hash", "M", "N", "gamma", "beta", "mu", "chi"]
        expected = [(record.config_hash, 6, n, 0.5, 0.8, 0.8 * n ** (0.5 - 1.0), chi)
                    for n in (2, 3) for chi in (2, 8)]
        assert_summary_regroups_rows(record, keys, "one_minus_trace",
                                     "mean_one_minus_trace", "n_circuits", expected)

    def test_timings_are_separate_from_results(self, tmp_path):
        config = config_from_dict(
            make_doc(experiment="trunc-error", num_modes=[4], num_photons=[2],
                     loss={"kind": "constant", "mu": 0.7}, chis=[2, 16],
                     n_circuits=1, out_dir=str(tmp_path))
        )
        record, out_dir = run_to_files(config)
        assert "wall_seconds" not in record.columns
        assert (out_dir / "timings.csv").exists()
        header = (out_dir / "timings.csv").read_text().splitlines()[0]
        assert "wall_seconds" in header


# ---------------------------------------------------------------------------
# recipes: sample and prob
# ---------------------------------------------------------------------------


class TestSampleRecipe:
    def test_lossless_samples_are_deterministic_files(self, tmp_path):
        doc = make_doc(experiment="sample", num_samples=20, n_circuits=1)
        paths = []
        for name in ("a", "b"):
            config = config_from_dict({**doc, "out_dir": str(tmp_path / name)})
            record, out_dir = run_to_files(config)
            assert record.status == "ok"
            paths.append(out_dir / "samples_c0.csv")
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_sample_row_diagnostics(self):
        record = run(config_from_dict(
            make_doc(experiment="sample", num_samples=10, n_circuits=2)
        ))
        assert len(record.rows) == 2
        for row in record.rows:
            assert row["num_samples"] == 10
            assert row["state_norm"] == pytest.approx(1.0, abs=1e-10)
            assert 0.0 < row["min_joint"] <= row["max_joint"] <= 1.0
            assert len(row["circuit_fingerprint"]) == 16

    def test_lossy_sampling_works(self):
        record = run(config_from_dict(
            make_doc(experiment="sample", num_samples=5, n_circuits=1,
                     loss={"kind": "constant", "mu": 0.5}, chi_max=64)
        ))
        assert record.status == "ok"
        assert record.rows[0]["mu"] == 0.5


class TestProbRecipe:
    def test_matches_direct_probability(self):
        config = config_from_dict(
            make_doc(experiment="prob", outcomes=[[1, 1, 0, 0], [0, 0, 1, 1]],
                     n_circuits=2)
        )
        record = run(config)
        plan = sample_haar_circuit(4, circuit_rng(config.seed, 0, 1))
        state = mps.init_fock((1, 1, 0, 0))
        chain.apply_plan(state, plan, config.policy())
        expected = mps.probability(state, (0, 0, 1, 1))
        row = [r for r in record.rows
               if r["circuit"] == 1 and r["outcome"] == "0 0 1 1"]
        assert len(row) == 1
        assert row[0]["probability"] == expected

    def test_lossy_prob_uses_mpo(self):
        config = config_from_dict(
            make_doc(experiment="prob", outcomes=[[0, 0, 0, 0]], n_circuits=1,
                     loss={"kind": "constant", "mu": 0.4}, chi_max=64)
        )
        record = run(config)
        # With mu = 0.4 and N = 2 the vacuum carries (1 - mu)^2 of the weight.
        assert record.rows[0]["probability"] == pytest.approx(0.36, abs=1e-8)


    def test_summary_regroups_rows_of_a_multi_point_sweep(self):
        record = run(config_from_dict(
            make_doc(experiment="prob", num_photons=[1, 2],
                     outcomes=[[1, 0, 0, 0], [0, 0, 1, 0]], n_circuits=2,
                     loss={"kind": "constant", "mu": 0.6}, chi_max=64)
        ))
        keys = ["config_hash", "M", "N", "outcome"]
        expected = [(record.config_hash, 4, n, key)
                    for n in (1, 2) for key in ("1 0 0 0", "0 0 1 0")]
        assert_summary_regroups_rows(record, keys, "probability",
                                     "mean_probability", "n_circuits", expected)


# ---------------------------------------------------------------------------
# recipe: oracle-check
# ---------------------------------------------------------------------------


class TestOracleRecipe:
    def test_all_checks_pass_at_tight_tolerance(self):
        record = run(config_from_dict(
            make_doc(experiment="oracle-check", num_modes=[2, 4],
                     num_photons=[1, 2], n_circuits=1, tolerance=1e-8)
        ))
        assert record.status == "ok"
        assert "max deviation" in record.message
        assert all(r["status"] == "pass" for r in record.rows)
        names = {r["check"] for r in record.rows}
        assert names == {"amplitude", "completeness", "pure-spectrum",
                         "pure-chain-rule", "lossy-prob", "lossy-trace",
                         "lossy-chain-rule"}

    def test_impossible_tolerance_reports_failure(self):
        record = run(config_from_dict(
            make_doc(experiment="oracle-check", num_modes=[2], num_photons=[1],
                     n_circuits=1, tolerance=1e-30)
        ))
        assert record.status == "failed"
        assert "exceeds" in record.message


# ---------------------------------------------------------------------------
# reproducibility of the written files
# ---------------------------------------------------------------------------


class TestReproducibility:
    @pytest.mark.parametrize("doc", [
        *(pytest.param(RECIPE_DOCS[name], id=name) for name in EXPERIMENTS),
        pytest.param(make_doc(num_modes=[2, 4], num_photons=[1, 2], n_circuits=2),
                     id="lossless-ee-grid"),
    ])
    def test_rerun_is_byte_identical(self, tmp_path, doc):
        blobs = []
        for name in ("first", "second"):
            config = config_from_dict({**doc, "out_dir": str(tmp_path / name)})
            record, out_dir = run_to_files(config)
            assert record.status == "ok"
            # timings.csv holds wall-clock seconds, the one table that may differ.
            blobs.append({path.name: path.read_bytes() for path in out_dir.glob("*.csv")
                          if path.name != "timings.csv"})
        expected = {"results.csv", "summary.csv"}
        if doc["experiment"] == "sample":
            expected |= {f"samples_c{c}.csv" for c in range(doc["n_circuits"])}
        assert set(blobs[0]) == expected
        assert blobs[0] == blobs[1]

    def test_meta_json_contents(self, tmp_path):
        config = config_from_dict(make_doc(out_dir=str(tmp_path)))
        record, out_dir = run_to_files(config)
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["config_hash"] == record.config_hash == config_hash(config)
        assert meta["experiment"] == "lossless-ee"
        assert meta["status"] == "ok"
        assert meta["seed"] == 7
        assert meta["num_rows"] == len(record.rows)
        assert meta["config"]["chi_max"] == 16
        assert meta["wall_time_seconds"] >= 0.0

    def test_float_cells_survive_round_trip_exactly(self, tmp_path):
        config = config_from_dict(make_doc(out_dir=str(tmp_path), n_circuits=1))
        record, out_dir = run_to_files(config)
        lines = (out_dir / "results.csv").read_text().splitlines()
        header = lines[0].split(",")
        ee_col = header.index("max_ee")
        for row, line in zip(record.rows, lines[1:]):
            assert float(line.split(",")[ee_col]) == row["max_ee"]


# ---------------------------------------------------------------------------
# budgets, aborts, and checkpoint resume
# ---------------------------------------------------------------------------


class TestAbortAndResume:
    def test_zero_budget_aborts_with_checkpoint(self, tmp_path):
        config = config_from_dict(
            make_doc(out_dir=str(tmp_path), max_seconds=0.0, checkpoint_every=1)
        )
        record, out_dir = run_to_files(config)
        assert record.status == "aborted"
        assert list((out_dir / "checkpoints").glob("*.npz"))
        # Partial results still land in a well-formed CSV (header at minimum).
        assert (out_dir / "results.csv").exists()

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        doc = make_doc(experiment="lossy-ee", loss={"kind": "constant", "mu": 0.6},
                       checkpoint_every=1)
        clean = config_from_dict({**doc, "out_dir": str(tmp_path / "clean")})
        record, clean_dir = run_to_files(clean)
        assert record.status == "ok"

        aborted = config_from_dict(
            {**doc, "out_dir": str(tmp_path / "resumed"), "max_seconds": 0.0}
        )
        rec_abort, resumed_dir = run_to_files(aborted)
        assert rec_abort.status == "aborted"

        resumed = config_from_dict({**doc, "out_dir": str(tmp_path / "resumed")})
        rec_resume, _ = run_to_files(resumed)
        assert rec_resume.status == "ok"
        assert (resumed_dir / "results.csv").read_bytes() == (
            clean_dir / "results.csv"
        ).read_bytes()
        assert not list((resumed_dir / "checkpoints").glob("*.npz"))

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_abort_keeps_columns(self, experiment):
        record = run(config_from_dict({**RECIPE_DOCS[experiment], "max_seconds": 0.0}))
        assert record.status == "aborted"
        assert "config_hash" in record.columns

    def test_abort_keeps_rows_of_completed_units(self, monkeypatch):
        checks = []

        def check_then_exhaust(budget):
            checks.append(None)
            if len(checks) > 1:
                raise experiments.ResourceAbort("wall-clock budget exhausted")

        # analytic-ee checks the budget once per (point, circuit) unit, so the
        # second check aborts after exactly one unit of len(alphas) rows.
        monkeypatch.setattr(experiments._Budget, "check", check_then_exhaust)
        record = run(config_from_dict(RECIPE_DOCS["analytic-ee"]))
        assert record.status == "aborted"
        assert [(r["circuit"], r["alpha"]) for r in record.rows] == [(0, 1.0), (0, 2.0)]


# ---------------------------------------------------------------------------
# stream derivation
# ---------------------------------------------------------------------------


class TestCircuitRng:
    def test_streams_are_counter_based_and_disjoint(self):
        a = circuit_rng(3, 0, 0).standard_normal(4)
        b = circuit_rng(3, 0, 0).standard_normal(4)
        assert np.array_equal(a, b)
        c = circuit_rng(3, 0, 1).standard_normal(4)
        d = circuit_rng(3, 1, 0).standard_normal(4)
        e = circuit_rng(3, 0, 0, stream=1).standard_normal(4)
        for other in (c, d, e):
            assert not np.array_equal(a, other)

    def test_policy_helper_passes_weight_threshold(self):
        config = ExperimentConfig(
            experiment="lossless-ee", seed=1, num_modes=[4], num_photons=[1],
            weight_threshold=1e-8,
        )
        policy = config.policy()
        assert policy.chi_max == 256
        assert policy.weight_threshold == 1e-8
        assert config.policy(chi=32).chi_max == 32
