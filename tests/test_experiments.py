"""Tests for the experiment driver: configs, hashing, recipes, reproducibility."""

import csv
import importlib.util
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bosonet import chain, experiments, linalg, mpo, mps, sampling
from bosonet.circuit import circuit_to_unitary, plan_fingerprint, sample_haar_circuit
from bosonet.entropy import lossy_mpo_ee, partition_angles
from bosonet.experiments import (
    EXPERIMENTS,
    ConfigError,
    LossSpec,
    circuit_rng,
    config_from_dict,
    config_hash,
    run,
    run_to_files,
    validate_config,
)
from bosonet.linalg import DegradedStateError, NumericalFailure, TruncationPolicy
from bosonet.snapshots import load_header

from helpers import assert_no_child_process

ROOT = Path(__file__).resolve().parents[1]


def load_by_path(path):
    """The module in the file at ``path``, which is on no import path.  It is
    registered under ``tooling_<stem>``, as its dataclasses look their module up."""
    spec = importlib.util.spec_from_file_location(f"tooling_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def make_doc(**overrides):
    """A small config; ``chi_max`` is 16 unless its experiment does not read it."""
    doc = {
        "experiment": "lossless-ee",
        "seed": 7,
        "num_modes": [4],
        "num_photons": [2],
        "n_circuits": 2,
    }
    doc.update(overrides)
    if doc["experiment"] not in ("analytic-ee", "oracle-check", "trunc-error"):
        doc.setdefault("chi_max", 16)
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

    @pytest.mark.parametrize("name", ["bond_budget", "workers", "weight_threshold"])
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

    def test_readme_field_table_names_exactly_the_checked_fields(self):
        """README's config-field table has one row per ``_FIELDS`` row, in its order."""
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        table = text.split("| field | type | range | default | read by |", 1)[1]
        rows = table.split("\n\n", 1)[0].splitlines()[2:]
        assert [row.split("|")[1].strip().strip("`") for row in rows] == list(
            experiments._FIELDS)

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

    def test_missing_range_names_itself(self):
        doc = make_doc()
        del doc["num_modes"]
        with pytest.raises(ConfigError, match="'num_modes': missing"):
            config_from_dict(doc)

    def test_unknown_experiment_name(self):
        with pytest.raises(ConfigError, match="'experiment'"):
            config_from_dict(make_doc(experiment="frobnicate"))

    def test_loss_dict_round_trip(self):
        config = config_from_dict(
            make_doc(experiment="lossy-ee", loss={"kind": "constant", "mu": 0.5})
        )
        assert config.loss == LossSpec(kind="constant", mu=0.5)
        config = config_from_dict(
            make_doc(experiment="lossy-ee",
                     loss={"kind": "power_law", "beta": 0.6, "gamma": 0.25})
        )
        assert config.loss.beta == 0.6 and config.loss.gamma == 0.25

    def test_loss_spec_constant(self):
        assert LossSpec(kind="constant", mu=0.3).mu == 0.3
        with pytest.raises(ValueError):
            LossSpec(kind="constant", mu=1.2)
        with pytest.raises(ValueError):
            LossSpec(kind="constant", mu=-0.1)

    def test_loss_spec_power_law(self):
        spec = LossSpec(kind="power_law", beta=0.6, gamma=0.25)
        assert (spec.kind, spec.beta, spec.gamma) == ("power_law", 0.6, 0.25)
        with pytest.raises(ValueError):
            LossSpec(kind="power_law", beta=0.0, gamma=0.5)
        with pytest.raises(ValueError):
            LossSpec(kind="power_law", beta=0.5, gamma=1.5)
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
        with pytest.raises(ConfigError, match=f"'{name}': {experiment} does not read {name}"):
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

    def test_prob_needs_a_single_mode_count(self):
        with pytest.raises(ConfigError, match="'num_modes'.*single mode count"):
            config_from_dict(make_doc(experiment="prob", num_modes=[4, 6],
                                      outcomes=[[1, 1, 0, 0]]))

    def test_oracle_check_grid_is_bounded(self):
        with pytest.raises(ConfigError, match="'num_modes'"):
            config_from_dict(make_doc(experiment="oracle-check", num_modes=[8]))

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ConfigError, match="'tolerance'"):
            config_from_dict(make_doc(tolerance=0.0))

    def test_checked_in_configs_parse(self, tmp_path):
        """The configs under ``configs/``, every config ``scripts/compare_outputs.py``
        sends (with its seed) and the benchmark's evolution workloads parse."""
        paths = sorted((ROOT / "configs").glob("*.json"))
        assert paths, "configs/ holds no *.json"
        docs = {path.name: json.loads(path.read_text()) for path in paths}
        compare = load_by_path(ROOT / "scripts" / "compare_outputs.py")
        assert compare.CONFIGS, "compare_outputs.py sends no config"
        docs.update({name: {**doc, "seed": compare.SEED} for name, doc, _ in compare.CONFIGS})
        workloads = load_by_path(ROOT / "perfbench" / "workloads.py")
        for name in ("lossy_ee", "lossless_ee"):
            docs[name] = {**workloads.WORKLOADS[name](1, tmp_path).config,
                          "seed": workloads.unit_seed(1, 0)}
        for name, doc in docs.items():
            config = config_from_dict(doc)
            assert config.experiment == doc["experiment"], name


def test_compare_outputs_refuses_a_checkout_without_paper_configs(tmp_path, monkeypatch, capsys):
    """With no ``configs/*.json``, ``run`` starts no process and ``compare`` reads
    no table: both exit 1, naming the directory they searched."""
    compare = load_by_path(ROOT / "scripts" / "compare_outputs.py")
    calls = []
    monkeypatch.setattr(compare, "CONFIGS", [])
    monkeypatch.setattr(compare, "PAPER_CONFIGS", [])
    monkeypatch.setattr(compare, "_bosonet", lambda *args: calls.append(args) or (0, 0.0))
    assert compare.run(tmp_path / "out", ROOT / "src") == 1
    assert calls == []
    assert compare.compare(tmp_path, tmp_path) == 1
    assert capsys.readouterr().err.count(str(compare.PAPER_DIR)) == 2


def test_compare_outputs_refuses_runs_without_tables(tmp_path, capsys):
    """Two empty run directories are not identical: every config's results.csv is missing."""
    compare = load_by_path(ROOT / "scripts" / "compare_outputs.py")
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert compare.compare(tmp_path / "a", tmp_path / "b") == 1
    out = capsys.readouterr().out
    for name in [name for name, _, _ in compare.CONFIGS] + [p.stem for p in compare.PAPER_CONFIGS]:
        assert f"{name}/results.csv is missing" in out


#: A value other than the recipe doc's of each hashed optional field, and the
#: fields it replaces: ``loss`` and ``gammas``/``betas`` are two spellings of
#: one loss description.  ``weight_threshold`` is hashed, always as null, but is
#: no config field: every experiment refuses it by name.
VARIED = {
    "loss": ({"loss": {"kind": "constant", "mu": 0.5}}, ("gammas", "betas")),
    "gammas": ({"gammas": [0.5], "betas": [0.8]}, ("loss",)),
    "alphas": ({"alphas": [0.5]}, ()),
    "chi_max": ({"chi_max": 8}, ()),
    "chis": ({"chis": [2, 4]}, ()),
    "weight_threshold": ({"weight_threshold": 0.1}, ()),
    "num_samples": ({"num_samples": 5}, ()),
    "outcomes": ({"outcomes": [[1, 1, 0, 0]]}, ()),
    "tolerance": ({"tolerance": 1e-3}, ()),
}


def computed(doc):
    """What a run of ``doc`` computed: its rows and every table but ``timings.csv``,
    less the config hash."""
    record = run(config_from_dict(doc))
    assert record.status == "ok", record.message

    def strip(rows):
        return [{k: v for k, v in row.items() if k != "config_hash"} for row in rows]

    return strip(record.rows), {name: strip(rows) for name, (_, rows, _) in record.tables.items()
                                if name != "timings.csv"}


@pytest.fixture(scope="module")
def recipe_outputs():
    return {}


@pytest.mark.parametrize("field", VARIED)
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_accepted_field_changes_what_the_recipe_computes(recipe_outputs, experiment,
                                                               field):
    """Each hashed optional field is refused by name or read: with it varied, the
    run's rows or sample files differ from the recipe doc's run."""
    setting, replaced = VARIED[field]
    doc = {**{k: v for k, v in RECIPE_DOCS[experiment].items() if k not in replaced},
           **setting}
    try:
        config_from_dict(doc)
    except ConfigError as exc:
        assert exc.field in setting
        return
    if experiment not in recipe_outputs:
        recipe_outputs[experiment] = computed(RECIPE_DOCS[experiment])
    assert computed(doc) != recipe_outputs[experiment]


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
        # Reals spelled as ints hash as the floats they equal.
        ({"experiment": "analytic-ee", "seed": 1, "num_modes": [8], "num_photons": [2],
          "gammas": [1, 0.5], "betas": [1], "alphas": [0, 2]}, "c02c59ac3fbccbc1"),
        ({"experiment": "oracle-check", "seed": 1, "num_modes": [4], "num_photons": [2],
          "tolerance": 1}, "5398537e1077aae7"),
        # The bond sweep of scripts/run_scaling_table.py at its default seed.
        ({"experiment": "trunc-error", "seed": 2024, "num_modes": [8], "num_photons": [3],
          "loss": {"kind": "constant", "mu": 0.5}, "chis": [2, 4, 8, 16, 32, 64],
          "n_circuits": 5}, "2c46565ff470c74e"),
    ], ids=["lossless_bunched", "lossless_spread", "lossy_peaks_analytic",
            "lossy_peaks_simulated", "prob_with_outcomes", "int_gammas_betas_alphas",
            "int_tolerance", "scaling_table_trunc_error"])
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
        policy = TruncationPolicy(config.chi_max)
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

    def test_power_law_without_photons_is_lossless(self):
        # N**(gamma - 1) at N = 0 would divide by zero for gamma < 1; an empty
        # input has nothing to lose.
        record = run(config_from_dict(
            make_doc(experiment="lossy-ee", num_photons=[0, 2], gammas=[0.5], betas=[0.6],
                     n_circuits=1)
        ))
        assert record.status == "ok"
        empty = [row for row in record.rows if row["N"] == 0]
        assert empty and all(row["mu"] == 1.0 and row["trace"] == 1 for row in empty)


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

    def test_samples_file_holds_every_draw(self, tmp_path):
        """Sorted ``# key=value`` lines, the header, then one row per draw of
        stream (p, c, 1) with its joint probability at full precision."""
        config = config_from_dict(make_doc(
            experiment="sample", num_samples=10, n_circuits=1, chi_max=64,
            loss={"kind": "constant", "mu": 0.8}, out_dir=str(tmp_path)))
        record, out_dir = run_to_files(config)
        plan = sample_haar_circuit(4, circuit_rng(config.seed, 0, 0))
        state = mpo.init_lossy(2, 4, 0.8)
        chain.apply_plan(state, plan, TruncationPolicy(config.chi_max))
        draws = sampling.sample_many(state, circuit_rng(config.seed, 0, 0, stream=1), 10)
        lines = (out_dir / "samples_c0.csv").read_text().splitlines()
        assert lines[:7] == ["# chi=64", "# circuit=0",
                             f"# circuit_fingerprint={plan_fingerprint(plan)}",
                             f"# config_hash={record.config_hash}", "# experiment=sample",
                             "# mu=0.8", "# seed=7"]
        assert lines[7] == "n1,n2,n3,n4,joint_probability"
        assert len(lines) == 8 + len(draws)
        for line, want in zip(lines[8:], draws):
            *outcome, probability = line.split(",")
            assert tuple(int(n) for n in outcome) == want.outcome
            assert probability == f"{want.joint_probability:.17g}"
            assert float(probability) == want.joint_probability

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
        chain.apply_plan(state, plan, TruncationPolicy(config.chi_max))
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
        pytest.param(make_doc(num_modes=[8], num_photons=[3], alphas=[2.0, 2000.0, 1e300]),
                     id="lossless-ee-large-alpha"),
    ])
    def test_rerun_is_byte_identical(self, tmp_path, doc):
        blobs = []
        for name in ("first", "second"):
            config = config_from_dict({**doc, "out_dir": str(tmp_path / name)})
            record, out_dir = run_to_files(config)
            assert record.status == "ok"
            for path in out_dir.glob("*.csv"):
                assert b"\r" not in path.read_bytes(), path.name
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
        assert meta["blas"] == record.blas
        assert meta["processes"] == record.processes

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


def exhaust_budget_on_check(monkeypatch, k):
    """Patch ``_Budget.check`` to raise :class:`ResourceAbort` from its ``k``-th call on."""
    checks = []

    def check(budget):
        checks.append(None)
        if len(checks) >= k:
            raise experiments.ResourceAbort("wall-clock budget exhausted")

    monkeypatch.setattr(experiments._Budget, "check", check)


@pytest.fixture
def serial(monkeypatch):
    """Run the units in this process, where a test's patches see every call."""
    monkeypatch.setattr(experiments, "PROCESSES", 1)


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

    @pytest.mark.usefixtures("serial")
    @pytest.mark.parametrize("experiment, extra", [
        ("lossy-ee", {"loss": {"kind": "constant", "mu": 0.6}}),
        ("lossless-ee", {}),
    ])
    def test_resume_from_a_mid_circuit_checkpoint(self, tmp_path, monkeypatch, experiment,
                                                  extra):
        # Abort inside circuit 0 after k layers: the resume must restore them,
        # so it applies k layers' worth fewer gates than a fresh run and still
        # writes the uninterrupted run's tables.
        k = 2
        doc = make_doc(experiment=experiment, num_modes=[6], alphas=[1.0, 2.0],
                       checkpoint_every=1, **extra)
        gates = []
        apply_gate = chain.apply_gate

        def counting(state, gate, policy):
            gates.append(gate)
            return apply_gate(state, gate, policy)

        monkeypatch.setattr(chain, "apply_gate", counting)
        first_layers = sample_haar_circuit(6, circuit_rng(7, 0, 0)).layers()[:k]

        record, clean = run_to_files(config_from_dict({**doc, "out_dir": str(tmp_path / "a")}))
        assert record.status == "ok"
        fresh_calls = len(gates)

        resumed = config_from_dict({**doc, "out_dir": str(tmp_path / "b")})
        gates.clear()
        with monkeypatch.context() as patch:
            exhaust_budget_on_check(patch, k + 1)
            record, out = run_to_files(resumed)
        assert record.status == "aborted"
        assert gates == [g for layer in first_layers for g in layer]
        [path] = (out / "checkpoints").glob("*.npz")
        progress = load_header(path)["extra"]
        assert progress["layers_done"] == k
        assert len(progress["rows"]) == k * len(doc["alphas"])

        gates.clear()
        record, out = run_to_files(resumed)
        assert record.status == "ok"
        for table in ("results.csv", "summary.csv"):
            assert (out / table).read_bytes() == (clean / table).read_bytes()
        assert len(gates) == fresh_calls - sum(map(len, first_layers))
        assert not list((out / "checkpoints").glob("*.npz"))

    @pytest.mark.usefixtures("serial")
    def test_resume_after_a_crash_inside_a_layer(self, tmp_path, monkeypatch):
        # An exception that is not bosonet's ends the run partway through layer
        # k + 1 of circuit 0; the checkpoint taken after layer k must resume
        # into the uninterrupted run's tables.
        k = 2
        doc = make_doc(experiment="lossy-ee", num_modes=[6], loss={"kind": "constant", "mu": 0.6},
                       checkpoint_every=1)
        layers = sample_haar_circuit(6, circuit_rng(7, 0, 0)).layers()
        assert len(layers[k]) >= 2
        crash_at = sum(map(len, layers[:k])) + 2  # the second gate of layer k + 1
        record, clean = run_to_files(config_from_dict({**doc, "out_dir": str(tmp_path / "a")}))
        assert record.status == "ok"

        calls = []
        apply_gate = chain.apply_gate

        def crashing(state, gate, policy):
            calls.append(None)
            if len(calls) == crash_at:
                raise RuntimeError("crash inside a layer")
            return apply_gate(state, gate, policy)

        resumed = config_from_dict({**doc, "out_dir": str(tmp_path / "b")})
        with monkeypatch.context() as patch:
            patch.setattr(chain, "apply_gate", crashing)
            with pytest.raises(RuntimeError, match="crash inside a layer"):
                run_to_files(resumed)
        [path] = (tmp_path / "b" / "checkpoints").glob("*.npz")
        assert load_header(path)["extra"]["layers_done"] == k

        record, out = run_to_files(resumed)
        assert record.status == "ok"
        for table in ("results.csv", "summary.csv"):
            assert (out / table).read_bytes() == (clean / table).read_bytes()

    @pytest.mark.usefixtures("serial")
    def test_abort_keeps_rows_of_completed_units(self, monkeypatch):
        # analytic-ee checks the budget once per (point, circuit) unit, so the
        # second check aborts after exactly one unit of len(alphas) rows.
        exhaust_budget_on_check(monkeypatch, 2)
        record = run(config_from_dict(RECIPE_DOCS["analytic-ee"]))
        assert record.status == "aborted"
        assert [(r["circuit"], r["alpha"]) for r in record.rows] == [(0, 1.0), (0, 2.0)]

    @pytest.mark.usefixtures("serial")
    def test_abort_keeps_sample_files_of_completed_units(self, tmp_path, monkeypatch):
        doc = {**RECIPE_DOCS["sample"], "n_circuits": 3}
        record, clean = run_to_files(config_from_dict({**doc, "out_dir": str(tmp_path / "a")}))
        assert record.status == "ok"
        # sample checks the budget once per circuit: the third check aborts after two.
        exhaust_budget_on_check(monkeypatch, 3)
        record, out = run_to_files(config_from_dict({**doc, "out_dir": str(tmp_path / "b")}))
        assert record.status == "aborted"
        assert [r["circuit"] for r in record.rows] == [0, 1]
        for name in ("samples_c0.csv", "samples_c1.csv"):
            assert (out / name).read_bytes() == (clean / name).read_bytes()
        assert not (out / "samples_c2.csv").exists()
        assert not (out / "summary.csv").exists()

    @pytest.mark.usefixtures("serial")
    def test_abort_keeps_timings_of_completed_units(self, tmp_path, monkeypatch):
        doc = {**RECIPE_DOCS["trunc-error"], "n_circuits": 3, "chis": [2, 4],
               "out_dir": str(tmp_path)}
        # trunc-error checks the budget once per chi: the fifth check aborts after two circuits.
        exhaust_budget_on_check(monkeypatch, 5)
        record, out = run_to_files(config_from_dict(doc))
        assert record.status == "aborted"
        with (out / "timings.csv").open() as fh:
            timings = list(csv.DictReader(fh))
        assert [(t["circuit"], t["chi"]) for t in timings] == [
            ("0", "2"), ("0", "4"), ("1", "2"), ("1", "4")]
        assert [(r["circuit"], r["chi"]) for r in record.rows] == [(0, 2), (0, 4), (1, 2), (1, 4)]
        assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("error", [NumericalFailure, DegradedStateError])
def test_raised_failure_is_a_numerical_failure_record(monkeypatch, error):
    calls = []

    def fail_on_third_gate(*args):
        calls.append(None)
        if len(calls) == 3:
            raise error("third gate went wrong")
        return 0.0

    monkeypatch.setattr(chain, "apply_gate", fail_on_third_gate)
    config = config_from_dict(make_doc())
    record = run(config)
    assert (record.status, record.message) == ("numerical-failure", "third gate went wrong")
    assert (record.columns, record.rows, record.summary) == ([], [], [])
    assert (record.config_hash, record.experiment) == (config_hash(config), "lossless-ee")


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------


def tables_of(out_dir):
    """Every table a run wrote but ``timings.csv``, whose seconds differ, by file name."""
    return {path.name: path.read_bytes() for path in out_dir.glob("*.csv")
            if path.name != "timings.csv"}


def failing_at(monkeypatch, failures):
    """Patch the recipes' ``circuit_rng`` to call ``failures[c]`` first in a unit of
    circuit ``c`` that has one, so the unit fails in the worker process running it."""
    def rng(seed, point_index, c, stream=0):
        if c in failures:
            failures[c]()
        return circuit_rng(seed, point_index, c, stream)

    monkeypatch.setattr(experiments, "circuit_rng", rng)


def raising(error):
    def fail():
        raise error
    return fail


def wait_for(path):
    """Under more than one process, wait up to 30 s for another worker to make ``path``."""
    deadline = time.monotonic() + 30
    while experiments.PROCESSES != 1 and not path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)


class TestWorkerProcesses:
    @pytest.mark.parametrize("doc", [
        pytest.param(make_doc(num_modes=[4, 6], num_photons=[1, 2], n_circuits=3),
                     id="lossless-ee"),
        pytest.param({**RECIPE_DOCS["lossy-ee"], "num_photons": [1, 2], "n_circuits": 3},
                     id="lossy-ee"),
        pytest.param({**RECIPE_DOCS["trunc-error"], "n_circuits": 3}, id="trunc-error"),
        pytest.param({**RECIPE_DOCS["sample"], "n_circuits": 3}, id="sample"),
    ])
    def test_tables_do_not_depend_on_the_process_count(self, tmp_path, monkeypatch, doc):
        tables = []
        for processes in (1, 2):
            monkeypatch.setattr(experiments, "PROCESSES", processes)
            config = config_from_dict({**doc, "out_dir": str(tmp_path / str(processes))})
            record, out_dir = run_to_files(config)
            assert (record.status, record.processes) == ("ok", processes)
            assert json.loads((out_dir / "meta.json").read_text())["processes"] == processes
            tables.append(tables_of(out_dir))
        expected = {"results.csv", "summary.csv"}
        if doc["experiment"] == "sample":
            expected |= {f"samples_c{c}.csv" for c in range(doc["n_circuits"])}
        assert set(tables[0]) == expected
        assert tables[0] == tables[1]

    def test_a_resume_under_two_processes_matches_the_serial_run(self, tmp_path, monkeypatch):
        # Every worker counts its own budget checks from the count at the fork,
        # so each aborts its first circuit after k layers and saves a checkpoint.
        k = 2
        doc = make_doc(experiment="lossy-ee", num_modes=[6], loss={"kind": "constant", "mu": 0.6},
                       checkpoint_every=1)
        monkeypatch.setattr(experiments, "PROCESSES", 1)
        _, clean = run_to_files(config_from_dict({**doc, "out_dir": str(tmp_path / "a")}))

        monkeypatch.setattr(experiments, "PROCESSES", 2)
        resumed = config_from_dict({**doc, "out_dir": str(tmp_path / "b")})
        with monkeypatch.context() as patch:
            exhaust_budget_on_check(patch, k + 1)
            record, out = run_to_files(resumed)
        assert (record.status, record.rows) == ("aborted", [])
        paths = sorted((out / "checkpoints").glob("*.npz"))
        assert [load_header(path)["extra"]["layers_done"] for path in paths] == [k, k]

        record, out = run_to_files(resumed)
        assert (record.status, record.processes) == ("ok", 2)
        assert tables_of(out) == tables_of(clean)
        assert not list((out / "checkpoints").glob("*.npz"))

    def test_abort_keeps_the_completed_prefix_in_unit_order(self, tmp_path, monkeypatch):
        # Circuit 1 aborts once the other worker has run circuit 2 and started
        # circuit 3, which leave a mark in ``ran``; their outputs are dropped.
        doc = {**RECIPE_DOCS["sample"], "n_circuits": 4}
        ran = tmp_path / "ran"
        ran.mkdir()

        def abort_once_circuit_3_runs():
            wait_for(ran / "3")
            raise experiments.ResourceAbort("budget gone")

        failing_at(monkeypatch, {1: abort_once_circuit_3_runs,
                                 2: (ran / "2").touch, 3: (ran / "3").touch})
        outcomes = []
        for processes in (1, 2):
            monkeypatch.setattr(experiments, "PROCESSES", processes)
            record, out = run_to_files(
                config_from_dict({**doc, "out_dir": str(tmp_path / str(processes))}))
            assert (record.status, record.message) == ("aborted", "budget gone")
            assert [r["circuit"] for r in record.rows] == [0]
            assert set(tables_of(out)) == {"results.csv", "samples_c0.csv"}
            assert sorted(path.name for path in ran.iterdir()) == (
                [] if processes == 1 else ["2", "3"])
            outcomes.append((record.rows, record.tables, tables_of(out)))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("error", [NumericalFailure, DegradedStateError])
    def test_a_failure_names_the_first_failing_unit(self, tmp_path, monkeypatch, error):
        # Circuit 2 fails while circuit 1 is still running in the other worker;
        # the run reports circuit 1, as the serial loop does.
        def fail_once_circuit_2_failed():
            wait_for(tmp_path / "2")
            time.sleep(0.1)
            raise error("circuit 1 failed")

        def fail_and_mark():
            (tmp_path / "2").touch()
            raise error("circuit 2 failed")

        failing_at(monkeypatch, {1: fail_once_circuit_2_failed, 2: fail_and_mark})
        for processes in (1, 2):
            monkeypatch.setattr(experiments, "PROCESSES", processes)
            record = run(config_from_dict(make_doc(n_circuits=4)))
            assert (record.status, record.message) == ("numerical-failure", "circuit 1 failed")
            assert (record.rows, record.processes) == ([], processes)

    @pytest.mark.parametrize("overrides, status", [
        pytest.param({}, "ok", id="ok"),
        pytest.param({"max_seconds": 0.0}, "aborted", id="aborted"),
    ])
    def test_no_worker_outlives_a_run(self, monkeypatch, overrides, status):
        monkeypatch.setattr(experiments, "PROCESSES", 2)
        record = run(config_from_dict(make_doc(n_circuits=3, **overrides)))
        assert (record.status, record.processes) == (status, 2)
        assert_no_child_process()

    def test_no_worker_outlives_a_foreign_exception(self, monkeypatch):
        monkeypatch.setattr(experiments, "PROCESSES", 2)
        failing_at(monkeypatch, {1: raising(RuntimeError("not bosonet's"))})
        with pytest.raises(RuntimeError, match="not bosonet's") as raised:
            run(config_from_dict(make_doc(n_circuits=3)))
        # The worker's traceback comes along as the cause.
        assert "RuntimeError: not bosonet's" in str(raised.value.__cause__)
        assert_no_child_process()

    def test_a_worker_that_dies_ends_the_run_and_the_busy_workers(self, monkeypatch):
        # Circuit 1's worker exits without an answer while circuit 0's is busy:
        # the run raises at once and the busy worker is killed, not waited for.
        failing_at(monkeypatch, {0: lambda: time.sleep(60), 1: lambda: os._exit(3)})
        monkeypatch.setattr(experiments, "PROCESSES", 2)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="circuit 1 of sweep point 0 exited with code 3"):
            run(config_from_dict(make_doc(n_circuits=2)))
        assert time.monotonic() - start < 30
        assert_no_child_process()


# ---------------------------------------------------------------------------
# the BLAS thread pin
# ---------------------------------------------------------------------------

OPENBLAS = linalg._openblas_threads()
needs_openblas = pytest.mark.skipif(OPENBLAS is None, reason="numpy's OpenBLAS not found")


@pytest.fixture
def caller_threads():
    """numpy's OpenBLAS set to 2 threads for the test, and back afterwards."""
    get, set_ = OPENBLAS
    before = get()
    set_(2)
    yield 2
    set_(before)


def recording_recipe(monkeypatch, raised=None):
    """Patch the lossless-ee recipe to record the OpenBLAS thread count it runs
    with, then raise ``raised`` or run the real recipe."""
    seen, real = [], experiments._RECIPES["lossless-ee"]

    def recipe(config, digest, budget):
        seen.append(OPENBLAS[0]())
        if raised is not None:
            raise raised
        return real(config, digest, budget)

    monkeypatch.setitem(experiments._RECIPES, "lossless-ee", recipe)
    return seen


@needs_openblas
@pytest.mark.parametrize("overrides, raised, status", [
    pytest.param({}, None, "ok", id="ok"),
    pytest.param({}, NumericalFailure("patched failure"), "numerical-failure",
                 id="numerical-failure"),
    pytest.param({"max_seconds": 0.0}, None, "aborted", id="aborted"),
])
def test_run_pins_one_blas_thread_and_restores_the_callers_count(
        monkeypatch, caller_threads, overrides, raised, status):
    seen = recording_recipe(monkeypatch, raised)
    record = run(config_from_dict(make_doc(**overrides)))
    assert record.status == status
    assert seen == [1]
    assert record.blas == {"vendor": "OpenBLAS", "threads": 1}
    assert OPENBLAS[0]() == caller_threads


@needs_openblas
def test_run_restores_the_callers_count_after_a_foreign_exception(monkeypatch, caller_threads):
    seen = recording_recipe(monkeypatch, KeyError("not bosonet's"))
    with pytest.raises(KeyError):
        run(config_from_dict(make_doc()))
    assert seen == [1]
    assert OPENBLAS[0]() == caller_threads


@needs_openblas
def test_pin_does_nothing_without_openblas(tmp_path, monkeypatch, caller_threads):
    monkeypatch.setattr(linalg, "_openblas_threads", lambda: None)
    seen = recording_recipe(monkeypatch)
    record, out_dir = run_to_files(config_from_dict(make_doc(out_dir=str(tmp_path))))
    assert record.status == "ok"
    assert seen == [caller_threads]
    assert record.blas is None
    assert json.loads((out_dir / "meta.json").read_text())["blas"] is None
    assert OPENBLAS[0]() == caller_threads


# ---------------------------------------------------------------------------
# stream derivation
# ---------------------------------------------------------------------------


class TestCircuitRng:
    @pytest.mark.parametrize("experiment", ["analytic-ee", "lossless-ee", "trunc-error", "prob"])
    def test_second_point_draws_its_documented_circuit(self, experiment):
        """A row of sweep point 1 (N = 2) comes from circuit stream (1, c); prob
        draws circuit c of every N from stream (0, c)."""
        lossy = {"loss": {"kind": "constant", "mu": 0.6}}
        doc = {"analytic-ee": {"gammas": [0.5], "betas": [0.7]},
               "lossless-ee": {},
               "trunc-error": {**lossy, "chis": [2, 4]},
               "prob": {**lossy, "outcomes": [[1, 1, 0, 0]], "chi_max": 64}}[experiment]
        config = config_from_dict(make_doc(experiment=experiment, num_photons=[1, 2], **doc))
        record = run(config)
        point = 0 if experiment == "prob" else 1
        plan = sample_haar_circuit(4, circuit_rng(config.seed, point, 1))
        rows = [r for r in record.rows if r["N"] == 2 and r["circuit"] == 1]
        if experiment == "analytic-ee":
            angles = partition_angles(circuit_to_unitary(plan), 2)
            assert rows[0]["ee"] == lossy_mpo_ee(angles, 0.7 * 2 ** (0.5 - 1.0), 1.0, 2)
            return
        state = (mps.init_fock((1, 1, 0, 0)) if experiment == "lossless-ee"
                 else mpo.init_lossy(2, 4, 0.6))
        chi = 4 if experiment == "trunc-error" else config.chi_max
        chain.apply_plan(state, plan, TruncationPolicy(chi))
        if experiment == "lossless-ee":
            assert rows[-1]["max_ee"] == chain.max_bond_entropy(state, 1.0)[1]
        elif experiment == "trunc-error":
            assert rows[-1]["chi"] == 4 and rows[-1]["one_minus_trace"] == 1.0 - mpo.trace(state)
        else:
            assert rows[0]["probability"] == mpo.outcome_prob(state, (1, 1, 0, 0))

    def test_streams_are_counter_based_and_disjoint(self):
        a = circuit_rng(3, 0, 0).standard_normal(4)
        b = circuit_rng(3, 0, 0).standard_normal(4)
        assert np.array_equal(a, b)
        c = circuit_rng(3, 0, 1).standard_normal(4)
        d = circuit_rng(3, 1, 0).standard_normal(4)
        e = circuit_rng(3, 0, 0, stream=1).standard_normal(4)
        for other in (c, d, e):
            assert not np.array_equal(a, other)
