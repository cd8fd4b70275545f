"""Tests for the ``bosonet`` command-line entry point and its exit codes."""

import csv
import json
import os
import subprocess
import sys
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import numpy as np
import pytest

import bosonet
from bosonet import experiments
from bosonet.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main
from bosonet.snapshots import FORMAT_VERSION


def write_config(path, **overrides):
    doc = {
        "experiment": "lossless-ee",
        "seed": 5,
        "num_modes": [4],
        "num_photons": [2],
        "chi_max": 16,
        "n_circuits": 1,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


class TestUsageErrors:
    def test_unknown_experiment_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        assert main(["frobnicate", "--config", str(config)]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_missing_config_flag_exits_one(self, capsys):
        assert main(["lossless-ee"]) == EXIT_USAGE
        assert "--config" in capsys.readouterr().err

    def test_nonexistent_config_file_exits_one(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["lossless-ee", "--config", str(missing)]) == EXIT_USAGE
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["lossless-ee", "--config", str(bad)]) == EXIT_USAGE
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2, 3]")
        assert main(["lossless-ee", "--config", str(bad)]) == EXIT_USAGE
        assert "JSON object" in capsys.readouterr().err

    def test_unknown_config_field_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", bond_budget=4)
        assert main(["lossless-ee", "--config", str(config)]) == EXIT_USAGE
        assert "bond_budget" in capsys.readouterr().err

    def test_experiment_mismatch_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", experiment="fock-ee")
        assert main(["lossless-ee", "--config", str(config)]) == EXIT_USAGE
        assert "fock-ee" in capsys.readouterr().err

    @pytest.mark.parametrize("field, overrides", [
        pytest.param(field, overrides, id=f"{field}={overrides[field]!r}")
        for field, overrides in (
            ("num_modes", {"num_modes": ["4"]}),
            ("num_modes", {"num_modes": [4.0]}),
            ("num_modes", {"num_modes": "4"}),
            ("num_photons", {"num_photons": [True]}),
            ("chi_max", {"chi_max": "8"}),
            ("chi_max", {"chi_max": 8.5}),
            ("chi_max", {"chi_max": True}),
            ("chis", {"chis": [4.0]}),
            ("n_circuits", {"n_circuits": 1.5}),
            ("num_samples", {"num_samples": "10"}),
            ("checkpoint_every", {"checkpoint_every": 0.5}),
            ("alphas", {"alphas": ["1"]}),
            ("alphas", {"alphas": 1.0}),
            ("gammas", {"gammas": ["0.5"], "betas": [0.5]}),
            ("betas", {"gammas": [0.5], "betas": [None]}),
            ("tolerance", {"tolerance": "1e-8"}),
            ("max_seconds", {"max_seconds": "10"}),
            ("weight_threshold", {"weight_threshold": False}),
            ("max_seconds", {"max_seconds": float("nan")}),
            ("alphas", {"alphas": [float("nan")]}),
            ("weight_threshold", {"weight_threshold": float("inf")}),
            ("tolerance", {"tolerance": float("-inf")}),
            ("tolerance", {"tolerance": float("inf")}),
            ("seed", {"seed": True}),
            ("seed", {"seed": 5.0}),
        )
    ])
    def test_mistyped_config_value_names_the_field(self, tmp_path, capsys, field, overrides):
        config = write_config(tmp_path / "c.json", **overrides)
        assert main(["lossless-ee", "--config", str(config)]) == EXIT_USAGE
        assert f"bosonet: config field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, field, overrides", [
        pytest.param(experiment, field, overrides, id=f"{experiment}:{overrides[field]!r}")
        for experiment, field, overrides in (
            ("prob", "outcomes", {"outcomes": [[1.7, 0.2, 0, 0]]}),
            ("prob", "outcomes", {"outcomes": [[True, True, 0, 0]]}),
            ("prob", "outcomes", {"outcomes": [["1", "1", "0", "0"]]}),
            ("lossy-ee", "loss", {"loss": {"kind": "constant", "mu": True}}),
            ("lossy-ee", "loss", {"loss": {"kind": "constant", "mu": "0.5"}}),
            ("lossy-ee", "loss", {"loss": {"kind": "power_law", "beta": "0.5", "gamma": 1}}),
            ("lossy-ee", "loss", {"loss": {"kind": "power_law", "beta": 0.5, "gamma": True}}),
        )
    ])
    def test_mistyped_outcome_or_loss_names_the_field(self, tmp_path, capsys, experiment,
                                                      field, overrides):
        config = write_config(tmp_path / "c.json", experiment=experiment, **overrides)
        out = tmp_path / "out"
        assert main([experiment, "--config", str(config), "--out", str(out)]) == EXIT_USAGE
        assert f"bosonet: config field '{field}'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        assert main(["lossless-ee", "--config", str(bad)]) == EXIT_USAGE
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_dir_that_cannot_be_made_exits_one_before_the_run(self, tmp_path, capsys,
                                                                  monkeypatch, below):
        def must_not_run(config):
            raise AssertionError("the recipe ran")

        monkeypatch.setattr(experiments, "run", must_not_run)
        config = write_config(tmp_path / "c.json")
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / below if below else blocker
        assert main(["lossless-ee", "--config", str(config), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "config field 'out_dir'" in err and str(out) in err

    @pytest.mark.parametrize("field, overrides, flags", [
        pytest.param("seed", {}, ["--seed", "-1"], id="--seed -1"),
        pytest.param("seed", {"seed": -1}, [], id="seed=-1"),
        pytest.param("weight_threshold", {"weight_threshold": -0.5}, [],
                     id="weight_threshold=-0.5"),
    ])
    def test_out_of_range_value_names_the_field(self, tmp_path, capsys, field, overrides,
                                                flags):
        config = write_config(tmp_path / "c.json", **overrides)
        out = tmp_path / "out"
        argv = ["lossless-ee", "--config", str(config), "--out", str(out), *flags]
        assert main(argv) == EXIT_USAGE
        assert f"bosonet: config field '{field}': must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestHappyPath:
    def test_run_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        code = main(["lossless-ee", "--config", str(config), "--out", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "lossless-ee" in stdout
        assert str(out) in stdout
        assert (out / "results.csv").exists()
        assert (out / "summary.csv").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["status"] == "ok"

    def test_config_may_omit_experiment_field(self, tmp_path):
        doc = {"seed": 5, "num_modes": [4], "num_photons": [1],
               "chi_max": 8, "n_circuits": 1}
        config = tmp_path / "c.json"
        config.write_text(json.dumps(doc))
        assert main(["lossless-ee", "--config", str(config)]) == EXIT_OK

    def test_flag_overrides_reach_the_run(self, tmp_path):
        config = write_config(tmp_path / "c.json", seed=5, chi_max=16)
        out = tmp_path / "out"
        code = main([
            "lossless-ee", "--config", str(config),
            "--seed", "99", "--chi", "8", "--out", str(out),
        ])
        assert code == EXIT_OK
        meta = json.loads((out / "meta.json").read_text())
        assert meta["seed"] == 99
        assert meta["config"]["chi_max"] == 8
        assert meta["config"]["out_dir"] == str(out)

    def test_lossy_prob_of_more_photons_than_the_input_is_zero(self, tmp_path):
        config = write_config(tmp_path / "c.json", experiment="prob",
                              num_photons=[1, 2], loss={"kind": "constant", "mu": 0.5},
                              outcomes=[[1, 1, 0, 0], [2, 0, 0, 0]])
        out = tmp_path / "out"
        assert main(["prob", "--config", str(config), "--out", str(out)]) == EXIT_OK
        with open(out / "results.csv", newline="") as fh:
            rows = {(r["N"], r["outcome"]): float(r["probability"]) for r in csv.DictReader(fh)}
        assert len(rows) == 4
        assert rows["1", "2 0 0 0"] == 0.0
        assert rows["2", "2 0 0 0"] > 0.0

    def test_oracle_check_reports_deviation(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.json", experiment="oracle-check",
            num_modes=[2], num_photons=[1], tolerance=1e-8,
        )
        assert main(["oracle-check", "--config", str(config)]) == EXIT_OK
        assert "max deviation" in capsys.readouterr().out


class TestFailureExitCodes:
    def test_budget_abort_exits_three(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", max_seconds=0.0)
        out = tmp_path / "out"
        code = main(["lossless-ee", "--config", str(config), "--out", str(out)])
        assert code == EXIT_RESOURCE
        assert "budget" in capsys.readouterr().err

    def test_oracle_check_failure_exits_two(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.json", experiment="oracle-check",
            num_modes=[2], num_photons=[1], tolerance=1e-30,
        )
        code = main(["oracle-check", "--config", str(config)])
        assert code == EXIT_NUMERICAL
        assert "exceeds" in capsys.readouterr().err


class TestStaleOutputs:
    def test_aborted_rerun_removes_the_summary_of_the_run_before(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(tmp_path / "c.json")
        assert main(["lossless-ee", "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert (out / "summary.csv").exists()

        aborting = write_config(tmp_path / "abort.json", seed=6, max_seconds=0.0)
        code = main(["lossless-ee", "--config", str(aborting), "--out", str(out)])
        assert code == EXIT_RESOURCE
        assert json.loads((out / "meta.json").read_text())["status"] == "aborted"
        assert not (out / "summary.csv").exists()
        assert (out / "results.csv").read_text().count("\n") == 1  # the header only

    def test_rerun_with_fewer_circuits_removes_their_sample_files(self, tmp_path):
        out = tmp_path / "out"
        for n_circuits in (3, 1):
            config = write_config(tmp_path / "c.json", experiment="sample", num_samples=4,
                                  n_circuits=n_circuits)
            assert main(["sample", "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.glob("samples_c*.csv")) == ["samples_c0.csv"]


def _edit_header(path, edit):
    """Rewrite the JSON header of the snapshot at ``path`` with ``edit(header)``."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    header = json.loads(str(arrays["header"][()]))
    edit(header)
    arrays["header"] = np.array(json.dumps(header))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def assert_resume_ignores_planted_checkpoint(tmp_path, plant):
    """Abort a checkpointed lossy-ee run at layer 0, damage its checkpoint with
    ``plant(path)`` and rerun: exit 0, tables byte-identical to an uninterrupted
    run, and no checkpoint left."""
    config = write_config(tmp_path / "c.json", experiment="lossy-ee",
                          loss={"kind": "constant", "mu": 0.6}, checkpoint_every=1)
    clean = tmp_path / "clean"
    assert main(["lossy-ee", "--config", str(config), "--out", str(clean)]) == EXIT_OK

    resumed = tmp_path / "resumed"
    aborting = write_config(tmp_path / "abort.json", experiment="lossy-ee",
                            loss={"kind": "constant", "mu": 0.6},
                            checkpoint_every=1, max_seconds=0.0)
    code = main(["lossy-ee", "--config", str(aborting), "--out", str(resumed)])
    assert code == EXIT_RESOURCE
    [planted] = (resumed / "checkpoints").glob("*.npz")
    plant(planted)

    assert main(["lossy-ee", "--config", str(config), "--out", str(resumed)]) == EXIT_OK
    for table in ("results.csv", "summary.csv"):
        assert (resumed / table).read_bytes() == (clean / table).read_bytes()
    assert not list((resumed / "checkpoints").glob("*.npz"))


class TestCheckpointResume:
    def test_checkpoint_from_other_snapshot_version_is_ignored(self, tmp_path):
        # The planted header claims every layer is done with no rows, so a
        # resume that trusted it would write a different table.
        def edit(header):
            header["version"] = FORMAT_VERSION - 1
            header["extra"].update(layers_done=10_000, rows=[])

        assert_resume_ignores_planted_checkpoint(tmp_path, lambda path: _edit_header(path, edit))

    def test_truncated_checkpoint_is_ignored(self, tmp_path):
        # A checkpoint cut short, as by a full disk or a copy that died partway.
        def plant(path):
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])

        assert_resume_ignores_planted_checkpoint(tmp_path, plant)

    def test_checkpoint_with_mismatched_local_dim_is_ignored(self, tmp_path):
        assert_resume_ignores_planted_checkpoint(tmp_path, lambda path: _edit_header(
            path, lambda h: h.update(local_dim=h["local_dim"] + 1)))

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h: h.update(loss=None), id="null-loss"),
        pytest.param(lambda h: h.pop("num_photons"), id="no-num_photons"),
    ])
    def test_checkpoint_with_malformed_header_is_ignored(self, tmp_path, edit):
        assert_resume_ignores_planted_checkpoint(
            tmp_path, lambda path: _edit_header(path, edit))

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda extra: extra.pop("layers_done"), id="no-layers_done"),
        pytest.param(lambda extra: extra.pop("rows"), id="no-rows"),
        pytest.param(lambda extra: extra.update(layers_done="1"), id="str-layers_done"),
        pytest.param(lambda extra: extra.update(layers_done=1.5), id="float-layers_done"),
        pytest.param(lambda extra: extra.update(rows={"M": 4}), id="dict-rows"),
        pytest.param(lambda extra: extra.update(rows=[7]), id="int-row"),
    ])
    def test_checkpoint_with_malformed_progress_is_ignored(self, tmp_path, edit):
        # The header is well formed and carries the run's config hash; only the
        # progress fields are missing or of the wrong type.
        assert_resume_ignores_planted_checkpoint(
            tmp_path, lambda path: _edit_header(path, lambda h: edit(h["extra"])))


class TestInstalledEntryPoint:
    def test_console_script_is_wired(self):
        """``bosonet`` is declared as ``bosonet.cli:main`` and that target loads.

        The declaration is read from ``pyproject.toml``, so the check runs on an
        uninstalled checkout too. Where a ``bosonet`` distribution is installed,
        its recorded console script must agree as well.
        """
        tomllib = pytest.importorskip("tomllib")

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts.get("bosonet") == "bosonet.cli:main"

        declared = EntryPoint(
            name="bosonet", value=scripts["bosonet"], group="console_scripts"
        )
        assert declared.load() is main

        try:
            dist = distribution("bosonet")
        except PackageNotFoundError:
            return
        installed = {
            ep.name: ep.value
            for ep in dist.entry_points.select(group="console_scripts")
        }
        assert installed.get("bosonet") == "bosonet.cli:main"


def test_cli_import_leaves_scipy_unloaded():
    """scipy.stats and scipy.linalg load only where they run: in
    ``entropy.binomial_spectrum`` and in the SVD fallback."""
    code = ("import sys, bosonet.cli; "
            "print([m for m in ('scipy.stats', 'scipy.linalg') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(bosonet.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
