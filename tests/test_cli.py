"""Tests for the ``bosonet`` command-line entry point and its exit codes."""

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import MISSING
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bosonet
from bosonet import chain, experiments, mpo
from bosonet.circuit import sample_haar_circuit
from bosonet.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main
from bosonet.experiments import circuit_rng
from bosonet.linalg import DegradedStateError, NumericalFailure, TruncationPolicy
from bosonet.snapshots import FORMAT_VERSION, load_state

from helpers import _edit_header, _edit_members, assert_no_child_process


def write_config(path, **overrides):
    """A small config file; ``chi_max`` is 16 unless its experiment does not read it."""
    doc = {
        "experiment": "lossless-ee",
        "seed": 5,
        "num_modes": [4],
        "num_photons": [2],
        "n_circuits": 1,
    }
    doc.update(overrides)
    if doc["experiment"] not in ("analytic-ee", "oracle-check", "trunc-error"):
        doc.setdefault("chi_max", 16)
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

    def test_removed_weight_threshold_is_an_unknown_field(self, tmp_path, capsys):
        # chi is the one truncation control; the tail cut this field set is gone.
        config = write_config(tmp_path / "c.json", weight_threshold=1e-3)
        out = tmp_path / "out"
        assert main(["lossless-ee", "--config", str(config), "--out", str(out)]) == EXIT_USAGE
        assert ("bosonet: config field 'weight_threshold': unknown field"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_trunc_error_without_chis_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", experiment="trunc-error",
                              loss={"kind": "constant", "mu": 0.5})
        out = tmp_path / "out"
        assert main(["trunc-error", "--config", str(config), "--out", str(out)]) == EXIT_USAGE
        assert ("bosonet: config field 'chis': trunc-error needs chis"
                in capsys.readouterr().err)
        assert not out.exists()

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
            ("betas", {"betas": [None]}),
            ("tolerance", {"tolerance": "1e-8"}),
            ("max_seconds", {"max_seconds": "10"}),
            # A removed field is refused by name, whatever its value.
            ("weight_threshold", {"weight_threshold": False}),
            ("max_seconds", {"max_seconds": float("nan")}),
            ("alphas", {"alphas": [float("nan")]}),
            ("weight_threshold", {"weight_threshold": float("inf")}),
            ("tolerance", {"tolerance": float("-inf")}),
            ("tolerance", {"tolerance": float("inf")}),
            ("seed", {"seed": True}),
            ("seed", {"seed": 5.0}),
            ("out_dir", {"out_dir": 5}),
            ("num_samples", {"num_samples": -3}),
            ("chis", {"chis": [4]}),
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
            ("lossy-ee", "loss", {"loss": {"kind": "constant", "mu": 0.5, "zzz": 1}}),
        )
    ])
    def test_mistyped_outcome_or_loss_names_the_field(self, tmp_path, capsys, experiment,
                                                      field, overrides):
        config = write_config(tmp_path / "c.json", experiment=experiment, **overrides)
        out = tmp_path / "out"
        assert main([experiment, "--config", str(config), "--out", str(out)]) == EXIT_USAGE
        assert f"bosonet: config field '{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, field, overrides, flags", [
        pytest.param(experiment, field, overrides, flags, id=f"{experiment}:{field}")
        for experiment, field, overrides, flags in (
            # --chi on an M=8 sweep would change the config hash and no row.
            ("analytic-ee", "chi_max", {"num_modes": [8], "num_photons": [1, 2, 4]},
             ["--chi", "8"]),
            ("oracle-check", "alphas", {"alphas": [2.0]}, []),
            ("oracle-check", "chi_max", {}, ["--chi", "8"]),
            ("sample", "alphas", {"alphas": [2.0]}, []),
            ("prob", "alphas", {"alphas": [2.0]}, []),
            ("trunc-error", "alphas", {"alphas": [2.0]}, []),
            # trunc-error reads its chi values from chis alone.
            ("trunc-error", "chi_max", {}, ["--chi", "8"]),
            # Only the layer-evolution experiments checkpoint.
            *((experiment, "checkpoint_every", {"checkpoint_every": 1}, [])
              for experiment in ("analytic-ee", "trunc-error", "sample", "prob",
                                 "oracle-check")),
        )
    ])
    def test_field_the_experiment_does_not_read_exits_one(self, tmp_path, capsys, experiment,
                                                          field, overrides, flags):
        """A field, or ``--chi``, that the experiment does not read would change the
        config hash and nothing else: exit 1 before any output is written."""
        needs = {"analytic-ee": {"gammas": [0.5], "betas": [0.6]},
                 "sample": {"num_samples": 5}, "prob": {"outcomes": [[1, 1, 0, 0]]},
                 "trunc-error": {"loss": {"kind": "constant", "mu": 0.5}}}
        config = write_config(tmp_path / "c.json", experiment=experiment,
                              **needs.get(experiment, {}), **overrides)
        out = tmp_path / "out"
        argv = [experiment, "--config", str(config), "--out", str(out), *flags]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"bosonet: config field '{field}': {experiment} does not read {field}" in err
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


# (M, N, mu, seed) of chi = 1 lossy evolutions with a cut whose largest value
# is a mirror pair, two units against chi = 1: a cut that kept nothing there
# would empty the bond.
CHI_ONE_PROBES = [
    (4, 4, 0.9, 3), (4, 4, 1.0, 1), (4, 4, 1.0, 3), (6, 2, 0.9, 0), (6, 2, 1.0, 0),
    (6, 4, 0.9, 3), (6, 4, 1.0, 1), (6, 4, 1.0, 3), (8, 3, 0.9, 0), (8, 3, 0.9, 4),
    (8, 3, 1.0, 0), (8, 3, 1.0, 4), (8, 4, 0.9, 3), (8, 4, 0.9, 4), (8, 4, 1.0, 0),
    (8, 4, 1.0, 1), (8, 4, 1.0, 3), (8, 4, 1.0, 4),
]


def test_lossy_ee_at_chi_one_keeps_every_bond(tmp_path, monkeypatch):
    smallest = []
    apply_gate = chain.apply_gate

    def recording(state, gate, policy):
        weight = apply_gate(state, gate, policy)
        smallest.append(min(map(len, state.bonds)))
        return weight

    monkeypatch.setattr(chain, "apply_gate", recording)
    config = write_config(tmp_path / "c.json", experiment="lossy-ee", seed=0, num_modes=[6],
                          num_photons=[2], loss={"kind": "constant", "mu": 0.9}, chi_max=1)
    # The run stops at layer 8, whose trace is 0 (see the test below).
    assert main(["lossy-ee", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
    assert smallest and min(smallest) >= 1
    for m, n, mu, seed in CHI_ONE_PROBES:
        smallest.clear()
        state = mpo.init_lossy(n, m, mu)
        chain.apply_plan(state, sample_haar_circuit(m, circuit_rng(seed, 0, 0)),
                         TruncationPolicy(chi_max=1))
        assert min(smallest) >= 1, (m, n, mu, seed)


@pytest.mark.parametrize("experiment", ["lossy-ee", "sample", "prob", "trunc-error"])
def test_lossy_ee_layer_with_zero_trace_is_a_numerical_failure(experiment, tmp_path, capsys):
    """At chi = 1 this circuit's cut keeps only an off-diagonal mirror pair at
    layer 8, which carries no trace: the run fails there instead of writing
    rows of a state with no weight.  ``sample`` and ``prob`` refuse the evolved
    state the same way; ``trunc-error`` reads it, as its ``one_minus_trace``
    of 1 is the measurement itself."""
    extra = {"sample": {"num_samples": 5},
             "prob": {"outcomes": [[1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]]}}
    config = write_config(tmp_path / "c.json", experiment=experiment, seed=0, num_modes=[6],
                          num_photons=[2], loss={"kind": "constant", "mu": 0.9},
                          **{"chis": [1]} if experiment == "trunc-error" else {"chi_max": 1},
                          **extra.get(experiment, {}))
    out = tmp_path / "out"
    code = main([experiment, "--config", str(config), "--out", str(out)])
    meta = json.loads((out / "meta.json").read_text())
    if experiment == "trunc-error":
        assert code == EXIT_OK and meta["status"] == "ok"
        with open(out / "results.csv", newline="") as fh:
            [row] = list(csv.DictReader(fh))
        assert float(row["one_minus_trace"]) == 1.0
        return
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "bosonet: numerical-failure: " in err and " 0.000e+00 " in err
    if experiment == "lossy-ee":
        assert "bosonet: numerical-failure: lossy-ee: trace 0.000e+00 after layer 8 " in err
        assert "layer 8" in meta["message"]
    if experiment == "sample":
        assert ("bosonet: numerical-failure: sample: state norm 0.000e+00 of circuit 0 "
                "(M=6, N=2) is below 1e-06") in err
    assert meta["status"] == "numerical-failure"
    assert not (out / "results.csv").exists()


def test_lossy_ee_tables_do_not_depend_on_the_blas_thread_count(tmp_path):
    """At M=16, N=4, chi=256 the last bits of a product depend on OpenBLAS's
    thread count; run pins one thread, so 1 and 2 give the same file."""
    config = write_config(tmp_path / "c.json", experiment="lossy-ee", seed=1000,
                          num_modes=[16], num_photons=[4],
                          loss={"kind": "constant", "mu": 0.5}, chi_max=256)
    code = "import sys; from bosonet.cli import main; sys.exit(main(sys.argv[1:]))"
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(bosonet.__file__).resolve().parents[1]))
        subprocess.run([sys.executable, "-c", code, "lossy-ee", "--config", str(config),
                        "--out", str(out)], env=env, capture_output=True, check=True)
        tables.append((out / "results.csv").read_bytes())
    assert tables[0] == tables[1]


def test_workers_inherit_the_blas_pin(tmp_path):
    """Two circuits at M=16, N=4, chi=256 in two worker processes: the workers
    run on the one thread ``run`` pins, so 1 and 2 threads give the same files."""
    config = write_config(tmp_path / "c.json", experiment="lossy-ee", seed=1000,
                          num_modes=[16], num_photons=[4],
                          loss={"kind": "constant", "mu": 0.5}, chi_max=256, n_circuits=2)
    code = ("import sys; from bosonet import experiments; experiments.PROCESSES = 2; "
            "from bosonet.cli import main; sys.exit(main(sys.argv[1:]))")
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(bosonet.__file__).resolve().parents[1]))
        subprocess.run([sys.executable, "-c", code, "lossy-ee", "--config", str(config),
                        "--out", str(out)], env=env, capture_output=True, check=True)
        assert json.loads((out / "meta.json").read_text())["processes"] == 2
        tables.append([(out / name).read_bytes() for name in ("results.csv", "summary.csv")])
    assert tables[0] == tables[1]


def test_a_run_in_worker_processes_prints_no_line_twice(tmp_path):
    """A line the caller printed before the run, still in its buffer when the
    workers fork, is printed once, as on the serial path."""
    config = write_config(tmp_path / "c.json", n_circuits=3)
    code = ("import sys; from bosonet import experiments; "
            "experiments.PROCESSES = int(sys.argv[1]); "
            "print('printed before the run'); print('also on stderr', file=sys.stderr); "
            "from bosonet.cli import main; sys.exit(main(sys.argv[2:]))")
    env = dict(os.environ, PYTHONPATH=str(Path(bosonet.__file__).resolve().parents[1]))
    consoles = []
    for processes in ("1", "2"):
        done = subprocess.run([sys.executable, "-c", code, processes, "lossless-ee", "--config",
                               str(config), "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, check=True)
        # The wall time on the summary line is the one difference allowed.
        consoles.append((re.sub(r"[0-9.]+s$", "", done.stdout, flags=re.M), done.stderr))
    assert consoles[0] == consoles[1]
    assert consoles[0][0].count("printed before the run") == 1


def test_a_failure_in_worker_processes_exits_two_as_the_serial_run(tmp_path, capsys,
                                                                    monkeypatch):
    """The chi = 1 zero-trace circuit of the test above, now one of two: under two
    processes the run fails with the serial run's message, and leaves no worker."""
    config = write_config(tmp_path / "c.json", experiment="lossy-ee", seed=0, num_modes=[6],
                          num_photons=[2], loss={"kind": "constant", "mu": 0.9}, chi_max=1,
                          n_circuits=2)
    outcomes = []
    for processes in (1, 2):
        monkeypatch.setattr(experiments, "PROCESSES", processes)
        code = main(["lossy-ee", "--config", str(config), "--out", str(tmp_path / "out")])
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["processes"] == processes
        outcomes.append((code, capsys.readouterr().err, meta["status"], meta["message"]))
        assert_no_child_process()
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == EXIT_NUMERICAL
    assert "after layer 8 of circuit 0 (M=6, N=2)" in outcomes[0][3]


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

    @pytest.mark.parametrize("error", [NumericalFailure, DegradedStateError])
    def test_raised_failure_exits_two_and_leaves_no_tables(self, tmp_path, capsys, monkeypatch,
                                                           error):
        out = tmp_path / "out"
        config = write_config(tmp_path / "c.json")
        assert main(["lossless-ee", "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert (out / "results.csv").exists() and (out / "summary.csv").exists()

        calls = []

        def fail_on_third_gate(*args):
            calls.append(None)
            if len(calls) == 3:
                raise error("third gate went wrong")
            return 0.0

        monkeypatch.setattr(chain, "apply_gate", fail_on_third_gate)
        capsys.readouterr()
        code = main(["lossless-ee", "--config", str(config), "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert "bosonet: numerical-failure: third gate went wrong" in capsys.readouterr().err
        meta = json.loads((out / "meta.json").read_text())
        assert (meta["status"], meta["message"]) == ("numerical-failure", "third gate went wrong")
        assert not (out / "results.csv").exists()
        assert not (out / "summary.csv").exists()


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


def _nan_site_block(arrays):
    key = next(key for key in arrays if key.startswith("site2/"))
    arrays[key] = np.full_like(arrays[key], np.nan)


def _zero_bond0_member(arrays):
    key = next(key for key in arrays if key.startswith("bond0/"))
    arrays[key] = np.zeros_like(arrays[key])


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

    def test_checkpoint_with_misshaped_block_is_ignored(self, tmp_path):
        # Without the shape check the block loads and the next gate dies in
        # two_site_update instead of restarting the circuit.
        def misshape(arrays):
            key = next(key for key in arrays if key.startswith("site2/"))
            arrays[key] = np.zeros((7, 9), dtype=complex)

        assert_resume_ignores_planted_checkpoint(tmp_path, lambda path: _edit_members(
            path, misshape))

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h: h.update(norm_scale=None), id="null-norm_scale"),
        pytest.param(lambda h: h.pop("num_photons"), id="no-num_photons"),
    ])
    def test_checkpoint_with_malformed_header_is_ignored(self, tmp_path, edit):
        assert_resume_ignores_planted_checkpoint(
            tmp_path, lambda path: _edit_header(path, edit))

    @pytest.mark.parametrize("plant", [
        # Without the finiteness check the NaN block loads and the next SVD
        # fails, or the NaN scale resumes into a table of NaN traces.
        pytest.param(lambda path: _edit_members(path, _nan_site_block), id="nan-block"),
        pytest.param(lambda path: _edit_header(path, lambda h: h.update(norm_scale=float("nan"))),
                     id="nan-norm_scale"),
    ])
    def test_checkpoint_with_non_finite_entries_is_ignored(self, tmp_path, plant):
        assert_resume_ignores_planted_checkpoint(tmp_path, plant)

    def test_checkpoint_with_a_zero_bond_value_is_ignored(self, tmp_path):
        # Bond 0 weighs the first gate's Theta, so a zero there would resume
        # into other numbers.
        assert_resume_ignores_planted_checkpoint(
            tmp_path, lambda path: _edit_members(path, _zero_bond0_member))

    def test_checkpoint_with_loss_key_of_older_builds_resumes(self, tmp_path):
        # Older format-3 builds wrote the transmissivity into the header; such a
        # checkpoint still loads, and the resume finishes it.
        def plant(path):
            _edit_header(path, lambda h: h.update(loss={"mu": 0.6}))
            assert load_state(path)[1]["config_hash"]

        assert_resume_ignores_planted_checkpoint(tmp_path, plant)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda extra: extra.pop("layers_done"), id="no-layers_done"),
        pytest.param(lambda extra: extra.pop("rows"), id="no-rows"),
        pytest.param(lambda extra: extra.update(layers_done="1"), id="str-layers_done"),
        pytest.param(lambda extra: extra.update(layers_done=1.5), id="float-layers_done"),
        pytest.param(lambda extra: extra.update(rows={"M": 4}), id="dict-rows"),
        pytest.param(lambda extra: extra.update(rows=[7]), id="int-row"),
        # A resume that trusted this progress would write no rows.
        pytest.param(lambda extra: extra.update(config_hash="0" * 16, layers_done=10_000,
                                                rows=[]), id="other-config_hash"),
        # This run's own progress, but more layers than the circuit has, or
        # not one row per alpha for each layer it claims: a resume that
        # trusted any of these would write another table.
        pytest.param(lambda extra: extra.update(layers_done=10_000, rows=[]),
                     id="layers_done-past-the-circuit"),
        pytest.param(lambda extra: extra.update(layers_done=3, rows=[]),
                     id="rows-missing-for-layers_done"),
        pytest.param(lambda extra: extra.update(layers_done=1, rows=[{"layer": 1}] * 2),
                     id="rows-repeated-for-a-layer"),
    ])
    def test_checkpoint_with_malformed_progress_is_ignored(self, tmp_path, edit):
        # The header is well formed; only the progress fields are missing, of
        # the wrong type, another config's, or inconsistent with the circuit.
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


#: An accepted tiny config per experiment, which the fuzz test below mutates.
BASE_DOCS = {name: {"experiment": name, "seed": 5, "num_modes": [4], "num_photons": [2],
                    **extra} for name, extra in {
    "lossless-ee": {}, "fock-ee": {}, "oracle-check": {},
    "lossy-ee": {"loss": {"kind": "constant", "mu": 0.5}},
    "analytic-ee": {"gammas": [0.5], "betas": [0.7]},
    "trunc-error": {"loss": {"kind": "constant", "mu": 0.5}, "chis": [2, 4]},
    "sample": {"num_samples": 5},
    "prob": {"outcomes": [[1, 1, 0, 0], [2, 0, 0, 0]]},
}.items()}
#: Values in and around the range of each config field.
NEAR = {
    "experiment": st.sampled_from(experiments.EXPERIMENTS),
    "seed": st.sampled_from([0, 7, 2**63 - 1, -1, 2**63]),
    "num_modes": st.sampled_from([2, 4, [2], [2, 4], [4, 2], [3], [6], [2, 2], []]),
    "num_photons": st.one_of(st.integers(-1, 3),
                             st.lists(st.integers(-1, 3), min_size=1, max_size=3)),
    "loss": st.one_of(
        st.fixed_dictionaries({"kind": st.just("constant"),
                               "mu": st.sampled_from([0.0, 0.3, 1.0, 1.5])}),
        st.fixed_dictionaries({"kind": st.just("power_law"),
                               "beta": st.sampled_from([0.0, 0.3, 2.0]),
                               "gamma": st.sampled_from([0.25, 1.0, 1.5])}),
        st.fixed_dictionaries({"kind": st.just("constant"), "mu": st.just(0.5),
                               "zzz": st.just(1)})),
    "gammas": st.lists(st.sampled_from([0.25, 0.5, 1.0, 0.0, 1.5]), min_size=1, max_size=2),
    "betas": st.lists(st.sampled_from([0.3, 0.7, 1.0, 0.0, 2.0]), min_size=1, max_size=2),
    "alphas": st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 2000.0, 1e300, 10**30, -1.0]),
                       min_size=1, max_size=3),
    "chi_max": st.sampled_from([1, 4, 2**63 - 1, 0]),
    "chis": st.lists(st.sampled_from([1, 2, 8, 2**63 - 1, 0]), min_size=1, max_size=3),
    "n_circuits": st.sampled_from([1, 2, 0]),
    "num_samples": st.sampled_from([1, 20, 0, -3]),
    "outcomes": st.lists(st.lists(st.integers(-1, 2), min_size=2, max_size=4), min_size=1,
                         max_size=3),
    "tolerance": st.sampled_from([5e-324, 1e-8, 1e300, 0.0, -1.0]),
    "out_dir": st.sampled_from(["out", "out/sub"]),
    "checkpoint_every": st.sampled_from([0, 1, -1]),
    "max_seconds": st.sampled_from([0.0, 5.0, -1.0]),
}
#: Values of the wrong type, or out of every range, for any field.
JUNK = st.sampled_from([None, True, False, float("nan"), float("inf"), float("-inf"),
                        5, 10**30, -(10**30), 10**400, "4", [], [[]], [[1, 2]], [True],
                        [float("nan")], {"kind": "constant"}])


@st.composite
def config_docs(draw):
    """A tiny accepted config with up to two fields set in or near their ranges;
    then, in half of the draws, one field (or an unknown key) set to junk or one
    required field dropped."""
    doc = dict(BASE_DOCS[draw(st.sampled_from(experiments.EXPERIMENTS))])
    for name in draw(st.lists(st.sampled_from(sorted(NEAR)), max_size=2, unique=True)):
        doc[name] = draw(NEAR[name])
    damage = draw(st.sampled_from([None, None, "junk", "drop"]))
    if damage == "junk":
        doc[draw(st.sampled_from([*NEAR, "zzz"]))] = draw(JUNK)
    elif damage == "drop":
        doc.pop(draw(st.sampled_from(["experiment", "seed", "num_modes"])), None)
    return doc


@settings(max_examples=400, derandomize=True, deadline=None)
@given(doc=config_docs())
def test_config_boundary_fuzz(tmp_path_factory, doc):
    """A JSON config is rejected by a ConfigError that names a field it carries or
    lacks, or accepted with a hash that key order, a scalar range and defaults
    spelled out or left out leave alone; an accepted tiny config runs through the
    CLI to an exit code, never a traceback."""
    fields = experiments.ExperimentConfig.__dataclass_fields__
    defaults = {name: f.default if f.default_factory is MISSING else f.default_factory()
                for name, f in fields.items()}
    try:
        config = experiments.config_from_dict(doc)
    except experiments.ConfigError as exc:
        assert exc.field in fields or exc.field in doc
        return
    digest = experiments.config_hash(config)
    spelled_out = {**{name: getattr(config, name) for name in fields if name not in doc}, **doc}
    left_out = {name: value for name, value in doc.items() if value != defaults[name]}
    equal_docs = [dict(reversed(list(doc.items()))), spelled_out, left_out,
                  {**doc, "num_modes": config.num_modes[0]}]
    for equal in equal_docs[: 3 + (len(config.num_modes) == 1)]:
        assert experiments.config_hash(experiments.config_from_dict(equal)) == digest

    tiny = (max(config.num_modes) <= 4 and max(config.num_photons) <= 2
            and config.n_circuits == 1 and config.num_samples <= 20
            and len(config.chis or []) <= 3 and (config.max_seconds or 0.0) <= 5.0)
    if tiny:
        root = tmp_path_factory.mktemp("fuzz")
        if config.out_dir is not None:
            doc = {**doc, "out_dir": str(root / config.out_dir)}
        path = root / "c.json"
        path.write_text(json.dumps(doc))
        assert main([config.experiment, "--config", str(path)]) in (
            EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL, EXIT_RESOURCE)
