"""The three benchmark workloads and the checks on their outputs.

A workload is set up once (inputs built from the benchmark seed) and then
runs measured *units* of fixed size until the run's time is used up. Each
unit returns its timing, the operations it attempted and the ones that
failed; a failed output check counts as a failed operation.

Sizes are fixed (see README.md for why each was chosen):

- ``lossy_ee``: ``bosonet lossy-ee`` on one Haar circuit, M=16, N=4, mu=0.5,
  chi=256 (= 4^N, exact rank).
- ``lossless_ee``: ``bosonet lossless-ee`` on two circuits, M=32, N=5,
  chi=32 (= 2^N, exact rank).
- ``sample_lossy``: a lossy state with M=8, N=3, mu=0.5, chi=64 (exact rank)
  is evolved during set-up; a unit draws with ``sampling.sample_many``, runs an
  acceptance-size ``sampling.sample_counts`` and evaluates ``mpo.outcome_prob``
  over the exact outcome support.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bosonet.cli
from bosonet import circuit, experiments, mpo, oracle, sampling
from bosonet.linalg import DegradedStateError, NumericalFailure, TruncationPolicy

# Exact-rank invariants checked on every run.
TRACE_TOL = 1e-10
DISCARDED_MAX = 1e-20
# Deviation allowed from the oracle and from the recorded reference values.
VALUE_TOL = 1e-8
# Package guarantee: total variation distance at 10^5 samples.
TVD_MAX = 0.02

REFERENCE_FILE = Path(__file__).with_name("reference_max_ee.json")


def unit_seed(seed: int, unit: int) -> int:
    """CLI ``--seed`` of unit ``unit`` in a run with benchmark seed ``seed``."""
    return seed * 1000 + unit


def unit_rng(seed: int, unit: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(unit,))))


@dataclass
class UnitResult:
    seconds: float  # wall time of the unit's measured calls
    ops: int  # gates applied (evolution) or outcomes drawn (sampling)
    ops_seconds: float  # time of the calls that did ``ops``
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    kernel_s: float = 0.0  # host-speed kernel time around the unit (set by run.py)


class EvolutionWorkload:
    """One ``bosonet.cli.main`` call per unit, outputs checked from results.csv."""

    def __init__(self, experiment: str, config: dict, seed: int, workdir: Path,
                 reference_key: str):
        self.experiment = experiment
        self.config = config
        self.seed = seed
        self.workdir = workdir
        self.chi = config["chi_max"]
        self.reference = _load_reference().get(reference_key, {})
        self.prepared: dict[int, tuple[Path, int, int]] = {}

    def setup(self) -> None:
        self.prepare(0)

    def prepare(self, unit: int) -> tuple[Path, int, int]:
        """Write the unit's config file and count the gates of its circuits."""
        if unit not in self.prepared:
            useed = unit_seed(self.seed, unit)
            path = self.workdir / f"config_u{unit}.json"
            path.write_text(json.dumps(dict(self.config, seed=useed)))
            m = self.config["num_modes"][0]
            plans = [circuit.sample_haar_circuit(m, experiments.circuit_rng(useed, 0, c))
                     for c in range(self.config["n_circuits"])]
            layers = len(plans[0].layers())
            gates = sum(len(p.gates) for p in plans)
            self.prepared[unit] = (path, gates, layers)
        return self.prepared[unit]

    def run_cli(self, unit: int) -> tuple[float, int, str, list[dict]]:
        """(seconds, exit code, console output, results.csv rows) of one CLI call."""
        path, _, _ = self.prepare(unit)
        out_dir = self.workdir / f"out_u{unit}"
        argv = [self.experiment, "--config", str(path), "--out", str(out_dir)]
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = bosonet.cli.main(argv)
        seconds = time.perf_counter() - start
        rows = []
        if (out_dir / "results.csv").exists():
            with (out_dir / "results.csv").open(newline="") as fh:
                rows = list(csv.DictReader(fh))
        if out_dir.exists():
            for f in out_dir.iterdir():
                f.unlink()
            out_dir.rmdir()
        return seconds, code, captured.getvalue().strip(), rows

    def run_unit(self, unit: int) -> UnitResult:
        _, gates, layers = self.prepare(unit)
        n_circuits = self.config["n_circuits"]
        start = time.perf_counter()
        try:
            seconds, code, console, rows = self.run_cli(unit)
        except (NumericalFailure, DegradedStateError) as exc:
            seconds = time.perf_counter() - start
            return UnitResult(seconds, gates, seconds, n_circuits, n_circuits,
                              [f"unit {unit}: {type(exc).__name__}: {exc}"])
        if code != 0:
            return UnitResult(seconds, gates, seconds, n_circuits, n_circuits,
                              [f"unit {unit}: exit code {code}: {console}"])
        problems = self.check(unit, rows, layers)
        bad = {c for c, _ in problems}
        return UnitResult(seconds, gates, seconds, n_circuits, len(bad),
                          [f"unit {unit} circuit {c}: {msg}" for c, msg in problems])

    def check(self, unit: int, rows: list[dict], layers: int) -> list[tuple[int, str]]:
        """(circuit, message) for every failed exact-rank or reference check."""
        problems: list[tuple[int, str]] = []
        for c in range(self.config["n_circuits"]):
            got = sum(1 for r in rows if int(r["circuit"]) == c)
            if got != layers:
                problems.append((c, f"{got} rows, expected {layers}"))
        for r in rows:
            c = int(r["circuit"])
            if float(r["discarded_weight"]) > DISCARDED_MAX:
                problems.append((c, f"discarded weight {r['discarded_weight']}"))
            if int(r["max_bond_dim"]) > self.chi:
                problems.append((c, f"bond dimension {r['max_bond_dim']} > {self.chi}"))
            if "trace" in r and abs(float(r["trace"]) - 1.0) > TRACE_TOL:
                problems.append((c, f"trace {r['trace']}"))
        expected = self.reference.get(str(unit_seed(self.seed, unit)))
        if expected is not None:
            if len(rows) != len(expected):
                problems.append((0, "row count differs from the reference"))
            for r, want in zip(rows, expected):
                if abs(float(r["max_ee"]) - want) > VALUE_TOL:
                    problems.append((int(r["circuit"]),
                                     f"layer {r['layer']} max_ee {r['max_ee']} != {want!r}"))
        return problems


def lossy_ee(seed: int, workdir: Path) -> EvolutionWorkload:
    config = {"experiment": "lossy-ee", "num_modes": [16], "num_photons": [4],
              "loss": {"kind": "constant", "mu": 0.5}, "chi_max": 256, "n_circuits": 1}
    return EvolutionWorkload("lossy-ee", config, seed, workdir, "lossy_ee")


def lossless_ee(seed: int, workdir: Path) -> EvolutionWorkload:
    config = {"experiment": "lossless-ee", "num_modes": [32], "num_photons": [5],
              "chi_max": 32, "n_circuits": 2}
    return EvolutionWorkload("lossless-ee", config, seed, workdir, "lossless_ee")


class SampleWorkload:
    """Reads of one exact-rank lossy state: draws, a histogram and outcome probabilities."""

    MODES, PHOTONS, MU, CHI = 8, 3, 0.5, 64
    # Short units, so that the median over a run's many units is steady.
    DRAWS = 200
    COUNTS = 100_000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.plan = circuit.sample_haar_circuit(
            self.MODES, experiments.circuit_rng(self.seed, 0, 0))
        self.state = mpo.init_lossy(self.PHOTONS, self.MODES, self.MU)
        mpo.apply_plan_vec(self.state, self.plan, TruncationPolicy(chi_max=self.CHI))
        self.support = [o for n in range(self.PHOTONS + 1)
                        for o in oracle.enumerate_occupations(self.MODES, n)]
        self.exact: dict | None = None
        self.state_problems: list[str] = []

    def check_state(self) -> list[str]:
        """Exact-rank invariants of the evolved state (checked once, untimed)."""
        problems = []
        tr = mpo.trace(self.state)
        if abs(tr - 1.0) > TRACE_TOL:
            problems.append(f"trace {tr!r}")
        if self.state.discarded_weight > DISCARDED_MAX:
            problems.append(f"discarded weight {self.state.discarded_weight!r}")
        if self.state.max_bond_dimension() > self.CHI:
            problems.append(f"bond dimension {self.state.max_bond_dimension()} > {self.CHI}")
        return problems

    def run_unit(self, unit: int) -> UnitResult:
        rng = unit_rng(self.seed, unit)
        attempted = self.DRAWS + 1 + len(self.support)
        start = time.perf_counter()
        try:
            draws = sampling.sample_many(self.state, rng, self.DRAWS)
            draw_seconds = time.perf_counter() - start
            counts = sampling.sample_counts(self.state, rng, self.COUNTS)
            probs = [mpo.outcome_prob(self.state, o) for o in self.support]
        except (NumericalFailure, DegradedStateError) as exc:
            seconds = time.perf_counter() - start
            return UnitResult(seconds, self.DRAWS, seconds, attempted, attempted,
                              [f"unit {unit}: {type(exc).__name__}: {exc}"])
        seconds = time.perf_counter() - start
        problems = self.check(draws, counts, probs)
        failed = attempted if self.state_problems else min(len(problems), attempted)
        return UnitResult(seconds, self.DRAWS, draw_seconds, attempted, failed,
                          [f"unit {unit}: {msg}" for msg in problems])

    def check(self, draws, counts: dict, probs: list[float]) -> list[str]:
        """One message per failed operation, against the permanent oracle."""
        if self.exact is None:  # once per run, after the first unit, untimed
            u = circuit.circuit_to_unitary(self.plan)
            self.exact = oracle.exact_lossy_distribution(u, self.PHOTONS, self.MU).entries
            self.state_problems = self.check_state()
        problems = list(self.state_problems)
        measured = {}
        for o, p in zip(self.support, probs):
            want = self.exact.get(o, 0.0)
            if abs(p - want) > VALUE_TOL:
                problems.append(f"outcome_prob{o} = {p!r}, oracle {want!r}")
            measured[o] = p
        for d in draws:
            p = measured.get(d.outcome)
            if p is None or abs(d.joint_probability - p) > VALUE_TOL:
                problems.append(f"draw {d.outcome} joint {d.joint_probability!r} != "
                                f"outcome_prob {p!r}")
        total = sum(counts.values())
        tvd = 0.5 * sum(abs(counts.get(o, 0) / max(total, 1) - self.exact.get(o, 0.0))
                        for o in set(counts) | set(self.exact))
        if total != self.COUNTS or tvd > TVD_MAX:
            problems.append(f"sample_counts: {total} draws, TVD {tvd:.4f}")
        return problems


def truncated_probe() -> tuple[int, int]:
    """(failing draws, draws) of ``sampling.sample`` on a fixed truncated state.

    Known defect: below exact rank, a conditional mass falls below the
    sampler's negative-mass tolerance and the draw raises NumericalFailure.
    The probe is fixed (M=16, N=3, mu=0.5, chi=32, seed 1, 400 draws) and is
    never re-seeded, so its count is comparable across versions.
    """
    seed, modes, photons, chi, n_draws = 1, 16, 3, 32, 400
    plan = circuit.sample_haar_circuit(modes, experiments.circuit_rng(seed, 0, 0))
    state = mpo.init_lossy(photons, modes, 0.5)
    mpo.apply_plan_vec(state, plan, TruncationPolicy(chi_max=chi))
    rng = experiments.circuit_rng(seed, 0, 0, stream=1)
    failures = 0
    for _ in range(n_draws):
        try:
            sampling.sample(state, rng)
        except (NumericalFailure, DegradedStateError):
            failures += 1
    return failures, n_draws


def _load_reference() -> dict:
    if REFERENCE_FILE.exists():
        return json.loads(REFERENCE_FILE.read_text())
    return {}


WORKLOADS = {
    "lossy_ee": lossy_ee,
    "lossless_ee": lossless_ee,
    "sample_lossy": SampleWorkload,
}
