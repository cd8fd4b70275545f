"""Reproducible experiment driver: configs, seeded ensembles, and recipes.

Every experiment follows the same shape: a declarative :class:`ExperimentConfig`
(usually parsed from a JSON file) names a recipe, the sweep ranges, and one
master seed; :func:`run` executes the recipe over an ensemble of circuits and
returns a :class:`RunRecord`, an aborted or numerically failed run's too.  Each
unit (one circuit of one sweep point) returns its rows and tables, and one loop
joins them in unit order, so an aborted run keeps its completed units' rows,
sample files and timings, though no summary.  A run of several units runs them
in worker processes forked from the caller, one per CPU the caller may use, and
its tables do not depend on how many.  :func:`run_to_files` writes the record's
tables, ``results.csv``, ``summary.csv``, ``timings.csv`` and
``samples_c<k>.csv``, and ``meta.json``, after removing those an earlier run
left in the same directory; one writer, ``_write_csv``, writes every table,
with LF line ends.  The data tables are byte-identical across reruns of the
same (config, seed, software version), whatever the BLAS thread count the
caller set, as :func:`run` pins one; wall-clock timings go only to
``meta.json`` and ``timings.csv``.

:func:`validate_config` checks each field against its row of one table, ``_FIELDS``:
type, range, and exactly the experiments that read it (the others must leave it
at its default); then the rules that span fields.
Each failure is a :class:`ConfigError` naming the field, a missing required one included.

A sweep point is ``(M, N, loss)``: ``loss`` holds the ``gamma``, ``beta`` and
``mu`` columns of a lossy point, is empty for a lossless one, and every row of
the point carries it.  Each ensemble summary row is the mean, standard error
and count of one column over the rows that share the summary's key columns.

Randomness policy: the generator for ensemble member ``c`` of sweep point
``p`` is ``PCG64(SeedSequence(seed, spawn_key=(p, c)))``, and auxiliary
streams (e.g. the sampler) append one more integer to the spawn key.  The
derivation is counter-based, so running circuits in any order or resuming
after a checkpoint cannot change any result.  Sweep points are numbered in
the order the config enumerates them.  Only ``prob`` reuses a circuit across
a point axis: circuit ``c`` of every N is stream ``(0, c)``.  chi is no point
axis; ``trunc-error`` runs each chi on its unit's one circuit.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
import time
import zipfile
from dataclasses import MISSING, asdict, dataclass, field
from numbers import Integral, Real
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from . import __version__, chain, mpo, mps, sampling
from .circuit import CircuitPlan, circuit_to_unitary, plan_fingerprint, sample_haar_circuit
from .entropy import lossy_mpo_ee, partition_angles
from .linalg import DegradedStateError, NumericalFailure, TruncationPolicy, single_blas_thread
from .oracle import (
    dense_evolve,
    dense_reduced_spectrum,
    exact_lossy_distribution,
)
from .snapshots import load_state, save_state

#: Config fields that do not influence the science and are excluded from the
#: config hash: where outputs go, how often to checkpoint, and when to stop.
_PLUMBING_FIELDS = ("out_dir", "checkpoint_every", "max_seconds")

#: How many processes run the units of a run: None for one per CPU this process
#: may run on.  Only tests set it; runs have no other knob for it.
PROCESSES: int | None = None


class ConfigError(ValueError):
    """A config field is missing, unknown, or invalid."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


class ResourceAbort(RuntimeError):
    """The wall-clock budget is exhausted; the unit loop attaches the aborted ``record``."""


@dataclass(frozen=True)
class LossSpec:
    """Transmissivity model: a constant mu or the power law mu = beta * N**(gamma - 1)."""

    kind: str
    mu: float | None = None
    beta: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        if self.kind == "constant":
            if self.mu is None or not 0.0 <= self.mu <= 1.0:
                raise ValueError(f"constant loss needs mu in [0, 1], got {self.mu}")
        elif self.kind == "power_law":
            if self.beta is None or self.beta <= 0.0:
                raise ValueError(f"power-law loss needs beta > 0, got {self.beta}")
            if self.gamma is None or not 0.0 < self.gamma <= 1.0:
                raise ValueError(f"power-law loss needs gamma in (0, 1], got {self.gamma}")
        else:
            raise ValueError(f"unknown loss kind {self.kind!r}")


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run."""

    experiment: str
    seed: int
    num_modes: list[int]
    num_photons: list[int]
    loss: LossSpec | None = None
    gammas: list[float] | None = None
    betas: list[float] | None = None
    alphas: list[float] = field(default_factory=lambda: [1.0])
    chi_max: int = 256
    chis: list[int] | None = None
    n_circuits: int = 1
    num_samples: int = 0
    outcomes: list[list[int]] | None = None
    tolerance: float = 1e-8
    out_dir: str | None = None
    checkpoint_every: int = 0
    max_seconds: float | None = None


def config_from_dict(doc: dict[str, Any]) -> ExperimentConfig:
    """Build and validate a config from a parsed JSON document."""
    fields = ExperimentConfig.__dataclass_fields__
    for key in doc:
        if key not in fields:
            raise ConfigError(key, "unknown field")
    parsed = {name: MISSING for name, f in fields.items()
              if f.default is MISSING and f.default_factory is MISSING}
    parsed.update(doc)
    if parsed.get("loss") is not None:
        parsed["loss"] = _loss_from_dict(parsed["loss"])
    for rng_field in ("num_modes", "num_photons"):
        if isinstance(parsed[rng_field], int):
            parsed[rng_field] = [parsed[rng_field]]
    config = ExperimentConfig(**parsed)
    validate_config(config)
    # A real is hashed as a float however it was spelled, so 1 and 1.0 name one run.
    for name, (kind, is_list, *_) in _FIELDS.items():
        value = getattr(config, name)
        if kind is Real and value is not None:
            setattr(config, name, [float(v) for v in value] if is_list else float(value))
    return config


def _loss_from_dict(doc: Any) -> LossSpec:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError("loss", 'expected {"kind": "constant"|"power_law", ...}')
    kind, params = doc["kind"], {"constant": ("mu",), "power_law": ("beta", "gamma")}
    if not isinstance(kind, str) or kind not in params:
        raise ConfigError("loss", f"unknown kind {kind!r}")
    if set(doc) != {"kind", *params[kind]}:
        raise ConfigError("loss", f"{kind} loss takes kind and {' and '.join(params[kind])}, "
                                  f"got {sorted(doc)}")
    for name in params[kind]:
        if not _is_a(doc[name], Real):
            raise ConfigError("loss", f"{name} must be a finite real number, got {doc[name]!r}")
    try:
        return LossSpec(kind=kind, **{name: float(doc[name]) for name in params[kind]})
    except ValueError as exc:
        raise ConfigError("loss", str(exc)) from None


#: What each element type of :data:`_FIELDS` accepts, in words.
_KINDS = {Integral: "a 64-bit integer", Real: "a finite real number", str: "a string",
          list: "a list of 64-bit integers", LossSpec: "a LossSpec"}


def _is_a(value: Any, kind: type) -> bool:
    """Whether ``value`` is a ``kind`` of :data:`_KINDS`.  A bool is no number, and a
    number must fit its machine type: an int64, or a finite float."""
    if kind is list:
        return isinstance(value, (list, tuple)) and all(_is_a(n, Integral) for n in value)
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    if kind is Integral:
        return -2**63 <= value < 2**63
    return kind is not Real or abs(value) <= sys.float_info.max  # a finite float; nan fails too


#: Experiment groups that more than one rule names.  ``analytic-ee`` evolves no
#: state and ``oracle-check`` evolves at exact rank, so neither truncates.
_LOSSLESS = ("lossless-ee", "fock-ee")
_NEEDS_LOSS = ("lossy-ee", "analytic-ee", "trunc-error")
_ONE_LOSS_POINT = ("sample", "prob", "oracle-check")
_LOSSY = _NEEDS_LOSS + _ONE_LOSS_POINT

#: One row per checked config field: element type (a key of :data:`_KINDS`),
#: whether the field is a nonempty list of distinct values, the allowed range of
#: one value and that range in words, and exactly the experiments that read the
#: field (empty: all of them).  An experiment that does not read a field requires
#: its default: a hashed field would change only the hash, a plumbing one nothing.
_FIELDS: dict[str, tuple[type, bool, Callable[[Any], bool], str, tuple[str, ...]]] = {
    "experiment": (str, False, lambda v: v in _RECIPES, "a known experiment", ()),
    "seed": (Integral, False, lambda v: v >= 0, ">= 0", ()),
    "num_modes": (Integral, True, lambda v: v >= 2 and v % 2 == 0, "even and >= 2", ()),
    "num_photons": (Integral, True, lambda v: v >= 0, ">= 0", ()),
    "loss": (LossSpec, False, lambda v: True, "a LossSpec", _LOSSY),
    "gammas": (Real, True, lambda v: 0 < v <= 1, "in (0, 1]", _LOSSY),
    "betas": (Real, True, lambda v: v > 0, "> 0", _LOSSY),
    "alphas": (Real, True, lambda v: v >= 0, ">= 0", (*_LOSSLESS, "lossy-ee", "analytic-ee")),
    "chi_max": (Integral, False, lambda v: v >= 1, ">= 1",
                (*_LOSSLESS, "lossy-ee", "sample", "prob")),
    "chis": (Integral, True, lambda v: v >= 1, ">= 1", ("trunc-error",)),
    "n_circuits": (Integral, False, lambda v: v >= 1, ">= 1", ()),
    "num_samples": (Integral, False, lambda v: v >= 1, ">= 1", ("sample",)),
    "outcomes": (list, True, lambda v: min(v, default=0) >= 0, "nonnegative occupations",
                 ("prob",)),
    "tolerance": (Real, False, lambda v: v > 0, "> 0", ("oracle-check",)),
    "out_dir": (str, False, lambda v: True, "a path", ()),
    "checkpoint_every": (Integral, False, lambda v: v >= 0, ">= 0 (0 disables)",
                         (*_LOSSLESS, "lossy-ee")),
    "max_seconds": (Real, False, lambda v: v >= 0, ">= 0", ()),
}


def validate_config(config: ExperimentConfig) -> None:
    """Check each field against its :data:`_FIELDS` row, then the rules that span fields."""
    defaults = {name: f.default if f.default_factory is MISSING else f.default_factory()
                for name, f in ExperimentConfig.__dataclass_fields__.items()}
    for name, (kind, is_list, ok, words, readers) in _FIELDS.items():
        value, default = getattr(config, name), defaults[name]
        if value is MISSING:
            raise ConfigError(name, "missing")
        if value is None and default is None:
            continue  # optional field left unset
        if is_list and (not isinstance(value, (list, tuple)) or not value):
            raise ConfigError(name, f"must be a nonempty list, got {value!r}")
        values = value if is_list else [value]
        for v in values:
            if not _is_a(v, kind):
                raise ConfigError(name, f"expected {_KINDS[kind]}, got {v!r}")
        if readers and config.experiment not in readers:
            if value != default:
                raise ConfigError(name, f"{config.experiment} does not read {name}")
            continue
        for v in values:
            if not ok(v):
                raise ConfigError(name, f"must be {words}, got {v!r}")
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ConfigError(name, f"sweep values must be distinct, {repeated[0]!r} repeats")

    if max(config.num_photons) > max(config.num_modes):  # grids skip the points with N > M
        raise ConfigError("num_photons", f"photon counts must be <= max(num_modes), "
                                         f"got {max(config.num_photons)}")
    if (config.gammas is None) != (config.betas is None):
        raise ConfigError("gammas", "gammas and betas must be given together")
    if config.gammas is not None and config.loss is not None:
        raise ConfigError("loss", "give either loss or gammas/betas, not both")
    if config.experiment in _NEEDS_LOSS and config.loss is None and config.gammas is None:
        raise ConfigError("loss", f"{config.experiment} needs loss or gammas/betas")
    for _, n, loss in _sweep_points(config):
        if loss and not 0.0 <= loss["mu"] <= 1.0:
            raise ConfigError("betas", f"survival probability {loss['mu']:.4g} outside [0, 1] "
                                       f"at N={n}, gamma={loss['gamma']}, beta={loss['beta']}")
    if config.experiment in _ONE_LOSS_POINT and len(_loss_points(config)) > 1:
        raise ConfigError("gammas", f"{config.experiment} runs use a single loss point")
    if config.experiment == "sample" and len(_sweep_points(config)) != 1:
        raise ConfigError("num_modes", "sample runs use a single (M, N) point")
    if config.experiment == "trunc-error" and not config.chis:
        raise ConfigError("chis", "trunc-error needs chis")
    if config.experiment == "prob":
        if not config.outcomes:
            raise ConfigError("outcomes", "prob experiment needs a list of outcomes")
        if len(config.num_modes) != 1:
            raise ConfigError("num_modes", "prob runs use a single mode count")
        for occ in config.outcomes:
            if len(occ) != config.num_modes[0]:
                raise ConfigError("outcomes", f"outcome {occ} does not have "
                                              f"{config.num_modes[0]} modes")
    if config.experiment == "oracle-check" and (
            max(config.num_modes) > 6 or max(config.num_photons) > 3):
        raise ConfigError("num_modes", "oracle-check grid is limited to M <= 6, N <= 3")


def _loss_points(config: ExperimentConfig) -> list[tuple[float, float]]:
    """Normalize the loss description to (gamma, beta) pairs.

    Constant survival mu is the gamma = 1 power law with beta = mu, so every
    recipe sweeps one uniform parameterization.
    """
    if config.gammas is not None and config.betas is not None:
        return [(g, b) for g in config.gammas for b in config.betas]
    if config.loss is None:
        return []
    if config.loss.kind == "constant":
        return [(1.0, config.loss.mu)]
    return [(config.loss.gamma, config.loss.beta)]


def _mu_at(gamma: float, beta: float, num_photons: int) -> float:
    """Per-photon transmissivity beta * N**(gamma - 1) of N input photons (1 if none)."""
    if num_photons < 1:
        return 1.0
    return beta * num_photons ** (gamma - 1.0)


def config_hash(config: ExperimentConfig) -> str:
    """Short digest of the science-bearing config fields.

    Output location, checkpoint cadence, and the wall-clock budget cannot
    change any emitted number, so they are excluded; everything else
    (including the seed) is hashed canonically.
    """
    doc = asdict(config)
    for key in _PLUMBING_FIELDS:
        doc.pop(key, None)
    # The removed tail-cut field was null in every config ever accepted; hashing
    # it as null keeps their digests, and so their checkpoint names.
    doc["weight_threshold"] = None
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


#: One table to write: its columns, its rows, and its ``# key=value`` comments.
Table = tuple[list[str], list[dict[str, Any]], dict[str, Any]]
#: What one unit returns: its ``results.csv`` rows, and its tables by file name.
UnitOutput = tuple[list[dict[str, Any]], dict[str, Table]]


@dataclass
class RunRecord:
    """Everything one run produced, before any files are written.

    Recipes fill in the tables; :func:`run` adds the config hash, experiment
    name, wall time, and the BLAS and process count the recipe ran with.
    ``tables`` holds the tables beside ``results.csv`` and ``summary.csv``, by
    file name:
    ``(columns, rows, comments)``, where each item of ``comments`` is written
    as a ``# key=value`` line above the header, in key order.
    """

    columns: list[str]
    rows: list[dict[str, Any]]
    summary_columns: list[str] = field(default_factory=list)
    summary: list[dict[str, Any]] = field(default_factory=list)
    config_hash: str = ""
    experiment: str = ""
    wall_time: float = 0.0
    status: str = "ok"
    message: str = ""
    tables: dict[str, Table] = field(default_factory=dict)
    #: ``{"vendor", "threads"}`` of numpy's OpenBLAS during the run; None if none was found.
    blas: dict[str, Any] | None = None
    #: How many processes ran the units: 1 on the serial path.
    processes: int = 1


def circuit_rng(seed: int, point_index: int, circuit_index: int, stream: int = 0
                ) -> np.random.Generator:
    """The documented counter-based stream splitting rule."""
    key = (point_index, circuit_index) if stream == 0 else (point_index, circuit_index, stream)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


def _sweep_points(config: ExperimentConfig) -> list[tuple[int, int, dict[str, float]]]:
    """The (M, N, loss) sweep points in seed order, skipping N > M.

    ``loss`` holds the ``gamma``, ``beta`` and ``mu`` columns of a lossy point
    and is empty for a lossless one.  A point's position in this list is the
    point index of its circuit streams.
    """
    return [(m, n, {} if lp is None else {"gamma": lp[0], "beta": lp[1], "mu": _mu_at(*lp, n)})
            for m in config.num_modes for n in config.num_photons if n <= m
            for lp in _loss_points(config) or [None]]


def _process_count(config: ExperimentConfig) -> int:
    """How many processes run the units of ``config``: :data:`PROCESSES`, or one per
    CPU this process may run on, at most one per unit.  1 is the serial path, which
    is also taken where the platform has no ``"fork"`` start method."""
    if PROCESSES is not None:
        cpus = PROCESSES
    elif hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    count = min(cpus, len(_sweep_points(config)) * config.n_circuits)
    if count < 2:
        return 1
    import multiprocessing

    return count if "fork" in multiprocessing.get_all_start_methods() else 1


def _run_units(config: ExperimentConfig, columns: list[str],
               run_unit: Callable[..., UnitOutput]) -> RunRecord:
    """Run ``run_unit(point_index, circuit, M, N, loss)`` per unit of the sweep, and
    join what the units return, ``(rows, tables)``, in unit order into a record
    without a summary.

    The units run in this process, one after another, or in forked workers
    (:func:`_forked_outputs`) when :func:`_process_count` is above 1; either way
    the record is the same.  A unit's ``tables`` are by file name; rows of a name
    several units return are joined in unit order.  Each unit makes its own
    budget checks.  When one raises :class:`ResourceAbort`, the abort leaves
    carrying the record of the units before it, their rows and tables, with
    status ``aborted``; outputs of units after it are dropped.
    """
    units = [(point_index, c, m, n, loss)
             for point_index, (m, n, loss) in enumerate(_sweep_points(config))
             for c in range(config.n_circuits)]
    processes = _process_count(config)
    outputs = (_forked_outputs(run_unit, units, processes) if processes > 1
               else (run_unit(*unit) for unit in units))
    record = RunRecord(columns, [])
    try:
        for rows, tables in outputs:
            record.rows.extend(rows)
            for name, (table_columns, table_rows, comments) in tables.items():
                joined = record.tables.setdefault(name, (table_columns, [], comments))
                joined[1].extend(table_rows)
    except ResourceAbort as abort:
        record.status, record.message, abort.record = "aborted", str(abort), record
        raise
    finally:
        outputs.close()
    return record


class _WorkerTraceback(Exception):
    """The traceback, as text, of an exception that a unit raised in a worker process."""


def _forked_outputs(run_unit: Callable[..., UnitOutput], units: list[tuple],
                    processes: int) -> Iterator[UnitOutput]:
    """``run_unit(*unit)`` for each of ``units``, in unit order, computed by
    ``processes`` workers forked from this process; a worker takes the next unit
    when it has sent the output of its last.

    Once a unit raises, no later unit is handed out.  The units still running
    finish (an aborting one saves its checkpoint), then the outputs of the units
    before the first that raised, in unit order, are yielded and its exception is
    raised, as on the serial path.  Workers inherit this process's state,
    the BLAS thread pin included; every worker is ended and reaped on every exit.
    """
    import multiprocessing.connection

    import numpy.random  # noqa: F401  numpy imports it lazily: once here, not once per worker

    # Process.start flushes stdout and stderr before it forks, so a line still
    # buffered here is not printed again by every worker.
    context = multiprocessing.get_context("fork")
    workers: dict[Any, Any] = {}  # our end of a worker's pipe -> the worker
    busy: dict[Any, int] = {}  # our end of a busy worker's pipe -> its unit's index
    outcomes: dict[int, tuple[bool, Any]] = {}
    handed = done = 0
    first_raised = len(units)

    def hand_out(conn) -> None:
        nonlocal handed
        if handed < first_raised:
            conn.send(handed)
            busy[conn] = handed
            handed += 1

    try:
        for _ in range(processes):
            ours, theirs = context.Pipe()
            worker = context.Process(target=_work, args=(theirs, [*workers, ours], run_unit, units))
            worker.start()
            theirs.close()
            workers[ours] = worker
        for conn in workers:
            hand_out(conn)
        while True:
            while done < first_raised and done in outcomes:
                yield outcomes.pop(done)[1]
                done += 1
            if done == len(units):
                return
            if not busy:
                error, text = outcomes[first_raised][1]
                raise error from _WorkerTraceback(text)
            for conn in multiprocessing.connection.wait(list(busy)):
                index = busy.pop(conn)
                try:
                    outcomes[index] = conn.recv()
                except EOFError:
                    workers[conn].join()
                    point_index, c = units[index][:2]
                    raise RuntimeError(
                        f"the worker process running circuit {c} of sweep point "
                        f"{point_index} exited with code {workers[conn].exitcode}") from None
                if not outcomes[index][0]:
                    first_raised = min(first_raised, index)
                hand_out(conn)
    finally:
        for conn, worker in workers.items():
            if conn in busy:
                worker.kill()
            conn.close()
        for worker in workers.values():
            worker.join()


def _work(conn, inherited: list, run_unit: Callable[..., UnitOutput], units: list[tuple]
          ) -> None:
    """A worker's loop: run each unit whose index arrives on ``conn`` and send back
    ``(True, output)``, or ``(False, (exception, traceback text))`` if it raises,
    until the parent closes its end.  ``inherited`` are the parent's ends of the
    pipes forked so far, which the worker closes so that a closed end reads as EOF.
    """
    for end in inherited:
        end.close()
    while True:
        try:
            index = conn.recv()
        except EOFError:
            return
        try:
            outcome = True, run_unit(*units[index])
        except Exception as exc:
            import traceback  # only here: its import would add to every run's start-up

            outcome = False, (exc, traceback.format_exc())
        conn.send(outcome)


def _groups(rows: list[dict[str, Any]], keys: list[str]) -> list[list[dict[str, Any]]]:
    """``rows`` grouped by their ``keys`` columns, in first-seen order.

    Each group keeps row order, which is the order the values were computed
    in, so statistics over a group are the same floats a scan per point gives.
    """
    groups: dict[tuple, list[dict[str, Any]]] = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in keys), []).append(row)
    return list(groups.values())


def _summarize(rows: list[dict[str, Any]], keys: list[str], value: str,
               mean_col: str, count_col: str) -> list[dict[str, Any]]:
    """One summary row per group of ``rows``: its ``keys`` columns and the
    mean, standard error and count of its ``value`` column."""
    summary = []
    for group in _groups(rows, keys):
        mean, stderr = _mean_stderr([row[value] for row in group])
        summary.append({**{k: group[0][k] for k in keys},
                        mean_col: mean, "stderr": stderr, count_col: len(group)})
    return summary


class _Budget:
    """Wall-clock budget shared by one run."""

    def __init__(self, max_seconds: float | None):
        self.start = time.monotonic()
        self.deadline = None if max_seconds is None else self.start + max_seconds

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise ResourceAbort("wall-clock budget exhausted")

    def elapsed(self) -> float:
        return time.monotonic() - self.start


class _Checkpointer:
    """Per-(point, circuit) snapshot files under ``out_dir/checkpoints``.

    A snapshot after layer k holds the rows of layers 1..k, ``len(alphas)`` per layer.
    """

    def __init__(self, config: ExperimentConfig, digest: str):
        self.every = config.checkpoint_every
        self.digest = digest
        self.rows_per_layer = len(config.alphas)
        self.root: Path | None = None
        if config.out_dir is not None and config.checkpoint_every > 0:
            self.root = Path(config.out_dir) / "checkpoints"

    def path(self, point_index: int, circuit_index: int) -> Path | None:
        if self.root is None:
            return None
        return self.root / f"{self.digest}_p{point_index}_c{circuit_index}.npz"

    def restore(self, point_index: int, circuit_index: int, num_layers: int):
        path = self.path(point_index, circuit_index)
        if path is None or not path.exists():
            return None
        try:
            state, extra = load_state(path)
        except (ValueError, zipfile.BadZipFile, EOFError):
            return None  # another snapshot format, a bad header, or a file cut short
        if extra.get("config_hash") != self.digest:
            return None
        layers_done, rows = extra.get("layers_done"), extra.get("rows")
        if type(layers_done) is not int or layers_done < 0 or not (
                isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
            return None  # progress fields missing or of the wrong type
        if layers_done > num_layers or [row.get("layer") for row in rows] != [
                layer for layer in range(1, layers_done + 1) for _ in range(self.rows_per_layer)]:
            return None  # progress that this circuit of num_layers layers cannot have
        return state, layers_done, rows

    def save(self, point_index: int, circuit_index: int, state, layers_done: int,
             rows: list[dict[str, Any]]) -> None:
        path = self.path(point_index, circuit_index)
        if path is None:
            return
        save_state(path, state, extra={
            "config_hash": self.digest,
            "layers_done": layers_done,
            "rows": rows,
        })

    def clear(self, point_index: int, circuit_index: int) -> None:
        path = self.path(point_index, circuit_index)
        if path is not None and path.exists():
            path.unlink()


def _evolve_by_layers(
    state,
    plan: CircuitPlan,
    policy: TruncationPolicy,
    on_layer: Callable[[int], list[dict[str, Any]]],
    budget: _Budget,
    ckpt: _Checkpointer,
    point_index: int,
    circuit_index: int,
):
    """Drive one circuit layer by layer with checkpoint and budget hooks."""
    layers = plan.layers()
    rows: list[dict[str, Any]] = []
    start_layer = 0
    restored = ckpt.restore(point_index, circuit_index, len(layers))
    if restored is not None:
        state, start_layer, rows = restored
    for layer_index in range(start_layer, len(layers)):
        try:
            budget.check()
        except ResourceAbort:
            ckpt.save(point_index, circuit_index, state, layer_index, rows)
            raise
        for gate in layers[layer_index]:
            chain.apply_gate(state, gate, policy)
        rows.extend(on_layer(layer_index, state))
        if ckpt.every > 0 and (layer_index + 1) % ckpt.every == 0:
            ckpt.save(point_index, circuit_index, state, layer_index + 1, rows)
    ckpt.clear(point_index, circuit_index)
    return state, rows


# ---------------------------------------------------------------------------
# recipes
# ---------------------------------------------------------------------------


def _ee_recipe(config: ExperimentConfig, digest: str, budget: _Budget) -> RunRecord:
    """Entropy-growth sweeps: lossless-ee, fock-ee (bunched input), lossy-ee."""
    lossy = config.experiment == "lossy-ee"
    bunched = config.experiment == "fock-ee"
    loss_cols = ["gamma", "beta", "mu"] if lossy else []
    keys = ["config_hash", "M", "N"] + loss_cols + ["alpha"]
    columns = (["config_hash", "M", "N"] + loss_cols
               + ["chi", "circuit", "layer", "alpha", "max_ee", "peak_bond",
                  "max_bond_dim", "discarded_weight"]
               + (["trace"] if lossy else []))
    ckpt = _Checkpointer(config, digest)
    policy = TruncationPolicy(config.chi_max)

    def run_unit(point_index: int, c: int, m: int, n: int, loss) -> UnitOutput:
        plan = sample_haar_circuit(m, circuit_rng(config.seed, point_index, c))
        base: dict[str, Any] = {"config_hash": digest, "M": m, "N": n, **loss,
                                "chi": policy.chi_max, "circuit": c}
        state = _initial_state(m, n, loss, bunched)

        def on_layer(layer_index: int, st) -> list[dict[str, Any]]:
            shared = {**base, "layer": layer_index + 1, "max_bond_dim": st.max_bond_dimension(),
                      "discarded_weight": st.discarded_weight}
            if lossy:
                shared["trace"] = mpo.trace(st)
                sampling.check_degraded(shared["trace"], "lossy-ee: trace",
                                        f"after layer {layer_index + 1} of circuit {c} "
                                        f"(M={m}, N={n})")
            out = []
            for alpha in config.alphas:
                bond, value = chain.max_bond_entropy(st, alpha)
                out.append({**shared, "alpha": alpha, "max_ee": value, "peak_bond": bond})
            return out

        _, rows = _evolve_by_layers(state, plan, policy, on_layer, budget, ckpt, point_index, c)
        return rows, {}

    record = _run_units(config, columns, run_unit)
    peaks = [max(group, key=lambda r: r["max_ee"])
             for group in _groups(record.rows, keys + ["circuit"])]
    record.summary_columns = keys + ["mean_peak_ee", "stderr", "n_circuits"]
    record.summary = _summarize(peaks, keys, "max_ee", "mean_peak_ee", "n_circuits")
    return record


def _analytic_recipe(config: ExperimentConfig, digest: str, budget: _Budget) -> RunRecord:
    """Closed-form lossy entropy averaged over an ensemble of circuits."""
    columns = ["config_hash", "M", "N", "gamma", "beta", "mu", "alpha", "circuit", "ee"]

    def run_unit(point_index: int, c: int, m: int, n: int, loss) -> UnitOutput:
        budget.check()
        plan = sample_haar_circuit(m, circuit_rng(config.seed, point_index, c))
        angles = partition_angles(circuit_to_unitary(plan), m // 2)
        return [{"config_hash": digest, "M": m, "N": n, **loss, "alpha": alpha,
                 "circuit": c, "ee": lossy_mpo_ee(angles, loss["mu"], alpha, n)}
                for alpha in config.alphas], {}

    record = _run_units(config, columns, run_unit)
    record.summary_columns = ["N", "M", "gamma", "beta", "alpha", "mean_ee", "stderr",
                              "n_samples", "config_hash"]
    record.summary = _summarize(record.rows, ["config_hash", "M", "N", "gamma", "beta",
                                              "alpha"], "ee", "mean_ee", "n_samples")
    return record


def _trunc_recipe(config: ExperimentConfig, digest: str, budget: _Budget) -> RunRecord:
    """Bond-budget sweep: final norm deficit per chi, one circuit per index.

    Every chi runs on its unit's one circuit, so the deficit column is comparable
    across chi.  A degraded state is not refused: a ``one_minus_trace`` of 1 is
    the measurement itself.
    """
    keys = ["config_hash", "M", "N", "gamma", "beta", "mu", "chi"]
    columns = keys + ["circuit", "one_minus_trace", "discarded_weight", "max_bond_dim"]

    def run_unit(point_index: int, c: int, m: int, n: int, loss) -> UnitOutput:
        plan = sample_haar_circuit(m, circuit_rng(config.seed, point_index, c))
        out, timings = [], []
        for chi in config.chis:
            budget.check()
            t0 = time.perf_counter()
            state = _build_state(m, n, loss, plan, TruncationPolicy(chi))
            wall = time.perf_counter() - t0
            out.append({"config_hash": digest, "M": m, "N": n, **loss, "chi": chi,
                        "circuit": c, "one_minus_trace": 1.0 - mpo.trace(state),
                        "discarded_weight": state.discarded_weight,
                        "max_bond_dim": state.max_bond_dimension()})
            timings.append({"M": m, "N": n, "chi": chi, "circuit": c, "wall_seconds": wall})
        return out, {"timings.csv": (["M", "N", "chi", "circuit", "wall_seconds"], timings, {})}

    record = _run_units(config, columns, run_unit)
    record.summary_columns = keys + ["mean_one_minus_trace", "stderr", "n_circuits"]
    record.summary = _summarize(record.rows, keys, "one_minus_trace", "mean_one_minus_trace",
                                "n_circuits")
    return record


def _initial_state(m: int, n: int, loss: dict[str, float], bunched: bool = False):
    """The input of ``n`` photons, one in each of the first ``n`` of ``m`` modes
    (all in mode 1 when ``bunched``): the lossy MPO at ``loss["mu"]``, or the
    pure MPS when ``loss`` is empty."""
    if loss:
        return mpo.init_lossy(n, m, loss["mu"])
    return mps.init_fock(tuple([n] + [0] * (m - 1) if bunched else [1] * n + [0] * (m - n)))


def _build_state(m: int, n: int, loss: dict[str, float], plan: CircuitPlan,
                 policy: TruncationPolicy):
    """The unbunched ``_initial_state`` evolved through ``plan``."""
    state = _initial_state(m, n, loss)
    chain.apply_plan(state, plan, policy)
    return state


def _sample_recipe(config: ExperimentConfig, digest: str, budget: _Budget) -> RunRecord:
    [(m, n, loss)] = _sweep_points(config)  # validate_config allows one (M, N, loss) point
    columns = ["config_hash", "M", "N", "mu", "chi", "circuit", "num_samples",
               "state_norm", "min_joint", "max_joint", "max_step_deficit",
               "circuit_fingerprint"]
    draw_columns = [f"n{k + 1}" for k in range(m)] + ["joint_probability"]

    def run_unit(point_index: int, c: int, *_) -> UnitOutput:
        budget.check()
        plan = sample_haar_circuit(m, circuit_rng(config.seed, point_index, c))
        state = _build_state(m, n, loss, plan, TruncationPolicy(config.chi_max))
        norm = sampling.state_norm(state)
        sampling.check_degraded(norm, "sample: state norm", f"of circuit {c} (M={m}, N={n})")
        rng = circuit_rng(config.seed, point_index, c, stream=1)
        results = sampling.sample_many(state, rng, config.num_samples)
        joints = [r.joint_probability for r in results]
        comments = {"config_hash": digest, "experiment": config.experiment, "circuit": c,
                    "chi": config.chi_max, "seed": config.seed,
                    "circuit_fingerprint": plan_fingerprint(plan)}
        if loss:
            comments["mu"] = loss["mu"]
        draws = [dict(zip(draw_columns, (*r.outcome, r.joint_probability))) for r in results]
        tables = {f"samples_c{c}.csv": (draw_columns, draws, comments)}
        return [{"config_hash": digest, "M": m, "N": n, **loss, "chi": config.chi_max,
                 "circuit": c, "num_samples": len(results), "state_norm": norm,
                 "min_joint": min(joints), "max_joint": max(joints),
                 "max_step_deficit": max(r.max_step_deficit for r in results),
                 "circuit_fingerprint": plan_fingerprint(plan)}], tables

    record = _run_units(config, columns, run_unit)
    record.summary_columns = ["config_hash", "M", "N", "mu", "chi", "n_circuits",
                              "total_samples", "mean_state_norm"]
    record.summary = [{"config_hash": digest, "M": m, "N": n, **loss, "chi": config.chi_max,
                       "n_circuits": config.n_circuits,
                       "total_samples": sum(r["num_samples"] for r in record.rows),
                       "mean_state_norm": float(np.mean([r["state_norm"] for r in record.rows]))}]
    return record


def _prob_recipe(config: ExperimentConfig, digest: str, budget: _Budget) -> RunRecord:
    """Outcome probabilities per photon number; every N reuses circuit streams (0, c)."""
    keys = ["config_hash", "M", "N", "outcome"]
    columns = ["config_hash", "M", "N", "mu", "chi", "circuit", "outcome", "probability"]
    outcomes = [(occ, " ".join(str(x) for x in occ)) for occ in config.outcomes or []]

    def run_unit(point_index: int, c: int, m: int, n: int, loss) -> UnitOutput:
        budget.check()
        plan = sample_haar_circuit(m, circuit_rng(config.seed, 0, c))
        state = _build_state(m, n, loss, plan, TruncationPolicy(config.chi_max))
        sampling.check_degraded(sampling.state_norm(state), "prob: state norm",
                                f"of circuit {c} (M={m}, N={n})")
        probability = mpo.outcome_prob if loss else mps.probability
        return [{"config_hash": digest, "M": m, "N": n, **loss, "chi": config.chi_max,
                 "circuit": c, "outcome": key, "probability": probability(state, occ)}
                for occ, key in outcomes], {}

    record = _run_units(config, columns, run_unit)
    record.summary_columns = keys + ["mean_probability", "stderr", "n_circuits"]
    record.summary = _summarize(record.rows, keys, "probability", "mean_probability",
                                "n_circuits")
    return record


def _oracle_recipe(config: ExperimentConfig, digest: str, budget: _Budget) -> RunRecord:
    """Small-instance equivalence suite against the dense references."""
    tol = config.tolerance
    exact_policy = TruncationPolicy(chi_max=100_000)
    columns = ["config_hash", "M", "N", "circuit", "check", "deviation",
               "tolerance", "status"]

    def run_unit(point_index: int, c: int, m: int, n: int, loss) -> UnitOutput:
        budget.check()
        plan = sample_haar_circuit(m, circuit_rng(config.seed, point_index, c))
        occ_in = tuple([1] * n + [0] * (m - n))
        checks: dict[str, float] = {}

        state = _build_state(m, n, {}, plan, exact_policy)
        dense = dense_evolve(occ_in, plan)
        checks["amplitude"] = max(
            abs(mps.amplitude(state, occ) - dense.amplitude(occ))
            for occ in dense.basis
        )
        checks["completeness"] = abs(
            sum(mps.probability(state, occ) for occ in dense.basis) - 1.0
        )
        if n >= 1:
            sim_spec = np.asarray(chain.schmidt_values(state, m // 2)) ** 2
            ref_spec = dense_reduced_spectrum(dense, m // 2)
            short, full = sorted((sim_spec, ref_spec), key=len)
            short = np.pad(short, (0, len(full) - len(short)))
            checks["pure-spectrum"] = float(np.max(np.abs(short - full)))
        draws = sampling.sample_many(state, circuit_rng(config.seed, point_index, c, 1), 3)
        checks["pure-chain-rule"] = max(
            abs(d.joint_probability - sampling.marginal_prob(state, d.outcome))
            for d in draws
        )

        mu = loss.get("mu", 0.7)
        op = _build_state(m, n, {"mu": mu}, plan, exact_policy)
        reference = exact_lossy_distribution(circuit_to_unitary(plan), n, mu)
        checks["lossy-prob"] = max(
            abs(mpo.outcome_prob(op, occ) - p)
            for occ, p in reference.entries.items()
        )
        checks["lossy-trace"] = abs(mpo.trace(op) - 1.0)
        lossy_draws = sampling.sample_many(
            op, circuit_rng(config.seed, point_index, c, 2), 3
        )
        checks["lossy-chain-rule"] = max(
            abs(d.joint_probability - sampling.marginal_prob(op, d.outcome))
            for d in lossy_draws
        )
        return [{"config_hash": digest, "M": m, "N": n, "circuit": c,
                 "check": name, "deviation": deviation, "tolerance": tol,
                 "status": "pass" if deviation <= tol else "fail"}
                for name, deviation in checks.items()], {}

    record = _run_units(config, columns, run_unit)
    record.summary_columns = ["config_hash", "check", "max_deviation", "tolerance", "status"]
    for group in sorted(_groups(record.rows, ["check"]), key=lambda group: group[0]["check"]):
        worst = max(r["deviation"] for r in group)
        record.summary.append({"config_hash": digest, "check": group[0]["check"],
                               "max_deviation": worst, "tolerance": tol,
                               "status": "pass" if worst <= tol else "fail"})
    worst = max(r["deviation"] for r in record.rows)
    if any(r["status"] == "fail" for r in record.rows):
        record.status = "failed"
        record.message = f"oracle-check: max deviation {worst:.3e} exceeds {tol:g}"
    else:
        record.message = f"oracle-check: max deviation {worst:.3e} <= {tol:g}"
    return record


_RECIPES: dict[str, Callable[[ExperimentConfig, str, _Budget], RunRecord]] = {
    "lossless-ee": _ee_recipe,
    "fock-ee": _ee_recipe,
    "lossy-ee": _ee_recipe,
    "analytic-ee": _analytic_recipe,
    "trunc-error": _trunc_recipe,
    "sample": _sample_recipe,
    "prob": _prob_recipe,
    "oracle-check": _oracle_recipe,
}
EXPERIMENTS = tuple(_RECIPES)


def run(config: ExperimentConfig) -> RunRecord:
    """Execute the configured recipe and return its record (no files).

    An exhausted budget gives status ``aborted`` and the completed units' rows and
    tables, but no summary;
    a :class:`NumericalFailure` or :class:`DegradedStateError` gives status
    ``numerical-failure``, no tables, and the error as the message.

    The recipe runs with numpy's OpenBLAS on one thread, so its tables do not
    depend on the host's thread count, and the caller's count is restored on
    every exit. The count is process-wide, so ``run`` is not meant to be
    called from several threads at once.

    A run of several units runs them in processes forked from the caller, one
    per CPU the caller may use and at most one per unit, and ``processes``
    records how many (1 on the serial path, which a one-unit run, a one-CPU
    host, or a platform without ``"fork"`` takes).  The workers inherit the
    one-thread pin, their outputs are joined in unit order, and none outlives
    ``run``, so the tables do not depend on the process count.
    """
    validate_config(config)
    digest = config_hash(config)
    budget = _Budget(config.max_seconds)
    with single_blas_thread() as blas:
        try:
            record = _RECIPES[config.experiment](config, digest, budget)
        except ResourceAbort as abort:
            record = abort.record
        except (NumericalFailure, DegradedStateError) as exc:
            record = RunRecord([], [], status="numerical-failure", message=str(exc))
    record.config_hash, record.experiment, record.blas = digest, config.experiment, blas
    record.processes = _process_count(config)
    record.wall_time = budget.elapsed()
    return record


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _write_csv(path: Path, columns: list[str], rows: Iterable[dict[str, Any]],
               comments: dict[str, Any]) -> None:
    """The one table writer: a ``# key=value`` line per item of ``comments``, in key
    order, then the header and one line per row, every line ending in LF."""
    with open(path, "w", newline="") as fh:
        for key in sorted(comments):
            fh.write(f"# {key}={comments[key]}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(col, "")) for col in columns])


def run_to_files(config: ExperimentConfig) -> tuple[RunRecord, Path | None]:
    """:func:`run` the recipe and write its record's tables and ``meta.json``.

    Every table but ``timings.csv`` is byte-identical across reruns of the same
    config; wall-clock information goes only to ``meta.json`` and ``timings.csv``.
    Earlier tables in ``out_dir`` are removed first (``checkpoints/`` is
    kept), so a failed run, which has none, leaves none.  ``out_dir`` is
    created before the recipe runs; one that cannot be is a :class:`ConfigError`.
    """
    out_dir = None if config.out_dir is None else Path(config.out_dir)
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError("out_dir", f"cannot create directory {out_dir}: {exc}") from None
    record = run(config)
    if out_dir is not None:
        # A table left by an earlier run would sit beside this run's meta.json
        # as if this run had written it.
        for path in [out_dir / "results.csv", out_dir / "summary.csv",
                     out_dir / "timings.csv", *out_dir.glob("samples_c*.csv")]:
            path.unlink(missing_ok=True)
        tables = {"results.csv": (record.columns, record.rows, {}),
                  "summary.csv": (record.summary_columns, record.summary, {}),
                  **record.tables}
        for name, (columns, rows, comments) in tables.items():
            if columns:
                _write_csv(out_dir / name, columns, rows, comments)
        meta = {
            "config_hash": record.config_hash,
            "experiment": record.experiment,
            "version": __version__,
            "numpy_version": np.__version__,
            "blas": record.blas,
            "processes": record.processes,
            "seed": config.seed,
            "status": record.status,
            "message": record.message,
            "wall_time_seconds": record.wall_time,
            "num_rows": len(record.rows),
            "config": asdict(config),
        }
        (out_dir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    return record, out_dir
