"""Reproducible experiment driver: configs, seeded ensembles, and recipes.

Every experiment follows the same shape: a declarative :class:`ExperimentConfig`
(usually parsed from a JSON file) names a recipe, the sweep ranges, and one
master seed; :func:`run` executes the recipe over an ensemble of circuits and
returns a :class:`RunRecord`; :func:`run_to_files` additionally writes
``results.csv`` (per-circuit rows), ``summary.csv`` (ensemble aggregates),
and ``meta.json``, after removing the tables an earlier run left in the same
directory.  The data tables are byte-identical across reruns of the
same (config, seed, software version); wall-clock timings never enter them —
the total lives in ``meta.json`` and per-row timings in ``timings.csv``.

A sweep point is ``(M, N, loss)``: ``loss`` holds the ``gamma``, ``beta`` and
``mu`` columns of a lossy point, is empty for a lossless one, and every row of
the point carries it.  Each ensemble summary row is the mean, standard error
and count of one column over the rows that share the summary's key columns.

Randomness policy: the generator for ensemble member ``c`` of sweep point
``p`` is ``PCG64(SeedSequence(seed, spawn_key=(p, c)))``, and auxiliary
streams (e.g. the sampler) append one more integer to the spawn key.  The
derivation is counter-based, so running circuits in any order or resuming
after a checkpoint cannot change any result.  Sweep points are numbered in
the deterministic order the config enumerates them; recipes that
must reuse one circuit across a sweep axis (the bond-dimension sweep) key the
circuit stream on the point index with that axis removed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
import zipfile
from dataclasses import asdict, dataclass, field
from numbers import Integral, Real
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from . import __version__, chain, mpo, mps, sampling
from .circuit import CircuitPlan, circuit_to_unitary, plan_fingerprint, sample_haar_circuit
from .entropy import lossy_mpo_ee, partition_angles
from .linalg import DegradedStateError, NumericalFailure, TruncationPolicy
from .oracle import (
    dense_evolve,
    dense_reduced_spectrum,
    exact_lossy_distribution,
)
from .snapshots import load_state, save_state

#: Config fields that do not influence the science and are excluded from the
#: config hash: where outputs go, how often to checkpoint, and when to stop.
_PLUMBING_FIELDS = ("out_dir", "checkpoint_every", "max_seconds")


class ConfigError(ValueError):
    """A config field is missing, unknown, or invalid."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


class ResourceAbort(RuntimeError):
    """Raised when the wall-clock budget is exhausted; carries partial rows."""

    def __init__(self, message: str, rows: list[dict[str, Any]] | None = None):
        super().__init__(message)
        self.rows = rows or []
        self.columns: list[str] = []


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

    @staticmethod
    def constant(mu: float) -> "LossSpec":
        return LossSpec(kind="constant", mu=mu)

    @staticmethod
    def power_law(beta: float, gamma: float) -> "LossSpec":
        return LossSpec(kind="power_law", beta=beta, gamma=gamma)


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
    weight_threshold: float | None = None
    n_circuits: int = 1
    num_samples: int = 0
    outcomes: list[tuple[int, ...]] | None = None
    tolerance: float = 1e-8
    out_dir: str | None = None
    checkpoint_every: int = 0
    max_seconds: float | None = None

    def policy(self, chi: int | None = None) -> TruncationPolicy:
        return TruncationPolicy(chi if chi is not None else self.chi_max, self.weight_threshold)


def config_from_dict(doc: dict[str, Any]) -> ExperimentConfig:
    """Build and validate a config from a parsed JSON document."""
    known = set(ExperimentConfig.__dataclass_fields__)
    for key in doc:
        if key not in known:
            raise ConfigError(key, "unknown field")
    if "experiment" not in doc:
        raise ConfigError("experiment", "missing (one of %s)" % ", ".join(EXPERIMENTS))
    if "seed" not in doc:
        raise ConfigError("seed", "missing: runs never default to wall-clock seeds")
    parsed = dict(doc)
    if parsed.get("loss") is not None:
        parsed["loss"] = _loss_from_dict(parsed["loss"])
    if parsed.get("outcomes") is not None:
        outcomes = parsed["outcomes"]
        if not isinstance(outcomes, (list, tuple)) or not all(
                isinstance(o, (list, tuple)) and all(_is_number(n, Integral) for n in o)
                for o in outcomes):
            raise ConfigError("outcomes", f"expected lists of integers, got {outcomes!r}")
        parsed["outcomes"] = [tuple(int(n) for n in o) for o in outcomes]
    for rng_field in ("num_modes", "num_photons"):
        if rng_field in parsed and isinstance(parsed[rng_field], int):
            parsed[rng_field] = [parsed[rng_field]]
    try:
        config = ExperimentConfig(**parsed)
    except TypeError as exc:
        raise ConfigError("experiment", f"bad config structure: {exc}") from None
    validate_config(config)
    return config


def _loss_from_dict(doc: Any) -> LossSpec:
    if isinstance(doc, LossSpec):
        return doc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError("loss", 'expected {"kind": "constant"|"power_law", ...}')
    kind, params = doc["kind"], {"constant": ("mu",), "power_law": ("beta", "gamma")}
    if not isinstance(kind, str) or kind not in params:
        raise ConfigError("loss", f"unknown kind {kind!r}")
    for name in params[kind]:
        if not _is_number(doc.get(name), Real):
            raise ConfigError("loss", f"{name} must be a finite real number, "
                                      f"got {doc.get(name)!r}")
    try:
        return LossSpec(kind=kind, **{name: float(doc[name]) for name in params[kind]})
    except ValueError as exc:
        raise ConfigError("loss", str(exc)) from None


def _is_number(value: Any, kind: type) -> bool:
    """Whether ``value`` is a ``kind`` (``Integral`` or ``Real``), not a bool, and finite."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and (not isinstance(value, float) or math.isfinite(value)))


#: Numeric fields: name -> (element type, whether the field is a list).
_NUMERIC_FIELDS: dict[str, tuple[type, bool]] = {
    "num_modes": (Integral, True), "num_photons": (Integral, True),
    "chis": (Integral, True), "chi_max": (Integral, False),
    "n_circuits": (Integral, False), "num_samples": (Integral, False),
    "checkpoint_every": (Integral, False), "alphas": (Real, True),
    "gammas": (Real, True), "betas": (Real, True), "tolerance": (Real, False),
    "max_seconds": (Real, False), "weight_threshold": (Real, False),
}


def _check_numeric_types(config: ExperimentConfig) -> None:
    """Reject strings, bools, nulls, non-integral and non-finite floats before any comparison."""
    for name, (kind, is_list) in _NUMERIC_FIELDS.items():
        value = getattr(config, name)
        if value is None and ExperimentConfig.__dataclass_fields__[name].default is None:
            continue  # optional field left unset
        if is_list and not isinstance(value, (list, tuple)):
            raise ConfigError(name, f"must be a list, got {value!r}")
        what = "an integer" if kind is Integral else "a finite real number"
        for v in value if is_list else [value]:
            if not _is_number(v, kind):
                raise ConfigError(name, f"expected {what}, got {v!r}")


def validate_config(config: ExperimentConfig) -> None:
    if config.experiment not in EXPERIMENTS:
        raise ConfigError("experiment", f"unknown experiment {config.experiment!r}")
    if isinstance(config.seed, bool) or not isinstance(config.seed, int):
        raise ConfigError("seed", f"expected an integer, got {config.seed!r}")
    if config.seed < 0:
        raise ConfigError("seed", f"must be >= 0, got {config.seed}")
    _check_numeric_types(config)
    if not config.num_modes:
        raise ConfigError("num_modes", "range must be nonempty")
    if not config.num_photons:
        raise ConfigError("num_photons", "range must be nonempty")
    for m in config.num_modes:
        if m < 2 or m % 2 != 0:
            raise ConfigError("num_modes", f"mode counts must be even and >= 2, got {m}")
    for n in config.num_photons:
        if n < 0 or n > max(config.num_modes):
            raise ConfigError(
                "num_photons", f"photon counts must be in [0, max(num_modes)], got {n}"
            )
        # Rectangular (M, N) grids simply skip the points with N > M.
    if not config.alphas:
        raise ConfigError("alphas", "range must be nonempty")
    if any(a < 0 for a in config.alphas):
        raise ConfigError("alphas", "entropy orders must be nonnegative")
    if config.chi_max < 1:
        raise ConfigError("chi_max", "bond budget must be at least 1")
    if config.chis is not None and (not config.chis or any(x < 1 for x in config.chis)):
        raise ConfigError("chis", "bond sweep must be a nonempty list of positive ints")
    if config.n_circuits < 1:
        raise ConfigError("n_circuits", "ensemble needs at least one circuit")
    for sweep in ("num_modes", "num_photons", "alphas", "chis", "gammas", "betas", "outcomes"):
        values = getattr(config, sweep) or []
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ConfigError(sweep, f"sweep values must be distinct, {repeated[0]!r} repeats")
    if config.checkpoint_every < 0:
        raise ConfigError("checkpoint_every", "must be >= 0 (0 disables)")
    if config.max_seconds is not None and config.max_seconds < 0:
        raise ConfigError("max_seconds", "must be >= 0")
    if config.weight_threshold is not None and config.weight_threshold < 0:
        raise ConfigError("weight_threshold", f"must be >= 0, got {config.weight_threshold}")
    if config.experiment in ("lossless-ee", "fock-ee"):
        for name in ("loss", "gammas", "betas"):
            if getattr(config, name) is not None:
                raise ConfigError(name, f"{config.experiment} is lossless and takes no {name}")
    if (config.gammas is None) != (config.betas is None):
        raise ConfigError("gammas", "gammas and betas must be given together")
    if config.gammas is not None:
        if config.loss is not None:
            raise ConfigError("loss", "give either loss or gammas/betas, not both")
        if not config.gammas or not config.betas:
            raise ConfigError("gammas", "sweep lists must be nonempty")
        for g in config.gammas:
            if not 0.0 < g <= 1.0:
                raise ConfigError("gammas", f"loss exponents must be in (0, 1], got {g}")
        for b in config.betas:
            if b <= 0:
                raise ConfigError("betas", f"loss prefactors must be positive, got {b}")
    needs_loss = config.experiment in ("lossy-ee", "analytic-ee", "trunc-error")
    if needs_loss and config.loss is None and config.gammas is None:
        raise ConfigError("loss", f"{config.experiment} needs loss or gammas/betas")
    for gamma, beta in _loss_points(config):
        for n in config.num_photons:
            mu = _mu_at(gamma, beta, n)
            if not 0.0 <= mu <= 1.0:
                raise ConfigError(
                    "betas",
                    f"survival probability {mu:.4g} outside [0, 1] "
                    f"at N={n}, gamma={gamma}, beta={beta}",
                )
    if config.experiment == "sample":
        if config.num_samples < 1:
            raise ConfigError("num_samples", "sample experiment needs num_samples >= 1")
        if len(config.num_modes) != 1 or len(config.num_photons) != 1:
            raise ConfigError("num_modes", "sample runs use a single (M, N) point")
    if config.experiment in ("sample", "prob", "oracle-check") and len(_loss_points(config)) > 1:
        raise ConfigError("gammas", f"{config.experiment} runs use a single loss point")
    if config.experiment == "prob":
        if not config.outcomes:
            raise ConfigError("outcomes", "prob experiment needs a list of outcomes")
        if len(config.num_modes) != 1:
            raise ConfigError("num_modes", "prob runs use a single mode count")
        for occ in config.outcomes:
            if len(occ) != config.num_modes[0]:
                raise ConfigError(
                    "outcomes", f"outcome {occ} does not have {config.num_modes[0]} modes"
                )
            if any(n < 0 for n in occ):
                raise ConfigError("outcomes", f"outcome {occ} has negative occupations")
    if config.experiment == "oracle-check":
        if max(config.num_modes) > 6 or max(config.num_photons) > 3:
            raise ConfigError(
                "num_modes", "oracle-check grid is limited to M <= 6, N <= 3"
            )
    if config.tolerance <= 0:
        raise ConfigError("tolerance", "must be positive")


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
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    """Everything one run produced, before any files are written.

    Recipes fill in the tables; :func:`run` adds the config hash, experiment
    name and wall time.
    """

    columns: list[str]
    rows: list[dict[str, Any]]
    summary_columns: list[str] = field(default_factory=list)
    summary: list[dict[str, Any]] = field(default_factory=list)
    config_hash: str = ""
    experiment: str = ""
    wall_time: float = 0.0
    version: str = __version__
    status: str = "ok"
    message: str = ""
    timings: list[dict[str, Any]] = field(default_factory=list)
    #: ``(circuit, draws, metadata)`` per ``samples_c<circuit>.csv`` to write.
    sample_files: list[tuple[int, list[sampling.SamplingResult], dict[str, str]]] = field(
        default_factory=list)


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


def _run_units(config: ExperimentConfig, columns: list[str],
               run_unit: Callable[..., list[dict[str, Any]]]) -> list[dict[str, Any]]:
    """Run ``run_unit(point_index, circuit, M, N, loss)`` per unit of the sweep, in order.

    Each unit makes its own budget checks.  When one raises
    :class:`ResourceAbort`, the abort leaves carrying the rows of the units
    that completed and the recipe's columns.
    """
    rows: list[dict[str, Any]] = []
    try:
        for point_index, (m, n, loss) in enumerate(_sweep_points(config)):
            for c in range(config.n_circuits):
                rows.extend(run_unit(point_index, c, m, n, loss))
    except ResourceAbort as abort:
        abort.rows, abort.columns = rows, columns
        raise
    return rows


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
    """Per-(point, circuit) snapshot files under ``out_dir/checkpoints``."""

    def __init__(self, config: ExperimentConfig, digest: str):
        self.every = config.checkpoint_every
        self.digest = digest
        self.root: Path | None = None
        if config.out_dir is not None and config.checkpoint_every > 0:
            self.root = Path(config.out_dir) / "checkpoints"

    def path(self, point_index: int, circuit_index: int) -> Path | None:
        if self.root is None:
            return None
        return self.root / f"{self.digest}_p{point_index}_c{circuit_index}.npz"

    def restore(self, point_index: int, circuit_index: int):
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
    restored = ckpt.restore(point_index, circuit_index)
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
    policy = config.policy()

    def run_unit(point_index: int, c: int, m: int, n: int, loss) -> list[dict[str, Any]]:
        plan = sample_haar_circuit(m, circuit_rng(config.seed, point_index, c))
        base: dict[str, Any] = {"config_hash": digest, "M": m, "N": n, **loss,
                                "chi": policy.chi_max, "circuit": c}
        state = _initial_state(m, n, loss, bunched)

        def on_layer(layer_index: int, st) -> list[dict[str, Any]]:
            shared = {**base, "layer": layer_index + 1, "max_bond_dim": st.max_bond_dimension(),
                      "discarded_weight": st.discarded_weight}
            if lossy:
                shared["trace"] = mpo.trace(st)
            out = []
            for alpha in config.alphas:
                bond, value = chain.max_bond_entropy(st, alpha)
                out.append({**shared, "alpha": alpha, "max_ee": value, "peak_bond": bond})
            return out

        _, rows = _evolve_by_layers(state, plan, policy, on_layer, budget, ckpt, point_index, c)
        return rows

    rows = _run_units(config, columns, run_unit)
    peaks = [max(group, key=lambda r: r["max_ee"])
             for group in _groups(rows, keys + ["circuit"])]
    return RunRecord(columns, rows, keys + ["mean_peak_ee", "stderr", "n_circuits"],
                     _summarize(peaks, keys, "max_ee", "mean_peak_ee", "n_circuits"))


def _analytic_recipe(config: ExperimentConfig, digest: str, budget: _Budget) -> RunRecord:
    """Closed-form lossy entropy averaged over an ensemble of circuits."""
    columns = ["config_hash", "M", "N", "gamma", "beta", "mu", "alpha", "circuit", "ee"]

    def run_unit(point_index: int, c: int, m: int, n: int, loss) -> list[dict[str, Any]]:
        budget.check()
        plan = sample_haar_circuit(m, circuit_rng(config.seed, point_index, c))
        angles = partition_angles(circuit_to_unitary(plan), m // 2)
        return [{"config_hash": digest, "M": m, "N": n, **loss, "alpha": alpha,
                 "circuit": c, "ee": lossy_mpo_ee(angles, loss["mu"], alpha, n)}
                for alpha in config.alphas]

    rows = _run_units(config, columns, run_unit)
    summary = _summarize(rows, ["config_hash", "M", "N", "gamma", "beta", "alpha"], "ee",
                         "mean_ee", "n_samples")
    return RunRecord(columns, rows, ["N", "M", "gamma", "beta", "alpha", "mean_ee",
                                     "stderr", "n_samples", "config_hash"], summary)


def _trunc_recipe(config: ExperimentConfig, digest: str, budget: _Budget) -> RunRecord:
    """Bond-budget sweep: final norm deficit per chi, one circuit per index.

    The circuit stream is keyed on the (M, N, loss) point only, so every chi
    in the sweep sees the same circuit and the norm-deficit column is
    comparable across the chi axis.
    """
    chis = config.chis if config.chis is not None else [config.chi_max]
    keys = ["config_hash", "M", "N", "gamma", "beta", "mu", "chi"]
    columns = keys + ["circuit", "one_minus_trace", "discarded_weight", "max_bond_dim"]
    timings: list[dict[str, Any]] = []

    def run_unit(point_index: int, c: int, m: int, n: int, loss) -> list[dict[str, Any]]:
        plan = sample_haar_circuit(m, circuit_rng(config.seed, point_index, c))
        out = []
        for chi in chis:
            budget.check()
            t0 = time.perf_counter()
            state = _build_state(m, n, loss, plan, config.policy(chi))
            wall = time.perf_counter() - t0
            out.append({"config_hash": digest, "M": m, "N": n, **loss, "chi": chi,
                        "circuit": c, "one_minus_trace": 1.0 - mpo.trace(state),
                        "discarded_weight": state.discarded_weight,
                        "max_bond_dim": state.max_bond_dimension()})
            timings.append({"M": m, "N": n, "chi": chi, "circuit": c, "wall_seconds": wall})
        return out

    rows = _run_units(config, columns, run_unit)
    return RunRecord(columns, rows, keys + ["mean_one_minus_trace", "stderr", "n_circuits"],
                     _summarize(rows, keys, "one_minus_trace", "mean_one_minus_trace",
                                "n_circuits"),
                     timings=timings)


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
    sample_files: list[tuple[int, list[sampling.SamplingResult], dict[str, str]]] = []

    def run_unit(point_index: int, c: int, *_) -> list[dict[str, Any]]:
        budget.check()
        plan = sample_haar_circuit(m, circuit_rng(config.seed, point_index, c))
        state = _build_state(m, n, loss, plan, config.policy())
        rng = circuit_rng(config.seed, point_index, c, stream=1)
        results = sampling.sample_many(state, rng, config.num_samples)
        joints = [r.joint_probability for r in results]
        metadata = {"config_hash": digest, "experiment": config.experiment,
                    "circuit": str(c), "chi": str(config.chi_max),
                    "seed": str(config.seed), "circuit_fingerprint": plan_fingerprint(plan)}
        if loss:
            metadata["mu"] = repr(loss["mu"])
        sample_files.append((c, results, metadata))
        return [{"config_hash": digest, "M": m, "N": n, **loss, "chi": config.chi_max,
                 "circuit": c, "num_samples": len(results),
                 "state_norm": sampling.state_norm(state),
                 "min_joint": min(joints), "max_joint": max(joints),
                 "max_step_deficit": max(r.max_step_deficit for r in results),
                 "circuit_fingerprint": plan_fingerprint(plan)}]

    rows = _run_units(config, columns, run_unit)

    summary_columns = ["config_hash", "M", "N", "mu", "chi", "n_circuits",
                       "total_samples", "mean_state_norm"]
    summary = [{"config_hash": digest, "M": m, "N": n, **loss, "chi": config.chi_max,
                "n_circuits": config.n_circuits,
                "total_samples": sum(r["num_samples"] for r in rows),
                "mean_state_norm": float(np.mean([r["state_norm"] for r in rows]))}]
    return RunRecord(columns, rows, summary_columns, summary, sample_files=sample_files)


def _prob_recipe(config: ExperimentConfig, digest: str, budget: _Budget) -> RunRecord:
    """Outcome probabilities per photon number; every N reuses circuit streams (0, c)."""
    keys = ["config_hash", "M", "N", "outcome"]
    columns = ["config_hash", "M", "N", "mu", "chi", "circuit", "outcome", "probability"]
    outcomes = [(occ, " ".join(str(x) for x in occ)) for occ in config.outcomes or []]

    def run_unit(point_index: int, c: int, m: int, n: int, loss) -> list[dict[str, Any]]:
        budget.check()
        plan = sample_haar_circuit(m, circuit_rng(config.seed, 0, c))
        state = _build_state(m, n, loss, plan, config.policy())
        probability = mpo.outcome_prob if loss else mps.probability
        return [{"config_hash": digest, "M": m, "N": n, **loss, "chi": config.chi_max,
                 "circuit": c, "outcome": key, "probability": probability(state, occ)}
                for occ, key in outcomes]

    rows = _run_units(config, columns, run_unit)
    return RunRecord(columns, rows, keys + ["mean_probability", "stderr", "n_circuits"],
                     _summarize(rows, keys, "probability", "mean_probability", "n_circuits"))


def _oracle_recipe(config: ExperimentConfig, digest: str, budget: _Budget) -> RunRecord:
    """Small-instance equivalence suite against the dense references."""
    tol = config.tolerance
    exact_policy = TruncationPolicy(chi_max=100_000)
    columns = ["config_hash", "M", "N", "circuit", "check", "deviation",
               "tolerance", "status"]

    def run_unit(point_index: int, c: int, m: int, n: int, loss) -> list[dict[str, Any]]:
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
        if m >= 2 and n >= 1:
            sim_spec = np.asarray(chain.schmidt_values(state, m // 2)) ** 2
            ref_spec = dense_reduced_spectrum(dense, m // 2)
            width = max(len(sim_spec), len(ref_spec))
            sim_pad = np.zeros(width)
            sim_pad[: len(sim_spec)] = sim_spec
            ref_pad = np.zeros(width)
            ref_pad[: len(ref_spec)] = ref_spec
            checks["pure-spectrum"] = float(np.max(np.abs(sim_pad - ref_pad)))
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
                for name, deviation in checks.items()]

    rows = _run_units(config, columns, run_unit)

    summary_columns = ["config_hash", "check", "max_deviation", "tolerance", "status"]
    summary = []
    for group in sorted(_groups(rows, ["check"]), key=lambda group: group[0]["check"]):
        worst = max(r["deviation"] for r in group)
        summary.append({"config_hash": digest, "check": group[0]["check"],
                        "max_deviation": worst, "tolerance": tol,
                        "status": "pass" if worst <= tol else "fail"})
    record = RunRecord(columns, rows, summary_columns, summary)
    worst = max(r["deviation"] for r in rows)
    if any(r["status"] == "fail" for r in rows):
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
    """Execute the configured recipe and return its record (no files)."""
    validate_config(config)
    digest = config_hash(config)
    budget = _Budget(config.max_seconds)
    try:
        record = _RECIPES[config.experiment](config, digest, budget)
    except ResourceAbort as abort:
        record = RunRecord(abort.columns, abort.rows, status="aborted", message=str(abort))
    record.config_hash, record.experiment = digest, config.experiment
    record.wall_time = budget.elapsed()
    return record


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _write_csv(path: Path, columns: list[str], rows: Iterable[dict[str, Any]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(col, "")) for col in columns])


def run_to_files(config: ExperimentConfig) -> tuple[RunRecord, Path | None]:
    """Run the recipe and write results.csv / summary.csv / meta.json.

    The two CSV tables are byte-identical across reruns of the same config;
    wall-clock information goes only to ``meta.json`` and ``timings.csv``.
    Earlier tables in ``out_dir`` are removed first; ``checkpoints/`` is kept.
    ``out_dir`` is created before the recipe runs, and a directory that
    cannot be created is a :class:`ConfigError`.
    """
    out_dir = None if config.out_dir is None else Path(config.out_dir)
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError("out_dir", f"cannot create directory {out_dir}: {exc}") from None
    try:
        record = run(config)
    except (NumericalFailure, DegradedStateError) as exc:
        record = RunRecord([], [], config_hash=config_hash(config),
                           experiment=config.experiment, status="numerical-failure",
                           message=str(exc))
    if out_dir is not None:
        # A table left by an earlier run would sit beside this run's meta.json
        # as if this run had written it.
        for path in [out_dir / "results.csv", out_dir / "summary.csv",
                     out_dir / "timings.csv", *out_dir.glob("samples_c*.csv")]:
            path.unlink(missing_ok=True)
        if record.columns:
            _write_csv(out_dir / "results.csv", record.columns, record.rows)
        if record.summary_columns:
            _write_csv(out_dir / "summary.csv", record.summary_columns, record.summary)
        if record.timings:
            _write_csv(out_dir / "timings.csv",
                       list(record.timings[0].keys()), record.timings)
        for c, results, metadata in record.sample_files:
            sampling.write_samples_csv(out_dir / f"samples_c{c}.csv", results, metadata)
        meta = {
            "config_hash": record.config_hash,
            "experiment": record.experiment,
            "version": record.version,
            "numpy_version": np.__version__,
            "seed": config.seed,
            "status": record.status,
            "message": record.message,
            "wall_time_seconds": record.wall_time,
            "num_rows": len(record.rows),
            "config": asdict(config),
        }
        (out_dir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    return record, out_dir
