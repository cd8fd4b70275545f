"""Marginal probabilities and sequential Born-rule sampling.

Both the pure-state and density-operator representations admit efficient
prefix marginals: contract the first ``l`` sites at the local labels of the
observed occupations (``(n,)`` for a pure state, the diagonal pair
``((n, n),)`` for a density operator), then close the remainder of the
chain — with the orthogonality of the right part (pure states) or right
environments cached once with the trace labels (density operators).
Sampling walks mode 1 to M, drawing each occupation from the ratio of running
marginals; the conditional distribution at each step is renormalized by its
own total so that truncation-induced deficits do not bias the draw (the
deficit is reported on the result for diagnostics).

``sample_counts`` draws many outcomes at once by multinomial splitting over
shared prefixes, which is distribution-identical to independent sequential
draws and exponentially faster when outcomes collide.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import chain
from .linalg import DegradedStateError, NumericalFailure
from .mpo import MpoState, trace_labels
from .mpo import trace as mpo_trace
from .mps import MpsState

NEGATIVE_MASS_TOLERANCE = 1e-8
DEGRADED_NORM_THRESHOLD = 1e-6


@dataclass
class SamplingResult:
    """One sampled output pattern with the probability the sampler assigned it."""

    outcome: tuple[int, ...]
    joint_probability: float
    max_step_deficit: float = 0.0


def state_norm(state: MpsState | MpoState) -> float:
    """Norm proxy guarding against over-truncated states: sqrt(sum lambda^2) or trace."""
    if isinstance(state, MpsState):
        return float(np.sqrt(max(state.total_weight(), 0.0)))
    return mpo_trace(state)


def _check_degraded(state: MpsState | MpoState) -> float:
    norm = state_norm(state)
    if norm < DEGRADED_NORM_THRESHOLD:
        raise DegradedStateError(
            f"state norm {norm:.3e} is below {DEGRADED_NORM_THRESHOLD:.0e}; "
            "the state is over-truncated and probabilities are meaningless"
        )
    return norm


def normalize_conditionals(weights: list[float]) -> list[float]:
    """Clamp tiny negative masses to zero and normalize to a distribution.

    Weights below -NEGATIVE_MASS_TOLERANCE indicate a corrupted state and
    raise; the clamp only absorbs harmless floating-point residue.
    """
    cleaned = []
    for w in weights:
        if w < -NEGATIVE_MASS_TOLERANCE:
            raise NumericalFailure(
                f"conditional mass {w:.3e} below -{NEGATIVE_MASS_TOLERANCE:.0e}; "
                "state integrity lost"
            )
        cleaned.append(max(w, 0.0))
    total = sum(cleaned)
    if total <= 0.0:
        raise NumericalFailure("conditional distribution has no positive mass")
    return [w / total for w in cleaned]


class _Engine:
    """Per-state sampling engine with cached right environments (read-only)."""

    def __init__(self, state: MpsState | MpoState):
        self.state = state
        self.num_modes = state.num_modes
        self.local_dim = state.local_dim
        self.pure = isinstance(state, MpsState)
        if self.pure:
            self.labels = [(n,) for n in range(self.local_dim)]
            self.right_envs = None
            self.initial_marginal = float(
                sum(np.sum(np.abs(lam) ** 2) for lam in self.state.bonds[0].values())
            )
        else:
            self.labels = [((n, n),) for n in range(self.local_dim)]
            self.right_envs = chain.suffix_trace_environments(
                self.state, trace_labels(self.local_dim)
            )
            self.initial_marginal = self._close(self.initial_env(), 0)

    def initial_env(self):
        return {c: lam.astype(np.complex128) for c, lam in self.state.bonds[0].items()}

    def _close(self, env, num_done: int) -> float:
        """Weight of a prefix environment: squared norm (pure) or trace closure."""
        if self.pure:
            return float(sum(np.sum(np.abs(v) ** 2) for v in env.values()))
        total = 0.0 + 0.0j
        right = self.right_envs[num_done]
        for c, vec in env.items():
            if c in right:
                total += vec @ right[c]
        return float(total.real) * self.state.norm_scale

    def child(self, env, site_idx: int, occupation: int):
        return chain.prefix_environment(
            self.state, [self.labels[occupation]], start_env=env, start_site=site_idx
        )

    def conditional_weights(self, env, site_idx: int):
        """(weights, child environments) for every candidate occupation."""
        envs = []
        weights = []
        for n in range(self.local_dim):
            child = self.child(env, site_idx, n)
            envs.append(child)
            weights.append(self._close(child, site_idx + 1) if child else 0.0)
        return weights, envs


def marginal_prob(state: MpsState | MpoState, prefix: tuple[int, ...]) -> float:
    """Probability of observing ``prefix`` on modes 1..len(prefix).

    For density operators this is the raw (trace-weighted) marginal, so the
    empty prefix returns Tr rho and single-mode marginals sum to it.
    """
    _check_degraded(state)
    prefix = tuple(int(n) for n in prefix)
    if len(prefix) > state.num_modes:
        raise ValueError(f"prefix longer than the {state.num_modes}-mode register")
    if any(n < 0 or n >= state.local_dim for n in prefix):
        raise ValueError(
            f"occupations must lie in [0, {state.local_dim - 1}], got {prefix}"
        )
    engine = _Engine(state)
    env = engine.initial_env()
    for i, n in enumerate(prefix):
        env = engine.child(env, i, n)
        if not env:
            return 0.0
    return engine._close(env, len(prefix))


def sample(
    state: MpsState | MpoState,
    rng: np.random.Generator,
) -> SamplingResult:
    """Draw one output pattern by the sequential chain rule (modes 1 to M)."""
    _check_degraded(state)
    return _draw(_Engine(state), rng)


def sample_many(
    state: MpsState | MpoState,
    rng: np.random.Generator,
    count: int,
) -> list[SamplingResult]:
    """Draw ``count`` independent outcomes reusing one cached engine."""
    _check_degraded(state)
    if count < 0:
        raise ValueError("count must be nonnegative")
    engine = _Engine(state)
    return [_draw(engine, rng) for _ in range(count)]


def _draw(engine: _Engine, rng: np.random.Generator) -> SamplingResult:
    env = engine.initial_env()
    running = engine.initial_marginal
    outcome = []
    joint = 1.0
    max_deficit = 0.0
    for site_idx in range(engine.num_modes):
        weights, envs = engine.conditional_weights(env, site_idx)
        probs = normalize_conditionals(weights)
        total = sum(max(w, 0.0) for w in weights)
        if running > 0.0:
            max_deficit = max(max_deficit, abs(1.0 - total / running))
        u = rng.random()
        cum = 0.0
        pick = engine.local_dim - 1
        for n, p in enumerate(probs):
            cum += p
            if u < cum:
                pick = n
                break
        outcome.append(pick)
        joint *= probs[pick]
        env = envs[pick]
        running = weights[pick]
    return SamplingResult(
        outcome=tuple(outcome),
        joint_probability=joint,
        max_step_deficit=max_deficit,
    )


def sample_counts(
    state: MpsState | MpoState,
    rng: np.random.Generator,
    count: int,
) -> dict[tuple[int, ...], int]:
    """Histogram of ``count`` chain-rule draws via multinomial prefix splitting.

    Identical in distribution to ``count`` independent ``sample`` calls:
    outcomes sharing a prefix share the conditional computation, and the
    counts are split multinomially at each mode.
    """
    _check_degraded(state)
    if count < 0:
        raise ValueError("count must be nonnegative")
    engine = _Engine(state)
    frontier = [(engine.initial_env(), (), count)]
    results: dict[tuple[int, ...], int] = {}
    for site_idx in range(engine.num_modes):
        nxt = []
        for env, prefix, n_here in frontier:
            weights, envs = engine.conditional_weights(env, site_idx)
            probs = normalize_conditionals(weights)
            split = rng.multinomial(n_here, probs)
            for occupation, n_child in enumerate(split):
                if n_child == 0:
                    continue
                nxt.append((envs[occupation], prefix + (occupation,), int(n_child)))
        frontier = nxt
    for _, outcome, n in frontier:
        results[outcome] = results.get(outcome, 0) + n
    return results


def write_samples_csv(
    path: str | Path,
    results: list[SamplingResult],
    metadata: dict[str, object] | None = None,
) -> None:
    """Write one outcome per row with the joint probability in the last column.

    Metadata (seed, chi, circuit hash, ...) goes into leading '# key=value'
    comment lines so the body stays plain CSV.
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        for key in sorted(metadata or {}):
            fh.write(f"# {key}={metadata[key]}\n")
        writer = csv.writer(fh)
        if results:
            modes = len(results[0].outcome)
            writer.writerow([f"n{k + 1}" for k in range(modes)] + ["joint_probability"])
        for r in results:
            writer.writerow(list(r.outcome) + [f"{r.joint_probability:.17g}"])


def load_samples_csv(path: str | Path) -> tuple[dict[str, str], list[SamplingResult]]:
    """Inverse of write_samples_csv; returns (metadata, results)."""
    metadata: dict[str, str] = {}
    rows: list[SamplingResult] = []
    with Path(path).open() as fh:
        lines = []
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].strip().partition("=")
                metadata[key] = value
            else:
                lines.append(line)
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is not None:
        for row in reader:
            if not row:
                continue
            rows.append(
                SamplingResult(
                    outcome=tuple(int(x) for x in row[:-1]),
                    joint_probability=float(row[-1]),
                )
            )
    return metadata, rows
