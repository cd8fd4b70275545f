"""Marginal probabilities and sequential Born-rule sampling.

Both the pure-state and density-operator representations admit efficient
prefix marginals: contract the first ``l`` sites at the local labels of the
observed occupations (``(n,)`` for a pure state, the diagonal pair
``((n, n),)`` for a density operator), then close the rest of the chain, by
the orthogonality of the right part (pure states) or by tracing it out in the
same walk (density operators: ``mpo.marginal``, the one read of rho's
diagonal). ``marginal_prob`` does exactly that, independently of the samplers
below; of its checks only the degraded-state one is its own, and an occupation
above N reads 0. For a full pattern of a density operator it is the unclamped
``mpo.outcome_prob``.

``check_degraded`` is the one rule that refuses a state too degraded to read
(a norm or Tr rho below 1e-6). The samplers, ``marginal_prob`` and the
``lossy-ee``, ``sample`` and ``prob`` recipes call it; ``trunc-error`` does
not, as its ``one_minus_trace`` of 1 is the measurement itself.

Sampling walks mode 1 to M, drawing each occupation from the ratio of running
marginals; the conditional distribution at each step is renormalized by its
own total so that truncation-induced deficits do not bias the draw (the
deficit is reported on the result for diagnostics). Every step forms its
masses and normalizes them in one place, ``_step``, and every draw goes
through ``sample_many``: ``sample`` is one draw of it.

A pure state needs each child environment for its weight ||env B_n||^2, so
its sampler contracts every candidate occupation. A density operator's
sampler precontracts the trace closure instead, as in the sequential
conditional sampling of Ferris & Vidal, Phys. Rev. B 85, 165146 (2012): the
mass of occupation n at site k is linear in the left environment,
sum_c env[c] B_k(c, c - (n, n)) R_{k+1}(c - (n, n)), where R_{k+1} traces
out the sites right of k. So the engine stores, per site, one transfer
matrix T_{k,n} per occupation and a weight map W_k whose column n is
``norm_scale`` T_{k,n} R_{k+1}, with R_k = sum_n T_{k,n} R_{k+1}. A step is
``env @ W_k`` for all d masses at once, then ``env @ T_{k,pick}`` for the
picked child only, and the closure of the left boundary is Tr rho.

The read path never leaves diagonal charges: the left boundary is (n, n) and
every label is (n, n), so every block it touches has two diagonal charges.
In the mirror gauge (see ``chain``) such a block is its own conjugate
bitwise, so it is real, and the maps, environments and transfers are exact
in float64; the engine raises ``NumericalFailure`` if one is not.

``sample_counts`` draws many outcomes at once by multinomial splitting over
shared prefixes, which is distribution-identical to independent sequential
draws and exponentially faster when outcomes collide; only children that
receive draws are advanced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chain
from .circuit import occupation_pattern
from .linalg import DegradedStateError, NumericalFailure
from .mpo import MpoState, marginal
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
        return float(np.sqrt(state.total_weight()))
    return mpo_trace(state)


def check_degraded(value: float, what: str = "state norm", where: str = "") -> None:
    """Raise :class:`DegradedStateError` if ``value``, a norm or Tr rho named ``what``
    and read ``where``, is below ``DEGRADED_NORM_THRESHOLD``."""
    if value < DEGRADED_NORM_THRESHOLD:
        at = f" {where}" if where else ""
        raise DegradedStateError(
            f"{what} {value:.3e}{at} is below {DEGRADED_NORM_THRESHOLD:.0e}; "
            "the state is over-truncated and probabilities are meaningless"
        )


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


def _squared_norm(env) -> float:
    return float(sum(np.sum(np.abs(v) ** 2) for v in env.values()))


class _PureEngine:
    """Sampling engine of a pure state: every candidate child is contracted."""

    def __init__(self, state: MpsState):
        self.state = state
        self.num_modes = state.num_modes
        self.local_dim = state.local_dim
        self.start = chain.prefix_environment(state, ())
        self.total = _squared_norm(self.start)

    def step(self, env, site_idx: int):
        """(masses of every occupation, child environment by occupation)."""
        children = [chain.propagate(self.state, site_idx, env, (n,)) for n in range(self.local_dim)]
        return [_squared_norm(c) for c in children], children.__getitem__


class _LossyEngine:
    """Sampling engine of a density operator: precontracted float64 maps per site.

    ``weights[k]`` is W_k and ``transfers[k][n]`` is T_{k,n} (module
    docstring), both over the diagonal charges of bonds k and k+1 in dict
    order; ``start`` is the left boundary and ``total`` is Tr rho.
    """

    def __init__(self, state: MpoState):
        self.num_modes = state.num_modes
        self.local_dim = state.local_dim
        offsets = [_diagonal_offsets(bond) for bond in state.bonds]
        right = np.ones(offsets[-1][1])
        self.weights: list[np.ndarray] = [None] * self.num_modes
        self.transfers: list[list[np.ndarray]] = [None] * self.num_modes
        for k in range(self.num_modes - 1, -1, -1):
            (row_at, num_rows), (col_at, num_cols) = offsets[k], offsets[k + 1]
            transfers = [np.zeros((num_rows, num_cols)) for _ in range(self.local_dim)]
            for (cl, cr), block in state.sites[k].items():
                if cl[0] != cl[1] or cr[0] != cr[1]:
                    continue
                if np.any(block.imag):
                    raise NumericalFailure(
                        f"site {k + 1} block {(cl, cr)} has a nonzero imaginary part; "
                        "the mirror gauge is broken"
                    )
                r0, c0 = row_at[cl], col_at[cr]
                rows, cols = block.shape
                transfers[cl[0] - cr[0]][r0 : r0 + rows, c0 : c0 + cols] = block.real
            closed = np.stack([t @ right for t in transfers], axis=1)
            right = closed.sum(axis=1)
            self.weights[k] = closed * state.norm_scale
            self.transfers[k] = transfers
        self.start = np.concatenate([state.bonds[0][c] for c in offsets[0][0]])
        self.total = float(self.start @ right) * state.norm_scale

    def step(self, env: np.ndarray, site_idx: int):
        """(masses of every occupation, child environment by occupation)."""
        transfers = self.transfers[site_idx]
        return (env @ self.weights[site_idx]).tolist(), lambda n: env @ transfers[n]


def _diagonal_offsets(bond: dict) -> tuple[dict, int]:
    """(offset of every diagonal charge (a, a) in dict order, their total size)."""
    offsets = {}
    size = 0
    for c, lam in bond.items():
        if c[0] == c[1]:
            offsets[c] = size
            size += len(lam)
    return offsets, size


def _engine(state: MpsState | MpoState) -> _PureEngine | _LossyEngine:
    """The sampling engine of a state that passes the degraded-state check."""
    if isinstance(state, MpsState):
        check_degraded(state_norm(state))
        return _PureEngine(state)
    engine = _LossyEngine(state)
    check_degraded(engine.total)
    return engine


def _step(engine: _PureEngine | _LossyEngine, env, site_idx: int):
    """(masses, conditional distribution, child by occupation) of one step."""
    weights, child = engine.step(env, site_idx)
    return weights, normalize_conditionals(weights), child


def marginal_prob(state: MpsState | MpoState, prefix: tuple[int, ...]) -> float:
    """Probability of observing ``prefix`` on modes 1..len(prefix).

    For density operators this is the raw (trace-weighted) ``mpo.marginal``,
    so the empty prefix returns Tr rho and single-mode marginals sum to it.
    An occupation above the state's photon number reads 0, as in every reader.
    """
    check_degraded(state_norm(state))
    if isinstance(state, MpoState):
        return marginal(state, prefix)
    prefix = occupation_pattern(prefix, state.num_modes, prefix=True)
    return _squared_norm(chain.prefix_environment(state, [(n,) for n in prefix]))


def sample(
    state: MpsState | MpoState,
    rng: np.random.Generator,
) -> SamplingResult:
    """Draw one output pattern by the sequential chain rule (modes 1 to M)."""
    return sample_many(state, rng, 1)[0]


def sample_many(
    state: MpsState | MpoState,
    rng: np.random.Generator,
    count: int,
) -> list[SamplingResult]:
    """Draw ``count`` independent outcomes reusing one cached engine."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    engine = _engine(state)
    return [_draw(engine, rng) for _ in range(count)]


def _draw(engine: _PureEngine | _LossyEngine, rng: np.random.Generator) -> SamplingResult:
    env = engine.start
    running = engine.total
    outcome = []
    joint = 1.0
    max_deficit = 0.0
    for site_idx in range(engine.num_modes):
        weights, probs, child = _step(engine, env, site_idx)
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
        env = child(pick)
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
    if count < 0:
        raise ValueError("count must be nonnegative")
    engine = _engine(state)
    frontier = [(engine.start, (), count)]
    for site_idx in range(engine.num_modes):
        nxt = []
        for env, prefix, n_here in frontier:
            _, probs, child = _step(engine, env, site_idx)
            split = rng.multinomial(n_here, probs)
            for occupation, n_child in enumerate(split):
                if n_child > 0:
                    nxt.append((child(occupation), prefix + (occupation,), int(n_child)))
        frontier = nxt
    results: dict[tuple[int, ...], int] = {}
    for _, outcome, n in frontier:
        results[outcome] = results.get(outcome, 0) + n
    return results

