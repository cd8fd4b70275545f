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
deficit is reported on the result for diagnostics). ``sample`` is one draw
of ``sample_many``, and ``sample_many`` carries all its draws through the
sites together, ``DRAW_CHUNK`` at a time, in ``_draw_chunk``: one engine
step gives the masses of every draw at site k, the clamp, total, deficit
and pick are taken over the draws at once, and the picked children form the
batch at site k + 1. Both samplers take a step's masses through one rule,
``_conditionals``: the clamp of a negative mass, the first failing row and
the totals, by ``np.cumsum`` along each row, which adds the occupations in
the order of a Python loop. Row i reads the i-th M uniforms of one
``rng.random((chunk, M))``, the same doubles that one ``rng.random()`` per
site of draws made one after the other reads, and each row's products are
one gemv, as for a single environment, so every draw is the one-at-a-time
draw bit for bit. A failure is the first failing draw's, after ``rng`` is
rewound to where that draw left it.

A pure state needs each child environment for its weight ||env B_n||^2, so
its sampler contracts every candidate occupation; a batch groups its draws
by their environment's one charge. A density operator's sampler
precontracts the trace closure instead, as in the sequential conditional
sampling of Ferris & Vidal, Phys. Rev. B 85, 165146 (2012): the mass of
occupation n at site k is linear in the left environment,
sum_c env[c] B_k(c, c - (n, n)) R_{k+1}(c - (n, n)), where R_{k+1} traces
out the sites right of k. So the engine stores, per site, one transfer
matrix T_{k,n} per occupation and a weight map W_k whose column n is
``norm_scale`` T_{k,n} R_{k+1}, with R_k = sum_n T_{k,n} R_{k+1}. A step is
``envs @ W_k`` for all d masses of every draw at once, then
``envs @ T_{k,n}`` for the draws that picked n only, and the closure of
the left boundary is Tr rho.

The read path never leaves diagonal charges: the left boundary is (n, n) and
every label is (n, n), so every block it touches has two diagonal charges.
In the mirror gauge (see ``chain``) such a block is its own conjugate
bitwise, so it is real, and the maps, environments and transfers are exact
in float64; the engine raises ``NumericalFailure`` if one is not.

``sample_counts`` draws many outcomes at once by multinomial splitting over
shared prefixes, which is distribution-identical to independent sequential
draws and exponentially faster when outcomes collide; one engine step per
mode gives the masses of the whole frontier, one ``rng.multinomial(counts,
pvals)`` call splits all of it, and only children that receive draws are
advanced. numpy splits the rows of that call in order, each as a call of its
own would, so the counts and the generator position are those of one call
per node. At a failing node only the nodes before it are split, and the
failure is raised as a node-by-node split raises it.
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
#: Draws that ``sample_many`` carries through the sites together. A chunk keeps
#: a few arrays of this many environments, so it bounds a call's memory.
DRAW_CHUNK = 1024


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
    raise; the clamp only absorbs harmless floating-point residue. The rule
    is ``_conditionals`` on one row.
    """
    probs, _, failed = _conditionals(np.array([weights], dtype=float))
    if failed is not None:
        raise _mass_failure(weights)
    return probs[0].tolist()


def _conditionals(masses: np.ndarray) -> tuple[np.ndarray, np.ndarray, int | None]:
    """(probabilities, totals, first failing row or None) of a (rows, d) mass array.

    The one rule for a step's conditional masses: a negative mass is
    clamped to 0, and a row fails if a mass is below
    -NEGATIVE_MASS_TOLERANCE or its total is not positive. A total is the
    last entry of ``np.cumsum`` along the row, which adds the occupations in
    order, so it is the total of a Python loop over them bit for bit. The
    probabilities of a failing row mean nothing.
    """
    cleaned = np.where(masses < 0.0, 0.0, masses)
    totals = np.cumsum(cleaned, axis=1)[:, -1]
    failed = np.flatnonzero((masses < -NEGATIVE_MASS_TOLERANCE).any(axis=1) | (totals <= 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = cleaned / totals[:, None]
    return probs, totals, int(failed[0]) if failed.size else None


def _mass_failure(weights) -> NumericalFailure:
    """The error of a row of masses that ``_conditionals`` refuses."""
    for w in weights:
        if w < -NEGATIVE_MASS_TOLERANCE:
            return NumericalFailure(
                f"conditional mass {w:.3e} below -{NEGATIVE_MASS_TOLERANCE:.0e}; "
                "state integrity lost"
            )
    return NumericalFailure("conditional distribution has no positive mass")


def _squared_norm(env) -> float:
    return float(sum(np.sum(np.abs(v) ** 2) for v in env.values()))


class _PureEngine:
    """Sampling engine of a pure state: every candidate child is contracted.

    A pure environment has one charge, the photons left to place, so a batch
    of environments is a list of groups ``(charge, rows, envs)``: the batch
    rows at that charge and their vectors, one row each. A row whose picked
    child has no block is in the group of charge None, whose masses are 0.
    """

    def __init__(self, state: MpsState):
        self.state = state
        self.num_modes = state.num_modes
        self.local_dim = state.local_dim
        self.start = chain.prefix_environment(state, ())
        self.total = _squared_norm(self.start)

    def batch(self, count: int) -> list:
        """``count`` rows at the left boundary, whose one charge is N."""
        [(charge, vec)] = self.start.items()
        return [(charge, np.arange(count), np.tile(vec, (count, 1)))]

    def step(self, groups: list, site_idx: int):
        """(masses of every row and occupation, child) of one site; ``child(parents,
        picks)`` is the batch whose row j is row ``parents[j]``'s child at ``picks[j]``."""
        blocks = self.state.sites[site_idx]
        num_rows = sum(len(rows) for _, rows, _ in groups)
        masses = np.zeros((num_rows, self.local_dim))
        group_of = np.empty(num_rows, dtype=np.intp)
        position = np.empty(num_rows, dtype=np.intp)
        children = []
        for g, (charge, rows, envs) in enumerate(groups):
            group_of[rows], position[rows] = g, np.arange(len(rows))
            kids = []
            for n in range(self.local_dim):
                block = None if charge is None else blocks.get((charge, charge - n))
                if block is None:
                    kids.append((None, None))
                    continue
                kid = (envs[:, None, :] @ block)[:, 0, :]  # one gemv per row, see _LossyEngine
                masses[rows, n] = np.sum(np.abs(kid) ** 2, axis=1)
                kids.append((charge - n, kid))
            children.append(kids)

        def child(parents: np.ndarray, picks: np.ndarray) -> list:
            parts: dict = {}
            keys = group_of[parents] * self.local_dim + picks
            for key in dict.fromkeys(keys.tolist()):
                rows = np.flatnonzero(keys == key)
                charge, kid = children[key // self.local_dim][key % self.local_dim]
                envs = None if kid is None else kid[position[parents[rows]]]
                parts.setdefault(charge, []).append((rows, envs))
            return [(c, np.concatenate([r for r, _ in p]),
                     None if c is None else np.concatenate([e for _, e in p]))
                    for c, p in parts.items()]

        return masses, child


class _LossyEngine:
    """Sampling engine of a density operator: precontracted float64 maps per site.

    ``weights[k]`` is W_k and ``transfers[k][n]`` is T_{k,n} (module
    docstring), both over the diagonal charges of bonds k and k+1 in dict
    order; a site's d maps T_{k,n} are one (d, rows, cols) array, assembled
    from its diagonal blocks with one mirror-gauge check per site. ``start``
    is the left boundary and ``total`` is Tr rho. A batch of environments is
    one array, a row per environment.
    """

    def __init__(self, state: MpoState):
        self.num_modes = state.num_modes
        self.local_dim = state.local_dim
        offsets = [_diagonal_offsets(bond) for bond in state.bonds]
        right = np.ones(offsets[-1][1])
        self.weights: list[np.ndarray] = [None] * self.num_modes
        self.transfers: list[np.ndarray] = [None] * self.num_modes
        for k in range(self.num_modes - 1, -1, -1):
            (row_at, num_rows), (col_at, num_cols) = offsets[k], offsets[k + 1]
            blocks = state.sites[k]
            # maps[n] is T_{k,n}: the diagonal blocks of occupation n, placed.
            maps = np.zeros((self.local_dim, num_rows, num_cols), dtype=np.complex128)
            for cl, r0 in row_at.items():
                for n in range(self.local_dim):
                    cr = (cl[0] - n, cl[1] - n)
                    block = blocks.get((cl, cr))
                    if block is not None:
                        c0 = col_at[cr]
                        maps[n, r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] = block
            if np.any(maps.imag):
                key = next((cl, cr) for (cl, cr), block in blocks.items()
                           if cl[0] == cl[1] and cr[0] == cr[1] and np.any(block.imag))
                raise NumericalFailure(
                    f"site {k + 1} block {key} has a nonzero imaginary part; "
                    "the mirror gauge is broken"
                )
            transfers = maps.real.copy()
            closed = np.stack([t @ right for t in transfers], axis=1)
            right = closed.sum(axis=1)
            self.weights[k] = closed * state.norm_scale
            self.transfers[k] = transfers
        self.start = np.concatenate([state.bonds[0][c] for c in offsets[0][0]])
        self.total = float(self.start @ right) * state.norm_scale

    def batch(self, count: int) -> np.ndarray:
        """``count`` rows at the left boundary."""
        return np.tile(self.start, (count, 1))

    def step(self, envs: np.ndarray, site_idx: int):
        """(masses of every row and occupation, child) of one site; ``child(parents,
        picks)`` is the batch whose row j is row ``parents[j]``'s child at ``picks[j]``."""
        transfers = self.transfers[site_idx]
        # Each product is stacked as (rows, 1, D), which numpy runs as one gemv
        # per row, the product of a single environment; a 2-D (rows, D) product
        # is one gemm, whose last bits differ.

        def child(parents: np.ndarray, picks: np.ndarray) -> np.ndarray:
            kids = np.empty((len(parents), transfers[0].shape[1]))
            for n, transfer in enumerate(transfers):
                rows = picks == n
                if rows.any():
                    kids[rows] = (envs[parents[rows], None, :] @ transfer)[:, 0, :]
            return kids

        return (envs[:, None, :] @ self.weights[site_idx])[:, 0, :], child


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
    """Draw ``count`` independent outcomes reusing one cached engine.

    The draws are advanced together, ``DRAW_CHUNK`` at a time; each is the
    draw that ``count`` draws made one after the other would make, and a
    failure is the first of those draws' failure, with ``rng`` left where
    that draw leaves it.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    engine = _engine(state)
    results: list[SamplingResult] = []
    for first in range(0, count, DRAW_CHUNK):
        results += _draw_chunk(engine, rng, min(DRAW_CHUNK, count - first))
    return results


def _draw_chunk(
    engine: _PureEngine | _LossyEngine, rng: np.random.Generator, count: int
) -> list[SamplingResult]:
    """``count`` draws carried through the sites together, row i being draw i.

    Row i reads the i-th M uniforms of ``rng``; its products are one gemv
    each, as for a single environment; its clamp, total, deficit, pick and
    joint probability are taken column by column, in the order of a loop
    over the occupations. So every row equals a draw made alone, bit for
    bit. Rows past the first failing row cannot matter and are dropped.
    """
    num_modes, dim = engine.num_modes, engine.local_dim
    saved = rng.bit_generator.state
    uniforms = rng.random((count, num_modes))
    envs = engine.batch(count)
    live = count
    running = np.full(count, engine.total)
    joint = np.ones(count)
    max_deficit = np.zeros(count)
    outcomes = np.empty((count, num_modes), dtype=np.intp)
    failure = None
    # Like the Python float arithmetic that it reproduces, this warns of no inf or nan.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for site_idx in range(num_modes):
            masses, child = engine.step(envs, site_idx)
            probs, total, failed = _conditionals(masses)
            if failed is not None:
                live = failed
                failure = (live, site_idx, masses[live].tolist())
                if live == 0:
                    break
                masses, probs, total = masses[:live], probs[:live], total[:live]
            running = running[:live]
            deficit = np.abs(1.0 - total / running)
            max_deficit = np.where((running > 0.0) & (deficit > max_deficit[:live]),
                                   deficit, max_deficit[:live])
            # The first occupation whose running sum passes u, else the last.
            hit = uniforms[:live, site_idx, None] < np.cumsum(probs, axis=1)
            pick = np.where(hit.any(axis=1), hit.argmax(axis=1), dim - 1)
            rows = np.arange(live)
            joint = joint[:live] * probs[rows, pick]
            running = masses[rows, pick]
            outcomes[:live, site_idx] = pick
            if site_idx + 1 < num_modes:
                envs = child(rows, pick)
    if failure is not None:
        draw, site_idx, weights = failure
        rng.bit_generator.state = saved
        rng.random(draw * num_modes + site_idx)
        raise _mass_failure(weights)
    return [SamplingResult(tuple(o), j, d)
            for o, j, d in zip(outcomes.tolist(), joint.tolist(), max_deficit.tolist())]


def sample_counts(
    state: MpsState | MpoState,
    rng: np.random.Generator,
    count: int,
) -> dict[tuple[int, ...], int]:
    """Histogram of ``count`` chain-rule draws via multinomial prefix splitting.

    Identical in distribution to ``count`` independent ``sample`` calls:
    outcomes sharing a prefix share the conditional computation, and the
    counts are split multinomially at each mode. Each mode's masses come
    from one engine step over the whole frontier, which one multinomial call
    then splits, node by node in order.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    engine = _engine(state)
    envs, outcomes, counts = engine.batch(1), np.empty((1, 0), dtype=np.intp), np.array([count])
    for site_idx in range(engine.num_modes):
        masses, child = engine.step(envs, site_idx)
        probs, _, failed = _conditionals(masses)
        # One call splits every node in order, as one call per node would, bit
        # for bit and in generator position; the nodes before a failing one
        # are split first, as they were before the failure was found.
        live = len(counts) if failed is None else failed
        splits = rng.multinomial(counts[:live], probs[:live])
        if failed is not None:
            raise _mass_failure(masses[failed].tolist())
        parents, picks = np.nonzero(splits)
        outcomes = np.column_stack([outcomes[parents], picks])
        counts = splits[parents, picks]
        if site_idx + 1 < engine.num_modes:
            envs = child(parents, picks)
    return dict(zip(map(tuple, outcomes.tolist()), counts.tolist()))
