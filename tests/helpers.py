"""Helpers shared by several test modules.

Besides circuits, outcome grids, a check that no worker process is left,
counters of scipy SVDs, of decomposed centers and of the units a run starts,
and a budget that runs out once a unit is recorded, this
holds the references that only the tests compare against: the samplers that
take one draw, and one histogram node, at a time
(``reference_sample_many``, ``reference_sample_counts``), with their own
Python-loop rule for a step's conditionals
(``reference_normalize_conditionals``), the pooled cut that ranks every
value on every call (``reference_truncate_global``), the read of rho's diagonal as one
walk over every boundary sector (``all_sector_marginal``), and, built on
``bosonet.oracle``, the exact lossless output distribution, ``matrix_element``
of a density operator, and the operator-space spectra of a lossy state, both
of the charge-resolved object the train stores and of rho itself.  The closed
forms that no run reads live here too: the binomial spectrum
(``binomial_spectrum``), the collision-free pure-state entropy built from it
(``lossless_ee``), and the 4x4 matrix whose eigenvalues
``entropy.lossy_mode_spectrum`` gives in closed form (``lossy_mode_operator``).
"""

import itertools
import os
from itertools import accumulate

import numpy as np
import pytest

from bosonet import chain, entropy, experiments, sampling
from bosonet.circuit import CircuitPlan, occupation_pattern, sample_haar_circuit
from bosonet.linalg import RANK_CUTOFF, NumericalFailure
from bosonet.mpo import MpoState, trace_labels
from bosonet.oracle import ExactDistribution, dense_evolve, enumerate_occupations, exact_prob


def haar_plan(num_modes: int, seed: int) -> CircuitPlan:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return sample_haar_circuit(num_modes, rng)


def all_outcomes(num_modes: int, max_total: int):
    return [
        occs
        for occs in itertools.product(range(max_total + 1), repeat=num_modes)
        if sum(occs) <= max_total
    ]


def assert_no_child_process():
    """This process has no child process left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_gesvd(monkeypatch) -> list:
    """The ``lapack_driver`` of every scipy SVD made from now on, in call order."""
    import scipy.linalg

    calls, real = [], scipy.linalg.svd

    def counting(*args, **kwargs):
        calls.append(kwargs.get("lapack_driver"))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "svd", counting)
    return calls


def count_centers(monkeypatch, plans: list | None = None) -> list[int]:
    """[centers decomposed from now on], counted from the plans that
    ``chain.two_site_update`` gets; each plan is appended to ``plans`` if given."""
    count, real = [0], chain.update_plan

    def counting(*args):
        plan = real(*args)
        count[0] += len(plan.centers)
        if plans is not None:
            plans.append(plan)
        return plan

    monkeypatch.setattr(chain, "update_plan", counting)
    return count


def abort_once_recorded(monkeypatch, out_dir):
    """Patch ``_Budget.check`` to raise :class:`ResourceAbort` once the run into
    ``out_dir`` has recorded a unit: on the serial path, at the first budget check
    of the unit after the first."""
    def check(budget):
        if any((out_dir / "checkpoints").glob("*.json")):
            raise experiments.ResourceAbort("wall-clock budget exhausted")

    monkeypatch.setattr(experiments._Budget, "check", check)


def units_run(monkeypatch, marks):
    """Patch ``experiments._run_units`` so that every unit a run starts, in this
    process or in a worker, leaves a mark in the new directory ``marks``.  Returns
    a function giving the sorted (point, circuit) of the marks."""
    marks.mkdir()
    real = experiments._run_units

    def marking(config, digest, columns, run_unit):
        def unit(point_index, c, *rest):
            (marks / f"{point_index}_{c}").touch()
            return run_unit(point_index, c, *rest)

        return real(config, digest, columns, unit)

    monkeypatch.setattr(experiments, "_run_units", marking)
    return lambda: sorted(tuple(map(int, path.name.split("_"))) for path in marks.iterdir())


def _reference_step(engine, env, site_idx: int):
    """(masses, conditional distribution, child by occupation) of one step of one
    draw: one environment, a 1-D array (density operator) or a dict by charge."""
    if isinstance(engine, sampling._LossyEngine):
        transfers = engine.transfers[site_idx]
        weights = (env @ engine.weights[site_idx]).tolist()

        def child(n):
            return env @ transfers[n]
    else:
        children = [chain.propagate(engine.state, site_idx, env, (n,))
                    for n in range(engine.local_dim)]
        weights = [sampling._squared_norm(c) for c in children]
        child = children.__getitem__
    return weights, reference_normalize_conditionals(weights), child


def reference_normalize_conditionals(weights: list[float]) -> list[float]:
    """``sampling.normalize_conditionals`` as a Python loop over one row: clamp a
    negative mass to 0, refuse one below the tolerance or a total that is not
    positive, and divide by the total of the sequential adds."""
    cleaned = []
    for w in weights:
        if w < -sampling.NEGATIVE_MASS_TOLERANCE:
            raise NumericalFailure(
                f"conditional mass {w:.3e} below -{sampling.NEGATIVE_MASS_TOLERANCE:.0e}; "
                "state integrity lost"
            )
        cleaned.append(max(w, 0.0))
    total = sum(cleaned)
    if total <= 0.0:
        raise NumericalFailure("conditional distribution has no positive mass")
    return [w / total for w in cleaned]


def _reference_draw(engine, rng: np.random.Generator) -> sampling.SamplingResult:
    """One draw, site by site, with one ``rng.random()`` per site."""
    env = engine.start
    running = engine.total
    outcome = []
    joint = 1.0
    max_deficit = 0.0
    for site_idx in range(engine.num_modes):
        weights, probs, child = _reference_step(engine, env, site_idx)
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
    return sampling.SamplingResult(
        outcome=tuple(outcome),
        joint_probability=joint,
        max_step_deficit=max_deficit,
    )


def reference_sample_many(state, rng: np.random.Generator, count: int):
    """``sampling.sample_many`` as ``count`` draws made one after the other."""
    engine = sampling._engine(state)
    return [_reference_draw(engine, rng) for _ in range(count)]


def reference_sample_counts(state, rng: np.random.Generator, count: int) -> dict:
    """``sampling.sample_counts`` with every frontier node stepped on its own."""
    engine = sampling._engine(state)
    frontier = [(engine.start, (), count)]
    for site_idx in range(engine.num_modes):
        nxt = []
        for env, prefix, n_here in frontier:
            _, probs, child = _reference_step(engine, env, site_idx)
            split = rng.multinomial(n_here, probs)
            for occupation, n_child in enumerate(split):
                if n_child > 0:
                    nxt.append((child(occupation), prefix + (occupation,), int(n_child)))
        frontier = nxt
    results: dict = {}
    for _, outcome, n in frontier:
        results[outcome] = results.get(outcome, 0) + n
    return results


def reference_truncate_global(groups, policy, units=None):
    """``linalg.truncate_global`` as it ranked every value on every call:
    (kept (label, value) pairs in keep order, discarded weight, kept indices
    per group), with the same checks and messages."""
    arrays = [np.asarray(values, dtype=np.float64) for _, values in groups]
    if any(vals.ndim != 1 for vals in arrays):
        raise ValueError("each group must provide a 1-d value array")
    units = np.ones(len(arrays), dtype=np.int64) if units is None else np.asarray(units)
    if (units.shape != (len(arrays),) or units.dtype.kind not in "iu"
            or min(units.tolist(), default=1) < 1):
        raise ValueError("units must give one positive integer per group")
    sizes = [vals.size for vals in arrays]
    values = np.concatenate(arrays) if arrays else np.zeros(0)
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise ValueError("singular values must be finite and nonnegative")

    group = np.repeat(np.arange(len(arrays)), sizes)
    order = np.argsort(-values, kind="stable")
    pooled = values[order]
    counts = units[group[order]]
    nonzero = int(np.count_nonzero(pooled > RANK_CUTOFF * pooled.max(initial=0.0)))
    fits = int(np.searchsorted(np.cumsum(counts), policy.chi_max, "right"))
    keep_count = min(nonzero, max(1, fits))
    weights = counts * pooled**2

    kept = np.zeros(values.size, dtype=bool)
    kept[order[:keep_count]] = True
    starts = list(accumulate(sizes, initial=0))
    return (
        [(groups[g][0], v) for g, v in zip(group[order[:keep_count]].tolist(),
                                            pooled[:keep_count].tolist())],
        float(sum(weights[keep_count:].tolist())),
        [np.flatnonzero(kept[start:stop]) for start, stop in zip(starts, starts[1:])],
    )


def all_sector_marginal(state: MpoState, prefix: tuple[int, ...]) -> float:
    """``mpo.marginal`` as one ``chain.contract_selected`` walk from every boundary
    sector: the prefix at its diagonal labels, every later site traced out."""
    labels = [((n, n),) for n in prefix]
    labels += [trace_labels(state.local_dim)] * (state.num_modes - len(prefix))
    return float(chain.contract_selected(state, labels).real) * state.norm_scale


def exact_lossless_distribution(u: np.ndarray, s: tuple[int, ...]) -> ExactDistribution:
    """Exact output distribution for input occupations ``s`` through unitary ``u``."""
    u = np.asarray(u)
    num_modes = u.shape[0]
    total = sum(s)
    entries = {
        t: exact_prob(u, tuple(s), t) for t in enumerate_occupations(num_modes, total)
    }
    return ExactDistribution(entries=entries)


def matrix_element(state: MpoState, ket: tuple[int, ...], bra: tuple[int, ...]) -> complex:
    """<ket| rho |bra> for one pair of Fock basis states."""
    ket = occupation_pattern(ket, state.num_modes)
    bra = occupation_pattern(bra, state.num_modes)
    value = chain.contract_selected(state, [((nk, nb),) for nk, nb in zip(ket, bra)])
    return complex(value) * state.norm_scale


def _lossy_sector_operators(
    plan: CircuitPlan, num_photons: int, mu: float, cut: int
) -> list[np.ndarray]:
    """The vectorized output operator of each surviving photon number, split at ``cut``.

    Each sector's operator is the binomial-weighted sum of the projectors on
    the evolved surviving subsets, on the Fock grid truncated at
    ``num_photons`` per mode, with (ket_k, bra_k) grouped per mode and the
    modes left of ``cut`` as rows.  Sectors of zero weight are left out.
    """
    num_modes = plan.num_modes
    if not 1 <= cut <= num_modes - 1:
        raise ValueError(f"cut must be in [1, {num_modes - 1}], got {cut}")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    d = num_photons + 1
    if d**num_modes > 3000:
        raise ValueError("doubled Fock grid too large for the dense oracle")
    grid_dim = d**num_modes
    # Mode occupancies index the grid with mode 1 slowest (C order).
    strides = [d ** (num_modes - 1 - k) for k in range(num_modes)]
    order = [k for pair in zip(range(num_modes), range(num_modes, 2 * num_modes)) for k in pair]
    blocks = []
    for size in range(num_photons + 1):
        weight = mu**size * (1.0 - mu) ** (num_photons - size)
        if weight == 0.0:
            continue
        rho = np.zeros((grid_dim, grid_dim), dtype=np.complex128)
        for subset in itertools.combinations(range(num_photons), size):
            occ = [0] * num_modes
            for mode in subset:
                occ[mode] = 1
            state = dense_evolve(tuple(occ), plan)
            vec = np.zeros(grid_dim, dtype=np.complex128)
            for basis_occ, a in zip(state.basis, state.amplitudes):
                if any(o >= d for o in basis_occ):
                    continue
                vec[sum(o * st for o, st in zip(basis_occ, strides))] = a
            rho += weight * np.outer(vec, vec.conj())
        # Vectorize: group (ket_k, bra_k) per mode, then split at the cut.
        tensor = rho.reshape([d] * (2 * num_modes))
        blocks.append(np.transpose(tensor, order).reshape(
            (d * d) ** cut, (d * d) ** (num_modes - cut)
        ))
    return blocks


def _normalized_spectrum(mat: np.ndarray) -> np.ndarray:
    """Squared singular values of ``mat``, normalized to sum 1, descending."""
    spectrum = np.linalg.svd(mat, compute_uv=False) ** 2
    total = spectrum.sum()
    if total <= 0.0:
        raise ValueError("vectorized state has zero norm")
    return np.sort(spectrum / total)[::-1]


def dense_lossy_vectorized_spectrum(
    plan: CircuitPlan, num_photons: int, mu: float, cut: int
) -> np.ndarray:
    """Bond spectrum (descending) of the normalized vectorized mixed state at ``cut``.

    Builds the output density operator of the lossy circuit (binomial mixture
    of evolved surviving subsets), keeping the total-photon sectors as
    orthogonal block-diagonal components — the same layout the tensor-network
    density operator uses, where the left boundary enumerates the sectors. The
    per-sector vectorized operators are stacked along the left side of the
    cut; the squared Schmidt values of the stacked matrix, normalized to sum
    1, match the tensor-network bond spectrum at full rank.
    """
    return _normalized_spectrum(np.vstack(_lossy_sector_operators(plan, num_photons, mu, cut)))


def dense_lossy_plain_spectrum(
    plan: CircuitPlan, num_photons: int, mu: float, cut: int
) -> np.ndarray:
    """Like dense_lossy_vectorized_spectrum but without sector bookkeeping.

    The total-photon sectors are summed into one operator before the Schmidt
    decomposition, so cross-sector components can interfere. This is the
    spectrum behind the closed-form per-mode entropy calculators, which model
    the vectorized operator itself rather than the charge-resolved stored
    object; the two agree only when a single sector carries weight.
    """
    return _normalized_spectrum(sum(_lossy_sector_operators(plan, num_photons, mu, cut)))


def binomial_spectrum(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) probabilities for k = 0..n."""
    from scipy import stats  # here, not at module level: its import takes about a second

    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    return stats.binom.pmf(np.arange(n + 1), n, p)


def lossless_ee(
    occupations: tuple[int, ...] | list[int],
    cos_squared: np.ndarray,
    alpha: float,
) -> float:
    """Collision-free pure-state entropy of a mode bipartition, in bits.

    The ``N_j`` photons entering mode ``j`` scatter independently across the
    cut, so the left-of-cut photon count in that photon group is
    Binomial(``N_j``, ``cos_squared[j]``) and the Schmidt spectrum is the
    product of those binomials.  Renyi entropies are therefore additive over
    input modes; empty modes contribute nothing. The order is checked up
    front, the occupations by ``circuit.occupation_pattern``.
    """
    entropy._check_order(alpha)
    total = 0.0
    for n, c2 in zip(occupation_pattern(occupations, len(cos_squared)), cos_squared):
        if n > 0:
            total += entropy.distribution_renyi(binomial_spectrum(n, float(c2)), alpha)
    return total


def lossy_mode_operator(cos_squared: float, mu: float) -> np.ndarray:
    """The 4x4 cross-cut Gram matrix of one lossy photon whose eigenvalues
    ``entropy.lossy_mode_spectrum`` gives in closed form (before normalizing):
    in the basis (doubled vacuum, two single-sided coherences, doubled photon),
    a 2x2 block on the first and last states plus two coherence diagonals."""
    if not 0.0 <= cos_squared <= 1.0:
        raise ValueError(f"cos_squared must be in [0, 1], got {cos_squared}")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    c2 = cos_squared
    s2 = 1.0 - cos_squared
    op = np.zeros((4, 4))
    op[0, 0] = (1.0 - mu) ** 2 + mu**2 * s2**2
    op[0, 3] = op[3, 0] = (1.0 - mu) * mu * c2
    op[3, 3] = mu**2 * c2**2
    op[1, 1] = op[2, 2] = mu**2 * s2 * c2
    return op
