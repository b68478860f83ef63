"""Shared generators and independent oracles for the test suite."""

import csv
import math
import numbers
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Mapping

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from entropy_toolkit import (
    AxiomReport,
    BasisCoefficients,
    GroundSet,
    IngletonFrame,
    JointDistribution,
    SetFunction,
    delta,
    delta_given,
    delta_vec,
    entropy_function,
    ingleton_base,
    ingleton_value,
    matroid_rank,
    modular_from,
    relabel,
    stv_vec,
)
from entropy_toolkit.core import (
    TOL_ANALYTIC,
    TOL_ENTROPIC,
    NonPolymatroidWarning,
    _bit_matrix,
    _check_pe_value,
    _modular_values,
    _real,
    _square_table,
    _step_table,
    is_modular,
)
from entropy_toolkit.entropy import (
    EXL_COLUMNS,
    INDEX_CHUNK,
    KAPPA_FLOOR,
    MAX_CELLS,
    ExLParams,
    _index_plan,
    subset_entropies,
)
from entropy_toolkit.frame import (
    DEGENERATE_TOL,
    CrossSectionPoint,
    pipeline_operator,
    section_weight_matrix,
)
from entropy_toolkit.inequalities import CrossSectionHalfspace, LinearInequality, dfz_linear
from entropy_toolkit.search.engine import (
    DIRECTION_PENALTY,
    SCORE_OBJECTIVES,
    DistributionObjective,
    check_direction,
    nelder_mead,
    softmax,
)
from entropy_toolkit.search.geometry import (
    FEASIBILITY_TOL,
    SIMPLEX_FACETS,
    Polytope3,
    _affine_dim,
    convex_hull_3d,
)


def rand_polymatroid(rng, ground: GroundSet) -> SetFunction:
    """Random conic combination of uniform-up-to-loops matroids plus a modular
    part; nonnegative combinations of polymatroids are polymatroids."""
    vals = np.zeros(ground.size)
    for _ in range(int(rng.integers(1, 6))):
        loops = int(rng.integers(0, ground.size))
        free = ground.n - bin(loops).count("1")
        if free == 0:
            continue
        m = int(rng.integers(1, free + 1))
        vals += rng.uniform(0.0, 1.0) * matroid_rank(ground, m, loops).values
    vals += rand_modular(rng, ground, scale=0.5).values
    return SetFunction(ground, vals)


def rand_modular(rng, ground: GroundSet, scale: float = 1.0) -> SetFunction:
    return modular_from(ground, list(rng.uniform(0.0, scale, ground.n)))


def rand_set_function(rng, ground: GroundSet, scale: float = 2.0) -> SetFunction:
    """Arbitrary set function (no axioms), f(empty) = 0."""
    vals = rng.uniform(-scale, scale, ground.size)
    vals[0] = 0.0
    return SetFunction(ground, vals)


def rand_distribution(rng, ground: GroundSet, sizes) -> JointDistribution:
    """Full-support Dirichlet draw on the product alphabet."""
    sizes = tuple(sizes)
    probs = rng.dirichlet(np.ones(int(np.prod(sizes))))
    return JointDistribution.from_dense(ground, sizes, probs)


def full_pairwise_submodular_ok(f: SetFunction, tol: float) -> bool:
    """Oracle: delta(f, I, J) >= -tol for every pair of subsets."""
    for I in f.ground.subsets():
        for J in f.ground.subsets():
            if delta(f, I, J) < -tol:
                return False
    return True


def full_monotone_ok(f: SetFunction, tol: float) -> bool:
    """Oracle: f(I) <= f(J) + tol for every nested pair I within J."""
    for J in f.ground.subsets():
        I = J
        while True:
            if f.values[I] > f.values[J] + tol:
                return False
            if I == 0:
                break
            I = (I - 1) & J
    return True


def entropy_by_dict_marginals(d: JointDistribution) -> SetFunction:
    """Oracle: every marginal accumulated in a dict, then summed kappa terms."""
    vals = np.zeros(d.ground.size)
    for I in range(1, d.ground.size):
        marginal: dict = {}
        for cfg, p in d.atoms.items():
            key = tuple(x for b, x in enumerate(cfg) if I >> b & 1)
            marginal[key] = marginal.get(key, 0.0) + p
        vals[I] = sum(-p * np.log(p) for p in marginal.values() if 1e-15 < p < 1.0)
    return SetFunction(d.ground, vals)


def modular_by_bit_loop(ground: GroundSet, per_bit) -> np.ndarray:
    """Oracle: additive extension by accumulating bit by bit."""
    vals = np.zeros(ground.size)
    for I in ground.subsets():
        vals[I] = sum(per_bit[b] for b in range(ground.n) if I >> b & 1)
    return vals


# --- per-subset loop references for core's mask-table operations -------------


def check_axioms_by_loops(f: SetFunction, tol: float = TOL_ANALYTIC) -> AxiomReport:
    """Reference: the elemental checks walked subset by subset."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    g = f.ground
    v = f.values
    n = g.n

    mono: list[tuple[float, int, int]] = []
    for b in range(n):
        bit = 1 << b
        for K in g.subsets():
            if K & bit:
                continue
            margin = v[K | bit] - v[K]
            if margin < 0.0:
                mono.append((float(margin), K, K | bit))

    sub: list[tuple[float, int, int]] = []
    for a in range(n):
        for b in range(a + 1, n):
            pair = (1 << a) | (1 << b)
            for K in g.subsets():
                if K & pair:
                    continue
                iK, jK = K | (1 << a), K | (1 << b)
                margin = v[iK] + v[jK] - v[K | pair] - v[K]
                if margin < 0.0:
                    sub.append((float(margin), iK, jK))

    mono.sort(key=lambda t: t[0])
    sub.sort(key=lambda t: t[0])
    worst_mono = mono[0][0] if mono else 0.0
    worst_sub = sub[0][0] if sub else 0.0
    return AxiomReport(
        is_monotone=worst_mono >= -tol,
        is_submodular=worst_sub >= -tol,
        worst_monotone_violation=worst_mono,
        worst_submodular_violation=worst_sub,
        monotone_witnesses=tuple((p, q) for m, p, q in mono if m < -tol),
        submodular_witnesses=tuple((p, q) for m, p, q in sub if m < -tol),
        tol=tol,
    )


def violations_by_witness_search(margins: np.ndarray, pairs: tuple[np.ndarray, np.ndarray],
                                  tol: float) -> tuple[float, tuple[tuple[int, int], ...]]:
    """Reference: the worst negative margin and the witnesses below -tol, with
    the witness search run on every call."""
    negative = margins[margins < 0.0]
    worst = float(negative.min()) if negative.size else 0.0
    bad = np.flatnonzero(margins < -tol)
    bad = bad[np.argsort(margins[bad], kind="stable")]
    return worst, tuple(zip(pairs[0][bad].tolist(), pairs[1][bad].tolist()))


def check_axioms_by_witness_search(f: SetFunction, tol: float = TOL_ANALYTIC) -> AxiomReport:
    """Reference: ``check_axioms`` over :func:`violations_by_witness_search`."""
    _real(tol, "tolerance", 0.0)
    v = f.values
    lo, hi = _step_table(f.ground.n)
    iK, jK, ijK, K = _square_table(f.ground.n)
    worst_mono, mono = violations_by_witness_search(v[hi] - v[lo], (lo, hi), tol)
    worst_sub, sub = violations_by_witness_search(v[iK] + v[jK] - v[ijK] - v[K],
                                                  (iK, jK), tol)
    return AxiomReport(
        is_monotone=worst_mono >= -tol,
        is_submodular=worst_sub >= -tol,
        worst_monotone_violation=worst_mono,
        worst_submodular_violation=worst_sub,
        monotone_witnesses=mono,
        submodular_witnesses=sub,
        tol=tol,
    )


def is_polymatroid_by_report(f: SetFunction, tol: float) -> bool:
    """Reference: the verdict read off a full report whose margins are
    computed inline."""
    return check_axioms_by_witness_search(f, tol).is_polymatroid


def warn_if_not_polymatroid_by_report(h: SetFunction, where: str) -> None:
    """Reference: the decomposition guard through a full report; warns at
    the caller's caller, as the library's guard does."""
    if not is_polymatroid_by_report(h, TOL_ENTROPIC):
        warnings.warn(f"{where}: input is not a polymatroid at tolerance "
                      f"{TOL_ENTROPIC}; computing anyway",
                      NonPolymatroidWarning, stacklevel=3)


def is_modular_by_report(f: SetFunction, tol: float = TOL_ANALYTIC) -> bool:
    """Reference: ``is_modular`` with the verdict read off a full report."""
    _real(tol, "tolerance", 0.0)
    total = sum(f.values[1 << b] for b in range(f.ground.n))
    if abs(f.rank - total) > tol:
        return False
    return is_polymatroid_by_report(f, tol)


def matroid_rank_by_loops(ground: GroundSet, m: int, loops=0) -> SetFunction:
    """Reference: min(m, |I - loops|) counted subset by subset."""
    J = ground.mask(loops)
    free = ground.n - bin(J).count("1")
    if not 0 <= m <= free:
        raise ValueError(f"rank {m} out of range 0..{free} for loop set "
                         f"{ground.subset_key(J)!r}")
    vals = [min(m, bin(I & ~J).count("1")) for I in ground.subsets()]
    return SetFunction(ground, vals)


def convolution_by_loops(f: SetFunction, g: SetFunction) -> SetFunction:
    """Reference: the submask walk J = I, (J - 1) & I, ... for every I."""
    f._require_ground(g.ground)
    fv, gv = f.values, g.values
    out = np.empty(f.ground.size)
    for I in f.ground.subsets():
        best = fv[0] + gv[I]
        J = I
        while J:
            cand = fv[J] + gv[I ^ J]
            if cand < best:
                best = cand
            J = (J - 1) & I
        out[I] = best
    out[0] = 0.0
    return SetFunction(f.ground, out)


def convolve_modular_iterative_by_loops(f: SetFunction, g: SetFunction,
                                        tol: float = TOL_ANALYTIC) -> SetFunction:
    """Reference: the single-element convolutions applied subset by subset."""
    f._require_ground(g.ground)
    if not is_modular(g, tol):
        raise ValueError("g must be modular for the iterative convolution")
    h = np.array(f.values)
    for b in range(f.ground.n):
        bit = 1 << b
        gi = g.values[bit]
        for I in f.ground.subsets():
            if I & bit:
                continue
            h[I | bit] = min(h[I] + gi, h[I | bit])
    return SetFunction(f.ground, h)


def parallel_extension_by_loops(f: SetFunction, L, new_label: str) -> SetFunction:
    """Reference: the parallel extension filled subset by subset."""
    g = f.ground
    if new_label in g.labels:
        raise ValueError(f"label {new_label!r} already present")
    mL = g.mask(L)
    ext = GroundSet(g.labels + (new_label,))
    top = 1 << g.n
    vals = np.zeros(ext.size)
    vals[:top] = f.values
    for J in g.subsets():
        vals[top | J] = f.values[mL | J]
    return SetFunction(ext, vals)


def principal_extension_by_loops(f: SetFunction, L, t: float,
                                 new_label: str = "0") -> SetFunction:
    """Reference: the principal extension filled subset by subset."""
    g = f.ground
    if new_label in g.labels:
        raise ValueError(f"label {new_label!r} already present")
    mL = g.mask(L)
    t = _check_pe_value(f, mL, t)
    ext = GroundSet(g.labels + (new_label,))
    top = 1 << g.n
    vals = np.zeros(ext.size)
    vals[:top] = f.values
    for I in g.subsets():
        vals[top | I] = min(f.values[I] + t, f.values[mL | I])
    return SetFunction(ext, vals)


def pe_contract_by_loops(f: SetFunction, L, t: float) -> SetFunction:
    """Reference: the contracted principal extension, joins listed subset by
    subset."""
    g = f.ground
    mL = g.mask(L)
    t = _check_pe_value(f, mL, t)
    vals = np.minimum(f.values, np.array([f.values[mL | I] for I in g.subsets()]) - t)
    vals[0] = 0.0
    return SetFunction(g, vals)


def is_tight_by_loop(f: SetFunction, tol: float = TOL_ANALYTIC) -> bool:
    """Reference: every top increment checked element by element."""
    full = f.ground.full_mask
    return all(abs(f.values[full] - f.values[full ^ (1 << b)]) <= tol
               for b in range(f.ground.n))


def tight_part_by_product(h: SetFunction) -> SetFunction:
    """Reference: h minus the bit-membership product with the top increments."""
    n, full = h.ground.n, h.ground.full_mask
    incr = h.values[full] - h.values[full ^ (1 << np.arange(n))]
    return SetFunction(h.ground, h.values - _bit_matrix(n) @ incr)


def nelder_mead_by_lists(fn: Callable[[np.ndarray], float], x0: np.ndarray,
                          budget: int, diam_tol: float = 1e-10,
                          initial_step: float = 0.5,
                          shrinks: list | None = None) -> tuple[np.ndarray, float, int, bool]:
    """Nelder-Mead descent with the standard coefficient set.

    Reflection 1, expansion 2, contraction 0.5, shrink 0.5.  Stops when the
    simplex diameter drops below diam_tol or the evaluation budget is spent
    (an in-flight iteration may finish, so the count can exceed the budget by
    at most dim + 1).  Returns (best_x, best_value, evals, converged).

    Reference: the list-based search that the array-based
    ``engine.nelder_mead`` must reproduce bit for bit.  When ``shrinks`` is
    given, the evaluation count at every shrink step is appended to it.
    """
    dim = len(x0)
    pts = [np.array(x0, dtype=float)]
    for b in range(dim):
        step = np.array(x0, dtype=float)
        step[b] += initial_step
        pts.append(step)
    vals = [fn(p) for p in pts]
    evals = dim + 1
    converged = False

    while evals < budget:
        order = sorted(range(dim + 1), key=lambda idx: (vals[idx], idx))
        pts = [pts[o] for o in order]
        vals = [vals[o] for o in order]
        diam = max(float(np.max(np.abs(p - pts[0]))) for p in pts[1:])
        if diam < diam_tol:
            converged = True
            break
        centroid = np.mean(pts[:-1], axis=0)
        reflected = centroid + (centroid - pts[-1])
        f_r = fn(reflected)
        evals += 1
        if f_r < vals[0]:
            expanded = centroid + 2.0 * (centroid - pts[-1])
            f_e = fn(expanded)
            evals += 1
            if f_e < f_r:
                pts[-1], vals[-1] = expanded, f_e
            else:
                pts[-1], vals[-1] = reflected, f_r
        elif f_r < vals[-2]:
            pts[-1], vals[-1] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (pts[-1] - centroid)
            f_c = fn(contracted)
            evals += 1
            if f_c < vals[-1]:
                pts[-1], vals[-1] = contracted, f_c
            else:
                if shrinks is not None:
                    shrinks.append(evals)
                pts = [pts[0] + 0.5 * (p - pts[0]) for p in pts]
                vals = [vals[0]] + [fn(p) for p in pts[1:]]
                evals += dim

    best = min(range(dim + 1), key=lambda idx: (vals[idx], idx))
    return pts[best], vals[best], evals, converged


def softmax_by_np_max(theta: np.ndarray) -> np.ndarray:
    """Reference: normalized exponentials through ``np.max`` and a fresh
    quotient array."""
    e = np.exp(theta - np.max(theta))
    return e / e.sum()


def softmax_by_maximum_reduce(theta: np.ndarray) -> np.ndarray:
    """Reference: ``softmax`` with its maximum from the ufunc reduction."""
    e = theta - np.maximum.reduce(theta)
    np.exp(e, out=e)
    e /= np.add.reduce(e)
    return e


def all_live_by_reduce(masses: np.ndarray) -> bool:
    """Reference: ``subset_entropies``' all-live test with ufunc reductions."""
    return bool(KAPPA_FLOOR < np.minimum.reduce(masses) and np.maximum.reduce(masses) < 1.0)


def marginal_index_by_fresh_plan(configs: np.ndarray, sizes,
                                 masks: np.ndarray | None = None
                                 ) -> tuple[np.ndarray, np.ndarray, int]:
    """Reference: ``marginal_index`` with its place values and block offsets
    rebuilt from the alphabet and the masks on every call."""
    n = configs.shape[1]
    masks = np.arange(1, 1 << n) if masks is None else masks
    member = (masks >> np.arange(n)[:, None]) & 1
    radix = np.where(member, np.asarray(sizes, dtype=np.int64)[:, None], 1)
    block = np.cumprod(radix[::-1], axis=0)[::-1]
    place = member * np.vstack([block[1:], np.ones_like(block[:1])])
    offsets = np.concatenate(([0], np.cumsum(block[0])[:-1]))
    cells, flat_idx = np.unique((configs @ place + offsets).ravel(),
                                return_inverse=True)
    return flat_idx, np.searchsorted(cells, offsets), len(cells)


def marginal_index_by_unique(configs: np.ndarray, sizes, lo: int = 1,
                             hi: int | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """Reference: ``marginal_index`` with int64 keys that ``np.unique``
    numbers on every range, whatever its key span."""
    place, offsets = _index_plan(tuple(sizes))
    cols = slice(lo - 1, None if hi is None else hi - 1)
    place, offsets = place[:, cols], offsets[cols]
    cells, flat_idx = np.unique((configs @ place + offsets).ravel(),
                                return_inverse=True)
    return flat_idx, np.searchsorted(cells, offsets), len(cells)


def subset_entropies_by_tile(p: np.ndarray, flat_idx: np.ndarray, starts: np.ndarray,
                             n_cells: int) -> np.ndarray:
    """Reference: bincount weights from ``np.repeat`` and the live masses
    indexed twice."""
    masses = np.bincount(flat_idx, weights=np.repeat(p, len(starts)), minlength=n_cells)
    contrib = np.zeros_like(masses)
    live = (masses > KAPPA_FLOOR) & (masses < 1.0)
    contrib[live] = -masses[live] * np.log(masses[live])
    return np.add.reduceat(contrib, starts)


def entropy_function_by_tile(d: JointDistribution) -> SetFunction:
    """Reference: ``entropy_function`` over :func:`subset_entropies_by_tile`."""
    live = [(cfg, p) for cfg, p in d.atoms.items() if p > 0.0]
    configs = np.array([cfg for cfg, _ in live], dtype=np.int64)
    probs = np.array([p for _, p in live])
    vals = np.zeros(d.ground.size)
    step = max(1, INDEX_CHUNK // len(probs))
    for lo in range(1, d.ground.size, step):
        masks = np.arange(lo, min(lo + step, d.ground.size))
        vals[masks] = subset_entropies_by_tile(
            probs, *marginal_index_by_fresh_plan(configs, d.alphabet_sizes, masks))
    return SetFunction(d.ground, vals)


def entropy_vector_by_tile(evaluator: DistributionObjective, p: np.ndarray) -> np.ndarray:
    """Reference: ``DistributionObjective.entropy_vector`` over
    :func:`subset_entropies_by_tile`."""
    h = np.zeros(16)
    h[1:] = subset_entropies_by_tile(p, evaluator._flat_idx, evaluator._offsets,
                                     evaluator._n_cells)
    return h


class ObjectiveByRankVecs:
    """Reference: ``DistributionObjective``'s scores and weights from a
    separate stv vector, one normalizer vector per score objective and a
    weight matrix, each method applying the degenerate rule itself."""

    def __init__(self, frame: IngletonFrame):
        eye = np.eye(frame.ground.size)
        pipeline = pipeline_operator(frame)
        self.stv_vec = stv_vec(frame)
        self.rank_vecs = dict(zip(SCORE_OBJECTIVES, (
            eye[-1], eye[-1] - _modular_values(eye)[-1], pipeline[-1])))
        self.weight_mat = section_weight_matrix(frame) @ pipeline

    def score_from_entropy(self, h: np.ndarray, objective: str) -> float:
        rank_vec = self.rank_vecs.get(objective)
        if rank_vec is None:
            raise ValueError(f"not a score objective: {objective!r}")
        denom = float(rank_vec @ h)
        if denom <= DEGENERATE_TOL:
            return 0.0
        return float(self.stv_vec @ h) / denom

    def weights_from_entropy(self, h: np.ndarray) -> np.ndarray | None:
        denom = float(self.rank_vecs["pipeline_score"] @ h)
        return None if denom <= DEGENERATE_TOL else self.weight_mat @ h / denom


def ray_objective_by_matmul(evaluator: DistributionObjective,
                            direction) -> Callable[[np.ndarray], float]:
    """Reference: the ray objective with the weights, the pipeline
    normalizer and the component along the direction made by ``@``."""
    d = np.asarray(direction, dtype=float) / np.linalg.norm(direction)
    denominator, weight_rows = evaluator.table[7], evaluator.table[1:5]

    def fn(p: np.ndarray) -> float:
        h = evaluator.entropy_vector(p)
        denom = float(denominator @ h)
        if denom <= DEGENERATE_TOL:
            return 0.0
        w = weight_rows @ h / denom
        x = w[1:]
        along = float(x @ d)
        r = x - along * d if along > 0 else x
        return -w[0] + DIRECTION_PENALTY * math.sqrt(float(r.dot(r)))
    return fn


def alpha_objective_by_norm(evaluator: DistributionObjective, direction,
                            collector: list | None = None) -> Callable[[np.ndarray], float]:
    """Reference: the alpha-in-direction objective with ``np.linalg.norm``
    distances and a collector that converts weights one float at a time and
    keeps those inside the tetrahedron."""
    def emit(w: np.ndarray | None) -> None:
        if w is not None and abs(float(w.sum()) - 1.0) <= 1e-9:
            point = tuple(float(x) for x in w)
            if min(point) >= 0.0:
                collector.append(point)

    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)

    def fn(p: np.ndarray) -> float:
        h = entropy_vector_by_tile(evaluator, p)
        w = evaluator.weights_from_entropy(h)
        if w is None:
            return 0.0
        if collector is not None:
            emit(w)
        x = w[1:]
        along = float(x @ d)
        perp = float(np.linalg.norm(x - along * d)) if along > 0 \
            else float(np.linalg.norm(x))
        return -w[0] + DIRECTION_PENALTY * perp
    return fn


def nelder_mead_by_mean(fn: Callable[[np.ndarray], float], x0: np.ndarray,
                        budget: int, diam_tol: float = 1e-10,
                        initial_step: float = 0.5) -> tuple[np.ndarray, float, int, bool]:
    """Reference: the array-based search with an ``np.mean`` centroid and
    ``np.max`` diameter tests."""
    def evaluate(x: np.ndarray) -> float:
        value = fn(x)
        if not math.isfinite(value):
            raise ValueError(f"objective returned a non-finite value: {value!r}")
        return value

    dim = len(x0)
    simplex = np.tile(np.asarray(x0, dtype=float), (dim + 1, 1))
    simplex[np.arange(1, dim + 1), np.arange(dim)] += initial_step
    vals = np.array([evaluate(row.copy()) for row in simplex], dtype=float)
    rank = np.arange(dim + 1)
    evals = dim + 1
    converged = False

    while evals < budget:
        rank = rank[np.argsort(vals[rank], kind="stable")]
        best, second, worst = rank[0], rank[-2], rank[-1]
        if (np.max(np.abs(simplex[worst] - simplex[best])) < diam_tol
                and np.max(np.abs(simplex - simplex[best])) < diam_tol):
            converged = True
            break
        centroid = np.mean(simplex[rank[:-1]], axis=0)
        reflected = centroid + (centroid - simplex[worst])
        f_r = evaluate(reflected)
        evals += 1
        if f_r < vals[best]:
            expanded = centroid + 2.0 * (centroid - simplex[worst])
            f_e = evaluate(expanded)
            evals += 1
            if f_e < f_r:
                simplex[worst], vals[worst] = expanded, f_e
            else:
                simplex[worst], vals[worst] = reflected, f_r
        elif f_r < vals[second]:
            simplex[worst], vals[worst] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (simplex[worst] - centroid)
            f_c = evaluate(contracted)
            evals += 1
            if f_c < vals[worst]:
                simplex[worst], vals[worst] = contracted, f_c
            else:
                simplex = simplex[best] + 0.5 * (simplex - simplex[best])
                for row in rank[1:]:
                    vals[row] = evaluate(simplex[row].copy())
                evals += dim

    best = rank[np.argmin(vals[rank])]
    return simplex[best].copy(), float(vals[best]), evals, converged


def nelder_mead_by_rank(fn: Callable[[np.ndarray], float], x0: np.ndarray,
                        budget: int, diam_tol: float = 1e-10,
                        initial_step: float = 0.5) -> tuple[np.ndarray, float, int, bool]:
    """Nelder-Mead descent with the standard coefficient set.

    Reflection 1, expansion 2, contraction 0.5, shrink 0.5.  Stops when the
    simplex diameter drops below diam_tol or the evaluation budget is spent
    (an in-flight iteration may finish, so the count can exceed the budget by
    at most dim + 1).  Returns (best_x, best_value, evals, converged).

    Reference: the array-based search whose rows never move, ranked by a
    permutation re-sorted every iteration and averaged through a gathered
    copy of the simplex.

    The simplex is one ``(dim + 1, dim)`` array whose rows never move; the
    permutation ``rank`` lists them from best to worst.  Each iteration
    re-ranks with a stable argsort of the values, so ties keep their previous
    rank (initially x0 first, then x0 + initial_step * e_b in order of b).  A
    replacement overwrites the worst row in place, and ``fn`` always gets a
    fresh array, never a view of the simplex.  A non-finite objective value
    raises ValueError, because it has no place in that order.
    """
    def evaluate(x: np.ndarray) -> float:
        value = fn(x)
        if not math.isfinite(value):
            raise ValueError(f"objective returned a non-finite value: {value!r}")
        return value

    dim = len(x0)
    simplex = np.tile(np.asarray(x0, dtype=float), (dim + 1, 1))
    simplex[np.arange(1, dim + 1), np.arange(dim)] += initial_step
    vals = np.array([evaluate(row.copy()) for row in simplex], dtype=float)
    rank = np.arange(dim + 1)
    evals = dim + 1
    converged = False

    while evals < budget:
        rank = rank[np.argsort(vals[rank], kind="stable")]
        best, second, worst = rank[0], rank[-2], rank[-1]
        # The diameter is a max, so the worst vertex alone rules out
        # convergence whenever it is at least diam_tol from the best.
        if (np.abs(simplex[worst] - simplex[best]).max() < diam_tol
                and np.abs(simplex - simplex[best]).max() < diam_tol):
            converged = True
            break
        # np.mean without its Python wrapper; summing the rows in rank order
        # keeps the centroid bit-identical.
        centroid = np.add.reduce(simplex[rank[:-1]], axis=0) / dim
        reflected = centroid + (centroid - simplex[worst])
        f_r = evaluate(reflected)
        evals += 1
        if f_r < vals[best]:
            expanded = centroid + 2.0 * (centroid - simplex[worst])
            f_e = evaluate(expanded)
            evals += 1
            if f_e < f_r:
                simplex[worst], vals[worst] = expanded, f_e
            else:
                simplex[worst], vals[worst] = reflected, f_r
        elif f_r < vals[second]:
            simplex[worst], vals[worst] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (simplex[worst] - centroid)
            f_c = evaluate(contracted)
            evals += 1
            if f_c < vals[worst]:
                simplex[worst], vals[worst] = contracted, f_c
            else:
                simplex = simplex[best] + 0.5 * (simplex - simplex[best])
                for row in rank[1:]:
                    vals[row] = evaluate(simplex[row].copy())
                evals += dim

    best = rank[np.argmin(vals[rank])]
    return simplex[best].copy(), float(vals[best]), evals, converged


def basis_generators_by_hand(frame: IngletonFrame) -> tuple[SetFunction, ...]:
    """The eleven generators, ordered to match :class:`BasisCoefficients`.

    The matroid paired with each coefficient is the one the corresponding
    functional picks out: c_ij pairs with the free rank-1 matroid, c_ij_k
    with the rank-2 matroid whose loop is l, c_jl_k with the rank-1 matroid
    with loops {i, k}, and so on.

    Reference: the hand-written tuple that ``frame.basis_generators`` must
    reproduce bit for bit.
    """
    g = frame.ground
    i, j, k, l = frame.roles
    return (
        ingleton_base(frame),
        matroid_rank(g, 1),
        matroid_rank(g, 3),
        matroid_rank(g, 1, (i,)),
        matroid_rank(g, 1, (j,)),
        matroid_rank(g, 2, (l,)),
        matroid_rank(g, 2, (k,)),
        matroid_rank(g, 1, (i, k)),
        matroid_rank(g, 1, (j, k)),
        matroid_rank(g, 1, (i, l)),
        matroid_rank(g, 1, (j, l)),
    )


def basis_coefficients_by_deltas(h: SetFunction, frame: IngletonFrame) -> BasisCoefficients:
    """Read the basis coordinates of h off the coordinate functionals.

    The read-off is linear and total; it inverts :func:`reconstruct` exactly
    on tight inputs (the generators form a basis of the tight subspace).

    Reference: the delta_given read-off that ``frame.basis_coefficients``
    must reproduce within rounding.
    """
    h._require_ground(frame.ground)
    i, j, k, l = frame.roles
    return BasisCoefficients(
        c_bar=-ingleton_value(h, frame),
        c_ij=delta_given(h, i, j),
        c_kl_ij=delta_given(h, k, l, (i, j)),
        c_kl_i=delta_given(h, k, l, i),
        c_kl_j=delta_given(h, k, l, j),
        c_ij_k=delta_given(h, i, j, k),
        c_ij_l=delta_given(h, i, j, l),
        c_jl_k=delta_given(h, j, l, k),
        c_il_k=delta_given(h, i, l, k),
        c_jk_l=delta_given(h, j, k, l),
        c_ik_l=delta_given(h, i, k, l),
    )


def a_map_by_deltas(h: SetFunction, frame: IngletonFrame) -> SetFunction:
    """Add delta(ij|empty)(h) times (rank-1-with-loop-i minus rank-1).

    Zeroes the mutual-information coordinate delta(ij|empty) while preserving
    stv; commutes with :func:`b_map`.

    Reference for ``frame.a_map``.
    """
    h._require_ground(frame.ground)
    c = delta_given(h, frame.i, frame.j)
    shift = matroid_rank(frame.ground, 1, (frame.i,)) - matroid_rank(frame.ground, 1)
    return h + c * shift


def b_map_by_deltas(h: SetFunction, frame: IngletonFrame) -> SetFunction:
    """Add delta(kl|ij)(h) times (rank-2-with-loop-k minus rank-3).

    Zeroes the delta(kl|ij) coordinate while preserving stv; commutes with
    :func:`a_map`.

    Reference for ``frame.b_map``.
    """
    h._require_ground(frame.ground)
    c = delta_given(h, frame.k, frame.l, (frame.i, frame.j))
    shift = matroid_rank(frame.ground, 2, (frame.k,)) - matroid_rank(frame.ground, 3)
    return h + c * shift


def tetra_vertices_by_hand(frame: IngletonFrame) -> tuple[SetFunction, SetFunction,
                                                          SetFunction, SetFunction]:
    """Vertices (alpha, beta, gamma, delta) of the cross-section tetrahedron.

    alpha is a quarter of the extreme non-almost-entropic generator (score
    -1/4); beta, gamma, delta are symmetrized matroid averages lying on the
    Ingleton hyperplane.  All four have value 1 at N.

    Reference: the matroid sums that ``frame.tetra_vertices`` must reproduce
    bit for bit.
    """
    g = frame.ground
    i, j, k, l = frame.roles
    alpha = 0.25 * ingleton_base(frame)
    beta = 0.5 * (matroid_rank(g, 1, (j,)) + matroid_rank(g, 1, (i,)))
    gamma = 0.25 * (matroid_rank(g, 2, (l,)) + matroid_rank(g, 2, (k,)))
    delta_v = 0.25 * (matroid_rank(g, 1, (i, k)) + matroid_rank(g, 1, (j, k))
                      + matroid_rank(g, 1, (i, l)) + matroid_rank(g, 1, (j, l)))
    return alpha, beta, gamma, delta_v


def e_face_margins_by_deltas(h: SetFunction, frame: IngletonFrame) -> dict[str, float]:
    """The five functionals cutting out the distinguished face: all zero on it.

    delta(ij|k), delta(ij|l), delta(kl|i), delta(kl|j) and delta(kl|ij).

    Reference for ``frame.e_face_margins``.
    """
    h._require_ground(frame.ground)
    i, j, k, l = frame.roles
    return {
        "ij|k": delta_given(h, i, j, k),
        "ij|l": delta_given(h, i, j, l),
        "kl|i": delta_given(h, k, l, i),
        "kl|j": delta_given(h, k, l, j),
        "kl|ij": delta_given(h, k, l, (i, j)),
    }


def ingleton_score_by_value(h: SetFunction, frame: IngletonFrame) -> float:
    """Reference: stv(h) / h(N) through :func:`ingleton_value`, which checks
    the ground a second time."""
    h._require_ground(frame.ground)
    if h.rank <= 0.0:
        raise ValueError(f"Ingleton score needs h(N) > 0, got {h.rank}")
    return ingleton_value(h, frame) / h.rank


def section_weights_by_floats(h: SetFunction, frame: IngletonFrame) -> tuple[float, ...]:
    """Reference: the weight functionals at h, converted one float() at a time."""
    h._require_ground(frame.ground)
    return tuple(float(w) for w in section_weight_matrix(frame) @ h.values)


def section_weight_matrix_by_deltas(frame: IngletonFrame) -> np.ndarray:
    """Reference: the tetrahedron weight rows written out as delta sums,
    alpha = -4 stv, beta = delta(kl|i) + delta(kl|j), gamma = 2 delta(ij|k)
    + 2 delta(ij|l), delta = delta(jl|k) + delta(il|k) + delta(jk|l)
    + delta(ik|l)."""
    i, j, k, l = frame.roles
    d = partial(delta_vec, frame.ground)
    return np.vstack([-4.0 * stv_vec(frame),
                      d(k, l, i) + d(k, l, j),
                      2.0 * d(i, j, k) + 2.0 * d(i, j, l),
                      d(j, l, k) + d(i, l, k) + d(j, k, l) + d(i, k, l)])


def c_sym_by_dicts(h: SetFunction, frame: IngletonFrame) -> SetFunction:
    """Reference: h averaged over the stabilizer of {i, j} written as four
    literal label dicts, id, i<->j, k<->l and both, in that order."""
    i, j, k, l = frame.roles
    acc = np.zeros(h.ground.size)
    for perm in ({}, {i: j, j: i}, {k: l, l: k}, {i: j, j: i, k: l, l: k}):
        acc += relabel(h, perm).values
    return SetFunction(h.ground, acc / 4.0)


def pipeline_operator_by_deltas(frame: IngletonFrame) -> np.ndarray:
    """Reference: the pipeline matrix built from the delta_given face maps
    and the literal-dict stabilizer average, column m the image of the unit
    vector at mask m."""
    g = frame.ground
    units = np.eye(g.size)
    op = np.zeros((g.size, g.size))
    for m in range(1, g.size):
        tight = SetFunction(g, units[m] - _modular_values(units[m]))
        op[:, m] = c_sym_by_dicts(a_map_by_deltas(b_map_by_deltas(tight, frame), frame),
                                  frame).values
    return op


def evaluate_by_frozenset_loop(ineq: LinearInequality, h: SetFunction) -> float:
    """Reference: the nonzero coefficients walked one by one in mask order, each
    subset looked up in h by its labels, as the frozenset-keyed dict was."""
    c = ineq.coefficients
    total = 0.0
    for m in np.flatnonzero(c.values):
        total += c.values[m] * h.values[h.ground.mask(frozenset(c.ground.labels_of(m)))]
    return float(total)


def inequality_of(name: str, ground: GroundSet, terms: Mapping[int, float]) -> LinearInequality:
    """The inequality with coefficient terms[m] on the subset of mask m, 0 elsewhere."""
    vec = np.zeros(ground.size)
    vec[list(terms)] = list(terms.values())
    return LinearInequality(name, SetFunction(ground, vec))


def dfz_halfspace_closed_form(s: int) -> CrossSectionHalfspace:
    """Reference: the hand-written section form of DFZ member s plus its i<->j
    swap, beta + ((s-1) 2^s + 1) delta >= (2^s - 1)/2 * alpha, which
    ``dfz_halfspace`` must reproduce bit for bit."""
    return CrossSectionHalfspace(f"dfz-s{s}", -(2 ** s - 1) / 2.0, 1.0, 0.0,
                                 float((s - 1) * 2 ** s + 1))


def dfz_member_plus_swap(s: int, frame: IngletonFrame) -> LinearInequality:
    """DFZ member s plus its i<->j swap, the two coefficient vectors added, named dfz-s<s>."""
    return LinearInequality(f"dfz-s{s}", dfz_linear(s, frame).coefficients
                            + dfz_linear(s, frame.swapped_ij()).coefficients)


def dedupe_by_dict(arr: np.ndarray, decimals: int = 12) -> np.ndarray:
    """Reference: first-seen row per rounded-row key, through a dict."""
    seen = {}
    for row in arr:
        seen.setdefault(tuple(np.round(row, decimals)), row)
    return np.array(list(seen.values()))


def affine_constraints_by_loop(bank) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Reference: the chart normal of each halfspace built in Python floats,
    one halfspace at a time, after the four simplex facets written out."""
    normals = [np.array([-1.0, -1.0, -1.0]), np.eye(3)[0], np.eye(3)[1], np.eye(3)[2]]
    offsets = [1.0, 0.0, 0.0, 0.0]
    names = list(SIMPLEX_FACETS)
    for hs in bank:
        normals.append(np.array([hs.b - hs.a, hs.c - hs.a, hs.d - hs.a]))
        offsets.append(hs.a)
        names.append(hs.name)
    return np.array(normals), np.array(offsets), names


def outer_region_by_loop(bank) -> Polytope3:
    """Reference: one np.linalg.solve per nonsingular boundary triple."""
    normals, offsets, _ = affine_constraints_by_loop(bank)
    m = len(normals)
    candidates = []
    for tri in combinations(range(m), 3):
        A = normals[list(tri)]
        with np.errstate(divide="ignore"):  # as outer_region: a singular A reads 0
            det = np.linalg.det(A)
        if abs(det) < 1e-12:
            continue
        x = np.linalg.solve(A, -offsets[list(tri)])
        if np.min(normals @ x + offsets) >= -FEASIBILITY_TOL:
            candidates.append(x)
    if not candidates:
        return Polytope3((), (), -1)

    arr = dedupe_by_dict(np.array(candidates))
    order = np.lexsort(arr.T[::-1])
    arr = arr[order]
    weights = np.column_stack([1.0 - arr.sum(axis=1), arr]) + 0.0  # kill -0.0

    dim = _affine_dim(arr)
    if dim == 3 and len(arr) >= 4:
        try:
            return convex_hull_3d(weights)
        except QhullError:
            pass
    return Polytope3(tuple(tuple(w) for w in weights), (), dim)


def hull_volume_by_qhull(poly: Polytope3) -> float:
    """Reference: a second Qhull run over the vertices in the (beta, gamma,
    delta) chart, 0 below dimension 3."""
    if not poly.is_full_dimensional:
        return 0.0
    return float(ConvexHull(np.array([v[1:] for v in poly.vertices], dtype=float)).volume)


@dataclass(frozen=True)
class PointCheckReportByPairs:
    """Reference: a point check that keeps one (name, margin) pair per
    halfspace, split into the satisfied and the violated ones."""

    satisfied: tuple
    violated: tuple
    tol: float

    @property
    def all_satisfied(self) -> bool:
        return not self.violated


def check_point_by_pairs(weights, bank, tol: float = 1e-9) -> PointCheckReportByPairs:
    """Reference for ``check_point``: every margin through
    ``CrossSectionHalfspace.margin``, appended as a pair to its side."""
    w = tuple(weights.as_tuple() if hasattr(weights, "as_tuple") else weights)
    sat, vio = [], []
    for hs in bank:
        m = hs.margin(w)
        (sat if m >= -tol else vio).append((hs.name, m))
    return PointCheckReportByPairs(satisfied=tuple(sat), violated=tuple(vio), tol=tol)


def cloud_by_lists(directions, cfg, frame: IngletonFrame) -> list[CrossSectionPoint]:
    """Reference for ``generate_cloud``: one list of points, each built from a
    tuple of weights that a list collector took per evaluation, restart by
    restart in direction order, through the reference alpha objective."""
    evaluator = DistributionObjective(frame, cfg.alphabet_sizes)
    points = []
    for d_idx, direction in enumerate(directions):
        d = check_direction(direction)
        tag = "dir{}({:.6g},{:.6g},{:.6g})".format(d_idx, *d)
        for r in range(cfg.restarts):
            collector: list = []
            objective = alpha_objective_by_norm(evaluator, d, collector)
            rng = np.random.default_rng(np.random.SeedSequence((cfg.master_seed, r)))
            theta0 = rng.normal(0.0, 1.0, evaluator.n_atoms)
            nelder_mead(lambda th: objective(softmax(th)), theta0, cfg.budget_evals)
            points += [CrossSectionPoint(*w, source_tag=f"{tag}/r{r}") for w in collector]
    return points


def fixed_cloud(count: int = 240) -> list[tuple[float, float, float, float]]:
    """Deterministic section points: a Weyl sequence normalized onto the
    weight simplex, then every 17th point repeated exactly and every 23rd
    repeated with beta and delta moved by 1e-14."""
    gens = (math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0), math.sqrt(7.0))
    rows = []
    for t in range(1, count + 1):
        x = [(t * g) % 1.0 + 0.01 for g in gens]
        s = sum(x)
        rows.append(tuple(v / s for v in x))
    rows += rows[::17]
    rows += [(a, b + 1e-14, c, d - 1e-14) for a, b, c, d in rows[::23]]
    return rows


# --- dict-backed distributions: the array class's reference ----------------------

@dataclass(frozen=True)
class JointDistributionByDict:
    """Reference: the dict-backed distribution, validated and densified one
    atom at a time in Python.

    Probability mass function over a finite product alphabet.

    ``atoms`` maps configuration tuples (one symbol index per variable, in
    ground-label order) to probabilities.  Probabilities are nonnegative and
    sum to one within 1e-12.  Treat instances as immutable.
    """

    ground: GroundSet
    alphabet_sizes: tuple[int, ...]
    atoms: dict[tuple[int, ...], float]

    def __init__(self, ground: GroundSet, alphabet_sizes, atoms: Mapping):
        sizes = tuple(int(s) for s in alphabet_sizes)
        if len(sizes) != ground.n or any(s < 1 for s in sizes):
            raise ValueError(f"need {ground.n} positive alphabet sizes, got {sizes}")
        n_cells = math.prod(sizes)
        if n_cells > MAX_CELLS:
            raise ValueError(f"product alphabet has {n_cells} cells, exceeding "
                             f"the {MAX_CELLS} guard")
        clean: dict[tuple[int, ...], float] = {}
        total = 0.0
        for cfg, p in atoms.items():
            cfg = tuple(int(x) for x in cfg)
            if len(cfg) != ground.n:
                raise ValueError(f"configuration {cfg} has wrong arity")
            if any(not 0 <= x < s for x, s in zip(cfg, sizes)):
                raise ValueError(f"configuration {cfg} outside alphabet {sizes}")
            p = float(p)
            if not math.isfinite(p) or p < -1e-12:
                raise ValueError(f"probability {p} at {cfg} is negative or not finite")
            p = max(p, 0.0)
            if cfg in clean:
                raise ValueError(f"duplicate configuration {cfg}")
            clean[cfg] = p
            total += p
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "atoms", clean)

    @property
    def n_cells(self) -> int:
        return math.prod(self.alphabet_sizes)

    def as_dense(self) -> np.ndarray:
        """Flat probability vector over all cells, C-order over the alphabet grid."""
        vec = np.zeros(self.n_cells)
        for cfg, p in self.atoms.items():
            idx = 0
            for x, s in zip(cfg, self.alphabet_sizes):
                idx = idx * s + x
            vec[idx] = p
        return vec

    @classmethod
    def from_dense(cls, ground: GroundSet, alphabet_sizes, vec) -> "JointDistributionByDict":
        sizes = tuple(int(s) for s in alphabet_sizes)
        vec = np.asarray(vec, dtype=float).reshape(sizes)
        atoms = {tuple(int(i) for i in idx): float(p)
                 for idx, p in np.ndenumerate(vec)}
        return cls(ground, sizes, atoms)


def entropy_function_by_dict(d: JointDistributionByDict) -> SetFunction:
    """Reference: ``entropy_function`` gathering the live atoms from the dict."""
    live = [(cfg, p) for cfg, p in d.atoms.items() if p > 0.0]
    configs = np.array([cfg for cfg, _ in live], dtype=np.int64)
    probs = np.array([p for _, p in live])
    vals = np.zeros(d.ground.size)
    step = max(1, INDEX_CHUNK // len(probs))
    for lo in range(1, d.ground.size, step):
        masks = np.arange(lo, min(lo + step, d.ground.size))
        vals[masks] = subset_entropies(
            probs, *marginal_index_by_fresh_plan(configs, d.alphabet_sizes, masks))
    return SetFunction(d.ground, vals)


def distribution_to_csv_by_dict(d: JointDistributionByDict) -> str:
    lines = [",".join([f"x_{lab}" for lab in d.ground.labels] + ["prob"])]
    for cfg in sorted(d.atoms):
        lines.append(",".join([str(x) for x in cfg] + [repr(d.atoms[cfg])]))
    return "\n".join(lines) + "\n"


def distribution_from_csv_by_dict(text: str, alphabet_sizes=None) -> JointDistributionByDict:
    rows = list(csv.reader(line for line in text.splitlines() if line.strip()))
    if not rows:
        raise ValueError("empty distribution CSV")
    header = rows[0]
    if header[-1] != "prob" or not all(h.startswith("x_") for h in header[:-1]):
        raise ValueError(f"bad distribution header: {header}")
    ground = GroundSet(h[2:] for h in header[:-1])
    atoms = {}
    for row in rows[1:]:
        if len(row) != len(header):
            raise ValueError(f"bad row {row}")
        cfg = tuple(int(x) for x in row[:-1])
        atoms[cfg] = float(row[-1])
    if alphabet_sizes is None:
        alphabet_sizes = tuple(max(cfg[b] for cfg in atoms) + 1 for b in range(ground.n))
    return JointDistributionByDict(ground, alphabet_sizes, atoms)


def distribution_to_json_by_dict(d: JointDistributionByDict) -> dict:
    return {
        "labels": list(d.ground.labels),
        "alphabet_sizes": list(d.alphabet_sizes),
        "atoms": [{"config": list(cfg), "prob": float(p)}
                  for cfg, p in sorted(d.atoms.items())],
    }


def distribution_from_json_by_dict(data: dict) -> JointDistributionByDict:
    try:
        ground = GroundSet(data["labels"])
        sizes = data["alphabet_sizes"]
        atoms = {tuple(a["config"]): a["prob"] for a in data["atoms"]}
        symbols = [*sizes, *(x for cfg in atoms for x in cfg)]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed distribution document: {exc}") from exc
    if not (all(isinstance(x, numbers.Integral) for x in symbols)
            and all(isinstance(p, numbers.Real) for p in atoms.values())):
        raise ValueError("malformed distribution document: alphabet sizes and "
                         "configurations need integers, probabilities numbers")
    return JointDistributionByDict(ground, sizes, atoms)


# --- built-in distributions assembled atom by atom: the array builders' reference

def four_atom_distribution_by_dict(params, ground: GroundSet | None = None) -> JointDistribution:
    """Reference: the four-atom family as a {configuration: probability} dict
    through the Mapping constructor."""
    p = _real(params, "p", 0.0, 0.5)
    ground = ground or GroundSet("ijkl")
    if ground.n != 4:
        raise ValueError("four-atom family needs a 4-element ground set")
    atoms = {
        (0, 0, 0, 0): p,
        (0, 1, 0, 1): 0.5 - p,
        (1, 0, 0, 1): 0.5 - p,
        (1, 1, 1, 1): p,
    }
    return JointDistribution(ground, (2, 2, 2, 2), atoms)


def exl_distribution_by_dict(params: ExLParams,
                             ground: GroundSet | None = None) -> JointDistribution:
    """Reference: the forty-configuration family, one dict entry per tabled
    configuration, through the Mapping constructor."""
    ground = ground or GroundSet("ijkl")
    if ground.n != 4:
        raise ValueError("exl family needs a 4-element ground set")
    weights = dict(zip("pqrst", params.as_tuple()))
    atoms: dict[tuple[int, ...], float] = {}
    for cname, cfgs in EXL_COLUMNS:
        for cfg in cfgs:
            atoms[tuple(int(c) for c in cfg)] = weights[cname]
    return JointDistribution(ground, (4, 4, 4, 4), atoms)


def vertex_seed_distributions_by_dict(frame: IngletonFrame) -> dict[str, JointDistribution]:
    """Reference: the corner distributions, each atom's roles placed on the
    ground bits one at a time."""
    ground = frame.ground
    i, j, k, l = frame.roles

    def build(sizes_by_role, configs_by_role):
        sizes = [0] * 4
        for role, lab in zip("ijkl", (i, j, k, l)):
            sizes[ground.bit(lab)] = sizes_by_role[role]
        atoms = {}
        for cfg_roles, prob in configs_by_role:
            cfg = [0] * 4
            for role, lab in zip("ijkl", (i, j, k, l)):
                cfg[ground.bit(lab)] = cfg_roles[role]
            atoms[tuple(cfg)] = prob
        return JointDistribution(ground, sizes, atoms)

    beta_atoms = [({"i": y, "j": x, "k": 2 * x + y, "l": 2 * x + y}, 0.25)
                  for x in range(2) for y in range(2)]
    gamma_atoms = [({"i": 2 * x + u, "j": 2 * y + v, "k": u ^ v, "l": x ^ y}, 1 / 16)
                   for x in range(2) for y in range(2)
                   for u in range(2) for v in range(2)]
    delta_atoms = [({"i": 2 * y + w, "j": 2 * x + z, "k": 2 * z + w, "l": 2 * x + y},
                    1 / 16)
                   for x in range(2) for y in range(2)
                   for z in range(2) for w in range(2)]
    return {
        "beta": build({"i": 2, "j": 2, "k": 4, "l": 4}, beta_atoms),
        "gamma": build({"i": 4, "j": 4, "k": 2, "l": 2}, gamma_atoms),
        "delta": build({"i": 4, "j": 4, "k": 4, "l": 4}, delta_atoms),
    }


def assert_same_rows(d: JointDistribution, ref: JointDistribution) -> None:
    """d has ref's ground, alphabet sizes and int64 configuration rows in the
    same order, and the same probability and entropy bytes."""
    assert (d.ground, d.alphabet_sizes) == (ref.ground, ref.alphabet_sizes)
    assert d.configs.dtype == ref.configs.dtype == np.int64
    assert np.array_equal(d.configs, ref.configs)
    assert d.probs.tobytes() == ref.probs.tobytes()
    assert entropy_function(d).values.tobytes() == entropy_function(ref).values.tobytes()
