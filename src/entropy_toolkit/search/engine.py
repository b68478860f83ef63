"""Derivative-free minimization of Ingleton-type objectives over distributions.

The search space is the probability simplex over a product alphabet,
parametrized without constraints through normalized exponentials.  Each
restart runs a Nelder-Mead simplex descent (reflection 1, expansion 2,
contraction 0.5, shrink 0.5) from a seeded start; restarts are independent
and merged deterministically, so a fixed master seed gives bit-identical
results regardless of the worker count.  ENTROPY_TOOLKIT_THREADS (or the
``threads`` argument) caps parallel restarts; the worker count never exceeds
the restarts or ``os.cpu_count()``.

Objectives:

* ``raw_score``      - Ingleton score of the entropy function itself;
* ``tight_score``    - score of its tight part;
* ``pipeline_score`` - score after the tighten/b/a projection (the quantity
  whose infimum the cross-section geometry bounds);
* ``alpha_in_direction`` - maximize the alpha weight of the cross-section
  point subject to a penalty keeping the point near a given ray, used to
  sweep the cross-section when generating point clouds.

Degenerate inputs whose normalizer vanishes score 0 by convention.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from ..core import _modular_values
from ..entropy import JointDistribution, entropy_function, marginal_index, subset_entropies
from ..frame import (
    DEGENERATE_TOL,
    CrossSectionPoint,
    IngletonFrame,
    cross_section_point,
    pipeline_operator,
    section_weight_matrix,
    stv_vec,
)

OBJECTIVES = ("raw_score", "tight_score", "pipeline_score", "alpha_in_direction")

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: weight of the off-ray penalty in the alpha_in_direction objective
DIRECTION_PENALTY = 8.0

#: largest alphabet product a search accepts: the Nelder-Mead simplex holds
#: (atoms + 1) * atoms float64s per worker, 128 MiB at 8^4 = 4096 atoms
MAX_ATOMS = 4096


def _is_integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _as_tuple(x) -> tuple:
    """x as a tuple, or () when it is not iterable."""
    try:
        return tuple(x)
    except TypeError:
        return ()


def minimize_scalar(f: Callable[[float], float], lo: float, hi: float,
                    tol: float = 1e-8) -> tuple[float, float]:
    """Golden-section search for the minimizer of a unimodal f on [lo, hi].

    Returns (x, f(x)) with |x - true minimizer| <= tol for unimodal f.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    a, b = float(lo), float(hi)
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    if not (math.isfinite(f1) and math.isfinite(f2)):
        raise ValueError("objective returned a non-finite value")
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
        if not (math.isfinite(f1) and math.isfinite(f2)):
            raise ValueError("objective returned a non-finite value")
    x = x1 if f1 <= f2 else x2
    return (x, min(f1, f2))


@dataclass(frozen=True)
class SearchConfig:
    """Settings of one distribution search."""

    alphabet_sizes: tuple[int, int, int, int] = (4, 4, 4, 4)
    restarts: int = 64
    budget_evals: int = 20_000
    master_seed: int = 1
    objective: str = "pipeline_score"
    direction: tuple[float, float, float] | None = None

    def __post_init__(self):
        sizes = _as_tuple(self.alphabet_sizes)
        if len(sizes) != 4 or any(not _is_integer(s) or not 1 <= s <= 11 for s in sizes):
            raise ValueError(f"alphabet sizes must be four integers in 1..11: "
                             f"{self.alphabet_sizes!r}")
        sizes = tuple(int(s) for s in sizes)
        object.__setattr__(self, "alphabet_sizes", sizes)
        if all(s < 2 for s in sizes):
            raise ValueError("at least one variable needs an alphabet of size >= 2")
        atoms = math.prod(sizes)
        if atoms > MAX_ATOMS:
            simplex_mib = (atoms + 1) * atoms * 8 / 2**20
            raise ValueError(
                f"alphabet {sizes} has {atoms} atoms, above MAX_ATOMS = {MAX_ATOMS}: "
                f"its Nelder-Mead simplex would take {simplex_mib:,.0f} MiB per worker")
        for name in ("restarts", "budget_evals"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, int) or count < 1:
                raise ValueError(f"{name} must be a positive integer: {count!r}")
        if not _is_integer(self.master_seed) or self.master_seed < 0:
            raise ValueError(f"master_seed must be a non-negative integer: "
                             f"{self.master_seed!r}")
        object.__setattr__(self, "master_seed", int(self.master_seed))
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective {self.objective!r} not one of {OBJECTIVES}")
        if self.objective == "alpha_in_direction" and self.direction is None:
            raise ValueError("alpha_in_direction needs a 3-vector direction")
        if self.direction is not None:
            d = _as_tuple(self.direction)
            if (len(d) != 3 or not all(isinstance(x, numbers.Real) for x in d)
                    or not any(d) or not all(map(math.isfinite, d))):
                raise ValueError(f"direction must be a finite nonzero 3-vector: "
                                 f"{self.direction!r}")
            object.__setattr__(self, "direction", tuple(float(x) for x in d))

    def to_json(self) -> dict:
        out = {
            "alphabet_sizes": list(self.alphabet_sizes),
            "restarts": self.restarts,
            "budget_evals": self.budget_evals,
            "master_seed": self.master_seed,
            "objective": self.objective,
        }
        if self.direction is not None:
            out["direction"] = list(self.direction)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "SearchConfig":
        if not isinstance(data, dict):
            raise ValueError(f"malformed config document: expected a JSON object, "
                             f"got {type(data).__name__}")
        names = [f.name for f in fields(cls)]
        unknown = [key for key in data if key not in names]
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; known keys are {names}")
        return cls(**data)


@dataclass(frozen=True)
class SearchResult:
    """Best point found by a distribution search."""

    best_value: float
    best_distribution: JointDistribution
    best_point: CrossSectionPoint | None
    eval_count: int
    seed_trace: tuple[int, ...]
    budget_exhausted: bool
    best_restart: int


class DistributionObjective:
    """Vectorized entropy and score evaluation over a fixed product alphabet.

    Marginal masses for all nonempty subsets are accumulated with a single
    bincount over a precomputed :func:`~entropy_toolkit.entropy.marginal_index`;
    scores and cross-section weights are then linear functionals of the
    entropy vector, read off :func:`~entropy_toolkit.frame.pipeline_operator`.
    Agrees with the compositional path through SetFunction operations to
    ~1e-13.
    """

    def __init__(self, frame: IngletonFrame, alphabet_sizes: Sequence[int]):
        sizes = tuple(int(s) for s in alphabet_sizes)
        self.frame = frame
        self.sizes = sizes
        self.n_atoms = math.prod(sizes)
        configs = np.indices(sizes).reshape(len(sizes), -1).T
        self._flat_idx, self._offsets, self._n_cells = marginal_index(configs, sizes)

        eye = np.eye(frame.ground.size)
        pipeline = pipeline_operator(frame)
        self.stv_vec = stv_vec(frame)
        self.raw_rank_vec = eye[-1]
        self.tight_rank_vec = eye[-1] - _modular_values(eye)[-1]
        self.pipeline_rank_vec = pipeline[-1]
        self.weight_mat = section_weight_matrix(frame) @ pipeline

    def entropy_vector(self, p: np.ndarray) -> np.ndarray:
        """Entropy (nats) of every nonempty marginal, as a 16-vector over masks."""
        h = np.zeros(16)
        h[1:] = subset_entropies(p, self._flat_idx, self._offsets, self._n_cells)
        return h

    def score_from_entropy(self, h: np.ndarray, objective: str) -> float:
        if objective == "raw_score":
            denom_vec = self.raw_rank_vec
        elif objective == "tight_score":
            denom_vec = self.tight_rank_vec
        elif objective == "pipeline_score":
            denom_vec = self.pipeline_rank_vec
        else:
            raise ValueError(f"not a score objective: {objective!r}")
        denom = float(denom_vec @ h)
        if denom <= DEGENERATE_TOL:
            return 0.0
        return float(self.stv_vec @ h) / denom

    def weights_from_entropy(self, h: np.ndarray) -> np.ndarray | None:
        """Normalized cross-section weights, or None when degenerate."""
        raw = self.weight_mat @ h
        denom = float(self.pipeline_rank_vec @ h)
        if denom <= DEGENERATE_TOL:
            return None
        return raw / denom

    def make_objective(self, objective: str,
                       direction: tuple[float, float, float] | None = None,
                       collector: list | None = None) -> Callable[[np.ndarray], float]:
        """Bind an objective kind to a callable on dense probability vectors.

        With a collector, every evaluation appends its weight quadruple;
        near-degenerate evaluations whose weights fail the sum-to-one
        invariant at 1e-9 are skipped.
        """
        def emit(w: np.ndarray | None) -> None:
            if w is not None and abs(float(w.sum()) - 1.0) <= 1e-9:
                collector.append(tuple(float(x) for x in w))

        if objective == "alpha_in_direction":
            d = np.asarray(direction, dtype=float)
            d = d / np.linalg.norm(d)

            def fn(p: np.ndarray) -> float:
                h = self.entropy_vector(p)
                w = self.weights_from_entropy(h)
                if w is None:
                    return 0.0
                if collector is not None:
                    emit(w)
                x = w[1:]
                along = float(x @ d)
                perp = float(np.linalg.norm(x - along * d)) if along > 0 \
                    else float(np.linalg.norm(x))
                return -w[0] + DIRECTION_PENALTY * perp
        else:
            def fn(p: np.ndarray) -> float:
                h = self.entropy_vector(p)
                if collector is not None:
                    emit(self.weights_from_entropy(h))
                return self.score_from_entropy(h, objective)
        return fn


def softmax(theta: np.ndarray) -> np.ndarray:
    """Normalized exponentials: the unconstrained simplex parametrization."""
    e = np.exp(theta - np.max(theta))
    return e / e.sum()


def nelder_mead(fn: Callable[[np.ndarray], float], x0: np.ndarray,
                budget: int, diam_tol: float = 1e-10,
                initial_step: float = 0.5) -> tuple[np.ndarray, float, int, bool]:
    """Nelder-Mead descent with the standard coefficient set.

    Reflection 1, expansion 2, contraction 0.5, shrink 0.5.  Stops when the
    simplex diameter drops below diam_tol or the evaluation budget is spent
    (an in-flight iteration may finish, so the count can exceed the budget by
    at most dim + 1).  Returns (best_x, best_value, evals, converged).

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
        if (np.max(np.abs(simplex[worst] - simplex[best])) < diam_tol
                and np.max(np.abs(simplex - simplex[best])) < diam_tol):
            converged = True
            break
        # Summing the rows in rank order keeps the centroid bit-identical.
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


def restart_seed(master_seed: int, restart: int) -> int:
    """Stable per-restart seed derived from the master seed."""
    return int(np.random.SeedSequence((master_seed, restart)).generate_state(1)[0])


def _initial_theta(rng: np.random.Generator, dim: int, restart: int,
                   init: np.ndarray | None) -> np.ndarray:
    if init is None:
        return rng.normal(0.0, 1.0, dim)
    theta = np.log(np.maximum(init, 1e-12))
    if restart > 0:
        theta = theta + rng.normal(0.0, 0.05, dim)
    return theta


def _run_restart(args) -> tuple[float, np.ndarray, int, bool, list | None]:
    """One seeded restart; module-level so process pools can pickle it."""
    cfg, frame, restart, init, collect = args
    evaluator = DistributionObjective(frame, cfg.alphabet_sizes)
    collector: list | None = [] if collect else None
    objective = evaluator.make_objective(cfg.objective, cfg.direction, collector)

    rng = np.random.default_rng(np.random.SeedSequence((cfg.master_seed, restart)))
    theta0 = _initial_theta(rng, evaluator.n_atoms, restart,
                            None if init is None else np.asarray(init))
    best_theta, best_val, evals, converged = nelder_mead(
        lambda th: objective(softmax(th)), theta0, cfg.budget_evals)
    return best_val, softmax(best_theta), evals, converged, collector


def _thread_count(threads: int | None) -> int:
    """Requested workers (argument, else ENTROPY_TOOLKIT_THREADS), capped at
    the CPU count."""
    if threads is None:
        try:
            threads = int(os.environ.get("ENTROPY_TOOLKIT_THREADS", "1"))
        except ValueError:
            threads = 1
    return max(1, min(int(threads), os.cpu_count() or 1))


def _run_all_restarts(cfg: SearchConfig, frame: IngletonFrame,
                      init: np.ndarray | None, collect: bool,
                      threads: int | None) -> list[tuple]:
    tasks = [(cfg, frame, r, init, collect) for r in range(cfg.restarts)]
    workers = min(_thread_count(threads), cfg.restarts)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_restart, tasks))
    return [_run_restart(t) for t in tasks]


def _best_restart(outcomes: list[tuple], cfg: SearchConfig, frame: IngletonFrame,
                  tag: str) -> tuple[int, JointDistribution, CrossSectionPoint | None]:
    """Winner of the merged restarts (smallest value, ties by index), its
    distribution and its cross-section point (None when degenerate)."""
    best = min(range(cfg.restarts), key=lambda r: (outcomes[r][0], r))
    dist = JointDistribution.from_dense(frame.ground, cfg.alphabet_sizes, outcomes[best][1])
    try:
        point, _ = cross_section_point(entropy_function(dist), frame,
                                       source_tag=f"{tag}/r{best}")
    except ValueError:
        point = None
    return best, dist, point


def optimize_distribution(cfg: SearchConfig, frame: IngletonFrame,
                          init: JointDistribution | None = None,
                          threads: int | None = None) -> SearchResult:
    """Run the configured restarts and merge them deterministically.

    ``init`` seeds every restart near the given distribution (restart 0
    exactly at it, later restarts jittered).  The winner is the smallest
    objective value, ties broken by restart index, so the result does not
    depend on the degree of parallelism.
    """
    init_dense = None
    if init is not None:
        if init.ground != frame.ground or init.alphabet_sizes != cfg.alphabet_sizes:
            raise ValueError("init distribution does not match frame/alphabet")
        init_dense = init.as_dense()

    outcomes = _run_all_restarts(cfg, frame, init_dense, collect=False,
                                 threads=threads)
    best_restart, best_distribution, point = _best_restart(
        outcomes, cfg, frame, f"search/seed{cfg.master_seed}")
    return SearchResult(
        best_value=float(outcomes[best_restart][0]),
        best_distribution=best_distribution,
        best_point=point,
        eval_count=sum(o[2] for o in outcomes),
        seed_trace=tuple(restart_seed(cfg.master_seed, r)
                         for r in range(cfg.restarts)),
        budget_exhausted=any(not o[3] for o in outcomes),
        best_restart=best_restart,
    )


def generate_cloud(directions: Sequence[Sequence[float]], cfg: SearchConfig,
                   frame: IngletonFrame, optima_only: bool = False,
                   threads: int | None = None) -> list[CrossSectionPoint]:
    """One alpha-maximization per direction; emit the visited section points.

    By default every evaluated point's weights are emitted (skipping
    near-degenerate evaluations), so the cloud density mirrors the search
    effort; ``optima_only`` keeps only the best point of each direction.
    """
    if not directions:
        raise ValueError("need at least one direction")
    cloud: list[CrossSectionPoint] = []
    for d_idx, direction in enumerate(directions):
        d_cfg = replace(cfg, objective="alpha_in_direction", direction=direction)
        tag = "dir{}({:.6g},{:.6g},{:.6g})".format(d_idx, *d_cfg.direction)
        outcomes = _run_all_restarts(d_cfg, frame, None, collect=not optima_only,
                                     threads=threads)
        if optima_only:
            point = _best_restart(outcomes, d_cfg, frame, tag)[2]
            if point is not None:
                cloud.append(point)
        else:
            for r, outcome in enumerate(outcomes):
                for w in outcome[4]:
                    cloud.append(CrossSectionPoint(*w, source_tag=f"{tag}/r{r}"))
    return cloud


def sphere_directions(count: int, seed: int = 0) -> list[tuple[float, float, float]]:
    """Deterministic directions drawn uniformly on the sphere in weight space."""
    if count < 1:
        raise ValueError("need a positive direction count")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD1F)))
    out = []
    while len(out) < count:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            out.append(tuple(v / norm))
    return out


def vertex_seed_distributions(frame: IngletonFrame) -> dict[str, JointDistribution]:
    """Product-of-fair-bits distributions whose section points are the
    tetrahedron corners beta, gamma, delta (the corners are entropic up to
    scaling, realized by uniform linear matroids)."""
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
