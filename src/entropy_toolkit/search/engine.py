"""Derivative-free minimization of Ingleton-type objectives over distributions.

The search space is the probability simplex over a product alphabet,
parametrized without constraints through normalized exponentials.  Each
restart runs a Nelder-Mead simplex descent (reflection 1, expansion 2,
contraction 0.5, shrink 0.5) from a seeded start; restarts are independent
and merged deterministically, so a fixed master seed gives bit-identical
results regardless of the worker count.  ENTROPY_TOOLKIT_THREADS (or the
``threads`` argument) caps parallel restarts; the worker count never exceeds
the restarts or the CPUs this process may run on (``os.sched_getaffinity``,
else ``os.cpu_count()``), and is 1 where ``os.fork`` does not exist.  The
restarts are split into one contiguous chunk per worker, and a chunk runs its
restarts through one evaluator.  The caller runs the first chunk itself; each
other chunk runs in one forked child, which sends its pickled outcomes back
through a pipe and leaves by ``os._exit``.  The driver
takes one config and a list of directions and runs (direction, restart) jobs:
a search passes ``[None]`` for the config's score, a cloud its directions for
the ray objective.  So each makes one driver call, and a chunk has one
alphabet, budget and seed family.

A cloud is a :class:`Cloud`, a record of one read-only (n, 4) float64 array
of section weights and its source tags as (tag, count) runs, read through
``len`` and iteration; about 32 B per point
(``CLOUD_POINT_BYTES`` = 80 B bounds the peak, 64.6 B measured).  Each
restart's collector writes its evaluations' weights into one buffer of
budget + atoms + 1 rows and keeps the rows inside the tetrahedron, so no
per-point object exists until a point is read.  The default ``cloud`` (8
directions x 64 restarts at 4^4, budget 20,000) holds at most 10,371,584
points, 791 MiB at that bound, within ``MAX_CLOUD_MIB``.  One worker made
20,700-24,100 evaluations per second at 4^4 on a shared 2-core box, whose
perfbench reference kernel ran at about its nominal speed (3.8-4.1 ms against
4.1 ms): 7-8 minutes for the default cloud there.

A :class:`SearchConfig` names one of the ``SCORE_OBJECTIVES``: ``raw_score``
scores the entropy function itself, ``tight_score`` its tight part and
``pipeline_score`` its tighten/b/a projection (the quantity whose infimum the
cross-section geometry bounds).  Each score, and each section weight, is a
ratio of two linear functionals of the entropy vector, rows of one table
(``DistributionObjective.table``); a degenerate input scores 0.  A cloud
direction (:func:`check_direction`) runs the ray objective instead: maximize
the alpha weight of the section point with a penalty keeping it near the ray.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields
from typing import Callable, NoReturn

import numpy as np

from ..core import _as_tuple, _check_tol, _count, _is_integer, _modular_values, _real
from ..entropy import (
    JointDistribution,
    _config_grid,
    entropy_function,
    marginal_index,
    subset_entropies,
)
from ..frame import (
    DEGENERATE_TOL,
    CrossSectionPoint,
    IngletonFrame,
    cross_section_point,
    pipeline_operator,
    section_weight_matrix,
    stv_vec,
)

#: the objectives that score an entropy vector: stv over the normalizer in
#: row 5, 6 or 7 of ``DistributionObjective.table``, in this order
SCORE_OBJECTIVES = ("raw_score", "tight_score", "pipeline_score")

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: weight of the off-ray penalty in the ray objective
DIRECTION_PENALTY = 8.0

#: Nelder-Mead stops when the simplex diameter drops below this
DIAM_TOL = 1e-10

#: offset of each initial Nelder-Mead vertex from x0 along its axis
INITIAL_STEP = 0.5

#: largest alphabet product a search accepts.  A worker's Nelder-Mead buffer
#: holds the simplex plus headroom, (atoms + 1) + (atoms // 4 + 1) rows of
#: atoms float64s (160 MiB at 8^4 = 4096 atoms), and a shrink re-sort or a
#: diameter test near convergence adds one (atoms + 1) x atoms temporary
#: (128 MiB): 288 MiB per worker at 8^4
MAX_ATOMS = 4096

#: largest total of the restarts' best distributions, which the merge holds
#: together (restarts x atoms float64s): 524,288 restarts at 2^4, 2,048 at 8^4
MAX_OUTCOME_MIB = 64

#: largest memory a cloud's emitted points may take: directions x restarts x
#: (budget + atoms + 1) points, the most evaluations a restart can make, at
#: CLOUD_POINT_BYTES each
MAX_CLOUD_MIB = 1024

#: bound on the peak bytes per emitted cloud point.  A point is one float64
#: row of four weights (32 B); a restart's rows come back as one bytes buffer,
#: and the cloud's array joins them, so both copies coexist once.  tracemalloc
#: measures 64.6-64.7 B per point on 2^4 clouds of 7,459 and 7,790 points,
#: serial or with half of them pickled back from a forked child
CLOUD_POINT_BYTES = 80


def _check_outcome_size(searches: int, atoms: int, what: str) -> None:
    """Reject more searches than MAX_OUTCOME_MIB allows at ``atoms`` atoms:
    the merge holds every search's best distribution together."""
    most = MAX_OUTCOME_MIB * 2**20 // (8 * atoms)
    if searches > most:
        raise ValueError(
            f"{what} must be at most {most:,} at {atoms} atoms: the merge holds every "
            f"search's best distribution ({8 * atoms:,} B each), which "
            f"MAX_OUTCOME_MIB = {MAX_OUTCOME_MIB} MiB bounds")


def minimize_scalar(f: Callable[[float], float], lo: float, hi: float,
                    tol: float = 1e-8) -> tuple[float, float]:
    """Golden-section search for the minimizer of a unimodal f on [lo, hi].

    Returns (x, f(x)) with |x - true minimizer| <= tol for unimodal f, or
    where float spacing stops a step from shrinking the bracket.
    """
    a, b, tol = _real(lo, "lo"), _real(hi, "hi"), _check_tol(tol)
    if not (a < b and tol > 0.0):
        raise ValueError(f"need lo < hi and a finite tol > 0, got [{lo}, {hi}], tol={tol!r}")
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    if not (math.isfinite(f1) and math.isfinite(f2)):
        raise ValueError("objective returned a non-finite value")
    width = math.inf
    while width > b - a > tol:
        width = b - a
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


def check_direction(direction) -> tuple[float, float, float]:
    """A search direction as a tuple of three floats: a nonzero 3-vector of
    reals, each read by the real rule, whose squared norm is a normal double,
    else ValueError."""
    try:
        d = tuple(_real(x, "direction entry") for x in _as_tuple(direction))
    except ValueError:  # the message below names the direction, and so the entry
        d = ()
    if len(d) != 3 or not any(d):
        raise ValueError(f"direction must be a finite nonzero 3-vector: {direction!r}")
    # make_objective divides by the norm, sqrt(d . d): a d . d that
    # underflows (to 0 or a subnormal) or overflows loses the ray
    dd = sum(x * x for x in d)
    if not (sys.float_info.min <= dd and math.isfinite(dd)):
        raise ValueError(f"direction must be a finite nonzero 3-vector whose "
                         f"squared norm is a normal double: {direction!r}")
    return d


@dataclass(frozen=True)
class SearchConfig:
    """Settings of one score search."""

    alphabet_sizes: tuple[int, int, int, int] = (4, 4, 4, 4)
    restarts: int = 64
    budget_evals: int = 20_000
    master_seed: int = 1
    objective: str = "pipeline_score"

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
            raise ValueError(
                f"alphabet {sizes} has {atoms} atoms, above MAX_ATOMS = {MAX_ATOMS}: "
                f"its Nelder-Mead simplex would take {_simplex_mib(atoms):,.0f} MiB "
                f"per worker (buffer with headroom plus one simplex-sized temporary)")
        for name, least in (("restarts", 1), ("budget_evals", 1), ("master_seed", 0)):
            object.__setattr__(self, name, _count(getattr(self, name), name, least))
        _check_outcome_size(self.restarts, atoms, "restarts")
        if self.objective not in SCORE_OBJECTIVES:
            raise ValueError(f"objective {self.objective!r} not one of {SCORE_OBJECTIVES}")

    def to_json(self) -> dict:
        """The fields in order, the alphabet sizes as a list."""
        return {**asdict(self), "alphabet_sizes": list(self.alphabet_sizes)}

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
    budget_exhausted: bool
    best_restart: int


class DistributionObjective:
    """Vectorized entropy and score evaluation over a fixed product alphabet.

    Marginal masses for all nonempty subsets are accumulated with a single
    bincount over a :func:`~entropy_toolkit.entropy.marginal_index` read from
    the alphabet's cached index plan, through the same
    :func:`~entropy_toolkit.entropy.subset_entropies` as ``entropy_function``.
    An objective is then a quotient of rows of ``table``, a read-only (8, 16)
    array over masks: row 0 is stv, rows 1-4 the section weights of the
    tighten/b/a/symmetrize projection and rows 5-7 the normalizers of
    ``SCORE_OBJECTIVES`` (h, its tight part and its projection at N).  A
    score is row 0 over its normalizer, the weights rows 1-4 over row 7, and
    a normalizer at most ``DEGENERATE_TOL`` makes h degenerate.  At 2^4 an
    evaluation is a few dozen numpy calls on 16-element arrays, so the
    objectives call array methods rather than numpy's Python-level wrappers
    (``np.tile``, ``np.linalg.norm``) or ``@``, whose dot kernels ``.dot``
    reaches at half the call cost, and agree with the compositional path
    through SetFunction operations to ~1e-13.
    """

    def __init__(self, frame: IngletonFrame, alphabet_sizes: Sequence[int]):
        sizes = tuple(int(s) for s in alphabet_sizes)
        self.n_atoms = math.prod(sizes)
        self._flat_idx, self._offsets, self._n_cells = marginal_index(_config_grid(sizes),
                                                                      sizes)
        eye = np.eye(frame.ground.size)
        pipeline = pipeline_operator(frame)
        self.table = np.vstack([stv_vec(frame), section_weight_matrix(frame) @ pipeline,
                                eye[-1], eye[-1] - _modular_values(eye)[-1], pipeline[-1]])
        self.table.flags.writeable = False
        # row views bound once: an evaluation indexes no table row
        self._stv, self._weight_rows = self.table[0], self.table[1:5]
        self._normalizers = dict(zip(SCORE_OBJECTIVES, self.table[5:]))

    def entropy_vector(self, p: np.ndarray) -> np.ndarray:
        """Entropy (nats) of every nonempty marginal, as a 16-vector over masks."""
        h = np.zeros(16)
        subset_entropies(p, self._flat_idx, self._offsets, self._n_cells, out=h[1:])
        return h

    def score_from_entropy(self, h: np.ndarray, objective: str) -> float:
        den = self._normalizers.get(objective)
        if den is None:
            raise ValueError(f"not a score objective: {objective!r}")
        denom = float(den.dot(h))
        return 0.0 if denom <= DEGENERATE_TOL else float(self._stv.dot(h)) / denom

    def weights_from_entropy(self, h: np.ndarray) -> np.ndarray | None:
        """Normalized cross-section weights, or None when degenerate."""
        denom = float(self._normalizers["pipeline_score"].dot(h))
        return None if denom <= DEGENERATE_TOL else self._weight_rows.dot(h) / denom

    def make_objective(self, objective: str,
                       direction: tuple[float, float, float] | None = None,
                       collector: _Collector | None = None) -> Callable[[np.ndarray], float]:
        """The objective as a callable on dense probability vectors: the ray
        objective along ``direction`` if one is given, else the score
        ``objective``.  Only the ray objective collects (every evaluation with
        weights appends them); a collector without a direction raises ValueError."""
        if direction is None:
            if collector is not None:
                raise ValueError("a collector needs a direction: only the ray objective collects")
            return lambda p: self.score_from_entropy(self.entropy_vector(p), objective)
        d = np.asarray(direction, dtype=float) / np.linalg.norm(direction)

        def fn(p: np.ndarray) -> float:
            h = self.entropy_vector(p)
            w = self.weights_from_entropy(h)
            if w is None:
                return 0.0
            if collector is not None:
                collector.append(w)
            x = w[1:]
            along = float(x.dot(d))
            # the distance to the ray; np.linalg.norm computes the same
            # sqrt(r.dot(r)) behind a Python wrapper
            r = x - along * d if along > 0 else x
            return -w[0] + DIRECTION_PENALTY * math.sqrt(float(r.dot(r)))
        return fn


def _inside_tetrahedron(rows: np.ndarray) -> np.ndarray:
    """Which rows of an (n, 4) weight array are inside the tetrahedron: four
    weights >= 0 that sum to 1 within 1e-9, which near-degenerate rows fail."""
    # a row sum along axis 1 adds the four weights in the order
    # np.add.reduce adds one row
    return (np.abs(np.add.reduce(rows, axis=1) - 1.0) <= 1e-9) & (rows >= 0.0).all(axis=1)


class _Collector:
    """The weight quadruples one restart's evaluations emit, as rows of one
    float64 buffer.  A restart makes at most budget + atoms + 1 evaluations,
    the buffer's row count."""

    __slots__ = ("rows", "count")

    def __init__(self, capacity: int):
        self.rows = np.empty((capacity, 4))
        self.count = 0

    def append(self, w: np.ndarray) -> None:
        self.rows[self.count] = w
        self.count += 1

    def kept(self) -> bytes:
        """The bytes of the rows inside the tetrahedron, in order."""
        rows = self.rows[:self.count]
        keep = _inside_tetrahedron(rows)
        return (rows if keep.all() else rows[keep]).tobytes()


def softmax(theta: np.ndarray) -> np.ndarray:
    """Normalized exponentials: the unconstrained simplex parametrization.

    The maximum is read at ``argmax``, cheaper than a ufunc reduction and of
    the same bits but a zero's sign, which changes ``e`` only where theta is
    that zero, where ``exp(+-0)`` is exactly 1.0.  The sum is the pairwise
    ``np.add.reduce`` that ``.sum()`` wraps; ``exp`` writes in place."""
    e = theta - theta[theta.argmax()]
    np.exp(e, out=e)
    e /= np.add.reduce(e)
    return e


def _headroom(dim: int) -> int:
    """Spare rows above the Nelder-Mead window.  A quarter of the dimension
    keeps the buffer at 1.25 simplices, so with the one temporary a shrink
    needs a search peaks at 2.25 simplex-sized arrays (dim spare rows would
    make it 3), and a recentre, one copy of the window, comes at most once
    per dim // 4 + 1 upward moves."""
    return dim // 4 + 1


def _simplex_mib(dim: int) -> float:
    """Peak memory of one Nelder-Mead search at dimension dim, in MiB: the
    buffer (simplex plus headroom) and one simplex-sized temporary."""
    rows = (dim + 1 + _headroom(dim)) + (dim + 1)
    return rows * dim * 8 / 2**20


def _move_rows(flat: np.ndarray, width: int, dst: int, src: int, count: int) -> None:
    """Copy rows src..src+count-1 of a C-contiguous buffer, given as its 1-D
    view with rows of ``width``, to rows dst..dst+count-1.  On the 1-D view
    an overlapping copy is one memmove; on the 2-D buffer numpy would first
    copy the source."""
    if count:
        flat[dst * width:(dst + count) * width] = flat[src * width:(src + count) * width]


def nelder_mead(fn: Callable[[np.ndarray], float], x0: np.ndarray,
                budget: int) -> tuple[np.ndarray, float, int, bool]:
    """Nelder-Mead descent with the standard coefficient set.

    Reflection 1, expansion 2, contraction 0.5, shrink 0.5.  Stops when the
    simplex diameter drops below ``DIAM_TOL`` or the evaluation budget is spent
    (an in-flight iteration may finish, so the count can exceed the budget by
    at most dim + 1).  Returns (best_x, best_value, evals, converged).

    The vertices are stored in rank order, best first: a window of
    ``dim + 1`` rows in a buffer with ``dim // 4 + 1`` spare rows above it.
    Their values, as Python floats, are a list in the same order, so the
    comparisons and the bookkeeping of an iteration are Python operations,
    not numpy calls on scalars.  The centroid sums the first dim rows of the
    window, a contiguous view, row by row in rank order.  A new vertex with
    value f replaces the worst at ``bisect_right(vals, f, 0, dim)``, after
    the vertices of equal value, which is where a stable sort of the values
    puts it; ties thus keep their rank (initially x0 first, then
    x0 + INITIAL_STEP * e_b in order of b).  The list drops the worst value
    and inserts f there; of the rows, the shorter side of the slot moves by
    one: the better rows up into the spare rows, or the worse rows down
    over the worst.  When no spare row is left, the window is first copied
    back to the bottom of the buffer (recentred).  A shrink updates the
    window in place, evaluates rows 1..dim in rank order and re-sorts once
    by a stable sort of the values.  The diameter test runs only when the
    worst vertex is within ``DIAM_TOL`` of the best, first in coordinate 0 (one
    scalar comparison, which rules out convergence in most iterations),
    then in every coordinate.  A worker thus holds the buffer and, during a
    shrink re-sort or a diameter test near convergence, one simplex-sized
    temporary.  ``fn`` always gets a fresh array, never a view of the
    buffer.  A non-finite objective value raises ValueError, because it has
    no place in that order.
    """
    budget = _count(budget, "budget", 1)

    def evaluate(x: np.ndarray) -> float:
        value = float(fn(x))
        if not math.isfinite(value):
            raise ValueError(f"objective returned a non-finite value: {value!r}")
        return value

    def sort_window() -> None:
        # both sorts are stable, so the rows follow the values' permutation
        window[:] = window[sorted(range(dim + 1), key=vals.__getitem__)]
        vals.sort()

    dim = len(x0)
    headroom = _headroom(dim)
    rows = np.empty((headroom + dim + 1, dim))
    flat = rows.reshape(-1)
    top = headroom
    window = rows[top:]
    window[:] = np.asarray(x0, dtype=float)
    window[np.arange(1, dim + 1), np.arange(dim)] += INITIAL_STEP
    vals = [evaluate(row.copy()) for row in window]
    sort_window()
    evals = dim + 1
    converged = False

    while evals < budget:
        worst = window[-1]
        # The diameter is a max, so the worst vertex alone rules out
        # convergence whenever it is at least DIAM_TOL from the best, and so
        # does its first coordinate alone, at the price of one scalar test.
        if (abs(worst[0] - window[0, 0]) < DIAM_TOL
                and np.abs(worst - window[0]).max() < DIAM_TOL):
            spread = window - window[0]
            if np.abs(spread, out=spread).max() < DIAM_TOL:
                converged = True
                break
        # np.mean without its Python wrapper, over the rows in rank order
        centroid = np.add.reduce(window[:-1], axis=0) / dim
        reflected = centroid + (centroid - worst)
        f_r = evaluate(reflected)
        evals += 1
        if f_r < vals[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = evaluate(expanded)
            evals += 1
            new, f_new = (expanded, f_e) if f_e < f_r else (reflected, f_r)
        elif f_r < vals[-2]:
            new, f_new = reflected, f_r
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            f_c = evaluate(contracted)
            evals += 1
            if f_c < vals[-1]:
                new, f_new = contracted, f_c
            else:
                # best + 0.5 * (row - best), computed in place
                best = window[0].copy()
                window -= best
                window *= 0.5
                window += best
                vals[1:] = [evaluate(row.copy()) for row in window[1:]]
                evals += dim
                sort_window()
                continue
        # the slot after the vertices of equal value; the shorter side moves
        j = bisect_right(vals, f_new, 0, dim)
        del vals[-1]
        vals.insert(j, f_new)
        if j < dim - j:
            if top == 0:  # no spare row left: recentre
                _move_rows(flat, dim, headroom, 0, dim + 1)
                top = headroom
            _move_rows(flat, dim, top - 1, top, j)
            top -= 1
            window = rows[top:top + dim + 1]
        else:
            _move_rows(flat, dim, top + j + 1, top + j, dim - j)
        window[j] = new

    return window[0].copy(), vals[0], evals, converged


def _initial_theta(rng: np.random.Generator, dim: int, restart: int,
                   init: np.ndarray | None) -> np.ndarray:
    if init is None:
        return rng.normal(0.0, 1.0, dim)
    theta = np.log(np.maximum(init, 1e-12))
    if restart > 0:
        theta = theta + rng.normal(0.0, 0.05, dim)
    return theta


def _run_restarts(chunk) -> list[tuple]:
    """A contiguous run of seeded restarts of one config through one
    evaluator.

    ``chunk`` is (config, frame, jobs, init, collect), jobs (direction,
    restart) pairs, a None direction for the config's score.  Each outcome is
    (best value, best distribution, evaluations, converged, collected weights
    or None); the weights are the bytes of an (n, 4) float64 array, which
    compare bit for bit and pickle as one buffer.
    """
    cfg, frame, jobs, init, collect = chunk
    evaluator = DistributionObjective(frame, cfg.alphabet_sizes)
    outcomes = []
    for direction, restart in jobs:
        collector = _Collector(cfg.budget_evals + evaluator.n_atoms + 1) if collect else None
        objective = evaluator.make_objective(cfg.objective, direction, collector)
        rng = np.random.default_rng(np.random.SeedSequence((cfg.master_seed, restart)))
        theta0 = _initial_theta(rng, evaluator.n_atoms, restart, init)
        best_theta, best_val, evals, converged = nelder_mead(
            lambda th: objective(softmax(th)), theta0, cfg.budget_evals)
        outcomes.append((best_val, softmax(best_theta), evals, converged,
                         collector.kept() if collect else None))
    return outcomes


def _thread_count(threads: int | None) -> int:
    """Requested workers (argument, else ENTROPY_TOOLKIT_THREADS), capped at
    the CPUs this process may run on (its affinity set where the OS reports
    one, else the host's CPU count), and at 1 where ``os.fork`` does not exist."""
    threads = None if threads is None else _count(threads, "threads", 1)
    if not hasattr(os, "fork"):
        return 1
    if threads is None:
        try:
            threads = int(os.environ.get("ENTROPY_TOOLKIT_THREADS", "1"))
        except ValueError:
            threads = 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return max(1, min(int(threads), cpus or 1))


def _run_child(chunk, pipe: int) -> NoReturn:
    """A forked child's whole life: run ``chunk`` and write the pickled
    ``(ok, outcomes or exception)`` to the ``pipe`` descriptor.  It leaves by
    ``os._exit``, with status 0 once the result is written, so it runs no
    atexit handler and flushes none of the stdio buffers it inherited."""
    status = 1
    try:
        try:
            result = (True, _run_restarts(chunk))
        except Exception as exc:
            result = (False, exc)
        with open(pipe, "wb") as out:
            pickle.dump(result, out)
        status = 0
    finally:
        os._exit(status)


class _ForkedChunk:
    """A chunk run by a forked child (:func:`_run_child`), whose result the
    caller reads from a pipe.  Constructing one is the driver's fork step."""

    def __init__(self, chunk):
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            _run_child(chunk, write)
        os.close(write)
        self.pipe = open(read, "rb")

    def outcomes(self) -> list[tuple]:
        """The child's outcomes, read to the end of the pipe before the child
        is reaped; the child's exception is raised again here, and a child
        that ended without a result raises RuntimeError."""
        with self.pipe:
            data = self.pipe.read()
        status = os.waitpid(self.pid, 0)[1]
        pid, self.pid = self.pid, None
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise RuntimeError(f"restart worker {pid} ended without a result: exit code "
                               f"{code} (a negative code is the signal that ended it)")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    def kill(self) -> None:
        """Kill and reap the child, unless it has been reaped already."""
        if self.pid is not None:
            self.pipe.close()
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _run_all_restarts(cfg: SearchConfig, directions: Sequence[tuple | None],
                      frame: IngletonFrame, init: np.ndarray | None, collect: bool,
                      threads: int | None) -> list[tuple]:
    """The outcomes of every restart of ``cfg`` along each of ``directions``
    (None for the config's score), direction by direction and restart by
    restart.  The jobs are split into one contiguous chunk per worker, as even
    as the count allows.  Each chunk after the first goes to one forked child;
    the caller runs the first chunk itself, then collects the children's
    outcomes in chunk order.  If anything raises, every child not yet reaped is
    killed and reaped, so no process outlives the call.
    """
    jobs = [(d, r) for d in directions for r in range(cfg.restarts)]
    workers = min(_thread_count(threads), len(jobs))
    cuts = [len(jobs) * k // workers for k in range(workers + 1)]
    chunks = [(cfg, frame, jobs[lo:hi], init, collect) for lo, hi in zip(cuts, cuts[1:])]
    children: list[_ForkedChunk] = []
    try:
        for chunk in chunks[1:]:
            children.append(_ForkedChunk(chunk))
        parts = [_run_restarts(chunks[0])]
        parts.extend(child.outcomes() for child in children)
    finally:
        for child in children:
            child.kill()
    return [outcome for part in parts for outcome in part]


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


def _init_dense(init: JointDistribution, cfg: SearchConfig, frame: IngletonFrame) -> np.ndarray:
    """``init`` as a dense vector, once its labels and alphabet are the search's."""
    for what, got, want in [("labels", init.ground.labels, frame.ground.labels),
                            ("alphabet", init.alphabet_sizes, cfg.alphabet_sizes)]:
        if got != want:
            raise ValueError(f"init distribution has {what} {got}, the search {want}")
    return init.as_dense()


def optimize_distribution(cfg: SearchConfig, frame: IngletonFrame,
                          init: JointDistribution | None = None,
                          threads: int | None = None) -> SearchResult:
    """Run the configured restarts and merge them deterministically.

    ``init`` seeds every restart near the given distribution (restart 0
    exactly at it, later restarts jittered).  The winner is the smallest
    objective value, ties broken by restart index, so the result does not
    depend on the degree of parallelism.
    """
    init_dense = None if init is None else _init_dense(init, cfg, frame)
    outcomes = _run_all_restarts(cfg, [None], frame, init_dense, collect=False,
                                 threads=threads)
    best_restart, best_distribution, point = _best_restart(
        outcomes, cfg, frame, f"search/seed{cfg.master_seed}")
    return SearchResult(
        best_value=float(outcomes[best_restart][0]),
        best_distribution=best_distribution,
        best_point=point,
        eval_count=sum(o[2] for o in outcomes),
        budget_exhausted=any(not o[3] for o in outcomes),
        best_restart=best_restart,
    )


def _check_cloud_size(n_directions: int, cfg: SearchConfig, optima_only: bool) -> None:
    """Reject a cloud of no direction, or one whose merged outcomes or emitted
    points could exceed their memory bounds, before any search starts."""
    if n_directions < 1:
        raise ValueError("need at least one direction")
    atoms = math.prod(cfg.alphabet_sizes)
    searches = n_directions * cfg.restarts
    _check_outcome_size(searches, atoms, f"directions x restarts "
                                         f"({n_directions:,} x {cfg.restarts:,})")
    points = searches * (cfg.budget_evals + atoms + 1)
    if not optima_only and points * CLOUD_POINT_BYTES > MAX_CLOUD_MIB * 2**20:
        raise ValueError(
            f"a cloud of {n_directions:,} directions x {cfg.restarts:,} restarts x up to "
            f"{cfg.budget_evals + atoms + 1:,} evaluations could hold {points:,} points "
            f"({CLOUD_POINT_BYTES} B each), above MAX_CLOUD_MIB = {MAX_CLOUD_MIB} MiB: "
            f"lower the budget, the restarts or the directions, or keep optima only")


@dataclass(frozen=True, eq=False)
class Cloud:
    """The section points of a cloud: ``weights``, one read-only (n, 4)
    float64 array, and ``runs``, the source tags as (tag, count) pairs in
    point order.  Iterating yields one
    :class:`~entropy_toolkit.frame.CrossSectionPoint` per row, built from the
    row's Python floats (``tolist()`` of one run at a time) when it is read."""

    weights: np.ndarray
    runs: tuple[tuple[str, int], ...]

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        lo = 0
        for tag, count in self.runs:
            for row in self.weights[lo:lo + count].tolist():
                yield CrossSectionPoint(*row, source_tag=tag)
            lo += count


def generate_cloud(directions: Sequence[Sequence[float]], cfg: SearchConfig,
                   frame: IngletonFrame, optima_only: bool = False,
                   threads: int | None = None) -> Cloud:
    """One alpha-maximization per direction; emit the visited section points.

    By default every evaluated point inside the tetrahedron is emitted
    (skipping near-degenerate evaluations), so the cloud density mirrors the
    search effort; ``optima_only`` keeps only the best point of each
    direction, if it is inside too, so a cloud may be empty.
    Each direction must pass :func:`check_direction`; ``cfg.objective`` is
    not read.  All (direction, restart) searches go to one driver call, so a
    cloud forks one child per worker after the first.  Each restart's weights
    come back as one buffer, tagged ``dir<d>(<direction>)/r<restart>``, and the
    :class:`Cloud` joins them in direction and restart order.  A cloud that
    could exceed ``MAX_CLOUD_MIB`` of points, or ``MAX_OUTCOME_MIB`` of merged
    best distributions, is rejected before any search starts.
    """
    _check_cloud_size(len(directions), cfg, optima_only)
    directions = [check_direction(d) for d in directions]
    outcomes = _run_all_restarts(cfg, directions, frame, None, collect=not optima_only,
                                 threads=threads)
    runs: list[tuple[str, bytes]] = []
    for d_idx, direction in enumerate(directions):
        tag = "dir{}({:.6g},{:.6g},{:.6g})".format(d_idx, *direction)
        own = outcomes[d_idx * cfg.restarts:(d_idx + 1) * cfg.restarts]
        if optima_only:
            point = _best_restart(own, cfg, frame, tag)[2]
            if point is not None:
                row = np.array([point.as_tuple()])
                runs.append((point.source_tag, row[_inside_tetrahedron(row)].tobytes()))
        else:
            runs.extend((f"{tag}/r{r}", outcome[4]) for r, outcome in enumerate(own))
    # a bytes buffer gives a read-only array without a copy; a restart that
    # kept no row gives no run
    weights = np.frombuffer(b"".join(rows for _, rows in runs), dtype=np.float64)
    return Cloud(weights.reshape(-1, 4), tuple((tag, len(rows) // 32)
                                               for tag, rows in runs if rows))


def sphere_directions(count: int, seed: int = 0) -> list[tuple[float, float, float]]:
    """Deterministic directions drawn uniformly on the sphere in weight space."""
    count, seed = _count(count, "direction count", 1), _count(seed, "seed")
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
    scaling, realized by uniform linear matroids).

    Each corner's atoms, one per value of its fair bits (first bit outermost),
    are rows in role order (i, j, k, l), permuted once into ground order."""
    u, v = np.indices((2, 2), dtype=np.int64).reshape(2, -1)
    x, y, z, w = np.indices((2, 2, 2, 2), dtype=np.int64).reshape(4, -1)
    corners = {
        "beta": ((2, 2, 4, 4), (v, u, 2 * u + v, 2 * u + v)),
        "gamma": ((4, 4, 2, 2), (2 * x + z, 2 * y + w, z ^ w, x ^ y)),
        "delta": ((4, 4, 4, 4), (2 * y + w, 2 * x + z, 2 * z + w, 2 * x + y)),
    }
    cols = [frame.roles.index(lab) for lab in frame.ground.labels]
    return {name: JointDistribution._from_arrays(
                frame.ground, [sizes[c] for c in cols], np.stack(rows, axis=1)[:, cols],
                np.full(rows[0].size, 1.0 / rows[0].size))
            for name, (sizes, rows) in corners.items()}
