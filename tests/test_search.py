"""Scalar minimization, distribution search, determinism and clouds."""

import hashlib
import itertools
import math
import os
import pickle
import re
import signal
import time
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entropy_toolkit import (
    EXL_REFERENCE,
    IngletonFrame,
    SearchConfig,
    cross_section_point,
    entropy_function,
    exl_distribution,
    four_atom_score,
    generate_cloud,
    ingleton_score,
    minimize_scalar,
    optimize_distribution,
    sphere_directions,
    tight_part,
    vertex_seed_distributions,
)
from entropy_toolkit import GroundSet, delta_vec
from entropy_toolkit.entropy import KAPPA_FLOOR
from entropy_toolkit.frame import a_map, b_map
from entropy_toolkit.search import engine
from entropy_toolkit.search.engine import (
    MAX_ATOMS,
    SCORE_OBJECTIVES,
    DistributionObjective,
    check_direction,
    nelder_mead,
    softmax,
)

from helpers import (
    ObjectiveByRankVecs,
    alpha_objective_by_norm,
    assert_same_rows,
    cloud_by_lists,
    entropy_vector_by_tile,
    nelder_mead_by_lists,
    nelder_mead_by_mean,
    nelder_mead_by_rank,
    rand_distribution,
    ray_objective_by_matmul,
    softmax_by_maximum_reduce,
    softmax_by_np_max,
    vertex_seed_distributions_by_dict,
)
from search_goldens import BEST_3242, BEST_4444


class TestMinimizeScalar:
    def test_quadratic(self):
        x, fx = minimize_scalar(lambda x: (x - 0.3) ** 2, 0.0, 1.0, tol=1e-8)
        assert x == pytest.approx(0.3, abs=1e-8)
        assert fx == pytest.approx(0.0, abs=1e-15)

    def test_four_atom_family(self):
        p_star, score = minimize_scalar(four_atom_score, 0.0, 0.5, tol=1e-7)
        assert p_star == pytest.approx(0.350457, abs=1e-4)
        assert score == pytest.approx(-0.089373, abs=1e-5)

    def test_monotone_edge(self):
        x, _ = minimize_scalar(lambda x: x, 0.0, 1.0, tol=1e-8)
        assert x == pytest.approx(0.0, abs=1e-7)

    def test_rejects_bad_interval_and_nan(self):
        with pytest.raises(ValueError):
            minimize_scalar(lambda x: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            minimize_scalar(lambda x: float("nan"), 0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_late_non_finite_value(self, bad):
        """A value that turns non-finite after the first two probes stops the
        bracket loop."""
        calls = []

        def late(x):
            calls.append(x)
            return bad if len(calls) == 5 else (x - 0.3) ** 2
        with pytest.raises(ValueError, match="^objective returned a non-finite value$"):
            minimize_scalar(late, 0.0, 1.0)
        assert len(calls) == 5

    @pytest.mark.parametrize("lo, tol", [(0.0, 0.0), (0.0, -1.0), (-1.0, math.nan),
                                         (0.0, math.inf)])
    def test_rejects_bad_tolerance(self, lo, tol):
        # without the check, tol 0 or -1 never ends the loop, and nan skips it
        # and returns the first probe (0.23607 on [-1, 1]); a tolerance below 0
        # fails the tolerance rule, and 0 the search's own tol > 0
        match = "finite tol > 0" if tol == 0 else r"tolerance must be a finite real in \[0.0, inf\]"
        with pytest.raises(ValueError, match=match):
            minimize_scalar(lambda x: (x - 0.3) ** 2, lo, 1.0, tol=tol)

    def test_tolerance_below_float_spacing(self):
        # 1e-17 is below the spacing of floats near 0.3 (5.6e-17): the search
        # stops when a step no longer shrinks the bracket
        calls = []
        x, fx = minimize_scalar(lambda x: calls.append(x) or (x - 0.3) ** 2, 0.0, 1.0,
                                tol=1e-17)
        assert x == pytest.approx(0.3, abs=1e-8)
        assert fx == pytest.approx(0.0, abs=1e-15)
        assert len(calls) < 100


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(alphabet_sizes=(12, 2, 2, 2))
        with pytest.raises(ValueError):
            SearchConfig(alphabet_sizes=(1, 1, 1, 1))
        with pytest.raises(ValueError):
            SearchConfig(restarts=0)
        with pytest.raises(ValueError):
            SearchConfig(objective="nope")
        # the ray objective belongs to cloud directions, not to a config
        with pytest.raises(ValueError, match="not one of"):
            SearchConfig(objective="alpha_in_direction")

    def test_json_roundtrip(self):
        cfg = SearchConfig(alphabet_sizes=(2, 3, 2, 2), restarts=3,
                           budget_evals=100, master_seed=7, objective="raw_score")
        assert SearchConfig.from_json(cfg.to_json()) == cfg
        assert list(cfg.to_json()) == [f.name for f in fields(SearchConfig)] == [
            "alphabet_sizes", "restarts", "budget_evals", "master_seed", "objective"]
        assert cfg.to_json()["alphabet_sizes"] == [2, 3, 2, 2]


class TestDistributionObjective:
    def test_entropy_vector_matches_generic_path(self, frame, rng):
        for sizes in [(2, 2, 2, 2), (3, 2, 4, 2)]:
            ev = DistributionObjective(frame, sizes)
            for _ in range(10):
                d = rand_distribution(rng, frame.ground, sizes)
                fast = ev.entropy_vector(d.as_dense())
                slow = entropy_function(d).values
                assert np.max(np.abs(fast - slow)) <= 1e-12

    def test_scores_match_compositional_path(self, frame, rng):
        ev = DistributionObjective(frame, (2, 2, 2, 2))
        for _ in range(20):
            d = rand_distribution(rng, frame.ground, (2, 2, 2, 2))
            h = ev.entropy_vector(d.as_dense())
            f = entropy_function(d)
            assert ev.score_from_entropy(h, "raw_score") == pytest.approx(
                ingleton_score(f, frame), abs=1e-12)
            assert ev.score_from_entropy(h, "tight_score") == pytest.approx(
                ingleton_score(tight_part(f), frame), abs=1e-12)
            pipeline = a_map(b_map(tight_part(f), frame), frame)
            assert ev.score_from_entropy(h, "pipeline_score") == pytest.approx(
                ingleton_score(pipeline, frame), abs=1e-12)

    def test_weights_match_cross_section(self, frame, rng):
        ev = DistributionObjective(frame, (2, 2, 2, 2))
        for _ in range(20):
            d = rand_distribution(rng, frame.ground, (2, 2, 2, 2))
            fast = ev.weights_from_entropy(ev.entropy_vector(d.as_dense()))
            point, _ = cross_section_point(entropy_function(d), frame)
            assert np.max(np.abs(fast - np.array(point.as_tuple()))) <= 1e-12

    def test_weight_rows_sum_to_normalizer(self, frame):
        ev = DistributionObjective(frame, (2, 2, 2, 2))
        assert np.max(np.abs(ev.table[1:5].sum(axis=0) - ev.table[7])) <= 1e-12

    def test_degenerate_scores_zero(self, frame):
        ev = DistributionObjective(frame, (2, 2, 2, 2))
        point_mass = np.zeros(16)
        point_mass[0] = 1.0
        h = ev.entropy_vector(point_mass)
        for objective in ("raw_score", "tight_score", "pipeline_score"):
            assert ev.score_from_entropy(h, objective) == 0.0
        assert ev.weights_from_entropy(h) is None

    @pytest.mark.parametrize("objective", ["alpha_in_direction", "no_such_score"])
    def test_score_from_entropy_rejects_a_non_score(self, frame, rng, objective):
        ev = DistributionObjective(frame, (2, 2, 2, 2))
        h = ev.entropy_vector(rand_distribution(rng, frame.ground, (2, 2, 2, 2)).as_dense())
        with pytest.raises(ValueError, match="not a score objective"):
            ev.score_from_entropy(h, objective)

    @pytest.mark.parametrize("objective", ["raw_score", "tight_score", "pipeline_score"])
    def test_score_objective_refuses_a_collector(self, frame, objective):
        """A collector without a direction raises: only the ray objective collects."""
        ev = DistributionObjective(frame, (2, 2, 2, 2))
        with pytest.raises(ValueError, match="a collector needs a direction"):
            ev.make_objective(objective, collector=engine._Collector(1))


class TestNelderMead:
    def test_quadratic(self):
        target = np.array([0.3, -0.7, 1.1])
        x, fx, evals, converged = nelder_mead(
            lambda v: float(np.sum((v - target) ** 2)),
            np.zeros(3), budget=2000)
        assert np.max(np.abs(x - target)) <= 1e-6
        assert converged

    def test_budget_respected(self):
        _, _, evals, converged = nelder_mead(
            lambda v: float(np.sum(v ** 2)), np.ones(8), budget=50)
        assert not converged
        assert evals <= 50 + 9

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            nelder_mead(lambda v: bad, np.zeros(3), budget=100)
        calls = []

        def late(v):
            calls.append(v)
            return bad if len(calls) == 20 else float(np.sum(v ** 2))
        with pytest.raises(ValueError, match="non-finite"):
            nelder_mead(late, np.ones(3), budget=100)
        assert len(calls) == 20


TIE_HEAVY = {
    "rounded_quadratic": lambda v: round(float(np.sum((v - 0.3) ** 2)), 1),
    "floor_l1": lambda v: math.floor(float(np.sum(np.abs(v)))),
    "constant": lambda v: 0.0,
    "quadratic": lambda v: float(np.sum((v - np.linspace(-1.0, 1.0, len(v))) ** 2)),
}


def recorded(fn):
    """fn plus the arguments it was called with, as passed and as copied."""
    passed, copies = [], []

    def wrapped(v):
        passed.append(v)
        copies.append(np.array(v, copy=True))
        return fn(v)
    return wrapped, passed, copies


class TestNelderMeadReference:
    """The array-based search reproduces the list-based reference bit for
    bit: result, evaluation count, and every point handed to fn, in order."""

    @pytest.mark.parametrize("name", sorted(TIE_HEAVY))
    def test_matches_list_reference(self, name):
        regimes = set()
        for dim in range(1, 13):
            x0 = np.random.default_rng(dim).normal(size=dim)
            for budget in (20, 300, 3000):
                ref_fn, _, ref_calls = recorded(TIE_HEAVY[name])
                shrinks = []
                ref = nelder_mead_by_lists(ref_fn, x0, budget, shrinks=shrinks)
                new_fn, passed, new_calls = recorded(TIE_HEAVY[name])
                x, value, evals, converged = nelder_mead(new_fn, x0, budget)

                assert x.tobytes() == ref[0].tobytes()
                assert type(value) is float
                assert value.hex() == float(ref[1]).hex()
                assert (evals, converged) == (ref[2], ref[3])
                assert [c.tobytes() for c in new_calls] == [c.tobytes() for c in ref_calls]
                # no argument was a view that the search overwrote later
                assert all(p.tobytes() == c.tobytes() for p, c in zip(passed, new_calls))
                assert not any(np.shares_memory(x, p) for p in passed)
                regimes.add("converged" if converged else "budget")
                if shrinks:
                    regimes.add("shrink")
        assert {"converged", "budget"} <= regimes
        assert "shrink" in regimes or name == "quadratic"


def digested(fn):
    """fn plus the arguments it was called with and a digest of each taken
    at the call; at dim 256 digests keep the record small."""
    passed, digests = [], []

    def wrapped(v):
        passed.append(v)
        digests.append(hashlib.sha256(v.tobytes()).digest())
        return fn(v)
    return wrapped, passed, digests


class TestNelderMeadRankOrder:
    """The rank-ordered buffer reproduces the rank-permutation search bit for
    bit at dims where rows move both ways, the headroom runs out, and a
    shrink re-sorts more tied values than a small-array sort would reorder."""

    BUDGETS = {40: (41, 440, 6000), 256: (257, 1500, 9000)}

    @pytest.mark.parametrize("dim", sorted(BUDGETS))
    def test_matches_rank_reference(self, dim, monkeypatch):
        moves = []
        move_rows = engine._move_rows

        def spy(*args):
            moves.append(args[-3:])  # (dst, src, count)
            move_rows(*args)
        monkeypatch.setattr(engine, "_move_rows", spy)

        regimes = set()
        x0 = np.random.default_rng(dim).normal(size=dim)
        for name, fn in sorted(TIE_HEAVY.items()):
            for budget in self.BUDGETS[dim]:
                ref_fn, _, ref_calls = digested(fn)
                ref = nelder_mead_by_rank(ref_fn, x0, budget)
                new_fn, passed, new_calls = digested(fn)
                moves.clear()
                x, value, evals, converged = nelder_mead(new_fn, x0, budget)

                assert x.tobytes() == ref[0].tobytes(), (name, budget)
                assert type(value) is float
                assert value.hex() == float(ref[1]).hex()
                assert (evals, converged) == (ref[2], ref[3])
                assert new_calls == ref_calls
                # no argument was a view that the search overwrote later
                assert all(hashlib.sha256(p.tobytes()).digest() == c
                           for p, c in zip(passed, new_calls))
                assert x.base is None
                assert not any(np.shares_memory(x, p) for p in passed)

                regimes.add("converged" if converged else "budget")
                recentres = [m for m in moves if m[2] == dim + 1]
                inserts = len(moves) - len(recentres)
                if recentres:
                    regimes.add("recentre")
                if any(dst < src for dst, src, count in moves if 0 < count <= dim):
                    regimes.add("up")
                if any(dst > src for dst, src, count in moves if 0 < count <= dim):
                    regimes.add("down")
                # an iteration without a shrink inserts one vertex after 1 or 2 evaluations
                if evals - (dim + 1) > 2 * inserts:
                    regimes.add("shrink")
        assert regimes == {"converged", "budget", "recentre", "up", "down", "shrink"}

    def test_peak_memory_as_stated(self, monkeypatch):
        """A search holds its buffer and at most one simplex-sized temporary
        (a shrink re-sort, a diameter test near convergence), the memory the
        MAX_ATOMS statement counts."""
        dim = 400
        simplex_bytes = (dim + 1) * dim * 8
        tracemalloc.start()
        try:
            # every iteration of a constant objective shrinks
            assert nelder_mead(lambda v: 0.0, np.zeros(dim), budget=3 * dim)[2] > 2 * dim
            # DIAM_TOL above the initial diameter: converged at the first test
            monkeypatch.setattr(engine, "DIAM_TOL", 1.0)
            assert nelder_mead(lambda v: float(v.sum()), np.zeros(dim), budget=3 * dim)[3]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # numpy's ufunc buffers add a few 64 KiB blocks of their own
        assert 2 * simplex_bytes < peak <= engine._simplex_mib(dim) * 2**20 + 2**18


def weighted_bowl(w0: float):
    """Separable quadratic with weight w0 on coordinate 0 and 1 on the rest:
    a large w0 collapses the simplex first in coordinate 0, a small one last."""
    def fn(v: np.ndarray) -> float:
        return float(w0 * v[0] ** 2 + np.sum((v[1:] - 0.25) ** 2))
    return fn


class TestDiameterPreCheck:
    """The one-coordinate test in front of the diameter test changes no
    result: it only skips the vector test when coordinate 0 alone rules out
    convergence, and it passes (the search then continuing) when the simplex
    has collapsed in coordinate 0 but not in every coordinate."""

    CASES = {2: (nelder_mead_by_lists, 3000), 16: (nelder_mead_by_rank, 20000),
             256: (nelder_mead_by_rank, 3000)}

    @pytest.mark.parametrize("dim", sorted(CASES))
    def test_matches_reference(self, dim, monkeypatch):
        reference, budget = self.CASES[dim]
        outcomes = []

        def spy_abs(x):
            # the pre-check is the only abs call inside nelder_mead
            outcomes.append(abs(x) < 1e-10)
            return abs(x)
        monkeypatch.setattr(engine, "abs", spy_abs, raising=False)

        x0 = np.random.default_rng(dim).normal(size=dim)
        regimes = set()
        for w0 in (1e6, 1e-6):
            ref = reference(weighted_bowl(w0), x0, budget)
            outcomes.clear()
            x, value, evals, converged = nelder_mead(weighted_bowl(w0), x0, budget)
            assert x.tobytes() == ref[0].tobytes(), w0
            assert value.hex() == float(ref[1]).hex()
            assert (evals, converged) == (ref[2], ref[3])
            regimes.add("converged" if converged else "budget")
            if not all(outcomes):
                regimes.add("ruled out by coordinate 0")
            # a passing pre-check that did not end the search
            if sum(outcomes) > converged:
                regimes.add("passed, search went on")
        assert {"ruled out by coordinate 0", "passed, search went on"} <= regimes
        assert regimes >= ({"budget"} if dim == 256 else {"converged"})


class TestOptimizeDistribution:
    CFG = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=4,
                       budget_evals=400, master_seed=11,
                       objective="pipeline_score")

    def test_deterministic(self, frame):
        r1 = optimize_distribution(self.CFG, frame)
        r2 = optimize_distribution(self.CFG, frame)
        assert r1.best_value == r2.best_value
        assert r1.best_restart == r2.best_restart
        assert r1.eval_count == r2.eval_count
        assert r1.best_distribution.atoms == r2.best_distribution.atoms

    def test_parallel_equals_serial(self, frame):
        serial = optimize_distribution(self.CFG, frame, threads=1)
        parallel = optimize_distribution(self.CFG, frame, threads=2)
        assert serial.best_value == parallel.best_value
        assert serial.best_distribution.atoms == parallel.best_distribution.atoms
        assert serial.eval_count == parallel.eval_count

    def test_budget_flag_and_eval_count(self, frame):
        res = optimize_distribution(self.CFG, frame)
        assert res.budget_exhausted
        assert res.eval_count >= 4 * 380

    def test_best_value_reproducible_from_distribution(self, frame):
        res = optimize_distribution(self.CFG, frame)
        f = entropy_function(res.best_distribution)
        pipeline = a_map(b_map(tight_part(f), frame), frame)
        assert ingleton_score(pipeline, frame) == pytest.approx(
            res.best_value, abs=1e-12)

    def test_seeded_near_reference_distribution(self, frame):
        cfg = SearchConfig(alphabet_sizes=(4, 4, 4, 4), restarts=2,
                           budget_evals=600, master_seed=3,
                           objective="pipeline_score")
        res = optimize_distribution(cfg, frame,
                                    init=exl_distribution(EXL_REFERENCE))
        assert res.best_value <= -0.0924

    def test_point_mass_start_proceeds(self, frame):
        # an exactly degenerate distribution scores 0 by convention (see
        # TestDistributionObjective); seeding the search at a point mass must
        # not crash it, and a modest budget already walks it to score <= 0
        ground = frame.ground
        from entropy_toolkit import JointDistribution
        point_mass = JointDistribution(ground, (2, 2, 2, 2),
                                       {(0, 0, 0, 0): 1.0})
        cfg = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=2,
                           budget_evals=500, master_seed=5,
                           objective="raw_score")
        res = optimize_distribution(cfg, frame, init=point_mass)
        assert math.isfinite(res.best_value)
        assert res.best_value <= 0.0
        assert res.eval_count >= 500

    def test_binary_search_finds_negative_scores(self, frame):
        cfg = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=6,
                           budget_evals=1500, master_seed=2024,
                           objective="pipeline_score")
        res = optimize_distribution(cfg, frame)
        assert res.best_value < -0.05
        assert res.best_point is not None

    def test_init_mismatch_rejected(self, frame):
        from entropy_toolkit import exl_distribution
        with pytest.raises(ValueError):
            optimize_distribution(self.CFG, frame,
                                  init=exl_distribution(EXL_REFERENCE))


class TestCloud:
    CFG = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=2,
                       budget_evals=120, master_seed=9,
                       objective="pipeline_score")

    def test_cloud_emits_every_evaluation(self, frame, monkeypatch):
        """Every evaluation whose weights lie in the tetrahedron, in order."""
        emitted = []
        append = engine._Collector.append

        def spy(self, w):
            emitted.append(w.copy())
            append(self, w)
        monkeypatch.setattr(engine._Collector, "append", spy)
        cloud = generate_cloud([(0.0, 0.0, 1.0)], self.CFG, frame, threads=1)
        assert len(emitted) >= 200  # both restarts' evaluations
        inside = [w for w in emitted
                  if w.min() >= 0.0 and abs(np.add.reduce(w) - 1.0) <= 1e-9]
        assert 0 < len(cloud) == len(inside) < len(emitted)
        assert cloud.weights.tobytes() == np.array(inside).tobytes()

    def test_optima_only(self, frame):
        """One optimum per direction, kept only inside the tetrahedron: at
        this budget the (0, 1, 0) optimum has alpha < 0 and is dropped."""
        cloud = generate_cloud([(0.0, 0.0, 1.0), (0.0, 1.0, 0.0)],
                               self.CFG, frame, optima_only=True)
        assert cloud.runs == (("dir0(0,0,1)/r0", 1),)
        outcomes = engine._run_all_restarts(self.CFG, [(0.0, 1.0, 0.0)], frame, None,
                                            collect=False, threads=1)
        assert engine._best_restart(outcomes, self.CFG, frame, "dir1")[2].alpha_w < 0.0

    def test_optima_only_builds_no_collector(self, frame, monkeypatch):
        collectors = []
        make_objective = DistributionObjective.make_objective

        def spy(self, objective, direction=None, collector=None):
            collectors.append(collector)
            return make_objective(self, objective, direction, collector)

        monkeypatch.setattr(DistributionObjective, "make_objective", spy)
        generate_cloud([(0.0, 0.0, 1.0)], self.CFG, frame, optima_only=True, threads=1)
        assert collectors == [None] * self.CFG.restarts

    def test_empty_directions_rejected(self, frame):
        with pytest.raises(ValueError):
            generate_cloud([], self.CFG, frame)

    def test_vertex_seeds_hit_corners(self, frame):
        seeds = vertex_seed_distributions(frame)
        corners = {"beta": (0.0, 1.0, 0.0, 0.0),
                   "gamma": (0.0, 0.0, 1.0, 0.0),
                   "delta": (0.0, 0.0, 0.0, 1.0)}
        for name, dist in seeds.items():
            point, _ = cross_section_point(entropy_function(dist), frame)
            assert point.as_tuple() == pytest.approx(corners[name], abs=1e-12)

    @pytest.mark.parametrize("labels", ["ijkl", "abcd"])
    def test_vertex_seeds_match_dict_builder(self, labels):
        ground = GroundSet(labels)
        for roles in itertools.permutations(labels):
            frame = IngletonFrame(ground, *roles)
            seeds = vertex_seed_distributions(frame)
            ref = vertex_seed_distributions_by_dict(frame)
            assert list(seeds) == list(ref) == ["beta", "gamma", "delta"]
            for name in ref:
                assert_same_rows(seeds[name], ref[name])

    def test_sphere_directions(self):
        dirs = sphere_directions(16, seed=3)
        assert dirs == sphere_directions(16, seed=3)
        for d in dirs:
            assert math.hypot(*d) == pytest.approx(1.0, abs=1e-12)
        # integer counts keep their directions, numpy integers included
        assert sphere_directions(np.int64(5), seed=3) == dirs[:5]
        assert sphere_directions(5, seed=np.int64(3)) == dirs[:5]
        assert [x.hex() for x in map(float, dirs[1])] == [
            "0x1.932c52dcd18e4p-1", "0x1.24ad1c1dcd414p-1", "-0x1.d8344c3dc7311p-3"]

    @pytest.mark.parametrize("count", [math.nan, 2.5, True, 0, -1, math.inf])
    def test_sphere_directions_rejects_count(self, count):
        message = f"direction count must be a positive integer, got {count!r}"
        with pytest.raises(ValueError, match=message):
            sphere_directions(count)

    @pytest.mark.parametrize("seed", [2.5, True, np.True_, "3", None, -1])
    def test_sphere_directions_rejects_seed(self, seed):
        message = f"seed must be a non-negative integer, got {re.escape(repr(seed))}"
        with pytest.raises(ValueError, match=message):
            sphere_directions(1, seed=seed)

    def test_cloud_points_satisfy_builtin_bank(self, frame):
        # entropic points obey the non-Shannon bank; cross-module consistency
        from entropy_toolkit import check_point, default_halfspace_bank
        bank = default_halfspace_bank(6)
        cloud = generate_cloud([(1.0, 1.0, 1.0)], self.CFG, frame)
        assert cloud
        for pt in cloud:
            assert check_point(pt, bank, tol=1e-7).all_satisfied

    def test_cloud_deterministic(self, frame):
        c1 = generate_cloud([(0.0, 1.0, 0.0)], self.CFG, frame)
        c2 = generate_cloud([(0.0, 1.0, 0.0)], self.CFG, frame)
        assert [p.as_tuple() for p in c1] == [p.as_tuple() for p in c2]

    @pytest.mark.parametrize("seed", [1, 1009])
    def test_hull_inside_the_outer_region(self, frame, seed):
        """At the benchmark's cloud settings every point lies in the
        tetrahedron, and the hull of the cloud (an inner bound) lies inside
        the outer region of the DFZ bank up to s = 20."""
        from entropy_toolkit import convex_hull_3d, default_halfspace_bank
        cfg = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=2, budget_evals=400,
                           master_seed=seed)
        cloud = generate_cloud(sphere_directions(8, seed=seed), cfg, frame, threads=1)
        assert len(cloud) > 3000
        assert (cloud.weights >= 0.0).all()
        poly = convex_hull_3d(cloud.weights)
        assert poly.dim == 3
        margins = [hs.margin(v) for hs in default_halfspace_bank(20) for v in poly.vertices]
        assert min(margins) >= -1e-7


class TestThreadEnvironment:
    def test_env_variable_caps_workers(self, frame, monkeypatch):
        cfg = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=2,
                           budget_evals=120, master_seed=13,
                           objective="raw_score")
        serial = optimize_distribution(cfg, frame)
        monkeypatch.setenv("ENTROPY_TOOLKIT_THREADS", "2")
        via_env = optimize_distribution(cfg, frame)
        assert via_env.best_value == serial.best_value
        assert via_env.best_distribution.atoms == serial.best_distribution.atoms

    def test_garbage_env_falls_back_to_serial(self, frame, monkeypatch):
        monkeypatch.setenv("ENTROPY_TOOLKIT_THREADS", "soon")
        cfg = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=1,
                           budget_evals=60, master_seed=13,
                           objective="raw_score")
        assert optimize_distribution(cfg, frame).eval_count >= 60


class TestNonDefaultFrame:
    def test_search_respects_frame_roles(self, ground):
        # swapping roles k and i changes which Ingleton instance is studied,
        # but the machinery must stay consistent with itself
        fr = IngletonFrame(ground, "k", "l", "i", "j")
        cfg = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=2,
                           budget_evals=300, master_seed=17,
                           objective="pipeline_score")
        res = optimize_distribution(cfg, fr)
        f = entropy_function(res.best_distribution)
        pipeline = a_map(b_map(tight_part(f), fr), fr)
        assert ingleton_score(pipeline, fr) == pytest.approx(
            res.best_value, abs=1e-12)


ALL_FRAMES = [IngletonFrame(GroundSet("ijkl"), *roles)
              for roles in itertools.permutations("ijkl")]


def hand_rows(frame):
    """The score and weight vectors as formerly transcribed by hand."""
    g = frame.ground
    m = g.mask
    i, j, k, l = frame.roles
    stv = np.zeros(16)
    for subset, c in [((i, k), 1), ((i, l), 1), ((j, k), 1), ((j, l), 1), ((k, l), 1),
                      ((i, j), -1), ((k,), -1), ((l,), -1), ((i, k, l), -1),
                      ((j, k, l), -1)]:
        stv[m(subset)] += c
    tight = np.zeros(16)
    tight[15] = -3.0
    for b in range(4):
        tight[15 ^ (1 << b)] += 1.0
    pipe = np.zeros(16)
    for subset in [(i, j), (i, k, l), (j, k, l)]:
        pipe[m(subset)] += 1.0
    pipe[15] -= 2.0
    d = lambda a, b, given=(): delta_vec(g, a, b, given)  # noqa: E731
    weights = np.vstack([
        -4.0 * stv,
        d(k, l, (i,)) + d(k, l, (j,)) + d(i, j),
        2.0 * d(i, j, (k,)) + 2.0 * d(i, j, (l,)) + 2.0 * d(k, l, (i, j)),
        d(j, l, (k,)) + d(i, l, (k,)) + d(j, k, (l,)) + d(i, k, (l,)),
    ])
    weights[:, 0] = 0.0
    return stv, tight, pipe, weights


class TestDerivedRows:
    def test_rows_equal_hand_transcription(self):
        for frame in ALL_FRAMES:
            ev = DistributionObjective(frame, (2, 2, 2, 2))
            stv, tight, pipe, weights = hand_rows(frame)
            # rows: stv, the four weights, then the normalizers of SCORE_OBJECTIVES
            assert SCORE_OBJECTIVES == ("raw_score", "tight_score", "pipeline_score")
            assert np.array_equal(ev.table, np.vstack([stv, weights, np.eye(16)[15],
                                                       tight, pipe]))
            assert ev.table.shape == (8, 16) and not ev.table.flags.writeable


class TestSearchGoldens:
    """Literals recorded before the score vectors were derived from the face
    maps; the search arithmetic must reproduce them bit for bit."""

    def test_optimize_distribution(self, frame):
        cfg = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=3, budget_evals=300,
                           master_seed=11, objective="pipeline_score")
        result = optimize_distribution(cfg, frame, threads=1)
        assert result.best_value.hex() == "-0x1.584d1913c2438p-4"
        assert result.eval_count == 901
        assert result.best_restart == 1
        assert [float(x).hex() for x in result.best_distribution.as_dense()] == [
            "0x1.7d95413b5445ap-6", "0x1.0cd6db7ac813cp-3", "0x1.c1c45c1f0d8fbp-8",
            "0x1.4a50ab8e9e42dp-6", "0x1.32a0c4c0f7a0cp-19", "0x1.5fb451e9cc9cap-13",
            "0x1.16fd88eecb43cp-14", "0x1.b607860e6ee94p-2", "0x1.00adc379a8725p-2",
            "0x1.2d7769447dd09p-8", "0x1.3348b2ac6641fp-14", "0x1.a6a7bae4600c3p-18",
            "0x1.2a11016d90711p-11", "0x1.0b7d8a876ee0fp-3", "0x1.2dfe72d9d0095p-12",
            "0x1.d8e9488f33193p-9"]
        assert result.best_point.as_tuple() == pytest.approx(
            (0.3362316053686012, 0.08760970614690056, 0.14183479045055525,
             0.43432389803394433), abs=1e-13)

    def test_generate_cloud(self, frame):
        """206 of the 400 evaluated points lie in the tetrahedron; the rows
        kept are those rows of the unfiltered cloud, bit for bit."""
        cfg = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=1, budget_evals=200,
                           master_seed=5)
        cloud = generate_cloud(sphere_directions(2, seed=5), cfg, frame, threads=1)
        assert len(cloud) == 206
        assert [[w.hex() for w in row] for row in cloud.weights[:3].tolist()] == [
            ["0x1.1336b80c53a2ap-6", "0x1.df2797032cec1p-3",
             "0x1.6fbb2bfaec531p-3", "0x1.23ad99801713cp-1"],
            ["0x1.a785ce8e4589cp-8", "0x1.57b26df4b8dccp-4",
             "0x1.21ac7242f56f4p-2", "0x1.40e46d82d1a22p-1"],
            ["0x1.23b3e7ad6d44bp-7", "0x1.3851285ef4980p-4",
             "0x1.07aa930c83595p-2", "0x1.5091c1cf2a0b1p-1"]]
        assert cloud.runs == (("dir0(-0.25621,0.0925889,0.962177)/r0", 83),
                              ("dir1(0.55661,-0.829772,0.0407944)/r0", 123))
        assert [p.source_tag for p in cloud] == [tag for tag, n in cloud.runs for _ in range(n)]

    @pytest.mark.parametrize("sizes, value, evals, dense", [
        ((4, 4, 4, 4), "0x1.0d0375dca2d3bp-2", 600, BEST_4444),
        ((3, 2, 4, 2), "-0x1.c3cba9c5aa776p-12", 601, BEST_3242),
    ])
    def test_larger_alphabets(self, frame, sizes, value, evals, dense):
        cfg = SearchConfig(alphabet_sizes=sizes, restarts=1, budget_evals=600,
                           master_seed=1)
        result = optimize_distribution(cfg, frame, threads=1)
        assert result.best_value.hex() == value
        assert result.eval_count == evals
        assert [float(x).hex() for x in result.best_distribution.as_dense()] == dense


KERNEL_ALPHABETS = [(2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4), (3, 2, 4, 2)]
KERNEL_FRAME = IngletonFrame.default(GroundSet("ijkl"))


@st.composite
def peaked_thetas(draw):
    """Softmax parameters on one alphabet: at scale 800 all but a few atoms
    underflow to 0 and marginals reach mass exactly 1.0; some atoms are put
    near KAPPA_FLOOR times the largest mass."""
    sizes = draw(st.sampled_from(KERNEL_ALPHABETS))
    n = math.prod(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = draw(st.sampled_from([1.0, 40.0, 800.0])) * rng.normal(size=n)
    top, peak = theta.max(), int(theta.argmax())
    for i, eps in draw(st.lists(st.tuples(st.integers(0, n - 1), st.floats(-1.0, 1.0)),
                                max_size=4)):
        if i != peak:
            theta[i] = top + math.log(KAPPA_FLOOR) + eps
    return sizes, theta


@st.composite
def special_thetas(draw):
    """Softmax parameters of dimension 16, 81 or 256 at three scales, with
    special entries written over a seeded normal draw: a zero maximum of
    either sign, or both signs in either order, a tie at the maximum, an
    infinity of either sign or a NaN."""
    n = draw(st.sampled_from([16, 81, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = draw(st.sampled_from([1.0, 40.0, 800.0])) * rng.normal(size=n)
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    kind = draw(st.sampled_from(["plain", "+0", "-0", "+0 -0", "-0 +0", "tie",
                                 "inf", "-inf", "nan"]))
    if "0" in kind:
        theta = -np.abs(theta)
        for k, sign in zip((i, j), kind.split()):
            theta[k] = 0.0 if sign == "+0" else -0.0
    elif kind == "tie":
        theta[i] = theta[j] = theta.max()
    elif kind != "plain":
        theta[i] = float(kind)
    return theta


class TestKernelMatchesReference:
    """softmax, the entropy vector, the alpha objective and Nelder-Mead
    reproduce their numpy-wrapper references in tests/helpers.py bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(special_thetas())
    @example(np.array([-0.0, 0.0] + [-1.0] * 14))
    @example(np.array([0.0, -0.0] + [-1.0] * 14))
    @example(np.array([np.inf, np.inf] + [0.0] * 14))
    @example(np.full(16, -np.inf))
    @example(np.full(16, np.nan))
    def test_softmax_equals_maximum_reduce(self, theta):
        """The maximum read at argmax gives the ufunc reduction's bits."""
        with np.errstate(all="ignore"):
            got = softmax(theta.copy())
            want = softmax_by_maximum_reduce(theta.copy())
        assert got.tobytes() == want.tobytes()

    def test_ray_objective_equals_matmul(self, frame):
        """The ray objective's ``ndarray.dot`` products give the ``@``
        products' bits on 20,000 seeded 2^4 points, each along one of six
        directions and its negation, so both sides of the ray are taken."""
        ev = DistributionObjective(frame, (2, 2, 2, 2))
        rng = np.random.default_rng(30)
        scales = np.repeat([1.0, 4.0, 40.0], [7000, 7000, 6000])[:, None]
        points = [softmax(theta) for theta in scales * rng.normal(size=(20000, 16))]
        directions = [(0.3, -0.2, 0.9), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                      (-0.5, 0.5, 0.5), (0.2, 0.7, -0.1), (1e-3, -2.0, 3.0)]
        for k, d in enumerate(directions):
            pair = (d, tuple(-x for x in d))
            got = [ev.make_objective("pipeline_score", e) for e in pair]
            want = [ray_objective_by_matmul(ev, e) for e in pair]
            for p in points[k::len(directions)]:
                for fn, ref in zip(got, want):
                    assert fn(p).hex() == ref(p).hex()

    @settings(max_examples=80, deadline=None)
    @given(peaked_thetas())
    def test_softmax_and_entropy_vector(self, case):
        sizes, theta = case
        p = softmax(theta)
        assert p.tobytes() == softmax_by_np_max(theta).tobytes()
        ev = DistributionObjective(KERNEL_FRAME, sizes)
        assert ev.entropy_vector(p).tobytes() == entropy_vector_by_tile(ev, p).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(peaked_thetas(), st.tuples(*[st.floats(-1.0, 1.0)] * 3))
    def test_alpha_objective_both_branches(self, case, direction):
        sizes, theta = case
        if math.hypot(*direction) < 1e-3:
            direction = (0.0, 0.0, 1.0)
        ev = DistributionObjective(KERNEL_FRAME, sizes)
        p = softmax(theta)
        # d and -d put a nonzero component of the point along the ray on
        # opposite sides, so each example runs both branches
        for d in (direction, tuple(-x for x in direction)):
            got, want = engine._Collector(1), []
            value = ev.make_objective("alpha_in_direction", d, got)(p)
            ref = alpha_objective_by_norm(ev, d, want)(p)
            assert float(value).hex() == float(ref).hex()
            assert got.kept() == np.array(want, dtype=float).reshape(-1, 4).tobytes()

    @pytest.mark.parametrize("sizes", KERNEL_ALPHABETS)
    @pytest.mark.parametrize("objective", ["pipeline_score", "alpha_in_direction"])
    def test_search_matches_reference(self, frame, sizes, objective):
        ev = DistributionObjective(frame, sizes)
        theta0 = np.random.default_rng(sum(sizes)).normal(size=ev.n_atoms)
        budget = ev.n_atoms + 300
        direction = (0.3, -0.2, 0.9)
        got, want = engine._Collector(budget + ev.n_atoms + 1), []
        if objective == "alpha_in_direction":
            new_obj = ev.make_objective(objective, direction, got)
            ref_obj = alpha_objective_by_norm(ev, direction, want)
        else:
            new_obj = ev.make_objective(objective)

            def ref_obj(p):
                return ev.score_from_entropy(entropy_vector_by_tile(ev, p), objective)
        new = nelder_mead(lambda th: new_obj(softmax(th)), theta0, budget)
        ref = nelder_mead_by_mean(lambda th: ref_obj(softmax_by_np_max(th)), theta0, budget)
        assert new[0].tobytes() == ref[0].tobytes()
        assert new[1].hex() == ref[1].hex()
        assert new[2:] == ref[2:]
        assert got.kept() == np.array(want, dtype=float).reshape(-1, 4).tobytes()


@st.composite
def table_cases(draw):
    """A frame, an alphabet and a distribution on it: a softmax of normal
    parameters at three scales, or a mass on one or two atoms, whose
    normalizers may vanish (a point mass is degenerate for every objective)."""
    frame = draw(st.sampled_from(ALL_FRAMES))
    sizes = draw(st.sampled_from([(2, 2, 2, 2), (3, 3, 3, 3), (3, 2, 4, 2)]))
    n = math.prod(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        p = softmax(draw(st.sampled_from([1.0, 40.0, 800.0])) * rng.normal(size=n))
    else:
        p = np.zeros(n)
        p[rng.integers(n, size=draw(st.integers(1, 2)))] += draw(st.sampled_from([0.5, 1.0]))
        p /= p.sum()
    return frame, sizes, p


class TestTableMatchesReference:
    """Every score and the weights, read off ``DistributionObjective.table``,
    equal the separate-vector reference bit for bit, degenerate inputs too."""

    @settings(max_examples=150, deadline=None)
    @given(table_cases())
    @example((KERNEL_FRAME, (2, 2, 2, 2), np.eye(16)[0]))
    @example((KERNEL_FRAME, (3, 3, 3, 3), np.eye(81)[40]))
    @example((KERNEL_FRAME, (3, 2, 4, 2), np.eye(48)[-1]))
    def test_scores_and_weights(self, case):
        frame, sizes, p = case
        ev, ref = DistributionObjective(frame, sizes), ObjectiveByRankVecs(frame)
        h = ev.entropy_vector(p)
        for objective in SCORE_OBJECTIVES:
            got = ev.score_from_entropy(h, objective)
            assert type(got) is float
            assert got.hex() == ref.score_from_entropy(h, objective).hex()
        got, want = ev.weights_from_entropy(h), ref.weights_from_entropy(h)
        assert (got is None) == (want is None)
        if got is not None:
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]


class TestSearchConfigCounts:
    @pytest.mark.parametrize("field", ["restarts", "budget_evals"])
    @pytest.mark.parametrize("value", [True, 2.5, 3.0, "4"])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match="positive integer"):
            SearchConfig(**{field: value})
        with pytest.raises(ValueError, match="positive integer"):
            SearchConfig.from_json({field: value})


def assert_direction_moved(doc: dict, match: str) -> None:
    """A config document refuses a direction, a cloud's setting, and the
    direction rule rejects its value with ``match``."""
    with pytest.raises(ValueError, match=r"unknown config keys \['direction'\]"):
        SearchConfig.from_json(doc)
    with pytest.raises(ValueError, match=match):
        check_direction(doc["direction"])


class TestSearchConfigInputs:
    @pytest.mark.parametrize("kwargs, match", [
        ({"alphabet_sizes": (2.7, 2, 2, 2)}, "alphabet sizes must be integers in 1..11, got 2.7"),
        ({"alphabet_sizes": (2, 2.0, 2, 2)}, "alphabet sizes must be integers in 1..11, got 2.0"),
        ({"alphabet_sizes": (True, 2, 2, 2)}, "alphabet sizes must be integers in 1..11, got True"),
        ({"alphabet_sizes": ("2", 2, 2, 2)}, "alphabet sizes must be integers in 1..11, got '2'"),
        ({"master_seed": 2.5}, "master_seed"),
        ({"master_seed": "7"}, "master_seed"),
        ({"master_seed": True}, "master_seed"),
        ({"master_seed": -1}, "master_seed"),
        ({"direction": (math.nan, 0.0, 0.0)}, "finite"),
        ({"direction": (1.0, math.inf, 0.0)}, "finite"),
        ({"direction": (0.0, 0.0, -math.inf)}, "finite"),
    ])
    def test_rejected(self, kwargs, match):
        if "direction" in kwargs:
            assert_direction_moved(kwargs, match)
            return
        with pytest.raises(ValueError, match=match):
            SearchConfig(**kwargs)
        with pytest.raises(ValueError, match=match):
            SearchConfig.from_json(kwargs)

    def test_numpy_integers_accepted(self):
        cfg = SearchConfig(alphabet_sizes=np.array([2, 3, 2, 2]),
                           master_seed=np.int64(7))
        assert cfg.alphabet_sizes == (2, 3, 2, 2)
        assert type(cfg.master_seed) is int
        assert all(type(s) is int for s in cfg.alphabet_sizes)
        assert cfg.to_json()["master_seed"] == 7

    def test_alphabet_memory_guard(self):
        assert MAX_ATOMS == 8 ** 4
        SearchConfig(alphabet_sizes=(8, 8, 8, 8))
        with pytest.raises(ValueError, match="MiB"):
            SearchConfig(alphabet_sizes=(9, 9, 9, 9))
        with pytest.raises(ValueError, match="MAX_ATOMS"):
            SearchConfig.from_json({"alphabet_sizes": [11, 11, 11, 11]})

    def test_restarts_memory_guard(self):
        # the restarts' best distributions take at most 64 MiB together
        assert engine.MAX_OUTCOME_MIB == 64
        SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=524_288)
        SearchConfig(alphabet_sizes=(8, 8, 8, 8), restarts=2_048)
        for sizes, restarts in [((2, 2, 2, 2), 524_289), ((8, 8, 8, 8), 2_049)]:
            with pytest.raises(ValueError, match="MAX_OUTCOME_MIB = 64 MiB"):
                SearchConfig(alphabet_sizes=sizes, restarts=restarts)

    def test_huge_restarts_in_config_document(self):
        with pytest.raises(ValueError, match=r"restarts must be at most 32,768 .* MiB"):
            SearchConfig.from_json({"restarts": 10**400, "budget_evals": 10**400})


class PicklingChild:
    """Stands in for the driver's fork step, ``engine._ForkedChunk``: the
    chunk runs in-process when its outcomes are read, in chunk order as the
    caller reads a child's pipe, and the task and the outcomes are pickled as
    the pipe pickles them.  Records the restart indices of each chunk."""

    forked: list = []

    def __init__(self, chunk):
        PicklingChild.forked.append([r for _, r in chunk[2]])
        self.task = pickle.dumps(chunk)

    def outcomes(self):
        return pickle.loads(pickle.dumps(engine._run_restarts(pickle.loads(self.task))))

    def kill(self):
        pass


def allow_cpus(monkeypatch, n: int) -> None:
    """A host of n CPUs, all of which this process may run on."""
    monkeypatch.setattr(engine.os, "cpu_count", lambda: n)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


@pytest.fixture
def forked(monkeypatch):
    """The restart indices of each chunk given to a child, through
    ``PicklingChild``; a driver call with w workers forks w - 1 children."""
    monkeypatch.setattr(engine, "_ForkedChunk", PicklingChild)
    PicklingChild.forked = []
    return PicklingChild.forked


class TestWorkerCap:
    CFG = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=8, budget_evals=40,
                       master_seed=3, objective="raw_score")

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        allow_cpus(monkeypatch, 3)

    def test_argument_capped_at_cpu_count(self, frame, forked):
        optimize_distribution(self.CFG, frame, threads=100_000)
        assert 1 + len(forked) == 3

    def test_env_variable_capped_at_cpu_count(self, frame, monkeypatch, forked):
        monkeypatch.setenv("ENTROPY_TOOLKIT_THREADS", "100000")
        optimize_distribution(self.CFG, frame)
        assert 1 + len(forked) == 3

    def test_restarts_still_cap(self, frame, forked):
        optimize_distribution(replace(self.CFG, restarts=2), frame, threads=100_000)
        assert 1 + len(forked) == 2

    def test_unknown_cpu_count_runs_serially(self, frame, monkeypatch, forked):
        """Where the OS reports no affinity set, the host's count caps."""
        monkeypatch.delattr(engine.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: None)
        optimize_distribution(self.CFG, frame, threads=100_000)
        assert forked == []

    def test_capped_at_the_cpus_this_process_may_use(self, frame, monkeypatch, forked):
        """A host of 8 CPUs whose affinity set (taskset, a cpuset) allows 1."""
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {5}, raising=False)
        assert engine._thread_count(64) == 1
        optimize_distribution(self.CFG, frame, threads=64)
        assert forked == []

    def test_no_fork_runs_serially(self, frame, monkeypatch, forked):
        """Where ``os.fork`` does not exist (Windows), one worker runs all."""
        monkeypatch.delattr(engine.os, "fork")
        monkeypatch.setenv("ENTROPY_TOOLKIT_THREADS", "3")
        assert engine._thread_count(3) == engine._thread_count(None) == 1
        optimize_distribution(self.CFG, frame, threads=3)
        assert forked == []


class TestSearchConfigWireFormat:
    BASE = {"alphabet_sizes": [2, 2, 2, 2], "restarts": 1, "budget_evals": 40}

    @pytest.mark.parametrize("doc, match", [
        ({"seeds": 3}, r"unknown config keys \['seeds'\]"),
        ({"alphabet_sizes": 4}, r"need alphabet sizes in shape \(4,\), got 4 of shape \(\)"),
        ({"alphabet_sizes": None},
         r"need alphabet sizes in shape \(4,\), got None of shape \(\)"),
        ({"objective": "raw_score", "direction": [math.nan, 0.0, 0.0]}, "finite"),
        ({"objective": "pipeline_score", "direction": [1.0, 0.0]}, "3-vector"),
        ({"direction": 5}, "3-vector"),
        ({"direction": [None, 0.0, 1.0]}, "3-vector"),
        ({"direction": ["1", 0.0, 1.0]}, "3-vector"),
        ({"objective": "alpha_in_direction"}, "'alpha_in_direction' not one of"),
    ])
    def test_rejected(self, doc, match):
        if "direction" in doc:
            assert_direction_moved({**self.BASE, **doc}, match)
            return
        with pytest.raises(ValueError, match=match):
            SearchConfig.from_json({**self.BASE, **doc})

    @pytest.mark.parametrize("doc", [[1, 2], "cfg", None])
    def test_non_object_document_rejected(self, doc):
        with pytest.raises(ValueError, match="malformed config document"):
            SearchConfig.from_json(doc)

    def test_direction_normalized_once(self):
        """A direction is read once into floats, by the direction rule; a
        config document refuses it."""
        d = check_direction([1, 0, np.float32(2)])
        assert d == (1.0, 0.0, 2.0) and all(type(x) is float for x in d)
        assert check_direction(d) == d
        with pytest.raises(ValueError, match=r"unknown config keys \['direction'\]"):
            SearchConfig.from_json({**self.BASE, "direction": [1, 0, 2]})
        cfg = SearchConfig.from_json(self.BASE)
        assert cfg.alphabet_sizes == (2, 2, 2, 2)
        assert SearchConfig.from_json(cfg.to_json()) == cfg


class TestCheckDirection:
    """The one direction rule, which ``generate_cloud`` and a
    ``--directions-file`` apply: a finite nonzero 3-vector of reals, no
    booleans, whose squared norm is a normal double."""

    @pytest.mark.parametrize("direction, match", [
        ((math.nan, 0.0, 0.0), "finite"),
        ((1.0, math.inf, 0.0), "finite"),
        ((0.0, 0.0, 0.0), "finite nonzero"),
        ([0, -0.0, 0], "finite nonzero"),
        ([1.0, 0.0, 0.0, 0.0], "3-vector"),
        ([True, 0.0, 0.0], "3-vector"),
        ((1e-200, 0.0, 0.0), "squared norm is a normal double"),
        ((1e200, 0.0, 0.0), "squared norm is a normal double"),
    ])
    def test_generate_cloud_rejects_first(self, frame, monkeypatch, direction, match):
        with pytest.raises(ValueError, match=match):
            check_direction(direction)
        monkeypatch.setattr(engine, "_run_all_restarts", lambda *a, **k: pytest.fail(
            "a search started along a direction the rule rejects"))
        with pytest.raises(ValueError, match=match):
            generate_cloud([(0.0, 0.0, 1.0), direction],
                           SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=1,
                                        budget_evals=20), frame)


class TestRestartTasks:
    CFG = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=3, budget_evals=120,
                       master_seed=5)
    DIRECTION = (0.2, 0.3, 0.5)

    def test_config_and_frame_pickle(self):
        frame = IngletonFrame(GroundSet("abcd"), "c", "a", "d", "b")
        for obj in (self.CFG, frame):
            back = pickle.loads(pickle.dumps(obj))
            assert back == obj and hash(back) == hash(obj)

    def test_pickled_tasks_give_serial_results(self, frame, monkeypatch, forked):
        """A child that gets its task and sends its outcomes pickled, as the
        pipe does, returns what the serial loop returns."""
        serial = engine._run_all_restarts(self.CFG, [self.DIRECTION], frame, None, True,
                                          threads=1)
        allow_cpus(monkeypatch, 2)
        parallel = engine._run_all_restarts(self.CFG, [self.DIRECTION], frame, None, True,
                                            threads=2)
        assert forked == [[1, 2]]
        for (v1, p1, e1, c1, w1), (v2, p2, e2, c2, w2) in zip(serial, parallel, strict=True):
            assert (v1, e1, c1, w1) == (v2, e2, c2, w2)
            assert np.array_equal(p1, p2)


class TestChunkDriver:
    """The restarts go out as one contiguous chunk per worker, the caller
    running the first and a child each other, each chunk builds one
    evaluator, and the outcomes come back in restart order, equal to the
    serial ones."""

    CFG = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=5, budget_evals=90,
                       master_seed=17)
    DIRECTION = (0.1, -0.4, 0.9)

    @pytest.fixture
    def setups(self, monkeypatch, forked):
        """Counts DistributionObjective constructions; the driver gets three
        CPUs and forks ``PicklingChild``."""
        calls = []
        init = DistributionObjective.__init__

        def counted(self, *args):
            calls.append(args)
            init(self, *args)
        monkeypatch.setattr(DistributionObjective, "__init__", counted)
        allow_cpus(monkeypatch, 3)
        return calls

    @pytest.fixture
    def ran(self, monkeypatch):
        """The restart indices of every chunk run, caller's or child's, in
        run order."""
        chunks = []
        run = engine._run_restarts
        monkeypatch.setattr(engine, "_run_restarts", lambda chunk: chunks.append(
            [r for _, r in chunk[2]]) or run(chunk))
        return chunks

    @pytest.mark.parametrize("restarts, threads, chunks", [
        (5, 2, [[0, 1], [2, 3, 4]]),
        (5, 3, [[0], [1, 2], [3, 4]]),
        (2, 3, [[0], [1]]),
    ])
    def test_chunks_give_serial_outcomes(self, frame, setups, forked, ran, restarts,
                                         threads, chunks):
        cfg = replace(self.CFG, restarts=restarts)
        serial = engine._run_all_restarts(cfg, [self.DIRECTION], frame, None, True, threads=1)
        assert len(setups) == 1 and forked == []
        setups.clear()
        ran.clear()
        parallel = engine._run_all_restarts(cfg, [self.DIRECTION], frame, None, True,
                                            threads=threads)
        workers = len(chunks)
        assert 1 + len(forked) == workers
        assert ran == chunks and forked == chunks[1:]
        assert len(setups) == workers
        for (v1, p1, e1, c1, w1), (v2, p2, e2, c2, w2) in zip(serial, parallel, strict=True):
            assert (v1.hex(), e1, c1, w1) == (v2.hex(), e2, c2, w2)
            assert p1.tobytes() == p2.tobytes()

    def test_one_config_per_chunk(self, frame, monkeypatch):
        """A search's jobs carry no direction and a cloud's carry its
        directions; either way the chunk holds the one config as given."""
        chunks = []
        run = engine._run_restarts
        monkeypatch.setattr(engine, "_run_restarts",
                            lambda chunk: chunks.append(chunk) or run(chunk))
        cfg = replace(self.CFG, restarts=2, objective="raw_score")
        optimize_distribution(cfg, frame, threads=1)
        generate_cloud([self.DIRECTION, [0, 0, 1]], cfg, frame, threads=1)
        (search_cfg, _, search_jobs, _, _), (cloud_cfg, _, cloud_jobs, _, _) = chunks
        assert search_cfg is cfg and search_jobs == [(None, 0), (None, 1)]
        assert cloud_cfg is cfg and cloud_jobs == [
            (self.DIRECTION, 0), (self.DIRECTION, 1), ((0.0, 0.0, 1.0), 0), ((0.0, 0.0, 1.0), 1)]

    def test_cloud_is_one_driver_call(self, frame, setups, forked, ran):
        directions = sphere_directions(3, seed=5)
        cfg = replace(self.CFG, restarts=2)
        serial = generate_cloud(directions, cfg, frame, threads=1)
        assert len(setups) == 1
        setups.clear()
        ran.clear()
        parallel = generate_cloud(directions, cfg, frame, threads=2)
        # six (direction, restart) searches in two chunks, one child
        assert 1 + len(forked) == 2
        assert ran == [[0, 1, 0], [1, 0, 1]] and forked == [[1, 0, 1]]
        assert len(setups) == 2
        assert parallel.weights.tobytes() == serial.weights.tobytes()
        assert parallel.runs == serial.runs

    def test_real_fork_cloud_equals_serial(self, frame, monkeypatch):
        """Two workers, the caller and one forked child, whatever the CPU
        count of the host."""
        allow_cpus(monkeypatch, 2)
        directions = sphere_directions(3, seed=8)
        cfg = replace(self.CFG, restarts=2, budget_evals=200)
        serial = generate_cloud(directions, cfg, frame, threads=1)
        parallel = generate_cloud(directions, cfg, frame, threads=2)
        assert len(serial) > 150
        assert [(p.as_tuple(), p.source_tag) for p in parallel] == \
            [(p.as_tuple(), p.source_tag) for p in serial]


class TestForkFailures:
    """Failures with real forked children: the child's exception or its
    death reaches the caller, a failure in the caller's own chunk kills the
    children, and no child is left after any of them."""

    CFG = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=4, budget_evals=60,
                       master_seed=2)

    @pytest.fixture
    def in_child(self, monkeypatch):
        """Replaces the chunk runner by ``behave(chunk, child)``, ``child``
        telling a forked child from the caller; two workers."""
        caller = os.getpid()
        allow_cpus(monkeypatch, 2)

        def patch(behave):
            monkeypatch.setattr(engine, "_run_restarts",
                                lambda chunk: behave(chunk, os.getpid() != caller))
        yield patch
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_exception_reaches_the_caller(self, frame, in_child):
        run = engine._run_restarts

        def behave(chunk, child):
            if child:
                raise ValueError("restarts 2..3 cannot run")
            return run(chunk)
        in_child(behave)
        with pytest.raises(ValueError, match=r"^restarts 2\.\.3 cannot run$"):
            optimize_distribution(self.CFG, frame, threads=2)

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_caller_failure_kills_the_child(self, frame, in_child, error):
        def behave(chunk, child):
            if child:
                time.sleep(60)
            raise error("the caller's chunk failed")
        in_child(behave)
        start = time.monotonic()
        with pytest.raises(error, match="the caller's chunk failed"):
            optimize_distribution(self.CFG, frame, threads=2)
        assert time.monotonic() - start < 30

    def test_killed_child_gives_runtime_error(self, frame, in_child):
        run = engine._run_restarts

        def behave(chunk, child):
            if child:
                os.kill(os.getpid(), signal.SIGKILL)
            return run(chunk)
        in_child(behave)
        with pytest.raises(RuntimeError, match=r"worker \d+ ended without a result: "
                                               r"exit code -9"):
            generate_cloud([(0.0, 0.0, 1.0)], self.CFG, frame, threads=2)


class TestFailedFork:
    """A fork that fails (no process left) raises its OSError in the caller
    before any restart runs, and closes the pipe it made for the child."""

    def test_oserror_reaches_the_caller_and_the_pipe_is_closed(self, frame, monkeypatch):
        allow_cpus(monkeypatch, 2)
        pipes, ran = [], []
        pipe, run = os.pipe, engine._run_restarts
        monkeypatch.setattr(engine.os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
        monkeypatch.setattr(engine, "_run_restarts", lambda chunk: ran.append(chunk) or run(chunk))

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(engine.os, "fork", no_fork)
        with pytest.raises(BlockingIOError, match="Resource temporarily unavailable"):
            optimize_distribution(TestForkFailures.CFG, frame, threads=2)
        assert ran == [] and len(pipes) == 1
        for fd in pipes[0]:
            with pytest.raises(OSError):
                os.fstat(fd)


def hexed_points(points):
    return [(tuple(map(float.hex, p.as_tuple())), p.source_tag) for p in points]


class TestCloudContract:
    """A Cloud holds what the list of points built from per-evaluation weight
    tuples held, in the same order, and reads like that list."""

    CFG = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=2, budget_evals=150,
                       master_seed=21)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_equals_list_path(self, frame, monkeypatch, threads):
        """Serially and with two workers, the caller and a real forked child."""
        allow_cpus(monkeypatch, 2)
        directions = sphere_directions(3, seed=4)
        cloud = generate_cloud(directions, self.CFG, frame, threads=threads)
        assert isinstance(cloud, engine.Cloud)
        ref = cloud_by_lists(directions, self.CFG, frame)
        assert len(cloud) == len(ref) > 150
        assert hexed_points(cloud) == hexed_points(ref)
        assert [tag for tag, _ in cloud.runs] == list(dict.fromkeys(p.source_tag for p in ref))

    def test_read_only(self, frame):
        cloud = generate_cloud([(0.0, 0.0, 1.0)], self.CFG, frame)
        assert not cloud.weights.flags.writeable
        with pytest.raises(ValueError):
            cloud.weights[0, 0] = 1.0
        with pytest.raises(FrozenInstanceError):
            cloud.runs = ()
        assert not hasattr(cloud, "append")

    def test_constructor(self):
        cloud = engine.Cloud(np.arange(20.0).reshape(5, 4), (("a", 2), ("a", 1), ("c", 2)))
        assert len(cloud) == 5
        assert [p.source_tag for p in cloud] == ["a", "a", "a", "c", "c"]
        assert [p.as_tuple() for p in cloud][3] == (12.0, 13.0, 14.0, 15.0)
        assert len(engine.Cloud(np.empty((0, 4)), ())) == 0

    def test_a_restart_that_kept_no_row_gives_no_run(self, frame, monkeypatch):
        kept = engine._Collector.kept
        calls = iter(range(10))
        monkeypatch.setattr(engine._Collector, "kept",
                            lambda self: b"" if next(calls) % 2 else kept(self))
        cloud = generate_cloud(sphere_directions(2, seed=6), self.CFG, frame, threads=1)
        assert [tag[-2:] for tag, _ in cloud.runs] == ["r0", "r0"]
        assert sum(count for _, count in cloud.runs) == len(cloud) > 0

    def test_batched_sum_test_keeps_the_per_row_rows(self):
        """The collector's row sums add each row's weights as the per-row
        ``np.add.reduce`` does, so the 1e-9 test keeps the same rows; of
        those, it keeps the rows with no negative weight."""
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(20_000, 4)) * rng.uniform(0.0, 8.0, size=(20_000, 1))
        rows[:, 3] = 1.0 - rows[:, :3].sum(axis=1)
        rows[::2, 0] += rng.uniform(-2e-9, 2e-9, size=10_000)
        assert np.add.reduce(rows, axis=1).tobytes() == \
            np.array([np.add.reduce(row) for row in rows]).tobytes()
        collector = engine._Collector(len(rows) + 3)
        for row in rows:
            collector.append(row)
        kept = [row for row in rows
                if abs(float(np.add.reduce(row)) - 1.0) <= 1e-9 and min(row) >= 0.0]
        assert 0 < len(kept) < len(rows)
        assert collector.kept() == np.array(kept).tobytes()


class TestCloudMemoryBound:
    """A cloud whose points or merged outcomes could exceed their bounds is
    rejected before any search starts."""

    CFG = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=1, budget_evals=40)

    def test_point_bound_at_the_boundary(self):
        # 8 directions x 1 restart x (budget + 17) points x 80 B <= 1024 MiB
        assert (engine.MAX_CLOUD_MIB, engine.CLOUD_POINT_BYTES) == (1024, 80)
        most = 2**30 // (8 * 80) - 17
        engine._check_cloud_size(8, replace(self.CFG, budget_evals=most), False)
        with pytest.raises(ValueError, match="MAX_CLOUD_MIB = 1024 MiB"):
            engine._check_cloud_size(8, replace(self.CFG, budget_evals=most + 1), False)
        # optima only keeps one point per direction
        engine._check_cloud_size(8, replace(self.CFG, budget_evals=10**400), True)

    def test_default_cloud_passes(self):
        """The cloud command's defaults: 8 directions of SearchConfig()."""
        cfg = SearchConfig()
        assert 8 * cfg.restarts * (cfg.budget_evals + 256 + 1) == 10_371_584
        engine._check_cloud_size(8, cfg, False)

    def test_outcome_bound_counts_every_direction(self):
        cfg = replace(self.CFG, restarts=262_144)
        engine._check_cloud_size(2, cfg, True)
        with pytest.raises(ValueError, match="MAX_OUTCOME_MIB = 64 MiB"):
            engine._check_cloud_size(3, cfg, True)

    def test_generate_cloud_checks_first(self, frame, monkeypatch):
        def no_search(*args, **kwargs):
            pytest.fail("a search started on a cloud the bound should reject")
        monkeypatch.setattr(engine, "_run_all_restarts", no_search)
        with pytest.raises(ValueError, match="could hold 4,000,000,136 points"):
            generate_cloud([(0.0, 0.0, 1.0)] * 8, replace(self.CFG, budget_evals=5 * 10**8),
                           frame)

    @pytest.mark.parametrize("pooled", [False, True])
    def test_bytes_per_point_as_stated(self, frame, monkeypatch, pooled):
        """The peak memory of a cloud, over its points, stays within
        CLOUD_POINT_BYTES, serially and with half the outcomes read back from
        a real forked child."""
        allow_cpus(monkeypatch, 2)
        threads = 2 if pooled else 1
        directions = sphere_directions(3, seed=1)
        cfg = replace(self.CFG, restarts=2, budget_evals=2000)
        # fill the caches the search shares outside the traced window
        generate_cloud(directions[:1], replace(cfg, restarts=1, budget_evals=40), frame,
                       threads=threads)
        tracemalloc.start()
        try:
            cloud = generate_cloud(directions, cfg, frame, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cloud) > 6000
        assert peak / len(cloud) <= engine.CLOUD_POINT_BYTES


class TestNumpyScalarObjective:
    """An objective that returns np.float64, as alpha_in_direction does,
    gives a Python float and the reference search bit for bit."""

    BUDGETS = {16: (300, 3000), 256: (1500,)}

    @pytest.mark.parametrize("dim", sorted(BUDGETS))
    def test_matches_rank_reference(self, dim):
        x0 = np.random.default_rng(dim + 1).normal(size=dim)
        for name, fn in sorted(TIE_HEAVY.items()):
            def scalar(v, fn=fn):
                return np.float64(fn(v))
            assert type(scalar(x0)) is np.float64
            for budget in self.BUDGETS[dim]:
                ref = nelder_mead_by_rank(scalar, x0, budget)
                x, value, evals, converged = nelder_mead(scalar, x0, budget)
                assert type(value) is float
                assert value.hex() == float(ref[1]).hex(), (name, budget)
                assert x.tobytes() == ref[0].tobytes()
                assert (evals, converged) == (ref[2], ref[3])


class TestDirectionNormRange:
    """make_objective divides a direction by sqrt(d . d): a squared norm that
    underflows or overflows would lose the ray, so such directions are
    rejected up front."""

    @pytest.mark.parametrize("direction", [
        (1e-200, 0.0, 0.0),      # d . d underflows to 0
        (1e-160, 0.0, 0.0),      # d . d is subnormal
        (1e200, 0.0, 0.0),       # d . d overflows
        (1e154, 1e154, 1e154),   # each square is finite, the sum is not
    ])
    def test_rejected(self, direction):
        with pytest.raises(ValueError, match="squared norm is a normal double"):
            check_direction(direction)
        with pytest.raises(ValueError, match="squared norm is a normal double"):
            check_direction(list(direction))

    @pytest.mark.parametrize("direction", [(1e-150, 0.0, 0.0), (1e150, 0.0, 0.0),
                                           (0.0, -3e-154, 0.0)])
    def test_extreme_but_normal_accepted(self, direction):
        assert check_direction(direction) == direction

    def test_scaled_direction_gives_the_same_objective(self, frame, rng):
        """A direction accepted at an extreme scale evaluates like the unit one."""
        ev = DistributionObjective(frame, (2, 2, 2, 2))
        p = rng.dirichlet(np.ones(16))
        unit = ev.make_objective("alpha_in_direction", (1.0, 0.0, 0.0))(p)
        for scale in (1e-150, 1e150):
            d = check_direction((scale, 0.0, 0.0))
            assert ev.make_objective("alpha_in_direction", d)(p) == unit


class TestSearchConfigBooleanDirection:
    @pytest.mark.parametrize("direction", [[True, False, False], [1.0, 0.0, True]])
    def test_rejected(self, direction):
        """JSON true is not the number 1, as in alphabet_sizes."""
        assert_direction_moved({"objective": "raw_score", "direction": direction}, "3-vector")
