"""Scalar minimization, distribution search, determinism and clouds."""

import itertools
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from entropy_toolkit import (
    EXL_REFERENCE,
    IngletonFrame,
    SearchConfig,
    convex_hull_3d,
    cross_section_point,
    entropy_function,
    exl_closed_form,
    exl_distribution,
    four_atom_distribution,
    four_atom_score,
    generate_cloud,
    hull_contains,
    ingleton_score,
    minimize_scalar,
    optimize_distribution,
    sphere_directions,
    tight_part,
    vertex_seed_distributions,
)
from entropy_toolkit import GroundSet, delta_vec
from entropy_toolkit.frame import a_map, b_map
from entropy_toolkit.search import engine
from entropy_toolkit.search.engine import (
    MAX_ATOMS,
    DistributionObjective,
    nelder_mead,
    restart_seed,
)

from helpers import nelder_mead_by_lists, rand_distribution
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
        with pytest.raises(ValueError):
            SearchConfig(objective="alpha_in_direction")

    def test_json_roundtrip(self):
        cfg = SearchConfig(alphabet_sizes=(2, 3, 2, 2), restarts=3,
                           budget_evals=100, master_seed=7,
                           objective="alpha_in_direction",
                           direction=(1.0, 0.0, 0.5))
        assert SearchConfig.from_json(cfg.to_json()) == cfg


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
        assert np.max(np.abs(ev.weight_mat.sum(axis=0)
                             - ev.pipeline_rank_vec)) <= 1e-12

    def test_degenerate_scores_zero(self, frame):
        ev = DistributionObjective(frame, (2, 2, 2, 2))
        point_mass = np.zeros(16)
        point_mass[0] = 1.0
        h = ev.entropy_vector(point_mass)
        for objective in ("raw_score", "tight_score", "pipeline_score"):
            assert ev.score_from_entropy(h, objective) == 0.0
        assert ev.weights_from_entropy(h) is None


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
        assert r1.seed_trace == r2.seed_trace
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

    def test_seed_trace_derivation(self, frame):
        res = optimize_distribution(self.CFG, frame)
        assert res.seed_trace == tuple(restart_seed(11, r) for r in range(4))

    def test_init_mismatch_rejected(self, frame):
        from entropy_toolkit import exl_distribution
        with pytest.raises(ValueError):
            optimize_distribution(self.CFG, frame,
                                  init=exl_distribution(EXL_REFERENCE))


class TestCloud:
    CFG = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=2,
                       budget_evals=120, master_seed=9,
                       objective="pipeline_score")

    def test_cloud_emits_every_evaluation(self, frame):
        cloud = generate_cloud([(0.0, 0.0, 1.0)], self.CFG, frame)
        assert len(cloud) >= 200  # both restarts' evaluations
        for pt in cloud[::17]:
            assert pt.weight_sum == pytest.approx(1.0, abs=1e-9)

    def test_optima_only(self, frame):
        cloud = generate_cloud([(0.0, 0.0, 1.0), (0.0, 1.0, 0.0)],
                               self.CFG, frame, optima_only=True)
        assert len(cloud) == 2
        assert all(pt.source_tag.startswith("dir") for pt in cloud)

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

    def test_hull_of_cloud_contains_known_points(self, frame):
        ref_point, _ = cross_section_point(exl_closed_form(EXL_REFERENCE), frame)
        fa_point, _ = cross_section_point(
            entropy_function(four_atom_distribution(0.350457)), frame)
        cloud = generate_cloud(sphere_directions(3, seed=1), self.CFG, frame)
        seeds = vertex_seed_distributions(frame)
        for dist in seeds.values():
            cloud.append(cross_section_point(entropy_function(dist), frame)[0])
        cloud += [ref_point, fa_point]
        poly = convex_hull_3d([pt.as_tuple() for pt in cloud])
        assert hull_contains(poly, ref_point.as_tuple(), tol=1e-9)
        assert hull_contains(poly, fa_point.as_tuple(), tol=1e-9)

    def test_sphere_directions(self):
        dirs = sphere_directions(16, seed=3)
        assert dirs == sphere_directions(16, seed=3)
        for d in dirs:
            assert math.hypot(*d) == pytest.approx(1.0, abs=1e-12)

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
            assert np.array_equal(ev.stv_vec, stv)
            assert np.array_equal(ev.tight_rank_vec, tight)
            assert np.array_equal(ev.pipeline_rank_vec, pipe)
            assert np.array_equal(ev.weight_mat, weights)


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
        cfg = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=1, budget_evals=60,
                           master_seed=5)
        cloud = generate_cloud(sphere_directions(2, seed=5), cfg, frame, threads=1)
        assert len(cloud) == 120
        assert [[w.hex() for w in p.as_tuple()] for p in cloud[:3]] == [
            ["-0x1.c2f6b577730e1p+0", "0x1.115902ea9a5ccp-1",
             "0x1.6d595294e27a8p+0", "0x1.99e1c2da86cbbp-1"],
            ["-0x1.d8544598fd16cp+0", "0x1.1ad8b472c77b6p-1",
             "0x1.6a24a8ec573b8p+0", "0x1.c18684e6843bap-1"],
            ["-0x1.ca9136ee0cbacp+0", "0x1.192c42b444f74p-1",
             "0x1.6fd159c0d06c4p+0", "0x1.9c5377a633a54p-1"]]
        assert cloud[0].source_tag == "dir0(-0.25621,0.0925889,0.962177)/r0"

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


class TestSearchConfigCounts:
    @pytest.mark.parametrize("field", ["restarts", "budget_evals"])
    @pytest.mark.parametrize("value", [True, 2.5, 3.0, "4"])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match="positive integer"):
            SearchConfig(**{field: value})
        with pytest.raises(ValueError, match="positive integer"):
            SearchConfig.from_json({field: value})


class TestSearchConfigInputs:
    @pytest.mark.parametrize("kwargs, match", [
        ({"alphabet_sizes": (2.7, 2, 2, 2)}, "four integers"),
        ({"alphabet_sizes": (2, 2.0, 2, 2)}, "four integers"),
        ({"alphabet_sizes": (True, 2, 2, 2)}, "four integers"),
        ({"alphabet_sizes": ("2", 2, 2, 2)}, "four integers"),
        ({"master_seed": 2.5}, "master_seed"),
        ({"master_seed": "7"}, "master_seed"),
        ({"master_seed": True}, "master_seed"),
        ({"master_seed": -1}, "master_seed"),
        ({"objective": "alpha_in_direction", "direction": (math.nan, 0.0, 0.0)}, "finite"),
        ({"objective": "alpha_in_direction", "direction": (1.0, math.inf, 0.0)}, "finite"),
        ({"objective": "alpha_in_direction", "direction": (0.0, 0.0, -math.inf)}, "finite"),
    ])
    def test_rejected(self, kwargs, match):
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


class FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    requested: list = []

    def __init__(self, max_workers):
        FakePool.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestWorkerCap:
    CFG = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=8, budget_evals=40,
                       master_seed=3, objective="raw_score")

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(engine, "ProcessPoolExecutor", FakePool)
        FakePool.requested = []

    def test_argument_capped_at_cpu_count(self, frame):
        optimize_distribution(self.CFG, frame, threads=100_000)
        assert FakePool.requested == [3]

    def test_env_variable_capped_at_cpu_count(self, frame, monkeypatch):
        monkeypatch.setenv("ENTROPY_TOOLKIT_THREADS", "100000")
        optimize_distribution(self.CFG, frame)
        assert FakePool.requested == [3]

    def test_restarts_still_cap(self, frame):
        optimize_distribution(replace(self.CFG, restarts=2), frame, threads=100_000)
        assert FakePool.requested == [2]

    def test_unknown_cpu_count_runs_serially(self, frame, monkeypatch):
        monkeypatch.setattr(engine.os, "cpu_count", lambda: None)
        optimize_distribution(self.CFG, frame, threads=100_000)
        assert FakePool.requested == []


class TestSearchConfigWireFormat:
    BASE = {"alphabet_sizes": [2, 2, 2, 2], "restarts": 1, "budget_evals": 40}

    @pytest.mark.parametrize("doc, match", [
        ({"seeds": 3}, r"unknown config keys \['seeds'\]"),
        ({"alphabet_sizes": 4}, "four integers"),
        ({"alphabet_sizes": None}, "four integers"),
        ({"objective": "raw_score", "direction": [math.nan, 0.0, 0.0]}, "finite"),
        ({"objective": "pipeline_score", "direction": [1.0, 0.0]}, "3-vector"),
        ({"direction": 5}, "3-vector"),
        ({"direction": [None, 0.0, 1.0]}, "3-vector"),
        ({"direction": ["1", 0.0, 1.0]}, "3-vector"),
    ])
    def test_rejected(self, doc, match):
        with pytest.raises(ValueError, match=match):
            SearchConfig.from_json({**self.BASE, **doc})

    @pytest.mark.parametrize("doc", [[1, 2], "cfg", None])
    def test_non_object_document_rejected(self, doc):
        with pytest.raises(ValueError, match="malformed config document"):
            SearchConfig.from_json(doc)

    def test_direction_normalized_once(self):
        cfg = SearchConfig.from_json({**self.BASE, "objective": "raw_score",
                                      "direction": [1, 0, 2]})
        assert cfg.direction == (1.0, 0.0, 2.0)
        assert cfg.alphabet_sizes == (2, 2, 2, 2)
        assert SearchConfig.from_json(cfg.to_json()) == cfg


class TestRestartTasks:
    CFG = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=3, budget_evals=120,
                       master_seed=5, objective="alpha_in_direction",
                       direction=(0.2, 0.3, 0.5))

    def test_config_and_frame_pickle(self):
        frame = IngletonFrame(GroundSet("abcd"), "c", "a", "d", "b")
        for obj in (self.CFG, frame):
            back = pickle.loads(pickle.dumps(obj))
            assert back == obj and hash(back) == hash(obj)

    def test_pickled_tasks_give_serial_results(self, frame, monkeypatch):
        """A pool that pickles every task and outcome, as a process pool does,
        returns what the serial loop returns."""
        class PicklingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [pickle.loads(pickle.dumps(fn(pickle.loads(pickle.dumps(t)))))
                        for t in items]

        serial = engine._run_all_restarts(self.CFG, frame, None, True, threads=1)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(engine, "ProcessPoolExecutor", PicklingPool)
        pooled = engine._run_all_restarts(self.CFG, frame, None, True, threads=2)
        for (v1, p1, e1, c1, w1), (v2, p2, e2, c2, w2) in zip(serial, pooled, strict=True):
            assert (v1, e1, c1, w1) == (v2, e2, c2, w2)
            assert np.array_equal(p1, p2)
