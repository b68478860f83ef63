"""The benchmark's four workloads and their correctness gates.

A workload is built from a seed; building it is the set-up that ``setup_s``
times.  Its unit is the work one timing sample measures, the same work in
every unit of a run: ``run`` does it through the library's public functions
and ``check`` applies the correctness gates to the output (untimed) and
returns the unit's deterministic counts, which must repeat exactly.
``prepare`` writes any input files before the first unit.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field

import numpy as np

import entropy_toolkit as et
from entropy_toolkit import cli
from entropy_toolkit.search import engine

#: the four-atom Ingleton bound the paper's searches aim below
FOUR_ATOM_BOUND = -0.089373

#: tolerance for comparing a search's value with its compositional re-derivation
REDERIVE_TOL = 1e-9
#: tolerance at which section points must satisfy the halfspace bank
BANK_TOL = 1e-7
#: DFZ members in the halfspace bank (s = 1..BANK_MAX_S)
BANK_MAX_S = 20


@dataclass
class Gates:
    """Correctness checks made during a run, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        return self.check_many(name, 1, 0 if ok else 1, detail)

    def check_many(self, name: str, total: int, bad: int, detail: str = "") -> bool:
        self.attempted += total
        self.failed += bad
        if bad and len(self.messages) < 20:
            self.messages.append(f"{name}: {bad} of {total} failed {detail}".rstrip())
        return not bad


def in_tetrahedron(weights) -> bool:
    """All four weights nonnegative.  The bank bounds the cross-section, so
    only such points must satisfy it; points of inputs that satisfy the
    Ingleton inequality have a negative weight and lie outside."""
    return min(weights) >= 0.0


def _frame():
    return et.IngletonFrame.default(et.GroundSet("ijkl"))


class Minimize:
    """``optimize_distribution`` with the pipeline score on one alphabet."""

    name = ""

    def __init__(self, seed: int, sizes, restarts: int, budget: int, threads: int):
        self.seed = seed
        self.threads = threads
        self.frame = _frame()
        self.cfg = et.SearchConfig(alphabet_sizes=sizes, restarts=restarts,
                                   budget_evals=budget, master_seed=seed,
                                   objective="pipeline_score")
        self.objective = engine.DistributionObjective(self.frame, sizes)
        self.reference = None

    def prepare(self, workdir):
        pass

    def run(self, tr, threads: int):
        return tr.call("engine.optimize_distribution", et.optimize_distribution,
                       self.cfg, self.frame, threads=threads)

    def check(self, result, counts, gates: Gates) -> dict:
        # the reported value must come back from the reported distribution,
        # through the engine's objective exactly and the compositional path
        # (tight part, b_map, a_map, score) to REDERIVE_TOL
        p = result.best_distribution.as_dense()
        h = self.objective.entropy_vector(p)
        vectorized = self.objective.score_from_entropy(h, self.cfg.objective)
        gates.check("best_value reproduces through the objective",
                    vectorized == result.best_value,
                    f"{vectorized!r} != {result.best_value!r}")
        f = et.entropy_function(result.best_distribution)
        g = et.a_map(et.b_map(et.tight_part(f), self.frame), self.frame)
        composed = et.ingleton_score(g, self.frame)
        gates.check("best_value re-derives through the compositional path",
                    abs(composed - result.best_value) <= REDERIVE_TOL,
                    f"{composed!r} vs {result.best_value!r}")
        point = result.best_point
        gates.check("best_point alpha is -4 best_value",
                    point is not None
                    and abs(point.alpha_w + 4.0 * result.best_value) <= REDERIVE_TOL)
        if self.reference is None:
            self.reference = result
        else:
            gates.check("repeated search is bit-identical",
                        same_search(result, self.reference))
        return {"ops": result.eval_count, "evals": result.eval_count,
                "best_score": result.best_value}


def same_search(a, b) -> bool:
    """Bit-identical best value, best distribution and evaluation count."""
    return (a.best_value == b.best_value and a.eval_count == b.eval_count
            and np.array_equal(a.best_distribution.as_dense(),
                               b.best_distribution.as_dense()))


class MinimizeBinary(Minimize):
    name = "minimize_binary"

    def __init__(self, seed: int):
        super().__init__(seed, (2, 2, 2, 2), restarts=16, budget=400, threads=2)


class MinimizeQuaternary(Minimize):
    name = "minimize_quaternary"

    def __init__(self, seed: int):
        super().__init__(seed, (4, 4, 4, 4), restarts=1, budget=2000, threads=1)


class CloudHull:
    """Cloud from alpha-in-direction searches, hull, outer region, point checks."""

    name = "cloud_hull"
    threads = 1
    #: search directions, restarts per direction and evaluations per restart
    DIRECTIONS = 8
    RESTARTS = 2
    BUDGET = 400

    def __init__(self, seed: int):
        self.seed = seed
        self.frame = _frame()
        self.bank = et.default_halfspace_bank(BANK_MAX_S)
        self.directions = et.sphere_directions(self.DIRECTIONS, seed=seed)
        self.cfg = et.SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=self.RESTARTS,
                                   budget_evals=self.BUDGET, master_seed=seed)

    def prepare(self, workdir):
        pass

    def run(self, tr, threads: int):
        points = tr.call("engine.generate_cloud", et.generate_cloud,
                         self.directions, self.cfg, self.frame, threads=threads)
        weights = [p.as_tuple() for p in points]
        poly = tr.call("geometry.convex_hull_3d", et.convex_hull_3d, weights)
        volume = tr.call("geometry.hull_volume", et.hull_volume, poly)
        region = tr.call("geometry.outer_region", et.outer_region, self.bank)
        reports = [tr.call("inequalities.check_point", et.check_point, w, self.bank,
                           BANK_TOL) for w in weights]
        return points, poly, volume, region, reports

    def check(self, output, counts, gates: Gates) -> dict:
        points, poly, volume, region, reports = output
        sums = np.array([p.weight_sum for p in points])
        gates.check_many("cloud points sum to 1", len(points),
                         int(np.sum(np.abs(sums - 1.0) > 1e-9)))
        inside = [r for p, r in zip(points, reports) if in_tetrahedron(p.as_tuple())]
        gates.check_many("cloud points in the tetrahedron satisfy the bank",
                         len(inside), sum(not r.all_satisfied for r in inside))
        gates.check("hull is full-dimensional", poly.dim == 3 and volume > 0.0)
        gates.check("outer region is full-dimensional", region.dim == 3)
        return {"ops": counts["evals"], "evals": counts["evals"],
                "points": len(points), "points_outside": len(points) - len(inside),
                "hull_vertices": len(poly.vertices), "hull_volume": volume}


@dataclass
class Item:
    kind: str
    dense: np.ndarray | None = None
    sizes: tuple = ()
    params: object = None
    f8: object = None
    g8: object = None
    csv_path: str = ""


class Certify:
    """Compositional path over a seeded batch of inputs, without search."""

    name = "certify"
    threads = 1
    #: distributions per alphabet, exl parameter points, n=8 polymatroids and
    #: CLI runs per batch
    PER_ALPHABET = 4
    EXL = 2
    POLY8 = 2
    CLI = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.frame = _frame()
        self.ground8 = et.GroundSet("abcdefgh")
        self.bank = et.default_halfspace_bank(BANK_MAX_S)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xCE47)))
        items = []
        for a in (2, 3, 4):
            sizes = (a, a, a, a)
            for _ in range(self.PER_ALPHABET):
                items.append(Item("dist", dense=random_dense(rng, sizes), sizes=sizes))
        for _ in range(self.EXL):
            items.append(Item("exl", params=random_exl(rng)))
        for _ in range(self.POLY8):
            items.append(Item("poly8", f8=random_polymatroid(rng, self.ground8),
                              g8=et.modular_from(self.ground8,
                                                 list(rng.uniform(0.0, 2.0, 8)))))
        dists = items[:3 * self.PER_ALPHABET]
        for c in range(self.CLI):
            source = dists[c * len(dists) // self.CLI]
            items.append(Item("cli", dense=source.dense, sizes=source.sizes))
        self.items = items

    def prepare(self, workdir):
        """Write the distribution files the CLI items read."""
        for c, item in enumerate(i for i in self.items if i.kind == "cli"):
            item.csv_path = os.path.join(workdir, f"dist{c}.csv")
            d = et.JointDistribution.from_dense(self.frame.ground, item.sizes,
                                                item.dense)
            et.save_distribution(d, item.csv_path)

    def run(self, tr, threads: int):
        return [(item, getattr(self, "_run_" + item.kind)(item, tr))
                for item in self.items]

    def _section(self, f, tr):
        tr.call("frame.ingleton_score", et.ingleton_score, f, self.frame)
        tr.call("core.tight_part", et.tight_part, f)
        try:
            point, _ = tr.call("frame.cross_section_point", et.cross_section_point,
                               f, self.frame)
        except ValueError:
            return None, None
        report = tr.call("inequalities.check_point", et.check_point, point,
                         self.bank, BANK_TOL)
        return point, report

    def _distribution_path(self, sizes, dense, tr):
        d = tr.call("entropy.from_dense", et.JointDistribution.from_dense,
                    self.frame.ground, sizes, dense)
        f = tr.call(f"entropy.entropy_function.a{sizes[0]}", et.entropy_function, d)
        axioms = tr.call("core.check_axioms.n4", et.check_axioms, f, et.TOL_ENTROPIC)
        return f, axioms, self._section(f, tr)

    def _run_dist(self, item, tr):
        return self._distribution_path(item.sizes, item.dense, tr)

    def _run_exl(self, item, tr):
        dense = et.exl_distribution(item.params, self.frame.ground).as_dense()
        return self._distribution_path((4, 4, 4, 4), dense, tr)

    def _run_poly8(self, item, tr):
        axioms = tr.call("core.check_axioms.n8", et.check_axioms, item.f8)
        conv = tr.call("core.convolution.n8", et.convolution, item.f8, item.g8)
        iterative = tr.call("core.convolve_modular_iterative.n8",
                            et.convolve_modular_iterative, item.f8, item.g8)
        tr.call("core.tight_part.n8", et.tight_part, item.f8)
        return axioms, conv, iterative

    def _run_cli(self, item, tr):
        out = item.csv_path[:-4] + ".json"
        runs = []
        for argv in (["entropy", item.csv_path, "-o", out], ["score", out],
                     ["check", out, "--tol", repr(et.TOL_ENTROPIC)]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = tr.call(f"cli.main.{argv[0]}", cli.main, argv)
            runs.append((code, buf.getvalue()))
        return runs, out

    def check(self, outputs, counts, gates: Gates) -> dict:
        facts = {"ops": len(outputs), "cross_sections": 0, "degenerate": 0,
                 "cli_failed": 0}
        for item, out in outputs:
            getattr(self, "_check_" + item.kind)(item, out, gates, facts)
        return facts

    def _check_section(self, f, axioms, section, gates, facts):
        gates.check("entropic input passes the axioms", axioms.is_polymatroid)
        point, report = section
        facts["cross_sections"] += 1
        if point is None:
            facts["degenerate"] += 1
            return
        gates.check("section point sums to 1", abs(point.weight_sum - 1.0) <= 1e-9)
        if in_tetrahedron(point.as_tuple()):
            gates.check("section point in the tetrahedron satisfies the bank",
                        report.all_satisfied, str(report.violated))

    def _check_dist(self, item, out, gates, facts):
        self._check_section(*out, gates, facts)

    def _check_exl(self, item, out, gates, facts):
        f = out[0]
        closed = et.exl_closed_form(item.params, self.frame.ground)
        dev = float(np.max(np.abs(closed.values - f.values)))
        gates.check("exl closed form matches the table entropy", dev <= 1e-12,
                    f"deviation {dev:.3g}")
        self._check_section(*out, gates, facts)

    def _check_poly8(self, item, out, gates, facts):
        axioms, conv, iterative = out
        gates.check("n=8 input is a polymatroid", axioms.is_polymatroid)
        dev = float(np.max(np.abs(conv.values - iterative.values)))
        gates.check("convolution equals the iterative convolution", dev <= 1e-12,
                    f"deviation {dev:.3g}")

    def _check_cli(self, item, out, gates, facts):
        runs, h_path = out
        d = et.JointDistribution.from_dense(self.frame.ground, item.sizes, item.dense)
        f = et.entropy_function(d)
        ok = gates.check("CLI runs exit 0", all(code == 0 for code, _ in runs),
                         str([c for c, _ in runs]))
        if ok:
            written = et.load_set_function(h_path)
            ok = gates.check("CLI entropy file round-trips",
                             np.array_equal(written.values, f.values))
            want = "I(f)        = " + cli._fmt(et.ingleton_score(f, self.frame))
            ok = gates.check("CLI score matches the library",
                             want in runs[1][1].splitlines()) and ok
            ok = gates.check("CLI check accepts the entropy function",
                             "polymatroid: yes" in runs[2][1]) and ok
        facts["cli_failed"] += int(not ok)


def random_dense(rng, sizes) -> np.ndarray:
    """Dirichlet draw on the product alphabet with about a third of the cells
    set to zero, the kind of sparse point a search ends at."""
    n = int(np.prod(sizes))
    p = rng.dirichlet(np.full(n, 0.5))
    p[rng.random(n) < 1.0 / 3.0] = 0.0
    if not p.any():
        p[0] = 1.0
    return p / p.sum()


def random_exl(rng):
    """Column weights near the reference point, rescaled to sum to 1/8."""
    ref = np.array(et.EXL_REFERENCE.as_tuple())
    w = ref * rng.uniform(0.8, 1.2, 5)
    w *= 0.125 / w.sum()
    w[-1] = 0.125 - w[:-1].sum()
    return et.ExLParams(*w)


def random_polymatroid(rng, ground):
    """Conic combination of uniform-up-to-loops matroid ranks plus a modular part."""
    vals = np.zeros(ground.size)
    for _ in range(int(rng.integers(2, 6))):
        loops = int(rng.integers(0, ground.size))
        free = ground.n - bin(loops).count("1")
        if free == 0:
            continue
        m = int(rng.integers(1, free + 1))
        vals += rng.uniform(0.1, 1.0) * et.matroid_rank(ground, m, loops).values
    vals += et.modular_from(ground, list(rng.uniform(0.0, 0.5, ground.n))).values
    return et.SetFunction(ground, vals)


WORKLOADS = {w.name: w for w in (MinimizeBinary, MinimizeQuaternary, CloudHull, Certify)}
