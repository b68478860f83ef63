"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload minimize_binary --seed 1 --seconds 20 --trace 0

The workloads, metrics and bounds are defined in ``BENCHMARK.json``; the
seeds and what each per-layer metric should move are in
``perfbench/spec.json``.  The library is imported from ``src/`` of the
checkout and is never modified.

A run first builds the workload, runs one untimed warm-up unit and the
determinism gate, then repeats units until ``--seconds`` have passed (at
least MIN_UNITS), and reports medians over units.

* ``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median of
  SETUP_PROBES cold set-ups, each in a fresh interpreter.
* ``--trace 1`` alternates untraced units with traced ones (spans around every
  layer, see ``spans.py``; searches traced with one worker) and reports the
  per-layer metrics plus the tracing overhead.  Spans are saved to
  ``.perfbench/spans-<workload>.npz``.

Every unit is checked by the correctness gates in ``workloads.py``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric by name and unit, the machine context and any gate failures.
``--record FILE`` also writes the full record (context, metrics, gate
messages) as JSON for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference
import spans

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"

MIN_UNITS = 3
#: reference kernel time on each side of a unit, as a share of the unit's time
REF_SHARE = 0.05
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full record as JSON")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_definition() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not (SRC / "entropy_toolkit" / "__init__.py").is_file():
        fail(f"no library sources under {SRC}; run from the root of a checkout")
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "entropy_toolkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_context(args, np, scipy) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        # recorded only: every workload passes its worker count explicitly
        "ENTROPY_TOOLKIT_THREADS": os.environ.get("ENTROPY_TOOLKIT_THREADS"),
    }


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """Cold set-up times, each in a fresh interpreter, with the reference
    kernel time measured right after each."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                              workload, str(seed)], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                             check=True)
        setup, ref = out.stdout.split()
        times.append((float(setup), float(ref)))
    return times


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child (MiB)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class Runner:
    """Runs units of one workload, timing them and applying the gates.

    Every unit does the same work, so the deterministic counts of each unit
    must equal those of the first.
    """

    def __init__(self, w, gates, engine, bound):
        self.w = w
        self.gates = gates
        self.engine = engine
        self.bound = bound
        self.units = 0
        self.first_counts = {}

    def unit(self, threads: int, tracer=None) -> tuple[float | None, dict]:
        """One unit: its wall seconds (None if it raised) and its counts."""
        if tracer is None:
            tr = spans.NullTracer
            counts = spans.Counts()
            ctx = spans.count_nelder_mead(self.engine, counts)
        else:
            tr = tracer
            tracer.begin_unit(self.units)
            ctx = spans.instrument_engine(self.engine, tracer, self.bound)
        self.units += 1
        try:
            with ctx:
                start = time.perf_counter()
                output = self.w.run(tr, threads)
                wall = time.perf_counter() - start
        except Exception:
            self.gates.check("unit completes", False, traceback.format_exc(limit=3))
            return None, {}
        counts = tracer.counts if tracer is not None else counts
        facts = self.w.check(output, counts, self.gates)
        # traced units also count the span-level events (objective calls,
        # evaluations to the bound), so compare them with traced units only
        key = tracer is not None
        if tracer is not None:
            facts = {**counts, **facts}
        first = self.first_counts.setdefault(key, facts)
        if first is not facts:
            self.gates.check("repeated unit gives the same counts", facts == first,
                             f"{facts} vs {first}")
        return wall, facts


def measure(args):
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import entropy_toolkit
    import workloads

    if Path(entropy_toolkit.__file__).resolve().parent != (SRC / "entropy_toolkit").resolve():
        fail(f"entropy_toolkit imported from {entropy_toolkit.__file__}, not {SRC}")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    context = machine_context(args, np, scipy)
    gates = workloads.Gates()
    w = workloads.WORKLOADS[args.workload](args.seed)
    bound = workloads.FOUR_ATOM_BOUND if isinstance(w, workloads.Minimize) else None
    runner = Runner(w, gates, workloads.engine, bound)
    workdir = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        w.prepare(str(workdir))
        # warm-up, then the determinism gate against a serial run
        warmup_wall, _ = runner.unit(w.threads)
        if warmup_wall is None:
            fail("the warm-up unit raised: " + "; ".join(gates.messages))
        if w.threads > 1:
            serial = w.run(spans.NullTracer, 1)
            gates.check(f"{w.threads}-worker search equals the serial search",
                        workloads.same_search(serial, w.reference))
        if args.trace:
            metrics, extra = traced_metrics(args, runner, w)
        else:
            metrics, extra = end_to_end_metrics(args, runner, warmup_wall)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return context, metrics, extra, gates


def timed_loop(args, step) -> None:
    deadline = time.perf_counter() + args.seconds
    done = 0
    while done < MIN_UNITS or time.perf_counter() < deadline:
        step()
        done += 1


def end_to_end_metrics(args, runner, warmup_wall) -> tuple[dict, dict]:
    """Medians over units of reference-normalized times (see reference.py).

    The reference kernel runs before and after every unit, on as many cores
    as the workload uses, for about REF_SHARE of the unit's time on each
    side; the unit's time is scaled by NOMINAL_S over their mean.
    """
    walls, refs, ops = [], [], []
    last = {}
    ref = reference.Reference(runner.w.threads)
    calls = max(1, round(REF_SHARE * warmup_wall / reference.NOMINAL_S))

    def step():
        nonlocal last
        before = ref.measure(calls)
        wall, facts = runner.unit(runner.w.threads)
        after = ref.measure(calls)
        if wall is not None:
            walls.append(wall)
            refs.append(0.5 * (before + after))
            ops.append(facts["ops"])
            last = facts

    try:
        timed_loop(args, step)
    finally:
        ref.close()
    if not walls:
        fail("every unit raised; see the gate failures above")
    rss = peak_rss_mb()
    setups = setup_seconds(args.workload, args.seed)
    scale = [reference.NOMINAL_S / r for r in refs]
    metrics = {
        "setup_s": statistics.median(t * reference.NOMINAL_S / r for t, r in setups),
        "wall_s": statistics.median(w * c for w, c in zip(walls, scale)),
        "ops_per_s": statistics.median(n / (w * c) for n, w, c in zip(ops, walls, scale)),
        "peak_rss_mb": rss,
    }
    extra = {"units": len(walls), "raw_wall_median_s": statistics.median(walls),
             "raw_setup_median_s": statistics.median(t for t, _ in setups),
             "wall_samples_s": walls, "ref_samples_s": refs, "setup_samples_s": setups,
             "evals_per_s" if "evals" in last else "inputs_per_s": metrics["ops_per_s"]}
    for key in ("best_score", "hull_volume"):
        if key in last:
            extra[key] = last[key]
    return metrics, extra


def traced_metrics(args, runner, w) -> tuple[dict, dict]:
    """Per-layer metrics from traced units; walls from the untraced ones.

    A multi-worker workload also runs an untraced serial unit per cycle: the
    pool efficiency is serial wall over workers times parallel wall, and the
    tracing overhead compares traced units with serial untraced ones, since
    traced units run with one worker.
    """
    tracer = spans.Tracer()
    untraced, serial, traced = [], [], []
    counts = {}

    def step():
        nonlocal counts
        untraced.append(runner.unit(w.threads)[0])
        if w.threads > 1:
            serial.append(runner.unit(1)[0])
        wall, counts = runner.unit(1, tracer)
        traced.append(wall)

    timed_loop(args, step)
    if None in untraced + serial + traced:
        fail("a unit raised; see the gate failures above")
    tracer.save(ROOT / ".perfbench" / f"spans-{args.workload}.npz")
    s = tracer.summary()
    n_traced = len(traced)

    def p50(name, scale=1.0):
        return s[name]["p50_us"] * scale if name in s else 0.0

    def per_unit(name):
        return s[name]["calls"] / n_traced if name in s else 0.0

    def ratio(num, den):
        return counts[num] / counts[den] if counts.get(den) else 0.0

    nm = s.get("engine.nelder_mead")
    ev = s.get("engine.entropy_vector")
    setup = s.get("engine.objective_setup")
    metrics = {
        "engine.nelder_mead.self_us_per_eval":
            nm["self_us"] / (counts["evals"] * n_traced) if nm else 0.0,
        "engine.nelder_mead.evals": counts.get("evals", 0),
        "engine.nelder_mead.converged_frac": ratio("converged", "restarts"),
        "engine.evals_to_bound": counts.get("evals_to_bound", 0),
        "engine.entropy_vector.us_p50": p50("engine.entropy_vector"),
        "engine.entropy_vector.us_p99": ev["p99_us"] if ev else 0.0,
        "engine.entropy_vector.calls": per_unit("engine.entropy_vector"),
        "engine.entropy_vector.bytes_per_call":
            entropy_vector_bytes(w.cfg.alphabet_sizes) if ev else 0,
        "engine.softmax.us_p50": p50("engine.softmax"),
        "engine.score_from_entropy.us_p50": p50("engine.score_from_entropy"),
        "engine.weights_from_entropy.us_p50": p50("engine.weights_from_entropy"),
        "engine.objective_setup.us_per_call":
            setup["total_us"] / setup["calls"] if setup else 0.0,
        "engine.objective_setup.calls": per_unit("engine.objective_setup"),
        "engine.pool.efficiency":
            statistics.median(serial) / (w.threads * statistics.median(untraced))
            if serial else 0.0,
        "engine.collector.points": counts.get("points", 0),
        "engine.collector.kept_frac": ratio("points", "evals") if "points" in counts else 0.0,
        "engine.collector.outside_frac": ratio("points_outside", "points"),
        "engine.best_score": counts.get("best_score", 0.0),
        "geometry.convex_hull_3d.s": p50("geometry.convex_hull_3d", 1e-6),
        "geometry.convex_hull_3d.input_points": counts.get("points", 0),
        "geometry.convex_hull_3d.vertices": counts.get("hull_vertices", 0),
        "geometry.hull_volume": counts.get("hull_volume", 0.0),
        "geometry.outer_region.s": p50("geometry.outer_region", 1e-6),
        "inequalities.check_point.us_p50": p50("inequalities.check_point"),
        "entropy.from_dense.us_p50": p50("entropy.from_dense"),
        "entropy.entropy_function.a2.us_p50": p50("entropy.entropy_function.a2"),
        "entropy.entropy_function.a3.us_p50": p50("entropy.entropy_function.a3"),
        "entropy.entropy_function.a4.us_p50": p50("entropy.entropy_function.a4"),
        "core.check_axioms.n4.us_p50": p50("core.check_axioms.n4"),
        "core.check_axioms.n8.us_p50": p50("core.check_axioms.n8"),
        "core.tight_part.us_p50": p50("core.tight_part"),
        "core.tight_part.n8.us_p50": p50("core.tight_part.n8"),
        "core.convolution.n8.us_p50": p50("core.convolution.n8"),
        "core.convolve_modular_iterative.n8.us_p50":
            p50("core.convolve_modular_iterative.n8"),
        "frame.cross_section_point.us_p50": p50("frame.cross_section_point"),
        "frame.cross_section_point.degenerate_frac": ratio("degenerate", "cross_sections"),
        "frame.ingleton_score.us_p50": p50("frame.ingleton_score"),
        "cli.main.entropy.ms_p50": p50("cli.main.entropy", 1e-3),
        "cli.main.score.ms_p50": p50("cli.main.score", 1e-3),
        "cli.main.check.ms_p50": p50("cli.main.check", 1e-3),
        "cli.main.failed": counts.get("cli_failed", 0),
        "trace.overhead_frac":
            statistics.median(traced) / statistics.median(serial or untraced) - 1.0,
    }
    extra = {"traced_units": n_traced, "untraced_units": len(untraced),
             "span_summary": s}
    return metrics, extra


def entropy_vector_bytes(sizes) -> int:
    """Computed bytes one entropy_vector call reads and writes, once each.

    With n atoms and m marginal cells: the tiled weights (15n doubles,
    written and read), the flat indices (15n), p (n); masses, contributions
    and the masked log (about 4m doubles) and three boolean masks (3m bytes).
    Caches are ignored.
    """
    n = math.prod(sizes)
    m = math.prod(s + 1 for s in sizes) - 1
    return 8 * (3 * 15 * n + n + 4 * m) + 3 * m


def report(definition, args, context, metrics, extra, gates) -> dict:
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in definition[kind]}
    missing = set(declared) - set(metrics)
    unexpected = set(metrics) - set(declared)
    if missing or unexpected:
        fail(f"metric set differs from BENCHMARK.json {kind}: missing "
             f"{sorted(missing)}, unexpected {sorted(unexpected)}")
    failed_frac = gates.failed / gates.attempted if gates.attempted else 1.0
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("context " + json.dumps(context, sort_keys=True))
    for name, unit in declared.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")
    for key, value in extra.items():
        if isinstance(value, (int, float)):
            print(f"info {key} = {value!r}")
    for name, t in sorted(extra.get("span_summary", {}).items()):
        tail = f" {t['tail']}_us={t['tail_us']:.6g}" if "tail" in t else ""
        print(f"span {name} calls={t['calls']} p50_us={t['p50_us']:.6g}{tail} "
              f"self_us={t['self_us']:.6g}")
    print(f"gates attempted={gates.attempted} failed={gates.failed} "
          f"failed_frac={failed_frac!r}")
    for message in gates.messages:
        print(f"gate failure: {message}")
    return {
        "correct": gates.failed == 0 and gates.attempted > 0,
        "attempted": max(gates.attempted, 1),
        "failed": gates.failed if gates.attempted else 1,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in declared.items()},
    }


def wait_for_children() -> None:
    """Wait until every worker process this run started has ended."""
    for child in multiprocessing.active_children():
        child.join()


def main(argv=None) -> int:
    args = parse_args(argv)
    definition = load_definition()
    try:
        context, metrics, extra, gates = measure(args)
    finally:
        wait_for_children()
    result = report(definition, args, context, metrics, extra, gates)
    if args.record:
        with open(args.record, "w") as fh:
            json.dump({"context": context, "trace": args.trace, "result": result,
                       "extra": extra, "gate_messages": gates.messages}, fh, indent=1)
            fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
