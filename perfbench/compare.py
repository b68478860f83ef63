"""Summarize benchmark records and compare two sets of them.

``run.py --record FILE`` writes one record per run.  This script:

* ``summarize REC... -o OUT`` collects records into one file (per-run values
  plus median and quartiles per workload and metric), as in
  ``perfbench/baseline.json``;
* ``diff BASE NEW`` compares two record sets (record files or summaries,
  ``BASE`` and ``NEW`` may each be given several times).  It refuses when the
  machine context differs (CPU count and model, Python, numpy, scipy, run
  length) or when the two sides ran different seeds, and prints, per
  workload present on both sides and end-to-end metric, both medians and a
  verdict: ``improved`` when the new side wins at least nine tenths of the
  seed-matched pairs and the medians differ by more than the base's quartile
  distance, ``regressed`` when the new median is worse by more than the
  metric's bound in ``BENCHMARK.json``, ``unresolved`` when the base's own
  spread exceeds the bound, and ``no change`` otherwise.

Exit codes: 0 done, 1 a metric regressed, 2 refused or bad input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: context keys that must agree before two records may be compared
MACHINE_KEYS = ("nproc", "cpu_model", "python", "numpy", "scipy", "seconds")


def load_records(paths) -> list[dict]:
    """Flatten record files and summaries into a list of run records."""
    records = []
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        if "runs" in doc:
            records.extend(doc["runs"])
        else:
            ctx = doc["context"]
            records.append({
                "context": ctx,
                "workload": ctx["workload"],
                "seed": ctx["seed"],
                "trace": doc["trace"],
                "correct": doc["result"]["correct"],
                "metrics": {k: v["value"] for k, v in doc["result"]["metrics"].items()},
            })
    return records


def machine(record) -> dict:
    return {k: record["context"].get(k) for k in MACHINE_KEYS}


def common_machine(records, what: str) -> dict:
    contexts = {json.dumps(machine(r), sort_keys=True) for r in records}
    if len(contexts) != 1:
        refuse(f"{what} records come from different machine contexts: "
               f"{sorted(contexts)}")
    return machine(records[0])


def refuse(message: str) -> None:
    print(f"compare: refused: {message}", file=sys.stderr)
    sys.exit(2)


def grouped(records) -> dict:
    """{(workload, trace): {metric: {seed: value}}}"""
    out: dict = {}
    for r in records:
        metrics = out.setdefault((r["workload"], r["trace"]), {})
        for name, value in r["metrics"].items():
            metrics.setdefault(name, {})[r["seed"]] = value
    return out


def spread(values) -> dict:
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    med = statistics.median(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / abs(med) if med else None}


def summarize(args) -> int:
    records = load_records(args.records)
    if not records:
        refuse("no records")
    summary = {
        "machine": common_machine(records, "input"),
        "source_sha256": sorted({r["context"].get("source_sha256") for r in records}),
        "git_commit": sorted({r["context"].get("git_commit") for r in records}),
        "all_correct": all(r["correct"] for r in records),
        "summary": {f"{w}/trace{t}": {name: spread(by_seed.values())
                                      for name, by_seed in metrics.items()}
                    for (w, t), metrics in sorted(grouped(records).items())},
        "runs": records,
    }
    with open(args.output, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(base)
    wins = sum(sign * (new[s] - base[s]) > 0 for s in seeds)
    b, n = spread(base.values()), spread(new.values())
    change = sign * (n["median"] - b["median"])
    if change < -bound * abs(b["median"]):
        return "regressed"
    if wins >= 0.9 * len(seeds) and change > b["q3"] - b["q1"]:
        return "improved"
    if (b["iqr_over_median"] or 0.0) > bound:
        return "unresolved"
    return "no change"


def diff(args) -> int:
    base, new = load_records(args.base), load_records(args.new)
    if not base or not new:
        refuse("both sides need records")
    if common_machine(base, "base") != common_machine(new, "new"):
        refuse("base and new records come from different machine contexts")
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in definition["end_to_end"]}
    gb, gn = grouped(base), grouped(new)
    shared = sorted(k for k in set(gb) & set(gn) if k[1] == 0)
    if not shared:
        refuse("no untraced workload has records on both sides")
    regressed = False
    for key in shared:
        for name, spec in bounds.items():
            b, n = gb[key].get(name, {}), gn[key].get(name, {})
            if sorted(b) != sorted(n):
                refuse(f"{key[0]} {name}: seeds differ, base {sorted(b)} new {sorted(n)}")
            v = verdict(b, n, spec["better"], spec["bound"])
            regressed |= v == "regressed"
            print(f"{key[0]:20s} {name:12s} base {spread(b.values())['median']:.6g} "
                  f"new {spread(n.values())['median']:.6g} {spec['unit']:5s} {v}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("summarize")
    p.add_argument("records", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=summarize)
    p = sub.add_parser("diff")
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    p.set_defaults(fn=diff)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
