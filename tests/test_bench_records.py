"""Schema of the committed performance records, BENCH_<workload>.json.

Each file holds the entries of the changes that claimed or ruled out a
speed-up on one benchmark workload: the parent commit and source digests,
the seeds and machine context, and per seed and end-to-end metric the
parent's and the change's median and quartiles, the pairs won and the
verdict of perfbench/compare.py's rule, which this test recomputes."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
CONTEXT = {"nproc", "cpu_model", "python", "numpy", "scipy", "seconds"}
FILES = sorted(ROOT.glob("BENCH_*.json"))


def verdict(metric: dict, pairs: int, bound: float, better: str) -> str:
    """compare.py's rule on the recorded medians, quartiles and pairs won."""
    sign = 1.0 if better == "higher" else -1.0
    base, new = metric["parent"], metric["change"]
    change = sign * (new["median"] - base["median"])
    spread = base["q3"] - base["q1"]
    if change < -bound * abs(base["median"]):
        return "regressed"
    if metric["pairs_won"] >= 0.9 * pairs and change > spread:
        return "improved"
    if base["median"] and spread / abs(base["median"]) > bound:
        return "unresolved"
    return "no change"


def test_certify_record_exists():
    assert ROOT / "BENCH_certify.json" in FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_schema(path):
    doc = json.loads(path.read_text())
    assert set(doc) == {"workload", "entries"}
    assert path.name == f"BENCH_{doc['workload']}.json"
    assert doc["workload"] in WORKLOADS
    assert doc["entries"]
    for entry in doc["entries"]:
        assert isinstance(entry["change"], str) and entry["change"]
        assert isinstance(entry["transcribed"], bool)
        assert re.fullmatch(r"[0-9a-f]{40}", entry["parent_commit"])
        for key in ("parent_source_sha256", "source_sha256"):
            assert re.fullmatch(r"[0-9a-f]{16}", entry[key])
        assert entry["parent_source_sha256"] != entry["source_sha256"]
        assert f"--workload {doc['workload']}" in entry["command"]
        assert isinstance(entry["pairs"], int) and entry["pairs"] >= 1
        assert set(entry["context"]) == CONTEXT
        assert all(entry["context"][k] not in (None, "", "unknown") for k in CONTEXT)
        assert entry["claimed"] is None or entry["claimed"] in METRICS
        seeds = entry["seeds"]
        assert seeds and all(isinstance(s, int) for s in seeds)
        assert sorted(entry["results"]) == sorted(map(str, seeds))
        for per_metric in entry["results"].values():
            assert set(per_metric) == set(METRICS)
            for name, metric in per_metric.items():
                spec = METRICS[name]
                assert (metric["unit"], metric["better"]) == (spec["unit"], spec["better"])
                for side in ("parent", "change"):
                    s = metric[side]
                    assert set(s) == {"median", "q1", "q3"}
                    assert s["q1"] <= s["median"] <= s["q3"]
                assert 0 <= metric["pairs_won"] <= entry["pairs"]
                assert metric["verdict"] == verdict(metric, entry["pairs"], spec["bound"],
                                                    spec["better"])
            if entry["claimed"] is not None:
                assert per_metric[entry["claimed"]]["verdict"] == "improved"
