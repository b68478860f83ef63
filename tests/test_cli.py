"""Command line behavior: exit codes, outputs, rerun determinism."""

import json
import re

import pytest

from entropy_toolkit import (
    GroundSet,
    IngletonFrame,
    ingleton_base,
    matroid_rank,
    save_set_function,
)
from entropy_toolkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grab(pattern, text):
    match = re.search(pattern, text)
    assert match, f"{pattern!r} not found in:\n{text}"
    return float(match.group(1))


NUM = r"(-?\d+\.?\d*(?:[eE][-+]?\d+)?)"


@pytest.fixture
def r3_file(tmp_path):
    path = tmp_path / "r3.json"
    save_set_function(matroid_rank(GroundSet("ijkl"), 3), path)
    return str(path)


@pytest.fixture
def rbar_file(tmp_path):
    g = GroundSet("ijkl")
    path = tmp_path / "rbar.json"
    save_set_function(ingleton_base(IngletonFrame.default(g)), path)
    return str(path)


class TestCheck:
    def test_matroid_passes(self, capsys, r3_file):
        code, out, _ = run(capsys, "check", r3_file)
        assert code == 0
        assert "polymatroid: yes" in out

    def test_base_function_is_tight(self, capsys, rbar_file):
        code, out, _ = run(capsys, "check", rbar_file)
        assert code == 0
        assert "tight:      True" in out

    def test_corrupted_empty_value(self, capsys, tmp_path, r3_file):
        doc = json.load(open(r3_file))
        doc["values"][""] = 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "error" in err

    def test_non_polymatroid_exits_one(self, capsys, tmp_path):
        g = GroundSet("ijkl")
        vals = [0.0] * 16
        vals[g.mask("i")] = -1.0
        from entropy_toolkit import SetFunction
        path = tmp_path / "neg.json"
        save_set_function(SetFunction(g, vals), path)
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1
        assert "polymatroid: no" in out

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_exits_two(self, capsys, rbar_file, tol):
        code, out, err = run(capsys, "check", rbar_file, "--tol", tol)
        assert code == 2
        assert "tolerance must be finite and nonnegative" in err
        assert "polymatroid" not in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/f.json")
        assert code == 2


class TestFouratom:
    def test_minimize(self, capsys):
        code, out, _ = run(capsys, "fouratom", "--minimize")
        assert code == 0
        assert abs(grab(rf"p\*\s*= {NUM}", out) - 0.350457) <= 1e-4
        assert abs(grab(rf"score = {NUM}", out) + 0.089373) <= 1e-5

    def test_at_zero(self, capsys):
        code, out, _ = run(capsys, "fouratom", "--p", "0")
        assert code == 0
        assert grab(rf"closed form at p=0: {NUM}", out) == pytest.approx(1.0)

    def test_oracle_agreement(self, capsys):
        code, out, _ = run(capsys, "fouratom", "--p", "0.25")
        assert code == 0
        assert grab(rf"difference:\s+{NUM}", out) <= 1e-10

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "fouratom", "--p", "0.8")
        assert code == 2

    def test_needs_argument(self, capsys):
        code, _, err = run(capsys, "fouratom")
        assert code == 2


class TestExl:
    def test_default_scores(self, capsys):
        code, out, _ = run(capsys, "exl", "--default")
        assert code == 0
        assert abs(grab(rf"I\(f\)\s+= {NUM}", out) + 0.078277) <= 1e-5
        assert abs(grab(rf"I\(f\^ti\)\s+= {NUM}", out) + 0.0912597) <= 1e-6
        assert abs(grab(rf"I\(a\.b\.f\^ti\) = {NUM}", out) + 0.09243) <= 5e-5
        assert grab(rf"max deviation = {NUM}", out) < 1e-12

    def test_explicit_params(self, capsys):
        code, out, _ = run(capsys, "exl", "--p", "0.125", "--q", "0",
                           "--r", "0", "--s", "0", "--t", "0")
        assert code == 0
        assert grab(rf"max deviation = {NUM}", out) < 1e-12

    def test_bad_sum_exits_two(self, capsys):
        code, _, err = run(capsys, "exl", "--p", "0.2", "--q", "0",
                           "--r", "0", "--s", "0", "--t", "0")
        assert code == 2
        assert "error" in err


class TestScoreAndEntropy:
    def test_score_of_base(self, capsys, rbar_file):
        code, out, _ = run(capsys, "score", rbar_file)
        assert code == 0
        assert grab(rf"I\(f\)\s+= {NUM}", out) == pytest.approx(-0.25)

    def test_frame_override_changes_instance(self, capsys, rbar_file):
        code, out, _ = run(capsys, "score", rbar_file, "--frame", "k,l,i,j")
        assert code == 0
        assert grab(rf"I\(f\)\s+= {NUM}", out) == pytest.approx(0.25)

    def test_entropy_roundtrip(self, capsys, tmp_path):
        dist = tmp_path / "d.json"
        out_fn = tmp_path / "h.json"
        code, _, _ = run(capsys, "export", "--what", "fouratom-dist",
                         "--p", "0.25", "-o", str(dist))
        assert code == 0
        code, out, _ = run(capsys, "entropy", str(dist), "-o", str(out_fn))
        assert code == 0
        assert out_fn.exists()
        code, out, _ = run(capsys, "score", str(out_fn))
        assert code == 0

    def test_bits_flag_rescales_display(self, capsys, tmp_path):
        dist = tmp_path / "d.csv"
        run(capsys, "export", "--what", "fouratom-dist", "--p", "0.25",
            "-o", str(dist))
        _, out_nats, _ = run(capsys, "entropy", str(dist))
        _, out_bits, _ = run(capsys, "entropy", str(dist), "--bits")
        nats = grab(rf"\n  ij\s+{NUM}", out_nats)
        bits = grab(rf"\n  ij\s+{NUM}", out_bits)
        assert bits == pytest.approx(2.0, abs=1e-9)
        assert nats == pytest.approx(2.0 * 0.6931471805599453, abs=1e-9)


class TestMinimizeCommand:
    ARGS = ("minimize", "--alphabet", "2,2,2,2", "--restarts", "2",
            "--budget", "150", "--seed", "7", "--objective", "pipeline_score")

    def test_deterministic_rerun_byte_for_byte(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        code1, stdout1, _ = run(capsys, *self.ARGS, "-o", str(out1))
        code2, stdout2, _ = run(capsys, *self.ARGS, "-o", str(out2))
        assert code1 == code2 == 0
        assert stdout1.replace(str(out1), "X") == stdout2.replace(str(out2), "X")
        assert out1.read_bytes() == out2.read_bytes()

    def test_result_document(self, capsys, tmp_path):
        out = tmp_path / "res.json"
        code, _, _ = run(capsys, *self.ARGS, "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["master_seed"] == 7
        assert len(doc["seed_trace"]) == 2
        assert abs(sum(a["prob"] for a in doc["best_distribution"]["atoms"])
                   - 1.0) < 1e-9

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphabet_sizes": [2, 2, 2, 2],
                                   "restarts": 1, "budget_evals": 80,
                                   "master_seed": 3,
                                   "objective": "raw_score"}))
        code, out, _ = run(capsys, "minimize", "--config", str(cfg))
        assert code == 0
        assert "objective      = raw_score" in out

    @pytest.mark.parametrize("fields, message", [
        ({"alphabet_sizes": [2.7, 2, 2, 2]}, "alphabet sizes"),
        ({"master_seed": 2.5}, "master_seed"),
        ({"master_seed": "7"}, "master_seed"),
        ({"objective": "alpha_in_direction", "direction": [float("nan"), 0, 1]}, "finite"),
    ])
    def test_bad_config_file_exits_2(self, capsys, tmp_path, fields, message):
        cfg = tmp_path / "cfg.json"
        doc = {"alphabet_sizes": [2, 2, 2, 2], "restarts": 1, "budget_evals": 80,
               "master_seed": 3, **fields}
        cfg.write_text(json.dumps(doc))
        code, _, err = run(capsys, "minimize", "--config", str(cfg))
        assert code == 2
        assert message in err

    def test_nan_direction_exits_2(self, capsys, tmp_path):
        dirs = tmp_path / "dirs.json"
        dirs.write_text("[[NaN, 0.0, 1.0]]")
        code, _, err = run(capsys, "cloud", "--alphabet", "2,2,2,2", "--restarts", "1",
                           "--budget", "20", "--directions-file", str(dirs),
                           "-o", str(tmp_path / "cloud.csv"))
        assert code == 2
        assert "finite" in err

    def test_alphabet_above_memory_guard_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "minimize", "--alphabet", "11,11,11,11",
                           "--restarts", "1", "--budget", "10",
                           "-o", str(tmp_path / "res.json"))
        assert code == 2
        assert "MiB" in err


class TestCloudHullOuter:
    def test_cloud_then_hull(self, capsys, tmp_path):
        cloud = tmp_path / "cloud.csv"
        code, out, _ = run(capsys, "cloud", "--alphabet", "2,2,2,2",
                           "--restarts", "1", "--budget", "60", "--seed", "4",
                           "--directions", "2", "--include-vertices",
                           "-o", str(cloud))
        assert code == 0
        header = cloud.read_text().splitlines()[0]
        assert header == "alpha,beta,gamma,delta,source"
        obj = tmp_path / "hull.obj"
        code, out, _ = run(capsys, "hull", str(cloud), "-o", str(obj))
        assert code == 0
        assert "hull vertices" in out
        first = obj.read_text().splitlines()[0].split()
        assert first[0] == "v"
        assert all(isinstance(float(x), float) for x in first[1:4])

    def test_cloud_rerun_byte_for_byte(self, capsys, tmp_path):
        args = ("cloud", "--alphabet", "2,2,2,2", "--restarts", "1",
                "--budget", "60", "--seed", "4", "--directions", "1")
        first, second = tmp_path / "c1.csv", tmp_path / "c2.csv"
        run(capsys, *args, "-o", str(first))
        run(capsys, *args, "-o", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_cloud_directions_file(self, capsys, tmp_path):
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]))
        out = tmp_path / "cloud.csv"
        code, stdout, _ = run(capsys, "cloud", "--alphabet", "2,2,2,2",
                              "--restarts", "1", "--budget", "60", "--seed", "4",
                              "--directions-file", str(dirs), "--optima-only",
                              "-o", str(out))
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 3  # header + 2 optima

    def test_hull_of_tetra_vertices(self, capsys, tmp_path):
        path = tmp_path / "verts.csv"
        path.write_text("alpha,beta,gamma,delta,source\n"
                        "1.0,0.0,0.0,0.0,a\n0.0,1.0,0.0,0.0,b\n"
                        "0.0,0.0,1.0,0.0,c\n0.0,0.0,0.0,1.0,d\n")
        code, out, _ = run(capsys, "hull", str(path))
        assert code == 0
        assert "hull vertices  = 4" in out
        assert "hull facets    = 4" in out

    def test_outer_s1_vertices(self, capsys, tmp_path):
        out_file = tmp_path / "region.json"
        code, out, _ = run(capsys, "outer", "--dfz-max-s", "1",
                           "-o", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        targets = [[2 / 3, 1 / 3, 0.0, 0.0], [2 / 3, 0.0, 0.0, 1 / 3]]
        for target in targets:
            assert any(max(abs(a - b) for a, b in zip(v, target)) <= 1e-9
                       for v in doc["vertices"])

    def test_outer_with_user_file(self, capsys, tmp_path):
        bank = tmp_path / "bank.json"
        bank.write_text(json.dumps([{"name": "zy", "abcd": [-0.5, 1, 0, 1]}]))
        code, out, _ = run(capsys, "outer", "--dfz-max-s", "1",
                           "--ineq-file", str(bank))
        assert code == 0
        assert "bank size      = 2" in out


class TestExport:
    def test_all_targets(self, capsys, tmp_path):
        for what, name in [("rbar", "rbar.json"), ("generators", "gens.json"),
                           ("vertices", "verts.json"),
                           ("exl-table", "table.csv")]:
            code, _, _ = run(capsys, "export", "--what", what,
                             "-o", str(tmp_path / name))
            assert code == 0, what
        assert json.loads((tmp_path / "verts.json").read_text()).keys() == \
            {"alpha", "beta", "gamma", "delta"}
        gens = json.loads((tmp_path / "gens.json").read_text())
        assert len(gens) == 11
        table = (tmp_path / "table.csv").read_text()
        assert table.splitlines()[0] == "column,config"
        assert len(table.strip().splitlines()) == 41

    def test_exl_dist_default(self, capsys, tmp_path):
        path = tmp_path / "exl.csv"
        code, _, _ = run(capsys, "export", "--what", "exl-dist", "--default",
                         "-o", str(path))
        assert code == 0
        assert len(path.read_text().strip().splitlines()) == 41

    def test_exported_rbar_scores(self, capsys, tmp_path):
        path = tmp_path / "rbar.json"
        run(capsys, "export", "--what", "rbar", "-o", str(path))
        doc = json.loads(path.read_text())
        assert doc["values"]["ik"] == 3.0
        assert doc["values"]["ijkl"] == 4.0


class TestNonFiniteInput:
    def test_nan_probability_exits_two(self, capsys, tmp_path):
        dist = tmp_path / "nan.csv"
        dist.write_text("x_i,x_j,x_k,x_l,prob\n0,0,0,0,1.0\n1,1,1,1,nan\n")
        code, _, err = run(capsys, "entropy", str(dist))
        assert code == 2
        assert "not finite" in err


class TestMalformedDocuments:
    """Wrong outside input exits 2 with a message, never a traceback."""

    @pytest.mark.parametrize("doc, message", [
        ({"seeds": 3}, "unknown config keys ['seeds']"),
        ({"alphabet_sizes": 4}, "alphabet sizes"),
        ([{"restarts": 1}], "malformed config document"),
        ({"objective": "raw_score", "direction": [float("nan"), 0, 0]}, "finite"),
    ])
    def test_config_file(self, capsys, tmp_path, doc, message):
        cfg, out = tmp_path / "cfg.json", tmp_path / "res.json"
        if isinstance(doc, dict):
            doc = {"alphabet_sizes": [2, 2, 2, 2], "restarts": 1, "budget_evals": 40,
                   **doc}
        cfg.write_text(json.dumps(doc))
        code, _, err = run(capsys, "minimize", "--config", str(cfg), "-o", str(out))
        assert code == 2
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("config", [0, 0, 0, None]),
                                              ("prob", None)])
    def test_distribution_atom(self, capsys, tmp_path, field, value):
        doc = {"labels": ["i", "j", "k", "l"], "alphabet_sizes": [2, 2, 2, 2],
               "atoms": [{"config": [0, 0, 0, 0], "prob": 0.5},
                         {"config": [1, 1, 1, 1], "prob": 0.5}]}
        doc["atoms"][0][field] = value
        dist = tmp_path / "d.json"
        dist.write_text(json.dumps(doc))
        code, _, err = run(capsys, "entropy", str(dist))
        assert code == 2
        assert "malformed distribution document" in err

    @pytest.mark.parametrize("doc", [
        {"labels": ["i", "j"], "values": None},
        {"labels": ["i", "j"], "values": {"": 0, "i": 1, "j": None, "ij": 1}},
        {"labels": [1, 2], "values": {"": 0, "1": 1, "2": 1, "12": 2}},
    ])
    def test_set_function_document(self, capsys, tmp_path, doc):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert "malformed set-function document" in err
        assert out == ""

    def test_inequality_file_entry(self, capsys, tmp_path):
        bank = tmp_path / "f.json"
        bank.write_text("[1]")
        code, _, err = run(capsys, "outer", "--dfz-max-s", "1", "--ineq-file", str(bank))
        assert code == 2
        assert "malformed inequality document" in err

    def test_directions_file_entry(self, capsys, tmp_path):
        dirs = tmp_path / "f.json"
        dirs.write_text("[1]")
        code, _, err = run(capsys, "cloud", "--alphabet", "2,2,2,2", "--restarts", "1",
                           "--budget", "20", "--directions-file", str(dirs),
                           "-o", str(tmp_path / "cloud.csv"))
        assert code == 2
        assert "malformed directions document" in err
