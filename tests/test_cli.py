"""Command line behavior: exit codes, outputs, rerun determinism."""

import argparse
import csv
import json
import re
import warnings
from pathlib import Path

import pytest

from entropy_toolkit import (
    GroundSet,
    IngletonFrame,
    SearchConfig,
    cross_section_point,
    entropy_function,
    four_atom_distribution,
    generate_cloud,
    ingleton_base,
    inequality_to_json,
    matroid_rank,
    modular_from,
    save_distribution,
    save_set_function,
    vertex_seed_distributions,
)
from entropy_toolkit import cli, core
from entropy_toolkit.cli import main
from entropy_toolkit.search import engine

from helpers import dfz_member_plus_swap, fixed_cloud

GOLDENS = Path(__file__).parent / "goldens"


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

    @pytest.mark.parametrize("argv, shown", [((), "1e-09"), (("--tol", "1e-7"), "1e-07")])
    def test_reports_tolerance(self, capsys, rbar_file, argv, shown):
        code, out, _ = run(capsys, "check", rbar_file, *argv)
        assert code == 0
        assert out.splitlines()[0] == f"tolerance:  {shown}"

    def test_corrupted_empty_value(self, capsys, tmp_path, r3_file):
        doc = json.loads(Path(r3_file).read_text())
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
        assert f"tolerance must be a finite real in [0.0, inf], got {tol}" in err
        assert "polymatroid" not in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/f.json")
        assert code == 2

    @pytest.mark.parametrize("values, code, tail", [
        ([1.7e308, 1.7e308, -1.7e308], 1,
         ["monotone:   False   (worst violation -inf)",
          "submodular: True   (worst violation 0)",
          "  monotone witness: (j, ij)", "  monotone witness: (i, ij)",
          "polymatroid: no"]),
        ([1e308, 1e308, 1.5e308], 0,
         ["monotone:   True   (worst violation 0)",
          "submodular: True   (worst violation 0)",
          "tight:      False", "modular:    False", "polymatroid: yes"]),
    ])
    def test_overflowing_margins_print_no_warning(self, capsys, tmp_path, values, code, tail):
        from entropy_toolkit import SetFunction
        path = tmp_path / "huge.json"
        save_set_function(SetFunction(GroundSet("ij"), [0.0, *values]), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = run(capsys, "check", str(path))
        assert (got, err) == (code, "")
        assert out.splitlines() == ["tolerance:  1e-09", *tail]


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

    def test_score_reports_tolerance(self, capsys, rbar_file):
        code, out, _ = run(capsys, "score", rbar_file)
        assert code == 0
        assert "tolerance   = 1e-09 (tight), 1e-12 (degenerate)" in out.splitlines()

    def test_score_of_a_degenerate_point(self, capsys, tmp_path):
        """A modular function's tight part is 0, so its section point is
        degenerate: score says so and exits 0."""
        path = tmp_path / "modular.json"
        save_set_function(modular_from(GroundSet("ijkl"), [1, 1, 1, 1]), path)
        code, out, err = run(capsys, "score", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines()[-2:] == [
            "I(f)        = 0",
            "cross-section point: degenerate (degenerate input: projected value at N is "
            "0.0, score vanishes and no cross-section point exists)"]

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


class TestNonPolymatroidGoldens:
    """``nonpoly.json`` is the exl table entropy with h(ijk) 0.01 below h(ij);
    its ``score`` output was recorded while the guards built full reports."""

    def test_score_prints_the_golden_and_warns_once_per_guard(self, capsys):
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("always")
            code, out, _ = run(capsys, "score", str(GOLDENS / "nonpoly.json"))
        assert code == 0
        assert out == (GOLDENS / "score_nonpoly_stdout.txt").read_text()
        assert [(str(w.message).split(":")[0], w.category, Path(w.filename).name)
                for w in records] == [("tight_part", core.NonPolymatroidWarning, "cli.py"),
                                      ("cross_section_point", core.NonPolymatroidWarning,
                                       "cli.py")]

    def test_check_calls_it_no_polymatroid(self, capsys):
        code, out, _ = run(capsys, "check", str(GOLDENS / "nonpoly.json"))
        assert code == 1
        assert out.splitlines()[-1] == "polymatroid: no"

    def test_entropy_builds_no_report(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an AxiomReport was built")
        monkeypatch.setattr(core, "AxiomReport", refuse)
        out = tmp_path / "h.json"
        code, _, _ = run(capsys, "entropy", str(GOLDENS / "exl_dist.json"), "-o", str(out))
        assert code == 0
        assert out.read_bytes() == (GOLDENS / "entropy_exl.json").read_bytes()


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
        assert "seed_trace" not in doc
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

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg, out = tmp_path / "cfg.json", tmp_path / "res.json"
        cfg.write_text(json.dumps({"alphabet_sizes": [2, 2, 2, 2], "restarts": 1,
                                   "budget_evals": 40, "master_seed": 3}))
        code, _, _ = run(capsys, "minimize", "--config", str(cfg), "--seed", "99",
                         "--restarts", "2", "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())["config"]
        assert (doc["master_seed"], doc["restarts"], doc["budget_evals"]) == (99, 2, 40)

    @pytest.mark.parametrize("fields, message", [
        ({"alphabet_sizes": [2.7, 2, 2, 2]}, "alphabet sizes"),
        ({"master_seed": 2.5}, "master_seed"),
        ({"master_seed": "7"}, "master_seed"),
        ({"objective": "alpha_in_direction", "direction": [float("nan"), 0, 1]}, "finite"),
        ({"objective": "alpha_in_direction"}, "not one of"),
    ])
    def test_bad_config_file_exits_2(self, capsys, tmp_path, fields, message):
        cfg = tmp_path / "cfg.json"
        doc = {"alphabet_sizes": [2, 2, 2, 2], "restarts": 1, "budget_evals": 80,
               "master_seed": 3, **fields}
        if "direction" in doc:
            assert_direction_moved(capsys, tmp_path, doc, message)
            return
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

    @pytest.mark.parametrize("command", ["minimize", "cloud"])
    def test_restarts_above_memory_guard_exit_2(self, capsys, tmp_path, monkeypatch,
                                                command):
        monkeypatch.setattr(engine, "_run_all_restarts", _no_search)
        out = tmp_path / "out"
        code, stdout, err = run(capsys, command, "--alphabet", "2,2,2,2",
                                "--restarts", "524289", "-o", str(out))
        assert code == 2
        assert not stdout and not out.exists()
        assert "restarts must be at most 524,288" in err
        assert "MAX_OUTCOME_MIB = 64 MiB" in err

    def test_restarts_above_memory_guard_in_config_file(self, capsys, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(engine, "_run_all_restarts", _no_search)
        cfg, out = tmp_path / "cfg.json", tmp_path / "res.json"
        cfg.write_text(json.dumps({"restarts": 10**400, "budget_evals": 10**400}))
        code, _, err = run(capsys, "minimize", "--config", str(cfg), "-o", str(out))
        assert code == 2
        assert not out.exists()
        assert "restarts must be at most 32,768 at 256 atoms" in err

    def test_cloud_above_point_bound_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(engine, "_run_all_restarts", _no_search)
        out = tmp_path / "cloud.csv"
        # 8 directions x 1 restart x (1,677,705 + 17) points x 80 B > 1024 MiB
        code, stdout, err = run(capsys, "cloud", "--alphabet", "2,2,2,2", "--restarts", "1",
                                "--budget", "1677705", "-o", str(out))
        assert code == 2
        assert not stdout and not out.exists()
        assert len(err.splitlines()) == 1
        assert "could hold 13,421,776 points" in err
        assert "MAX_CLOUD_MIB = 1024 MiB" in err

    def test_cloud_size_checked_before_directions(self, capsys, tmp_path, monkeypatch):
        def spy(*args, **kwargs):
            pytest.fail("directions were built for a cloud the bound rejects")
        monkeypatch.setattr(engine, "sphere_directions", spy)
        monkeypatch.setattr(engine, "_run_all_restarts", _no_search)
        out = tmp_path / "cloud.csv"
        code, stdout, err = run(capsys, "cloud", "--directions", "20000", "-o", str(out))
        assert code == 2
        assert not stdout and not out.exists()
        assert len(err.splitlines()) == 1
        assert "directions x restarts (20,000 x 64) must be at most 32,768 at 256 atoms" in err
        assert "MAX_OUTCOME_MIB = 64 MiB" in err


def _no_search(*args, **kwargs):
    pytest.fail("a search started on a configuration the guard should reject")


def assert_direction_moved(capsys, tmp_path, doc: dict, message: str) -> None:
    """``minimize --config`` and ``cloud --config`` refuse a config document
    with a direction, a cloud's setting, naming the file; the direction in a
    ``--directions-file`` exits 2 with ``message``, naming that file."""
    cfg, dirs, out = tmp_path / "moved.json", tmp_path / "dirs.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    dirs.write_text(json.dumps([doc["direction"]]))
    for argv, path, expected in [
            (["minimize", "--config", str(cfg)], cfg, "unknown config keys ['direction']"),
            (["cloud", "--config", str(cfg), "--directions-file", str(dirs)], cfg,
             "unknown config keys ['direction']"),
            (["cloud", "--alphabet", "2,2,2,2", "--directions-file", str(dirs)], dirs,
             message)]:
        code, stdout, err = run(capsys, *argv, "-o", str(out))
        assert (code, stdout) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {path}: ") and expected in err
        assert not out.exists()


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
        # header + the first optimum: the second, alpha -0.216, is outside
        header, row = out.read_text().splitlines()
        assert row.endswith('"dir0(1,0,0)/r0"')

    def test_hull_of_tetra_vertices(self, capsys, tmp_path):
        path = tmp_path / "verts.csv"
        path.write_text("alpha,beta,gamma,delta,source\n"
                        "1.0,0.0,0.0,0.0,a\n0.0,1.0,0.0,0.0,b\n"
                        "0.0,0.0,1.0,0.0,c\n0.0,0.0,0.0,1.0,d\n")
        code, out, _ = run(capsys, "hull", str(path))
        assert code == 0
        assert "hull vertices  = 4" in out
        assert "hull facets    = 4" in out

    def test_hull_of_header_only_cloud_exits_two(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("alpha,beta,gamma,delta,source\n")
        code, out, err = run(capsys, "hull", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: need weight quadruples, got shape (0, 4)\n"

    def test_hull_of_a_cloud_with_another_header_exits_two(self, capsys, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("a,b,c,d,source\n1.0,0.0,0.0,0.0,a\n")
        code, out, err = run(capsys, "hull", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: expected header alpha,beta,gamma,delta,source\n"

    @pytest.mark.parametrize("row, message", [
        ("1.0,1.0,0.0,0.0", "point 1 has weight sum 2.0, expected 1"),
        ("nan,0.5,0.25,0.25", "point 1 has non-finite weights (nan, 0.5, 0.25, 0.25)")])
    def test_hull_row_rule_names_the_file(self, capsys, tmp_path, row, message):
        path = tmp_path / "cloud.csv"
        path.write_text(f"alpha,beta,gamma,delta,source\n1.0,0.0,0.0,0.0,a\n{row},b\n")
        code, out, err = run(capsys, "hull", str(path), "-o", str(tmp_path / "h.obj"))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {message}\n"
        assert not (tmp_path / "h.obj").exists()

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


class TestOuterCoefficientEntries:
    """A coefficient entry of --ineq-file bounds the region as its section
    halfspace on labels i, j, k, l; one that cannot is an input error."""

    FIXTURE = GOLDENS / "dfz7_10_linear.json"

    def test_fixture_is_dfz_members_plus_swaps(self):
        frame = IngletonFrame.default(GroundSet("ijkl"))
        want = [inequality_to_json(dfz_member_plus_swap(s, frame)) for s in range(7, 11)]
        assert json.loads(self.FIXTURE.read_text()) == want

    def test_linear_members_extend_the_bank(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code, out_a, _ = run(capsys, "outer", "--dfz-max-s", "6",
                             "--ineq-file", str(self.FIXTURE), "-o", str(a))
        assert code == 0
        code, out_b, _ = run(capsys, "outer", "--dfz-max-s", "10", "-o", str(b))
        assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert out_a.replace(str(a), "") == out_b.replace(str(b), "")
        assert out_a.splitlines()[-1] == f"wrote {a}"

    @pytest.mark.parametrize("coefficients, message", [
        ({"x": 1, "i": -1}, "unknown label 'x'"),
        ({"i": 1, "j": 1, "ij": -1}, "'entry' has all-zero coefficients"),
    ])
    def test_unusable_entry_exits_two(self, capsys, tmp_path, coefficients, message):
        path = tmp_path / "bank.json"
        path.write_text(json.dumps([{"name": "entry", "coefficients": coefficients}]))
        code, out, err = run(capsys, "outer", "--ineq-file", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {path}: ") and message in err


class TestGeometryGoldens:
    """Outputs recorded with the loop-based outer region, dict deduplication
    and facet-loop containment; they must stay byte-for-byte equal."""

    def test_outer_dfz20_file(self, capsys, tmp_path):
        out = tmp_path / "region.json"
        code, _, _ = run(capsys, "outer", "--dfz-max-s", "20", "-o", str(out))
        assert code == 0
        assert out.read_bytes() == (GOLDENS / "outer20.json").read_bytes()

    @pytest.mark.parametrize("s", ["6", "20"])
    def test_outer_stdout(self, capsys, s):
        code, out, _ = run(capsys, "outer", "--dfz-max-s", s)
        assert code == 0
        assert out == (GOLDENS / f"outer{s}_stdout.txt").read_text()

    def test_hull_of_fixed_cloud(self, capsys, tmp_path):
        cloud, obj = tmp_path / "cloud.csv", tmp_path / "hull.obj"
        cloud.write_text("alpha,beta,gamma,delta,source\n" + "".join(
            ",".join(map(repr, row)) + ",fixed\n" for row in fixed_cloud()))
        code, out, _ = run(capsys, "hull", str(cloud), "-o", str(obj))
        assert code == 0
        assert out.splitlines()[:4] == ["input points   = 267", "hull vertices  = 41",
                                        "hull facets    = 78", "hull dimension = 3"]
        assert obj.read_bytes() == (GOLDENS / "hull.obj").read_bytes()

    @pytest.mark.parametrize("row", ["nan,0.5,0.25,0.25", "inf,-inf,0.5,0.5"])
    def test_hull_rejects_non_finite_row(self, capsys, tmp_path, row):
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("alpha,beta,gamma,delta,source\n"
                         "1.0,0.0,0.0,0.0,a\n0.0,1.0,0.0,0.0,b\n"
                         "0.0,0.0,1.0,0.0,c\n0.0,0.0,0.0,1.0,d\n"
                         f"{row},bad\n")
        code, out, err = run(capsys, "hull", str(cloud), "-o", str(tmp_path / "h.obj"))
        assert code == 2
        assert "point 4 has non-finite weights" in err
        assert not (tmp_path / "h.obj").exists()


class TestSearchCommandGoldens:
    """Result and cloud files recorded with the np.tile entropies, np.mean
    centroid and np.linalg.norm alpha objective; they must stay byte-for-byte
    equal."""

    def test_minimize_file(self, capsys, tmp_path):
        out = tmp_path / "res.json"
        code, _, _ = run(capsys, "minimize", "--alphabet", "2,2,2,2", "--restarts", "3",
                         "--budget", "300", "--seed", "11", "-o", str(out))
        assert code == 0
        assert out.read_bytes() == (GOLDENS / "minimize11.json").read_bytes()

    def test_cloud_file(self, capsys, tmp_path):
        out = tmp_path / "cloud.csv"
        code, _, _ = run(capsys, "cloud", "--alphabet", "2,2,2,2", "--restarts", "2",
                         "--budget", "80", "--seed", "5", "--directions", "2",
                         "-o", str(out))
        assert code == 0
        assert out.read_bytes() == (GOLDENS / "cloud5.csv").read_bytes()

    def test_cloud_file_with_vertices(self, capsys, tmp_path):
        """The corner points follow the cloud's rows, in csv's row format."""
        out = tmp_path / "cloud.csv"
        code, stdout, _ = run(capsys, "cloud", "--alphabet", "2,2,2,2", "--restarts", "2",
                              "--budget", "80", "--seed", "5", "--directions", "2",
                              "--include-vertices", "-o", str(out))
        assert code == 0
        frame = IngletonFrame.default(GroundSet("ijkl"))
        corners = "".join(
            ",".join(map(repr, cross_section_point(entropy_function(d), frame)[0].as_tuple()))
            + f",vertex-{name}\r\n" for name, d in vertex_seed_distributions(frame).items())
        golden = (GOLDENS / "cloud5.csv").read_bytes()
        assert out.read_bytes() == golden + corners.encode()
        points = len(golden.splitlines()) - 1 + 3
        assert stdout.splitlines()[0] == f"cloud points   = {points}"


class TestRaySearchMoved:
    """A ray search runs as a one-direction optima-only cloud, and an optimum
    is kept only inside the tetrahedron, by the collector's rule."""

    def test_outside_ray_optimum_is_dropped(self, capsys, tmp_path):
        """The best point of this search, formerly what ``minimize --config``
        wrote for {"alphabet_sizes": [2, 2, 2, 2], "restarts": 2,
        "budget_evals": 120, "master_seed": 3, "objective":
        "alpha_in_direction", "direction": [0.2, -0.5, 0.8]}, has alpha
        -0x1.b863faa706800p-7 < 0: the cloud is empty and writes no file."""
        cfg = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=2, budget_evals=120,
                           master_seed=3)
        frame = IngletonFrame.default(GroundSet("ijkl"))
        assert len(generate_cloud([(0.2, -0.5, 0.8)], cfg, frame, optima_only=True)) == 0
        dirs, out = tmp_path / "dirs.json", tmp_path / "cloud.csv"
        dirs.write_text("[[0.2, -0.5, 0.8]]")
        code, stdout, err = run(capsys, "cloud", "--alphabet", "2,2,2,2", "--restarts", "2",
                                "--budget", "120", "--seed", "3", "--optima-only",
                                "--directions-file", str(dirs), "-o", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: {out}: no point was inside the tetrahedron")
        assert not out.exists()

    #: the rows ``cloud --optima-only`` wrote for the command below before
    #: optima were tested: dir7's optimum, alpha -0x1.f3c4cefddfc98p-2, is
    #: now dropped, and the rows inside are unchanged
    INSIDE = [
        ("dir1(0.231896,-0.866058,-0.442909)/r1", "0x1.2a87e6df236b8p-2",
         "0x1.5cad079205ef0p-3", "0x1.5601194f584c0p-3", "0x1.7c2108b02d770p-2"),
        ("dir2(-0.668426,0.481284,-0.567073)/r1", "0x1.376d7343e7800p-2",
         "0x1.1ddb22cc11330p-3", "0x1.6bdcceaa636f0p-3", "0x1.83b69400de2f0p-2"),
        ("dir3(-0.890163,-0.0216816,-0.455126)/r1", "0x1.2a87e6df236b8p-2",
         "0x1.5cad079205ef0p-3", "0x1.5601194f584c0p-3", "0x1.7c2108b02d770p-2"),
        ("dir4(-0.202617,-0.0684648,-0.976862)/r1", "0x1.2a87e6df236b8p-2",
         "0x1.5cad079205ef0p-3", "0x1.5601194f584c0p-3", "0x1.7c2108b02d770p-2"),
        ("dir5(0.60837,-0.541682,0.580058)/r1", "0x1.1411b1971a790p-2",
         "0x1.3aa6ac8efd450p-2", "0x1.2f8b66725fd00p-5", "0x1.8b56350b9c480p-2"),
        ("dir6(0.575468,-0.791898,-0.20429)/r1", "0x1.28bc6cdd01668p-2",
         "0x1.679b48c149ed0p-3", "0x1.4b30153584f60p-3", "0x1.7ddde42797280p-2"),
    ]

    def test_optima_inside_are_kept(self, capsys, tmp_path):
        out = tmp_path / "cloud.csv"
        code, stdout, _ = run(capsys, "cloud", "--optima-only", "--alphabet", "2,2,2,2",
                              "--restarts", "2", "--budget", "400", "--seed", "1",
                              "--directions", "8", "-o", str(out))
        assert code == 0
        assert stdout.splitlines()[0] == "cloud points   = 6"
        header, *rows = csv.reader(out.read_text().splitlines())
        assert [(tag, *(float(w).hex() for w in weights))
                for *weights, tag in rows] == self.INSIDE


class TestEmptyCloud:
    """A cloud with no point inside the tetrahedron exits 2 and writes no
    file, so ``hull`` never reads a header-only cloud from ``cloud``."""

    ARGV = ["cloud", "--alphabet", "2,2,2,2", "--restarts", "1", "--budget", "20",
            "--directions", "2"]

    def test_exits_two(self, capsys, tmp_path):
        out = tmp_path / "c.csv"
        code, stdout, err = run(capsys, *self.ARGV, "-o", str(out))
        assert (code, stdout) == (2, "")
        assert err == (f"error: {out}: no point was inside the tetrahedron at a budget "
                       f"of 20 evaluations per restart\n")
        assert not out.exists()

    def test_vertices_alone_are_written(self, capsys, tmp_path):
        out = tmp_path / "c.csv"
        code, stdout, _ = run(capsys, *self.ARGV, "--include-vertices", "-o", str(out))
        assert code == 0
        assert stdout.splitlines()[0] == "cloud points   = 3"
        assert [row[4] for row in csv.reader(out.read_text().splitlines()[1:])] == [
            "vertex-beta", "vertex-gamma", "vertex-delta"]


class TestDirectionsFileRule:
    """Every entry the direction rule rejects exits 2 with one line that
    names the directions file, before any search and without an output file."""

    @pytest.mark.parametrize("entry, message", [
        ("[NaN, 0, 1]", "finite"),
        ("[1, Infinity, 0]", "finite"),
        ("[0, 0, -Infinity]", "finite"),
        ("[true, false, false]", "3-vector"),
        ("[1.0, 0.0, true]", "3-vector"),
        ("[0, 0, 0]", "finite nonzero"),
        ("[1, 0]", "3-vector"),
        ('["1", 0, 1]', "3-vector"),
        ("[null, 0, 1]", "3-vector"),
        ("[1e-200, 0, 0]", "squared norm is a normal double"),
        ("[1e-160, 0, 0]", "squared norm is a normal double"),
        ("[1e200, 0, 0]", "squared norm is a normal double"),
        ("[1e154, 1e154, 1e154]", "squared norm is a normal double"),
    ])
    def test_exits_two(self, capsys, tmp_path, monkeypatch, entry, message):
        dirs, out = tmp_path / "dirs.json", tmp_path / "cloud.csv"
        dirs.write_text(f"[[1, 0, 0], {entry}]")
        monkeypatch.setattr(engine, "_run_all_restarts", _no_search)
        code, stdout, err = run(capsys, "cloud", "--alphabet", "2,2,2,2", "--restarts", "1",
                                "--budget", "20", "--directions-file", str(dirs),
                                "-o", str(out))
        assert (code, stdout) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {dirs}: direction must be a ") and message in err
        assert not out.exists()


class TestIgnoredFlags:
    """A flag the command would not read is an error, not silently dropped."""

    @pytest.mark.parametrize("argv, message", [
        (["fouratom", "--p", "0.3", "--minimize"], "need exactly one of --p and --minimize"),
        (["fouratom"], "need exactly one of --p and --minimize"),
        (["exl", "--default", "--p", "0.5"], "need --default or all of --p..--t, not both"),
        (["exl", "--default", "--t", "0"], "need --default or all of --p..--t, not both"),
        (["export", "--what", "exl-dist", "--default", "--q", "0.1", "-o", "{out}"],
         "need --default or all of --p..--t, not both"),
        (["cloud", "--alphabet", "2,2,2,2", "--restarts", "2", "--budget", "400",
          "--directions", "5", "--directions-file", "{dirs}", "-o", "{out}"],
         "need at most one of --directions and --directions-file"),
        (["cloud", "--alphabet", "2,2,2,2", "--restarts", "1", "--budget", "100",
          "--directions-file", "", "-o", "{out}"], ": No such file or directory"),
        (["cloud", "--alphabet", "2,2,2,2", "--restarts", "1", "--budget", "100",
          "--directions", "3", "--directions-file", "", "-o", "{out}"],
         "need at most one of --directions and --directions-file"),
    ], ids=["fouratom", "fouratom-neither", "exl-p", "exl-t", "export-exl-dist",
            "cloud-directions", "cloud-empty-directions-file",
            "cloud-directions-empty-file"])
    def test_exits_two(self, capsys, tmp_path, argv, message):
        out, dirs = tmp_path / "e.csv", tmp_path / "dirs.json"
        dirs.write_text("[[0.2, -0.5, 0.8]]")
        code, stdout, err = run(capsys, *(a.format(out=out, dirs=dirs) for a in argv))
        assert (code, stdout) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {message}")
        assert not out.exists()


class TestExportStrayFlags:
    """Each export target reads its own flags, and any other flag given is an
    error before the file is written."""

    @pytest.mark.parametrize("what, flags, stray", [
        ("rbar", ["--default", "--p", "0.3"], "--default, --p"),
        ("generators", ["--q", "0.1"], "--q"),
        ("vertices", ["--t", "0"], "--t"),
        ("exl-table", ["--frame", "j,i,k,l"], "--frame"),
        ("exl-table", ["--p", "0.3"], "--p"),
        ("fouratom-dist", ["--p", "0.3", "--default", "--q", "0.1"], "--default, --q"),
        ("fouratom-dist", ["--p", "0.3", "--frame", "j,i,k,l"], "--frame"),
        ("exl-dist", ["--default", "--frame", "j,i,k,l"], "--frame"),
    ])
    def test_exits_two(self, capsys, tmp_path, what, flags, stray):
        out = tmp_path / "e.json"
        code, stdout, err = run(capsys, "export", "--what", what, *flags, "-o", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"error: export --what {what} does not read {stray}\n"
        assert not out.exists()

    @pytest.mark.parametrize("what, flags", [
        ("rbar", ["--frame", "j,i,k,l"]),
        ("generators", ["--frame", "j,i,k,l"]),
        ("vertices", ["--frame", "j,i,k,l"]),
        ("fouratom-dist", ["--p", "0.0"]),
        ("exl-dist", ["--p", "0.125", "--q", "0", "--r", "0", "--s", "0", "--t", "0"]),
    ])
    def test_own_flags_accepted(self, capsys, tmp_path, what, flags):
        out = tmp_path / "e.json"
        assert run(capsys, "export", "--what", what, *flags, "-o", str(out))[0] == 0
        assert out.exists()


class TestConfigKeysReadByTheCommand:
    """A config key that the command would not read is an error that names
    the file, not a silently dropped or merely recorded setting."""

    SEARCH = {"alphabet_sizes": [2, 2, 2, 2], "restarts": 1, "budget_evals": 20}

    @pytest.mark.parametrize("command, doc, message", [
        ("minimize", {"objective": "alpha_in_direction", "direction": [1, 0, 0]},
         "unknown config keys ['direction']"),
        ("cloud", {"direction": [1, 0, 0]}, "unknown config keys ['direction']"),
        ("cloud", {"objective": "raw_score"}, "reads no objective: 'raw_score'"),
        ("cloud", {"objective": "alpha_in_direction"}, "'alpha_in_direction' not one of"),
    ])
    def test_exits_two(self, capsys, tmp_path, monkeypatch, command, doc, message):
        cfg, out = tmp_path / "c.json", tmp_path / "out"
        cfg.write_text(json.dumps({**self.SEARCH, **doc}))
        monkeypatch.setattr(engine, "_run_all_restarts", _no_search)
        code, stdout, err = run(capsys, command, "--config", str(cfg), "-o", str(out))
        assert (code, stdout) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {cfg}: ") and message in err
        assert not out.exists()

    def test_cloud_accepts_the_default_objective(self, capsys, tmp_path):
        cfg, out = tmp_path / "c.json", tmp_path / "c.csv"
        cfg.write_text(json.dumps({**self.SEARCH, "objective": "pipeline_score"}))
        # at the config's budget of 20 no point lands inside, and an empty cloud exits 2
        code, _, _ = run(capsys, "cloud", "--config", str(cfg), "--directions", "1",
                         "--budget", "200", "-o", str(out))
        assert code == 0 and out.exists()


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

    def test_fouratom_dist_needs_p(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        code, out, err = run(capsys, "export", "--what", "fouratom-dist", "-o", str(path))
        assert (code, out, err) == (2, "", "error: fouratom-dist needs --p\n")
        assert not path.exists()

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
        assert "probabilities must be finite reals, got nan" in err


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
        if "direction" in doc:
            assert_direction_moved(capsys, tmp_path, doc, message)
            return
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

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_halfspace_entry(self, capsys, tmp_path, value):
        bank = tmp_path / "bank.json"
        bank.write_text(f'[{{"name": "bad", "abcd": [{value}, 1, 0, 1]}}]')
        code, out, err = run(capsys, "outer", "--dfz-max-s", "1", "--ineq-file", str(bank))
        assert code == 2
        assert "'bad' coefficient a must be a finite real" in err
        assert out == ""

    def test_directions_file_entry(self, capsys, tmp_path):
        dirs = tmp_path / "f.json"
        dirs.write_text("[1]")
        code, _, err = run(capsys, "cloud", "--alphabet", "2,2,2,2", "--restarts", "1",
                           "--budget", "20", "--directions-file", str(dirs),
                           "-o", str(tmp_path / "cloud.csv"))
        assert code == 2
        assert "malformed directions document" in err


class TestErrorsNameTheFile:
    """An input error is one error line that starts with the file it came from."""

    @pytest.mark.parametrize("command, text, message", [
        ("check", "not json\n", "Expecting value"),
        ("outer", '[{"name": "x", "abcd": [1, 0, 0]}]', "malformed halfspace document"),
        ("entropy", json.dumps({"labels": [1, 2], "alphabet_sizes": [1, 1],
                                "atoms": [{"config": [0, 0], "prob": 1.0}]}),
         "malformed distribution document"),
    ])
    def test_one_error_line(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = ["--ineq-file", str(path)] if command == "outer" else [str(path)]
        code, out, err = run(capsys, command, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {path}: ") and message in err

    @pytest.mark.parametrize("command", ["check", "entropy", "hull"])
    def test_missing_file_and_directory(self, capsys, tmp_path, command):
        for path, message in [(tmp_path / "missing.json", "No such file or directory"),
                              (tmp_path, "Is a directory")]:
            code, out, err = run(capsys, command, str(path))
            assert code == 2
            assert out == ""
            assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("labels", ["i", "ijk", "ijklm"])
    def test_score_of_a_ground_without_four_labels(self, capsys, tmp_path, labels):
        path = tmp_path / "r.json"
        save_set_function(matroid_rank(GroundSet(labels), 1), path)
        code, out, err = run(capsys, "score", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: frame needs a 4-element ground set, "
                       f"got n={len(labels)}\n")

    @pytest.mark.parametrize("header, alphabet, message", [
        ("x_i", "4,4,4,4", "init distribution has alphabet (2, 2, 2, 2), the search (4, 4, 4, 4)"),
        ("x_a", "2,2,2,2",
         "init distribution has labels ('a', 'j', 'k', 'l'), the search ('i', 'j', 'k', 'l')"),
    ], ids=["alphabet", "labels"])
    def test_init_dist_mismatch(self, capsys, tmp_path, monkeypatch, header, alphabet,
                                message):
        path = tmp_path / "fa.csv"
        assert run(capsys, "export", "--what", "fouratom-dist", "--p", "0.3",
                   "-o", str(path))[0] == 0
        path.write_text(path.read_text().replace("x_i,", f"{header},"))
        monkeypatch.setattr(engine, "_run_all_restarts", _no_search)
        code, out, err = run(capsys, "minimize", "--init-dist", str(path), "--restarts", "1",
                             "--budget", "20", "--alphabet", alphabet)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {message}\n"

    def test_distribution_as_bank(self, capsys, tmp_path):
        # the entry is named by index and keys, not quoted whole (about 2 KB)
        path = tmp_path / "exl.json"
        assert run(capsys, "export", "--what", "exl-dist", "--default",
                   "-o", str(path))[0] == 0
        code, out, err = run(capsys, "outer", "--ineq-file", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and len(err.rstrip("\n")) < 200
        assert err.startswith(f"error: {path}: entry 0 ")
        assert "['alphabet_sizes', 'atoms', 'labels']" in err

    def test_entry_with_both_keys(self, capsys, tmp_path):
        """Such an entry was read as its halfspace, its coefficients dropped."""
        path, region = tmp_path / "both.json", tmp_path / "region.json"
        path.write_text(json.dumps([{"name": "both", "abcd": [1, 0, 0, 0],
                                     "coefficients": {"i": 1, "j": 1, "ij": -1}}]))
        code, out, err = run(capsys, "outer", "--dfz-max-s", "0", "--ineq-file", str(path),
                             "-o", str(region))
        assert (code, out) == (2, "")
        assert err == f'error: {path}: entry 0 has both "coefficients" and "abcd"\n'
        assert not region.exists()

    @pytest.mark.parametrize("count, message", [
        (0, "need at least one direction"),
        (100_000, "directions x restarts (100,000 x 64) must be at most 32,768 at 256 atoms"),
    ])
    def test_directions_file_count(self, capsys, tmp_path, monkeypatch, count, message):
        """The count is checked before any entry: these entries are all invalid."""
        path, cloud = tmp_path / "dirs.json", tmp_path / "cloud.csv"
        path.write_text(json.dumps([[0, 0, 0]] * count))
        monkeypatch.setattr(engine, "_run_all_restarts", _no_search)
        code, out, err = run(capsys, "cloud", "--directions-file", str(path), "-o", str(cloud))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {path}: {message}")
        assert not cloud.exists()


class TestUnwritableOutput:
    """A command with -o checks that it can write there before any work: an
    unwritable target exits 2 with nothing on stdout and one error line that
    names the file, and no search runs."""

    COMMANDS = {
        "entropy": ["entropy", "{dist}"],
        "minimize": ["minimize", "--alphabet", "2,2,2,2", "--restarts", "2", "--budget", "100"],
        "cloud": ["cloud", "--alphabet", "2,2,2,2", "--restarts", "1", "--budget", "60",
                  "--directions", "2"],
        "hull": ["hull", "{cloud}"],
        "outer": ["outer", "--dfz-max-s", "6"],
        "export-json": ["export", "--what", "rbar"],
        "export-text": ["export", "--what", "exl-table"],
        "export-csv": ["export", "--what", "fouratom-dist", "--p", "0.3"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("target, message", [("missing/out.txt", "No such file or directory"),
                                                 ("", "Is a directory")])
    def test_fails_before_the_work(self, capsys, tmp_path, monkeypatch, command, target,
                                   message):
        dist, cloud = tmp_path / "dist.csv", tmp_path / "cloud.csv"
        assert run(capsys, "export", "--what", "fouratom-dist", "--p", "0.3",
                   "-o", str(dist))[0] == 0
        cloud.write_text("alpha,beta,gamma,delta,source\n" + "".join(
            ",".join(map(repr, row)) + ",fixed\n" for row in fixed_cloud(12)))
        monkeypatch.setattr(engine, "_run_all_restarts", _no_search)
        path = tmp_path / target
        argv = [a.format(dist=dist, cloud=cloud) for a in self.COMMANDS[command]]
        before = sorted(tmp_path.iterdir())
        code, out, err = run(capsys, *argv, "-o", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: {message}\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_check_leaves_files_as_found(self, capsys, tmp_path):
        kept = tmp_path / "kept.json"
        kept.write_text("old")
        core._check_writable(kept)
        assert kept.read_text() == "old"
        core._check_writable(tmp_path / "new.json")
        assert list(tmp_path.iterdir()) == [kept]

    def test_library_writers_name_the_file(self, tmp_path):
        path = tmp_path / "missing" / "f.json"
        for write in (lambda: save_set_function(matroid_rank(GroundSet("ijkl"), 2), path),
                      lambda: save_distribution(four_atom_distribution(0.3), path),
                      lambda: save_distribution(four_atom_distribution(0.3),
                                                path.with_suffix(".csv"))):
            with pytest.raises(ValueError, match=f"^{re.escape(str(path.parent))}/f"
                                                 r"\.(json|csv): No such file or directory$"):
                write()


class TestDistributionGoldens:
    """Distribution files and the entropy file of a distribution, recorded
    before distributions were array-backed and compared byte for byte."""

    def test_export_fouratom_dist_csv(self, capsys, tmp_path):
        out = tmp_path / "d.csv"
        code, _, _ = run(capsys, "export", "--what", "fouratom-dist", "--p", "0.35",
                         "-o", str(out))
        assert code == 0
        assert out.read_bytes() == (GOLDENS / "fouratom_dist.csv").read_bytes()

    def test_export_exl_dist_json(self, capsys, tmp_path):
        out = tmp_path / "d.json"
        code, _, _ = run(capsys, "export", "--what", "exl-dist", "--default", "-o", str(out))
        assert code == 0
        assert out.read_bytes() == (GOLDENS / "exl_dist.json").read_bytes()

    def test_entropy_of_3242_csv(self, capsys, tmp_path):
        out = tmp_path / "h.json"
        code, _, _ = run(capsys, "entropy", str(GOLDENS / "dist3242.csv"), "-o", str(out))
        assert code == 0
        assert out.read_bytes() == (GOLDENS / "entropy3242.json").read_bytes()


class TestRejectedDistributionFiles:
    def test_duplicate_csv_rows_exit_two(self, capsys, tmp_path):
        """A repeated configuration is rejected, not merged into one atom."""
        dist = tmp_path / "dup.csv"
        dist.write_text("x_i,x_j,x_k,x_l,prob\n0,0,0,0,0.5\n0,0,0,0,0.5\n1,1,1,1,0.5\n")
        code, out, err = run(capsys, "entropy", str(dist))
        assert code == 2
        assert "duplicate configuration (0, 0, 0, 0)" in err
        assert out == ""

    @pytest.mark.parametrize("field, value", [("config", [0, 0, 0, True]),
                                              ("alphabet_sizes", [2, 2, True, 2])])
    def test_bool_symbols_exit_two(self, capsys, tmp_path, field, value):
        doc = {"labels": ["i", "j", "k", "l"], "alphabet_sizes": [2, 2, 2, 2],
               "atoms": [{"config": [0, 0, 0, 0], "prob": 0.5},
                         {"config": [1, 1, 1, 1], "prob": 0.5}]}
        if field == "config":
            doc["atoms"][0]["config"] = value
        else:
            doc[field] = value
        dist = tmp_path / "d.json"
        dist.write_text(json.dumps(doc))
        code, _, err = run(capsys, "entropy", str(dist))
        assert code == 2
        assert "malformed distribution document" in err


    def test_bool_probability_exits_two(self, capsys, tmp_path):
        """JSON true is not the probability 1.0."""
        dist = tmp_path / "d.json"
        dist.write_text(json.dumps({"labels": ["i", "j"], "alphabet_sizes": [1, 1],
                                    "atoms": [{"config": [0, 0], "prob": True}]}))
        code, out, err = run(capsys, "entropy", str(dist))
        assert code == 2
        assert "malformed distribution document" in err
        assert out == ""

    @pytest.mark.parametrize("row", ["1_0,0,1.0", "0,0,0_5\n1,0,0.5"])
    def test_underscore_in_csv_number_exits_two(self, capsys, tmp_path, row):
        """int() and float() accept digit-group underscores; the reader does not."""
        dist = tmp_path / "d.csv"
        dist.write_text(f"x_i,x_j,prob\n{row}\n")
        code, out, err = run(capsys, "entropy", str(dist))
        assert code == 2
        assert "underscore" in err
        assert out == ""

    def test_csv_fields_may_have_surrounding_spaces(self, capsys, tmp_path):
        dist = tmp_path / "d.csv"
        dist.write_text("x_i,x_j,prob\n 0 , 1 , 0.5 \n1,0, 0.5\n")
        code, _, _ = run(capsys, "entropy", str(dist))
        assert code == 0


class TestNumericFlags:
    """A numeric flag is read by the number rule of CSV fields: int() and
    float() accept digit-group underscores ("1_0" is 10), the flags do not."""

    @pytest.mark.parametrize("argv, kind", [
        (["minimize", "--restarts", "1_0"], "int"),
        (["minimize", "--budget", "5_0"], "int"),
        (["minimize", "--seed", "1_0"], "int"),
        (["cloud", "-o", "cloud.csv", "--directions", "1_0"], "int"),
        (["outer", "--dfz-max-s", "0_6"], "int"),
        (["check", "r3.json", "--tol", "1_0"], "float"),
        (["fouratom", "--p", "0.3_5"], "float"),
        *((["exl", "--p", "0.1", "--q", "0.01", "--r", "0.005", "--s", "0.005",
            "--t", "0.005", f"--{name}", "0.00_5"], "float") for name in "pqrst"),
    ])
    def test_underscore_exits_two(self, capsys, tmp_path, monkeypatch, argv, kind):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(engine, "_run_all_restarts", _no_search)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"argument {argv[-2]}: invalid {kind} value: '{argv[-1]}'" in captured.err

    def test_plain_numbers_still_read(self, capsys):
        code, out, _ = run(capsys, "fouratom", "--p", " 0.25 ")
        assert code == 0
        assert "closed form at p=0.25:" in out

    @pytest.mark.parametrize("alphabet", ["2,1_0,2,2", "2,x,2,2", ""])
    def test_bad_alphabet_names_the_flag(self, capsys, monkeypatch, alphabet):
        monkeypatch.setattr(engine, "_run_all_restarts", _no_search)
        with pytest.raises(SystemExit) as exc:
            main(["minimize", "--alphabet", alphabet])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"argument --alphabet: invalid alphabet value: '{alphabet}'" in captured.err

    def test_alphabet_overrides_config_file(self, capsys, tmp_path):
        cfg, out = tmp_path / "cfg.json", tmp_path / "res.json"
        cfg.write_text(json.dumps({"alphabet_sizes": [3, 2, 2, 2], "restarts": 1,
                                   "budget_evals": 40}))
        code, _, _ = run(capsys, "minimize", "--config", str(cfg), "--alphabet", " 2,2, 2,2",
                         "-o", str(out))
        assert code == 0
        assert json.loads(out.read_text())["config"]["alphabet_sizes"] == [2, 2, 2, 2]


class TestFrameFlag:
    """--frame is one flag, declared once: its help and its error both name
    the comma-separated form of the roles."""

    @pytest.mark.parametrize("argv", [["minimize"], ["cloud", "-o", "c.csv"], ["exl", "--default"],
                                      ["score"]])
    def test_labels_without_commas_exit_two(self, capsys, tmp_path, monkeypatch, rbar_file,
                                            argv):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(engine, "_run_all_restarts", _no_search)
        # score builds the frame while it reads the file, so its error names the file
        files = [rbar_file] if argv == ["score"] else []
        where = f"{rbar_file}: " if files else ""
        code, out, err = run(capsys, *argv, *files, "--frame", "ijkl")
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {where}frame spec needs 4 comma-separated labels, "
                                    "e.g. 'j,i,k,l', got 'ijkl'"]

    @pytest.mark.parametrize("command", ["score", "exl", "minimize", "cloud", "export"])
    def test_help_names_the_form(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "-h"])
        assert "comma-separated" in " ".join(capsys.readouterr().out.split())


def _exit_and_output(capsys, call):
    """(exit code, stdout, stderr) of call(); argparse's exits give the code."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPerCommandParser:
    """main builds only the invoked command's subparser; its help, usage,
    errors and namespaces equal those of the full parser, build_parser()."""

    ERRORS = [[], ["-h"], ["-h", "check"], ["--help", "score", "f"], ["nosuch"],
              ["score", "f", "extra"], ["minimize", "--objective", "bogus"],
              ["cloud"], ["export", "--what", "rbar"],
              *([name, "-h"] for name in cli.COMMANDS)]

    VALID = {
        "check": ["check", "f.json", "--tol", "1e-6"],
        "entropy": ["entropy", "d.csv", "-o", "f.json", "--bits"],
        "score": ["score", "f.json", "--frame", "j,i,k,l"],
        "fouratom": ["fouratom", "--p", "0.25", "--minimize"],
        "exl": ["exl", "--default", "--frame", "i,j,l,k"],
        "minimize": ["minimize", "--alphabet", "2,2,2,2", "--restarts", "2", "--budget",
                     "50", "--seed", "3", "--objective", "tight_score", "--init-dist",
                     "d.csv", "-o", "r.json"],
        "cloud": ["cloud", "--config", "c.json", "--directions", "3", "--optima-only",
                  "--include-vertices", "-o", "c.csv"],
        "hull": ["hull", "c.csv", "-o", "h.obj"],
        "outer": ["outer", "--dfz-max-s", "4", "--ineq-file", "b.json"],
        "export": ["export", "--what", "exl-dist", "--p", "0.1", "--q", "0.01", "--r",
                   "0.005", "--s", "0.005", "--t", "0.005", "-o", "e.csv"],
    }

    @pytest.fixture(autouse=True)
    def _columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("argv", ERRORS, ids=" ".join)
    def test_output_matches_full_parser(self, capsys, argv):
        oracle = _exit_and_output(capsys, lambda: cli.build_parser().parse_args(argv))
        assert oracle[0] in (0, 2)
        assert _exit_and_output(capsys, lambda: main(argv)) == oracle

    @pytest.mark.parametrize("argv, message", [
        ([], "error: the following arguments are required: command\n"),
        (["nosuch"], "error: argument command: invalid choice: 'nosuch'"),
    ], ids=["empty", "nosuch"])
    def test_full_parser_errors_name_the_command_argument(self, capsys, argv, message):
        code, out, err = _exit_and_output(capsys, lambda: main(argv))
        assert (code, out) == (2, "")
        assert message in err

    def test_every_command_has_a_valid_case(self):
        assert list(self.VALID) == list(cli.COMMANDS)

    @pytest.mark.parametrize("argv", VALID.values(), ids=list(VALID))
    def test_namespace_matches_full_parser(self, argv):
        assert (vars(cli.build_parser(argv[0]).parse_args(argv))
                == vars(cli.build_parser().parse_args(argv)))

    def test_objective_choices_are_the_score_objectives(self):
        sub = next(a for a in cli.build_parser("minimize")._actions
                   if isinstance(a, argparse._SubParsersAction))
        objective = next(a for a in sub.choices["minimize"]._actions if a.dest == "objective")
        assert tuple(objective.choices) == engine.SCORE_OBJECTIVES

    def test_one_subparser_and_no_cache(self, capsys, monkeypatch, r3_file):
        registered, built = [], []

        def add_parser(self, name, **kwargs):
            registered.append(name)
            return add_parser_real(self, name, **kwargs)

        def build_parser(*args):
            built.append(build_parser_real(*args))
            return built[-1]

        add_parser_real, build_parser_real = argparse._SubParsersAction.add_parser, cli.build_parser
        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", add_parser)
        monkeypatch.setattr(cli, "build_parser", build_parser)
        assert run(capsys, "score", r3_file)[0] == 0
        assert registered == ["score"]
        assert run(capsys, "score", r3_file)[0] == 0
        assert registered == ["score", "score"]
        assert len(built) == 2 and built[0] is not built[1]


class TestOverflowingInput:
    @pytest.mark.parametrize("direction", [[1e-200, 0, 0], [1e200, 0, 0]])
    def test_config_direction_exits_two(self, capsys, tmp_path, direction):
        assert_direction_moved(capsys, tmp_path,
                               {"alphabet_sizes": [2, 2, 2, 2], "restarts": 1,
                                "budget_evals": 40, "objective": "raw_score",
                                "direction": direction},
                               "squared norm is a normal double")

    def test_directions_file_exits_two(self, capsys, tmp_path):
        dirs, out = tmp_path / "dirs.json", tmp_path / "cloud.csv"
        dirs.write_text("[[1, 0, 0], [1e-200, 0, 0]]")
        code, _, err = run(capsys, "cloud", "--alphabet", "2,2,2,2", "--restarts", "1",
                           "--budget", "20", "--directions-file", str(dirs),
                           "-o", str(out))
        assert code == 2
        assert "squared norm is a normal double" in err
        assert not out.exists()

    def test_outer_huge_coefficients_exit_two(self, capsys, tmp_path):
        bank = tmp_path / "bank.json"
        bank.write_text('[{"name": "huge", "abcd": [1e308, -1e308, 1e308, 1e308]}]')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "outer", "--dfz-max-s", "1",
                                 "--ineq-file", str(bank))
        assert code == 2
        assert "not finite" in err
        assert "region vertices" not in out


class TestBooleanNumbers:
    """JSON true and false are not numbers in set-function or config files."""

    def test_boolean_set_function_value_exits_two(self, capsys, tmp_path, r3_file):
        doc = json.loads(Path(r3_file).read_text())
        doc["values"]["i"] = True
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert "malformed set-function document" in err
        assert out == ""

    def test_boolean_config_direction_exits_two(self, capsys, tmp_path):
        assert_direction_moved(capsys, tmp_path,
                               {"alphabet_sizes": [2, 2, 2, 2], "restarts": 1,
                                "budget_evals": 40, "objective": "raw_score",
                                "direction": [True, False, False]}, "3-vector")
