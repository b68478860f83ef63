"""What a number is in a file: one rule for every reader.

A JSON number is a real that is not a bool; a CSV number field may carry
surrounding spaces but no ``_`` digit separator.  Every reader follows the
rule, so strings, booleans and ``1_0`` are rejected with exit code 2 instead
of being read as numbers, and written files read back unchanged.
"""

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entropy_toolkit import (
    CrossSectionHalfspace,
    CrossSectionPoint,
    GroundSet,
    LinearInequality,
    SearchConfig,
    SetFunction,
    halfspace_from_json,
    halfspace_to_json,
    inequality_from_json,
    inequality_to_json,
    load_set_function,
    save_set_function,
    set_function_from_json,
    set_function_to_json,
)
from entropy_toolkit import core
from entropy_toolkit.cli import _cloud_array, _read_cloud_csv, _write_cloud_csv, main
from entropy_toolkit.search.engine import MAX_OUTCOME_MIB, check_direction

FOUND_BANK = [{"name": "x", "abcd": ["1", True, 0, "1e0"]}]

finite = st.floats(-1e6, 1e6, allow_nan=False) | st.integers(-1000, 1000)
#: values that a careless reader takes for numbers
not_numbers = (st.booleans()
               | st.sampled_from(["1", "0", "1e0", "-2.5", " 3 ", "nan", "1_0", "0_5"])
               | st.from_regex(r"\A[1-9](_[0-9]{3})+\Z")
               | st.none()
               | st.integers(min_value=2 ** 1024) | st.integers(max_value=-2 ** 1024))
json_values = finite | not_numbers


def is_number(x) -> bool:
    """A real, not a bool, that converts to a double."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) < 2 ** 1024


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- JSON readers ------------------------------------------------------------------

class TestSetFunctionJson:
    GROUND = GroundSet("ijk")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=7, max_size=7))
    def test_round_trip(self, tmp_path_factory, values):
        f = SetFunction(self.GROUND, [0.0] + values)
        back = set_function_from_json(json.loads(json.dumps(set_function_to_json(f))))
        assert back.values.tobytes() == f.values.tobytes()
        path = tmp_path_factory.mktemp("sf") / "f.json"
        save_set_function(f, path)
        first = path.read_bytes()
        save_set_function(load_set_function(path), path)
        assert path.read_bytes() == first

    @settings(max_examples=150, deadline=None)
    @given(st.lists(json_values, min_size=7, max_size=7))
    def test_only_numbers_accepted(self, values):
        keys = [self.GROUND.subset_key(m) for m in range(1, 8)]
        doc = {"labels": list("ijk"), "values": {"": 0, **dict(zip(keys, values))}}
        if all(map(is_number, values)):
            assert set_function_from_json(doc).values.tolist() == [0.0, *map(float, values)]
        else:
            with pytest.raises(ValueError, match="malformed set-function document"):
                set_function_from_json(doc)


class TestInequalityJson:
    GROUND = GroundSet("ijkl")
    KEYS = ["i", "j", "ik", "jl", "ijkl"]

    def vector(self, values) -> np.ndarray:
        vec = np.zeros(self.GROUND.size)
        vec[[self.GROUND.mask(k) for k in self.KEYS]] = [float(v) for v in values]
        return vec

    @settings(max_examples=150, deadline=None)
    @given(st.lists(json_values, min_size=5, max_size=5))
    def test_only_numbers_accepted(self, values):
        doc = {"name": "x", "coefficients": dict(zip(self.KEYS, values))}
        if all(map(is_number, values)) and any(values):
            ineq = inequality_from_json(doc, self.GROUND)
            # == and not bytes: the reader adds each value to 0.0, so -0.0 reads as 0.0
            assert ineq.coefficients.values.tolist() == self.vector(values).tolist()
        else:
            with pytest.raises(ValueError, match="malformed inequality document") as exc:
                inequality_from_json(doc, self.GROUND)
            assert str(exc.value).count("malformed inequality document") == 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False).filter(bool),
                    min_size=5, max_size=5))
    def test_round_trip(self, values):
        ineq = LinearInequality("x", SetFunction(self.GROUND, self.vector(values)))
        back = inequality_from_json(json.loads(json.dumps(inequality_to_json(ineq))),
                                    self.GROUND)
        assert back.name == ineq.name
        assert back.coefficients.values.tobytes() == ineq.coefficients.values.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            LinearInequality("x", SetFunction(self.GROUND, self.vector([bad, 1, 0, 0, 0])))
        doc = json.loads(json.dumps({"name": "x", "coefficients": {"i": bad, "j": 1}}))
        message = (f"malformed inequality document: inequality 'x' coefficients "
                   f"must be finite reals, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            inequality_from_json(doc, self.GROUND)

    def test_keys_of_one_subset_add_up(self):
        doc = {"name": "x", "coefficients": {"ik": 1.5, "j": 1, "ki": 2.0, "kii": -0.25}}
        ineq = inequality_from_json(doc, self.GROUND)
        assert np.flatnonzero(ineq.coefficients.values).tolist() == [2, 5]
        assert (ineq.coefficients("ik"), ineq.coefficients("j")) == (3.25, 1.0)

    def test_overflowing_sum_rejected(self):
        doc = {"name": "x", "coefficients": {"ik": 1e308, "ki": 1e308}}
        # the summed vector is read by SetFunction's array rule
        with pytest.raises(ValueError, match="set function values must be finite reals, got inf"):
            inequality_from_json(doc, self.GROUND)

    @pytest.mark.parametrize("value", [0, 1.5])
    def test_empty_key_rejected(self, value):
        doc = {"name": "x", "coefficients": {"i": 1, "": value}}
        with pytest.raises(ValueError, match="coefficient on the empty set is not allowed"):
            inequality_from_json(doc, self.GROUND)

    @pytest.mark.parametrize("name", [None, 7, ["x"]])
    def test_name_must_be_a_string(self, name):
        with pytest.raises(ValueError, match="malformed inequality document"):
            inequality_from_json({"name": name, "coefficients": {"i": 1}}, self.GROUND)
        with pytest.raises(ValueError, match="malformed halfspace document"):
            halfspace_from_json({"name": name, "abcd": [1, 0, 0, 0]})


class TestHalfspaceJson:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(json_values, min_size=4, max_size=4))
    def test_only_numbers_accepted(self, abcd):
        doc = {"name": "h", "abcd": abcd}
        if all(map(is_number, abcd)) and any(abcd):
            assert halfspace_from_json(doc).abcd == tuple(map(float, abcd))
        else:
            with pytest.raises(ValueError, match="malformed halfspace document") as exc:
                halfspace_from_json(doc)
            assert str(exc.value).count("malformed halfspace document") == 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=4, max_size=4)
           .filter(any))
    def test_round_trip(self, abcd):
        hs = CrossSectionHalfspace("h", *abcd)
        assert halfspace_from_json(json.loads(json.dumps(halfspace_to_json(hs)))) == hs

    @pytest.mark.parametrize("abcd", ["1234", [1, 0, 0], [1, 0, 0, 0, 0], 5])
    def test_abcd_must_be_four_numbers(self, abcd):
        with pytest.raises(ValueError, match="malformed halfspace document"):
            halfspace_from_json({"name": "h", "abcd": abcd})


class TestSearchConfigJson:
    sizes = st.integers(1, 4) | not_numbers | st.sampled_from([2.0, 2.5])
    directions = st.integers(-3, 3) | st.floats(0.25, 4.0) | not_numbers
    counts = st.integers(1, 50) | not_numbers | st.sampled_from([3.0])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(sizes, min_size=4, max_size=4), counts, counts)
    def test_only_numbers_accepted(self, alphabet, restarts, seed):
        doc = {"alphabet_sizes": alphabet, "restarts": restarts, "master_seed": seed,
               "objective": "raw_score"}
        integral = [*alphabet, restarts, seed]
        valid = (all(isinstance(x, int) and not isinstance(x, bool) for x in integral)
                 and all(1 <= s <= 11 for s in alphabet) and max(alphabet) >= 2
                 and restarts >= 1 and seed >= 0
                 # the merge's memory bound, MAX_OUTCOME_MIB over the atoms
                 and restarts <= MAX_OUTCOME_MIB * 2**20 // (8 * math.prod(alphabet)))
        if valid:
            cfg = SearchConfig.from_json(doc)
            assert cfg.alphabet_sizes == tuple(alphabet)
            assert SearchConfig.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg
        else:
            with pytest.raises(ValueError):
                SearchConfig.from_json(doc)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(directions, min_size=3, max_size=3))
    def test_direction_only_numbers_accepted(self, direction):
        """A directions-file entry, read by the one direction rule."""
        if all(map(is_number, direction)) and any(direction):
            assert check_direction(direction) == tuple(map(float, direction))
        else:
            with pytest.raises(ValueError, match="3-vector"):
                check_direction(direction)


# --- CSV readers -------------------------------------------------------------------

class TestCloudCsv:
    good_fields = (st.floats(-10, 10, allow_nan=False).map(repr)
                   | st.integers(-5, 5).map(str)
                   | st.sampled_from([" 0.5", "1.0 ", " -2 ", "1e-3"]))
    bad_fields = st.sampled_from(["1_0", "0_5", "1_000.0", "true", "", "x", "1,0"])

    @staticmethod
    def write(path, rows):
        path.write_text("alpha,beta,gamma,delta,source\n"
                        + "".join(",".join(row) + ",tag\n" for row in rows))

    @staticmethod
    def read_numbers(path):
        """The rows under the number rule alone: ``_read_cloud_csv`` also
        holds them to the hull's row rule (finite, summing to 1)."""
        return core._read_file(path, _cloud_array, parse=csv.reader)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(good_fields | bad_fields, min_size=4, max_size=4),
                    min_size=1, max_size=4))
    def test_only_numbers_accepted(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("cloud") / "c.csv"
        self.write(path, rows)
        try:
            want = [tuple(float(x) for x in row) for row in rows
                    if not any("_" in x or "," in x for x in row)]
        except ValueError:
            want = None
        if want is not None and len(want) == len(rows):
            assert list(map(tuple, self.read_numbers(path).tolist())) == want
        else:
            with pytest.raises(ValueError, match="bad row"):
                self.read_numbers(path)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=4, max_size=4), min_size=1, max_size=5))
    def test_round_trip(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("cloud") / "c.csv"
        _write_cloud_csv([CrossSectionPoint(*row, source_tag="dir0(1,0,0)/r0_x")
                          for row in rows], path)
        assert list(map(tuple, self.read_numbers(path).tolist())) == [tuple(row) for row in rows]

    def test_rows_stream_into_one_array(self, tmp_path):
        """The reader holds no row beyond the one it parses: its peak is the
        (n, 4) float64 array (32 B a row) and that array's last growth."""
        rows = 50_000
        weights = np.random.default_rng(3).dirichlet(np.ones(4), rows)
        path = tmp_path / "c.csv"
        _write_cloud_csv([CrossSectionPoint(*w, source_tag="dir0(1,0,0)/r0_x")
                          for w in weights.tolist()], path)
        tracemalloc.start()
        try:
            got = _read_cloud_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (rows, 4) and np.array_equal(got, weights)
        assert peak <= 64 * rows


# --- the command line ----------------------------------------------------------------

class TestCommandLine:
    """Each input here exited 0 and read a non-number as a number, or ended in
    a traceback, before every reader shared the rule."""

    @pytest.mark.parametrize("bank", [
        FOUND_BANK,
        [{"name": "h", "abcd": "1234"}],
        [{"name": None, "abcd": [1, 0, 0, 0]}],
        [{"name": "x", "coefficients": {"i": "1", "j": True}}],
    ])
    def test_outer_ineq_file(self, capsys, tmp_path, bank):
        path = tmp_path / "bank.json"
        path.write_text(json.dumps(bank))
        code, out, err = run(capsys, "outer", "--dfz-max-s", "1", "--ineq-file", str(path))
        assert code == 2
        assert out == ""
        assert err.count("error:") == 1 and err.count("malformed") == 1

    @pytest.mark.parametrize("row, message", [("1_0,0,0,-9,d", "underscore"),
                                              ("0.5,0.5", "need 5 fields"),
                                              ("0.5,0.5,0,0", "need 5 fields"),
                                              ("true,0,0,1,d", "bad row")])
    def test_hull_cloud_row(self, capsys, tmp_path, row, message):
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("alpha,beta,gamma,delta,source\n"
                         "1.0,0.0,0.0,0.0,a\n0.0,1.0,0.0,0.0,b\n"
                         f"0.0,0.0,1.0,0.0,c\n{row}\n")
        code, out, err = run(capsys, "hull", str(cloud), "-o", str(tmp_path / "h.obj"))
        assert code == 2
        assert out == ""
        assert f"bad row ['{row.split(',')[0]}'" in err and message in err
        assert "inhomogeneous" not in err
        assert not (tmp_path / "h.obj").exists()

    @pytest.mark.parametrize("alphabet", ["1_0,1,1,1", "2,2,2,2_0", "2,2,2,true"])
    def test_minimize_alphabet(self, capsys, tmp_path, alphabet):
        """--alphabet is read by the CSV row rule as an argparse type, so the
        usage error names the flag."""
        out = tmp_path / "res.json"
        with pytest.raises(SystemExit) as exc:
            run(capsys, "minimize", "--alphabet", alphabet, "--restarts",
                "1", "--budget", "10", "-o", str(out))
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"argument --alphabet: invalid alphabet value: '{alphabet}'" in captured.err
        assert not out.exists()

    def test_csv_alphabet_spaces_allowed(self, capsys):
        code, _, _ = run(capsys, "minimize", "--alphabet", "2, 2 ,2,2", "--restarts",
                         "1", "--budget", "10")
        assert code == 0

    @pytest.mark.parametrize("command, doc", [
        ("check", {"labels": ["i"], "values": {"": 0, "i": 10 ** 400}}),
        ("outer", [{"name": "big", "abcd": [10 ** 400, 1, 0, 1]}]),
        ("entropy", {"labels": ["i"], "alphabet_sizes": [1],
                     "atoms": [{"config": [0], "prob": 10 ** 400}]}),
        ("minimize", {"alphabet_sizes": [-10 ** 400, 2, 2, 2], "restarts": 1,
                      "budget_evals": 10}),
        ("cloud", [[-10 ** 400, 0, 0]]),
    ])
    def test_integer_too_large_for_a_double(self, capsys, tmp_path, command, doc):
        """Exits 2 with the reader's message and the file name, not only
        "int too large to convert to float"."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = {"outer": ["--ineq-file", str(path)],
                "minimize": ["--config", str(path)],
                "cloud": ["--directions-file", str(path), "-o", str(tmp_path / "c.csv")],
                }.get(command, [str(path)])
        message = {"check": "malformed set-function document",
                   "outer": "malformed halfspace document",
                   "entropy": "malformed distribution document",
                   "minimize": "alphabet sizes must be integers in 1..11, got -1000",
                   "cloud": "direction must be a finite nonzero 3-vector"}[command]
        code, out, err = run(capsys, command, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {path}: ") and message in err

    @pytest.mark.parametrize("argv", [["exl"],
                                      ["export", "--what", "exl-dist", "-o", "d.json"]])
    def test_exl_params_missing(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *argv, "--p", "0.125")
        assert code == 2
        assert "missing ['q', 'r', 's', 't']" in err
        assert not (tmp_path / "d.json").exists()
