"""Core set-function algebra: axioms, generators, convolution, decomposition."""

import contextlib
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entropy_toolkit import (
    GroundSet,
    JointDistribution,
    SetFunction,
    check_axioms,
    closure_of,
    contraction,
    convolution,
    convolve_modular_iterative,
    delta,
    delta_given,
    delta_vec,
    entropy_function,
    is_modular,
    is_tight,
    load_set_function,
    matroid_rank,
    modular_from,
    modular_part,
    parallel_extension,
    pe_contract,
    principal_extension,
    relabel,
    save_set_function,
    set_function_from_json,
    set_function_to_json,
    tight_part,
)
from entropy_toolkit import check_point, core, default_halfspace_bank
from entropy_toolkit.core import (TOL_ANALYTIC, TOL_ENTROPIC, NonPolymatroidWarning,
                                  _is_polymatroid, _square_table, _step_table,
                                  _submask_table)
from entropy_toolkit.frame import (IngletonFrame, cross_section_point, ingleton_base,
                                   ingleton_score, section_weights)

from helpers import (
    check_axioms_by_loops,
    check_axioms_by_witness_search,
    ingleton_score_by_value,
    is_modular_by_report,
    is_polymatroid_by_report,
    section_weights_by_floats,
    warn_if_not_polymatroid_by_report,
    convolution_by_loops,
    convolve_modular_iterative_by_loops,
    is_tight_by_loop,
    matroid_rank_by_loops,
    modular_by_bit_loop,
    full_monotone_ok,
    full_pairwise_submodular_ok,
    parallel_extension_by_loops,
    pe_contract_by_loops,
    principal_extension_by_loops,
    rand_modular,
    rand_polymatroid,
    rand_set_function,
    tight_part_by_product,
)


class TestGroundSet:
    def test_mask_roundtrip(self, ground):
        assert ground.mask("ik") == 0b0101
        assert ground.mask(("i", "k")) == 0b0101
        assert ground.mask(0b1010) == 0b1010
        assert ground.subset_key(0b0101) == "ik"
        assert ground.labels_of(0b1111) == ("i", "j", "k", "l")
        assert ground.mask("") == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            GroundSet([])
        with pytest.raises(ValueError):
            GroundSet("abcdefghi")  # 9 elements
        with pytest.raises(ValueError):
            GroundSet(["i", "i"])
        with pytest.raises(ValueError):
            GroundSet(["i", ""])

    @pytest.mark.parametrize("labels", [[1, 2], ["i", 2], ["i", ["j"]]])
    def test_labels_are_strings(self, labels):
        with pytest.raises(ValueError, match="labels must be nonempty strings"):
            GroundSet(labels)

    def test_mask_errors(self, ground):
        for subset in (16, -1, "z", True, False, np.True_):
            with pytest.raises(ValueError, match=re.escape(repr(subset))):
                ground.mask(subset)


class TestSetFunction:
    def test_invariants(self, ground):
        with pytest.raises(ValueError):
            SetFunction(ground, [1.0] + [0.0] * 15)
        with pytest.raises(ValueError):
            SetFunction(ground, [0.0] * 8)
        with pytest.raises(ValueError):
            SetFunction(ground, [0.0] * 15 + [float("nan")])

    def test_read_only(self, ground):
        f = matroid_rank(ground, 1)
        with pytest.raises(ValueError):
            f.values[3] = 7.0

    def test_arithmetic_keeps_empty_zero(self, ground, rng):
        f = rand_polymatroid(rng, ground)
        g = rand_polymatroid(rng, ground)
        assert (2.0 * f - g + 0.5 * g).values[0] == 0.0


class TestDelta:
    def test_modular_disjoint_pair_is_zero(self, ground):
        f = modular_from(ground, [1, 1, 1, 1])
        assert delta(f, "i", "j") == 0.0

    def test_rank_one_pair(self, ground):
        f = matroid_rank(ground, 1)
        assert delta(f, "i", "j") == 1.0  # 1 + 1 - 1 - 0

    def test_ingleton_base_triples(self, frame):
        f = ingleton_base(frame)
        assert delta(f, "ikl", "jkl") == 1.0  # 4 + 4 - 4 - 3

    def test_conditional_form(self, ground):
        f = matroid_rank(ground, 2)
        assert delta_given(f, "i", "j", "k") == delta(f, "ik", "jk")

    def test_out_of_range(self, ground):
        f = matroid_rank(ground, 1)
        with pytest.raises(ValueError):
            delta(f, 16, 0)


def check_point_at_the_centroid(f, tol):
    return check_point((0.25,) * 4, default_halfspace_bank(1), tol)


class TestCheckAxioms:
    def test_matroid_is_clean(self, ground):
        report = check_axioms(matroid_rank(ground, 3), tol=0.0)
        assert report.is_polymatroid
        assert report.worst_monotone_violation == 0.0
        assert report.worst_submodular_violation == 0.0
        assert report.monotone_witnesses == ()

    def test_negative_singleton_flags_monotone(self, ground):
        vals = [0.0] * 16
        vals[ground.mask("i")] = -1.0
        report = check_axioms(SetFunction(ground, vals))
        assert not report.is_monotone
        assert (0, ground.mask("i")) in report.monotone_witnesses

    def test_ingleton_base_is_polymatroid(self, frame):
        report = check_axioms(ingleton_base(frame), tol=0.0)
        assert report.is_monotone and report.is_submodular

    def test_witnesses_reproduce_worst(self, ground, rng):
        for _ in range(20):
            f = rand_set_function(rng, ground)
            report = check_axioms(f)
            if report.submodular_witnesses:
                a, b = report.submodular_witnesses[0]
                assert delta(f, a, b) == pytest.approx(
                    report.worst_submodular_violation, abs=1e-15)
            if report.monotone_witnesses:
                a, b = report.monotone_witnesses[0]
                assert f.values[b] - f.values[a] == pytest.approx(
                    report.worst_monotone_violation, abs=1e-15)

    def test_elemental_checks_imply_full_conditions(self, rng):
        # the elemental inequalities are equivalent to the full pairwise ones
        for n in (3, 4, 5):
            g = GroundSet("abcdefgh"[:n])
            for _ in range(30):
                f = rand_set_function(rng, g)
                report = check_axioms(f, tol=1e-9)
                assert report.is_submodular == full_pairwise_submodular_ok(f, 1e-9)
                if report.is_polymatroid:
                    assert full_monotone_ok(f, 1e-9)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9,
                                     True, np.True_, "1e-9", None,
                                     np.array([1e-9]), np.array(1e-9),
                                     np.array([1e-9, 1e-9])])
    @pytest.mark.parametrize("check", [check_axioms, is_tight, is_modular,
                                       lambda f, tol: closure_of(f, "i", tol),
                                       check_point_at_the_centroid])
    def test_tolerance_must_be_finite_and_nonnegative(self, ground, check, tol):
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {re.escape(repr(tol))}"):
            check(matroid_rank(ground, 2), tol)


#: finite values whose sums and differences overflow to +-inf
HUGE = (sys.float_info.max, -sys.float_info.max, 1e308, -1e308, 9e307, -9e307)


@st.composite
def axiom_inputs(draw):
    """A set function on n = 1..6 and a tolerance.  Kinds: an exact
    polymatroid (integer combinations of matroid ranks plus an integer
    modular part, so its zero margins are exactly 0, some zeros signed
    -0.0); the same nudged by at most tol/5 per value, so margins fall in
    (-tol, 0); nudged by up to 1, so margins fall below -tol; and finite
    values near +-1e308, whose margins overflow to +-inf."""
    n = draw(st.integers(1, 6))
    g = GroundSet("abcdef"[:n])
    tol = draw(st.sampled_from((0.0, 1e-12, TOL_ANALYTIC, TOL_ENTROPIC, 1e-3)))
    kind = draw(st.sampled_from(("exact", "within", "beyond", "huge")))
    if kind == "huge":
        values = draw(st.lists(st.sampled_from(HUGE + (0.0, -0.0, 1.0))
                               | st.floats(allow_nan=False, allow_infinity=False),
                               min_size=g.size - 1, max_size=g.size - 1))
        return SetFunction(g, [0.0] + values), tol
    values = modular_from(g, draw(st.lists(st.integers(0, 3), min_size=n,
                                           max_size=n))).values
    for _ in range(draw(st.integers(0, 3))):
        loops = draw(st.integers(0, g.size - 1))
        m = draw(st.integers(0, n - bin(loops).count("1")))
        values = values + draw(st.integers(1, 3)) * matroid_rank(g, m, loops).values
    signs = np.array(draw(st.lists(st.booleans(), min_size=g.size, max_size=g.size)))
    values = np.where((values == 0.0) & signs, -0.0, values)
    if kind != "exact":
        scale = tol / 5 if kind == "within" else 1.0
        values[1:] += draw(st.lists(st.floats(-scale, scale), min_size=g.size - 1,
                                    max_size=g.size - 1))
    return SetFunction(g, values), tol


def _same_report(fast, slow) -> bool:
    """Field-for-field equality, every float compared by float.hex."""
    def bits(report):
        return tuple(float.hex(x) if isinstance(x, float) else x
                     for x in vars(report).values())
    return (all(type(a) is type(b) for a, b in zip(vars(fast).values(),
                                                   vars(slow).values()))
            and bits(fast) == bits(slow))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestCheckAxiomsAgainstWitnessSearch:
    """``check_axioms`` searches witnesses only when a margin is below -tol
    and reports exactly what the search on every call reports."""

    @settings(max_examples=400, deadline=None)
    @given(axiom_inputs())
    def test_report_equals_the_oracle(self, case):
        f, tol = case
        assert _same_report(check_axioms(f, tol), check_axioms_by_witness_search(f, tol))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_signed_zero_and_overflowing_margins(self, n):
        g = GroundSet("abcdef"[:n])
        cases = [np.full(g.size, -0.0), np.zeros(g.size)]
        for big in HUGE:
            vals = np.zeros(g.size)
            vals[1::2] = big
            vals[3::4] = -big
            cases.append(vals)
        for vals in cases:
            f = SetFunction(g, vals)
            for tol in (0.0, TOL_ANALYTIC):
                assert _same_report(check_axioms(f, tol),
                                    check_axioms_by_witness_search(f, tol))

    def test_overflow_reports_infinite_violation(self):
        g = GroundSet("ab")
        report = check_axioms(SetFunction(g, [0.0, HUGE[0], 0.0, HUGE[1]]))
        assert report.worst_monotone_violation == -np.inf
        assert report.worst_submodular_violation == 0.0
        assert not report.is_monotone and report.is_submodular

    def test_clean_function_skips_the_witness_search(self, monkeypatch, frame):
        f = ingleton_base(frame)
        want = check_axioms(f, tol=0.0)

        def refuse(*args, **kwargs):
            raise AssertionError("witness search on a function with no negative margin")
        for name in ("flatnonzero", "argsort"):
            monkeypatch.setattr(np, name, refuse)
        report = check_axioms(f, tol=0.0)
        assert report.is_polymatroid and report == want
        with pytest.raises(AssertionError, match="witness search"):
            check_axioms(SetFunction(f.ground, -f.values), tol=0.0)

    @pytest.mark.parametrize("tol", [1e-12, TOL_ANALYTIC, 0.5])
    def test_worst_margin_at_minus_tol(self, tol):
        # the one margin f(a) - f({}) is exactly -tol, and -tol/2 in the second case
        for low in (-tol, -tol / 2):
            f = SetFunction(GroundSet("a"), [0.0, low])
            report = check_axioms(f, tol)
            assert report.worst_monotone_violation == low and report.is_polymatroid
            assert _same_report(report, check_axioms_by_witness_search(f, tol))

    def test_rounding_below_zero_skips_the_witness_search(self, monkeypatch, ground):
        """Entropy functions of sparse distributions whose worst margin rounds a
        few ulps below 0 get the oracle's report with no witness search."""
        rng = np.random.default_rng(5)
        fs = []
        for sizes in [(2, 2, 2, 2), (3, 3, 3, 3)]:
            cells = int(np.prod(sizes))
            for _ in range(60):
                dense = rng.random(cells) * (rng.random(cells) < 0.3)
                dense[0] += 1e-3
                fs.append(entropy_function(
                    JointDistribution.from_dense(ground, sizes, dense / dense.sum())))
        want = [check_axioms_by_witness_search(f, TOL_ENTROPIC) for f in fs]
        ulp = [(f, w) for f, w in zip(fs, want)
               if -TOL_ENTROPIC <= min(w.worst_monotone_violation,
                                       w.worst_submodular_violation) < 0.0]
        assert len(ulp) >= 5

        def refuse(*args, **kwargs):
            raise AssertionError("witness search on margins within tol")
        for name in ("flatnonzero", "argsort"):
            monkeypatch.setattr(np, name, refuse)
        for f, w in ulp:
            assert _same_report(check_axioms(f, TOL_ENTROPIC), w)


#: tolerances of the guard oracle tests: exact, analytic and entropic
GUARD_TOLS = (0.0, TOL_ANALYTIC, TOL_ENTROPIC)


def _planted(tol: float) -> st.SearchStrategy:
    """-tol and the doubles one ulp below and above it."""
    return st.sampled_from((np.nextafter(-tol, -np.inf), -tol, np.nextafter(-tol, np.inf)))


@st.composite
def guard_inputs(draw):
    """A set function on n = 1..8 and a tolerance.  The base is a conic
    combination of matroid ranks plus a modular part in which the elements
    a and b are loops, so f(K + a) = f(K + b) = f(K).  Kinds: the base
    perturbed by up to tol/2, 10 tol or 1e-3 per value; the margin f(a) - f({})
    planted at -tol or one ulp from it (a's submodular defects follow to
    within rounding); the defect delta(f, a, b) planted there (n >= 2); and
    finite values near +-1.7e308, whose margins overflow to +-inf."""
    n = draw(st.integers(1, 8))
    g = GroundSet("abcdefgh"[:n])
    tol = draw(st.sampled_from(GUARD_TOLS))
    kind = draw(st.sampled_from(("perturbed", "monotone", "submodular", "huge")))
    if kind == "huge":
        values = draw(st.lists(st.sampled_from((1.7e308, -1.7e308, 1e308, 0.0, 1.0))
                               | st.floats(-2.0, 2.0), min_size=g.size - 1,
                               max_size=g.size - 1))
        return SetFunction(g, [0.0] + values), tol
    loops = 0b11 if n >= 2 else 0b1
    weights = [0.0] * min(n, 2) + draw(st.lists(st.floats(0.0, 2.0), min_size=n - min(n, 2),
                                                max_size=n - min(n, 2)))
    values = modular_from(g, weights).values.copy()
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.integers(0, g.size - 1)) | loops
        m = draw(st.integers(0, n - bin(extra).count("1")))
        values = values + draw(st.floats(0.0, 3.0)) * matroid_rank(g, m, extra).values
    if kind == "perturbed":
        scale = draw(st.sampled_from((tol / 2, 10 * tol, 1e-3)))
        values[1:] += draw(st.lists(st.floats(-scale, scale), min_size=g.size - 1,
                                    max_size=g.size - 1))
    elif kind == "monotone" or n == 1:
        values[0b1] = draw(_planted(tol))
    else:
        values[0b11] = -draw(_planted(tol))
    return SetFunction(g, values), tol


def _guard_calls(f: SetFunction):
    """The guarded operations that apply to f, each with its guard's name."""
    calls = [(tight_part, "tight_part"), (modular_part, "modular_part")]
    if f.ground.n == 4:
        frame = IngletonFrame.default(f.ground)
        calls.append((lambda h: cross_section_point(h, frame), "cross_section_point"))
    return calls


def _guard_warnings(records) -> list:
    return [(str(w.message), w.category, w.filename) for w in records
            if issubclass(w.category, NonPolymatroidWarning)]


class TestGuardsReadTheMargins:
    """The guards, ``is_modular`` and the CLI read ``check_axioms``' margins
    through ``_is_polymatroid``; verdicts, reports, warnings, scores and
    section weights equal the bodies that read a full report."""

    @settings(max_examples=400, deadline=None)
    @given(guard_inputs())
    def test_verdicts_reports_and_warnings_equal_the_report_bodies(self, case):
        f, tol = case
        with np.errstate(over="ignore", invalid="ignore"):
            assert _is_polymatroid(f, tol) is is_polymatroid_by_report(f, tol)
            assert _same_report(check_axioms(f, tol), check_axioms_by_witness_search(f, tol))
            assert is_modular(f, tol) is is_modular_by_report(f, tol)
            wrong = not is_polymatroid_by_report(f, TOL_ENTROPIC)
            for op, where in _guard_calls(f):
                with warnings.catch_warnings(record=True) as got:
                    warnings.simplefilter("always")
                    with contextlib.suppress(ValueError):  # degenerate or overflowing output
                        op(f)
                with warnings.catch_warnings(record=True) as want:
                    warnings.simplefilter("always")
                    (lambda h: warn_if_not_polymatroid_by_report(h, where))(f)
                got, want = _guard_warnings(got), _guard_warnings(want)
                assert got == want and len(got) == wrong
                if wrong:
                    assert got[0][2] == __file__

    @pytest.mark.parametrize("low", [-1.0, 0.0])
    def test_guards_warn_at_the_caller(self, recwarn, low):
        # recwarn counts every guard's warning; each names the calling line
        g = GroundSet("abcd")
        f = SetFunction(g, matroid_rank(g, 2).values + low * (np.arange(16) == 1))
        for op, _ in _guard_calls(f):
            op(f)
        got = _guard_warnings(recwarn.list)
        assert len(got) == (3 if low else 0)
        assert [w[0].split(":")[0] for w in got] == (
            ["tight_part", "modular_part", "cross_section_point"] if low else [])
        assert all(w[2] == __file__ for w in got)

    @pytest.mark.parametrize("tol", GUARD_TOLS)
    @pytest.mark.parametrize("table", ["monotone", "submodular"])
    def test_planted_margin_at_minus_tol(self, tol, table):
        # one margin exactly -tol passes, one ulp below fails, and a function
        # whose least margin is -tol is a polymatroid; n = 1 has no elemental
        # squares, so its defect table is empty
        for n in (1, 2, 5, 8):
            if table == "submodular" and n == 1:
                continue
            g = GroundSet("abcdefgh"[:n])
            # (one ulp above -0.0 is positive, which moves a margin elsewhere below 0)
            for low, ok in ((-tol, True), (np.nextafter(-tol, -np.inf), False),
                            (np.nextafter(-tol, np.inf), True))[:3 if tol else 2]:
                values = np.zeros(g.size)
                if table == "monotone":
                    values[0b1] = low
                else:
                    values[0b11] = -low
                f = SetFunction(g, values)
                report = check_axioms(f, tol)
                assert getattr(report, f"is_{table}") is ok
                assert report.is_polymatroid is (ok if low == -tol else report.is_polymatroid)
                assert _is_polymatroid(f, tol) is report.is_polymatroid

    def test_each_table_decides(self):
        g = GroundSet("ab")
        # supermodular but monotone, then submodular but not monotone
        for values, mono, sub in (([0.0, 1.0, 1.0, 2.5], True, False),
                                  ([0.0, -1.0, 0.0, -1.0], False, True)):
            f = SetFunction(g, values)
            report = check_axioms(f, 0.0)
            assert (report.is_monotone, report.is_submodular) == (mono, sub)
            assert _is_polymatroid(f, 0.0) is False
            assert is_modular(f, 0.0) is False

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_no_report_is_built(self, monkeypatch, n):
        g = GroundSet("abcdefgh"[:n])
        good = matroid_rank(g, min(n, 2))
        bad = SetFunction(g, np.where(np.arange(g.size) == 1, -1.0, good.values))

        def refuse(*args, **kwargs):
            raise AssertionError("an AxiomReport was built")
        monkeypatch.setattr(core, "AxiomReport", refuse)
        with pytest.raises(AssertionError, match="AxiomReport"):
            check_axioms(good)
        assert _is_polymatroid(good, 0.0) and not _is_polymatroid(bad, 0.0)
        assert is_modular(modular_from(g, [1.0] * n), 0.0)
        assert not is_modular(bad, 0.0)
        for f, wrong in ((good, False), (bad, True)):
            for op, where in _guard_calls(f):
                with warnings.catch_warnings(record=True) as records:
                    warnings.simplefilter("always")
                    with contextlib.suppress(ValueError):
                        op(f)
                assert len(_guard_warnings(records)) == wrong, where

    @settings(max_examples=200, deadline=None)
    @given(guard_inputs())
    def test_score_and_section_weights_equal_the_parent_bodies(self, case):
        f, _ = case
        if f.ground.n != 4:
            f = SetFunction(GroundSet("abcd"), np.resize(f.values, 16) * (np.arange(16) > 0))
        frame = IngletonFrame.default(f.ground)
        with np.errstate(over="ignore", invalid="ignore"):
            assert ([x.hex() for x in section_weights(f, frame)]
                    == [x.hex() for x in section_weights_by_floats(f, frame)])
            try:
                want = ingleton_score_by_value(f, frame).hex()
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    ingleton_score(f, frame)
            else:
                assert ingleton_score(f, frame).hex() == want


class TestMatroidRank:
    def test_free_rank_one(self, ground):
        f = matroid_rank(ground, 1)
        assert all(f.values[I] == min(1, bin(I).count("1")) for I in ground.subsets())

    def test_loops(self, ground):
        f = matroid_rank(ground, 2, "k")
        assert f("k") == 0.0
        assert f("ik") == 1.0
        assert f("ijkl") == 2.0
        assert check_axioms(f, tol=0.0).is_polymatroid

    def test_zero_rank_full_loops(self, ground):
        f = matroid_rank(ground, 0, "ijkl")
        assert np.all(f.values == 0.0)

    def test_rank_out_of_range(self, ground):
        with pytest.raises(ValueError):
            matroid_rank(ground, 4, "i")
        with pytest.raises(ValueError):
            matroid_rank(ground, -1)
        for m in (1.5, True, 2.0):
            message = rf"rank for loop set '' must be an integer in 0\.\.4, got {m!r}"
            with pytest.raises(ValueError, match=message):
                matroid_rank(ground, m)
        assert np.array_equal(matroid_rank(ground, np.int64(2)).values,
                              matroid_rank(ground, 2).values)


class TestModular:
    def test_zero(self, ground):
        assert np.all(modular_from(ground, [0, 0, 0, 0]).values == 0.0)

    def test_all_ones(self, ground):
        f = modular_from(ground, {"i": 1, "j": 1, "k": 1, "l": 1})
        assert f.rank == 4.0
        assert is_modular(f)
        assert not is_tight(f)

    def test_negative_rejected(self, ground):
        with pytest.raises(ValueError):
            modular_from(ground, [1, -1, 0, 0])

    def test_modular_part_of_single_free_element(self, ground):
        # rank-1 matroid whose loops are {j,k,l}: only i carries rank,
        # so the modular part is the indicator weight at i
        h = matroid_rank(ground, 1, "jkl")
        m = modular_part(h)
        assert m("i") == 1.0
        assert m("j") == m("k") == m("l") == 0.0
        # mirrored loop set: the weight moves to l
        m2 = modular_part(matroid_rank(ground, 1, "ijk"))
        assert m2("l") == 1.0 and m2("i") == 0.0

    def test_tightness_flags(self, ground, frame):
        assert is_tight(matroid_rank(ground, 3))
        assert is_tight(ingleton_base(frame))
        assert not is_tight(matroid_rank(ground, 1, "jkl"))


class TestDecomposition:
    def test_non_polymatroid_reported_but_computed(self, ground, rng):
        from entropy_toolkit.core import NonPolymatroidWarning
        vals = [0.0] * 16
        vals[ground.mask("i")] = -1.0
        bad = SetFunction(ground, vals)
        with pytest.warns(NonPolymatroidWarning):
            ti = tight_part(bad)
        with pytest.warns(NonPolymatroidWarning):
            mo = modular_part(bad)
        assert np.all(ti.values + mo.values == bad.values)

    def test_polymatroid_input_is_silent(self, ground, rng):
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error")
            tight_part(rand_polymatroid(rng, ground))

    def test_modular_input_has_zero_tight_part(self, ground):
        h = modular_from(ground, [0.3, 1.2, 0.0, 2.0])
        assert np.max(np.abs(tight_part(h).values)) <= 1e-12

    def test_tight_input_is_fixed(self, ground):
        h = matroid_rank(ground, 3)
        assert np.all(tight_part(h).values == h.values)
        assert np.all(modular_part(h).values == 0.0)

    def test_exact_sum_and_idempotence(self, rng):
        for n in (2, 4, 5):
            g = GroundSet("abcdefgh"[:n])
            for _ in range(50):
                h = rand_polymatroid(rng, g)
                ti, mo = tight_part(h), modular_part(h)
                assert np.all(ti.values + mo.values == h.values)
                assert is_tight(ti, tol=1e-9)
                assert is_modular(mo, tol=1e-9)
                assert np.max(np.abs(tight_part(ti).values - ti.values)) <= 1e-12


class TestConvolution:
    def test_dominating_modular_is_identity(self, ground, rng):
        for _ in range(10):
            f = rand_polymatroid(rng, ground)
            g = modular_from(ground, [f(lab) + rng.uniform(0, 1)
                                      for lab in ground.labels])
            assert convolution(f, g).allclose(f)

    def test_uniform_half_truncates_to_modular(self, ground):
        f = matroid_rank(ground, 3)
        g = modular_from(ground, [0.5] * 4)
        expected = modular_from(ground, [0.5] * 4)
        assert convolution(f, g).allclose(expected)

    def test_modular_pair_takes_min(self, ground, rng):
        a = rand_modular(rng, ground)
        b = rand_modular(rng, ground)
        c = convolution(a, b)
        expected = modular_from(ground, [min(a(lab), b(lab)) for lab in ground.labels])
        assert c.allclose(expected)

    def test_commutative(self, ground, rng):
        f = rand_polymatroid(rng, ground)
        g = rand_polymatroid(rng, ground)
        assert convolution(f, g).allclose(convolution(g, f))

    def test_polymatroid_with_modular_stays_polymatroid(self, ground, rng):
        for _ in range(20):
            f = rand_polymatroid(rng, ground)
            g = rand_modular(rng, ground, scale=2.0)
            assert check_axioms(convolution(f, g)).is_polymatroid

    def test_ground_mismatch(self, ground):
        other = GroundSet("abcd")
        with pytest.raises(ValueError):
            convolution(matroid_rank(ground, 1), matroid_rank(other, 1))

    def test_single_element_laws_exhaustive_n5(self, rng):
        # with g modular dominating f except possibly at one element i, the
        # convolution fixes subsets avoiding i and takes the minimum of
        # f(I) + g(i) and f(iI) on the rest; exhaustive over I for n = 5
        g5 = GroundSet("abcde")
        for _ in range(8):
            f = rand_polymatroid(rng, g5)
            for i in g5.labels:
                others = [lab for lab in g5.labels if lab != i]
                gi = float(rng.uniform(0.0, f(i) + 1.0))
                mod = modular_from(g5, {i: gi, **{j: f(j) + 0.5 for j in others}})
                conv = convolution(f, mod)
                bit = g5.mask(i)
                for I in g5.subsets():
                    if I & bit:
                        continue
                    assert conv.values[I] == pytest.approx(f.values[I], abs=1e-12)
                    expect = min(f.values[I] + gi, f.values[I | bit])
                    assert conv.values[I | bit] == pytest.approx(expect, abs=1e-12)
                if gi >= f(i):
                    assert conv.allclose(f, tol=1e-12)


class TestIterativeConvolution:
    def test_matches_direct_on_random_pairs(self, rng):
        for n in (3, 4, 5, 6):
            g = GroundSet("abcdefgh"[:n])
            for _ in range(40):
                f = rand_polymatroid(rng, g)
                mod = rand_modular(rng, g, scale=2.0)
                direct = convolution(f, mod)
                iterative = convolve_modular_iterative(f, mod)
                assert np.max(np.abs(direct.values - iterative.values)) <= 1e-12

    def test_single_element_cut(self, ground, rng):
        # convolving with a modular function that dominates f except at one
        # element i, where it takes t in [max_j f(ij)-f(j), f(i)], only
        # lowers the value at i to t
        for _ in range(20):
            f = rand_polymatroid(rng, ground)
            for i in ground.labels:
                others = [lab for lab in ground.labels if lab != i]
                lo = max(f((i, j)) - f(j) for j in others)
                hi = f(i)
                if lo > hi - 1e-9:
                    continue
                t = 0.5 * (lo + hi)
                g = modular_from(ground, {i: t, **{j: f(j) + 1.0 for j in others}})
                conv = convolve_modular_iterative(f, g)
                for I in ground.subsets():
                    expect = t if I == ground.mask(i) else f.values[I]
                    assert conv.values[I] == pytest.approx(expect, abs=1e-12)

    def test_rejects_non_modular(self, ground):
        f = matroid_rank(ground, 1)
        with pytest.raises(ValueError):
            convolve_modular_iterative(f, matroid_rank(ground, 2))


class TestContraction:
    def test_empty_contraction_is_identity(self, ground, rng):
        f = rand_polymatroid(rng, ground)
        assert contraction(f, 0) is f

    def test_matroid_contraction(self, ground):
        h = contraction(matroid_rank(ground, 3), "i")
        assert h.ground.labels == ("j", "k", "l")
        for J in h.ground.subsets():
            assert h.values[J] == min(3, 1 + bin(J).count("1")) - 1

    def test_modular_restricts(self, ground, rng):
        f = rand_modular(rng, ground)
        h = contraction(f, "jk")
        assert h.ground.labels == ("i", "l")
        assert h("i") == pytest.approx(f("i"))
        assert h("il") == pytest.approx(f("i") + f("l"))

    def test_full_contraction_rejected(self, ground):
        with pytest.raises(ValueError):
            contraction(matroid_rank(ground, 1), "ijkl")


class TestExtensions:
    def test_parallel_to_singleton(self, ground, rng):
        f = rand_polymatroid(rng, ground)
        h = parallel_extension(f, "i", "0")
        assert h("0") == f("i")
        assert h("0i") == f("i")
        assert h(("0", "j")) == f("ij")

    def test_parallel_to_empty_is_loop(self, ground, rng):
        f = rand_polymatroid(rng, ground)
        h = parallel_extension(f, 0, "0")
        assert h("0") == 0.0
        assert h(("0", "i", "j")) == f("ij")

    def test_parallel_to_full(self, ground, rng):
        f = rand_polymatroid(rng, ground)
        assert parallel_extension(f, "ijkl", "0")("0") == f.rank

    def test_label_collision_and_overflow(self, ground, rng):
        f = rand_polymatroid(rng, ground)
        with pytest.raises(ValueError):
            parallel_extension(f, "i", "j")
        g8 = GroundSet("abcdefgh")
        with pytest.raises(ValueError):
            parallel_extension(matroid_rank(g8, 2), "a", "x")

    def test_principal_extension_matches_convolution_route(self, ground, rng):
        # principal extension = parallel extension convolved with the modular
        # function valued t at the new element and f(i) elsewhere
        for _ in range(15):
            f = rand_polymatroid(rng, ground)
            L = int(rng.integers(1, 16))
            t = float(rng.uniform(0.0, f.values[L]))
            direct = principal_extension(f, L, t)
            par = parallel_extension(f, L, "0")
            mod = modular_from(par.ground,
                               {"0": t, **{lab: f(lab) for lab in ground.labels}})
            assert direct.allclose(convolution(par, mod), tol=1e-12)

    def test_principal_extension_is_polymatroid(self, ground, rng):
        for _ in range(10):
            f = rand_polymatroid(rng, ground)
            L = int(rng.integers(1, 16))
            t = float(rng.uniform(0.0, f.values[L]))
            assert check_axioms(principal_extension(f, L, t)).is_polymatroid
            assert check_axioms(pe_contract(f, L, t)).is_polymatroid

    def test_value_out_of_range(self, ground):
        f = matroid_rank(ground, 2)
        with pytest.raises(ValueError):
            principal_extension(f, "ij", 2.5)
        with pytest.raises(ValueError):
            pe_contract(f, "ij", -0.5)

    @pytest.mark.parametrize("bad", [True, np.True_, "0.5"])
    @pytest.mark.parametrize("extend", [principal_extension, pe_contract])
    def test_value_must_be_real(self, ground, extend, bad):
        message = f"extension value t must be a finite real in .*, got {re.escape(repr(bad))}"
        with pytest.raises(ValueError, match=message):
            extend(matroid_rank(ground, 2), "ij", bad)


class TestPeContract:
    def test_zero_value_is_identity(self, ground, rng):
        f = rand_polymatroid(rng, ground)
        assert pe_contract(f, "ik", 0.0).allclose(f)

    def test_truncation_of_modular(self, ground):
        f = modular_from(ground, [1, 1, 1, 1])
        h = pe_contract(f, "ijkl", 1.0)
        assert all(h.values[I] == min(bin(I).count("1"), 3) for I in ground.subsets())

    def test_matches_principal_extension_contraction(self, ground, rng):
        for _ in range(15):
            f = rand_polymatroid(rng, ground)
            L = int(rng.integers(1, 16))
            t = float(rng.uniform(0.0, f.values[L]))
            ext = principal_extension(f, L, t)
            assert pe_contract(f, L, t).allclose(contraction(ext, "0"), tol=1e-12)

    def test_piecewise_form_when_value_is_small(self, ground, rng):
        # when t stays below min over I (with L not inside cl(I)) of
        # max over el in L - cl(I) of f(el + I) - f(I), the contraction is
        # f - t on subsets whose closure swallows L and f elsewhere
        checked = 0
        for _ in range(60):
            f = rand_polymatroid(rng, ground)
            L = int(rng.integers(1, 16))
            bound = f.values[L]
            for I in ground.subsets():
                cl = closure_of(f, I)
                if L & ~cl == 0:
                    continue
                best = max(f.values[I | (1 << b)] - f.values[I]
                           for b in range(4) if (L & ~cl) >> b & 1)
                bound = min(bound, best)
            if bound <= 1e-9:
                continue
            t = 0.9 * min(bound, f.values[L])
            h = pe_contract(f, L, t)
            for I in ground.subsets():
                if L & ~closure_of(f, I) == 0 and I != 0:
                    assert h.values[I] == pytest.approx(f.values[I] - t, abs=1e-9)
                elif I != 0:
                    assert h.values[I] == pytest.approx(f.values[I], abs=1e-9)
            checked += 1
        assert checked >= 10


class TestClosure:
    def test_loops_close_empty_set(self, ground):
        f = matroid_rank(ground, 1, "i")
        assert closure_of(f, 0) == ground.mask("i")

    def test_strictly_increasing_closure_is_self(self, ground):
        f = modular_from(ground, [1, 1, 1, 1])
        assert closure_of(f, 0) == 0
        assert closure_of(f, "jk") == ground.mask("jk")

    def test_full_set(self, ground, rng):
        f = rand_polymatroid(rng, ground)
        assert closure_of(f, "ijkl") == ground.full_mask

    def test_closure_has_equal_value(self, ground, rng):
        for _ in range(20):
            f = rand_polymatroid(rng, ground)
            for I in ground.subsets():
                cl = closure_of(f, I, tol=1e-9)
                assert f.values[cl] <= f.values[I] + 4 * 1e-9


class TestRelabel:
    def test_swap(self, ground):
        f = matroid_rank(ground, 1, "i")
        h = relabel(f, {"i": "j", "j": "i"})
        assert h("j") == 0.0 and h("i") == 1.0

    def test_rejects_non_permutation(self, ground):
        with pytest.raises(ValueError):
            relabel(matroid_rank(ground, 1), {"i": "j"})
        with pytest.raises(ValueError, match=r"keys outside it: \['x'\]"):
            relabel(matroid_rank(ground, 1), {"x": "y"})
        with pytest.raises(ValueError):
            relabel(matroid_rank(ground, 1), {"i": 1, "j": "i"})


class TestJsonFormat:
    def test_roundtrip(self, ground, rng, tmp_path):
        f = rand_polymatroid(rng, ground)
        path = tmp_path / "f.json"
        save_set_function(f, path)
        assert load_set_function(path).allclose(f, tol=0.0)

    def test_keys_are_sorted_label_strings(self, frame):
        doc = set_function_to_json(ingleton_base(frame))
        assert doc["values"][""] == 0.0
        assert doc["values"]["ik"] == 3.0
        assert set(doc["values"]) == {
            "", "i", "j", "ij", "k", "ik", "jk", "ijk",
            "l", "il", "jl", "ijl", "kl", "ikl", "jkl", "ijkl"}

    def test_reader_enforces_empty_zero(self, frame):
        doc = set_function_to_json(ingleton_base(frame))
        doc["values"][""] = 0.5
        with pytest.raises(ValueError):
            set_function_from_json(doc)

    def test_reader_enforces_completeness(self, frame):
        doc = set_function_to_json(ingleton_base(frame))
        del doc["values"]["ik"]
        with pytest.raises(ValueError):
            set_function_from_json(doc)


class TestDeltaVec:
    def test_matches_delta_given(self, ground, rng):
        f = rand_set_function(rng, ground)
        for a, b, given in [("i", "j", ""), ("k", "l", "ij"), ("ik", "jk", "l"),
                            ("i", "ij", ""), ("i", "i", "k")]:
            vec = delta_vec(ground, a, b, given)
            assert vec @ f.values == pytest.approx(delta_given(f, a, b, given), abs=1e-12)


class TestJsonKeyCollisions:
    """Labels a, b, ab give the subsets {a, b} and {ab} the same key "ab"."""

    def test_writer_rejects_colliding_keys(self):
        g = GroundSet(["a", "b", "ab"])
        with pytest.raises(ValueError, match="same JSON key"):
            set_function_to_json(matroid_rank(g, 2))

    def test_reader_rejects_colliding_keys(self):
        keys = ["", "a", "b", "ab", "aab", "bab", "abab"]
        doc = {"labels": ["a", "b", "ab"],
               "values": {k: float(len(k) > 0) for k in keys}}
        with pytest.raises(ValueError, match="same JSON key"):
            set_function_from_json(doc)


class TestBitMatrixAgainstLoops:
    @pytest.mark.parametrize("singletons", [[True, False, 1, 1], ["1", 1, 1, 1],
                                            [np.True_, 1, 1, 1],
                                            {"i": 1, "j": 1, "k": 1, "l": "1"}])
    def test_modular_from_rejects_non_reals(self, ground, singletons):
        values = singletons.values() if isinstance(singletons, dict) else singletons
        with pytest.raises(ValueError, match=re.escape(repr(list(values)))):
            modular_from(ground, singletons)

    def test_modular_from_and_parts(self, rng):
        g = GroundSet("abcdefgh")
        per_bit = list(rng.uniform(0.0, 3.0, g.n))
        assert np.max(np.abs(modular_from(g, per_bit).values
                             - modular_by_bit_loop(g, per_bit))) <= 1e-13
        h = rand_polymatroid(rng, g)
        incr = [h.rank - h.values[g.full_mask ^ (1 << b)] for b in range(g.n)]
        assert np.max(np.abs(modular_part(h).values
                             - modular_by_bit_loop(g, incr))) <= 1e-13

    def test_relabel_and_contraction(self, rng):
        g = GroundSet("abcdef")
        f = rand_set_function(rng, g)
        perm = dict(zip("abcdef", "cafbed"))
        h = relabel(f, perm)
        for I in g.subsets():
            assert h(tuple(perm[lab] for lab in g.labels_of(I))) == f.values[I]
        c = contraction(f, "be")
        for J in c.ground.subsets():
            expected = f(c.ground.labels_of(J) + ("b", "e")) - f("be")
            assert c.values[J] == (expected if J else 0.0)



def _lattice_families(rng, n: int) -> list[SetFunction]:
    """A random polymatroid, a Gaussian vector, a polymatroid perturbed at
    1e-8, and an integer-valued function whose margins tie often."""
    g = GroundSet("abcdefgh"[:n])
    poly = rand_polymatroid(rng, g)
    out = [poly]
    for vals in (rng.normal(size=g.size),
                 poly.values + 1e-8 * rng.normal(size=g.size),
                 rng.integers(-2, 3, g.size).astype(float)):
        vals[0] = 0.0
        out.append(SetFunction(g, vals))
    return out


def _same_bits(fast: SetFunction, slow: SetFunction) -> bool:
    return (fast.ground == slow.ground
            and fast.values.tobytes() == slow.values.tobytes())


@pytest.mark.filterwarnings("ignore::entropy_toolkit.core.NonPolymatroidWarning")
class TestMaskTablesAgainstLoops:
    """The mask-table operations reproduce the per-subset loops bit for bit."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_check_axioms_and_tightness(self, rng, n):
        for _ in range(3):
            for f in _lattice_families(rng, n):
                for tol in (0.0, 1e-9, 1e-7):
                    fast, slow = check_axioms(f, tol), check_axioms_by_loops(f, tol)
                    assert fast == slow
                    assert repr(fast) == repr(slow)
                    assert is_tight(f, tol) is is_tight_by_loop(f, tol)
                assert _same_bits(tight_part(f), tight_part_by_product(f))

    def test_integer_family_ties_witness_margins(self, rng):
        """Witness order is put to the test only where margins tie."""
        f = _lattice_families(rng, 8)[3]
        report = check_axioms(f, 0.0)
        mono = [f.values[q] - f.values[p] for p, q in report.monotone_witnesses]
        sub = [delta(f, p, q) for p, q in report.submodular_witnesses]
        for margins in (mono, sub):
            assert len(margins) > 100 and len(set(margins)) < 10

    @pytest.mark.parametrize("n", range(1, 9))
    def test_convolutions(self, rng, n):
        for _ in range(3):
            for f in _lattice_families(rng, n):
                mod = rand_modular(rng, f.ground)
                assert _same_bits(convolution(f, mod), convolution_by_loops(f, mod))
                assert _same_bits(convolution(f, f), convolution_by_loops(f, f))
                assert _same_bits(convolve_modular_iterative(f, mod),
                                  convolve_modular_iterative_by_loops(f, mod))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_extensions_and_matroids(self, rng, n):
        for _ in range(3):
            for f in _lattice_families(rng, n):
                L = int(rng.choice(np.flatnonzero(f.values >= 0.0)))
                t = float(rng.uniform(0.0, f.values[L]))
                assert _same_bits(pe_contract(f, L, t), pe_contract_by_loops(f, L, t))
                if n < 8:
                    assert _same_bits(parallel_extension(f, L, "0"),
                                      parallel_extension_by_loops(f, L, "0"))
                    assert _same_bits(principal_extension(f, L, t),
                                      principal_extension_by_loops(f, L, t))
            g = f.ground
            loops = int(rng.integers(0, g.size))
            for m in range(g.n - bin(loops).count("1") + 1):
                assert _same_bits(matroid_rank(g, m, loops),
                                  matroid_rank_by_loops(g, m, loops))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_tables_are_read_only(self, n):
        for table in (*_step_table(n), *_square_table(n), *_submask_table(n)):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[...] = 0


class TestJsonBooleans:
    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_value_rejected(self, frame, value):
        """JSON true and false are not the numbers 1 and 0."""
        doc = set_function_to_json(ingleton_base(frame))
        doc["values"]["i"] = value
        with pytest.raises(ValueError, match="malformed set-function document"):
            set_function_from_json(doc)
