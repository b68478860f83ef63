"""Inequality bank: evaluation, balancedness, DFZ family, point checks."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entropy_toolkit import (
    CrossSectionHalfspace,
    CrossSectionPoint,
    GroundSet,
    IngletonFrame,
    LinearInequality,
    SetFunction,
    check_point,
    cross_section_point,
    default_halfspace_bank,
    dfz_halfspace,
    dfz_linear,
    entropy_function,
    evaluate,
    exl_closed_form,
    EXL_REFERENCE,
    halfspace_from_json,
    halfspace_to_json,
    inequality_from_json,
    inequality_to_json,
    ingleton_base,
    is_balanced,
    load_inequality_file,
    matroid_rank,
    point_from_weights,
    section_halfspace,
    stv_functional,
    symmetrized_zy,
    tetra_vertices,
)

from helpers import (
    check_point_by_pairs,
    dfz_halfspace_closed_form,
    dfz_member_plus_swap,
    evaluate_by_frozenset_loop,
    inequality_of,
    rand_distribution,
    rand_modular,
    rand_polymatroid,
    rand_set_function,
)


class TestEvaluate:
    def test_zero_function(self, frame):
        zero = matroid_rank(frame.ground, 0)
        assert evaluate(symmetrized_zy(frame), zero) == 0.0

    def test_symmetrized_zy_on_base(self, frame):
        # the ten conditional-information terms vanish on the base function,
        # leaving twice its stv value
        assert evaluate(symmetrized_zy(frame), ingleton_base(frame)) == -2.0

    def test_symmetrized_zy_on_alpha_vertex(self, frame):
        alpha = tetra_vertices(frame)[0]
        assert evaluate(symmetrized_zy(frame), alpha) == pytest.approx(-0.5, abs=1e-15)

    def test_symmetrized_zy_on_modular(self, frame, rng):
        for _ in range(10):
            h = rand_modular(rng, frame.ground)
            assert evaluate(symmetrized_zy(frame), h) == pytest.approx(0.0, abs=1e-12)

    def test_key_mismatch(self, frame):
        """A set function on another ground set, even one with the same labels in
        another order, is rejected, and the message names both ground sets."""
        for other in map(GroundSet, ["ijkz", "jikl", "ijklm"]):
            with pytest.raises(ValueError, match="ground sets differ") as exc:
                evaluate(symmetrized_zy(frame), matroid_rank(other, 1))
            assert str(frame.ground.labels) in str(exc.value)
            assert str(other.labels) in str(exc.value)

    def test_matches_frozenset_loop(self, frame, rng):
        """Values agree with the key-by-key sum up to the rounding of a
        different summation order: at most 2 (n - 1) u sum|terms| for n <= 15
        terms and unit roundoff u, below 4e-15 sum|terms|."""
        ground = frame.ground
        builtins = ([symmetrized_zy(frame), stv_functional(frame)]
                    + [dfz_linear(s, frame) for s in range(1, 21)])
        for _ in range(40):
            masks = rng.choice(np.arange(1, ground.size), int(rng.integers(1, 16)),
                               replace=False)
            coeffs = dict(zip(masks.tolist(), rng.uniform(-3.0, 3.0, len(masks))))
            h = (rand_polymatroid if rng.integers(2) else rand_set_function)(rng, ground)
            for ineq in builtins + [inequality_of("random", ground, coeffs)]:
                terms = ineq.coefficients.values * h.values
                assert abs(evaluate(ineq, h) - evaluate_by_frozenset_loop(ineq, h)) \
                    <= 4e-15 * sum(map(abs, terms))

    def test_needs_nonzero_coefficient(self, ground):
        with pytest.raises(ValueError, match="'empty' has no nonzero coefficient"):
            LinearInequality("empty", SetFunction(ground, np.zeros(ground.size)))
        with pytest.raises(ValueError, match="'cancels' has no nonzero coefficient"):
            inequality_from_json({"name": "cancels", "coefficients": {"ik": 1.0, "ki": -1.0}},
                                 ground)


class TestBalanced:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, np.array([1e-9]), np.array(1e-9), np.array([1e-9, 1e-9])])
    def test_tolerance_validated(self, frame, bad):
        with pytest.raises(ValueError, match="tolerance"):
            is_balanced(inequality_of("mono", frame.ground, {1: 1.0}), tol=bad)

    def test_stv_is_balanced(self, frame, rng):
        ineq = stv_functional(frame)
        assert np.count_nonzero(ineq.coefficients.values) == 10
        assert is_balanced_and_kills_modular(ineq, frame, rng)

    def test_monotonicity_functional_not_balanced(self, frame):
        g = frame.ground
        mono = inequality_of("mono-i", g, {g.mask("ijkl"): 1.0, g.mask("jkl"): -1.0})
        assert not is_balanced(mono)

    def test_symmetrized_zy_is_balanced(self, frame, rng):
        assert is_balanced_and_kills_modular(symmetrized_zy(frame), frame, rng)

    def test_dfz_linear_is_balanced(self, frame, rng):
        for s in (1, 2, 5):
            assert is_balanced_and_kills_modular(dfz_linear(s, frame), frame, rng)

    @pytest.mark.parametrize("labels", ["ij", "ijkl", "abcdef"])
    def test_matches_per_element_loop(self, labels, rng):
        """The answer of a per-element loop over the nonzero coefficients, on
        random integer vectors (exact sums) with every element balanced, one
        element off by a random amount, or neither."""
        ground = GroundSet(labels)
        bits = np.arange(ground.size)[:, None] >> np.arange(ground.n) & 1
        for _ in range(200):
            vec = rng.integers(-3, 4, ground.size).astype(float)
            vec[0] = 0.0
            if rng.integers(2):
                # a singleton's coefficient enters its element's sum alone
                vec[1 << np.arange(ground.n)] -= vec @ bits
                vec[1 << int(rng.integers(ground.n))] += rng.choice([0.0, 1.0, 1e-13])
            if not vec.any():
                continue
            ineq = LinearInequality("r", SetFunction(ground, vec))
            c = ineq.coefficients
            want = all(abs(sum(c.values[m] for m in np.flatnonzero(c.values) if m >> b & 1))
                       <= 1e-12 for b in range(ground.n))
            assert is_balanced(ineq) is want


def is_balanced_and_kills_modular(ineq, frame, rng) -> bool:
    if not is_balanced(ineq):
        return False
    h = rand_modular(rng, frame.ground)
    return abs(evaluate(ineq, h)) <= 1e-12


class TestDfzFamily:
    def test_s1_equals_symmetrized_zy_halfspace(self, frame):
        zy = section_halfspace(symmetrized_zy(frame), frame)
        assert dfz_halfspace(1).abcd == zy.abcd
        assert dfz_halfspace(1).abcd == (-0.5, 1.0, 0.0, 1.0)

    def test_s2_s3_coefficients(self):
        assert dfz_halfspace(2).abcd == (-1.5, 1.0, 0.0, 5.0)
        assert dfz_halfspace(3).abcd == (-3.5, 1.0, 0.0, 17.0)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            dfz_halfspace(0)
        with pytest.raises(ValueError):
            dfz_halfspace(21)
        with pytest.raises(ValueError):
            dfz_linear(0, None)

    def test_s_follows_the_integer_rule(self):
        """True is not the integer 1, and a numpy integer is an integer."""
        with pytest.raises(ValueError, match="got True"):
            dfz_halfspace(True)
        with pytest.raises(ValueError, match="got True"):
            default_halfspace_bank(True)
        assert dfz_halfspace(np.int64(2)) == dfz_halfspace(2)

    def test_linear_s1_is_zhang_yeung_shape(self, frame):
        # stv + delta(kl|i) + delta(ik|l) + delta(il|k) with the j-bracket
        # coefficient vanishing at s = 1
        zy = dfz_linear(1, frame)
        f = ingleton_base(frame)
        assert evaluate(zy, f) == -1.0

    def test_linear_valid_on_entropy_functions(self, frame, rng):
        for _ in range(50):
            f = entropy_function(rand_distribution(rng, frame.ground, (2, 2, 2, 2)))
            for s in (1, 2, 3):
                assert evaluate(dfz_linear(s, frame), f) >= -1e-7

    def test_symmetrized_matches_summed_pair(self, frame, rng):
        # the halfspace form is the sum of the instance and its i<->j swap,
        # rewritten in section weights; check the identity on raw functions
        from entropy_toolkit import section_weights
        for s in (1, 2, 4):
            hs = dfz_halfspace(s)
            swapped = dfz_linear(s, frame.swapped_ij())
            straight = dfz_linear(s, frame)
            for _ in range(20):
                f = entropy_function(
                    rand_distribution(rng, frame.ground, (2, 2, 2, 2)))
                lhs = evaluate(straight, f) + evaluate(swapped, f)
                rhs = hs.margin(section_weights(f, frame))
                assert lhs == pytest.approx(rhs, abs=1e-10)


class TestCheckPoint:
    def test_beta_vertex_satisfies_all(self):
        report = check_point((0.0, 1.0, 0.0, 0.0), default_halfspace_bank(10))
        assert report.all_satisfied

    def test_alpha_vertex_violates_zy(self):
        report = check_point((1.0, 0.0, 0.0, 0.0), [dfz_halfspace(1)])
        assert not report.all_satisfied
        name, margin = report.violated[0]
        assert name == "dfz-s1"
        assert margin == pytest.approx(-0.5, abs=1e-15)

    def test_reference_point_satisfies_zy(self, frame):
        point, _ = cross_section_point(exl_closed_form(EXL_REFERENCE), frame)
        report = check_point(point, [dfz_halfspace(1)])
        assert report.all_satisfied

    def test_weight_sum_validated(self):
        with pytest.raises(ValueError):
            check_point((0.5, 0.5, 0.5, 0.5), [dfz_halfspace(1)])

    @pytest.mark.parametrize("weights", [(math.inf, -math.inf, 0.5, 0.5),
                                         (math.nan, 0.5, 0.25, 0.25),
                                         (math.inf, 0.0, 0.0, 0.0)])
    def test_non_finite_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="finite"):
            check_point(weights, default_halfspace_bank(6))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, np.array([1e-9]), np.array(1e-9), np.array([1e-9, 1e-9])])
    def test_tolerance_validated(self, bad):
        with pytest.raises(ValueError, match="tolerance"):
            check_point((1.0, 0.0, 0.0, 0.0), [dfz_halfspace(1)], tol=bad)


@st.composite
def section_quadruples(draw):
    """Weights summing to 1 up to rounding; alpha is negative when the other
    three sum above 1."""
    beta, gamma, delta = (draw(st.floats(-3.0, 3.0)) for _ in range(3))
    return (1.0 - (beta + gamma + delta), beta, gamma, delta)


@st.composite
def halfspace_banks(draw):
    """The DFZ bank up to a random s, random finite halfspaces, or both."""
    bank = default_halfspace_bank(draw(st.integers(1, 20))) if draw(st.booleans()) else []
    coefficients = st.tuples(*[st.floats(-1e3, 1e3)] * 4).filter(any)
    for k in range(draw(st.integers(0 if bank else 1, 8))):
        bank.append(CrossSectionHalfspace(f"h{k}", *draw(coefficients)))
    return bank


class TestCheckPointMatchesPairs:
    """The report's pairs, built when read, equal those of the reference that
    keeps one (name, margin) pair per halfspace, margins bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(section_quadruples(), halfspace_banks(),
           st.one_of(st.just(1e-9), st.floats(0.0, 50.0)))
    def test_same_pairs(self, weights, bank, tol):
        got = check_point(weights, bank, tol=tol)
        ref = check_point_by_pairs(weights, bank, tol=tol)

        def hexed(pairs):
            return [(name, float.hex(m)) for name, m in pairs]
        assert hexed(got.satisfied) == hexed(ref.satisfied)
        assert hexed(got.violated) == hexed(ref.violated)
        assert (got.all_satisfied, got.tol) == (ref.all_satisfied, ref.tol)

    def test_report_holds_names_and_margins(self):
        bank = default_halfspace_bank(3)
        report = check_point((1.0, 0.0, 0.0, 0.0), bank)
        assert report.names == ("dfz-s1", "dfz-s2", "dfz-s3")
        assert report.margins == tuple(hs.a for hs in bank)


FRAMES = ["".join(p) for p in itertools.permutations("ijkl")]


def _frame_of(roles: str) -> IngletonFrame:
    return IngletonFrame.from_spec(GroundSet("ijkl"), ",".join(roles))


class TestSectionHalfspace:
    """A halfspace is the section image of a linear inequality: its values
    at the four tetrahedron vertices."""

    @pytest.mark.parametrize("roles", FRAMES)
    def test_dfz_images_are_the_closed_form(self, roles):
        fr = _frame_of(roles)
        for s in range(1, 21):
            want = dfz_halfspace_closed_form(s)
            for got in (section_halfspace(dfz_member_plus_swap(s, fr), fr), dfz_halfspace(s)):
                assert got.name == want.name
                assert list(map(float.hex, got.abcd)) == list(map(float.hex, want.abcd))
            half = section_halfspace(dfz_linear(s, fr), fr)
            assert tuple(2 * x for x in half.abcd) == want.abcd
        assert symmetrized_zy(fr).coefficients.values.tobytes() == \
            dfz_member_plus_swap(1, fr).coefficients.values.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(section_quadruples(),
           st.dictionaries(st.integers(1, 15), st.floats(-1e3, 1e3), min_size=1).filter(
               lambda c: any(c.values())),
           st.sampled_from(["ijkl", "kilj"]))
    def test_margin_is_the_value_at_the_point(self, weights, coefficients, roles):
        fr = _frame_of(roles)
        ineq = inequality_of("h", fr.ground, coefficients)
        if not any(evaluate(ineq, v) for v in tetra_vertices(fr)):
            with pytest.raises(ValueError, match="all-zero coefficients"):
                section_halfspace(ineq, fr)
            return
        point = CrossSectionPoint(*weights)
        want = evaluate(ineq, point_from_weights(point, fr))
        scale = sum(map(abs, weights)) * sum(map(abs, coefficients.values()))
        # a rounding below the normal range errs by up to half the smallest
        # subnormal, not relative to the value: 1e-12 * scale underflows to 0
        # for a subnormal coefficient such as 5e-324, which both sides
        # round in a few dozen operations
        floor = 64 * math.ulp(0.0)
        assert abs(section_halfspace(ineq, fr).margin(weights) - want) <= 1e-12 * scale + floor

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 15), st.floats(-1e6, 1e6)), min_size=1,
                    unique_by=lambda term: term[0]).filter(lambda t: any(c for _, c in t)),
           st.sampled_from(["ijkl", "kilj"]))
    def test_coefficients_are_evaluate_at_the_vertices(self, terms, roles):
        """Bit for bit."""
        fr = _frame_of(roles)
        ineq = inequality_of("h", fr.ground, dict(terms))
        want = tuple(evaluate(ineq, v) for v in tetra_vertices(fr))
        if not any(want):
            with pytest.raises(ValueError, match="all-zero coefficients"):
                section_halfspace(ineq, fr)
            return
        assert list(map(float.hex, section_halfspace(ineq, fr).abcd)) == list(
            map(float.hex, want))

    def test_makes_no_mask_call(self, frame, monkeypatch):
        """The coefficients are already mask-indexed: no subset is looked up."""
        ineq = dfz_linear(3, frame)
        tetra_vertices(frame)  # built and cached before the spy
        calls = []
        mask = GroundSet.mask
        monkeypatch.setattr(GroundSet, "mask",
                            lambda self, subset: calls.append(subset) or mask(self, subset))
        section_halfspace(ineq, frame)
        dfz_halfspace(3)
        assert calls == []

    def test_label_outside_the_frame(self, frame):
        with pytest.raises(ValueError, match="unknown label 'x'"):
            inequality_from_json({"name": "h", "coefficients": {"x": 1.0, "i": -1.0}},
                                 frame.ground)
        other = GroundSet("ijkx")
        with pytest.raises(ValueError, match="ground sets differ") as exc:
            section_halfspace(inequality_of("h", other, {8: 1.0, 1: -1.0}), frame)
        assert str(frame.ground.labels) in str(exc.value)
        assert str(other.labels) in str(exc.value)

    def test_zero_on_the_section(self, frame):
        # I(i;j) >= 0 vanishes at all four vertices
        mi = inequality_from_json({"name": "mi", "coefficients": {"i": 1, "j": 1, "ij": -1}},
                                  frame.ground)
        with pytest.raises(ValueError, match="'mi' has all-zero coefficients"):
            section_halfspace(mi, frame)


class TestPipelinePointsSatisfyBank:
    def test_randomized_distributions(self, frame, rng):
        bank = default_halfspace_bank(6)
        for sizes in [(2, 2, 2, 2), (3, 3, 2, 2)]:
            for _ in range(60):
                f = entropy_function(rand_distribution(rng, frame.ground, sizes))
                point, _ = cross_section_point(f, frame)
                report = check_point(point, bank, tol=1e-7)
                assert report.all_satisfied, report.violated


class TestWireFormats:
    def test_inequality_roundtrip(self, frame):
        ineq = symmetrized_zy(frame)
        doc = inequality_to_json(ineq)
        assert doc["name"] == "symmetrized-zhang-yeung"
        assert all(key == "".join(sorted(key)) for key in doc["coefficients"])
        back = inequality_from_json(json.loads(json.dumps(doc)), frame.ground)
        assert back.name == ineq.name
        assert back.coefficients.values.tobytes() == ineq.coefficients.values.tobytes()

    def test_halfspace_roundtrip(self):
        hs = dfz_halfspace(4)
        back = halfspace_from_json(halfspace_to_json(hs))
        assert back == hs

    @pytest.mark.parametrize("number", [np.int64(1), np.float32(1.0), np.float64(1.0), 1])
    def test_halfspace_stores_floats(self, number):
        """A halfspace keeps its coefficients as the real rule returns them,
        Python floats, so its document goes through json.dumps (a numpy
        integer or float32 raised "Object of type int64 is not JSON
        serializable")."""
        hs = CrossSectionHalfspace("x", number, 0, 0, 0)
        assert all(type(c) is float for c in hs.abcd)
        assert json.dumps(halfspace_to_json(hs)) == '{"name": "x", "abcd": [1.0, 0.0, 0.0, 0.0]}'

    def test_mixed_file(self, frame, tmp_path):
        path = tmp_path / "bank.json"
        doc = [inequality_to_json(symmetrized_zy(frame)),
               halfspace_to_json(dfz_halfspace(2))]
        path.write_text(json.dumps(doc))
        items = load_inequality_file(path, frame.ground)
        assert isinstance(items[0], LinearInequality)
        assert isinstance(items[1], CrossSectionHalfspace)

    def test_single_object_file(self, ground, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(halfspace_to_json(dfz_halfspace(1))))
        items = load_inequality_file(path, ground)
        assert len(items) == 1

    def test_malformed_entry(self, ground, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"name": "x"}]))
        with pytest.raises(ValueError):
            load_inequality_file(path, ground)

    def test_entry_with_both_keys_rejected(self, ground, tmp_path):
        """Neither reading wins: an entry that is both a halfspace and a
        coefficient vector is an error that names the file and the entry."""
        path = tmp_path / "both.json"
        path.write_text(json.dumps([halfspace_to_json(dfz_halfspace(1)), {
            "name": "both", "abcd": [1, 0, 0, 0], "coefficients": {"i": 1, "j": 1, "ij": -1}}]))
        with pytest.raises(ValueError) as exc:
            load_inequality_file(path, ground)
        assert str(exc.value) == f'{path}: entry 1 has both "coefficients" and "abcd"'

    def test_all_zero_halfspace_rejected(self):
        with pytest.raises(ValueError):
            CrossSectionHalfspace("null", 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_non_finite_halfspace_rejected(self, bad, slot):
        abcd = [-0.5, 1.0, 0.0, 1.0]
        abcd[slot] = bad
        message = f"'bad' coefficient {'abcd'[slot]} must be a finite real in .*, got {bad!r}"
        with pytest.raises(ValueError, match=message):
            CrossSectionHalfspace("bad", *abcd)
        with pytest.raises(ValueError, match=f"malformed halfspace document.*{message}"):
            halfspace_from_json(json.loads(json.dumps({"name": "bad", "abcd": abcd})))


def _keyed(ineq):
    c = ineq.coefficients
    return {c.ground.subset_key(m): c.values[m] for m in np.flatnonzero(c.values)}


class TestBuiltinGoldens:
    """Coefficients of the built-in functionals, recorded from the former
    frozenset-dictionary construction; the labels i, j, k, l are in ground
    order, so each key is sorted."""

    def test_symmetrized_zy(self, frame):
        assert _keyed(symmetrized_zy(frame)) == {
            "i": -1.0, "ij": -2.0, "ik": 4.0, "ikl": -5.0, "il": 4.0, "j": -1.0,
            "jk": 4.0, "jkl": -5.0, "jl": 4.0, "k": -4.0, "kl": 6.0, "l": -4.0}

    def test_dfz_linear(self, frame):
        assert _keyed(dfz_linear(1, frame)) == {
            "i": -1.0, "ij": -1.0, "ik": 3.0, "ikl": -4.0, "il": 3.0, "jk": 1.0,
            "jkl": -1.0, "jl": 1.0, "k": -2.0, "kl": 3.0, "l": -2.0}
        assert _keyed(dfz_linear(2, frame)) == {
            "i": -1.0, "ij": -3.0, "ik": 8.0, "ikl": -12.0, "il": 8.0, "jk": 4.0,
            "jkl": -5.0, "jl": 4.0, "k": -8.0, "kl": 13.0, "l": -8.0}
        assert _keyed(dfz_linear(3, frame)) == {
            "i": -1.0, "ij": -7.0, "ik": 20.0, "ikl": -32.0, "il": 20.0, "jk": 12.0,
            "jkl": -17.0, "jl": 12.0, "k": -24.0, "kl": 41.0, "l": -24.0}

    def test_stv(self, frame):
        assert _keyed(stv_functional(frame)) == {
            "ik": 1.0, "il": 1.0, "jk": 1.0, "jl": 1.0, "kl": 1.0,
            "ij": -1.0, "k": -1.0, "l": -1.0, "ikl": -1.0, "jkl": -1.0}


class TestInequalityJsonLabels:
    def test_multi_character_label_rejected(self):
        ineq = inequality_of("long", GroundSet(["x1", "y", "z2"]), {3: 1.0, 2: -1.0})
        with pytest.raises(ValueError, match=r"single-character labels, got \['x1'\]"):
            inequality_to_json(ineq)

    def test_single_character_labels_round_trip(self):
        ground = GroundSet("yx")
        ineq = inequality_of("short", ground, {3: 1.0, 1: -1.0})
        doc = inequality_to_json(ineq)
        assert doc == {"name": "short", "coefficients": {"y": -1.0, "yx": 1.0}}
        back = inequality_from_json(json.loads(json.dumps(doc)), ground)
        assert back.coefficients.values.tobytes() == ineq.coefficients.values.tobytes()

    def test_key_is_read_one_label_per_character(self):
        """A key names single-character labels, even where the ground set also
        has a label equal to the whole key."""
        ground = GroundSet(["ab", "a", "b"])
        doc = {"name": "x", "coefficients": {"ab": 1.0, "a": -1.0}}
        ineq = inequality_from_json(doc, ground)
        assert np.flatnonzero(ineq.coefficients.values).tolist() == [2, 6]
        assert inequality_to_json(ineq) == {"name": "x", "coefficients": {"a": -1.0, "ab": 1.0}}
