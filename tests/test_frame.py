"""Ingleton functional, basis expansion, face maps and cross-section weights."""

import itertools
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entropy_toolkit import (
    BasisCoefficients,
    CrossSectionPoint,
    GroundSet,
    IngletonFrame,
    a_map,
    b_map,
    basis_coefficients,
    basis_generators,
    c_sym,
    check_axioms,
    check_point,
    convex_hull_3d,
    cross_section_point,
    delta_given,
    dfz_halfspace,
    e_face_margins,
    entropy_function,
    exl_closed_form,
    EXL_REFERENCE,
    four_atom_distribution,
    four_atom_score,
    in_e_face,
    ingleton_base,
    ingleton_score,
    ingleton_value,
    is_tight,
    matroid_rank,
    modular_from,
    NonPolymatroidWarning,
    pipeline_operator,
    point_from_weights,
    reconstruct,
    relabel,
    section_weight_matrix,
    section_weights,
    SetFunction,
    stv_vec,
    tetra_vertices,
    tight_part,
    violated_instances,
)

from entropy_toolkit import cli, frame as frame_mod
from entropy_toolkit.frame import _coordinate_matrix, _generator_matrix
from entropy_toolkit.search.engine import (DistributionObjective, SearchConfig,
                                           generate_cloud, optimize_distribution)
from entropy_toolkit.search.geometry import active_constraints

from helpers import (
    a_map_by_deltas,
    b_map_by_deltas,
    basis_coefficients_by_deltas,
    basis_generators_by_hand,
    c_sym_by_dicts,
    e_face_margins_by_deltas,
    pipeline_operator_by_deltas,
    rand_distribution,
    rand_modular,
    rand_polymatroid,
    rand_set_function,
    section_weight_matrix_by_deltas,
    tetra_vertices_by_hand,
)


def random_cone_member(rng, frame, scale=2.0):
    """Random conic combination of the eleven generators: a tight function in
    the reversed-Ingleton cone."""
    return reconstruct(BasisCoefficients(*rng.uniform(0.0, scale, 11)), frame)


class TestFrame:
    def test_validation(self, ground):
        with pytest.raises(ValueError):
            IngletonFrame(ground, "i", "j", "k", "k")
        with pytest.raises(ValueError):
            IngletonFrame(GroundSet("ab"), "a", "b", "a", "b")

    def test_from_spec(self, ground):
        fr = IngletonFrame.from_spec(ground, "k,l,i,j")
        assert fr.roles == ("k", "l", "i", "j")

    @pytest.mark.parametrize("labels", ["a", "abc", "abcde"])
    def test_default_needs_four_labels(self, labels):
        """The ground is checked before its labels become roles (a TypeError
        from the unpacking before)."""
        message = f"^frame needs a 4-element ground set, got n={len(labels)}$"
        with pytest.raises(ValueError, match=message):
            IngletonFrame.default(GroundSet(labels))
        with pytest.raises(ValueError, match=message):
            violated_instances(matroid_rank(GroundSet(labels), 1))


class TestIngletonValue:
    def test_modular_annihilated(self, frame, rng):
        for _ in range(10):
            assert ingleton_value(rand_modular(rng, frame.ground), frame) == \
                pytest.approx(0.0, abs=1e-12)

    def test_base_function(self, frame):
        assert ingleton_value(ingleton_base(frame), frame) == -1.0

    def test_function_on_another_ground_is_rejected(self, frame):
        h = matroid_rank(GroundSet("abcd"), 2)
        with pytest.raises(ValueError, match=r"^ground sets differ: \('a', 'b', 'c', 'd'\) "
                                             r"vs \('i', 'j', 'k', 'l'\)$"):
            ingleton_value(h, frame)

    def test_four_atom_identity(self, frame):
        # stv = delta(kl|i) + delta(kl|j) + delta(ij|) - delta(kl|)
        for p in (0.1, 0.25, 0.350457, 0.49):
            h = entropy_function(four_atom_distribution(p))
            direct = ingleton_value(h, frame)
            via_identity = (delta_given(h, "k", "l", "i")
                            + delta_given(h, "k", "l", "j")
                            + delta_given(h, "i", "j")
                            - delta_given(h, "k", "l"))
            assert direct == pytest.approx(via_identity, abs=1e-12)

    def test_balanced(self, frame, rng):
        # stv(h) only sees the tight part
        for _ in range(10):
            h = rand_polymatroid(rng, frame.ground)
            assert ingleton_value(h, frame) == pytest.approx(
                ingleton_value(tight_part(h), frame), abs=1e-10)


class TestIngletonScore:
    def test_base_is_quarter(self, frame):
        assert ingleton_score(ingleton_base(frame), frame) == -0.25

    def test_reference_family_scores(self, frame):
        f = exl_closed_form(EXL_REFERENCE)
        assert ingleton_score(f, frame) == pytest.approx(-0.078277, abs=1e-5)
        assert ingleton_score(tight_part(f), frame) == pytest.approx(
            -0.0912597, abs=1e-6)

    def test_modular_is_zero(self, frame, rng):
        assert ingleton_score(rand_modular(rng, frame.ground) +
                              modular_from(frame.ground, [1] * 4), frame) == \
            pytest.approx(0.0, abs=1e-12)

    def test_zero_rank_rejected(self, frame):
        zero = matroid_rank(frame.ground, 0)
        with pytest.raises(ValueError):
            ingleton_score(zero, frame)

    def test_closed_form_matches_distribution_oracle(self, frame):
        for p in np.linspace(0.0, 0.5, 21):
            h = entropy_function(four_atom_distribution(p))
            assert four_atom_score(p) == pytest.approx(
                ingleton_score(h, frame), abs=1e-10)


class TestViolatedInstances:
    def test_inside_cone_is_empty(self, ground):
        assert violated_instances(matroid_rank(ground, 3)) == []

    def test_base_violates_its_instance(self, frame):
        assert violated_instances(ingleton_base(frame)) == [frozenset("ij")]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, np.array([1e-9]), np.array(1e-9), np.array([1e-9, 1e-9])])
    def test_tolerance_validated(self, frame, bad):
        with pytest.raises(ValueError, match="tolerance"):
            violated_instances(ingleton_base(frame), tol=bad)

    def test_polymatroid_violates_at_most_one(self, frame, rng):
        seen_violation = False
        for _ in range(200):
            h = random_cone_member(rng, frame)
            pairs = violated_instances(h, tol=1e-9)
            assert len(pairs) <= 1
            if pairs:
                assert pairs == [frozenset((frame.i, frame.j))]
                seen_violation = True
        assert seen_violation


class TestBasis:
    def test_generator_count_and_axioms(self, frame):
        gens = basis_generators(frame)
        assert len(gens) == 11
        for g in gens:
            assert check_axioms(g, tol=0.0).is_polymatroid
            assert is_tight(g, tol=0.0)

    def test_linear_independence(self, frame):
        mat = np.array([g.values for g in basis_generators(frame)])
        assert np.linalg.matrix_rank(mat) == 11

    def test_base_reads_off_first_coordinate(self, frame):
        c = basis_coefficients(ingleton_base(frame), frame)
        assert c.c_bar == 1.0
        assert np.max(np.abs(c.as_array()[1:])) == 0.0

    def test_rank_one_reads_off_c_ij(self, frame):
        c = basis_coefficients(matroid_rank(frame.ground, 1), frame)
        expected = np.zeros(11)
        expected[1] = 1.0
        assert np.array_equal(c.as_array(), expected)

    def test_round_trip_random(self, frame, rng):
        for _ in range(300):
            coeffs = rng.uniform(0.0, 3.0, 11)
            g = reconstruct(BasisCoefficients(*coeffs), frame)
            back = basis_coefficients(g, frame)
            assert np.max(np.abs(back.as_array() - coeffs)) <= 1e-9
            assert reconstruct(back, frame).allclose(g, tol=1e-9)


class TestMaps:
    def test_a_map_on_rank_one(self, frame):
        out = a_map(matroid_rank(frame.ground, 1), frame)
        assert out.allclose(matroid_rank(frame.ground, 1, (frame.i,)), tol=0.0)

    def test_b_map_on_rank_three(self, frame):
        out = b_map(matroid_rank(frame.ground, 3), frame)
        assert out.allclose(matroid_rank(frame.ground, 2, (frame.k,)), tol=0.0)

    def test_base_is_fixed_point(self, frame):
        rb = ingleton_base(frame)
        assert a_map(rb, frame).allclose(rb, tol=0.0)
        assert b_map(rb, frame).allclose(rb, tol=0.0)

    def test_commute_exactly(self, frame, rng):
        for _ in range(200):
            g = rand_set_function(rng, frame.ground)
            ab = a_map(b_map(g, frame), frame)
            ba = b_map(a_map(g, frame), frame)
            assert np.array_equal(ab.values, ba.values)

    def test_zeroing_and_preservation(self, frame, rng):
        for _ in range(100):
            g = rand_set_function(rng, frame.ground)
            stv = ingleton_value(g, frame)
            a_out = a_map(g, frame)
            b_out = b_map(g, frame)
            assert abs(delta_given(a_out, frame.i, frame.j)) <= 1e-12
            assert abs(delta_given(b_out, frame.k, frame.l,
                                   (frame.i, frame.j))) <= 1e-12
            assert abs(ingleton_value(a_out, frame) - stv) <= 1e-12
            assert abs(ingleton_value(b_out, frame) - stv) <= 1e-12

    def test_maps_keep_polymatroids_in_reversed_cone(self, frame, rng):
        # apply the face maps to tight polymatroids on the reversed-Ingleton
        # side; outputs must pass the axioms
        checked = 0
        for _ in range(400):
            h = tight_part(rand_polymatroid(rng, frame.ground))
            if ingleton_value(h, frame) > 0:
                continue
            if not check_axioms(h, tol=1e-9).is_polymatroid:
                continue
            assert check_axioms(a_map(h, frame), tol=1e-7).is_polymatroid
            assert check_axioms(b_map(h, frame), tol=1e-7).is_polymatroid
            checked += 1
        assert checked >= 50


class TestSymmetrization:
    def test_orbit_of_two_loop_matroid(self, frame):
        g = frame.ground
        out = c_sym(matroid_rank(g, 1, (frame.i, frame.k)), frame)
        orbit = (matroid_rank(g, 1, (frame.i, frame.k)).values
                 + matroid_rank(g, 1, (frame.j, frame.k)).values
                 + matroid_rank(g, 1, (frame.i, frame.l)).values
                 + matroid_rank(g, 1, (frame.j, frame.l)).values) / 4.0
        assert np.array_equal(out.values, orbit)

    def test_symmetric_fixed_point(self, frame):
        r3 = matroid_rank(frame.ground, 3)
        assert c_sym(r3, frame).allclose(r3, tol=0.0)

    def test_orbit_of_single_loop(self, frame):
        out = c_sym(matroid_rank(frame.ground, 1, (frame.i,)), frame)
        expected = 0.5 * (matroid_rank(frame.ground, 1, (frame.i,))
                          + matroid_rank(frame.ground, 1, (frame.j,)))
        assert out.allclose(expected, tol=0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=15, max_size=15))
    def test_equals_literal_dict_average(self, values):
        """The frame's swaps relabel as the four literal stabilizer dicts
        do, in the same order, so every bit agrees."""
        h = SetFunction(GroundSet("ijkl"), [0.0] + values)
        for frame in ALL_FRAMES:
            assert c_sym(h, frame).values.tobytes() == \
                c_sym_by_dicts(h, frame).values.tobytes()

    def test_invariance_and_preservation(self, frame, rng):
        for _ in range(50):
            h = rand_set_function(rng, frame.ground)
            out = c_sym(h, frame)
            assert relabel(out, {frame.i: frame.j, frame.j: frame.i}).allclose(
                out, tol=1e-12)
            assert relabel(out, {frame.k: frame.l, frame.l: frame.k}).allclose(
                out, tol=1e-12)
            assert ingleton_value(out, frame) == pytest.approx(
                ingleton_value(h, frame), abs=1e-12)
            assert out.rank == pytest.approx(h.rank, abs=1e-12)


class TestTetraVertices:
    def test_values_at_full_set(self, frame):
        for v in tetra_vertices(frame):
            assert v.rank == 1.0

    def test_stv_values(self, frame):
        alpha, beta, gamma, delta_v = tetra_vertices(frame)
        assert ingleton_value(alpha, frame) == -0.25
        for v in (beta, gamma, delta_v):
            assert ingleton_value(v, frame) == 0.0

    def test_polymatroids_and_tight(self, frame):
        for v in tetra_vertices(frame):
            assert check_axioms(v, tol=0.0).is_polymatroid
            assert is_tight(v, tol=0.0)


class TestCrossSection:
    def test_beta_vertex_projects_to_itself(self, frame):
        _, beta, _, _ = tetra_vertices(frame)
        point, h = cross_section_point(beta, frame)
        assert point.as_tuple() == pytest.approx((0.0, 1.0, 0.0, 0.0), abs=1e-12)
        assert h.allclose(beta, tol=1e-12)

    def test_reference_family_point(self, frame):
        f = exl_closed_form(EXL_REFERENCE)
        point, h = cross_section_point(f, frame, source_tag="reference")
        assert point.alpha_w == pytest.approx(0.36972, abs=2e-4)
        assert point.alpha_w == pytest.approx(0.3697358311521, abs=1e-9)
        assert point.weight_sum == pytest.approx(1.0, abs=1e-9)
        assert point.source_tag == "reference"
        # alpha weight is -4 times the projected score
        assert point.alpha_w == pytest.approx(
            -4.0 * ingleton_score(h, frame), abs=1e-12)

    def test_four_atom_point(self, frame):
        h = entropy_function(four_atom_distribution(0.350457))
        point, out = cross_section_point(h, frame)
        assert point.weight_sum == pytest.approx(1.0, abs=1e-9)
        assert point.alpha_w == pytest.approx(-4.0 * four_atom_score(0.350457),
                                              abs=1e-9)

    def test_weights_invariant_under_frame_symmetry(self, frame, rng):
        for _ in range(10):
            f = entropy_function(rand_distribution(rng, frame.ground, (2, 2, 2, 2)))
            base = cross_section_point(f, frame)[0].as_tuple()
            for other in (frame.swapped_ij(), frame.swapped_kl(),
                          frame.swapped_ij().swapped_kl()):
                assert cross_section_point(f, other)[0].as_tuple() == \
                    pytest.approx(base, abs=1e-10)

    def test_round_trip_with_point_from_weights(self, frame):
        f = exl_closed_form(EXL_REFERENCE)
        point, h = cross_section_point(f, frame)
        assert point_from_weights(point, frame).allclose(h, tol=1e-9)

    def test_unnormalized_weights_sum_to_rank(self, frame, rng):
        # on tight functions with the two zeroed coordinates the four weight
        # functionals add up to the value at N
        for _ in range(50):
            g = a_map(b_map(tight_part(rand_polymatroid(rng, frame.ground)),
                            frame), frame)
            assert sum(section_weights(g, frame)) == pytest.approx(
                g.rank, abs=1e-10)

    def test_degenerate_input_rejected(self, frame):
        with pytest.raises(ValueError):
            cross_section_point(modular_from(frame.ground, [1, 1, 1, 1]), frame)

    def test_point_from_weights_validates_sum(self, frame):
        with pytest.raises(ValueError):
            point_from_weights(CrossSectionPoint(0.5, 0.5, 0.5, 0.5), frame)
        # one WEIGHT_SUM_TOL for the five readers of a weight quadruple
        assert frame_mod.WEIGHT_SUM_TOL == 1e-6
        readers = (lambda w: point_from_weights(CrossSectionPoint(*w), frame),
                   lambda w: point_from_weights(w, frame),
                   lambda w: check_point(w, [dfz_halfspace(1)]),
                   lambda w: active_constraints(w, []),
                   lambda w: convex_hull_3d([w]))
        for read in readers:
            with pytest.raises(ValueError, match="sum"):
                read((0.25 + 2e-6, 0.25, 0.25, 0.25))
            read((0.25 + 5e-7, 0.25, 0.25, 0.25))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, np.array([1e-9]), np.array(1e-9), np.array([1e-9, 1e-9])])
    def test_point_from_weights_validates_tolerance(self, frame, bad):
        with pytest.raises(ValueError, match="tolerance"):
            point_from_weights(CrossSectionPoint(5, 5, 5, 5), frame, tol=bad)

    def test_point_from_weights_rejects_non_finite_weights(self, frame):
        with pytest.raises(ValueError, match="weights sum to nan"):
            point_from_weights(CrossSectionPoint(math.nan, 0.5, 0.25, 0.25), frame)

    def test_vertex_weights(self, frame):
        _, _, _, delta_v = tetra_vertices(frame)
        out = point_from_weights(CrossSectionPoint(0.0, 0.0, 0.0, 1.0), frame)
        assert out.allclose(delta_v, tol=0.0)
        quarter = CrossSectionPoint(0.25, 0.25, 0.25, 0.25)
        avg = point_from_weights(quarter, frame)
        assert section_weights(avg, frame) == pytest.approx(
            (0.25, 0.25, 0.25, 0.25), abs=1e-12)

    def test_weight_extraction_inverts_convex_combinations(self, frame, rng):
        # the vertices are linearly independent, so extraction recovers any
        # convex combination
        for _ in range(100):
            w = rng.dirichlet(np.ones(4))
            h = point_from_weights(CrossSectionPoint(*w), frame)
            assert section_weights(h, frame) == pytest.approx(tuple(w), abs=1e-12)


class TestEFace:
    def test_base_lies_in_face(self, frame):
        assert in_e_face(ingleton_base(frame), frame)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, np.array([1e-9]), np.array(1e-9), np.array([1e-9, 1e-9])])
    def test_tolerance_validated(self, frame, bad):
        with pytest.raises(ValueError, match="tolerance"):
            in_e_face(ingleton_base(frame), frame, tol=bad)

    def test_margins_detect_generic_member(self, frame, rng):
        h = random_cone_member(rng, frame) + matroid_rank(frame.ground, 3)
        margins = e_face_margins(h, frame)
        assert set(margins) == {"ij|k", "ij|l", "kl|i", "kl|j", "kl|ij"}
        assert not in_e_face(h, frame)

    def test_face_members_constructed_from_basis(self, frame, rng):
        # zero the five coefficients the face requires; the rest are free
        coeffs = rng.uniform(0.0, 2.0, 11)
        coeffs[[2, 3, 4, 5, 6]] = 0.0
        g = reconstruct(BasisCoefficients(*coeffs), frame)
        assert in_e_face(g, frame)


ALL_FRAMES = [IngletonFrame(GroundSet("ijkl"), *roles)
              for roles in itertools.permutations("ijkl")]


@st.composite
def polymatroids(draw):
    """Conic combinations of uniform-up-to-loops matroids plus a modular part."""
    g = GroundSet("ijkl")
    vals = modular_from(g, draw(st.lists(st.floats(0.0, 0.5), min_size=4,
                                         max_size=4))).values.copy()
    terms = st.tuples(st.integers(0, 15), st.integers(0, 4), st.floats(0.0, 1.0))
    for loops, m, w in draw(st.lists(terms, min_size=1, max_size=6)):
        vals += w * matroid_rank(g, min(m, 4 - bin(loops).count("1")), loops).values
    return SetFunction(g, vals)


class TestPipelineOperator:
    @settings(max_examples=40, deadline=None)
    @given(polymatroids())
    def test_matches_composed_maps(self, f):
        for frame in ALL_FRAMES:
            composed = c_sym(a_map(b_map(tight_part(f), frame), frame), frame)
            assert np.max(np.abs(pipeline_operator(frame) @ f.values
                                 - composed.values)) <= 1e-12

    def test_cached_and_read_only(self, frame):
        op = pipeline_operator(frame)
        assert pipeline_operator(IngletonFrame.default(frame.ground)) is op
        assert not op.flags.writeable

    def test_stv_vec_is_the_ten_term_functional(self, frame, rng):
        h = rand_polymatroid(rng, frame.ground)
        v = h.values
        m = frame.ground.mask
        ten = (v[m("ik")] + v[m("il")] + v[m("jk")] + v[m("jl")] + v[m("kl")]
               - v[m("ij")] - v[m("k")] - v[m("l")] - v[m("ikl")] - v[m("jkl")])
        assert stv_vec(frame) @ v == pytest.approx(ten, abs=1e-12)

    def test_weight_rows_match_delta_formulas(self, rng):
        for frame in ALL_FRAMES:
            h = rand_polymatroid(rng, frame.ground)
            i, j, k, l = frame.roles
            expected = (
                -4.0 * ingleton_value(h, frame),
                delta_given(h, k, l, i) + delta_given(h, k, l, j),
                2.0 * delta_given(h, i, j, k) + 2.0 * delta_given(h, i, j, l),
                delta_given(h, j, l, k) + delta_given(h, i, l, k)
                + delta_given(h, j, k, l) + delta_given(h, i, k, l))
            assert section_weight_matrix(frame) @ h.values == pytest.approx(
                expected, abs=1e-12)

    def test_cross_section_point_warns_on_non_polymatroid(self, frame):
        vals = np.array(ingleton_base(frame).values)
        vals[frame.ground.mask("i")] = -0.5
        with pytest.warns(NonPolymatroidWarning, match="cross_section_point"):
            point, _ = cross_section_point(SetFunction(frame.ground, vals), frame)
        assert point.weight_sum == pytest.approx(1.0, abs=1e-12)


class TestCoordinateSystem:
    """The coordinate and generator matrices against the hand-written basis."""

    @pytest.mark.parametrize("frame", ALL_FRAMES, ids=lambda f: "".join(f.roles))
    def test_coordinates_dual_to_generators(self, frame):
        C, G = _coordinate_matrix(frame), _generator_matrix(frame)
        assert C.shape == (11, 16) and G.shape == (16, 11)
        assert np.array_equal(C @ G, np.eye(11))
        assert not C.flags.writeable and not G.flags.writeable
        assert _coordinate_matrix(IngletonFrame(frame.ground, *frame.roles)) is C

    @pytest.mark.parametrize("frame", ALL_FRAMES, ids=lambda f: "".join(f.roles))
    def test_derived_objects_equal_hand_written(self, frame):
        for got, want in zip(basis_generators(frame), basis_generators_by_hand(frame),
                             strict=True):
            assert np.array_equal(got.values, want.values)
        for got, want in zip(tetra_vertices(frame), tetra_vertices_by_hand(frame),
                             strict=True):
            assert np.array_equal(got.values, want.values)
        assert np.array_equal(section_weight_matrix(frame),
                              section_weight_matrix_by_deltas(frame))
        assert np.array_equal(pipeline_operator(frame), pipeline_operator_by_deltas(frame))
        assert np.array_equal(DistributionObjective(frame, (2, 2, 2, 2)).table[1:5],
                              section_weight_matrix_by_deltas(frame)
                              @ pipeline_operator_by_deltas(frame))

    @pytest.mark.parametrize("frame", ALL_FRAMES, ids=lambda f: "".join(f.roles))
    def test_vertices_read_as_unit_weights(self, frame):
        weights = np.array([section_weights(v, frame) for v in tetra_vertices(frame)])
        assert np.array_equal(weights, np.eye(4))

    def test_read_offs_match_delta_oracles(self, rng):
        for frame in ALL_FRAMES:
            for _ in range(25):
                h = rand_set_function(rng, frame.ground)
                assert np.max(np.abs(basis_coefficients(h, frame).as_array()
                                     - basis_coefficients_by_deltas(h, frame).as_array())
                              ) <= 4e-15
                got, want = e_face_margins(h, frame), e_face_margins_by_deltas(h, frame)
                assert list(got) == list(want)
                assert max(abs(got[key] - want[key]) for key in want) <= 4e-15
                assert np.max(np.abs(a_map(h, frame).values
                                     - a_map_by_deltas(h, frame).values)) <= 4e-15
                assert np.max(np.abs(b_map(h, frame).values
                                     - b_map_by_deltas(h, frame).values)) <= 4e-15

    def test_as_array_in_field_order(self):
        coeffs = BasisCoefficients(*range(11))
        assert np.array_equal(coeffs.as_array(), np.arange(11.0))
        assert BasisCoefficients.from_array(coeffs.as_array()) == coeffs


def _float_weights(point) -> bool:
    return all(type(w) is float for w in point.as_tuple())


class TestPointRecord:
    """A point stores its weights as given, so the producers supply Python
    floats; records are named tuples with the dataclasses' field names."""

    CFG = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=1, budget_evals=40,
                       master_seed=5)

    def test_cross_section_point_weights_are_floats(self, frame, rng):
        dist = rand_distribution(rng, frame.ground, (2, 3, 2, 2))
        point, _ = cross_section_point(entropy_function(dist), frame, source_tag="t")
        assert _float_weights(point) and point.source_tag == "t"

    def test_cloud_points_are_floats(self, frame):
        # 38 evaluated points lie in the tetrahedron at budget 120, none at 40
        cloud = generate_cloud([(1.0, 0.0, 0.0)], replace(self.CFG, budget_evals=120), frame,
                               threads=1)
        assert len(cloud) > 2
        assert all(map(_float_weights, cloud))

    def test_cloud_vertex_corners_are_floats(self, tmp_path, monkeypatch):
        written = []
        monkeypatch.setattr(cli, "_write_cloud_csv",
                            lambda points, path: written.extend(points))
        assert cli.main(["cloud", "--alphabet", "2,2,2,2", "--restarts", "1", "--budget",
                         "20", "--directions", "1", "--include-vertices",
                         "-o", str(tmp_path / "c.csv")]) == 0
        corners = [p for p in written if p.source_tag.startswith("vertex-")]
        assert len(corners) == 3 and all(map(_float_weights, corners))

    def test_best_point_weights_are_floats(self, frame):
        result = optimize_distribution(self.CFG, frame, threads=1)
        assert result.best_point is not None and _float_weights(result.best_point)

    def test_point_is_a_named_tuple(self):
        point = CrossSectionPoint(0.25, 0.5, 0.125, 0.125, source_tag="x")
        assert point.as_tuple() == (0.25, 0.5, 0.125, 0.125)
        assert type(point.as_tuple()) is tuple and len(point.as_tuple()) == 4
        assert point == (0.25, 0.5, 0.125, 0.125, "x") and len(point) == 5
        assert CrossSectionPoint(1.0, 0.0, 0.0, 0.0).source_tag == ""
        assert point._replace(source_tag="y").source_tag == "y"
        assert pickle.loads(pickle.dumps(point)) == point

    def test_coefficients_round_trip(self, frame, rng):
        coeffs = basis_coefficients(rand_set_function(rng, frame.ground), frame)
        assert BasisCoefficients.from_array(coeffs.as_array()) == coeffs
        assert pickle.loads(pickle.dumps(coeffs)) == coeffs
        assert frame_mod._COORDINATES == BasisCoefficients._fields
        assert BasisCoefficients._fields[:3] == ("c_bar", "c_ij", "c_kl_ij")
