"""Convex hulls of section points and halfspace outer regions."""

import math
import warnings

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection

from entropy_toolkit import (
    CrossSectionHalfspace,
    default_halfspace_bank,
    dfz_halfspace,
)
from entropy_toolkit.search.geometry import (
    Polytope3,
    _affine_constraints,
    _dedupe,
    active_constraints,
    convex_hull_3d,
    hull_to_obj,
    hull_volume,
    outer_region,
)

from helpers import (
    affine_constraints_by_loop,
    dedupe_by_dict,
    fixed_cloud,
    hull_volume_by_qhull,
    outer_region_by_loop,
)

SIMPLEX = [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
           (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)]


def random_simplex_points(rng, count):
    return [tuple(w) for w in rng.dirichlet(np.ones(4), size=count)]


class TestConvexHull:
    def test_tetrahedron(self):
        poly = convex_hull_3d(SIMPLEX)
        assert poly.dim == 3
        assert len(poly.vertices) == 4
        assert len(poly.facets) == 4

    def test_centroid_excluded(self):
        centroid = (0.25, 0.25, 0.25, 0.25)
        poly = convex_hull_3d(SIMPLEX + [centroid])
        assert len(poly.vertices) == 4
        assert centroid not in poly.vertices
        assert hull_volume(poly) == pytest.approx(1 / 6, abs=1e-15)

    def test_random_points_contained(self, rng):
        pts = random_simplex_points(rng, 1000)
        poly = convex_hull_3d(pts)
        assert set(poly.vertices) <= set(pts)
        # points inside the hull leave its volume unchanged when hulled again
        again = convex_hull_3d(list(poly.vertices) + pts[::37])
        assert again.vertices == poly.vertices
        assert hull_volume(again) == pytest.approx(hull_volume(poly), rel=1e-12)

    def test_volume_monotone_under_insertion(self, rng):
        pts = random_simplex_points(rng, 50)
        vol_small = hull_volume(convex_hull_3d(pts))
        vol_large = hull_volume(convex_hull_3d(pts + random_simplex_points(rng, 50)))
        assert vol_large >= vol_small - 1e-12

    def test_coplanar_flagged(self, rng):
        # all points on the beta + gamma = 1 - alpha... fix delta = 0 plane
        pts = [(a, b, 1.0 - a - b, 0.0)
               for a, b in rng.dirichlet(np.ones(3), size=30)[:, :2]]
        poly = convex_hull_3d(pts)
        assert poly.dim == 2
        assert poly.facets == ()
        assert len(poly.vertices) >= 3

    def test_collinear_and_single(self):
        seg = [(1.0 - t, t, 0.0, 0.0) for t in (0.0, 0.25, 0.5, 1.0)]
        poly = convex_hull_3d(seg)
        assert poly.dim == 1
        assert set(poly.vertices) == {(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)}
        single = convex_hull_3d([(0.25, 0.25, 0.25, 0.25)] * 3)
        assert single.dim == 0

    def test_weight_sum_validated(self):
        with pytest.raises(ValueError):
            convex_hull_3d([(1.0, 1.0, 0.0, 0.0)])

    def test_obj_output(self):
        poly = convex_hull_3d(SIMPLEX)
        text = hull_to_obj(poly)
        lines = text.strip().splitlines()
        assert sum(1 for ln in lines if ln.startswith("v ")) == 4
        assert sum(1 for ln in lines if ln.startswith("f ")) == 4


class TestOuterRegion:
    def test_empty_bank_gives_full_simplex(self):
        poly = outer_region([])
        assert poly.dim == 3
        assert len(poly.vertices) == 4
        for v in SIMPLEX:
            assert any(np.allclose(v, w, atol=1e-12) for w in poly.vertices)

    def test_symmetrized_zy_vertices(self):
        poly = outer_region([dfz_halfspace(1)])
        expected = [(2 / 3, 1 / 3, 0.0, 0.0), (2 / 3, 0.0, 0.0, 1 / 3)]
        for target in expected:
            assert any(np.max(np.abs(np.array(v) - target)) <= 1e-9
                       for v in poly.vertices)
        # the alpha corner itself is cut off
        assert not any(np.allclose(v, SIMPLEX[0], atol=1e-9) for v in poly.vertices)

    def test_dfz_cap_on_alpha_beta_edge(self):
        for s in (1, 3, 10):
            poly = outer_region([dfz_halfspace(t) for t in range(1, s + 1)])
            cap = max(v[0] for v in poly.vertices if abs(v[2]) <= 1e-9 and abs(v[3]) <= 1e-9)
            assert cap == pytest.approx(2.0 / (2 ** s + 1), abs=1e-9)

    def test_infeasible_bank_is_empty(self):
        poly = outer_region([CrossSectionHalfspace("nope", -1, -1, -1, -1)])
        assert poly.is_empty
        assert poly.dim == -1

    def test_lower_dimensional_region_flagged(self):
        # beta >= 1/2 and beta <= 1/2 pin the region to a 2-dimensional slice
        bank = [CrossSectionHalfspace("ge", -1, 1, -1, -1),
                CrossSectionHalfspace("le", 1, -1, 1, 1)]
        poly = outer_region(bank)
        assert poly.dim == 2
        assert poly.facets == ()
        for v in poly.vertices:
            assert v[1] == pytest.approx(0.5, abs=1e-9)

    def test_vertices_lie_on_three_constraints(self):
        bank = [dfz_halfspace(s) for s in (1, 2)]
        poly = outer_region(bank)
        for v in poly.vertices:
            assert len(active_constraints(v, bank)) >= 3

    def test_against_scipy_halfspace_oracle(self, rng):
        count = 0
        attempts = 0
        while count < 12 and attempts < 200:
            attempts += 1
            bank = [CrossSectionHalfspace(f"r{n}", *rng.uniform(-1.0, 1.0, 4))
                    for n in range(int(rng.integers(1, 4)))]
            normals, offsets, _ = _affine_constraints(bank)
            interior = _chebyshev_center(normals, offsets)
            if interior is None:
                continue
            halfspaces = np.column_stack([-normals, -offsets])
            oracle = HalfspaceIntersection(halfspaces, interior)
            oracle_pts = np.unique(np.round(oracle.intersections, 9), axis=0)
            ours = np.unique(
                np.round([v[1:] for v in outer_region(bank).vertices], 9), axis=0)
            assert len(ours) == len(oracle_pts)
            assert np.max(np.abs(ours - oracle_pts)) <= 1e-7
            count += 1
        assert count == 12


def _chebyshev_center(normals, offsets):
    """Strictly interior point of {n.x + off >= 0}, or None if too flat."""
    norms = np.linalg.norm(normals, axis=1)
    res = linprog(c=[0, 0, 0, -1],
                  A_ub=np.column_stack([-normals, norms]),
                  b_ub=offsets, bounds=[(None, None)] * 3 + [(0, None)],
                  method="highs")
    if not res.success or res.x[3] < 1e-6:
        return None
    return res.x[:3]


# --- array expressions against the loops they replaced ---------------------------

COEFF = st.one_of(st.integers(-3, 3).map(float),
                  st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False))


@st.composite
def banks(draw):
    """Random banks, with exact copies, positive and negative multiples
    (parallel boundaries, hence singular triples) and an optional
    infeasible halfspace."""
    abcds = draw(st.lists(st.tuples(COEFF, COEFF, COEFF, COEFF).filter(any), max_size=5))
    if abcds:
        copies = draw(st.lists(st.tuples(st.integers(0, len(abcds) - 1),
                                         st.sampled_from([1.0, 2.0, 0.5, -1.0])),
                               max_size=3))
        abcds += [tuple(k * x for x in abcds[i]) for i, k in copies]
    if draw(st.booleans()):
        abcds.append((-1.0, -1.0, -1.0, -1.0))
    return [CrossSectionHalfspace(f"h{n}", *abcd) for n, abcd in enumerate(abcds)]


ZEROISH = st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 5e-13, -5e-13])


@st.composite
def clouds(draw):
    """Rows with exact duplicates, near duplicates within 1e-13 and signed
    zeros, in random order."""
    value = st.one_of(ZEROISH, st.floats(-2.0, 2.0, allow_nan=False))
    rows = draw(st.lists(st.tuples(value, value, value, value), min_size=1, max_size=20))
    extra = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                    st.floats(-1e-13, 1e-13, allow_nan=False)),
                          max_size=20))
    for i, eps in extra:
        rows.append(tuple(-x if x == 0.0 else x + eps for x in rows[i]))
    return np.array(draw(st.permutations(rows)), dtype=float)


def _hexed(constraints):
    """Normals, offsets and names with every float as its hex string, which
    tells -0.0 from 0.0; the shapes are compared too."""
    normals, offsets, names = constraints
    return (normals.shape, [list(map(float.hex, row)) for row in normals.tolist()],
            offsets.shape, list(map(float.hex, offsets.tolist())), names)


def assert_constraints_match_loop(bank):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _affine_constraints(bank)
    assert _hexed(got) == _hexed(affine_constraints_by_loop(bank))


class TestArrayGeometryMatchesLoops:
    def test_constraints_of_default_and_empty_banks(self):
        assert_constraints_match_loop(default_halfspace_bank(20))
        assert_constraints_match_loop([])

    def test_constraints_keep_signed_zeros(self):
        bank = [CrossSectionHalfspace("z1", -0.0, 0.0, -0.0, 1.0),
                CrossSectionHalfspace("z2", 0.0, -0.0, -0.0, -1.0),
                CrossSectionHalfspace("z3", -0.0, -0.0, 1.0, -0.0)]
        assert_constraints_match_loop(bank)
        normals, offsets, _ = _affine_constraints(bank)
        assert math.copysign(1.0, offsets[4]) == -1.0
        assert math.copysign(1.0, normals[5, 0]) == -1.0

    def test_constraints_overflow_to_inf_without_warning(self):
        bank = [CrossSectionHalfspace("up", -1e308, 1e308, 0.0, -1e308),
                CrossSectionHalfspace("down", 1e308, -1e308, 1e308, 0.0)]
        assert_constraints_match_loop(bank)
        normals = _affine_constraints(bank)[0]
        assert normals[4].tolist() == [math.inf, 1e308, 0.0]
        assert normals[5].tolist() == [-math.inf, 0.0, -1e308]

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(banks(), st.lists(
        st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 4).filter(any)
        .map(lambda abcd: CrossSectionHalfspace("h", *abcd)), max_size=6)))
    def test_constraints(self, bank):
        assert_constraints_match_loop(bank)

    def test_default_banks(self):
        for s in range(1, 21):
            bank = [dfz_halfspace(t) for t in range(1, s + 1)]
            assert outer_region(bank) == outer_region_by_loop(bank)

    def test_empty_and_infeasible_banks(self):
        assert outer_region([]) == outer_region_by_loop([])
        nope = [CrossSectionHalfspace("nope", -1, -1, -1, -1)]
        assert outer_region(nope) == outer_region_by_loop(nope) == outer_region(nope * 3)

    @settings(max_examples=150, deadline=None)
    @given(banks())
    def test_outer_region(self, bank):
        assert outer_region(bank) == outer_region_by_loop(bank)

    @settings(max_examples=150, deadline=None)
    @given(clouds())
    def test_dedupe(self, arr):
        assert _dedupe(arr).tobytes() == dedupe_by_dict(arr).tobytes()

    def test_dedupe_keeps_first_signed_zero(self):
        arr = np.array([[-0.0, 1.0], [0.0, 1.0], [1e-13, 1.0], [0.5, 0.5]])
        assert _dedupe(arr).tobytes() == arr[[0, 3]].tobytes()

    def test_fixed_cloud(self):
        pts = np.array(fixed_cloud())
        assert _dedupe(pts).tobytes() == dedupe_by_dict(pts).tobytes()
        assert len(_dedupe(pts)) == 240


class TestRejectedInputs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, np.array([1e-9]), np.array(1e-9), np.array([1e-9, 1e-9])])
    def test_active_constraints_tolerance(self, bad):
        with pytest.raises(ValueError, match="tolerance"):
            active_constraints((2 / 3, 1 / 3, 0.0, 0.0), [dfz_halfspace(1)], tol=bad)

    @pytest.mark.parametrize("row", [(math.nan, 0.5, 0.25, 0.25),
                                     (math.inf, -math.inf, 0.5, 0.5),
                                     (math.inf, 0.0, 0.0, 0.0)])
    def test_non_finite_weights(self, row):
        with pytest.raises(ValueError, match="non-finite"):
            convex_hull_3d(SIMPLEX + [row])

    @pytest.mark.parametrize("abcd", [(1e308, -1e308, 1e308, 1e308),
                                      (-1e308, 1e308, 1e308, 1e308),
                                      (0.0, 1e308, 1e308, 1e308)])
    def test_overflowing_coefficients(self, abcd):
        """Finite coefficients whose chart normals (the first two) or margins
        (the third) overflow are an error, not a silently smaller region."""
        bank = [dfz_halfspace(1), CrossSectionHalfspace("huge", *abcd)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                outer_region(bank)

    def test_tiny_coefficients_warn_nothing(self):
        """A coefficient at the smallest normal double makes singular triples
        whose det divides by zero inside numpy; the region is still the
        simplex (the halfspace is a scaled beta >= 0), with no warning."""
        bank = [CrossSectionHalfspace("h0", 0.0, 2.0, 1.0, 0.0),
                CrossSectionHalfspace("h1", 0.0, 2.2250738585072014e-308, 0.0, 0.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            region = outer_region(bank)
            assert region == outer_region_by_loop(bank)
        assert sorted(region.vertices) == sorted(SIMPLEX)

    def test_large_but_finite_coefficients_kept(self):
        """Scaling a halfspace by 1e300 gives the same region up to rounding."""
        scaled = outer_region([CrossSectionHalfspace("scaled", 1e300, -1e300, 1e300, 1e300)])
        plain = outer_region([CrossSectionHalfspace("plain", 1.0, -1.0, 1.0, 1.0)])
        assert len(scaled.vertices) == len(plain.vertices) == 6
        assert np.allclose(scaled.vertices, plain.vertices, rtol=0.0, atol=1e-15)


class TestOuterRegionQhullFallback:
    """When Qhull rejects the full-dimensional candidate set, outer_region
    returns the sorted feasible vertices without facets or volume."""

    def test_qhull_error_keeps_sorted_vertices(self, monkeypatch):
        bank = default_halfspace_bank(6)
        hulled = outer_region(bank)

        def refuse(*args, **kwargs):
            raise scipy.spatial.QhullError("refused")

        monkeypatch.setattr(scipy.spatial, "ConvexHull", refuse)
        region = outer_region(bank)
        assert region.facets == ()
        assert region.dim == 3
        assert region.vertices == hulled.vertices
        assert list(region.vertices) == sorted(region.vertices, key=lambda v: v[1:])
        assert_python_rows(region)
        assert region.volume == hull_volume(region) == 0.0


# --- the volume a hull stores, and rows of Python numbers ------------------------

@st.composite
def grid_clouds(draw):
    """Section points with weights on a grid of twentieths of their sum:
    duplicates, coplanar and collinear sets and full-dimensional clouds."""
    cells = st.tuples(*[st.integers(0, 20)] * 4).filter(any)
    rows = np.array(draw(st.lists(cells, min_size=1, max_size=30)), dtype=float)
    return rows / rows.sum(axis=1, keepdims=True)


def assert_python_rows(poly):
    """Vertices and facets are tuples of tuples of Python floats and ints."""
    assert type(poly.vertices) is tuple and type(poly.facets) is tuple
    assert all(type(v) is tuple and len(v) == 4 and all(type(x) is float for x in v)
               for v in poly.vertices)
    assert all(type(f) is tuple and len(f) == 3 and all(type(i) is int for i in f)
               for f in poly.facets)
    assert type(poly.volume) is float


def hexed(rows):
    return [[float(x).hex() for x in row] for row in rows]


class TestStoredVolume:
    def test_hull_volume_runs_no_qhull(self, rng, monkeypatch):
        poly = convex_hull_3d(SIMPLEX + random_simplex_points(rng, 40))
        expected = hull_volume_by_qhull(poly)

        def refuse(*args, **kwargs):
            raise AssertionError("hull_volume ran Qhull")

        monkeypatch.setattr(scipy.spatial, "ConvexHull", refuse)
        assert hull_volume(poly) == pytest.approx(expected, rel=1e-12)
        assert hull_volume(poly) == poly.volume

    @settings(max_examples=150, deadline=None)
    @given(grid_clouds())
    def test_clouds_against_second_qhull_run(self, rows):
        poly = convex_hull_3d(rows)
        assert_python_rows(poly)
        if poly.dim < 3:
            assert hull_volume(poly) == 0.0
        assert hull_volume(poly) == pytest.approx(hull_volume_by_qhull(poly), rel=1e-12)

    @pytest.mark.parametrize("s", range(1, 21))
    def test_default_banks_against_second_qhull_run(self, s):
        region = outer_region(default_halfspace_bank(s))
        assert region.dim == 3
        assert hull_volume(region) == pytest.approx(hull_volume_by_qhull(region), rel=1e-12)



class TestRowsAsGiven:
    """Every producer stores Python numbers, with the bits of the rows it
    keeps, and a volume exactly when it has facets."""

    def test_hulls(self, rng):
        cloud = random_simplex_points(rng, 200)
        plane = [(a, b, 1.0 - a - b, 0.0) for a, b in rng.dirichlet(np.ones(3), size=30)[:, :2]]
        seg = [(1.0 - t, t, 0.0, 0.0) for t in (0.0, 0.25, 0.5, 1.0)]
        point = [(0.25, 0.25, 0.25, 0.25)] * 3
        for pts, dim in ((cloud, 3), (plane, 2), (seg, 1), (point, 0)):
            poly = convex_hull_3d(pts)
            assert_python_rows(poly)
            assert poly.dim == dim
            assert (poly.volume > 0.0) == bool(poly.facets) == (dim == 3)
            assert set(map(tuple, hexed(poly.vertices))) <= set(map(tuple, hexed(pts)))
        assert hexed(convex_hull_3d(seg).vertices) == hexed([seg[0], seg[3]])
        assert hexed(convex_hull_3d(point).vertices) == hexed(point[:1])

    def test_outer_regions(self):
        flat = [CrossSectionHalfspace("ge", -1, 1, -1, -1),
                CrossSectionHalfspace("le", 1, -1, 1, 1)]
        for bank, dim in ((default_halfspace_bank(20), 3), ([], 3), (flat, 2),
                          ([CrossSectionHalfspace("nope", -1, -1, -1, -1)], -1)):
            region = outer_region(bank)
            assert_python_rows(region)
            assert region.dim == dim
            assert (region.volume > 0.0) == (dim == 3)
            oracle = outer_region_by_loop(bank)
            assert hexed(region.vertices) == hexed(oracle.vertices)
            assert region.facets == oracle.facets
        assert Polytope3((), (), -1).volume == 0.0
