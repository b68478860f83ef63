"""Small-dimensional geometry of the cross-section: hulls and outer regions.

Section points are weight quadruples (alpha, beta, gamma, delta) summing to
one; geometry happens in the affine chart (beta, gamma, delta), where the
weight simplex becomes {x >= 0, sum(x) <= 1} and the alpha corner sits at the
origin.  Hulls are delegated to Qhull via scipy.  The halfspace-region vertex
enumeration solves every nonsingular 3x3 boundary system in one batched
``np.linalg.solve`` and tests all solutions against all constraints in one
product, which is exact enough for banks of a few dozen constraints.  Point
deduplication is one ``np.unique`` over the rounded rows.

``scipy.spatial`` is imported only inside ``convex_hull_3d`` and
``outer_region``, on the first hull: it is most of the cost of importing the
package, and everything but hulls (entropy functions, scores, the searches)
runs without it; a polytope keeps the volume its hull computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from ..core import WEIGHT_SUM_TOL, _check_tol, _weight_quadruple
from ..inequalities import CrossSectionHalfspace

FEASIBILITY_TOL = 1e-9

#: names of the four simplex facets in weight order
SIMPLEX_FACETS = ("alpha>=0", "beta>=0", "gamma>=0", "delta>=0")


@dataclass(frozen=True)
class Polytope3:
    """Vertices (weight quadruples) and triangular facets of a region.

    ``dim`` is the affine dimension of the vertex set; facets are only
    populated for full-dimensional (dim 3) polytopes, referencing vertex
    indices.  An empty region has dim -1.  ``volume`` is the chart volume its
    hull computed, stored; 0 for a polytope without facets.
    """

    vertices: tuple[tuple[float, float, float, float], ...]
    facets: tuple[tuple[int, int, int], ...]
    dim: int
    volume: float = 0.0

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def is_full_dimensional(self) -> bool:
        return self.dim == 3


def _as_weight_array(points: Sequence[Sequence[float]]) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 4 or not arr.size:
        raise ValueError(f"need weight quadruples, got shape {arr.shape}")
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        raise ValueError(f"point {bad[0]} has non-finite weights {tuple(arr[bad[0]].tolist())!r}")
    sums = arr.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > WEIGHT_SUM_TOL)
    if bad.size:
        raise ValueError(f"point {bad[0]} has weight sum {float(sums[bad[0]])!r}, expected 1")
    return arr


def _rows(arr: np.ndarray) -> tuple[tuple, ...]:
    """The rows of an array as tuples of Python numbers, as polytopes store them."""
    return tuple(map(tuple, arr.tolist()))


def _dedupe(arr: np.ndarray) -> np.ndarray:
    """The first row of each class of rows equal after rounding to 12
    decimals, in first-seen order; -0.0 and 0.0 round to the same key."""
    _, first = np.unique(np.round(arr, 12), axis=0, return_index=True)
    return arr[np.sort(first)]


def _affine_dim(x: np.ndarray) -> int:
    if len(x) <= 1:
        return 0
    centered = x - x[0]
    return int(np.linalg.matrix_rank(centered, tol=1e-9))


def convex_hull_3d(points: Sequence[Sequence[float]]) -> Polytope3:
    """Convex hull of section points in the affine chart.

    Full-dimensional input yields extreme points plus triangular facets;
    degenerate input (fewer than 4 affinely independent points) is flagged
    through ``dim`` < 3 and carries the lower-dimensional extreme points with
    no facets.
    """
    from scipy.spatial import ConvexHull

    arr = _dedupe(_as_weight_array(points))
    x = arr[:, 1:]
    dim = _affine_dim(x)

    if dim == 3 and len(arr) >= 4:
        hull = ConvexHull(x)
        keep = np.sort(hull.vertices)
        renumber = np.empty(len(arr), dtype=int)
        renumber[keep] = np.arange(len(keep))
        return Polytope3(_rows(arr[keep]), _rows(renumber[hull.simplices]), 3, float(hull.volume))

    if dim == 2:
        origin = x[0]
        basis, *_ = np.linalg.svd((x - origin).T)
        proj = (x - origin) @ basis[:, :2]
        hull = ConvexHull(proj)
        return Polytope3(_rows(arr[np.sort(hull.vertices)]), (), 2)

    if dim == 1:
        axis = x[np.argmax(np.linalg.norm(x - x[0], axis=1))] - x[0]
        coords = (x - x[0]) @ axis
        keep = sorted({int(np.argmin(coords)), int(np.argmax(coords))})
        return Polytope3(_rows(arr[keep]), (), 1)

    return Polytope3(_rows(arr[:1]), (), 0)


def hull_volume(poly: Polytope3) -> float:
    """Euclidean chart volume, stored by the polytope's hull; 0 without facets."""
    return poly.volume


# --- outer approximation from halfspace banks ---------------------------------

def _affine_constraints(bank: Sequence[CrossSectionHalfspace]
                        ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """All constraints as rows (n, off) meaning n . x + off >= 0 in the chart.

    The four simplex facets (weight >= 0, the rows of the identity) come
    first, then the bank, as one (m, 4) array of (a, b, c, d) rows; a weight
    constraint a*alpha + b*beta + c*gamma + d*delta >= 0 becomes
    (b-a, c-a, d-a) . x + a >= 0 after substituting alpha = 1 - sum(x).
    """
    abcd = np.array([*np.eye(4), *(hs.abcd for hs in bank)])
    # huge coefficients overflow to inf, which outer_region reports
    with np.errstate(over="ignore"):
        normals = abcd[:, 1:] - abcd[:, :1]
    return normals, abcd[:, 0], [*SIMPLEX_FACETS, *(hs.name for hs in bank)]


def outer_region(bank: Sequence[CrossSectionHalfspace]) -> Polytope3:
    """Vertices of {weights on the simplex satisfying every bank halfspace}.

    Solves the 3x3 systems of every triple of constraint boundaries with
    |det| >= 1e-12 in one batch, keeps the feasible solutions, and hulls
    them.  An empty bank returns the full simplex; an infeasible bank returns
    the explicit empty polytope.  Coefficients so large that a solved vertex
    or a margin overflows raise ValueError.
    """
    normals, offsets, _ = _affine_constraints(bank)
    triples = np.array(list(combinations(range(len(normals)), 3)))
    # huge coefficients overflow below; the finiteness test reports that.  A
    # singular triple with tiny entries divides by zero inside det, which
    # then reads 0 and drops the triple
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        triples = triples[np.abs(np.linalg.det(normals[triples])) >= 1e-12]
        # b as a stack of columns: the same broadcasting on numpy 1.x and 2.x
        x = np.linalg.solve(normals[triples], -offsets[triples][..., None])[..., 0]
        # one (m, 3) @ (3,) product per solution: (K, 3) @ (3, m) rounds differently
        margins = (normals @ x[..., None])[..., 0] + offsets
    if not (np.isfinite(x).all() and np.isfinite(margins).all()):
        raise ValueError("outer region vertices or margins are not finite: the "
                         "halfspace coefficients overflow, rescale them")
    candidates = x[np.min(margins, axis=1) >= -FEASIBILITY_TOL]
    if not len(candidates):
        return Polytope3((), (), -1)

    arr = _dedupe(candidates)
    order = np.lexsort(arr.T[::-1])
    arr = arr[order]
    weights = np.column_stack([1.0 - arr.sum(axis=1), arr]) + 0.0  # kill -0.0

    dim = _affine_dim(arr)
    if dim == 3 and len(arr) >= 4:
        from scipy.spatial import QhullError

        try:
            return convex_hull_3d(weights)
        except QhullError:
            pass
    return Polytope3(_rows(weights), (), dim)


def active_constraints(weights: Sequence[float],
                       bank: Sequence[CrossSectionHalfspace],
                       tol: float = FEASIBILITY_TOL) -> list[str]:
    """Names of the simplex facets and bank halfspaces tight at a vertex."""
    _check_tol(tol)
    normals, offsets, names = _affine_constraints(bank)
    x = np.asarray(_weight_quadruple(weights), dtype=float)[1:]
    margins = normals @ x + offsets
    return [name for name, margin in zip(names, margins) if abs(margin) <= tol]


def hull_to_obj(poly: Polytope3) -> str:
    """OBJ-like text: v lines with (beta, gamma, delta) coords, f lines 1-based."""
    lines = [f"v {v[1]!r} {v[2]!r} {v[3]!r}" for v in poly.vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in poly.facets]
    return "\n".join(lines) + ("\n" if lines else "")
