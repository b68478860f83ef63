"""Four-variable reduction: Ingleton functional, basis expansion, face maps.

Everything here is relative to an :class:`IngletonFrame`, an assignment of the
roles (i, j, k, l) to the four ground labels.  The frame fixes which of the
six Ingleton instances is studied; scores and cross-section weights are
invariant under swapping i with j or k with l, which tests enforce.

The central objects:

* ``stv``, the ten-term Ingleton functional; its sign splits the polymatroid
  cone, and stv(h) / h(N) is the Ingleton score.
* the eleven generators (one special non-almost-entropic rank function plus
  ten uniform-up-to-loops matroids) whose conic hull is the tight cone on the
  reversed-Ingleton side, and the eleven coordinate functionals dual to them
  (-stv, and one conditional mutual information delta(ab|L) per matroid).
  One table pairs them; its cached coordinate matrix C (11 x 16) and
  generator matrix G (16 x 11) satisfy C @ G = I, and the basis expansion,
  the face maps, the tetrahedron and its weights all read these matrices.
* the maps ``a_map`` and ``b_map`` that each move one coordinate onto
  another generator while preserving stv, the stabilizer average ``c_sym``,
  and the tetrahedron coordinates of the resulting three-dimensional
  cross-section.

Linear functionals are mask-indexed coefficient vectors (:func:`stv_vec`,
:func:`~entropy_toolkit.core.delta_vec`).  The projection tighten -> b -> a
-> symmetrize is linear too; :func:`pipeline_operator` derives its matrix
from the maps above, which stay the specification.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .core import (
    WEIGHT_SUM_TOL,
    GroundSet,
    SetFunction,
    _four_labels,
    _modular_values,
    _real,
    _reals,
    _weight_quadruple,
    _warn_if_not_polymatroid,
    delta_vec,
    matroid_rank,
    relabel,
)

#: frames whose derived vectors and matrices stay cached (24 per ground set)
FRAME_CACHE = 96

#: projected normalizers at or below this are degenerate: no cross-section
#: point, and a search scores the evaluation 0
DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class IngletonFrame:
    """Role assignment (i, j, k, l) of the four ground labels."""

    ground: GroundSet
    i: str
    j: str
    k: str
    l: str

    def __post_init__(self):
        _four_labels(self.ground, "frame")
        roles = (self.i, self.j, self.k, self.l)
        # sorted by str, a role that is no string compares unequal and does not raise
        if sorted(roles, key=str) != sorted(self.ground.labels):
            raise ValueError(f"frame roles {roles} must enumerate the ground set "
                             f"{self.ground.labels}")

    @classmethod
    def default(cls, ground: GroundSet) -> "IngletonFrame":
        return cls(ground, *_four_labels(ground, "frame").labels)

    @classmethod
    def from_spec(cls, ground: GroundSet, spec: str) -> "IngletonFrame":
        """Parse a frame given as comma-separated labels, e.g. ``"i,j,k,l"``."""
        parts = [p.strip() for p in spec.split(",")] if isinstance(spec, str) else []
        if len(parts) != 4:
            raise ValueError(f"frame spec needs 4 comma-separated labels, e.g. "
                             f"'j,i,k,l', got {spec!r}")
        return cls(ground, *parts)

    @property
    def roles(self) -> tuple[str, str, str, str]:
        return (self.i, self.j, self.k, self.l)

    def swapped_ij(self) -> "IngletonFrame":
        return IngletonFrame(self.ground, self.j, self.i, self.k, self.l)

    def swapped_kl(self) -> "IngletonFrame":
        return IngletonFrame(self.ground, self.i, self.j, self.l, self.k)


@lru_cache(maxsize=FRAME_CACHE)
def stv_vec(frame: IngletonFrame) -> np.ndarray:
    """The Ingleton functional as a mask-indexed coefficient vector, written
    as delta(kl|i) + delta(kl|j) + delta(ij) - delta(kl)."""
    i, j, k, l = frame.roles
    d = partial(delta_vec, frame.ground)
    vec = d(k, l, i) + d(k, l, j) + d(i, j) - d(k, l)
    vec.flags.writeable = False
    return vec


def ingleton_value(h: SetFunction, frame: IngletonFrame) -> float:
    """The Ingleton functional stv applied to h.

    h(ik)+h(il)+h(jk)+h(jl)+h(kl) - h(ij) - h(k) - h(l) - h(ikl) - h(jkl);
    nonnegative on linearly representable rank functions, can be negative on
    entropy functions.
    """
    h._require_ground(frame.ground)
    return float(stv_vec(frame) @ h.values)


def ingleton_score(h: SetFunction, frame: IngletonFrame) -> float:
    """Normalized Ingleton expression stv(h) / h(N); requires h(N) > 0."""
    h._require_ground(frame.ground)
    if h.rank <= 0.0:
        raise ValueError(f"Ingleton score needs h(N) > 0, got {h.rank}")
    return float(stv_vec(frame) @ h.values) / h.rank


def violated_instances(h: SetFunction, tol: float = 1e-12) -> list[frozenset[str]]:
    """Unordered pairs {a, b} whose Ingleton instance is violated: stv_ab(h) < -tol.

    A polymatroid violates at most one of the six instances.
    """
    tol = _real(tol, "tolerance", 0.0)
    _four_labels(h.ground, "frame")
    out = []
    for a, b in combinations(h.ground.labels, 2):
        c, d = [x for x in h.ground.labels if x not in (a, b)]
        if ingleton_value(h, IngletonFrame(h.ground, a, b, c, d)) < -tol:
            out.append(frozenset((a, b)))
    return out


def ingleton_base(frame: IngletonFrame) -> SetFunction:
    """The extreme tight rank function with score exactly -1/4.

    Value 3 on the five pairs ik, jk, il, jl, kl and min(4, 2|K|) elsewhere;
    it generates the only extreme ray of the reversed-Ingleton tight cone
    with negative score, and it is not almost entropic.
    """
    g = frame.ground
    i, j, k, l = frame.roles
    special = {g.mask(s) for s in [(i, k), (j, k), (i, l), (j, l), (k, l)]}
    vals = [3.0 if K in special else float(min(4, 2 * bin(K).count("1")))
            for K in g.subsets()]
    return SetFunction(g, vals)


# --- basis expansion of the reversed-Ingleton tight cone ---------------------

class BasisCoefficients(NamedTuple):
    """Coordinates of a tight function in the eleven-generator basis.

    ``c_bar`` multiplies the extreme score -1/4 generator; the other ten are
    named after the conditional-information functionals that read them off.
    For functions in the reversed-Ingleton tight cone all eleven are
    nonnegative.
    """

    c_bar: float
    c_ij: float
    c_kl_ij: float
    c_kl_i: float
    c_kl_j: float
    c_ij_k: float
    c_ij_l: float
    c_jl_k: float
    c_il_k: float
    c_jk_l: float
    c_ik_l: float

    def as_array(self) -> np.ndarray:
        return np.array(self)

    @classmethod
    def from_array(cls, arr) -> "BasisCoefficients":
        return cls(*_reals(arr, "basis coefficients", (11,)).tolist())


_COORDINATES = BasisCoefficients._fields

#: One row per matroid coordinate, in BasisCoefficients field order after
#: c_bar: the functional delta(a b | given) that reads the coordinate off and
#: the uniform-up-to-loops matroid (rank, loops) it pairs with, both in roles.
#: c_bar itself is -stv paired with ingleton_base.
_MATROID_COORDINATES = (
    (("i", "j", ""), (1, "")),      # c_ij
    (("k", "l", "ij"), (3, "")),    # c_kl_ij
    (("k", "l", "i"), (1, "i")),    # c_kl_i
    (("k", "l", "j"), (1, "j")),    # c_kl_j
    (("i", "j", "k"), (2, "l")),    # c_ij_k
    (("i", "j", "l"), (2, "k")),    # c_ij_l
    (("j", "l", "k"), (1, "ik")),   # c_jl_k
    (("i", "l", "k"), (1, "jk")),   # c_il_k
    (("j", "k", "l"), (1, "il")),   # c_jk_l
    (("i", "k", "l"), (1, "jl")),   # c_ik_l
)

#: The tetrahedron weights as combinations of the eleven coordinates:
#: alpha = 4 c_bar, beta = c_kl_i + c_kl_j, gamma = 2 (c_ij_k + c_ij_l),
#: delta = c_jl_k + c_il_k + c_jk_l + c_ik_l.
_SECTION_GROUPING = np.array([[4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                              [0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0],
                              [0, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0],
                              [0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1]], dtype=float)
_SECTION_GROUPING.flags.writeable = False


def _in_roles(frame: IngletonFrame, roles: str) -> tuple[str, ...]:
    """The labels that play the given roles (a string over "ijkl")."""
    return tuple(frame.roles["ijkl".index(r)] for r in roles)


@lru_cache(maxsize=FRAME_CACHE)
def _coordinate_matrix(frame: IngletonFrame) -> np.ndarray:
    """C: row c is the functional that reads coordinate c off (11 x 16)."""
    rows = [delta_vec(frame.ground, *(_in_roles(frame, r) for r in functional))
            for functional, _ in _MATROID_COORDINATES]
    mat = np.vstack([-stv_vec(frame)] + rows)
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=FRAME_CACHE)
def _generator_matrix(frame: IngletonFrame) -> np.ndarray:
    """G: column c is the generator paired with coordinate c (16 x 11)."""
    cols = [matroid_rank(frame.ground, rank, _in_roles(frame, loops)).values
            for _, (rank, loops) in _MATROID_COORDINATES]
    mat = np.column_stack([ingleton_base(frame).values] + cols)
    mat.flags.writeable = False
    return mat


def basis_generators(frame: IngletonFrame) -> tuple[SetFunction, ...]:
    """The eleven generators, ordered to match :class:`BasisCoefficients`:
    ingleton_base, then the matroids of ``_MATROID_COORDINATES``."""
    return tuple(SetFunction(frame.ground, col) for col in _generator_matrix(frame).T)


def basis_coefficients(h: SetFunction, frame: IngletonFrame) -> BasisCoefficients:
    """Read the basis coordinates of h off the coordinate functionals.  The
    read-off is linear and total; it inverts :func:`reconstruct` on tight
    inputs (the generators form a basis of the tight subspace)."""
    h._require_ground(frame.ground)
    return BasisCoefficients.from_array(_coordinate_matrix(frame) @ h.values)


def reconstruct(coeffs: BasisCoefficients, frame: IngletonFrame) -> SetFunction:
    """Sum coefficient * generator over the eleven basis functions."""
    return SetFunction(frame.ground,
                       _generator_matrix(frame) @ _reals(coeffs, "basis coefficients", (11,)))


# --- the face maps and symmetrization ----------------------------------------

def _move_coordinate(h: SetFunction, frame: IngletonFrame,
                     source: str, target: str) -> SetFunction:
    """Add coordinate ``source`` of h times (generator of ``target`` minus
    generator of ``source``): ``source`` drops to zero and ``target`` gains
    its value, while stv and the other coordinates stay."""
    h._require_ground(frame.ground)
    s, t = _COORDINATES.index(source), _COORDINATES.index(target)
    gens = _generator_matrix(frame)
    c = float(_coordinate_matrix(frame)[s] @ h.values)
    return SetFunction(frame.ground, h.values + c * (gens[:, t] - gens[:, s]))


def a_map(h: SetFunction, frame: IngletonFrame) -> SetFunction:
    """Add delta(ij|empty)(h) times (rank-1-with-loop-i minus rank-1): zeroes
    that coordinate, preserves stv and commutes with :func:`b_map`."""
    return _move_coordinate(h, frame, "c_ij", "c_kl_i")


def b_map(h: SetFunction, frame: IngletonFrame) -> SetFunction:
    """Add delta(kl|ij)(h) times (rank-2-with-loop-k minus rank-3): zeroes
    that coordinate, preserves stv and commutes with :func:`a_map`."""
    return _move_coordinate(h, frame, "c_kl_ij", "c_ij_l")


def c_sym(h: SetFunction, frame: IngletonFrame) -> SetFunction:
    """Average h over the stabilizer of the pair {i, j}: id, i<->j, k<->l, both.

    The output is invariant under each of the four; stv and the value at N
    are preserved.
    """
    h._require_ground(frame.ground)
    acc = np.zeros(h.ground.size)
    for image in (frame, frame.swapped_ij(), frame.swapped_kl(),
                  frame.swapped_ij().swapped_kl()):
        acc += relabel(h, dict(zip(frame.roles, image.roles))).values
    return SetFunction(h.ground, acc / 4.0)


@lru_cache(maxsize=FRAME_CACHE)
def tetra_vertices(frame: IngletonFrame) -> tuple[SetFunction, SetFunction,
                                                  SetFunction, SetFunction]:
    """Vertices (alpha, beta, gamma, delta) of the cross-section tetrahedron.

    alpha is a quarter of the extreme non-almost-entropic generator (score
    -1/4); beta, gamma, delta are symmetrized matroid averages lying on the
    Ingleton hyperplane.  All four have value 1 at N.  Vertex k is the
    generator combination that weight k reads as exactly 1, the others as 0.
    """
    unit = _SECTION_GROUPING / np.sum(_SECTION_GROUPING ** 2, axis=1, keepdims=True)
    return tuple(SetFunction(frame.ground, v) for v in (_generator_matrix(frame) @ unit.T).T)


# --- cross-section coordinates ------------------------------------------------

class CrossSectionPoint(NamedTuple):
    """Barycentric weights of a cross-section point, stored as given.

    For points produced by the tighten -> b -> a -> symmetrize -> normalize
    pipeline the weights sum to one; for polymatroid inputs all four are
    nonnegative exactly when the input satisfies the reversed Ingleton
    inequality (the alpha weight is -4 times the projected score).
    """

    alpha_w: float
    beta_w: float
    gamma_w: float
    delta_w: float
    source_tag: str = ""

    def as_tuple(self) -> tuple[float, float, float, float]:
        return self[:4]

    @property
    def weight_sum(self) -> float:
        return self.alpha_w + self.beta_w + self.gamma_w + self.delta_w


@lru_cache(maxsize=FRAME_CACHE)
def section_weight_matrix(frame: IngletonFrame) -> np.ndarray:
    """Rows: the tetrahedron weight functionals, the coordinate sums of
    ``_SECTION_GROUPING``, as mask-indexed vectors.  They sum to h(N) whenever
    h is tight with delta(ij|empty) = delta(kl|ij) = 0, i.e. on pipeline
    outputs before normalization."""
    mat = _SECTION_GROUPING @ _coordinate_matrix(frame)
    mat.flags.writeable = False
    return mat


def section_weights(h: SetFunction, frame: IngletonFrame) -> tuple[float, float, float, float]:
    """Tetrahedron weight functionals of :func:`section_weight_matrix` at h."""
    h._require_ground(frame.ground)
    return tuple((section_weight_matrix(frame) @ h.values).tolist())


@lru_cache(maxsize=FRAME_CACHE)
def pipeline_operator(frame: IngletonFrame) -> np.ndarray:
    """Matrix P with ``P @ f.values == c_sym(a_map(b_map(tight_part(f)))).values``.

    Column m is the image of the unit vector at mask m under the maps
    themselves.  A build takes a few milliseconds, so it is cached per frame.
    """
    g = frame.ground
    units = np.eye(g.size)
    op = np.zeros((g.size, g.size))
    for m in range(1, g.size):
        tight = SetFunction(g, units[m] - _modular_values(units[m]))
        op[:, m] = c_sym(a_map(b_map(tight, frame), frame), frame).values
    op.flags.writeable = False
    return op


def cross_section_point(f: SetFunction, frame: IngletonFrame,
                        source_tag: str = "") -> tuple[CrossSectionPoint, SetFunction]:
    """Project f into the cross-section: tighten, b_map, a_map, symmetrize, normalize.

    Returns the weight quadruple and the normalized symmetrized function
    itself.  Raises on degenerate inputs whose projected value at N is not
    positive (then the score is 0 and the point is undefined).
    Non-polymatroid input, by ``check_axioms(f, TOL_ENTROPIC)``'s rule with
    no report built, is reported through
    :class:`~entropy_toolkit.core.NonPolymatroidWarning`.
    """
    f._require_ground(frame.ground)
    _warn_if_not_polymatroid(f, "cross_section_point")
    g = pipeline_operator(frame) @ f.values
    norm = float(g[-1])
    if norm <= DEGENERATE_TOL:
        raise ValueError(f"degenerate input: projected value at N is {norm}, "
                         "score vanishes and no cross-section point exists")
    h = SetFunction(frame.ground, g / norm)
    return CrossSectionPoint(*section_weights(h, frame), source_tag=source_tag), h


def point_from_weights(w, frame: IngletonFrame,
                       tol: float = WEIGHT_SUM_TOL) -> SetFunction:
    """Convex combination of the tetrahedron vertices with the given weights,
    a :class:`CrossSectionPoint` or four numbers."""
    aw, bw, gw, dw = _weight_quadruple(w, _real(tol, "tolerance", 0.0))
    alpha, beta, gamma, delta_v = tetra_vertices(frame)
    vals = (aw * alpha.values + bw * beta.values
            + gw * gamma.values + dw * delta_v.values)
    return SetFunction(frame.ground, vals)


# --- diagnostics ---------------------------------------------------------------

#: the face functionals delta(ab|L), keyed "ab|L", and their coordinates
_E_FACE = {"ij|k": "c_ij_k", "ij|l": "c_ij_l", "kl|i": "c_kl_i",
           "kl|j": "c_kl_j", "kl|ij": "c_kl_ij"}


def e_face_margins(h: SetFunction, frame: IngletonFrame) -> dict[str, float]:
    """The five coordinate functionals of ``_E_FACE``, which cut out the
    distinguished face: all zero on it."""
    coords = basis_coefficients(h, frame)
    return {key: getattr(coords, name) for key, name in _E_FACE.items()}


def in_e_face(h: SetFunction, frame: IngletonFrame, tol: float = 1e-9) -> bool:
    """True iff all five face functionals vanish on h within tol."""
    tol = _real(tol, "tolerance", 0.0)
    return all(abs(v) <= tol for v in e_face_margins(h, frame).values())
