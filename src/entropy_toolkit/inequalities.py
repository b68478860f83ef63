"""Linear information inequalities as data, plus cross-section halfspaces.

Sign convention: every stored inequality means "evaluates to >= 0 on entropic
points", so positive margins read as satisfied-by-margin-m.  Sources using
the polar-cone convention (<= 0) must be negated on load.

A :class:`LinearInequality` is a name and a mask-indexed coefficient vector
(a :class:`~entropy_toolkit.core.SetFunction`); a :class:`CrossSectionHalfspace`
is its section image on the tetrahedron weights (alpha, beta, gamma, delta),
the inequality's values at the four vertices (:func:`section_halfspace`).
Built-ins cover the symmetrized Zhang-Yeung inequality and the DFZ family,
from one formula; anything else comes from user-supplied files, never from
invented coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from .core import (GroundSet, SetFunction, _bit_matrix, _count, _read_file, _real, _reals,
                   _weight_quadruple, delta_vec)
from .frame import FRAME_CACHE, IngletonFrame, stv_vec, tetra_vertices

BALANCE_TOL = 1e-12

#: the frame of the built-in halfspaces and of coefficient entries that
#: ``outer`` reads: roles i, j, k, l on the labels i, j, k, l
SECTION_FRAME = IngletonFrame.default(GroundSet("ijkl"))


@dataclass(frozen=True, eq=False)
class LinearInequality:
    """A name and a coefficient vector on a ground set, ``values[m]`` the coefficient
    of h(m), valid as >= 0 on entropic points (for genuine inequalities; arbitrary
    functionals may also be carried in this shape for diagnostics)."""

    name: str
    coefficients: SetFunction

    def __post_init__(self):
        if not isinstance(self.name, str):  # as the JSON reader requires
            raise ValueError(f"inequality name must be a string, got {self.name!r}")
        if not self.coefficients.values.any():
            raise ValueError(f"inequality {self.name!r} has no nonzero coefficient")


def evaluate(ineq: LinearInequality, h: SetFunction) -> float:
    """Scalar product of the coefficient vector with h, which must live on the
    inequality's ground set.  A value >= -tol signals consistency with the inequality."""
    ineq.coefficients._require_ground(h.ground)
    return float(ineq.coefficients.values @ h.values)


def is_balanced(ineq: LinearInequality, tol: float = BALANCE_TOL) -> bool:
    """True iff for every element the coefficient sum over subsets containing
    it vanishes; balanced functionals annihilate modular functions."""
    tol = _real(tol, "tolerance", 0.0)
    c = ineq.coefficients
    return bool(np.all(np.abs(c.values @ _bit_matrix(c.ground.n)) <= tol))


@dataclass(frozen=True)
class CrossSectionHalfspace:
    """Constraint a*alpha + b*beta + c*gamma + d*delta >= 0 on section weights,
    the coefficients stored as floats by the real rule."""

    name: str
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not isinstance(self.name, str):  # as the JSON reader requires
            raise ValueError(f"halfspace name must be a string, got {self.name!r}")
        for c in "abcd":
            object.__setattr__(self, c, _real(getattr(self, c),
                                              f"halfspace {self.name!r} coefficient {c}"))
        if self.a == self.b == self.c == self.d == 0.0:
            raise ValueError(f"halfspace {self.name!r} has all-zero coefficients")

    @property
    def abcd(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def margin(self, weights: Sequence[float]) -> float:
        """The left side at four weights, read by the real rule (no sum test)."""
        aw, bw, gw, dw = _reals(weights, "weights", (4,)).tolist()
        return self.a * aw + self.b * bw + self.c * gw + self.d * dw


# --- built-in functionals and inequalities ------------------------------------

def stv_functional(frame: IngletonFrame) -> LinearInequality:
    """The Ingleton functional as a coefficient vector.

    Not a valid information inequality (entropic points can make it
    negative); exposed for balancedness checks and diagnostics.
    """
    return LinearInequality("ingleton-stv", SetFunction(frame.ground, stv_vec(frame)))


def symmetrized_zy(frame: IngletonFrame) -> LinearInequality:
    """Symmetrized Zhang-Yeung inequality, DFZ member 1 plus its i<->j swap,
    valid >= 0 on entropic points; beta + delta >= alpha / 2 in section weights."""
    return LinearInequality("symmetrized-zhang-yeung",
                            SetFunction(frame.ground, _dfz(1, frame, frame.swapped_ij())))


def dfz_linear(s: int, frame: IngletonFrame) -> LinearInequality:
    """Unsymmetrized member s of the DFZ sequence, as a full coefficient vector.

    (2^s - 1) stv + delta(kl|i) + s 2^(s-1) [delta(ik|l) + delta(il|k)]
    + ((s-2) 2^(s-1) + 1) [delta(jk|l) + delta(jl|k)] >= 0 on entropic points.
    s = 1 is the Zhang-Yeung inequality.
    """
    _count(s, "DFZ parameter s", 1, 20)
    return LinearInequality(f"dfz-linear-s{s}", SetFunction(frame.ground, _dfz(s, frame)))


@lru_cache(maxsize=FRAME_CACHE)
def _dfz_terms(*frames: IngletonFrame) -> tuple[np.ndarray, ...]:
    """The vectors a DFZ member combines, each summed over the frames: stv,
    delta(kl|i), delta(ik|l) + delta(il|k) and delta(jk|l) + delta(jl|k)."""
    terms = []
    for fr in frames:
        i, j, k, l = fr.roles
        d = partial(delta_vec, fr.ground)
        terms.append((stv_vec(fr), d(k, l, i), d(i, k, l) + d(i, l, k), d(j, k, l) + d(j, l, k)))
    return tuple(sum(vecs) for vecs in zip(*terms))


def _dfz(s: int, *frames: IngletonFrame) -> np.ndarray:
    """The mask-indexed vector of :func:`dfz_linear`, summed over the frames."""
    stv, kl_i, ik_il, jk_jl = _dfz_terms(*frames)
    half = 2 ** (s - 1)
    return (2 ** s - 1) * stv + kl_i + s * half * ik_il + ((s - 2) * half + 1) * jk_jl


def section_halfspace(ineq: LinearInequality, frame: IngletonFrame) -> CrossSectionHalfspace:
    """The inequality's values at the four tetrahedron vertices, whose convex combinations
    are the section points.  Raises if the inequality lives on another ground set than
    the frame, or if all four values are 0."""
    return CrossSectionHalfspace(ineq.name, *(evaluate(ineq, v) for v in tetra_vertices(frame)))


def dfz_halfspace(s: int) -> CrossSectionHalfspace:
    """DFZ member s plus its i<->j swap on section weights, which reads
    beta + ((s-1) 2^s + 1) delta >= (2^s - 1)/2 * alpha (s = 1: symmetrized ZY)."""
    _count(s, "DFZ parameter s", 1, 20)
    ineq = LinearInequality(f"dfz-s{s}", SetFunction(
        SECTION_FRAME.ground, _dfz(s, SECTION_FRAME, SECTION_FRAME.swapped_ij())))
    return section_halfspace(ineq, SECTION_FRAME)


def default_halfspace_bank(max_s: int = 6) -> list[CrossSectionHalfspace]:
    """The DFZ halfspaces for s = 1..max_s (s = 1 being symmetrized ZY)."""
    _count(max_s, "DFZ parameter max_s", 1, 20)
    return [dfz_halfspace(s) for s in range(1, max_s + 1)]


# --- point checking -------------------------------------------------------------

@dataclass(frozen=True)
class PointCheckReport:
    """Margins of one weight quadruple against a halfspace bank: the bank's
    names and the margins, in bank order.  A margin below -tol is violated;
    the (name, margin) pairs of each side are built when read."""

    names: tuple[str, ...]
    margins: tuple[float, ...]
    tol: float

    @property
    def satisfied(self) -> tuple[tuple[str, float], ...]:
        return tuple((n, m) for n, m in zip(self.names, self.margins) if m >= -self.tol)

    @property
    def violated(self) -> tuple[tuple[str, float], ...]:
        return tuple((n, m) for n, m in zip(self.names, self.margins)
                     if not m >= -self.tol)

    @property
    def all_satisfied(self) -> bool:
        return all(m >= -self.tol for m in self.margins)


def check_point(weights, bank: Sequence[CrossSectionHalfspace],
                tol: float = 1e-9) -> PointCheckReport:
    """Evaluate every halfspace at the given weights; margin < -tol is violated.

    Scalar Python on purpose: callers check one point at a time, and a numpy
    version of this call costs three to five times as much.  Each margin is
    :meth:`CrossSectionHalfspace.margin`'s expression, inlined.
    """
    tol = _real(tol, "tolerance", 0.0)
    aw, bw, gw, dw = _weight_quadruple(weights)
    return PointCheckReport(
        names=tuple([hs.name for hs in bank]),
        margins=tuple([hs.a * aw + hs.b * bw + hs.c * gw + hs.d * dw for hs in bank]),
        tol=tol)


# --- wire formats ----------------------------------------------------------------
#
# LinearInequality JSON:      {"name": ..., "coefficients": {"ik": 1.0, ...}}
# CrossSectionHalfspace JSON: {"name": ..., "abcd": [a, b, c, d]}
# A file may hold one object or a list of them.  Coefficient keys are read on a
# given ground set, and keys that name the same subset add up; the writer lists
# the nonzero subsets in mask order and rejects a label longer than one character.

def inequality_to_json(ineq: LinearInequality) -> dict:
    c = ineq.coefficients
    masks = np.flatnonzero(c.values).tolist()
    long = sorted({lab for m in masks for lab in c.ground.labels_of(m) if len(lab) != 1})
    if long:
        raise ValueError(f"inequality JSON needs single-character labels, got {long}")
    return {"name": ineq.name,
            "coefficients": {c.ground.subset_key(m): float(c.values[m]) for m in masks}}


def inequality_from_json(data: dict, ground: GroundSet) -> LinearInequality:
    """Coefficients by the array rule, summed per subset; the sums by
    SetFunction's."""
    try:
        name, coeffs = data["name"], data["coefficients"]
        if not isinstance(coeffs, dict):
            raise ValueError("coefficients need an object of numbers")
        if "" in coeffs:
            raise ValueError("coefficient on the empty set is not allowed")
        raw = _reals(list(coeffs.values()), f"inequality {name!r} coefficients", (len(coeffs),))
        values = [0.0] * ground.size  # Python floats: an overflowing sum is inf, unwarned
        for key, c in zip(coeffs, raw.tolist()):  # one label per character, as written
            values[ground.mask(tuple(key))] += c
        return LinearInequality(name, SetFunction(ground, values))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed inequality document: {exc}") from exc


def halfspace_to_json(hs: CrossSectionHalfspace) -> dict:
    return {"name": hs.name, "abcd": list(hs.abcd)}


def halfspace_from_json(data: dict) -> CrossSectionHalfspace:
    try:
        abcd = tuple(data["abcd"])
        if len(abcd) != 4:
            raise ValueError(f"abcd needs four numbers, got {len(abcd)}")
        return CrossSectionHalfspace(data["name"], *abcd)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed halfspace document: {exc}") from exc


def load_inequality_file(path, ground: GroundSet) -> list[LinearInequality | CrossSectionHalfspace]:
    """Load a JSON file holding inequalities on ground and/or halfspaces (object or list)."""
    return _read_file(path, partial(_bank_from_json, ground=ground))


def _bank_from_json(data, ground: GroundSet) -> list[LinearInequality | CrossSectionHalfspace]:
    """The entries of a document, coefficient ones read on ground."""
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list) or not all(isinstance(item, dict) for item in data):
        raise ValueError("malformed inequality document: expected an object "
                         "or a list of objects")
    out: list[LinearInequality | CrossSectionHalfspace] = []
    for index, item in enumerate(data):
        if "abcd" in item and "coefficients" in item:
            raise ValueError(f'entry {index} has both "coefficients" and "abcd"')
        if "abcd" in item:
            out.append(halfspace_from_json(item))
        elif "coefficients" in item:
            out.append(inequality_from_json(item, ground))
        else:
            raise ValueError(f"entry {index} has neither \"coefficients\" nor \"abcd\"; "
                             f"its keys are {sorted(item)}")
    return out
