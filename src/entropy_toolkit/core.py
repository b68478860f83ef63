"""Set functions on small ground sets: axioms, generators, convolution, decomposition.

A set function assigns a real value to every subset of a labeled ground set
of at most 8 elements.  Subsets are encoded as bitmasks: bit ``b`` is set
iff ``labels[b]`` belongs to the subset.  Rank functions of polymatroids and
entropy functions of random vectors are the intended inhabitants, but the
algebraic operations below are total: only :func:`check_axioms` judges
whether a function is a polymatroid.  The operations that walk the subset
lattice are array expressions over mask tables built once per ground-set size.

All values are immutable after construction and every operation is a pure
function, so concurrent read access is safe.
"""

from __future__ import annotations

import json
import numbers
import os
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

#: default tolerance for axiom checks on analytically constructed inputs
TOL_ANALYTIC = 1e-9
#: default tolerance for entropy-derived inputs (double-precision log accumulation)
TOL_ENTROPIC = 1e-7

MAX_GROUND_SIZE = 8

SubsetLike = Union[int, str, Iterable[str]]


class NonPolymatroidWarning(UserWarning):
    """Emitted by operations whose formulas are total but whose guarantees
    (tightness, modularity of the parts) assume a polymatroid input."""


@dataclass(frozen=True)
class GroundSet:
    """An ordered tuple of distinct labels; label ``b`` sits at bit position ``b``."""

    labels: tuple[str, ...]

    def __init__(self, labels: Iterable[str]):
        object.__setattr__(self, "labels", tuple(labels))
        if not 1 <= len(self.labels) <= MAX_GROUND_SIZE:
            raise ValueError(f"ground set must have 1..{MAX_GROUND_SIZE} elements, "
                             f"got {len(self.labels)}")
        if not all(isinstance(lab, str) and lab for lab in self.labels):
            raise ValueError(f"labels must be nonempty strings, got {list(self.labels)}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"labels must be pairwise distinct: {self.labels}")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def size(self) -> int:
        """Number of subsets, 2**n."""
        return 1 << self.n

    @property
    def full_mask(self) -> int:
        return self.size - 1

    def bit(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown label {label!r}, ground set is {self.labels}") from None

    def singleton(self, label: str) -> int:
        return 1 << self.bit(label)

    def mask(self, subset: SubsetLike) -> int:
        """Normalize a subset given as bitmask, label string or label iterable.

        A plain string is first matched against the labels themselves and
        otherwise read character by character, so ``"ik"`` works whenever
        labels are single characters.
        """
        if isinstance(subset, (int, np.integer)):
            m = int(subset)
            if not 0 <= m < self.size:
                raise ValueError(f"subset mask {m} out of range for n={self.n}")
            return m
        if isinstance(subset, str):
            if subset == "":
                return 0
            if subset in self.labels:
                return self.singleton(subset)
            return self.mask(tuple(subset))
        m = 0
        for lab in subset:
            m |= self.singleton(lab)
        return m

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(lab for b, lab in enumerate(self.labels) if mask >> b & 1)

    def subset_key(self, mask: int) -> str:
        """Canonical string key of a subset: labels concatenated in ground order."""
        return "".join(self.labels_of(mask))

    def subsets(self) -> range:
        return range(self.size)


@dataclass(frozen=True, eq=False)
class SetFunction:
    """A real function on the power set of a ground set, with f(empty) = 0.

    ``values[m]`` is the value on the subset with bitmask ``m``.  Entropy
    functions are stored in nats.  The array is read-only; arithmetic
    operators return new instances on the same ground set.
    """

    ground: GroundSet
    values: np.ndarray

    def __init__(self, ground: GroundSet, values):
        arr = np.array(values, dtype=float)
        if arr.shape != (ground.size,):
            raise ValueError(f"need {ground.size} values for n={ground.n}, "
                             f"got shape {arr.shape}")
        if arr[0] != 0.0:
            raise ValueError(f"value on the empty set must be exactly 0, got {arr[0]!r}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("set function values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "values", arr)

    def __call__(self, subset: SubsetLike) -> float:
        return float(self.values[self.ground.mask(subset)])

    def __getitem__(self, subset: SubsetLike) -> float:
        return self(subset)

    @property
    def rank(self) -> float:
        """Value on the full ground set."""
        return float(self.values[-1])

    def with_values(self, values) -> "SetFunction":
        return SetFunction(self.ground, values)

    def _require_same_ground(self, other: "SetFunction") -> None:
        if self.ground != other.ground:
            raise ValueError(f"ground sets differ: {self.ground.labels} "
                             f"vs {other.ground.labels}")

    def __add__(self, other: "SetFunction") -> "SetFunction":
        self._require_same_ground(other)
        return SetFunction(self.ground, self.values + other.values)

    def __sub__(self, other: "SetFunction") -> "SetFunction":
        self._require_same_ground(other)
        return SetFunction(self.ground, self.values - other.values)

    def __mul__(self, scalar: float) -> "SetFunction":
        return SetFunction(self.ground, self.values * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "SetFunction":
        return SetFunction(self.ground, self.values / float(scalar))

    def allclose(self, other: "SetFunction", tol: float = 1e-12) -> bool:
        self._require_same_ground(other)
        return bool(np.max(np.abs(self.values - other.values)) <= tol)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the elemental polymatroid axiom checks.

    ``worst_*_violation`` is the most negative margin observed, clipped at 0,
    so a clean function reports 0.0.  Witnesses are subset pairs sorted by
    margin; re-evaluating the first one reproduces the worst value:
    ``f(larger) - f(smaller)`` for monotonicity, :func:`delta` for
    submodularity.
    """

    is_monotone: bool
    is_submodular: bool
    worst_monotone_violation: float
    worst_submodular_violation: float
    monotone_witnesses: tuple[tuple[int, int], ...]
    submodular_witnesses: tuple[tuple[int, int], ...]
    tol: float

    @property
    def is_polymatroid(self) -> bool:
        return self.is_monotone and self.is_submodular


def delta(f: SetFunction, I: SubsetLike, J: SubsetLike) -> float:
    """The submodularity defect f(I) + f(J) - f(I | J) - f(I & J)."""
    g = f.ground
    mi, mj = g.mask(I), g.mask(J)
    v = f.values
    return float(v[mi] + v[mj] - v[mi | mj] - v[mi & mj])


def delta_given(f: SetFunction, a: SubsetLike, b: SubsetLike,
                given: SubsetLike = 0) -> float:
    """Conditional form of :func:`delta`: delta(f, a|L, b|L) for L = given."""
    g = f.ground
    L = g.mask(given)
    return delta(f, g.mask(a) | L, g.mask(b) | L)


def delta_vec(ground: GroundSet, a: SubsetLike, b: SubsetLike,
              given: SubsetLike = 0) -> np.ndarray:
    """Mask-indexed coefficient vector of delta(ab|given).

    ``delta_vec(g, a, b, L) @ f.values == delta_given(f, a, b, L)``; linear
    functionals over subsets are sums of such vectors.
    """
    L = ground.mask(given)
    mA, mB = ground.mask(a) | L, ground.mask(b) | L
    vec = np.zeros(ground.size)
    np.add.at(vec, [mA, mB, mA | mB, mA & mB], [1.0, 1.0, -1.0, -1.0])
    return vec


def _is_real(x) -> bool:
    """A number in a JSON file: a real, not a bool, and no integer beyond the
    largest finite double; constructors check finiteness."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and not (isinstance(x, int) and abs(x) > sys.float_info.max))


def _is_integer(x) -> bool:
    """An integer other than a bool; numpy integers count."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _csv_numbers(row: Sequence[str], kinds: Sequence[type],
                 width: int | None = None) -> list:
    """The rule for numbers in a CSV row of ``width`` fields (default one per
    kind): field b is read by ``kinds[b]`` (int or float), later fields are
    left unread.  Surrounding spaces are allowed; a ``_`` is not, because
    int() and float() read it as a digit separator ("1_0" is 10)."""
    width = len(kinds) if width is None else width
    try:
        if len(row) != width:
            raise ValueError(f"need {width} fields")
        if any("_" in field for field in row[:len(kinds)]):
            raise ValueError("underscore in a number")
        return [kind(field) for kind, field in zip(kinds, row)]
    except ValueError as exc:
        raise ValueError(f"bad row {row}: {exc}") from None


def _read_file(path, build: Callable, parse: Callable = json.load):
    """The one way an input file is read: ``build(parse(fh))`` on the open
    file.  A ValueError or OverflowError from either step, or an OSError
    (a missing file, a directory; its strerror only), is re-raised as a
    ValueError that starts with the path, so every input error names its file."""
    try:
        with open(path, newline="") as fh:
            return build(parse(fh))
    except (ValueError, OverflowError, OSError) as exc:
        raise ValueError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _write_file(path, write: Callable, newline: str | None = None) -> None:
    """The one way an output file is written: ``write(fh)`` on the file opened
    for writing.  An OSError (a missing directory, a directory; its strerror
    only) is re-raised as a ValueError that starts with the path, as
    :func:`_read_file` does for inputs."""
    try:
        with open(path, "w", newline=newline) as fh:
            write(fh)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc


def _check_writable(path) -> None:
    """Fail as :func:`_write_file` would on a path that cannot be opened for
    writing, before any work is done.  The path is opened for appending, so
    an existing file keeps its contents, and a file the check creates is
    removed again."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    if not existed:
        os.remove(path)


def _write_json(doc, path) -> None:
    """Write doc as every toolkit JSON file is laid out: indent 1, final newline."""
    def write(fh):
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    _write_file(path, write)


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")


def _violations(margins: np.ndarray, pairs: tuple[np.ndarray, np.ndarray],
                tol: float) -> tuple[float, tuple[tuple[int, int], ...]]:
    """The most negative margin (0.0 when none is negative) and the pairs of
    the margins below -tol, most negative first, ties in table order.  The
    pairs are searched only when some margin is negative."""
    worst = float(margins.min(initial=0.0))
    if worst >= 0.0:
        return 0.0, ()
    bad = np.flatnonzero(margins < -tol)
    bad = bad[np.argsort(margins[bad], kind="stable")]
    return worst, tuple(zip(pairs[0][bad].tolist(), pairs[1][bad].tolist()))


def check_axioms(f: SetFunction, tol: float = TOL_ANALYTIC) -> AxiomReport:
    """Check monotonicity and submodularity through elemental inequalities.

    Monotonicity is checked on all single-element increments
    f(K + i) - f(K) >= -tol, submodularity on all elemental defects
    delta(f, iK, jK) >= -tol with K disjoint from {i, j}.  For submodular
    inputs these imply the full pairwise conditions.  One ``min`` per table
    clears a function with no negative margin; witnesses are searched only
    when some margin is negative.
    """
    _check_tol(tol)
    v = f.values
    lo, hi = _step_table(f.ground.n)
    iK, jK, ijK, K = _square_table(f.ground.n)
    worst_mono, mono = _violations(v[hi] - v[lo], (lo, hi), tol)
    worst_sub, sub = _violations(v[iK] + v[jK] - v[ijK] - v[K], (iK, jK), tol)
    return AxiomReport(
        is_monotone=worst_mono >= -tol,
        is_submodular=worst_sub >= -tol,
        worst_monotone_violation=worst_mono,
        worst_submodular_violation=worst_sub,
        monotone_witnesses=mono,
        submodular_witnesses=sub,
        tol=tol,
    )


def matroid_rank(ground: GroundSet, m: int, loops: SubsetLike = 0) -> SetFunction:
    """Rank function of the uniform-up-to-loops matroid: min(m, |I - loops|)."""
    J = ground.mask(loops)
    free = 1.0 - _bit_matrix(ground.n)[J]
    if not 0 <= m <= free.sum():
        raise ValueError(f"rank {m} out of range 0..{free.sum():g} for loop set "
                         f"{ground.subset_key(J)!r}")
    return SetFunction(ground, np.minimum(m, _bit_matrix(ground.n) @ free))


def modular_from(ground: GroundSet,
                 singletons: Union[Mapping[str, float], Sequence[float]]) -> SetFunction:
    """Additive extension of nonnegative singleton values to all subsets."""
    if isinstance(singletons, Mapping):
        missing = set(ground.labels) - set(singletons)
        extra = set(singletons) - set(ground.labels)
        if missing or extra:
            raise ValueError(f"singleton keys must be exactly {ground.labels}; "
                             f"missing {sorted(missing)}, extra {sorted(extra)}")
        per_bit = [float(singletons[lab]) for lab in ground.labels]
    else:
        per_bit = [float(x) for x in singletons]
        if len(per_bit) != ground.n:
            raise ValueError(f"need {ground.n} singleton values, got {len(per_bit)}")
    if any(x < 0 for x in per_bit):
        raise ValueError(f"singleton values must be nonnegative: {per_bit}")
    return SetFunction(ground, _bit_matrix(ground.n) @ np.array(per_bit))


def is_modular(f: SetFunction, tol: float = TOL_ANALYTIC) -> bool:
    """True iff f passes the axioms and f(N) equals the sum of singleton values."""
    _check_tol(tol)
    total = sum(f.values[1 << b] for b in range(f.ground.n))
    if abs(f.rank - total) > tol:
        return False
    return check_axioms(f, tol).is_polymatroid


def is_tight(f: SetFunction, tol: float = TOL_ANALYTIC) -> bool:
    """True iff f(N) = f(N - i) for every element i, within tol."""
    _check_tol(tol)
    return bool(np.all(np.abs(_top_increments(f.values)) <= tol))


def _warn_if_not_polymatroid(h: SetFunction, where: str) -> None:
    if not check_axioms(h, tol=TOL_ENTROPIC).is_polymatroid:
        warnings.warn(f"{where}: input is not a polymatroid at tolerance "
                      f"{TOL_ENTROPIC}; computing anyway",
                      NonPolymatroidWarning, stacklevel=3)


def _read_only(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=None)
def _bit_matrix(n: int) -> np.ndarray:
    """Membership matrix: entry (I, b) is 1.0 iff bit b is set in mask I."""
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    return _read_only(bits)[0]


def _disjoint_pairs(n: int, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, K) for every mask K over n bits disjoint from masks[row], row-major."""
    return np.nonzero((np.arange(1 << n) & masks[:, None]) == 0)


@lru_cache(maxsize=MAX_GROUND_SIZE)
def _step_table(n: int) -> tuple[np.ndarray, ...]:
    """Single-element steps (K, K + b): grouped by bit b, K ascending."""
    b, K = _disjoint_pairs(n, 1 << np.arange(n))
    return _read_only(K, K | 1 << b)


@lru_cache(maxsize=MAX_GROUND_SIZE)
def _square_table(n: int) -> tuple[np.ndarray, ...]:
    """Elemental squares (iK, jK, ijK, K): grouped by pair i < j, K ascending."""
    bi, bj = 1 << np.array(np.triu_indices(n, 1))
    pair, K = _disjoint_pairs(n, bi | bj)
    iK, jK = K | bi[pair], K | bj[pair]
    return _read_only(iK, jK, iK | jK, K)


@lru_cache(maxsize=MAX_GROUND_SIZE)
def _submask_table(n: int) -> tuple[np.ndarray, ...]:
    """Submask pairs (I, J inside I), by I then J, and each I's first position."""
    I, J = _disjoint_pairs(n, ~np.arange(1 << n))
    return _read_only(I, J, np.flatnonzero(J == 0))


def _spread_masks(n: int, targets) -> np.ndarray:
    """For every mask I over n bits, the mask with bit b moved to targets[b]."""
    return (_bit_matrix(n) @ np.exp2(targets)).astype(np.int64)


def _top_increments(values: np.ndarray) -> np.ndarray:
    """The top increments h(N) - h(N - i).  Works columnwise on a stack of
    value vectors."""
    n = values.shape[0].bit_length() - 1
    full = (1 << n) - 1
    return values[full] - values[full ^ (1 << np.arange(n))]


def _modular_values(values: np.ndarray) -> np.ndarray:
    """Values of the modular part: the top increments summed over each subset."""
    return _bit_matrix(values.shape[0].bit_length() - 1) @ _top_increments(values)


def modular_part(h: SetFunction) -> SetFunction:
    """Modular component of the tight + modular decomposition of h.

    Its singleton values are the top increments h(N) - h(N - i).  The
    decomposition identity tight_part(h) + modular_part(h) = h holds
    coordinatewise exactly in floating point.  Non-polymatroid input is
    reported through :class:`NonPolymatroidWarning`; the formula is total.
    """
    _warn_if_not_polymatroid(h, "modular_part")
    return SetFunction(h.ground, _modular_values(h.values))


def tight_part(h: SetFunction) -> SetFunction:
    """Tight component of h: h minus its modular part.

    Non-polymatroid input is reported through :class:`NonPolymatroidWarning`;
    the formula is total.
    """
    _warn_if_not_polymatroid(h, "tight_part")
    return SetFunction(h.ground, h.values - _modular_values(h.values))


def convolution(f: SetFunction, g: SetFunction) -> SetFunction:
    """(f * g)(I) = min over J subset of I of f(J) + g(I - J).

    Exhaustive subset-of-subset enumeration, O(3^n) evaluations total.
    Commutative; the result is a polymatroid whenever f is one and g is
    modular.
    """
    f._require_same_ground(g)
    I, J, starts = _submask_table(f.ground.n)
    out = np.minimum.reduceat(f.values[J] + g.values[I ^ J], starts)
    out[0] = 0.0
    return SetFunction(f.ground, out)


def convolve_modular_iterative(f: SetFunction, g: SetFunction,
                               tol: float = TOL_ANALYTIC) -> SetFunction:
    """Convolution with a modular g as a chain of single-element convolutions.

    Writes g as a multiple convolution of factors g_i that equal g at i and a
    large constant elsewhere; each factor then only updates the subsets
    containing i via min(h(I) + g(i), h(iI)).  Agrees exactly with
    :func:`convolution` on polymatroid inputs.
    """
    f._require_same_ground(g)
    if not is_modular(g, tol):
        raise ValueError("g must be modular for the iterative convolution")
    lo, hi = (steps.reshape(f.ground.n, -1) for steps in _step_table(f.ground.n))
    h = np.array(f.values)
    for b in range(f.ground.n):
        h[hi[b]] = np.minimum(h[lo[b]] + g.values[1 << b], h[hi[b]])
    return SetFunction(f.ground, h)


def contraction(f: SetFunction, I: SubsetLike) -> SetFunction:
    """Contraction along I: h(J) = f(J | I) - f(I) on the ground set N - I."""
    g = f.ground
    mI = g.mask(I)
    if mI == 0:
        return f
    rest_bits = [b for b in range(g.n) if not mI >> b & 1]
    if not rest_bits:
        raise ValueError("cannot contract along the full ground set")
    sub = GroundSet(g.labels[b] for b in rest_bits)
    vals = f.values[_spread_masks(sub.n, rest_bits) | mI] - f.values[mI]
    vals[0] = 0.0
    return SetFunction(sub, vals)


def parallel_extension(f: SetFunction, L: SubsetLike, new_label: str) -> SetFunction:
    """Extend by one element parallel to the subset L.

    The new element takes the top bit; h(J) = f(J) and
    h(new | J) = f(L | J) for J in the old power set.
    """
    g = f.ground
    if new_label in g.labels:
        raise ValueError(f"label {new_label!r} already present")
    mL = g.mask(L)
    ext = GroundSet(g.labels + (new_label,))
    return SetFunction(ext, np.concatenate([f.values, f.values[mL | np.arange(g.size)]]))


def _check_pe_value(f: SetFunction, mL: int, t: float) -> float:
    fL = float(f.values[mL])
    if not -1e-12 <= t <= fL + 1e-12:
        raise ValueError(f"extension value t={t} outside [0, f(L)={fL}]")
    return min(max(t, 0.0), fL)


def principal_extension(f: SetFunction, L: SubsetLike, t: float,
                        new_label: str = "0") -> SetFunction:
    """Principal extension on the subset L with value t, 0 <= t <= f(L).

    Equals the parallel extension by L convolved with a modular function
    valued t at the new element and at least f(i) elsewhere:
    h(new | I) = min(f(I) + t, f(L | I)).
    """
    par = parallel_extension(f, L, new_label)
    t = _check_pe_value(f, f.ground.mask(L), t)
    top = np.minimum(f.values + t, par.values[f.ground.size:])
    return par.with_values(np.concatenate([f.values, top]))


def pe_contract(f: SetFunction, L: SubsetLike, t: float) -> SetFunction:
    """Contract the principal extension back to the original ground set.

    Returns I -> min(f(I), f(L | I) - t).  With L = N this is the truncation
    of f by t.
    """
    mL = f.ground.mask(L)
    t = _check_pe_value(f, mL, t)
    vals = np.minimum(f.values, f.values[mL | np.arange(f.ground.size)] - t)
    vals[0] = 0.0
    return SetFunction(f.ground, vals)


def closure_of(f: SetFunction, I: SubsetLike, tol: float = TOL_ANALYTIC) -> int:
    """Closure of I under f: all elements i with f(i | I) <= f(I) + tol."""
    _check_tol(tol)
    mI = f.ground.mask(I)
    bits = 1 << np.arange(f.ground.n)
    return int(bits[f.values[mI | bits] <= f.values[mI] + tol].sum())


def relabel(f: SetFunction, perm: Mapping[str, str]) -> SetFunction:
    """Permute the ground labels: the result h satisfies h(perm(I)) = f(I).

    ``perm`` maps labels to labels and must be a bijection of the ground set;
    omitted labels stay fixed.
    """
    g = f.ground
    full = {lab: perm.get(lab, lab) for lab in g.labels}
    if sorted(full.values()) != sorted(g.labels):
        raise ValueError(f"not a permutation of {g.labels}: {full}")
    vals = np.zeros(g.size)
    vals[_spread_masks(g.n, [g.bit(full[lab]) for lab in g.labels])] = f.values
    return SetFunction(g, vals)


# --- JSON wire format -------------------------------------------------------
#
# {"labels": ["i","j","k","l"], "values": {"": 0.0, "i": ..., "ij": ..., ...}}
# with every subset key present, keys being labels concatenated in ground
# order.  The reader enforces values[""] == 0 and completeness.  Labels whose
# concatenations collide (a, b, ab) are rejected both ways.

def _json_keys(ground: GroundSet) -> list[str]:
    keys = [ground.subset_key(m) for m in ground.subsets()]
    if len(set(keys)) != len(keys):
        raise ValueError(f"labels {ground.labels} give two subsets the same "
                         "JSON key; rename them")
    return keys


def set_function_to_json(f: SetFunction) -> dict:
    keys = _json_keys(f.ground)
    return {
        "labels": list(f.ground.labels),
        "values": {key: float(v) for key, v in zip(keys, f.values)},
    }


def set_function_from_json(data: dict) -> SetFunction:
    try:
        ground = GroundSet(data["labels"])
        raw = data["values"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed set-function document: {exc}") from exc
    if not (isinstance(raw, dict) and all(map(_is_real, raw.values()))):
        raise ValueError("malformed set-function document: values need an object of "
                         "numbers (true and false are not numbers)")
    expected = _json_keys(ground)
    if set(raw) != set(expected):
        missing = sorted(set(expected) - set(raw))
        extra = sorted(set(raw) - set(expected))
        raise ValueError(f"subset keys incomplete: missing {missing}, extra {extra}")
    if raw[""] != 0:
        raise ValueError(f'values[""] must be 0, got {raw[""]!r}')
    return SetFunction(ground, [raw[k] for k in expected])


def save_set_function(f: SetFunction, path) -> None:
    _write_json(set_function_to_json(f), path)


def load_set_function(path) -> SetFunction:
    return _read_file(path, set_function_from_json)
