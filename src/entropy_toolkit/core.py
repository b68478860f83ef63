"""Set functions on small ground sets: axioms, generators, convolution, decomposition.

A set function assigns a real value to every subset of a labeled ground set
of at most 8 elements.  Subsets are encoded as bitmasks: bit ``b`` is set
iff ``labels[b]`` belongs to the subset.  Rank functions of polymatroids and
entropy functions of random vectors are the intended inhabitants, but the
algebraic operations below are total: only :func:`check_axioms` judges
whether a function is a polymatroid.

All values are immutable after construction and every operation is a pure
function, so concurrent read access is safe.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence, Union

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
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"labels must be pairwise distinct: {self.labels}")
        if any(not lab for lab in self.labels):
            raise ValueError("labels must be nonempty strings")

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


def check_axioms(f: SetFunction, tol: float = TOL_ANALYTIC) -> AxiomReport:
    """Check monotonicity and submodularity through elemental inequalities.

    Monotonicity is checked on all single-element increments
    f(K + i) - f(K) >= -tol, submodularity on all elemental defects
    delta(f, iK, jK) >= -tol with K disjoint from {i, j}.  For submodular
    inputs these imply the full pairwise conditions.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    g = f.ground
    v = f.values
    n = g.n

    mono: list[tuple[float, int, int]] = []
    for b in range(n):
        bit = 1 << b
        for K in g.subsets():
            if K & bit:
                continue
            margin = v[K | bit] - v[K]
            if margin < 0.0:
                mono.append((float(margin), K, K | bit))

    sub: list[tuple[float, int, int]] = []
    for a in range(n):
        for b in range(a + 1, n):
            pair = (1 << a) | (1 << b)
            for K in g.subsets():
                if K & pair:
                    continue
                iK, jK = K | (1 << a), K | (1 << b)
                margin = v[iK] + v[jK] - v[K | pair] - v[K]
                if margin < 0.0:
                    sub.append((float(margin), iK, jK))

    mono.sort(key=lambda t: t[0])
    sub.sort(key=lambda t: t[0])
    worst_mono = mono[0][0] if mono else 0.0
    worst_sub = sub[0][0] if sub else 0.0
    return AxiomReport(
        is_monotone=worst_mono >= -tol,
        is_submodular=worst_sub >= -tol,
        worst_monotone_violation=worst_mono,
        worst_submodular_violation=worst_sub,
        monotone_witnesses=tuple((p, q) for m, p, q in mono if m < -tol),
        submodular_witnesses=tuple((p, q) for m, p, q in sub if m < -tol),
        tol=tol,
    )


def matroid_rank(ground: GroundSet, m: int, loops: SubsetLike = 0) -> SetFunction:
    """Rank function of the uniform-up-to-loops matroid: min(m, |I - loops|)."""
    J = ground.mask(loops)
    free = ground.n - bin(J).count("1")
    if not 0 <= m <= free:
        raise ValueError(f"rank {m} out of range 0..{free} for loop set "
                         f"{ground.subset_key(J)!r}")
    vals = [min(m, bin(I & ~J).count("1")) for I in ground.subsets()]
    return SetFunction(ground, vals)


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
    total = sum(f.values[1 << b] for b in range(f.ground.n))
    if abs(f.rank - total) > tol:
        return False
    return check_axioms(f, tol).is_polymatroid


def is_tight(f: SetFunction, tol: float = TOL_ANALYTIC) -> bool:
    """True iff f(N) = f(N - i) for every element i, within tol."""
    full = f.ground.full_mask
    return all(abs(f.values[full] - f.values[full ^ (1 << b)]) <= tol
               for b in range(f.ground.n))


def _warn_if_not_polymatroid(h: SetFunction, where: str) -> None:
    if not check_axioms(h, tol=TOL_ENTROPIC).is_polymatroid:
        warnings.warn(f"{where}: input is not a polymatroid at tolerance "
                      f"{TOL_ENTROPIC}; computing anyway",
                      NonPolymatroidWarning, stacklevel=3)


@lru_cache(maxsize=None)
def _bit_matrix(n: int) -> np.ndarray:
    """Membership matrix: entry (I, b) is 1.0 iff bit b is set in mask I."""
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    bits.flags.writeable = False
    return bits


def _spread_masks(n: int, targets) -> np.ndarray:
    """For every mask I over n bits, the mask with bit b moved to targets[b]."""
    return (_bit_matrix(n) @ np.exp2(targets)).astype(np.int64)


def _modular_values(values: np.ndarray) -> np.ndarray:
    """Values of the modular part: the top increments h(N) - h(N - i) summed
    over each subset.  Works columnwise on a stack of value vectors."""
    n = values.shape[0].bit_length() - 1
    full = (1 << n) - 1
    return _bit_matrix(n) @ (values[full] - values[full ^ (1 << np.arange(n))])


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
    fv, gv = f.values, g.values
    out = np.empty(f.ground.size)
    for I in f.ground.subsets():
        best = fv[0] + gv[I]
        J = I
        while J:
            cand = fv[J] + gv[I ^ J]
            if cand < best:
                best = cand
            J = (J - 1) & I
        out[I] = best
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
    h = np.array(f.values)
    for b in range(f.ground.n):
        bit = 1 << b
        gi = g.values[bit]
        for I in f.ground.subsets():
            if I & bit:
                continue
            h[I | bit] = min(h[I] + gi, h[I | bit])
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
    top = 1 << g.n
    vals = np.zeros(ext.size)
    vals[:top] = f.values
    for J in g.subsets():
        vals[top | J] = f.values[mL | J]
    return SetFunction(ext, vals)


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
    g = f.ground
    if new_label in g.labels:
        raise ValueError(f"label {new_label!r} already present")
    mL = g.mask(L)
    t = _check_pe_value(f, mL, t)
    ext = GroundSet(g.labels + (new_label,))
    top = 1 << g.n
    vals = np.zeros(ext.size)
    vals[:top] = f.values
    for I in g.subsets():
        vals[top | I] = min(f.values[I] + t, f.values[mL | I])
    return SetFunction(ext, vals)


def pe_contract(f: SetFunction, L: SubsetLike, t: float) -> SetFunction:
    """Contract the principal extension back to the original ground set.

    Returns I -> min(f(I), f(L | I) - t).  With L = N this is the truncation
    of f by t.
    """
    g = f.ground
    mL = g.mask(L)
    t = _check_pe_value(f, mL, t)
    vals = np.minimum(f.values, np.array([f.values[mL | I] for I in g.subsets()]) - t)
    vals[0] = 0.0
    return SetFunction(g, vals)


def closure_of(f: SetFunction, I: SubsetLike, tol: float = TOL_ANALYTIC) -> int:
    """Closure of I under f: all elements i with f(i | I) <= f(I) + tol."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    g = f.ground
    mI = g.mask(I)
    out = 0
    for b in range(g.n):
        if f.values[mI | (1 << b)] <= f.values[mI] + tol:
            out |= 1 << b
    return out


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
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed set-function document: {exc}") from exc
    expected = _json_keys(ground)
    if set(raw) != set(expected):
        missing = sorted(set(expected) - set(raw))
        extra = sorted(set(raw) - set(expected))
        raise ValueError(f"subset keys incomplete: missing {missing}, extra {extra}")
    if raw[""] != 0:
        raise ValueError(f'values[""] must be 0, got {raw[""]!r}')
    return SetFunction(ground, [float(raw[k]) for k in expected])


def save_set_function(f: SetFunction, path) -> None:
    with open(path, "w") as fh:
        json.dump(set_function_to_json(f), fh, indent=1)
        fh.write("\n")


def load_set_function(path) -> SetFunction:
    with open(path) as fh:
        return set_function_from_json(json.load(fh))
