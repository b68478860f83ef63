"""Entropy functions of finite random vectors and two closed-form families.

A :class:`JointDistribution` is two read-only arrays in insertion order: an
int64 (k, n) array of configurations and a float64 (k,) array of their
probabilities.  Construction validates both with array expressions
(arity, integer symbols, range, duplicates through their mixed-radix cell
index, finiteness, the -1e-12 clamp and a left-to-right sum);
:meth:`JointDistribution.from_dense` pairs a dense vector with a cached
configuration grid per alphabet, and the file readers and writers go
straight between rows and the arrays.  The ``atoms`` mapping is a read-only
view built only when asked for.

The generic path goes distribution -> marginals -> Shannon entropies (nats):
:func:`marginal_index` numbers the cells of every marginal at once, and
:func:`subset_entropies` turns atom probabilities into all marginal entropies
with one bincount.  The search engine evaluates entropies through the same
two functions, over the same configuration grid.

On top of that sit the two hand-analyzed families used throughout the Ingleton
score experiments:

* the four-atom family: two exchangeable bits plus their min and max, indexed
  by the probability p of the all-zero atom;
* the ``exl`` family: four variables over {0,1,2,3} supported on forty fixed
  configurations arranged in five columns of eight, weighted by the column
  parameters p, q, r, s, t with p+q+r+s+t = 1/8.

Both families come with closed-form entropy vectors that the generic
computation must reproduce; tests rely on this mutual check.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from itertools import chain
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .core import (GroundSet, SetFunction, _csv_numbers, _is_integer, _is_real,
                   _read_file, _read_only, _write_file, _write_json)

LN2 = math.log(2.0)

#: probabilities below this are treated as exact zeros inside kappa
KAPPA_FLOOR = 1e-15

#: refuse to enumerate product alphabets larger than this
MAX_CELLS = 10_000_000

#: index entries per marginal_index call in entropy_function, bounding its memory
INDEX_CHUNK = 1 << 22

#: marginal_index plans (place values and block offsets) kept in the cache
PLAN_CACHE = 8


def kappa(u: float) -> float:
    """Entropy kernel -u ln u on [0, 1], with kappa(0) = 0."""
    if u < -1e-12 or u > 1.0 + 1e-9:
        raise ValueError(f"kappa argument {u} outside [0, 1]")
    if u <= KAPPA_FLOOR or u >= 1.0:
        return 0.0
    return -u * math.log(u)


def _checked_sizes(ground: GroundSet, alphabet_sizes) -> tuple[int, ...]:
    """Alphabet sizes as Python ints: one positive integer per variable
    (numpy integers accepted, bools and floats rejected) and at most
    MAX_CELLS cells in all."""
    sizes = tuple(alphabet_sizes)
    if len(sizes) != ground.n or not all(_is_integer(s) and s >= 1 for s in sizes):
        raise ValueError(f"need {ground.n} positive integer alphabet sizes, "
                         f"got {alphabet_sizes!r}")
    sizes = tuple(int(s) for s in sizes)
    n_cells = math.prod(sizes)
    if n_cells > MAX_CELLS:
        raise ValueError(f"product alphabet has {n_cells} cells, exceeding "
                         f"the {MAX_CELLS} guard")
    return sizes


def _config_array(rows: list, n: int) -> np.ndarray:
    """Configuration rows as a (k, n) int64 array.

    Every row must have n entries, and every entry must be an integer
    (numpy integers accepted, bools and floats rejected).
    """
    try:
        arities = set(map(len, rows))
        entries = list(chain.from_iterable(rows))
    except TypeError:
        raise ValueError("configurations must be sequences of integers") from None
    if arities - {n}:
        bad = next(row for row in rows if len(row) != n)
        raise ValueError(f"configuration {tuple(bad)} has wrong arity")
    one_per_type = dict(zip(map(type, entries), entries)).values()
    if not all(map(_is_integer, one_per_type)):
        raise ValueError(f"configuration entries must be integers, got "
                         f"{sorted(type(x).__name__ for x in one_per_type)}")
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), n)
    except OverflowError:
        raise ValueError("configuration entry outside every alphabet") from None


def _checked_configs(configs: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """``configs`` after checking that every row lies inside the alphabet
    and that no row repeats."""
    outside = ((configs < 0) | (configs >= sizes)).any(axis=1)
    if outside.any():
        cfg = tuple(configs[outside.argmax()].tolist())
        raise ValueError(f"configuration {cfg} outside alphabet {sizes}")
    first = np.unique(np.ravel_multi_index(configs.T, sizes), return_index=True)[1]
    if len(first) < len(configs):
        repeated = np.ones(len(configs), dtype=bool)
        repeated[first] = False
        raise ValueError(f"duplicate configuration "
                         f"{tuple(configs[repeated.argmax()].tolist())}")
    return configs


@lru_cache(maxsize=4)
def _config_grid(sizes: tuple[int, ...]) -> np.ndarray:
    """Every configuration of the product alphabet, one row per cell in the
    C order of :meth:`JointDistribution.as_dense`; read-only and shared.

    The cache keeps at most four grids of n int64 entries per cell, and
    MAX_CELLS bounds the cells.
    """
    grid = np.indices(sizes, dtype=np.int64).reshape(len(sizes), -1).T
    return _read_only(np.ascontiguousarray(grid))[0]


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Probability mass function over a finite product alphabet.

    Stored as two read-only arrays in insertion order: ``configs``, one row
    of symbol indices per atom (int64, shape (k, n), columns in ground-label
    order), and ``probs``, the atoms' probabilities (float64, shape (k,)).
    Configurations are distinct and inside the alphabet; probabilities are
    finite, at least -1e-12 (clamped to 0, keeping -0.0) and sum to one
    within 1e-12, added in row order.  ``atoms`` is the same data as a
    read-only mapping, and equality compares that mapping, so it ignores the
    row order.
    """

    ground: GroundSet
    alphabet_sizes: tuple[int, ...]
    configs: np.ndarray
    probs: np.ndarray

    def __init__(self, ground: GroundSet, alphabet_sizes, atoms: Mapping):
        sizes = _checked_sizes(ground, alphabet_sizes)
        configs = _checked_configs(_config_array(list(atoms), ground.n), sizes)
        self._assign(ground, sizes, configs, np.array(list(atoms.values()), dtype=float))

    @classmethod
    def _from_arrays(cls, ground: GroundSet, alphabet_sizes, configs: np.ndarray,
                     probs: np.ndarray) -> "JointDistribution":
        """Validated distribution from a (k, n) int64 configuration array and
        its k probabilities, without a mapping in between."""
        sizes = _checked_sizes(ground, alphabet_sizes)
        d = cls.__new__(cls)
        d._assign(ground, sizes, _checked_configs(configs, sizes), probs)
        return d

    def _assign(self, ground: GroundSet, sizes: tuple[int, ...], configs: np.ndarray,
                probs: np.ndarray) -> None:
        """Check the probabilities of checked configurations and store both."""
        if probs.shape != (len(configs),):
            raise ValueError("need one probability (a number) per configuration")
        bad = ~np.isfinite(probs) | (probs < -1e-12)
        if bad.any():
            at = bad.argmax()
            raise ValueError(f"probability {float(probs[at])} at "
                             f"{tuple(configs[at].tolist())} is negative or not finite")
        # np.where, unlike np.maximum, keeps -0.0 as max(-0.0, 0.0) does
        probs = np.where(probs < 0.0, 0.0, probs)
        # accumulate adds left to right, as a running total would
        total = float(np.add.accumulate(probs)[-1]) if len(probs) else 0.0
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "configs", _read_only(configs)[0])
        object.__setattr__(self, "probs", _read_only(probs)[0])

    @cached_property
    def atoms(self) -> Mapping[tuple[int, ...], float]:
        """Read-only {configuration tuple: probability} view in row order."""
        return MappingProxyType(dict(zip(map(tuple, self.configs.tolist()),
                                         self.probs.tolist())))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.ground, self.alphabet_sizes, self.atoms)
                == (other.ground, other.alphabet_sizes, other.atoms))

    def __reduce__(self):
        return (self._from_arrays,
                (self.ground, self.alphabet_sizes, self.configs, self.probs))

    @property
    def n_cells(self) -> int:
        return math.prod(self.alphabet_sizes)

    def as_dense(self) -> np.ndarray:
        """Flat probability vector over all cells, C-order over the alphabet grid."""
        vec = np.zeros(self.n_cells)
        vec[np.ravel_multi_index(self.configs.T, self.alphabet_sizes)] = self.probs
        return vec

    @classmethod
    def from_dense(cls, ground: GroundSet, alphabet_sizes, vec) -> "JointDistribution":
        """Distribution with one atom per cell of the grid, zero cells included."""
        sizes = _checked_sizes(ground, alphabet_sizes)
        d = cls.__new__(cls)
        d._assign(ground, sizes, _config_grid(sizes),
                  np.asarray(vec, dtype=float).reshape(math.prod(sizes)))
        return d


@lru_cache(maxsize=PLAN_CACHE)
def _index_plan(sizes: tuple, n: int, masks: bytes, dtype: str,
                shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Place values and block offsets of :func:`marginal_index` for one
    alphabet and one mask array (its bytes, dtype and shape); read-only and
    shared.  The cache keeps at most PLAN_CACHE plans, each holding (n + 2)
    int64 per mask with its key: 20,400 bytes for the 255 masks of n = 8."""
    masks = np.frombuffer(masks, dtype=dtype).reshape(shape)
    member = (masks >> np.arange(n)[:, None]) & 1
    radix = np.where(member, np.asarray(sizes, dtype=np.int64)[:, None], 1)
    block = np.cumprod(radix[::-1], axis=0)[::-1]
    place = member * np.vstack([block[1:], np.ones_like(block[:1])])
    offsets = np.concatenate(([0], np.cumsum(block[0])[:-1]))
    return _read_only(place, offsets)


def marginal_index(configs: np.ndarray, sizes,
                   masks: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """Cell of every atom (rows of ``configs``) in the marginal on every subset.

    An atom's key on subset I is the mixed-radix index of its configuration
    restricted to I, lowest bit most significant, offset per subset so the
    blocks do not overlap; one ``configs @ place_values`` product gives all
    keys and ``np.unique`` numbers the occupied cells.  Returns the cell
    indices subset by subset, each subset's first cell and the cell count.
    ``masks`` (integers) defaults to every nonempty subset.  The place values
    and offsets come from :func:`_index_plan`'s cache of PLAN_CACHE plans.
    """
    n = configs.shape[1]
    masks = np.arange(1, 1 << n) if masks is None else np.asarray(masks)
    place, offsets = _index_plan(tuple(sizes), n, masks.tobytes(), masks.dtype.str,
                                 masks.shape)
    cells, flat_idx = np.unique((configs @ place + offsets).T.ravel(),
                                return_inverse=True)
    return flat_idx, np.searchsorted(cells, offsets), len(cells)


def subset_entropies(p: np.ndarray, flat_idx: np.ndarray, starts: np.ndarray,
                     n_cells: int, out: np.ndarray | None = None) -> np.ndarray:
    """Entropies (nats) of the marginals of a :func:`marginal_index`, one per
    subset, from the atom probabilities ``p`` in ``configs`` row order.

    One bincount accumulates every marginal mass, weighted by ``p`` tiled
    once per subset by ``repeat`` of its one-row view (faster than
    ``np.tile``, than a broadcast assignment into a fresh array, and than a
    gather through a cached index table from 4^4 up); masses in
    (KAPPA_FLOOR, 1) contribute -m ln m, and one ``reduceat`` sums them
    subset by subset, into ``out`` when given (which is then returned).
    """
    weights = p.reshape(1, -1).repeat(len(starts), 0).ravel()
    masses = np.bincount(flat_idx, weights=weights, minlength=n_cells)
    contrib = np.zeros(n_cells)
    live = (masses > KAPPA_FLOOR) & (masses < 1.0)
    m = masses[live]
    contrib[live] = -m * np.log(m)
    return np.add.reduceat(contrib, starts, out=out)


def entropy_function(d: JointDistribution) -> SetFunction:
    """Entropy function of a joint distribution: I -> H(marginal on I), in nats."""
    live = d.probs > 0.0
    configs, probs = d.configs[live], d.probs[live]
    vals = np.zeros(d.ground.size)
    step = max(1, INDEX_CHUNK // len(probs))
    for lo in range(1, d.ground.size, step):
        masks = np.arange(lo, min(lo + step, d.ground.size))
        vals[masks] = subset_entropies(
            probs, *marginal_index(configs, d.alphabet_sizes, masks))
    return SetFunction(d.ground, vals)


# --- four-atom family -------------------------------------------------------

@dataclass(frozen=True)
class FourAtomParams:
    """Probability p in [0, 1/2] of the all-zero atom of the four-atom family."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 0.5:
            raise ValueError(f"p={self.p} outside [0, 1/2]")


def _four_atom_p(params) -> float:
    if isinstance(params, FourAtomParams):
        return params.p
    return FourAtomParams(float(params)).p


def _family_ground(ground: GroundSet | None, family: str) -> GroundSet:
    """``ground`` (default labels i, j, k, l) after checking it has four elements."""
    ground = ground or GroundSet("ijkl")
    if ground.n != 4:
        raise ValueError(f"{family} family needs a 4-element ground set")
    return ground


def four_atom_distribution(params, ground: GroundSet | None = None) -> JointDistribution:
    """Two exchangeable fair bits at positions 0,1 with their min and max.

    Atoms on {0,1}^4: (0,0,0,0) and (1,1,1,1) carry probability p each,
    (0,1,0,1) and (1,0,0,1) carry 1/2 - p each.
    """
    p = _four_atom_p(params)
    return JointDistribution._from_arrays(
        _family_ground(ground, "four-atom"), (2, 2, 2, 2),
        np.array([[0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 0, 1], [1, 1, 1, 1]], dtype=np.int64),
        np.array([p, 0.5 - p, 0.5 - p, p], dtype=float))


def four_atom_score(params) -> float:
    """Closed-form Ingleton score of the four-atom family at parameter p.

    Score of the pair formed by the two exchangeable bits:
    ((2p+1) ln 2 - 2 kappa(p) - 2 kappa(1-p)) / (2 kappa(p) + 2 kappa(1/2-p)).
    The denominator is bounded away from 0 on [0, 1/2].
    """
    p = _four_atom_p(params)
    num = (2.0 * p + 1.0) * LN2 - 2.0 * kappa(p) - 2.0 * kappa(1.0 - p)
    den = 2.0 * kappa(p) + 2.0 * kappa(0.5 - p)
    if den <= 0.0:
        raise ValueError(f"degenerate denominator at p={p}")
    return num / den


# --- exl family: forty configurations over {0,1,2,3}^4 ----------------------

#: the five column parameters and their eight configurations each
EXL_COLUMNS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("p", ("0000", "0101", "1010", "1212", "2121", "2323", "3232", "3333")),
    ("q", ("0210", "0321", "1100", "1332", "2001", "2233", "3012", "3123")),
    ("r", ("0011", "0120", "1002", "1230", "2103", "2331", "3213", "3322")),
    ("s", ("0010", "0121", "1000", "1232", "2101", "2333", "3212", "3323")),
    ("t", ("0001", "0100", "1012", "1210", "2123", "2321", "3233", "3332")),
)


@dataclass(frozen=True)
class ExLParams:
    """Column weights of the forty-configuration family; they sum to 1/8."""

    p: float
    q: float
    r: float
    s: float
    t: float

    def __post_init__(self):
        vals = self.as_tuple()
        if any(not math.isfinite(v) or v < -1e-15 for v in vals):
            raise ValueError(f"parameters must be finite and nonnegative: {vals}")
        if abs(sum(vals) - 0.125) > 1e-12:
            raise ValueError(f"parameters sum to {sum(vals)!r}, need 1/8")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.p, self.q, self.r, self.s, self.t)


#: parameter point at which the family's tight part beats the four-atom score
EXL_REFERENCE = ExLParams(p=0.09524, q=0.02494, r=0.00160, s=0.00161, t=0.00161)


def exl_distribution(params: ExLParams, ground: GroundSet | None = None) -> JointDistribution:
    """Distribution over {0,1,2,3}^4 supported on the forty tabled configurations."""
    return JointDistribution._from_arrays(
        _family_ground(ground, "exl"), (4, 4, 4, 4),
        np.array([[*map(int, cfg)] for _, cfgs in EXL_COLUMNS for cfg in cfgs], dtype=np.int64),
        np.repeat(np.array(params.as_tuple(), dtype=float), 8))


def exl_closed_form(params: ExLParams, ground: GroundSet | None = None) -> SetFunction:
    """Entropy function of the forty-configuration family in closed form.

    Singletons are 2 ln 2, the cross pairs il and jk are 3 ln 2, and the
    remaining coordinates are short kappa sums in the column weights.  Agrees
    with entropy_function(exl_distribution(params)) to full precision.
    """
    ground = _family_ground(ground, "exl")
    p, q, r, s, t = params.as_tuple()
    k = kappa
    vals = np.zeros(16)
    m = ground.mask
    for lab in ground.labels:
        vals[m(lab)] = 2.0 * LN2
    i, j, kk, l = ground.labels
    vals[m((i, l))] = vals[m((j, kk))] = 3.0 * LN2
    vals[m((i, j))] = 8.0 * k(q) + 8.0 * k(p + r + s + t)
    vals[m((kk, l))] = 8.0 * k(r) + 8.0 * k(p + q + s + t)
    vals[m((i, kk))] = 4.0 * k(2.0 * p + 2.0 * t) + 8.0 * k(q + r + s)
    vals[m((j, l))] = 4.0 * k(2.0 * p + 2.0 * s) + 8.0 * k(q + r + t)
    vals[m((i, kk, l))] = 8.0 * k(p + t) + 8.0 * k(q + s) + 8.0 * k(r)
    vals[m((j, kk, l))] = 8.0 * k(p + s) + 8.0 * k(q + t) + 8.0 * k(r)
    vals[m((i, j, kk))] = 8.0 * k(p + t) + 8.0 * k(r + s) + 8.0 * k(q)
    vals[m((i, j, l))] = 8.0 * k(p + s) + 8.0 * k(r + t) + 8.0 * k(q)
    vals[ground.full_mask] = 8.0 * (k(p) + k(q) + k(r) + k(s) + k(t))
    return SetFunction(ground, vals)


def load_exl_table() -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Read the packaged CSV copy of the forty-configuration table."""
    cols: dict[str, list[str]] = {}
    text = resources.files("entropy_toolkit").joinpath("data/exl40.csv").read_text()
    for row in csv.DictReader(text.splitlines()):
        cols.setdefault(row["column"], []).append(row["config"])
    return tuple((name, tuple(cfgs)) for name, cfgs in cols.items())


# --- distribution wire formats ----------------------------------------------
#
# CSV: header "x_<label>,...,prob", one row per atom.
# JSON mirror: {"labels": [...], "alphabet_sizes": [...],
#               "atoms": [{"config": [...], "prob": ...}, ...]}

def _sorted_rows(d: JointDistribution) -> tuple[list, list]:
    """Configurations (lists of ints) and probabilities (floats), sorted by
    configuration."""
    order = np.lexsort(d.configs.T[::-1])
    return d.configs[order].tolist(), d.probs[order].tolist()


def distribution_to_csv(d: JointDistribution) -> str:
    lines = [",".join([f"x_{lab}" for lab in d.ground.labels] + ["prob"])]
    lines += [",".join([*map(str, cfg), repr(p)]) for cfg, p in zip(*_sorted_rows(d))]
    return "\n".join(lines) + "\n"


def distribution_from_csv(text: str, alphabet_sizes=None) -> JointDistribution:
    rows = list(csv.reader(line for line in text.splitlines() if line.strip()))
    if not rows:
        raise ValueError("empty distribution CSV")
    header, body = rows[0], rows[1:]
    if header[-1] != "prob" or not all(h.startswith("x_") for h in header[:-1]):
        raise ValueError(f"bad distribution header: {header}")
    ground = GroundSet(h[2:] for h in header[:-1])
    atoms = [_csv_numbers(row, [int] * ground.n + [float]) for row in body]
    configs = _config_array([atom[:-1] for atom in atoms], ground.n)
    probs = np.array([atom[-1] for atom in atoms])
    if alphabet_sizes is None:
        if not body:
            raise ValueError("distribution CSV has no atoms")
        alphabet_sizes = tuple((configs.max(axis=0) + 1).tolist())
    return JointDistribution._from_arrays(ground, alphabet_sizes, configs, probs)


def distribution_to_json(d: JointDistribution) -> dict:
    return {
        "labels": list(d.ground.labels),
        "alphabet_sizes": list(d.alphabet_sizes),
        "atoms": [{"config": cfg, "prob": p} for cfg, p in zip(*_sorted_rows(d))],
    }


def distribution_from_json(data: dict) -> JointDistribution:
    try:
        ground = GroundSet(data["labels"])
        sizes = data["alphabet_sizes"]
        configs = _config_array([a["config"] for a in data["atoms"]], ground.n)
        probs = [a["prob"] for a in data["atoms"]]
        if not (all(map(_is_integer, sizes)) and all(map(_is_real, probs))):
            raise ValueError("alphabet sizes need integers, probabilities numbers")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed distribution document: {exc}") from exc
    return JointDistribution._from_arrays(ground, sizes, configs,
                                          np.array(probs, dtype=float))


def save_distribution(d: JointDistribution, path) -> None:
    if str(path).endswith(".csv"):
        _write_file(path, lambda fh: fh.write(distribution_to_csv(d)))
    else:
        _write_json(distribution_to_json(d), path)


def load_distribution(path) -> JointDistribution:
    if str(path).endswith(".csv"):
        return _read_file(path, distribution_from_csv, parse=lambda fh: fh.read())
    return _read_file(path, distribution_from_json)
