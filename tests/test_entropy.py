"""Entropy functions, the four-atom family and the forty-configuration family."""

import gc
import json
import math
import pickle
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entropy_toolkit import (
    EXL_COLUMNS,
    EXL_REFERENCE,
    ExLParams,
    GroundSet,
    JointDistribution,
    check_axioms,
    distribution_from_csv,
    distribution_from_json,
    distribution_to_csv,
    distribution_to_json,
    entropy_function,
    exl_closed_form,
    exl_distribution,
    four_atom_distribution,
    four_atom_score,
    kappa,
    modular_from,
)
from entropy_toolkit import entropy as entropy_mod
from entropy_toolkit.core import TOL_ENTROPIC
from entropy_toolkit.search.engine import DistributionObjective, softmax

from helpers import (
    JointDistributionByDict,
    all_live_by_reduce,
    assert_same_rows,
    distribution_from_csv_by_dict,
    distribution_from_json_by_dict,
    distribution_to_csv_by_dict,
    distribution_to_json_by_dict,
    entropy_by_dict_marginals,
    entropy_function_by_dict,
    entropy_function_by_tile,
    exl_distribution_by_dict,
    four_atom_distribution_by_dict,
    marginal_index_by_fresh_plan,
    marginal_index_by_unique,
    rand_distribution,
    subset_entropies_by_tile,
)

LN2 = math.log(2.0)


class TestKappa:
    def test_endpoints(self):
        assert kappa(0.0) == 0.0
        assert kappa(1.0) == 0.0

    def test_half(self):
        assert kappa(0.5) == pytest.approx(LN2 / 2, abs=1e-15)

    def test_tiny_values_are_zero(self):
        assert kappa(1e-16) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            kappa(-0.1)
        with pytest.raises(ValueError):
            kappa(1.1)
        with pytest.raises(ValueError):
            kappa(float("nan"))


class TestJointDistribution:
    def test_validation(self, ground):
        with pytest.raises(ValueError):
            JointDistribution(ground, (2, 2, 2, 2), {(0, 0, 0, 0): 0.5})
        with pytest.raises(ValueError):
            JointDistribution(ground, (2, 2, 2, 2), {(0, 0, 0, 2): 1.0})
        with pytest.raises(ValueError):
            JointDistribution(ground, (2, 2, 2, 2), {(0, 0, 0, 0): 1.5,
                                                     (1, 1, 1, 1): -0.5})

    def test_dense_roundtrip(self, ground, rng):
        d = rand_distribution(rng, ground, (2, 3, 2, 2))
        back = JointDistribution.from_dense(ground, d.alphabet_sizes, d.as_dense())
        assert back.atoms == d.atoms


class TestEntropyFunction:
    def test_single_fair_bit(self):
        g = GroundSet(["x"])
        d = JointDistribution(g, (2,), {(0,): 0.5, (1,): 0.5})
        f = entropy_function(d)
        assert f("x") == pytest.approx(LN2, abs=1e-15)

    def test_independent_bits_are_modular(self, ground):
        atoms = {cfg: 1 / 16 for cfg in
                 ((a, b, c, d) for a in range(2) for b in range(2)
                  for c in range(2) for d in range(2))}
        f = entropy_function(JointDistribution(ground, (2, 2, 2, 2), atoms))
        expected = modular_from(ground, [LN2] * 4)
        assert f.allclose(expected, tol=1e-12)

    def test_entropy_is_polymatroid(self, ground, rng):
        for sizes in [(2, 2, 2, 2), (3, 2, 4, 2)]:
            for _ in range(10):
                f = entropy_function(rand_distribution(rng, ground, sizes))
                assert check_axioms(f, tol=TOL_ENTROPIC).is_polymatroid


@st.composite
def sparse_distributions(draw):
    """Distributions on the search alphabets with most cells empty, a few
    atoms near KAPPA_FLOOR, or a single atom of mass 1."""
    sizes = draw(st.sampled_from([(2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4), (3, 2, 4, 2)]))
    n = math.prod(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = rng.dirichlet(np.ones(n)) * (rng.random(n) < draw(st.floats(0.0, 1.0)))
    tiny = draw(st.lists(st.integers(0, n - 1), max_size=3))
    dense[tiny] = entropy_mod.KAPPA_FLOOR * rng.uniform(0.5, 2.0, len(tiny))
    if dense.sum() == 0.0:
        dense[int(rng.integers(n))] = 1.0
    return JointDistribution.from_dense(GroundSet("ijkl"), sizes, dense / dense.sum())


def _takes_all_live_branch(p, flat_idx, starts, n_cells) -> bool:
    """Whether ``subset_entropies`` skips the live-cell mask on these inputs:
    every marginal mass in (KAPPA_FLOOR, 1)."""
    masses = np.bincount(flat_idx, weights=np.repeat(p, len(starts)), minlength=n_cells)
    return all_live_by_reduce(masses)


class _MaskSpy:
    """Stands in for the entropy module's numpy and records whether the
    masked path's zero-filled contribution array was made."""

    def __init__(self):
        self.masked = False

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, *args, **kwargs):
        self.masked = True
        return np.zeros(*args, **kwargs)


def _leading_atoms(sizes, rng, excess: float):
    """The atoms whose first symbol is 0, with probabilities whose running
    sum in row order is exactly 1 + excess, so the marginal on the first
    variable is one cell of that mass."""
    configs = entropy_mod._config_grid(sizes)
    configs = configs[configs[:, 0] == 0]
    head = 0.6 * rng.dirichlet(np.ones(len(configs) - 1))
    total = float(np.add.accumulate(head)[-1])
    # 1 - total is exact for a total in [1/2, 2], and so is the excess
    # added to it, a few units in its last place
    p = np.append(head, 1.0 - total + excess)
    assert float(np.add.accumulate(p)[-1]) == 1.0 + excess
    return configs, p


class TestAllLiveBranch:
    """``subset_entropies`` without the live-cell mask gives the masked
    oracle's bits, and the mask runs whenever a mass is at most KAPPA_FLOOR
    or at least 1."""

    ALPHABETS = [(2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4), (3, 2, 4, 2), (2, 3, 2, 2, 2)]

    @staticmethod
    def cases(sizes):
        """(name, configs, p, all_live) on one alphabet."""
        rng = np.random.default_rng(math.prod(sizes))
        grid = entropy_mod._config_grid(sizes)
        n = len(grid)
        yield "softmax", grid, softmax(rng.normal(size=n)), True
        zero = softmax(rng.normal(size=n))
        zero[rng.integers(n)] = 0.0
        yield "zero cell", grid, zero / zero.sum(), False
        floor = softmax(rng.normal(size=n))
        floor[rng.integers(n)] = 0.0
        floor *= (1.0 - entropy_mod.KAPPA_FLOOR) / floor.sum()
        floor[floor == 0.0] = entropy_mod.KAPPA_FLOOR
        yield "mass at the floor", grid, floor, False
        yield "point-mass marginal", *_leading_atoms(sizes, rng, 0.0), False
        yield "mass above one", *_leading_atoms(sizes, rng, 2.0 ** -52), False

    @pytest.mark.parametrize("sizes", ALPHABETS)
    def test_matches_masked_oracle(self, sizes):
        for name, configs, p, all_live in self.cases(sizes):
            index = entropy_mod.marginal_index(configs, sizes)
            assert _takes_all_live_branch(p, *index) is all_live, name
            got = entropy_mod.subset_entropies(p, *index)
            assert got.tobytes() == subset_entropies_by_tile(p, *index).tobytes(), name

    @pytest.mark.parametrize("sizes", ALPHABETS)
    def test_branch_is_the_reduce_test(self, monkeypatch, sizes):
        """The branch taken is the one the ufunc-reduction test picks, on
        every case and on a NaN mass, which takes the masked path: its cells
        count as not live, as in the oracle."""
        rng = np.random.default_rng(len(sizes))
        nan = softmax(rng.normal(size=math.prod(sizes)))
        nan[rng.integers(len(nan))] = np.nan
        grid = entropy_mod._config_grid(sizes)
        for name, configs, p, all_live in [*self.cases(sizes), ("NaN mass", grid, nan, False)]:
            index = entropy_mod.marginal_index(configs, sizes)
            spy = _MaskSpy()
            monkeypatch.setattr(entropy_mod, "np", spy)
            got = entropy_mod.subset_entropies(p, *index)
            monkeypatch.undo()
            assert _takes_all_live_branch(p, *index) is all_live, name
            assert spy.masked is not all_live, name
            assert got.tobytes() == subset_entropies_by_tile(p, *index).tobytes(), name

    @pytest.mark.parametrize("sizes", ALPHABETS)
    def test_chunked_entropy_function(self, monkeypatch, sizes):
        """Through ``entropy_function``'s chunks, each of which takes its own
        branch: an all-live distribution takes the unmasked one in every
        chunk, the others the masked one in at least one.  It drops zero
        atoms first, which leaves every mass of the zero-cell case live."""
        ground = GroundSet("ijklm"[:len(sizes)])
        subset_entropies = entropy_mod.subset_entropies
        for name, configs, p, all_live in self.cases(sizes):
            dense = np.zeros(math.prod(sizes))
            dense[np.ravel_multi_index(configs.T, sizes)] = p
            d = JointDistribution.from_dense(ground, sizes, dense)
            branches = []

            def spy(p, *index):
                branches.append(_takes_all_live_branch(p, *index))
                return subset_entropies(p, *index)
            monkeypatch.setattr(entropy_mod, "subset_entropies", spy)
            monkeypatch.setattr(entropy_mod, "INDEX_CHUNK", 5 * len(configs))
            got = entropy_function(d).values
            monkeypatch.undo()
            assert len(branches) == -(-(ground.size - 1) // 5), name
            assert (set(branches) == {True}) is (all_live or name == "zero cell"), name
            assert got.tobytes() == entropy_function_by_tile(d).values.tobytes(), name


class TestEntropyFunctionMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(sparse_distributions())
    def test_sparse_distributions(self, d):
        assert entropy_function(d).values.tobytes() == \
            entropy_function_by_tile(d).values.tobytes()

    def test_point_mass_and_exl(self):
        for d in (four_atom_distribution(0.5), exl_distribution(EXL_REFERENCE),
                  JointDistribution(GroundSet("ijkl"), (2, 2, 2, 2), {(0, 1, 1, 0): 1.0})):
            assert entropy_function(d).values.tobytes() == \
                entropy_function_by_tile(d).values.tobytes()

    @pytest.mark.parametrize("sizes", [(2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4),
                                       (3, 2, 4, 2)])
    def test_out_argument(self, sizes):
        index = entropy_mod.marginal_index(entropy_mod._config_grid(sizes), sizes)
        rng = np.random.default_rng(sum(sizes))
        n = math.prod(sizes)
        for dense, all_live in ((rng.dirichlet(np.ones(n)), True),
                                (rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.2), False)):
            p = dense / dense.sum()
            assert _takes_all_live_branch(p, *index) is all_live
            h = np.full(16, np.nan)
            v = h[1:]
            assert entropy_mod.subset_entropies(p, *index, out=v) is v
            assert v.tobytes() == entropy_mod.subset_entropies(p, *index).tobytes()
            assert np.isnan(h[0])

    @pytest.mark.parametrize("sizes", [(4, 4, 4, 4), (3, 2, 4, 2), (1, 2, 3, 1, 2)])
    def test_chunked_sparse_distributions(self, monkeypatch, sizes):
        """Every chunk's index equals the plan rebuilt on every call."""
        n = math.prod(sizes)
        rng = np.random.default_rng(n)
        ground = GroundSet("ijklm"[:len(sizes)])
        calls = []
        marginal_index = entropy_mod.marginal_index

        def counted_index(configs, sizes, lo, hi):
            calls.append((lo, hi))
            got = marginal_index(configs, sizes, lo, hi)
            masks = np.arange(lo, min(hi, ground.size))
            assert _same_triple(got, marginal_index_by_fresh_plan(configs, sizes, masks))
            return got
        monkeypatch.setattr(entropy_mod, "marginal_index", counted_index)
        for density in (0.05, 0.3):
            dense = rng.dirichlet(np.ones(n)) * (rng.random(n) < density)
            dense[int(rng.integers(n))] += 0.1
            d = JointDistribution.from_dense(ground, sizes, dense / dense.sum())
            want = entropy_function_by_tile(d).values.tobytes()
            # four masks per chunk: chunks 1-4, 5-8, ...
            monkeypatch.setattr(entropy_mod, "INDEX_CHUNK", 4 * int(np.count_nonzero(dense)))
            calls.clear()
            assert entropy_function(d).values.tobytes() == want
            assert len(calls) == math.ceil((ground.size - 1) / 4)


def _same_triple(fast, slow) -> bool:
    """(flat_idx, starts, n_cells) equal byte for byte, dtypes and types included."""
    return (all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                for a, b in zip(fast[:2], slow[:2]))
            and type(fast[2]) is type(slow[2]) and fast[2] == slow[2])


class TestFourAtomFamily:
    def test_param_validation(self):
        with pytest.raises(ValueError, match=r"p must be a finite real in \[0.0, 0.5\], got 0.6"):
            four_atom_score(0.6)
        with pytest.raises(ValueError):
            four_atom_distribution(-0.01)

    def test_extreme_p_half(self, ground):
        d = four_atom_distribution(0.5)
        live = {cfg for cfg, p in d.atoms.items() if p > 0}
        assert live == {(0, 0, 0, 0), (1, 1, 1, 1)}

    def test_independent_at_quarter(self, ground):
        f = entropy_function(four_atom_distribution(0.25))
        assert f("ij") == pytest.approx(f("i") + f("j"), abs=1e-12)

    def test_anti_correlated_at_zero(self):
        d = four_atom_distribution(0.0)
        live = {cfg for cfg, p in d.atoms.items() if p > 0}
        assert live == {(0, 1, 0, 1), (1, 0, 0, 1)}

    def test_min_max_are_deterministic(self, ground):
        # the last two variables add no entropy on top of the first two
        for p in (0.1, 0.3, 0.45):
            f = entropy_function(four_atom_distribution(p))
            assert f("ij") == pytest.approx(f.rank, abs=1e-13)
            assert f("ik") <= f.rank + 1e-13

    def test_score_at_zero_is_one(self):
        assert four_atom_score(0.0) == pytest.approx(1.0, abs=1e-13)

    def test_score_at_quarter_formula(self):
        expected = ((1.5 * LN2 - 2 * kappa(0.25) - 2 * kappa(0.75))
                    / (4 * kappa(0.25)))
        assert four_atom_score(0.25) == pytest.approx(expected, abs=1e-15)

    def test_known_minimum(self):
        assert four_atom_score(0.350457) == pytest.approx(-0.089373, abs=1e-5)

    def test_unimodal_on_grid(self):
        grid = np.linspace(0.0, 0.5, 10_001)
        vals = np.array([four_atom_score(p) for p in grid])
        diffs = np.sign(np.diff(vals))
        # strictly convex: decreasing then increasing, one sign change
        changes = np.count_nonzero(np.diff(diffs[diffs != 0]) != 0)
        assert changes == 1
        assert vals.argmin() not in (0, len(vals) - 1)


class TestExlFamily:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            ExLParams(0.1, 0.1, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ExLParams(0.13, -0.005, 0.0, 0.0, 0.0)
        assert sum(EXL_REFERENCE.as_tuple()) == pytest.approx(0.125, abs=1e-12)

    def test_forty_distinct_configurations(self):
        d = exl_distribution(EXL_REFERENCE)
        assert len(d.atoms) == 40

    def test_each_variable_takes_each_value_twice_per_column(self, ground):
        for _, cfgs in EXL_COLUMNS:
            for pos in range(4):
                counts = {}
                for cfg in cfgs:
                    counts[cfg[pos]] = counts.get(cfg[pos], 0) + 1
                assert counts == {"0": 2, "1": 2, "2": 2, "3": 2}

    def test_single_column_gives_uniform_support(self, ground):
        params = ExLParams(0.125, 0.0, 0.0, 0.0, 0.0)
        f = entropy_function(exl_distribution(params))
        assert f("i") == pytest.approx(2 * LN2, abs=1e-12)
        assert f.rank == pytest.approx(math.log(8), abs=1e-12)
        assert exl_closed_form(params).rank == pytest.approx(8 * kappa(0.125), abs=1e-15)

    def test_closed_form_matches_table_at_reference(self):
        f = exl_closed_form(EXL_REFERENCE)
        h = entropy_function(exl_distribution(EXL_REFERENCE))
        assert np.max(np.abs(f.values - h.values)) < 1e-12

    def test_closed_form_matches_table_randomized(self, rng):
        for _ in range(25):
            w = rng.dirichlet(np.ones(5)) / 8.0
            params = ExLParams(*w)
            f = exl_closed_form(params)
            h = entropy_function(exl_distribution(params))
            assert np.max(np.abs(f.values - h.values)) < 1e-12

    def test_fixed_pairs(self):
        f = exl_closed_form(EXL_REFERENCE)
        assert f("il") == pytest.approx(3 * LN2, abs=1e-15)
        assert f("jk") == pytest.approx(3 * LN2, abs=1e-15)


class TestFamiliesMatchDictBuilders:
    """The array-built families equal their atom-by-atom dict builders row
    for row and byte for byte."""

    @pytest.mark.parametrize("ground", [None, GroundSet("abcd")])
    def test_four_atom_grid(self, ground):
        for p in [*np.linspace(0.0, 0.5, 21), 0.350457, 0.2]:
            assert_same_rows(four_atom_distribution(p, ground),
                             four_atom_distribution_by_dict(p, ground))

    @pytest.mark.parametrize("ground", [None, GroundSet("abcd"), GroundSet("lkji")])
    def test_exl_random_parameters(self, rng, ground):
        for w in [*(rng.dirichlet(np.ones(5)) / 8.0 for _ in range(10)),
                  EXL_REFERENCE.as_tuple(), (0.125, 0.0, 0.0, 0.0, 0.0)]:
            params = ExLParams(*w)
            assert_same_rows(exl_distribution(params, ground),
                             exl_distribution_by_dict(params, ground))

    @pytest.mark.parametrize("labels", ["ijk", "ijklm"])
    @pytest.mark.parametrize("build, family", [
        (lambda g: four_atom_distribution(0.25, g), "four-atom"),
        (lambda g: exl_distribution(EXL_REFERENCE, g), "exl"),
        (lambda g: exl_closed_form(EXL_REFERENCE, g), "exl"),
    ])
    def test_ground_of_four_elements_only(self, build, family, labels):
        with pytest.raises(ValueError, match=f"^{family} family needs a 4-element ground set"):
            build(GroundSet(labels))


class TestDistributionFormats:
    def test_csv_roundtrip(self, ground, rng):
        d = rand_distribution(rng, ground, (2, 2, 3, 2))
        text = distribution_to_csv(d)
        assert text.splitlines()[0] == "x_i,x_j,x_k,x_l,prob"
        back = distribution_from_csv(text, alphabet_sizes=d.alphabet_sizes)
        assert back.atoms == d.atoms

    def test_json_roundtrip(self, ground):
        d = four_atom_distribution(0.3)
        back = distribution_from_json(distribution_to_json(d))
        assert back.atoms == d.atoms
        assert back.alphabet_sizes == d.alphabet_sizes

    def test_csv_header_rejected(self):
        with pytest.raises(ValueError):
            distribution_from_csv("a,b,prob\n0,0,1.0\n")


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_distribution_rejects_non_finite(self, ground, bad):
        with pytest.raises(ValueError, match="not finite"):
            JointDistribution(ground, (2, 2, 2, 2), {(0, 0, 0, 0): 1.0,
                                                     (1, 1, 1, 1): bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_exl_params_reject_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ExLParams(0.125, 0.0, 0.0, 0.0, bad)


class TestNonRealParameters:
    """A bool, a numpy bool or a string is no real parameter: each is rejected
    with a ValueError that names it, while numpy floats are read as reals."""

    @pytest.mark.parametrize("bad", [False, np.False_, "0"])
    def test_exl_params(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            ExLParams(0.125, bad, bad, bad, bad)

    @pytest.mark.parametrize("bad", [False, True, np.True_, "0.3"])
    @pytest.mark.parametrize("family", [four_atom_distribution, four_atom_score])
    def test_four_atom_p(self, family, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            family(bad)

    @pytest.mark.parametrize("bad", [False, True, np.True_, "0.5"])
    def test_kappa(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            kappa(bad)

    def test_numpy_floats_accepted(self):
        assert ExLParams(*map(np.float64, EXL_REFERENCE.as_tuple())) == EXL_REFERENCE
        assert four_atom_score(np.float64(0.3)) == four_atom_score(0.3)
        assert kappa(np.float32(0.5)) == kappa(0.5)


class TestMarginalIndex:
    def test_full_alphabet_index_is_mixed_radix(self):
        sizes = (3, 2, 4, 2)
        configs = np.indices(sizes).reshape(4, -1).T
        flat, starts, n_cells = entropy_mod.marginal_index(configs, sizes)
        I = 0b1010
        block = flat.reshape(len(configs), -1)[:, I - 1] - starts[I - 1]
        assert np.array_equal(block, configs[:, 1] * 2 + configs[:, 3])
        assert n_cells == math.prod(s + 1 for s in sizes) - 1

    def test_entropy_function_matches_engine(self, ground, frame, rng):
        for sizes in [(2, 2, 2, 2), (3, 2, 4, 2)]:
            ev = DistributionObjective(frame, sizes)
            for _ in range(5):
                d = rand_distribution(rng, ground, sizes)
                assert np.max(np.abs(entropy_function(d).values
                                     - ev.entropy_vector(d.as_dense()))) <= 1e-13

    def test_chunked_index_agrees(self, monkeypatch):
        d = exl_distribution(EXL_REFERENCE)
        whole = entropy_function(d)
        monkeypatch.setattr(entropy_mod, "INDEX_CHUNK", 100)
        assert np.array_equal(entropy_function(d).values, whole.values)

    def test_matches_dict_marginals(self, ground, rng):
        cases = [rand_distribution(rng, ground, s) for s in [(2, 2, 2, 2), (3, 2, 4, 2)]]
        cases.append(exl_distribution(EXL_REFERENCE))
        g8 = GroundSet("abcdefgh")
        atoms = {tuple(int(x) for x in rng.integers(0, 7, 8)): 1.0 for _ in range(50)}
        cases.append(JointDistribution(g8, (7,) * 8, {c: 1 / len(atoms) for c in atoms}))
        for d in cases:
            assert entropy_function(d).allclose(entropy_by_dict_marginals(d), tol=1e-13)

    def test_zero_atoms_are_ignored(self, ground):
        d = JointDistribution(ground, (2, 2, 2, 2),
                              {(0, 0, 0, 0): 0.5, (1, 1, 1, 1): 0.5, (0, 1, 0, 1): 0.0})
        assert np.allclose(entropy_function(d).values[1:], LN2, atol=1e-15)


#: plan bytes of a full ground of MAX_GROUND_SIZE: (8 + 1) int64 per mask, 255 masks
PLAN_BYTES_N8 = 18_360


class TestIndexPlanCache:
    """``marginal_index`` reads its place values and offsets from one cached
    plan per alphabet and gives, for every mask range, the triple of the plan
    rebuilt for that range on every call."""

    @pytest.mark.parametrize("sizes", [(1,), (3,), (2, 1), (1, 3, 1), (1, 1, 1, 1),
                                       (3, 2, 4, 2), (1, 3, 1, 2), (2, 1, 3, 2, 1),
                                       (2, 2, 2, 2, 2)])
    def test_triples_equal_the_fresh_plan(self, sizes):
        n, cells = len(sizes), math.prod(sizes)
        rng = np.random.default_rng(cells + n)
        grid = entropy_mod._config_grid(sizes)
        top = 1 << n
        ranges = [(1, None), (1, top), *((lo, hi) for lo in range(1, top)
                                         for hi in range(lo + 1, top + 1))]
        for configs in (grid, grid[rng.permutation(cells)],
                        grid[rng.permutation(cells)[:max(1, cells // 3)]]):
            entropy_mod._index_plan.cache_clear()
            for lo, hi in ranges:
                masks = np.arange(lo, top if hi is None else hi)
                want = marginal_index_by_fresh_plan(configs, sizes, masks)
                for _ in range(2):      # a cold cache, then a warm one
                    assert _same_triple(entropy_mod.marginal_index(configs, sizes, lo, hi),
                                        want)

    def test_plans_are_read_only(self):
        place, offsets = entropy_mod._index_plan((3, 2, 4, 2))
        for table in (place, offsets):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[...] = 0

    def test_cache_stays_within_its_bound(self):
        """Twice PLAN_CACHE alphabets on a ground of eight: the cache keeps
        PLAN_CACHE plans of PLAN_BYTES_N8 bytes each, plus at most 2 KiB each
        of the Python objects and keys around them."""
        n, cache = 8, entropy_mod._index_plan
        configs = np.zeros((1, n), dtype=np.int64)
        cache.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for a in range(1, 2 * entropy_mod.PLAN_CACHE + 1):
                entropy_mod.marginal_index(configs, (a,) * n)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
            kept = cache.cache_info().currsize
        finally:
            tracemalloc.stop()
            cache.cache_clear()
        assert kept == entropy_mod.PLAN_CACHE
        place, offsets = cache((2,) * n)
        assert place.nbytes + offsets.nbytes == PLAN_BYTES_N8
        assert held <= entropy_mod.PLAN_CACHE * (PLAN_BYTES_N8 + 2048)

    @pytest.mark.parametrize("sizes", [(4, 4, 4, 4), (1, 2, 3, 1, 2)])
    def test_chunked_entropy_function_keeps_one_plan(self, monkeypatch, sizes):
        """Every chunk of a chunked ``entropy_function`` reads the same plan,
        the one its alphabet keys."""
        d = JointDistribution.from_dense(GroundSet("ijklm"[:len(sizes)]), sizes,
                                         np.full(math.prod(sizes), 1 / math.prod(sizes)))
        monkeypatch.setattr(entropy_mod, "INDEX_CHUNK", 4 * len(d.probs))
        entropy_mod._index_plan.cache_clear()
        entropy_function(d)
        info = entropy_mod._index_plan.cache_info()
        assert (info.currsize, info.misses) == (1, 1)
        assert info.hits == math.ceil((d.ground.size - 1) / 4) - 1


class _UniqueSpy:
    """Stands in for the entropy module's numpy and counts the ``np.unique``
    calls, which only the sorting numbering makes."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def unique(self, *args, **kwargs):
        self.calls += 1
        return np.unique(*args, **kwargs)


def _key_span(sizes, masks) -> int:
    """Keys a range of masks may take: the sum of its subsets' cell counts."""
    return sum(math.prod(s for i, s in enumerate(sizes) if m >> i & 1) for m in masks)


class TestOccupancyNumbering:
    """``marginal_index`` numbers the cells by occupancy ranks when the
    range's key span is at most its key count and by ``np.unique`` when it is
    larger, and both give the triple of ``np.unique`` on every range."""

    @pytest.mark.parametrize("sizes", [(1,), (3,), (2, 1), (1, 3, 1), (2, 2, 2),
                                       (1, 1, 1, 1), (3, 2, 4, 2), (4, 1, 2, 3),
                                       (1, 3, 1, 2), (2, 1, 3, 2, 1), (2, 2, 2, 2, 2)])
    def test_triples_equal_unique(self, monkeypatch, sizes):
        n, cells = len(sizes), math.prod(sizes)
        rng = np.random.default_rng(3 * cells + n)
        grid = entropy_mod._config_grid(sizes)
        top = 1 << n
        ranges = [(1, None), *((lo, hi) for lo in range(1, top)
                               for hi in range(lo + 1, top + 1))]
        spy = _UniqueSpy()
        for support in (cells, max(1, cells // 3), 1):
            configs = grid[rng.permutation(cells)[:support]]
            for lo, hi in ranges:
                masks = range(lo, top if hi is None else hi)
                want = marginal_index_by_unique(configs, sizes, lo, hi)
                calls = spy.calls
                monkeypatch.setattr(entropy_mod, "np", spy)
                got = entropy_mod.marginal_index(configs, sizes, lo, hi)
                monkeypatch.undo()
                sorted_keys = _key_span(sizes, masks) > len(configs) * len(masks)
                assert spy.calls - calls == sorted_keys, (support, lo, hi)
                assert _same_triple(got, want), (support, lo, hi)

    @staticmethod
    def inputs():
        """(name, distribution, the numbering of an unchunked call or None):
        certify's sparse Dirichlet draws, exl (600 keys, span 624) and the
        dist3242 golden (525 keys, span 179)."""
        ground = GroundSet("ijkl")
        rng = np.random.default_rng(0xCE47)
        for a in (2, 3, 4):
            n = a ** 4
            for _ in range(3):
                dense = rng.dirichlet(np.full(n, 0.5))
                dense[rng.random(n) < 1.0 / 3.0] = 0.0
                yield f"dirichlet {a}^4", JointDistribution.from_dense(
                    ground, (a,) * 4, dense / dense.sum()), None
        yield "exl", exl_distribution(EXL_REFERENCE), "unique"
        golden = Path(__file__).parent / "goldens" / "dist3242.csv"
        yield "dist3242", distribution_from_csv(golden.read_text()), "occupancy"

    def test_entropy_function_equals_unique_path(self, monkeypatch):
        """Whole and in chunks of four masks, ``entropy_function`` gives the
        bits of the path that numbers every chunk with ``np.unique``."""
        for name, d, numbering in self.inputs():
            live = int(np.count_nonzero(d.probs))
            for chunk in (entropy_mod.INDEX_CHUNK, 4 * live):
                monkeypatch.setattr(entropy_mod, "INDEX_CHUNK", chunk)
                monkeypatch.setattr(entropy_mod, "marginal_index", marginal_index_by_unique)
                want = entropy_function(d).values.tobytes()
                monkeypatch.undo()
                spy = _UniqueSpy()
                monkeypatch.setattr(entropy_mod, "INDEX_CHUNK", chunk)
                monkeypatch.setattr(entropy_mod, "np", spy)
                got = entropy_function(d).values.tobytes()
                monkeypatch.undo()
                assert got == want, (name, chunk)
                if numbering and chunk == entropy_mod.INDEX_CHUNK:
                    assert spy.calls == (numbering == "unique"), name


# --- array-backed distributions against the dict-backed reference ------------

ALPHABETS = st.one_of(st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple),
                      st.just((3, 2, 4, 2)))

#: probabilities that sit on the edges of the constructor's checks
EDGE_PROBS = [0.0, -0.0, -1e-13, -1e-12, -1.0000000000000002e-12, -2e-12, 5e-13,
              math.nan, math.inf]


def _close_sum(draw, probs: list) -> None:
    """Set the last probability so that the running total of the clamped
    probabilities lands a few ulps around 1 or 1 +- 1e-12."""
    target = draw(st.sampled_from([None, 1.0, 1.0 + 1e-12, 1.0 - 1e-12]))
    if target is None or len(probs) < 2:
        return
    total = 0.0
    for p in probs[:-1]:
        total += max(p, 0.0)
    last = target - total
    for _ in range(draw(st.integers(0, 3))):
        last = math.nextafter(last, draw(st.sampled_from([math.inf, -math.inf])))
    probs[-1] = last


@st.composite
def atom_lists(draw):
    """(ground, alphabet sizes, [(configuration, probability), ...]) in
    insertion order, with signed and tiny negative zeros, sums on the 1e-12
    edge, and now and then a configuration of the wrong arity, one outside
    the alphabet or a repeated one."""
    sizes = draw(ALPHABETS)
    n, cells = len(sizes), math.prod(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, min(cells, 40)))
    configs = [tuple(int(x) for x in np.unravel_index(c, sizes))
               for c in rng.permutation(cells)[:k]]
    probs = rng.dirichlet(np.ones(k)).tolist()
    for i in draw(st.lists(st.integers(0, k - 1), max_size=3)):
        probs[i] = draw(st.sampled_from(EDGE_PROBS))
    _close_sum(draw, probs)
    fault = draw(st.sampled_from([None, None, None, "arity", "range", "repeat"]))
    i = draw(st.integers(0, k - 1))
    if fault == "arity":
        configs[i] = configs[i] + (0,) if draw(st.booleans()) else configs[i][:-1]
    elif fault == "range":
        b = draw(st.integers(0, n - 1))
        bad = draw(st.sampled_from([sizes[b], -1, sizes[b] + 7]))
        configs[i] = configs[i][:b] + (bad,) + configs[i][b + 1:]
    elif fault == "repeat":
        configs[i] = configs[draw(st.integers(0, k - 1))]
    return GroundSet("ijkl"[:n]), sizes, list(zip(configs, probs))


@st.composite
def dense_vectors(draw):
    """(ground, sizes, dense vector) with zeros, signed zeros, tiny negative
    entries and sums on the 1e-12 edge."""
    sizes = draw(ALPHABETS)
    cells = math.prod(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vec = rng.dirichlet(np.ones(cells)) * (rng.random(cells) < draw(st.floats(0.2, 1.0)))
    if vec.sum() == 0.0:
        vec[0] = 1.0
    vec = (vec / vec.sum()).tolist()
    for i in draw(st.lists(st.integers(0, cells - 1), max_size=3)):
        vec[i] = draw(st.sampled_from(EDGE_PROBS))
    _close_sum(draw, vec)
    return GroundSet("ijkl"[:len(sizes)]), sizes, vec


def _build(make):
    try:
        return make()
    except ValueError:
        return None


def _items(d) -> list:
    """Atoms in order, probabilities by their bits (signed zeros included)."""
    return [(cfg, float(p).hex()) for cfg, p in d.atoms.items()]


def assert_same_distribution(new: JointDistribution, old: JointDistributionByDict):
    assert new.alphabet_sizes == old.alphabet_sizes
    assert _items(new) == _items(old)
    assert new.as_dense().tobytes() == old.as_dense().tobytes()
    assert entropy_function(new).values.tobytes() == \
        entropy_function_by_dict(old).values.tobytes()
    text = distribution_to_csv(new)
    assert text == distribution_to_csv_by_dict(old)
    doc = json.dumps(distribution_to_json(new))
    assert doc == json.dumps(distribution_to_json_by_dict(old))
    for sizes in (None, new.alphabet_sizes):
        assert_same_outcome(lambda: distribution_from_csv(text, sizes),
                            lambda: distribution_from_csv_by_dict(text, sizes))
    assert_same_outcome(lambda: distribution_from_json(json.loads(doc)),
                        lambda: distribution_from_json_by_dict(json.loads(doc)))


def assert_same_outcome(make_new, make_old):
    new, old = _build(make_new), _build(make_old)
    assert (new is None) == (old is None)
    if new is not None:
        assert _items(new) == _items(old)
        assert new.alphabet_sizes == old.alphabet_sizes


class TestArrayDistributionMatchesDicts:
    """Decisions and every derived output are the dict-backed reference's,
    bit for bit; only repeated configurations in files are new rejections."""

    @settings(max_examples=250, deadline=None)
    @given(atom_lists())
    def test_mapping_constructor(self, case):
        ground, sizes, pairs = case
        atoms = dict(pairs)
        new = _build(lambda: JointDistribution(ground, sizes, atoms))
        old = _build(lambda: JointDistributionByDict(ground, sizes, atoms))
        assert (new is None) == (old is None)
        if new is not None:
            assert_same_distribution(new, old)

    @settings(max_examples=150, deadline=None)
    @given(dense_vectors())
    def test_from_dense(self, case):
        ground, sizes, vec = case
        new = _build(lambda: JointDistribution.from_dense(ground, sizes, vec))
        old = _build(lambda: JointDistributionByDict.from_dense(ground, sizes, vec))
        assert (new is None) == (old is None)
        if new is not None:
            assert_same_distribution(new, old)

    @settings(max_examples=150, deadline=None)
    @given(atom_lists())
    def test_readers(self, case):
        """The same rows as a CSV file and as a JSON document: a repeated
        configuration is rejected, everything else decided as before."""
        ground, sizes, pairs = case
        if any(len(cfg) != ground.n for cfg, _ in pairs):
            return
        header = ",".join([f"x_{lab}" for lab in ground.labels] + ["prob"])
        text = "\n".join([header] + [",".join([*map(str, cfg), repr(p)])
                                     for cfg, p in pairs]) + "\n"
        doc = {"labels": list(ground.labels), "alphabet_sizes": list(sizes),
               "atoms": [{"config": list(cfg), "prob": p} for cfg, p in pairs]}
        readers = [(lambda: distribution_from_csv(text, sizes),
                    lambda: distribution_from_csv_by_dict(text, sizes)),
                   (lambda: distribution_from_json(doc),
                    lambda: distribution_from_json_by_dict(doc))]
        repeated = len({cfg for cfg, _ in pairs}) < len(pairs)
        for make_new, make_old in readers:
            if repeated:
                with pytest.raises(ValueError, match="duplicate configuration"):
                    make_new()
            else:
                assert_same_outcome(make_new, make_old)

    def test_signed_zero_and_clamp(self, ground):
        atoms = {(0, 0, 0, 0): -0.0, (1, 1, 1, 1): 1.0, (0, 1, 0, 1): -1e-13}
        d = JointDistribution(ground, (2, 2, 2, 2), atoms)
        assert _items(d) == _items(JointDistributionByDict(ground, (2, 2, 2, 2), atoms))
        assert math.copysign(1.0, d.probs[0]) == -1.0
        assert d.probs[2] == 0.0 and math.copysign(1.0, d.probs[2]) == 1.0

    def test_sum_is_a_running_total(self, ground):
        """Sixteen probabilities whose running total is 1.000000000001 (over
        the 1e-12 tolerance) while a pairwise sum gives 1.0000000000009996."""
        probs = [float.fromhex(h) for h in (
            "0x1.3e8f972484d87p-5", "0x1.d08866f1b9848p-5", "0x1.50ebc3617ecc3p-3",
            "0x1.5d867c3ece2a5p-12", "0x1.0f13d2eb5a9ffp-7", "0x1.7db3ed61b9964p-5",
            "0x1.2740d47c625dfp-4", "0x1.4251565073153p-5", "0x1.be5aa80b70c7dp-5",
            "0x1.56fdff1add3adp-4", "0x1.a4abb98469779p-6", "0x1.d83c36d69ad97p-4",
            "0x1.076eb0ca80207p-8", "0x1.6a9e93d98ce60p-5", "0x1.2d345e84b24d2p-3",
            "0x1.945798a7b414dp-4")]
        assert abs(float(np.sum(probs)) - 1.0) <= 1e-12
        atoms = dict(zip(np.ndindex(2, 2, 2, 2), probs))
        with pytest.raises(ValueError, match="sum to 1.000000000001,"):
            JointDistributionByDict(ground, (2, 2, 2, 2), atoms)
        with pytest.raises(ValueError, match="sum to 1.000000000001,"):
            JointDistribution(ground, (2, 2, 2, 2), atoms)
        with pytest.raises(ValueError, match="sum to 1.000000000001,"):
            JointDistribution.from_dense(ground, (2, 2, 2, 2), probs)

    def test_arrays_are_read_only(self, ground):
        d = four_atom_distribution(0.3)
        for arr in (d.configs, d.probs):
            with pytest.raises(ValueError):
                arr[0] = 0
        with pytest.raises(TypeError):
            d.atoms[(0, 0, 0, 0)] = 1.0
        assert d.configs.dtype == np.int64 and d.configs.shape == (4, 4)

    def test_equality_ignores_order(self, ground):
        a = JointDistribution(ground, (2, 2, 2, 2), {(0, 0, 0, 0): 0.5, (1, 1, 1, 1): 0.5})
        b = JointDistribution(ground, (2, 2, 2, 2), {(1, 1, 1, 1): 0.5, (0, 0, 0, 0): 0.5})
        assert a == b and a.configs.tobytes() != b.configs.tobytes()
        assert a != JointDistribution(ground, (2, 2, 2, 3), dict(a.atoms))
        assert pickle.loads(pickle.dumps(b)) == a

    def test_from_dense_reuses_one_grid(self, ground):
        a = JointDistribution.from_dense(ground, (3, 2, 4, 2), np.full(48, 1 / 48))
        b = JointDistribution.from_dense(ground, (3, 2, 4, 2), np.full(48, 1 / 48))
        assert a.configs is b.configs


class TestRejectedDistributions:
    """Inputs the dict-backed class accepted by truncating or merging."""

    def test_repeated_csv_rows(self):
        text = "x_i,x_j,x_k,x_l,prob\n0,0,0,0,0.5\n0,0,0,0,0.5\n1,1,1,1,0.5\n"
        with pytest.raises(ValueError, match=r"duplicate configuration \(0, 0, 0, 0\)"):
            distribution_from_csv(text)

    def test_repeated_json_atoms(self):
        doc = {"labels": ["i", "j"], "alphabet_sizes": [2, 2],
               "atoms": [{"config": [0, 1], "prob": 0.5}, {"config": [0, 1], "prob": 0.5},
                         {"config": [1, 1], "prob": 0.5}]}
        with pytest.raises(ValueError, match=r"duplicate configuration \(0, 1\)"):
            distribution_from_json(doc)

    @pytest.mark.parametrize("sizes", [(2.7, 2, 2, 2), (2.0, 2, 2, 2), (True, 2, 2, 2),
                                       ("2", 2, 2, 2), (np.float64(2), 2, 2, 2)])
    def test_non_integral_alphabet_sizes(self, ground, sizes):
        with pytest.raises(ValueError, match="positive integer alphabet sizes"):
            JointDistribution(ground, sizes, {(0, 0, 0, 0): 1.0})
        with pytest.raises(ValueError, match="positive integer alphabet sizes"):
            JointDistribution.from_dense(ground, sizes, np.full(16, 1 / 16))

    @pytest.mark.parametrize("cfg", [(0.9, 0, 0, 0), (0.0, 0, 0, 0), (True, 0, 0, 0),
                                     (np.float64(1), 0, 0, 0), ("1", 0, 0, 0)])
    def test_non_integral_configurations(self, ground, cfg):
        with pytest.raises(ValueError, match="must be integers"):
            JointDistribution(ground, (2, 2, 2, 2), {cfg: 1.0})

    def test_issue_example(self, ground):
        """Once accepted as alphabet (2, 2, 2, 2) with atom (0, 0, 0, 0)."""
        with pytest.raises(ValueError):
            JointDistribution(ground, (2.7, 2, 2, 2), {(0.9, 0, 0, 0): 1.0})

    def test_numpy_integers_accepted(self, ground):
        d = JointDistribution(ground, np.array([2, 2, 2, 2]),
                              {tuple(np.int64(x) for x in (1, 0, 1, 0)): 1.0})
        assert d.alphabet_sizes == (2, 2, 2, 2)
        assert all(type(s) is int for s in d.alphabet_sizes)
        assert d == JointDistribution(ground, (2, 2, 2, 2), {(1, 0, 1, 0): 1.0})

    def test_huge_configuration_entry(self, ground):
        with pytest.raises(ValueError, match="outside"):
            JointDistribution(ground, (2, 2, 2, 2), {(2**70, 0, 0, 0): 1.0})
