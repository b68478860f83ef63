"""Acceptance suite: one test per shipped criterion, each at its stated
tolerance, printing one pass/fail line.  Run with ``pytest -s`` to see the
lines on success."""

import re
import time

import numpy as np

from entropy_toolkit import (
    BasisCoefficients,
    GroundSet,
    IngletonFrame,
    SearchConfig,
    basis_coefficients,
    convolution,
    convolve_modular_iterative,
    cross_section_point,
    default_halfspace_bank,
    delta_given,
    dfz_halfspace,
    entropy_function,
    exl_closed_form,
    exl_distribution,
    ExLParams,
    four_atom_distribution,
    four_atom_score,
    ingleton_base,
    ingleton_score,
    ingleton_value,
    is_modular,
    is_tight,
    modular_from,
    modular_part,
    optimize_distribution,
    outer_region,
    reconstruct,
    section_halfspace,
    symmetrized_zy,
    tight_part,
)
from entropy_toolkit.cli import main
from entropy_toolkit.frame import a_map, b_map

from helpers import rand_distribution, rand_modular, rand_polymatroid, rand_set_function

GROUND = GroundSet("ijkl")
FRAME = IngletonFrame.default(GROUND)
NUM = r"(-?\d+\.?\d*(?:[eE][-+]?\d+)?)"


def report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number}: {description}"


def run_cli(capsys, *argv):
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    return code, capsys.readouterr().out, elapsed


def grab(pattern, text):
    return float(re.search(pattern, text).group(1))


def test_01_four_atom_minimum(capsys):
    code, out, elapsed = run_cli(capsys, "fouratom", "--minimize")
    p_star = grab(rf"p\*\s*= {NUM}", out)
    score = grab(rf"score = {NUM}", out)
    ok = (code == 0 and abs(p_star - 0.350457) <= 1e-4
          and abs(score - (-0.089373)) <= 1e-5 and elapsed < 1.0)
    report(1, f"four-atom minimum p*={p_star:.6f} score={score:.6f} "
              f"({elapsed:.2f}s)", ok)


def test_02_reference_family_triple(capsys):
    code, out, elapsed = run_cli(capsys, "exl", "--default")
    score_f = grab(rf"I\(f\)\s+= {NUM}", out)
    score_ti = grab(rf"I\(f\^ti\)\s+= {NUM}", out)
    score_ab = grab(rf"I\(a\.b\.f\^ti\) = {NUM}", out)
    ok = (code == 0
          and abs(score_f - (-0.078277)) <= 1e-5
          and abs(score_ti - (-0.0912597)) <= 1e-6
          and abs(score_ab - (-0.09243)) <= 5e-5
          and score_ab < -0.089373          # beats the four-atom bound
          and elapsed < 1.0)
    report(2, f"reference family I(f)={score_f:.6f} I(ti)={score_ti:.7f} "
              f"I(ab)={score_ab:.6f} ({elapsed:.2f}s)", ok)


def test_03_closed_form_oracle_agreement():
    rng = np.random.default_rng(3)
    worst_family = 0.0
    for _ in range(100):
        params = ExLParams(*(rng.dirichlet(np.ones(5)) / 8.0))
        dev = np.max(np.abs(exl_closed_form(params).values
                            - entropy_function(exl_distribution(params)).values))
        worst_family = max(worst_family, float(dev))
    worst_score = 0.0
    for p in np.linspace(0.0, 0.5, 100):
        oracle = ingleton_score(entropy_function(four_atom_distribution(p)), FRAME)
        worst_score = max(worst_score, abs(four_atom_score(p) - oracle))
    ok = worst_family < 1e-12 and worst_score < 1e-12
    report(3, f"closed form vs oracle: family dev {worst_family:.2e}, "
              f"four-atom dev {worst_score:.2e}", ok)


def test_04_base_score_exact():
    score = ingleton_score(ingleton_base(FRAME), FRAME)
    report(4, f"base rank function score = {score}", score == -0.25)


def test_05_basis_round_trip():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        coeffs = rng.uniform(0.0, 3.0, 11)
        g = reconstruct(BasisCoefficients(*coeffs), FRAME)
        back = basis_coefficients(g, FRAME).as_array()
        worst = max(worst, float(np.max(np.abs(back - coeffs))))
        worst = max(worst, float(np.max(np.abs(
            reconstruct(BasisCoefficients(*back), FRAME).values - g.values))))
    report(5, f"basis round-trip on 1000 draws, worst dev {worst:.2e}",
           worst <= 1e-9)


def test_06_map_laws():
    rng = np.random.default_rng(6)
    commute_exact = True
    worst = 0.0
    for _ in range(1000):
        g = rand_set_function(rng, GROUND)
        ab = a_map(b_map(g, FRAME), FRAME)
        ba = b_map(a_map(g, FRAME), FRAME)
        commute_exact &= bool(np.array_equal(ab.values, ba.values))
        stv = ingleton_value(g, FRAME)
        a_out, b_out = a_map(g, FRAME), b_map(g, FRAME)
        worst = max(worst,
                    abs(ingleton_value(a_out, FRAME) - stv),
                    abs(ingleton_value(b_out, FRAME) - stv),
                    abs(ingleton_value(ab, FRAME) - stv),
                    abs(delta_given(a_out, "i", "j")),
                    abs(delta_given(b_out, "k", "l", "ij")))
    report(6, f"map laws on 1000 draws: commute exactly {commute_exact}, "
              f"worst functional dev {worst:.2e}",
           commute_exact and worst <= 1e-12)


def test_07_decomposition():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(1000):
        h = rand_polymatroid(rng, GROUND)
        ti, mo = tight_part(h), modular_part(h)
        ok &= bool(np.all(ti.values + mo.values == h.values))
        ok &= is_tight(ti, tol=1e-9)
        ok &= is_modular(mo, tol=1e-9)
        if not ok:
            break
    report(7, "tight/modular decomposition exact on 1000 random polymatroids", ok)


def test_08_convolution_oracles():
    rng = np.random.default_rng(8)
    worst = 0.0
    for n in (3, 4, 5, 6):
        g = GroundSet("abcdefgh"[:n])
        for _ in range(250):
            f = rand_polymatroid(rng, g)
            mod = rand_modular(rng, g, scale=2.0)
            dev = np.max(np.abs(convolution(f, mod).values
                                - convolve_modular_iterative(f, mod).values))
            worst = max(worst, float(dev))
    laws_ok = _single_element_laws_exhaustive(rng)
    report(8, f"convolution oracles: iterative dev {worst:.2e}, "
              f"single-element laws {laws_ok}", worst <= 1e-12 and laws_ok)


def _single_element_laws_exhaustive(rng) -> bool:
    # with g modular dominating f off i: f*g agrees with f away from i and
    # takes min(f(I)+g(i), f(iI)) on sets through i; with g(i) >= f(i) too,
    # the convolution is f itself
    for i in GROUND.labels:
        others = [lab for lab in GROUND.labels if lab != i]
        bit = GROUND.mask(i)
        for _ in range(25):
            f = rand_polymatroid(rng, GROUND)
            g = modular_from(GROUND, {i: float(rng.uniform(0.0, f(i) + 1.0)),
                                      **{j: f(j) + rng.uniform(0.0, 1.0)
                                         for j in others}})
            conv = convolution(f, g)
            for I in GROUND.subsets():
                if I & bit:
                    continue
                if abs(conv.values[I] - f.values[I]) > 1e-12:
                    return False
                expect = min(f.values[I] + g(i), f.values[I | bit])
                if abs(conv.values[I | bit] - expect) > 1e-12:
                    return False
            if g(i) >= f(i) and not conv.allclose(f, tol=1e-12):
                return False
    return True


def test_09_inequality_consistency():
    rng = np.random.default_rng(9)
    bank = default_halfspace_bank(6)
    worst = np.inf
    count = 0
    for sizes, draws in [((2, 2, 2, 2), 500), ((3, 3, 2, 2), 250),
                         ((2, 3, 4, 2), 250)]:
        for _ in range(draws):
            f = entropy_function(rand_distribution(rng, GROUND, sizes))
            point, _ = cross_section_point(f, FRAME)
            for hs in bank:
                worst = min(worst, hs.margin(point.as_tuple()))
            count += 1
    coeff_match = dfz_halfspace(1).abcd == section_halfspace(symmetrized_zy(FRAME), FRAME).abcd
    ok = worst >= -1e-7 and coeff_match and count == 1000
    report(9, f"DFZ margins on {count} entropic points: min margin {worst:.2e}, "
              f"s=1 matches symmetrized ZY {coeff_match}", ok)


def test_10_outer_region_geometry():
    zy_region = outer_region([dfz_halfspace(1)])
    targets = [(2 / 3, 1 / 3, 0.0, 0.0), (2 / 3, 0.0, 0.0, 1 / 3)]
    has_vertices = all(
        any(max(abs(a - b) for a, b in zip(v, t)) <= 1e-9
            for v in zy_region.vertices)
        for t in targets)
    dfz_region = outer_region([dfz_halfspace(s) for s in range(1, 11)])
    # largest alpha among the region's vertices on the alpha-beta edge
    cap = max(v[0] for v in dfz_region.vertices if abs(v[2]) <= 1e-9 and abs(v[3]) <= 1e-9)
    cap_ok = abs(cap - 2.0 / (2 ** 10 + 1)) <= 1e-9
    report(10, f"outer region: ZY vertices found {has_vertices}, "
               f"edge cap {cap:.3e} vs 2/1025", has_vertices and cap_ok)


def test_11_search_sanity():
    cfg = SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=64,
                       budget_evals=2500, master_seed=2024,
                       objective="pipeline_score")
    start = time.perf_counter()
    result = optimize_distribution(cfg, FRAME)
    elapsed = time.perf_counter() - start
    ok = result.best_value <= -0.089 and elapsed < 60.0
    report(11, f"binary search best {result.best_value:.6f} "
               f"in {elapsed:.1f}s over {result.eval_count} evals", ok)
