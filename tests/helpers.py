"""Shared generators and independent oracles for the test suite."""

from functools import partial
from typing import Callable

import numpy as np

from entropy_toolkit import (
    AxiomReport,
    BasisCoefficients,
    GroundSet,
    IngletonFrame,
    JointDistribution,
    SetFunction,
    c_sym,
    delta,
    delta_given,
    delta_vec,
    ingleton_base,
    ingleton_value,
    matroid_rank,
    modular_from,
    stv_vec,
)
from entropy_toolkit.core import (
    TOL_ANALYTIC,
    _bit_matrix,
    _check_pe_value,
    _modular_values,
    is_modular,
)
from entropy_toolkit.frame import _require_frame_ground


def rand_polymatroid(rng, ground: GroundSet) -> SetFunction:
    """Random conic combination of uniform-up-to-loops matroids plus a modular
    part; nonnegative combinations of polymatroids are polymatroids."""
    vals = np.zeros(ground.size)
    for _ in range(int(rng.integers(1, 6))):
        loops = int(rng.integers(0, ground.size))
        free = ground.n - bin(loops).count("1")
        if free == 0:
            continue
        m = int(rng.integers(1, free + 1))
        vals += rng.uniform(0.0, 1.0) * matroid_rank(ground, m, loops).values
    vals += rand_modular(rng, ground, scale=0.5).values
    return SetFunction(ground, vals)


def rand_modular(rng, ground: GroundSet, scale: float = 1.0) -> SetFunction:
    return modular_from(ground, list(rng.uniform(0.0, scale, ground.n)))


def rand_set_function(rng, ground: GroundSet, scale: float = 2.0) -> SetFunction:
    """Arbitrary set function (no axioms), f(empty) = 0."""
    vals = rng.uniform(-scale, scale, ground.size)
    vals[0] = 0.0
    return SetFunction(ground, vals)


def rand_distribution(rng, ground: GroundSet, sizes) -> JointDistribution:
    """Full-support Dirichlet draw on the product alphabet."""
    sizes = tuple(sizes)
    probs = rng.dirichlet(np.ones(int(np.prod(sizes))))
    return JointDistribution.from_dense(ground, sizes, probs)


def full_pairwise_submodular_ok(f: SetFunction, tol: float) -> bool:
    """Oracle: delta(f, I, J) >= -tol for every pair of subsets."""
    for I in f.ground.subsets():
        for J in f.ground.subsets():
            if delta(f, I, J) < -tol:
                return False
    return True


def full_monotone_ok(f: SetFunction, tol: float) -> bool:
    """Oracle: f(I) <= f(J) + tol for every nested pair I within J."""
    for J in f.ground.subsets():
        I = J
        while True:
            if f.values[I] > f.values[J] + tol:
                return False
            if I == 0:
                break
            I = (I - 1) & J
    return True


def entropy_by_dict_marginals(d: JointDistribution) -> SetFunction:
    """Oracle: every marginal accumulated in a dict, then summed kappa terms."""
    vals = np.zeros(d.ground.size)
    for I in range(1, d.ground.size):
        marginal: dict = {}
        for cfg, p in d.atoms.items():
            key = tuple(x for b, x in enumerate(cfg) if I >> b & 1)
            marginal[key] = marginal.get(key, 0.0) + p
        vals[I] = sum(-p * np.log(p) for p in marginal.values() if 1e-15 < p < 1.0)
    return SetFunction(d.ground, vals)


def modular_by_bit_loop(ground: GroundSet, per_bit) -> np.ndarray:
    """Oracle: additive extension by accumulating bit by bit."""
    vals = np.zeros(ground.size)
    for I in ground.subsets():
        vals[I] = sum(per_bit[b] for b in range(ground.n) if I >> b & 1)
    return vals


# --- per-subset loop references for core's mask-table operations -------------


def check_axioms_by_loops(f: SetFunction, tol: float = TOL_ANALYTIC) -> AxiomReport:
    """Reference: the elemental checks walked subset by subset."""
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


def matroid_rank_by_loops(ground: GroundSet, m: int, loops=0) -> SetFunction:
    """Reference: min(m, |I - loops|) counted subset by subset."""
    J = ground.mask(loops)
    free = ground.n - bin(J).count("1")
    if not 0 <= m <= free:
        raise ValueError(f"rank {m} out of range 0..{free} for loop set "
                         f"{ground.subset_key(J)!r}")
    vals = [min(m, bin(I & ~J).count("1")) for I in ground.subsets()]
    return SetFunction(ground, vals)


def convolution_by_loops(f: SetFunction, g: SetFunction) -> SetFunction:
    """Reference: the submask walk J = I, (J - 1) & I, ... for every I."""
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


def convolve_modular_iterative_by_loops(f: SetFunction, g: SetFunction,
                                        tol: float = TOL_ANALYTIC) -> SetFunction:
    """Reference: the single-element convolutions applied subset by subset."""
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


def parallel_extension_by_loops(f: SetFunction, L, new_label: str) -> SetFunction:
    """Reference: the parallel extension filled subset by subset."""
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


def principal_extension_by_loops(f: SetFunction, L, t: float,
                                 new_label: str = "0") -> SetFunction:
    """Reference: the principal extension filled subset by subset."""
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


def pe_contract_by_loops(f: SetFunction, L, t: float) -> SetFunction:
    """Reference: the contracted principal extension, joins listed subset by
    subset."""
    g = f.ground
    mL = g.mask(L)
    t = _check_pe_value(f, mL, t)
    vals = np.minimum(f.values, np.array([f.values[mL | I] for I in g.subsets()]) - t)
    vals[0] = 0.0
    return SetFunction(g, vals)


def is_tight_by_loop(f: SetFunction, tol: float = TOL_ANALYTIC) -> bool:
    """Reference: every top increment checked element by element."""
    full = f.ground.full_mask
    return all(abs(f.values[full] - f.values[full ^ (1 << b)]) <= tol
               for b in range(f.ground.n))


def tight_part_by_product(h: SetFunction) -> SetFunction:
    """Reference: h minus the bit-membership product with the top increments."""
    n, full = h.ground.n, h.ground.full_mask
    incr = h.values[full] - h.values[full ^ (1 << np.arange(n))]
    return SetFunction(h.ground, h.values - _bit_matrix(n) @ incr)


def nelder_mead_by_lists(fn: Callable[[np.ndarray], float], x0: np.ndarray,
                          budget: int, diam_tol: float = 1e-10,
                          initial_step: float = 0.5,
                          shrinks: list | None = None) -> tuple[np.ndarray, float, int, bool]:
    """Nelder-Mead descent with the standard coefficient set.

    Reflection 1, expansion 2, contraction 0.5, shrink 0.5.  Stops when the
    simplex diameter drops below diam_tol or the evaluation budget is spent
    (an in-flight iteration may finish, so the count can exceed the budget by
    at most dim + 1).  Returns (best_x, best_value, evals, converged).

    Reference: the list-based search that the array-based
    ``engine.nelder_mead`` must reproduce bit for bit.  When ``shrinks`` is
    given, the evaluation count at every shrink step is appended to it.
    """
    dim = len(x0)
    pts = [np.array(x0, dtype=float)]
    for b in range(dim):
        step = np.array(x0, dtype=float)
        step[b] += initial_step
        pts.append(step)
    vals = [fn(p) for p in pts]
    evals = dim + 1
    converged = False

    while evals < budget:
        order = sorted(range(dim + 1), key=lambda idx: (vals[idx], idx))
        pts = [pts[o] for o in order]
        vals = [vals[o] for o in order]
        diam = max(float(np.max(np.abs(p - pts[0]))) for p in pts[1:])
        if diam < diam_tol:
            converged = True
            break
        centroid = np.mean(pts[:-1], axis=0)
        reflected = centroid + (centroid - pts[-1])
        f_r = fn(reflected)
        evals += 1
        if f_r < vals[0]:
            expanded = centroid + 2.0 * (centroid - pts[-1])
            f_e = fn(expanded)
            evals += 1
            if f_e < f_r:
                pts[-1], vals[-1] = expanded, f_e
            else:
                pts[-1], vals[-1] = reflected, f_r
        elif f_r < vals[-2]:
            pts[-1], vals[-1] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (pts[-1] - centroid)
            f_c = fn(contracted)
            evals += 1
            if f_c < vals[-1]:
                pts[-1], vals[-1] = contracted, f_c
            else:
                if shrinks is not None:
                    shrinks.append(evals)
                pts = [pts[0] + 0.5 * (p - pts[0]) for p in pts]
                vals = [vals[0]] + [fn(p) for p in pts[1:]]
                evals += dim

    best = min(range(dim + 1), key=lambda idx: (vals[idx], idx))
    return pts[best], vals[best], evals, converged


def basis_generators_by_hand(frame: IngletonFrame) -> tuple[SetFunction, ...]:
    """The eleven generators, ordered to match :class:`BasisCoefficients`.

    The matroid paired with each coefficient is the one the corresponding
    functional picks out: c_ij pairs with the free rank-1 matroid, c_ij_k
    with the rank-2 matroid whose loop is l, c_jl_k with the rank-1 matroid
    with loops {i, k}, and so on.

    Reference: the hand-written tuple that ``frame.basis_generators`` must
    reproduce bit for bit.
    """
    g = frame.ground
    i, j, k, l = frame.roles
    return (
        ingleton_base(frame),
        matroid_rank(g, 1),
        matroid_rank(g, 3),
        matroid_rank(g, 1, (i,)),
        matroid_rank(g, 1, (j,)),
        matroid_rank(g, 2, (l,)),
        matroid_rank(g, 2, (k,)),
        matroid_rank(g, 1, (i, k)),
        matroid_rank(g, 1, (j, k)),
        matroid_rank(g, 1, (i, l)),
        matroid_rank(g, 1, (j, l)),
    )


def basis_coefficients_by_deltas(h: SetFunction, frame: IngletonFrame) -> BasisCoefficients:
    """Read the basis coordinates of h off the coordinate functionals.

    The read-off is linear and total; it inverts :func:`reconstruct` exactly
    on tight inputs (the generators form a basis of the tight subspace).

    Reference: the delta_given read-off that ``frame.basis_coefficients``
    must reproduce within rounding.
    """
    _require_frame_ground(h, frame)
    i, j, k, l = frame.roles
    return BasisCoefficients(
        c_bar=-ingleton_value(h, frame),
        c_ij=delta_given(h, i, j),
        c_kl_ij=delta_given(h, k, l, (i, j)),
        c_kl_i=delta_given(h, k, l, i),
        c_kl_j=delta_given(h, k, l, j),
        c_ij_k=delta_given(h, i, j, k),
        c_ij_l=delta_given(h, i, j, l),
        c_jl_k=delta_given(h, j, l, k),
        c_il_k=delta_given(h, i, l, k),
        c_jk_l=delta_given(h, j, k, l),
        c_ik_l=delta_given(h, i, k, l),
    )


def a_map_by_deltas(h: SetFunction, frame: IngletonFrame) -> SetFunction:
    """Add delta(ij|empty)(h) times (rank-1-with-loop-i minus rank-1).

    Zeroes the mutual-information coordinate delta(ij|empty) while preserving
    stv; commutes with :func:`b_map`.

    Reference for ``frame.a_map``.
    """
    _require_frame_ground(h, frame)
    c = delta_given(h, frame.i, frame.j)
    shift = matroid_rank(frame.ground, 1, (frame.i,)) - matroid_rank(frame.ground, 1)
    return h + c * shift


def b_map_by_deltas(h: SetFunction, frame: IngletonFrame) -> SetFunction:
    """Add delta(kl|ij)(h) times (rank-2-with-loop-k minus rank-3).

    Zeroes the delta(kl|ij) coordinate while preserving stv; commutes with
    :func:`a_map`.

    Reference for ``frame.b_map``.
    """
    _require_frame_ground(h, frame)
    c = delta_given(h, frame.k, frame.l, (frame.i, frame.j))
    shift = matroid_rank(frame.ground, 2, (frame.k,)) - matroid_rank(frame.ground, 3)
    return h + c * shift


def tetra_vertices_by_hand(frame: IngletonFrame) -> tuple[SetFunction, SetFunction,
                                                          SetFunction, SetFunction]:
    """Vertices (alpha, beta, gamma, delta) of the cross-section tetrahedron.

    alpha is a quarter of the extreme non-almost-entropic generator (score
    -1/4); beta, gamma, delta are symmetrized matroid averages lying on the
    Ingleton hyperplane.  All four have value 1 at N.

    Reference: the matroid sums that ``frame.tetra_vertices`` must reproduce
    bit for bit.
    """
    g = frame.ground
    i, j, k, l = frame.roles
    alpha = 0.25 * ingleton_base(frame)
    beta = 0.5 * (matroid_rank(g, 1, (j,)) + matroid_rank(g, 1, (i,)))
    gamma = 0.25 * (matroid_rank(g, 2, (l,)) + matroid_rank(g, 2, (k,)))
    delta_v = 0.25 * (matroid_rank(g, 1, (i, k)) + matroid_rank(g, 1, (j, k))
                      + matroid_rank(g, 1, (i, l)) + matroid_rank(g, 1, (j, l)))
    return alpha, beta, gamma, delta_v


def e_face_margins_by_deltas(h: SetFunction, frame: IngletonFrame) -> dict[str, float]:
    """The five functionals cutting out the distinguished face: all zero on it.

    delta(ij|k), delta(ij|l), delta(kl|i), delta(kl|j) and delta(kl|ij).

    Reference for ``frame.e_face_margins``.
    """
    _require_frame_ground(h, frame)
    i, j, k, l = frame.roles
    return {
        "ij|k": delta_given(h, i, j, k),
        "ij|l": delta_given(h, i, j, l),
        "kl|i": delta_given(h, k, l, i),
        "kl|j": delta_given(h, k, l, j),
        "kl|ij": delta_given(h, k, l, (i, j)),
    }


def section_weight_matrix_by_deltas(frame: IngletonFrame) -> np.ndarray:
    """Reference: the tetrahedron weight rows written out as delta sums,
    alpha = -4 stv, beta = delta(kl|i) + delta(kl|j), gamma = 2 delta(ij|k)
    + 2 delta(ij|l), delta = delta(jl|k) + delta(il|k) + delta(jk|l)
    + delta(ik|l)."""
    i, j, k, l = frame.roles
    d = partial(delta_vec, frame.ground)
    return np.vstack([-4.0 * stv_vec(frame),
                      d(k, l, i) + d(k, l, j),
                      2.0 * d(i, j, k) + 2.0 * d(i, j, l),
                      d(j, l, k) + d(i, l, k) + d(j, k, l) + d(i, k, l)])


def pipeline_operator_by_deltas(frame: IngletonFrame) -> np.ndarray:
    """Reference: the pipeline matrix built from the delta_given face maps,
    column m the image of the unit vector at mask m."""
    g = frame.ground
    units = np.eye(g.size)
    op = np.zeros((g.size, g.size))
    for m in range(1, g.size):
        tight = SetFunction(g, units[m] - _modular_values(units[m]))
        op[:, m] = c_sym(a_map_by_deltas(b_map_by_deltas(tight, frame), frame),
                         frame).values
    return op
