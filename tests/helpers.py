"""Shared generators and independent oracles for the test suite."""

import numpy as np

from entropy_toolkit import (
    GroundSet,
    JointDistribution,
    SetFunction,
    delta,
    matroid_rank,
    modular_from,
)


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

