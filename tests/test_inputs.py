"""One rule per argument kind, checked over the public signatures.

``TABLE`` lists every real, count, tolerance, subset and weight-quadruple
parameter of the public callables, and of the engine and geometry readers
the searches and hulls use, each with its kind, a call that passes a value
in that parameter and a value that call accepts.  Every entry is fed its
kind's bad values, each of which must raise a ValueError that names the
value.  A sequence kind ("reals", "counts", "direction", "weights") holds
one rule per entry, so its bad values are the good sequence with its first
entry replaced by a bad one.  ``test_every_kind_bearing_parameter_has_an_entry``
walks ``inspect.signature`` over the public names and fails on a parameter
of these kinds that has no entry and whose callable is not exempt.
"""

import inspect
import math

import numpy as np
import pytest

import entropy_toolkit as et
from entropy_toolkit.search import engine, geometry
from test_cold_start import PUBLIC_NAMES

G = et.GroundSet("ijkl")
F = et.matroid_rank(G, 2)
FRAME = et.IngletonFrame.default(G)
BANK = [et.dfz_halfspace(1)]
CFG = et.SearchConfig(alphabet_sizes=(2, 2, 2, 2), restarts=1, budget_evals=20)
ATOM = {(0, 0, 0, 0): 1.0}
EXL = (0.125, 0.0, 0.0, 0.0, 0.0)
UNIT = (1.0, 0.0, 0.0, 0.0)
CSV = "x_i,x_j,x_k,x_l,prob\n0,0,0,0,1.0\n"


def with_field(fields, i, value):
    return (*fields[:i], value, *fields[i + 1:])


def exl(i):
    return lambda v: et.ExLParams(*with_field(EXL, i, v))


def halfspace(i):
    return lambda v: et.CrossSectionHalfspace("x", *with_field((1.0, 1.0, 0.0, 0.0), i, v))


def config(field):
    return lambda v: et.SearchConfig(**{**CFG.to_json(), field: v})


#: (callable, parameter) -> (kind, call with the value in that parameter, a value it accepts)
TABLE = {
    # core
    ("GroundSet.mask", "subset"): ("subset", G.mask, 1),
    ("SetFunction.__call__", "subset"): ("subset", F, 1),
    ("SetFunction.__mul__", "scalar"): ("real", lambda v: F * v, 2.0),
    ("SetFunction.__truediv__", "scalar"): ("real", lambda v: F / v, 2.0),
    ("SetFunction.allclose", "tol"): ("tol", lambda v: F.allclose(F, v), 1e-12),
    ("check_axioms", "tol"): ("tol", lambda v: et.check_axioms(F, v), 1e-9),
    ("is_modular", "tol"): ("tol", lambda v: et.is_modular(F, v), 1e-9),
    ("is_tight", "tol"): ("tol", lambda v: et.is_tight(F, v), 1e-9),
    ("closure_of", "I"): ("subset", lambda v: et.closure_of(F, v), 1),
    ("closure_of", "tol"): ("tol", lambda v: et.closure_of(F, "i", v), 1e-9),
    ("contraction", "I"): ("subset", lambda v: et.contraction(F, v), 1),
    ("convolve_modular_iterative", "tol"): (
        "tol", lambda v: et.convolve_modular_iterative(F, et.modular_from(G, [1] * 4), v), 1e-9),
    ("delta", "I"): ("subset", lambda v: et.delta(F, v, "j"), 1),
    ("delta", "J"): ("subset", lambda v: et.delta(F, "i", v), 2),
    ("delta_given", "a"): ("subset", lambda v: et.delta_given(F, v, "j"), 1),
    ("delta_given", "b"): ("subset", lambda v: et.delta_given(F, "i", v), 2),
    ("delta_given", "given"): ("subset", lambda v: et.delta_given(F, "i", "j", v), 4),
    ("delta_vec", "a"): ("subset", lambda v: et.delta_vec(G, v, "j"), 1),
    ("delta_vec", "b"): ("subset", lambda v: et.delta_vec(G, "i", v), 2),
    ("delta_vec", "given"): ("subset", lambda v: et.delta_vec(G, "i", "j", v), 4),
    ("matroid_rank", "m"): ("count", lambda v: et.matroid_rank(G, v), 1),
    ("matroid_rank", "loops"): ("subset", lambda v: et.matroid_rank(G, 1, loops=v), 1),
    ("modular_from", "singletons"): (
        "reals", lambda v: et.modular_from(G, v), (1.0, 1.0, 1.0, 1.0)),
    ("parallel_extension", "L"): ("subset", lambda v: et.parallel_extension(F, v, "m"), 3),
    ("principal_extension", "L"): ("subset", lambda v: et.principal_extension(F, v, 1.0), 3),
    ("principal_extension", "t"): ("real", lambda v: et.principal_extension(F, "ij", v), 1.0),
    ("pe_contract", "L"): ("subset", lambda v: et.pe_contract(F, v, 1.0), 3),
    ("pe_contract", "t"): ("real", lambda v: et.pe_contract(F, "ij", v), 1.0),
    # entropy
    ("kappa", "u"): ("real", et.kappa, 0.25),
    ("four_atom_distribution", "p"): ("real", et.four_atom_distribution, 0.25),
    ("four_atom_score", "p"): ("real", et.four_atom_score, 0.25),
    **{("ExLParams", name): ("real", exl(i), EXL[i]) for i, name in enumerate("pqrst")},
    ("JointDistribution", "alphabet_sizes"): (
        "counts", lambda v: et.JointDistribution(G, v, ATOM), (2, 2, 2, 2)),
    ("JointDistribution.from_dense", "alphabet_sizes"): (
        "counts", lambda v: et.JointDistribution.from_dense(G, v, [1.0] + [0.0] * 15),
        (2, 2, 2, 2)),
    ("distribution_from_csv", "alphabet_sizes"): (
        "counts", lambda v: et.distribution_from_csv(CSV, v), (2, 2, 2, 2)),
    # frame
    ("violated_instances", "tol"): ("tol", lambda v: et.violated_instances(F, v), 1e-12),
    ("in_e_face", "tol"): ("tol", lambda v: et.in_e_face(F, FRAME, v), 1e-9),
    ("point_from_weights", "w"): ("weights", lambda v: et.point_from_weights(v, FRAME), UNIT),
    ("point_from_weights", "tol"): (
        "tol", lambda v: et.point_from_weights(UNIT, FRAME, v), 1e-6),
    # inequalities
    **{("CrossSectionHalfspace", name): ("real", halfspace(i), 1.0 if i < 2 else 0.0)
       for i, name in enumerate("abcd")},
    ("is_balanced", "tol"): ("tol", lambda v: et.is_balanced(et.symmetrized_zy(FRAME), v), 1e-12),
    ("dfz_linear", "s"): ("count", lambda v: et.dfz_linear(v, FRAME), 1),
    ("dfz_halfspace", "s"): ("count", et.dfz_halfspace, 1),
    ("default_halfspace_bank", "max_s"): ("count", et.default_halfspace_bank, 1),
    ("check_point", "weights"): ("weights", lambda v: et.check_point(v, BANK), UNIT),
    ("check_point", "tol"): ("tol", lambda v: et.check_point(UNIT, BANK, v), 1e-9),
    # search
    ("SearchConfig", "alphabet_sizes"): ("counts", config("alphabet_sizes"), (2, 2, 2, 2)),
    ("SearchConfig", "restarts"): ("count", config("restarts"), 1),
    ("SearchConfig", "budget_evals"): ("count", config("budget_evals"), 20),
    ("SearchConfig", "master_seed"): ("count", config("master_seed"), 1),
    ("minimize_scalar", "lo"): ("real", lambda v: et.minimize_scalar(abs, v, 1.0), -1.0),
    ("minimize_scalar", "hi"): ("real", lambda v: et.minimize_scalar(abs, -1.0, v), 1.0),
    ("minimize_scalar", "tol"): ("tol", lambda v: et.minimize_scalar(abs, -1.0, 1.0, v), 1e-8),
    ("sphere_directions", "count"): ("count", et.sphere_directions, 1),
    ("sphere_directions", "seed"): ("count", lambda v: et.sphere_directions(1, v), 0),
    ("optimize_distribution", "threads"): (
        "optional count", lambda v: et.optimize_distribution(CFG, FRAME, threads=v), 1),
    ("generate_cloud", "directions"): (
        "direction", lambda v: et.generate_cloud([v], CFG, FRAME), (0.0, 0.0, 1.0)),
    ("generate_cloud", "threads"): (
        "optional count", lambda v: et.generate_cloud([(0.0, 0.0, 1.0)], CFG, FRAME, threads=v),
        1),
    ("engine.nelder_mead", "budget"): (
        "count", lambda v: engine.nelder_mead(lambda x: float(x @ x), np.ones(2), v), 10),
    ("engine.check_direction", "direction"): (
        "direction", engine.check_direction, (0.0, 0.0, 1.0)),
    ("geometry.active_constraints", "weights"): (
        "weights", lambda v: geometry.active_constraints(v, BANK), UNIT),
    ("geometry.active_constraints", "tol"): (
        "tol", lambda v: geometry.active_constraints(UNIT, BANK, v), 1e-9),
}

#: public callables whose kind-bearing parameters take no table entry, and why
EXEMPT = {
    "AxiomReport": "a result record that check_axioms writes",
    "BasisCoefficients": "a record of the eleven coordinates that basis_coefficients writes",
    "CrossSectionPoint": "a record stored as given; its readers apply the weight rule",
    "PointCheckReport": "a result record that check_point writes",
    "Polytope3": "a result record that the hulls write",
    "SearchResult": "a result record that optimize_distribution writes",
    "convex_hull_3d": "an array of weight rows, read by numpy under its own array rule",
}

#: annotations that mark a real, count, tolerance, subset or weight parameter,
#: and the unannotated parameters that are one
KIND_ANNOTATIONS = {"float", "int", "int | None", "SubsetLike", "Sequence[Sequence[float]]",
                    "tuple[int, int, int, int]",
                    "Union[Mapping[str, float], Sequence[float]]"}
KIND_NAMES = {"weights", "w", "alphabet_sizes"}

SCALAR_BAD = [True, np.True_, "1", None, math.nan, math.inf]
NOT_INTEGER = {"count", "optional count", "counts", "subset"}
SEQUENCE_KINDS = {"reals": "real", "counts": "count", "direction": "real", "weights": "real"}


def bad_values(kind, good):
    """The kind's bad values: bools, a string, None (where None is not the
    default), NaN, inf and a one-element array, and 1.5 for counts and
    subsets; in a sequence, as its first entry."""
    first = good[0] if kind in SEQUENCE_KINDS else good
    bad = [b for b in SCALAR_BAD if not (b is None and kind == "optional count")]
    bad.append(np.array([first]))
    if kind in NOT_INTEGER:
        bad.append(1.5)
    if kind in SEQUENCE_KINDS:
        return [with_field(tuple(good), 0, b) for b in bad], bad
    return bad, bad


CASES = [pytest.param(call, value, named, id=f"{owner}-{param}-{i}")
         for (owner, param), (kind, call, good) in TABLE.items()
         for i, (value, named) in enumerate(zip(*bad_values(kind, good)))]


@pytest.mark.parametrize("owner, param", list(TABLE))
def test_the_good_value_is_accepted(owner, param):
    """Each entry's call is right: its good value passes the rule."""
    kind, call, good = TABLE[owner, param]
    call(good)


@pytest.mark.parametrize("call, value, named", CASES)
def test_bad_values_raise_a_value_error_naming_them(call, value, named):
    with pytest.raises(ValueError) as info:
        call(value)
    assert repr(named) in str(info.value)


def kind_bearing(param: inspect.Parameter) -> bool:
    annotation = param.annotation
    if annotation is inspect.Parameter.empty:
        return param.name in KIND_NAMES
    # a named tuple's fields carry ForwardRef annotations
    return getattr(annotation, "__forward_arg__", annotation) in KIND_ANNOTATIONS


def test_every_kind_bearing_parameter_has_an_entry():
    missing = []
    for name in PUBLIC_NAMES:
        obj = getattr(et, name)
        if name in EXEMPT or not callable(obj) or obj is et.NonPolymatroidWarning:
            continue
        for param in inspect.signature(obj).parameters.values():
            if kind_bearing(param) and (name, param.name) not in TABLE:
                missing.append(f"{name}({param.name})")
    assert missing == []


def test_the_walk_sees_the_exempt_records():
    """The exemptions are not dead: each exempt callable has a parameter the
    walk would otherwise require an entry for."""
    for name in EXEMPT:
        params = inspect.signature(getattr(et, name)).parameters.values()
        assert any(map(kind_bearing, params)), name


class TestReproducedDefects:
    """Inputs that an argument rule used to let through or turn into a bare
    TypeError; each now raises a ValueError that names the value."""

    @pytest.mark.parametrize("weights", [(True, False, False, False), ("1", 0, 0, 0),
                                         (np.True_, 0.0, 0.0, 0.0)])
    @pytest.mark.parametrize("read", [lambda w: et.check_point(w, BANK),
                                      lambda w: et.point_from_weights(w, FRAME),
                                      lambda w: geometry.active_constraints(w, BANK)])
    def test_weights_are_reals(self, read, weights):
        # check_point((True, False, False, False), ...) read margin -0.5, as for (1, 0, 0, 0)
        with pytest.raises(ValueError, match=f"each weight of .*, got {weights[0]!r}"):
            read(weights)

    def test_equal_weights_give_equal_margins(self):
        """Integers, numpy floats and floats of one value check alike."""
        bank = et.default_halfspace_bank(6)
        want = et.check_point((1.0, 0.0, 0.0, 0.0), bank).margins
        for weights in [(1, 0, 0, 0), tuple(np.array([1.0, 0.0, 0.0, 0.0]))]:
            assert et.check_point(weights, bank).margins == want

    @pytest.mark.parametrize("budget", [True, 1.5, math.nan])
    def test_nelder_mead_budget(self, budget):
        # each used to stop after the initial simplex, 3 evaluations at dim 2
        with pytest.raises(ValueError, match=f"budget must be a positive integer, got {budget!r}"):
            engine.nelder_mead(lambda x: float(x @ x), np.ones(2), budget)

    def test_minimize_scalar_bound(self):
        # True used to be read as the bound 1.0
        with pytest.raises(ValueError, match="lo must be a finite real .*, got True"):
            et.minimize_scalar(abs, True, 2.0)

    @pytest.mark.parametrize("subset", [1.5, math.nan, None])
    @pytest.mark.parametrize("read", [G.mask, lambda s: et.delta(F, s, "j"),
                                      lambda s: et.closure_of(F, s),
                                      lambda s: et.matroid_rank(G, 1, loops=s)])
    def test_subset_that_is_no_integer(self, read, subset):
        # each used to raise TypeError: 'float' object is not iterable
        with pytest.raises(ValueError, match=f"subset must be a bitmask, .*, got {subset!r}"):
            read(subset)
