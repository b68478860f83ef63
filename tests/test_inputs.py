"""One rule per argument kind, checked over the public signatures.

``TABLE`` lists every real, count, tolerance, subset, weight-quadruple and
array parameter of the public callables and of their public methods, and of
the engine and geometry readers the searches and hulls use, each with its
kind, a call that passes a value in that parameter and a value that call
accepts.  Every entry is fed its kind's bad values, each of which must raise
a ValueError that names the value.  A sequence kind ("reals", "counts",
"direction", "weights") holds one rule per entry, so its bad values are the
good sequence with its first entry replaced by a bad one.  The "array" kind
(an array, mapping or record read by the core array rule) is fed the same
bad entries in its first scalar place, plus a wrong shape and an empty
array, whose message must name the shape.
``test_every_kind_bearing_parameter_has_an_entry`` walks ``inspect.signature``
over the public names and the public methods of the exported classes, and
fails on a parameter of these kinds that has no entry and whose callable is
not exempt.
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
CORNERS = np.eye(4).tolist()


def nelder_mead(x0):
    return engine.nelder_mead(lambda x: float(x @ x), x0, 10)


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
    ("SetFunction", "values"): ("array", lambda v: et.SetFunction(G, v), F.values.tolist()),
    ("SetFunction.with_values", "values"): ("array", F.with_values, F.values.tolist()),
    ("GroundSet.labels_of", "mask"): ("subset", G.labels_of, 1),
    ("GroundSet.subset_key", "mask"): ("subset", G.subset_key, 1),
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
    # the atoms' configurations as rows, then their probabilities
    ("JointDistribution", "atoms"): (
        "array", lambda v: et.JointDistribution(G, (2, 2, 2, 2), {tuple(c): 1.0 for c in v}),
        [[0, 0, 0, 0]]),
    ("JointDistribution", "atoms.values()"): (
        "reals", lambda v: et.JointDistribution(G, (2,) * 4, dict(zip([(0,) * 4, (1,) * 4], v))),
        (1.0, 0.0)),
    ("JointDistribution.from_dense", "vec"): (
        "array", lambda v: et.JointDistribution.from_dense(G, (2, 2, 2, 2), v),
        [1.0] + [0.0] * 15),
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
    ("reconstruct", "coeffs"): ("array", lambda v: et.reconstruct(v, FRAME), [0.5] * 11),
    ("BasisCoefficients.from_array", "arr"): (
        "array", et.BasisCoefficients.from_array, [0.5] * 11),
    # inequalities
    **{("CrossSectionHalfspace", name): ("real", halfspace(i), 1.0 if i < 2 else 0.0)
       for i, name in enumerate("abcd")},
    ("CrossSectionHalfspace.margin", "weights"): ("array", BANK[0].margin, list(UNIT)),
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
    ("engine.nelder_mead", "x0"): ("array", nelder_mead, [1.0, 1.0]),
    ("engine.check_direction", "direction"): (
        "direction", engine.check_direction, (0.0, 0.0, 1.0)),
    ("convex_hull_3d", "points"): ("array", et.convex_hull_3d, CORNERS),
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
}

#: annotations that mark a real, count, tolerance, subset, weight or array
#: parameter, and the unannotated parameters that are one
KIND_ANNOTATIONS = {"float", "int", "int | None", "SubsetLike", "Sequence[Sequence[float]]",
                    "tuple[int, int, int, int]", "Sequence[float]", "Mapping",
                    "BasisCoefficients", "Union[Mapping[str, float], Sequence[float]]"}
KIND_NAMES = {"weights", "w", "alphabet_sizes", "values", "vec", "arr"}

SCALAR_BAD = [True, np.True_, "1", None, math.nan, math.inf]
#: a tolerance's further bad values: below 0, a numeric string and arrays of other shapes
TOL_BAD = [-1e-9, "1e-9", np.array(1e-9), np.array([1e-9, 1e-9])]
NOT_INTEGER = {"count", "optional count", "counts", "subset"}
SEQUENCE_KINDS = {"reals": "real", "counts": "count", "direction": "real", "weights": "real"}


def array_bad_values(good):
    """An array's bad values, each with what its message must name: the
    scalar bad values in its first scalar place, then a wrong shape (a
    table's last column dropped, a list nested once more) and the empty
    list, named by their shapes."""
    nested = isinstance(good[0], list)
    bad = [[[b, *good[0][1:]], *good[1:]] if nested else [b, *good[1:]] for b in SCALAR_BAD]
    shaped = [[row[:-1] for row in good] if nested else [good], []]
    return bad + shaped, [*map(repr, SCALAR_BAD), *(f"shape {np.shape(v)}" for v in shaped)]


def bad_values(kind, good):
    """The kind's bad values: bools, a string, None (where None is not the
    default), NaN, inf and a one-element array, 1.5 for counts and subsets
    and ``TOL_BAD`` for tolerances; in a sequence, as its first entry.  With
    each, what the message must name: the value's repr, or a text for an
    array's shape, or for a tolerance the rule's whole message."""
    if kind == "array":
        return array_bad_values(good)
    first = good[0] if kind in SEQUENCE_KINDS else good
    bad = [b for b in SCALAR_BAD if not (b is None and kind == "optional count")]
    bad.append(np.array([first]))
    if kind in NOT_INTEGER:
        bad.append(1.5)
    if kind in SEQUENCE_KINDS:
        return [with_field(tuple(good), 0, b) for b in bad], list(map(repr, bad))
    if kind == "tol":
        bad += TOL_BAD
        return bad, [f"tolerance must be a finite real in [0.0, inf], got {b!r}" for b in bad]
    return bad, list(map(repr, bad))


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
    assert named in str(info.value)


def kind_bearing(param: inspect.Parameter) -> bool:
    annotation = param.annotation
    if annotation is inspect.Parameter.empty:
        return param.name in KIND_NAMES
    # a named tuple's fields carry ForwardRef annotations
    return getattr(annotation, "__forward_arg__", annotation) in KIND_ANNOTATIONS


def public_callables():
    """(name, callable) for each public name and each public method of an
    exported class; an exempt name's constructor is skipped, not its methods."""
    for name in PUBLIC_NAMES:
        obj = getattr(et, name)
        if not callable(obj) or obj is et.NonPolymatroidWarning:
            continue
        if name not in EXEMPT:
            yield name, obj
        if inspect.isclass(obj):
            for attr in vars(obj):
                if not attr.startswith("_") and callable(getattr(obj, attr)):
                    yield f"{name}.{attr}", getattr(obj, attr)


def test_every_kind_bearing_parameter_has_an_entry():
    missing = [f"{name}({param.name})" for name, obj in public_callables()
               for param in inspect.signature(obj).parameters.values()
               if kind_bearing(param) and (name, param.name) not in TABLE]
    assert missing == []


def test_the_walk_sees_the_methods():
    """margin, a method, is walked, and so is from_array of an exempt record."""
    names = dict(public_callables())
    assert {"CrossSectionHalfspace.margin", "BasisCoefficients.from_array"} <= set(names)
    assert "BasisCoefficients" not in names


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
        with pytest.raises(ValueError, match=f"weights must be finite reals, got {weights[0]!r}"):
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

    @pytest.mark.parametrize("call, value", [
        (lambda: et.SetFunction(et.GroundSet("ij"), [0, "1", True, "2"]), "'1'"),
        (lambda: et.JointDistribution(G, (2, 2, 2, 2), {(0, 0, 0, 0): "1"}), "'1'"),
        (lambda: et.JointDistribution(G, (2, 2, 2, 2), {(0, 0, 0, 0): True}), "True"),
        (lambda: et.JointDistribution.from_dense(G, (2, 2, 2, 2), [True] + [0] * 15), "True"),
        (lambda: et.convex_hull_3d([(True, 0, 0, 0), (0, "1", 0, 0), (0, 0, 1, 0),
                                    (0, 0, 0, 1)]), "True"),
        (lambda: et.reconstruct(et.BasisCoefficients(True, *[0.0] * 10), FRAME), "True"),
        (lambda: et.dfz_halfspace(1).margin((True, 0, 0, 0)), "True"),
        (lambda: nelder_mead(["1", "2"]), "'1'"),
        (lambda: nelder_mead([]), "[] of shape (0,)"),
    ])
    def test_arrays_are_read_by_the_array_rule(self, call, value):
        # the values [0, 1, 1, 2], probability 1.0, the full tetrahedron, 4.0 at N and
        # margin -0.5 were read from bools and strings; x0 = [] raised IndexError
        with pytest.raises(ValueError) as info:
            call()
        assert value in str(info.value)

    @pytest.mark.parametrize("call, value", [
        (lambda: et.IngletonFrame(G, "i", 1, "k", "l"), "('i', 1, 'k', 'l')"),
        (lambda: et.IngletonFrame.from_spec(G, None), "got None"),
        (lambda: et.CrossSectionHalfspace(None, 1.0, 0.0, 0.0, 0.0), "got None"),
        (lambda: et.LinearInequality(5, et.symmetrized_zy(FRAME).coefficients), "got 5"),
    ])
    def test_names_and_roles_are_strings(self, call, value):
        # a bare TypeError from sorted, an AttributeError from split, and two
        # records whose writers wrote documents their readers reject
        with pytest.raises(ValueError) as info:
            call()
        assert value in str(info.value)


def test_a_count_beyond_int64_is_named():
    """An unsigned count that an int64 cannot hold is named as it is, not wrapped."""
    with pytest.raises(ValueError, match="got 9223372036854775808, outside int64"):
        et.JointDistribution.from_dense(G, np.array([2**63, 2, 2, 2], dtype=np.uint64),
                                        np.full(16, 1 / 16))


def builtin_records():
    """Every built-in halfspace and inequality, on the section frame."""
    frame = et.inequalities.SECTION_FRAME
    yield from et.default_halfspace_bank(20)
    yield from (et.stv_functional(frame), et.symmetrized_zy(frame))
    yield from (et.dfz_linear(s, frame) for s in range(1, 21))


@pytest.mark.parametrize("record", builtin_records(), ids=lambda r: r.name)
def test_builtin_records_round_trip_through_json(record):
    """Each built-in record's writer writes a document its reader reads back."""
    if isinstance(record, et.CrossSectionHalfspace):
        assert et.halfspace_from_json(et.halfspace_to_json(record)) == record
    else:
        ground = record.coefficients.ground
        back = et.inequality_from_json(et.inequality_to_json(record), ground)
        assert back.name == record.name
        assert back.coefficients.values.tobytes() == record.coefficients.values.tobytes()
