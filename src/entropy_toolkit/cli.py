"""Command line front end.

Subcommands: check, entropy, score, fouratom, exl, minimize, cloud, hull,
outer, export.  Exit codes: 0 success, 1 a requested check failed (e.g. the
input of ``check`` is not a polymatroid), 2 usage or input errors; an input
error is one ``error: <file>: <message>`` line.  Flags given with --config
override the file.  A command with ``-o`` checks that it can write the file
before any work, and an unwritable one is one ``error: <file>: <message>``
line too.  All numeric console output uses 10 significant digits;
files carry full doubles.  Searches are deterministic given their seeds;
ENTROPY_TOOLKIT_THREADS caps parallel restarts.

The commands are one table, ``COMMANDS``: name -> (help, add_arguments,
handler).  ``main`` builds a fresh parser on every call, holding only the
subparser of the command that ``argv[0]`` names (one of ten, so a call pays
for one command's arguments), and the full parser, ``build_parser()``, for
any other ``argv``; help, usage and error output are the same either way.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields
from itertools import chain

import numpy as np

from . import core, entropy, frame as frame_mod, inequalities as ineq_mod
from .search import engine, geometry

FMT = "{:.10g}"


def _fmt(x: float) -> str:
    return FMT.format(float(x))


def _frame(args, ground: core.GroundSet | None = None) -> frame_mod.IngletonFrame:
    """The --frame roles on ground (default: labels i, j, k, l), else its default frame."""
    ground = ground or core.GroundSet("ijkl")
    if getattr(args, "frame", None) is None:
        return frame_mod.IngletonFrame.default(ground)
    return frame_mod.IngletonFrame.from_spec(ground, args.frame)


def _number(kind: type):
    """argparse type: a numeric flag read by ``core._csv_numbers`` ("1_0" is rejected)."""
    def read(text: str):
        return core._csv_numbers([text], [kind])[0]
    read.__name__ = kind.__name__  # argparse names it: "invalid int value"
    return read


def _print_set_function(f: core.SetFunction, bits: bool = False) -> None:
    unit = entropy.LN2 if bits else 1.0
    for mask in f.ground.subsets():
        key = f.ground.subset_key(mask) or "{}"
        print(f"  {key:<{f.ground.n}} {_fmt(f.values[mask] / unit)}")


# --- subcommands ---------------------------------------------------------------

def cmd_check(args) -> int:
    f = core.load_set_function(args.file)
    # margins of values near +-1.7e308 overflow to +-inf, which the report states
    with np.errstate(over="ignore"):
        report = core.check_axioms(f, tol=args.tol)
        print(f"tolerance:  {_fmt(args.tol)}")
        print(f"monotone:   {report.is_monotone}   "
              f"(worst violation {_fmt(report.worst_monotone_violation)})")
        print(f"submodular: {report.is_submodular}   "
              f"(worst violation {_fmt(report.worst_submodular_violation)})")
        for kind, witnesses in [("monotone", report.monotone_witnesses),
                                ("submodular", report.submodular_witnesses)]:
            for a, b in witnesses[:5]:
                print(f"  {kind} witness: ({f.ground.subset_key(a) or '{}'}, "
                      f"{f.ground.subset_key(b) or '{}'})")
        if report.is_polymatroid:
            print(f"tight:      {core.is_tight(f, args.tol)}")
            print(f"modular:    {core.is_modular(f, args.tol)}")
            print("polymatroid: yes")
            return 0
        print("polymatroid: no")
        return 1


def cmd_entropy(args) -> int:
    f = entropy.entropy_function(entropy.load_distribution(args.file))
    if not core._is_polymatroid(f, core.TOL_ENTROPIC):
        raise ValueError("computed entropy function fails the polymatroid axioms; "
                         "the input distribution is corrupt")
    if args.output:
        core.save_set_function(f, args.output)
        print(f"wrote {args.output}")
    _print_set_function(f, bits=args.bits)
    print(("entropies in bits" if args.bits else "entropies in nats"))
    return 0


def _score_block(f: core.SetFunction, fr: frame_mod.IngletonFrame) -> None:
    print(f"I(f)        = {_fmt(frame_mod.ingleton_score(f, fr))}")
    fti = core.tight_part(f)
    if fti.rank > 0:
        print(f"I(f^ti)     = {_fmt(frame_mod.ingleton_score(fti, fr))}")
    g = frame_mod.a_map(frame_mod.b_map(fti, fr), fr)
    if g.rank > 0:
        print(f"I(a.b.f^ti) = {_fmt(frame_mod.ingleton_score(g, fr))}")
    try:
        point, _ = frame_mod.cross_section_point(f, fr)
    except ValueError as exc:
        print(f"cross-section point: degenerate ({exc})")
        return
    print("weights     = ({}, {}, {}, {})".format(*(map(_fmt, point.as_tuple()))))


def cmd_score(args) -> int:
    def with_frame(doc):
        f = core.set_function_from_json(doc)
        return f, _frame(args, f.ground)
    # the frame is built while the file is read, so a ground it cannot frame names the file
    f, fr = core._read_file(args.file, with_frame)
    print(f"frame (i,j,k,l) = {fr.roles}")
    print(f"h(N) = {_fmt(f.rank)}, tight = {core.is_tight(f, core.TOL_ANALYTIC)}")
    print(f"tolerance   = {_fmt(core.TOL_ANALYTIC)} (tight), "
          f"{_fmt(frame_mod.DEGENERATE_TOL)} (degenerate)")
    _score_block(f, fr)
    return 0


def cmd_fouratom(args) -> int:
    fr = _frame(args)
    if args.minimize == (args.p is not None):
        raise ValueError("need exactly one of --p and --minimize")
    p = args.p
    if args.minimize:
        p, score = engine.minimize_scalar(
            entropy.four_atom_score, 0.0, 0.5, tol=1e-7)
        print(f"p*    = {_fmt(p)}")
        print(f"score = {_fmt(score)}")
    closed = entropy.four_atom_score(p)
    oracle = frame_mod.ingleton_score(
        entropy.entropy_function(entropy.four_atom_distribution(p)), fr)
    print(f"closed form at p={_fmt(p)}: {_fmt(closed)}")
    print(f"distribution oracle:      {_fmt(oracle)}")
    print(f"difference:               {_fmt(abs(closed - oracle))}")
    return 0


def _exl_params(args) -> entropy.ExLParams:
    missing = [n for n in "pqrst" if getattr(args, n) is None]
    if args.default and len(missing) == 5:
        return entropy.EXL_REFERENCE
    if args.default or missing:
        raise ValueError(f"need --default or all of --p..--t, not both; missing {missing}")
    return entropy.ExLParams(args.p, args.q, args.r, args.s, args.t)


def cmd_exl(args) -> int:
    params = _exl_params(args)
    fr = _frame(args)
    f = entropy.exl_closed_form(params, fr.ground)
    table_entropy = entropy.entropy_function(entropy.exl_distribution(params, fr.ground))
    dev = float(np.max(np.abs(f.values - table_entropy.values)))
    print("params (p,q,r,s,t) = ({}, {}, {}, {}, {})".format(
        *(map(_fmt, params.as_tuple()))))
    _score_block(f, fr)
    print(f"closed form vs table entropy, max deviation = {_fmt(dev)}")
    return 0


def _config_from_args(args) -> engine.SearchConfig:
    """The --config document (or {}) with every flag that was given written over it."""
    flags = {f.name: getattr(args, f.name) for f in fields(engine.SearchConfig)
             if getattr(args, f.name, None) is not None}

    def overlay(doc) -> engine.SearchConfig:
        return engine.SearchConfig.from_json({**doc, **flags} if isinstance(doc, dict) else doc)
    return core._read_file(args.config, overlay) if args.config else overlay({})


def _result_json(result: engine.SearchResult, cfg: engine.SearchConfig) -> dict:
    point = None
    if result.best_point is not None:
        point = {"weights": list(result.best_point.as_tuple()),
                 "source": result.best_point.source_tag}
    return {
        "config": cfg.to_json(),
        "best_value": result.best_value,
        "best_restart": result.best_restart,
        "eval_count": result.eval_count,
        "budget_exhausted": result.budget_exhausted,
        "best_point": point,
        "best_distribution": entropy.distribution_to_json(result.best_distribution),
    }


def cmd_minimize(args) -> int:
    cfg = _config_from_args(args)
    fr = _frame(args)
    init = entropy.load_distribution(args.init_dist) if args.init_dist else None
    if init is not None:  # the search checks the same; this check names the file
        with core._name_errors(args.init_dist):
            engine._init_dense(init, cfg, fr)
    result = engine.optimize_distribution(cfg, fr, init=init)
    print(f"objective      = {cfg.objective}")
    print(f"best value     = {_fmt(result.best_value)}")
    print(f"best restart   = {result.best_restart}")
    print(f"evaluations    = {result.eval_count}")
    print(f"budget spent   = {result.budget_exhausted}")
    if result.best_point is not None:
        print("best weights   = ({}, {}, {}, {})".format(
            *(map(_fmt, result.best_point.as_tuple()))))
    if args.output:
        core._write_json(_result_json(result, cfg), args.output)
        print(f"wrote {args.output}")
    return 0


def _write_cloud_csv(points, path) -> None:
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(["alpha", "beta", "gamma", "delta", "source"])
        writer.writerows([*map(repr, pt.as_tuple()), pt.source_tag] for pt in points)
    core._write_file(path, write, newline="")


def _cloud_array(rows) -> np.ndarray:
    """The weights of csv.reader rows of a cloud CSV, streamed into one (n, 4) array."""
    if next(rows, [])[:4] != ["alpha", "beta", "gamma", "delta"]:
        raise ValueError("expected header alpha,beta,gamma,delta,source")
    numbers = (core._csv_numbers(row, [float] * 4, width=5) for row in rows if row)
    return np.fromiter(chain.from_iterable(numbers), float).reshape(-1, 4)


def _read_cloud_csv(path) -> np.ndarray:
    # the hull's row rule runs while the file is read, so its errors name the file
    return core._read_file(path, lambda rows: geometry._as_weight_array(_cloud_array(rows)),
                           parse=csv.reader)


def _directions(doc, cfg: engine.SearchConfig,
                optima_only: bool) -> list[tuple[float, float, float]]:
    """A directions document: its count passes the cloud size check, then each
    entry ``engine.check_direction``."""
    if not (isinstance(doc, list) and all(isinstance(d, list) for d in doc)):
        raise ValueError("malformed directions document: expected a JSON list of 3-vectors")
    engine._check_cloud_size(len(doc), cfg, optima_only)
    return [engine.check_direction(d) for d in doc]


def cmd_cloud(args) -> int:
    if args.directions_file is not None and args.directions is not None:
        raise ValueError("need at most one of --directions and --directions-file")
    cfg = _config_from_args(args)
    if cfg.objective != engine.SearchConfig.objective:  # only a --config sets it
        raise ValueError(f"{args.config}: cloud maximizes alpha along each direction "
                         f"and reads no objective: {cfg.objective!r}")
    fr = _frame(args)
    # checked while the file is read, so every error names it ("" too)
    if args.directions_file is not None:
        directions = core._read_file(args.directions_file,
                                     lambda doc: _directions(doc, cfg, args.optima_only))
    else:
        count = 8 if args.directions is None else args.directions
        engine._check_cloud_size(count, cfg, args.optima_only)
        directions = engine.sphere_directions(count, seed=cfg.master_seed)
    cloud = engine.generate_cloud(directions, cfg, fr, optima_only=args.optima_only)
    seeds = engine.vertex_seed_distributions(fr) if args.include_vertices else {}
    vertices = [frame_mod.cross_section_point(entropy.entropy_function(dist), fr,
                                              source_tag=f"vertex-{name}")[0]
                for name, dist in seeds.items()]
    if not len(cloud) + len(vertices):
        raise ValueError(f"{args.output}: no point was inside the tetrahedron at a budget of "
                         f"{cfg.budget_evals:,} evaluations per restart")
    _write_cloud_csv(chain(cloud, vertices), args.output)
    print(f"cloud points   = {len(cloud) + len(vertices)}")
    print(f"wrote {args.output}")
    return 0


def cmd_hull(args) -> int:
    points = _read_cloud_csv(args.file)
    poly = geometry.convex_hull_3d(points)
    print(f"input points   = {len(points)}")
    print(f"hull vertices  = {len(poly.vertices)}")
    print(f"hull facets    = {len(poly.facets)}")
    print(f"hull dimension = {poly.dim}")
    if args.output:
        core._write_file(args.output, lambda fh: fh.write(geometry.hull_to_obj(poly)))
        print(f"wrote {args.output}")
    return 0


def cmd_outer(args) -> int:
    bank = ineq_mod.default_halfspace_bank(args.dfz_max_s) if args.dfz_max_s else []
    if args.ineq_file:
        sf = ineq_mod.SECTION_FRAME
        bank += core._read_file(args.ineq_file, lambda doc: [
            ineq_mod.section_halfspace(e, sf) if isinstance(e, ineq_mod.LinearInequality) else e
            for e in ineq_mod._bank_from_json(doc, sf.ground)])
    poly = geometry.outer_region(bank)
    print(f"bank size      = {len(bank)}")
    print(f"region vertices = {len(poly.vertices)} (dim {poly.dim})")
    actives = [geometry.active_constraints(v, bank) for v in poly.vertices]
    for v, act in zip(poly.vertices, actives):
        print("  ({}, {}, {}, {})  [{}]".format(*(map(_fmt, v)), ", ".join(act)))
    if args.output:
        doc = {
            "halfspaces": [ineq_mod.halfspace_to_json(h) for h in bank],
            "dim": poly.dim,
            "vertices": [list(v) for v in poly.vertices],
            "facets": [list(fc) for fc in poly.facets],
            "active_constraints": actives,
        }
        core._write_json(doc, args.output)
        print(f"wrote {args.output}")
    return 0


def _export_exl_table(args, fr) -> None:
    rows = [f"{name},{cfg}\n" for name, cfgs in entropy.EXL_COLUMNS for cfg in cfgs]
    core._write_file(args.output, lambda fh: fh.write("column,config\n" + "".join(rows)))


def _export_fouratom_dist(args, fr) -> None:
    if args.p is None:
        raise ValueError("fouratom-dist needs --p")
    entropy.save_distribution(entropy.four_atom_distribution(args.p), args.output)


#: export target -> (the flags it reads, writer(args, frame) of args.output), in the
#: order --what lists them
EXPORTS = {
    "rbar": (["frame"], lambda args, fr: core.save_set_function(
        frame_mod.ingleton_base(fr), args.output)),
    "generators": (["frame"], lambda args, fr: core._write_json(
        [core.set_function_to_json(g) for g in frame_mod.basis_generators(fr)], args.output)),
    "vertices": (["frame"], lambda args, fr: core._write_json(
        dict(zip(("alpha", "beta", "gamma", "delta"),
                 map(core.set_function_to_json, frame_mod.tetra_vertices(fr)))), args.output)),
    "exl-table": ([], _export_exl_table),
    "fouratom-dist": (["p"], _export_fouratom_dist),
    "exl-dist": (["default", *"pqrst"], lambda args, fr: entropy.save_distribution(
        entropy.exl_distribution(_exl_params(args)), args.output)),
}


def cmd_export(args) -> int:
    reads, write = EXPORTS[args.what]
    stray = [f"--{name}" for name in ["default", *"pqrst", "frame"]
             if name not in reads and getattr(args, name) is not None]
    if stray:
        raise ValueError(f"export --what {args.what} does not read {', '.join(stray)}")
    write(args, _frame(args))
    print(f"wrote {args.output}")
    return 0


# --- parser ----------------------------------------------------------------------

def _alphabet(text: str) -> list[int]:
    """argparse type of --alphabet: a comma list read by ``core._csv_numbers``."""
    sizes = text.split(",")
    return core._csv_numbers(sizes, [int] * len(sizes))


_alphabet.__name__ = "alphabet"  # argparse names it: "invalid alphabet value"


def _check_args(p):
    p.add_argument("file")
    p.add_argument("--tol", type=_number(float), default=core.TOL_ANALYTIC)


def _entropy_args(p):
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--bits", action="store_true",
                   help="display entropies in bits (storage stays in nats)")


def _frame_args(p):
    p.add_argument("--frame", help="the labels in roles i,j,k,l, comma-separated, e.g. j,i,k,l")


def _score_args(p):
    p.add_argument("file")
    _frame_args(p)


def _fouratom_args(p):
    p.add_argument("--p", type=_number(float))
    p.add_argument("--minimize", action="store_true")


def _exl_args(p):
    p.add_argument("--default", action="store_true",
                   help="use the reference parameter point")
    for name in "pqrst":
        p.add_argument(f"--{name}", type=_number(float))
    _frame_args(p)


def _search_args(p):
    p.add_argument("--config", help="SearchConfig JSON file")
    p.add_argument("--alphabet", type=_alphabet, dest="alphabet_sizes", metavar="ALPHABET",
                   help="comma list, e.g. 4,4,4,4")
    p.add_argument("--restarts", type=_number(int))
    p.add_argument("--budget", type=_number(int), dest="budget_evals", metavar="BUDGET",
                   help="objective evaluations per restart")
    p.add_argument("--seed", type=_number(int), dest="master_seed", metavar="SEED")
    _frame_args(p)


def _minimize_args(p):
    _search_args(p)
    p.add_argument("--objective", choices=engine.SCORE_OBJECTIVES)
    p.add_argument("--init-dist", help="distribution file to seed the restarts near")
    p.add_argument("-o", "--output", help="write the result as JSON")


def _cloud_args(p):
    _search_args(p)
    p.add_argument("--directions", type=_number(int))
    p.add_argument("--directions-file", help="JSON list of 3-vectors")
    p.add_argument("--optima-only", action="store_true")
    p.add_argument("--include-vertices", action="store_true",
                   help="append the beta/gamma/delta corner points")
    p.add_argument("-o", "--output", required=True)


def _hull_args(p):
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write OBJ-like v/f lines")


def _outer_args(p):
    p.add_argument("--dfz-max-s", type=_number(int), default=6)
    p.add_argument("--ineq-file")
    p.add_argument("-o", "--output", help="write the region as JSON")


def _export_args(p):
    p.add_argument("--what", required=True, choices=list(EXPORTS))
    _exl_args(p)
    p.set_defaults(default=None)  # so a flag left out is None, --default too
    p.add_argument("-o", "--output", required=True)


#: name -> (help, add_arguments, handler), in the order the help lists them
COMMANDS = {
    "check": ("polymatroid axiom check of a set-function file", _check_args, cmd_check),
    "entropy": ("entropy function of a distribution file", _entropy_args, cmd_entropy),
    "score": ("Ingleton scores of a set-function file", _score_args, cmd_score),
    "fouratom": ("four-atom family score", _fouratom_args, cmd_fouratom),
    "exl": ("forty-configuration family scores", _exl_args, cmd_exl),
    "minimize": ("minimize an Ingleton objective over distributions", _minimize_args,
                 cmd_minimize),
    "cloud": ("generate a cross-section point cloud", _cloud_args, cmd_cloud),
    "hull": ("convex hull of a cloud CSV", _hull_args, cmd_hull),
    "outer": ("outer approximation from halfspace banks", _outer_args, cmd_outer),
    "export": ("write built-in objects to files", _export_args, cmd_export),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone.  A one-command
    parser lists all commands in its usage line, so its errors print the same
    usage as the full parser's.  The full parser sets no metavar: its
    "invalid choice" and "required" errors name the argument ``command``."""
    parser = argparse.ArgumentParser(
        prog="entropy-toolkit",
        description="Polymatroid rank functions, entropy functions and "
                    "Ingleton score minimization.")
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else [command]:
        help_text, add_arguments, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(fn=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        if getattr(args, "output", None) is not None:
            core._check_writable(args.output)
        return args.fn(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
