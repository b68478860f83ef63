"""Fresh interpreters: what a cold ``entropy-toolkit`` process loads and prints.

The test process itself has scipy loaded (the geometry tests and helpers
import it), so these checks run each scenario in a subprocess with only
``src`` on the path.  Only hulls need Qhull: importing the package, the CLI
and the commands that build no hull must leave every ``scipy`` module
unloaded, and the commands that do build one must print and write the same
bytes as in a warm process.  A search forks its workers itself, so no
``multiprocessing`` or ``concurrent`` module is ever loaded, and a forked
worker flushes none of the stdio buffers it inherits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from helpers import fixed_cloud

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "goldens"


def report(*packages):
    """Code that prints the sorted names of the loaded modules of
    ``packages`` as a JSON list."""
    return ("import json, sys; print(json.dumps(sorted("
            f"m for m in sys.modules if m.split('.')[0] in {packages!r})))")


REPORT_SCIPY = report("scipy")
REPORT_POOL = report("multiprocessing", "concurrent")


def cold(code, *args, **env):
    """Run ``code`` in a fresh interpreter with ``src`` on the path and
    ``env`` added to the environment."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **env}
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_scipy():
    out = cold("import entropy_toolkit, entropy_toolkit.cli\n" + REPORT_SCIPY)
    assert json.loads(out) == []


def test_hull_volume_loads_no_scipy():
    """The volume is stored on the polytope: reading it runs no Qhull."""
    out = cold("from entropy_toolkit import Polytope3, hull_volume\n"
               "corners = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),\n"
               "           (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))\n"
               "facets = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))\n"
               "print(hull_volume(Polytope3(corners, facets, 3, 1 / 6)))\n"
               "print(hull_volume(Polytope3((), (), -1)))\n" + REPORT_SCIPY)
    assert out.splitlines() == [repr(1 / 6), "0.0", "[]"]


def test_hull_free_commands_load_no_scipy(tmp_path):
    runs = [
        ["entropy", "tests/goldens/dist3242.csv"],
        ["score", "tests/goldens/entropy3242.json"],
        ["check", "tests/goldens/entropy3242.json"],
        ["fouratom", "--p", "0.3"],
        ["export", "--what", "exl-dist", "--default", "-o", str(tmp_path / "exl.csv")],
        ["minimize", "--alphabet", "2,2,2,2", "--restarts", "1", "--budget", "40",
         "--seed", "3", "-o", str(tmp_path / "res.json")],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from entropy_toolkit import cli\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(argv))\n"
        "print(json.dumps(codes))\n" + REPORT_SCIPY)
    codes, loaded = cold(code, json.dumps(runs)).splitlines()
    assert json.loads(codes) == [0] * len(runs)
    assert json.loads(loaded) == []


def test_import_and_serial_search_load_no_process_pool(tmp_path):
    code = ("import contextlib, io, sys\n"
            "import entropy_toolkit, entropy_toolkit.cli\n"
            + REPORT_POOL + "\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = entropy_toolkit.cli.main(sys.argv[1:])\n"
            + REPORT_POOL + "\n"
            "print(code)")
    imported, searched, code = cold(
        code, "minimize", "--alphabet", "2,2,2,2", "--restarts", "4", "--budget", "60",
        "-o", str(tmp_path / "res.json"), ENTROPY_TOOLKIT_THREADS="1").splitlines()
    assert json.loads(imported) == json.loads(searched) == []
    assert code == "0"


def test_two_worker_minimize_prints_the_serial_stdout(tmp_path):
    """The line printed before the search is still in stdout's buffer when
    the worker forks (stdout to a pipe is block-buffered, unless
    PYTHONUNBUFFERED is non-empty); it must come out once."""
    code = ("import os, sys; from entropy_toolkit import cli\n"
            "os.cpu_count = lambda: 2\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "print('before the search')\n"
            "sys.exit(cli.main(sys.argv[1:]))")
    outs = {}
    for threads in ("1", "2"):
        res = tmp_path / f"res{threads}.json"
        stdout = cold(code, "minimize", "--alphabet", "2,2,2,2", "--restarts", "6",
                      "--budget", "120", "--seed", "4", "-o", str(res),
                      ENTROPY_TOOLKIT_THREADS=threads, PYTHONUNBUFFERED="")
        outs[threads] = stdout.replace(str(res), "RESULT"), res.read_bytes()
    assert outs["2"] == outs["1"]
    assert outs["1"][0].startswith("before the search\nobjective ")


def test_outer_cold_matches_goldens(tmp_path):
    out = tmp_path / "region.json"
    stdout = cold("import sys; from entropy_toolkit import cli; "
                  "sys.exit(cli.main(sys.argv[1:]))",
                  "outer", "--dfz-max-s", "20", "-o", str(out))
    assert out.read_bytes() == (GOLDENS / "outer20.json").read_bytes()
    assert stdout == (GOLDENS / "outer20_stdout.txt").read_text() + f"wrote {out}\n"


def test_hull_cold_matches_golden(tmp_path):
    cloud, obj = tmp_path / "cloud.csv", tmp_path / "hull.obj"
    cloud.write_text("alpha,beta,gamma,delta,source\n" + "".join(
        ",".join(map(repr, row)) + ",fixed\n" for row in fixed_cloud()))
    stdout = cold("import sys; from entropy_toolkit import cli; "
                  "sys.exit(cli.main(sys.argv[1:]))",
                  "hull", str(cloud), "-o", str(obj))
    assert stdout.splitlines()[:4] == ["input points   = 267", "hull vertices  = 41",
                                       "hull facets    = 78", "hull dimension = 3"]
    assert obj.read_bytes() == (GOLDENS / "hull.obj").read_bytes()


#: the package's public names after ``import entropy_toolkit``: its exports
#: and its five subpackages and modules
PUBLIC_NAMES = [
    "AxiomReport", "BasisCoefficients", "Cloud", "CrossSectionHalfspace",
    "CrossSectionPoint", "EXL_COLUMNS", "EXL_REFERENCE", "ExLParams",
    "GroundSet", "IngletonFrame", "JointDistribution", "LinearInequality",
    "NonPolymatroidWarning", "PointCheckReport", "Polytope3", "SearchConfig",
    "SearchResult", "SetFunction", "TOL_ANALYTIC", "TOL_ENTROPIC", "a_map", "b_map",
    "basis_coefficients", "basis_generators", "c_sym", "check_axioms", "check_point",
    "closure_of", "contraction", "convex_hull_3d", "convolution",
    "convolve_modular_iterative", "core", "cross_section_point",
    "default_halfspace_bank", "delta", "delta_given", "delta_vec", "dfz_halfspace",
    "dfz_linear", "distribution_from_csv", "distribution_from_json",
    "distribution_to_csv", "distribution_to_json", "e_face_margins", "entropy",
    "entropy_function", "evaluate", "exl_closed_form", "exl_distribution",
    "four_atom_distribution", "four_atom_score", "frame", "generate_cloud",
    "halfspace_from_json", "halfspace_to_json", "hull_volume", "in_e_face",
    "inequalities", "inequality_from_json", "inequality_to_json", "ingleton_base",
    "ingleton_score", "ingleton_value", "is_balanced", "is_modular", "is_tight",
    "kappa", "load_distribution", "load_inequality_file", "load_set_function",
    "matroid_rank", "minimize_scalar", "modular_from", "modular_part",
    "optimize_distribution", "outer_region", "parallel_extension", "pe_contract",
    "pipeline_operator", "point_from_weights", "principal_extension", "reconstruct",
    "relabel", "save_distribution", "save_set_function", "search", "section_halfspace",
    "section_weight_matrix", "section_weights", "set_function_from_json",
    "set_function_to_json", "sphere_directions", "stv_functional", "stv_vec",
    "symmetrized_zy", "tetra_vertices", "tight_part", "vertex_seed_distributions",
    "violated_instances",
]


def test_public_names():
    """The top-level names stay as they are; ``entropy_toolkit.search`` holds
    its two modules and re-exports nothing."""
    out = cold("import json, entropy_toolkit as e, entropy_toolkit.search as s\n"
               "print(json.dumps([sorted(n for n in vars(m) if not n.startswith('_'))"
               " for m in (e, s)]))")
    assert json.loads(out) == [PUBLIC_NAMES, ["engine", "geometry"]]
