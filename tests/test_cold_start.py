"""Fresh interpreters: what a cold ``entropy-toolkit`` process loads and prints.

The test process itself has scipy loaded (the geometry tests and helpers
import it), so these checks run each scenario in a subprocess with only
``src`` on the path.  Only hulls need Qhull: importing the package, the CLI
and the commands that build no hull must leave every ``scipy`` module
unloaded, and the commands that do build one must print and write the same
bytes as in a warm process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from helpers import fixed_cloud

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "goldens"

# prints the sorted names of the loaded scipy modules as a JSON list
REPORT_SCIPY = ("import json, sys; print(json.dumps(sorted("
                "m for m in sys.modules if m.split('.')[0] == 'scipy')))")


def cold(code, *args):
    """Run ``code`` in a fresh interpreter with ``src`` on the path."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_scipy():
    out = cold("import entropy_toolkit, entropy_toolkit.cli\n" + REPORT_SCIPY)
    assert json.loads(out) == []


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
