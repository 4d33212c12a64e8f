"""numpy is imported where an array is built, not on the import path.

Each case runs in a fresh interpreter that imports the package from ``src/``,
in a temporary directory, and reports whether ``numpy`` is in
``sys.modules`` afterwards; the sweep case asks each forked worker.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"


def _run(config: str) -> str:
    # the CLI's run on a bundled config; a budget stop (exit 2) is a finished run
    return (f"from hadamard_iter import cli\n"
            f"assert cli.main(['run', '--config', {str(CONFIGS / config)!r}, "
            f"'--out', 'out']) in (0, 2)\n")


def _fresh_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("code, imports_numpy", [
    ("import hadamard_iter\n", False),
    ("import hadamard_iter.cli\n", False),
    (_run("ppa_quartic.json"), False),
    (_run("hyperboloid_ball.json"), False),
    ("import hadamard_iter as hi\nhi.Euclidean(2).base_point().coords\n", True),
    ("import hadamard_iter as hi\nhi.check_space_axioms(hi.Hyperboloid(2), samples=4)\n", True),
    (_run("halpern_equilibrium.json"), False),
], ids=["package", "cli", "run_ppa_quartic", "run_hyperboloid_ball", "coords",
        "space_axioms", "run_halpern_equilibrium"])
def test_numpy_is_imported_only_where_an_array_is_built(tmp_path, code, imports_numpy):
    probe = code + "import json, sys\nprint(json.dumps('numpy' in sys.modules))\n"
    done = _fresh_python(probe, tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) is imports_numpy


def test_equilibrium_sweep_workers_import_no_numpy(tmp_path):
    # each worker checks sys.modules once its cell has run, verification grid
    # included; a cell that finds numpy there raises, so the sweep exits 3
    base = json.loads((CONFIGS / "halpern_equilibrium.json").read_text())
    del base["outputs"]
    base["max_iterations"] = 50
    sweep = {"base": base, "grid": {"schedules.lambda.value": [1.0, 2.0]}}
    (tmp_path / "sweep.json").write_text(json.dumps(sweep))
    probe = ("import sys\n"
             "from hadamard_iter import cli\n"
             "run_cell = cli._run_cell\n"
             "def probed(cell, overrides):\n"
             "    row = run_cell(cell, overrides)\n"
             "    assert 'numpy' not in sys.modules, 'a sweep worker imported numpy'\n"
             "    return row\n"
             "cli._run_cell = probed\n"
             "sys.exit(cli.main(['sweep', '--config', 'sweep.json', '--out', 'out']))\n")
    done = _fresh_python(probe, tmp_path)
    assert done.returncode == 0, done.stderr
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and "solver_error" not in "".join(rows)

