"""numpy is imported where an array is built, not on the import path.

Each case runs in a fresh interpreter that imports the package from ``src/``,
in a temporary directory, and reports whether ``numpy`` is in
``sys.modules`` afterwards.
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


@pytest.mark.parametrize("code, imports_numpy", [
    ("import hadamard_iter\n", False),
    ("import hadamard_iter.cli\n", False),
    (_run("ppa_quartic.json"), False),
    (_run("hyperboloid_ball.json"), False),
    ("import hadamard_iter as hi\nhi.Euclidean(2).base_point().coords\n", True),
    ("import hadamard_iter as hi\nhi.check_space_axioms(hi.Hyperboloid(2), samples=4)\n", True),
    (_run("halpern_equilibrium.json"), True),
], ids=["package", "cli", "run_ppa_quartic", "run_hyperboloid_ball", "coords",
        "space_axioms", "run_halpern_equilibrium"])
def test_numpy_is_imported_only_where_an_array_is_built(tmp_path, code, imports_numpy):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    probe = code + "import json, sys\nprint(json.dumps('numpy' in sys.modules))\n"
    done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) is imports_numpy
