"""numpy is imported where an array is built, not on the import path, and
``config`` and ``diagnostics`` load on first use.

Each case runs in a fresh interpreter that imports the package from ``src/``,
in a temporary directory, and reports whether ``numpy`` is in
``sys.modules`` afterwards; the sweep case asks each forked worker. The
lazy cases check, in a fresh interpreter too, that ``import hadamard_iter``
leaves both submodules unloaded and that the package resolves their public
names to the submodules' current bindings.
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


# a check whose checks all embed runs: Fejer monotonicity and the Halpern target on E2
_RUN = {"space": {"kind": "euclidean", "dim": 2}, "scheme": "halpern_ppa",
        "source": {"objective": {"name": "dist2_to_set",
                                 "set": {"kind": "segment", "a": [0.0, 0.0], "b": [1.0, 0.0]}}},
        "schedules": {"anchor": {"kind": "power"}, "lambda": {"kind": "constant", "value": 1.0}},
        "start": [2.0, 1.5], "anchor": [0.3, 2.0], "max_iterations": 2000, "tolerance": 1e-12}
_EMBEDDED_CHECKS = {"space": _RUN["space"], "checks": [
    {"name": "fejer", "run": _RUN, "witness": [0.3, 0.0]},
    {"name": "halpern_target", "run": _RUN, "tolerance": 5e-3,
     "fixed_set": {"kind": "segment", "a": [0.0, 0.0], "b": [1.0, 0.0]}}]}
_CHECK_EMBEDDED = (
    f"import json\n"
    f"from hadamard_iter import cli\n"
    f"open('check.json', 'w').write(json.dumps({_EMBEDDED_CHECKS!r}))\n"
    f"assert cli.main(['check', '--config', 'check.json', '--out', 'out']) == 0\n"
    f"assert json.load(open('out/reports.json'))['reports'][1]['stop_reason']\n")


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
    (_CHECK_EMBEDDED, False),
], ids=["package", "cli", "run_ppa_quartic", "run_hyperboloid_ball", "coords",
        "space_axioms", "run_halpern_equilibrium", "check_embedded_runs"])
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


# the public names the package resolves on first use, with their submodules
_LAZY_NAMES = {
    **dict.fromkeys(["config", "point_from_config", "point_to_config", "set_from_config",
                     "space_from_config", "space_to_config"], "config"),
    **dict.fromkeys(["diagnostics", "CheckReport", "Violation", "check_fejer",
                     "check_halpern_target", "check_nested_fixed_sets", "check_quasi_firm",
                     "check_space_axioms", "check_sqn_inequality"], "diagnostics"),
}


def _run_fresh(code: str, cwd: Path) -> None:
    done = _fresh_python(code, cwd)
    assert done.returncode == 0, done.stderr


def test_import_loads_neither_config_nor_diagnostics(tmp_path):
    _run_fresh("import sys\n"
               "import hadamard_iter\n"
               "lazy = {'hadamard_iter.config', 'hadamard_iter.diagnostics'}\n"
               "assert not lazy & set(sys.modules), lazy & set(sys.modules)\n", tmp_path)


def test_lazy_names_are_the_submodules_own_objects(tmp_path):
    # the first read of each submodule's names is a from-import, then an attribute
    _run_fresh(f"import sys\n"
               f"import hadamard_iter as hi\n"
               f"listed = dir(hi)\n"
               f"for name, home in {_LAZY_NAMES!r}.items():\n"
               f"    got = getattr(__import__('hadamard_iter', fromlist=[name]), name)\n"
               f"    module = sys.modules['hadamard_iter.' + home]\n"
               f"    want = module if name == home else getattr(module, name)\n"
               f"    assert got is want and getattr(hi, name) is want, name\n"
               f"    assert name in listed, name\n", tmp_path)


def test_an_unknown_name_raises_attribute_error(tmp_path):
    _run_fresh("import pytest\n"
               "import hadamard_iter as hi\n"
               "with pytest.raises(AttributeError, match='no attribute .no_such_name.'):\n"
               "    hi.no_such_name\n"
               "with pytest.raises(ImportError, match='no_such_name'):\n"
               "    from hadamard_iter import no_such_name\n"
               "assert 'no_such_name' not in dir(hi)\n", tmp_path)


def test_a_name_patched_on_diagnostics_is_what_the_package_returns(tmp_path):
    _run_fresh("from unittest import mock\n"
               "import hadamard_iter as hi\n"
               "from hadamard_iter import diagnostics\n"
               "original = diagnostics.check_space_axioms\n"
               "with mock.patch.object(diagnostics, 'check_space_axioms') as patched:\n"
               "    assert hi.check_space_axioms is patched\n"
               "assert hi.check_space_axioms is original\n", tmp_path)
