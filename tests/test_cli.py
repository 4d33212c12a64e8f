import csv
import dataclasses
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hadamard_iter import cli, objective_fixture
from hadamard_iter.cli import main

BASE_RUN = {
    "space": {"kind": "euclidean", "dim": 1},
    "scheme": "ppa",
    "source": {"objective": {"name": "quadratic"}},
    "schedules": {"lambda": {"kind": "constant", "value": 1.0}},
    "start": [8.0],
    "reference": [0.0],
    "max_iterations": 200,
    "tolerance": 1e-09,
    "seed": 3,
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def run_cli(*args):
    return main(list(args))


def test_run_converged_exit_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_RUN)
    code = run_cli("run", "--config", cfg, "--out", str(tmp_path / "out"))
    assert code == 0
    out = capsys.readouterr().out
    assert "converged" in out
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["stop_reason"] == "converged"
    assert summary["scheme"] == "ppa"
    assert summary["target_distance"] <= 1e-8
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert trace[0] == "k,x0,residual,dist_to_reference,fejer_gap"
    assert trace[1].startswith("1,8,")


def test_run_byte_identical_reruns(tmp_path):
    cfg = dict(BASE_RUN, scheme="halpern_ppa", anchor=[5.0], start=[5.0],
               max_iterations=3000, tolerance=1e-07)
    cfg["schedules"] = {"anchor": {"kind": "power"}, "lambda": {"kind": "constant", "value": 1.0}}
    path = write_cfg(tmp_path, cfg)
    assert run_cli("run", "--config", path, "--out", str(tmp_path / "a")) in (0, 2)
    assert run_cli("run", "--config", path, "--out", str(tmp_path / "b")) in (0, 2)
    ta = (tmp_path / "a" / "trace.csv").read_bytes()
    tb = (tmp_path / "b" / "trace.csv").read_bytes()
    assert ta == tb
    sa = (tmp_path / "a" / "summary.json").read_bytes()
    sb = (tmp_path / "b" / "summary.json").read_bytes()
    assert sa == sb


def test_run_budget_exhausted_exit_two(tmp_path):
    cfg = dict(BASE_RUN, max_iterations=3, tolerance=1e-15)
    code = run_cli("run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o"))
    assert code == 2
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["stop_reason"] == "budget_exhausted"
    assert summary["iterations"] == 3


def test_run_solver_error_exit_three(tmp_path):
    # the expanding negative-control fixture blows up; residuals go non-finite
    cfg = dict(BASE_RUN, source={"objective": {"name": "expanding_quadratic"}},
               max_iterations=10000, tolerance=1e-12)
    code = run_cli("run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o"))
    assert code == 3
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["stop_reason"] == "solver_error"
    assert summary["error_step"] is not None


def test_run_domain_error_mid_run_exit_three(tmp_path, monkeypatch):
    # a resolvent whose fifth step yields a non-finite point: the run ends as
    # a solver error with the trace of the four steps before it
    def broken_fixture(space, name, **kwargs):
        f = objective_fixture(space, name, **kwargs)
        calls = []

        def closed_form(lam, x):
            calls.append(lam)
            if len(calls) == 5:
                return space.point([float("inf")])
            return f.closed_form_resolvent(lam, x)

        return dataclasses.replace(f, closed_form_resolvent=closed_form)

    monkeypatch.setattr(cli, "objective_fixture", broken_fixture)
    code = run_cli("run", "--config", write_cfg(tmp_path, BASE_RUN), "--out", str(tmp_path / "o"))
    assert code == 3
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["stop_reason"] == "solver_error"
    assert summary["error_step"] == 5 and summary["iterations"] == 4
    assert "finite" in summary["error_message"]
    trace = (tmp_path / "o" / "trace.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in trace[1:]] == ["1", "2", "3", "4"]


def test_run_rejects_unknown_keys(tmp_path, capsys):
    cfg = dict(BASE_RUN, typo_key=1)
    assert run_cli("run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)) == 1
    assert "typo_key" in capsys.readouterr().err


def test_run_rejects_summable_halpern_weights(tmp_path, capsys):
    cfg = dict(BASE_RUN, scheme="halpern_ppa", anchor=[1.0])
    cfg["schedules"] = {"anchor": {"kind": "power", "power": 2.0},
                        "lambda": {"kind": "constant", "value": 1.0}}
    assert run_cli("run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)) == 1
    assert "divergent sum" in capsys.readouterr().err


def test_run_rejects_inverse_k_resolvent_parameters(tmp_path, capsys):
    # 1/k has no positive lower bound, so it is not a resolvent-class schedule
    cfg = dict(BASE_RUN, schedules={"lambda": {"kind": "inverse_k", "scale": 2.0}})
    assert run_cli("run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)) == 1
    assert ("schedule kind 'inverse_k' cannot serve as resolvent parameters"
            in capsys.readouterr().err)


def test_run_rejects_anchor_on_plain_scheme(tmp_path):
    cfg = dict(BASE_RUN, anchor=[0.0])
    assert run_cli("run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)) == 1


_DROP = object()


def _with(cfg, path, value):
    """A deep copy of ``cfg`` with the dotted ``path`` set to ``value``
    (``_DROP`` deletes the key)."""
    cfg = json.loads(json.dumps(cfg))
    *parents, last = path.split(".")
    node = cfg
    for key in parents:
        node = node[key]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    return cfg


@pytest.mark.parametrize("path, value, message", [
    pytest.param("source.objective", {"name": "plateau_quartic", "foo": 1},
                 "unknown keys ['foo'] in objective 'plateau_quartic'; accepted keys: ['name']",
                 id="unknown-descriptor-key"),
    pytest.param("source.objective", {"name": "quadratic", "cset": {"kind": "whole_space"}},
                 "accepted keys: ['name', 'center']", id="builder-name-for-set"),
    pytest.param("schedules.lambda.value", _DROP, "missing key 'value' in schedule 'lambda'",
                 id="constant-schedule-without-value"),
    pytest.param("space.dim", _DROP, "a euclidean space needs an integer 'dim'",
                 id="space-without-dim"),
    pytest.param("max_iterations", "abc",
                 "'max_iterations' in run config must be a number, got 'abc'",
                 id="non-numeric-budget"),
    pytest.param("trace_stride", 0, "trace_stride must be a positive integer or None, got 0",
                 id="zero-stride"),
    pytest.param("trace_stride", -2, "trace_stride must be a positive integer or None, got -2",
                 id="negative-stride"),
    pytest.param("schedules.lambda", {"kind": "constant", "value": 1.0, "floor": 0.5, "power": 7},
                 "unknown keys ['floor', 'power'] in schedule 'lambda' of kind 'constant'; "
                 "accepted keys: ['kind', 'value']", id="constant-schedule-extra-keys"),
    pytest.param("schedules.anchor", {"kind": "power", "value": 0.1},
                 "unknown keys ['value'] in schedule 'anchor' of kind 'power'; "
                 "accepted keys: ['kind', 'scale', 'offset', 'power']",
                 id="anchor-schedule-extra-key"),
    pytest.param("schedules.alpha", {"kind": "power", "power": 2000.0},
                 "Mann weight at k=1 is 0.0", id="mann-power-overflow"),
    pytest.param("schedules.alpha", {"kind": "power", "offset": -3, "power": 0.5},
                 "Mann weights scale/(k+offset)^power need k + offset > 0 for every k >= 1",
                 id="mann-power-complex-weight"),
    pytest.param("schedules.anchor", {"kind": "power", "offset": -3, "power": 0.5},
                 "anchor weights scale/(k+offset)^power need k + offset > 0 for every k >= 1",
                 id="anchor-power-complex-weight"),
    pytest.param("schedules.lambda", {"kind": "power_floor", "floor": 1, "power": -1000},
                 "resolvent parameters floor + scale/k^power need power >= 0, got -1000.0",
                 id="power-floor-negative-power"),
    pytest.param("schedules.alpha", {"kind": "power", "offset": 0.5, "power": -1},
                 "Mann weights scale/(k+offset)^power need power >= 0, got -1.0",
                 id="mann-power-negative-power"),
    pytest.param("schedules.alpha", {"kind": "power", "offset": -0.999, "power": 2000},
                 "(1 + offset)^power underflows to 0", id="mann-power-underflow"),
])
def test_malformed_run_config_is_a_config_error(tmp_path, path, value, message):
    proc = _run_entry_point(tmp_path, _with(BASE_RUN, path, value))
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error:")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


def test_overflowing_power_floor_schedule_runs(tmp_path):
    # 1e6 ** 300 overflows a float; the weight 1 / k ** 300 reads as 0 there
    lam = {"kind": "power_floor", "floor": 1, "scale": 1, "power": 300}
    proc = _run_entry_point(tmp_path, _with(BASE_RUN, "schedules.lambda", lam))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["stop_reason"] == "converged"


def _run_entry_point(tmp_path, cfg):
    """``hadamard-iter run`` on ``cfg`` in a fresh interpreter, output to
    ``tmp_path / "o"``, so an uncaught exception shows as a traceback on
    stderr."""
    path = write_cfg(tmp_path, cfg)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-m", "hadamard_iter.cli", "run", "--config", path,
                           "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=env, timeout=120)


def test_run_passes_trace_stride_through(tmp_path):
    cfg = dict(BASE_RUN, trace_stride=3, max_iterations=10, tolerance=0.0)
    assert run_cli("run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)) == 2
    rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["1", "3", "6", "9", "10"]


def test_run_missing_config_file(tmp_path):
    assert run_cli("run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)) == 1


def test_run_max_iters_override(tmp_path):
    cfg = write_cfg(tmp_path, BASE_RUN)
    code = run_cli("run", "--config", cfg, "--out", str(tmp_path / "o"), "--max-iters", "2")
    assert code == 2


def test_run_seed_override_lands_in_summary(tmp_path):
    cfg = write_cfg(tmp_path, BASE_RUN)
    assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "99") == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["seed"] == 99


def test_run_spider_trace_columns(tmp_path):
    cfg = {
        "space": {"kind": "spider", "legs": 3},
        "scheme": "ppa",
        "source": {"objective": {"name": "quadratic", "center": {"leg": 1, "radius": 2.0}}},
        "schedules": {"lambda": {"kind": "constant", "value": 1.0}},
        "start": {"leg": 2, "radius": 1.0},
        "max_iterations": 100,
        "tolerance": 1e-10,
    }
    assert run_cli("run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")) == 0
    lines = (tmp_path / "o" / "trace.csv").read_text().splitlines()
    assert lines[0] == "k,leg,radius,residual,dist_to_reference,fejer_gap"


def test_run_quartic_example(tmp_path):
    cfg = {
        "space": {"kind": "euclidean", "dim": 1},
        "scheme": "ppa",
        "source": {"objective": {"name": "plateau_quartic"}},
        "schedules": {"lambda": {"kind": "constant", "value": 0.01}},
        "start": [5.0],
        "max_iterations": 200000,
        "tolerance": 1e-08,
    }
    assert run_cli("run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["final_point"][0] == pytest.approx(2.0, abs=1e-2)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

CHECK_CFG = {
    "space": {"kind": "euclidean", "dim": 2},
    "seed": 5,
    "checks": [
        {"name": "space_axioms", "samples": 300},
        {"name": "quasi_firm", "objective": {"name": "quadratic"}, "lambda": 1.0,
         "samples": 100},
        {"name": "sqn_inequality", "variant": "ishikawa",
         "operator": {"name": "rotation", "angle": 2.0944}, "alpha": 0.5, "beta": 0.25,
         "samples": 100},
        {"name": "nested_fixed_sets", "objective": {"name": "quadratic"},
         "lambda": 1.0, "mu": 0.5, "candidates": [[0.0, 0.0]]},
    ],
}


def test_check_all_pass_exit_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CHECK_CFG)
    assert run_cli("check", "--config", cfg, "--out", str(tmp_path / "o")) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out
    bundle = json.loads((tmp_path / "o" / "reports.json").read_text())
    assert bundle["all_passed"] and len(bundle["reports"]) == 4


def test_check_negative_fixture_fails(tmp_path, capsys):
    cfg = dict(CHECK_CFG, checks=[
        {"name": "quasi_firm", "objective": {"name": "expanding_quadratic"},
         "lambda": 1.0, "samples": 50},
    ])
    assert run_cli("check", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")) == 1
    assert "FAIL" in capsys.readouterr().out
    bundle = json.loads((tmp_path / "o" / "reports.json").read_text())
    assert not bundle["all_passed"]
    assert bundle["reports"][0]["violations"]


@pytest.mark.parametrize("index, key, value, message", [
    (1, "lambda", "abc", "'lambda' in check 'quasi_firm' must be a number, got 'abc'"),
    (2, "operator", {"name": "rotation", "angel": 1.0},
     "unknown keys ['angel'] in operator 'rotation'; accepted keys: ['name', 'angle']"),
    (3, "candidates", 3, "'candidates' in check 'nested_fixed_sets' must be a list of points"),
])
def test_check_malformed_field_is_a_config_error(tmp_path, capsys, index, key, value, message):
    cfg = json.loads(json.dumps(CHECK_CFG))
    cfg["checks"][index][key] = value
    assert run_cli("check", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


E2_RUN = dict(BASE_RUN, space={"kind": "euclidean", "dim": 2}, start=[8.0, 1.0],
              reference=[0.0, 0.0])
MANN_E2_RUN = dict(E2_RUN, scheme="mann", schedules={"alpha": {"kind": "constant", "value": 0.5}})
E1_CHECK = {"space": {"kind": "euclidean", "dim": 1},
            "checks": [{"name": "space_axioms", "samples": 10}]}
SPIDER = {"kind": "spider", "legs": 3}
SHAPE_SWEEP = {"base": BASE_RUN, "grid": {"max_iterations": [10, 20]}}


@pytest.mark.parametrize("command, cfg, message", [
    # descriptor parameters: required keys and numbers
    pytest.param("run", _with(MANN_E2_RUN, "source", {"operator": {"name": "rotation"}}),
                 "missing key 'angle' in operator 'rotation'", id="rotation-without-angle"),
    pytest.param("run", _with(MANN_E2_RUN, "source", {"operator": {"name": "constant"}}),
                 "missing key 'point' in operator 'constant'", id="constant-without-point"),
    pytest.param("run", _with(BASE_RUN, "source.objective", {"name": "dist2_to_set"}),
                 "missing key 'set' in objective 'dist2_to_set'", id="dist2-without-set"),
    pytest.param("run", _with(MANN_E2_RUN, "source",
                              {"operator": {"name": "rotation", "angle": "x"}}),
                 "'angle' in operator 'rotation' must be a number, got 'x'", id="non-numeric-angle"),
    pytest.param("run", _with(MANN_E2_RUN, "source",
                              {"operator": {"name": "scaled_reflection", "factor": "x"}}),
                 "'factor' in operator 'scaled_reflection' must be a number, got 'x'",
                 id="non-numeric-factor"),
    pytest.param("run", _with(dict(E2_RUN, scheme="ppa_equilibrium"), "source",
                              {"bifunction": {"name": "rotation_vi", "radius": "x"}}),
                 "'radius' in bifunction 'rotation_vi' must be a number, got 'x'",
                 id="non-numeric-radius"),
    # geometry shapes
    pytest.param("run", _with(BASE_RUN, "space", 3), "a space must be an object", id="space-3"),
    pytest.param("run", _with(BASE_RUN, "source.objective", {"name": "dist2_to_set", "set": 5}),
                 "a set must be an object", id="set-5"),
    pytest.param("run", _with(BASE_RUN, "source.objective",
                              {"name": "dist2_to_set", "set": {"kind": "ball", "center": [0.0]}}),
                 "a ball set needs 'radius'", id="ball-without-radius"),
    pytest.param("run", _with(BASE_RUN, "source.objective",
                              {"name": "dist2_to_set",
                               "set": {"kind": "halfspace", "offset": 0.0}}),
                 "a halfspace set needs 'normal'", id="halfspace-without-normal"),
    pytest.param("run", _with(BASE_RUN, "source.objective", {
        "name": "dist2_to_set", "set": {"kind": "ball", "center": [0.0], "radius": "abc"}}),
                 "ball radius must be a number, got 'abc'", id="non-numeric-ball-radius"),
    pytest.param("run", _with(BASE_RUN, "start", "ab"), "coordinates must be numbers, got 'ab'",
                 id="string-start"),
    pytest.param("run", _with(BASE_RUN, "source.objective", {"name": "quadratic", "center": "zz"}),
                 "coordinates must be numbers, got 'zz'", id="string-center"),
    pytest.param("run", _with(_with(BASE_RUN, "space", SPIDER), "start", [1, 1, 1]),
                 "a spider point is", id="spider-point-of-three"),
    # run, check and sweep shapes
    pytest.param("run", _with(BASE_RUN, "schedules", [1]), "schedules must be an object",
                 id="schedules-list"),
    pytest.param("run", dict(BASE_RUN, outputs=5), "outputs must be an object", id="run-outputs-5"),
    pytest.param("run", dict(BASE_RUN, outputs={"trace": 5}),
                 "output 'trace' must be a file name, got 5", id="run-output-name-5"),
    pytest.param("check", dict(E1_CHECK, checks=5), "'checks' in check config must be a list",
                 id="checks-5"),
    pytest.param("check", dict(E1_CHECK, checks=[{"name": "space_axioms"}, 5]),
                 "a check must be an object, got 5", id="check-5"),
    pytest.param("check", dict(CHECK_CFG, checks=[
        {"name": "sqn_inequality", "variant": "ishikawa", "alpha": 0.5}]),
                 "missing key 'operator' in check 'sqn_inequality' of variant 'ishikawa'",
                 id="sqn-without-operator"),
    pytest.param("check", dict(E1_CHECK, checks=[
        {"name": "halpern_target", "run": BASE_RUN, "fixed_set": {"kind": "whole_space"},
         "tolerance": 1e-3}]),
                 "check 'halpern_target' needs an embedded run with an 'anchor'",
                 id="halpern-target-without-anchor"),
    pytest.param("check", dict(E1_CHECK, outputs=5), "outputs must be an object",
                 id="check-outputs-5"),
    pytest.param("check", dict(E1_CHECK, outputs={"reports": 5}),
                 "output 'reports' must be a file name, got 5", id="check-output-name-5"),
    pytest.param("sweep", dict(SHAPE_SWEEP, output=5), "sweep output must be a file name, got 5",
                 id="sweep-output-5"),
    pytest.param("sweep", dict(SHAPE_SWEEP, grid={"max_iterations": 1.0}),
                 "grid path 'max_iterations' needs a list of values, got 1.0", id="grid-value-1.0"),
    pytest.param("sweep", dict(SHAPE_SWEEP, grid={"max_iterations": []}),
                 "grid path 'max_iterations' has an empty list of values", id="grid-empty-list"),
    pytest.param("run", _with(_with(_with(BASE_RUN, "space", SPIDER), "start",
                                    {"leg": 1.7, "radius": 2.0}), "reference", {"leg": 0, "radius": 0.0}),
                 "leg index must be an integer, got 1.7", id="spider-leg-1.7"),
    pytest.param("check", dict(CHECK_CFG, checks=[
        {"name": "sqn_inequality", "variant": "equilibrium_resolvent",
         "bifunction": {"name": "rotation_vi"}, "lambda": 1.0, "samples": 20,
         "alpha": 0.5, "operator": {"name": "nonsense"}}]),
                 "unknown keys ['alpha', 'operator'] in check 'sqn_inequality' of variant "
                 "'equilibrium_resolvent'", id="sqn-keys-of-another-variant"),
])
def test_malformed_config_shape_is_a_config_error(tmp_path, capsys, command, cfg, message):
    # in-process: an uncaught exception fails the test, as a traceback would
    code = run_cli(command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_check_config_is_validated_before_any_check_runs(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "check_space_axioms", lambda *a, **k: ran.append(a))
    cfg = dict(CHECK_CFG, checks=[CHECK_CFG["checks"][0], {"name": "nested_fixed_sets",
               "objective": {"name": "quadratic"}, "lambda": 1.0, "mu": 0.5, "candidates": 3}])
    assert run_cli("check", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")) == 1
    assert ran == []


def test_check_unknown_name(tmp_path):
    cfg = dict(CHECK_CFG, checks=[{"name": "levitation"}])
    assert run_cli("check", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)) == 1


def test_check_embedded_run_fejer_and_target(tmp_path):
    run_desc = {
        "space": {"kind": "euclidean", "dim": 2},
        "scheme": "halpern_ppa",
        "source": {"objective": {"name": "dist2_to_set",
                                 "set": {"kind": "segment", "a": [0.0, 0.0], "b": [1.0, 0.0]}}},
        "schedules": {"anchor": {"kind": "power"},
                      "lambda": {"kind": "constant", "value": 1.0}},
        "start": [2.0, 1.5],
        "anchor": [0.3, 2.0],
        "max_iterations": 5000,
        "tolerance": 1e-12,
    }
    cfg = {
        "space": {"kind": "euclidean", "dim": 2},
        "checks": [
            {"name": "halpern_target", "run": run_desc,
             "fixed_set": {"kind": "segment", "a": [0.0, 0.0], "b": [1.0, 0.0]},
             "tolerance": 5e-3},
        ],
    }
    assert run_cli("check", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")) == 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_CFG = {
    "base": dict(BASE_RUN, tolerance=1e-08),
    "grid": {"schedules.lambda.value": [0.1, 1.0, 10.0]},
}


def test_sweep_iterations_decrease_with_lambda(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o")) == 0
    lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("schedules.lambda.value,iterations,")
    iters = [int(line.split(",")[1]) for line in lines[1:]]
    assert iters[0] > iters[1] > iters[2]


def test_sweep_single_cell_matches_run(tmp_path):
    sweep_cfg = {"base": dict(BASE_RUN), "grid": {"schedules.lambda.value": [1.0]}}
    assert run_cli("sweep", "--config", write_cfg(tmp_path, sweep_cfg, "s.json"),
                   "--out", str(tmp_path / "s")) == 0
    assert run_cli("run", "--config", write_cfg(tmp_path, BASE_RUN, "r.json"),
                   "--out", str(tmp_path / "r")) == 0
    row = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1].split(",")
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert int(row[1]) == summary["iterations"]
    assert row[2] == summary["stop_reason"]
    assert float(row[3]) == summary["final_residual"]


def test_sweep_validates_all_cells_before_running(tmp_path):
    cfg = {"base": dict(BASE_RUN), "grid": {"schedules.lambda.value": [1.0, -3.0]}}
    assert run_cli("sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")) == 1
    assert not (tmp_path / "o" / "sweep.csv").exists()


HALPERN_BASE = dict(BASE_RUN, scheme="halpern_ppa", schedules={
    "anchor": {"kind": "power"}, "lambda": {"kind": "constant", "value": 1.0}})


@pytest.mark.parametrize("base, message", [
    pytest.param(HALPERN_BASE, "Halpern iteration needs an anchor point u", id="halpern-without-anchor"),
    pytest.param(dict(BASE_RUN, trace_stride=0),
                 "trace_stride must be a positive integer or None, got 0", id="zero-stride"),
])
def test_sweep_rejects_what_the_engine_rejects_at_entry(tmp_path, monkeypatch, capsys, base, message):
    # config errors the engine raises before its first step are found before
    # any worker starts: exit 1 and no CSV, not a solver_error row per cell
    monkeypatch.setenv("HADAMARD_ITER_THREADS", "1")
    cfg = {"base": base, "grid": {"max_iterations": [10, 20]}}
    assert run_cli("sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert "solver_error" not in err and "cell" not in err
    assert not (tmp_path / "o" / "sweep.csv").exists()
    assert multiprocessing.active_children() == []
    # the same base with its anchor, or a valid stride, sweeps fine
    fixed = dict(base, anchor=[0.0]) if "anchor" in base["schedules"] else dict(base, trace_stride=2)
    cfg = {"base": fixed, "grid": {"max_iterations": [10, 20]}}
    assert run_cli("sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")) in (0, 2)
    assert (tmp_path / "o" / "sweep.csv").exists()


def test_sweep_bad_grid_path(tmp_path):
    cfg = {"base": dict(BASE_RUN), "grid": {"schedules.mu.value": [1.0]}}
    assert run_cli("sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)) == 1


def test_sweep_thread_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HADAMARD_ITER_THREADS", "1")
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o")) == 0
    assert (tmp_path / "o" / "sweep.csv").exists()


def test_sweep_byte_identical_reruns(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "a")) == 0
    assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "b")) == 0
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()


def test_sweep_csv_quotes_structured_grid_values(tmp_path):
    base = dict(BASE_RUN, space={"kind": "hyperboloid", "dim": 2},
                source={"objective": {"name": "quadratic"}},
                start={"spatial": [0.9, 0.0]}, reference=[1.0, 0.0, 0.0])
    starts = [{"spatial": [0.9, 0.0]}, {"spatial": [0.0, -1.5]}]
    cfg = {"base": base, "grid": {"start": starts, "schedules.lambda.value": [1.0, 2.0]}}
    assert run_cli("sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")) == 0
    with open(tmp_path / "o" / "sweep.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["start", "schedules.lambda.value", "iterations", "stop_reason",
                      "final_residual", "target_distance"]
    assert len(rows) == 4
    for row, (start, lam) in zip(rows, itertools.product(starts, [1.0, 2.0])):
        assert len(row) == len(header)
        assert json.loads(row[0]) == start
        assert float(row[1]) == lam
        assert row[3] == "converged"


def test_sweep_workers_rule():
    # min(requested, cpus, cells), requested = HADAMARD_ITER_THREADS or 8
    assert cli._sweep_workers(None, cells=20, cpus=64) == 8
    assert cli._sweep_workers("", cells=20, cpus=64) == 8
    assert cli._sweep_workers(None, cells=20, cpus=2) == 2
    assert cli._sweep_workers(None, cells=3, cpus=64) == 3
    assert cli._sweep_workers("100", cells=1000, cpus=4) == 4
    assert cli._sweep_workers("100", cells=5, cpus=64) == 5
    assert cli._sweep_workers("2", cells=20, cpus=64) == 2
    assert cli._sweep_workers(" 3 ", cells=20, cpus=64) == 3
    assert cli._sweep_workers(None, cells=20, cpus=None) == 1
    assert cli._sweep_workers(None, cells=0, cpus=4) == 1
    for bad in ("abc", "0", "-2", "2.5", "1e3"):
        with pytest.raises(cli.ConfigError, match="HADAMARD_ITER_THREADS"):
            cli._sweep_workers(bad, cells=20, cpus=64)


@pytest.mark.parametrize("value", ["abc", "0"])
def test_sweep_bad_thread_env_is_config_error(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("HADAMARD_ITER_THREADS", value)
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o")) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o" / "sweep.csv").exists()


def test_sweep_csv_identical_with_one_and_two_workers(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    for n in ("1", "2"):
        monkeypatch.setenv("HADAMARD_ITER_THREADS", n)
        assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / n)) == 0
        assert multiprocessing.active_children() == []
    assert (tmp_path / "1" / "sweep.csv").read_bytes() == (tmp_path / "2" / "sweep.csv").read_bytes()


def _fail_at_lambda(monkeypatch, bad_lam, fail):
    # the quadratic's closed-form resolvent calls ``fail()`` at one lambda;
    # the forked sweep workers inherit the patch
    def patched_fixture(space, name, **kwargs):
        f = objective_fixture(space, name, **kwargs)

        def closed_form(lam, x):
            if lam == bad_lam:
                fail()
            return f.closed_form_resolvent(lam, x)

        return dataclasses.replace(f, closed_form_resolvent=closed_form)

    monkeypatch.setattr(cli, "objective_fixture", patched_fixture)


def test_sweep_failing_cell_gets_error_row(tmp_path, monkeypatch, capsys):
    def fail():
        raise RuntimeError("injected failure")

    _fail_at_lambda(monkeypatch, 1.0, fail)
    monkeypatch.setenv("HADAMARD_ITER_THREADS", "2")
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o")) == 3
    assert multiprocessing.active_children() == []
    err = capsys.readouterr().err
    assert "schedules.lambda.value=1" in err and "injected failure" in err
    with open(tmp_path / "o" / "sweep.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["schedules.lambda.value", "iterations", "stop_reason",
                      "final_residual", "target_distance"]
    assert rows[1] == ["1", "", "solver_error", "", ""]
    assert [r[0] for r in rows] == ["0.10000000000000001", "1", "10"]
    assert rows[0][2] == rows[2][2] == "converged"


def test_sweep_dead_worker_gets_error_row(tmp_path, monkeypatch, capsys):
    _fail_at_lambda(monkeypatch, 10.0, lambda: os._exit(1))
    monkeypatch.setenv("HADAMARD_ITER_THREADS", "1")
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o")) == 3
    assert multiprocessing.active_children() == []
    assert "BrokenProcessPool" in capsys.readouterr().err
    rows = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    assert rows[2] == "10,,solver_error,,"
