import concurrent.futures
import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hadamard_iter import (Halfspace, SolverError, WholeSpace, cli, config, objective_fixture,
                          schemes)
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
    assert ("unknown schedule 'lambda' kind 'inverse_k'; known: ['constant', 'power_floor']"
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
    pytest.param("space.dim", _DROP, "missing key 'dim' in space of kind 'euclidean'",
                 id="space-without-dim"),
    pytest.param("max_iterations", "abc",
                 "'max_iterations' in run config must be an integer >= 0, got 'abc'",
                 id="non-numeric-budget"),
    pytest.param("max_iterations", -5,
                 "'max_iterations' in run config must be an integer >= 0, got -5",
                 id="negative-budget"),
    pytest.param("max_iterations", 0, "max_iterations must be an integer >= 1, got 0",
                 id="zero-budget"),
    pytest.param("tolerance", math.nan,
                 "'tolerance' in run config must be a finite number, got nan", id="nan-tolerance"),
    pytest.param("tolerance", math.inf,
                 "'tolerance' in run config must be a finite number, got inf", id="infinite-tolerance"),
    pytest.param("tolerance", -1.0, "tolerance must be finite and >= 0, got -1.0",
                 id="negative-tolerance"),
    pytest.param("trace_stride", 0, "trace_stride must be a positive integer or None, got 0",
                 id="zero-stride"),
    pytest.param("trace_stride", -2,
                 "'trace_stride' in run config must be an integer >= 0, got -2",
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


@pytest.mark.parametrize("command, cfg", [("run", BASE_RUN),
                                          ("sweep", {"base": BASE_RUN, "grid": {"seed": [1, 2]}})])
def test_zero_max_iters_flag_is_a_config_error(tmp_path, capsys, command, cfg):
    code = run_cli(command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o"),
                   "--max-iters", "0")
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "config error: max_iterations must be an integer >= 1, got 0")
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


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "seed must be an integer >= 0, got -1"),
    ("--max-iters", "0", "max_iterations must be an integer >= 1, got 0"),
], ids=["negative-seed", "zero-budget"])
@pytest.mark.parametrize("command, cfg", [
    ("run", BASE_RUN), ("check", CHECK_CFG), ("sweep", {"base": BASE_RUN, "grid": {"seed": [1]}}),
])
def test_bad_override_flags_are_config_errors(tmp_path, capsys, command, cfg, flag, value,
                                              message):
    # a check config without an embedded run included
    code = run_cli(command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o"),
                   flag, value)
    assert code == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_run_outputs_that_name_one_file_are_a_config_error(tmp_path, capsys):
    # the summary would overwrite the trace
    cfg = dict(BASE_RUN, outputs={"trace": "same.txt", "summary": "./same.txt"})
    assert run_cli("run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == \
        "config error: two outputs name one file: same.txt, ./same.txt\n"
    assert not (tmp_path / "o").exists()


def _no_work(*args, **kwargs):
    raise AssertionError("the command started its work")


@pytest.mark.parametrize("command, cfg, work, name", [
    ("run", BASE_RUN, (cli.BuiltScheme, "run"), "trace.csv"),
    ("check", CHECK_CFG, (cli, "check_space_axioms"), "reports.json"),
    ("sweep", {"base": BASE_RUN, "grid": {"seed": [1]}}, (multiprocessing, "get_context"),
     "sweep.csv"),
])
def test_out_naming_a_file_is_a_config_error_before_any_work(tmp_path, capsys, monkeypatch,
                                                             command, cfg, work, name):
    path = write_cfg(tmp_path, cfg)
    monkeypatch.setattr(*work, _no_work)
    for out in (tmp_path / "f", tmp_path / "f" / "sub"):
        (tmp_path / "f").write_text("kept\n")
        assert run_cli(command, "--config", path, "--out", str(out)) == 1
        assert capsys.readouterr().err == \
            f"config error: cannot write {out / name}: {tmp_path / 'f'} is not a directory\n"
        assert (tmp_path / "f").read_text() == "kept\n"


def test_run_output_naming_a_directory_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.BuiltScheme, "run", _no_work)
    (tmp_path / "o" / "trace.csv").mkdir(parents=True)
    assert run_cli("run", "--config", write_cfg(tmp_path, BASE_RUN), "--out",
                   str(tmp_path / "o")) == 1
    trace = tmp_path / "o" / "trace.csv"
    assert capsys.readouterr().err == \
        f"config error: cannot write {trace}: {trace} is a directory\n"
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["trace.csv"]


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
    assert run_cli("check", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")) == 4
    assert "FAIL" in capsys.readouterr().out
    bundle = json.loads((tmp_path / "o" / "reports.json").read_text())
    assert not bundle["all_passed"]
    assert bundle["reports"][0]["violations"]


@pytest.mark.parametrize("index, key, value, message", [
    (1, "lambda", "abc", "'lambda' in check 'quasi_firm' must be a finite number, got 'abc'"),
    (2, "operator", {"name": "rotation", "angel": 1.0},
     "unknown keys ['angel'] in operator 'rotation'; accepted keys: ['name', 'angle']"),
    (3, "candidates", 3,
     "'candidates' in check 'nested_fixed_sets' must be a nonempty list, got 3"),
])
def test_check_malformed_field_is_a_config_error(tmp_path, capsys, index, key, value, message):
    cfg = json.loads(json.dumps(CHECK_CFG))
    cfg["checks"][index][key] = value
    assert run_cli("check", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not (tmp_path / "reports.json").exists()


E2_RUN = dict(BASE_RUN, space={"kind": "euclidean", "dim": 2}, start=[8.0, 1.0],
              reference=[0.0, 0.0])
MANN_E2_RUN = dict(E2_RUN, scheme="mann", schedules={"alpha": {"kind": "constant", "value": 0.5}})
E1_CHECK = {"space": {"kind": "euclidean", "dim": 1},
            "checks": [{"name": "space_axioms", "samples": 10}]}
SPIDER = {"kind": "spider", "legs": 3}
SHAPE_SWEEP = {"base": BASE_RUN, "grid": {"max_iterations": [10, 20]}}
H2_MANN_RUN = dict(MANN_E2_RUN, space={"kind": "hyperboloid", "dim": 2},
                   start={"spatial": [0.5, 0.0]}, reference={"spatial": [0.0, 0.0]})


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
                 "'angle' in operator 'rotation' must be a finite number, got 'x'",
                 id="non-numeric-angle"),
    pytest.param("run", _with(MANN_E2_RUN, "source",
                              {"operator": {"name": "rotation", "angle": math.nan}}),
                 "'angle' in operator 'rotation' must be a finite number, got nan", id="nan-angle"),
    pytest.param("run", _with(MANN_E2_RUN, "source",
                              {"operator": {"name": "rotation", "angle": 10 ** 400}}),
                 "'angle' in operator 'rotation' must be a finite number, got 1000",
                 id="angle-beyond-the-float-range"),
    pytest.param("run", _with(MANN_E2_RUN, "source",
                              {"operator": {"name": "scaled_reflection", "factor": "x"}}),
                 "'factor' in operator 'scaled_reflection' must be a finite number, got 'x'",
                 id="non-numeric-factor"),
    pytest.param("run", _with(dict(E2_RUN, scheme="ppa_equilibrium"), "source",
                              {"bifunction": {"name": "rotation_vi", "radius": "x"}}),
                 "'radius' in bifunction 'rotation_vi' must be a finite number, got 'x'",
                 id="non-numeric-radius"),
    pytest.param("run", _with(H2_MANN_RUN, "source", {"operator": {
        "name": "hyperbolic_projection", "set": {"kind": "whole_space"}}}),
                 "hyperbolic_projection supports balls and segments",
                 id="hyperbolic-projection-on-whole-space"),
    pytest.param("run", _with(H2_MANN_RUN, "source",
                              {"operator": {"name": "scaled_reflection", "factor": 0.5}}),
                 "scaled_reflection is Euclidean only", id="scaled-reflection-on-h2"),
    # schedules against their roles' hypotheses
    pytest.param("run", dict(BASE_RUN, scheme="halpern_ppa", anchor=[0.0], schedules={
        "anchor": {"kind": "constant", "value": 0.1},
        "lambda": {"kind": "constant", "value": 1.0}}),
                 "anchor weights must tend to 0 with a divergent sum; a constant "
                 "schedule violates the limit requirement", id="constant-anchor-weights"),
    pytest.param("run", _with(dict(MANN_E2_RUN, scheme="ishikawa", source={
        "operator": {"name": "rotation", "angle": 1.0}}), "schedules.beta",
                              {"kind": "constant", "value": 0.5}),
                 "inner Ishikawa weights must tend to 0; a nonzero constant never vanishes",
                 id="nonzero-constant-beta"),
    # geometry shapes
    pytest.param("run", _with(BASE_RUN, "space", 3),
                 "'space' in run config must be an object, got 3",
                 id="space-3"),
    pytest.param("run", _with(BASE_RUN, "source.objective", {"name": "dist2_to_set", "set": 5}),
                 "'set' in objective 'dist2_to_set' must be an object, got 5", id="set-5"),
    pytest.param("run", _with(BASE_RUN, "source.objective",
                              {"name": "dist2_to_set", "set": {"kind": "ball", "center": [0.0]}}),
                 "missing key 'radius' in set of kind 'ball'", id="ball-without-radius"),
    pytest.param("run", _with(BASE_RUN, "source.objective",
                              {"name": "dist2_to_set",
                               "set": {"kind": "halfspace", "offset": 0.0}}),
                 "missing key 'normal' in set of kind 'halfspace'", id="halfspace-without-normal"),
    pytest.param("run", _with(BASE_RUN, "source.objective", {
        "name": "dist2_to_set", "set": {"kind": "ball", "center": [0.0], "radius": "abc"}}),
                 "'radius' in set of kind 'ball' must be a finite number, got 'abc'",
                 id="non-numeric-ball-radius"),
    pytest.param("run", _with(BASE_RUN, "start", "ab"),
                 "'start' in run config must be a nonempty list, got 'ab'",
                 id="string-start"),
    pytest.param("run", _with(BASE_RUN, "source.objective", {"name": "quadratic", "center": "zz"}),
                 "'center' in objective 'quadratic' must be a nonempty list, got 'zz'",
                 id="string-center"),
    pytest.param("run", _with(_with(BASE_RUN, "space", SPIDER), "start", [1, 1, 1]),
                 "a spider point is", id="spider-point-of-three"),
    # run, check and sweep shapes
    pytest.param("run", _with(BASE_RUN, "schedules", [1]), "schedules must be an object",
                 id="schedules-list"),
    pytest.param("run", dict(BASE_RUN, outputs=5), "outputs must be an object", id="run-outputs-5"),
    pytest.param("run", dict(BASE_RUN, outputs={"trace": 5}),
                 "'trace' in outputs must be a nonempty string, got 5", id="run-output-name-5"),
    pytest.param("check", dict(E1_CHECK, checks=5),
                 "'checks' in check config must be a nonempty list, got 5",
                 id="checks-5"),
    pytest.param("check", dict(E1_CHECK, checks=[{"name": "space_axioms"}, 5]),
                 "'checks[1]' in check config must be an object, got 5", id="check-5"),
    pytest.param("check", dict(CHECK_CFG, checks=[
        {"name": "sqn_inequality", "variant": "ishikawa", "alpha": 0.5}]),
                 "missing key 'operator' in check 'sqn_inequality' of variant 'ishikawa'",
                 id="sqn-without-operator"),
    pytest.param("check", dict(E1_CHECK, checks=[
        {"name": "halpern_target", "run": BASE_RUN, "fixed_set": {"kind": "whole_space"},
         "tolerance": 1e-3}]),
                 "check 'halpern_target' needs an embedded run with an 'anchor'",
                 id="halpern-target-without-anchor"),
    pytest.param("check", dict(E1_CHECK, checks=[
        {"name": "fejer", "run": E2_RUN, "witness": [0.0]}]),
                 "embedded run uses a different space than the check config",
                 id="embedded-run-on-another-space"),
    pytest.param("check", dict(E1_CHECK, outputs=5), "outputs must be an object",
                 id="check-outputs-5"),
    pytest.param("check", dict(E1_CHECK, outputs={"reports": 5}),
                 "'reports' in outputs must be a nonempty string, got 5", id="check-output-name-5"),
    # a spider draws its radii with the sampling scale: a negative one is
    # refused before any draw, not left to numpy's generator
    pytest.param("check", {"space": SPIDER, "checks": [
        {"name": "space_axioms", "samples": 10, "scale": -1.0}]},
                 "scale must be finite and >= 0, got -1.0", id="spider-negative-scale"),
    # a hyperboloid draw past the radius bound is refused, not left to
    # overflow into NaN rows that would read as a FAIL
    pytest.param("check", {"space": {"kind": "hyperboloid", "dim": 2}, "checks": [
        {"name": "space_axioms", "samples": 2000, "scale": 1000.0}]},
                 "beyond distance 100 of the apex", id="hyperboloid-draws-past-the-radius"),
    pytest.param("sweep", dict(SHAPE_SWEEP, output=5),
                 "'output' in sweep config must be a nonempty string, got 5",
                 id="sweep-output-5"),
    pytest.param("sweep", dict(SHAPE_SWEEP, grid={"max_iterations": 1.0}),
                 "'max_iterations' in 'grid' in sweep config must be a nonempty list, got 1.0",
                 id="grid-value-1.0"),
    pytest.param("sweep", dict(SHAPE_SWEEP, grid={"max_iterations": []}),
                 "'max_iterations' in 'grid' in sweep config must be a nonempty list, got []",
                 id="grid-empty-list"),
    pytest.param("run", _with(_with(_with(BASE_RUN, "space", SPIDER), "start",
                                    {"leg": 1.7, "radius": 2.0}), "reference", {"leg": 0, "radius": 0.0}),
                 "'leg' in 'start' in run config must be an integer >= 0, got 1.7",
                 id="spider-leg-1.7"),
    pytest.param("check", dict(CHECK_CFG, checks=[
        {"name": "sqn_inequality", "operator": {"name": "rotation", "angle": 1.0}}]),
                 "missing key 'variant' in check 'sqn_inequality'", id="sqn-without-variant"),
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


@pytest.mark.parametrize("second, message", [
    pytest.param({"name": "sqn_inequality", "variant": "lipschitz_resolvent",
                  "operator": {"name": "rotation", "angle": 1.0}, "lambda": -1.0},
                 "resolvent parameter lam=-1.0 must exceed 0.0", id="lipschitz-resolvent-lam"),
    pytest.param({"name": "sqn_inequality", "variant": "equilibrium_resolvent",
                  "bifunction": {"name": "rotation_vi"}, "lambda": 0.0},
                 "lam=0.0 must exceed the under-monotonicity modulus", id="equilibrium-lam"),
    pytest.param({"name": "quasi_firm", "objective": {"name": "plateau_quartic"}, "lambda": 0.5},
                 "lam=0.5 must be below 1/(2 alpha) = 0.0625", id="quasi-firm-lam"),
    pytest.param({"name": "nested_fixed_sets", "objective": {"name": "quadratic"},
                  "lambda": 1.0, "mu": 2.0, "candidates": [[0.0, 0.0]]},
                 "need 0 < mu < lam, got mu=2.0, lam=1.0", id="nested-mu-above-lam"),
    pytest.param({"name": "nested_fixed_sets", "objective": {"name": "plateau_quartic"},
                  "lambda": 0.5, "mu": 0.01, "candidates": [[2.0]]},
                 "lam=0.5 must be below 1/(2 alpha)", id="nested-lam-outside-window"),
    pytest.param({"name": "sqn_inequality", "variant": "ishikawa",
                  "operator": {"name": "rotation", "angle": 1.0}, "scale": -1.0},
                 "scale must be finite and >= 0, got -1.0", id="sqn-scale"),
    pytest.param({"name": "space_axioms", "scale": -1.0},
                 "scale must be finite and >= 0, got -1.0", id="axioms-scale"),
])
def test_every_check_is_validated_before_the_first_runs(tmp_path, monkeypatch, capsys, second,
                                                        message):
    # each check's rules hold at parse, so the first check never runs
    ran = []
    monkeypatch.setattr(cli, "check_space_axioms", lambda *a, **k: ran.append(a))
    dim = 1 if "plateau_quartic" in json.dumps(second) else 2
    cfg = dict(CHECK_CFG, space={"kind": "euclidean", "dim": dim},
               checks=[CHECK_CFG["checks"][0], second])
    assert run_cli("check", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err and "Traceback" not in err
    assert ran == []
    assert not (tmp_path / "o").exists()


# a minimization over a ball of H2: constrained minimization is solved in
# Euclidean spaces only
H2_CONSTRAINED_MIN = {
    "space": {"kind": "hyperboloid", "dim": 2},
    "scheme": "ppa_equilibrium",
    "source": {"bifunction": {"name": "min_quadratic", "set": {
        "kind": "ball", "center": {"spatial": [0.0, 0.0]}, "radius": 1.0}}},
    "schedules": {"lambda": {"kind": "constant", "value": 1.0}},
    "start": {"spatial": [0.5, 0.2]},
    "max_iterations": 10,
}


@pytest.mark.parametrize("command, cfg", [
    ("run", H2_CONSTRAINED_MIN),
    ("sweep", {"base": H2_CONSTRAINED_MIN, "grid": {"schedules.lambda.value": [1.0, 2.0]}}),
])
def test_an_unsupported_resolvent_is_a_config_error(tmp_path, monkeypatch, capsys, command, cfg):
    # at the parent the run ended as a solver error at step 1 (exit 3), and
    # the sweep wrote two solver_error rows and exited 0
    monkeypatch.setattr(cli.BuiltScheme, "run", _no_work)
    assert run_cli(command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "constrained minimization bifunctions are solved in Euclidean spaces only" in err
    assert not (tmp_path / "o").exists()
    assert multiprocessing.active_children() == []


def test_check_whose_checker_raises_a_solver_error_exits_3(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise SolverError("injected inner failure")

    monkeypatch.setattr(cli, "check_space_axioms", fail)
    assert run_cli("check", "--config", write_cfg(tmp_path, CHECK_CFG),
                   "--out", str(tmp_path / "o")) == 3
    assert capsys.readouterr().err == "error: injected inner failure\n"
    assert not (tmp_path / "o" / "reports.json").exists()


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


def test_check_max_iters_caps_embedded_runs(tmp_path):
    run_desc = dict(E2_RUN, source={"objective": {"name": "dist2_to_set", "set": {
        "kind": "segment", "a": [0.0, 0.0], "b": [1.0, 0.0]}}}, start=[2.0, 1.5],
        max_iterations=5000, tolerance=1e-300)
    del run_desc["reference"]
    cfg = write_cfg(tmp_path, {"space": E2_RUN["space"], "checks": [
        {"name": "fejer", "run": run_desc, "witness": [0.5, 0.0]}]})
    samples = []
    for flags in ([], ["--max-iters", "3"]):
        assert run_cli("check", "--config", cfg, "--out", str(tmp_path / "o"), *flags) == 0
        bundle = json.loads((tmp_path / "o" / "reports.json").read_text())
        samples.append(bundle["reports"][0]["samples_tested"])
    assert samples[1] == 3 < samples[0]  # three steps, one Fejer comparison each


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
    # a sweep cell records no trace, so its row must be the run summary of
    # its cell, as written: a converged cell and a budget-bound one, each with
    # anchor and reference, at the default stride and at a stride the base
    # sets, with and without a --max-iters override past the dense trace
    base = dict(BASE_RUN, scheme="halpern_ppa", anchor=[5.0], max_iterations=1500,
                trace_stride=None)
    base["schedules"] = {"anchor": {"kind": "power"},
                         "lambda": {"kind": "constant", "value": 1.0}}
    grid = {"tolerance": [1e-4, 0.0], "trace_stride": [None, 7]}
    cells = list(itertools.product(*grid.values()))
    sweep_cfg = write_cfg(tmp_path, {"base": base, "grid": grid}, "s.json")
    for extra in ([], ["--max-iters", "1100"]):
        out = tmp_path / f"s{len(extra)}"
        assert run_cli("sweep", "--config", sweep_cfg, "--out", str(out), *extra) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == len(cells)
        reasons = set()
        for row, (tol, stride) in zip(rows, cells):
            cell = dict(base, tolerance=tol, trace_stride=stride)
            code = run_cli("run", "--config", write_cfg(tmp_path, cell, "r.json"),
                           "--out", str(tmp_path / "r"), *extra)
            summary = json.loads((tmp_path / "r" / "summary.json").read_text())
            assert summary["target_distance"] is not None
            assert row.split(",")[2:] == [
                str(summary["iterations"]), summary["stop_reason"],
                cli._fmt(summary["final_residual"]), cli._fmt(summary["target_distance"])]
            reasons.add((summary["stop_reason"], code))
        assert reasons == {("converged", 0), ("budget_exhausted", 2)}


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
    _cpus(monkeypatch, {0})
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


@pytest.mark.parametrize("path", ["schedules.mu.value", "schedules.lambda.step", "mu",
                                  "start.spatial", "schedules.lambda.value.x"])
def test_sweep_bad_grid_path(tmp_path, capsys, path):
    # a missing key at any depth, or a path that runs through a non-object
    cfg = {"base": dict(BASE_RUN), "grid": {path: [1.0]}}
    assert run_cli("sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == \
        f"config error: grid path {path!r} does not exist in the base config\n"


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


def _cpus(monkeypatch, affinity, cpu_count=None):
    """Give the sweep ``affinity`` as its CPU affinity mask, or, for None, a
    platform without the affinity call whose CPU count is ``cpu_count``."""
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity), raising=False)


def _pool_sizes(monkeypatch):
    """The size of every process pool the sweep makes, in order."""
    sizes = []

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    return sizes


@pytest.mark.parametrize("affinity, cpu_count, cells, workers", [
    pytest.param({0}, None, 3, 1, id="taskset-one-cpu"),
    pytest.param({0, 1, 2}, None, 2, 2, id="fewer-cells-than-cpus"),
    pytest.param({1, 3, 5}, None, 5, 3, id="fewer-cpus-than-cells"),
    pytest.param(set(range(16)), None, 10, 8, id="capped-at-8"),
    pytest.param(None, 3, 5, 3, id="no-affinity-call"),
    pytest.param(None, None, 3, 1, id="no-affinity-call-and-no-cpu-count"),
])
def test_sweep_pool_size(tmp_path, monkeypatch, affinity, cpu_count, cells, workers):
    # max(1, min(8, cpus, cells)), cpus from the affinity mask where the
    # platform has one and from the CPU count where it has not
    _cpus(monkeypatch, affinity, cpu_count)
    sizes = _pool_sizes(monkeypatch)
    grid = {"schedules.lambda.value": [1.0 + i for i in range(cells)]}
    cfg = write_cfg(tmp_path, dict(SWEEP_CFG, grid=grid))
    assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o")) == 0
    assert sizes == [workers]
    assert len((tmp_path / "o" / "sweep.csv").read_text().splitlines()) == 1 + cells
    assert multiprocessing.active_children() == []


def test_sweep_has_no_worker_count_variable(tmp_path, monkeypatch):
    # the pool size once came from an environment variable, and a value that
    # was not a positive integer made the sweep exit 1; now nothing reads it
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "plain")) == 0
    monkeypatch.setenv("_".join(["HADAMARD", "ITER", "THREADS"]), "abc")
    assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o")) == 0
    assert ((tmp_path / "o" / "sweep.csv").read_bytes()
            == (tmp_path / "plain" / "sweep.csv").read_bytes())


def test_sweep_csv_identical_with_one_and_two_workers(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    sizes = _pool_sizes(monkeypatch)
    for n in (1, 2):
        _cpus(monkeypatch, range(n))
        assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / str(n))) == 0
        assert multiprocessing.active_children() == []
    assert sizes == [1, 2]
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
    _cpus(monkeypatch, {0, 1})
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


def test_sweep_whose_runs_end_as_solver_errors_exits_3(tmp_path):
    # the expanding quadratic's runs raise nothing: the engine ends each on a
    # non-finite residual, and those rows fail the sweep as a raising cell does
    base = dict(BASE_RUN, space={"kind": "euclidean", "dim": 2}, start=[8.0, 1.0],
                reference=[0.0, 0.0], source={"objective": {"name": "expanding_quadratic"}},
                tolerance=1e-12)
    cfg = write_cfg(tmp_path, {"base": base, "grid": {"max_iterations": [5000, 10000]}})
    assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o")) == 3
    assert multiprocessing.active_children() == []
    with open(tmp_path / "o" / "sweep.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert [(r[0], r[2], r[3]) for r in rows] == [("5000", "solver_error", "inf"),
                                                  ("10000", "solver_error", "inf")]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_dead_worker_gets_error_row(tmp_path, monkeypatch, capsys, workers):
    # the dying cell sits in the middle, so cells after it (and, with two
    # workers, the one running beside it) are in the pool when it breaks
    _cpus(monkeypatch, range(workers))
    grid = {"schedules.lambda.value": [0.1, 1.0, 10.0, 3.0]}
    cfg = write_cfg(tmp_path, dict(SWEEP_CFG, grid=grid))
    assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "ok")) == 0
    capsys.readouterr()
    _fail_at_lambda(monkeypatch, 1.0, lambda: os._exit(1))
    assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o")) == 3
    assert multiprocessing.active_children() == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "cell 2 (schedules.lambda.value=1)" in err[0]
    assert "BrokenProcessPool" in err[0]
    want = (tmp_path / "ok" / "sweep.csv").read_text().splitlines()
    got = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    assert got[2] == "1,,solver_error,,"
    assert got[:2] + got[3:] == want[:2] + want[3:]


# ---------------------------------------------------------------------------
# one exit-code rule for every command
# ---------------------------------------------------------------------------

def _raise_solver_error(self, cfg):
    raise SolverError("injected solver failure")


def _kill_worker(self, cfg):
    os._exit(1)


# outcome -> (changes to BASE_RUN, a replacement of BuiltScheme.run or None)
OUTCOMES = {
    "converged": ({}, None),
    "budget": ({"max_iterations": 3, "tolerance": 1e-15}, None),
    "engine solver_error": ({"source": {"objective": {"name": "expanding_quadratic"}},
                             "max_iterations": 10000, "tolerance": 1e-12}, None),
    "raised SolverError": ({}, _raise_solver_error),
    "dead worker": ({}, _kill_worker),
}
# (command, outcome) -> exit code (for check: with a passing and with a failing
# Fejer witness), and the files the command writes
EXIT_TABLE = {
    ("run", "converged"): (0, {"trace.csv", "summary.json"}),
    ("run", "budget"): (2, {"trace.csv", "summary.json"}),
    ("run", "engine solver_error"): (3, {"trace.csv", "summary.json"}),
    ("run", "raised SolverError"): (3, set()),
    ("sweep", "converged"): (0, {"sweep.csv"}),
    ("sweep", "budget"): (0, {"sweep.csv"}),
    ("sweep", "engine solver_error"): (3, {"sweep.csv"}),
    ("sweep", "raised SolverError"): (3, {"sweep.csv"}),
    ("sweep", "dead worker"): (3, {"sweep.csv"}),
    ("check", "converged"): ((0, 4), {"reports.json"}),
    ("check", "budget"): ((0, 4), {"reports.json"}),
    ("check", "engine solver_error"): ((3, 3), {"reports.json"}),
    ("check", "raised SolverError"): ((3, 3), set()),
}
STOP_REASONS = {"converged": "converged", "budget": "budget_exhausted"}


@pytest.mark.parametrize("command, outcome", EXIT_TABLE, ids=[" ".join(k) for k in EXIT_TABLE])
def test_one_exit_code_rule_for_every_command(tmp_path, monkeypatch, capsys, command, outcome):
    changes, run = OUTCOMES[outcome]
    if run is not None:
        monkeypatch.setattr(schemes.BuiltScheme, "run", run)  # forked sweep workers inherit it
    run_cfg = dict(BASE_RUN, **changes)
    codes, files = EXIT_TABLE[command, outcome]
    if command == "check":
        witnesses = {0.0: codes[0], 5.0: codes[1]}  # 5 lies between x_1 = 8 and x_3 = 2
        for i, (witness, code) in enumerate(witnesses.items()):
            cfg = {"space": run_cfg["space"],
                   "checks": [{"name": "fejer", "run": run_cfg, "witness": [witness]}]}
            out = tmp_path / f"o{i}"
            assert run_cli("check", "--config", write_cfg(tmp_path, cfg), "--out", str(out)) == code
            assert {f.name for f in out.glob("*")} == files
            if files:
                (entry,) = json.loads((out / "reports.json").read_text())["reports"]
                stop = STOP_REASONS.get(outcome, "solver_error")
                assert (entry["stop_reason"], entry["passed"]) == (stop, code == 0)
                assert (entry["error_step"] is None) == (stop != "solver_error")
        return
    cfg = run_cfg if command == "run" else {"base": run_cfg, "grid": {"seed": [1, 2]}}
    out = tmp_path / "o"
    assert run_cli(command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)) == codes
    assert {f.name for f in out.glob("*")} == files
    if command == "sweep":
        with open(out / "sweep.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert [r[2] for r in rows] == [STOP_REASONS.get(outcome, "solver_error")] * 2
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("objective, lam, error_step", [
    # the prox recheck refuses the closed form at step 1: the trace is empty
    ({"name": "quadratic", "center": [1.0, 0.0]}, 1e-12, 1),
    # the expanding quadratic's residual goes non-finite
    ({"name": "expanding_quadratic"}, 1.0, 869),
], ids=["recheck-at-step-1", "expanding"])
def test_a_check_on_a_failed_embedded_run_is_a_solver_error(tmp_path, capsys, objective, lam,
                                                            error_step):
    run_desc = dict(E2_RUN, start=[8.0, -3.0], source={"objective": objective},
                    schedules={"lambda": {"kind": "constant", "value": lam}},
                    max_iterations=5000, tolerance=1e-12)
    cfg = {"space": E2_RUN["space"], "checks": [
        {"name": "fejer", "run": run_desc, "witness": [1.0, 0.0]},
        {"name": "space_axioms", "samples": 10}]}
    assert run_cli("check", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")) == 3
    bundle = json.loads((tmp_path / "o" / "reports.json").read_text())
    fejer, axioms = bundle["reports"]
    assert not bundle["all_passed"] and axioms["passed"] and "stop_reason" not in axioms
    assert fejer == {"check_name": "fejer", "samples_tested": 0, "violations": [],
                     "max_violation": 0.0, "passed": False, "stop_reason": "solver_error",
                     "iterations": error_step - 1, "error_step": error_step}
    assert "FAIL fejer: samples=0" in capsys.readouterr().out


def test_every_exit_code_but_a_config_error_comes_from_one_function():
    source = Path(cli.__file__).read_text()
    assert not hasattr(cli, "_stop_exit_code")
    for name in ("EXIT_OK", "EXIT_BUDGET", "EXIT_SOLVER", "EXIT_CHECK_FAILED"):
        assert source.count(name) == 2, name  # its definition, and its use in _exit_code


# ---------------------------------------------------------------------------
# the reader's tables: the README lists them, and a fuzzer mutates configs
# along them
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def _table_entries():
    """(object, entry) -> (the callable an object is read by, the number of
    leading parameters its caller supplies), for every config object."""
    rows = {("run config", ""): (cli._run, 1), ("check config", ""): (cli._check_config, 1),
            ("sweep config", ""): (cli._sweep, 1), ("run outputs", ""): (cli._run_outputs, 0),
            ("check outputs", ""): (cli._check_outputs, 0), ("schedules", ""): (cli._schedules, 0)}
    rows.update({("space", k): (cls, 0) for k, cls in config._SPACES.items()})
    rows.update({("point", cls.__name__.lower()): (f, 1)
                 for cls, f in config._POINT_OBJECTS.items()})
    # a whole space and a halfspace take the space's id first
    rows.update({("set", k): (cls, int(cls in (WholeSpace, Halfspace)))
                 for k, cls in config._SETS.items()})
    for role, kinds in cli._SCHEDULE_KINDS.items():
        rows.update({(f"schedule {role}", k): (f, 0) for k, f in kinds.items()})
    for kind, catalogue in (("operator", cli._OPERATORS), ("objective", cli._OBJECTIVES),
                            ("bifunction", cli._BIFUNCTIONS)):
        rows.update({(kind, k): (f, 1) for k, f in catalogue.items()})
    for name, entry in cli._CHECKS.items():
        variants = entry.items() if isinstance(entry, dict) else [(name, entry)]
        obj = f"check {name}" if isinstance(entry, dict) else "check"
        rows.update({(obj, k): (f, 2) for k, f in variants})
    return rows


def _readme_rows():
    lines = README.read_text().splitlines()
    start = lines.index("| object | entry | keys |") + 2
    rows = {}
    for line in itertools.takewhile(lambda ln: ln.startswith("|"), lines[start:]):
        obj, entry, keys = (c.strip() for c in line.strip("|").split("|"))
        keys = [] if keys == "(none)" else [k.strip() for k in keys.split(",")]
        rows[(obj, entry.strip("`"))] = keys
    return rows


def test_readme_lists_the_keys_of_every_table_entry():
    readme, entries = _readme_rows(), _table_entries()
    assert sorted(readme) == sorted(entries)
    for row, (fn, skip) in entries.items():
        listed = [f"**{key}**" if required else key
                  for key, _, required, *_ in config.params(fn, skip)]
        assert readme[row] == listed, row


def test_readme_config_example_parses():
    (example,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    built, run_cfg, _ = cli.parse_run_config(json.loads(example))
    assert built.name == "halpern_ppa" and run_cfg.seed == 7


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(block, {})


E2S, H2S, SPIDER3 = {"kind": "euclidean", "dim": 2}, {"kind": "hyperboloid", "dim": 2}, SPIDER
SEGMENT = {"kind": "segment", "a": [0.0, 0.0], "b": [1.0, 0.0]}
LAM = {"lambda": {"kind": "constant", "value": 1.0}}
FEJER_RUN = dict(E2_RUN, source={"objective": {"name": "dist2_to_set", "set": SEGMENT}},
                 reference=[1.0, 0.0])
HALPERN_RUN = dict(FEJER_RUN, scheme="halpern_ppa", anchor=[0.3, 2.0],
                   schedules={"anchor": {"kind": "power"}, **LAM})

# valid configs that together read every entry of every table
VALID = {
    "run": [
        BASE_RUN,
        dict(HALPERN_RUN, trace_stride=2, outputs={"trace": "t.csv", "summary": "s.json"},
             schedules={"anchor": {"kind": "power", "scale": 1.0, "offset": 1.0, "power": 1.0},
                        "lambda": {"kind": "power_floor", "floor": 0.5, "scale": 1.0,
                                   "power": 1.0}}),
        dict(MANN_E2_RUN, source={"operator": {"name": "rotation", "angle": 1.0}}),
        dict(E2_RUN, scheme="ishikawa",
             source={"operator": {"name": "scaled_reflection", "factor": 0.5}},
             schedules={"alpha": {"kind": "power", "scale": 0.5, "offset": 1.0, "power": 1.0},
                        "beta": {"kind": "inverse_k", "scale": 1.0, "power": 1.0}}),
        dict(E2_RUN, scheme="halpern_ishikawa", anchor=[2.0, 1.0],
             source={"operator": {"name": "projection", "set": {
                 "kind": "halfspace", "normal": [1.0, 0.0], "offset": 0.5}}},
             schedules={"anchor": {"kind": "power"}, "alpha": {"kind": "constant", "value": 0.5},
                        "beta": {"kind": "constant", "value": 0.0}}),
        dict(E2_RUN, scheme="ppa_lipschitz",
             source={"operator": {"name": "constant", "point": [0.5, 0.5]}}),
        {"space": H2S, "scheme": "halpern_mann",
         "source": {"operator": {"name": "hyperbolic_projection", "set": {
             "kind": "ball", "center": {"spatial": [0.3, 0.2]}, "radius": 0.4}}},
         "schedules": {"anchor": {"kind": "power"}, "alpha": {"kind": "constant", "value": 0.5}},
         "start": {"spatial": [-0.5, 1.0]}, "anchor": [1.0, 0.0, 0.0], "max_iterations": 10},
        dict(E2_RUN, scheme="ppa_equilibrium",
             source={"bifunction": {"name": "rotation_vi", "radius": 1.0}}, start=[0.5, 0.2]),
        dict(E2_RUN, scheme="halpern_ppa_equilibrium", anchor=[0.0, 1.0],
             source={"bifunction": {"name": "min_quadratic", "center": [1.0, 0.0],
                                    "set": {"kind": "whole_space"}}},
             schedules={"anchor": {"kind": "power"}, **LAM}),
        {"space": SPIDER3, "scheme": "ppa", "schedules": LAM,
         "source": {"objective": {"name": "quadratic", "center": {"leg": 1, "radius": 2.0}}},
         "start": {"leg": 2, "radius": 1.0}, "reference": [1, 2.0]},
        dict(BASE_RUN, source={"objective": {"name": "plateau_quartic"}},
             schedules={"lambda": {"kind": "constant", "value": 0.01}}),
        dict(BASE_RUN, source={"objective": {"name": "expanding_quadratic", "center": [0.0]}}),
    ],
    "check": [
        dict(CHECK_CFG, outputs={"reports": "r.json"}),
        {"space": E2S, "checks": [
            {"name": "sqn_inequality", "variant": "lipschitz_resolvent",
             "operator": {"name": "rotation", "angle": 1.0}, "lambda": 1.0,
             "witness": [0.0, 0.0], "samples": 5, "scale": 1.0},
            {"name": "sqn_inequality", "variant": "equilibrium_resolvent",
             "bifunction": {"name": "rotation_vi"}, "lambda": 1.0, "samples": 5},
            {"name": "quasi_firm", "objective": {"name": "quadratic"}, "lambda": 1.0,
             "witness": [0.0, 0.0]},
            # no witness: a point of the argmin set, as the resolvent operator declares
            {"name": "quasi_firm", "objective": {"name": "dist2_to_set", "set": SEGMENT},
             "lambda": 1.0, "samples": 5},
            {"name": "fejer", "run": FEJER_RUN, "witness": [0.5, 0.0]},
            {"name": "halpern_target", "run": HALPERN_RUN, "fixed_set": SEGMENT,
             "tolerance": 1e-3}]},
    ],
    "sweep": [
        SHAPE_SWEEP,
        {"base": dict(HALPERN_RUN, start={"spatial": [0.9, 0.0]}, anchor=[1.0, 0.0, 0.0],
                      reference=[1.0, 0.0, 0.0], space=H2S,
                      source={"objective": {"name": "quadratic"}}),
         "grid": {"start": [{"spatial": [0.9, 0.0]}], "schedules.lambda.value": [1.0, 2.0]},
         "output": "grid.csv"},
    ],
}
TOP = {"run": (cli._run, "run config"), "check": (cli._check_config, "check config"),
       "sweep": (cli._sweep, "sweep config")}


def _parse(command, cfg):
    entry, ctx = TOP[command]
    cli._parse(entry, cfg, ctx, {})
    if command == "sweep":  # the cells are copies; read the base itself too
        cli.parse_run_config(cfg["base"])


def _read_objects(command, cfg, monkeypatch):
    """Each object the reader reads in ``cfg``, by its path: the callable
    and leading-parameter count it is read by, its discriminator keys, and
    the tables it is picked from."""
    reads, picks = [], []
    read, pick = config.read, config.pick

    def recording_read(fn, desc, ctx, space=None, skip=0, known=()):
        reads.append((desc, fn, skip, known))
        return read(fn, desc, ctx, space, skip, known)

    def recording_pick(table, desc, key, ctx, noun, by="kind"):
        picks.append((desc, table, by))
        return pick(table, desc, key, ctx, noun, by)

    with monkeypatch.context() as m:
        for module in (config, cli):
            m.setattr(module, "read", recording_read)
            m.setattr(module, "pick", recording_pick)
        _parse(command, cfg)
    paths = {}

    def walk(node, path):
        if isinstance(node, dict):
            paths[id(node)] = path
            for k, v in node.items():
                walk(v, (*path, k))
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, (*path, i))

    walk(cfg, ())
    objects = {}
    for desc, fn, skip, known in reads:
        if id(desc) in paths:  # not a sweep cell's copy
            objects.setdefault(paths[id(desc)], {"tables": []}).update(
                fn=fn, skip=skip, known=known)
    for desc, table, by in picks:
        if id(desc) in paths:
            objects.setdefault(paths[id(desc)], {"tables": []})["tables"].append((table, by))
    return objects


def _bad_values(annotation, value):
    """Values of the wrong type for a parameter annotated ``annotation``."""
    annotation = annotation.removesuffix(" | None")
    if annotation == "float":
        return ["1.0", True, [1.0], math.nan, -math.inf]
    if annotation == "int":
        return [2.5, "2", True, -1]
    if annotation == "str":
        return [[value], True, 5]
    if annotation == "Any":
        return []
    if annotation.startswith(("list[", "dict[str, ")):
        inner = annotation[annotation.index("[") + 1:-1].removeprefix("str, ")
        first = 0 if isinstance(value, list) else next(iter(value))
        nested = []
        for bad in _bad_values(inner, value[first]):
            nested.append(json.loads(json.dumps(value)))
            nested[-1][first] = bad
        return [type(value)(), 5, *nested]
    if annotation == "SpacePoint":
        return ["ab", True, ["1", "2"], []]
    return [5, "x", True, []]  # an object


def _entry_keys(entry, skip):
    entries = entry.values() if isinstance(entry, dict) else [entry]
    return {key for e in entries if not isinstance(e, functools.partial)
            for key, *_ in config.params(e, skip)}


def _mutations(command, cfg, monkeypatch):
    """(label, config) for every single mutation the reader's tables give
    ``cfg``: a dropped required key, an unknown key, a key of another entry
    of the same table, a value of the wrong type, or an object replaced by
    a non-object."""
    grid = [tuple(p.split(".")) for p in cfg.get("grid", {})] if command == "sweep" else []
    out = []

    def mutate(path, label, change, key=None):
        at = path if key is None else (*path, key)
        if any(at[1:len(p) + 1] == p for p in grid):
            return  # a grid value replaces it in every cell
        new = json.loads(json.dumps(cfg))
        *parents, last = path if path else (None,)
        node = new
        for k in parents:
            node = node[k]
        if path:
            node[last] = change(node[last])
        else:
            new = change(new)
        out.append((f"{command} {'.'.join(map(str, path))}: {label}", new))

    def without(key):
        return lambda d: {k: v for k, v in d.items() if k != key}

    for path, obj in _read_objects(command, json.loads(json.dumps(cfg)), monkeypatch).items():
        desc = functools.reduce(lambda node, k: node[k], path, cfg)
        fn, skip = obj.get("fn"), obj.get("skip", 0)
        table = config.params(fn, skip) if fn else ()
        names = [by for _, by in obj["tables"] if by] + list(obj.get("known", ()))
        accepted = {key for key, *_ in table} | set(names)
        for key in sorted(set(names) | {k for k, _, required, *_ in table if required}):
            mutate(path, f"drop {key!r}", without(key))
        mutate(path, "add an unknown key", lambda d: {**d, "zz_unknown": 1})
        for tbl, by in obj["tables"]:
            for key in sorted(set().union(*(_entry_keys(e, skip) for e in tbl.values()))
                              - accepted):
                mutate(path, f"add {key!r} of another entry", lambda d, k=key: {**d, k: 1.0})
            if by is None:  # the single key names the entry
                other = sorted(set(tbl) - set(desc))[0]
                mutate(path, f"add {other!r}", lambda d, k=other: {**d, k: {"name": "x"}})
        bad = [(key, annotation) for key, _, _, annotation, _ in table if key in desc]
        for key, annotation in bad + [(name, "name") for name in sorted(set(names) & set(desc))]:
            values = (_bad_values(annotation, desc[key]) if annotation != "name"
                      else [[desc[key]], True, 5, "zz_unknown"])
            for v in values:
                mutate(path, f"{key!r} = {v!r}", lambda d, k=key, v=v: {**d, k: v}, key)
        for v in (5, "x", [desc]):
            mutate(path, f"the object = {v!r}", lambda d, v=v: v)
    return out


@pytest.mark.parametrize("command, cfg", [(c, cfg) for c, cfgs in VALID.items() for cfg in cfgs])
def test_valid_configs_parse(command, cfg):
    _parse(command, json.loads(json.dumps(cfg)))


@pytest.mark.parametrize("cfg", VALID["check"])
def test_valid_check_configs_run(tmp_path, cfg):
    # every check runs to a report; a short embedded run may fail its check
    code = run_cli("check", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o"))
    assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)


def test_valid_configs_read_every_table_entry(monkeypatch):
    read = set()
    for command, cfgs in VALID.items():
        for cfg in cfgs:
            read |= {obj.get("fn") for obj in _read_objects(command, cfg, monkeypatch).values()}
    # a constant anchor schedule is always refused, so no valid config reads it
    assert {fn for fn, _ in _table_entries().values()} - read == {cli._anchor_constant}


@pytest.fixture(scope="module")
def mutated_configs():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return [m for c, cfgs in VALID.items() for cfg in cfgs
                for m in _mutations(c, cfg, monkeypatch)]


def test_fuzzer_mutates_along_every_finding(mutated_configs):
    labels = "\n".join(label for label, _ in mutated_configs)
    for wanted in ("'kind' = ['euclidean']", "'dim' = 2.5", "'tolerance' = True",
                   "'tolerance' = nan", "'angle' = -inf",
                   "'leg' = 2.5", "'grid' = {'max_iterations': []}",
                   "add 'alpha' of another entry"):
        assert wanted in labels


@given(data=st.data())
@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_configs_are_config_errors(mutated_configs, tmp_path, data):
    label, cfg = data.draw(st.sampled_from(mutated_configs))
    command = label.split()[0]
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "fuzz-out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", path, "--out", str(out)])
    assert code == 1, label
    assert err.getvalue().startswith("config error:"), (label, err.getvalue())
    assert not out.exists(), label
