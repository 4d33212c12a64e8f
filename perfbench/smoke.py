#!/usr/bin/env python3
"""Smoke check of the benchmark harness, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks that BENCHMARK.json keeps the benchmark's contract; that every
workload, run untraced, ends with the result line and reports every
end-to-end metric with its unit, correct and with no failed job; that the
traced run reports every per-layer metric with its unit, equals the
untraced output, and reads nonzero on each metric its workload exercises;
and that in a directory holding only BENCHMARK.json and perfbench/ the
benchmark exits nonzero without a result. Exits 1 on the first failure.
Steadiness across seeds is checked by steady.py, at full size.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE, SECONDS = 0.05, 1.0

COMMON = ["proc.cpu_s", "proc.cpu_util", "trace.spans"]
SOLVING = ["geometry.distance.calls", "geometry.tangent.calls", "geometry.self_s",
           "schemes.outer_iters", "schemes.trace_steps", "schemes.self_s", "schemes.us_per_iter",
           "operators.factory.calls", "operators.apply.calls", "operators.self_s",
           "resolvents.calls", "resolvents.us_per_call", "resolvents.self_s",
           "resolvents.recheck.calls", "fixtures.calls", "fixtures.self_s"]
# per-layer metrics that must read nonzero on each workload
EXERCISED = {
    "axioms": ["geometry.distance.calls", "geometry.combine.calls", "geometry.tangent.calls",
               "geometry.sample.calls", "geometry.self_s", "geometry.us_per_call",
               "diagnostics.samples", "diagnostics.checks", "diagnostics.self_s"],
    "quartic_ppa": SOLVING,
    "inner_solvers": SOLVING + [
        "geometry.combine.calls", "geometry.project.calls", "geometry.point.calls",
        "geometry.quasilin.calls", "resolvents.inner_steps", "resolvents.inner_steps_per_call",
        "resolvents.verify.evals", "resolvents.verify_s", "resolvents.verify.self_s",
        "resolvents.armijo.accept_ratio", "schedules.calls"],
    "cli_sweep": SOLVING + [
        "geometry.combine.calls", "geometry.project.calls", "schedules.calls",
        "cli.parse.calls", "cli.parse_s", "cli.write_s", "cli.self_s", "cli.sweep.cells",
        "cli.sweep.workers", "cli.sweep.parallel_eff"],
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class SmokeError(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SmokeError(what)


def check_benchmark_json(bench: dict) -> None:
    expect(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}, "BENCHMARK.json keys")
    expect(1 <= bench["run_seconds"] <= 60 and isinstance(bench["run_seconds"], int),
           "run_seconds")
    expect(2 <= len(bench["workloads"]) <= 8, "workload count")
    names = []
    for w in bench["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
               f"workload {w}")
        names.append(w["name"])
    expect(1 <= len(bench["end_to_end"]) <= 16 and 1 <= len(bench["per_layer"]) <= 128,
           "metric counts")
    for m in bench["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
               f"end-to-end metric {m}")
    for m in bench["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"per-layer metric {m}")
    for m in bench["end_to_end"] + bench["per_layer"]:
        names.append(m["name"])
        expect(NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
               and m["better"] in ("higher", "lower"), f"metric {m}")
    expect(len(names) == len(set(names)), "names are used once")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    expect(setup["unit"] == "s" and setup["better"] == "lower"
           and setup["bound"] == max(m["bound"] for m in bench["end_to_end"]), "setup_s")
    expect(set(EXERCISED) == {w["name"] for w in bench["workloads"]}, "workload names")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", str(SECONDS), "--trace", str(trace), "--scale", str(SCALE)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(done, workload: str, metrics: list[dict], trace: int) -> dict:
    expect(done.returncode == 0, f"{workload} trace {trace} exited {done.returncode}: "
                                 f"{done.stderr[-2000:]}")
    res = json.loads(done.stdout.strip().splitlines()[-1])
    expect(set(res) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    expect(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
           f"{workload} trace {trace}: correct {res['correct']}, failed {res['failed']} "
           f"of {res['attempted']}")
    got = res["metrics"]
    expect(list(got) == [m["name"] for m in metrics],
           f"{workload} trace {trace} reports {sorted(got)}")
    for m in metrics:
        v = got[m["name"]]
        expect(set(v) == {"value", "unit"} and v["unit"] == m["unit"]
               and isinstance(v["value"], float) and math.isfinite(v["value"]),
               f"{workload} {m['name']}: {v}")
        expect(f"  {m['name']} " in done.stdout, f"{m['name']} not printed by name")
    return got


def check_bare_directory(bench_text: str) -> None:
    """Only BENCHMARK.json and perfbench/: no src/, so no result."""
    (HERE / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare.", dir=HERE / "out"))
    try:
        (bare / "BENCHMARK.json").write_text(bench_text)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(
            "out", "__pycache__"))
        done = run(bare, "axioms", 0)
        expect(done.returncode != 0, "the bare directory run exited 0")
        expect(not any(line.startswith("{") for line in done.stdout.splitlines()),
               "the bare directory run printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench_text = (ROOT / "BENCHMARK.json").read_text()
    bench = json.loads(bench_text)
    try:
        check_benchmark_json(bench)
        print("BENCHMARK.json keeps the contract")
        for w in EXERCISED:
            check_result(run(ROOT, w, 0), w, bench["end_to_end"], 0)
            got = check_result(run(ROOT, w, 1), w, bench["per_layer"], 1)
            zero = [n for n in EXERCISED[w] + COMMON if got[n]["value"] <= 0.0]
            expect(not zero, f"{w}: exercised per-layer metrics read 0: {zero}")
            print(f"{w}: every end-to-end and per-layer metric reported; "
                  f"{len(EXERCISED[w] + COMMON)} exercised per-layer metrics nonzero")
        check_bare_directory(bench_text)
        print("without src/ the benchmark exits nonzero and prints no result")
    except SmokeError as err:
        print(f"SMOKE FAILED: {err}")
        return 1
    print("smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
