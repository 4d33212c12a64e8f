#!/usr/bin/env python3
"""Benchmark of hadamard_iter: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: axioms, quartic_ppa, inner_solvers, cli_sweep (see workloads.py
and BENCHMARK.json). The package is imported from ``src/`` of the checkout;
it need not be installed.

A run builds the workload from the seed, then repeats its fixed job list
(one "round") until S seconds have passed, checks every job against its
oracle and every round's output against the first round's, and prints
medians over the rounds. ``--trace 0`` reports the end-to-end metrics:
setup_s (median of several set-ups, each in a fresh interpreter: import of
hadamard_iter plus building the inputs), wall_s (one round), throughput
(work units per second of one round) and peak_rss_mb. ``--trace 1`` runs
the same untraced rounds, then installs the tracer (tracer.py), builds the
workload again and runs traced rounds; it reports the per-layer metrics,
requires every traced output to equal the untraced output byte for byte,
and writes the spans to perfbench/out/spans-<workload>.npz.

Round times are reported at a reference speed. The speed of the shared box
this benchmark was written on swings up to 2x for tens of seconds at a time
as other tenants load its cores, which moves a run's median by 20-30%. So
every round, untraced or traced, is bracketed by a fixed pure-Python loop
that uses none of hadamard_iter, and its measured time is multiplied by
REF_SECONDS over the loop's time around it: a time in seconds at the speed
at which the loop takes REF_SECONDS. The raw medians are printed too.
cli_sweep's cells run on a thread pool, so its loop runs on a pool of the
same size (``Reference``).
Each set-up is bracketed the same way, inside the interpreter that makes
it, so setup_s is the median of rescaled set-up times. The benchmark and
its set-up children run with OPENBLAS_NUM_THREADS=1 (see ``main``).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the run's context
and the metrics by name with their units. Without ``src/hadamard_iter`` the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 7  # set-ups per run; setup_s is their median
TRACED_ROUNDS = 2  # per-layer counts and times come from the last
# the reference loop's median time on the 2-vCPU Xeon box the benchmark was
# written on; times are reported as seconds at that speed
REF_SECONDS = 0.004

END_TO_END = {"setup_s": "s", "wall_s": "s", "throughput": "units/s", "peak_rss_mb": "MB"}

# name -> unit; BENCHMARK.json lists the same metrics with a direction each
PER_LAYER = {
    "geometry.distance.calls": "count",
    "geometry.combine.calls": "count",
    "geometry.project.calls": "count",
    "geometry.point.calls": "count",
    "geometry.tangent.calls": "count",
    "geometry.sample.calls": "count",
    "geometry.quasilin.calls": "count",
    "geometry.self_s": "s",
    "geometry.us_per_call": "us",
    "schemes.outer_iters": "count",
    "schemes.trace_steps": "count",
    "schemes.self_s": "s",
    "schemes.us_per_iter": "us",
    "operators.factory.calls": "count",
    "operators.apply.calls": "count",
    "operators.self_s": "s",
    "resolvents.calls": "count",
    "resolvents.us_per_call": "us",
    "resolvents.self_s": "s",
    "resolvents.recheck.calls": "count",
    "resolvents.inner_steps": "count",
    "resolvents.inner_steps_per_call": "1",
    "resolvents.verify.evals": "count",
    "resolvents.verify_s": "s",
    "resolvents.verify.self_s": "s",
    "resolvents.armijo.accept_ratio": "1",
    "resolvents.solver_errors": "count",
    "fixtures.calls": "count",
    "fixtures.self_s": "s",
    "schedules.calls": "count",
    "diagnostics.samples": "count",
    "diagnostics.checks": "count",
    "diagnostics.self_s": "s",
    "cli.parse.calls": "count",
    "cli.parse_s": "s",
    "cli.write_s": "s",
    "cli.self_s": "s",
    "cli.sweep.cells": "count",
    "cli.sweep.workers": "count",
    "cli.sweep.wait_s": "s",
    "cli.sweep.parallel_eff": "1",
    "proc.cpu_s": "s",
    "proc.cpu_util": "1",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _reference_loop() -> float:
    """A fixed pure-Python loop (float arithmetic, calls, a small dict)."""
    acc, d = 0.0, {}
    for i in range(20_000):
        x = i * 0.5
        acc += math.sqrt(x + 1.0) / (1.0 + x)
        d[i & 63] = acc
    return acc


class Reference:
    """Times the reference loop the way a round runs: on the calling thread,
    or, when the round runs on a pool of ``threads`` threads, two loops per
    thread at once on a pool of that size. Threads that share the
    interpreter lock slow down under host load more than one thread does."""

    def __init__(self, threads: int = 1):
        self.loops = 1 if threads == 1 else 2 * threads
        self.pool = ThreadPoolExecutor(threads) if threads > 1 else None

    def seconds(self) -> float:
        """Median of three timings, in seconds per loop."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            if self.pool is None:
                _reference_loop()
            else:
                list(self.pool.map(lambda _: _reference_loop(), range(self.loops)))
            times.append((time.perf_counter() - t0) / self.loops)
        return statistics.median(times)

    def timed(self, fn):
        """Run ``fn()`` between two reference timings; returns its result,
        its raw wall time and the factor that rescales that time to
        REF_SECONDS."""
        before = self.seconds()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        after = self.seconds()
        return result, wall, REF_SECONDS / (0.5 * (before + after))

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self.pool is not None:
            self.pool.shutdown()


def _setup(workload: str, seed: int, scale: float, workdir: Path):
    """Import hadamard_iter and build the workload's inputs, between two
    reference timings; returns the raw seconds this took, the reference
    factor, the package and the workload."""
    import workloads

    def build():
        hi = importlib.import_module("hadamard_iter")
        return hi, workloads.build(workload, hi, seed, scale, workdir)

    (hi, wl), elapsed, factor = Reference().timed(build)
    if Path(hi.__file__).resolve().parent != SRC / "hadamard_iter":
        raise RuntimeError(f"hadamard_iter was imported from {hi.__file__}, not from {SRC}")
    return elapsed, factor, hi, wl


def _setup_in_fresh_interpreter(args) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", str(args.scale)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return float(probe["setup_s"]), float(probe["factor"])


def _close(wl) -> None:
    close = getattr(wl, "close", None)
    if close is not None:
        close()


def _cpu_seconds() -> float:
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def _context() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "os_cpu_count": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _attempt(wl, errors: list[str]):
    """One round, or None if it raised: a job that raises is a failed job."""
    try:
        return wl.run_round()
    except Exception as err:
        errors.append(f"{type(err).__name__}: {err}")
        return None


def _oracles(wl, raw) -> list[tuple[str, bool, str]]:
    try:
        return wl.check(raw)
    except Exception as err:  # an output the oracle cannot read misses it
        return [("oracle", False, f"{type(err).__name__}: {err}")]


class Rounds:
    """Untraced rounds of one workload: raw wall and CPU times, reference
    factors, the first round's digest, oracle results and work units, and
    the rounds that raised or whose output differed from the first."""

    def __init__(self, wl, seconds: float, ref: Reference):
        self.walls, self.cpus, self.factors, self.errors = [], [], [], []
        self.first, self.checks, self.units, self.mismatched = None, None, 0, 0
        start = time.perf_counter()
        while not self.walls or time.perf_counter() - start < seconds:
            (raw, cpu), wall, factor = ref.timed(lambda: self._attempt(wl))
            self.cpus.append(cpu)
            self.walls.append(wall)
            self.factors.append(factor)
            if raw is None:
                continue
            digest = wl.digest(raw)
            if self.first is None:
                self.first, self.checks, self.units = digest, _oracles(wl, raw), wl.work(raw)
            elif digest != self.first:
                self.mismatched += 1

    def _attempt(self, wl):
        c0 = _cpu_seconds()
        raw = _attempt(wl, self.errors)
        return raw, _cpu_seconds() - c0

    def ref_walls(self) -> list[float]:
        return [w * f for w, f in zip(self.walls, self.factors)]


def measure(args, workdir: Path) -> tuple[dict, list[str]]:
    import workloads

    setup_main, factor_main, hi, wl = _setup(args.workload, args.seed, args.scale, workdir)
    with Reference(wl.threads) as ref:
        try:
            r = Rounds(wl, args.seconds, ref)
        finally:
            _close(wl)
        lines = []
        jobs = len(r.checks) if r.checks is not None else 1
        failing = sum(1 for _, ok, _ in r.checks if not ok) if r.checks is not None else jobs
        attempted = jobs * len(r.walls)
        failed = (failing * (len(r.walls) - len(r.errors) - r.mismatched)
                  + jobs * (len(r.errors) + r.mismatched))
        walls = r.ref_walls()
        wall = statistics.median(walls)
        for name, ok, detail in r.checks or []:
            lines.append(f"  job {'ok  ' if ok else 'FAIL'} {name}: {detail}")
        lines += [f"  error: {e}" for e in r.errors[:3]]
        if r.mismatched:
            lines.append(f"  {r.mismatched} rounds differ from the first round's output")
        p90 = statistics.quantiles(walls, n=10)[-1] if len(walls) > 1 else wall
        lines.append(f"  {len(walls)} rounds of {r.units} {wl.unit}; round time at reference speed: "
                     f"median {wall:.4f} s, p90 {p90:.4f} s; raw median "
                     f"{statistics.median(r.walls):.4f} s; reference factor median "
                     f"{statistics.median(r.factors):.3f}")

        if not args.trace:
            setups = [(setup_main, factor_main)] + [_setup_in_fresh_interpreter(args)
                                                    for _ in range(SETUP_RUNS - 1)]
            metrics = {
                "setup_s": statistics.median(s * f for s, f in setups),
                "wall_s": wall,
                "throughput": statistics.median(r.units / w for w in walls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            lines.append("  set-ups (raw s, reference factor): "
                         + " ".join(f"{s:.4f} x {f:.3f}" for s, f in setups))
            lines.append(f"  throughput counts {wl.unit} per second")
            lines.append(f"  fail_ratio {failed / attempted:.6g} (1): {failed} of {attempted} jobs")
            return _result(failed == 0, attempted, failed, metrics, END_TO_END, lines)

        import numpy as np
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        traced, t_errors, same = [], [], True
        try:
            wl_t = workloads.build(args.workload, hi, args.seed, args.scale, workdir)
            try:
                for _ in range(TRACED_ROUNDS):
                    tracer.reset()
                    raw, t_wall, t_factor = ref.timed(lambda: _attempt(wl_t, t_errors))
                    traced.append((t_wall, t_factor))
                    same &= raw is not None and wl_t.digest(raw) == r.first
            finally:
                _close(wl_t)
        finally:
            tracer.uninstall()
        lines += [f"  traced round error: {e}" for e in t_errors[:3]]
        spans = tracer.spans()
        metrics = tracer.derive(spans)
        # per-layer times of the last traced round at reference speed
        for name, value in metrics.items():
            if PER_LAYER[name] in ("s", "us"):
                metrics[name] = value * traced[-1][1]
        metrics["proc.cpu_s"] = statistics.median(c * f for c, f in zip(r.cpus, r.factors))
        metrics["proc.cpu_util"] = statistics.median(c / w for c, w in zip(r.cpus, r.walls))
        metrics["trace.overhead_s"] = statistics.median(w * f for w, f in traced) - wall
        attempted += jobs * TRACED_ROUNDS
        failed += (failing if same else jobs) * TRACED_ROUNDS
        if not same:
            lines.append("  traced output differs from the untraced output")
        else:
            lines.append("  traced output equals the untraced output")
        np.savez(OUT / f"spans-{args.workload}.npz", names=np.array(tracer.names), **spans)
        lines.append(f"  {TRACED_ROUNDS} traced rounds, raw wall "
                     + ", ".join(f"{w:.3f} s" for w, _ in traced)
                     + f"; {len(spans['name'])} spans of the last in "
                     f"{OUT.name}/spans-{args.workload}.npz (raw seconds)")
        return _result(failed == 0, attempted, failed, metrics, PER_LAYER, lines)


def _result(correct, attempted, failed, metrics, units_of, lines):
    missing = set(units_of) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    out = {name: {"value": float(metrics[name]), "unit": units_of[name]} for name in units_of}
    for name, m in out.items():
        lines.append(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    return {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
            "metrics": out}, lines


def main(argv=None) -> int:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiplies every job's budget (the smoke check uses small values)")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "hadamard_iter" / "__init__.py").is_file():
        print(f"no hadamard_iter package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the sweep's default pool size is what gets measured
    threads_env = os.environ.pop("HADAMARD_ITER_THREADS", None)
    # Starting OpenBLAS's thread pool, when numpy is first imported, takes
    # 0 to 65 ms on the 2-vCPU box depending on the host's load, a third of
    # a set-up; hadamard_iter's arrays are far too small for BLAS threads.
    # Set before numpy is imported here or in a set-up child.
    blas_env = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}.", dir=OUT))
    try:
        if args.probe_setup:
            elapsed, factor, _, wl = _setup(args.workload, args.seed, args.scale, workdir)
            _close(wl)
            print(json.dumps({"setup_s": elapsed, "factor": factor}))
            return 0
        result, lines = measure(args, workdir)
        context = _context()  # after the set-up, which must be first to import numpy
        context.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                       trace=args.trace, scale=args.scale, ref_seconds=REF_SECONDS,
                       hadamard_iter=str((SRC / "hadamard_iter").relative_to(ROOT)),
                       imported_from_src=True,  # _setup raises otherwise
                       HADAMARD_ITER_THREADS="unset" if threads_env is None
                       else f"was {threads_env!r}, unset for the run",
                       OPENBLAS_NUM_THREADS="1" + ("" if blas_env in (None, "1")
                                                   else f" (was {blas_env!r})"),
                       sweep_workers=workloads.SWEEP_WORKERS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("context " + json.dumps(context, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("\n".join(lines))
    (OUT / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "result": result, "lines": lines}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
