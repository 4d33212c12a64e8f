#!/usr/bin/env python3
"""Record one step of the BENCH trajectory: this checkout against a parent.

Usage, from the root of this checkout:

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python3 scripts/bench_record.py --parent ../parent --out BENCH_<n>.json

For every workload of BENCHMARK.json and every seed from 1 to 10 it runs
``perfbench/run.py --trace 0`` for BENCHMARK.json's ``run_seconds`` once in
each checkout, alternating which side runs first from one seed to the next,
and then one traced run per side of ``inner_solvers``. Runs are sequential,
one process at a time.
The JSON written holds the context (commits, the state of each side's
``src/``, CPU, Python and numpy, the settings), the median and quartiles of
every end-to-end metric per side with every run and the pairs the change
won, and the traced per-layer table of both sides with the names of its
counts (unit ``count``) that differ between them, which it also prints: a
change that moves calls past the tracer's wrappers shows there when it is
recorded. It ends by printing one line per
workload and end-to-end metric: the parent's median [q1, q3], the change's,
and the pairs of the 10 the change won. Nothing under perfbench/ is
changed; both checkouts run their own copy of it.

A side's commit is the HEAD that perfbench/run.py reads, which names the
code measured only when ``src/`` matches it. So each side also records
whether ``git status --porcelain -- src`` is empty and, when it is not, the
sha256 of ``git diff HEAD -- src`` (``src_state``).

Both sides run cold, as the benchmark's gate runs them: every run compiles
what it imports, so ``setup_s`` includes compiling the package, and no run
reads or writes bytecode in a checkout. A checkout's ``__pycache__`` would
otherwise decide the set-up time: one with stale or no bytecode compiles its
changed files in every set-up, one with fresh bytecode does not. So every
run of a side gets ``PYTHONDONTWRITEBYTECODE=1`` and that side's own
``PYTHONPYCACHEPREFIX``, an empty temporary directory, which stays empty
(``side_env``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEEDS = tuple(range(1, 11))
TRACED = "inner_solvers"
BYTECODE = ("cold: PYTHONDONTWRITEBYTECODE=1 and each side its own empty PYTHONPYCACHEPREFIX, "
            "so every run compiles what it imports")


def side_env(pycache: Path) -> dict:
    """The environment of a side's runs: bytecode looked up only under
    ``pycache``, which no run writes to, whatever the checkout's
    ``__pycache__`` holds."""
    return {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": str(pycache)}


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int,
          env: dict) -> dict:
    """One perfbench run: its context line and its result line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=True, timeout=600 + 10 * seconds)
    lines = done.stdout.splitlines()
    context = next(json.loads(line[len("context "):]) for line in lines
                   if line.startswith("context "))
    return {"context": context, "result": json.loads(lines[-1])}


def src_state(checkout: Path) -> dict:
    """Whether ``src/`` of a git checkout matches its HEAD, and otherwise the
    sha256 of ``git diff HEAD -- src``. No file or commit of the checkout
    changes: ``--no-optional-locks`` keeps ``git status`` from refreshing
    the index."""
    def git(*args: str) -> bytes:
        return subprocess.run(["git", "--no-optional-locks", *args], cwd=checkout,
                              capture_output=True, check=True).stdout

    clean = not git("status", "--porcelain", "--", "src")
    return {"src_clean": clean,
            "src_diff_sha256": None if clean else hashlib.sha256(
                git("diff", "HEAD", "--", "src")).hexdigest()}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def table_lines(end_to_end: dict) -> list[str]:
    """One line per workload and end-to-end metric: the parent's median
    [q1, q3] -> the change's, and the pairs the change won."""
    def side(m: dict) -> str:
        return f"{m['median']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}]"
    return [f"{w} {name}: {side(m['parent'])} -> {side(m['change'])} {m['unit']}, "
            f"change wins {m['change_wins']}/{m['pairs']}"
            for w, table in end_to_end.items() for name, m in table.items()
            if isinstance(m, dict) and "change_wins" in m]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="a checkout of the parent commit")
    p.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    trees = {side: src_state(checkouts[side]) for side in SIDES}

    runs = {w: {side: [] for side in SIDES} for w in workloads}
    contexts = {}
    with tempfile.TemporaryDirectory(prefix="bench-pycache.") as pycache:
        envs = {side: side_env(Path(pycache) / side) for side in SIDES}
        for w in workloads:
            for i, seed in enumerate(SEEDS):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    run = bench(checkouts[side], w, seed, seconds, 0, envs[side])
                    contexts[side] = run["context"]
                    runs[w][side].append(run["result"])
                    print(f"{w} seed {seed} {side}: "
                          + " ".join(f"{k}={m['value']:.6g}"
                                     for k, m in run["result"]["metrics"].items()), flush=True)
        traced = {side: bench(checkouts[side], TRACED, SEEDS[0], seconds, 1, envs[side])["result"]
                  for side in SIDES}

    end_to_end = {}
    for w in workloads:
        table = {}
        for name, direction in better.items():
            values = {side: [r["metrics"][name]["value"] for r in runs[w][side]] for side in SIDES}
            sign = 1.0 if direction == "higher" else -1.0
            wins = sum(sign * (c - p) > 0.0 for p, c in zip(values["parent"], values["change"]))
            table[name] = {"unit": runs[w]["parent"][0]["metrics"][name]["unit"],
                           "better": direction, "pairs": len(SEEDS), "change_wins": wins,
                           **{side: spread(values[side]) for side in SIDES}}
        table["failed"] = {side: [r["failed"] for r in runs[w][side]] for side in SIDES}
        table["correct"] = all(r["correct"] for side in SIDES for r in runs[w][side])
        end_to_end[w] = table

    per_layer = {name: {"unit": m["unit"],
                        **{side: traced[side]["metrics"][name]["value"] for side in SIDES}}
                 for name, m in traced["parent"]["metrics"].items()}
    moved = [name for name, m in per_layer.items()
             if m["unit"] == "count" and m["parent"] != m["change"]]
    print(f"traced {TRACED} counts that differ between the sides: {moved or 'none'}")

    keys = ("nproc", "cpu", "python", "numpy", "ref_seconds", "OPENBLAS_NUM_THREADS")
    record = {
        "context": {"commits": {side: contexts[side]["commit"] for side in SIDES},
                    "trees": trees,
                    **{k: contexts["change"][k] for k in keys},
                    "seconds": seconds, "seeds": list(SEEDS),
                    "order": "alternating: the parent runs first at even seed positions",
                    "bytecode": BYTECODE,
                    "command": "perfbench/run.py --trace 0, once per side and seed"},
        "end_to_end": end_to_end,
        "per_layer": {"workload": TRACED, "seed": SEEDS[0],
                      "correct": {side: traced[side]["correct"] for side in SIDES},
                      "counts_differing": moved,
                      "metrics": per_layer},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    print("\n".join(table_lines(end_to_end)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
