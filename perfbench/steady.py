#!/usr/bin/env python3
"""Steadiness check: is each end-to-end metric steady across seeds?

    python3 perfbench/steady.py --seeds 1-10 [--against 11-20] [--workloads a,b]
                                [--seconds S] [--json FILE]

Runs ``run.py --trace 0`` once per workload and seed, one run at a time.
For every end-to-end metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median. A spread must stay within the
metric's bound in BENCHMARK.json (setup_s excepted). With ``--against`` it
runs a second seed set and requires each of its medians, setup_s included,
to be no worse than the first set's by more than the bound. Exits 1 if a
check fails or a run is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def collect(workloads, seeds, seconds) -> tuple[dict, bool]:
    table, all_correct = {}, True
    for w in workloads:
        runs = []
        for s in seeds:
            res = run_once(w, s, seconds)
            all_correct &= res["correct"] and res["failed"] == 0
            runs.append(res["metrics"])
            print(f"  {w} seed {s}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        table[w] = {m: summarize([r[m]["value"] for r in runs]) for m in runs[0]}
    return table, all_correct


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--against", default=None, help="a second seed set, e.g. 11-20")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    p.add_argument("--json", default=None, help="write the tables to this file")
    args = p.parse_args()
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    first, ok = collect(workloads, _seeds(args.seeds), args.seconds)
    second = None
    if args.against:
        second, ok2 = collect(workloads, _seeds(args.against), args.seconds)
        ok &= ok2
    if not ok:
        print("a run was not correct")
    for w in workloads:
        for name, m in metrics.items():
            a = first[w][name]
            line = (f"{w:14s} {name:12s} median {a['median']:.5g} "
                    f"q1 {a['q1']:.5g} q3 {a['q3']:.5g} spread {a['spread']:.3f} "
                    f"(bound {m['bound']})")
            if second is not None:
                b = second[w][name]
                worse = (b["median"] / a["median"] - 1.0 if m["better"] == "lower"
                         else 1.0 - b["median"] / a["median"])
                line += (f"; second spread {b['spread']:.3f}, median {b['median']:.5g} "
                         f"({worse:+.3f} worse)")
                if worse > m["bound"]:
                    ok, line = False, line + " MEDIAN MOVED"
            spreads = [t[w][name]["spread"] for t in (first, second) if t is not None]
            if name != "setup_s" and max(spreads) > m["bound"]:
                ok, line = False, line + " SPREAD TOO WIDE"
            print(line)
    if args.json:
        Path(args.json).write_text(json.dumps({"seeds": args.seeds, "against": args.against,
                                               "seconds": args.seconds, "first": first,
                                               "second": second}, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
