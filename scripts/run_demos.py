#!/usr/bin/env python3
"""Run every bundled experiment config through the CLI.

Usage: python3 scripts/run_demos.py [outdir]   (default: scripts/out)

Each config's command is read off its keys, as CI picks run configs by a
top-level ``scheme``: ``checks`` makes a check config, ``grid`` a sweep and
``scheme`` a run. A config with none or more than one of them is a failure.
"""

import json
import sys
from pathlib import Path

from hadamard_iter.cli import main

CONFIG_DIR = Path(__file__).parent / "configs"
COMMANDS = {"checks": "check", "grid": "sweep", "scheme": "run"}


def run():
    out = sys.argv[1] if len(sys.argv) > 1 else str(Path(__file__).parent / "out")
    failures = []
    for cfg in sorted(CONFIG_DIR.glob("*.json")):
        commands = [cmd for key, cmd in COMMANDS.items() if key in json.loads(cfg.read_text())]
        if len(commands) != 1:
            failures.append((cfg.name, f"no single command: {commands}"))
            continue
        (cmd,) = commands
        print(f"--- {cmd} {cfg.name}")
        code = main([cmd, "--config", str(cfg), "--out", out])
        # long Halpern runs stop at their budget by design; only run exits 2 for that
        if code != 0 and not (cmd == "run" and code == 2):
            failures.append((cfg.name, code))
    if failures:
        print("failed:", failures)
        return 1
    print(f"all demos completed; outputs in {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
