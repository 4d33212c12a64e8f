"""``scripts/bench_record.py`` records whether each side's ``src/`` is its
commit, and runs both sides from the same bytecode state.

The commit a benchmark run reports is the checkout's HEAD, which names the
code measured only when ``src/`` matches it. ``src_state`` reads that from
git, on a temporary repository here, and must leave its files and commits
as they were. The bytecode case runs a stand-in for ``perfbench/run.py``,
not the benchmark.
"""

import hashlib
import importlib.util
import os
import py_compile
import shutil
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"


@pytest.fixture
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo, *args) -> bytes:
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                          cwd=repo, capture_output=True, check=True).stdout


def _snapshot(repo) -> dict:
    """HEAD and every file outside .git, with its bytes."""
    files = {p.relative_to(repo): p.read_bytes() for p in sorted(repo.rglob("*"))
             if p.is_file() and ".git" not in p.relative_to(repo).parts}
    return {"head": _git(repo, "rev-parse", "HEAD"), "files": files}


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_src_state_reads_a_clean_and_a_changed_src(bench_record, tmp_path):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "a.py").write_text("x = 1\n")
    (repo / "notes.txt").write_text("outside src\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "first")

    before = _snapshot(repo)
    assert bench_record.src_state(repo) == {"src_clean": True, "src_diff_sha256": None}
    assert _snapshot(repo) == before
    (repo / "notes.txt").write_text("changed, but not under src\n")
    assert bench_record.src_state(repo)["src_clean"] is True

    (repo / "src" / "a.py").write_text("x = 2\n")
    before = _snapshot(repo)
    state = bench_record.src_state(repo)
    diff = _git(repo, "diff", "HEAD", "--", "src")
    assert b"+x = 2" in diff
    assert state == {"src_clean": False, "src_diff_sha256": hashlib.sha256(diff).hexdigest()}
    assert _snapshot(repo) == before

    # a new file under src/ is a change too, though git diff does not show it
    (repo / "src" / "a.py").write_text("x = 1\n")
    (repo / "src" / "b.py").write_text("y = 1\n")
    state = bench_record.src_state(repo)
    assert state == {"src_clean": False, "src_diff_sha256": hashlib.sha256(b"").hexdigest()}


# A stand-in for perfbench/run.py: it reports, before it imports src/m.py,
# whether the bytecode cache holds an up-to-date copy of it, and then imports
# it, which writes one wherever this interpreter may write bytecode.
FAKE_RUN = r'''
import importlib.util, json, os, sys
src = os.path.abspath(os.path.join("src", "m.py"))
cached = importlib.util.cache_from_source(src)
fresh = False
if os.path.exists(cached):
    with open(cached, "rb") as f:
        head = f.read(16)
    st = os.stat(src)
    fresh = (head[:4] == importlib.util.MAGIC_NUMBER and head[4:8] == bytes(4)
             and int.from_bytes(head[8:12], "little") == int(st.st_mtime) & 0xFFFFFFFF
             and int.from_bytes(head[12:16], "little") == st.st_size & 0xFFFFFFFF)
print("context " + json.dumps({"commit": "x", "fresh_before_import": fresh,
                               "pycache_prefix": sys.pycache_prefix}))
sys.path.insert(0, "src")
import m
print(json.dumps({"correct": m.X == 1, "failed": 0, "metrics": {}}))
'''


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_both_sides_run_from_the_same_warm_bytecode(bench_record, tmp_path, monkeypatch):
    # the parent's __pycache__ holds bytecode of an older m.py, the change's none,
    # and no run may write bytecode into its checkout
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    parent = tmp_path / "parent"
    (parent / "src").mkdir(parents=True)
    (parent / "perfbench").mkdir()
    (parent / "perfbench" / "run.py").write_text(FAKE_RUN)
    (parent / "src" / "m.py").write_text("X = 10\n")
    py_compile.compile(str(parent / "src" / "m.py"), doraise=True)
    (parent / "src" / "m.py").write_text("X = 1\n")
    _git(parent, "init", "-q")
    _git(parent, "add", "perfbench", "src/m.py")
    _git(parent, "commit", "-q", "-m", "first")
    change = tmp_path / "change"
    _git(tmp_path, "clone", "-q", str(parent), str(change))
    checkouts = {"parent": parent, "change": change}
    before = {side: _snapshot(c) for side, c in checkouts.items()}

    def context(side, env):
        run = bench_record.bench(checkouts[side], "w", 1, 1.0, 0, env)
        assert run["result"]["correct"] is True
        return run["context"]

    # the plain environment: the parent compiles m.py again on every run
    assert [context("parent", dict(os.environ))["fresh_before_import"] for _ in range(2)] \
        == [False, False]

    envs = {side: bench_record.side_env(tmp_path / "pycache" / side) for side in checkouts}
    bench_record.warm(checkouts, envs, ["w"])
    for side in checkouts:
        seen = context(side, envs[side])
        assert seen["fresh_before_import"] is True
        assert seen["pycache_prefix"] == str(tmp_path / "pycache" / side)
    assert {side: _snapshot(c) for side, c in checkouts.items()} == before
