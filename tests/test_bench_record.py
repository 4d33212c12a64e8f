"""``scripts/bench_record.py`` records whether each side's ``src/`` is its commit.

The commit a benchmark run reports is the checkout's HEAD, which names the
code measured only when ``src/`` matches it. ``src_state`` reads that from
git, on a temporary repository here, and must leave its files and commits
as they were.
"""

import hashlib
import importlib.util
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
