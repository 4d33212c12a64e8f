"""The benchmark's tracer still sees the package after a refactor.

``perfbench/tracer.py`` wraps the package's public functions and methods by
rebinding their names, so a refactor that calls one of them some other way
(a table of function objects, a frozen bound method) hides it from the
per-layer metrics or changes a traced result. This runs two of the
benchmark's workloads at a tiny scale, untraced and traced, and requires
equal outputs, a nonzero reading on every metric the harness's smoke check
expects of them, and the package restored after ``uninstall``. The axioms
and cli_sweep workloads are left out: some of their expected metrics read 0
under the in-process tracer (see ROADMAP item 2).
"""

import importlib
import sys
from pathlib import Path

import pytest

import hadamard_iter as hi
from hadamard_iter import fixtures, geometry, schemes

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield tuple(importlib.import_module(m) for m in ("tracer", "workloads", "smoke"))
    for m in ("tracer", "workloads", "smoke"):
        sys.modules.pop(m, None)


@pytest.mark.parametrize("workload", ["quartic_ppa", "inner_solvers"])
def test_traced_workload_equals_untraced_and_reads_its_metrics(perfbench, tmp_path, workload):
    tracer, workloads, smoke = perfbench
    originals = (fixtures.quadratic, schemes.iterate_sequence, geometry.ModelSpace.distance)

    wl = workloads.build(workload, hi, 0, 0.01, tmp_path)
    want = wl.digest(wl.run_round())
    t = tracer.Tracer()
    t.install()
    try:
        wl = workloads.build(workload, hi, 0, 0.01, tmp_path)
        got = wl.digest(wl.run_round())
    finally:
        t.uninstall()

    assert got == want
    metrics = t.derive(t.spans())
    assert [m for m in smoke.EXERCISED[workload] if not metrics.get(m)] == []
    after = (fixtures.quadratic, schemes.iterate_sequence, geometry.ModelSpace.distance)
    assert all(a is b for a, b in zip(after, originals))
