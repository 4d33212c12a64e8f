"""The four benchmark workloads.

Each workload is built from a seed (its set-up), then runs a fixed job list
once per call of ``run_round``. Rounds return raw results; ``digest`` turns
them into an exact string (floats as hex) so that rounds, and the traced
round, can be compared byte for byte, and ``check`` applies each job's
oracle. All calls go through the public API of ``hadamard_iter`` (and
``hadamard_iter.cli.main`` for the sweep), looked up at call time, so the
tracer's wrappers see them.

Sizes are set so that one round takes about 1.5 s on a 2-core x86 box;
``scale`` shrinks every budget for the harness smoke check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import random
import shutil
import tempfile
from pathlib import Path

# Halpern runs with anchor weights 1/(k+1) approach their target like C/k.
# The oracle bound is RATE * D / N, where D = max(d(x*, u), d(x*, x_1)) is
# the a-priori radius and N the outer budget.
HALPERN_RATE = 4.0
PPA_DESCENT_SLACK = 1e-10
# cmd_sweep's thread pool size when HADAMARD_ITER_THREADS is unset
SWEEP_WORKERS = min(8, os.cpu_count() or 1)


def _seeded(seed: int, salt: int) -> random.Random:
    # the standard library's generator, so that numpy is first imported by
    # hadamard_iter inside the timed set-up
    return random.Random(f"{seed}/{salt}")


def _polar(rng: random.Random, r: float) -> list[float]:
    """A point at radius r in a seeded direction. Seeds move only angles, so
    that every seed gives the same amount of work to within a few percent."""
    th = rng.uniform(0.0, 2.0 * math.pi)
    return [r * math.cos(th), r * math.sin(th)]


def _budget(n: int, scale: float, floor: int = 2) -> int:
    return max(floor, int(round(n * scale)))


def _hex_point(p) -> list[str]:
    return [float(c).hex() for c in p.coords]


def _fhex(v) -> str | None:
    return None if v is None else float(v).hex()


class Axioms:
    """check_space_axioms on Euclidean(2), Hyperboloid(2) and Spider(3)."""

    unit = "samples"
    threads = 1  # threads a round runs on

    def __init__(self, hi, seed: int, scale: float):
        self.hi = hi
        rng = _seeded(seed, 1)
        self.samples = _budget(2000, scale)
        self.jobs = [(space, rng.randrange(2**31))
                     for space in (hi.Euclidean(2), hi.Hyperboloid(2), hi.Spider(3))]

    def run_round(self):
        return [self.hi.check_space_axioms(space, samples=self.samples, seed=s)
                for space, s in self.jobs]

    def work(self, reports) -> int:
        return sum(r.samples_tested for r in reports)

    def digest(self, reports) -> str:
        return json.dumps([[r.check_name, r.samples_tested, r.passed,
                            _fhex(r.max_violation), len(r.violations)] for r in reports])

    def check(self, reports) -> list[tuple[str, bool, str]]:
        return [(space.space_id, r.passed, f"max_violation={r.max_violation:.3e}")
                for (space, _), r in zip(self.jobs, reports)]


class QuarticPPA:
    """Sequence-engine ppa on plateau_quartic, lam = 0.01, from a seeded x > 2."""

    unit = "outer iterations"
    threads = 1

    def __init__(self, hi, seed: int, scale: float):
        self.hi = hi
        rng = _seeded(seed, 2)
        E1 = hi.Euclidean(1)
        self.space = E1
        self.x0 = rng.uniform(2.5, 6.0)
        self.budget = _budget(100_000, scale)
        quartic = hi.objective_fixture(E1, "plateau_quartic")
        self.seq = hi.resolvent_sequence(quartic, hi.resolvent_constant(0.01))
        # the C4 tolerance: far below what the budget reaches, so every run
        # does the full budget
        self.cfg = hi.RunConfig(space=E1, start=E1.point([self.x0]),
                                max_iterations=self.budget, tolerance=1.5e-13)

    def run_round(self):
        return [self.hi.iterate_sequence(self.seq, self.cfg)]

    def work(self, traces) -> int:
        return traces[0].summary.iterations_run

    def digest(self, traces) -> str:
        tr = traces[0]
        return json.dumps([tr.summary.iterations_run, tr.summary.stop_reason.value,
                           _hex_point(tr.summary.final_point),
                           [_fhex(s.point.coords[0]) for s in tr.steps]])

    def check(self, traces) -> list[tuple[str, bool, str]]:
        # the C4 oracle: iterates strictly decrease and stay above 2
        tr = traces[0]
        pts = [float(s.point.coords[0]) for s in tr.steps]
        pts.append(float(tr.summary.final_point.coords[0]))
        ok = (all(b < a for a, b in zip(pts, pts[1:])) and all(p > 2.0 for p in pts)
              and tr.summary.stop_reason is not self.hi.StopReason.SOLVER_ERROR)
        return [(f"quartic from {self.x0:.4f}", ok,
                 f"final {pts[-1]!r} after {tr.summary.iterations_run} iterations, "
                 f"{tr.summary.stop_reason.value}")]


@dataclasses.dataclass
class _Job:
    name: str
    built: object
    cfg: object
    fixed_set: object | None  # Halpern jobs: the set the anchor projects onto
    bound: float
    predicted: float | None = None  # ppa job: the exact closed-form distance


class InnerSolvers:
    """Outer runs whose every step runs an inner solver."""

    unit = "outer iterations"
    threads = 1

    def __init__(self, hi, seed: int, scale: float):
        self.hi = hi
        rng = _seeded(seed, 3)
        E2, H2 = hi.Euclidean(2), hi.Hyperboloid(2)
        halpern = hi.halpern_schedule()
        self.jobs: list[_Job] = []

        origin = hi.Segment(E2.base_point(), E2.base_point())
        vi = hi.bifunction_fixture(E2, "rotation_vi")
        self._halpern_job(
            "halpern_ppa_equilibrium rotation_vi", E2,
            hi.build_scheme("halpern_ppa_equilibrium", vi,
                            {"anchor": halpern, "lambda": hi.resolvent_constant(1.0)}),
            E2.point(_polar(rng, 0.8)), E2.point(_polar(rng, 0.8)),
            origin, _budget(300, scale))

        rot = hi.catalog_operator(E2, "rotation", angle=2.0)
        self._halpern_job(
            "halpern_ppa_lipschitz rotation", E2,
            hi.build_scheme("halpern_ppa_lipschitz", rot,
                            {"anchor": halpern, "lambda": hi.resolvent_constant(1.0)}),
            E2.point(_polar(rng, 2.0)), E2.point(_polar(rng, 2.0)),
            origin, _budget(600, scale))

        ball = hi.Ball(H2.from_spatial([0.3, 0.2]), 0.4)
        self._halpern_job(
            "halpern_ppa H2 ball", H2,
            hi.build_scheme("halpern_ppa", hi.objective_fixture(H2, "dist2_to_set", cset=ball),
                            {"anchor": halpern, "lambda": hi.resolvent_constant(1.0)}),
            H2.from_spatial(_polar(rng, 1.2)), H2.from_spatial(_polar(rng, 1.2)),
            ball, _budget(3000, scale))

        # as C2: the closed form removed, so every step runs Armijo descent
        center = H2.from_spatial([0.4, 0.1])
        quad = dataclasses.replace(hi.objective_fixture(H2, "quadratic", center=center),
                                   closed_form_resolvent=None)
        lam, n = 0.02, _budget(1000, scale)
        # a start at distance 1.5 from the center, in a seeded direction
        raw = [0.0, *_polar(rng, 1.0)]
        v = [a + H2.minkowski(center.coords, raw) * c for a, c in zip(raw, center.coords)]
        start = H2.exp_map(center, [1.5 * a / H2.tangent_norm(center, v) for a in v])
        # the prox of d^2(., a)/2 moves x the fraction lam/(1+lam) toward a
        predicted = H2.distance(start, center) * (1.0 + lam) ** -n
        self.jobs.append(_Job(
            "ppa H2 quadratic by descent",
            hi.build_scheme("ppa", quad, {"lambda": hi.resolvent_constant(lam)}),
            hi.RunConfig(space=H2, start=start, max_iterations=n, tolerance=1e-14,
                         reference=center),
            None, PPA_DESCENT_SLACK, predicted))

    def _halpern_job(self, name, space, built, start, anchor, fixed_set, n):
        target = space.project(fixed_set, anchor)
        radius = max(space.distance(target, anchor), space.distance(target, start))
        # tolerance 1e-12 lies far below where the budget ends, so the runs
        # are budget-bound and do the same work on every seed
        cfg = self.hi.RunConfig(space=space, start=start, anchor=anchor, max_iterations=n,
                                tolerance=1e-12, reference=target)
        self.jobs.append(_Job(name, built, cfg, fixed_set, HALPERN_RATE * radius / n))

    def run_round(self):
        return [job.built.run(job.cfg) for job in self.jobs]

    def work(self, traces) -> int:
        return sum(t.summary.iterations_run for t in traces)

    def digest(self, traces) -> str:
        return json.dumps([[t.summary.iterations_run, t.summary.stop_reason.value,
                            _hex_point(t.summary.final_point),
                            _fhex(t.summary.target_distance)] for t in traces])

    def check(self, traces) -> list[tuple[str, bool, str]]:
        out = []
        for job, tr in zip(self.jobs, traces):
            d = tr.summary.target_distance
            if tr.summary.stop_reason is self.hi.StopReason.SOLVER_ERROR:
                out.append((job.name, False, f"solver error at step {tr.summary.error_step}: "
                                             f"{tr.summary.error_message}"))
                continue
            if job.fixed_set is not None:
                rep = self.hi.check_halpern_target(job.cfg.space, tr, job.cfg.anchor,
                                                   job.fixed_set, job.bound)
                ok, want = rep.passed, f"bound {job.bound:.3e}"
            else:
                ok = abs(d - job.predicted) <= job.bound
                want = f"predicted {job.predicted:.6e} +- {job.bound:.0e}"
            out.append((job.name, ok, f"target distance {d:.6e} ({want})"))
        return out


class CliSweep:
    """hadamard_iter.cli.main(["sweep", ...]) on a Halpern-PPA grid on H2."""

    unit = "cells"
    threads = SWEEP_WORKERS

    def __init__(self, hi, seed: int, scale: float, workdir: Path):
        import hadamard_iter.cli  # noqa: F401  (the sweep entry point)

        self.hi = hi
        rng = _seeded(seed, 4)
        H2 = hi.Hyperboloid(2)
        center, radius = [0.3, 0.2], 0.4
        ball = hi.Ball(H2.from_spatial(center), radius)
        anchor = H2.from_spatial(_polar(rng, 1.2))
        target = H2.project(ball, anchor)
        starts = [_polar(rng, r) for r in (0.9, 1.3)]
        lambdas = [0.5, 1.0, 2.0, 4.0]
        n = _budget(1200, scale)
        radius_d = max(H2.distance(target, anchor),
                       *(H2.distance(target, H2.from_spatial(s)) for s in starts))
        self.bound = HALPERN_RATE * radius_d / n
        self.cells = len(lambdas) * len(starts)
        sweep = {
            "base": {
                "space": {"kind": "hyperboloid", "dim": 2},
                "scheme": "halpern_ppa",
                "source": {"objective": {"name": "dist2_to_set", "set": {
                    "kind": "ball", "center": {"spatial": center}, "radius": radius}}},
                "schedules": {"anchor": {"kind": "power"},
                              "lambda": {"kind": "constant", "value": 1.0}},
                "start": {"spatial": starts[0]},
                "anchor": [float(c) for c in anchor.coords],
                "reference": [float(c) for c in target.coords],
                "max_iterations": n,
                "tolerance": 1e-12,
            },
            "grid": {"schedules.lambda.value": lambdas,
                     "start": [{"spatial": s} for s in starts]},
            "output": "sweep.csv",
        }
        self.dir = Path(tempfile.mkdtemp(prefix="cli_sweep.", dir=workdir))
        self.config = self.dir / "sweep.json"
        self.config.write_text(json.dumps(sweep))
        self.argv = ["sweep", "--config", str(self.config), "--out", str(self.dir / "out")]

    def run_round(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.hi.cli.main(self.argv)
        return [code, (self.dir / "out" / "sweep.csv").read_bytes()]

    def work(self, result) -> int:
        return len(result[1].decode().splitlines()) - 1

    def digest(self, result) -> str:
        code, csv = result
        return json.dumps([code, csv.decode()])

    def check(self, result) -> list[tuple[str, bool, str]]:
        code, csv = result
        rows = csv.decode().splitlines()[1:]
        out = [("exit code", code == 0, f"exit {code}"),
               ("rows", len(rows) == self.cells, f"{len(rows)} rows for {self.cells} cells")]
        for i, row in enumerate(rows):
            # grid values can hold commas, so read the summary columns from the right
            stop, d = row.split(",")[-3], float(row.split(",")[-1])
            out.append((f"cell {i}", stop != "solver_error" and math.isfinite(d)
                        and d <= self.bound,
                        f"{stop}, target distance {d:.3e} (bound {self.bound:.3e})"))
        return out

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"axioms": Axioms, "quartic_ppa": QuarticPPA,
             "inner_solvers": InnerSolvers, "cli_sweep": CliSweep}


def build(name: str, hi, seed: int, scale: float, workdir: Path):
    cls = WORKLOADS[name]
    if cls is CliSweep:
        return cls(hi, seed, scale, workdir)
    return cls(hi, seed, scale)
