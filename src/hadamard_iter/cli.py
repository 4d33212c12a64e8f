"""Experiment runner: ``run``, ``check`` and ``sweep`` subcommands.

Configs are single JSON files. Exit codes: 0 converged (or all checks
passed), 1 config error, 2 iteration budget exhausted, 3 solver error,
4 a check failed.
Trace CSVs are written with 17 significant digits so reruns with the same
config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import functools
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Mapping

from .config import READERS, pick, point_to_config, read, reads
from .diagnostics import (
    CheckReport,
    _nested_entry,
    _sampling_entry,
    check_fejer,
    check_halpern_target,
    check_nested_fixed_sets,
    check_quasi_firm,
    check_space_axioms,
    check_sqn_inequality,
)
from .errors import ConfigError, DomainError, HadamardIterError, UnsupportedOperationError
from .fixtures import _BIFUNCTIONS, _OBJECTIVES, bifunction_fixture, objective_fixture
from .geometry import ConvexSubset, ModelSpace, SpacePoint, Spider
from .operators import _CATALOG as _OPERATORS
from .operators import OperatorSpec, catalog_operator, ishikawa_operator
from .resolvents import (Bifunction, ObjectiveFunction, _convex_entry,
                         equilibrium_resolvent_operator, lipschitz_resolvent_operator)
from .schedules import (
    Schedule,
    ScheduleClass,
    check_power_term,
    halpern_schedule,
    inverse_power,
    mann_constant,
    resolvent_constant,
    resolvent_schedule,
    vanishing_schedule,
)
from .schemes import (BuiltScheme, IterationTrace, RunConfig, StopReason, build_scheme,
                      check_entry)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BUDGET = 2
EXIT_SOLVER = 3
EXIT_CHECK_FAILED = 4
SWEEP_MAX_WORKERS = 8


# ---------------------------------------------------------------------------
# config objects: each is read against the signature of the function that
# builds it (config.read); tables pick the function by a discriminator key
# ---------------------------------------------------------------------------

def _descriptor(kind: str, desc: Any, key: str, ctx: str, space: ModelSpace):
    """An operator, objective or bifunction from its descriptor: a catalogue
    ``name`` plus the keys of that entry's builder, built by the catalogue's
    factory."""
    factory, catalogue = {
        "operator": (catalog_operator, _OPERATORS),
        "objective": (objective_fixture, _OBJECTIVES),
        "bifunction": (bifunction_fixture, _BIFUNCTIONS),
    }[kind]
    name, builder, sub = pick(catalogue, desc, key, ctx, kind, by="name")
    return factory(space, name, **read(builder, desc, sub, space, skip=1, known=("name",)))


_SOURCES = {kind: functools.partial(_descriptor, kind)
            for kind in ("operator", "objective", "bifunction")}


def _source(desc: Any, key: str, ctx: str, space: ModelSpace):
    kind, read_kind, _ = pick(_SOURCES, desc, key, ctx, "source", by=None)
    return read_kind(desc[kind], kind, "source", space)


def _anchor_constant(value: float) -> Schedule:
    raise ConfigError(
        "anchor weights must tend to 0 with a divergent sum; a constant "
        "schedule violates the limit requirement"
    )


def _mann_constant(value: float) -> Schedule:
    return mann_constant(value)


def _mann_power(scale: float = 0.5, offset: float = 1.0, power: float = 1.0) -> Schedule:
    # the first weight is the bound: the weights must not grow
    check_power_term("Mann weights scale/(k+offset)^power", offset, power)
    return Schedule(lambda k: inverse_power(scale, k + offset, power), ScheduleClass.MANN_PARAM,
                    upper_bound=inverse_power(scale, 1.0 + offset, power))


def _vanishing_constant(value: float) -> Schedule:
    if value != 0.0:
        raise ConfigError("inner Ishikawa weights must tend to 0; "
                          "a nonzero constant never vanishes")
    return vanishing_schedule(0.0)


def _resolvent_constant(value: float) -> Schedule:
    return resolvent_constant(value)


def _power_floor(floor: float = 0.0, scale: float = 1.0, power: float = 1.0) -> Schedule:
    # the parameters must stay between floor and floor + scale
    check_power_term("resolvent parameters floor + scale/k^power", 0.0, power)
    return resolvent_schedule(lambda k: floor + inverse_power(scale, k, power),
                              lower=floor, upper=floor + scale)


# role -> the schedule kinds that can serve in it
_SCHEDULE_KINDS = {
    "anchor": {"power": halpern_schedule, "constant": _anchor_constant},
    "alpha": {"constant": _mann_constant, "power": _mann_power},
    "beta": {"constant": _vanishing_constant, "inverse_k": vanishing_schedule},
    "lambda": {"constant": _resolvent_constant, "power_floor": _power_floor},
}


def _schedule(desc: Any, role: str, ctx: str, space: ModelSpace) -> Schedule:
    _, build, sub = pick(_SCHEDULE_KINDS[role], desc, role, ctx, f"schedule {role!r}")
    return build(**read(build, desc, sub, known=("kind",)))


def _schedules(anchor: Schedule | None = None, alpha: Schedule | None = None,
               beta: Schedule | None = None, lam: Schedule | None = None
               ) -> dict[str, Schedule]:
    roles = {"anchor": anchor, "alpha": alpha, "beta": beta, "lambda": lam}
    return {role: s for role, s in roles.items() if s is not None}


def _run_outputs(trace: str = "trace.csv", summary: str = "summary.json") -> dict[str, str]:
    return {"trace": trace, "summary": summary}


def _check_outputs(reports: str = "reports.json") -> dict[str, str]:
    return {"reports": reports}


# the annotations that name the objects above, and their readers
Source = OperatorSpec | ObjectiveFunction | Bifunction
Schedules = RunOutputs = CheckOutputs = dict
READERS.update(
    OperatorSpec=_SOURCES["operator"], ObjectiveFunction=_SOURCES["objective"],
    Bifunction=_SOURCES["bifunction"], Source=_source, Schedule=_schedule,
    Schedules=reads(_schedules), RunOutputs=reads(_run_outputs),
    CheckOutputs=reads(_check_outputs),
)


def _run(overrides: Mapping, space: ModelSpace, scheme: str, source: Source,
         schedules: Schedules, start: SpacePoint, anchor: SpacePoint | None = None,
         max_iterations: int = RunConfig.max_iterations,
         tolerance: float = RunConfig.tolerance, reference: SpacePoint | None = None,
         trace_stride: int | None = None, seed: int = RunConfig.seed,
         outputs: RunOutputs | None = None) -> tuple[BuiltScheme, RunConfig, dict[str, str]]:
    """A run config: the scheme, the run's settings (the command's
    ``overrides`` of ``seed`` and ``max_iterations`` win) and the output
    names, checked as the engine checks them at entry."""
    built = build_scheme(scheme, source, schedules)
    run_cfg = RunConfig(
        space=space, start=start, anchor=anchor,
        max_iterations=overrides.get("max_iterations", max_iterations),
        tolerance=tolerance, reference=reference, trace_stride=trace_stride,
        seed=overrides.get("seed", seed),
    )
    check_entry(built.sequence, run_cfg, built.anchor_schedule)
    return built, run_cfg, outputs or _run_outputs()


def _parse(entry: Callable, cfg: Any, ctx: str, overrides: Mapping | None):
    # a run, check or sweep config: ``entry`` takes the command's overrides first
    return entry(overrides or {}, **read(entry, cfg, ctx, skip=1))


def parse_run_config(cfg: Any, overrides: Mapping | None = None
                     ) -> tuple[BuiltScheme, RunConfig, dict[str, str]]:
    return _parse(_run, cfg, "run config", overrides)


# ---------------------------------------------------------------------------
# output writing
# ---------------------------------------------------------------------------

def _fmt(v: float | None) -> str:
    return "" if v is None else format(v, ".17g")


def _coord_header(space: ModelSpace) -> list[str]:
    if isinstance(space, Spider):
        return ["leg", "radius"]
    n = len(space.base_point().xs)
    return [f"x{i}" for i in range(n)]


def trace_csv_lines(space: ModelSpace, trace: IterationTrace) -> list[str]:
    header = ["k", *_coord_header(space), "residual", "dist_to_reference", "fejer_gap"]
    lines = [",".join(header)]
    for s in trace.steps:
        coords = [_fmt(c) for c in s.point.xs]
        lines.append(",".join([str(s.k), *coords, _fmt(s.residual),
                               _fmt(s.dist_to_reference), _fmt(s.fejer_gap)]))
    return lines


def _output_paths(out_dir: str, *names: str) -> list[Path]:
    """The outputs' paths in ``--out``, refused before any work where two name
    one file, or a file or a directory stands where a directory or a file goes."""
    paths = [Path(out_dir) / name for name in names]
    if len({os.path.normpath(p) for p in paths}) < len(paths):  # the last would overwrite
        raise ConfigError(f"two outputs name one file: {', '.join(names)}")
    for p in paths:
        first = next(q for q in (p, *p.parents) if q.exists())
        if first.is_dir() == (first == p):
            raise ConfigError(f"cannot write {p}: {first} is "
                              f"{'a directory' if first == p else 'not a directory'}")
    return paths


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def summary_dict(space: ModelSpace, built: BuiltScheme, trace: IterationTrace,
                 seed: int) -> dict:
    s = trace.summary
    return {
        "scheme": built.name,
        "guarantee": built.guarantee,
        "space": space.space_id,
        "iterations": s.iterations_run,
        "stop_reason": s.stop_reason.value,
        "error_step": s.error_step,
        "error_message": s.error_message,
        "final_residual": s.final_residual,
        "final_point": point_to_config(space, s.final_point),
        "target_distance": s.target_distance,
        "seed": seed,
    }


def _stop_exit_code(reason: StopReason) -> int:
    return {
        StopReason.CONVERGED: EXIT_OK,
        StopReason.BUDGET_EXHAUSTED: EXIT_BUDGET,
        StopReason.SOLVER_ERROR: EXIT_SOLVER,
    }[reason]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err


def cmd_run(config_path: str, out_dir: str, overrides: Mapping | None = None) -> int:
    cfg = _load_json(config_path)
    built, run_cfg, outputs = parse_run_config(cfg, overrides)
    trace_path, summary_path = _output_paths(out_dir, outputs["trace"], outputs["summary"])
    trace = built.run(run_cfg)
    _atomic_write(trace_path, "\n".join(trace_csv_lines(run_cfg.space, trace)) + "\n")
    summary = summary_dict(run_cfg.space, built, trace, run_cfg.seed)
    _atomic_write(summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"{summary['scheme']}: {summary['stop_reason']} after "
          f"{summary['iterations']} iterations, final residual "
          f"{_fmt(summary['final_residual'])}"
          + (f", target distance {_fmt(summary['target_distance'])}"
             if summary["target_distance"] is not None else ""))
    return _stop_exit_code(trace.summary.stop_reason)


def _parse_embedded(space: ModelSpace, desc: Any, overrides: Mapping
                    ) -> tuple[BuiltScheme, RunConfig]:
    built, run_cfg, _ = parse_run_config(desc, overrides)
    if run_cfg.space != space:
        raise ConfigError("embedded run uses a different space than the check config")
    return built, run_cfg


# Each check is read against the parameters of its entry after (space,
# overrides): the check config's space, and the seed and iteration budget
# that the command and the check config give its embedded runs. Each entry
# applies its checker's rules, so that no check runs before all are valid.

def _space_axioms(space, overrides, samples: int = 1000, scale: float = 2.0):
    _sampling_entry(samples, overrides["seed"], scale)
    return functools.partial(check_space_axioms, space, samples=samples,
                             seed=overrides["seed"], scale=scale)


def _quasi_firm(space, overrides, objective: ObjectiveFunction, lam: float,
                witness: SpacePoint | None = None, samples: int = 500, scale: float = 2.0):
    _convex_entry(objective, lam)
    _sampling_entry(samples, overrides["seed"], scale)
    return functools.partial(check_quasi_firm, objective, lam, witness, samples=samples,
                             seed=overrides["seed"], scale=scale)


def _sqn(op: OperatorSpec, overrides, witness, samples, scale):
    _sampling_entry(samples, overrides["seed"], scale)
    return functools.partial(check_sqn_inequality, op, witness, samples=samples,
                             seed=overrides["seed"], scale=scale)


def _sqn_ishikawa(space, overrides, operator: OperatorSpec, alpha: float = 0.5,
                  beta: float = 0.0, witness: SpacePoint | None = None, samples: int = 500,
                  scale: float = 2.0):
    return _sqn(ishikawa_operator(operator, alpha, beta), overrides, witness, samples, scale)


def _sqn_lipschitz_resolvent(space, overrides, operator: OperatorSpec, lam: float,
                             witness: SpacePoint | None = None, samples: int = 500,
                             scale: float = 2.0):
    return _sqn(lipschitz_resolvent_operator(operator, lam), overrides, witness, samples, scale)


def _sqn_equilibrium_resolvent(space, overrides, bifunction: Bifunction, lam: float,
                               witness: SpacePoint | None = None, samples: int = 500,
                               scale: float = 2.0):
    return _sqn(equilibrium_resolvent_operator(bifunction, lam), overrides, witness, samples,
                scale)


def _nested_fixed_sets(space, overrides, objective: ObjectiveFunction, lam: float, mu: float,
                       candidates: list[SpacePoint]):
    _nested_entry(objective, lam, mu)
    return functools.partial(check_nested_fixed_sets, objective, lam, mu, candidates)


def _fejer(space, overrides, run: dict, witness: SpacePoint):
    built, run_cfg = _parse_embedded(space, run, overrides)
    return lambda: check_fejer(space, built.run(run_cfg), witness)


def _halpern_target(space, overrides, run: dict, fixed_set: ConvexSubset, tolerance: float):
    built, run_cfg = _parse_embedded(space, run, overrides)
    if run_cfg.anchor is None:
        raise ConfigError("check 'halpern_target' needs an embedded run with an 'anchor'")
    return lambda: check_halpern_target(space, built.run(run_cfg), run_cfg.anchor, fixed_set,
                                        tolerance)


_CHECKS = {
    "space_axioms": _space_axioms,
    "quasi_firm": _quasi_firm,
    "sqn_inequality": {"ishikawa": _sqn_ishikawa,  # by variant
                       "lipschitz_resolvent": _sqn_lipschitz_resolvent,
                       "equilibrium_resolvent": _sqn_equilibrium_resolvent},
    "nested_fixed_sets": _nested_fixed_sets,
    "fejer": _fejer,
    "halpern_target": _halpern_target,
}


def _check(desc: Any, key: str, space: ModelSpace, overrides: Mapping
           ) -> Callable[[], CheckReport]:
    """The check ``desc`` names, with every field read and validated, as a
    call that runs it."""
    _, entry, ctx = pick(_CHECKS, desc, key, "check config", "check", by="name")
    known = ("name",)
    if isinstance(entry, dict):
        _, entry, ctx = pick(entry, desc, key, "check config", ctx, by="variant")
        known = ("name", "variant")
    return entry(space, overrides, **read(entry, desc, ctx, space, skip=2, known=known))


def _check_config(overrides: Mapping, space: ModelSpace, checks: list[dict], seed: int = 0,
                  outputs: CheckOutputs | None = None
                  ) -> tuple[list[Callable[[], CheckReport]], int, str]:
    seed = overrides.get("seed", seed)
    overrides = {**overrides, "seed": seed}
    return ([_check(desc, f"checks[{i}]", space, overrides) for i, desc in enumerate(checks)],
            seed, (outputs or _check_outputs())["reports"])


def cmd_check(config_path: str, out_dir: str, overrides: Mapping | None = None) -> int:
    """Read and validate every check of the config, then run them in order."""
    checks, seed, out_name = _parse(_check_config, _load_json(config_path), "check config",
                                    overrides)
    (path,) = _output_paths(out_dir, out_name)
    reports = [run() for run in checks]
    bundle = {"all_passed": all(r.passed for r in reports),
              "seed": seed,
              "reports": [r.to_dict() for r in reports]}
    _atomic_write(path, json.dumps(bundle, indent=2, sort_keys=True) + "\n")
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.check_name}: samples={r.samples_tested} "
              f"max_violation={r.max_violation:.3e} violations={len(r.violations)}")
    return EXIT_OK if bundle["all_passed"] else EXIT_CHECK_FAILED


def _set_by_path(cfg: dict, dotted: str, value: Any) -> None:
    *parents, last = dotted.split(".")
    node = cfg
    for p in parents:
        node = node.get(p) if isinstance(node, dict) else None
    if not isinstance(node, dict) or last not in node:
        raise ConfigError(f"grid path {dotted!r} does not exist in the base config")
    node[last] = value


def _grid_cell(v: Any) -> str:
    # numbers and booleans as in a run's outputs; strings, lists, objects and
    # null as JSON, which the csv module quotes when they hold commas or quotes
    if isinstance(v, float):
        return _fmt(v)
    if isinstance(v, int):
        return str(v)
    return json.dumps(v)


def _run_cell(cell_cfg: dict, overrides: Mapping | None) -> list:
    """A sweep row's result columns: iterations, stop reason, final residual
    and target distance, all read from the run summary.

    The row reads no trace step, so the cell runs with a trace stride of its
    budget: the engine records step 1 and the last step. Every check of a
    step still runs, and the summary is the same at every stride."""
    built, run_cfg, _ = parse_run_config(cell_cfg, overrides)
    run_cfg = dataclasses.replace(run_cfg, trace_stride=run_cfg.max_iterations)
    s = built.run(run_cfg).summary
    return [s.iterations_run, s.stop_reason.value, _fmt(s.final_residual),
            _fmt(s.target_distance)]


def _sweep(overrides: Mapping, base: dict, grid: dict[str, list[Any]],
           output: str = "sweep.csv") -> tuple[list[str], list[tuple], list[dict], str]:
    """A sweep config: its grid paths, the grid's cells and their run configs,
    every one read and validated before anything runs, and the CSV name."""
    paths = list(grid)
    cells = list(itertools.product(*grid.values()))
    cell_cfgs = []
    for values in cells:
        cell = copy.deepcopy(base)
        for p, v in zip(paths, values):
            _set_by_path(cell, p, v)
        parse_run_config(cell, overrides)
        cell_cfgs.append(cell)
    return paths, cells, cell_cfgs, output


def cmd_sweep(config_path: str, out_dir: str, overrides: Mapping | None = None) -> int:
    """Run every cell of the grid and write one CSV row per cell, in grid order.

    A row holds the cell's grid values and its run summary (``_run_cell``).

    Cells run in forked worker processes, as many as the smallest of
    ``SWEEP_MAX_WORKERS``, the CPUs in the process's affinity mask (so
    ``taskset`` limits a sweep; all CPUs where the platform has no affinity
    call) and the number of cells. A cell whose run raises, or whose worker
    dies, gets a ``solver_error`` row with empty numeric fields and a
    message on stderr; the sweep then exits 3 after writing the whole CSV.
    Cells that a dying worker took down with it rerun one by one, each in a
    pool of its own, so a dying worker costs no other cell its run.
    """
    paths, cells, cell_cfgs, out_name = _parse(_sweep, _load_json(config_path), "sweep config",
                                               overrides)
    (path,) = _output_paths(out_dir, out_name)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = max(1, min(SWEEP_MAX_WORKERS, cpus, len(cells)))

    # imported here: the process machinery is not needed by run or check.
    # fork, not the platform default: spawn and forkserver would re-import
    # the package in every worker on every sweep
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    fork = multiprocessing.get_context("fork")
    rows, failed = [], 0
    with ProcessPoolExecutor(workers, mp_context=fork) as pool:
        futures = [pool.submit(_run_cell, c, overrides) for c in cell_cfgs]
        for i, (values, fut) in enumerate(zip(cells, futures)):
            try:
                try:
                    result = fut.result()
                except BrokenProcessPool:
                    # a dead worker breaks the pool for every cell left in it:
                    # rerun the cell alone, so only the one that dies fails
                    with ProcessPoolExecutor(1, mp_context=fork) as alone:
                        result = alone.submit(_run_cell, cell_cfgs[i], overrides).result()
            except Exception as err:
                where = ", ".join(f"{p}={_grid_cell(v)}" for p, v in zip(paths, values))
                print(f"sweep: cell {i + 1} ({where}) failed: {type(err).__name__}: {err}",
                      file=sys.stderr)
                result = ["", StopReason.SOLVER_ERROR.value, "", ""]
                failed += 1
            rows.append([*map(_grid_cell, values), *result])

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*paths, "iterations", "stop_reason", "final_residual", "target_distance"])
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())
    print(f"sweep: {len(cells)} cells -> {path}")
    return EXIT_SOLVER if failed else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hadamard-iter",
        description="Fixed-point iteration experiments on Hadamard model spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("run", "check", "sweep"):
        p = sub.add_parser(cmd)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--max-iters", type=int, default=None,
                       help="override the iteration budget")
    args = parser.parse_args(argv)

    overrides: dict[str, Any] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.max_iters is not None:
        overrides["max_iterations"] = args.max_iters

    dispatch = {"run": cmd_run, "check": cmd_check, "sweep": cmd_sweep}
    try:
        # checked here for every command, a check without an embedded run included
        if overrides.get("seed", 0) < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {args.seed}")
        if overrides.get("max_iterations", 1) < 1:
            raise ConfigError(f"max_iterations must be an integer >= 1, got {args.max_iters}")
        return dispatch[args.command](args.config, args.out, overrides)
    except (ConfigError, DomainError, UnsupportedOperationError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except HadamardIterError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
