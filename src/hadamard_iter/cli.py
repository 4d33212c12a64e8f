"""Experiment runner: ``run``, ``check`` and ``sweep`` subcommands.

Configs are single JSON files. Exit codes: 0 converged (or all checks
passed), 1 config error, 2 iteration budget exhausted, 3 solver error.
Trace CSVs are written with 17 significant digits so reruns with the same
config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Mapping

from .diagnostics import (
    CheckReport,
    check_fejer,
    check_halpern_target,
    check_nested_fixed_sets,
    check_quasi_firm,
    check_space_axioms,
    check_sqn_inequality,
)
from .errors import ConfigError, DomainError, HadamardIterError, UnsupportedOperationError
from .fixtures import bifunction_fixture, objective_fixture
from .geometry import (
    ModelSpace,
    Spider,
    point_from_config,
    point_to_config,
    set_from_config,
    space_from_config,
)
from .operators import catalog_operator, ishikawa_operator
from .resolvents import equilibrium_resolvent_operator, lipschitz_resolvent_operator
from .schedules import (
    Schedule,
    ScheduleClass,
    halpern_schedule,
    mann_constant,
    resolvent_constant,
    resolvent_schedule,
    vanishing_schedule,
)
from .schemes import BuiltScheme, IterationTrace, RunConfig, StopReason, build_scheme

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BUDGET = 2
EXIT_SOLVER = 3


def _require_keys(d: Mapping, ctx: str, required: set[str], optional: set[str]) -> None:
    if not isinstance(d, Mapping):
        raise ConfigError(f"{ctx} must be an object, got {type(d).__name__}")
    unknown = set(d) - required - optional
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {ctx}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {ctx}")


# ---------------------------------------------------------------------------
# descriptor parsing
# ---------------------------------------------------------------------------

def _parse_source(space: ModelSpace, desc: Mapping):
    _require_keys(desc, "source", set(), {"operator", "objective", "bifunction"})
    if len(desc) != 1:
        raise ConfigError("source must contain exactly one of operator/objective/bifunction")
    if "operator" in desc:
        return _parse_operator(space, desc["operator"])
    if "objective" in desc:
        return _parse_objective(space, desc["objective"])
    return _parse_bifunction(space, desc["bifunction"])


def _parse_operator(space: ModelSpace, desc: Mapping):
    d = dict(desc)
    name = d.pop("name", None)
    if name is None:
        raise ConfigError("operator descriptor needs a 'name'")
    if "set" in d:
        d["cset"] = set_from_config(space, d.pop("set"))
    if "point" in d:
        d["point"] = point_from_config(space, d["point"])
    return catalog_operator(space, name, **d)


def _parse_objective(space: ModelSpace, desc: Mapping):
    d = dict(desc)
    name = d.pop("name", None)
    if name is None:
        raise ConfigError("objective descriptor needs a 'name'")
    if "set" in d:
        d["cset"] = set_from_config(space, d.pop("set"))
    return objective_fixture(space, name, **d)


def _parse_bifunction(space: ModelSpace, desc: Mapping):
    d = dict(desc)
    name = d.pop("name", None)
    if name is None:
        raise ConfigError("bifunction descriptor needs a 'name'")
    if "set" in d:
        d["cset"] = set_from_config(space, d.pop("set"))
    return bifunction_fixture(space, name, **d)


def _parse_schedule(role: str, desc: Mapping) -> Schedule:
    _require_keys(desc, f"schedule {role!r}", {"kind"},
                  {"value", "scale", "offset", "power", "floor"})
    kind = desc["kind"]
    if role == "anchor":
        if kind == "power":
            return halpern_schedule(desc.get("scale", 1.0), desc.get("offset", 1.0),
                                    desc.get("power", 1.0))
        if kind == "constant":
            raise ConfigError(
                "anchor weights must tend to 0 with a divergent sum; a constant "
                "schedule violates the limit requirement"
            )
        raise ConfigError(f"schedule kind {kind!r} cannot serve as anchor weights")
    if role == "alpha":
        if kind == "constant":
            return mann_constant(float(desc["value"]))
        if kind == "power":
            scale = float(desc.get("scale", 0.5))
            offset = float(desc.get("offset", 1.0))
            power = float(desc.get("power", 1.0))
            top = scale / (1.0 + offset) ** power
            return Schedule(lambda k: scale / (k + offset) ** power,
                            ScheduleClass.MANN_PARAM, upper_bound=top,
                            description=f"{scale}/(k+{offset})^{power}")
        raise ConfigError(f"schedule kind {kind!r} cannot serve as Mann weights")
    if role == "beta":
        if kind == "constant":
            if float(desc["value"]) != 0.0:
                raise ConfigError("inner Ishikawa weights must tend to 0; "
                                  "a nonzero constant never vanishes")
            return vanishing_schedule(0.0)
        if kind == "inverse_k":
            return vanishing_schedule(desc.get("scale", 1.0), desc.get("power", 1.0))
        raise ConfigError(f"schedule kind {kind!r} cannot serve as vanishing weights")
    if role == "lambda":
        if kind == "constant":
            return resolvent_constant(float(desc["value"]))
        if kind == "power_floor":
            floor = float(desc.get("floor", 0.0))
            scale = float(desc.get("scale", 1.0))
            power = float(desc.get("power", 1.0))
            top = floor + scale
            return resolvent_schedule(lambda k: floor + scale / k ** power,
                                      lower=floor, upper=top,
                                      description=f"{floor}+{scale}/k^{power}")
        raise ConfigError(f"schedule kind {kind!r} cannot serve as resolvent parameters")
    raise ConfigError(f"unknown schedule role {role!r}")


RUN_KEYS_REQUIRED = {"space", "scheme", "source", "schedules", "start"}
RUN_KEYS_OPTIONAL = {"anchor", "max_iterations", "tolerance", "reference",
                     "trace_stride", "seed", "outputs"}


def parse_run_config(cfg: Mapping, overrides: Mapping | None = None
                     ) -> tuple[BuiltScheme, RunConfig, dict]:
    _require_keys(cfg, "run config", RUN_KEYS_REQUIRED, RUN_KEYS_OPTIONAL)
    overrides = overrides or {}
    space = space_from_config(cfg["space"])
    source = _parse_source(space, cfg["source"])
    schedules = {role: _parse_schedule(role, d) for role, d in cfg["schedules"].items()}
    built = build_scheme(cfg["scheme"], source, schedules)

    anchor = cfg.get("anchor")
    reference = cfg.get("reference")
    run_cfg = RunConfig(
        space=space,
        start=point_from_config(space, cfg["start"]),
        anchor=point_from_config(space, anchor) if anchor is not None else None,
        max_iterations=int(overrides.get("max_iterations", cfg.get("max_iterations", 100_000))),
        tolerance=float(cfg.get("tolerance", 1e-10)),
        reference=point_from_config(space, reference) if reference is not None else None,
        trace_stride=(int(cfg["trace_stride"]) if cfg.get("trace_stride") else None),
        seed=int(overrides.get("seed", cfg.get("seed", 0))),
    )
    outputs = dict(cfg.get("outputs", {}))
    _require_keys(outputs, "outputs", set(), {"trace", "summary"})
    outputs.setdefault("trace", "trace.csv")
    outputs.setdefault("summary", "summary.json")
    return built, run_cfg, outputs


# ---------------------------------------------------------------------------
# output writing
# ---------------------------------------------------------------------------

def _fmt(v: float | None) -> str:
    return "" if v is None else format(v, ".17g")


def _coord_header(space: ModelSpace) -> list[str]:
    if isinstance(space, Spider):
        return ["leg", "radius"]
    n = space.base_point().coords.shape[0]
    return [f"x{i}" for i in range(n)]


def trace_csv_lines(space: ModelSpace, trace: IterationTrace) -> list[str]:
    header = ["k", *_coord_header(space), "residual", "dist_to_reference", "fejer_gap"]
    lines = [",".join(header)]
    for s in trace.steps:
        coords = [_fmt(float(c)) for c in s.point.coords]
        lines.append(",".join([str(s.k), *coords, _fmt(s.residual),
                               _fmt(s.dist_to_reference), _fmt(s.fejer_gap)]))
    return lines


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
        "scheme": s.scheme,
        "guarantee": s.guarantee,
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
    trace = built.run(run_cfg)
    out = Path(out_dir)
    _atomic_write(out / outputs["trace"],
                  "\n".join(trace_csv_lines(run_cfg.space, trace)) + "\n")
    summary = summary_dict(run_cfg.space, built, trace, run_cfg.seed)
    _atomic_write(out / outputs["summary"],
                  json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"{summary['scheme']}: {summary['stop_reason']} after "
          f"{summary['iterations']} iterations, final residual "
          f"{_fmt(summary['final_residual'])}"
          + (f", target distance {_fmt(summary['target_distance'])}"
             if summary["target_distance"] is not None else ""))
    return _stop_exit_code(trace.summary.stop_reason)


CHECK_KEYS = {
    "space_axioms": ({"name"}, {"samples", "scale"}),
    "quasi_firm": ({"name", "objective", "lambda"}, {"witness", "samples", "scale"}),
    "sqn_inequality": ({"name", "variant"},
                       {"operator", "bifunction", "alpha", "beta", "lambda",
                        "witness", "samples", "scale"}),
    "nested_fixed_sets": ({"name", "objective", "lambda", "mu", "candidates"}, set()),
    "fejer": ({"name", "run", "witness"}, set()),
    "halpern_target": ({"name", "run", "fixed_set", "tolerance"}, set()),
}


def _run_embedded(space: ModelSpace, desc: Mapping, seed: int) -> tuple[IterationTrace, RunConfig]:
    built, run_cfg, _ = parse_run_config(desc, {"seed": seed})
    if run_cfg.space != space:
        raise ConfigError("embedded run uses a different space than the check config")
    return built.run(run_cfg), run_cfg


def _build_check(space: ModelSpace, desc: Mapping, seed: int) -> CheckReport:
    name = desc.get("name")
    if name not in CHECK_KEYS:
        raise ConfigError(f"unknown check {name!r}; known: {sorted(CHECK_KEYS)}")
    required, optional = CHECK_KEYS[name]
    _require_keys(desc, f"check {name!r}", required, optional)
    if name == "space_axioms":
        return check_space_axioms(space, samples=int(desc.get("samples", 1000)),
                                  seed=seed, scale=float(desc.get("scale", 2.0)))
    if name == "quasi_firm":
        f = _parse_objective(space, desc["objective"])
        witness = (point_from_config(space, desc["witness"])
                   if "witness" in desc else f.known_argmin)
        if witness is None:
            raise ConfigError("quasi_firm needs a witness or an objective with known argmin")
        return check_quasi_firm(f, float(desc["lambda"]), witness,
                                samples=int(desc.get("samples", 500)), seed=seed,
                                scale=float(desc.get("scale", 2.0)))
    if name == "sqn_inequality":
        variant = desc["variant"]
        if variant == "ishikawa":
            base = _parse_operator(space, desc["operator"])
            op = ishikawa_operator(base, float(desc.get("alpha", 0.5)),
                                   float(desc.get("beta", 0.0)))
        elif variant == "lipschitz_resolvent":
            base = _parse_operator(space, desc["operator"])
            op = lipschitz_resolvent_operator(base, float(desc["lambda"]))
        elif variant == "equilibrium_resolvent":
            f = _parse_bifunction(space, desc["bifunction"])
            op = equilibrium_resolvent_operator(f, float(desc["lambda"]))
        else:
            raise ConfigError(f"unknown sqn variant {variant!r}")
        witness = (point_from_config(space, desc["witness"])
                   if "witness" in desc else None)
        return check_sqn_inequality(op, witness,
                                    samples=int(desc.get("samples", 500)), seed=seed,
                                    scale=float(desc.get("scale", 2.0)))
    if name == "nested_fixed_sets":
        f = _parse_objective(space, desc["objective"])
        cands = [point_from_config(space, p) for p in desc["candidates"]]
        return check_nested_fixed_sets(f, float(desc["lambda"]), float(desc["mu"]), cands)
    if name == "fejer":
        trace, _ = _run_embedded(space, desc["run"], seed)
        return check_fejer(space, trace, point_from_config(space, desc["witness"]))
    trace, run_cfg = _run_embedded(space, desc["run"], seed)
    return check_halpern_target(space, trace, run_cfg.anchor,
                                set_from_config(space, desc["fixed_set"]),
                                float(desc["tolerance"]))


def cmd_check(config_path: str, out_dir: str, overrides: Mapping | None = None) -> int:
    cfg = _load_json(config_path)
    _require_keys(cfg, "check config", {"space", "checks"}, {"seed", "outputs"})
    overrides = overrides or {}
    space = space_from_config(cfg["space"])
    seed = int(overrides.get("seed", cfg.get("seed", 0)))
    reports = [_build_check(space, desc, seed) for desc in cfg["checks"]]
    bundle = {"all_passed": all(r.passed for r in reports),
              "seed": seed,
              "reports": [r.to_dict() for r in reports]}
    out_name = dict(cfg.get("outputs", {})).get("reports", "reports.json")
    _atomic_write(Path(out_dir) / out_name,
                  json.dumps(bundle, indent=2, sort_keys=True) + "\n")
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.check_name}: samples={r.samples_tested} "
              f"max_violation={r.max_violation:.3e} violations={len(r.violations)}")
    return EXIT_OK if bundle["all_passed"] else EXIT_CONFIG


def _set_by_path(cfg: dict, dotted: str, value: Any) -> None:
    parts = dotted.split(".")
    node = cfg
    for p in parts[:-1]:
        if not isinstance(node, dict) or p not in node:
            raise ConfigError(f"grid path {dotted!r} does not exist in the base config")
        node = node[p]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigError(f"grid path {dotted!r} does not exist in the base config")
    node[parts[-1]] = value


def _grid_cell(v: Any) -> str:
    # numbers and booleans as in a run's outputs; strings, lists, objects and
    # null as JSON, which the csv module quotes when they hold commas or quotes
    if isinstance(v, float):
        return _fmt(v)
    if isinstance(v, int):
        return str(v)
    return json.dumps(v)


def _sweep_workers(requested: str | None, cells: int, cpus: int | None) -> int:
    """Worker processes for a sweep: min(requested, cpus, cells), at least 1.

    ``requested`` is the value of HADAMARD_ITER_THREADS (8 when unset or
    empty); anything but a positive integer is a config error.
    """
    try:
        n = int(requested) if requested else 8
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"HADAMARD_ITER_THREADS must be a positive integer, got {requested!r}")
    return max(1, min(n, cpus or 1, cells))


def _run_cell(cell_cfg: dict, overrides: Mapping | None) -> list:
    """A sweep row's result columns: iterations, stop reason, final residual
    and target distance."""
    built, run_cfg, _ = parse_run_config(cell_cfg, overrides)
    s = built.run(run_cfg).summary
    return [s.iterations_run, s.stop_reason.value, _fmt(s.final_residual),
            _fmt(s.target_distance)]


def cmd_sweep(config_path: str, out_dir: str, overrides: Mapping | None = None) -> int:
    """Run every cell of the grid and write one CSV row per cell, in grid order.

    Cells run in forked worker processes, as many as the smallest of
    HADAMARD_ITER_THREADS (8 when unset; it counts processes, not threads),
    the CPU count and the number of cells. A cell whose run raises, or whose
    worker dies, gets a ``solver_error`` row with empty numeric fields and a
    message on stderr; the sweep then exits 3 after writing the whole CSV.
    """
    cfg = _load_json(config_path)
    _require_keys(cfg, "sweep config", {"base", "grid"}, {"output"})
    grid = cfg["grid"]
    if not isinstance(grid, Mapping) or not grid:
        raise ConfigError("grid must be a nonempty mapping of config paths to value lists")
    paths = list(grid)
    cells = list(itertools.product(*(grid[p] for p in paths)))
    workers = _sweep_workers(os.environ.get("HADAMARD_ITER_THREADS"), len(cells),
                             os.cpu_count())

    # validate every cell before running anything
    cell_cfgs = []
    for values in cells:
        cell = copy.deepcopy(cfg["base"])
        for p, v in zip(paths, values):
            _set_by_path(cell, p, v)
        parse_run_config(cell, overrides)  # raises ConfigError on any bad cell
        cell_cfgs.append(cell)

    # imported here: the process machinery is not needed by run or check.
    # fork, not the platform default: spawn and forkserver would re-import
    # the package in every worker on every sweep
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    rows, failed = [], 0
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(_run_cell, c, overrides) for c in cell_cfgs]
        for i, (values, fut) in enumerate(zip(cells, futures)):
            try:
                result = fut.result()
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
    out_name = cfg.get("output", "sweep.csv")
    _atomic_write(Path(out_dir) / out_name, buf.getvalue())
    print(f"sweep: {len(cells)} cells -> {Path(out_dir) / out_name}")
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
        return dispatch[args.command](args.config, args.out, overrides)
    except (ConfigError, DomainError, UnsupportedOperationError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except HadamardIterError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
