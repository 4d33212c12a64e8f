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
import functools
import inspect
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Mapping

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
from .fixtures import _BIFUNCTIONS, _OBJECTIVES, bifunction_fixture, objective_fixture
from .geometry import (
    ModelSpace,
    Spider,
    point_from_config,
    point_to_config,
    set_from_config,
    space_from_config,
)
from .operators import _CATALOG as _OPERATORS
from .operators import catalog_operator, ishikawa_operator
from .resolvents import equilibrium_resolvent_operator, lipschitz_resolvent_operator
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


def _require_keys(d: Mapping, ctx: str, required: set[str], optional: set[str]) -> None:
    if not isinstance(d, Mapping):
        raise ConfigError(f"{ctx} must be an object, got {type(d).__name__}")
    unknown = set(d) - required - optional
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {ctx}")
    missing = sorted(required - set(d))
    if missing:
        what = f"key {missing[0]!r}" if len(missing) == 1 else f"keys {missing}"
        raise ConfigError(f"missing {what} in {ctx}")


def _outputs(cfg: Mapping, defaults: dict[str, str]) -> dict[str, str]:
    """The file names of ``cfg``'s ``outputs`` object over ``defaults``; each
    must be a nonempty string."""
    outputs = cfg.get("outputs", {})
    _require_keys(outputs, "outputs", set(), set(defaults))
    for key, name in outputs.items():
        _file_name(name, f"output {key!r}")
    return {**defaults, **outputs}


def _file_name(name: Any, what: str) -> str:
    if not (isinstance(name, str) and name):
        raise ConfigError(f"{what} must be a file name, got {name!r}")
    return name


def _num(desc: Mapping, key: str, ctx: str, default: Any = None, kind: type = float):
    """``desc[key]`` as a number, or ``default`` when the key is absent; a
    missing required key or a non-numeric value is a config error."""
    if key not in desc:
        if default is None:
            raise ConfigError(f"missing key {key!r} in {ctx}")
        return default
    try:
        return kind(desc[key])
    except (TypeError, ValueError):
        raise ConfigError(f"{key!r} in {ctx} must be a number, got {desc[key]!r}") from None


# ---------------------------------------------------------------------------
# descriptor parsing
# ---------------------------------------------------------------------------

def _parse_source(space: ModelSpace, desc: Mapping):
    _require_keys(desc, "source", set(), {"operator", "objective", "bifunction"})
    if len(desc) != 1:
        raise ConfigError("source must contain exactly one of operator/objective/bifunction")
    (kind, d), = desc.items()
    return _parse_descriptor(space, kind, d)


def _parse_descriptor(space: ModelSpace, kind: str, desc: Mapping):
    """An operator, objective or bifunction from its descriptor: a catalogue
    ``name`` plus the keyword parameters of that entry's builder, with
    ``set`` read as a convex set (``cset``) and ``point`` as a point. A
    builder parameter without a default is a required key, and one
    annotated ``float`` is read as a number."""
    factory, catalogue = {
        "operator": (catalog_operator, _OPERATORS),
        "objective": (objective_fixture, _OBJECTIVES),
        "bifunction": (bifunction_fixture, _BIFUNCTIONS),
    }[kind]
    if not isinstance(desc, Mapping) or not isinstance(desc.get("name"), str):
        raise ConfigError(f"{kind} descriptor must be an object with a string 'name'")
    d = dict(desc)
    name = d.pop("name")
    if name in catalogue:  # an unknown name is the factory's error
        ctx = f"{kind} {name!r}"
        params = list(inspect.signature(catalogue[name]).parameters.values())[1:]
        keys = {"set" if p.name == "cset" else p.name: p for p in params}
        unknown = set(d) - set(keys)
        if unknown:
            raise ConfigError(f"unknown keys {sorted(unknown)} in {ctx}; "
                              f"accepted keys: {['name', *keys]}")
        for key, p in keys.items():
            if key not in d and p.default is p.empty:
                raise ConfigError(f"missing key {key!r} in {ctx}")
            if key in d and p.annotation in (float, "float"):
                d[key] = _num(d, key, ctx)
    if "set" in d:
        d["cset"] = set_from_config(space, d.pop("set"))
    if "point" in d:
        d["point"] = point_from_config(space, d["point"])
    return factory(space, name, **d)


def _anchor_constant(value: float) -> Schedule:
    raise ConfigError(
        "anchor weights must tend to 0 with a divergent sum; a constant "
        "schedule violates the limit requirement"
    )


def _mann_power(scale: float, offset: float, power: float) -> Schedule:
    # the first weight is the bound: the weights must not grow
    check_power_term("Mann weights scale/(k+offset)^power", offset, power)
    return Schedule(lambda k: inverse_power(scale, k + offset, power), ScheduleClass.MANN_PARAM,
                    upper_bound=inverse_power(scale, 1.0 + offset, power))


def _vanishing_constant(value: float) -> Schedule:
    if value != 0.0:
        raise ConfigError("inner Ishikawa weights must tend to 0; "
                          "a nonzero constant never vanishes")
    return vanishing_schedule(0.0)


def _power_floor(floor: float, scale: float, power: float) -> Schedule:
    # the parameters must stay between floor and floor + scale
    check_power_term("resolvent parameters floor + scale/k^power", 0.0, power)
    return resolvent_schedule(lambda k: floor + inverse_power(scale, k, power),
                              lower=floor, upper=floor + scale)


# role -> (what the role's weights are, kind -> (builder, the keys it reads
# with their defaults; None marks a required key))
_SCHEDULE_KINDS = {
    "anchor": ("anchor weights", {
        "power": (halpern_schedule, {"scale": 1.0, "offset": 1.0, "power": 1.0}),
        "constant": (_anchor_constant, {"value": None})}),
    "alpha": ("Mann weights", {
        "constant": (mann_constant, {"value": None}),
        "power": (_mann_power, {"scale": 0.5, "offset": 1.0, "power": 1.0})}),
    "beta": ("vanishing weights", {
        "constant": (_vanishing_constant, {"value": None}),
        "inverse_k": (vanishing_schedule, {"scale": 1.0, "power": 1.0})}),
    "lambda": ("resolvent parameters", {
        "constant": (resolvent_constant, {"value": None}),
        "power_floor": (_power_floor, {"floor": 0.0, "scale": 1.0, "power": 1.0})}),
}


def _parse_schedule(role: str, desc: Mapping) -> Schedule:
    ctx = f"schedule {role!r}"
    what, kinds = _SCHEDULE_KINDS[role]
    if not isinstance(desc, Mapping) or not isinstance(desc.get("kind"), str):
        raise ConfigError(f"{ctx} must be an object with a string 'kind'")
    kind = desc["kind"]
    if kind not in kinds:
        raise ConfigError(f"schedule kind {kind!r} cannot serve as {what}")
    build, keys = kinds[kind]
    accepted = ["kind", *keys]
    unknown = set(desc) - set(accepted)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {ctx} of kind {kind!r}; "
                          f"accepted keys: {accepted}")
    return build(*(_num(desc, key, ctx, default) for key, default in keys.items()))


RUN_KEYS_REQUIRED = {"space", "scheme", "source", "schedules", "start"}
RUN_KEYS_OPTIONAL = {"anchor", "max_iterations", "tolerance", "reference",
                     "trace_stride", "seed", "outputs"}


def parse_run_config(cfg: Mapping, overrides: Mapping | None = None
                     ) -> tuple[BuiltScheme, RunConfig, dict]:
    _require_keys(cfg, "run config", RUN_KEYS_REQUIRED, RUN_KEYS_OPTIONAL)
    overrides = overrides or {}
    space = space_from_config(cfg["space"])
    source = _parse_source(space, cfg["source"])
    _require_keys(cfg["schedules"], "schedules", set(), set(_SCHEDULE_KINDS))
    schedules = {role: _parse_schedule(role, d) for role, d in cfg["schedules"].items()}
    built = build_scheme(cfg["scheme"], source, schedules)

    anchor = cfg.get("anchor")
    reference = cfg.get("reference")
    merged = {**cfg, **overrides}
    run_cfg = RunConfig(
        space=space,
        start=point_from_config(space, cfg["start"]),
        anchor=point_from_config(space, anchor) if anchor is not None else None,
        max_iterations=_num(merged, "max_iterations", "run config", 100_000, int),
        tolerance=_num(cfg, "tolerance", "run config", 1e-10),
        reference=point_from_config(space, reference) if reference is not None else None,
        trace_stride=cfg.get("trace_stride"),
        seed=_num(merged, "seed", "run config", 0, int),
    )
    check_entry(built.sequence, run_cfg, built.anchor_schedule)  # what the engine rejects at entry
    outputs = _outputs(cfg, {"trace": "trace.csv", "summary": "summary.json"})
    return built, run_cfg, outputs


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
    "sqn_inequality": ({"name", "variant"}, {"witness", "samples", "scale"}),
    "nested_fixed_sets": ({"name", "objective", "lambda", "mu", "candidates"}, set()),
    "fejer": ({"name", "run", "witness"}, set()),
    "halpern_target": ({"name", "run", "fixed_set", "tolerance"}, set()),
}

# sqn_inequality variant -> (the descriptor key it builds from, the keys it
# accepts besides those of every sqn_inequality check)
SQN_VARIANT_KEYS = {"ishikawa": ("operator", {"alpha", "beta"}),
                    "lipschitz_resolvent": ("operator", {"lambda"}),
                    "equilibrium_resolvent": ("bifunction", {"lambda"})}


def _parse_embedded(space: ModelSpace, desc: Mapping, seed: int) -> tuple[BuiltScheme, RunConfig]:
    built, run_cfg, _ = parse_run_config(desc, {"seed": seed})
    if run_cfg.space != space:
        raise ConfigError("embedded run uses a different space than the check config")
    return built, run_cfg


def _parse_check(space: ModelSpace, desc: Mapping, seed: int) -> Callable[[], CheckReport]:
    """The check ``desc`` names, with every field read and validated, as a
    call that runs it."""
    if not isinstance(desc, Mapping):
        raise ConfigError(f"a check must be an object, got {desc!r}")
    name = desc.get("name")
    if name not in CHECK_KEYS:
        raise ConfigError(f"unknown check {name!r}; known: {sorted(CHECK_KEYS)}")
    required, optional = CHECK_KEYS[name]
    ctx = f"check {name!r}"
    if name == "sqn_inequality" and "variant" in desc:
        variant = desc["variant"]
        if variant not in SQN_VARIANT_KEYS:
            raise ConfigError(f"unknown sqn variant {variant!r}")
        source_key, extra = SQN_VARIANT_KEYS[variant]
        _require_keys(desc, f"{ctx} of variant {variant!r}", required | {source_key},
                      optional | extra)
    else:
        _require_keys(desc, ctx, required, optional)
    if name == "space_axioms":
        return functools.partial(check_space_axioms, space,
                                 samples=_num(desc, "samples", ctx, 1000, int),
                                 seed=seed, scale=_num(desc, "scale", ctx, 2.0))
    if name == "quasi_firm":
        f = _parse_descriptor(space, "objective", desc["objective"])
        witness = (point_from_config(space, desc["witness"])
                   if "witness" in desc else f.known_argmin)
        if witness is None:
            raise ConfigError("quasi_firm needs a witness or an objective with known argmin")
        return functools.partial(check_quasi_firm, f, _num(desc, "lambda", ctx), witness,
                                 samples=_num(desc, "samples", ctx, 500, int), seed=seed,
                                 scale=_num(desc, "scale", ctx, 2.0))
    if name == "sqn_inequality":
        source = _parse_descriptor(space, source_key, desc[source_key])
        if variant == "ishikawa":
            op = ishikawa_operator(source, _num(desc, "alpha", ctx, 0.5),
                                   _num(desc, "beta", ctx, 0.0))
        elif variant == "lipschitz_resolvent":
            op = lipschitz_resolvent_operator(source, _num(desc, "lambda", ctx))
        else:
            op = equilibrium_resolvent_operator(source, _num(desc, "lambda", ctx))
        witness = (point_from_config(space, desc["witness"])
                   if "witness" in desc else None)
        return functools.partial(check_sqn_inequality, op, witness,
                                 samples=_num(desc, "samples", ctx, 500, int), seed=seed,
                                 scale=_num(desc, "scale", ctx, 2.0))
    if name == "nested_fixed_sets":
        f = _parse_descriptor(space, "objective", desc["objective"])
        if not isinstance(desc["candidates"], list):
            raise ConfigError(f"'candidates' in {ctx} must be a list of points")
        cands = [point_from_config(space, p) for p in desc["candidates"]]
        return functools.partial(check_nested_fixed_sets, f, _num(desc, "lambda", ctx),
                                 _num(desc, "mu", ctx), cands)
    built, run_cfg = _parse_embedded(space, desc["run"], seed)
    if name == "fejer":
        witness = point_from_config(space, desc["witness"])
        return lambda: check_fejer(space, built.run(run_cfg), witness)
    if run_cfg.anchor is None:
        raise ConfigError(f"{ctx} needs an embedded run with an 'anchor'")
    fixed_set = set_from_config(space, desc["fixed_set"])
    tolerance = _num(desc, "tolerance", ctx)
    return lambda: check_halpern_target(space, built.run(run_cfg), run_cfg.anchor, fixed_set,
                                        tolerance)


def cmd_check(config_path: str, out_dir: str, overrides: Mapping | None = None) -> int:
    """Read and validate every check of the config, then run them in order."""
    cfg = _load_json(config_path)
    _require_keys(cfg, "check config", {"space", "checks"}, {"seed", "outputs"})
    overrides = overrides or {}
    space = space_from_config(cfg["space"])
    seed = _num({**cfg, **overrides}, "seed", "check config", 0, int)
    if not isinstance(cfg["checks"], list):
        raise ConfigError("'checks' in check config must be a list of checks")
    checks = [_parse_check(space, desc, seed) for desc in cfg["checks"]]
    out_name = _outputs(cfg, {"reports": "reports.json"})["reports"]
    reports = [run() for run in checks]
    bundle = {"all_passed": all(r.passed for r in reports),
              "seed": seed,
              "reports": [r.to_dict() for r in reports]}
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
    for p, values in grid.items():
        if not isinstance(values, list):
            raise ConfigError(f"grid path {p!r} needs a list of values, got {values!r}")
        if not values:
            raise ConfigError(f"grid path {p!r} has an empty list of values")
    out_name = _file_name(cfg.get("output", "sweep.csv"), "sweep output")
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
