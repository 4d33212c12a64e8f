"""Iteration engine and named scheme wiring.

One loop runs every scheme in the package:

    x_{k+1} = a_k u (+) (1 - a_k) T_k x_k,   or x_{k+1} = T_k x_k without u,

where u is the anchor and the anchor weights a_k tend to 0 with divergent
sum; ``halpern_iterate`` and ``iterate_sequence`` are its entry points. Runs
are indexed from k = 1; the start point is x_1. A run stops when the step
movement d(x_k, x_{k+1}) drops below the tolerance (without an anchor this
is the residual d(x_k, T_k x_k); with one the residual need not vanish
monotonically) or at the iteration budget. An error raised by a step ends
the run as a solver error that keeps the trace so far; invalid start,
anchor or reference points and an invalid trace stride raise before the
first step.

Validate at entry, not inside the loop: a step checks only the operator's
output T_k x_k, once, inside its error handling: by the residual's public
``distance`` without an anchor, by the public ``combine`` that mixes in u
with one. Every other distance is between checked points: ``_distance``.

All built-in schemes are Fejer monotone toward the common fixed set without
an anchor; with one, d(x_k, x*) stays bounded by max(d(x*, u), d(x*, x_1)).
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import ConfigError, HadamardIterError
from .geometry import ModelSpace, SpacePoint
from .operators import OperatorSequence, OperatorSpec, ishikawa_sequence, mann_sequence
from .resolvents import Bifunction, ObjectiveFunction, resolvent_sequence
from .schedules import Schedule, ScheduleClass, require_class


class StopReason(enum.Enum):
    CONVERGED = "converged"
    BUDGET_EXHAUSTED = "budget_exhausted"
    SOLVER_ERROR = "solver_error"


@dataclass(frozen=True, eq=False, slots=True)
class TraceStep:
    k: int
    point: SpacePoint
    residual: float
    dist_to_reference: float | None
    fejer_gap: float | None


@dataclass(frozen=True, eq=False)
class RunSummary:
    iterations_run: int
    final_residual: float
    final_point: SpacePoint
    stop_reason: StopReason
    error_step: int | None = None
    error_message: str | None = None
    target_distance: float | None = None


@dataclass(frozen=True, eq=False)
class IterationTrace:
    steps: list[TraceStep]
    summary: RunSummary


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Everything an engine needs besides the operator sequence itself.

    ``reference`` is an optional known target; when present the trace
    records distances to it and the Fejer gaps d(x_k, ref) - d(x_{k+1}, ref).
    ``trace_stride`` None means: record every step up to 1000, then thin
    logarithmically; a positive int n records k = 1 and every multiple of n.
    The final step is always recorded.
    """

    space: ModelSpace
    start: SpacePoint
    anchor: SpacePoint | None = None
    max_iterations: int = 100_000
    tolerance: float = 1e-10
    reference: SpacePoint | None = None
    trace_stride: int | None = None
    seed: int = 0


def _recorded_steps(stride: int | None) -> Iterator[int]:
    """The steps k a trace records, in increasing order (the last step of a
    run is recorded as well). With a stride n: k = 1 and every multiple of
    n. Without one: every k up to 1001, then m_1, m_2, ... with m_0 = 1000
    and m_{i+1} = max(m_i + 1, int(1.1 m_i)): 1100, 1210, 1331, ..."""
    if stride is not None:
        yield 1
        yield from itertools.count(max(stride, 2), stride)
    else:
        yield from range(1, 1002)
        k = 1000
        while True:
            k = max(k + 1, int(k * 1.1))
            yield k


def iterate_sequence(seq: OperatorSequence, cfg: RunConfig) -> IterationTrace:
    """Run x_{k+1} = T_k x_k until the residual meets the tolerance."""
    return _iterate(seq, None, cfg)


def halpern_iterate(seq: OperatorSequence, anchors: Schedule, cfg: RunConfig) -> IterationTrace:
    """Run x_{k+1} = a_k u (+) (1 - a_k) T_k x_k; stop on step movement."""
    return _iterate(seq, anchors, cfg)


def check_entry(seq: OperatorSequence, cfg: RunConfig, anchors: Schedule | None) -> None:
    """Raise what the loop raises before its first step: the sequence acts
    on the run's space, anchor weights (``anchors``) need an anchor point
    and a plain run takes none, the budget is an int >= 1, the tolerance is
    a finite number >= 0 and no bool, the trace stride is None or a positive
    int, and the start, anchor and reference points belong to the run's
    space. Callers that validate configs before running any
    (``cli.parse_run_config``) call it too."""
    if seq.space != cfg.space:
        raise ConfigError(f"the operator sequence acts on {seq.space.space_id!r}, "
                          f"but the run is on {cfg.space.space_id!r}")
    if anchors is None:
        if cfg.anchor is not None:
            raise ConfigError("anchor point given, but the plain sequence iteration has no anchor")
    else:
        require_class(anchors, ScheduleClass.HALPERN_ANCHOR, "anchor")
        if cfg.anchor is None:
            raise ConfigError("Halpern iteration needs an anchor point u")
    budget, tol = cfg.max_iterations, cfg.tolerance
    if not (type(budget) is int and budget >= 1):
        raise ConfigError(f"max_iterations must be an integer >= 1, got {budget!r}")
    if not (isinstance(tol, (int, float)) and type(tol) is not bool and 0.0 <= tol < math.inf):
        raise ConfigError(f"tolerance must be finite and >= 0, got {tol!r}")
    stride = cfg.trace_stride
    if stride is not None and not (type(stride) is int and stride >= 1):
        raise ConfigError(f"trace_stride must be a positive integer or None, got {stride!r}")
    for p in (cfg.start, cfg.anchor, cfg.reference):
        if p is not None:
            cfg.space.check_point(p)


def _iterate(seq, anchors, cfg) -> IterationTrace:
    """The one loop: x_{k+1} = a_k u (+) (1 - a_k) T_k x_k, or T_k x_k when
    the config has no anchor. It stops when the step movement d(x_k, x_{k+1})
    meets the tolerance; without an anchor that movement is the residual."""
    check_entry(seq, cfg, anchors)
    space = cfg.space
    factory = seq.factory
    dist = space._distance
    tol = cfg.tolerance
    budget = cfg.max_iterations
    u = cfg.anchor
    ref = cfg.reference
    recorded = _recorded_steps(cfg.trace_stride)
    next_recorded = next(recorded)
    steps: list[TraceStep] = []
    x = cfg.start
    k = 1
    while True:
        try:
            x_next = w = factory(k).apply(x)
            if u is None:
                res = move = space.distance(x, w)
            else:
                x_next = space.combine(u, w, 1.0 - anchors(k))
                res, move = dist(x, w), dist(x, x_next)
        except HadamardIterError as err:
            return _finish(steps, space, cfg, x, float("nan"), k - 1, StopReason.SOLVER_ERROR,
                           k, str(err))
        if not (math.isfinite(res) and (move is res or math.isfinite(move))):
            return _finish(steps, space, cfg, x, res, k - 1, StopReason.SOLVER_ERROR, k,
                           f"non-finite residual at step {k}")
        done = move <= tol or k >= budget
        if done or k == next_recorded:
            next_recorded = next(recorded)  # moot when done: the run ends here
            if ref is None:
                steps.append(TraceStep(k, x, res, None, None))
            else:
                dx = dist(x, ref)
                steps.append(TraceStep(k, x, res, dx, dx - dist(x_next, ref)))
        if done:
            return _finish(steps, space, cfg, x_next, res, k,
                           StopReason.CONVERGED if move <= tol else StopReason.BUDGET_EXHAUSTED)
        x = x_next
        k += 1


def _finish(steps, space, cfg, final, res, iterations, reason,
            error_step=None, error_message=None) -> IterationTrace:
    target = space.distance(final, cfg.reference) if cfg.reference is not None else None
    return IterationTrace(
        steps=steps,
        summary=RunSummary(
            iterations_run=iterations, final_residual=res, final_point=final,
            stop_reason=reason, error_step=error_step, error_message=error_message,
            target_distance=target,
        ),
    )


# ---------------------------------------------------------------------------
# named schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BuiltScheme:
    name: str
    sequence: OperatorSequence
    anchor_schedule: Schedule | None
    guarantee: str

    def run(self, cfg: RunConfig) -> IterationTrace:
        if self.anchor_schedule is not None:
            return halpern_iterate(self.sequence, self.anchor_schedule, cfg)
        return iterate_sequence(self.sequence, cfg)


_ROLE_CLASSES = {
    "anchor": (ScheduleClass.HALPERN_ANCHOR,
               "anchor weights with limit 0 and divergent sum"),
    "alpha": (ScheduleClass.MANN_PARAM,
              "averaging weights with limsup < 1"),
    "beta": (ScheduleClass.VANISHING_PARAM,
             "inner weights tending to 0"),
    "lambda": (ScheduleClass.RESOLVENT_PARAM,
               "regularization parameters bounded away from 0"),
}

_HALPERN_FIXED_SET = ("strong convergence to the projection of the anchor onto the fixed "
                      "set of the base map")

# base scheme -> (schedule roles, source kind, convergence guarantee, guarantee
# of its Halpern form); ``halpern_<base>`` runs the base's operator sequence
# with an "anchor" role and an anchor point
_SCHEMES: dict[str, tuple[tuple[str, ...], type, str, str]] = {
    "ishikawa": (
        ("alpha", "beta"), OperatorSpec,
        "Delta-convergence of the two-level averaged iteration to a fixed "
        "point of the demiclosed quasi-nonexpansive base map",
        _HALPERN_FIXED_SET,
    ),
    "mann": (
        ("alpha",), OperatorSpec,
        "Delta-convergence of the averaged iteration to a fixed point of "
        "the demiclosed quasi-nonexpansive base map",
        _HALPERN_FIXED_SET,
    ),
    "ppa": (
        ("lambda",), ObjectiveFunction,
        "convergence of the proximal point algorithm to a resolvent fixed "
        "point (a minimizer when the objective is pseudo-convex)",
        "strong convergence to the projection of the anchor onto the "
        "minimizer set of the convex objective",
    ),
    "ppa_lipschitz": (
        ("lambda",), OperatorSpec,
        "Delta-convergence of the resolvent iteration to a fixed point of "
        "the Lipschitz quasi-nonexpansive map",
        "strong convergence to the projection of the anchor onto the fixed "
        "set of the Lipschitz map",
    ),
    "ppa_equilibrium": (
        ("lambda",), Bifunction,
        "Delta-convergence of the resolvent iteration to an equilibrium "
        "point of the pseudo-monotone bifunction",
        "strong convergence to the projection of the anchor onto the "
        "equilibrium set",
    ),
}


def scheme_names() -> list[str]:
    return sorted([*_SCHEMES, *("halpern_" + base for base in _SCHEMES)])


def build_scheme(
    name: str,
    source: OperatorSpec | ObjectiveFunction | Bifunction,
    schedules: dict[str, Schedule],
) -> BuiltScheme:
    """Wire a named scheme: validates schedule roles and classes against the
    scheme's hypotheses and dispatches to the operator or resolvent family.
    ``halpern_<base>`` is the base scheme's sequence run with anchor weights.
    Pure wiring; all mathematics lives in the operator and resolvent modules.
    """
    base = name.removeprefix("halpern_")
    if base not in _SCHEMES:
        raise ConfigError(f"unknown scheme {name!r}; known: {scheme_names()}")
    roles, source_type, guarantee, anchored = _SCHEMES[base]
    if base != name:
        roles, guarantee = ("anchor", *roles), anchored
    if not isinstance(source, source_type):
        raise ConfigError(
            f"scheme {name!r} drives a {source_type.__name__}, "
            f"got {type(source).__name__}"
        )
    for role in roles:
        cls, hypothesis = _ROLE_CLASSES[role]
        if role not in schedules:
            raise ConfigError(f"scheme {name!r} needs schedule {role!r} ({hypothesis})")
        require_class(schedules[role], cls, role)
    extra = set(schedules) - set(roles)
    if extra:
        raise ConfigError(f"scheme {name!r} does not use schedules {sorted(extra)}")

    # the sequence builders are looked up here, at call time, so that a
    # module-level replacement of them (a span tracer) is the one called
    if base == "ishikawa":
        seq = ishikawa_sequence(source, schedules["alpha"], schedules["beta"])
    elif base == "mann":
        seq = mann_sequence(source, schedules["alpha"])
    else:
        seq = resolvent_sequence(source, schedules["lambda"])

    return BuiltScheme(
        name=name, sequence=seq,
        anchor_schedule=schedules.get("anchor"), guarantee=guarantee,
    )
