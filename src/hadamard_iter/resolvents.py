"""Three resolvent constructions, each yielding quasi-nonexpansive operators.

Convex-function resolvent
    J_lam(x) = argmin_y  f(y) + d^2(y, x) / (2 lam)
    Solved by a closed form when the objective carries one, otherwise by
    Riemannian gradient descent in the tangent chart (log/exp maps) with
    Armijo backtracking. For an a-weakly convex f the subproblem is
    (1/(2 lam) - a)-strongly convex.

Lipschitz-map resolvent
    J_lam(x) = the unique fixed point of y -> (1/(1+lam)) x (+) (lam/(1+lam)) T y,
    a contraction with factor c = a lam / (1 + lam) < 1. Solved by
    fixed-point iteration from y0 = x; observed per-step contraction ratios
    are monitored against c.

Equilibrium resolvent
    For a bifunction f on a feasible set K, the point z in K with
    f(z, y) + lam <xz, zy> >= 0  for all y in K. Constructive cases:
    minimization bifunctions reduce to the convex resolvent with parameter
    1/lam, and variational inequalities z = P_K(z - g (F(z) + lam (z - x)))
    are solved by projected fixed-point iteration with g = 1/(L + lam).
    The defining inequality is re-verified on a deterministic sample grid.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ConfigError, DomainError, SolverError, UnsupportedOperationError
from .geometry import (
    ConvexSubset,
    Euclidean,
    Hyperboloid,
    ModelSpace,
    SpacePoint,
    Spider,
    WholeSpace,
    canonical_point,
)
from .operators import OperatorSequence, OperatorSpec
from .schedules import Schedule, ScheduleClass, require_class

PROX_GRAD_TOL = 1e-10
PROX_MAX_ITERS = 10_000
FIXED_POINT_TOL = 1e-12
FIXED_POINT_BUDGET = 1_000_000
VI_TOL = 1e-10
VI_BUDGET = 1_000_000
EQ_INEQUALITY_SLACK = 1e-7
# the equilibrium verification grid, directions x radii: of a one-shot call,
# and of the operator form, which iteration loops call at every step
EQ_GRID = (64, 8)
EQ_OPERATOR_GRID = (8, 2)


@dataclass(frozen=True, eq=False)
class ObjectiveFunction:
    """An extended-real function on a model space with optional structure.

    ``gradient`` returns the Riemannian gradient as an ambient tangent
    vector at the query point, a sequence of floats (a tuple for the built-in
    fixtures); a return without a length, or of another length, is a
    ``DomainError``. ``weak_convexity_alpha`` is the weak
    convexity modulus (0 means convex). ``known_argmin`` may be a point or a
    convex set. A ``closed_form_resolvent`` (lam, x) -> point short-circuits
    the inner solver.
    """

    space: ModelSpace
    eval: Callable[[SpacePoint], float]
    gradient: Callable[[SpacePoint], Sequence[float]] | None = None
    gradient_lipschitz: float | None = None
    weak_convexity_alpha: float | None = None
    known_argmin: SpacePoint | ConvexSubset | None = None
    closed_form_resolvent: Callable[[float, SpacePoint], SpacePoint] | None = None
    name: str = ""


@dataclass(frozen=True, eq=False)
class Minimization:
    """Bifunction structure f(x, y) = g(y) - g(x)."""

    objective: ObjectiveFunction


@dataclass(frozen=True, eq=False)
class VariationalInequality:
    """Bifunction structure f(x, y) = <F(x), y - x> for an L-Lipschitz field;
    ``field`` returns a sequence of floats, as a gradient does."""

    field: Callable[[SpacePoint], Sequence[float]]
    lipschitz: float


@dataclass(frozen=True, eq=False)
class CustomSolver:
    """User-supplied resolvent; output is still verified on samples."""

    solve: Callable[[float, SpacePoint], SpacePoint]


@dataclass(frozen=True, eq=False)
class Bifunction:
    """f : K x K -> R with f(x, x) = 0, theta-under monotone."""

    space: ModelSpace
    eval: Callable[[SpacePoint, SpacePoint], float]
    theta: float
    structure: Minimization | VariationalInequality | CustomSolver
    feasible_set: ConvexSubset
    equilibrium_witness: SpacePoint | None = None


# ---------------------------------------------------------------------------
# entry rules: each resolvent's preconditions, stated once. The one-shot
# solve calls its kind's rule at entry, the operator builder when it builds,
# and resolvent_sequence on the schedule's certified bounds. Each returns the
# upper end of its lam window.
# ---------------------------------------------------------------------------

def _outside(lam: float, lo: float, hi: float, lo_is: str, hi_is: str) -> DomainError:
    # the error of a lam outside (lo, hi), naming the bound it broke; only on failure
    if lam != lam or lam > lo and hi == math.inf:  # NaN, or inf
        return DomainError(f"resolvent parameter lam={lam} must be finite")
    if not lam > lo:
        return DomainError(f"resolvent parameter lam={lam} must exceed {lo_is}{lo}")
    return DomainError(f"resolvent parameter lam={lam} must be below {hi_is}{hi}")


def _convex_entry(f: ObjectiveFunction, lam: float) -> float:
    """The prox needs a finite lam > 0, and lam < 1/(2 alpha) for an
    alpha-weakly convex f, where its subproblem is strongly convex; and a
    closed form or a gradient to solve it by."""
    alpha = f.weak_convexity_alpha
    hi = 0.5 / alpha if alpha is not None and alpha > 0.0 else math.inf  # 1/(2 alpha)
    if not 0.0 < lam < hi:
        raise _outside(lam, 0.0, hi, "", "1/(2 alpha) = ")
    if f.closed_form_resolvent is None and f.gradient is None:
        raise UnsupportedOperationError(f"objective {f.name or '<anonymous>'} has neither a "
                                        "closed-form resolvent nor a gradient")
    return hi


def _lipschitz_entry(T: OperatorSpec, lam: float) -> float:
    """The Lipschitz-map resolvent needs a declared Lipschitz constant a and
    a finite lam > 0, with lam < 1/(a - 1) when a > 1, where its fixed-point
    map contracts."""
    a = T.lipschitz_const
    if a is None:
        raise DomainError("the Lipschitz-map resolvent needs a declared Lipschitz constant")
    hi = 1.0 / (a - 1.0) if a > 1.0 else math.inf
    if not 0.0 < lam < hi:
        raise _outside(lam, 0.0, hi, "", "1/(a - 1) = ")
    return hi


def _equilibrium_entry(f: Bifunction, lam: float) -> float:
    """A finite lam above the under-monotonicity modulus theta. A minimization
    over the whole space is the prox of its objective at 1/lam; a variational
    inequality, and a minimization over a smaller K (the VI of its gradient),
    are solved in Euclidean spaces only."""
    if not f.theta < lam < math.inf:
        raise _outside(lam, f.theta, math.inf, "the under-monotonicity modulus theta = ", "")
    s = f.structure
    if isinstance(s, Minimization):
        g = s.objective
        if f.feasible_set.kind == "whole_space":  # 1/lam at lam = 0 (a theta < 0): inf
            _convex_entry(g, 1.0 / lam if lam else math.inf)
        elif not isinstance(f.space, Euclidean):
            raise UnsupportedOperationError(
                "constrained minimization bifunctions are solved in Euclidean spaces only")
        elif g.gradient is None or g.gradient_lipschitz is None:
            raise UnsupportedOperationError(
                "constrained minimization needs gradient and gradient_lipschitz")
    elif isinstance(s, VariationalInequality) and not isinstance(f.space, Euclidean):
        raise UnsupportedOperationError(
            "variational-inequality resolvents are solved in Euclidean spaces only")
    return math.inf


# ---------------------------------------------------------------------------
# convex-function resolvent
# ---------------------------------------------------------------------------

def convex_resolvent(f: ObjectiveFunction, lam: float, x: SpacePoint) -> SpacePoint:
    """Minimizer of y -> f(y) + d^2(y, x) / (2 lam)."""
    _convex_entry(f, lam)
    space = f.space
    space.check_point(x)
    closed_form, gradient = f.closed_form_resolvent, f.gradient
    # without a closed form, descent: _log refuses a space without tangent structure
    y = closed_form(lam, x) if closed_form is not None else _prox_by_descent(f, lam, x)
    if gradient is not None:
        _recheck_first_order(space, gradient, lam, x, y)
    return y


def _subproblem_grad(gradient: Callable, lam: float, y: SpacePoint, back) -> list:
    # grad at y of f + d^2(., x)/(2 lam), with back = log_y(x); on floats,
    # each entry rounded as numpy's elementwise form rounds it. The lengths
    # are compared once here: zip's strict mode costs more on a 1-entry vector
    g = gradient(y)
    try:
        n = len(g)
    except TypeError:  # an iterator, or no sequence at all
        raise DomainError(f"gradient returned a {type(g).__name__}, not a sequence") from None
    if n != len(back):
        raise DomainError(f"gradient has {n} entries where the tangent space "
                          f"at the point has {len(back)}")
    return [a - b / lam for a, b in zip(g, back)]


def _recheck_first_order(
    space: ModelSpace, gradient: Callable, lam: float, x: SpacePoint, y: SpacePoint
) -> None:
    # d(x, y) = |log_y(x)| sets the scale; a NaN norm fails the gate
    space.check_point(y)
    back = space._log(y, x)
    norm = space.tangent_norm(y, _subproblem_grad(gradient, lam, y, back))
    scale = 1.0 + space.tangent_norm(y, back) / lam
    if not norm <= 1e-8 * scale:
        raise SolverError(
            f"resolvent output fails first-order optimality: |grad| = {norm:.3e} "
            f"(lam={lam})"
        )


def _prox_by_descent(f: ObjectiveFunction, lam: float, x: SpacePoint) -> SpacePoint:
    """Armijo gradient descent on the prox subproblem in the tangent chart.

    Near the optimum the Armijo decrease falls below the resolution of the
    objective values themselves; from that point on the method keeps the
    last certified step size and trusts the gradients alone, which stay
    accurate long after function differences drown in rounding. x is
    checked by ``convex_resolvent`` and the iterates are this loop's own
    ``exp_map`` outputs, so it takes the unchecked ``_distance`` and ``_log``.
    """
    space = f.space
    gradient, dist, log = f.gradient, space._distance, space._log

    def value(p: SpacePoint) -> float:
        d = dist(p, x)
        return f.eval(p) + d * d / (2.0 * lam)

    y = x
    fy = value(y)
    step = lam / (1.0 + lam)
    noise_mode = False
    prev_gnorm = math.inf
    for _ in range(PROX_MAX_ITERS):
        g = _subproblem_grad(gradient, lam, y, log(y, x))
        gnorm = space.tangent_norm(y, g)
        if gnorm <= PROX_GRAD_TOL:
            return y
        if not gnorm < math.inf:  # NaN too
            raise SolverError(f"prox subproblem gradient norm is {gnorm} (lam = {lam})")
        if noise_mode:
            # function values can no longer resolve progress; do plain
            # gradient steps and shrink whenever the gradient norm grows
            if gnorm > prev_gnorm:
                step *= 0.5
                if step < 1e-20:
                    raise SolverError(
                        f"gradient steps stalled at |grad| = {gnorm:.3e} (lam = {lam})"
                    )
            prev_gnorm = gnorm
            y = space.exp_map(y, [-step * c for c in g])
            continue
        # backtracking with sufficient-decrease check; persistent failure
        # while the required decrease is still resolvable means the
        # subproblem is not convex at this lam, and is reported
        step = min(step * 2.0, 1e6)
        while True:
            cand = space.exp_map(y, [-step * c for c in g])
            fc = value(cand)
            need = 1e-4 * step * gnorm * gnorm
            if fc <= fy - need:
                break
            if need <= 1e-13 * (abs(fy) + abs(fc) + 1e-300):
                noise_mode = True
                step *= 0.5
                prev_gnorm = gnorm
                cand, fc = y, fy  # switch modes without moving
                break
            step *= 0.5
            if step < 1e-20:
                raise SolverError(
                    "Armijo backtracking stalled; sufficient decrease unattainable "
                    f"(|grad| = {gnorm:.3e}, lam = {lam})"
                )
        y, fy = cand, fc
    g = _subproblem_grad(gradient, lam, y, log(y, x))
    raise SolverError(
        f"prox subproblem did not reach |grad| <= {PROX_GRAD_TOL} within "
        f"{PROX_MAX_ITERS} steps (residual {space.tangent_norm(y, g):.3e})"
    )


def convex_resolvent_operator(f: ObjectiveFunction, lam: float) -> OperatorSpec:
    _convex_entry(f, lam)
    return OperatorSpec(
        space=f.space,
        apply=lambda x: convex_resolvent(f, lam, x),
        domain=WholeSpace(f.space.space_id),
        fixed_point_witness=_argmin_witness(f),
        quasi_nonexpansive=True,
        tag="convex_resolvent", sqn_coefficient=1.0,
    )


def _argmin_witness(f: ObjectiveFunction) -> SpacePoint | None:
    if isinstance(f.known_argmin, SpacePoint):
        return f.known_argmin
    if f.known_argmin is not None:
        return canonical_point(f.space, f.known_argmin)
    return None


# ---------------------------------------------------------------------------
# Lipschitz-map resolvent
# ---------------------------------------------------------------------------

def lipschitz_resolvent(T: OperatorSpec, lam: float, x: SpacePoint) -> SpacePoint:
    return lipschitz_resolvent_detailed(T, lam, x)[0]


def lipschitz_resolvent_detailed(
    T: OperatorSpec, lam: float, x: SpacePoint
) -> tuple[SpacePoint, int, float]:
    """Returns (point, inner iterations, worst observed contraction ratio).

    Ratios are recorded only while the step length is well above the noise
    floor of the metric, so the reported maximum is meaningful against the
    analytic factor a lam / (1 + lam). x and lam are checked at entry;
    inside the loop, only the space of each T output.
    """
    _lipschitz_entry(T, lam)
    space = T.space
    space.check_point(x)
    t = lam / (1.0 + lam)
    factor = T.lipschitz_const * t
    y = x
    prev_step = None
    max_ratio = 0.0
    noise_floor = 0.0
    for j in range(FIXED_POINT_BUDGET):
        ty = T.apply(y)
        space.check_point(ty)
        # t is in (0, 1]; t == 1.0 (lam >= ~1e16) is combine's endpoint case
        y_next = space._combine(x, ty, t) if t < 1.0 else ty
        step = space._distance(y_next, y)
        if not math.isfinite(step):
            raise SolverError(f"resolvent iteration diverged at inner step {j + 1}")
        if j == 0:
            noise_floor = 1e-8 * (1.0 + step)
        elif prev_step > noise_floor and step > noise_floor:
            ratio = step / prev_step
            if ratio > max_ratio:
                max_ratio = ratio
            if ratio > factor + 1e-6:
                raise SolverError(
                    f"observed contraction ratio {ratio:.9f} exceeds the analytic "
                    f"factor {factor:.9f} at inner step {j + 1}"
                )
        y = y_next
        if step <= FIXED_POINT_TOL:
            return y, j + 1, max_ratio
        prev_step = step
    raise SolverError(
        f"fixed-point iteration did not contract to {FIXED_POINT_TOL} within "
        f"{FIXED_POINT_BUDGET} steps (last step {step:.3e}, factor {factor:.6f})"
    )


def lipschitz_resolvent_operator(T: OperatorSpec, lam: float) -> OperatorSpec:
    _lipschitz_entry(T, lam)
    return OperatorSpec(
        space=T.space,
        apply=lambda x: lipschitz_resolvent(T, lam, x),
        domain=T.domain,
        fixed_point_witness=T.fixed_point_witness,
        quasi_nonexpansive=True,
        tag="lipschitz_resolvent", sqn_coefficient=lam / (1.0 + lam),
    )


# ---------------------------------------------------------------------------
# equilibrium resolvent
# ---------------------------------------------------------------------------

def equilibrium_resolvent(
    f: Bifunction, lam: float, x: SpacePoint, *, _grid: tuple[int, int] = EQ_GRID
) -> SpacePoint:
    """The point z in K with f(z, y) + lam <xz, zy> >= 0 for all y in K.

    Every call verifies the inequality on every point of a deterministic
    grid of K, 64 directions x 8 radii (``EQ_GRID``; the operator form
    passes its thinner ``EQ_OPERATOR_GRID``). For a ball or a segment K the
    grid depends only on the space, K and the two counts, never on x or z,
    so it is built once and kept in a small memo keyed on them (sets compare
    by identity). For any other K the grid's radius follows x and z, so it
    is built on each call.
    """
    _equilibrium_entry(f, lam)
    space, K, s = f.space, f.feasible_set, f.structure
    space.check_point(x)
    if isinstance(s, Minimization) and K.kind == "whole_space":
        # f(z, y) = g(y) - g(z): the resolvent inequality is the optimality
        # condition of argmin_{y in K} g(y) + (lam/2) d^2(y, x), the prox of
        # g at 1/lam restricted to K; on a smaller K, the VI of its gradient
        z = convex_resolvent(s.objective, 1.0 / lam, x)
    elif isinstance(s, Minimization):
        g = s.objective
        vi = VariationalInequality(field=g.gradient, lipschitz=g.gradient_lipschitz)
        z = _solve_vi_structure(vi, space, K, lam, x)
    elif isinstance(s, VariationalInequality):
        z = _solve_vi_structure(s, space, K, lam, x)
    else:
        z = s.solve(lam, x)
        space.check_point(z)
        z = space.project(K, z)
    _verify_equilibrium(f, lam, x, z, _verification_points(space, K, x, z, *_grid))
    return z


def _solve_vi_structure(
    vi: VariationalInequality, space: ModelSpace, K: ConvexSubset, lam: float, x: SpacePoint
) -> SpacePoint:
    # x is checked by the caller; the iterates are this loop's own points.
    # On floats, each entry rounded as numpy's z - g (F(z) + lam (z - x)) rounds it
    field = vi.field
    step = 1.0 / (vi.lipschitz + lam)
    z = space.project(K, x)
    xl = x.xs
    for j in range(VI_BUDGET):
        z_next = space.project(K, space.point(
            [c - step * (fc + lam * (c - a)) for c, fc, a in zip(z.xs, field(z), xl)]))
        move = space._distance(z_next, z)
        if not math.isfinite(move):
            raise SolverError(f"projected iteration diverged at inner step {j + 1}")
        z = z_next
        if move <= VI_TOL:
            return z
    raise SolverError(
        f"projected iteration did not reach movement <= {VI_TOL} within "
        f"{VI_BUDGET} steps (last movement {move:.3e}); the step size "
        f"1/(L + lam) = {step} contracts only when lam is not too small relative to L"
    )


def _verify_equilibrium(
    f: Bifunction, lam: float, x: SpacePoint, z: SpacePoint, grid: Sequence[SpacePoint]
) -> None:
    for y in grid:
        margin = f.eval(z, y) + lam * f.space.quasilin(x, z, z, y)
        if not margin >= -EQ_INEQUALITY_SLACK:  # a NaN margin fails
            raise SolverError(
                f"equilibrium inequality violated by {-margin:.3e} at sample "
                f"y=({', '.join(f'{c:.6g}' for c in y.xs)})"
            )


def _verification_points(
    space: ModelSpace, K: ConvexSubset, x: SpacePoint, z: SpacePoint, n_dir: int, n_rad: int
) -> tuple[SpacePoint, ...]:
    """Deterministic grid in K: directions x radii around the set anchor,
    boundary/extreme points included, every candidate projected into K."""
    if K.kind in ("ball", "segment"):
        return _fixed_verification_grid(space, K, n_dir, n_rad)
    anchor = canonical_point(space, K)
    radius = 1.0 + 2.0 * (space.distance(anchor, x) + space.distance(anchor, z))
    return _radial_grid(space, K, anchor, radius, n_dir, n_rad)


@functools.lru_cache(maxsize=16)
def _fixed_verification_grid(
    space: ModelSpace, K: ConvexSubset, n_dir: int, n_rad: int
) -> tuple[SpacePoint, ...]:
    """The verification grid of a ball or segment K, which depends on
    neither x nor z. Memoized: sets hash by identity, and the memo holds
    each key set alive, so an entry can never be mistaken for a later set
    at a reused address."""
    if K.kind == "segment":
        n = max(2, n_dir * n_rad)
        return tuple(space.combine(K.a, K.b, i / n) for i in range(n + 1))
    return _radial_grid(space, K, canonical_point(space, K), K.radius, n_dir, n_rad)


def _radial_grid(
    space: ModelSpace, K: ConvexSubset, anchor: SpacePoint, radius: float, n_dir: int, n_rad: int
) -> tuple[SpacePoint, ...]:
    pts: list[SpacePoint] = []
    if isinstance(space, Spider):
        for leg in range(space.num_legs):
            for i in range(1, n_rad + 1):
                cand = space.point((leg, radius * i / n_rad))
                pts.append(space.project(K, cand))
        pts.append(space.base_point() if K.kind != "ball" else space.project(K, space.base_point()))
        return tuple(pts)
    gauss = random.Random(271828).gauss  # fixed: verification must be reproducible
    curved = isinstance(space, Hyperboloid)
    dim = len(anchor.xs) - (1 if curved else 0)
    for _ in range(n_dir):
        d = [gauss(0.0, 1.0) for _ in range(dim)]
        if curved:  # into the tangent space, so that exp_map puts r along it at distance r
            d = space._tangent_at(anchor.xs, [0.0, *d])
        norm = space.tangent_norm(anchor, d) if curved else math.sqrt(sum([c * c for c in d]))
        d = [c / norm for c in d]
        for i in range(1, n_rad + 1):
            r = radius * i / n_rad
            cand = (space.exp_map(anchor, [c * r for c in d]) if curved
                    else space.point([a + c * r for a, c in zip(anchor.xs, d)]))
            pts.append(space.project(K, cand))
    pts.append(anchor)
    return tuple(pts)


def equilibrium_resolvent_operator(f: Bifunction, lam: float) -> OperatorSpec:
    """Resolvent as an operator. Verification is thinned to
    ``EQ_OPERATOR_GRID`` because the operator form is meant for iteration
    loops; call ``equilibrium_resolvent`` for one-shot audited evaluations.
    Every call still verifies on all of the grid, which for a ball or
    segment K comes from the memo of ``equilibrium_resolvent``: every
    operator on the same K, at any lam, shares one grid."""
    _equilibrium_entry(f, lam)
    return OperatorSpec(
        space=f.space,
        apply=lambda x: equilibrium_resolvent(f, lam, x, _grid=EQ_OPERATOR_GRID),
        domain=f.feasible_set,
        fixed_point_witness=f.equilibrium_witness,
        quasi_nonexpansive=True,
        tag="equilibrium_resolvent", sqn_coefficient=1.0,
    )


# ---------------------------------------------------------------------------
# resolvent sequences
# ---------------------------------------------------------------------------

def resolvent_sequence(
    source: ObjectiveFunction | OperatorSpec | Bifunction, lambdas: Schedule
) -> OperatorSequence:
    """The operator family k -> resolvent of ``source`` at lam_k.

    The schedule's certified bounds pass the resolvent's entry rule, and so
    every lam_k between them; a window capped above needs a certified upper
    bound, and so do a bifunction's lam_k in any case.
    """
    require_class(lambdas, ScheduleClass.RESOLVENT_PARAM, "lambda")
    if isinstance(source, ObjectiveFunction):
        entry, build = _convex_entry, convex_resolvent_operator
    elif isinstance(source, OperatorSpec):
        entry, build = _lipschitz_entry, lipschitz_resolvent_operator
    elif isinstance(source, Bifunction):
        entry, build = _equilibrium_entry, equilibrium_resolvent_operator
    else:
        raise ConfigError(f"cannot build resolvents from {type(source).__name__}")
    lo, hi = lambdas.lower_bound, lambdas.upper_bound
    try:
        cap = entry(source, lo)
        if hi is not None:
            entry(source, hi)
    except (DomainError, UnsupportedOperationError) as err:
        raise ConfigError(f"resolvents at the certified bounds of lam_k: {err}") from err
    if hi is None and (cap < math.inf or isinstance(source, Bifunction)):
        raise ConfigError(f"lam_k need a certified finite upper bound below {cap}")
    return OperatorSequence(space=source.space,
                            factory=_cached_factory(lambdas, functools.partial(build, source)))


def _cached_factory(
    lambdas: Schedule, build: Callable[[float], OperatorSpec]
) -> Callable[[int], OperatorSpec]:
    if lambdas.lower_bound is not None and lambdas.lower_bound == lambdas.upper_bound:
        op = build(lambdas.lower_bound)  # constant schedule: one shared operator
        return lambda k: op
    return lambda k: build(lambdas(k))
