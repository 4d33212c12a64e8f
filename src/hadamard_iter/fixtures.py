"""Named objective functions and bifunctions, addressable from configs.

These are the concrete problem instances used by the experiment runner and
the diagnostics suite. Most carry closed-form resolvents so that long runs
stay cheap, plus gradients so the generic solver path can be cross-checked
against the closed form.

``quadratic``, ``dist2_to_set`` and ``expanding_quadratic`` are d^2(., S) / 2
from one constructor, given the nearest-point map of S (a point or a convex
set); ``expanding_quadratic`` is the quadratic with a broken closed form.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from .errors import ConfigError
from .geometry import (
    Ball,
    ConvexSubset,
    Euclidean,
    ModelSpace,
    SpacePoint,
    Spider,
    WholeSpace,
)
from .resolvents import (
    Bifunction,
    Minimization,
    ObjectiveFunction,
    VariationalInequality,
)


def objective_fixture(space: ModelSpace, name: str, **params) -> ObjectiveFunction:
    builder = _OBJECTIVES.get(name)
    if builder is None:
        raise ConfigError(f"unknown objective {name!r}; known: {sorted(_OBJECTIVES)}")
    return builder(space, **params)


def bifunction_fixture(space: ModelSpace, name: str, **params) -> Bifunction:
    builder = _BIFUNCTIONS.get(name)
    if builder is None:
        raise ConfigError(f"unknown bifunction {name!r}; known: {sorted(_BIFUNCTIONS)}")
    return builder(space, **params)


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------

def _center(space: ModelSpace, center) -> SpacePoint:
    # a point, its coordinates, or None for the base point
    if center is None:
        return space.base_point()
    return center if isinstance(center, SpacePoint) else space.point(center)


def _dist2(space: ModelSpace, nearest: Callable[[SpacePoint], SpacePoint],
           known_argmin: SpacePoint | ConvexSubset, name: str) -> ObjectiveFunction:
    """f(y) = d^2(y, S) / 2, where ``nearest(y)`` is the point of S nearest
    to y. The gradient is -log_y(nearest(y)) (none on a spider), and the
    resolvent moves x a fraction lam/(1+lam) of the way to nearest(x)."""

    def val(y: SpacePoint) -> float:
        d = space.distance(y, nearest(y))
        return 0.5 * d * d

    grad = None if isinstance(space, Spider) else (
        lambda y: tuple([-c for c in space.log_map(y, nearest(y))]))
    return ObjectiveFunction(
        space=space, eval=val, gradient=grad, gradient_lipschitz=1.0,
        weak_convexity_alpha=0.0, known_argmin=known_argmin,
        closed_form_resolvent=lambda lam, x: space.combine(x, nearest(x), lam / (1.0 + lam)),
        name=name)


def quadratic(space: ModelSpace, center: SpacePoint | None = None) -> ObjectiveFunction:
    """f(y) = d^2(y, a) / 2: S is the single point a."""
    a = _center(space, center)
    return _dist2(space, lambda y: a, a, "quadratic")


def dist2_to_set(space: ModelSpace, cset: ConvexSubset) -> ObjectiveFunction:
    """f(y) = d^2(y, K) / 2 for a projectable convex K, so argmin f = K."""
    space.check_set(cset)
    # space.project is looked up at each call, so a wrapper installed on the
    # method later (perfbench's tracer) sees these calls
    return _dist2(space, lambda y: space.project(cset, y), cset, "dist2_to_set")


_QUARTIC_WEAK_ALPHA = 8.0  # second derivative dips to -16 at y = 4/3


def plateau_quartic(space: ModelSpace) -> ObjectiveFunction:
    """f(y) = 3 y^4 - 16 y^3 + 24 y^2 on the real line.

    f'(y) = 12 y (y - 2)^2, so the global minimizer is 0 while 2 is a
    stationary non-minimizer: for small lam the resolvent fixes 2 even
    though f(2) = 16 > 0. Quasi-convex and 8-weakly convex but not
    pseudo-convex (the dip of f' at 2 is only cubic), which is exactly why
    the resolvent can have fixed points outside the argmin.
    """
    if not (isinstance(space, Euclidean) and space.dim == 1):
        raise ConfigError("plateau_quartic lives on the Euclidean line")

    def val(y: SpacePoint) -> float:
        t = y.xs[0]
        return ((3.0 * t - 16.0) * t + 24.0) * t * t

    def grad(y: SpacePoint) -> tuple[float]:
        t = y.xs[0]
        return (12.0 * t * (t - 2.0) ** 2,)

    def prox(lam: float, x: SpacePoint) -> SpacePoint:
        # _wrap skips re-validation; the safeguarded solve cannot leave R
        return space._wrap((_quartic_prox(lam, x.xs[0]),))

    return ObjectiveFunction(
        space=space, eval=val, gradient=grad,
        weak_convexity_alpha=_QUARTIC_WEAK_ALPHA,
        known_argmin=space.point([0.0]),
        closed_form_resolvent=prox,
        name="plateau_quartic",
    )


def _quartic_prox(lam: float, x: float) -> float:
    """Unique root of h(y) = y + lam (12 y^3 - 48 y^2 + 48 y) - x, which is
    strictly increasing for lam < 1/16. Safeguarded Newton on the bracket
    between 0 and x (h(0) = -x and h(x) = lam f'(x) have opposite signs)."""
    lo, hi = (0.0, x) if x >= 0.0 else (x, 0.0)
    y = x
    for _ in range(120):
        h = y + lam * ((12.0 * y - 48.0) * y + 48.0) * y - x
        if h == 0.0:
            return y
        if h > 0.0:
            hi = y
        else:
            lo = y
        dh = 1.0 + lam * ((36.0 * y - 96.0) * y + 48.0)
        step = h / dh
        y_new = y - step
        if not (lo < y_new < hi):
            y_new = 0.5 * (lo + hi)
        if abs(y_new - y) <= 1e-17 * (1.0 + abs(y)):
            return y_new
        y = y_new
    return y


def expanding_quadratic(space: ModelSpace, center: SpacePoint | None = None
                        ) -> ObjectiveFunction:
    """Negative-control fixture: the quadratic around a, but its "resolvent"
    reflects past the minimizer with factor 1.5, so distances to a grow and
    the resolvent inequalities fail. No gradient on purpose, so the broken
    closed form is not caught by the optimality recheck."""
    if not isinstance(space, Euclidean):
        raise ConfigError("expanding_quadratic is Euclidean only")
    f = quadratic(space, center)
    a = f.known_argmin
    return dataclasses.replace(
        f, gradient=None, gradient_lipschitz=None,
        closed_form_resolvent=lambda lam, x: space.point(
            [p - 1.5 * (q - p) for p, q in zip(a.xs, x.xs)]),
        name="expanding_quadratic",
    )


# ---------------------------------------------------------------------------
# bifunctions
# ---------------------------------------------------------------------------

def rotation_vi(space: ModelSpace, radius: float = 1.0) -> Bifunction:
    """Variational inequality for the 90-degree rotation field F(x) = A x
    on a centered ball. A is antisymmetric, so the bifunction
    f(x, y) = <F(x), y - x> is monotone (theta = 0) and pseudo-monotone,
    with the origin as the unique equilibrium point."""
    if not (isinstance(space, Euclidean) and space.dim == 2):
        raise ConfigError("rotation_vi lives on the Euclidean plane")
    K = Ball(space.base_point(), radius)

    # F(x) = (x1, -x0): A's entries are 0 and +-1, so this equals A @ x entry by
    # entry (where x0 or x1 is 0, the 0 may carry the other sign)
    def field(x: SpacePoint) -> tuple[float, float]:
        x0, x1 = x.xs
        return (x1, -x0)

    def val(x: SpacePoint, y: SpacePoint) -> float:
        (x0, x1), (y0, y1) = x.xs, y.xs
        return x1 * (y0 - x0) - x0 * (y1 - x1)

    return Bifunction(
        space=space, eval=val, theta=0.0,
        structure=VariationalInequality(field=field, lipschitz=1.0),
        feasible_set=K,
        equilibrium_witness=space.base_point(),
    )


def min_quadratic(space: ModelSpace, center: SpacePoint | None = None,
                  cset: ConvexSubset | None = None) -> Bifunction:
    """Minimization bifunction f(x, y) = g(y) - g(x) for the quadratic g
    around ``center``, over ``cset`` (whole space by default). Equilibrium
    points are the minimizers of g over the set, i.e. the projection of the
    center."""
    g = quadratic(space, center)
    K = cset if cset is not None else WholeSpace(space.space_id)
    space.check_set(K)
    witness = space.project(K, g.known_argmin)

    def val(x: SpacePoint, y: SpacePoint) -> float:
        return g.eval(y) - g.eval(x)

    return Bifunction(
        space=space, eval=val, theta=0.0,
        structure=Minimization(objective=g),
        feasible_set=K,
        equilibrium_witness=witness,
    )


_OBJECTIVES = {
    "quadratic": quadratic,
    "dist2_to_set": dist2_to_set,
    "plateau_quartic": plateau_quartic,
    "expanding_quadratic": expanding_quadratic,
}

_BIFUNCTIONS = {
    "rotation_vi": rotation_vi,
    "min_quadratic": min_quadratic,
}
