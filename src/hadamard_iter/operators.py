"""Self-maps of convex subsets with fixed-point metadata.

An OperatorSpec bundles the map itself with what is known about it: a
Lipschitz constant, a fixed-point witness, and the quasi-nonexpansive flag
that the composites and resolvent sequences require. The flag is a trusted
annotation, spot-checked by the test suite. Demiclosedness cannot be
decided from samples at all, so it is not recorded: the scheme guarantees
state it as a hypothesis.

The averaged composites used by Mann and Ishikawa iterations live here:

    ishikawa:  x  ->  (1-a) x (+) a T((1-b) x (+) b T x)
    mann:      x  ->  (1-a) x (+) a T x,  the Ishikawa composite at b = 0

One builder makes both. They preserve the witness and remain
quasi-nonexpansive; for a in (0, 1) the composite is strongly
quasi-nonexpansive with coefficient a/(1-a):
d^2(x, Sx) <= (a/(1-a)) (d^2(x, p) - d^2(Sx, p)) at every witness p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError, DomainError
from .geometry import (
    Ball,
    ConvexSubset,
    Euclidean,
    Hyperboloid,
    ModelSpace,
    SpacePoint,
    WholeSpace,
    canonical_point,
)
from .schedules import Schedule, ScheduleClass, require_class


@dataclass(frozen=True, eq=False)
class OperatorSpec:
    """A self-map of the convex set ``domain`` inside ``space``.

    ``apply`` must be pure and reentrant; operator values are immutable and
    safe to share across threads. ``sqn_coefficient`` is the c of the
    strong quasi-nonexpansiveness the construction guarantees,
    d^2(x, Tx) <= c (d^2(x, p) - d^2(Tx, p)) at every fixed point p, or None
    when it guarantees none; ``tag`` names the construction in reports.
    """

    space: ModelSpace
    apply: Callable[[SpacePoint], SpacePoint]
    domain: ConvexSubset
    lipschitz_const: float | None = None
    fixed_point_witness: SpacePoint | None = None
    quasi_nonexpansive: bool = False
    tag: str = ""
    sqn_coefficient: float | None = None


@dataclass(frozen=True, eq=False)
class OperatorSequence:
    """An index -> operator factory on ``space``; the operators' witnesses
    are common fixed points of the family."""

    space: ModelSpace
    factory: Callable[[int], OperatorSpec]


def _require_quasi_with_witness(T: OperatorSpec, what: str) -> None:
    if not T.quasi_nonexpansive or T.fixed_point_witness is None:
        raise DomainError(f"{what} needs a quasi-nonexpansive operator with a fixed-point witness")


def mann_operator(T: OperatorSpec, alpha: float) -> OperatorSpec:
    """The averaged map x -> (1-alpha) x (+) alpha T x: Ishikawa at beta = 0."""
    return _averaged(T, alpha, 0.0, "mann")


def ishikawa_operator(T: OperatorSpec, alpha: float, beta: float) -> OperatorSpec:
    """The two-level composite x -> (1-alpha) x (+) alpha T((1-beta) x (+) beta T x).

    beta = 0 is the Mann map. beta = 1 is accepted (the inner point is then
    T x itself), which lets schedules like 1/k start at k = 1.
    """
    return _averaged(T, alpha, beta, "ishikawa")


def _averaged(T: OperatorSpec, alpha: float, beta: float, tag: str) -> OperatorSpec:
    _require_quasi_with_witness(T, f"{tag}_operator")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha={alpha} outside (0, 1)")
    if not (0.0 <= beta <= 1.0):
        raise DomainError(f"beta={beta} outside [0, 1]")
    space = T.space

    def apply(x: SpacePoint) -> SpacePoint:
        inner = x if beta == 0.0 else space.combine(x, T.apply(x), beta)
        return space.combine(x, T.apply(inner), alpha)

    return OperatorSpec(
        space=space, apply=apply, domain=T.domain,
        fixed_point_witness=T.fixed_point_witness,
        quasi_nonexpansive=T.quasi_nonexpansive,
        tag=tag, sqn_coefficient=alpha / (1.0 - alpha),
    )


def ishikawa_sequence(T: OperatorSpec, alphas: Schedule, betas: Schedule) -> OperatorSequence:
    """The operator family k -> ishikawa_operator(T, alpha_k, beta_k).

    The alpha schedule must be Mann-class (limsup < 1) and the beta schedule
    vanishing; with beta_k -> 0 the common fixed set of the family is F(T),
    so T's witness is propagated.
    """
    _require_quasi_with_witness(T, "ishikawa_sequence")
    require_class(alphas, ScheduleClass.MANN_PARAM, "alpha")
    require_class(betas, ScheduleClass.VANISHING_PARAM, "beta")
    return OperatorSequence(space=T.space,
                            factory=lambda k: ishikawa_operator(T, alphas(k), betas(k)))


def mann_sequence(T: OperatorSpec, alphas: Schedule) -> OperatorSequence:
    _require_quasi_with_witness(T, "mann_sequence")
    require_class(alphas, ScheduleClass.MANN_PARAM, "alpha")
    return OperatorSequence(space=T.space, factory=lambda k: mann_operator(T, alphas(k)))


# ---------------------------------------------------------------------------
# catalog of concrete operators for experiments and tests
# ---------------------------------------------------------------------------

def catalog_operator(space: ModelSpace, name: str, **params) -> OperatorSpec:
    """Named operators with correct metadata.

    projection(cset)            metric projection, witness = a set point
    rotation(angle)             rotation about the origin, Euclidean 2D
    scaled_reflection(factor)   x -> -c x with c in (0, 1], Euclidean
    constant(point)             x -> p, F = {p}
    hyperbolic_projection(cset) projection, hyperboloid spaces only
    """
    builder = _CATALOG.get(name)
    if builder is None:
        raise ConfigError(f"unknown operator {name!r}; known: {sorted(_CATALOG)}")
    return builder(space, **params)


def _projection_operator(space: ModelSpace, cset: ConvexSubset) -> OperatorSpec:
    witness = canonical_point(space, cset)
    return OperatorSpec(
        space=space, apply=lambda x: space.project(cset, x),
        domain=WholeSpace(space.space_id),
        lipschitz_const=1.0, fixed_point_witness=witness,
        quasi_nonexpansive=True,
        tag="projection",
    )


def _build_hyperbolic_projection(space: ModelSpace, cset: ConvexSubset) -> OperatorSpec:
    if not isinstance(space, Hyperboloid):
        raise ConfigError("hyperbolic_projection needs a hyperboloid space")
    if not isinstance(cset, (Ball,)) and cset.kind != "segment":
        raise ConfigError("hyperbolic_projection supports balls and segments")
    return _projection_operator(space, cset)


def _build_rotation(space: ModelSpace, angle: float) -> OperatorSpec:
    if not (isinstance(space, Euclidean) and space.dim == 2):
        raise ConfigError("rotation is defined on the Euclidean plane only")
    c, s = math.cos(angle), math.sin(angle)

    def apply(x: SpacePoint) -> SpacePoint:
        a, b = x.xs
        return space.point((c * a - s * b, s * a + c * b))

    return OperatorSpec(
        space=space, apply=apply, domain=WholeSpace(space.space_id),
        lipschitz_const=1.0, fixed_point_witness=space.base_point(),
        quasi_nonexpansive=True,
        tag="rotation",
    )


def _build_scaled_reflection(space: ModelSpace, factor: float) -> OperatorSpec:
    if not isinstance(space, Euclidean):
        raise ConfigError("scaled_reflection is Euclidean only")
    if not (0.0 < factor <= 1.0):
        raise ConfigError(f"reflection factor {factor} outside (0, 1]")

    def apply(x: SpacePoint) -> SpacePoint:
        return space.point([-factor * c for c in x.xs])

    return OperatorSpec(
        space=space, apply=apply, domain=WholeSpace(space.space_id),
        lipschitz_const=factor, fixed_point_witness=space.base_point(),
        quasi_nonexpansive=True,
        tag="scaled_reflection",
    )


def _build_constant(space: ModelSpace, point: SpacePoint) -> OperatorSpec:
    space.check_point(point)
    return OperatorSpec(
        space=space, apply=lambda x: point, domain=WholeSpace(space.space_id),
        lipschitz_const=0.0, fixed_point_witness=point,
        quasi_nonexpansive=True,
        tag="constant",
    )


_CATALOG = {
    "projection": _projection_operator,
    "rotation": _build_rotation,
    "scaled_reflection": _build_scaled_reflection,
    "constant": _build_constant,
    "hyperbolic_projection": _build_hyperbolic_projection,
}
