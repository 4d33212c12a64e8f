"""Hadamard model spaces and their geodesic calculus.

Three concrete spaces are provided: Euclidean n-space, the hyperboloid model
of hyperbolic n-space, and a spider tree (finitely many rays glued at a hub).
All are complete, uniquely geodesic, and nonpositively curved, so the
comparison inequality

    d^2((1-t)x (+) ty, z) <= (1-t) d^2(x,z) + t d^2(y,z) - t(1-t) d^2(x,y)

holds, along with the Cauchy-Schwarz inequality for the quasi-linearization
pairing <ab, cd> = (d^2(a,d) + d^2(b,c) - d^2(a,c) - d^2(b,d)) / 2.

Convention used everywhere: ``combine(x, y, t)`` is the unique geodesic point
z with d(x, z) = t * d(x, y), i.e. t is the fraction of the way from x to y.

The scalar methods on ``SpacePoint`` values serve the iteration engines and
the inner solvers, one point at a time. The package serves small dimensions
(the plane, 3-space, the hyperbolic plane), where one numpy operation on a
2- or 3-entry vector costs several times the float arithmetic it does; so a
point stores its coordinates as a tuple of Python floats (``xs``), the
primitives compute on those floats, and ``coords`` builds a read-only array
on demand for callers that want numpy. Besides the primitives, each space
has array kernels over (N, d) coordinate blocks, one point per row:
``sample_many``, its one sampler (``sample_point`` is row 0 of a block of
one), and ``distance_many`` and ``combine_many``, which compute the scalar
formulas row by row. They stay on numpy and serve the batched checkers.

numpy is imported by the calls that build or read an array, ``coords`` and
the array kernels, not with this module. Spaces, points and every scalar
primitive work without it, so ``import hadamard_iter`` and a CLI run whose
steps stay on floats never import it (the README gives what that saves).
The samplers take a numpy ``Generator`` that their caller made.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import add, mul, pos, sub
from typing import TYPE_CHECKING

from .errors import DomainError, UnsupportedOperationError

if TYPE_CHECKING:  # annotations only: numpy is imported where an array is built
    import numpy as np

POINT_TOL = 1e-9     # validity of coordinates (hyperboloid constraint, radii)
T_SNAP = 4 * math.ulp(1.0)  # combine parameters this far outside [0, 1] snap to its ends

# Hyperboloid points lie within this distance of the apex: between any two
# of them every primitive stays finite, log_map's intermediate products
# included (those overflow from a radius of about 118).
HYPERBOLOID_MAX_RADIUS = 100.0
_X0_MAX = math.cosh(HYPERBOLOID_MAX_RADIUS) * (1.0 + POINT_TOL)
# The switch between the two hyperboloid distance formulas, one rule for the
# scalar and the batched path: acosh(-<x,y>_M) when -<x,y>_M lies in
# (_ACOSH_FROM, inf), i.e. beyond d = acosh(16) ~ 3.47, and the chordal asinh
# form otherwise (near pairs, and the non-finite products of overflowed
# points, which read as in the chordal form; this keeps the NaN that the
# Armijo search backtracks on).
_ACOSH_FROM = 16.0
_JUST_FLOAT = frozenset([float])  # the entry types of a float tuple, as a set

# each array kernel that reproduces scalar primitives, and those primitives
_KERNEL_PRIMITIVES = {
    "distance_many": ("_distance",),
    "combine_many": ("_distance", "_combine"),
}


def integral(v) -> int | None:
    """``v`` as an int if it has an integer value (``int(v) == float(v)``),
    else None; a bool has none. The one rule for spider legs and for the
    integers of a config."""
    if isinstance(v, bool):
        return None
    try:
        n = int(v)
        return n if n == float(v) else None
    except (TypeError, ValueError, OverflowError):
        return None


def floats(v, n: int | None, what: str, finite: bool = False) -> tuple[float, ...]:
    """``v``, a flat sequence of numbers (a tuple, a list, a 1-d array), read
    once as a tuple of floats: ``n`` of them unless ``n`` is None, and every
    one finite if ``finite``. Anything else raises ``DomainError`` naming
    ``what``: a scalar, a nested sequence, a string, bytes or a mapping, and
    an entry that is a string, bytes or a bool (which ``float`` would take).
    A tuple or list of exact floats, what the solvers pass, is taken as it is:
    reading it would give the same floats."""
    if (type(v) is tuple or type(v) is list) and {*map(type, v)} == _JUST_FLOAT:
        xs = tuple(v)
    else:
        try:
            items = v
            if type(v) is not tuple and type(v) is not list:
                if isinstance(v, (bytes, bytearray, Mapping)):  # codes and keys, not numbers
                    raise TypeError
                items = tuple(v)
            if bool in map(type, items):
                raise TypeError
            # unary + refuses the strings and bytes that float() would parse
            xs = tuple(map(float, map(pos, items)))
        except (TypeError, ValueError, OverflowError):
            xs = ()
    if not xs or n is not None and len(xs) != n:
        raise DomainError(f"{what} must be {'' if n is None else f'{n} '}numbers, got {v!r}")
    # math.isfinite per entry: on a few entries, far cheaper than np.isfinite
    if finite and not all(map(math.isfinite, xs)):
        raise DomainError(f"{what} must be finite")
    return xs


def _row_sq(A: np.ndarray) -> np.ndarray:
    # the squared norm of each row, summed column by column in the order of
    # the scalar loops; a numpy reduction's order may follow the SIMD path
    q = A[:, 0] * A[:, 0]
    for j in range(1, A.shape[1]):
        q = q + A[:, j] * A[:, j]
    return q


def _snap_unit(t: float) -> float:
    # t lies outside [0, 1]: snap rounding error to the nearest end, else raise
    if 1.0 < t <= 1.0 + T_SNAP:
        return 1.0
    if -T_SNAP <= t < 0.0:
        return 0.0
    raise DomainError(f"combine parameter t={t} outside [0, 1]")


def _snap_unit_many(t) -> np.ndarray:
    import numpy as np
    t = np.asarray(t, dtype=float)
    outside = ~((t >= 0.0) & (t <= 1.0))
    if outside.any():
        for v in t[outside]:
            _snap_unit(float(v))  # raises on the first value beyond the snap
        t = np.clip(t, 0.0, 1.0)
    return t


@dataclass(frozen=True, eq=False, slots=True, init=False)
class SpacePoint:
    """A point of a model space, tagged with the id of its owning space.

    ``xs`` holds the ambient coordinates as floats (n entries Euclidean, n+1
    hyperboloid) or ``(leg, radius)`` for the spider tree; ``coords`` builds
    them as a read-only float64 array on each read. Points are value data;
    compare them with ``space.distance(p, q) == 0``, not ``==``.
    """

    space_id: str
    xs: tuple[float, ...]

    def __init__(self, space_id: str, xs: tuple[float, ...]):
        # the slots' own setters: the frozen dataclass __init__ goes through
        # object.__setattr__ by name, which costs half again as much per point
        _set_space_id(self, space_id)
        _set_xs(self, xs)

    @property
    def coords(self) -> np.ndarray:
        import numpy as np
        arr = np.array(self.xs, dtype=float)
        arr.setflags(write=False)
        return arr


_set_space_id = SpacePoint.space_id.__set__
_set_xs = SpacePoint.xs.__set__


@dataclass(frozen=True, eq=False, slots=True)
class WholeSpace:
    space_id: str
    kind: str = field(default="whole_space", init=False)


@dataclass(frozen=True, eq=False, slots=True)
class Ball:
    """Closed geodesic ball of positive finite radius."""

    center: SpacePoint
    radius: float
    kind: str = field(default="ball", init=False)

    def __post_init__(self):
        if not (0 < self.radius < math.inf):
            raise DomainError(f"ball radius must be positive and finite, got {self.radius}")

    @property
    def space_id(self) -> str:
        return self.center.space_id


@dataclass(frozen=True, eq=False, slots=True)
class Segment:
    """Geodesic segment [a, b]; a == b gives a singleton."""

    a: SpacePoint
    b: SpacePoint
    kind: str = field(default="segment", init=False)

    def __post_init__(self):
        if self.a.space_id != self.b.space_id:
            raise DomainError("segment endpoints belong to different spaces")

    @property
    def space_id(self) -> str:
        return self.a.space_id


@dataclass(frozen=True, eq=False, slots=True)
class Halfspace:
    """Euclidean halfspace {x : normal . x <= offset}."""

    space_id: str
    normal: tuple[float, ...]
    offset: float
    kind: str = field(default="halfspace", init=False)

    def __post_init__(self):
        n = floats(self.normal, None, "halfspace normal", finite=True)
        if sum(map(mul, n, n)) == 0.0:
            raise DomainError("halfspace normal must be nonzero")
        if not math.isfinite(self.offset):
            raise DomainError(f"halfspace offset must be finite, got {self.offset}")
        object.__setattr__(self, "normal", n)


ConvexSubset = WholeSpace | Ball | Segment | Halfspace


class ModelSpace:
    """Common interface of the model spaces.

    Subclasses implement the metric, geodesic combination and projections;
    the quasi-linearization pairing is metric-generic and lives here. All
    operations are pure functions of immutable values.

    ``sample_point`` is row 0 of ``sample_many``, the space's one sampler.
    The other array kernels here loop over the scalar primitives. A space
    may replace them with vectorized versions; a subclass that redefines a
    scalar primitive without the kernels built on it gets the loops back,
    so the kernels always compute what the scalar methods compute.
    """

    space_id: str

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for kernel, primitives in _KERNEL_PRIMITIVES.items():
            if kernel not in vars(cls) and any(p in vars(cls) for p in primitives):
                setattr(cls, kernel, getattr(ModelSpace, kernel))

    # -- points ------------------------------------------------------------

    def point(self, coords) -> SpacePoint:
        """Validate raw coordinates and wrap them as a point of this space."""
        raise NotImplementedError

    def base_point(self) -> SpacePoint:
        """A canonical point of the space (origin, hyperboloid apex, hub)."""
        raise NotImplementedError

    def check_point(self, p: SpacePoint) -> None:
        if p.space_id != self.space_id:
            raise DomainError(
                f"point belongs to space {p.space_id!r}, expected {self.space_id!r}"
            )

    # -- metric and geodesics ----------------------------------------------

    def distance(self, x: SpacePoint, y: SpacePoint) -> float:
        self.check_point(x)
        self.check_point(y)
        return self._distance(x, y)

    def combine(self, x: SpacePoint, y: SpacePoint, t: float) -> SpacePoint:
        """The geodesic point z with d(x, z) = t * d(x, y), for t in [0, 1].

        Callers compute t arithmetically (``1 - a_k``, ``radius / d``,
        ``lam / (1 + lam)``), so a t at most 4 ulp outside [0, 1] is taken
        as the nearest end: 1.0 for t in (1, 1 + 4u], 0.0 for t in [-4u, 0),
        where u = math.ulp(1.0) is the float spacing just above 1. Any other
        t outside [0, 1], and NaN, raise ``DomainError``.
        """
        self.check_point(x)
        self.check_point(y)
        if not (0.0 <= t <= 1.0):
            t = _snap_unit(t)
        if t == 0.0:
            return x
        if t == 1.0:
            return y
        return self._combine(x, y, t)

    # -- array kernels -------------------------------------------------------

    def sample_many(self, rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
        """``n`` random points, spread about the base point by ``scale``, as
        the rows of an (n, d) coordinate block; the space's one sampler."""
        raise NotImplementedError

    def distance_many(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Row-wise distances d(X[i], Y[i]) of two coordinate blocks."""
        import numpy as np
        sid = self.space_id
        return np.array([self._distance(SpacePoint(sid, tuple(x)), SpacePoint(sid, tuple(y)))
                         for x, y in zip(X.tolist(), Y.tolist())], dtype=float)

    def combine_many(self, X: np.ndarray, Y: np.ndarray, t) -> np.ndarray:
        """Row-wise ``combine(X[i], Y[i], t[i])``, with the same rule for t."""
        import numpy as np
        t = _snap_unit_many(t)
        sid = self.space_id
        rows = [self.combine(SpacePoint(sid, tuple(x)), SpacePoint(sid, tuple(y)), ti).xs
                for x, y, ti in zip(X.tolist(), Y.tolist(), t.tolist())]
        return np.array(rows, dtype=float).reshape(X.shape)

    def quasilin(self, a: SpacePoint, b: SpacePoint, c: SpacePoint, d: SpacePoint) -> float:
        """Quasi-linearization <ab, cd>, an inner-product surrogate built
        from squared distances. Its identities (<ab,ab> = d^2(a,b), slot
        symmetry, antisymmetry, <ax,cd> + <xb,cd> = <ab,cd>) hold for any
        function of squared distances; the CAT(0) content is Cauchy-Schwarz,
        <ab,cd> <= d(a,b) d(c,d) (Berg and Nikolaev)."""
        for p in (a, b, c, d):
            self.check_point(p)
        dad = self._distance(a, d)
        dbc = self._distance(b, c)
        dac = self._distance(a, c)
        dbd = self._distance(b, d)
        return 0.5 * (dad * dad + dbc * dbc - dac * dac - dbd * dbd)

    # -- tangent maps (Euclidean / hyperboloid only) -------------------------

    def log_map(self, base: SpacePoint, target: SpacePoint) -> tuple[float, ...]:
        """Tangent vector at ``base`` pointing to ``target`` with norm equal
        to d(base, target), a tuple of floats. Inverse of exp_map."""
        self.check_point(base)
        self.check_point(target)
        return self._log(base, target)

    def _log(self, base: SpacePoint, target: SpacePoint) -> tuple[float, ...]:
        # log_map without checks
        raise UnsupportedOperationError(f"{self.space_id} has no tangent structure")

    def exp_map(self, base: SpacePoint, v) -> SpacePoint:
        raise UnsupportedOperationError(f"{self.space_id} has no tangent structure")

    def _exp_entry(self, base: SpacePoint, v) -> tuple[float, ...]:
        # exp_map's checks; v, any sequence of finite numbers, is read once as floats
        self.check_point(base)
        return floats(v, len(base.xs), "tangent vector", finite=True)

    def tangent_norm(self, base: SpacePoint, v) -> float:
        raise UnsupportedOperationError(f"{self.space_id} has no tangent structure")

    # -- convex subsets -----------------------------------------------------

    def check_set(self, cset: ConvexSubset) -> None:
        if cset.space_id != self.space_id:
            raise DomainError(
                f"set belongs to space {cset.space_id!r}, expected {self.space_id!r}"
            )
        if cset.kind == "halfspace" and len(cset.normal) != len(self.base_point().xs):
            raise DomainError(f"halfspace normal must be {len(self.base_point().xs)} numbers, "
                              f"got {cset.normal!r}")

    def project(self, cset: ConvexSubset, x: SpacePoint) -> SpacePoint:
        """Metric projection onto a closed convex set. Idempotent; the
        result satisfies the obtuse-angle property <p(x)x, p(x)y> <= 0 for
        every y in the set."""
        self.check_set(cset)
        self.check_point(x)
        if cset.kind == "whole_space":
            return x
        if cset.kind == "ball":
            d = self._distance(cset.center, x)
            if d <= cset.radius:
                return x
            return self._combine(cset.center, x, cset.radius / d, d)
        if cset.kind == "segment":
            if self._distance(cset.a, cset.b) < 1e-15:
                return cset.a
            return self._project_segment(cset.a, cset.b, x)
        if cset.kind == "halfspace":
            return self._project_halfspace(cset, x)
        raise UnsupportedOperationError(f"unknown set kind {cset.kind!r}")

    def contains(self, cset: ConvexSubset, x: SpacePoint, tol: float = POINT_TOL) -> bool:
        self.check_set(cset)
        self.check_point(x)
        if cset.kind == "whole_space":
            return True
        if cset.kind == "ball":
            return self._distance(cset.center, x) <= cset.radius + tol
        if cset.kind == "halfspace":
            n = cset.normal
            return (self._halfspace_dot(cset, x)
                    <= cset.offset + tol * (1.0 + math.sqrt(sum(map(mul, n, n)))))
        return self._distance(self.project(cset, x), x) <= tol

    def _project_segment(self, a: SpacePoint, b: SpacePoint, x: SpacePoint) -> SpacePoint:
        raise NotImplementedError

    def _halfspace_dot(self, cset: Halfspace, x: SpacePoint) -> float:
        # normal . x, on the spaces where halfspaces are defined
        raise UnsupportedOperationError(f"halfspaces are not supported on {self.space_id}")

    def _project_halfspace(self, cset: Halfspace, x: SpacePoint) -> SpacePoint:
        raise UnsupportedOperationError(f"halfspaces are not supported on {self.space_id}")

    # -- sampling ------------------------------------------------------------

    def sample_point(self, rng: np.random.Generator, scale: float = 1.0) -> SpacePoint:
        """One random point: row 0 of ``sample_many(rng, 1, scale)``, which
        leaves ``rng`` in the same state."""
        return SpacePoint(self.space_id, tuple(self.sample_many(rng, 1, scale)[0].tolist()))

    def _distance(self, x: SpacePoint, y: SpacePoint) -> float:
        raise NotImplementedError

    def _combine(self, x: SpacePoint, y: SpacePoint, t: float, d: float | None = None) -> SpacePoint:
        """``combine`` without checks, for t in (0, 1); ``d``, when the
        caller has it, is d(x, y), which spaces that need it then reuse."""
        raise NotImplementedError


@dataclass(frozen=True, eq=True)
class Euclidean(ModelSpace):
    """R^n with the usual metric; geodesics are straight segments."""

    dim: int
    space_id: str = field(init=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dimension must be >= 1")
        object.__setattr__(self, "space_id", f"euclidean:{self.dim}")
        object.__setattr__(self, "_base", SpacePoint(self.space_id, (0.0,) * self.dim))

    def point(self, coords) -> SpacePoint:
        return SpacePoint(self.space_id, floats(coords, self.dim, "coordinates", finite=True))

    def base_point(self) -> SpacePoint:
        return self._base

    def _distance(self, x: SpacePoint, y: SpacePoint) -> float:
        if self.dim == 1:  # |a - b|, without the loop
            return abs(x.xs[0] - y.xs[0])
        # the square root of the plain sum of squares, as distance_many
        # takes it, not math.dist: that one is exact where the squares
        # underflow or overflow, so the two would part at the float extremes
        s = 0.0
        for a, b in zip(x.xs, y.xs):
            s += (a - b) * (a - b)
        return math.sqrt(s)

    def _combine(self, x: SpacePoint, y: SpacePoint, t: float, d: float | None = None) -> SpacePoint:
        s = 1.0 - t
        return SpacePoint(self.space_id, tuple([s * a + t * b for a, b in zip(x.xs, y.xs)]))

    def sample_many(self, rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
        Z = rng.normal(size=(n, self.dim))
        Z *= scale
        return Z

    def distance_many(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        import numpy as np
        return np.sqrt(_row_sq(X - Y))

    def combine_many(self, X: np.ndarray, Y: np.ndarray, t) -> np.ndarray:
        t = _snap_unit_many(t)[:, None]
        return (1.0 - t) * X + t * Y

    def _log(self, base: SpacePoint, target: SpacePoint) -> tuple[float, ...]:
        if self.dim == 1:
            return (target.xs[0] - base.xs[0],)
        return tuple(map(sub, target.xs, base.xs))

    def exp_map(self, base: SpacePoint, v) -> SpacePoint:
        return SpacePoint(self.space_id, tuple(map(add, base.xs, self._exp_entry(base, v))))

    def tangent_norm(self, base: SpacePoint, v) -> float:
        if self.dim == 1:
            return abs(float(v[0]))
        return math.sqrt(sum([c * c for c in map(float, v)]))

    def _project_segment(self, a: SpacePoint, b: SpacePoint, x: SpacePoint) -> SpacePoint:
        al, bl = a.xs, b.xs
        ab = list(map(sub, bl, al))
        t = sum(map(mul, map(sub, x.xs, al), ab)) / sum(map(mul, ab, ab))
        return self._combine(a, b, min(1.0, max(0.0, t)))

    def _halfspace_dot(self, cset: Halfspace, x: SpacePoint) -> float:
        return sum(map(mul, cset.normal, x.xs))

    def _project_halfspace(self, cset: Halfspace, x: SpacePoint) -> SpacePoint:
        n = cset.normal
        excess = self._halfspace_dot(cset, x) - cset.offset
        if excess <= 0.0:
            return x
        k = excess / sum(map(mul, n, n))
        return SpacePoint(self.space_id, tuple([c - k * a for c, a in zip(x.xs, n)]))


# Hyperboloid float primitives on coordinate tuples or lists. Products and sums
# of floats overflow to inf as numpy's do; math.sinh and math.cosh raise
# OverflowError instead, so their callers turn it into non-finite
# coordinates, which the engines report as a solver error.

def _mink(u: list, v: list) -> float:
    # <u, v>_M = -u0 v0 + sum_i ui vi, the products taken once, without slices;
    # a PPA step's primitives inline these products in this order: same bits, one call less
    products = map(mul, u, v)
    u0v0 = next(products)
    return sum(products) - u0v0


def _h_distance(x: list, y: list, m: float | None = None) -> float:
    # d = 2 asinh(sqrt(q) / 2) from q = 4 sinh^2(d/2), which far pairs take
    # from m = -<x,y>_M = cosh d as 2 (m - 1), so that d = acosh(m), and near
    # pairs from the chordal square <x-y, x-y>_M. m, when the caller has
    # it, is -<x,y>_M.
    if m is None:
        products = map(mul, x, y)
        x0y0 = next(products)
        m = -(sum(products) - x0y0)
    if _ACOSH_FROM < m < math.inf:
        q = 2.0 * (m - 1.0)
    else:
        d0 = x[0] - y[0]
        q = sum([c * c for c in map(sub, x, y)]) - 2.0 * d0 * d0
        if q <= 0.0:
            return 0.0
    return 2.0 * math.asinh(0.5 * math.sqrt(q))


@dataclass(frozen=True, eq=True)
class Hyperboloid(ModelSpace):
    """Hyperbolic n-space as the upper sheet {x : <x,x>_M = -1, x0 >= 1} of
    the hyperboloid in Minkowski space R^{1,n}, with the Minkowski form
    <x,y>_M = -x0 y0 + sum_i xi yi and metric d(x,y) = arccosh(-<x,y>_M).

    Near pairs take the chordal identity <x-y, x-y>_M = 4 sinh^2(d/2),
    where arccosh of a near-1 argument would lose half the digits; the
    arccosh clamp (>= 1) corresponds to clamping the chordal square at 0.
    Far pairs, -<x,y>_M > 16 (d > 3.47), take arccosh(-<x,y>_M): there the
    chordal square cancels catastrophically (it reads 0 from d ~ 40), while
    the product loses precision only for close pairs.

    Points lie within distance HYPERBOLOID_MAX_RADIUS = 100 of the apex e0
    (x0 <= cosh 100, up to POINT_TOL); ``point`` and ``from_spatial`` raise
    ``DomainError`` beyond it, and so does ``sample_many``, and with it
    ``sample_point``, for a draw that lands beyond it. Up to that radius,
    distances from the apex, geodesic points from it and distances between
    points on opposite rays from it keep about 1e-12 relative accuracy.
    Between two far points that are close in direction, the formulas here
    cancel, and they do on one ray from the apex too: for the points at R
    and R + 5 on a ray, ``distance`` reads 5.00054 at R = 15, 5.25747 at
    R = 18 and 0.0 from R = 19. Against a ``decimal`` oracle the worst
    distance errors are 1.6e-11, 2e-7 and 9e-3 at R = 5, 10 and 15 from the
    apex, where the rounding of the coordinates alone would allow about
    1.1e-16 cosh R (ROADMAP item 1).

    The space stores no array: ``distance_many`` builds the Minkowski
    signature (-1, 1, ..., 1) on each call, so making a hyperboloid, like
    every scalar primitive on it, does not import numpy.
    """

    dim: int
    space_id: str = field(init=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dimension must be >= 1")
        object.__setattr__(self, "space_id", f"hyperboloid:{self.dim}")
        object.__setattr__(self, "_base", SpacePoint(self.space_id, (1.0,) + (0.0,) * self.dim))

    @staticmethod
    def minkowski(u, v) -> float:
        """<u, v>_M of two ambient vectors, read as ``floats`` reads a point's
        coordinates: ``v`` must have as many entries as ``u``."""
        u = floats(u, None, "vector")
        return _mink(u, floats(v, len(u), "vector"))

    def point(self, coords) -> SpacePoint:
        c = floats(coords, self.dim + 1, "coordinates", finite=True)
        # on the sheet |xi| <= x0, so this bounds x0 and keeps the squares
        # below finite from overflowing into the sheet test
        big = max(map(abs, c))
        if big > _X0_MAX:
            raise DomainError(f"point lies beyond distance {HYPERBOLOID_MAX_RADIUS:g} "
                              f"of the apex (a coordinate of {big:.6g})")
        m = _mink(c, c)
        if abs(m + 1.0) > POINT_TOL * (1.0 + sum(map(mul, c, c))):
            raise DomainError(f"not on the hyperboloid: <x,x>_M = {m}")
        if c[0] < 1.0 - POINT_TOL:
            raise DomainError("point lies on the lower sheet (x0 < 1)")
        return SpacePoint(self.space_id, c)

    def from_spatial(self, spatial: list[float]) -> SpacePoint:
        """Lift spatial coordinates onto the sheet: x0 = sqrt(1 + |s|^2).
        ``point`` validates the lift, the radius bound included."""
        s = floats(spatial, self.dim, "spatial coordinates")
        return self.point((math.sqrt(1.0 + sum(map(mul, s, s))), *s))

    def base_point(self) -> SpacePoint:
        return self._base

    def _distance(self, x: SpacePoint, y: SpacePoint) -> float:
        return _h_distance(x.xs, y.xs)

    def _tangent_toward(self, x, y) -> tuple[list, float, float]:
        # (w, nw, d) from coordinate tuples: the unit tangent at x toward y is
        # w / nw; (zero, 1, 0) if d < 1e-14, (zero, 1, d) if the tangent cancels
        products = map(mul, x, y)
        x0y0 = next(products)
        m = sum(products) - x0y0
        d = _h_distance(x, y, -m)
        if d < 1e-14:
            return [0.0] * len(x), 1.0, 0.0
        w = [b + m * a for a, b in zip(x, y)]  # Minkowski-orthogonal to x
        products = map(mul, w, w)
        w0w0 = next(products)
        nw = sum(products) - w0w0              # = sinh^2 d
        if not nw > 0:
            return [0.0] * len(x), 1.0, d
        return w, math.sqrt(nw), d

    @staticmethod
    def _tangent_at(x, v) -> list:
        # v + <x, v>_M x from coordinate tuples: v moved into the tangent space at x
        m = _mink(x, v)
        return [c + m * a for c, a in zip(v, x)]

    def _combine(self, x: SpacePoint, y: SpacePoint, t: float, d: float | None = None) -> SpacePoint:
        # slerp form: gamma(s) = (sinh(d-s) x + sinh(s) y) / sinh(d). A
        # positive combination of the endpoints, so no cancellation on long
        # geodesics (unlike the cosh/sinh tangent form). The time coordinate
        # is recomputed, so only the spatial part is combined.
        xs, ys = x.xs, y.xs
        if d is None:
            d = _h_distance(xs, ys)
        if d < 1e-14:
            return x
        s = t * d
        try:
            sd = math.sinh(d)
            a, b = math.sinh(d - s) / sd, math.sinh(s) / sd
        except OverflowError:  # d > 710, only beyond HYPERBOLOID_MAX_RADIUS
            a = b = math.nan
        pairs = zip(xs, ys)
        next(pairs)  # the time coordinate, recomputed by the lift
        s = [a * p + b * q for p, q in pairs]
        return SpacePoint(self.space_id, (math.sqrt(1.0 + sum(map(mul, s, s))), *s))

    def sample_many(self, rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
        # a Gaussian tangent at the apex (a raw draw's spatial part), given
        # the length of an independent Gaussian displacement
        import numpy as np
        draw = rng.normal(size=(n, 2 * self.dim + 1))
        v = draw[:, 1:self.dim + 1]
        g = draw[:, self.dim + 1:]
        nv = np.sqrt(_row_sq(v))
        length = np.sqrt(_row_sq(g)) * scale
        moved = (nv >= 1e-15) & (length != 0.0)
        if not (length[moved] <= HYPERBOLOID_MAX_RADIUS).all():  # before sinh overflows
            raise DomainError(f"a sample drawn lies beyond distance {HYPERBOLOID_MAX_RADIUS:g} "
                              "of the apex; use a smaller sampling scale")
        gain = np.sinh(length) / np.where(moved, nv, 1.0)
        Z = np.zeros((n, self.dim + 1))
        Z[:, 1:] = np.where(moved, gain, 0.0)[:, None] * v
        return self._renorm_many(Z)

    def distance_many(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        # _h_distance row by row, with its switch
        import numpy as np
        sig = np.array([-1.0] + [1.0] * self.dim)  # the Minkowski form: u @ diag(sig) @ v
        D = X - Y
        q = (D * D) @ sig
        m = -((X * Y) @ sig)
        q = np.where((m > _ACOSH_FROM) & (m < np.inf), 2.0 * (m - 1.0), q)
        return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(q, 0.0)))

    def combine_many(self, X: np.ndarray, Y: np.ndarray, t) -> np.ndarray:
        import numpy as np
        t = _snap_unit_many(t)
        d = self.distance_many(X, Y)
        keep_x = (d < 1e-14) | (t == 0.0)
        s = t * d
        sd = np.sinh(np.where(keep_x, 1.0, d))
        Z = (np.sinh(d - s) / sd)[:, None] * X + (np.sinh(s) / sd)[:, None] * Y
        Z = self._renorm_many(Z)
        Z = np.where(keep_x[:, None], X, Z)
        return np.where((t == 1.0)[:, None], Y, Z)

    @staticmethod
    def _renorm_many(Z: np.ndarray) -> np.ndarray:
        # _lift on the spatial part of every row, in place
        import numpy as np
        Z[:, 0] = np.sqrt(1.0 + _row_sq(Z[:, 1:]))
        return Z

    def _log(self, base: SpacePoint, target: SpacePoint) -> tuple[float, ...]:
        w, nw, d = self._tangent_toward(base.xs, target.xs)
        return tuple([(c / nw) * d for c in w])

    def exp_map(self, base: SpacePoint, v) -> SpacePoint:
        v = self._exp_entry(base, v)
        b = base.xs
        # re-orthogonalize against the base point (absorbs drift <= 1e-8)
        m = _mink(b, v)
        v = [c + m * p for c, p in zip(v, b)]
        t = _mink(v, v)
        t = math.sqrt(t) if t > 0 else 0.0
        if t < 1e-16:
            return base
        try:
            ch, sh = math.cosh(t), math.sinh(t)
        except OverflowError:  # t > 710: the point is not representable
            ch = sh = math.inf
        s = [ch * p + sh * (c / t) for p, c in zip(b[1:], v[1:])]
        return SpacePoint(self.space_id, (math.sqrt(1.0 + sum(map(mul, s, s))), *s))

    def tangent_norm(self, base: SpacePoint, v) -> float:
        v = tuple(map(float, v))
        products = map(mul, v, v)
        v0v0 = next(products)
        q = sum(products) - v0v0
        # a square of -inf (an infinite time part) reads NaN, as a NaN square does
        return math.sqrt(q) if q > 0 else 0.0 if q > -math.inf else math.nan

    def _project_segment(self, a: SpacePoint, b: SpacePoint, x: SpacePoint) -> SpacePoint:
        # minimize cosh d(x, gamma(s)) = A cosh s + B sinh s over s in [0, L]
        # where gamma is the unit-speed geodesic from a to b; the unconstrained
        # minimizer is s* = artanh(-B/A), then clamp. The geodesic starts at
        # the endpoint nearer the apex: at a far base point the tangent form
        # can cancel, so that the direction toward the other end reads as 0.
        if a.xs[0] > b.xs[0]:
            a, b = b, a
        al, xl = a.xs, x.xs
        w, nw, L = self._tangent_toward(al, b.xs)
        if L == 0.0:  # shorter than 1e-14: the nearer end is the projection
            return a
        v = [c / nw for c in w]
        if not any(v):
            raise DomainError("the direction of the segment cancels in floating point")
        A = -_mink(xl, al)
        B = -_mink(xl, v)
        ratio = -B / A  # |B| < A for any point x and unit-speed geodesic
        ratio = min(1.0 - 1e-16, max(-1.0 + 1e-16, ratio))
        s = math.atanh(ratio)
        t = min(1.0, max(0.0, s / L))
        return self.combine(a, b, t)


@dataclass(frozen=True, eq=True)
class Spider(ModelSpace):
    """Metric tree of ``num_legs`` rays glued at a hub. A point is a pair
    (leg, radius); radius 0 is the hub and is canonicalized to leg 0. The
    metric is |r1 - r2| along one leg and r1 + r2 across legs. Not a
    manifold: no tangent structure, so gradient-based solvers opt out.
    """

    num_legs: int
    space_id: str = field(init=False, compare=False)

    def __post_init__(self):
        if self.num_legs < 2:
            raise DomainError("spider needs at least 2 legs")
        object.__setattr__(self, "space_id", f"spider:{self.num_legs}")

    def point(self, coords) -> SpacePoint:
        # read as every other point is: a string, bytes or a mapping is no pair
        try:
            leg, radius = floats(coords, 2, "spider point")
        except DomainError:
            raise DomainError(f"a spider point is a pair (leg, radius), got {coords!r}") from None
        index = integral(leg)
        if index is None:
            raise DomainError(f"leg index must be an integer, got {leg!r}")
        leg = index
        if not (0 <= leg < self.num_legs):
            raise DomainError(f"leg index {leg} outside [0, {self.num_legs})")
        if not math.isfinite(radius) or radius < 0.0:
            raise DomainError(f"radius must be finite and >= 0, got {radius}")
        return self._pt(leg, radius)

    def _pt(self, leg: float, radius: float) -> SpacePoint:
        if radius <= 0.0:
            return SpacePoint(self.space_id, (0.0, 0.0))  # the hub lies on every leg
        return SpacePoint(self.space_id, (float(leg), radius))

    def base_point(self) -> SpacePoint:
        return self._pt(0, 0.0)

    @staticmethod
    def leg_of(p: SpacePoint) -> int:
        return int(p.xs[0])

    @staticmethod
    def radius_of(p: SpacePoint) -> float:
        return p.xs[1]

    def _distance(self, x: SpacePoint, y: SpacePoint) -> float:
        lx, rx = x.xs
        ly, ry = y.xs
        if lx == ly or rx == 0.0 or ry == 0.0:
            return abs(rx - ry)
        return rx + ry

    def _combine(self, x: SpacePoint, y: SpacePoint, t: float, d: float | None = None) -> SpacePoint:
        lx, rx = x.xs
        ly, ry = y.xs
        if rx == 0.0:
            lx = ly
        if ry == 0.0:
            ly = lx
        if lx == ly:
            return self._pt(lx, (1.0 - t) * rx + t * ry)
        s = t * (rx + ry)  # arc length walked from x through the hub
        if s <= rx:
            return self._pt(lx, rx - s)
        return self._pt(ly, s - rx)

    def sample_many(self, rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
        legs = rng.integers(self.num_legs, size=n).astype(float)
        return self._pt_many(legs, rng.exponential(scale, size=n))

    def distance_many(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        import numpy as np
        lx, rx, ly, ry = X[:, 0], X[:, 1], Y[:, 0], Y[:, 1]
        one_leg = (lx == ly) | (rx == 0.0) | (ry == 0.0)
        return np.where(one_leg, np.abs(rx - ry), rx + ry)

    def combine_many(self, X: np.ndarray, Y: np.ndarray, t) -> np.ndarray:
        import numpy as np
        t = _snap_unit_many(t)
        lx, rx, ly, ry = X[:, 0], X[:, 1], Y[:, 0], Y[:, 1]
        lx = np.where(rx == 0.0, ly, lx)
        ly = np.where(ry == 0.0, lx, ly)
        s = t * (rx + ry)
        one_leg = lx == ly
        before_hub = s <= rx
        legs = np.where(one_leg | before_hub, lx, ly)
        radii = np.where(one_leg, (1.0 - t) * rx + t * ry,
                         np.where(before_hub, rx - s, s - rx))
        Z = self._pt_many(legs, radii)
        Z = np.where((t == 0.0)[:, None], X, Z)
        return np.where((t == 1.0)[:, None], Y, Z)

    @staticmethod
    def _pt_many(legs: np.ndarray, radii: np.ndarray) -> np.ndarray:
        # _pt on every row: the hub is canonicalized to leg 0
        import numpy as np
        hub = radii <= 0.0
        return np.stack([np.where(hub, 0.0, legs), np.where(hub, 0.0, radii)], axis=1)

    def _project_segment(self, a: SpacePoint, b: SpacePoint, x: SpacePoint) -> SpacePoint:
        la, ra = a.xs
        lb, rb = b.xs
        lx, rx = x.xs
        if ra == 0.0:
            la = lb
        if rb == 0.0:
            lb = la
        if la == lb:  # path is an interval on a single leg
            lo, hi = min(ra, rb), max(ra, rb)
            if lx == la and rx > 0.0:
                return self._pt(la, min(hi, max(lo, rx)))
            # x sits on a different leg (or at the hub): nearest path point
            # is the endpoint closest to the hub
            return self._pt(la, lo)
        # path runs through the hub: leg la down to 0, then up leg lb
        if lx == la and rx > 0.0:
            return self._pt(la, min(ra, rx))
        if lx == lb and rx > 0.0:
            return self._pt(lb, min(rb, rx))
        return self._pt(0, 0.0)


def canonical_point(space: ModelSpace, cset: ConvexSubset) -> SpacePoint:
    """Some point of the set, used as a default witness or sampling anchor."""
    space.check_set(cset)
    if cset.kind == "ball":
        return cset.center
    if cset.kind == "segment":
        return cset.a
    if cset.kind == "halfspace":
        n = cset.normal
        k = cset.offset / sum(map(mul, n, n))
        return space.point([c * k for c in n])
    return space.base_point()
