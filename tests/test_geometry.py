import dataclasses
import hashlib
import math
import pickle
import random
from operator import mul, sub
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize_scalar

from hadamard_iter import (
    Ball,
    DomainError,
    Euclidean,
    Halfspace,
    Hyperboloid,
    ModelSpace,
    Segment,
    Spider,
    UnsupportedOperationError,
    WholeSpace,
    check_space_axioms,
    point_from_config,
    point_to_config,
    set_from_config,
    space_from_config,
    space_to_config,
)
from hadamard_iter import cli, geometry
from hadamard_iter.geometry import (
    HYPERBOLOID_MAX_RADIUS,
    POINT_TOL,
    T_SNAP,
    SpacePoint,
    _h_distance,
    _mink,
    floats,
)
from sampling import sample_in

E1 = Euclidean(1)
E2 = Euclidean(2)
E3 = Euclidean(3)
H2 = Hyperboloid(2)
H3 = Hyperboloid(3)
S3 = Spider(3)
ALL_SPACES = [E2, H2, S3]
R_MAX = HYPERBOLOID_MAX_RADIUS
X0_MAX = math.cosh(R_MAX) * (1.0 + POINT_TOL)


def rand_point(space, rng, scale=2.0):
    return space.sample_point(rng, scale)


coords2 = st.tuples(
    st.floats(-50, 50, allow_nan=False), st.floats(-50, 50, allow_nan=False)
)


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def test_euclidean_pythagoras():
    assert E2.distance(E2.point([0, 0]), E2.point([3, 4])) == pytest.approx(5.0)


def test_hyperboloid_distance_unit():
    # oracle: -<x,y>_M = cosh(1) exactly for these points, so d = 1
    a = H2.point([1, 0, 0])
    b = H2.point([math.cosh(1), math.sinh(1), 0])
    m = -(-a.coords[0] * b.coords[0] - 0 + 0) * -1  # spelled out below instead
    mink = -a.coords[0] * b.coords[0] + a.coords[1] * b.coords[1] + a.coords[2] * b.coords[2]
    assert math.acosh(-mink) == pytest.approx(1.0, abs=1e-12)
    assert H2.distance(a, b) == pytest.approx(1.0, abs=1e-12)


def test_spider_distance_through_hub():
    assert S3.distance(S3.point((1, 2)), S3.point((2, 3))) == 5.0
    assert S3.distance(S3.point((1, 2)), S3.point((1, 3))) == 1.0
    # hub matches any leg
    assert S3.distance(S3.point((0, 0)), S3.point((2, 3))) == 3.0


def test_distance_symmetry_and_zero():
    rng = np.random.default_rng(0)
    for space in ALL_SPACES:
        for _ in range(50):
            x, y = rand_point(space, rng), rand_point(space, rng)
            assert space.distance(x, y) == pytest.approx(space.distance(y, x), abs=1e-12)
            assert space.distance(x, x) <= 1e-12


def test_distance_space_mismatch():
    with pytest.raises(DomainError):
        E2.distance(E2.point([0, 0]), E1.point([0]))


# ---------------------------------------------------------------------------
# point validation
# ---------------------------------------------------------------------------

def test_hyperboloid_point_validation():
    with pytest.raises(DomainError):
        H2.point([1, 1, 0])  # not on the sheet
    with pytest.raises(DomainError):
        H2.point([-1, 0, 0])  # lower sheet
    p = H2.from_spatial([0.7, -0.4])
    assert Hyperboloid.minkowski(p.coords, p.coords) == pytest.approx(-1.0, abs=1e-9)


# the edges of the float range: NaN, infinities, the largest finite values,
# negative zero and subnormals
EDGE_FLOATS = [math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, -0.0, 0.0,
               5e-324, -5e-324, 1e-310, -2.2250738585072e-308]
edge_coordinate = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


def _rejected_as_nonfinite(make, coords) -> bool:
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # squares of +-1.7e308
            make(coords)
    except DomainError as e:
        return str(e) == "coordinates must be finite"
    return False


@settings(max_examples=300, deadline=None)
@given(st.lists(edge_coordinate, min_size=2, max_size=2))
@example([math.nan, 0.0])
@example([1.7e308, -1.7e308])
@example([-0.0, 5e-324])
def test_euclidean_point_finiteness_matches_numpy(coords):
    arr = np.asarray(coords, dtype=float)
    finite = bool(np.all(np.isfinite(arr)))
    assert _rejected_as_nonfinite(E2.point, coords) == (not finite)
    if finite:
        assert E2.point(coords).coords.tobytes() == arr.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(edge_coordinate, min_size=3, max_size=3))
@example([math.inf, 0.0, 0.0])
@example([1.0, -0.0, 1e-310])
def test_hyperboloid_point_finiteness_matches_numpy(coords):
    finite = bool(np.all(np.isfinite(np.asarray(coords, dtype=float))))
    assert _rejected_as_nonfinite(H2.point, coords) == (not finite)


@settings(max_examples=300, deadline=None)
@given(st.lists(edge_coordinate, min_size=2, max_size=2))
@example([1.7e308, 0.0])
@example([-math.inf, 1.0])
@example([-0.0, 5e-324])
def test_from_spatial_finiteness_matches_numpy(spatial):
    # the lift x0 = sqrt(1 + |s|^2), with |s|^2 the sequential sum of squares
    # that _lift takes, overflows for |s| near the float maximum
    s = [float(c) for c in spatial]
    lifted = np.array([math.sqrt(1.0 + sum(c * c for c in s)), *s])
    finite = bool(np.all(np.isfinite(lifted)))
    assert _rejected_as_nonfinite(H2.from_spatial, spatial) == (not finite)
    if finite and lifted[0] <= X0_MAX:
        assert H2.from_spatial(spatial).coords.tobytes() == lifted.tobytes()
    elif finite:  # a finite lift beyond the supported radius
        with pytest.raises(DomainError, match="beyond distance 100 of the apex"):
            H2.from_spatial(spatial)


def test_spider_point_canonicalization():
    hub = S3.point((2, 0.0))
    assert Spider.leg_of(hub) == 0 and Spider.radius_of(hub) == 0.0
    with pytest.raises(DomainError):
        S3.point((1, -0.5))
    with pytest.raises(DomainError):
        S3.point((7, 1.0))


# ---------------------------------------------------------------------------
# combine
# ---------------------------------------------------------------------------

def test_combine_euclidean_quarter():
    z = E2.combine(E2.point([0, 0]), E2.point([2, 0]), 0.25)
    assert np.allclose(z.coords, [0.5, 0.0])


def test_combine_endpoints_exact():
    rng = np.random.default_rng(1)
    for space in ALL_SPACES:
        x, y = rand_point(space, rng), rand_point(space, rng)
        assert space.combine(x, y, 0.0) is x
        assert space.combine(x, y, 1.0) is y


def test_combine_spider_lands_on_hub():
    z = S3.combine(S3.point((1, 2)), S3.point((2, 3)), 0.4)
    assert Spider.radius_of(z) == pytest.approx(0.0, abs=1e-15)


def test_combine_parameter_is_distance_fraction():
    rng = np.random.default_rng(2)
    for space in ALL_SPACES:
        for _ in range(100):
            x, y = rand_point(space, rng), rand_point(space, rng)
            t = float(rng.uniform())
            z = space.combine(x, y, t)
            d = space.distance(x, y)
            tol = 1e-9 * (1.0 + d)
            assert space.distance(x, z) == pytest.approx(t * d, abs=tol)
            assert space.distance(y, z) == pytest.approx((1 - t) * d, abs=tol)


def test_combine_rejects_bad_parameter():
    x, y = E2.point([0, 0]), E2.point([1, 0])
    for t in (-0.1, 1.1):
        with pytest.raises(DomainError):
            E2.combine(x, y, t)


def test_geodesic_consistency():
    rng = np.random.default_rng(3)
    for space in ALL_SPACES:
        for _ in range(200):
            x, y = rand_point(space, rng), rand_point(space, rng)
            t, s = rng.uniform(size=2)
            lhs = space.distance(space.combine(x, y, t), space.combine(x, y, s))
            assert lhs == pytest.approx(abs(t - s) * space.distance(x, y), abs=1e-9)


# ---------------------------------------------------------------------------
# quasi-linearization
# ---------------------------------------------------------------------------

@given(a=coords2, b=coords2, c=coords2, d=coords2)
@settings(max_examples=200, deadline=None)
def test_quasilin_euclidean_matches_dot_product(a, b, c, d):
    # independent oracle: <ab, cd> = (b - a) . (d - c) in Euclidean space
    pa, pb, pc, pd = (E2.point(list(p)) for p in (a, b, c, d))
    want = float((np.array(b) - np.array(a)) @ (np.array(d) - np.array(c)))
    assert E2.quasilin(pa, pb, pc, pd) == pytest.approx(want, abs=1e-6, rel=1e-9)


def test_quasilin_self_pairing_is_squared_distance():
    a, b = E2.point([0, 0]), E2.point([3, 4])
    assert E2.quasilin(a, b, a, b) == pytest.approx(25.0)


def test_quasilin_orthogonal_vectors():
    a, b = E2.point([0, 0]), E2.point([1, 0])
    c, d = E2.point([0, 0]), E2.point([0, 1])
    assert E2.quasilin(a, b, c, d) == pytest.approx(0.0, abs=1e-12)


def test_quasilin_identities_random():
    rng = np.random.default_rng(4)
    for space in ALL_SPACES:
        for _ in range(100):
            a, b, c, d, x = (rand_point(space, rng) for _ in range(5))
            ql = space.quasilin
            dab = space.distance(a, b)
            assert ql(a, b, a, b) == pytest.approx(dab * dab, abs=1e-9)
            assert ql(a, b, c, d) == pytest.approx(ql(c, d, a, b), abs=1e-9)
            assert ql(a, b, c, d) == pytest.approx(-ql(b, a, c, d), abs=1e-9)
            assert ql(a, x, c, d) + ql(x, b, c, d) == pytest.approx(ql(a, b, c, d), abs=1e-9)


def test_cauchy_schwarz_sampled():
    rng = np.random.default_rng(5)
    for space in ALL_SPACES:
        for _ in range(300):
            a, b, c, d = (rand_point(space, rng) for _ in range(4))
            assert space.quasilin(a, b, c, d) <= (
                space.distance(a, b) * space.distance(c, d) + 1e-8
            )


def test_cat0_comparison_sampled():
    rng = np.random.default_rng(6)
    for space in ALL_SPACES:
        for _ in range(300):
            x, y, z = (rand_point(space, rng) for _ in range(3))
            t = float(rng.uniform())
            m = space.combine(x, y, t)
            lhs = space.distance(m, z) ** 2
            rhs = (
                (1 - t) * space.distance(x, z) ** 2
                + t * space.distance(y, z) ** 2
                - t * (1 - t) * space.distance(x, y) ** 2
            )
            assert lhs <= rhs + 1e-8


# ---------------------------------------------------------------------------
# log / exp maps
# ---------------------------------------------------------------------------

def test_log_map_euclidean():
    v = E2.log_map(E2.point([1, 1]), E2.point([4, 5]))
    assert np.allclose(v, [3, 4])
    assert E2.tangent_norm(E2.point([1, 1]), v) == pytest.approx(5.0)


def test_log_map_hyperboloid_unit_tangent():
    # oracle: the geodesic s -> (cosh s, sinh s, 0) has velocity (0, 1, 0) at s=0
    a = H2.point([1, 0, 0])
    b = H2.point([math.cosh(1), math.sinh(1), 0])
    v = H2.log_map(a, b)
    assert np.allclose(v, [0, 1, 0], atol=1e-12)


def test_exp_map_examples():
    assert np.allclose(E2.exp_map(E2.point([0, 0]), np.array([1.0, 2.0])).coords, [1, 2])
    a = H2.point([1, 0, 0])
    z = H2.exp_map(a, np.array([0.0, 1.0, 0.0]))
    assert np.allclose(z.coords, [math.cosh(1), math.sinh(1), 0], atol=1e-12)
    assert H2.distance(H2.exp_map(a, np.zeros(3)), a) == 0.0


def _bounded_point(space, rng, max_dist):
    # controlled displacement from the base point; the ambient chart's e^d
    # conditioning makes an absolute 1e-8 round trip unattainable far out
    q = space.sample_point(rng, 1.0)
    d = space.distance(space.base_point(), q)
    if d <= max_dist or d == 0.0:
        return q
    return space.combine(space.base_point(), q, max_dist / d)


def test_log_exp_round_trip():
    rng = np.random.default_rng(7)
    for space in (E2, H2):
        for _ in range(200):
            x = _bounded_point(space, rng, 2.0)
            y = _bounded_point(space, rng, 2.0)
            v = space.log_map(x, y)
            assert space.tangent_norm(x, v) == pytest.approx(
                space.distance(x, y), abs=1e-9 * (1 + space.distance(x, y))
            )
            assert space.distance(space.exp_map(x, v), y) <= 1e-8
            assert np.allclose(space.log_map(x, x), 0.0)


def test_exp_map_reorthogonalizes():
    a = H2.from_spatial([0.5, 0.5])
    v = H2.log_map(a, H2.from_spatial([1.0, -0.2])) + 1e-9 * a.coords
    z = H2.exp_map(a, v)
    assert Hyperboloid.minkowski(z.coords, z.coords) == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("space", [E2, H2], ids=lambda s: s.space_id)
@pytest.mark.parametrize("v", [3.0, [1.0], "ab", [1.0, "x", 2.0], np.zeros((3, 1)),
                               np.zeros((1, 3))], ids=lambda v: f"{type(v).__name__}{np.shape(v)}")
def test_exp_map_refuses_what_is_not_a_tangent_of_its_space(space, v):
    # a DomainError, as a misshaped tangent raised when exp_map read arrays
    with pytest.raises(DomainError, match="tangent vector must be"):
        space.exp_map(space.base_point(), v)


@pytest.mark.parametrize("read, n, what",
                         [(E1.point, 1, "coordinates"), (E2.point, 2, "coordinates"),
                          (H2.point, 3, "coordinates"), (H2.from_spatial, 2, "coordinates"),
                          (lambda v: E2.exp_map(E2.base_point(), v), 2, "tangent vector"),
                          (lambda v: H2.exp_map(H2.base_point(), v), 3, "tangent vector"),
                          (lambda v: Hyperboloid.minkowski((1.0, 0.0, 0.0), v), 3, "vector")],
                         ids=["E1 point", "E2 point", "H2 point", "H2 from_spatial",
                              "E2 tangent", "H2 tangent", "minkowski"])
def test_points_are_read_as_exp_map_reads_a_tangent(read, n, what):
    # one reader: a scalar, a string or a nested sequence is refused, as a
    # misshaped tangent is, where the array reader once flattened it. float()
    # parses "1" and b"1" and takes True, and iterating a mapping or bytes
    # gives its keys or byte codes: none of them is a sequence of numbers
    for v in (3.0, "1" * n, [[0.0] * n], np.zeros((1, n)), np.zeros((n, 1)),
              ["1"] * n, [1.0] * (n - 1) + ["2"], dict.fromkeys(map(str, range(n)), 0),
              dict.fromkeys(range(n), 0), b"1" * n, bytearray(b"1" * n), [b"1"] * n,
              [True] + [2.0] * (n - 1), np.array(["1"] * n), np.array([True] * n),
              [10**400] + [0.0] * (n - 1)):
        with pytest.raises(DomainError, match=f"{what} must be {n} numbers"):
            read(v)


def test_spider_points_are_read_by_the_same_rule():
    for v in ("12", {"1": 0, "2.5": 0}, {1: 0, 2.5: 0}, b"\x01\x02", ["1", 2.0], [1, "2.5"],
              [True, 2.0], (1, 2.0, 3.0)):
        with pytest.raises(DomainError, match="a spider point is a pair"):
            S3.point(v)
    assert S3.point(np.array([2.0, 1.5])).xs == S3.point((2, 1.5)).xs == (2.0, 1.5)
    assert S3.point(iter([1, 0.5])).xs == (1.0, 0.5)


def test_points_accept_any_flat_sequence_of_numbers():
    from fractions import Fraction
    want = E2.point([0.5, -2.0]).xs
    for v in ((0.5, -2.0), [Fraction(1, 2), -2], np.array([0.5, -2.0]), np.float32([0.5, -2.0]),
              [np.float64(0.5), np.int64(-2)], iter([0.5, -2.0]), range(0, 2)):
        got = E2.point(v).xs
        assert all(type(c) is float for c in got)
        assert got == (want if not isinstance(v, range) else (0.0, 1.0))


def test_spider_has_no_tangent_maps():
    hub = S3.point((0, 0))
    with pytest.raises(UnsupportedOperationError):
        S3.log_map(hub, S3.point((1, 1)))
    with pytest.raises(UnsupportedOperationError):
        S3.exp_map(hub, np.array([1.0]))


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def _segment_projection_oracle(space, seg, x):
    # independent route: scalar minimization of t -> d(gamma(t), x) on [0, 1]
    res = minimize_scalar(
        lambda t: space.distance(space.combine(seg.a, seg.b, float(t)), x),
        bounds=(0.0, 1.0), method="bounded",
        options={"xatol": 1e-13},
    )
    return space.combine(seg.a, seg.b, float(res.x))


def test_project_ball_euclidean():
    ball = Ball(E2.point([0, 0]), 1.0)
    assert np.allclose(E2.project(ball, E2.point([2, 0])).coords, [1, 0])


def test_project_segment_clamp():
    seg = Segment(E2.point([0, 0]), E2.point([1, 0]))
    assert np.allclose(E2.project(seg, E2.point([0.3, 5])).coords, [0.3, 0.0])
    assert np.allclose(E2.project(seg, E2.point([-2, 1])).coords, [0.0, 0.0])


def test_project_halfspace():
    hs = Halfspace(E2.space_id, np.array([1.0, 0.0]), 0.5)
    assert np.allclose(E2.project(hs, E2.point([2, 3])).coords, [0.5, 3])
    inside = E2.point([0, 3])
    assert E2.project(hs, inside) is inside
    with pytest.raises(UnsupportedOperationError):
        H2.project(Halfspace(H2.space_id, np.array([1.0, 0, 0]), 1.0), H2.base_point())


def test_halfspace_membership_is_euclidean_only():
    # as project: a halfspace of ambient coordinates is no convex set of a
    # curved space, so membership is not answered from a Euclidean dot product
    hs = Halfspace(E2.space_id, [1.0, 0.0], 0.5)
    assert E2.contains(hs, E2.point([0.5, 9.0])) and not E2.contains(hs, E2.point([0.6, 0.0]))
    for space, normal in ((H2, [1.0, 0.0, 0.0]), (S3, [1.0, 0.0])):
        cset = Halfspace(space.space_id, normal, 0.5)
        for use in (space.contains, space.project):
            with pytest.raises(UnsupportedOperationError,
                               match=f"halfspaces are not supported on {space.space_id}"):
                use(cset, space.base_point())


def test_halfspace_normal_is_a_float_tuple_of_the_space_length():
    hs = Halfspace(E2.space_id, np.array([1.0, 0.0]), 0.5)
    assert type(hs.normal) is tuple and all(type(c) is float for c in hs.normal)
    for bad in (0.5, [[1.0, 0.0]], "10", [0.0, 0.0], [1.0, math.inf]):
        with pytest.raises(DomainError, match="halfspace normal must be"):
            Halfspace(E2.space_id, bad, 0.5)
    # a normal of another length is refused where it meets a point, never truncated
    wide = Halfspace(E2.space_id, [1.0, 0.0, 1.0], 0.5)
    for use in (E2.project, E2.contains):
        with pytest.raises(DomainError, match="halfspace normal must be 2 numbers"):
            use(wide, E2.point([2.0, 3.0]))


def _wpoint(space, rng, scale=2.0):
    # working-scale sampling: the hyperboloid chart is kept within distance
    # ~2.5 of the apex so 1e-9 consistency tolerances stay attainable
    if isinstance(space, Hyperboloid):
        return _bounded_point(space, rng, 2.5)
    return space.sample_point(rng, scale)


def _sets_for(space, rng):
    c = _wpoint(space, rng, 1.0)
    a, b = _wpoint(space, rng, 1.5), _wpoint(space, rng, 1.5)
    sets = [WholeSpace(space.space_id), Ball(c, 1.0 + float(rng.uniform())), Segment(a, b)]
    if isinstance(space, Euclidean):
        sets.append(Halfspace(space.space_id, rng.normal(size=space.dim), float(rng.normal())))
    return sets


def test_projection_idempotent_and_contains():
    rng = np.random.default_rng(8)
    for space in ALL_SPACES:
        for _ in range(30):
            for cset in _sets_for(space, rng):
                x = _wpoint(space, rng, 2.0)
                p = space.project(cset, x)
                assert space.contains(cset, p, 1e-9)
                assert space.distance(space.project(cset, p), p) <= 1e-9
                if space.contains(cset, x, 1e-12):
                    assert space.distance(p, x) <= 1e-9


def test_projection_is_nearest_sampled():
    rng = np.random.default_rng(9)
    for space in ALL_SPACES:
        for _ in range(20):
            for cset in _sets_for(space, rng):
                x = _wpoint(space, rng, 2.0)
                p = space.project(cset, x)
                dp = space.distance(x, p)
                for _ in range(20):
                    y = sample_in(space, cset, rng)
                    assert dp <= space.distance(x, y) + 1e-9


def test_projection_obtuse_angle_property():
    rng = np.random.default_rng(10)
    for space in (E2, H2):
        for _ in range(20):
            for cset in _sets_for(space, rng):
                if cset.kind == "whole_space":
                    continue
                x = _wpoint(space, rng, 2.0)
                p = space.project(cset, x)
                for _ in range(10):
                    y = sample_in(space, cset, rng)
                    assert space.quasilin(p, x, p, y) <= 1e-8


def test_segment_projection_matches_scalar_minimizer():
    rng = np.random.default_rng(11)
    for space in ALL_SPACES:
        for _ in range(25):
            seg = Segment(_wpoint(space, rng, 1.5), _wpoint(space, rng, 1.5))
            x = _wpoint(space, rng, 2.0)
            got = space.project(seg, x)
            want = _segment_projection_oracle(space, seg, x)
            assert space.distance(got, want) <= 1e-5


def test_spider_segment_projection_cases():
    seg = Segment(S3.point((1, 2)), S3.point((2, 3)))  # path through the hub
    assert np.allclose(S3.project(seg, S3.point((1, 5))).coords, [1, 2])
    assert np.allclose(S3.project(seg, S3.point((2, 1))).coords, [2, 1])
    p = S3.project(seg, S3.point((0, 4)))  # foreign leg: nearest point is the hub
    assert Spider.radius_of(p) == 0.0
    same = Segment(S3.point((1, 1)), S3.point((1, 4)))
    assert np.allclose(S3.project(same, S3.point((2, 9))).coords, [1, 1])
    assert np.allclose(S3.project(same, S3.point((1, 2.5))).coords, [1, 2.5])


def test_ball_radius_must_be_positive():
    with pytest.raises(DomainError):
        Ball(E2.point([0, 0]), 0.0)


# ---------------------------------------------------------------------------
# config round trips
# ---------------------------------------------------------------------------

def test_space_config_round_trip():
    for space in ALL_SPACES:
        assert space_from_config(space_to_config(space)) == space
    assert space_to_config(H2) == {"kind": "hyperboloid", "dim": 2}


def test_point_config_round_trip():
    rng = np.random.default_rng(12)
    for space in ALL_SPACES:
        p = rand_point(space, rng)
        q = point_from_config(space, point_to_config(space, p))
        assert space.distance(p, q) <= 1e-12


def test_point_config_spatial_lift():
    p = point_from_config(H2, {"spatial": [0.3, -0.2]})
    assert Hyperboloid.minkowski(p.coords, p.coords) == pytest.approx(-1.0, abs=1e-12)


def test_set_config_parsing():
    ball = set_from_config(E2, {"kind": "ball", "center": [0.0, 0.0], "radius": 2.0})
    assert ball.kind == "ball" and ball.radius == 2.0
    with pytest.raises(UnsupportedOperationError):
        set_from_config(H2, {"kind": "halfspace", "normal": [1, 0, 0], "offset": 0.0})


ROUND_TRIP_SPACES = [E1, E2, E3, H2, H3, S3]


@given(space=st.sampled_from(ROUND_TRIP_SPACES), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 8.0), hub=st.booleans())
@settings(max_examples=200, deadline=None)
def test_config_round_trips_are_exact(space, seed, scale, hub):
    assert space_from_config(space_to_config(space)) == space
    p = space.sample_point(np.random.default_rng(seed), scale)
    if hub:
        p = space.base_point()
    q = point_from_config(space, point_to_config(space, p))
    assert q.space_id == p.space_id and q.xs == p.xs


# ---------------------------------------------------------------------------
# hyperboloid segments with a far end
# ---------------------------------------------------------------------------

FAR_A = [89241150.48159365, 89241150.48159364, 0.0]  # distance 19 from the apex


@pytest.mark.parametrize("spatial", [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-3.0, 2.0]])
@pytest.mark.parametrize("far_first", [True, False])
def test_hyperboloid_segment_with_a_far_end_projects(spatial, far_first):
    # from the far end the tangent toward the apex cancels to zero; the
    # geodesic starts at the nearer end instead
    a, o = H2.point(FAR_A), H2.base_point()
    assert H2.distance(a, o) == pytest.approx(19.0)
    x = H2.from_spatial(spatial)
    p = H2.project(Segment(a, o) if far_first else Segment(o, a), x)
    d = H2.distance(p, x)
    for t in np.linspace(0.0, 1.0, 401):
        assert d <= H2.distance(H2.combine(o, a, float(t)), x) + 1e-9


def test_hyperboloid_segment_whose_direction_cancels_is_a_domain_error():
    # both ends 19 from the apex, 1e-9 apart in angle (0.09 apart): the
    # tangent form cancels at either end
    r = math.sinh(19.0)
    a = H2.from_spatial([r, 0.0])
    b = H2.from_spatial([r * math.cos(1e-9), r * math.sin(1e-9)])
    with pytest.raises(DomainError, match="cancels"):
        H2.project(Segment(a, b), H2.base_point())


# ---------------------------------------------------------------------------
# array kernels: pinned row by row to the scalar methods
# ---------------------------------------------------------------------------

SPIDER_RADII = st.one_of(st.just(0.0), st.floats(0, 50, allow_nan=False))
UNIT_T = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1, allow_nan=False))


def _euclidean_point(draw):
    return E2.point([draw(st.floats(-50, 50, allow_nan=False)) for _ in range(2)])


def _hyperboloid_point(draw):
    # up to distance 15 from the apex, so pairs reach distance 30
    r = draw(st.floats(0, 15, allow_nan=False))
    th = draw(st.floats(0, 2 * math.pi, allow_nan=False))
    return H2.from_spatial([math.sinh(r) * math.cos(th), math.sinh(r) * math.sin(th)])


def _spider_point(draw):
    return S3.point((draw(st.integers(0, 2)), draw(SPIDER_RADII)))


_POINTS = {E2.space_id: _euclidean_point, H2.space_id: _hyperboloid_point,
           S3.space_id: _spider_point}


@st.composite
def kernel_batch(draw, space):
    """Rows x, y and a parameter t; y may coincide with x."""
    n = draw(st.integers(1, 6))
    xs, ys, ts = [], [], []
    for _ in range(n):
        x = _POINTS[space.space_id](draw)
        y = x if draw(st.booleans()) else _POINTS[space.space_id](draw)
        xs.append(x)
        ys.append(y)
        ts.append(draw(UNIT_T))
    return xs, ys, np.array(ts)


def _block(points):
    return np.array([p.coords for p in points])


def _kernel_tol(space, x, y, d):
    if isinstance(space, Hyperboloid):
        # the chordal square cancels on far points, so the summation order
        # alone moves the result by a multiple of the ambient norms
        return max(1e-14 * d, 1e-15 * (float(x.coords @ x.coords) + float(y.coords @ y.coords)))
    return 1e-14 * d


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.space_id)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_distance_many_matches_scalar(space, data):
    xs, ys, _ = data.draw(kernel_batch(space))
    got = space.distance_many(_block(xs), _block(ys))
    assert got.shape == (len(xs),)
    for x, y, g in zip(xs, ys, got):
        d = space.distance(x, y)
        assert abs(g - d) <= _kernel_tol(space, x, y, d), (x.coords, y.coords, g, d)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.space_id)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_combine_many_matches_scalar(space, data):
    xs, ys, ts = data.draw(kernel_batch(space))
    got = space.combine_many(_block(xs), _block(ys), ts)
    assert got.shape == (len(xs), len(xs[0].coords))
    for x, y, t, row in zip(xs, ys, ts, got):
        want = space.combine(x, y, float(t))
        z = space.point(row)  # every row is a valid point (spider hubs canonical)
        if t in (0.0, 1.0):
            assert np.array_equal(row, want.coords)  # the endpoints, exactly
        gap = space.distance(z, want)
        assert gap <= _kernel_tol(space, x, y, space.distance(x, y)), (x.coords, y.coords, t)


def test_combine_many_spider_cases():
    # same leg, across the hub on either side of it, and from the hub
    X = _block([S3.point((1, 2)), S3.point((1, 2)), S3.point((1, 2)), S3.point((0, 0))])
    Y = _block([S3.point((1, 5)), S3.point((2, 3)), S3.point((2, 3)), S3.point((2, 3))])
    got = S3.combine_many(X, Y, np.array([0.5, 0.2, 0.8, 0.5]))
    assert got.tolist() == [[1.0, 3.5], [1.0, 1.0], [2.0, 2.0], [2.0, 1.5]]
    # landing exactly on the hub gives the canonical hub
    hub = S3.combine_many(X[1:2], Y[1:2], np.array([0.4]))
    assert hub.tolist() == [[0.0, 0.0]]
    assert S3.distance_many(X, Y).tolist() == [3.0, 5.0, 5.0, 3.0]


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.space_id)
def test_sample_many_rows_are_points(space):
    block = space.sample_many(np.random.default_rng(4), 200, 2.0)
    assert block.shape == (200, len(space.base_point().coords))
    for row in block:
        space.point(row)
    assert space.sample_many(np.random.default_rng(4), 0).shape == (0, block.shape[1])


@pytest.mark.parametrize("space", [E2, E3, H2, H3, S3], ids=lambda s: s.space_id)
@pytest.mark.parametrize("scale", [0.0, 2.0, 8.0])
def test_sample_point_is_row_0_of_a_block_of_one(space, scale):
    # one sampler per space: the same bits, and the generator left in the
    # same state; at scale 8 no hyperboloid draw is refused past the radius
    for seed in range(20):
        rng, rng_many = np.random.default_rng(seed), np.random.default_rng(seed)
        p = space.sample_point(rng, scale)
        row = space.sample_many(rng_many, 1, scale)[0]
        assert p.space_id == space.space_id and type(p.xs) is tuple
        assert np.array_equal(np.array(p.xs), row)
        assert rng.bit_generator.state == rng_many.bit_generator.state


def _scalar_draw(space, rng, scale):
    # the samplers' law, one point at a time through the scalar primitives
    if isinstance(space, Euclidean):
        return space.point(rng.normal(size=space.dim) * scale)
    if isinstance(space, Spider):
        return space.point((int(rng.integers(space.num_legs)), float(rng.exponential(scale))))
    # a Gaussian tangent at the apex, given the length of a Gaussian displacement
    draw = rng.normal(size=2 * space.dim + 1)
    v, g = draw[1:space.dim + 1], draw[space.dim + 1:]
    nv, length = math.sqrt(v @ v), math.sqrt(g @ g) * scale
    if nv < 1e-15 or length == 0.0:
        return space.base_point()
    return space.exp_map(space.base_point(), [0.0, *(v * (length / nv)).tolist()])


@pytest.mark.parametrize("space", [E2, E3, H2, H3, S3], ids=lambda s: s.space_id)
@pytest.mark.parametrize("scale", [0.0, 2.0, 8.0])
def test_sample_point_draws_the_scalar_law(space, scale):
    # the same draws from the same stream; the hyperboloid's sinh and renorm
    # round as exp_map's do not, so its points agree to 1e-12 relative
    rng, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(50):
        p, want = space.sample_point(rng, scale), _scalar_draw(space, rng_ref, scale)
        assert space.distance(p, want) <= 1e-12 * (1.0 + float(want.coords @ want.coords))
        assert rng.bit_generator.state == rng_ref.bit_generator.state


# the first 64 draws of default_rng(0) from each distribution the samplers
# and checkers use, and their sha256 under numpy 2.4
NUMPY_STREAMS = {
    "normal": (lambda rng: rng.normal(size=64),
               "4e7a2ece1420539cec5d0bc6f001d711fa1ad522912bb52a09fb2668fb97c766"),
    "uniform": (lambda rng: rng.uniform(size=64),
                "97a942a4e10b14332c04a8f35a5fbd618965676ee523337f27fc912d4c2eeaaf"),
    "exponential": (lambda rng: rng.exponential(size=64),
                    "b00c3442c7b5ff87de550d423aff41f8d0482dc47518c19f031cf73f523d5ebe"),
    "integers(7)": (lambda rng: rng.integers(7, size=64, dtype=np.int64),
                    "bec847a0614dbf6b1ba2c74eba9ae53b905149b470d5fb8980783e872af4aeb1"),
}


@pytest.mark.parametrize("kind", NUMPY_STREAMS)
def test_numpy_streams_have_not_moved(kind):
    # a numpy release that changes a stream fails here, by name, where
    # otherwise it would only shift the margins of the sampled checks
    draw, digest = NUMPY_STREAMS[kind]
    assert hashlib.sha256(draw(np.random.default_rng(0)).tobytes()).hexdigest() == digest


def test_euclidean_distance_many_is_distance_row_by_row():
    # the same sum of squares in the same order: equal bit for bit on E3
    rng = np.random.default_rng(6)
    X, Y = (rng.normal(size=(2000, 3)) * rng.lognormal(0.0, 3.0, size=(2000, 1))
            for _ in range(2))
    got = E3.distance_many(X, Y)
    for x, y, d in zip(X.tolist(), Y.tolist(), got.tolist()):
        assert d == E3.distance(E3.point(x), E3.point(y))


@pytest.mark.parametrize("scale", [1e3, 1e6])
def test_hyperboloid_samplers_refuse_draws_past_the_radius(scale):
    # sample_many refuses before sinh overflows (a RuntimeWarning would fail
    # this test), and sample_point with it
    far = "beyond distance 100 of the apex"
    with pytest.raises(DomainError, match=far):
        H2.sample_many(np.random.default_rng(3), 50, scale)
    with pytest.raises(DomainError, match=far):
        H2.sample_point(np.random.default_rng(3), scale)


def test_subclass_overriding_a_primitive_gets_the_looped_kernels():
    class SquashedHyperboloid(Hyperboloid):
        """Geodesic points at the wrong parameter: t^2 instead of t."""

        def _combine(self, x, y, t):
            return super()._combine(x, y, t * t)

    bad = SquashedHyperboloid(2)
    assert type(bad).combine_many is ModelSpace.combine_many
    assert type(bad).distance_many is Hyperboloid.distance_many
    x, y = bad.from_spatial([1.0, 0.0]), bad.from_spatial([0.0, 2.0])
    row = bad.combine_many(_block([x]), _block([y]), np.array([0.5]))[0]
    assert bad.distance(bad.point(row), bad.combine(x, y, 0.5)) == 0.0
    assert not check_space_axioms(bad, samples=200, seed=1).passed


# ---------------------------------------------------------------------------
# combine parameters within a few ulp of [0, 1]
# ---------------------------------------------------------------------------

U = math.ulp(1.0)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.space_id)
def test_combine_snaps_arithmetic_parameters(space):
    rng = np.random.default_rng(6)
    x, y = rand_point(space, rng), rand_point(space, rng)
    a_k = (0.1 + 0.2) / 0.3          # an anchor weight one ulp above 1
    radius, d = 0.1 + 0.2, 0.3       # a ball radius one ulp past the distance
    lam = 1e300
    assert 1.0 - a_k == -U and radius / d == 1.0 + U and lam / (1.0 + lam) == 1.0
    assert space.combine(x, y, 1.0 - a_k) is x
    assert space.combine(x, y, radius / d) is y
    assert space.combine(x, y, lam / (1.0 + lam)) is y
    assert space.combine(x, y, 1.0 + 4 * U) is y
    assert space.combine(x, y, -4 * U) is x
    for t in (1.0 + 5 * U, -5 * U, float("nan")):
        with pytest.raises(DomainError):
            space.combine(x, y, t)

    X, Y = _block([x, x]), _block([y, y])
    got = space.combine_many(X, Y, np.array([1.0 - a_k, radius / d]))
    assert np.array_equal(got, np.array([x.coords, y.coords]))
    for t in (1.0 + 5 * U, -5 * U, float("nan")):
        with pytest.raises(DomainError):
            space.combine_many(X, Y, np.array([0.5, t]))


# ---------------------------------------------------------------------------
# float primitives against the array formulas they replaced
# ---------------------------------------------------------------------------
# The scalar primitives compute on Python floats. These are the numpy
# formulas they replaced, kept as the reference; the hyperboloid distance
# adds the acosh branch for far pairs, with the same switch as the package.

def ref_e_distance(x, y):
    d = x - y
    return math.sqrt(float(d @ d))


def ref_e_combine(x, y, t):
    return (1.0 - t) * x + t * y


def ref_e_tangent_norm(v):
    return math.sqrt(float(v @ v))


def ref_e_project_segment(a, b, x):
    ab = b - a
    t = float((x - a) @ ab) / float(ab @ ab)
    t = min(1.0, max(0.0, t))
    return (1.0 - t) * a + t * b


def ref_minkowski(u, v):
    return float(u @ v) - 2.0 * float(u[0]) * float(v[0])


def ref_renorm(z):
    z = np.array(z, dtype=float)
    z[0] = math.sqrt(1.0 + float(z[1:] @ z[1:]))
    return z


def ref_h_distance(x, y):
    m = -ref_minkowski(x, y)
    if 16.0 < m < math.inf:
        return math.acosh(m)
    dl = x - y
    d0 = float(dl[0])
    q = float(dl @ dl) - 2.0 * d0 * d0
    if q <= 0.0:
        return 0.0
    return 2.0 * math.asinh(0.5 * math.sqrt(q))


def ref_h_log_map(x, y):
    d = ref_h_distance(x, y)
    if d < 1e-14:
        return np.zeros(x.shape[0])
    m = ref_minkowski(x, y)
    w = y + m * x
    nw = ref_minkowski(w, w)
    nw = math.sqrt(nw) if nw > 0 else 0.0
    if nw == 0.0:
        return np.zeros(x.shape[0])
    return (w / nw) * d


def ref_h_combine(x, y, t):
    if t == 1.0:  # combine's endpoint, also for a pair closer than 1e-14
        return y
    d = ref_h_distance(x, y)
    if d < 1e-14:
        return x
    s = t * d
    sd = math.sinh(d)
    return ref_renorm((math.sinh(d - s) / sd) * x + (math.sinh(s) / sd) * y)


def ref_h_exp_map(b, v):
    v = v + ref_minkowski(b, v) * b
    t = ref_minkowski(v, v)
    t = math.sqrt(t) if t > 0 else 0.0
    if t < 1e-16:
        return b
    return ref_renorm(math.cosh(t) * b + math.sinh(t) * (v / t))


def ref_h_tangent_norm(v):
    q = ref_minkowski(v, v)
    return math.sqrt(q) if q > 0 else 0.0


PIN = 1e-14  # relative, against the magnitude of the terms each formula sums


def _sequences(v):
    """The same floats as a tuple, a list and a numpy array."""
    v = np.asarray(v, dtype=float)
    return tuple(v.tolist()), v.tolist(), v


def _same_floats(results):
    """Every result is a Python float or a tuple of them, and all of them
    are bit-identical."""
    flat = [r if isinstance(r, tuple) else (r,) for r in results]
    return all(type(c) is float for r in flat for c in r) and len({_bits(r) for r in flat}) == 1


def _close(got, want, scale):
    return np.all(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float)) <= PIN * scale)


# coordinates of magnitude 0 or at least 1e-100, so that the squares the
# reference forms stay normal floats; times 1e100 for far pairs
_coord = st.one_of(st.just(0.0), st.floats(-1e3, 1e3).filter(lambda v: abs(v) >= 1e-100))


@st.composite
def euclidean_pair(draw, space):
    scale = draw(st.sampled_from([1.0, 1e100]))
    x = space.point([scale * draw(_coord) for _ in range(space.dim)])
    y = x if draw(st.booleans()) and draw(st.booleans()) else \
        space.point([scale * draw(_coord) for _ in range(space.dim)])
    return x, y


@pytest.mark.parametrize("space", [E2, E3], ids=lambda s: s.space_id)
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_euclidean_float_primitives_match_the_array_formulas(space, data):
    x, y = data.draw(euclidean_pair(space))
    t = data.draw(UNIT_T)
    X, Y = x.coords, y.coords
    size = max(np.abs(X).max(), np.abs(Y).max())
    d = ref_e_distance(X, Y)
    assert abs(space.distance(x, y) - d) <= PIN * d
    assert _close(space.combine(x, y, t).coords, ref_e_combine(X, Y, t), size)
    if 0.0 < t < 1.0:
        assert _close(space._combine(x, y, t).coords, ref_e_combine(X, Y, t), size)
    v = X - Y
    assert abs(space.tangent_norm(x, v) - ref_e_tangent_norm(v)) <= PIN * ref_e_tangent_norm(v)
    assert _same_floats([space.tangent_norm(x, w) for w in _sequences(v)])
    assert _close(space.log_map(x, y), Y - X, size)
    assert _close(space.exp_map(x, Y - X).coords, X + (Y - X), size)
    assert _same_floats([space.exp_map(x, w).xs for w in _sequences(Y - X)])
    z = space.point([size * data.draw(st.floats(-2, 2)) for _ in range(space.dim)])
    if d >= 1e-15:  # below that the segment is a point and project returns x
        seg = Segment(x, y)
        assert _close(space.project(seg, z).coords, ref_e_project_segment(X, Y, z.coords), 4 * size)


@pytest.mark.parametrize("a, b, want", [
    ([0.0, 0.0], [0.0, 2.2250738585072014e-308], 0.0),  # the square underflows
    ([0.0, 0.0], [1e-160, -1e-160], None),              # subnormal squares
    ([1e200, 0.0], [-1e200, 0.0], math.inf),            # the square overflows
])
def test_euclidean_distance_meets_the_kernel_at_the_float_extremes(a, b, want):
    # the sum of squares, as the array forms take it, not a scaled norm
    x, y = E2.point(a), E2.point(b)
    with np.errstate(over="ignore", under="ignore"):
        kernel = E2.distance_many(x.coords[None], y.coords[None])[0]
    assert E2.distance(x, y) == kernel
    assert want is None or kernel == want
    assert E2.tangent_norm(x, np.subtract(b, a)) == kernel


@st.composite
def hyperboloid_pair(draw):
    """Pairs within distance 3 of the apex (distances up to 6 cross the
    switch at 3.47), or the apex with a point up to the supported radius,
    where every formula is well conditioned; y may coincide with x."""
    if draw(st.booleans()):
        def pt():
            r, th = draw(st.floats(0, 3)), draw(st.floats(0, 2 * math.pi))
            return H2.from_spatial([math.sinh(r) * math.cos(th), math.sinh(r) * math.sin(th)])
        x = pt()
        return x, x if draw(st.booleans()) and draw(st.booleans()) else pt()
    r, th = draw(st.floats(0, R_MAX)), draw(st.floats(0, 2 * math.pi))
    y = H2.from_spatial([math.sinh(r) * math.cos(th), math.sinh(r) * math.sin(th)])
    return (H2.base_point(), y) if draw(st.booleans()) else (y, H2.base_point())


@given(pair=hyperboloid_pair(), t=UNIT_T)
@settings(max_examples=400, deadline=None)
@example(pair=(H2.base_point(), H2.from_spatial([math.sinh(40.0), 0.0])), t=0.5)
@example(pair=(SpacePoint(H2.space_id, (1.0, 5.2116001133558605e-15, 0.0)), H2.base_point()), t=1.0)
def test_hyperboloid_float_primitives_match_the_array_formulas(pair, t):
    x, y = pair
    X, Y = x.coords, y.coords
    cond = 1.0 + float(X @ X) + float(Y @ Y)  # cancellation in the chordal square
    d = ref_h_distance(X, Y)
    dtol = max(PIN * d, 1e-15 * (cond - 1.0))  # as _kernel_tol
    assert abs(H2.distance(x, y) - d) <= dtol
    for u, v in ((X, Y), (X, X), (Y - X, X + Y)):
        want = ref_minkowski(u, v)
        scale = float(np.abs(u * v).sum())
        assert abs(Hyperboloid.minkowski(u, v) - want) <= PIN * scale
        assert _same_floats([Hyperboloid.minkowski(a, b)
                             for a, b in zip(_sequences(u), reversed(_sequences(v)))])
    # geodesic points, compared as points of the space
    z = H2.combine(x, y, t)
    assert H2.distance(z, SpacePoint(H2.space_id, ref_h_combine(X, Y, t))) <= dtol
    if t in (0.0, 1.0):
        assert z is (x if t == 0.0 else y)
    ball = Ball(x, 0.5)
    p = H2.project(ball, y)
    want = ref_h_combine(X, Y, 0.5 / d) if d > 0.5 else Y
    assert H2.distance(p, SpacePoint(H2.space_id, want)) <= dtol
    # tangent maps, at a base within distance 3 of the apex: at a far base
    # the tangent form w = y + <x,y> x cancels in any formula
    if X[0] > math.cosh(3.0) * (1.0 + 1e-12):
        return
    v = ref_h_log_map(X, Y)
    # log sums w = y + <x,y> x and scales it by d / |w|_M = d / sinh d
    shrink = d / math.sinh(d) if d > 0.0 else 1.0
    terms = np.abs(Y).max() + abs(ref_minkowski(X, Y)) * np.abs(X).max()
    assert _close(H2.log_map(x, y), v, cond * terms * shrink)
    # the norm sums the squares of v and takes a square root
    norm = ref_h_tangent_norm(v)
    assert abs(H2.tangent_norm(x, v) - norm) <= PIN * float(v @ v) / max(norm, 1e-300)
    assert _same_floats([H2.tangent_norm(x, w) for w in _sequences(v)])
    # exp sums cosh(t) x + sinh(t) v / t; an error in t moves it by (1 + t) times that
    want = ref_h_exp_map(X, v)
    scale = (1.0 + d) * (math.cosh(d) * np.abs(X).max() + math.sinh(d) * np.abs(v).max() / max(d, 1e-300))
    assert _close(H2.exp_map(x, v).coords, want, cond * scale)
    # a vector slightly off the tangent space is projected back onto it
    off = v + 1e-6 * X
    assert _close(H2.exp_map(x, list(off)).coords, ref_h_exp_map(X, off), cond * scale)
    assert _same_floats([H2.exp_map(x, w).xs for w in _sequences(off)])


# ---------------------------------------------------------------------------
# the hyperboloid at long range, up to HYPERBOLOID_MAX_RADIUS
# ---------------------------------------------------------------------------

@st.composite
def unit_direction(draw, dim):
    v = np.array([draw(st.floats(-1, 1)) for _ in range(dim)])
    n = math.sqrt(float(v @ v))
    if n < 1e-3:
        v, n = np.eye(dim)[0], 1.0
    return v / n


@pytest.mark.parametrize("space", [H2, H3], ids=lambda s: s.space_id)
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_hyperboloid_distance_holds_up_to_the_supported_radius(space, data):
    d = data.draw(st.one_of(st.sampled_from([40.0, R_MAX]), st.floats(1e-6, R_MAX)))
    u = data.draw(unit_direction(space.dim))
    o = space.base_point()
    x = space.from_spatial(math.sinh(d) * u)
    assert abs(space.distance(o, x) - d) <= 1e-12 * d
    assert abs(space.distance(x, o) - d) <= 1e-12 * d
    # the midpoint, from either end, lies at d/2 from the apex
    for mid in (space.combine(o, x, 0.5), space.combine(x, o, 0.5)):
        assert abs(space.distance(o, mid) - d / 2) <= 1e-12 * d
    # through the apex: x and a point at distance b on the opposite ray
    b = data.draw(st.floats(0.0, R_MAX))
    y = space.from_spatial(-math.sinh(b) * u)
    assert abs(space.distance(x, y) - (d + b)) <= 1e-12 * (d + b)
    # the batched kernel takes the same branch row by row
    X, Y = np.array([o.coords, x.coords, x.coords]), np.array([x.coords, o.coords, y.coords])
    got = space.distance_many(X, Y)
    want = [space.distance(o, x), space.distance(x, o), space.distance(x, y)]
    assert np.all(np.abs(got - want) <= 1e-14 * np.array([d, d, d + b]))


@pytest.mark.parametrize("space", [H2, H3], ids=lambda s: s.space_id)
def test_hyperboloid_rejects_points_beyond_the_supported_radius(space):
    e1 = np.eye(space.dim)[0]
    assert space.distance(space.base_point(), space.from_spatial(math.sinh(R_MAX) * e1)) == \
        pytest.approx(R_MAX, rel=1e-12)
    for r in (R_MAX * (1 + 1e-6), 300.0, 700.0):
        # from 355 on the lift x0 = sqrt(1 + |s|^2) overflows: not finite
        with pytest.raises(DomainError, match="beyond distance 100 of the apex"
                           if r < 355.0 else "coordinates must be finite"):
            with np.errstate(over="ignore"):
                space.from_spatial(math.sinh(r) * e1)
        with pytest.raises(DomainError, match="beyond distance 100 of the apex"):
            space.point([math.cosh(r), *(math.sinh(r) * e1)])
    # off the sheet, with squares that would overflow: still refused
    with pytest.raises(DomainError, match="beyond distance 100 of the apex"):
        space.point([1.0, *(1e200 * e1)])


# ---------------------------------------------------------------------------
# overflow: float arithmetic must not raise where the array forms gave inf
# ---------------------------------------------------------------------------

_huge = st.floats(-1.7e308, 1.7e308, allow_nan=False, allow_infinity=False)


@given(st.lists(_huge, min_size=3, max_size=3), st.lists(_huge, min_size=3, max_size=3), UNIT_T)
@settings(max_examples=200, deadline=None)
@example([1.7e308, -1.7e308, 1e300], [-1.7e308, 1.7e308, -1e300], 0.5)
def test_euclidean_primitives_do_not_raise_on_overflow(a, b, t):
    x, y = E3.point(a), E3.point(b)
    with np.errstate(over="ignore", invalid="ignore"):
        d = E3.distance(x, y)  # inf when the difference overflows, never an exception
        assert d >= 0.0 or math.isnan(d)
        E3.combine(x, y, t)
        E3.tangent_norm(x, np.array(a))
        E3.project(Segment(x, y), E3.point([0.0, 0.0, 0.0]))


@given(st.floats(0.0, 1e308), UNIT_T)
@settings(max_examples=200, deadline=None)
@example(711.0, 0.5)
@example(1e300, 0.25)
def test_hyperboloid_primitives_do_not_raise_on_overflow(length, t):
    # a tangent this long leaves the representable range (cosh overflows
    # from 710.5); the result is a non-finite point, as numpy's inf gave
    o = H2.base_point()
    far = H2.exp_map(o, [0.0, length, 0.0])
    if length > 710.0:
        assert not np.all(np.isfinite(far.coords))
        assert not math.isfinite(H2.distance(o, far))
    for p in (o, far):
        H2.combine(p, far, t)
        H2.log_map(p, far)
        H2.tangent_norm(p, far.coords)


def test_a_nan_tangent_vector_has_a_nan_norm():
    # a NaN square is not read as a nonpositive one (which reads 0), nor is
    # the -inf square of an infinite time part
    for space, v in ((E1, [math.nan]), (E2, [math.nan, 0.0]), (H2, [0.0, math.nan, 0.0]),
                     (H2, [math.nan, 0.0, 0.0]), (H2, [math.inf, 0.0, 0.0]),
                     (H2, [-math.inf, 1.0, 0.0])):
        x = space.base_point()
        assert math.isnan(space.tangent_norm(x, v))
    assert H2.tangent_norm(H2.base_point(), [0.0, math.inf, 0.0]) == math.inf


@pytest.mark.parametrize("space", [E1, E2, H2], ids=lambda s: s.space_id)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exp_map_refuses_a_non_finite_tangent_vector(space, bad):
    # at the parent, H2 returned the base point itself for a NaN vector and
    # E2 a point with a NaN coordinate
    x = space.base_point()
    for i in range(len(x.xs)):
        v = [0.0] * len(x.xs)
        v[i] = bad
        with pytest.raises(DomainError, match="tangent vector must be finite"):
            space.exp_map(x, v)



@pytest.mark.parametrize("space", [E1, E2], ids=lambda s: s.space_id)
def test_euclidean_exp_map_refuses_a_sum_past_the_float_range(space):
    # a finite tangent whose sum with the base overflows gives coordinates
    # that ``point`` refuses, and exp_map refuses them with its message
    x = space.point([1.7e308] * space.dim)
    with pytest.raises(DomainError, match="^coordinates must be finite$"):
        space.exp_map(x, [0.2e308] * space.dim)

def test_sets_read_their_numbers_as_points_do():
    for radius in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(DomainError, match="ball radius must be positive and finite"):
            Ball(E2.base_point(), radius)
    for offset in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="halfspace offset must be finite"):
            Halfspace(E2.space_id, (1.0, 0.0), offset)
    assert E2.project(Halfspace(E2.space_id, (1.0, 0.0), 0.5), E2.point([2.0, 1.0])).xs == \
        (0.5, 1.0)


@pytest.mark.parametrize("build,message", [
    (lambda: Euclidean(0), "dimension must be >= 1"),
    (lambda: Hyperboloid(0), "dimension must be >= 1"),
    (lambda: Spider(1), "spider needs at least 2 legs"),
    (lambda: Segment(E2.base_point(), H2.base_point()),
     "segment endpoints belong to different spaces"),
    (lambda: E2.project(Ball(E3.base_point(), 1.0), E2.base_point()),
     "set belongs to space 'euclidean:3', expected 'euclidean:2'"),
], ids=["E0", "H0", "one-legged spider", "two-space segment", "another space's set"])
def test_spaces_and_sets_refuse_what_is_not_one_of_them(build, message):
    with pytest.raises(DomainError) as err:
        build()
    assert str(err.value) == message


def test_spider_has_no_tangent_norm():
    with pytest.raises(UnsupportedOperationError, match="spider:3 has no tangent structure"):
        S3.tangent_norm(S3.base_point(), [1.0, 0.0])


def test_overflowing_runs_end_as_solver_errors():
    from hadamard_iter import (OperatorSequence, OperatorSpec, RunConfig, StopReason,
                               build_scheme, halpern_schedule, iterate_sequence,
                               objective_fixture, resolvent_constant)

    # Euclidean: the reflected resolvent grows by 1.5 per step until it overflows
    grow = objective_fixture(E2, "expanding_quadratic")
    for name, schedules, anchor in (
        ("ppa", {"lambda": resolvent_constant(1.0)}, None),
        ("halpern_ppa", {"anchor": halpern_schedule(), "lambda": resolvent_constant(1.0)},
         E2.point([3.0, 1.0])),
    ):
        cfg = RunConfig(space=E2, start=E2.point([1.0, 2.0]), anchor=anchor,
                        max_iterations=5000, tolerance=1e-12)
        with np.errstate(over="ignore", invalid="ignore"):
            s = build_scheme(name, grow, schedules).run(cfg).summary
        assert s.stop_reason is StopReason.SOLVER_ERROR
        assert s.error_step is not None and s.error_step < 5000

    # hyperboloid: a map that moves every point about 800 along e1, past
    # where cosh overflows (math.cosh raised OverflowError out of the run)
    op = OperatorSpec(space=H2, apply=lambda x: H2.exp_map(x, [0.0, 800.0, 0.0]),
                      domain=WholeSpace(H2.space_id))
    cfg = RunConfig(space=H2, start=H2.from_spatial([0.5, 0.0]), max_iterations=20,
                    tolerance=1e-12)
    s = iterate_sequence(OperatorSequence(space=H2, factory=lambda k: op), cfg).summary
    assert s.stop_reason is StopReason.SOLVER_ERROR
    assert s.error_message == "non-finite residual at step 1"


# ---------------------------------------------------------------------------
# points store a tuple of floats; coords builds a read-only array from it
# ---------------------------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _bits(v) -> bytes:
    # the exact float64 bytes: tells -0.0 from 0.0 and any last-bit move
    return np.asarray(v, dtype=float).tobytes()


@st.composite
def raw_coords(draw, space):
    """Raw coordinates that ``space.point`` accepts, as a list."""
    if isinstance(space, Euclidean):
        return draw(st.lists(FINITE, min_size=space.dim, max_size=space.dim))
    if isinstance(space, Hyperboloid):
        s = draw(st.lists(st.floats(-1e3, 1e3), min_size=space.dim, max_size=space.dim))
        return space.from_spatial(s).coords.tolist()
    return [draw(st.integers(0, space.num_legs - 1)),
            draw(st.one_of(st.just(0.0), st.floats(0.0, 1e300)))]


@pytest.mark.parametrize("space", [E1, E2, H2, S3], ids=lambda s: s.space_id)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_points_store_floats_and_coords_is_a_read_only_copy(space, data):
    c = data.draw(raw_coords(space))
    p = space.point(c)
    want = np.asarray(c, dtype=float)
    if isinstance(space, Spider) and c[1] <= 0.0:
        want = np.zeros(2)  # the hub is canonicalized to leg 0
    assert type(p.xs) is tuple and all(type(v) is float for v in p.xs)
    assert _bits(p.xs) == _bits(want)
    arr = p.coords
    assert arr.dtype == np.float64 and arr.shape == want.shape
    assert _bits(arr) == _bits(want)
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.xs = (1.0,) * len(p.xs)
    # other names raise too; a frozen slots dataclass raises TypeError for
    # them on Python 3.10 and 3.11
    with pytest.raises((AttributeError, TypeError)):
        p.coords = want
    with pytest.raises((AttributeError, TypeError)):
        p.extra = 1
    assert _bits(p.xs) == _bits(want)


@pytest.mark.parametrize("space", [E1, E2, H2], ids=lambda s: s.space_id)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_log_map_is_the_private_log_as_a_float_tuple(space, data):
    x = space.point(data.draw(raw_coords(space)))
    y = space.point(data.draw(raw_coords(space)))
    got = space.log_map(x, y)
    assert type(got) is tuple and all(type(v) is float for v in got)
    assert _bits(got) == _bits(space._log(x, y))


# signed zeros, subnormals and +-1e300, whose differences reach 2e300
LINE_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072e-308,
                              1e300, -1e300])


@given(b=st.one_of(LINE_EDGES, FINITE), t=st.one_of(LINE_EDGES, FINITE))
@settings(max_examples=400, deadline=None)
def test_the_line_log_is_the_generic_difference_bit_for_bit(b, t):
    # E1._log takes its one entry by index; the map over both coordinate
    # tuples it skips gives the same bits
    base, target = E1.point([b]), E1.point([t])
    want = _bits(tuple(map(sub, target.xs, base.xs)))
    for got in (E1._log(base, target), E1.log_map(base, target)):
        assert type(got) is tuple and _bits(got) == want


def test_spider_has_no_private_log():
    with pytest.raises(UnsupportedOperationError):
        S3._log(S3.base_point(), S3.point((1, 1.0)))


# Reference copies of the earlier point code on ndarray coordinates: the
# spider primitives and the segment projections. The primitives on float
# tuples must reproduce them bit for bit.

def ref_spider_pt(leg, radius):
    if radius <= 0.0:
        leg, radius = 0, 0.0
    return np.array([float(leg), radius])


def ref_spider_distance(X, Y):
    lx, rx = int(X[0]), float(X[1])
    ly, ry = int(Y[0]), float(Y[1])
    if lx == ly or rx == 0.0 or ry == 0.0:
        return abs(rx - ry)
    return rx + ry


def ref_spider_combine(X, Y, t):
    if t == 0.0:
        return X
    if t == 1.0:
        return Y
    lx, rx = int(X[0]), float(X[1])
    ly, ry = int(Y[0]), float(Y[1])
    if rx == 0.0:
        lx = ly
    if ry == 0.0:
        ly = lx
    if lx == ly:
        return ref_spider_pt(lx, (1.0 - t) * rx + t * ry)
    s = t * (rx + ry)
    if s <= rx:
        return ref_spider_pt(lx, rx - s)
    return ref_spider_pt(ly, s - rx)


def ref_spider_project_segment(A, B, X):
    la, ra = int(A[0]), float(A[1])
    lb, rb = int(B[0]), float(B[1])
    lx, rx = int(X[0]), float(X[1])
    if ra == 0.0:
        la = lb
    if rb == 0.0:
        lb = la
    if la == lb:
        lo, hi = min(ra, rb), max(ra, rb)
        if lx == la and rx > 0.0:
            return ref_spider_pt(la, min(hi, max(lo, rx)))
        return ref_spider_pt(la, lo)
    if lx == la and rx > 0.0:
        return ref_spider_pt(la, min(ra, rx))
    if lx == lb and rx > 0.0:
        return ref_spider_pt(lb, min(rb, rx))
    return ref_spider_pt(0, 0.0)


def ref_e_project_segment(A, B, X):
    al, bl = A.tolist(), B.tolist()
    ab = [q - p for p, q in zip(al, bl)]
    t = sum((c - p) * e for c, p, e in zip(X.tolist(), al, ab)) / sum(e * e for e in ab)
    t = min(1.0, max(0.0, t))
    s = 1.0 - t
    return np.array([s * p + t * q for p, q in zip(al, bl)])


def ref_h_combine_lists(X, Y, t):
    if t == 0.0:
        return X
    if t == 1.0:
        return Y
    xs, ys = X.tolist(), Y.tolist()
    d = _h_distance(xs, ys)
    if d < 1e-14:
        return X
    s = t * d
    sd = math.sinh(d)
    a, b = math.sinh(d - s) / sd, math.sinh(s) / sd
    sp = [a * p + b * q for p, q in zip(xs[1:], ys[1:])]
    return np.array([math.sqrt(1.0 + sum(v * v for v in sp)), *sp])


def ref_h_project_segment(A, B, X):
    if A[0] > B[0]:  # the geodesic starts at the end nearer the apex
        A, B = B, A
    al, xl = A.tolist(), X.tolist()
    w, nw, L = H2._tangent_toward(al, B.tolist())
    if L == 0.0:
        return A
    v = [c / nw for c in w]
    a_, b_ = -_mink(xl, al), -_mink(xl, v)
    ratio = min(1.0 - 1e-16, max(-1.0 + 1e-16, -b_ / a_))
    t = min(1.0, max(0.0, math.atanh(ratio) / L))
    return ref_h_combine_lists(A, B, t)


@st.composite
def spider_points(draw):
    leg = draw(st.integers(0, 2))
    r = draw(st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 1e6)))
    return S3.point((leg, r))


@given(x=spider_points(), y=spider_points(), z=spider_points(), t=UNIT_T)
@settings(max_examples=400, deadline=None)
def test_spider_float_primitives_equal_the_ndarray_reference(x, y, z, t):
    X, Y, Z = x.coords, y.coords, z.coords
    assert _bits(S3.distance(x, y)) == _bits(ref_spider_distance(X, Y))
    assert _bits(S3.combine(x, y, t).coords) == _bits(ref_spider_combine(X, Y, t))
    if S3.distance(x, y) >= 1e-15:
        assert _bits(S3._project_segment(x, y, z).coords) == \
            _bits(ref_spider_project_segment(X, Y, Z))
    assert Spider.leg_of(x) == int(X[0]) and type(Spider.leg_of(x)) is int
    assert _bits(Spider.radius_of(x)) == _bits(float(X[1]))


@given(a=coords2, b=coords2, x=coords2)
@settings(max_examples=300, deadline=None)
def test_euclidean_segment_projection_equals_the_ndarray_reference(a, b, x):
    pa, pb, px = E2.point(a), E2.point(b), E2.point(x)
    if E2.distance(pa, pb) >= 1e-15:
        assert _bits(E2._project_segment(pa, pb, px).coords) == \
            _bits(ref_e_project_segment(pa.coords, pb.coords, px.coords))


NEAR_SPATIAL = st.lists(st.floats(-10, 10), min_size=2, max_size=2)


@given(a=NEAR_SPATIAL, b=NEAR_SPATIAL, x=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2))
@settings(max_examples=300, deadline=None)
def test_hyperboloid_segment_projection_equals_the_list_reference(a, b, x):
    # segment ends within distance 3 of the apex: at a far end the unit
    # tangent toward the other cancels in any formula
    pa, pb, px = H2.from_spatial(a), H2.from_spatial(b), H2.from_spatial(x)
    if H2.distance(pa, pb) >= 1e-15:
        assert _bits(H2._project_segment(pa, pb, px).coords) == \
            _bits(ref_h_project_segment(pa.coords, pb.coords, px.coords))


@pytest.mark.parametrize("leg", [1.7, math.nan, True, False, -0.5, "1.5", "1"])
def test_spider_leg_must_be_an_integer(leg):
    with pytest.raises(DomainError):
        S3.point([leg, 2.0])


@pytest.mark.parametrize("leg", [1, 1.0, np.int64(1), np.float64(1.0)])
def test_spider_integral_legs_are_accepted(leg):
    p = S3.point([leg, 2.0])
    assert p.xs == (1.0, 2.0) and Spider.leg_of(p) == 1


# ---------------------------------------------------------------------------
# the point kernels: the reader's float fast path, the slot-setting point
# constructor and the slice-free Minkowski form
# ---------------------------------------------------------------------------

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan]
ANY_FLOAT = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


class _TupleSubclass(tuple):
    """Not exactly a tuple, so ``floats`` reads it by the general path; its
    repr is a tuple's, so the messages of both paths compare as they are."""


class _ListSubclass(list):
    """As ``_TupleSubclass``, for lists."""


def _read(v, n, finite, shown=None):
    # floats' outcome: the exact bytes of its floats, or the message it raised,
    # with ``v``'s repr replaced by ``shown``'s
    try:
        xs = floats(v, n, "coordinates", finite)
    except DomainError as err:
        return "raised", str(err).replace(repr(v), repr(v if shown is None else shown))
    assert type(xs) is tuple and all(type(c) is float for c in xs)
    return "read", _bits(xs)


@given(xs=st.lists(ANY_FLOAT, max_size=4), as_tuple=st.booleans(),
       n=st.sampled_from([None, 0, 1, 2, 3, 4]), finite=st.booleans())
@settings(max_examples=600, deadline=None)
@example(xs=[-0.0, 5e-324], as_tuple=True, n=2, finite=True)
@example(xs=[math.nan, -math.inf], as_tuple=False, n=2, finite=False)
@example(xs=[math.inf, 1.0], as_tuple=False, n=2, finite=True)
@example(xs=[1.0, 2.0], as_tuple=True, n=3, finite=True)
@example(xs=[], as_tuple=True, n=None, finite=False)
def test_the_float_fast_path_reads_as_the_general_path(xs, as_tuple, n, finite):
    v = tuple(xs) if as_tuple else list(xs)
    fast = _read(v, n, finite)
    if xs:
        assert fast[0] == "raised" or _bits(xs) == fast[1]
    # the same entries by the general path: a subclass, a generator, an array
    general = (_TupleSubclass if as_tuple else _ListSubclass)(xs)
    assert _read(general, n, finite) == fast
    gen = iter(xs)
    assert _read(gen, n, finite, shown=v) == fast
    arr = np.array(xs, dtype=float)
    assert _read(arr, n, finite, shown=v) == fast


@pytest.mark.parametrize("v, want", [
    ([np.float64(0.5), np.float64(-0.0)], (0.5, -0.0)),
    ((1, -2), (1.0, -2.0)),
    ([1.0, 2], (1.0, 2.0)),
    ((np.float64(1.5), 2.0), (1.5, 2.0)),
    ([True, 2.0], None),
    ((1.0, False), None),
    (["1", 2.0], None),
    ((1.0, "2"), None),
])
def test_entries_that_are_not_exact_floats_take_the_general_path(v, want, monkeypatch):
    from hadamard_iter import geometry
    read = []
    monkeypatch.setattr(geometry, "pos", lambda c: read.append(c) or +c)
    if want is None:
        with pytest.raises(DomainError, match=r"coordinates must be 2 numbers, got "):
            E2.point(v)
    else:
        got = E2.point(v).xs
        assert all(type(c) is float for c in got) and _bits(got) == _bits(want)
    # the general path read the entries one by one; it refuses a bool first
    assert read or bool in map(type, v)
    read.clear()
    E2.point((0.5, -2.0))
    E2.point([0.5, -2.0])
    assert not read  # exact floats are taken as they are


@given(u=st.lists(ANY_FLOAT, min_size=2, max_size=4), data=st.data())
@settings(max_examples=600, deadline=None)
@example(u=[-0.0, 0.0], data=None)
@example(u=[0.0, -0.0, -0.0], data=None)
def test_the_minkowski_form_takes_the_sliced_sum(u, data):
    v = [-0.0] * len(u) if data is None else \
        data.draw(st.lists(ANY_FLOAT, min_size=len(u), max_size=len(u)))
    for a, b in ((u, v), (tuple(u), tuple(v)), (u, u)):
        want = sum(map(mul, a[1:], b[1:])) - a[0] * b[0]
        assert _bits(_mink(a, b)) == _bits(want)


def test_space_points_keep_their_dataclass_behaviour():
    p = E2.point([1, 2])
    assert p.xs == (1.0, 2.0) and all(type(c) is float for c in p.xs)
    assert repr(p) == "SpacePoint(space_id='euclidean:2', xs=(1.0, 2.0))"
    assert not hasattr(p, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.xs = (0.0, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.space_id = H2.space_id
    q = dataclasses.replace(p, xs=(3.0, 4.0))
    assert type(q) is SpacePoint and q.space_id == p.space_id and q.xs == (3.0, 4.0)
    assert [f.name for f in dataclasses.fields(p)] == ["space_id", "xs"]
    for point in (p, H2.from_spatial([0.3, -0.2]), S3.point((2, 1.5))):
        back = pickle.loads(pickle.dumps(point))
        assert back.space_id == point.space_id and _bits(back.xs) == _bits(point.xs)
        assert repr(back) == repr(point)
    assert SpacePoint(space_id="spider:3", xs=(0.0, 0.0)).xs == (0.0, 0.0)


@pytest.mark.parametrize("u, v", [
    (b"12", ["1", "0"]), (["1", "2"], [1.0, 0.0]), ({"1": 0, "2": 0}, [1.0, 0.0]),
    ({1: 0, 2: 0}, [1.0, 0.0]), ([True, 0.0], [1.0, 0.0]), ([], []), (3.0, [1.0]),
    ([1.0, 2.0], [1.0, 2.0, 3.0])])
def test_minkowski_reads_its_vectors_as_points_are_read(u, v):
    # the first vector at any length, the second at the first's (a tangent
    # read at the length of its base point is probed with the point readers)
    with pytest.raises(DomainError, match="vector must be"):
        Hyperboloid.minkowski(u, v)


def test_minkowski_takes_any_flat_sequence_of_numbers():
    want = _mink((2.0, 1.0, -3.0), (0.5, 4.0, 1.0))
    for u, v in (((2, 1, -3), [0.5, 4, 1.0]), (np.array([2.0, 1.0, -3.0]), iter([0.5, 4.0, 1.0])),
                 ([np.float64(2.0), 1.0, -3.0], (0.5, 4.0, 1.0))):
        assert _bits(Hyperboloid.minkowski(u, v)) == _bits(want)


# The hyperboloid kernels as they were when each called _mink and _lift, on
# coordinate tuples. The kernels that take the Minkowski products inline and
# build their points directly must keep these bits: hyperboloid_ball is not
# digest-pinned (its bits follow libm), and these copies use the same libm.

def old_mink(u, v):
    products = map(mul, u, v)
    u0v0 = next(products)
    return sum(products) - u0v0


def old_h_distance(x, y, m=None):
    if m is None:
        m = -old_mink(x, y)
    if 16.0 < m < math.inf:
        q = 2.0 * (m - 1.0)
    else:
        dl = list(map(sub, x, y))
        d0 = dl[0]
        q = sum(map(mul, dl, dl)) - 2.0 * d0 * d0
        if q <= 0.0:
            return 0.0
    return 2.0 * math.asinh(0.5 * math.sqrt(q))


def old_lift(spatial):
    return (math.sqrt(1.0 + sum(map(mul, spatial, spatial))), *spatial)


def old_tangent_toward(x, y):
    m = old_mink(x, y)
    d = old_h_distance(x, y, -m)
    if d < 1e-14:
        return [0.0] * len(x), 0.0
    w = [b + m * a for a, b in zip(x, y)]
    nw = old_mink(w, w)
    nw = math.sqrt(nw) if nw > 0 else 0.0
    if nw == 0.0:
        return [0.0] * len(x), d
    return [c / nw for c in w], d


def old_log(x, y):
    v, d = old_tangent_toward(x, y)
    return tuple([c * d for c in v])


def old_combine(x, y, t, d=None):
    if d is None:
        d = old_h_distance(x, y)
    if d < 1e-14:
        return x
    s = t * d
    try:
        sd = math.sinh(d)
        a, b = math.sinh(d - s) / sd, math.sinh(s) / sd
    except OverflowError:
        a = b = math.nan
    return old_lift([a * p + b * q for p, q in zip(x[1:], y[1:])])


def old_exp_map(b, v):
    m = old_mink(b, v)
    v = [c + m * p for c, p in zip(v, b)]
    t = old_mink(v, v)
    t = math.sqrt(t) if t > 0 else 0.0
    if t < 1e-16:
        return b
    try:
        ch, sh = math.cosh(t), math.sinh(t)
    except OverflowError:
        ch = sh = math.inf
    return old_lift([ch * p + sh * (c / t) for p, c in zip(b[1:], v[1:])])


def old_tangent_norm(v):
    v = tuple(map(float, v))
    q = old_mink(v, v)
    return math.sqrt(q) if q > 0 else 0.0


def _assert_h_kernels_keep_their_bits(space, x, y, t, v):
    xs, ys = x.xs, y.xs
    d = old_h_distance(xs, ys)
    assert _bits(_h_distance(xs, ys)) == _bits(d)
    assert _bits(space.distance(x, y)) == _bits(d)
    w, nw, dt = space._tangent_toward(xs, ys)
    unit, du = old_tangent_toward(xs, ys)
    assert _bits([c / nw for c in w]) == _bits(unit) and _bits(dt) == _bits(du)
    assert _bits(space._log(x, y)) == _bits(old_log(xs, ys))
    for given_d in (None, d):
        assert _bits(space._combine(x, y, t, given_d).xs) == \
            _bits(old_combine(xs, ys, t, given_d))
    # a NaN square (inf - inf, from an overflowed vector) reads NaN, where
    # the list reference read 0; every other square keeps its bits
    norm = space.tangent_norm(x, v)
    assert math.isnan(norm) if math.isnan(old_mink(v, v)) else \
        _bits(norm) == _bits(old_tangent_norm(v))
    if all(map(math.isfinite, v)):
        assert _bits(space.exp_map(x, v).xs) == _bits(old_exp_map(xs, tuple(v)))
    else:  # the list reference took any vector; a non-finite one is refused
        with pytest.raises(DomainError, match="tangent vector must be finite"):
            space.exp_map(x, v)


def _unchecked(space, spatial):
    # a lifted point that ``point`` may refuse (past the radius bound)
    return SpacePoint(space.space_id, old_lift(spatial))


_R16 = math.sqrt(255.0)  # from the apex, -<x,y>_M = 16: the switch of formulas
_FAR = 355.0  # opposite points at this radius lie farther apart than sinh's 710.48


@pytest.mark.parametrize("space, a, b, case", [
    (H2, [0.3, 0.2], [0.31, 0.19], "chordal"),
    (H2, [0.0, 0.0], [_R16, 0.0], "chordal"),
    (H2, [0.0, 0.0], [_R16 + 4e-15, 0.0], "acosh"),
    (H3, [0.0, 0.0, 0.0], [0.0, _R16, 0.0], "chordal"),
    (H3, [1.0, -2.0, 0.5], [-30.0, 12.0, 4.0], "acosh"),
    (H2, [5.0, 1.0], [5.0, 1.0], "cut"),
    (H3, [5.0, 1.0, -2.0], [5.0, 1.0 + 1e-15, -2.0], "cut"),
    (H2, [9.15625, 0.0], [9.15625, 1.4593195335122492e-14], "cancel"),
    (H2, [math.sinh(_FAR), 0.0], [-math.sinh(_FAR), 0.0], "overflow"),
    (H3, [0.0, math.sinh(_FAR), 0.0], [0.0, -math.sinh(_FAR), 0.0], "overflow"),
])
def test_hyperboloid_kernels_keep_the_bits_of_the_list_reference(space, a, b, case):
    x, y = _unchecked(space, a), _unchecked(space, b)
    xs, ys = x.xs, y.xs
    m = -old_mink(xs, ys)
    d = old_h_distance(xs, ys)
    # each pair takes the branch it stands for
    assert {"chordal": m <= 16.0, "acosh": 16.0 < m < math.inf, "cut": d < 1e-14,
            "cancel": d >= 1e-14 and not any(old_tangent_toward(xs, ys)[0]),
            "overflow": d > 710.48}[case]
    n = space.dim + 1
    ortho = old_log(xs, ys) if d else (0.0,) + (1.0,) * space.dim
    vectors = [ortho, tuple(0.5 * c for c in ortho), (0.25,) * n, (0.0,) * n,
               (0.0, 720.0) + (0.0,) * (n - 2)]  # the last one overflows cosh
    for t in (1e-3, 0.25, 0.5, 0.999):
        for v in vectors:
            _assert_h_kernels_keep_their_bits(space, x, y, t, v)


@st.composite
def h_kernel_pairs(draw):
    """(space, x, y): points of H2 or H3 within the radius bound, at any
    radius, and the second apart from the first, near it, or within 1e-14."""
    space = draw(st.sampled_from([H2, H3]))
    unit = st.floats(-1.0, 1.0)

    def spatial():
        scale = 10.0 ** draw(st.floats(-3.0, 42.0))
        return [draw(unit) * scale for _ in range(space.dim)]

    a = spatial()
    kind = draw(st.sampled_from(["apart", "near", "within 1e-14"]))
    if kind == "apart":
        b = spatial()
    else:
        eps = 1e-3 if kind == "near" else 1e-15
        b = [c * (1.0 + draw(unit) * eps) + draw(unit) * eps for c in a]
    return space, space.from_spatial(a), space.from_spatial(b)


@given(pair=h_kernel_pairs(), t=st.floats(0.0, 1.0), data=st.data())
@settings(max_examples=400, deadline=None)
def test_hyperboloid_kernels_keep_their_bits_on_drawn_pairs(pair, t, data):
    space, x, y = pair
    raw = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=space.dim + 1,
                             max_size=space.dim + 1))
    for v in (space._log(x, y), tuple(raw)):
        _assert_h_kernels_keep_their_bits(space, x, y, t, v)


# The E2 kernels write out what these generic loops compute on 2 coordinates:
# the same float operations in the same order, so the same bits.

def old_e_distance(x, y):
    s = 0.0
    for a, b in zip(x, y):
        s += (a - b) * (a - b)
    return math.sqrt(s)


def old_e_combine(x, y, t):
    s = 1.0 - t
    return tuple([s * a + t * b for a, b in zip(x, y)])


def old_e_combine_public(x, y, t):
    # combine: t within T_SNAP of [0, 1] snaps to its end, and the ends return x or y
    t = min(1.0, max(0.0, t))
    return x if t == 0.0 else y if t == 1.0 else old_e_combine(x, y, t)


# signed zeros, subnormals, the smallest normal, and magnitudes whose
# differences or squares overflow
_E2_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, -1e-160,
             1e200, -1e200, 1.5e308, -1.5e308, 1.7976931348623157e308]
# t at and near the ends, inside [0, 1] and within the snap outside it
_E2_TS = [0.0, -0.0, 1.0, 5e-324, 2.0 ** -53, 1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52,
          -5e-324, -T_SNAP, 1.0 + 2.0 ** -52, 1.0 + T_SNAP]


@st.composite
def e2_kernel_pairs(draw):
    """(x, y): coordinates of E2 points anywhere in the float range, with the
    second apart from the first, one float step from it, or equal to it."""
    coord = st.one_of(FINITE, st.sampled_from(_E2_EDGES))
    x = [draw(coord), draw(coord)]
    kind = draw(st.sampled_from(["apart", "a step", "equal"]))
    if kind == "apart":
        return x, [draw(coord), draw(coord)]
    if kind == "a step":  # toward 0, -1 or 1, so never past the float range
        return x, [math.nextafter(c, draw(st.sampled_from([0.0, -1.0, 1.0]))) for c in x]
    return x, list(x)


@given(pair=e2_kernel_pairs(), t=st.one_of(st.floats(0.0, 1.0), st.sampled_from(_E2_TS)))
@example(pair=([0.0, -0.0], [-0.0, 0.0]), t=0.5)
@example(pair=([-0.0, -0.0], [-0.0, -0.0]), t=2.0 ** -53)
@example(pair=([5e-324, -5e-324], [-5e-324, 1e-160]), t=1.0 - 2.0 ** -53)
@example(pair=([1.5e308, 0.0], [-1.5e308, 1.0]), t=0.5)  # the difference overflows
@example(pair=([1e200, 3.0], [-1e200, -4.0]), t=1.0 + T_SNAP)
@example(pair=([1.7976931348623157e308, 1.0], [1.7976931348623157e308, 2.0]), t=-T_SNAP)
@settings(max_examples=400, deadline=None)
def test_euclidean_plane_kernels_keep_the_bits_of_the_loops(pair, t):
    x, y = E2.point(pair[0]), E2.point(pair[1])
    d = old_e_distance(x.xs, y.xs)
    assert _bits(E2._distance(x, y)) == _bits(d)
    assert _bits(E2.distance(x, y)) == _bits(d)
    assert _bits(E2._combine(x, y, t).xs) == _bits(old_e_combine(x.xs, y.xs, t))
    z = E2.combine(x, y, t).xs
    assert _bits(z) == _bits(old_e_combine_public(x.xs, y.xs, t))
    # the array kernels' rows equal the scalar kernels; at the ends combine
    # returns x or y itself, and the row (1 - t) x + t y has the same values
    X, Y = np.array([x.xs]), np.array([y.xs])
    with np.errstate(over="ignore"):
        assert _bits(E2.distance_many(X, Y)) == _bits([d])
        row = E2.combine_many(X, Y, np.array([t]))[0]
    assert _bits(row) == _bits(z) if 0.0 < t < 1.0 else row.tolist() == list(z)


# The H2 kernels write their sums out as the left fold that ``sum`` takes on
# Python 3.10 and 3.11; ``sum`` of floats is compensated from 3.12. So no H2
# result may depend on how ``sum`` rounds: a correctly rounded one gives the
# same bits.

def _correctly_rounded_sum(items, start=0):
    return math.fsum([start, *items])


def _h2_kernel_bits(rng):
    out = []
    for _ in range(50):
        scale = 10.0 ** rng.uniform(-3.0, 1.3)
        a = [rng.uniform(-1.0, 1.0) * scale for _ in range(2)]
        near = rng.random() < 0.5
        b = [c + rng.uniform(-1.0, 1.0) * (1e-3 if near else scale) for c in a]
        x, y = H2.from_spatial(a), H2.from_spatial(b)
        v = H2._log(x, y)
        w, nw, d = H2._tangent_toward(x.xs, y.xs)
        out += [_h_distance(x.xs, y.xs), _mink(x.xs, y.xs), *w, nw, d, *v,
                *H2._combine(x, y, rng.random()).xs, *H2.exp_map(x, v).xs,
                H2.tangent_norm(x, v), H2.distance(x, y)]
    return _bits(out)


def test_h2_results_do_not_depend_on_how_sum_rounds(tmp_path, monkeypatch):
    config = Path(__file__).resolve().parent.parent / "scripts" / "configs" / "hyperboloid_ball.json"

    def results(out):
        code = cli.main(["run", "--config", str(config), "--max-iters", "40", "--out", str(out)])
        return code, {f.name: f.read_bytes() for f in out.iterdir()}, \
            _h2_kernel_bits(random.Random(29))

    plain = results(tmp_path / "plain")
    monkeypatch.setattr(geometry, "sum", _correctly_rounded_sum, raising=False)
    # the patch reaches the generic path, where a left fold reads 0.0
    assert _mink((0.0, 1e16, 1.0, -1e16), (1.0, 1.0, 1.0, 1.0)) == 1.0
    assert results(tmp_path / "fsum") == plain
