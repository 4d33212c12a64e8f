"""The fixture catalog must honor the flags it declares."""

import math

import numpy as np
import pytest

from hadamard_iter import (
    Ball,
    ConfigError,
    Euclidean,
    Halfspace,
    Hyperboloid,
    Segment,
    SpacePoint,
    Spider,
    bifunction_fixture,
    convex_resolvent,
    objective_fixture,
)

E1 = Euclidean(1)
E2 = Euclidean(2)
H2 = Hyperboloid(2)
S3 = Spider(3)


def _midpoint_convexity(space, f, rng, samples=300, slack=1e-8, alpha=0.0):
    for _ in range(samples):
        x, y = space.sample_point(rng, 1.5), space.sample_point(rng, 1.5)
        t = float(rng.uniform())
        lhs = f.eval(space.combine(x, y, t))
        rhs = ((1 - t) * f.eval(x) + t * f.eval(y)
               + alpha * t * (1 - t) * space.distance(x, y) ** 2)
        assert lhs <= rhs + slack


def test_quadratic_flagged_convex_holds_sampled():
    rng = np.random.default_rng(0)
    for space in (E2, H2, S3):
        f = objective_fixture(space, "quadratic")
        _midpoint_convexity(space, f, rng)


def test_dist2_flagged_convex_holds_sampled():
    rng = np.random.default_rng(1)
    for space, cset in (
        (E2, Segment(E2.point([0, 0]), E2.point([1, 0]))),
        (H2, Ball(H2.base_point(), 0.5)),
        (S3, Ball(S3.point((1, 1.0)), 0.8)),
    ):
        f = objective_fixture(space, "dist2_to_set", cset=cset)
        _midpoint_convexity(space, f, rng, samples=150)


def test_quartic_weak_convexity_modulus():
    rng = np.random.default_rng(2)
    f = objective_fixture(E1, "plateau_quartic")
    assert f.weak_convexity_alpha == 8.0
    _midpoint_convexity(E1, f, rng, samples=500, alpha=8.0)
    # and the modulus is tight: plain convexity fails between 0 and 8/3
    x, y = E1.point([0.5]), E1.point([2.0])
    m = E1.combine(x, y, 0.5)
    assert f.eval(m) > 0.5 * f.eval(x) + 0.5 * f.eval(y)


def test_quartic_quasi_convexity_sampled():
    rng = np.random.default_rng(3)
    f = objective_fixture(E1, "plateau_quartic")
    for _ in range(500):
        x, y = E1.sample_point(rng, 3.0), E1.sample_point(rng, 3.0)
        t = float(rng.uniform())
        assert f.eval(E1.combine(x, y, t)) <= max(f.eval(x), f.eval(y)) + 1e-8


def test_pseudo_convex_fixed_points_are_minimizers():
    # for the pseudo-convex quadratic every resolvent fixed point minimizes;
    # the quartic is the counterexample
    rng = np.random.default_rng(4)
    q = objective_fixture(E1, "quadratic", center=[1.0])
    for lam in (0.1, 1.0, 5.0):
        for _ in range(50):
            x = E1.sample_point(rng, 3.0)
            jx = convex_resolvent(q, lam, x)
            if E1.distance(jx, x) <= 1e-10:
                assert E1.distance(x, q.known_argmin) <= 1e-6
        assert E1.distance(convex_resolvent(q, lam, q.known_argmin), q.known_argmin) <= 1e-10

    quart = objective_fixture(E1, "plateau_quartic")
    two = E1.point([2.0])
    assert E1.distance(convex_resolvent(quart, 0.01, two), two) <= 1e-12
    assert E1.distance(two, quart.known_argmin) > 1.0  # fixed but not minimizing


@pytest.mark.parametrize("space, name, kw", [
    (E1, "quadratic", {}), (E2, "quadratic", {}), (H2, "quadratic", {}),
    (E2, "dist2_to_set", {"cset": Ball(E2.base_point(), 0.5)}),
    (H2, "dist2_to_set", {"cset": Ball(H2.base_point(), 0.5)}),
    (E1, "plateau_quartic", {}),
], ids=["quadratic-E1", "quadratic-E2", "quadratic-H2", "dist2-E2", "dist2-H2", "quartic-E1"])
def test_builtin_gradients_return_float_tuples(space, name, kw):
    f = objective_fixture(space, name, **kw)
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = f.gradient(space.sample_point(rng, 2.0))
        assert type(g) is tuple and len(g) == len(space.base_point().xs)
        assert all(type(c) is float for c in g)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    for space, name, kw in (
        (E2, "quadratic", {"center": [0.3, -0.5]}),
        (E1, "plateau_quartic", {}),
    ):
        f = objective_fixture(space, name, **kw)
        for _ in range(100):
            x = space.sample_point(rng, 2.0)
            g = f.gradient(x)
            v = rng.normal(size=x.coords.shape[0])
            v /= np.linalg.norm(v)
            num = (f.eval(space.point(x.coords + h * v))
                   - f.eval(space.point(x.coords - h * v))) / (2 * h)
            assert num == pytest.approx(float(g @ v), abs=1e-4 * (1 + abs(num)))


def test_rotation_vi_field_and_eval_compute_the_matrix_forms_on_floats():
    # A = [[0, 1], [-1, 0]]: each product is by 0 or +-1, so the field has
    # the bits of A @ x; the bifunction <A x, y - x> is a two-term sum that
    # numpy may fuse, within an ulp of its terms' scale
    vi = bifunction_fixture(E2, "rotation_vi")
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rng = np.random.default_rng(15)
    for _ in range(500):
        x, y = E2.sample_point(rng, 3.0), E2.sample_point(rng, 3.0)
        field = vi.structure.field(x)
        assert all(type(c) is float for c in field)
        assert field == tuple((A @ np.array(x.xs)).tolist())
        want = float((A @ np.array(x.xs)) @ (np.array(y.xs) - np.array(x.xs)))
        (x0, x1), (y0, y1) = x.xs, y.xs
        assert abs(vi.eval(x, y) - want) <= math.ulp(abs(x1 * (y0 - x0)) + abs(x0 * (y1 - x1)))


# ---------------------------------------------------------------------------
# the squared-distance objectives d^2(., S) / 2, bit for bit against their
# formulas written out
# ---------------------------------------------------------------------------

def _bits(v):
    # floats as float.hex, points as their space and coordinates (a spider
    # leg is an int)
    if isinstance(v, SpacePoint):
        return v.space_id, _bits(v.xs)
    if isinstance(v, (tuple, list)):
        return tuple(map(_bits, v))
    return v.hex() if isinstance(v, float) else v


def _assert_dist2_bits(space, f, nearest, ys):
    for y in ys:
        s = nearest(y)
        d = space.distance(y, s)
        assert _bits(f.eval(y)) == _bits(0.5 * d * d)
        if isinstance(space, Spider):
            assert f.gradient is None
        else:
            assert _bits(f.gradient(y)) == _bits(tuple([-c for c in space.log_map(y, s)]))
        for lam in (0.5, 1.0, 4.0):
            assert (_bits(f.closed_form_resolvent(lam, y))
                    == _bits(space.combine(y, s, lam / (1.0 + lam))))


@pytest.mark.parametrize("space", [E2, H2, S3], ids=["E2", "H2", "S3"])
def test_squared_distance_objectives_keep_their_bits(space):
    rng = np.random.default_rng(19)
    ys = [space.sample_point(rng, 2.0) for _ in range(8)]
    a, p, q = (space.sample_point(rng, 1.0) for _ in range(3))

    f = objective_fixture(space, "quadratic")
    assert _bits(f.known_argmin) == _bits(space.base_point())
    _assert_dist2_bits(space, f, lambda y: space.base_point(), ys)
    f = objective_fixture(space, "quadratic", center=a)
    assert f.known_argmin is a and f.name == "quadratic"
    assert f.weak_convexity_alpha == 0.0 and f.gradient_lipschitz == 1.0
    _assert_dist2_bits(space, f, lambda y: a, ys)

    sets = [Ball(a, 0.7), Segment(p, q)]
    if space is E2:
        sets.append(Halfspace(E2.space_id, (1.0, -2.0), 0.5))
    for cset in sets:
        f = objective_fixture(space, "dist2_to_set", cset=cset)
        assert f.known_argmin is cset and f.name == "dist2_to_set"
        assert f.weak_convexity_alpha == 0.0 and f.gradient_lipschitz == 1.0
        _assert_dist2_bits(space, f, lambda y: space.project(cset, y), ys)


def test_expanding_quadratic_is_the_quadratic_with_a_broken_closed_form():
    rng = np.random.default_rng(20)
    ys = [E2.sample_point(rng, 2.0) for _ in range(8)]
    a = E2.sample_point(rng, 1.0)
    for center, want in ((None, E2.base_point()), (a, a)):
        f = objective_fixture(E2, "expanding_quadratic", center=center)
        assert _bits(f.known_argmin) == _bits(want) and f.name == "expanding_quadratic"
        assert f.gradient is None and f.gradient_lipschitz is None
        assert f.weak_convexity_alpha == 0.0
        for y in ys:
            d = E2.distance(y, want)
            assert _bits(f.eval(y)) == _bits(0.5 * d * d)
            reflected = E2.point([p - 1.5 * (q - p) for p, q in zip(want.xs, y.xs)])
            for lam in (0.5, 1.0, 4.0):
                assert _bits(f.closed_form_resolvent(lam, y)) == _bits(reflected)


@pytest.mark.parametrize("build,message", [
    (lambda: objective_fixture(E2, "nope"),
     "unknown objective 'nope'; known: ['dist2_to_set', 'expanding_quadratic', "
     "'plateau_quartic', 'quadratic']"),
    (lambda: bifunction_fixture(E2, "nope"),
     "unknown bifunction 'nope'; known: ['min_quadratic', 'rotation_vi']"),
    (lambda: objective_fixture(E2, "plateau_quartic"), "plateau_quartic lives on the Euclidean line"),
    (lambda: objective_fixture(H2, "expanding_quadratic"), "expanding_quadratic is Euclidean only"),
    (lambda: bifunction_fixture(E1, "rotation_vi"), "rotation_vi lives on the Euclidean plane"),
], ids=["unknown objective", "unknown bifunction", "quartic off the line",
        "expanding quadratic on H2", "rotation VI off the plane"])
def test_fixtures_refuse_an_unknown_name_and_the_wrong_space(build, message):
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == message
