import dataclasses
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from hadamard_iter import (
    Ball,
    Bifunction,
    ConfigError,
    CustomSolver,
    DomainError,
    Euclidean,
    Halfspace,
    Hyperboloid,
    Minimization,
    ObjectiveFunction,
    OperatorSpec,
    RunConfig,
    Segment,
    SolverError,
    SpacePoint,
    Spider,
    StopReason,
    UnsupportedOperationError,
    VariationalInequality,
    WholeSpace,
    bifunction_fixture,
    build_scheme,
    catalog_operator,
    convex_resolvent,
    equilibrium_resolvent,
    equilibrium_resolvent_operator,
    halpern_schedule,
    iterate_sequence,
    lipschitz_resolvent,
    lipschitz_resolvent_detailed,
    objective_fixture,
    resolvent_constant,
    resolvent_schedule,
    resolvent_sequence,
    vanishing_schedule,
)
from hadamard_iter import resolvents
from sampling import sample_in

E1 = Euclidean(1)
E2 = Euclidean(2)
H2 = Hyperboloid(2)
S3 = Spider(3)


# ---------------------------------------------------------------------------
# convex resolvent
# ---------------------------------------------------------------------------

def test_quadratic_prox_formula():
    # stationarity (y - a) + (y - x)/lam = 0  =>  y = (x + lam a)/(1 + lam)
    q = objective_fixture(E1, "quadratic")
    assert convex_resolvent(q, 1.0, E1.point([2])).coords[0] == pytest.approx(1.0)
    qa = objective_fixture(E1, "quadratic", center=[3.0])
    got = convex_resolvent(qa, 0.5, E1.point([0])).coords[0]
    assert got == pytest.approx((0 + 0.5 * 3.0) / 1.5)


def test_prox_fixes_argmin():
    q = objective_fixture(E2, "quadratic", center=[1.0, -2.0])
    x = q.known_argmin
    for lam in (0.1, 1.0, 7.0):
        assert E2.distance(convex_resolvent(q, lam, x), x) <= 1e-12


def test_prox_gradient_descent_matches_closed_form_euclidean():
    rng = np.random.default_rng(0)
    a = E2.point([0.7, -0.3])
    solver_route = dataclasses.replace(
        objective_fixture(E2, "quadratic", center=a), closed_form_resolvent=None
    )
    for _ in range(50):
        x = E2.sample_point(rng, 2.0)
        lam = float(rng.uniform(0.1, 10.0))
        got = convex_resolvent(solver_route, lam, x).coords
        want = (x.coords + lam * a.coords) / (1.0 + lam)
        assert np.linalg.norm(got - want) <= 1e-9


def _hex(p):
    return [c.hex() for c in p.xs]  # the exact bits, -0.0 told from 0.0


@pytest.mark.parametrize("space", [E2, H2], ids=lambda s: s.space_id)
def test_gradients_and_fields_given_as_arrays_give_the_same_bits(space):
    # a user function may return a numpy array where the fixtures return tuples
    rng = np.random.default_rng(4)
    f = dataclasses.replace(objective_fixture(space, "quadratic",
                                              center=space.sample_point(rng, 1.0)),
                            closed_form_resolvent=None)
    as_array = dataclasses.replace(f, gradient=lambda y: np.asarray(f.gradient(y)))
    for _ in range(10):
        x, lam = space.sample_point(rng, 2.0), float(rng.uniform(0.1, 5.0))
        assert _hex(convex_resolvent(as_array, lam, x)) == _hex(convex_resolvent(f, lam, x))
    if space is E2:
        rot = bifunction_fixture(E2, "rotation_vi")
        field = rot.structure.field
        as_array = dataclasses.replace(rot, structure=VariationalInequality(
            field=lambda z: np.asarray(field(z)), lipschitz=rot.structure.lipschitz))
        for _ in range(5):
            x = E2.sample_point(rng, 2.0)
            assert _hex(equilibrium_resolvent(as_array, 1.5, x)) == \
                _hex(equilibrium_resolvent(rot, 1.5, x))


def test_prox_gradient_descent_matches_geodesic_formula_hyperboloid():
    rng = np.random.default_rng(1)
    a = H2.from_spatial([0.4, 0.1])
    f = objective_fixture(H2, "quadratic", center=a)
    solver_route = dataclasses.replace(f, closed_form_resolvent=None)
    for _ in range(50):
        x = H2.sample_point(rng, 1.5)
        lam = float(rng.uniform(0.1, 10.0))
        got = convex_resolvent(solver_route, lam, x)
        want = H2.combine(x, a, lam / (1.0 + lam))
        assert H2.distance(got, want) <= 1e-9


def test_prox_rejects_bad_lambda():
    q = objective_fixture(E1, "quadratic")
    with pytest.raises(DomainError):
        convex_resolvent(q, 0.0, E1.point([1]))
    quart = objective_fixture(E1, "plateau_quartic")
    with pytest.raises(DomainError):
        convex_resolvent(quart, 1.0 / 16.0, E1.point([1]))  # needs lam < 1/(2*8)


def test_prox_spider_needs_closed_form():
    q = objective_fixture(S3, "quadratic", center=S3.point((1, 2.0)))
    out = convex_resolvent(q, 1.0, S3.point((2, 2.0)))  # closed form works on trees
    assert S3.distance(out, S3.combine(S3.point((2, 2.0)), S3.point((1, 2.0)), 0.5)) <= 1e-12
    bare = dataclasses.replace(q, closed_form_resolvent=None, gradient=None)
    with pytest.raises(UnsupportedOperationError):
        convex_resolvent(bare, 1.0, S3.point((2, 2.0)))
    # a gradient alone does not help: descent needs the tangent chart
    graded = dataclasses.replace(bare, gradient=lambda p: (0.0, 0.0))
    with pytest.raises(UnsupportedOperationError, match="no tangent structure"):
        convex_resolvent(graded, 1.0, S3.point((2, 2.0)))


def test_prox_without_gradient_or_closed_form():
    f = ObjectiveFunction(space=E1, eval=lambda p: abs(float(p.coords[0])))
    with pytest.raises(UnsupportedOperationError):
        convex_resolvent(f, 1.0, E1.point([1]))


def test_recheck_catches_wrong_closed_form():
    q = objective_fixture(E1, "quadratic")
    broken = dataclasses.replace(
        q, closed_form_resolvent=lambda lam, x: E1.point([float(x.coords[0])])
    )
    with pytest.raises(SolverError):
        convex_resolvent(broken, 1.0, E1.point([2]))


def _numpy_recheck(f, lam, x, y):
    """The first-order recheck on numpy arrays, as it was before it moved to
    Python floats: the reference the float recheck must agree with."""
    if f.gradient is None:
        return
    space = f.space
    back = np.asarray(space.log_map(y, x))
    g = np.asarray(f.gradient(y)) - back / lam
    norm = space.tangent_norm(y, g)
    scale = 1.0 + space.tangent_norm(y, back) / lam
    if norm > 1e-8 * scale:
        raise SolverError(
            f"resolvent output fails first-order optimality: |grad| = {norm:.3e} "
            f"(lam={lam})"
        )


def _message(check):
    try:
        check()
    except SolverError as err:
        return str(err)
    return None


def _moved(space, y, direction, t):
    """y moved the distance t along ``direction`` (spatial or ambient)."""
    if isinstance(space, Hyperboloid):
        raw = np.array([0.0, *direction])
        v = raw + Hyperboloid.minkowski(y.coords, raw) * y.coords
        return space.exp_map(y, v * (t / space.tangent_norm(y, v)))
    u = np.asarray(direction, dtype=float)
    return space.point(y.coords + u * (t / float(np.sqrt(u @ u))))


# a ratio to the distance at which the gate 1e-8 * (1 + d(x, y)/lam) trips:
# mostly either side of it, and often within 0.1% of it
_GATE_RATIO = st.one_of(st.floats(0.25, 4.0), st.floats(0.999, 1.001))
_DIRECTION = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2).filter(
    lambda d: math.hypot(*d) > 0.1)


@st.composite
def _recheck_case(draw, space):
    """(objective, lam, x, y) with y the closed-form resolvent moved about the
    distance at which the recheck trips, times a drawn ratio."""
    dim = 1 if space is E1 else 2
    coords = st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)
    point = space.from_spatial if isinstance(space, Hyperboloid) else space.point
    if space is E1 and draw(st.booleans()):
        f, lam = objective_fixture(E1, "plateau_quartic"), draw(st.floats(0.001, 0.06))
        x = E1.point([draw(st.floats(-3.0, 6.0))])
        y = f.closed_form_resolvent(lam, x)
        t = float(y.coords[0])
        curvature = abs((36.0 * t - 96.0) * t + 48.0 + 1.0 / lam)  # d/dy of the gradient
    else:
        f, lam = objective_fixture(space, "quadratic", center=point(draw(coords))), \
            draw(st.floats(0.05, 5.0))
        x = point(draw(coords))
        y = f.closed_form_resolvent(lam, x)
        curvature = 1.0 + 1.0 / lam
    gate = 1e-8 * (1.0 + space.distance(x, y) / lam) / curvature
    direction = draw(_DIRECTION)[:dim]
    if dim == 1:
        direction = [1.0 if direction[0] >= 0 else -1.0]
    return f, lam, x, _moved(space, y, direction, draw(_GATE_RATIO) * gate)


@pytest.mark.parametrize("space", [E1, E2, H2], ids=lambda s: s.space_id)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_float_recheck_decides_as_the_numpy_recheck(space, data):
    f, lam, x, y = data.draw(_recheck_case(space))
    want = _message(lambda: _numpy_recheck(f, lam, x, y))
    got = _message(lambda: resolvents._recheck_first_order(space, f.gradient, lam, x, y))
    assert got == want


@pytest.mark.parametrize("space", [E1, E2, H2], ids=lambda s: s.space_id)
@pytest.mark.parametrize("ratio, trips", [(0.5, False), (2.0, True)])
def test_recheck_cases_fall_on_the_side_of_the_gate_they_are_drawn_on(space, ratio, trips):
    # the cases above straddle the gate: half the distance passes, twice trips
    f = objective_fixture(space, "quadratic")
    x = space.from_spatial([1.2, -0.4]) if space is H2 else space.point([1.2, -0.4][:space.dim])
    y = f.closed_form_resolvent(0.5, x)
    gate = 1e-8 * (1.0 + space.distance(x, y) / 0.5) / 3.0
    moved = _moved(space, y, [0.6, 0.8][:space.dim], ratio * gate)
    for check in (lambda: _numpy_recheck(f, 0.5, x, moved),
                  lambda: resolvents._recheck_first_order(space, f.gradient, 0.5, x, moved)):
        assert (_message(check) is not None) is trips


@pytest.mark.parametrize("space", [E1, E2, H2], ids=lambda s: s.space_id)
@pytest.mark.parametrize("route", ["closed_form", "descent"])
def test_a_nan_gradient_is_a_solver_error(space, route):
    # the recheck's gate is "|grad| <= 1e-8 (1 + d(x, y) / lam)", which a
    # NaN norm fails; by descent, a NaN norm never meets the descent's own
    # tolerance either
    f = objective_fixture(space, "quadratic")
    if route == "descent":
        f = dataclasses.replace(f, closed_form_resolvent=None)
    f = dataclasses.replace(f, gradient=lambda y: (math.nan,) * len(y.xs))
    x = space.from_spatial([1.2, -0.4]) if space is H2 else space.point([1.2, -0.4][:space.dim])
    with pytest.raises(SolverError):
        convex_resolvent(f, 0.5, x)


@pytest.mark.parametrize("space", [E1, E2, H2], ids=lambda s: s.space_id)
@pytest.mark.parametrize("route", ["closed_form", "descent"])
def test_a_wrong_length_gradient_is_a_domain_error_and_a_run_s_solver_error(space, route):
    # the prox centred at (1, 0) from (3, 1), as far as the space has
    # coordinates; a gradient one entry short (one too long on the line)
    point = space.from_spatial if space is H2 else space.point
    f = objective_fixture(space, "quadratic", center=point([1.0, 0.0][:space.dim]))
    if route == "descent":
        f = dataclasses.replace(f, closed_form_resolvent=None)
    x = point([3.0, 1.0][:space.dim])
    n = len(x.xs)
    wrong = n + 1 if space is E1 else n - 1
    f = dataclasses.replace(f, gradient=lambda y: (0.0,) * wrong)
    message = f"gradient has {wrong} entries where the tangent space at the point has {n}"
    with pytest.raises(DomainError, match=message):
        convex_resolvent(f, 0.5, x)
    trace = iterate_sequence(resolvent_sequence(f, resolvent_constant(0.5)),
                             RunConfig(space=space, start=x, max_iterations=10))
    s = trace.summary
    assert s.stop_reason is StopReason.SOLVER_ERROR and s.error_message == message
    assert (s.error_step, s.iterations_run, trace.steps, s.final_point) == (1, 0, [], x)


@pytest.mark.parametrize("bad", [lambda y: iter((0.0,) * len(y.xs)), lambda y: 0.0],
                         ids=["iterator", "float"])
def test_a_gradient_that_returns_no_sequence_is_a_domain_error(bad):
    # its length is read before any entry, and len() takes sequences only
    f = dataclasses.replace(objective_fixture(E2, "quadratic"), gradient=bad)
    with pytest.raises(DomainError, match="not a sequence"):
        convex_resolvent(f, 0.5, E2.point([3.0, 1.0]))


_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.7e308,
                                    math.inf, -math.inf, math.nan]), st.floats())


def _bits(v: float) -> bytes:
    return np.float64(v).tobytes()


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_subproblem_grad_is_the_strict_zip_form_bit_for_bit(data):
    n = data.draw(st.integers(1, 3))
    g = tuple(data.draw(st.lists(_ENTRY, min_size=n, max_size=n)))
    back = tuple(data.draw(st.lists(_ENTRY, min_size=n, max_size=n)))
    lam = data.draw(st.floats(1e-12, 1e3))
    want = [a - b / lam for a, b in zip(g, back, strict=True)]
    got = resolvents._subproblem_grad(lambda y: g, lam, None, back)
    assert len(got) == n
    for w, v in zip(want, got):
        # NaN wherever the old form gives NaN, and otherwise the same bytes
        assert math.isnan(v) if math.isnan(w) else _bits(v) == _bits(w)


def test_resolvent_operators_look_up_convex_resolvent_when_called(monkeypatch):
    # a span tracer replaces the module-level name once operators exist; an
    # operator built before must reach the replacement, in the engine too
    f = objective_fixture(E1, "quadratic")
    seq = resolvent_sequence(f, resolvent_constant(1.0))
    op = seq.factory(1)
    calls = []
    real = resolvents.convex_resolvent

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(resolvents, "convex_resolvent", spy)
    x = E1.point([2.0])
    assert op.apply(x).coords[0] == 1.0
    assert calls == [(f, 1.0, x)]
    tr = iterate_sequence(seq, RunConfig(space=E1, start=x, max_iterations=5, tolerance=0.0))
    assert len(calls) == 1 + tr.summary.iterations_run == 6


# ---------------------------------------------------------------------------
# the quartic with a non-minimizing resolvent fixed point
# ---------------------------------------------------------------------------

def _quartic_prox_oracle(lam, x):
    # independent route: bracketed root of the stationarity equation
    g = lambda y: y + lam * 12.0 * y * (y - 2.0) ** 2 - x
    lo, hi = (0.0, x) if x >= 0 else (x, 0.0)
    if g(lo) == 0.0:
        return lo
    return brentq(g, lo - 1e-12, hi + 1e-12, xtol=1e-15)


def test_quartic_prox_matches_brentq_oracle():
    rng = np.random.default_rng(2)
    quart = objective_fixture(E1, "plateau_quartic")
    for _ in range(200):
        lam = float(rng.uniform(1e-3, 0.06))
        x = float(rng.uniform(-3.0, 6.0))
        got = convex_resolvent(quart, lam, E1.point([x])).coords[0]
        assert got == pytest.approx(_quartic_prox_oracle(lam, x), abs=1e-12)


def test_quartic_fixes_stationary_nonminimizer():
    # f'(2) = 0, and for lam < 1/16 the subproblem at x = 2 has no other
    # stationary point, so 2 is a resolvent fixed point despite f(2) = 16 > 0
    quart = objective_fixture(E1, "plateau_quartic")
    for lam in (0.01, 0.05):
        assert convex_resolvent(quart, lam, E1.point([2.0])).coords[0] == pytest.approx(2.0, abs=1e-14)
    assert quart.eval(E1.point([2.0])) == pytest.approx(16.0)
    assert quart.eval(E1.point([0.0])) == 0.0


def test_quartic_prox_iterates_decrease_monotonically():
    quart = objective_fixture(E1, "plateau_quartic")
    x = 5.0
    for _ in range(100):
        nxt = float(convex_resolvent(quart, 0.01, E1.point([x])).coords[0])
        assert 2.0 < nxt < x
        x = nxt


# ---------------------------------------------------------------------------
# Lipschitz-map resolvent
# ---------------------------------------------------------------------------

def test_lipschitz_resolvent_identity_map():
    ident = catalog_operator(E2, "projection", cset=Ball(E2.point([0, 0]), 1e9))
    x = E2.point([0.3, 0.4])
    for lam in (0.5, 1.0, 3.0):
        assert E2.distance(lipschitz_resolvent(ident, lam, x), x) <= 1e-11


def test_lipschitz_resolvent_constant_map():
    c1 = catalog_operator(E1, "constant", point=E1.point([1.0]))
    got = lipschitz_resolvent(c1, 1.0, E1.point([0.0])).coords[0]
    assert got == pytest.approx(0.5, abs=1e-11)  # (1/(1+lam)) x + (lam/(1+lam)) c


def test_lipschitz_resolvent_reflection():
    # y = x/(1+lam) - (lam/(1+lam)) y  =>  y = x/(1+2 lam)
    refl = catalog_operator(E1, "scaled_reflection", factor=1.0)
    got = lipschitz_resolvent(refl, 1.0, E1.point([3.0])).coords[0]
    assert got == pytest.approx(1.0, abs=1e-11)


def test_lipschitz_resolvent_domain_errors():
    refl = catalog_operator(E1, "scaled_reflection", factor=1.0)
    with pytest.raises(DomainError):
        lipschitz_resolvent(refl, -1.0, E1.point([1]))
    T = OperatorSpec(space=E1, apply=lambda p: E1.point(2.0 * p.coords),
                     domain=WholeSpace(E1.space_id), lipschitz_const=2.0)
    with pytest.raises(DomainError):
        lipschitz_resolvent(T, 1.0, E1.point([1]))  # needs lam < 1/(2-1)
    bare = OperatorSpec(space=E1, apply=lambda p: p, domain=WholeSpace(E1.space_id))
    with pytest.raises(DomainError):
        lipschitz_resolvent(bare, 1.0, E1.point([1]))


def test_lipschitz_resolvent_contraction_ratio_reported():
    E = Euclidean(2)
    A = 1.8 * np.array([[0.0, -1.0], [1.0, 0.0]])
    T = OperatorSpec(space=E, apply=lambda p: E.point(A @ p.coords),
                     domain=WholeSpace(E.space_id), lipschitz_const=1.8)
    lam = 0.5 / 0.8
    y, iters, ratio = lipschitz_resolvent_detailed(T, lam, E.point([2.0, 1.0]))
    factor = 1.8 * lam / (1.0 + lam)
    assert ratio <= factor + 1e-6
    t = lam / (1.0 + lam)
    want = np.linalg.solve(np.eye(2) - t * A, (1 - t) * np.array([2.0, 1.0]))
    assert np.linalg.norm(y.coords - want) <= 1e-9


def test_lipschitz_resolvent_refuses_a_ratio_beyond_the_declared_constant():
    # a rotation is 1-Lipschitz; declared 0.1-Lipschitz, its inner iteration
    # contracts by 1/2 per step, ten times the analytic factor 0.1 * 1/2
    rot = dataclasses.replace(catalog_operator(E2, "rotation", angle=1.0), lipschitz_const=0.1)
    with pytest.raises(SolverError, match=re.escape(
            "observed contraction ratio 0.500000000 exceeds the analytic factor "
            "0.050000000 at inner step 2")):
        lipschitz_resolvent_detailed(rot, 1.0, E2.point([2.0, 1.0]))


def test_lipschitz_resolvent_fixes_witnesses():
    ops = [
        catalog_operator(E2, "rotation", angle=1.1),
        catalog_operator(E2, "scaled_reflection", factor=0.7),
        catalog_operator(E2, "projection", cset=Ball(E2.point([0.5, 0.5]), 1.0)),
        catalog_operator(E2, "constant", point=E2.point([1.0, 0.0])),
    ]
    for op in ops:
        p = op.fixed_point_witness
        for lam in (0.3, 1.0, 5.0):
            assert E2.distance(lipschitz_resolvent(op, lam, p), p) <= 1e-9


def test_lipschitz_resolvent_fixed_points_are_fixed_by_T():
    rot = catalog_operator(E2, "rotation", angle=2.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = E2.sample_point(rng, 2.0)
        j = lipschitz_resolvent(rot, 1.0, x)
        if E2.distance(j, x) <= 1e-10:  # a fixed point of J is fixed by T
            assert E2.distance(rot.apply(j), j) <= 1e-7


def _wrong_space_on_call(n):
    """A 1/2-Lipschitz E2 map whose n-th evaluation lands in E3."""
    E3 = Euclidean(3)
    calls = [0]

    def apply(p):
        calls[0] += 1
        if calls[0] == n:
            return E3.point([0.0, 0.0, 0.0])
        return E2.point(0.5 * p.coords)

    return OperatorSpec(space=E2, apply=apply, domain=WholeSpace(E2.space_id),
                        lipschitz_const=0.5, fixed_point_witness=E2.base_point(),
                        quasi_nonexpansive=True)


def test_lipschitz_resolvent_rejects_wrong_space_inside_the_loop():
    # x is validated at entry; each T output is still checked for its space
    T = _wrong_space_on_call(3)
    with pytest.raises(DomainError, match="expected 'euclidean:2'"):
        lipschitz_resolvent_detailed(T, 1.0, E2.point([1.0, 2.0]))


def test_lipschitz_resolvent_wrong_space_mid_run_keeps_the_trace():
    T = _wrong_space_on_call(40)  # each outer step takes several inner steps
    built = build_scheme("ppa_lipschitz", T, {"lambda": resolvent_constant(1.0)})
    tr = built.run(RunConfig(space=E2, start=E2.point([3.0, -1.0]),
                             max_iterations=100, tolerance=0.0))
    assert tr.summary.stop_reason is StopReason.SOLVER_ERROR
    assert tr.summary.error_step > 1
    assert tr.summary.iterations_run == tr.summary.error_step - 1
    assert [s.k for s in tr.steps] == list(range(1, tr.summary.error_step))
    assert "euclidean:3" in tr.summary.error_message


def test_lipschitz_resolvent_huge_lambda_takes_the_map_value():
    # lam / (1 + lam) rounds to 1.0: the inner step is T y itself, as with combine
    refl = catalog_operator(E2, "scaled_reflection", factor=0.5)
    y, iters, _ = lipschitz_resolvent_detailed(refl, 1e17, E2.point([1.0, -2.0]))
    assert iters > 1
    assert np.array_equal(y.coords, np.array([1.0, -2.0]) * (-0.5) ** iters)
    with pytest.raises(DomainError, match="finite"):
        lipschitz_resolvent(refl, math.inf, E2.point([1.0, -2.0]))


# ---------------------------------------------------------------------------
# equilibrium resolvent
# ---------------------------------------------------------------------------

def test_equilibrium_rotation_vi_oracle():
    # interior stationarity (A + lam I) z = lam x solved exactly in 2x2
    vi = bifunction_fixture(E2, "rotation_vi")
    z = equilibrium_resolvent(vi, 1.0, E2.point([1.0, 0.0]))
    assert np.linalg.norm(z.coords - [0.5, 0.5]) <= 1e-8


def test_equilibrium_fixes_witness():
    vi = bifunction_fixture(E2, "rotation_vi")
    z = equilibrium_resolvent(vi, 1.0, vi.equilibrium_witness)
    assert E2.distance(z, vi.equilibrium_witness) <= 1e-9


def test_equilibrium_requires_lambda_above_theta():
    vi = bifunction_fixture(E2, "rotation_vi")
    shifted = dataclasses.replace(vi, theta=0.5)
    with pytest.raises(DomainError):
        equilibrium_resolvent(shifted, 0.5, E2.point([0.1, 0.0]))


def test_minimization_path_matches_convex_resolvent():
    # parameter correspondence: the pairing parameter lam corresponds to the
    # prox parameter 1/lam on minimization bifunctions
    bif = bifunction_fixture(E2, "min_quadratic", center=[1.0, 1.0])
    g = objective_fixture(E2, "quadratic", center=[1.0, 1.0])
    rng = np.random.default_rng(4)
    for _ in range(25):
        x = E2.sample_point(rng, 2.0)
        lam = float(rng.uniform(0.3, 5.0))
        via_bif = equilibrium_resolvent(bif, lam, x)
        via_prox = convex_resolvent(g, 1.0 / lam, x)
        assert E2.distance(via_bif, via_prox) <= 1e-9


def test_minimization_over_ball():
    K = Ball(E2.point([0, 0]), 1.0)
    bif = bifunction_fixture(E2, "min_quadratic", center=[3.0, 0.0], cset=K)
    # equilibrium point = projection of the center onto K
    assert np.allclose(bif.equilibrium_witness.coords, [1.0, 0.0])
    z = equilibrium_resolvent(bif, 1.0, E2.point([1.0, 0.0]))
    # resolvent output stays in K and moves toward the constrained minimizer
    assert E2.contains(K, z, 1e-9)
    assert E2.distance(z, bif.equilibrium_witness) < 1.0


def _numpy_vi_solve(vi, space, K, lam, x):
    """The projected iteration on numpy arrays, as it was before it moved to
    Python floats: the reference the float loop must equal bit for bit."""
    step = 1.0 / (vi.lipschitz + lam)
    z = space.project(K, x)
    for j in range(resolvents.VI_BUDGET):
        drift = vi.field(z) + lam * (z.coords - x.coords)
        z_next = space.project(K, space.point(z.coords - step * drift))
        move = space.distance(z_next, z)
        z = z_next
        if move <= resolvents.VI_TOL:
            return z
    raise AssertionError("the reference loop did not converge")


@settings(max_examples=60, deadline=None)
@given(x=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2), lam=st.floats(0.5, 4.0),
       name=st.sampled_from(["rotation_vi", "min_quadratic"]))
def test_float_vi_loop_equals_the_numpy_loop(x, lam, name):
    if name == "rotation_vi":
        bif = bifunction_fixture(E2, name)
        vi = bif.structure
    else:  # the gradient field of a constrained minimization
        bif = bifunction_fixture(E2, name, center=[3.0, 0.5], cset=Ball(E2.point([0, 0]), 1.0))
        g = bif.structure.objective
        vi = VariationalInequality(field=g.gradient, lipschitz=g.gradient_lipschitz)
    x = E2.point(x)
    got = resolvents._solve_vi_structure(vi, E2, bif.feasible_set, lam, x)
    want = _numpy_vi_solve(vi, E2, bif.feasible_set, lam, x)
    assert np.array_equal(got.coords, want.coords)


def test_equilibrium_verification_catches_broken_solver():
    vi = bifunction_fixture(E2, "rotation_vi")
    broken = dataclasses.replace(
        vi, structure=CustomSolver(solve=lambda lam, x: E2.point([0.0, -0.9]))
    )
    with pytest.raises(SolverError):
        equilibrium_resolvent(broken, 1.0, E2.point([0.9, 0.0]))



@pytest.mark.parametrize("x,message", [
    (1.65e308, "coordinates must be finite"),    # a grid point past the float range
    (1.6e308, "tangent vector must be finite"),  # a grid radius past it
])
def test_an_equilibrium_grid_past_the_float_range_is_refused(x, message):
    # the grid around the anchor 1.7e308 of K leaves the floats; that is a
    # refused input (DomainError), not a failed verification (SolverError)
    K = Halfspace(E1.space_id, [1.0], 1.7e308)
    f = bifunction_fixture(E1, "min_quadratic", center=[1.7e308], cset=K)
    with pytest.raises(DomainError, match=f"^{message}$"):
        equilibrium_resolvent(f, 1.0, E1.point([x]))

@pytest.mark.parametrize("case", ["nan_eval", "nan_solver_output"])
def test_a_nan_margin_fails_the_equilibrium_verification(case):
    # the gate is "margin >= -slack", which a NaN margin fails: from a NaN
    # bifunction value, or from a solver output with a NaN coordinate
    # (built past ``point``'s checks)
    f = _projection_bifunction(E2, Ball(E2.base_point(), 1.0))
    if case == "nan_eval":
        f = dataclasses.replace(f, eval=lambda z, y: math.nan)
    else:
        f = dataclasses.replace(f, structure=CustomSolver(
            solve=lambda lam, x: SpacePoint(E2.space_id, (math.nan, 0.0))))
    with pytest.raises(SolverError, match="violated by nan"):
        equilibrium_resolvent(f, 1.0, E2.base_point())


def _projection_bifunction(space, K):
    """The zero bifunction on K, whose resolvent is the projection onto K."""
    return Bifunction(space=space, eval=lambda z, y: 0.0, theta=0.0,
                      structure=CustomSolver(solve=lambda lam, x: space.project(K, x)),
                      feasible_set=K)


def _fresh_grid(space, K, x, z, n_dir, n_rad):
    """The verification grid built from scratch, with a new generator."""
    pts = []
    if K.kind == "segment":
        n = max(2, n_dir * n_rad)
        return [space.combine(K.a, K.b, i / n) for i in range(n + 1)]
    anchor = K.center if K.kind == "ball" else (
        space.point([c * (K.offset / sum(a * a for a in K.normal)) for c in K.normal])
        if K.kind == "halfspace" else space.base_point())
    if K.kind == "ball":
        radius = K.radius
    else:
        radius = 1.0 + 2.0 * (space.distance(anchor, x) + space.distance(anchor, z))
    if isinstance(space, Spider):
        for leg in range(space.num_legs):
            for i in range(1, n_rad + 1):
                pts.append(space.project(K, space.point((leg, radius * i / n_rad))))
        pts.append(space.base_point() if K.kind != "ball"
                   else space.project(K, space.base_point()))
        return pts
    # every direction's standard normal draws first, in one stream
    dim = len(space.base_point().xs) - (1 if isinstance(space, Hyperboloid) else 0)
    gauss = random.Random(271828).gauss
    draws = [gauss(0.0, 1.0) for _ in range(n_dir * dim)]
    for start in range(0, len(draws), dim):
        raw = draws[start:start + dim]
        if isinstance(space, Hyperboloid):
            # (0, raw) minus its Minkowski component along the anchor, then
            # unit length in the tangent norm: exp_map walks r along it
            w = [0.0, *raw]
            m = Hyperboloid.minkowski(anchor.xs, w)
            tangent = [wi + m * ai for wi, ai in zip(w, anchor.xs)]
            length = space.tangent_norm(anchor, tangent)
            unit = [c / length for c in tangent]
            pts += [space.project(K, space.exp_map(anchor, [c * (radius * i / n_rad) for c in unit]))
                    for i in range(1, n_rad + 1)]
        else:
            length = math.sqrt(sum(c * c for c in raw))
            unit = [c / length for c in raw]
            pts += [space.project(K, space.point([a + c * (radius * i / n_rad)
                                                  for a, c in zip(anchor.xs, unit)]))
                    for i in range(1, n_rad + 1)]
    pts.append(anchor)
    return pts


def _recorded_verifications(monkeypatch):
    """(x, z, grid) of every equilibrium resolvent verification, in order."""
    calls = []
    verify = resolvents._verify_equilibrium

    def recording_verify(f, lam, x, z, grid):
        calls.append((x, z, grid))
        return verify(f, lam, x, z, grid)

    monkeypatch.setattr(resolvents, "_verify_equilibrium", recording_verify)
    return calls


def _wrong_on_third_call(K):
    """The projection bifunction on an E2 set K whose solver returns a point
    that fails the inequality on its third call, and that call's counter."""
    calls = [0]

    def solve(lam, x):
        calls[0] += 1
        return E2.point([-0.5, -0.3]) if calls[0] == 3 else E2.project(K, x)

    return dataclasses.replace(_projection_bifunction(E2, K),
                               structure=CustomSolver(solve=solve)), calls


GRID_CASES = [
    ("E2 ball", E2, Ball(E2.point([0.2, -0.1]), 0.7),
     [E2.point([1.0, 1.0]), E2.point([-0.3, 0.2])]),
    ("E2 segment", E2, Segment(E2.point([0.0, 0.0]), E2.point([1.0, 0.5])),
     [E2.point([2.0, -1.0]), E2.point([0.5, 0.5])]),
    ("E2 whole space", E2, WholeSpace(E2.space_id),
     [E2.point([1.5, -0.5]), E2.point([-2.0, 0.25])]),
    ("E2 halfspace", E2, Halfspace(E2.space_id, np.array([1.0, 1.0]), 0.5),
     [E2.point([2.0, 1.0]), E2.point([-1.0, 0.0])]),
    ("H2 ball", H2, Ball(H2.from_spatial([0.3, 0.2]), 0.4),
     [H2.from_spatial([1.2, -0.4]), H2.from_spatial([0.35, 0.1])]),
    ("spider ball", S3, Ball(S3.point((1, 0.5)), 1.2),
     [S3.point((2, 3.0)), S3.point((1, 0.8))]),
]


@pytest.mark.parametrize("name,space,K,xs", GRID_CASES, ids=[c[0] for c in GRID_CASES])
def test_operator_verification_grid_equals_a_fresh_grid(monkeypatch, name, space, K, xs):
    grids = _recorded_verifications(monkeypatch)
    op = equilibrium_resolvent_operator(_projection_bifunction(space, K), 1.0)
    for x in xs:
        op.apply(x)
    assert len(grids) == len(xs)
    for x, z, grid in grids:
        fresh = _fresh_grid(space, K, x, z, 8, 2)
        assert len(grid) == len(fresh)
        for got, want in zip(grid, fresh):
            assert got.space_id == want.space_id
            assert got.coords.tobytes() == want.coords.tobytes()
    if K.kind in ("ball", "segment"):
        assert grids[0][2] is grids[1][2]  # built once per set and counts


def test_hyperboloid_grid_points_lie_at_their_stated_radius():
    # exp_map projects a vector onto the tangent space at its base, which
    # stretches a spatial direction at an anchor off the apex; the grid
    # moves the direction into that tangent space and scales it there first
    anchor = H2.from_spatial([3.0, 1.0])
    radius, n_dir, n_rad = 0.4, 64, 8
    grid = resolvents._radial_grid(H2, WholeSpace(H2.space_id), anchor, radius, n_dir, n_rad)
    assert len(grid) == n_dir * n_rad + 1 and grid[-1] is anchor
    for j, p in enumerate(grid[:-1]):
        want = radius * (j % n_rad + 1) / n_rad
        assert H2.distance(anchor, p) == pytest.approx(want, rel=1e-12, abs=0.0)


def _frozen_radial_grid(space, K, anchor, radius, n_dir, n_rad):
    """``resolvents._radial_grid`` as it was when it did the Minkowski
    projection of the H2 direction itself, kept to pin the grid's bits."""
    pts = []
    if isinstance(space, Spider):
        for leg in range(space.num_legs):
            for i in range(1, n_rad + 1):
                cand = space.point((leg, radius * i / n_rad))
                pts.append(space.project(K, cand))
        pts.append(space.base_point() if K.kind != "ball" else space.project(K, space.base_point()))
        return tuple(pts)
    gauss = random.Random(271828).gauss
    curved = isinstance(space, Hyperboloid)
    dim = len(anchor.xs) - (1 if curved else 0)
    for _ in range(n_dir):
        d = [gauss(0.0, 1.0) for _ in range(dim)]
        if curved:
            m = space.minkowski(anchor.xs, [0.0, *d])
            d = [c + m * a for c, a in zip([0.0, *d], anchor.xs)]
        norm = space.tangent_norm(anchor, d) if curved else math.sqrt(sum([c * c for c in d]))
        d = [c / norm for c in d]
        for i in range(1, n_rad + 1):
            r = radius * i / n_rad
            cand = (space.exp_map(anchor, [c * r for c in d]) if curved
                    else space.point([a + c * r for a, c in zip(anchor.xs, d)]))
            pts.append(space.project(K, cand))
    pts.append(anchor)
    return tuple(pts)


H3 = Hyperboloid(3)
RADIAL_GRID_CASES = [  # every ball, whole space and halfspace a space can project onto
    ("E1 ball", E1, Ball(E1.point([0.3]), 0.9)),
    ("E1 whole space", E1, WholeSpace(E1.space_id)),
    ("E1 halfspace", E1, Halfspace(E1.space_id, [2.0], 0.5)),
    ("E2 ball", E2, Ball(E2.point([0.2, -0.1]), 0.7)),
    ("E2 whole space", E2, WholeSpace(E2.space_id)),
    ("E2 halfspace", E2, Halfspace(E2.space_id, [1.0, 1.0], 0.5)),
    ("H2 ball", H2, Ball(H2.from_spatial([0.3, 0.2]), 0.4)),
    ("H2 far ball", H2, Ball(H2.from_spatial([3.0, -1.0]), 2.5)),
    ("H2 whole space", H2, WholeSpace(H2.space_id)),
    ("H3 ball", H3, Ball(H3.from_spatial([0.3, 0.2, -0.5]), 1.1)),
    ("H3 whole space", H3, WholeSpace(H3.space_id)),
    ("spider ball", S3, Ball(S3.point((1, 0.5)), 1.2)),
    ("spider whole space", S3, WholeSpace(S3.space_id)),
]


@pytest.mark.parametrize("name,space,K", RADIAL_GRID_CASES, ids=[c[0] for c in RADIAL_GRID_CASES])
def test_radial_grid_keeps_the_bits_of_the_frozen_grid(name, space, K):
    anchor = resolvents.canonical_point(space, K)
    for radius in (K.radius if K.kind == "ball" else 3.7, 0.25):
        got = resolvents._radial_grid(space, K, anchor, radius, 8, 3)
        want = _frozen_radial_grid(space, K, anchor, radius, 8, 3)
        assert [_hex(p) for p in got] == [_hex(p) for p in want]


def test_operator_verifies_every_call_with_the_cached_grid():
    bif, calls = _wrong_on_third_call(Ball(E2.point([0.0, 0.0]), 1.0))
    op = equilibrium_resolvent_operator(bif, 1.0)
    x = E2.point([0.5, 0.3])
    op.apply(x)
    op.apply(x)
    with pytest.raises(SolverError, match="equilibrium inequality violated"):
        op.apply(x)
    assert calls[0] == 3
    assert E2.distance(op.apply(x), x) == 0.0


def test_one_shot_resolvent_reuses_its_ball_grid(monkeypatch):
    calls = _recorded_verifications(monkeypatch)
    f = _projection_bifunction(E2, Ball(E2.point([0.0, 0.0]), 1.0))
    equilibrium_resolvent(f, 1.0, E2.point([0.5, 0.3]))
    equilibrium_resolvent(f, 2.0, E2.point([2.0, -1.0]))
    grids = [grid for _, _, grid in calls]
    assert len(grids[0]) == 513  # 64 directions x 8 radii, and the center
    assert grids[1] is grids[0]


def test_one_shot_and_operator_on_one_set_get_the_grid_of_their_counts(monkeypatch):
    calls = _recorded_verifications(monkeypatch)
    f = _projection_bifunction(E2, Ball(E2.point([0.0, 0.0]), 1.0))
    x = E2.point([0.5, 0.3])
    equilibrium_resolvent(f, 1.0, x)
    equilibrium_resolvent_operator(f, 1.0).apply(x)
    equilibrium_resolvent_operator(f, 2.0).apply(x)
    equilibrium_resolvent(f, 1.0, x)
    grids = [grid for _, _, grid in calls]
    assert [len(g) for g in grids] == [513, 17, 17, 513]
    assert grids[2] is grids[1] and grids[3] is grids[0]


def test_one_shot_resolvent_verifies_every_call():
    bif, calls = _wrong_on_third_call(Ball(E2.point([0.0, 0.0]), 1.0))
    x = E2.point([0.5, 0.3])
    equilibrium_resolvent(bif, 1.0, x)
    equilibrium_resolvent(bif, 1.0, x)
    with pytest.raises(SolverError, match="equilibrium inequality violated"):
        equilibrium_resolvent(bif, 1.0, x)
    assert calls[0] == 3


def test_vi_and_constrained_minimization_need_a_euclidean_space():
    K = Ball(H2.base_point(), 1.0)
    x = H2.from_spatial([0.2, 0.1])
    vi = Bifunction(space=H2, eval=lambda z, y: 0.0, theta=0.0,
                    structure=VariationalInequality(field=lambda z: np.zeros(3), lipschitz=1.0),
                    feasible_set=K)
    with pytest.raises(UnsupportedOperationError,
                       match="variational-inequality resolvents are solved in Euclidean"):
        equilibrium_resolvent(vi, 1.0, x)
    g = ObjectiveFunction(space=H2, eval=lambda p: 0.0, gradient=lambda p: np.zeros(3),
                          gradient_lipschitz=1.0)
    constrained = dataclasses.replace(vi, structure=Minimization(objective=g))
    with pytest.raises(UnsupportedOperationError,
                       match="constrained minimization bifunctions are solved in Euclidean"):
        equilibrium_resolvent(constrained, 1.0, x)


def test_sequence_builds_one_verification_grid_for_a_varying_lambda():
    # lam_k = 1 + 1/k makes a new operator at every k; the grid depends only
    # on the set and the counts, so the whole run builds it once: one miss
    # of the memo, on a set no earlier call has seen
    memo = resolvents._fixed_verification_grid
    misses = memo.cache_info().misses
    vi = bifunction_fixture(E2, "rotation_vi")
    lam = resolvent_schedule(lambda k: 1.0 + 1.0 / k, lower=1.0, upper=2.0)
    built = build_scheme("halpern_ppa_equilibrium", vi, {"anchor": halpern_schedule(), "lambda": lam})
    cfg = RunConfig(space=E2, start=E2.point([0.6, -0.2]), anchor=E2.point([0.3, 0.5]),
                    max_iterations=300, tolerance=0.0)
    trace = built.run(cfg)
    assert trace.summary.stop_reason is StopReason.BUDGET_EXHAUSTED
    assert trace.summary.iterations_run == 300
    assert memo.cache_info().misses == misses + 1


def test_bifunction_sampled_axioms():
    rng = np.random.default_rng(5)
    vi = bifunction_fixture(E2, "rotation_vi")
    for _ in range(200):
        x = sample_in(E2, vi.feasible_set, rng)
        y = sample_in(E2, vi.feasible_set, rng)
        assert vi.eval(x, x) == 0.0
        # theta-under monotone with theta = 0, and pseudo-monotone
        s = vi.eval(x, y) + vi.eval(y, x)
        assert s <= vi.theta * E2.distance(x, y) ** 2 + 1e-8
        if vi.eval(x, y) >= 0.0:
            assert vi.eval(y, x) <= 1e-8


# ---------------------------------------------------------------------------
# resolvent sequences
# ---------------------------------------------------------------------------

def test_sequence_constant_lambda_valid():
    q = objective_fixture(E1, "quadratic")
    seq = resolvent_sequence(q, resolvent_constant(1.0))
    assert seq.factory(10).apply(E1.point([4])).coords[0] == pytest.approx(2.0)
    assert seq.factory(10).fixed_point_witness is not None


def test_sequence_rejects_vanishing_lambda():
    q = objective_fixture(E1, "quadratic")
    with pytest.raises(ConfigError):
        resolvent_sequence(q, resolvent_schedule(lambda k: 1.0 / k, lower=0.0))
    with pytest.raises(ConfigError):
        resolvent_sequence(q, vanishing_schedule())  # wrong class entirely


def test_sequence_weakly_convex_needs_certified_cap():
    quart = objective_fixture(E1, "plateau_quartic")
    with pytest.raises(ConfigError):
        resolvent_sequence(quart, resolvent_constant(0.1))  # cap is 1/16
    seq = resolvent_sequence(quart, resolvent_constant(0.01))
    assert seq.factory(1).apply(E1.point([2.0])).coords[0] == pytest.approx(2.0)


def test_sequence_lipschitz_needs_cap_below_window():
    T = OperatorSpec(space=E1, apply=lambda p: E1.point(-2.0 * p.coords),
                     domain=WholeSpace(E1.space_id), lipschitz_const=2.0,
                     quasi_nonexpansive=False)
    with pytest.raises(ConfigError):
        resolvent_sequence(T, resolvent_constant(1.0))  # needs lam < 1
    seq = resolvent_sequence(T, resolvent_constant(0.5))
    # oracle: y = x/(1+lam) - (c lam/(1+lam)) y  =>  y = x/(1 + (1+c) lam)
    assert seq.factory(1).apply(E1.point([3.0])).coords[0] == pytest.approx(1.2, abs=1e-10)


def test_sequence_equilibrium_margin_rules():
    vi = bifunction_fixture(E2, "rotation_vi")
    shifted = dataclasses.replace(vi, theta=0.5)
    # lower bound equal to theta: no positive margin, rejected
    with pytest.raises(ConfigError):
        resolvent_sequence(shifted, resolvent_schedule(
            lambda k: 0.5 + 1.0 / k, lower=0.5, upper=1.5))
    # no upper bound: rejected
    with pytest.raises(ConfigError):
        resolvent_sequence(vi, resolvent_schedule(lambda k: 1.0, lower=1.0))
    seq = resolvent_sequence(shifted, resolvent_schedule(
        lambda k: 0.6 + 1.0 / k, lower=0.6, upper=1.6))
    assert seq.factory(1).fixed_point_witness is vi.equilibrium_witness


def test_dist2_to_set_closed_form_matches_descent():
    # dual route for the set-distance objective: the closed form moves x a
    # fraction lam/(1+lam) toward its projection; descent must agree
    rng = np.random.default_rng(6)
    cases = [
        (E2, Ball(E2.point([0.2, -0.1]), 0.7)),
        (E2, Segment(E2.point([0, 0]), E2.point([1, 0]))),
        (H2, Ball(H2.from_spatial([0.3, 0.2]), 0.4)),
    ]
    for space, cset in cases:
        f = objective_fixture(space, "dist2_to_set", cset=cset)
        solver_route = dataclasses.replace(f, closed_form_resolvent=None)
        for _ in range(10):
            x = space.sample_point(rng, 1.0)
            lam = float(rng.uniform(0.2, 4.0))
            got = convex_resolvent(solver_route, lam, x)
            want = f.closed_form_resolvent(lam, x)
            assert space.distance(got, want) <= 1e-7


def test_per_step_paths_build_no_arrays(monkeypatch):
    # after a first call has filled the memos, the rotation, the rotation VI
    # and equilibrium resolvent steps on a ball never read a point's
    # coordinates as an array
    rot = catalog_operator(E2, "rotation", angle=2.0)
    vi = bifunction_fixture(E2, "rotation_vi")
    calls = [
        lambda: rot.apply(E2.point([0.3, -1.2])),
        lambda: lipschitz_resolvent(rot, 1.0, E2.point([0.3, -1.2])),
        lambda: vi.structure.field(E2.point([0.3, -1.2])),
        lambda: vi.eval(E2.point([0.3, -1.2]), E2.point([-0.4, 0.1])),
        lambda: equilibrium_resolvent_operator(vi, 1.0).apply(E2.point([0.6, 0.2])),
    ]
    for space, x in ((E2, E2.point([0.7, -0.4])), (H2, H2.from_spatial([0.7, -0.4]))):
        center = space.point([0.2, 0.1]) if space is E2 else H2.from_spatial([0.2, 0.1])
        K = Ball(center, 0.5)
        # constrained minimization is solved in Euclidean spaces only
        f = (bifunction_fixture(space, "min_quadratic", center=center, cset=K)
             if space is E2 else _projection_bifunction(space, K))
        op = equilibrium_resolvent_operator(f, 1.5)
        calls += [lambda op=op, x=x: op.apply(x),
                  lambda f=f, x=x: equilibrium_resolvent(f, 1.5, x)]
    first = [call() for call in calls]

    def no_arrays(self):
        raise AssertionError("a per-step path built a coordinate array")

    monkeypatch.setattr(SpacePoint, "coords", property(no_arrays))
    again = [call() for call in calls]
    assert len(again) == len(first) == 9
    for a, b in zip(first, again):
        assert (a.xs == b.xs) if hasattr(a, "xs") else (a == b)


# ---------------------------------------------------------------------------
# entry rules: one per resolvent kind, reached by the one-shot solve, the
# operator builder and resolvent_sequence alike
# ---------------------------------------------------------------------------

ROT = catalog_operator(E2, "rotation", angle=1.0)
DOUBLING = OperatorSpec(space=E1, apply=lambda p: E1.point([2.0 * p.xs[0]]),
                        domain=WholeSpace(E1.space_id), lipschitz_const=2.0)
QUARTIC = objective_fixture(E1, "plateau_quartic")  # 8-weakly convex: lam < 1/16
ROT_VI = bifunction_fixture(E2, "rotation_vi")

# kind: (source, one-shot, operator builder, a point)
KINDS = {
    "convex": (QUARTIC, convex_resolvent, resolvents.convex_resolvent_operator, E1.point([3.0])),
    "lipschitz": (ROT, lipschitz_resolvent, resolvents.lipschitz_resolvent_operator,
                  E2.point([1.0, 0.5])),
    "doubling": (DOUBLING, lipschitz_resolvent, resolvents.lipschitz_resolvent_operator,
                 E1.point([1.0])),
    "equilibrium": (ROT_VI, equilibrium_resolvent, equilibrium_resolvent_operator,
                    E2.point([0.5, 0.3])),
}


@pytest.mark.parametrize("kind, lam, message", [
    ("convex", 0.0, "lam=0.0 must exceed 0.0"),
    ("convex", 0.5, "lam=0.5 must be below 1/(2 alpha) = 0.0625"),
    ("convex", 1.0 / 16.0, "lam=0.0625 must be below 1/(2 alpha) = 0.0625"),
    ("convex", math.nan, "lam=nan must be finite"),
    ("lipschitz", -1.0, "lam=-1.0 must exceed 0.0"),
    ("lipschitz", -0.5, "lam=-0.5 must exceed 0.0"),
    ("lipschitz", math.inf, "lam=inf must be finite"),
    ("lipschitz", -math.inf, "lam=-inf must exceed 0.0"),
    ("doubling", 1.0, "lam=1.0 must be below 1/(a - 1) = 1.0"),
    ("doubling", math.inf, "lam=inf must be below 1/(a - 1) = 1.0"),
    ("equilibrium", 0.0, "lam=0.0 must exceed the under-monotonicity modulus theta = 0.0"),
    ("equilibrium", math.inf, "lam=inf must be finite"),
    ("equilibrium", math.nan, "lam=nan must be finite"),
])
def test_a_lambda_outside_its_window_is_refused_by_one_rule(kind, lam, message):
    # the one-shot at entry and the builder when it builds raise the same
    # DomainError, naming lam and the bound it broke; a sequence whose
    # certified bounds hold that lam raises it as a ConfigError
    source, one_shot, build, x = KINDS[kind]
    with pytest.raises(DomainError) as shot:
        one_shot(source, lam, x)
    with pytest.raises(DomainError) as built:
        build(source, lam)
    assert str(shot.value) == str(built.value) == f"resolvent parameter {message}"
    if lam > 0.0 and lam < math.inf:  # a resolvent-class schedule's bounds
        with pytest.raises(ConfigError, match=re.escape(message)):
            resolvent_sequence(source, resolvent_constant(lam))


def test_built_operators_are_valid():
    # each of these was built at the parent, or died on a ZeroDivisionError
    for build in (lambda: resolvents.lipschitz_resolvent_operator(ROT, -1.0),
                  lambda: resolvents.lipschitz_resolvent_operator(ROT, -0.5),
                  lambda: resolvents.convex_resolvent_operator(QUARTIC, 0.5),
                  lambda: equilibrium_resolvent_operator(ROT_VI, 0.0)):
        with pytest.raises(DomainError):
            build()
    assert resolvents.lipschitz_resolvent_operator(ROT, 3.0).sqn_coefficient == 0.75


def _h2_sources():
    K = Ball(H2.base_point(), 1.0)
    vi = Bifunction(space=H2, eval=lambda z, y: 0.0, theta=0.0,
                    structure=VariationalInequality(field=lambda z: (0.0,) * 3, lipschitz=1.0),
                    feasible_set=K)
    g = ObjectiveFunction(space=H2, eval=lambda p: 0.0, gradient=lambda p: (0.0,) * 3,
                          gradient_lipschitz=1.0)
    return vi, dataclasses.replace(vi, structure=Minimization(objective=g))


@pytest.mark.parametrize("case, error, message", [
    ("h2_vi", UnsupportedOperationError,
     "variational-inequality resolvents are solved in Euclidean spaces only"),
    ("h2_constrained_min", UnsupportedOperationError,
     "constrained minimization bifunctions are solved in Euclidean spaces only"),
    ("constrained_min_without_gradient_lipschitz", UnsupportedOperationError,
     "constrained minimization needs gradient and gradient_lipschitz"),
    ("bare_objective", UnsupportedOperationError,
     "objective <anonymous> has neither a closed-form resolvent nor a gradient"),
    ("undeclared_lipschitz", DomainError, "needs a declared Lipschitz constant"),
    # the prox of the objective at 1/lam: 1/lam = 1/8 is outside its window below 1/16
    ("weakly_convex_min", DomainError, "lam=0.125 must be below 1/(2 alpha) = 0.0625"),
    # a theta < 0 lets lam = 0 through the equilibrium window; the prox at
    # 1/0 is refused (at the parent: a ZeroDivisionError)
    ("zero_lam_min", DomainError, "lam=inf must be finite"),
])
def test_a_source_the_resolvent_cannot_use_is_refused_when_built(case, error, message):
    lam = 0.0 if case == "zero_lam_min" else 8.0
    if case.startswith("h2"):
        source, x = _h2_sources()[case != "h2_vi"], H2.from_spatial([0.2, 0.1])
    elif case == "constrained_min_without_gradient_lipschitz":
        f = bifunction_fixture(E2, "min_quadratic", cset=Ball(E2.base_point(), 1.0))
        source = dataclasses.replace(f, structure=Minimization(objective=dataclasses.replace(
            f.structure.objective, gradient_lipschitz=None)))
        x = E2.point([0.5, 0.0])
    elif case == "bare_objective":
        source, x = ObjectiveFunction(space=E1, eval=lambda p: 0.0), E1.point([1.0])
    elif case == "undeclared_lipschitz":
        source = OperatorSpec(space=E1, apply=lambda p: p, domain=WholeSpace(E1.space_id))
        x = E1.point([1.0])
    elif case == "zero_lam_min":
        source = dataclasses.replace(bifunction_fixture(E1, "min_quadratic"), theta=-1.0)
        x = E1.point([3.0])
    else:
        f = bifunction_fixture(E1, "min_quadratic")
        source = dataclasses.replace(f, structure=Minimization(objective=QUARTIC))
        x = E1.point([3.0])
    one_shot, build = {
        ObjectiveFunction: (convex_resolvent, resolvents.convex_resolvent_operator),
        OperatorSpec: (lipschitz_resolvent, resolvents.lipschitz_resolvent_operator),
        Bifunction: (equilibrium_resolvent, equilibrium_resolvent_operator),
    }[type(source)]
    for call in (lambda: one_shot(source, lam, x), lambda: build(source, lam)):
        with pytest.raises(error, match=re.escape(message)):
            call()
    # a varying schedule builds no operator at sequence build; its bounds
    # are checked all the same (a resolvent-class schedule's are positive)
    if lam > 0.0:
        with pytest.raises(ConfigError, match=re.escape(message)):
            resolvent_sequence(source, resolvent_schedule(lambda k: lam + 1.0 / k, lower=lam,
                                                          upper=lam + 1.0))


def test_a_sequence_needs_a_resolvent_source():
    with pytest.raises(ConfigError, match="cannot build resolvents from Schedule"):
        resolvent_sequence(resolvent_constant(1.0), resolvent_constant(1.0))


def test_a_sequence_checks_both_certified_bounds():
    # lower bound inside the window, upper bound outside it
    with pytest.raises(ConfigError, match=re.escape("lam=0.07 must be below 1/(2 alpha)")):
        resolvent_sequence(QUARTIC, resolvent_schedule(lambda k: 0.01 + 0.06 / k, lower=0.01,
                                                       upper=0.07))
    with pytest.raises(ConfigError, match="certified finite upper bound below 1.0"):
        resolvent_sequence(DOUBLING, resolvent_schedule(lambda k: 0.5, lower=0.5))
    lam = 1.0 + 1.0 / 3
    assert resolvent_sequence(ROT, resolvent_schedule(lambda k: 1.0 + 1.0 / k, lower=1.0)
                              ).factory(3).sqn_coefficient == lam / (1.0 + lam)


# ---------------------------------------------------------------------------
# inner-solver failure exits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("space", [E1, E2, H2], ids=lambda s: s.space_id)
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_descent_stops_at_the_first_non_finite_gradient(space, bad):
    calls = []

    def gradient(y):
        calls.append(y)
        return (bad,) + (0.0,) * (len(y.xs) - 1)

    f = dataclasses.replace(objective_fixture(space, "quadratic"), closed_form_resolvent=None,
                            gradient=gradient)
    x = space.from_spatial([1.2, -0.4]) if space is H2 else space.point([1.2, -0.4][:space.dim])
    with pytest.raises(SolverError, match=r"gradient norm is (nan|inf) \(lam = 0.5\)"):
        convex_resolvent(f, 0.5, x)
    assert len(calls) == 1


def test_descent_reports_stalled_gradient_steps():
    # values far above the resolution of the decrease send descent to its
    # gradient-only mode at once; a gradient that doubles at every call then
    # halves the step until it stalls
    calls = []

    def gradient(y):
        calls.append(y)
        return (2.0 ** len(calls),)

    f = ObjectiveFunction(space=E1, eval=lambda p: 1e20 - 1e6 * p.xs[0], gradient=gradient)
    with pytest.raises(SolverError, match=r"gradient steps stalled at \|grad\| = .* \(lam = 1.0\)"):
        convex_resolvent(f, 1.0, E1.point([0.0]))
    assert 60 < len(calls) < 100


def test_descent_reports_a_stalled_armijo_search():
    # a gradient of +1 where the objective falls to the right: every step
    # against it raises the objective, by more than the values' resolution
    f = ObjectiveFunction(space=E1, eval=lambda p: -p.xs[0], gradient=lambda p: (1.0,))
    with pytest.raises(SolverError, match=re.escape(
            "Armijo backtracking stalled; sufficient decrease unattainable "
            "(|grad| = 1.000e+00, lam = 1.0)")):
        convex_resolvent(f, 1.0, E1.point([0.0]))


def test_descent_reports_its_iteration_budget(monkeypatch):
    # the quartic's prox at lam = 0.01 from 3 takes some 50 descent steps
    monkeypatch.setattr(resolvents, "PROX_MAX_ITERS", 5)
    f = dataclasses.replace(QUARTIC, closed_form_resolvent=None)
    with pytest.raises(SolverError, match=re.escape(
            "prox subproblem did not reach |grad| <= 1e-10 within 5 steps (residual ")):
        convex_resolvent(f, 0.01, E1.point([3.0]))


def test_lipschitz_resolvent_reports_divergence():
    # a constant map is 0-Lipschitz; the first step from x to halfway toward
    # its far value is a distance whose square overflows
    far = catalog_operator(E2, "constant", point=E2.point([-1e200, -1e200]))
    with pytest.raises(SolverError, match="resolvent iteration diverged at inner step 1"):
        lipschitz_resolvent(far, 1.0, E2.point([1e200, 1e200]))


def test_lipschitz_resolvent_reports_its_iteration_budget(monkeypatch):
    monkeypatch.setattr(resolvents, "FIXED_POINT_BUDGET", 3)
    with pytest.raises(SolverError, match=re.escape(
            "fixed-point iteration did not contract to 1e-12 within 3 steps (last step ")):
        lipschitz_resolvent(ROT, 1.0, E2.point([1.0, 0.5]))


def _constant_field_vi(c):
    """The VI of the constant field c on the whole plane: 0-Lipschitz."""
    return Bifunction(space=E2, eval=lambda z, y: c[0] * (y.xs[0] - z.xs[0])
                      + c[1] * (y.xs[1] - z.xs[1]), theta=0.0,
                      structure=VariationalInequality(field=lambda z: c, lipschitz=1.0),
                      feasible_set=WholeSpace(E2.space_id))


def test_vi_solver_reports_divergence():
    # step 1/(L + lam) = 1/2 moves x = (1e200, 1e200) to (-1e200, -1e200)
    with pytest.raises(SolverError, match="projected iteration diverged at inner step 1"):
        equilibrium_resolvent(_constant_field_vi((4e200, 4e200)), 1.0,
                              E2.point([1e200, 1e200]))


def test_vi_solver_reports_its_iteration_budget(monkeypatch):
    monkeypatch.setattr(resolvents, "VI_BUDGET", 2)
    with pytest.raises(SolverError, match=re.escape(
            "projected iteration did not reach movement <= 1e-10 within 2 steps")):
        equilibrium_resolvent(ROT_VI, 1.0, E2.point([0.5, 0.3]))


def _assert_solver_error_keeps_the_trace(tr, message):
    assert tr.summary.stop_reason is StopReason.SOLVER_ERROR
    assert tr.summary.error_step > 1
    assert tr.summary.iterations_run == tr.summary.error_step - 1
    assert [s.k for s in tr.steps] == list(range(1, tr.summary.error_step))
    assert re.search(message, tr.summary.error_message)


def test_descent_failure_mid_run_keeps_the_trace():
    # ppa from 8 on |y|^2/2 at lam = 1 halves x; the gradient turns NaN
    # below 1.5, inside the descent of the third step
    q = objective_fixture(E1, "quadratic")
    f = dataclasses.replace(q, closed_form_resolvent=None, gradient=lambda y: (
        y.xs[0] if y.xs[0] >= 1.5 else math.nan,))
    built = build_scheme("ppa", f, {"lambda": resolvent_constant(1.0)})
    tr = built.run(RunConfig(space=E1, start=E1.point([8.0]), max_iterations=50,
                             tolerance=0.0))
    _assert_solver_error_keeps_the_trace(tr, "gradient norm is nan")
    assert tr.summary.error_step == 3


def test_lipschitz_divergence_mid_run_keeps_the_trace():
    # a 1/2-Lipschitz map whose 40th value lies far away
    calls = [0]

    def apply(p):
        calls[0] += 1
        return E2.point([-1e200, -1e200] if calls[0] == 40 else [0.5 * c for c in p.xs])

    T = OperatorSpec(space=E2, apply=apply, domain=WholeSpace(E2.space_id),
                     lipschitz_const=0.5, fixed_point_witness=E2.base_point())
    built = build_scheme("ppa_lipschitz", T, {"lambda": resolvent_constant(1.0)})
    tr = built.run(RunConfig(space=E2, start=E2.point([3.0, -1.0]), max_iterations=100,
                             tolerance=0.0))
    _assert_solver_error_keeps_the_trace(tr, "resolvent iteration diverged at inner step")


def test_vi_divergence_mid_run_keeps_the_trace():
    # the rotation field on the whole plane, whose 200th value lies far away
    calls = [0]

    def field(z):
        calls[0] += 1
        x0, x1 = z.xs
        return (4e200, 4e200) if calls[0] == 200 else (x1, -x0)

    f = Bifunction(space=E2, eval=lambda z, y: z.xs[1] * (y.xs[0] - z.xs[0])
                   - z.xs[0] * (y.xs[1] - z.xs[1]), theta=0.0,
                   structure=VariationalInequality(field=field, lipschitz=1.0),
                   feasible_set=WholeSpace(E2.space_id), equilibrium_witness=E2.base_point())
    built = build_scheme("ppa_equilibrium", f, {"lambda": resolvent_constant(1.0)})
    tr = built.run(RunConfig(space=E2, start=E2.point([0.9, 0.2]), max_iterations=100,
                             tolerance=0.0))
    _assert_solver_error_keeps_the_trace(tr, "projected iteration diverged at inner step")
