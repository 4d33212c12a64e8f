import dataclasses
import math

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
        space.point(K.normal * (K.offset / float(K.normal @ K.normal)))
        if K.kind == "halfspace" else space.base_point())
    if K.kind == "ball":
        radius = K.radius
    else:
        radius = 1.0 + 2.0 * (space.distance(anchor, x) + space.distance(anchor, z))
    rng = np.random.default_rng(271828)
    if isinstance(space, Spider):
        for leg in range(space.num_legs):
            for i in range(1, n_rad + 1):
                pts.append(space.project(K, space.point((leg, radius * i / n_rad))))
        pts.append(space.base_point() if K.kind != "ball"
                   else space.project(K, space.base_point()))
        return pts
    dim = anchor.coords.shape[0] - (1 if isinstance(space, Hyperboloid) else 0)
    for _ in range(n_dir):
        d = rng.normal(size=dim)
        d /= math.sqrt(float(d @ d))
        for i in range(1, n_rad + 1):
            r = radius * i / n_rad
            if isinstance(space, Hyperboloid):
                cand = space.exp_map(anchor, np.concatenate(([0.0], d * r)))
            else:
                cand = space.point(anchor.coords + d * r)
            pts.append(space.project(K, cand))
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


@pytest.mark.parametrize("K", [Ball(E2.point([0.0, 0.0]), 1.0), WholeSpace(E2.space_id)],
                         ids=["ball", "whole space"])
@pytest.mark.parametrize("counts", [(0, 8), (64, 0), (-1, 2)],
                         ids=["no directions", "no radii", "negative directions"])
def test_verification_counts_below_one_raise(K, counts):
    f = _projection_bifunction(E2, K)
    x = E2.point([0.5, 0.3])
    with pytest.raises(DomainError, match="at least 1 direction and 1 radius"):
        equilibrium_resolvent(f, 1.0, x, *counts)
    with pytest.raises(DomainError, match="at least 1 direction and 1 radius"):
        equilibrium_resolvent_operator(f, 1.0, *counts).apply(x)


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


def test_sequence_builds_one_verification_grid_for_a_varying_lambda(monkeypatch):
    # lam_k = 1 + 1/k makes a new operator at every k; the grid depends only
    # on the set and the counts, so the whole run builds it once
    builds = [0]
    build = resolvents._fixed_verification_grid

    def counting_build(*args):
        builds[0] += 1
        return build(*args)

    monkeypatch.setattr(resolvents, "_fixed_verification_grid", counting_build)
    vi = bifunction_fixture(E2, "rotation_vi")
    lam = resolvent_schedule(lambda k: 1.0 + 1.0 / k, lower=1.0, upper=2.0)
    built = build_scheme("halpern_ppa_equilibrium", vi, {"anchor": halpern_schedule(), "lambda": lam})
    cfg = RunConfig(space=E2, start=E2.point([0.6, -0.2]), anchor=E2.point([0.3, 0.5]),
                    max_iterations=300, tolerance=0.0)
    trace = built.run(cfg)
    assert trace.summary.stop_reason is StopReason.BUDGET_EXHAUSTED
    assert trace.summary.iterations_run == 300
    assert builds[0] == 1


def test_bifunction_sampled_axioms():
    rng = np.random.default_rng(5)
    vi = bifunction_fixture(E2, "rotation_vi")
    for _ in range(200):
        x = E2.sample_in(vi.feasible_set, rng)
        y = E2.sample_in(vi.feasible_set, rng)
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
