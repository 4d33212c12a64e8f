import dataclasses
import math

import numpy as np
import pytest

from hadamard_iter import (
    ConfigError,
    DomainError,
    Euclidean,
    Hyperboloid,
    OperatorSequence,
    RunConfig,
    Segment,
    SpacePoint,
    Spider,
    bifunction_fixture,
    catalog_operator,
    check_fejer,
    check_halpern_target,
    check_nested_fixed_sets,
    check_quasi_firm,
    check_space_axioms,
    check_sqn_inequality,
    convex_resolvent_operator,
    equilibrium_resolvent_operator,
    halpern_iterate,
    halpern_schedule,
    ishikawa_operator,
    iterate_sequence,
    lipschitz_resolvent_operator,
    mann_operator,
    objective_fixture,
    resolvent_constant,
    resolvent_sequence,
)
from hadamard_iter.diagnostics import SLACK, _Collector

E1 = Euclidean(1)
E2 = Euclidean(2)
H2 = Hyperboloid(2)
S3 = Spider(3)


class ManhattanPlane(Euclidean):
    """Negative-control space: the L1 plane is geodesic but not CAT(0)."""

    def _distance(self, x, y):
        return float(np.abs(x.coords - y.coords).sum())


# Wrong spaces for check_space_axioms. Each overrides a scalar primitive, so
# the checker runs the looped kernels over it.

class MaxNormPlane(Euclidean):
    """The L-infinity plane: geodesic, not CAT(0)."""

    def _distance(self, x, y):
        return max(abs(a - b) for a, b in zip(x.xs, y.xs))


class SquaredDistancePlane(Euclidean):
    """|x - y|^2 as the distance: no triangle inequality."""

    def _distance(self, x, y):
        return super()._distance(x, y) ** 2


class WobblyPlane(Euclidean):
    """d + 0.5 sin^2(3d): symmetric and zero on the diagonal, not a metric."""

    def _distance(self, x, y):
        d = super()._distance(x, y)
        return d + 0.5 * math.sin(3.0 * d) ** 2


class BentPlane(Euclidean):
    """combine leaves the segment: (1 - t) x + t y + t (1 - t) e2."""

    def _combine(self, x, y, t, d=None):
        (x0, x1), (y0, y1) = x.xs, y.xs
        return SpacePoint(self.space_id,
                          ((1 - t) * x0 + t * y0, (1 - t) * x1 + t * y1 + t * (1 - t)))


class QuadraticTimePlane(Euclidean):
    """combine runs the segment at parameter t^2, not at constant speed."""

    def _combine(self, x, y, t, d=None):
        return super()._combine(x, y, t * t)


def _on_sphere(xs):
    # the azimuthal equidistant chart of the unit sphere at its north pole
    r = math.hypot(*xs)
    if r == 0.0:
        return (0.0, 0.0, 1.0)
    k = math.sin(r) / r
    return (k * xs[0], k * xs[1], math.cos(r))


class SphereCap(Euclidean):
    """The round unit sphere in a chart at its north pole: curvature +1."""

    def _distance(self, x, y):
        (u0, u1, u2), (w0, w1, w2) = _on_sphere(x.xs), _on_sphere(y.xs)
        cross = math.hypot(u1 * w2 - u2 * w1, u2 * w0 - u0 * w2, u0 * w1 - u1 * w0)
        return math.atan2(cross, u0 * w0 + u1 * w1 + u2 * w2)

    def _combine(self, x, y, t, d=None):
        d = self._distance(x, y)
        if d == 0.0:
            return x
        a, b = math.sin((1 - t) * d) / math.sin(d), math.sin(t * d) / math.sin(d)
        z0, z1, z2 = (a * p + b * q for p, q in zip(_on_sphere(x.xs), _on_sphere(y.xs)))
        rho = math.hypot(z0, z1)
        if rho == 0.0:
            return self.base_point()
        r = math.atan2(rho, z2) / rho
        return SpacePoint(self.space_id, (r * z0, r * z1))


class HalvedHyperboloid(Hyperboloid):
    """H2 with every distance halved: the hyperbolic plane of curvature -4,
    a Hadamard space, so a positive control."""

    def _distance(self, x, y):
        return 0.5 * super()._distance(x, y)


# ---------------------------------------------------------------------------
# fejer
# ---------------------------------------------------------------------------

def _ppa_trace():
    q = objective_fixture(E2, "quadratic", center=[1.0, 0.0])
    seq = resolvent_sequence(q, resolvent_constant(1.0))
    cfg = RunConfig(space=E2, start=E2.point([6, 3]), max_iterations=60, tolerance=1e-12)
    return iterate_sequence(seq, cfg), q.known_argmin


def test_fejer_passes_on_ppa():
    trace, p = _ppa_trace()
    rep = check_fejer(E2, trace, p)
    assert rep.passed and rep.max_violation <= 0.0


def test_fejer_constant_trace_zero_gaps():
    p = E2.point([1, 1])
    op = catalog_operator(E2, "constant", point=p)
    seq = OperatorSequence(space=E2, factory=lambda k: op)
    tr = iterate_sequence(seq, RunConfig(space=E2, start=p, max_iterations=5, tolerance=1e-15))
    rep = check_fejer(E2, tr, p)
    assert rep.passed


def test_fejer_negative_control():
    trace, p = _ppa_trace()
    # reverse the steps: distances to the argmin now increase
    fake = dataclasses.replace(trace, steps=list(reversed(trace.steps)))
    rep = check_fejer(E2, fake, p)
    assert not rep.passed
    assert rep.max_violation > 0.0
    assert rep.violations[0].lhs > rep.violations[0].rhs


# ---------------------------------------------------------------------------
# quasi-firm
# ---------------------------------------------------------------------------

def test_quasi_firm_euclidean_quadratic():
    q = objective_fixture(E2, "quadratic")
    rep = check_quasi_firm(q, 1.0, q.known_argmin, samples=500, seed=0)
    assert rep.passed and rep.samples_tested == 500


def test_quasi_firm_hyperboloid_quadratic():
    # resolvent is the geodesic point toward the center at parameter
    # lam/(1+lam); verified against the combine oracle inside the fixture
    q = objective_fixture(H2, "quadratic", center=H2.from_spatial([0.3, -0.1]))
    rep = check_quasi_firm(q, 1.0, q.known_argmin, samples=300, seed=1, scale=1.0)
    assert rep.passed


def test_quasi_firm_witness_equals_sample_degenerate():
    q = objective_fixture(E1, "quadratic")
    rep = check_quasi_firm(q, 2.0, q.known_argmin, samples=10, seed=2, scale=0.0)
    assert rep.passed  # both sides 0 at x = witness


def test_quasi_firm_negative_control():
    bad = objective_fixture(E2, "expanding_quadratic")
    rep = check_quasi_firm(bad, 1.0, bad.known_argmin, samples=100, seed=3)
    assert not rep.passed


def test_quasi_firm_lambda_guard():
    quart = objective_fixture(E1, "plateau_quartic")
    with pytest.raises(DomainError):
        check_quasi_firm(quart, 0.5, E1.point([0.0]), samples=10)


@pytest.mark.parametrize("lam", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("samples", [0, 3])
def test_quasi_firm_applies_the_prox_entry_rule_before_sampling(lam, samples):
    # the prox's own rule, as the CLI's quasi_firm entry applies it: no report
    # for a lambda the resolvent refuses, even when no sample is drawn
    q = objective_fixture(E2, "quadratic")
    with pytest.raises(DomainError, match="resolvent parameter"):
        check_quasi_firm(q, lam, samples=samples)


def test_quasi_firm_witness_defaults_to_a_point_of_the_argmin_set():
    # dist2_to_set's argmin is a set: the default witness is a point of it
    f = objective_fixture(E2, "dist2_to_set", cset=Segment(E2.point([0.0, 0.0]),
                                                           E2.point([1.0, 0.0])))
    rep = check_quasi_firm(f, 1.0, samples=50, seed=4)
    assert rep.passed and rep.samples_tested == 50
    with pytest.raises(ConfigError, match="needs a witness"):
        check_quasi_firm(dataclasses.replace(f, known_argmin=None), 1.0, samples=5)


@pytest.mark.parametrize("samples, seed", [(-4, 0), (5, -1)])
def test_sampling_checkers_refuse_a_negative_count_or_seed(samples, seed):
    q = objective_fixture(E2, "quadratic")
    checks = (lambda: check_space_axioms(E2, samples=samples, seed=seed),
              lambda: check_quasi_firm(q, 1.0, samples=samples, seed=seed),
              lambda: check_sqn_inequality(convex_resolvent_operator(q, 1.0), samples=samples,
                                           seed=seed))
    for check in checks:
        with pytest.raises(DomainError, match="samples and seed must be >= 0"):
            check()


@pytest.mark.parametrize("space", [E2, H2, S3], ids=["E2", "H2", "S3"])
def test_sampling_checkers_refuse_a_scale_outside_zero_to_inf(space):
    q = objective_fixture(space, "quadratic")

    def checks(scale):
        return (lambda: check_space_axioms(space, samples=5, seed=1, scale=scale),
                lambda: check_quasi_firm(q, 1.0, samples=5, seed=1, scale=scale),
                lambda: check_sqn_inequality(convex_resolvent_operator(q, 1.0), samples=5,
                                             seed=1, scale=scale))

    for scale in (-1.0, -1e-300, math.inf, -math.inf, math.nan):
        for check in checks(scale):
            with pytest.raises(DomainError, match="scale must be finite and >= 0"):
                check()
    for check in checks(0.0):  # every sample at the base point
        assert check().passed


# ---------------------------------------------------------------------------
# sqn inequality, three variants
# ---------------------------------------------------------------------------

def test_sqn_ishikawa_variant():
    rot = catalog_operator(E2, "rotation", angle=2.1)
    op = ishikawa_operator(rot, 0.5, 0.25)
    rep = check_sqn_inequality(op, samples=500, seed=4)
    assert rep.passed


def test_sqn_lipschitz_variant():
    refl = catalog_operator(E1, "scaled_reflection", factor=1.0)
    op = lipschitz_resolvent_operator(refl, 1.0)
    rep = check_sqn_inequality(op, samples=500, seed=5)
    assert rep.passed


def test_sqn_equilibrium_variant():
    vi = bifunction_fixture(E2, "rotation_vi")
    op = equilibrium_resolvent_operator(vi, 1.0)
    rep = check_sqn_inequality(op, samples=200, seed=6)
    assert rep.passed


def test_sqn_witness_degenerate_both_sides_zero():
    rot = catalog_operator(E2, "rotation", angle=2.1)
    op = ishikawa_operator(rot, 0.5, 0.1)
    rep = check_sqn_inequality(op, samples=5, seed=7, scale=0.0)
    assert rep.passed and rep.max_violation <= 0.0


def test_sqn_negative_control_wrong_witness():
    refl = catalog_operator(E1, "scaled_reflection", factor=1.0)
    op = lipschitz_resolvent_operator(refl, 1.0)
    rep = check_sqn_inequality(op, witness=E1.point([1.0]), samples=200, seed=8)
    assert not rep.passed


def test_sqn_unknown_tag_rejected():
    rot = catalog_operator(E2, "rotation", angle=1.0)
    with pytest.raises(ConfigError):
        check_sqn_inequality(rot, samples=5)


@pytest.mark.parametrize("a", [0.25, 0.5, 0.8])
def test_averaged_composites_state_their_sqn_coefficient(a):
    rot = catalog_operator(E2, "rotation", angle=1.0)
    assert mann_operator(rot, a).sqn_coefficient == a / (1.0 - a)
    assert ishikawa_operator(rot, a, 0.3).sqn_coefficient == a / (1.0 - a)


@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
def test_resolvents_state_their_sqn_coefficient(lam):
    refl = catalog_operator(E1, "scaled_reflection", factor=0.5)
    assert lipschitz_resolvent_operator(refl, lam).sqn_coefficient == lam / (1.0 + lam)
    q = objective_fixture(E1, "quadratic")
    assert convex_resolvent_operator(q, lam).sqn_coefficient == 1.0
    vi = bifunction_fixture(E2, "rotation_vi")
    assert equilibrium_resolvent_operator(vi, lam).sqn_coefficient == 1.0


def test_catalogue_operators_state_no_sqn_coefficient():
    ops = [catalog_operator(E2, "rotation", angle=1.0),
           catalog_operator(E2, "scaled_reflection", factor=0.5),
           catalog_operator(E2, "constant", point=E2.point([1.0, 0.0])),
           catalog_operator(E2, "projection", cset=Segment(E2.point([0, 0]), E2.point([1, 0]))),
           catalog_operator(H2, "hyperbolic_projection",
                            cset=Segment(H2.base_point(), H2.from_spatial([1.0, 0.0])))]
    assert [op.sqn_coefficient for op in ops] == [None] * 5


@pytest.mark.parametrize("make_op", [
    pytest.param(lambda: mann_operator(catalog_operator(E2, "rotation", angle=2.0), 0.3),
                 id="mann-rotation"),
    pytest.param(lambda: lipschitz_resolvent_operator(
        catalog_operator(E1, "scaled_reflection", factor=1.0), 2.0), id="lipschitz-reflection"),
])
def test_sqn_check_is_tight_at_the_stated_coefficient(make_op):
    # both maps meet their inequality with equality at the witness 0, so the
    # check passes at the stated coefficient and fails at 0.9 times it
    op = make_op()
    assert check_sqn_inequality(op, samples=100, seed=9).passed
    smaller = dataclasses.replace(op, sqn_coefficient=0.9 * op.sqn_coefficient)
    rep = check_sqn_inequality(smaller, samples=100, seed=9)
    assert len(rep.violations) >= 90


# ---------------------------------------------------------------------------
# nested fixed sets
# ---------------------------------------------------------------------------

def test_nested_quadratic_argmin():
    q = objective_fixture(E1, "quadratic")
    rep = check_nested_fixed_sets(q, 1.0, 0.5, [q.known_argmin])
    assert rep.passed


def test_nested_quartic_nonminimizer():
    quart = objective_fixture(E1, "plateau_quartic")
    rep = check_nested_fixed_sets(quart, 0.01, 0.005, [E1.point([2.0]), E1.point([0.0])])
    assert rep.passed


def test_nested_precondition_rejects_nonfixed_candidate():
    quart = objective_fixture(E1, "plateau_quartic")
    with pytest.raises(DomainError):
        check_nested_fixed_sets(quart, 0.01, 0.005, [E1.point([1.0])])


def test_nested_negative_control_fake_resolvent():
    # fixed at lam >= 1/2, pulls toward 0 below: nesting fails by design
    q = objective_fixture(E1, "quadratic")
    fake = dataclasses.replace(
        q, gradient=None,
        closed_form_resolvent=lambda lam, x: (
            x if lam >= 0.5 else E1.point(0.5 * x.coords)
        ),
    )
    rep = check_nested_fixed_sets(fake, 1.0, 0.1, [E1.point([1.0])])
    assert not rep.passed


def test_nested_parameter_order():
    q = objective_fixture(E1, "quadratic")
    with pytest.raises(DomainError):
        check_nested_fixed_sets(q, 0.5, 0.5, [q.known_argmin])


# ---------------------------------------------------------------------------
# space axioms
# ---------------------------------------------------------------------------

def test_space_axioms_pass_all_model_spaces():
    # the halved hyperboloid is a Hadamard space too (curvature -4)
    for space in (E2, H2, S3, HalvedHyperboloid(2)):
        rep = check_space_axioms(space, samples=400, seed=9)
        assert rep.passed, (space.space_id, rep.max_violation)
        assert rep.max_violation <= 0.0


def test_space_axioms_negative_control_manhattan():
    rep = check_space_axioms(ManhattanPlane(2), samples=200, seed=10)
    assert not rep.passed


def _failing_rows(rep):
    return sorted({v.descriptor.split()[0] for v in rep.violations})


@pytest.mark.parametrize("space, scale, rows", [
    pytest.param(ManhattanPlane(2), 2.0, ["cat0", "cauchy_schwarz"], id="manhattan"),
    pytest.param(MaxNormPlane(2), 2.0, ["cat0", "cauchy_schwarz"], id="max-norm"),
    pytest.param(SquaredDistancePlane(2), 2.0, ["cat0", "cauchy_schwarz", "geodesic"],
                 id="squared-distance"),
    pytest.param(WobblyPlane(2), 2.0, ["cat0", "cauchy_schwarz", "geodesic"], id="non-metric"),
    pytest.param(BentPlane(2), 2.0, ["cat0", "geodesic"], id="bent-combine"),
    pytest.param(QuadraticTimePlane(2), 2.0, ["cat0", "geodesic"], id="t-squared-geodesic"),
    pytest.param(SphereCap(2), 0.5, ["cat0", "cauchy_schwarz"], id="sphere-cap"),
])
def test_space_axioms_fail_every_mutant_space(space, scale, rows):
    # every row can fail: each wrong space is caught, by the rows pinned here
    rep = check_space_axioms(space, samples=2000, seed=3, scale=scale)
    assert not rep.passed
    assert _failing_rows(rep) == rows


def test_space_axioms_pass_the_plane_at_scale_1e3():
    # the pairing identities once failed here through rounding alone
    assert check_space_axioms(E2, samples=2000, seed=3, scale=1e3).passed


def test_space_axioms_refuse_hyperboloid_draws_past_the_radius():
    with pytest.raises(DomainError, match="beyond distance 100 of the apex"):
        check_space_axioms(H2, samples=2000, seed=3, scale=1e3)


class GapPlane(Euclidean):
    """Distances are NaN between points with a positive first coordinate."""

    def _distance(self, x, y):
        if x.coords[0] > 0.0 and y.coords[0] > 0.0:
            return float("nan")
        return super()._distance(x, y)


def _scalar_space_axioms(space, samples, seed, scale=2.0):
    """check_space_axioms on the scalar methods, one sample and one check at
    a time, on the same draws: the reference for the batched checker."""
    rng = np.random.default_rng(seed)
    blocks = space.sample_many(rng, 7 * samples, scale).reshape(7, samples, -1)
    ts, ss = rng.uniform(size=(2, samples))
    dist = space.distance
    col = _Collector("space_axioms")
    for i in range(samples):
        x, y, z, a, b, c, d = (space.point(blk[i]) for blk in blocks)
        t, s = float(ts[i]), float(ss[i])
        m = space.combine(x, y, t)
        dmz, dxz, dyz, dxy = dist(m, z), dist(x, z), dist(y, z), dist(x, y)
        col.check(f"cat0 {i}", dmz * dmz,
                  (1 - t) * dxz * dxz + t * dyz * dyz - t * (1 - t) * dxy * dxy,
                  SLACK["cat0_comparison"])
        dab, dcd = dist(a, b), dist(c, d)
        col.check(f"cauchy_schwarz {i}", space.quasilin(a, b, c, d),
                  math.sqrt(dab * dab * (dcd * dcd)), SLACK["cauchy_schwarz"])
        col.check(f"geodesic {i}",
                  abs(dist(m, space.combine(x, y, s)) - abs(t - s) * dxy), 0.0,
                  SLACK["geodesic_consistency"])
    return col.report(samples)


def _as_tuple(rep):
    return (rep.check_name, rep.samples_tested, repr(rep.max_violation),
            [(v.descriptor, repr(v.lhs), repr(v.rhs), v.slack) for v in rep.violations])


@pytest.mark.parametrize("space", [ManhattanPlane(2), GapPlane(2)], ids=["manhattan", "gaps"])
def test_space_axioms_batched_equals_scalar_reference(space):
    # these spaces run the looped kernels, so every number is the scalar one
    got = check_space_axioms(space, samples=60, seed=14)
    assert not got.passed
    assert _as_tuple(got) == _as_tuple(_scalar_space_axioms(space, 60, 14))


def test_space_axioms_nan_margins_are_violations():
    rep = check_space_axioms(GapPlane(2), samples=60, seed=14)
    nan_rows = [v for v in rep.violations if math.isnan(v.lhs - v.rhs)]
    assert nan_rows and math.isfinite(rep.max_violation)
    assert rep.samples_tested == 60


@pytest.mark.parametrize("space", [E2, H2, S3], ids=lambda s: s.space_id)
def test_space_axioms_vectorized_close_to_scalar_reference(space):
    got = check_space_axioms(space, samples=300, seed=15)
    want = _scalar_space_axioms(space, 300, 15)
    assert got.passed and want.passed
    # kernel rounding moves the worst margin, by far less than the 1e-9 slack
    assert abs(got.max_violation - want.max_violation) <= 1e-10


def test_space_axioms_zero_samples():
    rep = check_space_axioms(H2, samples=0, seed=1)
    assert rep.passed and rep.samples_tested == 0 and rep.max_violation == 0.0
    with pytest.raises(DomainError):
        check_space_axioms(H2, samples=-1)


def test_reports_are_deterministic():
    a = check_space_axioms(E2, samples=100, seed=11)
    b = check_space_axioms(E2, samples=100, seed=11)
    assert a.to_dict() == b.to_dict()
    c = check_quasi_firm(objective_fixture(E2, "quadratic"), 1.0,
                         E2.point([0, 0]), samples=50, seed=12)
    d = check_quasi_firm(objective_fixture(E2, "quadratic"), 1.0,
                         E2.point([0, 0]), samples=50, seed=12)
    assert c.to_dict() == d.to_dict()


# ---------------------------------------------------------------------------
# halpern target
# ---------------------------------------------------------------------------

def _halpern_const_zero_trace(steps=400):
    zero = E1.point([0.0])
    op = catalog_operator(E1, "constant", point=zero)
    seq = OperatorSequence(space=E1, factory=lambda k: op)
    cfg = RunConfig(space=E1, start=E1.point([1.0]), anchor=E1.point([1.0]),
                    max_iterations=steps, tolerance=0.0)
    return halpern_iterate(seq, halpern_schedule(), cfg)


def test_halpern_target_constant_operator():
    tr = _halpern_const_zero_trace()
    rep = check_halpern_target(E1, tr, E1.point([1.0]),
                               Segment(E1.point([0.0]), E1.point([0.0])), 5e-3)
    assert rep.passed


def test_halpern_target_negative_control():
    tr = _halpern_const_zero_trace(steps=50)
    wrong = Segment(E1.point([2.0]), E1.point([2.0]))
    rep = check_halpern_target(E1, tr, E1.point([1.0]), wrong, 5e-3)
    assert not rep.passed


def test_report_invariants():
    rep = check_space_axioms(E2, samples=50, seed=13)
    assert rep.passed == (len(rep.violations) == 0)
    d = rep.to_dict()
    assert d["passed"] and d["samples_tested"] == 50
