import dataclasses

import numpy as np
import pytest

from hadamard_iter import (
    Ball,
    ConfigError,
    DomainError,
    Euclidean,
    OperatorSequence,
    OperatorSpec,
    RunConfig,
    SolverError,
    StopReason,
    WholeSpace,
    bifunction_fixture,
    build_scheme,
    catalog_operator,
    halpern_iterate,
    halpern_schedule,
    iterate_sequence,
    mann_constant,
    objective_fixture,
    resolvent_constant,
    resolvent_sequence,
    scheme_names,
    vanishing_schedule,
)

E1 = Euclidean(1)
E2 = Euclidean(2)


def const_seq(space, p):
    op = catalog_operator(space, "constant", point=p)
    return OperatorSequence(space=space, factory=lambda k: op,
                            common_fixed_point_witness=p)


# ---------------------------------------------------------------------------
# sequence engine
# ---------------------------------------------------------------------------

def test_constant_operator_converges_in_one_step():
    p = E2.point([1, 2])
    tr = iterate_sequence(const_seq(E2, p), RunConfig(space=E2, start=E2.point([9, 9]),
                                                      max_iterations=10, tolerance=1e-12))
    assert tr.summary.stop_reason is StopReason.CONVERGED
    assert tr.summary.iterations_run == 2  # step 1 jumps to p, step 2 certifies
    assert E2.distance(tr.summary.final_point, p) == 0.0


def test_mann_reflection_is_zero_map_run():
    refl = catalog_operator(E1, "scaled_reflection", factor=1.0)
    built = build_scheme("mann", refl, {"alpha": mann_constant(0.5)})
    tr = built.run(RunConfig(space=E1, start=E1.point([8]), max_iterations=50,
                             tolerance=1e-12))
    assert tr.steps[0].residual == pytest.approx(8.0)  # d(8, 0)
    assert tr.summary.final_point.coords[0] == 0.0
    assert tr.summary.stop_reason is StopReason.CONVERGED


def test_ppa_quadratic_halves_each_step():
    q = objective_fixture(E1, "quadratic")
    seq = resolvent_sequence(q, resolvent_constant(1.0))
    cfg = RunConfig(space=E1, start=E1.point([8]), max_iterations=6, tolerance=0.0,
                    reference=E1.point([0]))
    tr = iterate_sequence(seq, cfg)
    got = [float(s.point.coords[0]) for s in tr.steps]
    assert got == [8.0, 4.0, 2.0, 1.0, 0.5, 0.25]
    assert tr.summary.stop_reason is StopReason.BUDGET_EXHAUSTED
    assert float(tr.summary.final_point.coords[0]) == 0.125
    # residual halves too; the fejer gap equals the step length here
    assert tr.steps[0].residual == pytest.approx(4.0)
    assert tr.steps[0].fejer_gap == pytest.approx(4.0)


def test_fejer_monotone_toward_witness():
    rng = np.random.default_rng(0)
    rot = catalog_operator(E2, "rotation", angle=2 * np.pi / 3)
    built = build_scheme("ishikawa", rot,
                         {"alpha": mann_constant(0.5), "beta": vanishing_schedule()})
    cfg = RunConfig(space=E2, start=E2.point([3, 1]), max_iterations=200,
                    tolerance=1e-14, reference=E2.point([0, 0]))
    tr = built.run(cfg)
    dists = [s.dist_to_reference for s in tr.steps]
    assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))
    assert all(s.fejer_gap >= -1e-9 for s in tr.steps)


def test_sequence_rejects_anchor():
    with pytest.raises(ConfigError):
        iterate_sequence(const_seq(E1, E1.point([0])),
                         RunConfig(space=E1, start=E1.point([1]), anchor=E1.point([0])))


def test_solver_error_truncates_trace():
    def factory(k):
        def apply(x):
            if k >= 3:
                raise SolverError("inner blowup")
            return E1.point(0.5 * x.coords)
        return OperatorSpec(space=E1, apply=apply, domain=WholeSpace(E1.space_id))

    seq = OperatorSequence(space=E1, factory=factory)
    tr = iterate_sequence(seq, RunConfig(space=E1, start=E1.point([4]),
                                         max_iterations=10, tolerance=1e-15))
    assert tr.summary.stop_reason is StopReason.SOLVER_ERROR
    assert tr.summary.error_step == 3
    assert tr.summary.iterations_run == 2
    assert "blowup" in tr.summary.error_message


@pytest.mark.parametrize("engine", ["sequence", "halpern"])
def test_domain_error_mid_run_keeps_the_trace(engine):
    # an operator that yields a non-finite point at step 50
    def factory(k):
        def apply(x):
            return E1.point([float("nan") if k == 50 else 0.5 * float(x.coords[0])])
        return OperatorSpec(space=E1, apply=apply, domain=WholeSpace(E1.space_id))

    seq = OperatorSequence(space=E1, factory=factory)
    start = E1.point([4.0])
    cfg = RunConfig(space=E1, start=start, anchor=start if engine == "halpern" else None,
                    max_iterations=100, tolerance=0.0)
    run = (lambda c: iterate_sequence(seq, c)) if engine == "sequence" else (
        lambda c: halpern_iterate(seq, halpern_schedule(), c))
    tr = run(cfg)
    assert tr.summary.stop_reason is StopReason.SOLVER_ERROR
    assert tr.summary.error_step == 50
    assert tr.summary.iterations_run == 49
    assert [s.k for s in tr.steps] == list(range(1, 50))
    assert "finite" in tr.summary.error_message
    # a bad start is still an error of the call, not of a step
    with pytest.raises(DomainError):
        run(dataclasses.replace(cfg, start=E2.point([0.0, 0.0])))


# ---------------------------------------------------------------------------
# Halpern engine
# ---------------------------------------------------------------------------

def test_halpern_requires_anchor():
    with pytest.raises(ConfigError):
        halpern_iterate(const_seq(E1, E1.point([0])), halpern_schedule(),
                        RunConfig(space=E1, start=E1.point([1])))


def test_halpern_constant_zero_recursion():
    # T == 0, u = 1, a_k = 1/(k+1): x_{k+1} = a_k, so x_k = 1/k
    tr = halpern_iterate(const_seq(E1, E1.point([0])), halpern_schedule(),
                         RunConfig(space=E1, start=E1.point([1]), anchor=E1.point([1]),
                                   max_iterations=99, tolerance=0.0))
    for s in tr.steps:
        assert float(s.point.coords[0]) == pytest.approx(1.0 / s.k, abs=1e-15)
    assert float(tr.summary.final_point.coords[0]) == pytest.approx(1.0 / 100.0)


def test_halpern_anchored_at_fixed_start_stays_put():
    # start = u and T u = u: every iterate equals u
    p = E2.point([0.5, 0.5])
    ident = catalog_operator(E2, "projection", cset=Ball(p, 1e6))
    seq = OperatorSequence(space=E2, factory=lambda k: ident,
                           common_fixed_point_witness=p)
    tr = halpern_iterate(seq, halpern_schedule(),
                         RunConfig(space=E2, start=p, anchor=p, max_iterations=30,
                                   tolerance=1e-15))
    assert tr.summary.stop_reason is StopReason.CONVERGED
    assert E2.distance(tr.summary.final_point, p) <= 1e-12


def test_halpern_boundedness_and_one_step_inequality():
    # rerun the recursion by hand and check the one-step contraction bound
    # d^2(x_{k+1}, p) <= (1-a) d^2(x_k, p) + a d^2(u, p) - a(1-a) d^2(u, T x_k)
    rot = catalog_operator(E2, "rotation", angle=2 * np.pi / 3)
    built = build_scheme("halpern_mann", rot,
                         {"anchor": halpern_schedule(), "alpha": mann_constant(0.5)})
    u = E2.point([1, 1])
    p = E2.point([0, 0])
    x = E2.point([2, -1])
    bound = max(E2.distance(p, u), E2.distance(p, x))
    for k in range(1, 400):
        T = built.sequence.factory(k)
        w = T.apply(x)
        a = built.anchor_schedule(k)
        x_next = E2.combine(u, w, 1.0 - a)
        lhs = E2.distance(x_next, p) ** 2
        rhs = ((1 - a) * E2.distance(x, p) ** 2 + a * E2.distance(u, p) ** 2
               - a * (1 - a) * E2.distance(u, w) ** 2)
        assert lhs <= rhs + 1e-7
        assert E2.distance(x_next, p) <= bound + 1e-8
        x = x_next


def test_determinism_identical_configs():
    q = objective_fixture(E2, "quadratic", center=[1.0, 0.0])

    def run():
        seq = resolvent_sequence(q, resolvent_constant(1.0))
        cfg = RunConfig(space=E2, start=E2.point([5, 5]), anchor=E2.point([5, 5]),
                        max_iterations=500, tolerance=1e-9, reference=E2.point([1, 0]))
        return halpern_iterate(seq, halpern_schedule(), cfg)

    a, b = run(), run()
    assert len(a.steps) == len(b.steps)
    for sa, sb in zip(a.steps, b.steps):
        assert sa.k == sb.k
        assert np.array_equal(sa.point.coords, sb.point.coords)
        assert sa.residual == sb.residual
    assert np.array_equal(a.summary.final_point.coords, b.summary.final_point.coords)


# ---------------------------------------------------------------------------
# trace recording
# ---------------------------------------------------------------------------

def test_trace_stride_thinning_policy():
    q = objective_fixture(E1, "quadratic")
    seq = resolvent_sequence(q, resolvent_constant(0.001))  # slow contraction
    cfg = RunConfig(space=E1, start=E1.point([1e6]), max_iterations=3000, tolerance=0.0)
    tr = iterate_sequence(seq, cfg)
    ks = [s.k for s in tr.steps]
    assert ks[:1000] == list(range(1, 1001))  # dense up to 1000
    assert len(ks) < 1030  # then logarithmic
    assert ks[-1] == 3000  # final step always recorded


def test_trace_explicit_stride():
    q = objective_fixture(E1, "quadratic")
    seq = resolvent_sequence(q, resolvent_constant(1.0))
    cfg = RunConfig(space=E1, start=E1.point([8]), max_iterations=10, tolerance=0.0,
                    trace_stride=4)
    tr = iterate_sequence(seq, cfg)
    assert [s.k for s in tr.steps] == [1, 4, 8, 10]


def test_residuals_are_nonnegative_and_indexed_from_one():
    q = objective_fixture(E1, "quadratic")
    seq = resolvent_sequence(q, resolvent_constant(1.0))
    tr = iterate_sequence(seq, RunConfig(space=E1, start=E1.point([3]),
                                         max_iterations=20, tolerance=1e-12))
    assert tr.steps[0].k == 1
    assert all(s.residual >= 0.0 for s in tr.steps)
    assert [s.k for s in tr.steps] == list(range(1, len(tr.steps) + 1))


# ---------------------------------------------------------------------------
# named scheme wiring
# ---------------------------------------------------------------------------

def test_scheme_names_cover_all_variants():
    assert set(scheme_names()) == {
        "ishikawa", "halpern_ishikawa", "mann", "halpern_mann",
        "ppa", "halpern_ppa", "ppa_lipschitz", "halpern_ppa_lipschitz",
        "ppa_equilibrium", "halpern_ppa_equilibrium",
    }


def test_build_scheme_valid_wirings():
    rot = catalog_operator(E2, "rotation", angle=1.0)
    b = build_scheme("halpern_ishikawa", rot,
                     {"anchor": halpern_schedule(), "alpha": mann_constant(0.5),
                      "beta": vanishing_schedule()})
    assert b.engine == "halpern" and b.anchor_schedule is not None

    vi = bifunction_fixture(E2, "rotation_vi")
    b2 = build_scheme("ppa_equilibrium", vi, {"lambda": resolvent_constant(1.0)})
    assert b2.engine == "sequence"
    assert "equilibrium" in b2.guarantee


def test_build_scheme_rejections():
    rot = catalog_operator(E2, "rotation", angle=1.0)
    q = objective_fixture(E2, "quadratic")
    with pytest.raises(ConfigError):
        build_scheme("warp", rot, {})
    with pytest.raises(ConfigError):  # missing beta
        build_scheme("ishikawa", rot, {"alpha": mann_constant(0.5)})
    with pytest.raises(ConfigError):  # wrong source type
        build_scheme("ppa", rot, {"lambda": resolvent_constant(1.0)})
    with pytest.raises(ConfigError):  # wrong schedule class in role
        build_scheme("mann", rot, {"alpha": vanishing_schedule()})
    with pytest.raises(ConfigError):  # extra schedule
        build_scheme("ppa", q, {"lambda": resolvent_constant(1.0),
                                "alpha": mann_constant(0.5)})


def test_residual_decay_for_sqn_sequence():
    # converged run: late residuals sit below 10x the tolerance
    rot = catalog_operator(E2, "rotation", angle=2 * np.pi / 3)
    built = build_scheme("ishikawa", rot,
                         {"alpha": mann_constant(0.5), "beta": vanishing_schedule()})
    cfg = RunConfig(space=E2, start=E2.point([3, 1]), max_iterations=10000,
                    tolerance=1e-10)
    tr = built.run(cfg)
    assert tr.summary.stop_reason is StopReason.CONVERGED
    tail = tr.steps[-max(1, len(tr.steps) // 10):]
    assert min(s.residual for s in tail) <= 1e-9
