import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from hadamard_iter import (
    Ball,
    ConfigError,
    DomainError,
    Euclidean,
    Hyperboloid,
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
    mann_sequence,
    objective_fixture,
    resolvent_constant,
    resolvent_sequence,
    scheme_names,
    vanishing_schedule,
)
from hadamard_iter.errors import HadamardIterError
from hadamard_iter.geometry import SpacePoint
from hadamard_iter.schedules import ScheduleClass, require_class
from hadamard_iter.schemes import RunSummary, TraceStep, _finish, _recorded_steps

E1 = Euclidean(1)
E2 = Euclidean(2)
H2 = Hyperboloid(2)


def const_seq(space, p):
    op = catalog_operator(space, "constant", point=p)
    return OperatorSequence(space=space, factory=lambda k: op)


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


_STEP_FAULTS = {
    # T_5 raises, as a failing inner solver does
    "raises": (lambda x: _raise(HadamardIterError("inner fault")), "inner fault"),
    # T_5 returns a point of another space
    "wrong_space": (lambda x: E2.point([0.0, 0.0]), f"point belongs to space {E2.space_id!r}"),
    # T_5 returns a non-finite point, built past ``point``'s checks
    "non_finite_point": (lambda x: SpacePoint(E1.space_id, (math.nan,)),
                         "non-finite residual at step 5"),
}


def _raise(err):
    raise err


@pytest.mark.parametrize("fault", sorted(_STEP_FAULTS))
@pytest.mark.parametrize("engine", ["sequence", "halpern"])
def test_a_step_fault_ends_both_engines_as_a_solver_error(engine, fault):
    faulty, message = _STEP_FAULTS[fault]

    def factory(k):
        def apply(x):
            return faulty(x) if k == 5 else E1.point([0.5 * x.xs[0]])
        return OperatorSpec(space=E1, apply=apply, domain=WholeSpace(E1.space_id))

    seq = OperatorSequence(space=E1, factory=factory)
    start = E1.point([4.0])
    cfg = RunConfig(space=E1, start=start, anchor=start if engine == "halpern" else None,
                    max_iterations=100, tolerance=0.0, reference=E1.point([0.0]))
    run = (lambda c: iterate_sequence(seq, c)) if engine == "sequence" else (
        lambda c: halpern_iterate(seq, halpern_schedule(), c))
    tr = run(cfg)
    assert tr.summary.stop_reason is StopReason.SOLVER_ERROR
    assert tr.summary.error_step == 5
    assert tr.summary.iterations_run == 4
    assert [s.k for s in tr.steps] == [1, 2, 3, 4]
    assert message in tr.summary.error_message
    # a bad start is still an error of the call, not of a step
    with pytest.raises(DomainError):
        run(dataclasses.replace(cfg, start=E2.point([0.0, 0.0])))


def _checked_points(monkeypatch):
    """The list of points ``check_point`` is called on from now on."""
    checked = []
    real = E2.check_point.__func__

    def record(space, p):
        checked.append(p)
        return real(space, p)

    monkeypatch.setattr(type(E2), "check_point", record)
    return checked


def test_a_plain_step_checks_its_two_points_once(monkeypatch):
    # the residual's public distance checks x_k and T_k x_k; nothing else
    # in the step checks a point
    seq = OperatorSequence(space=E2, factory=lambda k: catalog_operator(E2, "rotation", angle=0.5))
    start, ref = E2.point([1.0, 2.0]), E2.base_point()
    checked = _checked_points(monkeypatch)
    tr = iterate_sequence(seq, RunConfig(space=E2, start=start, max_iterations=40,
                                         tolerance=0.0, reference=ref))
    xs = [s.point for s in tr.steps] + [tr.summary.final_point]  # x_1 .. x_41
    assert len(xs) == 41
    # at entry, then (x_k, T_k x_k = x_{k+1}) at every step, then the
    # summary's target distance
    want = [start, ref] + [p for k in range(40) for p in xs[k:k + 2]] + [xs[-1], ref]
    assert list(map(id, checked)) == list(map(id, want))


def test_an_anchored_step_checks_the_anchor_and_the_operator_output_once(monkeypatch):
    # combine(u, T_k x_k, 1 - a_k) checks its two points; the residual, the
    # movement and the reference distances take the unchecked _distance
    p, u, ref = E2.point([1.0, 0.0]), E2.point([3.0, 1.0]), E2.base_point()
    seq = const_seq(E2, p)
    start = E2.point([1.0, 2.0])
    checked = _checked_points(monkeypatch)
    tr = halpern_iterate(seq, halpern_schedule(), RunConfig(
        space=E2, start=start, anchor=u, max_iterations=40, tolerance=0.0, reference=ref))
    final = tr.summary.final_point
    # at entry, then every step, then the summary's target distance
    assert list(map(id, checked)) == list(map(id, [start, u, ref] + [u, p] * 40 + [final, ref]))


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
    seq = OperatorSequence(space=E2, factory=lambda k: ident)
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


_FIXED_SET = ("strong convergence to the projection of the anchor onto the fixed "
              "set of the base map")
GUARANTEES = {
    "ishikawa": "Delta-convergence of the two-level averaged iteration to a fixed point of "
                "the demiclosed quasi-nonexpansive base map",
    "halpern_ishikawa": _FIXED_SET,
    "mann": "Delta-convergence of the averaged iteration to a fixed point of the "
            "demiclosed quasi-nonexpansive base map",
    "halpern_mann": _FIXED_SET,
    "ppa": "convergence of the proximal point algorithm to a resolvent fixed point "
           "(a minimizer when the objective is pseudo-convex)",
    "halpern_ppa": "strong convergence to the projection of the anchor onto the minimizer "
                   "set of the convex objective",
    "ppa_lipschitz": "Delta-convergence of the resolvent iteration to a fixed point of the "
                     "Lipschitz quasi-nonexpansive map",
    "halpern_ppa_lipschitz": "strong convergence to the projection of the anchor onto the "
                             "fixed set of the Lipschitz map",
    "ppa_equilibrium": "Delta-convergence of the resolvent iteration to an equilibrium point "
                       "of the pseudo-monotone bifunction",
    "halpern_ppa_equilibrium": "strong convergence to the projection of the anchor onto the "
                               "equilibrium set",
}


def _base_wiring(base):
    """A source and the schedules of every role of a base scheme."""
    rot = catalog_operator(E2, "rotation", angle=1.0)
    lam = {"lambda": resolvent_constant(1.0)}
    return {
        "ishikawa": (rot, {"alpha": mann_constant(0.5), "beta": vanishing_schedule()}),
        "mann": (rot, {"alpha": mann_constant(0.5)}),
        "ppa": (objective_fixture(E2, "quadratic"), lam),
        "ppa_lipschitz": (rot, lam),
        "ppa_equilibrium": (bifunction_fixture(E2, "rotation_vi"), lam),
    }[base]


@pytest.mark.parametrize("name", sorted(GUARANTEES))
def test_every_scheme_states_its_guarantee(name):
    # summary.json prints the guarantee: each string is pinned byte for byte
    source, schedules = _base_wiring(name.removeprefix("halpern_"))
    if name.startswith("halpern_"):
        schedules = dict(schedules, anchor=halpern_schedule())
    assert build_scheme(name, source, schedules).guarantee == GUARANTEES[name]


@pytest.mark.parametrize("base", [n for n in sorted(GUARANTEES) if not n.startswith("halpern_")])
def test_halpern_scheme_needs_the_anchor_and_its_base_roles(base):
    source, schedules = _base_wiring(base)
    anchor = halpern_schedule()
    built = build_scheme("halpern_" + base, source, dict(schedules, anchor=anchor))
    assert built.anchor_schedule is anchor
    plain = build_scheme(base, source, schedules)
    assert plain.anchor_schedule is None
    x = E2.point([0.7, -0.4])
    assert built.sequence.factory(3).apply(x).xs == plain.sequence.factory(3).apply(x).xs
    with pytest.raises(ConfigError, match=re.escape(
            f"scheme 'halpern_{base}' needs schedule 'anchor' "
            "(anchor weights with limit 0 and divergent sum)")):
        build_scheme("halpern_" + base, source, schedules)
    with pytest.raises(ConfigError, match=re.escape(f"scheme {base!r} does not use schedules "
                                                    "['anchor']")):
        build_scheme(base, source, dict(schedules, anchor=anchor))
    for role in schedules:  # every base role stays required
        rest = {r: v for r, v in schedules.items() if r != role}
        with pytest.raises(ConfigError, match=f"needs schedule '{role}'"):
            build_scheme("halpern_" + base, source, dict(rest, anchor=anchor))
    with pytest.raises(ConfigError, match="unknown scheme 'halpern_halpern_"):
        build_scheme("halpern_halpern_" + base, source, dict(schedules, anchor=anchor))


def test_build_scheme_valid_wirings():
    rot = catalog_operator(E2, "rotation", angle=1.0)
    b = build_scheme("halpern_ishikawa", rot,
                     {"anchor": halpern_schedule(), "alpha": mann_constant(0.5),
                      "beta": vanishing_schedule()})
    assert b.anchor_schedule is not None

    vi = bifunction_fixture(E2, "rotation_vi")
    b2 = build_scheme("ppa_equilibrium", vi, {"lambda": resolvent_constant(1.0)})
    assert b2.anchor_schedule is None
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


# ---------------------------------------------------------------------------
# the one loop against the two loops it replaced
# ---------------------------------------------------------------------------

class _Recorder:
    """The trace thinning policy as a per-step test, as the loops below had it."""

    def __init__(self, stride):
        self.stride = stride
        self.next_log = 1000

    def want(self, k):
        if self.stride is not None:
            return k == 1 or k % self.stride == 0
        if k <= 1000:
            return True
        if k >= self.next_log:
            self.next_log = max(self.next_log + 1, int(self.next_log * 1.1))
            return True
        return False


@pytest.mark.parametrize("stride", [None, 1, 2, 7, 1000, 4999])
def test_recorded_steps_follow_the_per_step_policy(stride):
    rec = _Recorder(stride)
    want = [k for k in range(1, 100_001) if rec.want(k)]
    got = list(itertools.takewhile(lambda k: k <= 100_000, _recorded_steps(stride)))
    assert got == want


def _ref_iterate_sequence(seq, cfg):
    """The plain sequence loop as it was before the two engines were merged."""
    if cfg.anchor is not None:
        raise ConfigError("anchor point given, but the plain sequence iteration has no anchor")
    space = cfg.space
    space.check_point(cfg.start)
    ref = cfg.reference
    if ref is not None:
        space.check_point(ref)
    rec = _Recorder(cfg.trace_stride)
    steps = []
    x = cfg.start
    k = 1
    while True:
        try:
            w = seq.factory(k).apply(x)
        except HadamardIterError as err:
            return _finish(steps, space, cfg, x, float("nan"),
                           k - 1, StopReason.SOLVER_ERROR, k, str(err))
        res = space.distance(x, w)
        if not math.isfinite(res):
            return _finish(steps, space, cfg, x, res,
                           k - 1, StopReason.SOLVER_ERROR, k,
                           f"non-finite residual at step {k}")
        done = res <= cfg.tolerance or k >= cfg.max_iterations
        if done or rec.want(k):
            if ref is None:
                steps.append(TraceStep(k, x, res, None, None))
            else:
                dx = space.distance(x, ref)
                steps.append(TraceStep(k, x, res, dx, dx - space.distance(w, ref)))
        if res <= cfg.tolerance:
            return _finish(steps, space, cfg, w, res, k,
                           StopReason.CONVERGED)
        if k >= cfg.max_iterations:
            return _finish(steps, space, cfg, w, res, k,
                           StopReason.BUDGET_EXHAUSTED)
        x = w
        k += 1


def _ref_halpern_iterate(seq, anchors, cfg):
    """The Halpern loop as it was before the two engines were merged."""
    require_class(anchors, ScheduleClass.HALPERN_ANCHOR, "anchor")
    if cfg.anchor is None:
        raise ConfigError("Halpern iteration needs an anchor point u")
    space = cfg.space
    space.check_point(cfg.start)
    space.check_point(cfg.anchor)
    u = cfg.anchor
    ref = cfg.reference
    if ref is not None:
        space.check_point(ref)
    rec = _Recorder(cfg.trace_stride)
    steps = []
    x = cfg.start
    k = 1
    while True:
        try:
            w = seq.factory(k).apply(x)
            x_next = space.combine(u, w, 1.0 - anchors(k))
        except HadamardIterError as err:
            return _finish(steps, space, cfg, x, float("nan"),
                           k - 1, StopReason.SOLVER_ERROR, k, str(err))
        res = space.distance(x, w)
        move = space.distance(x, x_next)
        if not (math.isfinite(res) and math.isfinite(move)):
            return _finish(steps, space, cfg, x, res,
                           k - 1, StopReason.SOLVER_ERROR, k,
                           f"non-finite residual at step {k}")
        done = move <= cfg.tolerance or k >= cfg.max_iterations
        if done or rec.want(k):
            if ref is None:
                steps.append(TraceStep(k, x, res, None, None))
            else:
                dx = space.distance(x, ref)
                steps.append(TraceStep(k, x, res, dx, dx - space.distance(x_next, ref)))
        if move <= cfg.tolerance:
            return _finish(steps, space, cfg, x_next, res, k,
                           StopReason.CONVERGED)
        if k >= cfg.max_iterations:
            return _finish(steps, space, cfg, x_next, res, k,
                           StopReason.BUDGET_EXHAUSTED)
        x = x_next
        k += 1


def _map_seq(step):
    """The sequence k -> (x -> E1.point([step(k, x)]))."""
    def factory(k):
        return OperatorSpec(space=E1, apply=lambda x: E1.point([step(k, float(x.coords[0]))]),
                            domain=WholeSpace(E1.space_id))
    return OperatorSequence(space=E1, factory=factory)


def _on_e1(start, anchor):
    """Start, anchor and reference points of an E1 case (reference 1)."""
    return lambda: (E1.point([start]), E1.point([anchor]), E1.point([1.0]))


_BALL = Ball(H2.from_spatial([0.3, 0.2]), 0.4)
_H2_ANCHOR = H2.from_spatial([-0.9, 0.8])


def _h2_halpern_ppa_seq():
    f = objective_fixture(H2, "dist2_to_set", cset=_BALL)
    built = build_scheme("halpern_ppa", f, {"anchor": halpern_schedule(),
                                            "lambda": resolvent_constant(1.0)})
    return built.sequence


# case -> (space, operator sequence, (start, anchor, reference), budget,
#          tolerance, expected stop reason without and with the anchor)
_EQUIVALENCE_CASES = {
    # constant map to 1: the plain run certifies at k = 2, the anchored run
    # (u = 1) reaches 1 at k = 2 and stops on zero movement there
    "converged": (E1, lambda: const_seq(E1, E1.point([1.0])), _on_e1(9.0, 1.0), 50, 1e-12,
                  (StopReason.CONVERGED, StopReason.CONVERGED)),
    # the identity: the residual is 0 at once, but the anchored run keeps
    # moving toward u, so only the movement rule tells the two apart
    "residual_vanishes_first": (E1, lambda: _map_seq(lambda k, x: x), _on_e1(2.0, 1.0), 30,
                                1e-12, (StopReason.CONVERGED, StopReason.BUDGET_EXHAUSTED)),
    # slow contraction past the dense part of the trace
    "budget_exhausted": (E1, lambda: _map_seq(lambda k, x: 0.999 * x + 0.001), _on_e1(9.0, 9.0),
                         1500, 0.0, (StopReason.BUDGET_EXHAUSTED,) * 2),
    # T_50 yields a NaN coordinate, which the space rejects
    "domain_error": (E1, lambda: _map_seq(lambda k, x: float("nan") if k == 50 else 0.5 * x),
                     _on_e1(4.0, 4.0), 100, 0.0, (StopReason.SOLVER_ERROR,) * 2),
    # T_5 jumps to -1.7e308: both points are finite, their distance is not,
    # while the anchored step toward u = 0 and its movement stay finite
    "non_finite_residual": (E1, lambda: _map_seq(lambda k, x: -1.7e308 if k == 5 else 0.9 * x),
                            _on_e1(1.7e308, 0.0), 100, 0.0, (StopReason.SOLVER_ERROR,) * 2),
    # the resolvents of d^2(., ball) / 2 on H2, toward the projection of
    # the anchor: the plain run reaches the ball to rounding, the anchored
    # one moves on until its budget
    "h2_halpern_ppa_ball": (H2, _h2_halpern_ppa_seq,
                            lambda: (H2.from_spatial([1.0, -0.6]), _H2_ANCHOR,
                                     H2.project(_BALL, _H2_ANCHOR)),
                            1500, 0.0, (StopReason.CONVERGED, StopReason.BUDGET_EXHAUSTED)),
    # Mann averages of a slow rotation of the plane, with reference the
    # origin, its fixed point
    "e2_mann_rotation": (E2, lambda: mann_sequence(catalog_operator(E2, "rotation", angle=0.1),
                                                   mann_constant(0.5)),
                         lambda: (E2.point([3.0, 1.0]), E2.point([1.0, 1.0]), E2.base_point()),
                         1500, 0.0, (StopReason.BUDGET_EXHAUSTED,) * 2),
}


def _same(a, b) -> bool:
    if isinstance(a, SpacePoint):
        return a.space_id == b.space_id and np.array_equal(a.coords, b.coords)
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("stride", [None, 7])
@pytest.mark.parametrize("with_reference", [False, True])
@pytest.mark.parametrize("case", sorted(_EQUIVALENCE_CASES))
@pytest.mark.parametrize("engine", ["sequence", "halpern"])
def test_one_loop_equals_the_two_loops_it_replaced(engine, case, with_reference, stride):
    space, make_seq, points, budget, tol, reasons = _EQUIVALENCE_CASES[case]
    start, anchor, reference = points()
    cfg = RunConfig(space=space, start=start, max_iterations=budget, tolerance=tol,
                    reference=reference if with_reference else None, trace_stride=stride)
    if engine == "sequence":
        got = iterate_sequence(make_seq(), cfg)
        want = _ref_iterate_sequence(make_seq(), cfg)
    else:
        cfg = dataclasses.replace(cfg, anchor=anchor)
        got = halpern_iterate(make_seq(), halpern_schedule(), cfg)
        want = _ref_halpern_iterate(make_seq(), halpern_schedule(), cfg)
    assert want.summary.stop_reason is reasons[engine == "halpern"]
    if case == "non_finite_residual":
        assert want.summary.error_message == "non-finite residual at step 5"
    assert len(got.steps) == len(want.steps) > 0
    for g, w in zip(got.steps, want.steps):
        for f in dataclasses.fields(TraceStep):
            assert _same(getattr(g, f.name), getattr(w, f.name)), (g.k, f.name)
    for f in dataclasses.fields(RunSummary):
        assert _same(getattr(got.summary, f.name), getattr(want.summary, f.name)), f.name


@pytest.mark.parametrize("with_reference", [False, True])
@pytest.mark.parametrize("case", sorted(_EQUIVALENCE_CASES))
@pytest.mark.parametrize("engine", ["sequence", "halpern"])
def test_summary_does_not_depend_on_the_trace_stride(engine, case, with_reference):
    # a sweep cell runs at a stride of its budget and reads only the summary
    space, make_seq, points, budget, tol, _ = _EQUIVALENCE_CASES[case]
    start, anchor, reference = points()
    summaries = []
    for stride in (None, 7, budget):
        cfg = RunConfig(space=space, start=start, max_iterations=budget, tolerance=tol,
                        reference=reference if with_reference else None, trace_stride=stride)
        if engine == "sequence":
            summaries.append(iterate_sequence(make_seq(), cfg).summary)
        else:
            cfg = dataclasses.replace(cfg, anchor=anchor)
            summaries.append(halpern_iterate(make_seq(), halpern_schedule(), cfg).summary)
    for other in summaries[1:]:
        for f in dataclasses.fields(RunSummary):
            assert _same(getattr(other, f.name), getattr(summaries[0], f.name)), f.name


@pytest.mark.parametrize("stride", [0, -3, True, 2.0, "4"])
@pytest.mark.parametrize("engine", ["sequence", "halpern"])
def test_bad_trace_stride_is_rejected_at_entry(engine, stride):
    calls = []

    def factory(k):
        calls.append(k)
        return catalog_operator(E1, "constant", point=E1.point([0.0]))

    seq = OperatorSequence(space=E1, factory=factory)
    cfg = RunConfig(space=E1, start=E1.point([3.0]), max_iterations=10, tolerance=0.0,
                    trace_stride=stride)
    with pytest.raises(ConfigError, match="trace_stride"):
        if engine == "sequence":
            iterate_sequence(seq, cfg)
        else:
            halpern_iterate(seq, halpern_schedule(),
                            dataclasses.replace(cfg, anchor=E1.point([1.0])))
    assert calls == []  # rejected before the first step


@pytest.mark.parametrize("setting, value", [
    ("max_iterations", 0), ("max_iterations", -5), ("max_iterations", 2.0),
    ("max_iterations", True), ("tolerance", math.nan), ("tolerance", math.inf),
    ("tolerance", -1.0), ("tolerance", "1e-3"), ("tolerance", True), ("tolerance", False),
])
def test_bad_run_settings_are_rejected_by_iterate_sequence(setting, value):
    calls = []

    def factory(k):
        calls.append(k)
        return catalog_operator(E1, "constant", point=E1.point([0.0]))

    cfg = RunConfig(space=E1, start=E1.point([3.0]), **{setting: value})
    with pytest.raises(ConfigError, match=setting):
        iterate_sequence(OperatorSequence(space=E1, factory=factory), cfg)
    assert calls == []  # rejected before the first step


@pytest.mark.parametrize("tol", [1, np.float64(0.5)])
def test_numeric_tolerances_that_are_no_bool_run_as_their_float(tol):
    seq = OperatorSequence(space=E1, factory=lambda k: catalog_operator(
        E1, "constant", point=E1.point([0.0])))
    runs = [iterate_sequence(seq, RunConfig(space=E1, start=E1.point([3.0]), tolerance=t))
            for t in (tol, float(tol))]
    assert [r.summary.stop_reason for r in runs] == [StopReason.CONVERGED] * 2
    assert runs[0].summary.iterations_run == runs[1].summary.iterations_run


@pytest.mark.parametrize("engine", ["sequence", "halpern"])
def test_sequence_on_another_space_is_rejected_at_entry(engine):
    calls = []

    def factory(k):
        calls.append(k)
        return catalog_operator(E2, "constant", point=E2.point([0.0, 0.0]))

    seq = OperatorSequence(space=E2, factory=factory)
    cfg = RunConfig(space=H2, start=H2.base_point(), max_iterations=10, tolerance=0.0)
    with pytest.raises(ConfigError, match="'euclidean:2', but the run is on 'hyperboloid:2'"):
        if engine == "sequence":
            iterate_sequence(seq, cfg)
        else:
            halpern_iterate(seq, halpern_schedule(),
                            dataclasses.replace(cfg, anchor=H2.base_point()))
    assert calls == []  # rejected before the first step
