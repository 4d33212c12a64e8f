"""Checkers that turn the convergence theory's inequalities into reports.

Every checker samples a universally quantified inequality, so a passing
report certifies the stated sample count, never the full claim. Reports are
deterministic given the seed. Slack constants are centralized below; the
hyperboloid loses roughly two digits over chained geodesic computations,
which sets the looser 1e-7/1e-8 values.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .errors import ConfigError, DomainError
from .geometry import ConvexSubset, ModelSpace, SpacePoint
from .operators import OperatorSpec
from .resolvents import ObjectiveFunction, _argmin_witness, _convex_entry, convex_resolvent
from .schemes import IterationTrace

if TYPE_CHECKING:  # annotations only: numpy is imported where an array is built
    import numpy as np

SLACK = {
    "fejer": 1e-9,
    "quasi_firm": 1e-7,
    "sqn": 1e-7,
    "nested_fixed_sets": 1e-7,
    "cat0_comparison": 1e-8,
    "cauchy_schwarz": 1e-8,
    "geodesic_consistency": 1e-9,
    "halpern_bound": 1e-8,
}


@dataclass(frozen=True, eq=False)
class Violation:
    descriptor: str
    lhs: float
    rhs: float
    slack: float


@dataclass(frozen=True, eq=False)
class CheckReport:
    check_name: str
    samples_tested: int
    violations: list[Violation]
    max_violation: float  # worst lhs - rhs - slack over all samples; <= 0 iff passed

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


class _Collector:
    def __init__(self, name: str):
        self.name = name
        self.samples = 0
        self.violations: list[Violation] = []
        self.worst = -math.inf

    def check(self, descriptor: str, lhs: float, rhs: float, slack: float) -> None:
        self.samples += 1
        margin = lhs - rhs - slack
        if margin > self.worst:
            self.worst = margin
        if margin > 0.0 or not math.isfinite(margin):
            self.violations.append(Violation(descriptor, lhs, rhs, slack))

    def report(self, samples: int | None = None) -> CheckReport:
        return CheckReport(
            check_name=self.name,
            samples_tested=self.samples if samples is None else samples,
            violations=self.violations,
            max_violation=self.worst if self.samples else 0.0,
        )


def _sampling_entry(samples: int, seed: int, scale: float) -> None:
    """A sampling checker's rule: a negative sample count or seed, or a
    sampling scale outside [0, inf), raises ``DomainError``."""
    if samples < 0 or seed < 0:
        raise DomainError(f"samples and seed must be >= 0, got {samples} and {seed}")
    if not (0.0 <= scale < math.inf):
        raise DomainError(f"scale must be finite and >= 0, got {scale}")


def _sampler(samples: int, seed: int, scale: float) -> np.random.Generator:
    """The generator of a sampling checker, under ``_sampling_entry``."""
    _sampling_entry(samples, seed, scale)
    import numpy as np
    return np.random.default_rng(seed)


def _nested_entry(f: ObjectiveFunction, lam: float, mu: float) -> None:
    """``check_nested_fixed_sets``' rule: 0 < mu < lam, and lam (so mu too)
    passes the prox's entry rule for ``f``."""
    if not 0.0 < mu < lam:
        raise DomainError(f"need 0 < mu < lam, got mu={mu}, lam={lam}")
    _convex_entry(f, lam)


def check_fejer(space: ModelSpace, trace: IterationTrace, p: SpacePoint) -> CheckReport:
    """Distances to p along the trace must be nonincreasing (Fejer
    monotonicity with respect to a common fixed point)."""
    space.check_point(p)
    if not trace.steps:
        raise DomainError("empty trace")
    col = _Collector("fejer")
    pts = [s.point for s in trace.steps] + [trace.summary.final_point]
    ks = [s.k for s in trace.steps] + [trace.summary.iterations_run + 1]
    prev = space.distance(pts[0], p)
    for i in range(1, len(pts)):
        cur = space.distance(pts[i], p)
        col.check(f"k={ks[i - 1]} -> k={ks[i]}", cur, prev, SLACK["fejer"])
        prev = cur
    return col.report()


def check_quasi_firm(
    f: ObjectiveFunction,
    lam: float,
    witness: SpacePoint | None = None,
    samples: int = 500,
    seed: int = 0,
    scale: float = 2.0,
) -> CheckReport:
    """d^2(J x, w) <= <(J x) w, x w> at an argmin witness w, the quasi-firm
    inequality of the prox operator. The witness defaults to the one the
    resolvent operator of ``f`` declares: its known argmin, or a point of
    its known argmin set."""
    if witness is None:
        witness = _argmin_witness(f)
    if witness is None:
        raise ConfigError("check_quasi_firm needs a witness or an objective with known argmin")
    space = f.space
    space.check_point(witness)
    rng = _sampler(samples, seed, scale)
    col = _Collector("quasi_firm")
    for i in range(samples):
        x = space.sample_point(rng, scale)
        jx = convex_resolvent(f, lam, x)
        d = space.distance(jx, witness)
        col.check(f"sample {i}", d * d, space.quasilin(jx, witness, x, witness),
                  SLACK["quasi_firm"])
    return col.report()


def check_sqn_inequality(
    op: OperatorSpec,
    witness: SpacePoint | None = None,
    samples: int = 500,
    seed: int = 0,
    scale: float = 2.0,
) -> CheckReport:
    """The strong quasi-nonexpansiveness the operator's construction
    guarantees, d^2(x, Tx) <= c (d^2(x,p) - d^2(Tx,p)) with
    c = ``op.sqn_coefficient``: a/(1-a) for the mann/ishikawa composites at
    weight a, lam/(1+lam) for the Lipschitz resolvent and 1 for the convex
    and equilibrium resolvents.
    """
    p = witness if witness is not None else op.fixed_point_witness
    if p is None:
        raise ConfigError("check_sqn_inequality needs a fixed-point witness")
    space = op.space
    space.check_point(p)
    c = op.sqn_coefficient
    if c is None:
        raise ConfigError(f"no residual inequality is defined for operators tagged {op.tag!r}")
    rng = _sampler(samples, seed, scale)
    col = _Collector(f"sqn_inequality[{op.tag}]")
    for i in range(samples):
        x = space.project(op.domain, space.sample_point(rng, scale))
        sx = op.apply(x)
        dxs = space.distance(x, sx)
        dxp = space.distance(x, p)
        dsp = space.distance(sx, p)
        col.check(f"sample {i}", dxs * dxs, c * (dxp * dxp - dsp * dsp), SLACK["sqn"])
    return col.report()


def check_nested_fixed_sets(
    f: ObjectiveFunction,
    lam: float,
    mu: float,
    candidates: list[SpacePoint],
) -> CheckReport:
    """Fixed points of the prox at parameter lam stay fixed at any smaller
    parameter mu. Candidates must actually be fixed at lam (checked)."""
    _nested_entry(f, lam, mu)
    space = f.space
    col = _Collector("nested_fixed_sets")
    for i, p in enumerate(candidates):
        r = space.distance(convex_resolvent(f, lam, p), p)
        if r > 1e-10:
            raise DomainError(
                f"candidate {i} is not a fixed point at lam={lam} (residual {r:.3e})"
            )
        col.check(f"candidate {i}", space.distance(convex_resolvent(f, mu, p), p),
                  0.0, SLACK["nested_fixed_sets"])
    return col.report()


def check_space_axioms(
    space: ModelSpace,
    samples: int = 1000,
    seed: int = 0,
    scale: float = 2.0,
) -> CheckReport:
    """The geometry invariants: the CAT(0) comparison inequality (``cat0``),
    Cauchy-Schwarz for the quasi-linearization pairing (``cauchy_schwarz``)
    and geodesic consistency (``geodesic``), each on fresh random tuples.

    Runs on the space's array kernels: all points of the report are drawn
    in one batch, so a report for ``samples=N`` is not a prefix of the one
    for ``2N`` at the same seed."""
    import numpy as np
    rng = _sampler(samples, seed, scale)
    block = space.sample_many(rng, 7 * samples, scale)
    x, y, z, a, b, c, d = block.reshape(7, samples, block.shape[1])
    t, s = rng.uniform(size=(2, samples))
    dist = space.distance_many

    m = space.combine_many(x, y, t)
    dmz, dxz, dyz, dxy = dist(m, z), dist(x, z), dist(y, z), dist(x, y)
    # squared distances among a, b, c, d: the pairing <ab, cd> and |ab|^2 |cd|^2
    ab, cd, ad, bc, ac, bd = (v * v for v in (dist(a, b), dist(c, d), dist(a, d),
                                              dist(b, c), dist(a, c), dist(b, d)))
    checks = (  # label, lhs, rhs, slack; lhs - rhs - slack <= 0 must hold
        ("cat0", dmz * dmz,
         (1 - t) * dxz * dxz + t * dyz * dyz - t * (1 - t) * dxy * dxy,
         SLACK["cat0_comparison"]),
        ("cauchy_schwarz", 0.5 * (ad + bc - ac - bd), np.sqrt(ab * cd),
         SLACK["cauchy_schwarz"]),
        ("geodesic", np.abs(dist(m, space.combine_many(x, y, s)) - np.abs(t - s) * dxy),
         np.zeros(samples), SLACK["geodesic_consistency"]),
    )
    return _batched_report("space_axioms", samples, checks)


def _batched_report(name: str, samples: int, checks) -> CheckReport:
    """A report from per-sample check vectors, the same as a _Collector fed
    sample by sample, check by check."""
    import numpy as np
    labels = [label for label, _, _, _ in checks]
    lhs = np.stack([lhs for _, lhs, _, _ in checks], axis=1)
    rhs = np.stack([rhs for _, _, rhs, _ in checks], axis=1)
    slack = np.array([slack for _, _, _, slack in checks])
    margin = lhs - rhs - slack
    failing = np.argwhere((margin > 0.0) | ~np.isfinite(margin))  # row-major: by sample
    violations = [Violation(f"{labels[j]} {i}", float(lhs[i, j]), float(rhs[i, j]),
                            float(slack[j])) for i, j in failing]
    known = margin[~np.isnan(margin)]
    worst = float(known.max()) if known.size else -math.inf
    return CheckReport(check_name=name, samples_tested=samples, violations=violations,
                       max_violation=worst if samples else 0.0)


def check_halpern_target(
    space: ModelSpace,
    trace: IterationTrace,
    u: SpacePoint,
    fixed_set: ConvexSubset,
    tolerance: float,
) -> CheckReport:
    """The run must end within ``tolerance`` of the projection of the anchor
    onto the fixed set, and stay inside the a-priori bound
    max(d(x*, u), d(x*, x_1)) along the way."""
    space.check_point(u)
    if not trace.steps:
        raise DomainError("empty trace")
    target = space.project(fixed_set, u)
    col = _Collector("halpern_target")
    col.check("final distance to projection",
              space.distance(trace.summary.final_point, target), 0.0, tolerance)
    bound = max(space.distance(target, u), space.distance(target, trace.steps[0].point))
    for s in trace.steps:
        col.check(f"boundedness k={s.k}", space.distance(s.point, target), bound,
                  SLACK["halpern_bound"])
    return col.report()
