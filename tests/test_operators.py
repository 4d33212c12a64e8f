import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hadamard_iter import (
    Ball,
    ConfigError,
    DomainError,
    Euclidean,
    Hyperboloid,
    Segment,
    Spider,
    catalog_operator,
    ishikawa_operator,
    ishikawa_sequence,
    mann_constant,
    mann_operator,
    mann_sequence,
    vanishing_schedule,
)

E1 = Euclidean(1)
E2 = Euclidean(2)
H2 = Hyperboloid(2)
S3 = Spider(3)


def reflection(space=E1):
    return catalog_operator(space, "scaled_reflection", factor=1.0)


def test_mann_of_reflection_is_zero_map():
    # (1 - 1/2) x + (1/2)(-x) = 0
    m = mann_operator(reflection(), 0.5)
    for v in (-3.0, 0.0, 8.0):
        assert m.apply(E1.point([v])).coords[0] == pytest.approx(0.0, abs=1e-15)


def test_mann_preserves_witness_and_identity():
    ident = catalog_operator(E2, "projection", cset=Ball(E2.point([0, 0]), 1e9))
    m = mann_operator(ident, 0.3)
    x = E2.point([0.5, -0.2])
    assert np.allclose(m.apply(x).coords, x.coords)
    p = m.fixed_point_witness
    assert E2.distance(m.apply(p), p) <= 1e-12


def test_mann_alpha_range():
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(DomainError, match=rf"^alpha={bad} outside \(0, 1\)$"):
            mann_operator(reflection(), bad)


def test_ishikawa_direct_evaluation():
    # alpha = beta = 1/2 on x -> -x: inner point 0, T(0) = 0, result x/2
    s = ishikawa_operator(reflection(), 0.5, 0.5)
    assert s.apply(E1.point([4])).coords[0] == pytest.approx(2.0)


def test_ishikawa_beta_zero_equals_mann_exactly():
    # the Mann map is the Ishikawa composite at beta = 0, bit for bit
    rng = np.random.default_rng(0)
    for T in (catalog_operator(E2, "rotation", angle=1.0),
              catalog_operator(H2, "hyperbolic_projection", cset=Ball(H2.base_point(), 0.5)),
              catalog_operator(S3, "projection", cset=Segment(S3.point((0, 1)), S3.point((1, 2))))):
        for _ in range(50):
            a = float(rng.uniform(0.05, 0.95))
            x = T.space.sample_point(rng, 3.0)
            ish, mann = ishikawa_operator(T, a, 0.0), mann_operator(T, a)
            assert ish.apply(x).xs == mann.apply(x).xs
            assert ish.sqn_coefficient == mann.sqn_coefficient == a / (1.0 - a)
            assert (ish.tag, mann.tag) == ("ishikawa", "mann")


def test_ishikawa_parameter_ranges():
    with pytest.raises(DomainError):
        ishikawa_operator(reflection(), 0.5, -0.1)
    with pytest.raises(DomainError):
        ishikawa_operator(reflection(), 0.5, 1.1)
    # beta = 1 is the closed endpoint: inner point is T x itself, and the
    # reflection is an involution, so the composite is the identity
    s = ishikawa_operator(reflection(), 0.5, 1.0)
    assert s.apply(E1.point([2])).coords[0] == pytest.approx(2.0)


def test_ishikawa_sequence_hand_value():
    # k = 3, alpha = 1/2, beta_k = 1/k, T = -x: T_3(1) = 1/3
    seq = ishikawa_sequence(reflection(), mann_constant(0.5), vanishing_schedule())
    assert seq.factory(3).apply(E1.point([1])).coords[0] == pytest.approx(1.0 / 3.0)


def test_ishikawa_sequence_schedule_classes():
    with pytest.raises(ConfigError):
        ishikawa_sequence(reflection(), vanishing_schedule(), vanishing_schedule())
    with pytest.raises(ConfigError):
        ishikawa_sequence(reflection(), mann_constant(0.5), mann_constant(0.5))


def test_requires_witness():
    bare = catalog_operator(E1, "scaled_reflection", factor=0.5)
    bare = type(bare)(space=bare.space, apply=bare.apply, domain=bare.domain,
                      quasi_nonexpansive=True, fixed_point_witness=None)
    with pytest.raises(DomainError, match="^mann_operator needs a quasi-nonexpansive operator "
                                          "with a fixed-point witness$"):
        mann_operator(bare, 0.5)


@given(alpha=st.floats(0.05, 0.95), beta=st.floats(0.0, 1.0),
       x0=st.floats(-30, 30), x1=st.floats(-30, 30))
@settings(max_examples=200, deadline=None)
def test_residual_bound_for_averaged_composites(alpha, beta, x0, x1):
    # ((1-a)/a) d^2(x, Sx) <= d^2(x, p) - d^2(Sx, p) with witness p = 0
    rot = catalog_operator(E2, "rotation", angle=2.4)
    s = ishikawa_operator(rot, alpha, beta)
    x = E2.point([x0, x1])
    p = E2.point([0, 0])
    sx = s.apply(x)
    lhs = ((1 - alpha) / alpha) * E2.distance(x, sx) ** 2
    rhs = E2.distance(x, p) ** 2 - E2.distance(sx, p) ** 2
    assert lhs <= rhs + 1e-8


def test_quasi_nonexpansive_closure_sampled():
    rng = np.random.default_rng(1)
    rot = catalog_operator(E2, "rotation", angle=2 * np.pi / 3)
    p = rot.fixed_point_witness
    for _ in range(100):
        a, b = rng.uniform(0.05, 0.95), rng.uniform(0.0, 1.0)
        s = ishikawa_operator(rot, float(a), float(b))
        x = E2.sample_point(rng, 3.0)
        assert E2.distance(s.apply(x), p) <= E2.distance(x, p) + 1e-8


def test_fixed_set_convexity_probe():
    # projection onto a segment fixes both endpoints and every point between
    seg = Segment(E2.point([0, 0]), E2.point([2, 1]))
    proj = catalog_operator(E2, "projection", cset=seg)
    for t in np.linspace(0, 1, 7):
        z = E2.combine(seg.a, seg.b, float(t))
        assert E2.distance(proj.apply(z), z) <= 1e-8


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_projection():
    op = catalog_operator(E2, "projection", cset=Ball(E2.point([0, 0]), 1.0))
    assert np.allclose(op.apply(E2.point([2, 0])).coords, [1, 0])
    assert op.quasi_nonexpansive and op.fixed_point_witness is not None


def test_catalog_rotation():
    op = catalog_operator(E2, "rotation", angle=np.pi / 2)
    out = op.apply(E2.point([1, 0]))
    assert np.allclose(out.coords, [0, 1], atol=1e-15)
    assert E2.distance(out, E2.point([0, 0])) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        catalog_operator(E1, "rotation", angle=1.0)


def test_rotation_is_within_an_ulp_of_the_matrix_product():
    # the float formula (c a - s b, s a + c b) against R @ x: where numpy's
    # product fuses a multiply-add the two part in the last bit, by at most
    # 1 ulp of |c a| + |s b|, the scale of the entry before cancellation
    rng = np.random.default_rng(15)
    for _ in range(2000):
        angle = float(rng.uniform(-7.0, 7.0))
        x = rng.normal(size=2) * float(rng.choice([1e-3, 1.0, 1e3]))
        c, s = math.cos(angle), math.sin(angle)
        want = (np.array([[c, -s], [s, c]]) @ x).tolist()
        got = catalog_operator(E2, "rotation", angle=angle).apply(E2.point(x)).xs
        a, b = x.tolist()
        for g, w, scale in zip(got, want, (abs(c * a) + abs(s * b), abs(s * a) + abs(c * b))):
            assert type(g) is float and abs(g - w) <= math.ulp(scale)


def test_catalog_constant():
    p = E2.point([1, 2])
    op = catalog_operator(E2, "constant", point=p)
    assert op.apply(E2.point([-5, 9])) is p
    assert op.fixed_point_witness is p


def test_catalog_scaled_reflection_range():
    with pytest.raises(ConfigError):
        catalog_operator(E1, "scaled_reflection", factor=1.5)
    op = catalog_operator(E1, "scaled_reflection", factor=0.25)
    assert op.apply(E1.point([4])).coords[0] == -1.0
    assert op.lipschitz_const == 0.25


def test_catalog_hyperbolic_projection():
    ball = Ball(H2.base_point(), 0.5)
    op = catalog_operator(H2, "hyperbolic_projection", cset=ball)
    far = H2.from_spatial([2.0, 0.0])
    out = op.apply(far)
    assert H2.distance(out, H2.base_point()) == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(ConfigError):
        catalog_operator(E2, "hyperbolic_projection", cset=Ball(E2.point([0, 0]), 1.0))


def test_catalog_unknown_name():
    with pytest.raises(ConfigError):
        catalog_operator(E2, "teleport")


def test_mann_sequence_factory():
    seq = mann_sequence(reflection(), mann_constant(0.5))
    assert seq.factory(5).apply(E1.point([6])).coords[0] == pytest.approx(0.0)
    assert seq.factory(5).fixed_point_witness is not None
