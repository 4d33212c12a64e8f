import math

import pytest

from hadamard_iter import (
    ConfigError,
    Schedule,
    ScheduleClass,
    halpern_schedule,
    mann_constant,
    resolvent_constant,
    resolvent_schedule,
    vanishing_schedule,
)
from hadamard_iter.schedules import check_power_term, inverse_power


def test_halpern_default_is_one_over_k_plus_one():
    s = halpern_schedule()
    assert s(1) == 0.5
    assert s(9) == 0.1


def test_halpern_rejects_summable_weights():
    with pytest.raises(ConfigError):
        halpern_schedule(power=2.0)  # finite sum
    with pytest.raises(ConfigError):
        halpern_schedule(power=0.0)


def test_mann_constant_range():
    assert mann_constant(0.5)(123) == 0.5
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(ConfigError):
            mann_constant(bad)


def test_mann_class_requires_bound_below_one():
    # limsup = 1: a schedule increasing toward 1 cannot be certified
    with pytest.raises(ConfigError):
        Schedule(lambda k: 1.0 - 1.0 / k, ScheduleClass.MANN_PARAM, upper_bound=1.0)
    with pytest.raises(ConfigError):
        Schedule(lambda k: 1.0 - 1.0 / k, ScheduleClass.MANN_PARAM)


def test_vanishing_inverse_k_starts_at_one():
    s = vanishing_schedule()
    assert s(1) == 1.0 and s(4) == 0.25


def test_resolvent_constant():
    s = resolvent_constant(0.01)
    assert s.lower_bound == s.upper_bound == 0.01
    with pytest.raises(ConfigError):
        resolvent_constant(0.0)


@pytest.mark.parametrize("build,message", [
    (lambda: halpern_schedule(scale=2.0), "anchor weight at k=1 is 1.0, outside (0, 1)"),
    (lambda: vanishing_schedule(scale=1.5), "vanishing weight at k=1 is 1.5, outside [0, 1]"),
    (lambda: vanishing_schedule(power=0.0), "vanishing schedule needs power > 0, got 0.0"),
    (lambda: resolvent_constant(0.0), "resolvent-class schedule needs a certified lower bound "
     "m > 0 (liminf of the parameters must be positive), got 0.0"),
    (lambda: resolvent_constant(math.nan), "resolvent-class schedule needs a certified lower "
     "bound m > 0 (liminf of the parameters must be positive), got nan"),
    (lambda: Schedule(lambda k: 2.0, ScheduleClass.RESOLVENT_PARAM, lower_bound=1.0,
                      upper_bound=1.5), "resolvent parameter at k=1 is 2.0, above 1.5"),
], ids=["halpern start", "vanishing scale", "vanishing power", "resolvent zero",
        "resolvent nan", "above the certified bound"])
def test_each_range_is_refused_by_the_class_rule(build, message):
    # the constructors leave the range of the values to Schedule's one rule
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == message


def test_resolvent_schedule_needs_positive_floor():
    with pytest.raises(ConfigError):
        resolvent_schedule(lambda k: 1.0 / k, lower=0.0)
    s = resolvent_schedule(lambda k: 1.0 + 1.0 / k, lower=1.0, upper=2.0)
    assert s(2) == 1.5


def test_spot_check_catches_range_violation():
    with pytest.raises(ConfigError):
        Schedule(lambda k: 1.5, ScheduleClass.HALPERN_ANCHOR)
    with pytest.raises(ConfigError):
        # dips below the certified floor by k = 1000
        Schedule(lambda k: 2.0 / k, ScheduleClass.RESOLVENT_PARAM, lower_bound=0.5)


def test_inverse_power_reads_an_overflowing_power_as_zero():
    assert inverse_power(1.0, 1e6, 300.0) == 0.0
    assert inverse_power(1.0, 10**6, 10**3) == 0.0  # an int power overflows on conversion
    for scale, base, power in [(0.5, 3.0, 1.5), (2.0, 7, 0.3), (1.0, 1e6, 51.0)]:
        assert inverse_power(scale, base, power) == scale / base ** power
    s = vanishing_schedule(1.0, 300.0)  # spot-checked at k = 1e6
    assert s(1) == 1.0 and s(10**6) == 0.0


@pytest.mark.parametrize("offset, power", [
    (-3.0, 0.5),   # (1 - 3) ** 0.5 is complex
    (-1.0, 1.0),   # the weight at k = 1 divides by 0
    (-2.0, 1.0),   # a negative weight at k = 1
    (float("nan"), 1.0),
])
def test_halpern_rejects_an_offset_that_leaves_the_reals(offset, power):
    with pytest.raises(ConfigError, match="offset > -1"):
        halpern_schedule(scale=0.1, offset=offset, power=power)


def test_halpern_accepts_an_offset_above_minus_one():
    s = halpern_schedule(scale=0.25, offset=-0.5, power=1.0)
    assert s(1) == 0.5
    assert s(3) == 0.1


@pytest.mark.parametrize("power", [0.0, -1.0, float("nan")])
def test_vanishing_rejects_a_power_that_does_not_vanish(power):
    with pytest.raises(ConfigError, match="power > 0"):
        vanishing_schedule(power=power)


def test_power_term_rejects_an_underflowing_first_power():
    # 0.001 ** 2000 underflows to 0, so scale / it is undefined
    with pytest.raises(ConfigError, match="underflows to 0"):
        check_power_term("weights", -0.999, 2000.0)
    check_power_term("weights", -0.999, 100.0)  # 1e-300: small, still positive
    check_power_term("weights", 1.0, 2000.0)  # overflows: the weights read as 0
