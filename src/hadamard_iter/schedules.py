"""Parameter schedules for the iteration schemes.

A schedule is a function k -> value (k >= 1) together with a declared
constraint class. The class encodes which scheme hypotheses the schedule is
allowed to feed:

  HALPERN_ANCHOR    anchor weights with lim = 0 and divergent sum
  MANN_PARAM        averaging weights bounded away from 1 (limsup < 1)
  VANISHING_PARAM   inner Ishikawa weights tending to 0
  RESOLVENT_PARAM   regularization parameters with liminf >= m > 0,
                    optionally capped above (equilibrium window)

Limit behavior cannot be observed from finitely many values, so constructors
that know the analytic form certify it, while a raw Schedule trusts its
declaration and is only spot-checked on the range at k = 1, 10, 1e3, 1e6.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError

SPOT_CHECK_INDICES = (1, 10, 1000, 1_000_000)


class ScheduleClass(enum.Enum):
    HALPERN_ANCHOR = "halpern_anchor"
    MANN_PARAM = "mann_param"
    VANISHING_PARAM = "vanishing_param"
    RESOLVENT_PARAM = "resolvent_param"


@dataclass(frozen=True, eq=False)
class Schedule:
    generator: Callable[[int], float]
    declared_class: ScheduleClass
    lower_bound: float | None = None   # certified inf (resolvent class)
    upper_bound: float | None = None   # certified sup (Mann bound b, lambda-bar)

    def __post_init__(self):
        for k in SPOT_CHECK_INDICES:
            self._check_value(k, self(k))

    def __call__(self, k: int) -> float:
        return float(self.generator(k))

    def _check_value(self, k: int, v: float) -> None:
        cls = self.declared_class
        if cls is ScheduleClass.HALPERN_ANCHOR:
            if not (0.0 < v < 1.0):
                raise ConfigError(f"anchor weight at k={k} is {v}, outside (0, 1)")
        elif cls is ScheduleClass.MANN_PARAM:
            if self.upper_bound is None or not (self.upper_bound < 1.0):
                raise ConfigError(
                    "Mann-class schedule needs a certified bound b < 1 "
                    "(limsup of the weights must stay below 1)"
                )
            if not (0.0 < v <= self.upper_bound + 1e-15):
                raise ConfigError(f"Mann weight at k={k} is {v}, outside (0, {self.upper_bound}]")
        elif cls is ScheduleClass.VANISHING_PARAM:
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"vanishing weight at k={k} is {v}, outside [0, 1]")
        elif cls is ScheduleClass.RESOLVENT_PARAM:
            if self.lower_bound is None or not (self.lower_bound > 0.0):
                raise ConfigError(
                    "resolvent-class schedule needs a certified lower bound m > 0 "
                    f"(liminf of the parameters must be positive), got {self.lower_bound}"
                )
            if v < self.lower_bound - 1e-15:
                raise ConfigError(f"resolvent parameter at k={k} is {v}, below {self.lower_bound}")
            if self.upper_bound is not None and v > self.upper_bound + 1e-15:
                raise ConfigError(f"resolvent parameter at k={k} is {v}, above {self.upper_bound}")


def require_class(schedule: Schedule, cls: ScheduleClass, role: str) -> Schedule:
    if schedule.declared_class is not cls:
        raise ConfigError(
            f"schedule for {role!r} must be of class {cls.value}, "
            f"got {schedule.declared_class.value}"
        )
    return schedule


def inverse_power(scale: float, base: float, power: float) -> float:
    """scale / base ** power, with 0.0 where base ** power overflows a float
    (Python's ``**`` raises there instead of giving inf)."""
    try:
        return scale / base ** power
    except OverflowError:
        return 0.0


def check_power_term(what: str, offset: float, power: float) -> None:
    """Raise ``ConfigError`` unless every weight scale / (k + offset) ** power,
    k >= 1, is a real number that never grows with k: power >= 0,
    k + offset > 0 from k = 1 on, and (1 + offset) ** power, the smallest
    divisor, does not underflow to 0."""
    if not (power >= 0.0):
        raise ConfigError(f"{what} need power >= 0, got {power}")
    base = 1.0 + offset
    if not (base > 0.0):
        raise ConfigError(f"{what} need k + offset > 0 for every k >= 1, "
                          f"i.e. offset > -1; got offset {offset}")
    if base < 1.0 and base ** power == 0.0:
        raise ConfigError(f"{what} are undefined: (1 + offset)^power underflows to 0 "
                          f"(offset {offset}, power {power})")


# -- constructors that certify the analytic form -----------------------------

def halpern_schedule(scale: float = 1.0, offset: float = 1.0, power: float = 1.0) -> Schedule:
    """Anchor weights scale / (k + offset)^power. Requires 0 < power <= 1 so
    that the weights sum to infinity while tending to zero, and offset > -1
    so that every weight is a real number."""
    if not (0.0 < power <= 1.0):
        raise ConfigError(
            f"anchor weights scale/(k+offset)^{power} have a finite sum; "
            "the Halpern hypothesis needs a divergent sum (power <= 1) with limit 0"
        )
    check_power_term("anchor weights scale/(k+offset)^power", offset, power)
    return Schedule(
        lambda k: inverse_power(scale, k + offset, power),
        ScheduleClass.HALPERN_ANCHOR,
    )


def mann_constant(alpha: float) -> Schedule:
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"Mann weight {alpha} outside (0, 1)")
    return Schedule(lambda k: alpha, ScheduleClass.MANN_PARAM, upper_bound=alpha)


def vanishing_schedule(scale: float = 1.0, power: float = 1.0) -> Schedule:
    """Inner weights scale / k^power, tending to 0. The first value may
    equal 1 (e.g. 1/k at k=1), which the composites accept."""
    if not (power > 0.0):
        raise ConfigError(f"vanishing schedule needs power > 0, got {power}")
    return Schedule(lambda k: inverse_power(scale, k, power), ScheduleClass.VANISHING_PARAM)


def resolvent_constant(lam: float) -> Schedule:
    return Schedule(lambda k: lam, ScheduleClass.RESOLVENT_PARAM,
                    lower_bound=lam, upper_bound=lam)


def resolvent_schedule(generator: Callable[[int], float], lower: float,
                       upper: float | None = None) -> Schedule:
    return Schedule(generator, ScheduleClass.RESOLVENT_PARAM,
                    lower_bound=lower, upper_bound=upper)
