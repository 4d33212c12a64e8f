"""Fixed-point iteration schemes for sequences of strongly quasi-nonexpansive
mappings on Hadamard model spaces, with resolvent-based proximal schemes and
a diagnostics suite for the underlying inequalities.

``import hadamard_iter`` loads the engine modules; ``config`` and
``diagnostics`` load when a name of theirs is first read from the package,
and ``hadamard_iter.cli`` imports both."""

from .errors import (
    ConfigError,
    DomainError,
    HadamardIterError,
    SolverError,
    UnsupportedOperationError,
)
from .geometry import (
    Ball,
    ConvexSubset,
    Euclidean,
    Halfspace,
    Hyperboloid,
    ModelSpace,
    Segment,
    SpacePoint,
    Spider,
    WholeSpace,
    canonical_point,
)
from .operators import (
    OperatorSequence,
    OperatorSpec,
    catalog_operator,
    ishikawa_operator,
    ishikawa_sequence,
    mann_operator,
    mann_sequence,
)
from .resolvents import (
    Bifunction,
    CustomSolver,
    Minimization,
    ObjectiveFunction,
    VariationalInequality,
    convex_resolvent,
    convex_resolvent_operator,
    equilibrium_resolvent,
    equilibrium_resolvent_operator,
    lipschitz_resolvent,
    lipschitz_resolvent_detailed,
    lipschitz_resolvent_operator,
    resolvent_sequence,
)
from .fixtures import bifunction_fixture, objective_fixture
from .schedules import (
    Schedule,
    ScheduleClass,
    halpern_schedule,
    mann_constant,
    resolvent_constant,
    resolvent_schedule,
    vanishing_schedule,
)
from .schemes import (
    BuiltScheme,
    IterationTrace,
    RunConfig,
    RunSummary,
    StopReason,
    TraceStep,
    build_scheme,
    halpern_iterate,
    iterate_sequence,
    scheme_names,
)

__version__ = "0.1.0"

# name -> submodule, read on each access (PEP 562), so the package caches
# nothing and a name patched on its submodule is what the package returns
_LAZY = {
    **dict.fromkeys(("config", "point_from_config", "point_to_config", "set_from_config",
                     "space_from_config", "space_to_config"), "config"),
    **dict.fromkeys(("diagnostics", "CheckReport", "Violation", "check_fejer",
                     "check_halpern_target", "check_nested_fixed_sets", "check_quasi_firm",
                     "check_space_axioms", "check_sqn_inequality"), "diagnostics"),
}


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
