"""Fixed-point iteration schemes for sequences of strongly quasi-nonexpansive
mappings on Hadamard model spaces, with resolvent-based proximal schemes and
a diagnostics suite for the underlying inequalities."""

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
from .config import (
    point_from_config,
    point_to_config,
    set_from_config,
    space_from_config,
    space_to_config,
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
from .diagnostics import (
    CheckReport,
    Violation,
    check_fejer,
    check_halpern_target,
    check_nested_fixed_sets,
    check_quasi_firm,
    check_space_axioms,
    check_sqn_inequality,
)

__version__ = "0.1.0"
