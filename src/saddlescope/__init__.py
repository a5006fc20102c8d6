"""saddlescope: center-stable set machinery for non-autonomous optimization
dynamics, with certificates, graph transforms, and avoidance experiments."""

from .dynsys import (
    NonAutonomousSystem,
    Splitting,
    SystemMap,
    TrajectoryRecord,
    counterexample_product,
    run_trajectory,
)
from .graphtransform import (
    GraphFunction,
    IncompatibleSplitting,
    NoContraction,
    PHPair,
    compose_phi,
    function_norm,
    graph_transform,
    verify_graph_invariance,
    verify_potential_growth,
)
from .optimizers import (
    InnerSolveFailed,
    Objective,
    OutsideChart,
    SphereObjective,
    gd_system,
    lift_to_tangent,
    pp_system,
    prox_inverse,
    rgd_system,
)
from .phcert import (
    BudgetViolated,
    CertificateFailure,
    InvalidParameter,
    NotAdmissible,
    PHCertificate,
    RadiusNotFound,
    Schedule,
    SpectralData,
    StepTooLarge,
    build_gd_certificate,
    build_pp_certificate,
    check_admissible,
    classify_nonsummable,
    constant_schedule,
    cosine_schedule,
    estimate_radius,
    explicit_schedule,
    globalize,
    polynomial_schedule,
    sample_lipschitz,
    step_size,
)
from .avoidance import (
    AvoidanceReport,
    LuzinReport,
    classify_limit,
    luzin_scan,
    monte_carlo_avoidance,
    run_matrix,
)
from .testfns import get

__version__ = "0.1.0"
