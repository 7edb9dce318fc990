"""Sharp restricted-isometry thresholds for spurious critical points
in low-rank matrix recovery.

The central quantity is delta(X, Z): the smallest RIP constant of any
measurement operator that admits the candidate factor X as a spurious
second-order critical point when the ground truth is Z Z^T.  It is
computed exactly through a linear matrix inequality (:func:`delta_exact`),
bounded in closed form for rank-1 pairs (:func:`delta_lower`), and
attained by an explicitly recoverable worst-case operator
(:func:`recover_minimizer`).
"""

from .closedform import (
    PolarParams,
    ThresholdReport,
    canonical_pair,
    delta_lower,
    delta_lower_from_vectors,
    eta_to_delta,
    from_polar,
    local_threshold,
    polar_params,
    sublevel_epsilon,
)
from .counterexample import ExampleInstance, ExampleReport, generate_example, verify_example
from .errors import DegenerateInputError, NotPsdError, NotSpuriousError, SolverError
from .lmi import (
    CertificateReport,
    DualVariables,
    LmiProblem,
    ReducedPair,
    SdpSolution,
    build_lower_lmi,
    build_upper_lmi,
    delta_exact,
    recover_minimizer,
    reduce,
    solve_lmi,
    verify_certificates,
)
from .objective import (
    CriticalityCertificate,
    MeasurementOperator,
    RecoveryInstance,
    criticality_certificate,
    evaluate,
    rip_constant_fullspace,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateReport",
    "CriticalityCertificate",
    "DegenerateInputError",
    "DualVariables",
    "ExampleInstance",
    "ExampleReport",
    "LmiProblem",
    "MeasurementOperator",
    "NotPsdError",
    "NotSpuriousError",
    "PolarParams",
    "RecoveryInstance",
    "ReducedPair",
    "SdpSolution",
    "SolverError",
    "ThresholdReport",
    "build_lower_lmi",
    "build_upper_lmi",
    "canonical_pair",
    "criticality_certificate",
    "delta_exact",
    "delta_lower",
    "delta_lower_from_vectors",
    "eta_to_delta",
    "evaluate",
    "from_polar",
    "generate_example",
    "local_threshold",
    "polar_params",
    "recover_minimizer",
    "reduce",
    "rip_constant_fullspace",
    "solve_lmi",
    "sublevel_epsilon",
    "verify_certificates",
    "verify_example",
]
