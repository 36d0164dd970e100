"""Stability analysis of modified-gradient systems x' = P(t) grad f(x).

Find and classify equilibria of the scalar field f, certify the stability
hypotheses numerically (including the smallest-eigenvalue integral
condition on P(t)), extract sublevel-component basin estimates, and verify
them by simulation.
"""

from .basin import (
    BasinVerification,
    GridComponent,
    HypothesesReport,
    check_hypotheses,
    extract_component,
    verify_basin,
)
from .equilibria import (
    Classification,
    CriticalPoint,
    IsolationKind,
    IsolationVerdict,
    find_critical_points,
    isolation_probe,
    isolation_probes,
)
from .errors import (
    EvalDomainError,
    NumericFailure,
    OutsideDomainError,
    ParseError,
)
from .expr import Expression, parse
from .field import (
    Box,
    ExpressionField,
    H0Report,
    MatrixPath,
    ScalarField,
    System,
    validate_h0,
)
from .gallery import GALLERY_IDS, GalleryEntry, PiecewiseCubic
from .gallery import build as build_gallery
from .gallery import example_2_1, example_2_2, example_3_1
from .linalg import eigen_all, integrate_adaptive
from .ode import (
    LyapunovTrace,
    SimOptions,
    Status,
    Trajectory,
    lyapunov_trace,
    lyapunov_traces,
    simulate,
    simulate_batch,
)
from .stability import (
    CertifyOptions,
    Conclusion,
    EcKind,
    EcVerdict,
    StabilityReport,
    certify,
    certify_all,
    ec_check,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "ScalarField",
    "ExpressionField",
    "MatrixPath",
    "System",
    "H0Report",
    "validate_h0",
    "Expression",
    "parse",
    "eigen_all",
    "integrate_adaptive",
    "SimOptions",
    "Status",
    "Trajectory",
    "LyapunovTrace",
    "simulate",
    "simulate_batch",
    "lyapunov_trace",
    "lyapunov_traces",
    "Classification",
    "CriticalPoint",
    "IsolationKind",
    "IsolationVerdict",
    "find_critical_points",
    "isolation_probe",
    "isolation_probes",
    "EcKind",
    "EcVerdict",
    "Conclusion",
    "StabilityReport",
    "CertifyOptions",
    "ec_check",
    "certify",
    "certify_all",
    "GridComponent",
    "HypothesesReport",
    "BasinVerification",
    "extract_component",
    "check_hypotheses",
    "verify_basin",
    "GalleryEntry",
    "PiecewiseCubic",
    "GALLERY_IDS",
    "build_gallery",
    "example_2_1",
    "example_2_2",
    "example_3_1",
    "ParseError",
    "EvalDomainError",
    "OutsideDomainError",
    "NumericFailure",
]
