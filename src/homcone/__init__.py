"""Exact projections onto the homogenization cone of a convex set.

Given a closed convex set C containing the origin, with a projector onto C,
this package computes the projection onto K = cl cone(C x {1}), evaluates
support functions and polar-set / polar-cone membership, and ships a CLI for
reproducible traces and figure point clouds.  The projection uses a set's
closed-form cone kernel where it has one (``ConvexSet._project_cone``) and the
generic solver on psi' otherwise.
"""

from .errors import (
    CapabilityMissing,
    CenterOutsideRadius,
    DimensionMismatch,
    HomconeError,
    InvalidSetSpec,
    MaxIterationsExceeded,
    NoClosedFormAvailable,
    NonPositiveAlpha,
    UnsupportedProjection,
)
from .homproj import (
    Branch,
    ConePoint,
    ProjectionResult,
    QuarticCoefficients,
    TraceRow,
    find_alpha_star,
    project_homogenization,
    quartic_coefficients,
    reference_trace,
)
from .polar import (
    PolarDescription,
    closed_form_polar,
    homogenization_polar_membership,
    polar_cone_membership,
    polar_membership,
)
from .scaledfun import PsiEvaluator
from .sets import (
    BallPen,
    Box,
    ConvexSet,
    Ellipsoid,
    EuclideanBall,
    Hyperbolic,
    L1Ball,
    PBall,
    Simplex,
    as_vector,
    set_from_spec,
)

__version__ = "0.1.0"

__all__ = [
    "BallPen",
    "Box",
    "Branch",
    "CapabilityMissing",
    "CenterOutsideRadius",
    "ConePoint",
    "ConvexSet",
    "DimensionMismatch",
    "Ellipsoid",
    "EuclideanBall",
    "HomconeError",
    "Hyperbolic",
    "InvalidSetSpec",
    "L1Ball",
    "MaxIterationsExceeded",
    "NoClosedFormAvailable",
    "NonPositiveAlpha",
    "PBall",
    "PolarDescription",
    "ProjectionResult",
    "PsiEvaluator",
    "QuarticCoefficients",
    "Simplex",
    "TraceRow",
    "UnsupportedProjection",
    "as_vector",
    "closed_form_polar",
    "find_alpha_star",
    "homogenization_polar_membership",
    "polar_cone_membership",
    "polar_membership",
    "project_homogenization",
    "quartic_coefficients",
    "reference_trace",
    "set_from_spec",
]
