"""Exact projections onto the homogenization cone of a convex set.

Given a closed convex set C containing the origin, with a projector onto C,
this package computes the projection onto K = cl cone(C x {1}), evaluates
support functions, builds the polar set of C (``ConvexSet.polar``), tests
membership in the polar cone of K, whose slice at height 0 is the polar
cone of C, and ships a CLI for reproducible traces and figure point clouds,
whose worked examples (:mod:`homcone.paper`) it does not import.  The
projection uses a set's exact cone kernel where it has one
(``ConvexSet._project_cone``) and the generic solver on psi' otherwise."""

from .homproj import (
    Branch,
    ConePoint,
    ProjectionResult,
    PsiEvaluator,
    TraceRow,
    homogenization_polar_membership,
    project_homogenization,
)
from .roots import MaxIterationsExceeded
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
    set_from_spec,
)

__version__ = "0.1.0"

__all__ = [
    "BallPen",
    "Box",
    "Branch",
    "ConePoint",
    "ConvexSet",
    "Ellipsoid",
    "EuclideanBall",
    "Hyperbolic",
    "L1Ball",
    "MaxIterationsExceeded",
    "PBall",
    "ProjectionResult",
    "PsiEvaluator",
    "Simplex",
    "TraceRow",
    "homogenization_polar_membership",
    "project_homogenization",
    "set_from_spec",
]
