"""Numerical toolkit for free-boundary area minimization in convex
polyhedral cones: explicit sliding competitors for plane sections of
pyramid cones, spherical-geodesic audits, and a discrete area descent that
does not yet converge (where it stops follows its seeded jitter)."""

from .geometry import (
    PolyhedralCone,
    cone_from_dict,
    is_vertex,
    pyramid_to_cone,
    wedge_above,
)
from .spherical import (
    GeodesicArc,
    GeodesicPolygon,
    TwoArcReport,
    arc_length,
    equator_pole,
    interior_angle,
    spherical_excess,
    two_arc_audit,
)
from .competitor import (
    CompetitorSpec,
    ConnectionProfile,
    DeficitReport,
    area_deficit,
    deficit_sweep,
    epsilon_star,
    export_competitor_mesh,
    feasible_params,
    phi,
    phi_prime,
    section_areas,
    trapezium_area,
    weighted_energy,
)
from .mesh import (
    TriMesh,
    VertexClass,
    save_obj,
    surface_area,
    triangle_areas,
    triangle_normals,
    validate,
)
from .descent import (
    Diagnostics,
    MinimizeConfig,
    area_gradient,
    make_initial_plane,
    minimize,
    project_gradient,
    project_to_constraints,
)
from .diagnostics import (
    BoundaryAngleStats,
    boundary_angle_audit,
    conical_deviation,
    monotonicity_ratio,
    vertex_distance,
)

__version__ = "0.1.0"

__all__ = [
    "PolyhedralCone", "cone_from_dict", "is_vertex", "pyramid_to_cone",
    "wedge_above",
    "GeodesicArc", "GeodesicPolygon", "TwoArcReport", "arc_length",
    "equator_pole", "interior_angle", "spherical_excess", "two_arc_audit",
    "CompetitorSpec", "ConnectionProfile", "DeficitReport", "area_deficit",
    "deficit_sweep", "epsilon_star", "export_competitor_mesh",
    "feasible_params", "phi", "phi_prime", "section_areas", "trapezium_area",
    "weighted_energy",
    "TriMesh", "VertexClass", "save_obj", "surface_area", "triangle_areas",
    "triangle_normals", "validate",
    "Diagnostics", "MinimizeConfig", "area_gradient", "make_initial_plane",
    "minimize", "project_gradient", "project_to_constraints",
    "BoundaryAngleStats", "boundary_angle_audit", "conical_deviation",
    "monotonicity_ratio", "vertex_distance",
    "__version__",
]
