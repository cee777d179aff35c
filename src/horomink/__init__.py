"""Horospherically convex polytopes in hyperbolic space.

The package builds compact intersections of closed horoballs (horospherical
Wulff shapes), measures them (volume, facet areas, support numbers, Hausdorff
distance), and solves the even discrete horospherical p-Minkowski problem
on S^1 and S^2 with a residual certificate. A JSON/SVG command line front end lives in
horomink.cli.
"""

from .errors import (
    DegenerateBodyError,
    HoromkError,
    MismatchedDirectionsError,
    NotEvenError,
    PointInsideError,
    SpecError,
    UnreachableTargetError,
)
from .geometry import (
    BallPoint,
    Direction,
    HyperboloidPoint,
    Isometry,
    convert_model,
    minkowski_dot,
    polar_point,
)
from .horoball import (
    Horoball,
    busemann_value,
    horoball_contains,
    horoball_transform,
)
from .polytope import (
    DiscreteMeasure,
    HConvexPolytope,
    PolytopeSpec,
    boundedness_bound,
    build_polytope,
    canonicalize,
    extremal_radii,
    facet_area,
    facet_area_fd,
    hausdorff_distance,
    outer_parallel_support,
    radial,
    separate,
    support,
    t_body_volume,
    t_body_volume_lower_bound,
    volume,
)
from .quadrature import (
    SphereQuadrature,
    build_quadrature,
    sinh_power_integral,
    sphere_area,
    unit_ball_volume,
)
from .solver import (
    SolverConfig,
    SolverResult,
    phi_p,
    rescale_to_constraint,
    residual,
    solve_even,
)

__all__ = [
    "BallPoint",
    "DegenerateBodyError",
    "Direction",
    "DiscreteMeasure",
    "HConvexPolytope",
    "Horoball",
    "HoromkError",
    "HyperboloidPoint",
    "Isometry",
    "MismatchedDirectionsError",
    "NotEvenError",
    "PointInsideError",
    "PolytopeSpec",
    "SolverConfig",
    "SolverResult",
    "SpecError",
    "SphereQuadrature",
    "UnreachableTargetError",
    "boundedness_bound",
    "build_polytope",
    "build_quadrature",
    "busemann_value",
    "canonicalize",
    "convert_model",
    "extremal_radii",
    "facet_area",
    "facet_area_fd",
    "hausdorff_distance",
    "horoball_contains",
    "horoball_transform",
    "minkowski_dot",
    "outer_parallel_support",
    "phi_p",
    "polar_point",
    "radial",
    "rescale_to_constraint",
    "residual",
    "separate",
    "sinh_power_integral",
    "solve_even",
    "sphere_area",
    "support",
    "t_body_volume",
    "t_body_volume_lower_bound",
    "unit_ball_volume",
    "volume",
]

__version__ = "0.1.0"
