"""Sub-Riemannian geometry of the first Heisenberg group.

Group operations and the left-invariant frame (hgroup), closed-form
geodesics and Jacobi machinery (geodesics), horizontal curves (hcurves),
parametric CMC surfaces (surfaces), mean-curvature and stationarity
diagnostics (curvature), area/volume quadrature and the isoperimetric
ratio (measures), plus a batch CLI (cli).
"""

from .hgroup import Point, ORIGIN  # noqa: F401
from .geodesics import GeodesicSpec, cut_time, geodesic_point, geodesic_velocity  # noqa: F401
from .hcurves import HorizontalCurve, helix_curve, horizontal_lift, line_curve  # noqa: F401
from .surfaces import (  # noqa: F401
    ImmersedPatch,
    build_sigma_lambda,
    build_sigma_zero,
    build_surface,
    cylinder_S,
    helicoid_L,
    mesh,
    sphere_geodesic,
    sphere_graph,
)
from .curvature import graph_pde_residual, mean_curvature_char, orthogonality_defect  # noqa: F401
from .measures import area, iso_ratio, minkowski_check, volume_enclosed  # noqa: F401

__version__ = "0.1.0"
