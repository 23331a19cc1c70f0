"""Numerical geometry of surfaces in the product of the hyperbolic plane
(hyperboloid model, curvature -1) and the real line.

Subpackages by topic: ``minkowski`` and ``hyperbolic`` for the plane itself,
``product`` for the ambient space, ``surfaces`` for chart presets,
``curvature`` for pointwise shape data, ``flows`` for asymptotic-line
tracing, ``classifier`` for cylinder detection, ``verification`` and ``cli``
for the batch entry points.
"""

from .errors import GeometryError
from .hyperbolic import (H2Curve, check_point, check_tangent, check_unit,
                         curve_from_curvature, h2_dist)
from .product import (AmbientVec, DivergenceReport, H2Geodesic, ProdGeodesic,
                      prod_dist, prod_geodesic_residual,
                      verify_geodesic_divergence)
from .surfaces import (ChartDomain, Surface, SurfaceJet, from_config,
                       make_cylinder, make_graph, make_slice, perturb)
from .curvature import (FundamentalForms, PointClass, ShapeData,
                        classify_point, curvature_grid, fundamental_forms,
                        shape_data)
from .flows import (AffineFit, GeodesicDeviation, TraceRecord, fit_inverse_H,
                    frame_ode_residuals, geodesic_deviation, trace_asymptotic)
from .classifier import (ClassifierConfig, CylinderVerdict, FlatnessReport,
                         PlanarSetMap, classify_surface, extract_rulings,
                         flatness_scan, planar_set_map,
                         recover_generating_curve)
from .verification import VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "AffineFit", "AmbientVec", "ChartDomain", "ClassifierConfig",
    "CylinderVerdict", "DivergenceReport", "FlatnessReport",
    "FundamentalForms", "GeodesicDeviation", "GeometryError", "H2Curve",
    "H2Geodesic", "PlanarSetMap", "PointClass", "ProdGeodesic", "ShapeData",
    "Surface", "SurfaceJet", "TraceRecord", "VerificationReport",
    "check_point", "check_tangent", "check_unit", "classify_point",
    "classify_surface", "curvature_grid", "curve_from_curvature",
    "extract_rulings", "fit_inverse_H", "flatness_scan",
    "frame_ode_residuals", "from_config", "fundamental_forms",
    "geodesic_deviation", "h2_dist", "make_cylinder", "make_graph",
    "make_slice", "perturb", "planar_set_map", "prod_dist",
    "prod_geodesic_residual", "recover_generating_curve", "run_verification",
    "shape_data", "trace_asymptotic", "verify_geodesic_divergence",
]
