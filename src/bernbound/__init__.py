"""Sharp derivative bounds for rational functions on analytic curves and arcs.

The bound at a boundary point u0 is the larger of the two one-sided sums of
Green's-function normal derivatives taken over the poles, transplanted from
the unit disk by anchored conformal maps.  The package computes the maps,
the sums, and the asymptotically extremal rational sequences showing the
constant cannot be improved.
"""

from ._version import __version__
from .conformal import (ConformalMap, MapPair, map_derivative, map_eval,
                        map_from_dict, map_from_json, map_invert, map_to_dict,
                        map_to_json, normalize_at_anchor, roundtrip_residual,
                        solve_exterior_map, solve_interior_map,
                        solve_map_pair)
from .curves import (INFINITY, AnalyticCurve, ArcOpenUp, BoundaryPoint,
                     CurveReport, OpenUpReport, RationalQuad, arc_endpoints,
                     arc_point, boundary_point, circle, circular_arc,
                     curve_derivative, distance_to_curve, ellipse, eval_curve,
                     is_infinite, openup_preimages, param_of_point,
                     point_in_curve, rq_derivative, rq_eval, rq_solve,
                     sample_grid, segment_arc, trig_curve, unit_normals,
                     validate_curve, validate_openup, winding_number)
from .errors import (ArcError, CurveError, DomainError, ExtremalError,
                     MapError, MapInvertError, NumericsError, PoleError,
                     QuadratureError, RunSpecError)
from .extremal import (ExtremalRun, LejaSet, SweepRow, build_circle_extremal,
                       build_transferred_extremal, leja_points,
                       sharpness_sweep)
from .potential import (BoundReport, Contribution, RatioRecord, arc_bound,
                        arc_normal_derivative, bernstein_bound,
                        disk_normal_derivative, domain_normal_derivative,
                        green_disk, green_domain, verify_ratio)
from .ratfun import (PoleSet, PoleTerm, RationalFunction, blaschke_derivative,
                     blaschke_eval, blaschke_product, classify_poles,
                     cluster_points, degree, make_rational, poles_of,
                     poly_degree, principal_parts, rf_derivative, rf_eval,
                     split_inside_outside, sup_norm)

__all__ = [name for name in dir() if not name.startswith("_")]
