"""Green's functions for the disk pair and their pullbacks to general
domains, boundary normal derivatives, and the derivative-bound engine.

All domain quantities reduce to disk quantities through the anchored map
pair: with Phi(1) = u0 and |Phi'(1)| = 1 the boundary normal derivative of
the domain Green's function at u0 equals the disk one at 1 for the pulled
back pole, exactly.  The disk formulas are closed-form:

    interior pole a:  (1 - |a|^2) / |1 - a|^2
    exterior pole b:  (|b|^2 - 1) / |1 - b|^2,   and 1 for b = infinity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conformal import MapPair, map_invert
from .curves import (ArcOpenUp, BoundaryPoint, is_infinite, openup_preimages,
                     rq_derivative, rq_solve)
from .errors import DomainError, PoleError
from .ratfun import (PoleSet, RationalFunction, _pole_location,
                     classify_poles, degree, poles_of, rf_derivative,
                     sup_norm)

_CIRCLE_TOL = 1e-9


@dataclass(frozen=True)
class Contribution:
    pole: complex  # INFINITY allowed
    side: str      # "inner" | "outer" for curves, "n1" | "n2" for arcs
    value: float


@dataclass(frozen=True)
class BoundReport:
    point: complex
    contributions: tuple  # Contribution entries, multiplicities expanded
    inner_sum: float
    outer_sum: float
    bound: float


def _assemble_report(point, contributions, inner_label="inner",
                     outer_label="outer") -> BoundReport:
    inner = math.fsum(c.value for c in contributions if c.side == inner_label)
    outer = math.fsum(c.value for c in contributions if c.side == outer_label)
    return BoundReport(complex(point), tuple(contributions), inner, outer,
                       max(inner, outer))


# ---------------------------------------------------------------------------
# disk formulas
# ---------------------------------------------------------------------------

def disk_normal_derivative(pole, side: str) -> float:
    """Boundary normal derivative at 1 of the disk-side Green's function."""
    if side == "interior":
        a = complex(pole)
        if abs(abs(a) - 1.0) <= _CIRCLE_TOL:
            raise PoleError(f"pole {a} lies on the unit circle")
        if abs(a) > 1.0:
            raise DomainError(f"pole {a} is not inside the unit disk")
        return (1.0 - abs(a) ** 2) / abs(1.0 - a) ** 2
    if side == "exterior":
        if is_infinite(pole):
            return 1.0
        b = complex(pole)
        if abs(abs(b) - 1.0) <= _CIRCLE_TOL:
            raise PoleError(f"pole {b} lies on the unit circle")
        if abs(b) < 1.0:
            raise DomainError(f"pole {b} is not outside the unit disk")
        return (abs(b) ** 2 - 1.0) / abs(1.0 - b) ** 2
    raise DomainError(f"unknown side {side!r}")


def green_disk(v, pole, side: str):
    """Green's function of the disk (interior) or its complement (exterior)
    with the given pole, evaluated at v; boundary points give zero."""
    varr = np.asarray(v, dtype=complex)
    scalar = varr.ndim == 0
    varr = np.atleast_1d(varr)
    r = np.abs(varr)
    if side == "interior":
        if np.any(r > 1.0 + _CIRCLE_TOL):
            raise DomainError("evaluation point outside the closed unit disk")
        a = complex(pole)
        if abs(a) >= 1.0:
            raise DomainError(f"pole {a} is not inside the unit disk")
        if np.min(np.abs(varr - a)) < 1e-12 * (1.0 + abs(a)):
            raise PoleError("evaluation at the pole")
        out = np.log(np.abs(1.0 - np.conj(a) * varr)) - np.log(np.abs(varr - a))
    elif side == "exterior":
        if np.any(r < 1.0 - _CIRCLE_TOL):
            raise DomainError("evaluation point inside the open unit disk")
        if is_infinite(pole):
            out = np.log(r)
        else:
            b = complex(pole)
            if abs(b) <= 1.0:
                raise DomainError(f"pole {b} is not outside the unit disk")
            if np.min(np.abs(varr - b)) < 1e-12 * (1.0 + abs(b)):
                raise PoleError("evaluation at the pole")
            out = np.log(np.abs(1.0 - np.conj(b) * varr)) - np.log(np.abs(varr - b))
    else:
        raise DomainError(f"unknown side {side!r}")
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# pullbacks to a general curve
# ---------------------------------------------------------------------------

def _check_anchor(u0: BoundaryPoint, maps: MapPair):
    tol = 1e-8 * (1.0 + abs(u0.point))
    if (abs(maps.interior.anchor - u0.point) > tol
            or abs(maps.exterior.anchor - u0.point) > tol):
        raise DomainError("map pair is not anchored at the given boundary point")


def domain_normal_derivative(u0: BoundaryPoint, pole, maps: MapPair,
                             inside: bool) -> float:
    """Normal derivative at u0 of the Green's function of the pole's side,
    the bounded one when inside (as classify_poles reports it).

    Computed by the exact pullback identity: invert the matching map and
    apply the disk formula."""
    _check_anchor(u0, maps)
    cmap = maps.interior if inside else maps.exterior
    return disk_normal_derivative(map_invert(cmap, pole), cmap.side)


def green_domain(u, pole, maps: MapPair, inside: bool):
    """Green's function at u of G1 (inside) or G2, the side holding the
    pole."""
    cmap = maps.interior if inside else maps.exterior
    return green_disk(map_invert(cmap, u), map_invert(cmap, pole), cmap.side)


def bernstein_bound(u0: BoundaryPoint, poles: PoleSet, maps: MapPair) -> BoundReport:
    """Derivative bound at u0: max of the inner and outer normal-derivative
    sums over the classified poles, one value per distinct pole repeated
    over its multiplicity.  The poles of each side are inverted in one
    map_invert call, which a series map memoizes per exact batch
    (ConformalMap._preimages), so a pole set bounded again on the same
    map pair skips the contour sum; each such hit still re-checks its
    residual."""
    _check_anchor(u0, maps)
    locs = np.array([a for a, _ in poles.poles], dtype=complex)
    inside = np.array(poles.inside, dtype=bool)
    pre = np.empty(len(locs), dtype=complex)
    for cmap, mask in ((maps.interior, inside), (maps.exterior, ~inside)):
        if np.any(mask):
            pre[mask] = map_invert(cmap, locs[mask])
    contributions = []
    for (pole, mult), inn, v in zip(poles.poles, poles.inside, pre):
        cmap = maps.interior if inn else maps.exterior
        val = disk_normal_derivative(v, cmap.side)
        if not val > 0.0:
            raise DomainError(f"nonpositive contribution at pole {pole}")
        contributions.extend(
            [Contribution(pole, "inner" if inn else "outer", val)] * mult)
    return _assemble_report(u0.point, contributions)


# ---------------------------------------------------------------------------
# arcs: the open-up transfer
# ---------------------------------------------------------------------------

def _interior_preimage(arc: ArcOpenUp, pole):
    roots = rq_solve(arc.fmap, pole)
    inner = [r for r in roots
             if not is_infinite(r) and abs(r) < 1.0 - _CIRCLE_TOL]
    if len(inner) != 1:
        raise PoleError(f"pole {pole} has no clean interior preimage "
                        "(it may lie on the arc)")
    return inner[0]


def _arc_side_value(uj, fp, a) -> float:
    """Disk normal derivative at the base-circle point uj for the interior
    preimage a, divided by fp = |F'(uj)|."""
    if fp <= 1e-12:
        raise DomainError(f"open-up map critical at the preimage {uj}")
    # rotation-invariant disk normal derivative at the boundary point uj
    return (1.0 - abs(a) ** 2) / abs(uj - a) ** 2 / fp


def arc_normal_derivative(z0, side: str, pole, arc: ArcOpenUp) -> float:
    """One-sided normal derivative at the arc point z0 for the given pole.

    Transfer through the open-up: with u1, u2 the base-circle preimages of
    z0, the n1 side reads the disk Green's function at u1 and the n2 side at
    u2, each divided by |F'| there."""
    if side not in ("n1", "n2"):
        raise DomainError(f"unknown arc side {side!r}")
    u1, u2 = openup_preimages(arc, z0)
    uj = u1 if side == "n1" else u2
    a = _interior_preimage(arc, pole)
    return _arc_side_value(uj, abs(rq_derivative(arc.fmap, uj)), a)


def arc_bound(z0, poles, arc: ArcOpenUp) -> BoundReport:
    """Arc version of the bound: every pole contributes to both one-sided
    sums; the inner/outer slots of the report hold the n1/n2 sums.  The
    preimages of z0, |F'| there and each pole's preimage are solved once."""
    contributions = []
    sides = None
    for a, m in poles:
        a = _pole_location(a)
        if sides is None:  # at the first pole: no poles, nothing solved
            sides = [(u, abs(rq_derivative(arc.fmap, u)))
                     for u in openup_preimages(arc, z0)]
        pre = _interior_preimage(arc, a)
        v1, v2 = (_arc_side_value(u, fp, pre) for u, fp in sides)
        if not (v1 > 0.0 and v2 > 0.0):
            raise DomainError(f"nonpositive contribution at pole {a}")
        contributions.extend([Contribution(a, "n1", v1),
                              Contribution(a, "n2", v2)] * int(m))
    return _assemble_report(z0, contributions, "n1", "n2")


# ---------------------------------------------------------------------------
# ratio verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioRecord:
    deriv_mod: float
    sup: float
    sup_arg: float
    bound: float
    ratio: float
    rough_ratio: float
    degree: int
    report: BoundReport


def verify_ratio(f: RationalFunction, boundary, point,
                 maps: MapPair | None = None,
                 sup_m: int | None = None) -> RatioRecord:
    """Measure |f'| / (sup norm * bound) and the rough ratio |f'|/(deg sup)
    at a boundary point of a curve (point: BoundaryPoint, maps required) or
    an interior point of an arc (point: complex)."""
    if isinstance(boundary, ArcOpenUp):
        z0 = complex(point)
        report = arc_bound(z0, poles_of(f), boundary)
        deriv = abs(rf_derivative(f, z0))
    else:
        if maps is None:
            raise DomainError("curve ratio verification needs the map pair")
        ps = classify_poles(poles_of(f), boundary)
        report = bernstein_bound(point, ps, maps)
        deriv = abs(rf_derivative(f, point.point))
    sup, targ = sup_norm(f, boundary, m=sup_m)
    deg = degree(f)
    if sup <= 0.0 or report.bound <= 0.0 or deg == 0:
        raise DomainError("degenerate ratio: zero sup norm, bound, or degree")
    return RatioRecord(deriv, sup, targ, report.bound,
                       deriv / (sup * report.bound), deriv / (deg * sup),
                       deg, report)
