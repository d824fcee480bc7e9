"""Rational functions in partial-fraction form.

A function is a sum of pole terms sum_k c_k (u - a)^{-k} plus a polynomial
part; the polynomial carries the pole-at-infinity data.  Degree is the total
pole count with multiplicity: sum of finite orders plus polynomial degree.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .conformal import ConformalMap, map_derivative, map_eval
from .curves import (_DISTANCE_M, TWO_PI, INFINITY, AnalyticCurve,
                     _boundary_points, _memo_put, _readonly, distance_to_curve,
                     is_infinite, point_in_curve, sample_grid)
from .errors import PoleError, QuadratureError

POLE_FLOOR = 1e-9
_CLUSTER_TOL = 1e-12
# principal_parts: q-node and 2q-node ring rules, and the relative
# disagreement between them that raises
_QUAD_NODES = 64
_QUAD_TOL = 1e-9
# the most poles of a batch whose mapped rings a map keeps
# (ConformalMap._rings): w and Phi' on 16 rings of 2q nodes are 64 KiB
_RING_POLES = 16


def _pole_location(a) -> complex:
    """A pole location as a complex number, INFINITY when a part is +-inf
    (is_infinite); a NaN is a PoleError naming the value."""
    if is_infinite(a):
        return INFINITY
    a = complex(a)
    if cmath.isnan(a):
        raise PoleError(f"pole {a} is not a number")
    return a


@dataclass(frozen=True)
class PoleTerm:
    location: complex
    coeffs: tuple  # (c_1, ..., c_m): c_k multiplies (u - location)^{-k}

    @property
    def order(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class RationalFunction:
    terms: tuple  # PoleTerm entries, pairwise distinct locations
    poly: tuple = ()  # ascending power coefficients; () means zero


def make_rational(terms, poly=()) -> RationalFunction:
    """Validated constructor: distinct pole locations, nonzero top
    coefficients (exact-zero tails trimmed), trimmed polynomial part."""
    clean = []
    for item in terms:
        term = item if isinstance(item, PoleTerm) else PoleTerm(
            complex(item[0]), tuple(complex(c) for c in item[1]))
        coeffs = list(term.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            continue
        clean.append(PoleTerm(complex(term.location), tuple(coeffs)))
    locs = [t.location for t in clean]
    for i in range(len(locs)):
        for j in range(i + 1, len(locs)):
            if abs(locs[i] - locs[j]) <= _CLUSTER_TOL * (1 + abs(locs[i])):
                raise PoleError(f"duplicate pole location {locs[i]}")
    p = [complex(c) for c in poly]
    while p and p[-1] == 0:
        p.pop()
    return RationalFunction(tuple(clean), tuple(p))


def poly_degree(f: RationalFunction) -> int:
    return max(len(f.poly) - 1, 0)


def degree(f: RationalFunction) -> int:
    return sum(t.order for t in f.terms) + poly_degree(f)


def poles_of(f: RationalFunction):
    """(location, order) pairs; the polynomial part reports as a pole at
    infinity of order equal to its degree."""
    out = [(t.location, t.order) for t in f.terms]
    if poly_degree(f) >= 1:
        out.append((INFINITY, poly_degree(f)))
    return tuple(out)


def _reciprocal_offsets(f, uarr, memo=None):
    """(term, 1/(u - a)) per pole term in term order.  A term whose location
    is in memo (classify_poles' entries, on the grid that uarr is) reads the
    r stored there, the first read storing it; any other term's offset
    u - a is checked first, and the first term within POLE_FLOOR of a point
    raises, whatever NaN points uarr also holds."""
    for t in f.terms:
        side = memo.get(t.location) if memo else None
        if side is not None and side[2] is not None:
            yield t, side[2]
            continue
        d = uarr - t.location
        if side is None and (np.abs(d) < POLE_FLOOR).any():
            raise PoleError(f"evaluation within the pole floor of {t.location}")
        r = 1.0 / d
        if side is not None:
            memo[t.location] = side[:2] + (_readonly(r),)
        yield t, r


def _horner_sum(f, uarr, offsets):
    """f on uarr: the polynomial part by Horner in u, each (term, r) of
    offsets by Horner in r."""
    out = np.zeros(uarr.shape, dtype=complex)
    if f.poly:
        out += f.poly[-1]
        for c in f.poly[-2::-1]:
            out = out * uarr + c
    for t, r in offsets:
        acc = t.coeffs[-1] * r
        for c in t.coeffs[-2::-1]:
            acc = (acc + c) * r
        out = out + acc
    return out


def rf_eval(f: RationalFunction, u):
    uarr = np.asarray(u, dtype=complex)
    scalar = uarr.ndim == 0
    uarr = np.atleast_1d(uarr)
    out = _horner_sum(f, uarr, _reciprocal_offsets(f, uarr))
    return complex(out[0]) if scalar else out


def rf_derivative(f: RationalFunction, u):
    uarr = np.asarray(u, dtype=complex)
    scalar = uarr.ndim == 0
    uarr = np.atleast_1d(uarr)
    out = np.zeros(uarr.shape, dtype=complex)
    if len(f.poly) > 1:
        n = len(f.poly) - 1
        out += n * f.poly[-1]
        for k in range(n - 1, 0, -1):
            out = out * uarr + k * f.poly[k]
    for t, r in _reciprocal_offsets(f, uarr):
        acc = t.order * t.coeffs[-1] * r
        for k in range(t.order - 1, 0, -1):
            acc = (acc + k * t.coeffs[k - 1]) * r
        out = out - acc * r
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Blaschke products
# ---------------------------------------------------------------------------

def _blaschke(points, v, deriv):
    """Product of B(a, v) over points at v, times its logarithmic
    derivative when deriv.  Each distinct point (by its bits; all points
    at infinity are one) gets its numerator 1 - conj(a) v, denominator
    v - a and log-derivative terms computed once; the factors are then
    applied in point order."""
    varr = np.asarray(v, dtype=complex)
    scalar = varr.ndim == 0
    varr = np.atleast_1d(varr)
    out = np.ones(varr.shape, dtype=complex)
    logd = np.zeros(varr.shape, dtype=complex)
    factors = {}
    for a in points:
        inf = is_infinite(a)
        key = None if inf else np.complex128(a).tobytes()
        if key not in factors:
            if inf:
                factors[key] = (varr, None, 1.0 / varr if deriv else None)
            else:
                a = complex(a)
                num, den = 1.0 - np.conj(a) * varr, varr - a
                factors[key] = (num, den, (np.conj(a) / num, 1.0 / den)
                                if deriv else None)
        num, den, dlog = factors[key]
        if den is None:
            out = out * num
            if deriv:
                logd = logd + dlog
        else:
            out = out * num / den
            if deriv:
                logd = logd - dlog[0] - dlog[1]
    if deriv:
        out = out * logd
    return complex(out[0]) if scalar else out


def blaschke_eval(points, v):
    """Product-form evaluation of prod B(a, v), B(a, v) = (1 - conj(a) v)/(v - a);
    a point at infinity contributes a factor v.  Stable for any multiplicity."""
    return _blaschke(points, v, False)


def blaschke_derivative(points, v):
    """Derivative of the product via its logarithmic derivative.

    Safe wherever the product is nonzero; on the unit circle every factor
    has modulus one, so boundary evaluation is always in that regime."""
    return _blaschke(points, v, True)


def cluster_points(points):
    """Group near-coincident points into (center, multiplicity) pairs,
    preserving first-appearance order.  A cluster's center is its first
    member, so equal points keep their own bits at any multiplicity."""
    centers, counts = [], []
    for p in points:
        p = complex(p)
        for i, c in enumerate(centers):
            if abs(p - c) <= _CLUSTER_TOL * (1.0 + abs(c)):
                counts[i] += 1
                break
        else:
            centers.append(p)
            counts.append(1)
    return list(zip(centers, counts))


def blaschke_product(points) -> RationalFunction:
    """Finite Blaschke product over the given poles, in partial-fraction form.

    All points must lie strictly on one side of the unit circle (infinity
    counts as exterior); the coefficient arithmetic is done by
    principal_parts applied to the product evaluator."""
    pts = [_pole_location(p) for p in points]
    if not pts:
        raise PoleError("a Blaschke product needs at least one pole")
    finite = [p for p in pts if not is_infinite(p)]
    n_inf = len(pts) - len(finite)
    for p in finite:
        if abs(abs(p) - 1.0) <= POLE_FLOOR:
            raise PoleError(f"Blaschke pole {p} lies on the unit circle")
    inside = [p for p in finite if abs(p) < 1.0]
    if inside and (len(inside) < len(finite) or n_inf):
        raise PoleError("Blaschke poles must all lie on one side of the circle")

    if not finite:
        return make_rational((), (0j,) * n_inf + (1 + 0j,))

    clustered = cluster_points(finite)
    pp = principal_parts(lambda v: blaschke_eval(pts, v), clustered)

    if n_inf == 0:
        const = complex(np.prod([-np.conj(a) for a in finite]))
        poly = (const,) if const != 0 else ()
    else:
        # polynomial part of degree n_inf via Laurent coefficients at infinity
        big = 2.0 * max(abs(a) for a in finite) + 2.0
        q = 512
        phis = np.arange(q) * (TWO_PI / q)
        ring = big * np.exp(1j * phis)
        vals = blaschke_eval(pts, ring)
        poly = tuple(complex(np.mean(vals * np.exp(-1j * k * phis)) / big ** k)
                     for k in range(n_inf + 1))
    return make_rational(pp.terms, poly)


# ---------------------------------------------------------------------------
# principal parts by contour quadrature
# ---------------------------------------------------------------------------

def _laurent_peel(vals, powers, dphi, dv, order):
    """c_k = mean(g (Phi(v) - Phi(a))^{k-1} Phi'(v) (v - a)) over the ring
    nodes v (one ring per row), from g, powers[j] = w ** j of w = Phi(v) -
    Phi(a) (j = 0..order), dphi = Phi'(v) and dv = v - a there; peeled from
    the top order down so that the huge top-order contribution never swamps
    the low-order means."""
    vals = vals.copy()
    coeffs = np.zeros(vals.shape[:-1] + (order,), dtype=complex)
    for k in range(order, 0, -1):
        c = np.mean(vals * powers[k - 1] * dphi * dv, axis=-1)
        coeffs[..., k - 1] = c
        vals -= c[..., None] / powers[k]
    return coeffs


def _mapped_rings(cmap, centers, radii, nodes):
    """(images, w, dphi) of the stacked rings nodes about centers: Phi at
    the centers, and Phi(v) - Phi(a) and Phi'(v) at the nodes, evaluated on
    one stacked array.  A batch of at most _RING_POLES poles is kept,
    read-only, in cmap._rings under the bytes of its centers and radii (the
    whole batch, since the series kernel rounds a point differently by
    batch size), and a repeat of the exact batch reads it back."""
    key = ((centers.tobytes(), radii.tobytes())
           if len(radii) <= _RING_POLES else None)
    hit = None if key is None else cmap._rings.get(key)
    if hit is not None:
        return hit
    flat = nodes.ravel()
    images = map_eval(cmap, centers[:, 0])
    w = map_eval(cmap, flat).reshape(nodes.shape) - images[:, None]
    dphi = map_derivative(cmap, flat).reshape(nodes.shape)
    out = tuple(_readonly(x) for x in (images, w, dphi))
    if key is not None:
        _memo_put(cmap._rings, key, out)
    return out


def principal_parts(g, poles,
                    cmap: ConformalMap | None = None) -> RationalFunction:
    """Sum of principal parts of g o Phi^{-1} at Phi(a) over the (a, order)
    poles of g, with Phi the interior map cmap (the identity if None).

    g must be a vectorized callable of the disk variable, analytic in a
    punctured neighborhood of each pole.  The contour |v - a| = rho stays
    inside the disk when a map is given, so Phi is never inverted.  g, Phi
    and Phi' are evaluated once, on the 2q-node rings (q = _QUAD_NODES) of
    all poles stacked into one array, Phi and Phi' read back from the map's
    ring memo on a repeat of the exact batch (_mapped_rings), as every row
    of a sharpness sweep makes; the poles of one order are peeled
    together, one row each, from one set of powers of w, and the q-node
    rule reads every other node of each.  Disagreement of the two rules
    beyond _QUAD_TOL (relative to the largest coefficient) raises, naming
    the first such pole, and the 2q result is returned otherwise."""
    locs = [complex(a) for a, _ in poles]
    orders = [int(m) for _, m in poles]
    if any(m < 1 for m in orders):
        raise PoleError("pole orders must be at least 1")
    rhos = []
    for i, a in enumerate(locs):
        d_other = min((abs(a - b) for j, b in enumerate(locs) if j != i),
                      default=math.inf)
        d_disk = 1.0 - abs(a) if cmap is not None else math.inf
        rhos.append(min(d_other, d_disk, 0.5) / 2.0)
    # poles before the first infeasible radius get their q-vs-2q check
    # first, so the error names the first failing pole in input order
    n_ok = next((i for i, rho in enumerate(rhos) if not rho > 1e-8),
                len(rhos))
    terms = []
    if n_ok:
        centers = np.array(locs[:n_ok])[:, None]
        radii = np.array(rhos[:n_ok])
        ring = np.exp(1j * (np.arange(2 * _QUAD_NODES)
                            * (TWO_PI / (2 * _QUAD_NODES))))
        nodes = centers + radii[:, None] * ring
        vals = np.asarray(g(nodes.ravel()), dtype=complex).reshape(nodes.shape)
        dv = nodes - centers
        w, dphi, images = dv, np.ones(nodes.shape), centers[:, 0]
        if cmap is not None:
            images, w, dphi = _mapped_rings(cmap, centers, radii, nodes)
    peels = [None] * n_ok  # per pole: its 2q-node coefficients, cut
    disagree = np.empty(n_ok)
    for order in sorted(set(orders[:n_ok])):
        rows = [i for i in range(n_ok) if orders[i] == order]
        g_v, w_v, dphi_v, dv_v = (x[rows] for x in (vals, w, dphi, dv))
        powers = [w_v ** j for j in range(order + 1)]
        c1 = _laurent_peel(g_v[:, ::2], [p[:, ::2] for p in powers],
                           dphi_v[:, ::2], dv_v[:, ::2], order)
        c2 = _laurent_peel(g_v, powers, dphi_v, dv_v, order)
        scale = np.maximum(np.max(np.abs(c2), axis=1), 1e-300)
        disagree[rows] = np.max(np.abs(c1 - c2), axis=1) / scale
        keep = np.abs(c2) > 1e-13 * scale[:, None]
        tops = np.where(keep.any(axis=1),
                        order - np.argmax(keep[:, ::-1], axis=1), 0)
        for i, c, top in zip(rows, c2, tops):
            peels[i] = c[:top]
    bad = np.flatnonzero(disagree > _QUAD_TOL)
    if len(bad):
        raise QuadratureError(
            f"quadrature disagreement {disagree[bad[0]]:.2e} at pole "
            f"{locs[bad[0]]} exceeds {_QUAD_TOL:.2e}")
    for i, c in enumerate(peels):
        if len(c):
            terms.append((complex(images[i]), tuple(c)))
    if n_ok < len(locs):
        raise QuadratureError(f"no feasible quadrature radius at pole "
                              f"{locs[n_ok]} (rho = {rhos[n_ok]:.2e})")
    return make_rational(terms, ())


# ---------------------------------------------------------------------------
# sup norm on a curve or arc
# ---------------------------------------------------------------------------

def sup_norm(f: RationalFunction, boundary, m: int | None = None):
    """(max |f| on the boundary, parameter of the argmax).

    Dense sampling at M >= max(4096, 64 deg f) plus parabolic refinement of
    every local maximum, re-evaluating |f| at each refined parameter; no
    global-optimality certificate beyond that resolution.  On a curve at
    M = 4096 (the distance grid) a term that classify_poles has memoized
    reads its reciprocal offsets from the memo entry, the first read
    filling it; other terms, arcs and other M take them as rf_eval does,
    storing nothing, so the values and the first PoleError are rf_eval's."""
    M = int(m) if m else max(4096, 64 * max(degree(f), 1))
    h = TWO_PI / M
    ts, pts = sample_grid(boundary, M)
    memo = (boundary._pole_sides if M == _DISTANCE_M
            and isinstance(boundary, AnalyticCurve) else None)
    vals = np.abs(_horner_sum(f, pts, _reciprocal_offsets(f, pts, memo)))
    wrapped = np.concatenate((vals[-1:], vals, vals[:1]))
    is_max = (vals >= wrapped[:-2]) & (vals >= wrapped[2:])
    peaks = np.nonzero(is_max)[0]
    y1, y2, y3 = vals[peaks - 1], vals[peaks], vals[(peaks + 1) % M]
    denom = y1 - 2.0 * y2 + y3
    curved = np.abs(denom) > 1e-300
    off = np.zeros(len(peaks))
    off[curved] = np.clip(0.5 * h * (y1 - y3)[curved] / denom[curved], -h, h)
    t_ref = ts[peaks] + off
    y_ref = np.abs(rf_eval(f, _boundary_points(boundary, t_ref)))
    cand = np.maximum(y2, y_ref)
    best = int(np.argmax(cand))  # the first of equal peaks wins
    best_t = t_ref[best] if y_ref[best] >= y2[best] else ts[peaks[best]]
    return float(cand[best]), float(best_t % TWO_PI)


# ---------------------------------------------------------------------------
# inside/outside splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoleSet:
    """Pole locations with multiplicities, classified against a curve."""

    poles: tuple       # ((location, multiplicity), ...)
    inside: tuple      # bool per entry; infinity is always outside
    separation: float  # min distance from the finite poles to the curve

    def expanded(self):
        """(location, inside) repeated per multiplicity."""
        out = []
        for (a, m), inn in zip(self.poles, self.inside):
            out.extend([(a, inn)] * m)
        return out

    @property
    def inner_count(self) -> int:
        return sum(m for (_, m), inn in zip(self.poles, self.inside) if inn)

    @property
    def outer_count(self) -> int:
        return sum(m for (_, m), inn in zip(self.poles, self.inside) if not inn)


def classify_poles(poles, curve: AnalyticCurve) -> PoleSet:
    """Classify (location, multiplicity) pairs by the winding-number test.

    Each finite pole gets its distance check and then its winding, in
    input order, over the curve's memoized samples (sample_grid).  A
    classified location is kept in the curve's bounded memo
    (AnalyticCurve._pole_sides: location -> (distance, inside, r), at most
    _MEMO_CAP entries), so a pole set checked again on the same curve
    object reads its geometry back.  This is the memo's one writer of
    entries; r is None here, and sup_norm fills it on the entry's first
    use with 1/(u - a) on the 4,096-point distance grid, read-only (64 KiB
    an entry, at most 4 MiB a curve).  A location that raised (a PoleError
    on the curve, a CurveError for an ambiguous winding) is never kept and
    raises again, in the same input order."""
    entries, inside = [], []
    sep = math.inf
    for a, m in poles:
        m = int(m)
        if m < 1:
            raise PoleError("multiplicities must be at least 1")
        a = _pole_location(a)
        if is_infinite(a):
            entries.append((a, m))
            inside.append(False)
            continue
        side = curve._pole_sides.get(a)
        if side is None:
            d = distance_to_curve(curve, a)
            if d < POLE_FLOOR:
                raise PoleError(f"pole {a} lies on the curve "
                                f"(distance {d:.2e})")
            side = _memo_put(curve._pole_sides, a,
                             (d, point_in_curve(curve, a), None))
        sep = min(sep, side[0])
        entries.append((a, m))
        inside.append(side[1])
    return PoleSet(tuple(entries), tuple(inside), sep)


def split_inside_outside(f: RationalFunction, curve: AnalyticCurve):
    """f = f1 + f2 with f1 carrying exactly the interior pole terms and
    f1(inf) = 0; f2 gets the rest including the polynomial part."""
    ps = classify_poles([(t.location, t.order) for t in f.terms], curve)
    f1_terms = [t for t, inn in zip(f.terms, ps.inside) if inn]
    f2_terms = [t for t, inn in zip(f.terms, ps.inside) if not inn]
    return (make_rational(f1_terms, ()), make_rational(f2_terms, f.poly))
