"""Analytic Jordan curves, boundary geometry, and arcs with open-up maps.

A closed curve is a trigonometric polynomial

    gamma(t) = sum_{k=-K..K} c_k e^{ikt},   t in [0, 2*pi),

stored by its coefficient vector.  Positive orientation means the bounded
component sits on the left of gamma'(t).  An arc is represented indirectly:
the unit circle together with a degree-2 rational "open-up" map F that
sends both sides of the circle onto the complement of the arc.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArcError, CurveError

TWO_PI = 2.0 * math.pi
# grid sizes of the sampled geometry: the distance to a curve or arc, the
# Newton seed of param_of_point, validate_curve's checks and the angles of
# validate_openup's injectivity grid
_DISTANCE_M = 4096
_PARAM_SEED_M = 2048
_VALIDATE_M = 1024
_OPENUP_M = 48
# entries in each bounded memo (_memo_put): the pole sides on a curve, the
# preimage batches and principal_parts' ring batches on a map, the shared
# parameter grids (_T_GRIDS); also the longest target batch the preimage
# memo keeps
_MEMO_CAP = 64
# sample_grid's parameter grids, m -> read-only t_j = 2 pi j / m, one array
# per m for every curve and arc
_T_GRIDS = {}


# ---------------------------------------------------------------------------
# closed curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticCurve:
    """Trigonometric-polynomial curve. ``coeffs[order + k]`` holds c_k."""

    coeffs: tuple
    kind: str = "trig"
    params: tuple = ()

    @property
    def order(self) -> int:
        return (len(self.coeffs) - 1) // 2

    @cached_property
    def _grids(self) -> dict:
        """sample_grid's memo, m -> (points(, tangents)): kept on the object
        but not a field, so equality, hashing and replace() skip it."""
        return {}

    @cached_property
    def _pole_sides(self) -> dict:
        """classify_poles' memo, finite pole location -> (distance to the
        curve, inside, read-only 1/(u - a) on the _DISTANCE_M grid once
        sup_norm has used it, else None), bounded by _MEMO_CAP; like
        _grids, not a field."""
        return {}


def circle(radius: float = 1.0, center: complex = 0j) -> AnalyticCurve:
    if radius <= 0:
        raise CurveError("circle radius must be positive")
    return AnalyticCurve((0j, complex(center), complex(radius)), kind="circle",
                         params=(float(radius), complex(center)))


def ellipse(a: float, b: float) -> AnalyticCurve:
    """Axis-aligned ellipse a*cos(t) + i*b*sin(t), centered at the origin."""
    if a <= 0 or b <= 0:
        raise CurveError("ellipse semi-axes must be positive")
    cp = complex((a + b) / 2.0)
    cm = complex((a - b) / 2.0)
    return AnalyticCurve((cm, 0j, cp), kind="ellipse", params=(float(a), float(b)))


def trig_curve(pairs) -> AnalyticCurve:
    """Build a curve from (k, c_k) pairs; missing coefficients are zero.  A
    NaN or infinite part of a c_k is a CurveError naming its pair."""
    pairs = [(int(k), complex(c)) for k, c in pairs]
    if not pairs:
        raise CurveError("empty coefficient list")
    for k, c in pairs:
        if not cmath.isfinite(c):
            raise CurveError(f"coefficient pair ({k}, {c}) is not finite")
    kmax = max(abs(k) for k, _ in pairs)
    coeffs = [0j] * (2 * kmax + 1)
    for k, c in pairs:
        coeffs[kmax + k] += c
    return AnalyticCurve(tuple(coeffs))


def _coeff_array(curve: AnalyticCurve):
    return np.asarray(curve.coeffs, dtype=complex)


def eval_curve(curve: AnalyticCurve, t):
    """gamma(t); t may be a scalar or an array."""
    tarr = np.asarray(t, dtype=float)
    ks = np.arange(-curve.order, curve.order + 1)
    vals = np.exp(1j * np.multiply.outer(tarr, ks)) @ _coeff_array(curve)
    return vals if tarr.ndim else complex(vals)


def curve_derivative(curve: AnalyticCurve, t):
    """gamma'(t); t may be a scalar or an array."""
    tarr = np.asarray(t, dtype=float)
    ks = np.arange(-curve.order, curve.order + 1)
    weights = 1j * ks * _coeff_array(curve)
    vals = np.exp(1j * np.multiply.outer(tarr, ks)) @ weights
    return vals if tarr.ndim else complex(vals)


@dataclass(frozen=True)
class BoundaryPoint:
    """A point of the curve with its two unit normals.

    n1 points into the bounded side (for positive orientation), n2 = -n1.
    """

    t: float
    point: complex
    n1: complex
    n2: complex


def unit_normals(curve: AnalyticCurve, t):
    """(n1, n2) at parameter t.  n1 = i * gamma'/|gamma'|."""
    d = curve_derivative(curve, t)
    speed = np.abs(d)
    if np.any(speed < 1e-12):
        raise CurveError(f"degenerate tangent at t={t}")
    n1 = 1j * d / speed
    return n1, -n1


def boundary_point(curve: AnalyticCurve, t: float) -> BoundaryPoint:
    n1, n2 = unit_normals(curve, t)
    return BoundaryPoint(float(t), complex(eval_curve(curve, t)), complex(n1), complex(n2))


def sample_grid(boundary, m: int, tangents: bool = False):
    """(ts, points), or (ts, points, tangents) for a curve, on the uniform
    m-point grid t_j = 2 pi j / m of a curve or an arc.

    Computed on first use and kept read-only, so every later call with the
    same m (any caller) reads the same arrays back: the points and tangents
    on the object, ts in _T_GRIDS, shared by every curve and arc."""
    ts = _T_GRIDS.get(m)
    if ts is None:
        ts = _memo_put(_T_GRIDS, m, _readonly(np.arange(m) * (TWO_PI / m)))
    grid = boundary._grids.get(m)
    if grid is None:
        grid = (_readonly(_boundary_points(boundary, ts)),)
    if tangents and len(grid) == 1:
        grid += (_readonly(curve_derivative(boundary, ts)),)
    boundary._grids[m] = grid
    return (ts, *grid) if tangents else (ts, grid[0])


def _boundary_points(boundary, t):
    """gamma(t) on a curve, or the arc point reached from t (arc_point)."""
    if isinstance(boundary, ArcOpenUp):
        return arc_point(boundary, t)
    return eval_curve(boundary, t)


def _readonly(arr):
    arr.flags.writeable = False
    return arr


def _memo_put(memo: dict, key, value, cap: int = _MEMO_CAP):
    """memo[key] = value, first dropping the oldest entry when memo already
    holds cap; returns value."""
    if len(memo) >= cap:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


def winding_number(curve: AnalyticCurve, z: complex, m: int = 2048) -> int:
    """Winding of gamma about z via the trapezoid rule (spectrally exact)."""
    _, pts, dpts = sample_grid(curve, m, tangents=True)
    dif = pts - z
    if np.min(np.abs(dif)) < 1e-9:
        raise CurveError(f"point {z} is on (or too close to) the curve")
    w = np.mean(dpts / dif) / 1j
    wr = float(w.real)
    if abs(wr - round(wr)) > 0.1 or abs(w.imag) > 0.1:
        raise CurveError(f"ambiguous winding number {w} about {z}")
    return int(round(wr))


def point_in_curve(curve: AnalyticCurve, z: complex) -> bool:
    return winding_number(curve, z) != 0


def distance_to_curve(boundary, z: complex) -> float:
    """Sampled distance from z to a curve or an arc."""
    _, pts = sample_grid(boundary, _DISTANCE_M)
    return float(np.min(np.abs(pts - z)))


@dataclass(frozen=True)
class CurveReport:
    grid: int
    speed_min: float
    simplicity_margin: float
    winding: int
    speed_ok: bool
    simple_ok: bool
    orientation_ok: bool

    @property
    def ok(self) -> bool:
        return self.speed_ok and self.simple_ok and self.orientation_ok


# pairs per block of the simplicity scan: 120 KiB of complex differences,
# under glibc's 128 KiB mmap threshold, so a block's temporaries come from
# the heap instead of fresh pages that fault on every call
_SCAN_BLOCK = 7680
# offsets after skip that the simplicity scan takes in full (the band), and
# the samples per chunk whose bounding circles prune the farther pairs; the
# band spans at least 2 (_SCAN_CHUNK - 1) offsets, so a chunk pair with a
# pair past the band has all its pairs skip or more apart
_SCAN_BAND = 32
_SCAN_CHUNK = 16


def _simplicity_margin(pts, step_scale):
    """min distance between far-apart samples, in units of 1.5 grid steps.

    A transversal self-crossing puts samples of the two branches within one
    grid step of each other, so a margin below 1 flags the curve; genuinely
    simple curves keep a fixed geometric separation and the margin grows
    linearly under grid refinement.

    Far apart is skip = max(4, m // 16) steps or more around the ring, and
    the scan is exact (the min over every such pair) at the cost of
    m * _SCAN_BAND band pairs, (m / _SCAN_CHUNK)^2 chunk bounds and
    _SCAN_CHUNK^2 pairs per survivor: the band's min prunes each chunk pair
    whose bounding circles (about the middle samples, with 1e-9 relative
    slack for their rounding) lie farther apart.  With every chunk pair
    surviving, the pairs measured are about those of the all-pairs scan.
    """
    m = len(pts)
    floor = 1.5 * step_scale
    skip, half = max(4, m // 16), m // 2
    if m < 2 * skip:
        return np.inf / floor
    # offset m - k pairs the same samples as offset k, so the offsets
    # skip..m//2 after each sample cover every pair skip..m - skip apart
    pts = np.asarray(pts)
    far = skip + _SCAN_BAND
    width = min(far, half + 1) - skip
    ahead = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([pts, pts])[skip:], width)[:m]
    rows = max(1, _SCAN_BLOCK // width)
    best = min(np.min(np.abs(ahead[i:i + rows] - pts[i:i + rows, None]))
               for i in range(0, m, rows))
    c = _SCAN_CHUNK
    idx = np.minimum(np.arange(-(-m // c) * c).reshape(-1, c), m - 1)
    chunks = pts[idx]
    centre = chunks[:, c // 2]
    radius = np.max(np.abs(chunks - centre[:, None]), axis=1)
    # the farthest cyclic distance between chunk a and a later chunk b
    lo = idx[None, :, 0] - idx[:, None, -1]
    hi = idx[None, :, -1] - idx[:, None, 0]
    reach = np.where(hi <= half, hi, np.where(lo >= m - half, m - lo, half))
    near = np.abs(centre[:, None] - centre[None, :]) < \
        (radius[:, None] + radius[None, :] + best) * (1.0 + 1e-9)
    a, b = np.nonzero(np.triu(near & (reach >= far), 1))
    rows = max(1, _SCAN_BLOCK // (c * c))
    for i in range(0, len(a), rows):
        s, t = chunks[a[i:i + rows]], chunks[b[i:i + rows]]
        best = min(best, np.min(np.abs(s[:, :, None] - t[:, None, :])))
    return best / floor


def validate_curve(curve: AnalyticCurve) -> CurveReport:
    """Checks on _VALIDATE_M points: speed, sampled simplicity, winding +1."""
    m = _VALIDATE_M
    _, pts, dpts = sample_grid(curve, m, tangents=True)
    speeds = np.abs(dpts)
    speed_min = float(np.min(speeds))
    speed_ok = speed_min > 1e-9 * float(np.max(speeds))

    margin = _simplicity_margin(pts, float(np.max(speeds)) * TWO_PI / m)
    simple_ok = bool(margin > 1.0)

    z_ref = complex(np.mean(pts))
    try:
        wind = winding_number(curve, z_ref, m)
    except CurveError:
        wind = 0
    orientation_ok = wind == 1

    return CurveReport(m, speed_min, float(margin), wind,
                       bool(speed_ok), simple_ok, orientation_ok)


def param_of_point(curve: AnalyticCurve, u: complex) -> float:
    """Parameter of a point on the curve (nearest sample + Newton)."""
    ts, pts = sample_grid(curve, _PARAM_SEED_M)
    t = float(ts[int(np.argmin(np.abs(pts - u)))])
    for _ in range(40):
        g = eval_curve(curve, t) - u
        dg = curve_derivative(curve, t)
        step = (g * dg.conjugate()).real / abs(dg) ** 2
        t -= step
        if abs(step) < 1e-14:
            break
    if abs(eval_curve(curve, t) - u) > 1e-8 * (1 + abs(u)):
        raise CurveError(f"{u} does not lie on the curve")
    return t % TWO_PI


# ---------------------------------------------------------------------------
# arcs via open-up maps
# ---------------------------------------------------------------------------

INFINITY = complex(math.inf, 0.0)


def is_infinite(z) -> bool:
    """Whether z stands for the point at infinity: a part is +-inf.  A NaN
    with no infinite part is not infinite, and is no location at all."""
    z = complex(z)
    return math.isinf(z.real) or math.isinf(z.imag)


@dataclass(frozen=True)
class RationalQuad:
    """F(u) = (n0 + n1 u + n2 u^2) / (d0 + d1 u + d2 u^2)."""

    num: tuple
    den: tuple


def rq_eval(F: RationalQuad, u):
    uarr = np.asarray(u, dtype=complex)
    n0, n1, n2 = F.num
    d0, d1, d2 = F.den
    vals = (n0 + uarr * (n1 + uarr * n2)) / (d0 + uarr * (d1 + uarr * d2))
    return vals if uarr.ndim else complex(vals)


def rq_derivative(F: RationalQuad, u):
    uarr = np.asarray(u, dtype=complex)
    n0, n1, n2 = F.num
    d0, d1, d2 = F.den
    num = n0 + uarr * (n1 + uarr * n2)
    den = d0 + uarr * (d1 + uarr * d2)
    dnum = n1 + 2 * n2 * uarr
    dden = d1 + 2 * d2 * uarr
    vals = (dnum * den - num * dden) / den ** 2
    return vals if uarr.ndim else complex(vals)


def _poly_roots(c2, c1, c0):
    """Roots of c2 u^2 + c1 u + c0, padding with INFINITY as the degree drops."""
    scale = max(abs(c2), abs(c1), abs(c0))
    if scale == 0:
        raise ArcError("degenerate equation while solving the open-up map")
    tol = 1e-14 * scale
    if abs(c2) <= tol:
        if abs(c1) <= tol:
            return [INFINITY, INFINITY]
        return [-c0 / c1, INFINITY]
    roots = np.roots([c2, c1, c0])
    return [complex(r) for r in roots]


def rq_solve(F: RationalQuad, z):
    """All u with F(u) = z, infinity included on both sides."""
    n0, n1, n2 = F.num
    d0, d1, d2 = F.den
    if is_infinite(z):
        return _poly_roots(d2, d1, d0)
    return _poly_roots(n2 - z * d2, n1 - z * d1, n0 - z * d0)


def openup_preimages(arc: ArcOpenUp, z0):
    """The two base-circle preimages (u1, u2) of an interior arc point.

    u1 is the preimage with the larger imaginary part (ties broken by larger
    real part); this fixes which arc side each unit normal points into.
    """
    roots = [r for r in rq_solve(arc.fmap, complex(z0)) if not is_infinite(r)]
    if len(roots) != 2:
        raise ArcError(f"expected two finite preimages of {z0}")
    for r in roots:
        if abs(abs(r) - 1.0) > 1e-8:
            raise ArcError(f"{z0} is not an interior arc point "
                           "(preimage off the base circle)")
    # a true double root splits by ~sqrt(machine eps) under rounding, so
    # the collision tolerance must sit well above 1e-8 yet below the
    # ~sqrt(d) separation of preimages a genuine distance d from the end
    if abs(roots[0] - roots[1]) < 1e-6 * max(1.0, abs(roots[0])):
        raise ArcError(f"{z0} is an arc endpoint (coincident preimages)")
    r0, r1 = roots
    if (r0.imag, r0.real) >= (r1.imag, r1.real):
        return r0, r1
    return r1, r0


@dataclass(frozen=True)
class ArcOpenUp:
    """An arc described by its 2:1 open-up map F.

    F maps both the interior and the exterior of the unit circle
    conformally onto the complement of the arc; z0 is a reference interior
    point of the arc kept for validation.
    """

    fmap: RationalQuad
    z0: complex

    @cached_property
    def _grids(self) -> dict:
        """sample_grid's memo, as AnalyticCurve._grids."""
        return {}


def segment_arc(za: complex = -1.0, zb: complex = 1.0) -> ArcOpenUp:
    """Straight segment [za, zb] opened up by a scaled Joukowski map."""
    za, zb = complex(za), complex(zb)
    if za == zb:
        raise ArcError("segment endpoints coincide")
    c = (za + zb) / 2.0
    s = (zb - za) / 2.0
    # c + s*(u + 1/u)/2 = (s u^2 + 2 c u + s) / (2 u)
    F = RationalQuad((s, 2 * c, s), (0j, 2 + 0j, 0j))
    return ArcOpenUp(F, c)


def circular_arc(theta0: float, radius: float = 1.0, center: complex = 0j,
                 rotation: float = 0.0) -> ArcOpenUp:
    """Arc of a circle subtending angles [-theta0, theta0] (then rotated).

    Built as a Moebius-conjugated Joukowski map: J takes the unit circle to
    [-1, 1] and the Moebius factor carries [-1, 1] back onto the arc.
    """
    if not 0 < theta0 < math.pi:
        raise ArcError("theta0 must lie in (0, pi)")
    tau = math.tan(theta0 / 2.0)
    # mu^{-1}(w) = (i - tau w)/(i + tau w) maps [-1,1] onto the unit-circle arc
    # |phi| <= theta0; conjugate with J(u) = (u^2+1)/(2u).
    num = (-tau + 0j, 2j, -tau + 0j)
    den = (tau + 0j, 2j, tau + 0j)
    rot = cmath.exp(1j * rotation) * radius
    # post-compose with the similarity center + rot * w
    n = tuple(center * d + rot * nn for nn, d in zip(num, den))
    F = RationalQuad(n, den)
    return ArcOpenUp(F, center + rot)


def arc_point(arc: ArcOpenUp, t):
    """Point of the arc reached from the unit-circle point e^{it}."""
    return rq_eval(arc.fmap, np.exp(1j * np.asarray(t, dtype=float)))


def arc_endpoints(arc: ArcOpenUp):
    """Endpoints = critical values of F on the unit circle."""
    n0, n1, n2 = arc.fmap.num
    d0, d1, d2 = arc.fmap.den
    # numerator of F' is a quadratic: (n'd - nd') with the u^3 terms cancelling
    c2 = n2 * d1 - n1 * d2
    c1 = 2 * (n2 * d0 - n0 * d2)
    c0 = n1 * d0 - n0 * d1
    roots = [r for r in _poly_roots(c2, c1, c0) if not is_infinite(r)]
    ends = [complex(rq_eval(arc.fmap, r)) for r in roots
            if abs(abs(r) - 1.0) < 1e-9]
    if len(ends) != 2:
        raise ArcError("open-up map must have exactly two critical points "
                       "on the unit circle")
    return ends[0], ends[1]


@dataclass(frozen=True)
class OpenUpReport:
    preimage_residual: float
    critical_min: float
    injectivity_ok: bool

    @property
    def ok(self) -> bool:
        return (self.preimage_residual < 1e-9 and self.critical_min > 1e-12
                and self.injectivity_ok)


def validate_openup(arc: ArcOpenUp) -> OpenUpReport:
    """Sampled sanity checks for the open-up structure."""
    u1, u2 = openup_preimages(arc, arc.z0)
    res = max(abs(rq_eval(arc.fmap, u1) - arc.z0),
              abs(rq_eval(arc.fmap, u2) - arc.z0))
    crit = min(abs(rq_derivative(arc.fmap, u1)), abs(rq_derivative(arc.fmap, u2)))

    # injectivity of F on a sampled interior grid
    rads = np.linspace(0.15, 0.9, 6)
    angs = np.arange(_OPENUP_M) * (TWO_PI / _OPENUP_M)
    grid = (rads[:, None] * np.exp(1j * angs)[None, :]).ravel()
    vals = rq_eval(arc.fmap, grid)
    vals = vals[np.isfinite(vals.real) & np.isfinite(vals.imag)]
    inj = True
    scale = float(np.max(np.abs(vals))) + 1.0
    for i in range(len(vals)):
        d = np.abs(vals[i + 1:] - vals[i])
        if d.size and np.min(d) < 1e-10 * scale:
            inj = False
            break
    return OpenUpReport(float(res), float(crit), inj)
