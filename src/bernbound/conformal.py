"""Riemann maps for both sides of an analytic curve, anchored at a boundary point.

The interior map Phi1 : D -> G1 and exterior map Phi2 : D* -> G2 are both
normalized so that Phi(1) = u0 and |Phi'(1)| = 1.  Each map is stored as a
core series (Taylor about 0, or Laurent about infinity) pre-composed with a
disk automorphism  v -> rot * (v + s)/(1 + s v)  realizing the normalization;
the hyperbolic factor fixes +-1 and scales the boundary derivative by
(1 - s)/(1 + s).

General curves are solved by Wegmann's method for the boundary
correspondence in the curve parameter t (_wegmann) about z_c = c_0, which
the curve must wind once about; the exterior problem is the same iteration
on the inverted boundary w = 1/(u - z_c).  Each step is damped and takes its
products on the 2m-point grid; the iteration stops when the correction is
small or no damped step lowers it, and the series tail then decides, on
each grid of _GRIDS in turn, until it is at most _TAIL_TOL ("series
unresolved" past the last, the one refusal).  Circles get the exact linear
map on both sides, the ellipse exterior the Joukowski-type closed form;
map_invert inverts these exactly and runs Newton only on series maps.

A map keeps only what evaluation, inversion and the map cache read: the core
series, the prefix (rot, s), the anchor and the derivative there, the grid
size m the series was resolved on (its uniform ring seeds map_invert), the
extension margin and the truncation tail.  The boundary correspondence
Wegmann's iteration solves for builds the series and is then dropped.
Arrays derived from those fields (the series and its derivative as complex
arrays, map_invert's seed ring) are memoized on the map object on first
use, read-only; they are not fields, so they are never serialized, and
replace() or map_from_dict starts a map with an empty memo.

A series map also memoizes map_invert's answers (_preimages): the key is
the exact finite target batch (target.tobytes(), not a single point, since
the series kernel's product rounds a point differently by batch size), the
value the read-only preimages in Newton's variable.  Only a batch of at
most _MEMO_CAP (64) points whose every residual passed is kept, so a
failure raises again on every call; a map keeps at most _MEMO_CAP batches
and drops the oldest first.  A hit skips Newton but takes its residual
again, by one evaluation (map_eval inside, the core outside, where Newton
ran), and passes the same check as a cold call.  Closed forms are inverted
exactly on every call and keep no such memo.
"""
from __future__ import annotations

import json
import math
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .curves import (_MEMO_CAP, TWO_PI, AnalyticCurve, BoundaryPoint,
                     _coeff_array, _memo_put, _readonly, _simplicity_margin,
                     eval_curve, winding_number)
from .errors import CurveError, MapError, MapInvertError

_MARGIN_LADDER = tuple(0.02 * 1.25 ** j for j in range(22))
_INF = complex(math.inf, 0.0)
_TRIM_REL = 1e-14
_GRIDS = (1024, 2048, 4096, 8192)  # solve grids, tried in turn
_TAIL_TOL = 1e-12
# _wegmann's tolerance on max |U|, its step cap and its damped step lengths
# 1, 1/2, ..., 2^-6
_SOLVE_TOL = 1e-13
_MAX_ITER = 50
_STEPS = tuple(0.5 ** j for j in range(7))
_SERIES_MIN = 8       # a series core keeps at least this many terms
_MARGIN_M = 512       # ring size of the sampled margin walk
_INVERT_TOL = 1e-13   # map_invert's relative residual, |Phi(v) - u| / (1 + |u|)


@dataclass(frozen=True)
class ConformalMap:
    side: str              # "interior" | "exterior"
    series: tuple          # core coefficients, see module docstring
    rot: complex           # unit-modulus rotation of the normalization prefix
    s: float               # hyperbolic normalization parameter, |s| < 1
    anchor: complex        # u0 = Phi(1)
    anchor_deriv: complex  # Phi'(1), unit modulus by construction
    grid: int              # m, the solve grid (_GRIDS[0] if closed form)
    delta: float           # extension margin beyond |v| = 1: half the last
                           # _MARGIN_LADDER rung in the unbroken univalent
                           # prefix, exact for the closed forms (circle,
                           # ellipse exterior), sampled for series maps
    tail: float            # relative mass dropped when the series was cut

    @cached_property
    def _coeffs(self):
        """The series as a read-only complex array."""
        return _readonly(np.asarray(self.series, dtype=complex))

    @cached_property
    def _deriv_coeffs(self):
        """Read-only power-series coefficients of the core derivative: k c_k
        of sum_k k c_k w^(k-1) inside, (k-1) c_k (k >= 2) of
        c_0 - sum_k (k-1) c_k w^-k outside."""
        c = self._coeffs
        ks = np.arange(len(c))
        if self.side == "interior":
            return _readonly(ks[1:] * c[1:])
        return _readonly((ks[2:] - 1) * c[2:])

    @cached_property
    def _seed_ring(self):
        """(vb, Phi(vb)) on every (m // 128)-th point of the solve's
        uniform ring: map_invert's boundary seeds."""
        m = self.grid
        stride = max(1, m // 128)
        vb = np.exp(1j * np.arange(0, m, stride) * (TWO_PI / m))
        return _readonly(vb), _readonly(map_eval(self, vb))

    @cached_property
    def _preimages(self) -> dict:
        """map_invert's memo for a series map: the exact finite target batch
        (target.tobytes()) -> its accepted preimages in _newton's variable,
        read-only; at most _MEMO_CAP batches of at most _MEMO_CAP points."""
        return {}


@dataclass(frozen=True)
class MapPair:
    curve: AnalyticCurve
    interior: ConformalMap
    exterior: ConformalMap

    @property
    def delta1(self) -> float:
        """Univalence excess of the interior map beyond the closed disk."""
        return self.interior.delta

    @property
    def anchor(self) -> complex:
        return self.interior.anchor


# ---------------------------------------------------------------------------
# evaluation through the normalization prefix
# ---------------------------------------------------------------------------

def _moebius(cmap, v):
    return cmap.rot * (v + cmap.s) / (1.0 + cmap.s * v)


def _moebius_deriv(cmap, v):
    return cmap.rot * (1.0 - cmap.s ** 2) / (1.0 + cmap.s * v) ** 2


def _poly_eval(c, x):
    """sum_k c[k] x^k at every point of x, by baby-step giant-step
    (Paterson-Stockmeyer): the powers x^0..x^(L-1), L ~ sqrt(len(c)), one
    matrix product over the length-L coefficient blocks, then Horner in x^L
    over the blocks.  About 2 sqrt(len(c)) array operations, not 2 len(c)."""
    c = np.asarray(c, dtype=complex)
    x = np.asarray(x, dtype=complex)
    xs = x.ravel()
    size = max(len(c), 1)
    step = math.isqrt(size - 1) + 1  # L = ceil(sqrt(len(c)))
    blocks = np.zeros((-(-size // step), step), dtype=complex)
    blocks.flat[:len(c)] = c
    powers = np.empty((step, len(xs)), dtype=complex)
    powers[0] = 1.0
    for j in range(1, step):
        np.multiply(powers[j - 1], xs, out=powers[j])
    vals = blocks @ powers
    giant = powers[-1] * xs
    acc = vals[-1]  # vals is ours, so Horner may run in place
    for row in vals[-2::-1]:
        acc *= giant
        acc += row
    return acc.reshape(x.shape)


def _core_eval(cmap, w):
    c = cmap._coeffs
    if cmap.side == "interior":
        return _poly_eval(c, w)
    # exterior core: c[0]*w + c[1] + c[2]/w + c[3]/w^2 + ...
    return _poly_eval(c[1:], 1.0 / w) + c[0] * w


def _core_deriv(cmap, w):
    if cmap.side == "interior":
        return _poly_eval(cmap._deriv_coeffs, w)
    iw = 1.0 / w
    return cmap._coeffs[0] - _poly_eval(cmap._deriv_coeffs, iw) * iw * iw


def _domain_limits(cmap):
    d = max(cmap.delta, 0.0)
    if cmap.side == "interior":
        return 0.0, 1.0 + d
    return max(1.0 - d, 1e-12), math.inf


def exterior_pole(cmap: ConformalMap) -> complex:
    """The v in the closed exterior disk with Phi2(v) = infinity."""
    if cmap.side != "exterior":
        raise MapError("only exterior maps carry a pole")
    if cmap.s == 0.0:
        return _INF
    return complex(-1.0 / cmap.s)


def _value_at_infinity(cmap):
    if cmap.s == 0.0:
        return _INF
    w = cmap.rot / cmap.s  # limit of the prefix at v = infinity
    return complex(_core_eval(cmap, np.atleast_1d(complex(w)))[0])


def map_eval(cmap: ConformalMap, v):
    """Phi(v) for scalars or arrays, guarding the verified domain.  A
    non-finite v stands for infinity (exterior maps only)."""
    varr = np.asarray(v, dtype=complex)
    scalar = varr.ndim == 0
    varr = np.atleast_1d(varr)
    fin = np.isfinite(varr)
    every = bool(fin.all())
    if not every and cmap.side != "exterior":
        raise MapError("interior map evaluated at infinity")
    vfin = varr if every else varr[fin]
    if vfin.size:
        r = np.abs(vfin)
        lo, hi = _domain_limits(cmap)
        tol = 1e-12
        if r.min() < lo - tol or r.max() > hi + tol:
            raise MapError(f"evaluation outside the verified {cmap.side} domain")
    if every:
        out = _core_eval(cmap, _moebius(cmap, varr))
    else:
        out = np.empty(varr.shape, dtype=complex)
        out[~fin] = _value_at_infinity(cmap)
        if vfin.size:
            out[fin] = _core_eval(cmap, _moebius(cmap, vfin))
    return complex(out[0]) if scalar else out


def map_derivative(cmap: ConformalMap, v):
    varr = np.asarray(v, dtype=complex)
    scalar = varr.ndim == 0
    varr = np.atleast_1d(varr).astype(complex)
    w = _moebius(cmap, varr)
    out = _core_deriv(cmap, w) * _moebius_deriv(cmap, varr)
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Wegmann's method
# ---------------------------------------------------------------------------

def _conjugate_periodic(x):
    """Boundary conjugation operator: mode k picks up a factor -i*sign(k)."""
    m = len(x)
    f = np.fft.fft(x)
    mult = np.zeros(m, dtype=complex)
    mult[1:(m + 1) // 2] = -1j
    mult[m // 2 + 1:] = 1j
    return np.real(np.fft.ifft(f * mult))


def _wegmann(curve, center, m, sign):
    """Wegmann's method for the correspondence S (in the curve parameter, on
    the m-point theta grid, from S = theta) of g = gamma(S) - center (sign
    +1) or g = 1/(gamma(-S) - center) (sign -1, on tau = -t), mapped with
    f(0) = 0.  A step S + lam U takes the first lam of _STEPS that keeps S
    increasing and lowers the 2-norm of U (max |U| stalls on a local bump of
    U), until max |U| < _SOLVE_TOL, no lam passes or _MAX_ITER steps.  U
    has mean 0, so f keeps the rotation of the disk S = theta starts from
    (_turned fixes it).  Returns gamma(S), whose series tail then decides."""
    s = np.arange(m) * (TWO_PI / m)
    u = _wegmann_step(curve, center, sign, s)
    for _ in range(_MAX_ITER):
        if not np.max(np.abs(u)) >= _SOLVE_TOL:  # a NaN residual stops too
            break
        for lam in _STEPS:
            s_try = s + lam * u
            if np.all(np.diff(s_try, append=s_try[0] + TWO_PI) > 0):
                u_try = _wegmann_step(curve, center, sign, s_try)
                if np.linalg.norm(u_try) < np.linalg.norm(u):
                    s, u = s_try, u_try
                    break
        else:
            break
    return eval_curve(curve, sign * s)


def _wegmann_step(curve, center, sign, s):
    """Wegmann's correction U at s (see _wegmann), computed on the 2m-point
    grid that s - theta is interpolated onto, so that no product aliases.
    With psi = arg(i g' e^(-i theta)) unwrapped and E = exp(i psi - K[psi]),
    f = E G solves Re(conj(i g') (f - g)) = 0 when G = sum g_k z^k has g_1 =
    c_0 + i tau, g_k = 2 c_(k-1) for 2 <= k < m, c_n the Fourier
    coefficients of Im(conj(g') g) / |g' E|.  tau, which turns the disk,
    gives U = Re((f - g) / g') mean 0: the step never has to turn it, and
    tau is finite whatever the rotation S = theta starts from."""
    m, n = len(s), 2 * len(s)
    spec = np.fft.rfft(s - np.arange(m) * (TWO_PI / m))
    spec[-1] /= 2.0  # the Nyquist mode, split between +-m/2
    theta2 = np.arange(n) * (TWO_PI / n)
    s2 = theta2 + 2.0 * np.fft.irfft(spec, n)
    ks, c = np.arange(-curve.order, curve.order + 1), _coeff_array(curve)
    jet = np.exp(1j * np.multiply.outer(sign * s2, ks))
    g = jet @ c - center
    dg = jet @ (1j * ks * c)
    if sign < 0:
        g = 1.0 / g
        dg = dg * g * g  # d/dtau 1/(gamma(-tau) - center) = gamma' g^2
    psi = np.unwrap(np.angle(1j * dg * np.exp(-1j * theta2)))
    kpsi = _conjugate_periodic(psi)
    e = np.exp(1j * psi - kpsi)
    ck = np.fft.fft((dg.conj() * g).imag / (np.abs(dg) * np.exp(-kpsi))) / n
    gk = np.zeros(n, dtype=complex)
    gk[1] = ck[0].real
    gk[2:m] = 2.0 * ck[1:m - 1]
    u = ((e * (np.fft.ifft(gk) * n) - g) / dg).real[::2]  # at the m points
    # g_1 + i tau turns the disk and adds -tau exp(-K[psi]) / |g'| to U
    weight = (np.exp(-kpsi) / np.abs(dg))[::2]
    return u - weight * (np.mean(u) / np.mean(weight))


def _turned(bins):
    """Fourier coefficients b_k of a boundary function of the disk variable
    turned by b_k -> b_k e^(-ik arg b_1), so that b_1 > 0: f'(0) > 0 inside,
    a positive capacity outside.  Moduli, and so the tail, are unchanged."""
    return bins * np.exp(-1j * np.angle(bins[1])
                         * np.fft.fftfreq(len(bins), 1.0 / len(bins)))


def _trim_series(series):
    """series cut after its last coefficient above _TRIM_REL of the
    largest, keeping (zero-padded if need be) at least _SERIES_MIN terms,
    so that no series core is as short as a closed form (_is_closed_form)."""
    series = np.asarray(series, dtype=complex)
    mods = np.abs(series)
    big = np.nonzero(mods > _TRIM_REL * np.max(mods, initial=0.0))[0]
    cut = max(int(big[-1]) + 1 if len(big) else 0, _SERIES_MIN)
    return np.pad(series[:cut], (0, max(0, cut - len(series))))


def _interior_core(curve, z_c, m):
    """Raw interior map about z_c: series and tail."""
    bnd = _wegmann(curve, z_c, m, +1)
    bins = _turned(np.fft.fft(bnd) / m)
    kmax = m // 2
    series = np.concatenate([[z_c], bins[1:kmax]])
    scale = float(np.max(np.abs(series)))
    err = max(float(np.max(np.abs(bins[kmax:]))), abs(bins[0] - z_c))
    series = _trim_series(series)
    return series, max(err / scale, _TRIM_REL)


def _exterior_core(curve, z_c, m):
    """Raw exterior map through the inversion w = 1/(u - z_c)."""
    bnd = _wegmann(curve, z_c, m, -1)
    # Psi(e^{i theta}) = z_c + 1/W(e^{-i theta}) = gamma at W's theta_{m-j}
    bins = _turned(np.fft.fft(np.concatenate([bnd[:1], bnd[1:][::-1]])) / m)
    kmax = m // 2
    series = np.concatenate([bins[1:2], bins[0:1], bins[:kmax:-1]])
    scale = float(np.max(np.abs(series)))
    err = float(np.max(np.abs(bins[2:kmax + 1])))
    series = _trim_series(series)
    return series, max(err / scale, _TRIM_REL)


def _closed_exterior_ellipse(a, b):
    return np.array([(a + b) / 2.0, 0.0, (a - b) / 2.0], dtype=complex)


# ---------------------------------------------------------------------------
# normalization and margin measurement
# ---------------------------------------------------------------------------

def _raw_map(side, series, tail, m):
    return ConformalMap(side, tuple(np.asarray(series, dtype=complex)),
                        1.0 + 0j, 0.0, 0j, 0j, int(m), 0.0, float(tail))


def normalize_at_anchor(raw: ConformalMap, u0: BoundaryPoint) -> ConformalMap:
    """Fix the automorphism freedom: Phi(1) = u0.point, |Phi'(1)| = 1.

    The anchor preimage angle of the core map supplies the rotation; the
    hyperbolic factor (v + s)/(1 + s v) then corrects |Phi'(1)|.
    """
    m = raw.grid
    thetas = np.arange(m) * (TWO_PI / m)
    ring = np.exp(1j * thetas)
    vals = _core_eval(raw, ring)
    theta0 = float(thetas[int(np.argmin(np.abs(vals - u0.point)))])
    uscale = 1.0 + abs(u0.point)
    for _ in range(60):
        w = complex(np.exp(1j * theta0))
        f = complex(_core_eval(raw, np.atleast_1d(w))[0]) - u0.point
        if abs(f) < 1e-14 * uscale:
            break
        d = complex(_core_deriv(raw, np.atleast_1d(w))[0]) * 1j * w
        step = (f / d).real
        theta0 -= step
        if abs(step) < 1e-15:
            break
    w0 = complex(np.exp(1j * theta0))
    resid = abs(complex(_core_eval(raw, np.atleast_1d(w0))[0]) - u0.point)
    if resid > 1e-8 * uscale:
        raise MapError("anchor preimage search failed", residual=resid)

    lam = abs(complex(_core_deriv(raw, np.atleast_1d(w0))[0]))
    if lam <= 0.0:
        raise MapError("vanishing boundary derivative at the anchor")
    s = (lam - 1.0) / (lam + 1.0)
    out = replace(raw, rot=w0, s=float(s))
    return replace(out, anchor=complex(map_eval(out, 1.0 + 0j)),
                   anchor_deriv=complex(map_derivative(out, 1.0 + 0j)))


def _ladder_margin(cmap: ConformalMap, rung_ok) -> float:
    """Half the last rung of the unbroken prefix of _MARGIN_LADDER that
    passes rung_ok(d); exterior rungs stop below 0.9.  The walk is linear:
    the checks are not monotone in d, so a bisection could skip a failure."""
    best = 0.0
    for d in _MARGIN_LADDER:
        if (cmap.side == "exterior" and d >= 0.9) or not rung_ok(d):
            break
        best = d
    return best / 2.0


def _measure_margin(cmap: ConformalMap) -> float:
    """Ladder margin of a series map: at each rung the analytically
    continued map must pass sampled univalence, derivative, and truncation
    checks on _MARGIN_M points of the circle |v| = 1 +- d, past map_eval's
    domain guard."""
    ring = np.exp(1j * np.arange(_MARGIN_M) * (TWO_PI / _MARGIN_M))
    klast = len(cmap.series) - 1

    def rung_ok(d):
        radius = 1.0 + d if cmap.side == "interior" else 1.0 - d
        v = radius * ring
        w = _moebius(cmap, v)
        pts = _core_eval(cmap, w)
        if not np.all(np.isfinite(pts.real) & np.isfinite(pts.imag)):
            return False
        scale = max(float(np.max(np.abs(pts))), 1.0)
        growth = radius ** klast if cmap.side == "interior" else radius ** (-klast)
        if cmap.tail > _TRIM_REL and cmap.tail * growth > 1e-8 * scale:
            return False
        der = _core_deriv(cmap, w) * _moebius_deriv(cmap, v)
        if np.min(np.abs(der)) < 1e-10 * scale:
            return False
        gaps = np.abs(np.diff(np.concatenate([pts, pts[:1]])))
        return _simplicity_margin(pts, float(np.max(gaps))) >= 1.0

    return _ladder_margin(cmap, rung_ok)


def _critical_radius(c) -> float:
    """rho_c of a closed-form core: sqrt(|c2|/|c0|) for c0 w + c1 + c2/w,
    0 for a 2-term Moebius core.  The quotient of moduli, not |c2/c0|:
    numpy's complex division rounds the ellipse's real ratio
    (a - b)/(a + b) differently for some a, b (a = 40, b = 0.5)."""
    return math.sqrt(abs(c[2]) / abs(c[0])) if len(c) == 3 else 0.0


def _closed_margin(cmap: ConformalMap) -> float:
    """Ladder margin of a closed-form core from exact rung tests.  The core
    is the Moebius c0 + c1 w or c0 w + c1 (2 terms), univalent on the whole
    plane (rho_c = 0), or c0 w + c1 + c2/w (3 terms, exterior), univalent
    for |w| > rho_c = sqrt(|c2/c0|).  Interior: the prefix pole |v| = 1/|s|
    lies beyond |v| = 1 + d.  Exterior: when R = 1 - d exceeds |s|, the
    prefix sends |v| > R outside |w| = (R - |s|)/(1 - |s| R), which must
    clear rho_c."""
    s = abs(cmap.s)
    rho_c = _critical_radius(cmap.series)

    def rung_ok(d):
        if cmap.side == "interior":
            return (1.0 + d) * s < 1.0
        r = 1.0 - d
        return rho_c == 0.0 or (r > s and (r - s) / (1.0 - s * r) > rho_c)

    return _ladder_margin(cmap, rung_ok)


def _with_margin(cmap):
    """cmap with its ladder margin: exact for a closed-form core
    (_closed_margin), sampled (_measure_margin) for a series."""
    if _is_closed_form(cmap):
        return replace(cmap, delta=_closed_margin(cmap))
    return replace(cmap, delta=_measure_margin(cmap))


# ---------------------------------------------------------------------------
# public solvers
# ---------------------------------------------------------------------------

def _interior_center(curve):
    """c_0, the centre of both solves; a MapError unless gamma winds once."""
    z_c = complex(curve.coeffs[curve.order])
    with suppress(CurveError):
        if winding_number(curve, z_c) == 1:
            return z_c
    raise MapError(f"curve does not wind once about its centre {z_c}")


def _resolved_core(core, curve):
    """(series, tail, m) of the first grid m of _GRIDS on which
    core(curve, z_c, m) measures a tail of at most _TAIL_TOL."""
    z_c = _interior_center(curve)
    for m in _GRIDS:
        series, tail = core(curve, z_c, m)
        if tail <= _TAIL_TOL:
            return series, tail, m
    raise MapError(f"series unresolved at m={m}: tail {tail:.3e}")


def solve_interior_map(curve: AnalyticCurve,
                       u0: BoundaryPoint) -> ConformalMap:
    """Normalized Riemann map of the open unit disk onto the bounded side."""
    if curve.kind == "circle":
        r, c = curve.params
        core = np.array([c, r], dtype=complex), 0.0, _GRIDS[0]
    else:
        core = _resolved_core(_interior_core, curve)
    return _with_margin(normalize_at_anchor(_raw_map("interior", *core), u0))


def solve_exterior_map(curve: AnalyticCurve,
                       u0: BoundaryPoint) -> ConformalMap:
    """Normalized Riemann map of {|v| > 1} onto the unbounded side: the
    closed form for circles and ellipses, the inversion route otherwise."""
    if curve.kind == "circle":
        r, c = curve.params
        core = np.array([r, c], dtype=complex), 0.0, _GRIDS[0]
    elif curve.kind == "ellipse":
        core = _closed_exterior_ellipse(*curve.params), 0.0, _GRIDS[0]
    else:
        core = _resolved_core(_exterior_core, curve)
    return _with_margin(normalize_at_anchor(_raw_map("exterior", *core), u0))


def solve_map_pair(curve: AnalyticCurve, u0: BoundaryPoint) -> MapPair:
    return MapPair(curve, solve_interior_map(curve, u0),
                   solve_exterior_map(curve, u0))


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def _prefix_inverse(cmap, w):
    """The v with _moebius(cmap, v) = w."""
    x = w / cmap.rot
    return (x - cmap.s) / (1.0 - cmap.s * x)


def _clamp(v, lo, hi):
    """v pulled radially into lo <= |v| <= hi."""
    rad = np.maximum(np.abs(v), 1e-300)
    return v * np.where(rad > hi, hi / rad, np.where(rad < lo, lo / rad, 1.0))


def _is_closed_form(cmap) -> bool:
    """Whether the core is one of the closed forms: c0 + c1 w (circle
    interior), c0 w + c1 (circle exterior) or c0 w + c1 + c2/w (ellipse
    exterior).  Series cores keep at least _SERIES_MIN terms
    (_trim_series)."""
    n = len(cmap.series)
    assert (n >= _SERIES_MIN or n == 2
            or (n == 3 and cmap.side == "exterior")), \
        f"a {n}-term {cmap.side} core is neither a closed form nor a series"
    return n < _SERIES_MIN


def _closed_core_inverse(cmap, u):
    """The core preimages w of u for a closed-form core: the linear solve,
    or the larger-modulus root of c0 w^2 + (c1 - u) w + c2 = 0 by the
    cancellation-free quadratic formula.  The roots multiply to c2/c0, so
    that root lies in |w| >= rho_c = sqrt(|c2/c0|), where the core is
    univalent."""
    c = cmap._coeffs
    if cmap.side == "interior":
        return (u - c[0]) / c[1]
    if len(c) == 2 or c[2] == 0:
        return (u - c[1]) / c[0]
    b = c[1] - u
    root = np.sqrt(b * b - 4.0 * c[0] * c[2])
    root = np.where((b.conjugate() * root).real >= 0.0, root, -root)
    return -0.5 * (b + root) / c[0]


def _newton_seeds(cmap, target):
    """Newton seeds for a series map, one row per point in the order that
    point tries them, and their residuals Phi(seed) - u: the two nearest
    of the memoized ring samples (_seed_ring) and, for interior maps, the
    linear seed (u - c0)/c1 taken through the prefix inverse, ordered by
    ascending |residual|.  The ring residuals are free; the linear seeds
    cost one map_eval."""
    vb, ub = cmap._seed_ring
    gap = ub - target[:, None]
    dist = np.abs(gap)
    rows = np.arange(len(target))
    seeds, res = [], []
    for _ in range(2):
        k = dist.argmin(axis=1)
        dist[rows, k] = np.inf
        seeds.append(vb[k])
        res.append(gap[rows, k])
    c = cmap._coeffs
    if cmap.side == "interior" and c[1] != 0:
        lin = _prefix_inverse(cmap, (target - c[0]) / c[1])
        ok = np.abs(lin) < 1.0
        lin_res = np.full(len(target), np.inf, dtype=complex)
        if np.any(ok):
            lin_res[ok] = map_eval(cmap, lin[ok]) - target[ok]
        seeds.insert(0, lin)
        res.insert(0, lin_res)
    seeds, res = np.array(seeds).T, np.array(res).T
    order = np.argsort(np.abs(res), axis=1, kind="stable")
    return (np.take_along_axis(seeds, order, axis=1),
            np.take_along_axis(res, order, axis=1))


def _newton_chart(cmap, lo, hi):
    """(to_z, f, df, clamp, to_v) for the variable z that _newton iterates
    in: v -> z for the seeds, the map and its derivative in z, the radial
    clamp of v into lo <= |v| <= hi and z -> v.  Interior maps run in v.
    Exterior maps (hi = inf) run in the core variable w = _moebius(cmap, v),
    exact both ways: there v = infinity is the ordinary point w = rot/s
    once s != 0, so a point at or near the finite value Phi2(infinity)
    converges instead of running off in v."""
    if cmap.side == "interior":
        return (lambda v: v, lambda z: map_eval(cmap, z),
                lambda z: map_derivative(cmap, z),
                lambda z: _clamp(z, lo, hi), lambda z: z)

    def clamp(w):
        with np.errstate(divide="ignore", invalid="ignore"):
            v = _prefix_inverse(cmap, w)  # not finite at w = rot/s: v = inf
        low = np.abs(v) < lo
        w[low] = _moebius(cmap, _clamp(v[low], lo, hi))
        return w

    def to_v(w):
        with np.errstate(divide="ignore", invalid="ignore"):
            v = _prefix_inverse(cmap, w)
        return np.where(np.isfinite(v), v, _INF)

    return (lambda v: _moebius(cmap, v), lambda w: _core_eval(cmap, w),
            lambda w: _core_deriv(cmap, w), clamp, to_v)


def _newton(cmap, target, atol, chart):
    """Damped Newton from each point's seeds (_newton_seeds) in turn, until
    |Phi(v) - u| < atol: a seed gets at most 80 steps, each halved down
    to 2^-12 until it lowers the residual and clamped into lo <= |v| <= hi,
    in the variable z of the chart (_newton_chart).  Returns z and the
    residual Phi(v) - u."""
    seeds, seed_res = _newton_seeds(cmap, target)
    to_z, f, df, clamp, _ = chart
    z = np.empty(len(target), dtype=complex)
    r = np.full(len(target), np.inf, dtype=complex)  # Phi(v) - u
    for seed, res in zip(to_z(seeds).T, seed_res.T):
        live = ~(np.abs(r) < atol) & np.isfinite(res)
        if not np.any(live):
            continue
        z[live], r[live] = seed[live], res[live]
        for _ in range(80):
            live &= ~(np.abs(r) < atol)
            idx = np.nonzero(live)[0]
            if not len(idx):
                break
            d = df(z[idx])
            ok = (d != 0) & np.isfinite(np.abs(d))
            live[idx[~ok]] = False
            idx, step = idx[ok], r[idx[ok]] / d[ok]
            lam = 1.0
            while lam > 2 ** -12 and len(idx):
                zt = clamp(z[idx] - lam * step)
                rt = f(zt) - target[idx]
                win = np.abs(rt) < np.abs(r[idx])
                z[idx[win]], r[idx[win]] = zt[win], rt[win]
                idx, step = idx[~win], step[~win]
                lam /= 2.0
            live[idx] = False  # no step lowered the residual
    return z, r


def _check_residuals(target, r, atol):
    """A MapInvertError naming the first target with |r| >= atol (or a NaN
    residual)."""
    bad = np.nonzero(~(np.abs(r) < atol))[0]
    if len(bad):
        raise MapInvertError(f"inversion failed for {target[bad[0]]}",
                             residual=float(abs(r[bad[0]])))


def _series_invert(cmap, target, atol, lo, hi):
    """The checked preimages of a series map's finite targets by damped
    Newton (_newton), memoized per exact target batch: the memo
    (_preimages) keeps the chart variable z of a batch of at most
    _MEMO_CAP points once every point has passed _check_residuals.  A hit
    skips Newton but takes its residual again by one evaluation in the
    chart (map_eval inside, the core outside) and passes the same check."""
    chart = _newton_chart(cmap, lo, hi)
    _, f, _, _, to_v = chart
    memo = cmap._preimages
    key = target.tobytes() if len(target) <= _MEMO_CAP else None
    z = memo.get(key)
    if z is None:
        z, r = _newton(cmap, target, atol, chart)
    else:
        r = f(z) - target
    _check_residuals(target, r, atol)
    if key is not None and key not in memo:
        _memo_put(memo, key, _readonly(z))
    return to_v(z)


def map_invert(cmap: ConformalMap, u):
    """Preimage of u under Phi, elementwise for scalars or arrays (a scalar
    in gives a scalar out).  Infinity (a part that is +-inf) maps to the
    exterior pole; a NaN is a MapInvertError.  On the exterior side |v| has
    no upper cap: with s != 0, Phi2(infinity) is finite, and it and the
    points near it invert to v = infinity or to a large |v|.

    A closed-form core (_is_closed_form) is inverted exactly: the core
    solve (_closed_core_inverse), then the prefix inverse (infinity where
    it is not finite), clamped into the verified domain.  The residual is
    the core's at its root w, |core(w) - u|, taken before the prefix
    inverse: near the exterior pole -1/s a far point's v carries a rounding
    error that grows like |u|, which w does not.  Only points the clamp
    moved are checked through map_eval at their clamped v.  A series map
    runs damped Newton (_newton) from seeds ordered by their starting
    residual, memoized per exact target batch (_series_invert).  Either
    way every point must end with |Phi(v) - u| < _INVERT_TOL (1 + |u|), or
    a MapInvertError names the first that does not; a batch is memoized
    only once every point has passed, and a memo hit passes the same check
    on its residual taken again."""
    uarr = np.asarray(u, dtype=complex)
    out = uarr.ravel().copy()
    inf = np.isinf(out)
    nan = np.isnan(out) & ~inf
    if np.any(nan):
        raise MapInvertError(f"cannot invert {out[np.argmax(nan)]}: "
                             "not a number")
    if np.any(inf):
        if cmap.side != "exterior":
            raise MapInvertError("infinity has no interior-map preimage")
        out[inf] = exterior_pole(cmap)
    fin = np.nonzero(~inf)[0]
    if len(fin):
        target = out[fin]
        lo, hi = _domain_limits(cmap)
        atol = _INVERT_TOL * (1.0 + np.abs(target))
        if _is_closed_form(cmap):
            w = _closed_core_inverse(cmap, target)
            r = _core_eval(cmap, w) - target
            with np.errstate(divide="ignore", invalid="ignore"):
                root = _prefix_inverse(cmap, w)
                # a non-finite prefix inverse is v = infinity, which the
                # exterior side (hi = inf) keeps and the interior clamps
                v = np.where(np.isfinite(root), _clamp(root, lo, hi), hi)
            moved = np.isfinite(v) & (v != root)
            if np.any(moved):
                r[moved] = map_eval(cmap, v[moved]) - target[moved]
            _check_residuals(target, r, atol)
        else:
            v = _series_invert(cmap, target, atol, lo, hi)
        out[fin] = v
    return complex(out[0]) if uarr.ndim == 0 else out.reshape(uarr.shape)


def roundtrip_residual(cmap: ConformalMap, pts) -> float:
    u = np.atleast_1d(np.asarray(pts, dtype=complex))
    return float(np.max(np.abs(map_eval(cmap, map_invert(cmap, u)) - u)))


# ---------------------------------------------------------------------------
# serialization (used by the CLI map cache)
# ---------------------------------------------------------------------------

def map_to_dict(cmap: ConformalMap) -> dict:
    return {
        "side": cmap.side,
        "series": [[z.real, z.imag] for z in cmap.series],
        "rot": [cmap.rot.real, cmap.rot.imag],
        "s": cmap.s,
        "anchor": [cmap.anchor.real, cmap.anchor.imag],
        "anchor_deriv": [cmap.anchor_deriv.real, cmap.anchor_deriv.imag],
        "grid": cmap.grid,
        "delta": cmap.delta,
        "tail": cmap.tail,
    }


def map_from_dict(d: dict) -> ConformalMap:
    return ConformalMap(
        d["side"],
        tuple(complex(re, im) for re, im in d["series"]),
        complex(*d["rot"]), float(d["s"]),
        complex(*d["anchor"]), complex(*d["anchor_deriv"]),
        int(d["grid"]),
        float(d["delta"]), float(d["tail"]),
    )


def map_to_json(cmap: ConformalMap) -> str:
    return json.dumps(map_to_dict(cmap))


def map_from_json(text: str) -> ConformalMap:
    return map_from_dict(json.loads(text))
