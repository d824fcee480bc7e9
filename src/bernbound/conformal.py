"""Riemann maps for both sides of an analytic curve, anchored at a boundary point.

The interior map Phi1 : D -> G1 and exterior map Phi2 : D* -> G2 are both
normalized so that Phi(1) = u0 and |Phi'(1)| = 1.  Each map is stored as a
core series (Taylor about 0, or Laurent about infinity) pre-composed with a
disk automorphism  v -> rot * (v + s)/(1 + s v)  realizing the normalization;
the hyperbolic factor fixes +-1 and scales the boundary derivative by
(1 - s)/(1 + s).

General curves are solved about z_c = c_0, which the curve must wind once
about, the exterior as the interior of the inverted boundary 1/(u - z_c).
One Nystrom solve of the Kerzman-Stein equation for the Szego kernel S on
the curve-parameter grid (N. Kerzman and M. R. Trummer, J. Comput. Appl.
Math. 14 (1986)) gives the boundary correspondence, theta'(t) ~ |S|^2
|gamma'| (_correspondence).  Newton on it finds the t of each disk angle of
a grid; the series tail decides, on the grids of _GRIDS in turn, until it
is at most _TAIL_TOL ("series unresolved" past the last, the one refusal).
Circles get the exact linear map on both sides, the ellipse exterior the
Joukowski-type closed form.  map_invert and the anchor solve each core for
w: closed forms exactly, series cores by the argument principle on the
circle of m nodes that the prefix maps the verified boundary onto
(_argument_inverse by _cauchy_sums), no iteration, no stored correspondence.

A map keeps only what evaluation, inversion and the map cache read: the core
series, the prefix (rot, s), the anchor and the derivative there, the grid
size m the series was resolved on (the node count of its inversion
contour), the extension margin and the truncation tail; not the
correspondence.  Arrays derived from those fields (the series and its
derivative as complex arrays) are memoized on the map object on first
use, read-only; they are not fields, so they are never serialized, and
replace() or map_from_dict starts a map with an empty memo.

Every map, closed forms too, memoizes map_invert's answers (_preimages):
the key is the exact finite target batch (target.tobytes(), not a single
point, since the contour sum's product rounds a point differently by
batch size), the value the read-only accepted (w, v), or the message and
residual of the batch's failed check.  Only a batch of at most _MEMO_CAP
(64) points is kept; a map keeps at most _MEMO_CAP batches and drops the
oldest first.  A failure's hit raises the same error again with no work.
An accepted hit skips the inverse (the contour sum or the closed form) and
the prefix inverse but takes its residual again, by one evaluation
(map_eval at v inside a series map, the core at w on a closed form and
outside a series map, where v near the pole rounds like |u|), and passes
the same check as a cold call.

Every map also keeps _rings, principal_parts' memo for the rows of a
sharpness sweep, which evaluate the same geometry again: the key is the
exact stacked pole batch (the bytes of its centers and ring radii), the
value the read-only images of the poles and Phi(v) - Phi(a), Phi'(v) on
their rings, as the stacked call computed them, so a hit gives the bits of
a cold call with the same batch; only a batch of at most ratfun._RING_POLES
(16) poles is kept, 64 KiB, so at most 4 MiB a map.
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
_SZEGO_GRIDS = (128, 256, 512, 1024)  # Nystrom sizes, tried in turn
_SZEGO_TOL = 1e-7     # the Fourier tail of S that ends them
_SZEGO_FLOOR = 1e-15  # modes of theta' below it are the solve's rounding
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
    def _preimages(self) -> dict:
        """map_invert's memo: the exact finite target batch
        (target.tobytes()) -> its accepted (w, v), the core points and the
        preimages, read-only, or its failure (message, residual); at most
        _MEMO_CAP batches of at most _MEMO_CAP points."""
        return {}

    @cached_property
    def _rings(self) -> dict:
        """principal_parts' memo: the exact stacked pole batch (the bytes
        of its centers and ring radii) -> the read-only (images, w, dphi)
        of its 2q-node rings; at most _MEMO_CAP batches of at most
        ratfun._RING_POLES poles (64 KiB a batch)."""
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
    over the blocks.  About 2 sqrt(len(c)) array operations, not 2 len(c).
    Both run on the points zero-padded to a multiple of 8, so that a point
    rounds alike in every batch: BLAS rounds a product's tail columns by
    their count, and numpy an in-place product of one element unfused."""
    c = np.asarray(c, dtype=complex)
    x = np.asarray(x, dtype=complex)
    n = x.size
    xs = np.zeros(-(-n // 8) * 8, dtype=complex)
    xs[:n] = x.ravel()
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
    return acc[:n].reshape(x.shape)


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
# the boundary correspondence, from the Szego kernel
# ---------------------------------------------------------------------------

def _szego(curve, center, sign, n):
    """(S, T, |g'|) at t_j = 2 pi j / n: the Szego kernel S(., 0) of the
    domain inside g = gamma - center (sign +1) or g = 1/(gamma(-t) - center)
    (sign -1), by Nystrom on the Kerzman-Stein equation (I - A diag(|g'| h))
    S = conj(T / (2 pi i g)), with T = g' / |g'|, h = 2 pi / n, A = H - H*,
    H_ij = T_j / (2 pi i (g_j - g_i)) and A_ii = 0."""
    ks, c = np.arange(-curve.order, curve.order + 1), _coeff_array(curve)
    jet = np.exp(1j * np.multiply.outer(sign * TWO_PI / n * np.arange(n), ks))
    g = jet @ c - center
    dg = jet @ (1j * ks * c)
    a = _differences(jet, sign * ks, c)
    if sign < 0:
        g = 1.0 / g
        dg = dg * g * g  # d/dtau 1/(gamma(-tau) - center) = gamma' g^2
        a *= g
        a *= -g[:, None]  # 1/x_j - 1/x_i = -(x_j - x_i) / (x_i x_j)
    speed, tang = np.abs(dg), dg / np.abs(dg)
    np.fill_diagonal(a, 1.0)
    np.reciprocal(a, out=a)
    # 2 pi i A_ij = T_j / d_ij - conj(T_i / d_ij), two matrices at a time
    b = np.multiply(tang, a)
    np.multiply(tang.conj()[:, None], np.conj(a, out=a), out=a)
    a = np.subtract(b, a, out=b)
    a *= speed * (1j / n)  # -A diag(|g'| h)
    np.fill_diagonal(a, 1.0)
    return np.linalg.solve(a, np.conj(tang / (2j * math.pi * g))), tang, speed


def _differences(jet, ks, c):
    """d_ij = x_j - x_i for x = jet @ c, jet_ik = e^(ik t_i) on the uniform
    grid t_i = 2 pi i / n, as sum_k c_k e^(ik t_i) (e^(ik (t_j - t_i)) - 1)
    with the bracket written 2i sin(u/2) e^(iu/2).  Subtracting x_i from
    x_j keeps only the digits the two do not share: neighbours differ by
    about 1/n, so the matrix, and S with it, would carry n eps of rounding."""
    n = len(jet)
    half = math.pi / n * np.multiply.outer(np.arange(n), ks)
    bracket = 2j * np.sin(half) * np.exp(1j * half)
    d, term = np.zeros((n, n), dtype=complex), np.empty((n, n), dtype=complex)
    for k in np.flatnonzero(c):
        # row i of the circulant is bracket at (j - i) mod n, j = 0..n-1
        wrap = np.concatenate([bracket[1:, k], bracket[:, k]])
        circ = np.lib.stride_tricks.sliding_window_view(wrap, n)[::-1]
        d += np.multiply((c[k] * jet[:, k])[:, None], circ, out=term)
    return d


def _correspondence(curve, center, sign):
    """(c, dc, knots): the disk angle t + p(t) of g(t) (see _szego) under a
    Riemann map f, f(0) = 0, with p = 2 Re sum c_k e^(ikt), p' = 2 Re sum
    dc_k e^(ikt) and knots theta at t_j = 2 pi j / n, j = 0..n.  The map
    with f'(0) > 0 adds a constant to theta, a turn of the disk that
    _turned undoes, so none is kept: a constant found from S would move
    every disk angle by its rounding.  If gamma is a polynomial in e^(it)
    (in e^(-it), plus c_1 e^(it), outside), that is the map: theta = t.
    Else theta' = |S|^2 |g'| / mean without its modes under _SZEGO_FLOOR,
    n the first size whose S has a Fourier tail of at most _SZEGO_TOL, or
    the last."""
    ks = np.arange(-curve.order, curve.order + 1)
    if not np.any(_coeff_array(curve)[ks < 0 if sign > 0 else ks > 1]):
        zero = _readonly(np.zeros(1, dtype=complex))
        return zero, zero, _readonly(np.array([0.0, TWO_PI]))
    for n in _SZEGO_GRIDS:
        s, _, speed = _szego(curve, center, sign, n)
        spec = np.abs(np.fft.fft(s))  # its tail: the modes n/4 <= |k| <= n/2
        if np.max(spec[n // 4:n - n // 4 + 1]) <= _SZEGO_TOL * np.max(spec):
            break
    dtheta = np.abs(s) ** 2 * speed
    dc = np.fft.fft(dtheta)[:n // 2] / np.sum(dtheta)  # theta' has mean 1
    dc[np.abs(dc) < _SZEGO_FLOOR] = 0.0
    dc[0] = 0.0
    c = np.concatenate([[0.0], dc[1:] / (1j * np.arange(1, n // 2))])
    c[0] = -np.sum(c.real)  # p(0) = 0
    knots = np.arange(n + 1) * (TWO_PI / n)
    knots[:n] += 2.0 * (np.fft.ifft(c, n) * n).real
    return _readonly(c), _readonly(dc), _readonly(knots)


def _boundary(curve, corr, m, sign):
    """gamma at the parameters (t inside, -t outside) of the m disk angles
    2 pi k / m: Newton on theta(t) from its knots, corr the side's
    _correspondence."""
    c, dc, knots = corr
    psi = np.arange(m) * (TWO_PI / m)
    t = np.interp(psi, knots, np.linspace(0.0, TWO_PI, len(knots)))
    for _ in range(20):
        e = np.exp(1j * t)
        step = ((t + 2.0 * _poly_eval(c, e).real - psi)
                / (1.0 + 2.0 * _poly_eval(dc, e).real))
        t -= step
        if not np.max(np.abs(step)) > 1e-13:
            break
    return eval_curve(curve, sign * t)


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


def _interior_core(curve, z_c, corr, m):
    """Raw interior map about z_c: series and tail."""
    bnd = _boundary(curve, corr, m, +1)
    bins = _turned(np.fft.fft(bnd) / m)
    kmax = m // 2
    series = np.concatenate([[z_c], bins[1:kmax]])
    scale = float(np.max(np.abs(series)))
    err = max(float(np.max(np.abs(bins[kmax:]))), abs(bins[0] - z_c))
    series = _trim_series(series)
    return series, max(err / scale, _TRIM_REL)


def _exterior_core(curve, z_c, corr, m):
    """Raw exterior map through the inversion w = 1/(u - z_c)."""
    bnd = _boundary(curve, corr, m, -1)
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

    The anchor's preimage w* under the core, projected onto the circle,
    w0 = w*/|w*|, supplies the rotation; the hyperbolic factor
    (v + s)/(1 + s v) then corrects |Phi'(1)|.  A closed-form core gives
    w* exactly (_closed_core_inverse); a series core by _argument_inverse
    on the unit circle, where the core and w core' at the m = raw.grid
    roots of unity are one inverse FFT each of the coefficients placed at
    their powers (0, 1, ... inside; 1, 0, -1, ... outside).
    """
    target = np.array([u0.point])
    if _is_closed_form(raw):
        w = _closed_core_inverse(raw, target)
    else:
        m, c = raw.grid, raw._coeffs
        powers = (np.arange(len(c)) if raw.side == "interior"
                  else 1 - np.arange(len(c)))
        placed = np.zeros((2, m), dtype=complex)
        placed[:, powers % m] = c, powers * c
        f, wdf = m * np.fft.ifft(placed)
        zeta = np.exp(1j * (TWO_PI / m) * np.arange(m))
        w = _argument_inverse(raw.side, 0.0, 1.0, zeta, f, wdf, target)
    w0 = complex(w[0] / abs(w[0]))
    resid = abs(complex(_core_eval(raw, np.atleast_1d(w0))[0]) - u0.point)
    if not resid <= 1e-8 * (1.0 + abs(u0.point)):
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
    domain guard.  A rung whose series overflows fails on its non-finite
    points, so numpy's overflow warnings are silenced."""
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

    with np.errstate(over="ignore", invalid="ignore"):
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
    margin = _closed_margin if _is_closed_form(cmap) else _measure_margin
    return replace(cmap, delta=margin(cmap))


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


def _resolved_core(core, sign, curve):
    """(series, tail, m) of the first grid m of _GRIDS on which
    core(curve, z_c, corr, m) measures a tail of at most _TAIL_TOL; the
    grids share the side's one correspondence corr."""
    z_c = _interior_center(curve)
    corr = _correspondence(curve, z_c, sign)
    for m in _GRIDS:
        series, tail = core(curve, z_c, corr, m)
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
        core = _resolved_core(_interior_core, +1, curve)
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
        core = _resolved_core(_exterior_core, -1, curve)
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


def _cauchy_sums(values, weights, targets):
    """sum_k weights[k, :] / (values_k - u_j), a row per target u_j, by one
    matrix product per block of at most 2^20 reciprocal offsets (a row rounds
    by its block's shape); a target equal to a value sums to inf or nan."""
    out = np.empty((len(targets), weights.shape[1]), dtype=complex)
    rows = max(1, (1 << 20) // len(values))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(0, len(targets), rows):
            q = np.subtract(values, targets[i:i + rows, None])
            out[i:i + rows] = np.reciprocal(q, out=q) @ weights
    return out


def _argument_inverse(side, c, r, zeta, f, wdf, target):
    """The zero w of core - u on one side of the circle |w - c| = r, for
    each target u: the argument principle in barycentric form (A. Austin,
    P. Kravanja & L. N. Trefethen, SIAM J. Numer. Anal. 52 (2014)).  f and
    wdf are the core and (w - c) core' at the m = len(zeta) nodes
    w_k = c + r zeta_k, zeta_k = e^(2 pi i k/m); d_k = wdf_k / (f_k - u).
    Inside, w = c + r sum zeta_k d_k / sum d_k (_cauchy_sums).  Outside,
    zeta (core - u), zeta = r/(w - c), has the one zero, zeta* = -sum
    conj(zeta_k) d_k / (m - sum d_k), and w = c + r/zeta*; 1 - d_k would
    round off a far target's small d_k.  A node value takes its node."""
    turn = zeta if side == "interior" else zeta.conj()
    moment, total = _cauchy_sums(f, np.stack([turn * wdf, wdf], axis=1),
                                 target).T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = (c + r * moment / total if side == "interior"
             else c - r * (len(zeta) - total) / moment)
    for i in np.flatnonzero(~np.isfinite(w)):
        for k in np.flatnonzero(f == target[i])[:1]:
            w[i] = c + r * zeta[k]
    return w


def _series_inverse(cmap, target):
    """(w, core(w) - u) for the targets u of a series map: _argument_inverse
    on the circle that the prefix maps the verified boundary |v| = R onto,
    R = 1 + delta inside and 1 - delta outside, at m = cmap.grid nodes.
    The prefix pole -1/s (inside) or the core's pole w = 0, v = -s
    (outside), lies off the verified side; with real s, [-R, R] maps to the
    diameter from a = (R + s)/(1 + s R) to b = (s - R)/(1 - s R).  A target
    past the domain may sum to a w that overflows the core; r fails then."""
    rad = 1.0 + cmap.delta if cmap.side == "interior" else 1.0 - cmap.delta
    s = cmap.s
    assert rad * abs(s) < 1.0 if cmap.side == "interior" else rad > abs(s), \
        f"a {cmap.side} pole lies on the verified side of |v| = {rad}"
    a, b = (rad + s) / (1.0 + s * rad), (s - rad) / (1.0 - s * rad)
    c, r = cmap.rot * (a + b) / 2.0, abs(a - b) / 2.0
    zeta = np.exp(1j * (TWO_PI / cmap.grid) * np.arange(cmap.grid))
    nodes = c + r * zeta
    w = _argument_inverse(cmap.side, c, r, zeta, _core_eval(cmap, nodes),
                          r * zeta * _core_deriv(cmap, nodes), target)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return w, _core_eval(cmap, w) - target


def _pull(cmap, w, lo, hi):
    """(v, moved): the preimage v = prefix^-1(w) pulled radially into
    lo <= |v| <= hi, and the points the pull moved (None when every root
    is finite and in range, so none moved).  A non-finite prefix inverse is
    v = infinity, which the exterior side (hi = inf) keeps and the interior
    pulls to v = hi."""
    with np.errstate(divide="ignore", invalid="ignore"):
        root = _prefix_inverse(cmap, w)
        rad = np.abs(root)
        if lo <= rad.min() and rad.max() < hi:
            return root, None
        rad = np.maximum(rad, 1e-300)
        scale = np.where(rad > hi, hi / rad, np.where(rad < lo, lo / rad, 1.0))
        v = np.where(np.isfinite(root), root * scale, hi)
    return v, np.isfinite(v) & (v != root)


def _failure(target, r):
    """(message, residual) of the first target with |r| at or above
    _INVERT_TOL (1 + |u|) (or a NaN residual), None when every one passed."""
    passed = np.abs(r) < _INVERT_TOL * (1.0 + np.abs(target))
    if passed.all():
        return None
    i = int(np.argmin(passed))  # the first False
    return f"inversion failed for {target[i]}", float(abs(r[i]))


def map_invert(cmap: ConformalMap, u):
    """Preimage of u under Phi, elementwise for scalars or arrays (a scalar
    in gives a scalar out).  Infinity (a part that is +-inf) maps to the
    exterior pole; a NaN is a MapInvertError.  On the exterior side |v| has
    no upper cap: with s != 0, Phi2(infinity) is finite, and it and the
    points near it invert to v = infinity or to a large |v|.

    Every map is inverted in its core variable w: a closed-form core
    (_is_closed_form) exactly (_closed_core_inverse), a series core by the
    argument principle on its verified boundary circle (_series_inverse).
    Then one tail: the residual is the core's at w, |core(w) - u|, taken
    before the prefix inverse (near the exterior pole -1/s a far point's v
    carries a rounding error that grows like |u|, which w does not); v is
    the prefix inverse pulled into the verified domain (_pull), and only
    points the pull moved are checked through map_eval at their pulled v.
    Every point must end with a residual below _INVERT_TOL (1 + |u|), or a
    MapInvertError names the first that does not.  Every map memoizes
    per exact target batch (_preimages) the accepted (w, v), or the failure,
    which a hit raises again with no work.  An accepted hit takes its
    residual again by one evaluation:
    map_eval at v inside a series map (the prefix is bounded there), the
    core at w on a closed form, as its cold call does, and outside a series
    map, where v near the pole rounds like |u|."""
    return _invert(cmap, u)[0]


def _invert(cmap, u):
    """map_invert's preimages, and the residuals Phi(v) - u of the finite
    points as it checked them."""
    uarr = np.asarray(u, dtype=complex)
    out = uarr.ravel().copy()
    fin = slice(None)  # every point finite: out[fin] is out itself
    if not np.isfinite(out).all():
        inf = np.isinf(out)
        nan = np.isnan(out) & ~inf
        if np.any(nan):
            raise MapInvertError(f"cannot invert {out[np.argmax(nan)]}: "
                                 "not a number")
        if cmap.side != "exterior":
            raise MapInvertError("infinity has no interior-map preimage")
        out[inf] = exterior_pole(cmap)
        fin = np.nonzero(~inf)[0]
    target, r = out[fin], np.zeros(0, dtype=complex)
    if len(target):
        series = not _is_closed_form(cmap)
        key = target.tobytes() if len(target) <= _MEMO_CAP else None
        hit = None if key is None else cmap._preimages.get(key)
        if hit is None:
            if series:
                w, r = _series_inverse(cmap, target)
            else:
                w = _closed_core_inverse(cmap, target)
                r = _core_eval(cmap, w) - target
            v, moved = _pull(cmap, w, *_domain_limits(cmap))
            if moved is not None and moved.any():
                r[moved] = map_eval(cmap, v[moved]) - target[moved]
            failure = _failure(target, r)
            if key is not None:
                _memo_put(cmap._preimages, key,
                          failure or (_readonly(w), _readonly(v)))
        elif isinstance(hit[0], str):  # a kept failure
            failure = hit
        else:
            w, v = hit
            r = (map_eval(cmap, v) if series and cmap.side == "interior"
                 else _core_eval(cmap, w)) - target
            failure = _failure(target, r)
        if failure:
            raise MapInvertError(*failure)
        out[fin] = v
    return (complex(out[0]) if uarr.ndim == 0
            else out.reshape(uarr.shape)), r


def roundtrip_residual(cmap: ConformalMap, pts) -> float:
    """max |Phi(v) - u| over the finite pts, as map_invert checks it: in
    the core variable, not at a far exterior point's rounded v."""
    return float(np.max(np.abs(_invert(cmap, np.atleast_1d(pts))[1]),
                        initial=0.0))


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
