"""Independent numerical oracles used to cross-check derived values.

Nothing here imports from the package's computational paths beyond plain
evaluation of the quantity under test: derivatives are re-derived by
finite differences, Green's functions by a five-point Shortley-Weller
Dirichlet solve on a Cartesian grid, Laurent coefficients by randomized
least-squares fits, partial fractions in extended precision.  The loop
references at the end are the plain forms of vectorized package routines
(series evaluation, Blaschke products, the simplicity scan, the sup-norm
peak refinement, pole classification, principal parts, map inversion, the
Theodorsen solve by polar re-inversion), kept to pin the fast forms
against.  They sample with eval_curve / arc_point on
grids of their own, never through the package's per-object sample memo.
"""

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bernbound import (INFINITY, ArcOpenUp, PoleSet, arc_point,
                       curve_derivative, degree, eval_curve, is_infinite,
                       make_rational, map_derivative, map_eval, rf_eval)
from bernbound.conformal import _TRIM_REL, _trim_series, exterior_pole
from bernbound.errors import (CurveError, MapError, MapInvertError, PoleError,
                              QuadratureError)

TWO_PI = 2.0 * np.pi


def richardson_directional(f, x0, direction, h=1e-3):
    """One-sided directional derivative with (h, h/10) Richardson step.

    Eliminates the first-order error term, leaving O(h^2).
    """
    d1 = (f(x0 + h * direction) - f(x0)) / h
    d2 = (f(x0 + (h / 10.0) * direction) - f(x0)) / (h / 10.0)
    return (10.0 * d2 - d1) / 9.0


# ---------------------------------------------------------------------------
# Shortley-Weller Dirichlet solver
# ---------------------------------------------------------------------------

def _cut_fractions(z_in, steps, inside, h):
    """Vectorized bisection: fraction of each arm inside the domain.

    z_in are inside points whose neighbor at z_in + h*step is outside;
    returns s in (0, 1] with z_in + s*h*step on the boundary.
    """
    lo = np.zeros(len(z_in))
    hi = np.ones(len(z_in))
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        good = np.array([inside(z + m * h * d)
                         for z, m, d in zip(z_in, mid, steps)])
        lo = np.where(good, mid, lo)
        hi = np.where(good, hi, mid)
    return hi


class DirichletGreen:
    """Green's function of a planar Jordan domain by finite differences.

    Solves the harmonic companion h with h = log|gamma - pole| on the
    boundary using a five-point Shortley-Weller discretization, then
    g(z, pole) = h(z) - log|z - pole|.  ``inside`` is a scalar
    point-membership predicate; the box must contain the domain.
    """

    def __init__(self, inside, box, pole, h=0.006):
        self.inside = inside
        self.pole = complex(pole)
        self.h = h
        x0, x1, y0, y1 = box
        xs = np.arange(x0, x1 + h / 2, h)
        ys = np.arange(y0, y1 + h / 2, h)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        Z = X + 1j * Y
        mask = np.array([[inside(z) for z in row] for row in Z])
        idx = -np.ones(Z.shape, dtype=int)
        idx[mask] = np.arange(mask.sum())
        n = mask.sum()

        bc = lambda z: np.log(abs(z - self.pole))
        rows, cols, vals = [], [], []
        rhs = np.zeros(n)
        steps = (1, -1, 1j, -1j)
        offsets = ((1, 0), (-1, 0), (0, 1), (0, -1))

        # collect boundary-cut arm lengths first (vectorized bisection)
        cut_arms = {}
        pending_z, pending_d = [], []
        nx, ny = Z.shape
        for i in range(nx):
            for j in range(ny):
                if not mask[i, j]:
                    continue
                for step, (di, dj) in zip(steps, offsets):
                    ii, jj = i + di, j + dj
                    out = not (0 <= ii < nx and 0 <= jj < ny and mask[ii, jj])
                    if out:
                        pending_z.append(Z[i, j])
                        pending_d.append(step)
                        cut_arms[(i, j, step)] = None
        if pending_z:
            fr = _cut_fractions(np.array(pending_z), np.array(pending_d),
                                inside, h)
            for key, s in zip(list(cut_arms), fr):
                cut_arms[key] = max(float(s), 1e-6)

        for i in range(nx):
            for j in range(ny):
                if not mask[i, j]:
                    continue
                p = idx[i, j]
                arm = {}
                for step, (di, dj) in zip(steps, offsets):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < nx and 0 <= jj < ny and mask[ii, jj]:
                        arm[step] = (1.0, idx[ii, jj])
                    else:
                        arm[step] = (cut_arms[(i, j, step)], -1)
                for s_pos, s_neg in ((1, -1), (1j, -1j)):
                    aP, qP = arm[s_pos]
                    aM, qM = arm[s_neg]
                    hp, hm = aP * h, aM * h
                    cP = 2.0 / (hp * (hp + hm))
                    cM = 2.0 / (hm * (hp + hm))
                    c0 = -2.0 / (hp * hm)
                    rows.append(p); cols.append(p); vals.append(c0)
                    for c, q, a, step in ((cP, qP, aP, s_pos),
                                          (cM, qM, aM, s_neg)):
                        if q >= 0:
                            rows.append(p); cols.append(q); vals.append(c)
                        else:
                            rhs[p] -= c * bc(Z[i, j] + a * h * step)

        A = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        self._xs, self._ys, self._idx = xs, ys, idx
        self._sol = spla.spsolve(A, rhs)

    def harmonic_at(self, z):
        """Bilinear interpolation of the harmonic companion at z."""
        x, y = z.real, z.imag
        i = int(np.searchsorted(self._xs, x)) - 1
        j = int(np.searchsorted(self._ys, y)) - 1
        q = [self._idx[i + di, j + dj] for di in (0, 1) for dj in (0, 1)]
        if min(q) < 0:
            raise ValueError(f"probe {z} too close to the boundary")
        tx = (x - self._xs[i]) / (self._xs[i + 1] - self._xs[i])
        ty = (y - self._ys[j]) / (self._ys[j + 1] - self._ys[j])
        v00, v01, v10, v11 = (self._sol[k] for k in q)
        return ((1 - tx) * (1 - ty) * v00 + (1 - tx) * ty * v01
                + tx * (1 - ty) * v10 + tx * ty * v11)

    def green_at(self, z):
        return self.harmonic_at(z) - np.log(abs(complex(z) - self.pole))


def ellipse_interior_green(pole, probes, a=1.2, b=0.8, h=0.006):
    """Ellipse-interior Green values at probes, pole inside."""
    inside = lambda z: (z.real / a) ** 2 + (z.imag / b) ** 2 < 1.0
    solver = DirichletGreen(inside, (-a, a, -b, b), pole, h=h)
    return [solver.green_at(z) for z in probes]


def ellipse_exterior_green(pole, probes, a=1.2, b=0.8, h=0.004):
    """Ellipse-exterior Green values via plane inversion w = 1/z.

    The exterior (plus infinity) maps onto a bounded Jordan domain W;
    Green's functions are conformally invariant, so g at z with the
    given pole equals g_W at 1/z with pole 1/pole (0 for infinity).
    """
    def inside(w):
        if w == 0:
            return True
        z = 1.0 / w
        return (z.real / a) ** 2 + (z.imag / b) ** 2 > 1.0

    w_pole = 0j if pole is None or np.isinf(abs(np.complex128(pole))) \
        else 1.0 / complex(pole)
    r = 1.0 / b
    solver = DirichletGreen(inside, (-r, r, -r, r), w_pole, h=h)
    return [solver.green_at(1.0 / complex(z)) for z in probes]


# ---------------------------------------------------------------------------
# Laurent coefficients by randomized least squares
# ---------------------------------------------------------------------------

def laurent_principal_lstsq(g, center, order, rho, rng, n_samples=600,
                            k_analytic=14):
    """Principal-part coefficients of g at ``center`` by least squares.

    Samples g on two rings of random angles around the center and fits
    a truncated Laurent series with powers -order..k_analytic; returns
    (c_1, ..., c_order) where c_k multiplies (z - center)^{-k}.
    """
    angles = rng.uniform(0.0, TWO_PI, n_samples)
    radii = np.where(np.arange(n_samples) % 2 == 0, rho, 0.6 * rho)
    zs = center + radii * np.exp(1j * angles)
    powers = np.arange(-order, k_analytic + 1)
    basis = (zs[:, None] - center) ** powers[None, :]
    vals = np.array([g(z) for z in zs])
    coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
    neg = coef[:order][::-1]  # reorder to c_1..c_order
    return tuple(neg)


def rf_reference(f, u, derivative=False):
    """(f(u), size) -- or (f'(u), size) -- in extended precision
    (clongdouble), term by term from the partial-fraction form, with size
    the sum of the terms' moduli: sum_k |c_k| |u - a|^{-k} over the pole
    terms plus sum_j |p_j| |u|^j over the polynomial part (for f',
    sum_k k |c_k| |u - a|^{-k-1} plus sum_j j |p_j| |u|^{j-1}).  A
    backward-stable double evaluation errs by a few eps times size."""
    u = np.asarray(u, dtype=complex).astype(np.clongdouble)
    val = np.zeros(u.shape, dtype=np.clongdouble)
    size = np.zeros(u.shape, dtype=np.longdouble)

    def add(term):
        nonlocal val, size
        val = val + term
        size = size + np.abs(term)

    power = np.ones_like(u)  # u^(j - 1) for f', u^j for f
    for j, p in enumerate(f.poly):
        if derivative and j == 0:
            continue
        add((j if derivative else 1) * np.clongdouble(p) * power)
        power = power * u
    for t in f.terms:
        r = 1 / (u - np.clongdouble(t.location))
        power = r * r if derivative else r
        for k, c in enumerate(t.coeffs, start=1):
            add((-k if derivative else 1) * np.clongdouble(c) * power)
            power = power * r
    return val, size


# ---------------------------------------------------------------------------
# loop references for vectorized package routines
# ---------------------------------------------------------------------------

def loop_blaschke_eval(points, v):
    """Product-form evaluation of prod B(a, v), one factor per point (a
    point at infinity contributes v)."""
    varr = np.asarray(v, dtype=complex)
    scalar = varr.ndim == 0
    varr = np.atleast_1d(varr)
    out = np.ones(varr.shape, dtype=complex)
    for a in points:
        if is_infinite(a):
            out = out * varr
        else:
            a = complex(a)
            out = out * (1.0 - np.conj(a) * varr) / (varr - a)
    return complex(out[0]) if scalar else out


def loop_blaschke_derivative(points, v):
    """The product's derivative as the product times its logarithmic
    derivative, one log-derivative term per point."""
    varr = np.asarray(v, dtype=complex)
    scalar = varr.ndim == 0
    varr = np.atleast_1d(varr)
    logd = np.zeros(varr.shape, dtype=complex)
    for a in points:
        if is_infinite(a):
            logd = logd + 1.0 / varr
        else:
            a = complex(a)
            logd = logd - np.conj(a) / (1.0 - np.conj(a) * varr) - 1.0 / (varr - a)
    out = loop_blaschke_eval(points, varr) * logd
    return complex(out[0]) if scalar else out


def horner_eval(c, x):
    """sum_k c[k] x^k by Horner's rule in extended precision (clongdouble),
    one coefficient at a time."""
    x = np.asarray(x, dtype=np.clongdouble)
    acc = np.zeros_like(x)
    for ck in np.asarray(c, dtype=complex)[::-1]:
        acc = acc * x + np.clongdouble(ck)
    return acc


def roll_simplicity_margin(pts, step_scale):
    """The simplicity margin as a scan over every offset skip..m - skip of
    the sample ring, one np.roll per offset."""
    m = len(pts)
    floor = 1.5 * step_scale
    skip = max(4, m // 16)
    best = np.inf
    for off in range(skip, m - skip + 1):
        d = np.min(np.abs(pts - np.roll(pts, off)))
        best = min(best, d)
    return best / floor


def loop_sup_norm(f, boundary, m=None):
    """sup_norm with one scalar boundary point and one scalar evaluation per
    local maximum; a later peak replaces the best only if strictly larger."""
    M = int(m) if m else max(4096, 64 * max(degree(f), 1))
    ts = np.arange(M) * (TWO_PI / M)
    if isinstance(boundary, ArcOpenUp):
        pts = arc_point(boundary, ts)
    else:
        pts = eval_curve(boundary, ts)
    vals = np.abs(rf_eval(f, pts))
    is_max = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
    h = TWO_PI / M
    best_v, best_t = -math.inf, 0.0
    for i in np.nonzero(is_max)[0]:
        y1, y2, y3 = vals[i - 1], vals[i], vals[(i + 1) % M]
        denom = y1 - 2.0 * y2 + y3
        off = 0.0
        if abs(denom) > 1e-300:
            off = float(np.clip(0.5 * h * (y1 - y3) / denom, -h, h))
        t_ref = float(ts[i]) + off
        if isinstance(boundary, ArcOpenUp):
            p_ref = complex(arc_point(boundary, t_ref))
        else:
            p_ref = complex(eval_curve(boundary, t_ref))
        y_ref = float(np.abs(rf_eval(f, p_ref)))
        cand = max(float(y2), y_ref)
        cand_t = t_ref if y_ref >= y2 else float(ts[i])
        if cand > best_v:
            best_v, best_t = cand, cand_t
    return best_v, best_t % TWO_PI


def _fresh_distance(curve, z, m=4096):
    ts = np.arange(m) * (TWO_PI / m)
    return float(np.min(np.abs(eval_curve(curve, ts) - z)))


def _fresh_winding(curve, z, m=2048):
    ts = np.arange(m) * (TWO_PI / m)
    dif = eval_curve(curve, ts) - z
    if np.min(np.abs(dif)) < 1e-9:
        raise CurveError(f"point {z} is on (or too close to) the curve")
    w = np.mean(curve_derivative(curve, ts) / dif) / 1j
    wr = float(w.real)
    if abs(wr - round(wr)) > 0.1 or abs(w.imag) > 0.1:
        raise CurveError(f"ambiguous winding number {w} about {z}")
    return int(round(wr))


def loop_classify_poles(poles, curve, floor=1e-9):
    """classify_poles one pole at a time: each finite pole resamples the
    curve for its distance (4,096 points) and its winding (2,048)."""
    entries, inside = [], []
    sep = math.inf
    for a, m in poles:
        m = int(m)
        if m < 1:
            raise PoleError("multiplicities must be at least 1")
        if is_infinite(a):
            entries.append((INFINITY, m))
            inside.append(False)
            continue
        a = complex(a)
        d = _fresh_distance(curve, a)
        if d < floor:
            raise PoleError(f"pole {a} lies on the curve (distance {d:.2e})")
        sep = min(sep, d)
        entries.append((a, m))
        inside.append(_fresh_winding(curve, a) != 0)
    return PoleSet(tuple(entries), tuple(inside), sep)


def _loop_peel(g, a, order, rho, q, cmap):
    phis = np.arange(q) * (TWO_PI / q)
    nodes = a + rho * np.exp(1j * phis)
    vals = np.asarray(g(nodes), dtype=complex).copy()
    w, dphi = nodes - a, 1.0
    if cmap is not None:
        w = map_eval(cmap, nodes) - map_eval(cmap, a)
        dphi = map_derivative(cmap, nodes)
    coeffs = np.zeros(order, dtype=complex)
    for k in range(order, 0, -1):
        c = np.mean(vals * w ** (k - 1) * dphi * (nodes - a))
        coeffs[k - 1] = c
        vals -= c / w ** k
    return coeffs


def loop_principal_parts(g, poles, cmap=None, q=64, rel_tol=1e-9):
    """principal_parts one pole at a time, with separate map calls on the
    q-node and the 2q-node ring of each pole and one for its center."""
    locs = [complex(a) for a, _ in poles]
    orders = [int(m) for _, m in poles]
    if any(m < 1 for m in orders):
        raise PoleError("pole orders must be at least 1")
    terms = []
    for i, (a, m) in enumerate(zip(locs, orders)):
        d_other = min((abs(a - b) for j, b in enumerate(locs) if j != i),
                      default=math.inf)
        d_disk = 1.0 - abs(a) if cmap is not None else math.inf
        rho = min(d_other, d_disk, 0.5) / 2.0
        if not rho > 1e-8:
            raise QuadratureError(
                f"no feasible quadrature radius at pole {a} (rho = {rho:.2e})")
        c1 = _loop_peel(g, a, m, rho, q, cmap)
        c2 = _loop_peel(g, a, m, rho, 2 * q, cmap)
        scale = max(float(np.max(np.abs(c2))), 1e-300)
        disagree = float(np.max(np.abs(c1 - c2))) / scale
        if disagree > rel_tol:
            raise QuadratureError(
                f"quadrature disagreement {disagree:.2e} at pole {a} "
                f"exceeds {rel_tol:.2e}")
        keep = np.abs(c2) > 1e-13 * scale
        top = int(np.nonzero(keep)[0][-1]) + 1 if np.any(keep) else 0
        if top:
            center = a if cmap is None else complex(map_eval(cmap, a))
            terms.append((center, tuple(c2[:top])))
    return make_rational(terms, ())


def newton_map_invert(cmap, u, tol=1e-13):
    """map_invert by damped Newton for every map, closed forms included:
    seeds tried in turn are the linear seed (interior maps with s = 0),
    then the two nearest of 128 samples of Phi on its own copy of the
    solve's uniform ring.  A seed gets at most 80 steps, each halved down
    to 2^-12 until it lowers the residual and clamped radially into the
    verified domain."""
    uarr = np.asarray(u, dtype=complex)
    out = uarr.ravel().copy()
    inf = ~np.isfinite(out)
    if np.any(inf):
        if cmap.side != "exterior":
            raise MapInvertError("infinity has no interior-map preimage")
        out[inf] = exterior_pole(cmap)
    fin = np.nonzero(~inf)[0]
    target = out[fin]
    m = cmap.grid
    vb = np.exp(1j * np.arange(0, m, max(1, m // 128)) * (TWO_PI / m))
    ub = map_eval(cmap, vb)
    near = np.argsort(np.abs(ub - target[:, None]), axis=1)
    seeds = [vb[near[:, 0]], vb[near[:, 1]]]
    if cmap.side == "interior" and abs(cmap.series[1]) > 0 and cmap.s == 0.0:
        lin = (target - cmap.series[0]) / (cmap.rot * cmap.series[1])
        seeds.insert(0, np.where(np.abs(lin) < 1.0, lin, np.nan))
    d = max(cmap.delta, 0.0)
    lo, hi = ((0.0, 1.0 + d) if cmap.side == "interior"
              else (max(1.0 - d, 1e-12), math.inf))
    hi = min(hi, 1e6)
    atol = tol * (1.0 + np.abs(target))
    v = np.empty(len(target), dtype=complex)
    r = np.full(len(target), np.inf, dtype=complex)  # Phi(v) - u
    for seed in seeds:
        live = ~(np.abs(r) < atol) & np.isfinite(seed)
        if not np.any(live):
            continue
        v[live] = seed[live]
        r[live] = map_eval(cmap, v[live]) - target[live]
        for _ in range(80):
            live &= ~(np.abs(r) < atol)
            idx = np.nonzero(live)[0]
            if not len(idx):
                break
            dv = map_derivative(cmap, v[idx])
            ok = (dv != 0) & np.isfinite(np.abs(dv))
            live[idx[~ok]] = False
            idx, step = idx[ok], r[idx[ok]] / dv[ok]
            lam = 1.0
            while lam > 2 ** -12 and len(idx):
                vt = v[idx] - lam * step
                rad = np.maximum(np.abs(vt), 1e-300)
                vt = vt * np.where(rad > hi, hi / rad,
                                   np.where(rad < lo, lo / rad, 1.0))
                rt = map_eval(cmap, vt) - target[idx]
                win = np.abs(rt) < np.abs(r[idx])
                v[idx[win]], r[idx[win]] = vt[win], rt[win]
                idx, step = idx[~win], step[~win]
                lam /= 2.0
            live[idx] = False  # no step lowered the residual
    bad = np.nonzero(~(np.abs(r) < atol))[0]
    if len(bad):
        raise MapInvertError(f"Newton inversion failed for {target[bad[0]]}",
                             residual=float(abs(r[bad[0]])))
    out[fin] = v
    return complex(out[0]) if uarr.ndim == 0 else out.reshape(uarr.shape)


def _fft_conjugate(x):
    """Boundary conjugation on a uniform grid: mode k times -i sign(k)."""
    m = len(x)
    mult = np.zeros(m, dtype=complex)
    mult[1:(m + 1) // 2] = -1j
    mult[m // 2 + 1:] = 1j
    return np.real(np.fft.ifft(np.fft.fft(x) * mult))


def polar_theodorsen_core(curve, center, m, tol, side):
    """The raw Theodorsen core (series, tail) of a map solve, by the polar
    route: the iterate is the polar angle phi on the uniform theta grid,
    and every iteration inverts phi to the curve parameter afresh (table
    lookup in 8,192 samples, then 4 Newton steps) to read the polar radius
    rho(phi) of gamma - center.  side "interior" iterates on log rho; side
    "exterior" on the inverted boundary w = 1/(gamma - center), radius
    1/rho at angle -phi.  Same residual test, relaxation and tail as the
    package's core solves (tol * 1e-2 on the residual, the cut of
    _trim_series)."""
    center = complex(center)
    ts = np.arange(8192) * (TWO_PI / 8192)
    psi = np.unwrap(np.angle(eval_curve(curve, ts) - center))
    ts_ext = np.append(ts, TWO_PI)
    psi_ext = np.append(psi, psi[0] + TWO_PI)

    def radius(phi):
        ph = (phi - psi[0]) % TWO_PI + psi[0]
        t = np.interp(ph, psi_ext, ts_ext)
        for _ in range(4):
            rel = eval_curve(curve, t) - center
            err = np.angle(rel * np.exp(-1j * ph))
            t = t - err / np.imag(curve_derivative(curve, t) / rel)
        return np.abs(eval_curve(curve, t) - center)

    sign = 1.0 if side == "interior" else -1.0

    def log_rho(phi):
        return sign * np.log(radius(sign * phi))

    thetas = np.arange(m) * (TWO_PI / m)
    phi = thetas.copy()
    relax, prev, bad = 1.0, math.inf, 0
    for _ in range(800):
        target = thetas + _fft_conjugate(log_rho(phi))
        res = float(np.max(np.abs(target - phi)))
        if res < tol * 1e-2:
            break
        if res > prev * 1.02:
            bad += 1
            if bad >= 3:
                relax = max(relax / 2.0, 0.05)
                bad = 0
        prev = res
        phi = (1.0 - relax) * phi + relax * target
    else:
        raise MapError("Theodorsen iteration did not converge", residual=prev)
    kmax = m // 2
    if side == "interior":
        bins = np.fft.fft(center + radius(target) * np.exp(1j * target)) / m
        series = np.concatenate([[center], bins[1:kmax]])
        err = max(float(np.max(np.abs(bins[kmax:]))), abs(bins[0] - center))
    else:
        wbnd = np.exp(1j * target) / radius(-target)
        w_rev = np.concatenate([wbnd[:1], wbnd[1:][::-1]])
        bins = np.fft.fft(center + 1.0 / w_rev) / m
        series = np.concatenate([bins[1:2], bins[0:1], bins[:kmax:-1]])
        err = float(np.max(np.abs(bins[2:kmax + 1])))
    scale = float(np.max(np.abs(series)))
    return _trim_series(series), max(err / scale, _TRIM_REL)
