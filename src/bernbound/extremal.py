"""Asymptotically extremal rational sequences.

On the unit circle a one-sided Blaschke product already attains the
derivative bound exactly.  On a general analytic curve the construction
transplants that extremal: split off the principal parts of the transplanted
Blaschke product, then repair the analytic remainder by a Hermite
interpolant on Leja nodes, pulled through a Moebius change of variable that
turns the correction into a pole at a designated exterior point.  The
sharpness ratio r_n = |f_n'(u0)| / (sup norm * bound) then approaches 1.
"""
from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .conformal import MapPair, map_invert
from .curves import (TWO_PI, AnalyticCurve, BoundaryPoint, is_infinite,
                     sample_grid)
from .errors import ExtremalError, MapInvertError, NumericsError, PoleError
from .potential import BoundReport, bernstein_bound, disk_normal_derivative
from .ratfun import (POLE_FLOOR, RationalFunction, blaschke_derivative,
                     blaschke_eval, blaschke_product, classify_poles,
                     cluster_points, make_rational, poles_of, principal_parts,
                     rf_eval, sup_norm)

_OFF_CIRCLE = 1e-9
_CANDIDATES_M = 1024   # curve samples offered as the remainder's Leja nodes
# the remainder, and each order of its expansion, is dropped below this
# size; the transplanted sup norm is about 1
_REMAINDER_TOL = 1e-9


# ---------------------------------------------------------------------------
# Leja nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LejaSet:
    nodes: tuple    # chosen points, in greedy order
    indices: tuple  # positions of the nodes in the candidate array

    @property
    def monic(self) -> tuple:
        """The monic node polynomial, descending coefficients."""
        return tuple(complex(c) for c in np.poly(self.nodes))


def leja_points(candidates, count: int, seed=None) -> LejaSet:
    """Greedy Leja nodes: each one maximizes the product of distances to its
    predecessors over the candidate array (first index wins ties).

    seed is snapped to the nearest candidate and defaults to the point
    farthest from the candidate centroid.  Candidates with fewer distinct
    points than count raise an ExtremalError naming the shortfall."""
    if count < 1:
        raise ExtremalError("node count must be at least 1")
    cand = np.asarray(candidates, dtype=complex).ravel()
    if len(cand) < count:
        raise ExtremalError("fewer candidates than requested nodes")
    if seed is None:
        i0 = int(np.argmax(np.abs(cand - np.mean(cand))))
    else:
        i0 = int(np.argmin(np.abs(cand - complex(seed))))
    indices = [i0]
    with np.errstate(divide="ignore"):
        running = np.log(np.abs(cand - cand[i0]))
        for _ in range(count - 1):
            j = int(np.argmax(running))
            if running[j] == -np.inf:  # every candidate is a chosen node
                raise ExtremalError(
                    f"the candidates hold {len(indices)} distinct points, "
                    f"fewer than the {count} requested nodes")
            indices.append(j)
            running += np.log(np.abs(cand - cand[j]))
    return LejaSet(tuple(complex(cand[j]) for j in indices), tuple(indices))


# ---------------------------------------------------------------------------
# exact circle extremals
# ---------------------------------------------------------------------------

def build_circle_extremal(points):
    """One-sided Blaschke product and its equality residual
    | |h'(1)| - bound * sup |  on the unit circle."""
    h = blaschke_product(points)
    finite = [complex(p) for p in points if not is_infinite(p)]
    interior_side = bool(finite) and abs(finite[0]) < 1.0
    side = "interior" if interior_side else "exterior"
    total = math.fsum(disk_normal_derivative(p, side) for p in points)
    # |h| is constant on the circle, so a dense product-form scan is exact
    # to rounding; the partial-fraction form would lose digits to
    # cancellation whenever picks cluster
    ring = np.exp(1j * np.arange(4096) * (TWO_PI / 4096))
    sup = float(np.max(np.abs(blaschke_eval(points, ring))))
    deriv = abs(blaschke_derivative(points, 1.0 + 0j))
    return h, abs(deriv - total * sup)


# ---------------------------------------------------------------------------
# the transplant pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalRun:
    n: int
    picks: tuple           # disk-side pole picks, length n
    zeta0: complex         # exterior anchor carrying the correction pole
    n_interp: int          # floor(n^{4/5})
    nodes: LejaSet
    delta_prime: float     # offset of the collision-checked outer curve
    fn: RationalFunction
    ratio: float
    bound: float
    sup: float
    deriv_mod: float
    transfer_residual: float  # relative gap between |fn'(u0)| and |h'(1)|
    report: BoundReport


def _hermite_coefficients(xi, vals, dval0):
    """Newton coefficients on the multiset xi = [w0, w0, x1, ...]; the single
    confluent pair takes the supplied derivative value."""
    c = [complex(v) for v in vals]
    k = len(xi)
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            dx = xi[i] - xi[i - j]
            if dx == 0:
                c[i] = complex(dval0)
            else:
                c[i] = (c[i] - c[i - 1]) / dx
    return c


def _blaschke_jet(picks, v: complex):
    """(B(v), B'(v)) of the product over picks at the scalar v, in Python
    complex arithmetic: one factor per distinct pick, raised to its
    multiplicity."""
    val, logd = 1.0 + 0j, 0j
    for a, m in Counter(picks).items():
        num, den = 1.0 - a.conjugate() * v, v - a
        val *= (num / den) ** m
        logd -= m * (a.conjugate() / num + 1.0 / den)
    return val, val * logd


def _terms_jet(terms, u: complex, val=0j, der=0j):
    """(val + f(u), der + f'(u)) for the pole terms f at the scalar u, in
    term order: rf_eval's and rf_derivative's Horner in r = 1/(u - a) from
    one reciprocal offset per term, and rf_eval's pole-floor PoleError."""
    for t in terms:
        d = u - t.location
        if abs(d) < POLE_FLOOR:
            raise PoleError(f"evaluation within the pole floor of {t.location}")
        r = 1.0 / d
        acc, dacc = t.coeffs[-1] * r, t.order * t.coeffs[-1] * r
        for k in range(t.order - 1, 0, -1):
            acc = (acc + t.coeffs[k - 1]) * r
            dacc = (dacc + k * t.coeffs[k - 1]) * r
        val, der = val + acc, der - dacc * r
    return val, der


def _clearance(interior, zeta0) -> float:
    """delta_prime = delta/2, else delta/4, of the interior map, such that
    zeta0 lies outside Phi1((1 + delta_prime) e^{it}): its preimage radius,
    infinite past the verified domain (map_invert raises), exceeds
    1 + delta_prime; else an ExtremalError.  map_invert's memo keeps the
    preimage, or the failure, per map and zeta0."""
    try:
        radius = abs(map_invert(interior, zeta0))
    except MapInvertError:
        radius = math.inf
    for delta_prime in (interior.delta / 2.0, interior.delta / 4.0):
        if radius > 1.0 + delta_prime:
            return delta_prime
    raise ExtremalError(f"exterior anchor {zeta0} collides with the "
                        "inflated curve")


def build_transferred_extremal(curve: AnalyticCurve, maps: MapPair, picks,
                               zeta0, u0: BoundaryPoint) -> ExtremalRun:
    """Extremal candidate of degree about n from disk-side pole picks.

    Steps: Blaschke product over the picks; principal parts of its
    transplant at the image poles; Hermite/Leja interpolation of the
    analytic remainder in the w = 1/(u - zeta0) variable (double node at
    w0 matches value and derivative at the anchor); reassembly as a single
    partial-fraction function whose only extra pole sits at zeta0."""
    picks = [complex(v) for v in picks]
    n = len(picks)
    if n == 0:
        raise ExtremalError("the construction needs at least one interior pick")
    if any(abs(v) >= 1.0 - _OFF_CIRCLE for v in picks):
        raise ExtremalError("pole picks must lie strictly inside the disk")
    if not cmath.isfinite(complex(zeta0)):
        raise ExtremalError("the exterior anchor must be finite")
    zeta0 = complex(zeta0)
    if abs(maps.anchor - u0.point) > 1e-8 * (1.0 + abs(u0.point)):
        raise ExtremalError("map pair is not anchored at the boundary point")

    # principal parts of the transplant B o Phi1^{-1} at the image poles
    f1 = principal_parts(lambda v: blaschke_eval(picks, v),
                         cluster_points(picks), maps.interior)

    # the anchor values, each once, by scalar arithmetic
    h1, dh1 = _blaschke_jet(picks, 1.0 + 0j)
    h_deriv = abs(dh1)
    f1_jet = _terms_jet(f1.terms, u0.point)
    phi0 = h1 - f1_jet[0]
    dphi0 = dh1 / maps.interior.anchor_deriv - f1_jet[1]

    # the correction variable w = 1/(u - zeta0); zeta0 must stay clear of the
    # slightly inflated curve on which the remainder is still analytic
    if not maps.delta1 > 0.0:
        raise ExtremalError("interior map carries no verified extension margin")
    delta_prime = _clearance(maps.interior, zeta0)

    w0 = 1.0 / (u0.point - zeta0)
    dpsi0 = -1.0 / (u0.point - zeta0) ** 2

    n_interp = int(math.floor(n ** 0.8 + 1e-12))
    _, pts = sample_grid(curve, _CANDIDATES_M)
    wc = 1.0 / (pts - zeta0)
    keep = np.abs(wc - w0) > 1e-8 * max(float(np.max(np.abs(wc))), 1.0)
    cand_w, cand_u = wc[keep], pts[keep]
    seed = complex(cand_w[int(np.argmax(np.abs(cand_w - w0)))])
    leja = leja_points(cand_w, n_interp, seed=seed)

    u_nodes = cand_u[list(leja.indices)]
    node_vals = (blaschke_eval(picks, map_invert(maps.interior, u_nodes))
                 - rf_eval(f1, u_nodes))
    remainder_scale = max(float(np.max(np.abs(node_vals))), abs(phi0),
                          abs(dphi0))
    if remainder_scale <= _REMAINDER_TOL:
        # The transplanted product is already rational with poles at the
        # picks (identity-like maps): skip the correction rather than
        # interpolate pure noise, which divided differences would
        # amplify into a spurious full-order pole at zeta0.
        prin, const = [], 0j
    else:
        xi = [w0, w0] + list(leja.nodes)
        vals = [phi0, phi0] + [complex(v) for v in node_vals]
        newton = _hermite_coefficients(xi, vals, dphi0 / dpsi0)

        # expand sum_k c_k prod_{i<k}(w - xi_i) exactly in s = u - zeta0,
        # w = 1/s:  prod_{i<k}(1/s - xi_i) = s^{-k} prod_{i<k}(1 - xi_i s)
        neg = [0j] * len(xi)  # neg[p] multiplies s^{-p}
        poly = [1.0 + 0j]
        for k, ck in enumerate(newton):
            for j, pj in enumerate(poly):
                neg[k - j] += ck * pj
            poly = [a - xi[k] * b for a, b in zip(poly + [0j], [0j] + poly)]
        # Trim expansion orders whose worst-case boundary contribution
        # |c_p| * max_Γ |u - zeta0|^{-p} falls below _REMAINDER_TOL (the
        # transplanted sup norm is ~1 by construction).  Magnitude alone
        # is the wrong yardstick: a vestigial order with residue 1e-10
        # perturbs the function by nothing yet would still count fully,
        # order-wise, in the outer normal-derivative sum and wreck the
        # ratio.
        dist = float(np.min(np.abs(pts - zeta0)))
        prin = neg[1:]
        while prin and abs(prin[-1]) * dist ** -len(prin) <= _REMAINDER_TOL:
            prin.pop()
        const = neg[0] if abs(neg[0]) > _REMAINDER_TOL else 0j
    f2_terms = [(zeta0, tuple(prin))] if prin else []
    fn = make_rational(list(f1.terms) + f2_terms, (const,) if const else ())

    # fn'(u0): f1'(u0) continued by the zeta0 term (a constant adds nothing)
    deriv_mod = abs(_terms_jet(fn.terms[len(f1.terms):], u0.point,
                               *f1_jet)[1])
    poles = classify_poles(poles_of(fn), curve)
    sup, _ = sup_norm(fn, curve)
    report = bernstein_bound(u0, poles, maps)
    ratio = deriv_mod / (sup * report.bound)
    residual = abs(deriv_mod - h_deriv) / max(h_deriv, 1e-300)
    return ExtremalRun(n, tuple(picks), zeta0, n_interp, leja,
                       float(delta_prime), fn, float(ratio),
                       float(report.bound), float(sup), float(deriv_mod),
                       float(residual), report)


# ---------------------------------------------------------------------------
# ratio sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    n: int
    n_interp: int
    ratio: float
    bound: float
    sup: float
    deriv_mod: float
    flags: str
    run: ExtremalRun | None


def _expand_picks(base, n, policy):
    if policy == "repeat_single_pole":
        return [base[0]] * n
    if policy == "cycle_list":
        return [base[i % len(base)] for i in range(n)]
    raise ExtremalError(f"unknown picks policy {policy!r}")


def sharpness_sweep(curve: AnalyticCurve, maps: MapPair, u0: BoundaryPoint,
                    interior_poles, zeta0, n_list,
                    policy: str = "cycle_list"):
    """One ExtremalRun per n, in input order; failures become flagged rows
    and the sweep continues.  An interior pole that does not lie inside the
    curve fails the whole sweep before any row."""
    interior_poles = [complex(z) for z in interior_poles]
    if not interior_poles:
        raise ExtremalError("the sweep needs at least one interior pole")
    try:
        base = list(map_invert(maps.interior, np.array(interior_poles)))
        inside = [abs(v) < 1.0 for v in base]
    except MapInvertError:
        # a pole past the map's verified domain; classify only on this path
        inside = classify_poles([(z, 1) for z in interior_poles], curve).inside
        if all(inside):
            raise
    for z, ok in zip(interior_poles, inside):
        if not ok:
            raise ExtremalError(f"interior pole {z} does not lie inside "
                                "the curve")
    _expand_picks(base, 1, policy)  # reject unknown policies up front

    def one(n):
        try:
            run = build_transferred_extremal(
                curve, maps, _expand_picks(base, int(n), policy), zeta0, u0)
        except NumericsError as exc:
            return SweepRow(int(n), 0, math.nan, math.nan, math.nan,
                            math.nan, f"{type(exc).__name__}: {exc}", None)
        return SweepRow(run.n, run.n_interp, run.ratio, run.bound, run.sup,
                        run.deriv_mod, "", run)

    return [one(n) for n in n_list]
