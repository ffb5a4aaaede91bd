"""Traced second-variation calculus along conformal free-boundary geodesics.

The stability inequality for a curve minimizing length in the metric u^-2 g
between two hypersurfaces is organized here as a sum of named terms: the two
boundary mean-curvature terms, a background Ricci integral, a cross term in
u_T, and two curvature-substitution integrals built from the quantities

    J1 = (n |u_N|^2 - n u u_TT) / u,
    J2 = (n |u_T|^2 - (lap u - u_TT) u) / u,

all integrated in the conformal arclength, with a weight phi that is either
the constant 1 or the cosh-type ``CoshWeight``.  For the quartic cutoff
u = u(r) the J's collapse to one-dimensional expressions in (r, r_T) through
the warping function lambda(r) = r or sinh(kappa r)/kappa; those closed
forms, their sharp grid bounds, and the cosh weight's calculus live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .conformal import geodesic_residual
from .curves import DiscreteCurve
from .fields import QuarticCutoff, ScalarField
from .hypersurface import Hypersurface
from .spaceform import (
    SpaceForm,
    grad_g,
    grad_norm2_g,
    hess_g_apply,
    laplacian_g,
)

_trapz = getattr(np, "trapezoid", None) or np.trapz

RESIDUAL_TOL = 1e-6  # largest geodesic residual ``index_form_trace`` accepts
LENGTH_RTOL = 1e-6  # relative mismatch allowed between a cosh weight's L and the g-length
PHI_GRID_POINTS = 2001  # points of the [0, L] grid ``phi_calculus`` measures on


# ---------------------------------------------------------------------------
# coth r - 1/r
# ---------------------------------------------------------------------------


def coth_minus_inv(x):
    """coth(x) - 1/x, series-guarded near zero; lies in (0, 1) for x > 0.

    Below x = 0.1 the direct form loses digits to cancellation, so the
    Laurent series x/3 - x^3/45 + 2x^5/945 - x^7/4725 is used instead.
    Past |x| = 710 cosh overflows; there cosh/sinh is taken as sign(x), which
    is what it already rounds to from |x| = 707.7 on.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 0.1
    big = np.abs(x) > 710.0
    xs = np.where(small, 1.0, x)
    xc = np.where(big, 1.0, xs)
    direct = np.where(big, np.sign(x), np.cosh(xc) / np.sinh(xc)) - 1.0 / xs
    xq = np.where(small, x, 0.0)
    x2 = xq * xq
    series = xq * (1.0 / 3.0 + x2 * (-1.0 / 45.0 + x2 * (2.0 / 945.0 - x2 / 4725.0)))
    out = np.where(small, series, direct)
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# the cosh weight on [0, L]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoshWeight:
    """The cosh-type weight phi(s) on [0, L], s the g-arclength:

        phi(s) = (e^(s-L) + e^(-s)) / (1 + e^(-L)),

    which equals cosh(s - L/2)/cosh(L/2): it is 1 at both ends, dips in the
    middle, and satisfies phi'' = phi, so psi = phi phi' has the derivative
    psi' = (phi')^2 + phi^2 and endpoint values -+ tanh(L/2).  All exponents
    are nonpositive on [0, L], so the forms below never overflow.
    """

    L: float

    def __post_init__(self):
        if not self.L > 0.0:
            raise ValueError("cosh weight needs a length L > 0")

    # -- pointwise values ----------------------------------------------------

    def phi(self, s):
        s = np.asarray(s, dtype=float)
        den = 1.0 + math.exp(-self.L)
        return (np.exp(s - self.L) + np.exp(-s)) / den

    def dphi(self, s):
        s = np.asarray(s, dtype=float)
        den = 1.0 + math.exp(-self.L)
        return (np.exp(s - self.L) - np.exp(-s)) / den

    def psi(self, s):
        """psi = phi * phi'."""
        return self.phi(s) * self.dphi(s)

    def dpsi(self, s):
        """psi' = phi'^2 + phi^2."""
        return self.dphi(s) ** 2 + self.phi(s) ** 2

    # -- closed forms --------------------------------------------------------

    def endpoint_psi(self) -> Tuple[float, float]:
        """(psi(0), psi(L)) = (-tanh(L/2), tanh(L/2))."""
        t = math.tanh(self.L / 2.0)
        return -t, t

    def phi_sq_integral(self) -> float:
        """Closed form of the integral of phi^2 over [0, L]."""
        L = self.L
        den = 1.0 + math.exp(-L)
        return (1.0 - math.exp(-2.0 * L) + 2.0 * L * math.exp(-L)) / (den * den)


@dataclass
class PhiCalculusReport:
    endpoint_error: float
    derivative_identity_error: float
    phi_sq_closed: float
    phi_range: Tuple[float, float]


def phi_calculus(L: float) -> PhiCalculusReport:
    """Measure the cosh weight's calculus at length L.

    Reports the error of the endpoint values of psi against -+tanh(L/2),
    the error of the derivative identity psi' = phi'^2 + phi^2 against a
    central difference of psi, the closed form of the phi^2 integral, and
    the range of phi, all on a grid of PHI_GRID_POINTS points.
    """
    if not L > 0.0:
        raise ValueError("L must be positive")
    tf = CoshWeight(L)
    s = np.linspace(0.0, L, PHI_GRID_POINTS)
    p0, p1 = tf.endpoint_psi()
    endpoint_error = float(np.maximum(
        abs(float(tf.psi(0.0)) - p0), abs(float(tf.psi(np.asarray(L))) - p1)
    ))
    h = 1e-6 * max(1.0, L)
    interior = s[(s > h) & (s < L - h)]
    fd = (tf.psi(interior + h) - tf.psi(interior - h)) / (2.0 * h)
    derivative_identity_error = float(np.max(np.abs(fd - tf.dpsi(interior))))
    vals = tf.phi(s)
    return PhiCalculusReport(
        endpoint_error=endpoint_error,
        derivative_identity_error=derivative_identity_error,
        phi_sq_closed=tf.phi_sq_integral(),
        phi_range=(float(vals.min()), float(vals.max())),
    )


# ---------------------------------------------------------------------------
# the J quantities for radial factors
# ---------------------------------------------------------------------------


def _radial_terms(space: SpaceForm, profile: QuarticCutoff, r, r_T):
    """(n, S, P, D, r_T^2, r_N^2) for the radial J quantities.

    r is the geodesic distance to the profile center, r_T the tangential
    component of its unit gradient along the curve (so r_N^2 = 1 - r_T^2);
    the space supplies the dimension and the warping function.  With
    S = u'^2/u, P = u' lambda'/lambda and D = u'' - u' lambda'/lambda,

        J1 = n (S r_N^2 - P) - n D r_T^2,
        J2 = n (S r_T^2 - P) - D r_N^2.

    P and D are assembled through u'/r and coth(kappa r) - 1/(kappa r), so
    the expressions stay finite at r = 0 where both J's tend to the common
    value -n u''(0) = 4 n R^-2.  S, P, D depend on r alone.
    """
    rT2 = np.clip(r_T, -1.0, 1.0) ** 2
    rN2 = 1.0 - rT2
    n = float(space.n)

    S = profile.d1_sq_over_value(r)
    P = profile.d1_over_r(r)
    d2 = profile.d2(r)
    D = d2 - P
    if space.hyperbolic:
        k = space.kappa
        extra = profile.d1(r) * k * coth_minus_inv(k * r)
        P = P + extra
        D = D - extra
    return n, S, P, D, rT2, rN2


def _j1(n, S, P, D, rT2, rN2) -> np.ndarray:
    return n * (S * rN2 - P) - n * D * rT2


def _j2(n, S, P, D, rT2, rN2) -> np.ndarray:
    return n * (S * rT2 - P) - D * rN2


@dataclass
class BoundCheck:
    name: str
    min_slack: float
    at_r: float
    at_r_T: float
    bound: float
    value: float


@dataclass
class BoundsScan:
    model: str
    n: int
    R: float
    n_r: int
    n_t: int
    checks: Dict[str, BoundCheck] = field(default_factory=dict)
    j2_max: float = 0.0


def crucial_bounds_scan(
    n: int,
    R: float,
    model: str,
    n_r: int,
    n_t: int,
) -> BoundsScan:
    """Grid-check the sharp pointwise bounds on J1 and J2.

    For the quartic cutoff with support radius R, over (r, r_T) in
    [0, R] x [-1, 1]:

      * flat model:        J2 <= 16 n R^-2  (equality at r = R, |r_T| = 1);
      * hyperbolic model:  J1 >= -8 n R^-2  and  J2 <= 16 n R^-2 - n u'(r).

    Slack is bound - value for upper bounds and value - bound for lower
    bounds.

    The result is that of the full n_r x n_t grid, bit for bit, but most
    rows need only their r_T = -1 cell. On a row write t = r_T^2, so that
    J2 = n (S t - P) - D (1 - t) and J1 = n (S (1 - t) - P) - n D t.
    Round-to-nearest is monotone, so an IEEE operation with one operand fixed
    is monotone in the other. Where the computed S and D are nonnegative
    (true of the quartic cutoff in both models) the computed J2 is therefore
    nondecreasing in t and J1 nonincreasing, and every slack is nonincreasing
    in t. Each row's smallest slack and largest J2 then sit at t = 1, and
    its first such cell, the one ``np.argmin`` picks, is r_T = -1. A row
    whose S, P, D, bounds or r_T = -1 values fail that sign and finiteness
    test is evaluated in full.
    """
    if model not in ("euclid", "hyperbolic"):
        raise ValueError("model must be 'euclid' or 'hyperbolic'")
    space = SpaceForm(n + 1, 0.0 if model == "euclid" else 1.0)
    prof = QuarticCutoff(R)
    r = np.linspace(0.0, R, n_r)
    rt = np.linspace(-1.0, 1.0, n_t)
    nf, S, P, D, rT2, rN2 = _radial_terms(space, prof, r[:, None], rt)
    base = 16.0 * n / R**2
    low = -8.0 * n / R**2
    # the hyperbolic J2 bound depends on r alone; only that model bounds J1
    bound2 = base - n * prof.d1(r[:, None]) if model == "hyperbolic" else base

    def cells(rows, cols):
        """J2 and each check's (slack, bound, value) on the cells rows x cols."""
        terms = (nf, S[rows], P[rows], D[rows], rT2[cols], rN2[cols])
        J2 = _j2(*terms)
        if model == "euclid":
            return J2, {"j2_upper": (base - J2, base, J2)}
        J1 = _j1(*terms)
        b2 = bound2[rows]
        return J2, {"j1_lower": (J1 - low, low, J1), "j2_upper": (b2 - J2, b2, J2)}

    J2_col, col = cells(slice(None), slice(0, 1))
    monotone = (S >= 0.0) & (D >= 0.0) & np.isfinite(S + P + D)
    for slack, bound, value in col.values():
        monotone &= np.isfinite(slack + bound + value)
    full = np.flatnonzero(~monotone)
    J2_full, rows = cells(full, slice(None))

    scan = BoundsScan(model=model, n=n, R=R, n_r=n_r, n_t=n_t)
    scan.j2_max = float(np.max(np.concatenate([J2_col.ravel(), J2_full.ravel()])))
    for name, parts in col.items():
        # per row: the first minimum of the slack, with its bound and value
        picked = [np.broadcast_to(a, (n_r, 1))[:, 0].copy() for a in parts]
        at = np.zeros(n_r, dtype=int)
        slack = rows[name][0]
        at[full] = np.argmin(slack, axis=1)
        for dst, a in zip(picked, rows[name]):
            dst[full] = np.broadcast_to(a, slack.shape)[np.arange(full.size), at[full]]
        i = int(np.argmin(picked[0]))
        scan.checks[name] = BoundCheck(
            name=name,
            min_slack=float(picked[0][i]),
            at_r=float(r[i]),
            at_r_T=float(rt[at[i]]),
            bound=float(picked[1][i]),
            value=float(picked[2][i]),
        )
    return scan


# ---------------------------------------------------------------------------
# the traced index form along a discrete tilde-geodesic
# ---------------------------------------------------------------------------


@dataclass
class IndexFormReport:
    """Named terms of the traced stability form; total is their plain sum.

    boundary_start and boundary_end are -u H at the endpoints, with each
    mean curvature taken against the normal that points from the piece into
    the region swept by the curve.  The integrals are composite-trapezoid
    quadratures on the curve's conformal arclength table.  f_identity_lhs
    and f_identity_rhs evaluate both sides of

        n (u_T(q) - u_T(p)) = int f (n u u_TT - n |u_N|^2)
                              + n phi phi' u u_T  dtilde-s,
        f = (1 + phi^2)/2,

    independently; they agree to quadrature accuracy on a true geodesic.
    """

    boundary_start: float
    boundary_end: float
    ricci_integral: float
    cross_term: float
    j1_integral: float
    j2_integral: float
    total: float
    f_identity_lhs: float
    f_identity_rhs: float
    g_length: float
    tilde_length: float
    max_residual: float


def _signed_mean_curvature(piece: Hypersurface, x: np.ndarray, direction: np.ndarray) -> float:
    """Scalar mean curvature of the piece at x against the normal whose
    orientation matches ``direction`` (flipping the stored one if needed)."""
    if abs(float(piece.F(x))) > 1e-7:
        raise ValueError("curve endpoint does not lie on its boundary piece")
    H = float(piece.mean_curvature(x))
    nu = piece.normal(x)
    align = float(piece.space.inner(x, nu, direction))
    if align == 0.0:
        raise ValueError("curve tangent is tangent to the boundary piece")
    return H if align > 0.0 else -H


def index_form_trace(
    curve: DiscreteCurve,
    u: ScalarField,
    piece_start: Hypersurface,
    piece_end: Hypersurface,
    phi: Optional[CoshWeight] = None,
) -> IndexFormReport:
    """Evaluate the traced second variation of conformal length term by term.

    The curve must already be a certified geodesic of the metric u^-2 g: its
    pointwise geodesic residual is checked against ``RESIDUAL_TOL`` before
    anything is integrated.  ``phi=None`` is the constant weight phi = 1; a
    ``CoshWeight``'s length has to match the curve's g-length to within
    ``LENGTH_RTOL``.

    A minimizing curve has total >= 0 up to discretization error; the report
    keeps every named term so the inequality can be rearranged downstream.
    """
    space = curve.space
    pts = curve.points
    n = float(space.n)

    T, _sigma = curve.vertex_tangents()
    acc = curve.vertex_acceleration()
    uv = np.asarray(u.value(pts), dtype=float)
    if np.any(uv <= 0.0):
        raise ValueError("conformal factor must be positive along the curve")
    u_T = space.inner(pts, grad_g(space, u, pts), T)

    residual = geodesic_residual(space, u, pts, T, acc)
    max_residual = float(np.max(space.norm(pts, residual)))
    if max_residual > RESIDUAL_TOL:
        raise ValueError(
            f"curve is not stationary: residual {max_residual:.3e} exceeds "
            f"{RESIDUAL_TOL:.3e}"
        )

    s = curve.vertex_s()
    st = curve.vertex_s(u)
    L = float(s[-1])
    if phi is None:
        pv, dpv = np.ones_like(s), np.zeros_like(s)
    elif abs(phi.L - L) > LENGTH_RTOL * max(1.0, L):
        raise ValueError(
            f"weight length {phi.L} does not match the curve's g-length {L}"
        )
    else:
        pv, dpv = phi.phi(s), phi.dphi(s)
    u_N2 = np.maximum(grad_norm2_g(space, u, pts) - u_T * u_T, 0.0)
    u_TT = hess_g_apply(space, u, pts, T, T)
    lap = laplacian_g(space, u, pts)
    ric_TT = -n * space.kappa**2

    ricci_integral = float(
        _trapz(uv * uv * (n * dpv * dpv - ric_TT * pv * pv), st)
    )
    cross_term = float(_trapz(n * pv * dpv * uv * u_T, st))
    j1_integral = float(
        _trapz(-0.5 * (1.0 - pv * pv) * (n * u_N2 - n * uv * u_TT), st)
    )
    j2_integral = float(
        _trapz(pv * pv * (n * u_T * u_T - (lap - u_TT) * uv), st)
    )

    boundary_start = -float(uv[0]) * _signed_mean_curvature(piece_start, pts[0], T[0])
    boundary_end = -float(uv[-1]) * _signed_mean_curvature(piece_end, pts[-1], -T[-1])

    f = 0.5 * (1.0 + pv * pv)
    f_identity_lhs = float(n * (u_T[-1] - u_T[0]))
    f_identity_rhs = float(
        _trapz(f * (n * uv * u_TT - n * u_N2) + n * pv * dpv * uv * u_T, st)
    )

    total = (
        boundary_start
        + boundary_end
        + ricci_integral
        + cross_term
        + j1_integral
        + j2_integral
    )
    return IndexFormReport(
        boundary_start=boundary_start,
        boundary_end=boundary_end,
        ricci_integral=ricci_integral,
        cross_term=cross_term,
        j1_integral=j1_integral,
        j2_integral=j2_integral,
        total=total,
        f_identity_lhs=f_identity_lhs,
        f_identity_rhs=f_identity_rhs,
        g_length=L,
        tilde_length=float(st[-1]),
        max_residual=max_residual,
    )


def tanh_boundary_identity(
    curve: DiscreteCurve, u: ScalarField, phi: CoshWeight
) -> Tuple[float, float]:
    """Both sides of n (u(p) + u(q)) tanh(L/2) = int n (psi' u + psi u_T) ds.

    The identity is the fundamental theorem of calculus for n psi u in the
    g-arclength, so it holds along any curve whose g-length matches the
    weight's L; no geodesic property is needed.  Returns (lhs, rhs) with the
    right side a composite-trapezoid quadrature on the vertex table.
    """
    space = curve.space
    pts = curve.points
    n = float(space.n)
    s = curve.vertex_s()
    L = float(s[-1])
    if abs(phi.L - L) > LENGTH_RTOL * max(1.0, L):
        raise ValueError("weight length does not match the curve's g-length")
    uv = np.asarray(u.value(pts), dtype=float)
    T, _ = curve.vertex_tangents()
    u_T = space.inner(pts, grad_g(space, u, pts), T)
    lhs = n * (uv[0] + uv[-1]) * math.tanh(L / 2.0)
    rhs = float(_trapz(n * (phi.dpsi(s) * uv + phi.psi(s) * u_T), s))
    return lhs, rhs
