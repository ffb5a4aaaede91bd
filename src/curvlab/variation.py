"""Traced second-variation calculus along conformal free-boundary geodesics.

The stability inequality for a curve minimizing length in the metric u^-2 g
between two hypersurfaces is organized here as a sum of named terms: the two
boundary mean-curvature terms, a background Ricci integral, a cross term in
u_T, and two curvature-substitution integrals built from the quantities

    J1 = (n |u_N|^2 - n u u_TT) / u,
    J2 = (n |u_T|^2 - (lap u - u_TT) u) / u,

all integrated in the conformal arclength.  For radial factors u = u(r) the
J's collapse to one-dimensional expressions in (r, r_T) through the warping
function lambda(r) = r or sinh(kappa r)/kappa; those closed forms, their
sharp grid bounds, and the hyperbolic test-function calculus live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .curves import DiscreteCurve
from .fields import RadialProfile, ScalarField
from .hypersurface import Hypersurface
from .spaceform import (
    SpaceForm,
    grad_g,
    grad_norm2_g,
    hess_g_apply,
    laplacian_g,
)

_trapz = getattr(np, "trapezoid", None) or np.trapz


# ---------------------------------------------------------------------------
# coth r - 1/r
# ---------------------------------------------------------------------------


def coth_minus_inv(x):
    """coth(x) - 1/x, series-guarded near zero; lies in (0, 1) for x > 0.

    Below x = 0.1 the direct form loses digits to cancellation, so the
    Laurent series x/3 - x^3/45 + 2x^5/945 - x^7/4725 is used instead.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 0.1
    xs = np.where(small, 1.0, x)
    direct = np.cosh(xs) / np.sinh(xs) - 1.0 / xs
    x2 = x * x
    series = x * (1.0 / 3.0 + x2 * (-1.0 / 45.0 + x2 * (2.0 / 945.0 - x2 / 4725.0)))
    out = np.where(small, series, direct)
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# test functions on [0, L]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Weight phi(s) multiplying the parallel normal frame, s the g-arclength.

    kind "one" is the constant function.  kind "cosh" is

        phi(s) = (e^(s-L) + e^(-s)) / (1 + e^(-L)),

    which equals cosh(s - L/2)/cosh(L/2): it is 1 at both ends, dips in the
    middle, and satisfies phi'' = phi, so psi = phi phi' has the derivative
    psi' = (phi')^2 + phi^2 and endpoint values -+ tanh(L/2).  All exponents
    are nonpositive on [0, L], so the forms below never overflow.
    """

    kind: str = "one"
    L: Optional[float] = None

    # not a pytest test class, despite the name
    __test__ = False

    def __post_init__(self):
        if self.kind not in ("one", "cosh"):
            raise ValueError("kind must be 'one' or 'cosh'")
        if self.kind == "cosh":
            if self.L is None or not self.L > 0.0:
                raise ValueError("cosh test function needs a length L > 0")

    @classmethod
    def one(cls) -> "TestFunction":
        return cls(kind="one")

    @classmethod
    def cosh_type(cls, L: float) -> "TestFunction":
        return cls(kind="cosh", L=float(L))

    # -- pointwise values ----------------------------------------------------

    def phi(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "one":
            return np.ones_like(s)
        den = 1.0 + math.exp(-self.L)
        return (np.exp(s - self.L) + np.exp(-s)) / den

    def dphi(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "one":
            return np.zeros_like(s)
        den = 1.0 + math.exp(-self.L)
        return (np.exp(s - self.L) - np.exp(-s)) / den

    def psi(self, s):
        """psi = phi * phi'."""
        return self.phi(s) * self.dphi(s)

    def dpsi(self, s):
        """psi' along the family; equals phi'^2 + phi^2 for the cosh kind."""
        s = np.asarray(s, dtype=float)
        if self.kind == "one":
            return np.zeros_like(s)
        return self.dphi(s) ** 2 + self.phi(s) ** 2

    # -- closed forms --------------------------------------------------------

    def endpoint_psi(self) -> Tuple[float, float]:
        """(psi(0), psi(L)) = (-tanh(L/2), tanh(L/2)) for the cosh kind."""
        if self.kind == "one":
            return 0.0, 0.0
        t = math.tanh(self.L / 2.0)
        return -t, t

    def phi_sq_integral(self) -> float:
        """Closed form of the integral of phi^2 over [0, L]."""
        if self.kind == "one":
            raise ValueError("constant weight has no closed phi^2 integral")
        L = self.L
        den = 1.0 + math.exp(-L)
        return (1.0 - math.exp(-2.0 * L) + 2.0 * L * math.exp(-L)) / (den * den)


@dataclass
class PhiCalculusReport:
    L: float
    psi_left: float
    psi_right: float
    endpoint_error: float
    derivative_identity_error: float
    phi_sq_closed: float
    phi_sq_bound: float
    phi_range: Tuple[float, float]
    ok: bool


def phi_calculus(L: float, n_grid: int = 2001) -> PhiCalculusReport:
    """Certify the cosh weight's calculus at length L.

    Checks the endpoint values of psi against -+tanh(L/2), the derivative
    identity psi' = phi'^2 + phi^2 against a central difference of psi, the
    closed form of the phi^2 integral against its 6/5 bound, and the range
    0 < phi <= 1.
    """
    if not L > 0.0:
        raise ValueError("L must be positive")
    tf = TestFunction.cosh_type(L)
    s = np.linspace(0.0, L, n_grid)
    p0, p1 = tf.endpoint_psi()
    endpoint_error = float(np.maximum(
        abs(float(tf.psi(0.0)) - p0), abs(float(tf.psi(np.asarray(L))) - p1)
    ))
    h = 1e-6 * max(1.0, L)
    interior = s[(s > h) & (s < L - h)]
    fd = (tf.psi(interior + h) - tf.psi(interior - h)) / (2.0 * h)
    derivative_identity_error = float(np.max(np.abs(fd - tf.dpsi(interior))))
    closed = tf.phi_sq_integral()
    vals = tf.phi(s)
    ok = (
        endpoint_error < 1e-12
        and derivative_identity_error < 1e-7 * max(1.0, L)
        and closed <= 1.2 + 1e-15
        and 0.0 < float(vals.min())
        and float(vals.max()) <= 1.0 + 1e-15
    )
    return PhiCalculusReport(
        L=L,
        psi_left=p0,
        psi_right=p1,
        endpoint_error=endpoint_error,
        derivative_identity_error=derivative_identity_error,
        phi_sq_closed=closed,
        phi_sq_bound=1.2,
        phi_range=(float(vals.min()), float(vals.max())),
        ok=bool(ok),
    )


# ---------------------------------------------------------------------------
# the J quantities for radial factors
# ---------------------------------------------------------------------------


@dataclass
class JInputs:
    """Point data for the radial curvature-substitution quantities.

    r is the geodesic distance to the profile center, r_T the tangential
    component of its unit gradient along the curve (so r_N^2 = 1 - r_T^2).
    The space supplies the dimension and the warping function.
    """

    space: SpaceForm
    profile: RadialProfile
    r: np.ndarray
    r_T: np.ndarray

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.r_T = np.asarray(self.r_T, dtype=float)
        if np.any(self.r < 0.0):
            raise ValueError("r must be nonnegative")
        if np.any(np.abs(self.r_T) > 1.0 + 1e-12):
            raise ValueError("r_T must lie in [-1, 1]")
        if self.profile.R is not None and np.any(self.r > self.profile.R * (1 + 1e-12)):
            raise ValueError("r exceeds the profile support radius")


def j_values(inputs: JInputs) -> Tuple[np.ndarray, np.ndarray]:
    """(J1, J2) from the one-dimensional radial data.

    With S = u'^2/u, P = u' lambda'/lambda and D = u'' - u' lambda'/lambda,

        J1 = n (S r_N^2 - P) - n D r_T^2,
        J2 = n (S r_T^2 - P) - D r_N^2.

    P and D are assembled through u'/r and coth(kappa r) - 1/(kappa r), so
    the expressions stay finite at r = 0 where both J's tend to the common
    value -n u''(0) (= 4 n R^-2 for the quartic cutoff).
    """
    space = inputs.space
    prof = inputs.profile
    r = inputs.r
    rT2 = np.clip(inputs.r_T, -1.0, 1.0) ** 2
    rN2 = 1.0 - rT2
    n = float(space.n)

    S = prof.d1_sq_over_value(r)
    P = prof.d1_over_r(r)
    d2 = prof.d2(r)
    D = d2 - P
    if space.hyperbolic:
        k = space.kappa
        extra = prof.d1(r) * k * coth_minus_inv(k * r)
        P = P + extra
        D = D - extra
    J1 = n * (S * rN2 - P) - n * D * rT2
    J2 = n * (S * rT2 - P) - D * rN2
    return J1, J2


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
    passed: bool = False


def crucial_bounds_scan(
    n: int,
    R: float,
    model: str = "euclid",
    n_r: int = 1000,
    n_t: int = 100,
    slack_floor: float = -1e-12,
) -> BoundsScan:
    """Grid-check the sharp pointwise bounds on J1 and J2.

    For the quartic cutoff with support radius R, over (r, r_T) in
    [0, R] x [-1, 1]:

      * flat model:        J2 <= 16 n R^-2  (equality at r = R, |r_T| = 1);
      * hyperbolic model:  J1 >= -8 n R^-2  and  J2 <= 16 n R^-2 - n u'(r).

    Slack is bound - value for upper bounds and value - bound for lower
    bounds; the scan passes when every slack stays above ``slack_floor``.
    """
    if model not in ("euclid", "hyperbolic"):
        raise ValueError("model must be 'euclid' or 'hyperbolic'")
    from .fields import quartic_cutoff_profile

    space = SpaceForm(n + 1, 0.0 if model == "euclid" else 1.0)
    prof = quartic_cutoff_profile(R)
    r = np.linspace(0.0, R, n_r)
    rt = np.linspace(-1.0, 1.0, n_t)
    # j_values is pointwise, so broadcasting a column of radii against a row
    # of r_T fills the (n_r, n_t) grid without materializing coordinate grids
    J1, J2 = j_values(JInputs(space, prof, r[:, None], rt[None, :]))

    scan = BoundsScan(model=model, n=n, R=R, n_r=n_r, n_t=n_t)
    scan.j2_max = float(J2.max())

    def record(name, slack, bound, value):
        i, j = np.unravel_index(np.argmin(slack), slack.shape)
        scan.checks[name] = BoundCheck(
            name=name,
            min_slack=float(slack[i, j]),
            at_r=float(r[i]),
            at_r_T=float(rt[j]),
            bound=float(np.broadcast_to(bound, slack.shape)[i, j]),
            value=float(value[i, j]),
        )

    base = 16.0 * n / R**2
    if model == "euclid":
        record("j2_upper", base - J2, base, J2)
    else:
        low = -8.0 * n / R**2
        record("j1_lower", J1 - low, low, J1)
        bound2 = base - n * prof.d1(r[:, None])
        record("j2_upper", bound2 - J2, bound2, J2)
    scan.passed = all(c.min_slack >= slack_floor for c in scan.checks.values())
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
    phi: Optional[TestFunction] = None,
    residual_tol: float = 1e-6,
    length_rtol: float = 1e-6,
) -> IndexFormReport:
    """Evaluate the traced second variation of conformal length term by term.

    The curve must already be a certified geodesic of the metric u^-2 g: its
    pointwise geodesic residual is checked against ``residual_tol`` before
    anything is integrated.  For a cosh-type weight the length parameter has
    to match the curve's g-length to within ``length_rtol``.

    A minimizing curve has total >= 0 up to discretization error; the report
    keeps every named term so the inequality can be rearranged downstream.
    """
    space = curve.space
    if phi is None:
        phi = TestFunction.one()
    pts = curve.points
    n = float(space.n)

    T, _sigma = curve.vertex_tangents()
    acc = curve.vertex_acceleration()
    uv = np.asarray(u.value(pts), dtype=float)
    if np.any(uv <= 0.0):
        raise ValueError("conformal factor must be positive along the curve")
    gu = grad_g(space, u, pts)
    u_T = space.inner(pts, gu, T)

    residual = (
        (uv * uv)[:, None] * acc
        - (uv * u_T)[:, None] * T
        + uv[:, None] * gu
    )
    max_residual = float(np.max(space.norm(pts, residual)))
    if max_residual > residual_tol:
        raise ValueError(
            f"curve is not stationary: residual {max_residual:.3e} exceeds "
            f"{residual_tol:.3e}"
        )

    s = curve.vertex_s()
    st = curve.vertex_s(u)
    L = float(s[-1])
    if phi.kind == "cosh" and abs(phi.L - L) > length_rtol * max(1.0, L):
        raise ValueError(
            f"test function length {phi.L} does not match the curve's "
            f"g-length {L}"
        )

    pv = phi.phi(s)
    dpv = phi.dphi(s)
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
    curve: DiscreteCurve, u: ScalarField, phi: TestFunction
) -> Tuple[float, float]:
    """Both sides of n (u(p) + u(q)) tanh(L/2) = int n (psi' u + psi u_T) ds.

    The identity is the fundamental theorem of calculus for n psi u in the
    g-arclength, so it holds along any curve whose g-length matches the
    weight's L; no geodesic property is needed.  Returns (lhs, rhs) with the
    right side a composite-trapezoid quadrature on the vertex table.
    """
    if phi.kind != "cosh":
        raise ValueError("the tanh identity needs the cosh-type weight")
    space = curve.space
    pts = curve.points
    n = float(space.n)
    s = curve.vertex_s()
    L = float(s[-1])
    if abs(phi.L - L) > 1e-6 * max(1.0, L):
        raise ValueError("weight length does not match the curve's g-length")
    uv = np.asarray(u.value(pts), dtype=float)
    T, _ = curve.vertex_tangents()
    u_T = space.inner(pts, grad_g(space, u, pts), T)
    lhs = n * (uv[0] + uv[-1]) * math.tanh(L / 2.0)
    rhs = float(_trapz(n * (phi.dpsi(s) * uv + phi.psi(s) * u_T), s))
    return lhs, rhs
