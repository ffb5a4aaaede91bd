"""Ambient space forms: flat space and the Poincare ball, plus radial calculus.

Both ambients are conformally flat in coordinates: g = w^-2 delta with w = 1
(kappa = 0) or w(x) = (kappa/2)(1 - |x|^2) (curvature -kappa^2 on the unit
ball). Everything downstream leans on that: covariant derivatives, gradients
and Laplacians reduce to coordinate calculus plus the conformal Christoffel
correction, and a metric u^-2 g is again conformally flat with coordinate
factor u*w.

Distance in the ball model is d = (2/kappa) artanh of the Mobius gauge
|(-p) (+) q|; arbitrary radial centers are handled through the Mobius
translation rather than re-deriving off-center formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import BallFactorField, ConstantField, RadialProfile, ScalarField


@dataclass(frozen=True)
class SpaceForm:
    """Simply connected model of dimension ``dim`` and curvature -kappa^2."""

    dim: int
    kappa: float = 0.0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("ambient dimension must be at least 2")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")

    @property
    def n(self) -> int:
        """Hypersurface dimension dim - 1."""
        return self.dim - 1

    @property
    def hyperbolic(self) -> bool:
        return self.kappa > 0

    # -- coordinate conformal factor ---------------------------------------

    def ambient_field(self) -> ScalarField:
        if self.hyperbolic:
            return BallFactorField(self.kappa)
        return ConstantField(1.0)

    def ambient_factor(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.hyperbolic:
            return 0.5 * self.kappa * (1.0 - np.sum(x * x, axis=-1))
        return np.ones(x.shape[:-1])

    def metric_matrix(self, x) -> np.ndarray:
        """Coordinate components g_ij(x) = w(x)^-2 delta_ij."""
        x = np.asarray(x, dtype=float)
        w = self.ambient_factor(x)
        return np.eye(self.dim) / (w[..., None, None] ** 2)

    def check_point(self, x) -> None:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"point dimension {x.shape[-1]} != {self.dim}")
        if self.hyperbolic and np.any(np.sum(x * x, axis=-1) >= 1.0):
            raise ValueError("point outside the unit ball model")

    # -- metric pairings ----------------------------------------------------

    def inner(self, x, v, w) -> np.ndarray:
        fac = self.ambient_factor(x)
        return np.sum(np.asarray(v) * np.asarray(w), axis=-1) / fac**2

    def norm(self, x, v) -> np.ndarray:
        return np.sqrt(np.maximum(self.inner(x, v, v), 0.0))

    def unit(self, x, v) -> np.ndarray:
        nv = self.norm(x, v)
        return np.asarray(v) / nv[..., None]

    # -- distance -----------------------------------------------------------

    def distance(self, p, q) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        if self.hyperbolic:
            self.check_point(p)
            self.check_point(q)
            diff2 = np.sum((p - q) ** 2, axis=-1)
            denom = 1.0 - 2.0 * np.sum(p * q, axis=-1) + np.sum(p * p, axis=-1) * np.sum(q * q, axis=-1)
            gauge = np.sqrt(np.maximum(diff2 / denom, 0.0))
            # clamp strictly below 1 (guards roundoff; inputs are interior points)
            return (2.0 / self.kappa) * np.arctanh(np.minimum(gauge, 1.0 - 1e-15))
        return np.sqrt(np.sum((p - q) ** 2, axis=-1))


# ---------------------------------------------------------------------------
# Mobius operations (ball model, any kappa; gyro-translations are isometries)
# ---------------------------------------------------------------------------


def mobius_add(a, x) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    ax = np.sum(a * x, axis=-1)
    a2 = np.sum(a * a, axis=-1)
    x2 = np.sum(x * x, axis=-1)
    denom = 1.0 + 2.0 * ax + a2 * x2
    num = (1.0 + 2.0 * ax + x2)[..., None] * a + (1.0 - a2)[..., None] * x
    return num / denom[..., None]


def mobius_center(space: SpaceForm, center, x) -> np.ndarray:
    """Isometry of the ball taking ``center`` to the origin.

    Inverse map: y -> mobius_add(center, y).
    """
    if not space.hyperbolic:
        raise ValueError("mobius_center requires a hyperbolic model")
    space.check_point(center)
    space.check_point(x)
    return mobius_add(-np.asarray(center, dtype=float), x)


# ---------------------------------------------------------------------------
# radial quantities about a center
# ---------------------------------------------------------------------------


@dataclass
class RadialQuantities:
    r: float
    lam: float
    lam_prime: float
    grad_r: np.ndarray
    laplacian_r: float
    r_T: Optional[float] = None
    r_TT: Optional[float] = None


def _ball_chord_quantities(center, x):
    """Q = cosh(kappa-1 distance) and its coordinate derivatives.

    Q = 1 + 2|x-c|^2 / ((1-|x|^2)(1-|c|^2)); smooth on the ball, Q >= 1 with
    equality only at x = c. Returns (Q, dQ, d2Q) batched over leading axes.
    """
    c = np.asarray(center, dtype=float)
    x = np.asarray(x, dtype=float)
    m = x.shape[-1]
    A = np.sum((x - c) ** 2, axis=-1)
    B = 1.0 - np.sum(x * x, axis=-1)
    C0 = 1.0 - np.sum(c * c, axis=-1)
    Q = 1.0 + 2.0 * A / (B * C0)
    dQ = (4.0 / C0) * ((x - c) / B[..., None] + A[..., None] * x / (B * B)[..., None])
    eye = np.eye(m)
    xc_x = (x - c)[..., :, None] * x[..., None, :]
    x_xc = x[..., :, None] * (x - c)[..., None, :]
    xx = x[..., :, None] * x[..., None, :]
    d2Q = (4.0 / C0) * (
        eye / B[..., None, None]
        + 2.0 * (xc_x + x_xc) / (B * B)[..., None, None]
        + A[..., None, None] * eye / (B * B)[..., None, None]
        + 4.0 * A[..., None, None] * xx / (B * B * B)[..., None, None]
    )
    return Q, dQ, d2Q


def _arccosh_sq_d1(Q):
    """d/dQ arccosh(Q)^2 = 2 r / sinh r with r = arccosh Q; smooth at Q = 1."""
    Q = np.asarray(Q, dtype=float)
    e = np.maximum(Q - 1.0, 0.0)
    small = e < 1e-6
    e_safe = np.where(small, 1.0, e)
    r = np.arccosh(1.0 + e_safe)
    s = np.sqrt(e_safe * (e_safe + 2.0))
    direct = 2.0 * r / s
    series = 2.0 * (1.0 - e / 3.0 + 2.0 * e * e / 15.0)
    return np.where(small, series, direct)


def _arccosh_sq_d2(Q):
    """Second derivative of arccosh(Q)^2; limit -2/3 at Q = 1."""
    Q = np.asarray(Q, dtype=float)
    e = np.maximum(Q - 1.0, 0.0)
    small = e < 1e-6
    e_safe = np.where(small, 1.0, e)
    r = np.arccosh(1.0 + e_safe)
    s = np.sqrt(e_safe * (e_safe + 2.0))
    direct = 2.0 * (s - r * (1.0 + e_safe)) / s**3
    series = -2.0 / 3.0 + 8.0 * e / 15.0
    return np.where(small, series, direct)


def radial_map(space: SpaceForm, center, x):
    """(r^2, coordinate gradient of r^2, coordinate Hessian of r^2).

    Smooth through the center; for the ball model it goes through the chord
    form of cosh(kappa r) so no Mobius-map derivatives are needed.
    """
    c = np.asarray(center, dtype=float)
    x = np.asarray(x, dtype=float)
    if not space.hyperbolic:
        d = x - c
        q = np.sum(d * d, axis=-1)
        grad = 2.0 * d
        hess = 2.0 * np.broadcast_to(np.eye(space.dim), x.shape + (space.dim,)).copy()
        return q, grad, hess
    space.check_point(c)
    space.check_point(x)
    Q, dQ, d2Q = _ball_chord_quantities(c, x)
    k2 = space.kappa**2
    a1 = _arccosh_sq_d1(Q) / k2
    a2 = _arccosh_sq_d2(Q) / k2
    q = np.arccosh(np.maximum(Q, 1.0)) ** 2 / k2
    grad = a1[..., None] * dQ
    hess = a2[..., None, None] * dQ[..., :, None] * dQ[..., None, :] + a1[..., None, None] * d2Q
    return q, grad, hess


def lambda_pair(space: SpaceForm, r):
    """(lambda, lambda') with lambda = r (flat) or sinh(kappa r)/kappa."""
    r = np.asarray(r, dtype=float)
    if space.hyperbolic:
        return np.sinh(space.kappa * r) / space.kappa, np.cosh(space.kappa * r)
    return r, np.ones_like(r)


def radial_quantities(space: SpaceForm, center, x, T=None) -> RadialQuantities:
    """r, lambda, lambda', unit radial gradient, Laplacian of r, and the
    second derivative r_TT = (1 - r_T^2) lambda'/lambda for a unit tangent T.
    """
    c = np.asarray(center, dtype=float)
    x = np.asarray(x, dtype=float)
    r = float(space.distance(c, x))
    if r == 0.0:
        raise ValueError("radial quantities undefined at the center")
    q, dq, _ = radial_map(space, c, x)
    # dq = 2 r dr, so the coordinate gradient of r is dq / (2r); raise the
    # index with g^(ij) = w^2 delta to get the g-gradient.
    w = float(space.ambient_factor(x))
    grad_r = (w * w / (2.0 * r)) * dq
    lam, lam_p = lambda_pair(space, r)
    lam = float(lam)
    lam_p = float(lam_p)
    ratio = lam_p / lam
    out = RadialQuantities(
        r=r,
        lam=lam,
        lam_prime=lam_p,
        grad_r=grad_r,
        laplacian_r=space.n * ratio,
    )
    if T is not None:
        T = np.asarray(T, dtype=float)
        nT = float(space.norm(x, T))
        if abs(nT - 1.0) > 1e-8:
            raise ValueError("T must be a g-unit tangent vector")
        r_T = float(space.inner(x, grad_r, T))
        out.r_T = r_T
        out.r_TT = (1.0 - r_T * r_T) * ratio
    return out


# ---------------------------------------------------------------------------
# radial scalar fields u = profile(r(. , center))
# ---------------------------------------------------------------------------


@dataclass
class RadialField:
    """profile composed with distance to ``center``; an analytic ScalarField."""

    space: SpaceForm
    center: np.ndarray
    profile: RadialProfile

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.space.check_point(self.center)

    def value(self, x):
        q, _, _ = radial_map(self.space, self.center, x)
        return self.profile.q_value(q)

    def gradient(self, x):
        q, dq, _ = radial_map(self.space, self.center, x)
        return self.profile.q_d1(q)[..., None] * dq

    def hessian(self, x):
        q, dq, d2q = radial_map(self.space, self.center, x)
        outer = dq[..., :, None] * dq[..., None, :]
        return (
            self.profile.q_d2(q)[..., None, None] * outer
            + self.profile.q_d1(q)[..., None, None] * d2q
        )


def conformal_factor_field(space: SpaceForm, u: ScalarField) -> ScalarField:
    """Coordinate factor W with u^-2 g = W^-2 delta; W = u * ambient factor."""
    from .fields import ProductField

    if space.hyperbolic:
        return ProductField(u, space.ambient_field())
    return u


# ---------------------------------------------------------------------------
# covariant calculus for the conformally flat ambient metric
# ---------------------------------------------------------------------------


def log_factor_gradient(space: SpaceForm, x) -> np.ndarray:
    """Coordinate gradient of phi = -log w, the conformal exponent of g."""
    x = np.asarray(x, dtype=float)
    if not space.hyperbolic:
        return np.zeros_like(x)
    w = space.ambient_factor(x)
    return space.kappa * x / w[..., None]


def christoffel_quadratic(space: SpaceForm, x, v) -> np.ndarray:
    """Gamma^k_ij v^i v^j for g = e^{2 phi} delta: 2(phi.v)v - |v|^2 phi."""
    v = np.asarray(v, dtype=float)
    ph = log_factor_gradient(space, x)
    pv = np.sum(ph * v, axis=-1)
    v2 = np.sum(v * v, axis=-1)
    return 2.0 * pv[..., None] * v - v2[..., None] * ph


def grad_g(space: SpaceForm, u: ScalarField, x) -> np.ndarray:
    """g-gradient (raised index) of u in coordinates: w^2 du."""
    w = space.ambient_factor(x)
    return (w * w)[..., None] * u.gradient(x)


def hess_g_matrix(space: SpaceForm, u: ScalarField, x) -> np.ndarray:
    """Coordinate components of the g-covariant Hessian of u."""
    x = np.asarray(x, dtype=float)
    ph = log_factor_gradient(space, x)
    du = u.gradient(x)
    cross = ph[..., :, None] * du[..., None, :]
    dot = np.sum(ph * du, axis=-1)
    eye = np.broadcast_to(np.eye(space.dim), x.shape + (space.dim,))
    return u.hessian(x) - cross - np.swapaxes(cross, -1, -2) + dot[..., None, None] * eye


def hess_g_apply(space: SpaceForm, u: ScalarField, x, X, Y) -> np.ndarray:
    H = hess_g_matrix(space, u, x)
    return np.einsum("...ij,...i,...j->...", H, np.asarray(X, float), np.asarray(Y, float))


def laplacian_g(space: SpaceForm, u: ScalarField, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    w = space.ambient_factor(x)
    flat = np.trace(u.hessian(x), axis1=-2, axis2=-1)
    ph = log_factor_gradient(space, x)
    corr = (space.dim - 2.0) * np.sum(ph * u.gradient(x), axis=-1)
    return w * w * (flat + corr)


def grad_norm2_g(space: SpaceForm, u: ScalarField, x) -> np.ndarray:
    """|grad u|_g^2 = w^2 |du|^2."""
    w = space.ambient_factor(x)
    du = u.gradient(x)
    return w * w * np.sum(du * du, axis=-1)


def gram_schmidt_frame(space: SpaceForm, x, seed: Optional[np.ndarray] = None) -> np.ndarray:
    """g-orthonormal frame at x, rows = vectors, Gram-Schmidt from ``seed``
    (defaults to the coordinate basis)."""
    m = space.dim
    basis = np.eye(m) if seed is None else np.array(seed, dtype=float, copy=True)
    out = np.zeros((m, m))
    for i in range(m):
        v = basis[i].copy()
        for j in range(i):
            v -= float(space.inner(x, v, out[j])) * out[j]
        nv = float(space.norm(x, v))
        if nv < 1e-13:
            raise ValueError("degenerate frame seed")
        out[i] = v / nv
    return out
