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

import numpy as np

from .fields import (BallFactorField, ConstantField, ProductField, QuarticCutoff, ScalarField,
                     _fold_dot)


class SpaceForm:
    """Simply connected model of dimension ``dim`` and curvature -kappa^2."""

    def __init__(self, dim: int, kappa: float = 0.0):
        if dim < 2:
            raise ValueError("ambient dimension must be at least 2")
        if kappa < 0:
            raise ValueError("kappa must be nonnegative")
        self.dim = dim
        self.kappa = kappa

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
        return self.ambient_field().value(x)

    def check_point(self, x) -> None:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"point dimension {x.shape[-1]} != {self.dim}")
        if self.hyperbolic and np.any(np.sum(x * x, axis=-1) >= 1.0):
            raise ValueError("point outside the unit ball model")

    # -- metric pairings ----------------------------------------------------

    def inner(self, x, v, w) -> np.ndarray:
        fac = self.ambient_factor(x)
        return np.sum(np.asarray(v) * np.asarray(w), axis=-1) / (fac * fac)

    def norm(self, x, v) -> np.ndarray:
        return np.sqrt(np.maximum(self.inner(x, v, v), 0.0))

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
# squared distance to a center
# ---------------------------------------------------------------------------


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


def _arccosh_sq_derivatives(Q):
    """First and second derivatives of arccosh(Q)^2 in Q.

    The first is 2 r / sinh r with r = arccosh Q, the second has limit -2/3;
    both are smooth at Q = 1, where a series replaces the direct forms.
    """
    Q = np.asarray(Q, dtype=float)
    e = np.maximum(Q - 1.0, 0.0)
    small = e < 1e-6
    e_safe = np.where(small, 1.0, e)
    r = np.arccosh(1.0 + e_safe)
    s = np.sqrt(e_safe * (e_safe + 2.0))
    d1 = np.where(small, 2.0 * (1.0 - e / 3.0 + 2.0 * e * e / 15.0), 2.0 * r / s)
    d2 = np.where(small, -2.0 / 3.0 + 8.0 * e / 15.0,
                  2.0 * (s - r * (1.0 + e_safe)) / s**3)
    return d1, d2


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
    a1, a2 = (d / k2 for d in _arccosh_sq_derivatives(Q))
    q = np.arccosh(np.maximum(Q, 1.0)) ** 2 / k2
    grad = a1[..., None] * dQ
    hess = a2[..., None, None] * dQ[..., :, None] * dQ[..., None, :] + a1[..., None, None] * d2Q
    return q, grad, hess


# ---------------------------------------------------------------------------
# radial scalar fields u = profile(r(. , center))
# ---------------------------------------------------------------------------


class RadialField:
    """profile composed with distance to ``center``; an analytic ScalarField."""

    def __init__(self, space: SpaceForm, center: np.ndarray, profile: QuarticCutoff):
        self.space = space
        self.center = np.asarray(center, dtype=float)
        self.profile = profile
        space.check_point(self.center)

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
    """Hess_g u(X, Y), added in index order, so a point gets the same bits
    alone and inside a stack."""
    H = hess_g_matrix(space, u, x)
    HY = _fold_dot(H, np.asarray(Y, float)[..., None, :])
    return _fold_dot(np.asarray(X, float), HY)


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


def gram_schmidt_frame(space: SpaceForm, x, seed: np.ndarray) -> np.ndarray:
    """g-orthonormal frame at x, rows = vectors, Gram-Schmidt from ``seed``.
    Points x (..., m) with seeds (..., m, m) give frames (..., m, m); one
    degenerate seed in the stack raises."""
    x = np.asarray(x, dtype=float)
    basis = np.asarray(seed, dtype=float)
    out = np.zeros(basis.shape)
    for i in range(space.dim):
        v = basis[..., i, :].copy()
        for j in range(i):
            v -= space.inner(x, v, out[..., j, :])[..., None] * out[..., j, :]
        nv = space.norm(x, v)
        if np.any(nv < 1e-13):
            raise ValueError("degenerate frame seed")
        out[..., i, :] = v / nv[..., None]
    return out
