"""Transformation laws for metrics u^-2 g on a space-form background.

Every formula here is expressed through g-covariant data (gradient, Hessian,
Laplacian of the factor u under the ambient metric g) and is paired in the
test suite and the "conformal" CLI suite with a finite-difference oracle from
``fdcheck`` applied to the coordinate metric (u w)^-2 delta. The two sides
share no code path: formulas live here, derivatives of the coordinate metric
live there.

``directional``, ``connection_difference``, ``sectional_numerator``,
``ricci_formula``, ``mean_curvature_formula`` and ``geodesic_residual`` take
stacks: points x (..., m) with vectors (..., m) and, for a stacked
``ExpQuadraticField``, a factor whose parameter stack pairs with the leading
axis of x, give one value per point.

Conventions: vectors named e, ei, ej are g-unit (the corresponding
tilde-metric unit vectors are u e); H denotes scalar mean curvature with
respect to a chosen g-unit normal nu, and the transformed curvature is
reported against the tilde-unit normal u nu with the same orientation.
"""

from __future__ import annotations

import numpy as np

from .fields import ScalarField
from .spaceform import (
    SpaceForm,
    conformal_factor_field,
    grad_g,
    grad_norm2_g,
    hess_g_apply,
    laplacian_g,
)


def coordinate_metric(space: SpaceForm, u: ScalarField):
    """x -> matrix of u^-2 g in coordinates, for black-box FD audits; points
    (..., m) map to matrices (..., m, m)."""
    W = conformal_factor_field(space, u)

    def metric(x):
        # libm pow, like float ** 2 on one point; numpy's ** 2 rounds differently
        w2 = np.float_power(W.value(np.asarray(x, dtype=float)), 2)
        return np.eye(space.dim) / w2[..., None, None]

    return metric


def directional(space: SpaceForm, u: ScalarField, x, X) -> np.ndarray:
    """X u = du(X), the coordinate pairing (no metric involved)."""
    return np.sum(u.gradient(x) * np.asarray(X, dtype=float), axis=-1)


# ---------------------------------------------------------------------------
# connection
# ---------------------------------------------------------------------------


def connection_difference(space: SpaceForm, u: ScalarField, x, X, Y) -> np.ndarray:
    """D(X, Y) = tilde-nabla_X Y - nabla_X Y, a tensor despite its parents.

    D(X, Y) = -u^-1 ( (Xu) Y + (Yu) X - g(X, Y) grad_g u ).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    uv = u.value(x)[..., None]
    Xu = directional(space, u, x, X)[..., None]
    Yu = directional(space, u, x, Y)[..., None]
    gXY = space.inner(x, X, Y)[..., None]
    return -(Xu * Y + Yu * X - gXY * grad_g(space, u, x)) / uv


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def sectional_numerator(space: SpaceForm, u: ScalarField, x, ei, ej) -> np.ndarray:
    """R-tilde(u ei, u ej, u ej, u ei) for g-orthonormal ei, ej.

    Equals u^2 K_g + u (Hess u(ei, ei) + Hess u(ej, ej)) - |grad u|_g^2 with
    K_g = -kappa^2 the ambient sectional curvature.
    """
    uv = u.value(x)
    hii = hess_g_apply(space, u, x, ei, ei)
    hjj = hess_g_apply(space, u, x, ej, ej)
    return -(space.kappa**2) * uv * uv + uv * (hii + hjj) - grad_norm2_g(space, u, x)


def ricci_formula(space: SpaceForm, u: ScalarField, x, e) -> np.ndarray:
    """Ric-tilde(u e, u e) for a g-unit vector e.

    u^2 Ric_g(e, e) + u Lap_g u + (m - 2) u Hess u(e, e) - (m - 1) |grad u|_g^2,
    with Ric_g(e, e) = -(m - 1) kappa^2 on the background.
    """
    m = space.dim
    uv = u.value(x)
    return (
        -(m - 1) * space.kappa**2 * uv * uv
        + uv * laplacian_g(space, u, x)
        + (m - 2) * uv * hess_g_apply(space, u, x, e, e)
        - (m - 1) * grad_norm2_g(space, u, x)
    )


def mean_curvature_formula(space: SpaceForm, u: ScalarField, x, H_g, nu) -> np.ndarray:
    """H-tilde with respect to the tilde-unit normal u nu.

    H-tilde = u H_g + (m - 1) <grad u, nu>_g for the g-unit normal nu with
    the same orientation; H_g (...) and nu (..., m) match the points.
    """
    uv = u.value(x)
    grad_nu = space.inner(x, grad_g(space, u, x), nu)
    return uv * H_g + (space.dim - 1) * grad_nu


# ---------------------------------------------------------------------------
# geodesics of the tilde metric, seen from g
# ---------------------------------------------------------------------------


def geodesic_residual(space: SpaceForm, u: ScalarField, x, T, nabla_T_T) -> np.ndarray:
    """u^2 nabla_T T - u (Tu) T + u grad_g u; zero iff the g-unit-speed curve
    with tangent T and acceleration nabla_T T is a tilde-geodesic.

    The expression equals tilde-nabla_{uT}(uT), the covariant acceleration in
    the tilde arclength gauge, so its size measures the failure of the
    tilde-geodesic equation directly.
    """
    T = np.asarray(T, dtype=float)
    uv = u.value(x)[..., None]
    uT = directional(space, u, x, T)[..., None]
    return uv * uv * np.asarray(nabla_T_T, float) - uv * uT * T + uv * grad_g(space, u, x)


def geodesic_curvature_residual(space: SpaceForm, u: ScalarField, x, N, kg) -> np.ndarray:
    """kg + u_N / u, where u_N = <grad u, N>_g; vanishes along tilde-geodesics.

    kg is the g-geodesic curvature of the curve with respect to the g-unit
    normal N, i.e. g(nabla_T T, N). Points may be stacked along leading axes.
    """
    return kg + space.inner(x, grad_g(space, u, x), N) / u.value(x)

