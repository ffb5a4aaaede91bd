"""Finite-difference metric calculus, used as an independent audit path.

Nothing here knows about conformal transformation laws. A metric enters as a
black-box function x -> G(x) of coordinate components, batched: points of
shape (..., m) map to matrices of shape (..., m, m). Christoffel symbols,
Riemann and Ricci tensors come out of central differences of G, and mean
curvature of a parametric hypersurface comes out of the fundamental forms
computed against G. The closed-form modules are then checked against these
numbers in the test suite and the "conformal" CLI suite.

Each central difference evaluates its 2m shifted points in one metric call,
and ``riemann_fd`` takes the Christoffel symbols at a point and at its 2m
neighbours from one batched ``christoffels_fd``: three metric calls per
Riemann or Ricci tensor, and three per parametric mean curvature. Every
point keeps its own step h * max(1, |x|_inf).

Sign conventions (calibrated in tests against the ball model):
    R(X, Y, Y, X) = sectional curvature for g-orthonormal X, Y
    Ric(X, X) = -n kappa^2 for g-unit X in the curvature -kappa^2 model.
"""

from __future__ import annotations

import numpy as np

DEFAULT_STEP = 1e-5


def _step(x, h):
    """Step h * max(1, |x|_inf) for each point of x (..., m)."""
    return h * np.maximum(1.0, np.max(np.abs(x), axis=-1))


def _shifted(x, hh):
    """x + hh e_i for i < m, then x - hh e_i: points (..., 2m, m)."""
    e = hh[..., None, None] * np.eye(x.shape[-1])
    return np.concatenate([x[..., None, :] + e, x[..., None, :] - e], axis=-2)


def _central(values, hh):
    """(f(x + hh e_i) - f(x - hh e_i)) / 2hh from f at ``_shifted`` points;
    values (..., 2m, *shape) with ... the shape of hh."""
    plus, minus = np.split(values, 2, axis=hh.ndim)
    scale = (2.0 * hh).reshape(hh.shape + (1,) * (values.ndim - hh.ndim))
    return (plus - minus) / scale


def fd_gradient(f, x, h=DEFAULT_STEP):
    x = np.asarray(x, dtype=float)
    hh = _step(x, h)
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = hh
        out[i] = (f(x + e) - f(x - e)) / (2.0 * hh)
    return out


def fd_hessian(f, x, h=1e-4):
    """Central second differences; default step coarser than first-order
    stencils because the truncation/roundoff balance sits near 1e-4."""
    x = np.asarray(x, dtype=float)
    hh = _step(x, h)
    m = x.size
    out = np.zeros((m, m))
    f0 = f(x)
    for i in range(m):
        ei = np.zeros_like(x)
        ei[i] = hh
        out[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / hh**2
        for j in range(i + 1, m):
            ej = np.zeros_like(x)
            ej[j] = hh
            val = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * hh**2)
            out[i, j] = out[j, i] = val
    return out


def metric_dg(metric, x, h=DEFAULT_STEP):
    """dG[..., i, :, :] = partial_i G at points x (..., m)."""
    x = np.asarray(x, dtype=float)
    hh = _step(x, h)
    return _central(metric(_shifted(x, hh)), hh)


def christoffels_fd(metric, x, h=DEFAULT_STEP):
    """Gamma[..., k, i, j] = Gamma^k_ij at points x (..., m), from finite
    differences of the metric."""
    x = np.asarray(x, dtype=float)
    Ginv = np.linalg.inv(metric(x))
    dG = metric_dg(metric, x, h)
    # 0.5 g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij}); dG[i, a, b] = d_i g_{ab}
    term = np.einsum("...ijl->...lij", dG) + np.einsum("...jil->...lij", dG) - dG
    return 0.5 * np.einsum("...kl,...lij->...kij", Ginv, term)


def riemann_fd(metric, x, h=DEFAULT_STEP):
    """R[i, j, k, l] = g( R(d_i, d_j) d_k , d_l ) at one point x (m,)."""
    return _riemann_and_metric(metric, x, h)[0]


def _riemann_and_metric(metric, x, h):
    """(R, G) at one point x; see ``riemann_fd``."""
    x = np.asarray(x, dtype=float)
    hh = _step(x, h)
    G = metric(x)
    # Gamma at x and at its 2m neighbours in one batch
    Gam_all = christoffels_fd(metric, np.concatenate([x[None], _shifted(x, hh)]), h)
    Gam = Gam_all[0]
    dGam = _central(Gam_all[1:], hh)
    # R^l_{kij} = d_i Gam^l_{jk} - d_j Gam^l_{ik} + Gam^l_{im} Gam^m_{jk} - Gam^l_{jm} Gam^m_{ik}
    up = (
        np.einsum("iljk->ijkl", dGam)
        - np.einsum("jlik->ijkl", dGam)
        + np.einsum("lim,mjk->ijkl", Gam, Gam)
        - np.einsum("ljm,mik->ijkl", Gam, Gam)
    )
    # up[i, j, k, l] = component of R(d_i, d_j) d_k along d_l; lower with G.
    return np.einsum("ijka,al->ijkl", up, G), G


def sectional_fd(metric, x, X, Y, h=DEFAULT_STEP):
    """R(X, Y, Y, X); equals sectional curvature when X, Y are g-orthonormal."""
    R = riemann_fd(metric, x, h)
    return float(np.einsum("ijkl,i,j,k,l->", R, X, Y, Y, X))


def ricci_fd(metric, x, h=DEFAULT_STEP):
    """Ric[j, k] with the trace Ric(X, X) = sum_a R(e_a, X, X, e_a)."""
    R, G = _riemann_and_metric(metric, x, h)
    return np.einsum("ab,ajkb->jk", np.linalg.inv(G), R)


def ricci_quadratic_fd(metric, x, X, h=DEFAULT_STEP):
    ric = ricci_fd(metric, x, h)
    return float(np.einsum("jk,j,k->", ric, X, X))


# ---------------------------------------------------------------------------
# mean curvature of a parametric hypersurface under an arbitrary metric
# ---------------------------------------------------------------------------


def metric_normal(G, jacobian, inward_ref):
    """G-unit normal to the column span of ``jacobian`` for the metric matrix
    G, oriented along ``inward_ref`` (coordinate vector, positive G-pairing)."""
    m = G.shape[0]
    J = np.asarray(jacobian, dtype=float)
    A = J.T @ G  # (k, m); null space is the G-orthogonal complement
    _, s, vt = np.linalg.svd(A)
    nu = vt[-1]
    if s.size and s[-1] > 1e-8 * s[0] and A.shape[0] >= m:
        raise ValueError("degenerate tangent space")
    norm = float(np.sqrt(nu @ G @ nu))
    nu = nu / norm
    if float(nu @ G @ np.asarray(inward_ref, float)) < 0:
        nu = -nu
    return nu


def parametric_mean_curvature(metric, chart, dchart, d2chart, theta, inward_ref, h=DEFAULT_STEP):
    """H . nu for the chart at parameter ``theta``, nu oriented by inward_ref.

    H = trace(I^-1 II) with I, II the fundamental forms under ``metric`` and
    the ambient connection taken from finite differences of the metric.
    """
    theta = np.asarray(theta, dtype=float)
    p = chart(theta)
    J = dchart(theta)  # (m, k)
    D2 = d2chart(theta)  # (k, k, m)
    G = metric(p)
    I = np.einsum("ia,ij,jb->ab", J, G, J)
    nu = metric_normal(G, J, inward_ref)
    Gam = christoffels_fd(metric, p, h)
    # covariant second derivative: D2_ab + Gamma(J_a, J_b)
    cov = D2 + np.einsum("kij,ia,jb->abk", Gam, J, J)
    II = np.einsum("abk,kl,l->ab", cov, G, nu)
    return float(np.trace(np.linalg.solve(I, II))), nu
