"""Finite-difference metric calculus, used as an independent audit path.

Nothing here knows about conformal transformation laws. A metric enters as a
black-box function x -> G(x) of coordinate components, batched: points of
shape (..., m) map to matrices of shape (..., m, m). Christoffel symbols,
Riemann and Ricci tensors come out of central differences of G, and mean
curvature of a parametric hypersurface comes out of the fundamental forms
computed against G. The closed-form modules are then checked against these
numbers in the test suite and the "conformal" CLI suite.

Every function takes a stack: points (..., m), with vectors, Jacobians and
chart parameters stacked the same way, give one result per point. Each
central difference evaluates its 2m shifted points in one metric call, and
``riemann_fd`` takes the Christoffel symbols at the points and at their 2m
neighbours from one batched ``christoffels_fd``: three metric calls per
stack of Riemann or Ricci tensors, and three per stack of parametric mean
curvatures. Every point keeps its own step h * max(1, |x|_inf).
Contractions add their terms in index order, so a point gets the same bits
alone and inside any stack. The tests' one-point gradient and Hessian
oracles live with the tests, in ``tests/references.py``.

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


def _fold(t):
    """Sum over the last axis, added in index order. einsum, matmul and np.sum
    pick their summation order from the array layout, so they can round a
    point differently alone and inside a stack; a fold cannot."""
    out = t[..., 0]
    for i in range(1, t.shape[-1]):
        out = out + t[..., i]
    return out


def _flat(t, k):
    """t with its last k axes merged into one."""
    return t.reshape(t.shape[: t.ndim - k] + (-1,))


def _central(values, hh):
    """(f(x + hh e_i) - f(x - hh e_i)) / 2hh from f at ``_shifted`` points;
    values (..., 2m, *shape) with ... the shape of hh."""
    plus, minus = np.split(values, 2, axis=hh.ndim)
    scale = (2.0 * hh).reshape(hh.shape + (1,) * (values.ndim - hh.ndim))
    return (plus - minus) / scale


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
    # 0.5 g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij}); dG[i, a, b] = d_i g_{ab},
    # and term[i, j, l] is the bracket
    term = dG + np.einsum("...jil->...ijl", dG) - np.einsum("...lij->...ijl", dG)
    return 0.5 * _fold(Ginv[..., :, None, None, :] * term[..., None, :, :, :])


def riemann_fd(metric, x, h=DEFAULT_STEP):
    """R[..., i, j, k, l] = g( R(d_i, d_j) d_k , d_l ) at points x (..., m)."""
    return _riemann_and_metric(metric, x, h)[0]


def _riemann_and_metric(metric, x, h):
    """(R, G) at points x; see ``riemann_fd``."""
    x = np.asarray(x, dtype=float)
    hh = _step(x, h)
    G = metric(x)
    # Gamma at each point and at its 2m neighbours in one batch
    Gam_all = christoffels_fd(metric, np.concatenate([x[..., None, :], _shifted(x, hh)], axis=-2), h)
    Gam = Gam_all[..., 0, :, :, :]
    dGam = _central(Gam_all[..., 1:, :, :, :], hh)
    # R^l_{kij} = d_i Gam^l_{jk} - d_j Gam^l_{ik} + Gam^l_{im} Gam^m_{jk} - Gam^l_{jm} Gam^m_{ik}
    # quad[i, j, k, l] = Gam^l_{im} Gam^m_{jk}
    quad = _fold(
        np.einsum("...lim->...ilm", Gam)[..., :, None, None, :, :]
        * np.einsum("...mjk->...jkm", Gam)[..., None, :, :, None, :]
    )
    up = (
        np.einsum("...iljk->...ijkl", dGam)
        - np.einsum("...jlik->...ijkl", dGam)
        + quad
        - np.einsum("...jikl->...ijkl", quad)
    )
    # up[i, j, k, l] = component of R(d_i, d_j) d_k along d_l; lower with G.
    return _fold(up[..., None, :] * np.einsum("...al->...la", G)[..., None, None, None, :, :]), G


def sectional_fd(metric, x, X, Y, h=DEFAULT_STEP):
    """R(X, Y, Y, X); equals sectional curvature when X, Y are g-orthonormal."""
    R = riemann_fd(metric, x, h)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    XYYX = (X[..., :, None, None, None] * Y[..., None, :, None, None]
            * Y[..., None, None, :, None] * X[..., None, None, None, :])
    return _fold(_flat(R, 4) * _flat(XYYX, 4))


def ricci_fd(metric, x, h=DEFAULT_STEP):
    """Ric[..., j, k] with the trace Ric(X, X) = sum_a R(e_a, X, X, e_a)."""
    R, G = _riemann_and_metric(metric, x, h)
    # sum over a, b of g^{ab} R[a, j, k, b]
    Rjk = np.einsum("...ajkb->...jkab", R)
    return _fold(_flat(Rjk, 2) * _flat(np.linalg.inv(G), 2)[..., None, None, :])


def ricci_quadratic_fd(metric, x, X, h=DEFAULT_STEP):
    ric = ricci_fd(metric, x, h)
    X = np.asarray(X, dtype=float)
    return _fold(_flat(ric, 2) * _flat(X[..., :, None] * X[..., None, :], 2))


# ---------------------------------------------------------------------------
# mean curvature of a parametric hypersurface under an arbitrary metric
# ---------------------------------------------------------------------------


def _apply(G, v):
    """G v for stacks of symmetric matrices G (..., m, m) and vectors v (..., m)."""
    return _fold(G * v[..., None, :])


def metric_normal(G, jacobian, inward_ref):
    """G-unit normal to the column span of ``jacobian`` for the metric matrix
    G, oriented along ``inward_ref`` (coordinate vector, positive G-pairing).
    Stacks G (..., m, m), jacobian (..., m, k) and inward_ref (..., m) give
    normals (..., m); a tangent space of any rank but m - 1 anywhere in the
    stack raises, as its normal direction is not unique."""
    G = np.asarray(G, dtype=float)
    m = G.shape[-1]
    Jt = np.swapaxes(np.asarray(jacobian, dtype=float), -1, -2)
    A = _fold(Jt[..., :, None, :] * G[..., None, :, :])  # (k, m); null space is the G-orthogonal complement
    _, s, vt = np.linalg.svd(A)
    nu = vt[..., -1, :]
    if np.any(np.sum(s > 1e-8 * s[..., :1], axis=-1) != m - 1):
        raise ValueError("degenerate tangent space")
    nu = nu / np.sqrt(_fold(nu * _apply(G, nu)))[..., None]
    flip = _fold(_apply(G, nu) * np.asarray(inward_ref, dtype=float)) < 0
    return np.where(flip[..., None], -nu, nu)


def parametric_mean_curvature(metric, chart, dchart, d2chart, theta, inward_ref, h=DEFAULT_STEP):
    """(H . nu, nu) for the chart at parameters ``theta``, nu oriented by
    inward_ref. Parameters (..., k) give curvatures (...) and normals (..., m);
    chart, dchart and d2chart map them to points (..., m), Jacobians
    (..., m, k) and second derivatives (..., k, k, m).

    H = trace(I^-1 II) with I, II the fundamental forms under ``metric`` and
    the ambient connection taken from finite differences of the metric.
    """
    theta = np.asarray(theta, dtype=float)
    p = chart(theta)
    J = dchart(theta)  # (..., m, k)
    D2 = d2chart(theta)  # (..., k, k, m)
    G = metric(p)
    Jt = np.swapaxes(J, -1, -2)  # (..., k, m)
    # I[a, b] = J_a . G J_b
    I = _fold(Jt[..., :, None, :] * _apply(G[..., None, :, :], Jt)[..., None, :, :])
    nu = metric_normal(G, J, inward_ref)
    Gam = christoffels_fd(metric, p, h)
    # covariant second derivative: D2_ab + Gamma(J_a, J_b)
    JJ = Jt[..., :, None, :, None] * Jt[..., None, :, None, :]  # (a, b, i, j)
    cov = D2 + _fold(_flat(Gam, 2)[..., None, None, :, :] * _flat(JJ, 2)[..., None, :])
    II = _fold(cov * _apply(G, nu)[..., None, None, :])
    S = np.linalg.solve(I, II)
    return _fold(np.diagonal(S, axis1=-2, axis2=-1)), nu
