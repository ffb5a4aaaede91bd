"""Finite-difference metric calculus, used as an independent audit path.

Nothing here knows about conformal transformation laws. A metric enters as a
black-box function x -> G(x) of coordinate components, batched: points of
shape (..., m) map to matrices of shape (..., m, m). Christoffel symbols,
Riemann and Ricci tensors come out of central differences of G, and mean
curvature of a parametric hypersurface comes out of the fundamental forms
computed against G. The closed-form modules are then checked against these
numbers in the test suite and the "conformal" CLI suite.

Every function takes a stack: points (..., m), with vectors, Jacobians and
chart parameters stacked the same way, give one result per point. Every
oracle reads G on one stencil, in one metric call per stack: the point, its
2m axis neighbours x +- h e_a and, for second differences, the 2m(m - 1)
corners x +- h e_a +- h e_b, at the step h * max(1, |x|_inf) of each point.
G, G^-1 and the Christoffel symbols come from the first 2m + 1 rows, so the
Christoffel bracket is written once. Christoffel symbols and parametric mean
curvatures read those rows at DEFAULT_STEP; ``riemann_fd`` and ``ricci_fd``
read all 2 m^2 + 1 rows at SECOND_STEP. The steps differ because a second
difference divides last-bit noise in G by h^2, not h, so its roundoff and
truncation errors balance at a coarser step than a first difference's:
1e-4 against 1e-5.
The unit normal of a parametric hypersurface is a generalized cross product
of cofactors, written out point by point, so no point goes through a
singular value decomposition.
Contractions add their terms in index order, so a point gets the same bits
alone and inside any stack. The tests' one-point gradient and Hessian
oracles live with the tests, in ``tests/references.py``.

Sign conventions (calibrated in tests against the ball model):
    R(X, Y, Y, X) = sectional curvature for g-orthonormal X, Y
    Ric(X, X) = -n kappa^2 for g-unit X in the curvature -kappa^2 model.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

DEFAULT_STEP = 1e-5
SECOND_STEP = 1e-4


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


@lru_cache(maxsize=None)
def _stencil(m):
    """Offsets of the stencil in units of the step: 0, then +e_a, then -e_a,
    then e_a + e_b, e_a - e_b, -e_a + e_b, -e_a - e_b for each pair a < b in
    order; 2 m^2 + 1 rows, read-only."""
    eye = np.eye(m)
    corners = [s * eye[a] + t * eye[b]
               for a in range(m) for b in range(a + 1, m)
               for s, t in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    out = np.concatenate([np.zeros((1, m)), eye, -eye, np.array(corners).reshape(-1, m)])
    out.flags.writeable = False
    return out


def _metric_on_stencil(metric, x, h, rows):
    """One metric call on the first ``rows`` points of ``_stencil`` about
    each point of x (..., m), at the steps hh = h * max(1, |x|_inf).
    Returns (Gs, hh, G^-1, low, up): the metric values Gs (..., rows, m, m)
    with G = Gs[..., 0, :, :], and from the central differences
    d_a g_ij = (G(x + hh e_a) - G(x - hh e_a)) / 2hh the Christoffel symbols
    low[i, j, b] = Gam_{b,ij} = 1/2 (d_i g_jb + d_j g_ib - d_b g_ij) and
    up[k, i, j] = Gam^k_ij = g^{kb} Gam_{b,ij}."""
    x = np.asarray(x, dtype=float)
    m = x.shape[-1]
    hh = h * np.maximum(1.0, np.max(np.abs(x), axis=-1))
    Gs = metric(x[..., None, :] + hh[..., None, None] * _stencil(m)[:rows])
    Ginv = np.linalg.inv(Gs[..., 0, :, :])
    # dG[a, i, j] = d_a g_ij
    dG = (Gs[..., 1:m + 1, :, :] - Gs[..., m + 1:2 * m + 1, :, :]) / (2.0 * hh)[..., None, None, None]
    low = 0.5 * (dG + np.swapaxes(dG, -3, -2) - np.moveaxis(dG, -3, -1))
    up = _fold(Ginv[..., :, None, None, :] * low[..., None, :, :, :])
    return Gs, hh, Ginv, low, up


def christoffels_fd(metric, x):
    """Gamma[..., k, i, j] = Gamma^k_ij at points x (..., m), from finite
    differences of the metric."""
    return _metric_on_stencil(metric, x, DEFAULT_STEP, 2 * np.shape(x)[-1] + 1)[4]


def riemann_fd(metric, x):
    """R[..., i, j, k, l] = g( R(d_i, d_j) d_k , d_l ) at points x (..., m)."""
    return _riemann_and_metric(metric, x)[0]


def _riemann_and_metric(metric, x):
    """(R, G^-1) at points x; see ``riemann_fd``. The full stencil gives
    the second derivatives of G, (G(+e_a) - 2 G + G(-e_a)) / h^2 on the
    diagonal and the four-corner difference over 4 h^2 off it. Then
    R_ijkl = 1/2 (d_i d_k g_jl - d_i d_l g_jk - d_j d_k g_il + d_j d_l g_ik)
             - Gam_{b,il} Gam^b_jk + Gam_{b,jl} Gam^b_ik."""
    x = np.asarray(x, dtype=float)
    m = x.shape[-1]
    Gs, hh, Ginv, low, up = _metric_on_stencil(metric, x, SECOND_STEP, 2 * m * m + 1)
    G = Gs[..., 0, :, :]
    h2 = (hh * hh)[..., None, None, None]
    # ddG[a, b, i, j] = d_a d_b g_ij
    ddG = np.empty(x.shape[:-1] + (m, m, m, m))
    diag = np.arange(m)
    ddG[..., diag, diag, :, :] = (Gs[..., 1:m + 1, :, :] - 2.0 * G[..., None, :, :]
                                  + Gs[..., m + 1:2 * m + 1, :, :]) / h2
    a, b = np.triu_indices(m, 1)
    c = Gs[..., 2 * m + 1:, :, :].reshape(x.shape[:-1] + (a.size, 4, m, m))
    mixed = (c[..., 0, :, :] - c[..., 1, :, :] - c[..., 2, :, :] + c[..., 3, :, :]) / (4.0 * h2)
    ddG[..., a, b, :, :] = mixed
    ddG[..., b, a, :, :] = mixed
    # quad[i, j, k, l] = Gam_{b,il} Gam^b_jk
    quad = _fold(low[..., :, None, None, :, :] * np.moveaxis(up, -3, -1)[..., None, :, :, None, :])
    # hess[i, j, k, l] = d_i d_k g_jl
    hess = np.einsum("...ikjl->...ijkl", ddG)
    R = (0.5 * (hess - np.swapaxes(hess, -1, -2) - np.swapaxes(hess, -4, -3)
                + np.swapaxes(np.swapaxes(hess, -4, -3), -1, -2))
         - quad + np.swapaxes(quad, -4, -3))
    return R, Ginv


def sectional_fd(metric, x, X, Y):
    """R(X, Y, Y, X); equals sectional curvature when X, Y are g-orthonormal."""
    R = riemann_fd(metric, x)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    XYYX = (X[..., :, None, None, None] * Y[..., None, :, None, None]
            * Y[..., None, None, :, None] * X[..., None, None, None, :])
    return _fold(_flat(R, 4) * _flat(XYYX, 4))


def ricci_fd(metric, x):
    """Ric[..., j, k] with the trace Ric(X, X) = sum_a R(e_a, X, X, e_a)."""
    R, Ginv = _riemann_and_metric(metric, x)
    # sum over a, b of g^{ab} R[a, j, k, b]
    Rjk = np.einsum("...ajkb->...jkab", R)
    return _fold(_flat(Rjk, 2) * _flat(Ginv, 2)[..., None, None, :])


def ricci_quadratic_fd(metric, x, X):
    ric = ricci_fd(metric, x)
    X = np.asarray(X, dtype=float)
    return _fold(_flat(ric, 2) * _flat(X[..., :, None] * X[..., None, :], 2))


# ---------------------------------------------------------------------------
# mean curvature of a parametric hypersurface under an arbitrary metric
# ---------------------------------------------------------------------------


def _apply(G, v):
    """G v for stacks of symmetric matrices G (..., m, m) and vectors v (..., m)."""
    return _fold(G * v[..., None, :])


def _det(M):
    """Determinants of a stack of small square matrices M (..., k, k) by
    cofactor expansion along the first row, added in column order."""
    k = M.shape[-1]
    if k == 1:
        return M[..., 0, 0]
    out = 0.0
    for j in range(k):
        term = M[..., 0, j] * _det(np.delete(M[..., 1:, :], j, axis=-1))
        out = out + term if j % 2 == 0 else out - term
    return out


def metric_normal(G, jacobian, inward_ref):
    """G-unit normal to the column span of ``jacobian`` for the metric matrix
    G, oriented along ``inward_ref`` (coordinate vector, positive G-pairing).
    Stacks G (..., m, m), jacobian (..., m, m - 1) and inward_ref (..., m)
    give normals (..., m).

    A vector is G-orthogonal to the columns of J exactly when A = J^T G maps
    it to zero, so the normal direction is the null vector of the
    (m - 1) x m matrix A: its generalized cross product, whose j-th entry is
    (-1)^j times the minor of A without column j (for m = 3 the cross
    product of the two rows, for m = 2 the row turned by a right angle).
    That vector is never longer than the product of the row norms of A
    (Hadamard's bound), with equality for orthogonal rows. A tangent space
    whose vector is at most 1e-8 of that bound anywhere in the stack, or a
    Jacobian without m - 1 columns, has no unique normal direction and
    raises."""
    G = np.asarray(G, dtype=float)
    m = G.shape[-1]
    Jt = np.swapaxes(np.asarray(jacobian, dtype=float), -1, -2)
    if Jt.shape[-2] != m - 1:
        raise ValueError(f"degenerate tangent space: {Jt.shape[-2]} tangent vectors in dimension {m}")
    A = _fold(Jt[..., :, None, :] * G[..., None, :, :])  # (m - 1, m)
    nu = np.stack([_det(np.delete(A, j, axis=-1)) * (-1.0) ** j for j in range(m)], axis=-1)
    hadamard = np.prod(np.sqrt(_fold(A * A)), axis=-1)
    if np.any(~(np.sqrt(_fold(nu * nu)) > 1e-8 * hadamard)):
        raise ValueError("degenerate tangent space")
    nu = nu / np.sqrt(_fold(nu * _apply(G, nu)))[..., None]
    flip = _fold(_apply(G, nu) * np.asarray(inward_ref, dtype=float)) < 0
    return np.where(flip[..., None], -nu, nu)


def parametric_mean_curvature(metric, chart, dchart, d2chart, theta, inward_ref):
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
    Gs, _, _, _, Gam = _metric_on_stencil(metric, p, DEFAULT_STEP, 2 * np.shape(p)[-1] + 1)
    G = Gs[..., 0, :, :]
    Jt = np.swapaxes(J, -1, -2)  # (..., k, m)
    # I[a, b] = J_a . G J_b
    I = _fold(Jt[..., :, None, :] * _apply(G[..., None, :, :], Jt)[..., None, :, :])
    nu = metric_normal(G, J, inward_ref)
    # covariant second derivative: D2_ab + Gamma(J_a, J_b)
    JJ = Jt[..., :, None, :, None] * Jt[..., None, :, None, :]  # (a, b, i, j)
    cov = D2 + _fold(_flat(Gam, 2)[..., None, None, :, :] * _flat(JJ, 2)[..., None, :])
    II = _fold(cov * _apply(G, nu)[..., None, None, :])
    S = np.linalg.solve(I, II)
    return _fold(np.diagonal(S, axis1=-2, axis2=-1)), nu
