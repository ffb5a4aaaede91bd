"""Reference helpers the tests compare the library against.

One-point central differences, the nested Riemann tensor and parametric
curve sampling. This module imports numpy only, so it stays independent of
every formula it audits.
"""

import numpy as np

DEFAULT_STEP = 1e-5


def _step(x, h):
    """Step h * max(1, |x|_inf) for each point of x (..., m)."""
    return h * np.maximum(1.0, np.max(np.abs(x), axis=-1))


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


def _christoffels(metric, x, h):
    """Gamma[k, i, j] = Gamma^k_ij at one point x (m,) from central
    differences of metric (batched: (..., m) -> (..., m, m))."""
    hh = _step(x, h)
    e = np.eye(x.size) * hh
    dG = (metric(x + e) - metric(x - e)) / (2.0 * hh)  # dG[i, a, b] = d_i g_ab
    term = dG + np.einsum("jil->ijl", dG) - np.einsum("lij->ijl", dG)
    return 0.5 * np.einsum("kl,ijl->kij", np.linalg.inv(metric(x)), term)


def riemann_nested(metric, x, h=DEFAULT_STEP):
    """R[i, j, k, l] = g( R(d_i, d_j) d_k , d_l ) at one point x (m,), from
    central differences of Christoffel symbols that are themselves central
    differences of the metric: (2m + 1)(2m + 1) metric points in all."""
    x = np.asarray(x, dtype=float)
    hh = _step(x, h)
    Gam = _christoffels(metric, x, h)
    # dGam[i, l, j, k] = d_i Gamma^l_jk
    dGam = np.stack([(_christoffels(metric, x + hh * e, h) - _christoffels(metric, x - hh * e, h))
                     / (2.0 * hh) for e in np.eye(x.size)])
    # R^l_{kij} = d_i Gam^l_{jk} - d_j Gam^l_{ik} + Gam^l_{im} Gam^m_{jk} - Gam^l_{jm} Gam^m_{ik}
    quad = np.einsum("lim,mjk->ijkl", Gam, Gam)
    up = (np.einsum("iljk->ijkl", dGam) - np.einsum("jlik->ijkl", dGam)
          + quad - np.einsum("jikl->ijkl", quad))
    return np.einsum("ijka,al->ijkl", up, metric(x))


def curve_points(fn, t0, t1, n_segments):
    """Vertices fn(t) at n_segments + 1 equally spaced t in [t0, t1], as a
    (n_segments + 1, dim) array for ``DiscreteCurve``."""
    ts = np.linspace(t0, t1, n_segments + 1)
    return np.array([fn(t) for t in ts], dtype=float)
