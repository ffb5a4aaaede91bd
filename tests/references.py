"""Reference helpers the tests compare the library against.

One-point central differences and parametric curve sampling. This module
imports numpy only, so it stays independent of every formula it audits.
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


def curve_points(fn, t0, t1, n_segments):
    """Vertices fn(t) at n_segments + 1 equally spaced t in [t0, t1], as a
    (n_segments + 1, dim) array for ``DiscreteCurve``."""
    ts = np.linspace(t0, t1, n_segments + 1)
    return np.array([fn(t) for t in ts], dtype=float)
