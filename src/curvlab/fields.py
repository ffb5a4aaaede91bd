"""Scalar fields with analytic first and second coordinate derivatives.

Every conformal factor in the lab flows through the small ``ScalarField``
interface: ``value``, ``gradient`` (coordinate partials), ``hessian``
(coordinate second partials). Derivatives are analytic by construction, so the
finite-difference machinery in ``fdcheck`` stays independent of the formulas
it audits. All methods are vectorized over leading batch axes: points (..., m)
give values (...), gradients (..., m) and Hessians (..., m, m).

``ExpQuadraticField`` also stacks its parameters: a field built from a (S, m),
B (S, m, m) and c (S,) is S fields at once, and its points (S, ..., m) pair
field s with the points x[s]. Its sums run in index order, so a point gets the
same bits alone, inside a batch and inside a stack.

The one radial profile, the quartic cutoff ``QuarticCutoff``, is stored as a
smooth function of q = r^2. That single choice removes every removable
singularity at r = 0: u'(r)/r = 2*du/dq is a plain evaluation, and coordinate
Hessians of radial fields never divide by r.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np


class ScalarField(Protocol):
    def value(self, x: np.ndarray) -> np.ndarray: ...

    def gradient(self, x: np.ndarray) -> np.ndarray: ...

    def hessian(self, x: np.ndarray) -> np.ndarray: ...


def _eye_like(x: np.ndarray) -> np.ndarray:
    m = x.shape[-1]
    shape = x.shape[:-1] + (m, m)
    return np.broadcast_to(np.eye(m), shape).copy()


class ConstantField:
    def __init__(self, c: float = 1.0):
        self.c = c

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], self.c)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros_like(x)

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (x.shape[-1],))


class BallFactorField:
    """w(x) = (kappa/2)(1 - |x|^2), the flat-to-ball conformal factor.

    The ball model metric (4/kappa^2)(1-|x|^2)^{-2} delta equals w^{-2} delta.
    """

    def __init__(self, kappa: float):
        self.kappa = kappa

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * self.kappa * (1.0 - np.sum(x * x, axis=-1))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return -self.kappa * x

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        return -self.kappa * _eye_like(x)


def _fold_dot(u, v):
    """sum_i u[..., i] v[..., i], added in index order. einsum and matmul pick
    their summation order from the array layout, so they can round a point
    differently alone and inside a batch; this cannot."""
    out = u[..., 0] * v[..., 0]
    for i in range(1, u.shape[-1]):
        out = out + u[..., i] * v[..., i]
    return out


class ExpQuadraticField:
    """u = exp(c + a.x + x.B x / 2); strictly positive, fully analytic.

    The workhorse for randomized oracle points: curvature transformation laws
    get audited against finite differences with these as the conformal factor.
    B is symmetric. Stacked parameters a (S, m), B (S, m, m), c (S,) make S
    fields whose leading axis pairs with the leading axis of the points.
    """

    def __init__(self, a: np.ndarray, B: np.ndarray, c: float = 0.0):
        self.a = a
        self.B = B
        self.c = c

    def _terms(self, x):
        """(u, a + Bx, B) at points x, with B shaped to broadcast against x."""
        a = np.asarray(self.a, dtype=float)
        m = a.shape[-1]
        # one field: a (m,); a stack: a (S, m), paired with the first axis of x
        shape = a.shape[:-1] + (1,) * (x.ndim - a.ndim)
        a = a.reshape(shape + (m,))
        B = np.reshape(self.B, shape + (m, m))
        Bx = _fold_dot(B, x[..., None, :])
        exponent = np.reshape(self.c, shape) + _fold_dot(a, x) + 0.5 * _fold_dot(x, Bx)
        return np.exp(exponent), a + Bx, B

    def value(self, x):
        return self._terms(np.asarray(x, dtype=float))[0]

    def gradient(self, x):
        u, lin, _ = self._terms(np.asarray(x, dtype=float))
        return u[..., None] * lin

    def hessian(self, x):
        u, lin, B = self._terms(np.asarray(x, dtype=float))
        outer = lin[..., :, None] * lin[..., None, :]
        return u[..., None, None] * (outer + B)


class ProductField:
    def __init__(self, f: ScalarField, g: ScalarField):
        self.f = f
        self.g = g

    def value(self, x):
        return self.f.value(x) * self.g.value(x)

    def gradient(self, x):
        fv = self.f.value(x)[..., None]
        gv = self.g.value(x)[..., None]
        return self.f.gradient(x) * gv + self.g.gradient(x) * fv

    def hessian(self, x):
        fv = self.f.value(x)[..., None, None]
        gv = self.g.value(x)[..., None, None]
        fg = self.f.gradient(x)
        gg = self.g.gradient(x)
        cross = fg[..., :, None] * gg[..., None, :]
        return (
            self.f.hessian(x) * gv
            + self.g.hessian(x) * fv
            + cross
            + np.swapaxes(cross, -1, -2)
        )


# ---------------------------------------------------------------------------
# the radial profile
# ---------------------------------------------------------------------------


class QuarticCutoff:
    """The quartic cutoff u(r) = (1 - r^2 R^-2)^2, extended by zero past r = R.

    The q-form methods give u and its derivatives as functions of q = r^2;
    the r-form accessors of its derivatives are built on them, and u(r) is
    ``q_value(r * r)``.
    """

    def __init__(self, R: float):
        if R <= 0:
            raise ValueError("R must be positive")
        self.R = R

    # q-form ----------------------------------------------------------------

    def q_value(self, q):
        R2 = self.R * self.R
        t = np.maximum(1.0 - np.asarray(q, dtype=float) / R2, 0.0)
        return t * t

    def q_d1(self, q):
        R2 = self.R * self.R
        t = np.maximum(1.0 - np.asarray(q, dtype=float) / R2, 0.0)
        return -2.0 * t / R2

    def q_d2(self, q):
        R2 = self.R * self.R
        q = np.asarray(q, dtype=float)
        return np.where(q < R2, 2.0 / (R2 * R2), 0.0)

    # r-form accessors ------------------------------------------------------

    def d1(self, r):
        r = np.asarray(r, dtype=float)
        return 2.0 * r * self.q_d1(r * r)

    def d2(self, r):
        r = np.asarray(r, dtype=float)
        q = r * r
        return 2.0 * self.q_d1(q) + 4.0 * q * self.q_d2(q)

    def d1_over_r(self, r):
        """u'(r)/r; finite at r = 0 by the q-form (limit u''(0))."""
        r = np.asarray(r, dtype=float)
        return 2.0 * self.q_d1(r * r)

    def d1_sq_over_value(self, r):
        """u'(r)^2 / u(r) = 16 r^2 R^-4 for r <= R.

        The closed form stays finite at r = R where value and d1 both vanish.
        """
        r = np.asarray(r, dtype=float)
        return 16.0 * r * r / self.R**4
