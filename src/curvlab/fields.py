"""Scalar fields with analytic first and second coordinate derivatives.

Every conformal factor in the lab flows through the small ``ScalarField``
interface: ``value``, ``gradient`` (coordinate partials), ``hessian``
(coordinate second partials). Derivatives are analytic by construction, so the
finite-difference machinery in ``fdcheck`` stays independent of the formulas
it audits. All methods are vectorized over a leading batch axis.

Radial profiles are stored as smooth functions of q = r^2. That single choice
removes every removable singularity at r = 0: u'(r)/r = 2*du/dq is a plain
evaluation, and coordinate Hessians of radial fields never divide by r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol

import numpy as np


class ScalarField(Protocol):
    def value(self, x: np.ndarray) -> np.ndarray: ...

    def gradient(self, x: np.ndarray) -> np.ndarray: ...

    def hessian(self, x: np.ndarray) -> np.ndarray: ...


def _eye_like(x: np.ndarray) -> np.ndarray:
    m = x.shape[-1]
    shape = x.shape[:-1] + (m, m)
    return np.broadcast_to(np.eye(m), shape).copy()


@dataclass(frozen=True)
class ConstantField:
    c: float = 1.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], self.c)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros_like(x)

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (x.shape[-1],))


@dataclass(frozen=True)
class BallFactorField:
    """w(x) = (kappa/2)(1 - |x|^2), the flat-to-ball conformal factor.

    The ball model metric (4/kappa^2)(1-|x|^2)^{-2} delta equals w^{-2} delta.
    """

    kappa: float

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * self.kappa * (1.0 - np.sum(x * x, axis=-1))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return -self.kappa * x

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        return -self.kappa * _eye_like(x)


@dataclass(frozen=True)
class ExpQuadraticField:
    """u = exp(c + a.x + x.B x / 2); strictly positive, fully analytic.

    The workhorse for randomized oracle points: curvature transformation laws
    get audited against finite differences with these as the conformal factor.
    """

    a: np.ndarray
    B: np.ndarray
    c: float = 0.0

    def _exponent(self, x):
        return self.c + x @ self.a + 0.5 * np.einsum("...i,ij,...j->...", x, self.B, x)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(self._exponent(x))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        lin = self.a + x @ self.B
        return self.value(x)[..., None] * lin

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        u = self.value(x)
        lin = self.a + x @ self.B
        outer = lin[..., :, None] * lin[..., None, :]
        return u[..., None, None] * (outer + self.B)


@dataclass(frozen=True)
class ProductField:
    f: ScalarField
    g: ScalarField

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
# radial profiles
# ---------------------------------------------------------------------------


@dataclass
class RadialProfile:
    """Profile u(r) given through q-form callables u = qv(r^2).

    kind is one of "quartic-cutoff" (the (1 - r^2 R^-2)^2 profile),
    "constant" or "gaussian". R is the support radius when meaningful.
    """

    kind: str
    q_value: Callable[[np.ndarray], np.ndarray]
    q_d1: Callable[[np.ndarray], np.ndarray]
    q_d2: Callable[[np.ndarray], np.ndarray]
    R: Optional[float] = None

    # r-form accessors ------------------------------------------------------

    def value(self, r):
        r = np.asarray(r, dtype=float)
        return self.q_value(r * r)

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
        """u'(r)^2 / u(r); closed form 16 r^2 R^-4 for the quartic cutoff.

        The closed form stays finite at r = R where value and d1 both vanish.
        """
        r = np.asarray(r, dtype=float)
        if self.kind == "quartic-cutoff":
            return 16.0 * r * r / self.R**4
        q = r * r
        v = self.q_value(q)
        if np.any(v <= 0.0):
            raise ValueError("profile vanishes inside its domain; u'^2/u undefined")
        return (2.0 * r * self.q_d1(q)) ** 2 / v


def quartic_cutoff_profile(R: float) -> RadialProfile:
    """The quartic cutoff u(r) = (1 - r^2 R^-2)^2, extended by zero past r = R."""
    if R <= 0:
        raise ValueError("R must be positive")
    R2 = R * R

    def qv(q):
        t = np.maximum(1.0 - np.asarray(q, dtype=float) / R2, 0.0)
        return t * t

    def qd1(q):
        t = np.maximum(1.0 - np.asarray(q, dtype=float) / R2, 0.0)
        return -2.0 * t / R2

    def qd2(q):
        q = np.asarray(q, dtype=float)
        return np.where(q < R2, 2.0 / (R2 * R2), 0.0)

    return RadialProfile("quartic-cutoff", qv, qd1, qd2, R=R)


def constant_profile(c: float = 1.0) -> RadialProfile:
    def zero(q):
        return np.zeros_like(np.asarray(q, dtype=float))

    return RadialProfile(
        "constant",
        lambda q: np.full_like(np.asarray(q, dtype=float), c),
        zero,
        zero,
    )


def gaussian_profile(sigma: float = 1.0) -> RadialProfile:
    s2 = sigma * sigma

    def qv(q):
        return np.exp(-np.asarray(q, dtype=float) / s2)

    def qd1(q):
        return -qv(q) / s2

    def qd2(q):
        return qv(q) / (s2 * s2)

    return RadialProfile("gaussian", qv, qd1, qd2)
