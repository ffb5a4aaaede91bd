"""Discrete curves in a conformally flat ambient model.

A curve is a vertex polyline. Lengths and curve integrals use per-segment
quadrature (midpoint by default, Simpson for high-accuracy certification
runs) with nodes shared between the g and u^-2 g measures. Sharing nodes
makes the duality

    integral of u d(s-tilde)  ==  integral of 1 ds  ==  g-length

exact to roundoff for any factor u, because u * 1/(u w) = 1/w pointwise.
Several later identities telescope against this, so it is load-bearing.

Tangents and covariant accelerations come from five-point finite-difference
stencils in the vertex index, converted to arclength derivatives through the
speed; the tangential reparameterization term is removed by g-orthogonal
projection, which is exact because nabla_T T is g-orthogonal to T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .spaceform import SpaceForm, christoffel_quadratic


def fornberg_weights(grid, x0, order):
    """Finite-difference weights on arbitrary nodes (Fornberg's recursion).

    Returns w with sum_j w[j] f(grid[j]) = f^(order)(x0) + O(h^{len-order}).
    """
    grid = np.asarray(grid, dtype=float)
    n = grid.size
    if order >= n:
        raise ValueError("need more nodes than the derivative order")
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = grid[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = grid[i] - x0
        for j in range(i):
            c3 = grid[i] - grid[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


@lru_cache(maxsize=None)
def _uniform_stencil(npts: int, pos: int, order: int):
    """Weights for d^order/dt^order at node ``pos`` of ``npts`` unit-spaced nodes."""
    return fornberg_weights(np.arange(npts, dtype=float), float(pos), order)


def _stencil_derivative(values, order, h):
    """Apply clipped five-point stencils along axis 0 of ``values``.

    Windows are five consecutive indices clamped to the array; near the ends
    the evaluation point sits off-center and the weights adjust accordingly.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    npts = min(5, n)
    if npts <= order:
        raise ValueError("curve has too few vertices for this stencil")
    out = np.empty_like(values)
    for i in range(n):
        start = min(max(i - 2, 0), n - npts)
        w = _uniform_stencil(npts, i - start, order)
        out[i] = np.tensordot(w, values[start : start + npts], axes=(0, 0))
    return out / h**order


_SIMPSON_OFFSETS = np.array([0.0, 0.5, 1.0])
_SIMPSON_WEIGHTS = np.array([1.0, 4.0, 1.0]) / 6.0


@dataclass
class DiscreteCurve:
    """Open polyline with quadrature and discrete differential geometry."""

    space: SpaceForm
    points: np.ndarray
    rule: str = "midpoint"

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != self.space.dim:
            raise ValueError("points must be (N+1, dim)")
        if self.points.shape[0] < 2:
            raise ValueError("a curve needs at least two vertices")
        if self.rule not in ("midpoint", "simpson"):
            raise ValueError(f"unknown quadrature rule {self.rule!r}")
        self.space.check_point(self.points)

    @classmethod
    def from_function(cls, space, fn, t0, t1, n_segments, rule="midpoint"):
        ts = np.linspace(t0, t1, n_segments + 1)
        pts = np.array([fn(t) for t in ts], dtype=float)
        return cls(space, pts, rule=rule)

    @property
    def n_segments(self) -> int:
        return self.points.shape[0] - 1

    # -- quadrature ---------------------------------------------------------

    def segment_vectors(self):
        return self.points[1:] - self.points[:-1]

    def segment_chords(self):
        return np.linalg.norm(self.segment_vectors(), axis=1)

    def quad_nodes(self):
        a = self.points[:-1]
        d = self.segment_vectors()
        if self.rule == "midpoint":
            return a + 0.5 * d
        nodes = a[:, None, :] + _SIMPSON_OFFSETS[None, :, None] * d[:, None, :]
        return nodes.reshape(-1, self.points.shape[1])

    def quad_base_weights(self):
        chords = self.segment_chords()
        if self.rule == "midpoint":
            return chords
        return (chords[:, None] * _SIMPSON_WEIGHTS[None, :]).reshape(-1)

    def _node_values(self, f):
        nodes = self.quad_nodes()
        if callable(f):
            vals = np.asarray(f(nodes), dtype=float)
        else:
            vals = np.asarray(f, dtype=float)
        if vals.shape != (nodes.shape[0],):
            raise ValueError("node values have the wrong shape")
        return vals

    def integrate_ds(self, f=None) -> float:
        """Integral of f over the curve in the g arclength measure."""
        nodes = self.quad_nodes()
        w0 = self.space.ambient_factor(nodes)
        vals = np.ones(nodes.shape[0]) if f is None else self._node_values(f)
        return float(np.sum(self.quad_base_weights() * vals / w0))

    def integrate_ds_tilde(self, u, f=None) -> float:
        """Integral of f in the u^-2 g arclength measure."""
        nodes = self.quad_nodes()
        w0 = self.space.ambient_factor(nodes)
        uv = np.asarray(u.value(nodes), dtype=float)
        if np.any(uv <= 0.0):
            raise ValueError("conformal factor must be positive along the curve")
        vals = np.ones(nodes.shape[0]) if f is None else self._node_values(f)
        return float(np.sum(self.quad_base_weights() * vals / (uv * w0)))

    def g_length(self) -> float:
        return self.integrate_ds()

    def tilde_length(self, u) -> float:
        return self.integrate_ds_tilde(u)

    def segment_lengths(self, u=None):
        """Per-segment lengths in g (u None) or u^-2 g."""
        nodes = self.quad_nodes()
        w0 = self.space.ambient_factor(nodes)
        dens = 1.0 / w0
        if u is not None:
            dens = dens / np.asarray(u.value(nodes), dtype=float)
        contrib = self.quad_base_weights() * dens
        if self.rule == "midpoint":
            return contrib
        return contrib.reshape(-1, 3).sum(axis=1)

    def vertex_s(self, u=None):
        """Cumulative arclength at the vertices, starting from zero."""
        out = np.zeros(self.points.shape[0])
        out[1:] = np.cumsum(self.segment_lengths(u))
        return out

    # -- discrete differential geometry ------------------------------------

    def vertex_tangents(self):
        """(T, sigma): g-unit tangent and speed ds/dtau at each vertex,
        where tau is the unit-spaced vertex index parameter."""
        v = _stencil_derivative(self.points, 1, 1.0)
        w0 = self.space.ambient_factor(self.points)
        sigma = np.linalg.norm(v, axis=1) / w0
        # g-unit: flat norm of T is w0, so |T|_g = 1
        return v / sigma[:, None], sigma

    def vertex_acceleration(self):
        """nabla_T T at each vertex (g-covariant, arclength gauge)."""
        v = _stencil_derivative(self.points, 1, 1.0)
        a = _stencil_derivative(self.points, 2, 1.0)
        w0 = self.space.ambient_factor(self.points)
        sigma = np.linalg.norm(v, axis=1) / w0
        acc = (a + christoffel_quadratic(self.space, self.points, v)) / (sigma**2)[:, None]
        T = v / sigma[:, None]
        # remove the tangential reparameterization component
        tang = self.space.inner(self.points, acc, T)
        return acc - tang[:, None] * T

    def geodesic_curvature(self):
        """Signed g-geodesic curvature at the vertices (dim 2 only), with the
        normal obtained by rotating T a quarter turn counterclockwise."""
        if self.space.dim != 2:
            raise ValueError("geodesic curvature needs a two dimensional model")
        T, _ = self.vertex_tangents()
        N = np.stack([-T[:, 1], T[:, 0]], axis=1)
        acc = self.vertex_acceleration()
        return self.space.inner(self.points, acc, N)

    # -- reparameterization -------------------------------------------------

    def resample(self, n_segments, u=None):
        """New curve with vertices equally spaced in g (u None) or u^-2 g
        arclength, by linear interpolation of the polyline."""
        s = self.vertex_s(u)
        total = s[-1]
        targets = np.linspace(0.0, total, n_segments + 1)
        cols = [np.interp(targets, s, self.points[:, j]) for j in range(self.points.shape[1])]
        pts = np.stack(cols, axis=1)
        pts[0] = self.points[0]
        pts[-1] = self.points[-1]
        return DiscreteCurve(self.space, pts, rule=self.rule)
