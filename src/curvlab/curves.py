"""Discrete curves in a conformally flat ambient model.

A curve is a vertex polyline. Lengths use the midpoint rule on each
segment, with the segment midpoints as nodes for both the g and the u^-2 g
measure. Sharing nodes makes the duality

    sum over segments of u(node) * (u^-2 g length)  ==  g-length

exact to roundoff for any factor u, because u * 1/(u w) = 1/w pointwise.
Several later identities telescope against this, so it is load-bearing.

Tangents and covariant accelerations come from five-point finite-difference
stencils in the vertex index, converted to arclength derivatives through the
speed; the tangential reparameterization term is removed by g-orthogonal
projection, which is exact because nabla_T T is g-orthogonal to T.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spaceform import SpaceForm, christoffel_quadratic


def _median(x):
    """np.median of a non-empty 1-D array of finite values, to the bit, without
    the NaN check that loads numpy.ma."""
    k = x.size // 2
    part = np.partition(x, (k - 1, k))
    return part[k] if x.size % 2 else (part[k - 1] + part[k]) / 2.0


def fornberg_weights(grid, x0, order):
    """Finite-difference weights on arbitrary nodes (Fornberg's recursion).

    Returns w with sum_j w[..., j] f(grid[..., j]) = f^(order)(x0[...]) +
    O(h^{n-order}) for nodes grid (..., n) and points x0 (...). The recursion
    is elementwise, so each stencil of a stack gets the bits it gets alone.
    """
    grid = np.asarray(grid, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    n = grid.shape[-1]
    if order >= n:
        raise ValueError("need more nodes than the derivative order")
    c = np.zeros(grid.shape + (order + 1,))
    c[..., 0, 0] = 1.0
    c1 = 1.0
    c4 = grid[..., 0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = grid[..., i] - x0
        for j in range(i):
            c3 = grid[..., i] - grid[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[..., i, k] = c1 * (k * c[..., i - 1, k - 1] - c5 * c[..., i - 1, k]) / c2
                c[..., i, 0] = -c1 * c5 * c[..., i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[..., j, k] = (c4 * c[..., j, k] - k * c[..., j, k - 1]) / c3
            c[..., j, 0] = c4 * c[..., j, 0] / c3
        c1 = c2
    return c[..., order]


@lru_cache(maxsize=None)
def _uniform_stencil(npts: int, pos: int, order: int):
    """Weights for d^order/dt^order at node ``pos`` of ``npts`` unit-spaced nodes."""
    return fornberg_weights(np.arange(npts, dtype=float), float(pos), order)


def _stencil_derivative(values, order):
    """Apply clipped five-point stencils along axis 0 of ``values``: the
    derivative in the unit-spaced vertex index.

    Windows are five consecutive indices clamped to the array; near the ends
    the evaluation point sits off-center and the weights adjust accordingly.
    The centred stencil is applied to all interior vertices at once; only
    the two vertices at each end, or every vertex of a curve with five or
    fewer, take a clamped window of their own.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    npts = min(5, n)
    if npts <= order:
        raise ValueError("curve has too few vertices for this stencil")
    out = np.empty_like(values)
    if n > 5:
        windows = np.lib.stride_tricks.sliding_window_view(values, 5, axis=0)
        out[2 : n - 2] = windows @ _uniform_stencil(5, 2, order)
        clamped = (0, 1, n - 2, n - 1)
    else:
        clamped = range(n)
    for i in clamped:
        start = min(max(i - 2, 0), n - npts)
        w = _uniform_stencil(npts, i - start, order)
        out[i] = np.tensordot(w, values[start : start + npts], axes=(0, 0))
    return out


@dataclass
class DiscreteCurve:
    """Open polyline with quadrature and discrete differential geometry."""

    space: SpaceForm
    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != self.space.dim:
            raise ValueError("points must be (N+1, dim)")
        if self.points.shape[0] < 2:
            raise ValueError("a curve needs at least two vertices")
        self.space.check_point(self.points)

    @property
    def n_segments(self) -> int:
        return self.points.shape[0] - 1

    # -- quadrature ---------------------------------------------------------

    def segment_vectors(self):
        return self.points[1:] - self.points[:-1]

    def segment_chords(self):
        return np.linalg.norm(self.segment_vectors(), axis=1)

    def quad_nodes(self):
        """Segment midpoints, the quadrature nodes of both measures."""
        return self.points[:-1] + 0.5 * self.segment_vectors()

    def g_length(self) -> float:
        """Length in the g metric."""
        w0 = self.space.ambient_factor(self.quad_nodes())
        return float(np.sum(self.segment_chords() / w0))

    def tilde_length(self, u) -> float:
        """Length in the u^-2 g metric."""
        nodes = self.quad_nodes()
        w0 = self.space.ambient_factor(nodes)
        uv = np.asarray(u.value(nodes), dtype=float)
        if np.any(uv <= 0.0):
            raise ValueError("conformal factor must be positive along the curve")
        return float(np.sum(self.segment_chords() / (uv * w0)))

    def segment_lengths(self, u=None):
        """Per-segment lengths in g (u None) or u^-2 g."""
        nodes = self.quad_nodes()
        w0 = self.space.ambient_factor(nodes)
        dens = 1.0 / w0
        if u is not None:
            dens = dens / np.asarray(u.value(nodes), dtype=float)
        return self.segment_chords() * dens

    def vertex_s(self, u=None):
        """Cumulative arclength at the vertices, starting from zero."""
        out = np.zeros(self.points.shape[0])
        out[1:] = np.cumsum(self.segment_lengths(u))
        return out

    # -- discrete differential geometry ------------------------------------

    def _velocity(self):
        """(v, sigma): coordinate velocity d/dtau and speed ds/dtau at each
        vertex. Raises ValueError at the first vertex whose speed is not finite
        or at most 1e-8 (about sqrt(eps)) of the median, where no tangent can
        be trusted: a stalled curve (five repeated vertices) has roundoff
        speeds, 1e-17 relative, while the checks' curves stay above 0.87."""
        v = _stencil_derivative(self.points, 1)
        w0 = self.space.ambient_factor(self.points)
        sigma = np.linalg.norm(v, axis=1) / w0
        finite = np.isfinite(sigma)
        floor = 1e-8 * _median(sigma[finite]) if finite.any() else 0.0
        bad = np.flatnonzero(~(finite & (sigma > floor)))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"degenerate curve: speed {float(sigma[i])} at vertex {i}")
        return v, sigma

    def vertex_tangents(self):
        """(T, sigma): g-unit tangent and speed ds/dtau at each vertex,
        where tau is the unit-spaced vertex index parameter."""
        v, sigma = self._velocity()
        # g-unit: flat norm of T is w0, so |T|_g = 1
        return v / sigma[:, None], sigma

    def vertex_acceleration(self):
        """nabla_T T at each vertex (g-covariant, arclength gauge)."""
        v, sigma = self._velocity()
        a = _stencil_derivative(self.points, 2)
        acc = (a + christoffel_quadratic(self.space, self.points, v)) / (sigma**2)[:, None]
        T = v / sigma[:, None]
        # remove the tangential reparameterization component
        tang = self.space.inner(self.points, acc, T)
        return acc - tang[:, None] * T

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
        return DiscreteCurve(self.space, pts)
