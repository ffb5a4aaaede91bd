"""Hypersurfaces in the ambient models, their mean curvature, and the worked
boundary configurations used throughout the estimate checks.

A surface is stored implicitly (F with analytic gradient and Hessian, plus a
sign picking the inward normal); mean curvature under the ambient metric
comes from the Euclidean divergence formula pushed through the conformal law.
Most surfaces also carry a one-parameter reduced chart (curvature and
distance to the origin depend on a single parameter for every configuration
here), which drives sampling and annulus infima.

Closed-form curvature expressions for the named configurations live on the
fixtures as ``h_exact`` and are compared in the tests against both the
implicit machinery and the fundamental-form oracle in ``fdcheck``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .conformal import mean_curvature_formula
from .fields import BallFactorField
from .spaceform import SpaceForm


@dataclass
class Hypersurface:
    """Implicit hypersurface {F = 0} with a chosen inward side.

    inward_sign fixes orientation: the inward g-unit normal is the g-unit
    vector along inward_sign * gradF. ``side(x) > 0`` on the inward side.
    chart/chart_box give a reduced one-parameter sampling of the surface.
    """

    space: SpaceForm
    F: Callable
    gradF: Callable
    hessF: Callable
    inward_sign: float
    chart: Optional[Callable] = None
    chart_box: Optional[tuple] = None
    h_exact: Optional[Callable] = None
    label: str = ""

    def side(self, x) -> np.ndarray:
        return self.inward_sign * np.asarray(self.F(np.asarray(x, dtype=float)))

    def euclid_unit_normal(self, x) -> np.ndarray:
        """Inward normal of Euclidean unit length (coordinate direction)."""
        g = np.asarray(self.gradF(np.asarray(x, dtype=float)), dtype=float)
        norm = np.linalg.norm(g, axis=-1, keepdims=True)
        return self.inward_sign * g / norm

    def normal(self, x) -> np.ndarray:
        """Inward g-unit normal (coordinate components)."""
        nu = self.euclid_unit_normal(x)
        w = self.space.ambient_factor(x)
        return nu * w[..., None]

    def euclid_mean_curvature(self, x) -> np.ndarray:
        """Mean curvature of {F = 0} under the flat coordinate metric with
        respect to the inward Euclidean unit normal."""
        x = np.asarray(x, dtype=float)
        g = np.asarray(self.gradF(x), dtype=float)
        Hm = np.asarray(self.hessF(x), dtype=float)
        g2 = np.sum(g * g, axis=-1)
        lap = np.trace(Hm, axis1=-2, axis2=-1)
        quad = np.einsum("...i,...ij,...j->...", g, Hm, g)
        return -self.inward_sign * (lap * g2 - quad) / g2**1.5

    def mean_curvature(self, x) -> np.ndarray:
        """Scalar mean curvature under the ambient metric, inward g-unit
        normal; Euclidean value transported by the conformal law."""
        He = self.euclid_mean_curvature(x)
        if not self.space.hyperbolic:
            return He
        return mean_curvature_formula(
            SpaceForm(self.space.dim, 0.0), BallFactorField(self.space.kappa),
            x, He, self.euclid_unit_normal(x),
        )

    def project(self, x, tol=1e-13, max_iter=60) -> np.ndarray:
        """Newton projection x -> x - F gradF / |gradF|^2 onto the surface."""
        y = np.array(x, dtype=float, copy=True)
        scale = max(1.0, float(np.linalg.norm(y)))
        for _ in range(max_iter):
            f = float(self.F(y))
            if abs(f) < tol * scale:
                return y
            g = np.asarray(self.gradF(y), dtype=float)
            y = y - f * g / float(g @ g)
        raise RuntimeError("surface projection did not converge")

    def chart_points(self, ts) -> np.ndarray:
        if self.chart is None:
            raise ValueError("surface has no chart")
        return np.asarray(self.chart(np.asarray(ts, dtype=float)), dtype=float)


def sphere_mean_curvature(space: SpaceForm, R: float) -> float:
    """Inward mean curvature of the geodesic sphere of radius R.

    (dim-1)/R in flat space; (dim-1) kappa coth(kappa R), evaluated as
    kappa (1 + 2/expm1(2 kappa R)) to stay accurate for large radii.
    """
    if R <= 0:
        raise ValueError("radius must be positive")
    n = space.dim - 1
    if not space.hyperbolic:
        return n / R
    k = space.kappa
    return n * k * (1.0 + 2.0 / np.expm1(2.0 * k * R))


def geodesic_sphere(space: SpaceForm, R: float, label="sphere") -> Hypersurface:
    """Geodesic sphere about the origin with inward orientation."""
    if space.hyperbolic:
        s = np.tanh(0.5 * space.kappa * R)
    else:
        s = R
    H = sphere_mean_curvature(space, R)
    return _sphere_piece(space, np.zeros(space.dim), s, H, (0.0, 2.0 * np.pi), label)


def _sphere_piece(space, center, rho, H, chart_box, label):
    """Coordinate sphere |x - center| = rho for a center on the x0 axis,
    oriented toward its center, with constant mean curvature H and charted
    by its great circle in the (x0, x1) plane."""
    center = np.asarray(center, dtype=float)
    m = space.dim

    def F(x):
        d = np.asarray(x, dtype=float) - center
        return np.sum(d * d, axis=-1) - rho * rho

    def gradF(x):
        return 2.0 * (np.asarray(x, dtype=float) - center)

    def hessF(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * np.broadcast_to(np.eye(m), x.shape + (m,)).copy()

    def chart(ts):
        ts = np.asarray(ts, dtype=float)
        pts = np.zeros(ts.shape + (m,))
        pts[..., 0] = center[0] + rho * np.cos(ts)
        pts[..., 1] = rho * np.sin(ts)
        return pts

    return Hypersurface(
        space, F, gradF, hessF, -1.0, chart=chart, chart_box=chart_box,
        h_exact=lambda ts: np.full(np.shape(ts), H), label=label,
    )


def _plane_piece(space, axis, offset, along, inward_sign, chart_box, label):
    """Coordinate hyperplane x[axis] = offset, charted along coordinate
    ``along``; totally geodesic in flat space."""
    m = space.dim

    def F(x):
        return np.asarray(x, dtype=float)[..., axis] - offset

    def gradF(x):
        g = np.zeros_like(np.asarray(x, dtype=float))
        g[..., axis] = 1.0
        return g

    def hessF(x):
        return np.zeros(np.shape(x) + (m,))

    def chart(ts):
        ts = np.asarray(ts, dtype=float)
        pts = np.zeros(ts.shape + (m,))
        pts[..., axis] = offset
        pts[..., along] = ts
        return pts

    return Hypersurface(
        space, F, gradF, hessF, inward_sign, chart=chart, chart_box=chart_box,
        h_exact=lambda ts: np.zeros(np.shape(ts)), label=label,
    )


# ---------------------------------------------------------------------------
# named configurations
# ---------------------------------------------------------------------------


@dataclass
class Fixture:
    """Two boundary pieces enclosing a region, with known exact data."""

    name: str
    space: SpaceForm
    pieces: List[Hypersurface]
    contains: Callable
    distance: Optional[float] = None
    endpoints: Optional[np.ndarray] = None
    params: dict = field(default_factory=dict)


def _equidistant_fixture(a: float, dim: int) -> Fixture:
    """Two spheres |x -+ a e0|^2 = 1 + a^2 in the ball model (kappa = 1).

    Each meets the ideal boundary orthogonally off-axis, has constant inward
    mean curvature (dim-1)/sqrt(1+a^2), and the lens between them contains
    the origin. Their distance d satisfies tanh(d/2) = 1/sqrt(1+a^2), so the
    configuration realizes equality in the curvature-sum bound.
    """
    if a <= 0:
        raise ValueError("separation parameter a must be positive")
    space = SpaceForm(dim, 1.0)
    rho = np.sqrt(1.0 + a * a)
    n = dim - 1
    H = n / rho
    b = rho - a  # axis crossing: pieces pass through -+ b e0
    # restrict charts to the arc inside the ball (centered on the axis
    # crossing; the sphere leaves the ball at polar angle where |x| = 1)
    half = np.arccos(a / rho)
    piece1 = _sphere_piece(space, [a] + [0.0] * (dim - 1), rho, H,
                           (np.pi - half + 1e-9, np.pi + half - 1e-9), "sphere(+a)")
    piece2 = _sphere_piece(space, [-a] + [0.0] * (dim - 1), rho, H,
                           (-half + 1e-9, half - 1e-9), "sphere(-a)")

    def contains(x):
        x = np.asarray(x, dtype=float)
        in_ball = np.sum(x * x, axis=-1) < 1.0
        return in_ball & (piece1.side(x) > 0) & (piece2.side(x) > 0)

    ends = np.zeros((2, dim))
    ends[0, 0] = -b
    ends[1, 0] = b
    return Fixture(
        name="hyperbolic-equidistant",
        space=space,
        pieces=[piece1, piece2],
        contains=contains,
        distance=4.0 * np.arctanh(b),
        endpoints=ends,
        params={"a": a, "rho": rho, "H": H, "b": b},
    )


def _slab_fixture(d: float, dim: int) -> Fixture:
    """Parallel planes x0 = -+ d/2 in flat space; both totally geodesic."""
    if d <= 0:
        raise ValueError("slab width must be positive")
    space = SpaceForm(dim, 0.0)
    box = (-50.0 * d, 50.0 * d)
    piece1 = _plane_piece(space, 0, d / 2.0, 1, -1.0, box, "plane(+d/2)")
    piece2 = _plane_piece(space, 0, -d / 2.0, 1, 1.0, box, "plane(-d/2)")

    def contains(x):
        x0 = np.asarray(x, dtype=float)[..., 0]
        return (x0 < d / 2.0) & (x0 > -d / 2.0)

    ends = np.zeros((2, dim))
    ends[0, 0] = -d / 2.0
    ends[1, 0] = d / 2.0
    return Fixture(
        name="euclid-slab",
        space=space,
        pieces=[piece1, piece2],
        contains=contains,
        distance=d,
        endpoints=ends,
        params={"d": d},
    )


def _log_graph_fixture(x_min: float = 3.0, x_max: float = 2.0e6) -> Fixture:
    """Region between the x-axis and the graph y = x / log x in the plane.

    The graph piece has inward mean curvature
        H(x) = (log x - 2) / (x log^3 x) * (1 + y'^2)^{-3/2},
    positive past x = e^2 but decaying faster than 1/x; the configuration
    probes how slowly a boundary curvature can decay at infinity.
    """
    space = SpaceForm(2, 0.0)

    def yfun(t):
        return t / np.log(t)

    def y1(t):
        L = np.log(t)
        return (L - 1.0) / L**2

    def y2(t):
        L = np.log(t)
        return (2.0 - L) / (t * L**3)

    def F(x):
        x = np.asarray(x, dtype=float)
        return x[..., 1] - yfun(x[..., 0])

    def gradF(x):
        x = np.asarray(x, dtype=float)
        g = np.empty_like(x)
        g[..., 0] = -y1(x[..., 0])
        g[..., 1] = 1.0
        return g

    def hessF(x):
        x = np.asarray(x, dtype=float)
        h = np.zeros(x.shape + (2,))
        h[..., 0, 0] = -y2(x[..., 0])
        return h

    def chart(ts):
        ts = np.asarray(ts, dtype=float)
        return np.stack([ts, yfun(ts)], axis=-1)

    def h_exact(ts):
        ts = np.asarray(ts, dtype=float)
        L = np.log(ts)
        return (L - 2.0) / (ts * L**3) / (1.0 + y1(ts) ** 2) ** 1.5

    graph = Hypersurface(
        space,
        F,
        gradF,
        hessF,
        inward_sign=-1.0,
        chart=chart,
        chart_box=(x_min, x_max),
        h_exact=h_exact,
        label="log-graph",
    )

    axis = _plane_piece(space, 1, 0.0, 0, 1.0, (x_min, x_max), "x-axis")

    def contains(x):
        x = np.asarray(x, dtype=float)
        return (x[..., 0] > x_min) & (x[..., 1] > 0.0) & (x[..., 1] < yfun(x[..., 0]))

    return Fixture(
        name="log-graph",
        space=space,
        pieces=[graph, axis],
        contains=contains,
        distance=None,
        endpoints=None,
        params={"x_min": x_min, "x_max": x_max},
    )


def _revolution_fixture(t_min: float = 0.5, t_max: float = 0.95) -> Fixture:
    """Surface of revolution |y| = exp(1/(1-t)) in R^4, oriented toward the
    axis; mean-convex with curvature collapsing super-polynomially."""
    space = SpaceForm(4, 0.0)

    def prof(t):
        return np.exp(1.0 / (1.0 - t))

    def F(x):
        x = np.asarray(x, dtype=float)
        return np.sum(x[..., 1:] ** 2, axis=-1) - prof(x[..., 0]) ** 2

    def gradF(x):
        x = np.asarray(x, dtype=float)
        g = np.empty_like(x)
        f = prof(x[..., 0])
        L = 1.0 / (1.0 - x[..., 0])
        g[..., 0] = -2.0 * f * f * L * L  # -2 f f', f' = f L^2
        g[..., 1:] = 2.0 * x[..., 1:]
        return g

    def hessF(x):
        x = np.asarray(x, dtype=float)
        h = np.zeros(x.shape + (4,))
        f = prof(x[..., 0])
        L = 1.0 / (1.0 - x[..., 0])
        fp = f * L * L
        fpp = f * L**3 * (L + 2.0)
        h[..., 0, 0] = -2.0 * (fp * fp + f * fpp)
        for j in range(1, 4):
            h[..., j, j] = 2.0
        return h

    def chart(ts):
        ts = np.asarray(ts, dtype=float)
        pts = np.zeros(ts.shape + (4,))
        pts[..., 0] = ts
        pts[..., 1] = prof(ts)
        return pts

    def h_exact(ts):
        ts = np.asarray(ts, dtype=float)
        f = prof(ts)
        L = 1.0 / (1.0 - ts)
        return (2.0 + f * f * L**3 * (L - 2.0)) / (f * (1.0 + f * f * L**4) ** 1.5)

    trumpet = Hypersurface(
        space,
        F,
        gradF,
        hessF,
        inward_sign=-1.0,
        chart=chart,
        chart_box=(t_min, t_max),
        h_exact=h_exact,
        label="revolution",
    )

    def contains(x):
        x = np.asarray(x, dtype=float)
        t = x[..., 0]
        inside = np.sum(x[..., 1:] ** 2, axis=-1) < prof(np.minimum(t, t_max)) ** 2
        return inside & (t > t_min) & (t < t_max)

    return Fixture(
        name="revolution-r4",
        space=space,
        pieces=[trumpet],
        contains=contains,
        distance=None,
        endpoints=None,
        params={"t_min": t_min, "t_max": t_max},
    )


def example_fixture(name: str, **kwargs) -> Fixture:
    """Build a named boundary configuration.

    Names: "hyperbolic-equidistant" (a, dim), "poincare-circles" (a),
    "euclid-slab" (d, dim), "log-graph" (x_min, x_max),
    "revolution-r4" (t_min, t_max).
    """
    if name == "hyperbolic-equidistant":
        return _equidistant_fixture(kwargs.get("a", 1.0), kwargs.get("dim", 3))
    if name == "poincare-circles":
        fx = _equidistant_fixture(kwargs.get("a", 1.0), 2)
        fx.name = "poincare-circles"
        return fx
    if name == "euclid-slab":
        return _slab_fixture(kwargs.get("d", 1.0), kwargs.get("dim", 3))
    if name == "log-graph":
        return _log_graph_fixture(
            kwargs.get("x_min", 3.0), kwargs.get("x_max", 2.0e6)
        )
    if name == "revolution-r4":
        return _revolution_fixture(kwargs.get("t_min", 0.5), kwargs.get("t_max", 0.95))
    raise ValueError(f"unknown fixture {name!r}")


FIXTURE_NAMES = (
    "hyperbolic-equidistant",
    "poincare-circles",
    "euclid-slab",
    "log-graph",
    "revolution-r4",
)


# ---------------------------------------------------------------------------
# annulus infima
# ---------------------------------------------------------------------------


@dataclass
class InfimumResult:
    value: float
    param: float
    point: np.ndarray
    n_grid: int
    converged: bool


def infimum_over_annulus(
    piece: Hypersurface,
    r_lo: float,
    r_hi: float,
    n0: int = 512,
    rtol: float = 1e-8,
    max_doublings: int = 6,
) -> InfimumResult:
    """Infimum of the mean curvature over the part of the surface whose
    g-distance to the origin lies in (r_lo, r_hi).

    A dense distance table plus root bracketing on the two cut levels
    first locates the chart range meeting the annulus (a narrow annulus
    deep inside a wide chart box would otherwise slip between uniform
    grid points), then a doubling grid scan over that range runs until
    stable, refined locally around the best point and at the cuts.
    """
    if piece.chart is None or piece.chart_box is None:
        raise ValueError("annulus infimum needs a charted surface")
    space = piece.space
    origin = np.zeros(space.dim)
    a, b = piece.chart_box

    def dist_of(ts):
        return np.asarray(space.distance(origin, piece.chart_points(ts)))

    def h_of(ts):
        return np.asarray(piece.mean_curvature(piece.chart_points(ts)))

    ts_tab = np.linspace(a, b, 4097)
    d_tab = dist_of(ts_tab)
    cuts = []
    for level in (r_lo, r_hi):
        sgn = np.sign(d_tab - level)
        for i in np.nonzero(np.diff(sgn) != 0)[0]:
            try:
                cuts.append(
                    brentq(
                        lambda t: float(dist_of(np.array([t]))[0]) - level,
                        ts_tab[i],
                        ts_tab[i + 1],
                    )
                )
            except ValueError:
                continue
    inside = (d_tab > r_lo) & (d_tab < r_hi)
    seeds = [*ts_tab[inside], *cuts]
    if not seeds:
        raise ValueError("annulus does not meet the surface chart")
    pad = (b - a) / 4096.0
    a_s = max(a, min(seeds) - pad)
    b_s = min(b, max(seeds) + pad)

    def masked_min(n):
        ts = np.linspace(a_s, b_s, n)
        d = dist_of(ts)
        mask = (d > r_lo) & (d < r_hi)
        if not np.any(mask):
            return None, None
        h = h_of(ts[mask])
        k = int(np.argmin(h))
        return float(h[k]), float(ts[mask][k])

    prev, t_best = masked_min(n0)
    n = n0
    converged = False
    for _ in range(max_doublings):
        n *= 2
        cur, t_cur = masked_min(n)
        if cur is None:
            break
        if prev is not None and abs(cur - prev) <= rtol * max(abs(cur), 1e-300):
            prev, t_best = cur, t_cur
            converged = True
            break
        prev, t_best = cur, t_cur

    # candidate parameters: the grid best, a local bounded minimization
    # around it, and the annulus cut points themselves
    cands = []
    if prev is not None:
        cands.append((prev, t_best))
        h_step = (b_s - a_s) / n
        lo = max(a, t_best - 2 * h_step)
        hi = min(b, t_best + 2 * h_step)
        res = minimize_scalar(
            lambda t: float(h_of(np.array([t]))[0]), bounds=(lo, hi), method="bounded"
        )
        if res.success:
            t = float(res.x)
            if r_lo < float(dist_of(np.array([t]))[0]) < r_hi:
                cands.append((float(res.fun), t))
    for t_cut in cuts:
        eps = 1e-9 * max(1.0, abs(t_cut))
        for t in (t_cut - eps, t_cut + eps):
            if a <= t <= b and r_lo < float(dist_of(np.array([t]))[0]) < r_hi:
                cands.append((float(h_of(np.array([t]))[0]), t))
    if not cands:
        raise ValueError("annulus does not meet the surface chart")
    value, t_best = min(cands, key=lambda p: p[0])
    return InfimumResult(
        value=value,
        param=t_best,
        point=piece.chart_points(np.array([t_best]))[0],
        n_grid=n,
        converged=converged,
    )
