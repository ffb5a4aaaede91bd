"""Hypersurfaces in the ambient models, their mean curvature, and the worked
boundary configurations used throughout the estimate checks.

A surface is stored implicitly (F with analytic gradient and Hessian, plus a
sign picking the inward normal); mean curvature under the ambient metric
comes from the Euclidean divergence formula pushed through the conformal law.
Every surface also carries a one-parameter reduced chart (curvature and
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

from .conformal import mean_curvature_formula
from .fields import BallFactorField
from .spaceform import SpaceForm


_PROJECT_TOL = 1e-13  # relative |F| at which ``Hypersurface.project`` stops
_PROJECT_MAX_ITER = 60


class ProjectionError(RuntimeError):
    """Newton projection onto a surface did not converge."""


@dataclass
class Hypersurface:
    """Implicit hypersurface {F = 0} with a chosen inward side.

    inward_sign fixes orientation: the inward g-unit normal is the g-unit
    vector along inward_sign * gradF.
    chart/chart_box give a reduced one-parameter sampling of the surface,
    and h_exact its closed-form mean curvature along the chart.
    """

    space: SpaceForm
    F: Callable
    gradF: Callable
    hessF: Callable
    inward_sign: float
    chart: Callable
    chart_box: tuple
    h_exact: Callable
    label: str

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

    def project(self, x) -> np.ndarray:
        """Newton projection x -> x - F gradF / |gradF|^2 onto the surface,
        to |F| < _PROJECT_TOL max(1, |x|) within _PROJECT_MAX_ITER steps."""
        y = np.array(x, dtype=float, copy=True)
        scale = max(1.0, float(np.linalg.norm(y)))
        for _ in range(_PROJECT_MAX_ITER):
            f = float(self.F(y))
            if abs(f) < _PROJECT_TOL * scale:
                return y
            g = np.asarray(self.gradF(y), dtype=float)
            y = y - f * g / float(g @ g)
        raise ProjectionError("surface projection did not converge")

    def chart_points(self, ts) -> np.ndarray:
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


def geodesic_sphere(space: SpaceForm, R: float) -> Hypersurface:
    """Geodesic sphere about the origin with inward orientation."""
    if space.hyperbolic:
        s = np.tanh(0.5 * space.kappa * R)
    else:
        s = R
    H = sphere_mean_curvature(space, R)
    return _sphere_piece(space, np.zeros(space.dim), s, H, (0.0, 2.0 * np.pi), "sphere")


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
    distance: Optional[float] = None
    endpoints: Optional[np.ndarray] = None
    params: dict = field(default_factory=dict)


def _equidistant_fixture(a: float = 1.0, dim: int = 3) -> Fixture:
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

    ends = np.zeros((2, dim))
    ends[0, 0] = -b
    ends[1, 0] = b
    return Fixture(
        name="hyperbolic-equidistant",
        space=space,
        pieces=[piece1, piece2],
        distance=4.0 * np.arctanh(b),
        endpoints=ends,
        params={"a": a, "rho": rho, "H": H, "b": b},
    )


def _slab_fixture(d: float = 1.0, dim: int = 3) -> Fixture:
    """Parallel planes x0 = -+ d/2 in flat space; both totally geodesic."""
    if d <= 0:
        raise ValueError("slab width must be positive")
    space = SpaceForm(dim, 0.0)
    box = (-50.0 * d, 50.0 * d)
    piece1 = _plane_piece(space, 0, d / 2.0, 1, -1.0, box, "plane(+d/2)")
    piece2 = _plane_piece(space, 0, -d / 2.0, 1, 1.0, box, "plane(-d/2)")

    ends = np.zeros((2, dim))
    ends[0, 0] = -d / 2.0
    ends[1, 0] = d / 2.0
    return Fixture(
        name="euclid-slab",
        space=space,
        pieces=[piece1, piece2],
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
    if not 1.0 < x_min < x_max:
        raise ValueError("x_min and x_max must satisfy 1 < x_min < x_max")
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

    return Fixture(
        name="log-graph",
        space=space,
        pieces=[graph, axis],
        distance=None,
        endpoints=None,
        params={"x_min": x_min, "x_max": x_max},
    )


def _revolution_fixture(t_min: float = 0.5, t_max: float = 0.95) -> Fixture:
    """Surface of revolution |y| = exp(1/(1-t)) in R^4, oriented toward the
    axis; mean-convex with curvature collapsing super-polynomially."""
    if not t_min < t_max < 1.0:
        raise ValueError("t_min and t_max must satisfy t_min < t_max < 1")
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

    return Fixture(
        name="revolution-r4",
        space=space,
        pieces=[trumpet],
        distance=None,
        endpoints=None,
        params={"t_min": t_min, "t_max": t_max},
    )


def _poincare_fixture(a: float = 1.0) -> Fixture:
    """The equidistant pair in the Poincare disk (dim = 2)."""
    fx = _equidistant_fixture(a, 2)
    fx.name = "poincare-circles"
    return fx


# the builder of each named fixture; its signature holds the defaults
FIXTURES = {
    "hyperbolic-equidistant": _equidistant_fixture,
    "poincare-circles": _poincare_fixture,
    "euclid-slab": _slab_fixture,
    "log-graph": _log_graph_fixture,
    "revolution-r4": _revolution_fixture,
}


def example_fixture(name: str, **kwargs) -> Fixture:
    """Build a named boundary configuration; a keyword its builder does not
    take raises TypeError."""
    if name not in FIXTURES:
        raise ValueError(f"unknown fixture {name!r}")
    return FIXTURES[name](**kwargs)


# ---------------------------------------------------------------------------
# annulus infima
# ---------------------------------------------------------------------------


_MAX_STEPS = 100  # cap on the steps of each bisection and golden-section search
_GOLDEN = 0.5 * (3.0 - np.sqrt(5.0))


@dataclass
class InfimumResult:
    """See ``infima_over_annuli``; ``param`` is the chart parameter where
    the infimum sits, and ``missed`` is the chart bracket of the first search
    that hit the step cap, None when ``converged``."""

    value: float
    param: float
    n_grid: int
    converged: bool
    missed: Optional[tuple] = None


def _golden_section(f, a, x, b, fx):
    """Golden-section searches (Brent 1973, ch. 5) in lockstep, one from each
    bracket a < x < b with fx = f(x) below f(a) and f(b), each to a width of
    sqrt(eps) max(1, |x|). Every step evaluates f, which maps an array of
    points to their values, once on the searches still open. Returns the
    lowest f and its point for each search, and the list of brackets still
    open after _MAX_STEPS steps (None for a search that closed)."""
    a, x, b, fx = (np.array(v, dtype=float) for v in (a, x, b, fx))
    missed = [None] * x.size
    live = np.arange(x.size)
    for step in range(_MAX_STEPS + 1):
        ax = np.abs(x[live])  # max(1, |x|) as Python's max takes it, NaN to 1
        live = live[b[live] - a[live] > 1.5e-8 * np.where(ax > 1.0, ax, 1.0)]
        if step == _MAX_STEPS:
            for k in live:
                missed[k] = (float(a[k]), float(b[k]))
        if step == _MAX_STEPS or live.size == 0:
            return fx, x, missed
        ak, xk, bk, fk = a[live], x[live], b[live], fx[live]
        u = xk + _GOLDEN * np.where(bk - xk > xk - ak, bk - xk, ak - xk)
        fu = f(u)
        lower, right = fu < fk, u > xk
        # a lower u becomes x inside its half; otherwise u becomes an end
        a[live] = np.where(lower, np.where(right, xk, ak), np.where(right, ak, u))
        b[live] = np.where(lower, np.where(right, bk, xk), np.where(right, u, bk))
        x[live] = np.where(lower, u, xk)
        fx[live] = np.where(lower, fu, fk)


def _union(a, b):
    """np.union1d of two 1-D arrays of finite floats, not both empty, to the
    bit, without the masked-array test in np.unique that loads numpy.ma."""
    ts = np.sort(np.concatenate([a, b]))
    return ts[np.concatenate([[True], ts[1:] != ts[:-1]])]


def infima_over_annuli(piece: Hypersurface, r_lo, r_hi) -> List[Optional[InfimumResult]]:
    """Infimum of the mean curvature over the part of the surface whose
    g-distance to the origin lies in the open annulus (r_lo[k], r_hi[k]), for
    every k; None for an annulus that does not meet the surface chart.

    A 4097-point distance table over the chart box brackets the cuts, and
    one vectorized bisection finds their roots. The infimum is the lowest of
    h at a root (its limit over the open annulus), at a chart-box end in the
    annulus, or at an interior point of a 513-point table over the chart
    range that meets the annulus, refined by golden section between its
    neighbours when it is a strict local minimum there. ``n_grid`` is the
    size of that table with the roots; ``converged`` says every bisection
    and golden-section bracket reached its tolerance within _MAX_STEPS.

    The annuli share the work: one distance table, one bisection loop over
    all their cut roots, one distance and one mean-curvature call for all
    their local tables, and one lockstep golden-section run. Each annulus
    gets the bits it would get alone. Its cuts stop at the step where none
    of them is still wide, which is where a bisection of that annulus alone
    stops; the golden-section searches keep a bracket each; and distance
    and mean curvature act point by point, so the other points of a batch
    do not change a point's value.
    """
    r_lo = np.atleast_1d(np.asarray(r_lo, dtype=float))
    r_hi = np.atleast_1d(np.asarray(r_hi, dtype=float))
    origin = np.zeros(piece.space.dim)

    def dist_of(ts):
        return np.asarray(piece.space.distance(origin, piece.chart_points(ts)))

    def h_of(ts):
        return np.asarray(piece.mean_curvature(piece.chart_points(ts)))

    ts_tab = np.linspace(*piece.chart_box, 4097)
    d_tab = dist_of(ts_tab)
    # levels r_lo[0], r_hi[0], r_lo[1], ...; the annulus lies above r_lo, below r_hi
    levels = np.stack([r_lo, r_hi], axis=1).ravel()
    annulus_above = np.tile([True, False], r_lo.size)
    above = d_tab > levels[:, None]
    lev, i = np.nonzero(above[:, :-1] != above[:, 1:])
    ann, level, keep = lev // 2, levels[lev], annulus_above[lev]
    right = (above[lev, i + 1] == keep).astype(int)
    t_in, t_out = ts_tab[i + right], ts_tab[i + 1 - right]
    # t_in stays on the annulus side; stop at brentq's default tolerance
    for step in range(_MAX_STEPS + 1):
        wide = np.abs(t_out - t_in) > 2e-12 + 8.9e-16 * np.abs(t_in)
        live = np.zeros(r_lo.size, dtype=bool)
        live[ann[wide]] = True
        moving = live[ann]  # every cut of an annulus with a wide cut
        if step == _MAX_STEPS or not moving.any():
            break
        mid = 0.5 * (t_in[moving] + t_out[moving])
        side = (dist_of(mid) > level[moving]) == keep[moving]
        t_in[moving] = np.where(side, mid, t_in[moving])
        t_out[moving] = np.where(side, t_out[moving], mid)

    inside = (d_tab > r_lo[:, None]) & (d_tab < r_hi[:, None])
    cuts, tables, missed = [], [], []
    for k in range(r_lo.size):
        mine = ann == k
        cuts.append(t_in[mine])
        seeds = np.concatenate([ts_tab[inside[k]], cuts[k]])
        tables.append(_union(np.linspace(seeds.min(), seeds.max(), 513), cuts[k])
                      if seeds.size else np.empty(0))
        j = np.flatnonzero(wide[mine])
        missed.append(tuple(sorted((float(cuts[k][j[0]]), float(t_out[mine][j[0]]))))
                      if j.size else None)
    ends = np.cumsum([t.size for t in tables])[:-1]
    ts_all = np.concatenate([np.empty(0)] + tables)
    d_all = np.split(dist_of(ts_all), ends)
    h_all = np.split(h_of(ts_all), ends)

    best, brackets = [], []
    for k, ts in enumerate(tables):
        if ts.size == 0:
            best.append(None)
            continue
        is_cut = np.isin(ts, cuts[k])
        ok = is_cut | ((d_all[k] > r_lo[k]) & (d_all[k] < r_hi[k]))
        h = np.where(ok, h_all[k], np.inf)
        j = int(np.argmin(h))
        best.append((float(h[j]), float(ts[j])))
        if not is_cut[j] and 0 < j < ts.size - 1 and ok[j - 1] and ok[j + 1] \
                and h[j] < min(h[j - 1], h[j + 1]):
            brackets.append((k, ts[j - 1], ts[j], ts[j + 1], h[j]))
    if brackets:
        ks, a, x, b, fx = zip(*brackets)
        fx, x, missed_min = _golden_section(h_of, a, x, b, fx)
        for n, k in enumerate(ks):
            best[k] = (float(fx[n]), float(x[n]))
            missed[k] = missed[k] or missed_min[n]

    return [None if b is None else InfimumResult(
        value=b[0],
        param=b[1],
        n_grid=int(ts.size),
        converged=m is None,
        missed=m,
    ) for b, ts, m in zip(best, tables, missed)]
