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

from typing import Callable, List, Optional

import numpy as np

from .conformal import mean_curvature_formula
from .fields import BallFactorField
from .spaceform import SpaceForm


_PROJECT_TOL = 1e-13  # relative |F| at which ``Hypersurface.project`` stops
_PROJECT_MAX_ITER = 60


class ProjectionError(RuntimeError):
    """Newton projection onto a surface did not converge."""


class Hypersurface:
    """Implicit hypersurface {F = 0} with a chosen inward side.

    inward_sign fixes orientation: the inward g-unit normal is the g-unit
    vector along inward_sign * gradF.
    chart/chart_box give a reduced one-parameter sampling of the surface,
    and h_exact its closed-form mean curvature along the chart.
    """

    def __init__(self, space: SpaceForm, F: Callable, gradF: Callable, hessF: Callable,
                 inward_sign: float, chart: Callable, chart_box: tuple, h_exact: Callable,
                 label: str):
        self.space = space
        self.F = F
        self.gradF = gradF
        self.hessF = hessF
        self.inward_sign = inward_sign
        self.chart = chart
        self.chart_box = chart_box
        self.h_exact = h_exact
        self.label = label

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


class Fixture:
    """Boundary pieces enclosing a region, with known exact data.

    For a pair of pieces at a known distance, ``distance`` is that distance
    and ``endpoints`` the ends of a shortest segment between them; both are
    None otherwise. ``name`` is the fixture's key in ``FIXTURES``, set by
    ``example_fixture``. The builder's arguments, the pieces' charts and
    their ``h_exact`` hold the rest of the fixture's data."""

    def __init__(self, space: SpaceForm, pieces: List[Hypersurface],
                 distance: Optional[float] = None, endpoints: Optional[np.ndarray] = None):
        self.space = space
        self.pieces = pieces
        self.distance = distance
        self.endpoints = endpoints
        self.name = ""


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
    return Fixture(space, [piece1, piece2], distance=4.0 * np.arctanh(b), endpoints=ends)


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
    return Fixture(space, [piece1, piece2], distance=d, endpoints=ends)


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

    return Fixture(space, [graph, axis])


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

    return Fixture(space, [trumpet])


def _poincare_fixture(a: float = 1.0) -> Fixture:
    """The equidistant pair in the Poincare disk (dim = 2)."""
    return _equidistant_fixture(a, 2)


# the builder of each named fixture; its signature holds the defaults
FIXTURES = {
    "hyperbolic-equidistant": _equidistant_fixture,
    "poincare-circles": _poincare_fixture,
    "euclid-slab": _slab_fixture,
    "log-graph": _log_graph_fixture,
    "revolution-r4": _revolution_fixture,
}


def example_fixture(name: str, **kwargs) -> Fixture:
    """Build a named boundary configuration and give it its name; a keyword
    its builder does not take raises TypeError."""
    if name not in FIXTURES:
        raise ValueError(f"unknown fixture {name!r}")
    fx = FIXTURES[name](**kwargs)
    fx.name = name
    return fx


# ---------------------------------------------------------------------------
# annulus infima
# ---------------------------------------------------------------------------


_MAX_STEPS = 100  # cap on the steps of the cut bisection
_CHUNK = 2048  # chart points per distance or mean-curvature evaluation
_GROUP = 8  # annuli whose local tables (about 520 points each) are held at once


class InfimumResult:
    """See ``infima_over_annuli``; ``param`` is the chart parameter where
    the infimum sits (a cut root or a table point), and ``missed`` is the
    chart bracket of the first cut bisection that hit the step cap, None
    when ``converged``."""

    def __init__(self, value: float, param: float, n_grid: int, converged: bool,
                 missed: Optional[tuple]):
        self.value = value
        self.param = param
        self.n_grid = n_grid
        self.converged = converged
        self.missed = missed


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
    annulus, or at a point of a 513-point table over the chart range that
    meets the annulus. An interior minimum is the table's, unrefined: it is
    h at a point of the piece, so it is never below the true infimum, and
    where h is smooth it lies above it by O(s^2) for the table spacing s.
    ``n_grid`` is the size of that table with the roots; ``converged`` says
    every cut bisection reached its tolerance within _MAX_STEPS.

    The annuli share the work: one distance table and one bisection loop
    over all their cut roots. Their local tables are built, evaluated and
    judged _GROUP annuli at a time, each group in one pass of distance and
    then one of mean curvature at only the points that count (the cuts and
    the points strictly inside), and dropped before the next group, so the
    tables held at once do not grow with the number of annuli. Each annulus
    gets the bits it would get alone. Its cuts stop at the step where none
    of them is still wide, which is where a bisection of that annulus alone
    stops, and distance and mean curvature act point by point, so the other
    points of a batch do not change a point's value. So every pass
    evaluates its chart points in chunks of _CHUNK, which bounds the working
    set and changes no bit.
    """
    r_lo = np.atleast_1d(np.asarray(r_lo, dtype=float))
    r_hi = np.atleast_1d(np.asarray(r_hi, dtype=float))
    origin = np.zeros(piece.space.dim)

    def in_chunks(f, ts):
        return np.concatenate([np.empty(0)] + [f(ts[i:i + _CHUNK])
                                               for i in range(0, ts.size, _CHUNK)])

    def dist_of(ts):
        return in_chunks(lambda t: piece.space.distance(origin, piece.chart_points(t)), ts)

    def h_of(ts):
        return in_chunks(lambda t: piece.mean_curvature(piece.chart_points(t)), ts)

    ts_tab = np.linspace(*piece.chart_box, 4097)
    d_tab = dist_of(ts_tab)
    # levels r_lo[0], r_hi[0], r_lo[1], ...; the annulus lies above r_lo, below r_hi
    levels = np.stack([r_lo, r_hi], axis=1).ravel()
    # table intervals that cross a level, one level at a time, in level order
    i = [np.flatnonzero(np.diff(d_tab > level)) for level in levels]
    lev = np.repeat(np.arange(levels.size), [c.size for c in i])
    i = np.concatenate(i)
    ann, level, keep = lev // 2, levels[lev], lev % 2 == 0
    right = ((d_tab[i + 1] > level) == keep).astype(int)
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

    cuts, missed = [], []
    for k in range(r_lo.size):
        mine = ann == k
        cuts.append(t_in[mine])
        j = np.flatnonzero(wide[mine])
        missed.append(tuple(sorted((float(cuts[k][j[0]]), float(t_out[mine][j[0]]))))
                      if j.size else None)

    # the local tables of _GROUP annuli at a time: built, evaluated, judged, dropped
    best, sizes = [], []
    for first in range(0, r_lo.size, _GROUP):
        group = range(first, min(first + _GROUP, r_lo.size))
        tables = []
        for k in group:
            inside = (d_tab > r_lo[k]) & (d_tab < r_hi[k])
            seeds = np.concatenate([ts_tab[inside], cuts[k]])
            tables.append(_union(np.linspace(seeds.min(), seeds.max(), 513), cuts[k])
                          if seeds.size else np.empty(0))
        ends = np.cumsum([t.size for t in tables])[:-1]
        ts_all = np.concatenate([np.empty(0)] + tables)
        d_all = np.split(dist_of(ts_all), ends)
        # mean curvature only where it counts: at a cut or strictly inside
        ok = np.concatenate([np.isin(ts, cuts[k]) | ((d > r_lo[k]) & (d < r_hi[k]))
                             for k, ts, d in zip(group, tables, d_all)])
        h_all = np.full(ts_all.size, np.inf)
        h_all[ok] = h_of(ts_all[ok])
        for ts, h in zip(tables, np.split(h_all, ends)):
            sizes.append(ts.size)
            if ts.size == 0:
                best.append(None)
                continue
            j = int(np.argmin(h))
            best.append((float(h[j]), float(ts[j])))

    return [None if b is None else InfimumResult(
        value=b[0],
        param=b[1],
        n_grid=int(size),
        converged=m is None,
        missed=m,
    ) for b, size, m in zip(best, sizes, missed)]
