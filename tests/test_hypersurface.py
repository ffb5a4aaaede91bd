"""Implicit surfaces, mean curvature under both ambients, the named boundary
configurations, and annulus infima."""

import numpy as np
import pytest

from curvlab import fdcheck, hypersurface
from curvlab.hypersurface import (
    FIXTURES,
    InfimumResult,
    example_fixture,
    geodesic_sphere,
    infima_over_annuli,
    sphere_mean_curvature,
)
from curvlab.spaceform import SpaceForm


# ---------------------------------------------------------------------------
# spheres
# ---------------------------------------------------------------------------


def test_sphere_mean_curvature_closed_forms():
    assert np.isclose(sphere_mean_curvature(SpaceForm(3, 0.0), 2.0), 1.0)
    space = SpaceForm(3, 1.0)
    for R in (0.3, 1.0, 4.0):
        expected = 2.0 / np.tanh(R)
        assert np.isclose(sphere_mean_curvature(space, R), expected, rtol=1e-14)
    # kappa scaling and the large-radius limit n kappa
    space2 = SpaceForm(4, 2.0)
    assert np.isclose(sphere_mean_curvature(space2, 30.0), 3 * 2.0, rtol=1e-12)
    with pytest.raises(ValueError):
        sphere_mean_curvature(space, -1.0)


@pytest.mark.parametrize("kappa", [0.0, 1.0])
def test_geodesic_sphere_implicit_pipeline(kappa):
    space = SpaceForm(3, kappa)
    R = 1.1 if kappa else 2.3
    sph = geodesic_sphere(space, R)
    H = sphere_mean_curvature(space, R)
    ts = np.linspace(0.1, 5.9, 7)
    pts = sph.chart_points(ts)
    assert np.allclose(sph.F(pts), 0.0, atol=1e-14)
    assert np.allclose(sph.mean_curvature(pts), H, rtol=1e-12)
    assert np.allclose(sph.h_exact(ts), H)
    # inward normal points toward the origin and is a g-unit vector
    nu = sph.normal(pts)
    assert np.all(np.sum(nu * (-pts), axis=-1) > 0)
    assert np.allclose(space.norm(pts, nu), 1.0, rtol=1e-13)


def test_sphere_projection():
    space = SpaceForm(3, 0.0)
    sph = geodesic_sphere(space, 2.0)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.normal(size=3) * 2.5 + 0.1
        y = sph.project(x)
        assert abs(float(sph.F(y))) < 1e-11


# ---------------------------------------------------------------------------
# equidistant spheres in the ball
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_equidistant_fixture_constant_curvature(dim, a):
    fx = example_fixture("hyperbolic-equidistant", a=a, dim=dim)
    H = (dim - 1) / np.sqrt(1.0 + a * a)
    for piece in fx.pieces:
        t0, t1 = piece.chart_box
        ts = np.linspace(t0 + 0.01, t1 - 0.01, 9)
        pts = piece.chart_points(ts)
        assert np.all(np.sum(pts * pts, axis=-1) < 1.0)
        assert np.allclose(piece.mean_curvature(pts), H, rtol=1e-11)
        assert np.allclose(piece.h_exact(ts), H)


def test_equidistant_fixture_sharpness_identity():
    """Curvature sum equals 2 n tanh(d/2) exactly along the family: the
    equality case of the curvature-sum bound."""
    for a in (0.4, 1.0, 3.0):
        for dim in (2, 3, 4):
            fx = example_fixture("hyperbolic-equidistant", a=a, dim=dim)
            n = dim - 1
            rho = np.sqrt(1.0 + a * a)
            H = n / rho
            assert np.isclose(np.tanh(fx.distance / 2.0), 1.0 / rho, rtol=1e-14)
            assert np.isclose(2.0 * H, 2.0 * n * np.tanh(fx.distance / 2.0), rtol=1e-14)


def test_equidistant_fixture_geometry():
    fx = example_fixture("hyperbolic-equidistant", a=1.0, dim=3)
    b = np.sqrt(2.0) - 1.0  # rho - a
    assert np.isclose(fx.distance, 4.0 * np.arctanh(b), rtol=1e-14)
    assert np.allclose(fx.endpoints, [[-b, 0.0, 0.0], [b, 0.0, 0.0]], rtol=1e-14, atol=0.0)
    # endpoints sit on their pieces, on the axis, and the inward normals
    # there are axis-aligned (the axis meets both pieces orthogonally)
    for i, piece in enumerate(fx.pieces):
        p = fx.endpoints[i]
        assert abs(float(piece.F(p))) < 1e-14
        nu = piece.euclid_unit_normal(p)
        expected = np.zeros(3)
        expected[0] = 1.0 if i == 0 else -1.0
        assert np.allclose(nu, expected, atol=1e-14)


def test_poincare_circles_alias():
    fx = example_fixture("poincare-circles", a=0.8)
    assert fx.space.dim == 2
    assert fx.name == "poincare-circles"
    H = 1.0 / np.sqrt(1.64)
    ts = np.linspace(*fx.pieces[0].chart_box, 11)[1:-1]
    assert np.allclose(fx.pieces[0].mean_curvature(fx.pieces[0].chart_points(ts)), H, rtol=1e-11)


def test_equidistant_curvature_against_parametric_fd():
    """Offset sphere in the ball metric: implicit-plus-conformal pipeline vs
    the fundamental-form oracle."""
    a = 1.0
    fx = example_fixture("poincare-circles", a=a)
    piece = fx.pieces[0]
    rho = np.sqrt(1.0 + a * a)
    c = np.array([a, 0.0])

    def metric(x):
        w = 0.5 * (1.0 - np.sum(x * x, axis=-1))
        return np.eye(2) / (w**2)[..., None, None]

    chart = lambda th: c + rho * np.array([np.cos(th[0]), np.sin(th[0])])
    dchart = lambda th: rho * np.array([[-np.sin(th[0])], [np.cos(th[0])]])
    d2chart = lambda th: rho * np.array([[[-np.cos(th[0]), -np.sin(th[0])]]])
    for ang in (np.pi - 0.3, np.pi, np.pi + 0.5):
        th = np.array([ang])
        x = chart(th)
        H_fd, _ = fdcheck.parametric_mean_curvature(
            metric, chart, dchart, d2chart, th, inward_ref=c - x
        )
        assert np.isclose(float(piece.mean_curvature(x)), H_fd, rtol=1e-5)
        assert np.isclose(H_fd, 1.0 / rho, rtol=1e-5)  # (dim - 1) / rho


# ---------------------------------------------------------------------------
# slab
# ---------------------------------------------------------------------------


def test_slab_fixture():
    fx = example_fixture("euclid-slab", d=1.6, dim=3)
    assert fx.distance == 1.6
    for piece in fx.pieces:
        pts = piece.chart_points(np.linspace(-2.0, 2.0, 9))
        assert np.allclose(piece.mean_curvature(pts), 0.0, atol=1e-14)
    assert np.allclose(fx.endpoints[0], [-0.8, 0.0, 0.0])
    # inward normals face each other
    assert np.allclose(fx.pieces[0].normal(fx.endpoints[1]), [-1.0, 0.0, 0.0])
    assert np.allclose(fx.pieces[1].normal(fx.endpoints[0]), [1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# log graph
# ---------------------------------------------------------------------------


def test_log_graph_curvature_formulas_agree():
    fx = example_fixture("log-graph")
    graph = fx.pieces[0]
    xs = np.geomspace(10.0, 1.0e6, 40)
    pts = graph.chart_points(xs)
    assert np.allclose(graph.mean_curvature(pts), graph.h_exact(xs), rtol=1e-10)
    # positive past x = e^2, negative before
    assert float(graph.h_exact(np.array([5.0]))[0]) < 0.0
    assert np.all(graph.h_exact(np.geomspace(8.0, 1e6, 50)) > 0.0)
    # the flat bottom piece
    axis = fx.pieces[1]
    assert np.allclose(axis.mean_curvature(axis.chart_points(xs)), 0.0, atol=1e-15)


def test_log_graph_curvature_against_parametric_fd():
    fx = example_fixture("log-graph")
    graph = fx.pieces[0]
    metric = lambda x: np.broadcast_to(np.eye(2), np.shape(x)[:-1] + (2, 2))
    yfun = lambda t: t / np.log(t)
    chart = lambda th: np.array([th[0], yfun(th[0])])
    L = lambda t: np.log(t)
    dchart = lambda th: np.array([[1.0], [(L(th[0]) - 1.0) / L(th[0]) ** 2]])
    d2chart = lambda th: np.array([[[0.0, (2.0 - L(th[0])) / (th[0] * L(th[0]) ** 3)]]])
    for x0 in (20.0, 55.0):
        th = np.array([x0])
        H_fd, _ = fdcheck.parametric_mean_curvature(
            metric, chart, dchart, d2chart, th, inward_ref=np.array([0.0, -1.0])
        )
        assert np.isclose(float(graph.h_exact(np.array([x0]))[0]), H_fd, rtol=1e-5)


def test_log_graph_normalized_decay_actual_values():
    """x H(x) log(x)^2 = (1 - 2/log x)(1 + y'^2)^{-3/2}: it increases toward
    1 from below and sits near 0.74-0.83 across e^8..e^12."""
    fx = example_fixture("log-graph", x_max=1e40)
    graph = fx.pieces[0]
    xs = np.exp(np.linspace(8.0, 12.0, 33))
    vals = graph.h_exact(xs) * xs * np.log(xs) ** 2
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(vals < 1.0)
    assert np.all(vals > 0.7)
    assert np.isclose(vals[0], 0.73674, atol=2e-5)
    assert np.isclose(vals[-1], 0.82609, atol=2e-5)


def test_log_graph_normalized_decay_window_bracket():
    """The normalized decay x H log^2 x over e^8..e^12 tends to a limit in
    the [0.8, 1.2] window, approaching it like 1 - 2/log x.

    The closed form (1 - 2/log x)(1 + y'^2)^{-3/2} stays below 0.8 on most
    of the range, so the window applies to the limit, not to the values: a
    least-squares fit vals ~ a + b/log x must give a in [0.8, 1.2] and b
    within 10% of -2.  The companion test pins the values themselves.
    """
    fx = example_fixture("log-graph", x_max=1e40)
    graph = fx.pieces[0]
    xs = np.exp(np.linspace(8.0, 12.0, 33))
    vals = graph.h_exact(xs) * xs * np.log(xs) ** 2
    rate, limit = np.polyfit(1.0 / np.log(xs), vals, 1)
    assert 0.8 <= limit <= 1.2, f"fitted limit {limit:.4f}"
    assert abs(rate + 2.0) <= 0.2, f"fitted rate {rate:.4f} vs -2"


def test_log_graph_projection():
    fx = example_fixture("log-graph")
    graph = fx.pieces[0]
    y = graph.project(np.array([100.0, 30.0]))
    assert abs(float(graph.F(y))) < 1e-10


# ---------------------------------------------------------------------------
# revolution surface in R^4
# ---------------------------------------------------------------------------


def test_revolution_curvature_formula_identity():
    """The closed form equals the generic profile formula
    (2(1+h'^2) - h h'') / (h (1+h'^2)^{3/2}) on the whole range."""
    fx = example_fixture("revolution-r4")
    trumpet = fx.pieces[0]
    ts = np.linspace(0.5, 0.95, 200)
    h = np.exp(1.0 / (1.0 - ts))
    L = 1.0 / (1.0 - ts)
    hp = h * L**2
    hpp = h * L**3 * (L + 2.0)
    generic = (2.0 * (1.0 + hp**2) - h * hpp) / (h * (1.0 + hp**2) ** 1.5)
    assert np.allclose(trumpet.h_exact(ts), generic, rtol=1e-12)


def test_revolution_curvature_values():
    fx = example_fixture("revolution-r4")
    trumpet = fx.pieces[0]
    ts = np.linspace(0.5, 0.95, 300)
    vals = trumpet.h_exact(ts)
    assert np.all(vals > 0.0)  # mean-convex throughout
    v0 = float(trumpet.h_exact(np.array([0.5]))[0])
    assert np.isclose(v0, 2.0 / (np.e**2 * (1.0 + 16.0 * np.e**4) ** 1.5), rtol=1e-13)
    # curvature collapses super-polynomially along the flare
    assert float(trumpet.h_exact(np.array([0.95]))[0]) < 1e-15
    # implicit pipeline agrees with the closed form, including huge radii
    pts = trumpet.chart_points(ts)
    assert np.allclose(trumpet.mean_curvature(pts), vals, rtol=1e-9)


def test_revolution_curvature_against_parametric_fd():
    fx = example_fixture("revolution-r4")
    trumpet = fx.pieces[0]
    prof = lambda t: np.exp(1.0 / (1.0 - t))
    dprof = lambda t: prof(t) / (1.0 - t) ** 2

    def omega(a, b):
        return np.array([np.cos(a), np.sin(a) * np.cos(b), np.sin(a) * np.sin(b)])

    def chart(th):
        t, a, b = th
        return np.concatenate([[t], prof(t) * omega(a, b)])

    def dchart(th):
        t, a, b = th
        f, fp = prof(t), dprof(t)
        om = omega(a, b)
        d_a = np.array([-np.sin(a), np.cos(a) * np.cos(b), np.cos(a) * np.sin(b)])
        d_b = np.array([0.0, -np.sin(a) * np.sin(b), np.sin(a) * np.cos(b)])
        cols = np.zeros((4, 3))
        cols[0, 0] = 1.0
        cols[1:, 0] = fp * om
        cols[1:, 1] = f * d_a
        cols[1:, 2] = f * d_b
        return cols

    def d2chart(th):
        h = 1e-6
        out = np.zeros((3, 3, 4))
        for i in range(3):
            for j in range(3):
                ei = np.zeros(3)
                ej = np.zeros(3)
                ei[i] = h
                ej[j] = h
                out[i, j] = (
                    chart(th + ei + ej)
                    - chart(th + ei - ej)
                    - chart(th - ei + ej)
                    + chart(th - ei - ej)
                ) / (4.0 * h * h)
        return out

    metric = lambda x: np.broadcast_to(np.eye(4), np.shape(x)[:-1] + (4, 4))
    t0 = 0.55
    th = np.array([t0, 1.1, 0.7])
    x = chart(th)
    inward = np.concatenate([[0.0], -x[1:]])
    H_fd, _ = fdcheck.parametric_mean_curvature(metric, chart, dchart, d2chart, th, inward)
    assert np.isclose(H_fd, float(trumpet.h_exact(np.array([t0]))[0]), rtol=1e-4)
    assert np.isclose(H_fd, float(trumpet.mean_curvature(x)), rtol=1e-4)


def test_fixture_names_cover_registry():
    for name in FIXTURES:
        fx = example_fixture(name)
        assert fx.name == name
        assert fx.pieces
    with pytest.raises(ValueError):
        example_fixture("klein-bottle")


def test_fixture_rejects_parameters_it_does_not_take():
    assert example_fixture("euclid-slab", d=1.5, dim=2).distance == 1.5
    with pytest.raises(TypeError, match="'x_min'"):
        example_fixture("euclid-slab", x_min=7.0)
    with pytest.raises(TypeError, match="'dim'"):
        example_fixture("poincare-circles", dim=3)


@pytest.mark.parametrize("name, kwargs", [
    ("log-graph", {"x_min": 10.0, "x_max": 5.0}),
    ("log-graph", {"x_min": 1.0}),
    ("revolution-r4", {"t_min": 0.9, "t_max": 0.8}),
    ("revolution-r4", {"t_max": 1.0}),
])
def test_fixture_rejects_an_empty_or_singular_chart(name, kwargs):
    with pytest.raises(ValueError, match="must satisfy"):
        example_fixture(name, **kwargs)


# ---------------------------------------------------------------------------
# annulus infima
# ---------------------------------------------------------------------------


def _point(piece, res):
    """The surface point of an infimum, from its chart parameter."""
    return piece.chart_points(np.array([res.param]))[0]


def test_annulus_infimum_constant_sphere():
    space = SpaceForm(3, 0.0)
    sph = geodesic_sphere(space, 2.0)
    [res] = infima_over_annuli(sph, 1.0, 3.0)
    assert np.isclose(res.value, 1.0, rtol=1e-10)
    assert res.converged
    assert infima_over_annuli(sph, 3.0, 4.0) == [None]


def test_annulus_infimum_log_graph_matches_direct_scan():
    fx = example_fixture("log-graph", x_max=1e5)
    graph = fx.pieces[0]
    R = np.exp(4.0) * 3.0
    [res] = infima_over_annuli(graph, R / 3.0, R)
    # direct oracle: fine grid over the chart plus the exact annulus cut
    # (curvature decreases in x, so the infimum sits where |p| reaches R)
    from scipy.optimize import brentq

    xs = np.linspace(3.0, 1e5, 400_001)
    pts = graph.chart_points(xs)
    d = np.linalg.norm(pts, axis=1)
    mask = (d > R / 3.0) & (d < R)
    x_cut = brentq(
        lambda x: np.linalg.norm(graph.chart_points(np.array([x]))[0]) - R, 3.0, 1e5
    )
    cut_val = float(graph.mean_curvature(graph.chart_points(np.array([x_cut - 1e-9])))[0])
    direct = min(float(np.min(graph.mean_curvature(pts[mask]))), cut_val)
    assert np.isclose(res.value, direct, rtol=1e-6)
    dist = float(np.linalg.norm(_point(graph, res)))
    assert R / 3.0 <= dist <= R


def test_annulus_infimum_log_graph_equals_exact_cut_value():
    from scipy.optimize import brentq

    graph = example_fixture("log-graph").pieces[0]
    R = np.exp(7.0)
    [res] = infima_over_annuli(graph, R / 3.0, R)
    # curvature decreases in x, so the infimum is the limit at the outer cut
    x_cut = brentq(lambda x: np.linalg.norm(graph.chart_points(np.array([x]))[0]) - R, 3.0, 2e6)
    oracle = float(graph.h_exact(np.array([x_cut]))[0])
    assert abs(res.value - oracle) <= 1e-12 * oracle
    assert res.converged


def test_annulus_infimum_revolution_takes_the_cut_value():
    trumpet = example_fixture("revolution-r4").pieces[0]
    for R in np.exp([4.0, 7.0, 10.0]):
        [res] = infima_over_annuli(trumpet, R / 3.0, R)
        point = _point(trumpet, res)
        assert R * (1.0 - 1e-9) <= np.linalg.norm(point) <= R
        assert res.value == float(trumpet.mean_curvature(point[None])[0])
        assert res.converged


def test_annulus_infimum_work_guard(monkeypatch):
    """One pass: the distance table, the cut bisection and one local table."""
    graph = example_fixture("log-graph").pieces[0]
    distance = SpaceForm.distance
    points = []

    def counting(self, p, q):
        d = distance(self, p, q)
        points.append(np.size(d))
        return d

    monkeypatch.setattr(SpaceForm, "distance", counting)
    R = np.exp(10.0)
    [res] = infima_over_annuli(graph, R / 3.0, R)
    assert sum(points) <= 8000
    assert res.converged


def test_annulus_infimum_two_intervals_hyperbolic_arc():
    fx = example_fixture("hyperbolic-equidistant", a=1.0, dim=3)
    piece = fx.pieces[0]
    r_lo, r_hi = 16.0 / 3.0, 16.0
    origin = np.zeros(3)
    ts = np.linspace(*piece.chart_box, 100_001)
    d = fx.space.distance(origin, piece.chart_points(ts))
    inside = (d > r_lo) & (d < r_hi)
    assert np.count_nonzero(np.diff(inside.astype(int)) == 1) == 2  # two intervals
    [res] = infima_over_annuli(piece, r_lo, r_hi)
    assert res.converged
    assert np.isclose(res.value, 2.0 / np.sqrt(2.0), rtol=1e-12)  # (dim - 1) / rho
    assert r_lo <= float(fx.space.distance(origin, _point(piece, res))) <= r_hi


def _ellipse(t_lo, t_hi):
    """The flat ellipse x^2/4 + y^2 = 1 (a = 2, b = 1), charted by the angle
    t at (2 cos t, sin t) over (t_lo, t_hi); h = 2 / (1 + 3 sin^2 t)^(3/2)."""
    return hypersurface.Hypersurface(
        space=SpaceForm(2, 0.0),
        F=lambda x: x[..., 0] ** 2 / 4.0 + x[..., 1] ** 2 - 1.0,
        gradF=lambda x: np.stack([x[..., 0] / 2.0, 2.0 * x[..., 1]], axis=-1),
        hessF=lambda x: np.broadcast_to(np.diag([0.5, 2.0]), np.shape(x) + (2,)),
        inward_sign=-1.0,
        chart=lambda t: np.stack([2.0 * np.cos(t), np.sin(t)], axis=-1),
        chart_box=(t_lo, t_hi),
        h_exact=lambda t: 2.0 / (1.0 + 3.0 * np.sin(t) ** 2) ** 1.5,
        label="ellipse",
    )


def test_annulus_infimum_interior_minimum_is_the_table_minimum():
    """An interior minimum is the lowest point of the local table, unrefined.
    On the ellipse the infimum over the annulus (0.5, 1.5) is b/a^2 = 1/4 at
    the minor vertex t = pi/2, where h = 1/4 + (9/32) (t - pi/2)^2 + O((t - pi/2)^4).
    The chart box starts at t = 1, inside the annulus, so the local table
    runs from there to the cut, and no table point lands on pi/2. The result
    is never below 1/4, and above it by at most (9/32) (s/2)^2 for the table
    spacing s."""
    piece = _ellipse(1.0, 2.8)
    [res] = infima_over_annuli(piece, 0.5, 1.5)
    assert res.converged
    want = _infimum_reference(piece, 0.5, 1.5)
    assert (res.value, res.param, res.n_grid) == (want.value, want.param, want.n_grid)
    t_cut = np.pi - np.arccos(np.sqrt(5.0 / 12.0))  # where |(2 cos t, sin t)| = 1.5
    s = (t_cut - 1.0) / 512
    assert 0.1 * s < abs(res.param - np.pi / 2) <= 0.5 * s * (1.0 + 1e-9)
    h = piece.mean_curvature(piece.chart_points(res.param + np.array([-s, 0.0, s])))
    assert h[1] == res.value and min(h[0], h[2]) > res.value
    assert res.value >= 0.25 * (1.0 - 4 * np.finfo(float).eps)
    assert res.value - 0.25 <= 9.0 / 32.0 * (s / 2) ** 2 * 1.01


def _infimum_reference(piece, r_lo, r_hi):
    """One annulus at a time: its own distance table, bisection loop and
    local table, whose lowest h it takes; None when it misses."""
    origin = np.zeros(piece.space.dim)

    def dist_of(ts):
        return np.asarray(piece.space.distance(origin, piece.chart_points(ts)))

    def h_of(ts):
        return np.asarray(piece.mean_curvature(piece.chart_points(ts)))

    ts_tab = np.linspace(*piece.chart_box, 4097)
    d_tab = dist_of(ts_tab)
    levels = np.array([r_lo, r_hi])
    annulus_above = np.array([True, False])
    above = d_tab > levels[:, None]
    lev, i = np.nonzero(above[:, :-1] != above[:, 1:])
    level, keep = levels[lev], annulus_above[lev]
    right = (above[lev, i + 1] == keep).astype(int)
    t_in, t_out = ts_tab[i + right], ts_tab[i + 1 - right]
    for step in range(hypersurface._MAX_STEPS + 1):
        wide = np.abs(t_out - t_in) > 2e-12 + 8.9e-16 * np.abs(t_in)
        if not wide.any() or step == hypersurface._MAX_STEPS:
            break
        mid = 0.5 * (t_in + t_out)
        side = (dist_of(mid) > level) == keep
        t_in, t_out = np.where(side, mid, t_in), np.where(side, t_out, mid)
    missed = None
    if wide.any():
        k = int(np.argmax(wide))
        missed = tuple(sorted((float(t_in[k]), float(t_out[k]))))
    seeds = np.concatenate([ts_tab[(d_tab > r_lo) & (d_tab < r_hi)], t_in])
    if seeds.size == 0:
        return None
    ts = np.union1d(np.linspace(seeds.min(), seeds.max(), 513), t_in)
    d = dist_of(ts)
    ok = np.isin(ts, t_in) | ((d > r_lo) & (d < r_hi))
    h = np.where(ok, h_of(ts), np.inf)
    k = int(np.argmin(h))
    return InfimumResult(
        value=float(h[k]), param=float(ts[k]), n_grid=int(ts.size),
        converged=missed is None, missed=missed,
    )


_DENSE_SCAN_RADII = {
    # the scan and curvature-sum-flat annuli of a run at scan_points = 40
    "log-graph": np.append(np.exp(np.linspace(4.0, 10.0, 40)), np.exp(6.0)),
    "revolution-r4": np.exp(np.linspace(4.0, 10.0, 40)),
    "poincare-circles": np.geomspace(2.0, 16.0, 40),
    "hyperbolic-equidistant": np.geomspace(2.0, 16.0, 40),
    "euclid-slab": np.geomspace(2.0, 32.0, 40),
}


@pytest.mark.parametrize("name", sorted(_DENSE_SCAN_RADII))
def test_infima_over_annuli_match_one_annulus_at_a_time(name):
    R = _DENSE_SCAN_RADII[name]
    r_lo = R / 3.0
    if name == "log-graph":
        r_lo[-1] = 0.0  # curvature-sum-flat takes the ball (0, e^6)
    # a few annuli past the chart, which the reference reports as None
    r_lo, r_hi = np.append(r_lo, [1e9, 1e12]), np.append(R, [3e9, 3e12])
    for piece in example_fixture(name).pieces:
        got = infima_over_annuli(piece, r_lo, r_hi)
        assert len(got) == r_lo.size
        for lo, hi, res in zip(r_lo, r_hi, got):
            want = _infimum_reference(piece, lo, hi)
            if want is None:
                assert res is None
                continue
            assert res.value == want.value and res.param == want.param
            assert (res.n_grid, res.converged, res.missed) == (want.n_grid, want.converged,
                                                                  want.missed)


def test_infima_take_curvature_only_where_it_counts(monkeypatch):
    """On the equidistant spheres, where h is constant, the mean curvature
    is taken in one pass, at the cuts and the table points strictly inside
    the annuli."""
    for piece in example_fixture("hyperbolic-equidistant").pieces:
        points = []
        mean_curvature = piece.mean_curvature
        monkeypatch.setattr(piece, "mean_curvature",
                            lambda x: points.append(len(x)) or mean_curvature(x))
        res = infima_over_annuli(piece, [2.0, 4.0], [6.0, 16.0])
        assert len(points) == 1 and points[0] < sum(r.n_grid for r in res) / 2
        assert all(r.converged and np.isclose(r.value, np.sqrt(2.0), rtol=1e-14) for r in res)


def _bits(results):
    return [None if r is None else
            (r.value.hex(), r.param.hex(), r.n_grid, r.converged, r.missed)
            for r in results]


@pytest.mark.parametrize("name", sorted(_DENSE_SCAN_RADII))
def test_infima_over_annuli_do_not_depend_on_the_chunk(monkeypatch, name):
    """Distance and mean curvature act point by point, so evaluating the
    chart points in chunks of one, of seven, of the default or all at once
    gives the same bits."""
    R = np.append(_DENSE_SCAN_RADII[name][::20], 3e9)
    for piece in example_fixture(name).pieces:
        monkeypatch.setattr(hypersurface, "_CHUNK", 10**9)
        want = _bits(infima_over_annuli(piece, R / 3.0, R))
        assert want[-1] is None and None not in want[:-1]
        for chunk in (1, 7, 2048):
            monkeypatch.setattr(hypersurface, "_CHUNK", chunk)
            assert _bits(infima_over_annuli(piece, R / 3.0, R)) == want


def test_union_matches_numpy_union1d_bitwise():
    """Each local table's union with its cut roots has np.union1d's bits;
    np.union1d stays the reference."""
    rng = np.random.default_rng(11)
    nodes = np.linspace(0.3, 4.7, 513)
    cases = [
        np.empty(0),
        rng.uniform(0.3, 4.7, 1),
        rng.uniform(0.3, 4.7, 6),
        nodes[[0, 17, 512]].copy(),  # cuts on linspace nodes, the ends included
        np.array([nodes[40], nodes[40], 1.0, 1.0]),  # duplicate cuts
        np.array([np.nextafter(nodes[99], 0.0), nodes[99], np.nextafter(nodes[99], 9.0)]),
        np.array([-2.0, 0.3, 9.0]),  # outside the node range
    ]
    for cuts in cases:
        for a, b in ((nodes, cuts), (cuts, nodes), (nodes[:1], cuts)):
            got = hypersurface._union(a, b)
            want = np.union1d(a, b)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
