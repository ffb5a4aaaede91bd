"""Discrete curve machinery: quadrature, the exact length duality, stencil
tangents and covariant accelerations."""

import numpy as np
import pytest

from curvlab import curves
from curvlab.curves import DiscreteCurve, fornberg_weights
from curvlab.fields import BallFactorField, ConstantField, ExpQuadraticField, QuarticCutoff
from curvlab.hypersurface import example_fixture
from curvlab.spaceform import RadialField, SpaceForm
from references import curve_points


def wiggly_curve(space, rng, n):
    t = np.linspace(0.0, 1.0, n + 1)
    base = np.stack([0.5 * t - 0.25, 0.2 * np.sin(2.5 * t)], axis=1)
    if space.dim == 3:
        base = np.column_stack([base, 0.15 * np.cos(3.0 * t) - 0.1])
    return DiscreteCurve(space, base)


def test_fornberg_reproduces_centered_weights():
    w1 = fornberg_weights(np.arange(5.0), 2.0, 1)
    assert np.allclose(w1, [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12], atol=1e-13)
    w2 = fornberg_weights(np.arange(5.0), 2.0, 2)
    assert np.allclose(w2, [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12], atol=1e-13)
    w0 = fornberg_weights(np.arange(3.0), 1.0, 0)
    assert np.allclose(w0, [0.0, 1.0, 0.0], atol=1e-13)


@pytest.mark.parametrize("order", [0, 1, 2, 4])
def test_fornberg_stacked_nodes_match_the_per_point_call(order):
    """Bitwise: every row of a stack of irregular stencils (a (3, 40) stack
    of 9 nodes each) gets the weights of its own one-stencil call."""
    rng = np.random.default_rng(8 + order)
    x0 = rng.uniform(-5.0, 5.0, size=(3, 40))
    h = np.exp(rng.uniform(-8.0, 0.0, size=(3, 40)))
    grid = x0[..., None] + h[..., None] * (np.arange(9) - 4 + rng.uniform(-0.3, 0.3, size=9))
    w = fornberg_weights(grid, x0, order)
    assert w.shape == (3, 40, 9)
    for idx in np.ndindex(x0.shape):
        assert np.array_equal(w[idx], fornberg_weights(grid[idx], float(x0[idx]), order))


@pytest.mark.parametrize("kappa", [0.0, 1.0])
def test_length_duality_exact(kappa):
    """The u^-2 g segment lengths weighted by u at the shared nodes sum to
    the g-length to roundoff, any factor."""
    space = SpaceForm(2, kappa)
    rng = np.random.default_rng(3)
    curve = wiggly_curve(space, rng, 57)
    M = rng.normal(size=(2, 2)) * 0.4
    u = ExpQuadraticField(a=rng.normal(size=2) * 0.5, B=0.5 * (M + M.T), c=0.2)
    L = curve.g_length()
    weighted = np.sum(u.value(curve.quad_nodes()) * curve.segment_lengths(u))
    assert np.isclose(weighted, L, rtol=1e-14)


def _axis(space, half, n_segments):
    pts = np.zeros((n_segments + 1, space.dim))
    pts[:, 0] = np.linspace(-half, half, n_segments + 1)
    return DiscreteCurve(space, pts)


@pytest.mark.parametrize("fixture, kwargs, half, n_segments", [
    ("poincare-circles", dict(a=1.0), None, 8192),
    ("euclid-slab", dict(d=1.2, dim=3), 0.6, 2048),
])
def test_lengths_are_the_end_of_the_arclength_table(fixture, kwargs, half, n_segments):
    """Bitwise, on the axis curves the index-form checks trace: a length is
    the last entry of its arclength table, so a cosh weight built from
    ``g_length`` has the L of the table the trace integrates on."""
    fx = example_fixture(fixture, **kwargs)
    curve = _axis(fx.space, fx.endpoints[1, 0] if half is None else half, n_segments)
    u = RadialField(fx.space, np.zeros(fx.space.dim), QuarticCutoff(2.0))
    assert curve.g_length() == curve.vertex_s()[-1]
    assert curve.tilde_length(u) == curve.vertex_s(u)[-1]


def test_flat_arc_length():
    space = SpaceForm(2, 0.0)
    rho, theta = 0.6, 1.8
    curve = DiscreteCurve(
        space, curve_points(lambda t: rho * np.array([np.cos(t), np.sin(t)]), 0.0, theta, 256)
    )
    assert np.isclose(curve.g_length(), rho * theta, rtol=1e-5)


def test_ball_diameter_length():
    space = SpaceForm(2, 1.0)
    a, b = -0.3, 0.62
    exact = float(space.distance([a, 0.0], [b, 0.0]))
    curve = DiscreteCurve(space, curve_points(lambda t: np.array([t, 0.0]), a, b, 512))
    assert np.isclose(curve.g_length(), exact, rtol=1e-5)


def test_tilde_length_recovers_hyperbolic_distance():
    """g flat, u the ball factor: tilde-length of a diameter chord must be
    the hyperbolic distance."""
    space = SpaceForm(2, 0.0)
    u = BallFactorField(kappa=1.0)
    a, b = -0.45, 0.3
    curve = DiscreteCurve(space, curve_points(lambda t: np.array([t, 0.0]), a, b, 1024))
    exact = float(SpaceForm(2, 1.0).distance([a, 0.0], [b, 0.0]))
    assert np.isclose(curve.tilde_length(u), exact, rtol=1e-6)


def test_vertex_tangents_unit_and_accurate():
    space = SpaceForm(2, 1.0)
    rho = 0.4
    curve = DiscreteCurve(
        space, curve_points(lambda t: rho * np.array([np.cos(t), np.sin(t)]), 0.0, np.pi / 2, 128)
    )
    T, sigma = curve.vertex_tangents()
    norms = space.norm(curve.points, T)
    assert np.allclose(norms, 1.0, atol=1e-9)
    ts = np.linspace(0.0, np.pi / 2, 129)
    exact_dir = np.stack([-np.sin(ts), np.cos(ts)], axis=1)
    w0 = space.ambient_factor(curve.points)
    assert np.allclose(T, exact_dir * w0[:, None], atol=1e-6)
    # speed: |dx/dtau| / w0 with dtau the index step
    dt = (np.pi / 2) / 128
    assert np.allclose(sigma, rho * dt / w0, rtol=1e-6)


def test_straight_line_zero_acceleration_including_ends():
    space = SpaceForm(2, 0.0)
    pts = np.linspace(0.0, 1.0, 33)[:, None] * np.array([[0.8, 0.6]])
    curve = DiscreteCurve(space, pts)
    assert np.allclose(curve.vertex_acceleration()[1], 0.0, atol=1e-11)


def test_flat_circle_acceleration_points_inward():
    space = SpaceForm(2, 0.0)
    rho = 0.7
    curve = DiscreteCurve(
        space, curve_points(lambda t: rho * np.array([np.cos(t), np.sin(t)]), 0.2, 1.9, 200)
    )
    _, acc = curve.vertex_acceleration()
    expected = -curve.points / rho**2
    assert np.allclose(acc, expected, atol=1e-6)


def test_hyperbolic_radial_line_is_geodesic():
    space = SpaceForm(2, 1.0)
    e = np.array([0.6, 0.8])
    curve = DiscreteCurve(space, curve_points(lambda t: np.tanh(t / 2.0) * e, 0.1, 1.4, 160))
    _, acc = curve.vertex_acceleration()
    assert np.max(space.norm(curve.points, acc)) < 1e-7


def test_geodesic_circle_curvature_matches_coth():
    """Coordinate circle of radius s: geodesic circle of hyperbolic radius
    2 artanh(s); counterclockwise traversal gives k_g = +coth toward the
    inward quarter-turn normal."""
    space = SpaceForm(2, 1.0)
    s = 0.35
    curve = DiscreteCurve(
        space, curve_points(lambda t: s * np.array([np.cos(t), np.sin(t)]), 0.0, 2.0, 256)
    )
    T, acc = curve.vertex_acceleration()
    N = np.stack([-T[:, 1], T[:, 0]], axis=1)  # T turned a quarter counterclockwise
    kg = space.inner(curve.points, acc, N)
    expected = 1.0 / np.tanh(2.0 * np.arctanh(s))
    assert np.allclose(kg, expected, rtol=1e-6)


def test_resample_equalizes_segment_lengths():
    space = SpaceForm(2, 1.0)
    rng = np.random.default_rng(8)
    curve = wiggly_curve(space, rng, 64)
    even = curve.resample(48)
    lens = even.segment_lengths()
    assert np.max(lens) / np.min(lens) < 1.001
    assert np.allclose(even.points[0], curve.points[0])
    assert np.allclose(even.points[-1], curve.points[-1])
    # resampling in the tilde metric equalizes tilde lengths instead
    u = BallFactorField(kappa=1.3)
    even_t = curve.resample(48, u=u)
    lens_t = even_t.segment_lengths(u=u)
    assert np.max(lens_t) / np.min(lens_t) < 1.001


def test_curve_validation_errors():
    space = SpaceForm(2, 1.0)
    with pytest.raises(ValueError):
        DiscreteCurve(space, np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        DiscreteCurve(space, np.array([[0.0, 0.0], [1.2, 0.0]]))
    curve = DiscreteCurve(space, np.array([[0.0, 0.0], [0.5, 0.0]]))
    # NaN is not positive either
    for c in (-1.0, np.nan):
        with pytest.raises(ValueError, match="positive"):
            curve.tilde_length(ConstantField(c))


def _stencil_reference(values, order):
    """The per-vertex loop: one clamped five-point window for every vertex."""
    n = values.shape[0]
    npts = min(5, n)
    out = np.empty_like(values)
    for i in range(n):
        start = min(max(i - 2, 0), n - npts)
        w = curves._uniform_stencil(npts, i - start, order)
        out[i] = np.tensordot(w, values[start : start + npts], axes=(0, 0))
    return out


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 33, 8193])
def test_stencil_derivative_matches_per_vertex_loop(n, order, dim):
    """Applying the centred stencil to all interior vertices at once gives
    bitwise the same values as one clamped window per vertex."""
    values = np.random.default_rng(n * 10 + order + dim).normal(size=(n, dim))
    if n <= order:
        with pytest.raises(ValueError, match="too few vertices"):
            curves._stencil_derivative(values, order)
        return
    got = curves._stencil_derivative(values, order)
    assert np.array_equal(got, _stencil_reference(values, order))


def test_stencil_derivative_work_does_not_grow_with_vertices(monkeypatch):
    calls = []
    tensordot = np.tensordot

    def counting(*args, **kwargs):
        calls.append(1)
        return tensordot(*args, **kwargs)

    monkeypatch.setattr(np, "tensordot", counting)
    counts = []
    for n in (7, 33, 8193):
        calls.clear()
        values = np.linspace(0.0, 1.0, 2 * n).reshape(n, 2)
        curves._stencil_derivative(values, 2)
        counts.append(len(calls))
    assert counts == [counts[0]] * 3
    assert counts[0] <= 4


def test_degenerate_curve_raises_naming_vertex():
    space = SpaceForm(2, 0.0)
    curve = DiscreteCurve(space, np.zeros((9, 2)))
    with pytest.raises(ValueError, match="at vertex 0"):
        curve.vertex_tangents()
    with pytest.raises(ValueError, match="at vertex 0"):
        curve.vertex_acceleration()
    # a NaN vertex poisons the stencils of its neighbours two either side
    pts = np.stack([np.linspace(0.0, 1.0, 12), np.zeros(12)], axis=1)
    pts[6, 1] = np.nan
    with pytest.raises(ValueError, match="speed nan at vertex 4"):
        DiscreteCurve(space, pts).vertex_acceleration()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 33, 512, 513])
def test_median_matches_numpy_median_bitwise(n):
    """The speed floor's median has np.median's bits; np.median stays the reference."""
    rng = np.random.default_rng(n)
    cases = [
        rng.uniform(0.5, 2.0, n),
        rng.integers(0, 3, n) * 0.1 + 1.0,  # duplicate values
        np.full(n, 0.87),
        np.exp(rng.normal(0.0, 30.0, n)),  # widely spread magnitudes
    ]
    for x in cases:
        before = x.copy()
        got = curves._median(x)
        assert np.float64(got).tobytes() == np.median(x).tobytes()
        assert np.array_equal(x, before)


def test_stalled_curve_raises_below_the_relative_speed_floor():
    """Five repeated vertices leave roundoff-sized stencil speeds (about
    1e-17) whose tangents are noise; the first such vertex is named."""
    space = SpaceForm(2, 0.0)
    pts = np.stack([np.minimum(np.arange(12.0), 5.0), np.zeros(12)], axis=1)
    curve = DiscreteCurve(space, pts)
    with pytest.raises(ValueError, match="at vertex 7"):
        curve.vertex_tangents()
    # a smooth curve whose speed varies a thousandfold is accepted
    t = np.linspace(0.0, 1.0, 65)
    graded = DiscreteCurve(space, np.stack([t**3, np.zeros_like(t)], axis=1)[1:])
    graded.vertex_tangents()
