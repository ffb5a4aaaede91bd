"""Conformal transformation laws against finite-difference oracles and
against exact model geometries."""

import numpy as np
import pytest

from curvlab import fdcheck
from curvlab.conformal import (
    christoffels_formula,
    connection_difference,
    coordinate_metric,
    geodesic_curvature_residual,
    geodesic_residual,
    mean_curvature_formula,
    off_plane_component,
    ricci_formula,
    sectional_numerator,
)
from curvlab.fields import BallFactorField, ExpQuadraticField
from curvlab.spaceform import RadialField, SpaceForm, gram_schmidt_frame
from curvlab.fields import quartic_cutoff_profile


def positive_factor(rng, dim, scale=0.25):
    a = rng.normal(size=dim) * scale
    M = rng.normal(size=(dim, dim)) * scale
    return ExpQuadraticField(a=a, B=0.5 * (M + M.T), c=float(rng.normal() * 0.1))


SPACES = [SpaceForm(3, 0.0), SpaceForm(3, 1.0), SpaceForm(2, 2.0)]


@pytest.mark.parametrize("space", SPACES, ids=["flat3", "ball3", "ball2k2"])
def test_christoffels_formula_matches_fd(space):
    rng = np.random.default_rng(space.dim * 7 + int(space.kappa))
    u = positive_factor(rng, space.dim)
    metric = coordinate_metric(space, u)
    for _ in range(4):
        x = rng.uniform(-0.35, 0.35, size=space.dim)
        got = christoffels_formula(space, u, x)
        ref = fdcheck.christoffels_fd(metric, x)
        assert np.allclose(got, ref, rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("space", SPACES, ids=["flat3", "ball3", "ball2k2"])
def test_connection_difference_matches_christoffel_gap(space):
    rng = np.random.default_rng(space.dim * 13 + int(space.kappa * 2))
    u = positive_factor(rng, space.dim)
    metric_g = coordinate_metric(space, type("One", (), {
        "value": lambda self, x: np.ones(np.asarray(x).shape[:-1]),
        "gradient": lambda self, x: np.zeros_like(np.asarray(x, dtype=float)),
        "hessian": lambda self, x: np.zeros(np.asarray(x).shape + (np.asarray(x).shape[-1],)),
    })())
    metric_t = coordinate_metric(space, u)
    for _ in range(4):
        x = rng.uniform(-0.3, 0.3, size=space.dim)
        X = rng.normal(size=space.dim)
        Y = rng.normal(size=space.dim)
        gap = fdcheck.christoffels_fd(metric_t, x) - fdcheck.christoffels_fd(metric_g, x)
        ref = np.einsum("kij,i,j->k", gap, X, Y)
        got = connection_difference(space, u, x, X, Y)
        assert np.allclose(got, ref, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("space", SPACES, ids=["flat3", "ball3", "ball2k2"])
def test_sectional_combination_matches_fd(space):
    rng = np.random.default_rng(space.dim * 19 + int(space.kappa * 3))
    u = positive_factor(rng, space.dim)
    metric = coordinate_metric(space, u)
    for _ in range(3):
        x = rng.uniform(-0.3, 0.3, size=space.dim)
        F = gram_schmidt_frame(space, x, seed=rng.normal(size=(space.dim, space.dim)))
        uv = float(u.value(x))
        got = sectional_numerator(space, u, x, F[0], F[1])
        ref = fdcheck.sectional_fd(metric, x, uv * F[0], uv * F[1])
        assert np.isclose(got, ref, rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("space", SPACES, ids=["flat3", "ball3", "ball2k2"])
def test_ricci_formula_matches_fd(space):
    rng = np.random.default_rng(space.dim * 23 + int(space.kappa * 5))
    u = positive_factor(rng, space.dim)
    metric = coordinate_metric(space, u)
    for _ in range(3):
        x = rng.uniform(-0.3, 0.3, size=space.dim)
        F = gram_schmidt_frame(space, x, seed=rng.normal(size=(space.dim, space.dim)))
        uv = float(u.value(x))
        got = ricci_formula(space, u, x, F[0])
        ref = fdcheck.ricci_quadratic_fd(metric, x, uv * F[0])
        assert np.isclose(got, ref, rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_ball_factor_reproduces_constant_curvature(dim):
    """u = (1 - |x|^2)/2 over flat space gives the kappa = 1 model: every
    sectional value -1 and Ricci -(dim - 1), exactly."""
    space = SpaceForm(dim, 0.0)
    u = BallFactorField(kappa=1.0)
    rng = np.random.default_rng(dim)
    for _ in range(6):
        x = rng.uniform(-0.6, 0.6, size=dim) * 0.9
        F = gram_schmidt_frame(space, x, seed=rng.normal(size=(dim, dim)))
        assert np.isclose(sectional_numerator(space, u, x, F[0], F[1]), -1.0, atol=1e-12)
        assert np.isclose(ricci_formula(space, u, x, F[0]), -(dim - 1), atol=1e-12)


def test_mean_curvature_law_sphere_to_hyperbolic():
    """Flat sphere of radius s becomes a geodesic sphere of hyperbolic radius
    2 artanh(s); inward mean curvature maps to (dim - 1) coth."""
    for dim in (2, 3, 4):
        space = SpaceForm(dim, 0.0)
        u = BallFactorField(kappa=1.0)
        n = dim - 1
        for s in (0.2, 0.5, 0.7):
            x = np.zeros(dim)
            x[0] = s
            nu = np.zeros(dim)
            nu[0] = -1.0  # inward g-unit normal of the sphere
            got = mean_curvature_formula(space, u, x, H_g=n / s, nu=nu)
            expected = n / np.tanh(2.0 * np.arctanh(s))
            assert np.isclose(got, expected, rtol=1e-13)


def test_mean_curvature_law_batches_pointwise():
    """An (N, dim) batch of points, curvatures and normals gives the
    per-point values, hyperbolic background, random factor."""
    space = SpaceForm(3, 1.0)
    rng = np.random.default_rng(405)
    u = positive_factor(rng, 3)
    x = rng.uniform(-0.5, 0.5, size=(7, 3))
    H_g = rng.normal(size=7)
    nu = space.unit(x, rng.normal(size=(7, 3)))
    got = mean_curvature_formula(space, u, x, H_g, nu)
    assert got.shape == (7,)
    each = [mean_curvature_formula(space, u, p, h, v) for p, h, v in zip(x, H_g, nu)]
    np.testing.assert_allclose(got, each, rtol=1e-14, atol=0.0)


def test_mean_curvature_law_against_parametric_fd():
    """Random factor over the hyperbolic background; the law must agree with
    the fundamental-form computation in the tilde coordinate metric."""
    space = SpaceForm(3, 1.0)
    rng = np.random.default_rng(404)
    u = positive_factor(rng, 3, scale=0.2)
    metric = coordinate_metric(space, u)
    s = 0.35

    def chart(th):
        t, p = th
        return s * np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])

    def dchart(th):
        t, p = th
        return s * np.array(
            [
                [np.cos(t) * np.cos(p), -np.sin(t) * np.sin(p)],
                [np.cos(t) * np.sin(p), np.sin(t) * np.cos(p)],
                [-np.sin(t), 0.0],
            ]
        )

    def d2chart(th):
        t, p = th
        dtt = s * np.array([-np.sin(t) * np.cos(p), -np.sin(t) * np.sin(p), -np.cos(t)])
        dtp = s * np.array([-np.cos(t) * np.sin(p), np.cos(t) * np.cos(p), 0.0])
        dpp = s * np.array([-np.sin(t) * np.cos(p), -np.sin(t) * np.sin(p), 0.0])
        return np.array([[dtt, dtp], [dtp, dpp]])

    # g-mean curvature of the coordinate sphere in the ball background
    r_hyp = 2.0 * np.arctanh(s)
    H_g = 2.0 / np.tanh(r_hyp)
    for th in ([1.0, 0.3], [1.4, 2.2], [0.6, 4.0]):
        th = np.array(th)
        x = chart(th)
        w = float(space.ambient_factor(x))
        nu_g = -x / s * w  # g-unit inward normal
        got = mean_curvature_formula(space, u, x, H_g=H_g, nu=nu_g)
        ref, _ = fdcheck.parametric_mean_curvature(
            metric, chart, dchart, d2chart, th, inward_ref=-x
        )
        assert np.isclose(got, ref, rtol=1e-5)


# ---------------------------------------------------------------------------
# tilde geodesics seen from g
# ---------------------------------------------------------------------------


def test_diameter_is_tilde_geodesic():
    space = SpaceForm(2, 0.0)
    u = BallFactorField(kappa=1.0)
    e = np.array([0.8, 0.6])
    for t in (-0.5, 0.0, 0.4, 0.8):
        x = t * e
        res = geodesic_residual(space, u, x, T=e, nabla_T_T=np.zeros(2))
        assert np.allclose(res, 0.0, atol=1e-15)


def test_offset_line_is_not_tilde_geodesic():
    space = SpaceForm(2, 0.0)
    u = BallFactorField(kappa=1.0)
    x = np.array([0.3, 0.25])
    res = geodesic_residual(space, u, x, T=np.array([1.0, 0.0]), nabla_T_T=np.zeros(2))
    assert np.linalg.norm(res) > 1e-3


def test_geodesic_residual_equals_tilde_acceleration():
    """For a straight line in flat g, the tilde-covariant acceleration in the
    tilde arclength gauge is u (du/dt) T + Gamma-tilde(uT, uT); the residual
    formula must reproduce it with Christoffels taken by finite differences."""
    space = SpaceForm(2, 0.0)
    rng = np.random.default_rng(881)
    u = positive_factor(rng, 2, scale=0.3)
    metric = coordinate_metric(space, u)
    p = np.array([0.1, -0.2])
    e = np.array([0.6, 0.8])
    for t in (0.0, 0.3):
        x = p + t * e
        uv = float(u.value(x))
        du_dt = float(u.gradient(x) @ e)
        Gam = fdcheck.christoffels_fd(metric, x)
        ref = uv * du_dt * e + np.einsum("kij,i,j->k", Gam, uv * e, uv * e)
        got = geodesic_residual(space, u, x, T=e, nabla_T_T=np.zeros(2))
        assert np.allclose(got, ref, rtol=1e-6, atol=1e-7)


def test_orthogonal_circles_have_zero_curvature_residual():
    """Circles meeting the unit circle at right angles (|c|^2 = 1 + rho^2) are
    geodesics of the ball metric: k_g + u_N / u = 0 pointwise, exactly."""
    space = SpaceForm(2, 0.0)
    u = BallFactorField(kappa=1.0)
    rho = 0.75
    c = np.array([np.sqrt(1.0 + rho**2), 0.0])
    for ang in (2.9, 3.14, 3.4):
        x = c + rho * np.array([np.cos(ang), np.sin(ang)])
        assert np.linalg.norm(x) < 1.0
        N = (c - x) / rho  # unit normal toward the circle center
        res = geodesic_curvature_residual(space, u, x, N, kg=1.0 / rho)
        assert abs(res) < 1e-14


def test_non_orthogonal_circle_fails_residual():
    space = SpaceForm(2, 0.0)
    u = BallFactorField(kappa=1.0)
    rho = 0.75
    c = np.array([np.sqrt(1.0 + rho**2) + 0.2, 0.0])
    x = c + rho * np.array([np.cos(3.14), np.sin(3.14)])
    N = (c - x) / rho
    assert abs(geodesic_curvature_residual(space, u, x, N, kg=1.0 / rho)) > 1e-2


def test_radial_gradient_stays_in_plane_through_center():
    space = SpaceForm(3, 1.0)
    center = np.array([0.3, 0.0, 0.0])
    u = RadialField(space, center, quartic_cutoff_profile(2.5))
    x = np.array([0.1, 0.35, 0.0])  # xy-plane contains origin and center
    F = gram_schmidt_frame(space, x)  # coordinate-aligned frame: e0, e1 span xy
    val = off_plane_component(space, u, x, F[0], F[1])
    assert val < 1e-13
    # a center off the plane breaks it
    u2 = RadialField(space, np.array([0.2, 0.0, 0.25]), quartic_cutoff_profile(2.5))
    assert off_plane_component(space, u2, x, F[0], F[1]) > 1e-3
