"""Ambient model geometry: distance formula, Mobius isometries, radial
calculus through the chord form."""

import numpy as np
import pytest
from scipy.integrate import quad

from curvlab.fields import ExpQuadraticField, QuarticCutoff
from curvlab.spaceform import (
    RadialField,
    SpaceForm,
    christoffel_quadratic,
    conformal_factor_field,
    grad_norm2_g,
    gram_schmidt_frame,
    hess_g_apply,
    hess_g_matrix,
    mobius_add,
    mobius_center,
    radial_map,
)
from references import fd_gradient, fd_hessian


def ball_point(rng, dim, rmax=0.85):
    v = rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0.0, rmax)


def metric_matrix(space, x):
    """Coordinate components g_ij(x) = w(x)^-2 delta_ij."""
    w = space.ambient_factor(x)
    return np.eye(space.dim) / (w[..., None, None] ** 2)


def radial_data(space, c, x, T=None):
    """(r, g-gradient of r, lambda'/lambda, r_T, r_TT) at x for the distance
    r to c, from ``radial_map``: dq = 2 r dr, and g^(ij) = w^2 delta raises
    the index. lambda = r (flat) or sinh(kappa r)/kappa; r_T and r_TT =
    (1 - r_T^2) lambda'/lambda along the g-unit tangent T (None without T)."""
    r = float(space.distance(c, x))
    _, dq, _ = radial_map(space, c, x)
    w = float(space.ambient_factor(x))
    grad_r = (w * w / (2.0 * r)) * dq
    k = space.kappa
    ratio = k / np.tanh(k * r) if space.hyperbolic else 1.0 / r
    if T is None:
        return r, grad_r, ratio, None, None
    r_T = float(space.inner(x, grad_r, T))
    return r, grad_r, ratio, r_T, (1.0 - r_T * r_T) * ratio


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def test_flat_distance_is_euclidean():
    space = SpaceForm(dim=3, kappa=0.0)
    assert np.isclose(space.distance([1.0, 2.0, 2.0], [0.0, 0.0, 0.0]), 3.0)


def test_ball_distance_against_line_integral():
    """The diameter is a geodesic; arc length there is integral of 2/(1-t^2)."""
    space = SpaceForm(dim=2, kappa=1.0)
    a, b = -0.3, 0.62
    oracle, err = quad(lambda t: 2.0 / (1.0 - t * t), a, b)
    assert err < 1e-9
    got = space.distance([a, 0.0], [b, 0.0])
    assert np.isclose(got, oracle, rtol=1e-12)
    assert np.isclose(space.distance([-0.3, 0.0], [0.3, 0.0]), 4.0 * np.arctanh(0.3))


def test_ball_distance_origin_radial():
    space = SpaceForm(dim=3, kappa=1.0)
    s = 0.44
    assert np.isclose(space.distance([0, 0, 0], [s, 0, 0]), 2.0 * np.arctanh(s))


def test_distance_scales_inversely_with_kappa():
    rng = np.random.default_rng(11)
    p = ball_point(rng, 3)
    q = ball_point(rng, 3)
    d1 = SpaceForm(3, 1.0).distance(p, q)
    for kappa in (0.5, 2.0, 3.7):
        assert np.isclose(SpaceForm(3, kappa).distance(p, q), d1 / kappa, rtol=1e-13)


def test_triangle_inequality_random_triples():
    rng = np.random.default_rng(2024)
    for space in (SpaceForm(3, 0.0), SpaceForm(3, 1.0), SpaceForm(2, 2.0)):
        for _ in range(100):
            p = ball_point(rng, space.dim)
            q = ball_point(rng, space.dim)
            m = ball_point(rng, space.dim)
            dpq = space.distance(p, q)
            assert dpq <= space.distance(p, m) + space.distance(m, q) + 1e-12


def test_geodesic_midpoint_splits_distance():
    """Map p to the origin, walk half the distance along the radial ray,
    map back; the image must split d(p, q) exactly in half."""
    space = SpaceForm(dim=3, kappa=1.0)
    rng = np.random.default_rng(5)
    for _ in range(25):
        p = ball_point(rng, 3)
        q = ball_point(rng, 3)
        d = space.distance(p, q)
        q0 = mobius_center(space, p, q)
        s_half = np.tanh(space.kappa * d / 4.0)
        m0 = s_half * q0 / np.linalg.norm(q0)
        m = mobius_add(p, m0)
        assert np.isclose(space.distance(p, m), d / 2.0, rtol=1e-10)
        assert np.isclose(space.distance(m, q), d / 2.0, rtol=1e-10)


# ---------------------------------------------------------------------------
# Mobius operations
# ---------------------------------------------------------------------------


def test_mobius_left_cancellation():
    rng = np.random.default_rng(77)
    for _ in range(50):
        a = ball_point(rng, 4)
        x = ball_point(rng, 4)
        back = mobius_add(a, mobius_add(-a, x))
        assert np.allclose(back, x, atol=1e-13)


def test_mobius_center_is_isometry():
    space = SpaceForm(dim=3, kappa=1.0)
    rng = np.random.default_rng(78)
    for _ in range(50):
        c = ball_point(rng, 3)
        x = ball_point(rng, 3)
        y = ball_point(rng, 3)
        d0 = space.distance(x, y)
        d1 = space.distance(mobius_center(space, c, x), mobius_center(space, c, y))
        assert np.isclose(d0, d1, rtol=1e-11)
    assert np.allclose(mobius_center(space, c, c), 0.0, atol=1e-15)


def test_mobius_center_rejects_flat_model():
    with pytest.raises(ValueError):
        mobius_center(SpaceForm(3, 0.0), [0.1, 0, 0], [0.2, 0, 0])


# ---------------------------------------------------------------------------
# radial calculus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kappa", [0.0, 1.0, 2.0])
def test_radial_map_matches_fd(kappa):
    space = SpaceForm(dim=3, kappa=kappa)
    rng = np.random.default_rng(int(kappa * 10) + 3)
    for _ in range(8):
        c = ball_point(rng, 3, rmax=0.5)
        x = ball_point(rng, 3, rmax=0.7)

        def qfun(y):
            return float(space.distance(c, y) ** 2)

        q, dq, d2q = radial_map(space, c, x)
        assert np.isclose(q, qfun(x), rtol=1e-12)
        assert np.allclose(dq, fd_gradient(qfun, x), rtol=1e-6, atol=1e-8)
        assert np.allclose(d2q, fd_hessian(qfun, x), rtol=1e-4, atol=1e-5)


def test_radial_map_smooth_at_center():
    space = SpaceForm(dim=3, kappa=1.0)
    c = np.array([0.2, -0.1, 0.3])
    q, dq, d2q = radial_map(space, c, c)
    assert np.isclose(q, 0.0, atol=1e-15)
    assert np.allclose(dq, 0.0, atol=1e-12)
    # Hess of d(c, .)^2 at the center is 2 g in normal coordinates; its
    # coordinate expression must be symmetric positive definite.
    assert np.allclose(d2q, d2q.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(d2q) > 0)


@pytest.mark.parametrize("kappa", [0.0, 1.0, 2.5])
def test_gradient_of_distance_is_unit(kappa):
    space = SpaceForm(dim=4, kappa=kappa)
    rng = np.random.default_rng(int(kappa * 100) + 9)
    for _ in range(10):
        c = ball_point(rng, 4, rmax=0.4)
        x = ball_point(rng, 4, rmax=0.8)
        _, grad_r, _, _, _ = radial_data(space, c, x)
        assert np.isclose(space.norm(x, grad_r), 1.0, rtol=1e-10)


@pytest.mark.parametrize("kappa", [0.0, 1.0])
def test_distance_hessian_comparison_form(kappa):
    """Hess(r^2) = 2 dr x dr + 2 r (lambda'/lambda) (g - dr x dr), checked
    in coordinates through the covariant Hessian machinery."""
    space = SpaceForm(dim=3, kappa=kappa)
    rng = np.random.default_rng(31 + int(kappa))

    class QField:
        def __init__(self, c):
            self.c = c

        def value(self, x):
            return radial_map(space, self.c, x)[0]

        def gradient(self, x):
            return radial_map(space, self.c, x)[1]

        def hessian(self, x):
            return radial_map(space, self.c, x)[2]

    for _ in range(8):
        c = ball_point(rng, 3, rmax=0.4)
        x = ball_point(rng, 3, rmax=0.75)
        r, grad_r, ratio, _, _ = radial_data(space, c, x)
        H = hess_g_matrix(space, QField(c), x)
        G = metric_matrix(space, x)
        dr = G @ grad_r  # lower-index components of dr
        outer = np.outer(dr, dr)
        expected = 2.0 * outer + 2.0 * r * ratio * (G - outer)
        assert np.allclose(H, expected, rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("kappa", [0.0, 1.0])
def test_radial_second_derivative_along_geodesic(kappa):
    """r_TT from the comparison identity vs a second difference of
    t -> d(c, gamma(t)) along a unit-speed geodesic."""
    if kappa == 0.0:
        space = SpaceForm(dim=3, kappa=0.0)
        c = np.array([0.3, 0.4, -0.2])
        p = np.array([-0.1, 0.2, 0.5])
        e = np.array([2.0, -1.0, 0.5])
        e /= np.linalg.norm(e)

        def gamma(t):
            return p + t * e

        def gdot(t):
            return e

    else:
        space = SpaceForm(dim=3, kappa=1.0)
        c = np.array([0.3, 0.1, -0.2])
        e = np.array([1.0, 1.0, -0.5])
        e /= np.linalg.norm(e)

        def gamma(t):
            return np.tanh(t / 2.0) * e

        def gdot(t):
            return 0.5 / np.cosh(t / 2.0) ** 2 * e

    t0, h = 0.8, 1e-4
    rr = [float(space.distance(c, gamma(t0 + k * h))) for k in (-1, 0, 1)]
    fd_first = (rr[2] - rr[0]) / (2 * h)
    fd_second = (rr[2] - 2 * rr[1] + rr[0]) / h**2
    _, _, _, r_T, r_TT = radial_data(space, c, gamma(t0), T=gdot(t0))
    assert np.isclose(r_T, fd_first, rtol=1e-7, atol=1e-9)
    assert np.isclose(r_TT, fd_second, rtol=1e-4, atol=1e-6)


# ---------------------------------------------------------------------------
# covariant helpers
# ---------------------------------------------------------------------------


def test_geodesic_equation_radial_line():
    """x(t) = tanh(kappa t / 2) e is a unit-speed geodesic of the ball:
    x'' + Gamma(x', x') = 0 exactly."""
    space = SpaceForm(dim=3, kappa=1.5)
    e = np.array([0.6, -0.8, 0.0])
    k = space.kappa
    for t in (0.2, 0.9, 1.7):
        x = np.tanh(k * t / 2.0) * e
        xd = (k / 2.0) / np.cosh(k * t / 2.0) ** 2 * e
        xdd = -(k**2 / 2.0) * np.tanh(k * t / 2.0) / np.cosh(k * t / 2.0) ** 2 * e
        assert np.isclose(space.norm(x, xd), 1.0, rtol=1e-12)
        assert np.allclose(xdd + christoffel_quadratic(space, x, xd), 0.0, atol=1e-12)


def test_gram_schmidt_frame_is_orthonormal():
    rng = np.random.default_rng(91)
    for space in (SpaceForm(3, 0.0), SpaceForm(4, 1.0)):
        x = ball_point(rng, space.dim, rmax=0.6)
        F = gram_schmidt_frame(space, x, seed=rng.normal(size=(space.dim, space.dim)))
        G = metric_matrix(space, x)
        gram = F @ G @ F.T
        assert np.allclose(gram, np.eye(space.dim), atol=1e-11)


def test_gram_schmidt_frame_stacks_points_and_seeds():
    rng = np.random.default_rng(92)
    space = SpaceForm(3, 1.0)
    xs = np.array([ball_point(rng, 3, rmax=0.6) for _ in range(5)])
    seeds = rng.normal(size=(5, 3, 3))
    F = gram_schmidt_frame(space, xs, seed=seeds)
    assert F.shape == (5, 3, 3)
    for x, seed, frame in zip(xs, seeds, F):
        np.testing.assert_allclose(frame, gram_schmidt_frame(space, x, seed=seed), rtol=1e-14, atol=1e-15)
    seeds[3, 1] = 2.0 * seeds[3, 0]
    with pytest.raises(ValueError, match="degenerate frame seed"):
        gram_schmidt_frame(space, xs, seed=seeds)


def test_radial_field_is_analytic_scalar_field():
    space = SpaceForm(dim=3, kappa=1.0)
    field = RadialField(space, np.array([0.2, 0.0, -0.1]), QuarticCutoff(1.5))
    rng = np.random.default_rng(17)
    for _ in range(6):
        x = ball_point(rng, 3, rmax=0.5)
        f = lambda y: float(field.value(y))
        assert np.allclose(field.gradient(x), fd_gradient(f, x), rtol=1e-6, atol=1e-8)
        assert np.allclose(field.hessian(x), fd_hessian(f, x), rtol=1e-4, atol=1e-5)


def test_conformal_factor_field_combines_ambient():
    space = SpaceForm(dim=2, kappa=1.0)
    field = RadialField(space, np.zeros(2), QuarticCutoff(2.0))
    W = conformal_factor_field(space, field)
    x = np.array([0.3, 0.1])
    assert np.isclose(W.value(x), field.value(x) * space.ambient_factor(x))
    flatW = conformal_factor_field(SpaceForm(2, 0.0), field)
    assert flatW is field


def test_inner_rounds_the_same_alone_and_in_a_batch():
    """Bitwise: each of 20,000 points of the curvature -4 disc gets from a
    one-point call the value it gets inside the batch."""
    space = SpaceForm(2, 2.0)
    rng = np.random.default_rng(2002)
    x = np.array([ball_point(rng, 2) for _ in range(20_000)])
    v, w = rng.normal(size=(2, 20_000, 2))
    batch = space.inner(x, v, w)
    single = np.array([space.inner(p, a, b) for p, a, b in zip(x, v, w)])
    assert np.array_equal(single, batch)


def test_grad_norm2_matches_inner_product():
    space = SpaceForm(dim=3, kappa=1.0)
    field = RadialField(space, np.array([0.1, 0.2, 0.0]), QuarticCutoff(2.0))
    x = np.array([0.25, -0.3, 0.2])
    w = space.ambient_factor(x)
    gr = (w * w) * field.gradient(x)
    assert np.isclose(grad_norm2_g(space, field, x), space.inner(x, gr, gr), rtol=1e-13)


@pytest.mark.parametrize("kappa", [0.0, 1.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_hess_g_apply_rounds_the_same_alone_and_in_a_batch(dim, kappa):
    """Bitwise: each point of a batch of 400 gets the value of its own
    one-point call, and that value is the contraction of hess_g_matrix."""
    rng = np.random.default_rng(40 + dim)
    space = SpaceForm(dim, kappa)
    M = rng.normal(size=(dim, dim)) * 0.3
    u = ExpQuadraticField(a=rng.normal(size=dim) * 0.3, B=0.5 * (M + M.T), c=0.1)
    x = np.array([ball_point(rng, dim, rmax=0.6) for _ in range(400)])
    X, Y = rng.normal(size=(2, 400, dim))
    batch = hess_g_apply(space, u, x, X, Y)
    assert batch.shape == (400,)
    for i in range(400):
        assert batch[i] == hess_g_apply(space, u, x[i], X[i], Y[i])
    H = hess_g_matrix(space, u, x)
    np.testing.assert_allclose(batch, np.einsum("...ij,...i,...j->...", H, X, Y),
                               rtol=1e-13, atol=1e-13)
