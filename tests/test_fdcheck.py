"""Calibration of the finite-difference metric calculus.

These tests pin the index and sign conventions of fdcheck against spaces
whose curvature is known exactly: flat space (everything vanishes) and the
ball model of curvature -kappa^2. Everything else in the suite compares
formulas to fdcheck, so the conventions locked here are load-bearing.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from curvlab import checks, fdcheck
from curvlab.conformal import coordinate_metric
from curvlab.fields import ExpQuadraticField
from curvlab.spaceform import SpaceForm, gram_schmidt_frame, log_factor_gradient
from references import fd_gradient, fd_hessian, riemann_nested


def ball_metric(kappa):
    def metric(x):
        w = 0.5 * kappa * (1.0 - np.sum(x * x, axis=-1))
        return np.eye(x.shape[-1]) / (w**2)[..., None, None]

    return metric


def flat_metric(m):
    return lambda x: np.broadcast_to(np.eye(m), np.shape(x)[:-1] + (m, m))


def test_flat_metric_has_no_curvature():
    metric = flat_metric(3)
    x = np.array([0.3, -0.2, 0.5])
    assert np.allclose(fdcheck.christoffels_fd(metric, x), 0.0, atol=1e-9)
    assert np.allclose(fdcheck.riemann_fd(metric, x), 0.0, atol=1e-6)


def test_christoffels_match_conformal_formula():
    """Gamma^k_ij = d^k_i phi_j + d^k_j phi_i - delta_ij phi^k for e^{2phi} delta."""
    space = SpaceForm(dim=3, kappa=1.0)
    metric = ball_metric(1.0)
    rng = np.random.default_rng(101)
    for _ in range(5):
        x = rng.uniform(-0.4, 0.4, size=3)
        ph = log_factor_gradient(space, x)
        expected = np.zeros((3, 3, 3))
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    expected[k, i, j] = (
                        (k == i) * ph[j] + (k == j) * ph[i] - (i == j) * ph[k]
                    )
        got = fdcheck.christoffels_fd(metric, x)
        assert np.allclose(got, expected, rtol=1e-7, atol=1e-8)


@pytest.mark.parametrize("kappa", [1.0, 2.0])
def test_sectional_curvature_of_ball(kappa):
    space = SpaceForm(dim=3, kappa=kappa)
    metric = ball_metric(kappa)
    rng = np.random.default_rng(55)
    for _ in range(4):
        x = rng.uniform(-0.35, 0.35, size=3)
        F = gram_schmidt_frame(space, x, seed=rng.normal(size=(3, 3)))
        for (i, j) in [(0, 1), (0, 2), (1, 2)]:
            K = fdcheck.sectional_fd(metric, x, F[i], F[j])
            assert np.isclose(K, -kappa**2, rtol=1e-6)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_ricci_of_ball(dim):
    kappa = 1.0
    space = SpaceForm(dim=dim, kappa=kappa)
    metric = ball_metric(kappa)
    x = np.full(dim, 0.22)
    ric = fdcheck.ricci_fd(metric, x)
    G = metric(x)  # the ball metric eye / w^2
    assert np.allclose(ric, -(dim - 1) * kappa**2 * G, rtol=1e-6, atol=1e-5)
    X = gram_schmidt_frame(space, x, seed=np.eye(dim))[0]
    assert np.isclose(fdcheck.ricci_quadratic_fd(metric, x, X), -(dim - 1), rtol=1e-6)


@pytest.mark.parametrize("label, space", checks._LAW_SPACES,
                         ids=[label for label, _ in checks._LAW_SPACES])
def test_stencil_riemann_matches_nested_differences(label, space):
    """The one-stencil tensor agrees with central differences of
    finite-difference Christoffel symbols, index conventions included, on
    random conformal factors over the law spaces."""
    m = space.dim
    rng = np.random.default_rng(60 + m + int(space.kappa))
    for _ in range(4):
        M = rng.normal(size=(m, m)) * 0.25
        u = ExpQuadraticField(a=rng.normal(size=m) * 0.25, B=0.5 * (M + M.T),
                              c=float(rng.normal() * 0.1))
        metric = coordinate_metric(space, u)
        x = rng.uniform(-0.3, 0.3, size=m)
        want = riemann_nested(metric, x)
        got = fdcheck.riemann_fd(metric, x)
        assert np.max(np.abs(got - want)) <= 2e-5 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [2, 3])
def test_batched_calls_equal_single_point_calls(m):
    """A (k, m) stack gives bitwise the single-point results; one point lies
    outside the unit cube, so the stack mixes step sizes."""
    metric = ball_metric(1.0)
    rng = np.random.default_rng(7 + m)
    pts = rng.uniform(-0.4, 0.4, size=(5, m))
    pts[2, 0] = 1.7
    Gam = fdcheck.christoffels_fd(metric, pts)
    assert Gam.shape == (5, m, m, m)
    for p, x in enumerate(pts):
        assert np.array_equal(Gam[p], fdcheck.christoffels_fd(metric, x))
    stack = fdcheck.christoffels_fd(metric, pts.reshape(1, 5, m))
    assert np.array_equal(stack[0], Gam)

    X, Y = rng.normal(size=(2, 5, m))
    R = fdcheck.riemann_fd(metric, pts)
    ric = fdcheck.ricci_fd(metric, pts)
    K = fdcheck.sectional_fd(metric, pts, X, Y)
    q = fdcheck.ricci_quadratic_fd(metric, pts, X)
    assert R.shape == (5, m, m, m, m) and ric.shape == (5, m, m)
    assert K.shape == q.shape == (5,)
    for p, x in enumerate(pts):
        assert np.array_equal(R[p], fdcheck.riemann_fd(metric, x))
        assert np.array_equal(ric[p], fdcheck.ricci_fd(metric, x))
        assert K[p] == fdcheck.sectional_fd(metric, x, X[p], Y[p])
        assert q[p] == fdcheck.ricci_quadratic_fd(metric, x, X[p])

    G = metric(pts)
    J = rng.normal(size=(5, m, m - 1))
    ref = rng.normal(size=(5, m))
    nu = fdcheck.metric_normal(G, J, ref)
    for p in range(5):
        assert np.array_equal(nu[p], fdcheck.metric_normal(G[p], J[p], ref[p]))

    chart, dchart, d2chart = circle_chart(0.8) if m == 2 else sphere_chart(0.3)
    th = rng.uniform(0.4, 2.7, size=(5, m - 1))
    H, nus = fdcheck.parametric_mean_curvature(metric, chart, dchart, d2chart, th, -chart(th))
    assert H.shape == (5,) and nus.shape == (5, m)
    for p, t in enumerate(th):
        H1, nu1 = fdcheck.parametric_mean_curvature(metric, chart, dchart, d2chart, t, -chart(t))
        assert H[p] == H1 and np.array_equal(nus[p], nu1)


def _svd_normal(G, J, ref):
    """The G-unit normal from the null vector of J^T G by singular value
    decomposition, oriented along ref: one point at a time."""
    nu = np.linalg.svd(J.T @ G)[2][-1]
    nu = nu / np.sqrt(nu @ G @ nu)
    return -nu if (G @ nu) @ ref < 0 else nu


@pytest.mark.parametrize("m", [2, 3, 4])
def test_metric_normal_matches_svd_reference(m):
    """The cofactor normal agrees with the SVD null vector, orientation
    included, on random metrics, tangent spaces and reference vectors."""
    rng = np.random.default_rng(40 + m)
    B = rng.normal(size=(20, m, m))
    G = B @ np.swapaxes(B, -1, -2) + 0.5 * np.eye(m)
    J = rng.normal(size=(20, m, m - 1))
    ref = rng.normal(size=(20, m))
    nu = fdcheck.metric_normal(G, J, ref)
    for p in range(20):
        want = _svd_normal(G[p], J[p], ref[p])
        assert np.allclose(nu[p], want, rtol=0.0, atol=1e-12), p
        assert np.all(np.abs(J[p].T @ G[p] @ nu[p]) < 1e-12)  # G-orthogonal to the span


def test_stacked_metric_normal_raises_on_any_degenerate_tangent_space():
    G = np.broadcast_to(np.eye(2), (3, 2, 2))
    J = np.zeros((3, 2, 2))
    J[:, 0, 0] = 1.0
    J[1, 1, 1] = 1.0  # the second tangent space spans the plane
    with pytest.raises(ValueError, match="degenerate tangent space"):
        fdcheck.metric_normal(G, J, np.ones((3, 2)))


def test_metric_normal_raises_on_rank_deficient_hypersurface_jacobian():
    # two parallel tangent vectors in R^3 leave a 2-D normal space
    J = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="degenerate tangent space"):
        fdcheck.metric_normal(np.eye(3), J, np.ones(3))
    stack = np.stack([np.eye(3)[:, :2], J, np.eye(3)[:, 1:]])
    G = np.broadcast_to(np.eye(3), (3, 3, 3))
    with pytest.raises(ValueError, match="degenerate tangent space"):
        fdcheck.metric_normal(G, stack, np.ones((3, 3)))
    nu = fdcheck.metric_normal(G[:2], stack[[0, 2]], np.ones((2, 3)))
    assert np.allclose(nu, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


def test_fd_gradient_and_hessian_on_polynomial():
    f = lambda x: x[0] ** 3 + 2.0 * x[0] * x[1] - x[1] ** 2
    x = np.array([0.7, -0.4])
    assert np.allclose(
        fd_gradient(f, x), [3 * 0.49 + 2 * (-0.4), 2 * 0.7 + 0.8], rtol=1e-8
    )
    assert np.allclose(
        fd_hessian(f, x), [[6 * 0.7, 2.0], [2.0, -2.0]], rtol=1e-6, atol=1e-6
    )


# ---------------------------------------------------------------------------
# parametric mean curvature
# ---------------------------------------------------------------------------


def circle_chart(rho):
    """Circle of radius rho at angles th (..., 1)."""
    chart = lambda th: rho * np.stack([np.cos(th[..., 0]), np.sin(th[..., 0])], axis=-1)
    dchart = lambda th: rho * np.stack([-np.sin(th[..., 0]), np.cos(th[..., 0])], axis=-1)[..., None]
    d2chart = lambda th: -chart(th)[..., None, None, :]
    return chart, dchart, d2chart


def sphere_chart(rho):
    """Sphere of radius rho at polar and azimuthal angles th (..., 2)."""

    def chart(th):
        t, p = th[..., 0], th[..., 1]
        return rho * np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1)

    def dchart(th):
        t, p = th[..., 0], th[..., 1]
        rows = [
            [np.cos(t) * np.cos(p), -np.sin(t) * np.sin(p)],
            [np.cos(t) * np.sin(p), np.sin(t) * np.cos(p)],
            [-np.sin(t), np.zeros_like(t)],
        ]
        return rho * np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)

    def d2chart(th):
        t, p = th[..., 0], th[..., 1]
        zero = np.zeros_like(t)
        dtt = rho * np.stack([-np.sin(t) * np.cos(p), -np.sin(t) * np.sin(p), -np.cos(t)], axis=-1)
        dtp = rho * np.stack([-np.cos(t) * np.sin(p), np.cos(t) * np.cos(p), zero], axis=-1)
        dpp = rho * np.stack([-np.sin(t) * np.cos(p), -np.sin(t) * np.sin(p), zero], axis=-1)
        return np.stack([np.stack([dtt, dtp], axis=-2), np.stack([dtp, dpp], axis=-2)], axis=-3)

    return chart, dchart, d2chart


def test_circle_mean_curvature_flat():
    rho = 0.8
    chart, dchart, d2chart = circle_chart(rho)
    metric = flat_metric(2)
    th = np.array([0.9])
    H, nu = fdcheck.parametric_mean_curvature(
        metric, chart, dchart, d2chart, th, inward_ref=-chart(th)
    )
    assert np.isclose(H, 1.0 / rho, rtol=1e-7)
    assert np.allclose(nu, -chart(th) / rho, atol=1e-9)
    # flipping the orientation flips the sign
    H_out, _ = fdcheck.parametric_mean_curvature(
        metric, chart, dchart, d2chart, th, inward_ref=chart(th)
    )
    assert np.isclose(H_out, -1.0 / rho, rtol=1e-7)


def test_sphere_mean_curvature_flat():
    rho = 1.3
    chart, dchart, d2chart = sphere_chart(rho)
    metric = flat_metric(3)
    for th in ([1.1, 0.4], [0.7, 2.0]):
        th = np.array(th)
        H, _ = fdcheck.parametric_mean_curvature(
            metric, chart, dchart, d2chart, th, inward_ref=-chart(th)
        )
        assert np.isclose(H, 2.0 / rho, rtol=1e-6)


def _sphere_mean_curvature_fd(metric, x):
    """parametric_mean_curvature on the coordinate sphere through x (..., 3),
    at the point's own angles: H and nu stacked into one array."""
    chart, dchart, d2chart = sphere_chart(0.3)
    th = np.stack([np.arccos(x[..., 2] / 0.3), np.arctan2(x[..., 1], x[..., 0])], axis=-1)
    H, nu = fdcheck.parametric_mean_curvature(metric, chart, dchart, d2chart, th, -chart(th))
    return np.concatenate([H[..., None], nu], axis=-1)


ONE_STENCIL = {
    "christoffels_fd": fdcheck.christoffels_fd,
    "riemann_fd": fdcheck.riemann_fd,
    "ricci_fd": fdcheck.ricci_fd,
    "sectional_fd": lambda metric, x: fdcheck.sectional_fd(metric, x, x + 1.0, x - 2.0),
    "ricci_quadratic_fd": lambda metric, x: fdcheck.ricci_quadratic_fd(metric, x, x + 1.0),
    "parametric_mean_curvature": _sphere_mean_curvature_fd,
}


@pytest.mark.parametrize("name", list(ONE_STENCIL))
def test_each_oracle_makes_one_metric_call_per_stack(name):
    """Every oracle reads the metric on one stencil, in one call for a whole
    stack of points, and gets the same bits as with the plain metric."""
    oracle = ONE_STENCIL[name]
    metric = ball_metric(1.0)
    calls = []

    def counting(y):
        calls.append(np.shape(y))
        return metric(y)

    x = 0.3 * np.array([[0.6, 0.0, 0.8], [0.0, -0.6, 0.8], [0.48, 0.6, 0.64]])
    got = oracle(counting, x)
    assert len(calls) == 1
    assert np.array_equal(got, oracle(metric, x))


def test_sphere_mean_curvature_hyperbolic():
    """Coordinate sphere of radius s about the origin: geodesic sphere of
    hyperbolic radius r = 2 artanh(s) (kappa = 1), inward H = 2 coth(r)."""
    s = 0.3
    chart, dchart, d2chart = sphere_chart(s)
    metric = ball_metric(1.0)
    r = 2.0 * np.arctanh(s)
    expected = 2.0 / np.tanh(r)
    for th in ([1.2, 0.5], [0.8, 1.9]):
        th = np.array(th)
        H, _ = fdcheck.parametric_mean_curvature(
            metric, chart, dchart, d2chart, th, inward_ref=-chart(th)
        )
        assert np.isclose(H, expected, rtol=1e-5)


def _imports(path):
    """Every module a source file imports, relative ones with their dots."""
    imported = []
    for node in ast.walk(ast.parse(Path(path).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    return imported


def test_fdcheck_imports_no_curvlab_module():
    """The oracle must stay independent of the formulas it audits."""
    imported = _imports(fdcheck.__file__)
    assert imported, "no imports found; is this the fdcheck source?"
    offending = [m for m in imported if m.startswith(".") or m.split(".")[0] == "curvlab"]
    assert not offending, f"fdcheck imports {offending}"


def test_references_import_numpy_only():
    """The tests' one-point oracles and curve sampler stay independent too."""
    assert _imports(Path(__file__).with_name("references.py")) == ["numpy"]
