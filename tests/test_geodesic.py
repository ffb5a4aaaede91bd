"""Free-boundary conformal-length minimization against closed-form lengths
and quadrature oracles."""

import csv

import numpy as np
import pytest
from scipy.integrate import quad

from curvlab import fdcheck
from curvlab.fields import BallFactorField, ConstantField, quartic_cutoff_profile
from curvlab.geodesic import (
    GeodesicProblem,
    endpoint_orthogonality,
    length_comparison,
    minimize_free_boundary,
    shortness_check,
    write_curve_csv,
    _coordinate_factor,
    _damped_newton_step,
    _energy,
    _energy_gradient,
    _energy_hessian_blocks,
    _newton_system,
    _retract,
    _upper_band,
)
from curvlab.hypersurface import example_fixture
from curvlab.spaceform import RadialField, SpaceForm


def test_energy_gradient_matches_fd():
    space = SpaceForm(2, 1.0)
    u = RadialField(space, np.zeros(2), quartic_cutoff_profile(3.0))
    problem = GeodesicProblem(space, u, endpoints=np.array([[-0.3, 0.1], [0.35, 0.2]]))
    rng = np.random.default_rng(12)
    curve = problem.initial_curve(8)
    pts = curve.points + rng.normal(scale=0.01, size=curve.points.shape)
    pts[0] = curve.points[0]
    pts[-1] = curve.points[-1]
    W = _coordinate_factor(problem)
    got = _energy_gradient(problem, W, pts)
    flat = pts.reshape(-1)

    def efun(z):
        return _energy(problem, W, z.reshape(pts.shape))

    ref = fdcheck.fd_gradient(efun, flat).reshape(pts.shape)
    assert np.allclose(got, ref, rtol=1e-6, atol=1e-7)


def _dense(diag, upper):
    """Symmetric block-tridiagonal matrix from its diagonal and upper blocks."""
    n_vert, dim = diag.shape[:2]
    H = np.zeros((n_vert * dim, n_vert * dim))
    for i in range(n_vert):
        H[i * dim:(i + 1) * dim, i * dim:(i + 1) * dim] = diag[i]
    for i in range(n_vert - 1):
        H[i * dim:(i + 1) * dim, (i + 1) * dim:(i + 2) * dim] = upper[i]
        H[(i + 1) * dim:(i + 2) * dim, i * dim:(i + 1) * dim] = upper[i].T
    return H


def _lens_problem(a=1.0, t_start=np.pi + 0.25, t_end=-0.2):
    fx = example_fixture("poincare-circles", a=a)
    seeds = np.stack(
        [
            fx.pieces[0].chart_points(np.array([t_start]))[0],
            fx.pieces[1].chart_points(np.array([t_end]))[0],
        ]
    )
    return GeodesicProblem(
        fx.space,
        ConstantField(1.0),
        piece_start=fx.pieces[0],
        piece_end=fx.pieces[1],
        endpoints=seeds,
    )


@pytest.mark.parametrize(
    "space, factor",
    [
        (SpaceForm(2, 1.0), lambda sp: RadialField(sp, np.array([0.1, -0.05]), quartic_cutoff_profile(3.0))),
        (SpaceForm(3, 0.0), lambda sp: BallFactorField(kappa=1.0)),
    ],
    ids=["hyperbolic-radial", "flat-ball-factor"],
)
def test_energy_hessian_blocks_match_fd(space, factor):
    dim = space.dim
    ends = np.array([[-0.3, 0.1, 0.05], [0.35, 0.2, -0.1]])[:, :dim]
    problem = GeodesicProblem(space, factor(space), endpoints=ends)
    rng = np.random.default_rng(5)
    pts = problem.initial_curve(6).points + rng.normal(scale=0.02, size=(7, dim))
    W = _coordinate_factor(problem)
    got = _dense(*_energy_hessian_blocks(problem, W, pts))
    ref = fdcheck.fd_hessian(lambda z: _energy(problem, W, z.reshape(pts.shape)), pts.ravel())
    assert np.allclose(got, ref, rtol=1e-6, atol=1e-5 * np.max(np.abs(ref)))


def test_endpoint_blocks_match_fd_of_retracted_energy():
    """In tangent coordinates at the sliding endpoints, the modified blocks
    are the Hessian of E(retract(x + B z)) and the gradient is its gradient."""
    problem = _lens_problem(a=1.0)
    pts = _retract(problem, problem.initial_curve(6).points.copy())
    W = _coordinate_factor(problem)
    grad, diag, upper = _newton_system(problem, W, pts)
    n_vert, dim = pts.shape
    normals = [problem.piece_start.euclid_unit_normal(pts[0]),
               problem.piece_end.euclid_unit_normal(pts[-1])]
    cols = []
    for i in range(n_vert):
        if i in (0, n_vert - 1):
            nu = normals[0 if i == 0 else 1]
            dirs = [np.array([-nu[1], nu[0]])]
        else:
            dirs = list(np.eye(dim))
        for v in dirs:
            col = np.zeros((n_vert, dim))
            col[i] = v
            cols.append(col.ravel())
    B = np.stack(cols, axis=1)

    def reduced(z):
        return _energy(problem, W, _retract(problem, (pts.ravel() + B @ z).reshape(pts.shape)))

    z0 = np.zeros(B.shape[1])
    H_ref = fdcheck.fd_hessian(reduced, z0)
    H = _dense(diag, upper)
    assert np.allclose(B.T @ H @ B, H_ref, rtol=1e-5, atol=1e-5 * np.max(np.abs(H_ref)))
    assert np.allclose(B.T @ grad.ravel(), fdcheck.fd_gradient(reduced, z0), rtol=1e-6, atol=1e-7)
    # the normal direction is decoupled and carries no gradient
    for idx, nu in ((0, normals[0]), (-1, normals[1])):
        assert np.allclose(diag[idx] @ nu, nu, atol=1e-12)
        assert abs(grad[idx] @ nu) < 1e-12
    assert np.allclose(upper[0].T @ normals[0], 0.0, atol=1e-12)
    assert np.allclose(upper[-1] @ normals[1], 0.0, atol=1e-12)


def test_fixed_endpoint_blocks_are_decoupled():
    space = SpaceForm(2, 0.0)
    problem = GeodesicProblem(space, BallFactorField(kappa=1.0),
                              endpoints=np.array([[-0.3, 0.1], [0.4, 0.2]]))
    pts = problem.initial_curve(8).points
    grad, diag, upper = _newton_system(problem, _coordinate_factor(problem), pts)
    for idx in (0, -1):
        assert np.array_equal(diag[idx], np.eye(2))
        assert np.array_equal(upper[idx], np.zeros((2, 2)))
        assert np.array_equal(grad[idx], np.zeros(2))


def test_free_boundary_newton_step_stays_on_surfaces():
    problem = _lens_problem(a=1.0, t_start=np.pi + 0.4, t_end=-0.3)
    pts = _retract(problem, problem.initial_curve(16).points.copy())
    grad, diag, upper = _newton_system(problem, _coordinate_factor(problem), pts)
    step, _ = _damped_newton_step(_upper_band(diag, upper), grad, 1e-3)
    for idx, piece in ((0, problem.piece_start), (-1, problem.piece_end)):
        nu = piece.euclid_unit_normal(pts[idx])
        assert abs(step[idx] @ nu) <= 1e-12 * np.linalg.norm(step[idx])
        assert np.linalg.norm(step[idx]) > 0.0
    res = minimize_free_boundary(problem, n_segments=64, max_iter_per_level=1)
    for idx, piece in ((0, problem.piece_start), (-1, problem.piece_end)):
        assert abs(float(piece.F(res.curve.points[idx]))) < 1e-12


def test_lens_solve_work_guard():
    """The 256-segment a = 1 lens solve takes tens of Newton steps; a
    first-order method needs thousands, so this bound exposes a regression."""
    res = minimize_free_boundary(_lens_problem(a=1.0), n_segments=256)
    assert res.converged
    assert res.level_stops == ["gtol"] * len(res.level_sizes)
    assert len(res.level_iterations) == len(res.level_sizes)
    assert res.iterations == sum(res.level_iterations)
    assert res.iterations <= 200


def test_slab_minimizer_finds_common_perpendicular():
    fx = example_fixture("euclid-slab", d=1.0, dim=3)
    problem = GeodesicProblem(
        fx.space,
        ConstantField(1.0),
        piece_start=fx.pieces[1],
        piece_end=fx.pieces[0],
        endpoints=np.array([[-0.5, 0.3, 0.1], [0.5, -0.2, 0.25]]),
    )
    res = minimize_free_boundary(problem, n_segments=128)
    assert res.converged
    assert np.isclose(res.tilde_length, 1.0, rtol=1e-6)
    # the minimizer is a straight segment perpendicular to both planes:
    # its transverse coordinates are constant along the curve
    spread = np.max(res.curve.points[:, 1:], axis=0) - np.min(res.curve.points[:, 1:], axis=0)
    assert np.all(spread < 1e-5)
    orth = endpoint_orthogonality(problem, res.curve)
    assert np.allclose(orth, 1.0, atol=1e-6)


def test_equidistant_minimizer_recovers_axis_distance():
    fx = example_fixture("poincare-circles", a=1.0)
    # the distance between two equidistant circles is realized by every
    # geodesic perpendicular to their common mirror line, so the minimum is
    # degenerate; seed asymmetrically and check the invariants any member
    # of the minimizing family must satisfy
    seeds = np.stack(
        [
            fx.pieces[0].chart_points(np.array([np.pi + 0.25]))[0],
            fx.pieces[1].chart_points(np.array([-0.2]))[0],
        ]
    )
    problem = GeodesicProblem(
        fx.space,
        ConstantField(1.0),
        piece_start=fx.pieces[0],
        piece_end=fx.pieces[1],
        endpoints=seeds,
    )
    res = minimize_free_boundary(problem, n_segments=128)
    assert res.converged
    assert np.isclose(res.tilde_length, fx.distance, rtol=2e-4)
    p, q = res.curve.points[0], res.curve.points[-1]
    # endpoints are mirror images across the line the circles equidistance
    assert abs(p[0] + q[0]) < 2e-3
    assert abs(p[1] - q[1]) < 2e-3
    # the segment realizes the ambient distance between its own endpoints
    assert np.isclose(res.tilde_length, float(fx.space.distance(p, q)), rtol=2e-4)
    orth = endpoint_orthogonality(problem, res.curve)
    assert np.allclose(orth, 1.0, atol=1e-4)


def test_radial_bump_slab_against_quadrature():
    """Flat slab with a radial cutoff factor: the minimizer is the axis
    segment, and its conformal length is a plain one-dimensional integral."""
    fx = example_fixture("euclid-slab", d=1.2, dim=2)
    space = fx.space
    u = RadialField(space, np.zeros(2), quartic_cutoff_profile(2.0))
    problem = GeodesicProblem(
        space,
        u,
        piece_start=fx.pieces[1],
        piece_end=fx.pieces[0],
        endpoints=np.array([[-0.6, 0.2], [0.6, -0.1]]),
    )
    res = minimize_free_boundary(problem, n_segments=512, gtol=1e-8)
    oracle, err = quad(lambda t: 1.0 / (1.0 - t * t / 4.0) ** 2, -0.6, 0.6)
    assert err < 1e-10
    assert res.converged
    assert np.isclose(res.tilde_length, oracle, rtol=1e-5)
    assert np.max(np.abs(res.curve.points[:, 1])) < 1e-6

    comp = length_comparison(problem, res)
    assert comp.ordered
    assert comp.g_length <= comp.tilde_length <= comp.tilde_length_seed + 1e-9

    short = shortness_check(problem, res.curve, mu0=0.6)
    assert short.ok
    assert np.isclose(short.sup_deviation, 1.0 / u.value(np.array([0.6, 0.0])) - 1.0, rtol=1e-6)


def test_fixed_endpoints_reproduce_hyperbolic_distance():
    """g flat, u the ball factor: the fixed-endpoint minimizer length must
    match the closed-form ball-model distance."""
    space = SpaceForm(2, 0.0)
    u = BallFactorField(kappa=1.0)
    p = np.array([-0.3, 0.1])
    q = np.array([0.4, 0.2])
    problem = GeodesicProblem(space, u, endpoints=np.stack([p, q]))
    res = minimize_free_boundary(problem, n_segments=256)
    exact = float(SpaceForm(2, 1.0).distance(p, q))
    assert res.converged
    assert np.isclose(res.tilde_length, exact, rtol=1e-4)
    assert np.allclose(res.curve.points[0], p)
    assert np.allclose(res.curve.points[-1], q)


def test_nonconvergence_reported():
    fx = example_fixture("poincare-circles", a=1.0)
    seeds = np.stack(
        [
            fx.pieces[0].chart_points(np.array([np.pi + 0.4]))[0],
            fx.pieces[1].chart_points(np.array([-0.3]))[0],
        ]
    )
    problem = GeodesicProblem(
        fx.space,
        ConstantField(1.0),
        piece_start=fx.pieces[0],
        piece_end=fx.pieces[1],
        endpoints=seeds,
    )
    res = minimize_free_boundary(problem, n_segments=64, max_iter_per_level=1)
    assert not res.converged
    assert "max-iter" in res.level_stops


def test_problem_validation():
    space = SpaceForm(2, 0.0)
    with pytest.raises(ValueError):
        GeodesicProblem(space, ConstantField(1.0))


def test_write_curve_csv(tmp_path):
    space = SpaceForm(2, 0.0)
    u = BallFactorField(kappa=1.0)
    problem = GeodesicProblem(space, u, endpoints=np.array([[-0.2, 0.0], [0.3, 0.1]]))
    curve = problem.initial_curve(16)
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve, u)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "x0", "x1", "s", "s_tilde", "u"]
    assert len(rows) == 18
    s_vals = [float(r[3]) for r in rows[1:]]
    assert s_vals[0] == 0.0
    assert np.all(np.diff(s_vals) > 0)
