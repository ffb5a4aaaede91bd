"""Free-boundary conformal-length minimization against closed-form lengths
and quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solveh_banded

from curvlab import checks, cli, geodesic
from curvlab.fields import BallFactorField, ConstantField, QuarticCutoff
from curvlab.geodesic import (
    GeodesicProblem,
    endpoint_orthogonality,
    minimize_free_boundary,
    _coordinate_factor,
    _cyclic_reduction_solve,
    _damped_newton_step,
    _energy,
    _energy_gradient,
    _energy_hessian_blocks,
    _newton_system,
    _retract,
)
from curvlab.hypersurface import ProjectionError, example_fixture
from curvlab.spaceform import RadialField, SpaceForm, mobius_add, mobius_center
from references import fd_gradient, fd_hessian


def _midpoint_factor(W, points):
    mids = 0.5 * (points[1:] + points[:-1])
    return W.value(mids), W.gradient(mids), W.hessian(mids)


def test_energy_gradient_matches_fd():
    space = SpaceForm(2, 1.0)
    u = RadialField(space, np.zeros(2), QuarticCutoff(3.0))
    problem = GeodesicProblem(space, u, endpoints=np.array([[-0.3, 0.1], [0.35, 0.2]]))
    rng = np.random.default_rng(12)
    curve = problem.initial_curve(8)
    pts = curve.points + rng.normal(scale=0.01, size=curve.points.shape)
    pts[0] = curve.points[0]
    pts[-1] = curve.points[-1]
    W = _coordinate_factor(problem)
    got = _energy_gradient(pts, *_midpoint_factor(W, pts)[:2])
    flat = pts.reshape(-1)

    def efun(z):
        return _energy(problem, W, z.reshape(pts.shape))

    ref = fd_gradient(efun, flat).reshape(pts.shape)
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


def _upper_band(diag, upper):
    """Upper banded storage (``solveh_banded``) of the symmetric
    block-tridiagonal matrix with the given diagonal and super-diagonal."""
    n_vert, dim = diag.shape[0], diag.shape[1]
    u = 2 * dim - 1
    ab = np.zeros((u + 1, n_vert * dim))
    for k in range(dim):
        for l in range(dim):
            if k <= l:
                ab[u + k - l, l::dim] = diag[:, k, l]
            ab[u + k - l - dim, dim + l::dim] = upper[:, k, l]
    return ab


def _random_blocks(rng, n, dim, fixed_ends=False):
    """Symmetric block-tridiagonal blocks, shifted to be positive definite
    and well conditioned; with ``fixed_ends`` the end blocks are the identity
    and uncoupled, as for fixed endpoints."""
    upper = rng.normal(size=(n - 1, dim, dim))
    B = rng.normal(size=(n, dim, dim))
    diag = B @ B.transpose(0, 2, 1) + 4.0 * dim * np.eye(dim)
    if fixed_ends and n > 1:
        diag[[0, -1]] = np.eye(dim)
        upper[[0, -1]] = 0.0
    return diag, upper


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 33, 257, 513])
@pytest.mark.parametrize("fixed_ends", [False, True], ids=["coupled-ends", "fixed-ends"])
def test_cyclic_reduction_matches_dense_and_banded_solves(n, dim, fixed_ends):
    rng = np.random.default_rng(1000 * n + 10 * dim + fixed_ends)
    diag, upper = _random_blocks(rng, n, dim, fixed_ends)
    b = rng.normal(size=(n, dim))
    got = _cyclic_reduction_solve(diag, upper, b[:, :, None])[:, :, 0]
    dense = np.linalg.solve(_dense(diag, upper), b.ravel()).reshape(n, dim)
    banded = solveh_banded(_upper_band(diag, upper), b.ravel()).reshape(n, dim)
    # the condition numbers stay below 40, so both references agree with
    # the solve to a few hundred ulps
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(got - dense)) <= 1e-13 * scale
    assert np.max(np.abs(got - banded)) <= 1e-13 * scale
    if fixed_ends and n > 1:
        assert np.array_equal(got[[0, -1]], b[[0, -1]])


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 33, 257, 513])
def test_cyclic_reduction_rejects_exactly_the_indefinite_systems(n, dim):
    """Shift a positive definite system by multiples of its smallest
    eigenvalue: the solve raises LinAlgError exactly when dense Cholesky does,
    and the damped step raises lam to the first power of ten it accepts."""
    rng = np.random.default_rng(7 * n + dim)
    diag, upper = _random_blocks(rng, n, dim)
    lam_min = np.linalg.eigvalsh(_dense(diag, upper))[0]
    b = rng.normal(size=(n, dim, 1))
    for t in (0.5, 0.99, 1.01, 2.0, 10.0):
        shifted = diag - t * lam_min * np.eye(dim)
        try:
            np.linalg.cholesky(_dense(shifted, upper))
            dense_ok = True
        except np.linalg.LinAlgError:
            dense_ok = False
        assert dense_ok == (t < 1.0)
        if dense_ok:
            _cyclic_reduction_solve(shifted, upper, b)
        else:
            with pytest.raises(np.linalg.LinAlgError):
                _cyclic_reduction_solve(shifted, upper, b)

    shifted = diag - 2.0 * lam_min * np.eye(dim)
    h = np.max(np.abs(np.diagonal(shifted, axis1=1, axis2=2)))
    lam = 1e-6
    while True:
        try:
            np.linalg.cholesky(_dense(shifted, upper) + lam * h * np.eye(n * dim))
            break
        except np.linalg.LinAlgError:
            lam *= 10.0
    step, got_lam = _damped_newton_step(shifted, upper, b[:, :, 0], 1e-6)
    assert got_lam == lam
    H = _dense(shifted, upper) + lam * h * np.eye(n * dim)
    assert np.allclose(step.ravel(), np.linalg.solve(H, -b.ravel()), rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 33, 257, 513])
def test_cyclic_reduction_work_guard(n, monkeypatch):
    """One batched Cholesky per reduction level plus one for the last block."""
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape[0])
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    diag, upper = _random_blocks(np.random.default_rng(n), n, 2)
    _cyclic_reduction_solve(diag, upper, np.ones((n, 2, 1)))
    assert len(calls) == math.ceil(math.log2(n)) + 1
    assert sum(calls) == n


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
        (SpaceForm(2, 1.0), lambda sp: RadialField(sp, np.array([0.1, -0.05]), QuarticCutoff(3.0))),
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
    got = _dense(*_energy_hessian_blocks(pts, *_midpoint_factor(W, pts)))
    ref = fd_hessian(lambda z: _energy(problem, W, z.reshape(pts.shape)), pts.ravel())
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
    H_ref = fd_hessian(reduced, z0)
    H = _dense(diag, upper)
    assert np.allclose(B.T @ H @ B, H_ref, rtol=1e-5, atol=1e-5 * np.max(np.abs(H_ref)))
    assert np.allclose(B.T @ grad.ravel(), fd_gradient(reduced, z0), rtol=1e-6, atol=1e-7)
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


def test_free_boundary_newton_step_stays_on_surfaces(monkeypatch):
    problem = _lens_problem(a=1.0, t_start=np.pi + 0.4, t_end=-0.3)
    pts = _retract(problem, problem.initial_curve(16).points.copy())
    grad, diag, upper = _newton_system(problem, _coordinate_factor(problem), pts)
    step, _ = _damped_newton_step(diag, upper, grad, 1e-3)
    for idx, piece in ((0, problem.piece_start), (-1, problem.piece_end)):
        nu = piece.euclid_unit_normal(pts[idx])
        assert abs(step[idx] @ nu) <= 1e-12 * np.linalg.norm(step[idx])
        assert np.linalg.norm(step[idx]) > 0.0
    monkeypatch.setattr(geodesic, "MAX_ITER_PER_LEVEL", 1)
    res = minimize_free_boundary(problem, n_segments=64)
    for idx, piece in ((0, problem.piece_start), (-1, problem.piece_end)):
        assert abs(float(piece.F(res.curve.points[idx]))) < 1e-12


@pytest.mark.parametrize("R, x0", [(40.0, 10.0), (100.0, 10.0), (100.0, 20.0)])
def test_failed_trial_retraction_rejects_the_step(R, x0):
    """Log-graph with the cutoff at the origin: Newton steps carry the graph
    endpoint to x < 1, where the projection fails; those trials are
    rejected by Armijo and the solve converges."""
    fx = example_fixture("log-graph")
    graph, axis = fx.pieces
    seeds = np.stack([graph.chart_points(np.array([x0]))[0], np.array([x0, 0.0])])
    problem = GeodesicProblem(fx.space, RadialField(fx.space, np.zeros(2), QuarticCutoff(R)),
                              piece_start=graph, piece_end=axis, endpoints=seeds)
    res = minimize_free_boundary(problem, n_segments=128)
    assert res.converged
    assert res.level_stops == ["gtol"] * len(res.level_sizes)
    for idx, piece in ((0, graph), (-1, axis)):
        assert abs(float(piece.F(res.curve.points[idx]))) < 1e-12


@pytest.mark.parametrize("failure", ["raises", "non-finite"])
def test_line_search_stop_when_every_retraction_fails(failure, monkeypatch):
    problem = _lens_problem(a=1.0)

    def project(x):
        if failure == "raises":
            raise ProjectionError("surface projection did not converge")
        return np.full_like(x, np.nan)

    monkeypatch.setattr(problem.piece_end, "project", project)
    monkeypatch.setattr(geodesic, "COARSE_SEGMENTS", 32)
    res = minimize_free_boundary(problem, n_segments=32)
    assert not res.converged
    assert res.level_stops == ["line-search"]
    assert res.iterations == 0


def test_lens_solve_work_guard():
    """The three 256-segment sharp-lens solves cross their degenerate valleys
    on the 8-segment level in 66 Newton steps together; a 32-segment start
    took 171 and a first-order method thousands."""
    results = [checks._solve_lens(a, 256)[2] for a in (0.5, 1.0, 2.0)]
    for res in results:
        assert res.level_sizes[0] == 8
        assert res.level_stops == ["gtol"] * len(res.level_sizes)
        assert len(res.level_iterations) == len(res.level_sizes)
        assert res.iterations == sum(res.level_iterations)
    assert sum(res.iterations for res in results) <= 90


def _suite_solves(monkeypatch):
    """(problem, keyword arguments) of every solve the default suite makes."""
    calls = []

    def record(problem, **kwargs):
        calls.append((problem, kwargs))
        return minimize_free_boundary(problem, **kwargs)

    monkeypatch.setattr(checks, "minimize_free_boundary", record)
    cfg = cli.RunConfig()
    for cid in ("curve-shortness", "sharp-lens", "slab-perpendicular", "lens-distance",
                "planar-curvature-law"):
        checks.CHECKS[cid].fn(cli.CheckContext(cfg, cid))
    return calls


def _log_graph_chain(x_c):
    """Graph-to-axis solve of the log-graph fixture through a cutoff centred
    on the axis at x_c, with radius x_c / 2."""
    fx = example_fixture("log-graph")
    graph, axis = fx.pieces
    seeds = np.stack([graph.chart_points(np.array([x_c]))[0], np.array([x_c, 0.0])])
    u = RadialField(fx.space, np.array([x_c, 0.0]), QuarticCutoff(x_c / 2.0))
    problem = GeodesicProblem(fx.space, u, piece_start=graph, piece_end=axis, endpoints=seeds)
    return problem, {"n_segments": 512}


def test_ladder_start_does_not_move_the_minimizer(monkeypatch):
    """The 8-segment ladder start with per-level tolerances reaches the same
    minimizer as a 32-segment start, on every solve of the suite and on
    log-graph chains."""
    cases = _suite_solves(monkeypatch)
    assert len(cases) == 7
    cases += [_log_graph_chain(x_c) for x_c in (50.0, 400.0, 3000.0, 20000.0)]
    for problem, kwargs in cases:
        default = minimize_free_boundary(problem, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(geodesic, "COARSE_SEGMENTS", 32)
            start32 = minimize_free_boundary(problem, **kwargs)
        for res in (default, start32):
            assert res.level_stops == ["gtol"] * len(res.level_sizes)
        assert abs(default.g_length - start32.g_length) <= 1e-9 * start32.g_length


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
    u = RadialField(space, np.zeros(2), QuarticCutoff(2.0))
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

    seed_length, ordered = checks._length_ordering(problem, res)
    assert seed_length == problem.initial_curve(512).tilde_length(u)
    assert ordered
    assert res.g_length <= res.tilde_length <= seed_length + 1e-9

    # sup |u/u(p) - 1| along the curve against the 5/2 mu0 budget, mu0 = 0.6
    uv = u.value(res.curve.points)
    sup_deviation = np.max(np.abs(uv / uv[0] - 1.0))
    assert sup_deviation <= 2.5 * 0.6
    assert np.isclose(sup_deviation, 1.0 / u.value(np.array([0.6, 0.0])) - 1.0, rtol=1e-6)


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


@pytest.mark.parametrize("n_segments", [8, 256])
def test_ball_initial_curve_matches_the_per_point_loop(n_segments):
    """Bitwise: the broadcast seed polyline on the ball equals the one built
    one mobius_add call per vertex, on the lens seeds and random endpoints."""
    rng = np.random.default_rng(61)
    cases = []
    for a in (0.5, 1.0, 2.0):
        fx = example_fixture("poincare-circles", a=a)
        cases.append((fx.space, np.stack([fx.pieces[0].chart_points(np.array([np.pi + 0.25]))[0],
                                          fx.pieces[1].chart_points(np.array([-0.2]))[0]])))
    for dim, kappa in ((2, 1.0), (3, 1.0), (3, 2.0)):
        cases.append((SpaceForm(dim, kappa), rng.uniform(-0.5, 0.5, size=(2, dim))))
    for space, ends in cases:
        problem = GeodesicProblem(space, ConstantField(1.0), endpoints=ends)
        p, q = problem.endpoints
        q0 = mobius_center(problem.space, p, q)
        rr = np.linalg.norm(q0)
        radii = np.tanh(np.linspace(0.0, 1.0, n_segments + 1) * np.arctanh(rr))
        ref = np.array([mobius_add(p, r * (q0 / rr)) for r in radii])
        ref[0], ref[-1] = p, q
        assert np.array_equal(problem.initial_curve(n_segments).points, ref)


def test_nonconvergence_reported(monkeypatch):
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
    monkeypatch.setattr(geodesic, "MAX_ITER_PER_LEVEL", 1)
    res = minimize_free_boundary(problem, n_segments=64)
    assert not res.converged
    assert "max-iter" in res.level_stops


def test_problem_validation():
    """Endpoints are required: fixed ends, or seeds for the two pieces."""
    space = SpaceForm(2, 0.0)
    with pytest.raises(TypeError):
        GeodesicProblem(space, ConstantField(1.0))
