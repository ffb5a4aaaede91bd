"""The verification checks and their registry.

A check is a callable ``fn(ctx)`` registered in ``CHECKS`` under its id.
The context gives it that id (``ctx.cid``), a generator seeded from the run
seed and the id (``ctx.rng()``), grid sizes (``ctx.grid``) and the results
the run's checks share (``ctx.once``, for a solve or a trace that two checks
read). It returns one report whose ``check`` is the id, or, for a decay
scan, the pair (report, columns): the annulus infima judged against an
envelope computed here, and the table ``cli`` writes (R, inf1, inf2, sum,
envelope, slack). A report's inputs determine the seed and every grid size
it reads, so its ``inputs_digest`` moves with them. Every fixture
and pass allowance is fixed here; no run configuration can change one.

Most reports use a normalized convention: lhs is the worst observed error
divided by its allowance, rhs is 1, so slack > 0 means every sub-check
passed with room to spare.  The estimate checks keep their natural
inequality sides instead.
"""

from functools import partial
from typing import Callable

import numpy as np

from . import conformal, estimates, fdcheck
from .curves import DiscreteCurve, fornberg_weights
from .estimates import (
    annulus_infima,
    decay_scan,
    elementary_inequalities,
    main_estimate_euclid,
    main_estimate_hyperbolic,
    sharpness_gap,
    theorem_bound,
)
from .fields import BallFactorField, ConstantField, ExpQuadraticField, QuarticCutoff
from .geodesic import GeodesicProblem, endpoint_orthogonality, minimize_free_boundary
from .hypersurface import example_fixture, geodesic_sphere
from .report import NonConvergence, VerificationReport
from .spaceform import RadialField, SpaceForm, gram_schmidt_frame
from .variation import (
    PHI_GRID_POINTS,
    CoshWeight,
    crucial_bounds_scan,
    index_form_trace,
    phi_calculus,
    tanh_boundary_identity,
)


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------

# slack floor of the ratio and estimate reports (and of the runner's ERROR report)
SLACK_FLOOR = 1e-9
# relative error allowed against a finite-difference oracle
FD_REL = 1e-4


def _ratio_report(check, parts, *, inputs=None, grid=None):
    """Report over named (observed, allowed) error pairs.

    lhs is the worst observed/allowed ratio, rhs is 1; the check passes when
    every observed error stays within its allowance. A non-finite observed
    error fails the check (lhs = inf) and is named under ``non_finite_parts``.
    """
    worst = 0.0
    detail = {}
    non_finite = []
    for name, (observed, allowed) in parts.items():
        if not allowed > 0.0:
            raise ValueError(f"part {name!r} needs a positive allowance")
        if not np.isfinite(observed):
            non_finite.append(name)
        worst = max(worst, float(observed) / float(allowed))
        detail[name] = {"observed": float(observed), "allowed": float(allowed)}
    meta = {"parts": detail}
    if non_finite:
        worst = np.inf
        meta["non_finite_parts"] = non_finite
    if grid:
        meta.update(grid)
    return VerificationReport(check, worst, 1.0, tolerance=SLACK_FLOOR, inputs=inputs, grid=meta)


def _flag(condition):
    """Boolean sub-check as an error pair: 0 when satisfied, 1 when not."""
    return (0.0 if condition else 1.0, 0.5)


def _rel_err(got, ref):
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)))


def _require_converged(cid, res, where=""):
    """Raise NonConvergence naming the first solver level that missed gtol."""
    if res.converged:
        return
    i = next(i for i, stop in enumerate(res.level_stops) if stop != "gtol")
    raise NonConvergence(
        cid,
        f"{where}level {i} ({res.level_sizes[i]} segments) stopped on "
        f"{res.level_stops[i]} after {res.level_iterations[i]} iterations; "
        f"final gradient {res.grad_norm:.2e}",
    )


def _length_ordering(problem, res):
    """(L-tilde of the seed path, ordered) for L <= L-tilde <= L-tilde(seed
    path), each within 1e-7 max(1, L-tilde): the first needs u <= 1, the
    second is minimality against the ambient-geodesic competitor."""
    seed = problem.initial_curve(max(res.curve.n_segments, 256))
    Lt_seed = seed.tilde_length(problem.u)
    Lt = res.tilde_length
    tol = 1e-7 * max(1.0, Lt)
    return Lt_seed, (res.g_length <= Lt + tol) and (Lt <= Lt_seed + tol)


def _solver_grid(res):
    """Deterministic solver facts for a report grid."""
    return {
        "iterations": res.iterations,
        "level_iterations": res.level_iterations,
        "level_stops": res.level_stops,
    }


_LAW_SPACES = (
    ("flat3", SpaceForm(3, 0.0)),
    ("ball3", SpaceForm(3, 1.0)),
    ("ball2k2", SpaceForm(2, 2.0)),
)


def _factor_draw(rng, samples, dim, scale=0.25):
    """(a, B, c) of ``samples`` random ExpQuadraticFields, stacked: a (S, m),
    symmetric B (S, m, m) and c (S,), one generator call each."""
    a = rng.normal(size=(samples, dim)) * scale
    M = rng.normal(size=(samples, dim, dim)) * scale
    c = rng.normal(size=samples) * 0.1
    return a, 0.5 * (M + np.swapaxes(M, -1, -2)), c


# ---------------------------------------------------------------------------
# conformal suite: transformation laws against finite differences
# ---------------------------------------------------------------------------


FD_BLOCK = 128  # samples that go through formula and oracle at once


def _fd_law_check(ctx, draw, errors, spaces=_LAW_SPACES, **inputs):
    """Worst relative error of a transformation law against its fdcheck
    oracle, per space over ``samples`` random draws. draw(rng, space,
    samples) returns the stacks, one generator call per quantity, and
    errors(space, *block) evaluates them FD_BLOCK samples at a time, so the
    working set stays flat as ``samples`` grows; a sample's error has the
    same bits in any block."""
    rng = ctx.rng()
    samples = ctx.grid("samples")
    per = {}
    for label, space in spaces:
        stacks = draw(rng, space, samples)
        errs = [errors(space, *(s[i:i + FD_BLOCK] for s in stacks))
                for i in range(0, samples, FD_BLOCK)]
        # np.max, unlike max(), propagates a NaN sample error
        per[label] = float(np.max(np.concatenate(errs)))
    return _ratio_report(
        ctx.cid,
        {"fd_relative_error": (float(np.max(list(per.values()))), FD_REL)},
        inputs={"samples": samples, "seed": ctx.cfg.seed, **inputs},
        grid={"per_space": per},
    )


def _relative(got, ref):
    return np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)


def _connection_draw(rng, space, samples):
    """Stacked factor parameters (a, B, c), points and vector pairs."""
    m = space.dim
    a, B, c = _factor_draw(rng, samples, m)
    x = rng.uniform(-0.3, 0.3, size=(samples, m))
    X = rng.normal(size=(samples, m))
    Y = rng.normal(size=(samples, m))
    return a, B, c, x, X, Y


def _connection_error(space, a, B, c, x, X, Y):
    u = ExpQuadraticField(a, B, c)
    metric = conformal.coordinate_metric(space, u)
    flat_metric = conformal.coordinate_metric(space, ConstantField(1.0))
    gap = fdcheck.christoffels_fd(metric, x) - fdcheck.christoffels_fd(flat_metric, x)
    ref = np.einsum("...kij,...i,...j->...k", gap, X, Y)
    got = conformal.connection_difference(space, u, x, X, Y)
    return np.linalg.norm(got - ref, axis=-1) / np.maximum(np.linalg.norm(ref, axis=-1), 1.0)


def _frame_draw(rng, space, samples):
    """Stacked factor parameters (a, B, c), points and g-orthonormal frames
    (samples, m, m), one generator call per quantity."""
    m = space.dim
    a, B, c = _factor_draw(rng, samples, m)
    x = rng.uniform(-0.3, 0.3, size=(samples, m))
    seed = rng.normal(size=(samples, m, m))
    return a, B, c, x, gram_schmidt_frame(space, x, seed=seed)


def _sectional_error(space, a, B, c, x, F):
    u = ExpQuadraticField(a, B, c)
    got = conformal.sectional_numerator(space, u, x, F[:, 0], F[:, 1])
    uv = u.value(x)[:, None]
    ref = fdcheck.sectional_fd(conformal.coordinate_metric(space, u), x, uv * F[:, 0], uv * F[:, 1])
    return _relative(got, ref)


def _ricci_error(space, a, B, c, x, F):
    u = ExpQuadraticField(a, B, c)
    got = conformal.ricci_formula(space, u, x, F[:, 0])
    uv = u.value(x)[:, None]
    ref = fdcheck.ricci_quadratic_fd(conformal.coordinate_metric(space, u), x, uv * F[:, 0])
    return _relative(got, ref)


_SPHERE_RADIUS = 0.35


def _sphere_chart(s):
    """Coordinate sphere of radius s: chart, Jacobian (..., 3, 2) and second
    derivatives (..., 2, 2, 3) at polar and azimuthal angles th (..., 2)."""

    def chart(th):
        t, p = th[..., 0], th[..., 1]
        return s * np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1)

    def dchart(th):
        t, p = th[..., 0], th[..., 1]
        rows = [
            [np.cos(t) * np.cos(p), -np.sin(t) * np.sin(p)],
            [np.cos(t) * np.sin(p), np.sin(t) * np.cos(p)],
            [-np.sin(t), np.zeros_like(t)],
        ]
        return s * np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)

    def d2chart(th):
        t, p = th[..., 0], th[..., 1]
        dtt = s * np.stack([-np.sin(t) * np.cos(p), -np.sin(t) * np.sin(p), -np.cos(t)], axis=-1)
        dtp = s * np.stack([-np.cos(t) * np.sin(p), np.cos(t) * np.cos(p), np.zeros_like(t)], axis=-1)
        dpp = s * np.stack([-np.sin(t) * np.cos(p), -np.sin(t) * np.sin(p), np.zeros_like(t)], axis=-1)
        return np.stack([np.stack([dtt, dtp], axis=-2), np.stack([dtp, dpp], axis=-2)], axis=-3)

    return chart, dchart, d2chart


def _sphere_draw(rng, space, samples):
    """Stacked factor parameters (a, B, c) and sphere chart angles."""
    a, B, c = _factor_draw(rng, samples, 3, scale=0.2)
    # polar angle in [0.4, 2.7), azimuth in [0, 2 pi)
    th = rng.uniform((0.4, 0.0), (2.7, 2.0 * np.pi), size=(samples, 2))
    return a, B, c, th


def _mean_curvature_error(space, a, B, c, th):
    s = _SPHERE_RADIUS
    chart, dchart, d2chart = _sphere_chart(s)
    if space.hyperbolic:
        H_g = 2.0 / np.tanh(2.0 * np.arctanh(s))
    else:
        H_g = 2.0 / s
    u = ExpQuadraticField(a, B, c)
    metric = conformal.coordinate_metric(space, u)
    x = chart(th)
    nu_g = -x / s * space.ambient_factor(x)[:, None]
    got = conformal.mean_curvature_formula(space, u, x, H_g=H_g, nu=nu_g)
    ref, _ = fdcheck.parametric_mean_curvature(
        metric, chart, dchart, d2chart, th, inward_ref=-x
    )
    return _relative(got, ref)


def _check_mean_curvature_law(ctx):
    """Random factor over flat and hyperbolic backgrounds: the pointwise
    mean-curvature law against a second-fundamental-form computation in
    the rescaled coordinate metric, on a fixed coordinate sphere."""
    return _fd_law_check(ctx, _sphere_draw, _mean_curvature_error, _LAW_SPACES[:2],
                         sphere_radius=_SPHERE_RADIUS)


def _check_poincare_recovery(ctx):
    """The ball factor over a flat background must reproduce the constant
    curvature model: Ricci -(dim-1) everywhere, and the geodesic spheres of
    the hyperbolic ambient have mean curvature n + 2n/(e^{2R}-1), both as
    computed from the implicit surface and as the pieces' ``h_exact``."""
    rng = ctx.rng()
    worst_ric = 0.0
    for dim in (2, 3, 4):
        space = SpaceForm(dim, 0.0)
        u = BallFactorField(kappa=1.0)
        n_pts = max(8, ctx.grid("samples") // 5)
        x = rng.uniform(-0.6, 0.6, size=(n_pts, dim))
        seed = rng.normal(size=(n_pts, dim, dim))
        # pull the points outside radius 0.85 back onto that sphere
        r = np.linalg.norm(x, axis=-1)
        far = r > 0.85
        x[far] *= 0.85 / r[far, None]
        F = gram_schmidt_frame(space, x, seed=seed)
        # every frame vector, each at its own point
        ric = conformal.ricci_formula(space, u, np.repeat(x, dim, axis=0), F.reshape(-1, dim))
        worst_ric = np.maximum(worst_ric, np.max(np.abs(ric + (dim - 1))))
    worst_sph = 0.0
    worst_h_exact = 0.0
    for dim in (2, 3):
        space = SpaceForm(dim, 1.0)
        for R in (0.5, 1.0, 2.0):
            sph = geodesic_sphere(space, R)
            ts = np.linspace(0.2, 1.2, 5)
            H = np.asarray(sph.mean_curvature(sph.chart_points(ts)), dtype=float)
            n = dim - 1
            exact = n + 2.0 * n / np.expm1(2.0 * R)
            worst_sph = np.maximum(worst_sph, np.max(np.abs(H - exact)))
            worst_h_exact = np.maximum(worst_h_exact, np.max(np.abs(sph.h_exact(ts) - H)))
    return _ratio_report(
        ctx.cid,
        {
            "ricci_constant_error": (worst_ric, 1e-10),
            "sphere_mean_curvature_error": (worst_sph, 1e-10),
            "sphere_h_exact_error": (worst_h_exact, 1e-10),
        },
        inputs={"samples": ctx.grid("samples"), "seed": ctx.cfg.seed},
    )


def _check_diameter_geodesic(ctx):
    """Diameters through the center of the ball factor are unit-speed
    geodesics of the rescaled metric; parallel offset lines are not."""
    rng = ctx.rng()
    space = SpaceForm(2, 0.0)
    u = BallFactorField(kappa=1.0)
    worst = 0.0
    min_off = np.inf
    for _ in range(5):
        ang = rng.uniform(0.0, 2.0 * np.pi)
        e = np.array([np.cos(ang), np.sin(ang)])
        perp = np.array([-e[1], e[0]])
        for t in np.linspace(-0.8, 0.8, 9):
            res = conformal.geodesic_residual(space, u, t * e, T=e, nabla_T_T=np.zeros(2))
            worst = np.maximum(worst, np.max(np.abs(res)))
            off = conformal.geodesic_residual(
                space, u, t * e + 0.3 * perp, T=e, nabla_T_T=np.zeros(2)
            )
            min_off = np.minimum(min_off, np.linalg.norm(off))
    parts = {
        "diameter_residual": (worst, 1e-12),
        "offset_line_detected": _flag(min_off > 1e-3),
    }
    return _ratio_report(
        ctx.cid, parts,
        inputs={"seed": ctx.cfg.seed},
        grid={"smallest_offset_residual": min_off},
    )


# ---------------------------------------------------------------------------
# lemmas suite
# ---------------------------------------------------------------------------


def _check_curve_shortness(ctx):
    """Minimize through a radial bump between two parallel lines, then check
    the length ordering and the 5/2 mu0 budget on the factor's deviation."""
    space = SpaceForm(2, 0.0)
    R_profile = 2.0
    u = RadialField(space, np.zeros(2), QuarticCutoff(R_profile))
    fx = example_fixture("euclid-slab", d=1.2, dim=2)
    problem = GeodesicProblem(
        space, u,
        piece_start=fx.pieces[1], piece_end=fx.pieces[0],
        endpoints=np.array([[-0.6, 0.2], [0.6, -0.1]]),
    )
    res = minimize_free_boundary(problem, n_segments=ctx.grid("n_segments"), gtol=1e-8)
    _require_converged(ctx.cid, res)
    seed_length, ordered = _length_ordering(problem, res)
    mu0 = res.g_length / R_profile
    uv = np.asarray(u.value(res.curve.points), dtype=float)
    sup_deviation = float(np.max(np.abs(uv / uv[0] - 1.0)))
    budget = 2.5 * mu0
    parts = {
        "deviation_within_budget": (sup_deviation, budget),
        "length_ordering": _flag(ordered),
    }
    grid = {
        "g_length": res.g_length,
        "tilde_length": res.tilde_length,
        "seed_tilde_length": seed_length,
        "mu0": mu0,
        "sup_deviation": sup_deviation,
        "budget": budget,
        **_solver_grid(res),
    }
    return _ratio_report(ctx.cid, parts, inputs={"n_segments": ctx.grid("n_segments")},
                         grid=grid)


def _cutoff_derivative_error(R, n_r):
    """Largest error of the quartic cutoff's r-form accessors on the bounds
    scan's grid of n_r radii in [0, R], each scaled by the largest magnitude
    of its reference. The references are the expanded polynomials
    u' = -4 r (1 - r^2/R^2)/R^2, u'' = (12 r^2/R^2 - 4)/R^2,
    u'/r = -4 (1 - r^2/R^2)/R^2 and u'^2/u = 16 r^2/R^4, and on
    [0.01 R, 0.99 R] also d1 / r and d1^2 / u with u = (1 - r^2/R^2)^2.
    ``d2`` is compared on r < R only: at r = R it returns 0, the value of
    the zero extension, where the polynomial gives 8/R^2."""
    prof = QuarticCutoff(R)
    r = np.linspace(0.0, R, n_r)
    w = 1.0 - r * r / (R * R)
    inner = r < R
    mid = (r >= 0.01 * R) & (r <= 0.99 * R)
    d1 = prof.d1(r)
    pairs = [
        (d1, -4.0 * r * w / R**2),
        (prof.d2(r[inner]), (12.0 * r[inner] ** 2 / R**2 - 4.0) / R**2),
        (prof.d1_over_r(r), -4.0 * w / R**2),
        (prof.d1_sq_over_value(r), 16.0 * r * r / R**4),
        (prof.d1_over_r(r[mid]), d1[mid] / r[mid]),
        (prof.d1_sq_over_value(r[mid]), d1[mid] ** 2 / w[mid] ** 2),
    ]
    return max(float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))) for got, ref in pairs)


def _crucial_bounds(ctx, model):
    n_r = ctx.grid("r_points")
    n_t = ctx.grid("t_points")
    radii = (10.0, 100.0)
    worst = np.inf
    per = {}
    for n in (1, 2, 3):
        for R in radii:
            scan = crucial_bounds_scan(n, R, model=model, n_r=n_r, n_t=n_t)
            m = float(np.min([c.min_slack for c in scan.checks.values()]))
            per[f"n={n},R={R:g}"] = m
            worst = np.minimum(worst, m)
    parts = {
        "negative_slack": (np.maximum(0.0, -worst), 1e-12),
        "cutoff_derivatives": (max(_cutoff_derivative_error(R, n_r) for R in radii), 1e-12),
    }
    return _ratio_report(
        ctx.cid, parts,
        inputs={"n_r": n_r, "n_t": n_t, "model": model},
        grid={"min_slack": worst, "per_case": per},
    )


# 2^{2k} B_{2k} / (2k)! for k = 1, ..., 14, as exact fractions: the
# coefficients of r^{2k-1} in the Laurent series of coth r - 1/r
COTH_SERIES = (
    (1, 3), (-1, 45), (2, 945), (-1, 4725), (2, 93555), (-1382, 638512875),
    (4, 18243225), (-3617, 162820783125), (87734, 38979295480125),
    (-349222, 1531329465290625), (310732, 13447856940643125),
    (-472728182, 201919571963756521875), (2631724, 11094481976030578125),
    (-13571120588, 564653660170076273671875),
)


def _coth_minus_inv_route(r):
    """coth r - 1/r for r > 0 by a second route: 1 + 2/expm1(2r) - 1/r from
    r = 0.5 on, and below it the 14 terms of ``COTH_SERIES``, summed from
    the small end (an integer quotient rounds correctly)."""
    r = np.asarray(r, dtype=float)
    small = r < 0.5
    rl = np.where(small, 1.0, r)
    rs = np.where(small, r, 0.0)
    series = 0.0
    for num, den in reversed(COTH_SERIES):
        series = series * (rs * rs) + num / den
    return np.where(small, series * rs, 1.0 + 2.0 / np.expm1(2.0 * rl) - 1.0 / rl)


def _check_elementary_inequalities(ctx):
    """lhs 0 against the smallest slack of the three inequalities and of
    ``coth_minus_inv`` on the coth window's grid, whose slack is its
    allowance less its relative error against a second route."""
    worst, mins = elementary_inequalities()
    n_grid, r_max = estimates.ELEMENTARY_N_GRID, estimates.ELEMENTARY_R_MAX
    r = np.linspace(r_max / n_grid, r_max, n_grid)
    route = _coth_minus_inv_route(r)
    # the name ``elementary_inequalities`` calls
    observed = float(np.max(np.abs(estimates.coth_minus_inv(r) - route) / route))
    allowed = 1e-11
    mins["coth_route"] = {"observed": observed, "allowed": allowed}
    worst = min(worst, allowed - observed)
    return VerificationReport(ctx.cid, 0.0, worst, tolerance=1e-12,
                              inputs={"n_grid": n_grid, "r_max": r_max}, grid=mins)


def _gauss_legendre(n):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], by Newton's method on the three-term recurrence of the Legendre
    polynomials from the guesses cos(pi (i - 1/4) / (n + 1/2)), one root of
    each symmetric pair (``gauleg``: Press et al., Numerical Recipes, 3rd
    ed., section 4.6). The weights take P_n' at the converged nodes."""

    def legendre(z):
        """(P_n(z), P_n'(z))."""
        p1, p2 = np.ones_like(z), np.zeros_like(z)
        for j in range(1, n + 1):
            p1, p2 = ((2 * j - 1) * z * p1 - (j - 1) * p2) / j, p1
        return p1, n * (z * p1 - p2) / (z * z - 1.0)

    z = np.cos(np.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        step = np.divide(*legendre(z))
        z = z - step
        if np.max(np.abs(step)) <= 1e-14:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre nodes of order {n} did not converge")
    w = 2.0 / ((1.0 - z * z) * legendre(z)[1] ** 2)
    mirror = slice(n % 2, None)  # an odd rule's middle node is in -z already
    return np.concatenate([-z, z[::-1][mirror]]), np.concatenate([w, w[::-1][mirror]])


def _check_phi_calculus(ctx):
    """Endpoint values, derivative identity, the 6/5 integral bound over a
    wide range of lengths, and the closed form against Gauss-Legendre
    quadrature at orders 32 and 16, whose difference is the error term."""
    rep = phi_calculus(2.0)
    Ls = np.geomspace(1e-2, 50.0, 80)
    closed = np.array([CoshWeight(L).phi_sq_integral() for L in Ls])
    tf = CoshWeight(2.0)
    val, coarse = (float(w @ tf.phi(1.0 + x) ** 2)
                   for x, w in map(_gauss_legendre, (32, 16)))
    parts = {
        "endpoint_error": (rep.endpoint_error, 1e-12),
        "derivative_identity_error": (rep.derivative_identity_error, 1e-6),
        "integral_bound": (float(closed.max()), 1.2),
        "closed_form_vs_quadrature": (abs(tf.phi_sq_integral() - val) + abs(val - coarse), 1e-8),
        "phi_above_one": (np.maximum(0.0, rep.phi_range[1] - 1.0), 1e-14),
        "phi_positive": _flag(rep.phi_range[0] > 0.0),
    }
    grid = {
        "phi_sq_closed_at_2": rep.phi_sq_closed,
        "max_integral_over_L": float(closed.max()),
        "argmax_L": float(Ls[int(np.argmax(closed))]),
    }
    return _ratio_report(ctx.cid, parts, inputs={"phi_points": PHI_GRID_POINTS}, grid=grid)


# ---------------------------------------------------------------------------
# examples suite
# ---------------------------------------------------------------------------


LENS_SEGMENTS = 256  # segments of the lens solves, recorded by the checks that read them


def _solve_lens(a):
    """(fixture, problem, result) of the LENS_SEGMENTS-segment free-boundary
    solve between the ``poincare-circles`` pieces for parameter a;
    ``sharp-lens`` and ``lens-distance`` both read the a = 1 solve through
    ``ctx.once``."""
    fx = example_fixture("poincare-circles", a=a)
    seeds = np.stack(
        [
            fx.pieces[0].chart_points(np.array([np.pi + 0.25]))[0],
            fx.pieces[1].chart_points(np.array([-0.2]))[0],
        ]
    )
    problem = GeodesicProblem(
        fx.space, ConstantField(1.0),
        piece_start=fx.pieces[0], piece_end=fx.pieces[1],
        endpoints=seeds,
    )
    res = minimize_free_boundary(problem, n_segments=LENS_SEGMENTS)
    return fx, problem, res


def _check_sharp_lens(ctx):
    """Equidistant-circle configurations: boundary curvature (1+a^2)^{-1/2},
    solver distance satisfying the tanh identity, bound attained exactly.

    The connecting minimizer is degenerate (any perpendicular geodesic
    works), so the distance is measured between the solver's own endpoints,
    which is second-order accurate in the optimization error."""
    worst = {"mean_curvature_error": 0.0, "distance_error": 0.0,
             "tanh_identity_error": 0.0, "bound_gap": 0.0}
    per = {}
    for a in (0.5, 1.0, 2.0):
        fx, problem, res = ctx.once(_solve_lens, a)
        _require_converged(ctx.cid, res, where=f"a={a:g}: ")
        H_expect = 1.0 / np.sqrt(1.0 + a * a)
        H_meas = [float(p.mean_curvature(q)) for p, q in zip(fx.pieces, fx.endpoints)]
        p, q = res.curve.points[0], res.curve.points[-1]
        d_meas = float(fx.space.distance(p, q))
        errs = {
            "mean_curvature_error": np.max(np.abs(np.subtract(H_meas, H_expect))),
            "distance_error": abs(d_meas - fx.distance),
            "tanh_identity_error": abs(np.tanh(d_meas / 2.0) - H_expect),
            "bound_gap": abs(sum(H_meas) - theorem_bound(1.0, 1, fx.distance)),
        }
        per[f"a={a:g}"] = dict(errs, distance=d_meas, **_solver_grid(res))
        for k, v in errs.items():
            worst[k] = np.maximum(worst[k], v)
    parts = {
        "mean_curvature_error": (worst["mean_curvature_error"], 1e-12),
        # solver distance and its tanh identity against the closed forms
        "distance_error": (worst["distance_error"], 1e-6),
        "tanh_identity_error": (worst["tanh_identity_error"], 1e-6),
        "bound_gap": (worst["bound_gap"], 1e-10),
    }
    return _ratio_report(ctx.cid, parts, inputs={"n_segments": LENS_SEGMENTS},
                         grid={"per_a": per})


def _fd_profile_derivatives(height, ts, steps):
    """First and second derivatives of a scalar profile by 9-point Fornberg
    stencils on per-point step sizes, all points as one stack. Each row's
    weights are contracted by a stacked matmul, which adds a row as
    ``w @ vals`` does."""
    offsets = np.arange(9) - 4
    grid = ts[:, None] + offsets * steps[:, None]
    vals = height(grid)[:, :, None]
    return [(fornberg_weights(grid, ts, k)[:, None, :] @ vals)[:, 0, 0] for k in (1, 2)]


def _check_log_graph_curvature(ctx):
    """The displayed curvature of the logarithmic graph against the implicit
    computation and against stencil derivatives of the height function."""
    fx = example_fixture("log-graph")
    graph = fx.pieces[0]
    xs = np.geomspace(10.0, 1.0e4, ctx.grid("samples"))
    H_disp = np.asarray(graph.h_exact(xs), dtype=float)
    H_impl = np.asarray(graph.mean_curvature(graph.chart_points(xs)), dtype=float)

    def height(t):
        return graph.chart_points(t)[..., 1]

    y1, y2 = _fd_profile_derivatives(height, xs, 3e-3 * xs)
    H_fd = -y2 / (1.0 + y1 * y1) ** 1.5
    parts = {
        "implicit_vs_displayed": (_rel_err(H_impl, H_disp), 1e-10),
        "fd_vs_displayed": (_rel_err(H_fd, H_disp), 1e-7),
    }
    grid = {"x_range": [float(xs[0]), float(xs[-1])], "n_points": int(xs.size)}
    return _ratio_report(ctx.cid, parts, inputs={"samples": int(xs.size)}, grid=grid)


def _check_revolution_curvature(ctx):
    """The displayed curvature of the exponential trumpet against the
    principal-curvature formula with exact profile derivatives, the implicit
    computation, and stencil derivatives of the profile."""
    fx = example_fixture("revolution-r4")
    piece = fx.pieces[0]
    t_min, t_max = piece.chart_box
    ts = np.linspace(t_min, t_max, ctx.grid("samples"), endpoint=False)
    L = 1.0 / (1.0 - ts)
    h = np.exp(L)
    hp = h * L**2
    hpp = h * L**3 * (L + 2.0)
    H_disp = np.asarray(piece.h_exact(ts), dtype=float)
    H_prin = (2.0 * (1.0 + hp * hp) - h * hpp) / (h * (1.0 + hp * hp) ** 1.5)
    # the implicit route subtracts terms of size f^2 L^4, so compare it only
    # where that cancellation leaves at least nine digits
    cond = ts <= min(0.7, t_max)
    H_impl = np.asarray(
        piece.mean_curvature(piece.chart_points(ts[cond])), dtype=float
    )

    def height(t):
        return np.exp(1.0 / (1.0 - t))

    hp_fd, hpp_fd = _fd_profile_derivatives(height, ts, 1e-2 / L**2)
    H_fd = (2.0 * (1.0 + hp_fd**2) - h * hpp_fd) / (h * (1.0 + hp_fd**2) ** 1.5)
    parts = {
        "principal_vs_displayed": (_rel_err(H_prin, H_disp), 1e-10),
        "implicit_vs_displayed": (_rel_err(H_impl, H_disp[cond]), 1e-9),
        "fd_vs_displayed": (_rel_err(H_fd, H_disp), 1e-7),
    }
    grid = {"t_range": [float(ts[0]), float(ts[-1])], "n_points": int(ts.size)}
    return _ratio_report(ctx.cid, parts, inputs={"samples": int(ts.size)}, grid=grid)


# ---------------------------------------------------------------------------
# geodesic suite
# ---------------------------------------------------------------------------


def _check_slab_perpendicular(ctx):
    """With a trivial factor the minimizer between parallel planes is the
    perpendicular segment: length equal to the gap, right angles at both
    feet."""
    fx = example_fixture("euclid-slab", d=1.0, dim=3)
    problem = GeodesicProblem(
        fx.space, ConstantField(1.0),
        piece_start=fx.pieces[1], piece_end=fx.pieces[0],
        endpoints=np.array([[-0.5, 0.3, 0.1], [0.5, -0.2, 0.25]]),
    )
    n_segments = 128
    res = minimize_free_boundary(problem, n_segments=n_segments, gtol=1e-10)
    _require_converged(ctx.cid, res)
    orth = endpoint_orthogonality(problem, res.curve)
    parts = {
        "length_error": (abs(res.tilde_length - fx.distance), 1e-8),
        "orthogonality_error": (np.max(np.abs(np.subtract(orth, 1.0))), 1e-6),
    }
    grid = {"tilde_length": res.tilde_length, "orthogonality": list(map(float, orth)),
            **_solver_grid(res)}
    return _ratio_report(ctx.cid, parts, inputs={"n_segments": n_segments}, grid=grid)


def _check_lens_distance(ctx):
    """Free-boundary solve between the equidistant circles: the minimizer
    family is degenerate, so check the invariants every member satisfies."""
    fx, problem, res = ctx.once(_solve_lens, 1.0)
    _require_converged(ctx.cid, res)
    p, q = res.curve.points[0], res.curve.points[-1]
    orth = endpoint_orthogonality(problem, res.curve)
    _, ordered = _length_ordering(problem, res)
    parts = {
        "length_vs_distance": (abs(res.tilde_length - fx.distance) / fx.distance, 1e-4),
        "realizes_endpoint_distance": (
            abs(res.tilde_length - float(fx.space.distance(p, q))) / fx.distance, 1e-4),
        "mirror_symmetry": (np.maximum(abs(p[0] + q[0]), abs(p[1] - q[1])), 1e-2),
        "orthogonality_error": (np.max(np.abs(np.subtract(orth, 1.0))), 1e-4),
        "length_ordering": _flag(ordered),
    }
    grid = {
        "tilde_length": res.tilde_length,
        "axis_distance": fx.distance,
        "endpoints": [list(map(float, p)), list(map(float, q))],
        **_solver_grid(res),
    }
    return _ratio_report(ctx.cid, parts, inputs={"n_segments": LENS_SEGMENTS, "a": 1.0},
                         grid=grid)


def _check_planar_curvature_law(ctx):
    """A fixed-endpoint minimizer bent by an off-path radial bump: its
    discrete curvature must match the normal logarithmic derivative of the
    factor at every vertex where the curvature is resolvable."""
    space = SpaceForm(2, 0.0)
    u = RadialField(space, np.zeros(2), QuarticCutoff(2.0))
    problem = GeodesicProblem(space, u, endpoints=np.array([[-0.5, 0.05], [0.5, 0.35]]))
    n_segments = ctx.grid("n_segments")
    res = minimize_free_boundary(problem, n_segments=n_segments, gtol=1e-8)
    _require_converged(ctx.cid, res)
    curve = res.curve
    _, acc = curve.vertex_acceleration()
    pts = curve.points[1:-1]
    acc = acc[1:-1]
    kg = space.norm(pts, acc)
    mask = kg > 1e-3
    k = kg[mask]
    residual = conformal.geodesic_curvature_residual(space, u, pts[mask], acc[mask] / k[:, None], k)
    worst = np.max(np.abs(residual), initial=0.0)
    parts = {
        # pointwise curvature-law residual along the computed minimizer
        "curvature_law_residual": (worst, 1e-5),
        "curved_arc_present": _flag(int(np.sum(mask)) > 50),
    }
    grid = {
        "max_curvature": float(kg.max()),
        "vertices_checked": int(np.sum(mask)),
        **_solver_grid(res),
    }
    return _ratio_report(ctx.cid, parts, inputs={"n_segments": n_segments}, grid=grid)


def _fd_second_variation(curve, u, phi, directions):
    """Brute-force quadratic coefficient of the conformal length under the
    frozen displacement fields phi(s) u(x) e; phi None is the constant 1."""
    eps = 1e-3
    weight = 1.0 if phi is None else phi.phi(curve.vertex_s())
    w = (weight * np.asarray(u.value(curve.points), dtype=float))[:, None]
    L0 = curve.tilde_length(u)
    total = 0.0
    for e in directions:
        disp = w * np.asarray(e, dtype=float)[None, :]
        Lp = DiscreteCurve(curve.space, curve.points + eps * disp).tilde_length(u)
        Lm = DiscreteCurve(curve.space, curve.points - eps * disp).tilde_length(u)
        total += (Lp - 2.0 * L0 + Lm) / eps**2
    return total


def _axis_curve(space, half, n_segments):
    pts = np.zeros((n_segments + 1, space.dim))
    pts[:, 0] = np.linspace(-half, half, n_segments + 1)
    return DiscreteCurve(space, pts)


SLAB_TRACE_SEGMENTS = 2048  # segments of the slab axis curve both index-form checks read


def _slab_cosh_trace():
    """(fixture, factor, curve, weight, trace): the slab's axis curve on
    SLAB_TRACE_SEGMENTS segments through a radial bump, and its second
    variation traced with the cosh weight; both index-form checks read it
    through ``ctx.once``."""
    fx = example_fixture("euclid-slab", d=1.2, dim=3)
    u = RadialField(fx.space, np.zeros(3), QuarticCutoff(2.0))
    curve = _axis_curve(fx.space, 0.6, SLAB_TRACE_SEGMENTS)
    phi = CoshWeight(curve.g_length())
    return fx, u, curve, phi, index_form_trace(curve, u, fx.pieces[1], fx.pieces[0], phi)


def _check_index_form_flat_slab(ctx):
    """Traced second variation on the slab axis through a radial bump,
    against the closed form and against the brute-force displacement
    oracle; with the cosh weight, both sides of the tanh and f identities
    agree to the closed-form allowance."""
    fx, u, curve, phi, rep_w = ctx.once(_slab_cosh_trace)
    rep = index_form_trace(curve, u, fx.pieces[1], fx.pieces[0])
    exact = 2.0 * (1.2 + 0.75 * 2.0 * 0.6**3 / 3.0)
    fd = _fd_second_variation(curve, u, None, [np.eye(3)[1], np.eye(3)[2]])
    term_sum = (
        rep.boundary_start + rep.boundary_end + rep.ricci_integral
        + rep.cross_term + rep.j1_integral + rep.j2_integral
    )
    fd_w = _fd_second_variation(curve, u, phi, [np.eye(3)[1], np.eye(3)[2]])
    tanh_lhs, tanh_rhs = tanh_boundary_identity(curve, u, phi)
    parts = {
        "closed_form_error": (abs(rep.total - exact), 1e-6),
        "fd_relative_error": (abs(fd - rep.total) / abs(rep.total), FD_REL),
        "fd_relative_error_cosh": (abs(fd_w - rep_w.total) / max(1.0, abs(rep_w.total)),
                                   FD_REL),
        "terms_sum_to_total": (abs(rep.total - term_sum), 1e-12),
        "tanh_identity_error": (abs(tanh_lhs - tanh_rhs), 1e-6),
        "f_identity_error": (abs(rep_w.f_identity_lhs - rep_w.f_identity_rhs), 1e-6),
    }
    grid = {"total": rep.total, "total_cosh": rep_w.total, "fd": fd, "fd_cosh": fd_w,
            "tanh_identity": [tanh_lhs, tanh_rhs],
            "f_identity": [rep_w.f_identity_lhs, rep_w.f_identity_rhs],
            "max_residual": rep.max_residual}
    return _ratio_report(ctx.cid, parts, inputs={"n_segments": SLAB_TRACE_SEGMENTS}, grid=grid)


def _check_index_form_nonnegative(ctx):
    """Stability of the known minimizers: the traced second variation with
    the admissible weight is nonnegative, and vanishes on the borderline
    equidistant configuration."""
    rep_s = ctx.once(_slab_cosh_trace)[-1]

    fx_l = example_fixture("poincare-circles", a=1.0)
    axis_segments = 8192
    curve_l = _axis_curve(fx_l.space, fx_l.endpoints[1, 0], axis_segments)
    phi_l = CoshWeight(curve_l.g_length())
    rep_l = index_form_trace(curve_l, ConstantField(1.0), fx_l.pieces[0], fx_l.pieces[1], phi_l)

    parts = {
        "slab_negative_part": (np.maximum(0.0, -rep_s.total), 1e-9),
        "lens_negative_part": (np.maximum(0.0, -rep_l.total), 1e-6),
        "lens_borderline": (abs(rep_l.total), 1e-5),
    }
    grid = {"slab_total": rep_s.total, "lens_total": rep_l.total,
            "lens_boundary_term": rep_l.boundary_start,
            "slab_max_residual": rep_s.max_residual, "lens_max_residual": rep_l.max_residual}
    return _ratio_report(ctx.cid, parts,
                         inputs={"n_segments": [SLAB_TRACE_SEGMENTS, axis_segments]}, grid=grid)


# ---------------------------------------------------------------------------
# estimates suite
# ---------------------------------------------------------------------------


def _estimate_report(ctx, branch, c1, c2, R, L0, n, fixture_name=None, **grid_extra):
    """Report on the sides branch(c1, c2, R, L0, n) of an estimate branch,
    filed with its numbers (c1, c2, R and L0 as floats: json writes 1 and
    1.0 differently), the branch's kappa (1 for the hyperbolic branch, 0 for
    the flat one), the sharpest alpha (None; its value is in the grid),
    j = 2 (c2 enters the error term) and the fixture the numbers come from,
    if any; ``grid_extra`` follows the branch's own grid."""
    lhs, rhs, grid = branch(c1, c2, R, L0, n)
    kappa = 1.0 if branch is main_estimate_hyperbolic else 0.0
    inputs = {"c1": c1, "c2": c2, "R": R, "L0": L0, "n": n, "kappa": kappa,
              "alpha": None, "j": 2}
    if fixture_name is not None:
        inputs["fixture"] = fixture_name
    return VerificationReport(ctx.cid, lhs, rhs, tolerance=SLACK_FLOOR,
                              inputs=inputs, grid={**grid, **grid_extra})


def _check_curvature_sum_flat(ctx):
    fx = example_fixture("log-graph")
    R = float(np.exp(6.0))
    c1, c2 = (float(c) for c in annulus_infima(fx, 0.0, R))
    L0 = float(20.0 / np.log(20.0))
    return _estimate_report(ctx, main_estimate_euclid, c1, c2, R, L0, 1, fx.name)


def _check_curvature_sum_flat_probe(ctx):
    """Deliberately violating inputs: the inequality machinery must flag
    them, proving the harness can actually fail."""
    return _estimate_report(ctx, main_estimate_euclid, 1.0, 1.0, 100.0, 1.0, 2)


# radii at which the estimate's upper bound on c1 + c2 is tracked
SHARPNESS_RADII = (16.0, 32.0, 64.0, 128.0)


def _check_curvature_sum_hyperbolic(ctx):
    """The ``poincare-circles`` (a = 1) curvatures in the hyperbolic branch
    at the first of SHARPNESS_RADII, with L0 the lens distance; and, from
    ``sharpness_gap``, the branch's upper bound on c1 + c2 at each of the
    radii against its saturating limit."""
    R_grid = np.array(SHARPNESS_RADII)
    out = sharpness_gap(1.0, R_grid)
    return _estimate_report(
        ctx, main_estimate_hyperbolic, out["c1"], out["c2"], SHARPNESS_RADII[0], out["d"], 1,
        "poincare-circles", R_grid=R_grid.tolist(), upper_bound=out["upper_bound"].tolist(),
        limit=out["limit"], gap=out["gap_bound"].tolist(),
    )


def _check_saturating_bound(ctx):
    """Closed-form anchor, monotonicity in the distance, saturation level
    2n, and exact vanishing in the flat limit."""
    d_star = 4.0 * np.arctanh(np.sqrt(2.0) - 1.0)
    anchor_err = abs(theorem_bound(1.0, 1, d_star) - np.sqrt(2.0))
    ds = np.linspace(0.1, 10.0, 200)
    vals = np.array([theorem_bound(1.0, 2, d) for d in ds])
    monotone = bool(np.all(np.diff(vals) > 0.0))
    saturation_err = abs(theorem_bound(1.0, 2, 100.0) - 4.0)
    flat_exact = theorem_bound(0.0, 3, 5.0) == 0.0
    parts = {
        "closed_form_anchor": (anchor_err, 1e-12),
        "monotone_in_distance": _flag(monotone),
        "saturation_level": (saturation_err, 1e-30),
        "flat_limit_exact": _flag(flat_exact),
    }
    grid = {"anchor_distance": d_star, "saturation_value": float(vals[-1])}
    return _ratio_report(ctx.cid, parts, grid=grid)


def _check_sharpness_rate(ctx):
    """The equidistant configurations attain the saturating bound, and the
    estimate's upper bound closes onto it at a first-order rate in 1/R."""
    R_grid = np.array(SHARPNESS_RADII)
    worst_gap = 0.0
    worst_ratio = 0.0
    worst_consistency = 0.0
    per = {}
    for a in (0.5, 1.0, 2.0):
        out = sharpness_gap(a, R_grid)
        gb = out["gap_bound"]
        ratio = float(gb[-2] / gb[-1])
        consistency = float(np.min(out["upper_bound"] - (out["c1"] + out["c2"])))
        worst_gap = np.maximum(worst_gap, abs(out["gap_measured"]))
        worst_ratio = np.maximum(worst_ratio, abs(ratio - 2.0))
        worst_consistency = np.maximum(worst_consistency, np.maximum(0.0, -consistency))
        per[f"a={a:g}"] = {"gap_measured": out["gap_measured"], "halving_ratio": ratio,
                           "distance": out["d"]}
    parts = {
        "bound_attained": (worst_gap, 1e-10),
        "halving_ratio_near_2": (worst_ratio, 0.3),
        "upper_bound_consistent": (worst_consistency, 1e-12),
    }
    return _ratio_report(ctx.cid, parts, inputs={"R_grid": R_grid.tolist()},
                         grid={"per_a": per})


# ---------------------------------------------------------------------------
# scan suite
# ---------------------------------------------------------------------------


def _scan(ctx, fixture_name, R_grid=None):
    """(fixture, scan, sum of the infima) of the named fixture over R_grid,
    by default exp(linspace(4, 10, scan_points))."""
    if R_grid is None:
        R_grid = np.exp(np.linspace(4.0, 10.0, ctx.grid("scan_points")))
    fx = example_fixture(fixture_name)
    scan = decay_scan(fx, R_grid)
    return fx, scan, scan.inf1 + scan.inf2


def _inverse_R_envelope(fx, R):
    """40 n / R."""
    return 40.0 * (fx.space.dim - 1) / R


def _fitted_inverse_R2(total, R):
    """(C', drift) of the envelope C'/R^2, with C' the largest total * R^2
    on the grid and drift the relative spread of its running maximum over
    the top decade of the grid."""
    product = total * R**2
    prefix = np.maximum.accumulate(product)
    top = R >= R[-1] / 10.0
    lo, hi = float(np.min(prefix[top])), float(np.max(prefix[top]))
    return float(np.max(product)), (hi - lo) / hi if hi > 0 else 0.0


def _saturation_envelope(fx, R):
    """2 n kappa + 13 n kappa^(1/3) R^(-2/3): saturates, does not decay."""
    n, kappa = fx.space.dim - 1, float(fx.space.kappa)
    return 2.0 * n * kappa + 13.0 * n * kappa ** (1.0 / 3.0) * R ** (-2.0 / 3.0)


def _scan_report(ctx, fx, scan, total, kind, envelope, parts=None, normalized=None):
    """(report, columns): the sum of the infima must stay under the ``kind``
    envelope to 1e-12, plus ``parts``; ``normalized`` is the sum rescaled by
    the decay rate under test. Columns: R, inf1, inf2, sum, envelope, slack."""
    slack = envelope - total
    parts = {"envelope_excess": (np.maximum(0.0, np.max(total - envelope)), 1e-12),
             **(parts or {})}
    grid = {"fixture": fx.name, "envelope_kind": kind, "R": scan.R.tolist(),
            "min_slack": float(np.min(slack))}
    if normalized is not None:
        grid["normalized"] = normalized.tolist()
    rep = _ratio_report(ctx.cid, parts, inputs={"R_grid": scan.R.tolist()}, grid=grid)
    return rep, (scan.R, scan.inf1, scan.inf2, total, envelope, slack)


def _check_scan_inverse_R(ctx, fixture_name, R_grid=None):
    """Two boundaries against 40 n / R. ``normalized`` is total R log^2 R;
    for the log graph it tends to 1 like 1 - 2/log R (about 0.8 at e^10)."""
    fx, scan, total = _scan(ctx, fixture_name, R_grid)
    return _scan_report(ctx, fx, scan, total, "sum-inverse-R", _inverse_R_envelope(fx, scan.R),
                        normalized=total * scan.R * np.log(scan.R) ** 2)


def _check_scan_revolution(ctx):
    """The trumpet against C'/R^2 fitted to its own scan; C' may drift by 5%
    over the top decade. ``normalized`` is total R^2 log^2 R, about
    1 - 2/log R."""
    fx, scan, total = _scan(ctx, "revolution-r4")
    R = scan.R
    constant, drift = _fitted_inverse_R2(total, R)
    return _scan_report(ctx, fx, scan, total, "fitted-inverse-R2", constant / R**2,
                        parts={"fit_drift": (drift, 0.05)},
                        normalized=total * R**2 * np.log(R) ** 2)


def _check_scan_equidistant(ctx):
    R_grid = np.geomspace(2.0, 16.0, max(4, ctx.grid("scan_points")))
    fx, scan, total = _scan(ctx, "poincare-circles", R_grid)
    return _scan_report(ctx, fx, scan, total, "hyperbolic-saturation",
                        _saturation_envelope(fx, scan.R))


def _check_scan_slab(ctx):
    R_grid = np.geomspace(2.0, 32.0, max(4, ctx.grid("scan_points")))
    return _check_scan_inverse_R(ctx, "euclid-slab", R_grid)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class CheckSpec:
    def __init__(self, suites: tuple, fn: Callable, probe: bool = False):
        self.suites = suites
        self.fn = fn  # rebound by a caller that wraps the check
        self.probe = probe


CHECKS = {
    "connection-law-fd": CheckSpec(("conformal",), partial(
        _fd_law_check, draw=_connection_draw, errors=_connection_error)),
    "sectional-law-fd": CheckSpec(("conformal",), partial(
        _fd_law_check, draw=_frame_draw, errors=_sectional_error)),
    "ricci-law-fd": CheckSpec(("conformal",), partial(
        _fd_law_check, draw=_frame_draw, errors=_ricci_error)),
    "mean-curvature-law-fd": CheckSpec(("conformal",), _check_mean_curvature_law),
    "poincare-recovery": CheckSpec(("conformal",), _check_poincare_recovery),
    "diameter-geodesic": CheckSpec(("conformal",), _check_diameter_geodesic),
    "curve-shortness": CheckSpec(("lemmas",), _check_curve_shortness),
    "crucial-bounds-flat": CheckSpec(("lemmas",), partial(_crucial_bounds, model="euclid")),
    "crucial-bounds-hyperbolic": CheckSpec(("lemmas",),
                                           partial(_crucial_bounds, model="hyperbolic")),
    "elementary-inequalities": CheckSpec(("lemmas", "estimates"),
                                         _check_elementary_inequalities),
    "phi-calculus": CheckSpec(("lemmas",), _check_phi_calculus),
    "sharp-lens": CheckSpec(("examples",), _check_sharp_lens),
    "log-graph-curvature": CheckSpec(("examples",), _check_log_graph_curvature),
    "revolution-curvature": CheckSpec(("examples",), _check_revolution_curvature),
    "slab-perpendicular": CheckSpec(("geodesic",), _check_slab_perpendicular),
    "lens-distance": CheckSpec(("geodesic",), _check_lens_distance),
    "planar-curvature-law": CheckSpec(("geodesic",), _check_planar_curvature_law),
    "index-form-flat-slab": CheckSpec(("geodesic",), _check_index_form_flat_slab),
    "index-form-nonnegative": CheckSpec(("geodesic",), _check_index_form_nonnegative),
    "curvature-sum-flat": CheckSpec(("estimates",), _check_curvature_sum_flat),
    "curvature-sum-flat-probe": CheckSpec(("estimates",), _check_curvature_sum_flat_probe,
                                          probe=True),
    "curvature-sum-hyperbolic": CheckSpec(("estimates",), _check_curvature_sum_hyperbolic),
    "saturating-bound": CheckSpec(("estimates",), _check_saturating_bound),
    "sharpness-rate": CheckSpec(("estimates",), _check_sharpness_rate),
    "scan-log-graph": CheckSpec(("scan",), partial(_check_scan_inverse_R,
                                                   fixture_name="log-graph")),
    "scan-revolution": CheckSpec(("scan",), _check_scan_revolution),
    "scan-equidistant": CheckSpec(("scan",), _check_scan_equidistant),
    "scan-slab": CheckSpec(("scan",), _check_scan_slab),
}
