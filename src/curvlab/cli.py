"""Batch harness running the verification checks from the command line.

Each check produces one JSON report (and the decay scans additionally one
CSV table) under the output directory, plus a PASS/FAIL line on stdout.

Exit status:
    0   every non-probe check passed
    1   at least one non-probe check failed
    2   configuration error (nothing is written in this case)
    3   an optimizer or refinement loop failed to converge; the offending
        check is named on stderr

Most reports use a normalized convention: lhs is the worst observed error
divided by its allowance, rhs is 1, so slack > 0 means every sub-check
passed with room to spare.  The estimate checks keep their natural
inequality sides instead.
"""

import argparse
import configparser
import hashlib
import os
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import quad

from . import conformal, fdcheck
from .curves import DiscreteCurve, fornberg_weights
from .estimates import (
    SCAN_CSV_HEADER,
    EstimateConfig,
    decay_scan,
    elementary_inequalities,
    main_estimate_euclid,
    main_estimate_hyperbolic,
    sharpness_gap,
    theorem_bound,
)
from .fields import BallFactorField, ConstantField, ExpQuadraticField, quartic_cutoff_profile
from .geodesic import (
    GeodesicProblem,
    endpoint_orthogonality,
    length_comparison,
    minimize_free_boundary,
    shortness_check,
)
from .hypersurface import FIXTURE_NAMES, example_fixture, geodesic_sphere, infimum_over_annulus
from .report import VerificationReport, build_report
from .spaceform import RadialField, SpaceForm, gram_schmidt_frame
from .variation import TestFunction, crucial_bounds_scan, index_form_trace, phi_calculus

SUITES = ("conformal", "lemmas", "examples", "geodesic", "estimates", "scan", "all")


class ConfigError(ValueError):
    """Raised for any malformed or out-of-range run configuration."""


class NonConvergence(RuntimeError):
    """An iterative solve inside a check did not reach its tolerance."""

    def __init__(self, check, detail):
        super().__init__(f"{check}: {detail}")
        self.check = check


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

TOLERANCE_DEFAULTS = {
    # slack floor for the inequality-style reports
    "default": 1e-9,
    # relative error allowed against finite-difference oracles
    "fd_rel": 1e-4,
    # agreement with closed forms in the sharp examples
    "sharp": 1e-6,
    # pointwise curvature-law residual along computed minimizers
    "geodesic": 1e-5,
}

GRID_DEFAULTS = {
    "samples": 50,
    "r_points": 2000,
    "t_points": 200,
    "scan_points": 7,
    "n_segments": 512,
    "phi_points": 2001,
    "r_exp_lo": 4.0,
    "r_exp_hi": 10.0,
}

_GRID_INT_KEYS = ("samples", "r_points", "t_points", "scan_points", "n_segments", "phi_points")
_FIXTURE_FLOAT_KEYS = ("a", "d", "x_min", "x_max", "t_min", "t_max")
_FIXTURE_KEYS = ("name", "dim") + _FIXTURE_FLOAT_KEYS

_ENV_KEYS = {
    "CURVLAB_SUITE": "suite",
    "CURVLAB_OUT": "out",
    "CURVLAB_SEED": "seed",
    "CURVLAB_WORKERS": "workers",
}


class RunConfig:
    """Validated settings for one harness invocation."""

    def __init__(self, suite="all", out="out", seed=1, workers=1,
                 tolerances=None, grids=None, fixture=None):
        self.suite = suite
        self.out = out
        self.seed = int(seed)
        self.workers = int(workers)
        self.tolerances = dict(TOLERANCE_DEFAULTS)
        if tolerances:
            self.tolerances.update(tolerances)
        self.grids = dict(GRID_DEFAULTS)
        if grids:
            self.grids.update(grids)
        self.fixture = dict(fixture or {})
        self.validate()

    def validate(self):
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {', '.join(SUITES)}")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        for key, val in self.tolerances.items():
            if key not in TOLERANCE_DEFAULTS:
                raise ConfigError(f"unknown tolerance key {key!r}")
            if not (float(val) > 0.0):
                raise ConfigError(f"tolerance {key} must be positive, got {val!r}")
            self.tolerances[key] = float(val)
        for key, val in self.grids.items():
            if key not in GRID_DEFAULTS:
                raise ConfigError(f"unknown grid key {key!r}")
            if key in _GRID_INT_KEYS:
                iv = int(val)
                if iv != float(val) or iv < 2:
                    raise ConfigError(f"grid {key} must be an integer >= 2, got {val!r}")
                self.grids[key] = iv
            else:
                self.grids[key] = float(val)
        if not self.grids["r_exp_lo"] < self.grids["r_exp_hi"]:
            raise ConfigError("grid r_exp_lo must be below r_exp_hi")
        for key in self.fixture:
            if key not in _FIXTURE_KEYS:
                raise ConfigError(f"unknown fixture key {key!r}")
        if "name" in self.fixture and self.fixture["name"] not in FIXTURE_NAMES:
            raise ConfigError(f"unknown fixture name {self.fixture['name']!r}")
        if "dim" in self.fixture:
            self.fixture["dim"] = int(self.fixture["dim"])
        for key in _FIXTURE_FLOAT_KEYS:
            if key in self.fixture:
                self.fixture[key] = float(self.fixture[key])


def parse_config(path):
    """Read an INI file with [run], [tolerances], [grids], [fixture] sections."""
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}")

    known = {"run", "tolerances", "grids", "fixture"}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown config section [{section}]")

    kwargs = {}
    if parser.has_section("run"):
        for key, val in parser.items("run"):
            if key not in ("suite", "out", "seed", "workers"):
                raise ConfigError(f"unknown key {key!r} in [run]")
            kwargs[key] = val
        for key in ("seed", "workers"):
            if key in kwargs:
                try:
                    kwargs[key] = int(kwargs[key])
                except ValueError:
                    raise ConfigError(f"[run] {key} must be an integer, got {kwargs[key]!r}")

    def floats_of(section):
        out = {}
        for key, val in parser.items(section):
            try:
                out[key] = float(val)
            except ValueError:
                raise ConfigError(f"[{section}] {key} must be a number, got {val!r}")
        return out

    if parser.has_section("tolerances"):
        kwargs["tolerances"] = floats_of("tolerances")
    if parser.has_section("grids"):
        kwargs["grids"] = floats_of("grids")
    if parser.has_section("fixture"):
        fx = {}
        for key, val in parser.items("fixture"):
            if key == "name":
                fx[key] = val
            else:
                try:
                    fx[key] = float(val)
                except ValueError:
                    raise ConfigError(f"[fixture] {key} must be a number, got {val!r}")
        kwargs["fixture"] = fx
    return RunConfig(**kwargs)


def load_config(args, env=None):
    """Merge config file, environment and command-line flags.

    Precedence: flags over CURVLAB_* environment variables over the file.
    """
    env = os.environ if env is None else env
    path = args.config or env.get("CURVLAB_CONFIG")
    cfg = parse_config(path) if path else RunConfig()
    for env_key, attr in _ENV_KEYS.items():
        if env_key in env:
            val = env[env_key]
            if attr in ("seed", "workers"):
                try:
                    val = int(val)
                except ValueError:
                    raise ConfigError(f"{env_key} must be an integer, got {val!r}")
            setattr(cfg, attr, val)
    for attr in ("suite", "out", "seed", "workers"):
        val = getattr(args, attr, None)
        if val is not None:
            setattr(cfg, attr, val)
    cfg.validate()
    return cfg


class CheckContext:
    """What a check callable may read: tolerances, grid sizes, seeded rngs."""

    def __init__(self, cfg):
        self.cfg = cfg

    def rng(self, check_id):
        """Generator seeded from (run seed, check id); independent per check."""
        digest = hashlib.sha256(f"{self.cfg.seed}:{check_id}".encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    def tol(self, name):
        return self.cfg.tolerances[name]

    def grid(self, name):
        return self.cfg.grids[name]

    def fixture_kwargs(self, name):
        """Config overrides for the named fixture, empty unless it matches."""
        if self.cfg.fixture.get("name") != name:
            return {}
        return {k: v for k, v in self.cfg.fixture.items() if k != "name"}


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------


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
    return build_report(
        check,
        worst,
        1.0,
        tolerance=1e-9,
        inputs=inputs,
        grid=meta,
    )


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


def _solver_grid(res):
    """Deterministic solver facts for a report grid."""
    return {
        "iterations": res.iterations,
        "level_iterations": res.level_iterations,
        "level_stops": res.level_stops,
    }


def _law_spaces():
    return [
        ("flat3", SpaceForm(3, 0.0)),
        ("ball3", SpaceForm(3, 1.0)),
        ("ball2k2", SpaceForm(2, 2.0)),
    ]


def _random_factor(rng, dim, scale=0.25):
    a = rng.normal(size=dim) * scale
    M = rng.normal(size=(dim, dim)) * scale
    return ExpQuadraticField(a=a, B=0.5 * (M + M.T), c=float(rng.normal() * 0.1))


# ---------------------------------------------------------------------------
# conformal suite: transformation laws against finite differences
# ---------------------------------------------------------------------------


def _fd_law_check(ctx, cid, spaces, sample_error, **inputs):
    """Worst relative error of a transformation law against its fdcheck
    oracle, per space over ``samples`` random draws of sample_error(rng, space)."""
    rng = ctx.rng(cid)
    samples = ctx.grid("samples")
    per = {}
    for label, space in spaces:
        # np.max, unlike max(), propagates a NaN sample error
        per[label] = float(np.max([sample_error(rng, space) for _ in range(samples)]))
    return _ratio_report(
        cid,
        {"fd_relative_error": (float(np.max(list(per.values()))), ctx.tol("fd_rel"))},
        inputs={"samples": samples, "seed": ctx.cfg.seed, **inputs},
        grid={"per_space": per},
    )


def _connection_error(rng, space):
    flat_metric = conformal.coordinate_metric(space, ConstantField(1.0))
    u = _random_factor(rng, space.dim)
    metric = conformal.coordinate_metric(space, u)
    x = rng.uniform(-0.3, 0.3, size=space.dim)
    X = rng.normal(size=space.dim)
    Y = rng.normal(size=space.dim)
    gap = fdcheck.christoffels_fd(metric, x) - fdcheck.christoffels_fd(flat_metric, x)
    ref = np.einsum("kij,i,j->k", gap, X, Y)
    got = conformal.connection_difference(space, u, x, X, Y)
    return float(np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1.0))


def _sectional_error(rng, space):
    u = _random_factor(rng, space.dim)
    metric = conformal.coordinate_metric(space, u)
    x = rng.uniform(-0.3, 0.3, size=space.dim)
    F = gram_schmidt_frame(space, x, seed=rng.normal(size=(space.dim, space.dim)))
    got = conformal.sectional_numerator(space, u, x, F[0], F[1])
    uv = float(u.value(x))
    ref = fdcheck.sectional_fd(metric, x, uv * F[0], uv * F[1])
    return abs(got - ref) / max(abs(ref), 1.0)


def _ricci_error(rng, space):
    u = _random_factor(rng, space.dim)
    metric = conformal.coordinate_metric(space, u)
    x = rng.uniform(-0.3, 0.3, size=space.dim)
    F = gram_schmidt_frame(space, x, seed=rng.normal(size=(space.dim, space.dim)))
    got = conformal.ricci_formula(space, u, x, F[0])
    uv = float(u.value(x))
    ref = fdcheck.ricci_quadratic_fd(metric, x, uv * F[0])
    return abs(got - ref) / max(abs(ref), 1.0)


def _check_connection_law(ctx):
    return _fd_law_check(ctx, "connection-law-fd", _law_spaces(), _connection_error)


def _check_sectional_law(ctx):
    return _fd_law_check(ctx, "sectional-law-fd", _law_spaces(), _sectional_error)


def _check_ricci_law(ctx):
    return _fd_law_check(ctx, "ricci-law-fd", _law_spaces(), _ricci_error)


_SPHERE_RADIUS = 0.35


def _sphere_chart(s):
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

    return chart, dchart, d2chart


def _mean_curvature_error(rng, space):
    s = _SPHERE_RADIUS
    chart, dchart, d2chart = _sphere_chart(s)
    if space.hyperbolic:
        H_g = 2.0 / np.tanh(2.0 * np.arctanh(s))
    else:
        H_g = 2.0 / s
    u = _random_factor(rng, 3, scale=0.2)
    metric = conformal.coordinate_metric(space, u)
    th = np.array([rng.uniform(0.4, 2.7), rng.uniform(0.0, 2.0 * np.pi)])
    x = chart(th)
    w = float(space.ambient_factor(x))
    nu_g = -x / s * w
    got = conformal.mean_curvature_formula(space, u, x, H_g=H_g, nu=nu_g)
    ref, _ = fdcheck.parametric_mean_curvature(
        metric, chart, dchart, d2chart, th, inward_ref=-x
    )
    return abs(got - ref) / max(abs(ref), 1.0)


def _check_mean_curvature_law(ctx):
    """Random factor over flat and hyperbolic backgrounds: the pointwise
    mean-curvature law against a second-fundamental-form computation in
    the rescaled coordinate metric, on a fixed coordinate sphere."""
    return _fd_law_check(ctx, "mean-curvature-law-fd", _law_spaces()[:2],
                         _mean_curvature_error, sphere_radius=_SPHERE_RADIUS)


def _check_poincare_recovery(ctx):
    """The ball factor over a flat background must reproduce the constant
    curvature model: Ricci -(dim-1) everywhere, and the geodesic spheres of
    the hyperbolic ambient have mean curvature n + 2n/(e^{2R}-1)."""
    cid = "poincare-recovery"
    rng = ctx.rng(cid)
    worst_ric = 0.0
    for dim in (2, 3, 4):
        space = SpaceForm(dim, 0.0)
        u = BallFactorField(kappa=1.0)
        for _ in range(max(8, ctx.grid("samples") // 5)):
            x = rng.uniform(-0.6, 0.6, size=dim)
            r = np.linalg.norm(x)
            if r > 0.85:
                x *= 0.85 / r
            F = gram_schmidt_frame(space, x, seed=rng.normal(size=(dim, dim)))
            for k in range(dim):
                ric = conformal.ricci_formula(space, u, x, F[k])
                worst_ric = np.maximum(worst_ric, abs(ric + (dim - 1)))
    worst_sph = 0.0
    for dim in (2, 3):
        space = SpaceForm(dim, 1.0)
        for R in (0.5, 1.0, 2.0):
            sph = geodesic_sphere(space, R)
            ts = np.linspace(0.2, 1.2, 5)
            H = np.asarray(sph.mean_curvature(sph.chart_points(ts)), dtype=float)
            n = dim - 1
            exact = n + 2.0 * n / np.expm1(2.0 * R)
            worst_sph = np.maximum(worst_sph, np.max(np.abs(H - exact)))
    return _ratio_report(
        cid,
        {
            "ricci_constant_error": (worst_ric, 1e-10),
            "sphere_mean_curvature_error": (worst_sph, 1e-10),
        },
        inputs={"seed": ctx.cfg.seed},
    )


def _check_diameter_geodesic(ctx):
    """Diameters through the center of the ball factor are unit-speed
    geodesics of the rescaled metric; parallel offset lines are not."""
    cid = "diameter-geodesic"
    rng = ctx.rng(cid)
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
        cid, parts,
        inputs={"seed": ctx.cfg.seed},
        grid={"smallest_offset_residual": min_off},
    )


# ---------------------------------------------------------------------------
# lemmas suite
# ---------------------------------------------------------------------------


def _check_curve_shortness(ctx):
    """Minimize through a radial bump between two parallel lines, then check
    the length ordering and the 5/2 mu0 budget on the factor's deviation."""
    cid = "curve-shortness"
    space = SpaceForm(2, 0.0)
    R_profile = 2.0
    u = RadialField(space, np.zeros(2), quartic_cutoff_profile(R_profile))
    fx = example_fixture("euclid-slab", d=1.2, dim=2)
    problem = GeodesicProblem(
        space, u,
        piece_start=fx.pieces[1], piece_end=fx.pieces[0],
        endpoints=np.array([[-0.6, 0.2], [0.6, -0.1]]),
    )
    res = minimize_free_boundary(problem, n_segments=ctx.grid("n_segments"), gtol=1e-8)
    _require_converged(cid, res)
    comp = length_comparison(problem, res)
    mu0 = res.g_length / R_profile
    short = shortness_check(problem, res.curve, mu0)
    parts = {
        "deviation_within_budget": (short.sup_deviation, short.bound),
        "length_ordering": _flag(comp.ordered),
    }
    grid = {
        "g_length": res.g_length,
        "tilde_length": res.tilde_length,
        "seed_tilde_length": comp.tilde_length_seed,
        "mu0": mu0,
        "sup_deviation": short.sup_deviation,
        "budget": short.bound,
        **_solver_grid(res),
    }
    return _ratio_report(cid, parts, inputs={"n_segments": ctx.grid("n_segments")},
                         grid=grid)


def _crucial_bounds(ctx, cid, model):
    n_r = ctx.grid("r_points")
    n_t = ctx.grid("t_points")
    worst = np.inf
    per = {}
    for n in (1, 2, 3):
        for R in (10.0, 100.0):
            scan = crucial_bounds_scan(n, R, model=model, n_r=n_r, n_t=n_t)
            m = float(np.min([c.min_slack for c in scan.checks.values()]))
            per[f"n={n},R={R:g}"] = m
            worst = np.minimum(worst, m)
    parts = {"negative_slack": (np.maximum(0.0, -worst), 1e-12)}
    return _ratio_report(
        cid, parts,
        inputs={"n_r": n_r, "n_t": n_t, "model": model},
        grid={"min_slack": worst, "per_case": per},
    )


def _check_crucial_bounds_flat(ctx):
    return _crucial_bounds(ctx, "crucial-bounds-flat", "euclid")


def _check_crucial_bounds_hyperbolic(ctx):
    return _crucial_bounds(ctx, "crucial-bounds-hyperbolic", "hyperbolic")


def _check_elementary(ctx):
    return elementary_inequalities(tolerance=1e-12)


def _check_phi_calculus(ctx):
    """Endpoint values, derivative identity, the 6/5 integral bound over a
    wide range of lengths, and the closed form against direct quadrature."""
    cid = "phi-calculus"
    rep = phi_calculus(2.0, n_grid=ctx.grid("phi_points"))
    Ls = np.geomspace(1e-2, 50.0, 80)
    closed = np.array([TestFunction.cosh_type(L).phi_sq_integral() for L in Ls])
    tf = TestFunction.cosh_type(2.0)
    val, quad_err = quad(lambda s: float(tf.phi(np.asarray(s))) ** 2, 0.0, 2.0, limit=200)
    parts = {
        "endpoint_error": (rep.endpoint_error, 1e-12),
        "derivative_identity_error": (rep.derivative_identity_error, 1e-6),
        "integral_bound": (float(closed.max()), 1.2),
        "closed_form_vs_quadrature": (abs(tf.phi_sq_integral() - val) + quad_err, 1e-8),
        "phi_above_one": (np.maximum(0.0, rep.phi_range[1] - 1.0), 1e-14),
        "phi_positive": _flag(rep.phi_range[0] > 0.0),
    }
    grid = {
        "phi_sq_closed_at_2": rep.phi_sq_closed,
        "max_integral_over_L": float(closed.max()),
        "argmax_L": float(Ls[int(np.argmax(closed))]),
    }
    return _ratio_report(cid, parts, inputs={"phi_points": ctx.grid("phi_points")},
                         grid=grid)


# ---------------------------------------------------------------------------
# examples suite
# ---------------------------------------------------------------------------


def _solve_lens(a, n_segments):
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
    res = minimize_free_boundary(problem, n_segments=n_segments)
    return fx, problem, res


def _check_sharp_lens(ctx):
    """Equidistant-circle configurations: boundary curvature (1+a^2)^{-1/2},
    solver distance satisfying the tanh identity, bound attained exactly.

    The connecting minimizer is degenerate (any perpendicular geodesic
    works), so the distance is measured between the solver's own endpoints,
    which is second-order accurate in the optimization error."""
    cid = "sharp-lens"
    worst = {"mean_curvature_error": 0.0, "distance_error": 0.0,
             "tanh_identity_error": 0.0, "bound_gap": 0.0}
    per = {}
    for a in (0.5, 1.0, 2.0):
        fx, problem, res = _solve_lens(a, 256)
        _require_converged(cid, res, where=f"a={a:g}: ")
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
        "distance_error": (worst["distance_error"], ctx.tol("sharp")),
        "tanh_identity_error": (worst["tanh_identity_error"], ctx.tol("sharp")),
        "bound_gap": (worst["bound_gap"], 1e-10),
    }
    return _ratio_report(cid, parts, inputs={"n_segments": 256},
                         grid={"per_a": per})


def _fd_profile_derivatives(height, ts, steps, npts=9):
    """First and second derivatives of a scalar profile by Fornberg stencils
    on per-point step sizes."""
    offsets = np.arange(npts) - (npts - 1) // 2
    d1 = np.empty_like(ts)
    d2 = np.empty_like(ts)
    for i, (t0, h) in enumerate(zip(ts, steps)):
        grid = t0 + offsets * h
        vals = height(grid)
        d1[i] = float(fornberg_weights(grid, t0, 1) @ vals)
        d2[i] = float(fornberg_weights(grid, t0, 2) @ vals)
    return d1, d2


def _check_log_graph_curvature(ctx):
    """The displayed curvature of the logarithmic graph against the implicit
    computation and against stencil derivatives of the height function."""
    cid = "log-graph-curvature"
    fx = example_fixture("log-graph", **ctx.fixture_kwargs("log-graph"))
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
    return _ratio_report(cid, parts, inputs={"samples": int(xs.size)}, grid=grid)


def _check_revolution_curvature(ctx):
    """The displayed curvature of the exponential trumpet against the
    principal-curvature formula with exact profile derivatives, the implicit
    computation, and stencil derivatives of the profile."""
    cid = "revolution-curvature"
    fx = example_fixture("revolution-r4", **ctx.fixture_kwargs("revolution-r4"))
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
    return _ratio_report(cid, parts, inputs={"samples": int(ts.size)}, grid=grid)


# ---------------------------------------------------------------------------
# geodesic suite
# ---------------------------------------------------------------------------


def _check_slab_perpendicular(ctx):
    """With a trivial factor the minimizer between parallel planes is the
    perpendicular segment: length equal to the gap, right angles at both
    feet."""
    cid = "slab-perpendicular"
    fx = example_fixture("euclid-slab", d=1.0, dim=3)
    problem = GeodesicProblem(
        fx.space, ConstantField(1.0),
        piece_start=fx.pieces[1], piece_end=fx.pieces[0],
        endpoints=np.array([[-0.5, 0.3, 0.1], [0.5, -0.2, 0.25]]),
    )
    res = minimize_free_boundary(problem, n_segments=128, gtol=1e-10)
    _require_converged(cid, res)
    orth = endpoint_orthogonality(problem, res.curve)
    parts = {
        "length_error": (abs(res.tilde_length - fx.params["d"]), 1e-8),
        "orthogonality_error": (np.max(np.abs(np.subtract(orth, 1.0))), 1e-6),
    }
    grid = {"tilde_length": res.tilde_length, "orthogonality": list(map(float, orth)),
            **_solver_grid(res)}
    return _ratio_report(cid, parts, inputs={"n_segments": 128}, grid=grid)


def _check_lens_distance(ctx):
    """Free-boundary solve between the equidistant circles: the minimizer
    family is degenerate, so check the invariants every member satisfies."""
    cid = "lens-distance"
    fx, problem, res = _solve_lens(1.0, 256)
    _require_converged(cid, res)
    p, q = res.curve.points[0], res.curve.points[-1]
    orth = endpoint_orthogonality(problem, res.curve)
    comp = length_comparison(problem, res)
    parts = {
        "length_vs_distance": (abs(res.tilde_length - fx.distance) / fx.distance, 1e-4),
        "realizes_endpoint_distance": (
            abs(res.tilde_length - float(fx.space.distance(p, q))) / fx.distance, 1e-4),
        "mirror_symmetry": (np.maximum(abs(p[0] + q[0]), abs(p[1] - q[1])), 1e-2),
        "orthogonality_error": (np.max(np.abs(np.subtract(orth, 1.0))), 1e-4),
        "length_ordering": _flag(comp.ordered),
    }
    grid = {
        "tilde_length": res.tilde_length,
        "axis_distance": fx.distance,
        "endpoints": [list(map(float, p)), list(map(float, q))],
        **_solver_grid(res),
    }
    return _ratio_report(cid, parts, inputs={"n_segments": 256, "a": 1.0}, grid=grid)


def _check_planar_curvature_law(ctx):
    """A fixed-endpoint minimizer bent by an off-path radial bump: its
    discrete curvature must match the normal logarithmic derivative of the
    factor at every vertex where the curvature is resolvable."""
    cid = "planar-curvature-law"
    space = SpaceForm(2, 0.0)
    u = RadialField(space, np.zeros(2), quartic_cutoff_profile(2.0))
    problem = GeodesicProblem(space, u, endpoints=np.array([[-0.5, 0.05], [0.5, 0.35]]))
    n_segments = ctx.grid("n_segments")
    res = minimize_free_boundary(problem, n_segments=n_segments, gtol=1e-8)
    _require_converged(cid, res)
    curve = res.curve
    acc = curve.vertex_acceleration()
    pts = curve.points[1:-1]
    acc = acc[1:-1]
    kg = np.array([float(space.norm(x, a)) for x, a in zip(pts, acc)])
    mask = kg > 1e-3
    worst = 0.0
    for x, a, k in zip(pts[mask], acc[mask], kg[mask]):
        N = a / k
        worst = np.maximum(worst, abs(conformal.geodesic_curvature_residual(space, u, x, N, k)))
    parts = {
        "curvature_law_residual": (worst, ctx.tol("geodesic")),
        "curved_arc_present": _flag(int(np.sum(mask)) > 50),
    }
    grid = {
        "max_curvature": float(kg.max()),
        "vertices_checked": int(np.sum(mask)),
        **_solver_grid(res),
    }
    return _ratio_report(cid, parts, inputs={"n_segments": n_segments}, grid=grid)


def _fd_second_variation(curve, u, phi, directions, eps=1e-3):
    """Brute-force quadratic coefficient of the conformal length under the
    frozen displacement fields phi(s) u(x) e."""
    s = curve.vertex_s()
    w = (phi.phi(s) * np.asarray(u.value(curve.points), dtype=float))[:, None]
    L0 = curve.tilde_length(u)
    total = 0.0
    for e in directions:
        disp = w * np.asarray(e, dtype=float)[None, :]
        Lp = DiscreteCurve(curve.space, curve.points + eps * disp).tilde_length(u)
        Lm = DiscreteCurve(curve.space, curve.points - eps * disp).tilde_length(u)
        total += (Lp - 2.0 * L0 + Lm) / eps**2
    return total


def _axis_curve(space, half, n_segments):
    def fn(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape + (space.dim,))
        out[..., 0] = t
        return out

    return DiscreteCurve.from_function(space, fn, -half, half, n_segments)


def _check_index_form_flat_slab(ctx):
    """Traced second variation on the slab axis through a radial bump,
    against the closed form and against the brute-force displacement
    oracle."""
    cid = "index-form-flat-slab"
    fx = example_fixture("euclid-slab", d=1.2, dim=3)
    u = RadialField(fx.space, np.zeros(3), quartic_cutoff_profile(2.0))
    curve = _axis_curve(fx.space, 0.6, 2048)
    rep = index_form_trace(curve, u, fx.pieces[1], fx.pieces[0], TestFunction.one())
    exact = 2.0 * (1.2 + 0.75 * 2.0 * 0.6**3 / 3.0)
    fd = _fd_second_variation(curve, u, TestFunction.one(), [np.eye(3)[1], np.eye(3)[2]])
    term_sum = (
        rep.boundary_start + rep.boundary_end + rep.ricci_integral
        + rep.cross_term + rep.j1_integral + rep.j2_integral
    )
    phi = TestFunction.cosh_type(curve.g_length())
    rep_w = index_form_trace(curve, u, fx.pieces[1], fx.pieces[0], phi)
    fd_w = _fd_second_variation(curve, u, phi, [np.eye(3)[1], np.eye(3)[2]])
    parts = {
        "closed_form_error": (abs(rep.total - exact), 1e-6),
        "fd_relative_error": (abs(fd - rep.total) / abs(rep.total), ctx.tol("fd_rel")),
        "fd_relative_error_cosh": (abs(fd_w - rep_w.total) / max(1.0, abs(rep_w.total)),
                                   ctx.tol("fd_rel")),
        "terms_sum_to_total": (abs(rep.total - term_sum), 1e-12),
    }
    grid = {"total": rep.total, "total_cosh": rep_w.total, "fd": fd, "fd_cosh": fd_w}
    return _ratio_report(cid, parts, inputs={"n_segments": 2048}, grid=grid)


def _check_index_form_nonnegative(ctx):
    """Stability of the known minimizers: the traced second variation with
    the admissible weight is nonnegative, and vanishes on the borderline
    equidistant configuration."""
    cid = "index-form-nonnegative"
    fx_s = example_fixture("euclid-slab", d=1.2, dim=3)
    u_s = RadialField(fx_s.space, np.zeros(3), quartic_cutoff_profile(2.0))
    curve_s = _axis_curve(fx_s.space, 0.6, 2048)
    phi_s = TestFunction.cosh_type(curve_s.g_length())
    total_s = index_form_trace(curve_s, u_s, fx_s.pieces[1], fx_s.pieces[0], phi_s).total

    fx_l = example_fixture("poincare-circles", a=1.0)
    b = fx_l.params["b"]
    curve_l = _axis_curve(fx_l.space, b, 8192)
    phi_l = TestFunction.cosh_type(curve_l.g_length())
    rep_l = index_form_trace(curve_l, ConstantField(1.0), fx_l.pieces[0], fx_l.pieces[1], phi_l)

    parts = {
        "slab_negative_part": (np.maximum(0.0, -total_s), 1e-9),
        "lens_negative_part": (np.maximum(0.0, -rep_l.total), 1e-6),
        "lens_borderline": (abs(rep_l.total), 1e-5),
    }
    grid = {"slab_total": total_s, "lens_total": rep_l.total,
            "lens_boundary_term": rep_l.boundary_start}
    return _ratio_report(cid, parts, inputs={"n_segments": [2048, 8192]}, grid=grid)


# ---------------------------------------------------------------------------
# estimates suite
# ---------------------------------------------------------------------------


def _measured_flat_config(ctx):
    fx = example_fixture("log-graph", **ctx.fixture_kwargs("log-graph"))
    graph, axis = fx.pieces
    R = float(np.exp(6.0))
    c1 = infimum_over_annulus(graph, 0.0, R).value
    c2 = infimum_over_annulus(axis, 0.0, R).value
    L0 = 20.0 / np.log(20.0)
    return EstimateConfig(c1=c1, c2=c2, R=R, L0=L0, n=1, fixture=fx)


def _check_curvature_sum_flat(ctx):
    cfg = _measured_flat_config(ctx)
    return main_estimate_euclid(cfg, tolerance=ctx.tol("default"))


def _check_curvature_sum_flat_probe(ctx):
    """Deliberately violating inputs: the inequality machinery must flag
    them, proving the harness can actually fail."""
    cfg = EstimateConfig(c1=1.0, c2=1.0, R=100.0, L0=1.0, n=2)
    rep = main_estimate_euclid(cfg, tolerance=ctx.tol("default"), probe=True)
    rep.check = "curvature-sum-flat-probe"
    return rep


def _check_curvature_sum_hyperbolic(ctx):
    kwargs = ctx.fixture_kwargs("poincare-circles")
    fx = example_fixture("poincare-circles", **kwargs)
    H_meas = [float(p.mean_curvature(q)) for p, q in zip(fx.pieces, fx.endpoints)]
    d = fx.distance
    cfg = EstimateConfig(
        c1=H_meas[0], c2=H_meas[1], R=16.0, L0=d, n=1, kappa=1.0, fixture=fx
    )
    return main_estimate_hyperbolic(
        cfg, tolerance=ctx.tol("default"),
        R_grid=np.array([16.0, 32.0, 64.0, 128.0]), d=d,
    )


def _check_saturating_bound(ctx):
    """Closed-form anchor, monotonicity in the distance, saturation level
    2n, and exact vanishing in the flat limit."""
    cid = "saturating-bound"
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
    return _ratio_report(cid, parts, grid=grid)


def _check_sharpness_rate(ctx):
    """The equidistant configurations attain the saturating bound, and the
    estimate's upper bound closes onto it at a first-order rate in 1/R."""
    cid = "sharpness-rate"
    R_grid = np.array([16.0, 32.0, 64.0, 128.0])
    worst_gap = 0.0
    worst_ratio = 0.0
    worst_consistency = 0.0
    per = {}
    for a in (0.5, 1.0, 2.0):
        out = sharpness_gap(a, R_grid)
        gb = np.asarray(out["gap_bound"], dtype=float)
        ratio = float(gb[-2] / gb[-1])
        consistency = float(np.min(np.asarray(out["upper_bound"]) - (out["c1"] + out["c2"])))
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
    return _ratio_report(cid, parts, inputs={"R_grid": R_grid.tolist()},
                         grid={"per_a": per})


# ---------------------------------------------------------------------------
# scan suite
# ---------------------------------------------------------------------------


def _scan_check(ctx, cid, fixture_name, kind, R_grid):
    fx = example_fixture(fixture_name, **ctx.fixture_kwargs(fixture_name))
    scan = decay_scan(fx, R_grid, kind)
    parts = {
        "envelope_excess": (np.maximum(0.0, np.max(scan.total - scan.envelope)), 1e-12),
    }
    if kind == "fitted-inverse-R2":
        parts["fit_drift"] = (scan.fit_drift, 0.05)
    grid = {
        "fixture": fx.name,
        "envelope_kind": kind,
        "R": scan.R.tolist(),
        "min_slack": float(np.min(scan.slack)),
    }
    if scan.normalized is not None:
        grid["normalized"] = scan.normalized.tolist()
    rep = _ratio_report(cid, parts, inputs={"R_grid": np.asarray(R_grid).tolist()},
                        grid=grid)
    return rep, scan


def _scan_R_exp(ctx):
    lo, hi = ctx.grid("r_exp_lo"), ctx.grid("r_exp_hi")
    return np.exp(np.linspace(lo, hi, ctx.grid("scan_points")))


def _check_scan_log_graph(ctx):
    return _scan_check(ctx, "scan-log-graph", "log-graph", "sum-inverse-R", _scan_R_exp(ctx))


def _check_scan_revolution(ctx):
    return _scan_check(ctx, "scan-revolution", "revolution-r4", "fitted-inverse-R2",
                       _scan_R_exp(ctx))


def _check_scan_equidistant(ctx):
    R_grid = np.geomspace(2.0, 16.0, max(4, ctx.grid("scan_points")))
    return _scan_check(ctx, "scan-equidistant", "poincare-circles",
                       "hyperbolic-saturation", R_grid)


def _check_scan_slab(ctx):
    R_grid = np.geomspace(2.0, 32.0, max(4, ctx.grid("scan_points")))
    return _scan_check(ctx, "scan-slab", "euclid-slab", "sum-inverse-R", R_grid)


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------


@dataclass
class CheckSpec:
    suites: tuple
    fn: Callable
    probe: bool = False


CHECKS = {
    "connection-law-fd": CheckSpec(("conformal",), _check_connection_law),
    "sectional-law-fd": CheckSpec(("conformal",), _check_sectional_law),
    "ricci-law-fd": CheckSpec(("conformal",), _check_ricci_law),
    "mean-curvature-law-fd": CheckSpec(("conformal",), _check_mean_curvature_law),
    "poincare-recovery": CheckSpec(("conformal",), _check_poincare_recovery),
    "diameter-geodesic": CheckSpec(("conformal",), _check_diameter_geodesic),
    "curve-shortness": CheckSpec(("lemmas",), _check_curve_shortness),
    "crucial-bounds-flat": CheckSpec(("lemmas",), _check_crucial_bounds_flat),
    "crucial-bounds-hyperbolic": CheckSpec(("lemmas",), _check_crucial_bounds_hyperbolic),
    "elementary-inequalities": CheckSpec(("lemmas", "estimates"), _check_elementary),
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
    "scan-log-graph": CheckSpec(("scan",), _check_scan_log_graph),
    "scan-revolution": CheckSpec(("scan",), _check_scan_revolution),
    "scan-equidistant": CheckSpec(("scan",), _check_scan_equidistant),
    "scan-slab": CheckSpec(("scan",), _check_scan_slab),
}


def suite_checks(suite):
    if suite == "all":
        return list(CHECKS)
    return [cid for cid, spec in CHECKS.items() if suite in spec.suites]


def emit_scan_csv(scan, path):
    """Write a decay scan table; a missing scan leaves a header-only file."""
    if scan is None:
        Path(path).write_text(SCAN_CSV_HEADER, encoding="utf-8")
        warnings.warn(f"no scan data, wrote header only: {path}")
        return
    scan.to_csv(path)


def run(cfg, stdout=None, stderr=None):
    """Execute the configured suite; returns the process exit status."""
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    ids = suite_checks(cfg.suite)
    ctx = CheckContext(cfg)

    def job(cid):
        started = time.perf_counter()
        try:
            out = CHECKS[cid].fn(ctx)
        except NonConvergence as exc:
            return "nonconverged", str(exc)
        except Exception as exc:
            return "error", f"{type(exc).__name__}: {exc}"
        rep, scan = out if isinstance(out, tuple) else (out, None)
        if rep.check != cid:
            return "error", f"report id {rep.check!r} does not match registry id"
        rep.wall_time_s = time.perf_counter() - started
        return "ok", (rep, scan)

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = dict(zip(ids, pool.map(job, ids)))
    else:
        outcomes = {cid: job(cid) for cid in ids}

    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    status = 0
    nonconverged = []
    for cid in ids:
        kind, payload = outcomes[cid]
        if kind == "nonconverged":
            nonconverged.append(cid)
            print(f"{cid}: NONCONVERGED ({payload})", file=stdout)
            print(f"non-convergence in check {cid}: {payload}", file=stderr)
            continue
        if kind == "error":
            rep = build_report(cid, float("inf"), 0.0,
                               tolerance=cfg.tolerances["default"],
                               grid={"error": payload})
            scan = None
        else:
            rep, scan = payload
        (outdir / f"{cid}.json").write_text(rep.to_json() + "\n", encoding="utf-8")
        if scan is not None or cid.startswith("scan-"):
            emit_scan_csv(scan, outdir / f"{cid}.csv")
        tag = "PASS" if rep.passed else "FAIL"
        if rep.probe:
            tag += " (probe)"
        if kind == "error":
            tag = "ERROR"
            print(f"check {cid} raised: {payload}", file=stderr)
        print(f"{cid}: {tag} slack={rep.slack:.6g}", file=stdout)
        if not rep.passed and not rep.probe:
            status = 1
    if nonconverged:
        return 3
    return status


def _list_checks(stdout):
    width = max(len(cid) for cid in CHECKS)
    for cid, spec in CHECKS.items():
        mark = "  (probe)" if spec.probe else ""
        print(f"{cid:<{width}}  [{', '.join(spec.suites)}]{mark}", file=stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="curvlab",
        description="Run the curvature verification checks and write reports.",
    )
    parser.add_argument("--config", default=None,
                        help="INI file with [run], [tolerances], [grids], [fixture]")
    parser.add_argument("--suite", default=None, choices=SUITES,
                        help="which check suite to run (default: all)")
    parser.add_argument("--out", default=None, help="output directory for reports")
    parser.add_argument("--seed", type=int, default=None, help="base seed for sampling")
    parser.add_argument("--workers", type=int, default=None,
                        help="thread pool size for independent checks")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the registry and exit")
    args = parser.parse_args(argv)
    if args.list_checks:
        _list_checks(sys.stdout)
        return 0
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
