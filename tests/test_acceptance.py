"""Acceptance suite: the contract-level checks, one test per criterion.

Each test prints a single summary line (visible with pytest -s, or in the
captured output of a failing test) before asserting, so a red criterion
still reports its measured numbers.
"""

import json
from fractions import Fraction
from math import comb, factorial

import numpy as np
from scipy.integrate import quad

from curvlab import checks, cli, estimates
from curvlab.cli import RunConfig
from curvlab.estimates import decay_scan
from curvlab.fields import ConstantField
from curvlab.geodesic import GeodesicProblem, minimize_free_boundary
from curvlab.hypersurface import example_fixture
from curvlab.variation import CoshWeight, crucial_bounds_scan, phi_calculus


def _run(cid):
    """The registered check ``cid`` under the default configuration."""
    return cli.CHECKS[cid].fn(cli.CheckContext(RunConfig(), cid))


def _line(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _observed(report, part):
    return report.grid["parts"][part]["observed"]


# ---------------------------------------------------------------------------
# 1. conformal transformation laws against finite differences
# ---------------------------------------------------------------------------


def test_criterion_01_conformal_law_oracles():
    reports = [
        _run("connection-law-fd"),
        _run("sectional-law-fd"),
        _run("ricci-law-fd"),
        _run("mean-curvature-law-fd"),
    ]
    errs = [_observed(r, "fd_relative_error") for r in reports]
    ok = all(e <= 1e-4 for e in errs)
    _line(1, ok, f"worst fd relative errors {['%.2e' % e for e in errs]}")
    for rep, err in zip(reports, errs):
        assert err <= 1e-4, rep.check


# ---------------------------------------------------------------------------
# 2. constant-curvature recovery from the ball factor
# ---------------------------------------------------------------------------


def test_criterion_02_poincare_recovery():
    rep = _run("poincare-recovery")
    ric = _observed(rep, "ricci_constant_error")
    sph = _observed(rep, "sphere_mean_curvature_error")
    ok = ric <= 1e-4 and sph <= 1e-6
    _line(2, ok, f"Ricci error {ric:.2e}, sphere curvature error {sph:.2e}")
    assert ric <= 1e-4
    assert sph <= 1e-6


# ---------------------------------------------------------------------------
# 3. the equidistant-circle configurations are exactly sharp
# ---------------------------------------------------------------------------


def test_criterion_03_sharp_lens():
    rep = _run("sharp-lens")
    errs = {
        name: _observed(rep, name)
        for name in ("mean_curvature_error", "distance_error",
                     "tanh_identity_error", "bound_gap")
    }
    ok = all(v <= 1e-6 for v in errs.values())
    _line(3, ok, ", ".join(f"{k} {v:.2e}" for k, v in errs.items()))
    for name, val in errs.items():
        assert val <= 1e-6, name


# ---------------------------------------------------------------------------
# 4. grid certificate for the sharp pointwise J bounds
# ---------------------------------------------------------------------------


def test_criterion_04_j_bounds_grid_certificate():
    n_r, n_t = 2000, 200
    worst = np.inf
    location_ok = True
    for n in (1, 2, 3):
        for R in (10.0, 100.0):
            flat = crucial_bounds_scan(n, R, model="euclid", n_r=n_r, n_t=n_t)
            hyp = crucial_bounds_scan(n, R, model="hyperbolic", n_r=n_r, n_t=n_t)
            for scan in (flat, hyp):
                worst = min(worst, min(c.min_slack for c in scan.checks.values()))
            # flat equality sits at r = R, up to one grid cell
            c = flat.checks["j2_upper"]
            dr = R / (n_r - 1)
            location_ok &= abs(c.at_r - R) <= dr + 1e-12
    ok = worst >= -1e-12 and location_ok
    _line(4, ok, f"min slack {worst:.3e}, equality located {location_ok}")
    assert worst >= -1e-12
    assert location_ok


# ---------------------------------------------------------------------------
# 5. geodesic solver accuracy and the pointwise curvature law
# ---------------------------------------------------------------------------


def _max_discrete_curvature(space, curve):
    acc = curve.vertex_acceleration()[1][1:-1]
    return max(float(space.norm(x, a)) for x, a in zip(curve.points[1:-1], acc))


def test_criterion_05_solver_and_curvature_law():
    slab = _run("slab-perpendicular")
    length_err = _observed(slab, "length_error")
    orth_err = _observed(slab, "orthogonality_error")

    law = _run("planar-curvature-law")
    bump_residual = _observed(law, "curvature_law_residual")

    # trivial-factor minimizer between the equidistant circles: the law
    # reduces to vanishing discrete geodesic curvature
    fx = example_fixture("poincare-circles", a=1.0)
    seeds = np.stack(
        [
            fx.pieces[0].chart_points(np.array([np.pi + 0.25]))[0],
            fx.pieces[1].chart_points(np.array([-0.2]))[0],
        ]
    )
    problem = GeodesicProblem(
        fx.space, ConstantField(1.0),
        piece_start=fx.pieces[0], piece_end=fx.pieces[1], endpoints=seeds,
    )
    res = minimize_free_boundary(problem, n_segments=256, gtol=1e-7)
    lens_residual = _max_discrete_curvature(fx.space, res.curve)

    short = _run("curve-shortness")
    margin = short.grid["budget"] - short.grid["sup_deviation"]

    law_worst = max(bump_residual, lens_residual)
    ok = (
        length_err <= 1e-8
        and orth_err <= 1e-6
        and res.converged
        and law_worst <= 1e-5
        and margin >= 0.0
    )
    _line(
        5, ok,
        f"length error {length_err:.2e}, orthogonality {orth_err:.2e}, "
        f"law residual {law_worst:.2e}, shortness margin {margin:.3f}",
    )
    assert length_err <= 1e-8
    assert orth_err <= 1e-6
    assert res.converged
    assert law_worst <= 1e-5
    assert margin >= 0.0


# ---------------------------------------------------------------------------
# 6. traced second variation against the brute-force oracle
# ---------------------------------------------------------------------------


def test_criterion_06_index_form_consistency():
    flat = _run("index-form-flat-slab")
    nonneg = _run("index-form-nonnegative")
    fd_rel = max(_observed(flat, "fd_relative_error"),
                 _observed(flat, "fd_relative_error_cosh"))
    totals = [
        flat.grid["total"],
        flat.grid["total_cosh"],
        nonneg.grid["slab_total"],
        nonneg.grid["lens_total"],
    ]
    min_total = min(totals)
    ok = fd_rel <= 1e-4 and min_total >= -1e-6
    _line(6, ok, f"fd relative error {fd_rel:.2e}, smallest form value {min_total:.3e}")
    assert fd_rel <= 1e-4
    assert min_total >= -1e-6


# ---------------------------------------------------------------------------
# 7. weight-function calculus
# ---------------------------------------------------------------------------


def test_criterion_07_weight_calculus():
    rep = phi_calculus(2.0)
    Ls = np.geomspace(1e-2, 50.0, 120)
    closed = np.array([CoshWeight(L).phi_sq_integral() for L in Ls])
    tf = CoshWeight(2.0)
    val, _ = quad(lambda s: float(tf.phi(np.asarray(s))) ** 2, 0.0, 2.0, limit=200)
    quad_err = abs(tf.phi_sq_integral() - val)
    ok = (
        rep.endpoint_error <= 1e-12
        and bool(np.all(closed <= 1.2))
        and quad_err <= 1e-6
        and abs(tf.phi_sq_integral() - 1.1816) < 5e-5
    )
    _line(
        7, ok,
        f"endpoint error {rep.endpoint_error:.2e}, sup integral {closed.max():.5f}, "
        f"value at L=2 {tf.phi_sq_integral():.6f}",
    )
    assert rep.endpoint_error <= 1e-12
    assert np.all(closed <= 1.2)
    assert quad_err <= 1e-6
    assert abs(tf.phi_sq_integral() - 1.1816) < 5e-5


# ---------------------------------------------------------------------------
# 8. decay scans against the closed-form envelopes
# ---------------------------------------------------------------------------


def test_criterion_08_decay_scans():
    """Envelopes of three decay scans, the drift of the fitted 1/R^2
    constant, and the limit of the log-graph's normalized decay.

    The normalized decay R H log^2 R of the logarithmic graph approaches its
    limit only like 1 - 2/log R, so its values on a finite grid stay below
    0.8.  What is checked is the limit and that rate: a least-squares fit
    normalized ~ a + b/log R over the top half of the grid must give a in
    [0.8, 1.2] and b within 10% of -2.
    """
    # The registered scans at the default config: 7 radii, e^4 to e^10.
    log_rep, _ = _run("scan-log-graph")
    rev_rep, _ = _run("scan-revolution")
    assert log_rep.grid["R"] == rev_rep.grid["R"] == np.exp(np.linspace(4.0, 10.0, 7)).tolist()
    # Top half of the grid, R = e^7..e^10, selected by index so that the
    # point set does not hinge on the rounding of exp.
    top_R = np.array(log_rep.grid["R"][3:])
    top_vals = np.array(log_rep.grid["normalized"][3:])
    window_lo = float(np.min(top_vals))
    window_hi = float(np.max(top_vals))
    rate, limit = np.polyfit(1.0 / np.log(top_R), top_vals, 1)
    limit_ok = 0.8 <= limit <= 1.2
    rate_ok = abs(rate + 2.0) <= 0.2

    hyp_fx = example_fixture("hyperbolic-equidistant")
    hyp_scan = decay_scan(hyp_fx, np.geomspace(2.0, 16.0, 5))
    hyp_slack = (checks._saturation_envelope(hyp_fx, hyp_scan.R)
                 - (hyp_scan.inf1 + hyp_scan.inf2))
    log_passed, rev_passed = log_rep.passed, rev_rep.passed
    hyp_passed = bool(np.all(hyp_slack >= -1e-12))
    fit_drift = _observed(rev_rep, "fit_drift")
    ok = (
        log_passed
        and rev_passed
        and fit_drift <= 0.05
        and hyp_passed
        and limit_ok
        and rate_ok
    )
    fit = (
        f"normalized decay on e^7..e^10 [{window_lo:.3f}, {window_hi:.3f}], "
        f"fitted limit {limit:.4f} vs [0.8, 1.2], "
        f"rate {rate:.3f} vs -2 +- 10%"
    )
    _line(
        8, ok,
        f"envelopes passed ({log_passed}, {rev_passed}, {hyp_passed}), "
        f"fit drift {fit_drift:.4f}, {fit}",
    )
    assert log_passed
    assert rev_passed
    assert fit_drift <= 0.05
    assert hyp_passed
    assert limit_ok and rate_ok, (
        "normalized decay of the logarithmic graph does not approach a limit "
        f"in [0.8, 1.2] at the rate 2/log R: {fit}"
    )


# ---------------------------------------------------------------------------
# 9. displayed curvature of the revolution surface
# ---------------------------------------------------------------------------


def test_criterion_09_revolution_formula():
    fx = example_fixture("revolution-r4")
    piece = fx.pieces[0]
    ts = np.linspace(0.5, 0.95, 50, endpoint=False)
    L = 1.0 / (1.0 - ts)
    h = np.exp(L)
    hp = h * L**2
    hpp = h * L**3 * (L + 2.0)
    principal = (2.0 * (1.0 + hp * hp) - h * hpp) / (h * (1.0 + hp * hp) ** 1.5)
    displayed = np.asarray(piece.h_exact(ts), dtype=float)
    rel = float(np.max(np.abs(displayed - principal) / np.abs(principal)))
    ok = rel <= 1e-10
    _line(9, ok, f"displayed vs principal-curvature formula, relative error {rel:.2e}")
    assert rel <= 1e-10


# ---------------------------------------------------------------------------
# 10. elementary inequalities with reported slack
# ---------------------------------------------------------------------------


def test_criterion_10_elementary_inequalities():
    rep = _run("elementary-inequalities")
    slacks = {
        "shortness_factor": rep.grid["shortness_factor"]["min_slack"],
        "exp_linear": rep.grid["exp_linear"]["min_slack"],
        "coth_window": rep.grid["coth_window"]["min_slack"],
    }
    quarter = rep.grid["shortness_factor"]["slack_at_quarter"]
    quarter_ok = abs(quarter - 1.11e-3) <= 0.05 * 1.11e-3
    ok = all(s >= -1e-12 for s in slacks.values()) and quarter_ok
    _line(
        10, ok,
        "min slacks " + ", ".join(f"{k} {v:.3e}" for k, v in slacks.items())
        + f"; quarter-point slack {quarter:.4e}",
    )
    for name, s in slacks.items():
        assert s >= -1e-12, name
    assert quarter_ok


def test_criterion_10_coth_route_matches_mpmath():
    """The second route that ``elementary-inequalities`` holds
    ``coth_minus_inv`` to is within 1e-14 relative of 40-digit mpmath on the
    coth window's grid and on [1e-6, 0.5], where its series takes over."""
    import mpmath

    n_grid, r_max = estimates.ELEMENTARY_N_GRID, estimates.ELEMENTARY_R_MAX
    r = np.concatenate([np.linspace(r_max / n_grid, r_max, n_grid), np.linspace(1e-6, 0.5, 200)])
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.coth(x) - 1 / mpmath.mpf(x)) for x in r])
    assert np.max(np.abs(checks._coth_minus_inv_route(r) - ref) / ref) <= 1e-14
    # the series coefficients are 2^{2k} B_{2k} / (2k)!, from exact Bernoulli numbers
    B = [Fraction(1)]
    for n in range(1, 29):
        B.append(-sum(comb(n + 1, j) * B[j] for j in range(n)) / (n + 1))
    assert [Fraction(*c) for c in checks.COTH_SERIES] == [
        4**k * B[2 * k] / factorial(2 * k) for k in range(1, 15)]


# ---------------------------------------------------------------------------
# 11. determinism of the reporting harness
# ---------------------------------------------------------------------------


def test_criterion_11_deterministic_outputs(tmp_path):
    """Two runs of the scan suite write byte-identical tables and reports
    that differ in ``wall_time_s`` alone; each table, LF-ended under its
    header, holds the radii and the smallest slack of its report."""
    out1, out2 = tmp_path / "a", tmp_path / "b"
    s1 = cli.main(["--suite", "scan", "--out", str(out1), "--seed", "5"])
    s2 = cli.main(["--suite", "scan", "--out", str(out2), "--seed", "5"])
    tables = sorted(p.name for p in out1.glob("*.csv"))
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes() for name in tables
    )
    ok = s1 == 0 and s2 == 0 and bool(tables) and identical
    _line(11, ok, f"{len(tables)} tables byte-identical across runs: {identical}")
    assert s1 == 0 and s2 == 0
    assert tables == sorted(f"{cid}.csv" for cid in cli.suite_checks("scan"))
    assert identical
    for name in tables:
        raw = (out1 / name).read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"R,inf_h1,inf_h2,sum,envelope,slack\n")
        table = np.array([[float(v) for v in ln.split(",")]
                          for ln in raw.decode("utf-8").splitlines()[1:]])
        r1, r2 = (json.loads((out / name).with_suffix(".json").read_text(encoding="utf-8"))
                  for out in (out1, out2))
        assert table[:, 0].tolist() == r1["grid"]["R"]
        assert float(np.min(table[:, 5])) == r1["grid"]["min_slack"]
        assert r1.pop("wall_time_s") > 0 and r2.pop("wall_time_s") > 0
        assert r1 == r2
