"""Tests for the curvature-sum estimate, decay scans, and the supporting
elementary inequalities."""

import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from curvlab import checks, estimates
from curvlab.estimates import (
    STATEMENT_CONSTANTS,
    decay_scan,
    main_estimate_euclid,
    main_estimate_hyperbolic,
    sharpness_gap,
    theorem_bound,
    upper_bound_along,
)
from curvlab.checks import CHECKS
from curvlab.cli import CheckContext, RunConfig
from curvlab.hypersurface import example_fixture, infima_over_annuli
from curvlab.report import NonConvergence, VerificationReport


def _run(cid):
    """The registered check ``cid`` under the default configuration."""
    return CHECKS[cid].fn(CheckContext(RunConfig(), cid))


def _passes(lhs, rhs):
    """The estimate checks' pass rule: slack rhs - lhs >= -1e-9."""
    return rhs - lhs >= -1e-9


# ---------------------------------------------------------------------------
# saturating bound
# ---------------------------------------------------------------------------


def test_theorem_bound_closed_form():
    # tanh(2 artanh(t)) = 2t/(1+t^2); at t = sqrt(2)-1 this is 1/sqrt(2)
    d = 4.0 * np.arctanh(np.sqrt(2.0) - 1.0)
    assert np.isclose(theorem_bound(1.0, 1, d), np.sqrt(2.0), rtol=1e-12)
    for dd in (0.1, 1.0, 10.0):
        assert theorem_bound(0.0, 3, dd) == 0.0
    gap = 4.0 - theorem_bound(1.0, 2, 100.0)
    assert 0.0 <= gap < 1e-40


def test_theorem_bound_monotone_in_distance():
    d = np.linspace(0.1, 10.0, 100)
    vals = np.array([theorem_bound(1.0, 2, di) for di in d])
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(vals < 4.0)


def test_theorem_bound_rejects_bad_arguments():
    with pytest.raises(ValueError):
        theorem_bound(1.0, 2, 0.0)
    with pytest.raises(ValueError):
        theorem_bound(1.0, 2, -1.0)
    with pytest.raises(ValueError):
        theorem_bound(-0.5, 2, 1.0)


# ---------------------------------------------------------------------------
# the estimate's hypotheses
# ---------------------------------------------------------------------------


def test_config_validation():
    """Both branches, and the bound along a grid, hold R, L0 > 0,
    L0 <= R/4 and n >= 1."""
    for branch in (main_estimate_euclid, main_estimate_hyperbolic):
        branch(0.0, 0.0, 8.0, 2.0, 2)
        for R, L0, n in ((8.0, 2.1, 2), (8.0, 1.0, 0), (0.0, 1.0, 2), (8.0, 0.0, 2)):
            with pytest.raises(ValueError):
                branch(0.0, 0.0, R, L0, n)
    with pytest.raises(ValueError, match="at least 1"):
        upper_bound_along(0.0, 0, 1.0, [8.0, 16.0])


# ---------------------------------------------------------------------------
# flat branch
# ---------------------------------------------------------------------------


def test_flat_branch_totally_geodesic_slab():
    lhs, rhs, _ = main_estimate_euclid(0.0, 0.0, 10.0, 1.2, 2)
    assert _passes(lhs, rhs)
    assert np.isclose(rhs, 30.0 * 2 * 1.2 / 100.0, rtol=1e-15)
    assert rhs - lhs == rhs


def test_flat_branch_synthetic_probe_fails():
    # uniformly positive curvature bounds on a large ball violate the
    # estimate; that is the point of the probe, and it must not pass
    lhs, rhs, _ = main_estimate_euclid(1.0, 1.0, 100.0, 1.0, 2)
    assert not _passes(lhs, rhs)
    assert np.isclose(lhs, 2.0)
    assert np.isclose(rhs, 2.5 / 100.0 + 60.0 / 10000.0, rtol=1e-13)
    assert rhs - lhs < -1.9
    # the check files the same sides under its own id; the registry, not
    # the check, marks it a probe (the runner copies the mark)
    rep = _run("curvature-sum-flat-probe")
    assert CHECKS["curvature-sum-flat-probe"].probe and not rep.probe
    assert rep.check == "curvature-sum-flat-probe"
    assert (rep.lhs, rep.rhs) == (lhs, rhs) and not rep.passed


def test_flat_branch_measured_log_graph():
    fx = example_fixture("log-graph")
    graph, axis = fx.pieces
    R = np.exp(6.0)
    [res1] = infima_over_annuli(graph, 0.0, R)
    [res2] = infima_over_annuli(axis, 0.0, R)
    c1, c2 = res1.value, res2.value
    # curvature on the graph increases from the chart edge past the zero
    # crossing, so the ball infimum sits at the inner chart endpoint
    assert np.isclose(c1, float(graph.h_exact(np.array([3.0]))[0]), rtol=1e-6)
    assert abs(c2) < 1e-12
    x0 = 20.0
    L0 = x0 / np.log(x0)
    lhs, rhs, _ = main_estimate_euclid(c1, c2, R, L0, 1)
    assert _passes(lhs, rhs)
    assert rhs - lhs > 0.2


def test_constant_families():
    # in both branches the error term reads c2, not c1
    _, rhs, grid = main_estimate_euclid(0.5, 0.25, 40.0, 3.0, 2)
    assert grid["constants"] == "statement"
    A, B, C = STATEMENT_CONSTANTS
    assert np.isclose(rhs, A * 3.0 / 40.0 * 0.25 + B * 2 * 3.0 / 1600.0, rtol=1e-14)
    _, rhs, grid = main_estimate_hyperbolic(0.5, 0.25, 40.0, 3.0, 2)
    assert grid["constants"] == "statement"
    a = grid["alpha"]
    assert np.isclose(rhs, A * 3.0 / 40.0 * abs(0.25 - 2 * a) + B * 2 * 3.0 / 1600.0
                      + C * 2 * np.sqrt(3.0) / 40.0, rtol=1e-14)


# ---------------------------------------------------------------------------
# hyperbolic branch
# ---------------------------------------------------------------------------


def test_hyperbolic_branch_equidistant_with_limit_grid():
    fx = example_fixture("poincare-circles", a=1.0)
    c1 = float(fx.pieces[0].mean_curvature(fx.endpoints[0]))
    c2 = float(fx.pieces[1].mean_curvature(fx.endpoints[1]))
    assert np.isclose(c1 + c2, np.sqrt(2.0), rtol=1e-10)
    d = float(fx.distance)
    lhs, rhs, grid = main_estimate_hyperbolic(c1, c2, 16.0, d, 1)
    assert _passes(lhs, rhs)
    # the sharpest admissible alpha, tanh((1 + 5 d / 144) d / 2), in (0, 1)
    alpha = np.tanh(0.5 * (1.0 + 5.0 * d / 144.0) * d)
    assert grid["alpha"] == grid["alpha_min"]
    assert np.isclose(grid["alpha"], alpha, rtol=1e-15) and 0.0 < alpha < 1.0
    assert lhs == c1 + c2 - 2.0 * grid["alpha"]
    ub = upper_bound_along(c2, 1, d, [16.0, 32.0, 64.0, 128.0])
    limit = theorem_bound(1.0, 1, fx.distance)
    assert np.isclose(limit, np.sqrt(2.0), rtol=1e-10)
    gap = ub - limit
    assert np.all(gap > 0.0)
    assert np.all(np.diff(gap) < 0.0)
    assert np.all(ub >= c1 + c2)


def test_hyperbolic_branch_grid_requires_admissible_radii():
    with pytest.raises(ValueError, match="R/4"):
        upper_bound_along(0.0, 1, 2.0, [4.0, 16.0])


def test_sharpness_gap_rate():
    Rs = np.array([16.0, 32.0, 64.0, 128.0])
    for a in (0.5, 1.0, 2.0):
        out = sharpness_gap(a, Rs)
        assert abs(out["gap_measured"]) < 1e-10
        gb = out["gap_bound"]
        assert np.all(gb > 0.0)
        assert np.all(np.diff(gb) < 0.0)
        # the bound's excess halves when R doubles (1/R-dominated)
        assert 1.8 < gb[-2] / gb[-1] < 2.3
        assert np.all(out["upper_bound"] >= out["c1"] + out["c2"])


# ---------------------------------------------------------------------------
# decay scans
# ---------------------------------------------------------------------------


def test_decay_scan_slab_identically_zero():
    fx = example_fixture("euclid-slab", d=1.0)
    scan = decay_scan(fx, np.array([2.0, 4.0, 8.0, 16.0]))
    envelope = checks._inverse_R_envelope(fx, scan.R)
    assert np.all(envelope - (scan.inf1 + scan.inf2) >= -1e-12)
    assert np.max(np.abs(scan.inf1)) < 1e-12
    assert np.max(np.abs(scan.inf2)) < 1e-12
    assert np.allclose(envelope, 40.0 * 2 / scan.R)
    assert scan.R[0] == 2.0


def _inject(monkeypatch, failures):
    """Make the k-th annulus of the piece labelled ``label`` fail, for each
    (k, label, kind) in ``failures``: kind "unconverged" or "miss"."""
    infima = estimates.infima_over_annuli

    def patched(piece, r_lo, r_hi):
        out = infima(piece, r_lo, r_hi)
        for k, label, kind in failures:
            if piece.label == label:
                if kind == "miss":
                    out[k] = None
                else:
                    out[k].converged, out[k].missed = False, (0.5, 0.625)
        return out

    monkeypatch.setattr(estimates, "infima_over_annuli", patched)


def test_decay_scan_names_the_unconverged_radius(monkeypatch):
    Rs = np.exp(np.linspace(4.0, 10.0, 7))
    _inject(monkeypatch, [(1, "x-axis", "unconverged"), (3, "log-graph", "unconverged")])
    # the message a radius-by-radius loop raises at the second radius
    want = (f"x-axis: annulus infimum over ({Rs[1] / 3.0:.6g}, {Rs[1]:.6g}): "
            "chart bracket (0.5, 0.625) hit the step cap")
    with pytest.raises(NonConvergence) as info:
        decay_scan(example_fixture("log-graph"), Rs)
    assert str(info.value) == want


@pytest.mark.parametrize("failures, error", [
    # radius first: a miss of the second piece at the second radius comes
    # before a failure of the first piece at the third
    ([(1, "x-axis", "miss"), (2, "log-graph", "unconverged")], ValueError),
    ([(2, "x-axis", "miss"), (1, "log-graph", "unconverged")], NonConvergence),
    # then piece: at one radius the first piece's failure wins
    ([(1, "x-axis", "miss"), (1, "log-graph", "unconverged")], NonConvergence),
    ([(1, "x-axis", "unconverged"), (1, "log-graph", "miss")], ValueError),
])
def test_decay_scan_raises_for_the_first_radius_then_piece(monkeypatch, failures, error):
    _inject(monkeypatch, failures)
    with pytest.raises(error, match="annulus"):
        decay_scan(example_fixture("log-graph"), np.exp(np.linspace(4.0, 10.0, 7)))


def test_decay_scan_log_graph_envelope_and_cut_oracle():
    fx = example_fixture("log-graph")
    graph = fx.pieces[0]
    Rs = np.exp(np.linspace(4.0, 10.0, 7))
    scan = decay_scan(fx, Rs)
    total = scan.inf1 + scan.inf2
    slack = checks._inverse_R_envelope(fx, scan.R) - total
    assert np.all(slack >= -1e-12)
    assert np.all(slack > 0.0)
    assert np.max(np.abs(scan.inf2)) < 1e-12
    # curvature decreases along the annuli here, so each infimum sits at
    # the outer cut; check one against the closed form at that cut
    R = Rs[3]
    x_cut = brentq(
        lambda x: np.linalg.norm(graph.chart_points(np.array([x]))[0]) - R,
        3.0,
        2.0e6,
    )
    oracle = float(graph.h_exact(np.array([x_cut]))[0])
    assert np.isclose(scan.inf1[3], oracle, rtol=1e-6)
    # the normalized product total * R * log(R)^2 creeps up toward 1
    rep, _ = _run("scan-log-graph")  # the same grid by default
    assert rep.grid["R"] == Rs.tolist()
    normalized = np.array(rep.grid["normalized"])
    assert np.all(np.diff(normalized) > 0.0)
    assert np.all(normalized < 1.0)


def test_decay_scan_revolution_fitted_envelope():
    fx = example_fixture("revolution-r4")
    Rs = np.exp(np.linspace(4.0, 10.0, 7))
    scan = decay_scan(fx, Rs)
    total = scan.inf1 + scan.inf2
    constant, drift = checks._fitted_inverse_R2(total, scan.R)
    assert np.all(constant / scan.R**2 - total >= -1e-12)
    assert np.isfinite(constant)
    assert drift < 0.05
    # product total * R^2 log(R)^2 tracks (log R - 2)/log R: bounded
    rep, _ = _run("scan-revolution")  # the same grid by default
    assert rep.grid["R"] == Rs.tolist()
    normalized = np.array(rep.grid["normalized"])
    assert np.all(normalized > 0.0)
    assert np.all(normalized < 1.0)
    # single boundary piece: second column identically zero
    assert np.all(scan.inf2 == 0.0)


def test_decay_scan_hyperbolic_saturation():
    fx = example_fixture("hyperbolic-equidistant", a=1.0, dim=3)
    scan = decay_scan(fx, np.array([2.0, 4.0, 8.0, 16.0]))
    total = scan.inf1 + scan.inf2
    envelope = checks._saturation_envelope(fx, scan.R)
    assert np.all(envelope - total >= -1e-12)
    assert np.allclose(total, 2.0 * 2 / np.sqrt(2.0), rtol=1e-8)
    assert np.allclose(envelope, 4.0 + 26.0 * scan.R ** (-2.0 / 3.0))


def test_decay_scan_working_set_stays_small():
    """The annulus scan evaluates its chart points in chunks and finds its
    cuts one level at a time: a 40-radius revolution-r4 scan peaks below
    2.5 MB of traced memory (5.9 MB as one batch)."""
    fx = example_fixture("revolution-r4")
    R = np.exp(np.linspace(4.0, 10.0, 40))
    decay_scan(fx, R[:2])  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        decay_scan(fx, R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_decay_scan_working_set_does_not_grow_with_radii():
    """The local tables of the annuli are judged a group at a time, so a
    160-radius revolution-r4 scan peaks within 1.2 times the traced memory
    of a 40-radius one (3.5 MB against 1.3 MB with every table held)."""
    fx = example_fixture("revolution-r4")

    def peak(n):
        R = np.exp(np.linspace(4.0, 10.0, n))
        tracemalloc.start()
        try:
            decay_scan(fx, R)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # first-call allocations stay out of the peak
    assert peak(160) < 1.2 * peak(40)


def test_decay_scan_rejects_bad_grids():
    fx = example_fixture("euclid-slab", d=1.0)
    with pytest.raises(ValueError):
        decay_scan(fx, np.array([4.0, 2.0]))
    # annuli beyond the charted part of the planes
    with pytest.raises(ValueError):
        decay_scan(fx, np.array([200.0, 400.0]))


# The ids still name the envelope kind that decay_scan took until the
# envelopes moved to ``checks``, so each case keeps its id.
@pytest.mark.parametrize(
    "R_grid, message",
    [
        pytest.param([], "must not be empty", id="R_grid1-sum-inverse-R-must not be empty"),
        pytest.param([[2.0, 4.0], [8.0, 16.0]], "must be 1-d",
                     id="R_grid2-sum-inverse-R-must be 1-d"),
        pytest.param(4.0, "must be 1-d", id="4.0-sum-inverse-R-must be 1-d"),
        pytest.param([4.0, 2.0], "strictly increasing",
                     id="R_grid4-sum-inverse-R-strictly increasing"),
        pytest.param([2.0, 2.0], "strictly increasing",
                     id="R_grid5-sum-inverse-R-strictly increasing"),
    ],
)
def test_decay_scan_validates_before_any_infimum(monkeypatch, R_grid, message):
    """Each bad grid is named by its own message, and raises before a
    single annulus infimum is computed."""
    def no_infima(*args, **kwargs):
        raise AssertionError("annulus infima computed before validation")

    monkeypatch.setattr(estimates, "annulus_infima", no_infima)
    with pytest.raises(ValueError, match=message):
        decay_scan(example_fixture("euclid-slab", d=1.0), np.asarray(R_grid))


# ---------------------------------------------------------------------------
# elementary inequalities
# ---------------------------------------------------------------------------


def test_elementary_inequalities_report():
    rep = _run("elementary-inequalities")
    assert rep.passed
    # equality of |e^x - 1| <= (4/3)|x| at x = 0 makes the overall
    # minimum slack exactly zero
    assert rep.slack == 0.0
    g = rep.grid
    assert g["exp_linear"]["min_slack"] == 0.0
    assert abs(g["exp_linear"]["at"]) < 1e-12
    assert g["shortness_factor"]["min_slack"] > 0.0
    # exact slack at the right endpoint: 41/36 - (16/15)^2 = 1/900
    assert np.isclose(g["shortness_factor"]["slack_at_quarter"], 1.0 / 900.0, rtol=1e-10)
    assert g["coth_window"]["min_slack"] > 0.0
    assert np.isclose(g["coth_window"]["value_at_one"], 1.0 / np.tanh(1.0) - 1.0, rtol=1e-12)
    assert 0.0 < g["coth_window"]["value_at_one"] < 1.0


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_report_pass_rule_and_digest():
    r1 = VerificationReport("demo", 1.0, 1.0 - 5e-10, tolerance=1e-9, inputs={"a": 1})
    assert r1.passed  # slack within -tolerance
    r2 = VerificationReport("demo", 1.0, 1.0 - 5e-9, tolerance=1e-9, inputs={"a": 1})
    assert not r2.passed
    assert r1.inputs_digest == r2.inputs_digest
    r3 = VerificationReport("demo", 1.0, 1.0, tolerance=1e-9, inputs={"a": 2})
    assert r3.inputs_digest != r1.inputs_digest
    assert len(r1.inputs_digest) == 16
    with pytest.raises(ValueError):
        VerificationReport("demo", 0.0, 0.0, tolerance=0.0)


def test_report_json_round_trip():
    import json

    rep = _run("curvature-sum-flat")
    d = json.loads(rep.to_json())
    assert d["check"] == "curvature-sum-flat"
    assert d["passed"] is True
    assert d["grid"]["constants"] == "statement"
    # the JSON is vars(rep): the ten report fields and nothing the
    # constructor only reads, such as its inputs
    assert sorted(d) == ["check", "grid", "inputs_digest", "lhs", "passed", "probe", "rhs",
                         "slack", "tolerance", "wall_time_s"]
