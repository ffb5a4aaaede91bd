"""Tests for the traced second-variation calculus.

The index-form decomposition is checked against a brute-force quadratic
coefficient: perturb the polyline by eps * phi * u * e_i for the transverse
coordinate directions, measure the conformal length, and fit the second
derivative by central differences.  The J quantities are checked against
direct evaluation of the defining field expressions, and the cosh weight's
calculus against closed forms and quadrature.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from curvlab import curves
from curvlab.curves import DiscreteCurve
from curvlab.fields import ConstantField, QuarticCutoff
from curvlab.hypersurface import example_fixture
from curvlab.spaceform import RadialField, SpaceForm, radial_map
from curvlab.spaceform import grad_g, grad_norm2_g, hess_g_apply, laplacian_g
from curvlab import variation
from curvlab.checks import _fd_second_variation, _gauss_legendre
from curvlab.conformal import geodesic_residual
from curvlab.variation import (
    BoundCheck,
    BoundsScan,
    CoshWeight,
    coth_minus_inv,
    crucial_bounds_scan,
    index_form_trace,
    phi_calculus,
    tanh_boundary_identity,
)

from references import curve_points


# ---------------------------------------------------------------------------
# cosh-weight calculus
# ---------------------------------------------------------------------------


def test_phi_endpoints_and_range():
    for L in (0.1, 1.0, 2.0, 10.0, 50.0):
        tf = CoshWeight(L)
        s = np.linspace(0.0, L, 501)
        vals = tf.phi(s)
        assert abs(float(tf.phi(np.asarray(0.0))) - 1.0) < 1e-14
        assert abs(float(tf.phi(np.asarray(L))) - 1.0) < 1e-14
        assert vals.min() > 0.0
        assert vals.max() <= 1.0 + 1e-15
        # interior dip: the minimum sits at the midpoint
        assert abs(float(s[np.argmin(vals)]) - L / 2.0) < 1.5 * L / 500.0


def test_phi_calculus_report():
    for L in (0.5, 2.0, 10.0):
        rep = phi_calculus(L)
        assert list(vars(rep)) == ["endpoint_error", "derivative_identity_error",
                                   "phi_sq_closed", "phi_range"]
        assert rep.endpoint_error < 1e-12
        assert rep.derivative_identity_error < 1e-7 * max(1.0, L)
        assert rep.phi_sq_closed <= 1.2
        assert 0.0 < rep.phi_range[0]
        assert rep.phi_range[1] <= 1.0 + 1e-15
        psi_left, psi_right = CoshWeight(L).endpoint_psi()
        assert abs(psi_left + math.tanh(L / 2.0)) < 1e-15
        assert abs(psi_right - math.tanh(L / 2.0)) < 1e-15


def test_phi_sq_integral_closed_form_vs_quadrature():
    for L in (0.1, 2.0, 10.0, 50.0):
        tf = CoshWeight(L)
        val, err = quad(lambda s: float(tf.phi(np.asarray(s))) ** 2, 0.0, L, limit=200)
        assert err < 1e-9
        assert abs(tf.phi_sq_integral() - val) < 1e-10


def test_phi_sq_integral_value_at_L2():
    tf = CoshWeight(2.0)
    exact = (math.e**4 - 1.0 + 4.0 * math.e**2) / (1.0 + math.e**2) ** 2
    assert abs(tf.phi_sq_integral() - exact) < 1e-14
    assert abs(exact - 1.18157) < 5e-6


def test_phi_sq_integral_matches_mpmath():
    """On 400 log-spaced lengths in [1e-8, 50] the closed form is within
    1e-15 relative of 40-digit mpmath. With 1 - exp(-2L) in place of
    -expm1(-2L) it cancelled at small L: 1.2e-9 off on [1e-8, 1e-6], 9.3e-12
    on [1e-6, 1e-4] and 1.0e-13 on [1e-4, 1e-2]."""
    import mpmath

    def ref(L):
        with mpmath.workdps(40):
            e = mpmath.exp(-mpmath.mpf(L))
            return float((1 - e * e + 2 * L * e) / (1 + e) ** 2)

    Ls = np.geomspace(1e-8, 50.0, 400)
    got = np.array([CoshWeight(L).phi_sq_integral() for L in Ls])
    want = np.array([ref(L) for L in Ls])
    assert np.max(np.abs(got - want) / want) <= 1e-15


def test_phi_sq_integral_sup_below_six_fifths():
    Ls = np.linspace(0.01, 60.0, 12000)
    vals = np.array([CoshWeight(L).phi_sq_integral() for L in Ls])
    assert vals.max() < 1.2
    peak = float(Ls[np.argmax(vals)])
    assert abs(peak - 2.4) < 0.1
    assert abs(vals.max() - 1.19968) < 1e-4
    # large-L limit is 1, small-L limit is 0
    assert abs(vals[-1] - 1.0) < 1e-2
    assert vals[0] < 0.02


def test_psi_endpoint_jump():
    for L in (0.1, 1.0, 10.0):
        tf = CoshWeight(L)
        lo, hi = tf.endpoint_psi()
        assert abs((hi - lo) - 2.0 * math.tanh(L / 2.0)) < 1e-15


def test_phi_rejects_bad_parameters():
    with pytest.raises(ValueError):
        CoshWeight(0.0)
    with pytest.raises(ValueError):
        phi_calculus(-1.0)


# ---------------------------------------------------------------------------
# coth r - 1/r
# ---------------------------------------------------------------------------


def test_coth_minus_inv_range():
    r = np.linspace(1e-6, 50.0, 20000)
    vals = coth_minus_inv(r)
    assert np.all(vals > 0.0)
    assert np.all(vals < 1.0)
    # monotone increasing toward 1
    assert np.all(np.diff(vals) > 0.0)


def test_coth_minus_inv_series_matches_direct():
    # straddle the series cutoff at 0.5; the direct form cancels ~4 bits
    # there, so the branches agree to about 1e-15 absolute
    for x in (0.4995, 0.5005, 0.25, 1.0):
        direct = math.cosh(x) / math.sinh(x) - 1.0 / x
        assert abs(coth_minus_inv(x) - direct) < 1e-13
    # leading term x/3; the x^3/45 correction is ~2.2e-11 at x = 1e-3
    assert abs(coth_minus_inv(1e-3) - 1e-3 / 3.0) < 1e-10
    assert coth_minus_inv(0.0) == 0.0


def test_coth_minus_inv_series_matches_mpmath():
    """Below the switch at 0.5, up to its last double, the series is within
    1e-15 relative of 40-digit mpmath, and the direct form above it within
    5e-15; with the switch at 0.1 the direct form was 6.1e-14 off on [0.1, 2]."""
    import mpmath

    def ref(x):
        with mpmath.workdps(40):
            return np.array([float(mpmath.coth(v) - 1 / mpmath.mpf(v)) for v in x])

    below = np.append(np.linspace(1e-6, 0.5, 3000, endpoint=False), np.nextafter(0.5, 0.0))
    above = np.linspace(0.5, 2.0, 1500)
    for x, tol in ((below, 1e-15), (above, 5e-15)):
        want = ref(x)
        assert np.max(np.abs(coth_minus_inv(x) - want) / want) <= tol


def _coth_minus_inv_reference(x):
    """The form without the overflow guard: finite up to x = 710.47."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 0.5
    xs = np.where(small, 1.0, x)
    direct = np.cosh(xs) / np.sinh(xs) - 1.0 / xs
    x2 = x * x
    series = x * (1 / 3 + x2 * (-1 / 45 + x2 * (2 / 945 + x2 * (-1 / 4725 + x2 * (
        2 / 93555 + x2 * (-1382 / 638512875 + x2 * (4 / 18243225 + x2 * (
            -3617 / 162820783125 + x2 * (87734 / 38979295480125 + x2 * (
                -349222 / 1531329465290625 + x2 * (310732 / 13447856940643125)))))))))))
    return np.where(small, series, direct)


def test_coth_minus_inv_past_cosh_overflow():
    # cosh overflows past 710.47; pytest turns the RuntimeWarning into an error
    for x in (711.0, 1e3, 1e6):
        assert coth_minus_inv(x) == 1.0 - 1.0 / x
        assert coth_minus_inv(-x) == -(1.0 - 1.0 / x)
    # every value that was finite keeps its bits
    x = np.concatenate([np.linspace(0.0, 710.0, 1_000_001), np.geomspace(1e-9, 710.0, 20001)])
    assert np.array_equal(coth_minus_inv(x), _coth_minus_inv_reference(x))


# ---------------------------------------------------------------------------
# J quantities
# ---------------------------------------------------------------------------


def j_values(space, profile, r, r_T):
    """(J1, J2) of the quartic cutoff at distance r with tangential part r_T."""
    terms = variation._radial_terms(space, profile, r, r_T)
    return variation._j1(*terms), variation._j2(*terms)


def _direct_j(space, u, x, T):
    """J1, J2 straight from the defining field expressions."""
    n = float(space.n)
    uv = float(u.value(x))
    gu = grad_g(space, u, x)
    u_T = float(space.inner(x, gu, T))
    u_N2 = float(grad_norm2_g(space, u, x)) - u_T**2
    u_TT = float(hess_g_apply(space, u, x, T, T))
    lap = float(laplacian_g(space, u, x))
    J1 = (n * u_N2 - n * uv * u_TT) / uv
    J2 = (n * u_T**2 - (lap - u_TT) * uv) / uv
    return J1, J2


def _radial_r_and_r_T(space, c, x, T):
    """Distance r from c to x and r_T = g(grad r, T); the coordinate gradient
    of r is dq / (2 r) with q = r^2 from ``radial_map``, and g^(ij) = w^2
    delta raises its index."""
    r = float(space.distance(c, x))
    _, dq, _ = radial_map(space, c, x)
    w = float(space.ambient_factor(x))
    return r, float(space.inner(x, (w * w / (2.0 * r)) * dq, T))


@pytest.mark.parametrize("kappa", [0.0, 1.0])
def test_j_values_match_direct_field_evaluation(kappa):
    rng = np.random.default_rng(20240817)
    dim = 3
    space = SpaceForm(dim, kappa)
    prof = QuarticCutoff(5.0)
    u = RadialField(space, np.zeros(dim), prof)
    for _ in range(25):
        x = rng.uniform(-0.55, 0.55, size=dim)
        if kappa == 0.0:
            x = x * 4.0
        T = rng.normal(size=dim)
        T /= space.norm(x, T)
        r, r_T = _radial_r_and_r_T(space, np.zeros(dim), x, T)
        J1, J2 = j_values(space, prof, r, r_T)
        J1d, J2d = _direct_j(space, u, x, T)
        assert abs(float(J1) - J1d) < 1e-10 * max(1.0, abs(J1d))
        assert abs(float(J2) - J2d) < 1e-10 * max(1.0, abs(J2d))


@pytest.mark.parametrize("kappa", [0.0, 1.0])
def test_j_values_center_limit(kappa):
    n = 2
    R = 3.0
    space = SpaceForm(n + 1, kappa)
    prof = QuarticCutoff(R)
    for rT in (0.0, 0.3, 1.0):
        J1, J2 = j_values(space, prof, 0.0, rT)
        assert abs(float(J1) - 4.0 * n / R**2) < 1e-14
        assert abs(float(J2) - 4.0 * n / R**2) < 1e-14
        # approach along r -> 0 is continuous
        J1e, J2e = j_values(space, prof, 1e-9, rT)
        assert abs(float(J1e) - float(J1)) < 1e-8
        assert abs(float(J2e) - float(J2)) < 1e-8


def test_j2_flat_equality_case():
    n = 2
    R = 10.0
    space = SpaceForm(n + 1, 0.0)
    prof = QuarticCutoff(R)
    _, J2 = j_values(space, prof, R, 1.0)
    assert abs(float(J2) - 16.0 * n / R**2) < 1e-15
    _, J2m = j_values(space, prof, R, -1.0)
    assert abs(float(J2m) - 16.0 * n / R**2) < 1e-15
    # the sharp intermediate identity u'^2/u - u'/r = 4 R^-4 (3 r^2 + R^2)
    r = np.linspace(0.0, R, 500)
    lhs = prof.d1_sq_over_value(r) - prof.d1_over_r(r)
    rhs = 4.0 / R**4 * (3.0 * r * r + R * R)
    assert np.max(np.abs(lhs - rhs)) < 1e-14
    assert np.all(lhs <= 16.0 / R**2 + 1e-15)


def test_monotonicity_facts():
    R = 7.0
    prof = QuarticCutoff(R)
    r = np.linspace(1e-3, R - 1e-3, 4000)
    h = 1e-6
    # (u'/r)' = 8 r R^-4 exactly for the quartic cutoff
    fd = (prof.d1_over_r(r + h) - prof.d1_over_r(r - h)) / (2.0 * h)
    assert np.max(np.abs(fd - 8.0 * r / R**4)) < 1e-6
    assert np.all(fd > 0.0)
    # (u'/sinh r)' >= 0 on (0, R]
    g = prof.d1(r) / np.sinh(r)
    gp = (prof.d1(r + h) / np.sinh(r + h) - prof.d1(r - h) / np.sinh(r - h)) / (2.0 * h)
    assert np.all(gp > -1e-9)
    assert np.all(g <= 0.0)


# ---------------------------------------------------------------------------
# grid scans of the sharp bounds
# ---------------------------------------------------------------------------


def test_crucial_bounds_scan_euclid():
    scan = crucial_bounds_scan(n=2, R=10.0, model="euclid", n_r=1000, n_t=100)
    assert all(c.min_slack >= -1e-12 for c in scan.checks.values())
    check = scan.checks["j2_upper"]
    assert check.min_slack >= -1e-12
    # the bound is attained at r = R, |r_T| = 1
    assert abs(check.min_slack) < 1e-12
    assert abs(check.at_r - 10.0) < 1e-12
    assert abs(scan.j2_max - 0.32) < 1e-12


def test_crucial_bounds_scan_hyperbolic():
    scan = crucial_bounds_scan(n=1, R=10.0, model="hyperbolic", n_r=1200, n_t=120)
    assert all(c.min_slack >= -1e-12 for c in scan.checks.values())
    j1 = scan.checks["j1_lower"]
    assert j1.min_slack >= -1e-12
    assert abs(j1.bound + 0.08) < 1e-15
    j2 = scan.checks["j2_upper"]
    assert j2.min_slack >= -1e-12


def test_hyperbolic_j2_bound_reduces_where_u_prime_vanishes():
    n, R = 3, 5.0
    prof = QuarticCutoff(R)
    base = 16.0 * n / R**2
    for r in (0.0, R):
        assert abs((base - n * float(prof.d1(r))) - base) < 1e-15


def test_scan_serialization_round_trip():
    scan = crucial_bounds_scan(n=1, R=4.0, model="hyperbolic", n_r=50, n_t=11)
    assert list(vars(scan)) == ["n_r", "n_t", "checks", "j2_max"]
    assert list(vars(scan.checks["j1_lower"])) == ["min_slack", "at_r", "bound", "value"]
    blob = json.dumps(_scan_record(scan), sort_keys=True)
    back = json.loads(blob)
    assert set(back["checks"]) == {"j1_lower", "j2_upper"}
    assert isinstance(back["checks"]["j1_lower"]["min_slack"], float)
    rebuilt = BoundsScan(**{**back, "checks": {name: BoundCheck(**c)
                                               for name, c in back["checks"].items()}})
    _assert_same_scan(rebuilt, scan)


def test_scan_rejects_unknown_model():
    with pytest.raises(ValueError):
        crucial_bounds_scan(n=1, R=4.0, model="spherical", n_r=50, n_t=11)


def _bounds_scan_reference(n, R, model, n_r, n_t):
    """The full n_r x n_t grid: every cell evaluated, one argmin per check,
    each of which must sit in the r_T = -1 column."""
    space = SpaceForm(n + 1, 0.0 if model == "euclid" else 1.0)
    prof = QuarticCutoff(R)
    r = np.linspace(0.0, R, n_r)
    rt = np.linspace(-1.0, 1.0, n_t)
    terms = variation._radial_terms(space, prof, r[:, None], rt[None, :])
    J2 = variation._j2(*terms)
    checks = {}

    def record(name, slack, bound, value):
        i, j = np.unravel_index(np.argmin(slack), slack.shape)
        assert rt[j] == -1.0, (name, float(rt[j]))
        checks[name] = BoundCheck(
            min_slack=float(slack[i, j]),
            at_r=float(r[i]),
            bound=float(np.broadcast_to(bound, slack.shape)[i, j]),
            value=float(value[i, j]),
        )

    base = 16.0 * n / R**2
    if model == "euclid":
        record("j2_upper", base - J2, base, J2)
    else:
        low = -8.0 * n / R**2
        J1 = variation._j1(*terms)
        record("j1_lower", J1 - low, low, J1)
        bound2 = base - n * prof.d1(r[:, None])
        record("j2_upper", bound2 - J2, bound2, J2)
    return BoundsScan(n_r=n_r, n_t=n_t, checks=checks, j2_max=float(J2.max()))


def _scan_record(scan):
    """Every field of a BoundsScan, its checks as dicts."""
    return {**vars(scan), "checks": {name: vars(c) for name, c in scan.checks.items()}}


def _assert_same_scan(got, want):
    """Bit for bit: json writes each float by its repr."""
    assert (json.dumps(_scan_record(got), sort_keys=True)
            == json.dumps(_scan_record(want), sort_keys=True))


@pytest.mark.parametrize("model", ["euclid", "hyperbolic"])
@pytest.mark.parametrize("n_r, n_t", [(3, 3), (37, 5), (500, 2), (1000, 101), (8000, 400)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bounds_scan_matches_full_grid(model, n_r, n_t, n):
    """The r_T = -1 column gives bitwise the scan of the full grid, and n_t
    moves nothing but the recorded n_t."""
    for R in (0.3, 1.0, 7.7, 10.0, 100.0, 1000.0):
        got = crucial_bounds_scan(n, R, model, n_r, n_t)
        _assert_same_scan(got, _bounds_scan_reference(n, R, model, n_r, n_t))
        got.n_t = 2
        _assert_same_scan(crucial_bounds_scan(n, R, model, n_r, 2), got)


@pytest.mark.parametrize("model", ["euclid", "hyperbolic"])
@pytest.mark.parametrize("row", ["negative-D", "nan-S"])
def test_bounds_scan_raises_where_the_sign_test_fails(monkeypatch, model, row):
    """A row with D < 0 may have its smallest slack inside the row, and a row
    with S = NaN spreads NaN; the r_T = -1 column answers for neither, so the
    scan names the first such radius."""
    radial_terms = variation._radial_terms
    r_bad = 7.5

    def patched(space, profile, r, r_T):
        n, S, P, D, rT2, rN2 = radial_terms(space, profile, r, r_T)
        if row == "negative-D":
            D = np.where(r == r_bad, -1e3, D)
        else:
            S = np.where(r == r_bad, np.nan, S)
        return n, S, P, D, rT2, rN2

    monkeypatch.setattr(variation, "_radial_terms", patched)
    with pytest.raises(ValueError, match=r"r = 7\.5\b"):
        crucial_bounds_scan(2, 10.0, model, n_r=5, n_t=5)


@pytest.mark.parametrize("model", ["euclid", "hyperbolic"])
def test_bounds_scan_evaluates_one_cell_per_row(monkeypatch, model):
    cells = []
    for name in ("_j1", "_j2"):
        real = getattr(variation, name)

        def counting(*terms, real=real):
            out = real(*terms)
            cells.append(out.size)
            return out

        monkeypatch.setattr(variation, name, counting)
    n_r, n_t = 8000, 400
    crucial_bounds_scan(2, 10.0, model, n_r=n_r, n_t=n_t)
    assert max(cells) <= n_r
    assert sum(cells) <= (1 if model == "euclid" else 2) * n_r


# ---------------------------------------------------------------------------
# index form on discrete geodesics
# ---------------------------------------------------------------------------


def _slab_axis_curve(space, half, n_segments):
    def fn(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape + (space.dim,))
        out[..., 0] = t
        return out

    return DiscreteCurve(space, curve_points(fn, -half, half, n_segments))


def test_index_form_all_terms_zero_for_trivial_slab():
    fx = example_fixture("euclid-slab", d=1.0, dim=3)
    curve = _slab_axis_curve(fx.space, 0.5, 256)
    rep = index_form_trace(curve, ConstantField(1.0), fx.pieces[1], fx.pieces[0])
    for term in (
        rep.boundary_start,
        rep.boundary_end,
        rep.ricci_integral,
        rep.cross_term,
        rep.j1_integral,
        rep.j2_integral,
        rep.total,
    ):
        assert term == 0.0
    assert rep.max_residual < 1e-14


def test_index_form_slab_matches_fd_oracle():
    fx = example_fixture("euclid-slab", d=1.2, dim=3)
    space = fx.space
    u = RadialField(space, np.zeros(3), QuarticCutoff(2.0))
    curve = _slab_axis_curve(space, 0.6, 2048)
    rep = index_form_trace(curve, u, fx.pieces[1], fx.pieces[0])
    # closed form: total = n * int (u'^2/u - u'/r) dt = n (d + 3 d^3/16) here
    exact = 2.0 * (1.2 + 0.75 * 2.0 * 0.6**3 / 3.0)
    assert rep.total >= 0.0
    assert abs(rep.total - exact) < 1e-6
    fd = _fd_second_variation(curve, u, None, [np.eye(3)[1], np.eye(3)[2]])
    assert abs(fd - rep.total) < 1e-4 * abs(rep.total)
    # the report total is the plain sum of its parts
    parts = (
        rep.boundary_start
        + rep.boundary_end
        + rep.ricci_integral
        + rep.cross_term
        + rep.j1_integral
        + rep.j2_integral
    )
    assert abs(rep.total - parts) < 1e-12


def test_index_form_slab_with_cosh_weight_matches_fd_oracle():
    fx = example_fixture("euclid-slab", d=1.2, dim=3)
    space = fx.space
    u = RadialField(space, np.zeros(3), QuarticCutoff(2.0))
    curve = _slab_axis_curve(space, 0.6, 2048)
    phi = CoshWeight(curve.g_length())
    rep = index_form_trace(curve, u, fx.pieces[1], fx.pieces[0], phi)
    fd = _fd_second_variation(curve, u, phi, [np.eye(3)[1], np.eye(3)[2]])
    assert abs(fd - rep.total) < 1e-4 * max(1.0, abs(rep.total))


def test_index_form_f_identity_on_slab():
    fx = example_fixture("euclid-slab", d=1.2, dim=3)
    space = fx.space
    u = RadialField(space, np.zeros(3), QuarticCutoff(2.0))
    curve = _slab_axis_curve(space, 0.6, 4096)
    phi = CoshWeight(curve.g_length())
    rep = index_form_trace(curve, u, fx.pieces[1], fx.pieces[0], phi)
    # exact endpoint jump: n (u_T(q) - u_T(p)) = 2 n u'(d/2)
    exact = 2.0 * 2.0 * float(QuarticCutoff(2.0).d1(0.6))
    assert abs(rep.f_identity_lhs - exact) < 1e-10
    assert abs(rep.f_identity_rhs - rep.f_identity_lhs) < 1e-6


def test_index_form_sharp_fixture_vanishes():
    fx = example_fixture("poincare-circles", a=1.0)
    b = math.sqrt(2.0) - 1.0  # rho - a
    curve = _slab_axis_curve(fx.space, b, 8192)
    phi = CoshWeight(curve.g_length())
    rep = index_form_trace(curve, ConstantField(1.0), fx.pieces[0], fx.pieces[1], phi)
    assert abs(rep.boundary_start + 1.0 / math.sqrt(2.0)) < 1e-12
    assert abs(rep.boundary_end + 1.0 / math.sqrt(2.0)) < 1e-12
    assert abs(rep.ricci_integral - 2.0 * math.tanh(rep.g_length / 2.0)) < 1e-7
    assert abs(rep.total) < 1e-6
    assert rep.cross_term == 0.0
    assert rep.j1_integral == 0.0
    assert rep.j2_integral == 0.0


def test_index_form_profile_boundary_and_tanh_identity():
    fx = example_fixture("poincare-circles", a=1.0)
    b = math.sqrt(2.0) - 1.0  # rho - a
    prof = QuarticCutoff(10.0)
    u = RadialField(fx.space, np.zeros(2), prof)
    curve = _slab_axis_curve(fx.space, b, 16384)
    phi = CoshWeight(curve.g_length())
    rep = index_form_trace(curve, u, fx.pieces[0], fx.pieces[1], phi)
    expect = -float(prof.q_value((fx.distance / 2.0) ** 2)) / math.sqrt(2.0)
    assert abs(rep.boundary_start - expect) < 1e-9
    assert abs(rep.boundary_end - expect) < 1e-9
    lhs, rhs = tanh_boundary_identity(curve, u, phi)
    assert abs(lhs - rhs) < 1e-8
    assert abs(rep.f_identity_rhs - rep.f_identity_lhs) < 1e-7


def test_tanh_identity_holds_on_bent_curves():
    fx = example_fixture("poincare-circles", a=1.0)
    b = math.sqrt(2.0) - 1.0  # rho - a
    u = RadialField(fx.space, np.zeros(2), QuarticCutoff(10.0))

    def bent(t):
        t = np.asarray(t, dtype=float)
        return np.stack([t, 0.2 * (b * b - t * t)], axis=-1)

    arc = DiscreteCurve(fx.space, curve_points(bent, -b, b, 16384))
    phi = CoshWeight(arc.g_length())
    lhs, rhs = tanh_boundary_identity(arc, u, phi)
    assert abs(lhs - rhs) < 1e-7


class NaNNearOrigin(ConstantField):
    """The factor 1, NaN where |x| < 0.1: in its value, or only in its
    gradient, which the geodesic residual reads."""

    def __init__(self, where):
        super().__init__(1.0)
        self.where = where

    def value(self, x):
        out = super().value(x)
        near = np.linalg.norm(x, axis=-1) < 0.1
        return np.where(near, np.nan, out) if self.where == "value" else out

    def gradient(self, x):
        out = super().gradient(x)
        near = np.linalg.norm(x, axis=-1) < 0.1
        return np.where(near[..., None], np.nan, out) if self.where == "gradient" else out


def test_index_form_rejects_bad_input():
    fx = example_fixture("euclid-slab", d=1.2, dim=3)
    space = fx.space
    u = RadialField(space, np.zeros(3), QuarticCutoff(2.0))
    curve = _slab_axis_curve(space, 0.6, 512)
    # mismatched weight length, grossly and in the last bits
    for L in (2.5, curve.g_length() * (1 + 1e-12)):
        with pytest.raises(ValueError, match="weight length"):
            index_form_trace(curve, u, fx.pieces[1], fx.pieces[0], CoshWeight(L))
        with pytest.raises(ValueError, match="weight length"):
            tanh_boundary_identity(curve, u, CoshWeight(L))

    # a visibly bent curve is not stationary
    def bent(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape + (3,))
        out[..., 0] = t
        out[..., 1] = 0.1 * (0.36 - t * t)
        return out

    bad = DiscreteCurve(space, curve_points(bent, -0.6, 0.6, 512))
    with pytest.raises(ValueError):
        index_form_trace(bad, u, fx.pieces[1], fx.pieces[0])
    # endpoint off the boundary piece
    shifted = _slab_axis_curve(space, 0.55, 512)
    with pytest.raises(ValueError):
        index_form_trace(shifted, u, fx.pieces[1], fx.pieces[0])
    # NaN fails the positivity and residual guards
    with pytest.raises(ValueError, match="positive"):
        index_form_trace(curve, NaNNearOrigin("value"), fx.pieces[1], fx.pieces[0])
    with pytest.raises(ValueError, match="stationary"):
        index_form_trace(curve, NaNNearOrigin("gradient"), fx.pieces[1], fx.pieces[0])


def test_index_form_takes_one_velocity_pass(monkeypatch):
    """One trace runs the stencil twice, for the velocity and the
    acceleration; the tangents come from the same velocity pass."""
    calls = []
    stencil = curves._stencil_derivative

    def counting(*args, **kwargs):
        calls.append(1)
        return stencil(*args, **kwargs)

    monkeypatch.setattr(curves, "_stencil_derivative", counting)
    fx = example_fixture("euclid-slab", d=1.2, dim=3)
    u = RadialField(fx.space, np.zeros(3), QuarticCutoff(2.0))
    curve = _slab_axis_curve(fx.space, 0.6, 512)
    index_form_trace(curve, u, fx.pieces[1], fx.pieces[0], CoshWeight(curve.g_length()))
    assert len(calls) == 2


def _trace_reference(curve, u, piece_start, piece_end, phi):
    """The trace with every vertex quantity taken on the whole curve at
    once, the form before the block rule, term for term."""
    space, pts, n = curve.space, curve.points, float(curve.space.n)
    T, acc = curve.vertex_acceleration()
    uv = np.asarray(u.value(pts), dtype=float)
    u_T = space.inner(pts, grad_g(space, u, pts), T)
    max_residual = float(np.max(space.norm(pts, geodesic_residual(space, u, pts, T, acc))))
    s, st = curve.vertex_s(), curve.vertex_s(u)
    pv, dpv = phi.phi(s), phi.dphi(s)
    u_N2 = np.maximum(grad_norm2_g(space, u, pts) - u_T * u_T, 0.0)
    u_TT = hess_g_apply(space, u, pts, T, T)
    lap = laplacian_g(space, u, pts)
    ric_TT = -n * space.kappa**2
    trapz = variation._trapz
    ricci = float(trapz(uv * uv * (n * dpv * dpv - ric_TT * pv * pv), st))
    cross = float(trapz(n * pv * dpv * uv * u_T, st))
    j1 = float(trapz(-0.5 * (1.0 - pv * pv) * (n * u_N2 - n * uv * u_TT), st))
    j2 = float(trapz(pv * pv * (n * u_T * u_T - (lap - u_TT) * uv), st))
    b0 = -float(uv[0]) * variation._signed_mean_curvature(piece_start, pts[0], T[0])
    b1 = -float(uv[-1]) * variation._signed_mean_curvature(piece_end, pts[-1], -T[-1])
    f = 0.5 * (1.0 + pv * pv)
    f_rhs = float(trapz(f * (n * uv * u_TT - n * u_N2) + n * pv * dpv * uv * u_T, st))
    return variation.IndexFormReport(
        boundary_start=b0, boundary_end=b1, ricci_integral=ricci, cross_term=cross,
        j1_integral=j1, j2_integral=j2, total=b0 + b1 + ricci + cross + j1 + j2,
        f_identity_lhs=float(n * (u_T[-1] - u_T[0])), f_identity_rhs=f_rhs,
        g_length=float(s[-1]), tilde_length=float(st[-1]), max_residual=max_residual)


def _hex(rep):
    return {k: float(v).hex() for k, v in vars(rep).items()}


def test_index_form_blocks_give_the_whole_curve_bits():
    """Around and across block edges, and on the 8192-segment lens axis the
    checks trace, the blocked trace has the bits of the whole-curve one, on
    a flat slab through a radial bump and on the hyperbolic lens."""
    B = variation._TRACE_BLOCK
    slab = example_fixture("euclid-slab", d=1.2, dim=3)
    bump = RadialField(slab.space, np.zeros(3), QuarticCutoff(2.0))
    lens = example_fixture("poincare-circles", a=1.0)
    cases = [(slab, bump, 0.6, (1, 0)), (lens, ConstantField(1.0), lens.endpoints[1, 0], (0, 1))]
    for fx, u, half, (i, j) in cases:
        for vertices in (B - 1, B, B + 1, 2 * B + 1, 8193):
            curve = _slab_axis_curve(fx.space, half, vertices - 1)
            phi = CoshWeight(curve.g_length())
            want = _trace_reference(curve, u, fx.pieces[i], fx.pieces[j], phi)
            got = index_form_trace(curve, u, fx.pieces[i], fx.pieces[j], phi)
            assert _hex(got) == _hex(want), (fx.name, vertices)


def test_index_form_bits_do_not_depend_on_the_block(monkeypatch):
    fx = example_fixture("poincare-circles", a=1.0)
    curve = _slab_axis_curve(fx.space, fx.endpoints[1, 0], 300)
    phi = CoshWeight(curve.g_length())
    want = _hex(_trace_reference(curve, ConstantField(1.0), fx.pieces[0], fx.pieces[1], phi))
    for block in (1, 7, 10**9):
        monkeypatch.setattr(variation, "_TRACE_BLOCK", block)
        rep = index_form_trace(curve, ConstantField(1.0), fx.pieces[0], fx.pieces[1], phi)
        assert _hex(rep) == want, block


def test_index_form_working_set_grows_only_by_its_rows():
    """The trace on the 8192-segment lens axis peaks below 1.5 MB of traced
    memory (2.2 MB with every vertex quantity on the whole curve), and four
    times the segments cost at most 20 doubles per added vertex (31 before):
    the 1-D rows over the curve and the stencils, not per-vertex matrices."""
    fx = example_fixture("poincare-circles", a=1.0)

    def peak(segments):
        curve = _slab_axis_curve(fx.space, fx.endpoints[1, 0], segments)
        phi = CoshWeight(curve.g_length())
        tracemalloc.start()
        try:
            index_form_trace(curve, ConstantField(1.0), fx.pieces[0], fx.pieces[1], phi)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(64)  # first-call allocations stay out of the peak
    small, large = peak(8192), peak(4 * 8192)
    assert small < 1.5e6
    assert large - small < 20 * 8 * (3 * 8192)


def test_gauss_legendre_rule_matches_leggauss():
    """The Newton rule that phi-calculus integrates with has numpy's nodes
    and weights, ascending and symmetric."""
    for n in (16, 32):
        x, w = _gauss_legendre(n)
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - x_ref)) <= 1e-15 and np.max(np.abs(w - w_ref)) <= 1e-15
        assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])


def test_index_form_report_serializes():
    fx = example_fixture("euclid-slab", d=1.0, dim=3)
    curve = _slab_axis_curve(fx.space, 0.5, 256)
    rep = index_form_trace(curve, ConstantField(1.0), fx.pieces[1], fx.pieces[0])
    assert list(vars(rep)) == [
        "boundary_start", "boundary_end", "ricci_integral", "cross_term", "j1_integral",
        "j2_integral", "total", "f_identity_lhs", "f_identity_rhs", "g_length",
        "tilde_length", "max_residual"]
    blob = json.dumps(vars(rep), sort_keys=True)
    assert "\"total\"" in blob
