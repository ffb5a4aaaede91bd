"""Theorem-level inequalities, evaluated as numbers.

The central object is the curvature-sum estimate: if two boundary pieces
of a region in flat or hyperbolic space have inward mean curvature
bounded below by c1 and c2 on a ball of radius R, and some curve of
length L0 <= R/4 joins them inside the region, then c1 + c2 is bounded
by an explicit error term that decays as R grows.  Each branch is one
inequality in the five numbers (c1, c2, R, L0, n): ``main_estimate_euclid``
for flat space and ``main_estimate_hyperbolic`` for curvature -1
(kappa = 1), taken with its sharpest admissible alpha.  Both put c2 in the
error term.  This module also evaluates the upper bound the hyperbolic
branch gives along a grid of radii, the saturating distance bound
2 n kappa tanh(kappa d / 2) it converges to, the annulus infima of a
decay scan, and the elementary scalar inequalities the derivations lean
on.  It returns the two sides of each inequality and its metadata, and
each scan's infima; ``checks`` judges them against their bounds and
envelopes and builds the reports.

The estimate's right-hand side uses the statement's constants
(A, B, C) = (5/2, 30, 8), read from ``STATEMENT_CONSTANTS`` at call time;
the metadata records them as "statement".
"""

from types import SimpleNamespace

import numpy as np

from .hypersurface import Fixture, example_fixture, infima_over_annuli
from .report import NonConvergence
from .variation import coth_minus_inv

STATEMENT_CONSTANTS = (2.5, 30.0, 8.0)  # (A, B, C) of the estimate's right-hand side


def _check_radii(R, L0, n):
    """The estimate's hypotheses on its numbers: R, L0 > 0, L0 <= R/4 and
    n >= 1; R may be a grid, and every radius in it must satisfy them."""
    if np.any(R <= 0) or L0 <= 0:
        raise ValueError("R and L0 must be positive")
    if np.any(L0 > R / 4.0):
        raise ValueError("reference length L0 exceeds R/4")
    if n < 1:
        raise ValueError("boundary dimension n must be at least 1")


def _alpha_min(L0, R):
    """tanh((1 + 5 L0 / 9 R) L0 / 2), the sharpest admissible alpha of the
    hyperbolic branch (the admissible range runs up to 1); R may be a grid."""
    return np.tanh(0.5 * (1.0 + (5.0 / 9.0) * L0 / R) * L0)


def _hyperbolic_rhs(lead, c, n, alpha, L0, R):
    """lead + A L0/R |c - n alpha| + B n L0/R^2 + C n sqrt(L0)/R, summed left
    to right; alpha and R may be matching grids."""
    A, B, C = STATEMENT_CONSTANTS
    return (
        lead
        + A * L0 / R * np.abs(c - n * alpha)
        + B * n * L0 / R**2
        + C * n * np.sqrt(L0) / R
    )


def theorem_bound(kappa: float, n: int, d: float) -> float:
    """Saturating curvature-sum bound 2 n kappa tanh(kappa d / 2).

    This is the largest value c1 + c2 can approach for boundaries at
    distance d in curvature -kappa^2; it vanishes identically in the
    flat case and tends to 2 n kappa as the boundaries separate.
    """
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    if d <= 0:
        raise ValueError("distance d must be positive")
    return 2.0 * n * kappa * np.tanh(0.5 * kappa * d)


def main_estimate_euclid(c1, c2, R, L0, n):
    """Flat-space branch: c1 + c2 <= A L0/R |c2| + B n L0/R^2.

    Returns the sides (lhs, rhs) and the grid metadata {"constants": ...}.
    """
    _check_radii(R, L0, n)
    A, B, _ = STATEMENT_CONSTANTS
    lhs = c1 + c2
    rhs = A * L0 / R * abs(c2) + B * n * L0 / R**2
    return lhs, rhs, {"constants": "statement"}


def main_estimate_hyperbolic(c1, c2, R, L0, n):
    """Hyperbolic branch, for curvature -1 (kappa = 1), with the sharpest
    admissible alpha = _alpha_min(L0, R):

        c1 + c2 - 2 n alpha <= A L0/R |c2 - n alpha|
                               + B n L0/R^2 + C n sqrt(L0)/R.

    Returns the sides (lhs, rhs) and grid metadata naming the constants
    and alpha (also under "alpha_min").
    """
    _check_radii(R, L0, n)
    alpha = float(_alpha_min(L0, R))
    lhs = c1 + c2 - 2.0 * n * alpha
    rhs = _hyperbolic_rhs(0.0, c2, n, alpha, L0, R)
    return lhs, rhs, {"constants": "statement", "alpha": alpha, "alpha_min": alpha}


def upper_bound_along(c, n, L0, R_grid) -> np.ndarray:
    """The hyperbolic branch's upper bound on c1 + c2 at each radius of
    R_grid, with the sharpest admissible alpha there and c = c2:
    2 n alpha + A L0/R |c - n alpha| + B n L0/R^2 + C n sqrt(L0)/R."""
    Rs = np.asarray(R_grid, dtype=float)
    _check_radii(Rs, L0, n)
    a_min = _alpha_min(L0, Rs)
    return _hyperbolic_rhs(2.0 * n * a_min, c, n, a_min, L0, Rs)


# ---------------------------------------------------------------------------
# annulus scans
# ---------------------------------------------------------------------------

def annulus_infima(fixture: Fixture, r_lo, r_hi) -> np.ndarray:
    """Per-piece infimum of inward mean curvature over the set of boundary
    points whose distance to the origin lies in (r_lo, r_hi).

    r_lo and r_hi may be matching arrays of annuli; the result then has one
    row of piece values per annulus, and each piece handles all its annuli
    in one ``infima_over_annuli`` call. Raises for the first annulus, then
    the first piece, that fails: ValueError when the annulus misses the
    chart, NonConvergence naming the piece, the annulus and the bracket
    that missed when a search hit its step cap."""
    r_lo, r_hi = np.broadcast_arrays(np.asarray(r_lo, dtype=float), np.asarray(r_hi, dtype=float))
    per_piece = [infima_over_annuli(p, r_lo.ravel(), r_hi.ravel()) for p in fixture.pieces]
    values = np.empty((r_lo.size, len(fixture.pieces)))
    for k, (lo, hi) in enumerate(zip(r_lo.ravel(), r_hi.ravel())):
        for j, (p, results) in enumerate(zip(fixture.pieces, per_piece)):
            res = results[k]
            if res is None:
                raise ValueError("annulus does not meet the surface chart")
            if not res.converged:
                raise NonConvergence(p.label, f"annulus infimum over ({lo:.6g}, {hi:.6g}): "
                                              f"chart bracket {res.missed} hit the step cap")
            values[k, j] = res.value
    return values.reshape(r_lo.shape + (len(fixture.pieces),))


class DecayScan(SimpleNamespace):
    """Curvature infima of a fixture over the annuli R/3 < |x| < R for a
    grid of radii R: ``inf1`` of the first boundary piece, ``inf2`` of the
    second (zeros for a fixture with a single piece)."""


def decay_scan(fixture: Fixture, R_grid) -> DecayScan:
    """Scan annulus infima of a fixture over an increasing grid of radii.

    The grid is checked before any infimum is computed; then raises if any
    annulus misses the charted boundary.
    """
    R_grid = np.asarray(R_grid, dtype=float)
    if R_grid.size == 0:
        raise ValueError("R grid must not be empty")
    if R_grid.ndim != 1:
        raise ValueError(f"R grid must be 1-d, got shape {R_grid.shape}")
    if np.any(np.diff(R_grid) <= 0):
        raise ValueError("R grid must be strictly increasing")
    vals = annulus_infima(fixture, R_grid / 3.0, R_grid)
    inf2 = vals[:, 1] if vals.shape[1] > 1 else np.zeros(R_grid.size)
    return DecayScan(R=R_grid, inf1=vals[:, 0], inf2=inf2)


# ---------------------------------------------------------------------------
# elementary inequalities
# ---------------------------------------------------------------------------


ELEMENTARY_N_GRID = 4096  # grid points per inequality (2 n + 1 for the second)
ELEMENTARY_R_MAX = 50.0  # right end of the coth window's r grid


def elementary_inequalities():
    """Grid checks of three scalar inequalities used by the estimate:

      (1 - m^2)^(-2) < 1 + (5/9) m        for m in (0, 1/4]
      |e^x - 1| <= (4/3)|x|               for |x| < 1/2
      0 < coth r - 1/r < 1                for r > 0

    Returns (worst, mins): the smallest slack over all three, and per
    inequality the minimum slack and its location, with the first one's
    slack at m = 1/4, the third one's value at r = 1 and the grid
    parameters.  The second has equality at x = 0, so the overall minimum
    slack is exactly zero.
    """
    n_grid, r_max = ELEMENTARY_N_GRID, ELEMENTARY_R_MAX
    m = np.linspace(0.25 / n_grid, 0.25, n_grid)
    s1 = (1.0 + (5.0 / 9.0) * m) - (1.0 - m * m) ** -2
    k1 = int(np.argmin(s1))
    quarter = (1.0 + 5.0 / 36.0) - (15.0 / 16.0) ** -2

    x = np.linspace(-0.4999, 0.4999, 2 * n_grid + 1)
    s2 = (4.0 / 3.0) * np.abs(x) - np.abs(np.expm1(x))
    k2 = int(np.argmin(s2))

    r = np.linspace(r_max / n_grid, r_max, n_grid)
    v = coth_minus_inv(r)
    s3 = np.minimum(v, 1.0 - v)
    k3 = int(np.argmin(s3))

    mins = {
        "shortness_factor": {
            "min_slack": float(s1[k1]),
            "at": float(m[k1]),
            "slack_at_quarter": float(quarter),
        },
        "exp_linear": {"min_slack": float(s2[k2]), "at": float(x[k2])},
        "coth_window": {
            "min_slack": float(s3[k3]),
            "at": float(r[k3]),
            "value_at_one": float(coth_minus_inv(1.0)),
        },
        "n_grid": n_grid,
        "r_max": r_max,
    }
    return float(np.min([s1[k1], s2[k2], s3[k3]])), mins


# ---------------------------------------------------------------------------
# sharpness of the saturating bound
# ---------------------------------------------------------------------------


def sharpness_gap(a: float, R_grid) -> dict:
    """Track how fast the estimate's upper bound on c1 + c2 closes in on
    the saturating bound for the ``poincare-circles`` fixture (dim 2, so
    n = 1) with parameter a, under the statement's constants.

    Returns the fixture's distance ``d``, its curvatures ``c1`` and ``c2``
    at the endpoints, the saturating bound ``limit``, ``gap_measured`` =
    c1 + c2 - limit, and along R_grid the ``upper_bound`` with the
    sharpest admissible alpha at each radius and ``gap_bound`` =
    upper_bound - limit. The fixture attains the bound exactly
    (gap_measured is zero up to evaluation error); the estimate's bound
    exceeds it by O(1/R), dominated by the C n sqrt(L0) / R term.
    """
    fx = example_fixture("poincare-circles", a=a)
    n = 1
    d = float(fx.distance)
    c1 = float(fx.pieces[0].mean_curvature(fx.endpoints[0]))
    c2 = float(fx.pieces[1].mean_curvature(fx.endpoints[1]))
    limit = theorem_bound(1.0, n, d)
    ub = upper_bound_along(c2, n, d, R_grid)
    return {
        "d": d,
        "c1": c1,
        "c2": c2,
        "limit": limit,
        "gap_measured": c1 + c2 - limit,
        "upper_bound": ub,
        "gap_bound": ub - limit,
    }
