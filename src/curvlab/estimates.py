"""Theorem-level inequalities, evaluated as numbers.

The central object is the curvature-sum estimate: if two boundary pieces
of a region in flat or hyperbolic space have inward mean curvature
bounded below by c1 and c2 on a ball of radius R, and some curve of
length L0 <= R/4 joins them inside the region, then c1 + c2 is bounded
by an explicit error term that decays as R grows.  This module evaluates
both branches of that estimate on fixtures, the upper bound it gives
along a grid of radii, the saturating distance bound
2 n kappa tanh(kappa d / 2) it converges to, annulus decay scans with
closed-form envelopes, and the elementary scalar inequalities the
derivations lean on.  It returns the two sides of each inequality and
its metadata; ``checks`` judges them and builds the reports.

The estimate's right-hand side uses the statement's constants
(A, B, C) = (5/2, 30, 8) for a caller-chosen ball; the metadata records
them as "statement".
"""

import numpy as np

from .hypersurface import Fixture, example_fixture, infima_over_annuli
from .report import NonConvergence
from .variation import coth_minus_inv

STATEMENT_CONSTANTS = (2.5, 30.0, 8.0)  # (A, B, C) of the estimate's right-hand side


def _alpha_min(L0, R):
    """Lower endpoint tanh((1 + 5 L0 / 9 R) L0 / 2) of the admissible alpha
    range; R may be a grid."""
    return np.tanh(0.5 * (1.0 + (5.0 / 9.0) * L0 / R) * L0)


def alpha_interval(L0: float, R: float):
    """Admissible range for the hyperbolic branch parameter alpha."""
    return float(_alpha_min(L0, R)), 1.0


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


class EstimateConfig:
    """Inputs for one evaluation of the curvature-sum estimate.

    c1, c2 are inward mean-curvature lower bounds for the two boundary
    pieces on the ball of radius R; L0 is the length of a reference
    curve joining them inside the region; j picks which side's |c_j|
    enters the error term.  An optional fixture records where measured
    bounds came from.
    """

    def __init__(self, c1, c2, R, L0, n, kappa=0.0, alpha=None, j=2, fixture=None):
        self.c1 = float(c1)
        self.c2 = float(c2)
        self.R = float(R)
        self.L0 = float(L0)
        self.n = int(n)
        self.kappa = float(kappa)
        self.alpha = None if alpha is None else float(alpha)
        self.j = int(j)
        self.fixture = fixture
        if self.R <= 0 or self.L0 <= 0:
            raise ValueError("R and L0 must be positive")
        if self.L0 > self.R / 4.0:
            raise ValueError("reference length L0 exceeds R/4")
        if self.n < 1:
            raise ValueError("boundary dimension n must be at least 1")
        if self.j not in (1, 2):
            raise ValueError("side selector j must be 1 or 2")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")

    @property
    def c_side(self) -> float:
        return self.c1 if self.j == 1 else self.c2

    def inputs(self) -> dict:
        d = {
            "c1": self.c1,
            "c2": self.c2,
            "R": self.R,
            "L0": self.L0,
            "n": self.n,
            "kappa": self.kappa,
            "alpha": self.alpha,
            "j": self.j,
        }
        if self.fixture is not None:
            d["fixture"] = self.fixture.name
        return d


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


def main_estimate_euclid(cfg: EstimateConfig):
    """Flat-space branch: c1 + c2 <= A L0/R |c_j| + B n L0/R^2.

    Returns the sides (lhs, rhs) and the grid metadata {"constants": ...}.
    """
    if cfg.kappa != 0.0:
        raise ValueError("flat branch requires kappa = 0")
    A, B, _ = STATEMENT_CONSTANTS
    lhs = cfg.c1 + cfg.c2
    rhs = A * cfg.L0 / cfg.R * abs(cfg.c_side) + B * cfg.n * cfg.L0 / cfg.R**2
    return lhs, rhs, {"constants": "statement"}


def main_estimate_hyperbolic(cfg: EstimateConfig):
    """Hyperbolic branch, written for kappa = 1 only:

        c1 + c2 - 2 n alpha <= A L0/R |c_j - n alpha|
                               + B n L0/R^2 + C n sqrt(L0)/R.

    alpha may be anything in [alpha_interval(L0, R)[0], 1]; when omitted
    the lower endpoint (the sharpest admissible choice) is used.  Returns
    the sides (lhs, rhs) and grid metadata naming the constants and alpha.
    """
    if cfg.kappa != 1.0:
        raise ValueError(f"hyperbolic branch requires kappa = 1, got {cfg.kappa:g}")
    a_lo, a_hi = alpha_interval(cfg.L0, cfg.R)
    alpha = a_lo if cfg.alpha is None else cfg.alpha
    if not (a_lo - 1e-12 <= alpha <= a_hi + 1e-12):
        raise ValueError(
            f"alpha {alpha:.6g} outside admissible interval [{a_lo:.6g}, 1]"
        )
    n = cfg.n
    lhs = cfg.c1 + cfg.c2 - 2.0 * n * alpha
    rhs = _hyperbolic_rhs(0.0, cfg.c_side, n, alpha, cfg.L0, cfg.R)
    return lhs, rhs, {"constants": "statement", "alpha": alpha, "alpha_min": a_lo}


def upper_bound_along(c, n, L0, R_grid) -> np.ndarray:
    """The hyperbolic branch's upper bound on c1 + c2 at each radius of
    R_grid, with the sharpest admissible alpha there and c = c_j:
    2 n alpha + A L0/R |c - n alpha| + B n L0/R^2 + C n sqrt(L0)/R."""
    Rs = np.asarray(R_grid, dtype=float)
    if np.any(Rs < 4.0 * L0):
        raise ValueError("every grid R must satisfy L0 <= R/4")
    a_min = _alpha_min(L0, Rs)
    return _hyperbolic_rhs(2.0 * n * a_min, c, n, a_min, L0, Rs)


# ---------------------------------------------------------------------------
# annulus scans
# ---------------------------------------------------------------------------

ENVELOPE_KINDS = ("sum-inverse-R", "fitted-inverse-R2", "hyperbolic-saturation")

SCAN_CSV_HEADER = "R,inf_h1,inf_h2,sum,envelope,slack\n"


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


class DecayScan:
    """Curvature infima of a fixture over the annuli R/3 < |x| < R for a
    grid of radii, against a closed-form envelope; ``decay_scan`` builds it
    and validates the grid and the envelope kind.

    Envelope kinds:
      sum-inverse-R          40 n / R, for the sum over two boundaries
      fitted-inverse-R2      C'/R^2 with C' = max over the grid of
                             (infimum sum) * R^2; the scan reports how
                             much the running fit drifts over the top
                             decade of the grid
      hyperbolic-saturation  2 n kappa + 13 n kappa^(1/3) R^(-2/3)

    ``normalized`` is the infimum sum rescaled by the decay rate under
    test, one value per radius:
      sum-inverse-R          total * R * log(R)^2, finite and positive
                             in the limit for a decay like
                             1/(R log^2 R).  For the log-graph fixture it
                             tends to 1, but only like 1 - 2/log R, so it
                             is still about 0.8 at R = e^10.
      fitted-inverse-R2      total * R^2 * log(R)^2, finite and positive
                             in the limit for a decay like
                             1/(R^2 log^2 R).  For the revolution-r4
                             fixture it is about 1 - 2/log R, tending to 1.
      hyperbolic-saturation  None; the total saturates at 2 n kappa
                             rather than decaying.
    """

    def __init__(self, fixture, envelope_kind, R, inf1, inf2):
        self.fixture = fixture.name
        self.envelope_kind = envelope_kind
        self.kappa = float(fixture.space.kappa)
        self.n = fixture.space.dim - 1
        self.R = R
        self.inf1 = inf1
        self.inf2 = inf2
        self.total = self.inf1 + self.inf2
        self.fitted_constant = None
        self.fit_drift = None
        self.normalized = None

        n, kappa = self.n, self.kappa
        if envelope_kind == "sum-inverse-R":
            self.envelope = 40.0 * n / R
            self.normalized = self.total * R * np.log(R) ** 2
        elif envelope_kind == "fitted-inverse-R2":
            product = self.total * R**2
            self.fitted_constant = float(np.max(product))
            self.envelope = self.fitted_constant / R**2
            prefix = np.maximum.accumulate(product)
            top = R >= R[-1] / 10.0
            lo, hi = float(np.min(prefix[top])), float(np.max(prefix[top]))
            self.fit_drift = (hi - lo) / hi if hi > 0 else 0.0
            self.normalized = self.total * R**2 * np.log(R) ** 2
        else:
            self.envelope = 2.0 * n * kappa + 13.0 * n * kappa ** (1.0 / 3.0) * R ** (
                -2.0 / 3.0
            )
        self.slack = self.envelope - self.total

    def to_csv(self, path) -> None:
        cols = (self.R, self.inf1, self.inf2, self.total, self.envelope, self.slack)
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(SCAN_CSV_HEADER)
            for row in zip(*cols):
                f.write(",".join("%.17g" % v for v in row) + "\n")


def decay_scan(fixture: Fixture, R_grid, envelope_kind: str) -> DecayScan:
    """Scan annulus infima of a fixture over an increasing grid of radii.

    The envelope kind, that a fixture under the hyperbolic-saturation
    envelope has kappa > 0, and the grid are checked before any infimum is
    computed; then raises if any annulus misses the charted boundary.
    Fixtures with a single boundary piece report inf_h2 = 0.
    """
    if envelope_kind not in ENVELOPE_KINDS:
        raise ValueError(f"unknown envelope kind {envelope_kind!r}")
    if envelope_kind == "hyperbolic-saturation" and fixture.space.kappa <= 0:
        raise ValueError("hyperbolic-saturation needs kappa > 0")
    R_grid = np.asarray(R_grid, dtype=float)
    if R_grid.size == 0:
        raise ValueError("R grid must not be empty")
    if R_grid.ndim != 1:
        raise ValueError(f"R grid must be 1-d, got shape {R_grid.shape}")
    if np.any(np.diff(R_grid) <= 0):
        raise ValueError("R grid must be strictly increasing")
    vals = annulus_infima(fixture, R_grid / 3.0, R_grid)
    inf2 = vals[:, 1] if vals.shape[1] > 1 else np.zeros(R_grid.size)
    return DecayScan(fixture, envelope_kind, R_grid, vals[:, 0], inf2)


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
    the saturating bound for the planar equidistant fixture (dim 2, so
    n = 1) with parameter a, under the statement's constants.

    The fixture attains the bound exactly (gap_measured is zero up to
    evaluation error); the estimate's bound, taken with the sharpest
    admissible alpha at each radius, exceeds it by O(1/R), dominated by
    the C n sqrt(L0) / R term.
    """
    fx = example_fixture("hyperbolic-equidistant", a=a, dim=2)
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
        "gap_measured": c1 + c2 - limit,
        "upper_bound": ub,
        "gap_bound": ub - limit,
    }
