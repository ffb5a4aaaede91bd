"""Mutation table: each check must fail when the formula it audits is wrong.

A row runs one registered check under the default configuration with one
library name patched to a faulty version, and states the verdict the check
gives. ``checks`` imports some functions by name, so a row patches the name
the check looks up (both copies of ``theorem_bound``, for instance).

A PASS row records a fault the check does not notice, with the reason. Some
are expected: a fault in the safe direction of a one-sided bound cannot fail
it. Others are debts: the estimate and decay-scan checks pass whatever their
inequality says, so they sit in ``NO_FAILING_ROW`` until a mend gives them a
failing row. The probe ``curvature-sum-flat-probe`` fails without a fault,
by design, and is left out of the table.
"""

from typing import Callable, NamedTuple

import pytest

from curvlab import checks, conformal, estimates, variation
from curvlab.checks import CHECKS
from curvlab.cli import CheckContext, RunConfig
from curvlab.curves import DiscreteCurve
from curvlab.hypersurface import Hypersurface

OWNERS = {
    "checks": checks,
    "conformal": conformal,
    "estimates": estimates,
    "variation": variation,
    "CoshWeight": variation.CoshWeight,
    "DiscreteCurve": DiscreteCurve,
    "Hypersurface": Hypersurface,
}


class Fault(NamedTuple):
    label: str
    wrap: Callable  # the original object -> its faulty replacement


def times(factor):
    return Fault(f"*{factor!r}", lambda fn: lambda *a, **k: fn(*a, **k) * factor)


def plus(delta):
    return Fault(f"{delta:+g}", lambda fn: lambda *a, **k: fn(*a, **k) + delta)


def each_times(factor):
    """Every entry of a returned sequence times factor."""
    return Fault(f"each*{factor!r}",
                 lambda fn: lambda *a, **k: [v * factor for v in fn(*a, **k)])


# kg + u_N / u with the u_N / u term scaled by 1.01
U_N_TERM = Fault("u_N-term*1.01", lambda fn: lambda space, u, x, N, kg:
                 kg + 1.01 * (fn(space, u, x, N, kg) - kg))
# lead + A, B and C terms, with the three error terms halved
HALF_ERROR_TERMS = Fault("error-terms*0.5", lambda fn: lambda lead, *rest:
                         lead + 0.5 * fn(0.0, *rest))
ZERO_CONSTANTS = Fault("=(0,0,0)", lambda _: (0.0, 0.0, 0.0))

THEOREM_BOUND = ("checks.theorem_bound", "estimates.theorem_bound")
H = ("Hypersurface.mean_curvature",)

SAFE_J2 = "J2 enters only upper bounds, and a smaller J2 is their safe side"
SAFE_J1 = "J1 enters only a lower bound, and a larger J1 is its safe side"
# why each decay scan passes with H off by 10%
LOOSE_SCAN = {
    "scan-log-graph": "its envelope 40 n / R is 1300 to 5000 times the measured sum",
    "scan-revolution": "its envelope is fitted to the same scan, so it scales with H",
    "scan-equidistant": "its envelope exceeds the sum of about 1.41 by at least 2.6",
    "scan-slab": "both planes have H = 0, and any scale of 0 is 0",
}
# why each estimate check passes whatever the estimate's right side says
ESTIMATE_SLACK = {
    "curvature-sum-flat": "lhs = c1 + c2 < 0: the ball is centred at the origin, "
                          "where the log graph's H is negative",
    "curvature-sum-hyperbolic": "lhs = c1 + c2 - 2 n alpha < 0, because the "
                                "sharpest alpha exceeds tanh(d/2)",
    "sharpness-rate": "2 n alpha_min alone exceeds the limit by O(1/R), so the "
                      "excess still halves as R doubles",
}

# (check id, patched names, fault, verdict, why a PASS row passes)
ROWS = [
    ("connection-law-fd", ("conformal.connection_difference",), times(1 + 1e-3), "FAIL", None),
    ("sectional-law-fd", ("conformal.sectional_numerator",), times(1 + 1e-3), "FAIL", None),
    ("ricci-law-fd", ("conformal.ricci_formula",), times(1 + 1e-3), "FAIL", None),
    ("mean-curvature-law-fd", ("conformal.mean_curvature_formula",), times(1 + 1e-3),
     "FAIL", None),
    ("poincare-recovery", ("conformal.ricci_formula",), times(1 + 1e-6), "FAIL", None),
    ("ricci-law-fd", ("conformal.ricci_formula",), times(1 + 1e-6), "PASS",
     "a relative error of 1e-6 is inside the finite-difference allowance 1e-4"),
    ("curve-shortness", ("DiscreteCurve.tilde_length",), times(0.9), "FAIL", None),
    ("curve-shortness", ("DiscreteCurve.tilde_length",), times(0.95), "PASS",
     "the minimizer's tilde length exceeds its g-length by 6.5%, and the seed "
     "path's length shares the fault"),
    ("diameter-geodesic", ("conformal.geodesic_residual",), plus(1e-6), "FAIL", None),
    ("sharp-lens", THEOREM_BOUND, times(1 + 1e-3), "FAIL", None),
    ("saturating-bound", THEOREM_BOUND, times(1 + 1e-3), "FAIL", None),
    ("sharpness-rate", THEOREM_BOUND, times(1 + 1e-3), "FAIL", None),
    ("curvature-sum-hyperbolic", THEOREM_BOUND, times(1 + 1e-3), "PASS",
     "it reads the bound for a grid field only"),
    ("planar-curvature-law", ("conformal.geodesic_curvature_residual",), U_N_TERM,
     "FAIL", None),
    ("crucial-bounds-flat", ("variation._j2",), plus(1e-3), "FAIL", None),
    ("crucial-bounds-hyperbolic", ("variation._j2",), plus(1e-3), "FAIL", None),
    ("crucial-bounds-flat", ("variation._j2",), plus(-1e-3), "PASS", SAFE_J2),
    ("crucial-bounds-hyperbolic", ("variation._j2",), plus(-1e-3), "PASS", SAFE_J2),
    ("crucial-bounds-hyperbolic", ("variation._j1",), plus(-1e-3), "FAIL", None),
    ("crucial-bounds-hyperbolic", ("variation._j1",), plus(1e-3), "PASS", SAFE_J1),
    ("phi-calculus", ("CoshWeight.phi_sq_integral",), times(1 + 1e-6), "FAIL", None),
    ("elementary-inequalities", ("estimates.coth_minus_inv",), times(1.1), "FAIL", None),
    ("slab-perpendicular", ("checks.endpoint_orthogonality",), each_times(1 + 1e-3),
     "FAIL", None),
    ("lens-distance", ("checks.endpoint_orthogonality",), each_times(1 + 1e-3), "FAIL", None),
    ("index-form-flat-slab", ("variation.laplacian_g",), times(1 + 1e-3), "FAIL", None),
    ("log-graph-curvature", H, times(1.1), "FAIL", None),
    ("revolution-curvature", H, times(1.1), "FAIL", None),
    ("sharp-lens", H, times(1.1), "FAIL", None),
    ("index-form-nonnegative", H, times(1.1), "FAIL", None),
    ("log-graph-curvature", H, times(0.9), "FAIL", None),
    ("revolution-curvature", H, times(0.9), "FAIL", None),
    ("sharp-lens", H, times(0.9), "FAIL", None),
    ("curvature-sum-flat", H, times(1.1), "PASS", ESTIMATE_SLACK["curvature-sum-flat"]),
    ("curvature-sum-flat", H, times(0.9), "PASS", ESTIMATE_SLACK["curvature-sum-flat"]),
    *[(cid, H, fault, "PASS", why) for cid, why in LOOSE_SCAN.items()
      for fault in (times(1.1), times(0.9))],
    *[(cid, ("estimates.STATEMENT_CONSTANTS",), ZERO_CONSTANTS, "PASS", ESTIMATE_SLACK[cid])
      for cid in ("curvature-sum-flat", "curvature-sum-hyperbolic", "sharpness-rate")],
    *[(cid, ("estimates._hyperbolic_rhs",), HALF_ERROR_TERMS, "PASS", ESTIMATE_SLACK[cid])
      for cid in ("curvature-sum-hyperbolic", "sharpness-rate")],
]

# Checks that no row fails. A mend that gives one of them a failing row
# removes it here; a check may not join without a reason in CHANGES.md.
NO_FAILING_ROW = frozenset({
    # the estimate checks do not test the estimate (ROADMAP direction 8)
    "curvature-sum-flat",
    "curvature-sum-hyperbolic",
    # the decay scans cannot fail (ROADMAP direction 16)
    "scan-log-graph",
    "scan-revolution",
    "scan-equidistant",
    "scan-slab",
})


def _row_id(row):
    cid, patched, fault, verdict, _ = row
    return f"{cid}:{','.join(patched)}:{fault.label}:{verdict}"


@pytest.mark.parametrize("row", ROWS, ids=[_row_id(row) for row in ROWS])
def test_mutation_verdict(monkeypatch, row):
    cid, patched, fault, verdict, why = row
    assert (verdict == "PASS") == (why is not None), "a PASS row needs its reason"
    for name in patched:
        owner, attr = name.split(".")
        owner = OWNERS[owner]
        monkeypatch.setattr(owner, attr, fault.wrap(getattr(owner, attr)))
    out = CHECKS[cid].fn(CheckContext(RunConfig(), cid))
    rep = out[0] if isinstance(out, tuple) else out
    assert ("PASS" if rep.passed else "FAIL") == verdict


def test_every_check_has_a_failing_row_or_is_listed():
    failing = {row[0] for row in ROWS if row[3] == "FAIL"}
    checked = {cid for cid, spec in CHECKS.items() if not spec.probe}
    assert failing <= checked
    assert checked - failing == NO_FAILING_ROW
