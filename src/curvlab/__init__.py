"""curvlab: numerical checks for conformal-metric geometry.

The package verifies curvature transformation laws, second-variation
estimates and boundary-decay bounds for metrics of the form u^-2 g on flat
and hyperbolic backgrounds, against finite-difference and brute-force
oracles.
"""

import gc
import os

# Before numpy loads: an extra OpenBLAS worker would only spin here; a caller's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The import only allocates: a collection while it runs, or over its heap
# once the collector is back on, would walk every new object to free almost
# none. So the collector stays off and the heap is frozen before it comes
# back on; the caller's on or off state wins.
_gc_was_enabled = gc.isenabled()
gc.disable()
try:
    from curvlab.spaceform import SpaceForm
    from curvlab.fields import ConstantField, QuarticCutoff
    from curvlab.curves import DiscreteCurve
    from curvlab.hypersurface import example_fixture, geodesic_sphere
    from curvlab.geodesic import GeodesicProblem, minimize_free_boundary
    from curvlab.variation import crucial_bounds_scan, index_form_trace, phi_calculus
    from curvlab.estimates import (
        decay_scan,
        main_estimate_euclid,
        main_estimate_hyperbolic,
        theorem_bound,
    )
    from curvlab.report import VerificationReport, build_report
finally:
    gc.freeze()
    if _gc_was_enabled:
        gc.enable()
    del _gc_was_enabled

__version__ = "0.1.0"

__all__ = [
    "SpaceForm",
    "ConstantField",
    "QuarticCutoff",
    "DiscreteCurve",
    "example_fixture",
    "geodesic_sphere",
    "GeodesicProblem",
    "minimize_free_boundary",
    "crucial_bounds_scan",
    "index_form_trace",
    "phi_calculus",
    "decay_scan",
    "main_estimate_euclid",
    "main_estimate_hyperbolic",
    "theorem_bound",
    "VerificationReport",
    "build_report",
    "__version__",
]
