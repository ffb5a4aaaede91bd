"""curvlab: numerical checks for conformal-metric geometry.

The package verifies curvature transformation laws, second-variation
estimates and boundary-decay bounds for metrics of the form u^-2 g on flat
and hyperbolic backgrounds, against finite-difference and brute-force
oracles.
"""

import os

# Before numpy loads: an extra OpenBLAS worker would only spin here; a caller's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
