"""Result container for individual verification checks.

Every quantitative check in the package reduces to comparing a left-hand
side against a right-hand side; the report stores both, the signed slack
rhs - lhs, and a pass flag defined uniformly as slack >= -tolerance.
The runner sets ``probe`` from the check registry: a probe (synthetic
inputs constructed to violate an inequality on purpose) is written out
but left out of the exit status. Inputs and grids hold plain JSON values;
``json`` raises TypeError on anything else, numpy scalars included.
"""

import hashlib
import json


class NonConvergence(RuntimeError):
    """An iterative solve inside a check did not reach its tolerance;
    ``where`` names the check or the boundary piece it ran on."""

    def __init__(self, where, detail):
        super().__init__(f"{where}: {detail}")


def digest_inputs(inputs: dict) -> str:
    """Short stable hash of a check's input dictionary."""
    blob = json.dumps(inputs, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class VerificationReport:
    """One check's outcome; its attributes are exactly the JSON fields.

    slack = rhs - lhs, and the check passes iff slack >= -tolerance.
    """

    def __init__(self, check: str, lhs: float, rhs: float, *, tolerance: float,
                 inputs: dict = None, grid: dict = None):
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.check = check
        self.lhs = float(lhs)
        self.rhs = float(rhs)
        self.slack = self.rhs - self.lhs
        self.tolerance = float(tolerance)
        self.passed = bool(self.slack >= -tolerance)
        self.probe = False
        self.inputs_digest = digest_inputs(inputs or {})
        self.grid = dict(grid or {})
        self.wall_time_s = 0.0

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)
