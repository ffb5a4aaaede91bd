"""Result container for individual verification checks.

Every quantitative check in the package reduces to comparing a left-hand
side against a right-hand side; the report stores both, the signed slack
rhs - lhs, and a pass flag defined uniformly as slack >= -tolerance.
The runner sets ``inputs``, the seed and grid sizes read, and ``probe``:
a probe (inputs made to violate an inequality on purpose) is written out
but left out of the exit status. Inputs and grids hold JSON values;
``json`` raises TypeError on anything else, numpy scalars included.
"""

import json


class NonConvergence(RuntimeError):
    """An iterative solve inside a check did not reach its tolerance;
    ``where`` names the check or the boundary piece it ran on."""

    def __init__(self, where, detail):
        super().__init__(f"{where}: {detail}")


class VerificationReport:
    """One check's outcome; its attributes are exactly the JSON fields.

    slack = rhs - lhs, and the check passes iff slack >= -tolerance.
    """

    def __init__(self, check: str, lhs: float, rhs: float, *, tolerance: float,
                 grid: dict = None):
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.check = check
        self.lhs = float(lhs)
        self.rhs = float(rhs)
        self.slack = self.rhs - self.lhs
        self.tolerance = float(tolerance)
        self.passed = bool(self.slack >= -tolerance)
        self.probe = False
        self.inputs = {}
        self.grid = dict(grid or {})
        self.wall_time_s = 0.0

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)
