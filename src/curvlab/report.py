"""Result container for individual verification checks.

Every quantitative check in the package reduces to comparing a left-hand
side against a right-hand side; the report stores both, the signed slack
rhs - lhs, and a pass flag defined uniformly as slack >= -tolerance.
The runner sets ``probe`` from the check registry: a probe (synthetic
inputs constructed to violate an inequality on purpose) is written out
but left out of the exit status.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field


class NonConvergence(RuntimeError):
    """An iterative solve inside a check did not reach its tolerance;
    ``where`` names the check or the boundary piece it ran on."""

    def __init__(self, where, detail):
        super().__init__(f"{where}: {detail}")


def _jsonable(x):
    if hasattr(x, "tolist"):
        return x.tolist()
    if hasattr(x, "item"):
        return x.item()
    return str(x)


def digest_inputs(inputs: dict) -> str:
    """Short stable hash of a check's input dictionary."""
    blob = json.dumps(inputs, sort_keys=True, default=_jsonable)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class VerificationReport:
    check: str
    lhs: float
    rhs: float
    slack: float
    tolerance: float
    passed: bool
    probe: bool = False
    inputs_digest: str = ""
    grid: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, default=_jsonable)


def build_report(
    check: str,
    lhs: float,
    rhs: float,
    *,
    tolerance: float,
    inputs: dict = None,
    grid: dict = None,
) -> VerificationReport:
    """Assemble a report; slack = rhs - lhs, pass iff slack >= -tolerance."""
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    lhs = float(lhs)
    rhs = float(rhs)
    slack = rhs - lhs
    return VerificationReport(
        check=check,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        tolerance=float(tolerance),
        passed=bool(slack >= -tolerance),
        inputs_digest=digest_inputs(inputs or {}),
        grid=dict(grid or {}),
    )
