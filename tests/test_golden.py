"""Golden digests: the bytes every report, table and stdout of fixed runs.

``golden/reports.json`` records, for each run in ``RUNS``, its exit status,
stdout and stderr, and the sha256 of each output file's raw bytes with only
``wall_time_s`` masked. Each run enters through ``cli.main`` with the
flags ``bench/run.py`` passes (``--suite``, ``--seed``, ``--workers 1``,
``--out``, and ``--config`` for a grids file), so argument parsing and
config loading run too; two more runs pin the other exits, ``--list-checks``
and a config error. The test regenerates them in process and compares
(from the traced pass of ``tests/test_reach.py``, which the session fixture
``shipped_runs`` makes once for both), so a change that moves a report's
bits fails here until the file is rewritten with
``PYTHONPATH=src python tests/golden/update.py``; the diff of that file then
names exactly the reports that moved.

Raw bytes depend on the float arithmetic of numpy, Python and the platform.
On another combination than the recorded one, the test compares a canonical
form instead (every float to 12 significant digits, verdicts and exit status
exact) and says so when it fails.
"""

import ast
import contextlib
import hashlib
import io
import json
import platform
import re
from pathlib import Path

import numpy as np

from curvlab import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "reports.json"
BENCH = Path(__file__).resolve().parents[1] / "bench" / "run.py"

# the grid sizes of the benchmark's grids-dense workload, read from
# ``bench/run.py`` so that they have one copy
DENSE_GRIDS = next(ast.literal_eval(node.value)
                   for node in ast.parse(BENCH.read_text(encoding="utf-8")).body
                   if isinstance(node, ast.Assign)
                   and ast.unparse(node.targets[0]) == "DENSE_GRIDS")

# label: (the [grids] of its config file, or None for no --config; its flags)
RUNS = {
    "all-seed1": (None, ["--suite", "all", "--seed", "1"]),
    "all-seed3001": (None, ["--suite", "all", "--seed", "3001"]),
    **{f"{suite}-dense": (DENSE_GRIDS, ["--suite", suite, "--seed", "1"])
       for suite in ("conformal", "lemmas", "scan", "estimates")},
    "list-checks": (None, ["--list-checks"]),
    "config-error": ({"unknown_grid": 7}, ["--suite", "all", "--seed", "1"]),
}

_WALL_TIME = re.compile(rb'"wall_time_s": [^,}]*')
_DIGITS = 12


def environment():
    """What the raw bits of a run depend on."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.machine()}"}


def _round(obj):
    """obj with every float rounded to ``_DIGITS`` significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.{_DIGITS}g}")
    if isinstance(obj, dict):
        return {k: _round(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round(v) for v in obj]
    return obj


def canonical(name, data):
    """A file's bytes with its floats rounded; ``wall_time_s`` dropped."""
    if name.endswith(".json"):
        report = json.loads(data)
        report.pop("wall_time_s")
        return json.dumps(_round(report), sort_keys=True).encode()
    rows = data.decode("utf-8").splitlines()
    body = [",".join(f"{float(v):.{_DIGITS}g}" for v in row.split(",")) for row in rows[1:]]
    return "\n".join(rows[:1] + body).encode()


def verdicts(stdout):
    """The stdout lines up to each check's slack: ids and verdicts."""
    return [line.split(" slack=")[0] for line in stdout]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_digests(out, grids, flags):
    """Status, stdout, stderr and file digests of one in-process
    ``cli.main`` run that writes to out; with grids, through a config file
    beside out."""
    argv = flags + ["--workers", "1", "--out", str(out)]
    if grids is not None:
        config = out.with_name(f"{out.name}.ini")
        config.write_text("[grids]\n" + "".join(f"{k} = {v}\n" for k, v in grids.items()),
                          encoding="utf-8")
        argv = ["--config", str(config)] + argv
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = cli.main(argv)
    files = {path.name: path.read_bytes()
             for path in (sorted(out.iterdir()) if out.is_dir() else ())}
    return {
        "status": status,
        "stdout": stdout.getvalue().splitlines(),
        "stderr": stderr.getvalue().splitlines(),
        "sha256": {name: _sha(_WALL_TIME.sub(b'"wall_time_s": 0', data))
                   for name, data in files.items()},
        "canonical": {name: _sha(canonical(name, data)) for name, data in files.items()},
    }


def generate(workdir):
    """The golden record of every run in ``RUNS``, written under workdir."""
    runs = {label: run_digests(Path(workdir) / label, *run) for label, run in RUNS.items()}
    return {"environment": environment(), "runs": runs}


def test_reports_match_the_golden_digests(shipped_runs):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = shipped_runs[0]
    assert got["runs"].keys() == want["runs"].keys()
    if got["environment"] == want["environment"]:
        for label, run in want["runs"].items():
            moved = sorted(name for name, sha in run["sha256"].items()
                           if got["runs"][label]["sha256"].get(name) != sha)
            assert got["runs"][label] == run, (
                f"{label}: outputs moved {moved}; if on purpose, rerun tests/golden/update.py")
        return
    note = (f"compared in canonical form ({_DIGITS} significant digits), since this "
            f"environment {got['environment']} is not the recorded {want['environment']}")
    for label, run in want["runs"].items():
        have = got["runs"][label]
        assert have["status"] == run["status"], f"{label}: exit status; {note}"
        assert verdicts(have["stdout"]) == verdicts(run["stdout"]), f"{label}: verdicts; {note}"
        assert have["stderr"] == run["stderr"], f"{label}: stderr; {note}"
        moved = sorted(name for name, sha in run["canonical"].items()
                       if have["canonical"].get(name) != sha)
        assert have["canonical"].keys() == run["canonical"].keys() and not moved, (
            f"{label}: outputs moved {moved}; {note}")


def test_update_names_what_moved():
    """``golden/update.py`` lists, per run, each file whose digest moved,
    came or went, then each of status, stdout and stderr that changed."""
    from golden.update import moves

    run = {"status": 0, "stdout": ["a: PASS"], "stderr": [], "sha256": {"a.json": "1", "b.csv": "2"}}
    new = {"runs": {
        "same": run,
        "moved": {**run, "status": 1, "sha256": {"a.json": "1", "b.csv": "3", "c.json": "4"}},
        "new": {**run, "stderr": ["oops"]},
    }}
    assert moves({"runs": {"same": run, "moved": run}}, new) == {
        "same": [], "moved": ["b.csv", "c.json", "status"],
        "new": ["a.json", "b.csv", "status", "stdout", "stderr"]}
