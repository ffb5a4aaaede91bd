"""Rewrite ``reports.json``, the golden digests ``tests/test_golden.py``
compares against.

    PYTHONPATH=src python tests/golden/update.py

Run it after a change that moves a report on purpose. Before it writes, it
prints one line per run: the output files whose sha256 moved, and whether
the exit status, stdout or stderr changed. Those lines are the list of
moved outputs to check against what the change meant to move.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import GOLDEN, generate  # noqa: E402


def moves(old, new):
    """Per run of the record new, what moved from the record old: the
    output files whose sha256 differs (or that only one side has), then
    ``status``, ``stdout`` and ``stderr`` where they differ."""
    out = {}
    for label, run in new["runs"].items():
        was = old["runs"].get(label, {})
        sha, was_sha = run["sha256"], was.get("sha256", {})
        out[label] = (sorted(name for name in sha.keys() | was_sha.keys()
                             if sha.get(name) != was_sha.get(name))
                      + [key for key in ("status", "stdout", "stderr") if run[key] != was.get(key)])
    return out


def main():
    with tempfile.TemporaryDirectory() as workdir:
        record = generate(workdir)
    old = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if old["environment"] != record["environment"]:
        print(f"environment {old['environment']} -> {record['environment']}")
    for label, moved in moves(old, record).items():
        print(f"{label}: {', '.join(moved) or 'unchanged'}")
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
