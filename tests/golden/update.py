"""Rewrite ``reports.json``, the golden digests ``tests/test_golden.py``
compares against.

    PYTHONPATH=src python tests/golden/update.py

Run it after a change that moves a report on purpose, and check that the
diff of ``reports.json`` names only the reports meant to move.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import GOLDEN, generate  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as workdir:
        record = generate(workdir)
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
