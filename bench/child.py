"""One timed repetition, run in a fresh interpreter by ``bench/run.py``.

Usage: ``python3 bench/child.py SPEC.json``. The spec names the source tree
the program must be imported from, the argument lists passed one after the
other to ``curvlab.cli.main``, the mode and the files to write:

* ``run``: run the argument lists and record when the first check started;
* ``setup``: stop the process as soon as the first check starts, so that
  only start-up is measured (imports, config resolution);
* ``trace``: like ``run``, with every curvlab layer wrapped by the tracer.

The child writes a JSON marker with its pid, the ``time.monotonic()`` value
at the start of the first check (the parent took its own reading of the
same clock just before launching), the exit status of every ``main`` call
and the ids of the checks started. The exit status is the first non-zero
status of ``main``, 97 when curvlab comes from outside the given source
tree or the check registry cannot be found.
"""

import json
import os
import sys
import threading
import time
from pathlib import Path


def _machine_facts():
    import numpy
    import scipy

    def blas(module):
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"
        return dep.get("openblas configuration") or dep.get("name", "unknown")

    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _write_json(path, payload):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def _write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\tname\tthread\tstart\tend\n")
        for sid, parent, name, thread, start, end in spans:
            fh.write(f"{sid}\t{parent}\t{name}\t{thread}\t{start:.9f}\t{end:.9f}\n")


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    mode = spec["mode"]
    marker = {"pid": os.getpid(), "first_check": None, "started": [], "registry": []}

    import curvlab.cli as cli

    src = Path(spec["src"]).resolve()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"curvlab imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 97
    registry = getattr(cli, "CHECKS", None)
    if not registry:
        print("curvlab.cli has no check registry CHECKS", file=sys.stderr)
        return 97

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    lock = threading.Lock()

    def timed(cid, fn):
        def check(ctx):
            now = time.monotonic()
            with lock:
                if marker["first_check"] is None:
                    marker["first_check"] = now
                    if mode == "setup":
                        marker["facts"] = _machine_facts()
                        _write_json(spec["marker"], marker)
                        sys.stdout.flush()
                        os._exit(0)
                marker["started"].append(cid)
            return fn(ctx)

        return check

    marker["registry"] = list(registry)
    for cid, entry in registry.items():
        fn = tracer.wrap(entry.fn, f"cli.check:{cid}", "cli") if tracer else entry.fn
        entry.fn = timed(cid, fn)

    marker["exit_codes"] = [cli.main(argv) for argv in spec["argvs"]]
    if tracer is not None:
        stats, counters, spans = tracer.summary()
        marker["trace"] = {"stats": stats, "counters": counters, "spans": len(spans)}
        _write_spans(spec["spans"], spans)
    _write_json(spec["marker"], marker)
    return next((rc for rc in marker["exit_codes"] if rc), 0)


if __name__ == "__main__":
    sys.exit(main())
