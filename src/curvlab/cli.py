"""Batch harness running the verification checks from the command line.

Each check produces one JSON report (and the decay scans additionally one
CSV table) under the output directory, plus a PASS/FAIL line on stdout.
The checks themselves live in ``curvlab.checks``, where a decay scan
returns (report, columns); this module resolves the configuration, runs
the registry and writes the outputs, the scan tables included. It is the
only module that reads or writes a file.

A run is configured by its flags (``--suite``, ``--out``, ``--seed``), plus
an optional INI file (``--config``) that holds only ``[grids]``, the five
integer grid sizes; the module reads no environment variable. Each report
records, in its ``inputs_digest``, the seed and grid sizes it reads.

The checks run one after another on one thread, which lets them share
results through a per-run memo (``CheckContext.once``). ``--workers`` is
still accepted and validated (an integer, at least 1), but changes nothing.

Exit status:
    0   every non-probe check passed
    1   at least one non-probe check failed, or a check (probe or not)
        raised or returned a report that is not JSON
    2   configuration error (nothing is written in this case)
    3   an optimizer or refinement loop failed to converge; the offending
        check is named on stderr
"""

import gc

# The import only allocates, and what it allocates lives until exit: a
# collection while it runs, or over its heap once the collector is back on,
# would walk every new object to free almost none. So the collector stays
# off, and the heap is frozen (exit's collection skips it too) before the
# collector is left on or off as the caller had it.
_gc_was_enabled = gc.isenabled()
gc.disable()
try:
    import argparse
    import hashlib
    import sys
    import time
    from pathlib import Path

    import numpy as np

    from .checks import CHECKS, SLACK_FLOOR
    from .report import NonConvergence, VerificationReport
finally:
    gc.freeze()
    if _gc_was_enabled:
        gc.enable()
    del _gc_was_enabled

SUITES = ("conformal", "lemmas", "examples", "geodesic", "estimates", "scan", "all")


class ConfigError(ValueError):
    """Raised for any malformed or out-of-range run configuration."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

GRID_DEFAULTS = {
    "samples": 50,
    "r_points": 2000,
    "t_points": 200,
    "scan_points": 7,
    "n_segments": 512,
}


def _integer(what, val):
    """val, possibly a string, as an int; ConfigError when it is not a
    finite integer."""
    try:
        num = float(val)
    except (TypeError, ValueError):
        num = np.nan
    if not np.isfinite(num) or not num.is_integer():
        raise ConfigError(f"{what} must be an integer, got {val!r}")
    try:
        return int(val)  # exact for ints and integer strings
    except ValueError:
        return int(num)  # "2.0", "1e3"


class RunConfig:
    """Validated settings for one harness invocation."""

    def __init__(self, suite="all", out="out", seed=1, grids=None):
        self.suite = suite
        self.out = out
        self.seed = seed
        self.grids = dict(GRID_DEFAULTS)
        if grids:
            self.grids.update(grids)
        self.validate()

    def validate(self):
        """Convert every value to its type and range-check it; values may
        arrive as the strings of an INI file."""
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {', '.join(SUITES)}")
        self.seed = _integer("seed", self.seed)
        for key, val in self.grids.items():
            if key not in GRID_DEFAULTS:
                raise ConfigError(f"unknown grid key {key!r}")
            self.grids[key] = _integer(f"grid {key}", val)
            if self.grids[key] < 2:
                raise ConfigError(f"grid {key} must be at least 2, got {val!r}")


def parse_config(path, **run):
    """The RunConfig of an INI file's [grids] section, with the run
    settings ``run`` (suite, out, seed) over the defaults.

    Values are taken literally (no ``%`` interpolation); any other section,
    ``[DEFAULT]`` included, is a ConfigError. Pass allowances and fixtures
    are not configurable: they are fixed in ``curvlab.checks``.
    """
    import configparser  # only a --config run reads an INI file

    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}")
    if parser.defaults():
        raise ConfigError(f"unknown config section [{parser.default_section}]")
    sections = {}
    for section in parser.sections():
        if section != "grids":
            raise ConfigError(f"unknown config section [{section}]")
        sections[section] = dict(parser.items(section))
    return RunConfig(**run, **sections)


def load_config(args):
    """The RunConfig of parsed command-line flags: the defaults, then the
    ``--config`` file's [grids], then ``--suite``, ``--out``
    and ``--seed``. ``--workers`` must be an integer of at least 1 and is
    then dropped."""
    if args.workers is not None and _integer("workers", args.workers) < 1:
        raise ConfigError("workers must be at least 1")
    run = {key: getattr(args, key) for key in ("suite", "out", "seed")
           if getattr(args, key) is not None}
    return parse_config(args.config, **run) if args.config else RunConfig(**run)


class CheckContext:
    """What one check may read: its id, a seeded rng, grid sizes, and the
    results the checks of one run share.

    ``run`` hands every context it builds one memo, so ``once`` computes a
    result two checks need a single time per run; a context built on its
    own gets an empty memo. A run is single-threaded, so the memo takes no
    lock, and a check only reads what ``once`` returns.
    """

    def __init__(self, cfg, cid, memo=None):
        self.cfg = cfg
        self.cid = cid
        self._memo = {} if memo is None else memo

    def once(self, fn, *args):
        """fn(*args), computed at most once per memo for each (fn, args)."""
        key = (fn, args)
        if key not in self._memo:
            self._memo[key] = fn(*args)
        return self._memo[key]

    def rng(self):
        """Generator seeded from (run seed, check id); independent per check."""
        digest = hashlib.sha256(f"{self.cfg.seed}:{self.cid}".encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    def grid(self, name):
        return self.cfg.grids[name]


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def suite_checks(suite):
    if suite == "all":
        return list(CHECKS)
    return [cid for cid, spec in CHECKS.items() if suite in spec.suites]


SCAN_CSV_HEADER = "R,inf_h1,inf_h2,sum,envelope,slack\n"


def emit_scan_csv(columns, path):
    """Write a decay scan's columns as a table with LF line ends, one row
    per radius and every value in ``%.17g``; without columns (a scan check
    that raised), a header-only file."""
    rows = () if columns is None else zip(*columns)
    text = SCAN_CSV_HEADER + "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def run(cfg, stdout=None, stderr=None):
    """Execute the configured suite, writing and printing each check's
    outcome before the next check starts; returns the process exit status."""
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    memo = {}
    status = 0
    nonconverged = False
    for cid in suite_checks(cfg.suite):
        started = time.perf_counter()
        # looked up at call time, so a replaced ``fn`` is the one that runs
        spec = CHECKS[cid]
        error = None
        try:
            out = spec.fn(CheckContext(cfg, cid, memo))
            rep, columns = out if isinstance(out, tuple) else (out, None)
            if rep.check != cid:
                error = f"report id {rep.check!r} does not match registry id"
            else:
                rep.probe = spec.probe
                rep.wall_time_s = time.perf_counter() - started
                text = rep.to_json()
        except NonConvergence as exc:
            nonconverged = True
            print(f"{cid}: NONCONVERGED ({exc})", file=stdout)
            print(f"non-convergence in check {cid}: {exc}", file=stderr)
            continue
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            rep = VerificationReport(cid, float("inf"), 0.0, tolerance=SLACK_FLOOR,
                                     grid={"error": error})
            columns = None
            text = rep.to_json()
        (outdir / f"{cid}.json").write_text(text + "\n", encoding="utf-8")
        if columns is not None or "scan" in spec.suites:
            path = outdir / f"{cid}.csv"
            emit_scan_csv(columns, path)
            if columns is None:
                print(f"no scan data, wrote header only: {path}", file=stderr)
        if error is None:
            tag = ("PASS" if rep.passed else "FAIL") + (" (probe)" if rep.probe else "")
        else:
            tag = "ERROR"
            print(f"check {cid} raised: {error}", file=stderr)
        print(f"{cid}: {tag} slack={rep.slack:.6g}", file=stdout)
        if not rep.passed and not rep.probe:
            status = 1
    return 3 if nonconverged else status


def _list_checks(stdout):
    width = max(len(cid) for cid in CHECKS)
    for cid, spec in CHECKS.items():
        mark = "  (probe)" if spec.probe else ""
        print(f"{cid:<{width}}  [{', '.join(spec.suites)}]{mark}", file=stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="curvlab",
        description="Run the curvature verification checks and write reports.",
    )
    parser.add_argument("--config", default=None,
                        help="INI file with a [grids] section of integer grid sizes")
    parser.add_argument("--suite", default=None, choices=SUITES,
                        help="which check suite to run (default: all)")
    parser.add_argument("--out", default=None, help="output directory for reports")
    parser.add_argument("--seed", type=int, default=None, help="base seed for sampling")
    parser.add_argument("--workers", type=int, default=None,
                        help="ignored: the checks always run one after another on one "
                             "thread (still an integer, at least 1); to be removed "
                             "with the benchmark's suite-pooled workload (ROADMAP direction 5)")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the registry and exit")
    args = parser.parse_args(argv)
    if args.list_checks:
        _list_checks(sys.stdout)
        return 0
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
