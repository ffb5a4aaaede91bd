"""Batch harness running the verification checks from the command line.

Each check produces one JSON report (and the decay scans additionally one
CSV table) under the output directory, plus a PASS/FAIL line on stdout.
The checks themselves live in ``curvlab.checks``; this module resolves the
configuration, runs the registry and writes the outputs.

Exit status:
    0   every non-probe check passed
    1   at least one non-probe check failed
    2   configuration error (nothing is written in this case)
    3   an optimizer or refinement loop failed to converge; the offending
        check is named on stderr
"""

import argparse
import configparser
import gc
import hashlib
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .checks import CHECKS, CONFIGURABLE_FIXTURES
from .estimates import SCAN_CSV_HEADER
from .hypersurface import example_fixture
from .report import NonConvergence, build_report

SUITES = ("conformal", "lemmas", "examples", "geodesic", "estimates", "scan", "all")


class ConfigError(ValueError):
    """Raised for any malformed or out-of-range run configuration."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

TOLERANCE_DEFAULTS = {
    # slack floor for the inequality-style reports
    "default": 1e-9,
    # relative error allowed against finite-difference oracles
    "fd_rel": 1e-4,
    # agreement with closed forms in the sharp examples
    "sharp": 1e-6,
    # pointwise curvature-law residual along computed minimizers
    "geodesic": 1e-5,
}

# an int default marks an integer grid size
GRID_DEFAULTS = {
    "samples": 50,
    "r_points": 2000,
    "t_points": 200,
    "scan_points": 7,
    "n_segments": 512,
    "phi_points": 2001,
    "r_exp_lo": 4.0,
    "r_exp_hi": 10.0,
}

# [run] keys, each also read from CURVLAB_<KEY> and from the --<key> flag
_RUN_KEYS = ("suite", "out", "seed", "workers")


def _number(what, val, integer=False):
    """val, possibly a string, as a finite float, or as an int when
    ``integer``; ConfigError when it is neither."""
    try:
        num = float(val)
    except (TypeError, ValueError):
        num = np.nan
    if not np.isfinite(num) or (integer and not num.is_integer()):
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{what} must be {kind}, got {val!r}")
    if not integer:
        return num
    try:
        return int(val)  # exact for ints and integer strings
    except ValueError:
        return int(num)  # "2.0", "1e3"


class RunConfig:
    """Validated settings for one harness invocation."""

    def __init__(self, suite="all", out="out", seed=1, workers=1,
                 tolerances=None, grids=None, fixture=None):
        self.suite = suite
        self.out = out
        self.seed = seed
        self.workers = workers
        self.tolerances = dict(TOLERANCE_DEFAULTS)
        if tolerances:
            self.tolerances.update(tolerances)
        self.grids = dict(GRID_DEFAULTS)
        if grids:
            self.grids.update(grids)
        self.fixture = dict(fixture or {})
        self.validate()

    def validate(self):
        """Convert every value to its type and range-check it; values may
        arrive as the strings of an INI file or the environment."""
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {', '.join(SUITES)}")
        self.seed = _number("seed", self.seed, integer=True)
        self.workers = _number("workers", self.workers, integer=True)
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        for key, val in self.tolerances.items():
            if key not in TOLERANCE_DEFAULTS:
                raise ConfigError(f"unknown tolerance key {key!r}")
            self.tolerances[key] = _number(f"tolerance {key}", val)
            if not self.tolerances[key] > 0.0:
                raise ConfigError(f"tolerance {key} must be positive, got {val!r}")
        for key, val in self.grids.items():
            if key not in GRID_DEFAULTS:
                raise ConfigError(f"unknown grid key {key!r}")
            integer = isinstance(GRID_DEFAULTS[key], int)
            self.grids[key] = _number(f"grid {key}", val, integer)
            if integer and self.grids[key] < 2:
                raise ConfigError(f"grid {key} must be at least 2, got {val!r}")
        if not self.grids["r_exp_lo"] < self.grids["r_exp_hi"]:
            raise ConfigError("grid r_exp_lo must be below r_exp_hi")
        if self.fixture:
            name = self.fixture.get("name")
            if name not in CONFIGURABLE_FIXTURES:
                raise ConfigError(f"fixture name must be one of {', '.join(CONFIGURABLE_FIXTURES)}, "
                                  f"got {name!r}")
            for key, val in self.fixture.items():
                if key != "name":
                    self.fixture[key] = _number(f"fixture {key}", val, integer=key == "dim")
            # the builder rejects unknown keys and values no check could run with
            try:
                example_fixture(**self.fixture)
            except ValueError as exc:
                raise ConfigError(f"fixture {name}: {exc}")


def parse_config(path):
    """Read an INI file with [run], [tolerances], [grids], [fixture] sections;
    RunConfig converts the values."""
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}")

    kwargs = {}
    for section in parser.sections():
        values = dict(parser.items(section))
        if section == "run":
            for key in values:
                if key not in _RUN_KEYS:
                    raise ConfigError(f"unknown key {key!r} in [run]")
            kwargs.update(values)
        elif section in ("tolerances", "grids", "fixture"):
            kwargs[section] = values
        else:
            raise ConfigError(f"unknown config section [{section}]")
    return RunConfig(**kwargs)


def load_config(args, env=None):
    """Merge config file, environment and command-line flags.

    Precedence: flags over CURVLAB_* environment variables over the file.
    """
    env = os.environ if env is None else env
    path = args.config or env.get("CURVLAB_CONFIG")
    cfg = parse_config(path) if path else RunConfig()
    for key in _RUN_KEYS:
        val = getattr(args, key, None)
        if val is None:
            val = env.get(f"CURVLAB_{key.upper()}")
        if val is not None:
            setattr(cfg, key, val)
    cfg.validate()
    return cfg


class CheckContext:
    """What one check may read: its id, a seeded rng, tolerances, grid sizes
    and fixture overrides."""

    def __init__(self, cfg, cid):
        self.cfg = cfg
        self.cid = cid

    def rng(self):
        """Generator seeded from (run seed, check id); independent per check."""
        digest = hashlib.sha256(f"{self.cfg.seed}:{self.cid}".encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    def tol(self, name):
        return self.cfg.tolerances[name]

    def grid(self, name):
        return self.cfg.grids[name]

    def fixture_kwargs(self, name):
        """Config overrides for the named fixture, empty unless it matches."""
        if name not in CONFIGURABLE_FIXTURES:
            raise ValueError(f"fixture {name!r} is not in CONFIGURABLE_FIXTURES")
        if self.cfg.fixture.get("name") != name:
            return {}
        return {k: v for k, v in self.cfg.fixture.items() if k != "name"}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def suite_checks(suite):
    if suite == "all":
        return list(CHECKS)
    return [cid for cid, spec in CHECKS.items() if suite in spec.suites]


def emit_scan_csv(scan, path):
    """Write a decay scan table; a missing scan leaves a header-only file."""
    if scan is None:
        Path(path).write_text(SCAN_CSV_HEADER, encoding="utf-8")
        warnings.warn(f"no scan data, wrote header only: {path}")
        return
    scan.to_csv(path)


def run(cfg, stdout=None, stderr=None):
    """Execute the configured suite; returns the process exit status."""
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    ids = suite_checks(cfg.suite)

    def job(cid):
        started = time.perf_counter()
        try:
            # looked up at call time, so a replaced ``fn`` is the one that runs
            out = CHECKS[cid].fn(CheckContext(cfg, cid))
        except NonConvergence as exc:
            return "nonconverged", str(exc)
        except Exception as exc:
            return "error", f"{type(exc).__name__}: {exc}"
        rep, scan = out if isinstance(out, tuple) else (out, None)
        if rep.check != cid:
            return "error", f"report id {rep.check!r} does not match registry id"
        rep.wall_time_s = time.perf_counter() - started
        return "ok", (rep, scan)

    if cfg.workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = dict(zip(ids, pool.map(job, ids)))
    else:
        outcomes = {cid: job(cid) for cid in ids}

    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    status = 0
    nonconverged = []
    for cid in ids:
        kind, payload = outcomes[cid]
        if kind == "nonconverged":
            nonconverged.append(cid)
            print(f"{cid}: NONCONVERGED ({payload})", file=stdout)
            print(f"non-convergence in check {cid}: {payload}", file=stderr)
            continue
        if kind == "error":
            rep = build_report(cid, float("inf"), 0.0,
                               tolerance=cfg.tolerances["default"],
                               grid={"error": payload})
            scan = None
        else:
            rep, scan = payload
        (outdir / f"{cid}.json").write_text(rep.to_json() + "\n", encoding="utf-8")
        if scan is not None or cid.startswith("scan-"):
            emit_scan_csv(scan, outdir / f"{cid}.csv")
        tag = "PASS" if rep.passed else "FAIL"
        if rep.probe:
            tag += " (probe)"
        if kind == "error":
            tag = "ERROR"
            print(f"check {cid} raised: {payload}", file=stderr)
        print(f"{cid}: {tag} slack={rep.slack:.6g}", file=stdout)
        if not rep.passed and not rep.probe:
            status = 1
    if nonconverged:
        return 3
    return status


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
                        help="INI file with [run], [tolerances], [grids], [fixture]")
    parser.add_argument("--suite", default=None, choices=SUITES,
                        help="which check suite to run (default: all)")
    parser.add_argument("--out", default=None, help="output directory for reports")
    parser.add_argument("--seed", type=int, default=None, help="base seed for sampling")
    parser.add_argument("--workers", type=int, default=None,
                        help="thread pool size for independent checks")
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


# The import-time heap lives as long as the process; frozen, exit's GC skips it.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
