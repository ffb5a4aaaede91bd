"""curvlab benchmark: fresh-process suite workloads through the public CLI.

Usage (from the repository root):

    python3 bench/run.py --workload suite-serial --seed 1 --seconds 40 --trace 0

Every repetition is a fresh interpreter running ``bench/child.py``, which
calls ``curvlab.cli.main`` with the workload's arguments; the next
repetition starts only after the previous one exited (closed loop, one
client). The seed is passed through as ``--seed``. With ``--trace 0`` the
run reports the end-to-end metrics, medians over the repetitions; with
``--trace 1`` it makes one untraced and one traced repetition and reports
the per-layer metrics. Every repetition is checked for correctness. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See
``bench/README.md`` for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median
from typing import NamedTuple

from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

MIN_REPS = 2  # timed repetitions per run, even when they overrun --seconds
SETUP_PROBES = 2  # extra start-up-only launches per untraced run
RUN_DEADLINE_S = 170  # children still running then are killed
PROBE_ID = "curvature-sum-flat-probe"
LINE = re.compile(r"^(\S+): (PASS|FAIL|ERROR|NONCONVERGED)( \(probe\))?")

DENSE_GRIDS = {
    "samples": 400,
    "scan_points": 40,
    "r_points": 8000,
    "t_points": 400,
    "n_segments": 64,
}



class Workload(NamedTuple):
    suites: tuple  # run in sequence, one cli.main call each, in one process
    workers: int
    dense: bool  # use the generated dense-grid config
    layers: tuple  # must record calls in the traced run


WORKLOADS = {
    "suite-serial": Workload(("all",), 1, False, LAYERS),
    "suite-pooled": Workload(("all",), 2, False, LAYERS),
    "grids-dense": Workload(
        ("conformal", "lemmas", "scan", "estimates"), 1, True,
        ("cli", "fields", "hypersurface", "spaceform", "variation",
         "conformal", "fdcheck", "estimates", "report"),
    ),
}
# the two workloads that must write identical reports for the same seed
SAME_OUTPUTS = ("suite-serial", "suite-pooled")


class Fatal(RuntimeError):
    """The benchmark cannot run here; no result line is printed."""


def src_digest():
    """Hash of the program's source tree; keys the cross-workload digests."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def output_digest(outdir):
    """Digest of the reports (JSON minus wall_time_s) and CSV tables."""
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            report = json.loads(data)
            report.pop("wall_time_s", None)
            data = json.dumps(report, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


class Launch:
    """One finished child: timings, resource use, marker and captured output."""

    def __init__(self, pid, status, launched, wall, rusage, marker, stdout, stderr):
        self.pid = pid
        self.status = status
        self.launched = launched
        self.wall = wall
        self.cpu = rusage.ru_utime + rusage.ru_stime
        self.rss_mb = rusage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.marker = marker
        self.stdout = stdout
        self.stderr = stderr

    @property
    def setup(self):
        """Launch to first check start; both read CLOCK_MONOTONIC."""
        first = self.marker.get("first_check") if self.marker else None
        return None if first is None else first - self.launched


def launch(tag, mode, argvs, env, deadline):
    """Run one child to completion; wall time is spawn to reaped exit.

    The child is killed when ``deadline`` (a ``time.monotonic()`` value)
    passes, so a hung child cannot keep the run from ending.
    """
    spec_path = RUN_DIR / f"{tag}.spec.json"
    marker_path = RUN_DIR / f"{tag}.marker.json"
    out_path = RUN_DIR / f"{tag}.stdout"
    err_path = RUN_DIR / f"{tag}.stderr"
    marker_path.unlink(missing_ok=True)
    spec = {
        "src": str(SRC),
        "mode": mode,
        "argvs": argvs,
        "marker": str(marker_path),
        "spans": str(RUN_DIR / f"{tag}.spans.tsv"),
    }
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    wronly = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), wronly, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), wronly, 0o644),
    ]
    argv = [sys.executable, str(BENCH / "child.py"), str(spec_path)]
    t0 = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)

    def kill(signum, frame):
        os.kill(pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, kill)
    signal.alarm(max(1, int(deadline - t0)))
    reaped = False
    try:
        _, status, rusage = os.wait4(pid, 0)
        wall = time.monotonic() - t0
        reaped = True
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        if not reaped:  # interrupted: leave no child behind
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    try:
        marker = json.loads(marker_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        marker = None
    return Launch(
        pid,
        os.waitstatus_to_exitcode(status),
        t0,
        wall,
        rusage,
        marker,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


class Gate:
    """Counts checks attempted and failures, and says why each failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.pids = set()

    def fail(self, reason):
        self.failed += 1
        self.reasons.append(reason)

    def fresh(self, run):
        """Each launch must be its own process that reported its own pid."""
        if run.marker is None:
            self.fail(f"pid {run.pid}: no marker written (exit {run.status}): {run.stderr[-300:]}")
            return False
        if run.marker.get("pid") != run.pid or run.pid in self.pids:
            self.fail(f"pid {run.pid}: repetition did not run in a fresh process")
        self.pids.add(run.pid)
        return True

    def setup_probe(self, run):
        if self.fresh(run) and (run.status != 0 or run.setup is None):
            self.fail(f"pid {run.pid}: start-up probe reached no check (exit {run.status})")

    def repetition(self, run, outdir):
        """Gate one full repetition; returns its output digest."""
        if not self.fresh(run):
            return None
        if run.status != 0:
            self.fail(f"pid {run.pid}: exit status {run.status}: {run.stderr[-300:]}")
        seen = []
        for line in run.stdout.splitlines():
            m = LINE.match(line)
            if not m:
                continue
            cid, tag, probe = m.group(1), m.group(2), bool(m.group(3))
            seen.append(cid)
            self.attempted += 1
            path = outdir / f"{cid}.json"
            if tag in ("ERROR", "NONCONVERGED") or not path.is_file():
                self.fail(f"{cid}: {tag}")
                continue
            report = json.loads(path.read_text(encoding="utf-8"))
            is_probe = report.get("probe") is True
            # a probe is built to violate its inequality: it must fail
            if cid == PROBE_ID and not is_probe:
                self.fail(f"{cid}: no longer marked as a probe")
            elif probe != is_probe or report.get("passed") is is_probe or (tag == "PASS") is is_probe:
                self.fail(f"{cid}: {line.strip()}")
        if Counter(seen) != Counter(run.marker.get("started", [])):
            self.fail(f"pid {run.pid}: reported checks differ from the checks started")
        if PROBE_ID not in seen:  # every workload runs the estimates suite
            self.fail(f"pid {run.pid}: probe {PROBE_ID} did not run")
        return output_digest(outdir) if outdir.is_dir() else None


def check_digests(gate, digests, workload, seed):
    """Reports must not depend on the repetition or, for the two full-suite
    workloads, on the worker count. The digest of the first workload run
    for a seed and source tree is kept to compare the other against."""
    known = {d for d in digests if d is not None}  # None: already failed
    if len(known) > 1:
        gate.fail(f"{workload}: report digests differ across repetitions")
    if workload not in SAME_OUTPUTS or len(known) != 1:
        return
    digest = known.pop()
    store = RUN_DIR / "digests" / f"{src_digest()}-{seed}.json"
    store.parent.mkdir(exist_ok=True)
    seen = json.loads(store.read_text()) if store.is_file() else {}
    for other, value in seen.items():
        if other != workload and value != digest:
            gate.fail(f"{workload}: reports differ from {other} for seed {seed}")
    seen[workload] = digest
    store.write_text(json.dumps(seen, sort_keys=True))


def dense_config():
    path = RUN_DIR / "grids-dense.ini"
    lines = ["[grids]"] + [f"{k} = {v}" for k, v in DENSE_GRIDS.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def check_times(outdir):
    """Per-check wall_time_s from the reports of one repetition."""
    times = {}
    for path in sorted(outdir.glob("*.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        times[report["check"]] = report["wall_time_s"]
    return times


class Bench:
    """One benchmark run: a workload, a seed, the child environment."""

    def __init__(self, args):
        self.workload = args.workload
        self.spec = WORKLOADS[args.workload]
        self.seed = args.seed
        self.seconds = args.seconds
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.gate = Gate()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        extra = ["--config", str(dense_config())] if self.spec.dense else []
        self.outdir = RUN_DIR / f"{self.workload}.out"
        self.argvs = [
            extra + ["--suite", suite, "--workers", str(self.spec.workers),
                     "--seed", str(self.seed), "--out", str(self.outdir)]
            for suite in self.spec.suites
        ]

    def launch(self, tag, mode):
        return launch(f"{self.workload}.{tag}", mode, self.argvs, self.env, self.deadline)

    def warm_up(self):
        """Untimed start-up launch: compiles bytecode, fills the file cache
        and reads the machine facts. Users do not pay it on every run."""
        warm = self.launch("warmup", "setup")
        if warm.status != 0 or warm.setup is None:
            raise Fatal(f"warm-up launch failed (exit {warm.status}): {warm.stderr[-800:]}")
        return dict(warm.marker["facts"], commit=git_commit(), src_digest=src_digest())

    def repetition(self, tag, mode):
        """One full gated repetition: (launch, output digest, check times)."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        run = self.launch(tag, mode)
        digest = self.gate.repetition(run, self.outdir)
        times = check_times(self.outdir) if self.outdir.is_dir() else {}
        shutil.rmtree(self.outdir, ignore_errors=True)
        return run, digest, times

    def untraced(self):
        """Start-up probes and timed repetitions; the end-to-end metrics."""
        start = time.monotonic()
        setups = []
        for i in range(SETUP_PROBES):
            probe = self.launch(f"setup{i}", "setup")
            self.gate.setup_probe(probe)
            if probe.setup is not None:
                setups.append(probe.setup)
        reps, digests = [], []
        while len(reps) < MIN_REPS or time.monotonic() - start + median(r.wall for r in reps) <= self.seconds:
            run, digest, _ = self.repetition("rep", "run")
            reps.append(run)
            digests.append(digest)
            if run.setup is not None:
                setups.append(run.setup)
        check_digests(self.gate, digests, self.workload, self.seed)
        if not setups:
            raise Fatal("no launch reached its first check")
        print(f"{self.workload} seed {self.seed}: {len(reps)} repetitions, pids {[r.pid for r in reps]}")
        print(f"  wall samples (s): {[round(r.wall, 3) for r in reps]}")
        print(f"  cpu samples (s): {[round(r.cpu, 3) for r in reps]}")
        print(f"  start-up samples (s): {[round(s, 3) for s in setups]}")
        return {
            "wall_s": (median(r.wall for r in reps), "s"),
            "setup_s": (median(setups), "s"),
            "cpu_s": (median(r.cpu for r in reps), "s"),
            "peak_rss_mb": (median(r.rss_mb for r in reps), "MB"),
        }

    def traced(self):
        """One untraced and one traced repetition; the per-layer metrics."""
        plain, plain_digest, times = self.repetition("plain", "run")
        run, digest, _ = self.repetition("trace", "trace")
        check_digests(self.gate, [plain_digest, digest], self.workload, self.seed)
        if run.marker is None or "trace" not in run.marker:
            raise Fatal(f"traced run wrote no trace: {run.stderr[-500:]}")
        trace = run.marker["trace"]
        print(f"{self.workload} seed {self.seed}: untraced pid {plain.pid} wall {plain.wall:.3f} s, "
              f"traced pid {run.pid} wall {run.wall:.3f} s")
        print(f"  geodesic iterations per solve: {trace['counters'].get('geodesic.iterations_per_solve', [])}")
        metrics = layer_metrics(trace["stats"], trace["counters"], self.spec.layers, self.workload)
        check_sum = sum(times.values())
        metrics.update({f"cli.check_s.{cid}": (times.get(cid, 0.0), "s") for cid in run.marker["registry"]})
        metrics.update({
            "cli.check_sum_s": (check_sum, "s"),
            "cli.overhead_s": (plain.wall - (plain.setup or 0.0) - check_sum, "s"),
            "trace.spans": (trace["spans"], "count"),
            "trace.wall_s": (run.wall, "s"),
            "trace.overhead_s": (run.wall - plain.wall, "s"),
        })
        return metrics


def layer_metrics(stats, counters, required, workload):
    """Per-layer metrics from the tracer's per-function rows and counters.

    A stats row is [calls, outermost calls, inclusive wall s, self CPU s,
    points, layer]. Raises when a layer the workload must exercise made no
    call, so a refactor cannot silently zero its metrics.
    """
    calls = Counter()
    self_s = Counter()
    for row in stats.values():
        calls[row[5]] += row[0]
        self_s[row[5]] += row[3]
    missing = [layer for layer in required if calls[layer] == 0]
    if missing:
        raise Fatal(f"layers recorded no calls on {workload}: {', '.join(missing)}")

    def stat(key, col):
        return stats.get(key, [0, 0, 0.0, 0.0, 0])[col]

    def outer_calls(layer, method=None):
        return sum(row[1] for key, row in stats.items()
                   if row[5] == layer and (method is None or (row[4] and key.endswith("." + method))))

    def count(name):
        return counters.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    solve_s = stat("geodesic.minimize_free_boundary", 2)
    m = {
        "geodesic.solves": (count("geodesic.solves"), "count"),
        "geodesic.iterations": (count("geodesic.iterations"), "count"),
        "geodesic.levels": (count("geodesic.levels"), "count"),
        "geodesic.converged_frac": (ratio(count("geodesic.converged"), count("geodesic.solves")), "1"),
        "geodesic.solve_s": (solve_s, "s"),
        "geodesic.s_per_iteration": (ratio(solve_s, count("geodesic.iterations")), "s"),
        "fields.value_calls": (outer_calls("fields", "value"), "count"),
        "fields.gradient_calls": (outer_calls("fields", "gradient"), "count"),
        "fields.hessian_calls": (outer_calls("fields", "hessian"), "count"),
        "fields.points": (sum(row[4] for row in stats.values()), "count"),
        "hypersurface.project_calls": (stat("hypersurface.Hypersurface.project", 0), "count"),
        "hypersurface.project_s": (stat("hypersurface.Hypersurface.project", 2), "s"),
        "hypersurface.infima": (count("hypersurface.infima"), "count"),
        "hypersurface.infimum_s": (stat("hypersurface.infimum_over_annulus", 2), "s"),
        "hypersurface.n_grid": (count("hypersurface.n_grid"), "count"),
        "hypersurface.infimum_converged_frac": (
            ratio(count("hypersurface.infimum_converged"), count("hypersurface.infima")), "1"),
        "spaceform.distance_points": (count("spaceform.distance_points"), "count"),
        "spaceform.radial_map_calls": (stat("spaceform.radial_map", 0), "count"),
        "curves.resample_calls": (stat("curves.DiscreteCurve.resample", 0), "count"),
        "variation.bounds_scan_s": (stat("variation.crucial_bounds_scan", 2), "s"),
        "variation.bounds_cells": (count("variation.bounds_cells"), "count"),
        "variation.index_form_s": (stat("variation.index_form_trace", 2), "s"),
        "variation.index_form_vertices": (count("variation.index_form_vertices"), "count"),
        "conformal.calls": (outer_calls("conformal"), "count"),
        "fdcheck.calls": (outer_calls("fdcheck"), "count"),
        "estimates.decay_scan_s": (stat("estimates.decay_scan", 2), "s"),
        "estimates.scan_radii": (count("estimates.scan_radii"), "count"),
        "report.reports": (stat("report.VerificationReport.to_json", 0), "count"),
        "report.to_json_s": (stat("report.VerificationReport.to_json", 2), "s"),
        "report.bytes_out": (count("report.bytes_out"), "bytes"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    print("  self time per layer (s): " + ", ".join(f"{layer} {self_s[layer]:.3f}" for layer in LAYERS))
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "curvlab" / "cli.py").is_file():
        raise Fatal(f"program source not found under {SRC}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = sorted(m["name"] for m in declared["per_layer" if args.trace else "end_to_end"])
    RUN_DIR.mkdir(exist_ok=True)

    bench = Bench(args)
    print("machine: " + json.dumps(bench.warm_up(), sort_keys=True))
    metrics = bench.traced() if args.trace else bench.untraced()
    if names != sorted(metrics):
        raise Fatal("metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(names) - set(metrics))}, extra {sorted(set(metrics) - set(names))}")
    gate = bench.gate
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {gate.failed / max(gate.attempted, 1):.6g} "
          f"({gate.failed} failed of {gate.attempted} checks attempted)")
    for reason in gate.reasons:
        print(f"  FAILED: {reason}")
    result = {
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Fatal as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
