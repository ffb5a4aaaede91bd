"""Tests for the batch harness: configuration handling, exit codes,
report emission, and determinism."""

import argparse
import ast
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import curvlab
from curvlab import checks, cli, estimates
from curvlab.checks import CheckSpec
from curvlab.cli import (
    GRID_DEFAULTS,
    ConfigError,
    NonConvergence,
    RunConfig,
    emit_scan_csv,
    load_config,
    parse_config,
    suite_checks,
)
from curvlab.hypersurface import example_fixture
from curvlab.report import build_report
from curvlab.spaceform import SpaceForm
from curvlab.variation import CoshWeight


def _args(**kw):
    base = dict(config=None, suite=None, out=None, seed=None, workers=None)
    base.update(kw)
    return argparse.Namespace(**base)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.suite == "all"
    assert cfg.grids["samples"] == 50


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[grids]\nsamples = 20\nscan_points = 5\n", encoding="utf-8")
    cfg = parse_config(path)
    assert cfg.grids == dict(GRID_DEFAULTS, samples=20, scan_points=5)
    # the flags set the run, the file its grids
    flags = dict(suite="lemmas", out="reports", seed=9)
    expected = RunConfig(grids={"samples": 20, "scan_points": 5}, **flags)
    assert vars(load_config(_args(config=str(path), **flags))) == vars(expected)


def test_bench_dense_grids_are_a_grids_file(tmp_path):
    """The grids that ``bench/run.py`` writes for its dense workload parse
    as a config file, so a grid key it sets cannot be deleted unnoticed."""
    bench = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    dense = next(ast.literal_eval(node.value)
                 for node in ast.parse(bench.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "DENSE_GRIDS")
    path = tmp_path / "dense.ini"
    path.write_text("[grids]\n" + "".join(f"{k} = {v}\n" for k, v in dense.items()),
                    encoding="utf-8")
    assert parse_config(path).grids == dict(GRID_DEFAULTS, **dense)


@pytest.mark.parametrize(
    "body",
    [
        "[run]\nfrobnicate = 1\n",
        "[bogus]\nx = 1\n",
        "[grids]\nsamples = 1\n",
        "[grids]\nsamples = 2.5\n",
        "[grids]\nunknown_grid = 7\n",
        # not grid keys: phi-calculus and the default scan range fix these
        "[grids]\nr_exp_lo = 11\n",
        "[grids]\nphi_points = 2001\n",
        # fixtures are fixed in the checks, so a [fixture] section is refused
        "[fixture]\nname = klein-bottle\n",
        "[fixture]\nwhatever = 1\n",
        "[fixture]\nname = euclid-slab\ndim = 2.5\n",
        "[fixture]\nname = euclid-slab\nx_min = 7\n",
        "[fixture]\nd = 1.0\n",
        "[fixture]\nname = hyperbolic-equidistant\n",
        "[fixture]\nname = euclid-slab\ndim = 1\n",
        "[fixture]\nname = log-graph\nx_min = 10\nx_max = 5\n",
        "[fixture]\nname = log-graph\nx_min = 1\n",
        "[fixture]\nname = revolution-r4\nt_max = 1\n",
        "[fixture]\nname = revolution-r4\nt_min = 0.9\nt_max = 0.8\n",
        "[grids]\nr_exp_lo = nan\n",
        "[tolerances]\nfd_rel = 1e-4\n",
        "[grids]\nr_exp_hi = inf\n",
        "[grids]\nsamples = nan\n",
        "[grids]\nr_points = inf\n",
        "no sections at all [",
        "[grids]\nsamples = 5%\n",
        "[DEFAULT]\nfrobnicate = 1\n",
        "[DEFAULT]\nsamples = 7\n[grids]\nr_points = 100\n",
    ],
)
def test_bad_config_rejected(tmp_path, body):
    path = tmp_path / "bad.ini"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config(path)


@pytest.mark.parametrize("kwargs", [{"seed": "x"}, {"grids": {"samples": "many"}}])
def test_unconvertible_value_raises_config_error(kwargs):
    with pytest.raises(ConfigError):
        RunConfig(**kwargs)


def test_missing_config_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.ini")


def test_run_reads_no_environment_variable(tmp_path, monkeypatch):
    path = tmp_path / "bad.ini"
    path.write_text("no sections at all [", encoding="utf-8")
    monkeypatch.setenv("CURVLAB_SUITE", "scan")
    monkeypatch.setenv("CURVLAB_SEED", "5")
    monkeypatch.setenv("CURVLAB_CONFIG", str(path))
    assert vars(load_config(_args())) == vars(RunConfig())
    assert not hasattr(cli, "os")


@pytest.mark.parametrize("workers", [0, -1, "1.5", "two"])
def test_bad_workers_flag_rejected(workers):
    with pytest.raises(ConfigError, match="workers must be"):
        load_config(_args(workers=workers))


def test_workers_do_not_change_reports():
    """``--workers`` is validated and dropped: the run it configures, and so
    every report, is the one configured without it."""
    assert not hasattr(RunConfig(), "workers")
    assert vars(load_config(_args(workers=2))) == vars(load_config(_args()))


def test_config_error_exit_status_and_no_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    for body in ("[run]\nfrobnicate = 1\n", "[fixture]\nname = log-graph\nx_min = 20\n",
                 "[grids]\nphi_points = 101\n", "[grids]\nr_exp_lo = 3\nr_exp_hi = 9\n"):
        path = tmp_path / "bad.ini"
        path.write_text(body, encoding="utf-8")
        status = cli.main(["--config", str(path), "--out", str(out)])
        assert status == 2, body
        assert not out.exists()
        assert "config error" in capsys.readouterr().err


def test_bad_workers_flag_exit_status_and_no_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["--suite", "lemmas", "--workers", "0", "--out", str(out)]) == 2
    assert not out.exists()
    assert "config error: workers must be at least 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_every_check_belongs_to_a_known_suite():
    for cid, spec in cli.CHECKS.items():
        assert spec.suites, cid
        for s in spec.suites:
            assert s in cli.SUITES and s != "all"


def test_suite_selection():
    assert suite_checks("all") == list(cli.CHECKS)
    lemmas = suite_checks("lemmas")
    assert "curve-shortness" in lemmas
    assert "elementary-inequalities" in lemmas
    assert "scan-slab" not in lemmas
    # the shared check appears exactly once per suite listing
    assert suite_checks("estimates").count("elementary-inequalities") == 1


def test_list_checks_flag(capsys):
    assert cli.main(["--list-checks"]) == 0
    text = capsys.readouterr().out
    for cid in ("connection-law-fd", "scan-revolution", "curvature-sum-flat-probe"):
        assert cid in text
    assert "(probe)" in text


def test_rng_seeding_is_per_check_and_per_seed():
    cfg_a = RunConfig(seed=1)
    cfg_b = RunConfig(seed=2)
    draw = lambda cfg, cid: cli.CheckContext(cfg, cid).rng().normal(size=4)
    assert np.array_equal(draw(cfg_a, "x"), draw(cfg_a, "x"))
    assert not np.array_equal(draw(cfg_a, "x"), draw(cfg_a, "y"))
    assert not np.array_equal(draw(cfg_a, "x"), draw(cfg_b, "x"))


def test_cli_shares_the_check_registry():
    assert cli.CHECKS is checks.CHECKS


def test_runner_calls_a_replaced_check_fn(tmp_path, monkeypatch):
    # bench/child.py swaps ``fn`` on the registry's specs after import
    calls = []

    def replacement(ctx):
        calls.append(ctx.cid)
        return build_report(ctx.cid, 2.0, 1.0, tolerance=1e-9)

    monkeypatch.setattr(cli.CHECKS["saturating-bound"], "fn", replacement)
    stdout = io.StringIO()
    cfg = RunConfig(suite="estimates", out=str(tmp_path / "out"))
    assert cli.run(cfg, stdout=stdout, stderr=io.StringIO()) == 1
    assert calls == ["saturating-bound"]
    assert "saturating-bound: FAIL" in stdout.getvalue()


def _child_env(**overrides):
    """This process's environment without the OpenBLAS pin it inherited
    from its own ``import curvlab``, with ``overrides`` on top."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(curvlab.__file__).resolve().parents[1])
    return dict(env, **overrides)


def test_checks_import_leaves_out_cli():
    """Importing the checks loads no cli, and numpy starts no OpenBLAS
    worker thread, because the package pins OpenBLAS before numpy loads."""
    code = ("import os, sys, curvlab.checks; print('curvlab.cli' in sys.modules); "
            "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else '-'); "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    in_cli, threads, pin = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                          text=True, check=True, env=_child_env()).stdout.split()
    assert in_cli == "False"
    if threads != "-":  # no per-thread listing outside Linux
        assert threads == "1"
    assert pin == "1"


# ---------------------------------------------------------------------------
# running suites
# ---------------------------------------------------------------------------


def test_lemmas_suite_green(tmp_path, capsys):
    out = tmp_path / "out"
    status = cli.main(["--suite", "lemmas", "--out", str(out)])
    assert status == 0
    text = capsys.readouterr().out
    for cid in suite_checks("lemmas"):
        assert f"{cid}: PASS" in text
        rep = json.loads((out / f"{cid}.json").read_text())
        assert rep["check"] == cid
        assert rep["passed"] is True


def test_probe_fails_without_affecting_exit(tmp_path, capsys):
    out = tmp_path / "out"
    status = cli.main(["--suite", "estimates", "--out", str(out)])
    assert status == 0
    text = capsys.readouterr().out
    assert "curvature-sum-flat-probe: FAIL (probe)" in text
    rep = json.loads((out / "curvature-sum-flat-probe.json").read_text())
    assert rep["probe"] is True
    assert rep["passed"] is False
    assert rep["slack"] < 0.0


def _read_scan_csv(raw):
    """The rows of a scan table's bytes under its header, as floats."""
    lines = raw.decode("utf-8").splitlines()
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def test_scan_suite_emits_deterministic_tables(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["--suite", "scan", "--out", str(out1), "--seed", "3"]) == 0
    assert cli.main(["--suite", "scan", "--out", str(out2), "--seed", "3"]) == 0
    for cid in suite_checks("scan"):
        csv1 = (out1 / f"{cid}.csv").read_bytes()
        assert csv1 == (out2 / f"{cid}.csv").read_bytes()
        assert b"\r" not in csv1
        assert csv1.startswith(b"R,inf_h1,inf_h2,sum,envelope,slack\n")
        r1 = json.loads((out1 / f"{cid}.json").read_text())
        r2 = json.loads((out2 / f"{cid}.json").read_text())
        table = _read_scan_csv(csv1)
        assert table[:, 0].tolist() == r1["grid"]["R"]
        assert float(np.min(table[:, 5])) == r1["grid"]["min_slack"]
        assert r1["wall_time_s"] > 0 and r2["wall_time_s"] > 0
        r1.pop("wall_time_s"), r2.pop("wall_time_s")
        assert r1 == r2


_WALL_TIME = re.compile(rb'"wall_time_s": [^,}]*')


@pytest.fixture(scope="module")
def counted_full_run(tmp_path_factory):
    """Output directory and solver and trace call counts of one ``--suite
    all`` run."""
    calls = Counter()
    out = tmp_path_factory.mktemp("all")
    with pytest.MonkeyPatch.context() as mp:
        for name in ("minimize_free_boundary", "index_form_trace"):
            real = getattr(checks, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            mp.setattr(checks, name, counted)
        assert cli.run(RunConfig(out=str(out)), stdout=io.StringIO(), stderr=io.StringIO()) == 0
    return out, calls


def test_one_run_solves_the_lens_and_traces_the_slab_once(counted_full_run):
    """sharp-lens and lens-distance share the a = 1 lens solve, and the two
    index-form checks share the slab's cosh-weighted trace."""
    _, calls = counted_full_run
    assert calls == {"minimize_free_boundary": 6, "index_form_trace": 3}


def test_shared_results_write_the_same_reports_as_a_suite_alone(tmp_path, counted_full_run):
    """The checks that read a shared result write the same bytes whether
    their suite runs alone, computing it, or within ``--suite all``."""
    full, _ = counted_full_run
    out = tmp_path / "geodesic"
    assert cli.run(RunConfig(suite="geodesic", out=str(out)),
                   stdout=io.StringIO(), stderr=io.StringIO()) == 0
    for cid in ("lens-distance", "index-form-nonnegative"):
        alone, within = ((d / f"{cid}.json").read_bytes() for d in (out, full))
        assert _WALL_TIME.sub(b"", alone) == _WALL_TIME.sub(b"", within), cid


# one cheap value other than the default for the seed and each grid size
_OTHER_INPUTS = {"seed": 2, "samples": 300, "r_points": 500, "t_points": 50,
                 "scan_points": 5, "n_segments": 128}


def test_other_inputs_cover_every_run_input():
    assert set(_OTHER_INPUTS) == {"seed", *GRID_DEFAULTS}


@pytest.mark.parametrize("key, value", _OTHER_INPUTS.items())
def test_a_run_input_moves_no_report_unrecorded(tmp_path, counted_full_run, key, value):
    """A report whose bytes (``wall_time_s`` masked) change with the seed or
    a grid size has a different ``inputs_digest``: the report records every
    run input it reads. A CSV table counts with its check's report."""
    full, _ = counted_full_run
    out = tmp_path / "out"
    cfg = RunConfig(seed=value, out=str(out)) if key == "seed" else \
        RunConfig(grids={key: value}, out=str(out))
    assert cli.run(cfg, stdout=io.StringIO(), stderr=io.StringIO()) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in full.iterdir())
    moved = {p.stem for p in full.iterdir()
             if _WALL_TIME.sub(b"", p.read_bytes()) != _WALL_TIME.sub(b"", (out / p.name).read_bytes())}
    assert moved, f"no report reads {key}"
    digest = lambda d, cid: json.loads((d / f"{cid}.json").read_text())["inputs_digest"]
    unrecorded = sorted(cid for cid in moved if digest(full, cid) == digest(out, cid))
    assert not unrecorded, f"{key} = {value} moves {unrecorded} without their inputs_digest"


def test_once_shares_a_result_within_a_run_only(tmp_path, monkeypatch):
    """Two contexts of one run share a result; two built directly, or one
    asked for other arguments, compute it again."""
    computed = []

    def compute(x):
        computed.append(x)
        return [x]

    seen = {}

    def check(ctx):
        seen[ctx.cid] = ctx.once(compute, 2.0)
        return build_report(ctx.cid, 0.0, 1.0, tolerance=1e-9)

    monkeypatch.setattr(cli, "CHECKS", {cid: CheckSpec(("lemmas",), check)
                                        for cid in ("first", "second")})
    cfg = RunConfig(suite="lemmas", out=str(tmp_path / "out"))
    assert cli.run(cfg, stdout=io.StringIO(), stderr=io.StringIO()) == 0
    assert computed == [2.0]
    assert seen["first"] is seen["second"]
    first, second = (cli.CheckContext(cfg, cid) for cid in ("first", "second"))
    assert first.once(compute, 2.0) is not second.once(compute, 2.0)
    assert first.once(compute, 2.0) is first.once(compute, 2.0)
    first.once(compute, 3.0)
    assert computed == [2.0, 2.0, 2.0, 3.0]


# ---------------------------------------------------------------------------
# failure modes of the runner
# ---------------------------------------------------------------------------


def _single_check_registry(monkeypatch, fn, cid="fake-check", probe=False):
    monkeypatch.setattr(cli, "CHECKS", {cid: CheckSpec(("lemmas",), fn, probe=probe)})
    return cid


def test_nonconvergence_gives_status_3(tmp_path, monkeypatch):
    def fn(ctx):
        raise NonConvergence("fake-check", "gradient stalled at 1e-3")

    cid = _single_check_registry(monkeypatch, fn)
    cfg = RunConfig(suite="lemmas", out=str(tmp_path / "out"))
    stdout, stderr = io.StringIO(), io.StringIO()
    assert cli.run(cfg, stdout=stdout, stderr=stderr) == 3
    assert cid in stderr.getvalue()
    assert "NONCONVERGED" in stdout.getvalue()


def test_nonconvergence_dominates_failures(tmp_path, monkeypatch):
    def bad(ctx):
        return build_report("bad-check", 2.0, 1.0, tolerance=1e-9)

    def stuck(ctx):
        raise NonConvergence("stuck-check", "no progress")

    monkeypatch.setattr(
        cli,
        "CHECKS",
        {
            "bad-check": CheckSpec(("lemmas",), bad),
            "stuck-check": CheckSpec(("lemmas",), stuck),
        },
    )
    cfg = RunConfig(suite="lemmas", out=str(tmp_path / "out"))
    assert cli.run(cfg, stdout=io.StringIO(), stderr=io.StringIO()) == 3


def test_check_exception_gives_status_1_and_report(tmp_path, monkeypatch):
    def fn(ctx):
        raise ValueError("synthetic breakage")

    cid = _single_check_registry(monkeypatch, fn)
    out = tmp_path / "out"
    cfg = RunConfig(suite="lemmas", out=str(out))
    stdout, stderr = io.StringIO(), io.StringIO()
    assert cli.run(cfg, stdout=stdout, stderr=stderr) == 1
    assert "synthetic breakage" in stderr.getvalue()
    rep = json.loads((out / f"{cid}.json").read_text())
    assert rep["passed"] is False
    assert "synthetic breakage" in rep["grid"]["error"]


def test_probe_that_raises_still_fails_the_run(tmp_path, monkeypatch):
    def fn(ctx):
        raise ValueError("synthetic breakage")

    cid = _single_check_registry(monkeypatch, fn, probe=True)
    out = tmp_path / "out"
    cfg = RunConfig(suite="lemmas", out=str(out))
    stdout = io.StringIO()
    assert cli.run(cfg, stdout=stdout, stderr=io.StringIO()) == 1
    assert f"{cid}: ERROR" in stdout.getvalue()
    rep = json.loads((out / f"{cid}.json").read_text())
    assert rep["probe"] is False
    assert rep["passed"] is False


def test_registry_marks_a_failing_probe(tmp_path, monkeypatch):
    def fn(ctx):
        return build_report(ctx.cid, 2.0, 1.0, tolerance=1e-9)

    cid = _single_check_registry(monkeypatch, fn, probe=True)
    out = tmp_path / "out"
    cfg = RunConfig(suite="lemmas", out=str(out))
    stdout = io.StringIO()
    assert cli.run(cfg, stdout=stdout, stderr=io.StringIO()) == 0
    assert f"{cid}: FAIL (probe)" in stdout.getvalue()
    rep = json.loads((out / f"{cid}.json").read_text())
    assert rep["probe"] is True
    assert rep["passed"] is False


def test_report_that_is_not_json_gives_an_error_report(tmp_path, monkeypatch):
    """A numpy scalar in a grid is not JSON: that check gets an ERROR report
    naming the type, and the run goes on to the next check."""
    def bad(ctx):
        return build_report(ctx.cid, 0.0, 1.0, tolerance=1e-9, grid={"count": np.int64(3)})

    def good(ctx):
        return build_report(ctx.cid, 0.0, 1.0, tolerance=1e-9)

    monkeypatch.setattr(cli, "CHECKS", {"bad-check": CheckSpec(("lemmas",), bad),
                                        "good-check": CheckSpec(("lemmas",), good)})
    out = tmp_path / "out"
    stdout = io.StringIO()
    assert cli.run(RunConfig(suite="lemmas", out=str(out)), stdout=stdout,
                   stderr=io.StringIO()) == 1
    lines = stdout.getvalue().splitlines()
    assert lines[0].startswith("bad-check: ERROR") and lines[1].startswith("good-check: PASS")
    rep = json.loads((out / "bad-check.json").read_text())
    assert rep["passed"] is False
    assert rep["grid"]["error"].startswith("TypeError: ") and "int64" in rep["grid"]["error"]
    assert json.loads((out / "good-check.json").read_text())["passed"] is True


def test_report_id_mismatch_is_flagged(tmp_path, monkeypatch):
    def fn(ctx):
        return build_report("some-other-id", 0.0, 1.0, tolerance=1e-9)

    _single_check_registry(monkeypatch, fn)
    cfg = RunConfig(suite="lemmas", out=str(tmp_path / "out"))
    stderr = io.StringIO()
    assert cli.run(cfg, stdout=io.StringIO(), stderr=stderr) == 1
    assert "does not match" in stderr.getvalue()


def test_ratio_report_fails_on_nan_error():
    rep = checks._ratio_report("x", {"a": (float("nan"), 1.0), "b": (0.5, 1.0)})
    assert not rep.passed
    assert rep.grid["non_finite_parts"] == ["a"]
    finite = checks._ratio_report("x", {"b": (0.5, 1.0)})
    assert finite.passed
    assert "non_finite_parts" not in finite.grid


def test_fd_law_check_fails_on_nan_sample():
    # the NaN is neither the first sample nor in the first space, where a
    # plain max() would drop it
    errors = iter([[1e-6, 2e-6, 1e-6], [float("nan"), 3e-6, 1e-6]])

    def sample_errors(rng, space, samples):
        return np.array(next(errors))

    ctx = cli.CheckContext(RunConfig(grids={"samples": 3}), "fake-law")
    spaces = [("first", SpaceForm(2, 0.0)), ("second", SpaceForm(2, 1.0))]
    rep = checks._fd_law_check(ctx, sample_errors, spaces)
    assert not rep.passed
    assert rep.grid["non_finite_parts"] == ["fd_relative_error"]
    assert rep.grid["per_space"]["first"] == 2e-6
    assert np.isnan(rep.grid["per_space"]["second"])


@pytest.mark.parametrize(
    "cid", ["connection-law-fd", "sectional-law-fd", "ricci-law-fd", "mean-curvature-law-fd"]
)
def test_fd_law_metric_calls_do_not_grow_with_samples(monkeypatch, cid):
    """Each space's samples go through the oracle as one stack, so the
    metric calls per space are the same for 3 samples and for 30."""
    real = checks.conformal.coordinate_metric

    def calls_per_space(samples):
        calls = {}

        def counting(space, u):
            metric = real(space, u)

            def counted(x):
                calls[space] = calls.get(space, 0) + 1
                return metric(x)

            return counted

        monkeypatch.setattr(checks.conformal, "coordinate_metric", counting)
        ctx = cli.CheckContext(RunConfig(grids={"samples": samples}), cid)
        assert cli.CHECKS[cid].fn(ctx).passed
        return calls

    few = calls_per_space(3)
    assert few and few == calls_per_space(30)


class _CountingRng:
    """Generator proxy that counts the calls of its methods."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize(
    "cid",
    ["connection-law-fd", "sectional-law-fd", "ricci-law-fd", "mean-curvature-law-fd",
     "poincare-recovery"],
)
def test_generator_calls_do_not_grow_with_samples(monkeypatch, cid):
    """Each quantity is drawn as one stack, so a check makes as many
    generator calls for 3 samples as for 60 (poincare-recovery draws
    max(8, samples // 5) points per dimension, so it needs more than 40 to
    draw more than at 3)."""
    real = cli.CheckContext.rng

    def generator_calls(samples):
        proxies = []

        def counting(self):
            proxies.append(_CountingRng(real(self)))
            return proxies[-1]

        monkeypatch.setattr(cli.CheckContext, "rng", counting)
        ctx = cli.CheckContext(RunConfig(grids={"samples": samples}), cid)
        assert cli.CHECKS[cid].fn(ctx).passed
        return sum(p.calls for p in proxies)

    few = generator_calls(3)
    assert few > 0 and few == generator_calls(60)


def test_poincare_recovery_draws_stay_within_radius(monkeypatch):
    """Every point handed to the frame builder lies within radius 0.85, up to
    the rounding of the rescale, and the rescale is exercised."""
    drawn = []
    real = checks.gram_schmidt_frame

    def recording(space, x, seed=None):
        drawn.append(np.linalg.norm(x, axis=-1))
        return real(space, x, seed=seed)

    monkeypatch.setattr(checks, "gram_schmidt_frame", recording)
    for seed in (1, 2, 3):
        ctx = cli.CheckContext(RunConfig(seed=seed, grids={"samples": 400}), "poincare-recovery")
        assert cli.CHECKS["poincare-recovery"].fn(ctx).passed
    r = np.concatenate(drawn)
    assert r.size == 3 * 3 * 80
    assert np.all(r <= 0.85 * (1.0 + 4.0 * np.finfo(float).eps))
    assert np.any(np.abs(r - 0.85) <= 1e-15)


def test_fd_profile_derivatives_match_the_per_point_stencils():
    """Bitwise against one Fornberg stencil and one dot product per point,
    on the log-graph height and the trumpet profile as the checks use them."""
    graph = example_fixture("log-graph").pieces[0]
    xs = np.geomspace(10.0, 1.0e4, 50)
    ts = np.linspace(0.0, 0.9, 50, endpoint=False)
    cases = [
        (lambda t: graph.chart_points(t)[..., 1], xs, 3e-3 * xs),
        (lambda t: np.exp(1.0 / (1.0 - t)), ts, 1e-2 * (1.0 - ts) ** 2),
    ]
    offsets = np.arange(9) - 4
    for height, pts, steps in cases:
        d1, d2 = checks._fd_profile_derivatives(height, pts, steps)
        for i, (t0, h) in enumerate(zip(pts, steps)):
            grid = t0 + offsets * h
            vals = height(grid)
            assert d1[i] == float(checks.fornberg_weights(grid, t0, 1) @ vals)
            assert d2[i] == float(checks.fornberg_weights(grid, t0, 2) @ vals)


def _nan_ricci(monkeypatch):
    monkeypatch.setattr(checks.conformal, "ricci_formula", lambda *a, **k: float("nan"))


def _nan_min_slack(monkeypatch):
    real = checks.crucial_bounds_scan

    def scan(*args, **kwargs):
        out = real(*args, **kwargs)
        for check in out.checks.values():
            check.min_slack = float("nan")
        return out

    monkeypatch.setattr(checks, "crucial_bounds_scan", scan)


def _nan_psi_at_end(monkeypatch):
    real = CoshWeight.psi

    def psi(self, s):
        return np.where(np.asarray(s) == self.L, np.nan, real(self, s))

    monkeypatch.setattr(CoshWeight, "psi", psi)


@pytest.mark.parametrize(
    "cid, inject, part",
    [
        ("poincare-recovery", _nan_ricci, "ricci_constant_error"),
        ("crucial-bounds-flat", _nan_min_slack, "negative_slack"),
        ("phi-calculus", _nan_psi_at_end, "endpoint_error"),
    ],
    ids=["poincare-recovery", "crucial-bounds-flat", "phi-calculus"],
)
def test_nan_in_check_accumulator_fails_report(monkeypatch, cid, inject, part):
    # Python's max() and min() drop a NaN, which let these reports pass with error 0
    inject(monkeypatch)
    ctx = cli.CheckContext(RunConfig(grids={"r_points": 20, "t_points": 10}), cid)
    rep = cli.CHECKS[cid].fn(ctx)
    assert not rep.passed
    assert part in rep.grid["non_finite_parts"]


def test_nonconvergence_names_level_and_stop_reason():
    res = SimpleNamespace(converged=False, level_sizes=[32, 64], level_iterations=[5, 200],
                          level_stops=["gtol", "max-iter"], grad_norm=1e-3)
    with pytest.raises(NonConvergence, match=r"a=1: level 1 \(64 segments\) stopped on max-iter"):
        checks._require_converged("fake-check", res, where="a=1: ")


def test_unconverged_annulus_infimum_fails_scan_with_named_reason(tmp_path, monkeypatch):
    infima = estimates.infima_over_annuli

    def unconverged(piece, r_lo, r_hi):
        return [dataclasses.replace(res, converged=False, missed=(0.5, 0.625))
                for res in infima(piece, r_lo, r_hi)]

    monkeypatch.setattr(estimates, "infima_over_annuli", unconverged)
    with pytest.raises(NonConvergence, match=r"^log-graph: annulus infimum over \(18\.1994, 54\.5982\): "
                                             r"chart bracket \(0\.5, 0\.625\) hit the step cap"):
        estimates.annulus_infima(example_fixture("log-graph"), np.exp(4.0) / 3.0, np.exp(4.0))
    with pytest.raises(NonConvergence, match=r"^log-graph: annulus infimum over \(0, 403\.429\)"):
        checks._check_curvature_sum_flat(cli.CheckContext(RunConfig(), "curvature-sum-flat"))
    out = tmp_path / "out"
    stdout = io.StringIO()
    assert cli.run(RunConfig(suite="scan", out=str(out)), stdout=stdout, stderr=io.StringIO()) == 3
    assert "scan-log-graph: NONCONVERGED (log-graph: annulus infimum over (" in stdout.getvalue()
    assert not (out / "scan-log-graph.json").exists()


def test_geodesic_suite_runs_without_scipy(tmp_path):
    code = ("import os, sys, curvlab.cli; "
            f"status = curvlab.cli.main(['--suite', 'geodesic', '--out', {str(tmp_path)!r}]); "
            "print(status, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "os.environ['OPENBLAS_NUM_THREADS'])")
    # A caller's OpenBLAS thread count outlives the package's pin.
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=_child_env(OPENBLAS_NUM_THREADS="2")).stdout
    assert out.splitlines()[-1] == "0 [] 2"
    assert (tmp_path / "lens-distance.json").is_file()


def test_serial_run_freezes_import_heap_and_loads_no_pool_or_masked_arrays(tmp_path):
    """``import curvlab.cli`` freezes its heap, so exit's GC skips it; a run
    loads neither numpy.ma nor concurrent.futures."""
    code = ("import gc, sys, curvlab.cli; "
            "print('guard', gc.get_freeze_count() > 0); "
            "lazy = lambda: sorted(m for m in sys.modules "
            "if (m + '.').startswith(('numpy.ma.', 'concurrent.futures.'))); "
            f"s1 = curvlab.cli.main(['--suite', 'all', '--workers', '1', '--out', {str(tmp_path / 'w1')!r}]); "
            "print('guard', s1, lazy())")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=_child_env()).stdout.splitlines()
    assert [line for line in out if line.startswith("guard ")] == ["guard True", "guard 0 []"]
    names = sorted(p.name for p in (tmp_path / "w1").iterdir())
    assert len(names) == len(cli.CHECKS) + len(suite_checks("scan"))


def test_every_library_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    root = Path(curvlab.__file__).resolve().parents[2]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    imported = {}
    for path in sorted(Path(curvlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    third_party = {m: f for m, f in imported.items()
                   if m not in sys.stdlib_module_names and m != "curvlab"}
    assert "numpy" in third_party
    undeclared = {m: f for m, f in third_party.items() if m.lower() not in declared}
    assert not undeclared, f"imported by src/curvlab but not in [project] dependencies: {undeclared}"


def test_saturating_bound_report_carries_grid():
    rep = checks._check_saturating_bound(cli.CheckContext(RunConfig(), "saturating-bound"))
    assert rep.passed
    assert np.isclose(rep.grid["anchor_distance"], 4.0 * np.arctanh(np.sqrt(2.0) - 1.0))
    assert abs(rep.grid["saturation_value"] - 4.0) < 1e-3


def test_emit_scan_csv_without_data_writes_header(tmp_path, monkeypatch):
    """A scan check that raises leaves a header-only table, and the run
    says so on its own stderr in a line that names no source file."""
    path = tmp_path / "empty.csv"
    emit_scan_csv(None, path)
    assert path.read_text(encoding="utf-8") == "R,inf_h1,inf_h2,sum,envelope,slack\n"

    def fn(ctx):
        raise ValueError("synthetic breakage")

    monkeypatch.setattr(cli, "CHECKS", {"fake-scan": CheckSpec(("scan",), fn)})
    out = tmp_path / "out"
    stderr = io.StringIO()
    assert cli.run(RunConfig(suite="scan", out=str(out)), stdout=io.StringIO(), stderr=stderr) == 1
    assert stderr.getvalue() == (f"no scan data, wrote header only: {out / 'fake-scan.csv'}\n"
                                 "check fake-scan raised: ValueError: synthetic breakage\n")
    assert (out / "fake-scan.csv").read_text(encoding="utf-8") == cli.SCAN_CSV_HEADER


def test_decay_scan_csv_roundtrip(tmp_path):
    Rs = np.exp(np.linspace(4.0, 7.0, 4))
    ctx = cli.CheckContext(RunConfig(), "scan-log-graph")
    _, columns = checks._check_scan_inverse_R(ctx, "log-graph", Rs)
    path = tmp_path / "scan.csv"
    emit_scan_csv(columns, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").splitlines()[0] == "R,inf_h1,inf_h2,sum,envelope,slack"
    back = _read_scan_csv(raw)
    assert back.shape == (len(Rs), 6)
    assert np.array_equal(back[:, 0], Rs)
    for k, column in enumerate(columns):
        assert np.array_equal(back[:, k], column)
