"""Tests for the batch harness: configuration handling, exit codes,
report emission, and determinism."""

import argparse
import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from curvlab import cli
from curvlab.cli import (
    CheckSpec,
    ConfigError,
    NonConvergence,
    RunConfig,
    emit_scan_csv,
    load_config,
    parse_config,
    suite_checks,
)
from curvlab.report import build_report
from curvlab.spaceform import SpaceForm
from curvlab.variation import TestFunction


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
    assert cfg.tolerances["fd_rel"] == 1e-4
    assert cfg.grids["samples"] == 50


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[run]\nsuite = lemmas\nseed = 9\nworkers = 2\n"
        "[tolerances]\nfd_rel = 2e-4\n"
        "[grids]\nsamples = 20\nr_exp_hi = 8\n"
        "[fixture]\nname = poincare-circles\na = 2.0\n",
        encoding="utf-8",
    )
    cfg = parse_config(path)
    assert cfg.suite == "lemmas"
    assert cfg.seed == 9
    assert cfg.workers == 2
    assert cfg.tolerances["fd_rel"] == 2e-4
    assert cfg.tolerances["default"] == 1e-9  # untouched default
    assert cfg.grids["samples"] == 20
    assert cfg.grids["r_exp_hi"] == 8.0
    assert cfg.fixture == {"name": "poincare-circles", "a": 2.0}


@pytest.mark.parametrize(
    "body",
    [
        "[run]\nfrobnicate = 1\n",
        "[bogus]\nx = 1\n",
        "[tolerances]\ndefault = -1\n",
        "[tolerances]\nmystery = 1e-3\n",
        "[grids]\nsamples = 2.5\n",
        "[grids]\nunknown_grid = 7\n",
        "[grids]\nr_exp_lo = 11\n",
        "[run]\nsuite = nonsense\n",
        "[run]\nworkers = 0\n",
        "[run]\nseed = not-a-number\n",
        "[fixture]\nname = klein-bottle\n",
        "[fixture]\nwhatever = 1\n",
        "no sections at all [",
    ],
)
def test_bad_config_rejected(tmp_path, body):
    path = tmp_path / "bad.ini"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_missing_config_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.ini")


def test_env_overrides_file_and_flags_override_env(tmp_path, monkeypatch):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nsuite = lemmas\nseed = 1\n", encoding="utf-8")
    monkeypatch.setenv("CURVLAB_SUITE", "scan")
    monkeypatch.setenv("CURVLAB_SEED", "5")
    cfg = load_config(_args(config=str(path)))
    assert cfg.suite == "scan"
    assert cfg.seed == 5
    cfg = load_config(_args(config=str(path), suite="estimates", seed=12))
    assert cfg.suite == "estimates"
    assert cfg.seed == 12


def test_env_config_path(tmp_path, monkeypatch):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nsuite = conformal\n", encoding="utf-8")
    monkeypatch.setenv("CURVLAB_CONFIG", str(path))
    cfg = load_config(_args())
    assert cfg.suite == "conformal"


def test_bad_env_integer_rejected(monkeypatch):
    monkeypatch.setenv("CURVLAB_SEED", "two")
    with pytest.raises(ConfigError):
        load_config(_args())


def test_config_error_exit_status_and_no_outputs(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nfrobnicate = 1\n", encoding="utf-8")
    out = tmp_path / "out"
    status = cli.main(["--config", str(path), "--out", str(out)])
    assert status == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


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
    ctx_a = cli.CheckContext(RunConfig(seed=1))
    ctx_b = cli.CheckContext(RunConfig(seed=2))
    draw = lambda ctx, cid: ctx.rng(cid).normal(size=4)
    assert np.array_equal(draw(ctx_a, "x"), draw(ctx_a, "x"))
    assert not np.array_equal(draw(ctx_a, "x"), draw(ctx_a, "y"))
    assert not np.array_equal(draw(ctx_a, "x"), draw(ctx_b, "x"))


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
        assert r1["wall_time_s"] > 0 and r2["wall_time_s"] > 0
        r1.pop("wall_time_s"), r2.pop("wall_time_s")
        assert r1 == r2


def test_workers_do_not_change_reports(tmp_path):
    outs = []
    for tag, workers in (("serial", "1"), ("pool", "4")):
        out = tmp_path / tag
        assert cli.main(
            ["--suite", "estimates", "--out", str(out), "--workers", workers]
        ) == 0
        outs.append(out)
    for cid in suite_checks("estimates"):
        r1 = json.loads((outs[0] / f"{cid}.json").read_text())
        r2 = json.loads((outs[1] / f"{cid}.json").read_text())
        r1.pop("wall_time_s"), r2.pop("wall_time_s")
        assert r1 == r2


# ---------------------------------------------------------------------------
# failure modes of the runner
# ---------------------------------------------------------------------------


def _single_check_registry(monkeypatch, fn, cid="fake-check"):
    monkeypatch.setattr(cli, "CHECKS", {cid: CheckSpec(("lemmas",), fn)})
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


def test_report_id_mismatch_is_flagged(tmp_path, monkeypatch):
    def fn(ctx):
        return build_report("some-other-id", 0.0, 1.0, tolerance=1e-9)

    _single_check_registry(monkeypatch, fn)
    cfg = RunConfig(suite="lemmas", out=str(tmp_path / "out"))
    stderr = io.StringIO()
    assert cli.run(cfg, stdout=io.StringIO(), stderr=stderr) == 1
    assert "does not match" in stderr.getvalue()


def test_ratio_report_fails_on_nan_error():
    rep = cli._ratio_report("x", {"a": (float("nan"), 1.0), "b": (0.5, 1.0)})
    assert not rep.passed
    assert rep.grid["non_finite_parts"] == ["a"]
    finite = cli._ratio_report("x", {"b": (0.5, 1.0)})
    assert finite.passed
    assert "non_finite_parts" not in finite.grid


def test_fd_law_check_fails_on_nan_sample():
    # the NaN is neither the first sample nor in the first space, where a
    # plain max() would drop it
    errors = iter([1e-6, 2e-6, 1e-6, float("nan"), 3e-6, 1e-6])

    def sample_error(rng, space):
        return next(errors)

    ctx = cli.CheckContext(RunConfig(grids={"samples": 3}))
    spaces = [("first", SpaceForm(2, 0.0)), ("second", SpaceForm(2, 1.0))]
    rep = cli._fd_law_check(ctx, "fake-law", spaces, sample_error)
    assert not rep.passed
    assert rep.grid["non_finite_parts"] == ["fd_relative_error"]
    assert rep.grid["per_space"]["first"] == 2e-6
    assert np.isnan(rep.grid["per_space"]["second"])


def _nan_ricci(monkeypatch):
    monkeypatch.setattr(cli.conformal, "ricci_formula", lambda *a, **k: float("nan"))


def _nan_min_slack(monkeypatch):
    real = cli.crucial_bounds_scan

    def scan(*args, **kwargs):
        out = real(*args, **kwargs)
        for check in out.checks.values():
            check.min_slack = float("nan")
        return out

    monkeypatch.setattr(cli, "crucial_bounds_scan", scan)


def _nan_psi_at_end(monkeypatch):
    real = TestFunction.psi

    def psi(self, s):
        return np.where(np.asarray(s) == self.L, np.nan, real(self, s))

    monkeypatch.setattr(TestFunction, "psi", psi)


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
    ctx = cli.CheckContext(RunConfig(grids={"r_points": 20, "t_points": 10}))
    rep = cli.CHECKS[cid].fn(ctx)
    assert not rep.passed
    assert part in rep.grid["non_finite_parts"]


def test_nonconvergence_names_level_and_stop_reason():
    res = SimpleNamespace(converged=False, level_sizes=[32, 64], level_iterations=[5, 200],
                          level_stops=["gtol", "max-iter"], grad_norm=1e-3)
    with pytest.raises(NonConvergence, match=r"a=1: level 1 \(64 segments\) stopped on max-iter"):
        cli._require_converged("fake-check", res, where="a=1: ")


def test_saturating_bound_report_carries_grid():
    rep = cli._check_saturating_bound(cli.CheckContext(RunConfig()))
    assert rep.passed
    assert np.isclose(rep.grid["anchor_distance"], 4.0 * np.arctanh(np.sqrt(2.0) - 1.0))
    assert abs(rep.grid["saturation_value"] - 4.0) < 1e-3


def test_emit_scan_csv_without_data_writes_header(tmp_path):
    path = tmp_path / "empty.csv"
    with pytest.warns(UserWarning):
        emit_scan_csv(None, path)
    assert path.read_text(encoding="utf-8") == "R,inf_h1,inf_h2,sum,envelope,slack\n"
