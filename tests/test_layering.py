"""Static guard on where check ids and reports live.

Only ``checks`` may spell a check id, or a prefix of one that ends in ``-``
(as in ``"scan-"``): the library layers return measurements, and ``checks``
turns them into the report filed under the id.
Only ``report`` (which defines it), ``checks`` (which builds every check's
report) and ``cli`` (which builds the runner's ERROR report) may name
``VerificationReport``. Pass allowances are fixed in ``checks`` as well:
outside ``report`` and ``checks``, a ``tolerance=`` keyword argument must be
a plain name imported from ``checks``, so no run setting can move one.
No module imports ``concurrent``, ``threading`` or ``multiprocessing``: a
run is single-threaded, which is what lets its checks share results
through a memo without a lock. Only the package's ``__init__``, which pins
OpenBLAS to one thread before numpy loads, touches the process
environment: a run is configured by its flags and config file alone.
Only ``cli`` names ``open``, ``write_text`` or ``write_bytes``: it alone
reads the config file and writes the outputs, the scan tables included.
``checks`` never reads a context's ``cfg``: the seed and grid sizes reach a
check only through ``ctx.rng`` and ``ctx.grid``, which record them as the
report's ``inputs``.
The library entry points take no parameter that every caller leaves at one
value (a finite-difference step, a ladder start, an iteration cap, a grid
size): each is a module constant, and their signatures are pinned here.
"""

import ast
import inspect
from pathlib import Path

import curvlab
from curvlab import checks, curves, fdcheck, geodesic, variation
from curvlab.checks import CHECKS

SRC = Path(curvlab.__file__).resolve().parent

ID_OWNERS = frozenset({"checks"})
REPORT_NAMES = frozenset({"VerificationReport"})
REPORT_USERS = frozenset({"report", "checks", "cli"})
ALLOWANCE_OWNERS = frozenset({"report", "checks"})
THREAD_MODULES = frozenset({"concurrent", "threading", "multiprocessing"})
ENV_OWNERS = frozenset({"__init__"})
ENV_NAMES = frozenset({"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"})
FILE_OWNERS = frozenset({"cli"})
FILE_NAMES = frozenset({"open", "write_text", "write_bytes"})


def _spelled(node):
    """The name a node spells: a plain name, an attribute or an import."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _spells_id(value, ids):
    """A check id, or a prefix of one that ends in '-'."""
    return isinstance(value, str) and (
        value in ids or (value.endswith("-") and any(i.startswith(value) for i in ids)))


def violations(source_dir=SRC, ids=tuple(CHECKS)):
    """Sorted (module, line, what) of every check-id string literal (or
    id prefix ending in '-') outside ``ID_OWNERS`` and every report name
    outside ``REPORT_USERS``."""
    ids = frozenset(ids)
    found = []
    for path in sorted(source_dir.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if mod not in ID_OWNERS:
            found += [(mod, node.lineno, node.value) for node in ast.walk(tree)
                      if isinstance(node, ast.Constant) and _spells_id(node.value, ids)]
        if mod not in REPORT_USERS:
            found += [(mod, node.lineno, _spelled(node)) for node in ast.walk(tree)
                      if _spelled(node) in REPORT_NAMES]
    return sorted(found)


def _from_checks(tree):
    """Names a module imports from ``checks``, relatively or absolutely."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module, node.level) in {("checks", 1), ("curvlab.checks", 0)}
            for alias in node.names}


def allowance_violations(source_dir=SRC):
    """Sorted (module, line, value) of every ``tolerance=`` keyword argument
    outside ``ALLOWANCE_OWNERS`` whose value is not a name imported from
    ``checks``."""
    found = []
    for path in sorted(source_dir.glob("*.py")):
        mod = path.stem
        if mod in ALLOWANCE_OWNERS:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fixed = _from_checks(tree)
        found += [(mod, node.value.lineno, ast.unparse(node.value)) for node in ast.walk(tree)
                  if isinstance(node, ast.keyword) and node.arg == "tolerance"
                  and not (isinstance(node.value, ast.Name) and node.value.id in fixed)]
    return sorted(found)


def thread_imports(source_dir=SRC):
    """Sorted (module, line, name) of every absolute import of a package in
    ``THREAD_MODULES``, at any depth of the module."""
    found = []
    for path in sorted(source_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.stem, node.lineno, name) for name in names
                      if name.split(".")[0] in THREAD_MODULES]
    return sorted(found)


def environment_access(source_dir=SRC):
    """Sorted (module, line, name) of every ``os`` environment accessor in
    ``ENV_NAMES`` that a module outside ``ENV_OWNERS`` imports from ``os``
    or reads off ``os`` (under any alias)."""
    found = []
    for path in sorted(source_dir.glob("*.py")):
        if path.stem in ENV_OWNERS:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names if alias.name == "os"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os" and node.level == 0:
                names = [alias.name for alias in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                names = [node.attr]
            else:
                continue
            found += [(path.stem, node.lineno, name) for name in names if name in ENV_NAMES]
    return sorted(found)


def file_access(source_dir=SRC):
    """Sorted (module, line, name) of every name, attribute or import in
    ``FILE_NAMES`` in a module outside ``FILE_OWNERS``."""
    found = []
    for path in sorted(source_dir.glob("*.py")):
        if path.stem in FILE_OWNERS:
            continue
        found += [(path.stem, node.lineno, _spelled(node))
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if _spelled(node) in FILE_NAMES]
    return sorted(found)


def config_reads(path=SRC / "checks.py"):
    """Sorted (line, expression) of every ``cfg`` attribute, or ``'cfg'``
    string such as a ``getattr`` takes, in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(tree)
                  if (isinstance(node, ast.Attribute) and node.attr == "cfg")
                  or (isinstance(node, ast.Constant) and node.value == "cfg"))


def test_check_ids_and_reports_live_in_checks():
    # a renamed owner would silently drop out of the allowlists
    assert ID_OWNERS | REPORT_USERS <= {path.stem for path in SRC.glob("*.py")}
    bad = violations()
    assert not bad, f"check ids or report builders outside their owners: {bad}"


def test_guard_flags_a_planted_id_and_report_import(tmp_path):
    """An id literal, an id prefix ending in '-' and a report import in a
    library module are flagged; the same in ``checks``, a mere mention in a
    docstring, a prefix without the '-' and a '-'-ended string that starts
    no id are not."""
    (tmp_path / "lib.py").write_text(
        '"""Mentions demo-check inside a longer docstring."""\n'
        "from .report import VerificationReport\n"
        "def f():\n    return VerificationReport('demo-check', 0.0, 1.0, tolerance=1e-9)\n"
        "def g(cid):\n"
        "    return cid.startswith('scan-') or cid.startswith('scan') or cid == 'log-'\n",
        encoding="utf-8",
    )
    (tmp_path / "checks.py").write_text(
        "from .report import VerificationReport\n"
        "CHECKS = {'demo-check': None, 'scan-demo': None}\n"
        "SCANS = [c for c in CHECKS if c.startswith('scan-')]\n",
        encoding="utf-8",
    )
    assert violations(tmp_path, ids=("demo-check", "scan-demo")) == [
        ("lib", 2, "VerificationReport"), ("lib", 4, "VerificationReport"),
        ("lib", 4, "demo-check"),
        ("lib", 6, "scan-"),
    ]


def test_allowances_live_in_checks():
    assert ALLOWANCE_OWNERS <= {path.stem for path in SRC.glob("*.py")}
    bad = allowance_violations()
    assert not bad, f"pass allowances set outside checks: {bad}"


def test_guard_flags_a_planted_allowance(tmp_path):
    """A literal, a config lookup and a local name are flagged as
    ``tolerance=`` values; a name imported from ``checks`` and anything in
    ``checks`` itself are not."""
    (tmp_path / "runner.py").write_text(
        "from .checks import SLACK_FLOOR\n"
        "from .report import VerificationReport\n"
        "FLOOR = 1e-9\n"
        "def f(cfg):\n"
        "    VerificationReport('x', 0.0, 1.0, tolerance=SLACK_FLOOR)\n"
        "    VerificationReport('x', 0.0, 1.0, tolerance=1e-9)\n"
        "    VerificationReport('x', 0.0, 1.0, tolerance=cfg.tolerances['default'])\n"
        "    VerificationReport('x', 0.0, 1.0, tolerance=FLOOR)\n",
        encoding="utf-8",
    )
    (tmp_path / "checks.py").write_text(
        "SLACK_FLOOR = 1e-9\n"
        "def g(ctx):\n    return VerificationReport('x', 0.0, 1.0, tolerance=ctx.tol('default'))\n",
        encoding="utf-8",
    )
    assert allowance_violations(tmp_path) == [
        ("runner", 6, "1e-09"),
        ("runner", 7, "cfg.tolerances['default']"),
        ("runner", 8, "FLOOR"),
    ]


def test_runs_stay_single_threaded():
    bad = thread_imports()
    assert not bad, f"thread or process modules imported under src/: {bad}"


def test_guard_flags_a_planted_thread_import(tmp_path):
    """Plain, dotted, aliased and function-level imports of the three
    packages are flagged; a docstring mention, a relative import and a
    package that merely shares a prefix are not."""
    (tmp_path / "runner.py").write_text(
        '"""Says threading and concurrent.futures in a docstring."""\n'
        "import threading\n"
        "import os, multiprocessing.pool as mp\n"
        "from .concurrent import helper\n"
        "import threadpoolctl\n"
        "def run(jobs):\n"
        "    from concurrent.futures import ThreadPoolExecutor\n"
        "    return ThreadPoolExecutor, jobs\n",
        encoding="utf-8",
    )
    assert thread_imports(tmp_path) == [
        ("runner", 2, "threading"),
        ("runner", 3, "multiprocessing.pool"),
        ("runner", 7, "concurrent.futures"),
    ]


def test_only_the_package_init_reads_the_environment():
    assert ENV_OWNERS <= {path.stem for path in SRC.glob("*.py")}
    bad = environment_access()
    assert not bad, f"environment read or written outside {sorted(ENV_OWNERS)}: {bad}"


def test_guard_flags_a_planted_environment_access(tmp_path):
    """Reads and writes through ``os``, an alias of it and a name imported
    from it are flagged; ``os.path``, a docstring mention, another object's
    ``environ`` and anything in ``__init__`` are not."""
    (tmp_path / "runner.py").write_text(
        '"""Reads CURVLAB_SUITE through os.environ, says the docstring."""\n'
        "import os\n"
        "import os as system\n"
        "from os import getenv, path\n"
        "def settings(cfg):\n"
        "    suite = os.environ.get('CURVLAB_SUITE')\n"
        "    system.putenv('CURVLAB_SEED', '1')\n"
        "    return suite, os.path.join('a', 'b'), cfg.environ, path\n",
        encoding="utf-8",
    )
    (tmp_path / "__init__.py").write_text(
        "import os\nos.environ.setdefault('OPENBLAS_NUM_THREADS', '1')\n", encoding="utf-8")
    assert environment_access(tmp_path) == [
        ("runner", 4, "getenv"),
        ("runner", 6, "environ"),
        ("runner", 7, "putenv"),
    ]


def test_only_cli_reads_or_writes_files():
    assert FILE_OWNERS <= {path.stem for path in SRC.glob("*.py")}
    bad = file_access()
    assert not bad, f"files opened or written outside {sorted(FILE_OWNERS)}: {bad}"


def test_guard_flags_a_planted_file_write(tmp_path):
    """The builtin ``open``, ``Path.write_text``, ``write_bytes`` and an
    imported ``open`` are flagged; a docstring mention, a name that merely
    contains one and anything in ``cli`` are not."""
    (tmp_path / "lib.py").write_text(
        '"""Says open and write_text in a docstring."""\n'
        "from io import open as io_open\n"
        "def save(path, text, blob):\n"
        "    with open(path, 'w') as f:\n"
        "        f.write(text)\n"
        "    path.write_text(text)\n"
        "    path.write_bytes(blob)\n"
        "    return is_open(path), path.opened\n",
        encoding="utf-8",
    )
    (tmp_path / "cli.py").write_text(
        "from pathlib import Path\nPath('out.csv').write_text('R\\n')\n", encoding="utf-8")
    assert file_access(tmp_path) == [
        ("lib", 2, "open"), ("lib", 4, "open"), ("lib", 6, "write_text"),
        ("lib", 7, "write_bytes"),
    ]


def test_checks_read_run_inputs_only_through_the_recording_accessors():
    bad = config_reads()
    assert not bad, f"checks reads the run config past ctx.rng and ctx.grid: {bad}"


def test_guard_flags_a_planted_config_read(tmp_path):
    """``cfg`` read off any name and a ``getattr`` of it are flagged; a
    docstring mention, a parameter named ``cfg`` and ``ctx.grid`` are not."""
    (tmp_path / "checks.py").write_text(
        '"""Mentions ctx.cfg.seed in a docstring."""\n'
        "def check(ctx, cfg):\n"
        "    seed = ctx.cfg.seed\n"
        "    n = context.cfg.grids['samples']\n"
        "    other = getattr(ctx, 'cfg')\n"
        "    return cfg, ctx.grid('samples'), ctx.config, seed, n, other\n",
        encoding="utf-8",
    )
    assert config_reads(tmp_path / "checks.py") == [
        (3, "ctx.cfg"), (4, "context.cfg"), (5, "'cfg'")]


def test_only_cli_names_the_collector():
    """``cli`` alone holds the collector off while it imports and freezes
    the import heap; no other module names ``gc``."""
    owners = {path.stem for path in SRC.glob("*.py")
              if any(_spelled(node) == "gc"
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))}
    assert owners == {"cli"}


# parameters of each entry point, with the defaults a caller may leave out
SIGNATURES = {
    fdcheck.christoffels_fd: "metric, x",
    fdcheck.riemann_fd: "metric, x",
    fdcheck._riemann_and_metric: "metric, x",
    fdcheck.sectional_fd: "metric, x, X, Y",
    fdcheck.ricci_fd: "metric, x",
    fdcheck.ricci_quadratic_fd: "metric, x, X",
    fdcheck.parametric_mean_curvature: "metric, chart, dchart, d2chart, theta, inward_ref",
    geodesic.minimize_free_boundary: "problem, n_segments, gtol=None",
    variation.phi_calculus: "L",
    variation.crucial_bounds_scan: "n, R, model, n_r, n_t",
    curves._stencil_derivative: "values, order",
    checks._solve_lens: "a",
    checks._estimate_report: "ctx, branch, c1, c2, R, L0, n, fixture_name=None, grid_extra",
}


def _parameters(fn):
    return ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                     for p in inspect.signature(fn).parameters.values())


def test_entry_points_take_no_fixed_knob():
    got = {fn.__qualname__: _parameters(fn) for fn in SIGNATURES}
    assert got == {fn.__qualname__: want for fn, want in SIGNATURES.items()}
