"""Guards against unreached library code: a static one over names, and a
dynamic one over the statements that shipped runs execute.

The static guard: every public module-level function and class of
``src/curvlab``, and every public method, must be reached from the
package's roots: the module-level statements of each module (the check
registry, the command-line entry point). The package re-exports nothing,
so a definition that only a caller outside ``src/`` uses is unreached. A
definition is reached when reached code names it, by a plain name or as
an attribute; only the bodies of reached definitions count, so code used
only by unreached code is unreached too. Imports are not uses. Names
are matched without type information, so this over-approximates what runs:
a method counts as reached when any reached code takes an attribute of that
name, and every branch of a reached function counts, whether it runs or not.

The dynamic guard is exact for function bodies. It line-traces the runs
of ``tests/test_golden.py::RUNS``, each a ``cli.main`` call, argument
parsing and config loading included, and counts, for each function, the
body statements that never execute. The statements come from ``ast``.
Docstrings and other bare constants (the protocol's ``...``), ``raise``
and ``global`` statements are not counted, and a nested function counts
as a function of its own, under its ``<locals>`` qualname. The counts
must equal ``UNEXECUTED``, which gives the reason for each entry. So a
statement that no run executes fails the guard until a run executes it, it
is deleted, or it joins ``UNEXECUTED`` with its reason (and a line in
``CHANGES.md``).
"""

import ast
import importlib.util
import sys
from pathlib import Path

import curvlab
from test_golden import generate

SRC = Path(curvlab.__file__).resolve().parent

# methods of the ScalarField protocol, called through the protocol
PROTOCOL = frozenset({"value", "gradient", "hessian"})

# Function-body statements that no run of ``RUNS`` executes, by function:
# (count, reason). Other Tier-1 tests reach most of them.
UNEXECUTED = {
    "cli._integer": (2, "a value that is no number, or a string such as '2.0' that "
                        "int() refuses; the runs pass ints and strings such as '400'"),
    "cli.run": (10, "a check that raises, fails, does not converge, returns a report "
                    "under another id, or scans without columns; no shipped check "
                    "does any of these"),
    "checks.CheckSpec.__init__": (3, "builds the registry when the module loads, before "
                                      "a run starts"),
    "checks._ratio_report": (3, "a part that is not finite, which a correct run never "
                                "measures"),
    "checks._require_converged": (1, "a solve that stops short of gtol"),
    "report.NonConvergence.__init__": (1, "a solve that stops short of gtol"),
    "geodesic.minimize_free_boundary": (4, "the max-iter and line-search stops"),
    "geodesic._energy": (2, "a trial point outside the ball or below the factor "
                            "floor; the shipped solves never step there"),
    "geodesic._trial_energy": (2, "a retraction that fails or leaves the reals"),
    "curves.DiscreteCurve._velocity": (1, "a degenerate curve, before its raise"),
    "curves._stencil_derivative": (1, "a curve of five vertices or fewer"),
    "hypersurface.sphere_mean_curvature": (1, "a flat geodesic sphere; the shipped "
                                              "spheres are hyperbolic"),
    "hypersurface.geodesic_sphere": (1, "a flat geodesic sphere"),
    "hypersurface.infima_over_annuli": (2, "an annulus that misses the chart; every "
                                           "shipped scan annulus meets its piece"),
    "hypersurface._log_graph_fixture.<locals>.F": (2, "only Hypersurface.project reads "
                                                      "F, and no run solves on the "
                                                      "log-graph (direction 1 will)"),
    "hypersurface._revolution_fixture.<locals>.F": (2, "only Hypersurface.project reads "
                                                       "F, and no run solves on the "
                                                       "trumpet (direction 1 will)"),
    "spaceform.radial_map": (9, "the hyperbolic RadialField path: no shipped check "
                                "takes a radial field in the ball (direction 1 will)"),
    "spaceform._ball_chord_quantities": (14, "the hyperbolic RadialField path"),
    "spaceform._arccosh_sq_derivatives": (9, "the hyperbolic RadialField path"),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_NOT_COUNTED = (ast.Raise, ast.Global, ast.Nonlocal)


def _uses(nodes):
    """(names, attributes) the nodes use; nested defs count, imports do not."""
    names, attrs = set(), set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names, attrs


def _definitions(source_dir):
    """({key: (name, is_method, uses)} over every module-level def and class
    and every method, uses of all modules' module-level statements)."""
    defs = {}
    roots = []
    for path in sorted(source_dir.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                methods = []
                if isinstance(node, ast.ClassDef):
                    methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                    for m in methods:
                        defs[f"{mod}.{node.name}.{m.name}"] = (m.name, True, _uses([m]))
                own = [c for c in ast.iter_child_nodes(node) if c not in methods]
                defs[f"{mod}.{node.name}"] = (node.name, False, _uses(own))
            else:
                roots.append(node)
    return defs, _uses(roots)


def unreached(source_dir=SRC):
    """Sorted keys of the public definitions no root reaches."""
    defs, (names, attrs) = _definitions(source_dir)
    reached = set()
    while True:
        new = set()
        for key, (name, is_method, _) in defs.items():
            if key in reached:
                continue
            if is_method:
                # dunder and protocol methods run whenever their class does
                implicit = name in PROTOCOL or name.startswith("__")
                hit = name in attrs or (implicit and key.rsplit(".", 1)[0] in reached)
            else:
                hit = name in names or name in attrs
            if hit:
                new.add(key)
        if not new:
            break
        reached |= new
        for key in new:
            n, a = defs[key][2]
            names |= n
            attrs |= a
    return sorted(
        key for key, (name, _, _) in defs.items()
        if key not in reached and not name.startswith("_")
    )


def test_every_public_definition_is_reached():
    missing = unreached()
    assert not missing, f"unreached public definitions: {missing}"


def test_guard_names_a_definition_only_unreached_code_uses(tmp_path):
    """A chain of helpers hanging off an unused function is unreached as a
    whole, and a method is reached through its attribute name."""
    (tmp_path / "mod.py").write_text(
        "import math\n"
        "def used():\n    return Box().size()\n"
        "def orphan():\n    return helper()\n"
        "def helper():\n    return math.pi\n"
        "class Box:\n"
        "    def size(self):\n        return 1\n"
        "    def spare(self):\n        return 2\n"
        "TABLE = {'used': used}\n",
        encoding="utf-8",
    )
    assert unreached(tmp_path) == ["mod.Box.spare", "mod.helper", "mod.orphan"]


def _statements(body, lines, nested):
    """Append to lines the line range of each counted statement in body and
    in the blocks nested in it: a simple statement's lines, a compound one's
    header. A line event on any of them means the statement ran.
    Definitions go to nested, and their bodies are not walked here."""
    for stmt in body:
        if isinstance(stmt, _DEFS):
            nested.append(stmt)
            continue
        blocks = [getattr(stmt, name, []) for name in ("body", "orelse", "finalbody")]
        blocks += [part.body for name in ("handlers", "cases")
                   for part in getattr(stmt, name, [])]
        bare = isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        if not (bare or isinstance(stmt, _NOT_COUNTED)):
            end = min((s.lineno for block in blocks for s in block),
                      default=stmt.end_lineno + 1)
            lines.append(range(stmt.lineno, max(end, stmt.lineno + 1)))
        for block in blocks:
            _statements(block, lines, nested)


def _functions(nodes, prefix):
    """{qualname: line ranges of its counted body statements} for every
    function and method defined among nodes, nested ones included."""
    out = {}
    for node in nodes:
        if isinstance(node, ast.ClassDef):
            out.update(_functions(node.body, f"{prefix}{node.name}."))
        elif isinstance(node, _DEFS):
            lines, nested = [], []
            _statements(node.body, lines, nested)
            out[prefix + node.name] = lines
            out.update(_functions(nested, f"{prefix}{node.name}.<locals>."))
    return out


def unexecuted(run, source_dir=SRC):
    """{module.qualname: count} of the counted function-body statements of
    the modules in source_dir that never execute while ``run()`` runs, for
    each function with at least one. The trace is ``sys.settrace``; the
    tracer set before is set again after."""
    source_dir = Path(source_dir).resolve()
    funcs = {path: _functions(ast.parse(path.read_text(encoding="utf-8")).body,
                              f"{path.stem}.")
             for path in sorted(source_dir.glob("*.py"))}
    seen = {path: set() for path in funcs}
    by_name = {}  # a code object's file name -> its seen lines, None outside

    def on_line(frame, event, arg):
        if event == "line":
            by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = seen.get(Path(name).resolve())
        return None if by_name[name] is None else on_line

    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(before)
    counts = {name: sum(not seen[path].intersection(r) for r in ranges)
              for path, module in funcs.items() for name, ranges in module.items()}
    return {name: n for name, n in counts.items() if n}


def trace_shipped_runs(workdir):
    """(golden record, unexecuted counts) of every run of ``RUNS``, from one
    traced pass under workdir; the ``shipped_runs`` fixture hands both to
    the golden test and to this guard. Each lru_cache of the package is
    emptied first, so a cached body runs as in a fresh process, whatever ran
    before."""
    for name, module in list(sys.modules.items()):
        if name.startswith("curvlab."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    record = {}
    counts = unexecuted(lambda: record.update(generate(workdir)))
    return record, counts


def test_every_statement_a_shipped_run_needs_runs(shipped_runs):
    got = shipped_runs[1]
    want = {name: count for name, (count, _) in UNEXECUTED.items()}
    moved = {name: (got.get(name, 0), want.get(name, 0))
             for name in sorted(got.keys() | want.keys()) if got.get(name) != want.get(name)}
    assert not moved, f"unexecuted statements moved, as (traced, allowed): {moved}"


def test_trace_names_a_dead_branch_under_its_qualname(tmp_path):
    """A raise, a docstring, a bare ``...`` and a nested function that runs
    count for nothing; the one statement that never runs is named, under
    its method's qualname."""
    (tmp_path / "mod.py").write_text(
        'def outer(x):\n'
        '    """Twice x."""\n'
        '    def inner(y):\n'
        '        return 2 * y\n'
        '    if x < 0:\n'
        '        raise ValueError(x)\n'
        '    return inner(x)\n'
        'class Box:\n'
        '    def size(self, x):\n'
        '        if x > 10:\n'
        '            x = 10\n'
        '        return outer(x)\n'
        '    def shape(self):\n'
        '        ...\n',
        encoding="utf-8",
    )
    spec = importlib.util.spec_from_file_location("reach_probe", tmp_path / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    before = sys.gettrace()
    assert unexecuted(lambda: mod.Box().size(3), tmp_path) == {"mod.Box.size": 1}
    assert sys.gettrace() is before
