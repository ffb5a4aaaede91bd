"""Static guard against unreached library code.

Every public module-level function and class of ``src/curvlab``, and every
public method, must be reached from the package's roots: the names in
``curvlab.__all__`` and the module-level statements of each module (the
check registry, the command-line entry point). A definition is reached when
reached code names it, by a plain name or as an attribute; only the bodies
of reached definitions count, so code used only by unreached code is
unreached too. Imports are not uses. Names are matched without type
information, so this over-approximates what runs: a method counts as
reached when any reached code takes an attribute of that name.
"""

import ast
from pathlib import Path

import curvlab

SRC = Path(curvlab.__file__).resolve().parent

# methods of the ScalarField protocol, called through the protocol
PROTOCOL = frozenset({"value", "gradient", "hessian"})


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


def unreached(source_dir=SRC, exported=tuple(curvlab.__all__)):
    """Sorted keys of the public definitions no root reaches."""
    defs, (names, attrs) = _definitions(source_dir)
    names = names | set(exported)
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
    assert unreached(tmp_path, exported=()) == ["mod.Box.spare", "mod.helper", "mod.orphan"]
