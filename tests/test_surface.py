"""Every public function and class of the package is used by something.

A public top-level function or class of a ``src/baryrom`` module counts
as used when its name occurs, as an identifier, an imported name or a
whole string, somewhere it is not being defined: in the package's
modules outside its own definition (``__init__.py``, which only
re-exports, does not count), in the benchmark under ``perfbench/``, in
the acceptance gate, or as the entry point of a console script.  A name
only the unit tests use is surface that no command runs; delete it, or
move it into the test as an oracle.
"""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "baryrom"


def _names(node, skip=None):
    """Identifiers, imported names and whole strings under node, minus the
    subtree ``skip``."""
    found = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found.add(n.value)
        stack.extend(ast.iter_child_nodes(n))
    return found


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def unused_public_names():
    modules = {p: _parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    consumers = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    outside = set().union(*(_names(_parse(path)) for path in consumers))
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    outside |= {target.rsplit(":", 1)[-1]
                for target in scripts["project"]["scripts"].values()}
    in_module = {path: _names(tree) for path, tree in modules.items()}
    unused = []
    for path, tree in modules.items():
        elsewhere = outside.union(*(names for p, names in in_module.items() if p != path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and node.name not in elsewhere | _names(tree, skip=node)):
                unused.append(f"{path.stem}.{node.name}")
    return sorted(unused)


def test_every_public_name_is_used_outside_the_unit_tests():
    assert unused_public_names() == []
