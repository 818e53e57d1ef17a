"""Every name a module of the package imports or keeps private is read.

No linter runs on this package, so these checks catch what a deletion
leaves behind: an import nothing reads any more, or a private constant
or helper whose last reader is gone.  An import kept for a reader outside
the package carries ``# noqa: F401`` on its statement.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "radial_euler"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def _loads(tree):
    """Every name the module reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _parse(path):
    text = path.read_text()
    return text.splitlines(), ast.parse(text)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_read(path):
    lines, tree = _parse(path)
    reads = _loads(tree)
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        unread += [f"line {node.lineno}: {name}"
                   for name in ((alias.asname or alias.name).split(".")[0]
                                for alias in node.names)
                   if name not in reads]
    assert unread == []


def test_every_private_module_name_is_read():
    trees = {path.name: _parse(path)[1] for path in MODULES}
    reads = set().union(*map(_loads, trees.values()))
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [target.id for t in targets for target in ast.walk(t)
                           if isinstance(target, ast.Name)]
            else:
                continue
            unread += [f"{name}:{node.lineno}: {private}" for private in defined
                       if private.startswith("_") and not private.startswith("__")
                       and private not in reads]
    assert unread == []
