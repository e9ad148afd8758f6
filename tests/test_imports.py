"""Every name a stmfem module imports is used there or re-exported, and
every private module-level name it defines is read somewhere in stmfem.

No linter runs on this code base, so these guards parse each module with
`ast`.  A module may import a name it never reads only if its `__all__`
lists the name or ALLOWED below names the binding.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "stmfem"

# perfbench/tracer.py wraps these bindings to count the calls made through
# them; the modules that hold them never call them
ALLOWED = {("harness", "build_pair"), ("mms", "cell_geometry"),
           ("mms", "piola_values")}


def loaded_names(tree):
    """Bare names `tree` reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(tree):
    """Names bound by an import anywhere in `tree` that are never read."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    read = loaded_names(tree)
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    return imported - read - exported


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    unused = unused_imports(ast.parse(path.read_text()))
    assert sorted(unused - {name for module, name in ALLOWED
                            if module == path.stem}) == []


def private_definitions(tree):
    """Module-level names with a leading underscore, dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names.update(n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name)
                         and isinstance(n.ctx, ast.Store))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def package_reads():
    """Names read anywhere in stmfem, bare or as an attribute."""
    read = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        read |= loaded_names(tree)
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
    return read


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_dead_private_names(path):
    dead = private_definitions(ast.parse(path.read_text())) - package_reads()
    assert sorted(dead) == []
