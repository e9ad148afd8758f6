"""Every name a stmfem module imports is used there or re-exported.

No linter runs on this code base, so this guard parses each module with
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


def unused_imports(tree):
    """Names bound by an import anywhere in `tree` that are never read."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
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
