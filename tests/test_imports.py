"""Every name a stmfem module imports is used there or re-exported, every
private module-level name it defines is read somewhere in stmfem, every
public function, class, method and property it defines is read in stmfem or
perfbench or is exported, and no function imports anything.

No linter runs on this code base, so these guards parse each module with
`ast`.  A module may import a name it never reads only if its `__all__`
lists the name or the import is marked `# noqa: F401` and names a binding
that perfbench/tracer.py wraps.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "stmfem"
PERFBENCH = ROOT / "perfbench"


def tracer_bindings():
    """(module, name) of every stmfem binding perfbench/tracer.py's
    `install()` wraps: the `(module, "name", "metric")` tuples it lists."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    install = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    return {(node.elts[0].id, node.elts[1].value) for node in ast.walk(install)
            if isinstance(node, ast.Tuple) and len(node.elts) == 3
            and isinstance(node.elts[0], ast.Name)
            and all(isinstance(e, ast.Constant) for e in node.elts[1:])}


def tracer_only_imports(path):
    """Names bound by the `# noqa: F401` imports of a module: imports the
    module never reads, kept only for the tracer to wrap."""
    text = path.read_text()
    lines = text.splitlines()
    return {alias.asname or alias.name
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ImportFrom)
            and "# noqa: F401" in lines[node.end_lineno - 1]
            for alias in node.names}


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
    return imported - loaded_names(tree) - exported_names(tree)


def exported_names(tree):
    """The names the module's `__all__` lists; none without one."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    unused = unused_imports(ast.parse(path.read_text()))
    assert sorted(unused - tracer_only_imports(path)) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_tracer_only_imports_are_traced(path):
    """A `# noqa: F401` import must name a binding the tracer wraps, so one
    left behind once the tracer stops wrapping it fails here."""
    assert sorted(tracer_only_imports(path)
                  - {name for module, name in tracer_bindings()
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


def package_reads(*dirs):
    """Names read anywhere in the modules of `dirs` (stmfem by default),
    bare or as an attribute."""
    read = set()
    for directory in dirs or (SRC,):
        for path in directory.glob("*.py"):
            tree = ast.parse(path.read_text())
            read |= loaded_names(tree)
            read |= {node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)}
    return read


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_dead_private_names(path):
    dead = private_definitions(ast.parse(path.read_text())) - package_reads()
    assert sorted(dead) == []


# public names that neither stmfem nor perfbench reads and stmfem.__all__
# does not export, each with the reason it stays
ALLOWED_PUBLIC = {
    "local_mass_balance": "criterion 8 of the acceptance suite measures the "
                          "local conservation defect with it",
}


def public_definitions(tree):
    """Public module-level functions and classes, and the public methods and
    properties of those classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(item.name for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return {n for n in names if not n.startswith("_")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unread_public_names(path):
    """Names are matched, not bindings: a definition escapes this check when
    any same-named attribute is read, so a property `n` counts as read
    wherever another class's attribute `n` is (LagrangeBasis1D.n)."""
    unread = (public_definitions(ast.parse(path.read_text()))
              - package_reads(SRC, PERFBENCH)
              - exported_names(ast.parse((SRC / "__init__.py").read_text()))
              - set(ALLOWED_PUBLIC))
    assert sorted(unread) == []


def nested_imports(tree):
    """Line numbers of import statements inside a function body."""
    return sorted({inner.lineno for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_imports_in_function_bodies(path):
    assert nested_imports(ast.parse(path.read_text())) == []
