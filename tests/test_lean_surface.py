"""Static checks that the package carries no dead surface.

Every module in src/qdist uses each name it imports, imports no other
module's underscore (private) name, and every name that qdist exports is
read somewhere in src/, tests/ or perfbench/ besides its own definition and
the re-export in qdist/__init__.py. Only the standard library's ast module
is used, so nothing is imported or run.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qdist"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exports() -> list[str]:
    for node in _parse(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    raise AssertionError("qdist/__init__.py defines no __all__")


def _read_names(tree: ast.AST) -> set[str]:
    """Names read as a variable, or as the attribute of something."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _defined_name(node: ast.stmt) -> str | None:
    """The name a top-level def, class or single-name assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    names = [t.id for t in targets if isinstance(t, ast.Name)]
    return names[0] if len(names) == 1 else None


def test_every_module_uses_its_imports():
    exports = set(_exports())
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        used = _read_names(tree)
        if path.name == "__init__.py":
            used |= exports
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}: {bound}")
    assert unused == []


def test_no_module_imports_a_private_name():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")
                            and not alias.name.endswith("__")]
    assert private == []


def test_every_export_is_read():
    files = [p for d in ("src", "tests", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))
             if p != PACKAGE / "__init__.py"]
    # (name the statement defines, names it reads) per top-level statement
    statements = [(_defined_name(node), _read_names(node))
                  for path in files for node in _parse(path).body]
    unread = [name for name in _exports()
              if not any(name in reads for defined, reads in statements
                         if defined != name)]
    assert unread == []
