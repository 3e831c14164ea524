"""Modules use each other only through public names: no module imports
an _-prefixed name from another paramverify module.  No module imports
a name it never uses."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "paramverify"


def private_imports(path):
    """(line, module, name) for each _-prefixed name that the file imports
    from a paramverify module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not module.startswith("paramverify"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                out.append((node.lineno, module, alias.name))
    return out


def test_no_private_cross_module_imports():
    found = [
        "%s:%d imports %s from %s" % (path.name, line, name, module or ".")
        for path in sorted(SOURCE.glob("*.py"))
        for line, module, name in private_imports(path)
    ]
    assert not found, "\n".join(found)


def test_private_import_is_detected(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f():\n    from .printing import _wrap, print_term\n    from paramverify.linear import _fm_steps\n")
    assert private_imports(bad) == [(2, "printing", "_wrap"), (3, "paramverify.linear", "_fm_steps")]


def unused_imports(path):
    """(line, name) for each name the file imports and never reads; a
    name read only in a string annotation counts as read."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault((alias.asname or alias.name).split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for sub in ast.walk(annotation) if annotation is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval")) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    found = [
        "%s:%d imports %s and never uses it" % (path.name, line, name)
        for path in sorted(SOURCE.glob("*.py"))
        for line, name in unused_imports(path)
    ]
    assert not found, "\n".join(found)


def test_unused_import_is_detected(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import json\nimport os.path\nfrom .terms import And, Or as Either, Term\n\n"
        "def f(x: List[\"Term\"]) -> \"Either\":\n    return os.path.join(x)\n"
    )
    assert unused_imports(bad) == [(1, "json"), (3, "And")]
