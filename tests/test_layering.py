"""Modules use each other only through public names: no module imports
an _-prefixed name from another paramverify module."""

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
