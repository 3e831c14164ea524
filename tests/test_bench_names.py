"""The benchmark under perfbench/ reaches into the engine by name: the
functions its tracer wraps, the names it imports from paramverify and
the module attributes it reads or rebinds.  A rename in src/ would show
up only as a failed benchmark run, so each name is checked here.  The
benchmark files are parsed with ast and none of them is imported."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PERFBENCH.glob("*.py"))}


def _traced(tree):
    """The keys of spans.TRACED, read from its assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError("spans.py assigns no TRACED")


def _dotted(node):
    """a.b.c for an attribute chain on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + parts[::-1]


def _resolve(module_name, attrs):
    """Follow attrs from the module, importing a submodule where an
    attribute is one; the missing name, or None."""
    obj = importlib.import_module(module_name)
    for attr in attrs:
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        elif hasattr(obj, "__path__"):
            module_name = "%s.%s" % (module_name, attr)
            try:
                obj = importlib.import_module(module_name)
            except ImportError:
                return module_name
        else:
            return "%s.%s" % (getattr(obj, "__name__", module_name), attr)
    return None


def _missing(names):
    return sorted({m for m in (_resolve(module, attrs) for module, attrs in names) if m is not None})


def _engine_names(tree):
    """(module, attribute path) for every paramverify name the file
    imports or reads, and the oracles names it imports."""
    modules = {}  # local name -> paramverify module it is bound to
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "paramverify":
                    names.append((alias.name, []))
                    modules[(alias.asname or alias.name).split(".")[0]] = (
                        alias.name if alias.asname else "paramverify"
                    )
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in ("paramverify", "oracles"):
            for alias in node.names:
                names.append((node.module, [alias.name]))
                if node.module == "paramverify":
                    modules[alias.asname or alias.name] = "paramverify." + alias.name
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in modules:
            names.append((modules[chain[0]], chain[1:]))
    return names


def test_benchmark_reads_only_names_the_engine_has():
    trees = _trees()
    wanted = [("paramverify." + key.split(".")[0], key.split(".")[1:]) for key in _traced(trees["spans.py"])]
    for tree in trees.values():
        wanted.extend(_engine_names(tree))
    assert _missing(wanted) == []
    # the checks reach the names the benchmark is known to use
    assert ("paramverify.linear", ["_SAT_CACHE", "clear"]) in wanted
    assert ("paramverify", ["runner", "parse_task_file"]) in wanted
    assert ("oracles", ["brute_force_ground"]) in wanted
    assert ("paramverify.symelim", ["generate_constraint"]) in wanted


def test_a_renamed_engine_name_is_reported():
    tree = ast.parse(
        "import paramverify.runner\n"
        "from paramverify import linear\n"
        "from oracles import no_such_oracle\n"
        "linear.no_such_name\n"
        "paramverify.runner.no_such_function()\n"
    )
    assert _missing(_engine_names(tree)) == [
        "oracles.no_such_oracle",
        "paramverify.linear.no_such_name",
        "paramverify.runner.no_such_function",
    ]
