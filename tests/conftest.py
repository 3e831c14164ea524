import re
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"

EX1_SPEC = """
Base_functions := {(+,2), (-,2), (*,2)}
Extension_functions := {(b, 1, 1), (a, 1, 2), (ap, 1, 3)}
Relations := {(<=,2), (<,2), (>=,2), (>,2)}

Clauses :=
    d1 <= d2;

    (FORALL j). ap(j) = a(j) + _1;
    d1p = ap(i);
    d2p = ap(i + _1);
    ip = i + _1;
Query :=   d1p - d2p > _0;
"""

PLANT_LHA = """
variables: x1, x2, x3;
mode 1:
    inv: (x1 + x2) + x3 <= lf; x1 >= _0; x2 >= _0; x3 >= _0;
         x1 - x2 <= ea; x2 - x1 <= ea; x3 <= min;
    flow: d(x1) >= _1; d(x1) <= _2; d(x2) >= _1; d(x2) <= _2; d(x3) = _0;
          d(x1) - d(x2) <= _1; d(x2) - d(x1) <= _1;
    init: x1 = _0; x2 = _0; x3 = _0;
    inenv: (x1 + x2) + x3 <= lsafe; x1 >= _0; x2 >= _0; x3 >= _0;
           x1 - x2 <= esafe; x2 - x1 <= esafe; x3 <= min;
mode 2:
    inv: (x1 + x2) + x3 >= lf; (x1 + x2) + x3 <= lover; x1 >= _0; x2 >= _0; x3 >= _0;
         x1 - x2 <= ea; x2 - x1 <= ea; x3 <= max;
    flow: d(x1) <= -_1; d(x2) <= -_1; d(x3) >= _1; d(x1) = d(x2);
          (d(x3) + d(x1)) + d(x2) = _0;
mode 3:
    inv: (x1 + x2) + x3 <= lover; x1 >= _0; x2 >= _0; x3 >= _0;
         x1 - x2 <= ea; x2 - x1 <= ea; x3 >= min;
    flow: d(x1) = _0; d(x2) = _0; d(x3) <= -_1;
mode 4:
    inv: x1 = _0; x2 = _0; x3 = _0;
    flow: d(x1) = _0; d(x2) = _0; d(x3) = _0;
edge 1 -> 2:
    guard: (x1 + x2) + x3 >= lf;
    jump: x1p = x1; x2p = x2; x3p = x3;
edge 2 -> 3:
    guard: x1 + x2 <= min;
    jump: x1p = x1; x2p = x2; x3p = x3;
edge 3 -> 1:
    guard: x1 - x2 <= ea; x2 - x1 <= ea; x3 >= _0; x3 <= min;
    jump: x1p = x1; x2p = x2; x3p = x3;
edge 1 -> 4:
    guard: x1 - x2 >= ea;
    jump: x1p = _0; x2p = _0; x3p = _0;
edge 1 -> 4:
    guard: x2 - x1 >= ea;
    jump: x1p = _0; x2p = _0; x3p = _0;
edge 2 -> 4:
    guard: x1 - x2 >= ea;
    jump: x1p = _0; x2p = _0; x3p = _0;
edge 2 -> 4:
    guard: x2 - x1 >= ea;
    jump: x1p = _0; x2p = _0; x3p = _0;
edge 3 -> 4:
    guard: x3 <= min; x1 - x2 >= ea;
    jump: x1p = _0; x2p = _0; x3p = _0;
edge 3 -> 4:
    guard: x3 <= min; x2 - x1 >= ea;
    jump: x1p = _0; x2p = _0; x3p = _0;
"""

# variant without the non-negativity conditions in modes 1 and 2 and
# with a single fill level; used for the strengthening example
PLANT_VARIANT_LHA = """
variables: x1, x2, x3;
mode 1:
    inv: (x1 + x2) + x3 <= lf;
         x1 - x2 <= ea; x2 - x1 <= ea; x3 <= min;
    flow: d(x1) >= _1; d(x1) <= _2; d(x2) >= _1; d(x2) <= _2; d(x3) = _0;
          d(x1) - d(x2) <= _1; d(x2) - d(x1) <= _1;
    init: x1 = _0; x2 = _0; x3 = _0;
mode 2:
    inv: (x1 + x2) + x3 >= lf; (x1 + x2) + x3 <= lf;
         x1 - x2 <= ea; x2 - x1 <= ea; x3 <= max;
    flow: d(x1) <= -_1; d(x2) <= -_1; d(x3) >= _1; d(x1) = d(x2);
          (d(x3) + d(x1)) + d(x2) = _0;
mode 3:
    inv: (x1 + x2) + x3 <= lf; x1 >= _0; x2 >= _0; x3 >= _0;
         x1 - x2 <= ea; x2 - x1 <= ea; x3 >= min;
    flow: d(x1) = _0; d(x2) = _0; d(x3) <= -_1;
mode 4:
    inv: x1 = _0; x2 = _0; x3 = _0;
    flow: d(x1) = _0; d(x2) = _0; d(x3) = _0;
edge 1 -> 2:
    guard: (x1 + x2) + x3 >= lf;
    jump: x1p = x1; x2p = x2; x3p = x3;
edge 2 -> 3:
    guard: x1 + x2 <= min;
    jump: x1p = x1; x2p = x2; x3p = x3;
edge 3 -> 1:
    guard: x1 - x2 <= ea; x2 - x1 <= ea; x3 >= _0; x3 <= min;
    jump: x1p = x1; x2p = x2; x3p = x3;
edge 1 -> 4:
    guard: x1 - x2 >= ea;
    jump: x1p = _0; x2p = _0; x3p = _0;
edge 2 -> 4:
    guard: x1 - x2 >= ea;
    jump: x1p = _0; x2p = _0; x3p = _0;
"""

PTS_EX2 = {
    "base_functions": "{(+,2), (-,2), (*,2)}",
    "extension_functions": "{(b, 1, 1), (a, 1, 2), (ap, 1, 3)}",
    "relations": "{(<=,2), (<,2), (>=,2), (>,2)}",
    "init": """
        d1 = _1;
        d2 = _1;
        (FORALL j). a(j) = b(j);
        i = _0;
        (FORALL i,j). i <= j --> b(i) <= b(j);
    """,
    "update": """
        (FORALL j). ap(j) = a(j) + _1;
        d1p = ap(i);
        d2p = ap(i + _1);
        ip = i + _1;
    """,
    "query": "d1 <= d2;",
    "update_vars": {"a": "ap", "d1": "d1p", "d2": "d2p", "i": "ip"},
}


def mask_report(report: str) -> str:
    """Blank the only non-deterministic fields (Date, Runtime)."""
    report = re.sub(r"Date: '[^']*'", "Date: 'MASKED'", report)
    report = re.sub(r"Runtime( Sum)?: [0-9.]+", r"Runtime\1: MASKED", report)
    return report


@pytest.fixture
def ex1_spec():
    from paramverify.parsing import parse_spec

    return parse_spec(EX1_SPEC)


@pytest.fixture
def ex2_system():
    from paramverify.parsing import _parse_task_body

    return _parse_task_body("ex2", "PTS", PTS_EX2)


@pytest.fixture
def plant():
    from paramverify.parsing import parse_lha

    return parse_lha(PLANT_LHA)


@pytest.fixture
def plant_variant():
    from paramverify.parsing import parse_lha

    return parse_lha(PLANT_VARIANT_LHA)


def same_document(a, b) -> bool:
    """Equal YAML documents, type for type (True is not 1) and key order
    included; a NaN equals a NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return len(a) == len(b) and all(same_document(k, l) and same_document(a[k], b[l]) for k, l in zip(a, b))
    if isinstance(a, list):
        return len(a) == len(b) and all(same_document(x, y) for x, y in zip(a, b))
    return repr(a) == repr(b) if isinstance(a, float) else a == b


@pytest.fixture(autouse=True)
def task_files_read_as_pyyaml_reads_them(monkeypatch):
    """Every task file a test parses in this process is read by PyYAML's
    SafeLoader too: where the task-file reader returns a document, it is
    PyYAML's.  PyYAML is a test-only oracle; without it nothing is checked."""
    try:
        import yaml
    except ImportError:
        return
    from paramverify import parsing

    read = parsing._read_task_yaml

    def checked(text):
        doc = read(text)
        assert same_document(doc, yaml.safe_load(text)), text
        return doc

    monkeypatch.setattr(parsing, "_read_task_yaml", checked)
