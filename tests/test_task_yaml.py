"""The task-file reader against PyYAML's SafeLoader, a test-only oracle.

parsing._read_task_yaml reads the YAML subset of README's "Task files"
section.  On every document of the subset it must return what
yaml.safe_load returns: the task files of tests/data, README and the
benchmark, the task files that tests/test_cli.py runs in a subprocess
(the ones parsed in-process are checked by conftest's autouse fixture),
and seeded random documents of the subset.  Forms outside the subset are
rejected with a position; tests/test_parser.py checks those positions
without PyYAML.
"""

import importlib.util
import random
import string

import pytest

from conftest import DATA, same_document
from paramverify.errors import ParseError
from paramverify.parsing import _read_task_yaml

yaml = pytest.importorskip("yaml")

ROOT = DATA.parent.parent


def workloads():
    """perfbench/workloads.py, imported from its file."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parametrized(test, name):
    """The values a parametrized test takes for its argument name."""
    (mark,) = [m for m in test.pytestmark if m.name == "parametrize" and name in m.args[0]]
    names = [n.strip() for n in mark.args[0].split(",")]
    return [values[names.index(name)] if len(names) > 1 else values for values in mark.args[1]]


def repository_task_files():
    """(name, text) of every task file the repository holds or generates."""
    files = [(path.name, path.read_text()) for path in sorted(DATA.glob("*.yaml"))]
    files.append(("corpus.yaml", (ROOT / "perfbench" / "data" / "corpus.yaml").read_text()))
    readme = (ROOT / "README.md").read_text()
    files.append(("README.md", readme.split("```yaml\n", 1)[1].split("```", 1)[0]))
    bench = workloads()
    for seed in range(1, 9):
        files.append(("param_elim seed %d" % seed, bench.param_elim(seed)[1]))
        files.append(("pts_bmc seed %d" % seed, bench.pts_bmc(seed)[1]))
    # the files test_cli.py writes and runs in a subprocess
    import test_cli

    ex1 = (DATA / "ex1_constraint.yaml").read_text()
    ex2 = (DATA / "ex2_strengthening.yaml").read_text()
    test = test_cli.test_malformed_numeric_option_exit_two
    for option, value in zip(parametrized(test, "option"), parametrized(test, "value")):
        line = "%s: %s" % (option, value)
        files.append(("test_cli " + line, ex2.replace("inv_str_max_iter: 2", line)))
    for i, line in enumerate(parametrized(test_cli.test_malformed_symbol_list_option_exit_two, "line")):
        files.append(("test_cli symbol list %d" % i, ex1.replace("parameter: [a, d1, d2]", line)))
    for i, text in enumerate(parametrized(test_cli.test_malformed_task_file_shape_exit_two, "text")):
        files.append(("test_cli shape %d" % i, text + "\n"))
    return files


FILES = repository_task_files()


@pytest.mark.parametrize("text", [text for _, text in FILES], ids=[name for name, _ in FILES])
def test_repository_task_files_read_as_pyyaml_reads_them(text):
    doc = _read_task_yaml(text)
    assert same_document(doc, yaml.safe_load(text))
    assert isinstance(doc, dict) and doc


# ---------------------------------------------------------------------------
# Random documents of the subset

# plain-scalar words: none is a YAML 1.1 int, float, bool or null alone,
# none holds one of ",[]{}" (so each is plain in a flow collection too),
# and "*" may not start a scalar
WORDS = "d1 <= d2; x_1 (FORALL j). a(j) _0 _-1/2 é a:b x#y -x 1x y n Y N truex + * OR(x ) --> 0x 1_0x -.5".split()
WORDS.append("2001-1-1")
INTS = ["0", "7", "-12", "+3", "1000000000000"]
FLOATS = ["0.5", "1.", ".25", "-2.5", "+1.0", "3.0e+2", "1.5E-3", "10.", ".inf", "-.Inf", "+.INF", ".nan", ".NaN"]
CONSTANTS = ["true", "True", "TRUE", "false", "False", "FALSE", "null", "Null", "NULL", "~"]
QUOTABLE = string.ascii_letters[:6] + " :#,[]{}-'\"é\t|>&*!%@`?"


class DocumentWriter:
    """Writes a random document of the subset; every choice is the rng's."""

    def __init__(self, rng):
        self.rng = rng
        self.lines = []
        self.keys = 0

    def plain(self):
        words = [self.rng.choice([w for w in WORDS if w != "*"])]
        words += self.rng.choices(WORDS, k=self.rng.choice((0, 0, 1, 3)))
        return self.rng.choice((" ", "  ")).join(words)

    def quoted(self):
        chars = self.rng.choices(QUOTABLE, k=self.rng.randint(0, 8))
        if self.rng.random() < 0.5:
            return "'" + "".join(chars).replace("'", "''") + "'"
        return '"' + "".join(c if c not in '"\\' else "\\" + c for c in chars + ["\\"][: self.rng.randint(0, 1)]) + '"'

    def scalar(self):
        kind = self.rng.random()
        if kind < 0.4:
            return self.plain()
        if kind < 0.65:
            return self.quoted()
        return self.rng.choice(INTS + FLOATS + CONSTANTS)

    def key(self):
        self.keys += 1
        kind = self.rng.random()
        if kind < 0.6:
            return "%s_k%d" % (self.plain().replace(":", "").replace("#", ""), self.keys)
        if kind < 0.8:
            return "'key %d: #'" % self.keys if kind < 0.7 else '"k\\\\%d"' % self.keys
        return str(self.keys + 1)  # an int key; 1 would equal true

    def flow(self, depth):
        kind = self.rng.random()
        if depth > 2 or kind < 0.4:
            return self.scalar()
        comma = self.rng.choice((", ", ",", " , ", ",\n    "))
        if kind < 0.7:
            items = [self.flow(depth + 1) for _ in range(self.rng.randint(0, 3))]
            close = "," if items and self.rng.random() < 0.2 else ""
            return "[" + comma.join(items) + close + "]"
        entries = []
        for _ in range(self.rng.randint(0, 3)):
            key = self.key()
            entries.append(key if self.rng.random() < 0.1 else "%s: %s" % (key, self.flow(depth + 1)))
        return "{" + comma.join(entries) + "}"

    def filler(self):
        """Blank and comment lines, which may sit between any two entries."""
        for _ in range(self.rng.choice((0, 0, 0, 1, 2))):
            self.lines.append(self.rng.choice(("", "  ", " " * 6 + "# note: [x]", "# c", "   #")))

    def comment(self):
        return self.rng.choice(("", "", " # c", "  #: x"))

    def literal(self, head, parent):
        """head, then a '|' or '|-' block scalar more indented than parent."""
        indent = parent + self.rng.randint(1, 4)
        self.lines.append(head + self.rng.choice(("|", "|-")) + self.comment())
        text = False  # whether a line of text came yet: it sets the indentation
        for _ in range(self.rng.randint(0, 5)):
            if self.rng.random() < 0.25:  # blank: shorter lines are empty, longer ones keep their spaces
                self.lines.append(" " * self.rng.randint(0, indent + 2 if text else indent))
            else:
                extra = " " * self.rng.choice((0, 0, 0, 1, 4)) if text else ""
                chars = "".join(self.rng.choices(QUOTABLE + "   ", k=self.rng.randint(1, 12))).strip(" \t")
                self.lines.append(" " * indent + extra + (chars or "x"))
                text = True

    def value(self, head, indent, depth):
        """An entry whose text so far is head, in a block collection indented by indent."""
        kind = self.rng.random()
        if depth > 3 or kind < 0.45:
            self.lines.append(head + " " + self.scalar() + self.comment())
        elif kind < 0.5:
            self.lines.append(head + self.comment())
        elif kind < 0.62:
            self.lines.append(head + " " + self.flow(1) + self.comment())
        elif kind < 0.75:
            self.literal(head + " ", indent)
        elif kind < 0.9:
            self.lines.append(head + self.comment())
            self.mapping(indent + self.rng.randint(1, 4), depth + 1)
        else:
            self.lines.append(head + self.comment())
            self.sequence(indent + self.rng.randint(0 if head.endswith(":") else 1, 3), depth + 1)

    def mapping(self, indent, depth):
        for _ in range(self.rng.randint(1, 4)):
            self.value(" " * indent + self.key() + self.rng.choice((":", ":", " :")), indent, depth)
            self.filler()

    def sequence(self, indent, depth):
        for _ in range(self.rng.randint(1, 3)):
            kind = self.rng.random()
            if kind < 0.5 or depth > 3:
                self.value(" " * indent + "-", indent, depth + 1)
            elif kind < 0.8:  # a mapping that starts on the entry's line
                start = len(self.lines)
                self.mapping(indent + 2, depth + 1)
                self.lines[start] = " " * indent + "- " + self.lines[start][indent + 2 :]
            else:
                self.lines.append(" " * indent + "-" + self.comment())
                self.mapping(indent + self.rng.randint(1, 3), depth + 1)
            self.filler()

    def document(self):
        kind = self.rng.random()
        if kind < 0.8:
            self.mapping(0, 0)
        elif kind < 0.9:
            self.sequence(0, 0)
        else:
            self.lines.append(self.flow(0))
        text = "\n".join(self.lines) + "\n"
        return text[:-1] if self.rng.random() < 0.1 else text


def walk(doc):
    yield doc
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield k
            yield from walk(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from walk(v)


def test_random_documents_read_as_pyyaml_reads_them():
    """2,000 seeded documents of the subset: block and flow collections,
    nested, plain, quoted and block scalars, comments, and every
    canonical int, float, bool and null form."""
    rng = random.Random(20261020)
    kinds = set()
    for _ in range(2000):
        text = DocumentWriter(rng).document()
        doc = _read_task_yaml(text)
        assert same_document(doc, yaml.safe_load(text)), text
        kinds.update(type(v).__name__ for v in walk(doc))
    assert kinds == {"dict", "list", "str", "int", "float", "bool", "NoneType"}


def test_plain_scalars_resolve_as_in_yaml_1_1():
    """A plain scalar the reader accepts has PyYAML's value and type; one
    it rejects is not a string to PyYAML, or PyYAML rejects the document.
    y and n, names of variables, are strings."""
    rng = random.Random(11)
    alphabet = "0123456789+-._:eExXobBaAfFyYnNtTrRuUlL~<=Z "
    scalars = ["y", "n", "Y", "N", "yes", "No", "on", "OFF", "0", "00", "017", "08", "0x1F", "0b11", "1_000", "1:30"]
    scalars += ["190:20:30.15", "2001-12-14", "2001-12-14t21:59:43.10-05:00", "<<", "=", ".inf", "-.nan", "1e5"]
    scalars += ["".join(rng.choices(alphabet, k=rng.randint(1, 7))).strip() or "x" for _ in range(1500)]
    accepted = rejected = 0
    for s in scalars:
        for text in ("k: %s\n" % s, "[%s]\n" % s):
            try:
                expected = yaml.safe_load(text)
            except yaml.YAMLError:
                expected = None
            try:
                doc = _read_task_yaml(text)
            except ParseError as exc:
                rejected += 1
                assert str(exc).startswith(("1:", "2:")), (text, exc)
                value = expected and (expected["k"] if "k" in expected else expected[0])
                assert not (value == s and type(value) is str and len(expected) == 1), (text, exc)
            else:
                accepted += 1
                assert same_document(doc, expected), text
    assert accepted > 2500 and rejected > 100
    assert _read_task_yaml("[y, n, Y, N]") == ["y", "n", "Y", "N"]


@pytest.mark.parametrize(
    "text",
    ["tasks:\r\n  t: |\r\n    a\r\n\r\n    b\r\n", "\ufefftasks: {t: 1}\n", "a: |\n  x\n  \ty\n", "a: 'x\ty'\n"],
    ids=["crlf", "byte-order-mark", "tab-in-block-scalar", "tab-in-quoted-scalar"],
)
def test_line_ends_byte_order_mark_and_tabs_inside_scalars(text):
    assert same_document(_read_task_yaml(text), yaml.safe_load(text))
