"""Output checks for the benchmark.

The witness evaluator is written here on purpose: it reads terms and
formulas by their field names and does plain rational arithmetic, so a
fault in paramverify's Fourier-Motzkin code cannot hide a bad witness.
"""

import json
import re
from fractions import Fraction

from workloads import DATA


def mask_report(report):
    """Blank the only non-deterministic fields (Date, Runtime)."""
    report = re.sub(r"Date: '[^']*'", "Date: 'MASKED'", report)
    return re.sub(r"Runtime( Sum)?: [0-9.]+", r"Runtime\1: MASKED", report)


def expected_blocks(workload):
    return json.loads((DATA / "expected_reports.json").read_text())[workload]


def report_blocks(report):
    """Split a masked report into one block per task, keyed by task name."""
    blocks, current = {}, None
    for line in report.splitlines(keepends=True):
        if current is not None and line.startswith(" "):
            blocks[current].append(line)
        elif not line.startswith((" ", "Metadata:")):
            current = line.rstrip("\n")[:-1]
            blocks[current] = [line]
    return {name: "".join(lines) for name, lines in blocks.items()}


def expected_report(names, blocks):
    header = "Metadata:\n    Date: 'MASKED'\n    Number of Tasks: %d\n    Runtime Sum: MASKED\n" % len(names)
    return header + "".join(blocks[n] for n in names)


def failed_tasks(names, report, blocks, known_answer=None):
    """Names of the tasks whose masked block differs from the stored
    one or lacks its known answer.  A report that is not byte-identical
    to the expected one fails at least one task."""
    masked = mask_report(report)
    got = report_blocks(masked)
    failed = []
    for name in names:
        block = got.get(name)
        if block != blocks[name]:
            failed.append(name)
        elif known_answer is not None and known_answer(name) not in block.splitlines():
            failed.append(name)
    if not failed and masked != expected_report(names, blocks):
        failed.append(names[0])
    return failed


# ---------------------------------------------------------------------------
# Witness evaluation


def _term_value(t, point):
    kind = type(t).__name__
    if kind == "Num":
        return t.value
    if kind != "App":
        raise ValueError("cannot evaluate %s" % kind)
    if not t.args:
        return Fraction(point.get(t.fn, 0))
    values = [_term_value(a, point) for a in t.args]
    if t.fn == "-" and len(values) == 1:
        return -values[0]
    if t.fn == "+":
        return values[0] + values[1]
    if t.fn == "-":
        return values[0] - values[1]
    if t.fn == "*":
        return values[0] * values[1]
    raise ValueError("function %s in a ground formula" % t.fn)


_RELATIONS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


def holds(f, point):
    kind = type(f).__name__
    if kind == "Atom":
        return _RELATIONS[f.rel](_term_value(f.lhs, point), _term_value(f.rhs, point))
    if kind == "And":
        return all(holds(p, point) for p in f.parts)
    if kind == "Or":
        return any(holds(p, point) for p in f.parts)
    if kind == "Not":
        return not holds(f.body, point)
    if kind == "Implies":
        return not holds(f.left, point) or holds(f.right, point)
    raise ValueError("cannot evaluate %s" % kind)


def lin_atom_holds(atom, point):
    """A linear atom ``poly rel 0`` given as (monomial, coefficient) items."""
    total = Fraction(0)
    for mono, coeff in atom.poly:
        value = Fraction(coeff)
        for symbol in mono:
            value *= Fraction(point.get(symbol, 0))
        total += value
    return _RELATIONS[atom.rel](total, 0)


def witness_ok(formulas, assumptions, witness):
    """Symbols a witness leaves out are unconstrained; read them as 0."""
    return all(holds(f, witness) for f in formulas) and all(
        lin_atom_holds(a, witness) for a in assumptions
    )
