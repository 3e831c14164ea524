import re

import pytest

from conftest import DATA, EX1_SPEC
from oracles import dnf_formula, entails_constraint
from paramverify.errors import EngineError
from paramverify.linear import assumptions_from, simplify, to_linear
from paramverify.parsing import parse_formula, parse_spec, parse_statements, parse_task_file
from paramverify.printing import canonical, print_canonical, print_formula
from paramverify.reduction import reduce_chain
from paramverify.runner import run_task_file
from paramverify.symelim import (
    check_unsat_with_constraint,
    definitional_shapes_ok,
    generate_constraint,
)
from paramverify.terms import FALSE, Signature, formula_symbols

CHEM1 = """
Base_functions := {(+,2), (-,2), (*,2)}
Extension_functions :=  {}
Relations := {(<=,2), (<,2), (>=,2), (>,2)}

Query :=
         ea > _0;

         (x1 + x2) + x3 <= lf;
         x1 >= _0; x2 >= _0; x3 >= _0;
         x2 - x1 <= ea; x1 - x2 <= ea; x3 <= min;

         x1p - x1 >= t; x2p - x2 >= t; x3p - x3 = _0;
         (x2p - x2) - (x1p - x1) <= t;
         (x1p - x1) - (x2p - x2) <= t;  t >= _0;

         (x1 + x2) + x3 <= lsafe;

         (x1p + x2p) + x3p <= lf;
         x1p >= _0; x2p >= _0; x3p >= _0;
         x2p - x1p <= ea; x1p - x2p <= ea; x3p <= min;

         (x1p + x2p) + x3p > lsafe;
"""


def ex1_constraint():
    spec = parse_spec(EX1_SPEC)
    return spec, generate_constraint(spec.sig, reduce_chain(spec.sig, spec.statements()), parameters=["a", "d1", "d2"])


def test_running_example_exact_output():
    _, res = ex1_constraint()
    assert print_formula(res.constraint) == "(FORALL i). OR(a(i + _1) - a(i) >= _0, d1 - d2 > _0)"
    assert res.weakest


def test_running_example_soundness():
    spec, res = ex1_constraint()
    assert check_unsat_with_constraint(spec.sig, spec.statements(), res.constraint)


def test_trivial_constraint_does_not_close_problem():
    spec = parse_spec(EX1_SPEC)
    true_constraint = parse_formula("_0 <= _0;", spec.sig.copy())
    assert not check_unsat_with_constraint(spec.sig, spec.statements(), true_constraint)


def test_unsat_problem_closed_by_true():
    sig = Signature()
    statements = parse_statements("c < _0; c > _0;", sig)
    true_constraint = parse_formula("_0 <= _0;", sig.copy())
    assert check_unsat_with_constraint(sig, statements, true_constraint)


def test_result_mentions_only_base_and_parameters():
    spec, res = ex1_constraint()
    symbols = formula_symbols(res.constraint) - {"+", "-", "*"}
    assert symbols <= {"a", "d1", "d2"}


def test_requires_exactly_one_selection():
    """Exactly one list selects the parameters, and each parameter is a
    symbol of the signature, never one the engine introduces."""
    spec = parse_spec(EX1_SPEC)
    with pytest.raises(EngineError):
        generate_constraint(spec.sig, reduce_chain(spec.sig, spec.statements()))
    with pytest.raises(EngineError):
        generate_constraint(
            spec.sig, reduce_chain(spec.sig, spec.statements()), parameters=["a"], eliminate_symbols=["d1"]
        )
    with pytest.raises(EngineError, match="parameters c_a_1 are no symbols of the signature"):
        generate_constraint(spec.sig, reduce_chain(spec.sig, spec.statements()), parameters=["a", "c_a_1"])


def test_determinism_byte_identical():
    outs = set()
    for _ in range(3):
        _, res = ex1_constraint()
        outs.add(print_formula(res.constraint))
    assert len(outs) == 1


def test_chem_mode1_exact():
    spec = parse_spec(CHEM1)
    res = generate_constraint(
        spec.sig,
        reduce_chain(spec.sig, spec.statements()),
        eliminate_symbols=["x1", "x2", "x3", "x1p", "x2p", "x3p", "t"],
    )
    assert print_formula(res.constraint) == "OR(min < _0, lsafe < _0, lf - lsafe <= _0, ea <= _0)"
    assert res.weakest


def test_chem_mode1_simplifies_to_level_condition():
    spec = parse_spec(CHEM1)
    res = generate_constraint(
        spec.sig,
        reduce_chain(spec.sig, spec.statements()),
        eliminate_symbols=["x1", "x2", "x3", "x1p", "x2p", "x3p", "t"],
    )
    sig = Signature()
    assumptions = assumptions_from(parse_statements("min >= _0; lsafe >= _0; ea > _0;", sig))
    slim = simplify(to_linear(res.constraint), assumptions)
    assert print_canonical(dnf_formula(slim)) == "lf - lsafe <= _0"


def test_weakestness_family():
    spec, res = ex1_constraint()
    family = [
        "(FORALL i). a(i) <= a(i + _1);",
        "(FORALL i). a(i) = a(i + _1);",
        "false;",
    ]
    for text in family:
        stronger = parse_formula(text, spec.sig.copy())
        assert check_unsat_with_constraint(spec.sig, spec.statements(), stronger), text
        assert entails_constraint(spec.sig, stronger, res.constraint), text


def test_non_entailment_detected():
    spec, res = ex1_constraint()
    unrelated = parse_formula("d1 - d2 <= _0;", spec.sig.copy())
    assert not entails_constraint(spec.sig, unrelated, res.constraint)


def test_definitional_shapes():
    spec = parse_spec(EX1_SPEC)
    assert definitional_shapes_ok(spec.sig, spec.statements())
    sig = spec.sig.copy()
    monotone = parse_statements("(FORALL i). a(i) <= a(i + _1);", sig)
    assert not definitional_shapes_ok(sig, spec.statements() + monotone)


def test_overlapping_guards_rejected():
    sig = Signature()
    sig.extension_functions["f"] = (1, 1)
    clauses = parse_statements(
        "(FORALL x). x <= _1 --> f(x) = _0; (FORALL x). x >= _0 --> f(x) = _1;", sig
    )
    assert not definitional_shapes_ok(sig, clauses)


def test_disjoint_guards_accepted():
    sig = Signature()
    sig.extension_functions["f"] = (1, 1)
    clauses = parse_statements(
        "(FORALL x). x <= _0 --> f(x) = _0; (FORALL x). x > _0 --> f(x) = _1;", sig
    )
    assert definitional_shapes_ok(sig, clauses)


def test_unsatisfiable_problem_needs_no_constraint():
    sig = Signature()
    statements = parse_statements("c < _0; c > _0;", sig)
    res = generate_constraint(sig, reduce_chain(sig, statements), eliminate_symbols=["c"])
    assert print_formula(res.constraint) == "true"


def test_unconstrained_problem_closes_only_under_false():
    sig = Signature()
    statements = parse_statements("c >= _0;", sig)
    res = generate_constraint(sig, reduce_chain(sig, statements), eliminate_symbols=["c"])
    assert print_formula(res.constraint) == "false"


def test_definition_argument_survives_eliminate_list():
    """A constant feeding a parameter application is universally closed
    even when the eliminate list names it."""
    spec = parse_spec(
        """
Base_functions := {(+,2), (-,2), (*,2)}
Extension_functions := {(a, 1, 1)}
Relations := {(<=,2), (<,2), (>=,2), (>,2)}
Query := d1 = a(i); d1 > _0;
"""
    )
    res = generate_constraint(spec.sig, reduce_chain(spec.sig, spec.statements()), eliminate_symbols=["d1", "i"])
    assert print_formula(res.constraint) == "(FORALL i). a(i) <= _0"


def _result_block(report):
    """The lines from the Result line to the Runtime line."""
    lines = report.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("    Result:"))
    end = next(i for i, l in enumerate(lines) if l.startswith("    Runtime:"))
    return lines[start:end]


GENERATING_FILES = [
    path.stem
    for path in sorted(DATA.glob("*.yaml"))
    for task in parse_task_file(path.read_text()).tasks.values()
    if (task.mode, task.spec_type) == ("GENERATE_CONSTRAINTS", "HPILOT")
]


@pytest.mark.parametrize("name", GENERATING_FILES)
def test_complement_list_gives_the_same_result(name):
    """parameter: P and eliminate: the task's other constants and
    extension functions select the same parameters: no symbol the engine
    introduces is kept, whichever list a task gives."""
    text = (DATA / ("%s.yaml" % name)).read_text()
    (task,) = parse_task_file(text).tasks.values()
    sig = task.body.sig
    symbols = sig.constants | set(sig.extension_functions)
    (key,) = [k for k in ("parameter", "eliminate") if k in task.options]
    other = "eliminate" if key == "parameter" else "parameter"
    line = re.search(r"%s: \[.*\]" % key, text).group()
    swapped = "%s: [%s]" % (other, ", ".join(sorted(symbols - set(task.options[key]))))
    assert _result_block(run_task_file(text)[0]) == _result_block(run_task_file(text.replace(line, swapped))[0])


def test_chem_weakestness_family():
    spec = parse_spec(CHEM1)
    res = generate_constraint(
        spec.sig,
        reduce_chain(spec.sig, spec.statements()),
        eliminate_symbols=["x1", "x2", "x3", "x1p", "x2p", "x3p", "t"],
    )
    for text in ("lf <= lsafe;", "ea < _0;", "min < _0;", "false;"):
        stronger = parse_formula(text, spec.sig.copy())
        assert check_unsat_with_constraint(spec.sig, spec.statements(), stronger), text
        assert entails_constraint(spec.sig, stronger, res.constraint), text
    # a constraint that does not close the problem must not entail it
    weak = parse_formula("lf >= lsafe;", spec.sig.copy())
    assert not check_unsat_with_constraint(spec.sig, spec.statements(), weak)
    assert not entails_constraint(spec.sig, weak, res.constraint)
