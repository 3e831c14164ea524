"""End-to-end coverage of every task mode through the runner."""

import textwrap

import pytest

import paramverify.reduction
import paramverify.runner
import paramverify.symelim
import paramverify.transition
from conftest import DATA, PLANT_LHA, PLANT_VARIANT_LHA, workloads
from paramverify.runner import RunFlags, run_task_file

PTS_BLOCK = """
        specification_type: PTS
        specification_theory: PRESBURGER_ARITHMETIC
        specification:
            base_functions: "{(+,2), (-,2), (*,2)}"
            extension_functions: "{(b, 1, 1), (a, 1, 2), (ap, 1, 3)}"
            relations: "{(<=,2), (<,2), (>=,2), (>,2)}"
            init: |
                d1 = _1; d2 = _1; i = _0;%s
            update: |
                (FORALL j). ap(j) = a(j) + _1;
                d1p = ap(i);
                d2p = ap(i + _1);
                ip = i + _1;
            query: |
                d1 <= d2;
            update_vars:
                a : ap
                d1 : d1p
                d2 : d2p
                i : ip
"""


def _indent_lha(text):
    return textwrap.indent(text.strip("\n"), " " * 16)


def lha_task(mode, options, body):
    return """
tasks:
    plant:
        mode: %s
        options:
%s
        specification_type: LHA
        specification_theory: REAL_CLOSED_FIELDS
        specification:
            file: |
%s
""" % (mode, textwrap.indent(options.strip("\n"), " " * 12), _indent_lha(body))


def test_check_invariant_pts_mode():
    text = """
tasks:
    check:
        mode: CHECK_INVARIANT
        options: {}
%s""" % (PTS_BLOCK % "")
    report, code, _ = run_task_file(text)
    assert code == 0
    assert "    Result: ConsecutionFails" in report.splitlines()


def test_check_invariant_pts_inductive():
    text = """
tasks:
    check:
        mode: CHECK_INVARIANT
        options: {}
%s""" % (PTS_BLOCK % "\n                (FORALL i). a(i) <= a(i + _1);")
    text = text.replace("d1 <= d2;", "d1 <= d2;\n                (FORALL i). a(i) <= a(i + _1);")
    report, code, _ = run_task_file(text)
    assert code == 0
    assert "    Result: Inductive" in report.splitlines()


def test_bmc_mode_counterexample_and_safety():
    unsafe = """
tasks:
    bounded:
        mode: BMC
        options:
            bmc_k: 2
            print_steps: true
%s""" % (PTS_BLOCK % "")
    report, code, _ = run_task_file(unsafe)
    assert code == 0
    assert "    Result: counterexample at depth 1" in report.splitlines()
    assert "        (step) depth 0: unsatisfiable" in report.splitlines()
    assert "        (step) depth 1: satisfiable" in report.splitlines()

    safe = unsafe.replace("i = _0;", "i = _0;\n                (FORALL i). a(i) <= a(i + _1);")
    report, code, _ = run_task_file(safe)
    assert "    Result: no counterexample up to depth 2" in report.splitlines()


def test_deep_bmc_of_a_sorted_array_finds_no_counterexample():
    """The benchmark's sorted-array BMC task (bmc_sorted(1, 0)) at depth
    10, where each depth's ground set is a few hundred formulas: a
    sorted array stays sorted under a constant increment, so no depth
    has a counterexample."""
    _, text = workloads().bmc_sorted(1, 0)
    assert "bmc_k: 3" in text
    report, code, _ = run_task_file("tasks:\n" + text.replace("bmc_k: 3", "bmc_k: 10"))
    lines = report.splitlines()
    assert code == 0 and "    Result: no counterexample up to depth 10" in lines
    extra = lines[lines.index("    Extra:") + 1 :]
    assert extra == ["        (step) depth %d: unsatisfiable" % j for j in range(11)]


def test_check_invariant_lha_mode():
    text = lha_task(
        "CHECK_INVARIANT",
        'candidate: "(x1 + x2) + x3 <= lsafe;"\nassumptions: [lsafe >= _0]',
        PLANT_LHA,
    )
    report, code, _ = run_task_file(text)
    assert code == 0
    (line,) = [l for l in report.splitlines() if l.startswith("    Result:")]
    assert line.startswith("    Result: ConsecutionFails (F_flow_1")


def test_check_invariant_lha_inductive_variant():
    text = lha_task(
        "CHECK_INVARIANT",
        'candidate: "x1 + x2 <= lf; x3 >= _0;"\nassumptions: [lf >= _0]',
        PLANT_VARIANT_LHA,
    )
    report, code, _ = run_task_file(text)
    assert code == 0
    assert "    Result: Inductive" in report.splitlines()


def test_generate_constraints_lha_single_vc():
    text = lha_task(
        "GENERATE_CONSTRAINTS",
        'candidate: "(x1 + x2) + x3 <= lsafe;"\nvcs: [F_flow_1]\neliminate: [x1, x2, x3, x1p, x2p, x3p, t]\nslfq_query: true',
        PLANT_LHA,
    )
    report, code, _ = run_task_file(text)
    assert code == 0
    (line,) = [l for l in report.splitlines() if l.startswith("    Result:")]
    # same shape as the hand-built flow problem, plus the min >= 0 guard
    # contributed by the mode invariant at both endpoints
    assert "lf - lsafe <= _0" in line


def test_generate_constraints_lha_multiple_vcs():
    text = lha_task(
        "GENERATE_CONSTRAINTS",
        'candidate: "(x1 + x2) + x3 <= lsafe;"\nvcs: [F_jump_1_4_1, F_jump_1_4_2]\nslfq_query: true',
        PLANT_LHA,
    )
    report, code, _ = run_task_file(text)
    assert code == 0
    assert "        F_jump_1_4_1: lsafe >= _0" in report.splitlines()
    assert "        F_jump_1_4_2: lsafe >= _0" in report.splitlines()


def test_chatter_free_mode():
    text = lha_task(
        "CHATTER_FREE",
        'epsilon: epsilon\nvcs: ["1_4_1"]\nslfq_query: true\n'
        + "assumptions: [min >= _0, lsafe > _0, lf > lsafe, esafe > _0, ea > esafe, epsilon > _0]",
        PLANT_LHA,
    )
    report, code, _ = run_task_file(text)
    assert code == 0
    (line,) = [l for l in report.splitlines() if l.startswith("    Result:")]
    assert "epsilon" in line and "ea" in line


USER_T_LHA = """
variables: x;
mode a: inv: x <= p; inenv: x <= p - _1; flow: d(x) <= _1; init: x = _0;
mode b: inv: x >= _0; inenv: x >= _1; flow: d(x) >= -_1;
edge a -> b: guard: x >= p; jump: xp = x;
"""


@pytest.mark.parametrize(
    "candidate, verdicts, result",
    [
        ("x <= t;", "S S S U", "InitFails (I_a)"),
        ("x <= p;", "S U S U", "InitFails (I_a)"),
        ("x <= _0;", "U S S U", "ConsecutionFails (F_flow_a, F_flow_b)"),
    ],
)
def test_check_invariant_lha_reports_initiation_first(candidate, verdicts, result):
    """An automaton's CHECK_INVARIANT reports as a transition system's
    does: InitFails with the failing initiation conditions whenever one
    fails, else ConsecutionFails with the failing ones; the step lines
    give every condition's verdict."""
    text = lha_task("CHECK_INVARIANT", 'candidate: "%s"\nprint_steps: true' % candidate, USER_T_LHA)
    report, code, _ = run_task_file(text)
    lines = report.splitlines()
    assert code == 0 and "    Result: %s" % result in lines
    names = ["I_a", "F_flow_a", "F_flow_b", "F_jump_a_b_1"]
    words = {"S": "satisfiable", "U": "unsatisfiable"}
    assert extra_block(report)[:4] == ["(step) %s: %s" % (n, words[v]) for n, v in zip(names, verdicts.split())]


def test_default_elimination_keeps_a_user_t_free():
    """When t is a symbol of the task, the conditions name their duration
    t_2; the default elimination removes that duration and keeps the
    user's t as a parameter, and so does a list that leaves t_2 out."""
    invariance = lha_task("GENERATE_CONSTRAINTS", 'candidate: "x <= t;"', USER_T_LHA)
    listed = lha_task("GENERATE_CONSTRAINTS", 'candidate: "x <= t;"\neliminate: [x, xp]', USER_T_LHA)
    chatter = lha_task("CHATTER_FREE", "epsilon: t", USER_T_LHA)
    results = []
    for text in (invariance, listed, chatter):
        report, code, _ = run_task_file(text)
        assert code == 0
        lines = report.splitlines()
        start = lines.index("    Result:")
        results.append([l.strip() for l in lines[start + 1 :] if l.startswith("        ")])
    assert not any("t_2" in l for r in results for l in r), results
    assert results[0] == results[1] == ["I_a: t >= _0", "F_flow_a: p - t <= _0", "F_flow_b: t < _0", "F_jump_a_b_1: true"]
    assert "CF2_a_b_1: t < _1" in results[2]


def test_multi_clause_constraint_block_is_reparseable():
    """Quantified multi-clause constraints print one statement per line
    under a "|-" block, so every line re-parses as a statement."""
    text = """
tasks:
    forked:
        mode: GENERATE_CONSTRAINTS
        options:
            eliminate: [x]
        specification_type: HPILOT
        specification_theory: REAL_CLOSED_FIELDS
        specification:
            file: |
                Base_functions := {(+,2), (-,2), (*,2)}
                Extension_functions := {(a, 1, 1)}
                Relations := {(<=,2), (<,2), (>=,2), (>,2)}
                Query := OR(AND(x <= a(i), x >= _1), AND(x >= a(j), x <= _0));
"""
    report, code, _ = run_task_file(text)
    assert code == 0
    lines = report.splitlines()
    assert "        Constraint: |-" in lines
    from paramverify.parsing import parse_statements
    from paramverify.terms import Signature

    sig = Signature()
    sig.extension_functions["a"] = (1, 1)
    clause_lines = [l.strip() for l in lines if l.startswith("            ")]
    assert len(clause_lines) >= 2
    for l in clause_lines:
        (stmt,) = parse_statements(l, sig)


def extra_block(report):
    """The lines of a one-task report's Extra block, without the block's own indent."""
    lines = report.splitlines()
    return [l[8:] for l in lines[lines.index("    Extra:") + 1 :]]


GUARANTEE = "weakest-constraint guarantee: true"


def test_every_constraint_task_logs_its_guarantee():
    """Each condition's step lines end with its weakest-constraint
    guarantee: flat for a task with one condition, as for an HPILOT
    problem, and under the condition's name for a task with several,
    whether it generates constraints or checks chatter-freedom."""
    one = lha_task("GENERATE_CONSTRAINTS", 'candidate: "x <= t;"\nvcs: [F_flow_a]\nprint_steps: true', USER_T_LHA)
    report, code, _ = run_task_file(one)
    assert code == 0 and extra_block(report) == [
        "(step) kept ['t', 'p']; eliminating ['x', 'xp', 't_2']",
        "(step) eliminated 3 symbols, 1 conjuncts remain",
        "(step) " + GUARANTEE,
    ]
    several = lha_task("GENERATE_CONSTRAINTS", 'candidate: "x <= t;"\nvcs: [I_a, F_flow_b]\nprint_steps: true', USER_T_LHA)
    report, code, _ = run_task_file(several)
    assert code == 0 and extra_block(report) == [
        "(step) I_a:",
        "    kept ['t']; eliminating ['x']",
        "    eliminated 1 symbols, 1 conjuncts remain",
        "    " + GUARANTEE,
        "(step) F_flow_b:",
        "    kept ['t']; eliminating ['x', 'xp', 't_2']",
        "    eliminated 3 symbols, 1 conjuncts remain",
        "    " + GUARANTEE,
    ]
    report, code, _ = run_task_file(lha_task("CHATTER_FREE", "epsilon: t\nprint_steps: true", USER_T_LHA))
    block = extra_block(report)
    assert code == 0 and [l for l in block if not l.startswith(" ")] == ["(step) CF1_a_b_1:", "(step) CF2_a_b_1:"]
    assert block[3] == block[7] == "    " + GUARANTEE


def test_check_invariant_lha_dumps_each_condition():
    """--dump-reduction on an automaton's CHECK_INVARIANT task appends one
    (reduction) block per condition after the step lines, and
    --dump-smtlib gives one script per condition."""
    text = lha_task("CHECK_INVARIANT", 'candidate: "x <= t;"\nprint_steps: true', USER_T_LHA)
    flags = RunFlags(dump_reduction=True, dump_smtlib="scripts")
    report, code, (outcome,) = run_task_file(text, flags)
    names = ["I_a", "F_flow_a", "F_flow_b", "F_jump_a_b_1"]
    block = extra_block(report)
    assert code == 0 and [l for l in block if l.startswith("(reduction)")] == ["(reduction) %s:" % n for n in names]
    assert block[4] == "(step) satisfiable under the complete-instantiation assumption"
    assert block[5:8] == ["(reduction) I_a:", "    x = _0;", "    x > t;"]
    assert [label for label, _ in outcome.smtlib] == names


def test_each_condition_is_reduced_once(monkeypatch):
    """With both dumps on, a constraint task and an automaton's
    CHECK_INVARIANT task reduce each condition once: the dumps show the
    reduction the task projected or decided."""
    calls = []
    real = paramverify.reduction.reduce_chain
    counted = lambda *args: calls.append(args) or real(*args)
    monkeypatch.setattr(paramverify.runner, "reduce_chain", counted)
    monkeypatch.setattr(paramverify.symelim, "reduce_chain", counted)
    flags = RunFlags(dump_reduction=True, dump_smtlib="scripts")
    tasks = [
        ((DATA / "ex1_constraint.yaml").read_text(), 1),
        (lha_task("GENERATE_CONSTRAINTS", 'candidate: "x <= t;"\nvcs: [I_a, F_flow_b]', USER_T_LHA), 2),
        (lha_task("CHECK_INVARIANT", 'candidate: "x <= t;"', USER_T_LHA), 4),
    ]
    for text, vcs in tasks:
        del calls[:]
        _, code, (outcome,) = run_task_file(text, flags)
        assert code == 0 and len(calls) == len(outcome.smtlib) == vcs
        assert len([l for _, l in outcome.extra if l.startswith("(reduction)")]) == vcs


def test_strengthening_hands_no_statement_list_to_reduce_chain_twice(monkeypatch):
    """Strengthening reduces each condition once: the consecution
    reduction it decides is the one its constraint is projected from."""
    lists = []
    real = paramverify.reduction.reduce_chain

    def counted(sig, statements, seeds=()):
        lists.append(tuple(statements))
        return real(sig, statements, seeds)

    for module in (paramverify.runner, paramverify.symelim, paramverify.transition):
        monkeypatch.setattr(module, "reduce_chain", counted)
    _, bench_task = workloads().strengthen_copy(1, 0)
    for text in ((DATA / "ex2_strengthening.yaml").read_text(), "tasks:\n" + bench_task):
        del lists[:]
        report, code, _ = run_task_file(text)
        assert code == 0 and "        Inductive Invariant: |-" in report.splitlines()
        assert lists and len(set(lists)) == len(lists)
