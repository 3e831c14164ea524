"""End-to-end coverage of every task mode through the runner."""

import textwrap

from conftest import PLANT_LHA, PLANT_VARIANT_LHA
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
