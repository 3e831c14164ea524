import os
import re
import subprocess
import sys

import pytest

from conftest import DATA, mask_report
from paramverify.cli import main
from paramverify.errors import ParseError
from paramverify.parsing import MAX_FORMULA_DEPTH, MAX_TERM_DEPTH, parse_formula, parse_task_file
from paramverify.runner import RunFlags, TaskRunner, run_task_file
from paramverify.symelim import check_unsat_with_constraint
from paramverify.parsing import parse_spec


def run_file(name, flags=None):
    return run_task_file((DATA / ("%s.yaml" % name)).read_text(), flags)


def run_python(*args, **env):
    """A fresh interpreter with src on its path, run from the repository
    root, with only PATH, PYTHONPATH and env in its environment."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={"PATH": os.environ["PATH"], "PYTHONPATH": "src", **env},
        cwd=str(DATA.parent.parent),
    )


def test_exit_zero_and_result_line():
    report, code, _ = run_file("ex1_constraint")
    assert code == 0
    assert "    Result: (FORALL i). OR(a(i + _1) - a(i) >= _0, d1 - d2 > _0)" in report.splitlines()


def test_metadata_header():
    report, _, _ = run_file("ex1_constraint")
    lines = report.splitlines()
    assert lines[0] == "Metadata:"
    assert re.fullmatch(r"    Date: '\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}'", lines[1])
    assert lines[2] == "    Number of Tasks: 1"
    assert re.fullmatch(r"    Runtime Sum: \d+\.\d{4}", lines[3])


def test_strengthening_report_block():
    report, code, _ = run_file("ex2_strengthening")
    assert code == 0
    masked = mask_report(report)
    expected = """\
example_4.16:
    Result:
        Inductive Invariant: |-
            d1 - d2 <= _0;
            (FORALL i). a(i + _1) - a(i) >= _0;
    Runtime: MASKED
    Extra:
        1. Iteration:
            (step) current candidate: d1 <= d2;
            (step) negated candidate: d1 - d2 > _0;
            (step) negated and updated candidate: d1p - d2p > _0;
            (step) created subtask:
                name: example_4.16_ST_strengthening_1_
                mode: Mode.SYMBOL_ELIMINATION
            (step) verification condition init: true
            (step) verification condition: false
            (step) new candidate: |-
                d1 - d2 <= _0;
                (FORALL i). a(i + _1) - a(i) >= _0;
        2. Iteration:
            (step) current candidate: |-
                d1 - d2 <= _0;
                (FORALL i). a(i + _1) - a(i) >= _0;
            (step) negated candidate: OR(a(sk_i + _1) - a(sk_i) < _0, d1 - d2 > _0);
            (step) negated and updated candidate: OR(ap(sk_i + _1) - ap(sk_i) < _0, d1p - d2p > _0);
            (step) created subtask:
                name: example_4.16_ST_VC_update_2
                mode: Mode.GENERATE_CONSTRAINTS
            (step) verification condition init: true
            (step) verification condition: true"""
    assert expected in masked


def test_zero_tasks_exit_two(tmp_path):
    empty = tmp_path / "none.yaml"
    empty.write_text("tasks:\n")
    assert main([str(empty)]) == 2


def test_parse_error_exit_two(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        (DATA / "ex1_constraint.yaml").read_text().replace("d1p = ap(i);", "d1p = ap(i;")
    )
    assert main([str(bad)]) == 2


@pytest.mark.parametrize(
    "nested",
    [
        lambda depth: " + ".join(["d1"] * (depth + 1)),  # a sum of depth + 1 terms
        lambda depth: "(" * depth + "d1" + ")" * depth,
        lambda depth: "-" * depth + "d1",
    ],
    ids=["sum", "parentheses", "negations"],
)
def test_term_nesting_limit(tmp_path, capsys, nested):
    """A query term nested MAX_TERM_DEPTH levels deep runs through the
    CLI; one level deeper is a parse error naming the task and the entry,
    with its position in the entry, exit 2."""
    base = (DATA / "pts_check_unsorted.yaml").read_text()
    for depth, code in ((MAX_TERM_DEPTH, 0), (MAX_TERM_DEPTH + 1, 2)):
        path = tmp_path / ("depth%d.yaml" % depth)
        path.write_text(base.replace("d1 <= d2;", nested(depth) + " <= d2;"))
        assert main([str(path)]) == code
        out, err = capsys.readouterr()
        if code:
            assert re.fullmatch(
                r"parse error: task check_unsorted: specification entry query: 1:\d+: "
                r"term nested deeper than %d levels\n" % MAX_TERM_DEPTH,
                err,
            )
        else:
            assert "Result: " in out and not err


@pytest.mark.parametrize(
    "nested",
    [
        lambda depth: "OR(" * depth + "d1 <= d2" + ")" * depth,
        lambda depth: "NOT(" * depth + "d1 > d2" + ")" * depth,
        lambda depth: "AND(d1 <= d2, " * depth + "d1 <= d2" + ")" * depth,
        lambda depth: "d1 > d2 --> " * depth + "d1 <= d2",  # depth implications, nested rightwards
    ],
    ids=["or", "not", "and", "implications"],
)
def test_formula_nesting_limit(tmp_path, capsys, nested):
    """A query formula nested MAX_FORMULA_DEPTH levels deep runs through
    the CLI; one level deeper is a parse error naming the task and the
    entry, with its position in the entry, exit 2."""
    base = (DATA / "pts_check_unsorted.yaml").read_text()
    for depth, code in ((MAX_FORMULA_DEPTH, 0), (MAX_FORMULA_DEPTH + 1, 2)):
        path = tmp_path / ("depth%d.yaml" % depth)
        path.write_text(base.replace("d1 <= d2;", nested(depth) + ";"))
        assert main([str(path)]) == code
        out, err = capsys.readouterr()
        if code:
            assert re.fullmatch(
                r"parse error: task check_unsorted: specification entry query: 1:\d+: "
                r"formula nested deeper than %d levels\n" % MAX_FORMULA_DEPTH,
                err,
            )
        else:
            assert "Result: " in out and not err


@pytest.mark.parametrize(
    "option, value, least",
    [
        ("bmc_k", "-1", 0),
        ("bmc_k", "abc", 0),
        ("bmc_k", "1.5", 0),
        ("bmc_k", "true", 0),
        ("inv_str_max_iter", "0", 1),
        ("inv_str_max_iter", "x", 1),
        ("inv_str_max_iter", "2.0", 1),
        ("inv_str_max_iter", "false", 1),
    ],
)
def test_malformed_numeric_option_exit_two(tmp_path, option, value, least):
    """bmc_k must be an int >= 0 and inv_str_max_iter an int >= 1; any
    other value is a parse error naming the task and the option."""
    task_file = tmp_path / "bad_option.yaml"
    text = (DATA / "ex2_strengthening.yaml").read_text()
    task_file.write_text(text.replace("inv_str_max_iter: 2", "%s: %s" % (option, value)))
    proc = run_python("-m", "paramverify.cli", str(task_file))
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        "parse error: task example_4.16: option %s must be an integer >= %d, got " % (option, least)
    )
    assert "Traceback" not in proc.stderr and not proc.stdout


@pytest.mark.parametrize(
    "line, option",
    [
        ("parameter: 5", "parameter"),
        ("eliminate: 5", "eliminate"),
        ("parameter: d1d2", "parameter"),
        ("parameter: [1]", "parameter"),
        ("parameter: [a, d1, d2]\n            vcs: 5", "vcs"),
    ],
    ids=["parameter-int", "eliminate-int", "parameter-string", "parameter-int-item", "vcs-int"],
)
def test_malformed_symbol_list_option_exit_two(tmp_path, line, option):
    """parameter, eliminate and vcs are lists of strings: an int is not
    iterated, a string is not read by substring, and an int item does
    not quietly match nothing.  Any other shape is a parse error naming
    the task and the option, exit 2, with no traceback."""
    task_file = tmp_path / "bad_option.yaml"
    text = (DATA / "ex1_constraint.yaml").read_text()
    task_file.write_text(text.replace("parameter: [a, d1, d2]", line))
    proc = run_python("-m", "paramverify.cli", str(task_file))
    assert proc.returncode == 2
    assert proc.stderr == (
        "parse error: task example constraint generation: option %s must be a list of strings\n" % option
    )
    assert "Traceback" not in proc.stderr and not proc.stdout


PTS_TASK = "{mode: BMC, specification_type: PTS, %s}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("tasks: {t: [1, 2]}", "task t must be a mapping"),
        ("tasks: {t: %s}" % PTS_TASK % "options: [a]", "task t: options must be a mapping"),
        ("task_options: [1]\ntasks: {t: %s}" % PTS_TASK % "specification: {}", "task_options must be a mapping"),
        (
            "tasks: {t: {mode: GENERATE_CONSTRAINTS, specification_type: HPILOT, "
            "options: {parameter: [a]}, specification: {file: 5}}}",
            "task t: specification entry file must be a string",
        ),
        ("tasks: {t: %s}" % PTS_TASK % "specification: {init: [1]}", "task t: specification entry init must be a string"),
        (
            "tasks: {t: %s}" % PTS_TASK % "specification: {update_vars: [a]}",
            "task t: specification entry update_vars must be a mapping",
        ),
        ("tasks: {t: %s}" % PTS_TASK % "specification: [1]", "task t: PTS specification must be a mapping"),
        (
            "tasks: {t: %s}" % PTS_TASK % "options: {assumptions: 5}, specification: {}",
            "task t: option assumptions must be a string or a list of strings",
        ),
        (
            "tasks: {t: %s}" % PTS_TASK % "options: {assumptions: [a > _0, 1]}, specification: {}",
            "task t: option assumptions must be a string or a list of strings",
        ),
    ],
    ids=[
        "task-list",
        "options-list",
        "task_options-list",
        "file-int",
        "init-list",
        "update_vars-list",
        "specification-list",
        "assumptions-int",
        "assumptions-int-item",
    ],
)
def test_malformed_task_file_shape_exit_two(tmp_path, text, message):
    """Task bodies, options, task_options and PTS specifications are
    mappings, specification texts are strings and assumptions a string
    or a list of strings; any other shape is a parse error naming the
    task and the key, exit 2, with no traceback."""
    task_file = tmp_path / "bad_shape.yaml"
    task_file.write_text(text + "\n")
    proc = run_python("-m", "paramverify.cli", str(task_file))
    assert proc.returncode == 2
    assert proc.stderr == "parse error: %s\n" % message
    assert not proc.stdout


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        (
            "ex2_strengthening",
            '"{(b, 1, 1), (a, 1, 2)',
            '"{(b, 1, 0), (a, 1, 2)',
            "task example_4.16: extension level of b must be >= 1",
        ),
        (
            "ex1_constraint",
            "(>,2)}",
            "(>,2), (b,1)}",
            "task example constraint generation: symbol declared twice: b",
        ),
        (
            "ex1_constraint",
            "(*,2)}",
            "(*,2), (ap,1)}",
            "task example constraint generation: symbol declared twice: ap",
        ),
    ],
    ids=["pts-extension-level-zero", "hpilot-function-and-relation", "hpilot-base-and-extension"],
)
def test_signature_error_in_task_file_exit_two(tmp_path, capsys, name, old, new, message):
    """A signature that a task file declares wrongly is a parse error
    naming the task, exit 2, not an engine error."""
    text = (DATA / ("%s.yaml" % name)).read_text()
    assert old in text
    task_file = tmp_path / "bad_signature.yaml"
    task_file.write_text(text.replace(old, new, 1))
    assert main([str(task_file)]) == 2
    out, err = capsys.readouterr()
    assert err == "parse error: %s\n" % message and not out


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        (
            "ex1_constraint",
            "    d1 <= d2;",
            "    d1 <= ;",
            "task example constraint generation: specification entry file: 6:11: expected a term, found ';'",
        ),
        (
            "ex2_strengthening",
            "d1 = _1;",
            "d1 = ;",
            "task example_4.16: specification entry init: 1:6: expected a term, found ';'",
        ),
        (
            "ex2_strengthening",
            '"{(b, 1, 1), (a, 1, 2)',
            '"{(b, 1, 1) (a, 1, 2)',
            "task example_4.16: specification entry extension_functions: 1:12: expected '}', found '('",
        ),
    ],
    ids=["hpilot-file", "pts-init", "pts-extension_functions"],
)
def test_syntax_error_in_specification_names_task_and_entry(tmp_path, capsys, name, old, new, message):
    """A syntax error in a task's specification text names the task and
    the entry, with its position in that entry, exit 2."""
    text = (DATA / ("%s.yaml" % name)).read_text()
    assert old in text
    task_file = tmp_path / "bad_syntax.yaml"
    task_file.write_text(text.replace(old, new, 1))
    assert main([str(task_file)]) == 2
    out, err = capsys.readouterr()
    assert err == "parse error: %s\n" % message and not out


# a valid specification of each type, in YAML flow style
SPECIFICATIONS = {
    "HPILOT": "{file: 'Query := x > _0;'}",
    "PTS": "{init: 'x = _0;', update: 'xp = x;', query: 'x <= _1;', update_vars: {x: xp}}",
    "LHA": "{file: 'variables: x; mode a: inv: x <= _1; flow: d(x) <= _1;'}",
}
ALL_OPTIONS = "{parameter: [x], candidate: 'x <= _1;'}"
ACCEPTED = [
    ("GENERATE_CONSTRAINTS", "HPILOT"),
    ("GENERATE_CONSTRAINTS", "LHA"),
    ("INVARIANT_STRENGTHENING", "PTS"),
    ("CHECK_INVARIANT", "PTS"),
    ("CHECK_INVARIANT", "LHA"),
    ("BMC", "PTS"),
    ("CHATTER_FREE", "LHA"),
]
REJECTED = [
    ("GENERATE_CONSTRAINTS", "PTS", "HPILOT or LHA"),
    ("INVARIANT_STRENGTHENING", "HPILOT", "PTS"),
    ("INVARIANT_STRENGTHENING", "LHA", "PTS"),
    ("CHECK_INVARIANT", "HPILOT", "PTS or LHA"),
    ("BMC", "HPILOT", "PTS"),
    ("BMC", "LHA", "PTS"),
    ("CHATTER_FREE", "HPILOT", "LHA"),
    ("CHATTER_FREE", "PTS", "LHA"),
]


def task_text(mode, spec_type, options, specification=None):
    return "{mode: %s, specification_type: %s, options: %s, specification: %s}" % (
        mode,
        spec_type,
        options,
        SPECIFICATIONS[spec_type] if specification is None else specification,
    )


def one_task(mode, spec_type, options, specification=None):
    return "tasks: {t: %s}\n" % task_text(mode, spec_type, options, specification)


@pytest.mark.parametrize("mode, spec_type", ACCEPTED, ids=["%s-%s" % pair for pair in ACCEPTED])
def test_mode_on_its_specification_type_parses(mode, spec_type):
    (task,) = parse_task_file(one_task(mode, spec_type, ALL_OPTIONS)).tasks.values()
    assert (task.mode, task.spec_type) == (mode, spec_type)


@pytest.mark.parametrize("mode, spec_type, runs_on", REJECTED, ids=["%s-%s" % case[:2] for case in REJECTED])
def test_mode_on_other_specification_type_exit_two(tmp_path, capsys, mode, spec_type, runs_on):
    """Each mode runs on its own specification types; any other pairing
    is a parse error naming the task, exit 2, not an engine error."""
    task_file = tmp_path / "mismatch.yaml"
    task_file.write_text(one_task(mode, spec_type, ALL_OPTIONS))
    assert main([str(task_file)]) == 2
    out, err = capsys.readouterr()
    assert err == "parse error: task t: mode %s runs on %s specifications, not %s\n" % (mode, runs_on, spec_type)
    assert not out


@pytest.mark.parametrize(
    "mode, spec_type, options, message",
    [
        ("INVARIANT_STRENGTHENING", "PTS", "{}", "INVARIANT_STRENGTHENING needs a non-empty parameter list"),
        ("INVARIANT_STRENGTHENING", "PTS", "{parameter: []}", "INVARIANT_STRENGTHENING needs a non-empty parameter list"),
        (
            "GENERATE_CONSTRAINTS",
            "LHA",
            "{parameter: [x]}",
            "GENERATE_CONSTRAINTS on an LHA specification needs a candidate option",
        ),
        ("CHECK_INVARIANT", "LHA", "{}", "CHECK_INVARIANT on an LHA specification needs a candidate option"),
        ("CHECK_INVARIANT", "LHA", "{candidate: ''}", "CHECK_INVARIANT on an LHA specification needs a candidate option"),
    ],
    ids=["parameter-missing", "parameter-empty", "lha-generate-candidate-missing", "lha-check-candidate-missing", "lha-check-candidate-empty"],
)
def test_missing_required_option_exit_two(tmp_path, capsys, mode, spec_type, options, message):
    """Strengthening needs a parameter list, and constraint generation
    and invariant checking on a hybrid automaton need a candidate: a
    parse error naming the task, exit 2, not an engine error."""
    task_file = tmp_path / "missing_option.yaml"
    task_file.write_text(one_task(mode, spec_type, options))
    assert main([str(task_file)]) == 2
    out, err = capsys.readouterr()
    assert err == "parse error: task t: %s\n" % message and not out


LHA_BODY = "variables: x; mode a: inv: %s flow: %s init: x = _0; edge a -> a: guard: x >= _1; jump: xp = _0;"


@pytest.mark.parametrize(
    "inv, flow, message",
    [
        ("x <= _1;", "OR(d(x) <= _1, d(x) >= _2);", "flow conditions must be conjunctions of atoms"),
        ("x <= _1;", "d(x + _1) <= _1;", "malformed derivative term d(x + _1)"),
        ("x <= _1;", "d(y) <= _1;", "derivative of undeclared variable y"),
        ("x <= _1;", "d(x) <= xp;", "flow condition mentions primed variable xp"),
        ("OR(x <= _1, x >= _2);", "d(x) <= _1;", "inv predicates must be conjunctions of atoms"),
    ],
    ids=["flow-not-atom", "malformed-derivative", "undeclared-derivative", "primed-in-flow", "inv-not-atom"],
)
def test_lha_atom_error_exit_two(tmp_path, capsys, inv, flow, message):
    """Flows and state predicates of the wrong shape are found when the
    automaton is parsed: a parse error naming the task, exit 2, not an
    engine error."""
    task_file = tmp_path / "bad_lha.yaml"
    body = "{file: '%s'}" % (LHA_BODY % (inv, flow))
    task_file.write_text(one_task("CHECK_INVARIANT", "LHA", ALL_OPTIONS, body))
    assert main([str(task_file)]) == 2
    out, err = capsys.readouterr()
    assert err == "parse error: task t: %s\n" % message and not out


# a task that runs before the task under test, and reads no flag
FIRST_TASK = "    first: {mode: BMC, specification_type: PTS, specification: %s}\n" % SPECIFICATIONS["PTS"]
ENVELOPED_LHA = "{file: 'variables: x; mode a: inv: x <= _1; flow: d(x) <= _1; inenv: x <= _1; %s'}"
LOOP_EDGE = "edge a -> a: guard: x >= _1; jump: xp = _0;"
INPUT_ERRORS = [
    ("CHECK_INVARIANT", "LHA", "{candidate: 'x <= ;'}", None, [], "option candidate: 1:6: expected a term, found ';'"),
    (
        "CHECK_INVARIANT",
        "LHA",
        "{candidate: 'x <= _1;', assumptions: ['q <= ;']}",
        None,
        [],
        "option assumptions: 1:6: expected a term, found ';'",
    ),
    (
        "CHECK_INVARIANT",
        "LHA",
        "{candidate: 'x <= _1;', assumptions: [q != _1]}",
        None,
        [],
        "option assumptions: assumption q != _1 is a disjunction; assume one side of it",
    ),
    (
        "GENERATE_CONSTRAINTS",
        "HPILOT",
        "{parameter: [x], assumptions: ['OR(x <= _0, x >= _1)']}",
        None,
        [],
        "option assumptions: assumptions must be a conjunction of atoms",
    ),
    (
        "CHATTER_FREE",
        "LHA",
        "{epsilon: 'e +'}",
        ENVELOPED_LHA % LOOP_EDGE,
        [],
        "option epsilon: 1:4: expected a term, found 'end of input'",
    ),
    (
        "CHECK_INVARIANT",
        "LHA",
        "{candidate: 'x <= _1;'}",
        None,
        ["--assume", "q <= ;"],
        "flag --assume: 1:6: expected a term, found ';'",
    ),
    (
        "GENERATE_CONSTRAINTS",
        "HPILOT",
        "{parameter: [x]}",
        None,
        ["--seed-closure", "{seeds}"],
        "flag --seed-closure: 1:4: expected ')', found 'end of input'",
    ),
    (
        "GENERATE_CONSTRAINTS",
        "LHA",
        "{candidate: 'x <= _1;', vcs: [F_flow_a, F_flow_b]}",
        None,
        [],
        "vcs entry F_flow_b matches no verification condition",
    ),
    ("CHATTER_FREE", "LHA", "{vcs: [a_a_1, a_b_1]}", ENVELOPED_LHA % LOOP_EDGE, [], "vcs entry a_b_1 matches no edge"),
    (
        "CHATTER_FREE",
        "LHA",
        "{}",
        "{file: 'variables: x; mode a: inv: x <= _1; flow: d(x) <= _1; %s'}" % LOOP_EDGE,
        [],
        "edge a -> a has no inner envelope on either side",
    ),
    (
        "CHECK_INVARIANT",
        "LHA",
        "{candidate: 'x <= _1;'}",
        "{file: 'variables: x; mode a: inv: x <= _1; flow: c * d(x) <= _1;'}",
        [],
        "derivative term scaled by a symbol in c * d(x)",
    ),
]


@pytest.mark.parametrize(
    "mode, spec_type, options, specification, flags, message",
    INPUT_ERRORS,
    ids=[
        "candidate",
        "assumption",
        "assumption-disequality",
        "assumption-or",
        "epsilon",
        "assume-flag",
        "seed-closure-flag",
        "vcs-condition",
        "vcs-edge",
        "no-envelope",
        "scaled-derivative",
    ],
)
def test_input_error_of_second_task_runs_no_task(
    tmp_path, capsys, monkeypatch, mode, spec_type, options, specification, flags, message
):
    """An error in any input of any task (an option text, a flag read
    against the task's signature, or the automaton conditions built from
    them) is a parse error naming the task and the input, exit 2, found
    before the first task runs: no report and no result is printed."""
    ran = []
    monkeypatch.setattr(TaskRunner, "run", lambda self, *args: ran.append(args))
    (tmp_path / "seeds.txt").write_text("f(x\n")
    task_file = tmp_path / "two_tasks.yaml"
    task_file.write_text("tasks:\n%s    bad: %s\n" % (FIRST_TASK, task_text(mode, spec_type, options, specification)))
    flags = [f.format(seeds=tmp_path / "seeds.txt") for f in flags]
    assert main([str(task_file)] + flags) == 2
    out, err = capsys.readouterr()
    *warnings, error = err.splitlines()
    assert error == "parse error: task bad: " + message
    assert all(w.startswith("warning: task first: flag ") for w in warnings)
    assert not out and not ran


@pytest.mark.parametrize(
    "line, message",
    [
        ("epsilon: true", "epsilon must be a finite number or a term, got True"),
        ("epsilon: [1]", "epsilon must be a finite number or a term, got [1]"),
        ("epsilon: .inf", "epsilon must be a finite number or a term, got inf"),
        ("candidate: 5", "candidate must be a string, got 5"),
        ("slfq_query: 1", "slfq_query must be true or false, got 1"),
        ('print_steps: "false"', "print_steps must be true or false, got 'false'"),
        ("print_steps:", "print_steps must be true or false, got None"),
    ],
    ids=[
        "epsilon-bool",
        "epsilon-list",
        "epsilon-inf",
        "candidate-int",
        "slfq_query-int",
        "print_steps-string",
        "print_steps-null",
    ],
)
@pytest.mark.parametrize("where", ["options", "task_options"])
def test_malformed_scalar_option_exit_two(tmp_path, capsys, line, message, where):
    """epsilon is a finite int or float or a term, candidate a
    string, slfq_query and print_steps true or false, in a task's
    options and in task_options alike.  Any other value is a parse error
    naming the task and the option, exit 2."""
    text = (DATA / "ex1_constraint.yaml").read_text().replace("            slfq_query: true\n", "")
    if where == "options":
        text = text.replace("        options:\n", "        options:\n            %s\n" % line)
    else:
        text = "task_options:\n    %s\n%s" % (line, text)
    task_file = tmp_path / "bad_option.yaml"
    task_file.write_text(text)
    assert main([str(task_file)]) == 2
    out, err = capsys.readouterr()
    assert err == "parse error: task example constraint generation: option %s\n" % message and not out


def test_assumptions_string_is_one_text():
    """assumptions given as one ';'-separated string read as the list of
    its statements."""
    text = (DATA / "chatter_e14.yaml").read_text()
    listed = "assumptions: [dmin > _0, dmax > dmin, da > _0]"
    assert listed in text
    as_list, code, _ = run_task_file(text)
    as_string, string_code, _ = run_task_file(text.replace(listed, 'assumptions: "dmin > _0; dmax > dmin; da > _0"'))
    assert code == string_code == 0
    assert mask_report(as_string) == mask_report(as_list)


def test_engine_error_exit_one(tmp_path):
    nonlinear = tmp_path / "nl.yaml"
    nonlinear.write_text(
        """
tasks:
    squares:
        mode: GENERATE_CONSTRAINTS
        options:
            eliminate: [x]
        specification_type: HPILOT
        specification_theory: REAL_CLOSED_FIELDS
        specification:
            file: |
                Base_functions := {(+,2), (-,2), (*,2)}
                Extension_functions :=  {}
                Relations := {(<=,2), (<,2), (>=,2), (>,2)}
                Query := x * x <= _1;
"""
    )
    assert main([str(nonlinear)]) == 1


def test_parameter_application_over_an_eliminated_symbol_exit_one(tmp_path, capsys):
    """A kept parameter application whose argument holds an eliminated
    extension symbol, a(b(c)) with parameter a, leaves no constraint
    over the parameters alone: the task's result is that SortError, and
    the exit code is 1."""
    task_file = tmp_path / "nested.yaml"
    task_file.write_text(
        """
tasks:
    nested:
        mode: GENERATE_CONSTRAINTS
        options:
            parameter: [a]
        specification_type: HPILOT
        specification_theory: REAL_CLOSED_FIELDS
        specification:
            file: |
                Base_functions := {(+,2), (-,2), (*,2)}
                Extension_functions := {(b, 1, 1), (a, 1, 2)}
                Relations := {(<=,2), (<,2), (>=,2), (>,2)}
                Query := a(b(c)) > _0;
"""
    )
    assert main([str(task_file)]) == 1
    out, err = capsys.readouterr()
    assert not err
    assert [line for line in out.splitlines() if line.startswith("    Result:")] == [
        "    Result: error: SortError: argument of parameter application a(b(c)) contains eliminated symbol b"
    ]


NONLINEAR_TASK = """
    squares:
        mode: GENERATE_CONSTRAINTS
        options:
            eliminate: [x]
        specification_type: HPILOT
        specification_theory: REAL_CLOSED_FIELDS
        specification:
            file: |
                Base_functions := {(+,2), (-,2), (*,2)}
                Extension_functions :=  {}
                Relations := {(<=,2), (<,2), (>=,2), (>,2)}
                Query := x * x <= p;
"""


def test_engine_error_ends_its_task_not_the_run(tmp_path, capsys):
    """A task the engine cannot finish reports its error as its result,
    the error's class and message, and the tasks before and after it
    still report theirs; the exit code is 1."""
    ex1 = (DATA / "ex1_constraint.yaml").read_text()
    task_file = tmp_path / "two.yaml"
    task_file.write_text(ex1 + NONLINEAR_TASK + ex1.split("tasks:\n", 1)[1].replace("example constraint", "again"))
    assert main([str(task_file)]) == 1
    out, err = capsys.readouterr()
    assert not err
    result = "    Result: (FORALL i). OR(a(i + _1) - a(i) >= _0, d1 - d2 > _0)"
    lines = out.splitlines()
    assert lines[2] == "    Number of Tasks: 3"
    assert [line for line in lines if line.startswith("    Result:")] == [
        result,
        "    Result: error: NonLinearError: symbol x occurs with degree >= 2",
        result,
    ]
    report, code, outcomes = run_task_file(task_file.read_text())
    assert code == 1 and [o.name for o in outcomes] == ["example constraint generation", "squares", "again generation"]


def test_assumption_texts_read_comments(tmp_path):
    """An assumption text is read as a candidate is, '#' comments
    included, and its last ';' may be left out, in --assume and in the
    assumptions option alike."""
    plain, code, _ = run_task_file((DATA / "ex1_constraint.yaml").read_text(), RunFlags(assume="d1 <= d2"))
    assert code == 0 and "    Result: (FORALL i). a(i + _1) - a(i) >= _0" in plain.splitlines()
    for text in ("d1 <= d2 # sorted", "d1 <= d2; # sorted", "# sorted\nd1 <= d2;\n# done"):
        assert main([str(DATA / "ex1_constraint.yaml"), "--assume", text]) == 0
        report, code, _ = run_task_file((DATA / "ex1_constraint.yaml").read_text(), RunFlags(assume=text))
        assert code == 0 and mask_report(report) == mask_report(plain)
    text = (DATA / "ex1_constraint.yaml").read_text()
    for option in (
        'assumptions: ["d1 <= d2 # sorted"]',
        'assumptions: "d1 <= d2; # sorted"',
        "assumptions: |\n                d1 <= d2  # sorted\n                # nothing else",
    ):
        task_file = tmp_path / "assumed.yaml"
        task_file.write_text(text.replace("            slfq_query: true\n", "            slfq_query: true\n            %s\n" % option))
        report, code, _ = run_task_file(task_file.read_text())
        assert code == 0 and mask_report(report) == mask_report(plain), option


DISEQUALITY_ERROR = (
    "parse error: task example constraint generation: %s: assumption d1 != _5 is a disjunction; assume one side of it"
)


def test_disequality_assumption_rejected(tmp_path, capsys):
    """p != c cannot be assumed: it is p < c or p > c, and reading it as
    both halves at once would make every result vacuously true.  It is
    an input error of the task that gives it, exit 2."""
    assert main([str(DATA / "ex1_constraint.yaml"), "--assume", "d1 != _5"]) == 2
    assert capsys.readouterr().err.strip() == DISEQUALITY_ERROR % "flag --assume"
    task_file = tmp_path / "assumed.yaml"
    text = (DATA / "ex1_constraint.yaml").read_text()
    task_file.write_text(text.replace("            slfq_query: true\n", "            slfq_query: true\n            assumptions: [d1 != _5]\n"))
    assert main([str(task_file)]) == 2
    assert capsys.readouterr().err.strip() == DISEQUALITY_ERROR % "option assumptions"
    assert main([str(DATA / "ex1_constraint.yaml"), "--assume", "d1 <= _5"]) == 0
    assert "    Result: (FORALL i). OR(a(i + _1) - a(i) >= _0, d1 - d2 > _0)" in capsys.readouterr().out.splitlines()


def test_missing_file_exit_two(tmp_path):
    assert main([str(tmp_path / "missing.yaml")]) == 2


def test_task_file_not_utf8_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"tasks:\n  t: {mode: BMC}\n\xff\n")
    assert main([str(bad)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("cannot read %s: not UTF-8 text (" % bad) and not out


@pytest.mark.parametrize(
    "content, reason",
    [(None, "No such file or directory"), (b"f(u)\n\xfe\n", "not UTF-8 text (")],
    ids=["missing", "not-utf8"],
)
def test_seed_closure_file_error_names_that_file(tmp_path, capsys, content, reason):
    seeds = tmp_path / "seeds.txt"
    if content is not None:
        seeds.write_bytes(content)
    assert main([str(DATA / "ex1_constraint.yaml"), "--seed-closure", str(seeds)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("cannot read %s: %s" % (seeds, reason)) and not out


@pytest.mark.parametrize(
    "entry, text, message",
    [
        ("init", "x <= _1/0;", "init: 1:6: numeral with zero denominator"),
        ("init", "x <= _0/0;", "init: 1:6: numeral with zero denominator"),
        ("init", "x <= _²;", "init: 1:6: malformed numeral"),
        ("extension_functions", "{(f, ², 1)}", "extension_functions: 1:6: unexpected character '²'"),
    ],
)
def test_unreadable_numeral_or_integer_exit_two(tmp_path, capsys, entry, text, message):
    """Numerals and integers whose digits int does not read, and a zero
    denominator, are parse errors of the task, exit 2."""
    spec = {"init": "x = _0;", "update": "xp = x;", "query": "x <= _1;", entry: text}
    pts = "{%s, update_vars: {x: xp}}" % ", ".join("%s: '%s'" % item for item in spec.items())
    task_file = tmp_path / "numerals.yaml"
    task_file.write_text(one_task("CHECK_INVARIANT", "PTS", "{}", pts), encoding="utf-8")
    assert main([str(task_file)]) == 2
    out, err = capsys.readouterr()
    assert err == "parse error: task t: specification entry %s\n" % message and not out


def test_out_file_identical(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = main([str(DATA / "ex1_constraint.yaml"), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout


def test_task_selection():
    flags = RunFlags(tasks=["nonexistent"])
    with pytest.raises(ParseError):
        run_file("ex1_constraint", flags)


def test_task_name_matching_no_task_exit_two(capsys):
    """Every --task name must name a task: a misspelt one beside a real
    one is a parse error naming the names that match nothing, not a run
    of the real task alone."""
    path = str(DATA / "ex1_constraint.yaml")
    args = [path, "--task", "example constraint generation", "--task", "typo", "--task", "example"]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert err == "parse error: --task names no task: example, typo\n" and not out
    assert main(args[:3]) == 0
    assert "    Number of Tasks: 1" in capsys.readouterr().out.splitlines()


def data_text(name):
    return (DATA / ("%s.yaml" % name)).read_text()


LHA_ELIMINATING = one_task("GENERATE_CONSTRAINTS", "LHA", "{candidate: 'x <= _1;', eliminate: [x, xp, t]}")


@pytest.mark.parametrize(
    "text, old, new, message",
    [
        (data_text("ex1_constraint"), "parameter: [a, d1, d2]", "parameter: [a, d1, dd2]", "option parameter: dd2"),
        (data_text("ex1_constraint"), "parameter: [a, d1, d2]", "eliminate: [b, ap, ip, d1p, d2p, e]", "option eliminate: e"),
        (data_text("ex2_strengthening"), "parameter: [a, d1, d2]", "parameter: [a, c, d]", "option parameter: c, d"),
        (data_text("chem_mode1"), "eliminate: [x1, x2, x3, x1p, x2p, x3p, t]", "parameter: [lf, ld]", "option parameter: ld"),
        (LHA_ELIMINATING, "eliminate: [x, xp, t]", "eliminate: [x, xp, t, typo]", "option eliminate: typo"),
    ],
    ids=["hpilot-parameter", "hpilot-eliminate", "pts-parameter", "hpilot-flow-parameter", "lha-eliminate"],
)
def test_parameter_naming_no_symbol_exit_two(tmp_path, capsys, text, old, new, message):
    """A parameter or an eliminated symbol that is no symbol of the task
    would silently change which symbols a result keeps: a parse error
    naming the task, the option and the names.  Only an LHA task's
    eliminate list may name t, which the task need not declare."""
    assert old in text
    task_file = tmp_path / "misnamed.yaml"
    task_file.write_text(text.replace(old, new))
    assert main([str(task_file)]) == 2
    task = parse_task_file(text).tasks
    out, err = capsys.readouterr()
    assert err == "parse error: task %s: %s names no symbol of the task\n" % (*task, message) and not out


CHECK_PTS, STRENGTHEN_PTS = "CHECK_INVARIANT on PTS", "INVARIANT_STRENGTHENING on PTS"
GENERATE_HPILOT = "GENERATE_CONSTRAINTS on HPILOT"
IGNORED = [
    ("pts_check_unsorted", "print_steps: true", "assumptions: [d1 >= _0]", [], "option 'assumptions'", CHECK_PTS),
    ("ex2_strengthening", "inv_str_max_iter: 2", "assumptions: [d1 >= _0]", [], "option 'assumptions'", STRENGTHEN_PTS),
    ("ex1_constraint", "slfq_query: true", "epsilon: _1", [], "option 'epsilon'", GENERATE_HPILOT),
    ("ex1_constraint", "slfq_query: true", "candidate: 'd1 <= ;'", [], "option 'candidate'", GENERATE_HPILOT),
    ("pts_check_unsorted", "", "", ["--dump-reduction"], "flag --dump-reduction", CHECK_PTS),
    ("ex2_strengthening", "", "", ["--dump-smtlib", "{tmp}"], "flag --dump-smtlib", STRENGTHEN_PTS),
    ("pts_check_unsorted", "", "", ["--assume", "d1 <= ;"], "flag --assume", CHECK_PTS),
]


@pytest.mark.parametrize(
    "name, after, line, flags, ignored, reader",
    IGNORED,
    ids=[
        "assumptions-check",
        "assumptions-strengthen",
        "epsilon",
        "candidate",
        "dump-reduction",
        "dump-smtlib",
        "assume",
    ],
)
def test_input_the_mode_never_reads_warns(tmp_path, capsys, name, after, line, flags, ignored, reader):
    """An option or a flag that the task's mode never reads is ignored,
    and not parsed, with a warning on stderr; the exit code and the
    report are those of the run without it, and no file is written."""
    plain = DATA / ("%s.yaml" % name)
    task_file = tmp_path / "ignored.yaml"
    text = plain.read_text()
    task_file.write_text(text.replace(after, "%s\n            %s" % (after, line)) if line else text)
    assert main([str(plain)]) == 0
    expected = capsys.readouterr()
    assert main([str(task_file)] + [f.format(tmp=tmp_path / "scripts") for f in flags]) == 0
    out, err = capsys.readouterr()
    (task,) = parse_task_file(text).tasks
    assert err == expected.err + "warning: task %s: %s ignored by %s\n" % (task, ignored, reader)
    assert mask_report(out) == mask_report(expected.out)
    assert not (tmp_path / "scripts").exists()


def test_dump_smtlib(tmp_path, capsys):
    code = main(
        [str(DATA / "ex1_constraint.yaml"), "--dump-smtlib", str(tmp_path / "scripts")]
    )
    capsys.readouterr()
    assert code == 0
    files = sorted(os.listdir(tmp_path / "scripts"))
    assert files and files[0].endswith(".smt2")
    text = (tmp_path / "scripts" / files[0]).read_text()
    assert text.startswith("(set-logic QF_LRA)")
    assert text.rstrip().endswith("(check-sat)")


@pytest.mark.parametrize(
    "flag, target, reason",
    [
        ("--out", "missing/r.txt", "No such file or directory"),
        ("--dump-smtlib", "plain.txt", "File exists"),
        ("--dump-smtlib", "plain.txt/scripts", "Not a directory"),
    ],
    ids=["out-in-missing-directory", "dump-smtlib-at-a-file", "dump-smtlib-under-a-file"],
)
def test_unwritable_output_exit_two(tmp_path, capsys, flag, target, reason):
    """A report or script that cannot be written is `cannot write <path>:
    <reason>` on stderr and exit 2, after the report reached stdout; no
    traceback."""
    (tmp_path / "plain.txt").write_text("")
    path = str(tmp_path / target)
    assert main([str(DATA / "ex1_constraint.yaml"), flag, path]) == 2
    out, err = capsys.readouterr()
    assert err == "cannot write %s: %s\n" % (path, reason)
    assert "    Result: (FORALL i). OR(a(i + _1) - a(i) >= _0, d1 - d2 > _0)" in out.splitlines()


def test_dump_reduction_appears_in_extra():
    flags = RunFlags(dump_reduction=True)
    report, _, _ = run_file("ex1_constraint", flags)
    assert "(reduction) problem:" in report


def test_global_assume_flag():
    flags = RunFlags(assume="min >= _0; lsafe >= _0; ea > _0")
    report, _, _ = run_file("chem_mode1", flags)
    assert "    Result: lf - lsafe <= _0" in report.splitlines()


def test_result_formula_closes_problem():
    report, _, _ = run_file("ex1_constraint")
    (line,) = [l for l in report.splitlines() if l.startswith("    Result:")]
    text = line.split("Result:", 1)[1].strip()
    spec = parse_spec((DATA / "ex1_constraint.yaml").read_text().split("file: |")[1].replace("\n                ", "\n"))
    constraint = parse_formula(text + ";", spec.sig.copy())
    assert check_unsat_with_constraint(spec.sig, spec.statements(), constraint)


def test_determinism_across_hash_seeds():
    """Reports match byte for byte even under different interpreter
    hash randomization, after masking time fields.  The PTS task's
    candidate is not inductive, so its report prints a witness; hash
    seeds 0 and 2 iterate its ground atoms in different orders."""
    script = "\n".join(
        [
            "from pathlib import Path",
            "from paramverify.runner import run_task_file",
            "import sys",
            "for path in sorted(Path(r'{data}').glob('*.yaml')):".format(data=DATA),
            "    sys.stdout.write(run_task_file(path.read_text())[0])",
        ]
    )
    outputs = []
    for seed in ("0", "1", "2", "42"):
        proc = run_python("-c", script, PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        outputs.append(mask_report(proc.stdout))
    assert outputs[0].count("Metadata:\n") == len(list(DATA.glob("*.yaml"))) >= 9
    assert "(step) witness: " in outputs[0]
    assert all(out == outputs[0] for out in outputs[1:])


def test_cli_runs_without_pyyaml(capsys):
    """The CLI reads task files without PyYAML: with yaml made
    unimportable it prints the report it prints in-process, and a run
    leaves yaml out of sys.modules."""
    path = str(DATA / "pts_check_unsorted.yaml")
    script = "\n".join(
        [
            "import sys",
            "sys.modules['yaml'] = None  # an import of yaml raises ImportError",
            "from paramverify.cli import main",
            "code = main([%r])" % path,
            "print(sys.modules['yaml'], code)",
        ]
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    *report, last = proc.stdout.splitlines(keepends=True)
    assert last == "None 0\n"
    assert main([path]) == 0
    assert mask_report("".join(report)) == mask_report(capsys.readouterr().out)
    script = "import sys\nfrom paramverify.cli import main\nmain([%r])\nprint('yaml' in sys.modules)" % path
    proc = run_python("-c", script)
    assert proc.returncode == 0 and proc.stdout.splitlines()[-1] == "False", proc.stderr


def test_imports_load_neither_yaml_nor_thread_pool():
    """Importing the library or the CLI loads neither yaml nor a thread
    pool."""
    script = "\n".join(
        [
            "import sys",
            "import paramverify.linear, paramverify.reduction, paramverify.parsing, paramverify.cli",
            "print(sorted(m for m in ('yaml', 'concurrent.futures') if m in sys.modules))",
        ]
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "modules", ["paramverify.cli, paramverify.runner", "paramverify.linear, paramverify.parsing, paramverify.reduction"]
)
def test_imports_load_neither_dataclasses_nor_inspect(modules):
    """Node and record classes are written by hand: importing the CLI or
    the library loads neither dataclasses nor the inspect module it
    pulls in, which together cost tens of milliseconds at start-up."""
    script = "import sys\nimport %s\nprint(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))" % modules
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_unknown_option_warns_on_stderr(tmp_path, capsys):
    """A misspelled option, of a task or under task_options, is ignored
    with a warning on stderr; the exit code and the report are those of
    the file without it."""
    plain = DATA / "ex1_constraint.yaml"
    assert main([str(plain)]) == 0
    expected = capsys.readouterr()
    assert not expected.err
    cases = [
        ("slfq_query: true", "slfq_query: true\n            slfq_querry: true", "task example constraint generation"),
        ("tasks:", "task_options: {slfq_querry: true}\ntasks:", "task_options"),
    ]
    for old, new, where in cases:
        misspelled = tmp_path / "misspelled.yaml"
        misspelled.write_text(plain.read_text().replace(old, new, 1))
        assert main([str(misspelled)]) == 0
        out, err = capsys.readouterr()
        assert err == "warning: %s: unknown option 'slfq_querry' ignored\n" % where
        assert mask_report(out) == mask_report(expected.out)


def test_task_options_option_read_by_no_task_warns(tmp_path, capsys):
    """A known option under task_options that no task of the file reads
    is ignored with one warning; the exit code and the report are those
    of the file without it.  When some task of the file reads it, there
    is no warning."""
    plain = DATA / "ex1_constraint.yaml"
    assert main([str(plain)]) == 0
    expected = capsys.readouterr()
    unread = tmp_path / "unread.yaml"
    unread.write_text("task_options: {epsilon: 1}\n" + plain.read_text())
    assert main([str(unread)]) == 0
    out, err = capsys.readouterr()
    assert err == "warning: task_options: option 'epsilon' read by no task\n"
    assert mask_report(out) == mask_report(expected.out)
    # the strengthening task reads inv_str_max_iter, the constraint task does not
    strengthening = (DATA / "ex2_strengthening.yaml").read_text().split("tasks:\n", 1)[1]
    read = tmp_path / "read.yaml"
    read.write_text("task_options: {inv_str_max_iter: 3}\n" + plain.read_text() + strengthening)
    assert len(parse_task_file(read.read_text()).tasks) == 2
    assert main([str(read)]) == 0
    assert not capsys.readouterr().err


def test_readme_example_result(tmp_path, capsys):
    """The README's example task file gives the Result line the README
    shows for it."""
    readme = (DATA.parent.parent / "README.md").read_text()
    task_text = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    shown = readme.split("Running it prints", 1)[1].split("```", 2)[1]
    (result,) = [line for line in shown.splitlines() if line.startswith("    Result: ")]
    path = tmp_path / "readme.yaml"
    path.write_text(task_text)
    assert main([str(path)]) == 0
    assert result in capsys.readouterr().out.splitlines()


DISEQUALITY_QUERY_TASK = """\
tasks:
    t:
        mode: INVARIANT_STRENGTHENING
        specification_type: PTS
        options: {parameter: [p]}
        specification:
            init: 'x = _1; p = _0;'
            update: 'xp = x + p;'
            query: '%s'
            update_vars: {x: xp}
"""


@pytest.mark.parametrize("query", ["x != _0;", "OR(x < _0, x > _0);"])
def test_strengthening_a_disequality_candidate(tmp_path, capsys, query):
    """A candidate x != _0 strengthens as its disjunction of strict
    halves does: the generated p = _0 is conjoined, not dropped as a
    contradiction of both halves."""
    path = tmp_path / "neq.yaml"
    path.write_text(DISEQUALITY_QUERY_TASK % query)
    assert main([str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    i = lines.index("        Inductive Invariant: |-")
    shown = "x != _0;" if "!=" in query else "OR(x > _0, x < _0);"
    assert lines[i + 1 : i + 4] == ["            %s" % shown, "            p >= _0;", "            p <= _0;"]
