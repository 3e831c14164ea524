import json
import random
import re

import pytest

import paramverify.parsing
from conftest import DATA, EX1_SPEC, PLANT_LHA
from oracles import reference_tokenize
from paramverify.errors import ParseError
from paramverify.parsing import (
    parse_decl_string,
    parse_formula,
    parse_lha,
    parse_spec,
    parse_statements,
    parse_task_file,
    parse_term_string,
    position,
    token_starts,
    tokenize,
)
from paramverify.printing import canonical, print_canonical, print_formula
from paramverify.terms import Forall, Signature


def test_parse_quantified_clause():
    spec = parse_spec(EX1_SPEC)
    clause = spec.clauses[1]
    assert isinstance(clause, Forall)
    assert clause.variables == ("j",)
    assert print_formula(clause) == "(FORALL j). ap(j) = a(j) + _1"


def test_extension_declarations_carry_levels():
    spec = parse_spec(EX1_SPEC)
    assert spec.sig.extension_functions["b"] == (1, 1)
    assert spec.sig.extension_functions["a"] == (1, 2)
    assert spec.sig.extension_functions["ap"] == (1, 3)


def test_numeral_sugar():
    sig = Signature()
    f = parse_formula("d1 = _1;", sig)
    assert print_formula(f) == "d1 = _1"


def test_undeclared_function_rejected():
    text = EX1_SPEC.replace("(ap, 1, 3)", "")
    # dangling comma cleanup so only the declaration is missing
    text = text.replace("(a, 1, 2), }", "(a, 1, 2)}").replace("(a, 1, 2), \n", "(a, 1, 2)\n")
    text = re.sub(r"\(a, 1, 2\),\s*}", "(a, 1, 2)}", text)
    with pytest.raises(ParseError):
        parse_spec(text)


def test_declaration_deletion_fuzz():
    """Removing any extension declaration must make the spec unparsable."""
    for fn in ("a", "ap"):
        text = re.sub(r"\(%s, 1, \d\),?\s*" % fn, "", EX1_SPEC)
        with pytest.raises(ParseError):
            parse_spec(text)


def test_error_location_inside_token():
    sig = Signature()
    try:
        parse_statements("x +\n  * y;", sig)
    except ParseError as exc:
        assert exc.line == 2
        assert exc.column == 3
    else:
        pytest.fail("expected a parse error")


def test_arity_mismatch_reported():
    with pytest.raises(ParseError, match="arity"):
        parse_spec(EX1_SPEC.replace("ap(i)", "ap(i, i)"))


def test_round_trip_statements():
    spec = parse_spec(EX1_SPEC)
    sig = spec.sig.copy()
    for f in spec.statements():
        text = print_formula(f) + ";"
        (back,) = parse_statements(text, sig)
        assert canonical(back) == canonical(f)


def test_round_trip_or_forall():
    sig = Signature()
    sig.extension_functions["a"] = (1, 2)
    text = "(FORALL i). OR(a(i + _1) - a(i) >= _0, d1 - d2 > _0);"
    (f,) = parse_statements(text, sig)
    assert print_canonical(f) + ";" == text


def test_parse_task_file_modes():
    text = (DATA / "ex2_strengthening.yaml").read_text()
    tf = parse_task_file(text)
    task = tf.tasks["example_4.16"]
    assert task.mode == "INVARIANT_STRENGTHENING"
    assert task.options["inv_str_max_iter"] == 2
    assert task.options["parameter"] == ["a", "d1", "d2"]
    assert task.body.update_vars == {"a": "ap", "d1": "d1p", "d2": "d2p", "i": "ip"}
    assert any("sehpilot_options" in w for w in tf.warnings)


def test_parse_task_file_parameter_list():
    text = (DATA / "ex1_constraint.yaml").read_text()
    tf = parse_task_file(text)
    task = tf.tasks["example constraint generation"]
    assert task.mode == "GENERATE_CONSTRAINTS"
    assert task.options["parameter"] == ["a", "d1", "d2"]


def test_parse_task_file_fills_option_defaults():
    """Each default a mode reads is in the task's options, set or not;
    those of other modes are not."""
    task = parse_task_file((DATA / "ex1_constraint.yaml").read_text()).tasks["example constraint generation"]
    assert task.options == {"parameter": ["a", "d1", "d2"], "slfq_query": True, "print_steps": False}
    text = (DATA / "pts_check_unsorted.yaml").read_text()
    assert parse_task_file(text).tasks["check_unsorted"].options == {"print_steps": True}
    text = text.replace("mode: CHECK_INVARIANT", "mode: BMC")
    assert parse_task_file(text).tasks["check_unsorted"].options == {"bmc_k": 1, "print_steps": True}


def test_empty_tasks_rejected():
    with pytest.raises(ParseError, match="no tasks"):
        parse_task_file("tasks:\n")


def test_parameter_eliminate_exclusive():
    text = (DATA / "ex1_constraint.yaml").read_text()
    both = text.replace("parameter: [a, d1, d2]", "parameter: [a]\n            eliminate: [d1]")
    with pytest.raises(ParseError, match="mutually exclusive"):
        parse_task_file(both)
    neither = text.replace("parameter: [a, d1, d2]\n", "")
    with pytest.raises(ParseError, match="exactly one"):
        parse_task_file(neither)


def test_unknown_keys_warn_not_fail():
    text = (DATA / "ex1_constraint.yaml").read_text() + "\nfuture_extension: 1\n"
    tf = parse_task_file(text)
    assert any("future_extension" in w for w in tf.warnings)


def test_parse_lha_structure():
    spec = parse_lha(PLANT_LHA)
    assert spec.variables == ["x1", "x2", "x3"]
    assert sorted(spec.modes) == ["1", "2", "3", "4"]
    assert len(spec.edges) == 9
    assert len(spec.modes["1"].flow) == 7
    assert len(spec.modes["1"].inenv) == 7


def test_lha_unknown_mode_in_edge():
    bad = PLANT_LHA + "\nedge 1 -> 9:\n    guard: x1 >= _0;\n    jump: x1p = x1;\n"
    with pytest.raises(ParseError, match="unknown mode"):
        parse_lha(bad)


def test_missing_semicolon_reported():
    sig = Signature()
    with pytest.raises(ParseError, match="';'"):
        parse_statements("d1 <= d2", sig)


def test_empty_quantifier_list_rejected():
    sig = Signature()
    with pytest.raises(ParseError):
        parse_statements("(FORALL ). d1 <= d2;", sig)


@pytest.mark.parametrize(
    "text",
    [
        "(EXISTS x). x <= d1;",
        "d1 <= d2 --> (FORALL j). a(j) <= _0;",
        "OR(d1 <= d2, (FORALL j). a(j) <= _0);",
        "(FORALL i). (FORALL j). a(i) <= a(j);",
    ],
    ids=["exists", "forall-under-implication", "forall-under-or", "forall-under-forall"],
)
def test_quantifier_only_as_statement_prefix(text):
    """The parser reads one quantifier, FORALL, and only as a
    statement's prefix."""
    sig = Signature()
    sig.extension_functions["a"] = (1, 1)
    with pytest.raises(ParseError):
        parse_statements(text, sig)


def test_levelless_extension_declaration_defaults_invalid():
    with pytest.raises(ParseError, match="level"):
        parse_spec(EX1_SPEC.replace("(a, 1, 2)", "(a, 1)"))


def test_unclosed_flow_sequence_error_position():
    """A flow sequence left open is a ParseError at the first token that
    neither continues nor closes it."""
    text = (DATA / "ex1_constraint.yaml").read_text()
    bad = text.replace("mode: GENERATE_CONSTRAINTS", "mode: [GENERATE_CONSTRAINTS")
    with pytest.raises(ParseError) as info:
        parse_task_file(bad)
    assert str(info.value) == "4:9: invalid task file: expected ',' or ']', found 'o'"
    with pytest.raises(ParseError) as info:
        parse_task_file("tasks: {t: [a, b\n")
    assert str(info.value) == "1:12: invalid task file: unclosed '['"


TASK_T = "{mode: BMC, specification_type: PTS, specification: {init: 'x = _0;', query: 'x <= _1;'}}"


@pytest.mark.parametrize(
    "text, error",
    [
        ("tasks:\n  a: &x 1\n", "2:6: anchors are not supported"),
        ("tasks:\n  a: [b, *x]\n", "2:10: aliases are not supported"),
        ("tasks: !!map {}\n", "1:8: tags are not supported"),
        ("tasks:\n  a: ! b\n", "2:6: tags are not supported"),
        ("%YAML 1.1\n---\ntasks: {}\n", "1:1: directives are not supported"),
        ("---\ntasks: {}\n", "1:1: document markers are not supported"),
        ("tasks: {}\n...\n", "2:1: document markers are not supported"),
        ("tasks: {}\n---\ntasks: {}\n", "2:1: document markers are not supported"),
        ("tasks: [a,\n--- b]\n", "2:1: document markers are not supported"),
        ("tasks: {a:\n... b}\n", "2:1: document markers are not supported"),
        ("a: >\n  folded\n", "1:4: folded block scalars are not supported"),
        ("a: |+\n  kept\n", "1:5: block scalar indicators other than '|' and '|-' are not supported"),
        ("a: |2\n   two\n", "1:5: block scalar indicators other than '|' and '|-' are not supported"),
        ("a: |-1\n  one\n", "1:6: block scalar indicators other than '|' and '|-' are not supported"),
        ("a: |# c\n  x\n", "1:5: expected the end of the line, found '#'"),
        ("a:\n\tb: 1\n", "2:1: a tab is allowed only in a quoted or block scalar or a comment"),
        ("a:\n  b: 1\n  \tc: 2\n", "3:3: a tab is allowed only in a quoted or block scalar or a comment"),
        ("a:\tb\n", "1:3: a tab is allowed only in a quoted or block scalar or a comment"),
        ("? a\n: b\n", "1:1: complex keys are not supported"),
        ("[a]: b\n", "1:1: complex keys are not supported"),
        ("a: {[b]: c}\n", "1:5: complex keys are not supported"),
        ("a: [b: c]\n", "1:6: expected ',' or ']', found ':'"),
        ('a: "x\\ty"\n', "1:6: only \\\\ and \\\" are escapes"),
        ('a: "x\\u0041"\n', "1:6: only \\\\ and \\\" are escapes"),
        ('a: "x\n  y"\n', "1:6: a quoted scalar ends on its line"),
        ("a: 'x\n", "1:6: a quoted scalar ends on its line"),
        ("a: b\n  c\n", "2:3: unexpected indentation"),
        ("a: b: c\n", "1:5: expected the end of the line, found ':'"),
        ("a: 1\nb\n", "2:2: expected ':' after a key"),
        ("a: 1\nb: 2\na: 3\n", "3:1: duplicate key 'a'"),
        ("a: {b: 1, c: 2, b: 3}\n", "1:17: duplicate key 'b'"),
        ("1: a\n2: b\n1: c\n", "3:1: duplicate key 1"),
        (
            "tasks:\n    t: %s\n    t: %s\n" % (TASK_T, TASK_T.replace("BMC", "CHECK_INVARIANT")),
            "3:5: duplicate key 't'",
        ),
        ("a: x\x07y\n", "1:5: unsupported character '\\x07'"),
        ("a: x\ry\n", "1:5: unsupported character '\\r'"),
    ],
    ids=lambda v: None,
)
def test_task_file_outside_the_yaml_subset_is_a_positioned_error(text, error):
    """Anchors, aliases, tags, directives, document markers, folded and
    kept block scalars, indentation indicators, tabs outside scalars,
    complex keys, escapes other than \\\\ and \\", multi-line scalars and
    duplicate keys are ParseErrors at their line and column."""
    with pytest.raises(ParseError) as info:
        parse_task_file(text)
    assert str(info.value) == error.replace(": ", ": invalid task file: ", 1)
    assert (info.value.line, info.value.column) == tuple(int(n) for n in error.split(":")[:2])


@pytest.mark.parametrize(
    "scalar",
    ["yes", "Yes", "YES", "no", "No", "NO", "on", "On", "ON", "off", "Off", "OFF", "0x1F", "-0x1f", "017", "00",
     "0b101", "1_000", "+1_0", "1_0.5", "1:30", "-190:20:30", "190:20:30.15", "2001-12-14", "2001-12-14 21:59:43.10 -5",
     "2001-12-14t21:59:43.10-05:00", "<<", "="],
)
def test_plain_scalar_of_another_yaml_1_1_type_is_an_error(scalar):
    """A plain scalar that YAML 1.1 reads as a bool, an int or float in a
    non-canonical form, a timestamp, a merge key or a value key is an
    error at its first character: quoted, it is a string."""
    for text, line, column in (("a: %s\n", 1, 4), ("a:\n  - [b, %s]\n", 2, 9)):
        with pytest.raises(ParseError) as info:
            parse_task_file(text % scalar)
        assert str(info.value) == "%d:%d: invalid task file: %r is not a string in YAML 1.1; quote it" % (
            line,
            column,
            scalar,
        )
    assert paramverify.parsing._read_task_yaml("a: '%s'" % scalar) == {"a": scalar}


def test_plain_scalars_of_the_subset():
    """Canonical ints, floats (with .inf and .nan), bools and nulls in
    PyYAML's casings; y and n, which name variables, are strings."""
    doc = paramverify.parsing._read_task_yaml(
        "[0, -12, +3, 1.5, 1., .5, 2.0e+3, -.inf, .NaN, true, False, TRUE, null, ~, Null, y, n, Y, N, 1e5, -.5, x:y]"
    )
    types = ["int"] * 3 + ["float"] * 6 + ["bool"] * 3 + ["NoneType"] * 3 + ["str"] * 7
    assert [type(v).__name__ for v in doc] == types
    assert doc[:8] == [0, -12, 3, 1.5, 1.0, 0.5, 2000.0, float("-inf")] and doc[8] != doc[8]
    assert doc[9:] == [True, False, True, None, None, None, "y", "n", "Y", "N", "1e5", "-.5", "x:y"]


def _error_at(parse, *args):
    with pytest.raises(ParseError) as info:
        parse(*args)
    return str(info.value), info.value.line, info.value.column


@pytest.mark.parametrize(
    "text, error",
    [
        ("x <= _1/0;", "1:6: numeral with zero denominator"),
        ("x <= _0/0;", "1:6: numeral with zero denominator"),
        ("y = _2;\n  x <= _-3/0;", "2:8: numeral with zero denominator"),
        ("x <= _²;", "1:6: malformed numeral"),
        ("x <= _1²;", "1:8: unexpected character '²'"),
        ("x <= _1/²;", "1:6: malformed numeral"),
        ("x <= ²;", "1:6: unexpected character '²'"),
        ("x <= _1/;", "1:6: malformed numeral"),
        ("x <= _12/y;", "1:6: malformed numeral"),
        ("x <= _-;", "1:6: malformed numeral"),
        ("x <= _1/2/3;", "1:10: unexpected character '/'"),
        ("x <= @;", "1:6: unexpected character '@'"),
    ],
)
def test_numeral_errors_are_parse_errors(text, error):
    """A numeral whose digits int does not read, or whose denominator is
    zero, is a parse error at the numeral."""
    message, line, column = _error_at(parse_statements, text, Signature())
    assert message == error and "%d:%d: " % (line, column) == error[: error.index(" ") + 1]


def test_decimal_digits_of_any_script_are_digits():
    sig = Signature()
    assert print_formula(parse_formula("x <= _١٢/٣;", sig)) == "x <= _4"
    assert parse_decl_string("{(f, ١, ٢)}", True) == [("f", 1, 2)]
    assert print_formula(parse_formula("x² <= éß1;", sig)) == "x² <= éß1"


@pytest.mark.parametrize(
    "text, error",
    [
        ("{(f, ², 1)}", "1:6: unexpected character '²'"),
        ("{(f, 1²)}", "1:7: unexpected character '²'"),
        ("{(f, ½)}", "1:6: unexpected character '½'"),
    ],
)
def test_declaration_arity_of_non_decimal_digits_is_a_parse_error(text, error):
    assert _error_at(parse_decl_string, text, False)[0] == error


def test_zero_denominator_term_is_a_parse_error():
    assert _error_at(parse_term_string, "x + _5/0", Signature())[0] == "1:5: numeral with zero denominator"


def test_comment_at_the_end_leaves_end_of_input_at_its_hash():
    assert positioned_tokens("x # note")[-1] == ("EOF", "", 1, 3)
    assert positioned_tokens("x  \n\t y  ")[-1] == ("EOF", "", 2, 6)
    assert _error_at(parse_statements, "x <= y # note", Signature())[0] == "1:8: expected ';', found 'end of input'"


# Fragments the generated texts are made of: letters, decimal digits of
# two scripts, digits that are not decimal ('²') and numbers that
# are not digits ('½'), numeral pieces, blanks (a no-break space too), line breaks,
# comments, every operator and characters no token starts with.
_FRAGMENTS = (
    ["x", "ab", "d1", "f", "é", "ß", "OR", "AND", "FORALL"]
    + ["0", "7", "42", "١", "²", "½"]
    + ["_", "/", "_-", "_1", "_3/2", "_-1/4", "_١/٢", "_0/0", "_1/"]
    + [" ", "  ", "\t", "\r\n", "\n", "# a comment\n", "#", "\xa0"]
    + [":=", "-->", "->", "<=", ">=", "!=", "<", ">", "=", "+", "-", "*", "(", ")", "{", "}", ",", ";", ".", ":"]
    + ["[", "@", "$"]
)
# The one deliberate change from the reference: a digit that is not a
# decimal digit reads as '½' does, so it continues a word and starts
# no token.
_AS_NON_DIGIT = {ord("²"): "½"}


def positioned_tokens(text):
    """tokenize's tokens as the reference tokenizer gives them, each
    (kind, text, line, column)."""
    return [tok + position(text, start) for tok, start in zip(tokenize(text), token_starts(text))]


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.column


def test_tokenize_agrees_with_the_reference_tokenizer():
    rng = random.Random(20)
    outcomes = {"tokens": 0, "error": 0, "deliberate difference": 0}
    for _ in range(2500):
        text = "".join(rng.choice(_FRAGMENTS) for _ in range(rng.randint(1, 24)))
        got = _tokens_or_error(positioned_tokens, text)
        if "²" in text:
            expected = _tokens_or_error(reference_tokenize, text.translate(_AS_NON_DIGIT))
            assert repr(got).translate(_AS_NON_DIGIT) == repr(expected), repr(text)
            if got != _tokens_or_error(reference_tokenize, text):
                outcomes["deliberate difference"] += 1
                continue
        else:
            assert got == _tokens_or_error(reference_tokenize, text), repr(text)
        outcomes["tokens" if type(got) is list else "error"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_tokenize_agrees_with_the_reference_on_the_task_corpus(monkeypatch):
    """Every text parsed from the tests/data task files and from the
    benchmark's equisat pool tokenizes as the reference tokenizes it."""
    seen = []

    def checked(text):
        assert positioned_tokens(text) == reference_tokenize(text), repr(text)
        seen.append(text)
        return tokenize(text)

    monkeypatch.setattr(paramverify.parsing, "tokenize", checked)
    paths = sorted(DATA.glob("*.yaml"))
    for path in paths:
        parse_task_file(path.read_text(encoding="utf-8"))
    pool = json.loads((DATA.parent.parent / "perfbench" / "data" / "equisat_pool.json").read_text())
    for inst in pool["instances"]:
        checked(inst["clauses"] + " " + inst["goal"])
    assert len(seen) > 240 + len(paths)
