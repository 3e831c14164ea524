import json
import random
import re

import pytest
import yaml

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


def test_yaml_loaders_agree_on_task_files():
    """libyaml's loader, which parse_task_file uses when it is built in,
    and the pure-Python loader give equal documents."""
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML is built without libyaml")
    paths = sorted(DATA.glob("*.yaml"))
    assert paths
    for path in paths:
        text = path.read_text()
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader), path.name


def test_yaml_error_position_does_not_depend_on_the_loader(monkeypatch):
    """A malformed task file is a ParseError at the same line:col with
    libyaml's loader and with the pure-Python one."""
    bad = (DATA / "ex1_constraint.yaml").read_text().replace("mode: GENERATE_CONSTRAINTS", "mode: [GENERATE_CONSTRAINTS")
    positions = []
    for python_only in (False, True):
        if python_only:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        with pytest.raises(ParseError, match="invalid task file") as info:
            parse_task_file(bad)
        positions.append((info.value.line, info.value.column))
    assert positions[0] == positions[1] and positions[0][0] is not None


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
