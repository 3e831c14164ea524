import random
import re
from fractions import Fraction

import pytest

from oracles import GRID7, dnf_formula, eval_conjunct, evaluate, model_of, random_conjunct
from paramverify.errors import SortError
from paramverify.parsing import parse_statements
from paramverify.reduction import reduce_chain
from paramverify.smtlib import export_smtlib
from paramverify.terms import (
    And,
    App,
    Atom,
    Forall,
    Implies,
    Not,
    Num,
    Or,
    Signature,
    Var,
    formula_subterms,
    subformulas,
)


def test_unsat_script_shape():
    sig = Signature()
    statements = parse_statements("d1 = _1; d2 = _1; d1 - d2 > _0;", sig)
    script = export_smtlib(statements)
    assert script.splitlines() == [
        "(set-logic QF_LRA)",
        "(declare-const d1 Real)",
        "(declare-const d2 Real)",
        "(assert (= d1 1))",
        "(assert (= d2 1))",
        "(assert (> (- d1 d2) 0))",
        "(check-sat)",
    ]


def test_empty_problem():
    script = export_smtlib([])
    assert "(assert true)" in script


def test_rationals_and_negatives():
    sig = Signature()
    statements = parse_statements("x <= _-3/2;", sig)
    script = export_smtlib(statements)
    assert "(assert (<= x (- (/ 3 2))))" in script


def test_reduced_consecution_exports(ex1_spec):
    reduced = reduce_chain(ex1_spec.sig.copy(), ex1_spec.statements())
    script = export_smtlib(reduced.ground)
    assert script.count("(declare-const") == len(
        set(re.findall(r"declare-const (\S+)", script))
    )
    assert "(=> " in script  # congruence clauses survive as implications


def test_quantified_formula_rejected():
    f = Forall(("x",), Atom("<=", Var("x"), Var("x")))
    with pytest.raises(SortError):
        export_smtlib([f])


def test_deterministic_ordering():
    sig = Signature()
    statements = parse_statements("b <= a; c <= b;", sig)
    assert export_smtlib(statements) == export_smtlib(statements)
    decls = [l for l in export_smtlib(statements).splitlines() if "declare" in l]
    assert decls == sorted(decls)


# -- a tiny reference evaluator for the exported scripts


def _parse_sexpr(text):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    stack = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    return stack[0]


def _eval_sexpr(node, point):
    if isinstance(node, str):
        if node in ("true", "false"):
            return node == "true"
        if re.fullmatch(r"-?\d+", node):
            return Fraction(node)
        return point[node]
    op = node[0]
    args = [_eval_sexpr(a, point) for a in node[1:]]
    if op == "+":
        return args[0] + args[1]
    if op == "-":
        return -args[0] if len(args) == 1 else args[0] - args[1]
    if op == "*":
        return args[0] * args[1]
    if op == "/":
        return args[0] / args[1]
    if op == "<=":
        return args[0] <= args[1]
    if op == "<":
        return args[0] < args[1]
    if op == ">=":
        return args[0] >= args[1]
    if op == ">":
        return args[0] > args[1]
    if op == "=":
        return args[0] == args[1]
    if op == "not":
        return not args[0]
    if op == "and":
        return all(args)
    if op == "or":
        return any(args)
    if op == "=>":
        return not args[0] or args[1]
    raise ValueError(op)


def _script_holds(script, point):
    results = []
    for node in _parse_sexpr(script):
        if isinstance(node, list) and node and node[0] == "assert":
            if node[1] == "true":
                results.append(True)
            elif node[1] == "false":
                results.append(False)
            else:
                results.append(_eval_sexpr(node[1], point))
    return all(results)


def test_script_agrees_with_is_sat_on_grid_witnesses():
    rng = random.Random(23)
    symbols = ["x", "y"]
    for _ in range(60):
        conjunct = random_conjunct(rng, symbols, max_atoms=4)
        script = export_smtlib([dnf_formula([conjunct])])
        witness = model_of(conjunct)
        found = None
        for xv in GRID7:
            for yv in GRID7:
                point = {"x": xv, "y": yv}
                if _script_holds(script, point):
                    found = point
                    break
            if found:
                break
        if found is not None:
            assert witness is not None
            assert eval_conjunct(conjunct, found)
        if witness is None:
            assert found is None


def test_consecution_script_sat_at_witness(ex1_spec):
    """The exported consecution problem is satisfiable; its own witness
    satisfies every assert of the script."""
    from paramverify.linear import decide
    from paramverify.terms import formula_symbols

    reduced = reduce_chain(ex1_spec.sig.copy(), ex1_spec.statements())
    witness = decide(reduced.ground)
    assert witness is not None
    script = export_smtlib(reduced.ground)
    symbols = set()
    for g in reduced.ground:
        symbols |= {s for s in formula_symbols(g) if s not in ("+", "-", "*")}
    point = {s: witness.get(s, Fraction(0)) for s in symbols}
    assert _script_holds(script, point)


def _random_ground_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return App(rng.choice(["x", "y"]), ())
        return Num(Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])))
    kind = rng.choice(["+", "-", "*", "neg"])
    if kind == "neg":
        return App("-", (_random_ground_term(rng, depth - 1),))
    return App(kind, (_random_ground_term(rng, depth - 1), _random_ground_term(rng, depth - 1)))


def _random_ground_formula(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        rel = rng.choice(["=", "!=", "<=", "<", ">=", ">"])
        return Atom(rel, _random_ground_term(rng, 2), _random_ground_term(rng, 2))
    kind = rng.choice(["and", "or", "not", "implies"])
    if kind == "not":
        return Not(_random_ground_formula(rng, depth - 1))
    if kind == "implies":
        return Implies(_random_ground_formula(rng, depth - 1), _random_ground_formula(rng, depth - 1))
    parts = tuple(_random_ground_formula(rng, depth - 1) for _ in range(rng.randint(0, 3)))
    return And(parts) if kind == "and" else Or(parts)


def test_disjunctive_script_agrees_with_evaluation():
    """Every connective, the != atom, unary minus and rational numerals
    export to a script that holds at a grid point exactly where the
    formulas do."""
    rng = random.Random(31)
    seen = set()
    for _ in range(120):
        fs = [_random_ground_formula(rng, 3) for _ in range(rng.randint(1, 2))]
        for f in fs:
            seen |= {"!=" if type(g) is Atom and g.rel == "!=" else type(g) for g in subformulas(f)}
            seen |= {"unary -" for t in formula_subterms(f) if isinstance(t, App) and len(t.args) == 1}
        script = export_smtlib(fs)
        for xv in GRID7:
            for yv in GRID7[::2]:
                point = {"x": xv, "y": yv}
                assert _script_holds(script, point) == all(evaluate(f, point) for f in fs), script
    assert seen == {And, Or, Not, Implies, Atom, "!=", "unary -"}
