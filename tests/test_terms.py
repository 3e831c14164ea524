import random
from fractions import Fraction

import pytest

from paramverify.errors import SortError
from paramverify.linear import LinAtom
from paramverify.parsing import parse_formula, parse_statements, parse_term_string
from paramverify.printing import print_formula, print_term
from paramverify.runner import TaskOutcome
from paramverify.symelim import substitute_constants
from paramverify.terms import (
    FALSE,
    TRUE,
    And,
    App,
    Atom,
    Clause,
    Forall,
    Implies,
    Not,
    Num,
    Or,
    Signature,
    SymbolRenaming,
    formula_subterms,
    formula_terms,
    free_variables,
    is_ground,
    negate_universal,
    rename_symbols,
    substitute,
    to_clauses,
    Var,
)


def sig_with(ext=None):
    sig = Signature()
    for name, (arity, level) in (ext or {}).items():
        sig.extension_functions[name] = (arity, level)
    return sig


def test_substitute_update_axiom():
    sig = sig_with({"a": (1, 2), "ap": (1, 3)})
    clause = parse_formula("(FORALL j). ap(j) = a(j) + _1;", sig)
    body = clause.body
    instance = substitute(body, {"j": App("i", ())})
    assert print_formula(instance) == "ap(i) = a(i) + _1"


def test_substitute_empty_is_identity():
    t = parse_term_string("x + y", Signature())
    assert substitute(t, {}) == t


def test_substitute_direct():
    sig = sig_with({"f": (1, 1)})
    sig.declare_constant("c")
    sig.declare_constant("d")
    term = App("+", (App("f", (Var("x"),)), Var("y")))
    result = substitute(term, {"x": App("c", ()), "y": App("d", ())})
    assert print_term(result) == "f(c) + d"


def test_substitution_composition_on_disjoint_domains():
    rng = random.Random(7)
    sig = sig_with({"f": (1, 1)})
    for name in "cdu":
        sig.declare_constant(name)
    pool = [App("c", ()), App("d", ()), Num(Fraction(2)), App("f", (App("u", ()),))]
    for _ in range(50):
        t = App("+", (App("f", (Var("x"),)), App("-", (Var("y"), Var("z")))))
        s1 = {"x": rng.choice(pool)}
        s2 = {"y": rng.choice(pool), "z": rng.choice(pool)}
        combined = dict(s1)
        combined.update(s2)
        assert substitute(substitute(t, s1), s2) == substitute(t, combined)


def test_rename_symbols_prime_map():
    sig = Signature()
    atom = parse_formula("d1 <= d2;", sig)
    renamed = rename_symbols(atom, SymbolRenaming({"d1": "d1p", "d2": "d2p"}))
    assert print_formula(renamed) == "d1p <= d2p"


def test_rename_identity():
    sig = sig_with({"a": (1, 1)})
    f = parse_formula("(FORALL j). a(j) <= a(j + _1);", sig)
    assert rename_symbols(f, SymbolRenaming({})) == f
    assert rename_symbols(every_connective("a", C, D), SymbolRenaming({})) == every_connective("a", C, D)


C, D = App("c", ()), App("d", ())


def every_connective(a, c, d):
    """A formula with each connective under a universal prefix, over the
    unary function a and the terms c and d."""
    x, y = Var("x"), Var("y")
    return Forall(
        ("x", "y"),
        Implies(
            Not(Atom("<=", App(a, (x,)), c)),
            Or((Atom("=", App(a, (y,)), d), And((Atom("<", c, App("+", (x, d))),)))),
        ),
    )


def test_formula_terms_pre_order_lhs_first():
    # this order fixes the order of constants in symbol elimination's step lines
    f = every_connective("a", C, D)
    x, y = Var("x"), Var("y")
    assert list(formula_terms(f)) == [App("a", (x,)), C, App("a", (y,)), D, C, App("+", (x, D))]
    assert [t for t in formula_subterms(f) if isinstance(t, Var)] == [x, y, x]


def test_rename_and_substitute_rebuild_every_connective():
    f = every_connective("a", C, D)
    renaming = SymbolRenaming({"a": "ap", "c": "cp", "d": "dp"})
    assert rename_symbols(f, renaming) == every_connective("ap", App("cp", ()), App("dp", ()))
    one, two = Num(Fraction(1)), Num(Fraction(2))
    assert substitute_constants(f, {"c": one, "d": two}) == every_connective("a", one, two)


def test_substitute_rebuilds_every_connective():
    body = every_connective("a", C, D).body
    c_and_d = Implies(
        Not(Atom("<=", App("a", (C,)), C)),
        Or((Atom("=", App("a", (D,)), D), And((Atom("<", C, App("+", (C, D))),)))),
    )
    assert substitute(body, {"x": C, "y": D}) == c_and_d
    assert substitute(substitute(body, {"x": C}), {"y": D}) == c_and_d


def test_rename_rejects_non_injective():
    with pytest.raises(SortError):
        SymbolRenaming({"x": "z", "y": "z"})


def test_negate_universal_candidate():
    from paramverify.printing import print_canonical

    sig = sig_with({"a": (1, 2)})
    fs = parse_statements("d1 <= d2; (FORALL i). a(i + _1) - a(i) >= _0;", sig)
    negated = negate_universal(fs)
    assert is_ground(negated)
    assert isinstance(negated, Or)
    assert print_canonical(negated) == "OR(a(sk_i + _1) - a(sk_i) < _0, d1 - d2 > _0)"


def test_negate_universal_ground():
    from paramverify.printing import print_canonical

    sig = Signature()
    f = parse_formula("d1 <= d2;", sig)
    assert print_canonical(negate_universal(f)) == "d1 - d2 > _0"


def test_negate_universal_reflexive_equation():
    sig = Signature()
    f = Forall(("x",), Atom("=", Var("x"), Var("x")))
    negated = negate_universal(f)
    assert negated == Atom("!=", App("sk_x", ()), App("sk_x", ()))


def test_negate_universal_skolem_collision():
    sig = sig_with({"a": (1, 1)})
    sig.declare_constant("sk_i")
    f = parse_formula("(FORALL i). a(i) <= sk_i;", sig)
    negated = negate_universal(f)
    symbols = {s.fn for s in _apps(negated)}
    assert "sk_i_2" in symbols


def _apps(f):
    return [s for s in formula_subterms(f) if isinstance(s, App)]


def test_double_negation_flips_truth_on_grid():
    from oracles import evaluate

    rng = random.Random(11)
    sig = Signature()
    f = parse_formula("x - y > _1;", sig)
    negated = negate_universal(f)
    values = [Fraction(-2), Fraction(0), Fraction(1), Fraction(2)]
    for _ in range(40):
        point = {"x": rng.choice(values), "y": rng.choice(values)}
        assert evaluate(f, point) != evaluate(negated, point)


def test_to_clauses_implication():
    sig = sig_with({"b": (1, 1)})
    f = parse_formula("(FORALL i,j). i <= j --> b(i) <= b(j);", sig)
    (clause,) = to_clauses(f)
    assert clause.variables == ("i", "j")
    assert [l.rel for l in clause.literals] == [">", "<="]


def test_free_variables_and_groundness():
    f = Forall(("x",), Atom("<=", Var("x"), Var("y")))
    assert free_variables(f) == {"y"}
    assert not is_ground(f)


def test_is_ground_agrees_with_free_variables():
    """A term is ground when no Var occurs in it, however deep; a
    statement's variables are free unless its prefix binds them."""
    c, x = App("c", ()), Var("x")
    deep = App("f", (App("+", (c, App("f", (App("f", (x,)),)))),))
    for t in (Num(Fraction(1)), c, App("f", (App("+", (c, Num(Fraction(2)))),)), x, deep):
        assert is_ground(t) == (not free_variables(t))
    assert not is_ground(deep) and is_ground(deep.args[0].args[0])
    body = Or((Atom("=", App("f", (x,)), c), Not(Atom("<", Var("y"), deep))))
    assert free_variables(body) == {"x", "y"} and not is_ground(body)
    assert free_variables(Forall(("x",), body)) == {"y"} and not is_ground(Forall(("x",), body))
    assert free_variables(Forall(("y", "x"), body)) == set() and is_ground(Forall(("y", "x"), body))
    assert is_ground(Forall(("x",), Atom("=", c, Num(Fraction(1)))))


def test_numerals_round_trip_exactly():
    sig = Signature()
    for text in ["_1", "_0", "_3/2", "_-7/3", "_1000000000000000000001"]:
        term = parse_term_string(text, sig)
        assert isinstance(term, Num)
        assert print_term(term) == text


# ---------------------------------------------------------------------------
# What nodes and records keep: node equality within one class, the hash
# of the fields tuple (so set and dict order do not change), immutability
# and the field repr; records get fresh default tables.


def nodes_with_fields():
    x, y = Var("x"), Var("y")
    atom = Atom("<=", x, App("f", (y,)))
    terms = ((("x",), 1), ((), -2))
    return [
        (x, ("x",)),
        (Num(Fraction(3, 2)), (Fraction(3, 2),)),
        (App("f", (x, y)), ("f", (x, y))),
        (atom, ("<=", x, App("f", (y,)))),
        (Not(atom), (atom,)),
        (And((atom, atom)), ((atom, atom),)),
        (Or((atom,)), ((atom,),)),
        (Implies(atom, TRUE), (atom, TRUE)),
        (Forall(("x",), atom), (("x",), atom)),
        (Clause(("x",), (atom,)), (("x",), (atom,))),
        (LinAtom("<=", terms), ("<=", terms)),
    ]


def test_nodes_are_equal_only_within_their_class():
    atom = Atom("=", Var("x"), Var("y"))
    assert TRUE != FALSE and And(()) != Or(())
    assert Forall(("x",), atom) != Clause(("x",), atom)
    assert Var("c") != App("c", ()) and App("c", ()) != "c"
    for node, fields in nodes_with_fields():
        assert type(node)(*fields) == node and not type(node)(*fields) != node


def test_node_hash_is_the_hash_of_its_fields():
    for node, fields in nodes_with_fields():
        assert hash(node) == hash(fields), type(node).__name__


def test_node_fields_cannot_be_assigned_or_deleted():
    for node, _ in nodes_with_fields():
        field = type(node).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(node, field, None)
        with pytest.raises(AttributeError):
            delattr(node, field)
        with pytest.raises(AttributeError):
            node.extra = None
        assert not hasattr(node, "__dict__")


def test_node_repr_lists_fields():
    assert repr(App("f", (Var("x"),))) == "App(fn='f', args=(Var(name='x'),))"
    assert repr(Or(())) == "Or(parts=())"
    terms = ((("x",), 1),)
    atom = LinAtom("<=", terms)
    atom.key()
    assert repr(atom) == "LinAtom(rel='<=', terms=((('x',), 1),))"


def test_records_get_fresh_defaults():
    a, b = Signature(), Signature()
    for table in ("base_functions", "extension_functions", "relations", "parameters", "constants"):
        assert getattr(a, table) is not getattr(b, table)
    a.base_functions["d"] = 1
    a.constants.add("c")
    assert b == Signature() and a != b and "d" not in Signature().base_functions
    first, second = TaskOutcome("t", [], None), TaskOutcome("t", [], None)
    assert first.extra is not second.extra and first.smtlib is not second.smtlib
    first.extra.append((0, "x"))
    assert second.extra == [] and first != second
    assert repr(second) == "TaskOutcome(name='t', result=[], inline_result=None, runtime=0.0, extra=[], smtlib=[])"
    with pytest.raises(TypeError):
        hash(second)
