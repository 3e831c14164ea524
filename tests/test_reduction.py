import random
from fractions import Fraction

import pytest

from conftest import EX1_SPEC
from oracles import all_terms_to_depth, brute_force_ground
from paramverify.errors import NonGroundableError, SortError
from paramverify.linear import decide
from paramverify.parsing import parse_spec, parse_statements, parse_term_string
from paramverify.printing import print_formula, print_term
from paramverify.reduction import (
    closure,
    flatten_purify,
    ground_extension_subterms,
    instantiate,
    reduce_chain,
    split_statements,
)
from paramverify.terms import (
    And,
    App,
    Atom,
    Forall,
    Num,
    Or,
    Signature,
    SymbolRenaming,
    Var,
    fresh_name,
    rename_symbols,
)


def make_sig():
    sig = Signature()
    sig.extension_functions["f"] = (1, 1)
    sig.extension_functions["g"] = (1, 1)
    for c in ("u", "v", "w"):
        sig.declare_constant(c)
    return sig


def test_est_update_axiom(ex1_spec):
    terms = ground_extension_subterms(ex1_spec.statements(), ex1_spec.sig, {"ap"})
    assert [print_term(t) for t in terms] == ["ap(i)", "ap(i + _1)"]


def test_est_empty_for_base_goal():
    sig = Signature()
    statements = parse_statements("c <= d;", sig)
    assert ground_extension_subterms(statements, sig) == []


def test_est_subterm_closure():
    sig = make_sig()
    statements = parse_statements("c = f(g(d));", sig)
    terms = ground_extension_subterms(statements, sig)
    assert [print_term(t) for t in terms] == ["f(g(d))", "g(d)"]


def test_instantiate_update_axiom(ex1_spec):
    sig = ex1_spec.sig
    clause = ex1_spec.clauses[1]
    terms = [parse_term_string("ap(i)", sig), parse_term_string("ap(i + _1)", sig)]
    instances = instantiate([clause], terms, sig, {"ap"})
    assert [print_formula(i) for i in instances] == [
        "ap(i) = a(i) + _1",
        "ap(i + _1) = a(i + _1) + _1",
    ]


def test_instantiate_empty():
    sig = make_sig()
    assert instantiate([], [parse_term_string("f(u)", sig)], sig) == []


def test_instantiate_monotonicity_four_instances():
    sig = make_sig()
    (clause,) = parse_statements("(FORALL x,y). x <= y --> f(x) <= f(y);", sig)
    terms = [parse_term_string("f(u)", sig), parse_term_string("f(v)", sig)]
    instances = instantiate([clause], terms, sig, {"f"})
    assert len(instances) == 4


def test_instantiate_non_groundable():
    sig = make_sig()
    (clause,) = parse_statements("(FORALL x,y). f(x) <= y;", sig)
    with pytest.raises(NonGroundableError):
        instantiate([clause], [parse_term_string("f(u)", sig)], sig, {"f"})


def test_flatten_purify_shapes():
    sig = Signature()
    sig.extension_functions["a"] = (1, 2)
    sig.extension_functions["ap"] = (1, 3)
    statements = parse_statements("ap(i) = a(i) + _1; d1p = ap(i);", sig)
    purified = flatten_purify(statements, sig)
    defs = {d.constant: print_term(d.term) for d in purified.definitions}
    assert defs == {"c_ap_1": "ap(i)", "c_a_1": "a(i)"}
    assert [print_formula(c) for c in purified.clauses] == [
        "c_ap_1 = c_a_1 + _1",
        "d1p = c_ap_1",
    ]
    assert purified.congruence == []


def test_flatten_purify_base_only_unchanged():
    sig = Signature()
    statements = parse_statements("c <= d; d < _1;", sig)
    purified = flatten_purify(statements, sig)
    assert purified.definitions == [] and purified.congruence == []
    assert purified.clauses == statements


X = Var("x")
INNER = Forall(("x",), Atom("<=", X, Num(Fraction(1))))


@pytest.mark.parametrize(
    "statement",
    [
        And((Atom("<=", App("u", ()), Num(Fraction(0))), INNER)),
        Forall(("x",), Or((Atom("=", App("f", (X,)), X), INNER))),
        And((INNER, INNER)),
    ],
    ids=["goal", "clause", "conjunction"],
)
def test_split_statements_rejects_nested_quantifier(statement):
    """A quantifier is only a statement's prefix: one below it, in a
    ground goal, under a clause's prefix or in a conjunction of closed
    statements, is rejected before instantiation and purification."""
    with pytest.raises(SortError, match="quantifier below the prefix of a statement"):
        split_statements([statement])
    with pytest.raises(SortError, match="quantifier below the prefix of a statement"):
        reduce_chain(make_sig(), [statement])


def test_congruence_pair():
    sig = make_sig()
    statements = parse_statements("c1 = f(u); c2 = f(v);", sig)
    purified = flatten_purify(statements, sig, {"f"})
    assert len(purified.congruence) == 1
    assert print_formula(purified.congruence[0]) == "u = v --> c_f_1 = c_f_2"


def test_congruence_completeness_random():
    rng = random.Random(5)
    sig = make_sig()
    for _ in range(25):
        consts = rng.sample(["u", "v", "w"], rng.randint(1, 3))
        text = " ".join("z%d = f(%s);" % (k, c) for k, c in enumerate(consts))
        work = sig.copy()
        purified = flatten_purify(parse_statements(text, work), work, {"f"})
        n = len(purified.definitions)
        assert len(purified.congruence) == n * (n - 1) // 2


def test_fresh_constants_avoid_collisions():
    sig = make_sig()
    sig.declare_constant("c_f_1")
    statements = parse_statements("z = f(u);", sig)
    purified = flatten_purify(statements, sig, {"f"})
    assert purified.definitions[0].constant == "c_f_1_2"
    # a second collision: the shared helper steps on to the next free suffix
    taken = {"c_f_1", "c_f_1_2"}
    assert fresh_name("c_f_1", taken) == "c_f_1_3" and "c_f_1_3" in taken
    sig.declare_constant("c_g_1")
    sig.declare_constant("c_g_1_2")
    purified = flatten_purify(parse_statements("z = g(v);", sig), sig, {"g"})
    assert purified.definitions[0].constant == "c_g_1_3"


def test_reduce_chain_consecution_sat(ex1_spec):
    reduced = reduce_chain(ex1_spec.sig.copy(), ex1_spec.statements())
    assert decide(reduced.ground) is not None


def test_reduce_chain_with_constraint_unsat():
    spec = parse_spec(EX1_SPEC)
    extra = parse_statements("(FORALL i). a(i) <= a(i + _1);", spec.sig)
    reduced = reduce_chain(spec.sig.copy(), spec.statements() + extra)
    assert decide(reduced.ground) is None


def test_reduce_chain_level_free_input():
    sig = Signature()
    statements = parse_statements("c <= d; d <= c;", sig)
    reduced = reduce_chain(sig.copy(), statements)
    assert reduced.ground == statements
    assert reduced.definitions == []


def test_reduce_chain_leaves_its_signature_unchanged():
    """The reduction extends a copy of the signature: the statements'
    undeclared constants and the introduced c_* constants are declared
    on reduced.sig, and the signature passed in stays as it was."""
    sig = make_sig()
    statements = parse_statements("(FORALL x). f(x) <= g(x); f(u) > g(u) + k; k >= _0;", sig.copy())
    before = sig.copy()
    reduced = reduce_chain(sig, statements)
    assert sig == before and "k" not in sig.constants
    introduced = [d.constant for d in reduced.definitions]
    assert introduced == ["c_f_1", "c_g_1"]
    assert reduced.sig.constants == sig.constants | {"k"} | set(introduced)
    assert decide(reduced.ground) is None


# ---------------------------------------------------------------------------
# Closure operator laws


def random_term(rng, sig, depth):
    if depth == 0 or rng.random() < 0.4:
        choice = rng.random()
        if choice < 0.6:
            return App(rng.choice(["u", "v", "w"]), ())
        return Num(Fraction(rng.randint(-2, 2)))
    fn = rng.choice(["f", "g"])
    return App(fn, (random_term(rng, sig, depth - 1),))


def random_clauses(rng, sig):
    out = []
    for _ in range(rng.randint(0, 2)):
        text = rng.choice(
            [
                "(FORALL x). f(x) <= g(x) + _1;",
                "(FORALL x). f(x) >= f(u);",
                "(FORALL x). g(x) = f(x) - _1;",
            ]
        )
        out.extend(parse_statements(text, sig))
    return out


def test_closure_laws_random():
    rng = random.Random(20240818)
    for _ in range(200):
        sig = make_sig()
        clauses = random_clauses(rng, sig)
        terms = [random_term(rng, sig, rng.randint(0, 3)) for _ in range(rng.randint(0, 5))]
        est_part = ground_extension_subterms(clauses, sig)
        closed = closure(terms, clauses, sig)
        # law 1: est(K, T) is inside the closure
        for t in est_part:
            assert t in closed
        # law 2: monotone
        bigger = closure(terms + [random_term(rng, sig, 2)], clauses, sig)
        assert set(closed) <= set(bigger)
        # law 3: idempotent
        assert set(closure(closed, clauses, sig)) == set(closed)
        # law 4: invariant under constant renaming
        mapping = dict(zip(["u", "v", "w"], rng.sample(["u", "v", "w"], 3)))
        renaming = SymbolRenaming(mapping)
        renamed_terms = [rename_symbols(t, renaming) for t in terms]
        renamed_clauses = [rename_symbols(c, renaming) for c in clauses]
        lhs = {rename_symbols(t, renaming) for t in closed}
        rhs = set(closure(renamed_terms, renamed_clauses, sig))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Equisatisfiability against full instantiation


def random_definitional_instance(rng):
    """A guarded unary definition with disjoint guards plus a random
    ground goal, in the shape required for locality."""
    sig = Signature()
    sig.extension_functions["f"] = (1, 1)
    for c in ("u", "v", "w"):
        sig.declare_constant(c)
    pivot = rng.randint(-2, 2)
    q1 = rng.randint(-3, 3)
    q2 = rng.randint(-3, 3)
    clauses = parse_statements(
        "(FORALL x). x <= _%d --> f(x) = x + _%d;" % (pivot, q1)
        + "(FORALL x). x > _%d --> f(x) = x - _%d;" % (pivot, q2),
        sig,
    )
    goal_atoms = []
    pool = ["f(u)", "f(v)", "f(f(u))", "u", "v", "w", "_1"]
    for _ in range(rng.randint(1, 4)):
        lhs, rhs = rng.sample(pool, 2)
        rel = rng.choice(["<=", "<", "=", ">=", ">"])
        goal_atoms.append("%s %s %s + _%d;" % (lhs, rel, rhs, rng.randint(-2, 2)))
    goal = parse_statements(" ".join(goal_atoms), sig)
    return sig, clauses, goal


def test_equisatisfiability_against_full_instantiation():
    rng = random.Random(31337)
    for _ in range(40):
        sig, clauses, goal = random_definitional_instance(rng)
        reduced = reduce_chain(sig.copy(), clauses + goal)
        fast = decide(reduced.ground) is not None
        terms = all_terms_to_depth("f", ["u", "v", "w"], 2)
        ground = brute_force_ground(clauses, goal, "f", terms)
        slow = decide(ground) is not None
        assert fast == slow


def test_universal_clause_without_extension_rejected():
    sig = Signature()
    statements = parse_statements("(FORALL x). x <= x + _1;", sig)
    with pytest.raises(NonGroundableError):
        reduce_chain(sig, statements)


def test_nested_pattern_across_levels():
    """A clause whose pattern nests a lower-level application is
    instantiated by syntactic matching; the instance closes the goal."""
    sig = Signature()
    sig.extension_functions["f"] = (1, 1)
    sig.extension_functions["g"] = (1, 2)
    sig.declare_constant("c")
    statements = parse_statements("(FORALL x). g(f(x)) >= x; z = g(f(c)); z < c;", sig)
    reduced = reduce_chain(sig.copy(), statements)
    assert decide(reduced.ground) is None  # instance g(f(c)) >= c closes it
    assert reduced.steps[0].level == 2 and len(reduced.steps[0].instances) == 1


def test_congruence_carries_inner_terms_to_next_level():
    """With two same-head applications, the congruence clause exposes
    the lower-level argument terms to the next reduction step."""
    sig = Signature()
    sig.extension_functions["f"] = (1, 1)
    sig.extension_functions["g"] = (1, 2)
    for c in ("c", "d"):
        sig.declare_constant(c)
    statements = parse_statements(
        "(FORALL x). f(x) = _1; y = g(f(c)); z = g(f(d)); y < z;", sig
    )
    reduced = reduce_chain(sig.copy(), statements)
    step1 = reduced.steps[1]
    assert step1.level == 1
    assert {print_term(t) for t in step1.est} >= {"f(c)", "f(d)"}
    # f is constantly 1, so both g-arguments agree and congruence forces y = z
    assert decide(reduced.ground) is None
