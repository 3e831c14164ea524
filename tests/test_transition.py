import pytest

from oracles import evaluate
from paramverify.linear import decide
from paramverify.parsing import _parse_task_body, parse_formula, parse_statements
from paramverify.printing import print_formula
from paramverify.terms import And, FALSE, Signature, conj
from paramverify.transition import (
    _conjoin_constraint,
    bmc,
    check_inductive,
    strengthen,
    vc_consecution,
    vc_initiation,
)

EX1_PTS = {
    "base_functions": "{(+,2), (-,2), (*,2)}",
    "extension_functions": "{(b, 1, 1), (a, 1, 2), (ap, 1, 3)}",
    "relations": "{(<=,2), (<,2), (>=,2), (>,2)}",
    "init": "d1 = _1; d2 = _1; i = _0;",
    "update": """
        (FORALL j). ap(j) = a(j) + _1;
        d1p = ap(i);
        d2p = ap(i + _1);
        ip = i + _1;
    """,
    "query": "d1 <= d2;",
    "update_vars": {"a": "ap", "d1": "d1p", "d2": "d2p", "i": "ip"},
}


def ex1_system():
    return _parse_task_body("ex1", "PTS", EX1_PTS)


def with_sorted_axiom():
    """Initial array sorted and the monotonicity clause carried in the
    candidate: the strengthened, inductive variant."""
    return _parse_task_body(
        "ex1s",
        "PTS",
        dict(
            EX1_PTS,
            init=EX1_PTS["init"] + "(FORALL i). a(i) <= a(i + _1);",
            query="d1 <= d2; (FORALL i). a(i) <= a(i + _1);",
        ),
    )


def with_sorted_init_only():
    return _parse_task_body(
        "ex1i", "PTS", dict(EX1_PTS, init=EX1_PTS["init"] + "(FORALL i). a(i) <= a(i + _1);")
    )


def test_initiation_holds():
    system = ex1_system()
    reduced = vc_initiation(system, system.query)
    assert decide(reduced.ground) is None


def test_initiation_trivial_for_true_candidate():
    system = ex1_system()
    reduced = vc_initiation(system, [])
    assert decide(reduced.ground) is None


def test_consecution_fails_without_constraint():
    system = ex1_system()
    reduced = vc_consecution(system, system.query)
    witness = decide(reduced.ground)
    assert witness is not None
    # the witness satisfies the reduced verification condition
    point = {s: witness.get(s, 0) for g in reduced.ground for s in _symbols(g)}
    assert all(evaluate(g, point) for g in reduced.ground)


def _symbols(f):
    from paramverify.terms import formula_symbols

    return {s for s in formula_symbols(f) if s not in ("+", "-", "*")}


def test_identity_update_always_inductive():
    system = _parse_task_body(
        "idy",
        "PTS",
        {
            "base_functions": "{(+,2), (-,2), (*,2)}",
            "relations": "{(<=,2), (<,2), (>=,2), (>,2)}",
            "init": "x = _0;",
            "update": "xp = x;",
            "query": "x <= _5;",
            "update_vars": {"x": "xp"},
        },
    )
    assert check_inductive(system, system.query).kind == "Inductive"


def test_check_inductive_verdicts():
    system = ex1_system()
    verdict = check_inductive(system, system.query)
    assert verdict.kind == "ConsecutionFails"
    assert verdict.witness is not None

    bad_init = _parse_task_body("bad", "PTS", dict(EX1_PTS, init="d1 = _2; d2 = _1; i = _0;"))
    assert check_inductive(bad_init, bad_init.query).kind == "InitFails"

    strong = with_sorted_axiom()
    assert check_inductive(strong, strong.query).kind == "Inductive"


def test_bmc_depth_zero_equals_initiation():
    system = ex1_system()
    steps = bmc(system, system.query, 0)
    assert len(steps) == 1 and steps[0].holds


def test_bmc_finds_violation_at_depth_one():
    system = ex1_system()
    steps = bmc(system, system.query, 1)
    assert steps[0].holds and not steps[1].holds
    assert steps[1].witness is not None


def test_bmc_safe_with_sorted_init():
    """With a sorted initial array no run of length <= 3 violates the
    plain candidate, even though it is not inductive by itself."""
    system = with_sorted_init_only()
    steps = bmc(system, system.query, 3)
    assert all(s.holds for s in steps)


def test_bmc_induction_consistency():
    """An inductive candidate admits no bounded counterexample."""
    system = with_sorted_axiom()
    assert check_inductive(system, system.query).kind == "Inductive"
    assert all(s.holds for s in bmc(system, system.query, 4))


def test_strengthen_example(ex2_system):
    system = ex2_system
    res = strengthen(system, system.query, ["a", "d1", "d2"], max_iter=2, task_name="example_4.16")
    assert res.kind == "Invariant"
    assert res.iterations == 2
    assert [print_formula(c) for c in res.candidate] == [
        "d1 - d2 <= _0",
        "(FORALL i). a(i + _1) - a(i) >= _0",
    ]
    assert check_inductive(system, res.candidate).kind == "Inductive"


def test_strengthen_candidate_monotone(ex2_system):
    system = ex2_system
    res = strengthen(system, system.query, ["a", "d1", "d2"], max_iter=2)
    from paramverify.printing import canonical

    first = canonical(system.query[0])
    assert res.candidate[0] == first  # conjunction only extended


def test_strengthen_already_inductive():
    system = with_sorted_axiom()
    res = strengthen(system, system.query, ["a", "d1", "d2"], max_iter=5)
    assert res.kind == "Invariant" and res.iterations == 1


def test_strengthen_init_failure_is_conclusive_on_first_iteration():
    system = _parse_task_body("bad", "PTS", dict(EX1_PTS, init="d1 = _2; d2 = _1; i = _0;"))
    res = strengthen(system, system.query, ["a", "d1", "d2"], max_iter=3)
    assert res.kind == "NoUniversalInvariant"
    assert res.iterations == 1


def test_strengthen_exhausted_reports_candidate():
    # an update that decreases d1 relative to d2 cannot be fixed within one round
    system = _parse_task_body(
        "hard",
        "PTS",
        {
            "base_functions": "{(+,2), (-,2), (*,2)}",
            "relations": "{(<=,2), (<,2), (>=,2), (>,2)}",
            "init": "x = _0; y = _0;",
            "update": "xp = x + u; yp = y;",
            "query": "x <= y;",
            "update_vars": {"x": "xp", "y": "yp"},
        },
    )
    res = strengthen(system, system.query, ["x", "y"], max_iter=1)
    assert res.kind in ("Exhausted", "Invariant")


def test_strengthen_log_structure(ex2_system):
    system = ex2_system
    res = strengthen(system, system.query, ["a", "d1", "d2"], max_iter=2, task_name="example_4.16")
    lines = [text for _, text in res.log]
    assert "1. Iteration:" in lines
    assert "2. Iteration:" in lines
    assert "(step) current candidate: d1 <= d2;" in lines
    assert "(step) negated candidate: d1 - d2 > _0;" in lines
    assert "(step) negated and updated candidate: d1p - d2p > _0;" in lines
    assert lines.count("(step) verification condition init: true") == 2
    assert "(step) verification condition: false" in lines
    assert "(step) verification condition: true" in lines


def test_example2_initiation_with_sorted_source(ex2_system):
    system = ex2_system
    reduced = vc_initiation(system, system.query)
    assert decide(reduced.ground) is None


def test_example2_strengthened_consecution_unsat(ex2_system):
    system = ex2_system
    strengthened = system.query + parse_statements(
        "(FORALL i). a(i) <= a(i + _1);", system.sig
    )
    reduced = vc_consecution(system, strengthened)
    assert decide(reduced.ground) is None


def test_strengthen_diverges_on_unbounded_counter():
    """An unbounded counter admits no universal inductive bound; the
    loop tightens the bound once per iteration until the budget ends."""
    system = _parse_task_body(
        "counter",
        "PTS",
        {
            "base_functions": "{(+,2), (-,2), (*,2)}",
            "relations": "{(<=,2), (<,2), (>=,2), (>,2)}",
            "init": "x = _0;",
            "update": "xp = x + _1;",
            "query": "x <= _5;",
            "update_vars": {"x": "xp"},
        },
    )
    res = strengthen(system, system.query, ["x"], max_iter=4)
    assert res.kind == "Exhausted" and res.iterations == 4
    assert [print_formula(c) for c in res.candidate] == [
        "x <= _5",
        "x <= _4",
        "x <= _3",
        "x <= _2",
        "x <= _1",
    ]


def test_bmc_over_two_function_chain(ex2_system):
    """Unrolling renames each updated function into a fresh level while
    the static source array keeps its own; the sorted source makes
    every bounded run safe."""
    system = ex2_system
    steps = bmc(system, system.query, 2)
    assert [s.holds for s in steps] == [True, True, True]


def test_disequality_in_candidate_keeps_the_constraint():
    """x != _0 is x < _0 or x > _0, so it gives no unit literal to drop
    clause literals against: read as both halves at once it would
    contradict every literal, and the conjoined clause would be false."""
    sig = Signature()
    candidate = [parse_formula("x != _0;", sig)]
    clause = parse_formula("OR(p > _0, x > _0);", sig)
    out = _conjoin_constraint(candidate, clause)
    assert FALSE not in out
    assert [print_formula(c) for c in out] == ["x != _0", "OR(x > _0, p > _0)"]
    # a unit literal still drops the clause literal it contradicts
    unit = [parse_formula("x < _0;", sig)]
    assert [print_formula(c) for c in _conjoin_constraint(unit, clause)] == ["x < _0", "p > _0"]
