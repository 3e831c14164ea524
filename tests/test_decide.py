"""decide() against the reference DPLL in tests/oracles.py.

The engine translates each literal once per call and answers a
feasibility probe from the model of the current unit atoms when the
probe's atoms hold there.  Neither may change the search: the verdict
and the witness must be the reference's, and the engine's is_sat and
model_of calls must be a subsequence of the reference's.
"""

import random
from fractions import Fraction

import oracles
from oracles import evaluate, reference_decide
from paramverify import linear
from paramverify.linear import decide
from paramverify.parsing import parse_statements, parse_term_string
from paramverify.reduction import reduce_chain
from paramverify.terms import App, Atom, Or, Signature, const, formula_terms, num, subterms
from test_reduction import random_definitional_instance


def recorded_calls(monkeypatch):
    """Route every ground satisfiability call of the engine and the
    reference (is_sat and model_of) through one recorder, in order."""
    calls = []

    def recorder(real):
        def recording(atoms):
            atoms = list(atoms)
            calls.append(frozenset(atoms))
            return real(atoms)

        return recording

    monkeypatch.setattr(linear, "is_sat", recorder(linear.is_sat))
    recording_model_of = recorder(linear.model_of)
    monkeypatch.setattr(linear, "model_of", recording_model_of)
    monkeypatch.setattr(oracles, "model_of", recording_model_of)
    return calls


def is_subsequence(short, long):
    rest = iter(long)
    return all(any(call == other for other in rest) for call in short)


def constants_of(formulas):
    return {s.fn for f in formulas for t in formula_terms(f) for s in subterms(t) if isinstance(s, App) and not s.args}


def check_against_reference(formulas, calls):
    del calls[:]
    expected = reference_decide(formulas)
    reference_calls = list(calls)
    del calls[:]
    got = decide(formulas)
    assert got == expected
    if got is not None:
        assert list(got) == list(expected)
        point = {s: got.get(s, Fraction(0)) for s in constants_of(formulas)}
        assert all(evaluate(f, point) for f in formulas)
    assert is_subsequence(calls, reference_calls)
    return got, len(reference_calls) - len(calls)


def with_disequalities(rng, formulas):
    """Add != literals over the instance's constants: some as unit
    clauses, some inside disjunctions."""
    names = sorted(constants_of(formulas) | {"u", "v", "w"})
    extra = []
    for _ in range(rng.randint(1, 3)):
        lhs, rhs = rng.sample(names, 2)
        diseq = Atom("!=", const(lhs), const(rhs))
        if rng.random() < 0.5:
            extra.append(diseq)
        else:
            other = Atom(rng.choice(["<=", "<", "="]), const(rng.choice(names)), num(rng.randint(-2, 2)))
            extra.append(Or((diseq, other)))
    return list(formulas) + extra


def test_decide_matches_reference_on_random_instances(monkeypatch):
    calls = recorded_calls(monkeypatch)
    rng = random.Random(20231019)
    verdicts = set()
    saved = 0
    for k in range(60):
        sig, clauses, goal = random_definitional_instance(rng)
        # every third instance also instantiates at seed terms, for larger inputs
        seeds = [parse_term_string(t, sig) for t in ("f(u)", "f(f(v))")] if k % 3 == 0 else []
        ground = reduce_chain(sig.copy(), clauses + goal, seeds).ground
        if k % 2:
            ground = with_disequalities(rng, ground)
        witness, fewer = check_against_reference(ground, calls)
        verdicts.add(witness is None)
        saved += fewer
    assert verdicts == {True, False}
    assert saved > 0


def test_unit_violating_the_model_drops_it(monkeypatch):
    """Propagation visits OR(x <= -1, x >= 5) first and learns x >= 5
    while the model of the units still has x = 1.  The next clause's
    x <= 2 holds at that stale model but is refuted by the units, so
    the model must be dropped before the clause is probed."""
    calls = recorded_calls(monkeypatch)
    sig = Signature()
    formulas = parse_statements("OR(x <= _2, y = _3); OR(x <= -_1, x >= _5); x >= _0;", sig)
    witness, _ = check_against_reference(formulas, calls)
    assert witness is not None and witness["x"] >= 5 and witness["y"] == 3
