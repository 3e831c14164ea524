"""decide() against the reference DPLL searches in tests/oracles.py,
and its probe replay against the reference Fourier-Motzkin.

The engine searches on the model of the unit atoms: it propagates only
on the clauses that model violates, and returns the first node model
that satisfies every clause left.  It translates each literal once per
call, answers a feasibility probe satisfiable when the probe atom has
a column that no unit has, and otherwise replays the probe atom
through the recorded elimination of the units.  None of it may change
the search: the verdict and the witness must be those of the reference
that searches on the model of the units (reference_model_decide),
decide makes no is_sat call, and it runs at most as many eliminations
as that reference makes satisfiability calls.  The verdicts must also
be those of the earlier search (reference_decide), and of the stored
brute-force oracle on the benchmark's pool.  The free-column answers
must be the replay's, and no probe they cover may reach a replay.
"""

import json
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from conftest import workloads
from oracles import evaluate, random_conjunct, reference_decide, reference_is_sat, reference_model_decide
from paramverify import linear, terms
from paramverify.errors import EngineError
from paramverify.linear import decide, make_atom
from paramverify.parsing import parse_statements, parse_term_string
from paramverify.reduction import reduce_chain
from paramverify.terms import App, Atom, Or, Signature, const, formula_terms, num, subterms
from test_linarith import equation_heavy_conjunct, row_table_conjunct
from test_reduction import random_definitional_instance


def recorded_calls(monkeypatch):
    """Route every ground satisfiability call (the engine's is_sat and
    the reference's model_of) and every elimination of the engine
    (_fm_steps) through one recorder, in order, as (kind, atom set)
    pairs."""
    calls = []

    def recorder(kind, real):
        def recording(atoms):
            atoms = list(atoms)
            calls.append((kind, frozenset(atoms)))
            return real(atoms)

        return recording

    monkeypatch.setattr(linear, "is_sat", recorder("is_sat", linear.is_sat))
    monkeypatch.setattr(oracles, "model_of", recorder("model_of", oracles.model_of))
    monkeypatch.setattr(linear, "_fm_steps", recorder("fm", linear._fm_steps))
    return calls


def constants_of(formulas):
    return {s.fn for f in formulas for t in formula_terms(f) for s in subterms(t) if isinstance(s, App) and not s.args}


def check_against_reference(formulas, calls):
    """decide's witness, and how many fewer eliminations it ran than
    the reference of its search made satisfiability calls."""
    del calls[:]
    expected = reference_model_decide(formulas)
    reference_calls = sum(kind != "fm" for kind, _ in calls)
    del calls[:]
    got = decide(formulas)
    assert got == expected
    if got is not None:
        assert list(got) == list(expected)
        point = {s: got.get(s, Fraction(0)) for s in constants_of(formulas)}
        assert all(evaluate(f, point) for f in formulas)
    assert all(kind == "fm" for kind, _ in calls)
    assert len(calls) <= reference_calls
    return got, reference_calls - len(calls)


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


def random_instances():
    """60 random ground instances: guarded definitions reduced to ground
    clauses, every other one with != literals added."""
    rng = random.Random(20231019)
    for k in range(60):
        sig, clauses, goal = random_definitional_instance(rng)
        # every third instance also instantiates at seed terms, for larger inputs
        seeds = [parse_term_string(t, sig) for t in ("f(u)", "f(f(v))")] if k % 3 == 0 else []
        ground = reduce_chain(sig.copy(), clauses + goal, seeds).ground
        yield with_disequalities(rng, ground) if k % 2 else ground


def test_decide_matches_reference_on_random_instances(monkeypatch):
    calls = recorded_calls(monkeypatch)
    verdicts = set()
    saved = 0
    for ground in random_instances():
        witness, fewer = check_against_reference(ground, calls)
        verdicts.add(witness is None)
        saved += fewer
    assert verdicts == {True, False}
    assert saved > 0


def test_earlier_search_gives_the_same_verdicts():
    """The reference of the search before decide searched on the model
    of its units probes every literal of every clause; its verdicts, not
    its witnesses, must be decide's."""
    verdicts = Counter()
    for ground in random_instances():
        sat = decide(ground) is not None
        assert (reference_decide(ground) is not None) is sat
        verdicts[sat] += 1
    assert min(verdicts.values()) >= 10, verdicts


POOL = Path(__file__).parent.parent / "perfbench" / "data" / "equisat_pool.json"


def test_decide_matches_the_pool_oracle_verdicts():
    """On every instance of the benchmark's pool, reduced with the
    benchmark's depth-2 seed terms, decide's verdict is the stored
    brute-force verdict, and every witness makes each ground formula
    true when evaluated without linear, the constants it omits read as
    0.  Neither depends on how decide searches."""
    seed_terms = workloads().SEED_TERMS
    instances = json.loads(POOL.read_text())["instances"]
    verdicts = Counter()
    for inst in instances:
        sig = Signature()
        sig.extension_functions["f"] = (1, 1)
        for c in ("u", "v", "w"):
            sig.declare_constant(c)
        statements = parse_statements(inst["clauses"] + " " + inst["goal"], sig)
        seeds = [parse_term_string(t, sig) for t in seed_terms]
        ground = reduce_chain(sig.copy(), statements, seeds).ground
        witness = decide(ground)
        assert (witness is not None) is inst["sat"], inst["clauses"]
        if witness is not None:
            point = {s: witness.get(s, Fraction(0)) for s in constants_of(ground)}
            assert all(evaluate(f, point) for f in ground), inst["clauses"]
        verdicts[inst["sat"]] += 1
    assert len(instances) == 240 and min(verdicts.values()) >= 50, verdicts


def test_each_literal_is_read_once_and_negations_come_from_atoms(monkeypatch):
    """Within one decide call each distinct literal's terms are read
    (_lit_branches) at most once, and no atom that negate_atom builds
    after the input's negation normal form is ever read: the search
    tests no literal for entailment, so it negates none."""
    reads, built = [], []
    in_nnf = [False]
    real_nnf, real_branches, real_negate = linear.nnf, linear._lit_branches, terms.negate_atom

    def nnf(f):
        in_nnf[0] = True
        try:
            return real_nnf(f)
        finally:
            in_nnf[0] = False

    def negate(a):
        b = real_negate(a)
        if not in_nnf[0]:
            built.append(b)
        return b

    def branches(lit):
        reads.append(lit)
        return real_branches(lit)

    monkeypatch.setattr(linear, "nnf", nnf)
    monkeypatch.setattr(terms, "negate_atom", negate)
    monkeypatch.setattr(linear, "negate_atom", negate, raising=False)
    monkeypatch.setattr(linear, "_lit_branches", branches)
    total = 0
    for ground in random_instances():
        del reads[:], built[:]
        decide(ground)
        assert max(Counter(reads).values()) == 1
        negations = {id(b) for b in built}
        assert not any(id(lit) in negations for lit in reads)
        total += len(reads)
    assert total >= 500


def free_columns(units, a):
    """The columns of a's row that no unit's row holds; the constant ""
    is not a column."""
    held = {v for u in units for v in linear._atom_row(u)[1]}
    return {v for v in linear._atom_row(a)[1] if v and v not in held}


def refuted_calls(monkeypatch):
    """Record every _refuted call as [units, atom, answer, the units'
    steps (None: unsatisfiable), the atoms _probe_sat received during
    the call]."""
    calls = []
    real_refuted, real_probe = linear._refuted, linear._probe_sat

    def refuted(units, a, records):
        call = [units, a, None, None, []]
        calls.append(call)
        call[2] = real_refuted(units, a, records)
        call[3] = records[units][0]
        return call[2]

    def probe(steps, a):
        calls[-1][4].append(a)
        return real_probe(steps, a)

    monkeypatch.setattr(linear, "_refuted", refuted)
    monkeypatch.setattr(linear, "_probe_sat", probe)
    return calls


def covered_calls(calls):
    """The recorded calls with satisfiable units and an atom that has a
    column outside them."""
    return [call for call in calls if call[3] is not None and free_columns(call[0], call[1])]


def test_free_column_answers_match_the_replay(monkeypatch):
    """Every probe that the free-column rule answers gets the verdict
    that replaying it through its units' steps gives."""
    replay = linear._probe_sat
    calls = refuted_calls(monkeypatch)
    for ground in random_instances():
        decide(ground)
    covered = covered_calls(calls)
    assert len(covered) >= 100
    assert all(refuted is not replay(steps, a) for _, a, refuted, steps, _ in covered)


def test_free_column_probes_are_not_replayed(monkeypatch):
    """The free-column rule's saving: no replay gets a probe with a
    column outside its units, and in every instance with such probes
    each is answered without a replay."""
    calls = refuted_calls(monkeypatch)
    instances = 0
    for ground in random_instances():
        del calls[:]
        decide(ground)
        assert not any(free_columns(units, b) for units, _, _, _, replayed in calls for b in replayed)
        covered = covered_calls(calls)
        assert not any(replayed for *_, replayed in covered)
        instances += bool(covered)
    assert instances >= 10


def row_atom(rel, poly):
    """The atom poly rel 0, poly keyed by column: "" for the constant,
    "p*x" for a product."""
    return make_atom(rel, {tuple(sorted(v.split("*"))) if v else (): Fraction(c) for v, c in poly.items()})


def test_constant_is_not_a_free_column(monkeypatch):
    """The units u < c_f_2 and c_f_1 < c_f_2 have no constant term, and
    the probe c_f_2 - u + 3 = 0 has one.  The constant is not a column a
    model can choose, so the probe goes to the replay, which refutes
    it."""
    units = frozenset([row_atom("<", {"u": 1, "c_f_2": -1}), row_atom("<", {"c_f_1": 1, "c_f_2": -1})])
    probe = row_atom("=", {"c_f_2": 1, "u": -1, "": 3})
    calls = refuted_calls(monkeypatch)
    assert linear._refuted(units, probe, {}) is True
    assert [replayed for *_, replayed in calls] == [[probe]]


@pytest.mark.parametrize("rel", ["=", "<", "<="])
@pytest.mark.parametrize("fresh", ["z", "p*x"])
def test_free_column_probe_is_not_replayed(monkeypatch, rel, fresh):
    """1 <= x <= 3 and y <= x refute x + 5 rel 0, but a probe that also
    has a column no unit holds, a plain one or the product p*x, is
    satisfiable with them and is answered without a replay."""
    units = [row_atom("<=", {"x": -1, "": 1}), row_atom("<=", {"x": 1, "": -3}), row_atom("<=", {"y": 1, "x": -1})]
    probe = row_atom(rel, {"x": 1, fresh: 1, "": 5})
    assert reference_is_sat(units + [row_atom(rel, {"x": 1, "": 5})]) is None
    assert reference_is_sat(units + [probe]) is not None
    calls = refuted_calls(monkeypatch)
    assert linear._refuted(frozenset(units), probe, {}) is False
    assert [replayed for *_, replayed in calls] == [[]]


def test_unit_violating_the_model_drops_it(monkeypatch):
    """Propagation visits OR(x <= -1, x >= 5) first and learns x >= 5
    while the model of the units still has x = 1.  The next clause's
    x <= 2 holds at that stale model but is refuted by the units, so
    the model must be replaced by one of the new units before the
    clause is read at it."""
    calls = recorded_calls(monkeypatch)
    sig = Signature()
    formulas = parse_statements("OR(x <= _2, y = _3); OR(x <= -_1, x >= _5); x >= _0;", sig)
    witness, _ = check_against_reference(formulas, calls)
    assert witness is not None and witness["x"] >= 5 and witness["y"] == 3


@pytest.mark.parametrize(
    "text, sat",
    [
        ("OR(x <= _0, AND(y = _1, y = _2)); x >= _1;", False),
        ("OR(x <= _0, AND(y = _1, y = _2)); OR(z <= _0, z >= _1); x >= _1;", False),
        ("OR(x <= _0, AND(y = _1, OR(y = _2, z = _1))); x >= _1; z <= _0;", False),
        ("OR(x <= _0, AND(y >= _1, y <= _2)); OR(z <= _0, z >= _1); x >= _1; y >= _2;", True),
    ],
)
def test_a_conjunction_left_alone_in_a_clause_holds_whole(monkeypatch, text, sat):
    """x >= 1 refutes x <= 0, so only the conjunction is left of its
    clause and every part of it must hold.  Branching on its parts as
    alternatives would let y = 1 alone through and give a witness of an
    unsatisfiable input, whether the conjunction is the only clause
    left or sorts beside another two-literal clause."""
    calls = recorded_calls(monkeypatch)
    formulas = parse_statements(text, Signature())
    witness, _ = check_against_reference(formulas, calls)
    assert (witness is not None) == sat


def negations(a):
    """The atoms whose disjunction is the negation of a."""
    if a.rel != "=":
        return [a.negated()]
    p = a.poly_dict()
    return [make_atom("<", p), make_atom("<", {m: -c for m, c in p.items()})]


def probe_pairs(rng):
    """(units, probe) pairs: one atom held out of a random conjunct and
    probed, then its negation.  Every fourth conjunct's probes also get a
    symbol that no unit has."""
    symbols = ["x", "y", "z", "w", "v"]
    conjuncts = [random_conjunct(rng, symbols[:4], max_atoms=8) for _ in range(150)]
    conjuncts += [equation_heavy_conjunct(rng, symbols) for _ in range(150)]
    conjuncts += [row_table_conjunct(rng) for _ in range(60)]
    for k, atoms in enumerate(conjuncts):
        held = rng.randrange(len(atoms))
        units = atoms[:held] + atoms[held + 1 :]
        probe = atoms[held]
        if k % 4 == 0:
            probe = make_atom(probe.rel, {**probe.poly_dict(), ("p",): Fraction(rng.choice([-2, 1]))})
        for a in [probe] + negations(probe):
            yield units, a


def test_probe_replay_matches_reference():
    """A probe replayed through the recorded elimination of its units
    gets the verdict of the reference FM on the units and the probe."""
    rng = random.Random(20231020)
    seen = {"sat": 0, "unsat": 0, "equation": 0, "strict": 0, "fresh symbol": 0, "unsatisfiable units": 0}
    for units, probe in probe_pairs(rng):
        expected = reference_is_sat(list(units) + [probe]) is not None
        assert linear._refuted(frozenset(units), probe, {}) is not expected, (units, probe)
        seen["sat" if expected else "unsat"] += 1
        seen["equation"] += probe.rel == "="
        seen["strict"] += probe.rel == "<"
        seen["fresh symbol"] += bool(probe.symbols() - {s for a in units for s in a.symbols()})
        seen["unsatisfiable units"] += reference_is_sat(units) is None
    assert min(seen.values()) >= 50, seen


def test_probe_rows_combine_with_each_other():
    """x >= y and x >= 1 - y are the units' only bounds on x, which goes
    first, so the probe x <= 0 yields two rows at that step: y <= 0 and
    y >= 1.  At y's step the units hold only y <= 5; the probe is
    refuted by combining its two rows with each other."""

    units = [
        row_atom("<=", {"y": 1, "x": -1}),
        row_atom("<=", {"y": -1, "x": -1, "": 1}),
        row_atom("<=", {"y": 1, "": -5}),
    ]
    steps = linear._fm_steps(sorted(units, key=linear.LinAtom.key))
    assert [(v, pivot, len(lowers), len(uppers)) for v, pivot, lowers, uppers in steps] == [
        ("x", None, 2, 0),
        ("y", None, 0, 1),
    ]
    for bound, expected in ((0, False), (Fraction(1, 2), True)):
        probe = row_atom("<=", {"x": 1, "": -bound})
        assert (reference_is_sat(units + [probe]) is not None) is expected
        assert linear._probe_sat(steps, probe) is expected


@pytest.mark.parametrize(
    "text, assumed, witness, violated",
    [
        ("OR(x <= _0, AND(y = _1, y = _2)); x >= _1;", "", {"x": 1, "y": 1}, "OR(x <= _0, AND(y = _1, y = _2))"),
        ("OR(x <= _0, y != _1); x >= _1;", "", {"x": 1, "y": 1}, "OR(x <= _0, y != _1)"),
        ("x >= _1;", "x <= _3", {"x": 4}, "x <= _3"),
    ],
    ids=["conjunction-branched-as-alternatives", "disequality", "assumption"],
)
def test_witness_is_checked_against_the_whole_input(monkeypatch, text, assumed, witness, violated):
    """decide checks the witness it returns against every input formula,
    in negation normal form, and every assumption: a search that returns
    a wrong witness, as the one that branched on a conjunction's parts
    as if they were alternatives did, raises EngineError."""
    sig = Signature()
    formulas = parse_statements(text, sig)
    assumptions = linear.assumptions_from(parse_statements(assumed + ";", sig)) if assumed else []
    monkeypatch.setattr(linear, "_decide", lambda *args: {v: Fraction(w) for v, w in witness.items()})
    with pytest.raises(EngineError, match=re.escape("ground witness violates %s" % violated)):
        decide(formulas, assumptions)
