import copy
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from oracles import (
    GRID7,
    GridError,
    dnf_formula,
    equiv_on_grid,
    eval_conjunct,
    eval_dnf,
    evaluate,
    exists_extension,
    model_of,
    random_conjunct,
    reference_is_sat,
)
from paramverify.errors import CaseExplosionError, EngineError, NonLinearError, SortError
from paramverify import linear
from paramverify.linear import (
    LinAtom,
    _atom_row,
    _back_substitute,
    _fm_steps,
    assumptions_from,
    conjunct_of,
    decide,
    eliminate,
    is_sat,
    lin_to_atom,
    make_atom,
    simplify,
    simplify_conjunct,
    to_linear,
)
from paramverify.parsing import parse_formula, parse_statements
from paramverify.printing import print_canonical, print_formula
from paramverify.terms import And, Atom, Or, Signature, conj, const, num


def dnf(text, sig=None):
    sig = sig or Signature()
    return to_linear(conj(parse_statements(text, sig)))


def test_to_linear_normalization():
    d = dnf("d1 - d2 > _0;")
    assert len(d) == 1 and len(d[0]) == 1
    assert d[0][0].rel == "<"


def test_to_linear_parametric_coefficient():
    d = dnf("dmin * t <= x1p - x1;")
    (atom,) = d[0]
    polys = dict(atom.poly)
    assert polys[("dmin", "t")] == 1
    assert polys[("x1p",)] == -1
    assert polys[("x1",)] == 1


def test_nonlinear_elimination_rejected():
    with pytest.raises(NonLinearError, match="symbol x occurs with degree >= 2"):
        eliminate(["x"], dnf("x * x <= _1;"))
    with pytest.raises(NonLinearError, match=r"eliminated symbols multiplied together: x\*y"):
        eliminate(["x", "y"], dnf("x * y <= _1;"))


def test_disequality_assumption_is_an_error():
    """A != assumption is a disjunction; as both strict halves it would
    be unsatisfiable and make every projection under it true."""
    with pytest.raises(SortError, match="assumption d1 != _5 is a disjunction"):
        assumptions_from(parse_statements("d1 >= _0; d1 != _5;", Signature()))
    (a,) = assumptions_from(parse_statements("d1 <= _5;", Signature()))
    assert print_formula(lin_to_atom(a)) == "d1 <= _5"


def test_nonlinear_atom_behind_a_refuted_sign_is_not_split():
    """The coefficient p of the first atom has no sign under p > 0 and
    p <= -1, so the conjunct is dropped before x * x is reached."""
    atoms = (
        make_atom("<=", {("p", "x"): Fraction(1), (): Fraction(-1)}),
        make_atom("<=", {("x", "x"): Fraction(1), (): Fraction(-1)}),
        make_atom("<=", {("p",): Fraction(1), (): Fraction(1)}),
    )
    assert eliminate(["x"], [atoms], dnf("p > _0;")[0]) == []
    with pytest.raises(NonLinearError):
        eliminate(["x"], [atoms])


def test_eliminate_two_bounds():
    out = eliminate(["x"], dnf("a <= x; x <= b;"))
    assert print_canonical(dnf_formula(out)) == "a - b <= _0"


def test_eliminate_strict_empty_interval():
    assert eliminate(["x"], dnf("a < x; x < a;")) == []


def test_eliminate_nonstrict_point_interval():
    out = eliminate(["x"], dnf("a <= x; x <= a;"))
    assert out == [()]


def test_eliminate_unsatisfiable_atom():
    assert eliminate(["x"], dnf("x < x;")) == []


def test_is_sat_initiation_example():
    assert not is_sat(dnf("d1 = _1; d2 = _1; d1 - d2 > _0;")[0])


def test_is_sat_witness_in_interval():
    w = model_of(dnf("x >= _0; x <= _1;")[0])
    assert w is not None and 0 <= w["x"] <= 1


def test_is_sat_strict_witness():
    w = model_of(dnf("x > _0; x < _1; y > x;")[0])
    assert w is not None and 0 < w["x"] < 1 and w["y"] > w["x"]


def test_projection_against_interval_oracle():
    rng = random.Random(20240817)
    symbols = ["x", "y", "z", "w"]
    grid = [Fraction(q) for q in (-2, -1, 0, 1, 2)]
    for _ in range(120):
        n = rng.randint(2, 4)
        syms = symbols[:n]
        conjunct = random_conjunct(rng, syms)
        v = syms[0]
        projected = eliminate([v], [conjunct])
        rest = [s for s in syms if s != v]
        for values in product(grid, repeat=len(rest)):
            point = dict(zip(rest, values))
            assert eval_dnf(projected, point) == exists_extension(conjunct, v, point)


def test_is_sat_against_grid_search():
    rng = random.Random(99)
    symbols = ["x", "y", "z"]
    for _ in range(150):
        conjunct = random_conjunct(rng, symbols, max_atoms=5)
        witness = model_of(conjunct)
        grid_hit = None
        for values in product(GRID7, repeat=len(symbols)):
            point = dict(zip(symbols, values))
            if eval_conjunct(conjunct, point):
                grid_hit = point
                break
        if witness is None:
            assert grid_hit is None
        else:
            full = {s: witness.get(s, Fraction(0)) for s in symbols}
            assert eval_conjunct(conjunct, full)


RATIONALS = [Fraction(q) for q in (1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 5), Fraction(-7, 3))]


def equation_heavy_conjunct(rng, symbols, max_atoms=12):
    """Mostly equations, with non-unit rational coefficients and strict
    bounds among the rest."""
    atoms = []
    for _ in range(rng.randint(2, max_atoms)):
        poly = {(s,): rng.choice(RATIONALS) for s in rng.sample(symbols, rng.randint(1, 3))}
        poly[()] = rng.choice(RATIONALS + [Fraction(0)])
        a = make_atom(rng.choices(["=", "<", "<="], weights=[5, 2, 1])[0], poly)
        if isinstance(a, LinAtom):
            atoms.append(a)
    return tuple(atoms)


def with_strictness_twins(rng, atoms):
    """Some bounds followed, later on, by the same bound with the other
    strictness, so that pruning meets equal constants of both kinds."""
    out = list(atoms)
    for a in atoms:
        if a.rel != "=" and rng.random() < 0.5:
            twin = make_atom("<" if a.rel == "<=" else "<=", a.poly_dict())
            out.insert(rng.randint(out.index(a) + 1, len(out)), twin)
    return tuple(out)


def row_table_conjunct(rng):
    """Rows that meet rows kept from before the step that produces them.
    t and then z are eliminated first (fewest occurrences), each by its
    pivot equation.  Substituting t into d + m t + c2 rel 0, and z into
    d + k z + c3 rel 0, produces bounds with the direction d of the
    surviving d + c1 rel 0: step one's bound may replace it in its slot,
    and step two's bound may replace that one.  Substituting z into
    e + j z + e2 = 0 produces the surviving equation e + e1 = 0, which
    must be dropped."""
    d = {("x",): Fraction(rng.choice([1, 2])), ("y",): Fraction(rng.choice([-1, 1, 3]))}
    e = {("x",): Fraction(1), ("y",): Fraction(rng.choice([-2, 2]))}
    t0, z0, e1 = (Fraction(rng.randint(-3, 3)) for _ in range(3))
    m, k, j = (Fraction(rng.choice([-2, -1, 1, 2])) for _ in range(3))

    def bound(poly):
        return make_atom(rng.choice(["<=", "<"]), {**poly, (): Fraction(rng.randint(-4, 4))})

    bounds = [bound(d), bound({**d, ("t",): m}), bound({**d, ("z",): k})]
    rng.shuffle(bounds)
    return tuple(
        bounds
        + [
            make_atom("=", {("t",): Fraction(1), (): -t0}),
            make_atom("=", {("z",): Fraction(1), (): -z0}),
            make_atom("=", {**e, ("z",): j, (): e1 - j * z0}),
            make_atom("=", {**e, (): e1}),
            make_atom("<=", {("x",): Fraction(1), ("y",): Fraction(-1), (): Fraction(-3)}),
            make_atom("<=", {("x",): Fraction(-1), ("y",): Fraction(1), (): Fraction(-3)}),
        ]
    )


def test_integer_fm_matches_fraction_reference(monkeypatch):
    """The integer-row FM returns the reference FM's verdict and witness
    (same values, same insertion order) for atoms given in one order.
    is_sat, from an empty cache and from its own entry, returns the
    reference's verdict, and model_of its witness on LinAtom.key order.
    No call changes the integer row cached on an atom."""
    rng = random.Random(20231018)
    symbols = ["x", "y", "z", "w", "v", "t"]
    cases = [random_conjunct(rng, symbols[:4], max_atoms=8) for _ in range(300)]
    cases += [equation_heavy_conjunct(rng, symbols[:5]) for _ in range(300)]
    cases += [with_strictness_twins(rng, atoms) for atoms in cases[:300]]
    cases += [row_table_conjunct(rng) for _ in range(200)]
    verdicts = set()
    for atoms in cases:
        rows = {a: copy.deepcopy(_atom_row(a)) for a in atoms}
        expected = reference_is_sat(atoms)
        steps = _fm_steps(atoms)
        got = None if steps is None else _back_substitute(steps)
        assert got == expected
        verdicts.add(got is None)
        if got is not None:
            assert list(got) == list(expected)
            assert eval_conjunct(atoms, {s: got.get(s, Fraction(0)) for s in symbols})
        keyed = reference_is_sat(sorted(set(atoms), key=LinAtom.key))
        monkeypatch.setattr(linear, "_SAT_CACHE", {})
        assert is_sat(atoms) == (keyed is not None)
        assert linear._SAT_CACHE == {frozenset(atoms): keyed is not None}
        witness = model_of(atoms)
        assert witness == keyed
        if witness is not None:
            assert list(witness) == list(keyed)
        assert is_sat(atoms) == (keyed is not None)
        assert all(_atom_row(a) == row for a, row in rows.items())
    assert verdicts == {True, False}


# the ten atoms of a conjunct whose elimination of s0, s1 and s2 hands
# the exact prune conjuncts of 60 and more atoms; s0-s4 are constants
PRODUCT_HEAVY = """s0 + (_-1/2 * s2) <= _-1
_-1 * s1 < _3/2
((_-1 * s1) + (_1/2 * s2)) + (_1/2 * s4) <= _1
s0 + (_-1 * s2) <= _-1
((_-2 * s0) + s1) + ((_-1 * s1) * s3) <= _3
((_-2 * s0) + (_2 * s2)) + ((_-1 * s2) * s3) <= _1
((_-1 * s1) + (_-1 * s2)) + (_-1/2 * s4) <= _1/2
s0 + s1 <= _2
((_-1 * s0) + (_1/2 * s1)) + (_1/2 * s3) <= _3/2
(s0 + (_-1 * s1)) + (_-1/2 * s4) <= _0"""


def first_exact_prune(monkeypatch):
    """The conjunct that eliminating s0, s1 and s2 from PRODUCT_HEAVY
    hands to its first exact prune."""
    sig = Signature()
    for i in range(5):
        sig.declare_constant("s%d" % i)
    atoms = tuple(a for line in PRODUCT_HEAVY.splitlines() for a in linear.atom_to_lin(parse_formula(line, sig)))

    class Pruned(Exception):
        pass

    def stop(conj, assumptions):
        raise Pruned(conj)

    with monkeypatch.context() as m:
        m.setattr(linear, "simplify_conjunct", stop)
        with pytest.raises(Pruned) as caught:
            eliminate(["s0", "s1", "s2"], [atoms])
    return caught.value.args[0]


def recorded_skips(monkeypatch):
    """Count, for every bound step that _fm_rows completes, the lower x
    upper combinations it meets and those it builds no row for."""
    seen = {"combinations": 0, "skipped": 0}
    real = linear._fm_rows

    def recording(pivot, lowers, uppers, steps, admit):
        built = []

        def counted(rel, row, h):
            built.append(h)
            return admit(rel, row, h)

        ok = real(pivot, lowers, uppers, steps, counted)
        if ok and pivot is None:
            seen["combinations"] += len(lowers) * len(uppers)
            seen["skipped"] += len(lowers) * len(uppers) - len(built)
        return ok

    monkeypatch.setattr(linear, "_fm_rows", recording)
    return seen


def product_column_conjunct(rng):
    """10-14 bounds over 3-5 columns, at least one a product monomial."""
    pool = [("x",), ("y",), ("z",), ("x", "y"), ("x", "x"), ("x", "x", "y")]
    columns = [("x", "y")] + rng.sample([m for m in pool if m != ("x", "y")], rng.randint(2, 4))
    atoms = []
    while len(atoms) < rng.randint(10, 14):
        poly = {m: Fraction(rng.randint(-3, 3)) for m in rng.sample(columns, rng.randint(1, 3))}
        a = make_atom(rng.choice(["<=", "<"]), {**poly, (): Fraction(rng.randint(-8, 2))})
        if isinstance(a, LinAtom) and a not in atoms:
            atoms.append(a)
    return atoms


def test_ground_history_rule_keeps_the_verdict(monkeypatch):
    """Ground Fourier-Motzkin builds no lower x upper combination whose
    history has more than k + 1 atoms after k steps.  On conjuncts
    with product columns, where the rule skips combinations, is_sat
    answers as the reference FM does, and every witness holds.  The
    first exact prune of PRODUCT_HEAVY (33 atoms over s3, s4, s3*s3,
    s3*s4 and s3*s3*s4) is satisfiable."""
    pruned = first_exact_prune(monkeypatch)
    columns = {linear._mono_var(m) for a in pruned for m, _ in a.terms if m}
    assert len(pruned) == 33 and columns == {"s3", "s4", "s3*s3", "s3*s4", "s3*s3*s4"}
    rng = random.Random(20261019)
    cases = [list(pruned)] + [product_column_conjunct(rng) for _ in range(60)]
    monkeypatch.setattr(linear, "_SAT_CACHE", {})
    seen = recorded_skips(monkeypatch)
    verdicts = []
    for atoms in cases:
        before = seen["skipped"]
        sat = is_sat(atoms)
        assert sat == (reference_is_sat(atoms) is not None), atoms
        if sat:
            model_of(atoms)
        verdicts.append((sat, seen["skipped"] > before))
    assert verdicts[0] == (True, True)
    assert {(True, True), (False, True)} <= set(verdicts)


def test_holds_on_scaled_model_matches_evaluation():
    """_holds at the integer-scaled model agrees with evaluating the
    atom at the Fraction model, missing symbols reading 0."""
    rng = random.Random(20231020)
    symbols = ["x", "y", "z", "w"]
    values = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3, 7)]
    checked = {True: 0, False: 0}
    for k in range(400):
        model = {s: rng.choice(values) for s in rng.sample(symbols, rng.randint(0, len(symbols)))} if k % 10 else {}
        scaled = linear._scaled(model)
        point = {s: model.get(s, Fraction(0)) for s in symbols}
        for a in random_conjunct(rng, symbols, max_atoms=4) + equation_heavy_conjunct(rng, symbols):
            holds = linear._holds(scaled, a)
            assert holds == evaluate(linear.lin_to_atom(a), point)
            checked[holds] += 1
    assert min(checked.values()) > 100


def test_model_of_rejects_a_wrong_witness(monkeypatch):
    """Every witness built from the elimination steps is checked against
    every atom."""
    real = linear._back_substitute

    def off_by_one(steps):
        witness = real(steps)
        witness["x"] += 1
        return witness

    monkeypatch.setattr(linear, "_back_substitute", off_by_one)
    atoms = dnf("x = _2; y >= x;")[0]
    assert is_sat(atoms)
    with pytest.raises(EngineError, match="violates x = _2"):
        model_of(atoms)
    with pytest.raises(EngineError, match="violates x = _2"):
        decide(parse_statements("x = _2; y >= x;", Signature()))


def test_simplify_contradicted_disjuncts():
    sig = Signature()
    A = assumptions_from(parse_statements("min >= _0; ea > _0;", sig))
    d = dnf("min < _0;") + dnf("ea <= _0;")
    assert simplify(d, A) == []


def test_simplify_keeps_equivalence_on_grid():
    rng = random.Random(4)
    symbols = ["x", "y", "z"]
    for _ in range(60):
        conj1 = random_conjunct(rng, symbols, max_atoms=6)
        d = [conj1]
        slim = simplify(d, ())
        for values in product([Fraction(-2), Fraction(0), Fraction(1)], repeat=3):
            point = dict(zip(symbols, values))
            assert eval_dnf(d, point) == eval_dnf(slim, point)


def test_simplify_drops_entailed_atom():
    d = dnf("x <= _1; x <= _2;")
    slim = simplify(d, ())
    assert len(slim[0]) == 1


def test_simplify_gives_a_slot_shared_with_an_assumption_back_its_row():
    """x + z <= _0 shares its row table slot with the assumption on
    x + z.  Once the atom is found entailed, the slot holds the
    assumption's row again: with x + z <= _5 the slot is not dropped
    (x <= _0 stays, the assumption does not entail it) nor kept at
    x + z <= _0 (which would entail x <= _0).  A tighter assumption, in
    the slot from the start, entails both atoms on x."""
    sig = Signature()
    for conjunct, assumption, kept in (
        ("x + z <= _0; x <= _0; z <= _0; z >= _0;", "x + z <= _5;", "x <= _0; z <= _0; z >= _0;"),
        ("x + z <= _0; x <= _0; z <= _0; z >= _0;", "x + z <= _-1;", "z <= _0; z >= _0;"),
        ("x + z <= _5; x <= _0; z <= _0; z >= _0;", "x + z <= _0;", "z <= _0; z >= _0;"),
    ):
        assumptions = assumptions_from(parse_statements(assumption, sig))
        assert simplify_conjunct(dnf(conjunct, sig)[0], assumptions) == dnf(kept, sig)[0]


def entailed_and_shared(rng):
    """A random conjunct over x and y with up to two nonnegative
    combinations of its atoms added, each entailed by them, and up to
    three assumptions: most share a slot with a bound of the conjunct
    (its variable part, another constant) or repeat an equation."""
    atoms = list(random_conjunct(rng, ["x", "y"], max_atoms=5))
    for _ in range(rng.randint(0, 2)):
        poly, rels = {(): Fraction(-rng.randint(0, 1))}, set()
        for a in rng.sample(atoms, min(len(atoms), 2)):
            factor = rng.choice([-1, 1, 2] if a.rel == "=" else [1, 2])
            for m, c in a.poly:
                poly[m] = poly.get(m, 0) + factor * c
            rels.add(a.rel)
        rel = "<" if "<" in rels else "=" if rels == {"="} and not poly[()] else "<="
        b = make_atom(rel, poly)
        if isinstance(b, LinAtom):
            atoms.append(b)
    rng.shuffle(atoms)
    assumptions = []
    for _ in range(rng.randint(0, 3)):
        a = rng.choice(atoms)
        if a.rel == "=":
            b = a if rng.random() < 0.5 else make_atom("<=", {**dict(a.poly), (): Fraction(rng.randint(-3, 3))})
        else:
            b = make_atom(rng.choice(["<=", "<"]), {**dict(a.poly), (): Fraction(rng.randint(-3, 3))})
        if isinstance(b, LinAtom) and b not in assumptions:
            assumptions.append(b)
    return tuple(atoms), assumptions


def reference_simplify_conjunct(conjunct, assumptions):
    """simplify_conjunct by its definition on the reference FM: the
    atoms the row table keeps, then, most terms first, each atom left
    out when the rest and the assumptions refute its negation (each
    strict half of an equation's)."""
    atoms, _ = admitted(conjunct, [0] * len(conjunct))
    if reference_is_sat(atoms + assumptions) is None:
        return None
    for a in sorted(atoms, key=lambda b: (len(b.terms), b.key()), reverse=True):
        rest = [b for b in atoms if b is not a] + assumptions
        if a.rel == "=":
            negations = [make_atom("<", dict(a.poly)), make_atom("<", {m: -c for m, c in a.poly})]
        else:
            negations = [a.negated()]
        if all(reference_is_sat(rest + [n]) is None for n in negations):
            atoms.remove(a)
    return conjunct_of(atoms)


def test_simplify_conjunct_matches_the_reference_leave_one_out():
    """On 2,000 generated conjuncts, some of whose atoms are entailed and
    some of whose assumptions share a slot with an atom, simplify_conjunct
    keeps exactly the atoms the reference leave-one-out keeps."""
    rng = random.Random(20261020)
    seen = {"unsat": 0, "dropped": 0, "shared": 0}
    for _ in range(2000):
        conjunct, assumptions = entailed_and_shared(rng)
        got = simplify_conjunct(conjunct, assumptions)
        assert got == reference_simplify_conjunct(conjunct, assumptions), (conjunct, assumptions)
        if got is None:
            seen["unsat"] += 1
            continue
        kept, _ = admitted(conjunct, [0] * len(conjunct))
        seen["dropped"] += len(got) < len(kept)
        slots = admitted(list(assumptions) + kept, [0] * (len(assumptions) + len(kept)))[0]
        seen["shared"] += len(got) < len(kept) and len(slots) < len(set(assumptions) | set(kept))
    assert all(n >= 100 for n in seen.values()), seen


def test_sign_cases_match_the_reference(monkeypatch):
    """Every sign the eliminator decides for a parametric coefficient of
    parametric_conjunct's atoms, on a step's context table, is the one
    that three reference_is_sat calls give on the context's atoms plus
    each sign case.  Assumptions on the parameter make every verdict
    occur."""
    contexts = {}
    table_of, sign = linear._table_of, linear._sign

    def recording_table_of(atoms):
        atoms = list(atoms)
        context = table_of(atoms)
        contexts[id(context)] = context, atoms
        return context

    verdicts = Counter()

    def checking_sign(coeff, context):
        got = sign(coeff, context)
        if type(coeff) is not int:
            atoms = contexts[id(context)][1]
            possible = [reference_is_sat(atoms + [case]) is not None for case in linear._sign_cases(coeff)]
            if not any(possible):
                assert got == "dead"
            else:
                assert got == ("+-0"[possible.index(True)] if sum(possible) == 1 else "?")
            verdicts[got] += 1
        return got

    monkeypatch.setattr(linear, "_table_of", recording_table_of)
    monkeypatch.setattr(linear, "_sign", checking_sign)
    rng = random.Random(20261021)
    sig = Signature()
    for k in range(120):
        contexts.clear()
        symbols = ["s%d" % i for i in range(5)]
        conjunct = parametric_conjunct(rng, symbols[:3], symbols[3:])
        assumptions = ["", "s3 >= _1;", "s3 <= _-1;", "s3 = _0;", "s3 >= _0; s4 <= s3;", "s3 + s4 = _0;"][k % 6]
        eliminate(symbols[:3], [conjunct], assumptions_from(parse_statements(assumptions, sig)))
    assert set(verdicts) == {"+", "-", "0", "?", "dead"}, verdicts


def test_leave_one_out_and_sign_cases_make_no_is_sat_call(monkeypatch):
    """simplify_conjunct calls is_sat once, for its first check; the
    leave-one-out runs on its shared table.  The sign cases of an
    elimination below the prune threshold never call is_sat."""
    calls, checks = [], []
    real_is_sat, real_sat_with = linear.is_sat, linear._sat_with
    monkeypatch.setattr(linear, "is_sat", lambda atoms: calls.append(atoms) or real_is_sat(atoms))
    monkeypatch.setattr(linear, "_sat_with", lambda *args: checks.append(args) or real_sat_with(*args))
    sig = Signature()
    conjunct = dnf("x <= _1; x <= y; y <= _0; x + y <= _1; x + _2 * y <= _3;", sig)[0]
    simplify_conjunct(conjunct, assumptions_from(parse_statements("x + y <= _2;", sig)))
    assert len(calls) == 1 and len(checks) >= len(conjunct)
    del calls[:], checks[:]
    out = eliminate(["x"], dnf("p * x <= y; x >= _1; y <= _3;", sig))
    assert len(out) > 1 and checks and not calls


def test_case_split_matches_sign_instantiation():
    """The union of the three sign cases agrees with substituting the
    parameter by representatives of each sign.  In the second conjunct
    the zero case makes an atom false (1 <= 0), which drops the case."""
    for base in ("p * x <= y; x >= _1; y <= _3;", "p * x + _1 <= _0; x >= _0; y <= _3;"):
        split = eliminate(["x"], dnf(base, Signature()))
        for value in (-1, 0, 1):
            inst_text = base.replace("p", "_%d" % value)
            direct = eliminate(["x"], dnf(inst_text, Signature()))
            for yv in GRID7:
                point = {"y": yv, "p": Fraction(value)}
                assert eval_dnf(split, point) == eval_dnf(direct, {"y": yv})


def test_case_explosion_guard():
    sig = Signature()
    text = "p1 * x <= _1; p2 * x <= _1; p3 * x <= _1; p4 * x <= _1; x >= _0;"
    with pytest.raises(CaseExplosionError):
        eliminate(["x"], dnf(text, sig), max_cases=3)
    # Each disjunction fits the cap, their product (90,000 conjuncts)
    # does not: the guard fires before the product is built.
    x, y = const("x"), const("y")
    wide = And(
        (
            Or(tuple(Atom("<=", x, num(k)) for k in range(300))),
            Or(tuple(Atom("<=", y, num(k)) for k in range(300))),
        )
    )
    tracemalloc.start()
    try:
        with pytest.raises(CaseExplosionError):
            to_linear(wide, max_conjuncts=400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_equiv_on_grid_basics():
    sig = Signature()
    f = parse_formula("x <= _1;", sig)
    g = parse_formula("NOT(x > _1);", sig)
    assert equiv_on_grid(f, g, ["x"])
    h = parse_formula("a <= b;", sig)
    k = parse_formula("b <= a;", sig)
    assert not equiv_on_grid(h, k, ["a", "b"])


def test_equiv_on_grid_catches_strictness():
    sig = Signature()
    f = parse_formula("x <= _1;", sig)
    g = parse_formula("x < _1;", sig)
    assert not equiv_on_grid(f, g, ["x"])


def test_equiv_on_grid_projection_example():
    sig = Signature()
    projected = dnf_formula(eliminate(["x"], dnf("a <= x; x <= b;")))
    assert equiv_on_grid(projected, parse_formula("a <= b;", sig), ["a", "b"])


def test_grid_too_large():
    sig = Signature()
    f = parse_formula("x <= _1;", sig)
    with pytest.raises(GridError, match="points"):
        equiv_on_grid(f, f, list("abcdefghijk"), grid=GRID7, cap=1000)


def test_decide_splits_disjunctions():
    sig = Signature()
    (f,) = parse_statements("OR(x < _0, x > _1);", sig)
    (g,) = parse_statements("x = _1/2;", sig)
    assert decide([f, g]) is None
    (h,) = parse_statements("x = _2;", sig)
    w = decide([f, h])
    assert w is not None and w["x"] == 2


def test_decide_with_assumptions():
    sig = Signature()
    fs = parse_statements("lsafe < _0;", sig)
    A = assumptions_from(parse_statements("lsafe >= _0;", sig))
    assert decide(fs, A) is None


def test_parametric_equation_pivot_by_cases():
    sig = Signature()
    d = dnf("p * x = y; x >= _1; y <= _2;", sig)
    out = eliminate(["x"], d, assumptions_from(parse_statements("p > _0;", sig)))
    ref = parse_formula("AND(y <= _2, y >= p);", sig)
    guard = parse_formula("p > _0;", sig)
    assert equiv_on_grid(dnf_formula(out), ref, ["p", "y"], assumptions=guard)


def test_cascading_sign_splits_two_parameters():
    d = dnf("p * x <= _1; q * x >= _0; x >= _2;")
    out = eliminate(["x"], d)
    for v_p in (-1, 0, 1):
        for v_q in (-1, 0, 1):
            direct = eliminate(
                ["x"],
                dnf("_%d * x <= _1; _%d * x >= _0; x >= _2;" % (v_p, v_q)),
            )
            got = eval_dnf(out, {"p": Fraction(v_p), "q": Fraction(v_q)})
            assert got == eval_dnf(direct, {}), (v_p, v_q)


def test_eliminating_absent_symbol_is_identity():
    d = dnf("a <= b;")
    assert eliminate(["z"], d) == d


# ---------------------------------------------------------------------------
# History-tagged elimination (Chernikov's rule)

# five values, half-integers among them: three kept symbols make 125 points
HALF_GRID = [Fraction(q) for q in (-1, Fraction(-1, 2), 0, Fraction(1, 2), 2)]


def parametric_conjunct(rng, eliminated, kept):
    """8-14 atoms over the eliminated and the kept symbols.  One or two
    coefficients of eliminated symbols get a term p*x with p the first
    kept symbol, so eliminating x splits on the sign of that
    coefficient."""
    atoms = []
    products = rng.randint(1, 2)
    size = rng.randint(8, 14)
    while len(atoms) < size:
        poly = {}
        for x in rng.sample(eliminated, rng.randint(1, 2)):
            poly[(x,)] = Fraction(rng.choice([-2, -1, 1, 2]))
            if products and rng.random() < 0.2:
                products -= 1
                poly[tuple(sorted((x, kept[0])))] = Fraction(rng.choice([-1, 1]))
        if rng.random() < 0.4:
            poly[(rng.choice(kept),)] = Fraction(rng.choice([-1, 1]))
        poly[()] = Fraction(rng.randint(-3, 3))
        a = make_atom(rng.choices(["<=", "<", "="], weights=[6, 3, 1])[0], poly)
        if isinstance(a, LinAtom):
            atoms.append(a)
    return tuple(atoms)


def instantiate(conjunct, point):
    """The conjunct with the point's symbols replaced by their values;
    None when an atom becomes false."""
    out = []
    for a in conjunct:
        poly = {}
        for mono, c in a.poly:
            for s in mono:
                if s in point:
                    c *= point[s]
            rest = tuple(s for s in mono if s not in point)
            poly[rest] = poly.get(rest, Fraction(0)) + c
        b = make_atom(a.rel, poly)
        if b is False:
            return None
        if b is not True:
            out.append(b)
    return out


def test_multi_symbol_elimination_against_reference(monkeypatch):
    """Eliminating 2-4 of 4-6 symbols from random parametric conjuncts:
    at every point of a half-integer grid over the kept symbols, the
    projection holds exactly when the reference FM finds the conjunct
    satisfiable there.  Sign splits happen along the way."""
    splits = []
    sign_split = linear._Eliminator._sign_split

    def recording(self, atoms, a, coeff, rest):
        splits.append(True)
        return sign_split(self, atoms, a, coeff, rest)

    monkeypatch.setattr(linear._Eliminator, "_sign_split", recording)
    rng = random.Random(20261018)
    for _ in range(40):
        n = rng.randint(4, 6)
        symbols = ["s%d" % i for i in range(n)]
        m = rng.randint(max(2, n - 3), min(4, n - 1))
        eliminated, kept = symbols[:m], symbols[m:]
        conjunct = parametric_conjunct(rng, eliminated, kept)
        projected = eliminate(eliminated, [conjunct])
        for values in product(HALF_GRID, repeat=len(kept)):
            point = dict(zip(kept, values))
            ground = instantiate(conjunct, point)
            expected = ground is not None and reference_is_sat(ground) is not None
            assert eval_dnf(projected, point) == expected, (conjunct, point)
    assert sum(splits) >= 10


def test_pivot_substitution_counts_as_a_step():
    """Substituting x = y makes y <= p from two atoms; combined with
    y >= _3 its history has three atoms after two steps, which is kept."""
    out = eliminate(["x", "y"], dnf("x = y; x <= p; y >= _3;"))
    assert print_canonical(dnf_formula(out)) == "p >= _3"


def test_redundant_combination_is_not_built():
    """y goes first: its four combinations bound x by q and r on either
    side, each from two atoms.  Of the nine combinations on x, the two
    from four atoms (q + r >= 0) are implied by q >= 0 and r >= 0 and are
    not built."""
    out = eliminate(["y", "x"], dnf("y >= x; y >= - x; y <= q; y <= r; x <= _1; - x <= _1;"))
    assert print_canonical(dnf_formula(out)) == "AND(r >= _0, q >= _0)"


def admitted(atoms, histories):
    """The atoms and histories a row table keeps, in table order, when
    the atoms' rows are admitted in order with the given histories."""
    table = {}
    for a, h in zip(atoms, histories):
        assert linear._admit(table, {}, *_atom_row(a), h, (), a)
    return [entry[5] for entry in table.values()], [entry[2] for entry in table.values()]


def test_row_table_survivor_takes_the_intersection_of_histories():
    """A tighter bound replaces a looser one in its slot, and the
    survivor's history is the intersection of both, also for a
    duplicate bound or equation; every row keeps its slot."""
    tight = make_atom("<=", {("x",): Fraction(1), (): Fraction(1)})
    loose = make_atom("<=", {("x",): Fraction(1)})
    other = make_atom("<", {("x",): Fraction(-1), ("y",): Fraction(1)})
    eq = make_atom("=", {("y",): Fraction(1), (): Fraction(1)})
    atoms, histories = admitted([loose, eq, other, tight, other, eq], [0b0011, 0b1000, 0b0100, 0b0110, 0b1100, 0b11000])
    assert atoms == [tight, eq, other]
    assert histories == [0b0010, 0b1000, 0b0100]


def test_row_table_groups_bounds_by_their_printed_variable_part():
    """Bounds share a slot when their variable parts are positive
    multiples of each other, with or without a product monomial, and the
    tighter survives in the slot of the first."""
    for half_text, three_text in (
        ("_2 * x + _2 * y + _1 <= _0;", "x + y + _3 <= _0;"),
        ("_2 * p * x + _2 * y + _1 <= _0;", "p * x + y + _3 <= _0;"),
    ):
        (half,), (three,) = dnf(half_text)[0], dnf(three_text)[0]
        assert admitted([half, three], [0b01, 0b10]) == ([three], [0b00])
        assert admitted([three, half], [0b10, 0b01]) == ([three], [0b00])
    (loose,), (other,) = dnf("_2 * p * x + _2 * y <= _0;")[0], dnf("_2 * p * x + _3 * y + _1 <= _0;")[0]
    assert admitted([loose, other], [0b01, 0b10]) == ([loose, other], [0b01, 0b10])


def test_fresh_conjunct_merges_slack_bounds_before_the_first_step():
    """A conjunct's atoms meet the one merge rule as they enter: the
    slack copy of a bound is gone before any step, also from a conjunct
    that holds no eliminated symbol and so takes no step."""
    for text in ("p + q <= _1; _2 * p + _2 * q <= _5;", "_2 * p + _2 * q <= _5; p + q <= _1;"):
        assert print_formula(dnf_formula(eliminate(["x"], dnf(text)))) == "p + q <= _1"
    out = eliminate(["x"], dnf("p + q <= _1; _2 * p + _2 * q <= _5; x <= p; x >= q;"))
    assert print_canonical(dnf_formula(out)) == "AND(p - q >= _0, p + q <= _1)"


def test_row_table_survivor_history_decides_the_result():
    """An unsatisfiable conjunct (the atoms times 1, 2, 1, 1, 2, 1 sum to
    9 < 0) whose elimination keeps a tighter bound derived from more
    atoms than the bound it replaces.  Were the survivor to keep its own
    history, the combinations that refute the conjunct would have too
    many atoms and the projection would be true."""
    text = (
        "p + x0 + x1 - x3 < _2; x0 + x2 - p < _-1; p - x0 - x1 - x3 <= _-1;"
        " x0 - x1 - x2 + x3 < _-2; x1 - x0 - x2 + x3 <= _-3; x2 - x0 - x1 - x3 <= _0;"
    )
    assert eliminate(["x0", "x1", "x2", "x3"], dnf(text)) == []


def test_sign_split_cases_start_afresh():
    """Eliminating x splits on the sign of p after y is gone; each case
    eliminates x from the atoms it inherits.  At each p the projection
    agrees with eliminating from the instantiated conjunct."""
    text = "y >= p * x; y >= - x; y <= q; y <= r; x <= _1; - x <= _1;"
    out = eliminate(["y", "x"], dnf(text))
    for p in (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(2)):
        direct = eliminate(["y", "x"], dnf(text.replace("p *", "_%s *" % p)))
        for q, r in product(HALF_GRID, repeat=2):
            assert eval_dnf(out, {"p": p, "q": q, "r": r}) == eval_dnf(direct, {"q": q, "r": r}), (p, q, r)
