"""Golden canonical atoms: make_atom is invariant under positive scaling.
The term reader (term_to_poly, atom_to_lin) agrees with term evaluation.

Each case is a seeded polynomial over x, y, z and the parameters p, q:
linear ones with integer or rational coefficients, ones with parameter
products such as p*x and p*q, and a few constant ones; = and != atoms
get a negative leading term half of the time.  The polynomial times
several positive rationals must give the same atom (equal hash, key,
polynomial, integer row and negation), and the atom's polynomial must
match tests/data/canonical_form_golden.json, which was recorded before
atoms were stored as integer rows.  Regenerate it only for an intended
change of the canonical form:

    PYTHONPATH=src:tests python tests/test_canonical_form.py

The reader is checked against tests/oracles.py on seeded terms with
rational numerals, unary minus, nested sums and differences and
products of up to three symbols: term_to_poly's (p, d) must be p / d at
random rational points, and each translated atom must hold exactly when
the literal does (a != literal: when one of its halves does).
"""

import json
import random
from fractions import Fraction
from math import prod

from conftest import DATA
from oracles import evaluate, evaluate_term
from paramverify.linear import LinAtom, _atom_row, _term_key, atom_to_lin, make_atom, term_to_poly
from paramverify.terms import App, Atom, Num

GOLDEN = DATA / "canonical_form_golden.json"

VARIABLES = ["x", "y", "z"]
PARAMETERS = ["p", "q"]
RELS = ["<=", "<", "=", "!="]
SCALES = [Fraction(1, 3), Fraction(2), Fraction(7, 4), Fraction(1000, 3)]


def _coefficient(rng, rational):
    while True:
        c = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5]) if rational else 1)
        if c:
            return c


def random_case(rng):
    """(rel, polynomial) of one case."""
    kind = rng.choices(["linear", "rational", "product", "constant"], weights=[4, 4, 4, 1])[0]
    rel = rng.choice(RELS)
    poly = {}
    if kind != "constant":
        for s in rng.sample(VARIABLES + PARAMETERS, rng.randint(1, 3)):
            poly[(s,)] = _coefficient(rng, kind == "rational")
        if kind == "product":
            for _ in range(rng.randint(1, 2)):
                m = tuple(sorted((rng.choice(PARAMETERS), rng.choice(VARIABLES + PARAMETERS))))
                poly[m] = _coefficient(rng, rng.random() < 0.5)
            if rng.random() < 0.3:
                poly[(rng.choice(VARIABLES),)] = Fraction(0)
    if rng.random() < 0.8:
        poly[()] = _coefficient(rng, kind != "linear")
    if rel in ("=", "!=") and rng.random() < 0.5:
        lead = min((kv for kv in poly.items() if kv[0] and kv[1]), key=_term_key, default=None)
        if lead is not None and lead[1] > 0:
            poly = {m: -c for m, c in poly.items()}
    return rel, poly


def _text(poly_items):
    return " ".join("%s:%s" % ("*".join(m) or "1", c) for m, c in poly_items)


def _shown(atom):
    return str(atom) if isinstance(atom, bool) else "%s %s" % (atom.rel, _text(atom.poly))


def golden_cases():
    rng = random.Random(20261020)
    cases = []
    for _ in range(500):
        rel, poly = random_case(rng)
        text = _text(sorted(poly.items(), key=_term_key))
        cases.append([rel, text, _shown(make_atom(rel, poly))])
    return cases


def test_canonical_atoms_match_golden():
    expected = json.loads(GOLDEN.read_text())
    got = golden_cases()
    assert len(got) == len(expected) == 500
    for case, want in zip(got, expected):
        assert case[:2] == want[:2]  # the generator itself is unchanged
        assert case[2] == want[2], case[:2]


def test_positive_scaling_gives_the_same_atom():
    rng = random.Random(20261020)
    checked = 0
    for _ in range(500):
        rel, poly = random_case(rng)
        atom = make_atom(rel, poly)
        for s in SCALES:
            scaled = make_atom(rel, {m: c * s for m, c in poly.items()})
            assert scaled == atom, (rel, poly, s)
            if isinstance(atom, bool):
                continue
            assert hash(scaled) == hash(atom)
            assert scaled.key() == atom.key()
            assert scaled.poly == atom.poly
            assert scaled.negated() == atom.negated()
            assert scaled.negated().poly == atom.negated().poly
            assert scaled.negated().negated() == atom
            if rel != "!=":
                assert _atom_row(scaled) == _atom_row(atom)
            checked += 1
    assert checked > 1500


def test_equation_leading_term_is_positive():
    rng = random.Random(20261020)
    for _ in range(500):
        rel, poly = random_case(rng)
        atom = make_atom(rel, poly)
        if isinstance(atom, LinAtom) and atom.rel in ("=", "!="):
            lead = next(c for m, c in atom.poly if m)
            assert lead > 0, atom


READER_SYMBOLS = ["x", "y", "p", "q"]
READER_RELS = ["<=", "<", ">=", ">", "=", "!="]
TERM_KINDS = {"num": 2, "zero": 1, "sym": 6, "neg": 2, "+": 3, "-": 3, "*": 6}


def random_term(rng, depth, degree=3):
    """A term whose monomials have at most degree symbols."""
    kinds = list(TERM_KINDS) if depth else ["num", "sym"]
    kind = rng.choices(kinds, weights=[TERM_KINDS[k] for k in kinds])[0]
    if kind == "sym" and degree:
        return App(rng.choice(READER_SYMBOLS), ())
    if kind in ("num", "sym"):
        return Num(Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
    if kind == "zero":
        return Num(Fraction(0))
    if kind == "neg":
        return App("-", (random_term(rng, depth - 1, degree),))
    if kind == "*":
        left = rng.randint(1, degree - 1) if degree > 1 else rng.randint(0, degree)
        return App("*", (random_term(rng, depth - 1, left), random_term(rng, depth - 1, degree - left)))
    return App(kind, (random_term(rng, depth - 1, degree), random_term(rng, depth - 1, degree)))


def random_point(rng):
    return {s: Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for s in READER_SYMBOLS}


def _value(items, point):
    """The value of a polynomial's (monomial, coefficient) items at the point."""
    return sum(c * prod(point[s] for s in m) for m, c in items)


def _holds(atom, point):
    if isinstance(atom, bool):
        return atom
    value = _value(atom.terms, point)
    return value <= 0 if atom.rel == "<=" else value < 0 if atom.rel == "<" else value == 0


def test_term_reader_matches_evaluation():
    rng = random.Random(20261019)
    for _ in range(400):
        t = random_term(rng, rng.randint(1, 5))
        p, d = term_to_poly(t)
        assert type(d) is int and d > 0, (t, d)
        assert all(type(c) is int and c for c in p.values()), (t, p)
        assert all(list(m) == sorted(m) and len(m) <= 3 for m in p), (t, p)
        for _ in range(4):
            point = random_point(rng)
            assert Fraction(_value(p.items(), point), d) == evaluate_term(t, point), (t, point)


def test_translated_atoms_match_evaluation():
    rng = random.Random(20261020)
    checked = 0
    for _ in range(300):
        lhs, rhs = random_term(rng, rng.randint(0, 4)), random_term(rng, rng.randint(0, 4))
        points = [random_point(rng) for _ in range(3)]
        for rel in READER_RELS:
            literal = Atom(rel, lhs, rhs)
            atoms = atom_to_lin(literal)
            assert len(atoms) == (2 if rel == "!=" else 1)
            assert all(isinstance(a, bool) or a.rel in ("<=", "<", "=") for a in atoms)
            for point in points:
                got = any(_holds(a, point) for a in atoms) if rel == "!=" else _holds(atoms[0], point)
                assert got == evaluate(literal, point), (literal, atoms, point)
                checked += 1
    assert checked == 300 * 6 * 3


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_cases(), indent=1) + "\n")
