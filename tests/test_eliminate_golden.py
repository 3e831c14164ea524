"""Golden projections of the parametric eliminator.

Each case is a seeded conjunct over eliminated symbols x, y, z and kept
symbols p, a, b, with optional assumptions.  The conjuncts mix rational
equation pivots, equations whose coefficient involves the parameter p,
p*x products that force sign splits (one parameter, at most two per
conjunct), atoms holding no eliminated symbol, and a few x*x and x*y
atoms.  The expected strings in tests/data/eliminate_golden.json are
the printed projections, or the error class and message, recorded
before the eliminator's step was rewritten as one pass over the atoms.
Regenerate them only for an intended change of the projections:

    PYTHONPATH=src:tests python tests/test_eliminate_golden.py
"""

import json
import random
from fractions import Fraction

from conftest import DATA
from oracles import dnf_formula
from paramverify.errors import EngineError
from paramverify.linear import LinAtom, assumptions_from, eliminate, lin_to_atom, make_atom
from paramverify.parsing import parse_statements
from paramverify.printing import print_formula
from paramverify.terms import Signature, conj

GOLDEN = DATA / "eliminate_golden.json"

ELIMINATED = ["x", "y", "z"]
KEPT = ["p", "a", "b"]
ASSUMPTIONS = ["p > _0;", "p >= _0;", "p < _2;", "a <= b;", "p <= _3;"]


def _coefficient(rng):
    return Fraction(rng.choice([-2, -1, -1, 1, 1, 2]), rng.choice([1, 1, 1, 2]))


def random_case(rng):
    """(eliminated symbols, atoms, assumption text) of one case."""
    eliminated = ELIMINATED[: rng.randint(1, 3)]
    products = rng.choice([0, 1, 1, 2, 2])
    atoms = []
    for _ in range(rng.randint(3, 8)):
        poly = {}
        if rng.random() < 0.15:
            for s in rng.sample(KEPT, rng.randint(1, 2)):
                poly[(s,)] = _coefficient(rng)
        else:
            for x in rng.sample(eliminated, rng.randint(1, min(2, len(eliminated)))):
                if products and rng.random() < 0.35:
                    products -= 1
                    poly[tuple(sorted((x, "p")))] = Fraction(rng.choice([-1, 1]))
                    if rng.random() < 0.5:
                        continue
                poly[(x,)] = _coefficient(rng)
            if rng.random() < 0.5:
                poly[(rng.choice(KEPT),)] = Fraction(rng.choice([-1, 1]))
        poly[()] = Fraction(rng.randint(-3, 3))
        a = make_atom(rng.choices(["<=", "<", "="], weights=[5, 3, 2])[0], poly)
        if isinstance(a, LinAtom):
            atoms.append(a)
    r = rng.random()
    if r < 0.06:
        nonlinear = ("x", "x")
    elif r < 0.12 and len(eliminated) > 1:
        nonlinear = ("x", "y")
    else:
        nonlinear = None
    if nonlinear is not None:
        poly = {nonlinear: Fraction(1), (rng.choice(KEPT),): Fraction(-1), (): Fraction(rng.randint(-2, 2))}
        atoms.insert(rng.randint(0, len(atoms)), make_atom(rng.choice(["<=", "<=", "="]), poly))
    assumptions = " ".join(rng.sample(ASSUMPTIONS, rng.choice([0, 0, 1, 1, 2])))
    return eliminated, atoms, assumptions


def projection(eliminated, atoms, assumptions):
    """The printed projection, or the error it raises.  No case needs
    more than 19 conjuncts at once; the cap of 100 turns an eliminator
    that keeps splitting into an error instead of a hang."""
    assumed = assumptions_from(parse_statements(assumptions, Signature())) if assumptions else []
    try:
        return print_formula(dnf_formula(eliminate(eliminated, [tuple(atoms)], assumed, max_cases=100)))
    except EngineError as exc:
        return "error: %s: %s" % (type(exc).__name__, exc)


def golden_cases():
    rng = random.Random(20261019)
    cases = []
    for _ in range(300):
        eliminated, atoms, assumptions = random_case(rng)
        text = print_formula(conj([lin_to_atom(a) for a in atoms]))
        cases.append([" ".join(eliminated), text, assumptions, projection(eliminated, atoms, assumptions)])
    return cases


def test_projections_match_golden():
    expected = json.loads(GOLDEN.read_text())
    got = golden_cases()
    assert len(got) == len(expected) == 300
    for (symbols, text, assumptions, result), want in zip(got, expected):
        assert [symbols, text, assumptions] == want[:3]  # the generator itself is unchanged
        assert result == want[3], (symbols, text, assumptions)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_cases(), indent=1) + "\n")
