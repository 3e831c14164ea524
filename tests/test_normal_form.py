"""Golden strings for the printed normal form and the flow relaxation.

The atoms and flows are generated from fixed seeds; the expected
strings in tests/data/normal_form_golden.json were recorded from the
printer's own term normaliser, before it was folded into linear's
polynomials.  Regenerate them only for an intended change of the
printed form:

    PYTHONPATH=src:tests python tests/test_normal_form.py
"""

import json
import random
from fractions import Fraction

from conftest import DATA
from paramverify.errors import SortError
from paramverify.hybrid import Mode, flow_relax
from paramverify.parsing import primed
from paramverify.printing import print_canonical, print_formula
from paramverify.terms import App, Atom, Forall, Num, SymbolRenaming, Var, rename_symbols

GOLDEN = DATA / "normal_form_golden.json"

RELS = ["<=", "<", ">=", ">", "=", "!="]
CONSTANTS = ["d1", "d2", "lf", "min", "x", "y"]
PARAMETERS = ["p", "q", "dmin", "epsilon"]
FLOW_VARIABLES = ["x1", "x2", "x3"]


def _rational(rng, zero=True):
    while True:
        q = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        if q or zero:
            return q


def _const(name):
    return App(name, ())


def random_atom(rng):
    """An atom over constants, parameters, applications such as a(i + _1),
    parameter products, unary minus and rational coefficients; bound
    under FORALL i in about a third of the draws."""
    bound = rng.random() < 0.35

    def leaf():
        r = rng.random()
        if r < 0.15:
            return Num(_rational(rng))
        if bound and r < 0.3:
            return Var("i")
        if r < 0.5:
            arg = Var("i") if bound else _const(rng.choice(CONSTANTS))
            if rng.random() < 0.5:
                arg = App(rng.choice("+-"), (arg, Num(Fraction(rng.randint(1, 2)))))
            return App(rng.choice("ab"), (arg,))
        if r < 0.65:
            return App("*", (_const(rng.choice(PARAMETERS)), _const(rng.choice(CONSTANTS + PARAMETERS))))
        return _const(rng.choice(CONSTANTS + PARAMETERS))

    def term(depth):
        if depth == 0 or rng.random() < 0.3:
            return leaf()
        op = rng.choice(["+", "-", "*", "neg", "scale"])
        if op == "neg":
            return App("-", (term(depth - 1),))
        if op == "scale":
            return App("*", (Num(_rational(rng)), term(depth - 1)))
        return App(op, (term(depth - 1), term(depth - 1)))

    atom = Atom(rng.choice(RELS), term(3), term(2))
    return Forall(("i",), atom) if bound else atom


def random_flow(rng):
    """A mode with one to three rate constraints: rational combinations of
    derivatives against constant, parameter and parameter-product rates,
    on either side."""

    def rate():
        r = rng.random()
        if r < 0.35:
            return Num(_rational(rng, zero=False))
        if r < 0.6:
            return _const(rng.choice(PARAMETERS))
        if r < 0.75:
            return App("*", (_const(rng.choice(PARAMETERS)), _const(rng.choice(PARAMETERS))))
        return App("*", (Num(_rational(rng, zero=False)), _const(rng.choice(PARAMETERS))))

    def summand(t):
        r = rng.random()
        if r < 0.5:
            return t
        if r < 0.7:
            return App("-", (t,))
        return App("*", (Num(_rational(rng, zero=False)), t))

    def side(parts):
        expr = summand(parts[0])
        for t in parts[1:]:
            expr = App(rng.choice("+-"), (expr, summand(t)))
        return expr

    flow = []
    for _ in range(rng.randint(1, 3)):
        derivatives = [App("d", (_const(x),)) for x in rng.sample(FLOW_VARIABLES, rng.randint(1, 3))]
        rates = [rate() for _ in range(rng.randint(0, 2))]
        lhs_parts = derivatives + rates[:1]
        rhs_parts = rates[1:]
        rng.shuffle(lhs_parts)
        lhs = side(lhs_parts)
        rhs = side(rhs_parts) if rhs_parts else Num(_rational(rng, zero=False))
        if rng.random() < 0.3:
            lhs, rhs = rhs, lhs
        flow.append(Atom(rng.choice(["<=", ">=", "="]), lhs, rhs))
    return Mode("m", flow=flow)


def relaxations(mode):
    """The mode's flow relaxation over a duration t, and over t - t0
    between renamed endpoints x_0 and x_1, as printed atoms."""
    endpoints = {x: x + "_0" for x in FLOW_VARIABLES}
    endpoints.update({primed(x): x + "_1" for x in FLOW_VARIABLES})
    renaming = SymbolRenaming(endpoints)
    out = []
    for duration, rename in ((_const("t"), False), (App("-", (_const("t"), _const("t0"))), True)):
        try:
            relaxed = flow_relax(mode, duration)
        except SortError as exc:
            out.append("SortError: %s" % exc)
            continue
        out.append([print_formula(rename_symbols(f, renaming) if rename else f) for f in relaxed])
    return out


def golden_cases():
    rng = random.Random(20261018)
    atoms = []
    for _ in range(300):
        f = random_atom(rng)
        atoms.append([print_formula(f), print_canonical(f)])
    rng = random.Random(7)
    flows = []
    for _ in range(80):
        mode = random_flow(rng)
        flows.append([[print_formula(f) for f in mode.flow], relaxations(mode)])
    return {"canonical": atoms, "flow_relax": flows}


def test_canonical_matches_golden():
    expected = json.loads(GOLDEN.read_text())["canonical"]
    got = golden_cases()["canonical"]
    assert len(got) == len(expected) == 300
    for (text, printed), (want_text, want) in zip(got, expected):
        assert text == want_text  # the generator itself is unchanged
        assert printed == want, text


def test_flow_relax_matches_golden():
    expected = json.loads(GOLDEN.read_text())["flow_relax"]
    got = golden_cases()["flow_relax"]
    assert len(got) == len(expected) == 80
    for (flow, relaxed), (want_flow, want) in zip(got, expected):
        assert flow == want_flow
        assert relaxed == want, flow


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_cases(), indent=1) + "\n")
