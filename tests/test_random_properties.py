"""Randomized end-to-end properties over generated problem instances."""

import random
from fractions import Fraction

from oracles import dnf_formula, equiv_on_grid, eval_dnf, random_conjunct
from paramverify.linear import assumptions_from, simplify, to_linear
from paramverify.parsing import parse_formula, parse_statements
from paramverify.printing import canonical, print_formula
from paramverify.reduction import reduce_chain
from paramverify.symelim import check_unsat_with_constraint, generate_constraint
from paramverify.terms import (
    And,
    App,
    Atom,
    Forall,
    Num,
    Or,
    Signature,
    TRUE,
    Var,
    formula_symbols,
)


def random_parametric_instance(rng):
    """A guarded definitional update with two parameter constants and a
    parameter function, plus a random ground goal."""
    sig = Signature()
    sig.extension_functions["h"] = (1, 1)
    for c in ("u", "v", "p", "q"):
        sig.declare_constant(c)
    pivot = rng.randint(-2, 2)
    k1 = rng.randint(-2, 2)
    k2 = rng.randint(-2, 2)
    clauses = parse_statements(
        "(FORALL x). x <= _%d --> h(x) = x + _%d;" % (pivot, k1)
        + "(FORALL x). x > _%d --> h(x) = x + _%d;" % (pivot, k2),
        sig,
    )
    pool = ["h(u)", "h(v)", "u", "v", "p", "q"]
    atoms = []
    for _ in range(rng.randint(1, 4)):
        lhs, rhs = rng.sample(pool, 2)
        rel = rng.choice(["<=", "<", ">=", ">", "="])
        atoms.append("%s %s %s + _%d;" % (lhs, rel, rhs, rng.randint(-2, 2)))
    goal = parse_statements(" ".join(atoms), sig)
    return sig, clauses + goal


def test_generated_constraints_always_close_random_problems():
    rng = random.Random(2024)
    closed = 0
    for _ in range(60):
        sig, statements = random_parametric_instance(rng)
        res = generate_constraint(sig, reduce_chain(sig, statements), parameters=["h", "p", "q"])
        assert check_unsat_with_constraint(sig, statements, res.constraint)
        used = formula_symbols(res.constraint) - {"+", "-", "*"}
        assert used <= {"h", "p", "q", "u", "v"}  # u, v may return as bound args
        assert not any(s.startswith("c_") or s.startswith("sk_") for s in used)
        closed += 1
    assert closed == 60


def random_formula(rng, depth=2):
    syms = ["u", "v", "w"]

    def term(d):
        if d == 0 or rng.random() < 0.5:
            if rng.random() < 0.3:
                return Num(Fraction(rng.randint(-3, 3)))
            return App(rng.choice(syms), ())
        op = rng.choice(["+", "-", "*"])
        if op == "*":
            return App("*", (Num(Fraction(rng.randint(-2, 2))), term(d - 1)))
        return App(op, (term(d - 1), term(d - 1)))

    def formula(d):
        if d == 0 or rng.random() < 0.45:
            rel = rng.choice(["<=", "<", ">=", ">", "=", "!="])
            return Atom(rel, term(2), term(2))
        kind = rng.choice(["or", "and"])
        parts = tuple(formula(d - 1) for _ in range(rng.randint(2, 3)))
        return Or(parts) if kind == "or" else And(parts)

    return formula(depth)


def test_random_formulas_round_trip_through_printer():
    rng = random.Random(77)
    sig = Signature()
    for name in ("u", "v", "w"):
        sig.declare_constant(name)
    for _ in range(200):
        f = canonical(random_formula(rng))
        if f in (TRUE,) or f == Or(()):
            continue
        text = print_formula(f) + ";"
        (back,) = parse_statements(text, sig.copy())
        assert canonical(back) == f, text


def test_quantified_round_trip():
    rng = random.Random(78)
    sig = Signature()
    sig.extension_functions["a"] = (1, 1)
    for _ in range(50):
        k = rng.randint(-3, 3)
        f = Forall(
            ("i",),
            Atom(
                rng.choice(["<=", "<", ">=", ">"]),
                App("a", (Var("i"),)),
                App("+", (App("a", (App("+", (Var("i"), Num(Fraction(1)))),)), Num(Fraction(k)))),
            ),
        )
        g = canonical(f)
        text = print_formula(g) + ";"
        (back,) = parse_statements(text, sig.copy())
        assert canonical(back) == g, text


def test_simplify_random_dnfs_equivalent_under_assumptions():
    rng = random.Random(404)
    symbols = ["x", "y", "z"]
    sig = Signature()
    assumed = parse_statements("x >= _0;", sig)
    lin = assumptions_from(assumed)
    guard = assumed[0]
    for _ in range(60):
        dnf = [random_conjunct(rng, symbols, max_atoms=4) for _ in range(rng.randint(1, 3))]
        slim = simplify(dnf, lin)
        assert equiv_on_grid(
            dnf_formula(dnf), dnf_formula(slim), symbols, assumptions=guard
        )


def test_grid_oracle_detects_off_grid_strictness():
    """Boundary witnesses cover thresholds that the default value grid
    misses entirely."""
    sig = Signature()
    f = parse_formula("_3 * x <= _1;", sig)  # x <= 1/3
    g = parse_formula("_3 * x < _1;", sig)
    assert not equiv_on_grid(f, g, ["x"])


def test_grid_oracle_detects_single_disjunct_strictness_change():
    sig = Signature()
    base = "OR(min < _0, lsafe < _0, lf - lsafe <= _0, ea <= _0)"
    tweaked = base.replace("lf - lsafe <= _0", "lf - lsafe < _0")
    f = parse_formula(base + ";", sig)
    g = parse_formula(tweaked + ";", sig)
    assert not equiv_on_grid(f, g, ["min", "lsafe", "lf", "ea"])
