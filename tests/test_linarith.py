import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from oracles import GRID7, eval_conjunct, eval_dnf, exists_extension, random_conjunct, reference_is_sat
from paramverify.errors import CaseExplosionError, GridError, NonLinearError
from paramverify.linear import (
    LinAtom,
    _is_sat_uncached,
    assumptions_from,
    decide,
    dnf_formula,
    eliminate,
    equiv_on_grid,
    evaluate,
    is_sat,
    make_atom,
    simplify,
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
    d = dnf("x * x <= _1;")
    with pytest.raises(NonLinearError):
        eliminate(["x"], d)


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
    assert is_sat(dnf("d1 = _1; d2 = _1; d1 - d2 > _0;")[0]) is None


def test_is_sat_witness_in_interval():
    w = is_sat(dnf("x >= _0; x <= _1;")[0])
    assert w is not None and 0 <= w["x"] <= 1


def test_is_sat_strict_witness():
    w = is_sat(dnf("x > _0; x < _1; y > x;")[0])
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
        witness = is_sat(conjunct)
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


def test_integer_fm_matches_fraction_reference():
    """The integer-row FM returns the reference FM's verdict and witness
    (same values, same insertion order) for atoms given in one order,
    and is_sat eliminates in LinAtom.key order."""
    rng = random.Random(20231018)
    symbols = ["x", "y", "z", "w", "v"]
    cases = [random_conjunct(rng, symbols[:4], max_atoms=8) for _ in range(300)]
    cases += [equation_heavy_conjunct(rng, symbols) for _ in range(300)]
    cases += [with_strictness_twins(rng, atoms) for atoms in cases[:300]]
    verdicts = set()
    for atoms in cases:
        expected = reference_is_sat(atoms)
        got = _is_sat_uncached(atoms)
        assert got == expected
        verdicts.add(got is None)
        if got is not None:
            assert list(got) == list(expected)
            assert eval_conjunct(atoms, {s: got.get(s, Fraction(0)) for s in symbols})
        assert is_sat(atoms) == reference_is_sat(sorted(set(atoms), key=LinAtom.key))
    assert verdicts == {True, False}


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


def test_case_split_matches_sign_instantiation():
    """The union of the three sign cases agrees with substituting the
    parameter by representatives of each sign."""
    sig = Signature()
    base = "p * x <= y; x >= _1; y <= _3;"
    split = eliminate(["x"], dnf(base, sig.copy()))
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
