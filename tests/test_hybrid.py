from fractions import Fraction

import pytest

from conftest import PLANT_LHA
from oracles import equiv_on_grid
from paramverify.errors import EngineError, SortError
from paramverify.hybrid import flow_relax, vcs_chatterfree, vcs_invariant
from paramverify.linear import assumptions_from, decide
from paramverify.parsing import parse_formula, parse_lha, parse_statements
from paramverify.printing import print_formula
from paramverify.reduction import reduce_chain
from paramverify.symelim import generate_constraint
from paramverify.terms import App, Num, Signature, formula_symbols


MINI = """
variables: x;
mode a:
    inv: x <= _1;
    flow: %s
    init: x = _0;
edge a -> a:
    guard: x >= _1;
    jump: xp = _0;
"""


def test_strict_flow_rejected():
    with pytest.raises(SortError, match="strict"):
        parse_lha(MINI % "d(x) < _1;")


def test_flow_over_state_variable_rejected():
    with pytest.raises(SortError, match="state variable"):
        parse_lha(MINI % "d(x) <= x;")


def test_flow_without_derivative_rejected():
    with pytest.raises(SortError, match="derivative"):
        parse_lha(MINI % "dmin <= dmax;")


def test_derivative_scaled_by_parameter_rejected():
    """The error names the scaled derivative, on either side."""
    for flow in ("c * d(x) <= _1;", "_1 <= d(x) * c;"):
        automaton = parse_lha(MINI % flow)
        with pytest.raises(SortError, match=r"scaled by a symbol in c \* d\(x\)$"):
            flow_relax(automaton.modes["a"], Num(Fraction(0)), App("t", ()))


def test_inv_with_derivative_rejected():
    bad = MINI % "d(x) <= _1;"
    bad = bad.replace("inv: x <= _1;", "inv: d(x) <= _1;")
    with pytest.raises(SortError, match="derivative"):
        parse_lha(bad)


def test_guard_with_primed_rejected():
    bad = (MINI % "d(x) <= _1;").replace("guard: x >= _1;", "guard: xp >= _1;")
    with pytest.raises(SortError, match="primed"):
        parse_lha(bad)


def test_flow_relax_mode3(plant):
    relaxed = flow_relax(plant.modes["3"], Num(Fraction(0)), App("t", ()))
    assert [print_formula(f) for f in relaxed] == [
        "x1p - x1 = _0",
        "x2p - x2 = _0",
        "x3p - x3 <= -t",
    ]


def test_flow_relax_empty_is_empty():
    automaton = parse_lha(MINI % "d(x) = _0;")
    mode = automaton.modes["a"]
    mode.flow = []
    assert flow_relax(mode, Num(Fraction(0)), App("t", ())) == []


def test_flow_relax_zero_elapsed_pins_equation_flows(plant):
    """At t = t0 an equation flow forces the endpoints to agree."""
    relaxed = flow_relax(plant.modes["4"], Num(Fraction(0)), App("t", ()))
    sig = plant.sig.copy()
    sig.declare_constant("t")
    statements = relaxed + parse_statements("t = _0; x1p > x1;", sig)
    assert decide(statements) is None


def test_flow_relax_constant_rate_round_trip():
    automaton = parse_lha(MINI % "d(x) = _3;")
    relaxed = flow_relax(automaton.modes["a"], Num(Fraction(0)), App("t", ()))
    sig = automaton.sig.copy()
    sig.declare_constant("t")
    statements = relaxed + parse_statements("t = _1; xp - x != _3;", sig)
    assert decide(statements) is None


def test_invariant_vcs_names(plant):
    candidate = parse_statements("(x1 + x2) + x3 <= lsafe;", plant.sig)
    names = [vc.name for vc in vcs_invariant(plant, candidate)]
    assert "I_1" in names
    assert "F_flow_1" in names and "F_flow_4" in names
    assert "F_jump_1_2_1" in names
    assert "F_jump_1_4_1" in names and "F_jump_1_4_2" in names


def test_identity_jumps_preserve_candidate(plant):
    candidate = parse_statements("(x1 + x2) + x3 <= lsafe;", plant.sig)
    vcs = {vc.name: vc for vc in vcs_invariant(plant, candidate)}
    for name in ("F_jump_1_2_1", "F_jump_2_3_1", "F_jump_3_1_1"):
        reduced = reduce_chain(plant.sig.copy(), vcs[name].statements)
        assert decide(reduced.ground) is None, name


def test_reset_jumps_need_nonnegative_level(plant):
    candidate = parse_statements("(x1 + x2) + x3 <= lsafe;", plant.sig)
    vcs = {vc.name: vc for vc in vcs_invariant(plant, candidate)}
    nonneg = assumptions_from(parse_statements("lsafe >= _0;", plant.sig.copy()))
    for name in ("F_jump_1_4_1", "F_jump_1_4_2", "F_jump_2_4_1", "F_jump_3_4_1"):
        reduced = reduce_chain(plant.sig.copy(), vcs[name].statements)
        assert decide(reduced.ground) is not None, name
        assert decide(reduced.ground, nonneg) is None, name


def test_true_candidate_all_vcs_unsat(plant):
    vcs = vcs_invariant(plant, [])
    for vc in vcs:
        reduced = reduce_chain(plant.sig.copy(), vc.statements)
        assert decide(reduced.ground) is None, vc.name


def test_mode1_flow_unsat_under_level_assumption(plant):
    candidate = parse_statements("(x1 + x2) + x3 <= lsafe;", plant.sig)
    vcs = {vc.name: vc for vc in vcs_invariant(plant, candidate)}
    reduced = reduce_chain(plant.sig.copy(), vcs["F_flow_1"].statements)
    assert decide(reduced.ground) is not None
    leveled = assumptions_from(parse_statements("lf - lsafe <= _0;", plant.sig.copy()))
    assert decide(reduced.ground, leveled) is None


def test_strengthened_candidate_inductive_in_variant(plant_variant):
    """The conjoined candidate from the strengthening run is preserved
    by every flow and jump of the variant automaton when lf >= 0."""
    candidate = parse_statements("x1 + x2 <= lf; x3 >= _0;", plant_variant.sig)
    nonneg = assumptions_from(parse_statements("lf >= _0;", plant_variant.sig.copy()))
    for vc in vcs_invariant(plant_variant, candidate):
        reduced = reduce_chain(plant_variant.sig.copy(), vc.statements)
        assert decide(reduced.ground, nonneg) is None, vc.name


def test_variant_flow_fails_without_lower_bound(plant_variant):
    """Without the x3 >= 0 conjunct the candidate is not preserved by
    the fill flow (a negative x3 hides inflow above the level bound)."""
    candidate = parse_statements("x1 + x2 <= lf;", plant_variant.sig)
    nonneg = assumptions_from(parse_statements("lf >= _0; ea > _0; min >= _0;", plant_variant.sig.copy()))
    vcs = {vc.name: vc for vc in vcs_invariant(plant_variant, candidate)}
    reduced = reduce_chain(plant_variant.sig.copy(), vcs["F_flow_1"].statements)
    assert decide(reduced.ground, nonneg) is not None


def test_chatterfree_vcs_require_envelope(plant):
    eps = App("epsilon", ())
    with pytest.raises(EngineError, match="inner envelope"):
        vcs_chatterfree(plant, eps)  # edge 2 -> 3 touches no envelope at all


def test_chatterfree_zero_dwell_trivially_unsat(plant):
    vcs = vcs_chatterfree(plant, Num(Fraction(0)), edges=["1->2", "1->4"])
    for vc in vcs:
        if vc.name.startswith("CF2"):
            reduced = reduce_chain(plant.sig.copy(), vc.statements)
            assert decide(reduced.ground) is None, vc.name


def test_chatterfree_edge_selection(plant):
    eps = App("epsilon", ())
    vcs = vcs_chatterfree(plant, eps, edges=["1_4_1"])
    assert [vc.name for vc in vcs] == ["CF2_1_4_1"]  # mode 4 declares no envelope
    vcs = vcs_chatterfree(plant, eps, edges=["3->1"])
    assert [vc.name for vc in vcs] == ["CF1_3_1_1"]  # mode 3 declares no envelope
    with pytest.raises(EngineError, match="no edge"):
        vcs_chatterfree(plant, eps, edges=["9_9_1"])


A_FULL = "min >= _0; lsafe > _0; lf > lsafe; esafe > _0; ea > esafe; epsilon > _0;"


def test_chatterfree_e12_dwell_constraint(plant):
    """Leaving the fill mode before the dwelling time requires the
    safety margin to absorb at most 2 * dmax * epsilon of inflow."""
    eps = App("epsilon", ())
    (vc,) = [v for v in vcs_chatterfree(plant, eps, edges=["1_2_1"]) if v.name == "CF2_1_2_1"]
    res = generate_constraint(
        plant.sig,
        reduce_chain(plant.sig, vc.statements),
        eliminate_symbols=["x1", "x2", "x3", "x1p", "x2p", "x3p", "t"],
    )
    assert "epsilon" in formula_symbols(res.constraint)  # a parameter, declared on plant.sig
    sig = Signature()
    expected = parse_formula("lsafe < lf - _4 * epsilon;", sig)
    assumptions = parse_formula("AND(%s)" % A_FULL.replace(";", ",").rstrip(", "), sig)
    assert equiv_on_grid(
        res.constraint,
        expected,
        ["lsafe", "lf", "epsilon", "min", "esafe", "ea"],
        assumptions=assumptions,
    )


def test_flow_relax_mode1_matches_reference_shape(plant):
    relaxed = flow_relax(plant.modes["1"], Num(Fraction(0)), App("t", ()))
    texts = [print_formula(f) for f in relaxed]
    assert "x1p - x1 >= t" in texts
    assert "(x1p - x1) - (x2p - x2) <= t" in texts
    assert "x3p - x3 = _0" in texts
    assert "x1p - x1 <= _2 * t" in texts


PLANT_SYMBOLIC_MODE1 = """
variables: x1, x2, x3;
mode 1:
    inv: (x1 + x2) + x3 <= lf; x1 >= _0; x2 >= _0; x3 >= _0;
         x1 - x2 <= ea; x2 - x1 <= ea; x3 <= min;
    flow: d(x1) >= dmin; d(x1) <= dmax; d(x2) >= dmin; d(x2) <= dmax; d(x3) = _0;
          d(x1) - d(x2) <= da; d(x2) - d(x1) <= da;
    init: x1 = _0; x2 = _0; x3 = _0;
    inenv: (x1 + x2) + x3 <= lsafe; x1 >= _0; x2 >= _0; x3 >= _0;
           x1 - x2 <= esafe; x2 - x1 <= esafe; x3 <= min;
mode 4:
    inv: x1 = _0; x2 = _0; x3 = _0;
    flow: d(x1) = _0; d(x2) = _0; d(x3) = _0;
edge 1 -> 4:
    guard: x1 - x2 >= ea;
    jump: x1p = _0; x2p = _0; x3p = _0;
"""

CF_SIGN_ASSUMPTIONS = "dmin > _0; dmax > dmin; da > _0;"


def test_chatterfree_symbolic_rates_matches_handbuilt_problem():
    """Dwell constraint generated from the automaton model agrees with
    the one generated from the hand-written flow problem, at the
    reference rate instantiation and under the sign assumptions."""
    from fractions import Fraction

    from conftest import DATA
    from paramverify.symelim import substitute_constants

    automaton = parse_lha(PLANT_SYMBOLIC_MODE1)
    eps = App("epsilon", ())
    (vc,) = vcs_chatterfree(automaton, eps, edges=["1_4_1"])
    assert vc.name == "CF2_1_4_1"
    sign = parse_statements(CF_SIGN_ASSUMPTIONS, automaton.sig)
    res = generate_constraint(
        automaton.sig,
        reduce_chain(automaton.sig, vc.statements),
        eliminate_symbols=["x1", "x2", "x3", "x1p", "x2p", "x3p", "t"],
        assumptions=sign,
    )

    hand_text = (DATA / "chatter_e14.yaml").read_text().split("file: |")[1]
    hand = __import__("paramverify.parsing", fromlist=["parse_spec"]).parse_spec(
        hand_text.replace("\n                ", "\n")
    )
    hand_sign = parse_statements(CF_SIGN_ASSUMPTIONS, hand.sig)
    hand_res = generate_constraint(
        hand.sig,
        reduce_chain(hand.sig, hand.statements()),
        eliminate_symbols=["x1", "x2", "x3", "x1p", "x2p", "x3p", "t"],
        assumptions=hand_sign,
    )

    assert "epsilon" in formula_symbols(res.constraint)  # a parameter, declared on automaton.sig
    rates = {"dmin": Num(Fraction(1)), "dmax": Num(Fraction(2)), "da": Num(Fraction(1))}
    mine = substitute_constants(res.constraint, rates)
    reference = substitute_constants(hand_res.constraint, rates)
    sig2 = Signature()
    guard = parse_statements(
        "min >= _0; lsafe > _0; lf > lsafe; esafe > _0; ea > esafe; epsilon > _0;", sig2
    )
    from paramverify.terms import conj

    assert equiv_on_grid(
        mine,
        reference,
        ["lsafe", "esafe", "ea", "epsilon", "min", "lf"],
        assumptions=conj(guard),
    )


def test_flow_relax_zero_rate_is_a_zero_numeral():
    """A rate constant that is a literal _0 on the left relaxes to _0, as
    it does on the right, not to _0 * t."""
    for flow, expected in (("_0 <= d(x);", "-(xp - x) <= _0"), ("d(x) >= _0;", "xp - x >= _0")):
        relaxed = flow_relax(parse_lha(MINI % flow).modes["a"], Num(Fraction(0)), App("t", ()))
        assert [print_formula(f) for f in relaxed] == [expected]
