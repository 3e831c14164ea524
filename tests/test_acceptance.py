"""Acceptance suite.

Each test enforces one acceptance criterion end to end and prints a
single PASS line (visible with pytest -s); any assertion failure marks
the criterion as failed.
"""

import random
import time
from fractions import Fraction
from itertools import product

from conftest import DATA, PLANT_VARIANT_LHA, mask_report
from oracles import (
    all_terms_to_depth,
    brute_force_ground,
    entails_constraint,
    equiv_on_grid,
    eval_dnf,
    exists_extension,
    random_conjunct,
)
from paramverify.hybrid import vcs_invariant
from paramverify.linear import (
    assumptions_from,
    decide,
    eliminate,
    to_linear,
)
from paramverify.parsing import parse_formula, parse_lha, parse_spec, parse_statements
from paramverify.printing import print_canonical, print_formula
from paramverify.reduction import closure, ground_extension_subterms, reduce_chain
from paramverify.runner import RunFlags, run_task_file
from paramverify.symelim import (
    check_unsat_with_constraint,
    generate_constraint,
    substitute_constants,
)
from paramverify.terms import Not, Num, Signature, SymbolRenaming, conj, rename_symbols


def _passed(number, text):
    print("criterion %2d: PASS - %s" % (number, text))


def _load(name):
    return (DATA / ("%s.yaml" % name)).read_text()


def test_criterion_01_running_example_constraint():
    started = time.perf_counter()
    report, code, _ = run_task_file(_load("ex1_constraint"))
    elapsed = time.perf_counter() - started
    assert code == 0
    (line,) = [l for l in report.splitlines() if l.startswith("    Result:")]
    produced = line.split("Result:", 1)[1].strip()
    reference = "(FORALL i). OR(a(i + _1) - a(i) >= _0, d1 - d2 > _0)"
    sig = Signature()
    sig.extension_functions["a"] = (1, 2)
    assert print_canonical(parse_formula(produced + ";", sig.copy())) == print_canonical(
        parse_formula(reference + ";", sig.copy())
    )
    assert produced == reference  # canonical printer reproduces the string itself
    assert elapsed < 5.0
    _passed(1, "constraint generation output exact, %.3fs" % elapsed)


def test_criterion_02_strengthening_two_iterations(ex2_system):
    from paramverify.transition import check_inductive, strengthen

    report, code, _ = run_task_file(_load("ex2_strengthening"))
    assert code == 0
    assert "        Inductive Invariant: |-" in report.splitlines()
    assert "            d1 - d2 <= _0;" in report.splitlines()
    assert "            (FORALL i). a(i + _1) - a(i) >= _0;" in report.splitlines()
    tail = report.split("2. Iteration:", 1)[1]
    assert "(step) verification condition init: true" in tail
    assert "(step) verification condition: true" in tail

    system = ex2_system
    res = strengthen(system, system.query, ["a", "d1", "d2"], max_iter=2)
    assert res.kind == "Invariant" and res.iterations == 2
    assert check_inductive(system, res.candidate).kind == "Inductive"
    _passed(2, "invariant strengthening converges in 2 iterations and re-checks")


def test_criterion_03_flow_constraint_and_simplification():
    report, code, _ = run_task_file(_load("chem_mode1"))
    assert code == 0
    assert "    Result: OR(min < _0, lsafe < _0, lf - lsafe <= _0, ea <= _0)" in report.splitlines()
    flags = RunFlags(assume="min >= _0; lsafe >= _0; ea > _0")
    report2, _, _ = run_task_file(_load("chem_mode1"), flags)
    assert "    Result: lf - lsafe <= _0" in report2.splitlines()
    _passed(3, "mode-1 flow constraint exact and simplifies to the level condition")


def test_criterion_04_strengthening_variant_and_inductiveness():
    report, code, _ = run_task_file(_load("chem_mode1_x3"))
    assert code == 0
    assert "    Result: OR(x3 >= _0, min - x3 < _0, ea <= _0)" in report.splitlines()

    automaton = parse_lha(PLANT_VARIANT_LHA)
    candidate = parse_statements("x1 + x2 <= lf; x3 >= _0;", automaton.sig)
    assumptions = assumptions_from(parse_statements("lf >= _0;", automaton.sig.copy()))
    for vc in vcs_invariant(automaton, candidate):
        reduced = reduce_chain(automaton.sig.copy(), vc.statements)
        assert decide(reduced.ground, assumptions) is None, vc.name
    _passed(4, "x3 constraint exact; conjoined candidate inductive under lf >= 0")


CF_ASSUMPTIONS = "min >= _0; lsafe > _0; lf > lsafe; esafe > _0; ea > esafe; epsilon > _0;"

CF_PAPER_RESULT = """OR(min < _0, lsafe <= _0, lf - lsafe <= _0, esafe <= _0,
        epsilon <= _0, ea - esafe <= _0, dmax - dmin < _0, da < _0,
      (((dmax * epsilon) - (dmin * epsilon)) - ea) + lsafe < _0,
      (((dmax * epsilon) - (dmin * epsilon)) - ea) + esafe < _0,
      ((da * epsilon) - ea) + lsafe < _0,
      ((da * epsilon) - ea) + esafe < _0)"""


def test_criterion_05_chatter_freedom_edge_1_4():
    rates = {"dmin": Num(Fraction(1)), "dmax": Num(Fraction(2)), "da": Num(Fraction(1))}
    task = _load("chatter_e14")
    spec_text = task.split("file: |")[1].replace("\n                ", "\n")
    spec = parse_spec(spec_text)
    statements = [substitute_constants(s, rates) for s in spec.statements()]
    res = generate_constraint(
        spec.sig,
        statements,
        eliminate_symbols=["x1", "x2", "x3", "x1p", "x2p", "x3p", "t"],
    )

    ref_sig = Signature()
    reference = substitute_constants(parse_formula(CF_PAPER_RESULT, ref_sig), rates)
    symbols = ["lsafe", "esafe", "ea", "epsilon", "min", "lf"]
    assumptions = conj(parse_statements(CF_ASSUMPTIONS, ref_sig))
    assert equiv_on_grid(res.constraint, reference, symbols, assumptions=assumptions)

    lin_assumptions = assumptions_from(parse_statements(CF_ASSUMPTIONS, ref_sig))
    disjuncts = substitute_constants(parse_formula(CF_PAPER_RESULT, Signature()), rates)
    for disjunct in disjuncts.parts:
        if decide([disjunct], lin_assumptions) is None:
            continue  # sign case ruled out by the assumptions
        assert decide([disjunct, Not(res.constraint)], lin_assumptions) is None, print_formula(disjunct)
    _passed(5, "chatter-freedom constraint grid-equivalent; every disjunct entails it")


def test_criterion_06_projection_property_suite():
    rng = random.Random(60)
    symbols = ["x", "y", "z", "w"]
    grid = [Fraction(q) for q in (-2, -1, 0, 1, 2)]
    checked = 0
    for _ in range(500):
        n = rng.randint(2, 4)
        syms = symbols[:n]
        conjunct = random_conjunct(rng, syms)
        v = syms[0]
        projected = eliminate([v], [conjunct])
        rest = [s for s in syms if s != v]
        for values in product(grid, repeat=len(rest)):
            point = dict(zip(rest, values))
            assert eval_dnf(projected, point) == exists_extension(conjunct, v, point)
        checked += 1
    assert checked >= 500

    sig = Signature()
    strict = to_linear(conj(parse_statements("a < x; x < a;", sig)))
    assert eliminate(["x"], strict) == []
    loose = to_linear(conj(parse_statements("a <= x; x <= a;", sig)))
    assert eliminate(["x"], loose) == [()]
    _passed(6, "projection agrees with the interval oracle on 500 instances")


def test_criterion_07_reduction_equisatisfiability():
    from test_reduction import random_definitional_instance

    rng = random.Random(70)
    agreements = 0
    for _ in range(100):
        sig, clauses, goal = random_definitional_instance(rng)
        reduced = reduce_chain(sig.copy(), clauses + goal)
        fast = decide(reduced.ground) is not None
        terms = all_terms_to_depth("f", ["u", "v", "w"], 2)
        ground = brute_force_ground(clauses, goal, "f", terms)
        slow = decide(ground) is not None
        assert fast == slow
        agreements += 1
    assert agreements >= 100
    _passed(7, "chain reduction equisatisfiable with depth-2 instantiation, 100 instances")


def test_criterion_08_weakestness_family():
    spec = parse_spec(_load("ex1_constraint").split("file: |")[1].replace("\n                ", "\n"))
    res = generate_constraint(spec.sig, spec.statements(), parameters=["a", "d1", "d2"])
    assert res.weakest
    for text in ("(FORALL i). a(i) <= a(i + _1);", "(FORALL i). a(i) = a(i + _1);", "false;"):
        stronger = parse_formula(text, spec.sig.copy())
        assert check_unsat_with_constraint(spec.sig, spec.statements(), stronger), text
        assert entails_constraint(spec.sig, stronger, res.constraint), text
    _passed(8, "every hand-curated closing constraint entails the generated one")


def test_criterion_09_closure_laws():
    from test_reduction import make_sig, random_clauses, random_term

    rng = random.Random(90)
    checked = 0
    for _ in range(1000):
        sig = make_sig()
        clauses = random_clauses(rng, sig)
        terms = [random_term(rng, sig, rng.randint(0, 3)) for _ in range(rng.randint(0, 5))]
        closed = closure(terms, clauses, sig)
        for t in ground_extension_subterms(clauses, sig):
            assert t in closed
        bigger = closure(terms + [random_term(rng, sig, 2)], clauses, sig)
        assert set(closed) <= set(bigger)
        assert set(closure(closed, clauses, sig)) == set(closed)
        mapping = dict(zip(["u", "v", "w"], rng.sample(["u", "v", "w"], 3)))
        renaming = SymbolRenaming(mapping)
        lhs = {rename_symbols(t, renaming) for t in closed}
        rhs = set(
            closure(
                [rename_symbols(t, renaming) for t in terms],
                [rename_symbols(c, renaming) for c in clauses],
                sig,
            )
        )
        assert lhs == rhs
        checked += 1
    assert checked >= 1000
    _passed(9, "closure-operator laws hold on 1000 random term sets")


GOLDEN = ["ex1_constraint", "ex2_strengthening", "chem_mode1", "chem_mode1_x3", "chatter_e14"]


def test_criterion_10_determinism():
    def run_all():
        return "\n".join(mask_report(run_task_file(_load(name))[0]) for name in GOLDEN)

    assert run_all() == run_all()
    _passed(10, "two runs of the golden suite are byte-identical after masking")
