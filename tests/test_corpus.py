"""Cross-cutting checks over the golden corpus: round-trips, soundness
of every generated constraint, simplification equivalence, and the
instantiation seeding hook."""

from pathlib import Path

from conftest import mask_report
from oracles import dnf_formula, equiv_on_grid
from paramverify.linear import assumptions_from, simplify, to_linear
from paramverify.parsing import (
    parse_formula,
    parse_spec,
    parse_statements,
    parse_task_file,
    parse_term_string,
)
from paramverify.printing import canonical, print_formula
from paramverify.reduction import reduce_chain
from paramverify.runner import RunFlags, run_task_file
from paramverify.symelim import check_unsat_with_constraint, constraint_statements, generate_constraint
from paramverify.terms import Forall, Signature, formula_symbols, subformulas

DATA = Path(__file__).parent / "data"

HPILOT_TASKS = ["ex1_constraint", "chem_mode1", "chem_mode1_x3", "chatter_e14"]


def hpilot_body(name):
    text = (DATA / ("%s.yaml" % name)).read_text()
    return text.split("file: |")[1].replace("\n                ", "\n")


def test_corpus_round_trip():
    for name in HPILOT_TASKS:
        spec = parse_spec(hpilot_body(name))
        sig = spec.sig.copy()
        for f in spec.statements():
            text = print_formula(f) + ";"
            (back,) = parse_statements(text, sig)
            assert canonical(back) == canonical(f), text


def quantifier_only_as_prefix(statement):
    body = statement.body if isinstance(statement, Forall) else statement
    return not any(isinstance(g, Forall) for g in subformulas(body))


def test_quantifiers_only_as_statement_prefixes():
    """Every statement a task file gives (an automaton's mode and edge
    formulas and its candidate included), and every clause of a generated
    constraint, holds a quantifier only as its top prefix."""
    prefixed = {"statement": 0, "constraint": 0}
    for path in sorted(DATA.glob("*.yaml")):
        for task in parse_task_file(path.read_text()).tasks.values():
            body = task.body
            if hasattr(body, "statements"):
                statements = body.statements()
            elif hasattr(body, "modes"):  # an automaton: its mode and edge formulas and the candidate
                statements = [f for m in body.modes.values() for f in m.inv + m.flow + m.init + m.inenv]
                statements += [f for e in body.edges for f in e.guard + e.jump] + task.candidate
            else:
                statements = body.init + body.update + body.query
            assert statements, path.name
            clauses = []
            if task.mode == "GENERATE_CONSTRAINTS":
                res = generate_constraint(
                    body.sig,
                    reduce_chain(body.sig, statements),
                    parameters=task.options.get("parameter"),
                    eliminate_symbols=task.options.get("eliminate"),
                )
                clauses = constraint_statements(res.constraint)
                assert clauses, path.name
            for kind, group in (("statement", statements), ("constraint", clauses)):
                for s in group:
                    assert quantifier_only_as_prefix(s), (path.name, print_formula(s))
                    prefixed[kind] += isinstance(s, Forall)
    assert all(prefixed.values()), prefixed


def test_every_generated_constraint_closes_its_problem():
    from fractions import Fraction

    from paramverify.symelim import substitute_constants
    from paramverify.terms import Num

    # numeric rates keep the chatter instance inside the decidable fragment
    rates = {"dmin": Num(Fraction(1)), "dmax": Num(Fraction(2)), "da": Num(Fraction(1))}
    for name in HPILOT_TASKS:
        text = (DATA / ("%s.yaml" % name)).read_text()
        task = list(parse_task_file(text).tasks.values())[0]
        spec = task.body
        statements = [substitute_constants(s, rates) for s in spec.statements()]
        res = generate_constraint(
            spec.sig,
            reduce_chain(spec.sig, statements),
            parameters=task.options.get("parameter"),
            eliminate_symbols=task.options.get("eliminate"),
        )
        assert check_unsat_with_constraint(spec.sig, statements, res.constraint), name


def test_constraints_mention_only_kept_symbols():
    for name in HPILOT_TASKS:
        text = (DATA / ("%s.yaml" % name)).read_text()
        task = list(parse_task_file(text).tasks.values())[0]
        spec = task.body
        res = generate_constraint(
            spec.sig,
            reduce_chain(spec.sig, spec.statements()),
            parameters=task.options.get("parameter"),
            eliminate_symbols=task.options.get("eliminate"),
        )
        used = formula_symbols(res.constraint) - {"+", "-", "*"}
        eliminated = set(task.options.get("eliminate") or [])
        assert not used & eliminated
        assert not any(s.startswith("c_") or s.startswith("sk_") for s in used)


def test_simplify_preserves_corpus_results_on_grid():
    sig = Signature()
    cases = [
        ("OR(min < _0, lsafe < _0, lf - lsafe <= _0, ea <= _0)", "min >= _0; lsafe >= _0; ea > _0;"),
        ("OR(x3 >= _0, min - x3 < _0, ea <= _0)", "ea > _0;"),
    ]
    for text, assumed in cases:
        formula = parse_formula(text + ";", sig)
        assumptions = assumptions_from(parse_statements(assumed, sig))
        slim = dnf_formula(simplify(to_linear(formula), assumptions))
        symbols = sorted(formula_symbols(formula) - {"+", "-", "*"})
        guard = parse_formula("AND(%s)" % assumed.replace(";", ",").rstrip(", "), sig)
        assert equiv_on_grid(formula, slim, symbols, assumptions=guard), text


def test_seeded_closure_extends_instantiation():
    sig = Signature()
    sig.extension_functions["f"] = (1, 1)
    for c in ("u", "v"):
        sig.declare_constant(c)
    statements = parse_statements("(FORALL x). f(x) >= _0; f(u) <= _1;", sig)
    plain = reduce_chain(sig.copy(), statements)
    seeded = reduce_chain(sig.copy(), statements, seeds=[parse_term_string("f(v)", sig)])
    assert len(seeded.steps[0].instances) == len(plain.steps[0].instances) + 1
    assert len(seeded.definitions) == len(plain.definitions) + 1


def test_seed_closure_flag(tmp_path):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("ap(i + _2)\n")
    flags = RunFlags(seed_closure=str(seeds), dump_reduction=True)
    report, code, _ = run_task_file((DATA / "ex1_constraint.yaml").read_text(), flags)
    assert code == 0
    assert "c_ap_3" in report  # the seeded application was named apart
    # the generated constraint is unchanged by the extra instance
    assert "    Result: (FORALL i). OR(a(i + _1) - a(i) >= _0, d1 - d2 > _0)" in report.splitlines()


def test_readme_library_use_prints_ex1_constraint(tmp_path, monkeypatch, capsys):
    """README's "Library use" block, reduce_chain then generate_constraint,
    run on ex1_constraint.yaml's specification, prints ex1's constraint."""
    readme = (DATA.parent.parent / "README.md").read_text()
    code = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "problem.txt").write_text(hpilot_body("ex1_constraint"))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "(FORALL i). OR(a(i + _1) - a(i) >= _0, d1 - d2 > _0)\n"


COMPLETE_INSTANTIATION = "(step) satisfiable under the complete-instantiation assumption"


def golden_extra(name):
    """The lines under Extra: of the file's golden masked report."""
    lines = (DATA / ("%s_report.txt" % name)).read_text().splitlines()
    return [line[8:] for line in lines[lines.index("    Extra:") + 1 :]]


def test_bmc_and_automaton_check_files():
    """The corpus's BMC task, its automaton CHECK_INVARIANT task, in
    which an initiation and a flow condition both fail, and its
    strengthening task with ground atoms in the candidate print these
    Result lines and these lines under Extra:."""
    expected = {
        "pts_bmc_unsorted": (
            "counterexample at depth 1",
            ["(step) depth 0: unsatisfiable"]
            + ["(step) depth %d: satisfiable" % j for j in (1, 2, 3)]
            + [COMPLETE_INSTANTIATION],
        ),
        "lha_check_init_flow": (
            "InitFails (I_a)",
            [
                "(step) " + step
                for step in ["I_a: satisfiable", "F_flow_a: unsatisfiable", "F_flow_b: satisfiable", "F_jump_a_b_1: unsatisfiable"]
            ]
            + [COMPLETE_INSTANTIATION],
        ),
        "ex2_strengthening_ground_atoms": (
            "no universal inductive invariant over the parameters entails the candidate",
            golden_extra("ex2_strengthening_ground_atoms"),
        ),
    }
    for name, (result, extra) in expected.items():
        report, code, _ = run_task_file((DATA / ("%s.yaml" % name)).read_text())
        lines = report.splitlines()
        assert code == 0 and "    Result: %s" % result in lines, name
        assert lines[lines.index("    Extra:") + 1 :] == ["        " + line for line in extra], name


def test_strengthening_with_ground_candidate_atoms(monkeypatch):
    """ex2_strengthening.yaml with b(_0) = _0 in init and a(_0) <= d1 in
    the query: its second iteration decides a consecution condition of
    58 ground formulas with several ground-guarded universal clauses.
    The masked report is the golden one, and the whole run takes at most
    4,000 _decide nodes (47,093 before decide searched on the model of
    its units, 1,862 since)."""
    from paramverify import linear

    nodes = [0]
    real = linear._decide

    def counted(*args):
        nodes[0] += 1
        return real(*args)

    monkeypatch.setattr(linear, "_decide", counted)
    report, code, _ = run_task_file((DATA / "ex2_strengthening_ground_atoms.yaml").read_text())
    assert code == 0
    assert mask_report(report) == (DATA / "ex2_strengthening_ground_atoms_report.txt").read_text()
    assert nodes[0] <= 4000
