"""Task execution and report assembly.

Reports mirror the reference output layout: a Metadata header, then one
block per task with Result, Runtime and (with print_steps) an Extra
section.  Date and Runtime values are the only non-deterministic
fields; everything else is byte-stable across runs.

Tasks arrive checked by parsing: each body is the record its mode runs
on, with the options that mode requires.
"""

import time
from datetime import datetime
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import EngineError, ParseError
from .hybrid import vcs_chatterfree, vcs_invariant
from .linear import assumptions_from, decide
from .parsing import (
    HybridAutomaton,
    TaskSpec,
    TransitionSystem,
    parse_statements,
    parse_task_file,
    parse_term_string,
    primed,
)
from .printing import print_formula
from .reduction import reduce_chain
from .smtlib import export_smtlib
from .symelim import constraint_statements, generate_constraint
from .terms import Formula, Num, Record, Signature
from .transition import bmc, check_inductive, strengthen


class RunFlags(Record):
    def __init__(
        self, tasks=None, assume="", max_cases=10000, seed_closure=None, dump_smtlib=None, dump_reduction=False
    ):
        self.tasks: Optional[Sequence[str]] = tasks
        self.assume: str = assume
        self.max_cases: int = max_cases
        self.seed_closure: Optional[str] = seed_closure
        self.dump_smtlib: Optional[str] = dump_smtlib
        self.dump_reduction: bool = dump_reduction


class TaskOutcome(Record):
    def __init__(self, name, result, inline_result, runtime=0.0, extra=None, smtlib=None):
        self.name: str = name
        self.result: List[Tuple[int, str]] = result  # indented lines under "Result:"
        self.inline_result: Optional[str] = inline_result  # single-line form, when it fits
        self.runtime: float = runtime
        self.extra: List[Tuple[int, str]] = [] if extra is None else extra
        self.smtlib: List[Tuple[str, str]] = [] if smtlib is None else smtlib


def _parse_assumptions(task: TaskSpec, sig: Signature, global_assume: str):
    texts: List[str] = list(task.options.get("assumptions") or [])
    if global_assume:
        texts.extend(p for p in global_assume.split(";") if p.strip())
    formulas: List[Formula] = []
    for t in texts:
        formulas.extend(parse_statements(t.strip() + ";", sig))
    return formulas


def _parse_seeds(sig: Signature, seed_text: Optional[str]):
    if not seed_text:
        return []
    seeds = []
    for line in seed_text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            seeds.append(parse_term_string(line.rstrip(";"), sig))
    return seeds


class TaskRunner:
    def __init__(self, flags: RunFlags, seed_text: Optional[str] = None):
        self.flags = flags
        self.seed_text = seed_text

    def run(self, task: TaskSpec, print_steps: bool) -> TaskOutcome:
        start = time.perf_counter()
        sig = task.body.sig
        assumptions = _parse_assumptions(task, sig, self.flags.assume)
        seeds = _parse_seeds(sig, self.seed_text)
        handler = {
            "GENERATE_CONSTRAINTS": self._generate_constraints,
            "INVARIANT_STRENGTHENING": self._strengthen,
            "CHECK_INVARIANT": self._check_invariant,
            "BMC": self._bmc,
            "CHATTER_FREE": self._chatter_free,
        }[task.mode]
        outcome = handler(task, assumptions, seeds, print_steps)
        outcome.runtime = time.perf_counter() - start
        return outcome

    # -- GENERATE_CONSTRAINTS

    def _constraint(self, task, statements, assumptions, eliminate, seeds=()):
        return generate_constraint(
            task.body.sig,
            statements,
            parameters=task.options.get("parameter"),
            eliminate_symbols=eliminate,
            assumptions=assumptions,
            max_cases=self.flags.max_cases,
            full_simplify=task.options.get("slfq_query", False),
            seeds=seeds,
        )

    def _generate_constraints(self, task, assumptions, seeds, print_steps) -> TaskOutcome:
        if isinstance(task.body, HybridAutomaton):
            vcs = vcs_invariant(task.body, parse_statements(task.options["candidate"], task.body.sig))
            selected = task.options.get("vcs")
            if selected:
                wanted = set(selected)
                vcs = [vc for vc in vcs if vc.name in wanted]
                if not vcs:
                    raise EngineError("no verification condition matches %s" % sorted(wanted))
            return self._constraints_for_vcs(task, vcs, assumptions, print_steps)
        statements = task.body.statements()
        res = self._constraint(task, statements, assumptions, task.options.get("eliminate"), seeds)
        outcome = TaskOutcome(task.name, [], None)
        _set_constraint_result(outcome, res.constraint)
        if print_steps:
            outcome.extra = [(0, "(step) %s" % s) for s in res.steps]
            outcome.extra.append((0, "(step) weakest-constraint guarantee: %s" % str(res.weakest).lower()))
        self._dumps(outcome, task, statements, seeds=seeds)
        return outcome

    def _constraints_for_vcs(self, task, vcs, assumptions, print_steps) -> TaskOutcome:
        eliminate = task.options.get("eliminate")
        if eliminate is None and task.options.get("parameter") is None:
            # by default, eliminate the state variables, their primed copies and the time
            variables = task.body.variables
            eliminate = variables + [primed(x) for x in variables] + ["t"]
        extra: List[Tuple[int, str]] = []
        results = []
        for vc in vcs:
            res = self._constraint(task, vc.statements, assumptions, eliminate)
            results.append((vc.name, res.constraint))
            if print_steps:
                extra.append((0, "(step) %s:" % vc.name))
                extra.extend((1, s) for s in res.steps)
        outcome = TaskOutcome(task.name, [], None)
        if len(results) == 1:
            _set_constraint_result(outcome, results[0][1])
        else:
            for name, constraint in results:
                clauses = constraint_statements(constraint)
                if len(clauses) <= 1:
                    outcome.result.append((0, "%s: %s" % (name, print_formula(constraint))))
                else:
                    outcome.result.append((0, "%s: |-" % name))
                    outcome.result += [(1, "%s;" % print_formula(c)) for c in clauses]
        outcome.extra = extra
        for vc in vcs:
            self._dumps(outcome, task, vc.statements, vc.name)
        return outcome

    # -- INVARIANT_STRENGTHENING

    def _strengthen(self, task, assumptions, seeds, print_steps) -> TaskOutcome:
        res = strengthen(
            task.body,
            task.body.query,
            task.options["parameter"],
            max_iter=task.options.get("inv_str_max_iter", 10),
            task_name=task.name,
            max_cases=self.flags.max_cases,
        )
        outcome = TaskOutcome(task.name, [], None)
        if res.kind == "Invariant":
            outcome.result = [(0, "Inductive Invariant: |-")]
            outcome.result += [(1, "%s;" % print_formula(c)) for c in res.candidate]
        elif res.kind == "NoUniversalInvariant":
            outcome.inline_result = (
                "no universal inductive invariant over the parameters entails the candidate"
            )
        else:
            outcome.result = [(0, "Exhausted after %d iterations, candidate: |-" % res.iterations)]
            outcome.result += [(1, "%s;" % print_formula(c)) for c in res.candidate]
        if print_steps:
            outcome.extra = list(res.log)
        return outcome

    # -- CHECK_INVARIANT

    def _check_invariant(self, task, assumptions, seeds, print_steps) -> TaskOutcome:
        if isinstance(task.body, TransitionSystem):
            verdict = check_inductive(task.body, task.body.query)
            outcome = TaskOutcome(task.name, [], verdict.kind)
            if print_steps and verdict.witness:
                outcome.extra = [
                    (0, "(step) witness: %s" % _format_point(verdict.witness)),
                    (0, _INSTANTIATION_NOTE),
                ]
            return outcome
        automaton = task.body
        lin_assumptions = assumptions_from(assumptions)
        failing: List[str] = []
        extra: List[Tuple[int, str]] = []
        outcome = TaskOutcome(task.name, [], None)
        for vc in vcs_invariant(automaton, parse_statements(task.options["candidate"], automaton.sig)):
            reduced = reduce_chain(automaton.sig.copy(), vc.statements, ())
            witness = decide(reduced.ground, lin_assumptions)
            holds = witness is None
            if not holds:
                failing.append(vc.name)
            if print_steps:
                extra.append((0, "(step) %s: %s" % (vc.name, "unsatisfiable" if holds else "satisfiable")))
            self._dumps(outcome, task, vc.statements, vc.name)
        if not failing:
            outcome.inline_result = "Inductive"
        elif all(name.startswith("I_") for name in failing):
            outcome.inline_result = "InitFails (%s)" % ", ".join(failing)
        else:
            outcome.inline_result = "ConsecutionFails (%s)" % ", ".join(failing)
        if failing and print_steps:
            extra.append((0, _INSTANTIATION_NOTE))
        outcome.extra = extra
        return outcome

    # -- BMC

    def _bmc(self, task, assumptions, seeds, print_steps) -> TaskOutcome:
        k = task.options.get("bmc_k", 1)
        steps = bmc(task.body, task.body.query, k)
        violated = [s for s in steps if not s.holds]
        outcome = TaskOutcome(task.name, [], None)
        if violated:
            outcome.inline_result = "counterexample at depth %d" % violated[0].depth
        else:
            outcome.inline_result = "no counterexample up to depth %d" % k
        if print_steps:
            outcome.extra = [
                (0, "(step) depth %d: %s" % (s.depth, "unsatisfiable" if s.holds else "satisfiable"))
                for s in steps
            ]
            if violated:
                outcome.extra.append((0, _INSTANTIATION_NOTE))
        return outcome

    # -- CHATTER_FREE

    def _chatter_free(self, task, assumptions, seeds, print_steps) -> TaskOutcome:
        automaton = task.body
        eps_opt = task.options.get("epsilon", "epsilon")
        if isinstance(eps_opt, (int, float)):
            eps = Num(Fraction(str(eps_opt)))
        else:
            eps = parse_term_string(eps_opt, automaton.sig)
        vcs = vcs_chatterfree(automaton, eps, edges=task.options.get("vcs"))
        return self._constraints_for_vcs(task, vcs, assumptions, print_steps)

    # -- dumps

    def _dumps(
        self, outcome: TaskOutcome, task, statements, label: str = "problem", seeds=()
    ) -> None:
        if not (self.flags.dump_reduction or self.flags.dump_smtlib):
            return
        reduced = reduce_chain(task.body.sig.copy(), statements, seeds)
        if self.flags.dump_reduction:
            outcome.extra.append((0, "(reduction) %s:" % label))
            outcome.extra.extend((1, "%s;" % print_formula(g)) for g in reduced.ground)
        if self.flags.dump_smtlib:
            outcome.smtlib.append((label, export_smtlib(reduced.ground)))


# instantiation is complete only for local extension chains, which the
# tool assumes rather than verifies
_INSTANTIATION_NOTE = "(step) satisfiable under the complete-instantiation assumption"


def _set_constraint_result(outcome: TaskOutcome, constraint: Formula) -> None:
    """Single clauses print inline; conjunctions print one clause per
    line so quantified statements stay re-parseable."""
    clauses = constraint_statements(constraint)
    if len(clauses) <= 1:
        outcome.inline_result = print_formula(constraint)
        return
    outcome.result = [(0, "Constraint: |-")]
    outcome.result += [(1, "%s;" % print_formula(c)) for c in clauses]


def _format_point(witness: Dict[str, Fraction]) -> str:
    return ", ".join("%s = %s" % (k, witness[k]) for k in sorted(witness))


# ---------------------------------------------------------------------------
# Report assembly


def _fmt_runtime(value: float) -> str:
    return "%.4f" % value


def format_report(outcomes: List[TaskOutcome], date: Optional[str] = None) -> str:
    lines: List[str] = []
    total = sum(o.runtime for o in outcomes)
    if date is None:
        date = datetime.now().strftime("%Y-%m-%d %H:%M:%S")
    lines.append("Metadata:")
    lines.append("    Date: '%s'" % date)
    lines.append("    Number of Tasks: %d" % len(outcomes))
    lines.append("    Runtime Sum: %s" % _fmt_runtime(total))
    for o in outcomes:
        lines.append("%s:" % o.name)
        if o.inline_result is not None:
            lines.append("    Result: %s" % o.inline_result)
        else:
            lines.append("    Result:")
            for depth, text in o.result:
                lines.append("        " + "    " * depth + text)
        lines.append("    Runtime: %s" % _fmt_runtime(o.runtime))
        if o.extra:
            lines.append("    Extra:")
            for depth, text in o.extra:
                lines.append("        " + "    " * depth + text)
    return "\n".join(lines) + "\n"


def run_task_file(
    text: str, flags: Optional[RunFlags] = None, warn: Optional[Callable[[str], None]] = None
) -> Tuple[str, int, List[TaskOutcome]]:
    """Execute a task file; returns (report text, exit code, outcomes).
    warn, when given, receives each warning of the task file's parse
    (unknown keys and options, which are ignored)."""
    flags = flags or RunFlags()
    task_file = parse_task_file(text)
    if warn:
        for message in task_file.warnings:
            warn(message)
    selected = list(task_file.tasks.values())
    if flags.tasks:
        wanted = set(flags.tasks)
        selected = [t for t in selected if t.name in wanted]
        if not selected:
            raise ParseError("no task matches %s" % sorted(wanted))
    seed_text = None
    if flags.seed_closure:
        with open(flags.seed_closure, "r", encoding="utf-8") as fh:
            seed_text = fh.read()
    runner = TaskRunner(flags, seed_text)
    outcomes = [runner.run(t, t.options.get("print_steps", False)) for t in selected]
    report = format_report(outcomes)
    return report, 0, outcomes
