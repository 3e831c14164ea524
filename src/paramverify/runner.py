"""Task execution and report assembly.

Reports mirror the reference output layout: a Metadata header, then one
block per task with Result, Runtime and (with print_steps) an Extra
section.  Date and Runtime values are the only non-deterministic
fields; everything else is byte-stable across runs.

Every input is checked before the first task runs: parsing gives each
task as the record its mode runs on, its option texts parsed, and
prepare adds the run's flags and the task's named verification
conditions: an automaton's, or an HPILOT problem as the one condition
"problem".  TaskRunner.run reduces each condition once and hands the
task's handler the (name, reduction) pairs; after the handler returns
it appends the dumps of those same reductions.  The handlers only
compute and format.  One handler serves every constraint task
(GENERATE_CONSTRAINTS and CHATTER_FREE): it projects each reduction,
and its step log ends with that condition's weakest-constraint
guarantee.  An automaton's CHECK_INVARIANT decides each reduction and,
as for a transition system, reports failing initiation conditions
first.  An engine error ends the task it is raised in, as the task's
result, and the run goes on.
"""

import errno
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import EngineError, ParseError, SortError
from .hybrid import NamedVC, vcs_chatterfree, vcs_invariant
from .linear import assumptions_from, decide
from .parsing import (
    MODES,
    HybridAutomaton,
    ProblemSpec,
    TaskSpec,
    TransitionSystem,
    parse_assumptions,
    parse_input,
    parse_seed_terms,
    parse_task_file,
    primed,
)
from .printing import print_formula
from .reduction import reduce_chain
from .smtlib import export_smtlib
from .symelim import constraint_statements, generate_constraint
from .terms import Record
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


def prepare(task: TaskSpec, flags: RunFlags, seed_text: Optional[str], warn: Callable[[str], None]):
    """A task's assumptions, seed terms and named verification
    conditions (an automaton's, an HPILOT problem's one "problem", none
    for a PTS task), or a ParseError naming it.  The conditions come
    last: texts declare the constants that the names the conditions
    introduce avoid."""
    reads = MODES[task.mode][task.spec_type]
    for flag in ("--assume", "--seed-closure", "--dump-reduction", "--dump-smtlib"):  # each a RunFlags field
        if getattr(flags, flag[2:].replace("-", "_")) and flag not in reads:
            warn("task %s: flag %s ignored by %s on %s" % (task.name, flag, task.mode, task.spec_type))
    sig, assumptions, seeds, vcs = task.body.sig, list(task.assumptions), [], []
    if flags.assume and "--assume" in reads:
        assumptions += parse_input(task.name, "flag --assume", parse_assumptions, [flags.assume], sig)
    if seed_text and "--seed-closure" in reads:
        seeds = parse_input(task.name, "flag --seed-closure", parse_seed_terms, seed_text, sig)
    try:
        if task.mode == "CHATTER_FREE":
            vcs = vcs_chatterfree(task.body, task.epsilon, edges=task.options.get("vcs"))
        elif isinstance(task.body, HybridAutomaton):
            vcs = vcs_invariant(task.body, task.candidate, names=task.options.get("vcs"))
        elif isinstance(task.body, ProblemSpec):
            vcs = [NamedVC("problem", task.body.statements())]
    except SortError as exc:
        raise ParseError("task %s: %s" % (task.name, exc))
    return assumptions, seeds, vcs


class TaskRunner:
    def __init__(self, flags: RunFlags):
        self.flags = flags
        self.failed: List[str] = []  # the tasks an engine error ended

    def run(self, task: TaskSpec, assumptions, seeds, vcs) -> TaskOutcome:
        start = time.perf_counter()
        handler = {
            "GENERATE_CONSTRAINTS": self._generate_constraints,
            "INVARIANT_STRENGTHENING": self._strengthen,
            "CHECK_INVARIANT": self._check_invariant,
            "BMC": self._bmc,
            "CHATTER_FREE": self._generate_constraints,
        }[task.mode]
        try:
            reductions = [(vc.name, reduce_chain(task.body.sig, vc.statements, seeds)) for vc in vcs]
            outcome = handler(task, assumptions, reductions, task.options["print_steps"])
            for name, reduced in reductions:
                if self.flags.dump_reduction:
                    outcome.extra.append((0, "(reduction) %s:" % name))
                    outcome.extra.extend((1, "%s;" % print_formula(g)) for g in reduced.ground)
                if self.flags.dump_smtlib:
                    outcome.smtlib.append((name, export_smtlib(reduced.ground)))
        except EngineError as exc:
            self.failed.append(task.name)
            outcome = TaskOutcome(task.name, [], "error: %s: %s" % (type(exc).__name__, exc))
        outcome.runtime = time.perf_counter() - start
        return outcome

    # -- GENERATE_CONSTRAINTS and CHATTER_FREE

    def _generate_constraints(self, task, assumptions, reductions, print_steps) -> TaskOutcome:
        eliminate = task.options.get("eliminate")
        if eliminate is None and task.options.get("parameter") is None:
            # an automaton's default: its state variables and their primed copies
            eliminate = task.body.variables + [primed(x) for x in task.body.variables]
        outcome = TaskOutcome(task.name, [], None)
        for name, reduced in reductions:
            res = generate_constraint(
                task.body.sig,
                reduced,
                parameters=task.options.get("parameter"),
                eliminate_symbols=eliminate,
                assumptions=assumptions,
                max_cases=self.flags.max_cases,
                full_simplify=task.options["slfq_query"],
            )
            # one condition prints as the task's constraint, several each under its name;
            # single clauses print inline, conjunctions one clause a line to stay re-parseable
            label = "Constraint" if len(reductions) == 1 else name
            clauses = constraint_statements(res.constraint)
            if len(clauses) > 1:
                outcome.result.append((0, "%s: |-" % label))
                outcome.result += [(1, "%s;" % print_formula(c)) for c in clauses]
            elif len(reductions) == 1:
                outcome.inline_result = print_formula(res.constraint)
            else:
                outcome.result.append((0, "%s: %s" % (label, print_formula(res.constraint))))
            if print_steps:
                lines = res.steps + ["weakest-constraint guarantee: %s" % str(res.weakest).lower()]
                if len(reductions) == 1:
                    outcome.extra += [(0, "(step) " + line) for line in lines]
                else:
                    outcome.extra += [(0, "(step) %s:" % name)] + [(1, line) for line in lines]
        return outcome

    # -- INVARIANT_STRENGTHENING

    def _strengthen(self, task, assumptions, reductions, print_steps) -> TaskOutcome:
        res = strengthen(
            task.body,
            task.body.query,
            task.options["parameter"],
            max_iter=task.options["inv_str_max_iter"],
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

    def _check_invariant(self, task, assumptions, reductions, print_steps) -> TaskOutcome:
        if isinstance(task.body, TransitionSystem):
            verdict = check_inductive(task.body, task.body.query)
            outcome = TaskOutcome(task.name, [], verdict.kind)
            if print_steps and verdict.witness:
                outcome.extra = [
                    (0, "(step) witness: %s" % _format_point(verdict.witness)),
                    (0, _INSTANTIATION_NOTE),
                ]
            return outcome
        lin_assumptions = assumptions_from(assumptions)
        failing: List[str] = []
        outcome = TaskOutcome(task.name, [], None)
        for name, reduced in reductions:
            holds = decide(reduced.ground, lin_assumptions) is None
            if not holds:
                failing.append(name)
            if print_steps:
                outcome.extra.append((0, "(step) %s: %s" % (name, "unsatisfiable" if holds else "satisfiable")))
        # initiation first, as for a transition system
        failing_init = [name for name in failing if name.startswith("I_")]
        if failing_init:
            outcome.inline_result = "InitFails (%s)" % ", ".join(failing_init)
        elif failing:
            outcome.inline_result = "ConsecutionFails (%s)" % ", ".join(failing)
        else:
            outcome.inline_result = "Inductive"
        if failing and print_steps:
            outcome.extra.append((0, _INSTANTIATION_NOTE))
        return outcome

    # -- BMC

    def _bmc(self, task, assumptions, reductions, print_steps) -> TaskOutcome:
        k = task.options["bmc_k"]
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


# instantiation is complete only for local extension chains, which the
# tool assumes rather than verifies
_INSTANTIATION_NOTE = "(step) satisfiable under the complete-instantiation assumption"


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
        date = time.strftime("%Y-%m-%d %H:%M:%S")
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


def read_text(path: str) -> str:
    """The text of a UTF-8 file.  A file that cannot be read or is not
    UTF-8 text is an OSError whose filename is path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(errno.EILSEQ, "not UTF-8 text (%s)" % exc, path) from None


def run_task_file(
    text: str, flags: Optional[RunFlags] = None, warn: Optional[Callable[[str], None]] = None
) -> Tuple[str, int, List[TaskOutcome]]:
    """Execute a task file; returns (report text, exit code, outcomes).
    Every selected task is prepared before the first one runs, so an
    input error of any task is a ParseError and no task runs.  An
    EngineError ends only the task it is raised in, whose result it
    becomes; the exit code is then 1, else 0.  warn,
    when given, receives each warning: unknown keys and options, and
    options and flags a task's mode does not read, all ignored."""
    flags = flags or RunFlags()
    task_file = parse_task_file(text)
    warn = warn or (lambda message: None)
    for message in task_file.warnings:
        warn(message)
    selected = list(task_file.tasks.values())
    if flags.tasks:
        unmatched = sorted(set(flags.tasks) - set(task_file.tasks))
        if unmatched:
            raise ParseError("--task names no task: %s" % ", ".join(unmatched))
        selected = [t for t in selected if t.name in flags.tasks]
    seed_text = read_text(flags.seed_closure) if flags.seed_closure else None
    prepared = [(t,) + prepare(t, flags, seed_text, warn) for t in selected]
    runner = TaskRunner(flags)
    outcomes = [runner.run(*p) for p in prepared]
    report = format_report(outcomes)
    return report, 1 if runner.failed else 0, outcomes
