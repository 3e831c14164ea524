"""Transition constraint systems (parsing.TransitionSystem):
inductive-invariant checking, bounded model checking, and iterative
invariant strengthening.

A candidate invariant is a list of universally closed clauses.  The
strengthening loop conjoins, whenever consecution fails, the weakest
parameter constraint extracted from the failed verification condition,
and stops when the candidate becomes inductive, when initiation fails,
or when the iteration budget runs out.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from .linear import LinAtom, atom_to_lin, decide, is_sat
from .parsing import TransitionSystem
from .printing import canonical, print_formula
from .reduction import ReducedProblem, reduce_chain
from .symelim import constraint_statements, generate_constraint
from .terms import (
    Atom,
    FALSE,
    Forall,
    Formula,
    Record,
    SymbolRenaming,
    TRUE,
    fresh_name,
    is_ground,
    negate_universal,
    rename_symbols,
)


class Verdict(Record):
    def __init__(self, kind, witness=None):
        self.kind: str = kind  # Inductive | InitFails | ConsecutionFails | Unknown
        self.witness: Optional[Dict] = witness


def vc_initiation(system: TransitionSystem, candidate: Sequence[Formula]) -> ReducedProblem:
    negated = negate_universal(list(candidate), avoid=system.sig.all_symbols())
    return reduce_chain(system.sig, list(system.init) + [negated])


def vc_consecution(system: TransitionSystem, candidate: Sequence[Formula]) -> ReducedProblem:
    primed = [rename_symbols(c, system.renaming()) for c in candidate]
    negated = negate_universal(primed, avoid=system.sig.all_symbols())
    return reduce_chain(system.sig, list(candidate) + list(system.update) + [negated])


def check_inductive(system: TransitionSystem, candidate: Sequence[Formula]) -> Verdict:
    witness = decide(vc_initiation(system, candidate).ground)
    if witness is not None:
        return Verdict("InitFails", witness)
    witness = decide(vc_consecution(system, candidate).ground)
    if witness is not None:
        return Verdict("ConsecutionFails", witness)
    return Verdict("Inductive")


# ---------------------------------------------------------------------------
# Bounded model checking


class BmcStep(Record):
    def __init__(self, depth, holds, witness=None):
        self.depth: int = depth
        self.holds: bool = holds
        self.witness: Optional[Dict] = witness


def bmc(system: TransitionSystem, candidate: Sequence[Formula], k: int) -> List[BmcStep]:
    """Check reachability of a candidate violation in up to k steps.
    State i renames each update variable x, and step i - 1 its primed
    name, to copy i of x: fresh_name("x_<i>") over the system's symbols."""
    if k < 0:
        raise ValueError("bound must be >= 0")
    sig = system.sig.copy()
    ext = system.sig.extension_functions
    taken = sig.all_symbols()
    copies = {old: [fresh_name("%s_%d" % (old, i), taken) for i in range(k + 2)] for old in system.update_vars}
    for old, new in system.update_vars.items():
        for i, name in enumerate(copies[old]):
            if old not in ext:
                sig.declare_constant(name)
            else:
                arity, level = ext[old]
                delta = max(ext[new][1] - level, 1) if new in ext else 1
                sig.extension_functions[name] = (arity, level + i * delta)

    def step_renaming(i: int) -> SymbolRenaming:
        mapping = {}
        for old, new in system.update_vars.items():
            mapping[old] = copies[old][i]
            mapping[new] = copies[old][i + 1]
        return SymbolRenaming(mapping)

    def state_renaming(i: int) -> SymbolRenaming:
        return SymbolRenaming({old: copies[old][i] for old in system.update_vars})

    init0 = [rename_symbols(f, state_renaming(0)) for f in system.init]
    results: List[BmcStep] = []
    for j in range(k + 1):
        statements = list(init0)
        for i in range(j):
            statements.extend(rename_symbols(f, step_renaming(i)) for f in system.update)
        shifted = [rename_symbols(c, state_renaming(j)) for c in candidate]
        statements.append(negate_universal(shifted, avoid=sig.all_symbols()))
        witness = decide(reduce_chain(sig, statements).ground)
        results.append(BmcStep(j, witness is None, witness))
    return results


# ---------------------------------------------------------------------------
# Invariant strengthening


class StrengthenResult(Record):
    def __init__(self, kind, candidate, iterations, log=None):
        self.kind: str = kind  # Invariant | NoUniversalInvariant | Exhausted
        self.candidate: List[Formula] = candidate
        self.iterations: int = iterations
        self.log: List[Tuple[int, str]] = [] if log is None else log


def _candidate_lines(candidate: Sequence[Formula]) -> List[str]:
    return ["%s;" % print_formula(c) for c in candidate]


def _log_candidate(log: List[Tuple[int, str]], label: str, candidate: Sequence[Formula]) -> None:
    if len(candidate) == 1:
        log.append((1, "(step) %s: %s;" % (label, print_formula(candidate[0]))))
        return
    log.append((1, "(step) %s: |-" % label))
    for line in _candidate_lines(candidate):
        log.append((2, line))


def _ground_unit_atoms(candidate: Sequence[Formula]) -> List[LinAtom]:
    """The linear atoms of the candidate's ground atoms.  A != atom is
    a disjunction of its two strict halves, so it gives no unit."""
    units: List[LinAtom] = []
    for c in candidate:
        if isinstance(c, Atom) and c.rel != "!=" and is_ground(c):
            for a in atom_to_lin(c):
                if isinstance(a, LinAtom):
                    units.append(a)
    return units


def _conjoin_constraint(candidate: List[Formula], constraint: Formula) -> List[Formula]:
    """Conjoin a generated constraint, dropping clause literals that
    contradict the candidate's ground atoms."""
    from .terms import Or, disj

    units = _ground_unit_atoms(candidate)
    out = list(candidate)
    for clause in constraint_statements(constraint):
        body = clause.body if isinstance(clause, Forall) else clause
        variables = clause.variables if isinstance(clause, Forall) else ()
        literals = list(body.parts) if isinstance(body, Or) else [body]
        kept = []
        for lit in literals:
            if isinstance(lit, Atom) and is_ground(lit):
                lins = [a for a in atom_to_lin(lit) if isinstance(a, LinAtom)]
                if lins and not any(is_sat(units + [a]) for a in lins):
                    continue
            kept.append(lit)
        if not kept:
            return [FALSE]
        new_clause: Formula = disj(kept)
        if variables:
            new_clause = Forall(variables, new_clause)
        new_clause = canonical(new_clause)
        if new_clause not in out and new_clause != TRUE:
            out.append(new_clause)
    return out


def strengthen(
    system: TransitionSystem,
    candidate: Sequence[Formula],
    parameters: Sequence[str],
    max_iter: int = 10,
    task_name: str = "task",
    max_cases: int = 10000,
) -> StrengthenResult:
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    current: List[Formula] = list(candidate)
    log: List[Tuple[int, str]] = []
    weakest_flags: List[bool] = []
    for iteration in range(1, max_iter + 1):
        log.append((0, "%d. Iteration:" % iteration))
        _log_candidate(log, "current candidate", current)

        avoid = system.sig.all_symbols()
        negated = canonical(negate_universal(current, avoid=avoid))
        log.append((1, "(step) negated candidate: %s;" % print_formula(negated)))
        primed = [rename_symbols(c, system.renaming()) for c in current]
        negated_primed = negate_universal(primed, avoid=avoid)
        log.append((1, "(step) negated and updated candidate: %s;" % print_formula(canonical(negated_primed))))

        init_ok = decide(vc_initiation(system, current).ground) is None
        consec_ok = decide(vc_consecution(system, current).ground) is None

        if not consec_ok:
            subtask = "%s_ST_strengthening_%d_" % (task_name, iteration)
            mode = "Mode.SYMBOL_ELIMINATION"
        else:
            subtask = "%s_ST_VC_update_%d" % (task_name, iteration)
            mode = "Mode.GENERATE_CONSTRAINTS"
        log.append((1, "(step) created subtask:"))
        log.append((2, "name: %s" % subtask))
        log.append((2, "mode: %s" % mode))
        log.append((1, "(step) verification condition init: %s" % ("true" if init_ok else "false")))
        log.append((1, "(step) verification condition: %s" % ("true" if consec_ok else "false")))

        if not init_ok:
            kind = "NoUniversalInvariant" if all(weakest_flags) else "Exhausted"
            detail = "initiation failed at iteration %d" % iteration
            log.append((1, "(step) %s" % detail))
            return StrengthenResult(kind, current, iteration, log)
        if consec_ok:
            return StrengthenResult("Invariant", current, iteration, log)

        statements = list(current) + list(system.update) + [negated_primed]
        result = generate_constraint(system.sig, statements, parameters=list(parameters), max_cases=max_cases)
        weakest_flags.append(result.weakest)
        current = [canonical(c) for c in current]
        current = _conjoin_constraint(current, result.constraint)
        # a false candidate fails the initiation check on the next pass
        _log_candidate(log, "new candidate", current)
    return StrengthenResult("Exhausted", current, max_iter, log)
