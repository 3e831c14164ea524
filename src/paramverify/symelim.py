"""Property-directed symbol elimination.

Produces the weakest universal constraint on the parameter symbols that
makes a reduced problem unsatisfiable: purify, existentially eliminate
every non-parameter constant, negate, then re-substitute definition
terms and universally close over the kept argument constants.
"""

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import EngineError, SortError
from .linear import (
    LinAtom,
    assumptions_from,
    decide,
    eliminate,
    lin_to_atom,
    simplify,
    to_linear,
)
from .printing import canonical, print_formula, print_term
from .reduction import (
    clause_level,
    extension_heads,
    reduce_chain,
    split_statements,
)
from .terms import (
    And,
    App,
    Atom,
    FALSE,
    Forall,
    Formula,
    Implies,
    Or,
    Record,
    Signature,
    TRUE,
    Term,
    Var,
    conj,
    const,
    disj,
    formula_subterms,
    formula_symbols,
    fresh_name,
    map_terms,
    negate_atom,
    nnf,
    subterms,
    substitute,
)


class ConstraintResult(Record):
    def __init__(self, constraint, weakest, steps=None):
        self.constraint: Formula = constraint  # conjunction of universally closed clauses
        self.weakest: bool = weakest
        self.steps: List[str] = [] if steps is None else steps


def _constants(terms: Iterable[Term], sig: Signature) -> List[str]:
    """The constants among the terms, in first-occurrence order."""
    return list(dict.fromkeys(s.fn for s in terms if isinstance(s, App) and not s.args and s.fn in sig.constants))


def generate_constraint(
    sig: Signature,
    statements: Sequence[Formula],
    parameters: Optional[Sequence[str]] = None,
    eliminate_symbols: Optional[Sequence[str]] = None,
    assumptions: Sequence[Formula] = (),
    max_cases: int = 10000,
    full_simplify: bool = True,
    seeds: Sequence[Term] = (),
) -> ConstraintResult:
    """Weakest universal parameter constraint making the problem
    unsatisfiable (weakest guaranteed only when the extension axioms
    have definitional or bounded shape, reported via the flag).  The
    parameters are symbols of sig: those that parameters names (an
    EngineError if sig lacks one), or those that eliminate_symbols does
    not name.  So every symbol the engine introduces (purification and
    Skolem constants, a flow's duration) is eliminated.
    full_simplify runs the exact simplify on the projection; assumptions
    imply it, so no literal of the result is decided by them."""
    if (parameters is None) == (eliminate_symbols is None):
        raise EngineError("exactly one of parameters/eliminate must be given")
    undeclared = [p for p in parameters or () if sig.arity_of(p) is None]
    if undeclared:
        raise EngineError("parameters %s are no symbols of the signature" % ", ".join(undeclared))
    params = set(parameters) if parameters is not None else sig.all_symbols() - set(eliminate_symbols)
    steps: List[str] = []
    reduced = reduce_chain(sig, statements, seeds)
    for step in reduced.steps:
        steps.append(
            "level %d: %d instantiation terms, %d instances, %d definitions"
            % (step.level, len(step.est), len(step.instances), len(step.definitions))
        )

    kept_defs = [d for d in reduced.definitions if d.term.fn in params]
    for d in kept_defs:
        bad = [
            s.fn
            for s in subterms(d.term)
            if isinstance(s, App) and s.args and sig.is_extension(s.fn) and s.fn not in params and s != d.term
        ]
        if bad:
            raise SortError(
                "argument of parameter application %s contains eliminated symbol %s"
                % (print_term(d.term), bad[0])
            )
    occurring = _constants((s for f in reduced.ground for s in formula_subterms(f)), reduced.sig)
    kept = [name for name in occurring if name in params] + [d.constant for d in kept_defs]
    args = (s for d in kept_defs for arg in d.term.args for s in subterms(arg))
    arg_constants = [name for name in _constants(args, reduced.sig) if name not in params and name not in kept]
    eliminated = [name for name in occurring if name not in kept and name not in arg_constants]
    steps.append("kept %s; eliminating %s" % (kept + arg_constants, eliminated))

    lin_assumptions = assumptions_from(assumptions)
    dnf = to_linear(conj(reduced.ground) if reduced.ground else TRUE)
    projected = eliminate(eliminated, dnf, lin_assumptions, max_cases)
    if full_simplify or assumptions:
        projected = simplify(projected, lin_assumptions)
    steps.append("eliminated %d symbols, %d conjuncts remain" % (len(eliminated), len(projected)))

    clauses = _negate_dnf(projected)
    defs_map = {d.constant: d.term for d in kept_defs}
    closed: List[Formula] = []
    for clause in clauses:
        f = substitute_constants(clause, defs_map)
        variables = [c for c in arg_constants if c in formula_symbols(f)]
        if variables:
            f = Forall(tuple(variables), substitute_constants(f, {c: Var(c) for c in variables}))
        closed.append(canonical(f))
    constraint = canonical(conj(closed)) if closed else TRUE
    weakest = definitional_shapes_ok(sig, statements)
    return ConstraintResult(constraint, weakest, steps)


def _negate_dnf(dnf) -> List[Formula]:
    """Clauses of the negation, tautologies and subsumed clauses dropped."""
    clauses: List[List[LinAtom]] = []
    for conjunct in dnf:
        clauses.append([a.negated() for a in conjunct])
    out: List[Formula] = []
    for lits in clauses:
        if _is_tautology(lits):
            continue
        out.append(disj([lin_to_atom(l) for l in lits]) if lits else FALSE)
    # drop syntactically subsumed clauses
    kept: List[Formula] = []
    sets = [set(print_formula(f) for f in (c.parts if isinstance(c, Or) else (c,))) for c in out]
    for i, c in enumerate(out):
        if any(j != i and sets[j] < sets[i] for j in range(len(out))):
            continue
        if c in kept:
            continue
        kept.append(c)
    return kept


def _is_tautology(lits: Sequence[LinAtom]) -> bool:
    for i in range(len(lits)):
        for j in range(i + 1, len(lits)):
            if lits[i].negated() == lits[j] or lits[j].negated() == lits[i]:
                return True
    return False


def substitute_constants(f: Formula, mapping: Dict[str, Term]) -> Formula:
    """Replace nullary applications by terms."""

    def sub_term(t: Term) -> Term:
        if isinstance(t, App):
            if not t.args and t.fn in mapping:
                return mapping[t.fn]
            return App(t.fn, tuple(sub_term(a) for a in t.args))
        return t

    return map_terms(f, sub_term)


# ---------------------------------------------------------------------------
# Shape checks backing the weakest-constraint guarantee


def definitional_shapes_ok(sig: Signature, statements: Sequence[Formula]) -> bool:
    """True when every universal axiom is a guarded definition or bound
    of a single extension application with mutually exclusive guards."""
    try:
        clauses, _ = split_statements(statements)
    except SortError:
        return False
    defined: Dict[str, List[Tuple[Tuple[str, ...], Formula]]] = {}
    for clause in clauses:
        level = clause_level(sig, clause)
        heads = extension_heads(sig, level)
        info = _definition_parts(clause, heads)
        if info is None:
            return False
        fn, args, guard = info
        defined.setdefault(fn, []).append((args, guard))
    for fn, entries in defined.items():
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                if not _guards_disjoint(sig, entries[i], entries[j]):
                    return False
    return True


def _definition_parts(clause: Forall, heads) -> Optional[Tuple[str, Tuple[str, ...], Formula]]:
    body = clause.body
    lits = body.parts if isinstance(body, Or) else (body,)
    if isinstance(body, Implies):
        lits = tuple(p for p in _flatten_disj(nnf(body)))
    if not all(isinstance(l, Atom) for l in lits):
        return None
    patterns = {s for l in lits for s in formula_subterms(l) if isinstance(s, App) and s.fn in heads}
    if len(patterns) != 1:
        return None
    (p,) = patterns
    if not all(isinstance(a, Var) for a in p.args):
        return None
    names = tuple(a.name for a in p.args)
    if len(set(names)) != len(names) or set(names) != set(clause.variables):
        return None
    guard_lits = [l for l in lits if p not in formula_subterms(l)]
    value_lits = [l for l in lits if p in formula_subterms(l)]
    if not value_lits:
        return None
    guard = conj([negate_atom(l) for l in guard_lits]) if guard_lits else TRUE
    return p.fn, names, guard


def _flatten_disj(f: Formula):
    if isinstance(f, Or):
        for p in f.parts:
            yield from _flatten_disj(p)
    else:
        yield f


def _guards_disjoint(sig: Signature, a, b) -> bool:
    args_a, guard_a = a
    args_b, guard_b = b
    if len(args_a) != len(args_b):
        return True
    taken = sig.all_symbols() | formula_symbols(guard_a) | formula_symbols(guard_b)
    shared = [const(fresh_name("g_v_%d" % k, taken)) for k in range(len(args_a))]
    try:
        ga = substitute(guard_a, dict(zip(args_a, shared)))
        gb = substitute(guard_b, dict(zip(args_b, shared)))
        return decide([ga, gb]) is None
    except (SortError, EngineError):
        return False


# ---------------------------------------------------------------------------
# Re-checking generated constraints


def check_unsat_with_constraint(sig: Signature, statements: Sequence[Formula], constraint: Formula) -> bool:
    """True iff the problem together with the constraint reduces to an
    unsatisfiable ground formula."""
    reduced = reduce_chain(sig, list(statements) + constraint_statements(constraint))
    return decide(reduced.ground) is None


def constraint_statements(constraint: Formula) -> List[Formula]:
    """The clauses of a generated constraint, its nested conjunctions
    flattened; none for true."""
    if constraint == TRUE:
        return []
    if isinstance(constraint, And):
        out: List[Formula] = []
        for p in constraint.parts:
            out.extend(constraint_statements(p))
        return out
    return [constraint]
