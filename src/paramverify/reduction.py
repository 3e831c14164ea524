"""Hierarchical reduction of extension-chain problems to ground base
formulas.

Level by level (highest first), the axiom clauses of that level are
instantiated with the ground extension subterms of the current problem,
the level's function applications are replaced by fresh constants with
definitional entries, and instantiated congruence clauses are added.
The result is a ground conjunction over base symbols, numerals,
parameters and the introduced constants, equisatisfiable with the input
whenever the extension chain is local for the identity closure.

reduce_chain leaves the signature it is given unchanged.  It works on
a copy, which declares every undeclared constant of the statements
(a negated candidate's Skolem constants, for example) and every
introduced constant, and returns that copy as ReducedProblem.sig.
"""

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import NonGroundableError, SortError
from .terms import (
    App,
    Atom,
    Forall,
    Formula,
    Implies,
    Num,
    Record,
    Signature,
    Term,
    Var,
    conj,
    formula_subterms,
    free_variables,
    is_ground,
    map_terms,
    subformulas,
    substitute,
    subterms,
)


def split_statements(statements: Iterable[Formula]) -> Tuple[List[Formula], List[Formula]]:
    """Separate axiom clauses (quantified) from the ground goal part.  A
    statement is a quantifier-free formula or one universal prefix over
    one, and every variable it holds is bound by that prefix.  So every
    clause returned is a Forall whose body's variables all lie in its
    prefix, and every goal part is ground: an instance binding the whole
    prefix is ground too."""
    clauses: List[Formula] = []
    goal: List[Formula] = []
    for s in statements:
        prefix, body = (set(s.variables), s.body) if isinstance(s, Forall) else (set(), s)
        ground = True
        for g in subformulas(body):
            if type(g) is Forall:
                raise SortError("quantifier below the prefix of a statement")
            if ground and type(g) is Atom:
                ground = is_ground(g.lhs) and is_ground(g.rhs)
        if ground:
            goal.append(body)
        elif free_variables(body) <= prefix:
            clauses.append(s)
        else:
            raise SortError("statement has unbound variables")
    return clauses, goal


def extension_heads(sig: Signature, level: Optional[int] = None) -> Set[str]:
    if level is None:
        return set(sig.extension_functions)
    return {f for f, (_, l) in sig.extension_functions.items() if l == level}


def clause_level(sig: Signature, clause: Formula) -> int:
    levels = (sig.level_of(s.fn) for s in formula_subterms(clause) if isinstance(s, App) and sig.is_extension(s.fn))
    return max(levels, default=0)


def ground_extension_subterms(
    statements: Iterable[Formula], sig: Signature, heads: Optional[Set[str]] = None
) -> List[Term]:
    """All ground subterms with an extension head, in encounter order
    (the set is closed under taking extension-headed subterms)."""
    if heads is None:
        heads = extension_heads(sig)
    out: List[Term] = []
    for s in statements:
        for sub in formula_subterms(s):
            if isinstance(sub, App) and sub.fn in heads and is_ground(sub) and sub not in out:
                out.append(sub)
    return out


def closure(
    terms: Sequence[Term],
    statements: Iterable[Formula],
    sig: Signature,
    heads: Optional[Set[str]] = None,
    seeds: Sequence[Term] = (),
) -> List[Term]:
    """Identity closure: the extension subterms of the axioms and of the
    given terms, the terms themselves, plus user-supplied seeds."""
    if heads is None:
        heads = extension_heads(sig)
    out = ground_extension_subterms(statements, sig, heads)
    for t in terms:
        for sub in subterms(t):
            if isinstance(sub, App) and sub.fn in heads and is_ground(sub) and sub not in out:
                out.append(sub)
    for t in seeds:
        if isinstance(t, App) and t.fn in heads and is_ground(t) and t not in out:
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# Instantiation


def _match(pattern: Term, ground: Term, binding: Dict[str, Term]) -> bool:
    if isinstance(pattern, Var):
        bound = binding.get(pattern.name)
        if bound is None:
            binding[pattern.name] = ground
            return True
        return bound == ground
    if isinstance(pattern, Num):
        return isinstance(ground, Num) and pattern.value == ground.value
    if isinstance(pattern, App):
        if not isinstance(ground, App) or pattern.fn != ground.fn or len(pattern.args) != len(ground.args):
            return False
        return all(_match(p, g, binding) for p, g in zip(pattern.args, ground.args))
    return False


def _patterns(clause: Formula, heads: Set[str]) -> List[Term]:
    out: List[Term] = []
    for sub in formula_subterms(clause):
        if isinstance(sub, App) and sub.fn in heads and sub not in out:
            out.append(sub)
    return out


def instantiate(
    clauses: Iterable[Formula], terms: Sequence[Term], sig: Signature, heads: Optional[Set[str]] = None
) -> List[Formula]:
    """All instances of the prefixed clauses whose extension-headed
    terms fall inside the given term set; the clauses are shaped as
    split_statements returns them, so each instance is ground."""
    if heads is None:
        heads = extension_heads(sig)
    out: List[Formula] = []
    for clause in clauses:
        variables = set(clause.variables)
        body = clause.body
        patterns = [p for p in _patterns(body, heads) if free_variables(p)]
        covered: Set[str] = set()
        for p in patterns:
            covered |= free_variables(p)
        if not variables <= covered:
            missing = sorted(variables - covered)
            raise NonGroundableError(
                "variable %s does not occur below a level-matching extension symbol" % missing[0]
            )
        bindings: List[Dict[str, Term]] = [{}]
        for p in patterns:
            next_bindings: List[Dict[str, Term]] = []
            for b in bindings:
                for t in terms:
                    candidate = dict(b)
                    if _match(p, t, candidate) and candidate not in next_bindings:
                        next_bindings.append(candidate)
            bindings = next_bindings
            if not bindings:
                break
        for b in bindings:
            instance = substitute(body, b)
            if all(t in terms for t in _patterns(instance, heads)):
                if instance not in out:
                    out.append(instance)
    return out


# ---------------------------------------------------------------------------
# Flattening and purification


class Definition(Record):
    def __init__(self, constant, term, purified_args):
        self.constant: str = constant
        self.term: App = term  # the original extension application
        self.purified_args: Tuple[Term, ...] = purified_args


class PurifiedProblem(Record):
    def __init__(self, clauses, definitions, congruence):
        self.clauses: List[Formula] = clauses
        self.definitions: List[Definition] = definitions
        self.congruence: List[Formula] = congruence


def flatten_purify(
    statements: Iterable[Formula], sig: Signature, heads: Optional[Set[str]] = None
) -> PurifiedProblem:
    """Replace ground extension applications by fresh constants, bottom
    up, and emit one congruence clause per pair of same-head entries."""
    if heads is None:
        heads = extension_heads(sig)
    defs: List[Definition] = []
    by_term: Dict[App, str] = {}

    def name_for(original: App, purified_args: Tuple[Term, ...]) -> str:
        known = by_term.get(original)
        if known is not None:
            return known
        count = sum(1 for d in defs if d.term.fn == original.fn) + 1
        name = sig.fresh_constant("c_%s_%d" % (original.fn, count))
        defs.append(Definition(name, original, purified_args))
        by_term[original] = name
        return name

    def purify_term(t: Term) -> Term:
        if not isinstance(t, App):
            return t
        args = tuple(purify_term(a) for a in t.args)
        if t.fn in heads:
            if not is_ground(t):
                raise SortError("extension symbol %s applied to non-ground arguments" % t.fn)
            return App(name_for(t, args), ())
        return App(t.fn, args)

    clauses = [map_terms(s, purify_term) for s in statements]
    congruence: List[Formula] = []
    for i in range(len(defs)):
        for j in range(i + 1, len(defs)):
            d, e = defs[i], defs[j]
            if d.term.fn != e.term.fn:
                continue
            eqs = [Atom("=", a, b) for a, b in zip(d.purified_args, e.purified_args)]
            head = Atom("=", App(d.constant, ()), App(e.constant, ()))
            congruence.append(Implies(conj(eqs), head) if eqs else head)
    return PurifiedProblem(clauses, defs, congruence)


# ---------------------------------------------------------------------------
# Chain reduction


class ReductionStep(Record):
    def __init__(self, level, est, instances, definitions, congruence):
        self.level: int = level
        self.est: List[Term] = est
        self.instances: List[Formula] = instances
        self.definitions: List[Definition] = definitions
        self.congruence: List[Formula] = congruence


class ReducedProblem(Record):
    def __init__(self, sig, ground, clauses=None, definitions=None, steps=None):
        self.sig: Signature = sig
        self.ground: List[Formula] = ground
        self.clauses: List[Formula] = [] if clauses is None else clauses  # the axioms split off the input
        self.definitions: List[Definition] = [] if definitions is None else definitions
        self.steps: List[ReductionStep] = [] if steps is None else steps


def reduce_chain(sig: Signature, statements: Iterable[Formula], seeds: Sequence[Term] = ()) -> ReducedProblem:
    """Iterate est / closure / instantiation / purification from the
    highest declared extension level down to 1, on a copy of sig."""
    statements = list(statements)
    sig = sig.copy()
    for s in statements:
        sig.declare_constants_of(s)
    clauses, goal = split_statements(statements)
    leveled: Dict[int, List[Formula]] = {}
    for c in clauses:
        level = clause_level(sig, c)
        if level == 0:
            raise NonGroundableError("universal clause without extension symbols cannot be grounded")
        leveled.setdefault(level, []).append(c)
    levels = sorted(set(sig.extension_functions[f][1] for f in sig.extension_functions), reverse=True)
    problem = ReducedProblem(sig, list(goal), clauses)
    for level in levels:
        heads = extension_heads(sig, level)
        level_clauses = leveled.pop(level, [])
        est_terms = ground_extension_subterms(level_clauses + problem.ground, sig, heads)
        terms = closure(est_terms, level_clauses, sig, heads, seeds)
        instances = instantiate(level_clauses, terms, sig, heads)
        purified = flatten_purify(instances + problem.ground, sig, heads)
        problem.ground = purified.clauses + purified.congruence
        problem.definitions.extend(purified.definitions)
        problem.steps.append(
            ReductionStep(level, terms, instances, purified.definitions, purified.congruence)
        )
    if leveled:
        raise SortError("clauses at undeclared extension level %s" % sorted(leveled))
    return problem
