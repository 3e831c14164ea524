"""Many-sorted terms, literals, clauses and formulas.

Everything is an immutable dataclass; numeric constants are exact
rationals.  Constants are nullary applications, so symbol renaming and
substitution treat variables and constants uniformly.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from .errors import SignatureError, SortError

REAL = "real"

RELATIONS = ("=", "!=", "<=", "<", ">=", ">")

NEGATED_REL = {
    "=": "!=",
    "!=": "=",
    "<=": ">",
    "<": ">=",
    ">=": "<",
    ">": "<=",
}

ARITH_FUNCTIONS = {"+": 2, "-": 2, "*": 2}


@dataclass(frozen=True)
class Var:
    name: str
    sort: str = REAL


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class App:
    fn: str
    args: Tuple["Term", ...] = ()


Term = Union[Var, Num, App]


def num(value) -> Num:
    return Num(Fraction(value))


def const(name: str) -> App:
    return App(name, ())


@dataclass(frozen=True)
class Atom:
    rel: str
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    parts: Tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    parts: Tuple["Formula", ...]


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    variables: Tuple[str, ...]
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    variables: Tuple[str, ...]
    body: "Formula"


Formula = Union[Atom, Not, And, Or, Implies, Forall, Exists]

TRUE = And(())
FALSE = Or(())


def conj(parts: Iterable[Formula]) -> Formula:
    parts = tuple(parts)
    if len(parts) == 1:
        return parts[0]
    return And(parts)


def disj(parts: Iterable[Formula]) -> Formula:
    parts = tuple(parts)
    if len(parts) == 1:
        return parts[0]
    return Or(parts)


@dataclass(frozen=True)
class Clause:
    """Universally closed disjunction of literals."""

    variables: Tuple[str, ...]
    literals: Tuple[Atom, ...]

    def is_ground(self) -> bool:
        return not self.variables


@dataclass
class Signature:
    """Declared symbols: base functions, leveled extension functions,
    relations, parameters and (implicitly declared) constants."""

    base_functions: Dict[str, int] = field(default_factory=lambda: dict(ARITH_FUNCTIONS))
    extension_functions: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    relations: Dict[str, int] = field(default_factory=dict)
    parameters: Set[str] = field(default_factory=set)
    constants: Set[str] = field(default_factory=set)
    sorts: Set[str] = field(default_factory=lambda: {REAL})

    def validate(self) -> None:
        names = [set(self.base_functions), set(self.extension_functions), set(self.relations)]
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                overlap = names[i] & names[j]
                if overlap:
                    raise SignatureError("symbol declared twice: %s" % ", ".join(sorted(overlap)))
        for name, (_, level) in self.extension_functions.items():
            if level < 1:
                raise SignatureError("extension level of %s must be >= 1" % name)
        for p in self.parameters:
            if not (p in self.extension_functions or p in self.base_functions or p in self.constants):
                raise SignatureError("parameter %s names no declared function or constant" % p)

    def copy(self) -> "Signature":
        return Signature(
            dict(self.base_functions),
            dict(self.extension_functions),
            dict(self.relations),
            set(self.parameters),
            set(self.constants),
            set(self.sorts),
        )

    def is_extension(self, name: str) -> bool:
        return name in self.extension_functions

    def level_of(self, name: str) -> int:
        return self.extension_functions[name][1]

    def arity_of(self, name: str) -> Optional[int]:
        if name in self.base_functions:
            return self.base_functions[name]
        if name in self.extension_functions:
            return self.extension_functions[name][0]
        if name in self.constants:
            return 0
        return None

    def declare_constant(self, name: str) -> None:
        if name in self.base_functions or name in self.extension_functions:
            raise SignatureError("%s is already a declared function" % name)
        self.constants.add(name)

    def all_symbols(self) -> Set[str]:
        return set(self.base_functions) | set(self.extension_functions) | set(self.constants)

    def fresh_constant(self, stem: str, taken: Optional[Set[str]] = None) -> str:
        used = self.all_symbols()
        if taken:
            used |= taken
        if stem not in used:
            self.constants.add(stem)
            return stem
        k = 2
        while "%s_%d" % (stem, k) in used:
            k += 1
        name = "%s_%d" % (stem, k)
        self.constants.add(name)
        return name


class SymbolRenaming:
    """Injective map on function/constant symbol names.

    Arity is preserved by construction since only names change; level
    preservation is not enforced (primed copies of an updated function
    legitimately live one extension level up).
    """

    def __init__(self, mapping: Dict[str, str]):
        if len(set(mapping.values())) != len(mapping):
            raise SortError("symbol renaming is not injective")
        self.mapping = dict(mapping)

    def target(self, name: str) -> str:
        return self.mapping.get(name, name)


# ---------------------------------------------------------------------------
# Traversals


def subterms(t: Term):
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


def term_symbols(t: Term) -> Set[str]:
    out: Set[str] = set()
    for s in subterms(t):
        if isinstance(s, App):
            out.add(s.fn)
    return out


def formula_terms(f: Formula):
    if isinstance(f, Atom):
        yield f.lhs
        yield f.rhs
    elif isinstance(f, Not):
        yield from formula_terms(f.body)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            yield from formula_terms(p)
    elif isinstance(f, Implies):
        yield from formula_terms(f.left)
        yield from formula_terms(f.right)
    elif isinstance(f, (Forall, Exists)):
        yield from formula_terms(f.body)


def formula_atoms(f: Formula):
    if isinstance(f, Atom):
        yield f
    elif isinstance(f, Not):
        yield from formula_atoms(f.body)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            yield from formula_atoms(p)
    elif isinstance(f, Implies):
        yield from formula_atoms(f.left)
        yield from formula_atoms(f.right)
    elif isinstance(f, (Forall, Exists)):
        yield from formula_atoms(f.body)


def formula_symbols(f: Formula) -> Set[str]:
    out: Set[str] = set()
    for t in formula_terms(f):
        out |= term_symbols(t)
    return out


def free_variables(x: Union[Term, Formula]) -> Set[str]:
    if isinstance(x, Var):
        return {x.name}
    if isinstance(x, Num):
        return set()
    if isinstance(x, App):
        out: Set[str] = set()
        for a in x.args:
            out |= free_variables(a)
        return out
    if isinstance(x, Atom):
        return free_variables(x.lhs) | free_variables(x.rhs)
    if isinstance(x, Not):
        return free_variables(x.body)
    if isinstance(x, (And, Or)):
        out = set()
        for p in x.parts:
            out |= free_variables(p)
        return out
    if isinstance(x, Implies):
        return free_variables(x.left) | free_variables(x.right)
    if isinstance(x, (Forall, Exists)):
        return free_variables(x.body) - set(x.variables)
    raise TypeError(x)


def is_ground(x: Union[Term, Formula]) -> bool:
    return not free_variables(x)


# ---------------------------------------------------------------------------
# Substitution and renaming


def substitute(x, mapping: Dict[str, Term]):
    """Simultaneous, capture-avoiding substitution of variables by terms."""
    if isinstance(x, Var):
        return mapping.get(x.name, x)
    if isinstance(x, Num):
        return x
    if isinstance(x, App):
        return App(x.fn, tuple(substitute(a, mapping) for a in x.args))
    if isinstance(x, Atom):
        return Atom(x.rel, substitute(x.lhs, mapping), substitute(x.rhs, mapping))
    if isinstance(x, Not):
        return Not(substitute(x.body, mapping))
    if isinstance(x, And):
        return And(tuple(substitute(p, mapping) for p in x.parts))
    if isinstance(x, Or):
        return Or(tuple(substitute(p, mapping) for p in x.parts))
    if isinstance(x, Implies):
        return Implies(substitute(x.left, mapping), substitute(x.right, mapping))
    if isinstance(x, (Forall, Exists)):
        inner = {k: v for k, v in mapping.items() if k not in x.variables}
        for v in inner.values():
            captured = free_variables(v) & set(x.variables)
            if captured:
                raise SortError("substitution captures bound variable %s" % sorted(captured)[0])
        body = substitute(x.body, inner)
        return type(x)(x.variables, body)
    raise TypeError(x)


def rename_symbols(x, renaming: SymbolRenaming):
    """Homomorphic renaming of function/constant symbols."""
    if isinstance(x, (Var, Num)):
        return x
    if isinstance(x, App):
        return App(renaming.target(x.fn), tuple(rename_symbols(a, renaming) for a in x.args))
    if isinstance(x, Atom):
        return Atom(x.rel, rename_symbols(x.lhs, renaming), rename_symbols(x.rhs, renaming))
    if isinstance(x, Not):
        return Not(rename_symbols(x.body, renaming))
    if isinstance(x, And):
        return And(tuple(rename_symbols(p, renaming) for p in x.parts))
    if isinstance(x, Or):
        return Or(tuple(rename_symbols(p, renaming) for p in x.parts))
    if isinstance(x, Implies):
        return Implies(rename_symbols(x.left, renaming), rename_symbols(x.right, renaming))
    if isinstance(x, (Forall, Exists)):
        return type(x)(x.variables, rename_symbols(x.body, renaming))
    raise TypeError(x)


# ---------------------------------------------------------------------------
# Negation normal form, clauses, skolemization


def negate_atom(a: Atom) -> Atom:
    return Atom(NEGATED_REL[a.rel], a.lhs, a.rhs)


def nnf(f: Formula, positive: bool = True) -> Formula:
    if isinstance(f, Atom):
        return f if positive else negate_atom(f)
    if isinstance(f, Not):
        return nnf(f.body, not positive)
    if isinstance(f, And):
        parts = tuple(nnf(p, positive) for p in f.parts)
        return And(parts) if positive else Or(parts)
    if isinstance(f, Or):
        parts = tuple(nnf(p, positive) for p in f.parts)
        return Or(parts) if positive else And(parts)
    if isinstance(f, Implies):
        if positive:
            return Or((nnf(f.left, False), nnf(f.right, True)))
        return And((nnf(f.left, True), nnf(f.right, False)))
    if isinstance(f, Forall):
        body = nnf(f.body, positive)
        return Forall(f.variables, body) if positive else Exists(f.variables, body)
    if isinstance(f, Exists):
        body = nnf(f.body, positive)
        return Exists(f.variables, body) if positive else Forall(f.variables, body)
    raise TypeError(f)


def to_clauses(f: Formula) -> List[Clause]:
    """Split a conjunction of universally closed clauses into Clause values.

    Accepts conjunctions, implications with conjunctive antecedents and
    disjunctive consequents, and plain literals.
    """
    out: List[Clause] = []
    _collect_clauses(f, (), out)
    return out


def _collect_clauses(f: Formula, variables: Tuple[str, ...], out: List[Clause]) -> None:
    if isinstance(f, Forall):
        _collect_clauses(f.body, variables + f.variables, out)
        return
    if isinstance(f, And):
        for p in f.parts:
            _collect_clauses(p, variables, out)
        return
    literals = _disjunction_literals(nnf(f))
    used = tuple(v for v in variables if any(v in free_variables(l) for l in literals))
    out.append(Clause(used, tuple(literals)))


def _disjunction_literals(f: Formula) -> List[Atom]:
    if isinstance(f, Atom):
        return [f]
    if isinstance(f, Or):
        lits: List[Atom] = []
        for p in f.parts:
            lits.extend(_disjunction_literals(p))
        return lits
    raise SortError("formula is not a clause: nested %s" % type(f).__name__)


def skolem_name(var: str, avoid: Set[str]) -> str:
    name = "sk_%s" % var
    if name not in avoid:
        return name
    k = 2
    while "%s_%d" % (name, k) in avoid:
        k += 1
    return "%s_%d" % (name, k)


def negate_universal(f: Union[Formula, Iterable[Formula]], avoid: Iterable[str] = ()) -> Formula:
    """Negate a conjunction of universally closed clauses.

    Quantified variables become fresh skolem constants named sk_<var>
    (suffixed _2, _3, ... on collision); the result is a ground
    disjunction of negated-literal conjunctions in NNF.
    """
    if isinstance(f, (list, tuple)):
        clauses: List[Clause] = []
        for part in f:
            clauses.extend(to_clauses(part))
    else:
        if any(isinstance(g, Exists) for g in _walk(f)):
            raise SortError("cannot negate a formula with existential quantifiers")
        clauses = to_clauses(f)
    taken = set(avoid)
    for c in clauses:
        for l in c.literals:
            taken |= term_symbols(l.lhs) | term_symbols(l.rhs)
    disjuncts: List[Formula] = []
    for c in clauses:
        sk = {v: const(skolem_name(v, taken)) for v in c.variables}
        negated = [negate_atom(substitute(l, sk)) for l in c.literals]
        disjuncts.append(conj(negated) if negated else TRUE)
    return disj(disjuncts) if disjuncts else FALSE


def _walk(f: Formula):
    yield f
    if isinstance(f, Not):
        yield from _walk(f.body)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            yield from _walk(p)
    elif isinstance(f, Implies):
        yield from _walk(f.left)
        yield from _walk(f.right)
    elif isinstance(f, (Forall, Exists)):
        yield from _walk(f.body)


def check_term(sig: Signature, t: Term, scope: Set[str] = frozenset(), auto_constants: bool = True) -> None:
    """Validate arities against the signature; nullary symbols may be
    registered on first use when auto_constants is set."""
    if isinstance(t, Var):
        if t.name not in scope:
            raise SignatureError("unbound variable %s" % t.name)
        return
    if isinstance(t, Num):
        return
    arity = sig.arity_of(t.fn)
    if arity is None:
        if t.args:
            raise SignatureError("undeclared function %s/%d" % (t.fn, len(t.args)))
        if not auto_constants:
            raise SignatureError("undeclared constant %s" % t.fn)
        sig.declare_constant(t.fn)
        arity = 0
    if t.fn == "-" and len(t.args) == 1:
        pass  # unary minus shares the declared binary symbol
    elif len(t.args) != arity:
        raise SignatureError("arity mismatch for %s: expected %d, got %d" % (t.fn, arity, len(t.args)))
    for a in t.args:
        check_term(sig, a, scope, auto_constants)
