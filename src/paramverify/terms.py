"""Terms, literals, clauses and formulas over one sort, the rationals.

Terms, formulas and clauses are immutable slotted nodes (Node), equal
when they are of the same class with equal fields and hashed as the
tuple of their fields; numeric constants are exact rationals.
Constants are nullary applications, so symbol renaming and substitution
treat variables and constants uniformly.

A quantifier appears only as a statement's universal prefix: Forall
over a quantifier-free body.  The parser reads no other, and
reduction.split_statements rejects a statement with a quantifier below
its prefix, so no walk tracks binders.  A conjunction of statements (a
generated constraint) holds each prefix right below its And;
to_clauses, canonical and print_formula read it so, while
free_variables and is_ground take a term or one statement, and
substitute a term or a quantifier-free formula.

Two walkers own the walk over formulas.  subformulas lists a formula
and everything below it in pre-order; formula_terms (atom sides, lhs
before rhs), formula_subterms, formula_symbols and free_variables (less
a prefix's variables) are read through it.  map_terms rebuilds a
formula with each atom side replaced, keeping every connective and the
prefix; substitute, rename_symbols, purification and symbol
elimination's re-substitution of definition terms go through it.  Term
walks (subterms, and the term cases of substitute and rename_symbols)
stay direct recursions.  Walks that do their own work at each
connective keep their own recursion: nnf (polarity), to_clauses, and
outside this module print_formula, canonical, the SMT-LIB export and
linear's DNF.
"""

from fractions import Fraction
from typing import Collection, Dict, Iterable, List, Optional, Set, Tuple, Union

from .errors import SignatureError, SortError

NEGATED_REL = {
    "=": "!=",
    "!=": "=",
    "<=": ">",
    "<": ">=",
    ">=": "<",
    ">": "<=",
}

ARITH_FUNCTIONS = {"+": 2, "-": 2, "*": 2}


class Node:
    """An immutable syntax node.  Each node class lists its fields in
    __slots__ (a leading underscore marks a cache, left out of repr),
    sets them in __init__ through object.__setattr__, and defines its own
    __eq__ (same class, equal fields) and __hash__ (the hash of the tuple
    of its fields)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __repr__(self):
        fields = ("%s=%r" % (f, getattr(self, f)) for f in self.__slots__ if f[0] != "_")
        return "%s(%s)" % (type(self).__qualname__, ", ".join(fields))


class Record:
    """A mutable record: equal to a record of the same class with equal
    fields, unhashable, and shown with its fields in __init__ order."""

    def __eq__(self, other):
        return type(other) is type(self) and self.__dict__ == other.__dict__

    def __repr__(self):
        fields = ("%s=%r" % item for item in self.__dict__.items())
        return "%s(%s)" % (type(self).__qualname__, ", ".join(fields))


class Var(Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __eq__(self, other):
        return type(other) is Var and self.name == other.name

    def __hash__(self):
        return hash((self.name,))


class Num(Node):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        return type(other) is Num and self.value == other.value

    def __hash__(self):
        return hash((self.value,))


class App(Node):
    __slots__ = ("fn", "args")

    def __init__(self, fn: str, args: Tuple["Term", ...] = ()):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "args", args)

    def __eq__(self, other):
        return type(other) is App and self.fn == other.fn and self.args == other.args

    def __hash__(self):
        return hash((self.fn, self.args))


Term = Union[Var, Num, App]


def num(value) -> Num:
    return Num(Fraction(value))


def const(name: str) -> App:
    return App(name, ())


class Atom(Node):
    __slots__ = ("rel", "lhs", "rhs")

    def __init__(self, rel: str, lhs: Term, rhs: Term):
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def __eq__(self, other):
        return type(other) is Atom and self.rel == other.rel and self.lhs == other.lhs and self.rhs == other.rhs

    def __hash__(self):
        return hash((self.rel, self.lhs, self.rhs))


class Not(Node):
    __slots__ = ("body",)

    def __init__(self, body: "Formula"):
        object.__setattr__(self, "body", body)

    def __eq__(self, other):
        return type(other) is Not and self.body == other.body

    def __hash__(self):
        return hash((self.body,))


class _Junction(Node):
    """And and Or: a tuple of parts."""

    __slots__ = ()

    def __init__(self, parts: Tuple["Formula", ...]):
        object.__setattr__(self, "parts", parts)

    def __eq__(self, other):
        return type(other) is type(self) and self.parts == other.parts

    def __hash__(self):
        return hash((self.parts,))


class And(_Junction):
    __slots__ = ("parts",)


class Or(_Junction):
    __slots__ = ("parts",)


class Implies(Node):
    __slots__ = ("left", "right")

    def __init__(self, left: "Formula", right: "Formula"):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other):
        return type(other) is Implies and self.left == other.left and self.right == other.right

    def __hash__(self):
        return hash((self.left, self.right))


class Forall(Node):
    """A statement's universal prefix: bound variable names and a
    quantifier-free body."""

    __slots__ = ("variables", "body")

    def __init__(self, variables: Tuple[str, ...], body: "Formula"):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "body", body)

    def __eq__(self, other):
        return type(other) is Forall and self.variables == other.variables and self.body == other.body

    def __hash__(self):
        return hash((self.variables, self.body))


Formula = Union[Atom, Not, And, Or, Implies, Forall]

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


class Clause(Node):
    """Universally closed disjunction of literals."""

    __slots__ = ("variables", "literals")

    def __init__(self, variables: Tuple[str, ...], literals: Tuple[Atom, ...]):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "literals", literals)

    def __eq__(self, other):
        return type(other) is Clause and self.variables == other.variables and self.literals == other.literals

    def __hash__(self):
        return hash((self.variables, self.literals))


class Signature(Record):
    """Declared symbols: base functions, leveled extension functions,
    relations, parameters and (implicitly declared) constants.  An
    omitted table starts empty, base_functions with + - * of arity 2."""

    def __init__(self, base_functions=None, extension_functions=None, relations=None, parameters=None, constants=None):
        self.base_functions: Dict[str, int] = dict(ARITH_FUNCTIONS) if base_functions is None else base_functions
        self.extension_functions: Dict[str, Tuple[int, int]] = (
            {} if extension_functions is None else extension_functions
        )
        self.relations: Dict[str, int] = {} if relations is None else relations
        self.parameters: Set[str] = set() if parameters is None else parameters
        self.constants: Set[str] = set() if constants is None else constants

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

    def declare_constants_of(self, f: "Formula") -> None:
        """Declare each undeclared nullary symbol of f as a constant."""
        for s in formula_subterms(f):
            if isinstance(s, App) and not s.args and self.arity_of(s.fn) is None:
                self.declare_constant(s.fn)

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


def subformulas(f: Formula):
    """f and every formula below it, in pre-order."""
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.body)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            yield from subformulas(p)
    elif isinstance(f, Implies):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, Forall):
        yield from subformulas(f.body)


def formula_terms(f: Formula):
    """The atom sides of f in pre-order, lhs before rhs."""
    for g in subformulas(f):
        if isinstance(g, Atom):
            yield g.lhs
            yield g.rhs


def formula_subterms(f: Formula):
    for t in formula_terms(f):
        yield from subterms(t)


def formula_symbols(f: Formula) -> Set[str]:
    return {s.fn for s in formula_subterms(f) if isinstance(s, App)}


def map_terms(f: Formula, fn) -> Formula:
    """f with each atom side t replaced by fn(t)."""
    if isinstance(f, Atom):
        return Atom(f.rel, fn(f.lhs), fn(f.rhs))
    if isinstance(f, Not):
        return Not(map_terms(f.body, fn))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(map_terms(p, fn) for p in f.parts))
    if isinstance(f, Implies):
        return Implies(map_terms(f.left, fn), map_terms(f.right, fn))
    if isinstance(f, Forall):
        return Forall(f.variables, map_terms(f.body, fn))
    raise TypeError(f)


def free_variables(x: Union[Term, Formula]) -> Set[str]:
    """The variables of a term, or of a formula less its prefix's."""
    if isinstance(x, (Var, Num, App)):
        return {s.name for s in subterms(x) if type(s) is Var}
    names = {s.name for s in formula_subterms(x) if type(s) is Var}
    return names - set(x.variables) if isinstance(x, Forall) else names


def is_ground(x: Union[Term, Formula]) -> bool:
    """No free variable: a term's walk stops at its first Var, a
    formula's at its first atom side that is not ground."""
    if type(x) is App:
        return all(map(is_ground, x.args))
    if type(x) in (Var, Num):
        return type(x) is Num
    if type(x) is Forall:
        return not free_variables(x)
    return all(map(is_ground, formula_terms(x)))


# ---------------------------------------------------------------------------
# Substitution and renaming


def substitute(x, mapping: Dict[str, Term]):
    """Simultaneous substitution of variables by terms, in a term or in
    the atoms of a quantifier-free formula (such as a statement's body)."""

    def term(t: Term) -> Term:
        if type(t) is Var:
            return mapping.get(t.name, t)
        if type(t) is App:
            return App(t.fn, tuple(term(a) for a in t.args))
        return t

    return term(x) if isinstance(x, (Var, Num, App)) else map_terms(x, term)


def rename_symbols(x, renaming: SymbolRenaming):
    """Homomorphic renaming of function/constant symbols."""

    def term(t: Term) -> Term:
        if isinstance(t, App):
            return App(renaming.target(t.fn), tuple(term(a) for a in t.args))
        return t

    return term(x) if isinstance(x, (Var, Num, App)) else map_terms(x, term)


# ---------------------------------------------------------------------------
# Negation normal form, clauses, skolemization


def negate_atom(a: Atom) -> Atom:
    return Atom(NEGATED_REL[a.rel], a.lhs, a.rhs)


def nnf(f: Formula, positive: bool = True) -> Formula:
    """Negation normal form of a quantifier-free formula, or of its
    negation when positive is False."""
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


def check_term(sig: Signature, t: Term, scope: Collection[str] = ()) -> None:
    """Validate arities against the signature; an undeclared nullary
    symbol is registered as a constant on first use."""
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
        sig.declare_constant(t.fn)
        arity = 0
    if t.fn == "-" and len(t.args) == 1:
        pass  # unary minus shares the declared binary symbol
    elif len(t.args) != arity:
        raise SignatureError("arity mismatch for %s: expected %d, got %d" % (t.fn, arity, len(t.args)))
    for a in t.args:
        check_term(sig, a, scope)
