"""Exact linear arithmetic over the rationals.

Atoms are polynomials compared against zero.  A polynomial maps
monomials (sorted tuples of symbol names) to coefficients, so
"dmin * t <= x1p - x1" becomes a single atom whose t-coefficient is the
parameter dmin.  A term is read straight into an integer polynomial over
a positive denominator (term_to_poly), by the cross-multiplication of
the Fourier-Motzkin core (_cross): the printed canonical form and the
flow relaxation of hybrid automata read terms through it too
(printing.term_poly names each atomic summand by its printed form), and
write monomials back with monomial_term.  A literal becomes atoms in one
place (atom_to_lin, which makes the two strict halves of p != 0), which
to_linear and decide share.

An atom is stored as its integer row (LinAtom.terms): atom_of divides
an integer polynomial by the gcd of its coefficients (make_atom clears
a rational polynomial's denominators first), and an equation's leading
coefficient is made positive, so two atoms are equal exactly when their
polynomials are positive multiples of each other (any nonzero multiple,
for = and !=).  Every operation on atoms, in elimination,
simplification and satisfiability, is integer arithmetic on these rows.
The printed polynomial (LinAtom.poly, Fraction coefficients) is a view
made on demand for printing; the sort key of atoms (LinAtom.key), which
fixes the order of every output, compares the printed polynomials but
keeps their integral coefficients as ints.

Fourier-Motzkin has one core, which quantifier elimination (eliminate),
simplification (simplify) and the ground decision procedure (decide)
share.  A row is an atom's integer row with each monomial named
as one column (the constant as "").  Rows live in an insertion-ordered
table (_admit) keyed by an equation's entries or a bound's coefficients
over their gcd, so a duplicate equation or a slack bound merges, by one
lookup, into the slot it meets.  Every table, in every caller and from
a conjunct's first admission on, keeps this one merge rule.
Each table indexes its rows, in table order, under their columns
(ground) or eliminated symbols (eliminate); a step takes its rows from
the index (_take), never scanning the table.  One step (_fm_rows)
substitutes an equation whose coefficient is a constant, or combines
every lower with every upper bound; constant multipliers take an int
fast path, parametric ones cross-multiply polynomials over parameters.

The step drops redundant combinations by Chernikov's rule (S. N.
Chernikov, "The convolution of finite systems of linear inequalities",
1965; J.-L. Imbert's first acceleration theorem, "Fourier's elimination:
which to choose?", PPCP 1993).  Each row carries its history, the set of
input atoms it was derived from, and k counts the elimination steps
since the last fresh start; a lower x upper combination whose history
has more than k + 1 elements is implied by the rows kept, and is not
built.  Three rules keep it exact:
  - fresh start: a conjunct entering elimination, each sign case and the
    output of an exact prune start from singleton histories and k = 0;
  - pivots count: a pivot substitution is a step of k too, and a
    substituted row's history joins the pivot's;
  - merges intersect: the survivor of a merge in the table takes the
    intersection of both histories (a smaller history keeps more rows).
Imbert's per-row bound is not used: a parametric coefficient that
vanishes at some parameter points breaks its proof.

Quantifier elimination splits a conjunct into the three sign cases of
an eliminated symbol's coefficient when that is a parameter polynomial
of unknown sign, each tagged with its case literal; within a case every
coefficient has a fixed sign, so the rule holds at every parameter point
of the case.  A step splits each row that holds the eliminated symbol
into (rel, coefficient, rest) and decides each distinct coefficient's
sign once.  Ground elimination
takes the column with the fewest rows first.  The two loops of verdicts
on one context, simplify_conjunct's leave-one-out and a step's sign
cases, admit the context's rows into one table once; each check
(_sat_with), simplify_conjunct's first one too, eliminates on a copy of
it, with at most one slot left out or rebuilt and the probe's row under
a fresh history bit.  The engine makes no is_sat call (see is_sat).

The ground decision procedure (decide) is DPLL over clauses with
Fourier-Motzkin at the leaves, searching on the model of the unit atoms
(Nieuwenhuis, Oliveras & Tinelli, JACM 53(6), 2006; de Moura & Bjorner,
"Model-based theory combination", SMT 2007).  It translates each literal
once per call, on its first visit, and builds one record per distinct
set of unit atoms per call (_unit_record): the steps of their
elimination, in LinAtom.key order, and, when they are satisfiable, the
witness back-substituted from the steps (it does not depend on the
interpreter's hash seed), checked against every unit, beside the
integer-scaled model that the check read.  Propagation reads each clause
at the model from the atoms its literals hold, and examines only a
clause the model violates, which the units cannot entail: it drops the
literals the units refute and makes a sole remaining one a unit.  A unit
the model violates replaces the model by the new units' at once, a round
repeats while the units grow, and a clause the model satisfies waits for
a later model.  A node whose model satisfies every clause left returns
it; otherwise it branches on the shortest violated clause.  Every probe
is the units plus one atom: one whose atom has a column that no unit has
is satisfiable; otherwise the atom's row is carried through the recorded
steps (_probe_sat) by the same step, and the verdict is memoised in the
units' record.  decide checks the witness it returns against every
formula and assumption, reading the formulas as propagation reads
clauses (_true_at).
"""

from fractions import Fraction
from functools import partial
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .errors import CaseExplosionError, EngineError, NonLinearError, SortError
from .terms import And, Atom, App, Formula, Node, Num, Or, Term, Var, nnf

Monomial = Tuple[str, ...]
Poly = Dict[Monomial, Fraction]
PolyItems = Tuple[Tuple[Monomial, Fraction], ...]
IntPoly = Dict[Monomial, int]
Terms = Tuple[Tuple[Monomial, int], ...]

ZERO = Fraction(0)


class LinAtom(Node):
    """terms rel 0, with rel one of <=, <, = (and != transiently).

    terms is the atom's identity: a primitive integer polynomial (the
    gcd of its coefficients is 1, and the leading coefficient of an = or
    != atom is positive) as (monomial, int) items in monomial order.
    The printed polynomial is terms over the absolute value of the
    leading coefficient when no monomial is a product, else terms
    itself; key holds it with integral coefficients as ints, and poly
    with Fraction coefficients.  The hash is computed once; the sort
    key, poly and the integer row are filled in on first use (key,
    poly, _atom_row).  None of them takes part in equality or repr."""

    __slots__ = ("rel", "terms", "_hash", "_poly", "_row", "_order")

    def __init__(self, rel: str, terms: Terms):
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", hash((rel, terms)))
        object.__setattr__(self, "_poly", None)
        object.__setattr__(self, "_row", None)
        object.__setattr__(self, "_order", None)

    def __eq__(self, other):
        return type(other) is LinAtom and self.rel == other.rel and self.terms == other.terms

    def __hash__(self):
        return self._hash

    @property
    def poly(self) -> PolyItems:
        p = self._poly
        if p is None:
            p = tuple((m, Fraction(c)) for m, c in self.key()[0])
            object.__setattr__(self, "_poly", p)
        return p

    def poly_dict(self) -> Poly:
        return dict(self.poly)

    def symbols(self) -> Set[str]:
        out: Set[str] = set()
        for m, _ in self.terms:
            out.update(m)
        return out

    def key(self):
        """The sort key of atoms: the printed polynomial, whose integral
        coefficients stay ints (they compare faster than Fractions and in
        the same order), then rel.  Computed once per atom."""
        order = self._order
        if order is None:
            terms = self.terms
            d = abs(_lead(terms)) if all(len(m) <= 1 for m, _ in terms) else 1
            if d != 1:
                terms = tuple((m, c // d if c % d == 0 else Fraction(c, d)) for m, c in terms)
            order = terms, self.rel
            object.__setattr__(self, "_order", order)
        return order

    def negated(self) -> "LinAtom":
        if self.rel == "<=":
            return LinAtom("<", _neg_terms(self.terms))
        if self.rel == "<":
            return LinAtom("<=", _neg_terms(self.terms))
        if self.rel == "=":
            return LinAtom("!=", self.terms)
        return LinAtom("=", self.terms)


Conjunct = Tuple[LinAtom, ...]
DNF = List[Conjunct]


def _lead(terms: Sequence[Tuple[Monomial, int]]) -> int:
    """The coefficient of the first non-constant monomial."""
    return terms[1][1] if not terms[0][0] else terms[0][1]


def _neg_terms(terms: Terms) -> Terms:
    return tuple((m, -c) for m, c in terms)


def _term_key(item: Tuple[Monomial, object]):
    """Monomial order: by degree, then by symbols."""
    return (len(item[0]), item[0])


def make_atom(rel: str, p: Poly) -> Union[LinAtom, bool]:
    """Canonical atom of p rel 0; constant polynomials decide to True/False."""
    den = lcm(*(c.denominator for c in p.values()))
    return atom_of(rel, {m: c.numerator * (den // c.denominator) for m, c in p.items() if c})


def atom_of(rel: str, p: IntPoly) -> Union[LinAtom, bool]:
    """Canonical atom of p rel 0, for an integer polynomial without zero
    coefficients: p over the gcd of its coefficients, negated as well
    when it is an equation whose leading coefficient is negative.  A
    constant polynomial decides to True/False."""
    terms = sorted(p.items(), key=_term_key)
    if not terms or not terms[-1][0]:
        c = terms[0][1] if terms else 0
        return c <= 0 if rel == "<=" else c < 0 if rel == "<" else c == 0 if rel == "=" else c != 0
    g = gcd(*p.values())
    if rel in ("=", "!=") and _lead(terms) < 0:
        g = -g
    return LinAtom(rel, tuple(terms) if g == 1 else tuple((m, c // g) for m, c in terms))


def conjunct_of(atoms: Iterable[Union[LinAtom, bool]]) -> Optional[Conjunct]:
    """Normalize an atom list; None encodes a false conjunct."""
    seen = []
    for a in atoms:
        if a is True:
            continue
        if a is False:
            return None
        if a not in seen:
            seen.append(a)
    return tuple(sorted(seen, key=LinAtom.key))


# ---------------------------------------------------------------------------
# Terms to polynomials


def term_to_poly(t) -> Tuple[IntPoly, int]:
    """t as (p, d): an integer polynomial p without zero coefficients and
    a positive int d, with t = p / d.  A sum or difference brings both
    sides to the lcm of their denominators."""
    if isinstance(t, Num):
        q = t.value
        return ({(): q.numerator} if q else {}), q.denominator
    if isinstance(t, Var):
        raise SortError("term is not ground: variable %s" % t.name)
    if isinstance(t, App):
        if not t.args:
            return {(t.fn,): 1}, 1
        if t.fn == "-" and len(t.args) == 1:
            p, d = term_to_poly(t.args[0])
            return _neg(p), d
        if t.fn in ("+", "-", "*"):
            p, d = term_to_poly(t.args[0])
            q, e = term_to_poly(t.args[1])
            if t.fn == "*":
                return _cross(p, q, 0, {}), d * e
            m = lcm(d, e)
            return _cross(m // d, p, m // e if t.fn == "-" else -(m // e), q), m
        raise SortError("unpurified function application %s" % t.fn)
    raise TypeError(t)


def atom_to_lin(a: Atom) -> List[Union[LinAtom, bool]]:
    """Translate a relational atom; != yields the two strict halves."""
    p, _ = term_to_poly(App("-", (a.lhs, a.rhs)))
    if a.rel == "!=":
        return [atom_of("<", p), atom_of("<", _neg(p))]
    if a.rel in (">=", ">"):
        return [atom_of(a.rel.replace(">", "<"), _neg(p))]
    return [atom_of(a.rel, p)]


def _lit_branches(f: Atom) -> List[List[Union[LinAtom, bool]]]:
    """The conjuncts of a literal: one, or one per half of a !=."""
    if f.rel == "!=":
        return [[half] for half in atom_to_lin(f)]
    return [atom_to_lin(f)]


def to_linear(f: Formula, max_conjuncts: int = 100000) -> DNF:
    """NNF, then disjunctive normal form with normalized atoms."""
    dnf = _dnf(nnf(f), max_conjuncts)
    out: DNF = []
    for conj in dnf:
        c = conjunct_of(conj)
        if c is not None and c not in out:
            out.append(c)
    return out


def _dnf(f: Formula, cap: int) -> List[List[Union[LinAtom, bool]]]:
    """The conjuncts of nnf's output, atoms under And and Or."""
    if isinstance(f, Atom):
        return _lit_branches(f)
    if isinstance(f, Or):
        out: List[List[Union[LinAtom, bool]]] = []
        for p in f.parts:
            out.extend(_dnf(p, cap))
            if len(out) > cap:
                raise CaseExplosionError("DNF exceeds %d conjuncts" % cap)
        return out
    if isinstance(f, And):
        out = [[]]
        for p in f.parts:
            branches = _dnf(p, cap)
            if len(out) * len(branches) > cap:
                raise CaseExplosionError("DNF exceeds %d conjuncts" % cap)
            out = [c + b for c in out for b in branches]
        return out
    raise TypeError(f)


# ---------------------------------------------------------------------------
# The Fourier-Motzkin core: one row table and one elimination step

_PROD_SEP = "*"


def _mono_var(m: Monomial) -> str:
    """A monomial as one column name; the constant monomial is ""."""
    return _PROD_SEP.join(m)


# a row: column -> int coefficient, the constant under ""
RowPoly = Dict[str, int]
# row key (see _admit) -> (rel, row, history, divisor of the coefficients,
# index names, the atom the row was read from or None)
RowTable = Dict[object, tuple]
# index name -> the keys of the rows indexed under it, in table order
Index = Dict[object, List[object]]
# a row holding the variable of a step: (rel, the variable's coefficient,
# the row or its rest without the variable, history)
StepRow = Tuple[str, Union[int, IntPoly], dict, int]
# elimination steps, in order: (variable, pivot equation, (), ()) or
# (variable, None, lower bounds, upper bounds)
Steps = List[Tuple[str, Optional[StepRow], Sequence[StepRow], Sequence[StepRow]]]


def _admit(table: RowTable, index: Index, rel: str, p: RowPoly, h: int, names=None, atom=None) -> object:
    """Add the row p rel 0 with history h to the table, divided by the
    gcd of its entries, and index it under names (default: its
    columns), and return the key of the slot it took.  A constant row
    is decided instead: True or False.  p is not mutated.

    An equation is keyed by its entries, a bound by its coefficients
    over their gcd.  A row whose key is taken merges into that slot: a
    bound replaces a slacker one and is dropped otherwise, a duplicate
    equation is dropped, and the survivor's history is the intersection
    of both."""
    const = p.get("", 0)
    coeffs = p
    if const:
        coeffs = p.copy()
        del coeffs[""]
    if not coeffs:
        return const <= 0 if rel == "<=" else const < 0 if rel == "<" else const == 0
    g = gcd(*coeffs.values())
    e = gcd(g, const) if const else g
    if e != 1:
        p = {u: c // e for u, c in p.items()}
        const //= e
    if rel == "=":
        key = ("=", frozenset(p.items()))
    else:
        key = frozenset(coeffs.items() if g == 1 else ((u, c // g) for u, c in coeffs.items()))
    # the divisor of the kept row's coefficients in its key
    g //= e
    seen = table.get(key)
    if seen is None:
        if names is None:
            names = coeffs
        table[key] = (rel, p, h, g, names, atom)
        for u in names:
            if u in index:
                index[u].append(key)
            else:
                index[u] = [key]
        return key
    orel, op, oh, og, names, oatom = seen
    if rel != "=":
        # same direction: compare const/g against the kept bound's
        lhs, rhs = const * og, op.get("", 0) * g
        if lhs > rhs or (lhs == rhs and rel == "<" and orel == "<="):
            table[key] = (rel, p, oh & h, g, names, atom)
            return key
    table[key] = (orel, op, oh & h, og, names, oatom)
    return key


def _take(table: RowTable, index: Index, v) -> List[StepRow]:
    """Remove the rows indexed under v from the table and the index, and
    return them in table order as (rel, coefficient of v, row, history)."""
    rows = []
    for key in index.pop(v):
        rel, p, h, _, names, _ = table.pop(key)
        for u in names:
            if u != v:
                keys = index[u]
                keys.remove(key)
                if not keys:
                    del index[u]
        rows.append((rel, p.get(v), p, h))
    return rows


def _clear_slot(table: RowTable, index: Index, key, entry: Optional[tuple]) -> None:
    """Put entry in the key's slot, which must be indexed under the same
    names; with no entry, remove the slot from the table and the index."""
    if entry is not None:
        table[key] = entry
        return
    for u in table.pop(key)[4]:
        keys = index[u]
        keys.remove(key)
        if not keys:
            del index[u]


def _neg(p):
    return -p if type(p) is int else {m: -c for m, c in p.items()}


def _cross(f, p: dict, g, q: dict) -> dict:
    """f * p - g * q without zero entries.  The multipliers f and g are
    ints, or integer polynomials (over the parameters, or a term
    reader's factor; then p and q are integer polynomials too)."""
    if type(f) is int and type(g) is int:
        out = p.copy() if f == 1 else {m: f * c for m, c in p.items()}
        for m, c in q.items():
            out[m] = out.get(m, 0) - g * c
    else:
        out = {}
        for sign, mult, poly in ((1, f, p), (-1, g, q)):
            for fm, fc in ({(): mult} if type(mult) is int else mult).items():
                for pm, pc in poly.items():
                    m = tuple(sorted(fm + pm)) if fm and pm else fm or pm
                    out[m] = out.get(m, 0) + sign * fc * pc
    return {m: c for m, c in out.items() if c}


def _fm_rows(pivot: Optional[StepRow], lowers: Sequence[StepRow], uppers: Sequence[StepRow], steps: int, admit) -> bool:
    """Make the rows of one elimination step, the steps-th since the last
    fresh start, and pass each to admit(rel, row, history); False as
    soon as admit returns False for one.  With a pivot (an equation whose
    coefficient c is an int) the variable is substituted into each row
    of lowers: coeff * x + rest becomes |c| * rest - sgn(c) * coeff *
    rest_pivot, and its history joins the pivot's.  Otherwise each lower
    bound (negative coefficient) is combined with each upper bound so
    that the variable cancels; a combination joins the histories of its
    bounds and is not built when that has more than steps + 1 elements.
    A row may come whole (ground rows do): its terms in the variable
    cancel too."""
    if pivot is not None:
        _, c, pp, hp = pivot
        for rel, coeff, q, h in lowers:
            if not admit(rel, _cross(abs(c), q, coeff if c > 0 else _neg(coeff), pp), h | hp):
                return False
        return True
    for lrel, lc, lp, lh in lowers:
        for urel, uc, up, uh in uppers:
            h = lh | uh
            if h.bit_count() > steps + 1:
                continue  # Chernikov: implied by the rows kept
            # lc*x + lp rel 0 (lc < 0), uc*x + up rel 0 (uc > 0)
            if not admit("<" if "<" in (lrel, urel) else "<=", _cross(uc, lp, lc, up), h):
                return False
    return True


# ---------------------------------------------------------------------------
# Ground satisfiability by Fourier-Motzkin with witness back-substitution


def _atom_row(a: LinAtom) -> Tuple[str, RowPoly]:
    """The atom as (rel, row): its terms with each monomial named as one
    column.  Computed once per atom; callers must not mutate it."""
    row = a._row
    if row is None:
        if a.rel == "!=":
            raise SortError("a != atom has no row")
        row = a.rel, {_mono_var(m): c for m, c in a.terms}
        object.__setattr__(a, "_row", row)
    return row


# atom set -> its is_sat verdict
_SAT_CACHE: Dict[frozenset, bool] = {}
_SAT_CACHE_LIMIT = 200000


def is_sat(atoms: Sequence[LinAtom]) -> bool:
    """Decide a conjunction, eliminating in the given order of the
    atoms.  Builds no witness.

    Product monomials are treated as fresh symbols, which is exact for
    linear input (the documented contract) and refutation-sound
    otherwise.

    The engine does not call it.  It stays, with _SAT_CACHE, because
    the benchmark's tracer and its expected-data script name both
    (tests/test_bench_names.py); deleting them is left to the next
    change to the benchmark.
    """
    key = frozenset(atoms)
    cached = _SAT_CACHE.get(key)
    if cached is not None:
        return cached
    sat = _fm_steps(atoms) is not None
    if len(_SAT_CACHE) < _SAT_CACHE_LIMIT:
        _SAT_CACHE[key] = sat
    return sat


def _witness(steps: Steps, atoms: Iterable[LinAtom]) -> Tuple[Dict[str, Fraction], "ScaledModel"]:
    """The witness of the elimination steps and its scaled model, checked
    against every atom; a violated atom raises EngineError."""
    witness = _back_substitute(steps)
    model = _scaled(witness)
    for a in atoms:
        if not _holds(model, a):
            from .printing import print_formula

            raise EngineError("ground witness violates %s" % print_formula(lin_to_atom(a)))
    return witness, model


# the row table and index of a context's atoms, and the slot key each took
Context = Tuple[RowTable, Index, List[object]]


def _table_of(atoms: Iterable[LinAtom]) -> Context:
    """A new row table of the atoms, each its own history: atom i enters
    with history 1 << i, so 1 << len(keys) is a history bit that no row
    has.  An atom's row is never constant, so each takes a slot."""
    table: RowTable = {}
    index: Index = {}
    keys = [_admit(table, index, *_atom_row(a), 1 << i) for i, a in enumerate(atoms)]
    return table, index, keys


def _fm_steps(atoms: Iterable[LinAtom]) -> Optional[Steps]:
    """Fourier-Motzkin on the atoms' rows, each atom its own history: the
    elimination steps, which _back_substitute turns into a witness and
    _probe_sat replays, or None when the atoms are unsatisfiable."""
    table, index, _ = _table_of(atoms)
    return _eliminate_rows(table, index, 0)


def _sat_with(context: Context, rel=None, p: Optional[RowPoly] = None, slot=None, entry=None) -> bool:
    """Whether the context's rows and the row p rel 0, if any, hold
    together, with the context's slot left out or given entry
    (_clear_slot).  One check of many on one context: it eliminates on a
    copy of the table and its index, which it admits the row to under a
    history bit that no row of the context has."""
    table, index, keys = context
    table = table.copy()
    index = {u: slots[:] for u, slots in index.items()}
    if slot is not None:
        _clear_slot(table, index, slot, entry)
    if p is not None:
        _admit(table, index, rel, p, 1 << len(keys))
    return _eliminate_rows(table, index, 0) is not None


def _eliminate_rows(table: RowTable, index: Index, done: int) -> Optional[Steps]:
    """Eliminate every column of the table, after done steps.  Each step
    eliminates the column with the fewest occurrences (ties: the index's
    order at the start, for a new table the order of first appearance),
    by substituting the first equation that has it, else
    by combining every lower with every upper bound, and records the
    pivot or the bounds.  The rows without the column keep their slots
    in the table and the produced rows are admitted after them, in
    order."""
    first = list(index)
    steps: Steps = []
    admit = partial(_admit, table, index)
    while index:
        least = min(map(len, index.values()))
        for v in first:
            if len(index.get(v, ())) == least:
                break
        rows = _take(table, index, v)
        done += 1
        pivot = next((r for r in rows if r[0] == "="), None)
        if pivot is not None:
            steps.append((v, pivot, (), ()))
            ok = _fm_rows(pivot, [r for r in rows if r is not pivot], (), done, admit)
        else:
            lowers = [r for r in rows if r[1] < 0]
            uppers = [r for r in rows if r[1] > 0]
            steps.append((v, None, lowers, uppers))
            ok = _fm_rows(None, lowers, uppers, done, admit)
        if not ok:
            return None
    return steps


def _probe_sat(steps: Steps, atom: LinAtom) -> bool:
    """Whether the units and the atom hold together, given the
    elimination steps of the satisfiable units.  The atom's rows (an
    equation enters as two bounds) go through the recorded steps, with an empty history and k
    the number of steps (a smaller history or a larger k only skips
    fewer combinations): a pivot is substituted into them, and at a
    bound step each of them that holds the variable is combined with
    the recorded opposite bounds and with the opposite bounds among
    them.  The rows left hold only columns that no step eliminated, and
    are eliminated as usual."""
    rel, p = _atom_row(atom)
    table: RowTable = {}
    index: Index = {}
    if rel == "=":
        _admit(table, index, "<=", p, 0)
        _admit(table, index, "<=", _neg(p), 0)
    else:
        _admit(table, index, rel, p, 0)
    admit = partial(_admit, table, index)
    k = len(steps)
    for v, pivot, lowers, uppers in steps:
        if v not in index:
            continue
        rows = _take(table, index, v)
        if pivot is not None:
            ok = _fm_rows(pivot, rows, (), k, admit)
        else:
            mine_lowers = [r for r in rows if r[1] < 0]
            mine_uppers = [r for r in rows if r[1] > 0]
            ok = _fm_rows(None, mine_lowers, list(uppers) + mine_uppers, k, admit)
            ok = ok and _fm_rows(None, lowers, mine_uppers, k, admit)
        if not ok:
            return False
    return not index or _eliminate_rows(table, index, k) is not None


Rational = Union[int, Fraction]


def _quotient(n: Rational, d: int) -> Rational:
    """n / d exactly, as an int while it is integral."""
    if type(n) is int:
        return n // d if n % d == 0 else Fraction(n, d)
    return n / d


def _back_substitute(steps: Steps) -> Dict[str, Fraction]:
    """Rational witness from the elimination steps, latest first: a
    pivot's value solves its equation, a bounded variable takes the
    midpoint of its tightest bounds, or one past the only side."""
    witness: Dict[str, Rational] = {}

    def bound_of(v: str, row: StepRow) -> Rational:
        """The value of v that makes the row an equation."""
        _, c, p, _ = row
        total = 0
        for u, q in p.items():
            if not u:
                total += q
            elif u != v:
                w = witness.get(u)
                if w is None:
                    # variables that vanished by cancellation stay unconstrained
                    witness[u] = 0
                elif w:
                    total += w * q
        return _quotient(-total, c)

    for v, pivot, lowers, uppers in reversed(steps):
        if pivot is not None:
            witness[v] = bound_of(v, pivot)
            continue
        lo = max((bound_of(v, row) for row in lowers), default=None)
        hi = min((bound_of(v, row) for row in uppers), default=None)
        if lo is None:
            witness[v] = 0 if hi is None else hi - 1
        elif hi is None:
            witness[v] = lo + 1
        else:
            witness[v] = _quotient(lo + hi, 2)
    return {v: Fraction(w) for v, w in witness.items()}


# ---------------------------------------------------------------------------
# Simplification


def _complexity(a: LinAtom):
    return (len(a.terms), a.key())


def simplify_conjunct(conj: Conjunct, assumptions: Sequence[LinAtom]) -> Optional[Conjunct]:
    """Drop atoms entailed by the rest; None when unsatisfiable with the
    assumptions.  One row table holds the assumptions' rows, then the
    atoms', each entry recording its atom (an assumption's none); its
    merge rule drops slack bounds first.  The first check decides a copy
    of the table; then a single sequential pass over the atoms that kept
    a slot yields an irredundant set.

    The pass decides each entailment (the atom's negation, or either
    strict half of an equation's, refuted by the rest) on the table.
    The atom's slot is left out of the check, and an entailed atom
    leaves the table; a slot that an assumption's row took too gets back
    that row, the assumptions' merge of it, and is never simply dropped."""
    context = table, index, keys = _table_of(assumptions)
    own = table.copy()
    n = len(keys)
    keys += [_admit(table, index, *_atom_row(a), 1 << (n + i), None, a) for i, a in enumerate(conj)]
    if not _sat_with(context):
        return None
    slots = {entry[5]: key for key, entry in table.items() if entry[5] is not None}
    atoms = list(slots)
    for a in sorted(atoms, key=_complexity, reverse=True):
        slot = slots[a]
        entry = own.get(slot)
        rel, p = _atom_row(a)
        negated = [("<", p), ("<", _neg(p))] if rel == "=" else [("<" if rel == "<=" else "<=", _neg(p))]
        if not any(_sat_with(context, *row, slot, entry) for row in negated):
            atoms.remove(a)
            _clear_slot(table, index, slot, entry)
    return conjunct_of(atoms)


def simplify(dnf: DNF, assumptions: Sequence[LinAtom] = ()) -> DNF:
    """Equivalent DNF under the assumptions: prunes entailed atoms,
    contradictory conjuncts and subsumed conjuncts."""
    slim: DNF = []
    for conj in dnf:
        s = simplify_conjunct(conj, assumptions)
        if s is not None and s not in slim:
            slim.append(s)
    out: DNF = []
    for conj in slim:
        atoms = set(conj)
        if any(other != conj and set(other) <= atoms for other in slim):
            continue
        out.append(conj)
    return out


# ---------------------------------------------------------------------------
# Quantifier elimination


# a conjunct that elimination grows past this many atoms gets an exact prune
PRUNE_THRESHOLD = 24


def _sign_cases(coeff: IntPoly) -> Tuple[LinAtom, LinAtom, LinAtom]:
    """coeff > 0, coeff < 0 and coeff = 0, for a coefficient that is not
    constant."""
    return atom_of("<", _neg(coeff)), atom_of("<", coeff), atom_of("=", coeff)


def _sign(coeff: Union[int, IntPoly], context: Optional[Context]) -> str:
    """Sign of a coefficient entailed by the context: "+", "-", "0", "?"
    (unknown) or "dead" (context unsatisfiable).  A constant coefficient
    needs no context."""
    if type(coeff) is int:
        return "+" if coeff > 0 else "-"
    possible = [_sat_with(context, *_atom_row(a)) for a in _sign_cases(coeff)]
    if not any(possible):
        return "dead"
    return "+-0"[possible.index(True)] if sum(possible) == 1 else "?"


def _parametric_rows(rows: List[Tuple[str, Union[int, IntPoly], IntPoly, int, str]], steps: int, admit) -> bool:
    """Eliminate x from its rows (rel, coefficient, rest, history, sign
    of the coefficient) by _fm_rows, passing what it makes to admit;
    False as soon as admit does.  With a pivot (the first equation whose
    coefficient is an int) every other row is substituted.  Otherwise a
    row whose coefficient is zero loses its x part, and an equation
    enters as two bounds (the negated one with the flipped sign)."""
    pivot = next((r for r in rows if r[0] == "=" and type(r[1]) is int), None)
    if pivot is not None:
        return _fm_rows(pivot[:4], [r[:4] for r in rows if r is not pivot], (), steps, admit)
    lowers: List[StepRow] = []
    uppers: List[StepRow] = []
    for rel, coeff, rest, h, sign in rows:
        if sign == "0":
            if not admit(rel, rest, h):
                return False
            continue
        upper, lower = (uppers, lowers) if sign == "+" else (lowers, uppers)
        upper.append((rel if rel != "=" else "<=", coeff, rest, h))
        if rel == "=":
            lower.append(("<=", _neg(coeff), _neg(rest), h))
    return _fm_rows(None, lowers, uppers, steps, admit)


class _Eliminator:
    def __init__(self, symbols: Sequence[str], assumptions: Sequence[LinAtom], max_cases: int):
        self.symbols = list(symbols)
        self.eliminated = set(symbols)
        self.assumptions = list(assumptions)
        self.max_cases = max_cases

    def run(self, dnf: DNF) -> DNF:
        work = [list(c) for c in dnf]
        done: DNF = []
        while work:
            if len(work) + len(done) > self.max_cases:
                raise CaseExplosionError("case splitting exceeded %d conjuncts" % self.max_cases)
            atoms = work.pop()
            kind, payload = self._step(atoms)
            if kind == "drop":
                continue
            if kind == "split":
                work.extend(payload)
                continue
            c = conjunct_of(payload)
            if c is not None and c not in done:
                done.append(c)
        done.sort(key=lambda c: tuple(a.key() for a in c))
        return done

    def _admit(self, table: RowTable, index: Index, a: Union[LinAtom, bool], h: int) -> bool:
        """Admit the atom's row, indexed under its eliminated symbols or
        None (the sign checks' context); a decided atom is its value."""
        if isinstance(a, bool):
            return a
        return _admit(table, index, *_atom_row(a), h, a.symbols() & self.eliminated or (None,), a)

    def _step(self, atoms: List[LinAtom]):
        """Eliminate symbols from one conjunct.  Returns ("done", atoms),
        ("split", conjuncts) after a sign case split, or ("drop", None).

        Each elimination is one pass over the rows holding the symbol x,
        in table order: it splits each into x's coefficient and the rest,
        and decides each distinct coefficient's sign once, stopping at
        the first that the context leaves open or refutes.  A history is
        a bit set of the atoms of the last fresh start (here, and after
        an exact prune); steps counts the eliminations since then."""
        while True:
            table: RowTable = {}
            index: Index = {}
            for i, a in enumerate(atoms):
                self._admit(table, index, a, 1 << i)
            steps = 0
            while True:
                live = sorted((s for s in index if s is not None), key=lambda s: (len(index[s]), self.symbols.index(s)))
                if not live:
                    return "done", [entry[5] for entry in table.values()]
                x, splits = self._pick_pivot_symbol(table, index, live)
                ctx: Optional[Context] = None
                rows = []
                signs: Dict[object, str] = {}
                for key in index[x]:
                    rel, _, h, _, _, a = table[key]
                    coeff, rest = splits[key] if key in splits else self._split(a, x)
                    ckey = coeff if type(coeff) is int else frozenset(coeff.items())
                    sign = signs.get(ckey)
                    if sign is None:
                        if ctx is None and type(coeff) is not int:
                            # the assumptions and the rows without an eliminated symbol
                            ctx = _table_of(self.assumptions + [table[k][5] for k in index.get(None, ())])
                        sign = signs[ckey] = _sign(coeff, ctx)
                    if sign == "dead":
                        return "drop", None
                    if sign == "?":
                        return "split", self._sign_split([entry[5] for entry in table.values()], a, coeff, rest)
                    rows.append((rel, coeff, rest, h, sign))
                _take(table, index, x)
                steps += 1
                if not _parametric_rows(rows, steps, lambda rel, p, h: self._admit(table, index, atom_of(rel, p), h)):
                    return "drop", None
                if len(table) > PRUNE_THRESHOLD:
                    pruned = simplify_conjunct(tuple(entry[5] for entry in table.values()), self.assumptions)
                    if pruned is None:
                        return "drop", None
                    atoms = list(pruned)
                    break

    def _pick_pivot_symbol(self, table: RowTable, index: Index, live: List[str]) -> Tuple[str, Dict[object, tuple]]:
        """Prefer a symbol with a constant equation pivot (substitution
        does not grow the conjunct), otherwise fewest occurrences.  Also
        returns the splits of the symbol's equations that the scan made,
        by row key."""
        for s in live:
            splits = {}
            for key in index[s]:
                if table[key][0] == "=":
                    coeff, _ = splits[key] = self._split(table[key][5], s)
                    if type(coeff) is int:
                        return s, splits
        return live[0], {}

    def _split(self, a: LinAtom, x: str) -> Tuple[Union[int, IntPoly], IntPoly]:
        """The atom's terms as coefficient * x + rest; a constant
        coefficient is an int."""
        coeff: IntPoly = {}
        rest: IntPoly = {}
        for m, c in a.terms:
            if x not in m:
                rest[m] = c
                continue
            if m.count(x) > 1:
                raise NonLinearError("symbol %s occurs with degree >= 2" % x)
            factors = list(m)
            factors.remove(x)
            if any(s in self.eliminated for s in factors):
                raise NonLinearError("eliminated symbols multiplied together: %s" % _PROD_SEP.join(m))
            coeff[tuple(factors)] = c
        return (coeff[()] if list(coeff) == [()] else coeff), rest

    def _sign_split(self, atoms: List[LinAtom], a: LinAtom, coeff: IntPoly, rest: IntPoly) -> List[List[LinAtom]]:
        """The three cases of the sign of a's coefficient: the conjunct
        with coeff > 0, with coeff < 0, and with coeff = 0, where every
        atom equal to a is replaced by its rest (a false rest drops the
        case)."""
        pos, neg, zero = _sign_cases(coeff)
        cases = [atoms + [pos], atoms + [neg]]
        without_x = atom_of(a.rel, rest)
        if without_x is True:
            cases.append([b for b in atoms if b != a] + [zero])
        elif without_x is not False:
            cases.append([without_x if b == a else b for b in atoms] + [zero])
        return cases


def eliminate(
    symbols: Sequence[str],
    dnf: DNF,
    assumptions: Sequence[LinAtom] = (),
    max_cases: int = 10000,
) -> DNF:
    """Quantifier-free DNF equivalent to EXISTS symbols . dnf, under the
    assumptions."""
    return _Eliminator(symbols, assumptions, max_cases).run(dnf)


# ---------------------------------------------------------------------------
# Ground decision procedure for clause-structured formulas


def decide(formulas: List[Formula], assumptions: Sequence[LinAtom] = ()) -> Optional[Dict[str, Fraction]]:
    """A witness of a list of ground quantifier-free formulas in
    conjunction, or None when it is unsatisfiable: DPLL on the model of
    the unit atoms, splitting on disjunctions, with FM leaves.  The
    witness is the first node model that satisfies every clause, the
    canonical model of that node's units, checked here against every
    formula and assumption."""
    pending = [nnf(f) for f in formulas]
    memo: LiteralMemo = {}
    witness = _decide(frozenset(assumptions), pending, [], memo, {})
    if witness is not None:
        # _decide checked the witness against its leaf's unit atoms only
        model = _scaled(witness)
        wrong = [f for f in pending if not _true_at(model, [[f, None]], memo)]
        wrong += [lin_to_atom(a) for a in assumptions if not _holds(model, a)]
        if wrong:
            from .printing import print_formula

            raise EngineError("ground witness violates %s" % print_formula(wrong[0]))
    return witness


# literal -> its atoms, whose disjunction it is (two for a !=)
LiteralMemo = Dict[Atom, tuple]


def _translated(lit: Atom, memo: LiteralMemo) -> tuple:
    """Read once per decide call."""
    entry = memo.get(lit)
    if entry is None:
        entry = memo[lit] = tuple(a for (a,) in _lit_branches(lit))
    return entry


# a model scaled to integers: {column: d * value}, zeros left out, and d
# under the constant's column ""
ScaledModel = Dict[str, int]


def _scaled(model: Dict[str, Fraction]) -> ScaledModel:
    d = lcm(*(w.denominator for w in model.values()))
    return {"": d, **{v: w.numerator * (d // w.denominator) for v, w in model.items() if w}}


def _holds(model: ScaledModel, a: LinAtom) -> bool:
    """The atom holds at the scaled model, read as its row reads it:
    a product monomial is its own column, a missing symbol is 0."""
    rel, p = _atom_row(a)
    total = 0
    for v, c in p.items():
        w = model.get(v)
        if w:
            total += c * w
    return total <= 0 if rel == "<=" else total < 0 if rel == "<" else total == 0


def _some_holds(model: ScaledModel, atoms: tuple) -> bool:
    """A literal's atoms (True, False or linear) hold at the model in
    disjunction."""
    for a in atoms:
        if a is True or a is not False and _holds(model, a):
            return True
    return False


# unit set -> (its elimination steps (None: unsatisfiable), its witness
# and the witness scaled (_witness; None when unsatisfiable), {probe atom:
# whether it holds with the units}, the columns of the units' rows and the
# constant's column "")
UnitRecords = Dict[frozenset, tuple]


def _unit_record(units: frozenset, records: UnitRecords) -> tuple:
    """The units' record, built once per decide call: their elimination,
    in LinAtom.key order, and the witness of its steps, checked against
    every unit."""
    record = records.get(units)
    if record is None:
        ordered = sorted(units, key=LinAtom.key)
        steps = _fm_steps(ordered)
        checked = None if steps is None else _witness(steps, ordered)
        record = records[units] = (steps, checked, {}, {""}.union(*(_atom_row(a)[1] for a in units)))
    return record


def _refuted(units: frozenset, a: LinAtom, records: UnitRecords) -> bool:
    """The units and a do not hold together: answered without
    elimination when a has a column that no unit has, else by replaying
    a through the units' elimination steps."""
    steps, _, verdicts, columns = _unit_record(units, records)
    if steps is None:
        return True
    rel, p = _atom_row(a)
    # Take any model of the units: a column that no unit holds can take
    # the value that makes a's =, < or <= row hold, and every unit still
    # holds.  A product monomial is its own column here as in a row and
    # the replay.  columns also holds the constant's column "", as a
    # constant cannot be chosen.
    if not columns.issuperset(p):
        return False
    sat = verdicts.get(a)
    if sat is None:
        sat = verdicts[a] = _probe_sat(steps, a)
    return not sat


def _clause(f: Formula) -> tuple:
    """A clause in propagation: (f, its literals as [literal, entry]),
    where an entry, None until the literal is first read, holds an
    atom's atoms (_translated) or a conjunction's or disjunction's parts
    as literals."""
    return f, [[lit, None] for lit in (f.parts if isinstance(f, Or) else (f,))]


def _true_at(model: ScaledModel, lits: list, memo: LiteralMemo, every: bool = False) -> bool:
    """Some literal of lits (every one, with every) holds at the scaled
    model, read from their entries."""
    for item in lits:
        lit, entry = item
        if entry is None:
            if isinstance(lit, Atom):
                entry = _translated(lit, memo)
            elif isinstance(lit, (And, Or)):
                entry = [[part, None] for part in lit.parts]
            else:
                raise SortError("decide expects ground clause structure, found %s" % type(lit).__name__)
            item[1] = entry
        if isinstance(lit, Atom):
            holds = _some_holds(model, entry)
        else:
            holds = _true_at(model, entry, memo, isinstance(lit, And))
        if holds is not every:
            return holds
    return every


def _decide(
    units: frozenset, pending: List[Formula], clauses: List[tuple], memo: LiteralMemo, records: UnitRecords
) -> Optional[Dict[str, Fraction]]:
    """A witness of units, pending and clauses (entered at a node above), or None."""
    new_units: List[LinAtom] = []
    stack = list(pending)
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack.extend(f.parts)
        elif isinstance(f, Atom) and f.rel != "!=":
            for a in _translated(f, memo):
                if a is False:
                    return None
                if a is not True:
                    new_units.append(a)
        elif isinstance(f, Or) and not f.parts:
            return None
        elif isinstance(f, (Atom, Or)):  # a != literal or a disjunction
            clauses.append(_clause(f))
        else:
            raise SortError("decide expects ground clause structure, found %s" % type(f).__name__)
    units = units.union(new_units)
    # unit propagation on the clauses that the model of the units
    # violates: a clause the units entail holds at every model of them,
    # so a violated clause is never entailed; a round repeats while the
    # units grow, and a clause the model satisfies waits for a later model
    deferred: List[Formula] = []  # conjunctions left alone in a clause: each must hold whole
    new = True
    while new:
        checked = _unit_record(units, records)[1]
        if checked is None:
            return None
        witness, model = checked
        new = False
        remaining: List[tuple] = []
        violated: List[tuple] = []
        for clause in clauses:
            f, lits = clause
            if _true_at(model, lits, memo):
                remaining.append(clause)
                continue
            viable = [
                item
                for item in lits
                if not isinstance(item[0], Atom) or not all(a is False or _refuted(units, a, records) for a in item[1])
            ]
            if not viable:
                return None
            lit, entry = viable[0]
            if len(viable) == 1 and isinstance(lit, Atom) and lit.rel != "!=":
                (a,) = entry  # neither False (it is viable) nor True (it would hold)
                units = units.union((a,))
                new = True
                if not _holds(model, a):
                    checked = _unit_record(units, records)[1]
                    if checked is None:
                        return None
                    witness, model = checked
                continue
            if len(viable) == len(lits):
                kept = clause
            elif len(viable) > 1:
                kept = Or(tuple(lit for lit, _ in viable)), viable
            elif isinstance(lit, Or):
                kept = lit, entry
            elif isinstance(lit, Atom):  # a != literal
                kept = lit, viable
            else:
                deferred.append(lit)
                continue
            remaining.append(kept)
            violated.append(kept)
        clauses = remaining
    if deferred:  # not a branch: the conjunctions' parts enter as pending
        return _decide(units, deferred, clauses, memo, records)
    if not violated:
        return dict(witness)
    chosen = min(violated, key=lambda c: len(c[0].parts) if isinstance(c[0], Or) else 2)
    first = chosen[0]
    rest = [c for c in reversed(clauses) if c is not chosen]  # a child visits the other clauses last first
    if isinstance(first, Atom):  # a != literal: branch on < and >
        branches: List[Formula] = [Atom("<", first.lhs, first.rhs), Atom(">", first.lhs, first.rhs)]
    else:
        branches = list(first.parts)
    for b in branches:
        w = _decide(units, [b], rest[:], memo, records)
        if w is not None:
            return w
    return None


# ---------------------------------------------------------------------------
# Conversions back to term formulas


def monomial_term(factors: Sequence[Term], coeff: Fraction) -> Term:
    """coeff * f1 * f2 ..., nested to the left; a coefficient 1 is left
    out unless there is no factor."""
    if coeff != 1 or not factors:
        factors = [Num(coeff)] + list(factors)
    expr = factors[0]
    for f in factors[1:]:
        expr = App("*", (expr, f))
    return expr


def lin_to_atom(a: LinAtom) -> Atom:
    """The atom as terms: its monomials, which a.poly holds in monomial
    order, summed to the left against the negated constant."""
    p = a.poly_dict()
    const = p.pop((), ZERO)
    summands = [monomial_term([App(s, ()) for s in m], c) for m, c in p.items()]
    expr = summands[0]
    for t in summands[1:]:
        expr = App("+", (expr, t))
    return Atom(a.rel, expr, Num(-const))


def assumptions_from(formulas) -> List[LinAtom]:
    """The linear atoms of a conjunction of assumed atoms.  A != atom is
    rejected: it is a disjunction, and its two strict halves together
    are unsatisfiable."""
    out: List[LinAtom] = []
    for f in formulas or ():
        if isinstance(f, Atom):
            if f.rel == "!=":
                from .printing import print_formula

                raise SortError("assumption %s is a disjunction; assume one side of it" % print_formula(f))
            for a in atom_to_lin(f):
                if a is False:
                    raise SortError("assumption is trivially false")
                if a is not True and a not in out:
                    out.append(a)
        else:
            raise SortError("assumptions must be a conjunction of atoms")
    return out
