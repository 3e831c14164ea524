"""Exact linear arithmetic over the rationals.

Atoms are polynomials compared against zero.  A polynomial maps
monomials (sorted tuples of symbol names) to rational coefficients, so
"dmin * t <= x1p - x1" becomes a single atom whose t-coefficient is the
parameter dmin.  Quantifier elimination is Fourier-Motzkin: equations
with rational pivots are eliminated by substitution, inequalities by
combining lower and upper bounds; when the coefficient of an eliminated
symbol is a parameter polynomial of unknown sign the conjunct splits
into the three sign cases, each tagged with its case literal.

Ground satisfiability (is_sat) runs the same elimination on integer
rows: each atom is cleared of denominators once, every row is kept
divided by the gcd of its entries, and only the witness built at the
end is rational.  The atoms are ordered by LinAtom.key first, so the
witness does not depend on the interpreter's hash seed.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .errors import CaseExplosionError, GridError, NonLinearError, SortError
from .terms import And, Atom, App, Exists, Forall, Formula, Implies, Not, Num, Or, Var, nnf

Monomial = Tuple[str, ...]
Poly = Dict[Monomial, Fraction]
PolyItems = Tuple[Tuple[Monomial, Fraction], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, ZERO) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def poly_scale(a: Poly, q: Fraction) -> Poly:
    if not q:
        return {}
    return {m: c * q for m, c in a.items()}


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, poly_scale(b, Fraction(-1)))


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(sorted(m1 + m2))
            s = out.get(m, ZERO) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def poly_const(q) -> Poly:
    q = Fraction(q)
    return {(): q} if q else {}


def poly_var(name: str) -> Poly:
    return {(name,): ONE}


def _mono_key(m: Monomial):
    return (len(m), m)


@dataclass(frozen=True)
class LinAtom:
    """poly rel 0, with rel one of <=, <, = (and != transiently)."""

    rel: str
    poly: PolyItems

    def poly_dict(self) -> Poly:
        return dict(self.poly)

    def symbols(self) -> Set[str]:
        out: Set[str] = set()
        for m, _ in self.poly:
            out.update(m)
        return out

    def key(self):
        return (self.poly, self.rel)

    def negated(self) -> "LinAtom":
        p = self.poly_dict()
        if self.rel == "<=":
            return LinAtom("<", _canonical_items(poly_scale(p, Fraction(-1))))
        if self.rel == "<":
            return LinAtom("<=", _canonical_items(poly_scale(p, Fraction(-1))))
        if self.rel == "=":
            return LinAtom("!=", self.poly)
        return LinAtom("=", self.poly)


Conjunct = Tuple[LinAtom, ...]
DNF = List[Conjunct]


def _canonical_items(p: Poly) -> PolyItems:
    return tuple(sorted(p.items(), key=lambda kv: _mono_key(kv[0])))


def make_atom(rel: str, p: Poly) -> Union[LinAtom, bool]:
    """Canonical atom; constant polynomials decide to True/False."""
    p = {m: c for m, c in p.items() if c}
    nonconst = sorted((m for m in p if m), key=_mono_key)
    if not nonconst:
        c = p.get((), ZERO)
        if rel == "<=":
            return c <= 0
        if rel == "<":
            return c < 0
        if rel == "=":
            return c == 0
        return c != 0
    if all(len(m) <= 1 for m in p):
        scale = abs(p[nonconst[0]])
    else:
        nums = [abs(c.numerator) for c in p.values()]
        dens = [c.denominator for c in p.values()]
        g = 0
        for x in nums:
            g = gcd(g, x)
        l = 1
        for x in dens:
            l = l * x // gcd(l, x)
        scale = Fraction(g, l)
    if rel in ("=", "!=") and p[nonconst[0]] < 0:
        scale = -scale
    p = {m: c / scale for m, c in p.items()}
    return LinAtom(rel, _canonical_items(p))


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
    return tuple(sorted(seen, key=lambda a: a.key()))


# ---------------------------------------------------------------------------
# Terms to polynomials


def term_to_poly(t) -> Poly:
    if isinstance(t, Num):
        return poly_const(t.value)
    if isinstance(t, Var):
        raise SortError("term is not ground: variable %s" % t.name)
    if isinstance(t, App):
        if not t.args:
            return poly_var(t.fn)
        if t.fn == "+":
            return poly_add(term_to_poly(t.args[0]), term_to_poly(t.args[1]))
        if t.fn == "-" and len(t.args) == 1:
            return poly_scale(term_to_poly(t.args[0]), Fraction(-1))
        if t.fn == "-":
            return poly_sub(term_to_poly(t.args[0]), term_to_poly(t.args[1]))
        if t.fn == "*":
            return poly_mul(term_to_poly(t.args[0]), term_to_poly(t.args[1]))
        raise SortError("unpurified function application %s" % t.fn)
    raise TypeError(t)


def atom_to_lin(a: Atom) -> List[Union[LinAtom, bool]]:
    """Translate a relational atom; != yields the two strict halves."""
    p = poly_sub(term_to_poly(a.lhs), term_to_poly(a.rhs))
    if a.rel == "<=":
        return [make_atom("<=", p)]
    if a.rel == "<":
        return [make_atom("<", p)]
    if a.rel == ">=":
        return [make_atom("<=", poly_scale(p, Fraction(-1)))]
    if a.rel == ">":
        return [make_atom("<", poly_scale(p, Fraction(-1)))]
    if a.rel == "=":
        return [make_atom("=", p)]
    lt = make_atom("<", p)
    gt = make_atom("<", poly_scale(p, Fraction(-1)))
    return [lt, gt]


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
    if isinstance(f, Atom):
        if f.rel == "!=":
            halves = atom_to_lin(f)
            return [[halves[0]], [halves[1]]]
        return [atom_to_lin(f)]
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
    if isinstance(f, (Not, Implies, Forall, Exists)):
        raise SortError("formula is not ground quantifier-free NNF: %s" % type(f).__name__)
    raise TypeError(f)


# ---------------------------------------------------------------------------
# Ground satisfiability by Fourier-Motzkin with witness back-substitution

_PROD_SEP = "*"


def _mono_var(m: Monomial) -> str:
    return _PROD_SEP.join(m)


Row = Tuple[str, Dict[str, int], int]


def _atom_row(a: LinAtom) -> Row:
    """The atom as an integer row: coefficients and constant times the
    least common denominator."""
    if a.rel == "!=":
        raise SortError("is_sat expects atoms without !=")
    den = lcm(*(c.denominator for _, c in a.poly))
    coeffs: Dict[str, int] = {}
    const = 0
    for m, c in a.poly:
        q = c.numerator if den == 1 else c.numerator * (den // c.denominator)
        if m:
            v = _mono_var(m)
            coeffs[v] = coeffs.get(v, 0) + q
        else:
            const += q
    return a.rel, coeffs, const


def _prune_rows(rows: Iterable[Row]) -> Optional[List[Row]]:
    """Divide rows by the gcd of their entries, drop duplicate equations
    and slack bounds sharing a coefficient direction, and decide
    constant rows early (None when a constant row is false).  Kept rows
    stay in input order; a tighter bound takes the slot of the one it
    replaces."""
    out: List[Row] = []
    equations: Set[tuple] = set()
    # coefficient direction -> (slot in out, gcd of the slot's coefficients)
    bounds: Dict[frozenset, Tuple[int, int]] = {}
    for row in rows:
        rel, coeffs, const = row
        if not coeffs:
            ok = const <= 0 if rel == "<=" else const < 0 if rel == "<" else const == 0
            if not ok:
                return None
            continue
        g = gcd(*coeffs.values())
        h = gcd(g, const)
        if h != 1:
            coeffs = {v: c // h for v, c in coeffs.items()}
            const //= h
            g //= h
            row = (rel, coeffs, const)
        if rel == "=":
            key = (frozenset(coeffs.items()), const)
            if key not in equations:
                equations.add(key)
                out.append(row)
            continue
        direction = frozenset(coeffs.items() if g == 1 else ((v, c // g) for v, c in coeffs.items()))
        seen = bounds.get(direction)
        if seen is None:
            bounds[direction] = (len(out), g)
            out.append(row)
            continue
        # same direction: compare const/g against oconst/og
        slot, og = seen
        orel, _, oconst = out[slot]
        lhs, rhs = const * og, oconst * g
        if lhs > rhs or (lhs == rhs and rel == "<" and orel == "<="):
            out[slot] = row
            bounds[direction] = (slot, g)
    return out


_SAT_CACHE: Dict[frozenset, Optional[Dict[str, Fraction]]] = {}
_SAT_CACHE_LIMIT = 200000


def _atom_order(a: LinAtom):
    """Sorts atoms as LinAtom.key does; integral coefficients become
    ints, which compare faster than Fractions and in the same order."""
    return tuple((m, c.numerator if c.denominator == 1 else c) for m, c in a.poly), a.rel


def is_sat(atoms: Iterable[LinAtom]) -> Optional[Dict[str, Fraction]]:
    """Decide a conjunction; returns a rational witness or None.

    Product monomials are treated as fresh symbols, which is exact for
    linear input (the documented contract) and refutation-sound
    otherwise.  The atoms are eliminated in LinAtom.key order, so the
    witness does not depend on the order they are given in.
    """
    key = frozenset(atoms)
    if key in _SAT_CACHE:
        cached = _SAT_CACHE[key]
        return dict(cached) if cached is not None else None
    result = _is_sat_uncached(sorted(key, key=_atom_order))
    if len(_SAT_CACHE) < _SAT_CACHE_LIMIT:
        _SAT_CACHE[key] = result
    return dict(result) if result is not None else None


def _is_sat_uncached(atoms: Iterable[LinAtom]) -> Optional[Dict[str, Fraction]]:
    """Fourier-Motzkin on primitive integer rows.  Each step eliminates
    the variable with the fewest occurrences (ties: first appearance),
    by substituting the first equation that has it, else by combining
    every lower with every upper bound."""
    rows = _prune_rows([_atom_row(a) for a in atoms])
    if rows is None:
        return None
    first: Dict[str, int] = {}
    for _, coeffs, _ in rows:
        for v in coeffs:
            if v not in first:
                first[v] = len(first)
    steps: List[tuple] = []
    while rows:
        counts = Counter(chain.from_iterable(coeffs for _, coeffs, _ in rows))
        v = min(counts, key=lambda u: (counts[u], first[u]))
        with_v: List[Row] = []
        new_rows: List[Row] = []
        for row in rows:
            (with_v if v in row[1] else new_rows).append(row)
        pivot = next((r for r in with_v if r[0] == "="), None)
        if pivot is not None:
            # v = -(pconst + sum pco[u] u) / pc; rows are scaled by |pc|
            _, pco, pconst = pivot
            pc = pco[v]
            scale = abs(pc)
            for row in with_v:
                if row is pivot:
                    continue
                rel, coeffs, const = row
                f = coeffs[v] if pc > 0 else -coeffs[v]
                merged = {u: scale * q for u, q in coeffs.items() if u != v}
                for u, q in pco.items():
                    if u != v:
                        merged[u] = merged.get(u, 0) - f * q
                merged = {u: q for u, q in merged.items() if q}
                new_rows.append((rel, merged, scale * const - f * pconst))
            steps.append((v, pivot, (), ()))
        else:
            lowers: List[Row] = []
            uppers: List[Row] = []
            for row in with_v:
                (uppers if row[1][v] > 0 else lowers).append(row)
            steps.append((v, None, lowers, uppers))
            for lrel, lco, lconst in lowers:
                lc = lco[v]
                for urel, uco, uconst in uppers:
                    uc = uco[v]
                    merged = {}
                    for u, q in lco.items():
                        if u != v:
                            merged[u] = merged.get(u, 0) + uc * q
                    for u, q in uco.items():
                        if u != v:
                            merged[u] = merged.get(u, 0) - lc * q
                    merged = {u: q for u, q in merged.items() if q}
                    rel = "<" if "<" in (lrel, urel) else "<="
                    new_rows.append((rel, merged, uc * lconst - lc * uconst))
        rows = _prune_rows(new_rows)
        if rows is None:
            return None
    return _back_substitute(steps)


Rational = Union[int, Fraction]


def _quotient(n: Rational, d: int) -> Rational:
    """n / d exactly, as an int while it is integral."""
    if type(n) is int:
        return n // d if n % d == 0 else Fraction(n, d)
    return n / d


def _back_substitute(steps: List[tuple]) -> Dict[str, Fraction]:
    """Rational witness from the elimination steps, latest first: a
    pivot's value solves its equation, a bounded variable takes the
    midpoint of its tightest bounds, or one past the only side."""
    witness: Dict[str, Rational] = {}

    def bound_of(v: str, row: Row) -> Rational:
        """The value of v that makes the row an equation."""
        _, coeffs, total = row
        for u, q in coeffs.items():
            if u == v:
                continue
            w = witness.get(u)
            if w is None:
                # variables that vanished by cancellation stay unconstrained
                witness[u] = 0
            elif w:
                total += w * q
        return _quotient(-total, coeffs[v])

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
# Entailment, simplification


def entails(context: Sequence[LinAtom], atom: LinAtom) -> bool:
    """context |= atom over ordered fields (refutation of the negation)."""
    if atom.rel == "=":
        p = atom.poly_dict()
        lt = make_atom("<", p)
        gt = make_atom("<", poly_scale(p, Fraction(-1)))
        for side in (lt, gt):
            if side is True:
                return False
            if side is False:
                continue
            if is_sat(list(context) + [side]) is not None:
                return False
        return True
    neg = atom.negated()
    return is_sat(list(context) + [neg]) is None


def _complexity(a: LinAtom):
    return (len(a.poly), a.poly, a.rel)


def simplify_conjunct(conj: Conjunct, assumptions: Sequence[LinAtom]) -> Optional[Conjunct]:
    """Drop atoms entailed by the rest; None when unsatisfiable with the
    assumptions.  A single sequential pass yields an irredundant set."""
    atoms = _bound_prune(list(conj))
    if is_sat(atoms + list(assumptions)) is None:
        return None
    for a in sorted(atoms, key=_complexity, reverse=True):
        rest = [b for b in atoms if b is not a] + list(assumptions)
        if entails(rest, a):
            atoms.remove(a)
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


def _bound_prune(atoms: List[LinAtom]) -> List[LinAtom]:
    """Keep only the tightest bound among atoms sharing a non-constant
    part (cheap dominance check applied between elimination rounds)."""
    best: Dict[tuple, LinAtom] = {}
    rest: List[LinAtom] = []
    order: List[tuple] = []
    for a in atoms:
        if a.rel == "=":
            rest.append(a)
            continue
        nc = tuple((m, c) for m, c in a.poly if m)
        const = next((c for m, c in a.poly if not m), ZERO)
        cur = best.get(nc)
        if cur is None:
            best[nc] = a
            order.append(nc)
            continue
        cur_const = next((c for m, c in cur.poly if not m), ZERO)
        if const > cur_const or (const == cur_const and a.rel == "<"):
            best[nc] = a
    return [best[nc] for nc in order] + rest


# ---------------------------------------------------------------------------
# Quantifier elimination


class _Eliminator:
    def __init__(
        self,
        symbols: Sequence[str],
        assumptions: Sequence[LinAtom],
        max_cases: int,
        prune_threshold: int = 24,
    ):
        self.symbols = list(symbols)
        self.assumptions = list(assumptions)
        self.max_cases = max_cases
        self.prune_threshold = prune_threshold
        self._sign_cache: Dict[tuple, str] = {}

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

    def _live_symbols(self, atoms: List[LinAtom]) -> List[str]:
        used: Set[str] = set()
        for a in atoms:
            used |= a.symbols()
        return [s for s in self.symbols if s in used]

    def _step(self, atoms: List[LinAtom]):
        """Eliminate symbols from one conjunct.  Returns ("done", atoms),
        ("split", conjuncts) after a sign case split, or ("drop", None)."""
        while True:
            live = self._live_symbols(atoms)
            if not live:
                return "done", atoms
            live.sort(key=lambda s: (sum(1 for a in atoms if s in a.symbols()), self.symbols.index(s)))
            x = self._pick_pivot_symbol(atoms, live)
            split = self._check_coefficients(atoms, x)
            if split == "dead":
                return "drop", None
            if split is not None:
                return "split", split
            atoms = self._eliminate_one(atoms, x)
            if atoms is None:
                return "drop", None
            atoms = _bound_prune(atoms)
            if len(atoms) > self.prune_threshold:
                pruned = simplify_conjunct(tuple(atoms), self.assumptions)
                if pruned is None:
                    return "drop", None
                atoms = list(pruned)

    def _pick_pivot_symbol(self, atoms: List[LinAtom], live: List[str]) -> str:
        """Prefer a symbol with a rational equation pivot (substitution
        does not grow the conjunct), otherwise fewest occurrences."""
        for s in live:
            for a in atoms:
                if a.rel == "=" and s in a.symbols():
                    coeff = self._coeff(a, s)
                    if list(coeff) == [()]:
                        return s
        return live[0]

    def _coeff(self, a: LinAtom, x: str) -> Poly:
        out: Poly = {}
        for m, c in a.poly:
            if x not in m:
                continue
            if m.count(x) > 1:
                raise NonLinearError("symbol %s occurs with degree >= 2" % x)
            rest = list(m)
            rest.remove(x)
            if any(s in self.symbols for s in rest):
                raise NonLinearError("eliminated symbols multiplied together: %s" % _PROD_SEP.join(m))
            out[tuple(rest)] = c
        return out

    def _context(self, atoms: List[LinAtom]) -> List[LinAtom]:
        ctx = list(self.assumptions)
        for a in atoms:
            if not (a.symbols() & set(self.symbols)):
                ctx.append(a)
        return ctx

    def _sign(self, coeff: Poly, ctx: List[LinAtom]) -> str:
        """Sign of a coefficient polynomial entailed by the context:
        "+", "-", "0", "?" (unknown) or "dead" (context unsatisfiable)."""
        if list(coeff) == [()]:
            return "+" if coeff[()] > 0 else "-"
        key = (_canonical_items(coeff), tuple(a.key() for a in ctx))
        cached = self._sign_cache.get(key)
        if cached is not None:
            return cached
        pos_possible = _maybe_sat(ctx, make_atom("<", poly_scale(coeff, Fraction(-1))))
        neg_possible = _maybe_sat(ctx, make_atom("<", dict(coeff)))
        zero_possible = _maybe_sat(ctx, make_atom("=", dict(coeff)))
        sign = "?"
        if not (pos_possible or neg_possible or zero_possible):
            sign = "dead"
        elif pos_possible and not neg_possible and not zero_possible:
            sign = "+"
        elif neg_possible and not pos_possible and not zero_possible:
            sign = "-"
        elif zero_possible and not pos_possible and not neg_possible:
            sign = "0"
        self._sign_cache[key] = sign
        return sign

    def _check_coefficients(self, atoms: List[LinAtom], x: str):
        """Split the conjunct three ways on the first coefficient of x
        whose sign is not entailed; None when all signs are known."""
        ctx = self._context(atoms)
        for a in atoms:
            if x not in a.symbols():
                continue
            coeff = self._coeff(a, x)
            sign = self._sign(coeff, ctx)
            if sign == "dead":
                return "dead"
            if sign != "?":
                continue
            pos = make_atom("<", poly_scale(coeff, Fraction(-1)))
            neg = make_atom("<", dict(coeff))
            zero = make_atom("=", dict(coeff))
            zero_atoms = [self._drop_x_part(b, x) if b == a else b for b in atoms]
            cases = []
            for extra, base in ((pos, atoms), (neg, atoms), (zero, zero_atoms)):
                if extra is False:
                    continue
                case = [b for b in base if b is not True]
                if extra is not True:
                    case = case + [extra]
                cases.append(case)
            return cases
        return None

    def _drop_x_part(self, a: LinAtom, x: str) -> Union[LinAtom, bool]:
        p = {m: c for m, c in a.poly if x not in m}
        return make_atom(a.rel, p)

    def _eliminate_one(self, atoms: List[LinAtom], x: str) -> Optional[List[LinAtom]]:
        ctx = self._context(atoms)
        with_x = [a for a in atoms if x in a.symbols()]
        others = [a for a in atoms if x not in a.symbols()]
        pivot = None
        for a in with_x:
            if a.rel == "=":
                c = self._coeff(a, x)
                if list(c) == [()]:
                    pivot = (a, c[()])
                    break
        if pivot is not None:
            a, c = pivot
            rest = {m: q for m, q in a.poly if x not in m}
            expr = poly_scale(rest, Fraction(-1) / c)  # x = expr
            out = list(others)
            for b in with_x:
                if b is a:
                    continue
                coeff_b = self._coeff(b, x)
                p = {m: q for m, q in b.poly if x not in m}
                p = poly_add(p, poly_mul(coeff_b, expr))
                na = make_atom(b.rel, p)
                if na is False:
                    return None
                if na is not True:
                    out.append(na)
            return out
        lowers = []
        uppers = []
        for a in with_x:
            coeff = self._coeff(a, x)
            sign = self._sign(coeff, ctx)
            rest = {m: q for m, q in a.poly if x not in m}
            if sign == "0":
                na = make_atom(a.rel, rest)
                if na is False:
                    return None
                if na is not True:
                    others.append(na)
                continue
            rows = [(a.rel, coeff, rest)]
            if a.rel == "=":
                rows = [
                    ("<=", coeff, rest),
                    ("<=", poly_scale(coeff, Fraction(-1)), poly_scale(rest, Fraction(-1))),
                ]
            for rel, c, p in rows:
                s = self._sign(c, ctx)
                if s not in ("+", "-"):
                    raise NonLinearError("coefficient sign of %s became undetermined" % x)
                if s == "+":
                    uppers.append((rel, c, p))
                else:
                    lowers.append((rel, c, p))
        out = list(others)
        for lrel, lc, lp in lowers:
            for urel, uc, up in uppers:
                # lc*x + lp <= 0 (lc<0), uc*x + up <= 0 (uc>0)
                p = poly_sub(poly_mul(uc, lp), poly_mul(lc, up))
                rel = "<" if "<" in (lrel, urel) else "<="
                na = make_atom(rel, p)
                if na is False:
                    return None
                if na is not True:
                    out.append(na)
        return out


def _maybe_sat(ctx: List[LinAtom], atom: Union[LinAtom, bool]) -> bool:
    if atom is True:
        return is_sat(ctx) is not None
    if atom is False:
        return False
    return is_sat(ctx + [atom]) is not None


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


def decide(formulas, assumptions: Sequence[LinAtom] = ()) -> Optional[Dict[str, Fraction]]:
    """Satisfiability of a conjunction of ground quantifier-free
    formulas; DPLL-style splitting on disjunctions with FM leaves."""
    if not isinstance(formulas, (list, tuple)):
        formulas = [formulas]
    pending = [nnf(f) for f in formulas]
    return _decide(list(assumptions), pending)


def _lit_branches(f: Atom) -> List[List[Union[LinAtom, bool]]]:
    if f.rel == "!=":
        halves = atom_to_lin(f)
        return [[halves[0]], [halves[1]]]
    return [atom_to_lin(f)]


def _decide(units: List[LinAtom], pending: List[Formula]) -> Optional[Dict[str, Fraction]]:
    complexes: List[Formula] = []
    stack = list(pending)
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack.extend(f.parts)
        elif isinstance(f, Atom):
            if f.rel == "!=":
                complexes.append(f)
                continue
            for a in atom_to_lin(f):
                if a is False:
                    return None
                if a is not True:
                    units.append(a)
        elif isinstance(f, Or):
            if not f.parts:
                return None
            complexes.append(f)
        else:
            raise SortError("decide expects ground clause structure, found %s" % type(f).__name__)
    if is_sat(units) is None:
        return None
    # unit propagation: drop satisfied clauses, prune impossible literals
    changed = True
    while changed and complexes:
        changed = False
        remaining: List[Formula] = []
        for f in complexes:
            lits = list(f.parts) if isinstance(f, Or) else [f]
            viable: List[Formula] = []
            satisfied = False
            for lit in lits:
                if isinstance(lit, Atom):
                    branches = _lit_branches(lit)
                    if all(
                        any(a is False for a in b)
                        or is_sat(units + [a for a in b if a is not True]) is None
                        for b in branches
                    ):
                        continue  # literal cannot hold
                    negated = [x for b in _lit_branches(negate_lit(lit)) for x in b]
                    if all(a is not True for a in negated) and all(
                        is_sat(units + [a]) is None for a in negated if a is not False
                    ):
                        satisfied = True
                        break
                viable.append(lit)
            if satisfied:
                changed = True
                continue
            if not viable:
                return None
            if len(viable) == 1 and isinstance(viable[0], Atom) and viable[0].rel != "!=":
                for a in atom_to_lin(viable[0]):
                    if a is False:
                        return None
                    if a is not True:
                        units.append(a)
                changed = True
                continue
            if len(viable) < len(lits):
                changed = True
                remaining.append(Or(tuple(viable)) if len(viable) > 1 else viable[0])
            else:
                remaining.append(f)
        complexes = remaining
        if changed and is_sat(units) is None:
            return None
    if not complexes:
        return is_sat(units)
    complexes.sort(key=lambda f: len(f.parts) if isinstance(f, Or) else 2)
    first = complexes[0]
    rest = complexes[1:]
    if isinstance(first, Atom):  # a != literal: branch on < and >
        branches: List[Formula] = [Atom("<", first.lhs, first.rhs), Atom(">", first.lhs, first.rhs)]
    else:
        branches = list(first.parts)
    for b in branches:
        w = _decide(list(units), [b] + rest)
        if w is not None:
            return w
    return None


def negate_lit(a: Atom) -> Atom:
    from .terms import negate_atom

    return negate_atom(a)


# ---------------------------------------------------------------------------
# Grid equivalence oracle


def evaluate_term(t, point: Dict[str, Fraction]) -> Fraction:
    if isinstance(t, Num):
        return t.value
    if isinstance(t, App):
        if not t.args:
            if t.fn not in point:
                raise GridError("no value for symbol %s" % t.fn)
            return point[t.fn]
        if t.fn == "+":
            return evaluate_term(t.args[0], point) + evaluate_term(t.args[1], point)
        if t.fn == "-" and len(t.args) == 1:
            return -evaluate_term(t.args[0], point)
        if t.fn == "-":
            return evaluate_term(t.args[0], point) - evaluate_term(t.args[1], point)
        if t.fn == "*":
            return evaluate_term(t.args[0], point) * evaluate_term(t.args[1], point)
        raise GridError("cannot evaluate application of %s" % t.fn)
    raise GridError("cannot evaluate %r" % (t,))


_REL_TESTS = {
    "=": lambda d: d == 0,
    "!=": lambda d: d != 0,
    "<=": lambda d: d <= 0,
    "<": lambda d: d < 0,
    ">=": lambda d: d >= 0,
    ">": lambda d: d > 0,
}


def evaluate(f: Formula, point: Dict[str, Fraction]) -> bool:
    if isinstance(f, Atom):
        return _REL_TESTS[f.rel](evaluate_term(f.lhs, point) - evaluate_term(f.rhs, point))
    if isinstance(f, And):
        return all(evaluate(p, point) for p in f.parts)
    if isinstance(f, Or):
        return any(evaluate(p, point) for p in f.parts)
    if isinstance(f, Not):
        return not evaluate(f.body, point)
    if isinstance(f, Implies):
        return not evaluate(f.left, point) or evaluate(f.right, point)
    raise GridError("formula is not quantifier-free")


DEFAULT_GRID = (
    Fraction(-2),
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
)

_FALLBACK_GRIDS = (
    DEFAULT_GRID,
    (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(2)),
    (Fraction(-1), Fraction(0), Fraction(1)),
)


def _grid_points(symbols: Sequence[str], values: Sequence[Fraction], cap: int):
    total = len(values) ** len(symbols) if symbols else 1
    if total > cap:
        raise GridError("grid has %d points, cap is %d" % (total, cap))
    points = [{}]
    for s in symbols:
        points = [dict(p, **{s: v}) for p in points for v in values]
    return points


def _witness_points(formulas, symbols: Sequence[str], cap: int) -> List[Dict[str, Fraction]]:
    """Boundary and feasibility points: witnesses of single atoms, their
    equality boundaries, and of atom pairs."""
    from .terms import formula_atoms

    lin: List[LinAtom] = []
    for f in formulas:
        for a in formula_atoms(f):
            for la in atom_to_lin(a):
                if isinstance(la, LinAtom) and la not in lin:
                    lin.append(la)
    candidates: List[List[LinAtom]] = []
    for a in lin:
        candidates.append([a])
        eq = make_atom("=", a.poly_dict())
        if isinstance(eq, LinAtom):
            candidates.append([eq])
    for i in range(len(lin)):
        for j in range(i + 1, len(lin)):
            candidates.append([lin[i], lin[j]])
            if len(candidates) > 4 * cap:
                break
    out: List[Dict[str, Fraction]] = []
    for atoms in candidates:
        if len(out) >= cap:
            break
        try:
            w = is_sat(atoms)
        except SortError:
            continue
        if w is None:
            continue
        point = {s: w.get(s, ZERO) for s in symbols}
        if point not in out:
            out.append(point)
    return out


def equiv_on_grid(
    f: Formula,
    g: Formula,
    symbols: Sequence[str],
    grid: Optional[Sequence[Fraction]] = None,
    assumptions: Optional[Formula] = None,
    cap: int = 100000,
) -> bool:
    """True iff f and g agree at every grid point (satisfying the
    assumptions, when given)."""
    if grid is not None:
        points = _grid_points(symbols, list(grid), cap)
    else:
        for values in _FALLBACK_GRIDS:
            if len(values) ** len(symbols) <= cap:
                points = _grid_points(symbols, values, cap)
                break
        else:
            raise GridError("no default grid fits %d symbols under cap %d" % (len(symbols), cap))
        points.extend(_witness_points([f, g], symbols, cap=2000))
    for p in points:
        if assumptions is not None and not evaluate(assumptions, p):
            continue
        if evaluate(f, p) != evaluate(g, p):
            return False
    return True


# ---------------------------------------------------------------------------
# Conversions back to term formulas


def poly_term(p: Poly):
    """Rebuild a term from a polynomial (canonical monomial order)."""
    from .terms import num

    items = sorted(((m, c) for m, c in p.items() if m), key=lambda kv: _mono_key(kv[0]))
    const = p.get((), ZERO)
    if not items:
        return num(const)
    expr = None
    for m, c in items:
        factors = [App(s, ()) for s in m]
        if c != 1 or not factors:
            factors = [Num(c)] + factors
        t = factors[0]
        for fac in factors[1:]:
            t = App("*", (t, fac))
        expr = t if expr is None else App("+", (expr, t))
    if const:
        expr = App("+", (expr, Num(const)))
    return expr


def lin_to_atom(a: LinAtom) -> Atom:
    p = a.poly_dict()
    const = p.pop((), ZERO)
    return Atom(a.rel, poly_term(p), Num(-const))


def conjunct_formula(c: Conjunct) -> Formula:
    from .terms import conj as conj_f

    if not c:
        return And(())
    return conj_f([lin_to_atom(a) for a in c])


def dnf_formula(d: DNF) -> Formula:
    from .terms import disj

    if not d:
        return Or(())
    return disj([conjunct_formula(c) for c in d])


def assumptions_from(formulas) -> List[LinAtom]:
    out: List[LinAtom] = []
    for f in formulas or ():
        if isinstance(f, Atom):
            for a in atom_to_lin(f):
                if a is False:
                    raise SortError("assumption is trivially false")
                if a is not True and a not in out:
                    out.append(a)
        else:
            raise SortError("assumptions must be a conjunction of atoms")
    return out
