"""Concrete-syntax printer and canonical formula normalization.

Atoms are canonicalized into moved-to-left-hand-side form: all symbol
terms on the left (sorted by printed form, leading coefficient +1), a
numeral on the right.  The arithmetic is linear's: term_poly reads a
term as an integer polynomial over a positive denominator whose symbols
are the printed forms of its atomic summands; coefficients become
Fractions only in the printed atom.  Disjunction/conjunction members
are ordered with atoms that apply a proper function first, then
descending by printed form, which keeps printed results stable across
runs.
"""

from fractions import Fraction
from typing import Dict, List, Tuple, Union

from .linear import IntPoly, atom_of, monomial_term, term_to_poly
from .terms import (
    App,
    Atom,
    And,
    FALSE,
    Forall,
    Formula,
    Implies,
    Not,
    Num,
    Or,
    TRUE,
    Term,
    Var,
    formula_subterms,
    free_variables,
    nnf,
)

ARITH = {"+", "-", "*"}


def print_numeral(q: Fraction) -> str:
    return "_%s" % q


def _is_binary_arith(t: Term) -> bool:
    return isinstance(t, App) and t.fn in ARITH and len(t.args) == 2


def _wrap(t: Term) -> str:
    s = print_term(t)
    return "(%s)" % s if _is_binary_arith(t) else s


def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Num):
        return print_numeral(t.value)
    if t.fn in ARITH and len(t.args) == 2:
        return "%s %s %s" % (_wrap(t.args[0]), t.fn, _wrap(t.args[1]))
    if t.fn == "-" and len(t.args) == 1:
        return "-%s" % _wrap(t.args[0])
    if not t.args:
        return t.fn
    return "%s(%s)" % (t.fn, ", ".join(print_term(a) for a in t.args))


def print_formula(f: Formula) -> str:
    if isinstance(f, Atom):
        return "%s %s %s" % (print_term(f.lhs), f.rel, print_term(f.rhs))
    if isinstance(f, And):
        if not f.parts:
            return "true"
        if len(f.parts) == 1:
            return print_formula(f.parts[0])
        return "AND(%s)" % ", ".join(print_formula(p) for p in f.parts)
    if isinstance(f, Or):
        if not f.parts:
            return "false"
        if len(f.parts) == 1:
            return print_formula(f.parts[0])
        return "OR(%s)" % ", ".join(print_formula(p) for p in f.parts)
    if isinstance(f, Not):
        return "NOT(%s)" % print_formula(f.body)
    if isinstance(f, Implies):
        return "%s --> %s" % (print_formula(f.left), print_formula(f.right))
    if isinstance(f, Forall):
        return "(FORALL %s). %s" % (",".join(f.variables), print_formula(f.body))
    raise TypeError(f)


# ---------------------------------------------------------------------------
# Linear canonical form over symbolic terms


def term_poly(t: Term, leaves: Dict[str, Term]) -> Tuple[IntPoly, int]:
    """t as linear's (p, d): an integer polynomial p without zero
    coefficients and a positive int d, with t = p / d.  Each atomic
    summand (a variable, or an application of a non-arithmetic function
    such as a(i + _1)) becomes the symbol named by its printed form;
    leaves maps each name to its term."""
    return term_to_poly(_named_leaves(t, leaves))


def _named_leaves(t: Term, leaves: Dict[str, Term]) -> Term:
    if isinstance(t, Num):
        return t
    if isinstance(t, App) and t.fn in ARITH:
        return App(t.fn, tuple(_named_leaves(a, leaves) for a in t.args))
    name = print_term(t)
    leaves[name] = t
    return App(name, ())


_FLIP = {"<=": ">=", "<": ">", ">=": "<=", ">": "<", "=": "=", "!=": "!="}


def normalize_atom(a: Atom) -> Union[Atom, Formula]:
    """Moved-to-left-hand-side form with sorted terms and leading
    coefficient +1; constant atoms collapse to true/false."""
    leaves: Dict[str, Term] = {}
    combo, _ = term_poly(App("-", (a.lhs, a.rhs)), leaves)
    rel = a.rel
    if rel in (">=", ">"):  # as linear's atoms: p <= 0, p < 0, p = 0 or p != 0
        combo, rel = {m: -c for m, c in combo.items()}, _FLIP[rel]
    constant = combo.pop((), 0)
    if not combo:
        return TRUE if atom_of(rel, {(): constant}) else FALSE
    monos = sorted(combo, key=" * ".join)
    lead = combo[monos[0]]
    if lead < 0:
        rel = _FLIP[rel]
    lhs: Term = monomial_term([leaves[n] for n in monos[0]], 1)
    for m in monos[1:]:
        c = Fraction(combo[m], lead)
        lhs = App("-" if c < 0 else "+", (lhs, monomial_term([leaves[n] for n in m], abs(c))))
    return Atom(rel, lhs, Num(Fraction(-constant, lead)))


def _has_proper_app(f: Formula) -> bool:
    return any(isinstance(s, App) and s.args and s.fn not in ARITH for s in formula_subterms(f))


def _ordered(parts: List[Formula]) -> Tuple[Formula, ...]:
    by_text = sorted(parts, key=print_formula, reverse=True)
    return tuple(sorted(by_text, key=lambda p: 0 if _has_proper_app(p) else 1))


def canonical(f: Formula) -> Formula:
    """Canonical normal form used for printed results and for
    structural comparison of equivalent outputs."""
    if isinstance(f, Atom):
        return normalize_atom(f)
    if isinstance(f, (Not, Implies)):
        return canonical(nnf(f))
    if isinstance(f, (And, Or)):
        # TRUE is And's unit and Or's zero; FALSE the other way round
        unit, zero = (TRUE, FALSE) if isinstance(f, And) else (FALSE, TRUE)
        parts: List[Formula] = []
        for p in f.parts:
            q = canonical(p)
            if q == unit:
                continue
            if q == zero:
                return zero
            for s in q.parts if isinstance(q, type(f)) else (q,):
                if s not in parts:
                    parts.append(s)
        if not parts:
            return unit
        if len(parts) == 1:
            return parts[0]
        return type(f)(_ordered(parts))
    if isinstance(f, Forall):
        body = canonical(f.body)
        used = tuple(v for v in f.variables if v in free_variables(body))
        if not used:
            return body
        return Forall(used, body)
    raise TypeError(f)


def print_canonical(f: Formula) -> str:
    return print_formula(canonical(f))
