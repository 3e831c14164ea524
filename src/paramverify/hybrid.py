"""Linear hybrid automata: verification conditions for invariant
checking, and chatter-freedom conditions.

The automaton is parsing.HybridAutomaton, whose flows and predicates
parse_lha has already checked.  Flows are convex conjunctions of
non-strict constraints over the dotted variables only, written d(x) in
the input syntax.  The flow relaxation turns each rate constraint
sum c_i * d(x_i) REL c into the endpoint constraint
sum c_i * (x_i' - x_i) REL c * (t' - t), which is exact for this class
of automata; a derivative scaled by a symbol has no such endpoint form
and is a SortError here, as are a vcs entry that selects nothing and a
selected edge with no inner envelope: input errors all three.
"""

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import SortError
from .parsing import DURATION, HybridAutomaton, Mode, primed
from .printing import term_poly
from .terms import (
    App,
    Atom,
    Formula,
    Num,
    Record,
    Term,
    check_term,
    fresh_name,
    negate_universal,
    rename_symbols,
)


# ---------------------------------------------------------------------------
# Flow relaxation


def _flow_combination(atom: Atom) -> Tuple[Dict[str, Fraction], Dict[Tuple[str, ...], Fraction]]:
    """Split lhs - rhs into derivative coefficients and the rest."""
    leaves: Dict[str, Term] = {}
    combo, den = term_poly(App("-", (atom.lhs, atom.rhs)), leaves)
    derivatives: Dict[str, Fraction] = {}
    rest: Dict[Tuple[str, ...], Fraction] = {}
    for mono, c in combo.items():
        coeff = Fraction(c, den)
        d_factors = [t for t in map(leaves.get, mono) if isinstance(t, App) and t.fn == "d"]
        if not d_factors:
            rest[mono] = coeff
            continue
        if len(mono) > 1:
            raise SortError("derivative term scaled by a symbol in %s" % " * ".join(mono))
        x = d_factors[0].args[0].fn
        derivatives[x] = derivatives.get(x, Fraction(0)) + coeff
    return derivatives, rest


def _signed_sum(parts: List[Tuple[Fraction, Term]]) -> Term:
    """Fold (coefficient, term) summands into +/- chains."""
    if not parts:
        return Num(Fraction(0))
    coeff, base = parts[0]
    expr = _scaled(coeff, base)
    for coeff, base in parts[1:]:
        if coeff < 0:
            expr = App("-", (expr, _scaled(-coeff, base)))
        else:
            expr = App("+", (expr, _scaled(coeff, base)))
    return expr


def _scaled(coeff: Fraction, base: Term) -> Term:
    if coeff == 1:
        return base
    if coeff == -1:
        return App("-", (base,))
    return App("*", (Num(coeff), base))


def flow_relax(
    mode: Mode,
    t0: Term,
    t: Term,
    pre: Optional[Dict[str, Term]] = None,
    post: Optional[Dict[str, Term]] = None,
) -> List[Formula]:
    """Endpoint relaxation of the mode's flow over the interval [t0, t];
    by default the endpoints are the plain and the primed variables."""
    out: List[Formula] = []
    elapsed: Term = t if t0 == Num(Fraction(0)) else App("-", (t, t0))
    for f in mode.flow:
        derivatives, rest = _flow_combination(f)
        parts: List[Tuple[Fraction, Term]] = []
        for x in sorted(derivatives):
            pre_t = pre[x] if pre else App(x, ())
            post_t = post[x] if post else App(primed(x), ())
            parts.append((derivatives[x], App("-", (post_t, pre_t))))
        lhs = _signed_sum(parts)
        rhs_parts: List[Tuple[Fraction, Term]] = []
        for mono, coeff in sorted(rest.items()):
            base: Optional[Term] = None
            for name in mono:
                factor: Term = App(name, ())
                base = factor if base is None else App("*", (base, factor))
            if base is None:
                rhs_parts.append((-coeff, elapsed))
            else:
                rhs_parts.append((-coeff, App("*", (base, elapsed))))
        rhs = _signed_sum(rhs_parts)
        out.append(Atom(f.rel, lhs, rhs))
    return out


# ---------------------------------------------------------------------------
# Verification conditions


class NamedVC(Record):
    """A named verification condition: an automaton's, or an HPILOT
    problem as "problem".  Its parameters are symbols of the task's sig,
    never the Skolem constants and duration it introduces."""

    def __init__(self, name, statements):
        self.name: str = name
        self.statements: List[Formula] = statements


def _selected(items: list, names: Optional[Sequence[str]], matches, what: str) -> list:
    """The items some name matches, all without names; a SortError for a name matching none."""
    if not names:
        return items
    unmatched = [n for n in names if not any(matches(item, n) for item in items)]
    if unmatched:
        raise SortError("vcs entry %s matches no %s" % (", ".join(unmatched), what))
    return [item for item in items if any(matches(item, n) for n in names)]


def vcs_invariant(automaton: HybridAutomaton, candidate: Sequence[Formula], names=None) -> List[NamedVC]:
    """One condition per mode (initial states, flows) and per edge
    (jumps), or those that names selects; the candidate is invariant iff
    all are unsatisfiable.  Flows last a duration fresh_name(DURATION) over
    the automaton's symbols, which the Skolem constants avoid too; the
    parameters of a condition are symbols of the automaton's sig, on
    which the candidate is parsed."""
    renaming = automaton.prime_renaming()
    avoid = automaton.sig.all_symbols()
    neg_plain = negate_universal(list(candidate), avoid=avoid)
    neg_primed = negate_universal([rename_symbols(c, renaming) for c in candidate], avoid=avoid)
    primed_of = lambda fs: [rename_symbols(f, renaming) for f in fs]
    out: List[NamedVC] = []
    t: Term = App(fresh_name(DURATION, avoid), ())
    zero: Term = Num(Fraction(0))
    for name, mode in automaton.modes.items():
        if mode.init:
            out.append(NamedVC("I_%s" % name, list(mode.init) + [neg_plain]))
    for name, mode in automaton.modes.items():
        statements = (
            list(candidate)
            + list(mode.inv)
            + flow_relax(mode, zero, t)
            + primed_of(mode.inv)
            + [neg_primed, Atom(">=", t, zero)]
        )
        out.append(NamedVC("F_flow_%s" % name, statements))
    for edge in automaton.edges:
        target_inv = automaton.modes[edge.target].inv
        statements = list(candidate) + list(edge.jump) + primed_of(target_inv) + [neg_primed]
        out.append(NamedVC("F_jump_%s" % edge.label(), statements))
    return _selected(out, names, lambda vc, name: vc.name == name, "verification condition")


def vcs_chatterfree(
    automaton: HybridAutomaton,
    epsilon: Term,
    edges: Optional[Sequence[str]] = None,
) -> List[NamedVC]:
    """Chatter-freedom conditions: every jump lands in the target's
    inner envelope, and no guard fires within the dwelling time.  edges
    selects edges by label or by source->target; a selected edge with
    no inner envelope on either side is a SortError.  Dwelling lasts a
    duration fresh_name(DURATION) over the automaton's symbols, as in
    vcs_invariant.  The parameters are symbols of the automaton's sig,
    on which epsilon's undeclared constants are declared, as by parsing it."""
    check_term(automaton.sig, epsilon)
    renaming = automaton.prime_renaming()
    avoid = automaton.sig.all_symbols()
    primed_of = lambda fs: [rename_symbols(f, renaming) for f in fs]
    t: Term = App(fresh_name(DURATION, avoid), ())
    zero: Term = Num(Fraction(0))
    matches = lambda e, name: name in (e.label(), "%s->%s" % (e.source, e.target))
    landing: List[NamedVC] = []
    dwelling: List[NamedVC] = []
    for edge in _selected(automaton.edges, edges, matches, "edge"):
        source = automaton.modes[edge.source]
        target = automaton.modes[edge.target]
        if not (source.inenv or target.inenv):
            raise SortError(
                "edge %s -> %s has no inner envelope on either side" % (edge.source, edge.target)
            )
        if target.inenv:
            statements = (
                list(source.inv)
                + list(edge.guard)
                + list(edge.jump)
                + [negate_universal(primed_of(target.inenv), avoid=avoid)]
            )
            landing.append(NamedVC("CF1_%s" % edge.label(), statements))
        if source.inenv:
            statements = (
                list(source.inenv)
                + list(source.inv)
                + flow_relax(source, zero, t)
                + [rename_symbols(g, renaming) for g in edge.guard]
                + [Atom("<=", t, epsilon), Atom(">", t, zero)]
            )
            dwelling.append(NamedVC("CF2_%s" % edge.label(), statements))
    return landing + dwelling
