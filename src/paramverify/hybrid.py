"""Linear hybrid automata: model validation, verification conditions
for invariant checking, and chatter-freedom conditions.

Flows are convex conjunctions of non-strict constraints over the dotted
variables only, written d(x) in the input syntax.  The flow relaxation
turns each rate constraint sum c_i * d(x_i) REL c into the endpoint
constraint sum c_i * (x_i' - x_i) REL c * (t' - t), which is exact for
this class of automata.
"""

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import EngineError, SortError
from .parsing import LhaSpec, Mode
from .printing import print_term, term_poly
from .terms import (
    App,
    Atom,
    Formula,
    Num,
    Record,
    Signature,
    SymbolRenaming,
    Term,
    formula_subterms,
    negate_universal,
    rename_symbols,
)

NONSTRICT = ("<=", ">=", "=")


def primed(name: str) -> str:
    return name + "p"


class Edge(Record):
    def __init__(self, source, target, index, guard=None, jump=None):
        self.source: str = source
        self.target: str = target
        self.index: int = index  # 1-based among parallel edges of the same mode pair
        self.guard: List[Formula] = [] if guard is None else guard
        self.jump: List[Formula] = [] if jump is None else jump

    def label(self) -> str:
        return "%s_%s_%d" % (self.source, self.target, self.index)


class HybridAutomaton(Record):
    def __init__(self, variables, modes, edges, sig):
        self.variables: List[str] = variables
        self.modes: Dict[str, Mode] = modes
        self.edges: List[Edge] = edges
        self.sig: Signature = sig

    @classmethod
    def from_spec(cls, spec: LhaSpec) -> "HybridAutomaton":
        modes = {}
        for name, m in spec.modes.items():
            for f in m.flow:
                _check_flow_atom(f, spec.variables)
            for label, fs in (("inv", m.inv), ("init", m.init), ("inenv", m.inenv)):
                for f in fs:
                    _check_state_atom(f, spec.variables, label, allow_primed=False)
            modes[name] = Mode(name, list(m.inv), list(m.flow), list(m.init), list(m.inenv))
        edges = []
        counters: Dict[Tuple[str, str], int] = {}
        for e in spec.edges:
            for f in e.guard:
                _check_state_atom(f, spec.variables, "guard", allow_primed=False)
            for f in e.jump:
                _check_state_atom(f, spec.variables, "jump", allow_primed=True)
            key = (e.source, e.target)
            counters[key] = counters.get(key, 0) + 1
            edges.append(Edge(e.source, e.target, counters[key], list(e.guard), list(e.jump)))
        return cls(list(spec.variables), modes, edges, spec.sig)

    def prime_renaming(self) -> SymbolRenaming:
        return SymbolRenaming({x: primed(x) for x in self.variables})


def _walk_outside_derivatives(t: Term):
    """Subterms of t, treating derivative applications as leaves."""
    if isinstance(t, App) and t.fn == "d":
        yield t
        return
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from _walk_outside_derivatives(a)


def _check_flow_atom(f: Formula, variables: Sequence[str]) -> None:
    if not isinstance(f, Atom):
        raise SortError("flow conditions must be conjunctions of atoms")
    if f.rel not in NONSTRICT:
        raise SortError("flow constraint %s is strict" % f.rel)
    has_derivative = False
    for top in (f.lhs, f.rhs):
        for s in _walk_outside_derivatives(top):
            if isinstance(s, App) and s.fn == "d":
                if len(s.args) != 1 or not isinstance(s.args[0], App) or s.args[0].args:
                    raise SortError("malformed derivative term %s" % print_term(s))
                if s.args[0].fn not in variables:
                    raise SortError("derivative of undeclared variable %s" % s.args[0].fn)
                has_derivative = True
            elif isinstance(s, App) and not s.args and s.fn in variables:
                raise SortError("flow condition mentions state variable %s" % s.fn)
            elif isinstance(s, App) and not s.args and s.fn in [primed(x) for x in variables]:
                raise SortError("flow condition mentions primed variable %s" % s.fn)
    if not has_derivative:
        raise SortError("flow condition without derivative term")


def _check_state_atom(f: Formula, variables: Sequence[str], where: str, allow_primed: bool) -> None:
    if not isinstance(f, Atom):
        raise SortError("%s predicates must be conjunctions of atoms" % where)
    primed_names = [primed(x) for x in variables]
    for s in formula_subterms(f):
        if isinstance(s, App) and s.fn == "d":
            raise SortError("%s predicate mentions a derivative" % where)
        if not allow_primed and isinstance(s, App) and not s.args and s.fn in primed_names:
            raise SortError("%s predicate mentions primed variable %s" % (where, s.fn))


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
    def __init__(self, name, statements):
        self.name: str = name
        self.statements: List[Formula] = statements


def vcs_invariant(automaton: HybridAutomaton, candidate: Sequence[Formula]) -> List[NamedVC]:
    """One condition per mode (initial states, flows) and per edge
    (jumps); the candidate is invariant iff all are unsatisfiable."""
    renaming = automaton.prime_renaming()
    avoid = automaton.sig.all_symbols()
    neg_plain = negate_universal(list(candidate), avoid=avoid)
    neg_primed = negate_universal([rename_symbols(c, renaming) for c in candidate], avoid=avoid)
    primed_of = lambda fs: [rename_symbols(f, renaming) for f in fs]
    out: List[NamedVC] = []
    tname = "t" if "t" not in automaton.sig.all_symbols() else "t_vc"
    t: Term = App(tname, ())
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
    return out


def vcs_chatterfree(
    automaton: HybridAutomaton,
    epsilon: Term,
    edges: Optional[Sequence[str]] = None,
) -> List[NamedVC]:
    """Chatter-freedom conditions: every jump lands in the target's
    inner envelope, and no guard fires within the dwelling time."""
    renaming = automaton.prime_renaming()
    avoid = automaton.sig.all_symbols()
    primed_of = lambda fs: [rename_symbols(f, renaming) for f in fs]
    tname = "t" if "t" not in automaton.sig.all_symbols() else "t_cf"
    t: Term = App(tname, ())
    zero: Term = Num(Fraction(0))
    selected = list(automaton.edges)
    if edges is not None:
        wanted = {str(e) for e in edges}

        def matches(e: Edge) -> bool:
            return e.label() in wanted or "%s->%s" % (e.source, e.target) in wanted

        selected = [e for e in selected if matches(e)]
        if not selected:
            raise EngineError("no edge matches %s" % sorted(wanted))
    landing: List[NamedVC] = []
    dwelling: List[NamedVC] = []
    for edge in selected:
        source = automaton.modes[edge.source]
        target = automaton.modes[edge.target]
        if not (source.inenv or target.inenv):
            raise EngineError(
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
