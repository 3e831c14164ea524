"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the projection
oracle decides one-variable satisfiability by direct interval
reasoning, the reference Fourier-Motzkin decides conjunctions with
Fraction rows, the two reference decide() versions run DPLL without the engine's
literal memo, records per unit set, free-column rule and probe replay
(one as the engine searches, on the model of the units, and one as it
searched before, kept for its verdicts), the grid oracle compares formulas by
evaluating them at sample points, the full-instantiation oracle
grounds extension axioms by brute force over all terms up to a fixed
depth, and the reference tokenizer scans a text character by character
instead of through the parser's compiled pattern.

Two helpers here are called only by tests: dnf_formula, which turns a
DNF of linear atoms back into a formula, and entails_constraint, which
decides entailment between generated constraints through the engine's
own reduction and decision procedure.
"""

import random
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from paramverify.errors import EngineError, ParseError, SortError
from paramverify.linear import ZERO, LinAtom, _fm_steps, _mono_var, _witness, atom_to_lin, decide, lin_to_atom, make_atom
from paramverify.reduction import reduce_chain
from paramverify.symelim import constraint_statements
from paramverify.terms import (
    And,
    App,
    Atom,
    Forall,
    Formula,
    Implies,
    Not,
    Num,
    Or,
    Signature,
    Term,
    conj,
    disj,
    negate_atom,
    negate_universal,
    nnf,
    subformulas,
    substitute,
)

GRID7 = [Fraction(q) for q in (-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2)]


def eval_atom(atom: LinAtom, point: Dict[str, Fraction]) -> bool:
    total = Fraction(0)
    for mono, coeff in atom.poly:
        value = coeff
        for s in mono:
            value *= point[s]
        total += value
    if atom.rel == "<=":
        return total <= 0
    if atom.rel == "<":
        return total < 0
    if atom.rel == "=":
        return total == 0
    return total != 0


def eval_conjunct(conjunct: Sequence[LinAtom], point: Dict[str, Fraction]) -> bool:
    return all(eval_atom(a, point) for a in conjunct)


def eval_dnf(dnf, point: Dict[str, Fraction]) -> bool:
    return any(eval_conjunct(c, point) for c in dnf)


def dnf_formula(dnf) -> Formula:
    """A DNF of linear atoms as a formula: false when empty, true for an
    empty conjunct."""
    return disj([conj([lin_to_atom(a) for a in c]) for c in dnf])


def exists_extension(conjunct: Sequence[LinAtom], var: str, point: Dict[str, Fraction]) -> bool:
    """Is there a rational value for var satisfying the conjunct at the
    point?  Decided by direct interval intersection."""
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    lo_strict = hi_strict = False
    pins: List[Fraction] = []
    for atom in conjunct:
        coeff = Fraction(0)
        const = Fraction(0)
        for mono, c in atom.poly:
            value = c
            if var in mono:
                for s in mono:
                    if s != var:
                        value *= point[s]
                coeff += value
            else:
                for s in mono:
                    value *= point[s]
                const += value
        if coeff == 0:
            ok = const <= 0 if atom.rel == "<=" else const < 0 if atom.rel == "<" else const == 0
            if not ok:
                return False
            continue
        bound = -const / coeff
        if atom.rel == "=":
            pins.append(bound)
        elif coeff > 0:
            if hi is None or bound < hi or (bound == hi and atom.rel == "<"):
                hi, hi_strict = bound, atom.rel == "<"
        else:
            if lo is None or bound > lo or (bound == lo and atom.rel == "<"):
                lo, lo_strict = bound, atom.rel == "<"
    if pins:
        x = pins[0]
        if any(q != x for q in pins):
            return False
        if lo is not None and (x < lo or (x == lo and lo_strict)):
            return False
        if hi is not None and (x > hi or (x == hi and hi_strict)):
            return False
        return True
    if lo is None or hi is None:
        return True
    if lo < hi:
        return True
    return lo == hi and not lo_strict and not hi_strict


def random_conjunct(rng: random.Random, symbols: Sequence[str], max_atoms: int = 8) -> Tuple[LinAtom, ...]:
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        poly = {}
        for s in rng.sample(list(symbols), rng.randint(1, len(symbols))):
            c = rng.randint(-3, 3)
            if c:
                poly[(s,)] = Fraction(c)
        if not poly:
            poly[(symbols[0],)] = Fraction(1)
        poly[()] = Fraction(rng.randint(-3, 3))
        rel = rng.choices(["<=", "<", "="], weights=[5, 3, 1])[0]
        a = make_atom(rel, poly)
        if a not in (True, False):
            atoms.append(a)
    if not atoms:
        atoms = [make_atom("<=", {(symbols[0],): Fraction(1)})]
    return tuple(atoms)


def model_of(atoms: Iterable[LinAtom]) -> Optional[Dict[str, Fraction]]:
    """A rational witness of a conjunction, or None when it is
    unsatisfiable, built from the engine's integer-row elimination.  The
    atoms are eliminated in LinAtom.key order, so the witness does not
    depend on the order they are given in.  The witness is checked
    against every atom; a violated atom raises EngineError."""
    ordered = sorted(set(atoms), key=LinAtom.key)
    steps = _fm_steps(ordered)
    return None if steps is None else _witness(steps, ordered)[0]


# ---------------------------------------------------------------------------
# Reference ground Fourier-Motzkin over Fractions

# The engine's decision procedure before it moved to primitive integer
# rows, kept unchanged as the oracle for that version: given the atoms
# in the same order, both must return the same verdict and the same
# witness.


def _reference_prune_rows(rows):
    """Scale rows canonically, drop duplicates and slack bounds sharing
    a coefficient pattern, and decide constant rows early (None when a
    constant row is false)."""
    out = []
    best: Dict[tuple, int] = {}
    for rel, coeffs, const in rows:
        if not coeffs:
            ok = const <= 0 if rel == "<=" else const < 0 if rel == "<" else const == 0
            if not ok:
                return None
            continue
        lead = sorted(coeffs)[0]
        scale = abs(coeffs[lead])
        coeffs = {v: c / scale for v, c in coeffs.items()}
        const = const / scale
        pattern = (rel == "=", tuple(sorted(coeffs.items())))
        if rel == "=":
            key = pattern + (const,)
            if key not in best:
                best[key] = len(out)
                out.append((rel, coeffs, const))
            continue
        seen = best.get(pattern)
        if seen is None:
            best[pattern] = len(out)
            out.append((rel, coeffs, const))
            continue
        orel, _, oconst = out[seen]
        if const > oconst or (const == oconst and rel == "<" and orel == "<="):
            out[seen] = (rel, coeffs, const)
    return out


def reference_is_sat(atoms: Iterable[LinAtom]) -> Optional[Dict[str, Fraction]]:
    rows: List[Tuple[str, Dict[str, Fraction], Fraction]] = []
    for a in atoms:
        coeffs: Dict[str, Fraction] = {}
        const = ZERO
        for m, c in a.poly:
            if m:
                coeffs[_mono_var(m)] = coeffs.get(_mono_var(m), ZERO) + c
            else:
                const += c
        if a.rel == "!=":
            raise SortError("is_sat expects atoms without !=")
        rows.append((a.rel, coeffs, const))
    rows = _reference_prune_rows(rows)
    if rows is None:
        return None
    order: List[str] = []
    seen: Set[str] = set()
    for _, coeffs, _ in rows:
        for v in coeffs:
            if v not in seen:
                seen.add(v)
                order.append(v)
    steps: List[tuple] = []
    while True:
        live = [v for v in order if any(v in r[1] for r in rows)]
        if not live:
            break
        live.sort(key=lambda v: (sum(1 for r in rows if v in r[1]), order.index(v)))
        v = live[0]
        with_v = [r for r in rows if v in r[1]]
        rest = [r for r in rows if v not in r[1]]
        pivot = next((r for r in with_v if r[0] == "="), None)
        if pivot is not None:
            _, pcoeffs, pconst = pivot
            pc = pcoeffs[v]
            expr = ({u: -c / pc for u, c in pcoeffs.items() if u != v}, -pconst / pc)
            new_rows = rest
            for rel, coeffs, const in with_v:
                if (rel, coeffs, const) is pivot:
                    continue
                c = coeffs[v]
                merged = {u: q for u, q in coeffs.items() if u != v}
                for u, q in expr[0].items():
                    merged[u] = merged.get(u, ZERO) + c * q
                merged = {u: q for u, q in merged.items() if q}
                new_rows.append((rel, merged, const + c * expr[1]))
            steps.append(("pivot", v, expr))
            rows = _reference_prune_rows(new_rows)
            if rows is None:
                return None
            continue
        lowers = []
        uppers = []
        for rel, coeffs, const in with_v:
            if coeffs[v] > 0:
                uppers.append((rel, coeffs, const))
            else:
                lowers.append((rel, coeffs, const))
        steps.append(("bounds", v, lowers, uppers))
        new_rows = rest
        for lrel, lco, lconst in lowers:
            for urel, uco, uconst in uppers:
                lc = lco[v]
                uc = uco[v]
                merged: Dict[str, Fraction] = {}
                for u, q in lco.items():
                    if u != v:
                        merged[u] = merged.get(u, ZERO) + uc * q
                for u, q in uco.items():
                    if u != v:
                        merged[u] = merged.get(u, ZERO) - lc * q
                merged = {u: q for u, q in merged.items() if q}
                rel = "<" if "<" in (lrel, urel) else "<="
                new_rows.append((rel, merged, uc * lconst - lc * uconst))
        rows = _reference_prune_rows(new_rows)
        if rows is None:
            return None
    for rel, _, const in rows:
        if rel == "<=" and not const <= 0:
            return None
        if rel == "<" and not const < 0:
            return None
        if rel == "=" and const != 0:
            return None
    witness: Dict[str, Fraction] = {}

    def value_of(coeffs: Dict[str, Fraction], const: Fraction) -> Fraction:
        total = const
        for u, q in coeffs.items():
            # variables that vanished by cancellation stay unconstrained
            if u not in witness:
                witness[u] = ZERO
            total += witness[u] * q
        return total

    for step in reversed(steps):
        if step[0] == "pivot":
            _, v, (coeffs, const) = step
            witness[v] = value_of(coeffs, const)
            continue
        _, v, lowers, uppers = step
        lo = None
        lo_strict = False
        for rel, coeffs, const in lowers:
            c = coeffs[v]
            bound = -value_of({u: q for u, q in coeffs.items() if u != v}, const) / c
            if lo is None or bound > lo or (bound == lo and rel == "<"):
                lo = bound
                lo_strict = rel == "<"
        hi = None
        hi_strict = False
        for rel, coeffs, const in uppers:
            c = coeffs[v]
            bound = -value_of({u: q for u, q in coeffs.items() if u != v}, const) / c
            if hi is None or bound < hi or (bound == hi and rel == "<"):
                hi = bound
                hi_strict = rel == "<"
        if lo is None and hi is None:
            witness[v] = ZERO
        elif lo is None:
            witness[v] = hi - 1
        elif hi is None:
            witness[v] = lo + 1
        elif lo == hi:
            witness[v] = lo
        else:
            witness[v] = (lo + hi) / 2
    return witness


# ---------------------------------------------------------------------------
# Reference ground decision procedure

# The engine's decide() before it translated each literal once per call,
# answered feasibility probes from the current model and replayed the
# rest through the recorded elimination of the units, and before it
# searched on the model of the units.  It probes every literal of every
# clause in each round, for whether it can hold and whether the units
# entail it, so its search and its witnesses are those of that version;
# it is kept as a verdict oracle (reference_model_decide pins the
# witnesses).  It calls model_of on every unit set and every probe,
# wherever that version called the witness-building is_sat.


def reference_decide(formulas, assumptions: Sequence[LinAtom] = ()) -> Optional[Dict[str, Fraction]]:
    """Satisfiability of a conjunction of ground quantifier-free
    formulas; DPLL-style splitting on disjunctions with FM leaves."""
    if not isinstance(formulas, (list, tuple)):
        formulas = [formulas]
    pending = [nnf(f) for f in formulas]
    return _reference_decide(list(assumptions), pending)


def _reference_lit_branches(f: Atom) -> List[List[Union[LinAtom, bool]]]:
    if f.rel == "!=":
        halves = atom_to_lin(f)
        return [[halves[0]], [halves[1]]]
    return [atom_to_lin(f)]


def _reference_decide(units: List[LinAtom], pending: List[Formula]) -> Optional[Dict[str, Fraction]]:
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
    if model_of(units) is None:
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
                    branches = _reference_lit_branches(lit)
                    if all(
                        any(a is False for a in b)
                        or model_of(units + [a for a in b if a is not True]) is None
                        for b in branches
                    ):
                        continue  # literal cannot hold
                    negated = [x for b in _reference_lit_branches(negate_atom(lit)) for x in b]
                    if all(a is not True for a in negated) and all(
                        model_of(units + [a]) is None for a in negated if a is not False
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
        if changed and model_of(units) is None:
            return None
    if not complexes:
        return model_of(units)
    complexes.sort(key=lambda f: len(f.parts) if isinstance(f, Or) else 2)
    first = complexes[0]
    rest = complexes[1:]
    if isinstance(first, Atom):  # a != literal: branch on < and >
        branches: List[Formula] = [Atom("<", first.lhs, first.rhs), Atom(">", first.lhs, first.rhs)]
    elif isinstance(first, Or):
        branches = list(first.parts)
    else:  # a clause shrunk to one conjunction: it holds, so it enters whole
        return _reference_decide(list(units), complexes)
    for b in branches:
        w = _reference_decide(list(units), [b] + rest)
        if w is not None:
            return w
    return None


# The engine's decide() as it searches on the model of the units, kept as
# the oracle for that search: on the same input both must return the same
# witness.  Propagation examines only the clauses that the model of the
# units violates, a round repeats while the units grow, and a unit that
# the model violates replaces the model at once.  A node whose model
# satisfies every clause left returns it, else it branches on the
# shortest violated clause.  It has no literal memo, no record per unit
# set, no free-column rule and no replay: every probe and every model of
# the units is one model_of call.


def reference_model_decide(formulas, assumptions: Sequence[LinAtom] = ()) -> Optional[Dict[str, Fraction]]:
    """Satisfiability of a conjunction of ground quantifier-free
    formulas by DPLL on the model of the unit atoms, with FM leaves."""
    if not isinstance(formulas, (list, tuple)):
        formulas = [formulas]
    return _model_decide(list(assumptions), [nnf(f) for f in formulas], [])


def _column_holds(model: Dict[str, Fraction], a: Union[LinAtom, bool]) -> bool:
    """The atom holds at the model, each monomial read as one column (a
    product is its own column), a missing column as 0."""
    if type(a) is bool:
        return a
    total = sum(c * model.get(_mono_var(m), ZERO) if m else c for m, c in a.poly)
    return total <= 0 if a.rel == "<=" else total < 0 if a.rel == "<" else total == 0


def _formula_holds(model: Dict[str, Fraction], f: Formula) -> bool:
    if isinstance(f, And):
        return all(_formula_holds(model, p) for p in f.parts)
    if isinstance(f, Or):
        return any(_formula_holds(model, p) for p in f.parts)
    if isinstance(f, Atom):
        return any(_column_holds(model, a) for a in atom_to_lin(f))
    raise SortError("decide expects ground clause structure, found %s" % type(f).__name__)


def _model_decide(units: List[LinAtom], pending: List[Formula], clauses: List[Formula]) -> Optional[Dict[str, Fraction]]:
    clauses = list(clauses)
    stack = list(pending)
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack.extend(f.parts)
        elif isinstance(f, Atom) and f.rel != "!=":
            for a in atom_to_lin(f):
                if a is False:
                    return None
                if a is not True:
                    units.append(a)
        elif isinstance(f, Or) and not f.parts:
            return None
        elif isinstance(f, (Atom, Or)):
            clauses.append(f)
        else:
            raise SortError("decide expects ground clause structure, found %s" % type(f).__name__)
    deferred: List[Formula] = []
    grew = True
    while grew:
        model = model_of(units)
        if model is None:
            return None
        grew = False
        remaining: List[Formula] = []
        violated: List[int] = []  # positions in remaining
        for f in clauses:
            if _formula_holds(model, f):
                remaining.append(f)
                continue
            lits = list(f.parts) if isinstance(f, Or) else [f]
            viable = [
                lit
                for lit in lits
                if not isinstance(lit, Atom)
                or any(a is not False and model_of(units + [a]) is not None for a in atom_to_lin(lit))
            ]
            if not viable:
                return None
            if len(viable) == 1 and isinstance(viable[0], Atom) and viable[0].rel != "!=":
                (a,) = atom_to_lin(viable[0])
                units.append(a)
                grew = True
                if not _column_holds(model, a):
                    model = model_of(units)
                    if model is None:
                        return None
                continue
            if len(viable) == len(lits):
                kept = f
            elif len(viable) > 1:
                kept = Or(tuple(viable))
            elif isinstance(viable[0], (Atom, Or)):
                kept = viable[0]
            else:  # a conjunction left alone in its clause: it holds whole
                deferred.append(viable[0])
                continue
            violated.append(len(remaining))
            remaining.append(kept)
        clauses = remaining
    if deferred:
        return _model_decide(units, deferred, clauses)
    if not violated:
        return model
    i = min(violated, key=lambda i: len(clauses[i].parts) if isinstance(clauses[i], Or) else 2)
    first = clauses[i]
    rest = (clauses[:i] + clauses[i + 1 :])[::-1]
    if isinstance(first, Atom):  # a != literal: branch on < and >
        branches: List[Formula] = [Atom("<", first.lhs, first.rhs), Atom(">", first.lhs, first.rhs)]
    else:
        branches = list(first.parts)
    for b in branches:
        w = _model_decide(list(units), [b], rest)
        if w is not None:
            return w
    return None


# ---------------------------------------------------------------------------
# Grid equivalence oracle


class GridError(EngineError):
    """Requested evaluation grid is too large."""


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
    lin: List[LinAtom] = []
    for f in formulas:
        for a in subformulas(f):
            if not isinstance(a, Atom):
                continue
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
            w = model_of(atoms)
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
# Brute-force full instantiation for definitional extension problems


def all_terms_to_depth(fn: str, constants: Sequence[str], depth: int) -> List[Term]:
    layer: List[Term] = [App(c, ()) for c in constants]
    out: List[Term] = []
    for _ in range(depth):
        layer = [App(fn, (t,)) for t in layer]
        out.extend(layer)
    return out


def brute_force_ground(clauses: Sequence[Formula], goal: Sequence[Formula], fn: str, terms: Sequence[Term]):
    """Instantiate every clause at every term argument, then name all
    extension applications apart and add pairwise congruence."""
    instances: List[Formula] = []
    for clause in clauses:
        if not isinstance(clause, Forall):
            instances.append(clause)
            continue
        (v,) = clause.variables
        for t in terms:
            arg = t.args[0]
            instances.append(substitute(clause.body, {v: arg}))
    names: Dict[Term, str] = {}

    def purify_term(t: Term) -> Term:
        if isinstance(t, App):
            args = tuple(purify_term(a) for a in t.args)
            if t.fn == fn:
                if t not in names:
                    names[t] = "bf_%d" % len(names)
                return App(names[t], ())
            return App(t.fn, args)
        return t

    def purify(f: Formula) -> Formula:
        if isinstance(f, Atom):
            return Atom(f.rel, purify_term(f.lhs), purify_term(f.rhs))
        from paramverify.terms import And, Implies, Not, Or

        if isinstance(f, And):
            return And(tuple(purify(p) for p in f.parts))
        if isinstance(f, Or):
            return Or(tuple(purify(p) for p in f.parts))
        if isinstance(f, Not):
            return Not(purify(f.body))
        if isinstance(f, Implies):
            return Implies(purify(f.left), purify(f.right))
        raise TypeError(f)

    ground = [purify(f) for f in instances + list(goal)]
    entries = list(names.items())
    from paramverify.terms import Implies

    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            (t1, n1), (t2, n2) = entries[i], entries[j]
            ground.append(
                Implies(
                    Atom("=", purify_term(t1.args[0]), purify_term(t2.args[0])),
                    Atom("=", App(n1, ()), App(n2, ())),
                )
            )
    return ground


# ---------------------------------------------------------------------------
# Constraint entailment


def entails_constraint(sig: Signature, stronger: Formula, weaker: Formula) -> bool:
    """stronger |= weaker, decided by instantiating the negation of the
    weaker constraint with fresh constants and reducing."""
    work_sig = sig.copy()
    negated = negate_universal(weaker, avoid=work_sig.all_symbols())
    work_sig.declare_constants_of(negated)
    reduced = reduce_chain(work_sig, constraint_statements(stronger) + [negated])
    return decide(reduced.ground) is None


# ---------------------------------------------------------------------------
# Reference tokenizer: the specification language scanned one character
# at a time.  Its digits are str.isdigit characters, a wider set than the
# decimal digits parsing.tokenize reads.

_REFERENCE_OPERATORS = [
    ":=",
    "-->",
    "->",
    "<=",
    ">=",
    "!=",
    "<",
    ">",
    "=",
    "+",
    "-",
    "*",
    "(",
    ")",
    "{",
    "}",
    ",",
    ";",
    ".",
    ":",
]


def reference_tokenize(text: str) -> List[Tuple[str, str, int, int]]:
    tokens: List[Tuple[str, str, int, int]] = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "_":
            j = i + 1
            if j < n and text[j] == "-":
                j += 1
            start_digits = j
            while j < n and text[j].isdigit():
                j += 1
            if j == start_digits:
                raise ParseError("malformed numeral", line, col)
            if j < n and text[j] == "/":
                j += 1
                k = j
                while j < n and text[j].isdigit():
                    j += 1
                if j == k:
                    raise ParseError("malformed numeral", line, col)
            tokens.append(("NUMERAL", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for op in _REFERENCE_OPERATORS:
            if text.startswith(op, i):
                tokens.append(("OP", op, line, col))
                col += len(op)
                i += len(op)
                break
        else:
            raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(("EOF", "", line, col))
    return tokens
