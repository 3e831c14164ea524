"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the projection
oracle decides one-variable satisfiability by direct interval
reasoning, the reference Fourier-Motzkin decides conjunctions with
Fraction rows, and the full-instantiation oracle grounds extension
axioms by brute force over all terms up to a fixed depth.
"""

import random
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from paramverify.errors import SortError
from paramverify.linear import ZERO, LinAtom, _mono_var, make_atom
from paramverify.terms import App, Atom, Forall, Formula, Term, substitute

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
