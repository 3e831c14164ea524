"""Parsers for the specification language and task files.

The specification grammar follows the concrete syntax of the input
listings this tool consumes:

    Base_functions := {(+,2), (-,2), (*,2)}
    Extension_functions := {(a, 1, 2), (ap, 1, 3)}
    Relations := {(<=,2), (<,2), (>=,2), (>,2)}
    Clauses :=
        d1 <= d2;
        (FORALL j). ap(j) = a(j) + _1;
    Query := d1p - d2p > _0;

Statements are ";"-terminated, quantifier prefixes are written
"(FORALL v1,v2).", implications use "-->", and numerals carry a leading
underscore ("_1", "_3/2").  tokenize reads a text with one compiled
pattern into plain (kind, text) pairs; a token's line and column are
found again only for an error.  Digits are decimal digits, the digits
int reads, so "_²" is a malformed numeral; a numeral with a zero
denominator is a ParseError at the numeral.  Task files are YAML
documents whose layout matches the task listings (tasks, per-task
mode/options/specification), in the subset of YAML 1.1 that
_read_task_yaml reads as PyYAML's SafeLoader does; anything outside
it is a ParseError at its line and column.

Each task's body is the record the engine runs: a ProblemSpec (HPILOT),
a TransitionSystem (PTS) or a HybridAutomaton (LHA, its atoms checked
here).  A task is checked completely at parse time, its mode against
the specification types it runs on (MODES), its required options and
the texts of the options its mode reads included, so every malformed
task is a ParseError that names it.
"""

import re
from fractions import Fraction
from math import inf, isfinite, nan
from typing import Dict, List, Optional, Set, Tuple

from .errors import EngineError, ParseError, SignatureError, SortError
from .linear import assumptions_from
from .terms import (
    App,
    Atom,
    FALSE,
    Forall,
    Formula,
    Implies,
    Num,
    Or,
    And,
    Not,
    Record,
    Signature,
    SymbolRenaming,
    TRUE,
    Term,
    Var,
    check_term,
    formula_subterms,
)

# The engine walks terms and formulas recursively, so a term or a
# formula nested deeper than these is a parse error: at these depths
# every mode still runs within Python's default recursion limit.
MAX_TERM_DEPTH = 200
MAX_FORMULA_DEPTH = 50

SECTION_NAMES = ("Base_functions", "Extension_functions", "Relations", "Clauses", "Query")
DURATION = "t"  # the stem of the name of an LHA flow's duration

# One token a match, after the blanks before it.  A numeral's digits are
# never cut short and its '/' must lead to digits, so "_12/x" matches no
# numeral: it is malformed at its '_'.  Group 2 also matches a word whose
# first character is neither a letter nor a decimal digit, such as
# "²abc" or "½"; tokenize rejects it, as identifiers start with a letter.
_TOKEN = re.compile(
    r"\s*(?:"
    r"(_-?\d+(?!\d)(?:/\d+|(?!/)))"  # 1 NUMERAL
    r"|([^\W\d_]\w*)"  # 2 IDENT
    r"|(\d+)"  # 3 INT
    r"|(:=|-->|->|<=|>=|!=|[-<>=+*(){},;.:])"  # 4 OP
    r"|#.*"  # a comment
    r"|(\S))"  # 5 a character no token starts with
)
_KINDS = (None, "NUMERAL", "IDENT", "INT", "OP")
# an operator of two or three characters is one string, not one for
# each atom that keeps it as its relation
_SHARED_TEXTS = {op: op for op in (":=", "-->", "->", "<=", ">=", "!=")}

# (kind, text), kind one of IDENT, INT, NUMERAL, OP, EOF.  A token holds
# no position; token_starts finds it again for an error.  CPython keeps up
# to 2,000 freed tuples of each length for reuse, and the engine reuses
# pairs but too few longer tuples: tokens that also held their line and
# column, or a list of their offsets, left memory behind that raised a
# run's peak by 0.1-0.15 MB.
Token = Tuple[str, str]
_EOF: Token = ("EOF", "")


def tokenize(text: str) -> List[Token]:
    """The tokens of text, the last an EOF token."""
    tokens: List[Token] = []
    pos = 0
    match = _TOKEN.match
    while True:
        m = match(text, pos)
        if m is None:  # only blanks are left
            break
        pos = m.end()
        k = m.lastindex
        if k:
            token_text = m.group(k)
            if k == 5 or k == 2 and not token_text[0].isalpha():
                ch = token_text[0]
                message = "malformed numeral" if ch == "_" else "unexpected character %r" % ch
                raise ParseError(message, *position(text, m.start(k)))
            tokens.append((_KINDS[k], _SHARED_TEXTS.get(token_text, token_text)))
    tokens.append(_EOF)
    return tokens


def token_starts(text: str) -> List[int]:
    """The offset in text of each of its tokens, which tokenize has read
    without an error.  A comment that ends the text leaves the EOF token
    at its '#'."""
    starts = [m.start(m.lastindex) for m in _TOKEN.finditer(text) if m.lastindex]
    comment = text.find("#", text.rfind("\n") + 1)
    starts.append(len(text) if comment < 0 else comment)
    return starts


def position(text: str, offset: int) -> Tuple[int, int]:
    """The line and column, both counted from 1, of text[offset]."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class ProblemSpec(Record):
    """A set of axiom clauses plus a ground goal over a signature."""

    def __init__(self, sig, clauses=None, query=None):
        self.sig: Signature = sig
        self.clauses: List[Formula] = [] if clauses is None else clauses
        self.query: List[Formula] = [] if query is None else query

    def statements(self) -> List[Formula]:
        return list(self.clauses) + list(self.query)


def primed(name: str) -> str:
    """The post-state copy of a state symbol."""
    return name + "p"


class TransitionSystem(Record):
    """A parametric transition system: initial states, update axioms,
    the candidate invariant (query) and the state symbols the update
    renames, each to its post-state copy."""

    def __init__(self, sig, init, update, query, update_vars):
        self.sig: Signature = sig
        self.init: List[Formula] = init
        self.update: List[Formula] = update
        self.query: List[Formula] = query
        self.update_vars: Dict[str, str] = update_vars

    def renaming(self) -> SymbolRenaming:
        return SymbolRenaming(self.update_vars)


class Mode(Record):
    """A mode of a hybrid automaton: its invariant, flow, initial and
    environment conditions."""

    def __init__(self, name, inv=None, flow=None, init=None, inenv=None):
        self.name: str = name
        self.inv: List[Formula] = [] if inv is None else inv
        self.flow: List[Formula] = [] if flow is None else flow
        self.init: List[Formula] = [] if init is None else init
        self.inenv: List[Formula] = [] if inenv is None else inenv


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

    def prime_renaming(self) -> SymbolRenaming:
        return SymbolRenaming({x: primed(x) for x in self.variables})


class Parser:
    def __init__(self, text: str, sig: Optional[Signature] = None):
        self.text = text
        self.tokens = tokenize(text)
        self.tokens.append(_EOF)  # a second EOF token: peek(1) is a plain index
        self.pos = 0
        self.sig = sig if sig is not None else Signature()
        self.nesting = 0  # parentheses and argument lists open around the current term

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok[1] != text:
            raise self._error("expected %r, found %r" % (text, tok[1] or "end of input"), tok)
        return tok

    def expect_ident(self) -> Token:
        tok = self.next()
        if tok[0] != "IDENT":
            raise self._error("expected identifier, found %r" % (tok[1] or "end of input"), tok)
        return tok

    def at_end(self) -> bool:
        return self.tokens[self.pos][0] == "EOF"

    def error(self, message: str) -> ParseError:
        return self._error(message, self.tokens[self.pos])

    def _error(self, message: str, tok: Token) -> ParseError:
        """A ParseError at tok.  Each token but EOF is a tuple of its own,
        so its index is found by identity."""
        index = [t is tok for t in self.tokens].index(True)
        return ParseError(message, *position(self.text, token_starts(self.text)[index]))

    # -- declarations

    def parse_decl_set(self, with_level: bool) -> List[Tuple[str, int, int]]:
        self.expect("{")
        decls: List[Tuple[str, int, int]] = []
        if self.peek()[1] != "}":
            while True:
                decls.append(self.parse_decl(with_level))
                if self.peek()[1] != ",":
                    break
                self.next()
        self.expect("}")
        return decls

    def parse_decl(self, with_level: bool) -> Tuple[str, int, int]:
        self.expect("(")
        tok = self.next()
        if tok[0] not in ("IDENT", "OP") or tok[1] in ("(", ")", "{", "}", ",", ";"):
            raise self._error("expected a function or relation name", tok)
        name = tok[1]
        self.expect(",")
        arity = self.parse_int()
        level = 0
        if with_level and self.peek()[1] == ",":
            self.next()
            level = self.parse_int()
        self.expect(")")
        return name, arity, level

    def parse_int(self) -> int:
        tok = self.next()
        if tok[0] != "INT":
            raise self._error("expected an integer, found %r" % tok[1], tok)
        return int(tok[1])

    # -- terms and formulas

    def parse_term(self, scope: Tuple[str, ...]) -> Term:
        return self._term(scope)[0]

    # Each term comes with its nesting depth: every operator or function
    # application and every pair of parentheses adds a level.

    def _deeper(self, depth: int, tok: Token) -> int:
        if depth >= MAX_TERM_DEPTH:
            raise self._error("term nested deeper than %d levels" % MAX_TERM_DEPTH, tok)
        return depth + 1

    def _term(self, scope: Tuple[str, ...]) -> Tuple[Term, int]:
        left, depth = self._factor(scope)
        while self.peek()[1] in ("+", "-"):
            tok = self.next()
            right, rdepth = self._factor(scope)
            left, depth = App(tok[1], (left, right)), self._deeper(max(depth, rdepth), tok)
        return left, depth

    def _factor(self, scope: Tuple[str, ...]) -> Tuple[Term, int]:
        left, depth = self._unary(scope)
        while self.peek()[1] == "*":
            tok = self.next()
            right, rdepth = self._unary(scope)
            left, depth = App("*", (left, right)), self._deeper(max(depth, rdepth), tok)
        return left, depth

    def _unary(self, scope: Tuple[str, ...]) -> Tuple[Term, int]:
        signs: List[Token] = []
        while self.peek()[1] == "-":
            signs.append(self.next())
        term, depth = self._primary(scope)
        for tok in reversed(signs):
            term, depth = App("-", (term,)), self._deeper(depth, tok)
        return term, depth

    def _primary(self, scope: Tuple[str, ...]) -> Tuple[Term, int]:
        tok = self.peek()
        if tok[0] == "NUMERAL":
            self.next()
            # the token pattern admits only "_", an optional "-", decimal
            # digits and an optional "/" with decimal digits
            num, _, den = tok[1][1:].partition("/")
            try:
                return Num(Fraction(int(num), int(den)) if den else Fraction(int(num))), 0
            except ZeroDivisionError:
                raise self._error("numeral with zero denominator", tok)
        if tok[1] == "(":
            self.next()
            self.nesting = self._deeper(self.nesting, tok)
            inner, depth = self._term(scope)
            self.nesting -= 1
            self.expect(")")
            return inner, self._deeper(depth, tok)
        if tok[0] == "IDENT":
            self.next()
            depth = 0
            if self.peek()[1] == "(":
                self.next()
                self.nesting = self._deeper(self.nesting, tok)
                args = [self._term(scope)]
                while self.peek()[1] == ",":
                    self.next()
                    args.append(self._term(scope))
                self.nesting -= 1
                self.expect(")")
                term: Term = App(tok[1], tuple(t for t, _ in args))
                depth = self._deeper(max(d for _, d in args), tok)
            elif tok[1] in scope:
                return Var(tok[1]), 0
            else:
                term = App(tok[1], ())
            try:
                check_term(self.sig, term, scope)
            except SignatureError as exc:
                raise self._error(str(exc), tok)
            return term, depth
        raise self._error("expected a term, found %r" % (tok[1] or "end of input"), tok)

    # depth counts the connectives (OR, AND, NOT, -->) around the formula
    # being parsed
    def _deeper_formula(self, depth: int, tok: Token) -> int:
        if depth >= MAX_FORMULA_DEPTH:
            raise self._error("formula nested deeper than %d levels" % MAX_FORMULA_DEPTH, tok)
        return depth + 1

    def parse_formula(self, scope: Tuple[str, ...], depth: int = 0) -> Formula:
        left = self.parse_disjunct(scope, depth)
        tok = self.peek()
        if tok[1] == "-->":
            self.next()
            right = self.parse_formula(scope, self._deeper_formula(depth, tok))
            return Implies(left, right)
        return left

    def parse_disjunct(self, scope: Tuple[str, ...], depth: int = 0) -> Formula:
        tok = self.peek()
        if tok[0] == "IDENT" and tok[1] in ("OR", "AND", "NOT") and self.peek(1)[1] == "(":
            depth = self._deeper_formula(depth, tok)
            self.next()
            self.next()
            parts = [self.parse_formula(scope, depth)]
            while self.peek()[1] == ",":
                self.next()
                parts.append(self.parse_formula(scope, depth))
            self.expect(")")
            if tok[1] == "OR":
                return Or(tuple(parts))
            if tok[1] == "AND":
                return And(tuple(parts))
            if len(parts) != 1:
                raise self._error("NOT takes a single formula", tok)
            return Not(parts[0])
        if tok[0] == "IDENT" and tok[1] == "true" and self.peek(1)[1] != "(":
            self.next()
            return TRUE
        if tok[0] == "IDENT" and tok[1] == "false" and self.peek(1)[1] != "(":
            self.next()
            return FALSE
        return self.parse_atom(scope)

    def parse_atom(self, scope: Tuple[str, ...]) -> Atom:
        lhs = self.parse_term(scope)
        tok = self.next()
        if tok[1] not in ("<=", "<", ">=", ">", "=", "!="):
            raise self._error("expected a relation, found %r" % (tok[1] or "end of input"), tok)
        if tok[1] not in ("=", "!=") and tok[1] not in self.sig.relations and self.sig.relations:
            raise self._error("undeclared relation %s" % tok[1], tok)
        rhs = self.parse_term(scope)
        return Atom(tok[1], lhs, rhs)

    def parse_statement(self) -> Formula:
        scope: Tuple[str, ...] = ()
        quantified = False
        if (
            self.peek()[1] == "("
            and self.peek(1)[0] == "IDENT"
            and self.peek(1)[1] in ("FORALL", "EXISTS")
        ):
            self.next()
            kind = self.next()[1]
            if kind == "EXISTS":
                raise self.error("existential statements are not supported")
            names = [self.expect_ident()[1]]
            while self.peek()[1] == ",":
                self.next()
                names.append(self.expect_ident()[1])
            self.expect(")")
            self.expect(".")
            scope = tuple(names)
            quantified = True
        body = self.parse_formula(scope)
        self.expect(";")
        if quantified:
            return Forall(scope, body)
        return body

    def parse_statements_until(self, stop) -> List[Formula]:
        out: List[Formula] = []
        while not self.at_end() and not stop():
            out.append(self.parse_statement())
        return out

    # -- specification bodies

    def at_section(self) -> bool:
        return (
            self.peek()[0] == "IDENT"
            and self.peek()[1] in SECTION_NAMES
            and self.peek(1)[1] == ":="
        )

    def parse_spec_body(self) -> ProblemSpec:
        spec = ProblemSpec(self.sig)
        seen = set()
        while not self.at_end():
            if not self.at_section():
                raise self.error("expected a section header")
            name = self.next()[1]
            self.expect(":=")
            if name in seen:
                raise self.error("duplicate section %s" % name)
            seen.add(name)
            if name == "Base_functions":
                for fn, arity, _ in self.parse_decl_set(False):
                    self.sig.base_functions[fn] = arity
            elif name == "Extension_functions":
                for fn, arity, level in self.parse_decl_set(True):
                    if level < 1:
                        raise self.error("extension level of %s must be >= 1" % fn)
                    self.sig.extension_functions[fn] = (arity, level)
            elif name == "Relations":
                for rel, arity, _ in self.parse_decl_set(False):
                    self.sig.relations[rel] = arity
            elif name == "Clauses":
                spec.clauses = self.parse_statements_until(self.at_section)
            else:
                spec.query = self.parse_statements_until(self.at_section)
        self.sig.validate()
        return spec

    # -- hybrid automaton bodies

    def parse_lha_body(self) -> HybridAutomaton:
        self.expect("variables")
        self.expect(":")
        variables = [self.expect_ident()[1]]
        while self.peek()[1] == ",":
            self.next()
            variables.append(self.expect_ident()[1])
        self.expect(";")
        for x in variables:
            self.sig.declare_constant(x)
            self.sig.declare_constant(primed(x))
        self.sig.base_functions["d"] = 1
        modes: Dict[str, Mode] = {}
        edges: List[Edge] = []
        parallel: Dict[Tuple[str, str], int] = {}
        while not self.at_end():
            tok = self.next()
            if tok[1] == "mode":
                name = self.parse_name()
                self.expect(":")
                if name in modes:
                    raise self._error("duplicate mode %s" % name, tok)
                mode = Mode(name)
                modes[name] = mode
                self.parse_lha_sections(
                    {"inv": mode.inv, "flow": mode.flow, "init": mode.init, "inenv": mode.inenv}
                )
            elif tok[1] == "edge":
                source = self.parse_name()
                self.expect("->")
                target = self.parse_name()
                self.expect(":")
                index = parallel[source, target] = parallel.get((source, target), 0) + 1
                edge = Edge(source, target, index)
                edges.append(edge)
                self.parse_lha_sections({"guard": edge.guard, "jump": edge.jump})
            else:
                raise self._error("expected 'mode' or 'edge', found %r" % tok[1], tok)
        for edge in edges:
            if edge.source not in modes or edge.target not in modes:
                raise ParseError("edge %s -> %s references an unknown mode" % (edge.source, edge.target))
        del self.sig.base_functions["d"]
        state, primed_state = set(variables), {primed(x) for x in variables}
        for mode in modes.values():
            for f in mode.flow:
                _check_flow_atom(f, state, primed_state)
            for where, fs in (("inv", mode.inv), ("init", mode.init), ("inenv", mode.inenv)):
                for f in fs:
                    _check_state_atom(f, where, primed_state)
        for edge in edges:
            for f in edge.guard:
                _check_state_atom(f, "guard", primed_state)
            for f in edge.jump:
                _check_state_atom(f, "jump", set())  # a jump may mention the post-state
        return HybridAutomaton(variables, modes, edges, self.sig)

    def parse_name(self) -> str:
        tok = self.next()
        if tok[0] not in ("IDENT", "INT"):
            raise self._error("expected a mode name, found %r" % tok[1], tok)
        return tok[1]

    def parse_lha_sections(self, sections: Dict[str, List[Formula]]) -> None:
        def at_boundary() -> bool:
            tok = self.peek()
            if tok[0] != "IDENT":
                return False
            if tok[1] in ("mode", "edge"):
                return True
            return tok[1] in sections and self.peek(1)[1] == ":"

        while not self.at_end():
            tok = self.peek()
            if tok[1] in ("mode", "edge"):
                return
            if tok[0] == "IDENT" and tok[1] in sections and self.peek(1)[1] == ":":
                key = self.next()[1]
                self.next()
                sections[key].extend(self.parse_statements_until(at_boundary))
            else:
                return


# ---------------------------------------------------------------------------
# Hybrid automaton atoms: flows constrain derivatives only, state
# predicates never mention them


NONSTRICT = ("<=", ">=", "=")


def _walk_outside_derivatives(t: Term):
    """Subterms of t, treating derivative applications as leaves."""
    yield t
    if isinstance(t, App) and t.fn != "d":
        for a in t.args:
            yield from _walk_outside_derivatives(a)


def _check_flow_atom(f: Formula, state: Set[str], primed_state: Set[str]) -> None:
    if not isinstance(f, Atom):
        raise SortError("flow conditions must be conjunctions of atoms")
    if f.rel not in NONSTRICT:
        raise SortError("flow constraint %s is strict" % f.rel)
    has_derivative = False
    for top in (f.lhs, f.rhs):
        for s in _walk_outside_derivatives(top):
            if isinstance(s, App) and s.fn == "d":
                if len(s.args) != 1 or not isinstance(s.args[0], App) or s.args[0].args:
                    from .printing import print_term  # only for this message: parsing does not load printing

                    raise SortError("malformed derivative term %s" % print_term(s))
                if s.args[0].fn not in state:
                    raise SortError("derivative of undeclared variable %s" % s.args[0].fn)
                has_derivative = True
            elif isinstance(s, App) and not s.args and s.fn in state:
                raise SortError("flow condition mentions state variable %s" % s.fn)
            elif isinstance(s, App) and not s.args and s.fn in primed_state:
                raise SortError("flow condition mentions primed variable %s" % s.fn)
    if not has_derivative:
        raise SortError("flow condition without derivative term")


def _check_state_atom(f: Formula, where: str, primed_names: Set[str]) -> None:
    """f is an atom that mentions no derivative and none of primed_names."""
    if not isinstance(f, Atom):
        raise SortError("%s predicates must be conjunctions of atoms" % where)
    for s in formula_subterms(f):
        if isinstance(s, App) and s.fn == "d":
            raise SortError("%s predicate mentions a derivative" % where)
        if isinstance(s, App) and not s.args and s.fn in primed_names:
            raise SortError("%s predicate mentions primed variable %s" % (where, s.fn))


# ---------------------------------------------------------------------------
# Public entry points


def parse_spec(text: str, sig: Optional[Signature] = None) -> ProblemSpec:
    parser = Parser(text, sig)
    return parser.parse_spec_body()


def parse_lha(text: str, sig: Optional[Signature] = None) -> HybridAutomaton:
    """A hybrid automaton, its parallel edges numbered and its atoms
    checked (SortError for a flow or predicate of the wrong shape)."""
    parser = Parser(text, sig)
    return parser.parse_lha_body()


def parse_statements(text: str, sig: Signature) -> List[Formula]:
    parser = Parser(text, sig)
    out = parser.parse_statements_until(lambda: False)
    if not parser.at_end():
        raise parser.error("trailing input")
    return out


def parse_formula(text: str, sig: Signature) -> Formula:
    text = text.strip()
    if not text.endswith(";"):
        text += ";"
    statements = parse_statements(text, sig)
    if len(statements) != 1:
        raise ParseError("expected a single formula")
    return statements[0]


def parse_term_string(text: str, sig: Signature) -> Term:
    parser = Parser(text, sig)
    term = parser.parse_term(())
    if not parser.at_end():
        raise parser.error("trailing input")
    return term


def parse_decl_string(text: str, with_level: bool) -> List[Tuple[str, int, int]]:
    parser = Parser(text)
    decls = parser.parse_decl_set(with_level)
    if not parser.at_end():
        raise parser.error("trailing input")
    return decls


# ---------------------------------------------------------------------------
# Task files

# each mode, the specification types it runs on and the options and
# flags it reads on each; every mode reads print_steps, and any other
# input a task gives is ignored with a warning
_REDUCES = ("assumptions", "--assume", "--dump-reduction", "--dump-smtlib")
_GENERATES = ("parameter", "eliminate", "slfq_query") + _REDUCES
MODES = {
    "GENERATE_CONSTRAINTS": {"HPILOT": _GENERATES + ("--seed-closure",), "LHA": _GENERATES + ("candidate", "vcs")},
    "INVARIANT_STRENGTHENING": {"PTS": ("parameter", "inv_str_max_iter")},
    "CHECK_INVARIANT": {"PTS": (), "LHA": ("candidate",) + _REDUCES},
    "BMC": {"PTS": ("bmc_k",)},
    "CHATTER_FREE": {"LHA": _GENERATES + ("epsilon", "vcs")},
}
SPEC_TYPES = ("HPILOT", "PTS", "LHA")
THEORIES = ("REAL_CLOSED_FIELDS", "PRESBURGER_ARITHMETIC")

_KNOWN_TOP_KEYS = {"tasks", "task_options"}
_KNOWN_TASK_KEYS = {"mode", "options", "specification_type", "specification_theory", "specification"}
_KNOWN_OPTION_KEYS = {key for row in MODES.values() for reads in row.values() for key in reads if key[0] != "-"}
_KNOWN_OPTION_KEYS.add("print_steps")


# the options a task may leave out, and the values it then runs with
OPTION_DEFAULTS = {"bmc_k": 1, "inv_str_max_iter": 10, "slfq_query": False, "print_steps": False}

# (option, a test of its value, what the error message asks for)
_SCALAR_OPTIONS = (
    ("epsilon", lambda v: type(v) in (int, str) or type(v) is float and isfinite(v), "a finite number or a term"),
    ("candidate", lambda v: type(v) is str, "a string"),
    ("slfq_query", lambda v: type(v) is bool, "true or false"),
    ("print_steps", lambda v: type(v) is bool, "true or false"),
)


class TaskSpec(Record):
    """A task as its mode runs it: the options its mode reads, defaults
    filled in, the texts among them parsed into candidate, assumptions
    and epsilon."""

    def __init__(self, name, mode, spec_type, theory, body, options=None):
        self.name: str = name
        self.mode: str = mode
        self.spec_type: str = spec_type
        self.theory: str = theory
        self.body: object = body  # ProblemSpec | TransitionSystem | HybridAutomaton
        self.options: Dict[str, object] = {} if options is None else options
        self.candidate: List[Formula] = []
        self.assumptions: List[Formula] = []
        self.epsilon: Optional[Term] = None


class TaskFile(Record):
    def __init__(self, tasks, warnings=None):
        self.tasks: Dict[str, TaskSpec] = tasks
        self.warnings: List[str] = [] if warnings is None else warnings


# ---------------------------------------------------------------------------
# The YAML subset task files are written in (README, "Task file syntax"): for it
# the reader returns what PyYAML's SafeLoader does, YAML 1.1 resolution
# included, and anything else is a ParseError at its first character.

# plain scalars YAML 1.1 reads as constants, in the casings PyYAML resolves
_CONSTANTS = {
    form: value
    for forms, value in (
        ("~ null Null NULL", None), ("true True TRUE", True), ("false False FALSE", False),
        (".inf .Inf .INF +.inf +.Inf +.INF", inf), ("-.inf -.Inf -.INF", -inf), (".nan .NaN .NAN", nan),
    )
    for form in forms.split()
}
# The reader's patterns are compiled by each reader through re's cache, not
# at import: library use that reads no task file never compiles them.
_INT = r"[-+]?(?:0|[1-9][0-9]*)\Z"
_FLOAT = r"(?:[-+]?[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][-+][0-9]+)?\Z"
# the other plain scalars that PyYAML's resolver reads as ints, floats,
# timestamps, bools, merge keys or value keys; the reader rejects them
_YAML11_WORDS = frozenset("yes Yes YES no No NO on On ON off Off OFF << =".split())
_YAML11_NUMBER = (
    r"(?:[-+]?(?:0b[0-1_]+|0[0-7_]+|(?:0|[1-9][0-9_]*)|0x[0-9a-fA-F_]+|[1-9][0-9_]*(?::[0-5]?[0-9])+"
    r"|[0-9][0-9_]*\.[0-9_]*(?:[eE][-+][0-9]+)?|[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]*|\.(?:inf|Inf|INF))"
    r"|\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?|\.(?:nan|NaN|NAN)|[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"|[0-9]{4}-[0-9]{1,2}-[0-9]{1,2}(?:[Tt]|[ \t]+)[0-9]{1,2}:[0-9]{2}:[0-9]{2}(?:\.[0-9]*)?"
    r"(?:[ \t]*(?:Z|[-+][0-9]{1,2}(?::[0-9]{2})?))?)\Z"
)
# a plain scalar ends at " #", at a ':' before a blank or the line's end,
# at a tab and at the line's end; in a flow collection also at ",?[]{}"
# and at a ':' before one of ",[]{}"
_PLAIN = r"(?:[^ \t\n:]|:(?=[^ \t\n])| +(?=[^ \t\n#]))*"
_FLOW_PLAIN = r"(?:[^ \t\n:,?\[\]{}]|:(?=[^ \t\n,\[\]{}])| +(?=[^ \t\n#,?\[\]{}]))*"
# a quoted scalar on one line; group 2 is empty where it does not close
_QUOTED = {"'": r"'((?:[^'\n]|'')*)('?)", '"': r'"((?:[^"\\\n]|\\[\\"])*)("?)'}
_BLANKS = r" *(?:#[^\n]*)?"
_FLOW_BLANKS = r"(?:[ \n]|#[^\n]*)*"
# blanks and a comment, then any blank and comment lines and the next line's
# indentation (group 1), or a comment that ends the file
_NEXT_LINE = r" *(?:#[^\n]*)?(?:\n(?: *(?:#[^\n]*)?\n)*( *)(?:#[^\n]*)?)?"
# the blank lines above a block scalar's text, and its first line's indentation
_LEADING = r"((?: *\n)*)( *)"
_VALUE = r" *:(?=[ \t\n]|\Z)"
_SEPARATORS = ("", " ", "\t", "\n")
_TAB = "a tab is allowed only in a quoted or block scalar or a comment"
# the characters a plain scalar does not start with, and the end of the file
_NOT_PLAIN = frozenset(_SEPARATORS + tuple("-,:[]{}#|'\"@`&*!%?>"))
_UNSUPPORTED = {
    "&": "anchors", "*": "aliases", "!": "tags", "%": "directives", "?": "complex keys", ">": "folded block scalars"
}
# the characters PyYAML does not read, and the line breaks other than "\n"
_UNREADABLE = "[\x00-\x08\x0b-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff\ufffe\uffff]"


class _TaskYaml:
    """A reader of one task file document; pos is its place in text."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.blanks, self.flow_blanks, self.plain, self.flow_plain, self.next_line_match, self.value_match = (
            re.compile(p).match for p in (_BLANKS, _FLOW_BLANKS, _PLAIN, _FLOW_PLAIN, _NEXT_LINE, _VALUE)
        )

    def error(self, message: str, at: Optional[int] = None) -> ParseError:
        return ParseError("invalid task file: " + message, *position(self.text, self.pos if at is None else at))

    def column(self) -> int:
        return self.pos - self.text.rfind("\n", 0, self.pos) - 1

    def skip(self, flow: bool = False) -> str:
        """Move past blanks and a comment, and in a flow collection past line
        breaks too; the character reached, "" at the end."""
        ch = self.text[self.pos : self.pos + 1]
        if ch == " " or ch == "#" or ch == "\n" and flow:
            self.pos = (self.flow_blanks if flow else self.blanks)(self.text, self.pos).end()
            ch = self.text[self.pos : self.pos + 1]
        if ch == "\t":
            raise self.error(_TAB)
        return ch

    def end_line(self) -> None:
        ch = self.skip()
        if ch not in ("", "\n"):
            raise self.error("expected the end of the line, found %r" % ch)

    def next_line(self) -> int:
        """Move to the first character of the next line, or of this one,
        that holds more than blanks and a comment; its column, -1 at the end."""
        m = self.next_line_match(self.text, self.pos)
        self.pos = m.end()
        ch = self.text[self.pos : self.pos + 1]
        if ch == "\t":
            raise self.error(_TAB)
        if not ch:
            return -1
        self.no_marker()
        return self.column() if m.group(1) is None else len(m.group(1))

    def no_marker(self) -> None:
        """Reject a document marker: "---" or "..." at a line's start, before a blank."""
        text, pos = self.text, self.pos
        if text.startswith(("---", "..."), pos) and text[pos + 3 : pos + 4] in _SEPARATORS and self.column() == 0:
            raise self.error("document markers are not supported")

    def at_entry(self) -> bool:
        return self.text.startswith("-", self.pos) and self.text[self.pos + 1 : self.pos + 2] in _SEPARATORS

    def at_value(self) -> bool:
        """Move past a key's ':' if one follows."""
        m = self.value_match(self.text, self.pos)
        if m:
            self.pos = m.end()
        return m is not None

    def key(self, mapping: dict, key, at: int):
        if isinstance(key, (list, dict)):
            raise self.error("complex keys are not supported", at)
        if key in mapping:
            raise self.error("duplicate key %r" % (key,), at)
        return key

    def node(self, parent: int):
        """The block node at pos, in a block collection indented by parent."""
        if self.at_entry():
            return self.sequence(self.column())
        if self.text.startswith("|", self.pos):
            return self.literal(parent)
        start, column = self.pos, self.column()
        value = self.flow_node(False)
        if self.at_value():
            return self.mapping(column, start, value)
        self.end_line()
        return value

    def mapping(self, column: int, start: int, key) -> dict:
        mapping: dict = {}
        while True:
            key = self.key(mapping, key, start)
            mapping[key] = self.value(column)
            indent = self.next_line()
            if indent > column:
                raise self.error("unexpected indentation")
            if indent < column:
                return mapping
            start = self.pos
            key = self.flow_node(False)
            if not self.at_value():
                raise self.error("expected ':' after a key")

    def value(self, indent: int):
        """The value after a ':' in a block mapping indented by indent."""
        ch = self.skip()
        if ch == "|":
            return self.literal(indent)
        if ch not in ("", "\n"):
            value = self.flow_node(False)
            self.end_line()
            return value
        column = self.next_line()
        return self.node(indent) if column > indent or column == indent and self.at_entry() else None

    def sequence(self, column: int) -> list:
        items = []
        while True:
            self.pos += 1
            if self.skip() in ("", "\n"):
                items.append(self.node(column) if self.next_line() > column else None)
            else:
                items.append(self.node(column))
            indent = self.next_line()
            if indent > column:
                raise self.error("unexpected indentation")
            if indent < column or not self.at_entry():
                return items

    def literal(self, parent: int) -> str:
        """A '|' or '|-' block scalar, in a block collection indented by parent."""
        text = self.text
        self.pos += 1
        strip = text.startswith("-", self.pos)
        self.pos += strip
        ch = text[self.pos : self.pos + 1]
        if ch in ("+", "-") or ch.isdigit():
            raise self.error("block scalar indicators other than '|' and '|-' are not supported")
        if ch not in _SEPARATORS:  # a comment too must be set off by a blank
            raise self.error("expected the end of the line, found %r" % ch)
        self.end_line()
        start = min(self.pos + 1, len(text))
        m = re.compile(_LEADING).match(text, start)
        lead = len(m.group(2))
        if lead <= max(parent, 0) or m.end() == len(text):  # text at column 0 ends it
            self.pos = m.start(2)
            return ""
        if m.group(1) and max(map(len, m.group(1).split("\n"))) > lead:
            raise self.error("a blank line above a block scalar's text is indented deeper", start)
        self.pos = re.compile(r"(?:(?: {%d}[^\n]*| *)\n)*(?: {%d}[^\n]*\Z)?" % (lead, lead)).match(text, start).end()
        lines = [line[lead:] for line in text[start : self.pos].split("\n")]
        kept = len(lines)
        while lines and not lines[-1]:
            lines.pop()
        body = "\n".join(lines)
        # the last line kept ends with a line break unless it ends the file
        return body + "\n" if len(lines) < kept and not strip else body

    def flow_node(self, flow: bool):
        """The scalar or flow collection at pos; flow inside a flow collection."""
        text, start = self.text, self.pos
        ch = text[start : start + 1]
        if flow:  # a flow collection may run over several lines
            self.no_marker()
        if ch in _NOT_PLAIN:
            if ch == "[" or ch == "{":
                return self.collection()
            if ch == "'" or ch == '"':
                return self.quoted(ch)
            # as in YAML, "-", and "?" and ":" outside a flow collection,
            # start a plain scalar when a character other than a blank follows
            if ch not in "-?:" or text[start + 1 : start + 2] in _SEPARATORS or flow and ch != "-":
                if ch in _UNSUPPORTED:
                    raise self.error("%s are not supported" % _UNSUPPORTED[ch])
                raise self.error("expected a value, found %r" % (ch or "end of file"))
        self.pos = (self.flow_plain if flow else self.plain)(text, start).end()
        plain = text[start : self.pos].rstrip(" ")
        if plain in _CONSTANTS:
            return _CONSTANTS[plain]
        if plain[0] in "-+.0123456789":
            if re.match(_INT, plain):
                return int(plain)
            if re.match(_FLOAT, plain):
                return float(plain)
            typed = re.match(_YAML11_NUMBER, plain)
        else:
            typed = plain in _YAML11_WORDS
        if typed:
            raise self.error("%r is not a string in YAML 1.1; quote it" % plain, start)
        return plain

    def quoted(self, quote: str) -> str:
        m = re.compile(_QUOTED[quote]).match(self.text, self.pos)
        self.pos = m.end()
        if not m.group(2):
            bad_escape = self.text.startswith("\\", self.pos)
            raise self.error("only \\\\ and \\\" are escapes" if bad_escape else "a quoted scalar ends on its line")
        body = m.group(1)
        if quote == "'":
            return body.replace("''", "'")
        return re.sub(r"\\(.)", r"\1", body) if "\\" in body else body

    def collection(self):
        text, start = self.text, self.pos
        close = "]" if text[start] == "[" else "}"
        items = [] if close == "]" else {}
        self.pos += 1
        ch = self.skip(True)
        while ch != close:
            at = self.pos
            item = self.flow_node(True)
            if close == "]":
                items.append(item)
            else:
                key, value = self.key(items, item, at), None
                if self.skip() == ":":  # on the key's line, as YAML wants
                    self.pos += 1
                    if self.skip(True) not in (",", "}", ""):
                        value = self.flow_node(True)
                items[key] = value
            ch = self.skip(True)
            if ch != ",":
                break
            self.pos += 1
            ch = self.skip(True)
        if not ch:
            raise self.error("unclosed %r" % text[start], start)
        if ch != close:
            raise self.error("expected ',' or %r, found %r" % (close, ch))
        self.pos += 1
        return items


def _read_task_yaml(text: str):
    """The document of a task file, as PyYAML's SafeLoader reads it."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if not text.replace("\n", "").replace("\t", "").isprintable():
        bad = re.search(_UNREADABLE, text)
        if bad:
            raise ParseError("invalid task file: unsupported character %r" % bad.group(), *position(text, bad.start()))
    reader = _TaskYaml(text[1:] if text.startswith("\ufeff") else text)
    doc = reader.node(-1) if reader.next_line() >= 0 else None
    if reader.next_line() >= 0:
        raise reader.error("expected the end of the file")
    return doc


def parse_task_file(text: str) -> TaskFile:
    doc = _read_task_yaml(text)
    if not isinstance(doc, dict):
        raise ParseError("task file must be a mapping")
    warnings = [
        "unknown top-level key %r ignored" % key for key in doc if key not in _KNOWN_TOP_KEYS
    ]
    tasks_doc = doc.get("tasks")
    if not tasks_doc:
        raise ParseError("no tasks")
    if not isinstance(tasks_doc, dict):
        raise ParseError("tasks must be a mapping")
    task_options = doc.get("task_options") or {}
    if not isinstance(task_options, dict):
        raise ParseError("task_options must be a mapping")
    warnings += ["task_options: unknown option %r ignored" % k for k in task_options if k not in _KNOWN_OPTION_KEYS]
    tasks: Dict[str, TaskSpec] = {}
    for name, body in tasks_doc.items():
        if not isinstance(body or {}, dict):
            raise ParseError("task %s must be a mapping" % name)
        task, extra = _parse_task(str(name), body or {}, task_options)
        tasks[str(name)] = task
        warnings.extend(extra)
    read = {"print_steps"}.union(*(MODES[t.mode][t.spec_type] for t in tasks.values()))
    warnings += [
        "task_options: option %r read by no task" % k for k in task_options if k in _KNOWN_OPTION_KEYS and k not in read
    ]
    return TaskFile(tasks, warnings)


def _parse_task(name: str, doc: dict, defaults: dict) -> Tuple[TaskSpec, List[str]]:
    warnings = ["task %s: unknown key %r ignored" % (name, k) for k in doc if k not in _KNOWN_TASK_KEYS]
    mode = doc.get("mode")
    if mode not in MODES:
        raise ParseError("task %s: unknown mode %r" % (name, mode))
    spec_type = doc.get("specification_type")
    if spec_type not in SPEC_TYPES:
        raise ParseError("task %s: unknown specification_type %r" % (name, spec_type))
    if spec_type not in MODES[mode]:
        raise ParseError(
            "task %s: mode %s runs on %s specifications, not %s" % (name, mode, " or ".join(MODES[mode]), spec_type)
        )
    theory = doc.get("specification_theory", "REAL_CLOSED_FIELDS")
    if theory not in THEORIES:
        raise ParseError("task %s: unknown specification_theory %r" % (name, theory))
    options = {**OPTION_DEFAULTS, **defaults}
    raw_options = doc.get("options") or {}
    if not isinstance(raw_options, dict):
        raise ParseError("task %s: options must be a mapping" % name)
    warnings.extend(
        "task %s: unknown option %r ignored" % (name, k) for k in raw_options if k not in _KNOWN_OPTION_KEYS
    )
    options.update({k: v for k, v in raw_options.items() if k in _KNOWN_OPTION_KEYS})
    if "parameter" in options and "eliminate" in options:
        raise ParseError("task %s: parameter and eliminate are mutually exclusive" % name)
    if isinstance(options.get("assumptions"), str):
        options["assumptions"] = [options["assumptions"]]
    for key in ("assumptions", "parameter", "eliminate", "vcs"):
        value = options.get(key)
        if value is not None and not (isinstance(value, list) and all(type(s) is str for s in value)):
            shape = "a string or a list of strings" if key == "assumptions" else "a list of strings"
            raise ParseError("task %s: option %s must be %s" % (name, key, shape))
    for key, least in (("bmc_k", 0), ("inv_str_max_iter", 1)):
        value = options[key]
        if type(value) is not int or value < least:
            raise ParseError("task %s: option %s must be an integer >= %d, got %r" % (name, key, least, value))
    for key, valid, shape in _SCALAR_OPTIONS:
        if key in options and not valid(options[key]):
            raise ParseError("task %s: option %s must be %s, got %r" % (name, key, shape, options[key]))
    if mode == "GENERATE_CONSTRAINTS" and spec_type == "HPILOT":
        # hybrid-automaton tasks default to eliminating the state variables
        if ("parameter" in options) == ("eliminate" in options):
            raise ParseError("task %s: exactly one of parameter/eliminate is required" % name)
    if mode == "INVARIANT_STRENGTHENING" and not options.get("parameter"):
        raise ParseError("task %s: INVARIANT_STRENGTHENING needs a non-empty parameter list" % name)
    if spec_type == "LHA" and mode in ("GENERATE_CONSTRAINTS", "CHECK_INVARIANT") and not options.get("candidate"):
        raise ParseError("task %s: %s on an LHA specification needs a candidate option" % (name, mode))
    spec_doc = doc.get("specification")
    if spec_doc is None:
        raise ParseError("task %s: missing specification" % name)
    try:
        body = _parse_task_body(name, spec_type, spec_doc)
    except (SignatureError, SortError) as exc:
        raise ParseError("task %s: %s" % (name, exc))
    reads = MODES[mode][spec_type]
    for key in [k for k in options if k != "print_steps" and k not in reads]:
        del options[key]
        if key in raw_options:
            warnings.append("task %s: option %r ignored by %s on %s" % (name, key, mode, spec_type))
    task, sig = TaskSpec(name, mode, spec_type, theory, body, options), body.sig
    if "candidate" in options:
        task.candidate = parse_input(name, "option candidate", parse_statements, options.pop("candidate"), sig)
    if "assumptions" in options:
        task.assumptions = parse_input(name, "option assumptions", parse_assumptions, options.pop("assumptions"), sig)
    if "epsilon" in reads:
        epsilon = options.pop("epsilon", "epsilon")  # a number is read as its numeral
        epsilon = epsilon if type(epsilon) is str else "_%s" % Fraction(str(epsilon))
        task.epsilon = parse_input(name, "option epsilon", parse_term_string, epsilon, sig)
    for key in ("parameter", "eliminate"):
        # an LHA task may list t undeclared: the duration, which no text declares, is always eliminated
        duration = (DURATION,) if key == "eliminate" and spec_type == "LHA" else ()
        unknown = [s for s in options.get(key) or () if sig.arity_of(s) is None and s not in duration]
        if unknown:
            raise ParseError("task %s: option %s: %s names no symbol of the task" % (name, key, ", ".join(unknown)))
    return task, warnings


def parse_input(task: str, what: str, parse, *args):
    """parse(*args), any error in it a ParseError naming the task and what it read."""
    try:
        return parse(*args)
    except (ParseError, EngineError) as exc:
        raise ParseError("task %s: %s: %s" % (task, what, exc))


def parse_assumptions(texts: List[str], sig: Signature) -> List[Formula]:
    """The ';'-separated atoms of the texts; a SortError for any that
    linear.assumptions_from rejects."""
    formulas = [parse_formula(part, sig) for text in texts for part in text.split(";") if part.strip()]
    assumptions_from(formulas)
    return formulas


def parse_seed_terms(text: str, sig: Signature) -> List[Term]:
    """Ground terms, one a line with an optional final ';'; '#' starts a comment line."""
    lines = (line.strip() for line in text.splitlines())
    return [parse_term_string(line.rstrip(";"), sig) for line in lines if line and not line.startswith("#")]


def _parse_task_body(name: str, spec_type: str, doc) -> object:
    def parsed(key: str, default: str, parse, *args):
        """Parse one specification entry; a syntax error in it names
        the task and the entry."""
        value = doc.get(key, default)
        if not isinstance(value, str):
            raise ParseError("task %s: specification entry %s must be a string" % (name, key))
        try:
            return parse(value, *args)
        except ParseError as exc:
            raise ParseError("task %s: specification entry %s: %s" % (name, key, exc))

    if spec_type in ("HPILOT", "LHA"):
        if not isinstance(doc, dict) or "file" not in doc:
            raise ParseError("task %s: specification needs a 'file' entry" % name)
        return parsed("file", "", parse_spec if spec_type == "HPILOT" else parse_lha)
    if not isinstance(doc, dict):
        raise ParseError("task %s: PTS specification must be a mapping" % name)
    sig = Signature()
    for fn, arity, _ in parsed("base_functions", "{}", parse_decl_string, False):
        sig.base_functions[fn] = arity
    for fn, arity, level in parsed("extension_functions", "{}", parse_decl_string, True):
        sig.extension_functions[fn] = (arity, level)
    for rel, arity, _ in parsed("relations", "{}", parse_decl_string, False):
        sig.relations[rel] = arity
    init = parsed("init", "", parse_statements, sig)
    update = parsed("update", "", parse_statements, sig)
    query = parsed("query", "", parse_statements, sig)
    update_vars_doc = doc.get("update_vars") or {}
    if not isinstance(update_vars_doc, dict):
        raise ParseError("task %s: specification entry update_vars must be a mapping" % name)
    update_vars = {str(k).strip(): str(v).strip() for k, v in update_vars_doc.items()}
    for old, new in update_vars.items():
        if sig.arity_of(old) is None:
            sig.declare_constant(old)
        if sig.arity_of(new) is None:
            sig.declare_constant(new)
        if sig.arity_of(old) != sig.arity_of(new):
            raise ParseError("task %s: update pair %s:%s changes arity" % (name, old, new))
    sig.validate()
    return TransitionSystem(sig, init, update, query, update_vars)
