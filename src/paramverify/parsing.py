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
underscore ("_1", "_3/2").  Task files are YAML documents whose layout
matches the task listings (tasks, per-task mode/options/specification).

Each task's body is the record the engine runs: a ProblemSpec (HPILOT),
a TransitionSystem (PTS) or a HybridAutomaton (LHA, its atoms checked
here).  A task is checked completely at parse time, its mode against
the specification types it runs on (MODES), its required options and
the texts of the options its mode reads included, so every malformed
task is a ParseError that names it.
"""

from fractions import Fraction
from math import isfinite
from typing import Dict, List, Optional, Tuple

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
    Node,
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

_OPERATORS = [
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


class Token(Node):
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        object.__setattr__(self, "kind", kind)  # IDENT | INT | NUMERAL | OP | EOF
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)

    def __eq__(self, other):
        return (
            type(other) is Token
            and self.kind == other.kind
            and self.text == other.text
            and self.line == other.line
            and self.column == other.column
        )

    def __hash__(self):
        return hash((self.kind, self.text, self.line, self.column))


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
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
            tokens.append(Token("NUMERAL", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token("OP", op, line, col))
                col += len(op)
                i += len(op)
                break
        else:
            raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


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
        self.tokens = tokenize(text)
        self.pos = 0
        self.sig = sig if sig is not None else Signature()
        self.nesting = 0  # parentheses and argument lists open around the current term

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError("expected %r, found %r" % (text, tok.text or "end of input"), tok.line, tok.column)
        return tok

    def expect_ident(self) -> Token:
        tok = self.next()
        if tok.kind != "IDENT":
            raise ParseError("expected identifier, found %r" % (tok.text or "end of input"), tok.line, tok.column)
        return tok

    def at_end(self) -> bool:
        return self.peek().kind == "EOF"

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    # -- declarations

    def parse_decl_set(self, with_level: bool) -> List[Tuple[str, int, int]]:
        self.expect("{")
        decls: List[Tuple[str, int, int]] = []
        if self.peek().text != "}":
            while True:
                decls.append(self.parse_decl(with_level))
                if self.peek().text != ",":
                    break
                self.next()
        self.expect("}")
        return decls

    def parse_decl(self, with_level: bool) -> Tuple[str, int, int]:
        self.expect("(")
        tok = self.next()
        if tok.kind not in ("IDENT", "OP") or tok.text in ("(", ")", "{", "}", ",", ";"):
            raise ParseError("expected a function or relation name", tok.line, tok.column)
        name = tok.text
        self.expect(",")
        arity = self.parse_int()
        level = 0
        if with_level and self.peek().text == ",":
            self.next()
            level = self.parse_int()
        self.expect(")")
        return name, arity, level

    def parse_int(self) -> int:
        tok = self.next()
        if tok.kind != "INT":
            raise ParseError("expected an integer, found %r" % tok.text, tok.line, tok.column)
        return int(tok.text)

    # -- terms and formulas

    def parse_term(self, scope: Tuple[str, ...]) -> Term:
        return self._term(scope)[0]

    # Each term comes with its nesting depth: every operator or function
    # application and every pair of parentheses adds a level.

    def _deeper(self, depth: int, tok: Token) -> int:
        if depth >= MAX_TERM_DEPTH:
            raise ParseError("term nested deeper than %d levels" % MAX_TERM_DEPTH, tok.line, tok.column)
        return depth + 1

    def _term(self, scope: Tuple[str, ...]) -> Tuple[Term, int]:
        left, depth = self._factor(scope)
        while self.peek().text in ("+", "-") and self.peek().kind == "OP":
            tok = self.next()
            right, rdepth = self._factor(scope)
            left, depth = App(tok.text, (left, right)), self._deeper(max(depth, rdepth), tok)
        return left, depth

    def _factor(self, scope: Tuple[str, ...]) -> Tuple[Term, int]:
        left, depth = self._unary(scope)
        while self.peek().text == "*" and self.peek().kind == "OP":
            tok = self.next()
            right, rdepth = self._unary(scope)
            left, depth = App("*", (left, right)), self._deeper(max(depth, rdepth), tok)
        return left, depth

    def _unary(self, scope: Tuple[str, ...]) -> Tuple[Term, int]:
        signs: List[Token] = []
        while self.peek().text == "-" and self.peek().kind == "OP":
            signs.append(self.next())
        term, depth = self._primary(scope)
        for tok in reversed(signs):
            term, depth = App("-", (term,)), self._deeper(depth, tok)
        return term, depth

    def _primary(self, scope: Tuple[str, ...]) -> Tuple[Term, int]:
        tok = self.peek()
        if tok.kind == "NUMERAL":
            self.next()
            return Num(Fraction(tok.text[1:])), 0
        if tok.text == "(":
            self.next()
            self.nesting = self._deeper(self.nesting, tok)
            inner, depth = self._term(scope)
            self.nesting -= 1
            self.expect(")")
            return inner, self._deeper(depth, tok)
        if tok.kind == "IDENT":
            self.next()
            depth = 0
            if self.peek().text == "(":
                self.next()
                self.nesting = self._deeper(self.nesting, tok)
                args = [self._term(scope)]
                while self.peek().text == ",":
                    self.next()
                    args.append(self._term(scope))
                self.nesting -= 1
                self.expect(")")
                term: Term = App(tok.text, tuple(t for t, _ in args))
                depth = self._deeper(max(d for _, d in args), tok)
            elif tok.text in scope:
                return Var(tok.text), 0
            else:
                term = App(tok.text, ())
            try:
                check_term(self.sig, term, set(scope))
            except SignatureError as exc:
                raise ParseError(str(exc), tok.line, tok.column)
            return term, depth
        raise ParseError("expected a term, found %r" % (tok.text or "end of input"), tok.line, tok.column)

    # depth counts the connectives (OR, AND, NOT, -->) around the formula
    # being parsed
    def _deeper_formula(self, depth: int, tok: Token) -> int:
        if depth >= MAX_FORMULA_DEPTH:
            raise ParseError("formula nested deeper than %d levels" % MAX_FORMULA_DEPTH, tok.line, tok.column)
        return depth + 1

    def parse_formula(self, scope: Tuple[str, ...], depth: int = 0) -> Formula:
        left = self.parse_disjunct(scope, depth)
        tok = self.peek()
        if tok.text == "-->":
            self.next()
            right = self.parse_formula(scope, self._deeper_formula(depth, tok))
            return Implies(left, right)
        return left

    def parse_disjunct(self, scope: Tuple[str, ...], depth: int = 0) -> Formula:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text in ("OR", "AND", "NOT") and self.peek(1).text == "(":
            depth = self._deeper_formula(depth, tok)
            self.next()
            self.next()
            parts = [self.parse_formula(scope, depth)]
            while self.peek().text == ",":
                self.next()
                parts.append(self.parse_formula(scope, depth))
            self.expect(")")
            if tok.text == "OR":
                return Or(tuple(parts))
            if tok.text == "AND":
                return And(tuple(parts))
            if len(parts) != 1:
                raise ParseError("NOT takes a single formula", tok.line, tok.column)
            return Not(parts[0])
        if tok.kind == "IDENT" and tok.text == "true" and self.peek(1).text not in ("(",):
            self.next()
            return TRUE
        if tok.kind == "IDENT" and tok.text == "false" and self.peek(1).text not in ("(",):
            self.next()
            return FALSE
        return self.parse_atom(scope)

    def parse_atom(self, scope: Tuple[str, ...]) -> Atom:
        lhs = self.parse_term(scope)
        tok = self.next()
        if tok.text not in ("<=", "<", ">=", ">", "=", "!="):
            raise ParseError("expected a relation, found %r" % (tok.text or "end of input"), tok.line, tok.column)
        if tok.text not in ("=", "!=") and tok.text not in self.sig.relations and self.sig.relations:
            raise ParseError("undeclared relation %s" % tok.text, tok.line, tok.column)
        rhs = self.parse_term(scope)
        return Atom(tok.text, lhs, rhs)

    def parse_statement(self) -> Formula:
        scope: Tuple[str, ...] = ()
        quantified = False
        if (
            self.peek().text == "("
            and self.peek(1).kind == "IDENT"
            and self.peek(1).text in ("FORALL", "EXISTS")
        ):
            self.next()
            kind = self.next().text
            if kind == "EXISTS":
                raise self.error("existential statements are not supported")
            names = [self.expect_ident().text]
            while self.peek().text == ",":
                self.next()
                names.append(self.expect_ident().text)
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
            self.peek().kind == "IDENT"
            and self.peek().text in SECTION_NAMES
            and self.peek(1).text == ":="
        )

    def parse_spec_body(self) -> ProblemSpec:
        spec = ProblemSpec(self.sig)
        seen = set()
        while not self.at_end():
            if not self.at_section():
                raise self.error("expected a section header")
            name = self.next().text
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
        variables = [self.expect_ident().text]
        while self.peek().text == ",":
            self.next()
            variables.append(self.expect_ident().text)
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
            if tok.text == "mode":
                name = self.parse_name()
                self.expect(":")
                if name in modes:
                    raise ParseError("duplicate mode %s" % name, tok.line, tok.column)
                mode = Mode(name)
                modes[name] = mode
                self.parse_lha_sections(
                    {"inv": mode.inv, "flow": mode.flow, "init": mode.init, "inenv": mode.inenv}
                )
            elif tok.text == "edge":
                source = self.parse_name()
                self.expect("->")
                target = self.parse_name()
                self.expect(":")
                index = parallel[source, target] = parallel.get((source, target), 0) + 1
                edge = Edge(source, target, index)
                edges.append(edge)
                self.parse_lha_sections({"guard": edge.guard, "jump": edge.jump})
            else:
                raise ParseError("expected 'mode' or 'edge', found %r" % tok.text, tok.line, tok.column)
        for edge in edges:
            if edge.source not in modes or edge.target not in modes:
                raise ParseError("edge %s -> %s references an unknown mode" % (edge.source, edge.target))
        del self.sig.base_functions["d"]
        for mode in modes.values():
            for f in mode.flow:
                _check_flow_atom(f, variables)
            for where, fs in (("inv", mode.inv), ("init", mode.init), ("inenv", mode.inenv)):
                for f in fs:
                    _check_state_atom(f, variables, where, allow_primed=False)
        for edge in edges:
            for f in edge.guard:
                _check_state_atom(f, variables, "guard", allow_primed=False)
            for f in edge.jump:
                _check_state_atom(f, variables, "jump", allow_primed=True)
        return HybridAutomaton(variables, modes, edges, self.sig)

    def parse_name(self) -> str:
        tok = self.next()
        if tok.kind not in ("IDENT", "INT"):
            raise ParseError("expected a mode name, found %r" % tok.text, tok.line, tok.column)
        return tok.text

    def parse_lha_sections(self, sections: Dict[str, List[Formula]]) -> None:
        def at_boundary() -> bool:
            tok = self.peek()
            if tok.kind != "IDENT":
                return False
            if tok.text in ("mode", "edge"):
                return True
            return tok.text in sections and self.peek(1).text == ":"

        while not self.at_end():
            tok = self.peek()
            if tok.text in ("mode", "edge"):
                return
            if tok.kind == "IDENT" and tok.text in sections and self.peek(1).text == ":":
                key = self.next().text
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


def _check_flow_atom(f: Formula, variables: List[str]) -> None:
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
                if s.args[0].fn not in variables:
                    raise SortError("derivative of undeclared variable %s" % s.args[0].fn)
                has_derivative = True
            elif isinstance(s, App) and not s.args and s.fn in variables:
                raise SortError("flow condition mentions state variable %s" % s.fn)
            elif isinstance(s, App) and not s.args and s.fn in [primed(x) for x in variables]:
                raise SortError("flow condition mentions primed variable %s" % s.fn)
    if not has_derivative:
        raise SortError("flow condition without derivative term")


def _check_state_atom(f: Formula, variables: List[str], where: str, allow_primed: bool) -> None:
    if not isinstance(f, Atom):
        raise SortError("%s predicates must be conjunctions of atoms" % where)
    primed_names = [primed(x) for x in variables]
    for s in formula_subterms(f):
        if isinstance(s, App) and s.fn == "d":
            raise SortError("%s predicate mentions a derivative" % where)
        if not allow_primed and isinstance(s, App) and not s.args and s.fn in primed_names:
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


# (option, a test of its value, what the error message asks for)
_SCALAR_OPTIONS = (
    ("epsilon", lambda v: type(v) in (int, str) or type(v) is float and isfinite(v), "a finite number or a term"),
    ("candidate", lambda v: type(v) is str, "a string"),
    ("slfq_query", lambda v: type(v) is bool, "true or false"),
    ("print_steps", lambda v: type(v) is bool, "true or false"),
)


class TaskSpec(Record):
    """A task as its mode runs it: the options its mode reads, the texts
    among them parsed into candidate, assumptions and epsilon."""

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
    def __init__(self, tasks, task_options=None, warnings=None):
        self.tasks: Dict[str, TaskSpec] = tasks
        self.task_options: Dict[str, object] = {} if task_options is None else task_options
        self.warnings: List[str] = [] if warnings is None else warnings


def parse_task_file(text: str) -> TaskFile:
    import yaml  # imported here: library use without task files never loads it

    try:
        # libyaml's loader when it is built in: the same documents, and
        # the same error positions, about ten times faster
        doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ParseError("invalid task file: %s" % exc, mark.line + 1, mark.column + 1)
        raise ParseError("invalid task file: %s" % exc)
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
    tasks: Dict[str, TaskSpec] = {}
    for name, body in tasks_doc.items():
        if not isinstance(body or {}, dict):
            raise ParseError("task %s must be a mapping" % name)
        task, extra = _parse_task(str(name), body or {}, task_options)
        tasks[str(name)] = task
        warnings.extend(extra)
    return TaskFile(tasks, task_options, warnings)


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
    options = dict(defaults)
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
        value = options.get(key, least)
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
    # an LHA task may eliminate the duration, which no text declares
    for key in ("parameter",) if spec_type == "LHA" else ("parameter", "eliminate"):
        unknown = [s for s in options.get(key) or () if sig.arity_of(s) is None]
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
