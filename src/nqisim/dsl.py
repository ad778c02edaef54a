"""Line-oriented circuit description language.

A ``.nqi`` file declares paths, sinks and atom levels, names the input
mode, and lists element statements; a ``repeat`` block runs its body a
given number of times, and a single ``classify`` statement maps every
path, and the sinks together, to one of the branch labels ``success``,
``failure`` and ``absorbed``.  Expressions are limited to +, -, *, /,
sin, cos, pi and other named parameters.  Example::

    paths l u
    sinks S+ S-
    atom-levels m+ m- g
    input l +
    repeat N {
      bs u l t=sin(pi/(2*N)) r=cos(pi/(2*N))
      atom u
      ...
    }
    classify l=success u=failure sinks=absorbed

Every element statement parses to one ``ElementStmt``, and each element
keyword is one entry in each of ``_SYNTAX`` (its arguments and usage),
``_BUILD`` (its element) and ``_FORM`` (its canonical form).

The compiler substitutes parameter bindings and checks beam-splitter and
rotator unitarity after substitution.  A repeat body has no loop index,
so it is compiled once and kept with its count as one ``Repeat`` node of
the program, which ``propagate`` runs by doubling the body's map; the
k-th atom interaction of the unrolled program scatters into the k-th sink
pair, and ``classify`` compiles into the photon rows of each branch label
(``CompiledCircuit.branches``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .elements import (
    AtomInteraction,
    BeamSplitter,
    Element,
    Mirror,
    PhaseShift,
    PolRotator,
    Relabel,
    Repeat,
    POL_FLIP,
    propagate,
    sink_pair_labels,
)
from .state import (
    ATOM_LEVELS,
    BRANCH_LABELS,
    AtomSpec,
    BasisLayout,
    JointState,
    ProtocolOutcome,
    _aimed_photon,
    _factor_rows,
    make_layout,
    score_outcome,
)
from .tolerances import PROB_TOL


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str, token: str = ""):
        self.line = line
        self.column = column
        self.message = message
        self.token = token
        super().__init__(f"line {line}, column {column}: {message}")


class CompileError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


# --------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


Expr = Union[Num, Name, Call, BinOp, Neg]

# The built-in constant and functions, which no let or binding may redefine.
_BUILTINS = {"pi": math.pi, "sin": math.sin, "cos": math.cos}

_EXPR_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[()+\-*/,]))"
)


class _ExprParser:
    """Recursive-descent parser for the tiny arithmetic language."""

    def __init__(self, text: str, line: int, col_offset: int):
        self.text = text
        self.line = line
        self.col_offset = col_offset
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _EXPR_TOKEN.match(text, pos)
            if m is None:
                rest = text[pos:]
                if rest.strip() == "":
                    break
                bad = pos + len(rest) - len(rest.lstrip())
                raise ParseError(
                    line,
                    col_offset + bad + 1,
                    f"unexpected character in expression: {text[bad]!r}",
                    text[bad],
                )
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def _error(self, message: str) -> ParseError:
        if self.i < len(self.tokens):
            _, tok, start = self.tokens[self.i]
            return ParseError(self.line, self.col_offset + start + 1, message, tok)
        # At the end of the expression: one past its last non-blank character.
        return ParseError(self.line, self.col_offset + len(self.text.rstrip()) + 1, message)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def accept(self, kind: str, value: str | None = None):
        tok = self.peek()
        if tok and tok[0] == kind and (value is None or tok[1] == value):
            self.i += 1
            return tok
        return None

    def parse(self) -> Expr:
        expr = self.sum()
        if self.peek() is not None:
            raise self._error("trailing tokens in expression")
        return expr

    def sum(self) -> Expr:
        expr = self.term()
        while True:
            if self.accept("op", "+"):
                expr = BinOp("+", expr, self.term())
            elif self.accept("op", "-"):
                expr = BinOp("-", expr, self.term())
            else:
                return expr

    def term(self) -> Expr:
        expr = self.factor()
        while True:
            if self.accept("op", "*"):
                expr = BinOp("*", expr, self.factor())
            elif self.accept("op", "/"):
                expr = BinOp("/", expr, self.factor())
            else:
                return expr

    def factor(self) -> Expr:
        if self.accept("op", "-"):
            return Neg(self.factor())
        tok = self.accept("num")
        if tok:
            return Num(float(tok[1]))
        tok = self.accept("name")
        if tok:
            name = tok[1]
            if callable(_BUILTINS.get(name)):
                if not self.accept("op", "("):
                    raise self._error(f"{name} needs an argument in parentheses")
                arg = self.sum()
                if not self.accept("op", ")"):
                    raise self._error("unbalanced parentheses")
                return Call(name, arg)
            return Name(name)
        if self.accept("op", "("):
            expr = self.sum()
            if not self.accept("op", ")"):
                raise self._error("unbalanced parentheses")
            return expr
        raise self._error("expected a number, name, or parenthesized expression")


def parse_expr(text: str, line: int = 1, col_offset: int = 0) -> Expr:
    return _ExprParser(text, line, col_offset).parse()


def eval_expr(expr: Expr, env: dict[str, float], line: int) -> float:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Name):
        if expr.ident in _BUILTINS:
            return _BUILTINS[expr.ident]
        if expr.ident not in env:
            raise CompileError(line, f"unbound parameter: {expr.ident}")
        return float(env[expr.ident])
    if isinstance(expr, Call):
        arg = eval_expr(expr.arg, env, line)
        try:
            return _BUILTINS[expr.fn](arg)
        except ValueError:  # sin or cos of an infinity
            raise CompileError(line, f"{expr.fn}({arg!r}) is undefined") from None
    if isinstance(expr, Neg):
        return -eval_expr(expr.operand, env, line)
    if isinstance(expr, BinOp):
        left = eval_expr(expr.left, env, line)
        right = eval_expr(expr.right, env, line)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            if right == 0:
                raise CompileError(line, "division by zero in expression")
            return left / right
    raise CompileError(line, f"unknown expression node: {expr!r}")


def print_expr(expr: Expr) -> str:
    if isinstance(expr, Num):
        # The shortest literal that parses back to the value; a literal that
        # overflowed prints as one that overflows again.
        return "1e400" if expr.value == math.inf else repr(expr.value).removesuffix(".0")
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, Call):
        return f"{expr.fn}({print_expr(expr.arg)})"
    if isinstance(expr, Neg):
        return f"(-{print_expr(expr.operand)})"
    if isinstance(expr, BinOp):
        return f"({print_expr(expr.left)}{expr.op}{print_expr(expr.right)})"
    raise ValueError(f"unknown expression node: {expr!r}")


# --------------------------------------------------------------------------
# Statements and AST


@dataclass(frozen=True)
class ElementStmt:
    """One element statement: its paths, expressions (none for ``rot ...
    flip``) and transparent levels, in source order."""

    line: int = field(compare=False)
    keyword: str
    paths: tuple[str, ...]
    exprs: tuple[Expr, ...] = ()
    levels: tuple[str, ...] = ()


@dataclass(frozen=True)
class RepeatStmt:
    line: int = field(compare=False)
    count_expr: Expr
    body: tuple["Stmt", ...]


Stmt = Union[ElementStmt, RepeatStmt]


@dataclass(frozen=True)
class LetBinding:
    line: int = field(compare=False)
    name: str
    expr: Expr


@dataclass(frozen=True)
class CircuitAst:
    paths: tuple[str, ...]
    sinks: tuple[str, str]
    atom_levels: tuple[str, ...]
    input_path: str
    input_pol: str
    lets: tuple[LetBinding, ...]
    statements: tuple[Stmt, ...]
    classifier: tuple[tuple[str, str], ...]  # (port-or-"sinks", label) pairs


_LABEL = r"[A-Za-z_][A-Za-z0-9_+\-#.]*|[+\-]"
_LABEL_RE = re.compile(f"^(?:{_LABEL})$")
_WORD = re.compile(r"\S+")
_ARG = re.compile(r"\S(?:.*\S)?")  # a span stripped of surrounding blanks

_POLS = ("+", "-", "x", "y")

# Each element keyword once.  _SYNTAX: the arguments after the keyword,
# whose groups take the roles spelled out in order (p a path, e an
# expression, m a ``matrix(...)`` of four, l transparent levels), and the
# usage message.  _BUILD: the element from the paths, the expression values
# and the levels.  _FORM: the canonical arguments from the paths, the
# printed expressions and the levels.
_SYNTAX = {
    kw: (re.compile(rf"^\s*{kw}\s+{args}$"), roles, usage)
    for kw, args, roles, usage in [
        ("bs", rf"({_LABEL})\s+({_LABEL})\s+t=(\S+)\s+r=(\S+)", "ppee",
         "malformed bs statement (bs A B t=... r=...)"),
        ("mirror", r"(\S+)", "p", "mirror needs one path"),
        ("rot", rf"({_LABEL})\s+(?:flip|(matrix\(.*\)))", "pm",
         "malformed rot statement (rot PATH flip|matrix(...))"),
        ("phase", r"(\S+)\s+(\S.*)", "pe", "phase needs a path and an expression"),
        ("atom", rf"({_LABEL})(?:\s+transparent:\s*(.+))?", "pl", "malformed atom statement"),
        ("relabel", rf"({_LABEL})\s*->\s*({_LABEL})", "pp",
         "malformed relabel statement (relabel A -> B)"),
    ]
}
_BUILD: dict[str, Callable[..., Element]] = {
    "bs": lambda p, v, l: BeamSplitter(*v, *p),
    "mirror": lambda p, v, l: Mirror(*p),
    "rot": lambda p, v, l: PolRotator(*p, np.reshape(v, (2, 2)) if v else POL_FLIP),
    "phase": lambda p, v, l: PhaseShift(*p, *v),
    "atom": lambda p, v, l: AtomInteraction(*p, frozenset(l)),
    "relabel": lambda p, v, l: Relabel(*p),
}
_FORM: dict[str, Callable[..., str]] = {
    "bs": lambda p, e, l: f"{p[0]} {p[1]} t={e[0]} r={e[1]}",
    "mirror": lambda p, e, l: p[0],
    "rot": lambda p, e, l: f"{p[0]} matrix({', '.join(e)})" if e else f"{p[0]} flip",
    "phase": lambda p, e, l: f"{p[0]} {e[0]}",
    "atom": lambda p, e, l: f"{p[0]} transparent: {' '.join(l)}" if l else p[0],
    "relabel": lambda p, e, l: f"{p[0]} -> {p[1]}",
}


def _words(line: str, pos: int = 0) -> list[tuple[str, int]]:
    """The words of ``line`` from ``pos`` on, each with its offset."""
    return [(m.group(), m.start()) for m in _WORD.finditer(line, pos)]


class _Parser:
    def __init__(self, source: str):
        self.lines = source.splitlines()
        self.i = 0
        self.paths: list[str] = []
        self.sinks: list[str] = []
        self.levels: list[str] = []
        self.levels_line = 1
        self.input_decl: tuple[str, str] | None = None
        self.lets: list[LetBinding] = []
        self.classifier: list[tuple[str, str]] | None = None
        self.let_names: set[str] = set()

    def error(self, lineno: int, message: str, token: str = "", at: int | None = None) -> ParseError:
        """Error at offset ``at`` of the line, by default its first word."""
        if at is None:
            line = self.lines[lineno - 1]
            at = len(line) - len(line.lstrip())
        return ParseError(lineno, at + 1, message, token)

    def _check_path(self, lineno: int, label: str, at: int) -> str:
        if label not in self.paths:
            raise self.error(lineno, f"undeclared path: {label}", label, at)
        return label

    def parse(self) -> CircuitAst:
        statements = self._parse_block(top_level=True)
        if not self.paths:
            raise ParseError(1, 1, "no declarations")
        if not self.sinks:
            raise ParseError(1, 1, "missing sinks statement")
        if self.input_decl is None:
            raise ParseError(1, 1, "missing input statement")
        missing = [lev for lev in ATOM_LEVELS if lev not in self.levels]
        if missing:
            raise self.error(
                self.levels_line,
                f"atom-levels must declare {' '.join(ATOM_LEVELS)}; missing {' '.join(missing)}",
                "atom-levels",
            )
        if self.classifier is None:
            raise ParseError(len(self.lines) or 1, 1, "missing classify statement")
        return CircuitAst(
            paths=tuple(self.paths),
            sinks=tuple(self.sinks),
            atom_levels=tuple(self.levels),
            input_path=self.input_decl[0],
            input_pol=self.input_decl[1],
            lets=tuple(self.lets),
            statements=tuple(statements),
            classifier=tuple(self.classifier),
        )

    def _parse_block(self, top_level: bool) -> list[Stmt]:
        statements: list[Stmt] = []
        while self.i < len(self.lines):
            lineno = self.i + 1
            raw = self.lines[self.i]
            self.i += 1
            line = raw.split("#", 1)[0].rstrip()
            if not line:
                continue
            if line.lstrip() == "}":
                if top_level:
                    raise self.error(lineno, "unbalanced '}'", "}")
                return statements
            stmt = self._parse_statement(lineno, line, top_level)
            if stmt is not None:
                statements.append(stmt)
        if not top_level:
            raise ParseError(len(self.lines), 1, "unclosed repeat block")
        return statements

    def _parse_statement(self, lineno: int, line: str, top_level: bool) -> Stmt | None:
        # ``line`` keeps its indentation: every offset is a source column.
        words = _words(line)
        keyword = words[0][0]

        if keyword in ("paths", "sinks", "atom-levels", "input", "classify") and not top_level:
            raise self.error(lineno, f"{keyword} is not allowed inside repeat", keyword)

        if keyword == "paths":
            self._declare(lineno, words[1:], self.paths, "path")
            return None
        if keyword == "sinks":
            if self.sinks:
                raise self.error(lineno, "duplicate sinks statement", keyword)
            if len(words) != 3:
                raise self.error(lineno, "sinks needs exactly two labels", keyword)
            self._declare(lineno, words[1:], self.sinks, "sink")
            return None
        if keyword == "atom-levels":
            self._declare(lineno, words[1:], self.levels, "atom level")
            self.levels_line = lineno
            return None
        if keyword == "input":
            if len(words) != 3:
                raise self.error(lineno, "input needs a path and a polarization", keyword)
            path = self._check_path(lineno, *words[1])
            pol = words[2][0]
            if pol not in _POLS:
                raise self.error(lineno, f"unknown polarization: {pol}", *words[2])
            if self.input_decl is not None:
                raise self.error(lineno, "duplicate input statement", keyword)
            self.input_decl = (path, pol)
            return None
        if keyword == "let":
            m = re.match(r"^\s*let\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$", line)
            if m is None:
                raise self.error(lineno, "malformed let binding", keyword)
            name = m.group(1)
            if name in _BUILTINS:
                raise self.error(lineno, f"cannot redefine built-in {name}", name, m.start(1))
            if name in self.let_names:
                raise self.error(lineno, f"duplicate let binding: {name}", name, m.start(1))
            self.let_names.add(name)
            expr = parse_expr(m.group(2), lineno, m.start(2))
            self.lets.append(LetBinding(lineno, name, expr))
            return None
        if keyword in _SYNTAX:
            pattern, roles, usage = _SYNTAX[keyword]
            m = pattern.match(line)
            if m is None:
                raise self.error(lineno, usage, keyword)
            spans: dict[str, list[tuple[str, int]]] = {role: [] for role in "peml"}
            for i, role in enumerate(roles, 1):
                if m.group(i) is not None:
                    spans[role].append((m.group(i), m.start(i)))
            paths = tuple(self._check_path(lineno, *span) for span in spans["p"])
            exprs = [parse_expr(text, lineno, at) for text, at in spans["e"]]
            for text, at in spans["m"]:
                parts = self._split_args(lineno, line, at + len("matrix("), at + len(text) - 1)
                if len(parts) != 4:
                    raise self.error(lineno, "matrix(...) needs four entries", "matrix", at)
                exprs += [parse_expr(part, lineno, part_at) for part, part_at in parts]
            levels = [word for _, at in spans["l"] for word in _words(line, at)]
            for lev, at in levels:
                if lev not in self.levels:
                    raise self.error(lineno, f"undeclared atom level: {lev}", lev, at)
            return ElementStmt(lineno, keyword, paths, tuple(exprs), tuple(lev for lev, _ in levels))
        if keyword == "repeat":
            m = re.match(r"^\s*repeat\s+(.+?)\s*\{$", line)
            if m is None:
                raise self.error(lineno, "malformed repeat statement (repeat N {)", keyword)
            count = parse_expr(m.group(1), lineno, m.start(1))
            body = self._parse_block(top_level=False)
            return RepeatStmt(lineno, count, tuple(body))
        if keyword == "classify":
            if self.classifier is not None:
                raise self.error(lineno, "duplicate classify statement", keyword)
            pairs = []
            seen_ports = set()
            for word, at in words[1:]:
                m = re.match(rf"^({_LABEL}|sinks)=([A-Za-z_][A-Za-z0-9_]*)$", word)
                if m is None:
                    raise self.error(lineno, f"malformed classify entry: {word}", word, at)
                port = m.group(1)
                if port != "sinks":
                    self._check_path(lineno, port, at)
                if port in seen_ports:
                    raise self.error(lineno, f"duplicate classify port: {port}", port, at)
                label = m.group(2)
                if label not in BRANCH_LABELS:
                    raise self.error(
                        lineno,
                        f"unknown branch label: {label} (expected {', '.join(BRANCH_LABELS)})",
                        word,
                        at,
                    )
                seen_ports.add(port)
                pairs.append((port, label))
            if "sinks" not in seen_ports:
                raise self.error(lineno, "classify must assign sinks=...", keyword)
            missing = [p for p in self.paths if p not in seen_ports]
            if missing:
                raise self.error(lineno, f"classify misses paths: {', '.join(missing)}", keyword)
            self.classifier = pairs
            return None

        raise self.error(lineno, f"unknown keyword: {keyword}", keyword)

    def _split_args(self, lineno: int, line: str, start: int, end: int) -> list[tuple[str, int]]:
        """The non-blank arguments of ``line[start:end]`` at parenthesis
        depth 0, stripped, each with its offset."""
        cuts, depth = [start - 1], 0
        for i in range(start, end):
            if line[i] == "," and depth == 0:
                cuts.append(i)
            elif line[i] == "(":
                depth += 1
            elif line[i] == ")":
                depth -= 1
                if depth < 0:
                    raise self.error(lineno, "unbalanced parentheses in matrix(...)", ")", i)
        spans = (_ARG.search(line, a + 1, b) for a, b in zip(cuts, cuts[1:] + [end]))
        return [(m.group(), m.start()) for m in spans if m]

    def _declare(self, lineno: int, labels: Sequence[tuple[str, int]], target: list[str], kind: str):
        if not labels:
            raise self.error(lineno, f"empty {kind} declaration")
        for label, at in labels:
            if not _LABEL_RE.match(label):
                raise self.error(lineno, f"invalid {kind} label: {label}", label, at)
            if label in self.paths or label in self.sinks or label in self.levels:
                raise self.error(lineno, f"duplicate label: {label}", label, at)
            target.append(label)


def parse(source: str) -> CircuitAst:
    """Parse a circuit description; raises ParseError with a location."""
    return _Parser(source).parse()


# --------------------------------------------------------------------------
# Canonical printer


def _print_stmt(stmt: Stmt, indent: str, out: list[str]) -> None:
    if isinstance(stmt, ElementStmt):
        exprs = [print_expr(e) for e in stmt.exprs]
        out.append(f"{indent}{stmt.keyword} {_FORM[stmt.keyword](stmt.paths, exprs, stmt.levels)}")
    elif isinstance(stmt, RepeatStmt):
        out.append(f"{indent}repeat {print_expr(stmt.count_expr)} {{")
        for inner in stmt.body:
            _print_stmt(inner, indent + "  ", out)
        out.append(f"{indent}}}")
    else:
        raise ValueError(f"unknown statement: {stmt!r}")


def print_circuit(ast: CircuitAst) -> str:
    """Render an AST back to canonical source; parse(print_circuit(x)) == x
    (equality ignores statement line numbers)."""
    out = [
        f"paths {' '.join(ast.paths)}",
        f"sinks {' '.join(ast.sinks)}",
        f"atom-levels {' '.join(ast.atom_levels)}",
        f"input {ast.input_path} {ast.input_pol}",
    ]
    for let in ast.lets:
        out.append(f"let {let.name} = {print_expr(let.expr)}")
    for stmt in ast.statements:
        _print_stmt(stmt, "", out)
    out.append("classify " + " ".join(f"{p}={l}" for p, l in ast.classifier))
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# Compiler


@dataclass(frozen=True, eq=False)
class _MaskRecord:
    """What a compiled circuit keeps for one transparency mask, made by
    its first run: the level response, read-only; the squared norms of its
    m+ and its m- column over each branch's rows (``branch_weights``) and
    over each path's block; for the cavity, each column that the first
    round trip leaves inside with the powers of its trip map and their
    norms (``protocols._Carried``); the non-zero rows of each branch
    that a run has factored (``run_compiled``), gathered when it first
    factors that branch; and the weights of each group of sinks that a run
    has read, taken when it is first read."""

    response: np.ndarray
    weights: dict[str, tuple[float, float]]
    ports: dict[str, tuple[float, float]]
    trips: tuple | None
    # Per branch label: the photon rows of its non-zero rows, path rows
    # first, their (m+, m-) response cells, read-only, and how many of
    # them are path rows.
    exits: dict[str, tuple[np.ndarray, np.ndarray, int]] = field(default_factory=dict)
    # Per tuple of sink labels that a run has read (``sink_weights``): the
    # squared norms of the m+ and the m- column over their rows.
    sinks: dict[tuple[str, ...], tuple[float, float]] = field(default_factory=dict)


@dataclass(frozen=True)
class CompiledCircuit:
    """A compiled circuit with, per transparency mask, its level response:
    one propagation, each absorbed amplitude under the level it came from,
    kept with what a run reads from it."""

    layout: BasisLayout
    # Elements and ``Repeat`` nodes, each interaction named with its sink
    # pair (a repeat body's with its first copy's); ``elements`` unrolls it.
    program: tuple[Element | Repeat, ...]
    # Photon rows of each branch label, in increasing order and read-only:
    # the classify statement compiled against the layout.
    branches: dict[str, np.ndarray] = field(compare=False)
    input_path: str
    input_pol: str
    # One record per transparency mask, made by its first run.
    _masks: dict[frozenset[str], _MaskRecord] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """The program unrolled, built on first access: each repeat body
        written out ``count`` times, the copies sharing its optics, and the
        k-th interaction given the k-th sink pair of the layout."""
        labels = iter(self.layout.sinks)
        return tuple(
            AtomInteraction(el.path, el.transparency_mask, next(labels), next(labels))
            if isinstance(el, AtomInteraction)
            else el
            for el in _unrolled(self.program)
        )

    @cached_property
    def _sink_rows(self) -> np.ndarray:
        """Whether each photon row is a sink row: every row after the path blocks."""
        return np.arange(self.layout.n_photon_modes) >= 2 * len(self.layout.paths)

    def _aimed_response(self, aims: Sequence[tuple[str, str]], mask: frozenset[str]) -> np.ndarray:
        """Final (photon mode, level, k) block of one ``propagate`` under
        ``mask`` of the photon aimed at each (path, polarization) of
        ``aims`` times the atom m+ = m- = 1; g is empty."""
        layout = self.layout
        n = 2 * len(layout.paths)
        levels = [layout.level_index(level) for level in ATOM_LEVELS[:2]]
        photons = np.zeros((n, layout.n_levels, len(aims)), dtype=complex)
        for j, (path, pol) in enumerate(aims):
            block, vector = _aimed_photon(layout, path, pol)
            photons[block, levels, j] = vector[:, None]
        response = np.zeros((layout.n_photon_modes, layout.n_levels, len(aims)), dtype=complex)
        response[:n], response[n:, levels] = propagate(layout, self.program, photons, mask=mask)
        return response

    def _record(self, mask: frozenset[str]) -> _MaskRecord:
        """The record of ``mask``, made on first use from one response."""
        record = self._masks.get(mask)
        if record is None:
            response, trips = self._respond(mask)
            response.flags.writeable = False
            plus, minus = self.layout._level_roles[:2]
            squares = response.real**2 + response.imag**2

            def norms(rows) -> tuple[float, float]:
                return float(squares[rows, plus].sum()), float(squares[rows, minus].sum())

            weights = {label: norms(rows) for label, rows in self.branches.items()}
            ports = {path: norms(block) for path, block in self.layout.path_block.items()}
            record = self._masks[mask] = _MaskRecord(response, weights, ports, trips)
        return record

    def _exit_rows(self, record: _MaskRecord, label: str) -> tuple[np.ndarray, np.ndarray, int]:
        """The photon rows and (m+, m-) response cells of the non-zero rows
        of branch ``label`` in ``record``'s response, gathered on first use:
        a response holds amplitude only at m+ and m-, and a branch's rows
        are in increasing order, so its path rows come first."""
        kept = record.exits.get(label)
        if kept is None:
            rows = self.branches[label]
            cells = record.response[rows[:, None], list(self.layout._level_roles[:2])]
            nonzero = cells.any(axis=1)
            rows, cells = rows[nonzero], cells[nonzero]
            rows.flags.writeable = cells.flags.writeable = False
            n_path = int(np.searchsorted(rows, 2 * len(self.layout.paths)))
            kept = record.exits[label] = (rows, cells, n_path)
        return kept

    def _respond(self, mask: frozenset[str]) -> tuple[np.ndarray, None]:
        """The level response under ``mask``, from one propagation of the
        input photon, and no round-trip maps."""
        return self._aimed_response([(self.input_path, self.input_pol)], mask)[..., 0], None

    def level_response(self, mask: frozenset[str]) -> np.ndarray:
        """Final (photon mode, level) matrix for the input photon times the
        atom m+ = m- = 1, propagated once per transparency mask and kept,
        read-only; a sink row keeps what it absorbed under the level it
        came from.  An absent atom has the mask ``state.ABSENT_MASK``."""
        return self._record(mask).response

    def branch_weights(self, mask: frozenset[str]) -> dict[str, tuple[float, float]]:
        """Per branch label, the squared norms of the m+ and of the m-
        column of ``level_response(mask)`` over its rows, computed once per
        mask."""
        return self._record(mask).weights

    def sink_weights(self, mask: frozenset[str], sinks: tuple[str, ...]) -> tuple[float, float]:
        """The squared norms of the m+ and of the m- column of
        ``level_response(mask)`` over the rows of ``sinks``, computed once
        per mask and tuple of labels: what they absorb is |alpha|^2 times
        the first plus |beta|^2 times the second, as for a branch."""
        record = self._record(mask)
        kept = record.sinks.get(sinks)
        if kept is None:
            cells = record.response[[self.layout.photon_index(sink) for sink in sinks]]
            squares = cells.real**2 + cells.imag**2
            plus, minus = self.layout._level_roles[:2]
            kept = float(squares[:, plus].sum()), float(squares[:, minus].sum())
            record.sinks[sinks] = kept
        return kept

    def amplitudes(self, atom: AtomSpec, rows=slice(None)) -> np.ndarray:
        """The final (photon mode, level) amplitudes of ``atom``'s run on the
        photon rows ``rows``, as a new array: the level response there with
        its m+ column scaled by alpha and its m- column by beta, and each
        sink row's amplitude moved to its g cell.  Each part of a product is
        formed from separate float products, as Python's complex multiply
        forms it, so the amplitudes agree bitwise with the numbers
        ``run_compiled`` factors whether or not the CPU fuses a
        multiply-add."""
        response = self.level_response(atom.transparency_mask)[rows]
        scale = atom.level_vector(self.layout)
        amps = np.empty_like(response)
        amps.real = scale.real * response.real - scale.imag * response.imag
        amps.imag = scale.real * response.imag + scale.imag * response.real
        sinks = self._sink_rows[rows]
        if np.count_nonzero(sinks):
            absorbed = amps[sinks]
            amps[sinks] = 0.0
            amps[sinks, self.layout.level_index(ATOM_LEVELS[2])] = absorbed.sum(axis=1)
        return amps


def _unrolled(program: Iterable[Element | Repeat]) -> Iterable[Element]:
    """The elements of ``program`` with every repeat written out."""
    for item in program:
        if isinstance(item, Repeat):
            body = tuple(_unrolled(item.body))
            for _ in range(item.count):
                yield from body
        else:
            yield item


# Unrolled program size beyond which a circuit is rejected, not built.  A
# repeat stays one node, so the cost is each interaction's own sink pair:
# mz.nqi at N = 10^5 (900,000 elements, 200,000 interactions) holds 29 MB
# once compiled, nearly all of it its 400,000 sink labels, and 49 MB with
# the record of one mask, after a peak of 74 MB while it is made
# (tracemalloc).
_MAX_ELEMENTS = 1_000_000


def compile_circuit(ast: CircuitAst, bindings: dict[str, float] | None = None) -> CompiledCircuit:
    """Substitute bindings, evaluate and validate each repeat body once, and
    keep it with its count as one ``Repeat`` node; a repeat of one is its
    body, and an empty body is dropped."""
    env: dict[str, float] = dict(bindings or {})
    builtin = sorted(_BUILTINS.keys() & env.keys())
    if builtin:
        raise ValueError(f"cannot bind built-in {', '.join(builtin)}")
    for let in ast.lets:
        env[let.name] = eval_expr(let.expr, env, let.line)
    # Elements and interactions of the unrolled program emitted so far.
    size = events = 0

    def emit(stmts: Iterable[Stmt]) -> list[Element | Repeat]:
        """The program of ``stmts``; the k-th interaction of the unrolled
        program scatters into the k-th sink pair."""
        nonlocal size, events
        program: list[Element | Repeat] = []
        for stmt in stmts:
            if isinstance(stmt, ElementStmt):
                values = [eval_expr(e, env, stmt.line) for e in stmt.exprs]
                try:
                    el = _BUILD[stmt.keyword](stmt.paths, values, stmt.levels)
                except ValueError as exc:
                    raise CompileError(stmt.line, str(exc)) from None
                if isinstance(el, AtomInteraction):
                    pair = sink_pair_labels(events, *ast.sinks)
                    el = AtomInteraction(el.path, el.transparency_mask, *pair)
                    events += 1
                program.append(el)
                size += 1
            elif isinstance(stmt, RepeatStmt):
                count = eval_expr(stmt.count_expr, env, stmt.line)
                if not (
                    math.isfinite(count) and abs(count - round(count)) <= 1e-9 and round(count) >= 1
                ):
                    raise CompileError(
                        stmt.line, f"repeat count must be a positive integer, got {count!r}"
                    )
                count = int(round(count))
                before, before_events = size, events
                body = emit(stmt.body)
                if count * (size - before) > _MAX_ELEMENTS - before:
                    raise CompileError(
                        stmt.line, f"repeat unrolls to more than {_MAX_ELEMENTS} elements"
                    )
                if size > before:  # an empty body leaves nothing to repeat
                    program += body if count == 1 else [Repeat(tuple(body), count)]
                    size = before + count * (size - before)
                    events = before_events + count * (events - before_events)
            else:
                raise CompileError(getattr(stmt, "line", 0), f"unknown statement: {stmt!r}")
        return program

    program = emit(ast.statements)
    # The labels of ``sink_pair_labels`` for every interaction, written out.
    tags = [f"{base}#" for base in ast.sinks]
    sinks = [*ast.sinks] + [tag + k for k in map(str, range(2, events + 1)) for tag in tags]
    layout = make_layout(ast.paths, sinks, ast.atom_levels)
    # A port's label takes the port's path block; ``sinks`` takes every row
    # after the path blocks.  Ports are visited in row order.
    labels = dict(ast.classifier)
    rows = np.arange(layout.n_photon_modes)
    port_rows = {p: rows[block] for p, block in layout.path_block.items()}
    port_rows["sinks"] = rows[2 * len(layout.paths) :]
    groups: dict[str, list[np.ndarray]] = {}
    for port, port_block in port_rows.items():
        groups.setdefault(labels[port], []).append(port_block)
    branches = {label: np.concatenate(parts) for label, parts in groups.items()}
    for branch in branches.values():
        branch.flags.writeable = False
    return CompiledCircuit(
        layout=layout,
        program=tuple(program),
        branches=branches,
        input_path=ast.input_path,
        input_pol=ast.input_pol,
    )


def run_compiled(
    circuit: CompiledCircuit, atom: AtomSpec, prob_tol: float = PROB_TOL
) -> ProtocolOutcome:
    """Execute a compiled circuit for one atom specification.

    Every element is linear and acts on one atom level at a time: optical
    elements never mix levels, and an interaction moves the ``(+, m+)``
    amplitude only into its S+ row and ``(-, m-)`` only into its S- row.
    So the final state is the circuit's level response -- one propagation
    of the atom (1, 1) per circuit and transparency mask, an absent atom
    being masked at m+ and m- -- with its m+ column, where each sink row
    keeps what it absorbed from m+, scaled by alpha and its m- column by
    beta.  A branch's probability is |alpha|^2 P + |beta|^2 M, from the
    squared norms P and M of the two columns over its rows
    (``CompiledCircuit.branch_weights``).  The branch that ``score_outcome``
    factors is read from its non-zero rows, whose (m+, m-) response pairs
    the same per-mask record keeps from the first run that factors it
    (``CompiledCircuit._exit_rows``): a path row becomes (alpha m+, beta
    m-) and a sink row alpha m+ + beta m- at g, in plain Python numbers,
    whose photon and atom factors ``state._factor_rows`` takes in closed
    form.  So a run builds nothing as long as its branch and costs the same
    at every chain length; the dense ``final_state``, each sink row's
    amplitude at g (``CompiledCircuit.amplitudes``), is built on first
    access.  It forms its products as Python does, so ``assemble_outcome``
    takes from it bitwise the factors, fidelity and label of the run.
    """
    layout = circuit.layout
    record = circuit._record(atom.transparency_mask)
    alpha, beta = atom.alpha, atom.beta
    a2, b2 = abs(alpha) ** 2, abs(beta) ** 2
    probs = {label: a2 * plus + b2 * minus for label, (plus, minus) in record.weights.items()}

    def factors(label: str) -> tuple[list[tuple[int, complex]], np.ndarray]:
        rows, cells, n_path = circuit._exit_rows(record, label)
        cells = cells.tolist()
        return _factor_rows(
            layout,
            [(row, alpha * p, beta * m) for row, (p, m) in zip(rows[:n_path].tolist(), cells)],
            [alpha * p + beta * m for p, m in cells[n_path:]],
        )

    plus, minus = layout._level_roles[:2]
    init = [0j] * layout.n_levels
    init[plus], init[minus] = alpha, beta
    return score_outcome(
        probs,
        factors,
        init,
        lambda: JointState(layout, circuit.amplitudes(atom).reshape(-1)),
        prob_tol=prob_tol,
    )


def golden_names() -> list[str]:
    """Names of the bundled circuits: the ``.nqi`` files in the package's
    ``circuits`` directory, listed on each call."""
    files = resources.files("nqisim").joinpath("circuits").iterdir()
    return sorted(f.name[:-4] for f in files if f.name.endswith(".nqi"))


def load_golden(name: str) -> str:
    """Source text of the bundled circuit ``name`` (one of ``golden_names()``)."""
    return resources.files("nqisim").joinpath("circuits").joinpath(f"{name}.nqi").read_text()
