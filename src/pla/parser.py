"""Text syntax for formulas.

Grammar (precedence ``!`` > ``&`` > ``|`` > ``->``, implication
right-associative, parentheses allowed)::

    phi ::= NUM | VAR "=" VAR | IDENT "(" VAR {"," VAR} ")"
          | "!" phi | phi "&" phi | phi "|" phi | phi "->" phi
          | "wm(" phi ";" phi ";" phi ")"
          | NAME "[" phi {"," phi} ":" VAR {"," VAR} ":" eqspec "]"
    eqspec ::= "distinct" | lit {"," lit}
    lit    ::= VAR ("=" | "!=") VAR
    NAME   ::= IDENT | IDENT "(" NUM ")"

``distinct`` makes every bound variable different from every other bound
variable and from every free variable of the aggregation node; an explicit
eqspec must decide every pair of variables after transitive closure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Optional

from . import aggregators
from .errors import PlaError
from .logic import (
    Agg,
    And,
    Atom,
    Const,
    Eq,
    EqualityType,
    Formula,
    Implies,
    Not,
    Or,
    Variable,
    WeightedMean,
    children,
    free_vars,
)


class ParseError(PlaError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


# identifiers may contain internal hyphens (e.g. the noisy-or function) but a
# hyphen only joins when followed by a word character, so "a->b" still splits
# into "a", "->", "b"
_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<NUM>\d+(\.\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*)
  | (?P<OP>->|!=|[()\[\],;:=!&|])
    """,
    re.VERBOSE,
)


def is_identifier(text: str) -> bool:
    """Whether the text is one identifier token, as a symbol is named."""
    m = _TOKEN_RE.fullmatch(text)
    return m is not None and m.lastgroup == "IDENT"


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "WS":
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], registry):
        self.tokens = tokens
        self.pos = 0
        self.registry = registry

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
            raise ParseError("expected %r, found %r" % (text, tok.text or "end of input"),
                             tok.line, tok.col)
        return tok

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    # precedence climbing -------------------------------------------------

    def parse_formula(self) -> Formula:
        left = self.parse_or()
        if self.peek().text == "->":
            self.next()
            return Implies(left, self.parse_formula())  # right-associative
        return left

    def parse_or(self) -> Formula:
        out = self.parse_and()
        while self.peek().text == "|":
            self.next()
            out = Or(out, self.parse_and())
        return out

    def parse_and(self) -> Formula:
        out = self.parse_unary()
        while self.peek().text == "&":
            self.next()
            out = And(out, self.parse_unary())
        return out

    def parse_unary(self) -> Formula:
        if self.peek().text == "!":
            self.next()
            return Not(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "NUM":
            self.next()
            value = float(tok.text)
            if value > 1.0:
                self.error("constant %s outside [0, 1]" % tok.text, tok)
            return Const(value)
        if tok.text == "(":
            self.next()
            inner = self.parse_formula()
            self.expect(")")
            return inner
        if tok.kind == "IDENT":
            return self.parse_ident()
        self.error("expected a formula, found %r" % (tok.text or "end of input"), tok)

    def parse_ident(self) -> Formula:
        name_tok = self.next()
        name = name_tok.text
        nxt = self.peek()
        if name == "wm" and nxt.text == "(":
            self.next()
            weight = self.parse_formula()
            self.expect(";")
            left = self.parse_formula()
            self.expect(";")
            right = self.parse_formula()
            self.expect(")")
            return WeightedMean(weight, left, right)
        if nxt.text == "(":
            if self.peek(1).kind == "NUM":  # parametrized aggregation name
                self.next()
                num = self.next()
                self.expect(")")
                return self.parse_agg("%s(%s)" % (name, num.text), name_tok)
            return self.parse_atom(name)
        if nxt.text == "[":
            return self.parse_agg(name, name_tok)
        if nxt.text == "=":
            self.next()
            other = self.expect_var()
            return Eq(Variable(name), other)
        self.error("variable %r cannot stand alone as a formula" % name, name_tok)

    def expect_var(self) -> Variable:
        tok = self.next()
        if tok.kind != "IDENT":
            raise ParseError("expected a variable, found %r" % (tok.text or "end of input"),
                             tok.line, tok.col)
        return Variable(tok.text)

    def parse_atom(self, name: str) -> Formula:
        self.expect("(")
        args = [self.expect_var()]
        while self.peek().text == ",":
            self.next()
            args.append(self.expect_var())
        self.expect(")")
        return Atom(name, tuple(args))

    def parse_agg(self, name: str, name_tok: Token) -> Formula:
        try:
            func = self.registry.get(name)
        except aggregators.UnknownAggregationFunction as exc:
            raise ParseError(str(exc), name_tok.line, name_tok.col) from None
        self.expect("[")
        bodies = [self.parse_formula()]
        while self.peek().text == ",":
            self.next()
            bodies.append(self.parse_formula())
        colon = self.expect(":")
        if len(bodies) != func.arity:
            raise ParseError(
                "%s takes %d bodies, got %d" % (name, func.arity, len(bodies)),
                colon.line, colon.col,
            )
        bound = [self.expect_var()]
        while self.peek().text == ",":
            self.next()
            bound.append(self.expect_var())
        if len(set(bound)) != len(bound):
            self.error("bound variables must be distinct", colon)
        self.expect(":")
        body_free = frozenset().union(*(free_vars(b) for b in bodies))
        free = sorted(body_free - set(bound), key=lambda v: v.name)
        eq_type = self.parse_eqspec(free, bound)
        self.expect("]")
        try:
            return Agg(name, tuple(bodies), tuple(bound), eq_type)
        except ValueError as exc:
            raise ParseError(str(exc), name_tok.line, name_tok.col) from None

    def parse_eqspec(self, free: list[Variable], bound: list[Variable]) -> EqualityType:
        tok = self.peek()
        if tok.text == "distinct":
            self.next()
            if len(free) > 1:
                self.error(
                    "'distinct' leaves the equalities among the %d free variables "
                    "undecided; give an explicit eqspec" % len(free),
                    tok,
                )
            return EqualityType.all_distinct(free + bound)
        # explicit literal list
        eqs: list[tuple[Variable, Variable]] = []
        neqs: list[tuple[Variable, Variable]] = []
        mentioned: list[Variable] = []
        while True:
            left = self.expect_var()
            op = self.next()
            if op.text not in ("=", "!="):
                raise ParseError("expected '=' or '!=', found %r" % op.text, op.line, op.col)
            right = self.expect_var()
            mentioned.extend((left, right))
            (eqs if op.text == "=" else neqs).append((left, right))
            if self.peek().text != ",":
                break
            self.next()
        variables: list[Variable] = []
        for v in free + bound + mentioned:
            if v not in variables:
                variables.append(v)
        # union-find over the '=' literals
        parent = {v: v for v in variables}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for u, v in eqs:
            parent[find(u)] = find(v)
        separated = set()
        for u, v in neqs:
            ru, rv = find(u), find(v)
            if ru == rv:
                self.error("%s and %s are declared both equal and unequal" % (u.name, v.name), tok)
            separated.add(frozenset((ru, rv)))
        roots = {find(v) for v in variables}
        for r1 in roots:
            for r2 in roots:
                if r1 is not r2 and frozenset((r1, r2)) not in separated:
                    self.error(
                        "eqspec does not decide whether %s equals %s" % (r1.name, r2.name),
                        tok,
                    )
        blocks: dict[Variable, list[Variable]] = {}
        for v in variables:
            blocks.setdefault(find(v), []).append(v)
        # an eqspec literal can introduce a free variable; ``Agg`` sorts them
        return EqualityType.from_blocks(variables, list(blocks.values()))


def _check_shadowing(phi: Formula) -> None:
    stack = [(phi, frozenset())]
    while stack:
        f, enclosing = stack.pop()
        if isinstance(f, Agg):
            clash = set(f.bound) & enclosing
            if clash:
                raise ParseError(
                    "bound variable %s shadows an enclosing binder"
                    % sorted(clash, key=lambda v: v.name)[0].name,
                    1, 1,
                )
            enclosing = enclosing | set(f.bound)
        stack.extend((c, enclosing) for c in reversed(children(f)))


def parse_formula(text: str, registry=aggregators.DEFAULT_REGISTRY) -> Formula:
    """Parse formula text; aggregation function names and body counts are
    checked against the registry.  Nested binders reusing a variable name
    are rejected."""
    parser = _Parser(tokenize(text), registry)
    out = parser.parse_formula()
    eof = parser.peek()
    if eof.kind != "EOF":
        raise ParseError("trailing input %r" % eof.text, eof.line, eof.col)
    _check_shadowing(out)
    return out


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _fmt_const(value: float) -> str:
    s = repr(value)
    if "e" in s or "E" in s:
        s = format(Decimal(value), "f")
    return s


_LEVEL_IMPLIES, _LEVEL_OR, _LEVEL_AND, _LEVEL_UNARY = 1, 2, 3, 4


def _precedence(phi: Formula) -> int:
    if isinstance(phi, Implies):
        return _LEVEL_IMPLIES
    if isinstance(phi, Or):
        return _LEVEL_OR
    if isinstance(phi, And):
        return _LEVEL_AND
    return _LEVEL_UNARY


def _fmt(phi: Formula, level: int) -> str:
    text = _fmt_node(phi)
    if _precedence(phi) < level:
        return "(%s)" % text
    return text


def _fmt_eqspec(node: Agg) -> str:
    eq = node.eq_type
    free = node.params
    body_free = frozenset().union(*(free_vars(b) for b in node.bodies))
    reconstructible = set(free) == set(body_free) - set(node.bound)
    if reconstructible and len(free) <= 1 and all(len(b) == 1 for b in eq.blocks):
        return "distinct"
    lits = []
    for block in eq.blocks:
        for u, v in zip(block, block[1:]):
            lits.append("%s = %s" % (u.name, v.name))
    reps = [block[0] for block in eq.blocks]
    for i, u in enumerate(reps):
        for v in reps[i + 1 :]:
            lits.append("%s != %s" % (u.name, v.name))
    return ", ".join(lits)


def _fmt_node(phi: Formula) -> str:
    if isinstance(phi, Const):
        return _fmt_const(phi.value)
    if isinstance(phi, Eq):
        return "%s = %s" % (phi.left.name, phi.right.name)
    if isinstance(phi, Atom):
        return "%s(%s)" % (phi.symbol, ", ".join(v.name for v in phi.args))
    if isinstance(phi, Not):
        sub = phi.sub
        if isinstance(sub, Eq):
            return "!(%s)" % _fmt_node(sub)
        return "!%s" % _fmt(sub, _LEVEL_UNARY)
    if isinstance(phi, (And, Or)):
        # the spine is walked in a loop: compiled formulas chain thousands
        # of conjuncts
        op, level = (" & ", _LEVEL_AND) if isinstance(phi, And) else (" | ", _LEVEL_OR)
        first, *rest = phi._spine
        return op.join([_fmt(first, level)] + [_fmt(r, level + 1) for r in rest])
    if isinstance(phi, Implies):
        return "%s -> %s" % (_fmt(phi.left, _LEVEL_IMPLIES + 1), _fmt(phi.right, _LEVEL_IMPLIES))
    if isinstance(phi, WeightedMean):
        return "wm(%s; %s; %s)" % (
            _fmt_node(phi.weight),
            _fmt_node(phi.left),
            _fmt_node(phi.right),
        )
    if isinstance(phi, Agg):
        return "%s[%s : %s : %s]" % (
            phi.func,
            ", ".join(_fmt_node(b) for b in phi.bodies),
            ", ".join(v.name for v in phi.bound),
            _fmt_eqspec(phi),
        )
    raise TypeError("not a formula: %r" % (phi,))


def format_formula(phi: Formula) -> str:
    """Render a formula in the concrete syntax; ``parse_formula`` of the
    result reconstructs the same tree."""
    return _fmt_node(phi)
