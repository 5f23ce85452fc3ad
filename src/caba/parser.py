"""Parser for the `.caba` framework format.

Syntax::

    # comment until end of line
    assumption p(X, Y) contrary cp(X, Y).
    head(X) <- X < 1, other(X, Y), assumed(Y).
    fact(3) <-.

Identifiers starting with a lowercase letter are predicates; those
starting with an uppercase letter are variables.  Rationals may be
written as integers, `p/q` fractions, or decimal literals (converted
exactly).  Terms are linear: `rational`, `var`, `term + term`,
`term - term`, `rational * var`.  Relations: `< <= = != >= >`.
Rules are numbered R1, R2, ... in file order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .constraints import LinearConstraint, LinearTerm, RELATIONS
from .errors import ParseError
from .framework import Atom, CabaFramework, Rule

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow><-)
  | (?P<rel><=|>=|!=|<|>|=)
  | (?P<number>\d+/\d+|\d+\.\d+|\d+)
  | (?P<var>[A-Z][A-Za-z0-9_]*)
  | (?P<ident>[a-z][A-Za-z0-9_]*)
  | (?P<sym>[(),.+\-*])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"assumption", "contrary"}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind not in ("ws", "comment"):
            if kind == "ident" and lexeme in _KEYWORDS:
                kind = "keyword"
            if kind == "sym":
                kind = lexeme
            tokens.append(Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    # ------------------------------------------------------- utilities

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {t.text or 'end of input'!r}",
                t.line,
                t.column,
            )
        return self.next()

    def error(self, message: str) -> ParseError:
        t = self.peek()
        return ParseError(message, t.line, t.column)

    # --------------------------------------------------------- grammar

    def parse_framework(self) -> CabaFramework:
        rules: list[Rule] = []
        assumptions: dict[str, tuple[str, int]] = {}
        while self.peek().kind != "eof":
            if self.peek().kind == "keyword" and self.peek().text == "assumption":
                pred, contrary, arity, line = self.parse_assumption()
                if pred in assumptions and assumptions[pred] != (contrary, arity):
                    raise ParseError(
                        f"conflicting contrary declarations for {pred}", line, 1
                    )
                assumptions[pred] = (contrary, arity)
            else:
                rules.append(self.parse_rule(f"R{len(rules) + 1}"))
        return CabaFramework.build(rules, assumptions)

    def parse_assumption(self) -> tuple[str, str, int, int]:
        kw = self.expect("keyword")
        head = self.parse_atom()
        vars_ = _distinct_variable_tuple(head, kw)
        ckw = self.expect("keyword")
        if ckw.text != "contrary":
            raise ParseError("expected 'contrary'", ckw.line, ckw.column)
        contrary = self.parse_atom()
        cvars = _distinct_variable_tuple(contrary, ckw)
        if cvars != vars_:
            raise ParseError(
                "contrary must repeat the assumption's variable tuple",
                ckw.line,
                ckw.column,
            )
        self.expect(".")
        return head.predicate, contrary.predicate, len(vars_), kw.line

    def parse_rule(self, rule_id: str) -> Rule:
        head = self.parse_atom()
        self.expect("arrow")
        constraints: list[LinearConstraint] = []
        atoms: list[Atom] = []
        if self.peek().kind != ".":
            while True:
                item = self.parse_body_item()
                if isinstance(item, Atom):
                    atoms.append(item)
                else:
                    constraints.append(item)
                if self.peek().kind != ",":
                    break
                self.next()
        self.expect(".")
        return Rule(rule_id, head, frozenset(constraints), tuple(atoms))

    def parse_body_item(self) -> Atom | LinearConstraint:
        t = self.peek()
        if t.kind == "ident":
            return self.parse_atom()
        lhs = self.parse_term()
        rel = self.peek()
        if rel.kind != "rel":
            raise self.error("expected a relation in constraint")
        self.next()
        rhs = self.parse_term()
        if rel.text not in RELATIONS:
            raise ParseError(f"unknown relation {rel.text}", rel.line, rel.column)
        return LinearConstraint.make(lhs, rel.text, rhs)

    def parse_atom(self) -> Atom:
        name = self.expect("ident")
        args: list[LinearTerm] = []
        if self.peek().kind == "(":
            self.next()
            while True:
                args.append(self.parse_term())
                if self.peek().kind == ",":
                    self.next()
                    continue
                break
            self.expect(")")
        return Atom(name.text, tuple(args))

    def parse_term(self) -> LinearTerm:
        term = self.parse_factor()
        while self.peek().kind in ("+", "-"):
            op = self.next()
            rhs = self.parse_factor()
            term = term + rhs if op.kind == "+" else term - rhs
        return term

    def parse_factor(self) -> LinearTerm:
        signs = 0
        while self.peek().kind == "-":
            self.next()
            signs += 1
        t = self.peek()
        if t.kind == "var":
            self.next()
            term = LinearTerm.variable(t.text)
        elif t.kind == "number":
            self.next()
            value = _rational(t)
            if self.peek().kind == "*":
                self.next()
                v = self.expect("var")
                term = LinearTerm.build({v.text: value})
            else:
                term = LinearTerm.constant(value)
        else:
            raise self.error(f"expected a term, found {t.text or 'end of input'!r}")
        return -term if signs % 2 else term


def _rational(tok: Token) -> Fraction:
    try:
        return Fraction(tok.text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {tok.text}", tok.line, tok.column) from exc


def _distinct_variable_tuple(atom: Atom, at: Token) -> tuple[str, ...]:
    names: list[str] = []
    for t in atom.args:
        if len(t.coeffs) == 1 and t.coeffs[0][1] == 1 and t.const == 0:
            names.append(t.coeffs[0][0])
        else:
            raise ParseError(
                "assumption declarations take distinct variables only",
                at.line,
                at.column,
            )
    if len(set(names)) != len(names):
        raise ParseError(
            "assumption declarations take distinct variables only",
            at.line,
            at.column,
        )
    return tuple(names)


def parse(text: str) -> CabaFramework:
    """Parse and validate a framework; raises ParseError or ValidationError."""
    fw = _Parser(text).parse_framework()
    fw.check_valid()
    return fw


def parse_file(path) -> CabaFramework:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
