"""Hand-written recursive-descent parser for the input language.

    document  := ring_decl ideal_decl
    ring_decl := "ring" field "[" ident ("," ident)* "]" ";"
    field     := "QQ" | "GF" "(" integer ")"
    ideal_decl:= "ideal" "(" poly ("," poly)* ")" ";"
    poly      := signed term (("+"|"-") term)*
    term      := integer ["*"? factor ("*" factor)*] | factor ("*" factor)*
    factor    := ident ["^" integer]

Whitespace and //-to-end-of-line comments are ignored.  Coefficients in
the grammar are integers; rationals only arise inside computations.  A
bare integer is a constant term, so every relation the tool prints can
be fed back in.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
from .fields import GF, QQ, Field
from .ring import DEGREVLEX, MonomialOrder, Polynomial, PolyRing


@dataclass(frozen=True)
class Token:
    kind: str       # ident | int | punct | eof
    text: str
    line: int
    column: int


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdecimal():
            start, start_col = i, col
            while i < n and text[i].isdecimal():
                i += 1
                col += 1
            tokens.append(Token("int", text[start:i], line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start, start_col = i, col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(Token("ident", text[start:i], line, start_col))
            continue
        if ch in "[](),;^*+-":
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col,
                         expected="token")
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: str):
        tok = self.peek()
        shown = tok.text or "end of input"
        raise ParseError(f"expected {expected}, found {shown!r}",
                         tok.line, tok.column, expected=expected)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            self.fail(text or kind)
        return self.advance()

    def integer(self) -> int:
        tok = self.expect("int")
        try:
            return int(tok.text)
        except ValueError:  # past the interpreter's int-from-string limit
            raise ParseError(f"integer literal of {len(tok.text)} digits is too long",
                             tok.line, tok.column, expected="shorter integer") from None

    # -- grammar ---------------------------------------------------------

    def document(self, order: MonomialOrder):
        field, variables = self.ring_decl()
        ring = PolyRing(field, variables, order)
        generators = self.ideal_decl(ring)
        self.expect("eof")
        return field, variables, generators, ring

    def ring_decl(self):
        self.expect("ident", "ring")
        field = self.field()
        self.expect("punct", "[")
        idents = [self.expect("ident")]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.advance()
            idents.append(self.expect("ident"))
        self.expect("punct", "]")
        self.expect("punct", ";")
        seen = set()
        for tok in idents:
            if tok.text in seen:
                raise ParseError(f"duplicate variable {tok.text!r}",
                                 tok.line, tok.column, expected="unique variable")
            seen.add(tok.text)
        return field, tuple(tok.text for tok in idents)

    def field(self) -> Field:
        tok = self.expect("ident")
        if tok.text == "QQ":
            return QQ
        if tok.text == "GF":
            self.expect("punct", "(")
            p = self.integer()
            self.expect("punct", ")")
            return GF(p)
        raise ParseError(f"unknown field {tok.text!r}", tok.line, tok.column,
                         expected="QQ or GF(p)")

    def ideal_decl(self, ring: PolyRing):
        self.expect("ident", "ideal")
        self.expect("punct", "(")
        polys = [self.poly(ring)]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.advance()
            polys.append(self.poly(ring))
        self.expect("punct", ")")
        self.expect("punct", ";")
        return tuple(polys)

    def poly(self, ring: PolyRing) -> Polynomial:
        sign = 1
        tok = self.peek()
        if tok.kind == "punct" and tok.text in "+-":
            self.advance()
            sign = -1 if tok.text == "-" else 1
        result = self.term(ring) * sign
        while self.peek().kind == "punct" and self.peek().text in "+-":
            op = self.advance().text
            term = self.term(ring)
            result = result + term if op == "+" else result - term
        return result

    def term(self, ring: PolyRing) -> Polynomial:
        coeff = 1
        if self.peek().kind == "int":
            coeff = self.integer()
            if self.peek().kind == "punct" and self.peek().text == "*":
                self.advance()
            elif self.peek().kind != "ident":
                # bare integer: a constant term
                return ring.from_scalar(coeff)
        result = self.factor(ring)
        while self.peek().kind == "punct" and self.peek().text == "*":
            self.advance()
            result = result * self.factor(ring)
        return result * coeff

    def factor(self, ring: PolyRing) -> Polynomial:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail("variable")
        self.advance()
        if tok.text not in ring.variables:
            raise ParseError(f"unknown variable {tok.text!r}",
                             tok.line, tok.column, expected="declared variable")
        base = ring.var(tok.text)
        if self.peek().kind == "punct" and self.peek().text == "^":
            self.advance()
            return base ** self.integer()
        return base


@dataclass(frozen=True)
class InputDocument:
    """A parsed input: field, variable list, and generator polynomials."""

    field: Field
    variables: tuple
    generators: tuple
    ring: PolyRing

    def render(self) -> str:
        field = "QQ" if self.field == QQ else f"GF({self.field.p})"
        gens = ", ".join(g.input_form() for g in self.generators)
        return f"ring {field}[{', '.join(self.variables)}]; ideal ({gens});"


def parse_input(text: str, order: MonomialOrder = DEGREVLEX) -> InputDocument:
    parser = _Parser(_tokenize(text))
    field, variables, generators, ring = parser.document(order)
    return InputDocument(field, variables, generators, ring)


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse a single polynomial expression against an existing ring."""
    parser = _Parser(_tokenize(text))
    p = parser.poly(ring)
    parser.expect("eof")
    return p
