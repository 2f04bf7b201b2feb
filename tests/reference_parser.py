"""An independent reading of the polynomial grammar, for tests only.

The reference of the differential test in test_parsing_differential.py.  It
shares the grammar and its term limit with `nashres.parsing` but none of its
reading: its tokenizer steps through the text one character at a time, with
no regular expression; an identifier is one letter and at most one digit; it
sizes factors through the `Fraction` view `MultiPoly.terms`, not the integer
numerators; and it builds a sum one term at a time with `MultiPoly` addition,
not over one common denominator.  It bounds the bits of a power only when
its base is a single term, and the bits of a product not at all.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import List, Optional, Sequence, Tuple

from nashres.errors import ParseError
from nashres.parsing import IDENTIFIERS, MAX_CONSTANT_BITS, MAX_POWER_TERMS
from nashres.poly import MultiPoly, canonical_var_key

_OPS = {"+": "PLUS", "-": "MINUS", "−": "MINUS", "*": "STAR",
        "^": "CARET", "/": "SLASH", "(": "LPAREN", ")": "RPAREN"}


class _Token:
    __slots__ = ("kind", "text", "column")

    def __init__(self, kind: str, text: str, column: int):
        self.kind = kind
        self.text = text
        self.column = column


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        col = i + 1
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token(_OPS[ch], ch, col))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("NUM", text[i:j], col))
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            if j < len(text) and text[j].isdigit():
                j += 1
            name = text[i:j]
            if name not in IDENTIFIERS:
                raise ParseError(f"unknown identifier {name!r}", column=col)
            tokens.append(_Token("IDENT", name, col))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", column=col)
    tokens.append(_Token("EOF", "", len(text) + 1))
    return tokens


def _number(tok: _Token) -> int:
    """The token's integer.  int() refuses a digit string above the
    interpreter's length limit (4,300 digits by default) and digit-like
    characters such as superscripts; both are parse errors."""
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(
            f"cannot read the {len(tok.text)}-character number {tok.text[:12]!r} as an integer",
            column=tok.column,
        ) from None


class _Parser:
    def __init__(self, tokens: List[_Token], variables: Tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.vars = variables

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind}, found {tok.text or 'end of input'!r}",
                column=tok.column,
            )
        self.pos += 1
        return tok

    def parse_expr(self) -> MultiPoly:
        sign = 1
        if self.peek().kind in ("PLUS", "MINUS"):
            sign = -1 if self.take(self.peek().kind).kind == "MINUS" else 1
        result = self.parse_term()
        if sign < 0:
            result = -result
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.take(self.peek().kind)
            term = self.parse_term()
            result = result + term if op.kind == "PLUS" else result - term
        return result

    def parse_term(self) -> MultiPoly:
        result = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "STAR":
                self.take("STAR")
            elif tok.kind not in ("NUM", "IDENT", "LPAREN"):
                return result
            column = self.peek().column
            factor = self.parse_factor()
            n, k = len(result.terms), len(factor.terms)
            if n >= 2 and k >= 2 and n * k > MAX_POWER_TERMS:
                raise ParseError(
                    f"product of a {n}-term and a {k}-term sum expands past "
                    f"{MAX_POWER_TERMS} terms",
                    column=column,
                )
            result = result * factor

    def parse_factor(self) -> MultiPoly:
        base = self.parse_base()
        if self.peek().kind == "CARET":
            self.take("CARET")
            exp = self.take("NUM")
            n, k = len(base.terms), _number(exp)
            if n >= 2 and comb(n + k - 1, n - 1) > MAX_POWER_TERMS:
                raise ParseError(
                    f"power {k} of a {n}-term sum expands past {MAX_POWER_TERMS} terms",
                    column=exp.column,
                )
            if n == 1:
                (c,) = base.terms.values()
                bits = max(abs(c.numerator), c.denominator).bit_length()
                if bits > 1 and k * bits > MAX_CONSTANT_BITS:
                    raise ParseError(
                        f"power {k} of a {bits}-bit coefficient passes {MAX_CONSTANT_BITS} bits",
                        column=exp.column,
                    )
            return base ** k
        return base

    def parse_base(self) -> MultiPoly:
        tok = self.peek()
        if tok.kind == "NUM":
            num = _number(self.take("NUM"))
            if self.peek().kind == "SLASH":
                self.take("SLASH")
                den = self.take("NUM")
                if _number(den) == 0:
                    raise ParseError("division by zero", column=den.column)
                return MultiPoly.constant(self.vars, Fraction(num, _number(den)))
            return MultiPoly.constant(self.vars, num)
        if tok.kind == "IDENT":
            self.take("IDENT")
            return MultiPoly.variable(self.vars, tok.text)
        if tok.kind == "LPAREN":
            self.take("LPAREN")
            inner = self.parse_expr()
            self.take("RPAREN")
            return inner
        raise ParseError(
            f"expected a number, variable or '(', found {tok.text or 'end of input'!r}",
            column=tok.column,
        )


def parse_poly(text: str, variables: Optional[Sequence[str]] = None) -> MultiPoly:
    """Parse polynomial text into a canonical MultiPoly.

    Without an explicit variable list the polynomial lives over exactly the
    identifiers that occur, in canonical order (x's, z's, then t).
    """
    tokens = _tokenize(text)
    occurring = sorted(
        {tok.text for tok in tokens if tok.kind == "IDENT"}, key=canonical_var_key
    )
    if variables is None:
        variables = occurring
    else:
        extra = [v for v in occurring if v not in variables]
        if extra:
            raise ParseError(f"unexpected variables {extra} (allowed: {list(variables)})")
    parser = _Parser(tokens, tuple(variables))
    result = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.text!r}", column=tok.column)
    return result
