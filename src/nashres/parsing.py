"""Text and JSON front ends: polynomial grammar, arc files, presentation files.

Grammar (whitespace insensitive, juxtaposition multiplies):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*'? factor)*
    factor := base ('^' uint)?
    base   := rational | ident | '(' expr ')'
    rational := uint ('/' uint)?
    ident  := x | z | t | x1..x9 | z1..z9

Errors carry 1-based line/column positions.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .arcs import Arc
from .errors import ParseError, ValidationError
from .poly import MultiPoly, canonical_var_key
from .presentation import LocalPresentation, tschirnhausen_normalize
from .series import PowerSeries

IDENTIFIERS = (
    {"x", "z", "t"}
    | {f"x{i}" for i in range(1, 10)}
    | {f"z{i}" for i in range(1, 10)}
)

# Arc coordinates are stored densely below the precision: at most this many coefficients.
MAX_ARC_COEFFS = 100_000
# A power of an n-term sum is expanded only when its C(n+k-1, n-1) monomials fit,
# and a product of an n-term and a k-term sum only when its n*k term products fit.
MAX_POWER_TERMS = 200
# The k-th power of a monomial is formed only while k times the bit length of its
# coefficient's numerator or denominator fits; int() reads literals up to ~14,300 bits.
MAX_CONSTANT_BITS = 1 << 16

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


def _is_int(value) -> bool:
    """JSON integers only: Python counts true and false as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_arc(document: dict) -> Arc:
    """Arc file: {"precision": N | "exact", "coords": {var: poly-in-t text}}."""
    if not isinstance(document, dict) or not isinstance(document.get("coords"), dict):
        raise ValidationError('arc document needs "precision" and a "coords" object')
    precision = document.get("precision", "exact")
    if precision == "exact":
        prec = None
    elif _is_int(precision) and precision >= 1:
        prec = precision
    else:
        raise ValidationError(f'precision must be a positive integer or "exact", got {precision!r}')
    coords: Dict[str, PowerSeries] = {}
    for name, text in document["coords"].items():
        if name not in IDENTIFIERS or name == "t":
            raise ValidationError(f"bad coordinate name {name!r}")
        f = parse_poly(str(text))
        bad = [v for v in f.vars if v != "t"]
        if bad:
            raise ValidationError(f"non-t variables in coordinate {name!r}: {bad}")
        g = f if "t" in f.vars else f.extend_vars(("t",))
        size = g.degree_in("t") + 1
        size = size if prec is None else min(size, prec)
        if size > MAX_ARC_COEFFS:
            raise ValidationError(
                f"coordinate {name!r} needs {size} coefficients, above the limit {MAX_ARC_COEFFS}"
            )
        coeffs = [Fraction(0)] * size
        for exp, coeff in g.terms.items():
            if exp[0] < size:
                coeffs[exp[0]] = coeff
        coords[name] = PowerSeries(coeffs, prec)
    return Arc(coords)


def arc_to_document(a: Arc) -> dict:
    precision = a.precision
    return {
        "precision": "exact" if precision is None else precision,
        "coords": {v: s.polynomial_text() for v, s in sorted(a.coords.items())},
    }


def load_presentation(document: dict) -> LocalPresentation:
    """Presentation file: {"d": N, "hypersurfaces": [{"var", "b", "f"}]}.

    Equations may carry an x^(b-1) term; they are brought to Tschirnhausen
    form here.  The base variables are everything the equations mention
    besides the distinguished variables, and must number exactly d.
    """
    if not isinstance(document, dict) or "d" not in document or "hypersurfaces" not in document:
        raise ValidationError('presentation document needs "d" and "hypersurfaces"')
    d = document["d"]
    if not _is_int(d) or d < 1:
        raise ValidationError(f"base dimension must be a positive integer, got {d!r}")
    entries = document["hypersurfaces"]
    if not isinstance(entries, list) or not entries:
        raise ValidationError('"hypersurfaces" must be a non-empty list')
    parsed = []
    declared = []
    for entry in entries:
        if not isinstance(entry, dict) or not {"var", "b", "f"} <= entry.keys():
            raise ValidationError(f'hypersurface needs "var", "b" and "f", got {entry!r}')
        var, b = entry["var"], entry["b"]
        if not isinstance(var, str) or var not in IDENTIFIERS or var == "t":
            raise ValidationError(f"bad distinguished variable {var!r}")
        if not _is_int(b):
            raise ValidationError(f"degree b of {var!r} must be an integer, got {b!r}")
        declared.append(var)
        parsed.append((var, b, parse_poly(str(entry["f"]))))
    if len(set(declared)) != len(declared):
        raise ValidationError(f"distinguished variables repeat: {declared}")
    base = set()
    for var, _, f in parsed:
        for v in f.vars:
            if v == "t":
                raise ValidationError("t cannot appear in a presentation equation")
            if v not in declared:
                base.add(v)
    base_vars = tuple(sorted(base, key=canonical_var_key))
    if len(base_vars) != d:
        raise ValidationError(
            f"equations mention base variables {base_vars}, but d = {d}"
        )
    hypersurfaces = []
    for var, b, f in parsed:
        foreign = [v for v in f.vars if v != var and v not in base_vars]
        if foreign:
            raise ValidationError(
                f"equation for {var!r} involves other distinguished variables {foreign}"
            )
        if var not in f.vars or f.degree_in(var) != b:
            raise ValidationError(
                f"equation for {var!r} must have the declared degree {b}"
            )
        ambient = (var,) + base_vars
        h = tschirnhausen_normalize(f.extend_vars(ambient), var)
        hypersurfaces.append(h)
    return LocalPresentation(d, tuple(hypersurfaces))


def presentation_to_document(p: LocalPresentation) -> dict:
    return {
        "d": p.d,
        "hypersurfaces": [
            {"var": h.var, "b": h.b, "f": str(h.polynomial)}
            for h in p.hypersurfaces
        ],
    }


def fraction_text(value) -> str:
    """Exact fraction string for reports."""
    return str(Fraction(value))
