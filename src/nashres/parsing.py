"""Text and JSON front ends: polynomial grammar, arc files, presentation files.

Grammar (whitespace insensitive, juxtaposition multiplies):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*'? factor)*
    factor := base ('^' uint)?
    base   := rational | ident | '(' expr ')'
    rational := uint ('/' uint)?
    ident  := x | z | t | x1..x9 | z1..z9

An identifier is a letter and every digit after it, so `z10` is an unknown
identifier, not z1 times 0.  Errors carry 1-based line/column positions.

One compiled regular expression splits the text; outside ASCII it reads a
copy in which each character stands for its class (space, digit, letter,
the minus sign U+2212, other), so columns stay those of the text.  A term is
built as a monomial num/den z^e: a number multiplies num and den, a variable
adds to e, and a parenthesized sum of one term folds in alike; only sums of
two terms or more are multiplied out, as `MultiPoly` products.  An
expression sums its terms over the lcm of their denominators into one
`MultiPoly`, and `parse_arc` reads its numerators into a `PowerSeries`.

Limits: parentheses nest at most MAX_NESTING deep, and are refused at the
first '(' past it.  Powers of sums and products of sums expand to at most
MAX_POWER_TERMS monomials.  A k-th power is formed only while k times the
bit length of its base's largest numerator or denominator fits in
MAX_CONSTANT_BITS, a product only while the sum of its factors' bit lengths
does (one-bit factors, as a variable, count nothing).  A power is refused
at its exponent, a product at the factor that passes the limit.
"""

from __future__ import annotations

import re
from math import comb, gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .arcs import Arc
from .errors import ParseError, ValidationError
from .poly import MultiPoly, Nums, canonical_var_key
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
# Parentheses nest at most this deep.  Each level costs the parser about three
# stack frames, and the limit leaves room below the interpreter's recursion limit
# for a caller's own frames, as under pytest.
MAX_NESTING = 100
# The bits a power or product of coefficients may reach (see the module); int()
# reads literals up to ~14,300 bits.
MAX_CONSTANT_BITS = 1 << 16

# number | identifier | operator | any other character, on ASCII text
_TOKEN = re.compile(r"([0-9]+)|([A-Za-z][0-9]*)|([-+*^/()])|(\S)")
_OPS = {"+": "PLUS", "-": "MINUS", "*": "STAR",
        "^": "CARET", "/": "SLASH", "(": "LPAREN", ")": "RPAREN"}

Token = Tuple[str, str, int]  # (kind, text, column)


def _ascii_class(ch: str) -> str:
    """The ASCII character that tokenizes as `ch` does."""
    if ch == "\u2212":  # the minus sign
        return "-"
    return " " if ch.isspace() else "0" if ch.isdigit() else "a" if ch.isalpha() else "?"


def _tokenize(text: str) -> List[Token]:
    scan = text
    if not text.isascii():
        scan = text.translate({ord(ch): _ascii_class(ch) for ch in set(text) if not ch.isascii()})
    tokens: List[Token] = []
    for m in _TOKEN.finditer(scan):
        start, end = m.span()
        group = m.lastindex
        if group == 1:
            tokens.append(("NUM", text[start:end], start + 1))
        elif group == 2:
            name = text[start:end]
            if name not in IDENTIFIERS:
                raise ParseError(f"unknown identifier {name!r}", column=start + 1)
            tokens.append(("IDENT", name, start + 1))
        elif group == 3:
            tokens.append((_OPS[scan[start]], text[start], start + 1))
        else:
            raise ParseError(f"unexpected character {text[start]!r}", column=start + 1)
    tokens.append(("EOF", "", len(text) + 1))
    return tokens


def _number(tok: Token) -> int:
    """The token's integer.  int() refuses a digit string above the
    interpreter's length limit (4,300 digits by default) and digit-like
    characters such as superscripts; both are parse errors."""
    try:
        return int(tok[1])
    except ValueError:
        raise ParseError(
            f"cannot read the {len(tok[1])}-character number {tok[1][:12]!r} as an integer",
            column=tok[2],
        ) from None


# A monomial factor: the coefficient p/q and the variable powers [(index, k)].
Monomial = Tuple[int, int, Sequence[Tuple[int, int]]]


def _size(factor: "Monomial | MultiPoly") -> Tuple[int, int]:
    """The factor's number of terms and the bit length of its largest
    numerator or denominator."""
    if type(factor) is tuple:
        p, q, _ = factor
        return (1 if p else 0), max(p.bit_length(), q.bit_length())
    top = max(max(map(abs, factor.nums.values()), default=0), factor.den)
    return len(factor.nums), top.bit_length()


class _Parser:
    def __init__(self, tokens: List[Token], variables: Tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.vars = variables
        self.index = {v: i for i, v in enumerate(variables)}
        self.depth = 0  # of the open parentheses

    def take(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind}, found {tok[1] or 'end of input'!r}", column=tok[2]
            )
        self.pos += 1
        return tok

    def parse_expr(self) -> MultiPoly:
        terms = []  # (sign, numerators, denominator)
        kind = self.tokens[self.pos][0]
        while True:
            sign = 1
            if kind in ("PLUS", "MINUS"):  # optional before the first term only
                self.pos += 1
                sign = -1 if kind == "MINUS" else 1
            terms.append((sign, *self.parse_term()))
            kind = self.tokens[self.pos][0]
            if kind not in ("PLUS", "MINUS"):
                break
        den = lcm(*(d for _, _, d in terms))
        out: Nums = {}
        for sign, nums, d in terms:
            factor = sign * (den // d)
            for exp, c in nums.items():
                out[exp] = out.get(exp, 0) + c * factor
        return MultiPoly.from_integers(self.vars, out, den)

    def parse_term(self) -> Tuple[Nums, int]:
        """The product num/den z^exp times the sums met, as numerators over a denominator."""
        tokens = self.tokens
        num, den, exp = 1, 1, [0] * len(self.vars)
        product: Optional[MultiPoly] = None  # the sums with two terms or more
        bits = 0  # sum of the factors' bit lengths above 1
        column = 0  # of the current factor; 0 for the first
        while True:
            factor = self.parse_factor()
            k, factor_bits = _size(factor)
            if column:
                n = 0 if not num else 1 if product is None else len(product.nums)
                if n >= 2 and k >= 2 and n * k > MAX_POWER_TERMS:
                    raise ParseError(
                        f"product of a {n}-term and a {k}-term sum expands past "
                        f"{MAX_POWER_TERMS} terms",
                        column=column,
                    )
                if factor_bits > 1 and bits + factor_bits > MAX_CONSTANT_BITS:
                    raise ParseError(
                        f"product of {bits}-bit and {factor_bits}-bit coefficients passes "
                        f"{MAX_CONSTANT_BITS} bits",
                        column=column,
                    )
            if factor_bits > 1:
                bits += factor_bits
            if type(factor) is tuple:
                p, q, powers = factor
                num, den = num * p, den * q
                for i, e in powers:
                    exp[i] += e
                if not num:
                    product = None
            elif num:
                product = factor if product is None else product * factor
            kind = tokens[self.pos][0]
            if kind == "STAR":
                self.pos += 1
            elif kind not in ("NUM", "IDENT", "LPAREN"):
                break
            column = tokens[self.pos][2]
        if product is None:
            return {tuple(exp): num}, den
        return (
            {tuple(a + b for a, b in zip(e, exp)): c * num for e, c in product.nums.items()},
            den * product.den,
        )

    def parse_factor(self) -> "Monomial | MultiPoly":
        """The base to its power: a `Monomial`, or a `MultiPoly` of two terms or more."""
        tokens = self.tokens
        kind, text, column = tok = tokens[self.pos]
        self.pos += 1
        if kind == "NUM":
            p, q = _number(tok), 1
            if tokens[self.pos][0] == "SLASH":
                self.pos += 1
                den = self.take("NUM")
                q = _number(den)
                if q == 0:
                    raise ParseError("division by zero", column=den[2])
                common = gcd(p, q)
                p, q = p // common, q // common
            base = (p, q, ())
        elif kind == "IDENT":
            base = (1, 1, ((self.index[text], 1),))
        elif kind == "LPAREN":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nest deeper than {MAX_NESTING} levels", column=column
                )
            self.depth += 1
            base = self.parse_expr()
            self.take("RPAREN")
            self.depth -= 1
        else:
            raise ParseError(
                f"expected a number, variable or '(', found {text or 'end of input'!r}",
                column=column,
            )
        if tokens[self.pos][0] == "CARET":
            self.pos += 1
            exp = self.take("NUM")
            k = _number(exp)
            n, bits = _size(base)
            if n >= 2 and comb(n + k - 1, n - 1) > MAX_POWER_TERMS:
                raise ParseError(
                    f"power {k} of a {n}-term sum expands past {MAX_POWER_TERMS} terms",
                    column=exp[2],
                )
            if bits > 1 and k * bits > MAX_CONSTANT_BITS:
                raise ParseError(
                    f"power {k} of a {bits}-bit coefficient passes {MAX_CONSTANT_BITS} bits",
                    column=exp[2],
                )
            if type(base) is tuple:
                p, q, powers = base
                base = (p**k, q**k, tuple((i, e * k) for i, e in powers))
            else:
                base = base**k
        if type(base) is tuple or len(base.nums) > 1:
            return base
        # a sum of one term (or none) folds into the monomial
        ((e, c),) = base.nums.items() or (((), 0),)
        return c, base.den, tuple((i, a) for i, a in enumerate(e) if a)


def parse_poly(text: str, variables: Optional[Sequence[str]] = None) -> MultiPoly:
    """Parse polynomial text into a canonical MultiPoly.

    Without an explicit variable list the polynomial lives over exactly the
    identifiers that occur, in canonical order (x's, z's, then t).
    """
    tokens = _tokenize(text)
    occurring = sorted({tok[1] for tok in tokens if tok[0] == "IDENT"}, key=canonical_var_key)
    if variables is None:
        variables = occurring
    else:
        extra = [v for v in occurring if v not in variables]
        if extra:
            raise ParseError(f"unexpected variables {extra} (allowed: {list(variables)})")
    parser = _Parser(tokens, tuple(variables))
    result = parser.parse_expr()
    tok = tokens[parser.pos]
    if tok[0] != "EOF":
        raise ParseError(f"trailing input {tok[1]!r}", column=tok[2])
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
        # every exponent is (k,) over t, or () for a constant
        size = max((sum(e) for e in f.nums), default=-1) + 1
        size = size if prec is None else min(size, prec)
        if size > MAX_ARC_COEFFS:
            raise ValidationError(
                f"coordinate {name!r} needs {size} coefficients, above the limit {MAX_ARC_COEFFS}"
            )
        nums = [0] * size
        for exp, c in f.nums.items():
            k = sum(exp)
            if k < size:
                nums[k] = c
        coords[name] = PowerSeries.from_integers(nums, f.den, prec)
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
    besides the distinguished variables; `LocalPresentation` checks d.
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
    base = set()
    for var, _, f in parsed:
        for v in f.vars:
            if v == "t":
                raise ValidationError("t cannot appear in a presentation equation")
            if v not in declared:
                base.add(v)
    base_vars = tuple(sorted(base, key=canonical_var_key))
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
