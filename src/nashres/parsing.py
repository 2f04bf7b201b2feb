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
the minus sign U+2212, other), so columns stay those of the text.  Every
factor is a `MultiPoly`: a number, a variable, a parenthesized sum, or one
of them to a power.  A term is the running product of its factors, and an
expression sums its terms over the lcm of their denominators into one
`MultiPoly`.  Nothing nashres writes and no benchmark workload reads much
text through the grammar (arcs take the printed reader below, and `cli.main`
loads each presentation text once), so monomials take no faster path: a
coordinate of 100,000 terms that is not in printed form takes about 1.5 s
(CPython 3.11, 2-core x86).

Arc coordinates have two readers.  Text in the printed series form, the one
`PowerSeries.polynomial_text` writes (terms p[/q][*t[^k]] or t[^k] joined by
exactly " + " and " - ", ASCII numbers of at most 640 digits and no zero
denominator), is read by one pattern match and summed over the lcm of its
denominators without the grammar; every arc nashres writes, and every arc of
the benchmark, is in that form.  Any other text, or a value that is not a
string, goes through the grammar, which stays the only source of
`ParseError`s: on the printed form the grammar can raise none.  Both readers
give `parse_arc` numerators by exponent over one denominator, and it sizes,
bounds and stores them alike.

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
from math import comb, lcm
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

# The printed series form (see the module); 640 digits is the least int() digit
# limit Python allows.  A term's groups: numerator, denominator, and the
# monomial after a coefficient or alone.
_PRINTED_NUMBER = "[0-9]{1,640}"
_PRINTED_TERM = (
    rf"(?:({_PRINTED_NUMBER})(?:/({_PRINTED_NUMBER}))?(?:\*(t(?:\^{_PRINTED_NUMBER})?))?"
    rf"|(t(?:\^{_PRINTED_NUMBER})?))"
)
_PRINTED = re.compile(rf"-?{_PRINTED_TERM}(?: [-+] {_PRINTED_TERM})*")
_PRINTED_TERMS = re.compile(rf"(^-|^| - | \+ ){_PRINTED_TERM}")


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


def _size(factor: MultiPoly) -> Tuple[int, int]:
    """The factor's number of terms and the bit length of its largest
    numerator or denominator."""
    top = max(max(map(abs, factor.nums.values()), default=0), factor.den)
    return len(factor.nums), top.bit_length()


class _Parser:
    def __init__(self, tokens: List[Token], variables: Tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.vars = variables
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
        terms = []  # (sign, term)
        kind = self.tokens[self.pos][0]
        while True:
            sign = 1
            if kind in ("PLUS", "MINUS"):  # optional before the first term only
                self.pos += 1
                sign = -1 if kind == "MINUS" else 1
            terms.append((sign, self.parse_term()))
            kind = self.tokens[self.pos][0]
            if kind not in ("PLUS", "MINUS"):
                break
        den = lcm(*(term.den for _, term in terms))
        out: Nums = {}
        for sign, term in terms:
            factor = sign * (den // term.den)
            for exp, c in term.nums.items():
                out[exp] = out.get(exp, 0) + c * factor
        return MultiPoly.from_integers(self.vars, out, den)

    def parse_term(self) -> MultiPoly:
        """The product of the factors."""
        tokens = self.tokens
        product = self.parse_factor()
        bits = _size(product)[1]
        bits = bits if bits > 1 else 0  # the sum of the factors' bit lengths above 1
        while True:
            kind = tokens[self.pos][0]
            if kind == "STAR":
                self.pos += 1
            elif kind not in ("NUM", "IDENT", "LPAREN"):
                return product
            column = tokens[self.pos][2]
            factor = self.parse_factor()
            n = len(product.nums)
            k, factor_bits = _size(factor)
            if n >= 2 and k >= 2 and n * k > MAX_POWER_TERMS:
                raise ParseError(
                    f"product of a {n}-term and a {k}-term sum expands past "
                    f"{MAX_POWER_TERMS} terms",
                    column=column,
                )
            if factor_bits > 1:
                if bits + factor_bits > MAX_CONSTANT_BITS:
                    raise ParseError(
                        f"product of {bits}-bit and {factor_bits}-bit coefficients passes "
                        f"{MAX_CONSTANT_BITS} bits",
                        column=column,
                    )
                bits += factor_bits
            product = product * factor

    def parse_factor(self) -> MultiPoly:
        """The base to its power."""
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
            base = MultiPoly.from_integers(self.vars, {(0,) * len(self.vars): p}, q)
        elif kind == "IDENT":
            base = MultiPoly.variable(self.vars, text)
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
        if tokens[self.pos][0] != "CARET":
            return base
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
        return base**k


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


def _read_printed(text) -> Optional[Tuple[Dict[int, int], int]]:
    """The numerators {k: c} over one denominator of a coordinate in the
    printed form (see the module), with cancelled terms left at 0, or None
    for any other text."""
    if type(text) is not str or not _PRINTED.fullmatch(text):
        return None
    terms = _PRINTED_TERMS.findall(text)
    dens = [int(q) if q else 1 for _, _, q, _, _ in terms]
    den = lcm(*dens)
    if not den:
        return None  # a zero denominator
    nums: Dict[int, int] = {}
    for (sign, p, _, times, bare), q in zip(terms, dens):
        monomial = times or bare
        k = 0 if not monomial else 1 if monomial == "t" else int(monomial[2:])
        c = (int(p) if p else 1) * (den // q)
        nums[k] = nums.get(k, 0) + (-c if "-" in sign else c)
    return nums, den


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
        read = _read_printed(text)
        if read is None:
            f = parse_poly(str(text))
            bad = [v for v in f.vars if v != "t"]
            if bad:
                raise ValidationError(f"non-t variables in coordinate {name!r}: {bad}")
            # every exponent is (k,) over t, or () for a constant
            read = {sum(e): c for e, c in f.nums.items()}, f.den
        terms, den = read
        size = max((k for k, c in terms.items() if c), default=-1) + 1
        size = size if prec is None else min(size, prec)
        if size > MAX_ARC_COEFFS:
            raise ValidationError(
                f"coordinate {name!r} needs {size} coefficients, above the limit {MAX_ARC_COEFFS}"
            )
        nums = [0] * size
        for k, c in terms.items():
            if k < size:
                nums[k] = c
        coords[name] = PowerSeries.from_integers(nums, den, prec)
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
