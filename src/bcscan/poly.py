"""Univariate polynomials over a packed finite field.

Coefficients are stored little-endian (constant term first) as packed
field elements, trailing zeros trimmed.  The canonical ordering used for
scan output sorts by degree, then lexicographically on the coefficient
vector read from the leading term down, coefficients compared by packed
value.  Text round trips are exact: ``parse_poly(poly_to_str(f)) == f``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .fields import (
    BaseField,
    FieldError,
    MAX_FIELD_SIZE,
    ResidueField,
    _pl_add,
    _pl_deriv,
    _pl_divmod,
    _pl_gcd,
    _pl_is_irreducible,
    _pl_mul,
    _pl_sub,
    _pl_trim,
    residue_field_raw,
)

NEG_INF = float("-inf")


@dataclass(frozen=True)
class Poly:
    """Immutable polynomial over ``field`` (a BaseField or ResidueField)."""

    field: BaseField
    coeffs: tuple[int, ...]

    # -- constructors ---------------------------------------------------

    @staticmethod
    def make(field, coeffs) -> "Poly":
        c = [int(v) for v in coeffs]
        if any(not 0 <= v < field.size for v in c):
            raise FieldError("coefficient out of packed range")
        return Poly(field, tuple(_pl_trim(c)))

    @staticmethod
    def zero(field) -> "Poly":
        return Poly(field, ())

    @staticmethod
    def one(field) -> "Poly":
        return Poly(field, (1,))

    @staticmethod
    def const(field, c: int) -> "Poly":
        return Poly.make(field, [c])

    @staticmethod
    def gen(field) -> "Poly":
        """The variable itself (t for scan polynomials)."""
        return Poly(field, (0, 1))

    # -- structure ------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise FieldError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def canonical_key(self):
        return (self.degree, tuple(reversed(self.coeffs)))

    # -- ring operations --------------------------------------------------

    def _wrap(self, coeffs: list[int]) -> "Poly":
        return Poly(self.field, tuple(coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        return self._wrap(_pl_add(self.field, self.coeffs, other.coeffs))

    def __neg__(self) -> "Poly":
        F = self.field
        return self._wrap([F.neg(v) for v in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self._wrap(_pl_sub(self.field, list(self.coeffs), list(other.coeffs)))

    def __mul__(self, other: "Poly") -> "Poly":
        return self._wrap(_pl_mul(self.field, list(self.coeffs), list(other.coeffs)))

    def scale(self, c: int) -> "Poly":
        F = self.field
        if c == 0:
            return Poly.zero(F)
        return self._wrap(_pl_trim([F.mul(c, v) for v in self.coeffs]))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        q, r = _pl_divmod(self.field, list(self.coeffs), list(other.coeffs))
        return self._wrap(q), self._wrap(r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative exponent")
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.lead))

    def derivative(self) -> "Poly":
        return self._wrap(_pl_deriv(self.field, list(self.coeffs)))

    def eval_at(self, x: int, F=None) -> int:
        """Horner evaluation; F defaults to the coefficient field.

        Packed base-field scalars embed into any residue field over the
        same base as-is, so passing a ResidueField evaluates the natural
        image of the polynomial at a residue element.
        """
        F = F or self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def frobenius(self) -> "Poly":
        """f(t)^q, computed as coefficients^q against exponents*q."""
        F = self.field
        q = F.frob_exponent
        if self.is_zero:
            return self
        out = [0] * (q * (len(self.coeffs) - 1) + 1)
        for i, c in enumerate(self.coeffs):
            out[q * i] = F.pow(c, q)
        return self._wrap(out)

    def is_irreducible(self) -> bool:
        return _pl_is_irreducible(self.field, list(self.coeffs))

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"Poly({poly_to_str(self)!r})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    return Poly(a.field, tuple(_pl_gcd(a.field, list(a.coeffs), list(b.coeffs))))


def monic_polys(field, d: int):
    """All monic degree-d polynomials, in canonical order."""
    q = field.size
    for tail in itertools.product(range(q), repeat=d):
        # tail runs leading-side first, which is exactly canonical order
        yield Poly(field, tuple(reversed(tail)) + (1,))


def monic_irreducibles(field, d: int) -> list[Poly]:
    return [f for f in monic_polys(field, d) if f.is_irreducible()]


def residue_field(prime: Poly) -> ResidueField:
    if not prime.is_monic:
        raise FieldError("prime must be monic")
    return residue_field_raw(prime.field, prime.coeffs)


def lift_to_poly(R: ResidueField, v: int) -> Poly:
    """The degree-< d canonical representative of a residue element."""
    return Poly(R.base, tuple(_pl_trim(list(R.lift_coeffs(v)))))


def residue_to_str(R: ResidueField, v: int) -> str:
    return poly_to_str(lift_to_poly(R, v))


# ---------------------------------------------------------------------------
# Text rendering.

def _term_str(field, c: int, i: int, var: str) -> tuple[int, str]:
    sign, text, parens = field.coeff_repr(c)
    if i == 0:
        return sign, text
    vpart = var if i == 1 else f"{var}^{i}"
    if text == "1":
        return sign, vpart
    if parens:
        return sign, f"({text})*{vpart}"
    return sign, f"{text}*{vpart}"


def poly_to_str(poly: Poly, var: str = "t") -> str:
    if poly.is_zero:
        return "0"
    field = poly.field
    pieces = []
    for i in range(len(poly.coeffs) - 1, -1, -1):
        c = poly.coeffs[i]
        if c == 0:
            continue
        sign, text = _term_str(field, c, i, var)
        if not pieces:
            pieces.append(text if sign > 0 else f"-{text}")
        else:
            pieces.append(f" + {text}" if sign > 0 else f" - {text}")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# Text parsing.  Tolerant of whitespace, optional '*', '**' for '^', and
# the alias α for a.  Grammar per term:
#   [coefficient] ['*'] [var ['^' int]]
# where coefficient is an integer, an a-power (a, a^3), or a parenthesized
# integer combination of a-powers like (a + 2) or (2*a^2 + 1).

_INT_RE = re.compile(r"\d+")


class PolyParseError(ValueError):
    pass


def _split_terms(s: str) -> list[tuple[int, str]]:
    terms: list[tuple[int, str]] = []
    depth = 0
    cur: list[str] = []
    sign = 0  # 0 = no sign seen yet for the first term
    for ch in s:
        if ch == "(":
            depth += 1
            cur.append(ch)
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise PolyParseError("unbalanced parentheses")
            cur.append(ch)
        elif ch in "+-" and depth == 0:
            chunk = "".join(cur).strip()
            if chunk:
                terms.append((sign or 1, chunk))
            elif sign != 0 or terms:
                raise PolyParseError("consecutive operators")
            sign = 1 if ch == "+" else -1
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise PolyParseError("unbalanced parentheses")
    chunk = "".join(cur).strip()
    if not chunk:
        raise PolyParseError("trailing operator")
    terms.append((sign or 1, chunk))
    return terms


def _parse_coeff_atom(field, tok: str) -> int:
    tok = tok.strip()
    if not tok:
        raise PolyParseError("empty coefficient")
    if tok.isdecimal():
        return _int_embed(field, _bounded_int(tok, "coefficient"))
    if tok == "a":
        return _a_power(field, 1)
    m = re.fullmatch(r"a\^(\d+)", tok)
    if m:
        return _a_power(field, _bounded_int(m.group(1), "exponent"))
    m = re.fullmatch(r"(\d+)\*?a(?:\^(\d+))?", tok)
    if m:
        c = _int_embed(field, _bounded_int(m.group(1), "coefficient"))
        return field.mul(c, _a_power(field, _bounded_int(m.group(2) or "1", "exponent")))
    raise PolyParseError(f"cannot parse coefficient {tok!r}")


def _bounded_int(digits: str, what: str) -> int:
    # bounded before int(), which refuses very long digit strings, and
    # before parse_poly allocates: no supported degree or field is larger
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_FIELD_SIZE)) or int(digits) > MAX_FIELD_SIZE:
        raise PolyParseError(f"{what} exceeds the supported limit {MAX_FIELD_SIZE}")
    return int(digits)


def _int_embed(field, n: int) -> int:
    return n % field.p  # image of an integer under Z -> F_q


def _a_power(field, j: int) -> int:
    if field.r == 1:
        raise PolyParseError("'a' is only defined over extension base fields")
    return field.pow(field.a_packed, j)


def _parse_paren_coeff(field, body: str) -> int:
    total = 0
    for sign, chunk in _split_terms(body):
        v = _parse_coeff_atom(field, chunk)
        total = field.add(total, v if sign > 0 else field.neg(v))
    return total


def _parse_term(field, chunk: str, var: str) -> tuple[int, int]:
    """Return (packed coefficient, exponent) for one signed-stripped term."""
    s = chunk.replace(" ", "")
    coeff = 1
    # leading parenthesized coefficient
    if s.startswith("("):
        depth, i = 0, 0
        for i, ch in enumerate(s):
            depth += ch == "("
            depth -= ch == ")"
            if depth == 0:
                break
        coeff = _parse_paren_coeff(field, s[1:i])
        s = s[i + 1 :].lstrip("*")
    # variable part, if present
    vpos = s.find(var)
    if vpos == -1:
        head, exp = s, 0
    else:
        head = s[:vpos].rstrip("*")
        rest = s[vpos + len(var) :]
        if rest == "":
            exp = 1
        elif rest.startswith("^") and rest[1:].isdecimal():
            exp = _bounded_int(rest[1:], "exponent")
        else:
            raise PolyParseError(f"bad exponent in {chunk!r}")
    if head:
        coeff = field.mul(coeff, _parse_coeff_atom(field, head))
    elif vpos == -1:
        raise PolyParseError(f"empty term in {chunk!r}")
    return coeff, exp


def parse_poly(s: str, field, var: str = "t") -> Poly:
    """Parse text like ``t^3 - t + 1`` or ``t^2 + a*t + a^2`` over field."""
    text = s.replace("**", "^").replace("α", "a").strip()
    if text in ("", "0"):
        return Poly.zero(field)
    coeffs: dict[int, int] = {}
    for sign, chunk in _split_terms(text):
        c, e = _parse_term(field, chunk, var)
        if sign < 0:
            c = field.neg(c)
        coeffs[e] = field.add(coeffs.get(e, 0), c)
    if not coeffs:
        return Poly.zero(field)
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return Poly(field, tuple(_pl_trim(out)))
