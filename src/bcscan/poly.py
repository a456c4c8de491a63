"""Univariate polynomials over a packed finite field.

Coefficients are stored little-endian (constant term first) as packed
field elements, trailing zeros trimmed.  The canonical ordering used for
scan output sorts by degree, then lexicographically on the coefficient
vector read from the leading term down, coefficients compared by packed
value.  Text round trips are exact: ``parse_poly(poly_to_str(f)) == f``.

The primes of F_q[t] are enumerated by Frobenius orbits, one field
R0 = F_(q^d) per degree, degree one included (``monic_irreducibles``),
with a root of each prime in it.  They are irreducible by construction,
so a scan builds their fields untested, each by relabelling R0
(``ResidueField.relabelled``).  A polynomial from outside the enumerator
is tested in one place, ``fields._residue_cached``, before
``residue_field`` first builds its field; the enumerator's own test runs
only in its search for the first prime of each degree.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

from .fields import (
    BaseField,
    FieldError,
    MAX_FIELD_SIZE,
    ResidueField,
    _pl_add,
    _pl_divmod,
    _pl_is_irreducible,
    _pl_mul,
    _pl_sub,
    _pl_trim,
    _prime_factors,
    orbit_polys,
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

    def is_irreducible(self) -> bool:
        return _pl_is_irreducible(self.field, list(self.coeffs))

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"Poly({poly_to_str(self)!r})"


def monic_polys(field, d: int):
    """All monic degree-d polynomials, in canonical order."""
    q = field.size
    for tail in itertools.product(range(q), repeat=d):
        # tail runs leading-side first, which is exactly canonical order
        yield Poly(field, tuple(reversed(tail)) + (1,))


class Primes(list):
    """The monic irreducibles of one degree d, a list of Poly in canonical
    order, with the field they were found in: ``home`` is
    R0 = F_q[t]/(f0), f0 the first of them, and ``roots[i]`` is a root in
    it of prime i, the least element of its Frobenius orbit, so that
    ``ResidueField.relabelled(home, f.coeffs, roots[i])`` is the residue
    field of prime i."""

    def __init__(self, primes, home, roots: np.ndarray):
        super().__init__(primes)
        self.home = home
        self.roots = roots


def monic_irreducibles(field, d: int) -> Primes:
    """The monic irreducibles of degree d over field, in canonical order,
    with the field R0 they were found in and a root of each in it.

    They are the minimal polynomials of the Frobenius orbits of length
    exactly d in F_(q^d) (Lidl and Niederreiter, *Finite Fields*, Thm.
    3.25).  One field serves the degree: R0 = F_q[t]/(f0), f0 the first
    monic irreducible in canonical order, found by the distinct-degree
    test and built directly.  Each orbit is kept at its least packed
    element a, its conjugates a^(q^i) are gathers through R0's Frobenius
    table, and ``fields.orbit_polys`` multiplies out prod (x - a^(q^i))
    across all orbits at once, checking that every coefficient is in
    F_q, the packed values below q: at degree one, R0 = F_q[t]/(t) and
    t + c has the root -c.  These primes are irreducible by
    construction: a scan relabels R0 to each one's field, untested.  A
    degree with q^d above the residue-field cap is refused."""
    q = field.size
    if d < 1:
        return Primes([], None, np.zeros(0, dtype=np.int32))
    if q**d > MAX_FIELD_SIZE:
        raise FieldError(
            f"residue field size q^d = {q**d} exceeds supported limit {MAX_FIELD_SIZE}"
        )
    f0 = next(f for f in monic_polys(field, d) if f.is_irreducible())
    R0 = ResidueField(field, f0.coeffs)
    conj = np.empty((R0.size, d), dtype=np.int32)  # row a: a, a^q, .., a^(q^(d-1))
    conj[:, 0] = np.arange(R0.size)
    for i in range(1, d):
        conj[:, i] = R0.vfrobq(conj[:, i - 1])
    a = conj[:, 0]
    keep = conj.min(axis=1) == a
    for ell in _prime_factors(d):
        keep &= conj[:, d // ell] != a  # the orbit is no shorter than d
    coeffs = orbit_polys(R0, conj[keep], q)
    order = np.lexsort(coeffs[:, :d].T)  # the x^(d-1) column is the primary key
    # zip reads the rows off the columns as tuples, with no list per prime
    return Primes([Poly(field, row) for row in zip(*coeffs[order].T.tolist())], R0, a[keep][order])


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
    # ASCII digits only: \d and str.isdecimal take every script's digits
    m = re.fullmatch(r"([0-9]+)|(?:([0-9]+)\*?)?a(?:\^([0-9]+))?", tok)
    if not m:
        raise PolyParseError(f"cannot parse coefficient {tok!r}")
    if m[1]:
        return _int_embed(field, _bounded_int(m[1], "coefficient"))
    c = _int_embed(field, _bounded_int(m[2], "coefficient")) if m[2] else 1
    return field.mul(c, _a_power(field, _bounded_int(m[3] or "1", "exponent")))


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
        elif re.fullmatch(r"\^[0-9]+", rest):
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
