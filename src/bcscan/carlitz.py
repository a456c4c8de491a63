"""The Carlitz module over A = F_q[t]: twisted operators, exponential
coefficients, Bernoulli-Carlitz residues, torsion polynomials.

A twisted polynomial sum(a_i F^i) is an additive operator on any
F_q[t]-algebra, F acting as the q-power map.  Multiplication obeys
F c = c^q F.  The Carlitz module is the ring map phi from A into twisted
polynomials determined by phi(t) = t + F; applying phi(a) to things is
what everything downstream is built on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fields import FieldError, ResidueField
from .poly import Poly
from .series import TruncSeries


@dataclass(frozen=True)
class TwistedPoly:
    """sum(coeffs[i] * F^i) with polynomial coefficients, F c = c^q F."""

    field: object
    coeffs: tuple[Poly, ...]

    @staticmethod
    def make(field, coeffs) -> "TwistedPoly":
        cs = list(coeffs)
        while cs and cs[-1].is_zero:
            cs.pop()
        return TwistedPoly(field, tuple(cs))

    @staticmethod
    def zero(field) -> "TwistedPoly":
        return TwistedPoly(field, ())

    @staticmethod
    def const(field, c: Poly) -> "TwistedPoly":
        return TwistedPoly.make(field, (c,))

    @property
    def order(self):
        """Frobenius degree (index of the top nonzero coefficient)."""
        return len(self.coeffs) - 1

    def __add__(self, other: "TwistedPoly") -> "TwistedPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = out[i] + v
        return TwistedPoly.make(self.field, out)

    def __sub__(self, other: "TwistedPoly") -> "TwistedPoly":
        return self + TwistedPoly.make(other.field, [-c for c in other.coeffs])

    def __mul__(self, other: "TwistedPoly") -> "TwistedPoly":
        # (a_i F^i)(b_j F^j) = a_i b_j^(q^i) F^(i+j)
        if not self.coeffs or not other.coeffs:
            return TwistedPoly.zero(self.field)
        out = [Poly.zero(self.field)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, b in enumerate(other.coeffs):
            twisted = b
            for i, a in enumerate(self.coeffs):
                if not (a.is_zero or twisted.is_zero):
                    out[i + j] = out[i + j] + a * twisted
                if i + 1 < len(self.coeffs):
                    twisted = twisted.frobenius()
        return TwistedPoly.make(self.field, out)

    def scalar_coeffs(self, R: ResidueField) -> tuple[int, ...]:
        """Coefficients evaluated at the residue class of t."""
        return tuple(c.eval_at(R.t_res, R) for c in self.coeffs)


@functools.lru_cache(maxsize=4096)
def carlitz_action(a: Poly) -> TwistedPoly:
    """phi(a) for the Carlitz module phi(t) = t + F."""
    F = a.field
    phit = TwistedPoly(F, (Poly.gen(F), Poly.one(F)))
    acc = TwistedPoly.zero(F)
    for c in reversed(a.coeffs):
        acc = phit * acc
        if c:
            acc = acc + TwistedPoly.const(F, Poly.const(F, c))
    return acc


def additive_apply(scalars, x: TruncSeries) -> TruncSeries:
    """sum(scalars[i] * x^(q^i)) for packed scalars over x's field."""
    acc = TruncSeries.zero(x.field, x.n)
    fx = x
    for i, s in enumerate(scalars):
        if s:
            acc = acc + fx.scale(int(s))
        if i + 1 < len(scalars):
            fx = fx.frobenius_q()
    return acc


def twisted_apply(op: TwistedPoly, x, field: ResidueField | None = None):
    """Apply the additive operator op.

    Accepts a Poly over op's coefficient field (Frobenius = ^q on
    polynomials), a TruncSeries over a residue field of it, or a packed
    residue element together with its ResidueField.
    """
    if isinstance(x, TruncSeries):
        return additive_apply(op.scalar_coeffs(x.field), x)
    if isinstance(x, Poly):
        acc = Poly.zero(x.field)
        fx = x
        for i, c in enumerate(op.coeffs):
            if not c.is_zero:
                acc = acc + c * fx
            if i + 1 < len(op.coeffs):
                fx = fx.frobenius()
        return acc
    if isinstance(x, int):
        if field is None:
            raise FieldError("packed-element apply needs the residue field")
        acc, fx = 0, x
        q = field.q
        for i, c in enumerate(op.coeffs):
            s = c.eval_at(field.t_res, field)
            if s:
                acc = field.add(acc, field.mul(s, fx))
            if i + 1 < len(op.coeffs):
                fx = field.pow(fx, q)
        return acc
    raise TypeError(f"cannot apply twisted operator to {type(x).__name__}")


# ---------------------------------------------------------------------------
# Carlitz exponential mod a prime.

def exp_coeffs(R: ResidueField, count: int | None = None) -> tuple[int, ...]:
    """First ``count`` exponential coefficients reduced mod the prime.

    e_0 = 1 and e_i = e_{i-1}^q / (t^(q^i) - t); the denominator is a
    unit in the residue field exactly for i < d, so count caps at d.
    """
    d = R.d
    if count is None:
        count = d
    if not 1 <= count <= d:
        raise FieldError(f"exponential coefficients reduce mod the prime only up to index {d - 1}")
    q = R.q
    out = [1]
    tq = R.t_res
    for i in range(1, count):
        tq = R.pow(tq, q)  # t^(q^i) mod the prime
        den = R.sub(tq, R.t_res)
        if den == 0:
            raise FieldError("denominator vanished before index d")
        out.append(R.div(R.pow(out[-1], q), den))
    return tuple(out)


@dataclass(frozen=True)
class BCVector:
    """Bernoulli-Carlitz residues mod a prime of degree d.

    values[n] is the coefficient of z^n in the inverse of
    E(z) = e(z)/z = sum(e_i z^(q^i - 1), i < d), taken mod z^(q^d - 1).
    This is the Bernoulli-Carlitz number over the Carlitz factorial, and
    the factorial is a unit here, so values[n] == 0 is exactly
    divisibility of the n-th Bernoulli-Carlitz number by the prime.
    """

    rf: ResidueField
    values: tuple[int, ...]

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)


def bc_numbers(R: ResidueField) -> BCVector:
    """BC residues by the sparse recurrence of 1/E.

    E has d terms and e_0 = 1, so b = 1/E satisfies b_0 = 1 and
    b_k = -sum(e_i b_(k - (q^i - 1)), 1 <= i < d): O(Q d) field
    operations.  Every shift is at least q - 1, so q - 1 coefficients
    depend only on earlier ones and are filled together."""
    q, d = R.q, R.d
    n = q**d - 1
    ec = exp_coeffs(R)
    shifts = [q**i - 1 for i in range(1, d)]
    if R.p == 2:
        # addition is XOR and -1 = 1: a scalar loop over the log tables
        # beats numpy calls on one coefficient at a time
        exp2, log = R._exp * 2, R._log
        terms = [(s, log[e]) for s, e in zip(shifts, ec[1:])]
        b = [1] + [0] * (n - 1)
        for k in range(1, n):
            acc = 0
            for s, le in terms:
                if s > k:
                    break
                v = b[k - s]
                if v:
                    acc ^= exp2[log[v] + le]
            b[k] = acc
        return BCVector(R, tuple(b))
    # odd p: coefficients as F_p-coordinate rows; multiplication by e_i is
    # the m x m matrix of the images of the basis p^j, stacked over i
    p, m = R.p, R.m
    M = R._unpack[[R.mul(p**j, e) for e in ec[1:] for j in range(m)]]
    B = np.zeros((n + 1, m), dtype=np.int64)  # row n stays 0: indices below 0 read it
    B[0, 0] = 1
    w = q - 1
    offsets = np.arange(w)[:, None] - np.array(shifts, dtype=np.int64)
    for k in range(1, n, w):
        rows = min(w, n - k)
        src = np.maximum(k + offsets[:rows], -1)
        B[k : k + rows] = -(B[src].reshape(rows, len(M)) @ M) % p
    return BCVector(R, tuple((B[:n] @ R._packw).tolist()))


def irregular_indices(bc: BCVector) -> frozenset[int]:
    """{n : 0 < n < q^d - 1, (q-1) | n, prime divides BC_n}."""
    q = bc.rf.q
    return frozenset(
        n
        for n in range(q - 1, len(bc.values), q - 1)
        if bc.values[n] == 0
    )


# ---------------------------------------------------------------------------
# Torsion polynomial of a prime.

@dataclass(frozen=True)
class TorsionPoly:
    """phi(f) = sum(coeffs[i] F^i) for a monic prime f of degree d.

    Applied to X and divided by X this is the cyclotomic polynomial
    sum(coeffs[i] X^(q^i - 1)) whose roots are the primitive f-torsion
    points of the Carlitz module.
    """

    prime: Poly
    coeffs: tuple[Poly, ...]

    @property
    def d(self) -> int:
        return len(self.coeffs) - 1

    def eisenstein_ok(self) -> bool:
        """Middle coefficients divisible by f, constant f itself, monic."""
        if self.coeffs[0] != self.prime or not self.coeffs[-1] == Poly.one(self.prime.field):
            return False
        return all((c % self.prime).is_zero for c in self.coeffs[1:-1])


def cyclotomic_poly(prime: Poly) -> TorsionPoly:
    if not (prime.is_monic and prime.degree >= 1):
        raise FieldError("prime must be monic of degree >= 1")
    op = carlitz_action(prime)
    if op.coeffs[0] != prime or op.coeffs[-1] != Poly.one(prime.field):
        raise FieldError("torsion operator lost its expected ends")
    return TorsionPoly(prime, op.coeffs)
