"""Test-only second route to the Carlitz module, independent of the
recursion the package runs.

The package applies phi(t) = t + F one way only, as the recursion
x_(k+1) = T x_k + x_k^q with phi(a)(x) = sum(a_k x_k), in
``localfield._apply_phi``; ``LocalModel.galois_rows`` combines the rows
of its last pass.  This oracle builds the operator phi(a) itself, as an
element of the ring of twisted polynomials A{F} in which F c = c^q F
(Goss, *Basic Structures of Function Field Arithmetic*, Springer 1996),
by Horner's rule in phi(t) = t + F, and applies it term by term: each
coefficient c_i(t) is evaluated at a series by Horner, and F^i is the
q^i-power.  On top of that sit the references the local model is
checked against: the torsion polynomial phi(f) with its Eisenstein
test, phi(f)(lambda) / lambda at a candidate t(lambda), the Galois
image of lambda under one unit, composition of series, the one-series
logarithmic derivative, and the eigen-uniformizer by fixed-point
iteration, where the package reads it off a closed-form recursion.

Nothing here calls ``_apply_phi``, ``galois_rows`` or
``eigen_uniformizer``; from the package it uses only polynomial,
residue-field and series arithmetic, ``carlitz.exp_coeffs`` and
``carlitz.additive_apply``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from bcscan.carlitz import additive_apply, exp_coeffs
from bcscan.fields import ConsistencyError, FieldError, ResidueField
from bcscan.poly import Poly, lift_to_poly
from bcscan.series import TruncSeries


# -- polynomial operations the package itself does not use ----------------------


def eval_at(f: Poly, x: int, F=None) -> int:
    """Horner evaluation; F defaults to the coefficient field.

    Packed base-field scalars embed into any residue field over the
    same base as-is, so passing a ResidueField evaluates the natural
    image of the polynomial at a residue element.
    """
    F = F or f.field
    acc = 0
    for c in reversed(f.coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def poly_derivative(f: Poly) -> Poly:
    F = f.field
    return Poly.make(F, [F.mul(c, i % F.p) for i, c in enumerate(f.coeffs)][1:])


def canonical_key(f: Poly):
    """The scan order: degree, then coefficients from the leading one down."""
    return (f.degree, tuple(reversed(f.coeffs)))


def poly_frobenius(f: Poly) -> Poly:
    """f(t)^q, computed as coefficients^q against exponents*q."""
    F = f.field
    q = F.frob_exponent
    if f.is_zero:
        return f
    out = [0] * (q * (len(f.coeffs) - 1) + 1)
    for i, c in enumerate(f.coeffs):
        out[q * i] = F.pow(c, q)
    return Poly(F, tuple(out))


# -- the twisted-polynomial ring ----------------------------------------------


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

    def __add__(self, other: "TwistedPoly") -> "TwistedPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = out[i] + v
        return TwistedPoly.make(self.field, out)

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
                    twisted = poly_frobenius(twisted)
        return TwistedPoly.make(self.field, out)

    def scalar_coeffs(self, R: ResidueField) -> tuple[int, ...]:
        """Coefficients evaluated at the residue class of t."""
        return tuple(eval_at(c, R.t_res, R) for c in self.coeffs)


@functools.lru_cache(maxsize=4096)
def carlitz_action(a: Poly) -> TwistedPoly:
    """phi(a) for the Carlitz module phi(t) = t + F."""
    F = a.field
    phit = TwistedPoly(F, (Poly(F, (0, 1)), Poly.one(F)))
    acc = TwistedPoly.zero(F)
    for c in reversed(a.coeffs):
        acc = phit * acc
        if c:
            acc = acc + TwistedPoly.const(F, Poly.make(F, [c]))
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
                fx = poly_frobenius(fx)
        return acc
    if isinstance(x, int):
        if field is None:
            raise FieldError("packed-element apply needs the residue field")
        acc, fx = 0, x
        q = field.q
        for i, c in enumerate(op.coeffs):
            s = eval_at(c, field.t_res, field)
            if s:
                acc = field.add(acc, field.mul(s, fx))
            if i + 1 < len(op.coeffs):
                fx = field.pow(fx, q)
        return acc
    raise TypeError(f"cannot apply twisted operator to {type(x).__name__}")


# -- the torsion polynomial of a prime -----------------------------------------


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


# -- series references for the local model -------------------------------------


def eval_poly_coeffs(s: TruncSeries, coeffs) -> TruncSeries:
    """Horner evaluation of a packed-coefficient polynomial at s."""
    acc = TruncSeries.zero(s.field, s.n)
    for c in reversed(list(coeffs)):
        acc = acc * s
        if c:
            acc = acc + TruncSeries.const(s.field, s.n, int(c))
    return acc


def compose(outer: TruncSeries, inner: TruncSeries) -> TruncSeries:
    """outer(inner); inner must have zero constant term."""
    n = min(outer.n, inner.n)
    if outer.field is not inner.field:
        raise FieldError("series live over different fields")
    if inner.c[0] != 0:
        raise FieldError("composition needs inner valuation >= 1")
    g = inner.truncate(n)
    acc = TruncSeries.zero(outer.field, n)
    for i in range(n - 1, -1, -1):
        acc = acc * g
        ci = int(outer.c[i])
        if ci:
            acc = acc + TruncSeries.const(outer.field, n, ci)
    return acc


def dlog(u: TruncSeries) -> TruncSeries:
    """u'/u, known one index less precisely than u."""
    if u.valuation() != 0:
        raise FieldError("logarithmic derivative needs a unit series")
    return u.derivative() * u.inverse()


def torsion_residual(model, T: TruncSeries) -> TruncSeries:
    """phi(f)(lambda) / lambda = sum(c_i(T) lambda^(q^i - 1)) for
    phi(f) = sum(c_i F^i), each c_i evaluated at T by Horner."""
    out = TruncSeries.zero(model.rf, model.n_work)
    for i, c in enumerate(cyclotomic_poly(model.prime).coeffs):
        out = out + eval_poly_coeffs(T, c.coeffs).shift_up(model.q**i - 1)
    return out


def galois_image(model, g: int) -> TruncSeries:
    """g . lambda = sum(c_i(t(lambda)) lambda^(q^i)) for phi of the
    canonical lift of g; exact at the model's working precision."""
    if not 0 < g < model.rf.size:
        raise FieldError("Galois action is by residue units")
    op = carlitz_action(lift_to_poly(model.rf, g))
    out = TruncSeries.zero(model.rf, model.n_work)
    for i, c in enumerate(op.coeffs):
        out = out + eval_poly_coeffs(model.t_series, c.coeffs).shift_up(model.q**i)
    return out


def uniformizer_fixed_point(model) -> TruncSeries:
    """pi with ebar(pi) = lambda at the model's working precision, by the
    iteration pi <- pi - (ebar(pi) - lambda) from pi = lambda.  ebar is
    additive, so the next error is -sum(e_i err^(q^i), i >= 1), and each
    pass multiplies the error's depth by at least q; a pass where it
    does not grow raises."""
    R, n = model.rf, model.n_work
    e = exp_coeffs(R)
    lam = TruncSeries.monomial(R, n, 1)
    pi, prev = lam, 0
    for _ in range(n + 2):
        err = additive_apply(e, pi) - lam
        if err.is_zero:
            return pi
        v = err.valuation()
        if v <= prev:
            raise ConsistencyError("uniformizer fixed point stalled")
        prev = v
        pi = pi - err
    raise ConsistencyError("uniformizer fixed point did not close")
