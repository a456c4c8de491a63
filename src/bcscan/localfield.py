"""Local lambda-adic model of the torsion module at a prime.

Fix a monic irreducible f of degree d over F_q and let R be its residue
field, Q = q^d.  A primitive f-torsion point lambda of the Carlitz
module generates a totally ramified extension of degree Q-1, and the
completed picture is the power-series model R[[lambda]]:

* t acts as a series T = t(lambda) solving the torsion equation
  phi(f)(lambda) = 0, lying over the residue t-bar;
* the unit group of R acts by g . lambda = phi(a_g)(lambda) for any
  lift a_g of g, which is well defined because phi(f)(lambda) = 0;
* an eigen-uniformizer pi with ebar(pi) = lambda turns logarithmic
  derivatives of the cyclotomic unit ratios g.lambda / lambda into
  Bernoulli-Carlitz residues, one character component at a time.
  ebar is additive, so pi is its additive inverse, read off a d-term
  recursion in closed form, and d pi/d lambda = 1.

phi acts by one rule only, phi(t) = T + F applied as the recursion
x_(k+1) = T x_k + x_k^q, phi(a)(x) = sum(a_k x_k), in ``_apply_phi``
alone.  T is Newton's root of phi(f)(lambda) / lambda, and the last
pass at T leaves the d rows phi(t^k)(lambda) that ``galois_rows``
combines.  The first residual must sit at depth >= q^d - 1, as every
middle coefficient of phi(f) is divisible by f (phi(f) is Eisenstein
at f); the Newton solve checks that depth.  The twisted-polynomial
ring, Horner evaluation at a series, the one-unit Galois image and the
fixed-point iteration for pi are independent references kept in the
tests (``tests/carlitz_oracle.py``).

The sweep is whole tables: the Galois rows, read off the exp table as
phi(a)(lambda) is F_q-linear in a; their dlogs, each ratio
g.lambda / lambda divided into its derivative by ``series.divide_rows``
along the ratio's few nonzero coefficients; the dlog components, the
``fields.char_sums`` weights times that dlog matrix in one F_Q matrix
product (``vmatmul``, float BLAS products of F_p digits); and
pi^(n-1) for every n by ``fields.power_rows``, each component checked
against it.  A model is built from its prime's residue field and keeps
none of these tables: the sweep reads each once.

Internal truncation is q^d + 2: a logarithmic derivative costs one
index to the division by lambda and one to d/dlambda, so reported
series are exact mod lambda^(q^d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .carlitz import additive_apply, exp_coeffs
from .fields import ConsistencyError, FieldError, ResidueField, char_sums, power_rows
from .poly import Poly, residue_field
from .series import TruncSeries, derivative_rows, divide_rows, mul_rows

# The dlog table is (Q-1) x Q and the components' matrix product takes
# about Q^3 m^2 float multiply-adds, Q = p^m: on a 2-core host with one
# BLAS thread, classify --check-local at t^11 + t^2 + 1 over F_2
# (Q = 2^11) took 17 s with a 147 MB resident peak, at t^10 + t^3 + 1
# (Q = 2^10) 1.8 s and 67 MB.
MAX_LOCAL_SIZE = 1 << 11


def check_local_size(size: int) -> None:
    """Refuse a local model over more than MAX_LOCAL_SIZE elements."""
    if size > MAX_LOCAL_SIZE:
        raise FieldError(f"the local model is supported up to q^d = {MAX_LOCAL_SIZE}, not {size}")


def _apply_phi(T: TruncSeries, coeffs) -> tuple[TruncSeries, TruncSeries, np.ndarray]:
    """phi(a)(z) / z and its T-derivative, t acting as T, a = sum(a_k t^k)
    over F_q: sum(a_k y_k), y_0 = 1, y_(k+1) = T y_k + z^(q-1) y_k^q, and
    y'_(k+1) = y_k + T y'_k, as (y_k^q)' = q (...) = 0.  Also the rows
    y_k for k < deg a, y_k = phi(t^k)(z) / z."""
    y, q = TruncSeries.one(T.field, T.n), T.field.q
    acc = dacc = dy = TruncSeries.zero(T.field, T.n)
    ys = []
    for k, a in enumerate(coeffs):
        acc = acc + y.scale(int(a))
        dacc = dacc + dy.scale(int(a))
        if k + 1 < len(coeffs):
            ys.append(y.c)
            dy = y + T * dy
            y = T * y + y.frobenius_q().shift_up(q - 1)
    return acc, dacc, np.array(ys)


class LocalModel:
    def __init__(self, rf: ResidueField):
        check_local_size(rf.size)
        self.rf = rf
        self.prime = Poly(rf.base, rf.prime_coeffs)
        self.q, self.d = rf.q, rf.d
        self.N = self.q**self.d
        self.n_work = self.N + 2
        # the d rows phi(t^k)(lambda) / lambda, k < d, of Newton's last
        # phi pass, at the final T
        self.t_series, self._phi_rows = self._solve_t_series()

    # -- the t-expansion ----------------------------------------------------

    def _solve_t_series(self) -> tuple[TruncSeries, np.ndarray]:
        """Newton's method in T on phi(f)(lambda) / lambda = 0; T, and the
        rows y_k, k < d, of the phi pass that found its residual zero."""
        T = TruncSeries.const(self.rf, self.n_work, self.rf.t_res)
        r, dG, ys = _apply_phi(T, self.prime.coeffs)
        v = r.valuation()
        # Eisenstein middle coefficients all vanish at t-bar, so only the
        # monic top term survives: the first residual sits at q^d - 1
        if not r.is_zero and v < self.N - 1:
            raise ConsistencyError(f"initial torsion residual at depth {v}, expected >= {self.N - 1}")
        steps, n = 0, self.n_work
        while not r.is_zero:
            # r vanishes below z^v, so r / dG mod z^n needs 1/dG only mod z^(n - v)
            step = r.shift_down(v) * dG.truncate(n - v).inverse()
            T = T - TruncSeries(self.rf, n, np.pad(step.c, (v, 0)))
            r, dG, ys = _apply_phi(T, self.prime.coeffs)
            if not r.is_zero and r.valuation() <= v:
                raise ConsistencyError("Newton iteration for t(lambda) stalled")
            v = r.valuation()
            steps += 1
            if steps > 40:  # pragma: no cover - quadratic convergence
                raise ConsistencyError("Newton iteration for t(lambda) ran away")
        return T, ys

    # -- Galois action on lambda ----------------------------------------------

    def galois_rows(self) -> np.ndarray:
        """Row j: gamma^j . lambda = phi(a)(lambda), a = exp[j] as a polynomial
        of degree < d: lambda sum(a_k y_k) over the rows y_k of the Newton
        solve's last phi pass.  Valid because phi(f) kills lambda to
        working precision, so only a mod f matters.  A (Q-1) x n_work
        array, built on each call."""
        R = self.rf
        rows = np.zeros((R.order, self.n_work), dtype=np.int32)
        for k, y in enumerate(self._phi_rows):
            term = R.vmul(R._npexp[:, None] // self.q**k % self.q, y[None, :-1])
            rows[:, 1:] = R.vadd(rows[:, 1:], term)
        return rows

    # -- dlog components -------------------------------------------------------

    def dlog_matrix(self) -> np.ndarray:
        """Row j: dlog(gamma^j . lambda / lambda) mod lambda^(q^d), read-only
        and built on each call.  Each ratio is nonzero only at lambda^0 and
        the lambda^(q^i - 1), i <= d, so the division follows their sparse
        recurrence, q - 1 coefficients of every row per step."""
        R, U = self.rf, self.galois_rows()
        if U[:, 0].any() or not U[:, 1].all():
            raise ConsistencyError("a Galois image of lambda lost valuation 1")
        U = U[:, 1:]  # (g . lambda) / lambda
        M = divide_rows(R, derivative_rows(R, U), U[:, : self.N])
        M.setflags(write=False)
        return M

    def dlog_components(self) -> np.ndarray:
        """Row n - 1: -sum over units g of chi(g)^(-n) dlog(g.lambda / lambda)
        for 1 <= n <= q^d - 2, exact mod lambda^(q^d).  chi(gamma^j)^(-n)
        is exp[-n j], so this is one character sum over the dlog rows: the
        gathered weights W[n - 1, j] = exp[-n j] times the dlog matrix, one
        F_Q matrix product.  W is gathered whole, not reduced chunk by
        chunk, as each product expands the dlog matrix to F_p digits
        once per row block of its left operand (once at Q = 2^10, four
        times at Q = 2^11), and a chunk of W is a few rows."""
        R, js = self.rf, np.arange(self.rf.order)
        W = char_sums(R.order, R._npexp, js, lambda w: w, js[1:])
        comps = R.vneg(R.vmatmul(W, self.dlog_matrix()))
        comps.setflags(write=False)
        return comps

    # -- eigen-uniformizer ------------------------------------------------------

    def eigen_uniformizer(self) -> TruncSeries:
        """pi with ebar(pi) = lambda, so the units act on pi through the
        residue character: g . pi = chi(g) pi.  ebar = sum(e_i z^(q^i), i < d)
        is additive, so pi is too: sum(l_k lambda^(q^k)) with l_0 = 1 and
        l_k = -sum(e_i l_(k-i)^(q^i), 1 <= i <= min(k, d-1)), and
        d pi/d lambda = l_0 = 1.  Built on each call."""
        R, q, e = self.rf, self.q, exp_coeffs(self.rf)
        c, ls = np.zeros(self.n_work, dtype=np.int32), [1]
        while q ** len(ls) < self.n_work:
            k, acc = len(ls), 0
            for i in range(1, min(k, self.d - 1) + 1):
                acc = R.add(acc, R.mul(e[i], R.pow(ls[k - i], q**i)))
            ls.append(R.neg(acc))
        c[q ** np.arange(len(ls))] = ls
        pi = TruncSeries(R, self.n_work, c)
        if additive_apply(e, pi) != TruncSeries.monomial(R, self.n_work, 1):
            raise ConsistencyError("ebar(pi) is not lambda")
        return pi


@dataclass(frozen=True)
class LocalSweep:
    """Whole-range local extraction for one prime.

    vanished[n] says whether the n-th dlog component is 0 mod
    lambda^(q^d), for 1 <= n <= q^d - 2; values[n] holds the extracted
    Bernoulli-Carlitz residue for 2 <= n <= q^d - 2.
    """

    prime: Poly
    vanished: dict[int, bool]
    values: dict[int, int]


def bc_local_sweep(model: LocalModel) -> LocalSweep:
    """Bernoulli-Carlitz residues read off the lambda-adic side: the n-th
    dlog component must be a scalar times pi^(n-1) pi' = pi^(n-1), and
    that scalar is the residue.  At n = 1 the error term of the underlying
    congruence is not below lambda^(q^d) yet, so only vanishing is
    recorded there."""
    R, N = model.rf, model.N
    if N < 3:
        return LocalSweep(model.prime, {}, {})
    comps, pi = model.dlog_components(), model.eigen_uniformizer()
    mul = lambda a, b: mul_rows(R, a, b)
    # row n - 1 of basis is pi^(n-1), whose coefficient n - 1 is 1
    basis = power_rows(TruncSeries.one(R, N).c, pi.c[None, :N], N - 2, mul)
    c = np.diagonal(comps)
    bad = np.flatnonzero((comps != R.vmul(c[:, None], basis)).any(axis=1)[1:])
    if bad.size:
        raise ConsistencyError(f"dlog component at n={bad[0] + 2} is not proportional to pi^(n-1)")
    vanished = {n: not comps[n - 1].any() for n in range(1, N - 1)}
    values = {n: int(c[n - 1]) for n in range(2, N - 1)}
    return LocalSweep(model.prime, vanished, values)


def local_model(prime: Poly) -> LocalModel:
    """The model at a prime, its size refused before the field is built."""
    check_local_size(prime.field.size**prime.degree)
    return LocalModel(residue_field(prime))
