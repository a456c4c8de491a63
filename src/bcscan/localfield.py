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

Every series here is a row of an int32 array run through the
``series`` row kernel; T and pi are one-row arrays.  phi acts by one
rule only, phi(t) = T + F applied as the recursion x_(k+1) = T x_k +
x_k^q, phi(a)(x) = sum(a_k x_k), in ``_apply_phi`` alone, which carries
x_k and its T-derivative as the two rows of one array.  T is Newton's
root of phi(f)(lambda) / lambda, whose first residual must sit at depth
>= q^d - 1 as phi(f) is Eisenstein at f, and the last pass at T leaves
the d rows phi(t^k)(lambda) that ``galois_rows`` combines.  The
twisted-polynomial ring, Horner evaluation at a series, the one-unit
Galois image and the fixed-point iteration for pi are independent
references kept in the tests (``tests/carlitz_oracle.py``).

The sweep is whole tables: the Galois rows, one per packed a as
phi(a)(lambda) is F_q-linear in a, gathered through the exp table;
their dlogs, each ratio g.lambda / lambda divided into its derivative
by ``series.divide_rows`` along its few nonzero coefficients; the dlog
components, the ``fields.char_sums`` weights times that dlog matrix in
one F_Q matrix product (``vmatmul``, float BLAS products of F_p
digits); and pi^(n-1) for every n by ``fields.power_rows``, each
component checked against it.  A model is built from its prime's
residue field and keeps none of these tables: the sweep reads each once.

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
from .series import derivative_rows, divide_rows, frobenius_rows, mul_rows

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


def _apply_phi(R, T: np.ndarray, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """[phi(a)(z) / z; its T-derivative] as a (2, n) array, t acting as the
    one-row T, a = sum(a_k t^k) over F_q: sum(a_k [y_k; y'_k]), y_0 = 1,
    y_(k+1) = T y_k + z^(q-1) y_k^q and y'_(k+1) = T y'_k + y_k, as
    (y_k^q)' = q (...) = 0.  Also the rows y_k = phi(t^k)(z) / z, k < deg a."""
    q, n = R.q, T.shape[1]
    acc, y, ys = np.zeros((2, n), dtype=np.int32), np.zeros((2, n), dtype=np.int32), []
    y[0, 0] = 1
    for k, a in enumerate(coeffs):
        acc = R.vadd(acc, R.vscale(int(a), y))
        if k + 1 < len(coeffs):
            ys.append(y[0])
            y = mul_rows(R, T, y)  # [T y_k; T y'_k]
            y[0, q - 1 :] = R.vadd(y[0, q - 1 :], frobenius_rows(R, ys[-1][None])[0, : n - q + 1])
            y[1] = R.vadd(y[1], ys[-1])
    return acc, np.array(ys)


class LocalModel:
    def __init__(self, rf: ResidueField):
        check_local_size(rf.size)
        self.rf = rf
        self.prime = Poly(rf.base, rf.prime_coeffs)
        self.q, self.d = rf.q, rf.d
        self.N = self.q**self.d
        self.n_work = self.N + 2
        self.t_series, self._phi_rows = self._solve_t_series()

    # -- the t-expansion ----------------------------------------------------

    def _solve_t_series(self) -> tuple[np.ndarray, np.ndarray]:
        """Newton's method in T on phi(f)(lambda) / lambda = 0; T, a read-only
        (1, n_work) row, and the rows y_k, k < d, of its last phi pass."""
        R, n = self.rf, self.n_work
        T = R.t_res * np.eye(1, n, dtype=np.int32)
        (r, dG), ys = _apply_phi(R, T, self.prime.coeffs)
        v = np.append(np.flatnonzero(r), n)[0]  # n when r is 0
        # Eisenstein middle coefficients all vanish at t-bar, so only the
        # monic top term survives: the first residual sits at q^d - 1
        if v < self.N - 1:
            raise ConsistencyError(f"initial torsion residual at depth {v}, expected >= {self.N - 1}")
        steps = 0
        while v < n:
            # r vanishes below z^v, so r / dG mod z^n needs dG only mod z^(n - v)
            T[:, v:] = R.vsub(T[:, v:], divide_rows(R, r[None, v:], dG[None, : n - v]))
            (r, dG), ys = _apply_phi(R, T, self.prime.coeffs)
            v, last = np.append(np.flatnonzero(r), n)[0], v
            if v <= last:
                raise ConsistencyError("Newton iteration for t(lambda) stalled")
            steps += 1
            if steps > 40:  # pragma: no cover - quadratic convergence
                raise ConsistencyError("Newton iteration for t(lambda) ran away")
        T.setflags(write=False)
        return T, ys

    # -- Galois action on lambda ----------------------------------------------

    def galois_rows(self) -> np.ndarray:
        """Row j: gamma^j . lambda = phi(a)(lambda) = lambda sum(a_k y_k) over
        the rows y_k of Newton's last phi pass, a = exp[j] of degree < d:
        phi(f) kills lambda to working precision, so only a mod f matters.
        Each packed a gets its row once, by digit doubling: row c q^k + a =
        row a + lambda c y_k, a < q^k.  A (Q-1) x n_work array, built anew."""
        R, q = self.rf, self.q
        rows = np.zeros((self.N, self.n_work), dtype=np.int32)
        for k, y in enumerate(self._phi_rows):
            for c in range(1, q):
                rows[c * q**k : (c + 1) * q**k, 1:] = R.vadd(rows[: q**k, 1:], R.vscale(c, y[None, :-1]))
        return rows[R._npexp]

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

    def eigen_uniformizer(self) -> np.ndarray:
        """pi with ebar(pi) = lambda, so the units act on pi through the
        residue character: g . pi = chi(g) pi.  ebar = sum(e_i z^(q^i), i < d)
        is additive, so pi is too: sum(l_k lambda^(q^k)) with l_0 = 1 and
        l_k = -sum(e_i l_(k-i)^(q^i), 1 <= i <= min(k, d-1)), and
        d pi/d lambda = l_0 = 1.  A read-only (1, n_work) row, built anew."""
        R, q, e, ls = self.rf, self.q, exp_coeffs(self.rf), [1]
        while q ** len(ls) < self.n_work:
            k, acc = len(ls), 0
            for i in range(1, min(k, self.d - 1) + 1):
                acc = R.add(acc, R.mul(e[i], R.pow(ls[k - i], q**i)))
            ls.append(R.neg(acc))
        pi = np.zeros((1, self.n_work), dtype=np.int32)
        pi[0, q ** np.arange(len(ls))] = ls
        if not np.array_equal(additive_apply(R, e, pi), np.eye(1, self.n_work, 1)):
            raise ConsistencyError("ebar(pi) is not lambda")
        pi.setflags(write=False)
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
    # row n - 1 of basis is pi^(n-1), whose coefficient n - 1 is 1
    basis = power_rows(np.eye(1, N, dtype=np.int32)[0], pi[:, :N], N - 2, lambda a, b: mul_rows(R, a, b))
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
