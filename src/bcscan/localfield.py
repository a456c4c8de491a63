"""Local lambda-adic model of the torsion module at a prime.

Fix a monic irreducible f of degree d over F_q and let R be its residue
field, Q = q^d.  A primitive f-torsion point lambda of the Carlitz
module generates a totally ramified extension of degree Q-1, and the
completed picture is the power-series model R[[lambda]]:

* t acts as a series t(lambda) solving the torsion equation
  sum(c_i(t) lambda^(q^i - 1)) = 0, lying over the residue t-bar;
* the unit group of R acts by g . lambda = phi(a_g)(lambda) for any
  lift a_g of g, which is well defined because phi(f)(lambda) = 0;
* an eigen-uniformizer pi with ebar(pi) = lambda turns logarithmic
  derivatives of the cyclotomic unit ratios g.lambda / lambda into
  Bernoulli-Carlitz residues, one character component at a time.

Internal truncation is depth + 2, where depth defaults to q^d: a
logarithmic derivative costs one index to the division by lambda and
one to d/dlambda, so reported series are exact mod lambda^depth.
Bernoulli-Carlitz extraction always reads the standard mod-lambda^(q^d)
truncation; deeper models exist to decide whether a dlog component that
vanishes there is nonzero further out.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .carlitz import TorsionPoly, additive_apply, carlitz_action, cyclotomic_poly, exp_coeffs
from .fields import ConsistencyError, FieldError
from .poly import Poly, lift_to_poly, residue_field
from .series import TruncSeries, derivative_rows, inverse_rows, mul_rows

NWORK_EXTRA = 2


def dlog(u: TruncSeries) -> TruncSeries:
    """u'/u, known one index less precisely than u."""
    if u.valuation() != 0:
        raise FieldError("logarithmic derivative needs a unit series")
    return u.derivative() * u.inverse()


@dataclass(frozen=True)
class EigenUniformizer:
    """pi with ebar(pi) = lambda, so the units act on pi through the
    residue character: g . pi = chi(g) pi.  derivative is d pi/d lambda."""

    series: TruncSeries
    derivative: TruncSeries


class LocalModel:
    def __init__(self, prime: Poly, depth: int | None = None):
        self.prime = prime
        self.rf = residue_field(prime)
        self.q = self.rf.q
        self.d = self.rf.d
        self.N = self.q**self.d
        if depth is None:
            depth = self.N
        elif depth < self.N:
            raise FieldError(f"model depth below q^d = {self.N} loses the torsion equation")
        self.depth = depth
        self.n_work = depth + NWORK_EXTRA
        self.torsion: TorsionPoly = cyclotomic_poly(prime)
        if not self.torsion.eisenstein_ok():
            raise ConsistencyError("torsion polynomial is not Eisenstein at its prime")
        self.t_series = self._solve_t_series()
        self._rows: list[TruncSeries] | None = None
        self._dlog_matrix: np.ndarray | None = None
        self._eig: EigenUniformizer | None = None

    # -- the t-expansion ----------------------------------------------------

    def _torsion_residual(self, T: TruncSeries) -> TruncSeries:
        out = TruncSeries.zero(self.rf, self.n_work)
        for i, c in enumerate(self.torsion.coeffs):
            out = out + T.eval_poly_coeffs(c.coeffs).shift_up(self.q**i - 1)
        return out

    def _solve_t_series(self) -> TruncSeries:
        R = self.rf
        T = TruncSeries.const(R, self.n_work, R.t_res)
        r = self._torsion_residual(T)
        v = r.valuation()
        # Eisenstein middle coefficients all vanish at t-bar, so only the
        # monic top term survives: the first residual sits at q^d - 1
        if not r.is_zero and v < self.N - 1:
            raise ConsistencyError(f"initial torsion residual at depth {v}, expected >= {self.N - 1}")
        steps = 0
        while not r.is_zero:
            dG = TruncSeries.zero(R, self.n_work)
            for i, c in enumerate(self.torsion.coeffs):
                dc = c.derivative()
                if not dc.is_zero:
                    dG = dG + T.eval_poly_coeffs(dc.coeffs).shift_up(self.q**i - 1)
            T = T - r * dG.inverse()
            r = self._torsion_residual(T)
            if not r.is_zero and r.valuation() <= v:
                raise ConsistencyError("Newton iteration for t(lambda) stalled")
            v = r.valuation()
            steps += 1
            if steps > 40:  # pragma: no cover - quadratic convergence
                raise ConsistencyError("Newton iteration for t(lambda) ran away")
        return T

    # -- Galois action on lambda ----------------------------------------------

    def galois_image(self, g: int) -> TruncSeries:
        """g . lambda = sum(c_i(t(lambda)) lambda^(q^i)) for phi of the
        canonical lift of g; exact at working precision."""
        if not 0 < g < self.rf.size:
            raise FieldError("Galois action is by residue units")
        op = carlitz_action(lift_to_poly(self.rf, g))
        out = TruncSeries.zero(self.rf, self.n_work)
        for i, c in enumerate(op.coeffs):
            out = out + self.t_series.eval_poly_coeffs(c.coeffs).shift_up(self.q**i)
        return out

    def _apply_series_operator(self, coeff_series: list[TruncSeries], x: TruncSeries) -> TruncSeries:
        acc = TruncSeries.zero(x.field, x.n)
        fx = x
        for i, cs in enumerate(coeff_series):
            acc = acc + cs * fx
            if i + 1 < len(coeff_series):
                fx = fx.frobenius_q()
        return acc

    def galois_rows(self) -> list[TruncSeries]:
        """row[j] = gamma^j . lambda, built by iterating the generator's
        operator; valid because lambda is annihilated by phi(f) to full
        working precision, so the action only sees lifts mod f."""
        if self._rows is None:
            R = self.rf
            gamma_op = carlitz_action(lift_to_poly(R, R.generator))
            coeff_series = [self.t_series.eval_poly_coeffs(c.coeffs) for c in gamma_op.coeffs]
            rows = [TruncSeries.monomial(R, self.n_work, 1)]
            for _ in range(R.size - 2):
                rows.append(self._apply_series_operator(coeff_series, rows[-1]))
            self._rows = rows
        return self._rows

    def unit_ratio(self, j: int) -> TruncSeries:
        """(gamma^j . lambda) / lambda, a 1-unit times chi(gamma^j)."""
        return self.galois_rows()[j].shift_down(1)

    # -- dlog components -------------------------------------------------------

    def dlog_matrix(self) -> np.ndarray:
        if self._dlog_matrix is None:
            R = self.rf
            rows = self.galois_rows()
            if any(int(r.c[0]) != 0 or int(r.c[1]) == 0 for r in rows):
                raise ConsistencyError("a Galois image of lambda lost valuation 1")
            U = np.stack([r.c[1:] for r in rows])
            mat = mul_rows(R, derivative_rows(R, U), inverse_rows(R, U[:, : self.depth]))
            mat.setflags(write=False)
            self._dlog_matrix = mat
        return self._dlog_matrix

    def dlog_lambda_component(self, n: int) -> TruncSeries:
        """-sum over units g of chi(g)^(-n) dlog(g.lambda / lambda),
        exact mod lambda^depth."""
        R = self.rf
        order = R.size - 1
        M = self.dlog_matrix()
        j = np.arange(order, dtype=np.int64)
        w = R._npexp[(-n * j) % order]
        comp = R.vsum(R.vmul(w[:, None], M), axis=0)
        return TruncSeries(R, self.depth, R.vneg(comp))

    # -- eigen-uniformizer ------------------------------------------------------

    def eigen_uniformizer(self) -> EigenUniformizer:
        if self._eig is None:
            R = self.rf
            e = exp_coeffs(R)
            lam = TruncSeries.monomial(R, self.n_work, 1)
            pi = lam
            prev = 0
            for _ in range(self.n_work + 2):
                err = additive_apply(e, pi) - lam
                if err.is_zero:
                    break
                v = err.valuation()
                if v <= prev:
                    raise ConsistencyError("uniformizer fixed point stalled")
                prev = v
                pi = pi - err
            else:  # pragma: no cover - error depth multiplies by q each pass
                raise ConsistencyError("uniformizer fixed point did not close")
            if pi[1] != 1 or pi.valuation() != 1:
                raise ConsistencyError("eigen-uniformizer lost its normalization")
            self._eig = EigenUniformizer(pi, pi.derivative())
        return self._eig


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
    dlog component must be a scalar times pi^(n-1) pi', and that scalar
    is the residue.  At n = 1 the error term of the underlying congruence
    is not below lambda^(q^d) yet, so only vanishing is recorded there.
    Reads the standard truncation, so it is independent of model depth."""
    R = model.rf
    vanished: dict[int, bool] = {}
    values: dict[int, int] = {}
    if model.N >= 3:
        eig = model.eigen_uniformizer()
        piN = eig.series.truncate(model.N)
        dN = eig.derivative.truncate(model.N)
        pw = TruncSeries.one(R, model.N)  # pi^(n-1), starting at n = 1
        for n in range(1, model.N - 1):
            comp = model.dlog_lambda_component(n).truncate(model.N)
            vanished[n] = comp.is_zero
            if n >= 2:
                c = comp[n - 1]
                if not (comp - (pw * dN).scale(c)).is_zero:
                    raise ConsistencyError(
                        f"dlog component at n={n} is not proportional to pi^(n-1) pi'"
                    )
                values[n] = c
            pw = pw * piN
    return LocalSweep(model.prime, vanished, values)


@functools.lru_cache(maxsize=64)
def local_model(prime: Poly, depth: int | None = None) -> LocalModel:
    return LocalModel(prime, depth)
