"""Characteristic-zero L-values of Teichmuller character powers.

For a prime of degree d with residue field of size Q = q^d, the degree-
restricted character sums

    S_n(T) = sum over monic g, deg g = j < d  of  omega(g)^(-n) T^j

form a polynomial because every higher-degree coefficient cancels.  For
an in-scope n (0 < n < Q-1, divisible by q-1) the value S_n(1) vanishes
exactly in every truncated Witt ring, so S_n(T) = (1-T) Q_n(T) with
Q_n given by prefix sums, and the L-value at 1 is

    L_n = Q_n(1) = - sum over monic g, deg g < d of deg(g) omega(g)^(-n).

The right-hand closed form is how the fast path computes it, as one
weighted sum over a table of omega(gamma^j), built once from a single
Teichmuller lift of a generator gamma.  Multiplication by omega(gamma)
is a linear map on W_k, so the table is filled by doubling: rows
N..2N-1 are rows 0..N-1 times the matrix of omega(gamma)^N, log2(Q)
matrix products in all.  The table depends on gamma only through its
minimal polynomial over F_p, which relabelling a field keeps.  Every
field reads its tables from ``ResidueField.lifts``, one per precision:
a searched field keeps its own, and the fields a scan relabels from one
field of their degree share that field's.  Valuations are read from one
table per context, covering v(L_n) at in-scope n and v(S_n(1))
elsewhere.  The weights are rational integers and Frobenius sends
omega(x) to omega(x)^p, so both sums at n and at pn mod (Q-1) have the
same valuation and the table computes each p-orbit once, at its least
member.  Since omega(g) reduces to g mod p, both sums reduce mod p to
combinations of the power sums of the monic g of each degree j < d,
which Carlitz's polynomials e_j give for every exponent at once, one
series division per degree (``monic_power_sums``).  That screen
settles every orbit of valuation 0, once per field for every
precision (``mod_p_screen``); only the rest take the exact Witt sum,
a gather of ``fields.char_sums``.  The polynomial route stays
available as an independent cross-check.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .fields import ConsistencyError, FieldError, ResidueField, char_sums, power_rows
from .series import divide_rows
from .witt import MAX_PRECISION, PrecisionError, WittElem, WittRing

INT64_SAFE_BOUND = 1 << 62

# monic g of degree j with q^j at most this are summed directly at the
# wanted exponents; above it S_j comes from Carlitz's series, one
# divide_rows over all Q exponents.  Best of 7 screens on a 2-core host,
# one BLAS thread, 256 against 128: 92-112 against 110-130 ms at
# t^16 + t^5 + t^3 + t^2 + 1 over F_2, the degree-16 primes being the
# largest a scan reaches; 20-26 against 14-21 ms at t^8 + t^2 - 1 and
# 234-308 against 177-249 ms at a degree-10 prime over F_3; 4-6 ms
# either way at t^12 + t^3 + 1.  64 and 1024 were slower at degree 16,
# and 16 up to three times slower everywhere.
DIRECT_SUM_SIZE = 256


def monic_power_sums(F, t: int, d: int, ns) -> np.ndarray:
    """Row j < d, column i: the sum of g^(-n), n = ns[i], over the monic
    g = t^j + c_(j-1) t^(j-1) + ... + c_0 of degree j over F_q, each
    evaluated in F at the element t, whose minimal polynomial over F_q
    must have degree at least d, so that no g vanishes.

    Let e_j(x) be the product of x - a over the a of degree < j; it is
    F_q-linear, sum_i E_(j,i) x^(q^i) with E_(j,j) = 1, and
    e_(j+1) = e_j^q - e_j(t^j)^(q-1) e_j gives E_(j+1) from E_j
    (Carlitz 1935).  The g of degree j are the roots of
    P = e_j(x) - e_j(t^j), and P' = E_(j,0), so the logarithmic
    derivative of P at x = 1/u gives

        sum_k S_j(k) u^(k+1)
          = E_(j,0) u^(q^j) / (1 + sum_(i<j) E_(j,i) u^(q^j - q^i) - e_j(t^j) u^(q^j)),

    S_j(k) the sum of g^k: one ``divide_rows`` by a denominator of
    j + 2 terms.  As g^(-n) = g^k at k = -n mod Q-1, column i is
    S_j(k) at that k.  Rows with q^j at most DIRECT_SUM_SIZE are summed
    directly at the ns instead, through ``char_sums``."""
    q, order = F.q, F.order
    ns = np.asarray(ns, dtype=np.int64)
    out = np.empty((d, ns.size), dtype=np.int32)
    # the degrees j < J summed directly, in one gather: span holds
    # c_0 + c_1 t + ... at the packed c < q^J, so the monic g of degree
    # j sit at [q^j, 2 q^j), as they pack in F_q[t]/(f)
    J = next((j for j in range(d) if q**j > DIRECT_SUM_SIZE), d)
    span, tj = np.zeros(1, dtype=np.int32), 1
    for _ in range(J):
        span = F.vadd(F.vmul(np.arange(q, dtype=np.int32), tj)[:, None], span[None]).ravel()
        tj = F.mul(tj, t)
    logs = F._nplog[np.concatenate([span[q**j : 2 * q**j] for j in range(J)])].astype(np.int64)
    bounds = np.cumsum([0] + [q**j for j in range(J)])
    out[:J] = char_sums(order, F._npexp, logs, lambda g: _run_sums(F, g, bounds), ns).T
    for j, (E, D) in zip(range(J, d), itertools.islice(_carlitz_coeffs(F, t), J, None)):
        den = np.zeros(order + 1, dtype=np.int32)
        den[q**j - q ** np.arange(j + 1)] = E
        den[q**j] = F.neg(D)
        num = np.zeros_like(den)
        num[q**j] = E[0]
        out[j] = divide_rows(F, num[None], den[None])[0, -ns % order + 1]
    return out


def _carlitz_coeffs(F, t: int):
    """(E_(j,0..j), e_j(t^j)) for j = 0, 1, 2, ...: e_0(x) = x and
    e_(j+1) = e_j^q - e_j(t^j)^(q-1) e_j."""
    q, E, D, tj = F.q, [1], 1, 1
    while True:
        yield E, D
        c = F.pow(D, q - 1)
        E = [F.sub(F.pow(E[i - 1], q) if i else 0, F.mul(c, E[i]) if i < len(E) else 0)
             for i in range(len(E) + 1)]
        tj = F.mul(tj, t)
        D = functools.reduce(F.add, (F.mul(e, F.pow(tj, q**i)) for i, e in enumerate(E)))


def _run_sums(F, g: np.ndarray, bounds) -> np.ndarray:
    """Column i: the sum in F of each row's run g[:, bounds[i] : bounds[i + 1]]."""
    return np.stack([F.vsum(g[:, a:b], axis=1) for a, b in zip(bounds, bounds[1:])], axis=1)


@dataclass(frozen=True)
class ModPScreen:
    """The units among one field's character sums, decided mod p.

    ``rep``, entry n: the least member of n's orbit under n -> pn mod
    Q-1; ``reps``: those least members other than 0, in order.
    ``unit``, entry n: whether the sum at n has valuation 0, which is
    L_n at in-scope n and S_n(1) at the others (entry 0 is unused)."""

    rep: np.ndarray
    reps: np.ndarray
    unit: np.ndarray


def mod_p_screen(rf: ResidueField) -> ModPScreen:
    """The field's screen, built on first use and kept in ``rf.screen``,
    so that every precision's context shares it.

    omega(g) reduces to g mod p, so L_n reduces to -sum (deg g mod p)
    g^(-n) and S_n(1) to sum g^(-n), over the monic g of degree < d:
    sums of the rows of ``monic_power_sums``, taken once per orbit
    representative as their F_p digits and tested for zero."""
    if rf.screen is not None:
        return rf.screen
    order, p = rf.order, rf.p
    rep = np.arange(order, dtype=np.int64)
    cur = rep.copy()
    for _ in range(rf.m - 1):
        cur = cur * p % order
        np.minimum(rep, cur, out=rep)
    reps = np.flatnonzero(rep == np.arange(order))[1:]
    in_scope = reps % (rf.q - 1) == 0
    total = np.zeros((reps.size, rf.m), dtype=np.int64)
    for j, row in enumerate(monic_power_sums(rf, rf.t_res, rf.d, reps)):
        # the weight of degree j: j for L_n at in-scope n, 1 for S_n(1)
        total += np.where(in_scope, j % p, 1)[:, None] * rf._unpack[row]
    unit = np.zeros(order, dtype=bool)
    unit[reps] = (total % p).any(axis=1)
    rf.screen = ModPScreen(rep, reps, unit[rep])
    return rf.screen


def _teich_table(W: WittRing, order: int) -> np.ndarray:
    """Row j: the coordinates of omega(gamma^j) = omega(gamma)^j in W.

    Multiplication by omega(gamma) is Z/p^k-linear; row i of M holds the
    coordinates of x^i * omega(gamma), so omega(gamma^j) is row 0 of M^j.
    int64 products are exact while m (p^k - 1)^2 < 2^63."""
    wg = W.teichmuller(W.theta)
    exact64 = W.m * (W.pk - 1) ** 2 < 1 << 63
    M = np.array(
        [(W.from_coords(int(i == j) for j in range(W.m)) * wg).coords for i in range(W.m)],
        dtype=np.int64 if exact64 else object,
    )
    teich = power_rows(W.one().coords, M, order, lambda a, b: a @ b % W.pk)
    if W.from_coords(teich[-1]) * wg != W.one():
        raise ConsistencyError("Teichmuller table does not close: omega(gamma)^(Q-1) != 1")
    return teich


class CharacterContext:
    """Tables for evaluating omega-power character sums over one prime."""

    def __init__(self, rf: ResidueField, k: int):
        self.rf = rf
        self.W = WittRing(rf, k)
        q, d = rf.q, rf.d
        self.Q = rf.size
        self.order = self.Q - 1

        # discrete logs of the monic degree-j representatives; packed
        # values of those representatives are exactly [q^j, 2 q^j)
        log = self.rf._nplog
        self.monic_logs = [log[q**j : 2 * q**j].astype(np.int64) for j in range(d)]
        logs = np.concatenate(self.monic_logs)
        degs = np.repeat(np.arange(d, dtype=np.int64), [q**j for j in range(d)])
        # (logs, weights) of the two sums the valuation table serves:
        # deg(g) for L_n at in-scope n, 1 for S_n(1) elsewhere
        self._deg_weights = (logs[degs > 0], degs[degs > 0])
        self._unit_weights = (logs, np.ones_like(degs))

        total_weight = max(int(w.sum()) for _, w in (self._deg_weights, self._unit_weights))
        self._int64 = total_weight * (self.W.pk - 1) < INT64_SAFE_BOUND
        if k not in rf.lifts:
            teich = _teich_table(self.W, self.order)
            rf.lifts[k] = teich.astype(np.int64 if self._int64 else object, copy=False)
            rf.lifts[k].setflags(write=False)
        self.teich = rf.lifts[k]

    def in_scope(self, n: int) -> bool:
        return 0 < n < self.order and n % (self.rf.q - 1) == 0

    def _witt_sum(self, weights, n: int) -> WittElem:
        """sum of w(g) omega(g)^(-n) over the (logs, weights) pairs."""
        logs, w = weights
        reduce = lambda g: (g * w[:, None]).sum(axis=1) % self.W.pk
        (total,) = char_sums(self.order, self.teich, logs, reduce, [n])
        return self.W.from_coords(int(v) for v in total)

    @functools.cached_property
    def _valuations(self) -> np.ndarray:
        """Entry n: v(L_n) at in-scope n, v(S_n(1)) at the other
        0 < n < Q-1, each capped at k (entry 0 is unused)."""
        screen = mod_p_screen(self.rf)
        vals = np.zeros(self.order, dtype=np.int64)
        for r in screen.reps[~screen.unit[screen.reps]]:
            r = int(r)
            s = self.closed_weighted_sum(r) if self.in_scope(r) else self._witt_sum(self._unit_weights, r)
            vals[r] = self.W.valuation(s)
        return vals[screen.rep]

    def valuation(self, n: int) -> int:
        """v_p of L_n for an in-scope n, of S_n(1) for any other
        0 < n < Q-1; k means zero as far as W_k can see."""
        if not 0 < n < self.order:
            raise FieldError(f"index must satisfy 0 < n < {self.order}")
        return int(self._valuations[n])

    def char_degree_sum(self, n: int, j: int) -> WittElem:
        """sum of omega(g)^(-n) over monic g of degree j < d."""
        logs = self.monic_logs[j]
        return self._witt_sum((logs, np.ones_like(logs)), n)

    def closed_weighted_sum(self, n: int) -> WittElem:
        """sum of deg(g) omega(g)^(-n) over monic g of degree < d."""
        return self._witt_sum(self._deg_weights, n)


def character_context(rf: ResidueField, k: int) -> CharacterContext:
    """The context of the field at precision k, built on first use and
    kept in ``rf.contexts``, so it lives as long as the field."""
    ctx = rf.contexts.get(k)
    if ctx is None:
        ctx = rf.contexts[k] = CharacterContext(rf, k)
    return ctx


def l_value_at_one(ctx: CharacterContext, n: int) -> WittElem:
    """L_n = Q_n(1) by the closed weighted form; n must be in scope."""
    if not ctx.in_scope(n):
        raise FieldError(f"index {n} is not an in-scope character power")
    return -ctx.closed_weighted_sum(n)


@dataclass(frozen=True)
class LReport:
    """Full polynomial-route data for one character power."""

    n: int
    in_scope: bool
    s_coeffs: tuple[WittElem, ...]
    s_at_one: WittElem
    q_coeffs: tuple[WittElem, ...] | None
    l_value: WittElem | None
    valuation: int | None


def l_report(ctx: CharacterContext, n: int) -> LReport:
    """Polynomial route: S_n coefficients, exact vanishing, prefix-sum
    Q_n, and the derivative identity against the closed form."""
    if not 0 < n < ctx.order:
        raise FieldError(f"index must satisfy 0 < n < {ctx.order}")
    d = ctx.rf.d
    s_coeffs = tuple(ctx.char_degree_sum(n, j) for j in range(d))
    s1 = ctx.W.zero()
    for c in s_coeffs:
        s1 = s1 + c
    if not ctx.in_scope(n):
        return LReport(n, False, s_coeffs, s1, None, None, None)
    if not s1.is_zero:
        raise ConsistencyError(
            f"S_{n}(1) did not vanish exactly for an in-scope index"
        )
    q_coeffs = []
    acc = ctx.W.zero()
    for c in s_coeffs[: d - 1]:
        acc = acc + c
        q_coeffs.append(acc)
    l_poly = ctx.W.zero()
    for b in q_coeffs:
        l_poly = l_poly + b
    l_closed = l_value_at_one(ctx, n)
    if l_poly != l_closed:
        raise ConsistencyError(
            f"prefix-sum L-value and closed weighted form disagree at n={n}"
        )
    return LReport(n, True, s_coeffs, s1, tuple(q_coeffs), l_poly, ctx.W.valuation(l_poly))


def saturating_valuation(valuation_at, k: int, cap: int = MAX_PRECISION) -> int:
    """Run valuation_at(k) with doubling precision until the result is
    strictly below the precision used; a valuation equal to k only means
    "zero as far as W_k can see".  Raises PrecisionError at the cap."""
    while True:
        v = valuation_at(k)
        if v < k:
            return v
        if k >= cap:
            raise PrecisionError(f"valuation still saturated at the precision cap {cap}")
        k = min(2 * k, cap)


def pic_eigenspace_length(rf: ResidueField, n: int, k: int = 12) -> int:
    """p-adic valuation of L_n, the length of the corresponding
    eigenspace of the p-part of the class module."""

    def valuation_at(kk: int) -> int:
        ctx = character_context(rf, kk)
        if not ctx.in_scope(n):
            raise FieldError(f"index {n} is not an in-scope character power")
        return ctx.valuation(n)

    return saturating_valuation(valuation_at, k)
