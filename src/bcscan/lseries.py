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
matrix products in all.  Valuations are read from one table per
context, covering v(L_n) at in-scope n and v(S_n(1)) elsewhere.  The
weights are rational integers and Frobenius sends omega(x) to
omega(x)^p, so both sums at n and at pn mod (Q-1) have the same
valuation and the table computes each p-orbit once, at its least
member.  Since omega(g) reduces to g mod p,
a sum over F_Q first settles every member of valuation 0; only the
rest take the exact Witt sum.  The polynomial route stays available as
an independent cross-check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fields import ConsistencyError, FieldError, ResidueField, power_rows
from .witt import MAX_PRECISION, PrecisionError, WittElem, WittRing, witt_ring

INT64_SAFE_BOUND = 1 << 62
# cells one gather of the character-sum primitive may produce: 32K int64
# cells are 256 KB, so the temporaries of a chunk stay well under 1 MB
CHUNK_CELLS = 1 << 15


class CharacterContext:
    """Tables for evaluating omega-power character sums over one prime."""

    def __init__(self, rf: ResidueField, k: int, lift_offsets: tuple[int, ...] | None = None):
        self.rf = rf
        self.W = witt_ring(rf, k)
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

        gamma = rf.generator
        if lift_offsets:
            # cycle the seed to the ring dimension so one option value
            # serves primes of every degree in a scan
            m = self.W.m
            lift_offsets = tuple(lift_offsets[i % len(lift_offsets)] for i in range(m))
        W = self.W
        wg = W.teichmuller(gamma, lift_offsets)
        # multiplication by omega(gamma) is Z/p^k-linear; row i of M holds
        # the coordinates of x^i * omega(gamma), so omega(gamma^j) is row 0
        # of M^j.  int64 products are exact while m (p^k - 1)^2 < 2^63.
        exact64 = W.m * (W.pk - 1) ** 2 < 1 << 63
        M = np.array(
            [(W.from_coords(int(i == j) for j in range(W.m)) * wg).coords for i in range(W.m)],
            dtype=np.int64 if exact64 else object,
        )
        teich = power_rows(W.one().coords, M, self.order, W.pk)
        if W.from_coords(teich[-1]) * wg != W.one():
            raise ConsistencyError("Teichmuller table does not close: omega(gamma)^(Q-1) != 1")
        total_weight = max(int(w.sum()) for _, w in (self._deg_weights, self._unit_weights))
        self._int64 = total_weight * (W.pk - 1) < INT64_SAFE_BOUND
        self.teich = teich.astype(np.int64 if self._int64 else object, copy=False)

    def in_scope(self, n: int) -> bool:
        return 0 < n < self.order and n % (self.rf.q - 1) == 0

    def _char_sums(self, table: np.ndarray, logs: np.ndarray, reduce, ns) -> np.ndarray:
        """reduce(table[-n * logs mod (Q-1)]) for each n in ns, stacked.

        Row i of ``table`` is a function of gamma^i: omega(gamma^i) in
        W_k, or gamma^i itself in F_Q.  ``reduce`` folds axis 1 of a
        (rows, len(logs), ...) gather; ns is taken a bounded chunk of
        rows at a time, so no gather exceeds CHUNK_CELLS cells unless a
        single row does."""
        ns = np.asarray(ns, dtype=np.int64)
        step = max(1, CHUNK_CELLS // max(1, logs.size * table[0].size))
        starts = range(0, ns.size, step) or [0]  # an empty ns gives an empty stack
        return np.concatenate([
            reduce(table[(-ns[s : s + step, None] * logs) % self.order]) for s in starts
        ])

    def _witt_sum(self, weights, n: int) -> WittElem:
        """sum of w(g) omega(g)^(-n) over the (logs, weights) pairs."""
        logs, w = weights
        pk = self.W.pk
        (total,) = self._char_sums(
            self.teich, logs, lambda g: (g * w[:, None]).sum(axis=1) % pk, [n]
        )
        return self.W.from_coords(int(v) for v in total)

    def _unit_mod_p(self, weights, ns) -> np.ndarray:
        """Whether each weighted sum at n in ns is a unit, i.e. has
        valuation 0: omega(g) reduces to g, so the sum reduces to
        sum (w(g) mod p) g^(-n) in F_Q, decided without the Witt ring."""
        rf, (logs, w) = self.rf, weights
        p = rf.p
        keep = w % p != 0
        logs, w = logs[keep], w[keep] % p
        if p == 2:  # every kept weight is 1 and F_Q addition is XOR
            return self._char_sums(
                rf._npexp, logs, lambda g: np.bitwise_xor.reduce(g, axis=1) != 0, ns
            )
        digits = rf._unpack[rf._npexp]  # F_p-coordinates of gamma^i
        return self._char_sums(
            digits, logs, lambda g: (np.einsum("rjc,j->rc", g, w) % p).any(axis=1), ns
        )

    @functools.cached_property
    def _valuations(self) -> np.ndarray:
        """Entry n: v(L_n) at in-scope n, v(S_n(1)) at the other
        0 < n < Q-1, each capped at k (entry 0 is unused)."""
        order, p = self.order, self.rf.p
        rep = np.arange(order, dtype=np.int64)  # least member of each n -> pn orbit
        cur = rep.copy()
        for _ in range(self.rf.m - 1):
            cur = cur * p % order
            np.minimum(rep, cur, out=rep)
        reps = np.flatnonzero(rep == np.arange(order))[1:]
        vals = np.zeros(order, dtype=np.int64)
        for in_scope in (True, False):
            ns = reps[(reps % (self.rf.q - 1) == 0) == in_scope]
            weights = self._deg_weights if in_scope else self._unit_weights
            for r in ns[~self._unit_mod_p(weights, ns)]:
                r = int(r)
                s = self.closed_weighted_sum(r) if in_scope else self._witt_sum(weights, r)
                vals[r] = self.W.valuation(s)
        return vals[rep]

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


@functools.lru_cache(maxsize=32)
def _context_cached(rf, k, lift_offsets):
    return CharacterContext(rf, k, lift_offsets)


def character_context(rf: ResidueField, k: int, lift_offsets=None) -> CharacterContext:
    return _context_cached(rf, k, tuple(lift_offsets) if lift_offsets else None)


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


def pic_eigenspace_length(
    rf: ResidueField,
    n: int,
    k: int = 12,
    lift_offsets=None,
) -> int:
    """p-adic valuation of L_n, the length of the corresponding
    eigenspace of the p-part of the class module."""

    def valuation_at(kk: int) -> int:
        ctx = character_context(rf, kk, lift_offsets)
        if not ctx.in_scope(n):
            raise FieldError(f"index {n} is not an in-scope character power")
        return ctx.valuation(n)

    return saturating_valuation(valuation_at, k)
