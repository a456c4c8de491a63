"""Characteristic-zero L-values of Teichmuller character powers.

For a prime of degree d with residue field of size Q = q^d, the degree-
restricted character sums

    S_n(T) = sum over monic g, deg g = j < d  of  omega(g)^(-n) T^j

form a polynomial because every higher-degree coefficient cancels.  For
an in-scope n (0 < n < Q-1, divisible by q-1) the value S_n(1) vanishes
exactly in every truncated Witt ring, so S_n(T) = (1-T) Q_n(T) with
Q_n given by prefix sums, and the L-value at 1 is

    L_n = Q_n(1) = - sum over monic g, deg g < d of deg(g) omega(g)^(-n).

The right-hand closed form is how the fast path computes it: one table
gather per n, using omega(gamma^j) built once by successive Witt
multiplications from a single Teichmuller lift of a generator gamma.
The polynomial route stays available as an independent cross-check and
for out-of-scope diagnostics.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fields import ConsistencyError, FieldError, ResidueField
from .witt import MAX_PRECISION, PrecisionError, WittElem, WittRing, witt_ring

INT64_SAFE_BOUND = 1 << 62


class CharacterContext:
    """Tables for evaluating omega-power character sums over one prime."""

    def __init__(self, rf: ResidueField, k: int, lift_offsets: tuple[int, ...] | None = None):
        self.rf = rf
        self.W = witt_ring(rf, k)
        q, d = rf.q, rf.d
        self.Q = rf.size
        self.order = self.Q - 1

        gamma = rf.generator
        if lift_offsets:
            # cycle the seed to the ring dimension so one option value
            # serves primes of every degree in a scan
            m = self.W.m
            lift_offsets = tuple(lift_offsets[i % len(lift_offsets)] for i in range(m))
        wg = self.W.teichmuller(gamma, lift_offsets)
        rows = [self.W.one().coords]
        cur = self.W.one()
        for _ in range(self.order - 1):
            cur = cur * wg
            rows.append(cur.coords)
        total_weight = sum(j * q**j for j in range(d))
        self._int64 = total_weight * (self.W.pk - 1) < INT64_SAFE_BOUND
        dtype = np.int64 if self._int64 else object
        self.teich = np.array(rows, dtype=dtype)

        # discrete logs of the monic degree-j representatives; packed
        # values of those representatives are exactly [q^j, 2 q^j)
        log = self.rf._nplog
        self.monic_logs = [log[q**j : 2 * q**j].astype(np.int64) for j in range(d)]
        self.deg_weight = np.zeros(self.order, dtype=np.int64)
        for j in range(1, d):
            np.add.at(self.deg_weight, self.monic_logs[j], j)

    def in_scope(self, n: int) -> bool:
        return 0 < n < self.order and n % (self.rf.q - 1) == 0

    def _gather_sum(self, logs: np.ndarray, n: int) -> WittElem:
        idx = (-n * logs) % self.order
        total = self.teich[idx].sum(axis=0) % self.W.pk
        return self.W.from_coords(int(v) for v in total)

    def char_degree_sum(self, n: int, j: int) -> WittElem:
        """sum of omega(g)^(-n) over monic g of degree j < d."""
        return self._gather_sum(self.monic_logs[j], n)

    def closed_weighted_sum(self, n: int) -> WittElem:
        """sum of deg(g) omega(g)^(-n) over monic g of degree < d."""
        jidx = (-n * np.arange(self.order, dtype=np.int64)) % self.order
        total = (self.deg_weight[:, None] * self.teich[jidx]).sum(axis=0) % self.W.pk
        return self.W.from_coords(int(v) for v in total)


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
    cap: int = MAX_PRECISION,
) -> int:
    """p-adic valuation of L_n, the length of the corresponding
    eigenspace of the p-part of the class module."""

    def valuation_at(kk: int) -> int:
        ctx = character_context(rf, kk, lift_offsets)
        return ctx.W.valuation(l_value_at_one(ctx, n))

    return saturating_valuation(valuation_at, k, cap)
