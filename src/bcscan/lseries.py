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
read-only int8 table per precision, kept in ``ResidueField.valuations``
and covering v(L_n) at in-scope n and v(S_n(1)) elsewhere.  A
``CharacterContext`` is a view over those tables, built on each call
and not kept, so nothing a field holds refers back to it.  The weights
are rational integers and Frobenius sends omega(x) to omega(x)^p, so
both sums at n and at pn mod (Q-1) have the same valuation and the
table computes each p-orbit once, at its least member.  Since omega(g)
reduces to g mod p, both sums reduce mod p to combinations of the
power sums S_j of the monic g of each degree j < d, weighted by j mod p
at in-scope n and by 1 elsewhere.  That screen settles every orbit of
valuation 0, once per field for every precision (``mod_p_screen``).  It asks for S_j only at the
representatives where its weight is nonzero and Carlitz's vanishing
law, S_j(k) = 0 when j (q-1) exceeds the base-q digit sum of k, does
not already make it 0; each degree is then either read off Carlitz's
series, one division over every exponent at once, or gathered from
its q^j monic g at the representatives that need it, whichever costs
fewer cells and steps (``monic_power_sums``).  Only the orbits the
screen leaves take the exact Witt sum, one gather of
``fields.char_sums`` reduced by one integer product.  The polynomial
route, ``l_report``, stays available as an independent cross-check:
one gather per index over the monic g of every degree, summed by
degree, against the closed form's own weighted gather.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import fields
from .fields import ConsistencyError, FieldError, ResidueField, char_sums, power_rows
from .series import divide_rows
from .witt import MAX_PRECISION, PrecisionError, WittElem, WittRing

INT64_SAFE_BOUND = 1 << 62


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
    S_j(k) at that k.  Each row takes the cheaper of that division over
    all Q exponents and a gather of its q^j monic g at the ns alone
    (``_row_route``), and rows gathered at nearly the same ns share one
    gather (``_gather_groups``)."""
    ns = np.asarray(ns, dtype=np.int64)
    return _power_sums(F, t, ns, np.ones((d, ns.size), dtype=bool))


def _power_sums(F, t: int, ns: np.ndarray, need: np.ndarray) -> np.ndarray:
    """The rows of ``monic_power_sums`` at the ns where ``need``, a
    (rows, ns) mask, is set.  Elsewhere an entry is 0, or its power sum
    where a gather shared with another row reached it."""
    order, q = F.order, F.q
    out = np.zeros(need.shape, dtype=np.int32)
    counts = need.sum(axis=1)
    routes = [_row_route(F, j, int(c)) if c else None for j, c in enumerate(counts)]
    last = max((j for j, route in enumerate(routes) if route == "divide"), default=-1)
    for j, (E, D) in zip(range(last + 1), _carlitz_coeffs(F, t)):
        if routes[j] == "divide":
            out[j, need[j]] = _divided_row(F, j, E, D)[-ns[need[j]] % order + 1]
    gathered = [j for j, route in enumerate(routes) if route == "gather"]
    monic = _monic_logs(F, t, gathered)
    for rows, at in _gather_groups(q, gathered, need):
        logs = np.concatenate([monic[j] for j in rows])
        starts = np.cumsum([0] + [q**j for j in rows[:-1]])
        sums = char_sums(order, F._npexp, logs, lambda g: F._run_sums(g, starts, 1), ns[at])
        out[np.array(rows)[:, None], at] = sums.T
    return out


# The two routes of a row are costed in table lookups: a gathered cell
# is one (the exp table), a cell of the division two (the log of an
# earlier coefficient, then the exp of the term), and each chunk of a
# gather or step of a division is charged as a full chunk of
# CHUNK_CELLS cells, for the numpy calls it costs whatever its size.
# Timed both ways (best of 3, one process) at a prime of each of F_2
# d = 12 and 16, F_3 d = 8 and 10, F_4 d = 8, F_5 d = 5, F_7 d = 4,
# F_8 d = 5, F_9 d = 5 and F_16 d = 4, every row whose routes differ by
# more than a tenth takes the faster; the closest calls are row 7 at
# F_3 d = 10 (divided, 22 against 26 ms) and row 5 at F_4 d = 8
# (gathered, 9.5 ms either way).


def _gather_cost(count: int, size: int) -> int:
    """Lookups, and CHUNK_CELLS per chunk, of a ``char_sums`` gather of
    size logs at count exponents."""
    chunks = -(-count // max(1, fields.CHUNK_CELLS // size))
    return count * size + fields.CHUNK_CELLS * chunks


def _divide_cost(F, j: int) -> int:
    """Lookups, and CHUNK_CELLS per step, of the ``divide_rows`` of row
    j: Q coefficients, each a sum over the j + 1 terms of the
    denominator, taken in steps of at most q^j - q^(j-1) columns."""
    n, terms = F.order + 1, j + 1
    step = min(F.q**j - F.q ** (j - 1) if j else 1, max(1, fields.CHUNK_CELLS // terms))
    return 2 * n * terms + fields.CHUNK_CELLS * -(-n // step)


def _row_route(F, j: int, count: int) -> str:
    """How row j of the power sums is computed when it is wanted at
    count exponents: "gather" or "divide", whichever costs less."""
    return "gather" if _gather_cost(count, F.q**j) <= _divide_cost(F, j) else "divide"


def _divided_row(F, j: int, E, D) -> np.ndarray:
    """S_j(k) at u^(k+1), for k < Q, by Carlitz's series."""
    q = F.q
    den = np.zeros(F.order + 1, dtype=np.int32)
    den[q**j - q ** np.arange(j + 1)] = E
    den[q**j] = F.neg(D)
    num = np.zeros_like(den)
    num[q**j] = E[0]
    return divide_rows(F, num[None], den[None])[0]


def _monic_logs(F, t: int, degrees) -> dict[int, np.ndarray]:
    """The discrete logs of the monic g of each of the degrees, at t.  At
    the class of t, packed as q, the g of degree j pack as [q^j, 2 q^j);
    at another t, c_0 + c_1 t + ... + c_(j-1) t^(j-1) over the packed
    c < q^j is built up one degree at a time, and t^j added to it."""
    q, top = F.q, max(degrees, default=-1)
    if t == q:
        return {j: F._nplog[q**j : 2 * q**j].astype(np.int64) for j in degrees}
    out, span, tj = {}, np.zeros(1, dtype=np.int32), 1
    for j in range(top + 1):
        if j in degrees:
            out[j] = F._nplog[F.vadd(tj, span)].astype(np.int64)
        if j < top:
            span = F.vadd(F.vmul(np.arange(q, dtype=np.int32), tj)[:, None], span[None]).ravel()
            tj = F.mul(tj, t)
    return out


def _gather_groups(q: int, rows, need: np.ndarray) -> list[tuple[list[int], np.ndarray]]:
    """The rows to gather, in increasing degree, as groups (rows,
    positions where any of them is needed): a row joins the group before
    it where one gather at the union of their positions costs less than
    two."""
    groups = []
    for j in rows:
        count = int(need[j].sum())
        if groups:
            held, mask, size, held_count = groups[-1]
            both = mask | need[j]
            both_count = int(both.sum())
            if _gather_cost(both_count, size + q**j) <= _gather_cost(held_count, size) + _gather_cost(count, q**j):
                groups[-1] = (held + [j], both, size + q**j, both_count)
                continue
        groups.append(([j], need[j], q**j, count))
    return [(held, np.flatnonzero(mask)) for held, mask, _, _ in groups]


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
    so that every precision's valuation table shares it.

    omega(g) reduces to g mod p, so L_n reduces to -sum (deg g mod p)
    g^(-n) and S_n(1) to sum g^(-n), over the monic g of degree < d:
    weighted sums of the rows of ``monic_power_sums`` in F_Q, taken once
    per orbit representative and tested for zero.  A row is computed
    only at the representatives where its weight is nonzero and
    Carlitz's law leaves it possibly nonzero."""
    if rf.screen is not None:
        return rf.screen
    order, p, q = rf.order, rf.p, rf.q
    rep = np.arange(order, dtype=np.int64)
    cur = rep.copy()
    for _ in range(rf.m - 1):
        cur = cur * p % order
        np.minimum(rep, cur, out=rep)
    reps = np.flatnonzero(rep == np.arange(order))[1:]
    in_scope = reps % (q - 1) == 0
    # row j's weight: j for L_n at in-scope n, 1 for S_n(1) elsewhere;
    # Carlitz's law makes S_j(k) zero wherever j (q - 1) exceeds l(k),
    # the sum of the base-q digits of k = -n mod Q-1, which is a sum of
    # its base-p digits, digit i weighted p^(i mod r), q = p^r
    j = np.arange(rf.d)[:, None]
    weight = np.where(in_scope, j % p, 1)
    digit_sum = rf._unpack[order - reps] @ p ** (np.arange(rf.m) % rf.base.r)
    need = (weight != 0) & (j * (q - 1) <= digit_sum)
    rows = rf.vmul(_power_sums(rf, rf.t_res, reps, need), weight)
    unit = np.zeros(order, dtype=bool)
    unit[reps] = rf.vsum(rows, axis=0) != 0
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
        d = rf.d
        self.Q = rf.size
        self.order = self.Q - 1

        # discrete logs of the monic representatives, one array with a
        # view per degree
        monic = _monic_logs(rf, rf.t_res, range(d))
        logs = np.concatenate([monic[j] for j in range(d)])
        sizes = [monic[j].size for j in range(d)]
        self._degree_starts = np.cumsum([0] + sizes[:-1])
        self.monic_logs = np.split(logs, self._degree_starts[1:])
        degs = np.repeat(np.arange(d, dtype=np.int8), sizes)
        # (logs, weights) of the two sums the valuation table serves:
        # deg(g) for L_n at in-scope n, 1 for S_n(1) elsewhere; the one g
        # of degree 0 comes first.  The weights are int8 (d <= 16), which
        # products with int64 tables promote
        self._deg_weights = (logs[1:], degs[1:])
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
        """sum of w(g) omega(g)^(-n) over the (logs, weights) pairs: one
        integer product w @ g, exact in int64 where ``_int64`` holds."""
        logs, w = weights
        if self._int64:
            reduce = lambda g: w @ g % self.W.pk
        else:
            reduce = lambda g: (g * w[:, None]).sum(axis=1) % self.W.pk
        (total,) = char_sums(self.order, self.teich, logs, reduce, [n])
        return self.W.from_coords(total)

    def _degree_sums(self, n: int) -> tuple[WittElem, ...]:
        """``char_degree_sum`` at every degree j < d, from one gather over
        the monic g of all of them, split by degree."""
        reduce = lambda g: np.add.reduceat(g, self._degree_starts, axis=1) % self.W.pk
        (sums,) = char_sums(self.order, self.teich, self._unit_weights[0], reduce, [n])
        return tuple(self.W.from_coords(row) for row in sums)

    def valuation(self, n: int) -> int:
        """v_p of L_n for an in-scope n, of S_n(1) for any other
        0 < n < Q-1; k means zero as far as W_k can see."""
        if not 0 < n < self.order:
            raise FieldError(f"index must satisfy 0 < n < {self.order}")
        return int(_valuation_table(self.rf, self.W.k)[n])

    def char_degree_sum(self, n: int, j: int) -> WittElem:
        """sum of omega(g)^(-n) over monic g of degree j < d."""
        logs = self.monic_logs[j]
        return self._witt_sum((logs, np.ones_like(logs)), n)

    def closed_weighted_sum(self, n: int) -> WittElem:
        """sum of deg(g) omega(g)^(-n) over monic g of degree < d."""
        return self._witt_sum(self._deg_weights, n)


def character_context(rf: ResidueField, k: int) -> CharacterContext:
    """A new context of the field at precision k.  It keeps nothing of
    its own on the field: the Teichmuller table it reads is the field's
    ``lifts[k]``, and its valuations the field's ``valuations[k]``."""
    return CharacterContext(rf, k)


def _valuation_table(rf: ResidueField, k: int) -> np.ndarray:
    """Entry n: v(L_n) at in-scope n, v(S_n(1)) at the other
    0 < n < Q-1, each capped at k (entry 0 is unused); as k is at most
    MAX_PRECISION, int8 holds them.  Built on first use, from the Witt
    sums at the orbit representatives the screen leaves, and kept
    read-only in ``rf.valuations[k]``."""
    vals = rf.valuations.get(k)
    if vals is not None:
        return vals
    ctx = character_context(rf, k)
    screen = mod_p_screen(rf)
    vals = np.zeros(ctx.order, dtype=np.int8)
    for r in screen.reps[~screen.unit[screen.reps]]:
        r = int(r)
        s = ctx.closed_weighted_sum(r) if ctx.in_scope(r) else ctx._witt_sum(ctx._unit_weights, r)
        vals[r] = ctx.W.valuation(s)
    vals = vals[screen.rep]
    vals.setflags(write=False)
    rf.valuations[k] = vals
    return vals


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
    s_coeffs = ctx._degree_sums(n)
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


def pic_eigenspace_length(rf: ResidueField, n: int, k: int = 12) -> int:
    """p-adic valuation of L_n, the length of the corresponding
    eigenspace of the p-part of the class module.  The valuation table
    is read at k, and k doubled while the entry equals k, which only
    means "zero as far as W_k can see"; PrecisionError at the cap."""
    if not (0 < n < rf.order and n % (rf.q - 1) == 0):
        raise FieldError(f"index {n} is not an in-scope character power")
    while (v := int(_valuation_table(rf, k)[n])) == k:
        if k >= MAX_PRECISION:
            raise PrecisionError(f"valuation still saturated at the precision cap {MAX_PRECISION}")
        k = min(2 * k, MAX_PRECISION)
    return v
