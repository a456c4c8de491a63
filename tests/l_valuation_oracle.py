"""Test-only oracle for v_p(L_n), independent of the Witt-vector layer.

The package computes L_n in W_k = (Z/p^k)[x]/(g), where g is the plain
lift of the minimal polynomial of the field generator gamma, and finds
the Teichmuller lift omega(gamma) by iterating y -> y^(p^m) from x.
This oracle takes neither step.  It Hensel-lifts the minimal polynomial
h of gamma over F_p, multiplied out by its own loop, to the monic
factor H of the integer polynomial x^(Q-1) - 1 over Z/p^k.  The class of x in
(Z/p^k)[x]/(H) is then a (Q-1)-th root of unity over gamma, i.e. its
Teichmuller lift, so omega(gamma^j) = x^j and

    L_n = - sum_j w_j x^(-nj),   w_j = deg(gamma^j) if its degree-< d
                                       representative is monic, else 0.

Both rings are the length-k truncation of the unramified extension of
Z_p with residue field F_Q, so the valuation (the least p-adic valuation
of the power-basis coordinates) does not depend on the basis.

``units_mod_p`` is the oracle of the package's mod-p screen: whether
v(L_n) = 0 at in-scope n and v(S_n(1)) = 0 elsewhere, decided by
gathering g^(-n) over every monic g of degree < d for each n, in
O(Q^2) field operations, where the package sums Carlitz's power series.

Nothing here imports bcscan.witt or bcscan.lseries; only the residue
field's own arithmetic is used.  Polynomials are little-endian numpy
int64 coefficient arrays.  The precision k is the largest with
p^k <= 2^24, which keeps every product sum below 2^63.
"""

from __future__ import annotations

import numpy as np

from bcscan.fields import char_sums

_WORD_BOUND = 1 << 24


def oracle_precision(p: int) -> int:
    k = 1
    while p ** (k + 1) <= _WORD_BOUND:
        k += 1
    return k


def _trim(a: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(a)
    return a[: nz[-1] + 1] if nz.size else a[:0]


def _mul(a: np.ndarray, b: np.ndarray, mod: int) -> np.ndarray:
    if not a.size or not b.size:
        return np.zeros(0, dtype=np.int64)
    return np.convolve(a, b) % mod


def _add(a: np.ndarray, b: np.ndarray, mod: int, sign: int = 1) -> np.ndarray:
    out = np.zeros(max(a.size, b.size), dtype=np.int64)
    out[: a.size] += a
    out[: b.size] += sign * b
    return out % mod


def _sub(a: np.ndarray, b: np.ndarray, mod: int) -> np.ndarray:
    return _add(a, b, mod, -1)


def _divmod(a: np.ndarray, b: np.ndarray, mod: int) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder of a by b over Z/mod; b's leading
    coefficient must be a unit."""
    b = _trim(b % mod)
    r = a % mod
    db = b.size - 1
    if r.size <= db:
        return np.zeros(0, dtype=np.int64), _trim(r)
    lead_inv = pow(int(b[-1]), -1, mod)
    quot = np.zeros(r.size - db, dtype=np.int64)
    for i in range(r.size - 1, db - 1, -1):
        c = int(r[i]) * lead_inv % mod
        if c:
            quot[i - db] = c
            r[i - db : i + 1] = (r[i - db : i + 1] - c * b) % mod
    return quot, _trim(r[:db])


def _bezout_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """s, t over F_p with s a + t b = 1, for coprime a and b."""
    r0, r1 = _trim(a % p), _trim(b % p)
    s0, s1 = np.ones(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    t0, t1 = np.zeros(0, dtype=np.int64), np.ones(1, dtype=np.int64)
    while r1.size:
        quot, rem = _divmod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, _sub(s0, _mul(quot, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(quot, t1, p), p)
    if r0.size != 1:
        raise AssertionError("Hensel factors are not coprime mod p")
    c = pow(int(r0[0]), -1, p)
    return _trim(s0 * c % p), _trim(t0 * c % p)


def minimal_polynomial(rf, v: int) -> np.ndarray:
    """Minimal polynomial over F_p of a residue element: the product of
    (x - v^(p^i)) over its p-power orbit, in the field's own arithmetic."""
    coeffs = [1]
    cur = v
    while True:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = rf.add(nxt[i + 1], c)
            nxt[i] = rf.add(nxt[i], rf.mul(rf.neg(cur), c))
        coeffs = nxt
        cur = rf.pow(cur, rf.p)
        if cur == v:
            break
    if any(c >= rf.p for c in coeffs):
        raise AssertionError("minimal polynomial left the prime subfield")
    return np.array(coeffs, dtype=np.int64)


def hensel_factor(h: np.ndarray, order: int, p: int, k: int) -> np.ndarray:
    """The monic factor H of x^order - 1 over Z/p^k with H = h mod p.

    Quadratic Hensel lifting (von zur Gathen and Gerhard, Modern Computer
    Algebra, Algorithm 15.10) of x^order - 1 = G H from mod p, with the
    precision exponent doubling and capped at k."""
    big = np.zeros(order + 1, dtype=np.int64)
    big[0], big[order] = -1, 1
    g, rem = _divmod(big % p, h, p)
    if rem.size:
        raise AssertionError("h does not divide x^order - 1 mod p")
    s, t = _bezout_mod_p(g, h, p)  # s g + t h = 1
    e = 1
    while e < k:
        e = min(2 * e, k)
        mod = p**e
        err = _sub(big, _mul(g, h, mod), mod)
        quot, r = _divmod(_mul(s, err, mod), h, mod)
        g = _add(_add(g, _mul(t, err, mod), mod), _mul(quot, g, mod), mod)
        h = _add(h, r, mod)
        b = _sub(_add(_mul(s, g, mod), _mul(t, h, mod), mod), np.ones(1, dtype=np.int64), mod)
        c, dd = _divmod(_mul(s, b, mod), h, mod)
        s = _sub(s, dd, mod)
        t = _sub(_sub(t, _mul(t, b, mod), mod), _mul(c, g, mod), mod)
        g, h, s, t = (_trim(a) for a in (g, h, s, t))
    return h


def power_table(H: np.ndarray, order: int, mod: int) -> np.ndarray:
    """Row e holds the power-basis coordinates of x^e mod H, 0 <= e < order."""
    m = H.size - 1
    tail = H[:m]
    rows = np.zeros((order, m), dtype=np.int64)
    cur = np.zeros(m, dtype=np.int64)
    cur[0] = 1
    for e in range(order):
        rows[e] = cur
        lead = cur[-1]
        cur = np.roll(cur, 1)
        cur[0] = 0
        cur = (cur - lead * tail) % mod
    return rows


def degree_weights(rf) -> np.ndarray:
    """w_j = deg(gamma^j) when the degree-< d representative is monic."""
    w = np.zeros(rf.size - 1, dtype=np.int64)
    cur = 1
    for j in range(rf.size - 1):
        coeffs = rf.lift_coeffs(cur)
        deg = max(i for i, c in enumerate(coeffs) if c)
        if coeffs[deg] == 1:
            w[j] = deg
        cur = rf.mul(cur, rf.generator)
    return w


def l_valuations(rf, ns) -> dict[int, int]:
    """v_p(L_n) for each in-scope index n (0 < n < Q-1, (q-1) | n)."""
    ns = np.asarray(list(ns), dtype=np.int64)
    order = rf.size - 1
    if np.any((ns <= 0) | (ns >= order) | (ns % (rf.q - 1) != 0)):
        raise ValueError("every index must be in scope")
    p = rf.p
    k = oracle_precision(p)
    mod = p**k
    h = minimal_polynomial(rf, rf.generator)
    if h.size - 1 != rf.m:
        raise AssertionError("the generator's minimal polynomial has the wrong degree")
    H = hensel_factor(h, order, p, k)
    table = power_table(H, order, mod)
    w = degree_weights(rf)
    js = np.flatnonzero(w)
    exps = (-ns[:, None] * js[None, :]) % order
    coords = -(w[js][None, :, None] * table[exps]).sum(axis=1) % mod
    val = np.full(coords.shape, k, dtype=np.int64)
    for i in range(k - 1, -1, -1):
        val[coords % p ** (i + 1) != 0] = i
    v = val.min(axis=1)
    if np.any(v >= k):
        bad = [int(n) for n in ns[v >= k]]
        raise AssertionError(f"L_n saturated at the oracle precision k={k} for n in {bad}")
    return {int(n): int(x) for n, x in zip(ns, v)}


def units_mod_p(rf, ns) -> np.ndarray:
    """Whether the sum at each n in ns is a unit: L_n at in-scope n,
    S_n(1) elsewhere.  omega(g) reduces to g, so the sum reduces to
    sum (w(g) mod p) g^(-n) in F_Q, w(g) = deg g for L_n and 1 for
    S_n(1), gathered at every monic g of degree < d."""
    ns = np.asarray(ns, dtype=np.int64)
    q, d, p, order = rf.q, rf.d, rf.p, rf.size - 1
    logs = np.concatenate([rf._nplog[q**j : 2 * q**j] for j in range(d)]).astype(np.int64)
    degs = np.repeat(np.arange(d, dtype=np.int64), [q**j for j in range(d)])
    out = np.zeros(ns.size, dtype=bool)
    for in_scope, w in ((True, degs), (False, np.ones_like(degs))):
        sel = (ns % (q - 1) == 0) == in_scope
        keep = w % p != 0
        kept, wk = logs[keep], w[keep] % p
        if p == 2:  # every kept weight is 1 and F_Q addition is XOR
            reduce = lambda g: np.bitwise_xor.reduce(g, axis=1) != 0
            out[sel] = char_sums(order, rf._npexp, kept, reduce, ns[sel])
        else:
            reduce = lambda g: (np.einsum("rjc,j->rc", g, wk) % p).any(axis=1)
            out[sel] = char_sums(order, rf._unpack[rf._npexp], kept, reduce, ns[sel])
    return out
