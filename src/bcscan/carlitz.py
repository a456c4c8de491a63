"""The Carlitz module mod a prime: its exponential and the
Bernoulli-Carlitz residues.

The Carlitz module is the ring map phi from A = F_q[t] into additive
operators determined by phi(t) = t + F, F the q-power map.  Mod a prime
f of degree d the Carlitz exponential e(z) = sum(e_i z^(q^i)) has d
integral coefficients (``exp_coeffs``); ``additive_apply`` applies such
an additive polynomial to a series, and ``bc_numbers`` inverts e(z)/z to
read off the Bernoulli-Carlitz residue at every index.  phi itself acts
in one place, the local model, through the recursion
x_(k+1) = T x_k + x_k^q of ``localfield``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldError, ResidueField
from .series import TruncSeries


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


# ---------------------------------------------------------------------------
# Carlitz exponential mod a prime.

def exp_coeffs(R: ResidueField) -> tuple[int, ...]:
    """The d exponential coefficients that reduce mod the prime.

    e_0 = 1 and e_i = e_{i-1}^q / (t^(q^i) - t); the denominator is a
    unit in the residue field exactly for i < d.
    """
    q = R.q
    out = [1]
    tq = R.t_res
    for i in range(1, R.d):
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

