"""The Carlitz module mod a prime: its exponential and the
Bernoulli-Carlitz residues.

The Carlitz module is the ring map phi from A = F_q[t] into additive
operators determined by phi(t) = t + F, F the q-power map.  Mod a prime
f of degree d the Carlitz exponential e(z) = sum(e_i z^(q^i)) has d
integral coefficients (``exp_coeffs``); ``additive_apply`` applies such
an additive polynomial to each row of a series matrix, and
``bc_numbers`` inverts e(z)/z, a series in w = z^(q-1), by one
recurrence summed by Zech logarithms.
phi itself acts in one place, the local model, through the recursion
x_(k+1) = T x_k + x_k^q of ``localfield``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldError, ResidueField
from .series import frobenius_rows


def additive_apply(F, scalars, X: np.ndarray) -> np.ndarray:
    """sum(scalars[i] * X^(q^i)) row by row, for packed scalars over F
    and X a (rows, n) coefficient matrix over F."""
    acc = np.zeros(X.shape, dtype=np.int32)
    for s in scalars:
        acc = F.vadd(acc, F.vscale(int(s), X))
        X = frobenius_rows(F, X)
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
    """BC residues by the sparse recurrence of 1/E in w = z^(q-1).

    E = sum(e_i w^(s_i)), s_i = (q^i - 1)/(q - 1), so b_n = 0 off the
    multiples of q - 1 and c_j = b_(j(q-1)) has c_0 = 1 and
    c_j = -sum(e_i c_(j - s_i), 1 <= i < d).  Each c_j is kept as its
    discrete log, None for zero, and two terms add by one lookup in the
    Zech table log(1 + gamma^k): O(Q d/(q-1)) lookups for every p."""
    q, order = R.q, R.order
    ec = exp_coeffs(R)
    terms = [((q**i - 1) // (q - 1), R.dlog(R.neg(ec[i]))) for i in range(1, R.d)]
    # 1 + gamma^k changes only the F_p digit 0 of gamma^k's packing, and
    # is 0 where gamma^k = -1; three periods of the table serve every
    # index -2*order < x < 3*order that the loop below forms
    g = R._npexp.astype(np.int64)
    zech = R._nplog[g - g % R.p + (g + 1) % R.p].tolist()
    zech[R.dlog(R.neg(1))] = None
    zech *= 3
    J = order // (q - 1)
    logs = [0] + [None] * (J - 1)
    ends = [s for s, _ in terms] + [J]
    for k in range(1, len(ends)):  # terms 1..k reach the j in [s_k, s_(k+1))
        (_, le1), rest = terms[0], terms[1:k]
        for j in range(ends[k - 1], ends[k]):
            try:
                # gamma^acc + gamma^t = gamma^(t + zech[acc - t]), and
                # acc < 3*order; None, a zero, raises TypeError
                acc = logs[j - 1] + le1
                for s, le in rest:
                    t = logs[j - s] + le
                    acc = t + zech[acc - t]
                logs[j] = acc % order
            except TypeError:  # a zero term or partial sum: add in the field
                c = 0
                for s, le in terms[:k]:
                    if logs[j - s] is not None:
                        c = R.add(c, R.exp_of(logs[j - s] + le))
                logs[j] = R.dlog(c) if c else None
    values = [0] * order
    values[:: q - 1] = [0 if v is None else R._exp[v] for v in logs]
    return BCVector(R, tuple(values))


def irregular_indices(bc: BCVector) -> frozenset[int]:
    """{n : 0 < n < q^d - 1, (q-1) | n, prime divides BC_n}."""
    q = bc.rf.q
    return frozenset(
        n
        for n in range(q - 1, len(bc.values), q - 1)
        if bc.values[n] == 0
    )

