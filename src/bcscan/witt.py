"""Truncated Witt vectors of a residue field: W_k = (Z/p^k)[x]/(G).

The ring is presented on the residue field's own generator gamma: for a
field with p^m elements, G lifts the minimal polynomial of gamma over
F_p, so x reduces to gamma and W_k is the length-k truncation of the
unramified extension of Z_p with that residue field.  Elements are
coordinate tuples against 1, x, ..., x^(m-1) with entries in Z/p^k.

The two operations everything else needs are exact Teichmuller lifts
(the unique (p^m - 1)-th root of unity over a given residue) and p-adic
valuation of elements, both used by the L-value layer.  Every
Teichmuller lift is a power of omega(gamma): omega(v) is
omega(gamma)^(dlog v), and omega(gamma) is iterated once per ring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldError, ResidueField, orbit_polys


class PrecisionError(ArithmeticError):
    """A quantity stayed indistinguishable from zero at the precision cap."""


MAX_PRECISION = 96


class WittRing:
    def __init__(self, rf: ResidueField, k: int):
        if not 1 <= k <= MAX_PRECISION:
            raise FieldError(f"precision must be in 1..{MAX_PRECISION}")
        self.rf = rf
        self.p = rf.p
        self.m = rf.m
        self.k = k
        self.pk = rf.p**k
        self.theta = rf.generator
        # the conjugates of gamma over F_p are gamma^(p^i), read off the exp table
        conj = np.array([[rf.exp_of(self.p**i) for i in range(self.m)]], dtype=np.int32)
        self.modulus = tuple(orbit_polys(rf, conj, self.p)[0].tolist())
        self.theta_pows = tuple(rf.exp_of(j) for j in range(self.m))
        # coordinates of omega(gamma), iterated on the first teichmuller
        # call; a tuple, since a WittElem would refer back to the ring
        self._omega: tuple[int, ...] | None = None

    # -- element plumbing ---------------------------------------------------

    def zero(self) -> "WittElem":
        return WittElem(self, (0,) * self.m)

    def one(self) -> "WittElem":
        return WittElem(self, (1,) + (0,) * (self.m - 1))

    def from_coords(self, coords) -> "WittElem":
        return WittElem(self, tuple(int(c) % self.pk for c in coords))

    def reduce_p(self, w: "WittElem") -> int:
        """Image in the residue field."""
        rf = self.rf
        acc = 0
        for c, pw in zip(w.coords, self.theta_pows):
            acc = rf.add(acc, rf.mul(c % self.p, pw))
        return acc

    def _omega_start(self) -> "WittElem":
        """x, the plain lift of gamma, where the iteration for omega(gamma)
        starts; at m = 1, x is -G_0."""
        if self.m == 1:
            return self.from_coords((-self.modulus[0],))
        return self.from_coords(int(i == 1) for i in range(self.m))

    def _omega_gamma(self) -> tuple[int, ...]:
        """omega(gamma) by y -> y^(p^m) from ``_omega_start``: each step
        gains one p-adic digit, so k steps reach the fixed point."""
        y = self._omega_start()
        e = self.p**self.m
        for _ in range(self.k + 2):
            y2 = y**e
            if y2 == y:
                if self.reduce_p(y) != self.theta:
                    raise FieldError("Teichmuller lift drifted off its residue")
                return y.coords
            y = y2
        raise FieldError("Teichmuller iteration failed to stabilize")

    def teichmuller(self, v: int) -> "WittElem":
        """The unique root of unity (or 0) over the residue v:
        omega(gamma)^(dlog v)."""
        if v == 0:
            return self.zero()
        if self._omega is None:
            self._omega = self._omega_gamma()
        return WittElem(self, self._omega) ** self.rf.dlog(v)

    def valuation(self, w: "WittElem") -> int:
        """Largest j <= k with w in p^j W_k; k means 0 at this precision."""
        best = self.k
        for c in w.coords:
            if c == 0:
                continue
            v = 0
            while c % self.p == 0:
                c //= self.p
                v += 1
            best = min(best, v)
            if best == 0:
                break
        return best

    def __repr__(self) -> str:
        return f"W_{self.k}(F_{self.p}^{self.m})"


@dataclass(frozen=True)
class WittElem:
    ring: WittRing
    coords: tuple[int, ...]

    def __add__(self, other: "WittElem") -> "WittElem":
        pk = self.ring.pk
        return WittElem(self.ring, tuple((a + b) % pk for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "WittElem":
        pk = self.ring.pk
        return WittElem(self.ring, tuple((-a) % pk for a in self.coords))

    def __sub__(self, other: "WittElem") -> "WittElem":
        pk = self.ring.pk
        return WittElem(self.ring, tuple((a - b) % pk for a, b in zip(self.coords, other.coords)))

    def __mul__(self, other: "WittElem") -> "WittElem":
        ring = self.ring
        m, pk, mod = ring.m, ring.pk, ring.modulus
        conv = [0] * (2 * m - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        conv[i + j] += a * b
        for i in range(2 * m - 2, m - 1, -1):
            c = conv[i]
            if c:
                conv[i] = 0
                for j in range(m):
                    conv[i - m + j] -= c * mod[j]
        return WittElem(ring, tuple(v % pk for v in conv[:m]))

    def __pow__(self, e: int) -> "WittElem":
        if e < 0:
            raise ValueError("negative exponent")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self) -> str:
        return f"WittElem{self.coords}"
