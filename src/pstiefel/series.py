"""Truncated power series in one indeterminate, exact coefficients.

A series is a dense coefficient vector of length ``truncation`` over Z
(modulus 0) or Z/m (modulus m >= 2); index i is the coefficient of x^i
and everything at x^truncation and beyond is discarded. In the geometric
applications x sits in topological degree 2, so index i means degree 2i
there, but this module knows nothing about degrees.

Values are tuple records (coeffs, modulus); every operation returns a
fresh series and loops over nonzero terms only: division (and inversion)
by the triangular solve, powers by Knuth's power recurrence (TAOCP
vol. 2, 4.7) on the integer lift. Divisors and negative powers need a
unit constant term (+-1 over Z).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple


class TruncatedSeries(namedtuple("TruncatedSeries", "coeffs modulus")):
    """Record (coeffs, modulus), built from (coeffs, truncation, modulus)."""

    __slots__ = ()

    def __new__(cls, coeffs, truncation: int, modulus: int = 0):
        if truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {truncation}")
        if modulus < 0 or modulus == 1:
            raise ValueError(f"invalid modulus {modulus}")
        coeffs = list(coeffs)[:truncation]
        coeffs += [0] * (truncation - len(coeffs))
        if modulus:
            coeffs = [c % modulus for c in coeffs]
        return tuple.__new__(cls, (tuple(coeffs), modulus))

    def __getnewargs__(self):
        # for copy and pickle: the default passes modulus as truncation
        return self.coeffs, self.truncation, self.modulus

    @property
    def truncation(self) -> int:
        return len(self.coeffs)

    @classmethod
    def one(cls, truncation: int, modulus: int = 0) -> "TruncatedSeries":
        return cls([1], truncation, modulus)

    def coeff(self, i: int) -> int:
        """Coefficient of x^i, reduced to [0, modulus) when modulus > 0."""
        if not 0 <= i < self.truncation:
            raise IndexError(
                f"index {i} outside truncation {self.truncation}")
        return self.coeffs[i]

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise TypeError(
                f"expected a TruncatedSeries, got {type(other).__name__}")
        if self.truncation != other.truncation:
            raise ValueError(
                f"truncation mismatch: {self.truncation} vs {other.truncation}")
        if self.modulus != other.modulus:
            raise ValueError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}")

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product, truncated, over the nonzero terms: the sparser
        factor outside, so terms(a) * terms(b) products at most."""
        self._check_compatible(other)
        T = self.truncation
        a, b = sorted((self._terms(), other._terms()), key=len)
        out = [0] * T
        for i, av in a:
            # (T - i,) sorts before every term (T - i, c)
            for j, bv in b[:bisect_left(b, (T - i,))]:
                out[i + j] += av * bv
        return TruncatedSeries(out, T, self.modulus)

    __mul__ = mul

    def _not_a_tuple(self, other):
        # tuple's + and int * would concatenate or repeat the record
        raise TypeError("a series has no + and no repetition; * is the product")

    __add__ = __radd__ = __rmul__ = _not_a_tuple

    def _terms(self) -> list[tuple[int, int]]:
        return [(i, c) for i, c in enumerate(self.coeffs) if c]

    def _unit_inverse(self) -> int:
        """Inverse of the constant term, which must be a unit."""
        c0, m = self.coeffs[0], self.modulus
        if m == 0 and c0 not in (1, -1):
            raise ValueError(
                f"not invertible over Z: constant term {c0} is not a unit")
        if m and math.gcd(c0, m) != 1:
            raise ValueError(f"not invertible mod {m}: constant term {c0} "
                             f"shares a factor with the modulus")
        return pow(c0, -1, m) if m else c0

    def inv(self, numerator: "TruncatedSeries | None" = None
            ) -> "TruncatedSeries":
        """numerator / self by the triangular solve b_i = b_0 (u_i -
        sum_{j >= 1} a_j b_{i-j}) over self's nonzero terms a_j, with b_0
        the inverse of a_0 and u the numerator: T * terms products and no
        series product. Without a numerator, u = 1 and this is the
        multiplicative inverse. Needs a unit constant term."""
        T, m = self.truncation, self.modulus
        b0 = self._unit_inverse()
        if numerator is None:
            u = [1] + [0] * (T - 1)
        else:
            self._check_compatible(numerator)
            u = numerator.coeffs
        terms = self._terms()[1:]
        b = [0] * T
        for i in range(T):
            s = u[i]
            for j, aj in terms:
                if j > i:
                    break
                s -= aj * b[i - j]
            b[i] = b0 * s % m if m else b0 * s
        return TruncatedSeries(b, T, m)

    def int_pow(self, e: int) -> "TruncatedSeries":
        """Integer power W = V^e by Knuth's recurrence (TAOCP vol. 2, 4.7,
        eq. (9)), i v_0 w_i = sum_{k=1..i} ((e + 1) k - i) v_k w_{i-k}, over
        the nonzero v_k: T * terms products, no series product. The
        x-valuation s is shifted out first (V^e = x^{se} U^e). The sum runs
        on the integer lift, where dividing by i v_0 is exact, and is
        reduced mod m at the end (Z -> Z/m is a ring map); mod m a unit v_0
        is scaled to 1 and v_0^e multiplied back. A negative e needs a unit
        constant term, as ``inv`` does."""
        T, m = self.truncation, self.modulus
        if e < 0:
            self._unit_inverse()
        terms = self._terms()
        size = T - terms[0][0] * e if terms else 0
        if e == 0 or size <= 0:
            return TruncatedSeries([int(e == 0)], T, m)
        s, c = terms[0]
        scale = 1
        if m and math.gcd(c, m) == 1:
            u, scale, c = pow(c, -1, m), pow(c, e, m), 1
            terms = [(k, v * u % m) for k, v in terms]
        w = [c ** abs(e)] + [0] * (size - 1)  # e < 0 only if c = +-1
        rest, e1 = [(k - s, v) for k, v in terms[1:]], e + 1
        for i in range(1, size):
            acc = 0
            for k, v in rest:
                if k > i:
                    break
                acc += (e1 * k - i) * v * w[i - k]
            w[i] = acc // (i * c)
        return TruncatedSeries([0] * (s * e) + [scale * x for x in w], T, m)

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        body = " + ".join(terms) if terms else "0"
        tail = f" + O(x^{self.truncation})"
        if self.modulus:
            return f"({body}{tail} mod {self.modulus})"
        return f"({body}{tail})"
