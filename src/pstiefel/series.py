"""Truncated power series in one indeterminate, exact coefficients.

A series is a dense coefficient vector of length ``truncation`` over Z
(modulus 0) or Z/m (modulus m >= 2); index i is the coefficient of x^i
and everything at x^truncation and beyond is discarded. In the geometric
applications x sits in topological degree 2, so index i means degree 2i
there, but this module knows nothing about degrees.

Values are immutable; every operation returns a fresh series. Inversion
requires the constant term to be a unit (so +-1 over Z) and is computed
by the usual triangular recursion, which is exact.
"""

from __future__ import annotations

from dataclasses import dataclass


# slots by hand: on 3.11, slots=True gives TypeError for non-field setattr
@dataclass(frozen=True, init=False)
class TruncatedSeries:
    __slots__ = ("coeffs", "modulus")
    coeffs: tuple[int, ...]
    modulus: int

    def __init__(self, coeffs, truncation: int, modulus: int = 0):
        if truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {truncation}")
        if modulus < 0 or modulus == 1:
            raise ValueError(f"invalid modulus {modulus}")
        coeffs = list(coeffs)
        if len(coeffs) > truncation:
            coeffs = coeffs[:truncation]
        else:
            coeffs = coeffs + [0] * (truncation - len(coeffs))
        if modulus:
            coeffs = [c % modulus for c in coeffs]
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "modulus", modulus)

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
        if self.truncation != other.truncation:
            raise ValueError(
                f"truncation mismatch: {self.truncation} vs {other.truncation}")
        if self.modulus != other.modulus:
            raise ValueError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}")

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product, truncated."""
        self._check_compatible(other)
        T = self.truncation
        a, b = self.coeffs, other.coeffs
        out = [0] * T
        for i, av in enumerate(a):
            if not av:
                continue
            for j, bv in enumerate(b[: T - i]):
                if bv:
                    out[i + j] += av * bv
        return TruncatedSeries(out, T, self.modulus)

    __mul__ = mul

    def inv(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be a unit."""
        T, m = self.truncation, self.modulus
        a = self.coeffs
        c0 = a[0]
        if m == 0:
            if c0 not in (1, -1):
                raise ValueError(
                    f"not invertible over Z: constant term {c0} is not a unit")
            b0 = c0
        else:
            try:
                b0 = pow(c0, -1, m)
            except ValueError:
                raise ValueError(
                    f"not invertible mod {m}: constant term {c0} "
                    f"shares a factor with the modulus") from None
        b = [0] * T
        b[0] = b0
        for i in range(1, T):
            s = 0
            for j in range(1, i + 1):
                if a[j]:
                    s += a[j] * b[i - j]
            b[i] = -b0 * s % m if m else -b0 * s
        return TruncatedSeries(b, T, m)

    def int_pow(self, e: int) -> "TruncatedSeries":
        """Integer power by repeated squaring; negative e inverts first."""
        base = self
        if e < 0:
            base = self.inv()
            e = -e
        result = TruncatedSeries.one(self.truncation, self.modulus)
        while e:
            if e & 1:
                result = result.mul(base)
            e >>= 1
            if e:
                base = base.mul(base)
        return result

    def reduce_mod(self, m: int) -> "TruncatedSeries":
        """Coefficientwise reduction of an integer series to Z/m."""
        if self.modulus != 0:
            raise ValueError(
                f"series already reduced (modulus {self.modulus})")
        if m < 2:
            raise ValueError(f"reduction modulus must be >= 2, got {m}")
        return TruncatedSeries(self.coeffs, self.truncation, m)

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
