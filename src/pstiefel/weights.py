"""Weight tuples and their complete homogeneous sums.

A circle acting on a complex Stiefel frame with integer weights
(l_1, ..., l_k) acts freely exactly when the weights are primitive
(gcd 1), so WeightTuple enforces that. The quantity driving everything
downstream is the complete homogeneous sum

    h_r(l_1, ..., l_k) = sum over i_1 + ... + i_k = r, i_j >= 0
                         of l_1^{i_1} * ... * l_k^{i_k},

computed by the one-weight-at-a-time recurrence, for two weights by its
closed form, the top ones as divided differences of a power of x at the
weights. Direct enumeration over multisets of weights is an independent
oracle for small ranges.
The weighted line bundle sums over complex projective space have total
Chern class prod_j (1 + l_j x), and the complement's Chern series is its
inverse, whose x^r coefficient is (-1)^r h_r.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from itertools import combinations_with_replacement

from .costs import MAX_CHERN_TRUNCATION, require_at_most, require_small_sums
from .ring import gcd_all
from .series import TruncatedSeries

BRUTEFORCE_MAX_R = 12
BRUTEFORCE_MAX_K = 6


class WeightTuple(tuple):
    """A tuple of integer circle weights, checked nonempty and primitive."""

    __slots__ = ()

    def __new__(cls, weights: Iterable[int]):
        ws = tuple(weights)
        try:
            ws = tuple(map(operator.index, ws))
        except TypeError:
            raise ValueError(f"weights must be integers, got {ws!r}") from None
        if not ws:
            raise ValueError("empty weight tuple")
        g = gcd_all(ws)
        if g != 1:
            raise ValueError(f"weights {ws} not primitive: gcd is {g}")
        return tuple.__new__(cls, ws)

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"WeightTuple(weights={tuple(self)!r})"


def homogeneous_sums(ell: WeightTuple, r: int,
                     modulus: int | None = None) -> list[int]:
    """The table [h_0, ..., h_r] of complete homogeneous sums, exact over
    Z, or with every entry, h_0 included, reduced mod a positive modulus
    as it is built.

    Adding one weight l at a time: h_r(..., l) = h_r(...) + l*h_{r-1}(..., l),
    so an in-place ascending sweep over r does the whole table.
    """
    if modulus is not None and modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    if r < 0:
        raise ValueError(f"negative degree {r}")
    if modulus is None:
        hs = [1] + [0] * r
        for w in ell:
            for i in range(1, r + 1):
                hs[i] += w * hs[i - 1]
        return hs
    hs = [1 % modulus] + [0] * r
    for w in ell:
        w %= modulus
        h = hs[0]
        for i in range(1, r + 1):
            h = hs[i] = (hs[i] + w * h) % modulus
    return hs


def homogeneous_sum(ell: WeightTuple, r: int,
                    modulus: int | None = None) -> int:
    """Complete homogeneous sum h_r of the weights, or its residue mod a
    positive modulus m: for two, the closed form (l1^{r+1} - l2^{r+1}) /
    (l1 - l2), or (r+1) * l1^r at l1 = l2 (Macdonald, Symmetric Functions
    and Hall Polynomials, I.2); for any other count, the last entry of
    homogeneous_sums(ell, r, m). Two weights mod m take powers mod
    m * |l1 - l2|, whose difference l1 - l2 divides exactly, so no
    integer of about r log max|l| bits is built."""
    if modulus is not None and modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    if len(ell) != 2:
        return homogeneous_sums(ell, r, modulus)[r]
    if r < 0:
        raise ValueError(f"negative degree {r}")
    l1, l2 = ell
    if modulus is None:
        if l1 == l2:
            return (r + 1) * l1 ** r
        return (l1 ** (r + 1) - l2 ** (r + 1)) // (l1 - l2)
    if l1 == l2:
        return (r + 1) * pow(l1, r, modulus) % modulus
    # N = h (l1 - l2), so N mod m|l1 - l2| is a multiple of l1 - l2
    # whose quotient is h mod m
    big = modulus * abs(l1 - l2)
    return ((pow(l1, r + 1, big) - pow(l2, r + 1, big)) % big
            // (l1 - l2) % modulus)


def homogeneous_top(ell: WeightTuple, r: int) -> list[int]:
    """[h_{r-j+1}, ..., h_r] exactly, 0 at negative indices, j the number
    of nonzero weights. h_m(x_0..x_s) is the divided difference of x^(m+s)
    at the nodes x_0..x_s (Macdonald, I.2), and a zero node adds nothing
    to h, so one Newton table of x^N, N = r + j - 1, at the sorted weights
    and j - 1 zeros ends in h_r, h_{r-1}, ..., h_{r-j+1}: O(j^2)
    subtractions and exact divisions, where a window of s + 1 equal nodes
    v reads C(N, s) v^(N-s) (de Boor, Surveys in Approximation Theory 1,
    2005). Sorting makes equal nodes adjacent."""
    ws = sorted(w for w in ell if w)
    j = len(ws)
    if r < j:
        first = homogeneous_sums(ws, r)
        return [0] * (j - 1 - r) + first
    n = r + j - 1
    powers = {w: w ** n for w in ws}
    c = [powers[w] for w in ws] + [0] * (j - 1)
    x = ws + [0] * (j - 1)
    for s in range(1, 2 * j - 1):
        # windows of zeros alone stay 0: x^N vanishes to order N > s there
        for i in range(min(j + s, 2 * j - 1) - 1, s - 1, -1):
            d = x[i] - x[i - s]
            # C(N, s) v^(N-s) from the window's C(N, s - 1) v^(N-s+1)
            c[i] = ((c[i] - c[i - 1]) // d if d
                    else c[i] * (n - s + 1) // (s * x[i]))
    return c[j - 1:][::-1]


def homogeneous_sum_bruteforce(ell: WeightTuple, r: int) -> int:
    """Oracle for homogeneous_sum: h_r as the sum, over all multisets of r
    weights, of their product.

    Exponential in its arguments, so guarded to r <= 12 and k <= 6.
    """
    if r < 0:
        raise ValueError(f"negative degree {r}")
    k = len(ell)
    if r > BRUTEFORCE_MAX_R or k > BRUTEFORCE_MAX_K:
        raise ValueError(
            f"oracle range exceeded (r <= {BRUTEFORCE_MAX_R}, "
            f"k <= {BRUTEFORCE_MAX_K}); got r={r}, k={k}")
    return sum(map(math.prod, combinations_with_replacement(ell, r)))


def total_chern(ell: WeightTuple, truncation: int) -> TruncatedSeries:
    """Total Chern series prod_j (1 + l_j x), exact over Z."""
    require_at_most("chern needs truncation", truncation, MAX_CHERN_TRUNCATION)
    require_small_sums("chern", ell, truncation - 1)
    out = TruncatedSeries.one(truncation)
    for w in ell:
        out = out.mul(TruncatedSeries([1, w], truncation))
    return out


def complement_chern(ell: WeightTuple, truncation: int) -> TruncatedSeries:
    """Chern series of the complementary bundle, the inverse of total_chern,
    under the same caps. Its x^r coefficient is (-1)^r h_r(ell) = h_r(-ell),
    so it is the table h_0..h_{T-1} of the negated weights; no inversion."""
    require_at_most("chern needs truncation", truncation, MAX_CHERN_TRUNCATION)
    require_small_sums("chern", ell, truncation - 1)
    negated = [-w for w in ell]
    # a truncation below 1 gets the series' own message
    return TruncatedSeries(homogeneous_sums(negated, max(truncation - 1, 0)),
                           truncation)
