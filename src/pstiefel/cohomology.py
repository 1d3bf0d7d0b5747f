"""Mod-p cohomology presentations of circle quotients of Stiefel manifolds.

The complex Stiefel manifold of orthonormal k-frames in C^n, divided by a
free weighted circle action, is a closed manifold of dimension
k(2n - k) - 1. Its mod-p cohomology for odd p is a truncated polynomial
algebra on one degree-2 class tensored with an exterior algebra on odd
generators: the spectral sequence of the circle quotient transgresses the
odd sphere generator in degree 2j - 1 onto a multiple of the j-th power
of the degree-2 class, with coefficient -(-1)^j h_j(weights), so the
first j in (n-k, n] whose h_j survives mod p becomes the truncation
exponent, and every other odd generator in the window survives as an
exterior class.

At p = 2 with two frame vectors the same window rule gives the
presentation, with the odd generator's square imposed as a polynomial
relation rather than read as exterior.
"""

from __future__ import annotations

import sys
from array import array
from collections import namedtuple
from itertools import repeat
from operator import itemgetter
from struct import iter_unpack

from .costs import require_presentation
from .ring import require_prime
from .weights import WeightTuple, homogeneous_sum, homogeneous_sums


class InvariantViolation(RuntimeError):
    """A condition the theory guarantees failed in a computation."""


class StiefelParams(namedtuple("StiefelParams", "n k ell")):
    """A circle quotient instance: frame count k, ambient C^n, weights."""

    __slots__ = ()

    def __new__(cls, n: int, k: int, ell: WeightTuple):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if len(ell) != k:
            raise ValueError(
                f"weight count {len(ell)} does not match k={k}")
        return tuple.__new__(cls, (n, k, ell))

    @property
    def dimension(self) -> int:
        return self.k * (2 * self.n - self.k) - 1


class CohomologyPresentation(namedtuple(
        "CohomologyPresentation", "prime nilpotency_order exterior_degrees")):
    """Z/p[x]/(x^order) tensor an algebra on odd-degree generators.

    The degree-2 polynomial class is truncated at nilpotency_order; the
    odd generators (a tuple of degrees) are exterior for odd p, and for
    p = 2 their squares are imposed as polynomial relations instead.
    """

    __slots__ = ()
    generator_degree = 2  # topological degree of the polynomial class

    def describe(self) -> str:
        gens = ", ".join(f"y[{d}]" for d in self.exterior_degrees)
        poly = f"Z/{self.prime}[x]/(x^{self.nilpotency_order})"
        if not gens:
            return poly
        if self.prime == 2:
            squares = ", ".join(f"y[{d}]^2" for d in self.exterior_degrees)
            return (f"Z/{self.prime}[x, {gens}]/"
                    f"(x^{self.nilpotency_order}, {squares})")
        return f"{poly} (x) Lambda({gens})"


class PresentationCheck(namedtuple(
        "PresentationCheck", "top_degree expected_top_degree total_rank "
        "expected_rank palindromic poincare")):
    """Outcome of the dimension/rank/palindromicity invariants. poincare,
    the coefficients checked, is a list, so the record is unhashable, and
    it is kept out of the repr, so out of failure messages."""

    __slots__ = ()

    def __repr__(self) -> str:
        return ("PresentationCheck(top_degree={!r}, expected_top_degree={!r}, "
                "total_rank={!r}, expected_rank={!r}, palindromic={!r})"
                .format(*self[:5]))

    @property
    def passed(self) -> bool:
        return (self.top_degree == self.expected_top_degree
                and self.total_rank == self.expected_rank
                and self.palindromic)


def nilpotency_order(params: StiefelParams, p: int) -> int:
    """Smallest r in (n-k, n] with h_r(weights) nonzero mod p.

    This is the exponent killing the degree-2 class. The quotient is a
    closed manifold, so some transgression in the window must survive;
    running past r = n means an internal error, not bad input.

    The window's first index is read by homogeneous_sum, which settles
    the usual one-step scan: for two weights its closed form, by powers
    mod p |l1 - l2|, so n of 400 digits costs a few modular powers rather
    than two integers of n bits; for any other count one table mod p up
    to n - k + 1. The rest of the window is h_n alone for two weights,
    read by the closed form again, and otherwise one table mod p up to
    n, homogeneous_sums(ell, n, p), not one table per step.
    """
    require_prime(p)
    n, ell = params.n, params.ell
    first = n - params.k + 1
    if homogeneous_sum(ell, first, p):
        return first
    if len(ell) == 2:
        if homogeneous_sum(ell, n, p):
            return n
    else:
        hs = homogeneous_sums(ell, n, p)
        for r in range(first + 1, n + 1):
            if hs[r]:
                return r
    raise InvariantViolation(
        f"no transgression found for {params} mod {p}; "
        "finite-dimensionality forces one in the window")


def _window_presentation(params: StiefelParams,
                         p: int) -> CohomologyPresentation:
    """The first surviving h_j in the window (n-k, n] truncates x; every
    other generator in the window survives in degree 2j - 1."""
    order = nilpotency_order(params, p)
    window = range(params.n - params.k + 1, params.n + 1)
    degrees = tuple(2 * j - 1 for j in window if j != order)
    return CohomologyPresentation(p, order, degrees)


def presentation_odd(params: StiefelParams, p: int) -> CohomologyPresentation:
    """Mod-p presentation for odd p: truncated polynomial tensor exterior."""
    require_presentation(params.n, params.k)
    if p == 2:
        raise ValueError(
            "p = 2 is handled by presentation_mod2 (two-frame quotients only)")
    return _window_presentation(params, p)


def presentation_mod2(params: StiefelParams) -> CohomologyPresentation:
    """Mod-2 presentation of a two-frame quotient: the window rule at
    p = 2, with the odd generator's square imposed as a relation.

    That is Z/2[x, y]/(x^n, y^2) with y in degree 2n - 3 when h_{n-1} is
    even, and Z/2[x, y]/(x^{n-1}, y^2) with y in degree 2n - 1 when odd.
    """
    require_presentation(params.n, params.k)
    if params.k != 2:
        raise ValueError("mod-2 presentations are only available for "
                         "two-frame quotients (k = 2)")
    return _window_presentation(params, 2)


def poincare_polynomial(pres: CohomologyPresentation) -> list[int]:
    """Coefficient list of the Poincare polynomial (index = degree).

    (1 + t^2 + ... + t^{2(order-1)}) * prod_g (1 + t^{deg g}), by
    Kronecker substitution: coefficient i sits in the i-th byte field of
    one int, so each factor (1 + t^d) is one shift and one add. The
    coefficient of t^s counts the pairs (e, S) with S a set of exterior
    factors and 2e + sum(S) = s; each S allows at most one e, so no
    coefficient, and no partial product's, exceeds 2^len(degrees) (degree-0
    factors included), and fields of len(degrees) + 1 bits rounded up to
    bytes never carry. A field of at most 8 bytes is copied into its own
    64-bit lane (one strided slice assignment per byte of the field) and
    the lanes are read as one native array; a wider field is read whole
    by int.from_bytes. Neither path runs Python bytecode per coefficient.
    """
    order, degrees = pres.nilpotency_order, pres.exterior_degrees
    count = max(2 * (order - 1) + sum(degrees) + 1, 0)
    width = (len(degrees) + 8) // 8
    packed = int.from_bytes((b"\x01" + bytes(2 * width - 1)) * order, "little")
    for d in degrees:
        packed += packed << (8 * d * width)
    raw = packed.to_bytes(count * width, "little")
    del packed
    if width > 8:
        return list(map(int.from_bytes,
                        map(itemgetter(0), iter_unpack(f"{width}s", raw)),
                        repeat("little")))
    buf = bytearray(count * 8)
    for j in range(width):
        buf[j::8] = raw[j::width]
    del raw
    words = array("Q", buf)
    del buf
    if sys.byteorder == "big":
        words.byteswap()
    return words.tolist()


def check_presentation_invariants(
        pres: CohomologyPresentation,
        params: StiefelParams) -> PresentationCheck:
    """Verify top degree, total rank and palindromicity of the presentation."""
    poly = poincare_polynomial(pres)
    top = len(poly) - 1
    return PresentationCheck(
        top_degree=top,
        expected_top_degree=params.dimension,
        total_rank=sum(poly),
        expected_rank=pres.nilpotency_order * 2 ** (params.k - 1),
        palindromic=poly == poly[::-1],
        poincare=poly,
    )
