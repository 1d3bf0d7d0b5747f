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

At p = 2 with two frame vectors the answer is one of two shapes, chosen
by the parity of h_{n-1}: either x^n with an exterior class in degree
2n - 3 or x^{n-1} with an exterior class in degree 2n - 1, both imposed
as square-zero polynomial relations.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .ring import require_prime
from .weights import WeightTuple, homogeneous_sum


class InvariantViolation(RuntimeError):
    """A condition the theory guarantees failed in a computation."""


@dataclass(frozen=True)
class StiefelParams:
    """A circle quotient instance: frame count k, ambient C^n, weights."""

    n: int
    k: int
    ell: WeightTuple

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if len(self.ell) != self.k:
            raise ValueError(
                f"weight count {len(self.ell)} does not match k={self.k}")

    @property
    def dimension(self) -> int:
        return self.k * (2 * self.n - self.k) - 1


@dataclass(frozen=True)
class CohomologyPresentation:
    """Z/p[x]/(x^order) tensor an algebra on odd-degree generators.

    The degree-2 polynomial class is truncated at nilpotency_order; the
    odd generators are exterior for odd p. mod2_square_relations marks
    the p = 2 shape, where the odd generator's square is imposed as a
    polynomial relation instead.
    """

    prime: int
    nilpotency_order: int
    exterior_degrees: tuple[int, ...]
    mod2_square_relations: bool = False

    generator_degree = 2  # topological degree of the polynomial class

    def describe(self) -> str:
        gens = ", ".join(f"y[{d}]" for d in self.exterior_degrees)
        poly = f"Z/{self.prime}[x]/(x^{self.nilpotency_order})"
        if not gens:
            return poly
        if self.mod2_square_relations:
            squares = ", ".join(f"y[{d}]^2" for d in self.exterior_degrees)
            return (f"Z/{self.prime}[x, {gens}]/"
                    f"(x^{self.nilpotency_order}, {squares})")
        return f"{poly} (x) Lambda({gens})"


@dataclass(frozen=True)
class PresentationCheck:
    """Outcome of the dimension/rank/palindromicity invariants."""

    top_degree: int
    expected_top_degree: int
    total_rank: int
    expected_rank: int
    palindromic: bool
    # the coefficients checked, kept out of failure messages
    poincare: list[int] = field(repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return (self.top_degree == self.expected_top_degree
                and self.total_rank == self.expected_rank
                and self.palindromic)


def transgression_coefficient(params: StiefelParams, j: int, p: int) -> int:
    """Coefficient of x^j hit by the degree-(2j-1) sphere generator.

    Equals -(-1)^j h_j(weights) mod p, in [0, p); defined for
    n-k < j <= n.
    """
    require_prime(p)
    if not params.n - params.k < j <= params.n:
        raise ValueError(
            f"transgression index {j} outside "
            f"({params.n - params.k}, {params.n}]")
    sign = 1 if j % 2 else -1
    return sign * homogeneous_sum(params.ell, j) % p


def nilpotency_order(params: StiefelParams, p: int) -> int:
    """Smallest r in (n-k, n] with h_r(weights) nonzero mod p.

    This is the exponent killing the degree-2 class. The quotient is a
    closed manifold, so some transgression in the window must survive;
    running past r = n means an internal error, not bad input.
    """
    require_prime(p)
    for r in range(params.n - params.k + 1, params.n + 1):
        if homogeneous_sum(params.ell, r) % p != 0:
            return r
    raise InvariantViolation(
        f"no transgression found for {params} mod {p}; "
        "finite-dimensionality forces one in the window")


def presentation_odd(params: StiefelParams, p: int) -> CohomologyPresentation:
    """Mod-p presentation for odd p: truncated polynomial tensor exterior."""
    require_prime(p)
    if p == 2:
        raise ValueError(
            "p = 2 is handled by presentation_mod2 (two-frame quotients only)")
    order = nilpotency_order(params, p)
    degrees = tuple(
        2 * j - 1
        for j in range(params.n - params.k + 1, params.n + 1)
        if j != order)
    return CohomologyPresentation(p, order, degrees)


def presentation_mod2(n: int, ell: WeightTuple) -> CohomologyPresentation:
    """Mod-2 presentation of a two-frame quotient.

    h_{n-1} even gives Z/2[x, y]/(x^n, y^2) with y in degree 2n - 3;
    h_{n-1} odd gives Z/2[x, y]/(x^{n-1}, y^2) with y in degree 2n - 1.
    """
    if len(ell) != 2:
        raise ValueError(
            "mod-2 presentations are only available for two-frame quotients")
    if n < 2:
        raise ValueError(f"need n >= 2 for two frames, got {n}")
    if homogeneous_sum(ell, n - 1) % 2 == 0:
        return CohomologyPresentation(2, n, (2 * n - 3,), True)
    return CohomologyPresentation(2, n - 1, (2 * n - 1,), True)


def poincare_polynomial(pres: CohomologyPresentation) -> list[int]:
    """Coefficient list of the Poincare polynomial (index = degree).

    (1 + t^2 + ... + t^{2(order-1)}) * prod_g (1 + t^{deg g}), by
    Kronecker substitution: coefficient i sits in the i-th fixed-width
    byte field of one int, so each factor (1 + t^d) is one shift and one
    add. No coefficient exceeds the total rank order * 2^len(degrees), so
    fields of that byte length (rounded up to 1, 2, 4 or 8 when it fits
    in 8, so that a native array cast unpacks them) never carry.
    """
    order, degrees = pres.nilpotency_order, pres.exterior_degrees
    top = 2 * (order - 1) + sum(degrees)
    width = max(1, ((order << len(degrees)).bit_length() + 7) // 8)
    if width <= 8:
        code = (width - 1).bit_length()
        width = 1 << code
    bits = 8 * width
    packed = int.from_bytes((b"\x01" + bytes(2 * width - 1)) * order, "little")
    for d in degrees:
        packed += packed << (d * bits)
    raw = packed.to_bytes(max(top + 1, 0) * width, sys.byteorder)
    if width <= 8:
        out = memoryview(raw).cast("BHIQ"[code]).tolist()
    else:
        out = [int.from_bytes(raw[i:i + width], sys.byteorder)
               for i in range(0, len(raw), width)]
    if sys.byteorder == "big":
        out.reverse()  # to_bytes put the top coefficient first
    return out


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
