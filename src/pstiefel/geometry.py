"""Pontrjagin series, span and immersion certificates, rank bounds.

For a two-frame circle quotient of dimension 4n - 5 with weights
(l1, l2), the tangent bundle's Pontrjagin series (in a degree-2 class x,
so index 2i is the i-th Pontrjagin coefficient) is

    p(tau) = (1 - l1^2 x^2)^n (1 - l2^2 x^2)^n (1 - (l2 - l1)^2 x^2)^{-1}

up to 2-torsion, and the stable normal series p(nu) is its inverse. Mod
an odd prime 2-torsion dies, so a nonzero mod-p coefficient at an
admissible power of x is an honest nonvanishing integral class:

  * p_i(tau) != 0 forces span <= (4n - 5) - 2i;
  * p_j(nu) != 0 forces any immersion codimension to be >= 2j, ruling
    out immersions into euclidean space of dimension 4n - 6 + 2j.

Admissible means x^{2i} survives in mod-p cohomology, i.e. 2i is below
the nilpotency order, n - 1 or n. For even n both orders admit exactly
i <= n/2 - 1, so a certificate asks for the order only at odd n, where
it decides whether i = (n - 1)/2 is admissible (order n, which holds
when p divides h_{n-1}). Reduction mod p is a ring map, so one
exact series over Z at truncation n serves every prime: a certificate
reduces its coefficients mod p, and one prime, a prime sweep and a claim
check build it by the same call, a sweep or check once for all of its
primes. No closed-form shortcut is ever used, which is the point: the
closed-form claims are checked against these computations and the
verdict (AGREE or DISCREPANT) is reported as data. With
F = (1 - l1^2 x^2)(1 - l2^2 x^2) and D = 1 - (l2 - l1)^2 x^2 the tangent
series is F^n D^{-1}, one power divided by D in one triangular solve
(D.inv(F^n)), and the normal one F^{-n} D, one power times D. Both are
series in y = x^2, so they are built in y at truncation ceil(T/2), half
the steps of a build in x, and spread onto the even powers of x of a
series truncated at T; caps and refusals read T itself. A series,
complement or lens report or prime sweep past its cap in pstiefel.costs
is refused before any work.
Independent routes to these coefficients live outside the engine: the
tests' dense repeated-squaring and schoolbook oracles and ``math.comb``
expansion, and the benchmark's oracle.

The complement-rank reports answer a related stable question over
complex projective spaces and lens spaces: how small can a complement
of a weighted line bundle sum be, with nonvanishing Chern coefficients
or homogeneous sums as the obstruction witnesses.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import attrgetter

from .cohomology import InvariantViolation, StiefelParams, nilpotency_order
from . import costs
from .costs import MAX_PRIME_BOUND
from .ring import p_adic_valuation, primes_upto, require_prime
from .series import TruncatedSeries
from .weights import WeightTuple, homogeneous_sum, homogeneous_top

CERTIFICATE_BASIS = "direct-series"

AGREE = "AGREE"
DISCREPANT = "DISCREPANT"
NOT_APPLICABLE = "NOT_APPLICABLE"


def _require_two_frames(ell: WeightTuple, n: int) -> None:
    if len(ell) != 2:
        raise ValueError(
            f"Pontrjagin computations need exactly two weights, got {len(ell)}")
    if n < 2:
        raise ValueError(f"need n >= 2 for two frames, got {n}")


def _pontrjagin(n: int, ell: WeightTuple, modulus: int,
                truncation: int | None, sign: int) -> TruncatedSeries:
    """The tangent series for sign 1, its inverse (the normal one) for -1:
    F^n divided by D in one triangular solve, or F^-n times D, built in
    y = x^2 and spread onto the even powers of x."""
    _require_two_frames(ell, n)
    T = n if truncation is None else truncation
    costs.require_small_series(n, ell, T)
    l1, l2 = ell
    # x^0, x^2, ... below x^T are the ceil(T/2) powers of y below y^half;
    # a T below 1 is kept, so that its refusal names the caller's T
    half = (T + 1) // 2 if T > 0 else T
    # (1 - l1^2 y)(1 - l2^2 y), so one power serves both frames
    frames = TruncatedSeries([1, -(l1 * l1 + l2 * l2), (l1 * l2) ** 2],
                             half, modulus)
    diff = TruncatedSeries([1, -(l2 - l1) ** 2], half, modulus)
    in_y = (diff.inv(frames.int_pow(n)) if sign > 0
            else frames.int_pow(-n).mul(diff))
    coeffs = [0] * T
    coeffs[::2] = in_y.coeffs
    return TruncatedSeries(coeffs, T, modulus)


def tangent_pontrjagin(n: int, ell: WeightTuple, modulus: int = 0,
                       truncation: int | None = None) -> TruncatedSeries:
    """Tangent Pontrjagin series, exact over Z or reduced mod m."""
    return _pontrjagin(n, ell, modulus, truncation, 1)


def normal_pontrjagin(n: int, ell: WeightTuple, modulus: int = 0,
                      truncation: int | None = None) -> TruncatedSeries:
    """Stable normal Pontrjagin series, the inverse of the tangent one."""
    return _pontrjagin(n, ell, modulus, truncation, -1)


class Certificate(namedtuple("Certificate",
                             "prime index witness bound claimed",
                             defaults=(None,))):
    """Witness p_index = witness * x^{2*index} != 0 mod prime. For span, of
    the tangent series: span <= bound. For immersion, of the normal series:
    bound is the largest euclidean dimension the vanishing rule itself
    excludes, and claimed = bound + 1 the sharper closed-form assertion
    recorded for comparison (None for span)."""

    __slots__ = ()

    def __new__(cls, prime: int, index: int, witness: int, bound: int,
                claimed: int | None = None):
        if not witness:
            raise InvariantViolation("certificate with zero witness")
        if index < 1:
            raise InvariantViolation("certificate needs index >= 1")
        if claimed is not None and claimed != bound + 1:
            raise InvariantViolation(
                "certified bound must be one below the claimed dimension")
        return tuple.__new__(cls, (prime, index, witness, bound, claimed))


def _certificate(n: int, ell: WeightTuple, p: int,
                 series: TruncatedSeries, sign: int) -> Certificate | None:
    """The certificate at the largest admissible index whose coefficient
    in series, an integer Pontrjagin series truncated at the nilpotency
    order or beyond (n - 1 or beyond for even n), is nonzero mod p: a span
    bound from the tangent series for sign 1, a non-immersion bound from
    the normal one for -1; None when every admissible coefficient
    vanishes. A non-prime p is refused by the primality test, and p = 2
    right after it. Only odd n asks for the order: for even n the orders
    n - 1 and n admit the same indices, so n - 1 stands in for both."""
    if n % 2:
        order = nilpotency_order(StiefelParams(n, 2, ell), p)
    else:
        require_prime(p)
        order = n - 1
    if p == 2:
        raise ValueError(
            "certificates use odd primes only; the Pontrjagin series "
            "identity holds up to 2-torsion, which mod 2 proves nothing")
    coeffs = series.coeffs
    if series.modulus or len(coeffs) < order:
        raise ValueError(
            f"need an integer series truncated at {order} or beyond, got "
            f"truncation {len(coeffs)} modulo {series.modulus}")
    for i in range((order - 1) // 2, 0, -1):
        w = coeffs[2 * i] % p
        if w:
            if sign > 0:
                return Certificate(p, i, w, (4 * n - 5) - 2 * i)
            return Certificate(p, i, w, (4 * n - 6) + 2 * i,
                               (4 * n - 5) + 2 * i)
    return None


# The engine functions are passed by global name at each call, so that
# rebinding a module name (tracing, monkeypatching) reaches them.

def span_certificate(n: int, ell: WeightTuple, p: int,
                     series: TruncatedSeries | None = None
                     ) -> Certificate | None:
    """Best direct span bound mod p, from the integer tangent series
    (tangent_pontrjagin(n, ell), built here unless given)."""
    if series is None:
        series = tangent_pontrjagin(n, ell, truncation=n)
    return _certificate(n, ell, p, series, 1)


def immersion_certificate(n: int, ell: WeightTuple, p: int,
                          series: TruncatedSeries | None = None
                          ) -> Certificate | None:
    """Best direct non-immersion bound mod p, from the integer normal
    series (normal_pontrjagin(n, ell), built here unless given)."""
    if series is None:
        series = normal_pontrjagin(n, ell, truncation=n)
    return _certificate(n, ell, p, series, -1)


class Sweep(namedtuple("Sweep", "n ell prime_bound certificates best")):
    """All certificates for odd primes up to a bound (a tuple), plus the
    best one, or None."""

    __slots__ = ()


def _sweep(n: int, ell: WeightTuple, prime_bound: int, certificate,
           pontrjagin, pick) -> Sweep:
    """certificate(n, ell, p, series) for every odd prime p <= prime_bound,
    all reading the one integer series pontrjagin(n, ell), built first, so
    its frame and cap checks refuse before the prime bound's; the best is
    pick(certs, key=bound), min or max."""
    # the nilpotency order of a two-frame quotient is n - 1 or n, so
    # truncation n serves every prime
    series = pontrjagin(n, ell, truncation=n)
    if not 0 <= prime_bound <= MAX_PRIME_BOUND:
        raise ValueError(
            f"prime bound must be in [0, {MAX_PRIME_BOUND}], "
            f"got {prime_bound}")
    primes = [p for p in primes_upto(prime_bound) if p != 2]
    certs = [cert for p in primes
             if (cert := certificate(n, ell, p, series)) is not None]
    # ties go to the smallest prime: primes ascend, min and max keep the first
    best = pick(certs, key=attrgetter("bound"), default=None)
    return Sweep(n, ell, prime_bound, tuple(certs), best)


def best_span_bound(n: int, ell: WeightTuple, prime_bound: int) -> Sweep:
    """Sweep odd primes <= prime_bound; best = smallest span bound,
    ties going to the smallest prime."""
    return _sweep(n, ell, prime_bound, span_certificate, tangent_pontrjagin,
                  min)


def best_immersion_bound(n: int, ell: WeightTuple,
                         prime_bound: int) -> Sweep:
    """Sweep odd primes <= prime_bound; best = largest certified dimension,
    ties going to the smallest prime."""
    return _sweep(n, ell, prime_bound, immersion_certificate,
                  normal_pontrjagin, max)


class ClaimInstance(namedtuple(
        "ClaimInstance", "prime part hypotheses index coefficient "
        "claimed verdict notes", defaults=((),))):
    """One closed-form claim instance checked against direct computation.

    hypotheses is a tuple of (name, holds) pairs and notes a tuple of
    strings; index, coefficient and claimed are None when a hypothesis
    fails."""

    __slots__ = ()


class ClaimCheck(namedtuple("ClaimCheck", "kind n ell instances")):
    """All instances of one closed-form claim for a given quotient: kind
    "span" or "immersion", and a tuple of ClaimInstance."""

    __slots__ = ()

    @property
    def vacuous(self) -> bool:
        return not self.instances

    @property
    def verdicts(self) -> tuple[str, ...]:
        return tuple(inst.verdict for inst in self.instances)


def _require_claim_input(ell: WeightTuple, n: int) -> None:
    """Every qualifying prime divides n or n - 1, so n <= MAX_PRIME_BOUND
    keeps each one within a sweep's bound, and trial division short."""
    _require_two_frames(ell, n)
    costs.require_at_most("claim checks need n", n, MAX_PRIME_BOUND)


def _odd_prime_divisors(n: int) -> list[int]:
    if n == 0:
        raise ValueError("0 has no finite list of prime divisors")
    n = abs(n)
    out = []
    d = 3
    while n % 2 == 0:
        n //= 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 2
    if n > 2:
        out.append(n)
    return out


def _claim(p, part, hypotheses, series, index, claimed, notes=()):
    """The verdict rule of every claim instance: NOT_APPLICABLE, with
    nothing computed, when index is None (a hypothesis fails); else AGREE
    when the integer series' coefficient of x^{2*index} is nonzero mod p,
    DISCREPANT when not. The checkers' hypotheses make every index
    admissible."""
    if index is None:
        return ClaimInstance(p, part, hypotheses, None, None, None,
                             NOT_APPLICABLE)
    coefficient = series.coeff(2 * index) % p
    verdict = AGREE if coefficient else DISCREPANT
    return ClaimInstance(p, part, hypotheses, index, coefficient, claimed,
                         verdict, notes)


def check_span_theorem(n: int, ell: WeightTuple) -> ClaimCheck:
    """Check the closed-form span bounds against the direct series.

    Qualifying primes are the odd p dividing n but not l2 - l1. Part 1
    claims span <= 4n - 5 - 2*floor((n-2)/2) through the tangent
    coefficient at index floor((n-2)/2); part 2 (n odd, p dividing
    l1^n - l2^n) claims span <= 3n - 4 through index (n-1)/2. A verdict
    of DISCREPANT means the hypotheses hold but the direct coefficient
    vanishes, so the closed-form argument's witness is absent; it is
    reported as data, not an error. Every qualifying prime reads one
    integer tangent series at truncation n, which holds both indices.
    No nilpotency order is asked for: the order is n - 1 or n, so part
    1's 2*i1 <= n - 2 is below it, and part 2's hypotheses make it n
    (p divides l1^n - l2^n = (l1 - l2) h_{n-1} but not l1 - l2, so it
    divides h_{n-1}), above 2*i2 = n - 1.
    """
    _require_claim_input(ell, n)
    l1, l2 = ell
    gap = l2 - l1
    i1 = (n - 2) // 2
    i2 = (n - 1) // 2
    notes1 = ()
    if i1 == 0:
        notes1 = ("index 0 is vacuous: the claimed bound equals the "
                  "manifold dimension",)
    primes = [p for p in _odd_prime_divisors(n) if gap % p]
    series = tangent_pontrjagin(n, ell, truncation=n) if primes else None
    hyps1 = (("p divides n", True), ("p does not divide l2 - l1", True))
    instances = []
    for p in primes:
        pow_gap = pow(l1, n, p) == pow(l2, n, p)
        hyps2 = hyps1 + (("n odd", n % 2 == 1),
                         ("p divides l1^n - l2^n", pow_gap))
        instances += [
            _claim(p, 1, hyps1, series, i1, (4 * n - 5) - 2 * i1, notes1),
            _claim(p, 2, hyps2, series,
                   i2 if n % 2 == 1 and pow_gap else None, 3 * n - 4),
        ]
    return ClaimCheck("span", n, ell, tuple(instances))


def check_immersion_theorem(n: int, ell: WeightTuple) -> ClaimCheck:
    """Check the closed-form non-immersion claim against the direct series.

    Qualifying primes are the odd divisors of gcd(n - 1, l2 - l1). The
    claim puts the quotient outside euclidean space of dimension
    4n - 5 + 2*floor((n-3)/2) through the normal coefficient at index
    floor((n-3)/2); the direct vanishing rule certifies one dimension
    less, recorded alongside. Every qualifying prime reads one integer
    normal series at truncation n. No nilpotency order is asked for:
    2*j <= n - 3 is below either order, n - 1 or n.
    """
    _require_claim_input(ell, n)
    l1, l2 = ell
    # n = 2 has no qualifying prime, so j >= 0 below
    j = (n - 3) // 2
    notes = ()
    if j == 0:
        notes = ("index 0 is vacuous: the constant coefficient is 1",)
    primes = _odd_prime_divisors(math.gcd(n - 1, l2 - l1))
    series = normal_pontrjagin(n, ell, truncation=n) if primes else None
    hyps = (("p divides n - 1", True), ("p divides l2 - l1", True))
    instances = [
        _claim(p, 1, hyps, series, j, (4 * n - 5) + 2 * j, notes)
        for p in primes]
    return ClaimCheck("immersion", n, ell, tuple(instances))


class RankBoundReport(namedtuple(
        "RankBoundReport", "space lower_bound achievable reason_kind "
        "reason_index reason_value notes criterion",
        defaults=(None, None, (), None))):
    """Lower bound (with witness) and achievable rank of a complement.

    reason_kind is "chern-nonzero", "homogeneous-sum-mod-m" or "none";
    criterion, a CriterionResult, is given for lens spaces only."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.lower_bound > self.achievable:
            raise InvariantViolation(
                f"lower bound {self.lower_bound} exceeds achievable "
                f"rank {self.achievable}")
        return self


def cp_complement_min_rank(n: int, ell: WeightTuple) -> RankBoundReport:
    """Minimal rank of a complement of the weighted line bundle sum
    over complex projective n-space.

    The complement's r-th Chern coefficient is (-1)^r h_r, so the
    largest surviving r <= n forces rank >= r; a complement of rank n
    always exists, and rank n - 1 is achievable exactly when h_n = 0.
    Only h_{n-j+1}..h_n (j nonzero weights) are read: prod_j l_j != 0, so
    j vanishing sums past h_0 would, run backwards, force h_0 = 0.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    costs.require_small_sums("complement", ell, n)
    top = homogeneous_top(ell, n)
    first = n + 1 - len(top)
    lower = max([r for r, h in enumerate(top, first) if h and r], default=0)
    if not lower and first > 0:
        raise InvariantViolation(f"h_{first}..h_{n} of {ell} all vanish")
    achievable, notes = n, ()
    if top[-1] == 0:
        achievable, notes = n - 1, (
            f"top complement coefficient vanishes, so a rank {n - 1} "
            "complement exists",)
    if lower == 0:
        return RankBoundReport(f"CP^{n}", 0, achievable, "none", notes=notes)
    return RankBoundReport(
        f"CP^{n}", lower, achievable, "chern-nonzero", reason_index=lower,
        reason_value=(-1) ** lower * top[lower - first], notes=notes)


class LensParams(namedtuple("LensParams", "d m l1 l2")):
    """A lens space quotient instance: join dimension d, order m, weights."""

    __slots__ = ()

    def __new__(cls, d: int, m: int, l1: int, l2: int):
        if d < 1:
            raise ValueError(f"need d >= 1, got {d}")
        if m < 2:
            raise ValueError(f"need m >= 2, got {m}")
        if math.gcd(l1, l2) != 1:
            raise ValueError(f"weights ({l1}, {l2}) must be coprime")
        costs.require_small_sums("lens", (l1, l2), d)
        return tuple.__new__(cls, (d, m, l1, l2))


class CriterionResult(namedtuple(
        "CriterionResult", "satisfied hypotheses value diagnostic",
        defaults=(None,))):
    """Outcome of the mod-2 secondary criterion with hypothesis breakdown:
    hypotheses is a tuple of (name, holds) pairs, diagnostic a string or
    None."""

    __slots__ = ()


def lens_sq2_criterion(params: LensParams) -> CriterionResult:
    """Secondary (Steenrod square) criterion for a full-rank complement.

    Requires all of: d even, m even, m divides h_d(l1, l2), and equal
    2-adic valuations of m and h_d. It never holds. For odd d the first
    hypothesis fails. For even d, h_d = sum of l1^i l2^(d-i) over
    0 <= i <= d is odd: coprime weights are not both even, so with one
    even weight exactly one term is odd, and with both odd all d + 1
    terms are. Then 'm even' and 'm divides h_d' cannot hold together;
    the diagnostic records that whenever d is even. It names h_d's
    parity, not its digits, which only value carries.
    """
    d, m = params.d, params.m
    value = homogeneous_sum(WeightTuple((params.l1, params.l2)), d)
    # h_d = 0 has no finite valuation, so it matches no even m
    valuations_match = (value != 0 and m % 2 == 0 and
                        p_adic_valuation(2, m) == p_adic_valuation(2, value))
    hyps = (
        ("d even", d % 2 == 0),
        ("m even", m % 2 == 0),
        ("m divides h_d", value % m == 0),
        ("2-adic valuations of m and h_d match", valuations_match),
    )
    satisfied = all(v for _, v in hyps)
    diagnostic = None
    if d % 2 == 0:
        diagnostic = (
            f"h_{d}({params.l1},{params.l2}) is odd for coprime "
            "weights and even d, so 'm even' and 'm divides h_d' cannot "
            "hold together")
    return CriterionResult(satisfied, hyps, value, diagnostic)


def lens_rank_bound(params: LensParams) -> RankBoundReport:
    """Complement rank bound over the lens space quotient.

    Rank d is always achievable, and it is forced when h_d(l1, l2) is
    nonzero mod m; otherwise only d - 1 is forced, since the secondary
    criterion that would force d never holds (see lens_sq2_criterion).
    The report carries that criterion, and its diagnostic as a note.
    """
    crit = lens_sq2_criterion(params)
    d, residue = params.d, crit.value % params.m
    space = f"L^{d}({params.m})"
    notes = (crit.diagnostic,) if crit.diagnostic else ()
    if residue:
        return RankBoundReport(space, d, d, "homogeneous-sum-mod-m", d,
                               residue, notes, crit)
    return RankBoundReport(space, d - 1, d, "none", notes=notes,
                           criterion=crit)
