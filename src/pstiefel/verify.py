"""Self-verification suites: engine results against independent oracles.

Five suites, each an exhaustive grid or a fixed-seed randomized loop:

  1. homogeneous sums against brute-force multiset enumeration;
  2. series inversion (a * a^{-1} = 1) on pseudo-random unit series;
  3. nilpotency orders for all-ones weights against the base-p digit
     rule for binomials (Lucas);
  4. presentation invariants (top degree, rank, palindromicity);
  5. tangent-times-normal Pontrjagin series equal to 1 over Z.

The full grids match the package's acceptance suite; quick mode shrinks
them for a fast smoke run.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple

from . import cohomology, geometry, weights
from .ring import lucas_binom
from .series import TruncatedSeries
from .weights import WeightTuple

SEED = 20240817


class SuiteResult(namedtuple("SuiteResult", "name checked failures")):
    """A suite's name, its number of checks and a list of its first
    failure messages (at most three)."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def _suite(name: str):
    """Decorator: the generator function it wraps yields None for each
    passing check and a message for each failing one; the suite made from
    it counts the checks and keeps the first three messages."""
    def decorate(checks):
        def suite(quick: bool = False) -> SuiteResult:
            outcomes = list(checks(quick))
            failures = [m for m in outcomes if m is not None][:3]
            return SuiteResult(name, len(outcomes), failures)
        suite.__name__ = suite.__qualname__ = checks.__name__
        return suite
    return decorate


def _primitive_tuples(k: int, bound: int):
    """All primitive weight tuples of length k with entries in [-bound, bound]."""
    return (WeightTuple(raw)
            for raw in itertools.product(range(-bound, bound + 1), repeat=k)
            if math.gcd(*raw) == 1)


@_suite("homogeneous-sums-vs-bruteforce")
def suite_homogeneous_sums(quick):
    max_k, bound, max_r = (3, 2, 6) if quick else (4, 3, 8)
    for k in range(1, max_k + 1):
        for ell in _primitive_tuples(k, bound):
            for r in range(max_r + 1):
                got = weights.homogeneous_sum(ell, r)
                want = weights.homogeneous_sum_bruteforce(ell, r)
                yield None if got == want else (
                    f"h_{r}{ell.weights} = {got}, oracle says {want}")


@_suite("series-inversion")
def suite_series_inversion(quick):
    rng = random.Random(SEED)
    moduli = [0, 3, 5, 7]
    for trial in range(200 if quick else 1000):
        m = moduli[trial % len(moduli)]
        T = rng.randint(1, 32)
        if m == 0:
            coeffs = [rng.choice([1, -1])]
            coeffs += [rng.randint(-9, 9) for _ in range(T - 1)]
        else:
            coeffs = [rng.randint(1, m - 1)]
            coeffs += [rng.randint(0, m - 1) for _ in range(T - 1)]
        a = TruncatedSeries(coeffs, T, m)
        yield None if a.mul(a.inv()).is_one() else (
            f"a * inv(a) != 1 for {a!r}")


@_suite("nilpotency-vs-lucas")
def suite_nilpotency_vs_lucas(quick):
    max_n = 12 if quick else 30
    for n in range(2, max_n + 1):
        for k in range(2, min(5, n) + 1):
            ell = WeightTuple((1,) * k)
            params = cohomology.StiefelParams(n, k, ell)
            for p in (3, 5, 7, 11):
                got = cohomology.nilpotency_order(params, p)
                want = next(
                    r for r in range(n - k + 1, n + 1)
                    if lucas_binom(n, r, p))
                yield None if got == want else (
                    f"order(n={n}, k={k}, p={p}) = {got}, "
                    f"digit rule says {want}")


PRESENTATION_TUPLES = {
    2: [(1, 2), (1, -1), (2, 3)],
    3: [(1, 1, 2), (1, -1, 3)],
    4: [(1, 2, 3, 4), (1, -1, 1, 3)],
    5: [(1, 1, 1, 1, 2), (1, 2, 3, 4, 5)],
}

MOD2_TUPLES = [(1, 1), (1, 2), (1, -1), (2, 3)]


@_suite("presentation-invariants")
def suite_presentation_invariants(quick):
    max_n = 10 if quick else 20
    for n in range(2, max_n + 1):
        for k in range(2, min(5, n) + 1):
            for raw in [(1,) * k] + PRESENTATION_TUPLES[k]:
                params = cohomology.StiefelParams(n, k, WeightTuple(raw))
                for p in (3, 5, 7, 11, 13):
                    pres = cohomology.presentation_odd(params, p)
                    report = cohomology.check_presentation_invariants(
                        pres, params)
                    yield None if report.passed else (
                        f"odd p={p} n={n} k={k} ell={raw}: {report}")
    for n in range(2, max_n + 1):
        for raw in MOD2_TUPLES:
            ell = WeightTuple(raw)
            params = cohomology.StiefelParams(n, 2, ell)
            pres = cohomology.presentation_mod2(params)
            report = cohomology.check_presentation_invariants(pres, params)
            yield None if report.passed else f"mod2 n={n} ell={raw}: {report}"
            # h_{n-1} even leaves x^n, odd truncates at x^{n-1}
            order = n - weights.homogeneous_sum(ell, n - 1) % 2
            yield None if pres.nilpotency_order == order else (
                f"mod2 n={n} ell={raw}: exponent {pres.nilpotency_order} "
                f"but h_(n-1) parity gives {order}")


@_suite("pontrjagin-product")
def suite_pontrjagin_product(quick):
    max_n, bound = (8, 3) if quick else (20, 5)
    for n in range(2, max_n + 1):
        for ell in _primitive_tuples(2, bound):
            t = geometry.tangent_pontrjagin(n, ell, truncation=2 * n)
            v = geometry.normal_pontrjagin(n, ell, truncation=2 * n)
            yield None if t.mul(v).is_one() else (
                f"tangent*normal != 1 for n={n}, ell={ell.weights}")


def run_all(quick: bool = False) -> list[SuiteResult]:
    return [
        suite_homogeneous_sums(quick),
        suite_series_inversion(quick),
        suite_nilpotency_vs_lucas(quick),
        suite_presentation_invariants(quick),
        suite_pontrjagin_product(quick),
    ]
