"""One exact integer Pontrjagin series, reduced per prime.

Certificates, sweeps and claim checks read the integer series and
reduce its coefficients mod p. The oracle here builds the series mod p
directly, by repeated squaring and dense schoolbook products (the
oracles of ``test_series``, not the engine's power recurrence), and
scans it; both routes must give the same answers.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pstiefel.geometry as geometry
from pstiefel.cohomology import StiefelParams, nilpotency_order
from pstiefel.geometry import (AGREE, DISCREPANT, NOT_APPLICABLE,
                               best_immersion_bound, best_span_bound,
                               check_immersion_theorem, check_span_theorem,
                               immersion_certificate, normal_pontrjagin,
                               span_certificate, tangent_pontrjagin)
from pstiefel.ring import primes_upto
from pstiefel.series import TruncatedSeries
from pstiefel.weights import WeightTuple
from test_series import power_by_squaring, schoolbook_mul

KINDS = {
    "span": (tangent_pontrjagin, span_certificate, best_span_bound,
             check_span_theorem),
    "immersion": (normal_pontrjagin, immersion_certificate,
                  best_immersion_bound, check_immersion_theorem),
}

# Primitive pairs with |l| <= 6, one per class under swapping and a global
# sign change, which fix the series and the nilpotency order.
PAIRS = sorted({min((a, b), (b, a), (-a, -b), (-b, -a))
                for a in range(-6, 7) for b in range(-6, 7)
                if math.gcd(a, b) == 1})


def odd_primes(bound):
    return [p for p in primes_upto(bound) if p != 2]


def dense_pontrjagin(kind, n, ell, p, truncation):
    """The tangent or normal series mod p, built densely: the frame factor
    (1 - l1^2 x^2)(1 - l2^2 x^2) to the power +-n times the difference
    factor 1 - (l2 - l1)^2 x^2 to the power -+1."""
    l1, l2 = ell.weights
    sign = 1 if kind == "span" else -1
    frames = TruncatedSeries([1, 0, -(l1 * l1 + l2 * l2), 0, (l1 * l2) ** 2],
                             truncation, p)
    diff = TruncatedSeries([1, 0, -(l2 - l1) ** 2], truncation, p)
    return schoolbook_mul(power_by_squaring(frames, sign * n),
                          power_by_squaring(diff, -sign))


def oracle_scan(kind, n, ell, p):
    """(index, witness) at the largest admissible index whose coefficient
    of the dense mod-p series is nonzero, or None."""
    order = nilpotency_order(StiefelParams(n, 2, ell), p)
    if order < 3:
        return None
    series = dense_pontrjagin(kind, n, ell, p, order)
    for i in range((order - 1) // 2, 0, -1):
        if series.coeff(2 * i):
            return i, series.coeff(2 * i)
    return None


def scanned(cert):
    return None if cert is None else (cert.index, cert.witness)


def grid():
    # every n in 2..40 with one pair class per kind; the classes rotate
    # so each one meets every kind, at more than one size for most
    for n in range(2, 41):
        for k, kind in enumerate(KINDS):
            yield kind, n, PAIRS[(3 * n + 7 * k) % len(PAIRS)]


class TestAgainstDenseOracle:
    def test_sweeps_and_single_primes(self):
        for kind, n, ws in grid():
            _, certificate, sweep, _ = KINDS[kind]
            ell = WeightTuple(ws)
            result = sweep(n, ell, 4 * n)
            by_prime = {c.prime: scanned(c) for c in result.certificates}
            for p in odd_primes(4 * n):
                want = oracle_scan(kind, n, ell, p)
                assert by_prime.get(p) == want, (kind, n, ws, p)
                assert scanned(certificate(n, ell, p)) == want, (
                    kind, n, ws, p)

    @pytest.mark.parametrize("kind", KINDS)
    def test_claim_coefficients(self, kind):
        check = KINDS[kind][3]
        checked = 0
        for n in range(2, 41):
            for ws in PAIRS:
                ell = WeightTuple(ws)
                for inst in check(n, ell):
                    computed = (inst.index, inst.coefficient, inst.claimed)
                    assert (inst.verdict == NOT_APPLICABLE) == all(
                        v is None for v in computed)
                    if inst.verdict == NOT_APPLICABLE:
                        continue
                    order = nilpotency_order(StiefelParams(n, 2, ell),
                                             inst.prime)
                    series = dense_pontrjagin(
                        kind, n, ell, inst.prime,
                        max(order, 2 * inst.index + 1))
                    assert inst.coefficient == series.coeff(2 * inst.index)
                    assert 2 * inst.index <= order - 1
                    assert inst.verdict == (
                        AGREE if inst.coefficient else DISCREPANT)
                    checked += 1
        assert checked > 100


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 60), ws=st.sampled_from(PAIRS),
       kind=st.sampled_from(sorted(KINDS)), pick=st.integers(0, 10 ** 6))
def test_every_route_matches_the_oracle(n, ws, kind, pick):
    pontrjagin, certificate, sweep, _ = KINDS[kind]
    ell = WeightTuple(ws)
    primes = odd_primes(4 * n)
    p = primes[pick % len(primes)]
    want = oracle_scan(kind, n, ell, p)
    assert scanned(certificate(n, ell, p)) == want
    longer = pontrjagin(n, ell, truncation=n + 3)
    assert scanned(certificate(n, ell, p, longer)) == want
    swept = sweep(n, ell, 4 * n).certificates
    assert {c.prime: scanned(c) for c in swept}.get(p) == want


class TestSeriesArgument:
    @pytest.mark.parametrize("kind", KINDS)
    def test_rejects_a_reduced_series(self, kind):
        pontrjagin, certificate, _, _ = KINDS[kind]
        ell = WeightTuple((1, 2))
        with pytest.raises(ValueError, match="integer series"):
            certificate(7, ell, 7, pontrjagin(7, ell, modulus=7))

    @pytest.mark.parametrize("kind", KINDS)
    def test_rejects_a_series_below_the_order(self, kind):
        pontrjagin, certificate, _, _ = KINDS[kind]
        ell = WeightTuple((1, 2))
        order = nilpotency_order(StiefelParams(7, 2, ell), 7)
        with pytest.raises(ValueError,
                           match=f"truncated at {order} or beyond"):
            certificate(7, ell, 7, pontrjagin(7, ell, truncation=order - 1))
        assert certificate(7, ell, 7, pontrjagin(7, ell, truncation=order))

    @pytest.mark.parametrize("kind", KINDS)
    def test_even_n_reads_below_x_to_the_n_minus_1(self, kind):
        # 5 divides h_7 = 2^8 - 1, so the order is 8, yet the scan reads
        # no power above x^6: truncation 7 is enough, and 6 is refused
        pontrjagin, certificate, _, _ = KINDS[kind]
        ell = WeightTuple((1, 2))
        assert nilpotency_order(StiefelParams(8, 2, ell), 5) == 8
        with pytest.raises(ValueError, match="truncated at 7 or beyond"):
            certificate(8, ell, 5, pontrjagin(8, ell, truncation=6))
        assert (certificate(8, ell, 5, pontrjagin(8, ell, truncation=7))
                == certificate(8, ell, 5))


class TestOneBuildPerCall:
    """Each sweep or claim check builds the integer series itself, once."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        for name in ("tangent_pontrjagin", "normal_pontrjagin"):
            def counted(*args, _build=getattr(geometry, name), **kwargs):
                calls.append(kwargs)
                return _build(*args, **kwargs)
            monkeypatch.setattr(geometry, name, counted)
        return calls

    @pytest.mark.parametrize("sweep", [best_span_bound, best_immersion_bound])
    def test_a_sweep_builds_once_whatever_the_bound(self, builds, sweep):
        ell = WeightTuple((1, 2))
        for bound in (3, 40, 200):
            builds.clear()
            assert sweep(20, ell, bound).certificates
            assert builds == [{"truncation": 20}]

    @pytest.mark.parametrize("sweep", [best_span_bound, best_immersion_bound])
    def test_no_odd_prime_still_builds_once(self, builds, sweep):
        # the build runs the series cap, which refuses ahead of the bound
        assert sweep(20, WeightTuple((1, 2)), 2).certificates == ()
        assert builds == [{"truncation": 20}]

    def test_identical_sweeps_build_twice(self, builds):
        first = best_span_bound(20, WeightTuple((1, 2)), 80)
        assert best_span_bound(20, WeightTuple((1, 2)), 80) == first
        assert len(builds) == 2

    @pytest.mark.parametrize("check,n,ws,primes", [
        (check_span_theorem, 21, (2, 1), 2),
        (check_span_theorem, 5, (1, 6), 0),
        (check_immersion_theorem, 31, (1, 31), 2),
        (check_immersion_theorem, 4, (1, 2), 0),
    ])
    def test_a_claim_check_builds_at_most_once(self, builds, check, n, ws,
                                               primes):
        result = check(n, WeightTuple(ws))
        assert len({inst.prime for inst in result}) == primes
        assert len(builds) == min(primes, 1)


class TestSeriesKernelCalls:
    """Each Pontrjagin series is one power of the frame factor, divided by
    the difference factor in one solve (tangent) or multiplied by it
    (normal), and a power makes no product."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"int_pow": 0, "mul": 0, "inv": 0}
        for name in counts:
            def counted(*args, _name=name,
                        _method=getattr(TruncatedSeries, name)):
                counts[_name] += 1
                return _method(*args)
            monkeypatch.setattr(TruncatedSeries, name, counted)
        return counts

    @pytest.mark.parametrize("kind,inv", [("span", 1), ("immersion", 0)])
    @pytest.mark.parametrize("n,ws,modulus", [(7, (1, 2), 0), (40, (1, 8), 0),
                                              (101, (-3, 5), 7)])
    def test_one_power_and_one_product(self, calls, kind, inv, n, ws,
                                       modulus):
        KINDS[kind][0](n, WeightTuple(ws), modulus=modulus)
        assert calls == {"int_pow": 1, "mul": 1 - inv, "inv": inv}

    @pytest.mark.parametrize("e", [-200, -7, 1, 2, 5, 64, 200])
    def test_a_power_makes_no_product(self, calls, e):
        frames = TruncatedSeries([1, 0, -5, 0, 4], 100)
        frames.int_pow(e)
        assert calls == {"int_pow": 1, "mul": 0, "inv": 0}


class TestClaimCheckerInput:
    @pytest.mark.parametrize("check", [check_span_theorem,
                                       check_immersion_theorem])
    @pytest.mark.parametrize("n,ws", [(0, (1, 2)), (1, (1, 1)), (1, (1, 2)),
                                      (-3, (1, 2))])
    def test_rejects_n_below_two(self, check, n, ws):
        with pytest.raises(ValueError, match="n >= 2"):
            check(n, WeightTuple(ws))

    def test_odd_prime_divisors_rejects_zero(self):
        with pytest.raises(ValueError, match="0 has no"):
            geometry._odd_prime_divisors(0)
        assert geometry._odd_prime_divisors(-90) == [3, 5]


def binomial_pontrjagin(kind, n, ell, truncation):
    """The series from math.comb alone: with y = x^2, a = l1^2, b = l2^2 and
    c = (l2 - l1)^2, the tangent series is (1-ay)^n (1-by)^n / (1-cy) and
    the normal one (1-ay)^-n (1-by)^-n (1-cy)."""
    def power(w, e, size):
        # (1 - w*y)^e as a coefficient list in y, for any integer e
        if e >= 0:
            return [math.comb(e, j) * (-w) ** j for j in range(size)]
        return [math.comb(-e + j - 1, j) * w ** j for j in range(size)]

    size = (truncation + 1) // 2
    l1, l2 = ell.weights
    sign = 1 if kind == "span" else -1
    f, g = power(l1 * l1, sign * n, size), power(l2 * l2, sign * n, size)
    out = [sum(f[i] * g[j - i] for i in range(j + 1)) for j in range(size)]
    c = (l2 - l1) ** 2
    for j in (range(1, size) if sign == 1 else range(size - 1, 0, -1)):
        # divide by (1 - c*y) ascending, or multiply by it descending
        out[j] += sign * c * out[j - 1]
    coeffs = [0] * truncation
    coeffs[::2] = out
    return coeffs


class TestAgainstBinomialExpansion:
    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_and_reduced_series(self, kind):
        pontrjagin = KINDS[kind][0]
        for n in range(2, 41):
            # four pair classes per n, rotating so each meets six sizes
            for i in range(4):
                ws = PAIRS[(4 * n + i) % len(PAIRS)]
                ell = WeightTuple(ws)
                for T in (n, 2 * n + 1):
                    want = binomial_pontrjagin(kind, n, ell, T)
                    assert list(pontrjagin(n, ell, truncation=T).coeffs) \
                        == want, (n, ws, T)
                    for p in (3, 7):
                        got = pontrjagin(n, ell, modulus=p, truncation=T)
                        assert list(got.coeffs) == [c % p for c in want], (
                            n, ws, T, p)

    def test_tangent_series_through_n_60(self):
        # the tangent's triangular solve at every n <= 60 and pair class
        for n in range(2, 61):
            for ws in PAIRS:
                ell = WeightTuple(ws)
                assert list(tangent_pontrjagin(n, ell).coeffs) == \
                    binomial_pontrjagin("span", n, ell, n), (n, ws)
