import math
import random

import pytest

from pstiefel.ring import (MILLER_RABIN_LIMIT, gcd_all, is_prime,
                           lucas_binom, p_adic_valuation, primes_upto)


def test_gcd_all_pinned_values():
    assert gcd_all([6, -10, 15]) == 1
    assert gcd_all([0, 0]) == 0
    assert gcd_all([7]) == 7
    with pytest.raises(ValueError):
        gcd_all([])


def test_p_adic_valuation():
    assert p_adic_valuation(2, 40) == 3
    assert p_adic_valuation(3, 7) == 0
    # sign is ignored: 250 = 2 * 5^3
    assert p_adic_valuation(5, -250) == 3
    with pytest.raises(ValueError, match="infinite"):
        p_adic_valuation(2, 0)
    with pytest.raises(ValueError):
        p_adic_valuation(1, 5)


class TestLucasBinom:
    def test_pinned_values(self):
        assert lucas_binom(10, 4, 3) == 0  # C(10,4) = 210 = 2*3*5*7
        assert lucas_binom(17, 0, 5) == 1
        assert lucas_binom(5, 4, 5) == 0

    def test_r_larger_than_n_vanishes(self):
        assert lucas_binom(4, 9, 7) == 0

    def test_requires_prime_modulus(self):
        with pytest.raises(ValueError, match="not prime"):
            lucas_binom(5, 2, 6)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            lucas_binom(-1, 0, 3)

    def test_matches_direct_binomials(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randrange(0, 400)
            r = rng.randrange(0, 400)
            p = rng.choice([2, 3, 5, 7, 11, 13])
            assert lucas_binom(n, r, p) == math.comb(n, r) % p


def test_primes_upto():
    assert primes_upto(10) == [2, 3, 5, 7]
    assert primes_upto(1) == []
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(2) == [2]


def test_is_prime_agrees_with_sieve():
    table = set(primes_upto(500))
    for n in range(-3, 501):
        assert is_prime(n) == (n in table)


def is_prime_by_trial_division(n: int) -> bool:
    """Oracle for is_prime: odd trial divisors up to the square root."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# psi_t, the least strong pseudoprime to the first t primes as bases, for
# t = 1..12 (Pomerance, Selfridge and Wagstaff 1980; Jaeschke 1993; Jiang
# and Deng 2014)
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051, 318665857834031151167461)


class TestMillerRabin:
    def test_matches_trial_division_below_1e5(self):
        for n in range(-3, 10 ** 5):
            assert is_prime(n) == is_prime_by_trial_division(n), n

    def test_large_primes_and_strong_pseudoprimes(self):
        assert is_prime(1000000000000000003)
        assert is_prime(3317044064679887384961997)
        # strong pseudoprimes to the bases 2..23 and 2..37 respectively
        assert not is_prime(3825123056546413051)
        assert not is_prime(318665857834031151167461)
        assert not is_prime(1000000000000000003 * 1000003)

    @pytest.mark.parametrize("t", range(1, 13))
    def test_least_strong_pseudoprime_to_t_bases_is_composite(self, t):
        # a row of MILLER_RABIN_BASES read with <= for <, or one base
        # short, takes psi_t for prime (psi_13, the limit, is refused)
        assert not is_prime(PSI[t - 1])

    def test_matches_trial_division_around_psi_1_to_4(self):
        for psi in PSI[:4]:
            for n in range(psi - 100, psi + 101):
                assert is_prime(n) == is_prime_by_trial_division(n), n

    def test_rejects_input_beyond_the_proven_range(self):
        with pytest.raises(ValueError, match="too large"):
            is_prime(MILLER_RABIN_LIMIT)
