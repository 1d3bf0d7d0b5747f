"""Exact integer and modular arithmetic primitives.

Everything here is arbitrary-precision and deterministic: binomials mod
p go through the base-p digit product, primes come from a plain sieve,
and single primality questions from deterministic Miller-Rabin. No
floating point anywhere.
"""

from __future__ import annotations

import math
from itertools import compress


def gcd_all(values: list[int] | tuple[int, ...]) -> int:
    """Greatest common divisor of a nonempty list, by absolute value."""
    if not values:
        raise ValueError("gcd of an empty list")
    return math.gcd(*values)


def p_adic_valuation(p: int, n: int) -> int:
    """Largest e with p**e dividing n. Undefined (error) for n = 0."""
    if p < 2:
        raise ValueError(f"valuation base must be at least 2, got {p}")
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def lucas_binom(n: int, r: int, p: int) -> int:
    """Binomial coefficient C(n, r) mod p via the base-p digit product.

    Each base-p digit pair contributes C(n_i, r_i); any digit with
    r_i > n_i kills the product, which also covers r > n.
    """
    if n < 0 or r < 0:
        raise ValueError("binomial arguments must be nonnegative")
    require_prime(p)
    result = 1
    while n or r:
        ni, ri = n % p, r % p
        if ri > ni:
            return 0
        result = result * math.comb(ni, ri) % p
        n //= p
        r //= p
    return result


def require_prime(p: int) -> None:
    """ValueError unless p is prime."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def primes_upto(bound: int) -> list[int]:
    """All primes <= bound, ascending (sieve of Eratosthenes)."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, int(bound ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray((bound - q * q) // q + 1)
    return list(compress(range(bound + 1), sieve))


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMORIAL = math.prod(SMALL_PRIMES)
MILLER_RABIN_LIMIT = 3317044064679887385961981
# (psi_t, t): as Miller-Rabin bases, the first t primes decide every n below
# psi_t, the least strong pseudoprime to them all; psi_8 = psi_7 and psi_9 =
# psi_10 = psi_11 (Pomerance et al., Math. Comp. 35, 1980; Jaeschke, 61,
# 1993; Jiang and Deng, 83, 2014; Sorenson and Webster, 86, 2017).
MILLER_RABIN_BASES = (
    (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
    (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
    (3825123056546413051, 9), (318665857834031151167461, 12),
    (MILLER_RABIN_LIMIT, 13))


def is_prime(n: int) -> bool:
    """Exact primality below MILLER_RABIN_LIMIT (ValueError above it): one
    gcd with PRIMORIAL, then Miller-Rabin with MILLER_RABIN_BASES' bases."""
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(
            f"{n} is too large: primality is decided only below "
            f"{MILLER_RABIN_LIMIT}")
    if math.gcd(n, PRIMORIAL) != 1:
        return n in SMALL_PRIMES
    if n < SMALL_PRIMES[-1] ** 2:
        return n > 1
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    count = next(t for psi, t in MILLER_RABIN_BASES if n < psi)
    for a in SMALL_PRIMES[:count]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
