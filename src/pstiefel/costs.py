"""Size caps: one cost estimate, and the checks each engine entry point
runs on its input before its first table, series or scan.

    MAX_COMPLEMENT_N      reference request of the complement sums row
    MAX_CHERN_TRUNCATION  chern's truncation, a flag cap: weights +-1 give
                          sums of ~0 bits, which no estimate can see
    MAX_COHOMOLOGY_BYTES  a presentation's packed Poincare product
    MAX_LENS_D            reference request of the lens sums row
    MAX_SERIES_N          reference request of the Pontrjagin series row
    MAX_PRIME_BOUND       a sweep's sieve and check-claims' n

A sums or series row refuses what costs more than its reference request
with its cap weights (CAP_WEIGHTS; LENS_CAP_WEIGHTS for lens and
SERIES_CAP_WEIGHTS for the series), and alone bounds complement, lens
and the series; bits refuses past 2^44 terms, where a float loses the
estimate. The README states what each limit costs; tests/bounds.py
checks it.
"""

from __future__ import annotations

from math import lgamma, log, log2

MAX_COMPLEMENT_N = 50_000
MAX_CHERN_TRUNCATION = 6_000
MAX_COHOMOLOGY_BYTES = 4_000_000
MAX_LENS_D = 10 ** 6
MAX_SERIES_N = 3200
MAX_PRIME_BOUND = 10 ** 6
CAP_WEIGHTS = (1, 2, 3)
LENS_CAP_WEIGHTS = (1, 2)
SERIES_CAP_WEIGHTS = (1, 8)


def bits(count: int, r: int, top: int) -> float:
    """log2 C(r + count - 1, count - 1) + r log2 top: the bits of a sum of
    all degree-r monomials in count variables each at most top in size."""
    if r + count > 2 ** 44:
        # lgamma's difference loses bits as its arguments grow: about
        # 0.21 bits off log2 C(L + s, s) below 2^44 (s <= 40), 20 at 2^50
        raise OverflowError(f"{r + count} terms, past 2^44")
    return ((lgamma(r + count) - lgamma(r + 1) - lgamma(count)) / log(2)
            + r * log2(top))


def require_at_most(what: str, value: int, cap: int) -> None:
    """ValueError "{what} <= {cap}, got {value}" when value passes cap."""
    if value > cap:
        raise ValueError(f"{what} <= {cap}, got {value}")


def _require_cheap(what, unit: str, size, cap) -> None:
    """ValueError "{what()} (...) costs more than the cap allows, ..." when
    size(), a request's (B, E, ops), passes cap, its reference request's
    (B, E, ops, text): E numbers of B bits take ops E B bit operations to
    build, E B^2 to print (decimal conversion is quadratic); or when
    size() passes bits' float range. The message is built only then."""
    cap_b, cap_e, cap_ops, cap_text = cap
    try:
        b, e, ops = size()
    except OverflowError:
        estimate = "too large for a float estimate"
    else:
        if (ops * e * b <= cap_ops * cap_e * cap_b
                and e * b * b <= cap_e * cap_b * cap_b):
            return
        estimate = f"an estimated {b:.0f} bits{unit}"
    raise ValueError(f"{what()} ({estimate}) costs more than the cap "
                     f"allows, the cost {cap_text} ({cap_b:.0f} bits)")


# Each command's sums cap: whether it builds the table h_0..h_r or h_r
# alone, and the (B, E, ops, text) of h_cap of the cap weights, computed
# once, for require_small_sums to compare every request with. complement
# prints one h_r, read with h_{r-j+1}..h_{r-1} from a divided-difference
# table of O(j^2) steps that the row does not price, and lens one closed
# form.
_SUMS_CAPS = {command: (table, (bits(len(weights), cap, max(weights)),
                                cap + 1 if table else 1, len(weights),
                                f"of h_{cap} of weights "
                                f"{','.join(map(str, weights))}"))
              for command, cap, weights, table in (
                  ("complement", MAX_COMPLEMENT_N, CAP_WEIGHTS, False),
                  ("chern", MAX_CHERN_TRUNCATION - 1, CAP_WEIGHTS, True),
                  ("lens", MAX_LENS_D, LENS_CAP_WEIGHTS, False))}


def require_small_sums(command: str, ell, r: int) -> None:
    """ValueError when h_r of the weights ell (and h_0..h_r, when the
    command builds a table, as chern does) costs more than the command's
    cap in _SUMS_CAPS allows; a negative r is left to the caller. k
    weights up to L in size give |h_r| <= C(r + k - 1, k - 1) L^r."""
    table, cap = _SUMS_CAPS[command]
    k, top, r = len(ell), max(map(abs, ell)), max(r, 0)
    _require_cheap(lambda: f"{command}: h_{r} of {k} weights up to {top} in "
                   "absolute value", "",
                   lambda: (bits(k, r, top), r + 1 if table else 1, k), cap)


def packed_poincare_bytes(n: int, k: int) -> int:
    """Bound on the size of poincare_polynomial's packed int: one field per
    degree 0..k(2n - k) - 1, each wide enough for a total rank of at most
    n * 2^(k-1) (order <= n, k - 1 exterior classes)."""
    return k * (2 * n - k) * ((n.bit_length() + k + 6) // 8)


def require_presentation(n: int, k: int) -> None:
    """The cap of a cohomology presentation: its packed size, which at
    k ~ n/2 grows about as n^3 and its cost as n^4. It bounds the
    nilpotency scan too: its mod-p tables take about n k steps, no more
    than the k(2n - k) fields counted here."""
    size = packed_poincare_bytes(n, k)
    if size > MAX_COHOMOLOGY_BYTES:
        raise ValueError(
            f"cohomology needs an estimated packed size <= "
            f"{MAX_COHOMOLOGY_BYTES} bytes, got {size} (n = {n}, k = {k})")


def _series_size(n: int, l1: int, l2: int, T: int) -> tuple[float, int, int]:
    """(B, E, 1): the E = ceil(T/2) even coefficients of the series of n
    and (l1, l2) truncated at T have at most B bits, from C(2n + j, j) M^j
    at j = E - 1, M = max(l1^2, l2^2, (l2 - l1)^2), and a sign bit."""
    even = max((T + 1) // 2, 1)
    top = max(l1 * l1, l2 * l2, (l2 - l1) ** 2)
    return bits(2 * n + 1, even - 1, top) + 1, even, 1


# the series at the cap, computed once
_SERIES_CAP = _series_size(MAX_SERIES_N, *SERIES_CAP_WEIGHTS, MAX_SERIES_N) + (
    f"at n = truncation = {MAX_SERIES_N} with weights "
    f"{','.join(map(str, SERIES_CAP_WEIGHTS))}",)


def require_small_series(n: int, ell, T: int) -> None:
    """ValueError when the Pontrjagin series of n and two weights ell
    truncated at T costs more than at n = T = MAX_SERIES_N with
    SERIES_CAP_WEIGHTS, or is too large for the float estimate."""
    l1, l2 = ell
    _require_cheap(lambda: f"the Pontrjagin series of n = {n} and weights "
                   f"{l1},{l2} at truncation {T}", " a coefficient",
                   lambda: _series_size(n, l1, l2, T), _SERIES_CAP)
