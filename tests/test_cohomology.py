import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pstiefel.cohomology as cohomology
import pstiefel.costs as costs
import pstiefel.ring as ring
from pstiefel.cohomology import (CohomologyPresentation, InvariantViolation,
                                 StiefelParams, check_presentation_invariants,
                                 nilpotency_order, poincare_polynomial,
                                 presentation_mod2, presentation_odd)
from pstiefel.costs import packed_poincare_bytes
from pstiefel.ring import lucas_binom
from pstiefel.weights import WeightTuple, homogeneous_sum, homogeneous_sums


def params(n, k, ws):
    return StiefelParams(n, k, WeightTuple(ws))


def poincare_schoolbook(pres):
    """Oracle for poincare_polynomial: one list pass per exterior factor."""
    top = 2 * (pres.nilpotency_order - 1) + sum(pres.exterior_degrees)
    out = [0] * (top + 1)
    for i in range(pres.nilpotency_order):
        out[2 * i] = 1
    for d in pres.exterior_degrees:
        for i in range(top - d, -1, -1):
            if out[i]:
                out[i + d] += out[i]
    return out


def width_cases(*bits):
    """(order, degrees) with total rank just below and at 2^b, each b."""
    return [case for b in bits for case in (
        (3, (1,) * (b - 2)),            # total 3 * 2^(b-2) < 2^b
        (255, (0,) * (b - 8)),          # total 2^b - 2^(b-8)
        (1, (0,) * b),                  # one coefficient, 2^b
        (4, (0,) * (b - 4) + (1, 3)))]  # total 2^b


class TestStiefelParams:
    def test_dimension(self):
        assert params(4, 2, (1, 1)).dimension == 11
        assert params(7, 2, (1, 2)).dimension == 23
        assert params(5, 1, (1,)).dimension == 8  # CP^4 as the k=1 case

    def test_packed_poincare_bytes_bounds_the_kernel(self):
        assert packed_poincare_bytes(400, 200) == 3_120_000
        assert packed_poincare_bytes(450, 225) == 4_556_250
        for n in range(1, 25):
            for k in range(1, n + 1):
                pr = params(n, k, (1,) * k)
                pres = presentation_odd(pr, 3)
                # the kernel's field: len(degrees) + 1 bits, in bytes
                width = (len(pres.exterior_degrees) + 8) // 8
                assert max(poincare_polynomial(pres)) < 256 ** width
                assert (pr.dimension + 1) * width <= packed_poincare_bytes(
                    n, k)

    def test_presentation_cap_admits_its_own_size(self, monkeypatch):
        # answered with the cap at exactly its packed size, refused one
        # byte below it
        size = packed_poincare_bytes(6, 2)
        monkeypatch.setattr(costs, "MAX_COHOMOLOGY_BYTES", size)
        assert presentation_odd(params(6, 2, (1, 2)), 3).nilpotency_order
        assert presentation_mod2(params(6, 2, (1, 2))).nilpotency_order
        monkeypatch.setattr(costs, "MAX_COHOMOLOGY_BYTES", size - 1)
        refusal = f"<= {size - 1} bytes, got {size} \\(n = 6, k = 2\\)$"
        with pytest.raises(ValueError, match=refusal):
            presentation_odd(params(6, 2, (1, 2)), 3)
        with pytest.raises(ValueError, match=refusal):
            presentation_mod2(params(6, 2, (1, 2)))

    def test_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            params(0, 1, (1,))
        with pytest.raises(ValueError, match="1 <= k <= n"):
            params(2, 3, (1, 1, 1))
        with pytest.raises(ValueError, match="does not match k"):
            params(4, 2, (1, 1, 1))


class TestNilpotencyOrder:
    def test_pinned_values(self):
        assert nilpotency_order(params(4, 2, (1, 1)), 3) == 3
        assert nilpotency_order(params(5, 2, (1, 1)), 5) == 5
        # h_4(1, 3) = (3^5 - 1) / 2 = 121 = 11^2 vanishes, h_5 = 364 not
        assert nilpotency_order(params(5, 2, (1, 3)), 11) == 5

    def test_unit_vector_weights(self):
        # h_r = 1 for every r, so the first window index wins
        for n, k in ((6, 3), (9, 4), (5, 5)):
            ell = (1,) + (0,) * (k - 1)
            for p in (3, 7):
                assert nilpotency_order(params(n, k, ell), p) == n - k + 1

    @pytest.mark.parametrize("n", [200, 213, 226, 250, 263, 277, 289, 300])
    def test_matches_lucas_digits_for_all_ones_weights(self, n):
        # h_r(1, ..., 1) of k ones is C(r + k - 1, r); n = 250, k = 125
        # at p = 5 scans all 125 steps of the window to r = 250
        for k in (3, n // 3, n // 2, n // 2 + 1):
            pr = params(n, k, (1,) * k)
            for p in (3, 5, 7):
                want = next(r for r in range(n - k + 1, n + 1)
                            if lucas_binom(r + k - 1, r, p) != 0)
                assert nilpotency_order(pr, p) == want

    # the window's first index from homogeneous_sum, then the rest: h_n
    # from the closed form for two weights, so no table at any n, and
    # one table mod p up to n for more; a table for each step took 125
    @pytest.mark.parametrize("n,ws,p,order,want", [
        (250, (1,) * 125, 5, 250, [("sum", 126, 5), ("sums", 250, 5)]),
        (5, (1, 3), 11, 5, [("sum", 4, 11), ("sum", 5, 11)]),
    ])
    def test_long_scan_builds_one_table(self, monkeypatch, n, ws, p, order,
                                        want):
        calls = []

        def counted(name, fn):
            def call(ell, r, modulus=None):
                calls.append((name, r, modulus))
                return fn(ell, r, modulus)
            return call

        monkeypatch.setattr(cohomology, "homogeneous_sum",
                            counted("sum", homogeneous_sum))
        monkeypatch.setattr(cohomology, "homogeneous_sums",
                            counted("sums", homogeneous_sums))
        assert nilpotency_order(params(n, len(ws), ws), p) == order
        assert calls == want

    @settings(max_examples=200, deadline=None)
    @given(ws=st.lists(st.integers(-9, 9), min_size=1, max_size=6),
           extra=st.integers(0, 30), p=st.sampled_from((2, 3, 5, 7, 11)))
    def test_matches_the_table_for_any_weights(self, ws, extra, p):
        if math.gcd(*ws) != 1:
            ws[0] = 1
        n, k = len(ws) + extra, len(ws)
        pr = params(n, k, ws)
        hs = homogeneous_sums(pr.ell, n)
        want = next(r for r in range(n - k + 1, n + 1) if hs[r] % p)
        assert nilpotency_order(pr, p) == want

    def test_no_transgression_raises(self, monkeypatch):
        # unreachable for genuine weights; force it to check the guard
        monkeypatch.setattr(cohomology, "homogeneous_sum",
                            lambda ell, r, modulus=None: 0)
        with pytest.raises(InvariantViolation, match="no transgression"):
            nilpotency_order(params(4, 2, (1, 1)), 3)


class TestPresentationOdd:
    def test_pinned_case(self):
        pres = presentation_odd(params(4, 2, (1, 1)), 3)
        assert pres.prime == 3
        assert pres.nilpotency_order == 3
        assert pres.exterior_degrees == (7,)
        assert pres.describe() == "Z/3[x]/(x^3) (x) Lambda(y[7])"

    def test_projective_space_case(self):
        pres = presentation_odd(params(6, 1, (1,)), 5)
        assert pres.nilpotency_order == 6
        assert pres.exterior_degrees == ()
        assert pres.describe() == "Z/5[x]/(x^6)"

    def test_small_unitary_quotient(self):
        pres = presentation_odd(params(2, 2, (1, -1)), 5)
        assert pres.nilpotency_order == 2
        assert pres.exterior_degrees == (1,)

    def test_rejects_two(self):
        with pytest.raises(ValueError, match="presentation_mod2"):
            presentation_odd(params(4, 2, (1, 1)), 2)

    def test_one_primality_test_and_a_non_prime_refused(self, monkeypatch):
        calls = []
        original = ring.is_prime
        monkeypatch.setattr(ring, "is_prime",
                            lambda p: calls.append(p) or original(p))
        presentation_odd(params(4, 2, (1, 1)), 3)
        assert calls == [3]
        with pytest.raises(ValueError, match="^9 is not prime$"):
            presentation_odd(params(4, 2, (1, 1)), 9)


class TestPresentationMod2:
    def test_even_branch_squares_survive(self):
        pres = presentation_mod2(params(4, 2, (1, 1)))
        assert pres == (2, 4, (5,))
        assert pres.describe() == "Z/2[x, y[5]]/(x^4, y[5]^2)"

    def test_odd_branch(self):
        pres = presentation_mod2(params(4, 2, (1, 2)))
        assert (pres.nilpotency_order, pres.exterior_degrees) == (3, (7,))
        pres = presentation_mod2(params(3, 2, (1, -1)))
        assert (pres.nilpotency_order, pres.exterior_degrees) == (2, (5,))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 300), l1=st.integers(-20, 20),
           l2=st.integers(-20, 20))
    def test_window_rule_matches_the_parity_of_h_n_minus_1(self, n, l1, l2):
        assume(math.gcd(l1, l2) == 1)
        p = params(n, 2, (l1, l2))
        pres = presentation_mod2(p)
        # the exact h_{n-1}, not its residue: the oracle the window rule
        # at p = 2 must agree with
        if homogeneous_sum(p.ell, n - 1) % 2 == 0:
            assert pres == (2, n, (2 * n - 3,))
        else:
            assert pres == (2, n - 1, (2 * n - 1,))
        assert check_presentation_invariants(pres, p).passed

    def test_guards(self):
        with pytest.raises(ValueError, match="two-frame"):
            presentation_mod2(params(4, 3, (1, 1, 1)))
        # n = 1 cannot carry two frames: the record refuses it first
        with pytest.raises(ValueError, match="need 1 <= k <= n"):
            presentation_mod2(params(1, 2, (1, 0)))


class TestPoincarePolynomial:
    def test_rank_three_with_one_generator(self):
        pres = CohomologyPresentation(3, 3, (7,))
        got = poincare_polynomial(pres)
        # (1 + t^2 + t^4)(1 + t^7)
        want = [0] * 12
        for d in (0, 2, 4, 7, 9, 11):
            want[d] = 1
        assert got == want

    def test_projective_space(self):
        pres = CohomologyPresentation(5, 4, ())
        got = poincare_polynomial(pres)
        assert got == [1, 0, 1, 0, 1, 0, 1]

    def test_rank_four_low_degrees(self):
        pres = CohomologyPresentation(5, 2, (1,))
        assert poincare_polynomial(pres) == [1, 1, 1, 1]


class TestPackedPoincareKernel:
    """The packed kernel against the schoolbook oracle.

    No coefficient exceeds 2^len(degrees), so a field is len(degrees) + 1
    bits rounded up to bytes; fields of at most 8 bytes are read as 64-bit
    lanes and wider ones whole. A factor of degree 0 doubles every
    coefficient, so (order 1, b zero degrees) has the single coefficient
    2^b and the field width is exactly tight there: b = 7 and 8 are the
    edge of widths 1 and 2, and b = 63 and 64 that of widths 8 and 9,
    where the lane read gives way to the whole-field one. width_cases
    reach field widths 1 to 6, 8 to 10, 12, 13, 16 to 18, 20, 21, 24 and
    25 bytes, on both sides of that switch.
    """

    @settings(max_examples=200, deadline=None)
    @given(order=st.integers(0, 40),
           degrees=st.lists(st.integers(0, 15), max_size=12))
    def test_matches_schoolbook(self, order, degrees):
        pres = CohomologyPresentation(3, order, tuple(degrees))
        assert poincare_polynomial(pres) == poincare_schoolbook(pres)

    def test_order_one_without_generators(self):
        assert poincare_polynomial(CohomologyPresentation(3, 1, ())) == [1]

    @pytest.mark.parametrize("zeros", [7, 8, 63, 64])
    def test_tight_field_edges(self, zeros):
        pres = CohomologyPresentation(3, 1, (0,) * zeros)
        got = poincare_polynomial(pres)
        assert got == poincare_schoolbook(pres) == [2 ** zeros]

    @settings(max_examples=60, deadline=None)
    @given(order=st.integers(0, 20),
           degrees=st.lists(st.integers(0, 5), min_size=60, max_size=80))
    def test_many_small_degrees_cross_the_lane_switch(self, order, degrees):
        # 60 to 80 factors: widths 8 to 11, lanes and whole fields both
        pres = CohomologyPresentation(3, order, tuple(degrees))
        assert poincare_polynomial(pres) == poincare_schoolbook(pres)

    @pytest.mark.parametrize(
        "order,degrees",
        width_cases(8, 16, 32, 64) + [(2 ** 16 - 1, ())]
        + width_cases(24, 40, 72, 96, 128, 136, 160, 192))
    def test_field_width_boundaries(self, order, degrees):
        pres = CohomologyPresentation(3, order, degrees)
        got = poincare_polynomial(pres)
        assert got == poincare_schoolbook(pres)
        assert sum(got) == order * 2 ** len(degrees)

    @settings(max_examples=100, deadline=None)
    @given(order=st.integers(0, 40), zeros=st.integers(0, 200),
           degrees=st.lists(st.integers(1, 15), max_size=6))
    def test_many_zero_degree_factors(self, order, zeros, degrees):
        pres = CohomologyPresentation(3, order, (0,) * zeros + tuple(degrees))
        assert poincare_polynomial(pres) == poincare_schoolbook(pres)


class TestInvariantChecks:
    def test_pinned_passes(self):
        pr = params(4, 2, (1, 1))
        chk = check_presentation_invariants(presentation_odd(pr, 3), pr)
        assert chk.passed
        assert (chk.top_degree, chk.total_rank) == (11, 6)

        pr = params(2, 2, (1, -1))
        chk = check_presentation_invariants(presentation_odd(pr, 5), pr)
        assert chk.passed
        assert (chk.top_degree, chk.total_rank) == (3, 4)

    def test_k1_cases_pass(self):
        for n in range(1, 9):
            pr = params(n, 1, (1,))
            chk = check_presentation_invariants(presentation_odd(pr, 7), pr)
            assert chk.passed
            assert chk.top_degree == 2 * n - 2
            assert chk.total_rank == n

    def test_detects_wrong_rank(self):
        pr = params(4, 2, (1, 1))
        bogus = CohomologyPresentation(3, 3, (7, 9))
        chk = check_presentation_invariants(bogus, pr)
        assert not chk.passed

    def test_carries_the_polynomial_outside_its_repr(self):
        pr = params(4, 2, (1, 1))
        pres = presentation_odd(pr, 3)
        chk = check_presentation_invariants(pres, pr)
        assert chk.poincare == poincare_polynomial(pres)
        assert "poincare" not in repr(chk)
        # but not outside equality: the record equals the plain tuple of
        # its fields, and the list makes it unhashable
        other = chk._replace(poincare=[])
        assert chk != other and chk == tuple(chk)
        with pytest.raises(TypeError):
            hash(chk)
