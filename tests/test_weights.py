import itertools
import math
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pstiefel.weights as weights
from pstiefel.cohomology import StiefelParams, nilpotency_order
from pstiefel.weights import (WeightTuple, complement_chern, homogeneous_sum,
                              homogeneous_sum_bruteforce, homogeneous_sums,
                              homogeneous_top, total_chern)


class TestWeightTuple:
    def test_accepts_primitive_tuples(self):
        assert WeightTuple([2, 1]).weights == (2, 1)
        assert WeightTuple((1, -1)).weights == (1, -1)
        assert WeightTuple([1, 0, 0]).weights == (1, 0, 0)

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError, match="not primitive: gcd is 2"):
            WeightTuple([2, 4])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            WeightTuple([])

    @pytest.mark.parametrize("ws", [[1.9, 2], [1.0, 2], ["3", "4"], [1, None]])
    def test_rejects_non_integers(self, ws):
        # int() would read 1.9 as 1, a different quotient
        with pytest.raises(ValueError, match="^weights must be integers"):
            WeightTuple(ws)

    def test_accepts_integer_types(self):
        assert WeightTuple([True, 2]) == (1, 2)
        assert type(WeightTuple([True, 2])[0]) is int

    def test_sequence_protocol(self):
        ell = WeightTuple((3, -2, 1))
        assert len(ell) == 3
        assert list(ell) == [3, -2, 1]
        assert ell[1] == -2


class TestHomogeneousSum:
    def test_pinned_values(self):
        assert homogeneous_sum(WeightTuple((1, 2)), 2) == 7
        assert homogeneous_sum(WeightTuple((1, 2)), 3) == 15
        assert homogeneous_sum(WeightTuple((3, 1)), 0) == 1

    def test_alternating_pair_telescopes(self):
        ell = WeightTuple((1, -1))
        for r in range(12):
            assert homogeneous_sum(ell, r) == (1 if r % 2 == 0 else 0)

    def test_all_ones_counts_monomials(self):
        # monomials of degree r in k variables: C(r+k-1, k-1)
        for k in (1, 2, 3, 5):
            ell = WeightTuple((1,) * k)
            for r in range(9):
                assert homogeneous_sum(ell, r) == math.comb(r + k - 1, k - 1)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="negative degree"):
            homogeneous_sum(WeightTuple((1,)), -1)

    @pytest.mark.parametrize("ws", [(1, 2), (1, 1), (1, 2, 3)])
    @pytest.mark.parametrize("modulus", [0, -3])
    def test_modulus_below_one_rejected(self, ws, modulus, monkeypatch):
        # refused before any table is built, for the table and the two
        # closed forms alike
        def table(ell, r, modulus=None):
            raise AssertionError(f"table built for {ell.weights}")

        monkeypatch.setattr(weights, "homogeneous_sums", table)
        with pytest.raises(ValueError,
                           match=f"^modulus must be >= 1, got {modulus}$"):
            homogeneous_sum(WeightTuple(ws), 5, modulus)

    @settings(max_examples=300, deadline=None)
    @given(ws=st.one_of(
               st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
               st.sampled_from([(1, 1), (-1, -1), (1, -1), (-1, 1)]),
               st.lists(st.integers(-20, 20), min_size=1, max_size=4)),
           r=st.integers(0, 300),
           m=st.one_of(st.sampled_from([2, 3, 5, 7, 997, 2 ** 61 - 1]),
                       st.integers(1, 10 ** 6)))
    @example(ws=(1000, -999), r=300, m=4)
    @example(ws=(-1, -1), r=0, m=1)
    def test_residue_matches_the_exact_sum(self, ws, r, m):
        # prime and composite moduli, through the two-weight powers mod
        # m |l1 - l2| and the table for other counts
        if math.gcd(*ws) != 1:
            ws = (1, *ws[1:])
        ell = WeightTuple(ws)
        assert homogeneous_sum(ell, r, m) == homogeneous_sum(ell, r) % m

    def test_residue_of_a_huge_degree_returns_at_once(self):
        # n of 400 digits: the exact h_{n-1} would have about 10^400 bits
        code = ("from pstiefel.cohomology import StiefelParams, "
                "nilpotency_order\n"
                "from pstiefel.weights import WeightTuple\n"
                "print(nilpotency_order(StiefelParams(10 ** 400 + 1, 2, "
                "WeightTuple((1, 2))), 3))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        # h_r(1, 2) = 2^{r+1} - 1 vanishes mod 3 exactly at odd r
        assert proc.stdout == "10" + "0" * 399 + "\n"


class TestHomogeneousSums:
    # every primitive tuple of 1 to 4 weights in [-2, 2]
    GRID = [WeightTuple(ws) for k in range(1, 5)
            for ws in itertools.product(range(-2, 3), repeat=k)
            if math.gcd(*ws) == 1]

    def test_matches_bruteforce_grid(self):
        for ell in self.GRID:
            assert homogeneous_sums(ell, 8) == [
                homogeneous_sum_bruteforce(ell, i) for i in range(9)]

    def test_matches_per_degree_values(self):
        for ell in self.GRID[::7]:
            for r in (0, 1, 5, 30):
                assert homogeneous_sums(ell, r) == [
                    homogeneous_sum(ell, i) for i in range(r + 1)]

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="negative degree"):
            homogeneous_sums(WeightTuple((1, 2)), -1)

    @pytest.mark.parametrize("modulus", [0, -3])
    def test_modulus_below_one_rejected(self, modulus):
        with pytest.raises(ValueError,
                           match=f"^modulus must be >= 1, got {modulus}$"):
            homogeneous_sums(WeightTuple((1, 2, 3)), 5, modulus)

    @settings(max_examples=300, deadline=None)
    @given(ws=st.lists(st.one_of(st.integers(-20, 20),
                                 st.sampled_from([10 ** 18, -10 ** 18])),
                       min_size=1, max_size=6),
           r=st.integers(0, 300),
           m=st.one_of(st.sampled_from([1, 2, 3, 997, 2 ** 61 - 1]),
                       st.integers(1, 10 ** 6)))
    @example(ws=[1, 2, 3], r=0, m=1)
    def test_residues_match_the_exact_table(self, ws, r, m):
        # every entry, h_0 included, reduced as the table is built
        if math.gcd(*ws) != 1:
            ws[0] = 1
        ell = WeightTuple(ws)
        assert homogeneous_sums(ell, r, m) == [
            h % m for h in homogeneous_sums(ell, r)]


class TestHomogeneousTop:
    @settings(max_examples=400, deadline=None)
    @given(ws=st.lists(st.one_of(st.integers(-20, 20),
                                 st.sampled_from([10 ** 18, -10 ** 18])),
                       min_size=1, max_size=6),
           r=st.one_of(st.integers(0, 6), st.integers(0, 300)))
    @example(ws=[0, 0, 5], r=0)
    @example(ws=[1, 2, 3, 4, 5, 6], r=4)
    @example(ws=[1] * 12 + [2] * 5 + [-3] * 3, r=200)
    @example(ws=[-3, 2, 1, 0, 2, -3, 1, 1, 0, 1] * 2, r=45)
    @example(ws=[10 ** 18] * 4 + [-10 ** 18] * 3 + [-1, 1, 1], r=60)
    def test_matches_the_last_entries_of_the_table(self, ws, r):
        # zero weights drop out, and indices below 0 read as 0
        if not any(ws):
            ws[0] = 1
        j = sum(1 for w in ws if w)
        table = [0] * j + homogeneous_sums(ws, r)
        assert homogeneous_top(ws, r) == table[-j:]

    @pytest.mark.parametrize("ws", [
        [1], [-2], [1, 1], [1, -1], [3, 0, -5], [2, 2, 2, 1],
        [1] * 6 + [-2] * 3, list(range(-4, 5))])
    def test_boundary_between_table_and_divided_differences(self, ws):
        # r = j - 2 and j - 1 read the h-table, r = j the Newton table
        j = sum(1 for w in ws if w)
        for r in range(max(j - 2, 0), j + 1):
            table = [0] * j + homogeneous_sums(ws, r)
            assert homogeneous_top(ws, r) == table[-j:]

    @pytest.mark.parametrize("j", [1, 2, 78])
    def test_all_ones_are_binomials(self, j):
        # h_m(1, ..., 1) of j ones is C(m + j - 1, j - 1)
        for r in (0, 1, j - 1, j, 10 ** 6, 2 ** 40 + 3, 2 ** 44 - j):
            want = [math.comb(m + j - 1, j - 1) if m >= 0 else 0
                    for m in range(r - j + 1, r + 1)]
            assert homogeneous_top([1] * j, r) == want

    @settings(max_examples=300, deadline=None)
    @given(l1=st.one_of(st.integers(-50, 50),
                        st.integers(-10 ** 18, 10 ** 18)).filter(bool),
           l2=st.one_of(st.integers(-50, 50),
                        st.sampled_from([10 ** 18, -10 ** 18])).filter(bool),
           r=st.integers(0, 400))
    @example(l1=10 ** 18, l2=-10 ** 18, r=300)
    @example(l1=-7, l2=7, r=51)
    @example(l1=10 ** 18, l2=10 ** 18, r=64)
    @example(l1=-10 ** 18, l2=1, r=1)
    def test_two_weights_match_the_closed_form(self, l1, l2, r):
        want = [homogeneous_sum((l1, l2), m) if m >= 0 else 0
                for m in (r - 1, r)]
        assert homogeneous_top([l1, l2], r) == want

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="negative degree"):
            homogeneous_top(WeightTuple((1, 2)), -1)


class TestBruteforceOracle:
    def test_pinned_values(self):
        assert homogeneous_sum_bruteforce(WeightTuple((1, 1)), 3) == 4
        assert homogeneous_sum_bruteforce(WeightTuple((2, 1)), 3) == 15

    def test_range_guard(self):
        # r = 12 and k = 6 answer; one past either is refused
        assert homogeneous_sum_bruteforce(WeightTuple((1, 1)), 12) == 13
        assert homogeneous_sum_bruteforce(WeightTuple((1,) * 6), 2) == 21
        with pytest.raises(ValueError, match="oracle range exceeded"):
            homogeneous_sum_bruteforce(WeightTuple((1, 1)), 13)
        with pytest.raises(ValueError, match="oracle range exceeded"):
            homogeneous_sum_bruteforce(WeightTuple((1,) * 7), 2)

    def test_recurrence_matches_enumeration(self):
        rng = random.Random(11)
        for _ in range(120):
            k = rng.randint(1, 4)
            while True:
                ws = [rng.randint(-3, 3) for _ in range(k)]
                if math.gcd(*ws) == 1:
                    break
            ell = WeightTuple(ws)
            r = rng.randint(0, 8)
            assert homogeneous_sum(ell, r) == homogeneous_sum_bruteforce(ell, r)


class TestPairClosedForm:
    """homogeneous_sum of two weights is the closed form
    (l1^{r+1} - l2^{r+1}) / (l1 - l2); the table is its oracle."""

    def test_pinned_values(self):
        assert homogeneous_sum(WeightTuple((1, -1)), 2) == 1
        assert homogeneous_sum(WeightTuple((1, 2)), 3) == 15
        assert homogeneous_sum(WeightTuple((2, 1)), 3) == 15

    def test_equal_weights_limit(self):
        # the quotient degenerates to (r+1) * l^r; (1, 1) and (-1, -1)
        # are the only primitive equal pairs
        assert homogeneous_sum(WeightTuple((1, 1)), 4) == 5
        assert homogeneous_sum(WeightTuple((-1, -1)), 3) == -4

    def test_agrees_with_general_sum(self):
        for l1 in range(-4, 5):
            for l2 in range(-4, 5):
                if math.gcd(l1, l2) != 1:
                    continue
                ell = WeightTuple((l1, l2))
                table = homogeneous_sums(ell, 7)
                for d in range(8):
                    assert homogeneous_sum(ell, d) == table[d]

    def test_negative_degree_rejected(self):
        for ws in ((1, 2), (1, 1)):
            with pytest.raises(ValueError, match="^negative degree -1$"):
                homogeneous_sum(WeightTuple(ws), -1)

    @settings(max_examples=300, deadline=None)
    @given(ell=st.tuples(st.integers(-50, 50), st.integers(-50, 50))
           .filter(lambda ws: math.gcd(*ws) == 1),
           r=st.integers(0, 300))
    @example(ell=(1, 1), r=0)
    @example(ell=(1, 1), r=300)
    @example(ell=(-1, -1), r=7)
    @example(ell=(-1, -1), r=300)
    @example(ell=(0, 1), r=12)
    @example(ell=(0, -1), r=299)
    @example(ell=(-1, 0), r=5)
    def test_closed_form_against_table_and_enumeration(self, ell, r):
        ell = WeightTuple(ell)
        got = homogeneous_sum(ell, r)
        assert got == homogeneous_sums(ell, r)[r]
        if r <= 12:
            assert got == homogeneous_sum_bruteforce(ell, r)

    def test_two_weights_never_build_the_table(self, monkeypatch):
        def table(ell, r, modulus=None):
            raise AssertionError(f"table built for {ell.weights}")

        monkeypatch.setattr(weights, "homogeneous_sums", table)
        assert homogeneous_sum(WeightTuple((1, 2)), 40) == 2 ** 41 - 1
        assert homogeneous_sum(WeightTuple((-1, -1)), 5) == -6
        # h_29(2, -3) = 0 mod 5, while h_30(1, 4) != 0 mod 3
        assert nilpotency_order(StiefelParams(30, 2, WeightTuple((2, -3))),
                                5) == 30
        assert nilpotency_order(StiefelParams(31, 2, WeightTuple((1, 4))),
                                3) == 30
        with pytest.raises(AssertionError, match="table built"):
            homogeneous_sum(WeightTuple((1, 2, 3)), 4)
        with pytest.raises(AssertionError, match="table built"):
            homogeneous_sum(WeightTuple((1,)), 4)


class TestChernSeries:
    def test_total_pinned_values(self):
        assert total_chern(WeightTuple((1, -1)), 4).coeffs == (1, 0, -1, 0)
        assert total_chern(WeightTuple((1, 2)), 3).coeffs == (1, 3, 2)
        assert total_chern(WeightTuple((1,)), 3).coeffs == (1, 1, 0)

    def test_complement_pinned_values(self):
        assert complement_chern(WeightTuple((1, -1)), 6).coeffs == \
            (1, 0, 1, 0, 1, 0)
        assert complement_chern(WeightTuple((1,)), 4).coeffs == (1, -1, 1, -1)

    def test_complement_coefficients_are_signed_pair_sums(self):
        for l1, l2 in ((1, 2), (2, 3), (1, -3), (5, -4)):
            comp = complement_chern(WeightTuple((l1, l2)), 9)
            for j in range(9):
                expect = (-1) ** j * homogeneous_sum(WeightTuple((l1, l2)), j)
                assert comp.coeff(j) == expect

    @settings(max_examples=300, deadline=None)
    @given(ws=st.lists(st.integers(-20, 20), min_size=1, max_size=6),
           T=st.integers(1, 80))
    @example(ws=[1, 2], T=10)
    @example(ws=[1, -1], T=10)
    @example(ws=[2, 3, 5], T=10)
    @example(ws=[1, 0, 0], T=10)
    @example(ws=[3, 3, -2, -2, 0, 3], T=80)
    def test_product_is_one(self, ws, T):
        # the total series is a product of series and the complement a
        # table of sums, so this checks one kernel against the other
        if math.gcd(*ws) != 1:
            ws[0] = 1
        ell = WeightTuple(ws)
        assert (total_chern(ell, T) * complement_chern(ell, T)).is_one()
