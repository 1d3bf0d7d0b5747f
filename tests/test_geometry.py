import math
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pstiefel.geometry as geometry
import pstiefel.ring as ring
import pstiefel.weights as weights
from pstiefel.cohomology import (InvariantViolation, StiefelParams,
                                 nilpotency_order)
from pstiefel.geometry import (AGREE, DISCREPANT, NOT_APPLICABLE,
                               Certificate, LensParams, best_immersion_bound,
                               best_span_bound, check_immersion_theorem,
                               check_span_theorem, cp_complement_min_rank,
                               immersion_certificate, lens_rank_bound,
                               lens_sq2_criterion, normal_pontrjagin,
                               span_certificate, tangent_pontrjagin)
from pstiefel.cli import main
from pstiefel.series import TruncatedSeries
from pstiefel.ring import primes_upto
from pstiefel.weights import WeightTuple, homogeneous_sum, homogeneous_sums


def W(*ws):
    return WeightTuple(ws)


class TestPontrjaginSeries:
    def test_tangent_frobenius_collapse(self):
        # both n-th power factors disappear mod (7, x^7)
        got = tangent_pontrjagin(7, W(1, 2), modulus=7, truncation=7)
        assert got.coeffs == (1, 0, 1, 0, 1, 0, 1)

    def test_tangent_top_coefficient_can_vanish(self):
        got = tangent_pontrjagin(21, W(2, 1), modulus=7, truncation=21)
        assert got.coeff(20) == 0
        assert got.coeff(18) == 0

    def test_normal_pinned_case(self):
        got = normal_pontrjagin(8, W(1, 8), modulus=7, truncation=8)
        assert got.coeffs == (1, 0, 2, 0, 3, 0, 4, 0)

    def test_normal_small_odd_prime(self):
        got = normal_pontrjagin(7, W(1, 4), modulus=3, truncation=7)
        assert got.coeff(2) == 2
        assert got.coeff(4) == 0

    def test_product_is_one_over_integers(self):
        for n, ws in ((5, (1, 2)), (8, (1, 8)), (9, (2, -3))):
            t = tangent_pontrjagin(n, W(*ws), truncation=2 * n)
            v = normal_pontrjagin(n, W(*ws), truncation=2 * n)
            assert (t * v).is_one()

    def test_default_truncation_is_n(self):
        assert tangent_pontrjagin(6, W(1, 2)).truncation == 6

    def test_rejects_other_frame_counts(self):
        with pytest.raises(ValueError, match="exactly two weights"):
            tangent_pontrjagin(5, W(1, 2, 3))
        with pytest.raises(ValueError, match="n >= 2"):
            normal_pontrjagin(1, W(1, 2))


def x_space_pontrjagin(n, ell, modulus, truncation, sign):
    """Oracle: the series built in x at the full truncation, each power
    and solve running over the zeros at the odd indices."""
    l1, l2 = ell
    frames = TruncatedSeries([1, 0, -(l1 * l1 + l2 * l2), 0, (l1 * l2) ** 2],
                             truncation, modulus)
    diff = TruncatedSeries([1, 0, -(l2 - l1) ** 2], truncation, modulus)
    return (diff.inv(frames.int_pow(n)) if sign > 0
            else frames.int_pow(-n).mul(diff))


class TestBuiltInY:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           ell=st.tuples(st.integers(-9, 9), st.integers(-9, 9))
           .filter(lambda ws: math.gcd(*ws) == 1).map(WeightTuple),
           n=st.integers(2, 60), modulus=st.sampled_from((0, 3, 5, 7)),
           kind=st.sampled_from(((1, tangent_pontrjagin),
                                 (-1, normal_pontrjagin))))
    def test_matches_the_x_space_build(self, data, ell, n, modulus, kind):
        T = data.draw(st.integers(1, 2 * n + 1), label="truncation")
        sign, build = kind
        assert build(n, ell, modulus, T) == x_space_pontrjagin(
            n, ell, modulus, T, sign)

    @pytest.mark.parametrize("T", [1, 2, 3, 30, 31, 61])
    @pytest.mark.parametrize("build,steps", [(tangent_pontrjagin, 2),
                                             (normal_pontrjagin, 1)])
    def test_power_and_solve_run_at_half_the_truncation(
            self, monkeypatch, build, steps, T):
        seen = []
        for name in ("int_pow", "inv"):
            def recorded(series, *args,
                         _method=getattr(TruncatedSeries, name)):
                seen.append(series.truncation)
                return _method(series, *args)
            monkeypatch.setattr(TruncatedSeries, name, recorded)
        assert build(30, W(1, 2), 0, T).truncation == T
        assert seen == [-(-T // 2)] * steps


class TestSpanCertificates:
    def test_pinned_instance(self):
        cert = span_certificate(7, W(1, 2), 7)
        assert (cert.prime, cert.index, cert.bound) == (7, 2, 19)
        assert cert.witness == 1

    def test_takes_largest_admissible_index(self):
        cert = span_certificate(21, W(2, 1), 7)
        # x^20 and x^18 vanish mod 7, so the scan settles lower
        assert cert.index < 9
        assert cert.witness != 0

    def test_absence(self):
        assert span_certificate(2, W(1, 1), 3) is None

    def test_odd_prime_required(self):
        with pytest.raises(ValueError, match="odd primes"):
            span_certificate(7, W(1, 2), 2)
        with pytest.raises(ValueError, match="not prime"):
            span_certificate(7, W(1, 2), 15)

    def test_certificate_invariants_enforced(self):
        with pytest.raises(InvariantViolation, match="zero witness"):
            Certificate(7, 2, 0, 19)
        with pytest.raises(InvariantViolation, match="index >= 1"):
            Certificate(7, 0, 1, 23)
        assert Certificate(7, 2, 1, 19).claimed is None

    def test_sweep_pinned(self):
        sweep = best_span_bound(7, W(1, 2), 50)
        assert len(sweep.certificates) == 14
        best = sweep.best
        assert (best.prime, best.index, best.bound) == (5, 2, 19)
        assert best.witness == 4
        # every certificate gives a valid bound; the best is minimal
        assert all(c.bound >= best.bound for c in sweep.certificates)

    def test_sweep_can_be_empty(self):
        assert best_span_bound(3, W(1, -1), 50).certificates == ()
        assert best_span_bound(7, W(1, 2), 2).best is None


class TestImmersionCertificates:
    def test_pinned_instance(self):
        cert = immersion_certificate(8, W(1, 8), 7)
        assert (cert.index, cert.bound, cert.claimed) == (3, 32, 33)
        assert cert.witness == 4

    def test_low_index_instance(self):
        cert = immersion_certificate(7, W(1, 4), 3)
        assert (cert.index, cert.bound, cert.claimed) == (1, 24, 25)
        assert cert.witness == 2

    def test_absence(self):
        assert immersion_certificate(2, W(1, 1), 3) is None

    def test_certificate_invariants_enforced(self):
        # claimed must be bound + 1, neither further off nor equal
        for claimed in (33, 30, 29):
            with pytest.raises(InvariantViolation, match="one below"):
                Certificate(7, 2, 3, 30, claimed)
        with pytest.raises(InvariantViolation, match="zero witness"):
            Certificate(7, 2, 0, 30, 31)
        with pytest.raises(InvariantViolation, match="index >= 1"):
            Certificate(7, 0, 3, 30, 31)
        assert Certificate(7, 2, 3, 30, 31).claimed == 31

    def test_sweep_pinned(self):
        sweep = best_immersion_bound(8, W(1, 8), 50)
        best = sweep.best
        assert (best.prime, best.index, best.bound) == (3, 3, 32)
        assert best.witness == 2
        assert all(c.bound <= best.bound
                   for c in sweep.certificates)

    def test_sweep_excludes_vacuous_index_zero(self):
        sweep = best_immersion_bound(4, W(1, 4), 50)
        assert sweep.certificates
        assert all(c.index >= 1 for c in sweep.certificates)
        best = sweep.best
        assert (best.prime, best.index, best.bound) == (3, 1, 12)

    def test_sweep_empty_below_first_odd_prime(self):
        assert best_immersion_bound(8, W(1, 8), 2).certificates == ()


class TestSweepBest:
    # primitive pairs with |l| <= 9, each swept to the default bound 4n
    @settings(max_examples=100, deadline=None)
    @given(ell=st.tuples(st.integers(-9, 9), st.integers(-9, 9))
           .filter(lambda ws: math.gcd(*ws) == 1).map(WeightTuple),
           n=st.integers(2, 200))
    def test_ties_go_to_the_smallest_prime(self, ell, n):
        span = best_span_bound(n, ell, 4 * n)
        assert span.best == min(span.certificates, default=None,
                                key=lambda c: (c.bound, c.prime))
        immersion = best_immersion_bound(n, ell, 4 * n)
        assert immersion.best == min(immersion.certificates, default=None,
                                     key=lambda c: (-c.bound, c.prime))

    def test_pinned_tie(self):
        # 5 and 7 both give span <= 19, 3 and 5 both rule out R^32
        span = best_span_bound(7, W(1, 2), 7)
        assert [(c.prime, c.bound) for c in span.certificates] == [
            (3, 21), (5, 19), (7, 19)]
        assert span.best.prime == 5
        immersion = best_immersion_bound(8, W(1, 8), 5)
        assert [(c.prime, c.bound) for c in immersion.certificates] == [
            (3, 32), (5, 32)]
        assert immersion.best.prime == 3


class TestSweepInput:
    @pytest.mark.parametrize("sweep", [best_span_bound, best_immersion_bound])
    def test_rejects_small_n_even_with_no_primes(self, sweep):
        for n in (-3, 0, 1):
            with pytest.raises(ValueError, match="n >= 2"):
                sweep(n, W(1, 2), 0)

    @pytest.mark.parametrize("sweep", [best_span_bound, best_immersion_bound])
    def test_rejects_negative_prime_bound(self, sweep):
        with pytest.raises(ValueError, match="prime bound"):
            sweep(7, W(1, 2), -5)
        assert sweep(7, W(1, 2), 0).best is None

    def test_prime_bound_cap_is_checked_before_the_sieve(self, monkeypatch):
        def no_sieve(bound):
            raise AssertionError(f"sieve built up to {bound}")

        monkeypatch.setattr(geometry, "primes_upto", no_sieve)
        with pytest.raises(ValueError, match="prime bound"):
            best_span_bound(7, W(1, 2), geometry.MAX_PRIME_BOUND + 1)
        with pytest.raises(ValueError, match="prime bound"):
            best_immersion_bound(7, W(1, 2), 10 ** 11)

    def test_rejects_other_frame_counts(self):
        with pytest.raises(ValueError, match="exactly two weights"):
            best_span_bound(7, W(1, 2, 3), 0)

    @pytest.mark.parametrize("sweep", [best_span_bound, best_immersion_bound])
    @pytest.mark.parametrize("n,prime_bound", [
        (300_000, 1_200_000), (10 ** 12, 2), (10 ** 12, 0)])
    def test_series_cap_is_checked_before_the_prime_bound(
            self, sweep, n, prime_bound):
        # whether the bound is past its cap or admits no odd prime
        with pytest.raises(ValueError, match=f"at truncation {n} "):
            sweep(n, W(1, 2), prime_bound)


class TestCertificateInput:
    @pytest.mark.parametrize("certificate",
                             [span_certificate, immersion_certificate])
    def test_small_n_has_the_sweep_message(self, certificate):
        with pytest.raises(ValueError,
                           match="^need n >= 2 for two frames, got 1$"):
            certificate(1, W(1, 2), 3)

    @pytest.mark.parametrize("certificate,sweep", [
        (span_certificate, best_span_bound),
        (immersion_certificate, best_immersion_bound)])
    def test_one_prime_is_capped_as_the_sweep_is(self, certificate, sweep):
        # 41 divides h_{n-1}, so its nilpotency order is n and 3's is
        # n - 1: the series cap refuses both, at truncation n, as it
        # refuses the sweep
        with pytest.raises(ValueError, match="at truncation 2965 ") as swept:
            sweep(2965, W(-12, -11), 41)
        for p in (3, 41):
            with pytest.raises(ValueError) as one:
                certificate(2965, W(-12, -11), p)
            assert str(one.value) == str(swept.value)

    @pytest.mark.parametrize("certificate,sweep,pontrjagin", [
        (span_certificate, best_span_bound, "tangent_pontrjagin"),
        (immersion_certificate, best_immersion_bound, "normal_pontrjagin")])
    def test_one_prime_builds_the_series_the_sweep_builds(
            self, monkeypatch, certificate, sweep, pontrjagin):
        calls = []
        original = getattr(geometry, pontrjagin)
        monkeypatch.setattr(geometry, pontrjagin, lambda *args, **kwargs:
                            calls.append((args, kwargs))
                            or original(*args, **kwargs))
        # 5 does not divide h_8 = 2^9 - 1, so its nilpotency order is 8
        one = certificate(9, W(1, 2), 5)
        assert one in sweep(9, W(1, 2), 5).certificates
        assert calls == [((9, W(1, 2)), {"truncation": 9})] * 2

    def test_one_primality_test_per_attempt(self, monkeypatch):
        calls = []
        original = ring.is_prime
        monkeypatch.setattr(ring, "is_prime",
                            lambda p: calls.append(p) or original(p))
        span_certificate(7, W(1, 2), 7)
        immersion_certificate(8, W(1, 8), 7)
        assert calls == [7, 7]
        calls.clear()
        best_span_bound(90, W(1, 2), 360)
        assert calls == primes_upto(360)[1:]
        assert len(calls) == 71


def scan_reading_every_order(n, ell, p, series, sign):
    """Oracle: the certificate scan with the nilpotency order read for
    every prime, odd or even n, up to its top admissible index."""
    order = nilpotency_order(StiefelParams(n, 2, ell), p)
    for i in range((order - 1) // 2, 0, -1):
        w = series.coeff(2 * i) % p
        if w:
            if sign > 0:
                return Certificate(p, i, w, (4 * n - 5) - 2 * i)
            return Certificate(p, i, w, (4 * n - 6) + 2 * i,
                               (4 * n - 5) + 2 * i)
    return None


SWEEPS = {"span": (1, tangent_pontrjagin, best_span_bound),
          "immersion": (-1, normal_pontrjagin, best_immersion_bound)}


class TestOrderOnlyAtOddN:
    """For even n both nilpotency orders, n - 1 and n, admit indices up to
    n/2 - 1, so only odd n asks for the order; the certificates are those
    of a scan that reads it for every prime."""

    @pytest.mark.parametrize("kind", SWEEPS)
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 200),
           ell=st.tuples(st.integers(-9, 9), st.integers(-9, 9))
           .filter(lambda ws: math.gcd(*ws) == 1).map(WeightTuple))
    # equal weights, a zero weight, both parities
    @example(n=2, ell=W(1, 1))
    @example(n=9, ell=W(-1, -1))
    @example(n=15, ell=W(1, 1))
    @example(n=8, ell=W(0, 1))
    @example(n=7, ell=W(-1, 0))
    # odd n with a prime dividing h_{n-1}: order n, index (n - 1)/2
    @example(n=5, ell=W(1, 3))
    @example(n=9, ell=W(-1, 2))
    @example(n=21, ell=W(7, -9))
    # even n with a prime dividing h_{n-1}: order n, index n/2 - 1
    @example(n=6, ell=W(1, 2))
    def test_matches_a_scan_that_reads_every_order(self, kind, n, ell):
        sign, build, sweep = SWEEPS[kind]
        series = build(n, ell, truncation=n)
        want = [cert for p in primes_upto(4 * n)[1:]
                if (cert := scan_reading_every_order(n, ell, p, series,
                                                     sign)) is not None]
        assert sweep(n, ell, 4 * n).certificates == tuple(want)

    @pytest.mark.parametrize("n,ell,p", [(5, W(1, 3), 11), (9, W(-1, 2), 19),
                                         (21, W(7, -9), 43)])
    @pytest.mark.parametrize("certificate",
                             [span_certificate, immersion_certificate])
    def test_odd_n_reads_index_half_of_n_minus_one(self, certificate,
                                                   n, ell, p):
        assert homogeneous_sum(ell, n - 1) % p == 0
        assert nilpotency_order(StiefelParams(n, 2, ell), p) == n
        assert certificate(n, ell, p).index == (n - 1) // 2

    def test_only_odd_n_asks_for_the_order(self, monkeypatch):
        calls = []
        original = geometry.nilpotency_order
        monkeypatch.setattr(geometry, "nilpotency_order",
                            lambda params, p: calls.append(p)
                            or original(params, p))
        best_span_bound(90, W(1, 2), 360)
        best_immersion_bound(90, W(1, 2), 360)
        assert calls == []
        best_span_bound(91, W(1, 2), 360)
        assert calls == primes_upto(360)[1:]


class TestSpanClaimChecker:
    def test_agree_instance(self):
        check = check_span_theorem(7, W(1, 2))
        assert check.kind == "span"
        assert not check.vacuous
        part1 = check.instances[0]
        assert part1.prime == 7 and part1.part == 1
        assert all(ok for _, ok in part1.hypotheses)
        assert (part1.index, part1.claimed) == (2, 19)
        assert part1.coefficient == 1
        assert part1.verdict == AGREE

    def test_part2_gate(self):
        check = check_span_theorem(7, W(1, 2))
        part2 = check.instances[1]
        assert part2.part == 2
        assert part2.verdict == NOT_APPLICABLE
        assert ("p divides l1^n - l2^n", False) in part2.hypotheses

    def test_discrepant_mod_p_collapse(self):
        check = check_span_theorem(21, W(2, 1))
        by_key = {(i.prime, i.part): i for i in check.instances}
        assert by_key[(3, 1)].verdict == AGREE
        assert by_key[(3, 1)].claimed == 61
        assert by_key[(7, 1)].verdict == DISCREPANT
        part2 = by_key[(7, 2)]
        assert part2.verdict == DISCREPANT
        assert (part2.index, part2.claimed) == (10, 59)
        assert part2.coefficient == 0
        assert all(ok for _, ok in part2.hypotheses)

    def test_vacuous_when_prime_divides_gap(self):
        check = check_span_theorem(5, W(1, 6))
        assert check.vacuous
        assert check.instances == ()

    def test_verdicts_tuple(self):
        check = check_span_theorem(7, W(1, 2))
        assert check.verdicts == (AGREE, NOT_APPLICABLE)


class TestClaimInput:
    CAP = geometry.MAX_PRIME_BOUND

    @pytest.mark.parametrize("check",
                             [check_span_theorem, check_immersion_theorem])
    def test_n_is_capped_before_factoring(self, monkeypatch, check):
        def no_factoring(n):
            raise AssertionError(f"factoring {n}")

        monkeypatch.setattr(geometry, "_odd_prime_divisors", no_factoring)
        for n in (self.CAP + 1, 10 ** 18 + 3):
            with pytest.raises(ValueError, match=f"n <= {self.CAP}, got {n}"):
                check(n, W(1, 2))

    @pytest.mark.parametrize("check",
                             [check_span_theorem, check_immersion_theorem])
    def test_cap_itself_is_accepted(self, monkeypatch, check):
        seen = []
        monkeypatch.setattr(geometry, "_odd_prime_divisors",
                            lambda n: seen.append(n) or [])
        assert check(self.CAP, W(1, 2)).vacuous
        assert seen


class TestClaimVerdictRule:
    SERIES = TruncatedSeries([1, 0, 2, 0, 3], 5)

    def test_agree_exactly_when_the_coefficient_is_nonzero_mod_p(self):
        agree = geometry._claim(3, 1, (), self.SERIES, 1, 9)
        discrepant = geometry._claim(3, 1, (), self.SERIES, 2, 9)
        absent = geometry._claim(3, 1, (), self.SERIES, None, 9)
        assert agree[3:8] == (1, True, 2, 9, AGREE)
        assert discrepant[3:8] == (2, True, 0, 9, DISCREPANT)
        assert absent[3:8] == (None, None, None, None, NOT_APPLICABLE)


CLAIMS = {"span": (check_span_theorem, tangent_pontrjagin),
          "immersion": (check_immersion_theorem, normal_pontrjagin)}


class TestClaimIndicesAreAdmissible:
    """The claim checkers ask for no nilpotency order, since their
    hypotheses make every claimed index admissible; the order, read
    here, confirms it for every applicable instance."""

    @pytest.mark.parametrize("kind", CLAIMS)
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 300),
           ell=st.tuples(st.integers(-9, 9), st.integers(-9, 9))
           .filter(lambda ws: math.gcd(*ws) == 1).map(WeightTuple))
    # span part 2 at p = 7, order n, index (n - 1)/2, in both orders
    @example(n=21, ell=W(1, 2))
    @example(n=21, ell=W(2, 1))
    # index 0: span at n = 3, immersion at n = 4
    @example(n=3, ell=W(1, 2))
    @example(n=4, ell=W(1, 4))
    def test_every_applicable_index_is_below_the_order(self, kind, n, ell):
        check, build = CLAIMS[kind]
        series = build(n, ell, truncation=n)
        for inst in check(n, ell).instances:
            if inst.verdict == NOT_APPLICABLE:
                continue
            order = nilpotency_order(StiefelParams(n, 2, ell), inst.prime)
            assert 2 * inst.index <= order - 1
            assert inst.admissible is True
            assert inst.coefficient == (series.coeff(2 * inst.index)
                                        % inst.prime)
            assert (inst.verdict == AGREE) == (inst.coefficient != 0)

    def test_claim_checks_ask_for_no_order_or_primality_test(
            self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError(f"claim check called with {args}")

        monkeypatch.setattr(geometry, "nilpotency_order", refuse)
        monkeypatch.setattr(ring, "is_prime", refuse)
        span = check_span_theorem(21, W(2, 1))
        assert [(i.prime, i.part) for i in span.instances] == [
            (3, 1), (3, 2), (7, 1), (7, 2)]
        immersion = check_immersion_theorem(31, W(1, 31))
        assert [i.prime for i in immersion.instances] == [3, 5]
        assert main(["check-claims", "--n", "21", "--weights", "1,2",
                     "--json"]) == 0
        assert '"admissible": true' in capsys.readouterr().out


class TestImmersionClaimChecker:
    def test_agree_instance(self):
        check = check_immersion_theorem(8, W(1, 8))
        inst = check.instances[0]
        assert inst.prime == 7
        assert (inst.index, inst.claimed) == (2, 31)
        assert inst.coefficient == 3
        assert inst.verdict == AGREE

    def test_discrepant_instance(self):
        check = check_immersion_theorem(7, W(1, 4))
        inst = check.instances[0]
        assert inst.prime == 3
        assert inst.coefficient == 0
        assert inst.verdict == DISCREPANT

    def test_vacuous_when_gcd_is_one(self):
        assert check_immersion_theorem(4, W(1, 2)).vacuous

    def test_direct_certificate_dominates_agree_claims(self):
        # the direct scan may certify more than the closed form claims
        check = check_immersion_theorem(8, W(1, 8))
        inst = check.instances[0]
        cert = immersion_certificate(8, W(1, 8), inst.prime)
        assert cert.bound >= inst.claimed - 1


class TestComplementRank:
    def test_alternating_weights(self):
        rep = cp_complement_min_rank(3, W(1, -1))
        assert (rep.lower_bound, rep.achievable) == (2, 2)
        assert rep.notes
        rep = cp_complement_min_rank(4, W(1, -1))
        assert (rep.lower_bound, rep.achievable) == (4, 4)
        assert rep.reason_value == 1

    def test_generic_weights_force_full_rank(self):
        rep = cp_complement_min_rank(3, W(1, 2))
        assert (rep.lower_bound, rep.achievable) == (3, 3)
        assert rep.space == "CP^3"
        assert rep.reason_kind == "chern-nonzero"
        assert rep.reason_value == -15

    def test_reason_value_is_the_complement_coefficient(self):
        from pstiefel.weights import complement_chern
        for n, ws in ((5, (1, 1, 1, 2)), (6, (1, -2)), (4, (3, 2))):
            rep = cp_complement_min_rank(n, W(*ws))
            comp = complement_chern(W(*ws), n + 1)
            assert rep.reason_value == comp.coeff(rep.reason_index)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            cp_complement_min_rank(0, W(1, 2))

    def test_builds_one_table(self, monkeypatch):
        # at n >= j the bound reads h_38..h_40 from one divided-difference
        # table of x^42 and builds no h-table; below j it builds h_0..h_n
        calls = []
        original = weights.homogeneous_sums

        def counted(ell, r):
            calls.append(r)
            return original(ell, r)

        monkeypatch.setattr(weights, "homogeneous_sums", counted)
        rep = cp_complement_min_rank(40, W(1, -2, 3))
        assert calls == []
        assert rep.reason_index == 40
        assert cp_complement_min_rank(3, W(1, -1, 2, 3)).reason_index == 3
        assert calls == [3]

    def test_a_vanishing_window_is_an_invariant_violation(self, monkeypatch):
        # j consecutive zero sums past h_0 cannot occur; if the kernel gave
        # them, the bound would silently read 0
        monkeypatch.setattr(geometry, "homogeneous_top", lambda ell, r: [0, 0])
        with pytest.raises(InvariantViolation, match="h_9..h_10 of"):
            cp_complement_min_rank(10, W(1, 2))

    @pytest.mark.parametrize("ws", [
        (1,), (-1,), (0, 1), (0, 0, 1), (1, -1), (1, 1, 1), (3, 3, 1, -7),
        (1, 2, -3)])
    def test_small_cases_match_the_table(self, ws):
        # (1, 2, -3) has h_1 = 0; the others vanish in patterns or have
        # zero and repeated weights
        for n in range(1, 9):
            assert cp_complement_min_rank(n, W(*ws)) == table_rank(n, W(*ws))

    @settings(max_examples=300, deadline=None)
    @given(ws=st.lists(st.integers(-6, 6), min_size=1, max_size=6),
           n=st.integers(1, 200))
    def test_matches_the_table(self, ws, n):
        assume(math.gcd(*ws) == 1)
        assert cp_complement_min_rank(n, W(*ws)) == table_rank(n, W(*ws))

    def test_peak_memory_at_the_cap_is_small(self):
        # the table h_0..h_50000 of these weights peaked at 268 MB
        tracemalloc.start()
        try:
            cp_complement_min_rank(50_000, W(1, 2, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


def table_rank(n, ell):
    """Oracle for cp_complement_min_rank: its bound read from the whole
    table h_0..h_n."""
    hs = homogeneous_sums(ell, n)
    lower = max([i for i in range(1, n + 1) if hs[i] != 0], default=0)
    achievable = n - 1 if hs[n] == 0 else n
    notes = ()
    if hs[n] == 0:
        notes = ("top complement coefficient vanishes, so a rank "
                 f"{n - 1} complement exists",)
    if lower == 0:
        return geometry.RankBoundReport(f"CP^{n}", 0, achievable, "none",
                                        notes=notes)
    sign = -1 if lower % 2 else 1
    return geometry.RankBoundReport(
        f"CP^{n}", lower, achievable, "chern-nonzero",
        reason_index=lower, reason_value=sign * hs[lower], notes=notes)


class TestLensBounds:
    def test_params_validation(self):
        with pytest.raises(ValueError, match="d >= 1"):
            LensParams(0, 5, 1, 2)
        with pytest.raises(ValueError, match="m >= 2"):
            LensParams(3, 1, 1, 2)
        with pytest.raises(ValueError, match="coprime"):
            LensParams(3, 5, 2, 4)

    def test_join_dimension_cap(self):
        # constructed only: a report at d = 10^19 would not finish. The
        # lens sums cap alone bounds d: at weights 1,2 it refuses every d
        # past 10^6, and weights 1,1 (h_d = d + 1) pass far beyond
        assert LensParams(10 ** 6, 3, 1, 2).d == 10 ** 6
        assert LensParams(10 ** 12, 3, 1, 1).d == 10 ** 12
        for d, size in ((10 ** 6 + 1, "an estimated 1000021 bits"),
                        (10 ** 19, "too large for a float estimate")):
            with pytest.raises(ValueError) as exc:
                LensParams(d, 3, 1, 2)
            assert str(exc.value) == (
                f"lens: h_{d} of 2 weights up to 2 in absolute value "
                f"({size}) costs more than the cap allows, the cost of "
                "h_1000000 of weights 1,2 (1000020 bits)")

    def test_unit_sum_forces_full_rank(self):
        rep = lens_rank_bound(LensParams(3, 7, 1, 2))
        assert (rep.lower_bound, rep.achievable) == (3, 3)
        assert rep.reason_kind == "homogeneous-sum-mod-m"
        assert rep.space == "L^3(7)"

    def test_vanishing_sum_drops_to_default(self):
        rep = lens_rank_bound(LensParams(3, 5, 1, 2))
        assert (rep.lower_bound, rep.achievable) == (2, 3)
        assert rep.reason_kind == "none"
        rep = lens_rank_bound(LensParams(3, 2, 1, 1))
        assert (rep.lower_bound, rep.achievable) == (2, 3)

    def test_secondary_criterion_unsatisfied_cases(self):
        crit = lens_sq2_criterion(LensParams(2, 2, 1, 3))
        assert not crit.satisfied
        assert crit.value == 13
        assert crit.diagnostic and "odd" in crit.diagnostic

        crit = lens_sq2_criterion(LensParams(2, 3, 1, 1))
        assert not crit.satisfied
        assert ("m even", False) in crit.hypotheses

        crit = lens_sq2_criterion(LensParams(4, 2, 1, 2))
        assert not crit.satisfied
        assert crit.value == 31

    def test_odd_dimension_has_no_diagnostic(self):
        crit = lens_sq2_criterion(LensParams(3, 7, 1, 2))
        assert crit.diagnostic is None
        assert ("d even", False) in crit.hypotheses

    # h_d by the recurrence, not the closed form the lens bound uses
    @settings(max_examples=300, deadline=None)
    @given(ell=st.tuples(st.integers(-30, 30), st.integers(-30, 30))
           .filter(lambda ws: math.gcd(*ws) == 1),
           d=st.integers(1, 150), m=st.integers(2, 64))
    def test_bound_against_the_recurrence(self, ell, d, m):
        params = LensParams(d, m, *ell)
        rep = lens_rank_bound(params)
        crit = lens_sq2_criterion(params)
        forced = homogeneous_sums(WeightTuple(ell), d)[d] % m != 0
        assert rep.lower_bound == (d if forced else d - 1)
        assert rep.achievable == d
        assert not rep.criterion.satisfied
        assert rep.criterion == crit
        assert rep.notes == ((crit.diagnostic,) if d % 2 == 0 else ())
