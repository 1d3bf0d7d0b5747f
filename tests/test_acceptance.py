"""Acceptance suite: one test per release criterion, every check exact.

Each test prints a single PASS line (visible with -s; pytest -v shows the
per-criterion outcome either way). No tolerances anywhere: all comparisons
are integer equalities.
"""

import math
import time

from pstiefel import verify
from pstiefel.cli import main
from pstiefel.geometry import (AGREE, DISCREPANT, LensParams,
                               check_immersion_theorem, check_span_theorem,
                               cp_complement_min_rank, immersion_certificate,
                               lens_rank_bound, lens_sq2_criterion,
                               span_certificate)
from pstiefel.weights import WeightTuple, complement_chern, homogeneous_sum


def _report(num, text):
    print(f"criterion {num:2d} PASS: {text}")


def test_criterion_01_symmetric_sum_recurrence_vs_enumeration():
    result = verify.suite_homogeneous_sums()
    assert result.failures == []
    assert result.checked == 23076  # exhaustive: k <= 4, |l| <= 3, r <= 8
    _report(1, f"recurrence matches enumeration on {result.checked} cases")


def test_criterion_02_series_inversion_round_trips():
    result = verify.suite_series_inversion()
    assert result.failures == []
    assert result.checked == 1000
    _report(2, "1000 pseudo-random unit series invert exactly")


def test_criterion_03_nilpotency_order_matches_digit_rule():
    result = verify.suite_nilpotency_vs_lucas()
    assert result.failures == []
    assert result.checked == 440  # n <= 30, 2 <= k <= 5, p in {3,5,7,11}
    _report(3, f"unit-weight orders match the binomial digit rule "
               f"({result.checked} cases)")


def test_criterion_04_presentation_invariants_hold():
    result = verify.suite_presentation_invariants()
    assert result.failures == []
    assert result.checked == 1297
    _report(4, f"top degree, rank, palindromicity verified on "
               f"{result.checked} presentations")


def test_criterion_05_tangent_normal_product_is_one():
    result = verify.suite_pontrjagin_product()
    assert result.failures == []
    assert result.checked == 1520  # n <= 20, |l| <= 5, T = 2n over Z
    _report(5, f"tangent * normal = 1 over Z on {result.checked} cases")


def test_criterion_06_span_instance_with_runtime_budget():
    start = time.perf_counter()
    cert = span_certificate(7, WeightTuple((1, 2)), 7)
    elapsed = time.perf_counter() - start
    assert (cert.prime, cert.index, cert.bound) == (7, 2, 19)
    assert cert.witness == 1
    n = 7
    assert cert.bound == 4 * n - 5 - 2 * ((n - 2) // 2)
    assert elapsed < 1.0
    _report(6, f"span <= 19 certified in {elapsed * 1000:.1f} ms")


def test_criterion_07_immersion_instance_closed_form_index():
    # the closed-form claim sits at index 2; the direct scan may do better
    inst = check_immersion_theorem(8, WeightTuple((1, 8)))[0]
    assert inst.prime == 7
    assert inst.index == 2
    assert inst.coefficient == 3
    assert inst.claimed == 31
    assert inst.claimed - 1 == 30
    assert inst.verdict == AGREE
    direct = immersion_certificate(8, WeightTuple((1, 8)), 7)
    assert direct.bound >= inst.claimed - 1
    _report(7, "non-immersion in R^30 witnessed by 3 at index 2 "
               f"(direct scan certifies R^{direct.bound})")


def test_criterion_08_projective_complement_ranks():
    comp = complement_chern(WeightTuple((1, -1)), 16)
    for j in range(16):
        assert comp.coeff(j) == (0 if j % 2 else 1)

    checked = 0
    for n in range(1, 16):
        for l1 in range(-4, 5):
            for l2 in range(-4, 5):
                if math.gcd(l1, l2) != 1:
                    continue
                ell = WeightTuple((l1, l2))
                rep = cp_complement_min_rank(n, ell)
                if homogeneous_sum(ell, n) != 0:
                    assert (rep.lower_bound, rep.achievable) == (n, n)
                else:
                    # only the alternating pairs land here, at odd n
                    assert abs(l1) == 1 and l1 == -l2 and n % 2 == 1
                    assert (rep.lower_bound, rep.achievable) == (n - 1, n - 1)
                checked += 1
    _report(8, f"complement ranks verified on {checked} projective cases")


def test_criterion_09_lens_instance_and_dead_end_diagnostic():
    rep = lens_rank_bound(LensParams(3, 7, 1, 2))
    assert (rep.lower_bound, rep.achievable) == (3, 3)
    assert rep.reason_kind == "homogeneous-sum-mod-m"
    assert homogeneous_sum(WeightTuple((1, 2)), 3) == 15
    assert 15 % 7 != 0

    fired = 0
    for d in range(2, 11, 2):
        for m in range(2, 41, 2):
            for l1 in range(-9, 10):
                for l2 in range(-9, 10):
                    if math.gcd(l1, l2) != 1:
                        continue
                    crit = lens_sq2_criterion(LensParams(d, m, l1, l2))
                    assert crit.value % 2 == 1
                    assert not crit.satisfied
                    assert crit.diagnostic is not None
                    fired += 1
    _report(9, f"lens bound 3 at (d=3, m=7); diagnostic fired on "
               f"{fired} even-parameter cases")


def test_criterion_10_claim_checkers_agree_and_discrepant():
    part1 = check_span_theorem(7, WeightTuple((1, 2)))[0]
    assert (part1.prime, part1.part, part1.verdict) == (7, 1, AGREE)

    instances = check_span_theorem(21, WeightTuple((2, 1)))
    by_key = {(i.prime, i.part): i.verdict for i in instances}
    assert by_key[(7, 2)] == DISCREPANT
    inst = next(i for i in instances if i.prime == 7 and i.part == 2)
    assert inst.index == 10 and inst.coefficient == 0

    inst = check_immersion_theorem(7, WeightTuple((1, 4)))[0]
    assert (inst.prime, inst.verdict) == (3, DISCREPANT)

    for argv in (["check-claims", "--n", "7", "--weights", "1,2"],
                 ["check-claims", "--n", "21", "--weights", "2,1"],
                 ["check-claims", "--n", "7", "--weights", "1,4"]):
        assert main(argv) == 0
    _report(10, "closed-form claims checked: one AGREE, two DISCREPANT, "
                "all exit 0")
