import re

import pytest

import pstiefel.cohomology as cohomology
import pstiefel.geometry as geometry
import pstiefel.verify as verify
import pstiefel.weights as weights
from pstiefel.series import TruncatedSeries


def test_primitive_tuples_enumeration():
    pairs = list(verify._primitive_tuples(2, 1))
    got = sorted(t.weights for t in pairs)
    assert got == [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1),
                   (1, 0), (1, 1)]
    for t in verify._primitive_tuples(3, 2):
        assert len(t) == 3


def test_quick_suites_all_pass():
    results = verify.run_all(quick=True)
    assert [r.name for r in results] == [
        "homogeneous-sums-vs-bruteforce",
        "series-inversion",
        "nilpotency-vs-lucas",
        "presentation-invariants",
        "pontrjagin-product",
    ]
    for r in results:
        assert r.passed, r.failures
        assert r.checked > 0


def test_suite_checked_counts_are_stable():
    # quick grids are deterministic; a shrunk grid is a silent loss of coverage
    assert verify.suite_homogeneous_sums(quick=True).checked == 812
    assert verify.suite_series_inversion(quick=True).checked == 200


def test_injected_fault_is_caught(monkeypatch):
    # flip the recurrence sign; the composition oracle must disagree
    def broken(ell, r):
        hs = [1] + [0] * r
        for w in ell.weights:
            for i in range(1, r + 1):
                hs[i] -= w * hs[i - 1]
        return hs[r]

    monkeypatch.setattr(weights, "homogeneous_sum", broken)
    result = verify.suite_homogeneous_sums(quick=True)
    assert not result.passed
    assert "oracle says" in result.failures[0]


def test_failures_are_capped(monkeypatch):
    monkeypatch.setattr(weights, "homogeneous_sum",
                        lambda ell, r: 10 ** 9)
    result = verify.suite_homogeneous_sums(quick=True)
    assert not result.passed
    assert len(result.failures) <= 3


def test_runner_counts_every_check_and_keeps_the_first_three_failures():
    @verify._suite("demo")
    def demo(quick):
        yield from (None, "a", None, "b", "c", "d") if quick else ("e",)

    @verify._suite("empty")
    def empty(quick):
        yield from ()

    assert demo(quick=True) == verify.SuiteResult("demo", 6, ["a", "b", "c"])
    assert demo() == verify.SuiteResult("demo", 1, ["e"])
    assert empty() == verify.SuiteResult("empty", 0, [])
    assert empty().passed


# Each suite against a broken copy of the engine function it checks: the
# suite still counts every check of its quick grid, fails, and keeps three
# messages in its own format.
@pytest.mark.parametrize("suite,owner,name,fake,checked,pattern", [
    (verify.suite_series_inversion, TruncatedSeries, "inv",
     lambda self: self, 200,
     r"a \* inv\(a\) != 1 for \(.* \+ O\(x\^\d+\)( mod \d)?\)$"),
    (verify.suite_nilpotency_vs_lucas, cohomology, "nilpotency_order",
     lambda params, p: params.n + 1, 152,
     r"order\(n=\d+, k=\d+, p=\d+\) = \d+, digit rule says \d+$"),
    (verify.suite_presentation_invariants, cohomology, "poincare_polynomial",
     lambda pres: [1], 567,
     r"odd p=\d+ n=\d+ k=\d ell=\([-\d, ]+\): PresentationCheck\(.*\)$"),
    (verify.suite_pontrjagin_product, geometry, "normal_pontrjagin",
     lambda n, ell, truncation: geometry.tangent_pontrjagin(
         n, ell, truncation=truncation), 224,
     r"tangent\*normal != 1 for n=\d+, ell=\(-?\d+, -?\d+\)$"),
], ids=["series-inversion", "nilpotency-vs-lucas", "presentation-invariants",
        "pontrjagin-product"])
def test_injected_fault_fails_its_suite(monkeypatch, suite, owner, name, fake,
                                        checked, pattern):
    monkeypatch.setattr(owner, name, fake)
    result = suite(quick=True)
    assert not result.passed
    assert result.checked == checked
    assert len(result.failures) == 3
    for message in result.failures:
        assert re.match(pattern, message), message
