"""The value types: immutable tuple records that equal the plain tuple of
their fields and hash as it unless they hold a list, copy and pickle, and
have a Name(field=value, ...) repr; and an import that generates no code
for them."""

import copy
import pickle
import subprocess
import sys

import pytest

from pstiefel.cohomology import (CohomologyPresentation, PresentationCheck,
                                 StiefelParams)
from pstiefel.geometry import (Certificate, ClaimCheck, ClaimInstance,
                               CriterionResult, LensParams, RankBoundReport,
                               Sweep)
from pstiefel.series import TruncatedSeries
from pstiefel.verify import SuiteResult
from pstiefel.weights import WeightTuple

W = WeightTuple((1, 2))
SPAN = Certificate(3, 1, 2, 5)
# SuiteResult's failures and PresentationCheck's poincare are lists
UNHASHABLE = ("SuiteResult", "PresentationCheck")
INSTANCE = ClaimInstance(3, 1, (("p divides n", True),), 1, True, 2, 5,
                         "AGREE")

# A case names its type, then an optional "-" and variant: (factory, a
# field to assign, the repr).
RECORDS = {
    "StiefelParams": (
        lambda: StiefelParams(4, 2, WeightTuple((1, 2))), "n",
        "StiefelParams(n=4, k=2, ell=WeightTuple(weights=(1, 2)))"),
    "CohomologyPresentation": (
        lambda: CohomologyPresentation(3, 4, (5, 7)), "prime",
        "CohomologyPresentation(prime=3, nilpotency_order=4, "
        "exterior_degrees=(5, 7), mod2_square_relations=False)"),
    "PresentationCheck": (
        lambda: PresentationCheck(3, 3, 4, 4, True, [1, 1, 1, 1]),
        "poincare",
        "PresentationCheck(top_degree=3, expected_top_degree=3, "
        "total_rank=4, expected_rank=4, palindromic=True)"),
    "Certificate-span": (
        lambda: Certificate(3, 1, 2, 5), "witness",
        "Certificate(prime=3, index=1, witness=2, bound=5, claimed=None)"),
    "Certificate-immersion": (
        lambda: Certificate(3, 1, 2, 6, 7), "claimed",
        "Certificate(prime=3, index=1, witness=2, bound=6, claimed=7)"),
    "Sweep": (
        lambda: Sweep(7, W, 28, (SPAN,), SPAN), "best",
        "Sweep(n=7, ell=WeightTuple(weights=(1, 2)), prime_bound=28, "
        "certificates=(Certificate(prime=3, index=1, witness=2, bound=5, "
        "claimed=None),), best=Certificate(prime=3, index=1, witness=2, "
        "bound=5, claimed=None))"),
    "ClaimInstance": (
        lambda: ClaimInstance(3, 1, (("p divides n", True),), 1, True, 2, 5,
                              "AGREE"), "verdict",
        "ClaimInstance(prime=3, part=1, hypotheses=(('p divides n', True),), "
        "index=1, admissible=True, coefficient=2, claimed=5, "
        "verdict='AGREE', notes=())"),
    "ClaimCheck": (
        lambda: ClaimCheck("span", 7, W, (INSTANCE,)), "instances",
        "ClaimCheck(kind='span', n=7, ell=WeightTuple(weights=(1, 2)), "
        "instances=(ClaimInstance(prime=3, part=1, hypotheses=(('p divides "
        "n', True),), index=1, admissible=True, coefficient=2, claimed=5, "
        "verdict='AGREE', notes=()),))"),
    "RankBoundReport": (
        lambda: RankBoundReport("CP^3", 2, 3, "chern-nonzero", 2, 5),
        "lower_bound",
        "RankBoundReport(space='CP^3', lower_bound=2, achievable=3, "
        "reason_kind='chern-nonzero', reason_index=2, reason_value=5, "
        "notes=(), criterion=None)"),
    "LensParams": (
        lambda: LensParams(4, 3, 1, 2), "d",
        "LensParams(d=4, m=3, l1=1, l2=2)"),
    "CriterionResult": (
        lambda: CriterionResult(False, (("d even", True),), 31), "value",
        "CriterionResult(satisfied=False, hypotheses=(('d even', True),), "
        "value=31, diagnostic=None)"),
    "SuiteResult": (
        lambda: SuiteResult("demo", 1, ["a"]), "checked",
        "SuiteResult(name='demo', checked=1, failures=['a'])"),
    "TruncatedSeries": (
        lambda: TruncatedSeries((1, 2), 3), "coeffs",
        "(1 + 2*x + O(x^3))"),
    "WeightTuple": (
        lambda: WeightTuple((1, 2)), "weights",
        "WeightTuple(weights=(1, 2))"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_values(name):
    make, field, text = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name.partition("-")[0]
    assert a == b and not a != b
    assert repr(a) == text
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(a))
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 0
    assert a == b
    for c in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(c) is type(a) and c == a
    plain = tuple(a)
    assert type(plain) is tuple and a == plain and plain == a


def test_importing_the_cli_generates_no_record_code():
    # dataclasses (and the inspect it imports) generated and compiled
    # about six methods per record at every import
    code = ("import sys; before = set(sys.modules); import pstiefel.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    added = set(proc.stdout.split())
    assert "pstiefel.cli" in added
    assert not added & {"dataclasses", "inspect", "typing"}
