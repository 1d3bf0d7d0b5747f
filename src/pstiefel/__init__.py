"""Exact mod-p topology of circle quotients of complex Stiefel manifolds.

Integer-exact computations throughout: cohomology presentations,
characteristic class series, span and non-immersion certificates,
complement rank bounds, and checkers that compare closed-form claims
against direct series computation.
"""

from .cohomology import (CohomologyPresentation, InvariantViolation,
                         PresentationCheck, StiefelParams,
                         check_presentation_invariants, nilpotency_order,
                         poincare_polynomial, presentation_mod2,
                         presentation_odd)
from .geometry import (AGREE, DISCREPANT, NOT_APPLICABLE, Certificate,
                       ClaimInstance, CriterionResult, LensParams,
                       RankBoundReport, best_immersion_bound, best_span_bound,
                       check_immersion_theorem, check_span_theorem,
                       cp_complement_min_rank, immersion_certificate,
                       lens_rank_bound, lens_sq2_criterion, normal_pontrjagin,
                       span_certificate, tangent_pontrjagin)
from .ring import gcd_all, is_prime, lucas_binom, p_adic_valuation
from .series import TruncatedSeries
from .weights import (WeightTuple, complement_chern, homogeneous_sum,
                      homogeneous_sums, total_chern)

__version__ = "0.1.0"

__all__ = [
    "AGREE",
    "DISCREPANT",
    "NOT_APPLICABLE",
    "Certificate",
    "ClaimInstance",
    "CohomologyPresentation",
    "CriterionResult",
    "InvariantViolation",
    "LensParams",
    "PresentationCheck",
    "RankBoundReport",
    "StiefelParams",
    "TruncatedSeries",
    "WeightTuple",
    "best_immersion_bound",
    "best_span_bound",
    "check_immersion_theorem",
    "check_presentation_invariants",
    "check_span_theorem",
    "complement_chern",
    "cp_complement_min_rank",
    "gcd_all",
    "homogeneous_sum",
    "homogeneous_sums",
    "immersion_certificate",
    "is_prime",
    "lens_rank_bound",
    "lens_sq2_criterion",
    "lucas_binom",
    "nilpotency_order",
    "normal_pontrjagin",
    "p_adic_valuation",
    "poincare_polynomial",
    "presentation_mod2",
    "presentation_odd",
    "span_certificate",
    "tangent_pontrjagin",
    "total_chern",
]
