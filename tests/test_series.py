import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstiefel.series import TruncatedSeries


def S(coeffs, truncation, modulus=0):
    return TruncatedSeries(coeffs, truncation, modulus)


# Oracles independent of the sparse loops and of Knuth's power recurrence:
# the dense schoolbook product and inverse, and the power by repeated
# squaring over them.

def schoolbook_mul(self, other):
    """Cauchy product, truncated."""
    self._check_compatible(other)
    T = self.truncation
    a, b = self.coeffs, other.coeffs
    out = [0] * T
    for i, av in enumerate(a):
        if not av:
            continue
        for j, bv in enumerate(b[: T - i]):
            if bv:
                out[i + j] += av * bv
    return TruncatedSeries(out, T, self.modulus)


def schoolbook_inv(self):
    """Multiplicative inverse; the constant term must be a unit."""
    T, m = self.truncation, self.modulus
    a = self.coeffs
    c0 = a[0]
    if m == 0:
        if c0 not in (1, -1):
            raise ValueError(
                f"not invertible over Z: constant term {c0} is not a unit")
        b0 = c0
    else:
        try:
            b0 = pow(c0, -1, m)
        except ValueError:
            raise ValueError(
                f"not invertible mod {m}: constant term {c0} "
                f"shares a factor with the modulus") from None
    b = [0] * T
    b[0] = b0
    for i in range(1, T):
        s = 0
        for j in range(1, i + 1):
            if a[j]:
                s += a[j] * b[i - j]
        b[i] = -b0 * s % m if m else -b0 * s
    return TruncatedSeries(b, T, m)


def power_by_squaring(self, e):
    """Integer power by repeated squaring; negative e inverts first."""
    base = self
    if e < 0:
        base = schoolbook_inv(self)
        e = -e
    result = TruncatedSeries.one(self.truncation, self.modulus)
    while e:
        if e & 1:
            result = schoolbook_mul(result, base)
        e >>= 1
        if e:
            base = schoolbook_mul(base, base)
    return result


def outcome(fn, *args):
    """The series fn returns, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def sparse_series(draw, truncation, modulus):
    """Mostly zero coefficients, with zero, non-unit and unit constant
    terms and leading zeros (a positive x-valuation) all drawn often."""
    value = st.integers(-30, 30) if modulus == 0 else st.integers(
        0, modulus - 1)
    coeffs = draw(st.lists(st.one_of(st.just(0), st.just(0), value),
                           min_size=truncation, max_size=truncation))
    coeffs[0] = draw(st.one_of(st.sampled_from([0, 1, -1, 2, -3]), value))
    return S(coeffs, truncation, modulus)


MODULI = [0, 2, 3, 4, 6, 7, 9, 12, 25]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), T=st.integers(1, 40), m=st.sampled_from(MODULI),
       e=st.integers(-12, 12))
def test_kernels_match_the_dense_oracles(data, T, m, e):
    a = data.draw(sparse_series(T, m))
    b = data.draw(sparse_series(T, m))
    assert outcome(a.int_pow, e) == outcome(power_by_squaring, a, e)
    assert outcome(a.inv) == outcome(schoolbook_inv, a)
    assert a.mul(b) == schoolbook_mul(a, b)
    assert b.mul(a) == schoolbook_mul(a, b)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), T=st.integers(1, 40), m=st.sampled_from(MODULI))
def test_division_is_the_product_with_the_inverse(data, T, m):
    d = data.draw(sparse_series(T, m))
    u = data.draw(sparse_series(T, m))
    want = outcome(lambda: schoolbook_mul(u, schoolbook_inv(d)))
    assert outcome(d.inv, u) == want
    assert outcome(lambda: u.mul(d.inv())) == want


class TestConstruction:
    def test_pads_and_trims_to_truncation(self):
        assert S((1, 2), 4).coeffs == (1, 2, 0, 0)
        assert S((1, 2, 3, 4, 5), 3).coeffs == (1, 2, 3)

    def test_reduces_coefficients(self):
        assert S((4, -1, 9), 3, 3).coeffs == (1, 2, 0)

    def test_invalid_truncation_or_modulus(self):
        with pytest.raises(ValueError):
            S((1,), 0)
        with pytest.raises(ValueError):
            S((1,), 3, 1)
        with pytest.raises(ValueError):
            S((1,), 3, -2)

    def test_immutable(self):
        a = S((1, 2), 3)
        with pytest.raises(AttributeError):
            a.coeffs = (0,)

    def test_one(self):
        assert TruncatedSeries.one(3).coeffs == (1, 0, 0)
        assert TruncatedSeries.one(2, 5).is_one()

    def test_equality_and_hash(self):
        assert S((1, 2), 4) == S((1, 2, 0), 4)
        assert S((1, 2), 4) != S((1, 2), 5)
        assert S((1,), 3, 5) != S((1,), 3, 7)
        assert len({S((1, 2), 4), S((1, 2, 0, 0), 4)}) == 1


class TestMul:
    def test_difference_of_squares(self):
        assert (S((1, 1), 4) * S((1, -1), 4)).coeffs == (1, 0, -1, 0)

    def test_telescoping_product_truncates(self):
        # (1+x+x^2+x^3)(1-x) = 1 - x^4, which dies at T=4
        assert (S((1, 1, 1, 1), 4) * S((1, -1), 4)).is_one()

    def test_modular_product(self):
        a = S((1, 2), 3, 3)
        assert (a * a).coeffs == (1, 1, 1)

    def test_truncation_mismatch(self):
        with pytest.raises(ValueError, match="truncation mismatch"):
            S((1,), 3) * S((1,), 4)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError, match="modulus mismatch"):
            S((1,), 3, 5) * S((1,), 3)

    def test_tuple_arithmetic_is_refused(self):
        # a series is a tuple record, but + and int * would concatenate
        # or repeat it; * between series is the product
        s, t = S((1, 2), 3), S((1, 1), 3)
        for expression in (lambda: s + t, lambda: (1,) + s, lambda: 3 * s):
            with pytest.raises(TypeError, match="no repetition"):
                expression()
        # a product, quotient or inverse of a series and a non-series
        for expression in (lambda: s * 3, lambda: s.mul(3),
                           lambda: s.inv(3)):
            with pytest.raises(TypeError,
                               match="^expected a TruncatedSeries, got int$"):
                expression()
        assert s * t == S((1, 3, 2), 3)


class TestInv:
    def test_geometric_series(self):
        assert S((1, -1), 4).inv().coeffs == (1, 1, 1, 1)

    def test_even_geometric_series(self):
        assert S((1, 0, -1), 6).inv().coeffs == (1, 0, 1, 0, 1, 0)

    def test_negative_unit_over_integers(self):
        a = S((-1, 1), 4)
        assert (a * a.inv()).is_one()

    def test_non_unit_constant_rejected(self):
        with pytest.raises(ValueError, match="not invertible over Z"):
            S((2, 1), 2).inv()

    def test_non_unit_mod_m_rejected(self):
        with pytest.raises(ValueError, match="not invertible mod 6"):
            S((3, 1), 2, 6).inv()

    def test_division(self):
        # (1 + x)^2 / (1 - x) = 1 + 3x + 4x^2 + 4x^3 + ...
        assert S((1, -1), 5).inv(S((1, 2, 1), 5)).coeffs == (1, 3, 4, 4, 4)
        assert S((1, -1), 5, 3).inv(S((1, 2, 1), 5, 3)).coeffs == (
            1, 0, 1, 1, 1)

    def test_numerator_must_match(self):
        with pytest.raises(ValueError, match="truncation mismatch"):
            S((1, -1), 4).inv(S((1,), 5))
        with pytest.raises(ValueError, match="modulus mismatch"):
            S((1, -1), 4).inv(S((1,), 4, 7))

    def test_unit_mod_m(self):
        a = S((2, 1), 5, 7)
        assert (a * a.inv()).is_one()

    def test_random_inversions_round_trip(self):
        rng = random.Random(20240817)
        for trial in range(300):
            m = (0, 3, 5, 7)[trial % 4]
            T = rng.randint(1, 32)
            if m == 0:
                coeffs = [rng.choice([1, -1])]
                coeffs += [rng.randint(-9, 9) for _ in range(T - 1)]
            else:
                coeffs = [rng.randint(1, m - 1)]
                coeffs += [rng.randint(0, m - 1) for _ in range(T - 1)]
            a = S(coeffs, T, m)
            b = a.inv()
            assert (a * b).is_one()
            assert (b * a).is_one()


class TestIntPow:
    def test_negative_square(self):
        assert S((1, 0, -1), 6).int_pow(-2).coeffs == (1, 0, 2, 0, 3, 0)

    def test_power_zero(self):
        assert S((1, 5, 5), 3).int_pow(0).is_one()

    def test_modular_negative_power(self):
        # binomial coefficients C(16,1) = 16 and C(17,2) = 136 reduced mod 7
        got = S((1, 0, -1), 6, 7).int_pow(-16)
        assert got.coeffs == (1, 0, 2, 0, 3, 0)

    def test_matches_repeated_multiplication(self):
        a = S((1, 3, -2, 1), 8)
        by_mul = TruncatedSeries.one(8)
        for e in range(6):
            assert a.int_pow(e) == by_mul
            by_mul = by_mul * a


class TestCoeffAndReduce:
    def test_coeff_returns_residue(self):
        c = S((1, 1, 1), 3, 5).coeff(1)
        assert c == 1 and type(c) is int

    def test_coeff_pinned_values(self):
        assert S((1, 1, 1), 3).coeff(1) == 1
        assert S((1, 0, -1), 8).inv().coeff(7) == 0
        assert S((1, -1), 5).int_pow(-2).coeff(3) == 4

    def test_coeff_beyond_truncation(self):
        with pytest.raises(IndexError, match="outside truncation"):
            S((1,), 3).coeff(3)


def test_repr_is_compact():
    assert repr(S((1, 0, -1), 4)) == "(1 + -1*x^2 + O(x^4))"
    assert "mod 7" in repr(S((1, 2), 3, 7))
