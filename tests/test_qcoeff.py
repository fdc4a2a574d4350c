"""Coefficient ring: integer Laurent polynomials in v = q^(1/2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qskein.qcoeff import (
    UNKNOT_SCALAR,
    DivisionFailure,
    QCoeff,
    exact_divide,
    parse,
    render,
)

coeffs = st.builds(
    QCoeff,
    st.dictionaries(
        st.integers(-8, 8),
        st.integers(-9, 9).filter(lambda x: x != 0),
        max_size=5,
    ),
)
nonzero_coeffs = coeffs.filter(lambda c: not c.is_zero())


class TestConstruction:
    def test_zero_one(self):
        assert QCoeff.zero().is_zero()
        assert not QCoeff.one().is_zero()
        assert QCoeff.one() == QCoeff.from_int(1)

    def test_v_and_q_exponents(self):
        assert QCoeff.q(1) == QCoeff.v(2)
        assert QCoeff.q(-3) == QCoeff.v(-6)
        assert QCoeff.v(1, 5).coefficient(1) == 5

    def test_zero_coefficients_dropped(self):
        assert QCoeff({3: 0}) == QCoeff.zero()

    def test_unknot_scalar(self):
        assert UNKNOT_SCALAR == -QCoeff.q(2) - QCoeff.q(-2)
        assert UNKNOT_SCALAR.specialize_q1() == -2


class TestArithmetic:
    def test_known_product(self):
        lhs = (QCoeff.q(1) + QCoeff.one()) * (QCoeff.one() + QCoeff.q(-1))
        rhs = QCoeff.q(1) + QCoeff.from_int(2) + QCoeff.q(-1)
        assert lhs == rhs

    def test_shift_is_v_multiplication(self):
        x = QCoeff.q(1) + QCoeff.from_int(3)
        assert x.shift(5) == x * QCoeff.v(5)

    def test_power_matches_repeated_multiplication(self):
        x = QCoeff.q(1) + QCoeff.from_int(2)
        expected = QCoeff.one()
        for k in range(7):
            assert x**k == expected
            expected = expected * x

    @pytest.mark.parametrize("k, products", [(0, 0), (1, 1), (2, 2), (3, 3), (4, 3)])
    def test_power_squares_only_while_bits_remain(self, monkeypatch, k, products):
        import qskein.qcoeff
        from qskein._kernels import coeff_mul

        calls = []

        def counting(*args):
            calls.append(1)
            return coeff_mul(*args)

        monkeypatch.setattr(qskein.qcoeff, "coeff_mul", counting)
        QCoeff.q(1) ** k
        assert len(calls) == products

    def test_min_max_v(self):
        x = QCoeff.q(2) + QCoeff.v(-1)
        assert x.min_v() == -1
        assert x.max_v() == 4

    @given(coeffs, coeffs, coeffs)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + QCoeff.zero() == a
        assert a * QCoeff.one() == a
        assert a - a == QCoeff.zero()

    @given(coeffs, coeffs)
    def test_specialize_q1_is_a_ring_map(self, a, b):
        assert (a + b).specialize_q1() == a.specialize_q1() + b.specialize_q1()
        assert (a * b).specialize_q1() == a.specialize_q1() * b.specialize_q1()


class TestBar:
    def test_bar_flips_exponents(self):
        assert QCoeff.q(1).bar() == QCoeff.q(-1)
        assert QCoeff.v(3, 2).bar() == QCoeff.v(-3, 2)

    @given(coeffs)
    def test_bar_is_an_involution(self, a):
        assert a.bar().bar() == a

    @given(coeffs, coeffs)
    def test_bar_is_multiplicative(self, a, b):
        assert (a * b).bar() == a.bar() * b.bar()


class TestDivision:
    def test_long_division_example(self):
        num = QCoeff.q(1) + QCoeff.from_int(2) + QCoeff.q(-1)
        den = QCoeff.q(1) + QCoeff.one()
        assert exact_divide(num, den) == QCoeff.one() + QCoeff.q(-1)

    def test_inexact_division_fails(self):
        with pytest.raises(DivisionFailure):
            exact_divide(QCoeff.q(2) + QCoeff.one(), QCoeff.q(1) + QCoeff.one())

    def test_division_by_zero_fails(self):
        with pytest.raises(DivisionFailure):
            exact_divide(QCoeff.one(), QCoeff.zero())

    def test_method_matches_module_function(self):
        num = QCoeff.q(1) + QCoeff.from_int(2) + QCoeff.q(-1)
        den = QCoeff.q(1) + QCoeff.one()
        assert num.exact_divide(den) == exact_divide(num, den)

    @given(coeffs, nonzero_coeffs)
    def test_division_inverts_multiplication(self, a, b):
        assert exact_divide(a * b, b) == a

    def test_integer_content_must_divide(self):
        with pytest.raises(DivisionFailure):
            exact_divide(QCoeff.from_int(3), QCoeff.from_int(2))
        assert exact_divide(QCoeff.from_int(6), QCoeff.from_int(2)) == QCoeff.from_int(3)


class TestRendering:
    def test_known_renders(self):
        assert render(QCoeff.zero()) == "0"
        assert render(QCoeff.q(1)) == "q"
        assert render(QCoeff.v(1)) == "q^(1/2)"
        assert render(QCoeff.v(-3, 2)) == "2*q^(-3/2)"
        assert render(QCoeff.from_int(-5)) == "-5"

    @given(coeffs)
    def test_parse_render_round_trip(self, a):
        assert parse(render(a)) == a
