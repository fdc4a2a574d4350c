"""Coefficient ring: integer Laurent polynomials in v = q^(1/2), and the shared element core."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qskein.disc import DiscElement, all_chords
from qskein.qcoeff import (
    UNKNOT_SCALAR,
    DivisionFailure,
    QCoeff,
    exact_divide,
    parse,
    render,
)
from qskein.qtorus import SkewForm, TorusElement

coeffs = st.builds(
    QCoeff,
    st.dictionaries(
        st.integers(-8, 8),
        st.integers(-9, 9).filter(lambda x: x != 0),
        max_size=5,
    ),
)
nonzero_coeffs = coeffs.filter(lambda c: not c.is_zero())


FORM = SkewForm([[0, 1], [-1, 0]])
DISC_KEYS = [()] + [((c, 1),) for c in all_chords(5)] + [(((1, 2), 1), ((1, 3), 2))]

torus_elements = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), coeffs, max_size=4
).map(lambda d: TorusElement(FORM, d))
disc_elements = st.dictionaries(st.sampled_from(DISC_KEYS), coeffs, max_size=4).map(
    lambda d: DiscElement(5, d)
)
#: Both kinds of LinearCombination, and pairs of one kind.
elements = st.one_of(torus_elements, disc_elements)
pairs = st.one_of(
    st.tuples(torus_elements, torus_elements), st.tuples(disc_elements, disc_elements)
)


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


class TestHash:
    def test_constants_hash_like_their_ints(self):
        for n in [-3, 0, 1, 5]:
            assert QCoeff.from_int(n) == n
            assert hash(QCoeff.from_int(n)) == hash(n)
        assert hash(QCoeff.zero()) == hash(0)
        assert 5 in {QCoeff.from_int(5)}
        assert QCoeff.from_int(5) in {5}
        assert 0 in {QCoeff.zero()}

    @given(coeffs)
    def test_equal_coefficients_hash_equal(self, x):
        y = (x + QCoeff.one()) - QCoeff.one()
        assert y == x
        assert hash(y) == hash(x)


class TestLinearCombination:
    """The laws of the shared core, on torus and disc elements alike."""

    @given(elements)
    def test_additive_inverse_and_zero(self, x):
        zero = x.scale(0)
        assert zero.is_zero() and not zero
        assert type(zero) is type(x)
        assert x + (-x) == zero
        assert x - x == zero
        assert x + zero == x

    @given(elements)
    def test_bar_is_an_involution(self, x):
        assert x.bar().bar() == x

    @given(elements, coeffs)
    def test_scalars(self, x, c):
        assert c * x == x.scale(c) == x * c
        assert 2 * x == x + x
        assert x.scale(c).bar() == x.bar().scale(c.bar())

    @given(pairs)
    def test_equal_elements_hash_equal(self, xy):
        x, y = xy
        z = (x + y) - y
        assert z == x
        assert hash(z) == hash(x)

    @given(pairs)
    def test_specialize_q1_is_additive(self, xy):
        x, y = xy
        sx, sy = x.specialize_q1(), y.specialize_q1()
        expected = {k: sx.get(k, 0) + sy.get(k, 0) for k in sx.keys() | sy.keys()}
        assert (x + y).specialize_q1() == {k: v for k, v in expected.items() if v}

    def test_cross_space_sums_keep_their_messages(self):
        with pytest.raises(ValueError, match="^elements live in different tori$"):
            TorusElement.zero(FORM) + TorusElement.zero(SkewForm([[0]]))
        with pytest.raises(ValueError, match="^elements live in different tori$"):
            TorusElement.zero(FORM) - TorusElement.zero(SkewForm([[0]]))
        with pytest.raises(ValueError, match="^elements live on discs of different sizes$"):
            DiscElement.zero(4) + DiscElement.zero(5)
        with pytest.raises(ValueError, match="^elements live on discs of different sizes$"):
            DiscElement.zero(4) - DiscElement.zero(5)

    def test_disc_never_equals_torus(self):
        # The same term dict {(): {0: 1}} on both sides.
        disc_one = DiscElement.one(4)
        torus_one = TorusElement.monomial(SkewForm([]), ())
        assert disc_one._terms == torus_one._terms
        assert disc_one != torus_one and torus_one != disc_one
        assert DiscElement.zero(4) != TorusElement.zero(FORM)
        with pytest.raises(TypeError):
            disc_one + torus_one
        with pytest.raises(TypeError):
            torus_one - disc_one

    def test_text_form(self):
        x = TorusElement(FORM, {(1, 0): QCoeff.q(1), (0, -1): QCoeff.from_int(-2)})
        assert str(x) == "(-2)*M[0, -1] + (q)*M[1, 0]"
        assert repr(x) == f"TorusElement({x})"
        y = DiscElement(5, {(((1, 2), 1), ((1, 3), 2)): QCoeff.v(1)})
        assert str(y) == "(q^(1/2))*x[1, 2]*x[1, 3]^2"
        assert repr(DiscElement.zero(5)) == "DiscElement(0)"
