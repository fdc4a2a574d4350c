"""Quantum torus: twisted Laurent monomials over a skew form."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qskein._kernels import coeff_add, torus_mul
from qskein.qcoeff import DivisionFailure, QCoeff
from qskein.qtorus import SkewForm, TorusElement

FORM = SkewForm([[0, 1, -2], [-1, 0, 3], [2, -3, 0]])


def mono(alpha, k=0):
    return TorusElement.monomial(FORM, alpha, QCoeff.v(k))


exponents = st.tuples(*[st.integers(-2, 2)] * 3)
elements = st.dictionaries(exponents, st.integers(-4, 4).filter(bool), max_size=4).map(
    lambda d: sum(
        (TorusElement.monomial(FORM, a, QCoeff.from_int(c)) for a, c in d.items()),
        TorusElement.zero(FORM),
    )
)
nonzero_elements = elements.filter(lambda x: not x.is_zero())


class TestForm:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SkewForm([[0, 1]])

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            SkewForm([[0, 1], [1, 0]])

    def test_pairing(self):
        assert FORM.pairing((1, 0, 0), (0, 1, 0)) == 1
        assert FORM.pairing((0, 1, 0), (1, 0, 0)) == -1
        assert FORM.row_pairing(2, (1, 1, 0)) == 2 - 3


class TestProduct:
    def test_twisted_commutation(self):
        x, y = mono((1, 0, 0)), mono((0, 1, 0))
        prod = x * y
        assert prod.support() == [(1, 1, 0)]
        assert prod.coefficient((1, 1, 0)) == QCoeff.v(1)
        assert x * y == (y * x).scale(QCoeff.v(2))

    def test_power(self):
        x = mono((1, 0, 0)) + mono((0, 0, 1))
        assert x**3 == x * x * x
        assert x**0 == TorusElement.monomial(FORM, (0, 0, 0))

    def test_mixed_form_rejected(self):
        other = SkewForm([[0, 0], [0, 0]])
        with pytest.raises(ValueError):
            mono((1, 0, 0)) * TorusElement.monomial(other, (1, 0))

    @given(elements, elements, elements)
    @settings(max_examples=60)
    def test_ring_laws(self, x, y, z):
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) - y == x

    def test_shift_scales_by_v(self):
        x = mono((1, 0, 0)) + mono((0, 1, 0), 2)
        assert x.shift(3) == x.scale(QCoeff.v(3))


class TestBar:
    def test_fixes_monomials(self):
        x = mono((2, -1, 3))
        assert x.bar() == x

    @given(elements, elements)
    @settings(max_examples=60)
    def test_antiautomorphism(self, x, y):
        assert (x * y).bar() == y.bar() * x.bar()

    @given(elements)
    @settings(max_examples=60)
    def test_involution(self, x):
        assert x.bar().bar() == x


class TestCollect:
    @given(elements)
    @settings(max_examples=60)
    def test_reassembly(self, x):
        for i in range(3):
            layers = x.collect_on_index(i)
            e_i = tuple(1 if j == i else 0 for j in range(3))
            total = TorusElement.zero(FORM)
            for k, y in layers.items():
                total = total + TorusElement.monomial(FORM, tuple(k * c for c in e_i)) * y
            assert total == x
            for y in layers.values():
                assert all(a[i] == 0 for a in y.support())


class TestDivision:
    @given(nonzero_elements, elements)
    @settings(max_examples=60)
    def test_left_division_inverts_left_multiplication(self, d, x):
        assert (d * x).exact_divide_left(d) == x

    def test_failure_raises(self):
        with pytest.raises(DivisionFailure):
            (mono((1, 0, 0)) + mono((0, 1, 0))).exact_divide_left(
                mono((1, 0, 0)) + mono((0, 0, 0))
            )

    def test_zero_divisor_raises(self):
        with pytest.raises(DivisionFailure):
            mono((1, 0, 0)).exact_divide_left(TorusElement.zero(FORM))

    def test_zero_dividend(self):
        assert TorusElement.zero(FORM).exact_divide_left(mono((1, 0, 0))).is_zero()

    def test_binomial_quotient(self):
        d = mono((1, 0, 0)) + mono((0, 1, 0))
        x = mono((0, 0, 1)) + mono((1, 1, 0), 1)
        assert (d * x).exact_divide_left(d) == x


class TestLattice:
    def test_is_laurent_in_sublattice(self):
        x = mono((1, -2, 0))
        assert x.is_laurent_in_sublattice({1})
        assert not x.is_laurent_in_sublattice(set())


class TestJson:
    @given(elements)
    @settings(max_examples=40)
    def test_round_trip(self, x):
        data = x.to_json()
        assert TorusElement.from_json(data) == x
        assert TorusElement.from_json(data).to_json() == data

    def test_schema_fields(self):
        data = mono((1, 0, -1), 2).to_json()
        assert set(data) == {"rank", "lambda", "terms"}
        assert data["rank"] == 3
        assert data["terms"][0]["exp"] == [1, 0, -1]


class TestKernelContract:
    """The raw kernels on builtin dicts, below TorusElement."""

    def test_zero_results_filtered(self):
        assert coeff_add({1: 2}, {1: -2}) == {}
        lam = ((0, 1), (-1, 0))
        got = torus_mul({(1, 0): {0: 1}}, {(0, 1): {0: 1}}, lam)
        assert got == {(1, 1): {1: 1}}

    def test_commutation_twist_sign(self):
        lam = ((0, 1), (-1, 0))
        xy = torus_mul({(1, 0): {0: 1}}, {(0, 1): {0: 1}}, lam)
        yx = torus_mul({(0, 1): {0: 1}}, {(1, 0): {0: 1}}, lam)
        assert xy == {(1, 1): {1: 1}}
        assert yx == {(1, 1): {-1: 1}}
