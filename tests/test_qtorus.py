"""Quantum torus: twisted Laurent monomials over a skew form."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qskein._kernels import coeff_add, coeff_mul, torus_mul
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

    def test_power_matches_repeated_multiplication(self):
        x = mono((1, 0, 0)) + mono((0, 1, -1), 1)
        expected = TorusElement.monomial(FORM, (0, 0, 0))
        for k in range(7):
            assert x**k == expected
            expected = expected * x

    @pytest.mark.parametrize("k, products", [(0, 0), (1, 1), (2, 2), (3, 3), (4, 3)])
    def test_power_squares_only_while_bits_remain(self, monkeypatch, k, products):
        import qskein.qtorus

        calls = []

        def counting(*args):
            calls.append(1)
            return torus_mul(*args)

        monkeypatch.setattr(qskein.qtorus, "torus_mul", counting)
        mono((1, 0, 0)) ** k
        assert len(calls) == products

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


def dict_torus_mul(xterms: dict, yterms: dict, lam: tuple) -> dict:
    """The dict-loop torus product that the packed kernel replaced: its oracle."""
    out: dict = {}
    for beta, cb in yterms.items():
        lamb = [sum(row[j] * bj for j, bj in enumerate(beta) if bj) for row in lam]
        for alpha, ca in xterms.items():
            s = sum(ai * li for ai, li in zip(alpha, lamb) if ai)
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            prod = coeff_mul(ca, cb)
            if s:
                prod = {k + s: c for k, c in prod.items()}
            cur = out.get(gamma)
            out[gamma] = coeff_add(cur, prod) if cur is not None else prod
    return {g: c for g, c in out.items() if c}


BIG = 2**70
ints = st.one_of(
    st.integers(-3, 3), st.integers(BIG, 4 * BIG), st.integers(-4 * BIG, -BIG)
).filter(bool)


@st.composite
def skew_forms(draw, n):
    upper = {(i, j): draw(st.integers(-3, 3)) for i in range(n) for j in range(i + 1, n)}
    return tuple(
        tuple(upper[i, j] if i < j else -upper[j, i] if i > j else 0 for j in range(n))
        for i in range(n)
    )


@st.composite
def raw_coeffs(draw, stride, max_terms):
    """Exponents base + stride * i: one residue class per coefficient, bases varying."""
    base = draw(st.integers(-3, 3))
    steps = st.integers(-4, 4).map(lambda i: base + stride * i)
    return draw(st.dictionaries(steps, ints, min_size=1, max_size=max_terms))


@st.composite
def raw_operands(draw):
    """(x, y, lam) as raw dicts: rank 0-3, possibly empty, strides 1, 2 or 8."""
    n = draw(st.integers(0, 3))
    lam = draw(skew_forms(n))
    stride = draw(st.sampled_from([1, 2, 8]))
    max_terms = draw(st.sampled_from([1, 4]))
    exps = st.tuples(*[st.integers(-1, 1)] * n)
    terms = st.dictionaries(exps, raw_coeffs(stride, max_terms), max_size=4)
    return draw(terms), draw(terms), lam


def dict_ids(terms):
    return [id(terms)] + [id(c) for c in terms.values()]


class TestPackedKernel:
    """torus_mul against the dict oracle, on raw operands below TorusElement."""

    def assert_matches_oracle(self, x, y, lam):
        x0, y0 = copy.deepcopy(x), copy.deepcopy(y)
        got = torus_mul(x, y, lam)
        assert got == dict_torus_mul(x0, y0, lam)
        assert x == x0 and y == y0
        assert not set(dict_ids(got)) & set(dict_ids(x) + dict_ids(y))
        assert all(got.values()) and all(all(c.values()) for c in got.values())
        return got

    @given(raw_operands())
    @settings(max_examples=300)
    def test_matches_dict_kernel(self, operands):
        self.assert_matches_oracle(*operands)

    @given(st.data())
    @settings(max_examples=100)
    def test_exact_cancellation(self, data):
        n = data.draw(st.integers(1, 3))
        lam = data.draw(skew_forms(n))
        exps = st.tuples(*[st.integers(-2, 2)] * n)
        alpha1, beta1, beta2 = data.draw(exps), data.draw(exps), data.draw(exps)
        if beta1 == beta2:
            beta2 = tuple(b + 1 for b in beta1)
        alpha2 = tuple(a + b - c for a, b, c in zip(alpha1, beta1, beta2))
        c = data.draw(raw_coeffs(data.draw(st.sampled_from([1, 8])), 4))
        t1 = SkewForm(lam).pairing(alpha1, beta1)
        t2 = SkewForm(lam).pairing(alpha2, beta2)
        x = {alpha1: c, alpha2: {e + t1 - t2: -x for e, x in c.items()}}
        y = {beta1: {0: 1}, beta2: {0: 1}}
        got = self.assert_matches_oracle(x, y, lam)
        assert tuple(a + b for a, b in zip(alpha1, beta1)) not in got

    def test_rank_zero_and_empty(self):
        assert torus_mul({}, {}, ()) == {}
        assert torus_mul({(): {0: 2}}, {}, ()) == {}
        assert torus_mul({}, {(1, 0): {3: 1}}, ((0, 1), (-1, 0))) == {}
        assert torus_mul({(): {0: 2, 8: 3}}, {(): {-8: 5}}, ()) == {(): {-8: 10, 0: 15}}
        assert torus_mul({(): {1: 1}}, {(): {-1: -1}}, ()) == {(): {0: -1}}

    def test_single_term_coefficients_accumulate(self):
        lam = ((0, 1), (-1, 0))
        x = {(1, 0): {0: 2}, (0, 1): {0: 3}, (0, 0): {4: -1}}
        y = {(0, 1): {0: 5}, (1, 0): {0: 7}, (1, 1): {-4: 1}}
        got = self.assert_matches_oracle(x, y, lam)
        assert got[(1, 1)] == {1: 10, -1: 21, 0: -1}

    def test_residues_mod_stride_share_an_exponent(self):
        lam = ((0, 1), (-1, 0))
        x = {(1, 0): {0: 1, 8: 1}, (0, 1): {0: 1, 8: 1}}
        y = {(0, 1): {0: 1, 8: 2}, (1, 0): {0: 3}}
        got = self.assert_matches_oracle(x, y, lam)
        assert {e % 8 for e in got[(1, 1)]} == {1, 7}

    @pytest.mark.parametrize("m", [1, 2**35 - 1, 2**35, 2**70, 2**70 + 1])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_l1_bound_attained(self, m, sign):
        # One term each: the single output coefficient is L1x * L1y itself.
        c = sign * m
        assert torus_mul({(): {3: c}}, {(): {-3: c}}, ()) == {(): {0: m * m}}
        lam = ((0, 2), (-2, 0))
        assert torus_mul({(1, 0): {0: c}}, {(0, 1): {0: c}}, lam) == {(1, 1): {2: m * m}}
        # Same-sign full coefficients: the middle coefficient reaches half the bound.
        x = {(): {0: c, 8: c}}
        assert torus_mul(x, x, ()) == {(): {0: m * m, 8: 2 * m * m, 16: m * m}}
