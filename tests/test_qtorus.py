"""Quantum torus: twisted Laurent monomials over a skew form."""

import copy
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qskein import _kernels
from qskein.annulus import AnnulusModel
from qskein._kernels import act, coeff_add, coeff_mul, torus_mul
from qskein.payload import PayloadError
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
        assert FORM.act((1, 1, 0))[2] == 2 - 3

    @given(exponents)
    def test_act_is_the_dense_matrix_product(self, beta):
        dense = [sum(r * b for r, b in zip(row, beta)) for row in FORM.matrix]
        assert FORM.act(beta) == act(FORM.matrix, beta) == dense
        assert FORM.act(iter(beta)) == dense
        for alpha in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -2, 1)]:
            assert sum(a * x for a, x in zip(alpha, dense)) == FORM.pairing(alpha, beta)

    @pytest.mark.parametrize(
        "vector, error",
        [([1], ValueError), ([1, 2, 3, 4], ValueError), ([0.5, 0, 0], TypeError)],
        ids=["short", "long", "float"],
    )
    def test_vectors_are_read_like_exponents(self, vector, error):
        with pytest.raises(error):
            FORM.act(vector)
        with pytest.raises(error):
            FORM.pairing(vector, (1, 0, 0))
        with pytest.raises(error):
            FORM.pairing((1, 0, 0), vector)


class TestConstructor:
    def test_rejects_exponents_that_normalise_alike(self):
        form = SkewForm([[0, 1], [-1, 0]])
        with pytest.raises(ValueError, match=r"duplicate exponent \(1, 0\)"):
            TorusElement(form, [((True, 0), 1), ((1, 0), 2)])
        with pytest.raises(ValueError, match=r"duplicate exponent \(1, 0\)"):
            TorusElement(form, [((1, 0), 1), ((1, 0), 2)])

    def test_accepts_pairs_like_a_dict(self):
        terms = {(1, 0, -1): 2, (0, 0, 0): QCoeff.v(3)}
        assert TorusElement(FORM, list(terms.items())) == TorusElement(FORM, terms)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="wrong length"):
            TorusElement(FORM, {(1, 0): 1})


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
        with pytest.raises(TypeError):
            x**2.0

    @pytest.mark.parametrize(
        "k, products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)]
    )
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
        with pytest.raises(TypeError):
            x.shift(0.5)


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


def divide_left_oracle(num: TorusElement, divisor: TorusElement) -> TorusElement:
    """exact_divide_left as first written, rebuilding the remainder per quotient term."""
    num._check(divisor)
    if divisor.is_zero():
        raise DivisionFailure("division by zero torus element")
    if num.is_zero():
        return TorusElement.zero(num.form)
    n = num.form.rank
    lo = [min(a[j] for a in num._terms) - min(a[j] for a in divisor._terms) for j in range(n)]
    hi = [max(a[j] for a in num._terms) - max(a[j] for a in divisor._terms) for j in range(n)]
    if any(l > h for l, h in zip(lo, hi)):
        raise DivisionFailure("exponent spans rule out a quotient")
    beta = max(divisor._terms)
    c_d = QCoeff(divisor._terms[beta])
    rem = TorusElement._raw(num.form, dict(num._terms))
    out: dict = {}
    while rem._terms:
        xi = max(rem._terms)
        gamma = tuple(x - b for x, b in zip(xi, beta))
        if any(g < l or g > h for g, l, h in zip(gamma, lo, hi)):
            raise DivisionFailure("no exact quotient (leading term out of range)")
        s = num.form.pairing(beta, gamma)
        c_w = QCoeff(rem._terms[xi]).shift(-s).exact_divide(c_d)
        out[gamma] = dict(c_w.items())
        piece = TorusElement.monomial(num.form, gamma, c_w)
        rem = rem - divisor * piece
    return TorusElement._raw(num.form, out)


#: Elements whose coefficients are polynomials in v^2 with one to three terms.
poly_elements = st.dictionaries(
    exponents,
    st.dictionaries(
        st.integers(-2, 2).map(lambda k: 2 * k),
        st.integers(-3, 3).filter(bool),
        min_size=1,
        max_size=3,
    ),
    max_size=3,
).map(lambda d: TorusElement(FORM, d))


@given(poly_elements, poly_elements)
@settings(max_examples=100)
def test_the_torus_is_a_domain(x, y):
    """x y and y x are zero together, and otherwise both lead at lexmax(x) +
    lexmax(y): quasi_commutation_exponent relies on it."""
    p, r = x * y, y * x
    assert p.is_zero() == r.is_zero() == (x.is_zero() or y.is_zero())
    if not p.is_zero():
        lead = tuple(a + b for a, b in zip(max(x.support()), max(y.support())))
        assert max(p.support()) == max(r.support()) == lead
        # So the shift is even: quasi_commutation_exponent need not test it.
        s = p.coefficient(lead).min_v() - r.coefficient(lead).min_v()
        assert s == 2 * FORM.pairing(max(x.support()), max(y.support()))


BELOW_FLOOR = "no exact quotient (leading term below the lex floor)"


class TestDivisionBounds:
    """What stops an inexact division, or a miscomputed one, early."""

    def test_lex_floor_stops_before_any_product(self, monkeypatch):
        # lexmin(num) - lexmin(d) = (0, 3, 0) - (0, 1, 0) = (0, 2, 0), but the
        # first leading exponent gives gamma = (0, 0, 0).  That gamma lies in
        # the exponent box, so without the floor the loop would take a
        # quotient step and multiply by d.
        d = mono((1, 0, 0)) + mono((0, 1, 0))
        num = mono((1, 0, 0)) + mono((0, 3, 0))
        products = []
        monkeypatch.setattr(_kernels, "torus_mul", lambda *args: products.append(args))
        with pytest.raises(DivisionFailure, match=f"^{re.escape(BELOW_FLOOR)}$"):
            num.exact_divide_left(d)
        assert products == []

    def test_lex_floor_admits_every_exact_quotient(self):
        model = AnnulusModel(bound=9)
        for k in range(-9, 10):
            for j in range(-9, 10):
                xk, xj = model.x(k), model.x(j)
                assert (xk * xj).exact_divide_left(xk) == xj

    def test_a_wrong_twist_fails_at_once(self, monkeypatch):
        # With the product's twist the opposite of the division's the
        # leading term never cancels, and the loop would run for ever on
        # ever larger coefficients.
        def flipped(x, y, lam):
            return torus_mul(x, y, tuple(tuple(-e for e in row) for row in lam))

        x0, x1 = mono((1, 0, 0)), mono((0, 1, 0)) + mono((0, 0, 1))
        num = x0 * x1
        monkeypatch.setattr(_kernels, "torus_mul", flipped)
        with pytest.raises(RuntimeError, match="did not cancel"):
            num.exact_divide_left(x0)

    def test_an_inexact_coefficient_names_its_operands(self):
        # The quotient coefficient is (q^2 + 1) v^-1 / (q + 1), twisted by
        # Lambda(e_1, e_0) = -1.
        num = TorusElement.monomial(FORM, (1, 1, 0), QCoeff.q(2) + 1)
        d = TorusElement.monomial(FORM, (1, 0, 0), QCoeff.q(1) + 1)
        message = "nonzero remainder: q^(3/2) + q^(-1/2) not divisible by q + 1"
        with pytest.raises(DivisionFailure, match=f"^{re.escape(message)}$"):
            num.exact_divide_left(d)

    def test_a_division_builds_its_result_alone(self, monkeypatch):
        # x_16 x_17 / x_16 works on raw terms: no QCoeff, and no element
        # but the quotient it returns.
        model = AnnulusModel(bound=17)
        x16 = model.x(16)
        num = x16 * model.x(17)
        coeffs, elements = [], []

        class CountedQCoeff(QCoeff):
            __slots__ = ()

            def __new__(cls, *args):
                coeffs.append(args)
                return super().__new__(cls)

        # Every qskein module that names QCoeff builds it through the
        # counting subclass.
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "qskein" and getattr(module, "QCoeff", None) is QCoeff:
                monkeypatch.setattr(module, "QCoeff", CountedQCoeff)
        raw = TorusElement._raw.__func__

        def counted_raw(cls, space, terms):
            elements.append(raw(cls, space, terms))
            return elements[-1]

        monkeypatch.setattr(TorusElement, "_raw", classmethod(counted_raw))
        w = num.exact_divide_left(x16)
        assert coeffs == []
        assert len(elements) == 1 and elements[0] is w
        monkeypatch.undo()
        assert w == model.x(17)


class TestDivisionOracle:
    """In-place remainder updates give the quotient the rebuilding loop gave."""

    @given(poly_elements.filter(bool), poly_elements)
    @settings(max_examples=80)
    def test_exact_quotients_match(self, d, x):
        num = d * x
        before = copy.deepcopy(num._terms)
        assert num.exact_divide_left(d) == divide_left_oracle(num, d) == x
        assert num._terms == before

    def test_quotient_through_a_cancelled_term(self):
        # The cross terms of d * x cancel (Lambda(e_0, e_1) = 1), so the first
        # quotient step puts a term M[1, 1, 0] into the remainder that the
        # dividend lacks, and the second step removes it.
        d = mono((1, 0, 0)) + mono((0, 1, 0))
        x = mono((0, 1, 0)) - mono((1, 0, 0), 2)
        num = d * x
        assert set(num.support()) == {(0, 2, 0), (2, 0, 0)}
        assert num.exact_divide_left(d) == divide_left_oracle(num, d) == x

    @given(poly_elements.filter(bool), poly_elements, poly_elements)
    @settings(max_examples=80)
    def test_failures_match(self, d, x, r):
        num = d * x + r
        try:
            expected = divide_left_oracle(num, d)
        except DivisionFailure as err:
            with pytest.raises(DivisionFailure) as raised:
                num.exact_divide_left(d)
            # The lex floor may stop an inexact division before the oracle's
            # own check does; any other failure is the oracle's.
            assert str(raised.value) in (str(err), BELOW_FLOOR)
        else:
            assert num.exact_divide_left(d) == expected


class TestJson:
    @given(elements)
    @settings(max_examples=40)
    def test_round_trip(self, x):
        data = x.to_json()
        assert TorusElement.from_json(data) == x
        assert TorusElement.from_json(data).to_json() == data

    def test_json_rejects_duplicate_exponents(self):
        data = mono((1, 0, -1)).to_json()
        data["terms"].append({"exp": [1, 0, -1], "coeff": "2"})
        with pytest.raises(ValueError, match=r"duplicate exponent \(1, 0, -1\)"):
            TorusElement.from_json(data)
        data["terms"][1]["exp"] = ["1", 0, -1]
        with pytest.raises(PayloadError, match=r"^terms\[1\]\.exp\[0\]: expected int"):
            TorusElement.from_json(data)

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


def coeff_mul_loop(a: dict, b: dict) -> dict:
    """coeff_mul's general double loop, which monomial operands now bypass."""
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


BIG = 2**70
ints = st.one_of(
    st.integers(-3, 3), st.integers(BIG, 4 * BIG), st.integers(-4 * BIG, -BIG)
).filter(bool)


class TestMonomialCoeffMul:
    @given(
        st.integers(-9, 9),
        st.one_of(st.integers(-3, 3), st.integers(BIG, 4 * BIG)).filter(bool),
        st.dictionaries(st.integers(-8, 8), ints, max_size=5),
    )
    def test_matches_general_loop(self, k, c, b):
        a = {k: c}
        assert coeff_mul(a, b) == coeff_mul(b, a) == coeff_mul_loop(a, b)
        assert coeff_mul(a, b) is not b


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

    def test_a_digit_keeps_its_sign_bit(self):
        # The L1 norms are 3 and 5, so a digit holds |c| <= 15: four bits and
        # a sign bit.  Without the sign bit the 8 at v^2 reads back as -8.
        got = self.assert_matches_oracle({(0,): {0: 2, 2: 1}}, {(0,): {0: 2, 2: 3}}, ((0,),))
        assert got == {(0,): {0: 4, 2: 8, 4: 3}}

    def test_packed_sum_that_cancels_leaves_no_key(self):
        # x = (1 + q)(M^0 + M^1) and y = (1 + q)(M^1 - M^0) under the zero
        # form: both sides have two-term coefficients, so the packed path
        # runs, and the two products landing on M^1 cancel exactly.
        x = {(0,): {0: 1, 2: 1}, (1,): {0: 1, 2: 1}}
        y = {(1,): {0: 1, 2: 1}, (0,): {0: -1, 2: -1}}
        got = self.assert_matches_oracle(x, y, ((0,),))
        assert (1,) not in got
        assert got == {(0,): {0: -1, 2: -2, 4: -1}, (2,): {0: 1, 2: 2, 4: 1}}

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

    @pytest.mark.parametrize("x_one, y_one", [(True, False), (False, True), (True, True)])
    def test_one_term_sides(self, x_one, y_one):
        lam = ((0, 1, -2), (-1, 0, 3), (2, -3, 0))
        one = {(1, 0, 0): {3: 2}, (0, 1, -1): {-1: -5}, (1, 1, 1): {0: BIG}}
        many = {(0, 1, 0): {0: 1, 8: -3, 16: BIG}, (1, 0, -1): {2: 4}, (0, 0, 0): {-5: 1, 3: 1}}
        self.assert_matches_oracle(one if x_one else many, one if y_one else many, lam)

    def test_one_term_side_cancels_to_zero(self):
        # Two pairs land on gamma = (1, 1) with opposite coefficients; the
        # one-term side's v-exponent on M[0, 1] offsets the twist v^(+-1).
        lam = ((0, 1), (-1, 0))
        y = {(0, 1): {0: 1, 8: 2}, (1, 0): {0: -1, 8: -2}, (1, 1): {4: 7}}
        left = {(1, 0): {0: 1}, (0, 1): {2: 1}}
        right = {(1, 0): {0: 1}, (0, 1): {-2: 1}}
        for a, b in [(left, y), (y, right)]:
            got = self.assert_matches_oracle(a, b, lam)
            assert (1, 1) not in got
            assert got

    def test_one_term_side_rank_zero_and_empty(self):
        many = {(): {0: 2, 8: 3}}
        for a, b in [({(): {4: -1}}, many), (many, {(): {4: -1}}), ({}, many), (many, {})]:
            self.assert_matches_oracle(a, b, ())
        assert torus_mul({(): {4: -1}}, many, ()) == {(): {4: -2, 12: -3}}
        assert torus_mul(many, {}, ()) == torus_mul({}, many, ()) == {}
        lam = ((0, 1), (-1, 0))
        assert torus_mul({(1, 0): {0: 1}}, {}, lam) == torus_mul({}, {(1, 0): {0: 1}}, lam) == {}

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


def test_skew_form_repr_lists_its_rows():
    assert repr(FORM) == "SkewForm([[0, 1, -2], [-1, 0, 3], [2, -3, 0]])"


def test_product_with_another_type_is_not_implemented():
    x = mono((1, 0, 0))
    assert x.__mul__("x") is NotImplemented and x.__mul__(1.5) is NotImplemented
    with pytest.raises(TypeError):
        x * 1.5


def test_len_counts_terms():
    # No library code reads len(); the benchmark's tracer sizes torus
    # products with it, so it stays.
    assert len(TorusElement.zero(FORM)) == 0
    assert len(mono((1, 0, 0)) + mono((0, 1, 0), 2)) == 2
