"""Coefficient ring: integer Laurent polynomials in v = q^(1/2), and the shared element core."""

import copy
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qskein._kernels
import qskein.qcoeff
from qskein._kernels import coeff_acc, coeff_addto
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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: QCoeff({1: 2.5}),
            lambda: QCoeff({0.5: 1}),
            lambda: QCoeff.v(1, 0.5),
            lambda: QCoeff.q(0.5),
            lambda: QCoeff.from_int(2.0),
            lambda: QCoeff.v(1).coefficient(0.5),
        ],
        ids=["coefficient", "exponent", "v", "q", "from_int", "read"],
    )
    def test_non_integer_terms_raise(self, build):
        with pytest.raises(TypeError):
            build()

    def test_unknot_scalar(self):
        assert UNKNOT_SCALAR == -QCoeff.q(2) - QCoeff.q(-2)
        assert UNKNOT_SCALAR.specialize_q1() == -2


class TestArithmetic:
    def test_known_product(self):
        lhs = (QCoeff.q(1) + QCoeff.one()) * (QCoeff.one() + QCoeff.q(-1))
        rhs = QCoeff.q(1) + QCoeff.from_int(2) + QCoeff.q(-1)
        assert lhs == rhs

    def test_integer_minus_coefficient(self):
        x = QCoeff.q(1) + QCoeff.from_int(3)
        assert 5 - x == QCoeff.from_int(2) - QCoeff.q(1)
        assert 3 - QCoeff.from_int(3) == QCoeff.zero()

    def test_truth_is_nonzero(self):
        assert not QCoeff()
        assert QCoeff.v(-1)

    def test_shift_is_v_multiplication(self):
        x = QCoeff.q(1) + QCoeff.from_int(3)
        assert x.shift(5) == x * QCoeff.v(5)
        with pytest.raises(TypeError):
            x.shift(0.5)

    def test_power_matches_repeated_multiplication(self):
        x = QCoeff.q(1) + QCoeff.from_int(2)
        expected = QCoeff.one()
        for k in range(7):
            assert x**k == expected
            expected = expected * x
        with pytest.raises(TypeError):
            x**2.0

    @pytest.mark.parametrize(
        "k, products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)]
    )
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

    def test_operands_are_read_like_sums_and_products(self):
        assert exact_divide(QCoeff({2: 4}), 2) == QCoeff({2: 2})
        assert exact_divide(6, QCoeff.from_int(3)) == 2
        with pytest.raises(TypeError):
            exact_divide(QCoeff({2: 4}), 2.0)

    @given(coeffs, nonzero_coeffs)
    def test_division_inverts_multiplication(self, a, b):
        assert exact_divide(a * b, b) == a

    def test_integer_content_must_divide(self):
        with pytest.raises(DivisionFailure):
            exact_divide(QCoeff.from_int(3), QCoeff.from_int(2))
        assert exact_divide(QCoeff.from_int(6), QCoeff.from_int(2)) == QCoeff.from_int(3)

    @pytest.mark.parametrize(
        "a, b, message",
        [
            ("q^2 + 1", "q + 1", "nonzero remainder: q^2 + 1 not divisible by q + 1"),
            ("3", "2", "integer coefficient 3 not divisible by 2"),
            (
                "-q^(5/2) + 2*q^(-3/2)",
                "q - q^(1/2)",
                "nonzero remainder: -q^(5/2) + 2*q^(-3/2) not divisible by q - q^(1/2)",
            ),
        ],
    )
    def test_failure_messages_render_the_operands(self, a, b, message):
        with pytest.raises(DivisionFailure, match=f"^{re.escape(message)}$"):
            exact_divide(parse(a), parse(b))

    @given(coeffs, nonzero_coeffs, coeffs)
    def test_matches_normalized_long_division(self, a, b, r):
        # Quotients, and the message of every failure, of the loop as first
        # written on QCoeffs, both operands shifted to polynomials first.
        num = a * b + r
        try:
            expected = exact_divide_oracle(num, b)
        except DivisionFailure as err:
            with pytest.raises(DivisionFailure, match=f"^{re.escape(str(err))}$"):
                exact_divide(num, b)
        else:
            assert exact_divide(num, b) == expected


def test_division_failure_is_one_class():
    assert qskein.DivisionFailure is qskein.qcoeff.DivisionFailure is qskein._kernels.DivisionFailure


def exact_divide_oracle(a: QCoeff, b: QCoeff) -> QCoeff:
    """exact_divide as first written, on ordinary polynomials in v."""
    if b.is_zero():
        raise DivisionFailure("division by zero")
    if a.is_zero():
        return QCoeff.zero()
    va, vb = a.min_v(), b.min_v()
    rem = {k - va: c for k, c in a.items()}
    den = {k - vb: c for k, c in b.items()}
    deg_den = max(den)
    lead = den[deg_den]
    quot: dict[int, int] = {}
    while rem:
        deg_rem = max(rem)
        if deg_rem < deg_den:
            raise DivisionFailure(f"nonzero remainder: {a} not divisible by {b}")
        c, r = divmod(rem[deg_rem], lead)
        if r:
            raise DivisionFailure(f"integer coefficient {rem[deg_rem]} not divisible by {lead}")
        shift = deg_rem - deg_den
        quot[shift] = c
        for k, dc in den.items():
            key = k + shift
            s = rem.get(key, 0) - c * dc
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return QCoeff({k + va - vb: c for k, c in quot.items()})


def render_oracle(x: QCoeff) -> str:
    """``render`` as first written, term by term: the oracle of the table-driven one."""
    if x.is_zero():
        return "0"
    parts: list[str] = []
    for k in sorted(x._terms, reverse=True):
        c = x._terms[k]
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            if k % 2 == 0:
                half = k // 2
                qpart = "q" if half == 1 else f"q^{half}"
            else:
                qpart = f"q^({k}/2)"
            body = qpart if mag == 1 else f"{mag}*{qpart}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


#: Exponents 0, even and odd (some past the render table's bound); magnitudes
#: 1, 2 and >= 2^70; both signs.
render_exps = st.one_of(
    st.just(0),
    st.integers(-60, 60).map(lambda k: 2 * k),
    st.integers(-60, 60).map(lambda k: 2 * k + 1),
    st.integers(-(10**6), 10**6),
)
render_mags = st.one_of(st.sampled_from([1, 2]), st.integers(2**70, 2**72))
render_coeffs = st.builds(
    QCoeff,
    st.dictionaries(
        render_exps,
        st.builds(lambda m, s: s * m, render_mags, st.sampled_from([1, -1])),
        max_size=6,
    ),
)


def element_oracle(x) -> str:
    """``str`` of a torus or disc element, its coefficients through the oracle."""
    if x.is_zero():
        return "0"
    return " + ".join(f"({render_oracle(c)})*{x._key_text(k)}" for k, c in x.terms())


def parse_recounting(text):
    """parse as first written: a sign splits terms unless the parentheses
    opened before it, recounted over the whole prefix, are still open."""
    s = text.strip()
    if not s:
        raise ValueError("empty coefficient string")
    if s == "0":
        return QCoeff.zero()
    pieces = []
    sign, buf = 1, []
    for i, ch in enumerate(s):
        inside = s.count("(", 0, i) > s.count(")", 0, i)
        if ch in "+-" and (i == 0 or s[i - 1] not in "^(/e*" and not inside):
            if buf and "".join(buf).strip():
                pieces.append((sign, "".join(buf)))
                buf = []
                sign = 1
            sign *= -1 if ch == "-" else 1
        else:
            buf.append(ch)
    if buf and "".join(buf).strip():
        pieces.append((sign, "".join(buf)))
    if not pieces:
        raise ValueError(f"cannot parse coefficient: {text!r}")
    terms = {}
    for sgn, piece in pieces:
        m = qskein.qcoeff._TERM_RE.match(piece)
        if not m or (m.group("coeff") is None and m.group("q") is None):
            raise ValueError(f"cannot parse coefficient term: {piece!r}")
        c = int(m.group("coeff")) if m.group("coeff") else 1
        if m.group("q") is None:
            k = 0
        elif m.group("num") is not None:
            k = int(m.group("num"))
        elif m.group("intexp") is not None:
            k = 2 * int(m.group("intexp"))
        else:
            k = 2
        terms[k] = terms.get(k, 0) + sgn * c
    return QCoeff(terms)


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return "raised", str(exc)


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

    @pytest.mark.parametrize("text", ["", "   "])
    def test_empty_coefficient_string(self, text):
        with pytest.raises(ValueError, match="^empty coefficient string$"):
            parse(text)

    @pytest.mark.parametrize("text", ["+", " - ", "+-"])
    def test_signs_alone_are_not_a_coefficient(self, text):
        with pytest.raises(ValueError, match=f"^cannot parse coefficient: {re.escape(repr(text))}$"):
            parse(text)

    @given(st.one_of(st.text(alphabet="+-()q^/*12 ", max_size=16), coeffs.map(render)))
    def test_parse_matches_the_prefix_recounting_split(self, text):
        expected = outcome(parse_recounting, text)
        assert outcome(parse, text) == expected

    def test_long_coefficient_round_trip(self):
        a = QCoeff({k: (k % 7 - 3) or 5 for k in range(-300, 300, 3)})
        assert parse(render(a)) == a

    @given(render_coeffs)
    def test_render_matches_oracle(self, a):
        assert render(a) == str(a) == render_oracle(a)

    @given(
        st.one_of(
            st.dictionaries(
                st.tuples(st.integers(-2, 2), st.integers(-2, 2)), render_coeffs, max_size=4
            ).map(lambda d: TorusElement(FORM, d)),
            st.dictionaries(st.sampled_from(DISC_KEYS), render_coeffs, max_size=4).map(
                lambda d: DiscElement(5, d)
            ),
        )
    )
    def test_elements_render_like_the_oracle(self, x):
        assert str(x) == element_oracle(x)
        assert repr(x) == f"{type(x).__name__}({element_oracle(x)})"
        assert [t["coeff"] for t in x.to_json()["terms"]] == [
            render_oracle(c) for _, c in x.terms()
        ]

    def test_render_table_is_bounded(self):
        for k in range(-3000, 3000):
            render(QCoeff.v(k, -2))
        assert len(qskein.qcoeff._QTEXT) <= qskein.qcoeff._QTEXT_MAX


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


class TestCoeffAcc:
    def test_new_key_stores_the_coefficient_itself(self):
        out = {}
        c = {1: 2}
        coeff_acc(out, "k", c)
        assert out == {"k": {1: 2}} and out["k"] is c

    def test_sum_replaces_without_mutating_either_operand(self):
        stored, added = {1: 2, 3: 1}, {1: -2, 5: 4}
        out = {"k": stored}
        coeff_acc(out, "k", added)
        assert out == {"k": {3: 1, 5: 4}}
        assert stored == {1: 2, 3: 1} and added == {1: -2, 5: 4}

    def test_zero_sum_drops_the_key(self):
        stored = {0: 1, 2: -3}
        out = {"k": stored, "other": {0: 1}}
        coeff_acc(out, "k", {0: -1, 2: 3})
        assert out == {"other": {0: 1}}
        assert stored == {0: 1, 2: -3}


def coeff_addto_oracle(acc: dict, c: dict, k: int, x: int) -> dict:
    """acc + x * v^k * c, built anew from every exponent of both."""
    sums = {e: acc.get(e, 0) + x * c.get(e - k, 0) for e in set(acc) | {e + k for e in c}}
    return {e: s for e, s in sums.items() if s}


raw_terms = st.dictionaries(
    st.integers(-8, 8),
    st.one_of(st.integers(-9, 9), st.integers(2**70, 2**72)).filter(bool),
    max_size=5,
)


class TestCoeffAddto:
    @given(raw_terms, raw_terms, st.integers(-4, 4), st.integers(-3, 3).filter(bool))
    def test_matches_the_dict_oracle(self, acc, c, k, x):
        want = coeff_addto_oracle(acc, c, k, x)
        frozen = dict(c)
        coeff_addto(acc, c, k, x)
        assert acc == want
        assert c == frozen

    @given(raw_terms, st.integers(-4, 4), st.integers(-3, 3).filter(bool))
    def test_full_cancellation_empties_the_accumulator(self, c, k, x):
        acc = {e + k: -x * n for e, n in c.items()}
        frozen = dict(c)
        coeff_addto(acc, c, k, x)
        assert acc == {}
        assert c == frozen


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

    def test_space_views_are_read_only(self):
        x = TorusElement.monomial(FORM, (1, 0))
        y = DiscElement.basis(5, [(1, 3)])
        assert x.form is x.space is FORM
        assert y.n == y.space == 5
        with pytest.raises(AttributeError):
            x.form = SkewForm([[0]])
        with pytest.raises(AttributeError):
            y.n = 6

    def test_constructor_checks_every_key_through_the_hook(self):
        with pytest.raises(ValueError, match=r"^duplicate exponent \(1, 0\)$"):
            TorusElement(FORM, [((1, 0), 1), ((True, 0), 2)])
        with pytest.raises(ValueError, match=r"^exponent \(1,\) has wrong length for rank 2$"):
            TorusElement(FORM, {(1,): 1})
        with pytest.raises(ValueError, match=r"^duplicate multiset \(\(\(1, 3\), 1\),\)$"):
            DiscElement(5, [((((1, 3), 1),), 1), ((((3, 1), 1),), 0)])
        with pytest.raises(ValueError, match="^a marked disc needs at least 3 boundary points$"):
            DiscElement(2)
        with pytest.raises(ValueError, match="^a marked disc needs at least 3 boundary points$"):
            DiscElement.zero(2)
        assert TorusElement(FORM, {(1, 0): 0}).is_zero()

    def test_coefficient_reads_its_key_through_the_hook(self):
        x = DiscElement(5, {(((1, 2), 1), ((3, 4), 1)): QCoeff.q(1)})
        for key in [(((2, 1), 1), ((3, 4), 1)), [[[3, 4], 1], [[1, 2], 1]]]:
            assert x.coefficient(key) == x.coefficient((((1, 2), 1), ((3, 4), 1))) == QCoeff.q(1)
        y = TorusElement(FORM, {(1, 0): 3})
        assert y.coefficient([1, 0]) == y.coefficient((True, 0)) == 3
        with pytest.raises(ValueError, match=r"^exponent \(1, 0, 0\) has wrong length for rank 2$"):
            y.coefficient((1, 0, 0))

    @given(elements)
    def test_copies_are_equal(self, x):
        assert copy.deepcopy(x) == copy.copy(x) == x

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


def test_qcoeff_repr_wraps_its_text_form():
    assert repr(QCoeff({1: 2, -2: -1})) == "QCoeff('2*q^(1/2) - q^-1')"
    assert repr(QCoeff.zero()) == "QCoeff('0')"


class TestOtherOperands:
    """An operand that is no int, QCoeff or element of the same kind is
    NotImplemented, so Python raises TypeError."""

    def test_qcoeff(self):
        x = QCoeff.one()
        assert x.__eq__("x") is NotImplemented and x != "x"
        for op in (lambda: x + "x", lambda: x - "x", lambda: "x" - x, lambda: x * 1.5):
            with pytest.raises(TypeError):
                op()

    def test_scaling_an_element(self):
        form = SkewForm([[0, 1], [-1, 0]])
        x = TorusElement.monomial(form, (1, 0))
        assert x.__rmul__(1.5) is NotImplemented
        with pytest.raises(TypeError):
            1.5 * x
        assert 2 * x == x * 2 == x.scale(2)
