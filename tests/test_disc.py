"""Disc skein algebra: chords, rewriting, products, Laurent expansion."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qskein import disc
from qskein import surface as surf
from qskein._kernels import coeff_add, coeff_mul, coeff_shift
from qskein.disc import DiscElement, InhomogeneousError, LocalizationError
from qskein.qcoeff import QCoeff, render
from qskein.qtorus import TorusElement


def words(n, max_len=3):
    return st.lists(st.sampled_from(disc.all_chords(n)), min_size=1, max_size=max_len)


def disc_repr(x: DiscElement) -> str:
    """DiscElement.__repr__ as first written: the oracle of repr(x)."""
    if not x._terms:
        return "DiscElement(0)"
    bits = []
    for key in sorted(x._terms):
        c = render(QCoeff(x._terms[key]))
        mult = "*".join(
            f"x{list(ch)}" + (f"^{w}" if w != 1 else "") for ch, w in key
        ) or "1"
        bits.append(f"({c})*{mult}")
    return "DiscElement(" + " + ".join(bits) + ")"


class TestTextForm:
    """repr(x) wraps str(x), and both print as the old DiscElement.__repr__."""

    def test_random_products_match_old_repr(self):
        rng = random.Random(11)
        chords = {n: disc.all_chords(n) for n in range(4, 8)}
        for _ in range(60):
            n = rng.randint(4, 7)
            x, y = (
                disc.reduce_word(n, [rng.choice(chords[n]) for _ in range(rng.randint(1, 3))])
                for _ in range(2)
            )
            for el in (disc.product(x, y), (x - y).scale(QCoeff.v(rng.randint(-3, 3)))):
                old = disc_repr(el)
                assert repr(el) == old
                assert str(el) == old[len("DiscElement(") : -1]

    def test_unit_and_zero(self):
        assert repr(DiscElement.one(4)) == disc_repr(DiscElement.one(4)) == "DiscElement((1)*1)"
        assert repr(DiscElement.zero(4)) == disc_repr(DiscElement.zero(4)) == "DiscElement(0)"
        assert str(DiscElement.zero(4)) == "0"


class TestChords:
    def test_normalize(self):
        assert disc.normalize_chord(5, (4, 2)) == (2, 4)
        with pytest.raises(ValueError):
            disc.normalize_chord(4, (1, 5))
        with pytest.raises(ValueError):
            disc.normalize_chord(4, (2, 2))

    def test_small_disc_rejected(self):
        with pytest.raises(ValueError):
            DiscElement.zero(2)
        with pytest.raises(ValueError):
            DiscElement.one(2)

    def test_all_chords(self):
        assert len(disc.all_chords(5)) == 10
        assert disc.boundary_chords(4) == [(1, 2), (2, 3), (3, 4), (1, 4)]

    def test_is_boundary(self):
        assert disc.is_boundary_chord(5, (1, 2))
        assert disc.is_boundary_chord(5, (1, 5))
        assert not disc.is_boundary_chord(5, (1, 3))

    def test_crosses(self):
        assert disc.crosses((1, 3), (2, 4))
        assert not disc.crosses((1, 2), (2, 3))
        assert not disc.crosses((1, 3), (1, 4))
        assert not disc.crosses((1, 2), (3, 4))

    def test_lam_pair(self):
        assert disc.lam_pair(4, (1, 2), (2, 3)) == 1
        assert disc.lam_pair(4, (2, 3), (1, 2)) == -1
        assert disc.lam_pair(4, (1, 3), (2, 4)) == 0
        assert disc.lam_pair(4, (1, 2), (1, 3)) == -1
        assert disc.lam_pair(4, (1, 2), (3, 4)) == 0

    def test_lam_pair_skew(self):
        for x in disc.all_chords(6):
            for y in disc.all_chords(6):
                assert disc.lam_pair(6, x, y) == -disc.lam_pair(6, y, x)


class TestMultisetKeys:
    def test_sorted_and_merged(self):
        k = disc.multiset_key(4, [(3, 4), (1, 2), (1, 2)])
        assert k == (((1, 2), 2), ((3, 4), 1))

    def test_rejects_crossing(self):
        with pytest.raises(ValueError):
            disc.multiset_key(4, [(1, 3), (2, 4)])

    def test_weights(self):
        assert disc.multiset_key(4, [(1, 2)], weights=[-2]) == (((1, 2), -2),)
        with pytest.raises(ValueError):
            disc.multiset_key(4, [(1, 3)], weights=[-1])

    def test_degree(self):
        key = disc.multiset_key(4, [(1, 2)], weights=[3])
        assert disc.multiset_degree(4, key) == (3, 3, 0, 0)


class TestReduce:
    def test_noncrossing_disjoint(self):
        assert disc.reduce_word(4, [(1, 2), (3, 4)]) == DiscElement.basis(4, [(1, 2), (3, 4)])

    def test_noncrossing_shared_endpoint_twist(self):
        base = DiscElement.basis(4, [(1, 2), (2, 3)])
        assert disc.reduce_word(4, [(1, 2), (2, 3)]) == base.scale(QCoeff.v(1))
        assert disc.reduce_word(4, [(2, 3), (1, 2)]) == base.scale(QCoeff.v(-1))

    def test_single_crossing_is_the_plucker_relation(self):
        got = disc.reduce_word(4, [(1, 3), (2, 4)])
        want = DiscElement.basis(4, [(1, 2), (3, 4)]).scale(QCoeff.q(1))
        want = want + DiscElement.basis(4, [(1, 4), (2, 3)]).scale(QCoeff.q(-1))
        assert got == want

    def test_bar_reverses_crossing_order(self):
        x = disc.reduce_word(4, [(1, 3), (2, 4)])
        assert x.bar() == disc.reduce_word(4, [(2, 4), (1, 3)])

    @given(st.integers(4, 7).flatmap(lambda n: st.tuples(st.just(n), words(n))))
    @settings(max_examples=50, deadline=None)
    def test_random_schedules_agree(self, case):
        n, word = case
        canon = disc.reduce_word(n, word)
        assert disc.reduce_word(n, word, rng=random.Random(7)) == canon

    @given(st.integers(4, 7).flatmap(lambda n: st.tuples(st.just(n), words(n, 2), words(n, 2))))
    @settings(max_examples=50, deadline=None)
    def test_product_matches_concatenation(self, case):
        n, w1, w2 = case
        lhs = disc.product(disc.reduce_word(n, w1), disc.reduce_word(n, w2))
        assert lhs == disc.reduce_word(n, w1 + w2)


class TestElementAlgebra:
    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DiscElement.basis(4, [(1, 2)]) + DiscElement.basis(5, [(1, 2)])
        with pytest.raises(ValueError):
            disc.product(DiscElement.basis(4, [(1, 2)]), DiscElement.basis(5, [(1, 2)]))

    def test_one_is_the_unit(self):
        x = disc.reduce_word(5, [(1, 3), (2, 5)])
        assert disc.product(DiscElement.one(5), x) == x
        assert disc.product(x, DiscElement.one(5)) == x

    def test_scalar_multiplication(self):
        x = DiscElement.basis(4, [(1, 3)])
        assert 3 * x == x.scale(QCoeff.from_int(3))
        assert (x + x).scale(QCoeff.from_int(2)) == 4 * x

    def test_grading(self):
        assert DiscElement.basis(4, [(1, 2), (2, 3)]).grading() == (1, 2, 1, 0)
        with pytest.raises(InhomogeneousError) as exc:
            (DiscElement.basis(4, [(1, 2)]) + DiscElement.basis(4, [(1, 3)])).grading()
        assert len(exc.value.degrees) == 2

    def test_specialize_q1(self):
        x = disc.reduce_word(4, [(1, 3), (2, 4)])
        assert x.specialize_q1() == {
            disc.multiset_key(4, [(1, 2), (3, 4)]): 1,
            disc.multiset_key(4, [(1, 4), (2, 3)]): 1,
        }

    def test_json_round_trip(self):
        x = disc.reduce_word(5, [(1, 3), (2, 4), (3, 5)])
        data = x.to_json()
        assert DiscElement.from_json(data) == x
        assert DiscElement.from_json(data).to_json() == data

    def test_constructor_rejects_keys_that_are_not_simple(self):
        with pytest.raises(ValueError, match="not simple"):
            DiscElement(4, {(((1, 3), 1), ((2, 4), 1)): QCoeff.one()})
        with pytest.raises(ValueError, match="duplicate"):
            DiscElement(4, {(((1, 3), 1),): QCoeff.one(), (((3, 1), 1),): QCoeff.one()})
        x = DiscElement(4, {(((3, 4), 1), ((2, 1), 2)): QCoeff.one()})
        assert x == DiscElement.basis(4, [(1, 2), (1, 2), (3, 4)])

    def test_json_rejects_duplicates(self):
        data = disc.reduce_word(4, [(1, 3), (2, 4)]).to_json()
        data["terms"].append(dict(data["terms"][0]))
        with pytest.raises(ValueError):
            DiscElement.from_json(data)


class TestLeadingTerm:
    def test_leading_smoothing_matches_top_layer(self):
        k24 = disc.multiset_key(4, [(2, 4)])
        assert disc.leading_smoothing(4, (1, 3), k24) == disc.multiset_key(4, [(1, 2), (3, 4)])
        prod = disc.product(DiscElement.basis(4, [(1, 3)]), DiscElement.basis(4, [(2, 4)]))
        assert prod.in_q() == DiscElement.basis(4, [(1, 2), (3, 4)])

    def test_leading_smoothing_random_agreement(self):
        rng = random.Random(11)
        hits = 0
        for _ in range(40):
            n = rng.randint(4, 7)
            chords = disc.all_chords(n)
            c = rng.choice(chords)
            other = rng.choice(chords)
            key = disc.multiset_key(n, [other])
            top = disc.product(DiscElement.basis(n, [c]), DiscElement.basis(n, [other])).in_q()
            assert top == DiscElement.basis(n, list(ch for ch, w in disc.leading_smoothing(n, c, key) for _ in range(w)))
            hits += 1
        assert hits == 40


class TestCrossingNumbers:
    def test_mu(self):
        assert disc.mu(DiscElement.basis(4, [(1, 3)]), DiscElement.basis(4, [(2, 4)])) == 1
        assert disc.mu(DiscElement.basis(4, [(1, 2)]), DiscElement.basis(4, [(2, 4)])) == 0

    def test_mu_keys_weighted(self):
        k1 = disc.multiset_key(4, [(1, 3)], [2])
        k2 = disc.multiset_key(4, [(2, 4)])
        assert disc.mu_keys(k1, k2) == 2

    def test_mu_delta(self):
        fan = tuple(sorted(disc.boundary_chords(5) + [(1, 3), (1, 4)]))
        x = DiscElement.basis(5, [(2, 4)])
        assert disc.mu_delta(5, fan, x) == (0, 1, 0, 0, 0, 0, 0)


class TestLocalization:
    def test_boundary_inverse(self):
        x = DiscElement.basis(4, [(1, 2)])
        assert disc.localize(x, {(1, 2): -1}) == DiscElement.one(4)

    def test_internal_chord_rejected(self):
        with pytest.raises(LocalizationError):
            disc.localize(DiscElement.basis(4, [(1, 2)]), {(1, 3): 1})


class TestTriangulations:
    def test_counts_are_catalan(self):
        for n, count in [(3, 1), (4, 2), (5, 5), (6, 14)]:
            deltas = disc.enumerate_triangulations(n)
            assert len(deltas) == count
            for delta in deltas:
                assert len(delta) == 2 * n - 3
                for i, c1 in enumerate(delta):
                    for c2 in delta[i + 1 :]:
                        assert not disc.crosses(c1, c2)

    def test_flip_square(self):
        fan4 = tuple(sorted(disc.boundary_chords(4) + [(1, 3)]))
        new_delta, new_chord = disc.flip_diagonal(4, fan4, (1, 3))
        assert new_chord == (2, 4)
        assert new_delta == ((1, 2), (2, 4), (1, 4), (2, 3), (3, 4))
        back, chord = disc.flip_diagonal(4, new_delta, (2, 4))
        assert chord == (1, 3)
        assert sorted(back) == sorted(fan4)

    def test_flip_rejects_boundary(self):
        fan4 = tuple(sorted(disc.boundary_chords(4) + [(1, 3)]))
        with pytest.raises(ValueError):
            disc.flip_diagonal(4, fan4, (1, 2))


class TestTriangulationMatrices:
    FAN4 = ((1, 2), (1, 3), (1, 4), (2, 3), (3, 4))

    def test_lambda_matrix(self):
        assert surf.lambda_matrix(surf.from_chords(4, self.FAN4)) == [
            [0, -1, -1, 1, 0],
            [1, 0, -1, -1, 1],
            [1, 1, 0, 0, -1],
            [-1, 1, 0, 0, 1],
            [0, -1, 1, -1, 0],
        ]

    def test_q_matrix(self):
        assert surf.q_matrix(surf.from_chords(4, self.FAN4)) == [
            [0, 1, 0, -1, 0],
            [-1, 0, 1, 1, -1],
            [0, -1, 0, 0, 1],
            [1, -1, 0, 0, 0],
            [0, 1, -1, 0, 0],
        ]

    def test_form_matches_lambda(self):
        form = disc.triangulation_form(4, self.FAN4)
        assert [list(r) for r in form.matrix] == surf.lambda_matrix(surf.from_chords(4, self.FAN4))

    def test_seed(self):
        fan5 = tuple(sorted(disc.boundary_chords(5) + [(1, 3), (1, 4)]))
        seed = disc.triangulation_seed(5, fan5)
        assert seed.ex == (1, 2)
        assert seed.pi_b() == [[0, 1], [-1, 0]]
        assert seed.check_compatibility() == {1: 4, 2: 4}


class TestExpansion:
    def test_square_diagonal(self):
        fan4 = ((1, 2), (1, 3), (1, 4), (2, 3), (3, 4))
        e = disc.expand_laurent(DiscElement.basis(4, [(2, 4)]), fan4)
        assert e.support() == [(0, -1, 1, 1, 0), (1, -1, 0, 0, 1)]
        for alpha in e.support():
            assert e.coefficient(alpha) == QCoeff.one()

    def test_triangulation_chord_is_a_monomial(self):
        fan4 = ((1, 2), (1, 3), (1, 4), (2, 3), (3, 4))
        e = disc.expand_laurent(DiscElement.basis(4, [(1, 3)]), fan4)
        assert e.support() == [(0, 1, 0, 0, 0)]

    def test_localized_boundary_expansion(self):
        fan4 = ((1, 2), (1, 3), (1, 4), (2, 3), (3, 4))
        x = disc.localize(DiscElement.one(4), {(1, 2): -1})
        e = disc.expand_laurent(x, fan4)
        assert e.support() == [(-1, 0, 0, 0, 0)]


# -- oracles: the tuple-chord rewriting the interned one replaced -------------


def _split_key(n, key):
    """Split into (boundary weight dict, internal word tuple)."""
    bnd, word = {}, []
    for c, w in key:
        if disc.is_boundary_chord(n, c):
            bnd[c] = w
        else:
            word.extend([c] * w)
    return bnd, tuple(word)


def _lam_weighted(n, a, b):
    b = list(b)
    return sum(wx * wy * disc.lam_pair(n, x, y) for x, wx in a for y, wy in b)


def _word_twist(n, word):
    """Sum of lam_pair over ordered pairs i < j of the word."""
    return sum(
        disc.lam_pair(n, word[i], word[j]) for i in range(len(word)) for j in range(i + 1, len(word))
    )


def oracle_reduce_word(n, word, rng=None):
    """reduce_word on chord tuples, with the full admissible-pair list."""
    word = tuple(disc.normalize_chord(n, c) for c in word)
    out = {}
    stack = [(word, {0: 1})]
    while stack:
        w, coef = stack.pop()
        pairs = [
            (i, j)
            for i in range(len(w))
            for j in range(i + 1, len(w))
            if disc.crosses(w[i], w[j])
            and all(not disc.crosses(w[m], w[j]) for m in range(i + 1, j))
        ]
        if not pairs:
            key = disc.multiset_key(n, w)
            shifted = coeff_shift(coef, _word_twist(n, w))
            cur = out.get(key)
            s = coeff_add(cur, shifted) if cur is not None else shifted
            if s:
                out[key] = s
            else:
                out.pop(key, None)
            continue
        if rng is None:
            i, j = min(pairs, key=lambda p: (p[1] - p[0], p[0]))
        else:
            i, j = pairs[rng.randrange(len(pairs))]
        shift = 2 * sum(disc.lam_pair(n, w[m], w[j]) for m in range(i + 1, j))
        prefix = w[:i]
        suffix = w[i + 1 : j] + w[j + 1 :]
        (u1, u2), (t1, t2) = disc._smooth(n, w[i], w[j])
        base = coeff_shift(coef, shift)
        stack.append((prefix + (u1, u2) + suffix, coeff_shift(base, 2)))
        stack.append((prefix + (t1, t2) + suffix, coeff_shift(base, -2)))
    return DiscElement._raw(n, out)


def oracle_product(x, y):
    """product on chord tuples, through oracle_reduce_word."""
    n = x.n
    out = {}
    memo = {}
    for kx, cx in x._terms.items():
        bx, wx = _split_key(n, kx)
        twist_x = -_lam_weighted(n, bx.items(), ((c, 1) for c in wx)) - _word_twist(n, wx)
        for ky, cy in y._terms.items():
            by, wy = _split_key(n, ky)
            word = wx + wy
            reduced = memo.get(word)
            if reduced is None:
                reduced = memo[word] = oracle_reduce_word(n, word)
            shift = (
                twist_x
                - _lam_weighted(n, by.items(), ((c, 1) for c in wy))
                - _word_twist(n, wy)
                + 2 * _lam_weighted(n, ((c, 1) for c in wx), by.items())
                + _lam_weighted(n, bx.items(), by.items())
            )
            bnd = dict(bx)
            for c, w in by.items():
                bnd[c] = bnd.get(c, 0) + w
            cxy = coeff_shift(coeff_mul(cx, cy), shift)
            for rkey, rcoef in reduced._terms.items():
                s2 = _lam_weighted(n, bnd.items(), rkey)
                merged = dict(bnd)
                for c, w in rkey:
                    merged[c] = merged.get(c, 0) + w
                key = tuple(sorted((c, w) for c, w in merged.items() if w))
                piece = coeff_shift(coeff_mul(cxy, rcoef), s2)
                cur = out.get(key)
                s = coeff_add(cur, piece) if cur is not None else piece
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return DiscElement._raw(n, out)


def oracle_expand_laurent(x, delta):
    """expand_laurent as the torus product M^(-mu) * T, through oracle_product."""
    n = x.n
    arcs = tuple(disc.normalize_chord(n, c) for c in delta)
    form = disc.triangulation_form(n, arcs)
    m = disc.mu_delta(n, arcs, x)
    denom = DiscElement._raw(n, {tuple(sorted((c, k) for c, k in zip(arcs, m) if k)): {0: 1}})
    terms = {}
    for key, c in oracle_product(denom, x)._terms.items():
        alpha = [0] * len(arcs)
        for ch, w in key:
            alpha[arcs.index(ch)] = w
        terms[tuple(alpha)] = c
    return TorusElement.monomial(form, tuple(-k for k in m)) * TorusElement._raw(form, terms)


def long_words(n, max_len=8):
    return st.lists(st.sampled_from(disc.all_chords(n)), min_size=0, max_size=max_len)


@st.composite
def localized(draw, n):
    """A reduced word times boundary chords of weight -2..2."""
    x = disc.reduce_word(n, draw(words(n, 4)))
    bnd = draw(st.dictionaries(st.sampled_from(disc.boundary_chords(n)), st.integers(-2, 2), max_size=3))
    return disc.localize(x, bnd)


class TestAgainstOracles:
    @given(st.integers(3, 12).flatmap(lambda n: st.tuples(st.just(n), long_words(n))))
    @settings(max_examples=150, deadline=None)
    def test_reduce_word_matches_the_tuple_rewriting(self, case):
        n, word = case
        got = disc.reduce_word(n, word)
        assert got == oracle_reduce_word(n, word)
        assert disc.reduce_word(n, word, rng=random.Random(len(word))) == got

    @given(st.integers(3, 12).flatmap(lambda n: st.tuples(localized(n), localized(n))))
    @settings(max_examples=100, deadline=None)
    def test_product_with_localized_boundary_matches_the_oracle(self, case):
        x, y = case
        assert disc.product(x, y) == oracle_product(x, y)

    def test_localization_weights_reach_the_product(self):
        x = disc.localize(disc.reduce_word(6, [(1, 3), (2, 5)]), {(1, 2): -2, (5, 6): 1})
        y = disc.localize(disc.reduce_word(6, [(2, 4), (1, 5)]), {(2, 3): -1, (1, 6): 2})
        assert any(w < 0 for key in x.support() for _, w in key)
        assert disc.product(x, y) == oracle_product(x, y)
        assert disc.product(y, x) == oracle_product(y, x)

    def test_expand_laurent_matches_the_torus_product_for_every_chord(self):
        count = 0
        for n in range(3, 8):
            for delta in disc.enumerate_triangulations(n):
                for c in disc.all_chords(n):
                    x = DiscElement.basis(n, [c])
                    assert disc.expand_laurent(x, delta) == oracle_expand_laurent(x, delta)
                    count += 1
        assert count == 1157

    def test_expand_laurent_matches_the_torus_product_on_two_chord_words(self):
        rng = random.Random(6)
        deltas = [(n, d) for n in range(3, 8) for d in disc.enumerate_triangulations(n)]
        assert len(deltas) == 64
        for k in range(200):
            n, delta = deltas[k % len(deltas)]
            chords = disc.all_chords(n)
            x = disc.reduce_word(n, [rng.choice(chords), rng.choice(chords)])
            assert disc.expand_laurent(x, delta) == oracle_expand_laurent(x, delta)

    def test_two_chords_on_a_thousand_points(self):
        word = [(1, 500), (250, 750)]
        got = disc.reduce_word(1000, word)
        assert got == oracle_reduce_word(1000, word)
        assert len(got.support()) == 2

    def test_wide_product_on_sixty_points(self):
        x = DiscElement.basis(60, [(3 * k - 2, 3 * k) for k in range(1, 21)])
        y = DiscElement.basis(60, [(2, 59)])
        got = disc.product(x, y)
        assert got == oracle_product(x, y)
        assert len(got.support()) == 4
