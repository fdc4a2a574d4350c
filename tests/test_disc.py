"""Disc skein algebra: chords, rewriting, products, Laurent expansion."""

import functools
import gc
import math
import random
import tracemalloc

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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: disc.multiset_key(5, [(1, 3), (1, 3)], [1, -1]),
            lambda: disc.multiset_key(5, [(1, 3), (1, 3)], [-1, 1]),
            lambda: DiscElement.basis(5, [(1, 3), (1, 3)], [2, -1]),
        ],
        ids=["cancels", "cancels-first", "sums-positive"],
    )
    def test_a_negative_internal_weight_is_rejected_before_summing(self, build):
        with pytest.raises(ValueError, match=r"^internal chord \(1, 3\) cannot have negative weight -1$"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DiscElement.basis(5, [(1, 3), (2, 4)], [1]),
            lambda: DiscElement.basis(5, [(1, 3)], [1, 7]),
        ],
        ids=["weight-missing", "weight-extra"],
    )
    def test_chords_and_weights_must_pair_up(self, build):
        with pytest.raises(ValueError, match=r"argument 2 is (shorter|longer) than argument 1"):
            build()

    def test_boundary_weights_may_cancel(self):
        assert disc.multiset_key(5, [(1, 2), (1, 2)], [1, -1]) == ()
        assert disc.multiset_key(5, [(1, 5), (1, 3), (1, 5)], [-1, 1, 2]) == (((1, 3), 1), ((1, 5), 1))

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

    def test_one_table_per_disc_size_and_at_most_256(self):
        for n in range(3, 303):
            disc.reduce_word(n, [(1, 3), (2, n)])
        assert disc._table(300).n == 300
        assert disc._table.cache_info().currsize == 256


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

    def test_mul_operator(self):
        x = DiscElement.basis(4, [(1, 3)])
        y = DiscElement.basis(4, [(2, 4)])
        assert x * y == disc.product(x, y)
        assert x * 3 == 3 * x == x.scale(3)
        assert x * QCoeff.v(1) == x.scale(QCoeff.v(1))
        with pytest.raises(TypeError):
            x * "x"

    def test_scalar_multiplication(self):
        x = DiscElement.basis(4, [(1, 3)])
        assert 3 * x == x.scale(QCoeff.from_int(3))
        assert (x + x).scale(QCoeff.from_int(2)) == 4 * x
        with pytest.raises(TypeError):
            x.scale(QCoeff.v(1, 0.5))

    @pytest.mark.parametrize(
        "build",
        [lambda: DiscElement.basis(5.0, [(1, 3)]), lambda: DiscElement.one(5.0), lambda: DiscElement(5.0)],
        ids=["basis", "one", "constructor"],
    )
    def test_non_integer_disc_size_raises(self, build):
        with pytest.raises(TypeError):
            build()

    def test_grading(self):
        assert DiscElement.basis(4, [(1, 2), (2, 3)]).grading() == (1, 2, 1, 0)
        assert DiscElement.zero(4).grading() == (0, 0, 0, 0)
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


class TestCrossingNumbers:
    def test_mu(self):
        assert disc.mu(DiscElement.basis(4, [(1, 3)]), DiscElement.basis(4, [(2, 4)])) == 1
        assert disc.mu(DiscElement.basis(4, [(1, 2)]), DiscElement.basis(4, [(2, 4)])) == 0
        assert disc.mu(DiscElement.zero(4), DiscElement.basis(4, [(2, 4)])) == 0

    def test_mu_keys_weighted(self):
        k1 = disc.multiset_key(4, [(1, 3)], [2])
        k2 = disc.multiset_key(4, [(2, 4)])
        assert disc.mu_keys(k1, k2) == 2

    def test_mu_delta(self):
        fan = tuple(sorted(disc.boundary_chords(5) + [(1, 3), (1, 4)]))
        x = DiscElement.basis(5, [(2, 4)])
        assert disc.mu_delta(5, fan, x) == (0, 1, 0, 0, 0, 0, 0)

    def test_elements_of_another_disc_rejected(self):
        with pytest.raises(ValueError, match="^elements live on discs of different sizes$"):
            disc.mu(DiscElement.basis(5, [(1, 3)]), DiscElement.basis(6, [(2, 4)]))
        with pytest.raises(ValueError, match="^elements live on discs of different sizes$"):
            disc.mu(DiscElement.zero(5), DiscElement.basis(6, [(2, 4)]))
        fan = tuple(sorted(disc.boundary_chords(5) + [(1, 3), (1, 4)]))
        with pytest.raises(ValueError, match="6 marked points, not 5"):
            disc.mu_delta(5, fan, DiscElement.basis(6, [(2, 6)]))


class TestLocalization:
    def test_boundary_inverse(self):
        x = DiscElement.basis(4, [(1, 2)])
        assert disc.localize(x, {(1, 2): -1}) == DiscElement.one(4)

    def test_internal_chord_rejected(self):
        with pytest.raises(LocalizationError):
            disc.localize(DiscElement.basis(4, [(1, 2)]), {(1, 3): 1})

    def test_weights_are_normalised_summed_and_zeros_dropped(self):
        x = DiscElement.basis(5, [(1, 3)])
        assert disc.localize(x, {(2, 1): 1, (1, 2): -1}) is x
        assert disc.localize(x, {(5, 1): 2, (1, 5): -1, (3, 4): 0}) == disc.localize(x, {(1, 5): 1})
        with pytest.raises(LocalizationError, match=r"^chord \(2, 4\) is not a boundary chord$"):
            disc.localize(x, {(1, 2): 0, (4, 2): 0})


def apex_triangulations(n):
    """enumerate_triangulations by splitting point tuples at each apex of
    the triangle on their first and last points, sub-lists rebuilt per
    apex."""

    def diagonal_sets(points):
        if len(points) <= 3:
            return [frozenset()]
        first, last = points[0], points[-1]
        out = []
        for k in range(1, len(points) - 1):
            apex = points[k]
            left = diagonal_sets(points[: k + 1])
            right = diagonal_sets(points[k:])
            extra = []
            if k > 1:
                extra.append((min(first, apex), max(first, apex)))
            if k < len(points) - 2:
                extra.append((min(apex, last), max(apex, last)))
            for dl in left:
                for dr in right:
                    out.append(dl | dr | frozenset(extra))
        return out

    base = disc.boundary_chords(n)
    return sorted(tuple(sorted(base + sorted(d))) for d in diagonal_sets(tuple(range(1, n + 1))))


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
        flipped = surf.flip(surf.from_chords(4, fan4), 1)
        assert surf.to_chords(flipped) == ((1, 2), (2, 4), (1, 4), (2, 3), (3, 4))
        back = surf.flip(flipped, 1)
        assert surf.to_chords(back) == fan4

    @pytest.mark.parametrize("n", range(3, 13))
    def test_interval_recursion_matches_the_apex_oracle(self, n):
        assert disc.enumerate_triangulations(n) == apex_triangulations(n)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_each_triangulation_listed_once(self, n):
        deltas = disc.enumerate_triangulations(n)
        assert len(deltas) == len(set(deltas)) == math.comb(2 * n - 4, n - 2) // (n - 1)


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

    def test_a_chord_image_off_the_triangulation_is_rejected(self, monkeypatch):
        fan4 = ((1, 2), (1, 3), (1, 4), (2, 3), (3, 4))
        monkeypatch.setattr(disc, "product", lambda x, y: DiscElement.basis(4, [(2, 4)]))
        disc._triangulation.cache_clear()
        try:
            with pytest.raises(
                ValueError,
                match=r"^product is not supported on the triangulation: chord \(2, 4\) appears$",
            ):
                disc.expand_laurent(DiscElement.basis(4, [(2, 4)]), fan4)
        finally:
            disc._triangulation.cache_clear()

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


def cleared_expand_laurent(x, delta):
    """expand_laurent as first written: the oracle of the chord-image path.

    Clears denominators with the monomial of mu_delta(x), reduces with one
    skein product, and divides back inside the torus: M^(-mu) M^alpha is
    v^(Lambda(-mu, alpha)) M^(alpha - mu), applied term by term.
    """
    n = x.n
    arcs = tuple(disc.normalize_chord(n, c) for c in delta)
    form = disc.triangulation_form(n, arcs)
    if x.is_zero():
        return TorusElement.zero(form)
    m = disc.mu_delta(n, arcs, x)
    denom_key = tuple(sorted((c, k) for c, k in zip(arcs, m) if k))
    numer = disc.product(DiscElement._raw(n, {denom_key: {0: 1}}), x)
    row = [0] * len(arcs)
    for i, k in enumerate(m):
        if k:
            row = [r - k * l for r, l in zip(row, form.matrix[i])]
    terms = {}
    for key, c in numer._terms.items():
        alpha = [0] * len(arcs)
        for ch, w in key:
            if ch not in arcs:
                raise ValueError(
                    f"product is not supported on the triangulation: chord {ch} appears"
                )
            alpha[arcs.index(ch)] = w
        s = sum(a * r for a, r in zip(alpha, row))
        terms[tuple(a - k for a, k in zip(alpha, m))] = coeff_shift(c, s) if s else c
    return TorusElement._raw(form, terms)


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
                    got = disc.expand_laurent(x, delta)
                    assert got == oracle_expand_laurent(x, delta)
                    assert got == cleared_expand_laurent(x, delta)
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


def _turn(n, r, c):
    """Chord c with marked point p relabelled p + r (mod n)."""
    return tuple((p - 1 + r) % n + 1 for p in c)


def _rotate(n, r, x):
    return DiscElement(
        n, [(tuple((_turn(n, r, c), w) for c, w in key), coef) for key, coef in x._terms.items()]
    )


class TestRotation:
    """The relations of the disc are the same at every marked point, so
    relabelling p as p + r (mod n) commutes with rewriting and products.
    The tuple oracles call lam_pair and _smooth themselves, so only this
    sees a fault in how one n-gon's table wraps its labels around."""

    @given(st.integers(3, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1), long_words(n))))
    @settings(max_examples=150, deadline=None)
    def test_rotating_a_word_rotates_its_reduction(self, case):
        n, r, word = case
        got = disc.reduce_word(n, [_turn(n, r, c) for c in word])
        assert got == _rotate(n, r, disc.reduce_word(n, word))

    @given(
        st.integers(3, 12).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, n - 1), localized(n), localized(n))
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_rotating_localized_factors_rotates_their_product(self, case):
        n, r, x, y = case
        got = disc.product(_rotate(n, r, x), _rotate(n, r, y))
        assert got == _rotate(n, r, disc.product(x, y))


@functools.lru_cache(maxsize=None)
def triangulations(n):
    return disc.enumerate_triangulations(n)


def assert_chord_denominators_in_bounded_memory(sizes):
    """Expand every chord over every triangulation of each n-gon in sizes,
    check that the negative support of each expansion is mu_delta (the
    denominator theorem), and that less than 1 MB of what the loop
    allocated is still live after it: chord images are kept only for the
    few most recently used triangulations."""
    disc._triangulation.cache_clear()
    tracemalloc.start()
    try:
        for n in sizes:
            chords = disc.all_chords(n)
            for delta in disc.enumerate_triangulations(n):
                for c in chords:
                    x = DiscElement.basis(n, [c])
                    support = disc.expand_laurent(x, delta).support()
                    neg = tuple(max(0, -min(col)) for col in zip(*support))
                    assert neg == disc.mu_delta(n, delta, x), (n, delta, c)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert live < 2**20, f"{live / 2**20:.2f} MB live after n = {sizes}"


class TestChordImageExpansion:
    """expand_laurent through chord images against the cleared-denominator oracle."""

    FAN5 = ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5))

    @given(
        st.integers(3, 9).flatmap(
            lambda n: st.tuples(localized(n), st.sampled_from(triangulations(n)))
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_cleared_expansion_on_localized_elements(self, case):
        x, delta = case
        assert disc.expand_laurent(x, delta) == cleared_expand_laurent(x, delta)

    def test_unit_maps_to_the_zero_exponent(self):
        for n in range(3, 7):
            for delta in triangulations(n):
                got = disc.expand_laurent(DiscElement.one(n), delta)
                assert got == TorusElement.monomial(got.form, (0,) * len(delta))
                assert got == cleared_expand_laurent(DiscElement.one(n), delta)

    def test_boundary_only_element_is_a_monomial(self):
        x = disc.localize(DiscElement.one(5), {(1, 2): -2, (3, 4): 1, (1, 5): 2})
        x = x.scale(QCoeff.v(3)) + x
        got = disc.expand_laurent(x, self.FAN5)
        assert got.support() == [(-2, 0, 0, 2, 0, 1, 0)]
        assert got == cleared_expand_laurent(x, self.FAN5)

    def test_interior_chord_of_weight_two_and_three(self):
        for w in (2, 3):
            x = disc.localize(DiscElement.basis(5, [(2, 4), (2, 5)], [w, 1]), {(4, 5): -1})
            assert disc.expand_laurent(x, self.FAN5) == cleared_expand_laurent(x, self.FAN5)
            y = DiscElement.basis(5, [(2, 4)])
            power = disc.expand_laurent(y, self.FAN5) ** w
            assert disc.expand_laurent(DiscElement.basis(5, [(2, 4)], [w]), self.FAN5) == power

    def test_zero_maps_to_zero(self):
        got = disc.expand_laurent(DiscElement.zero(5), self.FAN5)
        assert got.is_zero()
        assert got.form == disc.triangulation_form(5, self.FAN5)

    def test_warm_triangulation_makes_no_skein_product(self, monkeypatch):
        delta = ((1, 2), (1, 6), (2, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 6), (2, 6))
        x = disc.reduce_word(6, [(1, 3), (3, 5), (1, 4), (2, 5)])
        x = disc.localize(x, {(1, 2): -1, (5, 6): 2})
        assert len(x.support()) > 1
        assert any(len(key) > 2 for key in x.support())
        first = disc.expand_laurent(x, delta)

        def no_product(*args):
            raise AssertionError("skein product on a warm triangulation")

        monkeypatch.setattr(disc, "product", no_product)
        assert disc.expand_laurent(x, delta) == first
        monkeypatch.undo()
        assert first == cleared_expand_laurent(x, delta)

    def test_eviction_cannot_change_an_answer(self):
        n = 8
        bound = disc._triangulation.cache_info().maxsize
        assert len(triangulations(n)) > bound
        chords = disc.all_chords(n)
        first = {}
        for delta in triangulations(n):
            for c in chords:
                first[delta, c] = disc.expand_laurent(DiscElement.basis(n, [c]), delta)
                assert disc._triangulation.cache_info().currsize <= bound
        for delta in triangulations(n):
            disc._triangulation.cache_clear()
            for c in chords:
                assert disc.expand_laurent(DiscElement.basis(n, [c]), delta) == first[delta, c]

    def test_images_of_past_triangulations_are_not_kept(self):
        assert_chord_denominators_in_bounded_memory((7, 8))
