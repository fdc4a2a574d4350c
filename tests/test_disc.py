"""Disc skein algebra: chords, rewriting, products, Laurent expansion."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qskein import disc
from qskein import surface as surf
from qskein.disc import DiscElement, InhomogeneousError, LocalizationError
from qskein.qcoeff import QCoeff


def words(n, max_len=3):
    return st.lists(st.sampled_from(disc.all_chords(n)), min_size=1, max_size=max_len)


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
