"""Quantum seeds: mutation, compatibility, freezing, membership."""

from collections import deque

import pytest

from qskein import disc, qseed
from qskein import surface as surf
from qskein.disc import DiscElement
from qskein.annulus import AnnulusModel
from qskein.qcoeff import DivisionFailure, QCoeff
from qskein.qseed import CompatibilityError, QuantumSeed
from qskein.qtorus import SkewForm, TorusElement

FAN5 = tuple(sorted(disc.boundary_chords(5) + [(1, 3), (1, 4)]))


@pytest.fixture
def pentagon():
    return disc.triangulation_seed(5, FAN5)


def start_seed(name):
    """The fan seed of disc:n, or the seed of the (1, 1) annulus."""
    if name == "annulus":
        return surf.to_seed(surf.build_annulus(1, 1))
    n = int(name.split(":")[1])
    fan = disc.boundary_chords(n) + [(1, k) for k in range(3, n)]
    return disc.triangulation_seed(n, tuple(sorted(fan)))


def incompatible_seed():
    """(Lambda B)[1][0] = 1: X'_0 cannot quasi-commute with X_1."""
    lam = SkewForm([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
    return QuantumSeed.initial(lam, [[0], [1], [1]], (0,))


class TestConstruction:
    def test_initial_seed(self, pentagon):
        assert pentagon.is_initial()
        assert pentagon.ex == (1, 2)
        assert pentagon.n == 7
        assert pentagon.b == ((1, 0), (0, 1), (-1, 0), (0, -1), (-1, 0), (1, -1), (0, 1))

    def test_rejects_non_skew_pi_b(self):
        lam = SkewForm([[0, 1], [-1, 0]])
        with pytest.raises(ValueError):
            QuantumSeed.initial(lam, [[1, 0], [0, 1]], (0, 1))

    def test_rejects_zero_frame_entry(self):
        lam = SkewForm([[0, 2], [-2, 0]])
        seed = QuantumSeed.initial(lam, [[0, 1], [-1, 0]], (0, 1))
        frame = list(seed.frame)
        frame[0] = TorusElement.zero(seed.ambient)
        with pytest.raises(ValueError):
            QuantumSeed(seed.ambient, seed.lam, seed.b, seed.ex, frame)


class TestCompatibility:
    def test_pentagon_diagonal(self, pentagon):
        assert pentagon.check_compatibility() == {1: 4, 2: 4}

    def test_nonpositive_diagonal_entry_names_it(self):
        seed = QuantumSeed.initial(SkewForm([[0, 1], [-1, 0]]), [[0], [-1]], (0,))
        message = r"^\(Lambda B\)\[0\]\[0\] = -1 is not positive$"
        with pytest.raises(CompatibilityError, match=message) as exc:
            seed.check_compatibility()
        assert exc.value.entry == (0, 0)

    def test_degenerate_pairing_raises(self):
        lam = SkewForm([[0, 0], [0, 0]])
        seed = QuantumSeed.initial(lam, [[0, 1], [-1, 0]], (0, 1))
        with pytest.raises(CompatibilityError):
            seed.check_compatibility()


class TestMutation:
    def test_pentagon_mutation_is_the_flipped_chord(self, pentagon):
        mut = pentagon.mutate(1)
        assert mut.frame[1].support() == [
            (0, -1, 1, 0, 1, 0, 0),
            (1, -1, 0, 0, 0, 1, 0),
        ]
        new_delta, new_chord = disc.flip_diagonal(5, FAN5, FAN5[1])
        assert new_chord == (2, 4)
        expansion = disc.expand_laurent(DiscElement.basis(5, [new_chord]), FAN5)
        assert mut.frame[1] == expansion

    def test_involution(self, pentagon):
        assert pentagon.mutate(1).mutate(1) == pentagon
        assert pentagon.mutate(2).mutate(2) == pentagon

    def test_unmutated_frame_entries_survive(self, pentagon):
        mut = pentagon.mutate(1)
        for i in range(pentagon.n):
            if i != 1:
                assert mut.frame[i] == pentagon.frame[i]

    def test_b_matrix_exchange(self, pentagon):
        mut = pentagon.mutate(1)
        flipped_delta, _ = disc.flip_diagonal(5, FAN5, FAN5[1])
        assert mut.b == disc.triangulation_seed(5, flipped_delta).b

    def test_mutation_preserves_compatibility(self, pentagon):
        assert pentagon.mutate(1).check_compatibility() == {1: 4, 2: 4}

    def test_frozen_index_rejected(self, pentagon):
        with pytest.raises(ValueError):
            pentagon.mutate(0)
        with pytest.raises(ValueError):
            pentagon.mutate(99)

    def test_mutated_seed_is_not_initial(self, pentagon):
        assert not pentagon.mutate(1).is_initial()

    @pytest.mark.parametrize(
        "name, cap",
        [("disc:4", 99), ("disc:5", 99), ("disc:6", 99), ("disc:7", 99), ("annulus", 24)],
    )
    def test_closed_form_lambda_matches_products(self, monkeypatch, name, cap):
        reached = []
        mutate = QuantumSeed.mutate

        def recording(seed, i):
            reached.append((i, mutate(seed, i)))
            return reached[-1][1]

        monkeypatch.setattr(QuantumSeed, "mutate", recording)
        seeds, _ = qseed.enumerate_seeds(start_seed(name), max_seeds=cap, max_depth=64)
        assert len(reached) >= len(seeds) - 1
        for i, mut in reached:
            products = [
                0 if j == i else qseed.quasi_commutation_exponent(mut.frame[i], mut.frame[j])
                for j in range(mut.n)
            ]
            assert list(mut.lam.matrix[i]) == products

    def test_incompatible_column_raises(self):
        with pytest.raises(CompatibilityError):
            incompatible_seed().mutate(0)

    def test_incompatible_column_names_the_entry(self):
        with pytest.raises(CompatibilityError) as info:
            incompatible_seed().mutate(0)
        assert str(info.value) == "(Lambda B)[1][0] = 1, expected 0"
        assert info.value.entry == (1, 0)


class TestFrameMonomial:
    def test_single_index(self, pentagon):
        gamma = tuple(1 if i == 1 else 0 for i in range(7))
        assert pentagon.frame_monomial(gamma) == pentagon.frame[1]

    def test_twist_makes_it_bar_invariant(self, pentagon):
        gamma = (1, 1, 0, 0, 1, 0, 0)
        m = pentagon.frame_monomial(gamma)
        assert m.bar() == m

    def test_negative_exponent_rejected(self, pentagon):
        with pytest.raises(ValueError):
            pentagon.frame_monomial((-1, 0, 0, 0, 0, 0, 0))


class TestFreeze:
    def test_freeze_drops_columns(self, pentagon):
        frozen = pentagon.freeze({1})
        assert frozen.ex == (2,)
        assert frozen.b == tuple((row[1],) for row in pentagon.b)

    def test_freeze_non_exchangeable_rejected(self, pentagon):
        with pytest.raises(ValueError):
            pentagon.freeze({0})


class TestQuasiCommutation:
    def test_monomials(self):
        form = SkewForm([[0, 1], [-1, 0]])
        x = TorusElement.monomial(form, (1, 0))
        y = TorusElement.monomial(form, (0, 1))
        assert qseed.quasi_commutation_exponent(x, y) == 1
        assert qseed.quasi_commutation_exponent(y, x) == -1

    def test_non_quasi_commuting_pair_raises(self):
        form = SkewForm([[0, 1], [-1, 0]])
        x = TorusElement.monomial(form, (1, 0)) + TorusElement.monomial(form, (0, 0))
        y = TorusElement.monomial(form, (0, 1))
        with pytest.raises(CompatibilityError):
            qseed.quasi_commutation_exponent(x, y)


class TestMembership:
    def test_initial_frame_and_mutated_variable_pass(self, pentagon):
        for i in range(pentagon.n):
            assert qseed.upper_membership(pentagon.frame[i], pentagon)
        assert qseed.upper_membership(pentagon.mutate(1).frame[1], pentagon)

    def test_inverse_exchangeable_monomial_fails(self, pentagon):
        for i in pentagon.ex:
            alpha = tuple(-1 if k == i else 0 for k in range(pentagon.n))
            bad = TorusElement.monomial(pentagon.ambient, alpha)
            assert not qseed.upper_membership(bad, pentagon)

    def test_inverse_frozen_monomial_passes(self, pentagon):
        alpha = tuple(-1 if k == 0 else 0 for k in range(pentagon.n))
        assert qseed.upper_membership(TorusElement.monomial(pentagon.ambient, alpha), pentagon)


def membership_uncached(x, seed):
    """upper_membership as first written: X'_i rebuilt by mutate on every call."""
    n = seed.n
    for i in seed.ex:
        xprime = seed.mutate(i).frame[i]
        for k, y in x.collect_on_index(i).items():
            if k >= 0:
                continue
            layer = TorusElement.monomial(
                seed.ambient, tuple(k if l == i else 0 for l in range(n))
            ) * y
            try:
                layer.exact_divide_left(xprime ** (-k))
            except DivisionFailure:
                return False
    return True


class TestMembershipMemo:
    """Each seed builds its X'_i once, on the first membership test."""

    def test_repeated_calls_mutate_once_per_index(self, monkeypatch):
        seed = start_seed("annulus")
        calls = []
        mutate = QuantumSeed.mutate

        def counting(self, i):
            calls.append(i)
            return mutate(self, i)

        monkeypatch.setattr(QuantumSeed, "mutate", counting)
        x = TorusElement.monomial(seed.ambient, (0, 0, -1, 0))
        for _ in range(3):
            assert not qseed.upper_membership(x, seed)
            assert qseed.upper_membership(seed.frame[2], seed)
        assert calls == list(seed.ex)

    def test_xprime_is_the_mutated_variable(self):
        seed = start_seed("annulus")
        for i in seed.ex:
            assert seed.xprime(i) == seed.mutate(i).frame[i]
        with pytest.raises(ValueError, match="not exchangeable"):
            seed.xprime(0)

    def test_verdicts_match_uncached_membership(self):
        model = AnnulusModel(bound=8)
        seed = model.seed
        fresh = start_seed("annulus")
        elements = [model.x(i) for i in range(-8, 9)] + [model.ell]
        assert all(qseed.upper_membership(x, seed) for x in elements)
        for k in range(seed.n):
            alpha = tuple(-1 if j == k else 0 for j in range(seed.n))
            elements.append(TorusElement.monomial(seed.ambient, alpha))
        for x in elements:
            expected = membership_uncached(x, fresh)
            assert qseed.upper_membership(x, seed) == expected
        assert [qseed.upper_membership(x, seed) for x in elements[-4:]] == [
            True, True, False, False
        ]

    def test_incompatible_seed_raises_without_a_negative_layer(self):
        seed = incompatible_seed()
        for _ in range(2):
            with pytest.raises(CompatibilityError):
                qseed.upper_membership(seed.frame[1], seed)

    def test_memo_is_not_part_of_the_seed(self):
        filled, blank = start_seed("annulus"), start_seed("annulus")
        before = (filled.fingerprint(), hash(filled), filled.to_json())
        assert qseed.upper_membership(filled.frame[0], filled)
        assert filled == blank
        assert (filled.fingerprint(), hash(filled), filled.to_json()) == before
        assert before == (blank.fingerprint(), hash(blank), blank.to_json())


class TestEnumeration:
    def test_pentagon_has_five_seeds(self, pentagon):
        seeds, truncated = qseed.enumerate_seeds(pentagon)
        assert len(seeds) == 5
        assert not truncated

    def test_truncation(self, pentagon):
        seeds, truncated = qseed.enumerate_seeds(pentagon, max_seeds=2)
        assert len(seeds) == 2
        assert truncated

    def test_a_cap_of_one_returns_the_start_alone(self, pentagon):
        seeds, truncated = qseed.enumerate_seeds(pentagon, max_seeds=1)
        assert seeds == [pentagon]
        assert truncated

    @pytest.mark.parametrize(
        "name, max_seeds, max_depth", [("disc:7", 99, 16), ("disc:7", 99, 3), ("annulus", 16, 64)]
    )
    def test_matches_a_plain_breadth_first_search(self, name, max_seeds, max_depth):
        start = start_seed(name)

        def key(s):
            return frozenset(f.fingerprint() for f in s.frame)

        def plain_bfs():
            seen, out, queue, truncated = {key(start)}, [start], deque([(start, 0)]), False
            while queue:
                s, depth = queue.popleft()
                if depth >= max_depth:
                    truncated = True
                    continue
                for i in s.ex:
                    t = s.mutate(i)
                    if key(t) in seen:
                        continue
                    seen.add(key(t))
                    out.append(t)
                    if len(out) >= max_seeds:
                        return out, True
                    queue.append((t, depth + 1))
            return out, truncated

        out, truncated = plain_bfs()
        seeds, got_truncated = qseed.enumerate_seeds(start, max_seeds, max_depth)
        assert [x.to_json() for x in seeds] == [x.to_json() for x in out]
        assert got_truncated == truncated


class TestJson:
    def test_round_trip_initial(self, pentagon):
        data = pentagon.to_json()
        assert set(data) == {"ex", "B", "lambda", "frame"}
        assert QuantumSeed.from_json(data) == pentagon

    def test_lambda_that_disagrees_with_the_frame_is_rejected(self, pentagon):
        data = pentagon.to_json()
        lam = data["lambda"]
        lam[0][1], lam[1][0] = -lam[0][1], -lam[1][0]
        assert lam[0][1]
        with pytest.raises(CompatibilityError) as info:
            QuantumSeed.from_json(data)
        assert info.value.entry == (0, 1)

    def test_round_trip_mutated(self, pentagon):
        mut = pentagon.mutate(1)
        back = QuantumSeed.from_json(mut.to_json())
        assert back == mut
        assert back.mutate(1) == pentagon


class TestMatrixUtilities:
    PENTAGON = [[0, 1], [-1, 0]]
    CYCLE = [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]

    def test_matrix_mutate(self):
        assert qseed.matrix_mutate(self.PENTAGON, 0) == [[0, -1], [1, 0]]
        hexagon = [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]
        assert qseed.matrix_mutate(hexagon, 1) == [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]

    def test_matrix_mutate_involution(self):
        for m in (self.PENTAGON, self.CYCLE):
            for i in range(len(m)):
                assert qseed.matrix_mutate(qseed.matrix_mutate(m, i), i) == m

    def test_matrix_mutate_rejects_non_skew(self):
        with pytest.raises(ValueError):
            qseed.matrix_mutate([[0, 1], [1, 0]], 0)

    def test_sinks_and_sources(self):
        assert qseed.sinks(self.PENTAGON) == [1]
        assert qseed.sources(self.PENTAGON) == [0]
        assert qseed.sinks(self.CYCLE) == []
        assert qseed.sources(self.CYCLE) == []

    def test_acyclicity(self):
        assert qseed.is_acyclic(self.PENTAGON)
        assert not qseed.is_acyclic(self.CYCLE)
        assert qseed.is_acyclic([[0]])

    def test_banff_step(self):
        assert qseed.banff_step(self.PENTAGON) == (0, 1)
        assert qseed.banff_step(self.CYCLE) is None
        assert qseed.banff_step([[0]]) is None
