"""Quantum seeds: mutation, compatibility, freezing, membership."""

import itertools
import random
import re
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qskein import disc, qseed
from qskein import surface as surf
from qskein.disc import DiscElement
from qskein.annulus import AnnulusModel
from qskein._kernels import torus_mul
from qskein.qcoeff import DivisionFailure, LinearCombination, QCoeff
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


class TestConstructorChecks:
    LAM = SkewForm([[0, 1], [-1, 0]])
    OTHER = SkewForm([[0, 2], [-2, 0]])

    def frame(self, form=LAM):
        return QuantumSeed.initial(form, [[0], [1]], (0,)).frame

    @pytest.mark.parametrize(
        "lam, b, ex, message",
        [
            (SkewForm([[0]]), [[0], [1]], (0,), "lambda matrix rank differs from ambient torus rank"),
            (LAM, [[0, 0], [0, 0]], (1, 0), "exchangeable indices must be sorted and distinct"),
            (LAM, [[0, 0], [0, 0]], (0, 0), "exchangeable indices must be sorted and distinct"),
            (LAM, [[0], [1]], (2,), "exchangeable index out of range"),
            (LAM, [[0], [1]], (-1,), "exchangeable index out of range"),
            (LAM, [[0, 1], [1]], (0,), "expected rows of length 1, got 2"),
            (LAM, [[0]], (0,), "exchange matrix needs 2 rows, got 1"),
            (LAM, [[1], [0]], (0,), "exchangeable part of B is not skew at (0,0)"),
        ],
    )
    def test_rejects_matrices_and_indices(self, lam, b, ex, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            QuantumSeed(self.LAM, lam, b, ex, self.frame())

    def test_rejects_frames(self):
        cases = [
            (self.frame()[:1], "frame needs 2 variables, got 1"),
            (self.frame(self.OTHER), "frame variables must live in the ambient torus"),
            ((self.frame()[0], "M[0, 1]"), "frame variables must live in the ambient torus"),
            ((self.frame()[0], TorusElement.zero(self.LAM)), "frame variables must be nonzero"),
        ]
        for frame, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                QuantumSeed(self.LAM, self.LAM, [[0], [1]], (0,), frame)

    def test_frame_monomial_rejects_a_wrong_length(self, pentagon):
        with pytest.raises(ValueError, match="^exponent vector has wrong length$"):
            pentagon.frame_monomial((1, 0))

    def test_membership_rejects_a_foreign_torus_and_a_mutated_seed(self, pentagon):
        foreign = TorusElement.monomial(self.LAM, (1, 0))
        message = "^element does not live in the seed's ambient torus$"
        with pytest.raises(ValueError, match=message):
            qseed.upper_membership(foreign, pentagon)
        with pytest.raises(ValueError, match="^membership is tested against the initial seed$"):
            qseed.upper_membership(pentagon.frame[0], pentagon.mutate(1))


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
        new_chord = surf.to_chords(surf.flip(surf.from_chords(5, FAN5), 1))[1]
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
        flipped = surf.flip(surf.from_chords(5, FAN5), 1)
        assert mut.b == surf.to_seed(flipped).b

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

    def test_exchange_monomial_with_a_twist_is_bar_invariant(self):
        # D = {0: 1}, and p = (0, 1, 1, 0) has frame twist Lambda[1][2] = 1,
        # where every preset's exchange monomials have twist 0.
        lam = SkewForm([[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, -1], [0, -1, 1, 0]])
        seed = QuantumSeed.initial(lam, [[0], [1], [1], [-1]], (0,))
        assert seed.check_compatibility() == {0: 1}
        x = seed.mutate(0).frame[0]
        assert x.bar() == x

    def test_incompatible_column_raises(self):
        with pytest.raises(CompatibilityError):
            incompatible_seed().mutate(0)

    def test_incompatible_column_names_the_entry(self):
        with pytest.raises(CompatibilityError) as info:
            incompatible_seed().mutate(0)
        assert str(info.value) == "(Lambda B)[1][0] = 1, expected 0"
        assert info.value.entry == (1, 0)


def dense_check_compatibility(seed):
    """check_compatibility as first written: each (Lambda B) entry a dense sum."""
    d = {}
    for c, j in enumerate(seed.ex):
        for k in range(seed.n):
            entry = sum(seed.lam.matrix[k][l] * seed.b[l][c] for l in range(seed.n))
            if k == j:
                if entry <= 0:
                    raise CompatibilityError(
                        f"(Lambda B)[{k}][{c}] = {entry} is not positive", entry=(k, c)
                    )
                d[j] = entry
            elif entry != 0:
                raise CompatibilityError(
                    f"(Lambda B)[{k}][{c}] = {entry}, expected 0", entry=(k, c)
                )
    return d


def dense_mutate(seed, i):
    """Lambda' and X'_i as mutate first computed them, each pairing with
    Lambda a dense row sum."""
    col = seed.ex.index(i)
    bcol = [seed.b[k][col] for k in range(seed.n)]
    p = tuple(max(v, 0) for v in bcol)
    m = tuple(max(-v, 0) for v in bcol)
    m_ei = tuple(v - (k == i) for k, v in enumerate(m))

    def row_pairing(j, beta):
        return sum(r * b for r, b in zip(seed.lam.matrix[j], beta))

    newlam = [list(row) for row in seed.lam.matrix]
    for j in range(seed.n):
        if j == i:
            continue
        if entry := row_pairing(j, bcol):
            raise CompatibilityError(
                f"(Lambda B)[{j}][{col}] = {entry}, expected 0", entry=(j, col)
            )
        newlam[j][i] = row_pairing(j, m_ei)
        newlam[i][j] = -newlam[j][i]
    numer = seed.frame_monomial(p).shift(row_pairing(i, p))
    numer = numer + seed.frame_monomial(m).shift(row_pairing(i, m))
    return SkewForm(newlam), numer.exact_divide_left(seed.frame[i])


def mutated_lambda_and_variable(seed, i):
    t = seed.mutate(i)
    return t.lam, t.frame[i]


def outcome(f, *args):
    """f(*args), or the message and entry of the CompatibilityError it raises."""
    try:
        return f(*args)
    except CompatibilityError as exc:
        return "raised", str(exc), exc.entry


def assert_matches_dense(seed):
    assert outcome(QuantumSeed.check_compatibility, seed) == outcome(
        dense_check_compatibility, seed
    )
    for i in seed.ex:
        assert outcome(mutated_lambda_and_variable, seed, i) == outcome(dense_mutate, seed, i)


@st.composite
def small_initial_seeds(draw):
    """Initial seeds of rank <= 5 with any skew Lambda and B, compatible or not."""
    n = draw(st.integers(1, 5))
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lam[i][j] = draw(st.integers(-2, 2))
            lam[j][i] = -lam[i][j]
    ex = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    b = [[draw(st.integers(-2, 2)) for _ in ex] for _ in range(n)]
    for r, i in enumerate(ex):
        b[i][r] = 0
        for c in range(r + 1, len(ex)):
            b[ex[c]][r] = -b[i][c]
    return QuantumSeed.initial(SkewForm(lam), b, ex)


class TestSparseLambdaAction:
    """check_compatibility and mutate read Lambda B through _kernels.act; the
    dense sums they replaced are the oracle, down to the first failing entry."""

    def test_every_disc_triangulation_up_to_eight_points(self):
        for n in range(3, 9):
            for delta in disc.enumerate_triangulations(n):
                assert_matches_dense(disc.triangulation_seed(n, delta))

    def test_annulus_seeds(self):
        seeds, _ = qseed.enumerate_seeds(start_seed("annulus"), max_seeds=12)
        for seed in seeds:
            assert_matches_dense(seed)

    @pytest.mark.parametrize("n", range(4, 21))
    def test_disc_preset_and_its_mutations(self, n):
        seed = start_seed(f"disc:{n}")
        assert_matches_dense(seed)
        for i in seed.ex:
            assert_matches_dense(seed.mutate(i))

    def test_incompatible_seeds(self):
        seeds = [
            incompatible_seed(),
            QuantumSeed.initial(SkewForm([[0, 1], [-1, 0]]), [[0], [-1]], (0,)),
            QuantumSeed.initial(SkewForm([[0, 0], [0, 0]]), [[0, 1], [-1, 0]], (0, 1)),
        ]
        for seed in seeds:
            assert outcome(dense_check_compatibility, seed)[0] == "raised"
            assert_matches_dense(seed)

    @given(small_initial_seeds())
    @settings(max_examples=300, deadline=None)
    def test_random_small_seeds(self, seed):
        assert_matches_dense(seed)


def dense_frame_monomial(seed, gamma):
    """frame_monomial as first written: the twist summed over all pairs k < l."""
    twist = 0
    for k in range(seed.n):
        for l in range(k + 1, seed.n):
            twist += seed.lam.matrix[k][l] * gamma[k] * gamma[l]
    out = TorusElement.monomial(seed.ambient, (0,) * seed.n, QCoeff.v(-twist))
    for k in range(seed.n):
        if gamma[k]:
            out = out * seed.frame[k] ** gamma[k]
    return out


class TestFrameMonomial:
    @pytest.mark.parametrize("name", ["disc:6", "annulus"])
    def test_matches_the_dense_twist(self, name):
        seeds, _ = qseed.enumerate_seeds(start_seed(name), max_seeds=8)
        rng = random.Random(name)
        for seed in seeds:
            for _ in range(6):
                gamma = [rng.choice((0, 0, 1, 2)) for _ in range(seed.n)]
                assert seed.frame_monomial(gamma) == dense_frame_monomial(seed, gamma)

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

    def test_zero_exponent_is_the_unit(self, pentagon):
        unit = TorusElement.monomial(pentagon.ambient, (0,) * 7)
        assert pentagon.frame_monomial((0,) * 7) == unit

    @pytest.mark.parametrize("name, cap", [("disc:7", 1000), ("annulus", 14)])
    def test_no_product_multiplies_by_one(self, monkeypatch, name, cap):
        """Enumeration and frame monomials start every product from its
        first factor, and build no element through the checked constructor."""
        import qskein.qtorus

        products, units, checked = [], [], []

        def counting(x, y, matrix):
            unit = {(0,) * len(matrix): {0: 1}}
            products.append(1)
            if unit in (x, y):
                units.append((x, y))
            return torus_mul(x, y, matrix)

        def checked_new(cls, *args):
            checked.append(cls)
            return new(cls, *args)

        new = LinearCombination.__new__
        monkeypatch.setattr(qskein.qtorus, "torus_mul", counting)
        monkeypatch.setattr(LinearCombination, "__new__", staticmethod(checked_new))
        seeds, _ = qseed.enumerate_seeds(start_seed(name), max_seeds=cap)
        assert (len(seeds), units, checked) == ({"disc:7": 42, "annulus": 14}[name], [], [])
        rng = random.Random(name)
        for seed in seeds[:8]:
            for _ in range(6):
                seed.frame_monomial([rng.choice((0, 0, 1, 2, 3)) for _ in range(seed.n)])
        assert products and (units, checked) == ([], [])


class TestFreeze:
    def test_freeze_drops_columns(self, pentagon):
        frozen = pentagon.freeze({1})
        assert frozen.ex == (2,)
        assert frozen.b == tuple((row[1],) for row in pentagon.b)

    def test_freeze_non_exchangeable_rejected(self, pentagon):
        with pytest.raises(ValueError):
            pentagon.freeze({0})

    def test_non_integer_index_raises_like_mutate(self, pentagon):
        for call in (pentagon.mutate, lambda i: pentagon.freeze([i])):
            with pytest.raises(TypeError):
                call(1.0)


class TestQuasiCommutation:
    def test_monomials(self):
        form = SkewForm([[0, 1], [-1, 0]])
        x = TorusElement.monomial(form, (1, 0))
        y = TorusElement.monomial(form, (0, 1))
        assert qseed.quasi_commutation_exponent(x, y) == 1
        assert qseed.quasi_commutation_exponent(y, x) == -1
        assert qseed.quasi_commutation_exponent(TorusElement.zero(form), y) == 0

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


def collect_on_index(x, i):
    """{k: y_k} with x = sum_k M^(k e_i) * y_k and y_k free of index i."""
    layers = {}
    row = x.form.matrix[i]
    for alpha, c in x._terms.items():
        k = alpha[i]
        s = -k * sum(r * a for r, a in zip(row, alpha))
        layers.setdefault(k, {})[alpha[:i] + (0,) + alpha[i + 1 :]] = QCoeff(c).shift(s)._terms
    return {k: TorusElement(x.form, t) for k, t in layers.items()}


def membership_uncached(x, seed):
    """upper_membership as first written: X'_i rebuilt by mutate on every call."""
    n = seed.n
    for i in seed.ex:
        xprime = seed.mutate(i).frame[i]
        for k, y in collect_on_index(x, i).items():
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

    @pytest.mark.parametrize("name", ["annulus", "disc:40", "incompatible"])
    def test_a_frozen_index_raises_before_the_memo_is_filled(self, monkeypatch, name):
        seed = incompatible_seed() if name == "incompatible" else start_seed(name)
        frozen = next(i for i in range(seed.n) if i not in seed.ex)
        calls = []
        monkeypatch.setattr(QuantumSeed, "mutate", lambda self, i: calls.append(i))
        with pytest.raises(ValueError, match=f"^index {frozen} is not exchangeable$"):
            seed.xprime(frozen)
        assert (calls, seed._xprime) == ([], None)

    def test_kept_powers_are_powers_of_xprime(self):
        model = AnnulusModel(bound=8)
        seed = model.seed
        assert all(qseed.upper_membership(model.x(i), seed) for i in range(-8, 9))
        kept = {i: len(powers) for i, powers in seed._xprime.items()}
        assert max(kept.values()) > 2
        for i, top in kept.items():
            for m in range(1, top + 1):
                assert seed.xprime_power(i, m) == seed.xprime(i) ** m
        assert {i: len(powers) for i, powers in seed._xprime.items()} == kept
        with pytest.raises(ValueError, match="not positive"):
            seed.xprime_power(seed.ex[0], 0)

    @pytest.mark.parametrize(
        "call",
        [lambda s: s.mutate(2.0), lambda s: s.xprime_power(2, 1.5), lambda s: s.xprime(2.0)],
        ids=["mutate", "xprime_power", "xprime"],
    )
    def test_non_integer_arguments_raise_before_any_work(self, call):
        seed = start_seed("annulus")
        with pytest.raises(TypeError):
            call(seed)
        assert seed._xprime is None

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
        before = (hash(filled), filled.to_json())
        assert qseed.upper_membership(filled.frame[0], filled)
        assert filled == blank
        assert (hash(filled), filled.to_json()) == before
        assert before == (hash(blank), blank.to_json())


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
        "max_seeds, max_depth, error",
        [(0, 16, ValueError), (-1, 16, ValueError), (2, -1, ValueError),
         (2.5, 16, TypeError), (2, 1.0, TypeError)],
    )
    def test_caps_are_checked_integers(self, pentagon, max_seeds, max_depth, error):
        with pytest.raises(error):
            qseed.enumerate_seeds(pentagon, max_seeds, max_depth)

    @pytest.mark.parametrize(
        "name, max_seeds, max_depth, count, truncated",
        [
            ("disc:3", 1, 16, 1, False),
            ("disc:3", 64, 0, 1, False),
            ("disc:4", 64, 16, 2, False),
            ("disc:4", 2, 16, 2, False),
            ("disc:4", 64, 1, 2, False),
            ("disc:4", 1, 16, 1, True),
            ("disc:4", 64, 0, 1, True),
            ("disc:5", 99, 2, 5, True),
        ],
    )
    def test_truncated_only_when_an_index_is_left(
        self, name, max_seeds, max_depth, count, truncated
    ):
        # disc:3 has no mutation, and the A_1 pattern of disc:4 is two
        # seeds one mutation apart: caps that end the search exactly there
        # cut nothing off.
        seeds, got = qseed.enumerate_seeds(start_seed(name), max_seeds, max_depth)
        assert (len(seeds), got) == (count, truncated)

    @pytest.mark.parametrize(
        "name, max_seeds, max_depth",
        [
            ("disc:7", 99, 16),
            ("disc:7", 99, 3),
            ("annulus", 16, 64),
            ("disc:3", 1, 0),
            ("disc:4", 2, 1),
            ("disc:5", 99, 2),
        ],
    )
    def test_matches_a_plain_breadth_first_search(self, name, max_seeds, max_depth):
        start = start_seed(name)

        def key(s):
            return frozenset(f.fingerprint() for f in s.frame)

        def plain_bfs():
            # Truncated when a cap skips an index other than the one the
            # seed came from, whether or not it would give a new seed.
            seen, out, queue, truncated = {key(start)}, [start], deque([(start, 0, None)]), False
            while queue:
                s, depth, back = queue.popleft()
                for i in s.ex:
                    if depth >= max_depth or len(out) >= max_seeds:
                        truncated = truncated or i != back
                        continue
                    t = s.mutate(i)
                    if key(t) in seen:
                        continue
                    seen.add(key(t))
                    out.append(t)
                    queue.append((t, depth + 1, i))
            return out, truncated

        out, truncated = plain_bfs()
        seeds, got_truncated = qseed.enumerate_seeds(start, max_seeds, max_depth)
        assert [x.to_json() for x in seeds] == [x.to_json() for x in out]
        assert got_truncated == truncated


class TestDivisionFreeFrames:
    """Frames built by mutation, each a chain of exact divisions, against
    frames built without dividing: chord expansions on the disc and the
    three-term recurrence on the annulus."""

    @pytest.mark.parametrize("n", range(4, 9))
    def test_disc_frames_are_chord_expansions(self, n):
        fan = tuple(sorted(disc.boundary_chords(n) + [(1, k) for k in range(3, n)]))
        chords = {}
        seen = {frozenset(fan)}
        start = surf.from_chords(n, fan)
        queue = deque([(start, surf.to_seed(start))])
        while queue:
            s, seed = queue.popleft()
            delta = surf.to_chords(s)
            for j, c in enumerate(delta):
                if c not in chords:
                    chords[c] = disc.expand_laurent(DiscElement.basis(n, [c]), fan)
                assert seed.frame[j] == chords[c], (delta, j)
            for i in seed.ex:
                flipped = surf.flip(s, i)
                key = frozenset(surf.to_chords(flipped))
                if key not in seen:
                    seen.add(key)
                    queue.append((flipped, seed.mutate(i)))
        assert len(seen) == [2, 5, 14, 42, 132][n - 4]

    def test_annulus_frames_are_the_recurrence(self):
        assert_annulus_frames_are_the_recurrence(10)


def assert_annulus_frames_are_the_recurrence(depth):
    """The annulus seeds within depth mutations of the start hold exactly
    the pairs x_k, x_(k+1) of AnnulusModel for k = -depth..depth."""
    seeds, _ = qseed.enumerate_seeds(start_seed("annulus"), max_seeds=10**6, max_depth=depth)
    model = AnnulusModel(bound=depth + 1)
    pairs = {frozenset(s.frame[i].fingerprint() for i in s.ex) for s in seeds}
    assert len(seeds) == 2 * depth + 1
    assert pairs == {
        frozenset((model.x(k).fingerprint(), model.x(k + 1).fingerprint()))
        for k in range(-depth, depth + 1)
    }


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
        assert str(info.value) == (
            f"frame variables 0 and 1 quasi-commute with exponent {-lam[0][1]}, "
            f"but lambda[0][1] = {lam[0][1]}"
        )

    def test_round_trip_mutated(self, pentagon):
        mut = pentagon.mutate(1)
        back = QuantumSeed.from_json(mut.to_json())
        assert back == mut
        assert back.mutate(1) == pentagon


class TestCheckFrame:
    """check_frame tests exactly the pairs of frame variables that meet rows."""

    @staticmethod
    def with_wrong_entry(seed, i, j):
        lam = [list(row) for row in seed.lam.matrix]
        lam[i][j], lam[j][i] = lam[i][j] + 1, lam[j][i] - 1
        return QuantumSeed(seed.ambient, SkewForm(lam), seed.b, seed.ex, seed.frame)

    @pytest.mark.parametrize("rows", [(0,), (1,), (1, 5), range(7)])
    def test_a_wrong_entry_in_a_checked_row_raises(self, pentagon, rows):
        bad = self.with_wrong_entry(pentagon, 0, 1)
        with pytest.raises(CompatibilityError) as info:
            bad.check_frame(rows)
        assert info.value.entry == (0, 1)

    def test_non_integer_rows_raise(self, pentagon):
        with pytest.raises(TypeError):
            self.with_wrong_entry(pentagon, 0, 1).check_frame([1.5])

    def test_a_pair_that_misses_the_rows_is_not_checked(self, pentagon):
        bad = self.with_wrong_entry(pentagon, 0, 1)
        bad.check_frame(range(2, 7))
        bad.check_frame(())

    def test_a_row_is_checked_against_every_other_variable(self, pentagon, monkeypatch):
        pairs = []
        oracle = qseed.quasi_commutation_exponent

        def counted(x, y):
            pairs.append((pentagon.frame.index(x), pentagon.frame.index(y)))
            return oracle(x, y)

        monkeypatch.setattr(qseed, "quasi_commutation_exponent", counted)
        pentagon.check_frame((3,))
        assert pairs == [(0, 3), (1, 3), (2, 3), (3, 4), (3, 5), (3, 6)]


def dense_mutate_columns(b, i, col):
    """_mutate_columns as first written: every entry of B rebuilt."""
    out = []
    for k, row in enumerate(b):
        x = row[col]
        new = []
        for c, entry in enumerate(row):
            if k == i or c == col:
                new.append(-entry)
            else:
                y = b[i][c]
                new.append(entry + (abs(x) * y + x * abs(y)) // 2)
        out.append(new)
    return out


@st.composite
def skew_matrices(draw):
    n = draw(st.integers(1, 6))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = draw(st.integers(-3, 3))
            a[j][i] = -a[i][j]
    return a


@st.composite
def quivers(draw):
    """Skew matrices, half of them acyclic: every arrow follows a drawn order."""
    a = draw(skew_matrices())
    if draw(st.booleans()):
        rank = {k: r for r, k in enumerate(draw(st.permutations(range(len(a)))))}
        for i, j in itertools.combinations(range(len(a)), 2):
            w = abs(a[i][j]) if rank[i] < rank[j] else -abs(a[i][j])
            a[j][i], a[i][j] = w, -w
    return a


def dfs_is_acyclic(a):
    """is_acyclic as first written: a recursive depth-first search."""
    n = len(a)
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done

    def dfs(u) -> bool:
        color[u] = 1
        for w in range(n):
            if a[w][u] > 0:
                if color[w] == 1:
                    return False
                if color[w] == 0 and not dfs(w):
                    return False
        color[u] = 2
        return True

    return all(color[u] or dfs(u) for u in range(n))


def column_banff_step(a):
    """banff_step as first written: sinks and sources read off the columns."""
    n = len(a)
    good = {i for i in range(n) if all(r[i] >= 0 for r in a) or all(r[i] <= 0 for r in a)}
    for i in range(n):
        if i not in good:
            continue
        for j in range(n):
            if a[i][j] != 0:
                return (i, j)
    return None


class TestSparseMatrixMutation:
    """_mutate_columns touches only the entries mutation changes; the dense
    rebuild it replaced is the oracle."""

    @given(st.data())
    @settings(max_examples=300)
    def test_matches_the_dense_rebuild(self, data):
        rows = data.draw(st.integers(1, 6))
        cols = data.draw(st.integers(1, 4))
        row = st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)
        b = data.draw(st.lists(row, min_size=rows, max_size=rows))
        i = data.draw(st.integers(0, rows - 1))
        col = data.draw(st.integers(0, cols - 1))
        assert qseed._mutate_columns(b, i, col) == dense_mutate_columns(b, i, col)

    @given(skew_matrices(), st.data())
    def test_matrix_mutate_matches_the_dense_rebuild(self, a, data):
        i = data.draw(st.integers(0, len(a) - 1))
        assert qseed.matrix_mutate(a, i) == dense_mutate_columns(a, i, i)

    @pytest.mark.parametrize("name, cap", [("disc:9", 20), ("annulus", 8)])
    def test_enumerated_seeds(self, name, cap):
        seeds, _ = qseed.enumerate_seeds(start_seed(name), max_seeds=cap)
        for seed in seeds:
            for col, i in enumerate(seed.ex):
                assert seed.mutate(i).b == tuple(map(tuple, dense_mutate_columns(seed.b, i, col)))


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

    @given(quivers())
    @settings(max_examples=300)
    def test_acyclicity_matches_depth_first_search(self, a):
        assert qseed.is_acyclic(a) == dfs_is_acyclic(a)

    def test_a_long_path_needs_no_recursion(self):
        # The depth-first search recursed once per index of the path.
        n = 1100
        a = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            a[i + 1][i], a[i][i + 1] = 1, -1
        assert qseed.is_acyclic(a)
        a[0][n - 1], a[n - 1][0] = 1, -1
        assert not qseed.is_acyclic(a)

    def test_banff_step(self):
        assert qseed.banff_step(self.PENTAGON) == (0, 1)
        assert qseed.banff_step(self.CYCLE) is None
        assert qseed.banff_step([[0]]) is None

    @given(quivers())
    @settings(max_examples=300)
    def test_row_rules_match_the_column_scan(self, a):
        n = len(a)
        assert qseed.sinks(a) == [i for i in range(n) if all(r[i] >= 0 for r in a)]
        assert qseed.sources(a) == [i for i in range(n) if all(r[i] <= 0 for r in a)]
        assert qseed.banff_step(a) == column_banff_step(a)

    @pytest.mark.parametrize("name", ["is_acyclic", "banff_step"])
    def test_checks_its_matrix_once(self, monkeypatch, name):
        calls = []
        init = SkewForm.__init__

        def counting(self, matrix):
            calls.append(1)
            init(self, matrix)

        monkeypatch.setattr(SkewForm, "__init__", counting)
        for a in (self.PENTAGON, self.CYCLE, [[0]]):
            calls.clear()
            getattr(qseed, name)(a)
            assert len(calls) == 1


ZERO = QCoeff.zero()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: disc.enumerate_triangulations(2), "a triangulated disc needs at least 3 marked points"),
        (lambda: surf.build_annulus(0, 1), "annulus needs at least one marked point per boundary"),
        (lambda: qseed.matrix_mutate([[0, 1], [-1, 0]], 2), "index 2 out of range"),
        (
            lambda: TorusElement.monomial(SkewForm([[0]]), (1,)) ** -1,
            "use monomial inverses or exact division for negative powers",
        ),
        (lambda: QCoeff.q(1) ** -1, re.escape("negative powers are not defined in Z[v, v^-1]")),
        (ZERO.min_v, "zero has no v-valuation"),
        (ZERO.max_v, "zero has no v-degree"),
    ],
    ids=["triangulations-of-2", "annulus-0-1", "mutate-index", "torus-pow", "coeff-pow", "min-v", "max-v"],
)
def test_input_errors(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_zero_is_in_the_upper_algebra(pentagon):
    assert qseed.upper_membership(TorusElement.zero(pentagon.ambient), pentagon)


def test_repr_names_the_rank_and_exchangeable_indices(pentagon):
    assert repr(pentagon) == "QuantumSeed(n=7, ex=(1, 2))"
    assert repr(start_seed("annulus")) == "QuantumSeed(n=4, ex=(2, 3))"
