"""Triangulated surfaces: builders, flips, cuts, matrices, topology."""

import itertools

import pytest

from qskein import disc, qseed
from qskein import surface as surf
from qskein.surface import CutError, FlipError, TriangulatedSurface


def split_oracle(fans, arc):
    """The fans after adding a marked point on boundary arc `arc`, found by
    scanning: the arc's end is last in the fan of u and first in that of w."""
    (u,) = [p for p, fan in enumerate(fans) if fan[-1][0] == arc]
    (w,) = [p for p, fan in enumerate(fans) if fan[0][0] == arc]
    e = sum(map(len, fans)) // 2
    fans = [list(fan) for fan in fans] + [[(e, 1), (e + 1, 0)]]
    fans[u].append((e, 0))
    fans[w].insert(0, (e + 1, 1))
    return fans


def assert_builders_match_split_oracle(max_n, max_pq):
    """build_disc(n) for n = 3..max_n and build_annulus(p, q) for
    1 <= p, q <= max_pq have the fans of one split at a time: the disc's
    point k on the boundary arc joining points k - 1 and 0, the annulus's
    points on the last-made outer arc, then on the last-made inner one."""
    fans = [[(2, 1), (0, 0)], [(0, 1), (1, 0)], [(1, 1), (2, 0)]]
    for n in range(3, max_n + 1):
        assert surf.build_disc(n).fans == tuple(map(tuple, fans)), n
        (arc,) = {fans[n - 1][-1][0], fans[n - 1][0][0]} & {fans[0][0][0], fans[0][-1][0]}
        fans = split_oracle(fans, arc)
    for p in range(1, max_pq + 1):
        fans = [[(0, 0), (3, 0), (2, 0), (0, 1)], [(1, 0), (3, 1), (2, 1), (1, 1)]]
        arc = 0
        for _ in range(p - 1):
            fans = split_oracle(fans, arc)
            arc = fans[-1][-1][0]
        arc = 1
        for q in range(1, max_pq + 1):
            assert surf.build_annulus(p, q).fans == tuple(map(tuple, fans)), (p, q)
            fans = split_oracle(fans, arc)
            arc = fans[-1][-1][0]


class TestBuilders:
    def test_builders_match_split_oracle(self):
        assert_builders_match_split_oracle(60, 5)

    @pytest.mark.parametrize(
        "build", [lambda: surf.build_disc(60), lambda: surf.build_annulus(4, 3)], ids=["disc", "annulus"]
    )
    def test_builders_construct_once(self, monkeypatch, build):
        calls = []
        validate = TriangulatedSurface.validate

        def counting(self):
            calls.append(self)
            validate(self)

        monkeypatch.setattr(TriangulatedSurface, "validate", counting)
        build()
        assert len(calls) == 1

    @pytest.mark.parametrize("n", range(3, 9))
    def test_disc(self, n):
        s = surf.build_disc(n)
        s.validate()
        assert s.n_points == n
        assert s.n_arcs == 2 * n - 3
        assert len(s.triangles) == n - 2
        (comp,) = s.components()
        assert comp["genus"] == 0
        assert comp["boundaries"] == 1

    def test_disc_too_small(self):
        with pytest.raises(ValueError):
            surf.build_disc(2)

    @pytest.mark.parametrize("pq", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_annulus(self, pq):
        p, q = pq
        s = surf.build_annulus(p, q)
        s.validate()
        assert s.n_points == p + q
        assert s.n_arcs == 3 * 2 + 2 * (p + q) - 6
        (comp,) = s.components()
        assert comp["genus"] == 0
        assert comp["boundaries"] == 2

    def test_disjoint_union(self):
        s = surf.disjoint_union(surf.build_disc(4), surf.build_annulus(1, 1))
        s.validate()
        comps = s.components()
        assert len(comps) == 2
        assert [c["boundaries"] for c in comps] == [1, 2]

    def test_annulus_flip_square_seed(self):
        seed = surf.to_seed(surf.build_annulus(1, 1))
        assert seed.ex == (2, 3)
        assert seed.pi_b() == [[0, 2], [-2, 0]]
        lam = [list(r) for r in seed.lam.matrix]
        assert lam == [
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, -2],
            [0, 0, 2, 0],
        ]


def oracle_check(s):
    """Check a surface's derived arcs and triangles against its fans,
    independently of how the constructor derives them."""
    at = {end: (p, k) for p, fan in enumerate(s.fans) for k, end in enumerate(fan)}

    def is_side(end):
        p, k = at[end]
        return k in (0, len(s.fans[p]) - 1)

    assert list(s.arcs) == [
        surf.Arc(is_side((i, 0)) or is_side((i, 1)), (at[(i, 0)][0], at[(i, 1)][0]))
        for i in range(len(at) // 2)
    ]
    darts = [dart for tri in s.triangles for dart in tri]
    assert len(darts) == len(set(darts)), "a dart borders two triangles"
    corners = []
    for tri in s.triangles:
        for (a, d), leave in zip(tri, tri[1:] + tri[:1]):
            p, k = at[(a, 1 - d)]
            assert at[leave] == (p, k + 1), f"{(a, d)} -> {leave} is not a corner"
            corners.append((p, k))
    assert sorted(corners) == [
        (p, k) for p, fan in enumerate(s.fans) for k in range(len(fan) - 1)
    ], "some adjacent fan pair is not a corner exactly once"
    assert_euler_counts(s)


def assert_euler_counts(s):
    """Each component has 6g + 3h + 2p - 6 arcs for an integer genus g >= 0.

    components() takes g = (2 - h - chi) // 2; were 2 - h - chi odd, the
    floor would miss the arc count by 3."""
    for comp in s.components():
        g, h, p = comp["genus"], comp["boundaries"], len(comp["points"])
        assert isinstance(g, int) and g >= 0, comp
        assert len(comp["arcs"]) == 6 * g + 3 * h + 2 * p - 6, comp


def fan_lists(ends):
    """Every list of fans holding each of ends once, in fans of at least two
    ends, each fan in every order; fans are listed by their least end."""
    if not ends:
        yield []
        return
    first, rest = ends[0], ends[1:]
    for size in range(1, len(rest) + 1):
        for others in itertools.combinations(rest, size):
            left = [end for end in rest if end not in others]
            tails = list(fan_lists(left))
            for fan in itertools.permutations((first, *others)):
                for tail in tails:
                    yield [fan, *tail]


def assert_faces_imply_euler(max_arcs):
    """Every fan list with 1..max_arcs arcs that TriangulatedSurface
    accepts passes assert_euler_counts, so construction needs no Euler or
    genus check; no face holds both darts of one arc, and every internal
    arc flips, so flip needs no self-fold check; and the surface's seed has
    Lambda B = 4 iota, so to_seed needs no compatibility check.  Returns the
    numbers of fan lists tried and accepted."""
    tried = accepted = 0
    for n_arcs in range(1, max_arcs + 1):
        for fans in fan_lists([(a, e) for a in range(n_arcs) for e in (0, 1)]):
            tried += 1
            try:
                s = TriangulatedSurface(fans)
            except ValueError:
                continue
            accepted += 1
            assert_euler_counts(s)
            for face in s.triangles:
                assert len({a for a, _ in face}) == 3, face
            for j in s.internal_arcs():
                surf.flip(s, j)
            assert surf.to_seed(s).check_compatibility() == dict.fromkeys(s.internal_arcs(), 4)
    return tried, accepted


ORACLE_FAMILIES = {
    "disc": lambda: [surf.build_disc(n) for n in range(3, 11)],
    "annulus": lambda: [surf.build_annulus(p, q) for p in (1, 2, 3) for q in (1, 2, 3)],
    "union": lambda: [surf.disjoint_union(surf.build_disc(4), surf.build_annulus(1, 1))],
    "chords": lambda: [
        surf.from_chords(n, t) for n in range(3, 9) for t in disc.enumerate_triangulations(n)
    ],
}


class TestValidation:
    @pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
    def test_derived_data_matches_oracle(self, family):
        for s in ORACLE_FAMILIES[family]():
            oracle_check(s)
            for j in range(s.n_arcs):
                for op in (surf.flip, surf.cut):
                    try:
                        t = op(s, j)
                    except (FlipError, CutError, NotImplementedError):
                        continue
                    oracle_check(t)

    def test_empty_surface_rejected(self):
        with pytest.raises(ValueError, match="^a surface needs at least one marked point$"):
            TriangulatedSurface([])
        with pytest.raises(ValueError, match="^a surface needs at least one marked point$"):
            TriangulatedSurface.from_json({"marked_points": [], "arcs": [], "triangles": []})

    def test_corrupted_triangle_rejected(self):
        data = surf.build_disc(4).to_json()
        t = data["triangles"][0]
        data["triangles"][0] = [t[1], t[0], t[2]]
        with pytest.raises(ValueError, match="triangles disagree"):
            TriangulatedSurface.from_json(data)

    def test_flipped_boundary_flag_rejected(self):
        data = surf.build_disc(4).to_json()
        data["arcs"][0]["boundary"] = False
        with pytest.raises(ValueError, match="arcs disagree"):
            TriangulatedSurface.from_json(data)

    def test_missing_end_rejected(self):
        fans = [list(f) for f in surf.build_disc(4).fans]
        fans[0] = fans[0][:-1]
        with pytest.raises(ValueError, match="ends 0 and 1 of arcs"):
            TriangulatedSurface(fans)

    def test_repeated_end_rejected(self):
        fans = [list(f) for f in surf.build_disc(4).fans]
        fans[1].insert(1, fans[0][0])
        with pytest.raises(ValueError, match="appears twice"):
            TriangulatedSurface(fans)

    def test_one_end_fan_rejected(self):
        with pytest.raises(ValueError, match="marked point 0 has fewer than two"):
            TriangulatedSurface([[(0, 0)], [(0, 1)]])

    def test_boundary_arc_with_both_ends_first_rejected(self):
        # The triangle's fans with the ends at point 0 swapped: both ends
        # of arc 0 sit first in their fans.
        with pytest.raises(ValueError, match="boundary arc 0 does not run"):
            TriangulatedSurface([[(0, 0), (2, 1)], [(0, 1), (1, 0)], [(1, 1), (2, 0)]])

    def test_accepted_fan_lists_satisfy_the_euler_count(self):
        assert assert_faces_imply_euler(3) == (1958, 16)

    def test_construction_never_computes_topology(self, monkeypatch):
        annulus = surf.build_annulus(2, 2)
        data = annulus.to_json()

        def refuse(self):
            raise AssertionError("components() called")

        monkeypatch.setattr(TriangulatedSurface, "components", refuse)
        d = surf.build_disc(6)
        a = surf.build_annulus(2, 2)
        assert a == annulus == TriangulatedSurface.from_json(data)
        surf.from_chords(5, disc.enumerate_triangulations(5)[0])
        surf.flip(d, d.internal_arcs()[0])
        surf.flip(a, 2)
        surf.cut(a, 2)
        surf.cut(d, d.internal_arcs()[0])
        surf.disjoint_union(d, a)

    def test_square_face_rejected(self):
        square = [[(3, 1), (0, 0)], [(0, 1), (1, 0)], [(1, 1), (2, 0)], [(2, 1), (3, 0)]]
        with pytest.raises(ValueError, match="is not a triangle"):
            TriangulatedSurface(square)


class TestFlip:
    def test_boundary_arc_rejected(self):
        with pytest.raises(FlipError):
            surf.flip(surf.build_disc(4), 0)

    def test_flip_validates_and_involutes(self):
        for s in [surf.build_disc(5), surf.build_annulus(1, 1), surf.build_annulus(2, 1)]:
            for j in s.internal_arcs():
                try:
                    flipped = surf.flip(s, j)
                except FlipError:
                    continue
                flipped.validate()
                assert surf.flip(flipped, j).canonical() == s.canonical()

    def test_flip_matches_matrix_mutation(self):
        s = surf.build_disc(6)
        seed = surf.to_seed(s)
        for j in seed.ex:
            flipped = surf.to_seed(surf.flip(s, j))
            assert flipped.b == seed.mutate(j).b
            assert flipped.lam.matrix == seed.mutate(j).lam.matrix

    def test_annulus_flip_changes_lambda(self):
        s = surf.build_annulus(1, 1)
        flipped = surf.to_seed(surf.flip(s, 2))
        assert [list(r) for r in flipped.lam.matrix] == [
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, 2],
            [0, 0, -2, 0],
        ]
        assert [list(r) for r in flipped.b] == [[-1, 1], [-1, 1], [0, -2], [2, 0]]


class TestCut:
    def test_boundary_arc_rejected(self):
        with pytest.raises(CutError):
            surf.cut(surf.build_annulus(1, 1), 0)

    def test_same_endpoint_arc_unsupported(self):
        s = surf.build_annulus(2, 1)
        loops = [j for j in s.internal_arcs() if s.arcs[j].ends[0] == s.arcs[j].ends[1]]
        assert loops
        with pytest.raises(NotImplementedError):
            surf.cut(s, loops[0])

    def test_cut_annulus_gives_disc(self):
        s = surf.build_annulus(1, 1)
        c = surf.cut(s, 2)
        c.validate()
        (comp,) = c.components()
        assert comp["genus"] == 0
        assert comp["boundaries"] == 1
        assert c.n_points == 4
        assert c.n_arcs == 5

    def test_cut_disc_diagonal_disconnects(self):
        s = surf.build_disc(5)
        j = s.internal_arcs()[0]
        c = surf.cut(s, j)
        c.validate()
        assert len(c.components()) == 2

    def test_cut_realizes_freezing(self):
        s = surf.build_annulus(1, 1)
        seed = surf.to_seed(s)
        cseed = surf.to_seed(surf.cut(s, 2))
        assert cseed.ex == (3,)
        assert cseed.pi_b() == [[0]]
        frozen = seed.freeze({2})
        np = len(seed.b)
        for i in range(np):
            if i == 2:
                continue
            assert list(cseed.b[i]) == list(frozen.b[i])
        assert [cseed.b[2][0] + cseed.b[np][0]] == list(frozen.b[2])


class TestIdentity:
    def test_equality_up_to_end_relabeling(self):
        s = surf.build_disc(4)
        j = s.internal_arcs()[0]
        fans = [[(a, 1 - e) if a == j else (a, e) for a, e in fan] for fan in s.fans]
        relabeled = TriangulatedSurface(fans)
        assert relabeled.arcs[j].ends == s.arcs[j].ends[::-1]
        assert relabeled == s
        assert hash(relabeled) == hash(s)

    def test_distinct_surfaces_differ(self):
        assert surf.build_disc(4) != surf.build_disc(5)
        assert surf.build_annulus(1, 1) != surf.build_disc(4)


class TestJson:
    @pytest.mark.parametrize(
        "s",
        [surf.build_disc(4), surf.build_disc(6), surf.build_annulus(1, 1), surf.build_annulus(2, 2)],
        ids=["disc4", "disc6", "annulus11", "annulus22"],
    )
    def test_round_trip(self, s):
        data = s.to_json()
        assert set(data) == {"marked_points", "arcs", "triangles", "components"}
        back = TriangulatedSurface.from_json(data)
        assert back == s
        assert back.to_json() == data


class TestSeedBridge:
    def test_to_seed_is_compatible(self):
        for s in [surf.build_disc(5), surf.build_disc(7), surf.build_annulus(1, 1)]:
            seed = surf.to_seed(s)
            assert all(v == 4 for v in seed.check_compatibility().values())

    def test_matrices_shapes(self):
        s = surf.build_disc(5)
        n = s.n_arcs
        assert len(surf.lambda_matrix(s)) == n
        assert len(surf.q_matrix(s)) == n
        b = surf.b_matrix(s)
        assert len(b) == n
        assert len(b[0]) == len(s.internal_arcs())

    def test_small_discs_have_zero_exchange_part(self):
        assert surf.to_seed(surf.build_disc(3)).pi_b() == []
        assert surf.to_seed(surf.build_disc(4)).pi_b() == [[0]]

    def test_banff_witnesses(self):
        for s in [surf.build_disc(5), surf.build_annulus(1, 1)]:
            assert qseed.banff_step(surf.to_seed(s).pi_b()) is not None


def test_repr_counts_points_arcs_and_triangles():
    assert repr(surf.build_disc(5)) == "TriangulatedSurface(points=5, arcs=7, triangles=3)"
    assert repr(surf.build_annulus(1, 1)) == "TriangulatedSurface(points=2, arcs=4, triangles=2)"
