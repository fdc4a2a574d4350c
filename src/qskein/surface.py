"""Combinatorial triangulated marked surfaces.

A surface is stored purely combinatorially:

* ``arcs``: each arc has a boundary flag and two ends (0 and 1); the
  record keeps the marked point each end lies at.
* ``fans``: for every marked point, the ordered list of incident arc
  ends, most clockwise first.  The first and last entries are always
  ends of boundary arcs (the two boundary directions at the point).
* ``triangles``: cyclically ordered triples of darts.  A dart ``(a, d)``
  is arc ``a`` traversed from end ``d`` to end ``1-d``.  Consecutive
  darts share a corner: the arriving end sits immediately clockwise of
  the leaving end in that point's fan.

All matrices attached to a triangulation (orientation matrix, skew
adjacency matrix, exchange matrix) depend only on the fan orders, so
arcs are homotopy-class representatives, never geometric curves.
Builders cover genus-0 cases (discs, annuli, disjoint unions); the data
model itself permits any genus.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .qtorus import SkewForm
from .qseed import QuantumSeed

ArcEnd = tuple[int, int]  # (arc index, end 0 or 1)
Dart = tuple[int, int]  # (arc index, direction d): runs from end d to end 1-d


class Arc(NamedTuple):
    boundary: bool
    ends: tuple[int, int]  # marked point of end 0, end 1


class FlipError(ValueError):
    pass


class CutError(ValueError):
    pass


class TriangulatedSurface:
    """Immutable triangulated surface; operations return new surfaces."""

    __slots__ = ("arcs", "fans", "triangles")

    def __init__(self, arcs, fans, triangles):
        self.arcs: tuple[Arc, ...] = tuple(
            Arc(bool(a[0]), (int(a[1][0]), int(a[1][1]))) for a in arcs
        )
        self.fans: tuple[tuple[ArcEnd, ...], ...] = tuple(
            tuple((int(a), int(e)) for a, e in fan) for fan in fans
        )
        self.triangles: tuple[tuple[Dart, Dart, Dart], ...] = tuple(
            tuple((int(a), int(d)) for a, d in tri) for tri in triangles
        )
        self.validate()

    # -- basic accessors ---------------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self.fans)

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    def internal_arcs(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.arcs) if not a.boundary)

    def dart_start(self, dart: Dart) -> int:
        a, d = dart
        return self.arcs[a].ends[d]

    def dart_target(self, dart: Dart) -> int:
        a, d = dart
        return self.arcs[a].ends[1 - d]

    def _fan_pos(self, end: ArcEnd) -> tuple[int, int]:
        """(marked point, position) of an arc end."""
        a, e = end
        p = self.arcs[a].ends[e]
        return p, self.fans[p].index((a, e))

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        n_arcs = len(self.arcs)
        placed: dict[ArcEnd, int] = {}
        for p, fan in enumerate(self.fans):
            if len(fan) < 2:
                raise ValueError(f"marked point {p} has fewer than two arc ends")
            for a, e in fan:
                if not (0 <= a < n_arcs and e in (0, 1)):
                    raise ValueError(f"fan of point {p} references invalid end ({a},{e})")
                if (a, e) in placed:
                    raise ValueError(f"arc end ({a},{e}) appears twice")
                placed[(a, e)] = p
            for end, where in (("first", fan[0]), ("last", fan[-1])):
                if not self.arcs[where[0]].boundary:
                    raise ValueError(
                        f"{end} end at point {p} is not a boundary arc end"
                    )
            for a, e in fan[1:-1]:
                if self.arcs[a].boundary:
                    raise ValueError(
                        f"boundary arc end ({a},{e}) sits inside the fan of point {p}"
                    )
        for i, arc in enumerate(self.arcs):
            for e in (0, 1):
                if placed.get((i, e)) != arc.ends[e]:
                    raise ValueError(
                        f"end {e} of arc {i} is not in the fan of point {arc.ends[e]}"
                    )

        # Each dart is used exactly once; internal arcs carry both darts,
        # boundary arcs exactly one.
        darts_seen: set[Dart] = set()
        for tri in self.triangles:
            if len(tri) != 3:
                raise ValueError("triangles must have three sides")
            for a, d in tri:
                if not (0 <= a < n_arcs and d in (0, 1)):
                    raise ValueError(f"triangle references invalid dart ({a},{d})")
                if (a, d) in darts_seen:
                    raise ValueError(f"dart ({a},{d}) borders two triangles")
                darts_seen.add((a, d))
        for i, arc in enumerate(self.arcs):
            have = [(i, d) in darts_seen for d in (0, 1)]
            if arc.boundary and sum(have) != 1:
                raise ValueError(f"boundary arc {i} must border exactly one triangle")
            if not arc.boundary and sum(have) != 2:
                raise ValueError(f"internal arc {i} must border two triangles")

        # Corner conditions: consecutive darts meet at fan-adjacent ends,
        # and every adjacent fan pair is a corner exactly once.
        corners: set[tuple[int, int]] = set()
        for tri in self.triangles:
            for k in range(3):
                d1 = tri[k]
                d2 = tri[(k + 1) % 3]
                arrive = (d1[0], 1 - d1[1])
                leave = d2
                p1, pos1 = self._fan_pos(arrive)
                p2, pos2 = self._fan_pos(leave)
                if p1 != p2 or pos2 != pos1 + 1:
                    raise ValueError(
                        f"darts {d1} -> {d2} do not meet at a corner "
                        f"(arrive {arrive} at {p1}#{pos1}, leave {leave} at {p2}#{pos2})"
                    )
                if (p1, pos1) in corners:
                    raise ValueError(f"corner at point {p1} position {pos1} reused")
                corners.add((p1, pos1))
        expected = sum(len(fan) - 1 for fan in self.fans)
        if len(corners) != expected:
            raise ValueError(
                f"{len(corners)} corners for {expected} adjacent fan pairs"
            )

        # Topological counts must close up per component.
        for comp in self.components():
            g, h = comp["genus"], comp["boundaries"]
            if g < 0:
                raise ValueError("negative genus: inconsistent triangulation data")
            count = 6 * g + 3 * h + 2 * len(comp["points"]) - 6
            if len(comp["arcs"]) != count:
                raise ValueError(
                    f"component has {len(comp['arcs'])} arcs, formula gives {count}"
                )

    # -- topology -----------------------------------------------------------

    def components(self) -> list[dict]:
        """Connected components with genus and boundary-circle counts."""
        parent = list(range(self.n_points))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for arc in self.arcs:
            a, b = find(arc.ends[0]), find(arc.ends[1])
            if a != b:
                parent[a] = b

        comp_points: dict[int, list[int]] = {}
        for p in range(self.n_points):
            comp_points.setdefault(find(p), []).append(p)

        # Boundary circles: walk boundary darts.  Arriving at a point's
        # position-0 end, the walk leaves through the last-position end.
        next_walk: dict[int, int] = {}
        for i, arc in enumerate(self.arcs):
            if not arc.boundary:
                continue
            d = 0 if ((i, 0) in {dd for tri in self.triangles for dd in tri}) else 1
            target = self.arcs[i].ends[1 - d]
            out_end = self.fans[target][-1]
            next_walk[i] = out_end[0]
        circles: dict[int, int] = {}
        unvisited = set(next_walk)
        while unvisited:
            start = min(unvisited)
            cur = start
            while cur in unvisited:
                unvisited.remove(cur)
                cur = next_walk[cur]
            root = find(self.arcs[start].ends[0])
            circles[root] = circles.get(root, 0) + 1

        tri_of: dict[int, int] = {}
        for tri in self.triangles:
            root = find(self.dart_start(tri[0]))
            tri_of[root] = tri_of.get(root, 0) + 1

        out = []
        for root in sorted(comp_points, key=lambda r: min(comp_points[r])):
            pts = sorted(comp_points[root])
            arcs = sorted(
                i for i, a in enumerate(self.arcs) if find(a.ends[0]) == root
            )
            v = len(pts)
            e = len(arcs)
            f = tri_of.get(root, 0)
            h = circles.get(root, 0)
            chi = v - e + f
            if (2 - h - chi) % 2 != 0:
                raise ValueError("non-integer genus: inconsistent triangulation data")
            g = (2 - h - chi) // 2
            out.append(
                {"points": pts, "arcs": arcs, "genus": g, "boundaries": h}
            )
        return out

    # -- identity up to relabeling -------------------------------------------

    def canonical(self):
        """Structure with arc-end orientations normalized.

        End 0 of each arc is redeclared to be the end met first when
        scanning fans in point order; triangles are rotated min-first
        and sorted.  Two surfaces are equal when these agree.
        """
        swap: dict[int, int] = {}
        for fan in self.fans:
            for a, e in fan:
                if a not in swap:
                    swap[a] = e
        arcs = tuple(
            (
                arc.boundary,
                arc.ends if swap[i] == 0 else (arc.ends[1], arc.ends[0]),
            )
            for i, arc in enumerate(self.arcs)
        )
        fans = tuple(
            tuple((a, e ^ swap[a]) for a, e in fan) for fan in self.fans
        )
        tris = []
        for tri in self.triangles:
            t = tuple((a, d ^ swap[a]) for a, d in tri)
            tris.append(min(t[k:] + t[:k] for k in range(3)))
        return (arcs, fans, tuple(sorted(tris)))

    def __eq__(self, other) -> bool:
        return isinstance(other, TriangulatedSurface) and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        return (
            f"TriangulatedSurface(points={self.n_points}, arcs={self.n_arcs}, "
            f"triangles={len(self.triangles)})"
        )

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "marked_points": [
                {"ends": [[a, e] for a, e in fan]} for fan in self.fans
            ],
            "arcs": [
                {"boundary": arc.boundary, "ends": [arc.ends[0], arc.ends[1]]}
                for arc in self.arcs
            ],
            "triangles": [[[a, d] for a, d in tri] for tri in self.triangles],
            "components": [
                {
                    "points": c["points"],
                    "arcs": c["arcs"],
                    "genus": c["genus"],
                    "boundaries": c["boundaries"],
                }
                for c in self.components()
            ],
        }

    @classmethod
    def from_json(cls, data) -> TriangulatedSurface:
        if isinstance(data, str):
            data = json.loads(data)
        arcs = [(a["boundary"], (a["ends"][0], a["ends"][1])) for a in data["arcs"]]
        fans = [[(e[0], e[1]) for e in p["ends"]] for p in data["marked_points"]]
        triangles = [[(d[0], d[1]) for d in tri] for tri in data["triangles"]]
        return cls(arcs, fans, triangles)


# -- matrices ---------------------------------------------------------------


def lambda_matrix(s: TriangulatedSurface) -> list[list[int]]:
    """Orientation matrix: +1 per end pair with arc i clockwise of arc j."""
    n = s.n_arcs
    lam = [[0] * n for _ in range(n)]
    for fan in s.fans:
        for i in range(len(fan)):
            for j in range(i + 1, len(fan)):
                x, y = fan[i][0], fan[j][0]
                lam[x][y] += 1
                lam[y][x] -= 1
    return lam


def q_matrix(s: TriangulatedSurface) -> list[list[int]]:
    """Skew adjacency matrix: -1 per immediately-clockwise end pair.

    Note the sign reversal relative to the orientation matrix: the end
    of x sitting immediately clockwise of the end of y contributes -1
    to entry (x, y).
    """
    n = s.n_arcs
    q = [[0] * n for _ in range(n)]
    for fan in s.fans:
        for (x, _), (y, _) in zip(fan, fan[1:]):
            q[x][y] -= 1
            q[y][x] += 1
    return q


def b_matrix(s: TriangulatedSurface) -> list[list[int]]:
    """Exchange matrix: columns of q_matrix at internal arcs."""
    q = q_matrix(s)
    ex = s.internal_arcs()
    return [[q[k][j] for j in ex] for k in range(s.n_arcs)]


def to_seed(s: TriangulatedSurface) -> QuantumSeed:
    seed = QuantumSeed.initial(
        SkewForm(lambda_matrix(s)), b_matrix(s), s.internal_arcs()
    )
    seed.check_compatibility()
    return seed


# -- builders ----------------------------------------------------------------


def _disc3() -> TriangulatedSurface:
    arcs = [(True, (0, 1)), (True, (1, 2)), (True, (2, 0))]
    fans = [
        [(2, 1), (0, 0)],
        [(0, 1), (1, 0)],
        [(1, 1), (2, 0)],
    ]
    triangles = [((0, 0), (1, 0), (2, 0))]
    return TriangulatedSurface(arcs, fans, triangles)


def _annulus11() -> TriangulatedSurface:
    # Points: 0 on the outer boundary, 1 on the inner one.  Arcs: a and b
    # are the boundary circles, x0 and x1 the two parallel internal arcs.
    arcs = [(True, (0, 0)), (True, (1, 1)), (False, (0, 1)), (False, (0, 1))]
    fans = [
        [(0, 0), (3, 0), (2, 0), (0, 1)],
        [(1, 0), (3, 1), (2, 1), (1, 1)],
    ]
    triangles = [
        ((0, 1), (3, 0), (2, 1)),
        ((1, 1), (3, 1), (2, 0)),
    ]
    return TriangulatedSurface(arcs, fans, triangles)


def split_boundary_arc(s: TriangulatedSurface, arc: int) -> TriangulatedSurface:
    """Add a marked point on a boundary arc.

    The arc's record is reused for the internal arc cutting off the new
    triangle; two new boundary arcs join the new point to the old
    endpoints.  The new point index is n_points, the new arc indices are
    n_arcs and n_arcs + 1.
    """
    if not s.arcs[arc].boundary:
        raise ValueError(f"arc {arc} is not a boundary arc")
    (dart,) = [
        (a, d) for tri in s.triangles for a, d in tri if a == arc
    ]
    de = dart[1]
    u = s.dart_start(dart)
    w = s.dart_target(dart)
    m = s.n_points
    e1 = s.n_arcs
    e2 = s.n_arcs + 1
    arcs = [
        (a.boundary if i != arc else False, a.ends) for i, a in enumerate(s.arcs)
    ]
    arcs.append((True, (u, m)))
    arcs.append((True, (m, w)))
    fans = [list(fan) for fan in s.fans]
    fans[u].append((e1, 0))
    fans[w].insert(0, (e2, 1))
    fans.append([(e1, 1), (e2, 0)])
    triangles = list(s.triangles)
    triangles.append(((e1, 0), (e2, 0), (arc, 1 - de)))
    return TriangulatedSurface(arcs, fans, triangles)


def build_disc(n: int) -> TriangulatedSurface:
    """Fan triangulation of the disc with n marked points."""
    if n < 3:
        raise ValueError("a triangulated disc needs at least 3 marked points")
    s = _disc3()
    for k in range(3, n):
        # Split the boundary arc from the last point back to point 0.
        (idx,) = [
            i
            for i, a in enumerate(s.arcs)
            if a.boundary and set(a.ends) == {k - 1, 0}
        ]
        s = split_boundary_arc(s, idx)
    return s


def from_chords(n: int, arcs) -> TriangulatedSurface:
    """The triangulated disc whose arc i is the chord arcs[i].

    Chords join marked points 1..n, numbered clockwise; marked point p is
    surface point p - 1.  The fan at p orders the other endpoints u of
    its chords by (p - u) mod n, and each triangle a < b < c is the dart
    cycle a -> b -> c -> a.  Chords that do not triangulate the n-gon
    (out of range, repeated, crossing, or too few or many) raise
    ValueError.
    """
    from .disc import crosses

    if n < 3:
        raise ValueError("a triangulated disc needs at least 3 marked points")
    chords = [tuple(sorted((int(c[0]), int(c[1])))) for c in arcs]
    for a, b in chords:
        if not 1 <= a < b <= n:
            raise ValueError(f"({a}, {b}) is not a chord of the {n}-gon")
    if len(set(chords)) != len(chords):
        raise ValueError("repeated chords")
    for k, c1 in enumerate(chords):
        for c2 in chords[k + 1 :]:
            if crosses(c1, c2):
                raise ValueError(f"chords {c1} and {c2} cross")
    if len(chords) != 2 * n - 3:
        raise ValueError(
            f"a triangulation of the {n}-gon has {2 * n - 3} chords, got {len(chords)}"
        )
    index = {c: i for i, c in enumerate(chords)}
    fans: list[list[ArcEnd]] = [[] for _ in range(n)]
    for i, (a, b) in enumerate(chords):
        fans[a - 1].append((i, 0))
        fans[b - 1].append((i, 1))
    for p, fan in enumerate(fans, 1):
        fan.sort(key=lambda end: (p - chords[end[0]][1 - end[1]]) % n)
    triangles = [
        ((index[(a, b)], 0), (index[(b, c)], 0), (index[(a, c)], 1))
        for a, b in index
        for c in range(b + 1, n + 1)
        if (b, c) in index and (a, c) in index
    ]
    return TriangulatedSurface(
        [(b - a in (1, n - 1), (a - 1, b - 1)) for a, b in chords], fans, triangles
    )


def build_annulus(p: int, q: int) -> TriangulatedSurface:
    """Triangulated annulus with p outer and q inner marked points."""
    if p < 1 or q < 1:
        raise ValueError("annulus needs at least one marked point per boundary")
    s = _annulus11()
    outer, inner = 0, 1
    for _ in range(p - 1):
        s = split_boundary_arc(s, outer)
        outer = s.n_arcs - 1
    for _ in range(q - 1):
        s = split_boundary_arc(s, inner)
        inner = s.n_arcs - 1
    return s


def disjoint_union(s1: TriangulatedSurface, s2: TriangulatedSurface) -> TriangulatedSurface:
    ao = s1.n_arcs
    po = s1.n_points
    arcs = [(a.boundary, a.ends) for a in s1.arcs]
    arcs += [(a.boundary, (a.ends[0] + po, a.ends[1] + po)) for a in s2.arcs]
    fans = [list(fan) for fan in s1.fans]
    fans += [[(a + ao, e) for a, e in fan] for fan in s2.fans]
    triangles = list(s1.triangles)
    triangles += [tuple((a + ao, d) for a, d in tri) for tri in s2.triangles]
    return TriangulatedSurface(arcs, fans, triangles)


# -- flip ----------------------------------------------------------------------


def flip(s: TriangulatedSurface, j: int) -> TriangulatedSurface:
    """Replace arc j by the other diagonal of its quadrilateral.

    The new arc reuses index j, so seed-to-surface index maps stay
    stable across flips.
    """
    if not 0 <= j < s.n_arcs:
        raise FlipError(f"arc {j} does not exist (arcs are 0..{s.n_arcs - 1})")
    if s.arcs[j].boundary:
        raise FlipError(f"boundary arc {j} cannot be flipped")
    t1_idx = t2_idx = None
    for idx, tri in enumerate(s.triangles):
        if (j, 0) in tri:
            t1_idx = idx
        if (j, 1) in tri:
            t2_idx = idx
    if t1_idx == t2_idx:
        raise FlipError(f"arc {j} borders the same triangle twice (not flippable)")
    t1 = s.triangles[t1_idx]
    t2 = s.triangles[t2_idx]
    k = t1.index((j, 0))
    _, s1, s2 = t1[k:] + t1[:k]
    k = t2.index((j, 1))
    _, s3, s4 = t2[k:] + t2[:k]
    a_pt = s.arcs[j].ends[0]
    c_pt = s.arcs[j].ends[1]
    p_pt = s.dart_target(s1)
    q_pt = s.dart_target(s3)

    arcs = [(a.boundary, a.ends) for a in s.arcs]
    arcs[j] = (False, (p_pt, q_pt))
    fans = [list(fan) for fan in s.fans]
    fans[a_pt].remove((j, 0))
    fans[c_pt].remove((j, 1))
    arr1 = (s1[0], 1 - s1[1])
    arr3 = (s3[0], 1 - s3[1])
    fans[p_pt].insert(fans[p_pt].index(arr1) + 1, (j, 0))
    fans[q_pt].insert(fans[q_pt].index(arr3) + 1, (j, 1))
    triangles = list(s.triangles)
    triangles[t1_idx] = (s2, s3, (j, 1))
    triangles[t2_idx] = (s4, s1, (j, 0))
    return TriangulatedSurface(arcs, fans, triangles)


# -- cut --------------------------------------------------------------------------


def cut(s: TriangulatedSurface, j: int) -> TriangulatedSurface:
    """Cut the surface along internal arc j, doubling it into boundary.

    Arc j keeps its index on one side; the doubled copy and the two new
    marked points are appended at the end.  Only arcs with distinct
    endpoints are supported; cutting along an arc with equal endpoints
    would split the fan at that point into three parts.
    """
    if not 0 <= j < s.n_arcs:
        raise CutError(f"arc {j} does not exist (arcs are 0..{s.n_arcs - 1})")
    if s.arcs[j].boundary:
        raise CutError(f"boundary arc {j} cannot be cut")
    u, w = s.arcs[j].ends
    if u == w:
        raise NotImplementedError(
            "cutting along an arc with equal endpoints is not supported"
        )
    nb = s.n_arcs
    ub = s.n_points
    wb = s.n_points + 1

    fan_u = list(s.fans[u])
    fan_w = list(s.fans[w])
    k = fan_u.index((j, 0))
    t = fan_w.index((j, 1))
    fan_a_u = fan_u[:k] + [(j, 0)]
    fan_b_u = [(nb, 0)] + fan_u[k + 1 :]
    fan_a_w = [(j, 1)] + fan_w[t + 1 :]
    fan_b_w = fan_w[:t] + [(nb, 1)]

    arcs = [[a.boundary, list(a.ends)] for a in s.arcs]
    arcs[j][0] = True
    arcs.append([True, [ub, wb]])
    for a, e in fan_b_u:
        arcs[a][1][e] = ub
    for a, e in fan_b_w:
        arcs[a][1][e] = wb

    fans = [list(fan) for fan in s.fans]
    fans[u] = fan_a_u
    fans[w] = fan_a_w
    fans.append(fan_b_u)
    fans.append(fan_b_w)

    triangles = []
    for tri in s.triangles:
        triangles.append(tuple((nb, d) if (a, d) == (j, 1) else (a, d) for a, d in tri))
    return TriangulatedSurface(
        [(b, (e[0], e[1])) for b, e in arcs], fans, triangles
    )
