"""Combinatorial triangulated marked surfaces.

A surface is its fans: for every marked point, the ordered list of
incident arc ends ``(arc, end)``, most clockwise first, with ends 0 and
1 of arcs 0..n-1 each listed once.  The constructor
``TriangulatedSurface(fans)`` derives everything else:

* ``arcs``: for each arc, the marked points of its two ends, and a
  boundary flag.  An arc is a boundary arc when one of its ends sits
  first or last in its fan; it then runs from a first end to a last one
  (the two boundary directions at each point).
* ``triangles``: cyclically ordered triples of darts.  A dart ``(a, d)``
  is arc ``a`` traversed from end ``d`` to end ``1-d``.  The dart
  arriving at a non-last fan end is followed by the dart leaving from
  the next end of that fan; the faces are the cycles of this map, each
  rotated to start at its smallest dart, and listed in sorted order.

Construction checks only what can fail: there is at least one marked
point, every arc end appears once, in fans of at least two ends, every
boundary arc runs from a first end to a last one, and every face is a
triangle.  Those imply the Euler count of every component (the faces
use 2E - V darts in threes, so 3F = 2E - V, which is
E = 6g + 3h + 2p - 6) and a genus that is a nonnegative integer (the
fans are a rotation system).  Topology, ``components()``, is computed
on demand, never during construction.

All matrices attached to a triangulation (orientation matrix, skew
adjacency matrix, exchange matrix) depend only on the fan orders, so
arcs are homotopy-class representatives, never geometric curves.
Builders write fan lists and construct the surface once; flips and
cuts edit fans only.  Surface JSON lists ``marked_points`` (the fans),
the derived ``arcs`` and ``triangles``, and ``components``;
``from_json`` rejects a payload whose arcs or triangles disagree with
its fans.  Builders cover genus-0 cases (discs, annuli, disjoint
unions); the data model itself permits any genus.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from . import payload
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
    """Immutable triangulated surface given by its fans; operations return
    new surfaces."""

    __slots__ = ("arcs", "fans", "triangles")

    def __init__(self, fans):
        self.fans: tuple[tuple[ArcEnd, ...], ...] = tuple(
            tuple((operator.index(a), operator.index(e)) for a, e in fan) for fan in fans
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

    # -- derivation and validation -------------------------------------------

    def validate(self) -> None:
        """Derive ``arcs`` and ``triangles`` from the fans, checking that
        the fans describe a triangulated surface: at least one marked
        point, every arc end once in fans of at least two ends, boundary
        arcs from a first end to a last one, and triangular faces.  The
        Euler count and genus of each component follow from these, so
        they are not checked; ``components()`` computes them on demand."""
        if not self.fans:
            raise ValueError("a surface needs at least one marked point")
        at: dict[ArcEnd, tuple[int, int]] = {}
        for p, fan in enumerate(self.fans):
            if len(fan) < 2:
                raise ValueError(f"marked point {p} has fewer than two arc ends")
            for k, end in enumerate(fan):
                if end in at:
                    raise ValueError(f"arc end {end} appears twice")
                at[end] = (p, k)
        if set(at) != {(a, e) for a in range(len(at) // 2) for e in (0, 1)}:
            raise ValueError("the fans must hold ends 0 and 1 of arcs 0..n-1")

        arcs = []
        for i in range(len(at) // 2):
            places = (at[(i, 0)], at[(i, 1)])
            sides = sorted(
                -1 if k == 0 else 1 if k == len(self.fans[p]) - 1 else 0
                for p, k in places
            )
            if sides not in ([0, 0], [-1, 1]):
                raise ValueError(
                    f"boundary arc {i} does not run from a first fan end to a last one"
                )
            arcs.append(Arc(sides == [-1, 1], (places[0][0], places[1][0])))

        # The dart arriving at a non-last fan end is followed by the dart
        # leaving from the next end; the faces are the cycles of this map.
        follow = {
            (a, 1 - e): leave for fan in self.fans for (a, e), leave in zip(fan, fan[1:])
        }
        triangles = []
        while follow:
            face = [min(follow)]
            while (dart := follow.pop(face[-1])) != face[0]:
                face.append(dart)
            if len(face) != 3:
                raise ValueError(f"face {face} is not a triangle")
            triangles.append(tuple(face))
        self.arcs: tuple[Arc, ...] = tuple(arcs)
        self.triangles: tuple[tuple[Dart, Dart, Dart], ...] = tuple(triangles)

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

        # Boundary circles: walk boundary arcs.  The boundary arc whose end
        # is first at a point is followed by the one whose end is last.
        next_walk = {fan[0][0]: fan[-1][0] for fan in self.fans}
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
            h = circles.get(root, 0)
            chi = len(pts) - len(arcs) + tri_of.get(root, 0)
            out.append({"points": pts, "arcs": arcs, "genus": (2 - h - chi) // 2, "boundaries": h})
        return out

    # -- identity up to relabeling -------------------------------------------

    def canonical(self):
        """Fans with arc-end orientations normalized.

        End 0 of each arc is redeclared to be the end met first when
        scanning fans in point order.  Two surfaces are equal when these
        agree.
        """
        swap: dict[int, int] = {}
        for fan in self.fans:
            for a, e in fan:
                swap.setdefault(a, e)
        return tuple(tuple((a, e ^ swap[a]) for a, e in fan) for fan in self.fans)

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
            "components": self.components(),
        }

    @classmethod
    def from_json(cls, data) -> TriangulatedSurface:
        """Surface built from ``marked_points``.

        Raises ValueError when the payload's ``arcs`` or ``triangles``
        (in any order and rotation) disagree with those of the fans.
        """
        fans = payload.entries(*payload.field(data, "marked_points"))
        s = cls(payload.int_matrix(*payload.field(p, "ends", path), cols=2) for path, p in fans)
        arcs = [
            Arc(payload.boolean(*payload.field(a, "boundary", path)),
                payload.int_list(*payload.field(a, "ends", path), 2))
            for path, a in payload.entries(*payload.field(data, "arcs"))
        ]
        if arcs != list(s.arcs):
            raise ValueError("arcs disagree with the fans of the marked points")
        triangles = []
        for path, tri in payload.entries(*payload.field(data, "triangles")):
            t = payload.int_matrix(tri, path, 3, 2)
            triangles.append(min(t[k:] + t[:k] for k in range(3)))
        if sorted(triangles) != list(s.triangles):
            raise ValueError("triangles disagree with the fans of the marked points")
        return s


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
    """The initial seed, not checked: Lambda B = 4 iota by construction, and
    the ``compatibility`` suite and ``seed check`` report that check."""
    return QuantumSeed.initial(SkewForm(lambda_matrix(s)), b_matrix(s), s.internal_arcs())


# -- builders ----------------------------------------------------------------


def _add_boundary_points(fans: list[list[ArcEnd]], u: int, w: int, e: int, count: int) -> int:
    """Add count marked points, one at a time, to fan lists.

    The first point goes on the boundary arc whose end is last in fans[u]
    and first in fans[w], each later one on the boundary arc from the
    previous new point to w.  Each point cuts off a triangle: the split
    arc turns internal, and new boundary arcs e (from u) and e + 1 (to w)
    join the new point, appended as the last fan.  Returns the next free
    arc index.
    """
    for _ in range(count):
        fans[u].append((e, 0))
        fans[w].insert(0, (e + 1, 1))
        fans.append([(e, 1), (e + 1, 0)])
        u = len(fans) - 1
        e += 2
    return e


def build_disc(n: int) -> TriangulatedSurface:
    """Fan triangulation of the disc with n marked points."""
    if n < 3:
        raise ValueError("a triangulated disc needs at least 3 marked points")
    # A triangle on points 0, 1, 2; point k goes on the arc from k - 1 to 0.
    fans = [[(2, 1), (0, 0)], [(0, 1), (1, 0)], [(1, 1), (2, 0)]]
    _add_boundary_points(fans, 2, 0, 3, n - 3)
    return TriangulatedSurface(fans)


def from_chords(n: int, arcs) -> TriangulatedSurface:
    """The triangulated disc whose arc i is the chord arcs[i].

    Chords join marked points 1..n, numbered clockwise; marked point p is
    surface point p - 1.  The fan at p orders the other endpoints u of
    its chords by (p - u) mod n.  Chords that do not triangulate the
    n-gon raise ValueError; each is read by ``disc.normalize_chord``, the
    one chord rule, then checked for repeats, crossings and count.
    """
    from .disc import crosses, normalize_chord

    if n < 3:
        raise ValueError("a triangulated disc needs at least 3 marked points")
    chords = [normalize_chord(n, c) for c in arcs]
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
    fans: list[list[ArcEnd]] = [[] for _ in range(n)]
    for i, (a, b) in enumerate(chords):
        fans[a - 1].append((i, 0))
        fans[b - 1].append((i, 1))
    for p, fan in enumerate(fans, 1):
        fan.sort(key=lambda end: (p - chords[end[0]][1 - end[1]]) % n)
    return TriangulatedSurface(fans)


def to_chords(s: TriangulatedSurface) -> tuple[tuple[int, int], ...]:
    """The chord of each arc, in arc order: the inverse of ``from_chords``.

    Valid for the discs that ``from_chords`` and ``build_disc`` make and
    for their flips, whose surface point p is chord endpoint p + 1.
    """
    return tuple((min(a, b) + 1, max(a, b) + 1) for a, b in (arc.ends for arc in s.arcs))


def build_annulus(p: int, q: int) -> TriangulatedSurface:
    """Triangulated annulus with p outer and q inner marked points."""
    if p < 1 or q < 1:
        raise ValueError("annulus needs at least one marked point per boundary")
    # Points: 0 on the outer boundary, 1 on the inner one.  Arcs: a = 0 and
    # b = 1 are the boundary circles, x0 = 2 and x1 = 3 the two parallel
    # internal arcs.
    fans = [
        [(0, 0), (3, 0), (2, 0), (0, 1)],
        [(1, 0), (3, 1), (2, 1), (1, 1)],
    ]
    e = _add_boundary_points(fans, 0, 0, 4, p - 1)
    _add_boundary_points(fans, 1, 1, e, q - 1)
    return TriangulatedSurface(fans)


def disjoint_union(s1: TriangulatedSurface, s2: TriangulatedSurface) -> TriangulatedSurface:
    ao = s1.n_arcs
    fans = [list(fan) for fan in s1.fans]
    fans += [[(a + ao, e) for a, e in fan] for fan in s2.fans]
    return TriangulatedSurface(fans)


# -- flip ----------------------------------------------------------------------


def flip(s: TriangulatedSurface, j: int) -> TriangulatedSurface:
    """Replace arc j by the other diagonal of its quadrilateral.

    The new arc reuses index j, so seed-to-surface index maps stay
    stable across flips.

    Every internal arc flips, so there is no self-fold check: no
    triangle holds both darts of one arc.  If one did, a dart of j would
    be followed by the other, which leaves from the fan end after the
    end the first one arrives at; so that end of j would come after
    itself in its fan.  (A self-folded triangle needs a puncture, and
    every marked point here lies on the boundary.)
    """
    if not 0 <= j < s.n_arcs:
        raise FlipError(f"arc {j} does not exist (arcs are 0..{s.n_arcs - 1})")
    if s.arcs[j].boundary:
        raise FlipError(f"boundary arc {j} cannot be flipped")
    (t1,) = [tri for tri in s.triangles if (j, 0) in tri]
    (t2,) = [tri for tri in s.triangles if (j, 1) in tri]
    # The new arc runs from where the dart after (j, 0) arrives to where
    # the dart after (j, 1) arrives, next after each arriving end in its fan.
    fans = [list(fan) for fan in s.fans]
    fans[s.arcs[j].ends[0]].remove((j, 0))
    fans[s.arcs[j].ends[1]].remove((j, 1))
    for tri, end in ((t1, (j, 0)), (t2, (j, 1))):
        a, d = tri[(tri.index(end) + 1) % 3]
        fan = fans[s.dart_target((a, d))]
        fan.insert(fan.index((a, 1 - d)) + 1, end)
    return TriangulatedSurface(fans)


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
    fan_u = s.fans[u]
    fan_w = s.fans[w]
    k = fan_u.index((j, 0))
    t = fan_w.index((j, 1))
    fans = list(s.fans)
    fans[u] = fan_u[: k + 1]
    fans[w] = fan_w[t:]
    fans.append(((nb, 0),) + fan_u[k + 1 :])
    fans.append(fan_w[:t] + ((nb, 1),))
    return TriangulatedSurface(fans)
