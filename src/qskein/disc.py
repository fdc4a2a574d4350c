"""Skein algebra of a marked disc.

Marked points are labeled 1..n in clockwise order around the boundary.
Simple arcs are chords (a, b) with distinct endpoints, stored as sorted
pairs.  The canonical basis consists of noncrossing multisets of chords;
multisets carry integer weights which are >= 1 on internal chords and may
be negative on boundary chords after localization.

Products resolve crossings through the Kauffman relation.  For an
over-chord (a, c) and under-chord (b, d) with a, b, c, d clockwise:

    [x_ac][x_bd] = q [x_ab][x_cd] + q^-1 [x_ad][x_bc]

i.e. the q-smoothing joins each endpoint of the over-chord to the
endpoint of the under-chord immediately clockwise from it.  Noncrossing
chords obey [x][y] = v^(L(x,y)) [x u y] where L is the orientation
pairing of arc ends at shared marked points (v = q^(1/2)).

An element is a ``qcoeff.LinearCombination`` of basis multisets
x[a, b]^w*... on n marked points; this module adds the skein product.

Rewriting runs on interned chords.  Crossing, L and smoothing depend
only on the cyclic order of the endpoints involved, so they are
invariant under any relabelling that keeps that order.  ``reduce_word``
and ``product`` therefore relabel the e distinct endpoints a call
touches, in clockwise order, onto 1..e; chords become small ints, and
the result keys are mapped back to the original labels.  The relations
of the e-gon live in one table per e that is filled lazily, an entry at
a time on first use, so no table is sized by n and none is built at
import.
"""

from __future__ import annotations

import functools
import json
import random
from operator import mul, sub
from typing import Iterable

from . import surface
from ._kernels import coeff_add, coeff_mul, coeff_shift
from .qcoeff import LinearCombination, QCoeff, parse as parse_coeff, raw_coeff
from .qtorus import SkewForm, TorusElement

Chord = tuple[int, int]
MultisetKey = tuple[tuple[Chord, int], ...]


class LocalizationError(ValueError):
    """Raised when asked to invert a chord that is not a boundary chord."""


class InhomogeneousError(ValueError):
    """Raised when an element has no single endpoint degree."""

    def __init__(self, degrees):
        self.degrees = sorted(degrees)
        super().__init__(f"element is not homogeneous: degrees {self.degrees}")


# -- chord combinatorics -------------------------------------------------


def normalize_chord(n: int, c) -> Chord:
    a, b = int(c[0]), int(c[1])
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"chord {c!r} out of range for {n} marked points")
    if a == b:
        raise ValueError(f"chord endpoints must be distinct, got {c!r}")
    return (a, b) if a < b else (b, a)


def all_chords(n: int) -> list[Chord]:
    return [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]


def is_boundary_chord(n: int, c: Chord) -> bool:
    a, b = c
    return b - a == 1 or (a == 1 and b == n)


def crosses(c1: Chord, c2: Chord) -> bool:
    a, b = c1
    c, d = c2
    return (a < c < b < d) or (c < a < d < b)


def lam_pair(n: int, x: Chord, y: Chord) -> int:
    """Orientation pairing of two noncrossing-or-not chords.

    Sums +-1 over pairs of ends at shared marked points: +1 when the end
    of x is clockwise of the end of y in the fan of arcs at that point.
    At point p the fan, most clockwise end first, lists the other
    endpoints u in increasing order of (p - u) mod n.
    """
    s = 0
    for p, u in ((x[0], x[1]), (x[1], x[0])):
        for pp, w in ((y[0], y[1]), (y[1], y[0])):
            if p == pp and u != w:
                s += 1 if (p - u) % n < (p - w) % n else -1
    return s


def _cw_dist(n: int, frm: int, to: int) -> int:
    return (to - frm) % n


def _smooth(n: int, over: Chord, under: Chord) -> tuple[tuple[Chord, Chord], tuple[Chord, Chord]]:
    """Return (q-smoothing, q^-1-smoothing) of one crossing."""
    o1, o2 = over
    u1, u2 = under
    pairs_q = []
    pairs_qi = []
    for o in (o1, o2):
        cw = u1 if _cw_dist(n, o, u1) < _cw_dist(n, o, u2) else u2
        ccw = u2 if cw == u1 else u1
        pairs_q.append(normalize_chord(n, (o, cw)))
        pairs_qi.append(normalize_chord(n, (o, ccw)))
    return (pairs_q[0], pairs_q[1]), (pairs_qi[0], pairs_qi[1])


# -- multiset keys -------------------------------------------------------


def multiset_key(n: int, chords: Iterable, weights=None) -> MultisetKey:
    counts: dict[Chord, int] = {}
    if weights is None:
        for c in chords:
            c = normalize_chord(n, c)
            counts[c] = counts.get(c, 0) + 1
    else:
        for c, w in zip(chords, weights):
            c = normalize_chord(n, c)
            counts[c] = counts.get(c, 0) + int(w)
    counts = {c: w for c, w in counts.items() if w}
    for c, w in counts.items():
        if w < 0 and not is_boundary_chord(n, c):
            raise ValueError(f"internal chord {c} cannot have negative weight {w}")
    for c1 in counts:
        for c2 in counts:
            if c1 < c2 and crosses(c1, c2):
                raise ValueError(f"multiset is not simple: {c1} crosses {c2}")
    return tuple(sorted(counts.items()))


# -- elements ------------------------------------------------------------


class DiscElement(LinearCombination):
    """A linear combination of basis multisets with QCoeff coefficients."""

    __slots__ = ("n",)

    _mismatch = "elements live on discs of different sizes"

    def __init__(self, n: int, terms=None):
        if n < 3:
            raise ValueError("a marked disc needs at least 3 boundary points")
        self.n = n
        self._terms: dict[MultisetKey, dict] = {}
        if terms:
            seen = set()
            for key, c in terms.items():
                # Rewriting relies on keys being simple multisets.
                key = multiset_key(n, [ch for ch, _ in key], [w for _, w in key])
                if key in seen:
                    raise ValueError(f"duplicate multiset {key}")
                seen.add(key)
                if raw := raw_coeff(c):
                    self._terms[key] = raw

    @classmethod
    def _raw(cls, n: int, terms: dict) -> DiscElement:
        if n < 3:
            raise ValueError("a marked disc needs at least 3 boundary points")
        out = cls.__new__(cls)
        out.n = n
        out._terms = terms
        return out

    @classmethod
    def one(cls, n: int) -> DiscElement:
        return cls._raw(n, {(): {0: 1}})

    @classmethod
    def basis(cls, n: int, chords: Iterable, weights=None) -> DiscElement:
        return cls._raw(n, {multiset_key(n, chords, weights): {0: 1}})

    def _space(self) -> int:
        return self.n

    @staticmethod
    def _key_text(key: MultisetKey) -> str:
        return "*".join(f"x{list(ch)}" + (f"^{w}" if w != 1 else "") for ch, w in key) or "1"

    # -- products -------------------------------------------------------

    def __mul__(self, other) -> DiscElement:
        if isinstance(other, (int, QCoeff)):
            return self.scale(other)
        if isinstance(other, DiscElement):
            return product(self, other)
        return NotImplemented

    # -- structure ------------------------------------------------------

    def in_q(self) -> DiscElement:
        """Top v-degree layer, as an integer combination of multisets."""
        if not self._terms:
            return self
        top = max(max(c) for c in self._terms.values())
        out = {}
        for key, c in self._terms.items():
            v = c.get(top, 0)
            if v:
                out[key] = {0: v}
        return DiscElement._raw(self.n, out)

    def grading(self) -> tuple[int, ...]:
        """Endpoint degree in Z^n, or raise InhomogeneousError."""
        if not self._terms:
            return (0,) * self.n
        degs = {multiset_degree(self.n, key) for key in self._terms}
        if len(degs) > 1:
            raise InhomogeneousError(degs)
        return next(iter(degs))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {
                    "chords": [list(ch) for ch, _ in key],
                    "weights": [w for _, w in key],
                    "coeff": str(c),
                }
                for key, c in self.terms()
            ],
        }

    @classmethod
    def from_json(cls, data) -> DiscElement:
        if isinstance(data, str):
            data = json.loads(data)
        n = int(data["n"])
        terms = {}
        for t in data["terms"]:
            weights = t.get("weights")
            key = multiset_key(n, t["chords"], weights)
            if key in terms:
                raise ValueError(f"duplicate multiset {key}")
            terms[key] = parse_coeff(t["coeff"])
        return cls(n, terms)


def multiset_degree(n: int, key: MultisetKey) -> tuple[int, ...]:
    deg = [0] * n
    for (a, b), w in key:
        deg[a - 1] += w
        deg[b - 1] += w
    return tuple(deg)


# -- interned chords -------------------------------------------------------


class _Lazy(dict):
    """A dict that computes a missing value with fill(key) and keeps it."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Table:
    """Chord relations of the e-gon, filled on first use.

    Chord (a, b) of the e-gon is interned as the id a * m + b, m = e + 1,
    so ids sort like chords; the ordered pair of ids (x, y) has the key
    x * mm + y, mm = m * m.  ``pairs`` maps a pair key to lam_pair(x, y),
    or to None when x and y cross; ``smoothings`` maps the key of a
    crossing (over, under) to the ids (u1, u2, t1, t2) of its q- and
    q^-1-smoothings.  An entry is computed when first asked for, so a
    table holds only the pairs some rewriting has met.
    """

    __slots__ = ("e", "m", "mm", "pairs", "smoothings")

    def __init__(self, e: int):
        self.e, self.m, self.mm = e, e + 1, (e + 1) ** 2
        self.pairs = _Lazy(self._pair)
        self.smoothings = _Lazy(self._smoothing)

    def _pair(self, key: int):
        x, y = divmod(key, self.mm)
        cx, cy = divmod(x, self.m), divmod(y, self.m)
        return None if crosses(cx, cy) else lam_pair(self.e, cx, cy)

    def _smoothing(self, key: int) -> tuple[int, int, int, int]:
        over, under = divmod(key, self.mm)
        m = self.m
        smoothed = _smooth(self.e, divmod(over, m), divmod(under, m))
        return tuple(a * m + b for pair in smoothed for a, b in pair)


@functools.lru_cache(maxsize=None)
def _table(e: int) -> _Table:
    return _Table(e)


def _relabel(points: Iterable[int]) -> tuple[_Table, dict[int, int], list[int]]:
    """Relabel the marked points touched, in clockwise order, onto 1..e.

    Returns the table of the e-gon, the map from old labels to new, and
    the list mapping new labels back (entry 0 unused).
    """
    labels = sorted(set(points))
    return _table(len(labels)), {p: k for k, p in enumerate(labels, 1)}, [0, *labels]


def _unintern(key, m: int, back: list[int]) -> MultisetKey:
    """An id-keyed multiset in the original labels."""
    return tuple(((back[x // m], back[x % m]), w) for x, w in key)


# -- reduction to the canonical basis -------------------------------------


def _reduce(t: _Table, word: tuple[int, ...], rng: random.Random | None = None) -> dict:
    """reduce_word on interned chords: id-keyed multiset -> coefficient."""
    pairs, smoothings, mm = t.pairs, t.smoothings, t.mm
    out: dict[tuple, dict] = {}
    stack: list[tuple[tuple[int, ...], dict]] = [(word, {0: 1})]
    while stack:
        w, coef = stack.pop()
        size = len(w)
        twist = 0
        if rng is None:
            # Scan gaps d = 1, 2, ... for the first crossing (i, i + d).
            # Nothing between a nearest crossing pair crosses its right
            # chord, so it is admissible: this is the admissible pair
            # minimising (j - i, i).  A word with no crossing is a leaf,
            # and its twist is the sum of the pairs scanned.
            for d in range(1, size):
                for i in range(size - d):
                    lam = pairs[w[i] * mm + w[i + d]]
                    if lam is None:
                        break
                    twist += lam
                else:
                    continue
                j = i + d
                break
            else:
                j = None
        else:
            admissible = [
                (i, j)
                for i in range(size)
                for j in range(i + 1, size)
                if pairs[w[i] * mm + w[j]] is None
                and all(pairs[w[k] * mm + w[j]] is not None for k in range(i + 1, j))
            ]
            if admissible:
                i, j = admissible[rng.randrange(len(admissible))]
            else:
                j = None
                twist = sum(pairs[w[i] * mm + w[j]] for i in range(size) for j in range(i + 1, size))
        if j is None:
            # Leaves are noncrossing by construction: key them by counts.
            counts: dict[int, int] = {}
            for x in w:
                counts[x] = counts.get(x, 0) + 1
            key = tuple(sorted(counts.items()))
            shifted = coeff_shift(coef, twist)
            cur = out.get(key)
            s = coeff_add(cur, shifted) if cur is not None else shifted
            if s:
                out[key] = s
            else:
                out.pop(key, None)
            continue
        # Commute w[j] left to sit just after w[i]; each swap with a
        # noncrossing entry costs v^(2 L).
        right = w[j]
        shift = 2 * sum(pairs[w[k] * mm + right] for k in range(i + 1, j))
        prefix = w[:i]
        suffix = w[i + 1 : j] + w[j + 1 :]
        u1, u2, t1, t2 = smoothings[w[i] * mm + right]
        stack.append((prefix + (u1, u2) + suffix, coeff_shift(coef, shift + 2)))
        stack.append((prefix + (t1, t2) + suffix, coeff_shift(coef, shift - 2)))
    return out


def reduce_word(n: int, word, rng: random.Random | None = None) -> DiscElement:
    """Canonical form of a product of chords, leftmost chord on top.

    The word lists chords from over to under; the result is the product
    of the corresponding basis arcs.  When rng is given, the crossing
    resolved at each step is chosen at random among the admissible ones
    (used to check that the rewriting is confluent).
    """
    word = [normalize_chord(n, c) for c in word]
    t, index, back = _relabel(p for c in word for p in c)
    m = t.m
    terms = _reduce(t, tuple(index[a] * m + index[b] for a, b in word), rng)
    return DiscElement._raw(n, {_unintern(k, m, back): c for k, c in terms.items()})


def product(x: DiscElement, y: DiscElement) -> DiscElement:
    """Skein product, x drawn over y."""
    if x.n != y.n:
        raise ValueError("elements live on discs of different sizes")
    n = x.n
    t, index, back = _relabel(
        p for el in (x, y) for key in el._terms for c, _ in key for p in c
    )
    pairs, m, mm = t.pairs, t.m, t.mm

    def split(key: MultisetKey) -> tuple[dict[int, int], tuple[int, ...]]:
        """(boundary id -> weight, word of internal ids)."""
        bnd: dict[int, int] = {}
        word: list[int] = []
        for c, w in key:
            cid = index[c[0]] * m + index[c[1]]
            if is_boundary_chord(n, c):
                bnd[cid] = w
            else:
                word.extend([cid] * w)
        return bnd, tuple(word)

    def lam(a, b) -> int:
        """Sum of wa * wb * lam_pair over (id, weight) pairs of a and b."""
        s = 0
        for xa, wa in a:
            for xb, wb in b:
                s += wa * wb * pairs[xa * mm + xb]
        return s

    def word_twist(word: tuple[int, ...]) -> int:
        s = 0
        for i, xa in enumerate(word):
            for xb in word[i + 1 :]:
                s += pairs[xa * mm + xb]
        return s

    ys = []
    for ky, cy in y._terms.items():
        by, wy = split(ky)
        ys.append((by, wy, cy, -lam(by.items(), [(c, 1) for c in wy]) - word_twist(wy)))
    out: dict[tuple, dict] = {}
    memo: dict[tuple[int, ...], dict] = {}
    for kx, cx in x._terms.items():
        bx, wx = split(kx)
        ones_x = [(c, 1) for c in wx]
        twist_x = -lam(bx.items(), ones_x) - word_twist(wx)
        for by, wy, cy, twist_y in ys:
            word = wx + wy
            reduced = memo.get(word)
            if reduced is None:
                reduced = memo[word] = _reduce(t, word)
            shift = twist_x + twist_y + 2 * lam(ones_x, by.items()) + lam(bx.items(), by.items())
            bnd = dict(bx)
            for c, w in by.items():
                bnd[c] = bnd.get(c, 0) + w
            cxy = coeff_shift(coeff_mul(cx, cy), shift)
            for rkey, rcoef in reduced.items():
                s2 = lam(bnd.items(), rkey)
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
    return DiscElement._raw(n, {_unintern(k, m, back): c for k, c in out.items()})


# -- crossing numbers ------------------------------------------------------


def mu_keys(k1: MultisetKey, k2: MultisetKey) -> int:
    """Geometric crossing number of two basis multisets."""
    return sum(
        abs(w1) * abs(w2)
        for c1, w1 in k1
        for c2, w2 in k2
        if crosses(c1, c2)
    )


def mu(x: DiscElement, y: DiscElement) -> int:
    """max of mu over the supports of x and y."""
    if x.is_zero() or y.is_zero():
        return 0
    return max(mu_keys(k1, k2) for k1 in x._terms for k2 in y._terms)


def mu_delta(n: int, delta, x: DiscElement) -> tuple[int, ...]:
    """mu of x against each arc of the triangulation delta.

    Raises ValueError when delta does not triangulate the n-gon.
    """
    arcs, _, _, diagonals = _triangulation(n, tuple(map(tuple, delta)))
    return _crossings(len(arcs), diagonals, x)


def _crossings(size: int, diagonals, x: DiscElement) -> tuple[int, ...]:
    """mu_delta from the (position, chord) diagonals of a triangulation.

    Boundary arcs cross nothing, so their entries stay 0.
    """
    best = [0] * size
    for key in x._terms:
        for i, c in diagonals:
            s = 0
            for y, w in key:
                if crosses(c, y):
                    s += abs(w)
            if s > best[i]:
                best[i] = s
    return tuple(best)


# -- smoothing and leading terms -------------------------------------------


def leading_smoothing(n: int, c, key: MultisetKey) -> MultisetKey:
    """gamma_c: apply the q-smoothing of c over every crossing with key.

    Returns the multiset of [c] stacked over [key] with all crossings
    q-smoothed; this is the leading support of the product [c][key].
    """
    p, r = normalize_chord(n, c)
    crossers: list[Chord] = []
    rest: dict[Chord, int] = {}
    for y, w in key:
        if crosses((p, r), y):
            if w < 0:
                raise ValueError("cannot smooth a negatively weighted chord")
            crossers.extend([y] * w)
        else:
            rest[y] = rest.get(y, 0) + w
    span = _cw_dist(n, p, r)

    def near_far(y: Chord) -> tuple[int, int]:
        a, b = y
        if 0 < _cw_dist(n, p, a) < span:
            return a, b
        return b, a

    crossers.sort(key=lambda y: (_cw_dist(n, p, near_far(y)[0]), _cw_dist(n, near_far(y)[1], p)))
    chain: list[Chord] = []
    prev = p
    for y in crossers:
        near, far = near_far(y)
        chain.append(normalize_chord(n, (prev, near)))
        prev = far
    chain.append(normalize_chord(n, (prev, r)))
    merged = dict(rest)
    for ch in chain:
        merged[ch] = merged.get(ch, 0) + 1
    return tuple(sorted((ch, w) for ch, w in merged.items() if w))


# -- localization ----------------------------------------------------------


def localize(x: DiscElement, weights: dict) -> DiscElement:
    """Multiply x on the right by a weighted boundary multiset.

    Weights may be negative; only boundary chords are invertible.
    """
    n = x.n
    norm: dict[Chord, int] = {}
    for c, w in weights.items():
        c = normalize_chord(n, c)
        if not is_boundary_chord(n, c):
            raise LocalizationError(f"chord {c} is not a boundary chord")
        norm[c] = norm.get(c, 0) + int(w)
    norm = {c: w for c, w in norm.items() if w}
    if not norm:
        return x
    factor = DiscElement._raw(n, {tuple(sorted(norm.items())): {0: 1}})
    return product(x, factor)


# -- triangulations --------------------------------------------------------


def boundary_chords(n: int) -> list[Chord]:
    return [(i, i + 1) for i in range(1, n)] + [(1, n)]


def enumerate_triangulations(n: int) -> list[tuple[Chord, ...]]:
    """All triangulations of the disc: boundary chords plus n-3 diagonals.

    Each triangulation is returned as a sorted tuple of all 2n-3 arcs.
    """
    if n < 3:
        raise ValueError("a triangulated disc needs at least 3 marked points")

    def diagonal_sets(points: tuple[int, ...]) -> list[frozenset]:
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

    base = boundary_chords(n)
    seen = set()
    result = []
    for diags in diagonal_sets(tuple(range(1, n + 1))):
        if diags in seen:
            continue
        seen.add(diags)
        result.append(tuple(sorted(base + sorted(diags))))
    return sorted(result)


def flip_diagonal(n: int, delta, d) -> tuple[tuple[Chord, ...], Chord]:
    """Flip one diagonal, keeping its position in the arc list.

    Returns (new_delta, new_chord); new_delta has the new chord at the
    index the old one occupied, other arcs untouched.
    """
    arcs = [normalize_chord(n, c) for c in delta]
    d = normalize_chord(n, d)
    if d not in arcs:
        raise ValueError(f"{d} is not an arc of the triangulation")
    j = arcs.index(d)
    a, b = surface.flip(surface.from_chords(n, arcs), j).arcs[j].ends
    arcs[j] = normalize_chord(n, (a + 1, b + 1))
    return tuple(arcs), arcs[j]


# -- Laurent expansion ------------------------------------------------------


def triangulation_form(n: int, delta) -> SkewForm:
    return SkewForm(surface.lambda_matrix(surface.from_chords(n, delta)))


@functools.lru_cache(maxsize=256)
def _triangulation(n: int, delta: tuple[tuple, ...]):
    """Normalised arcs, chord -> arc index map, torus form and (position,
    chord) diagonals of a triangulation, built once per delta."""
    arcs = tuple(normalize_chord(n, c) for c in delta)
    return (
        arcs,
        {c: i for i, c in enumerate(arcs)},
        triangulation_form(n, arcs),
        tuple((i, c) for i, c in enumerate(arcs) if not is_boundary_chord(n, c)),
    )


def expand_laurent(x: DiscElement, delta) -> TorusElement:
    """Image of x in the quantum torus of a triangulation.

    Clears denominators with the monomial of mu_delta(x), reduces, and
    divides back inside the torus: M^(-mu) M^alpha is
    v^(Lambda(-mu, alpha)) M^(alpha - mu), applied term by term.
    """
    n = x.n
    arcs, index, form, diagonals = _triangulation(n, tuple(map(tuple, delta)))
    if x.is_zero():
        return TorusElement.zero(form)
    m = _crossings(len(arcs), diagonals, x)
    denom_key = tuple(sorted((c, k) for c, k in zip(arcs, m) if k))
    numer = product(DiscElement._raw(n, {denom_key: {0: 1}}), x)
    # row[j] = Lambda(-mu, e_j), summed over the arcs mu crosses.
    row = [0] * len(arcs)
    for i, k in enumerate(m):
        if k:
            row = [r - k * l for r, l in zip(row, form.matrix[i])]
    terms = {}
    for key, c in numer._terms.items():
        alpha = [0] * len(arcs)
        for ch, w in key:
            if ch not in index:
                raise ValueError(
                    f"product is not supported on the triangulation: chord {ch} appears"
                )
            alpha[index[ch]] = w
        s = sum(map(mul, row, alpha))
        terms[tuple(map(sub, alpha, m))] = coeff_shift(c, s) if s else c
    return TorusElement._raw(form, terms)


def triangulation_seed(n: int, delta):
    """Initial quantum seed of a triangulation (frame = basis monomials)."""
    return surface.to_seed(surface.from_chords(n, delta))
