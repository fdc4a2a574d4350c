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

Rewriting, products and the Laurent expansion run on interned chords:
chord (a, b) of the n-gon is the int a * (n + 1) + b, so ids sort like
chords.  The crossings, L and smoothings of the n-gon live in one table
per n that is filled lazily, an entry at a time on first use, so none is
built at import.  The Weyl twist of chords with weights, the sum of
w w' L over their pairs, is ``_pairing`` on that table.

The Laurent expansion into the quantum torus of a triangulation is an
algebra map.  Each chord that is not an arc of the triangulation is
expanded once, with one skein product that clears its denominator, and
kept with the triangulation; a basis multiset maps to the Weyl-ordered
torus product of its chords' images, the arcs being monomials.
"""

from __future__ import annotations

import functools
import operator
import random
from itertools import repeat
from operator import add, mul
from typing import Iterable

from . import payload, surface
from ._kernels import act, coeff_acc, coeff_mul, coeff_shift, torus_mul
from .qcoeff import LinearCombination, QCoeff, render_raw
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
    a, b = operator.index(c[0]), operator.index(c[1])
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


def _smooth(n: int, over: Chord, under: Chord) -> tuple[tuple[Chord, Chord], tuple[Chord, Chord]]:
    """Return (q-smoothing, q^-1-smoothing) of one crossing; crossing chords
    share no endpoint, so each joined pair is a chord once sorted."""
    o1, o2 = over
    u1, u2 = under
    pairs_q, pairs_qi = [], []
    for o in (o1, o2):
        cw = u1 if (u1 - o) % n < (u2 - o) % n else u2
        ccw = u2 if cw == u1 else u1
        pairs_q.append((o, cw) if o < cw else (cw, o))
        pairs_qi.append((o, ccw) if o < ccw else (ccw, o))
    return (pairs_q[0], pairs_q[1]), (pairs_qi[0], pairs_qi[1])


# -- multiset keys -------------------------------------------------------


def multiset_key(n: int, chords: Iterable, weights=None) -> MultisetKey:
    counts: dict[Chord, int] = {}
    for c, w in zip(chords, repeat(1) if weights is None else weights, strict=weights is not None):
        c, w = normalize_chord(n, c), operator.index(w)
        # Only boundary chords are invertible, so only their weights may cancel.
        if w < 0 and not is_boundary_chord(n, c):
            raise ValueError(f"internal chord {c} cannot have negative weight {w}")
        counts[c] = counts.get(c, 0) + w
    counts = {c: w for c, w in counts.items() if w}
    for c1 in counts:
        for c2 in counts:
            if c1 < c2 and crosses(c1, c2):
                raise ValueError(f"multiset is not simple: {c1} crosses {c2}")
    return tuple(sorted(counts.items()))


# -- elements ------------------------------------------------------------


class DiscElement(LinearCombination):
    """A linear combination of basis multisets with QCoeff coefficients."""

    __slots__ = ()

    _key_name = "multiset"
    _mismatch = "elements live on discs of different sizes"

    @property
    def n(self) -> int:
        return self.space

    @staticmethod
    def _key(n: int, key) -> MultisetKey:
        # Rewriting relies on keys being simple multisets.
        return multiset_key(n, [ch for ch, _ in key], [w for _, w in key])

    @staticmethod
    def _key_text(key: MultisetKey) -> str:
        return "*".join(f"x{list(ch)}" + (f"^{w}" if w != 1 else "") for ch, w in key) or "1"

    @classmethod
    def _raw(cls, n: int, terms: dict) -> DiscElement:
        if (n := operator.index(n)) < 3:
            raise ValueError("a marked disc needs at least 3 boundary points")
        return super()._raw(n, terms)

    @classmethod
    def one(cls, n: int) -> DiscElement:
        return cls._raw(n, {(): {0: 1}})

    @classmethod
    def basis(cls, n: int, chords: Iterable, weights=None) -> DiscElement:
        return cls._raw(n, {multiset_key(n, chords, weights): {0: 1}})

    # -- products -------------------------------------------------------

    def __mul__(self, other) -> DiscElement:
        if isinstance(other, (int, QCoeff)):
            return self.scale(other)
        if isinstance(other, DiscElement):
            return product(self, other)
        return NotImplemented

    # -- structure ------------------------------------------------------

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
                    "coeff": render_raw(c),
                }
                for key, c in sorted(self._terms.items())
            ],
        }

    @classmethod
    def from_json(cls, data) -> DiscElement:
        """Decode a parsed ``to_json`` object; ``weights`` defaults to all 1."""
        n = payload.integer(*payload.field(data, "n"))
        terms = []
        for p, t in payload.entries(*payload.field(data, "terms")):
            chords = payload.int_matrix(*payload.field(t, "chords", p), cols=2)
            weights = [1] * len(chords)
            if "weights" in t:
                weights = payload.int_list(*payload.field(t, "weights", p), len(chords))
            coeff = payload.coeff(*payload.field(t, "coeff", p))
            terms.append((tuple(zip(chords, weights)), coeff))
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
    """Chord relations of the n-gon, filled on first use.

    Chord (a, b) is interned as the id a * m + b, m = n + 1, so ids sort
    like chords; the ordered pair of ids (x, y) has the key
    x * mm + y, mm = m * m.  ``pairs`` maps a pair key to lam_pair(x, y),
    or to None when x and y cross; ``smoothings`` maps the key of a
    crossing (over, under) to the ids (u1, u2, t1, t2) of its q- and
    q^-1-smoothings.  An entry is computed when first asked for, so a
    table holds only the pairs some rewriting has met.
    """

    __slots__ = ("n", "m", "mm", "pairs", "smoothings")

    def __init__(self, n: int):
        self.n, self.m, self.mm = n, n + 1, (n + 1) ** 2
        self.pairs = _Lazy(self._pair)
        self.smoothings = _Lazy(self._smoothing)

    def _pair(self, key: int):
        x, y = divmod(key, self.mm)
        cx, cy = divmod(x, self.m), divmod(y, self.m)
        return None if crosses(cx, cy) else lam_pair(self.n, cx, cy)

    def _smoothing(self, key: int) -> tuple[int, int, int, int]:
        over, under = divmod(key, self.mm)
        m = self.m
        smoothed = _smooth(self.n, divmod(over, m), divmod(under, m))
        return tuple(a * m + b for pair in smoothed for a, b in pair)


@functools.lru_cache(maxsize=256)
def _table(n: int) -> _Table:
    return _Table(n)


def _unintern(key, m: int) -> MultisetKey:
    """An id-keyed multiset as chords."""
    return tuple((divmod(x, m), w) for x, w in key)


def _pairing(t: _Table, a, b=None) -> int:
    """Sum of wa * wb * L(xa, xb) over (id, weight) pairs xa of a and xb of
    b, or over the pairs i < j of the list a when b is None."""
    pairs, mm = t.pairs, t.mm
    s = 0
    for i, (xa, wa) in enumerate(a):
        for xb, wb in a[i + 1 :] if b is None else b:
            s += wa * wb * pairs[xa * mm + xb]
    return s


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
        # Scan gaps d = 1, 2, ... for the first crossing (i, i + d).
        # Nothing between a nearest crossing pair crosses its right chord,
        # so it is admissible: this is the admissible pair minimising
        # (j - i, i).  A word with no crossing is a leaf, and its twist is
        # the sum of the pairs scanned, which is every pair.
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
            # Leaves are noncrossing by construction: key them by counts.
            counts: dict[int, int] = {}
            for x in w:
                counts[x] = counts.get(x, 0) + 1
            key = tuple(sorted(counts.items()))
            coeff_acc(out, key, coeff_shift(coef, twist))
            continue
        if rng is not None:
            admissible = [
                (i, j)
                for i in range(size)
                for j in range(i + 1, size)
                if pairs[w[i] * mm + w[j]] is None
                and all(pairs[w[k] * mm + w[j]] is not None for k in range(i + 1, j))
            ]
            i, j = admissible[rng.randrange(len(admissible))]
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
    of the corresponding basis arcs.  Both schedules share one crossing
    scan, which also finds the leaves and their twists.  Without rng the
    scan's crossing is resolved; when rng is given and the scan finds a
    crossing, the one resolved is chosen at random among the admissible
    ones (used to check that the rewriting is confluent).
    """
    t = _table(n)
    m = t.m
    word = tuple(a * m + b for a, b in (normalize_chord(n, c) for c in word))
    terms = _reduce(t, word, rng)
    return DiscElement._raw(n, {_unintern(k, m): c for k, c in terms.items()})


def product(x: DiscElement, y: DiscElement) -> DiscElement:
    """Skein product, x drawn over y."""
    x._check(y)
    n = x.n
    t = _table(n)
    m = t.m

    def split(key: MultisetKey):
        """Boundary and internal (id, weight) lists, the word of internal
        ids, and the twist that Weyl-orders the chords."""
        bnd: list[tuple[int, int]] = []
        inner: list[tuple[int, int]] = []
        for c, w in key:
            (bnd if is_boundary_chord(n, c) else inner).append((c[0] * m + c[1], w))
        word = tuple(cid for cid, w in inner for _ in range(w))
        return bnd, inner, word, -_pairing(t, bnd, inner) - _pairing(t, inner)

    ys = [(split(ky), cy) for ky, cy in y._terms.items()]
    out: dict[tuple, dict] = {}
    for kx, cx in x._terms.items():
        bx, ix, wx, twist_x = split(kx)
        for (by, _, wy, twist_y), cy in ys:
            reduced = _reduce(t, wx + wy)
            shift = twist_x + twist_y + 2 * _pairing(t, ix, by) + _pairing(t, bx, by)
            bnd = dict(bx)
            for c, w in by:
                bnd[c] = bnd.get(c, 0) + w
            cxy = coeff_shift(coeff_mul(cx, cy), shift)
            for rkey, rcoef in reduced.items():
                s2 = _pairing(t, bnd.items(), rkey)
                merged = dict(bnd)
                for c, w in rkey:
                    merged[c] = merged.get(c, 0) + w
                key = tuple(sorted((c, w) for c, w in merged.items() if w))
                coeff_acc(out, key, coeff_shift(coeff_mul(cxy, rcoef), s2))
    return DiscElement._raw(n, {_unintern(k, m): c for k, c in out.items()})


# -- crossing numbers ------------------------------------------------------


def crossing_weight(c: Chord, key: MultisetKey) -> int:
    """Number of crossings of the chord c with the basis multiset key."""
    s = 0
    for y, w in key:
        if crosses(c, y):
            s += abs(w)
    return s


def mu_keys(k1: MultisetKey, k2: MultisetKey) -> int:
    """Geometric crossing number of two basis multisets."""
    return sum(abs(w) * crossing_weight(c, k2) for c, w in k1)


def mu(x: DiscElement, y: DiscElement) -> int:
    """max of mu over the supports of x and y."""
    x._check(y)
    if x.is_zero() or y.is_zero():
        return 0
    return max(mu_keys(k1, k2) for k1 in x._terms for k2 in y._terms)


def mu_delta(n: int, delta, x: DiscElement) -> tuple[int, ...]:
    """mu of x against each arc of the triangulation delta.

    Raises ValueError when delta does not triangulate the n-gon or x
    lives on another disc.
    """
    if x.n != n:
        raise ValueError(f"element lives on a disc with {x.n} marked points, not {n}")
    arcs = _triangulation(n, tuple(map(tuple, delta)))[0]
    best = [0] * len(arcs)
    for key in x._terms:
        for i, c in enumerate(arcs):
            s = crossing_weight(c, key)
            if s > best[i]:
                best[i] = s
    return tuple(best)


# -- localization ----------------------------------------------------------


def localize(x: DiscElement, weights: dict) -> DiscElement:
    """Multiply x on the right by a weighted boundary multiset.

    Weights may be negative; only boundary chords are invertible.
    """
    n = x.n
    for c in weights:
        c = normalize_chord(n, c)
        if not is_boundary_chord(n, c):
            raise LocalizationError(f"chord {c} is not a boundary chord")
    key = multiset_key(n, weights, weights.values())
    if not key:
        return x
    return product(x, DiscElement._raw(n, {key: {0: 1}}))


# -- triangulations --------------------------------------------------------


def boundary_chords(n: int) -> list[Chord]:
    return [(i, i + 1) for i in range(1, n)] + [(1, n)]


def enumerate_triangulations(n: int) -> list[tuple[Chord, ...]]:
    """All triangulations of the disc: boundary chords plus n-3 diagonals.

    Each triangulation is returned as a sorted tuple of all 2n-3 arcs,
    and the list is sorted.  The diagonals of the polygon on the points
    i..j come from one cached recursion over such intervals: exactly one
    triangle sits on the side (i, j), with an apex k, i < k < j, and a
    triangulation is that triangle, the chords (i, k) and (k, j) when
    they are not sides, and triangulations of the polygons i..k and k..j.
    So each triangulation is listed once.
    """
    if n < 3:
        raise ValueError("a triangulated disc needs at least 3 marked points")

    @functools.cache
    def diagonals(i: int, j: int) -> list[tuple[Chord, ...]]:
        out = [] if j - i > 1 else [()]
        for k in range(i + 1, j):
            own = tuple(c for c in ((i, k), (k, j)) if c[1] - c[0] > 1)
            out += [left + right + own for left in diagonals(i, k) for right in diagonals(k, j)]
        return out

    base = tuple(boundary_chords(n))
    return sorted(tuple(sorted(base + d)) for d in diagonals(1, n))


# -- Laurent expansion ------------------------------------------------------


def triangulation_form(n: int, delta) -> SkewForm:
    return SkewForm(surface.lambda_matrix(surface.from_chords(n, delta)))


# Every caller works on one triangulation at a time (a loop over
# triangulations, one CLI expansion), so a few slots hold its working set
# and let code alternate between a triangulation and a flip of it without
# rebuilding.  More slots only keep images no later call reads: with 256,
# expanding every chord over the 9-gon's 429 triangulations peaked at
# 28.7 MB RSS against 17.8 MB with 4, at the same speed (CPython 3.11).
@functools.lru_cache(maxsize=4)
def _triangulation(n: int, delta: tuple[tuple, ...]):
    """Normalised arcs, chord -> arc index map, torus form and chord
    images of a triangulation.  The images map each chord that is not an
    arc to its TorusElement, computed on first use.  They live while delta
    is among the few most recently used triangulations; a loop that
    returns to an evicted one rebuilds them."""
    arcs = tuple(normalize_chord(n, c) for c in delta)
    index = {c: i for i, c in enumerate(arcs)}
    form = triangulation_form(n, arcs)

    def image(c: Chord) -> TorusElement:
        """M^(-mu) reduce(M^mu c), with mu the arcs that c crosses; the
        left factor M^(-mu) is a one-term torus product."""
        mu = [int(crosses(a, c)) for a in arcs]
        denom_key = tuple(sorted((a, 1) for a, k in zip(arcs, mu) if k))
        numer = product(DiscElement._raw(n, {denom_key: {0: 1}}), DiscElement._raw(n, {((c, 1),): {0: 1}}))
        terms = {}
        for key, coef in numer._terms.items():
            alpha = [0] * len(arcs)
            for ch, w in key:
                if ch not in index:
                    raise ValueError(
                        f"product is not supported on the triangulation: chord {ch} appears"
                    )
                alpha[index[ch]] = w
            terms[tuple(alpha)] = coef
        inverse = {tuple(-k for k in mu): {0: 1}}
        return TorusElement._raw(form, torus_mul(inverse, terms, form.matrix))

    return arcs, index, form, _Lazy(image)


def expand_laurent(x: DiscElement, delta) -> TorusElement:
    """Image of x in the quantum torus of a triangulation.

    The embedding is an algebra map, so a basis multiset maps to the
    Weyl-ordered product of the images of its chords.  An arc of delta
    (boundary chords included, whose weights may be negative) is the
    monomial M^(e_i); the arcs of a multiset together give M^alpha,
    applied as an exponent add and a v-shift.  Every other chord is
    expanded as M^(-mu) reduce(M^mu c) for the arcs mu it crosses, once
    while delta stays among the few most recently used triangulations (a
    loop that returns to an evicted one expands it again), and the images
    of a multiset's other chords are multiplied in the torus in key order.
    With L = lam_pair, the multiset {a^wa} u {c^wc} of arcs a and other
    chords c maps to

        v^(-sum wa wc L(a, c) - sum_(c < c') wc wc' L(c, c')) M^alpha T_c...,

    T_c the images.  A multiset of arcs alone, the unit included, maps to
    M^alpha with no twist.
    """
    n = x.n
    arcs, index, form, images = _triangulation(n, tuple(map(tuple, delta)))
    t = _table(n)
    m = t.m
    out: dict[tuple, dict] = {}
    for key, c in x._terms.items():
        alpha = [0] * len(arcs)
        arc_ids: list[tuple[int, int]] = []
        other_ids: list[tuple[int, int]] = []
        torus = None
        for ch, w in key:
            i = index.get(ch)
            if i is None:
                other_ids.append((ch[0] * m + ch[1], w))
                for _ in range(w):
                    torus = images[ch] if torus is None else torus * images[ch]
            else:
                alpha[i] = w
                arc_ids.append((ch[0] * m + ch[1], w))
        if torus is None:
            coeff_acc(out, tuple(alpha), c)
            continue
        twist = -_pairing(t, arc_ids, other_ids) - _pairing(t, other_ids)
        # M^alpha M^beta = v^(Lambda(alpha, beta)) M^(alpha + beta), and
        # Lambda(alpha, beta) = -beta . (Lambda alpha).
        lam_alpha = act(form.matrix, alpha)
        for beta, cb in torus._terms.items():
            piece = coeff_shift(coeff_mul(c, cb), twist - sum(map(mul, lam_alpha, beta)))
            coeff_acc(out, tuple(map(add, alpha, beta)), piece)
    return TorusElement._raw(form, out)


def triangulation_seed(n: int, delta):
    """Initial quantum seed of a triangulation (frame = basis monomials)."""
    return surface.to_seed(surface.from_chords(n, delta))
