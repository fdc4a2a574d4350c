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
"""

from __future__ import annotations

import functools
import json
import random
from typing import Iterable, Iterator

from . import surface
from ._kernels import coeff_add, coeff_mul, coeff_neg, coeff_shift
from .qcoeff import QCoeff, parse as parse_coeff, render as render_coeff
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


def _word_of(key: MultisetKey) -> tuple[Chord, ...]:
    """Internal chords of a key, expanded by multiplicity, sorted."""
    out: list[Chord] = []
    for c, w in key:
        out.extend([c] * w)
    return tuple(out)


def _split_key(n: int, key: MultisetKey):
    """Split into (boundary weight dict, internal word tuple)."""
    bnd: dict[Chord, int] = {}
    word: list[Chord] = []
    for c, w in key:
        if is_boundary_chord(n, c):
            bnd[c] = w
        else:
            word.extend([c] * w)
    return bnd, tuple(word)


def _lam_weighted(n: int, a: Iterable[tuple[Chord, int]], b: Iterable[tuple[Chord, int]]) -> int:
    b = list(b)
    return sum(wx * wy * lam_pair(n, x, y) for x, wx in a for y, wy in b)


def _word_twist(n: int, word: tuple[Chord, ...]) -> int:
    """Sum of lam_pair over ordered pairs i < j of the word."""
    s = 0
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            s += lam_pair(n, word[i], word[j])
    return s


# -- elements ------------------------------------------------------------


class DiscElement:
    """A linear combination of basis multisets with QCoeff coefficients."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=None):
        if n < 3:
            raise ValueError("a marked disc needs at least 3 boundary points")
        self.n = n
        self._terms: dict[MultisetKey, dict] = {}
        if terms:
            for key, c in terms.items():
                raw = dict(c.items()) if isinstance(c, QCoeff) else {int(k): int(v) for k, v in c.items()}
                raw = {k: v for k, v in raw.items() if v}
                if raw:
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
    def zero(cls, n: int) -> DiscElement:
        return cls(n)

    @classmethod
    def one(cls, n: int) -> DiscElement:
        return cls._raw(n, {(): {0: 1}})

    @classmethod
    def basis(cls, n: int, chords: Iterable, weights=None) -> DiscElement:
        return cls._raw(n, {multiset_key(n, chords, weights): {0: 1}})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def support(self) -> list[MultisetKey]:
        return sorted(self._terms)

    def coefficient(self, key: MultisetKey) -> QCoeff:
        return QCoeff(self._terms.get(key, {}))

    def terms(self) -> Iterator[tuple[MultisetKey, QCoeff]]:
        for key in sorted(self._terms):
            yield key, QCoeff(self._terms[key])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiscElement)
            and self.n == other.n
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash(
            (self.n, frozenset((k, frozenset(c.items())) for k, c in self._terms.items()))
        )

    # -- linear operations ----------------------------------------------

    def __add__(self, other) -> DiscElement:
        if not isinstance(other, DiscElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("elements live on discs of different sizes")
        out = dict(self._terms)
        for key, c in other._terms.items():
            cur = out.get(key)
            s = coeff_add(cur, c) if cur is not None else dict(c)
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return DiscElement._raw(self.n, out)

    def __neg__(self) -> DiscElement:
        return DiscElement._raw(self.n, {k: coeff_neg(c) for k, c in self._terms.items()})

    def __sub__(self, other) -> DiscElement:
        if not isinstance(other, DiscElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> DiscElement:
        raw = dict(c.items()) if isinstance(c, QCoeff) else {0: int(c)}
        raw = {k: v for k, v in raw.items() if v}
        if not raw:
            return DiscElement.zero(self.n)
        return DiscElement._raw(self.n, {k: coeff_mul(t, raw) for k, t in self._terms.items()})

    def __mul__(self, other) -> DiscElement:
        if isinstance(other, (int, QCoeff)):
            return self.scale(other)
        if isinstance(other, DiscElement):
            return product(self, other)
        return NotImplemented

    def __rmul__(self, other) -> DiscElement:
        if isinstance(other, (int, QCoeff)):
            return self.scale(other)
        return NotImplemented

    def bar(self) -> DiscElement:
        """Bar involution: basis elements are fixed, v maps to v^-1."""
        return DiscElement._raw(
            self.n, {k: {-e: v for e, v in c.items()} for k, c in self._terms.items()}
        )

    def specialize_q1(self) -> dict[MultisetKey, int]:
        out = {}
        for key, c in self._terms.items():
            s = sum(c.values())
            if s:
                out[key] = s
        return out

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
                    "chords": [list(c) for c, _ in key],
                    "weights": [w for _, w in key],
                    "coeff": render_coeff(QCoeff(self._terms[key])),
                }
                for key in sorted(self._terms)
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

    def __repr__(self) -> str:
        if not self._terms:
            return "DiscElement(0)"
        bits = []
        for key in sorted(self._terms):
            c = render_coeff(QCoeff(self._terms[key]))
            mult = "*".join(
                f"x{list(ch)}" + (f"^{w}" if w != 1 else "") for ch, w in key
            ) or "1"
            bits.append(f"({c})*{mult}")
        return "DiscElement(" + " + ".join(bits) + ")"


def multiset_degree(n: int, key: MultisetKey) -> tuple[int, ...]:
    deg = [0] * n
    for (a, b), w in key:
        deg[a - 1] += w
        deg[b - 1] += w
    return tuple(deg)


# -- reduction to the canonical basis -------------------------------------


def reduce_word(n: int, word, rng: random.Random | None = None) -> DiscElement:
    """Canonical form of a product of chords, leftmost chord on top.

    The word lists chords from over to under; the result is the product
    of the corresponding basis arcs.  When rng is given, the crossing
    resolved at each step is chosen at random among the admissible ones
    (used to check that the rewriting is confluent).
    """
    word = tuple(normalize_chord(n, c) for c in word)
    out: dict[MultisetKey, dict] = {}
    stack: list[tuple[tuple[Chord, ...], dict]] = [(word, {0: 1})]
    while stack:
        w, coef = stack.pop()
        pairs = [
            (i, j)
            for i in range(len(w))
            for j in range(i + 1, len(w))
            if crosses(w[i], w[j])
            and all(not crosses(w[m], w[j]) for m in range(i + 1, j))
        ]
        if not pairs:
            key = multiset_key(n, w)
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
        # Commute w[j] left to sit just after w[i]; each swap with a
        # noncrossing entry costs v^(2 L).
        shift = 2 * sum(lam_pair(n, w[m], w[j]) for m in range(i + 1, j))
        prefix = w[:i]
        suffix = w[i + 1 : j] + w[j + 1 :]
        (u1, u2), (t1, t2) = _smooth(n, w[i], w[j])
        base = coeff_shift(coef, shift)
        stack.append((prefix + (u1, u2) + suffix, coeff_shift(base, 2)))
        stack.append((prefix + (t1, t2) + suffix, coeff_shift(base, -2)))
    return DiscElement._raw(n, out)


def product(x: DiscElement, y: DiscElement) -> DiscElement:
    """Skein product, x drawn over y."""
    if x.n != y.n:
        raise ValueError("elements live on discs of different sizes")
    n = x.n
    out: dict[MultisetKey, dict] = {}
    memo: dict[tuple[Chord, ...], DiscElement] = {}
    for kx, cx in x._terms.items():
        bx, wx = _split_key(n, kx)
        twist_x = -_lam_weighted(n, bx.items(), ((c, 1) for c in wx)) - _word_twist(n, wx)
        for ky, cy in y._terms.items():
            by, wy = _split_key(n, ky)
            word = wx + wy
            reduced = memo.get(word)
            if reduced is None:
                reduced = reduce_word(n, word)
                memo[word] = reduced
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
                merged: dict[Chord, int] = dict(bnd)
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
    arcs = [normalize_chord(n, c) for c in delta]
    if x.is_zero():
        return (0,) * len(arcs)
    return tuple(max(mu_keys(((c, 1),), key) for key in x._terms) for c in arcs)


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
def _triangulation(n: int, arcs: tuple[Chord, ...]) -> tuple[dict[Chord, int], SkewForm]:
    """Chord -> arc index map and torus form of a triangulation, built once."""
    return {c: i for i, c in enumerate(arcs)}, triangulation_form(n, arcs)


def expand_laurent(x: DiscElement, delta) -> TorusElement:
    """Image of x in the quantum torus of a triangulation.

    Clears denominators with the monomial of mu_delta(x), reduces, and
    divides back inside the torus.
    """
    n = x.n
    arcs = tuple(normalize_chord(n, c) for c in delta)
    index, form = _triangulation(n, arcs)
    if x.is_zero():
        return TorusElement.zero(form)
    m = mu_delta(n, arcs, x)
    denom_key = tuple(sorted((c, k) for c, k in zip(arcs, m) if k))
    denom = DiscElement._raw(n, {denom_key: {0: 1}})
    numer = product(denom, x)
    terms = {}
    for key, c in numer._terms.items():
        alpha = [0] * len(arcs)
        for ch, w in key:
            if ch not in index:
                raise ValueError(
                    f"product is not supported on the triangulation: chord {ch} appears"
                )
            alpha[index[ch]] = w
        terms[tuple(alpha)] = c
    shiftmono = TorusElement.monomial(form, tuple(-k for k in m))
    return shiftmono * TorusElement._raw(form, terms)


def triangulation_seed(n: int, delta):
    """Initial quantum seed of a triangulation (frame = basis monomials)."""
    return surface.to_seed(surface.from_chords(n, delta))
