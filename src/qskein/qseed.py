"""Quantum seeds, mutation, freezing, and upper-membership tests.

A seed consists of an N x ex integer exchange matrix B, a skew integer
matrix Lambda recording how the frame variables quasi-commute
(X_i X_j = q^(Lambda_ij) X_j X_i), and the frame itself: N elements of a
fixed ambient quantum torus T_0.  The initial seed's frame is the basis
monomials of T_0, so its Lambda equals the ambient form.  Mutation stays
inside T_0: every new cluster variable is stored by its Laurent
expansion in the initial torus.  Mutation reads the new Lambda from the
closed formula E^T Lambda E, not from torus products, so it trusts
Lambda: ``from_json`` checks it against the frame, and
``quasi_commutation_exponent`` remains the product-based oracle.
``upper_membership`` divides by the X'_i that ``mutate`` builds, so the
exchange relation has one implementation; a seed keeps them in a private
memo, built for every exchangeable index on the first membership test
and reused after that.  The memo is not part of the seed's identity:
``==``, ``hash``, ``fingerprint`` and ``to_json`` ignore it.
"""

from __future__ import annotations

import itertools
import json
from collections import deque

from .qcoeff import DivisionFailure, QCoeff
from .qtorus import SkewForm, TorusElement


class CompatibilityError(ValueError):
    """Raised when Lambda, B and the frame disagree; carries the first bad entry.

    That is Lambda B = D iota failing, or frame variables that do not
    quasi-commute as Lambda says.
    """

    def __init__(self, message, entry=None):
        self.entry = entry
        super().__init__(message)


def _as_int_matrix(rows, cols=None) -> tuple[tuple[int, ...], ...]:
    out = tuple(tuple(int(v) for v in row) for row in rows)
    if cols is not None:
        for row in out:
            if len(row) != cols:
                raise ValueError(f"expected rows of length {cols}, got {len(row)}")
    return out


class QuantumSeed:
    """Immutable quantum seed; mutation and freezing return new seeds."""

    __slots__ = ("ambient", "lam", "b", "ex", "frame", "_xprime")

    def __init__(self, ambient: SkewForm, lam: SkewForm, b, ex, frame):
        n = ambient.rank
        if lam.rank != n:
            raise ValueError("lambda matrix rank differs from ambient torus rank")
        ex = tuple(int(i) for i in ex)
        if sorted(set(ex)) != list(ex):
            raise ValueError("exchangeable indices must be sorted and distinct")
        if ex and not (0 <= ex[0] and ex[-1] < n):
            raise ValueError("exchangeable index out of range")
        b = _as_int_matrix(b, cols=len(ex))
        if len(b) != n:
            raise ValueError(f"exchange matrix needs {n} rows, got {len(b)}")
        for r, i in enumerate(ex):
            for c, j in enumerate(ex):
                if b[i][c] != -b[j][r]:
                    raise ValueError(
                        f"exchangeable part of B is not skew at ({i},{j})"
                    )
        frame = tuple(frame)
        if len(frame) != n:
            raise ValueError(f"frame needs {n} variables, got {len(frame)}")
        for f in frame:
            if not isinstance(f, TorusElement) or f.form != ambient:
                raise ValueError("frame variables must live in the ambient torus")
            if f.is_zero():
                raise ValueError("frame variables must be nonzero")
        self.ambient = ambient
        self.lam = lam
        self.b = b
        self.ex = ex
        self.frame = frame
        self._xprime: dict[int, TorusElement] | None = None

    @classmethod
    def initial(cls, lam: SkewForm, b, ex) -> QuantumSeed:
        frame = tuple(
            TorusElement.monomial(lam, tuple(1 if k == j else 0 for k in range(lam.rank)))
            for j in range(lam.rank)
        )
        return cls(lam, lam, b, ex, frame)

    @property
    def n(self) -> int:
        return self.ambient.rank

    def is_initial(self) -> bool:
        if self.lam != self.ambient:
            return False
        for j, f in enumerate(self.frame):
            mono = TorusElement.monomial(
                self.ambient, tuple(1 if k == j else 0 for k in range(self.n))
            )
            if f != mono:
                return False
        return True

    def pi_b(self) -> list[list[int]]:
        """The exchangeable square part of B."""
        return [[self.b[i][c] for c in range(len(self.ex))] for i in self.ex]

    def check_compatibility(self) -> dict[int, int]:
        """Verify Lambda B = D iota; return {exchangeable index: D entry}."""
        d = {}
        for c, j in enumerate(self.ex):
            for k in range(self.n):
                entry = sum(self.lam.matrix[k][l] * self.b[l][c] for l in range(self.n))
                if k == j:
                    if entry <= 0:
                        raise CompatibilityError(
                            f"(Lambda B)[{k}][{c}] = {entry} is not positive",
                            entry=(k, c),
                        )
                    d[j] = entry
                elif entry != 0:
                    raise CompatibilityError(
                        f"(Lambda B)[{k}][{c}] = {entry}, expected 0",
                        entry=(k, c),
                    )
        return d

    # -- monomials in the frame -------------------------------------------

    def frame_monomial(self, gamma) -> TorusElement:
        """Normalized monomial M(gamma) for gamma >= 0 componentwise."""
        gamma = tuple(int(g) for g in gamma)
        if len(gamma) != self.n:
            raise ValueError("exponent vector has wrong length")
        if any(g < 0 for g in gamma):
            raise ValueError("frame_monomial needs nonnegative exponents")
        twist = 0
        for k in range(self.n):
            for l in range(k + 1, self.n):
                twist += self.lam.matrix[k][l] * gamma[k] * gamma[l]
        out = TorusElement.monomial(self.ambient, (0,) * self.n, QCoeff.v(-twist))
        for k in range(self.n):
            if gamma[k]:
                out = out * self.frame[k] ** gamma[k]
        return out

    # -- mutation -----------------------------------------------------------

    def mutate(self, i: int) -> QuantumSeed:
        if i not in self.ex:
            raise ValueError(f"index {i} is not exchangeable")
        col = self.ex.index(i)
        bcol = [self.b[k][col] for k in range(self.n)]
        p = tuple(max(v, 0) for v in bcol)
        m = tuple(max(-v, 0) for v in bcol)
        # Lambda' = E^T Lambda E (Berenstein-Zelevinsky): X'_i quasi-commutes
        # with X_j as Lambda(m - e_i, e_j), provided (Lambda B)[j][col] = 0.
        m_ei = tuple(v - (k == i) for k, v in enumerate(m))
        newlam = [list(row) for row in self.lam.matrix]
        for j in range(self.n):
            if j == i:
                continue
            if entry := self.lam.row_pairing(j, bcol):
                raise CompatibilityError(
                    f"(Lambda B)[{j}][{col}] = {entry}, expected 0", entry=(j, col)
                )
            newlam[j][i] = self.lam.row_pairing(j, m_ei)
            newlam[i][j] = -newlam[j][i]
        numer = self.frame_monomial(p).shift(self.lam.row_pairing(i, p))
        numer = numer + self.frame_monomial(m).shift(self.lam.row_pairing(i, m))
        xprime = numer.exact_divide_left(self.frame[i])
        frame = self.frame[:i] + (xprime,) + self.frame[i + 1 :]
        newb = _mutate_columns(self.b, i, col)
        return QuantumSeed(self.ambient, SkewForm(newlam), newb, self.ex, frame)

    def xprime(self, i: int) -> TorusElement:
        """X'_i, the variable mutate(i) puts at index i.

        The first call builds X'_j for every exchangeable j, so an
        incompatible seed always raises, and keeps them on the seed.
        """
        if self._xprime is None:
            self._xprime = {j: self.mutate(j).frame[j] for j in self.ex}
        if i not in self._xprime:
            raise ValueError(f"index {i} is not exchangeable")
        return self._xprime[i]

    def freeze(self, drop) -> QuantumSeed:
        drop = set(drop)
        if not drop <= set(self.ex):
            raise ValueError(f"cannot freeze non-exchangeable indices {sorted(drop - set(self.ex))}")
        keep = [c for c, j in enumerate(self.ex) if j not in drop]
        ex = tuple(self.ex[c] for c in keep)
        b = [[row[c] for c in keep] for row in self.b]
        return QuantumSeed(self.ambient, self.lam, b, ex, self.frame)

    # -- identity ------------------------------------------------------------

    def fingerprint(self):
        return (
            self.ambient,
            self.lam,
            self.b,
            self.ex,
            tuple(f.fingerprint() for f in self.frame),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, QuantumSeed) and self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "ex": list(self.ex),
            "B": [list(row) for row in self.b],
            "lambda": [list(row) for row in self.lam.matrix],
            "frame": {str(k): f.to_json() for k, f in enumerate(self.frame)},
        }

    @classmethod
    def from_json(cls, data) -> QuantumSeed:
        if isinstance(data, str):
            data = json.loads(data)
        lam = SkewForm(data["lambda"])
        frame_map = data["frame"]
        n = lam.rank
        if sorted(int(k) for k in frame_map) != list(range(n)):
            raise ValueError("frame must assign every index exactly once")
        frame = [TorusElement.from_json(frame_map[str(k)]) for k in range(n)]
        ambient = frame[0].form
        seed = cls(ambient, lam, data["B"], data["ex"], frame)
        # mutate trusts lambda, so outside input must agree with its frame.
        for i in range(n):
            for j in range(i + 1, n):
                c = quasi_commutation_exponent(frame[i], frame[j])
                if c != lam.matrix[i][j]:
                    raise CompatibilityError(
                        f"frame variables {i} and {j} quasi-commute with exponent {c}, "
                        f"but lambda[{i}][{j}] = {lam.matrix[i][j]}",
                        entry=(i, j),
                    )
        return seed

    def __repr__(self) -> str:
        return f"QuantumSeed(n={self.n}, ex={self.ex})"


def quasi_commutation_exponent(x: TorusElement, y: TorusElement) -> int:
    """The integer c with x y = q^c y x, or CompatibilityError."""
    p = x * y
    r = y * x
    if p.is_zero() and r.is_zero():
        return 0
    if p.is_zero() or r.is_zero():
        raise CompatibilityError("one-sided zero product cannot quasi-commute")
    alpha = max(p.support())
    cp = p.coefficient(alpha)
    cr = r.coefficient(alpha)
    if cr.is_zero():
        raise CompatibilityError("products have different support")
    s = cp.min_v() - cr.min_v()
    if s % 2 != 0 or p != r.shift(s):
        raise CompatibilityError(f"elements do not quasi-commute (shift {s})")
    return s // 2


def upper_membership(x: TorusElement, seed: QuantumSeed) -> bool:
    """Test x against the initial torus and its N one-step mutations.

    For each exchangeable i, collect x on index i; each layer with a
    negative exponent -m must be left-divisible by the m-th power of the
    mutated variable X'_i, read from seed.xprime(i), which builds every
    X'_i on first use and keeps them on the seed.
    """
    if x.form != seed.ambient:
        raise ValueError("element does not live in the seed's ambient torus")
    if not seed.is_initial():
        raise ValueError("membership is tested against the initial seed")
    if x.is_zero():
        return True
    n = seed.n
    for i in seed.ex:
        xprime = seed.xprime(i)
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


def seeds_equal(s1: QuantumSeed, s2: QuantumSeed) -> bool:
    """Equality up to a simultaneous permutation of indices.

    Frames must agree as multisets of torus elements; the permutation
    matching them must also carry (B, Lambda, ex) of one seed to the
    other.
    """
    if s1.ambient != s2.ambient or s1.n != s2.n or len(s1.ex) != len(s2.ex):
        return False
    n = s1.n
    f2_index: dict = {}
    for j, f in enumerate(s2.frame):
        f2_index.setdefault(f.fingerprint(), []).append(j)
    buckets = []
    for f in s1.frame:
        js = f2_index.get(f.fingerprint())
        if not js:
            return False
        buckets.append(js)

    def check(perm) -> bool:
        if sorted(perm[i] for i in s1.ex) != sorted(s2.ex):
            return False
        for i in range(n):
            for j in range(n):
                if s1.lam.matrix[i][j] != s2.lam.matrix[perm[i]][perm[j]]:
                    return False
        cols2 = {j: c for c, j in enumerate(s2.ex)}
        for c, j in enumerate(s1.ex):
            for k in range(n):
                if s1.b[k][c] != s2.b[perm[k]][cols2[perm[j]]]:
                    return False
        return True

    for choice in itertools.product(*buckets):
        if len(set(choice)) != n:
            continue
        if check(choice):
            return True
    return False


def enumerate_seeds(seed: QuantumSeed, max_seeds: int = 64, max_depth: int = 16):
    """BFS over the mutation pattern.

    Returns (seeds, truncated): at most max_seeds seeds, and truncated is
    True when a cap stopped the search (reaching max_seeds counts as
    stopping), so infinite exchange types never loop.  Each
    queued seed carries the index that produced it: mutation is an
    involution, so mutating there again would only rebuild its parent.
    """
    def key(s: QuantumSeed):
        return frozenset(f.fingerprint() for f in s.frame)

    seen = {key(seed): seed}
    out = [seed]
    if max_seeds <= 1:
        return out, bool(seed.ex)
    queue = deque([(seed, 0, None)])
    truncated = False
    while queue:
        s, depth, back = queue.popleft()
        if depth >= max_depth:
            truncated = True
            continue
        for i in s.ex:
            if i == back:
                continue
            t = s.mutate(i)
            k = key(t)
            if k in seen:
                continue
            seen[k] = t
            out.append(t)
            if len(out) >= max_seeds:
                return out, True
            queue.append((t, depth + 1, i))
    return out, truncated


# -- exchange-type matrix utilities ---------------------------------------


def matrix_mutate(a, i: int) -> list[list[int]]:
    a = SkewForm(a).matrix
    n = len(a)
    if not 0 <= i < n:
        raise ValueError(f"index {i} out of range")
    return _mutate_columns(a, i, i)


def _mutate_columns(b, i: int, col: int) -> list[list[int]]:
    """Matrix mutation at index i of rows b, whose column col belongs to i.

    Row i and column col change sign; every other entry b[k][c] gains
    (|b[k][col]| b[i][c] + b[k][col] |b[i][c]|) / 2.
    """
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


def sinks(a) -> list[int]:
    """Indices whose column is nonnegative (no incoming arrows)."""
    a = SkewForm(a).matrix
    return [i for i in range(len(a)) if all(row[i] >= 0 for row in a)]


def sources(a) -> list[int]:
    """Indices whose column is nonpositive (no outgoing arrows)."""
    a = SkewForm(a).matrix
    return [i for i in range(len(a)) if all(row[i] <= 0 for row in a)]


def is_acyclic(a) -> bool:
    """No index cycle i_1, ..., i_n = i_1 with A[i_(j+1)][i_j] > 0."""
    a = SkewForm(a).matrix
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


def banff_step(a):
    """First (i, j) with A[i][j] != 0 and i a sink or source, else None."""
    a = SkewForm(a).matrix
    n = len(a)
    good = set(sinks(a)) | set(sources(a))
    for i in range(n):
        if i not in good:
            continue
        for j in range(n):
            if a[i][j] != 0:
                return (i, j)
    return None
