"""Quantum seeds, mutation, freezing, and upper-membership tests.

A seed consists of an N x ex integer exchange matrix B, a skew integer
matrix Lambda recording how the frame variables quasi-commute
(X_i X_j = q^(Lambda_ij) X_j X_i), and the frame itself: N elements of a
fixed ambient quantum torus T_0.  The initial seed's frame is the basis
monomials of T_0, so its Lambda equals the ambient form.  Mutation stays
inside T_0: every new cluster variable is stored by its Laurent
expansion in the initial torus.  Mutation reads the new Lambda from the
closed formula E^T Lambda E, not from torus products, so it trusts
Lambda: ``check_frame``, which ``from_json`` runs, checks it against
the frame with ``quasi_commutation_exponent``, the product-based oracle.  The
columns of Lambda B, in the compatibility check and in mutation, and the
new row of Lambda are all read from ``_kernels.act``, unchecked: the seed
builds those vectors from its own checked B.
``upper_membership`` divides by the X'_i that ``mutate`` builds, so the
exchange relation has one implementation; a seed keeps them in a private
memo, built for every exchangeable index on the first membership test
and reused after that.  The memo is not part of the seed's identity, its
fields with frames compared as elements: ``==``, ``hash`` and ``to_json``
ignore it.
"""

from __future__ import annotations

import operator
from collections import deque
from functools import reduce
from itertools import combinations

from . import payload
from ._kernels import act
from .qcoeff import DivisionFailure
from .qtorus import SkewForm, TorusElement


class CompatibilityError(ValueError):
    """Raised when Lambda, B and the frame disagree; carries the first bad entry.

    That is Lambda B = D iota failing, or frame variables that do not
    quasi-commute as Lambda says.
    """

    def __init__(self, message, entry=None):
        self.entry = entry
        super().__init__(message)


def _expected_zero(k: int, c: int, entry: int) -> CompatibilityError:
    return CompatibilityError(f"(Lambda B)[{k}][{c}] = {entry}, expected 0", entry=(k, c))


def _as_int_matrix(rows, cols=None) -> tuple[tuple[int, ...], ...]:
    out = tuple(tuple(map(operator.index, row)) for row in rows)
    if cols is not None:
        for row in out:
            if len(row) != cols:
                raise ValueError(f"expected rows of length {cols}, got {len(row)}")
    return out


def _unit_frame(form: SkewForm) -> tuple[TorusElement, ...]:
    """The basis monomials M^(e_j) of the torus of form: the initial frame."""
    n = form.rank
    return tuple(
        TorusElement._raw(form, {(0,) * j + (1,) + (0,) * (n - j - 1): {0: 1}}) for j in range(n)
    )


class QuantumSeed:
    """Immutable quantum seed; mutation and freezing return new seeds."""

    __slots__ = ("ambient", "lam", "b", "ex", "frame", "_xprime")

    def __init__(self, ambient: SkewForm, lam: SkewForm, b, ex, frame):
        n = ambient.rank
        if lam.rank != n:
            raise ValueError("lambda matrix rank differs from ambient torus rank")
        ex = tuple(map(operator.index, ex))
        if sorted(set(ex)) != list(ex):
            raise ValueError("exchangeable indices must be sorted and distinct")
        if ex and not (0 <= ex[0] and ex[-1] < n):
            raise ValueError("exchangeable index out of range")
        b = _as_int_matrix(b, cols=len(ex))
        if len(b) != n:
            raise ValueError(f"exchange matrix needs {n} rows, got {len(b)}")
        for r, i in enumerate(ex):
            for c, j in enumerate(ex[r:], r):
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
        self._xprime: dict[int, list[TorusElement]] | None = None

    @classmethod
    def initial(cls, lam: SkewForm, b, ex) -> QuantumSeed:
        return cls(lam, lam, b, ex, _unit_frame(lam))

    @property
    def n(self) -> int:
        return self.ambient.rank

    def is_initial(self) -> bool:
        return self.lam == self.ambient and self.frame == _unit_frame(self.ambient)

    def pi_b(self) -> list[list[int]]:
        """The exchangeable square part of B."""
        return [[self.b[i][c] for c in range(len(self.ex))] for i in self.ex]

    def check_compatibility(self) -> dict[int, int]:
        """Verify Lambda B = D iota; return {exchangeable index: D entry}."""
        d = {}
        for c, j in enumerate(self.ex):
            for k, entry in enumerate(act(self.lam.matrix, [row[c] for row in self.b])):
                if k == j:
                    if entry <= 0:
                        raise CompatibilityError(
                            f"(Lambda B)[{k}][{c}] = {entry} is not positive",
                            entry=(k, c),
                        )
                    d[j] = entry
                elif entry != 0:
                    raise _expected_zero(k, c, entry)
        return d

    def check_frame(self, rows) -> None:
        """Raise CompatibilityError unless frame variables i < j quasi-commute
        with exponent Lambda[i][j], for every pair that meets rows."""
        rows = set(map(operator.index, rows))
        for i, j in combinations(range(self.n), 2):
            if i in rows or j in rows:
                c = quasi_commutation_exponent(self.frame[i], self.frame[j])
                if c != self.lam.matrix[i][j]:
                    raise CompatibilityError(
                        f"frame variables {i} and {j} quasi-commute with exponent {c}, "
                        f"but lambda[{i}][{j}] = {self.lam.matrix[i][j]}",
                        entry=(i, j),
                    )

    # -- monomials in the frame -------------------------------------------

    def frame_monomial(self, gamma) -> TorusElement:
        """Normalized monomial M(gamma) for gamma >= 0 componentwise."""
        gamma = tuple(map(operator.index, gamma))
        if len(gamma) != self.n:
            raise ValueError("exponent vector has wrong length")
        if any(g < 0 for g in gamma):
            raise ValueError("frame_monomial needs nonnegative exponents")
        support = [(k, g) for k, g in enumerate(gamma) if g]
        if not support:
            return TorusElement._raw(self.ambient, {gamma: {0: 1}})
        lam = self.lam.matrix
        twist = sum(lam[k][l] * gk * gl for (k, gk), (l, gl) in combinations(support, 2))
        out = reduce(operator.mul, (self.frame[k] ** g for k, g in support))
        return out.shift(-twist)

    # -- mutation -----------------------------------------------------------

    def mutate(self, i: int) -> QuantumSeed:
        i = operator.index(i)
        if i not in self.ex:
            raise ValueError(f"index {i} is not exchangeable")
        col = self.ex.index(i)
        bcol = [row[col] for row in self.b]
        lam_b = act(self.lam.matrix, bcol)
        for j, entry in enumerate(lam_b):
            if entry and j != i:
                raise _expected_zero(j, col, entry)
        p = tuple(max(v, 0) for v in bcol)
        m = tuple(max(-v, 0) for v in bcol)
        # Lambda' = E^T Lambda E (Berenstein-Zelevinsky): X'_i quasi-commutes
        # with X_j as Lambda(m - e_i, e_j), since (Lambda B)[j][col] = 0.
        lam_m_ei = act(self.lam.matrix, (v - (k == i) for k, v in enumerate(m)))
        newlam = [list(row) for row in self.lam.matrix]
        for j in range(self.n):
            if j != i:
                newlam[j][i] = lam_m_ei[j]
                newlam[i][j] = -lam_m_ei[j]
        # Entry i of Lambda m equals that of Lambda(m - e_i), and p = m + bcol.
        numer = self.frame_monomial(p).shift(lam_m_ei[i] + lam_b[i])
        numer = numer + self.frame_monomial(m).shift(lam_m_ei[i])
        xprime = numer.exact_divide_left(self.frame[i])
        frame = self.frame[:i] + (xprime,) + self.frame[i + 1 :]
        newb = _mutate_columns(self.b, i, col)
        return QuantumSeed(self.ambient, SkewForm(newlam), newb, self.ex, frame)

    def xprime(self, i: int) -> TorusElement:
        """X'_i, the variable mutate(i) puts at index i."""
        return self.xprime_power(i, 1)

    def xprime_power(self, i: int, m: int) -> TorusElement:
        """X'_i^m for m >= 1.

        A non-exchangeable i raises first.  The first other call builds
        X'_j for every exchangeable j, so an incompatible seed always
        raises.  Each power, once built, is kept on the seed with all the
        lower ones.
        """
        i, m = operator.index(i), operator.index(m)
        if m < 1:
            raise ValueError(f"power {m} of X'_{i} is not positive")
        if i not in self.ex:
            raise ValueError(f"index {i} is not exchangeable")
        if self._xprime is None:
            self._xprime = {j: [self.mutate(j).frame[j]] for j in self.ex}
        powers = self._xprime[i]
        while len(powers) < m:
            powers.append(powers[-1] * powers[0])
        return powers[m - 1]

    def freeze(self, drop) -> QuantumSeed:
        drop = set(map(operator.index, drop))
        if not drop <= set(self.ex):
            raise ValueError(f"cannot freeze non-exchangeable indices {sorted(drop - set(self.ex))}")
        keep = [c for c, j in enumerate(self.ex) if j not in drop]
        ex = tuple(self.ex[c] for c in keep)
        b = [[row[c] for c in keep] for row in self.b]
        return QuantumSeed(self.ambient, self.lam, b, ex, self.frame)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, QuantumSeed) and (
            self.ambient, self.lam, self.b, self.ex, self.frame
        ) == (other.ambient, other.lam, other.b, other.ex, other.frame)

    def __hash__(self) -> int:
        return hash((self.ambient, self.lam, self.b, self.ex, self.frame))

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
        """Decode a parsed ``to_json`` object."""
        lam = SkewForm(payload.int_matrix(*payload.field(data, "lambda")))
        n = lam.rank
        if not n:
            raise payload.PayloadError("lambda", "a seed needs at least one variable")
        fmap, fpath = payload.field(data, "frame")
        frame = [TorusElement.from_json(*payload.field(fmap, str(k), fpath)) for k in range(n)]
        if len(fmap) != n:
            raise payload.PayloadError(fpath, f"expected exactly the fields 0..{n - 1}")
        ex = payload.int_list(*payload.field(data, "ex"))
        b = payload.int_matrix(*payload.field(data, "B"), n, len(ex))
        seed = cls(frame[0].form, lam, b, ex, frame)
        # mutate trusts lambda, so outside input must agree with its frame.
        seed.check_frame(range(n))
        return seed

    def __repr__(self) -> str:
        return f"QuantumSeed(n={self.n}, ex={self.ex})"


def quasi_commutation_exponent(x: TorusElement, y: TorusElement) -> int:
    """The integer c with x y = q^c y x, or CompatibilityError.  Only the
    shift can fail: the torus is a domain, so x y and y x are zero together
    and both lead at lexmax(x) + lexmax(y) with a nonzero coefficient."""
    p = x * y
    r = y * x
    if p.is_zero():
        return 0
    alpha = max(p._terms)
    s = min(p._terms[alpha]) - min(r._terms[alpha])
    if p != r.shift(s):
        raise CompatibilityError(f"elements do not quasi-commute (shift {s})")
    return s // 2


def upper_membership(x: TorusElement, seed: QuantumSeed) -> bool:
    """Test x against the initial torus and its N one-step mutations.

    For each exchangeable i and m > 0, the layer of x at -m (its terms
    whose exponent at i is -m) must be left-divisible by the m-th power
    of the mutated variable X'_i, read from seed.xprime_power(i, m), which
    builds every X'_i on first use and keeps each power on the seed.
    """
    if x.form != seed.ambient:
        raise ValueError("element does not live in the seed's ambient torus")
    if not seed.is_initial():
        raise ValueError("membership is tested against the initial seed")
    if x.is_zero():
        return True
    for i in seed.ex:
        seed.xprime(i)  # an incompatible seed raises, negative layer or not
        layers: dict[int, dict] = {}
        for alpha, c in x._terms.items():
            if alpha[i] < 0:
                layers.setdefault(alpha[i], {})[alpha] = c
        for k, terms in layers.items():
            try:
                x._like(terms).exact_divide_left(seed.xprime_power(i, -k))
            except DivisionFailure:
                return False
    return True


def enumerate_seeds(seed: QuantumSeed, max_seeds: int = 64, max_depth: int = 16):
    """BFS over the mutation pattern.

    Returns (seeds, truncated): at most max_seeds seeds, and truncated is
    True when a cap stopped the search while a seed still had an index
    other than the one it came from to try, so infinite exchange types
    never loop.  Each queued seed carries the index that produced it:
    mutation is an involution, so mutating there again would only
    rebuild its parent.
    Raises ValueError when max_seeds < 1 or max_depth < 0.
    """
    max_seeds, max_depth = operator.index(max_seeds), operator.index(max_depth)
    if max_seeds < 1:
        raise ValueError(f"max_seeds must be at least 1, got {max_seeds}")
    if max_depth < 0:
        raise ValueError(f"max_depth must be nonnegative, got {max_depth}")

    seen = {frozenset(seed.frame)}
    out = [seed]
    queue = deque([(seed, 0, None)])
    while queue:
        s, depth, back = queue.popleft()
        for i in s.ex:
            if i == back:
                continue
            if depth >= max_depth or len(out) >= max_seeds:
                return out, True
            t = s.mutate(i)
            k = frozenset(t.frame)
            if k in seen:
                continue
            seen.add(k)
            out.append(t)
            queue.append((t, depth + 1, i))
    return out, False


# -- exchange-type matrix utilities ---------------------------------------


def matrix_mutate(a, i: int) -> list[list[int]]:
    a = SkewForm(a).matrix
    n = len(a)
    if not 0 <= i < n:
        raise ValueError(f"index {i} out of range")
    return _mutate_columns(a, i, i)


def _mutate_columns(b, i: int, col: int) -> list[list[int]]:
    """Matrix mutation at index i of rows b, whose column col belongs to i.

    Row i and column col change sign; b[k][c] gains |x| y when x = b[k][col]
    and y = b[i][c] share a sign, so only rows meeting col change elsewhere.
    """
    out = [list(row) for row in b]
    out[i] = [-y for y in b[i]]
    row_i = [(c, y) for c, y in enumerate(b[i]) if y and c != col]
    for k, row in enumerate(out):
        x = row[col]
        if k == i or not x:
            continue
        row[col] = -x
        for c, y in row_i:
            if (x > 0) == (y > 0):
                row[c] += abs(x) * y
    return out


# Row i of a skew matrix is minus its column i, so each rule below reads rows.
def sinks(a) -> list[int]:
    """Indices whose column is nonnegative (no incoming arrows)."""
    return [i for i, row in enumerate(SkewForm(a).matrix) if max(row) <= 0]


def sources(a) -> list[int]:
    """Indices whose column is nonpositive (no outgoing arrows)."""
    return [i for i, row in enumerate(SkewForm(a).matrix) if min(row) >= 0]


def is_acyclic(a) -> bool:
    """No index cycle i_1, ..., i_n = i_1 with A[i_(j+1)][i_j] > 0: taking
    away sinks with their arrows, one at a time, takes away every index."""
    a = SkewForm(a).matrix
    incoming = [sum(x > 0 for x in row) for row in a]
    stack = [u for u, k in enumerate(incoming) if not k]
    taken = 0
    while stack:
        u = stack.pop()
        taken += 1
        for w, x in enumerate(a[u]):
            if x < 0:
                incoming[w] -= 1
                if not incoming[w]:
                    stack.append(w)
    return taken == len(a)


def banff_step(a):
    """First (i, j) with A[i][j] != 0 and i a sink or source, else None."""
    for i, row in enumerate(SkewForm(a).matrix):
        if max(row) <= 0 or min(row) >= 0:
            for j, x in enumerate(row):
                if x:
                    return (i, j)
    return None
