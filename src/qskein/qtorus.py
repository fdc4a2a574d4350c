"""Based quantum tori.

A torus T_L over Z[v, v^-1] has basis monomials M^a indexed by a in Z^N,
with M^a * M^b = v^(L(a,b)) M^(a+b) for a skew-symmetric integer form L.
(In q-units the twist is q^(L(a,b)/2); v-exponents stay integral.)

An element is a ``qcoeff.LinearCombination`` of monomials M[a] in its
form's torus; this module adds the twisted product, collection on an
index, left division and JSON.
"""

from __future__ import annotations

import json

from ._kernels import coeff_shift, torus_mul
from .qcoeff import DivisionFailure, LinearCombination, QCoeff, raw_coeff, square_and_multiply
from .qcoeff import parse as parse_coeff


class SkewForm:
    """A skew-symmetric integer matrix giving the commutation form."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        rows = tuple(tuple(int(x) for x in row) for row in matrix)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("form matrix must be square")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError(f"form matrix not skew-symmetric at ({i},{j})")
        self.matrix = rows

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def pairing(self, alpha, beta) -> int:
        return sum(
            ai * sum(r * bj for r, bj in zip(row, beta))
            for ai, row in zip(alpha, self.matrix)
            if ai
        )

    def row_pairing(self, i: int, beta) -> int:
        """L(e_i, beta)."""
        return sum(r * bj for r, bj in zip(self.matrix[i], beta))

    def __eq__(self, other) -> bool:
        return isinstance(other, SkewForm) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"SkewForm({[list(r) for r in self.matrix]})"


class TorusElement(LinearCombination):
    """An element of the quantum torus attached to a SkewForm."""

    __slots__ = ("form",)

    _mismatch = "elements live in different tori"

    def __init__(self, form: SkewForm, terms=None):
        self.form = form
        self._terms = {}
        if terms:
            n = form.rank
            for alpha, c in terms.items():
                key = tuple(int(x) for x in alpha)
                if len(key) != n:
                    raise ValueError(f"exponent {key} has wrong length for rank {n}")
                if raw := raw_coeff(c):
                    self._terms[key] = raw

    # -- constructors ---------------------------------------------------

    @classmethod
    def monomial(cls, form: SkewForm, alpha, coeff=1) -> TorusElement:
        if isinstance(coeff, int):
            coeff = QCoeff.from_int(coeff)
        return cls(form, {tuple(alpha): coeff})

    @classmethod
    def _raw(cls, form: SkewForm, terms: dict) -> TorusElement:
        out = cls.__new__(cls)
        out.form = form
        out._terms = terms
        return out

    def _space(self) -> SkewForm:
        return self.form

    @staticmethod
    def _key_text(alpha) -> str:
        return f"M{list(alpha)}"

    # -- structure ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._terms)

    def fingerprint(self) -> tuple:
        """A hashable canonical form (terms only, without the form matrix)."""
        return tuple(
            (alpha, tuple(sorted(self._terms[alpha].items()))) for alpha in sorted(self._terms)
        )

    # -- ring operations --------------------------------------------------

    def __mul__(self, other) -> TorusElement:
        if isinstance(other, (int, QCoeff)):
            return self.scale(other)
        if not isinstance(other, TorusElement):
            return NotImplemented
        self._check(other)
        prod = torus_mul(self._terms, other._terms, self.form.matrix)
        return TorusElement._raw(self.form, prod)

    def __pow__(self, n: int) -> TorusElement:
        if n < 0:
            raise ValueError("use monomial inverses or exact division for negative powers")
        return square_and_multiply(TorusElement.monomial(self.form, (0,) * self.form.rank), self, n)

    def shift(self, k: int) -> TorusElement:
        """Multiply every coefficient by v^k."""
        if not k:
            return self
        return TorusElement._raw(
            self.form, {a: coeff_shift(c, k) for a, c in self._terms.items()}
        )

    # -- collection and division -----------------------------------------

    def collect_on_index(self, i: int) -> dict[int, TorusElement]:
        """Write self = sum_k M^(k e_i) * y_k with y_k free of index i.

        Returns {k: y_k}, omitting zero layers.  Left collection: the
        power of M^(e_i) is pulled out on the left.
        """
        layers: dict[int, dict] = {}
        row = self.form.matrix[i]
        for alpha, c in self._terms.items():
            k = alpha[i]
            rest = alpha[:i] + (0,) + alpha[i + 1 :]
            if k:
                s = -k * sum(r * aj for r, aj in zip(row, alpha))
                c = coeff_shift(c, s) if s else c
            layers.setdefault(k, {})[rest] = dict(c)
        return {k: TorusElement._raw(self.form, t) for k, t in layers.items()}

    def exact_divide_left(self, divisor: TorusElement) -> TorusElement:
        """Return w with self == divisor * w, or raise DivisionFailure."""
        self._check(divisor)
        if divisor.is_zero():
            raise DivisionFailure("division by zero torus element")
        if self.is_zero():
            return TorusElement.zero(self.form)
        n = self.form.rank
        # In a domain graded by each exponent coordinate, the coordinate
        # spans of numerator and divisor pin the span of any quotient.
        lo = [None] * n
        hi = [None] * n
        for j in range(n):
            xs = [a[j] for a in self._terms]
            ds = [a[j] for a in divisor._terms]
            lo[j] = min(xs) - min(ds)
            hi[j] = max(xs) - max(ds)
            if lo[j] > hi[j]:
                raise DivisionFailure("exponent spans rule out a quotient")
        beta = max(divisor._terms)
        c_d = QCoeff(divisor._terms[beta])
        rem = TorusElement._raw(self.form, dict(self._terms))
        out: dict[tuple, dict] = {}
        while rem._terms:
            xi = max(rem._terms)
            gamma = tuple(x - b for x, b in zip(xi, beta))
            if any(g < l or g > h for g, l, h in zip(gamma, lo, hi)):
                raise DivisionFailure("no exact quotient (leading term out of range)")
            s = self.form.pairing(beta, gamma)
            c_w = QCoeff(rem._terms[xi]).shift(-s).exact_divide(c_d)
            out[gamma] = dict(c_w.items())
            piece = TorusElement.monomial(self.form, gamma, c_w)
            rem = rem - divisor * piece
        return TorusElement._raw(self.form, out)

    def is_laurent_in_sublattice(self, allowed_negative) -> bool:
        """True when negative exponents occur only at the allowed indices."""
        allowed = set(allowed_negative)
        return all(
            x >= 0
            for alpha in self._terms
            for j, x in enumerate(alpha)
            if j not in allowed
        )

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rank": self.form.rank,
            "lambda": [list(r) for r in self.form.matrix],
            "terms": [{"exp": list(alpha), "coeff": str(c)} for alpha, c in self.terms()],
        }

    @classmethod
    def from_json(cls, data) -> TorusElement:
        if isinstance(data, str):
            data = json.loads(data)
        form = SkewForm(data["lambda"])
        if form.rank != int(data["rank"]):
            raise ValueError("rank does not match the form matrix")
        terms = {}
        for t in data["terms"]:
            alpha = tuple(int(x) for x in t["exp"])
            c = parse_coeff(t["coeff"])
            if alpha in terms:
                raise ValueError(f"duplicate exponent {alpha}")
            terms[alpha] = c
        return cls(form, terms)
