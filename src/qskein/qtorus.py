"""Based quantum tori.

A torus T_L over Z[v, v^-1] has basis monomials M^a indexed by a in Z^N,
with M^a * M^b = v^(L(a,b)) M^(a+b) for a skew-symmetric integer form L.
(In q-units the twist is q^(L(a,b)/2); v-exponents stay integral.)

An element is a ``qcoeff.LinearCombination`` of monomials M[a] in its
form's torus; this module wraps the kernel's product and left division
and adds JSON.  ``SkewForm.act`` returns ``_kernels.act``, the one action
of L on an exponent vector: torus product and division, ``pairing``, the
Laurent map and seed compatibility and mutation all read L there.
``act`` and ``pairing`` read their vectors through ``TorusElement._key``,
the one exponent reader; the kernel ``act`` checks nothing.
"""

from __future__ import annotations

import operator

from . import payload
from ._kernels import act, coeff_shift, torus_divide_left, torus_mul
from .qcoeff import LinearCombination, QCoeff, render_raw, square_and_multiply


class SkewForm:
    """A skew-symmetric integer matrix giving the commutation form."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        rows = tuple(tuple(map(operator.index, row)) for row in matrix)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("form matrix must be square")
        for i in range(n):
            for j in range(i, n):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError(f"form matrix not skew-symmetric at ({i},{j})")
        self.matrix = rows

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def pairing(self, alpha, beta) -> int:
        """L(alpha, beta), alpha dotted with L beta; both read like exponents."""
        return sum(map(operator.mul, TorusElement._key(self, alpha), self.act(beta)))

    def act(self, beta) -> list[int]:
        """L beta, whose entry k is L(e_k, beta); beta is read like an exponent."""
        return act(self.matrix, TorusElement._key(self, beta))

    def __eq__(self, other) -> bool:
        return isinstance(other, SkewForm) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"SkewForm({[list(r) for r in self.matrix]})"


class TorusElement(LinearCombination):
    """An element of the quantum torus attached to a SkewForm."""

    __slots__ = ()

    _key_name = "exponent"
    _mismatch = "elements live in different tori"

    @property
    def form(self) -> SkewForm:
        return self.space

    @staticmethod
    def _key(form: SkewForm, alpha) -> tuple:
        key = tuple(map(operator.index, alpha))
        if len(key) != form.rank:
            raise ValueError(f"exponent {key} has wrong length for rank {form.rank}")
        return key

    @staticmethod
    def _key_text(alpha) -> str:
        return f"M{list(alpha)}"

    # -- constructors ---------------------------------------------------

    @classmethod
    def monomial(cls, form: SkewForm, alpha, coeff=1) -> TorusElement:
        return cls(form, {tuple(alpha): coeff})

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
        return self._like(torus_mul(self._terms, other._terms, self.space.matrix))

    def __pow__(self, n: int) -> TorusElement:
        n = operator.index(n)
        if n < 0:
            raise ValueError("use monomial inverses or exact division for negative powers")
        return square_and_multiply(self._like({(0,) * self.form.rank: {0: 1}}), self, n)

    def shift(self, k: int) -> TorusElement:
        """Multiply every coefficient by v^k."""
        if not (k := operator.index(k)):
            return self
        return self._like({a: coeff_shift(c, k) for a, c in self._terms.items()})

    # -- division -------------------------------------------------------

    def exact_divide_left(self, divisor: TorusElement) -> TorusElement:
        """Return w with self == divisor * w, or raise DivisionFailure."""
        self._check(divisor)
        return self._like(torus_divide_left(self._terms, divisor._terms, self.space.matrix))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rank": self.form.rank,
            "lambda": [list(r) for r in self.form.matrix],
            "terms": [
                {"exp": list(alpha), "coeff": render_raw(c)}
                for alpha, c in sorted(self._terms.items())
            ],
        }

    @classmethod
    def from_json(cls, data, path: str = "") -> TorusElement:
        """Decode a parsed ``to_json`` object found at ``path``."""
        rank = payload.integer(*payload.field(data, "rank", path))
        lam = payload.int_matrix(*payload.field(data, "lambda", path), rank, rank)
        terms = []
        for p, t in payload.entries(*payload.field(data, "terms", path)):
            exp = payload.int_list(*payload.field(t, "exp", p), rank)
            terms.append((exp, payload.coeff(*payload.field(t, "coeff", p))))
        return cls(SkewForm(lam), terms)
