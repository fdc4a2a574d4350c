"""The coefficient ring Z[q^(1/2), q^(-1/2)] and combinations over it.

Elements are sparse Laurent polynomials in v = q^(1/2) with integer
coefficients, stored as a dict mapping v-exponent to a nonzero int.  All
arithmetic is exact.  The bar involution inverts v, and specializing q = 1
sums the coefficients.

``LinearCombination`` is the one core of the skein elements of ``disc``
and the quantum torus elements of ``qtorus``: combinations of basis keys
over this ring.
"""

from __future__ import annotations

import re

from ._kernels import coeff_add, coeff_mul, coeff_neg, coeff_shift


class DivisionFailure(ArithmeticError):
    """Raised when an exact division does not exist."""


class QCoeff:
    """An element of Z[v, v^-1] with v = q^(1/2)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        if terms is None:
            self._terms = {}
        else:
            self._terms = {k: c for k, c in terms.items() if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> QCoeff:
        return cls()

    @classmethod
    def one(cls) -> QCoeff:
        return cls({0: 1})

    @classmethod
    def from_int(cls, n: int) -> QCoeff:
        return cls({0: n})

    @classmethod
    def v(cls, k: int, coeff: int = 1) -> QCoeff:
        """coeff * v^k, i.e. coeff * q^(k/2)."""
        return cls({k: coeff})

    @classmethod
    def q(cls, k: int, coeff: int = 1) -> QCoeff:
        """coeff * q^k."""
        return cls({2 * k: coeff})

    # -- basic structure ----------------------------------------------

    def items(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, QCoeff):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # A constant hashes like the int it equals (zero included).
        t = self._terms
        if t.keys() <= {0}:
            return hash(t.get(0, 0))
        return hash(frozenset(t.items()))

    def min_v(self) -> int:
        if not self._terms:
            raise ValueError("zero has no v-valuation")
        return min(self._terms)

    def max_v(self) -> int:
        if not self._terms:
            raise ValueError("zero has no v-degree")
        return max(self._terms)

    def coefficient(self, v_exp: int) -> int:
        return self._terms.get(v_exp, 0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> QCoeff:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = QCoeff.__new__(QCoeff)
        out._terms = coeff_add(self._terms, other._terms)
        return out

    __radd__ = __add__

    def __neg__(self) -> QCoeff:
        out = QCoeff.__new__(QCoeff)
        out._terms = coeff_neg(self._terms)
        return out

    def __sub__(self, other) -> QCoeff:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> QCoeff:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> QCoeff:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = QCoeff.__new__(QCoeff)
        out._terms = coeff_mul(self._terms, other._terms)
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QCoeff:
        if n < 0:
            raise ValueError("negative powers are not defined in Z[v, v^-1]")
        return square_and_multiply(QCoeff.one(), self, n)

    def shift(self, k: int) -> QCoeff:
        """Multiply by v^k."""
        out = QCoeff.__new__(QCoeff)
        out._terms = coeff_shift(self._terms, k)
        return out

    def bar(self) -> QCoeff:
        """The bar involution v -> v^-1."""
        return QCoeff({-k: c for k, c in self._terms.items()})

    def specialize_q1(self) -> int:
        return sum(self._terms.values())

    def exact_divide(self, other: QCoeff) -> QCoeff:
        """Return self / other, raising DivisionFailure if not exact."""
        return exact_divide(self, other)

    # -- text form ----------------------------------------------------

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"QCoeff({render(self)!r})"


def square_and_multiply(one, base, n: int):
    """base**n for n >= 0, starting from one; squares only while bits remain."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _coerce(x) -> QCoeff:
    if isinstance(x, QCoeff):
        return x
    if isinstance(x, int):
        return QCoeff({0: x})
    return NotImplemented


#: The value of a null-homotopic loop: -(q^2 + q^-2).
UNKNOT_SCALAR = QCoeff({4: -1, -4: -1})


def raw_coeff(c) -> dict[int, int]:
    """The raw v-exponent dict, zeros dropped, of a QCoeff, a dict or an int."""
    if isinstance(c, QCoeff):
        return dict(c._terms)
    raw = {int(k): int(x) for k, x in c.items()} if hasattr(c, "items") else {0: int(c)}
    return {k: x for k, x in raw.items() if x}


class LinearCombination:
    """A finite combination of basis keys with coefficients in Z[v, v^-1].

    Terms are a dict from key to a nonzero raw v-exponent dict.  A
    subclass supplies the space its keys live in (``_space()``, and the
    ``_mismatch`` message for operands from different spaces),
    ``_raw(space, terms)``, which wraps a term dict without copying or
    checking it, and ``_key_text(key)``, how one basis key prints.

    ``str(x)`` is the text form: ``(coefficient)*key`` per term in
    ascending key order, joined by " + ", or "0".  ``repr(x)`` wraps it
    in the class name.
    """

    __slots__ = ("_terms",)

    @classmethod
    def zero(cls, space):
        return cls(space)

    def _like(self, terms: dict):
        return self._raw(self._space(), terms)

    def _check(self, other) -> None:
        if self._space() != other._space():
            raise ValueError(self._mismatch)

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def support(self) -> list:
        return sorted(self._terms)

    def coefficient(self, key) -> QCoeff:
        return QCoeff(self._terms.get(tuple(key), {}))

    def terms(self):
        for key in sorted(self._terms):
            yield key, QCoeff(self._terms[key])

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._space() == other._space()
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash(
            (self._space(), frozenset((k, frozenset(c.items())) for k, c in self._terms.items()))
        )

    # -- linear operations --------------------------------------------

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            cur = out.get(key)
            s = coeff_add(cur, c) if cur is not None else dict(c)
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return self._like(out)

    def __neg__(self):
        return self._like({k: coeff_neg(c) for k, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, other):
        if isinstance(other, (int, QCoeff)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        raw = raw_coeff(c)
        if not raw:
            return self._like({})
        return self._like({k: coeff_mul(t, raw) for k, t in self._terms.items()})

    def bar(self):
        """Bar involution: basis elements are fixed, v maps to v^-1."""
        return self._like({k: {-e: x for e, x in c.items()} for k, c in self._terms.items()})

    def specialize_q1(self) -> dict:
        """The value at q = 1, as key -> nonzero int."""
        out = {}
        for key, c in self._terms.items():
            if s := sum(c.values()):
                out[key] = s
        return out

    # -- text form ----------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"({c})*{self._key_text(k)}" for k, c in self.terms())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


def exact_divide(a: QCoeff, b: QCoeff) -> QCoeff:
    if b.is_zero():
        raise DivisionFailure("division by zero")
    if a.is_zero():
        return QCoeff.zero()
    va, vb = a.min_v(), b.min_v()
    # Shift both to ordinary polynomials in v with nonzero constant term.
    rem = {k - va: c for k, c in a.items()}
    den = {k - vb: c for k, c in b.items()}
    deg_den = max(den)
    lead = den[deg_den]
    quot: dict[int, int] = {}
    while rem:
        deg_rem = max(rem)
        if deg_rem < deg_den:
            raise DivisionFailure(f"nonzero remainder: {a} not divisible by {b}")
        c, r = divmod(rem[deg_rem], lead)
        if r:
            raise DivisionFailure(f"integer coefficient {rem[deg_rem]} not divisible by {lead}")
        shift = deg_rem - deg_den
        quot[shift] = c
        for k, dc in den.items():
            key = k + shift
            s = rem.get(key, 0) - c * dc
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return QCoeff({k + va - vb: c for k, c in quot.items()})


# -- text grammar ------------------------------------------------------
#
#   element := term (('+' | '-') term)*
#   term    := int | [int '*'] 'q' ['^' exp]
#   exp     := int | '(' int '/2' ')'
#
# Exponents in the text form are powers of q; odd powers of v print as
# q^(k/2).  Terms render in descending v-exponent.

_TERM_RE = re.compile(
    r"""^\s*
    (?:(?P<coeff>\d+)\s*\*?\s*)?          # optional integer coefficient
    (?:(?P<q>q)
       (?:\^(?:
            (?P<intexp>-?\d+)
          | \(\s*(?P<num>-?\d+)\s*/\s*2\s*\)
       ))?
    )?
    \s*$""",
    re.VERBOSE,
)


def render(x: QCoeff) -> str:
    if x.is_zero():
        return "0"
    parts: list[str] = []
    for k in sorted(x._terms, reverse=True):
        c = x._terms[k]
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            if k % 2 == 0:
                half = k // 2
                qpart = "q" if half == 1 else f"q^{half}"
            else:
                qpart = f"q^({k}/2)"
            body = qpart if mag == 1 else f"{mag}*{qpart}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def parse(text: str) -> QCoeff:
    """Parse the text form produced by render (and simple variants of it)."""
    s = text.strip()
    if not s:
        raise ValueError("empty coefficient string")
    if s == "0":
        return QCoeff.zero()
    # Split into signed terms at top level.
    pieces: list[tuple[int, str]] = []
    sign, buf = 1, []
    for i, ch in enumerate(s):
        if ch in "+-" and (i == 0 or s[i - 1] not in "^(/e*" and not _inside_paren(s, i)):
            if buf and "".join(buf).strip():
                pieces.append((sign, "".join(buf)))
                buf = []
                sign = 1
            sign *= -1 if ch == "-" else 1
        else:
            buf.append(ch)
    if buf and "".join(buf).strip():
        pieces.append((sign, "".join(buf)))
    if not pieces:
        raise ValueError(f"cannot parse coefficient: {text!r}")
    terms: dict[int, int] = {}
    for sgn, piece in pieces:
        m = _TERM_RE.match(piece)
        if not m or (m.group("coeff") is None and m.group("q") is None):
            raise ValueError(f"cannot parse coefficient term: {piece!r}")
        c = int(m.group("coeff")) if m.group("coeff") else 1
        if m.group("q") is None:
            k = 0
        elif m.group("num") is not None:
            k = int(m.group("num"))
        elif m.group("intexp") is not None:
            k = 2 * int(m.group("intexp"))
        else:
            k = 2
        terms[k] = terms.get(k, 0) + sgn * c
    return QCoeff(terms)


def _inside_paren(s: str, i: int) -> bool:
    return s.count("(", 0, i) > s.count(")", 0, i)
