"""The coefficient ring Z[q^(1/2), q^(-1/2)] and combinations over it.

Elements are sparse Laurent polynomials in v = q^(1/2) with integer
coefficients, stored as a dict mapping v-exponent to a nonzero int.
``raw_coeff`` reads outside data, and ``QCoeff._raw`` wraps a dict the
library built as it is.  All arithmetic is exact.  The bar involution
inverts v, and specializing q = 1 sums the coefficients.

``LinearCombination`` is the one core of the skein elements of ``disc``
and the quantum torus elements of ``qtorus``: combinations of basis keys
over this ring.
"""

from __future__ import annotations

import operator
import re

from ._kernels import DivisionFailure  # re-exported as qskein.qcoeff.DivisionFailure
from ._kernels import coeff_acc, coeff_add, coeff_divide, coeff_mul, coeff_neg, coeff_shift


class QCoeff:
    """An element of Z[v, v^-1] with v = q^(1/2)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        self._terms = {} if terms is None else raw_coeff(terms)

    @classmethod
    def _raw(cls, terms: dict) -> QCoeff:
        """Wrap a dict the library built, without copying or checking it."""
        out = object.__new__(cls)
        out._terms = terms
        return out

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
        return self._terms.get(operator.index(v_exp), 0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> QCoeff:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QCoeff._raw(coeff_add(self._terms, other._terms))

    __radd__ = __add__

    def __neg__(self) -> QCoeff:
        return QCoeff._raw(coeff_neg(self._terms))

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
        return QCoeff._raw(coeff_mul(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QCoeff:
        n = operator.index(n)
        if n < 0:
            raise ValueError("negative powers are not defined in Z[v, v^-1]")
        return square_and_multiply(QCoeff.one(), self, n)

    def shift(self, k: int) -> QCoeff:
        """Multiply by v^k."""
        return QCoeff._raw(coeff_shift(self._terms, operator.index(k)))

    def bar(self) -> QCoeff:
        """The bar involution v -> v^-1."""
        return QCoeff._raw({-k: c for k, c in self._terms.items()})

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
    """base**n for n >= 0: one for n = 0, else a product of squares of base
    that starts from its first factor and squares only while bits remain."""
    if not n:
        return one
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
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


def raw_coeff(c) -> dict[int, int]:
    """The raw v-exponent dict, zeros dropped, of a QCoeff (its own dict,
    read here once and never mutated), a dict or an int."""
    if isinstance(c, QCoeff):
        return c._terms
    index = operator.index
    raw = {index(k): index(x) for k, x in c.items()} if hasattr(c, "items") else {0: index(c)}
    return {k: x for k, x in raw.items() if x}


#: The value of a null-homotopic loop: -(q^2 + q^-2).
UNKNOT_SCALAR = QCoeff({4: -1, -4: -1})


class LinearCombination:
    """A finite combination of basis keys with coefficients in Z[v, v^-1].

    ``space`` is what the keys live in (a disc size, a torus form) and
    ``_terms`` a dict from key to a nonzero raw v-exponent dict.  A
    subclass supplies ``_key(space, key)``, which normalises and checks
    one key, ``_key_name`` and ``_mismatch`` for its error messages, and
    ``_key_text(key)``, how one basis key prints.

    ``str(x)`` is the text form: ``(coefficient)*key`` per term in
    ascending key order, joined by " + ", or "0".  ``repr(x)`` wraps it
    in the class name.
    """

    __slots__ = ("space", "_terms")

    def __new__(cls, space, terms=None):
        """terms maps keys to coefficients, as a dict or as (key,
        coefficient) pairs; two keys equal once normalised raise."""
        out = cls._raw(space, {})
        if terms:
            seen = set()
            for key, c in terms.items() if hasattr(terms, "items") else terms:
                key = cls._key(space, key)
                if key in seen:
                    raise ValueError(f"duplicate {cls._key_name} {key}")
                seen.add(key)
                if raw := raw_coeff(c):
                    out._terms[key] = raw
        return out

    def __getnewargs__(self):
        # copy and pickle rebuild an element through __new__(cls, space).
        return (self.space,)

    @classmethod
    def _raw(cls, space, terms: dict):
        """Wrap a term dict without copying or checking it."""
        out = object.__new__(cls)
        out.space = space
        out._terms = terms
        return out

    @classmethod
    def zero(cls, space):
        return cls._raw(space, {})

    def _like(self, terms: dict):
        return self._raw(self.space, terms)

    def _check(self, other) -> None:
        if self.space != other.space:
            raise ValueError(self._mismatch)

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def support(self) -> list:
        return sorted(self._terms)

    def coefficient(self, key) -> QCoeff:
        return QCoeff._raw(self._terms.get(self._key(self.space, key), {}))

    def terms(self):
        for key in sorted(self._terms):
            yield key, QCoeff._raw(self._terms[key])

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.space == other.space
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash(
            (self.space, frozenset((k, frozenset(c.items())) for k, c in self._terms.items()))
        )

    # -- linear operations --------------------------------------------

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            coeff_acc(out, key, c)
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
        return {key: s for key, c in self._terms.items() if (s := sum(c.values()))}

    # -- text form ----------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(
            f"({render_raw(c)})*{self._key_text(k)}" for k, c in sorted(self._terms.items())
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


def exact_divide(a: QCoeff, b: QCoeff) -> QCoeff:
    return QCoeff._raw(coeff_divide(raw_coeff(a), raw_coeff(b)))


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
_SIGN_OR_PAREN = re.compile(r"[-+()]")


#: Per v-exponent k: the text of +v^k and -v^k after the first term, and
#: the "*q^..." suffix of a larger magnitude.  Filled on first use, up to
#: _QTEXT_MAX exponents; others are formatted on each use.
_QTEXT: dict[int, tuple[str, str, str]] = {}
_QTEXT_MAX = 1024


def _qtext(k: int) -> tuple[str, str, str]:
    if k == 0:
        qpart = "1"
    elif k % 2 == 0:
        qpart = "q" if k == 2 else f"q^{k // 2}"
    else:
        qpart = f"q^({k}/2)"
    t = (f"+ {qpart}", f"- {qpart}", f"*{qpart}" if k else "")
    if len(_QTEXT) < _QTEXT_MAX:
        _QTEXT[k] = t
    return t


def render_raw(terms: dict) -> str:
    """The text form of a raw v-exponent dict with nonzero values."""
    if not terms:
        return "0"
    parts = []
    for k in sorted(terms, reverse=True):
        c = terms[k]
        t = _QTEXT.get(k) or _qtext(k)
        if c == 1:
            parts.append(t[0])
        elif c == -1:
            parts.append(t[1])
        elif c > 0:
            parts.append(f"+ {c}{t[2]}")
        else:
            parts.append(f"- {-c}{t[2]}")
    text = " ".join(parts)
    # The first term carries its sign without the separator's space.
    return text[2:] if text[0] == "+" else "-" + text[2:]


def render(x: QCoeff) -> str:
    return render_raw(x._terms)


def parse(text: str) -> QCoeff:
    """Parse the text form produced by render (and simple variants of it)."""
    s = text.strip()
    if not s:
        raise ValueError("empty coefficient string")
    if s == "0":
        return QCoeff.zero()
    # Split into signed terms at top level: a sign splits unless it follows
    # one of "^(/e*" or sits inside parentheses.  Only signs and
    # parentheses are visited, so the split is linear in the text.
    pieces: list[tuple[int, str]] = []
    sign, buf, start, depth = 1, "", 0, 0
    for m in _SIGN_OR_PAREN.finditer(s):
        ch, i = m.group(), m.start()
        if ch in "()":
            depth += 1 if ch == "(" else -1
        elif i == 0 or s[i - 1] not in "^(/e*" and depth <= 0:
            buf += s[start:i]
            start = i + 1
            if buf.strip():
                pieces.append((sign, buf))
                buf, sign = "", 1
            sign *= -1 if ch == "-" else 1
    buf += s[start:]
    if buf.strip():
        pieces.append((sign, buf))
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
