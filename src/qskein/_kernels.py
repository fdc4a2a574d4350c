"""Arithmetic kernels: the coefficient ring and the twisted torus product.

Coefficients are sparse Laurent polynomials in v = q^(1/2), stored as plain
dicts mapping v-exponent (int) to a nonzero integer.  Torus elements are
dicts mapping exponent tuples to coefficient dicts.  Every exact identity
in the package is computed through these functions, and every one of them
takes and returns these dicts: ``coeff_add``, ``coeff_neg``, ``coeff_mul``,
``coeff_shift`` and ``coeff_divide`` on coefficients, ``coeff_addto`` to
add v^k * x * c into a coefficient in place, ``coeff_acc`` to sum a
coefficient into a dict of them, and ``torus_mul`` and
``torus_divide_left``, which twist through ``act``: the one action of a
skew form Lambda on an exponent vector.  Divisions raise ``DivisionFailure``.

``coeff_addto`` is the one accumulate rule: every sum of coefficients
here (``coeff_add``, ``coeff_mul``, the remainder of ``coeff_divide``,
``_shift_scale_mul``) and in ``annulus.side_coeff`` (past the shifted,
signed copy of the first part it starts from) runs through it, and it
drops an exponent whose sum is 0.  It is also the one function here
that mutates, and only the dict its caller created to accumulate into.
A coefficient dict, once stored or handed to ``coeff_acc``, is never
mutated, so it is stored without a copy.  Every other function returns a
new dict, but a shift by 0 returns its argument: never accumulate into it.

``torus_mul`` has two paths, chosen from the operands' shape alone.

When every coefficient of one operand has a single term (a monomial
coefficient c * v^e: a frame variable, a, b, a quotient piece), each term
pair is a shift and a scale, {k + e + Lambda(alpha, beta): c * x}, of the
other operand's coefficient, and the pairs landing on one exponent are
summed in place into that exponent's accumulator.

Otherwise both operands have a coefficient of two or more terms, so g,
the gcd of the exponent gaps inside every coefficient of both operands,
is positive (on the annulus g = 8), and the product runs on packed
integers instead of dicts.  A coefficient with lowest exponent m is
packed once as the pair

    (m, sum of c * 2^(k * (e - m) / g) over its terms c * v^e),

so one Python int multiply is one coefficient product, and the twist
v^Lambda(alpha, beta) only moves the base m.  Products landing on the same
exponent gamma and the same base residue mod g are summed in one
accumulator, the lower-based one shifted left to align.  Each accumulator
is read back once, k bits a digit, with a signed borrow.

An accumulator's key is the int g * code(gamma) + base mod g, with

    code(alpha) = sum of alpha_i * 2^(w * i),  w = M.bit_length() + 2,

M the largest |entry| of an exponent of either operand.  Every entry of
gamma = alpha + beta lies strictly inside (-2^(w-1), 2^(w-1)), where the
signed base-2^w expansion is unique, so distinct gammas have distinct
codes, and code(alpha) + code(beta) = code(gamma) lets a pair add two
codes made once per term instead of building and hashing a tuple.  The
accumulator keeps its first pair's alpha and beta, and gamma is built
as a tuple once per accumulator.

The digit width is k = (L1x * L1y).bit_length() + 1, with L1x and L1y the
sums of |c| over all terms of each operand.  Every output coefficient is a
sum of products ca * cb over distinct term pairs, so its size is at most
L1x * L1y < 2^(k-1).  Each digit therefore lies strictly inside
(-2^(k-1), 2^(k-1)), the signed base-2^k expansion is unique, and decoding
is exact for integers of any size.  A one-term coefficient packs to itself.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from operator import add, mul, sub


class DivisionFailure(ArithmeticError):
    """Raised when an exact division does not exist."""


def coeff_addto(acc: dict, c: dict, k: int, x: int) -> None:
    """acc += x * v^k * c in place, for x != 0, deleting an exponent whose
    sum is 0.  Only acc, a dict the caller created, is written."""
    for e, n in c.items():
        e += k
        if s := acc.get(e, 0) + x * n:
            acc[e] = s
        else:
            del acc[e]


def coeff_add(a: dict, b: dict) -> dict:
    out = dict(a)
    coeff_addto(out, b, 0, 1)
    return out


def coeff_acc(out: dict, key, c: dict) -> None:
    """out[key] += c for a dict of coefficient dicts, dropping a zero sum.

    A new key stores c itself, not a copy.
    """
    cur = out.get(key)
    if cur is None:
        out[key] = c
    elif s := coeff_add(cur, c):
        out[key] = s
    else:
        del out[key]


def coeff_neg(a: dict) -> dict:
    return {k: -c for k, c in a.items()}


def coeff_mul(a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for k, x in a.items():
        coeff_addto(out, b, k, x)
    return out


def coeff_shift(a: dict, k: int) -> dict:
    if not k:
        return a
    return {ke + k: c for ke, c in a.items()}


def coeff_divide(a: dict, b: dict) -> dict:
    """a / b by long division from the top v-exponent, or DivisionFailure."""
    if not b:
        raise DivisionFailure("division by zero")
    if not a:
        return {}
    top = max(b)
    lead = b[top]
    # No quotient term lies below min(a) - min(b), and cancelling a
    # remainder top k below this floor would need one at k - top.
    floor = min(a) + top - min(b)
    rem = dict(a)
    quot: dict[int, int] = {}
    while rem:
        k = max(rem)
        if k < floor:
            from .qcoeff import render_raw  # qcoeff imports this module

            raise DivisionFailure(
                f"nonzero remainder: {render_raw(a)} not divisible by {render_raw(b)}"
            )
        c, r = divmod(rem[k], lead)
        if r:
            raise DivisionFailure(f"integer coefficient {rem[k]} not divisible by {lead}")
        quot[k - top] = c
        coeff_addto(rem, b, k - top, -c)
    return quot


def act(lam: tuple, v) -> list[int]:
    """Lambda v for a skew matrix lam, entry k being Lambda(e_k, v), summed
    over the nonzero entries of v: column l of lam is minus its row l."""
    out = [0] * len(lam)
    for row, b in zip(lam, v):
        if b:
            out = [o - r * b for o, r in zip(out, row)]
    return out


def torus_mul(xterms: dict, yterms: dict, lam: tuple) -> dict:
    """Multiply two torus elements: M^a * M^b = v^(lam(a,b)) * M^(a+b)."""
    x_one = all(len(c) == 1 for c in xterms.values())
    if x_one or all(len(c) == 1 for c in yterms.values()):
        return _shift_scale_mul(xterms, yterms, lam, x_one)
    g = 0
    bound = 1
    for terms in (xterms, yterms):
        l1 = 0
        for c in terms.values():
            m = min(c)
            g = gcd(g, *[e - m for e in c])
            l1 += sum(map(abs, c.values()))
        bound *= l1
    k = bound.bit_length() + 1
    w = max(map(abs, chain.from_iterable(chain(xterms, yterms))), default=0).bit_length() + 2

    def pack(c):
        m = min(c)
        return m, sum(x << (e - m) // g * k for e, x in c.items())

    def code(alpha):
        return g * sum(a << w * i for i, a in enumerate(alpha))

    xs = [(alpha, code(alpha), *pack(c)) for alpha, c in xterms.items()]
    acc: dict = {}
    for beta, cb in yterms.items():
        mb, pb = pack(cb)
        lamb = act(lam, beta)
        cbeta = code(beta)
        for alpha, calpha, ma, pa in xs:
            base = ma + mb + sum(map(mul, alpha, lamb))
            key = calpha + cbeta + base % g
            prod = pa * pb
            cur = acc.get(key)
            if cur is None:
                acc[key] = [base, prod, alpha, beta]
            elif base >= cur[0]:
                cur[1] += prod << (base - cur[0]) // g * k
            else:
                cur[1] = (cur[1] << (cur[0] - base) // g * k) + prod
                cur[0] = base
    out: dict = {}
    half = 1 << (k - 1)
    mask = (1 << k) - 1
    for e, v, alpha, beta in acc.values():
        if not v:
            continue
        c = out.setdefault(tuple(map(add, alpha, beta)), {})
        while v:
            d = v & mask
            if d >= half:
                d -= mask + 1
            if d:
                c[e] = d
            v = (v - d) >> k
            e += g
    return out


def _shift_scale_mul(xterms: dict, yterms: dict, lam: tuple, x_one: bool) -> dict:
    """torus_mul when every coefficient of x (x_one) or else of y is one-term."""
    out: dict = {}
    for beta, cb in yterms.items():
        lamb = act(lam, beta)
        for alpha, ca in xterms.items():
            one, many = (ca, cb) if x_one else (cb, ca)
            [(e, c)] = one.items()
            acc = out.setdefault(tuple(map(add, alpha, beta)), {})
            coeff_addto(acc, many, e + sum(map(mul, alpha, lamb)), c)
    return {gamma: c for gamma, c in out.items() if c}


def torus_divide_left(x: dict, d: dict, lam: tuple) -> dict:
    """The terms of w with d * w == x in the torus of lam, or DivisionFailure.

    Long division by d's lex-leading exponent beta: quotient term gamma
    takes the twist -Lambda(beta, gamma) = gamma . (Lambda beta).
    """
    if not d:
        raise DivisionFailure("division by zero torus element")
    if not x:
        return {}
    # In a domain graded by each exponent coordinate, the coordinate
    # spans of numerator and divisor pin the span of any quotient.
    spans = [(min(xs) - min(ds), max(xs) - max(ds)) for xs, ds in zip(zip(*x), zip(*d))]
    if any(lo > hi for lo, hi in spans):
        raise DivisionFailure("exponent spans rule out a quotient")
    # Quotient exponents come out in falling lex order, and in a domain
    # lexmin(d * w) = lexmin(d) + lexmin(w): a leading exponent below
    # lexmin(x) - lexmin(d) is no quotient term.
    floor = tuple(map(sub, min(x), min(d)))
    beta = max(d)
    lamb = act(lam, beta)
    rem = dict(x)
    out: dict[tuple, dict] = {}
    while rem:
        xi = max(rem)
        gamma = tuple(map(sub, xi, beta))
        if gamma < floor:
            raise DivisionFailure("no exact quotient (leading term below the lex floor)")
        if any(not lo <= g <= hi for g, (lo, hi) in zip(gamma, spans)):
            raise DivisionFailure("no exact quotient (leading term out of range)")
        out[gamma] = c_w = coeff_divide(coeff_shift(rem[xi], sum(map(mul, gamma, lamb))), d[beta])
        # rem -= d * M^gamma c_w, in place over d's terms.
        for key, c in torus_mul(d, {gamma: coeff_neg(c_w)}, lam).items():
            coeff_acc(rem, key, c)
        if xi in rem:
            # The leading term always cancels; if not, the loop never ends.
            raise RuntimeError(f"leading term {xi} did not cancel")
    return out
