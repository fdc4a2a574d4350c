"""Verification model for the annulus with one marked point per boundary.

The generators a, b (boundary arcs), x_i (the Z-family of internal
arcs), and the loop ell are realized as elements of the quantum torus of
the seed {a, b, x_0, x_1}.  Ambient indices follow the surface builder:
0 = a, 1 = b, 2 = x_0, 3 = x_1.

The x_i are produced by the recurrences

    x_(i+1) = q x_i ell - q^2 x_(i-1)        (upward)
    x_(i-1) = q ell x_i - q^2 x_(i+1)        (downward)

both of which follow from [ell][x_i] = q[x_(i+1)] + q^(-1)[x_(i-1)] and
bar-invariance.  Note the operand order: ell multiplies on the right
going up and on the left going down; the two sides differ because x_i
and ell do not commute.  The x_i quasi-commute as
x_i x_(i+1) = q^(-2) x_(i+1) x_i; the exponent is forced by the
orientation matrix (all entries even) together with compatibility
Lambda B = 4 iota, and is independently confirmed by the mutation
x_2 = mu_(x_0)(seed) and the flip of the underlying surface.

``verify_identities`` computes each product that several identities
share once per pass (a*b, ell*a*b and a*b*ell) or once per i (x_i x_(i+3),
x_(i+1)^2, which the next i reuses as its x_i^2, and x_(i+1) x_(i+2),
which the next i reuses as its x_i x_(i+1)), and drops each one after
its last identity.  Every side keeps its operands and their order, so no
side is taken from another identity's claim.  A right side is a list of
parts (x, k, sign) standing for the sum of sign * v^k * x, and no sum is
built to compare it: ``side_equals`` sums the parts' shifted and signed
coefficients at one exponent at a time (``side_coeff``, the one sum
rule) and compares that with the left side's coefficient there.  The sum
is built as an element (``side_sum``, from the same rule) only to render
the rhs of a failing row.  Of the identities of one i that read large
products, (x_i x_(i+1)) ell = ... is evaluated first, though reported
fifth: x_i^2 and x_i x_(i+1) are gone before x_(i+1)^2 is read again,
and before x_i x_(i+3) and x_(i+1) x_(i+2) are built, so at most three
large products are alive at once.  With ``render=False``
the rows carry only "name" and "ok", and no element is rendered; with
the default every row also renders both sides, and a side equal to the
left one is not rendered again: equal elements render alike.
"""

from __future__ import annotations

import operator

from ._kernels import coeff_addto
from .disc import InhomogeneousError
from .qtorus import TorusElement
from .qseed import QuantumSeed, quasi_commutation_exponent, upper_membership
from .surface import build_annulus, to_seed

A, B, X0, X1 = 0, 1, 2, 3


class AnnulusModel:
    """Cached torus realizations of a, b, x_i, ell."""

    def __init__(self, bound: int = 8):
        bound = operator.index(bound)
        if bound < 1:
            raise ValueError("bound must be at least 1")
        self.bound = bound
        self.surface = build_annulus(1, 1)
        self.seed: QuantumSeed = to_seed(self.surface)
        self.form = self.seed.ambient
        # The initial seed's frame is M^(e_0), ..., M^(e_3): a, b, x_0, x_1.
        self.a, self.b, x0, x1 = self.seed.frame
        self._x: dict[int, TorusElement] = {0: x0, 1: x1}
        self.ell = self._compute_ell()

    def _compute_ell(self) -> TorusElement:
        x0, x1 = self._x[0], self._x[1]
        w = x0 * x1
        z = (x0 * x0).shift(2) + (self.a * self.b).shift(-2) + (x1 * x1).shift(-6)
        return z.exact_divide_left(w)

    def x(self, i: int) -> TorusElement:
        i = operator.index(i)
        if not -self.bound <= i <= self.bound:
            raise ValueError(f"index {i} exceeds the cache bound {self.bound}")
        hi = max(self._x)
        while hi < i:
            self._x[hi + 1] = (self._x[hi] * self.ell).shift(2) - self._x[hi - 1].shift(4)
            hi += 1
        lo = min(self._x)
        while lo > i:
            self._x[lo - 1] = (self.ell * self._x[lo]).shift(2) - self._x[lo + 1].shift(4)
            lo -= 1
        return self._x[i]

    def grading(self, x: TorusElement) -> tuple[int, int]:
        """Endpoint degree (outer point, inner point), or InhomogeneousError."""
        if x.is_zero():
            return (0, 0)
        degs = {
            (2 * alpha[A] + alpha[X0] + alpha[X1], 2 * alpha[B] + alpha[X0] + alpha[X1])
            for alpha in x._terms
        }
        if len(degs) != 1:
            raise InhomogeneousError(degs)
        return next(iter(degs))

    def verify_identities(self, irange: int = 5, render: bool = True) -> list[dict]:
        """Check the annulus relation families for |i| <= irange.

        Returns a report: one entry per identity, in a fixed order, with
        its "name" and "ok".  With ``render`` (the default) every entry
        also holds both sides as text, "lhs" and "rhs"; without it no
        element is rendered, for callers that print only names.  Each
        right side, given as parts (x, k, sign), is compared with the
        left side term by term and built as an element only to render
        the rhs of a failing row.  The (x_i x_(i+1)) ell identity is
        evaluated before the x_i x_(i+2) and x_i x_(i+3) ones, and
        reported after them.  Failures become report entries,
        never exceptions; a negative irange raises ValueError.
        """
        irange = operator.index(irange)
        if irange < 0:
            raise ValueError("range must be nonnegative")
        if irange + 3 > self.bound:
            raise ValueError(
                f"range {irange} needs cache bound {irange + 3}, have {self.bound}"
            )

        def row(name: str, ok: bool, lhs: str, rhs: str) -> dict:
            if render:
                return {"name": name, "ok": ok, "lhs": lhs, "rhs": rhs}
            return {"name": name, "ok": ok}

        def check(name: str, lhs: TorusElement, *parts) -> dict:
            ok = side_equals(lhs, parts)
            if not render:
                return row(name, ok, "", "")
            lhs = str(lhs)
            # Equal sides have equal term dicts, hence equal renderings.
            return row(name, ok, lhs, lhs if ok else str(side_sum(parts)))

        ell, a, b = self.ell, self.a, self.b
        ab = a * b
        ell_a = ell * a
        ell_ab = ell_a * b
        ab_ell = ab * ell
        xx = None  # x_i^2: the previous i's x_(i+1)^2
        xi_xi1 = None  # x_i x_(i+1): the previous i's x_(i+1) x_(i+2)
        report: list[dict] = []
        for i in range(-irange, irange + 1):
            xim, xi, xi1, xi2, xi3 = map(self.x, range(i - 1, i + 4))
            if xx is None:
                xx = xi * xi
                xi_xi1 = xi * xi1
            row1 = check(
                f"ell*x_{i} = q*x_{i+1} + q^-1*x_{i-1}",
                ell * xi,
                (xi1, 2, 1),
                (xim, -2, 1),
            )
            row2 = check(f"x_{i}*x_{i+1} = q^-2*x_{i+1}*x_{i}", xi_xi1, (xi1 * xi, -4, 1))
            # row5 goes first of the rows that read large products, and
            # x_i x_(i+1) and x_i^2 go once it is checked, so at most
            # three such products are alive at any row.
            xi_xi1_ell = xi_xi1 * ell
            del xi_xi1
            xi1_xi1 = xi1 * xi1
            row5 = check(
                f"(x_{i}*x_{i+1})*ell = q*x_{i}^2 + q^-1*a*b + q^-3*x_{i+1}^2",
                xi_xi1_ell,
                (xx, 2, 1),
                (ab, -2, 1),
                (xi1_xi1, -6, 1),
            )
            del xi_xi1_ell, xx
            row3 = check(
                f"x_{i}*x_{i+2} = a*b + q^-2*x_{i+1}^2",
                xi * xi2,
                (ab, 0, 1),
                (xi1_xi1, -4, 1),
            )
            xi_xi3 = xi * xi3
            xi1_xi2 = xi1 * xi2
            row4 = check(
                f"x_{i}*x_{i+3} = q*ell*a*b + q^-2*x_{i+1}*x_{i+2}",
                xi_xi3,
                (ell_ab, 2, 1),
                (xi1_xi2, -4, 1),
            )
            row6 = check(
                f"a*b*ell = q^-1*x_{i}*x_{i+3} - q^-3*x_{i+1}*x_{i+2}",
                ab_ell,
                (xi_xi3, -2, 1),
                (xi1_xi2, -6, -1),
            )
            # The next i reads x_(i+1)^2 as its x_i^2 and x_(i+1) x_(i+2)
            # as its x_i x_(i+1).
            xx, xi_xi1 = xi1_xi1, xi1_xi2
            del xi1_xi1, xi_xi3, xi1_xi2
            try:
                deg = str(self.grading(xi))
            except ValueError:
                deg = "inhomogeneous"
            report += [
                row1,
                row2,
                row3,
                row4,
                row5,
                row6,
                check(f"bar(x_{i}) = x_{i}", xi.bar(), (xi, 0, 1)),
                row(f"deg(x_{i}) = (1,1)", deg == "(1, 1)", deg, "(1, 1)"),
            ]
        del ab, ell_ab, ab_ell, xx, xi_xi1
        deg = str(self.grading(ell))
        qc = quasi_commutation_exponent(self.x(0), self.x(1))
        return report + [
            check("a*ell = ell*a", a * ell, (ell_a, 0, 1)),
            check("b*ell = ell*b", b * ell, (ell * b, 0, 1)),
            check("a*x_0 = x_0*a", a * self.x(0), (self.x(0) * a, 0, 1)),
            check("b*x_1 = x_1*b", b * self.x(1), (self.x(1) * b, 0, 1)),
            check("bar(ell) = ell", ell.bar(), (ell, 0, 1)),
            row("deg(ell) = (0,0)", deg == "(0, 0)", deg, "(0, 0)"),
            row(
                "ell passes upper membership",
                upper_membership(ell, self.seed),
                "upper_membership(ell)",
                "True",
            ),
            check("mutation at x_0 gives x_2", self.seed.xprime(X0), (self.x(2), 0, 1)),
            check("mutation at x_1 gives x_-1", self.seed.xprime(X1), (self.x(-1), 0, 1)),
            row("x_0 x_1 = q^c x_1 x_0 with c = -2", qc == -2, f"c = {qc}", "c = -2"),
        ]


def side_coeff(parts, key) -> dict:
    """The coefficient at key of the sum of sign * v^k * x over parts (x, k, sign).

    The one sum rule of the identity pass: ``side_equals`` compares with
    it and ``side_sum`` builds from it.
    """
    out: dict = {}
    for x, k, sign in parts:
        if c := x._terms.get(key):
            coeff_addto(out, c, k, sign)
    return out


def side_equals(lhs: TorusElement, parts) -> bool:
    """lhs == side_sum(parts), compared one exponent at a time, no sum built."""
    terms = lhs._terms
    if any(side_coeff(parts, key) != c for key, c in terms.items()):
        return False
    # A key that lhs lacks must cancel in the sum.
    return not any(
        side_coeff(parts, key) for x, _, _ in parts for key in x._terms if key not in terms
    )


def side_sum(parts) -> TorusElement:
    """The sum of sign * v^k * x over parts (x, k, sign), as an element."""
    keys = {key for x, _, _ in parts for key in x._terms}
    out = {key: c for key in keys if (c := side_coeff(parts, key))}
    return TorusElement._raw(parts[0][0].form, out)
