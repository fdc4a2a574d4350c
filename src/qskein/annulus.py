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
share once per pass (a*b, ell*a*b and a*b*ell) or once per i (x_i x_(i+1),
x_i x_(i+3), x_(i+1) x_(i+2), and x_(i+1)^2, which the next i reuses as
its x_i^2).  Every side keeps its operands and their order, so no side
is taken from another identity's claim.  A side equal to the left one
is not rendered again: equal elements render alike.
"""

from __future__ import annotations

from .qcoeff import QCoeff
from .qtorus import TorusElement
from .qseed import QuantumSeed, quasi_commutation_exponent, upper_membership
from .surface import build_annulus, to_seed

A, B, X0, X1 = 0, 1, 2, 3


class AnnulusModel:
    """Cached torus realizations of a, b, x_i, ell."""

    def __init__(self, bound: int = 8):
        if bound < 1:
            raise ValueError("bound must be at least 1")
        self.bound = bound
        self.surface = build_annulus(1, 1)
        self.seed: QuantumSeed = to_seed(self.surface)
        self.form = self.seed.ambient
        self.a = self._mono((1, 0, 0, 0))
        self.b = self._mono((0, 1, 0, 0))
        self._x: dict[int, TorusElement] = {
            0: self._mono((0, 0, 1, 0)),
            1: self._mono((0, 0, 0, 1)),
        }
        self.ell = self._compute_ell()

    def _mono(self, alpha, k: int = 0) -> TorusElement:
        return TorusElement.monomial(self.form, alpha, QCoeff.v(k))

    def _compute_ell(self) -> TorusElement:
        x0, x1 = self._x[0], self._x[1]
        w = x0 * x1
        z = (
            x0 * x0 * QCoeff.v(2)
            + self.a * self.b * QCoeff.v(-2)
            + x1 * x1 * QCoeff.v(-6)
        )
        return z.exact_divide_left(w)

    def x(self, i: int) -> TorusElement:
        if not -self.bound <= i <= self.bound:
            raise ValueError(f"index {i} exceeds the cache bound {self.bound}")
        v = QCoeff.v
        hi = max(self._x)
        while hi < i:
            self._x[hi + 1] = self._x[hi] * self.ell * v(2) - self._x[hi - 1] * v(4)
            hi += 1
        lo = min(self._x)
        while lo > i:
            self._x[lo - 1] = self.ell * self._x[lo] * v(2) - self._x[lo + 1] * v(4)
            lo -= 1
        return self._x[i]

    def loop_ell(self) -> TorusElement:
        return self.ell

    def grading(self, x: TorusElement) -> tuple[int, int]:
        """Endpoint degree (at the outer point, at the inner point)."""
        if x.is_zero():
            return (0, 0)
        degs = {
            (2 * alpha[A] + alpha[X0] + alpha[X1], 2 * alpha[B] + alpha[X0] + alpha[X1])
            for alpha in x.support()
        }
        if len(degs) != 1:
            raise ValueError(f"element is not homogeneous: degrees {sorted(degs)}")
        return next(iter(degs))

    def verify_identities(self, irange: int = 5) -> list[dict]:
        """Check the annulus relation families for |i| <= irange.

        Returns a report: one entry per identity with both sides
        rendered.  Failures become report entries, never exceptions.
        """
        if irange + 3 > self.bound:
            raise ValueError(
                f"range {irange} needs cache bound {irange + 3}, have {self.bound}"
            )
        v = QCoeff.v
        report: list[dict] = []

        def check(name: str, lhs: TorusElement, rhs: TorusElement) -> None:
            ok = lhs == rhs
            text = str(lhs)
            # Equal sides have equal term dicts, hence equal renderings.
            report.append({"name": name, "ok": ok, "lhs": text, "rhs": text if ok else str(rhs)})

        ell, a, b = self.ell, self.a, self.b
        ab = a * b
        ell_a = ell * a
        ell_ab = ell_a * b
        ab_ell = ab * ell
        xx = None  # x_i^2: the previous i's x_(i+1)^2
        for i in range(-irange, irange + 1):
            xi = self.x(i)
            xi1 = self.x(i + 1)
            xi2 = self.x(i + 2)
            xi3 = self.x(i + 3)
            xim = self.x(i - 1)
            if xx is None:
                xx = xi * xi
            xi_xi1 = xi * xi1
            xi_xi3 = xi * xi3
            xi1_xi1 = xi1 * xi1
            xi1_xi2 = xi1 * xi2
            check(
                f"ell*x_{i} = q*x_{i+1} + q^-1*x_{i-1}",
                ell * xi,
                xi1 * v(2) + xim * v(-2),
            )
            check(
                f"x_{i}*x_{i+1} = q^-2*x_{i+1}*x_{i}",
                xi_xi1,
                xi1 * xi * v(-4),
            )
            check(
                f"x_{i}*x_{i+2} = a*b + q^-2*x_{i+1}^2",
                xi * xi2,
                ab + xi1_xi1 * v(-4),
            )
            check(
                f"x_{i}*x_{i+3} = q*ell*a*b + q^-2*x_{i+1}*x_{i+2}",
                xi_xi3,
                ell_ab * v(2) + xi1_xi2 * v(-4),
            )
            check(
                f"(x_{i}*x_{i+1})*ell = q*x_{i}^2 + q^-1*a*b + q^-3*x_{i+1}^2",
                xi_xi1 * ell,
                xx * v(2) + ab * v(-2) + xi1_xi1 * v(-6),
            )
            check(
                f"a*b*ell = q^-1*x_{i}*x_{i+3} - q^-3*x_{i+1}*x_{i+2}",
                ab_ell,
                xi_xi3 * v(-2) - xi1_xi2 * v(-6),
            )
            xx = xi1_xi1
            del xi_xi1, xi_xi3, xi1_xi1, xi1_xi2
            check(f"bar(x_{i}) = x_{i}", xi.bar(), xi)
            deg_ok = False
            try:
                deg_ok = self.grading(xi) == (1, 1)
            except ValueError:
                pass
            report.append(
                {
                    "name": f"deg(x_{i}) = (1,1)",
                    "ok": deg_ok,
                    "lhs": str(self.grading(xi)) if deg_ok else "inhomogeneous",
                    "rhs": "(1, 1)",
                }
            )
        del ab, ell_ab, ab_ell, xx
        check("a*ell = ell*a", a * ell, ell_a)
        check("b*ell = ell*b", b * ell, ell * b)
        check("a*x_0 = x_0*a", a * self.x(0), self.x(0) * a)
        check("b*x_1 = x_1*b", b * self.x(1), self.x(1) * b)
        check("bar(ell) = ell", ell.bar(), ell)
        report.append(
            {
                "name": "deg(ell) = (0,0)",
                "ok": self.grading(ell) == (0, 0),
                "lhs": str(self.grading(ell)),
                "rhs": "(0, 0)",
            }
        )
        report.append(
            {
                "name": "ell passes upper membership",
                "ok": upper_membership(ell, self.seed),
                "lhs": "upper_membership(ell)",
                "rhs": "True",
            }
        )
        check("mutation at x_0 gives x_2", self.seed.xprime(X0), self.x(2))
        check("mutation at x_1 gives x_-1", self.seed.xprime(X1), self.x(-1))
        qc = quasi_commutation_exponent(self.x(0), self.x(1))
        report.append(
            {
                "name": "x_0 x_1 = q^c x_1 x_0 with c = -2",
                "ok": qc == -2,
                "lhs": f"c = {qc}",
                "rhs": "c = -2",
            }
        )
        return report
