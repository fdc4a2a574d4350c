"""Annulus with one marked point per boundary circle: exact ground truth."""

import hashlib
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qskein.annulus import X0, X1, AnnulusModel, side_equals, side_sum
from qskein.disc import InhomogeneousError
from qskein.qcoeff import QCoeff, render
from qskein.qseed import QuantumSeed, quasi_commutation_exponent, upper_membership
from qskein.qtorus import TorusElement


def render_elt(x: TorusElement) -> str:
    """The identity pass's renderer as first written: the oracle of str(x)."""
    if x.is_zero():
        return "0"
    bits = []
    for alpha, c in x.terms():
        bits.append(f"({render(c)})*M{list(alpha)}")
    return " + ".join(bits)


def torus_repr(x: TorusElement) -> str:
    """TorusElement.__repr__ as first written: the oracle of repr(x)."""
    if not x._terms:
        return "TorusElement(0)"
    bits = []
    for alpha in sorted(x._terms):
        c = render(QCoeff(x._terms[alpha]))
        bits.append(f"({c})*M{list(alpha)}")
    return "TorusElement(" + " + ".join(bits) + ")"


def spec_torus(x: TorusElement) -> dict:
    """The q = 1 specialiser of the commutative check as first written."""
    out = {}
    for alpha in x.support():
        c = x.coefficient(alpha).specialize_q1()
        if c:
            out[alpha] = c
    return out


def oracle_identities(model, irange):
    """The identity pass as first written: every product and rendering made anew."""
    if irange + 3 > model.bound:
        raise ValueError(
            f"range {irange} needs cache bound {irange + 3}, have {model.bound}"
        )
    v = QCoeff.v
    report: list[dict] = []

    def check(name: str, lhs: TorusElement, rhs: TorusElement) -> None:
        report.append(
            {
                "name": name,
                "ok": lhs == rhs,
                "lhs": render_elt(lhs),
                "rhs": render_elt(rhs),
            }
        )

    ell, a, b = model.ell, model.a, model.b
    for i in range(-irange, irange + 1):
        xi = model.x(i)
        xi1 = model.x(i + 1)
        xi2 = model.x(i + 2)
        xi3 = model.x(i + 3)
        xim = model.x(i - 1)
        check(
            f"ell*x_{i} = q*x_{i+1} + q^-1*x_{i-1}",
            ell * xi,
            xi1 * v(2) + xim * v(-2),
        )
        check(
            f"x_{i}*x_{i+1} = q^-2*x_{i+1}*x_{i}",
            xi * xi1,
            xi1 * xi * v(-4),
        )
        check(
            f"x_{i}*x_{i+2} = a*b + q^-2*x_{i+1}^2",
            xi * xi2,
            a * b + xi1 * xi1 * v(-4),
        )
        check(
            f"x_{i}*x_{i+3} = q*ell*a*b + q^-2*x_{i+1}*x_{i+2}",
            xi * xi3,
            ell * a * b * v(2) + xi1 * xi2 * v(-4),
        )
        check(
            f"(x_{i}*x_{i+1})*ell = q*x_{i}^2 + q^-1*a*b + q^-3*x_{i+1}^2",
            (xi * xi1) * ell,
            xi * xi * v(2) + a * b * v(-2) + xi1 * xi1 * v(-6),
        )
        check(
            f"a*b*ell = q^-1*x_{i}*x_{i+3} - q^-3*x_{i+1}*x_{i+2}",
            a * b * ell,
            xi * xi3 * v(-2) - xi1 * xi2 * v(-6),
        )
        check(f"bar(x_{i}) = x_{i}", xi.bar(), xi)
        deg_ok = False
        try:
            deg_ok = model.grading(xi) == (1, 1)
        except ValueError:
            pass
        report.append(
            {
                "name": f"deg(x_{i}) = (1,1)",
                "ok": deg_ok,
                "lhs": str(model.grading(xi)) if deg_ok else "inhomogeneous",
                "rhs": "(1, 1)",
            }
        )
    check("a*ell = ell*a", a * ell, ell * a)
    check("b*ell = ell*b", b * ell, ell * b)
    check("a*x_0 = x_0*a", a * model.x(0), model.x(0) * a)
    check("b*x_1 = x_1*b", b * model.x(1), model.x(1) * b)
    check("bar(ell) = ell", ell.bar(), ell)
    report.append(
        {
            "name": "deg(ell) = (0,0)",
            "ok": model.grading(ell) == (0, 0),
            "lhs": str(model.grading(ell)),
            "rhs": "(0, 0)",
        }
    )
    report.append(
        {
            "name": "ell passes upper membership",
            "ok": upper_membership(ell, model.seed),
            "lhs": "upper_membership(ell)",
            "rhs": "True",
        }
    )
    mut = model.seed.mutate(X0)
    check("mutation at x_0 gives x_2", mut.frame[X0], model.x(2))
    mut = model.seed.mutate(X1)
    check("mutation at x_1 gives x_-1", mut.frame[X1], model.x(-1))
    qc = quasi_commutation_exponent(model.x(0), model.x(1))
    report.append(
        {
            "name": "x_0 x_1 = q^c x_1 x_0 with c = -2",
            "ok": qc == -2,
            "lhs": f"c = {qc}",
            "rhs": "c = -2",
        }
    )
    return report


@pytest.fixture(scope="module")
def model():
    return AnnulusModel(bound=6)


class TestArgumentChecks:
    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError, match="^bound must be at least 1$"):
            AnnulusModel(bound=0)

    def test_identity_range_must_fit_the_bound(self):
        with pytest.raises(ValueError, match=r"^range 6 needs cache bound 9, have 8$"):
            AnnulusModel(bound=8).verify_identities(irange=6)

    def test_identity_range_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="^range must be nonnegative$"):
            AnnulusModel(bound=8).verify_identities(irange=-2)

    @pytest.mark.parametrize("bound", [4.0, 1.5, "8"])
    def test_bound_must_be_an_integer(self, bound):
        with pytest.raises(TypeError):
            AnnulusModel(bound=bound)

    @pytest.mark.parametrize("irange", [1.5, 2.0, "2"])
    def test_identity_range_must_be_an_integer(self, irange):
        with pytest.raises(TypeError):
            AnnulusModel(bound=8).verify_identities(irange=irange)

    @pytest.mark.parametrize("i", [1.5, 2.0, "2"])
    def test_index_must_be_an_integer(self, i):
        model = AnnulusModel(bound=4)
        cached = dict(model._x)
        with pytest.raises(TypeError):
            model.x(i)
        assert model._x == cached


class TestSeedData:
    def test_matrices(self, model):
        assert model.seed.ex == (2, 3)
        lam = [list(r) for r in model.seed.lam.matrix]
        assert lam == [
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, -2],
            [0, 0, 2, 0],
        ]
        assert [list(r) for r in model.seed.b] == [[1, -1], [1, -1], [0, 2], [-2, 0]]
        assert model.seed.check_compatibility() == {2: 4, 3: 4}


class TestLoop:
    def test_support(self, model):
        assert model.ell.support() == [(0, 0, -1, 1), (0, 0, 1, -1), (1, 1, -1, -1)]
        for alpha in model.ell.support():
            assert model.ell.coefficient(alpha) == QCoeff.one()

    def test_bar_invariant(self, model):
        assert model.ell.bar() == model.ell

    def test_degree_zero(self, model):
        assert model.grading(model.ell) == (0, 0)
        assert model.grading(TorusElement.zero(model.ell.form)) == (0, 0)

    def test_inhomogeneous_element_names_its_degrees(self, model):
        message = r"^element is not homogeneous: degrees \[\(1, 1\), \(2, 0\)\]$"
        with pytest.raises(ValueError, match=message):
            model.grading(model.a + model.x(0))

    def test_inhomogeneous_error_is_the_disc_class(self, model):
        with pytest.raises(InhomogeneousError) as exc:
            model.grading(model.x(0) + model.a)
        assert exc.value.degrees == [(1, 1), (2, 0)]

    def test_boundary_loops_are_central(self, model):
        for central in [model.a, model.b]:
            for other in [model.ell, model.x(0), model.x(3), model.x(-2), model.a * model.b]:
                assert central * other == other * central

    def test_loop_is_not_central(self, model):
        assert model.ell * model.x(0) != model.x(0) * model.ell


class TestClusterVariables:
    def test_initial_variables(self, model):
        assert model.x(0).support() == [(0, 0, 1, 0)]
        assert model.x(1).support() == [(0, 0, 0, 1)]

    def test_first_mutations(self, model):
        assert model.x(2).support() == [(0, 0, -1, 2), (1, 1, -1, 0)]
        assert model.x(-1).support() == [(0, 0, 2, -1), (1, 1, 0, -1)]

    def test_x5_support(self, model):
        assert model.x(5).support() == [
            (0, 0, -4, 5),
            (1, 1, -4, 3),
            (1, 1, -2, 1),
            (1, 1, 0, -1),
            (1, 1, 2, -3),
            (2, 2, -4, 1),
            (2, 2, -2, -1),
            (2, 2, 0, -3),
            (3, 3, -4, -1),
            (3, 3, -2, -3),
            (4, 4, -4, -3),
        ]

    def test_x_minus5_term_count(self, model):
        assert len(model.x(-5).support()) == 16

    def test_degrees(self, model):
        for i in range(-4, 6):
            assert model.grading(model.x(i)) == (1, 1)

    def test_bar_invariance(self, model):
        for i in range(-3, 5):
            assert model.x(i).bar() == model.x(i)

    def test_bound_guard(self):
        small = AnnulusModel(bound=2)
        with pytest.raises(ValueError):
            small.x(3)
        with pytest.raises(ValueError):
            small.x(-3)

    def test_mutation_matches_recurrence(self, model):
        assert model.seed.mutate(2).frame[2] == model.x(2)
        assert model.seed.mutate(3).frame[3] == model.x(-1)


class TestIdentities:
    def test_all_identities_hold(self, model):
        results = model.verify_identities(irange=3)
        assert results
        failures = [r["name"] for r in results if not r["ok"]]
        assert failures == []

    def test_report_shape(self, model):
        results = model.verify_identities(irange=1)
        for r in results:
            assert set(r) == {"name", "ok", "lhs", "rhs"}

    def test_mutation_rows_read_the_membership_memo(self, monkeypatch):
        calls = []
        mutate = QuantumSeed.mutate

        def counting(seed, i):
            calls.append(i)
            return mutate(seed, i)

        monkeypatch.setattr(QuantumSeed, "mutate", counting)
        AnnulusModel(bound=6).verify_identities(irange=1)
        assert calls == [X0, X1]

    def test_a_variable_without_a_degree_is_reported_inhomogeneous(self, monkeypatch):
        grading = AnnulusModel.grading

        def ell_only(self, x):
            if x != self.ell:
                raise ValueError("injected")
            return grading(self, x)

        monkeypatch.setattr(AnnulusModel, "grading", ell_only)
        rows = AnnulusModel(bound=4).verify_identities(irange=1)
        rows = [r for r in rows if r["name"].startswith("deg(x_")]
        assert [r["name"] for r in rows] == ["deg(x_-1) = (1,1)", "deg(x_0) = (1,1)", "deg(x_1) = (1,1)"]
        for r in rows:
            assert (r["ok"], r["lhs"], r["rhs"]) == (False, "inhomogeneous", "(1, 1)")

    def test_quasi_commutation_of_consecutive_variables(self, model):
        for i in range(-2, 3):
            assert quasi_commutation_exponent(model.x(i), model.x(i + 1)) == -2


class TestIdentityPassOracle:
    """The shared-product pass gives the rows of the pass that shares nothing."""

    @pytest.mark.parametrize("bound, irange", [(8, k) for k in range(6)] + [(11, 8)])
    def test_rows_match_oracle(self, bound, irange):
        rows = AnnulusModel(bound=bound).verify_identities(irange=irange)
        assert rows == oracle_identities(AnnulusModel(bound=bound), irange)
        assert all(r["ok"] for r in rows)

    def test_report_digest_is_pinned(self):
        # sha256 of the 146-row report at range 8, recorded before the pass
        # shared x_(i+1) x_(i+2) with the next step and rendered from a table.
        rows = AnnulusModel(bound=11).verify_identities(irange=8)
        assert len(rows) == 146
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert digest == "53fe3827968c230e89429e531f114e257fffa9601bd051b29fbc5bb864e3bb7a"

    @staticmethod
    def broken(x2):
        """A model whose x_2 is replaced by x2(model) after x_-6 ... x_6 are built."""
        model = AnnulusModel(bound=6)
        model.x(6)
        model.x(-6)
        model._x[2] = x2(model)
        return model

    def test_failing_identity_renders_its_own_rhs(self):
        broken = self.broken(lambda m: m.x(2).shift(2))
        rows = broken.verify_identities(irange=2)
        assert rows == oracle_identities(broken, 2)
        by_name = {r["name"]: r for r in rows}
        x1, x2, ab, v = broken.x(1), broken.x(2), broken.a * broken.b, QCoeff.v
        for name, rhs in [
            ("x_0*x_2 = a*b + q^-2*x_1^2", ab + x1 * x1 * v(-4)),
            (
                "(x_1*x_2)*ell = q*x_1^2 + q^-1*a*b + q^-3*x_2^2",
                x1 * x1 * v(2) + ab * v(-2) + x2 * x2 * v(-6),
            ),
        ]:
            row = by_name[name]
            assert not row["ok"]
            assert row["rhs"] != row["lhs"]
            assert row["rhs"] == render_elt(rhs)

    def test_failing_swap_renders_its_shifted_rhs(self):
        # x_2 + q x_0 does not quasi-commute with x_1 as x_2 does, so the
        # one-part side q^-2 x_2 x_1 fails.
        broken = self.broken(lambda m: m.x(2) + m.x(0).shift(2))
        rows = broken.verify_identities(irange=2)
        assert rows == oracle_identities(broken, 2)
        row = next(r for r in rows if r["name"] == "x_1*x_2 = q^-2*x_2*x_1")
        assert not row["ok"]
        assert row["rhs"] != row["lhs"]
        assert row["rhs"] == render_elt(broken.x(2) * broken.x(1) * QCoeff.v(-4))


SIDE_FORM = AnnulusModel(bound=1).form
side_elements = st.dictionaries(
    st.tuples(*[st.integers(-1, 1)] * 4),
    st.dictionaries(st.integers(-3, 3), st.integers(-2, 2).filter(bool), min_size=1, max_size=3),
    max_size=4,
).map(lambda t: TorusElement(SIDE_FORM, {a: QCoeff(c) for a, c in t.items()}))
side_parts = st.lists(
    st.tuples(side_elements, st.integers(-4, 4), st.sampled_from([1, -1])), min_size=1, max_size=3
)


class TestSideComparison:
    """side_equals compares a sum of parts term by term as == compares the built sum."""

    @staticmethod
    def built(parts):
        """The sum of sign * v^k * x over parts, by element arithmetic."""
        out = TorusElement.zero(SIDE_FORM)
        for x, k, sign in parts:
            out = out + x.shift(k) if sign == 1 else out - x.shift(k)
        return out

    @staticmethod
    def mono(alpha, k=0, c=1):
        return TorusElement.monomial(SIDE_FORM, alpha, QCoeff.from_int(c) * QCoeff.v(k))

    @given(side_parts, side_elements, st.booleans())
    @settings(max_examples=200)
    def test_agrees_with_the_built_sum(self, parts, noise, perturb):
        built = self.built(parts)
        assert side_sum(parts) == built
        for lhs in [built, built + noise if perturb else noise]:
            assert side_equals(lhs, parts) == (lhs == built)

    def test_a_sum_that_cancels_at_one_exponent(self):
        x = self.mono((1, 0, 0, 0), 1) + self.mono((0, 1, 0, 0))
        y = self.mono((1, 0, 0, 0), -1) + self.mono((0, 0, 1, 0))
        parts = [(x, -2, 1), (y, 0, -1)]
        lhs = self.mono((0, 1, 0, 0), -2) - self.mono((0, 0, 1, 0))
        assert side_equals(lhs, parts)
        assert not side_equals(lhs + self.mono((1, 0, 0, 0), -1), parts)
        assert side_sum(parts) == lhs == self.built(parts)

    def test_a_key_only_on_the_left(self):
        x = self.mono((1, 0, 0, 0), 2)
        lhs = x.shift(1) + self.mono((0, 0, 0, 1))
        assert not side_equals(lhs, [(x, 1, 1)])
        assert side_equals(lhs, [(x, 1, 1), (self.mono((0, 0, 0, 1), 3), -3, 1)])

    def test_a_key_only_in_one_part(self):
        x = self.mono((1, 0, 0, 0)) + self.mono((0, 1, 0, 0), 2)
        y = self.mono((1, 0, 0, 0), 3)
        parts = [(x, 0, 1), (y, -3, -1)]
        assert side_equals(self.mono((0, 1, 0, 0), 2), parts)
        assert not side_equals(TorusElement.zero(SIDE_FORM), parts)
        assert not side_equals(self.mono((0, 1, 0, 0), 2), [(x, 0, 1)])

    def test_one_coefficient_off_by_one(self):
        x = self.mono((1, 0, 0, 0), 0, 3) + self.mono((0, 1, 0, 0), 2, -2)
        parts = [(x, 1, -1)]
        lhs = self.built(parts)
        assert side_equals(lhs, parts)
        for alpha, k in [((1, 0, 0, 0), 1), ((0, 1, 0, 0), 3), ((1, 0, 0, 0), 0)]:
            for c in [1, -1]:
                assert not side_equals(lhs + self.mono(alpha, k, c), parts)


class TestUnrenderedPass:
    """render=False keeps each row's name, verdict and place, and no text."""

    @staticmethod
    def assert_same_verdicts(model, irange):
        rendered = model.verify_identities(irange=irange)
        bare = model.verify_identities(irange=irange, render=False)
        assert bare == [{"name": r["name"], "ok": r["ok"]} for r in rendered]

    @pytest.mark.parametrize("irange", range(9))
    def test_rows_match_the_rendered_pass(self, irange):
        self.assert_same_verdicts(AnnulusModel(bound=11), irange)

    def test_failing_identity_keeps_its_verdict(self):
        broken = TestIdentityPassOracle.broken(lambda m: m.x(2).shift(2))
        self.assert_same_verdicts(broken, 2)
        rows = broken.verify_identities(irange=2, render=False)
        assert {"name": "x_0*x_2 = a*b + q^-2*x_1^2", "ok": False} in rows

    def test_pass_memory_is_bounded(self):
        # tracemalloc peak of the range-8 pass with every x_i built: 2.38 MiB
        # when each summed side was built to compare it and five large
        # products could be alive at once, 1.31 MiB with sides compared
        # term by term and at most three products alive.
        model = AnnulusModel(bound=11)
        for i in range(-11, 12):
            model.x(i)
        tracemalloc.start()
        try:
            rows = model.verify_identities(irange=8, render=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r["ok"] for r in rows)
        assert peak < 1.9 * 2**20, f"{peak / 2**20:.2f} MiB peak"


class TestSharedCore:
    """The annulus elements print and specialise as the old per-module code did."""

    @pytest.fixture(scope="class")
    def elements(self):
        model = AnnulusModel(bound=8)
        return [model.x(i) for i in range(-8, 9)] + [
            model.ell,
            model.a * model.b,
            model.ell.shift(3) - model.x(2),
            TorusElement.zero(model.form),
        ]

    def test_str_and_repr_match_old_renderers(self, elements):
        for x in elements:
            assert str(x) == render_elt(x)
            assert repr(x) == torus_repr(x)

    def test_specialize_q1_matches_old_specialiser(self):
        # The inputs of verify.check_q1's annulus part.
        model = AnnulusModel(bound=4)
        for i in range(-2, 3):
            for x in [
                model.x(i - 1) * model.x(i + 1),
                model.x(i) * model.x(i) + model.a * model.b,
                model.ell * model.x(i),
                model.x(i - 1) + model.x(i + 1),
                model.x(i) - model.x(i),
            ]:
                assert x.specialize_q1() == spec_torus(x)
