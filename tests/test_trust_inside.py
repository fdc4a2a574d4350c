"""Values the library built are read as built: never re-checked, copied or
rebuilt.  Outside data still goes through ``raw_coeff`` at the door."""

import pytest

from qskein import qcoeff, qseed
from qskein._kernels import coeff_shift
from qskein.annulus import AnnulusModel
from qskein.disc import DiscElement, expand_laurent, triangulation_seed
from qskein.qcoeff import QCoeff, raw_coeff
from qskein.qtorus import SkewForm, TorusElement

FORM = SkewForm([[0, 1, -2], [-1, 0, 3], [2, -3, 0]])
FAN5 = ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5))


def test_library_values_do_not_pass_the_door_again(monkeypatch):
    x, y = QCoeff({1: 2, -3: 1}), QCoeff({0: -1, 4: 5})
    t = TorusElement(FORM, {(1, 0, 0): x, (0, 1, -1): y})
    d = DiscElement.basis(5, [(1, 3)]).scale(x)
    model = AnnulusModel(bound=2)
    x0, x1 = model.x(0), model.x(1)
    calls = []
    monkeypatch.setattr(qcoeff, "raw_coeff", lambda c: calls.append(c) or raw_coeff(c))
    values = [
        t.coefficient((1, 0, 0)),
        t.coefficient((2, 0, 0)),
        d.coefficient((((1, 3), 1),)),
        [c for _, c in t.terms()],
        x.bar(),
        x + y,
        x - y,
        x * y,
        -x,
        x.shift(3),
        x.shift(0),
        qseed.quasi_commutation_exponent(x0, x1),
    ]
    assert calls == []
    assert values == [
        x,
        0,
        x,
        [y, x],
        QCoeff({-1: 2, 3: 1}),
        QCoeff({1: 2, -3: 1, 0: -1, 4: 5}),
        QCoeff({1: 2, -3: 1, 0: 1, 4: -5}),
        QCoeff({1: 3, 5: 10, -3: -1}),
        QCoeff({1: -2, -3: -1}),
        QCoeff({4: 2, 0: 1}),
        x,
        -2,
    ]


def test_outside_data_still_passes_the_door(monkeypatch):
    calls = []
    monkeypatch.setattr(qcoeff, "raw_coeff", lambda c: calls.append(c) or raw_coeff(c))
    x, y = QCoeff({1: 2}), QCoeff({0: 2})
    values = [x * 3, qcoeff.exact_divide(x, y), qcoeff.parse("q - q")]
    # The constructor, a scalar, both operands of a division, a parsed sum.
    assert calls == [{1: 2}, {0: 2}, {0: 3}, x, y, {2: 0}]
    assert values == [QCoeff.v(1, 6), QCoeff.v(1), 0]


def test_a_shift_by_zero_is_its_argument():
    a = {3: 1, -1: -2}
    assert coeff_shift(a, 0) is a
    assert coeff_shift(a, 2) == {5: 1, 1: -2} and a == {3: 1, -1: -2}


def test_the_annulus_model_reads_its_seed_frame():
    model = AnnulusModel(bound=1)
    frame = model.seed.frame
    assert model.a is frame[0]
    assert model.b is frame[1]
    assert model.x(0) is frame[2]
    assert model.x(1) is frame[3]


def test_quasi_commutation_reads_the_products_own_terms(monkeypatch):
    seed = triangulation_seed(5, FAN5)
    chords = [expand_laurent(DiscElement.basis(5, [c]), FAN5) for c in [(1, 3), (1, 4)]]
    expected = [
        qseed.quasi_commutation_exponent(f, g)
        for f, g in [(seed.frame[0], seed.frame[4]), (seed.frame[1], seed.frame[2]), tuple(chords)]
    ]

    def refuse(*args):
        raise AssertionError("coefficient() and support() are not read")

    monkeypatch.setattr(TorusElement, "coefficient", refuse)
    monkeypatch.setattr(TorusElement, "support", refuse)
    model = AnnulusModel(bound=2)
    assert qseed.quasi_commutation_exponent(model.x(0), model.x(1)) == -2
    assert qseed.quasi_commutation_exponent(model.a, model.x(0)) == 0
    zero = TorusElement.zero(model.form)
    assert qseed.quasi_commutation_exponent(zero, model.ell) == 0
    got = [
        qseed.quasi_commutation_exponent(f, g)
        for f, g in [(seed.frame[0], seed.frame[4]), (seed.frame[1], seed.frame[2]), tuple(chords)]
    ]
    assert got == expected
    with pytest.raises(qseed.CompatibilityError, match="do not quasi-commute"):
        qseed.quasi_commutation_exponent(model.x(0), model.x(0) + model.x(1))
