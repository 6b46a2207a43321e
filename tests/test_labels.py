import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphalign import Monomial, Valuation, power_equivalent, primitive_part, primitive_root

from strategies import mono, monomials, nonunit_monomials


def test_mul_adds_exponents():
    assert mono(x=1, y=2) * mono(x=1) == mono(x=2, y=2)
    assert Monomial.unit() * mono(x=1, y=2) == mono(x=1, y=2)
    assert mono(x=1) * mono(x=1) == mono(x=2)


def test_unit_and_support():
    assert Monomial.unit().is_unit
    assert not mono(x=1).is_unit
    assert mono(x=2, z=1).support == {"x", "z"}
    assert str(Monomial.unit()) == "1"
    assert str(mono(x=2, y=1)) == "x^2*y"


def test_monomial_rejects_nonpositive_exponents():
    with pytest.raises(ValueError):
        Monomial.from_dict({"x": 0})
    with pytest.raises(ValueError):
        Monomial.from_dict({"x": -1})


def test_pow():
    assert mono(x=1, y=2).pow(3) == mono(x=3, y=6)
    assert mono(x=1).pow(0) == Monomial.unit()
    with pytest.raises(ValueError):
        mono(x=1).pow(-1)


def test_primitive_root_examples():
    p, mults = primitive_root([mono(x=2, y=2), mono(x=4, y=4)])
    assert p == mono(x=1, y=1)
    assert mults == [2, 4]

    assert primitive_root([mono(x=1), mono(y=1)]) is None

    p, mults = primitive_root([mono(x=3)])
    assert p == mono(x=1)
    assert mults == [3]


def test_primitive_root_rejects_bad_input():
    with pytest.raises(ValueError):
        primitive_root([])
    with pytest.raises(ValueError):
        primitive_root([mono(x=1), Monomial.unit()])


def test_power_equivalent_examples():
    assert power_equivalent(mono(x=2, y=1), mono(x=4, y=2))
    assert not power_equivalent(mono(x=1), mono(y=1))
    assert not power_equivalent(mono(x=1, y=1), mono(x=2, y=1))
    with pytest.raises(ValueError):
        power_equivalent(Monomial.unit(), mono(x=1))


def test_valuation_examples():
    v = Valuation.from_dict({"x": 1, "y": 2})
    assert v.of(mono(x=2, y=1)) == 4
    assert v.of(Monomial.unit()) == 0
    assert Valuation.from_dict({"x": 0}).of(mono(x=5)) == 0
    with pytest.raises(ValueError):
        v.of(mono(z=1))


@given(nonunit_monomials())
def test_primitive_root_idempotent_on_primitives(m):
    p, _ = primitive_part(m)
    assert primitive_root([p]) == (p, [1])


@given(st.lists(nonunit_monomials(), min_size=1, max_size=4))
def test_primitive_root_iff_pairwise_equivalent(ms):
    pairwise = all(
        power_equivalent(a, b) for i, a in enumerate(ms) for b in ms[i + 1 :]
    )
    assert (primitive_root(ms) is not None) == pairwise


@given(nonunit_monomials(), st.integers(min_value=1, max_value=5))
def test_primitive_root_recovers_powers(m, k):
    p, base = primitive_part(m)
    found = primitive_root([m, m.pow(k)])
    assert found is not None
    assert found == (p, [base, base * k])


@given(monomials(), monomials(), st.fixed_dictionaries({"x": st.integers(0, 4), "y": st.integers(0, 4)}))
def test_valuation_additive(a, b, vals):
    v = Valuation.from_dict(vals)
    assert v.of(a * b) == v.of(a) + v.of(b)


class TestLaurent:
    def test_inverse_cancels(self):
        from graphalign import LaurentMonomial

        m = LaurentMonomial.from_monomial(mono(x=2, y=1))
        assert (m * m.pow(-1)).is_one
        assert m.pow(0).is_one

    def test_mixed_product(self):
        from graphalign import LaurentMonomial

        a = LaurentMonomial((("x", 3),))
        b = LaurentMonomial((("x", -3),)) * LaurentMonomial((("u", 1),))
        assert str(a * b) == "u"

    def test_zero_exponents_rejected(self):
        from graphalign import LaurentMonomial

        with pytest.raises(ValueError):
            LaurentMonomial((("x", 0),))
