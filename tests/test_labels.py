import gc
import math
import weakref
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphalign import (
    GeneratorSet,
    Monomial,
    Valuation,
    power_equivalent,
    primitive_part,
    primitive_root,
)

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


def test_lookup_tables_stay_out_of_equality():
    # Generator sets and valuations answer lookups from a set and a dict
    # built once, which equality, hashing and repr do not read.
    gens = GeneratorSet(("x", "y"))
    assert "x" in gens and "z" not in gens
    assert gens == GeneratorSet(("x", "y")) and hash(gens) == hash(GeneratorSet(("x", "y")))
    assert repr(gens) == "GeneratorSet(names=('x', 'y'), nc=False)"
    with pytest.raises(ValueError, match=r"duplicate generator names in \('x', 'x'\)"):
        GeneratorSet(("x", "x"))
    v = Valuation.from_dict({"x": 2, "y": 0})
    assert (v.value("x"), v.value("y")) == (2, 0)
    assert v == Valuation.from_dict({"y": 0, "x": 2}) and repr(v) == "Valuation(values=(('x', 2), ('y', 0)))"
    with pytest.raises(ValueError, match="valuation is missing generator 'z'"):
        v.value("z")
    with pytest.raises(ValueError, match="sorted by distinct generator"):
        Valuation((("x", 1), ("x", 2)))


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


class TestCachedFacts:
    """Derived facts live in the instance's __dict__, outside equality and hash."""

    def test_equality_and_hash_ignore_cached_facts(self):
        cached, fresh = mono(x=2, y=4), mono(x=2, y=4)
        assert cached.support == {"x", "y"}
        assert primitive_part(cached) == (mono(x=1, y=2), 2)
        assert {"support", "_primitive_part"} <= set(cached.__dict__)
        assert "support" not in fresh.__dict__
        assert cached == fresh
        assert hash(cached) == hash(fresh)
        assert len({cached, fresh}) == 1
        assert repr(cached) == repr(fresh)

    @given(nonunit_monomials(max_exp=4))
    def test_primitive_part_is_computed_once(self, m):
        m = Monomial(m.exps)
        with mock.patch.object(math, "gcd", wraps=math.gcd) as gcd:
            first = primitive_part(m)
            second = primitive_part(m)
        assert gcd.call_count == 1
        assert second == first and second[0] is first[0]
        p, k = first
        assert p.pow(k) == m
        assert primitive_part(p) == (p, 1)

    @given(nonunit_monomials(max_exp=4))
    def test_labels_are_freed_by_reference_counting(self, m):
        m = Monomial(m.exps)
        p, _ = primitive_part(m)
        refs = [weakref.ref(m), weakref.ref(p)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            del m, p
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()

    def test_unit_still_has_no_primitive_part(self):
        with pytest.raises(ValueError):
            primitive_part(Monomial.unit())
        with pytest.raises(ValueError):
            primitive_part(Monomial.unit())

    @given(
        monomials(gens=("x", "y", "z"), max_exp=3),
        st.sets(st.sampled_from(["w", "x", "y", "z"])),
    )
    def test_restrict_drops_exactly_the_other_generators(self, m, keep):
        restricted = m.restrict(keep)
        assert restricted == Monomial.from_dict({g: e for g, e in m.exps if g in keep})
        assert (restricted is m) == (m.support <= keep)
        assert m.restrict(list(keep)) == restricted


@given(nonunit_monomials(gens=("x", "y", "z"), max_exp=3), st.lists(st.integers(1, 4), min_size=1, max_size=4))
def test_primitive_root_of_powers_of_one_primitive(m, ks):
    p, _ = primitive_part(m)
    found = primitive_root([p.pow(k) for k in ks])
    assert found == (p, ks)
    assert math.gcd(*(e for _, e in found[0].exps)) == 1
