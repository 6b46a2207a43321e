"""Exact arithmetic in a free commutative monoid of monomial labels.

Monomials are integer exponent vectors over named generators; the unit is
the empty vector and zero is not representable.  The group completion
(Laurent monomials) backs the symbolic substitution checks used by chart
presentations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered, distinct generator names of the base.

    ``nc`` declares the base normal-crossings: graph labels over it are
    expected to be pairwise distinct single generators.
    """

    names: tuple[str, ...] = ()
    nc: bool = False

    def __post_init__(self) -> None:
        # Kept in ``__dict__``, outside the fields that equality and hashing
        # read, so that a membership test is one lookup, not a scan.
        known = self.__dict__["_known"] = frozenset(self.names)
        if len(known) != len(self.names):
            raise ValueError(f"duplicate generator names in {self.names!r}")

    def __contains__(self, name: str) -> bool:
        return name in self._known

    def restrict(self, keep: Iterable[str]) -> "GeneratorSet":
        keep = set(keep)
        return GeneratorSet(tuple(n for n in self.names if n in keep), self.nc)


@dataclass(frozen=True)
class Monomial:
    """A monomial label: finitely many generators with exponents >= 1.

    The empty exponent vector is the unit.  Instances are immutable and
    hashable; construction normalises nothing away, so exponents must be
    positive up front.  Derived facts (``support``, ``primitive_part``) are
    computed once and kept in the instance's ``__dict__``, outside the
    fields that equality and hashing read.
    """

    exps: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        names = [g for g, _ in self.exps]
        if names != sorted(names) or len(set(names)) != len(names):
            raise ValueError("exponent entries must be sorted by distinct generator")
        for g, e in self.exps:
            if e < 1:
                raise ValueError(f"exponent of {g!r} must be >= 1, got {e}")

    @classmethod
    def unit(cls) -> "Monomial":
        return cls(())

    @classmethod
    def generator(cls, name: str, exponent: int = 1) -> "Monomial":
        return cls(((name, exponent),))

    @classmethod
    def from_dict(cls, mapping: Mapping[str, int]) -> "Monomial":
        return cls(tuple(sorted((g, int(e)) for g, e in mapping.items())))

    @property
    def is_unit(self) -> bool:
        return not self.exps

    @cached_property
    def support(self) -> frozenset[str]:
        return frozenset(g for g, _ in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        acc = dict(self.exps)
        for g, e in other.exps:
            acc[g] = acc.get(g, 0) + e
        return Monomial(tuple(sorted(acc.items())))

    def pow(self, k: int) -> "Monomial":
        if k < 0:
            raise ValueError("monomial powers must be non-negative")
        if k == 0:
            return Monomial.unit()
        return Monomial(tuple((g, e * k) for g, e in self.exps))

    def restrict(self, keep: Iterable[str]) -> "Monomial":
        """Drop generators outside ``keep`` (they act as unit factors).

        Returns ``self`` when nothing is dropped, so restricted graphs share
        their labels with the source.
        """
        keep = frozenset(keep)
        if self.support <= keep:
            return self
        return Monomial(tuple((g, e) for g, e in self.exps if g in keep))

    def __str__(self) -> str:
        if not self.exps:
            return "1"
        return "*".join(g if e == 1 else f"{g}^{e}" for g, e in self.exps)


def primitive_part(m: Monomial) -> tuple[Monomial, int]:
    """Write a non-unit monomial as p^k with p primitive; return (p, k).

    The gcd k, and p when it is not m, are kept on m, so every later call
    shares one p.  A primitive m keeps no reference to itself: it is freed
    by reference counting alone.
    """
    found = m.__dict__.get("_primitive_part")
    if found is None:
        if m.is_unit:
            raise ValueError("the unit monomial has no primitive part")
        k = math.gcd(*(e for _, e in m.exps))
        p = None if k == 1 else Monomial(tuple((g, e // k) for g, e in m.exps))
        found = m.__dict__["_primitive_part"] = (p, k)
    p, k = found
    return (m if p is None else p), k


def _is_nc_label(m: Monomial) -> bool:
    """True iff m is a single generator with exponent 1 (a normal-crossings label)."""
    return len(m.exps) == 1 and m.exps[0][1] == 1


def primitive_root(ms: Sequence[Monomial]) -> Optional[tuple[Monomial, list[int]]]:
    """Common primitive root of a non-empty list of non-unit monomials.

    Returns (p, mults) with every ms[i] == p.pow(mults[i]) and the gcd of
    p's exponents equal to 1, or None when no common root exists.  Unit
    entries are rejected: a unit admits every root, so callers must filter
    them out first.
    """
    if not ms:
        raise ValueError("primitive_root needs at least one monomial")
    if any(m.is_unit for m in ms):
        raise ValueError("unit labels have no primitive root; filter them first")
    # m is a power of the primitive p exactly when m's own primitive part
    # is p, and the power is then m's exponent gcd.
    p, _ = primitive_part(ms[0])
    mults = []
    for m in ms:
        q, k = primitive_part(m)
        if q != p:
            return None
        mults.append(k)
    return p, mults


def power_equivalent(a: Monomial, b: Monomial) -> bool:
    """True iff a^n == b^n' for some positive n, n'.

    For exponent vectors this says the vectors are positive rational
    multiples of one another.  Unit inputs are rejected.
    """
    if a.is_unit or b.is_unit:
        raise ValueError("power equivalence is only defined for non-unit labels")
    return primitive_part(a)[0] == primitive_part(b)[0]


@dataclass(frozen=True)
class Valuation:
    """Non-negative integer values on generators, extended additively."""

    values: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        names = [g for g, _ in self.values]
        # Kept in ``__dict__`` like GeneratorSet's name set: one lookup per
        # generator, not a scan.
        table = self.__dict__["_table"] = dict(self.values)
        if names != sorted(names) or len(table) != len(names):
            raise ValueError("valuation entries must be sorted by distinct generator")
        for g, v in self.values:
            if v < 0:
                raise ValueError(f"valuation of {g!r} must be >= 0, got {v}")

    @classmethod
    def from_dict(cls, mapping: Mapping[str, int]) -> "Valuation":
        return cls(tuple(sorted((g, int(v)) for g, v in mapping.items())))

    def value(self, gen: str) -> int:
        try:
            return self._table[gen]
        except KeyError:
            raise ValueError(f"valuation is missing generator {gen!r}") from None

    def of(self, m: Monomial) -> int:
        """Sum of exponent * value over the monomial's support."""
        return sum(e * self.value(g) for g, e in m.exps)


@dataclass(frozen=True)
class LaurentMonomial:
    """Monomial with integer (possibly negative) exponents; zero entries dropped."""

    exps: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        names = [g for g, _ in self.exps]
        if names != sorted(names) or len(set(names)) != len(names):
            raise ValueError("exponent entries must be sorted by distinct variable")
        if any(e == 0 for _, e in self.exps):
            raise ValueError("zero exponents must not be stored")

    @classmethod
    def one(cls) -> "LaurentMonomial":
        return cls(())

    @classmethod
    def from_monomial(cls, m: Monomial) -> "LaurentMonomial":
        return cls(m.exps)

    @property
    def is_one(self) -> bool:
        return not self.exps

    def __mul__(self, other: "LaurentMonomial") -> "LaurentMonomial":
        acc = dict(self.exps)
        for g, e in other.exps:
            acc[g] = acc.get(g, 0) + e
            if acc[g] == 0:
                del acc[g]
        return LaurentMonomial(tuple(sorted(acc.items())))

    def pow(self, k: int) -> "LaurentMonomial":
        if k == 0:
            return LaurentMonomial.one()
        return LaurentMonomial(tuple((g, e * k) for g, e in self.exps))

    def __str__(self) -> str:
        if not self.exps:
            return "1"
        return "*".join(g if e == 1 else f"{g}^{e}" for g, e in self.exps)
