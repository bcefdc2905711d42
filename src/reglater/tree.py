"""The discrete two-asset tree, in exact rational arithmetic.

It shows that a basket sum at an early date does not determine the
conditional expectation of a basket call: two time-1 nodes with the same sum
have different expectations.  The table is evaluated both by node recursion
and by flat leaf enumeration, and ``basket-check`` compares them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_HALF = Fraction(1, 2)
_TREE_TIME1 = (12, 6)  # both assets move from 10 to 12 or 6 with prob 1/2
_TREE_SUCC1 = {12: ((14, _HALF), (8, _HALF)), 6: ((6, _HALF), (6, _HALF))}
_TREE_SUCC2 = {12: ((14, _HALF), (8, _HALF)), 6: ((9, _HALF), (1, _HALF))}
_TREE_STRIKE = 10

# the time-1 conditional expectations the example is known for
REFERENCE_VALUES = {(12, 6): Fraction(25, 4), (6, 12): Fraction(7)}


def _tree_payoff(z1_final: int, z2_final: int) -> Fraction:
    return Fraction(max(0, z1_final + z2_final - _TREE_STRIKE))


@dataclass(frozen=True)
class BasketLeaf:
    """One full tree path: values of both assets at t=1 and t=2."""

    z1_values: tuple[int, int]
    z2_values: tuple[int, int]
    probability: Fraction

    @property
    def payoff(self) -> Fraction:
        return _tree_payoff(self.z1_values[1], self.z2_values[1])


@dataclass(frozen=True)
class BasketNodeValue:
    """Time-1 node with its exact conditional expectation of the payoff."""

    z1: int
    z2: int
    probability: Fraction
    expectation: Fraction


def basket_tree_leaf_enumeration() -> list[BasketLeaf]:
    """All 16 leaf paths (coin convention: two branches per node, possibly equal)."""
    leaves = []
    for z1 in _TREE_TIME1:
        for v1, p1 in _TREE_SUCC1[z1]:
            for z2 in _TREE_TIME1:
                for v2, p2 in _TREE_SUCC2[z2]:
                    prob = _HALF * p1 * _HALF * p2
                    leaves.append(BasketLeaf((z1, v1), (z2, v2), prob))
    assert len(leaves) == 16
    return leaves


def basket_tree_expectations() -> list[BasketNodeValue]:
    """Conditional expectations at t=1, by recursion over successor nodes."""
    rows = []
    for z1 in _TREE_TIME1:
        for z2 in _TREE_TIME1:
            total = Fraction(0)
            for v1, p1 in _TREE_SUCC1[z1]:
                for v2, p2 in _TREE_SUCC2[z2]:
                    total += p1 * p2 * _tree_payoff(v1, v2)
            rows.append(BasketNodeValue(z1, z2, _HALF * _HALF, total))
    return rows


def basket_tree_expectations_from_leaves() -> list[BasketNodeValue]:
    """Same table derived by grouping the flat leaf enumeration (oracle)."""
    groups: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    for leaf in basket_tree_leaf_enumeration():
        key = (leaf.z1_values[0], leaf.z2_values[0])
        mass, acc = groups.get(key, (Fraction(0), Fraction(0)))
        groups[key] = (mass + leaf.probability, acc + leaf.probability * leaf.payoff)
    return [BasketNodeValue(z1, z2, mass, acc / mass)
            for (z1, z2), (mass, acc) in sorted(groups.items(), reverse=True)]
