"""Fixtures shared by the test modules."""

import pytest

from ehresmann import FiniteBiunarySemigroup


@pytest.fixture
def n5_0213():
    """The 5-element class n5-0213 of the n = 5 class sweep, one of the two
    smallest Ehresmann semigroups that are not de Barros (the other is its dual)."""
    mul = ((0, 0, 0, 0, 0), (0, 1, 0, 1, 4), (2, 2, 2, 2, 2), (0, 1, 2, 3, 4), (4, 4, 4, 4, 4))
    return FiniteBiunarySemigroup(5, mul, (3, 3, 2, 3, 3), (2, 3, 2, 3, 2))
