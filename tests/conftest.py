"""Fixtures shared by the test modules."""

import pytest
from hypothesis import settings

from ehresmann import FiniteBiunarySemigroup

# every run draws the same examples, so a failure in a CI log reproduces from
# it, and nothing is written to a .hypothesis/ example database
settings.register_profile("workbench", derandomize=True, database=None, deadline=None)
settings.load_profile("workbench")


@pytest.fixture
def n5_0213():
    """The 5-element class n5-0213 of the n = 5 class sweep, one of the two
    smallest Ehresmann semigroups that are not de Barros (the other is its dual)."""
    mul = ((0, 0, 0, 0, 0), (0, 1, 0, 1, 4), (2, 2, 2, 2, 2), (0, 1, 2, 3, 4), (4, 4, 4, 4, 4))
    return FiniteBiunarySemigroup(5, mul, (3, 3, 2, 3, 3), (2, 3, 2, 3, 2))
