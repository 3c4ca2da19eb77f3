"""Single-entry mutations of the sweep structures through every entry point.

A mutation sets one product, one D value or one R value of a
``zoo.SWEEP_NAMES`` structure to another element, and keeps one of the
structure's orders.  Most such inputs are not Ehresmann, not ordered
Ehresmann or not even associative, so each entry point must either
answer or refuse the input with a ``WorkbenchError``; no other exception
may escape.  Every failing law report met replays through its formula;
the biaction's, whose axioms have no formula, is not replayed.
"""

import collections

import formulas
from hypothesis import given, settings
from hypothesis import strategies as st

from ehresmann import (
    FiniteBiunarySemigroup,
    OrderedSemigroup,
    WorkbenchError,
    category_of,
    derive_biaction,
    derive_orders,
    enumerate_ehresmann_orders,
    esn_round_trip,
    verify_biaction,
    zoo,
)
from ehresmann.category import FiniteCategory, FiniteOrderedCategory
from ehresmann.core import Evaluation, ladder


@st.composite
def mutations(draw):
    """(n, mul, dmap, rmap, order) with one entry of the table, D or R changed."""
    name = draw(st.sampled_from(zoo.SWEEP_NAMES))
    entry = zoo.get(name)
    s = entry.structure
    point = st.integers(0, s.n - 1)
    mul, dmap, rmap = [list(row) for row in s.mul], list(s.dmap), list(s.rmap)
    where = draw(st.sampled_from(("table", "D", "R")))
    if where == "table":
        mul[draw(point)][draw(point)] = draw(point)
    else:
        (dmap if where == "D" else rmap)[draw(point)] = draw(point)
    return s.n, mul, dmap, rmap, entry.get_order(draw(st.sampled_from(entry.order_names())))


def test_only_workbench_errors_escape_on_single_entry_mutations():
    """1,500 drawn mutations; every step answers some, and the five that check
    a precondition or validate a table refuse some.  Every law of the three
    ladders fails, and replays, on some of them."""
    seen, replayed = collections.Counter(), collections.Counter()

    def attempt(step: str, f, *args):
        """``f(*args)``, or None when it refuses its input with a WorkbenchError."""
        try:
            out = f(*args)
        except WorkbenchError:
            seen[step, "refused"] += 1
            return None
        seen[step, "answered"] += 1
        return out

    def decide(kind: str, subject) -> None:
        ev = Evaluation()
        for law in ladder(kind):
            rep = attempt(kind, ev, law.key, subject)
            if rep is not None and not rep.holds:
                formulas.replay(rep, subject)
                replayed[law.key] += rep.witness is not None
        if kind == "category":
            b = attempt("derive_biaction", derive_biaction, subject)
            if b is not None:
                attempt("verify_biaction", verify_biaction, subject, b)

    @settings(max_examples=1500)
    @given(mutations())
    def run(mutation):
        n, mul, dmap, rmap, order = mutation
        s = attempt("FiniteBiunarySemigroup", FiniteBiunarySemigroup, n, mul, dmap, rmap)
        os = s and attempt("OrderedSemigroup", OrderedSemigroup, s, order)
        if os is None:
            return
        decide("semigroup", s)
        attempt("derive_orders", derive_orders, s)
        attempt("enumerate_ehresmann_orders", enumerate_ehresmann_orders, s)
        decide("ordered", os)
        attempt("esn_round_trip", esn_round_trip, os)
        c = attempt("category_of", category_of, os)
        if c is not None:
            decide("category", c)
        # the products with R(x) = D(y) as a category of their own, whether
        # or not the mutated structure is Ehresmann
        comp = [[mul[x][y] if rmap[x] == dmap[y] else None for y in range(n)] for x in range(n)]
        c0 = attempt("FiniteCategory", FiniteCategory, n, dmap, rmap, comp)
        c = c0 and attempt("FiniteOrderedCategory", FiniteOrderedCategory, c0, order)
        if c is not None:
            decide("category", c)

    run()
    refused = {step for step, outcome in seen if outcome == "refused"}
    assert refused == {"FiniteCategory", "category_of", "derive_biaction", "derive_orders",
                       "enumerate_ehresmann_orders"}
    assert {step for step, outcome in seen if outcome == "answered"} == refused | {
        "FiniteBiunarySemigroup", "OrderedSemigroup", "FiniteOrderedCategory",
        "semigroup", "ordered", "category", "esn_round_trip", "verify_biaction"}
    assert {key for key, count in replayed.items() if count} == {
        law.key for kind in ("semigroup", "ordered", "category") for law in ladder(kind)}
