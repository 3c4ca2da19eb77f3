"""The subjects the tests replay laws on, each family built once per session.

Every family is labelled and comes in a fixed order, so a seeded draw over
one reads the same subjects on every run.  ``labelled``, ``posets`` and
``categories`` take the one size n, as they are counted per size; the
other families take every size up to n.
"""

import contextlib
import functools
import itertools

from ehresmann import (
    FiniteCategory,
    FiniteOrderedCategory,
    PartialOrder,
    StructureError,
    check_omega_structured,
    derive_orders,
    zoo,
)
from ehresmann.core import Evaluation
from ehresmann.orders import _ehresmann_orders


@functools.cache
def labelled(n):
    """The labelled Ehresmann semigroups of size n in stream order: 1, 6, 78 and 1,708."""
    return tuple(zoo.enumerate_ehresmann_semigroups(n, allow_large=True))


@functools.cache
def structures(n, zoo_max=0):
    """Every labelled Ehresmann semigroup of size at most n, by size, then the
    structure of each zoo entry of at most ``zoo_max`` elements."""
    if zoo_max:
        return structures(n) + tuple(entry.structure for entry in zoo_entries(zoo_max))
    return tuple(s for k in range(1, n + 1) for s in labelled(k))


@functools.cache
def leaders(n):
    """The least structure of each isomorphism class of size at most n: 1, 3, 15 and 87 of each size."""
    return tuple(s for k in range(1, n + 1) for s in zoo.enumerate_ehresmann_semigroups(k, True, allow_large=True))


@functools.cache
def ordered(n, zoo_max=0):
    """Every structure of size at most n under each of its Ehresmann orders, as
    the package's order search builds them (204 at n = 3, 10,147 at n = 4),
    then each zoo entry of at most ``zoo_max`` elements under each of its orders."""
    if zoo_max:
        return ordered(n) + tuple(e.ordered(name) for e in zoo_entries(zoo_max) for name in e.order_names())
    return tuple(osg for s in structures(n) for osg in _ehresmann_orders(s, Evaluation()))


def with_derived(s, orders):
    """``orders`` and then the derived orders <=_l, <=_r and <=_e of ``s``."""
    derived = derive_orders(s)
    return [*orders, derived.leq_l, derived.leq_r, derived.leq_e]


@functools.cache
def zoo_entries(max_n):
    """The zoo entries of at most ``max_n`` elements: those of ``zoo.SWEEP_NAMES``
    (all of at most 16 but orderless-band, which has no order) first."""
    entries = map(zoo.get, dict.fromkeys((*zoo.SWEEP_NAMES, *zoo.names())))
    return tuple(entry for entry in entries if entry.structure.n <= max_n)


def zoo_orders(max_n):
    """Each of those entries' structures with its catalogued and derived orders."""
    return [(e.structure, with_derived(e.structure, [order for _, order in e.orders])) for e in zoo_entries(max_n)]


@functools.cache
def posets(n):
    """Every partial order on 0..n-1: 1, 1, 3, 19 and 219 for n = 0..4."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    found = []
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        rel = [[a == b for b in range(n)] for a in range(n)]
        for (a, b), on in zip(pairs, chosen):
            rel[a][b] = on
        with contextlib.suppress(StructureError):
            found.append(PartialOrder(n, rel))
    return tuple(found)


@functools.cache
def categories(n):
    """Every category on the arrows 0..n-1: 1, 5, 52 and 973 for n = 1..4.

    D maps onto its fixed points, the identities, where R agrees with it;
    x o R(x) = x = D(x) o x is fixed, and each other composite takes a
    value in its hom-set, cell by cell, backtracking as soon as a triple
    whose four products are filled does not associate."""
    found = []
    for dmap in itertools.product(range(n), repeat=n):
        ids = [x for x in range(n) if dmap[x] == x]
        for rmap in itertools.product(ids, repeat=n):
            if set(dmap) <= set(ids) and all(rmap[e] == e for e in ids):
                found += _compositions(n, dmap, rmap)
    return tuple(found)


def _compositions(n, dmap, rmap):
    # -1 marks a composite not filled yet, None one that is undefined
    comp = [[(x if y == rmap[x] else y if x == dmap[y] else -1) if rmap[x] == dmap[y] else None
             for y in range(n)] for x in range(n)]
    cells = [(x, y) for x in range(n) for y in range(n) if comp[x][y] == -1]
    triples = [(a, b, c) for a, b, c in itertools.product(range(n), repeat=3)
               if rmap[a] == dmap[b] and rmap[b] == dmap[c]]

    def associative():
        for a, b, c in triples:
            ab, bc = comp[a][b], comp[b][c]
            if ab >= 0 and bc >= 0 and -1 != comp[ab][c] != comp[a][bc] != -1:
                return False
        return True

    def fill(i):
        if i == len(cells):
            yield FiniteCategory(n, dmap, rmap, comp)
            return
        x, y = cells[i]
        for v in range(n):
            comp[x][y] = v
            if dmap[v] == dmap[x] and rmap[v] == rmap[y] and associative():
                yield from fill(i + 1)
        comp[x][y] = -1

    return fill(0)


@functools.cache
def ordered_categories(n):
    """Every category on at most n arrows under every partial order: 1,004 at n = 3."""
    return tuple(FiniteOrderedCategory(c, order) for k in range(1, n + 1) for c in categories(k) for order in posets(k))


@functools.cache
def omega_structured(n):
    """Those of ``ordered_categories(n)`` where OC1-OC3 hold."""
    return tuple(c for c in ordered_categories(n) if check_omega_structured(c).holds)


def relabelled(perm, table, *maps):
    """``table`` and ``maps`` with each element x renamed perm[x], every new
    entry read at the old names of its indices."""
    old = sorted(range(len(perm)), key=perm.__getitem__)
    return (tuple(tuple(perm[table[a][b]] for b in old) for a in old), *(tuple(perm[m[a]] for a in old) for m in maps))
