"""Known answers computed by brute force, independently of the package under test.

Nothing here imports ``ehresmann``.  A structure is read as plain tables
(``n``, ``mul``, ``dmap``, ``rmap`` and, where ordered, a boolean matrix
``rel``), so a defect in the package cannot leak into the answer it is
checked against.  Every decision is a direct transcription of the
definition, without pruning beyond early exit.
"""

from __future__ import annotations

import itertools


def labelled_posets(n: int) -> list[tuple[tuple[bool, ...], ...]]:
    """Every partial order on 0..n-1, as an n x n boolean matrix."""
    off = [(a, b) for a in range(n) for b in range(n) if a != b]
    out = []
    for bits in range(1 << len(off)):
        rel = [[a == b for b in range(n)] for a in range(n)]
        for i, (a, b) in enumerate(off):
            if bits >> i & 1:
                rel[a][b] = True
        if any(rel[a][b] and rel[b][a] for a, b in off):
            continue
        if any(
            rel[a][b] and rel[b][c] and not rel[a][c]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        ):
            continue
        out.append(tuple(tuple(row) for row in rel))
    return out


def is_localisable(n: int, mul, dmap, rmap) -> bool:
    """Associativity and the laws L1..L4."""
    r = range(n)
    if any(mul[mul[a][b]][c] != mul[a][mul[b][c]] for a in r for b in r for c in r):
        return False
    for x in r:
        if mul[dmap[x]][x] != x or mul[x][rmap[x]] != x:
            return False
        if dmap[rmap[x]] != rmap[x] or rmap[dmap[x]] != dmap[x]:
            return False
    for x in r:
        for y in r:
            if dmap[mul[x][y]] != dmap[mul[x][dmap[y]]]:
                return False
            if rmap[mul[x][y]] != rmap[mul[rmap[x]][y]]:
                return False
            p = mul[dmap[x]][dmap[y]]
            if dmap[p] != p:
                return False
    return True


def is_ehresmann(n: int, mul, dmap, rmap) -> bool:
    """Localisable with commuting projections."""
    if not is_localisable(n, mul, dmap, rmap):
        return False
    proj = set(dmap)
    return all(mul[e][f] == mul[f][e] for e in proj for f in proj)


def is_ehresmann_order(n: int, mul, dmap, rmap, rel) -> bool:
    """OS2, OS3, OS6 and OSI for ``rel`` on a localisable structure (OS1)."""
    proj = set(dmap)
    r = range(n)
    for a in r:
        for e in proj:
            if rel[a][e] and a not in proj:  # OSI
                return False
            if not rel[mul[a][e]][a] or not rel[mul[e][a]][a]:  # OS6
                return False
    pairs = [(a, b) for a in r for b in r if rel[a][b]]
    for a, b in pairs:  # OS2
        if not rel[dmap[a]][dmap[b]] or not rel[rmap[a]][rmap[b]]:
            return False
    for a, b in pairs:  # OS3
        for c, d in pairs:
            if not rel[mul[a][c]][mul[b][d]]:
                return False
    return True


def count_ehresmann_orders(n: int, mul, dmap, rmap, posets) -> int:
    """How many of ``posets`` are Ehresmann orders (OS1-OS3, OS6, OSI)."""
    if not is_localisable(n, mul, dmap, rmap):  # OS1
        return 0
    return sum(1 for rel in posets if is_ehresmann_order(n, mul, dmap, rmap, rel))


def count_ordered_homs(src, tgt) -> int:
    """Count the total maps src -> tgt preserving mul, D, R and the order.

    ``src`` and ``tgt`` are ``(n, mul, dmap, rmap, rel)`` tuples; every one
    of the ``tgt.n ** src.n`` maps is tried.
    """
    n1, mul1, d1, r1, rel1 = src
    n2, mul2, d2, r2, rel2 = tgt
    order_pairs = [(a, b) for a in range(n1) for b in range(n1) if a != b and rel1[a][b]]
    count = 0
    for f in itertools.product(range(n2), repeat=n1):
        if any(f[d1[a]] != d2[f[a]] or f[r1[a]] != r2[f[a]] for a in range(n1)):
            continue
        if any(not rel2[f[a]][f[b]] for a, b in order_pairs):
            continue
        if any(
            f[mul1[a][b]] != mul2[f[a]][f[b]] for a in range(n1) for b in range(n1)
        ):
            continue
        count += 1
    return count
