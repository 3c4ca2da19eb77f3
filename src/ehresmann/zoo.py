"""Named example structures, generic generators, and exhaustive enumeration.

rel-k, pt-k and inj-k are sets of relations on k points, each a k*k-bit
mask (bit i*k+j set when the pair (i, j) is in the relation), built by one
constructor; a partial map keeps its image-tuple name, - where undefined.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Iterator

from .core import FiniteBiunarySemigroup, StructureError, TooLargeError, _trusted
from .orders import OrderedSemigroup, PartialOrder


@dataclass(frozen=True)
class ZooEntry:
    """A catalogued structure with zero or more named orders attached."""

    name: str
    structure: FiniteBiunarySemigroup
    orders: tuple[tuple[str, PartialOrder], ...]
    provenance: str

    def order_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.orders)

    def get_order(self, name: str | None = None) -> PartialOrder:
        if not self.orders:
            raise StructureError(f"example {self.name} carries no order")
        if name is None:
            return self.orders[0][1]
        for oname, order in self.orders:
            if oname == name:
                return order
        raise StructureError(f"example {self.name} has no order named {name!r}")

    def ordered(self, name: str | None = None) -> OrderedSemigroup:
        return OrderedSemigroup(self.structure, self.get_order(name))


def example_two_element_monoid() -> ZooEntry:
    """The two-element monoid with zero, D = R = 1, and its two Ehresmann orders."""
    s = FiniteBiunarySemigroup(
        2, ((0, 0), (0, 1)), (1, 1), (1, 1), names=("0", "1")
    )
    leq1 = PartialOrder.from_pairs(2, [(1, 0)])
    leq2 = PartialOrder.equality(2)
    return ZooEntry(
        "two-element-monoid",
        s,
        (("leq1", leq1), ("leq2", leq2)),
        provenance="ehresmann-order",
    )


def example_orderless_band() -> ZooEntry:
    """A six-element band of transformations admitting no Ehresmann order."""
    # elements: c, d, Px, Py, Pz, 1 (indices 0..5)
    mul = (
        (0, 0, 2, 3, 4, 0),
        (1, 1, 2, 3, 4, 1),
        (2, 2, 2, 3, 4, 2),
        (3, 3, 2, 3, 4, 3),
        (2, 3, 2, 3, 4, 4),
        (0, 1, 2, 3, 4, 5),
    )
    dmap = (5, 5, 4, 4, 4, 5)
    rmap = (5, 5, 5, 5, 4, 5)
    s = FiniteBiunarySemigroup(6, mul, dmap, rmap, names=("c", "d", "Px", "Py", "Pz", "1"))
    return ZooEntry("orderless-band", s, (), provenance="ehresmann")


def example_zero_one_nabla() -> ZooEntry:
    """Empty, diagonal, and full relation on two points, under inclusion."""
    mul = ((0, 0, 0), (0, 1, 2), (0, 2, 2))
    s = FiniteBiunarySemigroup(3, mul, (0, 1, 1), (0, 1, 1), names=("0", "1", "nabla"))
    incl = PartialOrder.from_pairs(3, [(0, 1), (1, 2)])
    return ZooEntry("zero-one-nabla", s, (("inclusion", incl),), provenance="ehresmann-order")


def _relations(name: str, k: int, masks: list[int], names: tuple[str, ...], provenance: str) -> ZooEntry:
    """The relations ``masks`` on k points, closed under composition, in index order.

    The product ab is a then b, read through a table of the 2^k row images
    under b; D and R are the identities on the domain and on the range, and
    the order is inclusion.
    """
    full, shifts = (1 << k) - 1, range(0, k * k, k)
    index = {m: i for i, m in enumerate(masks)}
    rows = [[m >> s & full for s in shifts] for m in masks]
    cols = []
    for rows_b in rows:
        # image[r] is the union of b's rows j over the points j of r
        image = [0]
        for r in range(1, full + 1):
            low = r & -r
            image.append(image[r ^ low] | rows_b[low.bit_length() - 1])
        # row i of ab is image[row i of a] at bits i*k.., so the rows sum to ab
        placed = [[v << s for v in image] for s in shifts]
        cols.append([index[sum(map(list.__getitem__, placed, rows_a))] for rows_a in rows])
    # identity[r] is the identity relation on the points r; D(a) is it on the
    # points whose rows are not empty, R(a) on the union of the rows
    identity = [sum(1 << (j * k + j) for j in range(k) if r >> j & 1) for r in range(full + 1)]
    dmap = tuple(index[identity[sum(1 << i for i, row in enumerate(rows_a) if row)]] for rows_a in rows)
    rmap = tuple(index[identity[reduce(or_, rows_a)]] for rows_a in rows)
    s = FiniteBiunarySemigroup(len(masks), tuple(zip(*cols)), dmap, rmap, names)
    incl = PartialOrder(len(masks), tuple(tuple(a | b == b for b in masks) for a in masks))
    return ZooEntry(name, s, (("inclusion", incl),), provenance)


def _rel_name(mask: int, k: int) -> str:
    pairs = [
        f"({i + 1},{j + 1})"
        for i in range(k)
        for j in range(k)
        if mask & (1 << (i * k + j))
    ]
    return "{" + ",".join(pairs) + "}"


def gen_rel(k: int) -> ZooEntry:
    """All binary relations on k points with composition, D, R, and inclusion."""
    if not 1 <= k <= 3:
        raise TooLargeError("relation semigroups are generated for 1..3 points only")
    masks = list(range(1 << (k * k)))
    names = tuple(_rel_name(a, k) for a in masks)
    return _relations(f"rel-{k}", k, masks, names, provenance="ehresmann-order")


def _pt_name(f: tuple[int, ...]) -> str:
    return "[" + ",".join(str(v) if v != 0 else "-" for v in f) + "]"


def _partial_maps(name: str, k: int, injective: bool, provenance: str) -> ZooEntry:
    """The partial maps on k points, or the injective ones, as relations.

    A map f is its image tuple over 0..k, 0 where undefined, taken in
    ``itertools.product`` order; it is the relation of the pairs (x, f[x] - 1).
    """
    maps = [
        f
        for f in itertools.product(range(k + 1), repeat=k)
        if not injective or len(set(f) - {0}) == k - f.count(0)
    ]
    masks = [sum(1 << (x * k + v - 1) for x, v in enumerate(f) if v != 0) for f in maps]
    return _relations(name, k, masks, tuple(map(_pt_name, maps)), provenance)


def gen_pt(k: int) -> ZooEntry:
    """All partial transformations on k points, with inclusion."""
    if not 1 <= k <= 3:
        raise TooLargeError("partial transformation semigroups are generated for 1..3 points only")
    return _partial_maps(f"pt-{k}", k, injective=False, provenance="ehresmann-order")


def gen_partial_injections(k: int) -> ZooEntry:
    """The partial injections on k points; a restriction semigroup under inclusion."""
    if not 1 <= k <= 3:
        raise TooLargeError("partial injection semigroups are generated for 1..3 points only")
    return _partial_maps(f"inj-{k}", k, injective=True, provenance="restriction")


_REGISTRY: dict[str, Callable[[], ZooEntry]] = {
    "two-element-monoid": example_two_element_monoid,
    "orderless-band": example_orderless_band,
    "zero-one-nabla": example_zero_one_nabla,
    "rel-1": lambda: gen_rel(1),
    "rel-2": lambda: gen_rel(2),
    "rel-3": lambda: gen_rel(3),
    "pt-1": lambda: gen_pt(1),
    "pt-2": lambda: gen_pt(2),
    "pt-3": lambda: gen_pt(3),
    "inj-1": lambda: gen_partial_injections(1),
    "inj-2": lambda: gen_partial_injections(2),
}

# ordered entries small enough for the exhaustive theorem sweeps
SWEEP_NAMES = (
    "two-element-monoid",
    "zero-one-nabla",
    "rel-1",
    "rel-2",
    "pt-1",
    "pt-2",
    "inj-1",
    "inj-2",
)


def names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


# entries built so far; every field of a ZooEntry is frozen, so one is shared
_ENTRIES: dict[str, ZooEntry] = {}


def get(name: str) -> ZooEntry:
    """The catalogued entry ``name``, built on the first request in a process
    and the same object on every later one."""
    entry = _ENTRIES.get(name)
    if entry is None:
        try:
            maker = _REGISTRY[name]
        except KeyError:
            raise StructureError(
                f"unknown example {name!r}; known: {', '.join(_REGISTRY)}"
            ) from None
        # two threads may both build it; setdefault hands both the first one stored
        entry = _ENTRIES.setdefault(name, maker())
    return entry


Table = tuple[tuple[int, ...], ...]
Perm = tuple[int, ...]


def _new_cell_consistent(t: list[list[int]], pre: list[list], n: int, i: int, j: int) -> bool:
    """(ab)c = a(bc) on every defined triple that reads the new cell (i, j):
    (i, j, c), (a, i, j), (a, b, j) with ab = i and (i, b, c) with bc = j.
    Unset cells hold -1, and pre[v] lists the filled cells (a, b) with ab = v.
    """
    ti, tj = t[i], t[j]
    v = ti[j]
    tv = t[v]
    for c in range(n):  # (ij)c = i(jc)
        jc = tj[c]
        if jc >= 0 and tv[c] >= 0 and ti[jc] >= 0 and tv[c] != ti[jc]:
            return False
    for a in range(n):  # (ai)j = a(ij)
        ta = t[a]
        ai = ta[i]
        if ai >= 0 and t[ai][j] >= 0 and ta[v] >= 0 and t[ai][j] != ta[v]:
            return False
    for a, b in pre[i]:  # (ab)j = a(bj) where ab = i
        bj = t[b][j]
        if bj >= 0 and t[a][bj] >= 0 and t[a][bj] != v:
            return False
    for b, c in pre[j]:  # (ib)c = i(bc) where bc = j
        ib = ti[b]
        if ib >= 0 and t[ib][c] >= 0 and t[ib][c] != v:
            return False
    return True


def _tables_with_automorphisms(n: int) -> Iterator[tuple[Table, list[Perm]]]:
    """The associative n x n tables no relabelling makes smaller, in lexicographic
    order, each with its automorphisms other than the identity, sorted.

    Cells are filled in row-major order, and only the triples that read the
    new cell are checked.  As orderly generation (Read, 1978), a node is cut
    when a relabelling p gives a smaller table on the filled cells 0..k; cell
    (x, y) of the image is p(T[p^-1 x][p^-1 y]).  A relabelling still tied
    waits in ``waiting`` at the first index where its next image cell can be
    compared, and resumes there; one found larger is dropped, as cells 0..k
    stay fixed below the node.  Those tied at a leaf are its automorphisms.
    """
    nn = n * n
    table = [[-1] * n for _ in range(n)]
    flat = [-1] * nn
    pre: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    waiting: list[list[tuple]] = [[] for _ in range(nn + 1)]
    for p in itertools.islice(itertools.permutations(range(n)), 1, None):
        src = [p.index(x) * n + p.index(y) for x in range(n) for y in range(n)]
        # image cell c is compared once cells c and src[c] are filled
        need = [max(c, s) for c, s in enumerate(src)] + [nn]
        waiting[need[0]].append((p, src, need, 0))

    def fill(idx: int) -> Iterator[tuple[Table, list[Perm]]]:
        if idx == nn:
            yield tuple(tuple(row) for row in table), sorted(p for p, *_ in waiting[nn])
            return
        i, j = divmod(idx, n)
        row, here = table[i], waiting[idx]
        for v in range(n):
            row[j] = flat[idx] = v
            pre[v].append((i, j))
            if _new_cell_consistent(table, pre, n, i, j):
                moved = []
                for p, src, need, c in here:
                    while need[c] <= idx and p[flat[src[c]]] == flat[c]:
                        c += 1
                    if need[c] > idx:  # still tied
                        waiting[need[c]].append((p, src, need, c))
                        moved.append(need[c])
                    elif p[flat[src[c]]] < flat[c]:
                        break
                else:
                    yield from fill(idx + 1)
                for w in moved:
                    waiting[w].pop()
            pre[v].pop()
        row[j] = flat[idx] = -1

    return fill(0)


def _lex_least_tables(n: int) -> Iterator[Table]:
    """The tables of :func:`_tables_with_automorphisms` alone."""
    return (table for table, _ in _tables_with_automorphisms(n))


def _d_laws_ok(mul, dmap, n: int) -> bool:
    for x in range(n):
        dx = dmap[x]
        for y in range(n):
            if dmap[mul[x][y]] != dmap[mul[x][dmap[y]]]:
                return False
            p = mul[dx][dmap[y]]
            if dmap[p] != p:
                return False
            if p != mul[dmap[y]][dx]:
                return False
    return True


def _r_laws_ok(mul, dmap, rmap, n: int) -> bool:
    for x in range(n):
        if dmap[rmap[x]] != rmap[x] or rmap[dmap[x]] != dmap[x]:
            return False
    for x in range(n):
        rx = rmap[x]
        for y in range(n):
            if rmap[mul[x][y]] != rmap[mul[rx][y]]:
                return False
    return True


def _structures_for_table(n: int, mul: Table) -> Iterator[FiniteBiunarySemigroup]:
    idem = [e for e in range(n) if mul[e][e] == e]
    cand_d = [[e for e in idem if mul[e][x] == x] for x in range(n)]
    cand_r = [[e for e in idem if mul[x][e] == x] for x in range(n)]
    for dmap in itertools.product(*cand_d):
        if not _d_laws_ok(mul, dmap, n):
            continue
        for rmap in itertools.product(*cand_r):
            if not _r_laws_ok(mul, dmap, rmap, n):
                continue
            yield FiniteBiunarySemigroup(n, mul, dmap, rmap)


def _permuted_key(s: FiniteBiunarySemigroup, perm: tuple[int, ...]) -> tuple[int, ...]:
    """The key of ``s`` with x renamed perm[x]."""
    n = s.n
    flat = [0] * (n * n + 2 * n)
    for a, row in enumerate(s.mul):
        pa = perm[a]
        for b, v in enumerate(row):
            flat[pa * n + perm[b]] = perm[v]
        flat[n * n + pa] = perm[s.dmap[a]]
        flat[n * n + n + pa] = perm[s.rmap[a]]
    return (n, *flat)


def _search_least_structures(n: int) -> Iterator[FiniteBiunarySemigroup]:
    """Each isomorphism class's least structure, in lexicographic (mul, D, R) order.

    Its table T is lex-least, and a relabelling that is not an automorphism
    of T makes T larger, so no automorphism p of T gives a smaller (pD, pR).
    """
    for mul, automorphisms in _tables_with_automorphisms(n):
        for s in _structures_for_table(n, mul):
            key = s.key()
            if all(_permuted_key(s, p) >= key for p in automorphisms):
                yield s


# class leaders per size, searched so far; each is frozen, so one tuple is shared
_LEADERS: dict[int, tuple[FiniteBiunarySemigroup, ...]] = {}


def _least_structures(n: int) -> Iterator[FiniteBiunarySemigroup]:
    """The structures of :func:`_search_least_structures`, searched on the first
    request for ``n`` in a process and replayed on every later one."""
    leaders = _LEADERS.get(n)
    if leaders is None:
        # two threads may both search; setdefault hands both the first tuple stored
        leaders = _LEADERS.setdefault(n, tuple(_search_least_structures(n)))
    return iter(leaders)


def _orbits(n: int) -> Iterator[tuple[FiniteBiunarySemigroup, dict[tuple[int, ...], Perm]]]:
    """Each structure of :func:`_least_structures` with its relabellings: the
    key of each member of its class maps to the first permutation p (in
    ``itertools.permutations`` order) that renames x to p[x] in that member.
    """
    perms = list(itertools.permutations(range(n)))
    for s in _least_structures(n):
        relabellings: dict[tuple[int, ...], Perm] = {}
        for p in perms:
            relabellings.setdefault(_permuted_key(s, p), p)
        yield s, relabellings


def _from_key(key: tuple[int, ...], rows: dict) -> FiniteBiunarySemigroup:
    """The structure whose :meth:`~FiniteBiunarySemigroup.key` is ``key``.

    Equal rows of the tables made with one ``rows`` dict are one tuple.
    Each key is a relabelling of a class leader that was built through
    the constructor, so every entry is an index in range and the
    structure skips the constructor's checks.
    """
    n = key[0]
    cells = n * n + 1
    mul = tuple(rows.setdefault(r, r) for r in (key[i:i + n] for i in range(1, cells, n)))
    return _trusted(FiniteBiunarySemigroup, n=n, mul=mul, dmap=key[cells:cells + n], rmap=key[cells + n:],
                    names=None)


def _check_size(n: int, allow_large: bool) -> None:
    """Refuse an enumeration size that is malformed, out of range or not allowed."""
    if type(n) is not int:
        raise StructureError(f"enumeration size must be an int, not {n!r}")
    if n < 1 or n > 4:
        raise TooLargeError("exhaustive enumeration supports sizes 1..4")
    if n == 4 and not allow_large:
        raise TooLargeError("size 4 is long-running; pass allow_large=True to proceed")


def enumerate_ehresmann_semigroups(
    n: int, up_to_iso: bool = False, *, allow_large: bool = False
) -> Iterator[FiniteBiunarySemigroup]:
    """Stream every Ehresmann semigroup on the indexed carrier 0..n-1.

    Both modes read the class leaders of :func:`_least_structures`: the
    first call for a size in a process runs the table search and searches
    (D, R) on the lex-least tables only, and later calls replay the stored
    leaders.  With ``up_to_iso`` the leaders are the stream; otherwise the
    keys of every class's :func:`_orbits` relabellings are sorted before the
    first is yielded.  Emission order is lexicographic in (mul, D, R).  Size 4
    is permitted only behind ``allow_large``; anything beyond is refused,
    and a size that is not an ``int`` is malformed.
    """
    _check_size(n, allow_large)
    if up_to_iso:
        return _least_structures(n)
    rows: dict = {}
    keys = sorted(key for _, relabellings in _orbits(n) for key in relabellings)
    return (_from_key(key, rows) for key in keys)
