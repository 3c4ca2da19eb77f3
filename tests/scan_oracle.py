"""The plain scans of the searches and validators no law formula states.

The package validates and closes orders on up-set bitmasks, validates a
category's associativity on composable triples only, derives the three
orders from table rows and columns, composes two orders on bitmasks,
searches Ehresmann orders multiplying only by a generating set, decides
a large table's associativity by Light's test, finds equal composites in
a row by grouping it, and verifies a biaction one axiom group at a time.
These are the scans those replace, loop by loop; every law stated as a
sentence is checked by ``formulas.py``.
"""

from __future__ import annotations

from operator import itemgetter

from ehresmann.category import Biaction, FiniteOrderedCategory
from ehresmann.core import FiniteBiunarySemigroup, InternalInconsistency, LawReport, StructureError
from ehresmann.orders import DerivedOrders, PartialOrder, _bits, _OrderSearch


def compose_relations(p: PartialOrder, q: PartialOrder) -> tuple[tuple[bool, ...], ...]:
    """Left-to-right relational composite of two orders, as a raw matrix."""
    n = p.n
    out = []
    for a in range(n):
        row = [False] * n
        for u in range(n):
            if p.rel[a][u]:
                qrow = q.rel[u]
                for b in range(n):
                    if qrow[b]:
                        row[b] = True
        out.append(tuple(row))
    return tuple(out)


def derive_orders(s: FiniteBiunarySemigroup) -> DerivedOrders:
    """The three derived orders built cell by cell, with the composite identity
    checked on matrices; raises what ``orders.derive_orders`` raises."""
    n, mul, D, R = s.n, s.mul, s.dmap, s.rmap
    try:
        leq_l = PartialOrder(n, tuple(tuple(a == mul[D[a]][b] for b in range(n)) for a in range(n)))
        leq_r = PartialOrder(n, tuple(tuple(a == mul[b][R[a]] for b in range(n)) for a in range(n)))
        leq_e = PartialOrder(n, tuple(tuple(a == mul[mul[D[a]][b]][R[a]] for b in range(n)) for a in range(n)))
    except StructureError as exc:
        raise InternalInconsistency(f"derived relation is not a partial order: {exc}") from exc
    if compose_relations(leq_l, leq_r) != leq_e.rel or compose_relations(leq_r, leq_l) != leq_e.rel:
        raise InternalInconsistency("left and right orders do not compose to the e-order")
    return DerivedOrders(leq_l, leq_r, leq_e)


def partial_order_failure(n: int, rel) -> str | None:
    """The message ``PartialOrder`` raises for the least violation of an n x n
    boolean matrix, scanning reflexivity, then antisymmetry and transitivity
    pair by pair; None when it is a partial order."""
    for a in range(n):
        if not rel[a][a]:
            return f"order is not reflexive at {a}"
    for a in range(n):
        for b in range(n):
            if a != b and rel[a][b] and rel[b][a]:
                return f"order is not antisymmetric at ({a}, {b})"
            if rel[a][b]:
                for c in range(n):
                    if rel[b][c] and not rel[a][c]:
                        return f"order is not transitive at ({a}, {b}, {c})"
    return None


def order_closure(n: int, pairs) -> tuple[tuple[bool, ...], ...]:
    """The reflexive-transitive closure ``PartialOrder.from_pairs`` builds from
    in-range ``pairs``, by Warshall's loop entry by entry; raises its
    ``StructureError`` for the least pair the closure makes antisymmetric."""
    mat = [[a == b for b in range(n)] for a in range(n)]
    for a, b in pairs:
        mat[a][b] = True
    for k in range(n):
        for a in range(n):
            if mat[a][k]:
                row_a, row_k = mat[a], mat[k]
                for b in range(n):
                    if row_k[b]:
                        row_a[b] = True
    for a in range(n):
        for b in range(a + 1, n):
            if mat[a][b] and mat[b][a]:
                raise StructureError(f"order closure breaks antisymmetry between {a} and {b}")
    return tuple(tuple(row) for row in mat)


def category_associativity_failure(n: int, dmap, rmap, comp) -> str | None:
    """The message ``FiniteCategory`` raises for the least non-associative
    composable triple, scanning all n³ triples; None when there is none."""
    for x in range(n):
        for y in range(n):
            if rmap[x] != dmap[y]:
                continue
            xy = comp[x][y]
            for z in range(n):
                if rmap[y] == dmap[z] and comp[xy][z] != comp[x][comp[y][z]]:
                    return f"composition not associative at ({x}, {y}, {z})"
    return None


class AllProductsSearch(_OrderSearch):
    """The order search with the closure that multiplies by every element."""

    def _close(self, up, down, queue, ex) -> bool:
        """From a popped a <= b derive D(a) <= D(b), R(a) <= R(b), ac <= bc and
        ca <= cb for every c, and x <= y for every x <= a and b <= y."""
        mul, D, R, proj = self.s.mul, self.s.dmap, self.s.rmap, self.proj
        cols = tuple(zip(*mul))
        while queue:
            a, b = queue.pop()
            derived = [(D[a], D[b]), (R[a], R[b])]
            derived += zip(mul[a], mul[b])
            derived += zip(cols[a], cols[b])
            for p, q in derived:
                if p == q or up[p] >> q & 1:
                    continue
                if up[q] >> p & 1 or ex[p] >> q & 1 or (proj >> q & 1 and not proj >> p & 1):
                    return False
                up[p] |= 1 << q
                down[q] |= 1 << p
                queue.append((p, q))
            above = up[b]
            for x in _bits(down[a]):
                new = above & ~up[x]
                if not new:
                    continue
                if new & (down[x] | ex[x]) or (new & proj and not proj >> x & 1):
                    return False
                up[x] |= new
                for y in _bits(new):
                    down[y] |= 1 << x
                    queue.append((x, y))
        return True


def order_candidates(search: _OrderSearch) -> list[tuple[int, int]]:
    """The pairs (a, b) the order search branches on, tested pair by pair on its root:
    unordered, no projection over a non-projection, and D and R images ordered."""
    n, (up, _), proj, D, R = search.n, search.root, search.proj, search.s.dmap, search.s.rmap
    if not search.root_ok:
        return []
    return [(a, b) for a in range(n) for b in range(n)
            if a != b and not up[a] >> b & 1 and not up[b] >> a & 1
            and not (proj >> b & 1 and not proj >> a & 1)
            and up[D[a]] >> D[b] & 1 and up[R[a]] >> R[b] & 1]


def associates_by_rows(mul) -> bool:
    """Whether the table ``mul`` (n > 1) is associative, by the n³ scan with
    its innermost loop over c done as one row comparison per (a, b): row ab
    against row a read through row b."""
    through = [itemgetter(*row) for row in mul]
    return all(mul[row_a[b]] == through[b](row_a) for row_a in mul for b in range(len(mul)))


def all_epi_witness(c: FiniteOrderedCategory) -> tuple[int, ...] | None:
    """Least (x, t, u), t != u, with x o t = x o u defined, by the triple scan."""
    for x in range(c.n):
        row = c.comp[x]
        for t in range(c.n):
            if row[t] is None:
                continue
            for u in range(c.n):
                if t != u and row[u] is not None and row[t] == row[u]:
                    return (x, t, u)
    return None


def verify_biaction(c: FiniteOrderedCategory, b: Biaction) -> LawReport:
    """Check the six biaction axiom groups over all applicable tuples.

    ``parts`` marks the groups verified to hold; groups that could not be
    evaluated (no meet table, or action tables not total) count as failed.
    """
    ids = c.identities()
    meet = c.meet
    n = c.n
    for label, table in (("left", b.left), ("right", b.right)):
        if len(table) != n or any(
            len(row) != n or any(v is not None and not 0 <= v < n for v in row) for row in table
        ):
            raise StructureError(f"{label} action table must be {n} x {n} over 0..{n - 1} and None")
    failures: list[tuple[str, tuple[int, ...], str]] = []
    evaluated = {"E1"}

    def fail(axiom: str, tup: tuple[int, ...], msg: str) -> None:
        if not any(f[0] == axiom for f in failures):
            failures.append((axiom, tup, msg))

    # E1: identities form a commutative idempotent semigroup under meet, which
    # a table of greatest lower bounds is whenever it exists
    if meet is None:
        fail("E1", (), "no meet table on the identities")

    def lt(e: int, f: int) -> bool:
        return meet is not None and meet[e][f] == e

    la, ra = b.left, b.right
    total = all(
        la[e][x] is not None and ra[x][e] is not None for e in ids for x in range(n)
    )
    if not total:
        fail("E2", (), "action tables are not total on identity/element pairs")
    if meet is not None and total and not failures:
        evaluated.update(("E2", "E3", "E4", "E5", "E6"))
        # (right?, action table by [e][x], near and far identity maps,
        # composition): the right action x.e is the left one with products
        # reversed, so its table and the composition are read transposed and
        # its witnesses backwards.  Each check runs left, then right, at each
        # index tuple, which fixes the first failure reported per axiom.
        sides = (
            (False, la, c.dmap, c.rmap, c.comp),
            (True, tuple(zip(*ra)), c.rmap, c.dmap, tuple(zip(*c.comp))),
        )

        def at(right: bool, *tup: int) -> tuple[int, ...]:
            return tup[::-1] if right else tup

        for x in range(n):
            for right, act, near, far, comp in sides:
                if act[near[x]][x] != x:
                    fail("E2", (x,), ("D(x).x != x", "x.R(x) != x")[right])
        for e in ids:
            for x in range(n):
                for right, act, near, far, comp in sides:
                    if near[act[e][x]] != meet[e][near[x]]:
                        fail("E2", at(right, e, x),
                             ("D(e.x) != e meet D(x)", "R(x.e) != R(x) meet e")[right])
                for f in ids:
                    for right, act, near, far, comp in sides:
                        # e.(f.x) applies f first, (x.e).f applies e first
                        g, h = (f, e) if right else (e, f)
                        if act[meet[g][h]][x] != act[g][act[h][x]]:
                            fail("E2", at(right, g, h, x),
                                 ("(e meet f).x != e.(f.x)", "x.(e meet f) != (x.e).f")[right])
        for e in ids:
            for x in range(n):
                for f in ids:
                    if ra[la[e][x]][f] != la[e][ra[x][f]]:
                        fail("E3", (e, x, f), "(e.x).f != e.(x.f)")
        for e in ids:
            for a in ids:
                for right, act, near, far, comp in sides:
                    if act[e][a] != meet[e][a]:
                        fail("E4", at(right, e, a),
                             ("e.a != e meet a on identities", "a.e != a meet e on identities")[right])
        for e in ids:
            for x in range(n):
                for right, act, near, far, comp in sides:
                    if not lt(far[act[e][x]], far[x]):
                        fail("E5", at(right, e, x),
                             ("R(e.x) not below R(x)", "D(x.e) not below D(x)")[right])
        for x in range(n):
            for y in range(n):
                xy = c.comp[x][y]
                if xy is None:
                    continue
                for e in ids:
                    for right, act, near, far, comp in sides:
                        p, q = (y, x) if right else (x, y)
                        u = act[e][p]
                        v = act[far[u]][q]
                        if comp[u][v] is None or act[e][xy] != comp[u][v]:
                            fail("E6", at(right, e, p, q),
                                 ("e.(x o y) != (e.x) o (R(e.x).y)", "(x o y).e != (x.D(y.e)) o (y.e)")[right])

    axiom_names = ("E1", "E2", "E3", "E4", "E5", "E6")
    failed = {f[0] for f in failures}
    parts = tuple(
        (name, name in evaluated and name not in failed) for name in axiom_names
    )
    if not failures:
        return LawReport("biaction", True, parts=parts)
    axiom, tup, msg = failures[0]
    return LawReport(
        "biaction",
        False,
        witness=tup or None,
        detail=f"{axiom} fails at {tup}: {msg}",
        parts=parts,
    )
