"""Finite categories with partial orders, and the ESN-style correspondence.

The composition table is partial: an entry exists exactly when the range
identity of the left factor matches the domain identity of the right
factor.  Undefined entries are ``None``, never a default element.
Restriction and corestriction scan for the required maximum; a missing
maximum is reported as a violation of the corresponding law, not assumed
away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import (
    FiniteBiunarySemigroup,
    InternalInconsistency,
    LawReport,
    NotOrderedEhresmann,
    OC6Violation,
    PreconditionError,
    StructureError,
    TooLargeError,
)
from .orders import (
    OrderedSemigroup,
    PartialOrder,
    check_ehresmann_order,
    derive_orders,
)

CompTable = tuple[tuple[int | None, ...], ...]


def _validate_category(
    n: int, dmap: Sequence[int], rmap: Sequence[int], comp: CompTable
) -> None:
    if n < 1:
        raise StructureError("category must have at least one element")
    for label, vec in (("D", dmap), ("R", rmap)):
        if len(vec) != n or any(not 0 <= v < n for v in vec):
            raise StructureError(f"{label} must be an n-vector of element indices")
    if len(comp) != n or any(len(row) != n for row in comp):
        raise StructureError("composition table must be n x n")
    for x in range(n):
        for y in range(n):
            v = comp[x][y]
            defined = v is not None
            if defined != (rmap[x] == dmap[y]):
                raise StructureError(
                    f"composition at ({x}, {y}) is"
                    f" {'defined' if defined else 'undefined'} but R({x}) "
                    f"{'=' if rmap[x] == dmap[y] else '!='} D({y})"
                )
            if defined and not 0 <= v < n:
                raise StructureError(f"composition entry {v!r} out of range")
    for x in range(n):
        if comp[dmap[x]][x] != x:
            raise StructureError(f"D({x}) o {x} != {x}")
        if comp[x][rmap[x]] != x:
            raise StructureError(f"{x} o R({x}) != {x}")
        if dmap[rmap[x]] != rmap[x] or rmap[dmap[x]] != dmap[x]:
            raise StructureError(f"D/R are not identities on identities at {x}")
    for x in range(n):
        for y in range(n):
            v = comp[x][y]
            if v is None:
                continue
            if dmap[v] != dmap[x] or rmap[v] != rmap[y]:
                raise StructureError(f"D/R of composite ({x}, {y}) are wrong")
    for x in range(n):
        for y in range(n):
            if rmap[x] != dmap[y]:
                continue
            xy = comp[x][y]
            for z in range(n):
                if rmap[y] == dmap[z] and comp[xy][z] != comp[x][comp[y][z]]:
                    raise StructureError(f"composition not associative at ({x}, {y}, {z})")


def _coerce_comp(comp) -> CompTable:
    return tuple(tuple(None if v is None else int(v) for v in row) for row in comp)


@dataclass(frozen=True)
class FiniteCategory:
    """Partial algebra with composition defined exactly on R/D-matching pairs."""

    n: int
    dmap: tuple[int, ...]
    rmap: tuple[int, ...]
    comp: CompTable
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dmap", tuple(self.dmap))
        object.__setattr__(self, "rmap", tuple(self.rmap))
        object.__setattr__(self, "comp", _coerce_comp(self.comp))
        if self.names is not None:
            object.__setattr__(self, "names", tuple(str(x) for x in self.names))
        _validate_category(self.n, self.dmap, self.rmap, self.comp)

    def identities(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.dmap)))

    def name_of(self, i: int) -> str:
        return self.names[i] if self.names is not None else str(i)


def _derive_meet(
    n: int, identities: Sequence[int], order: PartialOrder
) -> tuple[tuple[int | None, ...], ...] | None:
    table = [[None] * n for _ in range(n)]
    for e in identities:
        for f in identities:
            g = order.glb(e, f, within=identities)
            if g is None:
                return None
            table[e][f] = g
    return tuple(tuple(row) for row in table)


def _validate_meet(
    n: int,
    identities: Sequence[int],
    order: PartialOrder,
    meet: tuple[tuple[int | None, ...], ...],
) -> None:
    idset = set(identities)
    if len(meet) != n or any(len(row) != n for row in meet):
        raise StructureError("meet table must be n x n")
    for x in range(n):
        for y in range(n):
            v = meet[x][y]
            if x in idset and y in idset:
                if v is None or v not in idset:
                    raise StructureError(f"meet must map identity pair ({x}, {y}) to an identity")
            elif v is not None:
                raise StructureError(f"meet defined off the identities at ({x}, {y})")
    for e in identities:
        for f in identities:
            g = meet[e][f]
            if not (order.rel[g][e] and order.rel[g][f]):
                raise StructureError(f"meet({e}, {f}) = {g} is not a lower bound")
            for h in identities:
                if order.rel[h][e] and order.rel[h][f] and not order.rel[h][g]:
                    raise StructureError(
                        f"meet({e}, {f}) = {g} is not the greatest lower bound ({h} above it)"
                    )


@dataclass(frozen=True)
class FiniteOrderedCategory:
    """A finite category with a partial order and a meet table on identities.

    ``meet`` may be passed as None, in which case greatest lower bounds are
    derived from the order; if some pair of identities has none, the table
    stays None and the Ehresmann-ordered-category check fails its
    meet-semilattice clause.  A supplied table is validated against the
    order once, at construction.
    """

    n: int
    dmap: tuple[int, ...]
    rmap: tuple[int, ...]
    comp: CompTable
    order: PartialOrder
    meet: tuple[tuple[int | None, ...], ...] | None = None
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dmap", tuple(self.dmap))
        object.__setattr__(self, "rmap", tuple(self.rmap))
        object.__setattr__(self, "comp", _coerce_comp(self.comp))
        if self.names is not None:
            object.__setattr__(self, "names", tuple(str(x) for x in self.names))
        _validate_category(self.n, self.dmap, self.rmap, self.comp)
        if self.order.n != self.n:
            raise StructureError("order and carrier sizes differ")
        ids = tuple(sorted(set(self.dmap)))
        if self.meet is None:
            object.__setattr__(self, "meet", _derive_meet(self.n, ids, self.order))
        else:
            object.__setattr__(
                self,
                "meet",
                tuple(tuple(None if v is None else int(v) for v in row) for row in self.meet),
            )
            _validate_meet(self.n, ids, self.order, self.meet)

    def identities(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.dmap)))

    def unordered(self) -> FiniteCategory:
        return FiniteCategory(self.n, self.dmap, self.rmap, self.comp, self.names)

    def name_of(self, i: int) -> str:
        return self.names[i] if self.names is not None else str(i)


@dataclass(frozen=True)
class Biaction:
    """Left and right action tables of the identities on all elements.

    Stored as full n x n tables with None on rows (columns) whose first
    (second) index is not an identity.
    """

    left: tuple[tuple[int | None, ...], ...]
    right: tuple[tuple[int | None, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "left", tuple(tuple(None if v is None else int(v) for v in row) for row in self.left)
        )
        object.__setattr__(
            self, "right", tuple(tuple(None if v is None else int(v) for v in row) for row in self.right)
        )


@dataclass(frozen=True)
class FunctorCandidate:
    """A total map between category carriers, proposed as a functor."""

    source: str
    target: str
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "map", tuple(self.map))


def partial_product_category(s: FiniteBiunarySemigroup) -> FiniteCategory:
    """The category of an Ehresmann semigroup: keep products with R(x) = D(y)."""
    from .core import check_ehresmann

    rep = check_ehresmann(s)
    if not rep.holds:
        raise PreconditionError(f"structure is not an Ehresmann semigroup: {rep.detail}")
    comp = tuple(
        tuple(
            s.mul[x][y] if s.rmap[x] == s.dmap[y] else None for y in range(s.n)
        )
        for x in range(s.n)
    )
    return FiniteCategory(s.n, s.dmap, s.rmap, comp, s.names)


def category_of(os: OrderedSemigroup) -> FiniteOrderedCategory:
    """Build the Ehresmann-ordered category of an ordered Ehresmann semigroup.

    The order is carried over unchanged and the meet of identities is
    their semigroup product.
    """
    rep = check_ehresmann_order(os)
    if not rep.holds:
        raise NotOrderedEhresmann(
            f"not an ordered Ehresmann semigroup: {rep.detail}"
        )
    s = os.base
    comp = tuple(
        tuple(s.mul[x][y] if s.rmap[x] == s.dmap[y] else None for y in range(s.n))
        for x in range(s.n)
    )
    ids = sorted({s.dmap[x] for x in range(s.n)})
    meet = [[None] * s.n for _ in range(s.n)]
    for e in ids:
        for f in ids:
            meet[e][f] = s.mul[e][f]
    return FiniteOrderedCategory(
        s.n, s.dmap, s.rmap, comp, os.order, tuple(tuple(row) for row in meet), s.names
    )


def _oc2_witness(c: FiniteOrderedCategory | None, dmap, rmap, rel, n) -> tuple[int, ...] | None:
    for a in range(n):
        for b in range(n):
            if rel[a][b] and (not rel[dmap[a]][dmap[b]] or not rel[rmap[a]][rmap[b]]):
                return (a, b)
    return None


def _oc3_witness(comp, rel, n) -> tuple[int, ...] | None:
    pairs = [(a, b) for a in range(n) for b in range(n) if rel[a][b]]
    for a, b in pairs:
        for c, d in pairs:
            ac, bd = comp[a][c], comp[b][d]
            if ac is not None and bd is not None and not rel[ac][bd]:
                return (a, b, c, d)
    return None


def check_omega_structured(c: FiniteOrderedCategory) -> LawReport:
    """Decide OC1 (category plus poset), OC2, and OC3.

    OC1 holds by construction: both the category axioms and the poset
    axioms are validated when the structure is built.
    """
    rel = c.order.rel
    w2 = _oc2_witness(c, c.dmap, c.rmap, rel, c.n)
    w3 = _oc3_witness(c.comp, rel, c.n)
    parts = (("OC1", True), ("OC2", w2 is None), ("OC3", w3 is None))
    if w2 is not None:
        names = ", ".join(c.name_of(i) for i in w2)
        return LawReport(
            "omega-structured", False, witness=w2, detail=f"OC2 fails at ({names})", parts=parts
        )
    if w3 is not None:
        names = ", ".join(c.name_of(i) for i in w3)
        return LawReport(
            "omega-structured", False, witness=w3, detail=f"OC3 fails at ({names})", parts=parts
        )
    return LawReport("omega-structured", True, parts=parts)


def _max_below_with(rel, pool: list[int]) -> int | None:
    for m in pool:
        if all(rel[y][m] for y in pool):
            return m
    return None


def _restriction_raw(c: FiniteOrderedCategory, e: int, x: int) -> tuple[int | None, list[int]]:
    rel = c.order.rel
    pool = [y for y in range(c.n) if rel[y][x] and rel[c.dmap[y]][e]]
    return _max_below_with(rel, pool), pool


def _corestriction_raw(c: FiniteOrderedCategory, x: int, e: int) -> tuple[int | None, list[int]]:
    rel = c.order.rel
    pool = [y for y in range(c.n) if rel[y][x] and rel[c.rmap[y]][e]]
    return _max_below_with(rel, pool), pool


def restriction(c: FiniteOrderedCategory, e: int, x: int) -> int:
    """The maximum y <= x with D(y) <= e, which must have domain e.

    Raises OC6Violation when the maximum is missing or has the wrong
    domain; that is a failure of law OC6a at this instance.
    """
    if e not in set(c.dmap):
        raise PreconditionError(f"{c.name_of(e)} is not an identity")
    if not c.order.rel[e][c.dmap[x]]:
        raise PreconditionError(
            f"restriction needs {c.name_of(e)} <= D({c.name_of(x)})"
        )
    m, _pool = _restriction_raw(c, e, x)
    if m is None:
        raise OC6Violation(f"no maximum below {c.name_of(x)} with domain under {c.name_of(e)}")
    if c.dmap[m] != e:
        raise OC6Violation(
            f"maximum {c.name_of(m)} below {c.name_of(x)} has domain"
            f" {c.name_of(c.dmap[m])}, not {c.name_of(e)}"
        )
    return m


def corestriction(c: FiniteOrderedCategory, x: int, e: int) -> int:
    """The maximum y <= x with R(y) <= e, which must have range e."""
    if e not in set(c.dmap):
        raise PreconditionError(f"{c.name_of(e)} is not an identity")
    if not c.order.rel[e][c.rmap[x]]:
        raise PreconditionError(
            f"corestriction needs {c.name_of(e)} <= R({c.name_of(x)})"
        )
    m, _pool = _corestriction_raw(c, x, e)
    if m is None:
        raise OC6Violation(f"no maximum below {c.name_of(x)} with range under {c.name_of(e)}")
    if c.rmap[m] != e:
        raise OC6Violation(
            f"maximum {c.name_of(m)} below {c.name_of(x)} has range"
            f" {c.name_of(c.rmap[m])}, not {c.name_of(e)}"
        )
    return m


def _oc4_family_witness(c: FiniteOrderedCategory, need_d: bool, need_r: bool):
    rel = c.order.rel
    for a in range(c.n):
        for b in range(c.n):
            if a == b or not rel[a][b]:
                continue
            if need_d and c.dmap[a] != c.dmap[b]:
                continue
            if need_r and c.rmap[a] != c.rmap[b]:
                continue
            return (a, b)
    return None


def _oc6a_witness(c: FiniteOrderedCategory):
    rel = c.order.rel
    for x in range(c.n):
        for e in c.identities():
            if not rel[e][c.dmap[x]]:
                continue
            m, _ = _restriction_raw(c, e, x)
            if m is None or c.dmap[m] != e:
                return (x, e)
    return None


def _oc6b_witness(c: FiniteOrderedCategory):
    rel = c.order.rel
    for x in range(c.n):
        for e in c.identities():
            if not rel[e][c.rmap[x]]:
                continue
            m, _ = _corestriction_raw(c, x, e)
            if m is None or c.rmap[m] != e:
                return (x, e)
    return None


def _oc7_witness(c: FiniteOrderedCategory, prime: bool):
    rel = c.order.rel
    n = c.n
    below = [[y for y in range(n) if rel[y][x]] for x in range(n)]
    for a in range(n):
        for b in range(n):
            for d in range(n):
                bc = c.comp[b][d]
                if bc is None or not rel[a][bc]:
                    continue
                if prime:
                    found = any(
                        c.dmap[bp] == c.dmap[a]
                        and c.rmap[cp] == c.rmap[a]
                        and c.comp[bp][cp] is not None
                        and rel[a][c.comp[bp][cp]]
                        for bp in below[b]
                        for cp in below[d]
                    )
                else:
                    found = any(
                        c.comp[bp][cp] == a for bp in below[b] for cp in below[d]
                    )
                if not found:
                    return (a, b, d)
    return None


def _oc8a_witness(c: FiniteOrderedCategory):
    rel = c.order.rel
    for x in range(c.n):
        for e in c.identities():
            if not rel[e][c.dmap[x]]:
                continue
            ys = [y for y in range(c.n) if rel[y][x] and c.dmap[y] == e]
            if len(ys) != 1:
                return (x, e)
    return None


def _oc8b_witness(c: FiniteOrderedCategory):
    rel = c.order.rel
    for x in range(c.n):
        for e in c.identities():
            if not rel[e][c.rmap[x]]:
                continue
            ys = [y for y in range(c.n) if rel[y][x] and c.rmap[y] == e]
            if len(ys) != 1:
                return (x, e)
    return None


def _oci_witness(c: FiniteOrderedCategory):
    rel = c.order.rel
    ids = set(c.dmap)
    for a in range(c.n):
        if a in ids:
            continue
        for e in sorted(ids):
            if rel[a][e]:
                return (a, e)
    return None


_OC_DISPATCH = {
    "OC4": lambda c: _oc4_family_witness(c, True, True),
    "OC4A": lambda c: _oc4_family_witness(c, True, False),
    "OC4B": lambda c: _oc4_family_witness(c, False, True),
    "OC6A": _oc6a_witness,
    "OC6B": _oc6b_witness,
    "OC7": lambda c: _oc7_witness(c, prime=False),
    "OC7'": lambda c: _oc7_witness(c, prime=True),
    "OC8A": _oc8a_witness,
    "OC8B": _oc8b_witness,
    "OCI": _oci_witness,
}


def check_OC_property(c: FiniteOrderedCategory, prop: str) -> LawReport:
    """Decide one of the optional OC laws by exhaustive search.

    Accepts OC4, OC4A, OC4B, OC6 (and its halves OC6a/OC6b), OC7, OC7',
    OC8 (and OC8a/OC8b), OCI.
    """
    name = prop.upper().replace("OC7P", "OC7'")
    pre = check_omega_structured(c)
    if not pre.holds:
        return LawReport(
            prop,
            False,
            witness=pre.witness,
            detail=f"prerequisite omega-structured fails: {pre.detail}",
            applicable=False,
        )
    if name in ("OC6", "OC8"):
        halves = ("OC6A", "OC6B") if name == "OC6" else ("OC8A", "OC8B")
        wa = _OC_DISPATCH[halves[0]](c)
        wb = _OC_DISPATCH[halves[1]](c)
        parts = ((halves[0].lower(), wa is None), (halves[1].lower(), wb is None))
        w = wa if wa is not None else wb
        side = halves[0] if wa is not None else halves[1]
        if w is None:
            return LawReport(name, True, parts=parts)
        names = ", ".join(c.name_of(i) for i in w)
        return LawReport(name, False, witness=w, detail=f"{side.lower()} fails at ({names})", parts=parts)
    if name not in _OC_DISPATCH:
        raise ValueError(f"unknown OC property {prop!r}")
    w = _OC_DISPATCH[name](c)
    if w is None:
        return LawReport(name, True)
    names = ", ".join(c.name_of(i) for i in w)
    return LawReport(name, False, witness=w, detail=f"fails at ({names})")


def check_prop_oc_equivalences(c: FiniteOrderedCategory) -> LawReport:
    """Evaluate both sides of the OC8 equivalences independently.

    First: OC8a versus OC4A and OC6.  Second: OC8 versus OC4A, OC4B and
    OC6.  The report holds when both biconditionals do.
    """
    pre = check_omega_structured(c)
    if not pre.holds:
        return LawReport(
            "oc-equivalences",
            False,
            witness=pre.witness,
            detail=f"prerequisite omega-structured fails: {pre.detail}",
            applicable=False,
        )
    oc8a = _oc8a_witness(c) is None
    oc8b = _oc8b_witness(c) is None
    oc4a = _oc4_family_witness(c, True, False) is None
    oc4b = _oc4_family_witness(c, False, True) is None
    oc6 = _oc6a_witness(c) is None and _oc6b_witness(c) is None
    first = oc8a == (oc4a and oc6)
    second = (oc8a and oc8b) == (oc4a and oc4b and oc6)
    parts = (
        ("oc8a", oc8a),
        ("oc4a-and-oc6", oc4a and oc6),
        ("oc8", oc8a and oc8b),
        ("oc4a-oc4b-oc6", oc4a and oc4b and oc6),
        ("first-equivalence", first),
        ("second-equivalence", second),
    )
    detail = (
        f"OC8a={oc8a}, OC4A={oc4a}, OC4B={oc4b}, OC6={oc6}, OC8b={oc8b}"
    )
    return LawReport("oc-equivalences", first and second, detail=detail, parts=parts)


def check_ehresmann_ordered_category(c: FiniteOrderedCategory) -> LawReport:
    """Decide the Ehresmann-ordered category laws.

    Requires the category to be Omega-structured and satisfy OC6, OC7',
    OCI, with the identities forming a meet-semilattice under the order.
    """
    omega = check_omega_structured(c)
    results: list[tuple[str, tuple[int, ...] | None]] = []
    if omega.holds:
        results.append(("OC6a", _oc6a_witness(c)))
        results.append(("OC6b", _oc6b_witness(c)))
        results.append(("OC7'", _oc7_witness(c, prime=True)))
        results.append(("OCI", _oci_witness(c)))
    meet_ok = c.meet is not None
    parts = [("omega-structured", omega.holds)]
    parts += [(name, w is None) for name, w in results]
    parts.append(("meet-semilattice", meet_ok))
    if not omega.holds:
        return LawReport(
            "ehresmann-ordered-category",
            False,
            witness=omega.witness,
            detail=omega.detail,
            parts=tuple(parts),
        )
    for name, w in results:
        if w is not None:
            names = ", ".join(c.name_of(i) for i in w)
            return LawReport(
                "ehresmann-ordered-category",
                False,
                witness=w,
                detail=f"{name} fails at ({names})",
                parts=tuple(parts),
            )
    if not meet_ok:
        return LawReport(
            "ehresmann-ordered-category",
            False,
            detail="identities do not form a meet-semilattice under the order",
            parts=tuple(parts),
        )
    return LawReport("ehresmann-ordered-category", True, parts=tuple(parts))


def derive_biaction(c: FiniteOrderedCategory) -> Biaction:
    """Compute the biaction e.x = (e meet D(x))|x and x.e = x|(R(x) meet e)."""
    pre = check_ehresmann_ordered_category(c)
    if not pre.holds:
        raise PreconditionError(f"not an Ehresmann-ordered category: {pre.detail}")
    ids = c.identities()
    left = [[None] * c.n for _ in range(c.n)]
    right = [[None] * c.n for _ in range(c.n)]
    for e in ids:
        for x in range(c.n):
            left[e][x] = restriction(c, c.meet[e][c.dmap[x]], x)
            right[x][e] = corestriction(c, x, c.meet[c.rmap[x]][e])
    return Biaction(tuple(tuple(row) for row in left), tuple(tuple(row) for row in right))


def verify_biaction(c: FiniteOrderedCategory, b: Biaction) -> LawReport:
    """Check the six biaction axiom groups over all applicable tuples.

    ``parts`` marks the groups verified to hold; groups that could not be
    evaluated (no meet table, or action tables not total) count as failed.
    """
    ids = c.identities()
    meet = c.meet
    n = c.n
    failures: list[tuple[str, tuple[int, ...], str]] = []
    evaluated = {"E1"}

    def fail(axiom: str, tup: tuple[int, ...], msg: str) -> None:
        if not any(f[0] == axiom for f in failures):
            failures.append((axiom, tup, msg))

    # E1: identities form a commutative idempotent semigroup under meet
    if meet is None:
        fail("E1", (), "no meet table on the identities")
    else:
        for e in ids:
            if meet[e][e] != e:
                fail("E1", (e,), "meet not idempotent")
            for f in ids:
                if meet[e][f] != meet[f][e]:
                    fail("E1", (e, f), "meet not commutative")
                for g in ids:
                    if meet[meet[e][f]][g] != meet[e][meet[f][g]]:
                        fail("E1", (e, f, g), "meet not associative")

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
        for x in range(n):
            if la[c.dmap[x]][x] != x:
                fail("E2", (x,), "D(x).x != x")
            if ra[x][c.rmap[x]] != x:
                fail("E2", (x,), "x.R(x) != x")
        for e in ids:
            for x in range(n):
                if c.dmap[la[e][x]] != meet[e][c.dmap[x]]:
                    fail("E2", (e, x), "D(e.x) != e meet D(x)")
                if c.rmap[ra[x][e]] != meet[c.rmap[x]][e]:
                    fail("E2", (x, e), "R(x.e) != R(x) meet e")
                for f in ids:
                    if la[meet[e][f]][x] != la[e][la[f][x]]:
                        fail("E2", (e, f, x), "(e meet f).x != e.(f.x)")
                    if ra[x][meet[e][f]] != ra[ra[x][e]][f]:
                        fail("E2", (x, e, f), "x.(e meet f) != (x.e).f")
        for e in ids:
            for x in range(n):
                for f in ids:
                    if ra[la[e][x]][f] != la[e][ra[x][f]]:
                        fail("E3", (e, x, f), "(e.x).f != e.(x.f)")
        for e in ids:
            for a in ids:
                if la[e][a] != meet[e][a]:
                    fail("E4", (e, a), "e.a != e meet a on identities")
                if ra[a][e] != meet[a][e]:
                    fail("E4", (a, e), "a.e != a meet e on identities")
        for e in ids:
            for x in range(n):
                if not lt(c.rmap[la[e][x]], c.rmap[x]):
                    fail("E5", (e, x), "R(e.x) not below R(x)")
                if not lt(c.dmap[ra[x][e]], c.dmap[x]):
                    fail("E5", (x, e), "D(x.e) not below D(x)")
        for x in range(n):
            for y in range(n):
                xy = c.comp[x][y]
                if xy is None:
                    continue
                for e in ids:
                    u = la[e][x]
                    v = la[c.rmap[u]][y]
                    if c.comp[u][v] is None or la[e][xy] != c.comp[u][v]:
                        fail("E6", (e, x, y), "e.(x o y) != (e.x) o (R(e.x).y)")
                    w = ra[y][e]
                    t = ra[x][c.dmap[w]]
                    if c.comp[t][w] is None or ra[xy][e] != c.comp[t][w]:
                        fail("E6", (x, y, e), "(x o y).e != (x.D(y.e)) o (y.e)")

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


def semigroup_of(c: FiniteOrderedCategory) -> OrderedSemigroup:
    """Recover the ordered Ehresmann semigroup via the pseudoproduct.

    x (x) y = x|(R(x) meet D(y)) o (R(x) meet D(y))|y, with D, R, and the
    order carried over unchanged.
    """
    pre = check_ehresmann_ordered_category(c)
    if not pre.holds:
        raise PreconditionError(f"not an Ehresmann-ordered category: {pre.detail}")
    n = c.n
    mul = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            e = c.meet[c.rmap[x]][c.dmap[y]]
            a = corestriction(c, x, e)
            b = restriction(c, e, y)
            v = c.comp[a][b]
            if v is None:
                raise InternalInconsistency("pseudoproduct factors do not compose")
            mul[x][y] = v
    base = FiniteBiunarySemigroup(
        n, tuple(tuple(row) for row in mul), c.dmap, c.rmap, c.names
    )
    return OrderedSemigroup(base, c.order)


def esn_round_trip(os: OrderedSemigroup) -> LawReport:
    """Check that category and semigroup constructions invert each other.

    Semigroup direction: rebuilding the semigroup from its category must
    reproduce the tables and the order exactly.  Category direction: the
    category of the rebuilt semigroup must equal the original category.
    """
    try:
        c = category_of(os)
    except NotOrderedEhresmann as exc:
        return LawReport(
            "esn-round-trip", False, detail=str(exc), applicable=False
        )
    back = semigroup_of(c)
    sem_witness = None
    for x in range(os.base.n):
        for y in range(os.base.n):
            if back.base.mul[x][y] != os.base.mul[x][y]:
                sem_witness = (x, y)
                break
        if sem_witness is not None:
            break
    sem_ok = (
        sem_witness is None
        and back.base.dmap == os.base.dmap
        and back.base.rmap == os.base.rmap
        and back.order.rel == os.order.rel
    )
    c2 = category_of(back)
    cat_ok = (
        c2.comp == c.comp
        and c2.dmap == c.dmap
        and c2.rmap == c.rmap
        and c2.order.rel == c.order.rel
        and c2.meet == c.meet
    )
    parts = (("semigroup-direction", sem_ok), ("category-direction", cat_ok))
    if sem_ok and cat_ok:
        return LawReport("esn-round-trip", True, parts=parts)
    detail = "pseudoproduct disagrees with the original product" if not sem_ok else (
        "rebuilt category differs from the original"
    )
    return LawReport("esn-round-trip", False, witness=sem_witness, detail=detail, parts=parts)


def esn_round_trip_category(c: FiniteOrderedCategory) -> LawReport:
    """Round trip starting from a category: rebuild it from its semigroup."""
    try:
        os = semigroup_of(c)
    except (PreconditionError, OC6Violation) as exc:
        return LawReport("esn-round-trip", False, detail=str(exc), applicable=False)
    c2 = category_of(os)
    ok = (
        c2.comp == c.comp
        and c2.dmap == c.dmap
        and c2.rmap == c.rmap
        and c2.order.rel == c.order.rel
        and c2.meet == c.meet
    )
    return LawReport(
        "esn-round-trip",
        ok,
        detail="" if ok else "category of the pseudoproduct semigroup differs",
        parts=(("category-direction", ok),),
    )


def _functor_witness(fm: Sequence[int], c1, c2) -> tuple[int, ...] | None:
    for x in range(c1.n):
        if fm[c1.dmap[x]] != c2.dmap[fm[x]] or fm[c1.rmap[x]] != c2.rmap[fm[x]]:
            return (x,)
    for x in range(c1.n):
        for y in range(c1.n):
            v = c1.comp[x][y]
            if v is None:
                continue
            if c2.comp[fm[x]][fm[y]] != fm[v]:
                return (x, y)
    return None


def _is_eoc_morphism_unchecked(
    fm: tuple[int, ...], c1: FiniteOrderedCategory, c2: FiniteOrderedCategory
) -> LawReport:
    w_fun = _functor_witness(fm, c1, c2)
    w_ord = None
    for a, b in c1.order.pairs(strict=True):
        if not c2.order.rel[fm[a]][fm[b]]:
            w_ord = (a, b)
            break
    ids1 = c1.identities()
    ids2 = set(c2.dmap)
    w_meet = None
    for e in ids1:
        for f in ids1:
            if fm[e] not in ids2 or fm[f] not in ids2:
                w_meet = (e, f)
                break
            if fm[c1.meet[e][f]] != c2.meet[fm[e]][fm[f]]:
                w_meet = (e, f)
                break
        if w_meet is not None:
            break
    w_res = None
    rel1, rel2 = c1.order.rel, c2.order.rel
    for s in range(c1.n):
        for e in ids1:
            if rel1[e][c1.dmap[s]]:
                lhs = fm[restriction(c1, e, s)]
                if fm[e] not in ids2 or not rel2[fm[e]][c2.dmap[fm[s]]]:
                    w_res = (e, s)
                    break
                if lhs != restriction(c2, fm[e], fm[s]):
                    w_res = (e, s)
                    break
            if rel1[e][c1.rmap[s]]:
                lhs = fm[corestriction(c1, s, e)]
                if fm[e] not in ids2 or not rel2[fm[e]][c2.rmap[fm[s]]]:
                    w_res = (s, e)
                    break
                if lhs != corestriction(c2, fm[s], fm[e]):
                    w_res = (s, e)
                    break
        if w_res is not None:
            break
    parts = (
        ("functor", w_fun is None),
        ("order", w_ord is None),
        ("meet", w_meet is None),
        ("restriction", w_res is None),
    )
    witness = next((w for w in (w_fun, w_ord, w_meet, w_res) if w is not None), None)
    holds = witness is None
    detail = ""
    if not holds:
        name = next(name for name, ok in parts if not ok)
        detail = f"{name} clause fails at {witness}"
    return LawReport("eoc-morphism", holds, witness=witness, detail=detail, parts=parts)


def is_eoc_morphism(
    f: FunctorCandidate, c1: FiniteOrderedCategory, c2: FiniteOrderedCategory
) -> LawReport:
    """Decide the Ehresmann-ordered category morphism clauses.

    Clauses, itemized in the report: functor (preserves D, R, and defined
    compositions), order preservation, meet preservation on identities,
    and preservation of restrictions and corestrictions.
    """
    if len(f.map) != c1.n or any(not 0 <= v < c2.n for v in f.map):
        raise StructureError("candidate map must send every source index into the target")
    for c, side in ((c1, "source"), (c2, "target")):
        pre = check_ehresmann_ordered_category(c)
        if not pre.holds:
            return LawReport(
                "eoc-morphism",
                False,
                detail=f"{side} is not an Ehresmann-ordered category: {pre.detail}",
                applicable=False,
            )
    return _is_eoc_morphism_unchecked(f.map, c1, c2)


def _all_epi_witness(c: FiniteOrderedCategory) -> tuple[int, ...] | None:
    for x in range(c.n):
        row = c.comp[x]
        for t in range(c.n):
            if row[t] is None:
                continue
            for u in range(c.n):
                if t != u and row[u] is not None and row[t] == row[u]:
                    return (x, t, u)
    return None


def _semigroup_clauses(s_os: OrderedSemigroup, t_os: OrderedSemigroup) -> list:
    """The ordered-homomorphism clauses of ``is_ordered_hom``: mul, D, R, order.

    Each clause is (source elements it reads, test on a map held as a list).
    """
    s = s_os.base
    tmul, tdmap, trmap, trel = t_os.base.mul, t_os.base.dmap, t_os.base.rmap, t_os.order.rel
    clauses = []
    for a in range(s.n):
        for b in range(s.n):
            m = s.mul[a][b]
            clauses.append(((a, b, m), lambda fm, a=a, b=b, m=m: fm[m] == tmul[fm[a]][fm[b]]))
        d, r = s.dmap[a], s.rmap[a]
        clauses.append(((a, d), lambda fm, a=a, d=d: fm[d] == tdmap[fm[a]]))
        clauses.append(((a, r), lambda fm, a=a, r=r: fm[r] == trmap[fm[a]]))
    for a, b in s_os.order.pairs(strict=True):
        clauses.append(((a, b), lambda fm, a=a, b=b: trel[fm[a]][fm[b]]))
    return clauses


def _category_clauses(c1: FiniteOrderedCategory, c2: FiniteOrderedCategory) -> list:
    """The clauses of ``_is_eoc_morphism_unchecked``: functor, order, meet, restriction.

    Restrictions and corestrictions are tabulated once.  The target's meet,
    restriction and corestriction tables hold None where the operation is
    undefined (an image that is not an identity, or a failed precondition),
    so a clause landing there fails, as the explicit checks there do.
    """
    n1, n2 = c1.n, c2.n
    dmap2, rmap2, comp2, meet2 = c2.dmap, c2.rmap, c2.comp, c2.meet
    rel1, rel2 = c1.order.rel, c2.order.rel
    ids1 = c1.identities()
    res2 = [[None] * n2 for _ in range(n2)]
    cores2 = [[None] * n2 for _ in range(n2)]
    for e in c2.identities():
        for y in range(n2):
            if rel2[e][dmap2[y]]:
                res2[e][y] = restriction(c2, e, y)
            if rel2[e][rmap2[y]]:
                cores2[y][e] = corestriction(c2, y, e)
    clauses = []
    for x in range(n1):
        d, r = c1.dmap[x], c1.rmap[x]
        clauses.append(((x, d), lambda fm, x=x, d=d: fm[d] == dmap2[fm[x]]))
        clauses.append(((x, r), lambda fm, x=x, r=r: fm[r] == rmap2[fm[x]]))
        for y in range(n1):
            v = c1.comp[x][y]
            if v is not None:
                clauses.append(((x, y, v), lambda fm, x=x, y=y, v=v: comp2[fm[x]][fm[y]] == fm[v]))
    for a, b in c1.order.pairs(strict=True):
        clauses.append(((a, b), lambda fm, a=a, b=b: rel2[fm[a]][fm[b]]))
    for e in ids1:
        for f in ids1:
            m = c1.meet[e][f]
            clauses.append(((e, f, m), lambda fm, e=e, f=f, m=m: meet2[fm[e]][fm[f]] == fm[m]))
    for s in range(n1):
        for e in ids1:
            if rel1[e][c1.dmap[s]]:
                r = restriction(c1, e, s)
                clauses.append(((e, s, r), lambda fm, e=e, s=s, r=r: res2[fm[e]][fm[s]] == fm[r]))
            if rel1[e][c1.rmap[s]]:
                r = corestriction(c1, s, e)
                clauses.append(((e, s, r), lambda fm, e=e, s=s, r=r: cores2[fm[s]][fm[e]] == fm[r]))
    return clauses


def _by_last_read(n: int, clauses: list) -> list[list]:
    """Group clause tests by the largest source element they read."""
    levels: list[list] = [[] for _ in range(n)]
    for reads, test in clauses:
        levels[max(reads)].append(test)
    return levels


def _accepted_maps(
    images: list[int],
    k: int,
    n2: int,
    sem_levels: list[list],
    cat_levels: list[list],
    sem_alive: bool = True,
    cat_alive: bool = True,
) -> Iterator[tuple[tuple[int, ...], bool, bool]]:
    """Yield (map, semigroup verdict, category verdict) in lexicographic order.

    Extends ``images[:k]`` one source element at a time; at each step a
    side still alive checks only its clauses the new element completes.
    Maps that both sides reject are skipped a subtree at a time: their
    verdicts agree (both false), so they hold no failure and no morphism.
    """
    for v in range(n2):
        images[k] = v
        sem = sem_alive and all(test(images) for test in sem_levels[k])
        cat = cat_alive and all(test(images) for test in cat_levels[k])
        if not (sem or cat):
            continue
        if k + 1 < len(images):
            yield from _accepted_maps(images, k + 1, n2, sem_levels, cat_levels, sem, cat)
        else:
            yield tuple(images), sem, cat


def morphism_correspondence(
    s_os: OrderedSemigroup, t_os: OrderedSemigroup, ceiling: int = 10_000_000
) -> LawReport:
    """Compare semigroup and category morphism verdicts over all total maps.

    For every map S -> T the ordered-homomorphism verdict must agree with
    the Ehresmann-ordered category morphism verdict on the corresponding
    categories, and every passing map must also preserve the derived
    biaction.  Map prefixes are pruned side by side (``_accepted_maps``);
    the failure reported is the lexicographically least failing map.
    """
    total = t_os.base.n**s_os.base.n
    if total > ceiling:
        raise TooLargeError(f"{total} candidate maps exceed the ceiling of {ceiling}")
    c1 = category_of(s_os)
    c2 = category_of(t_os)
    b1 = derive_biaction(c1)
    b2 = derive_biaction(c2)
    ids1 = c1.identities()
    n1 = s_os.base.n
    sem_levels = _by_last_read(n1, _semigroup_clauses(s_os, t_os))
    cat_levels = _by_last_read(n1, _category_clauses(c1, c2))
    passing = 0
    for fm, sem, cat in _accepted_maps([0] * n1, 0, t_os.base.n, sem_levels, cat_levels):
        if sem != cat:
            return LawReport(
                "morphism-correspondence",
                False,
                witness=fm,
                detail=f"verdicts disagree on {fm}: semigroup={sem}, category={cat}",
            )
        # both sides accept: no map both reject is ever yielded
        passing += 1
        for e in ids1:
            for x in range(n1):
                if fm[b1.left[e][x]] != b2.left[fm[e]][fm[x]] or (
                    fm[b1.right[x][e]] != b2.right[fm[x]][fm[e]]
                ):
                    return LawReport(
                        "morphism-correspondence",
                        False,
                        witness=fm,
                        detail=f"passing map {fm} does not preserve the biaction at ({e}, {x})",
                    )
    return LawReport(
        "morphism-correspondence",
        True,
        detail=f"{total} maps checked, {passing} are morphisms on both sides",
    )


def check_special_correspondences(os: OrderedSemigroup) -> LawReport:
    """Verify the law-by-law transfer between the semigroup and its category.

    Branches: OS4/OC4, OS7/OC7, OS4A/OC4A, OS4B/OC4B, restriction with the
    natural order against inductive-1 (OC8 plus meet-semilattice), and
    functional left restriction with range against OC4A with every element
    an epimorphism.
    """
    from .core import (
        check_functional,
        check_left_restriction_with_range,
        check_restriction,
    )
    from .orders import check_OS_property

    pre = check_ehresmann_order(os)
    if not pre.holds:
        return LawReport(
            "special-correspondences",
            False,
            witness=pre.witness,
            detail=f"prerequisite ehresmann-order fails: {pre.detail}",
            applicable=False,
        )
    c = category_of(os)
    leq_e = derive_orders(os.base).leq_e
    natural = os.order.rel == leq_e.rel

    os_side = {
        "OS4": check_OS_property(os, "OS4").holds,
        "OS7": check_OS_property(os, "OS7").holds,
        "OS4A": check_OS_property(os, "OS4A").holds,
        "OS4B": check_OS_property(os, "OS4B").holds,
    }
    oc_side = {
        "OC4": _oc4_family_witness(c, True, True) is None,
        "OC7": _oc7_witness(c, prime=False) is None,
        "OC4A": _oc4_family_witness(c, True, False) is None,
        "OC4B": _oc4_family_witness(c, False, True) is None,
    }
    restriction_sem = check_restriction(os.base).holds and natural
    inductive1 = (
        _oc8a_witness(c) is None and _oc8b_witness(c) is None and c.meet is not None
    )
    functional_sem = (
        check_functional(os.base).holds
        and check_left_restriction_with_range(os.base).holds
        and natural
    )
    functional_cat = (
        _oc4_family_witness(c, True, False) is None and _all_epi_witness(c) is None
    )
    parts = (
        ("OS4-OC4", os_side["OS4"] == oc_side["OC4"]),
        ("OS7-OC7", os_side["OS7"] == oc_side["OC7"]),
        ("OS4A-OC4A", os_side["OS4A"] == oc_side["OC4A"]),
        ("OS4B-OC4B", os_side["OS4B"] == oc_side["OC4B"]),
        ("restriction-inductive1", restriction_sem == inductive1),
        ("functional-epimorphism", functional_sem == functional_cat),
    )
    holds = all(ok for _, ok in parts)
    detail = (
        f"semigroup side {os_side}, category side {oc_side}, "
        f"restriction&natural={restriction_sem}, inductive1={inductive1}, "
        f"functional&natural={functional_sem}, OC4A&epi={functional_cat}"
    )
    return LawReport("special-correspondences", holds, detail=detail, parts=parts)


def _unique_below(n: int, dmap, rel, x: int, e: int) -> int | None:
    ys = [y for y in range(n) if rel[y][x] and dmap[y] == e]
    return ys[0] if len(ys) == 1 else None


def check_ehresmann_category_two_orders(
    c0: FiniteCategory, leq_l: PartialOrder, leq_r: PartialOrder
) -> LawReport:
    """Decide the seven clauses of the two-order Ehresmann category laws.

    The left order must be Omega-structured with unique restrictions, the
    right order Omega-structured with unique corestrictions, the orders
    must agree on the identities and form a meet-semilattice there, the
    two orders must permute, and restriction/corestriction must be
    monotone in the stated mixed sense.  Later clauses that need earlier
    ones are only evaluated when those hold.
    """
    from .orders import compose_relations

    n = c0.n
    if leq_l.n != n or leq_r.n != n:
        raise StructureError("order and carrier sizes differ")
    ids = c0.identities()
    rel_l, rel_r = leq_l.rel, leq_r.rel

    def omega_ok(rel) -> bool:
        return (
            _oc2_witness(None, c0.dmap, c0.rmap, rel, n) is None
            and _oc3_witness(c0.comp, rel, n) is None
        )

    def oc8a_ok() -> bool:
        return all(
            len([y for y in range(n) if rel_l[y][x] and c0.dmap[y] == e]) == 1
            for x in range(n)
            for e in ids
            if rel_l[e][c0.dmap[x]]
        )

    def oc8b_ok() -> bool:
        return all(
            len([y for y in range(n) if rel_r[y][x] and c0.rmap[y] == e]) == 1
            for x in range(n)
            for e in ids
            if rel_r[e][c0.rmap[x]]
        )

    b1 = omega_ok(rel_l) and oc8a_ok()
    b2 = omega_ok(rel_r) and oc8b_ok()
    b3 = all(rel_l[e][f] == rel_r[e][f] for e in ids for f in ids)
    meet = None
    if b3:
        meet = {
            (e, f): leq_l.glb(e, f, within=ids) for e in ids for f in ids
        }
        b4 = all(v is not None for v in meet.values())
    else:
        b4 = False
    lr = compose_relations(leq_l, leq_r)
    rl = compose_relations(leq_r, leq_l)
    b5 = lr == rl
    b6 = b7 = False
    witness67: tuple[int, ...] | None = None
    if b1 and b2 and b3 and b4:
        b6 = True
        for x in range(n):
            for y in range(n):
                if not rel_r[x][y]:
                    continue
                for e in ids:
                    u = _unique_below(n, c0.dmap, rel_l, x, meet[(c0.dmap[x], e)])
                    v = _unique_below(n, c0.dmap, rel_l, y, meet[(c0.dmap[y], e)])
                    if u is None or v is None or not rel_r[u][v]:
                        b6 = False
                        witness67 = witness67 or (x, y, e)
                        break
                if not b6:
                    break
            if not b6:
                break
        b7 = True
        for x in range(n):
            for y in range(n):
                if not rel_l[x][y]:
                    continue
                for e in ids:
                    u = _unique_below(n, c0.rmap, rel_r, x, meet[(c0.rmap[x], e)])
                    v = _unique_below(n, c0.rmap, rel_r, y, meet[(c0.rmap[y], e)])
                    if u is None or v is None or not rel_l[u][v]:
                        b7 = False
                        witness67 = witness67 or (x, y, e)
                        break
                if not b7:
                    break
            if not b7:
                break
    parts = (
        ("left-order-oc8a", b1),
        ("right-order-oc8b", b2),
        ("orders-agree-on-identities", b3),
        ("meet-semilattice", b4),
        ("orders-permute", b5),
        ("restriction-monotone", b6),
        ("corestriction-monotone", b7),
    )
    holds = all(ok for _, ok in parts)
    detail = "" if holds else "first failing clause: " + next(
        name for name, ok in parts if not ok
    )
    return LawReport(
        "ehresmann-category-two-orders",
        holds,
        witness=witness67,
        detail=detail,
        parts=parts,
    )
