"""Finite categories with partial orders, and the ESN-style correspondence.

The composition table is partial: an entry exists exactly when the range
identity of the left factor matches the domain identity of the right
factor.  Undefined entries are ``None``, never a default element.
The maxima that restriction and corestriction take are tabulated once per
category and side from down-set bitmasks; OC6, the biaction and the
morphism clauses read that table.  A missing maximum is reported as a
violation of the corresponding law, not assumed away.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Sequence

from .core import (
    Evaluation,
    FiniteBiunarySemigroup,
    HomCandidate,
    InternalInconsistency,
    Law,
    LawReport,
    NotOrderedEhresmann,
    OC6Violation,
    PreconditionError,
    StructureError,
    TooLargeError,
    _as_names,
    _as_tuple,
    _check_map,
    _first_failure,
    _fmt,
    _leaf,
    _map_report,
    _trusted,
    evaluate,
    property_key,
    register,
)
from .orders import (
    OrderedSemigroup,
    PartialOrder,
    _bits,
    _composite_up_sets,
    _derived_orders,
    _is_natural,
    _lowest,
    _matching_pair_witness,
    _order_clauses,
    _ordered_hom_clauses,
    _os2_witness,
    _os3_witness,
    _osi_witness,
    _products_with,
)

CompTable = tuple[tuple[int | None, ...], ...]


def _validate_category(
    n: int, dmap: Sequence[int], rmap: Sequence[int], comp: CompTable
) -> None:
    if not isinstance(n, int) or n < 1:
        raise StructureError("category must have at least one element")
    for label, vec in (("D", dmap), ("R", rmap)):
        if len(vec) != n or any(not isinstance(v, int) or not 0 <= v < n for v in vec):
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
    # associativity on composable triples only, each list ascending, so the
    # least failing (x, y, z) is the one a scan of all n³ triples finds
    starting: dict[int, list[int]] = {}
    for y in range(n):
        starting.setdefault(dmap[y], []).append(y)
    for x in range(n):
        for y in starting[rmap[x]]:
            xy = comp[x][y]
            for z in starting[rmap[y]]:
                if comp[xy][z] != comp[x][comp[y][z]]:
                    raise StructureError(f"composition not associative at ({x}, {y}, {z})")


def _coerce_comp(comp) -> CompTable:
    table = _as_tuple(comp, "table must be n x n", rows=True)
    for row in table:
        for v in row:
            if v is not None and not isinstance(v, int):
                raise StructureError(f"table entry {v!r} is neither None nor an element index")
    return table


@dataclass(frozen=True)
class FiniteCategory:
    """Partial algebra with composition defined exactly on R/D-matching pairs."""

    n: int
    dmap: tuple[int, ...]
    rmap: tuple[int, ...]
    comp: CompTable
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dmap", _as_tuple(self.dmap, "D must be an n-vector of element indices"))
        object.__setattr__(self, "rmap", _as_tuple(self.rmap, "R must be an n-vector of element indices"))
        object.__setattr__(self, "comp", _coerce_comp(self.comp))
        _validate_category(self.n, self.dmap, self.rmap, self.comp)
        object.__setattr__(self, "names", _as_names(self.names, self.n))

    def identities(self) -> tuple[int, ...]:
        return self._identities

    @cached_property
    def _identities(self) -> tuple[int, ...]:
        # the sorted D image, made on the first call
        return tuple(sorted(set(self.dmap)))

    def name_of(self, i: int) -> str:
        return self.names[i] if self.names is not None else str(i)


def _derive_meet(
    n: int, identities: Sequence[int], order: PartialOrder
) -> tuple[tuple[int | None, ...], ...] | None:
    """Greatest lower bounds of identity pairs among the identities, None off
    them; None when some pair has none."""
    table = [[None] * n for _ in range(n)]
    for e in identities:
        for f in identities:
            g = order.glb(e, f, within=identities)
            if g is None:
                return None
            table[e][f] = g
    return tuple(tuple(row) for row in table)


def _compare_meet(c: FiniteOrderedCategory, given, derived) -> None:
    """Raise StructureError unless ``given`` equals ``derived``, the meet the order gives."""
    if derived is None:
        raise StructureError("meet table given, but the identities do not form a meet-semilattice")
    given = _as_tuple(given, "meet table must be n x n", rows=True)
    if len(given) != c.n or any(len(row) != c.n for row in given):
        raise StructureError("meet table must be n x n")
    for x in range(c.n):
        for y in range(c.n):
            if given[x][y] != derived[x][y]:
                raise StructureError(
                    f"meet table differs from the order at ({_fmt(c, x, y)}):"
                    f" given {given[x][y]!r}, derived {derived[x][y]!r}"
                )


@dataclass(frozen=True)
class FiniteOrderedCategory:
    """A category ``base`` with a partial order and a meet table on
    identities, as an ``OrderedSemigroup`` is a semigroup with an order: one
    base may carry many orders, and its table is checked once, when built.
    ``n``, ``dmap``, ``rmap``, ``comp`` and ``names`` are copied from ``base``.

    The meet is always derived from the order: greatest lower bounds of
    identity pairs among the identities, None off them.  If some pair of
    identities has none, the table is None and the
    Ehresmann-ordered-category check fails its meet-semilattice clause.  A
    table passed as ``meet`` must equal the derived one; it is compared
    once, at construction.
    """

    base: FiniteCategory
    order: PartialOrder
    meet: tuple[tuple[int | None, ...], ...] | None = None
    n: int = field(init=False, repr=False, compare=False)
    dmap: tuple[int, ...] = field(init=False, repr=False, compare=False)
    rmap: tuple[int, ...] = field(init=False, repr=False, compare=False)
    comp: CompTable = field(init=False, repr=False, compare=False)
    names: tuple[str, ...] | None = field(init=False, repr=False, compare=False)

    name_of = FiniteCategory.name_of

    def identities(self) -> tuple[int, ...]:
        return self.base.identities()

    def __post_init__(self) -> None:
        if not isinstance(self.base, FiniteCategory):
            raise StructureError("base must be a FiniteCategory")
        if not isinstance(self.order, PartialOrder):
            raise StructureError("order must be a PartialOrder")
        for name in ("n", "dmap", "rmap", "comp", "names"):
            object.__setattr__(self, name, getattr(self.base, name))
        if self.order.n != self.n:
            raise StructureError("order and carrier sizes differ")
        meet = _derive_meet(self.n, self.identities(), self.order)
        if self.meet is not None:
            _compare_meet(self, self.meet, meet)
        object.__setattr__(self, "meet", meet)


@dataclass(frozen=True)
class Biaction:
    """Left and right action tables of the identities on all elements.

    Stored as full n x n tables with None on rows (columns) whose first
    (second) index is not an identity.
    """

    left: tuple[tuple[int | None, ...], ...]
    right: tuple[tuple[int | None, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", _coerce_comp(self.left))
        object.__setattr__(self, "right", _coerce_comp(self.right))


# a total map between category carriers, proposed as a functor, is the same
# named map as one between semigroups
FunctorCandidate = HomCandidate


def _composition_category(s: FiniteBiunarySemigroup, ev: Evaluation) -> FiniteCategory:
    """The products x*y with R(x) = D(y), None elsewhere, built once per unit of
    work: the base of C₀ under both derived orders and of C(S) under every order.

    Callers decide ``ehresmann`` on ``s`` first, and then this is a
    category, so it skips ``FiniteCategory``'s checks.  n, D, R and the
    names are those ``s`` was built with, and each entry is a product of
    ``s`` or None, defined exactly where R(x) = D(y).  By L2, D(x) and R(x)
    are identities: D(R(x)) = R(x) and R(D(x)) = D(x), so D(x) o x and
    x o R(x) are defined, and by L1 both are x.  Where R(x) = D(y), L3 and
    L1 give D(xy) = D(xD(y)) = D(xR(x)) = D(x), and dually R(xy) =
    R(R(x)y) = R(D(y)y) = R(y).  Composition is the product of ``s``,
    which associates.
    """
    comp = tuple(
        tuple(s.mul[x][y] if s.rmap[x] == s.dmap[y] else None for y in range(s.n))
        for x in range(s.n)
    )
    return _trusted(FiniteCategory, n=s.n, dmap=s.dmap, rmap=s.rmap, comp=comp, names=s.names)


def _product_meet(s: FiniteBiunarySemigroup, ev: Evaluation) -> tuple[tuple[int | None, ...], ...]:
    """The products e*f of pairs of projections of ``s``, None off them: one
    table per unit of work, shared by the categories on ``s`` that take it.

    When ``ehresmann`` holds the projections form a semilattice under the
    product: by L4 ef is a projection, by L1 and L2 each is idempotent
    (ee = D(e)e = e), and they commute.  So when an order agrees with it on
    the projections (e <= f iff e = ef), ef is the greatest lower bound of
    e and f among them: ef = (ef)e = (ef)f lies below both, and any
    projection g below both has g = ge = gf, so g(ef) = g and g <= ef.
    The projections are the identities of the categories built on ``s``,
    so this table is the one ``FiniteOrderedCategory`` derives from such
    an order.
    """
    n, mul = s.n, s.mul
    meet = [[None] * n for _ in range(n)]
    ids = sorted(set(s.dmap))
    for e in ids:
        for f in ids:
            meet[e][f] = mul[e][f]
    return tuple(map(tuple, meet))


def _ordered_on(base: FiniteCategory, order: PartialOrder, meet) -> FiniteOrderedCategory:
    """``FiniteOrderedCategory(base, order, meet)`` without its checks, for a
    caller that has shown ``order`` is on base's n elements and ``meet`` is
    the table of greatest lower bounds the order gives on the identities."""
    return _trusted(FiniteOrderedCategory, base=base, order=order, meet=meet, n=base.n, dmap=base.dmap,
                    rmap=base.rmap, comp=base.comp, names=base.names)


def _partial_product_category(s: FiniteBiunarySemigroup, ev: Evaluation) -> FiniteCategory:
    rep = ev("ehresmann", s)
    if not rep.holds:
        raise PreconditionError(f"structure is not an Ehresmann semigroup: {rep.detail}")
    return ev.build(_composition_category, s)


def partial_product_category(s: FiniteBiunarySemigroup) -> FiniteCategory:
    """The category of an Ehresmann semigroup: keep products with R(x) = D(y)."""
    return _partial_product_category(s, Evaluation())


def _category_of(os: OrderedSemigroup, ev: Evaluation) -> FiniteOrderedCategory:
    """C(S) of an ordered Ehresmann semigroup: its composition category under
    its order, with the product of projections as the meet.

    Once ``ehresmann-order`` holds, so do ``ehresmann`` on the base and
    ``semilattice-order-agreement`` on ``os``.  OS1 makes the base
    localisable.  For projections p <= q, OS3 gives p = pp <= pq and
    p <= qp, and OS6 gives pq <= p and qp <= p, so p = pq = qp.  By L4 ef
    and fe are projections, and by OS6 both lie below e, so ef = (ef)e =
    efe = e(fe) = fe: the projections commute.  And e = ef gives e <= f by
    OS6, so e <= f iff e = ef.  Then ``_product_meet`` is the derived meet
    and the base is a category (``_composition_category``); the order is a
    ``PartialOrder`` on the n elements, as ``OrderedSemigroup`` checks.
    So the category skips ``FiniteOrderedCategory``'s checks.
    """
    rep = ev("ehresmann-order", os)
    if not rep.holds:
        raise NotOrderedEhresmann(
            f"not an ordered Ehresmann semigroup: {rep.detail}"
        )
    s = os.base
    return _ordered_on(ev.build(_composition_category, s), os.order, ev.build(_product_meet, s))


def category_of(os: OrderedSemigroup) -> FiniteOrderedCategory:
    """Build the Ehresmann-ordered category of an ordered Ehresmann semigroup.

    The order is carried over unchanged and the meet of identities is
    their semigroup product.
    """
    return _category_of(os, Evaluation())


def _products_stay_above(comp: CompTable, order: PartialOrder) -> bool:
    """OC3 on a partial composition, decided by the up-set bitmasks of
    ``order``: for each composable a, c, every defined product of an element
    above a and one above c lies above ac."""
    up = order.up
    products = _products_with(comp, up)
    return not any(ac is not None and products(a, c) & ~up[ac]
                   for a in range(order.n) for c, ac in enumerate(comp[a]))


# Categories up to this size are scanned for OC3 without the bitmask test in
# front.  Where OC3 holds (2 CPUs, Python 3.11) the scan is 2-5 times faster
# up to the 9 arrows of C(pt-2), the two are within noise of each other on
# C(rel-2) (16 arrows, 250-350 us each) and C(inj-3) (34 arrows, 1.0-1.3 ms
# each), and the test is 1.6-1.9 times faster on C(pt-3) (64 arrows).
_OC3_SCAN_MAX_N = 16


def _oc3_witness(comp: CompTable, order: PartialOrder) -> tuple[int, ...] | None:
    """``_os3_witness`` on a partial composition; above ``_OC3_SCAN_MAX_N``
    elements the scan runs only when ``_products_stay_above`` fails.  Read
    only by ``omega-structured``, which the two-order law reaches through
    ``oc8a`` and ``oc8b``."""
    if order.n > _OC3_SCAN_MAX_N and _products_stay_above(comp, order):
        return None
    return _os3_witness(order.n, comp, order.rel)


def _omega_structured(c: FiniteOrderedCategory, ev: Evaluation) -> LawReport:
    checks = (("OC2", _os2_witness(c.n, c.dmap, c.rmap, c.order.rel)), ("OC3", _oc3_witness(c.comp, c.order)))
    return _first_failure("omega-structured", c, checks, lead=(("OC1", True),))


def check_omega_structured(c: FiniteOrderedCategory) -> LawReport:
    """Decide OC1 (category plus poset), OC2, and OC3.

    OC1 holds by construction: both the category axioms and the poset
    axioms are validated when the structure is built.
    """
    return evaluate("omega-structured", c)


def _max_below(c: FiniteOrderedCategory, idmap, x: int, e: int) -> int | None:
    """The maximum y <= x with idmap(y) <= e, or None when there is none."""
    rel = c.order.rel
    pool = [y for y in range(c.n) if rel[y][x] and rel[idmap[y]][e]]
    for m in pool:
        if all(rel[y][m] for y in pool):
            return m
    return None


def _restrict(c: FiniteOrderedCategory, idmap, x: int, e: int, words: tuple[str, str, str]) -> int:
    """The maximum y <= x with idmap(y) <= e, which must have idmap(y) = e.

    ``words`` names the side in messages: the operation, the letter of
    ``idmap`` and what it gives.
    """
    op, letter, noun = words
    for v in (e, x):
        if not isinstance(v, int) or not 0 <= v < c.n:
            raise StructureError(f"{op} element {v!r} out of range 0..{c.n - 1}")
    if c.dmap[e] != e:
        raise PreconditionError(f"{c.name_of(e)} is not an identity")
    if not c.order.rel[e][idmap[x]]:
        raise PreconditionError(f"{op} needs {c.name_of(e)} <= {letter}({c.name_of(x)})")
    m = _max_below(c, idmap, x, e)
    if m is None:
        raise OC6Violation(f"no maximum below {c.name_of(x)} with {noun} under {c.name_of(e)}")
    if idmap[m] != e:
        raise OC6Violation(
            f"maximum {c.name_of(m)} below {c.name_of(x)} has {noun}"
            f" {c.name_of(idmap[m])}, not {c.name_of(e)}"
        )
    return m


def restriction(c: FiniteOrderedCategory, e: int, x: int) -> int:
    """The maximum y <= x with D(y) <= e, which must have domain e.

    Raises OC6Violation when the maximum is missing or has the wrong
    domain; that is a failure of law OC6a at this instance.
    """
    return _restrict(c, c.dmap, x, e, ("restriction", "D", "domain"))


def corestriction(c: FiniteOrderedCategory, x: int, e: int) -> int:
    """The maximum y <= x with R(y) <= e, which must have range e."""
    return _restrict(c, c.rmap, x, e, ("corestriction", "R", "range"))


def _maxima_below(c: FiniteOrderedCategory, idmap) -> list[list[int | None]]:
    """``[x][e]`` is ``_max_below(c, idmap, x, e)`` for every x and identity
    e <= idmap(x), None elsewhere.  The pool of y <= x with idmap(y) <= e is
    a bitmask, and its maximum is the m in it whose down-set covers it."""
    n, rel, down = c.n, c.order.rel, c.order.down
    under = [(e, sum(1 << y for y in range(n) if rel[idmap[y]][e])) for e in c.identities()]
    table: list[list[int | None]] = [[None] * n for _ in range(n)]
    for x in range(n):
        row, down_x, d = table[x], down[x], idmap[x]
        for e, under_e in under:
            if not rel[e][d]:
                continue
            pool = rest = down_x & under_e
            # a maximum is unique, so the candidates may be tried in any order
            while rest:
                m = rest.bit_length() - 1
                if not pool & ~down[m]:
                    row[e] = m
                    break
                rest ^= 1 << m
    return table


# This table and the unique-below one have one builder per side, so that an
# evaluation makes each once per category and side.  D and R may be equal,
# even one object, so the side is told by the builder, never by the maps.
def _restrictions(c: FiniteOrderedCategory, ev: Evaluation) -> list[list[int | None]]:
    return _maxima_below(c, c.dmap)


def _corestrictions(c: FiniteOrderedCategory, ev: Evaluation) -> list[list[int | None]]:
    return _maxima_below(c, c.rmap)


def _oc6_witness(c: FiniteOrderedCategory, idmap, maxima) -> tuple[int, ...] | None:
    """Least (x, e) with e <= idmap(x) whose maximum below x with idmap under e,
    read from ``maxima``, the ``_maxima_below`` table of ``idmap``, is missing
    or off e: OC6a with D, OC6b with R."""
    rel, ids = c.order.rel, c.identities()
    for x in range(c.n):
        for e in ids:
            if rel[e][idmap[x]]:
                m = maxima[x][e]
                if m is None or idmap[m] != e:
                    return (x, e)
    return None


def _oc7_witnesses(c: FiniteOrderedCategory, ev: Evaluation):
    """The least (a, b, d) with a <= b o d that is no x o y with x <= b, y <= d
    (OC7), and the least that lies below no such x o y of its own domain and
    range (OC7'), from one pass over the composable (b, d).

    An a that is such an x o y lies below itself in its own hom-set, so only
    the a outside the products can fail either law, and an OC7' failure is
    an OC7 failure."""
    n, comp, dmap, rmap, up, down = c.n, c.comp, c.dmap, c.rmap, c.order.up, c.order.down
    products = _products_with(comp, down)
    starting: dict[int, list[int]] = {}
    for d in range(n):
        starting.setdefault(dmap[d], []).append(d)
    above_in_hom = None
    # only an a below a law's least failure so far can lower it; OC7 fails
    # wherever OC7' does, so its limit is never above the OC7' one
    best, best_p, limit, limit_p = None, None, -1, -1
    for b in range(n):
        for d in starting[rmap[b]]:
            cands = down[comp[b][d]] & limit_p
            if not cands:
                continue
            made = products(b, d)
            cands &= ~made
            if not cands:
                continue
            if cands & limit:
                a = _lowest(cands & limit)
                best, limit = (a, b, d), (1 << a) - 1
            if above_in_hom is None:
                # per a, the elements above a with its domain and range
                above_in_hom = [sum(1 << y for y in _bits(up[a]) if dmap[y] == dmap[a] and rmap[y] == rmap[a])
                                for a in range(n)]
            a = next((a for a in _bits(cands) if not above_in_hom[a] & made), None)
            if a is not None:
                best_p, limit_p = (a, b, d), (1 << a) - 1
    return best, best_p


def _unique_below(n: int, idmap, rel) -> list[dict[int, int | None]]:
    """Per x, a dict from e to the one y <= x with idmap(y) = e, or to None when
    there are several: ``[x].get(e)`` is None unless exactly one such y exists."""
    table: list[dict[int, int | None]] = [{} for _ in range(n)]
    for y in range(n):
        e = idmap[y]
        for x in range(n):
            if rel[y][x]:
                table[x][e] = None if e in table[x] else y
    return table


def _unique_restrictions(c: FiniteOrderedCategory, ev: Evaluation) -> list[dict[int, int | None]]:
    return _unique_below(c.n, c.dmap, c.order.rel)


def _unique_corestrictions(c: FiniteOrderedCategory, ev: Evaluation) -> list[dict[int, int | None]]:
    return _unique_below(c.n, c.rmap, c.order.rel)


def _oc8_witness(c: FiniteOrderedCategory, idmap, unique) -> tuple[int, ...] | None:
    """Least (x, e) with e <= idmap(x) but not exactly one y <= x with idmap(y) = e,
    read from ``unique``, the ``_unique_below`` table of ``idmap``."""
    rel, ids = c.order.rel, c.identities()
    for x in range(c.n):
        for e in ids:
            if rel[e][idmap[x]] and unique[x].get(e) is None:
                return (x, e)
    return None


def _oc_law(name: str, witness, aliases: tuple[str, ...] = ()) -> Law:
    """An optional OC law decided by one witness function of the category and the evaluation."""

    def decide(c: FiniteOrderedCategory, ev: Evaluation) -> LawReport:
        return _leaf(name, witness(c, ev), lambda *w: f"fails at ({_fmt(c, *w)})")

    return Law(name, "category", decide, pre="omega-structured", aliases=aliases)


def _oc_pair_laws(name: str, witness, builders) -> tuple[Law, Law, Law]:
    """OC6 or OC8 and its halves: ``witness(c, idmap, table)`` decides the
    a-half with D and the table ``builders[0]`` builds, the b-half with R and
    that of ``builders[1]``; the pair reads both registered halves, reports
    them as parts and the first failing half as the witness.
    """
    halves = (name.lower() + "a", name.lower() + "b")
    restrictions, corestrictions = builders

    def decide(c: FiniteOrderedCategory, ev: Evaluation) -> LawReport:
        return _first_failure(name, c, ((half, ev(half, c).witness) for half in halves))

    return (
        Law(name, "category", decide, pre="omega-structured"),
        _oc_law(name + "A", lambda c, ev: witness(c, c.dmap, ev.build(restrictions, c))),
        _oc_law(name + "B", lambda c, ev: witness(c, c.rmap, ev.build(corestrictions, c))),
    )


def check_OC_property(c: FiniteOrderedCategory, prop: str) -> LawReport:
    """Decide one of the optional OC laws by exhaustive search.

    Accepts OC4, OC4A, OC4B, OC6 (and its halves OC6a/OC6b), OC7, OC7'
    (also spelled OC7p), OC8 (and OC8a/OC8b), OCI, in any case.
    """
    return evaluate(property_key(prop, "OC"), c)


def _oc_equivalences(c: FiniteOrderedCategory, ev: Evaluation) -> LawReport:
    oc8a, oc8b, oc4a, oc4b, oc6 = (ev(key, c).holds for key in ("oc8a", "oc8b", "oc4a", "oc4b", "oc6"))
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


def check_prop_oc_equivalences(c: FiniteOrderedCategory) -> LawReport:
    """Evaluate both sides of the OC8 equivalences independently.

    First: OC8a versus OC4A and OC6.  Second: OC8 versus OC4A, OC4B and
    OC6.  The report holds when both biconditionals do.
    """
    return evaluate("oc-equivalences", c)


def _ehresmann_ordered_category(c: FiniteOrderedCategory, ev: Evaluation) -> LawReport:
    name = "ehresmann-ordered-category"
    omega = ev("omega-structured", c)
    meet = (("meet-semilattice", c.meet is not None),)
    if not omega.holds:
        return LawReport(name, False, witness=omega.witness, detail=omega.detail,
                         parts=(("omega-structured", False), *meet))
    checks = ((part, ev(key, c).witness) for part, key in
              (("OC6a", "oc6a"), ("OC6b", "oc6b"), ("OC7'", "oc7'"), ("OCI", "oci")))
    rep = _first_failure(name, c, checks, lead=(("omega-structured", True),), trail=meet)
    if rep.holds and c.meet is None:
        return replace(rep, holds=False, detail="identities do not form a meet-semilattice under the order")
    return rep


def check_ehresmann_ordered_category(c: FiniteOrderedCategory) -> LawReport:
    """Decide the Ehresmann-ordered category laws.

    Requires the category to be Omega-structured and satisfy OC6, OC7',
    OCI, with the identities forming a meet-semilattice under the order.
    """
    return evaluate("ehresmann-ordered-category", c)


def _derive_biaction(c: FiniteOrderedCategory, ev: Evaluation) -> Biaction:
    """The biaction of an Ehresmann-ordered category, from one table of
    restrictions and one of corestrictions.  Both tables are n x n
    tuples of indices and None, all ``Biaction`` coerces its input to,
    so they skip its constructor."""
    pre = ev("ehresmann-ordered-category", c)
    if not pre.holds:
        raise PreconditionError(f"not an Ehresmann-ordered category: {pre.detail}")
    # OC6 holds, so e meet D(x) <= D(x) has its restriction in the table, and
    # R(x) meet e its corestriction
    n, meet, dmap, rmap = c.n, c.meet, c.dmap, c.rmap
    restrictions, corestrictions = ev.build(_restrictions, c), ev.build(_corestrictions, c)
    left = [[None] * n for _ in range(n)]
    right = [[None] * n for _ in range(n)]
    for e in c.identities():
        for x in range(n):
            left[e][x] = restrictions[x][meet[e][dmap[x]]]
            right[x][e] = corestrictions[x][meet[rmap[x]][e]]
    return _trusted(Biaction, left=tuple(map(tuple, left)), right=tuple(map(tuple, right)))


def derive_biaction(c: FiniteOrderedCategory) -> Biaction:
    """Compute the biaction e.x = (e meet D(x))|x and x.e = x|(R(x) meet e)."""
    return _derive_biaction(c, Evaluation())


def _at(right: bool, *tup: int) -> tuple[int, ...]:
    """A biaction check's index tuple as its witness: the right action x.e is
    the left one with products reversed, so its witnesses read backwards."""
    return tup[::-1] if right else tup


# Each biaction scan below yields (witness, message) for every failing tuple
# in the order the report reads them: left, then right, at each index tuple.
# A side is (right?, action table by [e][x], near and far identity maps,
# composition), the right side's table and composition read transposed.

def _e2(n, ids, meet, sides):
    for x in range(n):
        for right, act, near, far, comp in sides:
            if act[near[x]][x] != x:
                yield (x,), ("D(x).x != x", "x.R(x) != x")[right]
    for e in ids:
        for x in range(n):
            for right, act, near, far, comp in sides:
                if near[act[e][x]] != meet[e][near[x]]:
                    yield _at(right, e, x), ("D(e.x) != e meet D(x)", "R(x.e) != R(x) meet e")[right]
            for f in ids:
                for right, act, near, far, comp in sides:
                    # e.(f.x) applies f first, (x.e).f applies e first
                    g, h = (f, e) if right else (e, f)
                    if act[meet[g][h]][x] != act[g][act[h][x]]:
                        yield _at(right, g, h, x), ("(e meet f).x != e.(f.x)",
                                                    "x.(e meet f) != (x.e).f")[right]


def _e3(n, ids, la, ra):
    for e in ids:
        for x in range(n):
            for f in ids:
                if ra[la[e][x]][f] != la[e][ra[x][f]]:
                    yield (e, x, f), "(e.x).f != e.(x.f)"


def _e4(ids, meet, sides):
    for e in ids:
        for a in ids:
            for right, act, near, far, comp in sides:
                if act[e][a] != meet[e][a]:
                    yield _at(right, e, a), ("e.a != e meet a on identities",
                                             "a.e != a meet e on identities")[right]


def _e5(n, ids, meet, sides):
    for e in ids:
        for x in range(n):
            for right, act, near, far, comp in sides:
                g = far[act[e][x]]
                if meet[g][far[x]] != g:
                    yield _at(right, e, x), ("R(e.x) not below R(x)", "D(x.e) not below D(x)")[right]


def _e6(n, ids, table, sides):
    for x in range(n):
        for y in range(n):
            xy = table[x][y]
            if xy is None:
                continue
            for e in ids:
                for right, act, near, far, comp in sides:
                    p, q = (y, x) if right else (x, y)
                    u = act[e][p]
                    v = act[far[u]][q]
                    if comp[u][v] is None or act[e][xy] != comp[u][v]:
                        yield _at(right, e, p, q), ("e.(x o y) != (e.x) o (R(e.x).y)",
                                                    "(x o y).e != (x.D(y.e)) o (y.e)")[right]


def verify_biaction(c: FiniteOrderedCategory, b: Biaction) -> LawReport:
    """Check the six biaction axiom groups over all applicable tuples.

    ``parts`` marks the groups evaluated and found to hold; the witness is
    the first failing tuple of the first failing group, left before right.
    With no meet table (E1) or action tables that are not total (E2) no
    group after it is evaluated, and the report carries no witness.
    """
    ids, meet, n = c.identities(), c.meet, c.n
    for label, table in (("left", b.left), ("right", b.right)):
        if len(table) != n or any(
            len(row) != n or any(v is not None and not 0 <= v < n for v in row) for row in table
        ):
            raise StructureError(f"{label} action table must be {n} x {n} over 0..{n - 1} and None")
    la, ra = b.left, b.right
    # E1: identities form a commutative idempotent semigroup under meet, which
    # a table of greatest lower bounds is whenever it exists; the scans read
    # the action tables only where those are total on identity/element pairs
    if meet is None or not all(la[e][x] is not None and ra[x][e] is not None for e in ids for x in range(n)):
        axiom, msg = (("E1", "no meet table on the identities") if meet is None
                      else ("E2", "action tables are not total on identity/element pairs"))
        return LawReport("biaction", False, detail=f"{axiom} fails at (): {msg}",
                         parts=(("E1", meet is not None), *((f"E{k}", False) for k in range(2, 7))))
    sides = (
        (False, la, c.dmap, c.rmap, c.comp),
        (True, tuple(zip(*ra)), c.rmap, c.dmap, tuple(zip(*c.comp))),
    )
    hits = {
        "E2": next(_e2(n, ids, meet, sides), None),
        "E3": next(_e3(n, ids, la, ra), None),
        "E4": next(_e4(ids, meet, sides), None),
        "E5": next(_e5(n, ids, meet, sides), None),
        "E6": next(_e6(n, ids, c.comp, sides), None),
    }
    return _first_failure("biaction", c, ((axiom, hit and hit[0]) for axiom, hit in hits.items()),
                          lead=(("E1", True),),
                          wording=lambda axiom, w: f"{axiom} fails at {w}: {hits[axiom][1]}")


def _semigroup_of(c: FiniteOrderedCategory, ev: Evaluation) -> OrderedSemigroup:
    """The pseudoproduct semigroup of ``c`` under its order.

    It skips the checks of ``FiniteBiunarySemigroup`` and
    ``OrderedSemigroup``: n, D, R, the names and the order are those of
    the category ``c``, and every product is a defined composite of
    ``c``, so an index in range.
    """
    # the biaction raises the precondition error; e = R(x) meet D(y) lies below
    # R(x) and D(y), so the factors x|e and e|y are its entries x.e and e.y
    b = ev.build(_derive_biaction, c)
    n = c.n
    mul = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            e = c.meet[c.rmap[x]][c.dmap[y]]
            v = c.comp[b.right[x][e]][b.left[e][y]]
            if v is None:
                raise InternalInconsistency("pseudoproduct factors do not compose")
            mul[x][y] = v
    base = _trusted(FiniteBiunarySemigroup, n=n, mul=tuple(map(tuple, mul)), dmap=c.dmap, rmap=c.rmap,
                    names=c.names)
    return _trusted(OrderedSemigroup, base=base, order=c.order)


def semigroup_of(c: FiniteOrderedCategory) -> OrderedSemigroup:
    """Recover the ordered Ehresmann semigroup via the pseudoproduct.

    x (x) y = x|(R(x) meet D(y)) o (R(x) meet D(y))|y, with D, R, and the
    order carried over unchanged.
    """
    return _semigroup_of(c, Evaluation())


def _esn_round_trip(os: OrderedSemigroup, ev: Evaluation) -> LawReport:
    try:
        c = ev.build(_category_of, os)
    except NotOrderedEhresmann as exc:
        return LawReport(
            "esn-round-trip", False, detail=str(exc), applicable=False
        )
    back = _semigroup_of(c, ev)
    sem_witness = None
    for x in range(os.base.n):
        for y in range(os.base.n):
            if back.base.mul[x][y] != os.base.mul[x][y]:
                sem_witness = (x, y)
                break
        if sem_witness is not None:
            break
    sem_ok = back == os
    # C(back) is C(S) itself when back equals S, so it is rebuilt only otherwise
    cat_ok = sem_ok or _category_of(back, ev) == c
    parts = (("semigroup-direction", sem_ok), ("category-direction", cat_ok))
    if sem_ok and cat_ok:
        return LawReport("esn-round-trip", True, parts=parts)
    detail = "pseudoproduct disagrees with the original product" if not sem_ok else (
        "rebuilt category differs from the original"
    )
    return LawReport("esn-round-trip", False, witness=sem_witness, detail=detail, parts=parts)


def esn_round_trip(os: OrderedSemigroup) -> LawReport:
    """Check that category and semigroup constructions invert each other.

    Semigroup direction: rebuilding the semigroup from its category must
    reproduce the tables and the order exactly.  Category direction: the
    category of the rebuilt semigroup must equal the original category.
    """
    return _esn_round_trip(os, Evaluation())


def esn_round_trip_category(c: FiniteOrderedCategory) -> LawReport:
    """Round trip starting from a category: rebuild it from its semigroup."""
    ev = Evaluation()
    try:
        os = _semigroup_of(c, ev)
    except (PreconditionError, OC6Violation) as exc:
        return LawReport("esn-round-trip", False, detail=str(exc), applicable=False)
    ok = ev.build(_category_of, os) == c
    return LawReport(
        "esn-round-trip",
        ok,
        detail="" if ok else "category of the pseudoproduct semigroup differs",
        parts=(("category-direction", ok),),
    )


def is_eoc_morphism(
    f: FunctorCandidate, c1: FiniteOrderedCategory, c2: FiniteOrderedCategory
) -> LawReport:
    """Decide the Ehresmann-ordered category morphism clauses.

    Clauses, itemized in the report: functor (preserves D, R, and defined
    compositions), order preservation, meet preservation on identities,
    and preservation of restrictions and corestrictions.
    """
    _check_map(f.map, c1.n, c2.n)
    ev = Evaluation()
    for c, side in ((c1, "source"), (c2, "target")):
        pre = ev("ehresmann-ordered-category", c)
        if not pre.holds:
            return LawReport(
                "eoc-morphism",
                False,
                detail=f"{side} is not an Ehresmann-ordered category: {pre.detail}",
                applicable=False,
            )
    return _map_report("eoc-morphism", ("functor", "order", "meet", "restriction"),
                       _category_clauses(c1, c2, ev), f.map, lambda part, w: f"{part} clause fails at {w}")


def _all_epi_witness(c: FiniteOrderedCategory) -> tuple[int, ...] | None:
    """Least (x, t, u), t != u, with x o t = x o u defined, one pass per row x.

    The defined composites of row x fall into groups by value; the least t
    is the least index of any group of two or more, the first of its group,
    and the least u is that group's second index.
    """
    for x, row in enumerate(c.comp):
        first: dict[int, int] = {}
        second: dict[int, int] = {}
        for t, v in enumerate(row):
            if v is not None and first.setdefault(v, t) != t:
                second.setdefault(v, t)
        if second:
            return (x, *min((first[v], u) for v, u in second.items()))
    return None


def _category_clauses(c1: FiniteOrderedCategory, c2: FiniteOrderedCategory, ev: Evaluation) -> list:
    """The clauses of ``is_eoc_morphism``, as ``_map_report`` takes them, on
    two Ehresmann-ordered categories.

    functor: D and R by x, then defined composites by (x, y); order; meet
    by (e, f); restriction: by s, then e, the restriction (witness (e, s))
    before the corestriction (witness (s, e)), both read from the tables
    ``ev`` builds once per category and side.  The target's meet,
    restriction and corestriction tables hold None where the operation is
    undefined (an image that is not an identity, or not below the image's
    domain or range), so a clause landing there fails.
    """
    n1 = c1.n
    dmap2, rmap2, comp2, meet2 = c2.dmap, c2.rmap, c2.comp, c2.meet
    rel1 = c1.order.rel
    ids1 = c1.identities()
    # per side: c1's identity map, both categories' tables by [y][e], the witness at (e, s)
    sides = [(idmap1, ev.build(builder, c1), ev.build(builder, c2), at) for idmap1, builder, at in (
        (c1.dmap, _restrictions, lambda e, s: (e, s)),
        (c1.rmap, _corestrictions, lambda e, s: (s, e)),
    )]
    clauses = []
    for x in range(n1):
        for idmap1, idmap2 in ((c1.dmap, dmap2), (c1.rmap, rmap2)):
            u = idmap1[x]
            clauses.append(("functor", (x,), (x, u), lambda fm, x=x, u=u, t=idmap2: fm[u] == t[fm[x]]))
    for x in range(n1):
        for y in range(n1):
            v = c1.comp[x][y]
            if v is not None:
                clauses.append(("functor", (x, y), (x, y, v),
                                lambda fm, x=x, y=y, v=v: comp2[fm[x]][fm[y]] == fm[v]))
    clauses += _order_clauses(c1.order, c2.order.rel)
    for e in ids1:
        for f in ids1:
            m = c1.meet[e][f]
            clauses.append(("meet", (e, f), (e, f, m),
                            lambda fm, e=e, f=f, m=m: meet2[fm[e]][fm[f]] == fm[m]))
    for s in range(n1):
        for e in ids1:
            for idmap1, t1, t2, at in sides:
                if rel1[e][idmap1[s]]:
                    r = t1[s][e]
                    clauses.append(("restriction", at(e, s), (e, s, r),
                                    lambda fm, e=e, s=s, r=r, t2=t2: t2[fm[s]][fm[e]] == fm[r]))
    return clauses


def _by_last_read(n: int, clauses: list) -> list[list]:
    """Group clause tests by the largest source element they read."""
    levels: list[list] = [[] for _ in range(n)]
    for part, w, reads, test in clauses:
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


# the most candidate maps |T|^|S| morphism_correspondence will consider
_MAP_CEILING = 10_000_000


def morphism_correspondence(s_os: OrderedSemigroup, t_os: OrderedSemigroup) -> LawReport:
    """Compare semigroup and category morphism verdicts over all total maps.

    For every map S -> T the ordered-homomorphism verdict must agree with
    the Ehresmann-ordered category morphism verdict on the corresponding
    categories, and every passing map must also preserve the derived
    biaction.  Map prefixes are pruned side by side (``_accepted_maps``);
    the failure reported is the lexicographically least failing map.
    """
    total = t_os.base.n**s_os.base.n
    if total > _MAP_CEILING:
        raise TooLargeError(f"{total} candidate maps exceed the ceiling of {_MAP_CEILING}")
    ev = Evaluation()
    c1 = ev.build(_category_of, s_os)
    c2 = ev.build(_category_of, t_os)
    b1 = ev.build(_derive_biaction, c1)
    b2 = ev.build(_derive_biaction, c2)
    ids1 = c1.identities()
    n1 = s_os.base.n
    sem_levels = _by_last_read(n1, _ordered_hom_clauses(s_os, t_os))
    cat_levels = _by_last_read(n1, _category_clauses(c1, c2, ev))
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


def _special_correspondences(os: OrderedSemigroup, ev: Evaluation) -> LawReport:
    c = ev.build(_category_of, os)
    natural = _is_natural(os, ev)

    # C(S) of an ordered Ehresmann semigroup is Omega-structured (OC2 is OS2,
    # OC3 is OS3 on the defined products), so its OC laws are decided in full
    os_side = {name: ev(name.lower(), os).holds for name in ("OS4", "OS7", "OS4A", "OS4B")}
    oc_side = {name: ev(name.lower(), c).holds for name in ("OC4", "OC7", "OC4A", "OC4B")}
    restriction_sem = ev("restriction", os.base).holds and natural
    inductive1 = ev("oc8", c).holds and c.meet is not None
    functional_sem = (
        ev("functional", os.base).holds
        and ev("left-restriction-with-range", os.base).holds
        and natural
    )
    functional_cat = oc_side["OC4A"] and _all_epi_witness(c) is None
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


def check_special_correspondences(os: OrderedSemigroup) -> LawReport:
    """Verify the law-by-law transfer between the semigroup and its category.

    Branches: OS4/OC4, OS7/OC7, OS4A/OC4A, OS4B/OC4B, restriction with the
    natural order against inductive-1 (OC8 plus meet-semilattice), and
    functional left restriction with range against OC4A with every element
    an epimorphism.
    """
    return evaluate("special-correspondences", os)


def _monotone_witness(ids, idmap, unique, rel, meet) -> tuple[int, ...] | None:
    """Least x <= y under ``rel`` and identity e whose unique parts below at
    (``idmap``(x) meet e), read from the ``_unique_below`` table ``unique``,
    are missing or unrelated.
    """
    for x in range(len(rel)):
        for y in range(len(rel)):
            if not rel[x][y]:
                continue
            for e in ids:
                u = unique[x].get(meet[idmap[x]][e])
                v = unique[y].get(meet[idmap[y]][e])
                if u is None or v is None or not rel[u][v]:
                    return (x, y, e)
    return None


def _two_orders(c_l: FiniteOrderedCategory, c_r: FiniteOrderedCategory, ev: Evaluation) -> LawReport:
    """The seven clauses of ``check_ehresmann_category_two_orders`` on C₀
    under ≤_l (``c_l``) and under ≤_r (``c_r``), which share their base: the
    first two are the registered OC8a on ``c_l`` and OC8b on ``c_r``."""
    c0, leq_l, leq_r = c_l.base, c_l.order, c_r.order
    ids = c0.identities()
    rel_l, rel_r = leq_l.rel, leq_r.rel
    b1 = ev("oc8a", c_l).holds
    b2 = ev("oc8b", c_r).holds
    b3 = all(rel_l[e][f] == rel_r[e][f] for e in ids for f in ids)
    b4 = b3 and c_l.meet is not None
    b5 = _composite_up_sets(leq_l, leq_r) == _composite_up_sets(leq_r, leq_l)
    b6 = b7 = False
    witness67: tuple[int, ...] | None = None
    if b1 and b2 and b4:
        # the tables OC8a and OC8b were decided on
        w6 = _monotone_witness(ids, c0.dmap, ev.build(_unique_restrictions, c_l), rel_r, c_l.meet)
        w7 = _monotone_witness(ids, c0.rmap, ev.build(_unique_corestrictions, c_r), rel_l, c_l.meet)
        b6, b7 = w6 is None, w7 is None
        witness67 = w6 or w7
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


def _ehresmann_category_two_orders(s: FiniteBiunarySemigroup, ev: Evaluation) -> LawReport:
    """The two-order law on C₀ of ``s`` under its derived orders ≤_l and ≤_r.

    C₀ is built only once ``ehresmann`` holds on ``s``, and then both
    orders agree with the semilattice on the projections: e <=_l f iff
    e = D(e)f = ef, and e <=_r f iff e = fR(e) = fe = ef.  So
    ``_product_meet`` is the meet each derives, and both ordered
    categories skip ``FiniteOrderedCategory``'s checks.
    """
    two = ev.build(_derived_orders, s)
    c0, meet = ev.build(_partial_product_category, s), ev.build(_product_meet, s)
    return _two_orders(*(_ordered_on(c0, order, meet) for order in (two.leq_l, two.leq_r)), ev)


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
    return _two_orders(*(FiniteOrderedCategory(c0, order) for order in (leq_l, leq_r)), Evaluation())


register(
    Law("omega-structured", "category", _omega_structured, ladder=True),
    Law("ehresmann-ordered-category", "category", _ehresmann_ordered_category, ladder=True),
    Law("oc-equivalences", "category", _oc_equivalences, pre="omega-structured", ladder=True),
    _oc_law("OC4", lambda c, ev: _matching_pair_witness(c.n, c.dmap, c.rmap, c.order.rel, True, True)),
    _oc_law("OC4A", lambda c, ev: _matching_pair_witness(c.n, c.dmap, c.rmap, c.order.rel, True, False)),
    _oc_law("OC4B", lambda c, ev: _matching_pair_witness(c.n, c.dmap, c.rmap, c.order.rel, False, True)),
    *_oc_pair_laws("OC6", _oc6_witness, (_restrictions, _corestrictions)),
    _oc_law("OC7", lambda c, ev: ev.build(_oc7_witnesses, c)[0]),
    _oc_law("OC7'", lambda c, ev: ev.build(_oc7_witnesses, c)[1], aliases=("oc7p",)),
    *_oc_pair_laws("OC8", _oc8_witness, (_unique_restrictions, _unique_corestrictions)),
    _oc_law("OCI", lambda c, ev: _osi_witness(c.n, c.identities(), c.order.rel)),
    Law("special-correspondences", "ordered", _special_correspondences, pre="ehresmann-order"),
    Law("ehresmann-category-two-orders", "semigroup", _ehresmann_category_two_orders),
)
