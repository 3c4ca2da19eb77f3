"""Partial orders on a semigroup carrier and the Ehresmann-order laws.

Includes the algebraically derived orders (left, right, and their
permuting composite), the OS-property deciders, and an exhaustive
enumerator for all Ehresmann orders on a finite Ehresmann semigroup.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from itertools import chain, compress
from operator import or_
from typing import Callable, Iterable, Sequence

from .core import (
    Evaluation,
    FiniteBiunarySemigroup,
    HomCandidate,
    InternalInconsistency,
    Law,
    LawReport,
    PreconditionError,
    StructureError,
    _as_tuple,
    _check_map,
    _first_failure,
    _fmt,
    _generating_set,
    _hom_clauses,
    _hom_wording,
    _leaf,
    _map_report,
    _trusted,
    evaluate,
    projections,
    property_key,
    register,
)


@dataclass(frozen=True)
class PartialOrder:
    """Reflexive, antisymmetric, transitive boolean relation on 0..n-1.

    ``rel[a][b]`` means a <= b.  The constructor rejects anything that is
    not a partial order.  The order also carries its bitmask rows, the one
    form every decider and search reads: bit b of ``up[a]`` and bit a of
    ``down[b]`` are set when a <= b, and ``covers[a]`` lists the lower
    covers of a, the c < a with no d such that c < d < a, lowest first.
    ``up`` is built with the order; ``down`` and ``covers`` on first use.
    Equality and hashing read ``n`` and ``rel`` only.
    """

    n: int
    rel: tuple[tuple[bool, ...], ...]
    up: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "rel", tuple(tuple(map(bool, row)) for row in self.rel))
        except TypeError:
            raise StructureError("order relation must be an n x n matrix") from None
        n = self.n
        if len(self.rel) != n or any(len(row) != n for row in self.rel):
            raise StructureError("order relation must be an n x n matrix")
        up = _up_sets(n, self.rel)
        object.__setattr__(self, "up", up)
        # the scan decides the order and names its least violation
        for a in range(n):
            if not up[a] >> a & 1:
                raise StructureError(f"order is not reflexive at {a}")
        for a in range(n):
            for b in _bits(up[a]):
                if a != b and up[b] >> a & 1:
                    raise StructureError(f"order is not antisymmetric at ({a}, {b})")
                if up[b] & ~up[a]:
                    raise StructureError(f"order is not transitive at ({a}, {b}, {_lowest(up[b] & ~up[a])})")

    @cached_property
    def down(self) -> tuple[int, ...]:
        return _up_sets(self.n, tuple(zip(*self.rel)))

    @cached_property
    def covers(self) -> tuple[tuple[int, ...], ...]:
        down, out = self.down, []
        for a, d in enumerate(down):
            strict = list(_bits(d ^ 1 << a))
            inner = reduce(or_, (down[y] ^ 1 << y for y in strict), 0)
            out.append(tuple(y for y in strict if not inner >> y & 1))
        return tuple(out)

    @classmethod
    def equality(cls, n: int) -> "PartialOrder":
        return cls.from_pairs(n, ())

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "PartialOrder":
        """Reflexive-transitive closure of the given pairs.

        Raises StructureError when the closure breaks antisymmetry.  The
        closed up-sets are the order's ``up`` rows, and the order skips the
        constructor's checks: each up-set holds its own element (reflexive)
        and the up-set of each of its members (transitive), and no two are
        equal, as a <= b <= a would make them (antisymmetric).
        """
        if not isinstance(n, int) or n < 0:
            raise StructureError(f"order size {n!r} is not a non-negative integer")
        up = [1 << a for a in range(n)]
        for pair in _as_tuple(pairs, "order pairs must be an iterable of pairs", rows=True):
            if len(pair) != 2:
                raise StructureError(f"order pair {pair!r} is not a pair")
            a, b = pair
            if not (isinstance(a, int) and isinstance(b, int) and 0 <= a < n and 0 <= b < n):
                raise StructureError(f"order pair ({a}, {b}) out of range")
            up[a] |= 1 << b
        # a <= k puts k's up-set in a's, until a's up-set gains no new element
        for a in range(n):
            u, done = up[a], 1 << a
            while todo := u & ~done:
                low = todo & -todo
                done |= low
                u |= up[low.bit_length() - 1]
            up[a] = u
        # closed up-sets are equal exactly when the closure makes a <= b <= a
        if len(set(up)) != n:
            a = next(a for a, u in enumerate(up) if up.count(u) > 1)
            b = up.index(up[a], a + 1)
            raise StructureError(f"order closure breaks antisymmetry between {a} and {b}")
        return _trusted(cls, n=n, rel=tuple(_bool_row(u, n) for u in up), up=tuple(up))

    def leq(self, a: int, b: int) -> bool:
        return self.rel[a][b]

    def pairs(self, strict: bool = False) -> list[tuple[int, int]]:
        return [(a, b) for a, u in enumerate(self.up) for b in _bits(u) if not strict or a != b]

    def contains(self, other: "PartialOrder") -> bool:
        """True when every pair of ``other`` is also related here."""
        return all(self.rel[a][b] for a, b in other.pairs(strict=True))

    def key(self) -> tuple[int, ...]:
        return tuple(int(v) for row in self.rel for v in row)

    def glb(self, a: int, b: int, within: Sequence[int] | None = None) -> int | None:
        """Greatest lower bound of a and b, restricted to ``within`` if given."""
        pool = range(self.n) if within is None else _as_tuple(within, "glb pool must be an iterable of elements")
        for v in (a, b, *pool):
            if not isinstance(v, int) or not 0 <= v < self.n:
                raise StructureError(f"glb element {v!r} out of range 0..{self.n - 1}")
        lower = [c for c in pool if self.rel[c][a] and self.rel[c][b]]
        for m in lower:
            if all(self.rel[c][m] for c in lower):
                return m
        return None


# the bits of each byte value, lowest first, as booleans
_BYTE_BITS = tuple(tuple(bool(v >> i & 1) for i in range(8)) for v in range(256))


def _bool_row(mask: int, n: int) -> tuple[bool, ...]:
    """Bits 0..n-1 of ``mask`` as booleans, read a byte at a time."""
    octets = mask.to_bytes(n + 7 >> 3, "little")
    return tuple(chain.from_iterable(map(_BYTE_BITS.__getitem__, octets)))[:n]


def _bits(mask: int) -> Iterable[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _up_sets(n: int, rel: tuple[tuple[bool, ...], ...]) -> tuple[int, ...]:
    """The up-set of each row of the n x n matrix ``rel`` as a bitmask: bit b of entry a is set when a <= b."""
    weights = [1 << b for b in range(n)]
    return tuple(sum(compress(weights, row)) for row in rel)


def _composite_up_sets(p: PartialOrder, q: PartialOrder) -> tuple[int, ...]:
    """The up-sets of the left-to-right relational composite of two orders, as
    bitmasks: bit c of entry a is set when a <= b under ``p`` and b <= c under
    ``q`` for some b."""
    return tuple(reduce(or_, compress(q.up, row)) for row in p.rel)


@dataclass(frozen=True)
class OrderedSemigroup:
    """A biunary semigroup paired with a partial order under test."""

    base: FiniteBiunarySemigroup
    order: PartialOrder

    def __post_init__(self) -> None:
        if not isinstance(self.base, FiniteBiunarySemigroup):
            raise StructureError("base must be a FiniteBiunarySemigroup")
        if not isinstance(self.order, PartialOrder):
            raise StructureError("order must be a PartialOrder")
        if self.base.n != self.order.n:
            raise StructureError("order and carrier sizes differ")


@dataclass(frozen=True)
class DerivedOrders:
    leq_l: PartialOrder
    leq_r: PartialOrder
    leq_e: PartialOrder


def derive_orders(s: FiniteBiunarySemigroup) -> DerivedOrders:
    """Compute the three algebraic orders of an Ehresmann semigroup.

    a <=_l b iff a = D(a)b, a <=_r b iff a = bR(a), and a <=_e b iff
    a = D(a)bR(a).  Each is validated as a partial order and the composite
    identity leq_e = leq_l . leq_r = leq_r . leq_l is asserted on up-set
    bitmasks; violations raise InternalInconsistency and indicate the input
    is not Ehresmann.
    """
    n, mul, D, R = s.n, s.mul, s.dmap, s.rmap
    cols = tuple(zip(*mul))

    def relation(compared) -> PartialOrder:
        """The order with a <= b when ``compared[a][b]`` is a."""
        return PartialOrder(n, tuple(tuple([v == a for v in row]) for a, row in enumerate(compared)))

    try:
        # D(a)b is row D(a) of the table, bR(a) column R(a), D(a)bR(a) row D(a) read through column R(a)
        leq_l = relation(mul[D[a]] for a in range(n))
        leq_r = relation(cols[R[a]] for a in range(n))
        leq_e = relation(map(cols[R[a]].__getitem__, mul[D[a]]) for a in range(n))
    except StructureError as exc:
        raise InternalInconsistency(f"derived relation is not a partial order: {exc}") from exc
    if _composite_up_sets(leq_l, leq_r) != leq_e.up or _composite_up_sets(leq_r, leq_l) != leq_e.up:
        raise InternalInconsistency("left and right orders do not compose to the e-order")
    return DerivedOrders(leq_l, leq_r, leq_e)


def _derived_orders(s: FiniteBiunarySemigroup, ev: Evaluation) -> DerivedOrders:
    """``derive_orders(s)``, in the form ``Evaluation.build`` takes."""
    return derive_orders(s)


def _natural(s: FiniteBiunarySemigroup, ev: Evaluation) -> OrderedSemigroup:
    """``s`` under its e-order, in the form ``Evaluation.build`` takes: one
    subject per unit of work, shared by every law decided on it."""
    return OrderedSemigroup(s, ev.build(_derived_orders, s).leq_e)


def _is_natural(os: OrderedSemigroup, ev: Evaluation) -> bool:
    """Whether the order of ``os`` is the e-order of its base."""
    return os.order.rel == ev.build(_natural, os.base).order.rel


def _os2_witness(n: int, dmap, rmap, rel) -> tuple[int, ...] | None:
    """Least a <= b with D(a) <= D(b) or R(a) <= R(b) failing: OS2, and OC2 on categories."""
    for a in range(n):
        for b in range(n):
            if rel[a][b] and (not rel[dmap[a]][dmap[b]] or not rel[rmap[a]][rmap[b]]):
                return (a, b)
    return None


def _os3_witness(n: int, mul, rel) -> tuple[int, ...] | None:
    """Least a <= b, c <= d with ac <= bd failing: OS3, and OC3 where ``mul`` is partial."""
    pairs = [(a, b) for a in range(n) for b in range(n) if rel[a][b]]
    for a, b in pairs:
        for c, d in pairs:
            ac, bd = mul[a][c], mul[b][d]
            if ac is not None and bd is not None and not rel[ac][bd]:
                return (a, b, c, d)
    return None


def _products_by(mul, gens: Sequence[int] | None) -> tuple[Sequence, Sequence]:
    """``right`` and ``left`` of ``mul``: right[a] lists the products a*g and
    left[a] the products g*a, for g in ``gens`` (every g when None)."""
    if gens is None:
        return mul, tuple(zip(*mul))
    return [tuple(map(row.__getitem__, gens)) for row in mul], tuple(zip(*map(mul.__getitem__, gens)))


def _os3_total_witness(n: int, mul, rel, gens: Sequence[int] | None = None) -> tuple[int, ...] | None:
    """``_os3_witness`` for a total, associative ``mul`` generated by ``gens``
    (every element when None), decided in |<|·|gens| steps.

    On a total table OS3 holds iff a < b implies ac <= bc and ca <= cb for
    every c, since then ac <= bc <= bd.  The generators are enough: if
    a <= b gives ag <= bg and ga <= gb for every generator g, then for
    c = g1…gk induction gives ac <= bc and ca <= cb.  Only when that fails
    does the scan run, to report the least witness.
    """
    right, left = _products_by(mul, gens)
    for a in range(n):
        ra, ma, ca = rel[a], right[a], left[a]
        for b in range(n):
            if a == b or not ra[b]:
                continue
            mb, cb = right[b], left[b]
            for c in range(len(ma)):
                if not rel[ma[c]][mb[c]] or not rel[ca[c]][cb[c]]:
                    return _os3_witness(n, mul, rel)
    return None


def _products_with(table, masks: Sequence[int]) -> Callable[[int, int], int]:
    """``products(a, b)``: the bitmask of the defined products x*y with x in
    ``masks[a]`` and y in ``masks[b]`` (an order's down-sets or up-sets);
    each row x*masks[b] is made once, when first needed."""
    n = len(table)
    sets = [list(_bits(m)) for m in masks]
    bit = {v: 1 << v for v in range(n)}
    bit[None] = 0
    rows: list[list[int | None]] = [[None] * n for _ in range(n)]

    def products(a: int, b: int) -> int:
        ys, out = sets[b], 0
        for x in sets[a]:
            m = rows[x][b]
            if m is None:
                m = rows[x][b] = reduce(or_, map(bit.__getitem__, map(table[x].__getitem__, ys)))
            out |= m
        return out

    return products


def _lowest(mask: int) -> int:
    """The position of the lowest set bit of a nonzero ``mask``."""
    return (mask & -mask).bit_length() - 1


def _os6_witness(os: OrderedSemigroup, proj: Sequence[int]) -> tuple[int, ...] | None:
    s, rel = os.base, os.order.rel
    for a in range(s.n):
        for e in proj:
            if not rel[s.mul[a][e]][a] or not rel[s.mul[e][a]][a]:
                return (a, e)
    return None


def _osi_witness(n: int, proj: Sequence[int], rel) -> tuple[int, ...] | None:
    """Least a outside ``proj`` below some e in ``proj``: OSI, and OCI on categories."""
    pset = set(proj)
    for a in range(n):
        if a in pset:
            continue
        for e in proj:
            if rel[a][e]:
                return (a, e)
    return None


def _ehresmann_order(os: OrderedSemigroup, ev: Evaluation) -> LawReport:
    s = os.base
    proj = projections(s).sorted_members
    checks = (
        ("OS2", _os2_witness(s.n, s.dmap, s.rmap, os.order.rel)),
        ("OS3", _os3_total_witness(s.n, s.mul, os.order.rel, ev.build(_generating_set, s))),
        ("OS6", _os6_witness(os, proj)),
        ("OSI", _osi_witness(s.n, proj, os.order.rel)),
    )
    return _first_failure("ehresmann-order", s, checks, lead=(("OS1", True),))


def check_ehresmann_order(os: OrderedSemigroup) -> LawReport:
    """Decide whether the order makes the semigroup an ordered Ehresmann semigroup.

    Sub-laws: OS1 (localisable base; poset is enforced by the type), OS2
    (D and R monotone), OS3 (product monotone), OS6 (products with
    projections go down), OSI (projections form an order ideal).
    """
    return evaluate("ehresmann-order", os)


def _matching_pair_witness(n: int, dmap, rmap, rel, need_d: bool, need_r: bool):
    """Least a < b with D(a) = D(b) when ``need_d`` and R(a) = R(b) when ``need_r``."""
    for a in range(n):
        for b in range(n):
            if a == b or not rel[a][b]:
                continue
            if need_d and dmap[a] != dmap[b]:
                continue
            if need_r and rmap[a] != rmap[b]:
                continue
            return (a, b)
    return None


def _os4_law(name: str, need_d: bool, need_r: bool) -> Law:
    def decide(os: OrderedSemigroup, ev: Evaluation) -> LawReport:
        s = os.base
        w = _matching_pair_witness(s.n, s.dmap, s.rmap, os.order.rel, need_d, need_r)
        return _leaf(name, w, lambda a, b: f"{s.name_of(a)} < {s.name_of(b)} with matching maps")

    return Law(name, "ordered", decide, pre="ehresmann-order", ladder=True)


# Orders on at most this many elements skip the cover pass of ``_os7_holds``
# and go straight to the witness search.  Where OS7 holds (2 CPUs, Python
# 3.11, mean over Ehresmann orders, us) the search is faster on the size-4
# sweep (25.5 against 28.9 for the pass), level at size 5 (31.4 against
# 31.1 over every third class) and faster on 150 size-6 structures (39.8
# against 42.4); the pass wins from the 7-element inj-2 on (46 against 61;
# rel-2 241 against 574, pt-3 1,790 against 6,280).
_OS7_SCAN_MAX_N = 6

# The cover pass builds this many columns b at a time.  pt-3 took 3.2, 1.7,
# 1.6, 1.5 and 1.65 ms with blocks of 8, 16, 32, 64 and 128 columns; rel-3,
# which fails OS7, gave up after 11, 8, 10, 14 and 25 ms.
_OS7_BLOCK = 64


def _os7_holds(mul, order: PartialOrder) -> bool:
    """Whether every u <= ab is some x*y with x <= a and y <= b, on the
    down-set bitmasks and lower covers of ``order``.

    A down-set is its top and the down-sets of its lower covers.  So the
    mask {x*y : y <= b} of each x is the bit of x*b or'ed with the masks of
    the lower covers of b, one column b at a time, and the mask
    {x*y : x <= a, y <= b} of a is its own or'ed with those of the lower
    covers of a, a row of ``_OS7_BLOCK`` columns at a time.  Both run up a
    linear extension (by down-set size), and a False comes at the first
    row that misses an element, in the first block where one does.
    """
    n = len(mul)
    bit = [1 << v for v in range(n)]
    down, covers = order.down, order.covers
    rising = sorted(range(n), key=lambda a: down[a].bit_count())
    cols = tuple(zip(*mul))
    right: list = [None] * n  # right[b][x] is {x*y : y <= b}
    for start in range(0, n, _OS7_BLOCK):
        block = rising[start:start + _OS7_BLOCK]
        for b in block:
            col = list(map(bit.__getitem__, cols[b]))
            for d in covers[b]:
                col = list(map(or_, col, right[d]))
            right[b] = col
        rows = list(zip(*map(right.__getitem__, block)))
        made: list = [None] * n  # made[a][i] is {x*y : x <= a, y <= block[i]}
        for a in rising:
            row = rows[a]
            for c in covers[a]:
                row = tuple(map(or_, row, made[c]))
            made[a] = row
            if tuple(map(or_, map(down.__getitem__, map(mul[a].__getitem__, block)), row)) != row:
                return False
    return True


def _os7(os: OrderedSemigroup, ev: Evaluation) -> LawReport:
    s, n, down = os.base, os.base.n, os.order.down
    w = None
    # the cover pass says "holds" on a larger order; a failure is searched for the least witness
    if n <= _OS7_SCAN_MAX_N or not _os7_holds(s.mul, os.order):
        products = _products_with(s.mul, down)

        def missing(a: int, b: int) -> int:
            """The u <= ab that no x*y with x <= a, y <= b gives, as a bitmask."""
            ab = s.mul[a][b]
            need = down[ab] & ~(1 << ab)  # ab = a*b is one
            return need & ~products(a, b) if need else 0

        w = next(((a, b, _lowest(m)) for a in range(n) for b in range(n) for m in [missing(a, b)] if m), None)
    return _leaf("OS7", w, lambda a, b, u: (
        f"{s.name_of(u)} <= {s.name_of(a)}*{s.name_of(b)} has no factorisation below the factors"))


def check_OS_property(os: OrderedSemigroup, prop: str) -> LawReport:
    """Decide one of the optional order properties OS4, OS4A, OS4B, OS7."""
    return evaluate(property_key(prop, "OS"), os)


def _semilattice_order_agreement(os: OrderedSemigroup, ev: Evaluation) -> LawReport:
    s = os.base
    proj = projections(s).sorted_members
    w = next(((e, f) for e in proj for f in proj if os.order.rel[e][f] != (e == s.mul[e][f])), None)
    return _leaf("semilattice-order-agreement", w,
                 lambda e, f: f"order and semilattice disagree at ({s.name_of(e)}, {s.name_of(f)})")


def semilattice_order_agreement(os: OrderedSemigroup) -> LawReport:
    """Decide that on projections, e <= f iff e = ef."""
    return evaluate("semilattice-order-agreement", os)


def _leq_e_containment(os: OrderedSemigroup, ev: Evaluation) -> LawReport:
    leq_e = ev.build(_natural, os.base).order
    w = next(((a, b) for a, b in leq_e.pairs(strict=True) if not os.order.rel[a][b]), None)
    return _leaf("leq-e-containment", w,
                 lambda a, b: f"{os.base.name_of(a)} <=_e {os.base.name_of(b)} is not in the order")


def leq_e_containment(os: OrderedSemigroup) -> LawReport:
    """Decide that the order contains the derived e-order."""
    return evaluate("leq-e-containment", os)


def _leq_e_partial_laws(s: FiniteBiunarySemigroup, ev: Evaluation) -> LawReport:
    # OS1 holds by construction of leq_e; OS2, OS6 and OSI hold on every
    # Ehresmann semigroup, so the ehresmann-order report fails, if at all, at OS3
    rep = ev("ehresmann-order", ev.build(_natural, s))
    held = dict(rep.parts)
    for name in ("OS2", "OS6", "OSI"):
        if not held[name]:
            raise InternalInconsistency(f"{name} is guaranteed but fails for the derived e-order")
    parts = tuple((name, held[name]) for name in ("OS1", "OS2", "OS6", "OSI", "OS3"))
    detail = "" if rep.holds else f"OS3 fails for the e-order at ({_fmt(s, *rep.witness)})"
    return replace(rep, law="leq-e-partial-laws", detail=detail, parts=parts)


def check_leq_e_partial_laws(s: FiniteBiunarySemigroup) -> LawReport:
    """Evaluate OS1, OS2, OS6, OSI and OS3 for the derived e-order.

    The first four always hold on an Ehresmann semigroup; a failure there
    raises InternalInconsistency.  OS3 may genuinely fail and its verdict
    is the de Barros test, so the overall verdict equals the OS3 verdict.
    """
    return evaluate("leq-e-partial-laws", s)


def _de_barros(s: FiniteBiunarySemigroup, ev: Evaluation) -> LawReport:
    partial = ev("leq-e-partial-laws", s)
    if partial.holds != ev("de-barros-equational", s).holds:
        raise InternalInconsistency(
            "order-based and equational de Barros verdicts disagree"
        )
    agrees = "equational criterion agrees"
    detail = f"{partial.detail}; {agrees}" if partial.detail else agrees
    return LawReport("de-barros", partial.holds, witness=partial.witness, detail=detail)


def is_de_barros(s: FiniteBiunarySemigroup) -> LawReport:
    """Decide whether the derived e-order is compatible with multiplication.

    Cross-validated against the equational form; the two verdicts must
    agree, otherwise InternalInconsistency is raised.
    """
    return evaluate("de-barros", s)


def _order_clauses(order: PartialOrder, trel) -> list:
    """The order clauses of a map F, as ``_map_report`` takes them: F(a) <= F(b)
    under ``trel`` for each a < b of ``order``."""
    return [("order", (a, b), (a, b), lambda fm, a=a, b=b: trel[fm[a]][fm[b]])
            for a, b in order.pairs(strict=True)]


def _ordered_hom_clauses(src: OrderedSemigroup, tgt: OrderedSemigroup) -> list:
    """The clauses of ``is_ordered_hom``: mul, D, R, then order."""
    return _hom_clauses(src.base, tgt.base) + _order_clauses(src.order, tgt.order.rel)


def is_ordered_hom(
    f: HomCandidate, src: OrderedSemigroup, tgt: OrderedSemigroup
) -> LawReport:
    """Decide whether ``f`` preserves mul, D, R, and the order."""
    s, t, fm = src.base, tgt.base, f.map
    _check_map(fm, s.n, t.n)
    hom = _hom_wording(s, t, fm)

    def wording(part: str, w: tuple[int, ...]) -> str:
        if part != "order":
            return hom(part, w)
        a, b = w
        return (f"{s.name_of(a)} <= {s.name_of(b)} but images"
                f" {t.name_of(fm[a])} and {t.name_of(fm[b])} are unrelated")

    return _map_report("ordered-homomorphism", ("mul", "D", "R", "order"),
                       _ordered_hom_clauses(src, tgt), fm, wording)


def automorphisms(s: FiniteBiunarySemigroup) -> list[tuple[int, ...]]:
    """All permutations of the carrier preserving mul, D, and R."""
    n = s.n
    result: list[tuple[int, ...]] = []
    perm: list[int] = [-1] * n
    used = [False] * n

    def consistent(i: int) -> bool:
        pi = perm[i]
        for j in range(n):
            pj = perm[j]
            if pj < 0:
                continue
            if perm[s.mul[i][j]] >= 0 and perm[s.mul[i][j]] != s.mul[pi][pj]:
                return False
            if perm[s.mul[j][i]] >= 0 and perm[s.mul[j][i]] != s.mul[pj][pi]:
                return False
        if perm[s.dmap[i]] >= 0 and perm[s.dmap[i]] != s.dmap[pi]:
            return False
        if perm[s.rmap[i]] >= 0 and perm[s.rmap[i]] != s.rmap[pi]:
            return False
        return True

    def extend(i: int) -> None:
        if i == n:
            cand = tuple(perm)
            ok = all(
                cand[s.mul[a][b]] == s.mul[cand[a]][cand[b]]
                for a in range(n)
                for b in range(n)
            ) and all(
                cand[s.dmap[a]] == s.dmap[cand[a]] and cand[s.rmap[a]] == s.rmap[cand[a]]
                for a in range(n)
            )
            if ok:
                result.append(cand)
            return
        for v in range(n):
            if used[v]:
                continue
            perm[i] = v
            used[v] = True
            if consistent(i):
                extend(i + 1)
            perm[i] = -1
            used[v] = False

    extend(0)
    return result


class _OrderSearch:
    """DFS over order extensions of the derived e-order.

    A state is a relation kept closed under transitivity, the monotonicity
    rule for D and R, and product compatibility, read on the generators of
    ``_generating_set``, as bitmask rows: bit b of ``up[a]`` and bit a of
    ``down[b]`` are set when a <= b, and bit b of ``ex[a]`` when the
    branch has excluded a <= b.  Pairs that would break
    antisymmetry, put a non-projection under a projection or add an
    excluded pair prune the branch.
    """

    def __init__(self, s: FiniteBiunarySemigroup, ev: Evaluation):
        n = self.n = s.n
        self.s = s
        self.right, self.left = _products_by(s.mul, ev.build(_generating_set, s))
        proj = self.proj = sum(1 << e for e in projections(s).members)
        leq_e = ev.build(_derived_orders, s).leq_e
        up, down = list(leq_e.up), list(leq_e.down)  # copies: _close extends them
        queue = [(a, b) for a in range(n) for b in _bits(up[a]) if a != b]
        self.root_ok = self._close(up, down, queue, [0] * n)
        self.root = (up, down)
        # OS2 puts D(a) <= D(b) and R(a) <= R(b) under a <= b, and every
        # Ehresmann order agrees with the root on projections (e <= f gives
        # e = ee <= fe, and fe <= e in the root), so no Ehresmann order holds a
        # pair whose D or R images the root leaves unordered: none is branched
        # on.  So the candidates b of a are read from one mask: unordered with
        # a, no projection over a non-projection, D(a) <= D(b) and R(a) <= R(b)
        self.candidates = []
        if self.root_ok:
            D, R = s.dmap, s.rmap
            # bit b of d_above[e] is set when e <= D(b) in the root, of r_above[e] when e <= R(b)
            d_above, r_above = ({e: sum(1 << b for b, f in enumerate(idmap) if up[e] >> f & 1) for e in set(idmap)}
                                for idmap in (D, R))
            for a in range(n):
                mask = d_above[D[a]] & r_above[R[a]] & ~(up[a] | down[a] | (0 if proj >> a & 1 else proj))
                self.candidates += ((a, b) for b in _bits(mask))

    def _close(self, up: list[int], down: list[int], queue: list[tuple[int, int]],
               ex: Sequence[int]) -> bool:
        """Add what the queued pairs imply; False when that prunes the branch.

        From a popped a <= b this derives D(a) <= D(b), R(a) <= R(b),
        ag <= bg and ga <= gb for every generator g, and x <= y for every
        x <= a and b <= y.  Every pair added is popped in turn, so for
        c = g1…gk induction gives ac <= bc and ca <= cb, and with
        reflexivity and transitivity that reaches the closure under
        a <= b, c <= d => ac <= bd: the same orders and the same prunes as
        multiplying by every c.
        """
        right, left, D, R, proj = self.right, self.left, self.s.dmap, self.s.rmap, self.proj
        while queue:
            a, b = queue.pop()
            derived = [(D[a], D[b]), (R[a], R[b])]
            derived += zip(right[a], right[b])
            derived += zip(left[a], left[b])
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

    def solve(self) -> set[tuple[int, ...]]:
        """The ``up`` rows of every closed extension, one branch per candidate pair."""
        cands = self.candidates
        out: set[tuple[int, ...]] = set()
        if not self.root_ok:
            return out
        up, down = self.root
        stack = [(up, down, [0] * self.n, 0)]
        while stack:
            up, down, ex, idx = stack.pop()
            while idx < len(cands) and up[cands[idx][0]] >> cands[idx][1] & 1:
                idx += 1
            if idx == len(cands):
                out.add(tuple(up))
                continue
            a, b = cands[idx]
            excluded = list(ex)
            excluded[a] |= 1 << b
            stack.append((up, down, excluded, idx + 1))
            if not up[b] >> a & 1:
                inc_up, inc_down = list(up), list(down)
                inc_up[a] |= 1 << b
                inc_down[b] |= 1 << a
                if self._close(inc_up, inc_down, [(a, b)], ex):
                    stack.append((inc_up, inc_down, ex, idx + 1))
        return out


def _ehresmann_orders(s: FiniteBiunarySemigroup, ev: Evaluation) -> tuple[OrderedSemigroup, ...]:
    """``s`` under each of its Ehresmann orders, canonically sorted.

    Each closed up-set family the search yields is the ``up`` rows of a
    partial order on the n elements of ``s``, so the orders and ordered
    semigroups skip their constructors' checks: every row starts from the
    reflexive e-order and only gains bits, ``_close`` adds x <= y for each
    x below and y above every pair it adds (transitive), and a pair whose
    reverse is already related prunes its branch (antisymmetric).
    """
    pre = ev("ehresmann", s)
    if not pre.holds:
        raise PreconditionError(f"structure is not an Ehresmann semigroup: {pre.detail}")
    n = s.n
    # matrices differ, so the up rows are never compared
    closed = sorted(
        (tuple(_bool_row(row, n) for row in up), up)
        for up in _OrderSearch(s, ev).solve()
    )
    natural = ev.build(_natural, s)
    found = []
    for mat, up in closed:
        osg = natural if mat == natural.order.rel else _trusted(
            OrderedSemigroup, base=s, order=_trusted(PartialOrder, n=n, rel=mat, up=up))
        rep = ev("ehresmann-order", osg)
        if not rep.holds:
            raise InternalInconsistency(
                f"enumerated order fails the law check: {rep.detail}"
            )
        found.append(osg)
    return tuple(found)


def enumerate_ehresmann_orders(
    s: FiniteBiunarySemigroup, up_to_iso: bool = False
) -> list[PartialOrder]:
    """All partial orders making ``s`` an ordered Ehresmann semigroup.

    The search grows upward from the derived e-order, which every
    Ehresmann order contains, propagating the closure rules after each
    added pair.  Output is canonically sorted by the relation matrix read
    as a bit string; with ``up_to_iso`` one representative per orbit of
    the automorphism group is kept, the one no automorphism makes smaller.
    """
    orders = [osg.order for osg in _ehresmann_orders(s, Evaluation())]
    if up_to_iso:
        auts = automorphisms(s)
        # the identity is among auts, so an order is kept when its key is its orbit's least
        orders = [o for o in orders if min(_permuted_order_key(o, p) for p in auts) == o.key()]
    return orders


def _permuted_order_key(order: PartialOrder, perm: Sequence[int]) -> tuple[int, ...]:
    """The key of ``order`` with x renamed perm[x]."""
    n = order.n
    key = [0] * (n * n)
    for a, row in enumerate(order.rel):
        for b, v in enumerate(row):
            key[perm[a] * n + perm[b]] = int(v)
    return tuple(key)


def _smallest_order(s: FiniteBiunarySemigroup, ev: Evaluation) -> LawReport:
    found = ev.build(_ehresmann_orders, s)
    if not any(_is_natural(osg, ev) for osg in found):
        return LawReport(
            "smallest-ehresmann-order",
            False,
            detail="the e-order is not among the enumerated Ehresmann orders",
        )
    for osg in found:
        contains = ev("leq-e-containment", osg)
        if not contains.holds:
            return LawReport(
                "smallest-ehresmann-order",
                False,
                witness=contains.witness,
                detail="an enumerated order does not contain the e-order",
            )
    return LawReport(
        "smallest-ehresmann-order",
        True,
        detail=f"e-order is least among {len(found)} Ehresmann orders",
    )


def smallest_order_check(s: FiniteBiunarySemigroup) -> LawReport:
    """Decide that the e-order is the least Ehresmann order on a de Barros semigroup."""
    return evaluate("smallest-ehresmann-order", s)


register(
    Law("ehresmann-order", "ordered", _ehresmann_order, pre="localisable",
        prefix="OS1 fails, base not localisable: ", part="OS1", ladder=True),
    Law("semilattice-order-agreement", "ordered", _semilattice_order_agreement,
        pre="ehresmann-order", ladder=True),
    Law("leq-e-containment", "ordered", _leq_e_containment, pre="ehresmann-order", ladder=True),
    _os4_law("OS4", True, True),
    _os4_law("OS4A", True, False),
    _os4_law("OS4B", False, True),
    Law("OS7", "ordered", _os7, pre="ehresmann-order", ladder=True),
    Law("de-barros", "semigroup", _de_barros, pre="ehresmann", ladder=True),
    Law("leq-e-partial-laws", "semigroup", _leq_e_partial_laws, pre="ehresmann"),
    Law("smallest-ehresmann-order", "semigroup", _smallest_order, pre="de-barros"),
)
