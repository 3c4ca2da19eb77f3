"""Finite biunary semigroups and the equational laws that classify them.

A structure lives on the carrier 0..n-1: the product is an n x n index
table and the domain/range operations D, R are n-vectors.  Display names
are metadata only.  Every law decision returns a :class:`LawReport`; when
a law fails, the report carries the lexicographically least failing
instance so the failure can be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


class WorkbenchError(Exception):
    """Base class for structured errors raised by this package."""


class StructureError(WorkbenchError):
    """Malformed table, map, or input text."""


class InconsistentProjections(WorkbenchError):
    """The D-image and R-image disagree, or the projections fail to form a band."""


class InternalInconsistency(WorkbenchError):
    """A guaranteed postcondition failed; signals a violated precondition or a bug."""


class TooLargeError(WorkbenchError):
    """The request exceeds the desk-scale ceiling of this tool."""


class PreconditionError(WorkbenchError):
    """Operation invoked on a structure that fails its stated precondition."""


class NotOrderedEhresmann(PreconditionError):
    """The given semigroup/order pair is not an ordered Ehresmann semigroup."""


class OC6Violation(WorkbenchError):
    """A restriction or corestriction instance has no maximum of the required kind."""


@dataclass(frozen=True)
class LawReport:
    """Verdict for one law on one structure.

    ``witness`` is the lexicographically least failing instance, as a tuple
    of element indices in the order the law quantifies them.  ``parts``
    itemizes sub-laws for compound checks.  ``applicable`` is False when
    the check was evaluated on a structure that fails the prerequisite the
    law is normally stated under.
    """

    law: str
    holds: bool
    witness: tuple[int, ...] | None = None
    detail: str = ""
    applicable: bool = True
    parts: tuple[tuple[str, bool], ...] = ()

    def to_dict(self) -> dict:
        return {
            "law": self.law,
            "holds": self.holds,
            "witness": list(self.witness) if self.witness is not None else None,
            "detail": self.detail,
            "applicable": self.applicable,
            "parts": [[name, ok] for name, ok in self.parts],
        }


@dataclass(frozen=True)
class FiniteBiunarySemigroup:
    """Carrier 0..n-1 with a total multiplication table and unary maps D, R.

    The constructor validates only well-formedness (square table, indices
    in range).  Associativity and the biunary laws are properties under
    test, decided by the check_* functions.
    """

    n: int
    mul: tuple[tuple[int, ...], ...]
    dmap: tuple[int, ...]
    rmap: tuple[int, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mul", tuple(tuple(row) for row in self.mul))
        object.__setattr__(self, "dmap", tuple(self.dmap))
        object.__setattr__(self, "rmap", tuple(self.rmap))
        if self.names is not None:
            object.__setattr__(self, "names", tuple(str(x) for x in self.names))
        n = self.n
        if n < 1:
            raise StructureError("carrier must have at least one element")
        if len(self.mul) != n or any(len(row) != n for row in self.mul):
            raise StructureError("multiplication table must be n x n")
        for row in self.mul:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise StructureError(f"table entry {v!r} out of range 0..{n - 1}")
        for label, vec in (("D", self.dmap), ("R", self.rmap)):
            if len(vec) != n:
                raise StructureError(f"{label} must assign all {n} elements")
            for v in vec:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise StructureError(f"{label} entry {v!r} out of range 0..{n - 1}")
        if self.names is not None:
            if len(self.names) != n:
                raise StructureError("names must cover the whole carrier")
            if len(set(self.names)) != n:
                raise StructureError("element names must be distinct")

    def name_of(self, i: int) -> str:
        return self.names[i] if self.names is not None else str(i)

    def key(self) -> tuple[int, ...]:
        """Canonical flat encoding used for sorting and table comparison."""
        flat: list[int] = [self.n]
        for row in self.mul:
            flat.extend(row)
        flat.extend(self.dmap)
        flat.extend(self.rmap)
        return tuple(flat)


@dataclass(frozen=True)
class ProjectionSet:
    """The set D(S) = R(S) of projections of a localisable semigroup."""

    members: frozenset[int]

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __contains__(self, e: int) -> bool:
        return e in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.sorted_members)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class HomCandidate:
    """A total map between carriers, proposed as a homomorphism."""

    source: str
    target: str
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "map", tuple(self.map))


def _fmt(s: FiniteBiunarySemigroup, *indices: int) -> str:
    return ", ".join(s.name_of(i) for i in indices)


def check_associativity(s: FiniteBiunarySemigroup) -> LawReport:
    """Decide (ab)c = a(bc) over all triples."""
    mul = s.mul
    for a in range(s.n):
        for b in range(s.n):
            ab = mul[a][b]
            row_a = mul[a]
            for c in range(s.n):
                if mul[ab][c] != row_a[mul[b][c]]:
                    return LawReport(
                        "associativity",
                        False,
                        witness=(a, b, c),
                        detail=(
                            f"({_fmt(s, a)}*{_fmt(s, b)})*{_fmt(s, c)} = {_fmt(s, mul[ab][c])}"
                            f" but {_fmt(s, a)}*({_fmt(s, b)}*{_fmt(s, c)}) = {_fmt(s, row_a[mul[b][c]])}"
                        ),
                    )
    return LawReport("associativity", True)


def _l1(s: FiniteBiunarySemigroup) -> tuple[int, ...] | None:
    for x in range(s.n):
        if s.mul[s.dmap[x]][x] != x or s.mul[x][s.rmap[x]] != x:
            return (x,)
    return None


def _l2(s: FiniteBiunarySemigroup) -> tuple[int, ...] | None:
    for x in range(s.n):
        if s.dmap[s.rmap[x]] != s.rmap[x] or s.rmap[s.dmap[x]] != s.dmap[x]:
            return (x,)
    return None


def _l3(s: FiniteBiunarySemigroup) -> tuple[int, ...] | None:
    mul, D, R = s.mul, s.dmap, s.rmap
    for x in range(s.n):
        for y in range(s.n):
            if D[mul[x][y]] != D[mul[x][D[y]]] or R[mul[x][y]] != R[mul[R[x]][y]]:
                return (x, y)
    return None


def _l4(s: FiniteBiunarySemigroup) -> tuple[int, ...] | None:
    mul, D = s.mul, s.dmap
    for x in range(s.n):
        for y in range(s.n):
            p = mul[D[x]][D[y]]
            if D[p] != p:
                return (x, y)
    return None


_LOCALISABLE_SUBLAWS = (("L1", _l1), ("L2", _l2), ("L3", _l3), ("L4", _l4))


def check_localisable(s: FiniteBiunarySemigroup) -> LawReport:
    """Decide the four domain/range laws L1..L4.

    L1: D(x)x = x and xR(x) = x.
    L2: D(R(x)) = R(x) and R(D(x)) = D(x).
    L3: D(xy) = D(xD(y)) and R(xy) = R(R(x)y).
    L4: D(D(x)D(y)) = D(x)D(y).
    """
    assoc = check_associativity(s)
    if not assoc.holds:
        return LawReport(
            "localisable",
            False,
            witness=assoc.witness,
            detail=f"prerequisite associativity fails: {assoc.detail}",
            applicable=False,
            parts=(("associativity", False),),
        )
    parts: list[tuple[str, bool]] = []
    first: tuple[str, tuple[int, ...]] | None = None
    for name, fn in _LOCALISABLE_SUBLAWS:
        w = fn(s)
        parts.append((name, w is None))
        if w is not None and first is None:
            first = (name, w)
    if first is None:
        return LawReport("localisable", True, parts=tuple(parts))
    name, w = first
    return LawReport(
        "localisable",
        False,
        witness=w,
        detail=f"{name} fails at ({_fmt(s, *w)})",
        parts=tuple(parts),
    )


def check_ehresmann(s: FiniteBiunarySemigroup) -> LawReport:
    """Decide localisability plus commutation of the projections."""
    loc = check_localisable(s)
    if not loc.holds:
        return LawReport(
            "ehresmann",
            False,
            witness=loc.witness,
            detail=f"not localisable: {loc.detail}",
            applicable=loc.applicable,
            parts=(("localisable", False),),
        )
    proj = sorted({s.dmap[x] for x in range(s.n)})
    for e in proj:
        for f in proj:
            if s.mul[e][f] != s.mul[f][e]:
                return LawReport(
                    "ehresmann",
                    False,
                    witness=(e, f),
                    detail=(
                        f"projections do not commute: {_fmt(s, e)}*{_fmt(s, f)} = "
                        f"{_fmt(s, s.mul[e][f])} but {_fmt(s, f)}*{_fmt(s, e)} = {_fmt(s, s.mul[f][e])}"
                    ),
                    parts=(("localisable", True), ("commuting-projections", False)),
                )
    return LawReport(
        "ehresmann", True, parts=(("localisable", True), ("commuting-projections", True))
    )


def projections(s: FiniteBiunarySemigroup) -> ProjectionSet:
    """Return D(S), asserting it equals R(S) and forms a band.

    Assumes the structure is localisable; on inputs violating that the
    coherence asserts raise :class:`InconsistentProjections`.
    """
    dimg = {s.dmap[x] for x in range(s.n)}
    rimg = {s.rmap[x] for x in range(s.n)}
    if dimg != rimg:
        raise InconsistentProjections(
            f"D-image {sorted(dimg)} differs from R-image {sorted(rimg)}"
        )
    for e in sorted(dimg):
        if s.mul[e][e] != e:
            raise InconsistentProjections(f"projection {s.name_of(e)} is not idempotent")
        for f in sorted(dimg):
            if s.mul[e][f] not in dimg:
                raise InconsistentProjections(
                    f"projections not closed: {s.name_of(e)}*{s.name_of(f)}"
                    f" = {s.name_of(s.mul[e][f])}"
                )
    return ProjectionSet(frozenset(dimg))


def _law_check_with_pre(
    s: FiniteBiunarySemigroup,
    law: str,
    witness: tuple[int, ...] | None,
    detail: str,
    pre: LawReport,
) -> LawReport:
    applicable = pre.holds and pre.applicable
    note = "" if applicable else f"; not applicable: prerequisite {pre.law} fails"
    return LawReport(law, witness is None, witness=witness, detail=detail + note, applicable=applicable)


def check_left_restriction_with_range(s: FiniteBiunarySemigroup) -> LawReport:
    """Decide the left restriction law xD(y) = D(xy)x."""
    pre = check_ehresmann(s)
    mul, D = s.mul, s.dmap
    witness = None
    detail = ""
    for x in range(s.n):
        for y in range(s.n):
            if mul[x][D[y]] != mul[D[mul[x][y]]][x]:
                witness = (x, y)
                detail = (
                    f"{_fmt(s, x)}*D({_fmt(s, y)}) = {_fmt(s, mul[x][D[y]])} but "
                    f"D({_fmt(s, x)}*{_fmt(s, y)})*{_fmt(s, x)} = {_fmt(s, mul[D[mul[x][y]]][x])}"
                )
                break
        if witness is not None:
            break
    return _law_check_with_pre(s, "left-restriction-with-range", witness, detail, pre)


def check_right_restriction_with_domain(s: FiniteBiunarySemigroup) -> LawReport:
    """Decide the dual law R(y)x = xR(yx).

    The dual is obtained by reversing products and swapping D with R; it is
    isolated here so a different reading can be swapped in at one place.
    """
    pre = check_ehresmann(s)
    mul, R = s.mul, s.rmap
    witness = None
    detail = ""
    for x in range(s.n):
        for y in range(s.n):
            if mul[R[y]][x] != mul[x][R[mul[y][x]]]:
                witness = (x, y)
                detail = (
                    f"R({_fmt(s, y)})*{_fmt(s, x)} = {_fmt(s, mul[R[y]][x])} but "
                    f"{_fmt(s, x)}*R({_fmt(s, y)}*{_fmt(s, x)}) = {_fmt(s, mul[x][R[mul[y][x]]])}"
                )
                break
        if witness is not None:
            break
    return _law_check_with_pre(s, "right-restriction-with-domain", witness, detail, pre)


def check_restriction(s: FiniteBiunarySemigroup) -> LawReport:
    """Decide both one-sided restriction laws together."""
    left = check_left_restriction_with_range(s)
    right = check_right_restriction_with_domain(s)
    holds = left.holds and right.holds
    failing = left if not left.holds else right
    return LawReport(
        "restriction",
        holds,
        witness=None if holds else failing.witness,
        detail="" if holds else failing.detail,
        applicable=left.applicable and right.applicable,
        parts=(("left", left.holds), ("right", right.holds)),
    )


def check_functional(s: FiniteBiunarySemigroup) -> LawReport:
    """Decide the quasi-identity xy = xz implies R(x)y = R(x)z.

    The law is stated for left restriction semigroups with range; on other
    inputs the verdict is still computed but flagged not applicable.
    """
    pre = check_left_restriction_with_range(s)
    mul, R = s.mul, s.rmap
    witness = None
    detail = ""
    for x in range(s.n):
        row = mul[x]
        rrow = mul[R[x]]
        for y in range(s.n):
            for z in range(s.n):
                if row[y] == row[z] and rrow[y] != rrow[z]:
                    witness = (x, y, z)
                    detail = (
                        f"{_fmt(s, x)}*{_fmt(s, y)} = {_fmt(s, x)}*{_fmt(s, z)}"
                        f" = {_fmt(s, row[y])} but R({_fmt(s, x)})*{_fmt(s, y)} ="
                        f" {_fmt(s, rrow[y])} and R({_fmt(s, x)})*{_fmt(s, z)} = {_fmt(s, rrow[z])}"
                    )
                    break
            if witness is not None:
                break
        if witness is not None:
            break
    rep = _law_check_with_pre(s, "functional", witness, detail, pre)
    if not rep.applicable:
        rep = LawReport(
            rep.law,
            rep.holds,
            witness=rep.witness,
            detail=rep.detail
            + " (the functional law is defined within left restriction semigroups with range)",
            applicable=False,
        )
    return rep


def check_de_barros_equational(s: FiniteBiunarySemigroup) -> LawReport:
    """Decide the identity xey = D(xey) xy R(xey) for all x, y and projections e."""
    pre = check_ehresmann(s)
    if not pre.holds:
        return LawReport(
            "de-barros-equational",
            False,
            witness=pre.witness,
            detail=f"prerequisite ehresmann fails: {pre.detail}",
            applicable=False,
        )
    mul, D, R = s.mul, s.dmap, s.rmap
    proj = projections(s).sorted_members
    for x in range(s.n):
        for e in proj:
            xe = mul[x][e]
            for y in range(s.n):
                lhs = mul[xe][y]
                rhs = mul[mul[D[lhs]][mul[x][y]]][R[lhs]]
                if lhs != rhs:
                    return LawReport(
                        "de-barros-equational",
                        False,
                        witness=(x, e, y),
                        detail=(
                            f"{_fmt(s, x)}*{_fmt(s, e)}*{_fmt(s, y)} = {_fmt(s, lhs)} but "
                            f"D(..)*{_fmt(s, x)}*{_fmt(s, y)}*R(..) = {_fmt(s, rhs)}"
                        ),
                    )
    return LawReport("de-barros-equational", True)


def is_ehresmann_hom(
    f: HomCandidate,
    src: FiniteBiunarySemigroup,
    tgt: FiniteBiunarySemigroup,
) -> LawReport:
    """Decide whether ``f`` preserves the product and the maps D and R."""
    fm = f.map
    if len(fm) != src.n or any(not 0 <= v < tgt.n for v in fm):
        raise StructureError("candidate map must send every source index into the target")
    parts: list[tuple[str, bool]] = []
    witness = None
    detail = ""

    w_mul = None
    for a in range(src.n):
        for b in range(src.n):
            if fm[src.mul[a][b]] != tgt.mul[fm[a]][fm[b]]:
                w_mul = (a, b)
                break
        if w_mul is not None:
            break
    parts.append(("mul", w_mul is None))
    if w_mul is not None and witness is None:
        witness = w_mul
        a, b = w_mul
        detail = (
            f"F({_fmt(src, a)}*{_fmt(src, b)}) = {_fmt(tgt, fm[src.mul[a][b]])} but "
            f"F({_fmt(src, a)})*F({_fmt(src, b)}) = {_fmt(tgt, tgt.mul[fm[a]][fm[b]])}"
        )

    w_d = next((( a,) for a in range(src.n) if fm[src.dmap[a]] != tgt.dmap[fm[a]]), None)
    parts.append(("D", w_d is None))
    if w_d is not None and witness is None:
        witness = w_d
        detail = f"D({_fmt(src, w_d[0])})F = {_fmt(tgt, fm[src.dmap[w_d[0]]])} but D(F..) = {_fmt(tgt, tgt.dmap[fm[w_d[0]]])}"

    w_r = next(((a,) for a in range(src.n) if fm[src.rmap[a]] != tgt.rmap[fm[a]]), None)
    parts.append(("R", w_r is None))
    if w_r is not None and witness is None:
        witness = w_r
        detail = f"R({_fmt(src, w_r[0])})F = {_fmt(tgt, fm[src.rmap[w_r[0]]])} but R(F..) = {_fmt(tgt, tgt.rmap[fm[w_r[0]]])}"

    holds = witness is None
    return LawReport("ehresmann-homomorphism", holds, witness=witness, detail=detail, parts=tuple(parts))
