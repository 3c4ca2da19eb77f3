"""Finite biunary semigroups and the equational laws that classify them.

A structure lives on the carrier 0..n-1: the product is an n x n index
table and the domain/range operations D, R are n-vectors.  Display names
are metadata only.  Every law decision returns a :class:`LawReport`; when
a law fails, the report carries the lexicographically least failing
instance so the failure can be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from operator import itemgetter
from typing import Any, Callable, Iterator


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


def _as_tuple(value, message: str, rows: bool = False) -> tuple:
    """``value`` as a tuple, of tuples when ``rows``; StructureError(``message``)
    when it cannot be read so."""
    try:
        return tuple(tuple(row) for row in value) if rows else tuple(value)
    except TypeError:
        raise StructureError(message) from None


def _as_names(names, n: int) -> tuple[str, ...] | None:
    """``names`` as n distinct strings, one per element, or None when None."""
    if names is None:
        return None
    names = tuple(map(str, _as_tuple(names, "names must be a sequence of element names")))
    if len(names) != n:
        raise StructureError("names must cover the whole carrier")
    if len(set(names)) != n:
        raise StructureError("element names must be distinct")
    return names


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given,
    without the checks and coercions of its ``__post_init__``.

    For package builders only, each of which proves in its docstring that
    every check of the public constructor would pass on what it passes
    here: inputs already validated, or laws the same evaluation has
    decided.  ``fields`` names every field, in the form the constructor
    would store it.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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
        object.__setattr__(self, "mul", _as_tuple(self.mul, "multiplication table must be n x n", rows=True))
        object.__setattr__(self, "dmap", _as_tuple(self.dmap, "D must be an n-vector of element indices"))
        object.__setattr__(self, "rmap", _as_tuple(self.rmap, "R must be an n-vector of element indices"))
        n = self.n
        if not isinstance(n, int) or n < 1:
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
        object.__setattr__(self, "names", _as_names(self.names, n))

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
    """A total map between carriers, proposed as a homomorphism (or, between
    categories, as a functor: ``category.FunctorCandidate`` is this class)."""

    source: str
    target: str
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "map", _as_tuple(self.map, "candidate map must be a sequence of element indices"))


def _fmt(s, *indices: int) -> str:
    """The display names of ``indices`` in ``s`` (a semigroup or category), comma-separated."""
    return ", ".join(s.name_of(i) for i in indices)


@cache
def _holding(law: str, parts: tuple[tuple[str, bool], ...] = ()) -> LawReport:
    """The report of ``law`` holding with ``parts``: one frozen instance per
    (law, parts), shared as a constant is.  It names no subject, so no
    verdict outlives the evaluation that reached it, and the laws and part
    names are the package's own, so there are few."""
    return LawReport(law, True, parts=parts)


def _first_failure(law: str, subject, checks, lead=(), trail=(), wording=None) -> LawReport:
    """The report of a law made of named parts, each a (part, witness) pair in ``checks``.

    A part holds when its witness is None.  The report lists ``lead``, the
    checks and ``trail`` as its parts, and fails at the first failing check
    with the detail ``wording(part, witness)``, by default
    "{part} fails at (…)"; ``lead`` and ``trail`` are listed as given and
    judged by the caller.
    """
    checks = tuple(checks)
    parts = (*lead, *((name, w is None) for name, w in checks), *trail)
    for name, w in checks:
        if w is not None:
            detail = wording(name, w) if wording else f"{name} fails at ({_fmt(subject, *w)})"
            return LawReport(law, False, witness=w, detail=detail, parts=parts)
    return _holding(law, parts)


def _leaf(law: str, w: tuple[int, ...] | None, detail: Callable[..., str]) -> LawReport:
    """The report of a law without parts whose least failing instance is ``w``,
    None when it holds; ``detail(*w)`` words the failure and runs only then."""
    if w is None:
        return _holding(law)
    return LawReport(law, False, witness=w, detail=detail(*w))


@dataclass(frozen=True)
class Law:
    """One registered law: what it is decided on, what it presupposes, how.

    ``name`` is the report's ``law``; its lower-case form ``key`` (or an
    alias) is the command-line name.  ``subject`` is the kind decided on:
    ``"semigroup"``, ``"ordered"`` (an OrderedSemigroup) or ``"category"``
    (a FiniteOrderedCategory).  ``decide(subject, evaluation)`` returns the
    verdict and may ask the evaluation for other laws.

    When the prerequisite ``pre`` fails (or holds but is itself not
    applicable), a ``flag`` law is decided anyway
    and marked not applicable, with ``note`` appended to its detail; any
    other law returns the prerequisite's witness.  Such a short-circuit
    report carries the one part ``part`` when given, and when ``prefix`` is
    given it opens the detail with it and inherits ``applicable`` from the
    prerequisite.  ``ladder`` puts the law in its subject's default ladder.
    """

    name: str
    subject: str
    decide: Callable[[Any, "Evaluation"], LawReport]
    pre: str | None = None
    flag: bool = False
    note: str = ""
    prefix: str | None = None
    part: str | None = None
    ladder: bool = False
    aliases: tuple[str, ...] = ()
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # read on every decision, so made once
        object.__setattr__(self, "key", self.name.lower())


# every law by key and alias, in registration order: core, orders, category
LAWS: dict[str, Law] = {}


def register(*laws: Law) -> None:
    """Add laws to ``LAWS`` under their keys and aliases."""
    for law in laws:
        for key in (law.key, *law.aliases):
            LAWS[key] = law


def ladder(subject: str) -> list[Law]:
    """The default ladder of a subject kind, in registration order."""
    return [law for law in LAWS.values() if law.ladder and law.subject == subject]


class Evaluation:
    """Verdicts and constructions of one unit of work, each made once per subject.

    Make one per command or sweep record and drop it with that work; each
    public ``check_*`` function and constructor makes its own.  A
    construction that several steps of the work need goes through
    ``build``.  Entries are keyed by the subject's identity, which is
    cheaper than hashing a whole table; each entry holds its subject, so no
    id is reused while the evaluation lives.  A verdict is stored under the
    law's own key and under each alias it was asked by, so an alias reads
    the law's one decision and every repeated call is one lookup.
    """

    def __init__(self) -> None:
        self.verdicts: dict[tuple[str, int], tuple[Any, LawReport]] = {}
        self.built: dict[tuple[Callable, int], tuple[Any, Any]] = {}

    def build(self, fn: Callable[[Any, "Evaluation"], Any], x: Any) -> Any:
        """``fn(x, self)``, made once per subject ``x``; an exception is raised anew each time."""
        memo = (fn, id(x))
        entry = self.built.get(memo)
        if entry is None:
            entry = self.built[memo] = (x, fn(x, self))
        return entry[1]

    def __call__(self, key: str, x: Any) -> LawReport:
        """The verdict of the law registered as ``key`` on the subject ``x``."""
        entry = self.verdicts.get((key, id(x)))
        if entry is None:
            law = LAWS[key]
            entry = self.verdicts.get((law.key, id(x)))
            if entry is None:
                entry = self.verdicts[law.key, id(x)] = (x, self._decide(law, x))
            self.verdicts[key, id(x)] = entry
        return entry[1]

    def seed(self, key: str, x: Any, report: LawReport) -> Any:
        """Record ``report`` as the verdict of the law ``key`` on ``x``, and
        return ``x``: for a builder that has shown, from laws this evaluation
        decided, that the law's decider would give ``report``."""
        self.verdicts[LAWS[key].key, id(x)] = (x, report)
        return x

    def _decide(self, law: Law, x: Any) -> LawReport:
        if law.pre is None:
            return law.decide(x, self)
        # an ordered-semigroup law may presuppose a law of its base semigroup
        pre = self(law.pre, x.base if LAWS[law.pre].subject != law.subject else x)
        if pre.holds and pre.applicable:
            return law.decide(x, self)
        failed = f"prerequisite {pre.law} fails"
        if law.flag:
            rep = law.decide(x, self)
            why = failed if not pre.holds else f"prerequisite {pre.law} is not applicable"
            note = f"not applicable: {why}{law.note}"
            detail = f"{rep.detail}; {note}" if rep.detail else note
            return replace(rep, detail=detail, applicable=False)
        return LawReport(
            law.name,
            False,
            witness=pre.witness,
            detail=(law.prefix or f"{failed}: ") + pre.detail,
            applicable=law.prefix is not None and pre.applicable,
            parts=((law.part, False),) if law.part else (),
        )


def property_key(prop: str, family: str) -> str:
    """Registry key of the optional property ``prop`` (any case) of ``family``, OS or OC.

    Raises ValueError for a name that is not such a property.
    """
    law = LAWS.get(prop.lower()) if isinstance(prop, str) else None
    if law is None or not law.name.startswith(family):
        raise ValueError(f"unknown {family} property {prop!r}")
    return law.key


def evaluate(key: str, x: Any) -> LawReport:
    """Decide one registered law on one subject in a fresh evaluation."""
    return Evaluation()(key, x)


# Tables up to this size build no generating set and decide associativity,
# L3, L4, OS3 and the order search's closure over every product.  On tables
# that associate (2 CPUs, Python 3.11, us) the associativity scan beats
# Light's test on the size-4 sweep (9.4 against 16.8), at size 5 (11.7
# against 18.9 over every third class) and on the 6-element orderless-band
# (15.0 against 24.3); the test wins from the 7-element inj-2 on (18.8
# against 21.5; rel-2 64 against 180, pt-3 650 against 10,000).
_PRODUCT_SCAN_MAX_N = 6


def _generating_set(s: FiniteBiunarySemigroup, ev: Evaluation) -> tuple[int, ...] | None:
    """A greedy generating set of ``s``, None when ``s`` has at most ``_PRODUCT_SCAN_MAX_N`` elements.

    Candidates come largest one-sided principal ideals first (|gS| + |Sg|,
    then index), and each one outside the closure so far becomes a
    generator.  The closure grows by right multiplication with the
    generators, O(n) per generator, so each element is a left-bracketed
    product of generators: all Light's test needs, and all products once
    the evaluation has decided associativity, as the other readers need.
    """
    mul, n = s.mul, s.n
    if n <= _PRODUCT_SCAN_MAX_N:
        return None
    cols = tuple(zip(*mul))
    inside = [False] * n
    members: list[int] = []
    gens: list[int] = []
    for g in sorted(range(n), key=lambda g: (-len(set(mul[g])) - len(set(cols[g])), g)):
        if inside[g]:
            continue
        gens.append(g)
        # the old members times g, then each new member times every generator
        queue = [g, *map(cols[g].__getitem__, members)]
        while queue:
            x = queue.pop()
            if not inside[x]:
                inside[x] = True
                members.append(x)
                queue += map(mul[x].__getitem__, gens)
        if len(members) == n:
            break
    return tuple(gens)


def _generators_associate(mul: tuple[tuple[int, ...], ...], gens: tuple[int, ...]) -> bool:
    """Light's associativity test of the table ``mul`` over its generating set ``gens``.

    The g with (xg)y = x(gy) for all x, y form a submagma (Clifford and
    Preston, *The Algebraic Theory of Semigroups* I, 1.2), so the table is
    associative iff every generator passes; g passes when row (xg) equals
    row x read through row g, for every x.  Needs n > 1, where
    ``itemgetter`` returns a tuple.
    """
    for g in gens:
        through_g = itemgetter(*mul[g])
        if any(mul[row[g]] != through_g(row) for row in mul):
            return False
    return True


def _associativity(s: FiniteBiunarySemigroup, ev: Evaluation) -> LawReport:
    mul, n = s.mul, s.n
    gens = ev.build(_generating_set, s)
    w = None
    # Light's test says "holds" on a larger table; a failure is scanned for the least triple
    if gens is None or not _generators_associate(mul, gens):
        w = next(((a, b, c)
                  for a in range(n) for row_a in [mul[a]]
                  for b in range(n) for row_ab, row_b in [(mul[row_a[b]], mul[b])]
                  for c in range(n) if row_ab[c] != row_a[row_b[c]]), None)
    return _leaf("associativity", w, lambda a, b, c: (
        f"({_fmt(s, a)}*{_fmt(s, b)})*{_fmt(s, c)} = {_fmt(s, mul[mul[a][b]][c])}"
        f" but {_fmt(s, a)}*({_fmt(s, b)}*{_fmt(s, c)}) = {_fmt(s, mul[a][mul[b][c]])}"))


def check_associativity(s: FiniteBiunarySemigroup) -> LawReport:
    """Decide (ab)c = a(bc) over all triples."""
    return evaluate("associativity", s)


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


def _l3(s: FiniteBiunarySemigroup, gens: tuple[int, ...] | None) -> tuple[int, ...] | None:
    mul, D, R = s.mul, s.dmap, s.rmap
    # D(xy) = D(xD(y)) holds for all x once it holds for x in a generating set, as
    # D(x1x2y) = D(x1D(x2y)) = D(x1D(x2D(y))) = D(x1x2D(y)); dually R(xy) = R(R(x)y) and y
    if gens is not None:
        rows, cols = map(mul.__getitem__, gens), (tuple(map(itemgetter(g), mul)) for g in gens)
        # row g holds the products gy, column g the products xg
        if all([D[v] for v in row] == [D[row[d]] for d in D] for row in rows) and all(
                [R[v] for v in col] == [R[col[r]] for r in R] for col in cols):
            return None
    for x in range(s.n):
        for y in range(s.n):
            if D[mul[x][y]] != D[mul[x][D[y]]] or R[mul[x][y]] != R[mul[R[x]][y]]:
                return (x, y)
    return None


def _l4(s: FiniteBiunarySemigroup) -> tuple[int, ...] | None:
    mul, D = s.mul, s.dmap
    # L4 reads x and y only through D(x) and D(y): a larger table tests pairs of projections
    if s.n > _PRODUCT_SCAN_MAX_N:
        proj = set(D)
        if all(D[p] == p for e in proj for p in map(mul[e].__getitem__, proj)):
            return None
    for x in range(s.n):
        for y in range(s.n):
            p = mul[D[x]][D[y]]
            if D[p] != p:
                return (x, y)
    return None


def _localisable(s: FiniteBiunarySemigroup, ev: Evaluation) -> LawReport:
    gens = ev.build(_generating_set, s)
    return _first_failure("localisable", s, (("L1", _l1(s)), ("L2", _l2(s)), ("L3", _l3(s, gens)), ("L4", _l4(s))))


def check_localisable(s: FiniteBiunarySemigroup) -> LawReport:
    """Decide the four domain/range laws L1..L4.

    L1: D(x)x = x and xR(x) = x.
    L2: D(R(x)) = R(x) and R(D(x)) = D(x).
    L3: D(xy) = D(xD(y)) and R(xy) = R(R(x)y).
    L4: D(D(x)D(y)) = D(x)D(y).
    """
    return evaluate("localisable", s)


def _ehresmann(s: FiniteBiunarySemigroup, ev: Evaluation) -> LawReport:
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


def check_ehresmann(s: FiniteBiunarySemigroup) -> LawReport:
    """Decide localisability plus commutation of the projections."""
    return evaluate("ehresmann", s)


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


def _projections(s: FiniteBiunarySemigroup, ev: Evaluation) -> tuple[int, ...]:
    """``projections(s).sorted_members``, made once per unit of work for every law that reads it."""
    return projections(s).sorted_members


def _one_sided_restriction(name: str, side: Callable, template: str) -> Law:
    """The law x*I(y) = I(x*y)*x on the table and identity map I that ``side`` picks.

    ``template`` words a failure at (x, y) in the side's own terms.
    """

    def decide(s: FiniteBiunarySemigroup, ev: Evaluation) -> LawReport:
        mul, idmap, n = *side(s), s.n
        w = next(((x, y) for x in range(n) for y in range(n)
                  if mul[x][idmap[y]] != mul[idmap[mul[x][y]]][x]), None)
        return _leaf(name, w, lambda x, y: template.format(
            x=_fmt(s, x), y=_fmt(s, y), lhs=_fmt(s, mul[x][idmap[y]]), rhs=_fmt(s, mul[idmap[mul[x][y]]][x])))

    return Law(name, "semigroup", decide, pre="ehresmann", flag=True, ladder=True)


def check_left_restriction_with_range(s: FiniteBiunarySemigroup) -> LawReport:
    """Decide the left restriction law xD(y) = D(xy)x."""
    return evaluate("left-restriction-with-range", s)


def check_right_restriction_with_domain(s: FiniteBiunarySemigroup) -> LawReport:
    """Decide the dual law R(y)x = xR(yx).

    The dual is obtained by reversing products and swapping D with R; it is
    decided as the left law on the transposed table with R.
    """
    return evaluate("right-restriction-with-domain", s)


def _restriction(s: FiniteBiunarySemigroup, ev: Evaluation) -> LawReport:
    left = ev("left-restriction-with-range", s)
    right = ev("right-restriction-with-domain", s)
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


def check_restriction(s: FiniteBiunarySemigroup) -> LawReport:
    """Decide both one-sided restriction laws together."""
    return evaluate("restriction", s)


def _functional(s: FiniteBiunarySemigroup, ev: Evaluation) -> LawReport:
    mul, R, n = s.mul, s.rmap, s.n
    # xy = xz => R(x)y = R(x)z for all y, z iff xy determines R(x)y; only the
    # first row where it does not is scanned for the least (y, z)
    x = next((x for x in range(n) if len(set(zip(mul[x], mul[R[x]]))) != len(set(mul[x]))), None)
    w = None if x is None else next(((x, y, z) for row, rrow in [(mul[x], mul[R[x]])]
                                     for y in range(n) for z in range(n)
                                     if row[y] == row[z] and rrow[y] != rrow[z]))
    return _leaf("functional", w, lambda x, y, z: (
        f"{_fmt(s, x)}*{_fmt(s, y)} = {_fmt(s, x)}*{_fmt(s, z)}"
        f" = {_fmt(s, mul[x][y])} but R({_fmt(s, x)})*{_fmt(s, y)} ="
        f" {_fmt(s, mul[R[x]][y])} and R({_fmt(s, x)})*{_fmt(s, z)} = {_fmt(s, mul[R[x]][z])}"))


def check_functional(s: FiniteBiunarySemigroup) -> LawReport:
    """Decide the quasi-identity xy = xz implies R(x)y = R(x)z.

    The law is stated for left restriction semigroups with range; on other
    inputs the verdict is still computed but flagged not applicable.
    """
    return evaluate("functional", s)


def _de_barros_rows_hold(s: FiniteBiunarySemigroup, proj: tuple[int, ...]) -> bool:
    """Whether xey = D(xey) xy R(xey) for all x, y and projections e, read by rows.

    At (x, e, y) the two sides are l and D(l) m R(l), where l is entry y of
    row xe and m entry y of row x; so each distinct pair (x, xe) gives one
    zip of two rows, and each distinct (l, m) cell of those zips is tested
    once.  The cells are tested each time the rows read have doubled, so a
    failure in an early row stops the pass early.
    """
    mul, D, R = s.mul, s.dmap, s.rmap
    tested: set[tuple[int, int]] = set()
    cells: set[tuple[int, int]] = set()
    for x, row in enumerate(mul, 1):
        for xe in set(map(row.__getitem__, proj)):
            cells.update(zip(mul[xe], row))
        if x & (x - 1) == 0 or x == s.n:
            cells -= tested
            if not all(mul[mul[D[l]][m]][R[l]] == l for l, m in cells):
                return False
            tested |= cells
            cells = set()
    return True


def _de_barros_equational(s: FiniteBiunarySemigroup, ev: Evaluation) -> LawReport:
    mul, D, R, n = s.mul, s.dmap, s.rmap, s.n

    def sides(x: int, e: int, y: int) -> tuple[int, int]:
        lhs = mul[mul[x][e]][y]
        return lhs, mul[mul[D[lhs]][mul[x][y]]][R[lhs]]

    def detail(x: int, e: int, y: int) -> str:
        lhs, rhs = sides(x, e, y)
        return (f"{_fmt(s, x)}*{_fmt(s, e)}*{_fmt(s, y)} = {_fmt(s, lhs)} but "
                f"D(..)*{_fmt(s, x)}*{_fmt(s, y)}*R(..) = {_fmt(s, rhs)}")

    proj = ev.build(_projections, s)
    w = None
    # the row test says "holds" on a larger structure; a failure is scanned for the least triple
    if not _de_barros_rows_hold(s, proj):
        w = next(((x, e, y) for x in range(n) for e in proj for y in range(n)
                  for lhs, rhs in [sides(x, e, y)] if lhs != rhs), None)
    return _leaf("de-barros-equational", w, detail)


def check_de_barros_equational(s: FiniteBiunarySemigroup) -> LawReport:
    """Decide the identity xey = D(xey) xy R(xey) for all x, y and projections e."""
    return evaluate("de-barros-equational", s)


register(
    Law("associativity", "semigroup", _associativity, ladder=True),
    Law("localisable", "semigroup", _localisable, pre="associativity",
        part="associativity", ladder=True),
    Law("ehresmann", "semigroup", _ehresmann, pre="localisable",
        prefix="not localisable: ", part="localisable", ladder=True),
    _one_sided_restriction("left-restriction-with-range", lambda s: (s.mul, s.dmap),
                           "{x}*D({y}) = {lhs} but D({x}*{y})*{x} = {rhs}"),
    _one_sided_restriction("right-restriction-with-domain", lambda s: (tuple(zip(*s.mul)), s.rmap),
                           "R({y})*{x} = {lhs} but {x}*R({y}*{x}) = {rhs}"),
    Law("restriction", "semigroup", _restriction, ladder=True),
    Law("functional", "semigroup", _functional, pre="left-restriction-with-range", flag=True,
        note=" (the functional law is defined within left restriction semigroups with range)",
        ladder=True),
    Law("de-barros-equational", "semigroup", _de_barros_equational, pre="ehresmann"),
)


def _check_map(fm: tuple, n1: int, n2: int) -> None:
    """Raise StructureError unless ``fm`` sends each of 0..n1-1 to an index in 0..n2-1."""
    if len(fm) != n1 or any(not isinstance(v, int) or not 0 <= v < n2 for v in fm):
        raise StructureError("candidate map must send every source index into the target")


def _map_report(law: str, parts: tuple[str, ...], clauses: list, fm: tuple, wording) -> LawReport:
    """The report of a morphism notion on the map ``fm``, one of ``parts`` per part.

    A clause is (part, witness, source elements it reads, test on a map);
    a part fails at the witness of its first failing clause, and the report
    at its first failing part, worded by ``wording(part, witness)``.
    ``morphism_correspondence`` prunes map prefixes with the same clauses.
    """
    first = dict.fromkeys(parts)
    for part, w, reads, test in clauses:
        if first[part] is None and not test(fm):
            first[part] = w
    return _first_failure(law, None, first.items(), wording=wording)


def _hom_clauses(src: FiniteBiunarySemigroup, tgt: FiniteBiunarySemigroup) -> list:
    """The clauses of a homomorphism F: F(ab) = F(a)F(b) by (a, b), then
    F(D(a)) = D(F(a)) and F(R(a)) = R(F(a)) by a."""
    n, mul, tmul = src.n, src.mul, tgt.mul
    clauses = [("mul", (a, b), (a, b, mul[a][b]),
                lambda fm, a=a, b=b, m=mul[a][b]: fm[m] == tmul[fm[a]][fm[b]])
               for a in range(n) for b in range(n)]
    for part, idmap, tidmap in (("D", src.dmap, tgt.dmap), ("R", src.rmap, tgt.rmap)):
        clauses += [(part, (a,), (a, idmap[a]), lambda fm, a=a, u=idmap[a], t=tidmap: fm[u] == t[fm[a]])
                    for a in range(n)]
    return clauses


def _hom_wording(src: FiniteBiunarySemigroup, tgt: FiniteBiunarySemigroup, fm: tuple):
    """Words a failing homomorphism clause of ``fm``, as ``_map_report`` takes it."""

    def wording(part: str, w: tuple[int, ...]) -> str:
        if part == "mul":
            a, b = w
            return (f"F({_fmt(src, a)}*{_fmt(src, b)}) = {_fmt(tgt, fm[src.mul[a][b]])} but "
                    f"F({_fmt(src, a)})*F({_fmt(src, b)}) = {_fmt(tgt, tgt.mul[fm[a]][fm[b]])}")
        idmap, tidmap = (src.dmap, tgt.dmap) if part == "D" else (src.rmap, tgt.rmap)
        return (f"{part}({_fmt(src, *w)})F = {_fmt(tgt, fm[idmap[w[0]]])}"
                f" but {part}(F..) = {_fmt(tgt, tidmap[fm[w[0]]])}")

    return wording


def is_ehresmann_hom(
    f: HomCandidate,
    src: FiniteBiunarySemigroup,
    tgt: FiniteBiunarySemigroup,
) -> LawReport:
    """Decide whether ``f`` preserves the product and the maps D and R."""
    _check_map(f.map, src.n, tgt.n)
    return _map_report("ehresmann-homomorphism", ("mul", "D", "R"), _hom_clauses(src, tgt), f.map,
                       _hom_wording(src, tgt, f.map))
