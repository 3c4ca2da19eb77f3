"""The registered laws as formulas: one least-witness evaluator, duals and replay.

The paper states each law as a sentence over *, D, R and <=: a universal
prefix over elements, projections (identities, in a category) or pairs
a <= b and a body, with one bounded exists in OS7, OC6, OC7 and OC7'.  A
:class:`Spec` holds a sort per quantified position and the body; :func:`least`
runs ``itertools.product`` over the sorts and returns the first tuple where
the body is false, the least witness in quantifier order.  A right-handed
law is the :func:`dual` of its left twin.  :func:`compare` asserts that a
registered decider gives the formula's report, :func:`replay` puts a failing
report's witness back into its formula, and :func:`compare_classes` compares
every law on all classes of one size (``PYTHONPATH=src:tests python -c
"import formulas; print(formulas.compare_classes(5))"``).  Laws decided from
other verdicts have no formula; replay reads their witness through the law
it came from.
"""

from __future__ import annotations

import collections
import itertools
import operator
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
from typing import Callable

from ehresmann import zoo
from ehresmann.category import FiniteOrderedCategory, category_of, partial_product_category
from ehresmann.core import LAWS, Evaluation, FiniteBiunarySemigroup, LawReport, WorkbenchError
from ehresmann.orders import OrderedSemigroup, derive_orders, enumerate_ehresmann_orders


class View:
    """What a body reads: ``mul[x][y]`` (None where a category does not
    compose), ``D``, ``R``, ``le[a][b]`` for a <= b (None without an order),
    the sorted projections or identities ``ids``, and ``le2``, the right
    order of a two-order subject whose ``le`` is the left one (else ``le``).
    """

    def __init__(self, n, mul, D, R, le, ids, name_of, le2=None):
        self.n, self.mul, self.D, self.R, self.le, self.name_of = n, mul, D, R, le, name_of
        self.ids, self.id_set, self.le2 = tuple(ids), frozenset(ids), le if le2 is None else le2
        self.of: View | None = None  # the view this is the dual of

    @cached_property
    def dual(self) -> View:
        """Products reversed, D and R swapped and the two orders swapped; the same ids and meet."""
        dual = View(self.n, tuple(zip(*self.mul)), self.R, self.D, self.le2, self.ids, self.name_of, self.le)
        dual.__dict__["dual"], dual.of = self, self
        return dual

    @cached_property
    def below(self) -> list[list[int]]:
        """``[x]``: the y <= x."""
        return [[y for y in range(self.n) if self.le[y][x]] for x in range(self.n)]

    @cached_property
    def domains(self) -> dict[str, list]:
        """Each sort's values: the elements, the projections, the pairs a <= b."""
        n, le = self.n, self.le
        return {"x": range(n), "e": self.ids, "p": [(a, b) for a in range(n) for b in range(n) if le and le[a][b]]}

    @cached_property
    def meet(self) -> dict[tuple[int, int], int | None]:
        """``[e, f]``: the greatest lower bound of e and f among the ids under ``le``, or
        None; a dual reads the meet of its view, so both monotone clauses read the left order's."""
        if self.of:
            return self.of.meet
        lower = {(e, f): [g for g in self.ids if self.le[g][e] and self.le[g][f]] for e in self.ids for f in self.ids}
        return {ef: next((g for g in gs if all(self.le[h][g] for h in gs)), None) for ef, gs in lower.items()}

    @cached_property
    def memo(self) -> dict:
        """Least failures by spec id (with the spec), ``_holds`` verdicts by law key, views by ``Spec.on``."""
        return {}


@lru_cache(maxsize=16)
def view(x) -> View:
    """The view of a semigroup, an ordered semigroup or an ordered category, kept with what is found on it."""
    if isinstance(x, FiniteBiunarySemigroup):
        return View(x.n, x.mul, x.dmap, x.rmap, None, sorted(set(x.dmap)), x.name_of)
    if isinstance(x, OrderedSemigroup):
        s = x.base
        return View(s.n, s.mul, s.dmap, s.rmap, x.order.rel, sorted(set(s.dmap)), s.name_of)
    return View(x.n, x.comp, x.dmap, x.rmap, x.order.rel, x.identities(), x.name_of)


def two_order_view(c, leq_r) -> View:
    """The ordered category ``c`` under its order as <=_l and ``leq_r`` as <=_r."""
    v = view(c)
    return v if leq_r is c.order else View(v.n, v.mul, v.D, v.R, v.le, v.ids, v.name_of, leq_r.rel)


def e_order(v: View) -> View:
    """A semigroup under its e-order: a <= b when a = D(a)bR(a)."""
    mul, D, R = v.mul, v.D, v.R
    return View(v.n, mul, D, R, [[a == mul[mul[D[a]][b]][R[a]] for b in range(v.n)] for a in range(v.n)],
                v.ids, v.name_of)


def derived_two_orders(v: View) -> View:
    """C₀ of a semigroup, the x*y with R(x) = D(y), under a <=_l b when a = D(a)b
    and a <=_r b when a = bR(a)."""
    n, mul, D, R = v.n, v.mul, v.D, v.R
    comp = [[mul[x][y] if R[x] == D[y] else None for y in range(n)] for x in range(n)]
    return View(n, comp, D, R, [[a == mul[D[a]][b] for b in range(n)] for a in range(n)], v.ids, v.name_of,
                [[a == mul[b][R[a]] for b in range(n)] for a in range(n)])


@dataclass(frozen=True)
class Spec:
    """One law, or one part of a law, as a sentence.

    A leaf has ``sorts`` ("x" an element, "e" a projection or identity, "p" a
    pair a <= b, two positions) and a bool ``body(v, *w)``, True where the law
    holds at w.  A composite fails at its first failing (name, spec) in
    ``parts``, listed after ``lead``, parts that hold by construction.
    ``detail(v, *w)`` words a leaf (default "fails at (…)"), ``detail(v, part,
    *w)`` a composite (default "{part} fails at (…)").  ``flipped`` reads the
    dual view, ``on`` maps the subject's view to the law's, ``assemble(spec,
    v)`` builds another report, and ``gate`` keys a law the decider
    presupposes or reads its parts through.
    """

    name: str
    sorts: str = ""
    body: Callable[..., bool] | None = None
    detail: Callable[..., str] | None = None
    parts: tuple[tuple[str, Spec], ...] = ()
    lead: tuple[tuple[str, bool], ...] = ()
    flipped: bool = False
    on: Callable[[View], View] | None = None
    assemble: Callable[[Spec, View], LawReport] | None = None
    gate: str | None = None


def dual(spec: Spec, name: str, detail: Callable[..., str] | None = None) -> Spec:
    """The law ``name``: ``spec`` with products reversed and D and R swapped, worded by ``detail``."""
    return replace(spec, name=name, flipped=not spec.flipped, detail=detail or spec.detail)


def least(spec: Spec, v: View) -> tuple[int, ...] | None:
    """The least tuple, in quantifier order, where ``spec`` fails on ``v``; None when it holds."""
    if spec.flipped:
        v = v.dual
    found = v.memo.get(id(spec))
    if found is None or found[0] is not spec:
        found = v.memo[id(spec)] = spec, _least(spec, v)
    return found[1]


def _least(spec: Spec, v: View) -> tuple[int, ...] | None:
    if spec.parts:
        return next((w for _, part in spec.parts if (w := least(part, v)) is not None), None)
    domains, concat = [v.domains[sort] for sort in spec.sorts], None
    if "p" in spec.sorts:
        # a pair fills two positions, an element or a projection one
        domains = [d if sort == "p" else [(a,) for a in d] for sort, d in zip(spec.sorts, domains)]
        concat = operator.add if len(domains) == 2 else lambda *tup: sum(tup, ())

    def tuples():
        product = itertools.product(*domains)
        return itertools.starmap(concat, product) if concat else product

    # the body's verdicts in quantifier order, searched for the first False in C
    try:
        i = operator.indexOf(itertools.starmap(partial(spec.body, v), tuples()), False)
    except ValueError:
        return None
    return next(itertools.islice(tuples(), i, None))


def _names(v: View, *w: int) -> str:
    return ", ".join(map(v.name_of, w))


def _words(v: View, template: str, **at: int) -> str:
    """``template`` with each named element written by its name."""
    return template.format(**{k: v.name_of(i) for k, i in at.items()})


def _leaf_detail(spec: Spec, v: View, w: tuple[int, ...]) -> str:
    return spec.detail(v.dual if spec.flipped else v, *w) if spec.detail else f"fails at ({_names(v, *w)})"


def _report(spec: Spec, v: View) -> LawReport:
    """The report of ``spec`` on ``v``; a composite lists its parts and fails at the first failing one."""
    if spec.assemble:
        return spec.assemble(spec, v)
    if not spec.parts:
        w = least(spec, v)
        return LawReport(spec.name, True) if w is None else LawReport(spec.name, False, w, _leaf_detail(spec, v, w))
    u = v.dual if spec.flipped else v
    checks = [(name, least(part, u)) for name, part in spec.parts]
    parts = (*spec.lead, *((name, w is None) for name, w in checks))
    name, w = next(((name, w) for name, w in checks if w is not None), (None, None))
    if w is None:
        return LawReport(spec.name, True, parts=parts)
    detail = spec.detail(u, name, *w) if spec.detail else f"{name} fails at ({_names(u, *w)})"
    return LawReport(spec.name, False, witness=w, detail=detail, parts=parts)


# -- the laws of a biunary semigroup --------------------------------------

ASSOCIATIVITY = Spec(
    "associativity", "xxx", lambda v, a, b, c: v.mul[v.mul[a][b]][c] == v.mul[a][v.mul[b][c]],
    lambda v, a, b, c: _words(v, "({a}*{b})*{c} = {l} but {a}*({b}*{c}) = {r}", a=a, b=b, c=c,
                              l=v.mul[v.mul[a][b]][c], r=v.mul[a][v.mul[b][c]]))

LOCALISABLE = Spec("localisable", parts=(
    ("L1", Spec("L1", "x", lambda v, x: v.mul[v.D[x]][x] == x and v.mul[x][v.R[x]] == x)),
    ("L2", Spec("L2", "x", lambda v, x: v.D[v.R[x]] == v.R[x] and v.R[v.D[x]] == v.D[x])),
    ("L3", Spec("L3", "xx", lambda v, x, y: v.D[v.mul[x][y]] == v.D[v.mul[x][v.D[y]]]
                and v.R[v.mul[x][y]] == v.R[v.mul[v.R[x]][y]])),
    ("L4", Spec("L4", "xx", lambda v, x, y: v.D[v.mul[v.D[x]][v.D[y]]] == v.mul[v.D[x]][v.D[y]])),
), gate="associativity")

EHRESMANN = Spec("ehresmann", lead=(("localisable", True),), parts=(
    ("commuting-projections", Spec("commuting-projections", "ee", lambda v, e, f: v.mul[e][f] == v.mul[f][e])),),
    detail=lambda v, part, e, f: _words(v, "projections do not commute: {e}*{f} = {ef} but {f}*{e} = {fe}",
                                        e=e, f=f, ef=v.mul[e][f], fe=v.mul[f][e]))

# x*D(y) = D(x*y)*x; its dual is R(y)*x = x*R(y*x)
LEFT_RESTRICTION = Spec(
    "left-restriction-with-range", "xx", lambda v, x, y: v.mul[x][v.D[y]] == v.mul[v.D[v.mul[x][y]]][x],
    lambda v, x, y: _words(v, "{x}*D({y}) = {l} but D({x}*{y})*{x} = {r}", x=x, y=y,
                           l=v.mul[x][v.D[y]], r=v.mul[v.D[v.mul[x][y]]][x]))
RIGHT_RESTRICTION = dual(
    LEFT_RESTRICTION, "right-restriction-with-domain",
    lambda v, x, y: _words(v, "R({y})*{x} = {l} but {x}*R({y}*{x}) = {r}", x=x, y=y,
                           l=v.mul[x][v.D[y]], r=v.mul[v.D[v.mul[x][y]]][x]))
# the pair reads its registered halves through the evaluation, worded as each half
RESTRICTION = Spec("restriction", parts=(("left", LEFT_RESTRICTION), ("right", RIGHT_RESTRICTION)), gate="ehresmann",
                   detail=lambda v, part, *w: _leaf_detail(dict(RESTRICTION.parts)[part], v, w))

FUNCTIONAL = Spec(
    "functional", "xxx", lambda v, x, y, z: v.mul[x][y] != v.mul[x][z] or v.mul[v.R[x]][y] == v.mul[v.R[x]][z],
    lambda v, x, y, z: _words(v, "{x}*{y} = {x}*{z} = {xy} but R({x})*{y} = {l} and R({x})*{z} = {r}",
                              x=x, y=y, z=z, xy=v.mul[x][y], l=v.mul[v.R[x]][y], r=v.mul[v.R[x]][z]))


def _de_barros_sides(v: View, x: int, e: int, y: int) -> dict[str, int]:
    """xey and D(xey) xy R(xey)."""
    lhs = v.mul[v.mul[x][e]][y]
    return {"l": lhs, "r": v.mul[v.mul[v.D[lhs]][v.mul[x][y]]][v.R[lhs]]}


DE_BARROS_EQUATIONAL = Spec(
    "de-barros-equational", "xex", lambda v, *w: operator.eq(*_de_barros_sides(v, *w).values()),
    lambda v, x, e, y: _words(v, "{x}*{e}*{y} = {l} but D(..)*{x}*{y}*R(..) = {r}", x=x, e=e, y=y,
                              **_de_barros_sides(v, x, e, y)))

# -- the laws of an order ----------------------------------------------------

OS2 = Spec("OS2", "p", lambda v, a, b: v.le[v.D[a]][v.D[b]] and v.le[v.R[a]][v.R[b]])
# a <= b and c <= d give ac <= bd, wherever both products are defined
OS3 = Spec("OS3", "pp", lambda v, a, b, c, d: (ac := v.mul[a][c]) is None or (bd := v.mul[b][d]) is None
           or v.le[ac][bd])
OS6 = Spec("OS6", "xe", lambda v, a, e: v.le[v.mul[a][e]][a] and v.le[v.mul[e][a]][a])
OSI = Spec("OSI", "xe", lambda v, a, e: a in v.id_set or not v.le[a][e])

EHRESMANN_ORDER = Spec("ehresmann-order", lead=(("OS1", True),),
                       parts=(("OS2", OS2), ("OS3", OS3), ("OS6", OS6), ("OSI", OSI)), gate="localisable")
LEQ_E_PARTIAL_LAWS = Spec(
    "leq-e-partial-laws", lead=(("OS1", True),), parts=(("OS2", OS2), ("OS6", OS6), ("OSI", OSI), ("OS3", OS3)),
    detail=lambda v, part, *w: f"{part} fails for the e-order at ({_names(v, *w)})", on=e_order, gate="ehresmann")


def _de_barros(spec: Spec, v: View) -> LawReport:
    """The e-order laws' verdict and witness, worded as the equational criterion agreeing."""
    partial, agrees = _report(LEQ_E_PARTIAL_LAWS, v), "equational criterion agrees"
    detail = f"{partial.detail}; {agrees}" if partial.detail else agrees
    return LawReport(spec.name, partial.holds, partial.witness, detail)


# under ehresmann OS2, OS6 and OSI hold for the e-order, so OS3 decides the law
DE_BARROS = replace(OS3, name="de-barros", on=e_order, gate="ehresmann", assemble=_de_barros)

SEMILATTICE_ORDER_AGREEMENT = Spec(
    "semilattice-order-agreement", "ee", lambda v, e, f: v.le[e][f] == (e == v.mul[e][f]),
    lambda v, e, f: _words(v, "order and semilattice disagree at ({e}, {f})", e=e, f=f))
LEQ_E_CONTAINMENT = Spec(
    "leq-e-containment", "xx", lambda v, a, b: a != v.mul[v.mul[v.D[a]][b]][v.R[a]] or v.le[a][b],
    lambda v, a, b: _words(v, "{a} <=_e {b} is not in the order", a=a, b=b))


def _matching(name: str, d: bool, r: bool, wording: bool = False) -> Spec:
    """a <= b with D(a) = D(b) (when ``d``) and R(a) = R(b) (when ``r``) gives a = b."""
    return Spec(name, "p", lambda v, a, b: a == b or (d and v.D[a] != v.D[b]) or (r and v.R[a] != v.R[b]),
                (lambda v, a, b: _words(v, "{a} < {b} with matching maps", a=a, b=b)) if wording else None)


OS4, OS4A = _matching("OS4", True, True, wording=True), _matching("OS4A", True, False, wording=True)
OS4B = dual(OS4A, "OS4B")

OS7 = Spec(
    "OS7", "xxx", lambda v, a, b, u: not v.le[u][v.mul[a][b]]
    or any(v.mul[x][y] == u for x in v.below[a] for y in v.below[b]),
    lambda v, a, b, u: _words(v, "{u} <= {a}*{b} has no factorisation below the factors", a=a, b=b, u=u))

# -- the laws of an ordered category ---------------------------------------

OMEGA_STRUCTURED = Spec("omega-structured", lead=(("OC1", True),), parts=(("OC2", OS2), ("OC3", OS3)))

OC4, OC4A = _matching("OC4", True, True), _matching("OC4A", True, False)
OC4B = dual(OC4A, "OC4B")


def greatest_below(v: View, x: int, e: int) -> int | None:
    """The greatest y <= x with D(y) <= e, None when there is none: the
    restriction of x to e, and on ``v.dual`` the corestriction."""
    pool = [y for y in v.below[x] if v.le[v.D[y]][e]]
    return next((m for m in pool if all(v.le[y][m] for y in pool)), None)


# e <= D(x) gives a maximum m <= x with D(m) <= e, and D(m) = e
OC6A = Spec("OC6A", "xe", lambda v, x, e: not v.le[e][v.D[x]] or (
    (m := greatest_below(v, x, e)) is not None and v.D[m] == e))
OC6B = dual(OC6A, "OC6B")

# a <= b o d is x o y for some x <= b, y <= d
OC7 = Spec("OC7", "xxx", lambda v, a, b, d: v.mul[b][d] is None or not v.le[a][v.mul[b][d]]
           or any(v.mul[x][y] == a for x in v.below[b] for y in v.below[d]))
# a <= b o d lies below some x o y with x <= b, y <= d, D(x) = D(a) and R(y) = R(a)
OC7P = Spec("OC7'", "xxx", lambda v, a, b, d: v.mul[b][d] is None or not v.le[a][v.mul[b][d]] or any(
    v.D[x] == v.D[a] and v.R[y] == v.R[a] and v.mul[x][y] is not None and v.le[a][v.mul[x][y]]
    for x in v.below[b] for y in v.below[d]))


def _only(v: View, x: int, e: int) -> int | None:
    """The one y <= x with D(y) = e; None when there is none or there are several."""
    ys = [y for y in v.below[x] if v.D[y] == e]
    return ys[0] if len(ys) == 1 else None


# e <= D(x) gives exactly one y <= x with D(y) = e
OC8A = Spec("OC8A", "xe", lambda v, x, e: not v.le[e][v.D[x]] or _only(v, x, e) is not None)
OC8B = dual(OC8A, "OC8B")
OCI = replace(OSI, name="OCI")
# the pairs read their registered halves through the evaluation
OC6 = Spec("OC6", parts=(("oc6a", OC6A), ("oc6b", OC6B)), gate="omega-structured")
OC8 = Spec("OC8", parts=(("oc8a", OC8A), ("oc8b", OC8B)), gate="omega-structured")

# -- the two-order law on C₀ under <=_l (le) and <=_r (le2) ------------------

# x <=_r y and an identity e give unique restrictions u <=_l x and w <=_l y to
# D(x) meet e and D(y) meet e, with u <=_r w
RESTRICTION_MONOTONE = Spec("restriction-monotone", "xxe", lambda v, x, y, e: not v.le2[x][y] or (
    (u := _only(v, x, v.meet[v.D[x], e])) is not None
    and (w := _only(v, y, v.meet[v.D[y], e])) is not None and v.le2[u][w]))
CORESTRICTION_MONOTONE = dual(RESTRICTION_MONOTONE, "corestriction-monotone")
LEFT_ORDER_OC8A = Spec("left-order-oc8a", parts=(("OC2", OS2), ("OC3", OS3), ("OC8A", OC8A)))
AGREE = Spec("orders-agree-on-identities", "ee", lambda v, e, f: v.le[e][f] == v.le2[e][f])
# the clauses that give no witness
TWO_ORDER_CLAUSES = (
    ("left-order-oc8a", LEFT_ORDER_OC8A),
    ("right-order-oc8b", dual(LEFT_ORDER_OC8A, "right-order-oc8b")),
    ("orders-agree-on-identities", AGREE),
    # the identities form one meet-semilattice under both orders
    ("meet-semilattice", Spec("meet-semilattice", parts=(
        ("agree", AGREE), ("meet", Spec("meet", "ee", lambda v, e, f: v.meet[e, f] is not None))))),
    ("orders-permute", Spec("orders-permute", "xx", lambda v, a, c: any(v.le[a][b] and v.le2[b][c] for b in range(v.n))
                            == any(v.le2[a][b] and v.le[b][c] for b in range(v.n)))),
)


def _two_orders(spec: Spec, v: View) -> LawReport:
    """Every clause listed; the monotone ones, the law's parts, decided and
    giving the witness only once the first four hold."""
    parts = [(name, least(part, v) is None) for name, part in TWO_ORDER_CLAUSES]
    found = [least(part, v) for _, part in spec.parts] if all(ok for _, ok in parts[:4]) else [()] * len(spec.parts)
    parts += [(name, w is None) for (name, _), w in zip(spec.parts, found)]
    holds = all(ok for _, ok in parts)
    detail = "" if holds else "first failing clause: " + next(name for name, ok in parts if not ok)
    return LawReport(spec.name, holds, witness=next(filter(None, found), None), detail=detail, parts=tuple(parts))


TWO_ORDERS = Spec("ehresmann-category-two-orders", parts=(
    ("restriction-monotone", RESTRICTION_MONOTONE), ("corestriction-monotone", CORESTRICTION_MONOTONE)),
    on=derived_two_orders, assemble=_two_orders, gate="ehresmann")


def two_orders(c, leq_r) -> LawReport:
    """The report ``check_ehresmann_category_two_orders(c.base, c.order, leq_r)`` should give."""
    return _two_orders(TWO_ORDERS, two_order_view(c, leq_r))


FORMULAS: dict[str, Spec] = {spec.name.lower(): spec for spec in (
    ASSOCIATIVITY, LOCALISABLE, EHRESMANN, LEFT_RESTRICTION, RIGHT_RESTRICTION, RESTRICTION, FUNCTIONAL,
    DE_BARROS_EQUATIONAL, LEQ_E_PARTIAL_LAWS, DE_BARROS, TWO_ORDERS,
    EHRESMANN_ORDER, SEMILATTICE_ORDER_AGREEMENT, LEQ_E_CONTAINMENT, OS4, OS4A, OS4B, OS7,
    OMEGA_STRUCTURED, OC4, OC4A, OC4B, OC6, OC6A, OC6B, OC7, OC7P, OC8, OC8A, OC8B, OCI)}


def _view_of(spec: Spec | None, x) -> View:
    """The view ``spec`` is stated on, of the subject ``x`` (its own without ``spec``)."""
    v = view(x)
    if spec and spec.on:
        if spec.on not in v.memo:
            v.memo[spec.on] = spec.on(v)
        v = v.memo[spec.on]
    return v


def report(key: str, x) -> LawReport:
    """The report the formula of the law ``key`` gives on the subject ``x``."""
    spec = FORMULAS[key]
    return _report(spec, _view_of(spec, x))


def _holds(key: str, x) -> bool:
    """Whether an evaluation's report of the law ``key`` on ``x`` holds, by the
    formulas: its prerequisites hold, where it has any, and so does it."""
    memo = view(x).memo
    if key not in memo:
        law, spec = LAWS[key], FORMULAS[key]
        pre = law.pre and not law.flag and LAWS[law.pre]
        memo[key] = ((not pre or _holds(pre.key, x.base if pre.subject != law.subject else x))
                     and least(spec, _view_of(spec, x)) is None)
    return memo[key]


def refutes(spec: Spec, v: View, w: tuple[int, ...]) -> bool:
    """Whether ``w``, a tuple of the sorts of the leaf ``spec``, falsifies its body on ``v``."""
    if spec.flipped:
        v = v.dual
    if len(w) != len(spec.sorts) + spec.sorts.count("p"):
        return False
    at, n = iter(w), v.n
    inside = {"x": lambda a: 0 <= a < n, "e": v.id_set.__contains__, "p": lambda a: 0 <= a < n and v.le[a][next(at)]}
    return all(inside[sort](next(at)) for sort in spec.sorts) and not spec.body(v, *w)


def replay(rep: LawReport, x) -> None:
    """Assert that the witness of a failing ``rep``, an evaluation's report on
    ``x``, falsifies the formula it came from: the prerequisite's, where the
    evaluation's wording says it short-circuited; the failing part's, for a law
    read from registered laws; and, for a composite, that of the first failing
    part the report names (or the formula's report, where it names none).  A
    report without a witness replays trivially."""
    if rep.holds or rep.witness is None:
        return
    law = LAWS[rep.law.lower()]
    if law.pre and not law.flag:
        pre = LAWS[law.pre]
        lead = law.prefix or f"prerequisite {pre.name} fails: "
        if rep.detail.startswith(lead):
            px = x.base if pre.subject != law.subject else x
            return replay(LawReport(pre.name, False, witness=rep.witness, detail=rep.detail[len(lead):]), px)
    spec = FORMULAS.get(law.key)
    if spec is None:
        part = next(name for name, ok in rep.parts if not ok)
        return replay(LawReport(LAWS[part.lower()].name, False, witness=rep.witness), x)
    v = _view_of(spec, x)
    if spec.parts:
        # a short-circuit report names no parts; the formula's report names them
        named, parts = dict(spec.parts), rep.parts or _report(spec, v).parts
        v, spec = v.dual if spec.flipped else v, named[next(name for name, ok in parts if not ok and name in named)]
    assert refutes(spec, v, rep.witness), (rep, x)


def compare(key: str, x) -> LawReport | None:
    """The registered decider's report of ``key`` on ``x``, asserted equal to the
    formula's, whose witness falsifies the part it names; None where the
    decider refuses ``x`` or the law's gate fails."""
    spec, law = FORMULAS[key], LAWS[key]
    if spec.gate and not _holds(spec.gate, x.base if LAWS[spec.gate].subject != law.subject else x):
        return None
    try:
        got = law.decide(x, Evaluation())
    except WorkbenchError:
        return None
    want = report(key, x)
    assert got == want, f"{key}: the decider gives {got}, the formula {want}"
    return got


def compare_all(x, kind: str, seen: collections.Counter) -> None:
    """Compare every formula law on ``x`` of ``kind``, counting (key, verdict, None if not compared)."""
    for key in FORMULAS:
        if LAWS[key].subject == kind:
            rep = compare(key, x)
            seen[key, rep and rep.holds] += 1


def compare_classes(n: int) -> collections.Counter:
    """Compare every formula law with its decider on each class leader of size ``n``,
    under each Ehresmann order (with C(S)) and each derived order (with C₀);
    returns the (key, verdict) counts, and a mismatch raises AssertionError."""
    seen: collections.Counter = collections.Counter()
    for s in zoo._least_structures(n):
        compare_all(s, "semigroup", seen)
        c0 = partial_product_category(s)
        for order in enumerate_ehresmann_orders(s):
            os = OrderedSemigroup(s, order)
            compare_all(os, "ordered", seen)
            compare_all(category_of(os), "category", seen)
        for order in vars(derive_orders(s)).values():
            compare_all(OrderedSemigroup(s, order), "ordered", seen)
            compare_all(FiniteOrderedCategory(c0, order), "category", seen)
    return seen
