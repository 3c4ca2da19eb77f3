"""The hand-written morphism deciders, kept as the oracle of the clause lists.

``is_ehresmann_hom``, ``is_ordered_hom`` and ``is_eoc_morphism`` in the
package decide each map by the clause lists that ``morphism_correspondence``
prunes with.  The deciders below state the same clauses by hand, loop by
loop; the tests compare both on every map of small pairs and use these in
``reference_correspondence``.  Restrictions are ``formulas.greatest_below``
on ``formulas.view`` of each category, corestrictions the same on its dual,
not the package's tables or scan; a monkeypatch of ``formulas.greatest_below``
reaches this oracle.
"""

from __future__ import annotations

from typing import Sequence

import formulas

from ehresmann.category import FiniteOrderedCategory
from ehresmann.core import FiniteBiunarySemigroup, HomCandidate, LawReport, StructureError, _fmt
from ehresmann.orders import OrderedSemigroup


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


def is_ordered_hom(
    f: HomCandidate, src: OrderedSemigroup, tgt: OrderedSemigroup
) -> LawReport:
    """Decide whether ``f`` preserves mul, D, R, and the order."""
    base = is_ehresmann_hom(f, src.base, tgt.base)
    w_ord = None
    for a, b in src.order.pairs(strict=True):
        if not tgt.order.rel[f.map[a]][f.map[b]]:
            w_ord = (a, b)
            break
    parts = base.parts + (("order", w_ord is None),)
    if not base.holds:
        return LawReport(
            "ordered-homomorphism", False, witness=base.witness, detail=base.detail, parts=parts
        )
    if w_ord is not None:
        a, b = w_ord
        return LawReport(
            "ordered-homomorphism",
            False,
            witness=w_ord,
            detail=(
                f"{src.base.name_of(a)} <= {src.base.name_of(b)} but images"
                f" {tgt.base.name_of(f.map[a])} and {tgt.base.name_of(f.map[b])} are unrelated"
            ),
            parts=parts,
        )
    return LawReport("ordered-homomorphism", True, parts=parts)


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
    v1, v2 = formulas.view(c1), formulas.view(c2)
    for s in range(c1.n):
        for e in ids1:
            if rel1[e][c1.dmap[s]]:
                lhs = fm[formulas.greatest_below(v1, s, e)]
                if fm[e] not in ids2 or not rel2[fm[e]][c2.dmap[fm[s]]]:
                    w_res = (e, s)
                    break
                if lhs != formulas.greatest_below(v2, fm[s], fm[e]):
                    w_res = (e, s)
                    break
            if rel1[e][c1.rmap[s]]:
                lhs = fm[formulas.greatest_below(v1.dual, s, e)]
                if fm[e] not in ids2 or not rel2[fm[e]][c2.rmap[fm[s]]]:
                    w_res = (s, e)
                    break
                if lhs != formulas.greatest_below(v2.dual, fm[s], fm[e]):
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
