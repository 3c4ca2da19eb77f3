"""Line-oriented structure files and their canonical emission.

The format is bit-exact and diff-friendly: whitespace-separated name
tokens, ``#`` comments, one section per header.  Semigroup files carry a
total ``mul:`` table; category files carry a ``comp:`` table in which
``.`` marks undefined entries and may add a ``meet:`` section of triples
``e f g`` (e meet f = g) that must equal the meet derived from the order;
a category is parsed into its ``FiniteCategory`` first, then ordered.  The
``order:`` section lists pairs ``a <= b`` and is closed reflexively and
transitively on parse; a closure that breaks antisymmetry is a parse error.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import zoo
from .core import FiniteBiunarySemigroup, StructureError, _trusted
from .orders import OrderedSemigroup, PartialOrder
from .category import FiniteCategory, FiniteOrderedCategory

_SECTIONS = ("kind", "elements", "mul", "comp", "D", "R", "order", "meet")
_RESERVED_TOKENS = {".", "<=", "#"}


@dataclass(frozen=True)
class StructureFile:
    """Parsed structure file: a semigroup (with optional order) or a category."""

    kind: str
    semigroup: FiniteBiunarySemigroup | None = None
    order: PartialOrder | None = None
    category: FiniteOrderedCategory | None = None

    def ordered(self) -> OrderedSemigroup:
        if self.kind != "semigroup":
            raise StructureError("not a semigroup file")
        if self.order is None:
            raise StructureError("this operation needs an order section")
        return OrderedSemigroup(self.semigroup, self.order)


def _split_sections(text: str) -> list[tuple[str, str, list[list[str]]]]:
    """Return (header, inline payload, block lines) per section, in file order."""
    sections: list[tuple[str, str, list[list[str]]]] = []
    current: tuple[str, str, list[list[str]]] | None = None
    for raw in text.splitlines():
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        head, colon, inline = line.partition(":")
        if colon and head in _SECTIONS:
            current = (head, inline.strip(), [])
            sections.append(current)
        else:
            if current is None:
                raise StructureError(f"content before any section header: {line!r}")
            current[2].append(line.split())
    return sections


def parse_structure(text: str) -> StructureFile:
    """Parse a structure file; raises StructureError on any malformation."""
    sections = _split_sections(text)
    seen: dict[str, tuple[str, list[list[str]]]] = {}
    for name, inline, block in sections:
        if name in seen:
            raise StructureError(f"duplicate section {name!r}")
        seen[name] = (inline, block)
    if "kind" not in seen:
        raise StructureError("missing kind: header")
    kind = seen["kind"][0]
    if kind not in ("semigroup", "category"):
        raise StructureError(f"unknown kind {kind!r}")
    if "elements" not in seen:
        raise StructureError("missing elements: section")
    names = seen["elements"][0].split()
    if seen["elements"][1]:
        raise StructureError("elements must be listed on the header line")
    if not names:
        raise StructureError("elements section is empty")
    if len(set(names)) != len(names):
        raise StructureError("element names must be distinct")
    for tok in names:
        if tok in _RESERVED_TOKENS or ":" in tok:
            raise StructureError(f"element name {tok!r} is reserved")
    n = len(names)
    index = {tok: i for i, tok in enumerate(names)}

    def row(toks: list[str], where: str, lookup=index) -> tuple:
        """``toks`` through ``lookup`` in one call; an unknown token is
        worded at the first one in the row."""
        try:
            return tuple(map(lookup.__getitem__, toks))
        except KeyError:
            tok = next(tok for tok in toks if tok not in lookup)
            raise StructureError(f"unknown element token {tok!r} in {where}") from None

    def vector(section: str) -> tuple[int, ...]:
        if section not in seen:
            raise StructureError(f"missing {section}: section")
        inline, block = seen[section]
        toks = inline.split() + [t for line in block for t in line]
        if len(toks) != n:
            raise StructureError(f"{section} must list {n} tokens")
        return row(toks, section)

    def lines(section: str, what: str, lookup=None) -> list | tuple:
        """The block lines of ``section``, whose ``what`` belong on their own
        lines; with ``lookup``, the n x n table they hold, read through it."""
        if section not in seen:
            raise StructureError(f"missing {section}: section")
        inline, block = seen[section]
        if inline:
            raise StructureError(f"{what} belong on their own lines")
        if lookup is None:
            return block
        if len(block) != n or any(len(toks) != n for toks in block):
            raise StructureError(f"{section} must be a {n} x {n} table")
        return tuple(row(toks, section, lookup) for toks in block)

    dmap = vector("D")
    rmap = vector("R")

    order = None
    if "order" in seen:
        block = lines("order", "order pairs")
        # the tokens of the lines before the first malformed one, mapped in one
        # call, so an unknown token is worded first when it comes first
        bad = next((i for i, line in enumerate(block) if len(line) != 3 or line[1] != "<="), len(block))
        ends = row([tok for line in block[:bad] for tok in (line[0], line[2])], "order")
        if bad < len(block):
            raise StructureError(f"order line must read 'a <= b', got {' '.join(block[bad])!r}")
        up = [1 << a for a in range(n)]
        for a, b in zip(ends[::2], ends[1::2]):
            up[a] |= 1 << b
        order = PartialOrder._closure(up)

    if kind == "semigroup":
        if "comp" in seen or "meet" in seen:
            raise StructureError("semigroup files take mul:, not comp:/meet:")
        mul = lines("mul", "mul rows", index)
        # every entry of mul, D and R is a value of index, so in 0..n-1; mul
        # is n rows of n, D and R have n entries, and names are n >= 1
        # distinct strings: FiniteBiunarySemigroup's checks all pass
        sgp = _trusted(FiniteBiunarySemigroup, n=n, mul=mul, dmap=dmap, rmap=rmap, names=tuple(names))
        return StructureFile("semigroup", semigroup=sgp, order=order)

    if "mul" in seen:
        raise StructureError("category files take comp:, not mul:")
    comp = lines("comp", "comp rows", index | {".": None})
    for x in range(n):
        for y in range(n):
            defined = comp[x][y] is not None
            if defined and rmap[x] != dmap[y]:
                raise StructureError(
                    f"comp entry defined at ({names[x]}, {names[y]}) where R != D"
                )
            if not defined and rmap[x] == dmap[y]:
                raise StructureError(
                    f"comp entry missing at ({names[x]}, {names[y]}) where R = D"
                )
    if order is None:
        order = PartialOrder.equality(n)
    meet = None
    if "meet" in seen:
        table: dict[tuple[int, int], int] = {}
        for line in lines("meet", "meet triples"):
            if len(line) != 3:
                raise StructureError(f"meet line must read 'e f g', got {' '.join(line)!r}")
            e, f, g = row(line, "meet")
            if table.get((e, f), g) != g:
                raise StructureError(f"conflicting meet entries for ({names[e]}, {names[f]})")
            table[(e, f)] = g
            table.setdefault((f, e), g)
        meet = tuple(
            tuple(table.get((x, y)) for y in range(n)) for x in range(n)
        )
    cat = FiniteOrderedCategory(FiniteCategory(n, dmap, rmap, comp, tuple(names)), order, meet)
    return StructureFile("category", category=cat, order=order)


def _order_lines(names: tuple[str, ...], order: PartialOrder) -> list[str]:
    return [f"{names[a]} <= {names[b]}" for a, b in order.pairs(strict=True)]


def emit_structure(sf: StructureFile) -> str:
    """Canonical text for a parsed structure; parse(emit(x)) is x."""
    lines: list[str] = [f"kind: {sf.kind}"]
    if sf.kind == "semigroup":
        s = sf.semigroup
        names = tuple(s.name_of(i) for i in range(s.n))
        lines.append("elements: " + " ".join(names))
        lines.append("mul:")
        for row in s.mul:
            lines.append(" ".join(names[v] for v in row))
        lines.append("D: " + " ".join(names[v] for v in s.dmap))
        lines.append("R: " + " ".join(names[v] for v in s.rmap))
        if sf.order is not None:
            lines.append("order:")
            lines.extend(_order_lines(names, sf.order))
    else:
        c = sf.category
        names = tuple(c.name_of(i) for i in range(c.n))
        lines.append("elements: " + " ".join(names))
        lines.append("comp:")
        for row in c.comp:
            lines.append(" ".join("." if v is None else names[v] for v in row))
        lines.append("D: " + " ".join(names[v] for v in c.dmap))
        lines.append("R: " + " ".join(names[v] for v in c.rmap))
        lines.append("order:")
        lines.extend(_order_lines(names, c.order))
        if c.meet is not None:
            lines.append("meet:")
            for e in c.identities():
                for f in c.identities():
                    lines.append(f"{names[e]} {names[f]} {names[c.meet[e][f]]}")
    return "\n".join(lines) + "\n"


def semigroup_file(s: FiniteBiunarySemigroup, order: PartialOrder | None = None) -> StructureFile:
    return StructureFile("semigroup", semigroup=s, order=order)


def category_file(c: FiniteOrderedCategory) -> StructureFile:
    return StructureFile("category", category=c, order=c.order)


def resolve(source: str) -> StructureFile:
    """Load a structure from a path or an ``example://NAME[#order]`` URI."""
    if source.startswith("example://"):
        ref = source[len("example://") :]
        name, fragment, order_name = ref.partition("#")
        entry = zoo.get(name)
        order = entry.get_order(order_name or None) if entry.orders or fragment else None
        return semigroup_file(entry.structure, order)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StructureError(f"cannot read {source!r}: {exc}") from exc
    return parse_structure(text)
