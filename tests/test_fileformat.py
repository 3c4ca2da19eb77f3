"""Parsing, emission, and the bit-exact round trip of structure files."""

import dataclasses

import pytest
import subjects

from ehresmann import StructureError, parse_structure, emit_structure
from ehresmann import zoo
from ehresmann.fileformat import category_file, resolve, semigroup_file
from ehresmann.category import category_of


MONOID_TEXT = """\
# two-element monoid with zero
kind: semigroup
elements: 0 1
mul:
0 0
0 1
D: 1 1
R: 1 1
order:
1 <= 0
"""

BAND_TEXT = """\
kind: semigroup
elements: c d Px Py Pz 1
mul:
c c Px Py Pz c
d d Px Py Pz d
Px Px Px Py Pz Px
Py Py Px Py Pz Py
Px Py Px Py Pz Pz
c d Px Py Pz 1
D: 1 1 Pz Pz Pz 1
R: 1 1 1 1 Pz 1
"""


class TestParseSemigroup:
    def test_monoid_file(self):
        sf = parse_structure(MONOID_TEXT)
        assert sf.kind == "semigroup"
        assert sf.semigroup.n == 2
        assert sf.semigroup.mul == ((0, 0), (0, 1))
        assert sf.order is not None and sf.order.leq(1, 0)

    def test_band_file_table_entry(self):
        sf = parse_structure(BAND_TEXT)
        s = sf.semigroup
        names = {s.name_of(i): i for i in range(6)}
        assert s.mul[names["Pz"]][names["c"]] == names["Px"]
        assert sf.order is None

    def test_matches_the_catalogued_band(self):
        parsed = parse_structure(BAND_TEXT).semigroup
        entry = zoo.example_orderless_band().structure
        assert parsed.mul == entry.mul
        assert parsed.dmap == entry.dmap
        assert parsed.rmap == entry.rmap

    def test_order_closure_is_transitive(self):
        text = MONOID_TEXT.replace("elements: 0 1", "elements: 0 1 2").replace(
            "mul:\n0 0\n0 1\n", "mul:\n0 0 0\n0 1 2\n0 2 2\n"
        ).replace("D: 1 1", "D: 0 1 1").replace("R: 1 1", "R: 0 1 1").replace(
            "order:\n1 <= 0\n", "order:\n0 <= 1\n1 <= 2\n"
        )
        sf = parse_structure(text)
        assert sf.order.leq(0, 2)

    def test_antisymmetry_violation_is_a_parse_error(self):
        text = MONOID_TEXT.replace("order:\n1 <= 0\n", "order:\n0 <= 1\n1 <= 0\n")
        with pytest.raises(StructureError):
            parse_structure(text)


class TestParseErrors:
    def test_unknown_element_token(self):
        with pytest.raises(StructureError):
            parse_structure(MONOID_TEXT.replace("mul:\n0 0", "mul:\n0 x"))

    def test_non_square_mul(self):
        with pytest.raises(StructureError):
            parse_structure(MONOID_TEXT.replace("mul:\n0 0\n0 1\n", "mul:\n0 0\n"))

    def test_missing_d_section(self):
        with pytest.raises(StructureError):
            parse_structure(MONOID_TEXT.replace("D: 1 1\n", ""))

    def test_duplicate_section(self):
        with pytest.raises(StructureError):
            parse_structure(MONOID_TEXT + "D: 1 1\n")

    def test_unknown_kind(self):
        with pytest.raises(StructureError):
            parse_structure(MONOID_TEXT.replace("kind: semigroup", "kind: magma"))

    def test_reserved_name(self):
        with pytest.raises(StructureError):
            parse_structure(MONOID_TEXT.replace("elements: 0 1", "elements: . 1"))


CATEGORY_TEXT = """\
kind: category
elements: e1 e2 a
comp:
e1 . a
. e2 .
. a .
D: e1 e2 e1
R: e1 e2 e2
order:
e1 <= e2
"""


class TestParseCategory:
    def test_basic_category(self):
        sf = parse_structure(CATEGORY_TEXT)
        assert sf.kind == "category"
        c = sf.category
        assert c.comp[0][1] is None
        assert c.comp[0][2] == 2
        assert c.identities() == (0, 1)
        assert c.meet is not None  # derived from the order

    def test_comp_defined_where_mismatched_rejected(self):
        bad = CATEGORY_TEXT.replace("e1 . a", "e1 e2 a")
        with pytest.raises(StructureError):
            parse_structure(bad)

    def test_comp_missing_where_matched_rejected(self):
        bad = CATEGORY_TEXT.replace("e1 . a", "e1 . .")
        with pytest.raises(StructureError):
            parse_structure(bad)

    def test_explicit_meet_table(self):
        text = CATEGORY_TEXT + "meet:\ne1 e1 e1\ne1 e2 e1\ne2 e2 e2\n"
        sf = parse_structure(text)
        assert sf.category.meet[0][1] == 0

    def test_inconsistent_meet_rejected(self):
        text = CATEGORY_TEXT + "meet:\ne1 e1 e1\ne1 e2 e2\ne2 e2 e2\n"
        with pytest.raises(StructureError, match=r"differs from the order at \(e1, e2\): given 1, derived 0"):
            parse_structure(text)

    def test_incomplete_meet_rejected(self):
        text = CATEGORY_TEXT + "meet:\ne1 e1 e1\n"
        with pytest.raises(StructureError, match=r"differs from the order at \(e1, e2\): given None, derived 0"):
            parse_structure(text)

    def test_missing_order_section_means_equality(self):
        text = CATEGORY_TEXT.replace("order:\ne1 <= e2\n", "")
        sf = parse_structure(text)
        assert sf.category.order.pairs(strict=True) == []


# each malformed file with the message parse_structure gives it: an unknown
# token in every section that names elements, the first of two unknown tokens,
# an unknown token and a malformed order line in either order, short and long
# rows, and each missing section
MALFORMED = [
    ("unknown token in mul", MONOID_TEXT.replace("0 0\n0 1", "0 0\n0 x"), "unknown element token 'x' in mul"),
    ("first of two unknown mul tokens", MONOID_TEXT.replace("0 0\n0 1", "0 y\nx 1"),
     "unknown element token 'y' in mul"),
    ("unknown token in D", MONOID_TEXT.replace("D: 1 1", "D: 1 x"), "unknown element token 'x' in D"),
    ("unknown token in R", MONOID_TEXT.replace("R: 1 1", "R: x 1"), "unknown element token 'x' in R"),
    ("unknown token first in order", MONOID_TEXT.replace("1 <= 0", "p <= q"), "unknown element token 'p' in order"),
    ("unknown token second in order", MONOID_TEXT.replace("1 <= 0", "1 <= q"), "unknown element token 'q' in order"),
    ("unknown token, then a malformed order line", MONOID_TEXT.replace("1 <= 0", "1 <= q\n1 < 0"),
     "unknown element token 'q' in order"),
    ("malformed order line, then an unknown token", MONOID_TEXT.replace("1 <= 0", "1 < 0\n1 <= q"),
     "order line must read 'a <= b', got '1 < 0'"),
    ("short mul row", MONOID_TEXT.replace("0 0\n0 1", "0 0\n0"), "mul must be a 2 x 2 table"),
    ("long mul row", MONOID_TEXT.replace("0 0\n0 1", "0 0 0\n0 1"), "mul must be a 2 x 2 table"),
    ("short D", MONOID_TEXT.replace("D: 1 1", "D: 1"), "D must list 2 tokens"),
    ("long R", MONOID_TEXT.replace("R: 1 1", "R: 1 1 1"), "R must list 2 tokens"),
    ("missing mul", MONOID_TEXT.replace("mul:\n0 0\n0 1\n", ""), "missing mul: section"),
    ("missing D", MONOID_TEXT.replace("D: 1 1\n", ""), "missing D: section"),
    ("missing R", MONOID_TEXT.replace("R: 1 1\n", ""), "missing R: section"),
    ("missing elements", MONOID_TEXT.replace("elements: 0 1\n", ""), "missing elements: section"),
    ("missing kind", MONOID_TEXT.replace("kind: semigroup\n", ""), "missing kind: header"),
    ("unknown token in comp", CATEGORY_TEXT.replace("e1 . a", "e1 . b"), "unknown element token 'b' in comp"),
    ("short comp row", CATEGORY_TEXT.replace(". e2 .", ". e2"), "comp must be a 3 x 3 table"),
    ("long comp row", CATEGORY_TEXT.replace(". a .", ". a . ."), "comp must be a 3 x 3 table"),
    ("missing comp", CATEGORY_TEXT.replace("comp:\ne1 . a\n. e2 .\n. a .\n", ""), "missing comp: section"),
    ("unknown token in a category's order", CATEGORY_TEXT.replace("e1 <= e2", "e1 <= b"),
     "unknown element token 'b' in order"),
]


@pytest.mark.parametrize("text, message", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED])
def test_malformed_files_give_their_messages(text, message):
    with pytest.raises(StructureError) as exc:
        parse_structure(text)
    assert str(exc.value) == message


def named(s):
    """``s`` with the names its file gives it, its indices, where it has none."""
    return s if s.names is not None else dataclasses.replace(s, names=tuple(map(str, range(s.n))))


def test_every_small_structure_and_zoo_entry_round_trips():
    """parse(emit(x)) is x for every structure of size at most 3, with and
    without each of its Ehresmann orders, for every zoo entry under each of
    its orders and none, and for the category of each of those orders."""
    files = [semigroup_file(named(s)) for s in subjects.structures(3)]
    ordered = [dataclasses.replace(osg, base=named(osg.base)) for osg in subjects.ordered(3)]
    ordered += [entry.ordered(name) for entry in subjects.zoo_entries(512) for name in entry.order_names()]
    files += [semigroup_file(osg.base, osg.order) for osg in ordered]
    files += [semigroup_file(entry.structure) for entry in subjects.zoo_entries(512)]
    files += [category_file(category_of(osg)) for osg in ordered if osg.base.n <= 64]
    for sf in files:
        assert parse_structure(emit_structure(sf)) == sf
    kinds = {(sf.kind, sf.order is None) for sf in files}
    assert kinds == {("semigroup", True), ("semigroup", False), ("category", False)}
    assert len(files) > 2 * (1 + 6 + 78) + 204


class TestRoundTrip:
    def test_semigroup_with_order(self):
        sf = parse_structure(MONOID_TEXT)
        again = parse_structure(emit_structure(sf))
        assert again.semigroup.mul == sf.semigroup.mul
        assert again.semigroup.dmap == sf.semigroup.dmap
        assert again.semigroup.rmap == sf.semigroup.rmap
        assert again.order.rel == sf.order.rel

    def test_semigroup_without_order(self):
        sf = parse_structure(BAND_TEXT)
        again = parse_structure(emit_structure(sf))
        assert again.semigroup == sf.semigroup
        assert again.order is None

    def test_emitted_text_is_stable(self):
        sf = parse_structure(MONOID_TEXT)
        once = emit_structure(sf)
        assert emit_structure(parse_structure(once)) == once

    def test_category_round_trip(self):
        c = category_of(zoo.example_zero_one_nabla().ordered())
        sf = category_file(c)
        again = parse_structure(emit_structure(sf))
        assert again.category.comp == c.comp
        assert again.category.order.rel == c.order.rel
        assert again.category.meet == c.meet

    def test_rel2_category_round_trip(self):
        c = category_of(zoo.gen_rel(2).ordered())
        again = parse_structure(emit_structure(category_file(c)))
        assert again.category.comp == c.comp
        assert again.category.meet == c.meet

    def test_zoo_entries_round_trip(self):
        for name in ("two-element-monoid", "orderless-band", "pt-2", "inj-2"):
            entry = zoo.get(name)
            order = entry.orders[0][1] if entry.orders else None
            sf = semigroup_file(entry.structure, order)
            again = parse_structure(emit_structure(sf))
            assert again.semigroup.mul == entry.structure.mul
            assert again.semigroup.dmap == entry.structure.dmap
            assert again.semigroup.rmap == entry.structure.rmap
            if order is not None:
                assert again.order.rel == order.rel


class TestResolve:
    def test_example_uri(self):
        sf = resolve("example://two-element-monoid")
        assert sf.semigroup.n == 2
        assert sf.order is not None and sf.order.leq(1, 0)

    def test_example_uri_with_order_fragment(self):
        sf = resolve("example://two-element-monoid#leq2")
        assert sf.order.pairs(strict=True) == []

    def test_unknown_example(self):
        with pytest.raises(StructureError):
            resolve("example://missing")

    def test_missing_file(self):
        with pytest.raises(StructureError):
            resolve("/no/such/file.sgp")

    def test_file_path(self, tmp_path):
        p = tmp_path / "m.sgp"
        p.write_text(MONOID_TEXT, encoding="utf-8")
        sf = resolve(str(p))
        assert sf.semigroup.n == 2
