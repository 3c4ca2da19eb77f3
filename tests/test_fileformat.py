"""Parsing, emission, and the bit-exact round trip of structure files."""

import pytest

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
