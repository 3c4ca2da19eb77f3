"""Catalogue fidelity and the exhaustive enumerator, against independent oracles."""

import hashlib
import itertools
import sys
import threading

import formulas
import pytest
import subjects

from ehresmann import (
    FiniteBiunarySemigroup,
    StructureError,
    TooLargeError,
    check_ehresmann,
    check_ehresmann_order,
    check_functional,
    check_left_restriction_with_range,
    check_restriction,
    derive_orders,
    enumerate_ehresmann_orders,
    enumerate_ehresmann_semigroups,
    projections,
)
from ehresmann import zoo
from ehresmann.fileformat import resolve
from ehresmann.orders import OrderedSemigroup


class TestTwoElementMonoid:
    def test_is_ehresmann(self):
        assert check_ehresmann(zoo.example_two_element_monoid().structure).holds

    def test_has_exactly_the_two_catalogued_orders(self):
        entry = zoo.example_two_element_monoid()
        found = {o.key() for o in enumerate_ehresmann_orders(entry.structure)}
        assert found == {entry.get_order("leq1").key(), entry.get_order("leq2").key()}

    def test_e_order_is_equality(self):
        s = zoo.example_two_element_monoid().structure
        leq_e = derive_orders(s).leq_e
        assert all(leq_e.rel[a][b] == (a == b) for a in range(2) for b in range(2))


class TestOrderlessBand:
    def test_is_ehresmann(self):
        assert check_ehresmann(zoo.example_orderless_band().structure).holds

    def test_table_rows(self):
        s = zoo.example_orderless_band().structure
        names = {s.name_of(i): i for i in range(6)}
        assert s.mul[names["Py"]][names["c"]] == names["Py"]
        assert s.mul[names["Pz"]][names["c"]] == names["Px"]

    def test_no_ehresmann_orders(self):
        assert enumerate_ehresmann_orders(zoo.example_orderless_band().structure) == []

    def test_is_a_band(self):
        s = zoo.example_orderless_band().structure
        assert all(s.mul[a][a] == a for a in range(6))


class TestZeroOneNabla:
    def test_domain_range_values(self):
        s = zoo.example_zero_one_nabla().structure
        assert s.dmap == (0, 1, 1)
        assert s.rmap == (0, 1, 1)

    def test_passes_ordered_check(self):
        assert check_ehresmann_order(zoo.example_zero_one_nabla().ordered()).holds

    def test_category_fails_oc8(self):
        from ehresmann import category_of, check_OC_property

        c = category_of(zoo.example_zero_one_nabla().ordered())
        assert not check_OC_property(c, "OC8").holds

    def test_embeds_in_rel2(self):
        # 0, diagonal, and full relation are masks 0, 9, 15
        small = zoo.example_zero_one_nabla()
        big = zoo.gen_rel(2)
        embed = {0: 0, 1: 9, 2: 15}
        for a in range(3):
            assert big.structure.dmap[embed[a]] == embed[small.structure.dmap[a]]
            assert big.structure.rmap[embed[a]] == embed[small.structure.rmap[a]]
            for b in range(3):
                assert (
                    big.structure.mul[embed[a]][embed[b]]
                    == embed[small.structure.mul[a][b]]
                )
                assert big.get_order().rel[embed[a]][embed[b]] == small.get_order().rel[a][b]


def rel_pairs(mask, k):
    return {(i, j) for i in range(k) for j in range(k) if mask & (1 << (i * k + j))}


def rel_mask(pairs, k):
    m = 0
    for i, j in pairs:
        m |= 1 << (i * k + j)
    return m


class TestGenRel:
    def test_k1_shares_the_monoid_table_but_not_the_maps(self):
        entry = zoo.gen_rel(1)
        mono = zoo.example_two_element_monoid().structure
        assert entry.structure.n == 2
        assert entry.structure.mul == mono.mul
        # the empty relation has empty domain, so the biunary structures
        # differ: D is the identity here but constantly 1 on the monoid
        assert entry.structure.dmap == (0, 1) != mono.dmap

    def test_k2_composition_matches_set_oracle(self):
        s = zoo.gen_rel(2).structure
        for a in range(16):
            for b in range(16):
                composed = {
                    (i, kk)
                    for i, j in rel_pairs(a, 2)
                    for j2, kk in rel_pairs(b, 2)
                    if j == j2
                }
                assert s.mul[a][b] == rel_mask(composed, 2)

    def test_k2_domain_range_match_set_oracle(self):
        s = zoo.gen_rel(2).structure
        for a in range(16):
            pairs = rel_pairs(a, 2)
            dom = {i for i, _ in pairs}
            ran = {j for _, j in pairs}
            assert s.dmap[a] == rel_mask({(i, i) for i in dom}, 2)
            assert s.rmap[a] == rel_mask({(j, j) for j in ran}, 2)

    def test_k2_is_ordered_ehresmann(self):
        assert check_ehresmann_order(zoo.gen_rel(2).ordered()).holds

    def test_k2_has_four_projections(self):
        assert len(projections(zoo.gen_rel(2).structure)) == 4

    def test_k3_spot_checks(self):
        s = zoo.gen_rel(3).structure
        assert s.n == 512
        for a in range(0, 512, 41):
            for b in range(0, 512, 37):
                composed = {
                    (i, kk)
                    for i, j in rel_pairs(a, 3)
                    for j2, kk in rel_pairs(b, 3)
                    if j == j2
                }
                assert s.mul[a][b] == rel_mask(composed, 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(TooLargeError):
            zoo.gen_rel(4)
        with pytest.raises(TooLargeError):
            zoo.gen_rel(0)


class TestGenPt:
    def test_counts(self):
        assert zoo.gen_pt(1).structure.n == 2
        assert zoo.gen_pt(2).structure.n == 9
        assert zoo.gen_pt(3).structure.n == 64

    def test_pt2_left_restriction_and_functional(self):
        s = zoo.gen_pt(2).structure
        assert check_left_restriction_with_range(s).holds
        assert check_functional(s).holds

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("injective", [False, True], ids=["pt", "inj"])
    def test_pt_embeds_in_rel_closed_under_d_and_r(self, injective, k):
        # pt-k and inj-k are the functional and the injective relations of
        # rel-k, with its product, D, R and inclusion
        maps = zoo.gen_partial_injections(k) if injective else zoo.gen_pt(k)
        rel = zoo.get(f"rel-{k}")
        # [1,-,3] is the map 1 -> 1, 3 -> 3, undefined at 2
        masks = [
            rel_mask({(x, int(v) - 1) for x, v in enumerate(name[1:-1].split(",")) if v != "-"}, k)
            for name in maps.structure.names
        ]
        expected = []
        for m in range(rel.structure.n):
            pairs = rel_pairs(m, k)
            images = {j for _, j in pairs}
            if len({i for i, _ in pairs}) == len(pairs) and (not injective or len(images) == len(pairs)):
                expected.append(m)
        assert sorted(masks) == expected
        s, order = maps.structure, maps.get_order()
        for i, a in enumerate(masks):
            assert rel.structure.dmap[a] == masks[s.dmap[i]]
            assert rel.structure.rmap[a] == masks[s.rmap[i]]
            for j, b in enumerate(masks):
                assert rel.structure.mul[a][b] == masks[s.mul[i][j]]
                assert rel.get_order().rel[a][b] == order.rel[i][j]


class TestGenPartialInjections:
    def test_count_and_restriction(self):
        entry = zoo.gen_partial_injections(2)
        assert entry.structure.n == 7
        assert check_restriction(entry.structure).holds

    def test_closed_subset_of_pt(self):
        inj = zoo.gen_partial_injections(2).structure
        # every product of injective partial maps stays injective
        assert check_ehresmann_order(zoo.gen_partial_injections(2).ordered()).holds


class TestProvenance:
    def test_every_entry_passes_its_cited_check(self):
        for name in zoo.names():
            if name in ("rel-3", "pt-3"):
                continue  # covered by spot checks; too big for full law sweeps here
            entry = zoo.get(name)
            if entry.provenance == "ehresmann":
                assert check_ehresmann(entry.structure).holds
            elif entry.provenance == "restriction":
                assert check_restriction(entry.structure).holds
                for _, order in entry.orders:
                    assert check_ehresmann_order(
                        OrderedSemigroup(entry.structure, order)
                    ).holds
            elif entry.provenance == "ehresmann-order":
                for _, order in entry.orders:
                    assert check_ehresmann_order(
                        OrderedSemigroup(entry.structure, order)
                    ).holds
            else:
                raise AssertionError(f"unknown provenance {entry.provenance}")

    def test_unknown_name_rejected(self):
        from ehresmann import StructureError

        with pytest.raises(StructureError):
            zoo.get("no-such-example")


class TestSharedEntries:
    def test_each_name_resolves_to_one_entry(self):
        for name in zoo.names():
            assert zoo.get(name) is zoo.get(name)

    def test_threads_racing_on_a_first_build_share_one_entry(self, monkeypatch):
        monkeypatch.setattr(zoo, "_ENTRIES", {})
        barrier = threading.Barrier(8)
        got = []

        def resolve_after_barrier():
            barrier.wait(timeout=10)
            got.append(zoo.get("pt-2"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=resolve_after_barrier) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 8 and all(entry is got[0] for entry in got)
        assert zoo.get("pt-2") is got[0]

    def test_a_shared_entry_equals_a_fresh_build(self):
        for name in zoo.names():
            if name == "rel-3":
                continue  # building the 512-element table again takes most of a second
            assert zoo.get(name) == zoo._REGISTRY[name]()

    def test_example_uris_resolve_to_equal_files(self):
        assert resolve("example://pt-3") == resolve("example://pt-3")


def oracle_enumeration_count(n):
    """Count Ehresmann structures by filtering every table and map choice.

    Shares no code with the production enumerator: associativity, the
    localisable laws and commuting projections are read through their
    formulas, the laws that read D alone before any R is chosen.
    """
    count = 0
    d_only = [part for name, part in formulas.LOCALISABLE.parts + formulas.EHRESMANN.parts
              if name in ("L4", "commuting-projections")]
    for flat in itertools.product(range(n), repeat=n * n):
        mul = [flat[i * n:(i + 1) * n] for i in range(n)]
        if formulas.least(formulas.ASSOCIATIVITY, formulas.View(n, mul, None, None, None, (), str)):
            continue
        for dmap in itertools.product(range(n), repeat=n):
            ids = sorted(set(dmap))
            if any(formulas.least(part, formulas.View(n, mul, dmap, None, None, ids, str)) for part in d_only):
                continue
            count += sum(not formulas.least(formulas.LOCALISABLE, formulas.View(n, mul, dmap, rmap, None, ids, str))
                         for rmap in itertools.product(range(n), repeat=n))
    return count


class TestEnumeration:
    def test_size_one(self):
        found = list(enumerate_ehresmann_semigroups(1))
        assert len(found) == 1
        assert found[0].mul == ((0,),)

    def test_counts_match_oracle(self):
        for n in (1, 2, 3):
            assert (
                len(list(enumerate_ehresmann_semigroups(n)))
                == oracle_enumeration_count(n)
            )

    def test_stream_contains_the_two_element_monoid(self):
        target = zoo.example_two_element_monoid().structure
        assert any(
            s.mul == target.mul and s.dmap == target.dmap and s.rmap == target.rmap
            for s in enumerate_ehresmann_semigroups(2)
        )

    def test_every_emitted_structure_is_ehresmann(self):
        for s in subjects.structures(3):
            assert check_ehresmann(s).holds

    def test_no_duplicates_and_stable_order(self):
        for n in (1, 2, 3):
            keys = [s.key() for s in enumerate_ehresmann_semigroups(n)]
            assert len(keys) == len(set(keys))
            assert keys == sorted(keys)
            assert keys == [s.key() for s in enumerate_ehresmann_semigroups(n)]

    def test_up_to_iso_matches_orbit_count(self):
        for n, classes in [(1, 1), (2, 3), (3, 15), (4, 87)]:
            labeled = list(enumerate_ehresmann_semigroups(n, allow_large=True))
            reps = [s.key() for s in enumerate_ehresmann_semigroups(n, True, allow_large=True)]
            # orbit count oracle: group labeled keys under all permutations
            seen = set()
            orbits = 0
            for s in labeled:
                if (s.mul, s.dmap, s.rmap) in seen:
                    continue
                orbits += 1
                for perm in itertools.permutations(range(n)):
                    seen.add(subjects.relabelled(perm, s.mul, s.dmap, s.rmap))
            assert len(reps) == orbits == classes
            # a representative is least under every relabelling, not just the automorphisms
            assert reps == [
                s.key()
                for s in labeled
                if all(
                    subjects.relabelled(perm, s.mul, s.dmap, s.rmap) >= (s.mul, s.dmap, s.rmap)
                    for perm in itertools.permutations(range(n))
                )
            ]

    def test_up_to_iso_stream_and_orbits_agree_with_every_relabelling(self):
        # the stream tries only each table's automorphisms, the oracle every relabelling
        for n in (1, 2, 3, 4):
            perms = list(itertools.permutations(range(n)))
            least = [
                s
                for t in zoo._lex_least_tables(n)
                for s in zoo._structures_for_table(n, t)
                if all(subjects.relabelled(p, s.mul, s.dmap, s.rmap) >= (s.mul, s.dmap, s.rmap) for p in perms)
            ]
            assert list(enumerate_ehresmann_semigroups(n, True, allow_large=True)) == least
            assert [s for s, _ in zoo._orbits(n)] == least

    def test_later_calls_replay_the_same_leader_objects(self):
        for n in (1, 2, 3):
            first = zoo._least_structures(n)
            leaders = list(first)
            # a fresh iterator each call, over the objects the first call stored
            assert list(first) == []
            assert all(a is b for a, b in zip(zoo._least_structures(n), leaders, strict=True))
            stream = enumerate_ehresmann_semigroups(n, True)
            assert all(a is b for a, b in zip(stream, leaders, strict=True))
            assert all(s is b for (s, _), b in zip(zoo._orbits(n), leaders, strict=True))

    def test_stored_leaders_equal_a_cold_search(self):
        for n in (1, 2, 3, 4):
            stored = list(zoo._least_structures(n))
            assert zoo._LEADERS[n] == tuple(stored) == tuple(zoo._search_least_structures(n))

    def test_size_5_leaders_and_classes_are_pinned(self):
        # 1,915 tables is OEIS A027851 at n = 5; the digests were taken from the search
        # that rescanned every relabelling at every node and built every (D, R)
        # candidate's relabellings, so the tables, the classes, their order and their
        # relabellings are byte for byte what it gave
        tables = list(zoo._lex_least_tables(5))
        assert len(tables) == 1915
        assert hashlib.sha256(repr(tables).encode()).hexdigest() == (
            "cf3296d9d59beddda8c2696613fa944696898cd1455b5bba3ead07ee5ef742da"
        )
        classes = [(s.key(), sorted(r.items())) for s, r in zoo._orbits(5)]
        assert len(classes) == 603
        assert sum(len(r) for _, r in classes) == 57605
        assert hashlib.sha256(repr(classes).encode()).hexdigest() == (
            "d6dbebcfc32ea89aae3e407dfc781299516c154897ee9e89b4ae65f2599cfc05"
        )

    def test_orbit_relabellings_rename_the_least_structure(self):
        for n in (1, 2, 3, 4):
            perms = list(itertools.permutations(range(n)))
            for s, relabellings in zoo._orbits(n):
                # each member's key maps to the first permutation that gives it
                assert relabellings == {
                    FiniteBiunarySemigroup(n, *subjects.relabelled(p, s.mul, s.dmap, s.rmap)).key(): p
                    for p in reversed(perms)}
                assert min(relabellings) == s.key()

    def test_labelled_structures_share_equal_rows(self):
        rows = [row for s in enumerate_ehresmann_semigroups(3) for row in s.mul]
        assert len({id(row) for row in rows}) == len(set(rows)) < len(rows)

    def test_size_limits(self):
        with pytest.raises(TooLargeError, match="exhaustive enumeration supports sizes 1..4"):
            enumerate_ehresmann_semigroups(5)
        with pytest.raises(TooLargeError, match="exhaustive enumeration supports sizes 1..4"):
            enumerate_ehresmann_semigroups(0)
        with pytest.raises(TooLargeError, match="size 4 is long-running"):
            enumerate_ehresmann_semigroups(4)  # needs allow_large

    @pytest.mark.parametrize("size", ["3", None, 2.5, True, False])
    def test_non_int_size_is_malformed(self, size):
        # raised by the call itself, before any table is searched
        with pytest.raises(StructureError, match="enumeration size must be an int"):
            enumerate_ehresmann_semigroups(size, allow_large=True)

    def test_size_four_behind_flag(self):
        keys = []
        for s in enumerate_ehresmann_semigroups(4, allow_large=True):
            keys.append(s.key())
        assert keys == sorted(keys) and len(keys) == len(set(keys))
        assert len(keys) == 1708
        stream = enumerate_ehresmann_semigroups(4, allow_large=True)
        for s in [next(stream) for _ in range(25)]:
            assert check_ehresmann(s).holds
