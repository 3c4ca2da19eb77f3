"""Command surface: exit codes, JSON schema, and report contents."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import ehresmann
from ehresmann import cli, zoo
from ehresmann.cli import run_command
from ehresmann.core import LAWS
from ehresmann.fileformat import emit_structure, resolve


def parse_json(report):
    payload = json.loads(report.to_json())
    assert payload["schema"] == "ehresmann-report/1"
    return payload


class TestCheck:
    def test_orderless_band_ladder(self):
        r = run_command(["check", "example://orderless-band"])
        assert r.exit_code == 1  # de-barros fails on the ladder
        by_law = {rep.law: rep for rep in r.reports}
        assert by_law["associativity"].holds
        assert by_law["ehresmann"].holds
        assert not by_law["de-barros"].holds

    def test_single_law_exit_codes(self):
        assert run_command(["check", "example://orderless-band", "--law", "ehresmann"]).exit_code == 0
        assert run_command(["check", "example://orderless-band", "--law", "de-barros"]).exit_code == 1

    @pytest.mark.parametrize("uri", ["example://orderless-band#leq1", "example://orderless-band#"])
    def test_order_fragment_on_an_orderless_example_is_an_error(self, uri):
        r = run_command(["check", uri])
        assert r.exit_code == 2
        assert r.text_lines == ["error: example orderless-band carries no order"]

    def test_order_laws_included_when_order_present(self):
        r = run_command(["check", "example://two-element-monoid"])
        laws = [rep.law for rep in r.reports]
        assert "ehresmann-order" in laws and "OS7" in laws

    def test_unknown_law_is_usage_error(self):
        assert run_command(["check", "example://pt-2", "--law", "nonsense"]).exit_code == 2

    def test_order_laws_without_an_order_are_reported_under_their_own_names(self):
        r = run_command(["--json", "check", "example://orderless-band", "--law", "os4", "--law", "os7"])
        assert r.exit_code == 1
        reports = parse_json(r)["reports"]
        assert [rep["law"] for rep in reports] == ["OS4", "OS7"]
        for rep in reports:
            assert rep["holds"] is False and rep["applicable"] is False
            assert rep["detail"] == "the file carries no order section"

    def test_json_payload_shape(self):
        r = run_command(["--json", "check", "example://two-element-monoid", "--law", "ehresmann"])
        payload = parse_json(r)
        assert payload["exit_code"] == 0
        assert payload["reports"][0]["law"] == "ehresmann"
        assert payload["reports"][0]["holds"] is True

    def test_ladder_decides_each_prerequisite_once(self, monkeypatch):
        law = LAWS["associativity"]
        decided = []

        def counting(s, ev):
            decided.append(s)
            return law.decide(s, ev)

        monkeypatch.setitem(LAWS, "associativity", dataclasses.replace(law, decide=counting))
        r = run_command(["check", "example://pt-3"])
        assert [rep.law for rep in r.reports][:2] == ["associativity", "localisable"]
        assert len(decided) == 1

    def test_witnesses_replay(self):
        r = run_command(["check", "example://orderless-band", "--law", "de-barros-equational"])
        rep = r.reports[0]
        assert not rep.holds
        from ehresmann import zoo

        s = zoo.example_orderless_band().structure
        x, e, y = rep.witness
        lhs = s.mul[s.mul[x][e]][y]
        rhs = s.mul[s.mul[s.dmap[lhs]][s.mul[x][y]]][s.rmap[lhs]]
        assert lhs != rhs


class TestOrders:
    def test_count_only(self):
        r = run_command(["orders", "example://two-element-monoid", "--count-only"])
        assert r.exit_code == 0
        assert r.artifacts["count"] == 2
        assert "orders" not in r.artifacts

    def test_listing(self):
        r = run_command(["orders", "example://two-element-monoid"])
        assert r.artifacts["count"] == 2
        assert ["1 <= 0"] in r.artifacts["orders"]

    def test_up_to_iso(self):
        r = run_command(["orders", "example://two-element-monoid", "--up-to-iso"])
        assert r.artifacts["count"] == 2

    def test_band_is_orderless(self):
        r = run_command(["orders", "example://orderless-band"])
        assert r.exit_code == 0 and r.artifacts["count"] == 0

    def test_pt3_answers_under_the_default_recursion_limit(self, capsys):
        # 3,124 candidate pairs: a search recursing once per excluded pair overflows the stack
        assert ehresmann.cli.main(["orders", "example://pt-3", "--count-only", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["artifacts"]["count"] == 1
        entry = zoo.get("pt-3")
        inclusion = entry.get_order("inclusion")
        assert ehresmann.enumerate_ehresmann_orders(entry.structure) == [inclusion]
        assert ehresmann.derive_orders(entry.structure).leq_e == inclusion

    def test_category_file_rejected(self, tmp_path):
        p = tmp_path / "c.cat"
        p.write_text(
            "kind: category\nelements: e\ncomp:\ne\nD: e\nR: e\n", encoding="utf-8"
        )
        assert run_command(["orders", str(p)]).exit_code == 2


class TestDerive:
    def test_e_order_of_monoid_is_equality(self):
        r = run_command(["derive", "example://two-element-monoid", "--order", "e"])
        assert r.exit_code == 0
        assert r.artifacts["pairs"] == []

    def test_l_order_of_pt2(self):
        r = run_command(["derive", "example://pt-2", "--order", "l"])
        assert r.exit_code == 0
        assert len(r.artifacts["pairs"]) > 0


class TestCat:
    def test_default_ladder(self):
        r = run_command(["cat", "example://zero-one-nabla"])
        assert r.exit_code == 0
        laws = [rep.law for rep in r.reports]
        assert laws == ["omega-structured", "ehresmann-ordered-category", "oc-equivalences"]

    def test_named_oc_checks(self):
        r = run_command(["cat", "example://zero-one-nabla", "--check", "oc8", "--check", "oci"])
        assert r.exit_code == 1
        by_law = {rep.law: rep.holds for rep in r.reports}
        assert by_law == {"OC8": False, "OCI": True}

    def test_biaction_artifacts(self):
        r = run_command(["cat", "example://zero-one-nabla", "--biaction"])
        assert r.exit_code == 0
        assert r.artifacts["biaction"]["left"][0][2] == "0"

    def test_two_orders(self):
        r = run_command(["cat", "example://orderless-band", "--two-orders"])
        assert r.exit_code == 0
        assert r.reports[0].law == "ehresmann-category-two-orders"

    def test_two_orders_is_the_registered_law(self):
        via_check = parse_json(run_command(
            ["--json", "check", "example://pt-2", "--law", "ehresmann-category-two-orders"]))
        via_cat = parse_json(run_command(["--json", "cat", "example://pt-2", "--two-orders"]))
        del via_check["command"], via_cat["command"]
        assert via_check == via_cat

    def test_semigroup_without_order_rejected(self):
        assert run_command(["cat", "example://orderless-band"]).exit_code == 2


class TestEsn:
    def test_rel2(self):
        r = run_command(["esn", "example://rel-2"])
        assert r.exit_code == 0
        assert [rep.law for rep in r.reports] == [
            "esn-round-trip",
            "special-correspondences",
        ]

    def test_category_file_direction(self, tmp_path):
        from ehresmann import category_of, emit_structure, zoo
        from ehresmann.fileformat import category_file

        c = category_of(zoo.example_zero_one_nabla().ordered())
        p = tmp_path / "n.cat"
        p.write_text(emit_structure(category_file(c)), encoding="utf-8")
        r = run_command(["esn", str(p)])
        assert r.exit_code == 0


class TestEnumerate:
    def test_size_two_count(self):
        r = run_command(["enumerate", "--size", "2"])
        assert r.exit_code == 0
        assert r.artifacts["count"] == 6

    def test_filter(self):
        all_n2 = run_command(["enumerate", "--size", "2"]).artifacts["count"]
        db = run_command(["enumerate", "--size", "2", "--filter", "de-barros"]).artifacts["count"]
        assert 0 < db <= all_n2

    @pytest.mark.parametrize("name", ["os4", "OS7", "semilattice-order-agreement"])
    def test_filter_rejects_laws_of_ordered_structures(self, name):
        # enumerated structures carry no order, so such a filter would keep nothing
        r = run_command(["enumerate", "--size", "2", "--filter", name])
        assert r.exit_code == 2
        assert r.text_lines == [f"error: unknown law name {name!r}"]

    def test_size_four_needs_flag(self):
        assert run_command(["enumerate", "--size", "4"]).exit_code == 2


class TestExample:
    def test_summary(self):
        r = run_command(["example", "two-element-monoid"])
        assert r.exit_code == 0
        assert r.summary["orders"] == ["leq1", "leq2"]

    def test_emit_round_trips(self):
        from ehresmann import parse_structure

        r = run_command(["example", "orderless-band", "--emit"])
        sf = parse_structure(r.artifacts["file"])
        assert sf.semigroup.n == 6

    def test_unknown_example(self):
        assert run_command(["example", "nope"]).exit_code == 2


class TestParseErrorsExitTwo:
    def test_bad_file(self, tmp_path):
        p = tmp_path / "bad.sgp"
        p.write_text("kind: semigroup\nelements: a\nmul:\na a\nD: a\nR: a\n", encoding="utf-8")
        assert run_command(["check", str(p)]).exit_code == 2

    def test_missing_file(self):
        assert run_command(["check", "/does/not/exist"]).exit_code == 2


class TestSweepCommand:
    def test_small_sweep_passes(self):
        r = run_command(["sweep", "--max-size", "2"])
        assert r.exit_code == 0
        assert r.artifacts["all_pass"] is True

    def test_text_mode_builds_no_json_document(self):
        text = run_command(["sweep", "--max-size", "2"])
        doc = run_command(["--json", "sweep", "--max-size", "2"])
        assert text.raw_json is None and doc.raw_json is not None
        assert json.loads(doc.raw_json) == text.artifacts
        assert text.to_text() == doc.to_text() == "".join(
            f"{name}: {'PASS' if ok else 'FAIL'}\n" for name, ok in sorted(text.artifacts["criteria"].items()))

    def test_jobs_is_accepted_and_starts_no_thread(self, monkeypatch):
        single = run_command(["--json", "sweep", "--max-size", "2", "--jobs", "1"])

        def refuse(thread):
            raise AssertionError("the sweep started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        r = run_command(["--json", "sweep", "--max-size", "2", "--jobs", "4"])
        assert r.exit_code == 0
        assert r.raw_json == single.raw_json

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_size_below_one_is_refused(self, size):
        # as enumerate --size 0 is: no sweep of zero structures reports all_pass
        r = run_command(["sweep", f"--max-size={size}"])
        assert r.exit_code == 2
        assert r.text_lines == ["error: exhaustive enumeration supports sizes 1..4"]

    @pytest.fixture
    def size_4_orbits(self, monkeypatch):
        """Sizes below 4 give no class and size 4 its first two; sizes searched are recorded."""
        real = zoo._orbits
        calls = []

        def _orbits(n):
            calls.append(n)
            if n < 4:
                return iter(())
            return itertools.islice(real(n), 2)

        monkeypatch.setattr(zoo, "_orbits", _orbits)
        return calls

    def test_size_four_needs_flag(self, size_4_orbits):
        r = run_command(["sweep", "--max-size", "4"])
        assert r.exit_code == 2
        assert r.text_lines == ["error: size 4 is long-running; pass allow_large=True to proceed"]
        # refused before any size is searched
        assert size_4_orbits == []

    def test_allow_large_reaches_the_enumerator(self, size_4_orbits):
        r = run_command(["sweep", "--max-size", "4", "--allow-large"])
        assert r.exit_code == 0
        assert size_4_orbits == [1, 2, 3, 4]
        members = sum(len(relabellings) for _, relabellings in itertools.islice(zoo._orbits(4), 2))
        assert sorted(r.artifacts["structures"]) == [f"n4-{i:04d}" for i in range(members)]


class TestParserReuse:
    def test_a_reused_parser_carries_no_state_between_calls(self, tmp_path, monkeypatch):
        path = tmp_path / "monoid.sgp"
        path.write_text(emit_structure(resolve("example://two-element-monoid")), encoding="utf-8")
        f = str(path)
        argvs = [
            ["--json", "check", f, "--law", "associativity"],
            ["check", f],
            ["check", f, "--law", "ehresmann", "--law", "os7"],
            ["check", f, "--law"],
            ["orders", f, "--count-only"],
        ]
        cli._build_parser.cache_clear()
        reused = [run_command(argv) for argv in argvs]
        assert cli._build_parser.cache_info().misses == 1
        assert [r.exit_code for r in reused] == [0, 1, 0, 2, 0]  # the full ladder fails at functional and OS4
        assert [r.json_requested for r in reused] == [True, False, False, False, False]
        assert [rep.law for rep in reused[2].reports] == ["ehresmann", "OS7"]
        # the undecorated builder makes a new parser for every call
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [run_command(argv) for argv in argvs]
        assert reused == fresh


class TestJsonWriter:
    """``cli._to_json`` against ``json.dumps(..., sort_keys=True, indent=2)``, the
    call it replaces."""

    @staticmethod
    def assert_oracle_bytes(value, text):
        expected = json.dumps(value, sort_keys=True, indent=2)
        if text != expected:
            # where the two first differ, not pytest's diff of documents of up to 142 KB
            at = len(os.path.commonprefix([text, expected]))
            lo = max(at - 40, 0)
            pytest.fail(f"differs at {at}: {text[lo:at + 40]!r} != {expected[lo:at + 40]!r}")

    @pytest.fixture
    def written(self, monkeypatch):
        """Each whole document the writer is handed, with the text it gave."""
        calls = []
        writer = cli._to_json

        def recorded(value, depth=0):
            text = writer(value, depth)
            if depth == 0:
                calls.append((value, text))
            return text

        monkeypatch.setattr(cli, "_to_json", recorded)
        return calls

    @pytest.mark.parametrize(
        "command",
        [
            ("check",),
            ("orders", "--count-only"),
            ("cat", "--biaction"),
            ("cat", "--two-orders"),
            ("esn",),
            ("derive", "--order", "e"),
        ],
        ids=" ".join,
    )
    def test_zoo_reports(self, written, command):
        names = [name for name in zoo.names() if name != "rel-3"]
        for name in names:
            r = run_command(["--json", command[0], f"example://{name}", *command[1:]])
            assert r.to_json() == written[-1][1] + "\n"
        assert len(written) == len(names)
        for value, text in written:
            self.assert_oracle_bytes(value, text)

    @pytest.mark.parametrize(
        "argv", [["enumerate", "--size", "3"], ["sweep", "--max-size", "3"]], ids=" ".join
    )
    def test_enumeration_and_sweep_reports(self, written, argv):
        r = run_command(["--json", *argv])
        text = r.raw_json if r.raw_json is not None else r.to_json()
        assert len(written) == 1
        value, written_text = written[0]
        assert text == written_text + "\n"
        self.assert_oracle_bytes(value, written_text)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            (),
            [[]],
            {"a": {}, "b": [], "c": [[], {}]},
            [True, 1, None, 0, False, "1"],
            {"t": (1, ("x", None)), "u": [(), {"k": (True,)}]},
            {"na\u00efve": "caf\u00e9 \u2603", "esc": ["\"", "\\", "\n", "\t", "\x00", "\x7f"]},
            [float("nan"), float("inf"), float("-inf"), -0.0, 1.5],
            {"x": [1, 2.0], "y": {"z": 0.1}},
            {1: "a", 2: [1, {"b": None}]},
            {"outer": {3: [True], 1: {"k": [{}]}}},
            [[[[["deep"]]]], {"z": 1, "a": 2, "m": [3]}],
            "top",
            7,
            None,
        ],
    )
    def test_edge_payloads(self, value):
        self.assert_oracle_bytes(value, cli._to_json(value))


def run_cli_module(*args: str) -> subprocess.CompletedProcess:
    """Run ``python -m ehresmann.cli`` on the package under test, installed or not."""
    src = str(Path(ehresmann.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "ehresmann.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point():
    out = run_cli_module("orders", "example://two-element-monoid", "--count-only")
    assert out.returncode == 0
    assert "ehresmann orders: 2" in out.stdout


def test_console_json_output():
    out = run_cli_module("--json", "check", "example://two-element-monoid", "--law", "ehresmann")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["schema"] == "ehresmann-report/1"
