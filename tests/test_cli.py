"""Command surface: exit codes, JSON schema, and report contents."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ehresmann
from ehresmann.cli import run_command


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

    def test_order_laws_included_when_order_present(self):
        r = run_command(["check", "example://two-element-monoid"])
        laws = [rep.law for rep in r.reports]
        assert "ehresmann-order" in laws and "OS7" in laws

    def test_unknown_law_is_usage_error(self):
        assert run_command(["check", "example://pt-2", "--law", "nonsense"]).exit_code == 2

    def test_json_payload_shape(self):
        r = run_command(["--json", "check", "example://two-element-monoid", "--law", "ehresmann"])
        payload = parse_json(r)
        assert payload["exit_code"] == 0
        assert payload["reports"][0]["law"] == "ehresmann"
        assert payload["reports"][0]["holds"] is True

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

    def test_json_bytes_do_not_depend_on_jobs(self):
        a = run_command(["--json", "sweep", "--max-size", "2", "--jobs", "1"])
        b = run_command(["--json", "sweep", "--max-size", "2", "--jobs", "3"])
        assert a.raw_json == b.raw_json


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
