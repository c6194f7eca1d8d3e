"""Census records, formula verification, Wilf classes, serialization."""

import copy
import errno
import json
import os
import pickle
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from signedperms import (
    CensusTable,
    PatternSet,
    all_orbits,
    export,
    load_cache,
    orbit_of_set,
    run_census,
    transfer_all_orders,
    verify_registry,
    write_cache,
)
from signedperms import census, cli, formulas
from conftest import NAMED_TRIPLES, NOT_REGULAR, fresh_env, not_a_regular_file, run_bounded


@pytest.fixture(scope="module")
def table5():
    return run_census(5)


def assert_refused(data, tmp_path, orders, match=None):
    # refused by the cache rule, and by census --cache at each order given,
    # shallower or deeper than the file's, which exits 2 and keeps the file
    with pytest.raises(ValueError, match=match):
        census._check_cache(data)
    path = tmp_path / "cache.json"
    path.write_bytes(data)
    for n in orders:
        assert cli.main(["census", "--n-max", str(n), "--cache", str(path)]) == 2
        assert path.read_bytes() == data


def record_for(table, text):
    rep = orbit_of_set(PatternSet.parse(text)).representative
    return next(r for r in table.records if r.representative == rep)


def grouped(table, field):
    # orbit ids grouped by a record field, in order of first appearance
    groups = {}
    for rec in table.records:
        groups.setdefault(getattr(rec, field), []).append(rec.orbit_id)
    return groups


class TestRunCensus:
    def test_shape(self, table5):
        assert table5.n_max == 5
        assert len(table5.records) == 58
        assert [r.orbit_id for r in table5.records] == list(range(58))
        for rec in table5.records:
            assert len(rec.sequence) == 6
            assert rec.members[0] == rec.representative

    def test_members_partition_all_sets(self, table5):
        masks = [m.mask for rec in table5.records for m in rec.members]
        assert sorted(masks) == list(range(256))

    def test_universal_prefix(self, table5):
        for rec in table5.records:
            assert rec.sequence[0] == 1
            assert rec.sequence[1] == 2
            assert rec.sequence[2] == 8 - len(rec.representative)

    def test_empty_set_row(self, table5):
        empty = record_for(table5, "")
        assert list(empty.sequence) == [1, 2, 8, 48, 384, 3840]
        assert empty.orbit_id == 0
        assert empty.formula_ids == ("EMPTYSET",)

    def test_known_rows(self, table5):
        single = record_for(table5, "1 2")
        assert list(single.sequence) == [1, 2, 7, 34, 209, 1546]
        assert single.paper_names == ("{1 2}",)
        assert single.formula_ids == ("EQ1",)

        full = record_for(table5, ", ".join(str(p) for p in PatternSet(255)))
        assert list(full.sequence) == [1, 2, 0, 0, 0, 0]

        almost = record_for(
            table5, "1 2, 1 -2, -1 2, -1 -2, 2 1, 2 -1, -2 1"
        )
        assert list(almost.sequence) == [1, 2, 1, 1, 1, 1]
        assert "U78_3" in almost.paper_names

    def test_unequal_orbit_counts_raise(self, monkeypatch):
        # one member of a nontrivial orbit is miscounted at order 3
        orb = next(o for o in all_orbits() if len(o.members) > 1)
        member = max(orb.members, key=lambda s: s.mask)
        assert member != orb.representative
        engine = census.transfer_all_orders

        def skewed(n_max, masks):
            per_order = list(engine(n_max, masks))
            per_order[3][member.mask] += 1
            return per_order

        monkeypatch.setattr(census, "transfer_all_orders", skewed)
        message = f"orbit of {orb.representative} has unequal counts at order 3"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            run_census(5)

    @pytest.mark.parametrize("n_max, unchecked", [(0, 34), (1, 29), (2, 23), (3, 0)])
    def test_empty_ranges_leave_orbits_unchecked(self, n_max, unchecked, tmp_path):
        # an orbit is verified only if one of its entries' ranges
        # [min_n, n_max] is not empty
        min_n = {entry.name: entry.min_n for entry in formulas.registry()}
        table = run_census(n_max)
        for rec in table.records:
            checked = any(min_n[name] <= n_max for name in rec.paper_names)
            assert rec.verification == ("verified" if checked else "unchecked"), rec
        statuses = [rec.verification for rec in table.records]
        assert statuses.count("unchecked") == unchecked
        # the status survives a round trip through a cache file
        write_cache(table, tmp_path / "cache.json")
        assert load_cache(tmp_path / "cache.json") == table

    def test_all_verified(self, table5):
        assert {rec.verification for rec in table5.records} == {"verified"}
        for rec in table5.records:
            assert rec.paper_names
            assert rec.formula_ids
            assert rec.verification_details == ()

    def test_order_16_needs_no_cap(self):
        table = run_census(16)
        assert [rec.verification for rec in table.records] == ["verified"] * 58
        assert len(grouped(table, "wilf_class")) == len(grouped(table, "sequence")) == 33

    def test_wilf_class_assignment(self):
        table = run_census(6)
        classes = grouped(table, "wilf_class")
        # ids are dense, ordered by first appearance, one per sequence
        assert list(classes) == list(range(len(classes)))
        assert list(classes.values()) == list(grouped(table, "sequence").values())

    def test_wilf_examples(self, table5):
        singles = [r for r in table5.records if len(r.representative) == 1]
        assert len(singles) == 2
        assert singles[0].wilf_class == singles[1].wilf_class

        t4 = record_for(table5, NAMED_TRIPLES["T_4"])
        t5 = record_for(table5, NAMED_TRIPLES["T_5"])
        assert t4.wilf_class == t5.wilf_class

        t2 = record_for(table5, NAMED_TRIPLES["T_2"])
        t9 = record_for(table5, NAMED_TRIPLES["T_9"])
        assert t2.sequence[:4] == t9.sequence[:4]
        assert t2.sequence[4] == 42 and t9.sequence[4] == 48
        assert t2.wilf_class != t9.wilf_class

    # The cache rule, census._check_cache: a file is valid only if its bytes
    # are export of a fresh census at its own n_max.  Each test below edits a
    # census and checks that the edit is refused.

    def test_cache_reuse(self, table5, tmp_path, capsys):
        # a valid file of any order is the census it holds
        assert census._check_cache(export(run_census(3))) == run_census(3)
        assert census._check_cache(export(table5)) == table5
        path = tmp_path / "c.json"
        write_cache(run_census(3), path)
        assert cli.main(["census", "--n-max", "5", "--cache", str(path)]) == 0
        assert path.read_bytes() == export(table5) == capsys.readouterr().out.encode()
        # shrinking below the cache also works, and keeps the cache
        assert cli.main(["census", "--n-max", "2", "--cache", str(path)]) == 0
        assert capsys.readouterr().out.encode() == export(run_census(2))
        assert path.read_bytes() == export(table5)

    def test_cache_with_wrong_orbits(self, tmp_path):
        broken = run_census(2)
        broken = broken._replace(records=broken.records[:-1])
        assert_refused(export(broken), tmp_path, (1, 3), r"order 2: it has \d+ bytes")

    def test_cache_with_tampered_count(self, tmp_path):
        tampered = run_census(5)
        rec = tampered.records[5]
        seq = list(rec.sequence)
        seq[4] += 1
        tampered.records[5] = rec._replace(sequence=tuple(seq))
        # the message names the edited count and the count it should be
        wrong = rf"""line \d+ \(sequence\) is ' *"{seq[4]}"', not ' *"{seq[4] - 1}"'"""
        assert_refused(export(tampered), tmp_path, (3, 6), wrong)

    def test_cache_with_duplicate_record(self):
        # a tampered copy of record 5 put first used to be hidden by the
        # later, correct copy
        cache = run_census(5)
        rec = cache.records[5]
        seq = list(rec.sequence)
        seq[4] += 1
        cache.records.insert(0, rec._replace(sequence=tuple(seq)))
        assert len(cache.records) == 59
        with pytest.raises(ValueError, match=r"\(orbit_id\) is '      \"orbit_id\": 5'"):
            census._check_cache(export(cache))

    def test_cache_with_wrong_orbit_id(self):
        cache = run_census(3)
        fresh = cache.records[:]
        cache.records[5] = cache.records[5]._replace(orbit_id=6)
        with pytest.raises(ValueError, match=r"\(orbit_id\)"):
            census._check_cache(export(cache))
        # right ids, wrong order
        cache = cache._replace(records=fresh[:5] + fresh[6:7] + fresh[5:6] + fresh[7:])
        with pytest.raises(ValueError, match=r"\(orbit_id\)"):
            census._check_cache(export(cache))

    def test_cache_with_wrong_members(self):
        cache = run_census(3)
        rec = cache.records[5]
        cache.records[5] = rec._replace(members=rec.members[:-1])
        with pytest.raises(ValueError, match=r"\(members\)"):
            census._check_cache(export(cache))
        cache.records[5] = rec._replace(members=rec.members[::-1])
        with pytest.raises(ValueError, match=r"\(members\)"):
            census._check_cache(export(cache))

    def test_cache_with_short_sequences(self, tmp_path):
        # n_max claims more counts than the records hold, which leaves the
        # file shorter than any census of that order, or fewer
        short = export(run_census(4)._replace(n_max=6))
        assert_refused(short, tmp_path, (4, 8), r"order 6: it has \d+ bytes")
        with pytest.raises(ValueError, match=r"\(sequence\)"):
            census._check_cache(export(run_census(6)._replace(n_max=4)))

    def test_cache_from_another_version(self):
        # the census at a file's order is this version's, so a cache from
        # another version, or one that does not say its version, is refused
        cache = run_census(3)
        cache.metadata["version"] = "0.0.0"
        with pytest.raises(ValueError, match=r"\(version\) is .*0\.0\.0"):
            census._check_cache(export(cache))
        del cache.metadata["version"]
        with pytest.raises(ValueError, match="metadata"):
            census._check_cache(export(cache))


class TestVerifyRegistry:
    def test_clean(self):
        report = verify_registry(4)
        assert report.mismatch_count == 0
        assert len(report.checks) == 67
        for check in report.checks:
            assert check.status == "verified"
            assert check.mismatches == ()

    def test_clean_to_order_16(self):
        report = verify_registry(16)
        assert len(report.checks) == 67
        assert [c.entry.name for c in report.checks if c.mismatches] == []
        assert report.mismatch_count == 0

    def test_empty_ranges_are_unchecked(self):
        report = verify_registry(2)
        for check in report.checks:
            want = "verified" if check.entry.min_n <= 2 else "unchecked"
            assert check.status == want, check.entry.name
        u4_1 = next(c for c in report.checks if c.entry.name == "U4_1")
        assert (u4_1.status, u4_1.entry.min_n, report.n_max) == ("unchecked", 3, 2)
        assert report.mismatch_count == 0

    def test_superseded_claims_are_refuted(self):
        report = verify_registry(3)
        shown = {
            (s.patterns.text(), s.claimed, s.enumerated) for s in report.superseded
        }
        assert ("1 2, 2 1", 4, 6) in shown
        assert ("-1 2, 1 -2", 24, 22) in shown
        # below the witness order the second claim is not yet testable
        report2 = verify_registry(2)
        assert len(report2.superseded) == 1

    def test_holds_below_notes(self):
        report = verify_registry(4)
        by_name = {c.entry.name: c for c in report.checks}
        assert by_name["U4_2"].holds_below == (0, 1, 2)
        assert by_name["W_4"].holds_below == (2,)
        assert by_name["T_1"].holds_below == ()

    def test_packs_only_the_registry_sets(self, monkeypatch):
        # one engine call, over the 59 distinct sets the 67 entries name,
        # which hold both superseded claims' sets
        calls = []

        def recording(n_max, masks):
            calls.append((n_max, sorted(masks)))
            return transfer_all_orders(n_max, masks)

        monkeypatch.setattr(census, "transfer_all_orders", recording)
        verify_registry(5)
        distinct = {e.patterns.mask for e in formulas.registry()}
        assert len(distinct) == 59
        assert calls == [(5, sorted(distinct))]
        assert {ps.mask for ps, *_ in census._SUPERSEDED} <= distinct

    def test_report_equals_a_256_set_pass(self):
        full = list(transfer_all_orders(12, range(256)))
        for n_max in range(13):
            per_order = full[: n_max + 1]
            report = verify_registry(n_max)
            assert report.checks == census._check_registry(dict(enumerate(per_order)))
            assert report.superseded == tuple(
                census.SupersededClaim(ps, description, n, value_fn(n), per_order[n][ps.mask])
                for ps, description, value_fn, n in census._SUPERSEDED
                if n <= n_max
            )

    def test_reports_ignore_the_engines_field_order(self, monkeypatch):
        # where each set's field sits is the engine's own affair: an engine
        # that receives its masks reversed moves every field, and neither the
        # census nor the registry report may change
        want = run_census(8), verify_registry(8)
        engine = census.transfer_all_orders
        monkeypatch.setattr(census, "transfer_all_orders",
                            lambda n_max, masks: engine(n_max, list(masks)[::-1]))
        assert (run_census(8), verify_registry(8)) == want

    def test_order_43_is_refused_at_once(self):
        # memory admits 59 sets through order 42, against 33 for all 256
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"order 43 on 59 set\(s\) needs an estimated "
                           r"2064 MB, over the budget"):
            verify_registry(43)
        assert time.perf_counter() - start < 1

    def test_detects_a_broken_formula(self, monkeypatch):
        claim = formulas._EVALUATORS["EQ11"][0]
        monkeypatch.setitem(formulas._EVALUATORS, "EQ11", (claim, lambda n: n * n + 2))
        report = verify_registry(3)
        assert report.mismatch_count == 1
        bad = [c for c in report.checks if c.status == "mismatch"]
        assert bad[0].entry.name == "T_7"
        assert bad[0].mismatches
        # the census reads the same checks: T_7's orbit fails with the
        # same mismatches, prefixed by entry name and formula
        (rec,) = [r for r in run_census(3).records if "T_7" in r.paper_names]
        assert rec.verification == "mismatch"
        assert rec.verification_details == tuple(
            f"T_7/EQ11 at {m}" for m in bad[0].mismatches
        )


class TestSerialization:
    def test_json_round_trip(self, table5, tmp_path):
        path = tmp_path / "census.json"
        write_cache(table5, path)
        loaded = load_cache(path)
        assert loaded.n_max == table5.n_max
        assert loaded.records == table5.records
        assert loaded.metadata == table5.metadata
        # byte-for-byte stable through a full cycle
        assert export(loaded) == export(table5)

    @staticmethod
    def reference_json(table):
        # the document the JSON writer stands for, encoded by json.dumps
        def pattern_set(ps):
            return [list(p.letters) for p in ps]

        records = []
        for rec in table.records:
            out = {
                "orbit_id": rec.orbit_id,
                "representative": pattern_set(rec.representative),
                "paper_names": list(rec.paper_names),
                "members": [pattern_set(m) for m in rec.members],
                "sequence": [str(v) for v in rec.sequence],
                "formula_ids": list(rec.formula_ids),
                "verification": rec.verification,
                "wilf_class": rec.wilf_class,
            }
            if rec.verification_details:
                out["verification_details"] = list(rec.verification_details)
            records.append(out)
        doc = {"n_max": table.n_max, "records": records, "metadata": table.metadata}
        return (json.dumps(doc, indent=2) + "\n").encode()

    def test_json_matches_json_dumps_with_details(self, monkeypatch):
        claim = formulas._EVALUATORS["EQ11"][0]
        monkeypatch.setitem(formulas._EVALUATORS, "EQ11", (claim, lambda n: n * n + 2))
        table = run_census(4)
        assert any(r.verification_details for r in table.records)
        assert export(table) == self.reference_json(table)

    def test_json_matches_json_dumps_on_escaped_strings(self, table5, tmp_path):
        table = copy.deepcopy(table5)
        odd = ('say "hi"', "back\\slash", "caf\u00e9 \u2013 \U0001d4b2", "tab\tnew\nline")
        table.records[3] = table.records[3]._replace(
            paper_names=odd, formula_ids=odd[::-1], verification_details=odd
        )
        table.records[4] = table.records[4]._replace(paper_names=(), formula_ids=())
        data = export(table)
        assert data == self.reference_json(table)
        assert data.isascii()
        # the table is not the census of its counts, so as a file it is refused
        path = tmp_path / "census.json"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=r"\(paper_names\)"):
            load_cache(path)

    def test_json_matches_json_dumps_on_nested_metadata(self, table5):
        table = copy.deepcopy(table5)._replace(metadata={
            "version": "0.1.0",
            "run": {"orders": [0, 1, {"deep": [None, True, 1.5]}], "empty": {}},
            "none": [],
            "note": 'quote " and \u00fc',
        })
        assert export(table) == self.reference_json(table)
        empty = CensusTable(0, [], {})
        assert export(empty) == self.reference_json(empty)

        class Sub(dict):
            pass

        # keys json.dumps turns into strings, and containers it takes as
        # their base types
        odd = table._replace(metadata={
            2: "a", None: 1, "": [], 1.5: False, True: "t",
            "pair": (3, ("x", ())), "sub": Sub(inner=Sub()), "filled": Sub(k=[1]),
        })
        assert export(odd) == self.reference_json(odd)
        # and a key it refuses, with its error
        tupled = table._replace(metadata={"a": 1, (1, 2): "x"})
        with pytest.raises(TypeError) as dumps_error:
            self.reference_json(tupled)
        with pytest.raises(TypeError, match=re.escape(str(dumps_error.value))):
            export(tupled)
        for n in (0, 8):
            fresh = run_census(n)
            assert export(fresh) == self.reference_json(fresh)

    @pytest.mark.parametrize("value", [{1, 2}, PatternSet.parse("1 2, -2 1")],
                             ids=["set", "PatternSet"])
    def test_export_refuses_what_json_dumps_refuses(self, table5, value):
        # metadata is written as json.dumps writes it, with no hook for other types
        table = table5._replace(metadata={"version": "0.1.0", "odd": [value]})
        with pytest.raises(TypeError) as dumps_error:
            json.dumps(table.metadata)
        with pytest.raises(TypeError, match=f"^{re.escape(str(dumps_error.value))}$"):
            export(table)

    def test_pickle_and_deepcopy(self, table5):
        for obj in (PatternSet(5), table5.records[5], table5):
            for twin in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
                assert twin == obj and twin is not obj
                assert type(twin) is type(obj)
        assert export(pickle.loads(pickle.dumps(table5))) == export(table5)

    def test_fields_are_read_only(self, table5):
        # a changed table is a copy, as for every other record
        metadata = table5.metadata
        blank = table5._replace(metadata={})
        assert blank.metadata == {} and blank.records is table5.records
        assert table5.metadata is metadata and table5.metadata != {}
        with pytest.raises(AttributeError):
            table5.n_max = 6
        assert table5.n_max == 5
        assert repr(CensusTable(0, [], {})) == "CensusTable(n_max=0, records=[], metadata={})"

    def test_export_deterministic(self, table5):
        assert export(table5) == export(run_census(5))
        assert export(table5, "csv") == export(run_census(5), "csv")

    def test_json_schema_essentials(self, table5):
        doc = json.loads(export(table5).decode())
        assert doc["n_max"] == 5
        assert len(doc["records"]) == 58
        rec = doc["records"][1]
        for key in (
            "orbit_id",
            "representative",
            "paper_names",
            "members",
            "sequence",
            "formula_ids",
            "verification",
            "wilf_class",
        ):
            assert key in rec
        assert rec["representative"] == [[1, 2]]
        assert all(isinstance(s, str) for s in rec["sequence"])
        assert rec["sequence"][5] == "1546"

    def test_csv_shape(self, table5):
        lines = export(table5, "csv").decode().splitlines()
        assert lines[0] == (
            "orbit_id,representative,size,b_0,b_1,b_2,b_3,b_4,b_5,"
            "formula_ids,verification,wilf_class"
        )
        assert len(lines) == 59
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "0"
        # representative with embedded commas stays one quoted field
        assert any(line.count('"') == 2 for line in lines[1:])

    def test_unknown_format(self, table5):
        with pytest.raises(ValueError):
            export(table5, "xml")

    def test_load_rejects_bad_files(self, tmp_path):
        p = tmp_path / "bad.json"

        p.write_text("{not json")
        with pytest.raises(ValueError, match="cache needs JSON"):
            load_cache(p)

        p.write_bytes(b'{"n_max": 0, "records": [], "metadata": {"note": "\xff"}}')
        with pytest.raises(ValueError, match="cache needs JSON.*utf-8"):
            load_cache(p)

        p.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError, match="cache needs JSON"):
            load_cache(p)

        p.write_text(json.dumps({"n_max": 2}))
        with pytest.raises(ValueError, match="not the census of order 2"):
            load_cache(p)

        p.write_text(json.dumps({"n_max": 2, "records": [{}]}))
        with pytest.raises(ValueError, match="not the census of order 2"):
            load_cache(p)

        # valid JSON in export's layout, but not a census: no record, and
        # records as export writes them but not in the form json.dump writes
        p.write_text(json.dumps({"n_max": 0, "records": [], "metadata": {}}, indent=2) + "\n")
        with pytest.raises(ValueError, match="not the census of order 0"):
            load_cache(p)
        doc = json.loads(export(run_census(1)))
        for layout in (json.dumps(doc), json.dumps(doc, indent=2), json.dumps(doc, indent=1)):
            p.write_text(layout)
            with pytest.raises(ValueError, match="not the census of order 1"):
                load_cache(p)

    def test_junk_cache_is_refused_uncounted(self, tmp_path, monkeypatch):
        # a file that does not begin as export does at its n_max is refused
        # before that census is counted, by the rule and by census --cache
        def no_census(n_max):
            raise AssertionError(f"counted the census of order {n_max}")

        monkeypatch.setattr(census, "run_census", no_census)
        assert_refused(b'{"n_max": 20}', tmp_path, [2], match=r"order 20: line 1 \(\)")
        assert_refused(b'{\n  "n_max": 1,\n  "records": []\n}\n', tmp_path, [0, 2],
                       match=r"order 1: line 3 \(records\)")

    def test_deeply_nested_cache_is_refused(self, tmp_path):
        # json.loads raises RecursionError here, which is a bad file, not a
        # verification failure
        data = b'{"n_max": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
        assert_refused(data, tmp_path, [2], match="cache needs JSON")

    def test_short_cache_is_refused_uncounted(self, tmp_path, monkeypatch):
        # a file that begins as export does but is shorter than any census of
        # the order it claims is refused before that census is counted
        orders = []

        def recording(n_max, masks):
            orders.append(n_max)
            return transfer_all_orders(n_max, masks)

        monkeypatch.setattr(census, "transfer_all_orders", recording)
        head = b'{\n  "n_max": 20,\n  "records": [\n'
        for data in (head + b"1]}", head + b" " * 50_000 + b"1]}"):
            assert_refused(data, tmp_path, [2], match=r"order 20: it has \d+ bytes")
        assert max(orders) == 2

    def test_load_rejects_wrong_sequence_length(self, table5, tmp_path):
        doc = json.loads(export(table5).decode())
        doc["records"][0]["sequence"].append("7")
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc, indent=2) + "\n")
        with pytest.raises(ValueError, match=r"\(sequence\) is .*7"):
            load_cache(p)

    def test_load_rejects_bad_verification(self, table5, tmp_path):
        doc = json.loads(export(table5).decode())
        doc["records"][0]["verification"] = "maybe"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc, indent=2) + "\n")
        with pytest.raises(ValueError, match=r"\(verification\) is .*maybe"):
            load_cache(p)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_max", True),
            ("paper_names", "T_2"),
            ("paper_names", [5]),
            ("formula_ids", "EQ2"),
            ("verification_details", [5]),
            ("verification_details", "n=1"),
            ("sequence", ["1", 2.9]),
            ("sequence", ["1", 2]),
            ("sequence", ["1", "-2"]),
            ("sequence", ["1", " 2"]),
            ("members", 5),
            ("members", None),
            ("representative", [[1.0, 2.0]]),
            ("members", [[[True, 2]]]),
            ("orbit_id", "0"),
            ("wilf_class", True),
            ("verification", 5),
            ("representative", {"1": 2}),
            ("members", [[[1, 3]]]),
            ("sequence", "12"),
        ],
    )
    def test_load_rejects_mistyped_fields(self, tmp_path, key, value):
        # each file differs from a valid order-1 census in one field, and is
        # written in export's layout, so it fails on that field, which the
        # message names; members of a line or two leave the file shorter than
        # any census of order 1, which is refused by its length
        doc = json.loads(export(run_census(1)).decode())
        if key == "n_max":
            doc[key] = value
        else:
            doc["records"][1][key] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc, indent=2) + "\n")
        with pytest.raises(ValueError,
                           match=r"order 1: it has \d+ bytes" if key == "members" else key):
            load_cache(p)

    @pytest.mark.skipif(
        not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
        reason="int() reads 5000 digits",
    )
    def test_load_rejects_overlong_count(self, tmp_path):
        # past int()'s limit on digits, a count is a malformed field too
        doc = json.loads(export(run_census(1)).decode())
        doc["records"][1]["sequence"][1] = "1" * 5000
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc, indent=2) + "\n")
        with pytest.raises(ValueError, match="sequence"):
            load_cache(p)

    @pytest.mark.parametrize("kind", NOT_REGULAR)
    def test_load_refuses_what_is_not_a_regular_file(self, tmp_path, kind):
        # in a new interpreter, so a regression cannot hang or exhaust this one
        path = not_a_regular_file(kind, tmp_path)
        code = (
            "import sys\n"
            "from signedperms import load_cache\n"
            "try:\n"
            "    load_cache(sys.argv[1])\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        done = run_bounded("-c", code, str(path))
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == f"{path} is not a regular file\n".encode()

    def test_load_reads_utf8_in_any_locale(self, tmp_path):
        # the rule compares bytes, so no locale decodes the file: under the C
        # locale, with UTF-8 mode and locale coercion off, a valid cache is
        # kept, and one with a UTF-8 note is refused at that note's line
        path = tmp_path / "cache.json"
        write_cache(run_census(1), path)
        env = dict(fresh_env(), LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        argv = [sys.executable, "-m", "signedperms.cli", "census", "--n-max", "1",
                "--cache", str(path)]
        done = subprocess.run(argv, env=env, capture_output=True)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == path.read_bytes() == export(run_census(1))
        doc = json.loads(export(run_census(1)).decode())
        doc["metadata"]["note"] = "orders 0\u20131"
        path.write_bytes((json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode())
        assert b"\xe2\x80\x93" in path.read_bytes()
        before = path.read_bytes()
        done = subprocess.run(argv, env=env, capture_output=True)
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr.startswith(b"error: cache is not the census of order 1")
        assert b"(note)" in done.stderr and b"Traceback" not in done.stderr
        assert path.read_bytes() == before

    @pytest.mark.parametrize("step", ["write", "replace"])
    def test_failed_write_keeps_the_old_cache(self, step, tmp_path, monkeypatch, capsys):
        # a write that fails partway, as under a file-size limit, leaves the
        # cache's old bytes and no temporary file beside it
        from signedperms import cli

        path = tmp_path / "c.json"
        write_cache(run_census(4), path)
        old = path.read_bytes()

        def fail(*args):
            raise OSError(errno.EFBIG, "File too large")

        def write_half(self, data):
            with open(self, "wb") as f:
                f.write(data[: len(data) // 2])
            fail()

        if step == "write":
            monkeypatch.setattr(Path, "write_bytes", write_half)
        else:
            monkeypatch.setattr(os, "replace", fail)
        assert cli.main(["census", "--n-max", "6", "--cache", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: [Errno 27] File too large\n")
        with pytest.raises(OSError, match="File too large"):
            write_cache(run_census(6), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_failed_rename_names_the_cache(self, tmp_path, monkeypatch):
        # os.replace names both files; the error names only the cache
        path = tmp_path / "c.json"

        def fail(src, dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, None, dst)

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError) as failed:
            write_cache(run_census(1), path)
        reason = os.strerror(errno.EXDEV)
        assert str(failed.value) == f"[Errno {errno.EXDEV}] {reason}: {str(path)!r}"
        assert list(tmp_path.iterdir()) == []

    def test_write_through_a_symlinked_cache(self, tmp_path):
        target = tmp_path / "real.json"
        write_cache(run_census(2), target)
        (tmp_path / "link.json").symlink_to(target)
        write_cache(run_census(3), tmp_path / "link.json")
        assert (tmp_path / "link.json").is_symlink()
        assert load_cache(target).n_max == 3

    def test_file_cache_extension(self, tmp_path, capsys):
        path = tmp_path / "cache.json"
        write_cache(run_census(3), path)
        assert load_cache(path) == run_census(3)
        assert cli.main(["census", "--n-max", "5", "--cache", str(path)]) == 0
        assert capsys.readouterr().out.encode() == path.read_bytes()
        assert load_cache(path).records == run_census(5).records
