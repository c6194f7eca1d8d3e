"""Census records, formula verification, Wilf classes, serialization."""

import copy
import json
import pickle
import re
import subprocess
import sys

import pytest

from signedperms import (
    CensusTable,
    PatternSet,
    SchemaError,
    all_orbits,
    export,
    load_cache,
    run_census,
    verify_registry,
    wilf_classes,
    write_cache,
)
from signedperms import census, formulas
from conftest import NAMED_TRIPLES, fresh_env


@pytest.fixture(scope="module")
def table5():
    return run_census(5)


def record_for(table, text):
    from signedperms import canonical_representative

    rep = canonical_representative(PatternSet.parse(text))
    return next(r for r in table.records if r.representative == rep)


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
        orb = next(o for o in all_orbits() if o.size > 1)
        member = max(orb.members, key=lambda s: s.mask)
        assert member != orb.representative
        engine = census.transfer_all_orders

        def skewed(n_max, masks):
            per_order = engine(n_max, masks)
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
        assert len(wilf_classes(table)) == 33

    def test_wilf_class_assignment(self, table5):
        classes = wilf_classes(table5)
        # ids are dense, ordered by first appearance
        flat = {}
        for cid, ids in enumerate(classes):
            for oid in ids:
                flat[oid] = cid
        for rec in table5.records:
            assert rec.wilf_class == flat[rec.orbit_id]

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

    def test_cache_reuse(self, table5):
        fresh = run_census(5, cache=run_census(3))
        assert fresh.records == table5.records
        # shrinking below the cache also works
        small = run_census(2, cache=table5)
        assert small.n_max == 2
        assert [r.sequence for r in small.records] == [
            r.sequence[:3] for r in table5.records
        ]

    def test_cache_with_wrong_orbits(self, table5):
        broken = run_census(2)
        broken = broken._replace(records=broken.records[:-1])
        with pytest.raises(SchemaError):
            run_census(3, cache=broken)

    def test_cache_with_tampered_count(self, table5):
        tampered = run_census(5)
        rec = tampered.records[5]
        seq = list(rec.sequence)
        seq[4] += 1
        tampered.records[5] = rec._replace(sequence=tuple(seq))
        with pytest.raises(SchemaError, match="orbit 5 .* at order 4"):
            run_census(6, cache=tampered)
        # only the orders the new table reuses are compared
        assert run_census(3, cache=tampered).records == run_census(3).records

    def test_cache_with_duplicate_record(self):
        # a tampered copy of record 5 put first used to be hidden by the
        # later, correct copy
        cache = run_census(5)
        rec = cache.records[5]
        seq = list(rec.sequence)
        seq[4] += 1
        cache.records.insert(0, rec._replace(sequence=tuple(seq)))
        assert len(cache.records) == 59
        with pytest.raises(SchemaError, match="one record per orbit, in orbit order"):
            run_census(6, cache=cache)

    def test_cache_with_wrong_orbit_id(self):
        cache = run_census(3)
        fresh = cache.records[:]
        cache.records[5] = cache.records[5]._replace(orbit_id=6)
        with pytest.raises(SchemaError, match="one record per orbit, in orbit order"):
            run_census(4, cache=cache)
        # right ids, wrong order
        cache = cache._replace(records=fresh[:5] + fresh[6:7] + fresh[5:6] + fresh[7:])
        with pytest.raises(SchemaError, match="one record per orbit, in orbit order"):
            run_census(4, cache=cache)

    def test_cache_with_wrong_members(self):
        cache = run_census(3)
        rec = cache.records[5]
        cache.records[5] = rec._replace(members=rec.members[:-1])
        with pytest.raises(SchemaError, match="one record per orbit, in orbit order"):
            run_census(4, cache=cache)
        cache.records[5] = rec._replace(members=rec.members[::-1])
        with pytest.raises(SchemaError, match="one record per orbit, in orbit order"):
            run_census(4, cache=cache)

    def test_cache_from_another_version(self):
        cache = run_census(3)
        cache.metadata["version"] = "0.0.0"
        with pytest.raises(SchemaError, match="from version 0.0.0"):
            run_census(4, cache=cache)
        # a cache that does not say its version is still accepted
        del cache.metadata["version"]
        assert run_census(4, cache=cache).records == run_census(4).records


class TestVerifyRegistry:
    def test_clean(self):
        report = verify_registry(4)
        assert report.ok()
        assert report.mismatch_count == 0
        assert len(report.checks) == 67
        for check in report.checks:
            assert check.status == "verified"
            assert check.mismatches == ()

    def test_clean_to_order_16(self):
        report = verify_registry(16)
        assert len(report.checks) == 67
        assert [c.entry.name for c in report.checks if c.mismatches] == []
        assert report.ok()

    def test_empty_ranges_are_unchecked(self):
        report = verify_registry(2)
        for check in report.checks:
            want = "verified" if check.entry.min_n <= 2 else "unchecked"
            assert check.status == want, check.entry.name
        u4_1 = next(c for c in report.checks if c.entry.name == "U4_1")
        assert (u4_1.status, u4_1.first_n, u4_1.last_n) == ("unchecked", 3, 2)
        assert report.ok()

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
        path = tmp_path / "census.json"
        path.write_bytes(data)
        assert load_cache(path).records == table.records

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
        for n in (0, 8):
            fresh = run_census(n)
            assert export(fresh) == self.reference_json(fresh)

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
        with pytest.raises(SchemaError):
            load_cache(p)

        p.write_bytes(b'{"n_max": 0, "records": [], "metadata": {"note": "\xff"}}')
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_cache(p)

        p.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(SchemaError):
            load_cache(p)

        p.write_text(json.dumps({"n_max": 2}))
        with pytest.raises(SchemaError):
            load_cache(p)

        p.write_text(json.dumps({"n_max": 2, "records": [{}]}))
        with pytest.raises(SchemaError):
            load_cache(p)

    def test_load_rejects_wrong_sequence_length(self, table5, tmp_path):
        doc = json.loads(export(table5).decode())
        doc["records"][0]["sequence"].append("7")
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_cache(p)

    def test_load_rejects_bad_verification(self, table5, tmp_path):
        doc = json.loads(export(table5).decode())
        doc["records"][0]["verification"] = "maybe"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
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
        ],
    )
    def test_load_rejects_mistyped_fields(self, tmp_path, key, value):
        # each file differs from a valid order-1 census in one field, and
        # a looser loader would read it as some other, wrong table
        doc = json.loads(export(run_census(1)).decode())
        if key == "n_max":
            doc[key] = value
        else:
            doc["records"][1][key] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=key):
            load_cache(p)

    def test_load_reads_utf8_in_any_locale(self, tmp_path):
        # JSON is UTF-8; under the C locale, with UTF-8 mode and locale
        # coercion off, a text read would decode the file as ASCII
        doc = json.loads(export(run_census(1)).decode())
        doc["metadata"]["note"] = "orders 0\u20131"
        path = tmp_path / "cache.json"
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode())
        assert b"\xe2\x80\x93" in path.read_bytes()
        env = dict(fresh_env(), LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        done = subprocess.run(
            [sys.executable, "-m", "signedperms.cli", "census", "--n-max", "1",
             "--cache", str(path)],
            env=env, capture_output=True,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == export(run_census(1))

    def test_file_cache_extension(self, tmp_path):
        path = tmp_path / "cache.json"
        write_cache(run_census(3), path)
        cached = load_cache(path)
        extended = run_census(5, cache=cached)
        assert extended.records == run_census(5).records
