"""Census records, formula verification, Wilf classes, serialization."""

import dataclasses
import json

import pytest

from signedperms import (
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
from signedperms import formulas
from conftest import NAMED_TRIPLES


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

    def test_all_verified(self, table5):
        assert {rec.verification for rec in table5.records} == {"verified"}
        for rec in table5.records:
            assert rec.paper_names
            assert rec.formula_ids
            assert rec.verification_details == ()

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
        broken.records = broken.records[:-1]
        with pytest.raises(SchemaError):
            run_census(3, cache=broken)

    def test_cache_with_tampered_count(self, table5):
        tampered = run_census(5)
        rec = tampered.records[5]
        seq = list(rec.sequence)
        seq[4] += 1
        tampered.records[5] = dataclasses.replace(rec, sequence=tuple(seq))
        with pytest.raises(SchemaError, match="orbit 5 .* at order 4"):
            run_census(6, cache=tampered)
        # only the orders the new table reuses are compared
        assert run_census(3, cache=tampered).records == run_census(3).records


class TestVerifyRegistry:
    def test_clean(self):
        report = verify_registry(4)
        assert report.ok()
        assert report.mismatch_count == 0
        assert len(report.checks) == 67
        for check in report.checks:
            assert check.status == "verified"
            assert check.mismatches == ()

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
        monkeypatch.setitem(formulas._EVALUATORS, "EQ11", lambda n: n * n + 2)
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

    def test_file_cache_extension(self, tmp_path):
        path = tmp_path / "cache.json"
        write_cache(run_census(3), path)
        cached = load_cache(path)
        extended = run_census(5, cache=cached)
        assert extended.records == run_census(5).records
