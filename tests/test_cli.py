"""Command line behavior: output, determinism, exit codes, imports."""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import signedperms
from signedperms import cli, formulas
from signedperms.cli import main
from conftest import fresh_env

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_plain(self, capsys):
        code, out, err = run(
            capsys, "count", "--patterns", "1 2, 2 1", "--n", "2"
        )
        assert (code, out) == (0, "6\n")

    def test_json(self, capsys):
        code, out, _ = run(
            capsys,
            "count", "--patterns", "1 -2, -1 2", "--n", "3",
            "--method", "naive", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "n": 3,
            "patterns": "-1 2, 1 -2",
            "method": "naive",
            "value": "22",
        }

    def test_methods_agree(self, capsys):
        outs = set()
        for method in ("transfer", "naive", "backtrack", "mask"):
            code, out, _ = run(
                capsys,
                "count", "--patterns", "1 2, -2 1", "--n", "4",
                "--method", method,
            )
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    def test_duplicate_patterns_warn_on_stderr(self, capsys):
        code, out, err = run(
            capsys, "count", "--patterns", "1 2, 1 2", "--n", "2"
        )
        assert code == 0
        assert out == "7\n"
        assert "duplicate pattern" in err

    def test_bad_patterns_exit_2(self, capsys):
        code, _, err = run(capsys, "count", "--patterns", "1 3", "--n", "2")
        assert code == 2
        assert "error:" in err

    def test_cap_exit_2(self, capsys):
        # the oracles' work budget is all 2^9 9! words of order 9: naive and
        # mask refuse order 10, and backtracking refuses {1 2} at order 10,
        # where it would visit about 260 million prefixes
        for method in ("naive", "mask", "backtrack"):
            code, out, err = run(
                capsys, "count", "--patterns", "1 2", "--n", "10", "--method", method
            )
            assert (code, out) == (2, "")
            assert "work budget" in err

    def test_backtrack_refusal_is_prompt(self, capsys):
        # {1 2} at order 60 is refused after transfer passes to a few orders
        start = time.perf_counter()
        code, out, err = run(
            capsys, "count", "--patterns", "1 2", "--n", "60", "--method", "backtrack"
        )
        assert (code, out) == (2, "")
        assert "work budget" in err
        assert time.perf_counter() - start < 1

    def test_transfer_needs_no_cap(self, capsys):
        code, out, _ = run(capsys, "count", "--patterns", "1 2", "--n", "12")
        assert (code, out) == (0, f"{formulas.eval_formula('EQ1', 12)}\n")

    def test_over_budget_exit_2(self, capsys):
        code, out, err = run(capsys, "count", "--patterns", "1 2", "--n", "100")
        assert (code, out) == (2, "")
        assert "budget" in err

    def test_takes_no_cap(self, capsys):
        # the oracles guard themselves by their work, so --cap is a usage error
        for command, order in (("count", "--n"), ("sequence", "--n-max")):
            code, out, err = run(
                capsys, command, "--patterns", "1 2", order, "3", "--cap", "9"
            )
            assert (code, out) == (2, "")
            assert "unrecognized arguments: --cap 9" in err

    def test_default_is_transfer_at_order_9(self, capsys):
        code, out, _ = run(
            capsys, "count", "--patterns", "1 2", "--n", "9", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["method"], doc["value"]) == ("transfer", "17572114")

    def test_usage_error_exit_2(self, capsys):
        assert run(capsys, "count", "--n", "2")[0] == 2
        assert run(capsys, "count", "--patterns", "1 2", "--n", "2",
                   "--method", "magic")[0] == 2
        assert run(capsys, "nonsense")[0] == 2

    def test_timing_only_on_stderr(self, capsys):
        code, out, err = run(
            capsys, "count", "--patterns", "1 2", "--n", "3", "--timing"
        )
        assert code == 0
        assert out == "34\n"
        assert "timing_seconds:" in err


class TestSequence:
    def test_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "sequence", "--patterns", "1 2", "--n-max", "4", "--format", "csv",
        )
        assert (code, out) == (0, "1,2,7,34,209\n")

    def test_plain(self, capsys):
        code, out, _ = run(
            capsys, "sequence", "--patterns", "1 2, 1 -2, -2 -1", "--n-max", "3"
        )
        assert code == 0
        assert out == "0 1\n1 2\n2 5\n3 13\n"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys,
            "sequence", "--patterns", "1 2, -1 -2", "--n-max", "5",
            "--format", "json", "--method", "mask",
        )
        doc = json.loads(out)
        assert doc["values"] == ["1", "2", "6", "20", "70", "252"]
        assert doc["method"] == "mask"

    def test_default_makes_one_engine_call(self, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return engine(*args, **kwargs)

        engine = cli.transfer_all_orders
        monkeypatch.setattr(cli, "transfer_all_orders", counted)
        code, out, _ = run(
            capsys, "sequence", "--patterns", "1 2", "--n-max", "6",
            "--format", "csv",
        )
        assert (code, out) == (0, "1,2,7,34,209,1546,13327\n")
        assert len(calls) == 1

    @pytest.mark.parametrize("method", ["transfer", "naive", "backtrack", "mask"])
    def test_bad_order_range_exit_2(self, capsys, method):
        for n_max in ("-1", "100"):
            code, out, err = run(
                capsys, "sequence", "--patterns", "1 2", "--n-max", n_max,
                "--method", method,
            )
            assert (code, out) == (2, "")
            assert "error:" in err

    def test_catalan_sequence(self, capsys):
        code, out, _ = run(
            capsys,
            "sequence", "--patterns", "1 2, 1 -2, -1 -2", "--n-max", "5",
            "--format", "csv",
        )
        assert (code, out) == (0, "1,2,5,14,42,132\n")

    def test_backtrack_past_order_9(self, capsys):
        # this set's avoiders number 1 + n(n+1)/2, so backtracking to order 10
        # visits few prefixes and the work budget admits it with no flag
        code, out, _ = run(
            capsys, "sequence", "--patterns", "1 2, 1 -2, -1 -2, 2 1", "--n-max", "10",
            "--method", "backtrack", "--format", "csv",
        )
        assert (code, out) == (0, "1,2,4,7,11,16,22,29,37,46,56\n")

    def test_oracle_refuses_before_counting(self, capsys, monkeypatch):
        # order n_max is counted first, so a refused range counts no order
        orders = []

        def recorded(n, *args, **kwargs):
            orders.append(n)
            return oracle(n, *args, **kwargs)

        oracle = cli.count
        monkeypatch.setattr(cli, "count", recorded)
        code, out, err = run(
            capsys, "sequence", "--patterns", "1 2", "--n-max", "10",
            "--method", "naive",
        )
        assert (code, out, orders) == (2, "", [10])
        assert "work budget" in err


class TestOrbits:
    def test_plain_all(self, capsys):
        code, out, _ = run(capsys, "orbits")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 58
        assert lines[0].startswith("0\t0\t1\t")

    def test_size_filter(self, capsys):
        code, out, _ = run(capsys, "orbits", "--size", "4")
        assert code == 0
        assert len(out.splitlines()) == 16

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "orbits", "--size", "1", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "orbit_id,size,orbit_size,representative"
        assert len(lines) == 3

    def test_json(self, capsys):
        code, out, _ = run(capsys, "orbits", "--format", "json")
        doc = json.loads(out)
        assert len(doc) == 58
        assert sum(row["orbit_size"] for row in doc) == 256

    def test_takes_no_engine_flags(self, capsys):
        assert run(capsys, "orbits", "--cap", "5")[0] == 2
        assert run(capsys, "orbits", "--method", "naive")[0] == 2

    @pytest.mark.parametrize("size", ["-1", "9"])
    def test_size_out_of_range_exit_2(self, capsys, size):
        # a set has 0..8 patterns, so any other size is a usage error
        code, out, err = run(capsys, "orbits", "--size", size)
        assert (code, out) == (2, "")
        assert "invalid choice" in err


class TestCensus:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "census", "--n-max", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["n_max"] == 3
        assert len(doc["records"]) == 58

    def test_deterministic(self, capsys):
        one = run(capsys, "census", "--n-max", "3")
        two = run(capsys, "census", "--n-max", "3")
        assert one == two

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "census", "--n-max", "2", "--format", "csv")
        lines = out.splitlines()
        assert lines[0].startswith("orbit_id,representative,size,b_0,b_1,b_2,")
        assert len(lines) == 59

    def test_takes_no_out(self, capsys, tmp_path):
        # census writes its output only to stdout, so --out is a usage error
        target = tmp_path / "census.json"
        code, out, err = run(
            capsys, "census", "--n-max", "2", "--out", str(target)
        )
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --out" in err
        assert not target.exists()

    def test_cache_create_then_extend(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        code, _, _ = run(
            capsys, "census", "--n-max", "2", "--cache", str(cache)
        )
        assert code == 0
        assert json.loads(cache.read_text())["n_max"] == 2

        code, out, _ = run(
            capsys, "census", "--n-max", "4", "--cache", str(cache)
        )
        assert code == 0
        assert json.loads(cache.read_text())["n_max"] == 4
        assert json.loads(out)["n_max"] == 4

    def test_cache_never_shrinks(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        code, out, _ = run(
            capsys, "census", "--n-max", "7", "--cache", str(cache)
        )
        assert code == 0
        before = cache.read_bytes()
        assert out.encode() == before

        code, out, _ = run(
            capsys, "census", "--n-max", "4", "--cache", str(cache)
        )
        assert code == 0
        assert json.loads(out)["n_max"] == 4
        assert json.loads(cache.read_text())["n_max"] == 7
        assert cache.read_bytes() == before

        # a shorter run leaves the cache's bytes alone in either format
        for fmt in ("json", "csv"):
            code, out, _ = run(
                capsys, "census", "--n-max", "4", "--format", fmt,
                "--cache", str(cache),
            )
            assert code == 0
            assert out.startswith("{" if fmt == "json" else "orbit_id,")
            assert cache.read_bytes() == before

        # a run at the cache's own order prints the cache and keeps it
        code, out, _ = run(capsys, "census", "--n-max", "7", "--cache", str(cache))
        assert (code, out.encode(), cache.read_bytes()) == (0, before, before)

    def test_seeded_mutation_exit_1(self, capsys, monkeypatch):
        claim = formulas._EVALUATORS["EQ12"][0]
        monkeypatch.setitem(formulas._EVALUATORS, "EQ12", (claim, lambda n: 2**n - n))
        code, out, _ = run(capsys, "census", "--n-max", "3")
        assert code == 1
        doc = json.loads(out)
        assert "mismatch" in {rec["verification"] for rec in doc["records"]}

    def test_tampered_cache_exit_2(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        assert run(capsys, "census", "--n-max", "6", "--cache", str(cache))[0] == 0
        doc = json.loads(cache.read_text())
        record = doc["records"][5]
        assert record["paper_names"] == ["{1 2, -2 1}"]
        record["sequence"][4] = str(int(record["sequence"][4]) + 1)
        cache.write_text(json.dumps(doc, indent=2) + "\n")
        before = cache.read_bytes()

        code, out, err = run(
            capsys, "census", "--n-max", "7", "--cache", str(cache)
        )
        assert code == 2
        assert out == ""
        assert "(sequence)" in err and str(int(record["sequence"][4]) - 1) in err
        assert cache.read_bytes() == before

    def test_duplicate_record_cache_exit_2(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        assert run(capsys, "census", "--n-max", "6", "--cache", str(cache))[0] == 0
        doc = json.loads(cache.read_text())
        record = json.loads(json.dumps(doc["records"][5]))
        record["sequence"][4] = str(int(record["sequence"][4]) + 1)
        doc["records"].insert(0, record)
        cache.write_text(json.dumps(doc, indent=2) + "\n")
        before = cache.read_bytes()

        code, out, err = run(
            capsys, "census", "--n-max", "7", "--cache", str(cache)
        )
        assert code == 2
        assert out == ""
        assert "(orbit_id)" in err
        assert cache.read_bytes() == before

    @staticmethod
    def edited_cache(capsys, path, edit, indent=2):
        # an order-8 cache, edited and written back in export's layout
        assert run(capsys, "census", "--n-max", "8", "--cache", str(path))[0] == 0
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc, indent=indent) + ("\n" if indent == 2 else ""))
        return path.read_bytes()

    def test_shallower_census_checks_the_cached_orders_above_it(self, capsys, tmp_path):
        # the census at the file's order 8 is counted afresh, so an edited
        # order-8 count is refused by an order-6 run, which names it
        def edit(doc):
            doc["records"][5]["sequence"][8] = "1"

        cache = tmp_path / "cache.json"
        before = self.edited_cache(capsys, cache, edit)
        code, out, err = run(capsys, "census", "--n-max", "6", "--cache", str(cache))
        assert (code, out) == (2, "")
        assert """(sequence) is '        "1"', not""" in err
        assert cache.read_bytes() == before

    def test_cache_of_a_wrong_count_and_its_mismatch_exit_2(self, capsys, tmp_path, monkeypatch):
        # a file that is the census of its own counts, one of them wrong and
        # recorded as a mismatch, is still not the census of order 8
        orbit = signedperms.all_orbits()[20]
        assert orbit.representative == signedperms.PatternSet.parse("1 2, -1 -2, 2 -1")
        engine = signedperms.census.transfer_all_orders

        def raised(n_max, masks):
            per_order = engine(n_max, masks)
            for member in orbit.members:
                per_order[8][member.mask] += 1
            return per_order

        cache = tmp_path / "cache.json"
        with monkeypatch.context() as patch:
            patch.setattr(signedperms.census, "transfer_all_orders", raised)
            signedperms.write_cache(signedperms.run_census(8), cache)
        before = cache.read_bytes()
        assert b'"T_8/EQ12 at n=8: formula 503, enumerated 504"' in before
        with pytest.raises(signedperms.SchemaError, match=r"\(sequence\)"):
            signedperms.load_cache(cache)
        code, out, err = run(capsys, "census", "--n-max", "6", "--cache", str(cache))
        assert (code, out) == (2, "")
        assert "(sequence)" in err
        assert cache.read_bytes() == before

    def test_cache_with_a_wrong_wilf_class_exit_2(self, capsys, tmp_path):
        # a derived field is checked too, and the cache is not overwritten
        def edit(doc):
            doc["records"][7]["wilf_class"] = 999

        cache = tmp_path / "cache.json"
        before = self.edited_cache(capsys, cache, edit)
        code, out, err = run(capsys, "census", "--n-max", "8", "--cache", str(cache))
        assert (code, out) == (2, "")
        assert "(wilf_class) is '      \"wilf_class\": 999'" in err
        assert cache.read_bytes() == before

    def test_reindented_cache_exit_2(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        before = self.edited_cache(capsys, cache, lambda doc: None, indent=1)
        code, out, err = run(capsys, "census", "--n-max", "8", "--cache", str(cache))
        assert (code, out) == (2, "")
        assert "line 2 (n_max)" in err
        assert cache.read_bytes() == before

    def test_deep_cache_is_refused_at_once(self, capsys, tmp_path):
        # a file claiming order 1000, with a count for every order, is refused
        # by the transfer engine's memory estimate before any formula runs
        cache = tmp_path / "cache.json"

        def deepen(doc):
            doc["n_max"] = 1000
            for record in doc["records"]:
                record["sequence"] += ["0"] * (1001 - len(record["sequence"]))

        before = self.edited_cache(capsys, cache, deepen)
        start = time.perf_counter()
        with pytest.raises(signedperms.SchemaError, match="order 1000 on 256 set"):
            signedperms.load_cache(cache)
        assert time.perf_counter() - start < 1
        code, out, err = run(capsys, "census", "--n-max", "8", "--cache", str(cache))
        assert (code, out) == (2, "")
        assert "n_max: order 1000 on 256 set(s) needs an estimated" in err
        assert cache.read_bytes() == before

    def test_empty_cache_path_exit_2(self, capsys, tmp_path, monkeypatch):
        # an empty path names no file: an error, not a run without a cache
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "census", "--n-max", "2", "--cache", "")
        assert (code, out) == (2, "")
        assert err == "error: --cache needs a file name\n"
        assert list(tmp_path.iterdir()) == []

    def test_cache_in_a_missing_directory_exit_2(self, capsys, tmp_path):
        # the error names the cache as given, not the temporary file beside it
        cache = tmp_path / "missing" / "cache.json"
        code, out, err = run(capsys, "census", "--n-max", "2", "--cache", str(cache))
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 2] ")
        assert err.endswith(f": {str(cache)!r}\n") and ".tmp" not in err
        assert list(tmp_path.iterdir()) == []

    def test_order_12_output_is_json_dumps(self, capsys):
        code, out, _ = run(capsys, "census", "--n-max", "12")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_cache_holds_the_json_output(self, capsys, tmp_path):
        json_cache = tmp_path / "a.json"
        code, out, _ = run(
            capsys, "census", "--n-max", "4", "--cache", str(json_cache)
        )
        assert code == 0
        assert json_cache.read_bytes() == out.encode()
        csv_cache = tmp_path / "b.json"
        code, out, _ = run(
            capsys, "census", "--n-max", "4", "--format", "csv",
            "--cache", str(csv_cache),
        )
        assert code == 0
        assert out.startswith("orbit_id,")
        assert csv_cache.read_bytes() == json_cache.read_bytes()

    def test_timing_only_on_stderr(self, capsys):
        plain = run(capsys, "census", "--n-max", "4")
        timed = run(capsys, "census", "--n-max", "4", "--timing")
        assert plain[0] == timed[0] == 0
        assert timed[1] == plain[1]
        assert "timing_seconds" not in timed[1]
        assert "timing_seconds:" in timed[2]

    def test_takes_no_cap(self, capsys):
        # census runs no oracle, so --cap is a usage error
        code, out, err = run(capsys, "census", "--n-max", "2", "--cap", "2")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --cap 2" in err

    def test_corrupt_cache_exit_2(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text("{broken")
        code, _, err = run(
            capsys, "census", "--n-max", "2", "--cache", str(cache)
        )
        assert code == 2
        assert "error:" in err


class TestVerify:
    def test_takes_no_cap(self, capsys):
        # verify runs no oracle, so --cap is a usage error
        code, out, err = run(capsys, "verify", "--n-max", "2", "--cap", "2")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --cap 2" in err

    def test_clean_exit_0(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "3")
        assert code == 0
        lines = out.splitlines()
        assert sum(1 for l in lines if l.startswith("PASS")) == 67
        assert not any(l.startswith("FAIL") for l in lines)
        assert sum(1 for l in lines if l.startswith("SUPERSEDED")) == 2
        assert lines[-1] == "checks: 67, mismatches: 0"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n-max", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mismatch_count"] == 0
        assert len(doc["checks"]) == 67
        assert {s["claimed"] for s in doc["superseded"]} == {"4", "24"}

    def test_empty_ranges_skip(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "2")
        assert code == 0
        lines = out.splitlines()
        assert "SKIP U4_1 [TH4_4] n=3..2" in lines
        assert not any(l.startswith("FAIL") for l in lines)
        code, out, _ = run(capsys, "verify", "--n-max", "2", "--format", "json")
        doc = json.loads(out)["checks"]
        checks = {c["name"]: c for c in doc}
        assert (code, checks["U4_1"]["status"]) == (0, "unchecked")
        # an empty range still reports its entry's first order and the run's last
        assert [(c["name"], c["first_n"], c["last_n"]) for c in doc] == [
            (entry.name, entry.min_n, 2) for entry in formulas.registry()
        ]

    def test_seeded_mutation_exit_1(self, capsys, monkeypatch):
        claim = formulas._EVALUATORS["EQ12"][0]
        monkeypatch.setitem(formulas._EVALUATORS, "EQ12", (claim, lambda n: 2**n - n))
        code, out, _ = run(capsys, "verify", "--n-max", "3")
        assert code == 1
        assert any(l.startswith("FAIL T_8") for l in out.splitlines())


class TestGolden:
    # the files are the reference output: a byte that differs is a
    # regression to fix, not a cue to regenerate them
    @pytest.mark.parametrize(
        "name, argv",
        [
            ("census_n6.json", ("census", "--n-max", "6")),
            ("census_n6.csv", ("census", "--n-max", "6", "--format", "csv")),
            ("verify_n6.txt", ("verify", "--n-max", "6")),
            ("verify_n6.json", ("verify", "--n-max", "6", "--format", "json")),
            ("count_n5.txt", ("count", "--patterns", "1 2, -2 1", "--n", "5")),
            ("count_n5.json",
             ("count", "--patterns", "1 2, -2 1", "--n", "5", "--format", "json")),
            ("count_mask_n5.json",
             ("count", "--patterns", "1 2, -2 1", "--n", "5",
              "--method", "mask", "--format", "json")),
            ("sequence_n6.txt",
             ("sequence", "--patterns", "1 2, 1 -2, -1 -2", "--n-max", "6")),
            ("sequence_n6.json",
             ("sequence", "--patterns", "1 2, 1 -2, -1 -2", "--n-max", "6",
              "--format", "json")),
            ("sequence_n6.csv",
             ("sequence", "--patterns", "1 2, 1 -2, -1 -2", "--n-max", "6",
              "--format", "csv")),
            ("orbits.txt", ("orbits",)),
            ("orbits.json", ("orbits", "--format", "json")),
            ("orbits.csv", ("orbits", "--format", "csv")),
        ],
    )
    def test_bytes(self, capsys, name, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.encode() == (GOLDEN / name).read_bytes()


def run_fresh(code: str) -> str:
    # a new interpreter, so modules imported by other tests do not count
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=fresh_env(), capture_output=True, text=True, check=True,
    )
    return done.stdout


class TestHelp:
    def test_every_option_has_help(self):
        parser = cli.build_parser()
        commands = next(a.choices for a in parser._actions if isinstance(a.choices, dict))
        assert set(commands) == {"count", "sequence", "orbits", "census", "verify"}
        for name, sub in commands.items():
            for action in sub._actions:
                assert action.help, f"{name} {action.option_strings}"
                if "--method" in action.option_strings:
                    assert "transfer (default) is the counting core" in action.help
                    assert "naive, backtrack and mask are oracles" in action.help


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ("census", "--n-max", "6"),
        ("verify", "--n-max", "6"),
        ("count", "--patterns", "1 2", "--n", "3"),
    ])
    def test_exit_141_and_quiet(self, argv):
        # the read end is closed before the command starts, so every write
        # to stdout fails with EPIPE
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "signedperms.cli", *argv],
                env=fresh_env(), stdout=write, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (141, b"")


class TestImports:
    API = {
        "__version__", "all_orbits", "apply", "apply_to_set", "avoids", "BACKTRACK",
        "barring", "CapExceededError", "catalan", "CensusRecord", "CensusTable",
        "complement", "containment_mask", "count", "count_backtrack", "count_mask",
        "count_naive", "CountResult", "counts_all_subsets", "DuplicateMagnitudeError",
        "EntryCheck", "EqualMagnitudesError", "eval_formula", "export", "fibonacci",
        "FORMULA_IDS", "group_elements", "iterate_Bn",
        "load_cache", "MagnitudeOutOfRangeError", "MASK", "mask_histogram", "METHODS",
        "NAIVE", "Orbit", "orbit_of_set", "pair_index", "Pattern", "pattern_of",
        "PATTERNS", "PatternSet", "registry", "RegistryEntry", "reversal", "run_census",
        "SchemaError", "SignedPermutation", "SupersededClaim", "SymmetryElement",
        "TRANSFER", "transfer_all_orders", "UnknownFormulaError", "validate_permutation",
        "VerificationReport", "verify_registry", "write_cache", "ZeroLetterError",
    }

    def test_public_api_is_pinned(self):
        assert set(signedperms.__all__) == self.API
        for name in signedperms.__all__:
            getattr(signedperms, name)

    def test_each_name_is_exported_by_one_module(self):
        modules = ("core", "symmetry", "enumeration", "formulas", "census")
        names = [n for m in modules for n in getattr(signedperms, m).__all__]
        assert len(names) == len(set(names)) == len(self.API) - 1  # __version__

    def test_each_import_is_used(self):
        # a name a module imports is used in it or listed in its __all__
        for path in sorted(Path(signedperms.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            stem = path.stem
            module = signedperms if stem == "__init__" else getattr(signedperms, stem)
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused = [
                f"{path.name}:{node.lineno} {name}"
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names if alias.name != "*"
                for name in [alias.asname or alias.name.partition(".")[0]]
                if name not in used and name not in getattr(module, "__all__", ())
            ]
            assert unused == []

    def test_cli_loads_no_numpy(self):
        out = run_fresh(
            "import contextlib, io, sys\n"
            "import signedperms.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['census', '--n-max', '5'])\n"
            "print(code, 'numpy' in sys.modules,"
            " 'concurrent.futures.process' in sys.modules,"
            " 'dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
        )
        assert out == "0 False False False False\n"

    def test_json_census_loads_no_csv(self):
        out = run_fresh(
            "import contextlib, io, sys\n"
            "import signedperms.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['census', '--n-max', '3'])\n"
            "print(code, 'csv' in sys.modules, 'numpy' in sys.modules)\n"
        )
        assert out == "0 False False\n"

    def test_mask_method_imports_numpy_lazily(self):
        out = run_fresh(
            "import sys\n"
            "import signedperms.cli as cli\n"
            "code = cli.main(['count', '--method', 'mask',"
            " '--patterns', '1 2', '--n', '6'])\n"
            "print(code, 'numpy' in sys.modules)\n"
            # 8! magnitude words span three blocks at n=8, where a process
            # pool used to split them; the oracle starts none
            "code = cli.main(['count', '--method', 'mask',"
            " '--patterns', '1 2', '--n', '8'])\n"
            "print(code, 'concurrent.futures.process' not in sys.modules)\n"
        )
        assert out == "13327\n0 True\n1441729\n0 True\n"
