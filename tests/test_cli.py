"""Command line behavior: output, determinism, exit codes, imports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import signedperms
from signedperms import cli, formulas, transfer_all_orders
from signedperms.cli import main

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
        code, _, err = run(capsys, "count", "--patterns", "1 2", "--n", "12")
        assert code == 2
        assert "cap" in err

    def test_raised_cap_allows_more(self, capsys):
        # order 10 passes the cap once it is raised to 10
        code, out, _ = run(
            capsys,
            "count", "--patterns",
            "1 2, 2 1, -1 2, 1 -2, -1 -2, 2 -1, -2 1, -2 -1",
            "--n", "10", "--cap", "10",
        )
        assert (code, out) == (0, "0\n")

    def test_default_is_transfer_at_the_cap(self, capsys):
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
            return transfer_all_orders(*args, **kwargs)

        monkeypatch.setattr(cli, "transfer_all_orders", counted)
        code, out, _ = run(
            capsys, "sequence", "--patterns", "1 2", "--n-max", "6",
            "--format", "csv",
        )
        assert (code, out) == (0, "1,2,7,34,209,1546,13327\n")
        assert len(calls) == 1

    @pytest.mark.parametrize("method", ["transfer", "naive", "backtrack", "mask"])
    def test_bad_order_range_exit_2(self, capsys, method):
        for n_max in ("-1", "12"):
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

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "census.json"
        code, out, _ = run(
            capsys, "census", "--n-max", "2", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["n_max"] == 2

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
        code, _, _ = run(
            capsys, "census", "--n-max", "7", "--cache", str(cache)
        )
        assert code == 0
        before = cache.read_bytes()

        code, out, _ = run(
            capsys, "census", "--n-max", "4", "--cache", str(cache)
        )
        assert code == 0
        assert json.loads(out)["n_max"] == 4
        assert json.loads(cache.read_text())["n_max"] == 7
        assert cache.read_bytes() == before

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
        assert "orbit 5" in err and "order 4" in err
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
        assert "one record per orbit" in err
        assert cache.read_bytes() == before

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

    def test_corrupt_cache_exit_2(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text("{broken")
        code, _, err = run(
            capsys, "census", "--n-max", "2", "--cache", str(cache)
        )
        assert code == 2
        assert "error:" in err


class TestVerify:
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
    src = str(Path(signedperms.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout


class TestImports:
    API = {
        "__version__", "all_orbits", "apply", "apply_to_pattern", "apply_to_set",
        "avoids", "BACKTRACK", "barring", "binomial", "canonical_representative",
        "CapExceededError", "catalan", "CensusRecord", "CensusTable", "check_cap",
        "complement", "compositions_sum", "containment_mask", "contains", "count",
        "count_backtrack", "count_mask", "count_naive", "CountResult",
        "counts_all_subsets", "DEFAULT_CAP", "DuplicateMagnitudeError", "EMPTY_SET",
        "entries_for", "EntryCheck", "EqualMagnitudesError", "eval_formula", "export",
        "factorial", "fibonacci", "FORMULA_IDS", "FULL_SET", "group_elements",
        "IDENTITY", "iterate_Bn", "load_cache", "MagnitudeOutOfRangeError", "MASK",
        "mask_histogram", "METHODS", "NAIVE", "Orbit",
        "orbit_census_by_size", "orbit_of_set", "pair_index", "pair_pattern", "Pattern",
        "pattern_of", "PATTERNS", "PatternSet", "registry", "RegistryEntry", "reversal",
        "run_census", "SchemaError", "SignedPermutation", "SupersededClaim",
        "SymmetryElement", "TRANSFER", "transfer_all_orders", "UnknownFormulaError",
        "validate_permutation", "VerificationReport", "verify_registry", "wilf_classes",
        "write_cache", "ZeroLetterError",
    }

    def test_public_api_is_pinned(self):
        assert set(signedperms.__all__) == self.API
        for name in signedperms.__all__:
            getattr(signedperms, name)

    def test_each_name_is_exported_by_one_module(self):
        modules = ("core", "symmetry", "enumeration", "formulas", "census")
        names = [n for m in modules for n in getattr(signedperms, m).__all__]
        assert len(names) == len(set(names)) == len(self.API) - 1  # __version__

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
