"""Tests for the command-line interface (in-process, plus one console-script check)."""

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from charfield2 import bitpoly, cli, extbasis, field as gf, normal, tables
from charfield2.cli import main
from charfield2.linalg import mat_rank

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# --- cross-sums -----------------------------------------------------------

def test_cross_sums_default_covers_all_fixtures(capsys):
    code, out, _ = run_cli(capsys, "cross-sums")
    header, rows = parse_csv(out)
    assert code == 0
    assert header == ["n", "modulus", "normal_element", "cross_sum",
                      "expected", "match"]
    assert len(rows) == 14
    assert all(r[5] == "yes" for r in rows)
    assert [int(r[0]) for r in rows] == [1] + list(range(2, 27, 2))


def test_cross_sums_selected_degrees(capsys):
    code, out, _ = run_cli(capsys, "cross-sums", "--n", "1", "2", "8")
    _, rows = parse_csv(out)
    assert code == 0
    assert [(int(r[0]), int(r[3])) for r in rows] == [(1, 1), (2, 5), (8, 233)]


def test_cross_sums_missing_fixture_exit_code(capsys):
    code, out, err = run_cli(capsys, "cross-sums", "--n", "5")
    assert code == 3
    assert "error" in err


def test_cross_sums_explicit_basis(capsys):
    code, out, _ = run_cli(capsys, "cross-sums", "--n", "4",
                           "--modulus", "auto", "--alpha", "x^3")
    _, rows = parse_csv(out)
    assert code == 0
    assert rows[0][1] == "1+x+x^4"
    assert int(rows[0][3]) == 25
    assert rows[0][4] == "" and rows[0][5] == ""  # no frozen expectation


def test_cross_sums_modulus_needs_alpha(capsys):
    code, _, err = run_cli(capsys, "cross-sums", "--n", "4", "--modulus", "auto")
    assert code == 2
    assert "together" in err


def test_cross_sums_json_format(capsys):
    code, out, _ = run_cli(capsys, "cross-sums", "--n", "2", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data[0]["cross_sum"] == 5
    assert data[0]["match"] == "yes"


# --- densities --------------------------------------------------------------

def test_densities_full_table(capsys):
    code, out, _ = run_cli(capsys, "densities")
    header, rows = parse_csv(out)
    assert code == 0
    assert header == ["m", "d_n", "d_n_expected", "d_a", "d_a_expected",
                      "d_k", "d_k_expected"]
    assert len(rows) == 13
    by_m = {int(r[0]): r for r in rows}
    # d_n can be recomputed only where m itself has a fixture (m <= 24)
    assert by_m[6][1:] == ["66", "66", "", "77", "51", "51"]
    assert by_m[12][1:] == ["276", "276", "365", "365", "-", "-"]
    assert by_m[24][1:] == ["2520", "2520", "1369", "1369", "1707", "1707"]
    assert by_m[48][1:] == ["", "20400", "14041", "14041", "13923", "13923"]
    assert by_m[66][1:] == ["", "8646", "", "12677", "-", "-"]
    assert by_m[72][1:] == ["", "25704", "", "", "-", "-"]
    assert by_m[78][1:] == ["", "18018", "", "", "15459", "15459"]


def test_densities_selected_degrees(capsys):
    code, out, _ = run_cli(capsys, "densities", "--m", "24")
    _, rows = parse_csv(out)
    assert code == 0
    assert rows == [["24", "2520", "2520", "1369", "1369", "1707", "1707"]]


# --- tables ----------------------------------------------------------------

def test_tables_base_normal_basis(capsys):
    code, out, _ = run_cli(capsys, "tables", "--n", "2")
    header, rows = parse_csv(out)
    assert code == 0
    assert header == ["i", "row", "popcount"]
    assert len(rows) == 2
    assert sum(int(r[2]) for r in rows) == 3  # the n=2 table weight


def test_tables_extended_counts_match(capsys):
    code, out, _ = run_cli(capsys, "tables", "--n", "2", "--kind", "as2")
    header, rows = parse_csv(out)
    assert code == 0
    assert header == ["table_index", "nonzeros", "closed_form", "match"]
    assert len(rows) == 4
    assert all(r[3] == "yes" for r in rows)
    assert sum(int(r[1]) for r in rows) == 4 * 6 + 5  # 4 d(N) + CS


def test_tables_sextic_has_no_closed_form_column(capsys):
    code, out, _ = run_cli(capsys, "tables", "--n", "2", "--kind", "ka6")
    _, rows = parse_csv(out)
    assert code == 0
    assert len(rows) == 12
    assert all(r[2] == "" and r[3] == "" for r in rows)


def test_tables_kummer_on_cube_generator_fails_cleanly(capsys):
    code, _, err = run_cli(capsys, "tables", "--n", "4", "--kind", "k3")
    assert code == 2
    assert "cube" in err


def test_tables_json_payload(capsys):
    code, out, _ = run_cli(capsys, "tables", "--n", "2", "--kind", "k3",
                           "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["kind"] == "k3" and data["m"] == 6
    assert data["per_table_nonzeros"] == data["closed_form"]
    assert data["density"] == 6 * 6 + 3 * 5  # 6 d(N) + 3 CS at n = 2


# --- verify -------------------------------------------------------------

def test_verify_small_run_all_green(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--limit", "10")
    report = json.loads(out)
    assert code == 0
    assert report["failures"] == 0
    assert report["max_n"] == 3 and report["pairs"] == 10
    names = {c["name"] for c in report["checks"]}
    assert {"oracle_equivalence", "mul_op_counts", "square_op_counts",
            "closed_form_counts", "tower_biquadratic",
            "tower_kummer_over_quadratic"} <= names
    assert all(c["ok"] for c in report["checks"])


def test_verify_corruption_control_trips(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--limit", "5",
                           "--kind", "as2", "--corrupt-table")
    report = json.loads(out)
    assert code == 1
    bad = [c for c in report["checks"] if c["name"] == "corruption_control"]
    assert bad and all(not c["ok"] for c in bad)
    assert "(0, 0, 0)" in bad[0]["detail"]


def test_verify_skips_the_oracle_over_the_degree_cap(capsys, monkeypatch):
    """ka6 at n = 3 needs an oracle field of degree 18: over a cap of 12 the
    run reports it as skipped and goes on, rather than stopping with exit 2."""
    argv = ("verify", "--n", "3", "--kind", "ka6", "--limit", "5")
    _, uncapped, _ = run_cli(capsys, *argv)
    monkeypatch.setenv("CHARFIELD2_MAX_N", "12")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    checks = json.loads(out)["checks"]
    before = [c for c in json.loads(uncapped)["checks"] if c["kind"] == "ka6"]
    assert [c for c in checks if c["kind"] == "ka6" and c["n"] < 3] == [
        c for c in before if c["n"] < 3]
    at3 = [(c["name"], c["ok"]) for c in checks
           if c["kind"] == "ka6" and c["n"] == 3]
    assert at3 == [("oracle_skipped", True), ("mul_op_counts", True),
                   ("square_op_counts", True)]
    skipped = next(c for c in checks if c["name"] == "oracle_skipped")
    assert skipped["detail"].startswith("degree 18 exceeds cap 12")


def test_verify_tower_rows_skip_the_oracle_over_the_degree_cap(capsys, monkeypatch):
    """The tower rows build a k3 embedding of degree 3n: over a cap of 12,
    n = 6 gets an oracle_skipped row in place of tower_bicubic, and every row
    for n <= 5 is unchanged."""
    argv = ("verify", "--n", "6", "--kind", "as2", "--limit", "5")
    _, uncapped, _ = run_cli(capsys, *argv)
    monkeypatch.setenv("CHARFIELD2_MAX_N", "12")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    checks = json.loads(out)["checks"]
    before = json.loads(uncapped)["checks"]
    assert [c for c in checks if c["n"] <= 5] == [c for c in before if c["n"] <= 5]
    names = [(c["name"], c["kind"]) for c in checks if c["n"] == 6]
    want = [(c["name"], c["kind"]) for c in before if c["n"] == 6]
    assert want[-1] == ("tower_bicubic", "k3")
    assert names == want[:-1] + [("oracle_skipped", "k3")]
    assert checks[-1]["ok"]
    assert checks[-1]["detail"].startswith("degree 18 exceeds cap 12")

    # Under a cap of 8 the per-kind rows and the tower rows both need the
    # (as2, 5) and (k3, 4) embeddings; each skip is reported once.
    monkeypatch.setenv("CHARFIELD2_MAX_N", "8")
    code, out, _ = run_cli(capsys, "verify", "--n", "5", "--kind", "as2", "k3",
                           "--limit", "3")
    assert code == 0
    skips = [(c["kind"], c["n"]) for c in json.loads(out)["checks"]
             if c["name"] == "oracle_skipped"]
    assert skips == [("as2", 5), ("k3", 4)]


def test_tower_kummer_row_fails_when_the_cube_test_lies(capsys, monkeypatch):
    """The predicate and the sextic builder share extbasis.element_is_cube;
    the row also checks the predicate against the oracle's cube test, so a
    wrong cube test turns the row to "no"."""
    cube = extbasis.element_is_cube
    monkeypatch.setattr(extbasis, "element_is_cube",
                        lambda ctx, x: not cube(ctx, x))
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--kind", "as2",
                           "--limit", "2", "--format", "csv")
    _, rows = parse_csv(out)
    tower = [r for r in rows if r[0] == "tower_kummer_over_quadratic"]
    assert code == 1
    assert [(r[2], r[3]) for r in tower] == [("1", "no"), ("2", "no")]
    assert {r[4] for r in tower} == {"predicate vs sextic builder outcome"}


def test_verify_builds_each_case_once(capsys, monkeypatch):
    """verify --n 8 asks for each of its 32 (kind, n) cases once and embeds
    each of the 24 that exist once; the closed-form and tower rows read
    those builds."""
    calls = {"_basis_for_kind": 0, "build_embedding": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(cli, "_basis_for_kind")
    counted(tables, "build_embedding")
    code, _, _ = run_cli(capsys, "verify", "--n", "8", "--limit", "1")
    assert code == 0
    assert calls == {"_basis_for_kind": 32, "build_embedding": 24}


def test_wrong_expected_tally_fails_verify_and_bench(capsys, monkeypatch):
    """verify and bench check their tallies through one helper: a wrong
    expected as2 mul tally turns verify's mul_op_counts rows and bench's mul
    row to "no", and the square rows still pass."""
    monkeypatch.setitem(extbasis.EXPECTED_MUL_COUNTS, "as2", (3, 4, 2))
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--kind", "as2",
                           "--limit", "2", "--format", "csv")
    _, rows = parse_csv(out)
    assert code == 1
    assert [(r[0], r[2], r[3]) for r in rows if r[0].endswith("_op_counts")] == [
        ("mul_op_counts", "1", "no"), ("square_op_counts", "1", "yes"),
        ("mul_op_counts", "2", "no"), ("square_op_counts", "2", "yes")]
    code, out, _ = run_cli(capsys, "bench", "--kind", "as2", "--n", "2",
                           "--limit", "3")
    _, rows = parse_csv(out)
    assert code == 1
    assert [(r[3], r[-1]) for r in rows] == [("mul", "no"), ("square", "yes")]


def test_verify_verdicts_are_seed_independent(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--n", "2", "--limit", "8",
                         "--seed", "1")
    _, out2, _ = run_cli(capsys, "verify", "--n", "2", "--limit", "8",
                         "--seed", "99")
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["failures"] == r2["failures"] == 0
    v1 = [(c["name"], c["kind"], c["n"], c["ok"]) for c in r1["checks"]]
    v2 = [(c["name"], c["kind"], c["n"], c["ok"]) for c in r2["checks"]]
    assert v1 == v2


# --- bench -------------------------------------------------------------

def test_bench_counts_exact(capsys):
    code, out, err = run_cli(capsys, "bench", "--kind", "k3", "--n", "2",
                             "--limit", "7")
    header, rows = parse_csv(out)
    assert code == 0
    assert "mean_ns" not in header
    assert len(rows) == 2
    mul_row = dict(zip(header, rows[0]))
    assert mul_row["op"] == "mul"
    assert (mul_row["base_mults"], mul_row["base_adds"],
            mul_row["table_vector_products"]) == ("6", "15", "2")
    assert mul_row["match"] == "yes"
    sq_row = dict(zip(header, rows[1]))
    assert sq_row["op"] == "square"
    assert (sq_row["base_mults"], sq_row["base_adds"],
            sq_row["table_vector_products"]) == ("0", "0", "1")
    assert "mean" in err  # timing goes to stderr by default


def test_bench_output_is_deterministic(capsys):
    args = ("bench", "--kind", "asw4", "--n", "2", "--limit", "5")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# --- search -------------------------------------------------------------

def test_search_lists_verified_normal_elements(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "4", "--limit", "3")
    header, rows = parse_csv(out)
    assert code == 0
    assert header == ["element", "element_hex", "table_weight", "density",
                      "cross_sum"]
    assert len(rows) == 3
    for r in rows:
        assert int(r[3]) == 4 * int(r[2])  # density = n * weight


def test_search_primitive_only(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "4", "--limit", "2",
                           "--require-primitive", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["modulus"] == "1+x+x^4"
    assert len(data["hits"]) == 2


def test_search_rejects_mismatched_modulus(capsys):
    code, _, err = run_cli(capsys, "search", "--n", "3", "--modulus", "1+x+x^2")
    assert code == 2
    assert "does not match" in err


@pytest.mark.parametrize("argv", [
    ("search", "--n", "3", "--modulus", "1+x+x^2"),
    ("tables", "--n", "3", "--modulus", "1+x+x^2", "--alpha", "x"),
    ("cross-sums", "--n", "3", "--modulus", "1+x+x^2", "--alpha", "x"),
])
def test_mismatched_modulus_is_one_error_everywhere(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: modulus degree 2 does not match --n 3\n"


def test_search_n64_first_hit_after_trace_zero_prefix(capsys):
    """At n = 64 every candidate below 2^61 has trace 0; the scan skips them
    and its first hit, x^61, has conjugates of full rank."""
    code, out, _ = run_cli(capsys, "search", "--n", "64", "--limit", "1")
    _, rows = parse_csv(out)
    assert code == 0 and len(rows) == 1
    ctx = gf.FieldCtx(bitpoly.min_irreducible(64))
    hit = bitpoly.parse(rows[0][0])
    assert mat_rank(normal.conjugates(ctx, hit), 64) == 64
    trace = sum(gf.trace(ctx, 1 << i) << i for i in range(64))
    assert ctx.normality_maps[0] == trace  # the functional the scan skips by
    # every skipped candidate a < hit has a & t == 0, so trace 0: not normal
    assert (hit - 1) & trace == 0 and hit & trace
    assert hit == 1 << 61


def test_malformed_degree_cap_is_an_error(capsys, monkeypatch):
    monkeypatch.setenv("CHARFIELD2_MAX_N", "bogus")
    code, out, err = run_cli(capsys, "search", "--n", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "'bogus'" in err


# --- generic plumbing ------------------------------------------------------

def test_usage_errors_exit_two():
    for argv in (["tables"],  # --n is required
                 ["no-such-command"],
                 # no such flags: --seed exists on verify and bench only
                 ["search", "--n", "4", "--workers", "2"],
                 ["search", "--n", "4", "--seed", "1"],
                 ["cross-sums", "--seed", "1"],
                 ["densities", "--seed", "1"],
                 ["tables", "--n", "2", "--seed", "1"],
                 ["bench", "--kind", "as2", "--n", "2", "--timing"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("argv", [
    ("search", "--n", "4", "--limit", "0"),
    ("search", "--n", "4", "--limit", "-1"),
    ("bench", "--kind", "as2", "--n", "4", "--limit", "0"),
    ("verify", "--n", "2", "--limit", "-1"),
    # a degree below 1 never has a fixture
    ("tables", "--n", "0"),
    ("bench", "--kind", "as2", "--n", "-2"),
    ("cross-sums", "--n", "0"),
    # no density column is computable or recorded for these degrees
    ("densities", "--m", "5", "7"),
    ("cross-sums", "--n", "2", "--out", str(ROOT / "no-such-dir" / "x.csv")),
])
def test_out_of_range_limit_is_a_usage_error(capsys, argv):
    """Limits, degrees and --out paths that cannot be used: one error line
    on stderr, nothing on stdout, exit 2."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "0"),
    ("verify", "--n", "-1"),
    ("densities", "--m", "0", "-6"),
    ("densities", "--m", "6", "-6"),
])
def test_empty_verification_run_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "must be at least 1" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "sums.csv"
    code, out, _ = run_cli(capsys, "cross-sums", "--n", "2",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    header, rows = parse_csv(target.read_text())
    assert rows[0][0] == "2" and rows[0][3] == "5"


def test_repeated_runs_are_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "cross-sums", "--n", "2", "4", "6")
    _, out2, _ = run_cli(capsys, "cross-sums", "--n", "2", "4", "6")
    assert out1 == out2


def test_console_script_entry_point():
    """The `charfield2` script declared in pyproject.toml runs the same
    command as `python -m charfield2.cli` (checked without installing)."""
    import tomllib
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["charfield2"]
    module, func = target.split(":")
    argv = ["cross-sums", "--n", "2"]
    proc = subprocess.run([sys.executable, "-m", "charfield2.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "1+x+x^2" in proc.stdout
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    script = subprocess.run([sys.executable, "-c", code, *argv],
                            capture_output=True, text=True)
    assert script.returncode == proc.returncode
    assert script.stdout == proc.stdout


def test_import_starts_no_process_machinery():
    """Importing the package and its CLI loads neither multiprocessing nor
    concurrent.futures: the normal-element scan is serial."""
    code = ("import charfield2, charfield2.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# --- byte identity with the benchmark goldens ------------------------------

GOLDEN_COMMANDS = {
    "verify.n8": ["verify", "--n", "8", "--format", "csv", "--seed", "0"],
    "tables.ka6.n8": ["tables", "--kind", "ka6", "--n", "8"],
    "tables.asw4.n8": ["tables", "--kind", "asw4", "--n", "8"],
    "densities": ["densities"],
    "cross-sums": ["cross-sums"],
    "search.n12": ["search", "--n", "12", "--limit", "50"],
    "bench.ka6.n8": ["bench", "--kind", "ka6", "--n", "8", "--seed", "0"],
}


@pytest.mark.parametrize("label", GOLDEN_COMMANDS)
def test_output_matches_golden(capsys, label):
    """Every benchmarked command prints exactly its recorded golden output."""
    code, out, _ = run_cli(capsys, *GOLDEN_COMMANDS[label])
    assert code == 0
    golden = ROOT / "perfbench" / "goldens" / f"{label}.txt"
    assert out == golden.read_text(encoding="utf-8")
