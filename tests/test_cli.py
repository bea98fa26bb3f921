"""Tests for the command-line interface (in-process, plus one console-script check)."""

import csv
import gc
import hashlib
import io
import json
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from functools import partial, reduce
from itertools import product
from operator import xor
from pathlib import Path
from types import SimpleNamespace

import pytest

from charfield2 import bitpoly, cli, extbasis, field as gf, fixtures, normal, tables
from charfield2.cli import main
from charfield2.errors import NoKummerExtensionError, UnsupportedDegreeError
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


def test_densities_at_every_fixture_degree(capsys):
    """At every fixture degree m = 1 ... 26, d_n is the density n w(N) of
    the pinned basis, which the closed form for the plain basis reproduces,
    and d_a and d_k are the closed forms over the m/2 and m/3 fixtures, "-"
    where build_kind refuses k3.  The golden covers only multiples of 6."""
    degrees = fixtures.fixture_degrees()
    code, out, _ = run_cli(capsys, "densities", "--m", *map(str, degrees))
    _, rows = parse_csv(out)
    assert code == 0
    assert [int(r[0]) for r in rows] == list(degrees)

    def closed_form(m, divisor, kind):
        if m % divisor or m // divisor not in fixtures.FIXTURES:
            return ""
        nb = fixtures.get_fixture(m // divisor).basis()
        try:
            ctx = extbasis.build_kind(nb, kind)
        except (UnsupportedDegreeError, NoKummerExtensionError):
            return "-"
        return str(tables.closed_form_tables(ctx).density)

    for r in rows:
        m = int(r[0])
        assert r[1] == str(fixtures.get_fixture(m).basis().density), m
        assert r[3] == closed_form(m, 2, "as2"), m
        assert r[5] == closed_form(m, 3, "k3"), m
    assert [r[5] for r in rows].count("-") == 1  # m = 12: NB4's generator is a cube


def test_densities_builds_each_fixture_basis_once(capsys, monkeypatch):
    """The default table reads the fixtures at n = 6, 12, 18 and 24 in up to
    three columns each, and builds each of the 13 bases it reads once."""
    calls = Counter()
    build = fixtures.Fixture.basis

    def counted(fixture):
        calls[fixture.n] += 1
        return build(fixture)
    monkeypatch.setattr(fixtures.Fixture, "basis", counted)
    code, out, _ = run_cli(capsys, "densities")
    assert code == 0
    assert out == (ROOT / "perfbench" / "goldens" / "densities.txt").read_text(encoding="utf-8")
    read = {m // divisor for m in fixtures.DENSITY_DEGREES for divisor in (1, 2, 3)
            if m % divisor == 0 and m // divisor in fixtures.FIXTURES}
    assert len(read) == 13
    assert calls == Counter(read)


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


def test_verify_takes_each_kind_once(capsys):
    """A kind given twice is checked once: the output equals the run that
    names it once, in the order the kinds were first given."""
    for fmt in ("csv", "json"):
        _, once, _ = run_cli(capsys, "verify", "--n", "2", "--kind", "as2", "k3",
                             "--limit", "1", "--format", fmt)
        _, twice, _ = run_cli(capsys, "verify", "--n", "2", "--kind", "as2", "k3",
                              "as2", "--limit", "1", "--format", fmt)
        assert twice == once
    assert json.loads(once)["kinds"] == ["as2", "k3"]


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
    n = 6 gets one oracle_skipped row in place of both k3 rows, the witness
    and tower_bicubic, which read that embedding, and every row for n <= 5
    is unchanged."""
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
    assert want[-2:] == [("tower_no_quadratic_over_cubic", "k3"),
                         ("tower_bicubic", "k3")]
    assert names == want[:-2] + [("oracle_skipped", "k3")]
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
    """The predicate and build_kind read the same rule test, so a cube test
    that lies about g^3 = b fools both alike; the row also checks the
    predicate against the oracle's cube test in the big field, so it turns
    to "no", while every other row is printed unchanged."""
    check_rule = extbasis._check_rule

    def lying(nb, rules, g):
        if (rules, g) != (extbasis.RULES["ka6"], 1):
            return check_rule(nb, rules, g)
        try:
            check_rule(nb, rules, g)
        except NoKummerExtensionError:
            return None
        raise NoKummerExtensionError("no cubic Kummer extension: a lie")

    argv = ("verify", "--n", "2", "--kind", "as2", "--limit", "2", "--format", "csv")
    _, good, _ = run_cli(capsys, *argv)
    monkeypatch.setattr(extbasis, "_check_rule", lying)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and "error" not in err
    name = "tower_kummer_over_quadratic"
    _, rows = parse_csv(out)
    _, want = parse_csv(good)
    assert [r for r in rows if r[0] != name] == [r for r in want if r[0] != name]
    tower = [r for r in rows if r[0] == name]
    assert [(r[2], r[3]) for r in tower] == [("1", "no"), ("2", "no")]
    assert {r[4] for r in tower} == {"predicate vs sextic builder outcome"}


def _witness_row_with_a_lying_solve(capsys, monkeypatch, lie):
    """verify --n 2 --kind k3 with the oracle's Artin-Schreier solve replaced
    by lie(roots) in the degree-6 big field of k3 at n = 2 only (the as2
    embeddings the run also builds, of degrees 2 and 4, solve their rules
    truly): the witness row turns to "no" and the run to exit 1, with every
    other row printed unchanged."""
    argv = ("verify", "--n", "2", "--kind", "k3", "--limit", "2", "--format", "csv")
    _, good, _ = run_cli(capsys, *argv)
    solve = gf.solve_artin_schreier
    monkeypatch.setattr(gf, "solve_artin_schreier", lambda big, c: (
        lie(solve(big, c)) if big.n == 6 else solve(big, c)))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and "error" not in err
    witness = "tower_no_quadratic_over_cubic"
    _, rows = parse_csv(out)
    _, want = parse_csv(good)
    assert [r for r in rows if r[0] != witness] == [r for r in want if r[0] != witness]
    assert [(r[2], r[3]) for r in rows if r[0] == witness] == [("2", "no")]


def test_tower_quadratic_row_fails_without_a_preimage(capsys, monkeypatch):
    _witness_row_with_a_lying_solve(capsys, monkeypatch, lambda roots: [])


def test_tower_quadratic_row_fails_on_a_wrong_preimage(capsys, monkeypatch):
    """x is not in F_2, so y + x is no root when y is one: with gamma = y + x,
    gamma^2 + gamma = b + x^2 + x, not b."""
    _witness_row_with_a_lying_solve(capsys, monkeypatch,
                                    lambda roots: [y ^ 0b10 for y in roots])


def test_verify_refuses_a_degree_over_the_cap_before_any_work(capsys, monkeypatch):
    """--n over the degree cap exits 2 with the cap error at once: no case
    is built and nothing is printed."""
    def refuse(kind, n):
        raise AssertionError("verify built a case")

    monkeypatch.setattr(cli, "_basis_for_kind", refuse)
    code, out, err = run_cli(capsys, "verify", "--n", "65")
    assert (code, out) == (2, "")
    assert err.startswith("error: degree 65 exceeds cap 64")
    monkeypatch.setenv("CHARFIELD2_MAX_N", "12")
    code, out, err = run_cli(capsys, "verify", "--n", "13", "--kind", "as2")
    assert (code, out) == (2, "")
    assert err.startswith("error: degree 13 exceeds cap 12")


def test_verify_builds_each_case_once(capsys, monkeypatch):
    """verify --n 8 asks for each of its 32 (kind, n) cases once and embeds
    each of the 24 that exist once; the closed-form and tower rows read
    those builds, so ka6 is built only for the ka6 cases' own candidates
    (10 calls; a throwaway build per tower row made it 16)."""
    calls = Counter()

    def counted(module, name, key=None):
        """Count the calls through every binding of module.name."""
        fn = getattr(module, name)

        def wrapper(*args):
            calls[key(args) if key else name] += 1
            return fn(*args)
        for mod in [m for k, m in sys.modules.items() if k.startswith("charfield2")]:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapper)

    counted(cli, "_basis_for_kind")
    counted(tables, "build_embedding")
    counted(extbasis, "build_kind", lambda args: args[1])
    code, _, _ = run_cli(capsys, "verify", "--n", "8", "--limit", "1")
    assert code == 0
    assert (calls["_basis_for_kind"], calls["build_embedding"], calls["ka6"]) == (32, 24, 10)


def test_closed_form_columns_read_the_built_case(capsys, monkeypatch):
    """verify and tables take their closed-form counts from the context they
    built: with tables.build_kind made to raise, each run exits 0 with the
    same output.  With build_kind made to raise at every binding, the closed
    form of a built context of every kind is unchanged."""
    runs = (("verify", "--n", "8", "--format", "csv", "--seed", "1"),
            ("tables", "--kind", "asw4", "--n", "8"),
            ("tables", "--kind", "k3", "--n", "8"))
    want = [run_cli(capsys, *argv)[:2] for argv in runs]
    assert [code for code, _ in want] == [0, 0, 0]

    def forbidden(*args, **kwargs):
        raise AssertionError("a built case was built again")

    monkeypatch.setattr(tables, "build_kind", forbidden)
    for argv, out in zip(runs, want):
        assert run_cli(capsys, *argv)[:2] == out, argv
    build_kind = extbasis.build_kind
    sources = [fixtures.get_fixture(2).basis()]
    sources += [build_kind(sources[0], kind) for kind in extbasis.KINDS]
    closed = [tables.closed_form_tables(s).tables for s in sources]
    for mod in [m for k, m in sys.modules.items() if k.startswith("charfield2")]:
        for attr, obj in list(vars(mod).items()):
            if obj is build_kind:
                monkeypatch.setattr(mod, attr, forbidden)
    with pytest.raises(AssertionError):
        cli._basis_for_kind("as2", 2)
    assert [tables.closed_form_tables(s).tables for s in sources] == closed


# The least irreducible modulus of each degree 1..20, the one verify's cases
# use, and the normal element each kind's case sits on (None: no case).
PINNED_MODULI = [0x3, 0x7, 0xb, 0x13, 0x25, 0x43, 0x83, 0x11b, 0x203, 0x409,
                 0x805, 0x1009, 0x201b, 0x4021, 0x8003, 0x1002b, 0x20009,
                 0x40009, 0x80027, 0x100009]
PINNED_ALPHAS = {
    "as2": [0x1, 0x2, 0x3, 0x8, 0x3, 0x38, 0x9, 0xc0, 0x3, 0x2a8, 0x3, 0x3fc,
            0x3, 0x32e0, 0x81, 0xfb40, 0x3, 0xccd2, 0x3, 0xf8908],
    "k3": [None, 0x2, None, 0x9, None, 0x38, None, 0xc0, None, 0x80, None,
           0x203, None, 0x32e0, None, 0xfb40, None, 0x8004, None, 0x20000],
    "asw4": [None, 0x2, None, 0x8, None, 0x38, None, 0xc0, None, 0x2a8, None,
             0x3fc, None, 0x32e0, None, 0xfb40, None, 0xccd2, None, 0xf8908],
    "ka6": [0x1, 0x2, 0x3, 0x9, 0x3, 0x38, 0xb, 0xc0, 0x3, 0x80, 0x9, 0x203,
            0x7, 0x32e0, 0x81, 0xfb40, 0x3, 0x8002, 0xb, 0x20000],
}


@pytest.mark.parametrize("kind", extbasis.KINDS)
def test_basis_for_kind_picks_pinned_bases(kind, monkeypatch):
    """The builders alone decide which candidate admits a kind; the choice at
    every n <= 20 is pinned, including the degrees with no case at all."""
    monkeypatch.setenv("CHARFIELD2_MAX_N", "120")
    for n, (mod, alpha) in enumerate(zip(PINNED_MODULI, PINNED_ALPHAS[kind]), 1):
        ctx = cli._basis_for_kind(kind, n)
        got = None if ctx is None else (ctx.base.field.modulus, ctx.base.alpha)
        assert got == (None if alpha is None else (mod, alpha)), (kind, n)


@pytest.mark.parametrize("kind", ["asw4", "k3"])
def test_basis_for_kind_stops_at_a_refused_degree(kind, monkeypatch):
    """A degree the builder refuses is refused for every candidate, so the
    scan stops after the first basis build."""
    builds = []
    build = normal.build_normal_basis
    monkeypatch.setattr(normal, "build_normal_basis",
                        lambda ctx, a: builds.append(a) or build(ctx, a))
    assert cli._basis_for_kind(kind, 5) is None
    assert len(builds) <= 1


# (lines, sha256 of the lines joined by newlines) of _build_kind_outcomes
BUILD_KIND_OUTCOMES = (379, "eed495ba3444915f8345cb844f6056185d5513d7302de229b4a1e6b55d96fb33")


def _build_kind_outcomes(monkeypatch):
    """Every build_kind call _basis_for_kind makes for each kind and n <= 64,
    one line each: the basis it was given and the context's kind, n and
    generators, or the error's type and message."""
    lines, build = [], extbasis.build_kind

    def recorded(nb, kind):
        head = f"{kind} {nb.n} {nb.field.modulus:x} {nb.alpha:x}"
        try:
            ctx = build(nb, kind)
        except (UnsupportedDegreeError, NoKummerExtensionError) as exc:
            lines.append(f"{head} {type(exc).__name__}: {exc}")
            raise
        lines.append(f"{head} {ctx.kind} {ctx.n} {ctx.gens}")
        return ctx

    monkeypatch.setattr(extbasis, "build_kind", recorded)
    for kind, n in product(extbasis.KINDS, range(1, 65)):
        cli._basis_for_kind(kind, n)
    return lines


def test_build_kind_outcomes_along_the_cli_scan_are_pinned(monkeypatch):
    """The contexts and refusals, messages included, that build_kind gives
    the CLI's case scan are pinned: a change to the rule tests that moves
    any verdict or message, or the basis the scan settles on, shows here."""
    lines = _build_kind_outcomes(monkeypatch)
    assert len(lines) == BUILD_KIND_OUTCOMES[0]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == BUILD_KIND_OUTCOMES[1]


def test_refused_candidates_leave_no_cyclic_garbage():
    """A scan past refused candidates frees their bases at once: a refusal
    kept with its traceback would tie them into a reference cycle."""
    gc.collect()
    gc.disable()
    try:
        for kind, n in (("k3", 18), ("ka6", 4), ("ka6", 7)):
            assert cli._basis_for_kind(kind, n) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# The first 16 hex digits of the sha256 of the stdout of `tables --kind K --n N
# --modulus auto --alpha search`, as recorded before every command shared one
# candidate loop; None where the builder refuses the degree (exit 2). k3 still
# lands on the first primitive normal element: a primitive element is never a
# cube when 3 | 2^n - 1, so build_kind refuses k3 on every normal element before it.
SEARCH_TABLES = {
    "as2": {1: "712d56006c6017bd", 2: "33c2eedbb52d1a79", 3: "b048752f28f18afd",
            4: "420172ac7c6db23e", 5: "a616916c94384c0e", 6: "2d5d39cd128a2236",
            7: "0e87fc46f73e4d35", 8: "e29c03cd1d4518a3", 10: "1a393cc09589211f",
            12: "cb0b7790327dea68", 14: "66d5e83ee992909b", 16: "58f2148684341d0d"},
    "k3": {1: None, 2: "7e92405625e394a8", 3: None, 4: "1fc93b10f9b9ad12",
           5: None, 6: "96e94fffb05b43c0", 7: None, 8: "40b625090e14f7fc",
           10: "7a9f13877f6b166e", 12: "4dee482b3781d988", 14: "a914237d5f6262bc",
           16: "359ad14b805eb4f3"},
    "asw4": {1: None, 2: "c74d79d8362cc7fd", 3: None, 4: "86258a264da8f31d",
             5: None, 6: "eaaae97987957cc6", 7: None, 8: "ad1149603cc2fa64",
             10: "e7b901f6ddca7b0e", 12: "af67c91d50db8868", 14: "f4e203de9373b517",
             16: "037e406a9292cd3d"},
}
REFUSALS = {"k3": "3 does not divide 2^{n} - 1",
            "asw4": "b1^2 + b1 = c is reducible over F_{{2^{twice_n}}}, as Tr(c) = 0"}


@pytest.mark.parametrize("kind", sorted(SEARCH_TABLES))
def test_tables_alpha_search_outputs_are_pinned(capsys, kind):
    for n, want in SEARCH_TABLES[kind].items():
        code, out, err = run_cli(capsys, "tables", "--kind", kind, "--n", str(n),
                                 "--modulus", "auto", "--alpha", "search")
        if want is None:
            assert (code, out) == (2, ""), n
            assert REFUSALS[kind].format(n=n, twice_n=2 * n) in err, n
        else:
            assert (code, _digest(out)) == (0, want), n


@pytest.mark.parametrize("argv, want", [
    (("verify", "--n", "12", "--limit", "5"), "249e2772acedf005"),
    (("cross-sums", "--n", "6", "--modulus", "auto", "--alpha", "search"),
     "0de699aa9a56da29"),
    (("search", "--n", "12", "--limit", "50"), "c2f1140fce66eee0"),
    (("search", "--n", "16", "--require-primitive", "--limit", "200"),
     "8ba0b757bb985d55"),
])
def test_search_driven_outputs_are_pinned(capsys, argv, want):
    code, out, _ = run_cli(capsys, *argv)
    assert (code, _digest(out)) == (0, want)


@pytest.mark.parametrize("n, alpha", [(4, "1+x^3"), (7, "1+x+x^3")])
def test_tables_ka6_search_takes_the_first_accepted_candidate(
        capsys, monkeypatch, n, alpha):
    """The least normal element at n = 4 and 7 makes the quadratic generator
    a cube, so the search goes on to the element verify's ka6 case uses."""
    built = []
    embed = tables.build_embedding
    monkeypatch.setattr(tables, "build_embedding",
                        lambda ctx: built.append(ctx.base.alpha) or embed(ctx))
    code, _, _ = run_cli(capsys, "tables", "--kind", "ka6", "--n", str(n),
                         "--modulus", "auto", "--alpha", "search")
    assert code == 0
    assert built == [cli._basis_for_kind("ka6", n).base.alpha]
    assert bitpoly.to_human(built[0]) == alpha


@pytest.mark.parametrize("n", [12, 16])
def test_tables_refuses_an_over_cap_oracle_before_any_scan(capsys, monkeypatch, n):
    """ka6 needs an oracle field of degree 6n: over the cap of 64 the command
    exits 2 before it builds a single normal basis."""
    monkeypatch.delenv("CHARFIELD2_MAX_N", raising=False)
    built = []
    monkeypatch.setattr(normal, "build_normal_basis", lambda *a: built.append(a))
    code, out, err = run_cli(capsys, "tables", "--kind", "ka6", "--n", str(n),
                             "--modulus", "auto", "--alpha", "search")
    assert (code, out, built) == (2, "", [])
    assert err == f"error: degree {6 * n} exceeds cap 64 (set CHARFIELD2_MAX_N)\n"


def test_verify_scans_no_further_than_the_accepted_candidate(capsys, monkeypatch):
    """Each case draws normal elements only until the builder accepts one:
    verify --n 8 draws at most 66 from the scan (1,200 when each case first
    listed 60 normal elements), and a fixture that admits the kind none."""
    calls = {"drawn": 0, "build_kind": 0}
    scan, build = normal.normal_elements, extbasis.build_kind

    def drawing(*args):
        for a in scan(*args):
            calls["drawn"] += 1
            yield a

    def building(*args):
        calls["build_kind"] += 1
        return build(*args)
    monkeypatch.setattr(normal, "normal_elements", drawing)
    monkeypatch.setattr(extbasis, "build_kind", building)
    code, _, _ = run_cli(capsys, "verify", "--n", "8", "--limit", "1")
    assert code == 0
    assert 0 < calls["drawn"] <= 66 and calls["build_kind"] == 35
    calls["drawn"] = 0
    assert cli._basis_for_kind("as2", 8) is not None
    assert calls["drawn"] == 0


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


def test_bench_compiles_the_kind_before_timing(capsys, monkeypatch):
    """The first mul compiles the kind's programs; bench makes it before its
    first clock read, so the stderr mean holds no one-time compile: on an
    empty compile cache, ka6's tuple is compiled before the first clock
    read."""
    clock, compiled = cli.time.perf_counter, extbasis._compiled
    compiles, at_clock = [], []

    def spy():
        at_clock.append(list(compiles))
        return clock()

    def counted(rules):
        compiles.append(rules)
        return compiled(rules)

    extbasis._compiled.cache_clear()
    monkeypatch.setattr(extbasis, "_compiled", counted)
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=spy))
    code, _, _ = run_cli(capsys, "bench", "--kind", "ka6", "--n", "8", "--limit", "3")
    assert code == 0
    assert extbasis.RULES["ka6"] in at_clock[0]


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
    trace = sum(reduce(xor, gf._frobenius_orbit(partial(gf.square, ctx), 1 << i, 64)) << i
                for i in range(64))
    assert ctx.normality_maps[0] == trace  # the functional the scan skips by
    # every skipped candidate a < hit has a & t == 0, so trace 0: not normal
    assert (hit - 1) & trace == 0 and hit & trace
    assert hit == 1 << 61


@pytest.mark.parametrize("argv", [
    ("search", "--n", "1000"),
    ("tables", "--n", "1000", "--modulus", "auto", "--alpha", "x"),
    ("cross-sums", "--n", "1000", "--modulus", "auto", "--alpha", "search"),
    ("bench", "--kind", "as2", "--n", "1000", "--modulus", "auto", "--alpha", "x"),
])
def test_an_over_cap_degree_is_refused_before_its_modulus_is_sought(
        capsys, monkeypatch, argv):
    """An --n over the cap exits 2 with the cap error before the search for
    the least irreducible of that degree, which takes over a minute at
    n = 1000."""
    monkeypatch.delenv("CHARFIELD2_MAX_N", raising=False)

    def refuse(n):
        raise AssertionError("min_irreducible was called")

    monkeypatch.setattr(bitpoly, "min_irreducible", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: degree 1000 exceeds cap 64 (set CHARFIELD2_MAX_N)\n"


def test_malformed_degree_cap_is_an_error(capsys, monkeypatch):
    monkeypatch.setenv("CHARFIELD2_MAX_N", "bogus")
    code, out, err = run_cli(capsys, "search", "--n", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "'bogus'" in err


@pytest.mark.parametrize("argv", [
    ("search", "--n", "4", "--modulus", "x^a"),
    ("search", "--n", "4", "--modulus", "1+x+x^4x"),
    ("cross-sums", "--n", "4", "--modulus", "1+x+x^4", "--alpha", "x^1.5"),
])
def test_malformed_polynomial_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad monomial") and err.count("\n") == 1


def test_oversized_exponent_is_refused_before_it_is_built(capsys, monkeypatch):
    """x^99999999 would be a 12.5 MB int; the cap refuses it first."""
    monkeypatch.delenv("CHARFIELD2_MAX_N", raising=False)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "search", "--n", "4",
                                 "--modulus", "x^99999999")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "error: degree 99999999 exceeds cap 64 (set CHARFIELD2_MAX_N)\n"
    assert peak < 1 << 20


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
                 ["bench", "--kind", "as2", "--n", "2", "--timing"],
                 ["verify", "--corrupt-table"]):
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


def test_consecutive_runs_do_not_leak_options(tmp_path, capsys):
    """main parses with one parser per process, yet each run sees only its
    own options: a verify naming one kind and then one naming none, which
    takes every kind; a primitive search and then a plain one, which equals
    the plain one run first; and a run with --out and then one without,
    which writes to stdout. verify's default kinds are a tuple, which no
    run can change."""
    assert cli.build_parser() is cli.build_parser()
    defaults = cli.build_parser().parse_args(["verify"]).kind
    assert defaults == extbasis.KINDS and isinstance(defaults, tuple)
    _, one, _ = run_cli(capsys, "verify", "--n", "2", "--kind", "k3", "--limit", "1")
    _, every, _ = run_cli(capsys, "verify", "--n", "2", "--limit", "1")
    assert json.loads(one)["kinds"] == ["k3"]
    assert json.loads(every)["kinds"] == list(extbasis.KINDS)
    _, plain, _ = run_cli(capsys, "search", "--n", "6")
    _, primitive, _ = run_cli(capsys, "search", "--n", "6", "--require-primitive")
    assert run_cli(capsys, "search", "--n", "6") == (0, plain, "") != (0, primitive, "")
    target = tmp_path / "sums.csv"
    assert run_cli(capsys, "cross-sums", "--n", "2", "--out", str(target))[1] == ""
    _, out, _ = run_cli(capsys, "cross-sums", "--n", "2")
    assert out == target.read_text() != ""


def test_console_script_entry_point():
    """The `charfield2` script declared in pyproject.toml runs the same
    command as `python -m charfield2.cli` (checked without installing).
    The entry is read without tomllib, which Python 3.10 lacks."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^charfield2\s*=\s*"([^"]+)"', scripts, re.M).group(1)
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


def test_import_loads_neither_dataclasses_nor_inspect():
    """Importing the package and its CLI loads no dataclasses and no inspect,
    which bring ast, dis and tokenize along.  The check is against the
    modules loaded before the import, as site may load inspect itself."""
    code = ("import sys; before = set(sys.modules); "
            "import charfield2, charfield2.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# --- random operands ----------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 7, "verify:ka6:8"])
def test_random_elem_draws_what_randrange_draws(seed):
    """Each block of _random_elem is the value randrange(1 << n) draws from
    the same stream, for every degree d of the kinds."""
    degrees = sorted({len(extbasis._monomials(rules)) for rules in extbasis.RULES.values()})
    for n, d in product((1, 8, 26, 64), degrees):
        ctx = SimpleNamespace(n=n, d=d)
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert cli._random_elem(rng, ctx).blocks == tuple(
                ref.randrange(1 << n) for _ in range(d)), (n, d)


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
