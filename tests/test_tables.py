"""Tests for the oracle embedding, brute-force tables, and closed-form counts."""

import random

import pytest
from hypothesis import given, strategies as st

from charfield2 import bitpoly, extbasis as xb, field as gf, normal, tables, witt
from charfield2.errors import (ConstructionContradictionError, DomainError,
                               NoKummerExtensionError, UnsupportedDegreeError)
from charfield2.fixtures import fixture_degrees, get_fixture

NB2 = get_fixture(2).basis()
NB4 = get_fixture(4).basis()
NB6 = get_fixture(6).basis()


def test_find_roots_returns_actual_roots():
    big = gf.FieldCtx(0b1000011)  # F_64
    # y^2 + y + c for a trace-zero c has two roots; check them directly
    c = next(a for a in range(1, 64) if gf.trace(big, a) == 0)
    roots = sorted(tables.find_roots(big, [c, 1, 1]))
    assert len(roots) == 2
    for y in roots:
        assert gf.square(big, y) ^ y ^ c == 0
    assert roots == gf.solve_artin_schreier(big, c)
    # cubic y^3 + a with a a non-cube has no roots; with a = 1 it has the cube roots of 1
    ones = tables.find_roots(big, [1, 0, 0, 1])
    assert ones and all(gf.power(big, y, 3) == 1 for y in ones)
    assert len(ones) == 3  # 3 | 63


def test_find_roots_is_deterministic_and_sorted():
    big = gf.FieldCtx(0b10011)
    r1 = tables.find_roots(big, [1, 0, 0, 1])
    r2 = tables.find_roots(big, [1, 0, 0, 1])
    assert r1 == r2 == sorted(r1)


def _first_irreducibles(d, count=3):
    out = []
    for f in range(1 << d, 2 << d):
        if len(out) == count:
            break
        if bitpoly.is_irreducible(f):
            out.append(f)
    return out


@pytest.mark.parametrize("m", [8, 12, 16])
def test_least_conjugate_root_is_the_least_root(m):
    big = gf.FieldCtx(bitpoly.min_irreducible(m))
    for d in (d for d in range(1, m + 1) if m % d == 0):
        for f in _first_irreducibles(d):
            coeffs = [(f >> i) & 1 for i in range(d + 1)]
            r = tables.least_conjugate_root(big, f)
            assert r == tables.find_roots(big, coeffs)[0], (m, f)
            value = 0
            for c in reversed(coeffs):  # Horner's rule: f(r)
                value = gf.poly_mul_mod(big, value, r) ^ c
            assert value == 0
            assert len({gf.frobenius(big, r, i) for i in range(d)}) == d


def test_least_conjugate_root_refuses_a_degree_that_does_not_divide_m():
    big = gf.FieldCtx(bitpoly.min_irreducible(8))
    with pytest.raises(DomainError):
        tables.least_conjugate_root(big, 0b1011)  # 1 + x + x^3: irreducible, 3 does not divide 8


@pytest.mark.parametrize("f", [
    0b10101,  # (1 + x + x^2)^2
    0b10010,  # x (1 + x) (1 + x + x^2): squarefree, splits in F_256
])
def test_least_conjugate_root_refuses_a_reducible_polynomial(f):
    big = gf.FieldCtx(bitpoly.min_irreducible(8))
    with pytest.raises(DomainError):
        tables.least_conjugate_root(big, f)


F64 = gf.FieldCtx(0b1000011)


@given(st.lists(st.integers(0, 63), max_size=10),
       st.lists(st.integers(0, 63), max_size=6))
def test_char2_polynomial_square_matches_the_schoolbook_product(t, h):
    h = h + [1]  # monic
    assert tables._fp_sqmod(F64, t, h) == tables._fp_mulmod(F64, t, t, h)


def test_embedding_field_product_budget(monkeypatch):
    """Deterministic cost guard for the as2 embedding at n = 24 (m = 48):
    splitting the modulus down to one root takes 3,837 field products,
    splitting it into all 24 linear factors about 213,000."""
    ctx = xb.build_as2(get_fixture(24).basis())
    real = gf.poly_mul_mod
    calls = 0

    def counting(big, a, b):
        nonlocal calls
        calls += 1
        return real(big, a, b)

    monkeypatch.setattr(gf, "poly_mul_mod", counting)
    tables.build_embedding(ctx)
    assert 0 < calls < 50_000


@pytest.mark.parametrize("kind,nb", [
    ("as2", "NB2"), ("as2", "NB4"), ("k3", "NB2"),
    ("asw4", "NB2"), ("ka6", "NB2"),
])
def test_embedding_respects_construction_rules(kind, nb):
    nb = {"NB2": NB2, "NB4": NB4}[nb]
    emb = tables.build_embedding(xb.build_kind(nb, kind))
    assert emb.check_rules()
    assert emb.m == nb.n * {"as2": 2, "k3": 3, "asw4": 4, "ka6": 6}[kind]


@pytest.mark.parametrize("kind", xb.KINDS)
def test_check_rules_rejects_a_broken_generator_image(kind):
    """Negative control: each generator image, moved off its rule, fails.

    XOR 2 moves the image off every rule; XOR 1 would not do for as2's b or
    asw4's b1, since y + 1 solves y^2 + y = c whenever y does."""
    emb = tables.build_embedding(xb.build_kind(NB2, kind))
    for gen in emb.ext.gens:
        good = emb.gen_images[gen]
        emb.gen_images[gen] = good ^ 2
        assert not emb.check_rules(), gen
        emb.gen_images[gen] = good
    assert emb.check_rules()


def test_build_asw4_refuses_rules_that_differ_from_the_programs(monkeypatch):
    """Negative control: a Witt derivation that disagrees with the hard-coded
    programs refuses construction."""
    rule_b0, rule_b1 = witt.asw4_reduction_rules(NB2)
    wrong_b1 = dict(rule_b1)
    wrong_b1[(0, 0)] ^= 1
    monkeypatch.setattr(xb, "asw4_reduction_rules", lambda nb: (rule_b0, wrong_b1))
    with pytest.raises(ConstructionContradictionError):
        xb.build_asw4(NB2)


def test_embedding_of_plain_normal_basis():
    emb = tables.build_embedding(NB4)
    assert emb.m == 4 and emb.d == 1
    # images are the Frobenius orbit of the embedded generator
    for i in range(3):
        img = emb.basis_images[i]
        assert gf.square(emb.big, img) == emb.basis_images[i + 1]


def test_embedding_round_trip_and_homomorphism():
    rng = random.Random(20240820)
    for ctx in (xb.build_as2(NB2), xb.build_kummer3(NB2), xb.build_asw4(NB2)):
        emb = tables.build_embedding(ctx)
        for _ in range(20):
            x = xb.ExtElem(tuple(rng.getrandbits(ctx.n) for _ in range(ctx.d)))
            y = xb.ExtElem(tuple(rng.getrandbits(ctx.n) for _ in range(ctx.d)))
            ix, iy = emb.embed_ext(x), emb.embed_ext(y)
            assert emb.to_blocks(ix) == x.blocks
            # the extension's counted product agrees with the big field's
            prod = xb.mul(ctx, x, y)
            assert emb.embed_ext(prod) == gf.poly_mul_mod(emb.big, ix, iy)
            sq = xb.square(ctx, x)
            assert emb.embed_ext(sq) == gf.square(emb.big, ix)


def test_embedding_rejects_other_sources():
    with pytest.raises(DomainError):
        tables.build_embedding("nope")


def test_normal_table_set_matches_brute_force():
    for nb in (NB2, NB4):
        ts_formula = tables.normal_table_set(nb)
        ts_brute = tables.build_tables(tables.build_embedding(nb))
        assert ts_formula.tables == ts_brute.tables
        assert ts_formula.density == ts_brute.density == nb.density


def test_normal_table_mul_matches_normal_mul():
    """z_k = u T_k v^t over the n^3-bit tables against the product from the
    base table: every pair up to n = 6, 300 seeded pairs above, n <= 12."""
    rng = random.Random(20261021)
    for n in (n for n in fixture_degrees() if n <= 12):
        nb = get_fixture(n).basis()
        ts = tables.normal_table_set(nb)
        if n <= 6:
            pairs = [(u, v) for u in range(1 << n) for v in range(1 << n)]
        else:
            pairs = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(300)]
        for u, v in pairs:
            assert tables.table_mul(ts, u, v) == normal.normal_mul(nb, u, v), (n, u, v)


def test_ext_table_mul_matches_counted_mul():
    rng = random.Random(20240821)
    for ctx in (xb.build_as2(NB2), xb.build_kummer3(NB2), xb.build_ka6(NB2)):
        emb = tables.build_embedding(ctx)
        ts = tables.build_tables(emb)
        n = ctx.n
        for _ in range(25):
            x = xb.ExtElem(tuple(rng.getrandbits(n) for _ in range(ctx.d)))
            y = xb.ExtElem(tuple(rng.getrandbits(n) for _ in range(ctx.d)))
            flat_x = sum(b << (i * n) for i, b in enumerate(x.blocks))
            flat_y = sum(b << (i * n) for i, b in enumerate(y.blocks))
            flat_prod = tables.table_mul(ts, flat_x, flat_y)
            prod = xb.mul(ctx, x, y)
            assert flat_prod == sum(b << (i * n) for i, b in enumerate(prod.blocks))


def test_table_entry_accessor():
    ts = tables.normal_table_set(NB2)
    for k in range(2):
        for i in range(2):
            for j in range(2):
                assert ts.entry(k, i, j) == (ts.tables[k][i] >> j) & 1


@pytest.mark.parametrize("kind", ["as2", "k3", "asw4"])
def test_closed_form_counts_match_brute_force(kind):
    """Every fixture n <= 12: as2 always, asw4 at even n, k3 where the
    generator is a primitive non-cube (m = 4n = 48 at most)."""
    checked = 0
    for n in (n for n in fixture_degrees() if n <= 12):
        if kind == "asw4" and n % 2:
            continue
        try:
            ext = xb.build_kind(get_fixture(n).basis(), kind)
        except (NoKummerExtensionError, UnsupportedDegreeError):
            assert kind == "k3"
            continue
        report = tables.verify_table_counts(ext)
        assert report.ok, (n, report.mismatches)
        assert report.mismatches == []
        assert report.expected == report.actual
        assert report.density_expected == report.density_actual
        checked += 1
    assert checked == {"as2": 7, "k3": 3, "asw4": 6}[kind]


def test_no_closed_form_for_sextic_tower():
    with pytest.raises(DomainError):
        tables.expected_counts(NB2, "ka6")
    with pytest.raises(DomainError):
        tables.expected_density(NB2, "ka6")


def test_expected_density_formulas():
    for nb in (NB2, NB4, NB6):
        cs = normal.cross_product_sum(nb)
        assert tables.expected_density(nb, "as2") == 4 * nb.density + cs
        assert tables.expected_density(nb, "k3") == 6 * nb.density + 3 * cs
        for kind in ("as2", "k3", "asw4"):
            assert (tables.expected_density(nb, kind)
                    == sum(tables.expected_counts(nb, kind)))


def test_verify_table_entries_clean_and_corrupted():
    emb = tables.build_embedding(xb.build_as2(NB2))
    ts = tables.build_tables(emb)
    assert tables.verify_table_entries(emb, ts) == []
    ts.tables[0][0] ^= 1  # flip one bit
    witnesses = tables.verify_table_entries(emb, ts)
    assert witnesses == [(0, 0, 0)]
    # two more flips in other tables: witnesses come in (i, j, k) order
    ts.tables[3][0] ^= 1 << 1    # (k, i, j) = (3, 0, 1)
    ts.tables[1][1] ^= 1 << 0    # (k, i, j) = (1, 1, 0)
    assert tables.verify_table_entries(emb, ts) == [(0, 0, 0), (3, 0, 1), (1, 1, 0)]
