"""Tests for the oracle embedding, brute-force tables, and closed-form counts."""

import random
import sys

import pytest
from hypothesis import given, strategies as st

from charfield2 import bitpoly, cli, extbasis as xb, field as gf, normal, tables, witt
from charfield2.errors import (ConstructionContradictionError, DomainError,
                               NoKummerExtensionError, UnsupportedDegreeError)
from charfield2.fixtures import fixture_degrees, get_fixture
from charfield2.linalg import row_apply

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
    ctx = xb.build_kind(NB2, kind)
    emb = tables.build_embedding(ctx)
    assert tuple(emb.gen_images) == ctx.gens
    for gen in ctx.gens:
        good = emb.gen_images[gen]
        emb.gen_images[gen] = good ^ 2
        assert not emb.check_rules(), gen
        emb.gen_images[gen] = good
    assert emb.check_rules()


def test_build_asw4_refuses_rules_that_differ_from_the_programs(monkeypatch):
    """Negative control: a Witt derivation that disagrees with RULES["asw4"]
    refuses construction."""
    rule_b0, rule_b1 = witt.asw4_reduction_rules(NB2)
    wrong_b1 = dict(rule_b1)
    wrong_b1[(0, 0)] ^= 1
    monkeypatch.setattr(xb, "asw4_reduction_rules", lambda nb: (rule_b0, wrong_b1))
    with pytest.raises(ConstructionContradictionError):
        xb.build_asw4(NB2)


def test_build_asw4_refuses_a_wrong_stated_rule(monkeypatch):
    """Negative control: RULES["asw4"] with b1's side missing its a^2 term
    disagrees with the Witt derivation, which refuses construction."""
    rule_b0, rule_b1 = xb.RULES["asw4"]
    wrong_b1 = rule_b1._replace(rhs=lambda mul, a, b0: b0 ^ mul(a, b0))
    monkeypatch.setitem(xb.RULES, "asw4", (rule_b0, wrong_b1))
    with pytest.raises(ConstructionContradictionError):
        xb.build_asw4(NB2)


def test_oracle_solves_the_stated_rules(monkeypatch):
    """Negative control: RULES["as2"] changed after the context is built to
    b^2 + b = a^2 moves the oracle's b to a root of the new rule, so the big
    field's b*b = b + a^2 disagrees with the as2 program's b + a."""
    for nb in (NB2, NB4):
        ctx = xb.build_as2(nb)
        monkeypatch.setitem(xb.RULES, "as2", (xb.Rule("b", 2, lambda mul, a: mul(a, a)),))
        emb = tables.build_embedding(ctx)
        assert emb.check_rules()
        b = emb.embed_ext(xb.generator_element(ctx, "b"))
        b_squared = xb.mul(ctx, xb.generator_element(ctx, "b"),
                           xb.generator_element(ctx, "b"))
        assert emb.embed_ext(b_squared) != gf.poly_mul_mod(emb.big, b, b)
        monkeypatch.undo()
        emb = tables.build_embedding(ctx)
        assert emb.embed_ext(b_squared) == gf.square(emb.big, emb.gen_images["b"])


def _charfield2_modules():
    return [mod for name, mod in sys.modules.items()
            if name == "charfield2" or name.startswith("charfield2.")]


def test_oracle_shares_no_arithmetic_with_the_programs(monkeypatch):
    """With the normal-basis products and the extended programs made to raise
    at every binding, every kind at n = 2 and 4 still embeds, passes its rule
    check, and yields tables that verify: the oracle reads only RULES."""
    sources = [get_fixture(n).basis() for n in (2, 4)]
    for kind in xb.KINDS:
        for n in (2, 4):
            ctx = cli._basis_for_kind(kind, n)
            if ctx is not None:
                sources.append(ctx)
    assert {s.kind for s in sources[2:]} == set(xb.KINDS)
    assert len(sources) == 10

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle used the arithmetic under test")

    under_test = (normal.normal_mul, normal.alpha_mul, xb.mul, xb.square)
    for mod in _charfield2_modules():
        for attr, obj in list(vars(mod).items()):
            if any(obj is fn for fn in under_test):
                monkeypatch.setattr(mod, attr, forbidden)
    with pytest.raises(AssertionError):
        xb.mul(sources[2], xb.zero(sources[2]), xb.zero(sources[2]))
    for source in sources:
        emb = tables.build_embedding(source)
        assert emb.check_rules()
        ts = tables.build_tables(emb)
        assert tables.verify_table_entries(emb, ts) == []


def test_embedding_of_plain_normal_basis_has_no_generators():
    """A plain normal basis is the kind with no generators."""
    for nb in (NB2, NB4):
        emb = tables.build_embedding(nb)
        assert emb.d == 1 and emb.gen_images == {}
        assert emb.check_rules()


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


def _tables_by_full_loop(emb):
    """Reference for build_tables: all m^2 products, one entry each."""
    m = emb.m
    tables_ = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            coords = row_apply(emb._to_coords,
                               gf.poly_mul_mod(emb.big, emb.basis_images[i],
                                               emb.basis_images[j]))
            for k in range(m):
                tables_[k][i] |= (coords >> k & 1) << j
    return tables_


def _sources_up_to_4():
    """Every basis and extension kind that builds over the fixtures n <= 4."""
    for n in (d for d in fixture_degrees() if d <= 4):
        nb = get_fixture(n).basis()
        yield f"normal-n{n}", nb
        for kind in xb.KINDS:
            try:
                yield f"{kind}-n{n}", xb.build_kind(nb, kind)
            except (NoKummerExtensionError, UnsupportedDegreeError):
                continue


@pytest.mark.parametrize("label,source", list(_sources_up_to_4()))
def test_build_tables_matches_the_full_loop_and_is_symmetric(label, source):
    emb = tables.build_embedding(source)
    ts = tables.build_tables(emb)
    assert ts.tables == _tables_by_full_loop(emb)
    assert ts.per_table_nonzeros == [sum(r.bit_count() for r in t) for t in ts.tables]
    m = ts.m
    for k in range(m):
        for i in range(m):
            for j in range(m):
                assert (ts.tables[k][i] >> j) & 1 == (ts.tables[k][j] >> i) & 1
    ts.tables[0][0] ^= 1  # the verify --corrupt-table control's flip
    assert tables.verify_table_entries(emb, ts) == [(0, 0, 0)]


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
        ts = tables.build_tables(tables.build_embedding(ext))
        expected = tables.expected_counts(ext.base, kind)
        assert ts.per_table_nonzeros == expected, n
        assert ts.density == sum(expected)
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
