"""Tests for the oracle embedding, brute-force tables, and closed-form counts."""

import hashlib
import random
import sys

import pytest
from hypothesis import given, strategies as st

from charfield2 import bitpoly, cli, extbasis as xb, field as gf, linalg, normal, tables
from charfield2.errors import (ConstructionContradictionError, DomainError,
                               InvalidElementError, NoKummerExtensionError,
                               UnsupportedDegreeError)
from charfield2.fixtures import fixture_degrees, get_fixture
from charfield2.linalg import mat_invert, row_apply

NB2 = get_fixture(2).basis()
NB4 = get_fixture(4).basis()
NB6 = get_fixture(6).basis()


def _value(big, coeffs, r):
    """coeffs (low to high) evaluated at r by Horner's rule."""
    value = 0
    for c in reversed(coeffs):
        value = gf.poly_mul_mod(big, value, r) ^ c
    return value


def _first_irreducibles(d, count=3):
    out = []
    for f in range(1 << d, 2 << d):
        if len(out) == count:
            break
        if bitpoly.is_irreducible(f):
            out.append(f)
    return out


@pytest.mark.parametrize("m", [8, 12, 16])
def test_find_root_returns_a_root_of_each_irreducible(m):
    """The first irreducibles of each degree d | m, and y^3 = c for cubes c."""
    big = gf.FieldCtx(bitpoly.min_irreducible(m))
    for d in (d for d in range(1, m + 1) if m % d == 0):
        for f in _first_irreducibles(d):
            coeffs = [(f >> i) & 1 for i in range(d + 1)]
            r = tables.find_root(big, coeffs)
            assert _value(big, coeffs, r) == 0, (m, f)
            assert tables.find_root(big, coeffs) == r
            assert len({gf.frobenius(big, r, i) for i in range(d)}) == d
    for a in (2, 3, (1 << m) - 1):
        c = gf.power(big, a, 3)
        r = tables.find_root(big, [c, 0, 0, 1])
        assert gf.power(big, r, 3) == c, (m, a)
        assert tables.find_root(big, [c, 0, 0, 1]) == r


def test_find_root_solves_artin_schreier():
    big = gf.FieldCtx(0b1000011)  # F_64
    c = next(a for a in range(1, 64) if gf.trace(big, a) == 0)
    assert tables.find_root(big, [c, 1, 1]) in gf.solve_artin_schreier(big, c)


@pytest.mark.parametrize("f", [
    0b10101,  # (1 + x + x^2)^2: not squarefree
    0b1011,   # 1 + x + x^3: irreducible, 3 does not divide 8
    0b1,      # a constant
])
def test_find_root_refuses_a_polynomial_that_does_not_split(f):
    big = gf.FieldCtx(bitpoly.min_irreducible(8))
    with pytest.raises(DomainError):
        tables.find_root(big, [(f >> i) & 1 for i in range(f.bit_length())])


def test_find_root_refuses_a_cubic_with_no_root():
    big = gf.FieldCtx(bitpoly.min_irreducible(8))
    c = next(a for a in range(2, 256) if not gf.is_cube(big, a))
    with pytest.raises(DomainError):
        tables.find_root(big, [c, 0, 0, 1])


def test_find_root_takes_a_reducible_polynomial_that_splits():
    big = gf.FieldCtx(bitpoly.min_irreducible(8))
    coeffs = [0, 1, 0, 0, 1]  # x (1 + x) (1 + x + x^2): squarefree, splits in F_256
    assert _value(big, coeffs, tables.find_root(big, coeffs)) == 0


@pytest.mark.parametrize("kind", ["as2", "k3"])
def test_a_rule_with_no_root_in_the_big_field_is_a_contradiction(kind, monkeypatch):
    """Quadratic and cubic rules alike: no root is a ConstructionContradictionError."""
    ctx = xb.build_kind(NB2, kind)
    find_root = tables.find_root

    def refuse_cubics(big, coeffs):  # NB2's modulus is quadratic
        if len(coeffs) == 4:
            raise DomainError("no root")
        return find_root(big, coeffs)

    monkeypatch.setattr(tables, "find_root", refuse_cubics)
    monkeypatch.setattr(gf, "solve_artin_schreier", lambda big, c: [])
    with pytest.raises(ConstructionContradictionError, match="rule of b has no root"):
        tables.build_embedding(ctx)


def _fixture_sources(degrees):
    """Every basis and extension kind that builds over the given fixtures."""
    for n in degrees:
        nb = get_fixture(n).basis()
        yield f"normal-n{n}", nb
        for kind in xb.KINDS:
            try:
                yield f"{kind}-n{n}", xb.build_kind(nb, kind)
            except (NoKummerExtensionError, UnsupportedDegreeError):
                continue


def test_oracle_does_not_depend_on_the_roots_it_picks(monkeypatch):
    """Another root for every modulus and cubic rule, and the other solution
    of every quadratic rule, give other images but the same tables: the
    automorphisms of the big field carry one choice of roots to the other."""
    sources = dict(_fixture_sources((2, 4, 6, 8)))
    assert len(sources) == 18
    reference = {}
    for label, source in sources.items():
        emb = tables.build_embedding(source)
        reference[label] = (emb.basis_images, tables.build_tables(emb).tables)

    find_root = tables.find_root

    def other_root(big, coeffs):
        r = find_root(big, coeffs)
        return find_root(big, tables._fp_divmod(big, tables._fp_monic(big, coeffs),
                                                [r, 1])[0])

    solve = gf.solve_artin_schreier
    monkeypatch.setattr(tables, "find_root", other_root)
    monkeypatch.setattr(gf, "solve_artin_schreier", lambda big, c: solve(big, c)[::-1])
    moved = 0
    for label, source in sources.items():
        emb = tables.build_embedding(source)
        assert emb.check_rules(), label
        images, ts = reference[label]
        assert tables.build_tables(emb).tables == ts, label
        moved += emb.basis_images != images
    assert moved == len(sources)


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
    """With the normal-basis products, the extended programs and their
    structure constants made to raise at every binding, every kind at n = 2
    and 4 still embeds, passes its rule check, and yields tables that
    verify: the oracle reads only RULES."""
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

    under_test = (normal.normal_mul, normal.alpha_mul, xb.mul, xb.square,
                  xb.structure_constants)
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


def test_embedding_conversions_reject_out_of_range_input():
    """A block of more than n bits does not spill into the next block, a bad
    last block or block count is not an IndexError, and to_blocks takes only
    elements of the big field."""
    emb = tables.build_embedding(xb.build_as2(NB4))
    n = emb.base.n
    with pytest.raises(InvalidElementError):
        emb.embed_blocks((1 << n, 0))  # unchecked, it is embed_blocks((0, 1))
    with pytest.raises(InvalidElementError):
        emb.embed_blocks((0, 1 << n))
    with pytest.raises(InvalidElementError):
        emb.embed_blocks((0, 0, 1))
    with pytest.raises(InvalidElementError):
        emb.embed_blocks((0, -1))
    with pytest.raises(InvalidElementError):
        emb.to_blocks(1 << emb.m)
    with pytest.raises(InvalidElementError):
        emb.to_blocks(-1)
    top = (1 << emb.m) - 1
    assert emb.embed_blocks(emb.to_blocks(top)) == top


def test_embedding_rejects_other_sources():
    with pytest.raises(DomainError):
        tables.build_embedding("nope")


def test_normal_table_set_matches_brute_force():
    for nb in (NB2, NB4):
        ts_formula = tables.normal_table_set(nb)
        ts_brute = tables.build_tables(tables.build_embedding(nb))
        assert ts_formula.tables == ts_brute.tables
        assert ts_formula.products == ts_brute.products
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
    """Reference for build_tables: all m^2 products, one entry each, with
    coordinates from the inverse of the basis images by row_apply."""
    m = emb.m
    inv = mat_invert(emb.basis_images, m)
    tables_ = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            coords = row_apply(inv, gf.poly_mul_mod(emb.big, emb.basis_images[i],
                                                    emb.basis_images[j]))
            for k in range(m):
                tables_[k][i] |= (coords >> k & 1) << j
    return tables_


def _wide_sources():
    """The widest lanes: m = 48 twice, m = 64, and an odd m = 7."""
    f7 = gf.FieldCtx(bitpoly.min_irreducible(7))
    yield "normal-n7", normal.build_normal_basis(f7, next(normal.normal_elements(f7)))
    yield "as2-n24", xb.build_as2(get_fixture(24).basis())
    yield "k3-n16", xb.build_kummer3(get_fixture(16).basis())
    yield "asw4-n16", xb.build_asw4(get_fixture(16).basis())


# sha256 of repr(TableSet), recorded from the build that took one field
# product per entry and row_apply for its coordinates.
TABLE_SET_SHA256 = {
    "normal-n1": "d010f6a7f5b66fdae4cf72abdd650f54f0e1b9a47e484352f70d649190cadee6",
    "as2-n1": "1d9e40ee040436a34e05d6bd46a3bf5d45df68c89d8def6815dae91f746e096e",
    "ka6-n1": "3d84afe1f181f681f9d686f7791c9f223831cf72be65517287272137ce4a848b",
    "normal-n2": "d687c6a2feba6fdc6034f1581ae6fba2b47d1e26d7c1e7857ef3150e05cd8fc1",
    "as2-n2": "2f091c5a6554176d47762e868782f8a2b44559327544419d9aa5f7b090eb2ef2",
    "k3-n2": "5841fffdb5f9b40f01bc8da89f696020fd47a62a65c030b1db4ff3b4dbc80584",
    "asw4-n2": "2d8626d33399b1266608b5bb1f6caf156a54950513e5def0fc75a34f35b63107",
    "ka6-n2": "e179a67bc70e63b2c3ae50207e37977c5dfaaf03cee3b71de0f71ec336041a25",
    "normal-n4": "91811135cd28aa4d5cef2d2c1afec2708ab59ca75244474fd0178c153e71053e",
    "as2-n4": "8723b98ed711e87819918dc47a4c8e15279146e1a20fbb7756e623b9ca3eca8d",
    "asw4-n4": "2a760352e75a32803994074fc28c6019598525ce55d6c696a96e39968d199ec6",
    "normal-n7": "92062196bb7a2641f73d1cdaf3a222d42aa48bddeb0843aedff7f7a6580d1561",
    "as2-n24": "65e416119768e86d04c274ce58482a4cf9e1f7655f65ac1331ab0a11d0ab28c3",
    "k3-n16": "c2137652dd3bf7cb539c95fcf8a2cfee98bec413ca6bdc7b8d913e68865fd089",
    "asw4-n16": "bfd1c2558570137daf8bb70cd2f17e742110ec54327af7558b55d35c5a8769d7",
}


@pytest.mark.parametrize("label,source", [
    *_fixture_sources(d for d in fixture_degrees() if d <= 4), *_wide_sources()])
def test_build_tables_matches_the_full_loop_and_is_symmetric(label, source):
    emb = tables.build_embedding(source)
    ts = tables.build_tables(emb)
    assert hashlib.sha256(repr(ts).encode()).hexdigest() == TABLE_SET_SHA256[label]
    assert ts.tables == _tables_by_full_loop(emb)
    assert ts.per_table_nonzeros == [sum(r.bit_count() for r in t) for t in ts.tables]
    m = ts.m
    for k in range(m):
        for i in range(m):
            for j in range(m):
                assert (ts.tables[k][i] >> j) & 1 == (ts.tables[k][j] >> i) & 1
    ts.tables[0][0] ^= 1  # the verify --corrupt-table control's flip
    assert tables.verify_table_entries(emb, ts) == [(0, 0, 0)]


def _table_mul_by_tables(ts, x, y):
    """Reference for table_mul: z_k = parity(row_apply(T_k, x) & y), one
    table at a time."""
    return sum(((row_apply(rows, x) & y).bit_count() & 1) << k
               for k, rows in enumerate(ts.tables))


def _table_mul_cases():
    """Every normal_table_set with n <= 12, the tables of every kind at n = 2
    and 4, and the wide sources: normal n = 7, as2 n = 24, k3 n = 16 and
    asw4 n = 16 (m = 64)."""
    for n in (n for n in fixture_degrees() if n <= 12):
        yield f"normal-table-set-n{n}", tables.normal_table_set(get_fixture(n).basis())
    for kind in xb.KINDS:
        for n in (2, 4):
            ctx = cli._basis_for_kind(kind, n)
            if ctx is not None:
                yield f"{kind}-n{n}", tables.build_tables(tables.build_embedding(ctx))
    for label, source in _wide_sources():
        yield label, tables.build_tables(tables.build_embedding(source))


def test_table_mul_matches_the_per_table_reference():
    """Every pair of 0, 1, all-ones, the top bit and six seeded vectors."""
    rng = random.Random(20261018)
    labels = []
    for label, ts in _table_mul_cases():
        m = ts.m
        vecs = [0, 1, (1 << m) - 1, 1 << (m - 1)]
        vecs += [rng.getrandbits(m) for _ in range(6)]
        for x in vecs:
            for y in vecs:
                assert tables.table_mul(ts, x, y) == _table_mul_by_tables(ts, x, y), \
                    (label, x, y)
        labels.append(label)
    assert {"as2-n24", "k3-n16", "asw4-n16"} <= set(labels)
    assert sum(label.startswith(xb.KINDS) for label in labels) >= 10


def test_table_mul_refuses_vectors_outside_the_space():
    """A bit at or above m used to raise a bare IndexError (x) or be dropped
    (y); in lanes it would spill into the next lane."""
    ts = tables.build_tables(tables.build_embedding(xb.build_as2(NB2)))
    m = ts.m
    for x, y in ((1 << m, 5), (-1, 5), (3, 5 | 1 << m), (3, -1), (3, "5")):
        with pytest.raises(InvalidElementError):
            tables.table_mul(ts, x, y)
    top = (1 << m) - 1
    assert tables.table_mul(ts, top, top) == _table_mul_by_tables(ts, top, top)


def test_oracle_table_operation_counts(monkeypatch):
    """Deterministic cost guard at as2 n = 24 (m = 48): build_tables takes one
    carry-less product per row and reduces its lanes together, and table_mul
    takes one row_apply and no parity (it used to take m of each)."""
    emb = tables.build_embedding(xb.build_as2(get_fixture(24).basis()))
    calls = {}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(bitpoly, "poly_mul", counting("poly_mul", bitpoly.poly_mul))
    monkeypatch.setattr(gf, "reduce_product", counting("reduce_product", gf.reduce_product))
    counted = (linalg.row_apply, linalg.parity)
    for mod in _charfield2_modules():
        for attr, obj in list(vars(mod).items()):
            if any(obj is fn for fn in counted):
                monkeypatch.setattr(mod, attr, counting(obj.__name__, obj))
    ts = tables.build_tables(emb)
    assert calls == {"poly_mul": emb.m}
    calls.clear()
    rng = random.Random(48)
    for _ in range(10):
        tables.table_mul(ts, rng.getrandbits(emb.m), rng.getrandbits(emb.m))
    assert calls == {"row_apply": 10}


def test_programs_make_no_transpose(monkeypatch):
    """The products and squares of every kind at n = 2 and 4 run with every
    binding of the transposes made to raise: only the oracle transposes."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the arithmetic under test transposed")

    transposes = (linalg.transpose_packed, linalg.mat_transpose)
    for mod in _charfield2_modules():
        for attr, obj in list(vars(mod).items()):
            if any(obj is fn for fn in transposes):
                monkeypatch.setattr(mod, attr, forbidden)
    with pytest.raises(AssertionError):
        tables.normal_table_set(NB2)
    rng = random.Random(4)
    for n in (2, 4):
        nb = get_fixture(n).basis()
        normal.normal_mul(nb, rng.getrandbits(n), rng.getrandbits(n))
        for kind in xb.KINDS:
            ctx = cli._basis_for_kind(kind, n)
            if ctx is not None:
                x = xb.ExtElem(tuple(rng.getrandbits(n) for _ in range(ctx.d)))
                xb.mul(ctx, x, x)
                xb.square(ctx, x)


@pytest.mark.parametrize("kind", ["as2", "k3", "asw4", "ka6"])
def test_closed_form_counts_match_brute_force(kind):
    """Every fixture n <= 12 with m = d n <= 64: as2 always, asw4 at even n,
    k3 where the generator is a primitive non-cube, ka6 where the quadratic
    generator is a non-cube."""
    checked = 0
    for n in (n for n in fixture_degrees() if n <= 12):
        if kind == "asw4" and n % 2 or kind == "ka6" and 6 * n > 64:
            continue
        try:
            ext = xb.build_kind(get_fixture(n).basis(), kind)
        except (NoKummerExtensionError, UnsupportedDegreeError):
            assert kind in ("k3", "ka6")
            continue
        ts = tables.build_tables(tables.build_embedding(ext))
        expected = tables.expected_counts(ext.base, kind)
        assert ts.per_table_nonzeros == expected, n
        assert ts.density == sum(expected)
        checked += 1
    assert checked == {"as2": 7, "k3": 3, "asw4": 6, "ka6": 4}[kind]


def test_expected_density_formulas():
    for nb in (NB2, NB4, NB6):
        cs = normal.cross_product_sum(nb)
        assert tables.expected_density(nb, "as2") == 4 * nb.density + cs
        assert tables.expected_density(nb, "k3") == 6 * nb.density + 3 * cs
        for kind in xb.KINDS:
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
