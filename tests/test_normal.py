"""Tests for normal bases, their structure tables, and cross-product sums."""

import random
import sys
from functools import partial, reduce
from itertools import islice
from operator import xor

import pytest
from hypothesis import given, settings, strategies as st

from charfield2 import bitpoly, extbasis, field as gf, fixtures, linalg, normal
from charfield2.errors import (DomainError, InvalidElementError, NoKummerExtensionError,
                               NotNormalError, UnsupportedDegreeError)
from charfield2.linalg import mat_rank

F4 = gf.FieldCtx(0b111)
F16 = gf.FieldCtx(0b10011)
F64 = gf.FieldCtx(0b1000011)  # 1+x+x^6
NB2 = normal.build_normal_basis(F4, 0b10)        # alpha = x
NB4 = normal.build_normal_basis(F16, 0b1000)     # alpha = x^3
NB6 = normal.build_normal_basis(F64, 0b111000)   # alpha = x^3+x^4+x^5


def test_rotl_cycles_bits():
    assert normal.rotl(0b0001, 1, 4) == 0b0010
    assert normal.rotl(0b1000, 1, 4) == 0b0001
    assert normal.rotl(0b1001, 2, 4) == 0b0110
    assert normal.rotl(0b1001, 0, 4) == 0b1001
    assert normal.rotl(0b1001, 4, 4) == 0b1001
    assert normal.rotl(0b1001, -1, 4) == normal.rotl(0b1001, 3, 4)


def test_conjugates_are_frobenius_orbit():
    """conjugates equals repeated field.square, and one more squaring wraps
    around: on every fixture field, for 0, 1, the fixture's normal element,
    random elements (most of them not normal) and elements of each proper
    subfield F_(2^d), d | n (the powers b^((2^n - 1)/(2^d - 1)), whose
    orbits are shorter than n), and under the n = 64 modulus."""
    rng = random.Random(20261021)
    fields = [fixtures.get_fixture(n).basis() for n in fixtures.fixture_degrees()]
    fields = [(nb.field, nb.alpha) for nb in fields]
    fields.append((gf.FieldCtx(bitpoly.min_irreducible(64)), 1 << 61))
    for ctx, alpha in fields:
        n = ctx.n
        elements = [0, 1, alpha] + [rng.getrandbits(n) for _ in range(20)]
        for d in (d for d in range(1, n) if n % d == 0):
            e = ((1 << n) - 1) // ((1 << d) - 1)
            elements += [gf.power(ctx, rng.getrandbits(n) or 1, e) for _ in range(3)]
        assert any(not normal.is_normal_element(ctx, a) for a in elements)
        for a in elements:
            orbit = normal.conjugates(ctx, a)
            assert orbit == gf._frobenius_orbit(partial(gf.square, ctx), a, n), (ctx, a)
            assert gf.square(ctx, orbit[-1]) == a


def test_squaring_map_is_built_on_first_read():
    """A field builds no squaring map for a normality test or a scan; the
    first conjugates call builds it, and later calls and reads keep it."""
    ctx = gf.FieldCtx(bitpoly.min_irreducible(12))
    hits = normal.search_normal_elements(ctx, limit=5)
    assert normal.is_normal_element(ctx, hits[0])
    assert ctx._squaring_map is None
    normal.conjugates(ctx, hits[0])
    built = ctx._squaring_map
    assert built is not None and ctx.squaring_map is built
    normal.build_normal_basis(ctx, hits[1])
    assert ctx.squaring_map is built


def test_basis_construction_operation_counts(monkeypatch):
    """Deterministic cost guard: building a basis, on a fresh field or on
    one whose squaring map is built, makes one bitpoly.poly_mul and one
    field.reduce_lanes for rows 0 .. n//2 of T, and no field.poly_mul_mod
    and no field.square."""
    counted = (bitpoly.poly_mul, gf.reduce_lanes, gf.poly_mul_mod, gf.square)
    calls = {}
    for mod in [m for name, m in sys.modules.items()
                if name == "charfield2" or name.startswith("charfield2.")]:
        for attr, obj in list(vars(mod).items()):
            if any(obj is fn for fn in counted):
                monkeypatch.setattr(mod, attr, _counting(calls, obj.__name__, obj))
    for n in (1, 2, 3, 8, 12, 26, 64):
        ctx = gf.FieldCtx(bitpoly.min_irreducible(n))
        alpha = next(normal.normal_elements(ctx))
        for _ in range(2):
            calls.clear()
            normal.build_normal_basis(ctx, alpha)
            assert calls == {"poly_mul": 1, "reduce_lanes": 1}, n


def test_cross_sum_at_n64_is_pinned():
    """The cross sum of x^61, the first normal element under
    min_irreducible(64): a 64 x 64 elimination, the eight-window squaring
    map and T from one packed product together."""
    ctx = gf.FieldCtx(bitpoly.min_irreducible(64))
    nb = normal.build_normal_basis(ctx, 1 << 61)
    assert normal.cross_product_sum(nb) == 130517


def test_is_normal_element_known_cases():
    assert not normal.is_normal_element(F16, 0)
    assert not normal.is_normal_element(F16, 1)       # orbit {1} cannot span
    assert not normal.is_normal_element(F16, 0b10)    # x is not normal here
    assert normal.is_normal_element(F16, 0b1000)      # x^3 is
    assert normal.is_normal_element(F4, 0b10)
    count = sum(normal.is_normal_element(F16, a) for a in range(16))
    assert count == 8  # brute census of F_16


def test_build_rejects_non_normal():
    with pytest.raises(NotNormalError):
        normal.build_normal_basis(F16, 0b10)
    with pytest.raises(NotNormalError):
        normal.build_normal_basis(F16, 0)
    for bad in (16, -1):
        with pytest.raises(InvalidElementError):
            normal.build_normal_basis(F16, bad)


def _rank_normal(ctx, a):
    """The reference test: a is normal iff its n conjugates have rank n."""
    return mat_rank(normal.conjugates(ctx, a), ctx.n) == ctx.n


def _least_irreducibles(n, count=2):
    """The `count` least irreducibles of degree n with constant term 1."""
    odd = range((1 << n) | 1, 1 << (n + 1), 2)
    return list(islice(filter(bitpoly.is_irreducible, odd), count))


@pytest.mark.parametrize("n", range(1, 13))
def test_criterion_matches_rank_for_every_element(n):
    """Under two moduli per degree (one where only one exists), the annihilator
    criterion agrees with the rank everywhere, and the scan, which skips the
    trace-0 prefix, returns exactly the elements of full rank."""
    for f in _least_irreducibles(n):
        ctx = gf.FieldCtx(f)
        normals = [a for a in range(1 << n) if _rank_normal(ctx, a)]
        assert [a for a in range(1 << n) if normal.is_normal_element(ctx, a)] == normals
        assert normal.search_normal_elements(ctx) == normals


def _frobenius_poly(ctx, phi, b):
    """phi(Frobenius)(b) = sum of b^(2^j) over the terms x^j of phi."""
    out = 0
    for j in range(phi.bit_length()):
        if phi >> j & 1:
            out ^= gf.frobenius(ctx, b, j)
    return out


@pytest.mark.parametrize("n", range(13, 65))
def test_criterion_matches_rank_on_seeded_draws(n):
    """300 uniform draws, plus three elements phi(Frobenius)(b) of trace 1 for
    each irreducible phi != x + 1 dividing x^n - 1: these are never normal,
    and only the matrix for phi can reject them."""
    ctx = gf.FieldCtx(bitpoly.min_irreducible(n))
    rng = random.Random(f"normal:{n}")
    for _ in range(300):
        a = rng.getrandbits(n)
        assert normal.is_normal_element(ctx, a) == _rank_normal(ctx, a)
    for phi in bitpoly.xn_minus_1_factors(n)[0][1:]:
        for _ in range(3):
            b = rng.getrandbits(n)
            while gf.trace(ctx, b) != 1:
                b = rng.getrandbits(n)
            a = _frobenius_poly(ctx, phi, b)
            assert gf.trace(ctx, a) == 1
            assert not _rank_normal(ctx, a)
            assert not normal.is_normal_element(ctx, a)


@pytest.mark.parametrize("n", range(1, 15))
def test_scan_count_is_phi2(n):
    """The exhaustive scan finds Phi_2(x^n - 1) normal elements: with
    x^n - 1 = prod phi^m, m = 2^e, that is prod (2^(m deg phi) - 2^((m-1) deg phi))."""
    factors, e = bitpoly.xn_minus_1_factors(n)
    m = 2 ** e
    want = 1
    for phi in factors:
        d = bitpoly.degree(phi)
        want *= 2 ** (m * d) - 2 ** ((m - 1) * d)
    ctx = gf.FieldCtx(bitpoly.min_irreducible(n))
    assert len(normal.search_normal_elements(ctx)) == want


def test_trace_functional_and_scan_start():
    """The trace in ctx.normality_maps is Tr on each monomial. Under 1+x+x^28
    every candidate below x^27 has trace 0, and x^27 is the first hit."""
    f28 = gf.FieldCtx(bitpoly.min_irreducible(28))
    for ctx in (F4, F16, F64, f28):
        trace, _ = ctx.normality_maps
        assert trace == sum(reduce(xor, gf._frobenius_orbit(partial(gf.square, ctx), 1 << i, ctx.n))
                            << i for i in range(ctx.n))
    assert ((1 << 27) - 1) & f28.normality_maps[0] == 0
    assert normal.search_normal_elements(f28, limit=1) == [1 << 27]


def test_coordinate_round_trip():
    for nb in (NB2, NB4, NB6):
        for p in range(min(1 << nb.n, 256)):
            assert nb.to_poly(nb.to_normal(p)) == p
        assert nb.to_normal(nb.alpha) == 1
        assert nb.one() == nb.to_normal(1)
        assert nb.to_poly(nb.one()) == 1
    with pytest.raises(DomainError):
        NB4.to_poly(16)


def test_one_is_all_ones_vector():
    """The identity decomposes as the sum of all conjugates in a normal basis."""
    for nb in (NB2, NB4, NB6):
        assert nb.one() == (1 << nb.n) - 1


def test_table_rows_reconstruct_products():
    for nb in (NB2, NB4, NB6):
        for i in range(nb.n):
            lhs = gf.poly_mul_mod(nb.field, nb.alpha, nb.conj[i])
            assert nb.to_poly(nb.table[i]) == lhs


def test_weight_and_density_accounting():
    assert NB2.weight == 3 and NB2.density == 6
    assert NB4.weight == 7 and NB4.density == 28
    assert NB6.weight == 11 and NB6.density == 66
    for nb in (NB2, NB4, NB6):
        assert nb.weight == sum(bin(r).count("1") for r in nb.table)
        assert nb.density == nb.n * nb.weight


def test_frobenius_shift_matches_field_frobenius():
    for nb in (NB2, NB4, NB6):
        for p in range(min(1 << nb.n, 128)):
            v = nb.to_normal(p)
            assert nb.to_poly(normal.frobenius_shift(nb.n, v)) == gf.square(nb.field, p)
            w = v
            for _ in range(nb.n):
                w = normal.frobenius_shift(nb.n, w)
            assert w == v


def test_alpha_mul_matches_field_product():
    for nb in (NB2, NB4, NB6):
        for p in range(min(1 << nb.n, 128)):
            v = nb.to_normal(p)
            expected = gf.poly_mul_mod(nb.field, nb.alpha, p)
            assert nb.to_poly(normal.alpha_mul(nb, v)) == expected


def test_alpha_mul_is_the_table_vector_product():
    """alpha_mul's prepared map gives row_apply(T, v), one step per set bit:
    for every v at each fixture n <= 10, and for 200 seeded v at n = 26 and
    at n = 64 (the first normal element under min_irreducible(64)), where
    the map has 4 and 8 byte windows."""
    for n in (n for n in fixtures.fixture_degrees() if n <= 10):
        nb = fixtures.get_fixture(n).basis()
        for v in range(1 << n):
            assert normal.alpha_mul(nb, v) == linalg.row_apply(nb.table, v), (n, v)
    ctx = gf.FieldCtx(bitpoly.min_irreducible(64))
    rng = random.Random(20261020)
    for nb in (fixtures.get_fixture(26).basis(),
               normal.build_normal_basis(ctx, next(normal.normal_elements(ctx)))):
        for v in [rng.getrandbits(nb.n) for _ in range(200)] + [nb.field.mask]:
            assert normal.alpha_mul(nb, v) == linalg.row_apply(nb.table, v), (nb, v)


def test_alpha_mul_prepares_its_map_on_the_first_call(monkeypatch):
    """Building a basis and every kind that builds over it leaves alpha_mul's
    map unbuilt; the first alpha_mul prepares it from T, once, and keeps it
    on the basis for the later calls."""
    ctx = gf.FieldCtx(bitpoly.min_irreducible(8))
    nb = normal.build_normal_basis(ctx, next(normal.normal_elements(ctx)))
    for kind in extbasis.KINDS:
        try:
            extbasis.build_kind(nb, kind)
        except (UnsupportedDegreeError, NoKummerExtensionError):
            pass
    assert nb._alpha_windows is None
    built = []

    def spy(rows):
        built.append(list(rows))
        return linalg.PreparedMap(rows)
    monkeypatch.setattr(normal, "PreparedMap", spy)
    for v in range(1 << nb.n):
        assert normal.alpha_mul(nb, v) == linalg.row_apply(nb.table, v)
    assert built == [nb.table]
    assert nb._alpha_windows == linalg.PreparedMap(nb.table).windows


@given(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=63))
def test_normal_mul_matches_field_product(u, v):
    pu, pv = NB6.to_poly(u), NB6.to_poly(v)
    expected = gf.poly_mul_mod(F64, pu, pv)
    assert NB6.to_poly(normal.normal_mul(NB6, u, v)) == expected


def _searched_bases():
    """Two seeded bases among the first 40 normal elements under
    min_irreducible(n), at each odd n = 3..11."""
    rng = random.Random(20261018)
    bases = []
    for n in (3, 5, 7, 9, 11):
        ctx = gf.FieldCtx(bitpoly.min_irreducible(n))
        hits = normal.search_normal_elements(ctx, limit=40)
        bases += [normal.build_normal_basis(ctx, a) for a in rng.sample(hits, 2)]
    return bases


def _arith_basis_64():
    """The n = 64 basis of the arith benchmark: the first normal element drawn
    by random.Random(2) under min_irreducible(64) over which all four kinds
    build."""
    ctx = gf.FieldCtx(bitpoly.min_irreducible(64))
    rng = random.Random(2)
    while True:
        a = rng.getrandbits(64)
        if not normal.is_normal_element(ctx, a):
            continue
        nb = normal.build_normal_basis(ctx, a)
        try:
            for kind in extbasis.KINDS:
                extbasis.build_kind(nb, kind)
        except (UnsupportedDegreeError, NoKummerExtensionError):
            continue
        return nb


def _operand_pairs(nb, rng, count):
    """`count` seeded pairs, plus 0, one(), all-ones and every unit vector,
    each against itself, the others and a seeded operand on either side."""
    n = nb.n
    edges = [0, nb.one(), nb.field.mask] + [1 << i for i in range(n)]
    pairs = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(count)]
    pairs += [(e, f) for e in edges[:3] for f in edges]
    pairs += [(e, rng.getrandbits(n)) for e in edges]
    pairs += [(rng.getrandbits(n), e) for e in edges]
    return pairs


def _field_product(nb, u, v):
    return nb.to_normal(gf.poly_mul_mod(nb.field, nb.to_poly(u), nb.to_poly(v)))


def test_normal_mul_matches_field_product_on_many_bases():
    """Every fixture (n = 1..26), two searched bases at each odd n = 3..11 and
    the dense n = 64 basis of the arith benchmark."""
    bases = [fixtures.get_fixture(n).basis() for n in fixtures.fixture_degrees()]
    bases += _searched_bases() + [_arith_basis_64()]
    rng = random.Random(20261019)
    for nb in bases:
        for u, v in _operand_pairs(nb, rng, 60):
            assert normal.normal_mul(nb, u, v) == _field_product(nb, u, v), (nb, u, v)


def test_normal_mul_never_builds_the_product_tables(monkeypatch):
    """The product reads only the base table: with mul_rows refusing to be
    built, products still come out right."""
    def refuse(self):
        raise AssertionError("normal_mul built the n^3-bit product tables")

    monkeypatch.setattr(normal.NormalBasisCtx, "mul_rows", property(refuse))
    rng = random.Random(20261020)
    for n in (1, 2, 12, 26):
        nb = fixtures.get_fixture(n).basis()
        for u, v in _operand_pairs(nb, rng, 20):
            assert normal.normal_mul(nb, u, v) == _field_product(nb, u, v)


def test_product_terms_are_built_on_the_first_product():
    """A basis lists no product terms until its first normal_mul: building
    it, its cross sum and its coordinate maps leave them unbuilt. The terms
    are then the set-bit positions of T[0] .. T[n // 2]."""
    ctx = gf.FieldCtx(bitpoly.min_irreducible(12))
    nb = normal.build_normal_basis(ctx, next(normal.normal_elements(ctx)))
    normal.cross_product_sum(nb)
    u, v = nb.to_normal(0b101), nb.one()
    assert nb._mul_terms is None
    assert normal.normal_mul(nb, u, v) == _field_product(nb, u, v) == u
    assert nb._mul_terms == [tuple(j for j in range(12) if r >> j & 1)
                             for r in nb.table[:7]]


def _log_route_bases():
    """At each n = 1 .. LOG_TABLE_MAX_N, a basis over min_irreducible(n) and
    one over the densest irreducible of degree n (the greatest of most
    terms), each on its modulus's least normal element."""
    bases = []
    for n in range(1, normal.LOG_TABLE_MAX_N + 1):
        dense = max((f for f in range(1 << n, 2 << n) if bitpoly.is_irreducible(f)),
                    key=lambda f: (bitpoly.weight(f), f))
        for modulus in (bitpoly.min_irreducible(n), dense):
            ctx = gf.FieldCtx(modulus)
            bases.append(normal.build_normal_basis(ctx, next(normal.normal_elements(ctx))))
    return bases


def test_log_route_matches_field_product_at_every_small_degree():
    """At n = 1 .. 8 normal_mul is two table lookups; it equals the field
    product on every pair of operands up to n = 6 and on 3000 seeded pairs
    and the edge pairs at n = 7 and 8, over both moduli of each degree."""
    bases = _log_route_bases()
    assert [nb.n for nb in bases] == [n for n in range(1, 9) for _ in range(2)]
    assert {nb.field.modulus for nb in bases[:4]} == {0b11, 0b111}
    rng = random.Random(20261020)
    for nb in bases:
        n = nb.n
        if n <= 6:
            pairs = [(u, v) for u in range(1 << n) for v in range(1 << n)]
        else:
            pairs = _operand_pairs(nb, rng, 3000)
        for u, v in pairs:
            assert normal.normal_mul(nb, u, v) == _field_product(nb, u, v), (nb, u, v)
        assert nb._log_exp is not None and nb._mul_terms is None


def test_log_tables_are_built_on_the_first_product():
    """A basis at n <= 8 builds no logarithm tables until its first
    normal_mul: building it, its cross sum, its coordinate maps and alpha_mul
    leave them unbuilt. exp is doubled, log inverts its first half, and
    exp[1] is the least element in normal coordinates of order 2^n - 1."""
    ctx = gf.FieldCtx(bitpoly.min_irreducible(8))
    nb = normal.build_normal_basis(ctx, next(normal.normal_elements(ctx)))
    normal.cross_product_sum(nb)
    u = nb.to_normal(0b101)
    assert nb.to_poly(normal.alpha_mul(nb, u)) == gf.poly_mul_mod(ctx, nb.alpha, 0b101)
    assert nb._log_exp is None
    assert normal.normal_mul(nb, u, nb.one()) == _field_product(nb, u, nb.one()) == u
    log, exp = nb._log_exp
    assert len(log) == 256 and exp[:255] == exp[255:] and len(exp) == 510
    assert sorted(exp[:255]) == list(range(1, 256)) and exp[0] == nb.one()
    assert all(log[x] == k for k, x in enumerate(exp[:255]))
    g = exp[1]
    assert gf.is_primitive(ctx, nb.to_poly(g))
    assert not any(gf.is_primitive(ctx, nb.to_poly(x)) for x in range(1, g))
    assert nb._mul_terms is None


def test_log_tables_are_never_built_above_degree_8(monkeypatch):
    """From n = 9 up normal_mul walks T: with the table builder refusing to
    run, products at n = 9 .. 12 (the least normal element under
    min_irreducible(n)), on the fixtures at 10, 12 and 26 and on the arith
    benchmark's n = 64 basis still come out right and list their T walk's
    terms."""
    def refuse(nb):
        raise AssertionError("normal_mul built logarithm tables above n = 8")

    monkeypatch.setattr(normal, "_log_tables", refuse)
    bases = [fixtures.get_fixture(n).basis() for n in (10, 12, 26)]
    for n in range(9, 13):
        ctx = gf.FieldCtx(bitpoly.min_irreducible(n))
        bases.append(normal.build_normal_basis(ctx, next(normal.normal_elements(ctx))))
    bases.append(_arith_basis_64())
    rng = random.Random(20261021)
    for nb in bases:
        for u, v in _operand_pairs(nb, rng, 20):
            assert normal.normal_mul(nb, u, v) == _field_product(nb, u, v)
        assert nb._log_exp is None and nb._mul_terms is not None


def test_mul_rows_shift_structure():
    """Entry (i, j) of table k equals entry ((j-i) mod n, (k-i) mod n) of the base table."""
    for nb in (NB2, NB4, NB6):
        n = nb.n
        for k in range(n):
            rows = nb.mul_rows[k]
            for i in range(n):
                for j in range(n):
                    expect = (nb.table[(j - i) % n] >> ((k - i) % n)) & 1
                    assert (rows[i] >> j) & 1 == expect


def test_cross_product_sum_small_values():
    f2 = gf.FieldCtx(0b11)
    nb1 = normal.build_normal_basis(f2, 1)
    assert normal.cross_product_sum(nb1) == 1
    assert normal.cross_product_sum(NB2) == 5
    assert normal.cross_product_sum(NB4) == 25
    assert normal.cross_product_sum(NB6) == 101


def _cross_sum_by_field_products(nb):
    """sum over i, j of the weight of alpha * alpha^(2^i) * alpha^(2^j),
    multiplied out in the polynomial basis and converted once."""
    ctx, conj = nb.field, nb.conj
    return sum(nb.to_normal(gf.poly_mul_mod(
                   ctx, nb.alpha, gf.poly_mul_mod(ctx, ci, cj))).bit_count()
               for ci in conj for cj in conj)


def _random_bases(degrees):
    """Two seeded random normal elements under min_irreducible(n) for each
    n in `degrees`, as bases."""
    rng = random.Random(20261022)
    bases = []
    for n in degrees:
        ctx = gf.FieldCtx(bitpoly.min_irreducible(n))
        draws = iter(partial(rng.getrandbits, n), None)
        bases += [normal.build_normal_basis(ctx, a)
                  for a in islice(filter(partial(normal.is_normal_element, ctx), draws), 2)]
    return bases


def test_cross_product_sum_matches_field_arithmetic():
    """Every fixture with n <= 12, the searched bases and two seeded random
    bases at each n = 1..20."""
    bases = [fixtures.get_fixture(n).basis()
             for n in fixtures.fixture_degrees() if n <= 12]
    for nb in bases + _searched_bases() + _random_bases(range(1, 21)):
        assert normal.cross_product_sum(nb) == _cross_sum_by_field_products(nb), nb


def test_product_planes_are_the_products_of_two_conjugates():
    """Bit i m + j of plane k is bit k of alpha^(2^i) * alpha^(2^j), and no
    other bit is set, in lanes of m = n, 2n, 3n, 4n and 6n bits, on the
    n = 1 basis, NB2, NB4, NB6 and every fixture with n <= 12."""
    bases = [normal.build_normal_basis(gf.FieldCtx(0b11), 1), NB2, NB4, NB6]
    bases += [fixtures.get_fixture(n).basis() for n in fixtures.fixture_degrees() if n <= 12]
    for nb in bases:
        n, conj = nb.n, nb.conj
        products = [[nb.to_normal(gf.poly_mul_mod(nb.field, ci, cj)) for cj in conj]
                    for ci in conj]
        for m in (n, 2 * n, 3 * n, 4 * n, 6 * n):
            want = [sum((products[i][j] >> k & 1) << (i * m + j)
                        for i in range(n) for j in range(n)) for k in range(n)]
            assert normal.product_planes(linalg.mat_transpose(nb.table, n), m) == want, (nb, m)


def test_table_is_the_full_product_table():
    """Only rows 0 .. n//2 of T are field products, yet row i is alpha *
    alpha^(2^i) for every i: on every fixture (n = 1 and 2, where the
    products cover every row), the searched bases (n = 3, where one row is
    rotated) and the dense n = 64 basis of the arith benchmark."""
    bases = [fixtures.get_fixture(n).basis() for n in fixtures.fixture_degrees()]
    for nb in bases + _searched_bases() + [_arith_basis_64()]:
        want = [nb.to_normal(gf.poly_mul_mod(nb.field, nb.alpha, c)) for c in nb.conj]
        assert nb.table == want, nb
    assert {nb.n for nb in bases} >= {1, 2} and 3 in {nb.n for nb in _searched_bases()}


def test_search_normal_elements_ascending_and_limited():
    found = normal.search_normal_elements(F4)
    assert found == sorted(found)
    assert 0b10 in found
    first = normal.search_normal_elements(F16, limit=3)
    assert len(first) == 3
    assert first == normal.search_normal_elements(F16)[:3]
    assert all(normal.is_normal_element(F16, a) for a in first)
    for bad in (0, 2.5, 2.0, "3"):
        with pytest.raises(DomainError):
            normal.search_normal_elements(F16, limit=bad)
    assert normal.search_normal_elements(F16, limit=True) == first[:1]


def _counting(calls, name, fn):
    def wrapper(*args):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args)
    return wrapper


def test_normal_elements_stop_at_the_first_taken(monkeypatch):
    """Making the generator does no work. Each next() examines blocks, one
    parity and one PreparedMap.apply per map each, only up to the block
    holding the element it returns, and runs one primitivity test for each
    orbit among the normal elements it passes. Under 1+x^6+x^9+x^15+x^18
    (two maps besides the trace) one map sends x^0 ... x^8 to 0, so the scan
    starts at the block of x^9 = 512, and the first normal element, 522,
    lies in the first block it examines; under the degree-64 default modulus
    x^61 lies in the first. The scan yields what search_normal_elements
    lists."""
    assert list(normal.normal_elements(F16)) == normal.search_normal_elements(F16)
    assert (list(normal.normal_elements(F16, require_primitive=True))
            == normal.search_normal_elements(F16, require_primitive=True))
    f18 = gf.FieldCtx(bitpoly.parse("1+x^6+x^9+x^15+x^18"))
    f64 = gf.FieldCtx(bitpoly.min_irreducible(64))
    head = list(islice(normal.normal_elements(f18), 301))
    prim_at = next(i for i, a in enumerate(head) if gf.is_primitive(f18, a))
    calls = {}
    monkeypatch.setattr(normal, "parity", _counting(calls, "parity", normal.parity))
    monkeypatch.setattr(normal, "PreparedMap",
                        _counting(calls, "PreparedMap", normal.PreparedMap))
    monkeypatch.setattr(linalg.PreparedMap, "apply",
                        _counting(calls, "apply", linalg.PreparedMap.apply))
    monkeypatch.setattr(gf, "_primitive_orbit",
                        _counting(calls, "orbit", gf._primitive_orbit))
    scan = normal.normal_elements(f18)
    assert calls == {}
    assert next(scan) == head[0] == 522
    assert calls == {"PreparedMap": 3, "parity": 1, "apply": 2}
    calls.clear()
    assert list(islice(scan, 300)) == head[1:]
    blocks = (head[-1] >> 8) - (head[0] >> 8)
    assert calls == {"parity": blocks, "apply": 2 * blocks}
    calls.clear()
    assert next(normal.normal_elements(f18, require_primitive=True)) == head[prim_at]
    orbits = {min(normal.conjugates(f18, a)) for a in head[:prim_at + 1]}
    assert calls["orbit"] == len(orbits) and calls["parity"] == 1
    calls.clear()
    assert next(normal.normal_elements(f64)) == 1 << 61
    assert calls == {"PreparedMap": 1, "parity": 1}


def test_normal_elements_start_past_the_prefix_any_map_kills(monkeypatch):
    """Under 1+x+x^63 a map sends x^0 ... x^30 to 0, so no element below 2^31
    is normal, though the trace keeps x^0; the scan starts at the block of
    x^31 and its first element is 1 + x^31. Under min_irreducible(n) for
    every n <= 64, the first normal element lies in the first block the
    scan examines: one parity and one PreparedMap.apply per map."""
    f63 = gf.FieldCtx(bitpoly.min_irreducible(63))
    trace, maps = f63.normality_maps
    assert f63.modulus == 1 | 1 << 1 | 1 << 63 and trace & 1
    assert max(next(j for j, row in enumerate(m) if row) for m in maps) == 31
    assert next(normal.normal_elements(f63)) == 1 | 1 << 31
    calls = {}
    monkeypatch.setattr(normal, "parity", _counting(calls, "parity", normal.parity))
    monkeypatch.setattr(linalg.PreparedMap, "apply",
                        _counting(calls, "apply", linalg.PreparedMap.apply))
    for n in range(1, 65):
        ctx = gf.FieldCtx(bitpoly.min_irreducible(n))
        maps = len(ctx.normality_maps[1])
        calls.clear()
        first = next(normal.normal_elements(ctx))
        assert calls == ({"parity": 1, "apply": maps} if maps else {"parity": 1}), n
        assert normal.is_normal_element(ctx, first), n


def _low_weight_irreducibles(n, count=3):
    """The `count` least irreducibles of degree n among those of fewest
    terms, then of the next fewest (fewer where fewer exist)."""
    odd = sorted(range((1 << n) | 1, 1 << (n + 1), 2), key=lambda f: (f.bit_count(), f))
    return list(islice(filter(bitpoly.is_irreducible, odd), count))


def _counting_walks(monkeypatch):
    """The length of each PreparedMap.cycle walk from now on, in order."""
    walks = []
    cycle = linalg.PreparedMap.cycle

    def counted(pm, v):
        out = cycle(pm, v)
        walks.append(len(out))
        return out
    monkeypatch.setattr(linalg.PreparedMap, "cycle", counted)
    return walks


@pytest.mark.parametrize("n", range(1, 15))
def test_block_scan_matches_the_predicate(monkeypatch, n):
    """Under three low-weight moduli per degree (every modulus there is at
    n <= 3), the block scan lists exactly the candidates is_normal_element
    accepts, and its primitive path exactly those of them that are
    primitive. Up to n = 12 that path reads the field's primitive flags:
    one walk of 2^n - 1 steps, and no orbit test past the search for the
    least primitive element, which the walk starts from. At n = 13 and 14
    it makes no walk and one orbit test per n normal elements. Below n = 8
    one block is the whole field."""
    calls = {}
    monkeypatch.setattr(gf, "_primitive_orbit",
                        _counting(calls, "orbit", gf._primitive_orbit))
    walks = _counting_walks(monkeypatch)
    for f in _low_weight_irreducibles(n):
        ctx = gf.FieldCtx(f)
        normals = [a for a in range(1 << n) if normal.is_normal_element(ctx, a)]
        assert list(normal.normal_elements(ctx)) == normals, f
        want = [a for a in normals if gf.is_primitive(ctx, a)]
        least = next(a for a in range(1, 1 << n) if gf.is_primitive(ctx, a))
        calls.clear()
        assert list(normal.normal_elements(ctx, require_primitive=True)) == want, f
        if n <= gf.PRIMITIVE_FLAGS_MAX_N:
            assert calls == {"orbit": least} and walks == [(1 << n) - 1], f
        else:
            assert len(normals) % n == 0 and calls == {"orbit": len(normals) // n}, f
            assert walks == [] and ctx._primitive_flags is None, f
        walks.clear()


def test_block_scan_matches_the_predicate_at_degree_16():
    """Under the eight least pentanomials of degree 16 (there is no
    irreducible trinomial of that degree), the moduli the search benchmark
    draws its n = 16 scan from, the block scan lists exactly the candidates
    is_normal_element accepts among all 2^16: the 2^15 whose trace is 1."""
    moduli = _low_weight_irreducibles(16, 8)
    assert [f.bit_count() for f in moduli] == [5] * 8
    for f in moduli:
        ctx = gf.FieldCtx(f)
        normals = [a for a in range(1 << 16) if normal.is_normal_element(ctx, a)]
        assert len(normals) == 2 ** 15, f
        assert list(normal.normal_elements(ctx)) == normals, f


def test_full_blocks_come_out_as_ranges():
    """A block that holds all 2^min(n, 8) of its candidates is a range, and
    every other block is not. n = 16 is a power of two, so there are no maps
    besides the trace, and under each of the eight least pentanomials the
    trace kills x^0 ... x^8: every non-empty block is full, 128 of them
    holding the 2^15 normal elements. Under 1+x^3+x^12, 1+x^9+x^18 and
    1+x^3+x^20 a map removes some low values from every non-empty block
    among the first 64 the scan examines, and at n = 8 one block is the
    whole field, 0 included."""
    for f in _low_weight_irreducibles(16, 8):
        sizes = [(isinstance(block, range), len(list(block)))
                 for block in normal._normal_blocks(gf.FieldCtx(f), False)]
        assert all(is_range == (size == 256) for is_range, size in sizes), f
        assert sizes.count((True, 256)) == 128 and set(sizes) <= {(True, 256), (False, 0)}, f
    for modulus in ("1+x^3+x^12", "1+x^9+x^18", "1+x^3+x^20", "1+x^2+x^3+x^4+x^8"):
        ctx = gf.FieldCtx(bitpoly.parse(modulus))
        size = 1 << min(ctx.n, 8)
        for block in islice(normal._normal_blocks(ctx, False), 64):
            assert not isinstance(block, range) and len(list(block)) < size, modulus


@pytest.mark.parametrize("n", range(1, 13))
def test_primitive_flags_are_the_primitive_elements(n):
    """Entry a of the flags is 1 iff is_primitive(a), over the whole field
    under min_irreducible(n) and under the least trinomial or pentanomial
    of degree n, for every n <= 12; above 12 there are no flags."""
    for f in {bitpoly.min_irreducible(n), _low_weight_irreducibles(n, 1)[0]}:
        ctx = gf.FieldCtx(f)
        flags = ctx.primitive_flags
        assert len(flags) == 1 << n and set(flags) <= {0, 1}, f
        assert [a for a in range(1 << n) if flags[a]] == \
            [a for a in range(1 << n) if gf.is_primitive(ctx, a)], f
    assert gf.FieldCtx(bitpoly.min_irreducible(13)).primitive_flags is None


def test_primitive_scans_by_flags_equal_the_orbit_path(monkeypatch):
    """At n = 12, under the four irreducible trinomials (the moduli the
    search benchmark draws from) and the four least pentanomials, the scans
    at limits 1, 50 and None list the same elements whether they read the
    primitive flags or, with the flags bound set to 0, run the orbit test."""
    moduli = _low_weight_irreducibles(12, 8)
    assert [f.bit_count() for f in moduli] == [3] * 4 + [5] * 4
    for f in moduli:
        by_flags = [normal.search_normal_elements(gf.FieldCtx(f), True, limit)
                    for limit in (1, 50, None)]
        with monkeypatch.context() as m:
            m.setattr(gf, "PRIMITIVE_FLAGS_MAX_N", 0)
            ctx = gf.FieldCtx(f)
            by_orbits = [normal.search_normal_elements(ctx, True, limit)
                         for limit in (1, 50, None)]
            assert ctx._primitive_flags is None
        assert by_flags == by_orbits, f
        assert [len(hits) for hits in by_flags[:2]] == [1, 50], f


def test_primitive_flags_are_built_once_per_field(monkeypatch):
    """The first primitive scan of a field builds its flags by one walk; a
    second scan of the same FieldCtx, and a read of the flags, walk no more
    and run no orbit test. A plain scan builds no flags, and the scan's
    generator builds them only when its first element is asked for."""
    calls = {}
    monkeypatch.setattr(gf, "_primitive_orbit",
                        _counting(calls, "orbit", gf._primitive_orbit))
    walks = _counting_walks(monkeypatch)
    ctx = gf.FieldCtx(bitpoly.parse("1+x^3+x^12"))
    normal.search_normal_elements(ctx, limit=50)
    scan = normal.normal_elements(ctx, require_primitive=True)
    assert ctx._primitive_flags is None and walks == [] and calls == {}
    first = next(scan)
    flags = ctx._primitive_flags
    assert flags is not None and walks == [4095] and calls == {"orbit": 3}
    calls.clear()
    hits = normal.search_normal_elements(ctx, require_primitive=True, limit=50)
    assert hits[0] == first and ctx.primitive_flags is flags
    assert walks == [4095] and calls == {}


def test_is_primitive_never_reads_the_primitive_flags(monkeypatch):
    """is_primitive, multiplicative_order and k3's primitivity check stay
    on the orbit test, independent of the flags the scan reads: with the
    flags made to raise, they still decide every element of F_2^12 and
    build a k3 basis over it (on 515, its first normal element that k3
    accepts), and no field's flags get built."""
    def refuse(ctx):
        raise AssertionError("read the primitive flags")

    monkeypatch.setattr(gf.FieldCtx, "primitive_flags", property(refuse))
    ctx = gf.FieldCtx(bitpoly.parse("1+x^3+x^12"))
    assert sum(map(partial(gf.is_primitive, ctx), range(1 << 12))) == 1728  # phi(4095)
    assert gf.multiplicative_order(ctx, 0b11) == ctx.order  # 1 + x, the least primitive
    assert extbasis.build_kind(normal.build_normal_basis(ctx, 515), "k3").kind == "k3"
    assert ctx._primitive_flags is None


@pytest.mark.parametrize("n,maps", [(15, 4), (21, 5)])
def test_block_scan_matches_the_predicate_under_many_maps(n, maps):
    """At n = 15 and 21, with four and five maps besides the trace, the first
    500 elements of the scan are the first 500 the predicate accepts."""
    ctx = gf.FieldCtx(bitpoly.min_irreducible(n))
    assert len(ctx.normality_maps[1]) == maps
    want = islice((a for a in range(1 << n) if normal.is_normal_element(ctx, a)), 500)
    assert list(islice(normal.normal_elements(ctx), 500)) == list(want)


def test_scan_and_order_operation_counts(monkeypatch):
    """Deterministic cost guard: the exhaustive n = 16 scan calls neither
    is_normal_element nor field.power, and each multiplicative_order call
    squares n - 1 times and calls no field.power."""
    f16 = gf.FieldCtx(bitpoly.min_irreducible(16))
    f64 = gf.FieldCtx(bitpoly.min_irreducible(64))
    calls = {}
    counted = (normal.is_normal_element, gf.power, gf.square)
    for mod in [m for name, m in sys.modules.items()
                if name == "charfield2" or name.startswith("charfield2.")]:
        for attr, obj in list(vars(mod).items()):
            if any(obj is fn for fn in counted):
                monkeypatch.setattr(mod, attr, _counting(calls, obj.__name__, obj))
    assert len(normal.search_normal_elements(f16)) == 2 ** 15
    assert calls == {}
    rng = random.Random(64)
    for ctx in (F64, f64):
        for a in [1, ctx.mask] + [rng.getrandbits(ctx.n) or 1 for _ in range(5)]:
            calls.clear()
            gf.multiplicative_order(ctx, a)
            assert calls == {"square": ctx.n - 1}, a


def test_primitive_scan_operation_counts(monkeypatch):
    """Deterministic cost guard of the orbit path, above the flags bound:
    the first 50 primitive normal elements under 1+x+x^3+x^4+x^13 lie among
    50 normal elements (2^13 - 1 is prime, so every element but 0 and 1 is
    primitive) in 41 orbits, and under 1+x^5+x^14 among 83 in 71 orbits;
    they take one orbit test per orbit, with 41 and 170 conjugate product
    chains, and no walk."""
    calls = {}
    monkeypatch.setattr(gf, "_primitive_orbit",
                        _counting(calls, "orbit", gf._primitive_orbit))
    monkeypatch.setattr(gf, "_conjugate_power",
                        _counting(calls, "chain", gf._conjugate_power))
    walks = _counting_walks(monkeypatch)
    for modulus, normals, orbits, chains in (("1+x+x^3+x^4+x^13", 50, 41, 41),
                                             ("1+x^5+x^14", 83, 71, 170)):
        ctx = gf.FieldCtx(bitpoly.parse(modulus))
        calls.clear()
        walks.clear()  # normal.conjugates below walks the squaring map
        hits = normal.search_normal_elements(ctx, require_primitive=True, limit=50)
        assert len(hits) == 50 and walks == [], modulus
        assert calls == {"orbit": orbits, "chain": chains}, modulus
        scanned = list(islice(normal.normal_elements(ctx), normals))
        assert scanned[-1] == hits[-1], modulus
        assert len({min(normal.conjugates(ctx, a)) for a in scanned}) == orbits, modulus


def test_search_primitive_filter():
    prim = normal.search_normal_elements(F16, require_primitive=True)
    assert prim
    assert all(gf.is_primitive(F16, a) for a in prim)
    assert all(normal.is_normal_element(F16, a) for a in prim)
    assert set(prim) <= set(normal.search_normal_elements(F16))
