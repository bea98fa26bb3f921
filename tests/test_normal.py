"""Tests for normal bases, their structure tables, and cross-product sums."""

import random
import sys
from itertools import islice

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
    orbit = normal.conjugates(F16, 0b1000)
    assert len(orbit) == 4
    assert orbit[0] == 0b1000
    for i in range(3):
        assert orbit[i + 1] == gf.square(F16, orbit[i])
    # one more squaring wraps around
    assert gf.square(F16, orbit[-1]) == orbit[0]


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
        assert trace == sum(gf.trace(ctx, 1 << i) << i for i in range(ctx.n))
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


def test_cross_product_sum_matches_field_arithmetic():
    bases = [fixtures.get_fixture(n).basis()
             for n in fixtures.fixture_degrees() if n <= 12]
    for nb in bases + _searched_bases():
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
    with pytest.raises(DomainError):
        normal.search_normal_elements(F16, limit=0)


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


@pytest.mark.parametrize("n", range(1, 15))
def test_block_scan_matches_the_predicate(monkeypatch, n):
    """Under three low-weight moduli per degree (every modulus there is at
    n <= 3), the block scan lists exactly the candidates is_normal_element
    accepts, and up to n = 12 its primitive path exactly those of them that
    are primitive, with one orbit test per n normal elements. Below n = 8
    one block is the whole field."""
    calls = {}
    monkeypatch.setattr(gf, "_primitive_orbit",
                        _counting(calls, "orbit", gf._primitive_orbit))
    for f in _low_weight_irreducibles(n):
        ctx = gf.FieldCtx(f)
        normals = [a for a in range(1 << n) if normal.is_normal_element(ctx, a)]
        assert list(normal.normal_elements(ctx)) == normals, f
        if n <= 12:
            want = [a for a in normals if gf.is_primitive(ctx, a)]
            calls.clear()
            assert list(normal.normal_elements(ctx, require_primitive=True)) == want, f
            assert len(normals) % n == 0 and calls == {"orbit": len(normals) // n}, f


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
    """Deterministic cost guard: the first 50 primitive normal elements under
    1+x^3+x^12 lie among 143 normal elements in 87 orbits, and take 87 orbit
    tests and 227 conjugate product chains."""
    ctx = gf.FieldCtx(bitpoly.parse("1+x^3+x^12"))
    calls = {}
    monkeypatch.setattr(gf, "_primitive_orbit",
                        _counting(calls, "orbit", gf._primitive_orbit))
    monkeypatch.setattr(gf, "_conjugate_power",
                        _counting(calls, "chain", gf._conjugate_power))
    hits = normal.search_normal_elements(ctx, require_primitive=True, limit=50)
    assert len(hits) == 50
    assert calls == {"orbit": 87, "chain": 227}


def test_search_primitive_filter():
    prim = normal.search_normal_elements(F16, require_primitive=True)
    assert prim
    assert all(gf.is_primitive(F16, a) for a in prim)
    assert all(normal.is_normal_element(F16, a) for a in prim)
    assert set(prim) <= set(normal.search_normal_elements(F16))
