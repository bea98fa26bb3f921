"""Tests for the oracle embedding, brute-force tables, and closed-form counts."""

import copy
import hashlib
import random
import sys
import time
from functools import reduce
from itertools import islice
from operator import xor

import pytest
from hypothesis import given, strategies as st

from charfield2 import bitpoly, cli, extbasis as xb, field as gf, linalg, normal, tables
from charfield2.errors import (ConstructionContradictionError, DomainError,
                               InvalidElementError, NoKummerExtensionError,
                               UnsupportedDegreeError)
from charfield2.fixtures import fixture_degrees, get_fixture
from charfield2.linalg import mat_invert, pack_lanes, row_apply, unpack_lanes

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


def test_find_root_over_a_modulus_without_fold_terms():
    """reduce_lanes folds such a big field bit by bit, so root finding and
    the tables need no modulus of few terms."""
    big = gf.FieldCtx(bitpoly.parse("1+x^7+x^12"))
    assert big.fold_terms is None
    for d in (2, 3, 4, 6, 12):
        for f in _first_irreducibles(d, 2):
            coeffs = [(f >> i) & 1 for i in range(d + 1)]
            assert _value(big, coeffs, tables.find_root(big, coeffs)) == 0, f
    c = gf.power(big, 5, 3)
    assert gf.power(big, tables.find_root(big, [c, 0, 0, 1]), 3) == c


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
        return find_root(big, _ref_divmod(big, _ref_monic(big, coeffs), [r, 1])[0])

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


def test_find_root_validates_its_coefficients():
    """A coefficient outside the big field is refused before packing, where
    a negative one or one of more than m bits would spill into other lanes."""
    big = gf.FieldCtx(bitpoly.min_irreducible(8))
    for coeffs in ([-1, 1], [256, 1], [1, 0, 256], [0, -3, 1], [1.0, 1]):
        with pytest.raises(InvalidElementError):
            tables.find_root(big, coeffs)


# --- a list-based schoolbook reference for the packed polynomial helpers ---

F64 = gf.FieldCtx(0b1000011)


def _ref_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _ref_monic(big, p):
    p = _ref_trim(list(p))
    if not p:
        return p
    inv = gf.inverse(big, p[-1])
    return [gf.poly_mul_mod(big, inv, c) for c in p]


def _ref_divmod(big, a, b):
    """Quotient and remainder of a by a nonzero b, one coefficient at a time."""
    a, b = _ref_trim(list(a)), _ref_trim(list(b))
    db = len(b) - 1
    binv = gf.inverse(big, b[-1])
    q = [0] * max(len(a) - db, 0)
    while len(a) > db:
        shift = len(a) - 1 - db
        q[shift] = factor = gf.poly_mul_mod(big, a.pop(), binv)
        for i in range(db):
            a[shift + i] ^= gf.poly_mul_mod(big, factor, b[i])
        _ref_trim(a)
    return _ref_trim(q), a


def _ref_mulmod(big, a, b, mod):
    """a*b mod `mod` by the schoolbook product."""
    out = [0] * (len(a) + len(b))
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] ^= gf.poly_mul_mod(big, u, v)
    return _ref_divmod(big, out, mod)[1]


def _ref_gcd(big, a, b):
    a, b = _ref_trim(list(a)), _ref_trim(list(b))
    while b:
        a, b = b, _ref_divmod(big, a, b)[1]
    return _ref_monic(big, a)


def _packed(big, p):
    return linalg.pack_lanes(p, 2 * big.n)


def _lists(big, p):
    return _ref_trim(list(linalg.unpack_lanes(p, 2 * big.n, 24)))


def _ones(lanes):
    return linalg.pack_lanes([1] * lanes, 2 * F64.n)


# Polynomials over F_64 of up to 10 coefficients: any coefficients, or only
# 0 and 1 (the integer-product path); the empty list is the zero polynomial.
_polys = (st.lists(st.integers(0, 63), max_size=10)
          | st.lists(st.integers(0, 1), max_size=10))
_divisors = _polys.filter(lambda p: any(p))


@given(_polys, _divisors.map(lambda p: _ref_monic(F64, p)))
def test_packed_divmod_matches_the_reference(a, b):
    """Monic divisors, constants included."""
    q, r = tables._fp_divmod(F64, _packed(F64, a), _packed(F64, b), _ones(20))
    assert (_lists(F64, q), _lists(F64, r)) == _ref_divmod(F64, a, b)


@pytest.mark.parametrize("a,b", [([0, 0, 0, 5], [1, 2]), ([1] * 10, [3, 0, 7]),
                                 ([9, 1], [2]), ([0] * 9 + [1], [5, 1, 0, 1, 63])])
def test_a_non_monic_divisor_is_a_contradiction(a, b, monkeypatch):
    """_fp_divmod divides only by monic polynomials: a divisor that is not
    fails the first step, after one product, with no quotient returned."""
    scale = tables._scale
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return scale(*args)

    monkeypatch.setattr(tables, "_scale", counting)
    with pytest.raises(ConstructionContradictionError, match="kept the degree"):
        tables._fp_divmod(F64, _packed(F64, a), _packed(F64, b), _ones(20))
    assert calls == 1


def test_a_wrong_inverse_is_a_contradiction_not_a_hang(monkeypatch):
    """With field.inverse off by one bit, the first division by a non-monic
    polynomial does not cancel its leading term: build_embedding raises the
    typed error at once (these three embeddings each divide by one)."""
    inverse = gf.inverse
    monkeypatch.setattr(gf, "inverse", lambda ctx, a: inverse(ctx, a) ^ 2)
    t0 = time.perf_counter()
    for kind, n in (("k3", 2), ("k3", 8), ("as2", 8)):
        with pytest.raises(ConstructionContradictionError):
            tables.build_embedding(xb.build_kind(get_fixture(n).basis(), kind))
    assert time.perf_counter() - t0 < 0.5


@given(_polys, _polys)
def test_packed_gcd_matches_the_reference(a, b):
    got = tables._fp_gcd(F64, _packed(F64, a), _packed(F64, b), _ones(20))
    assert _lists(F64, got) == _ref_gcd(F64, a, b)


@given(_polys, _divisors)
def test_char2_polynomial_square_matches_the_schoolbook_product(t, h):
    h = _ref_monic(F64, h)
    got = tables._fp_sqmod(F64, _packed(F64, t), _packed(F64, h), _ones(20))
    assert _lists(F64, got) == _ref_mulmod(F64, t, t, h)


# The trace-split gcds each oracle case's embedding takes: one per c = x^j
# tried, summed over the splits of the minimal polynomial p of its subfield's
# generator (in the base field) and of its cubic rules.
ORACLE_GCDS = {("k3", 14): 6, ("k3", 16): 5, ("as2", 18): 4, ("as2", 24): 3,
               ("asw4", 8): 3, ("ka6", 8): 3}


@pytest.mark.parametrize("kind,n", ORACLE_GCDS, ids=[f"{k}-n{n}" for k, n in ORACLE_GCDS])
def test_trace_split_gcd_count_per_oracle_case(kind, n, monkeypatch):
    """The gcds follow from the order in which the c = x^j are tried, each
    once per find_root call, and from keeping the smaller factor; changing
    either changes the root."""
    ctx = xb.build_kind(get_fixture(n).basis(), kind)
    real = tables._fp_gcd
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(tables, "_fp_gcd", counting)
    tables.build_embedding(ctx)
    assert calls == ORACLE_GCDS[kind, n]


def test_base_modulus_orbit_stops_at_its_period(monkeypatch):
    """X^(2^i) modulo the base modulus of the as2 case at n = 24 (m = 48)
    repeats with period n, so find_root squares 24 times, not m = 48."""
    f = get_fixture(24).basis().field.modulus
    big = gf.FieldCtx(bitpoly.min_irreducible(48), check_irreducible=False)
    coeffs = [(f >> i) & 1 for i in range(25)]
    real = tables._fp_sqmod
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(tables, "_fp_sqmod", counting)
    root = tables.find_root(big, coeffs)
    assert calls == 24
    assert _value(big, coeffs, root) == 0


def test_embedding_root_finding_budget(monkeypatch):
    """Deterministic cost guard for the as2 embedding at n = 24 (m = 48):
    239 carry-less products, of which 160 are inside field products (270
    and 152 with the modulus rooted in F_2[z]/(p)); one field product per
    coefficient took 1,361, and the modulus rooted in the whole big field
    384.  The 0/1 coefficients of the modulus and of its
    Frobenius powers take integer products instead."""
    ctx = xb.build_kind(get_fixture(24).basis(), "as2")
    real = bitpoly.poly_mul
    calls = 0

    def counting(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    monkeypatch.setattr(bitpoly, "poly_mul", counting)
    tables.build_embedding(ctx)
    assert 0 < calls < 300


def test_find_root_tries_each_c_once(monkeypatch):
    """One find_root call over several split levels never retries a c: a c
    that failed on h, or split it, cannot split a factor of h."""
    f = get_fixture(24).basis().field.modulus
    big = gf.FieldCtx(bitpoly.min_irreducible(48), check_irreducible=False)
    coeffs = [(f >> i) & 1 for i in range(25)]
    real = tables._trace_split
    levels = []  # the c's each split level takes

    def recording(big, h, powers, ones, cs):
        levels.append([])

        def record():
            for c in cs:
                levels[-1].append(c)
                yield c
        return real(big, h, powers, ones, record())

    monkeypatch.setattr(tables, "_trace_split", recording)
    root = tables.find_root(big, coeffs)
    assert _value(big, coeffs, root) == 0
    cs = [c for level in levels for c in level]
    assert len(levels) > 1 and all(levels)
    assert len(set(cs)) == len(cs)
    assert cs == sorted(cs) and 1 not in cs  # x, x^2, ... in turn, 1 last


SUBFIELD_SOURCES = {label: source for label, source in _fixture_sources(fixture_degrees())
                    if source.n * getattr(source, "d", 1) <= gf.max_degree()}


@pytest.mark.parametrize("source", SUBFIELD_SOURCES.values(), ids=SUBFIELD_SOURCES)
def test_base_modulus_root_lies_in_its_subfield(source):
    """The powers of beta map K = F_2[z]/(p) into the subfield of degree n of
    the big field, products included.  A root s of p in the base field F
    writes x = sum c_i s^i, and sum c_i beta^i is a root of the base
    modulus f by the schoolbook evaluation; the embedding sends alpha to
    alpha(root).  n = 1 < m makes K = F_2.  For the plain basis (m = n),
    beta = x and p is the big modulus, n = m = 1 included, where x = 1 and
    p = 1 + X."""
    kind = getattr(source, "kind", None)
    nb = source if kind is None else source.base
    emb = tables.build_embedding(source)
    n, base, f = nb.n, nb.field, nb.field.modulus
    coeffs = [(f >> i) & 1 for i in range(n + 1)]
    p, powers = tables._subfield(emb.big, n)
    assert bitpoly.degree(p) == n and bitpoly.is_irreducible(p)
    assert kind is not None or p == emb.big.modulus
    small = gf.FieldCtx(p)
    assert linalg.mat_rank(powers, emb.m) == n
    assert all(gf.frobenius(emb.big, b, n) == b for b in powers)
    for a in range(n):  # z -> beta respects products
        for b in range(n):
            assert (row_apply(powers, gf.poly_mul_mod(small, 1 << a, 1 << b))
                    == gf.poly_mul_mod(emb.big, powers[a], powers[b])), (a, b)
    p_coeffs = [(p >> i) & 1 for i in range(n + 1)]
    s = tables.find_root(base, p_coeffs)
    assert _value(base, p_coeffs, s) == 0  # p(s) = 0 in F
    x = bitpoly.poly_mod(2, f)
    c = linalg.solve_linear([gf.power(base, s, i) for i in range(n)], n, x)
    assert _value(base, [(c >> i) & 1 for i in range(n)], s) == x
    root = row_apply(powers, c)
    assert _value(emb.big, coeffs, root) == 0
    alpha = [(nb.alpha >> i) & 1 for i in range(n)]
    assert emb.alpha_img == _value(emb.big, alpha, root)


def test_embedding_roots_only_over_moduli_with_fold_terms(monkeypatch):
    """No find_root call made while embedding a fixture case reduces bit by
    bit through ctx.reduction: the base modulus f is rooted by way of the
    minimal polynomial p of its subfield's generator, split in F_2[x]/(f),
    and not in F_2[z]/(p), whose p is dense (fold_terms None at as2 n = 24)."""
    find_root = tables.find_root
    fields = []

    def recording(big, coeffs):
        fields.append(big)
        return find_root(big, coeffs)

    monkeypatch.setattr(tables, "find_root", recording)
    for source in SUBFIELD_SOURCES.values():
        tables.build_embedding(source)
    assert len(fields) >= len(SUBFIELD_SOURCES)
    assert [big for big in fields if big.fold_terms is None] == []


@pytest.mark.parametrize("modulus,kinds", [("1+x^3+x^4", (None, *xb.KINDS)),
                                           ("1+x+x^2+x^3+x^4", ("as2", "asw4"))])
def test_oracle_over_a_dense_base_modulus(modulus, kinds, monkeypatch):
    """A base modulus given by the user need not have fold_terms.  Over the
    first normal element of such a field, the oracle still roots p in it,
    reducing bit by bit through ctx.reduction, and the plain basis (kind
    None, whose p is the big modulus) and every kind that builds give
    tables that verify against the closed form."""
    base = gf.FieldCtx(bitpoly.parse(modulus))
    assert base.fold_terms is None
    nb = normal.build_normal_basis(base, next(normal.normal_elements(base)))
    find_root = tables.find_root
    fields = []

    def recording(big, coeffs):
        fields.append(big)
        return find_root(big, coeffs)

    monkeypatch.setattr(tables, "find_root", recording)
    for kind in kinds:
        emb = tables.build_embedding(nb if kind is None else xb.build_kind(nb, kind))
        ts = tables.build_tables(emb)
        assert tables.verify_table_entries(emb, ts) == [], kind
        if kind in (None, *tables.CLOSED_FORM_KINDS):
            assert ts.per_table_nonzeros == tables.expected_counts(nb, kind), kind
    assert base in fields


@pytest.mark.parametrize("wrong,match", [(lambda s: 0, "does not generate"),
                                         (lambda s: s ^ 1, "does not vanish")],
                         ids=["zero", "plus-one"])
def test_a_wrong_root_in_the_base_field_is_a_contradiction(wrong, match, monkeypatch):
    """The base modulus's image is checked in the big field alone: with the
    root s of p in the base field replaced by 0, x has no coordinates in its
    powers, and with s + 1, not a root of p, the image of x is no root of f."""
    nb = get_fixture(24).basis()
    find_root = tables.find_root

    def wrong_in_base(big, coeffs):
        r = find_root(big, coeffs)
        if big != nb.field:
            return r
        assert _value(big, coeffs, wrong(r)) != 0
        return wrong(r)

    monkeypatch.setattr(tables, "find_root", wrong_in_base)
    with pytest.raises(ConstructionContradictionError, match=match):
        tables.build_embedding(xb.build_kind(nb, "as2"))


def _relative_trace(big, y, n):
    """Tr_{L/K}(y) for the subfield K of degree n, by Frobenius powers."""
    return reduce(xor, (gf.frobenius(big, y, n * i) for i in range(big.n // n)))


@pytest.mark.parametrize("m,n,j,sub", [(18, 6, 3, 1), (12, 2, 9, 1), (24, 4, 9, 2)])
def test_subfield_generator_skips_traces_in_proper_subfields(m, n, j, sub):
    """Under min_irreducible(m) the trace of x to K lies in the subfield of
    degree sub < n, so beta is the trace of the first x^j, j odd, that
    generates K: the k3 field at n = 6, the ka6 field at n = 2, and one
    where Tr(x) lies in F_4, neither in F_2 nor a generator."""
    big = gf.FieldCtx(bitpoly.min_irreducible(m))
    t = _relative_trace(big, 2, n)
    assert gf.frobenius(big, t, sub) == t and (sub == 1 or gf.frobenius(big, t, 1) != t)
    p, powers = tables._subfield(big, n)
    beta = powers[1]
    assert beta == _relative_trace(big, 1 << j, n)
    assert all(gf.frobenius(big, beta, e) != beta for e in range(1, n))
    assert _value(big, [(p >> i) & 1 for i in range(n + 1)], beta) == 0


IRREDUCIBLES = {m: _first_irreducibles(m) for m in range(1, 11)}


@given(st.data())
def test_find_root_returns_one_of_distinct_linear_factors(data):
    """Over a random field of degree m <= 10, find_root on the product of
    X + r over a set of distinct r returns one of the r."""
    m = data.draw(st.integers(1, 10))
    big = gf.FieldCtx(data.draw(st.sampled_from(IRREDUCIBLES[m])))
    roots = data.draw(st.sets(st.integers(0, big.mask), min_size=1, max_size=6))
    coeffs = [1]
    for r in roots:  # times X + r
        coeffs = [a ^ gf.poly_mul_mod(big, r, b) for a, b in zip([0, *coeffs], [*coeffs, 0])]
    assert tables.find_root(big, coeffs) in roots


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
        ctx = xb.build_kind(nb, "as2")
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
    """With the normal-basis products, the extended programs, their
    compiler and the functions it compiled, and their structure constants
    made to raise at every binding, every kind at n = 2 and 4 still embeds,
    passes its rule check, and yields tables that verify against the closed
    form, which reads the structure constants and so runs with the bindings
    restored: the oracle reads only RULES."""
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
                  xb.structure_constants, xb._compiled,
                  *(fn for kind in xb.KINDS for program in [xb._compiled(kind)]
                    for fn in (program.product, program.square)))
    for mod in _charfield2_modules():
        for attr, obj in list(vars(mod).items()):
            if any(obj is fn for fn in under_test):
                monkeypatch.setattr(mod, attr, forbidden)
    with pytest.raises(AssertionError):
        xb.mul(sources[2], xb.zero(sources[2]), xb.zero(sources[2]))
    built = []
    for source in sources:
        emb = tables.build_embedding(source)
        assert emb.check_rules()
        built.append((emb, tables.build_tables(emb)))
    monkeypatch.undo()
    for emb, ts in built:
        assert tables.verify_table_entries(emb, ts) == []


def test_build_kind_shares_no_arithmetic_with_the_programs(monkeypatch):
    """Every kind at n = 2, 4, 6 and 8, over the fixture and the first eight
    normal elements, is built or refused the same with the normal-basis
    products, the extended mul and square and the program compiler made to
    raise at every binding: build_kind reads nb.field and nb.alpha alone and
    runs the source programs, so the closed form's rebuild in the oracle
    makes no normal product and no generated code moves a verdict."""
    bases = [get_fixture(n).basis() for n in (2, 4, 6, 8)]
    for n in (2, 4, 6, 8):
        ctx = gf.FieldCtx(bitpoly.min_irreducible(n))
        bases += [normal.build_normal_basis(ctx, a)
                  for a in islice(normal.normal_elements(ctx), 8)]

    def verdicts():
        out = []
        for nb in bases:
            for kind in xb.KINDS:
                try:
                    out.append(xb.build_kind(nb, kind).m)
                except (UnsupportedDegreeError, NoKummerExtensionError) as exc:
                    out.append(type(exc))
        return out

    want = verdicts()
    assert NoKummerExtensionError in want and len(set(want)) > 2

    def forbidden(*args, **kwargs):
        raise AssertionError("build_kind used the arithmetic under test")

    under_test = (normal.normal_mul, normal.alpha_mul, xb.mul, xb.square, xb._compiled)
    for mod in _charfield2_modules():
        for attr, obj in list(vars(mod).items()):
            if any(obj is fn for fn in under_test):
                monkeypatch.setattr(mod, attr, forbidden)
    assert verdicts() == want


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
    for ctx in (xb.build_kind(NB2, kind) for kind in ("as2", "k3", "asw4")):
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
    emb = tables.build_embedding(xb.build_kind(NB4, "as2"))
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
    with pytest.raises(DomainError):
        tables.closed_form_tables("nope")


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


def _flat(blocks, n):
    return sum(b << (i * n) for i, b in enumerate(blocks))


@pytest.mark.parametrize("kind", ["k3", "asw4"])
def test_closed_form_table_mul_above_the_oracle_cap(kind):
    """At n = 26, k3 (m = 78, not a multiple of 8) and asw4 (m = 104) lie
    above the oracle's degree cap of 64: a TableSet of the closed form's
    tables alone is complete there, and its table_mul agrees with the
    extended product on seeded pairs."""
    nb = get_fixture(26).basis()
    ctx = xb.build_kind(nb, kind)
    ts = tables.closed_form_tables(ctx)
    assert ts.m == {"k3": 78, "asw4": 104}[kind]
    rng = random.Random(f"closed-form-table-mul:{kind}")
    for _ in range(12):
        x = xb.ExtElem(tuple(rng.getrandbits(ctx.n) for _ in range(ctx.d)))
        y = xb.ExtElem(tuple(rng.getrandbits(ctx.n) for _ in range(ctx.d)))
        assert (tables.table_mul(ts, _flat(x.blocks, ctx.n), _flat(y.blocks, ctx.n))
                == _flat(xb.mul(ctx, x, y).blocks, ctx.n))


def test_table_set_refuses_a_malformed_set():
    """A set of m = 4 needs four tables of at most 16 bits: three tables
    used to make a set whose table_mul gave 3-bit products."""
    ts = tables.normal_table_set(NB4)
    for bad in (ts.tables[:3], ts.tables + [0], [*ts.tables[:3], 1 << 16],
                [*ts.tables[:3], -1], [*ts.tables[:3], "7"]):
        with pytest.raises(DomainError):
            tables.TableSet(4, bad)
    assert tables.TableSet(4, list(ts.tables)) == ts


def test_ext_table_mul_matches_counted_mul():
    rng = random.Random(20240821)
    for ctx in (xb.build_kind(NB2, kind) for kind in ("as2", "k3", "ka6")):
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
    tables_ = [0] * m
    for i in range(m):
        for j in range(m):
            coords = row_apply(inv, gf.poly_mul_mod(emb.big, emb.basis_images[i],
                                                    emb.basis_images[j]))
            for k in range(m):
                tables_[k] |= (coords >> k & 1) << (i * m + j)
    return tables_


def _rows(ts):
    """Each packed table as its m rows of m bits."""
    return [list(unpack_lanes(t, ts.m, ts.m)) for t in ts.tables]


def _row_repr(ts):
    """repr(TableSet) with each table an m-list of row ints."""
    return (f"TableSet(m={ts.m}, tables={_rows(ts)!r}, per_table_nonzeros="
            f"{ts.per_table_nonzeros!r}, density={ts.density!r})")


def _wide_sources():
    """The widest lanes: m = 48 twice, m = 64, and an odd m = 7."""
    f7 = gf.FieldCtx(bitpoly.min_irreducible(7))
    yield "normal-n7", normal.build_normal_basis(f7, next(normal.normal_elements(f7)))
    yield "as2-n24", xb.build_kind(get_fixture(24).basis(), "as2")
    yield "k3-n16", xb.build_kind(get_fixture(16).basis(), "k3")
    yield "asw4-n16", xb.build_kind(get_fixture(16).basis(), "asw4")


# sha256 of repr(TableSet) as it read with each table an m-list of row ints,
# recorded from the build that took one field product per entry and
# row_apply for its coordinates; _row_repr renders the packed tables so.
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
    assert hashlib.sha256(_row_repr(ts).encode()).hexdigest() == TABLE_SET_SHA256[label]
    assert ts.tables == _tables_by_full_loop(emb)
    assert ts.per_table_nonzeros == [sum(r.bit_count() for r in t) for t in _rows(ts)]
    m = ts.m
    for k in range(m):
        for i in range(m):
            for j in range(m):
                assert (ts.tables[k] >> (i * m + j)) & 1 == (ts.tables[k] >> (j * m + i)) & 1
    ts.tables[0] ^= 1  # flip entry (0, 0) of table 0
    assert tables.verify_table_entries(emb, ts) == [(0, 0, 0)]


def _table_mul_by_tables(ts, x, y):
    """Reference for table_mul: z_k = parity(row_apply(T_k, x) & y), one
    table at a time."""
    return sum(((row_apply(rows, x) & y).bit_count() & 1) << k
               for k, rows in enumerate(_rows(ts)))


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
    ts = tables.build_tables(tables.build_embedding(xb.build_kind(NB2, "as2")))
    m = ts.m
    for x, y in ((1 << m, 5), (-1, 5), (3, 5 | 1 << m), (3, -1), (3, "5")):
        with pytest.raises(InvalidElementError):
            tables.table_mul(ts, x, y)
    top = (1 << m) - 1
    assert tables.table_mul(ts, top, top) == _table_mul_by_tables(ts, top, top)


def test_oracle_table_operation_counts(monkeypatch):
    """Deterministic cost guard at as2 n = 24 (m = 48): build_tables takes one
    carry-less product per row, reduces its lanes together and takes one
    row_apply per table on the bit-planes, and table_mul takes no row_apply
    and no parity."""
    emb = tables.build_embedding(xb.build_kind(get_fixture(24).basis(), "as2"))
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
    assert calls == {"poly_mul": emb.m, "row_apply": emb.m}
    calls.clear()
    rng = random.Random(48)
    for _ in range(10):
        tables.table_mul(ts, rng.getrandbits(emb.m), rng.getrandbits(emb.m))
    assert calls == {}


def test_programs_make_no_transpose(monkeypatch):
    """The products and squares of every kind at n = 2 and 4 run with every
    binding of the transposes made to raise: only the oracle transposes."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the arithmetic under test transposed")

    emb = tables.build_embedding(NB2)
    transposes = (linalg.transpose_packed, linalg.mat_transpose)
    for mod in _charfield2_modules():
        for attr, obj in list(vars(mod).items()):
            if any(obj is fn for fn in transposes):
                monkeypatch.setattr(mod, attr, forbidden)
    with pytest.raises(AssertionError):
        tables.build_tables(emb)
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
    """4d(N) + CS for as2 and 6d(N) + 3CS for k3 on every (basis, kind) that
    builds; the rest get no counts (NB4's generator is a cube).

    cross_product_sum and the closed-form counts both read
    normal.product_planes, so this checks how the counts lay out the
    planes, not the arithmetic behind them; the field-product reference
    for CS is test_cross_product_sum_matches_field_arithmetic."""
    refused = []
    for nb in (NB2, NB4, NB6):
        cs = normal.cross_product_sum(nb)
        formulas = {"as2": 4 * nb.density + cs, "k3": 6 * nb.density + 3 * cs}
        for kind in xb.KINDS:
            try:
                ctx = xb.build_kind(nb, kind)
            except NoKummerExtensionError:
                refused.append((nb.n, kind))
                with pytest.raises(NoKummerExtensionError):
                    tables.expected_counts(nb, kind)
                continue
            density = tables.closed_form_tables(ctx).density
            assert density == sum(tables.expected_counts(nb, kind))
            assert density == formulas.get(kind, density)
    assert refused == [(4, "k3"), (4, "ka6")]


@pytest.mark.parametrize("n,kind,error", [
    (1, "asw4", UnsupportedDegreeError), (1, "k3", UnsupportedDegreeError),
    (22, "k3", NoKummerExtensionError)])
def test_expected_counts_refuse_what_the_builder_refuses(n, kind, error):
    """Odd n for asw4, 3 not dividing 2^n - 1 for k3, and a non-primitive
    generator for k3 (NB4's cube generator: test_expected_density_formulas)."""
    nb = get_fixture(n).basis()
    with pytest.raises(error):
        xb.build_kind(nb, kind)
    with pytest.raises(error):
        tables.expected_counts(nb, kind)


# Every fixture source with m <= 64 and the wide sources, by label.
CLOSED_FORM_SOURCES = {
    label: source
    for label, source in (*_fixture_sources(fixture_degrees()), *_wide_sources())
    if source.n * getattr(source, "d", 1) <= 64}


@pytest.mark.parametrize("source", CLOSED_FORM_SOURCES.values(), ids=CLOSED_FORM_SOURCES)
def test_closed_form_tables_match_brute_force(source):
    """The tables from the structure constants and nb.table equal the big
    field's entry for entry; a plain normal basis gives its mul_rows."""
    kind = getattr(source, "kind", None)
    nb = source if kind is None else source.base
    closed = tables.closed_form_tables(source).tables
    assert closed == tables.build_tables(tables.build_embedding(source)).tables
    if kind is None:
        assert closed == [pack_lanes(t, nb.n) for t in nb.mul_rows]


def _structure_columns_by_vectors(nb, kind):
    """Reference for tables._structure_columns, with d from build_kind: the
    powers of a one vector u_ij at a time by row_apply, then one
    mat_transpose per constant, whose lanes of n bits are spread to m = d n
    bits."""
    n = nb.n
    if kind is None:
        d, sc = 1, {(0, 0): {0: 1}}
    else:
        d, sc = xb.build_kind(nb, kind).d, xb.structure_constants(kind)
    t = nb.table  # t[n - i:] + t[:n - i] is T[(j - i) mod n] for j < n
    powers = [[normal.rotl(r, i, n) for i in range(n) for r in t[n - i:] + t[:n - i]]]
    top = max(c.bit_length() for cs in sc.values() for c in cs.values())
    while len(powers) < top:  # powers[e]: a^e u_ij for every (i, j)
        powers.append([row_apply(t, u) for u in powers[-1]])
    columns = {}
    for cs in sc.values():
        for c in cs.values():
            vectors = [0] * (n * n)
            for e, ue in enumerate(powers):
                if c >> e & 1:
                    vectors = [v ^ w for v, w in zip(vectors, ue)]
            columns[c] = [linalg.pack_lanes(linalg.unpack_lanes(col, n, n), d * n)
                          for col in linalg.mat_transpose(vectors, n)]
    return d, (sc, columns)


def _column_bases():
    """The fixtures (n = 1, 2, 4, ..., 26) and odd n = 3, 5, 7 over the least
    irreducible modulus and its first normal element: n = 1 and odd n are
    the edge cases of the lane rotation."""
    for n in fixture_degrees():
        yield f"n{n}", get_fixture(n).basis()
    for n in (3, 5, 7):
        f = gf.FieldCtx(bitpoly.min_irreducible(n))
        yield f"odd-n{n}", normal.build_normal_basis(f, next(normal.normal_elements(f)))


COLUMN_BASES = dict(_column_bases())


@pytest.mark.parametrize("nb", COLUMN_BASES.values(), ids=COLUMN_BASES)
def test_structure_columns_match_the_per_vector_reference(nb):
    """The bit-plane columns equal the per-vector reference for the plain
    basis and every kind the builder accepts, and refuse the others."""
    built = []
    for kind in (None, *xb.KINDS):
        try:
            d, want = _structure_columns_by_vectors(nb, kind)
        except (NoKummerExtensionError, UnsupportedDegreeError) as refusal:
            with pytest.raises(type(refusal)):
                tables.expected_counts(nb, kind)
            continue
        source = nb if kind is None else xb.build_kind(nb, kind)
        assert tables._basis_parts(source) == (nb, kind, d), kind
        assert tables._structure_columns(nb, kind, d) == want, kind
        built.append(kind)
    assert built[:2] == [None, "as2"]


def test_closed_form_sources_cover_every_kind():
    """The sources above are every kind's, up to m = 64 and n = 26."""
    labels = set(CLOSED_FORM_SOURCES)
    assert {label.split("-")[0] for label in labels} == {"normal", *xb.KINDS}
    assert {"normal-n26", "as2-n26", "asw4-n16", "ka6-n8", "k3-n16", "normal-n7"} <= labels
    assert len(labels) == 46


def test_verify_table_entries_does_not_rebuild_the_tables(monkeypatch):
    """Clean tables verify with build_tables made to raise."""
    built = []
    for source in (NB4, *(xb.build_kind(NB2, kind) for kind in ("as2", "k3", "ka6"))):
        emb = tables.build_embedding(source)
        built.append((emb, tables.build_tables(emb)))

    def forbidden(*args, **kwargs):
        raise AssertionError("verify_table_entries rebuilt the tables")

    monkeypatch.setattr(tables, "build_tables", forbidden)
    for emb, ts in built:
        assert tables.verify_table_entries(emb, ts) == []


def test_verify_table_entries_does_not_rebuild_the_kind(monkeypatch):
    """Clean tables of every kind verify with build_kind made to raise: the
    closed form reads the embedding's source.  expected_counts still builds
    the kind, so it still refuses what build_kind refuses."""
    built = []
    for kind in xb.KINDS:
        emb = tables.build_embedding(xb.build_kind(NB2, kind))
        built.append((emb, tables.build_tables(emb)))

    def forbidden(*args, **kwargs):
        raise AssertionError("verify_table_entries rebuilt the kind")

    monkeypatch.setattr(tables, "build_kind", forbidden)
    for emb, ts in built:
        assert tables.verify_table_entries(emb, ts) == [], emb.kind
    with pytest.raises(AssertionError):
        tables.expected_counts(NB2, "as2")


@pytest.mark.parametrize("kind", [None, *xb.KINDS])
def test_verify_table_entries_catches_a_corrupted_base_table(kind):
    """Negative control: tables from the true embedding, checked against a
    copy of the base with one bit of T[1] flipped, give witnesses, where a
    rebuild from the same embedding agrees with them."""
    nb = NB2 if kind in ("k3", "ka6") else NB4
    source = nb if kind is None else xb.build_kind(nb, kind)
    emb = tables.build_embedding(source)
    ts = tables.build_tables(emb)
    bad = copy.copy(nb)
    bad.table = list(nb.table)
    bad.table[1] ^= 1
    if kind is None:
        emb.source = bad
    else:
        emb.source = copy.copy(source)
        emb.source.base = bad
    assert tables.build_tables(emb).tables == ts.tables
    assert tables.verify_table_entries(emb, ts) != []
    emb.source = source
    assert tables.verify_table_entries(emb, ts) == []


def test_verify_table_entries_clean_and_corrupted():
    emb = tables.build_embedding(xb.build_kind(NB2, "as2"))
    ts = tables.build_tables(emb)
    assert tables.verify_table_entries(emb, ts) == []
    m = ts.m
    ts.tables[0] ^= 1  # flip one bit
    witnesses = tables.verify_table_entries(emb, ts)
    assert witnesses == [(0, 0, 0)]
    # two more flips in other tables: witnesses come in (i, j, k) order
    ts.tables[3] ^= 1 << (0 * m + 1)    # (k, i, j) = (3, 0, 1)
    ts.tables[1] ^= 1 << (1 * m + 0)    # (k, i, j) = (1, 1, 0)
    assert tables.verify_table_entries(emb, ts) == [(0, 0, 0), (3, 0, 1), (1, 1, 0)]


def test_verify_table_entries_refuses_tables_of_another_size():
    """Four tables checked against an embedding of m = 8 used to raise a bare
    IndexError, and eight against one of m = 4 gave witnesses (k, i, j) with
    i >= 4.  A set of m = 4 that lacks a table is refused too."""
    small = tables.build_embedding(NB4)
    large = tables.build_embedding(xb.build_kind(NB4, "as2"))
    assert large.m == 8
    ts = tables.normal_table_set(NB4)
    with pytest.raises(DomainError):
        tables.verify_table_entries(large, ts)
    with pytest.raises(DomainError):
        tables.verify_table_entries(small, tables.build_tables(large))
    with pytest.raises(DomainError):
        tables.verify_table_entries(small, tables.TableSet(4, ts.tables[:3]))
    assert tables.verify_table_entries(small, ts) == []


def test_verify_table_entries_decodes_witnesses_at_the_edges():
    """At m = 48 (as2, n = 24), flips at entries (m - 1, m - 1), (0, m - 1)
    and (m - 1, 0) of the first and last tables come back as exactly those
    witnesses, in (i, j, k) order: bit i m + j of a packed table is (i, j)."""
    emb = tables.build_embedding(xb.build_kind(get_fixture(24).basis(), "as2"))
    ts = tables.build_tables(emb)
    assert ts.m == 48
    for k in (0, 47):
        for i, j in ((47, 47), (0, 47), (47, 0)):
            ts.tables[k] ^= 1 << (i * 48 + j)
    assert tables.verify_table_entries(emb, ts) == [
        (0, 0, 47), (47, 0, 47), (0, 47, 0), (47, 47, 0), (0, 47, 47), (47, 47, 47)]
