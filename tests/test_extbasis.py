"""Tests for extended bases: builders, counted arithmetic, and op-count contracts."""

import random

import pytest

from charfield2 import extbasis as xb, field as gf, normal
from charfield2.witt import SymPoly
from charfield2.errors import (DomainError, InvalidElementError,
                               NoKummerExtensionError, UnsupportedDegreeError)
from charfield2.fixtures import get_fixture

NB1 = get_fixture(1).basis()
NB2 = get_fixture(2).basis()
NB4 = get_fixture(4).basis()
NB6 = get_fixture(6).basis()

KINDS = ("as2", "k3", "asw4", "ka6")


def _contexts():
    """One working context per kind, at small n."""
    out = [xb.build_as2(NB2), xb.build_kummer3(NB2), xb.build_asw4(NB2),
           xb.build_ka6(NB2), xb.build_as2(NB4), xb.build_asw4(NB4)]
    return out


def _rand_elem(rng, ctx):
    return xb.ExtElem(tuple(rng.getrandbits(ctx.n) for _ in range(ctx.d)))


def _xor(x, y):
    return xb.ExtElem(tuple(a ^ b for a, b in zip(x.blocks, y.blocks)))


# --- builders ----------------------------------------------------------

def test_build_as2_works_for_any_normal_basis():
    for nb in (NB1, NB2, NB4, NB6):
        ctx = xb.build_as2(nb)
        assert (ctx.kind, ctx.d, ctx.m) == ("as2", 2, 2 * nb.n)


def test_build_kummer3_requires_divisibility_first():
    # 3 does not divide 2^1 - 1: degree refusal wins over any generator test
    with pytest.raises(UnsupportedDegreeError):
        xb.build_kummer3(NB1)


def test_build_kummer3_rejects_cube_generator():
    # x^3 in F_16 has order 5: a cube
    with pytest.raises(NoKummerExtensionError, match="cube"):
        xb.build_kummer3(NB4)


def test_build_kummer3_rejects_non_primitive_non_cube():
    nb22 = get_fixture(22).basis()
    assert not gf.is_cube(nb22.field, nb22.alpha)
    with pytest.raises(NoKummerExtensionError, match="primitive"):
        xb.build_kummer3(nb22)


def test_build_kummer3_accepts_primitive_generator():
    ctx = xb.build_kummer3(NB2)
    assert (ctx.kind, ctx.d, ctx.m) == ("k3", 3, 6)


def test_build_asw4_rejects_odd_degree():
    f8 = gf.FieldCtx(0b1011)
    nb3 = normal.build_normal_basis(f8, 0b11)
    with pytest.raises(UnsupportedDegreeError):
        xb.build_asw4(nb3)
    assert xb.build_asw4(NB2).m == 8


def test_build_ka6_rejects_cube_quadratic_generator():
    with pytest.raises(NoKummerExtensionError):
        xb.build_ka6(NB4)
    # a sibling normal element of F_16 does admit the sextic tower
    nb_alt = normal.build_normal_basis(NB4.field, 0b1001)  # 1 + x^3
    assert xb.build_ka6(nb_alt).m == 24


@pytest.mark.parametrize("kind,gens,monomials", [
    ("as2", ("b",), ((0,), (1,))),
    ("k3", ("b",), ((0,), (1,), (2,))),
    ("asw4", ("b0", "b1"), ((0, 0), (1, 0), (0, 1), (1, 1))),
    ("ka6", ("b", "g"), ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2))),
])
def test_rules_fix_each_kinds_generators_and_block_layout(kind, gens, monomials):
    """The monomial order read off RULES is the block layout behind every
    golden: block j holds the coefficient of monomials[j]."""
    ctx = xb.ExtBasisCtx(NB2, kind)
    assert (ctx.gens, ctx.monomials, ctx.d) == (gens, monomials, len(monomials))
    assert tuple(rule.gen for rule in xb.RULES[kind]) == gens


def test_kinds_are_the_rule_table_keys():
    assert xb.KINDS == tuple(xb.RULES) == KINDS
    with pytest.raises(DomainError):
        xb.ExtBasisCtx(NB2, "k9")


def test_build_kind_dispatch():
    assert xb.build_kind(NB2, "as2").kind == "as2"
    assert xb.build_kind(NB2, "ka6").kind == "ka6"
    with pytest.raises(DomainError):
        xb.build_kind(NB2, "k9")


# --- element plumbing ---------------------------------------------------

def test_identity_zero_and_embedding():
    for ctx in _contexts():
        one = xb.identity(ctx)
        z = xb.zero(ctx)
        assert one.blocks[0] == ctx.base.one()
        assert all(b == 0 for b in one.blocks[1:])
        assert all(b == 0 for b in z.blocks)
        for v in (0, 1, ctx.base.field.mask):
            e = xb.embed_base(ctx, v)
            assert xb.project_base(ctx, e) == v


def test_project_rejects_elements_outside_base():
    ctx = xb.build_as2(NB2)
    with pytest.raises(DomainError):
        xb.project_base(ctx, xb.ExtElem((0, 1)))


def test_validate_rejects_malformed_elements():
    ctx = xb.build_as2(NB2)
    with pytest.raises(InvalidElementError):
        ctx.validate(xb.ExtElem((0, 0, 0)))
    with pytest.raises(InvalidElementError):
        ctx.validate(xb.ExtElem((0, 4)))
    with pytest.raises(InvalidElementError):
        ctx.validate((0, 0))


def test_hex_round_trip():
    rng = random.Random(20240810)
    for ctx in _contexts():
        for _ in range(20):
            x = _rand_elem(rng, ctx)
            s = xb.ext_to_hex(ctx, x)
            assert s.count(":") == ctx.d - 1
            assert xb.ext_parse(ctx, s) == x
    ctx = xb.build_as2(NB2)
    assert xb.ext_to_hex(ctx, xb.identity(ctx)) == "03:00"
    with pytest.raises(InvalidElementError):
        xb.ext_parse(ctx, "03")
    with pytest.raises(InvalidElementError):
        xb.ext_parse(ctx, "zz:00")


# --- arithmetic behavior -------------------------------------------------

def test_ring_axioms_on_random_elements():
    rng = random.Random(20240811)
    for ctx in _contexts():
        one = xb.identity(ctx)
        z = xb.zero(ctx)
        for _ in range(25):
            x, y, w = (_rand_elem(rng, ctx) for _ in range(3))
            assert xb.mul(ctx, x, y) == xb.mul(ctx, y, x)
            assert xb.mul(ctx, xb.mul(ctx, x, y), w) == xb.mul(ctx, x, xb.mul(ctx, y, w))
            assert xb.mul(ctx, x, one) == x
            assert xb.mul(ctx, x, z) == z
            # distributivity over blockwise addition
            assert xb.mul(ctx, x, _xor(y, w)) == _xor(xb.mul(ctx, x, y), xb.mul(ctx, x, w))


def test_square_agrees_with_self_multiplication():
    rng = random.Random(20240812)
    for ctx in _contexts():
        for _ in range(30):
            x = _rand_elem(rng, ctx)
            assert xb.square(ctx, x) == xb.mul(ctx, x, x)


def test_nonzero_elements_are_invertible():
    """x^(2^m - 1) = 1 for x != 0: the rings built really are fields."""
    rng = random.Random(20240813)
    for ctx in _contexts():
        if ctx.m > 12:
            continue
        for _ in range(8):
            x = _rand_elem(rng, ctx)
            if x == xb.zero(ctx):
                continue
            assert xb.power(ctx, x, (1 << ctx.m) - 1) == xb.identity(ctx)


def test_power_matches_repeated_mul():
    rng = random.Random(20240814)
    ctx = xb.build_kummer3(NB2)
    x = _rand_elem(rng, ctx)
    acc = xb.identity(ctx)
    for e in range(12):
        assert xb.power(ctx, x, e) == acc
        acc = xb.mul(ctx, acc, x)


def test_power_refuses_a_negative_exponent():
    """-1 >> 1 == -1, so square-and-multiply would never end on e < 0."""
    ctx = xb.build_as2(NB2)
    for e in (-1, -6):
        with pytest.raises(DomainError):
            xb.power(ctx, xb.identity(ctx), e)


def test_defining_equation_as2():
    """b^2 = b + alpha."""
    for nb in (NB2, NB4, NB6):
        ctx = xb.build_as2(nb)
        b = xb.quad_generator(ctx)
        expected = _xor(b, xb.embed_base(ctx, 1))
        assert xb.square(ctx, b) == expected


def test_defining_equation_k3():
    """b^3 = alpha."""
    ctx = xb.build_kummer3(NB2)
    b = xb.generator_element(ctx, "b")
    cube = xb.mul(ctx, xb.mul(ctx, b, b), b)
    assert cube == xb.embed_base(ctx, 1)


def test_defining_equation_asw4():
    """b0^2 = b0 + alpha and b1^2 = b1 + (1 + alpha) b0 + alpha^2."""
    for nb in (NB2, NB4):
        ctx = xb.build_asw4(nb)
        b0 = xb.generator_element(ctx, "b0")
        b1 = xb.generator_element(ctx, "b1")
        a = 1  # alpha's normal coordinates
        assert xb.square(ctx, b0) == _xor(b0, xb.embed_base(ctx, a))
        sq_b1 = xb.square(ctx, b1)
        coef_b0 = nb.one() ^ a
        expected = xb.ExtElem((normal.frobenius_shift(nb.n, a),  # alpha^2
                               coef_b0, nb.one(), 0))
        assert sq_b1 == expected


def test_defining_equation_ka6():
    """g^3 = b and b^2 = b + alpha inside the sextic tower."""
    ctx = xb.build_ka6(NB2)
    g = xb.generator_element(ctx, "g")
    b = xb.generator_element(ctx, "b")
    cube = xb.mul(ctx, xb.mul(ctx, g, g), g)
    assert cube == b
    assert xb.square(ctx, b) == _xor(b, xb.embed_base(ctx, 1))


def test_generator_element_errors():
    ctx = xb.build_as2(NB2)
    with pytest.raises(DomainError):
        xb.generator_element(ctx, "g")
    with pytest.raises(DomainError):
        xb.quad_generator(xb.build_kummer3(NB2))


def test_element_is_cube_basic_facts():
    rng = random.Random(20240815)
    ctx = xb.build_as2(NB2)  # m = 4: 3 | 15
    assert xb.element_is_cube(ctx, xb.zero(ctx))
    assert xb.element_is_cube(ctx, xb.identity(ctx))
    for _ in range(20):
        x = _rand_elem(rng, ctx)
        cube = xb.mul(ctx, xb.mul(ctx, x, x), x)
        assert xb.element_is_cube(ctx, cube)
    # m = 8 has 3 | 255 as well; over m with 3 coprime everything is a cube
    ctx8 = xb.build_asw4(NB2)
    assert ctx8.m == 8


def test_element_is_cube_does_not_disturb_tally():
    ctx = xb.build_as2(NB2)
    ctx.counter.reset()
    xb.element_is_cube(ctx, xb.generator_element(ctx, "b"))
    assert ctx.counter.as_tuple() == (0, 0, 0)


# --- operation counting ---------------------------------------------------

MUL_EXPECT = {"as2": (3, 4, 1), "k3": (6, 15, 2), "asw4": (9, 33, 9), "ka6": (18, 56, 8)}
SQ_EXPECT = {"as2": (0, 1, 1), "k3": (0, 0, 1), "asw4": (0, 9, 6), "ka6": (0, 4, 3)}


def test_frozen_count_tables_match_module_constants():
    assert xb.EXPECTED_MUL_COUNTS == MUL_EXPECT
    assert xb.EXPECTED_SQUARE_COUNTS == SQ_EXPECT


@pytest.mark.parametrize("kind", KINDS)
def test_mul_and_square_counts_exact_and_input_independent(kind):
    rng = random.Random(f"counts:{kind}")
    for nb in (NB2, NB4, NB6):
        try:
            ctx = xb.build_kind(nb, kind)
        except (NoKummerExtensionError, UnsupportedDegreeError):
            continue
        for _ in range(10):
            x, y = _rand_elem(rng, ctx), _rand_elem(rng, ctx)
            ctx.counter.reset()
            xb.mul(ctx, x, y)
            assert ctx.counter.as_tuple() == MUL_EXPECT[kind]
            ctx.counter.reset()
            xb.square(ctx, x)
            assert ctx.counter.as_tuple() == SQ_EXPECT[kind]


def test_counter_accumulates_and_pauses():
    ctx = xb.build_as2(NB2)
    rng = random.Random(20240816)
    x, y = _rand_elem(rng, ctx), _rand_elem(rng, ctx)
    ctx.counter.reset()
    xb.mul(ctx, x, y)
    xb.mul(ctx, x, y)
    assert ctx.counter.as_tuple() == (6, 8, 2)
    with ctx.counter.paused():
        xb.mul(ctx, x, y)
        xb.square(ctx, x)
    assert ctx.counter.as_tuple() == (6, 8, 2)


# --- structure constants and the programs over F_2[a] ----------------------

A = 0b10  # a as an F_2[a] bitmask (bit i: coefficient of a^i)


@pytest.mark.parametrize("kind,rows", [
    ("as2", ((1, A), (0, 1))),
    ("k3", ((1, 0, 0), (0, 0, A), (0, 1, 0))),
    ("asw4", ((1, A, A * A, A | A * A | A ** 3),
              (0, 1, 1 | A, 1),
              (0, 0, 1, A),
              (0, 0, 0, 1))),
    ("ka6", ((1, A, 0, 0, 0, 0),
             (0, 1, 0, 0, 0, 0),
             (0, 0, 0, 0, 0, A),
             (0, 0, 0, 0, 1, 1 | A),
             (0, 0, 1, A, 0, 0),
             (0, 0, 0, 1, 0, 0))),
])
def test_square_matrix_derived_from_the_rules(kind, rows):
    """Column p is m_p^2 reduced by RULES: e.g. in asw4,
    (b0 b1)^2 = (a + a^2 + a^3) + b0 + a b1 + b0 b1."""
    sc = xb.structure_constants(kind)
    d = len(rows)
    assert tuple(tuple(sc[p, p].get(r, 0) for p in range(d))
                 for r in range(d)) == rows


def test_structure_constants_refuse_an_unknown_kind():
    with pytest.raises(DomainError):
        xb.structure_constants("k9")


class _Symbolic:
    """A stand-in context whose blocks are polynomials over F_2[a] in the
    inputs' blocks: _mul is their product and _tvp the product by a.  The
    call numbered `drop` among the _add and _tvp calls is a mutant: _add
    returns its first operand and _tvp its operand unchanged."""

    def __init__(self, count, drop=None):
        self.a = SymPoly.const(A, count)
        self.drop = drop
        self.calls = 0

    def _kept(self):
        self.calls += 1
        return self.calls - 1 != self.drop

    def _add(self, u, v):
        return u + v if self._kept() else u

    def _mul(self, u, v):
        return u * v

    def _tvp(self, v):
        return v * self.a if self._kept() else v


def _symbolic_product(kind, drop=None):
    """The kind's product program run on x_0..x_{d-1}, y_0..y_{d-1}."""
    d = xb.ExtBasisCtx(NB2, kind).d
    ctx = _Symbolic(2 * d, drop)
    gens = [SymPoly.gen(g, 2 * d) for g in range(2 * d)]
    out = xb._MUL[kind](ctx, gens[:d], gens[d:])
    return ctx.calls, [z.terms for z in out]


@pytest.mark.parametrize("kind", KINDS)
def test_product_program_is_the_structure_constants_over_f2_a(kind):
    """Output r of the program is sum c_pqr x_p y_q as a polynomial over
    F_2[a]: so the product is right for every n, basis and input.  Each
    mutant that drops one _add or one _tvp gives a different polynomial."""
    d = xb.ExtBasisCtx(NB2, kind).d
    gens = [SymPoly.gen(g, 2 * d) for g in range(2 * d)]
    want = [SymPoly() for _ in range(d)]
    for (p, q), cs in xb.structure_constants(kind).items():
        for r, c in cs.items():
            want[r] += SymPoly.const(c, 2 * d) * gens[p] * gens[d + q]
    calls, got = _symbolic_product(kind)
    assert got == [w.terms for w in want]
    _, adds, tvps = MUL_EXPECT[kind]
    assert calls == adds + tvps
    for drop in range(calls):
        assert _symbolic_product(kind, drop)[1] != got, drop
