"""Tests for extended bases: build_kind, counted arithmetic, and op-count contracts."""

import ast
import copy
import inspect
import pickle
import random
import textwrap
from collections import Counter
from functools import cache, partial, reduce
from itertools import islice, product
from operator import xor

import pytest

from charfield2 import bitpoly, extbasis as xb, field as gf, normal, tables, tower
from charfield2.linalg import unpack_lanes
from charfield2.witt import SymPoly
from charfield2.errors import (DomainError, InvalidElementError,
                               NoKummerExtensionError, UnsupportedDegreeError)
from charfield2.fixtures import fixture_degrees, get_fixture

NB1 = get_fixture(1).basis()
NB2 = get_fixture(2).basis()
NB4 = get_fixture(4).basis()
NB6 = get_fixture(6).basis()
NB8 = get_fixture(8).basis()
NB10 = get_fixture(10).basis()

KINDS = ("as2", "k3", "asw4", "ka6")


def _contexts():
    """One working context per kind, at small n."""
    return [xb.build_kind(nb, kind) for nb, kind in (
        (NB2, "as2"), (NB2, "k3"), (NB2, "asw4"), (NB2, "ka6"), (NB4, "as2"), (NB4, "asw4"))]


def _rand_elem(rng, ctx):
    return xb.ExtElem(tuple(rng.getrandbits(ctx.n) for _ in range(ctx.d)))


def _xor(x, y):
    return xb.ExtElem(tuple(a ^ b for a, b in zip(x.blocks, y.blocks)))


# --- builders ----------------------------------------------------------

def test_build_as2_works_for_any_normal_basis():
    for nb in (NB1, NB2, NB4, NB6):
        ctx = xb.build_kind(nb, "as2")
        assert (ctx.kind, ctx.d, ctx.m) == ("as2", 2, 2 * nb.n)


def test_build_kummer3_requires_divisibility_first():
    # 3 does not divide 2^1 - 1: degree refusal wins over any generator test
    with pytest.raises(UnsupportedDegreeError):
        xb.build_kind(NB1, "k3")


def test_build_kummer3_rejects_cube_generator():
    # x^3 in F_16 has order 5: a cube
    with pytest.raises(NoKummerExtensionError, match="cube"):
        xb.build_kind(NB4, "k3")


def test_build_kummer3_rejects_non_primitive_non_cube():
    nb22 = get_fixture(22).basis()
    assert not gf.is_cube(nb22.field, nb22.alpha)
    with pytest.raises(NoKummerExtensionError, match="primitive"):
        xb.build_kind(nb22, "k3")


def test_build_kummer3_accepts_primitive_generator():
    ctx = xb.build_kind(NB2, "k3")
    assert (ctx.kind, ctx.d, ctx.m) == ("k3", 3, 6)


def test_build_asw4_rejects_odd_degree():
    f8 = gf.FieldCtx(0b1011)
    nb3 = normal.build_normal_basis(f8, 0b11)
    with pytest.raises(UnsupportedDegreeError):
        xb.build_kind(nb3, "asw4")
    assert xb.build_kind(NB2, "asw4").m == 8


def test_build_ka6_rejects_cube_quadratic_generator():
    with pytest.raises(NoKummerExtensionError):
        xb.build_kind(NB4, "ka6")
    # a sibling normal element of F_16 does admit the sextic tower
    nb_alt = normal.build_normal_basis(NB4.field, 0b1001)  # 1 + x^3
    assert xb.build_kind(nb_alt, "ka6").m == 24


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


def _hand_written_verdict(nb, kind):
    """The error type the four hand-written builders that build_kind replaced
    raised for (nb, kind), None where they built: the reference for its
    verdicts."""
    ctx = nb.field
    if kind == "k3":
        if ctx.order % 3 != 0:
            return UnsupportedDegreeError
        if gf.is_cube(ctx, nb.alpha) or not gf.is_primitive(ctx, nb.alpha):
            return NoKummerExtensionError
    if kind == "asw4" and nb.n % 2 != 0:
        return UnsupportedDegreeError
    if kind == "ka6":
        # b is a cube in F_{2^m}, m = 2n, iff b^((2^m - 1)/3) = 1 (3 | 4^n - 1)
        as2 = xb.ExtBasisCtx(nb, "as2")
        b = xb.generator_element(as2, "b")
        if xb.power(as2, b, ((1 << as2.m) - 1) // 3) == xb.identity(as2):
            return NoKummerExtensionError
    return None


def _outcome(build, nb, kind):
    """What build(nb, kind) gives: the refusal's error type, or the built
    context's kind, base, generators, monomials and sizes."""
    try:
        ctx = build(nb, kind)
    except (UnsupportedDegreeError, NoKummerExtensionError) as exc:
        return type(exc)
    return ctx.kind, ctx.base, ctx.gens, ctx.monomials, ctx.d, ctx.m


def test_build_kind_refuses_what_the_hand_written_builders_refused():
    """Every fixture and the first 60 normal elements under min_irreducible(n)
    for n = 1 ... 12, every kind: the same refusals with the same error
    types, and ExtBasisCtx(nb, kind) itself gives the same context or the
    same error type as build_kind.  A degree refusal depends on (kind, n)
    alone, which lets cli._first_basis stop its scan at the first one."""
    bases = [get_fixture(n).basis() for n in fixture_degrees()]
    for n in range(1, 13):
        ctx = gf.FieldCtx(bitpoly.min_irreducible(n))
        bases += [normal.build_normal_basis(ctx, a)
                  for a in islice(normal.normal_elements(ctx), 60)]
    degree_refused = {}
    for nb, kind in product(bases, KINDS):
        outcome = _outcome(xb.build_kind, nb, kind)
        assert _outcome(xb.ExtBasisCtx, nb, kind) == outcome, (kind, nb.field, nb.alpha)
        got = outcome if isinstance(outcome, type) else None
        assert got is _hand_written_verdict(nb, kind), (kind, nb.field, nb.alpha)
        degree_refused.setdefault((kind, nb.n), set()).add(got is UnsupportedDegreeError)
    assert len(bases) * len(KINDS) == 1664
    assert all(len(seen) == 1 for seen in degree_refused.values())


def test_the_context_refuses_a_cube_rule_itself():
    """Over fixture 4, a is a cube in F_16, so b^3 = a is reducible and the
    k3 program has zero divisors there: (0, 1, 3) (1, 3, 9) = 0.
    ExtBasisCtx refuses to build that ring."""
    assert xb._fold(xb.RULES["k3"], xor, partial(normal.normal_mul, NB4),
                    partial(normal.alpha_mul, NB4), (0, 1, 3), (1, 3, 9)) == (0, 0, 0)
    with pytest.raises(NoKummerExtensionError, match="cube"):
        xb.ExtBasisCtx(NB4, "k3")


def _trace_by_squarings(nb, kind, g):
    """Tr_E(c) for rule g of RULES[kind] by its definition: the sum of c's k
    conjugates c^(2^i), by k squarings in the field E the earlier rules build
    over nb.  The reference for _check_rule's tower trace."""
    mul, sq = xb._prefix_field(nb, xb.RULES[kind][:g])
    monomials = xb._monomials(xb.RULES[kind][:g])
    c = xb.rule_value(xb.RULES[kind][g].rhs, mul, nb.alpha,
                      [1 << nb.n * i for i, e in enumerate(monomials) if sum(e) == 1])
    return reduce(xor, gf._frobenius_orbit(sq, c, nb.n * len(monomials)))


def _tower_trace_bases():
    """Every fixture with n <= 26, and the first three normal elements under
    min_irreducible(n) for n = 1 ... 32, 40, 48 and 64."""
    bases = [get_fixture(n).basis() for n in fixture_degrees() if n <= 26]
    for n in (*range(1, 33), 40, 48, 64):
        ctx = gf.FieldCtx(bitpoly.min_irreducible(n))
        bases += [normal.build_normal_basis(ctx, a)
                  for a in islice(normal.normal_elements(ctx), 3)]
    return bases


def _artin_schreier_disagreements(check_rule):
    """Run check_rule on every rule of every kind whose earlier rules hold, over
    _tower_trace_bases; (count of degree-2 rules checked, those whose verdict
    differs from _trace_by_squarings)."""
    checked, differ = 0, []
    for nb, kind in product(_tower_trace_bases(), KINDS):
        for g, rule in enumerate(xb.RULES[kind]):
            try:
                check_rule(nb, xb.RULES[kind], g)
                holds = True
            except (UnsupportedDegreeError, NoKummerExtensionError):
                holds = False
            if rule.degree == 2:
                checked += 1
                if holds != (_trace_by_squarings(nb, kind, g) == 1):
                    differ.append((kind, g, nb.n, nb.alpha))
            if not holds:
                break
    return checked, differ


def test_tower_trace_agrees_with_the_trace_by_squarings():
    """_check_rule reads Tr_E(c) as Tr_n of c's coordinate on e*; the sum of
    c's conjugates in E gives the same verdict on every Artin-Schreier rule."""
    assert _artin_schreier_disagreements(xb._check_rule) == (464, [])


def test_the_tower_trace_reading_lane_0_is_caught():
    """Negative control: _check_rule with lane 0 read in place of lane e*
    accepts asw4's rule b1 at odd n, where c's lane 0 is a^2 (trace 1) but
    Tr_2n(c) = Tr_n(1 + a) = 0, and the comparison with the definition finds
    it.  Lane 0 is e* for every other Artin-Schreier rule in RULES."""
    source = textwrap.dedent(inspect.getsource(xb._check_rule))
    assert source.count("nb.n * star") == 1
    namespace = dict(vars(xb))
    exec(source.replace("nb.n * star", "nb.n * 0"), namespace)
    _, differ = _artin_schreier_disagreements(namespace["_check_rule"])
    assert differ and {(kind, g) for kind, g, _, _ in differ} == {("asw4", 1)}
    assert all(n % 2 for _, _, n, _ in differ)
    assert {n for _, _, n, _ in differ} >= {1, 3, 5, 25, 31}


def _ka6_cube_verdict(nb):
    """Whether _check_rule finds b a cube in F_{2^(2n)} (ka6's rule g^3 = b)."""
    try:
        xb._check_rule(nb, xb.RULES["ka6"], 1)
    except NoKummerExtensionError:
        return True
    return False


def test_ka6_cube_test_by_the_norm_agrees_with_the_as2_power():
    """At even n, ka6's rule g^3 = b is tested by one power in the base field
    of the norm b^(2^n + 1) = b (b + 1) = a. Its verdict equals that of the
    as2-field power b^((4^n - 1)/3) = 1, which odd n still takes, on the
    first eight normal elements under min_irreducible(n) for every even
    n <= 40: 154 bases, both verdicts present."""
    verdicts = []
    for n in range(2, 41, 2):
        ctx = gf.FieldCtx(bitpoly.min_irreducible(n))
        for a in islice(normal.normal_elements(ctx), 8):
            nb = normal.build_normal_basis(ctx, a)
            mul, sq = xb._prefix_field(nb, xb.RULES["ka6"][:1])
            b = 1 << n
            assert mul(b, b ^ b >> n) == a
            want = gf._square_and_multiply(mul, sq, 1, b, ((1 << 2 * n) - 1) // 3) == 1
            verdicts.append(_ka6_cube_verdict(nb))
            assert verdicts[-1] == want, (n, a)
    assert len(verdicts) == 154 and set(verdicts) == {True, False}


def test_ka6_cube_test_squares_in_the_as2_field_only_at_odd_n(monkeypatch):
    """The as2-field squaring is the mark of the power in F_{2^(2n)}: with it
    refusing, the ka6 verdict still comes out at even n, and only odd n
    reaches it."""
    prefix_field = xb._prefix_field

    def no_as2_squares(nb, rules):
        mul, _ = prefix_field(nb, rules)
        return mul, lambda x: pytest.fail(f"as2-field squaring at n = {nb.n}")

    bases = [get_fixture(n).basis() for n in (2, 4, 6, 8, 10, 12)]
    want = [_ka6_cube_verdict(nb) for nb in bases]
    monkeypatch.setattr(xb, "_prefix_field", no_as2_squares)
    assert [_ka6_cube_verdict(nb) for nb in bases] == want
    ctx = gf.FieldCtx(bitpoly.min_irreducible(5))
    with pytest.raises(pytest.fail.Exception, match="n = 5"):
        _ka6_cube_verdict(normal.build_normal_basis(ctx, next(normal.normal_elements(ctx))))


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
    ctx = xb.build_kind(NB2, "as2")
    with pytest.raises(DomainError):
        xb.project_base(ctx, xb.ExtElem((0, 1)))


def test_validate_rejects_malformed_elements():
    ctx = xb.build_kind(NB2, "as2")
    with pytest.raises(InvalidElementError):
        ctx.validate(xb.ExtElem((0, 0, 0)))
    with pytest.raises(InvalidElementError):
        ctx.validate(xb.ExtElem((0, 4)))
    with pytest.raises(InvalidElementError):
        ctx.validate((0, 0))


@cache
def _as2(nb):
    return xb.build_kind(nb, "as2")


@cache
def _as2_embedding(nb):
    return tables.build_embedding(_as2(nb))


# Each call passes v as one normal coordinate to a layer that must check it.
COORDINATE_CALLS = [
    pytest.param(lambda nb, v: normal.normal_mul(nb, v, 1), id="normal_mul_u"),
    pytest.param(lambda nb, v: normal.normal_mul(nb, 1, v), id="normal_mul_v"),
    pytest.param(lambda nb, v: normal.alpha_mul(nb, v), id="alpha_mul"),
    pytest.param(lambda nb, v: nb.to_poly(v), id="to_poly"),
    pytest.param(lambda nb, v: xb.embed_base(xb.build_kind(nb, "as2"), v), id="embed_base"),
    pytest.param(lambda nb, v: xb.build_kind(nb, "as2").validate(xb.ExtElem((0, v))),
                 id="validate"),
    pytest.param(lambda nb, v: xb.mul(_as2(nb), xb.ExtElem((1, 0)), xb.ExtElem((0, v))),
                 id="mul"),
    pytest.param(lambda nb, v: xb.square(_as2(nb), xb.ExtElem((v, 0))), id="square"),
    pytest.param(lambda nb, v: _as2_embedding(nb).embed_blocks((0, v)), id="embed_blocks"),
    pytest.param(lambda nb, v: gf.poly_mul_mod(nb.field, v, 1), id="poly_mul_mod_a"),
    pytest.param(lambda nb, v: gf.poly_mul_mod(nb.field, 1, v), id="poly_mul_mod_b"),
    pytest.param(lambda nb, v: gf.square(nb.field, v), id="field_square"),
]


@pytest.mark.parametrize("nb, value", [
    pytest.param(NB4, -1, id="-1"),
    pytest.param(NB4, 1 << NB4.n, id="16"),
    pytest.param(NB8, -1, id="n8--1"),
    pytest.param(NB8, 1 << NB8.n, id="n8-256"),
    pytest.param(NB8, 1.0, id="n8-float"),
    pytest.param(NB10, -1, id="n10--1"),
    pytest.param(NB10, 1 << NB10.n, id="n10-1024"),
    pytest.param(NB10, 1.0, id="n10-float"),
])
@pytest.mark.parametrize("call", COORDINATE_CALLS)
def test_out_of_range_coordinates_raise_invalid_element_error(call, nb, value):
    """Every layer refuses a normal coordinate that is not an int in [0, 2^n)
    with one error type. At n <= 8 normal_mul indexes its logarithm tables
    by the operands, where -1 would wrap silently and 2^8 and 1.0 would
    raise IndexError and TypeError; at n = 10 it walks T, and alpha_mul's
    prepared map has two windows, where 2^10 would index past the second."""
    with pytest.raises(InvalidElementError):
        call(nb, value)


@pytest.mark.parametrize("nb", [NB4, NB8, NB10], ids=["n4", "n8", "n10"])
@pytest.mark.parametrize("call", COORDINATE_CALLS)
def test_a_bool_coordinate_is_accepted_as_an_int(call, nb):
    """bool is an int, as field.validate has it: True passes every layer's
    check, including the ones that test the exact type first, and gives the
    result of 1."""
    assert call(nb, True) == call(nb, 1)


@pytest.mark.parametrize("nb", [NB8, NB10], ids=["n8", "n10"])
@pytest.mark.parametrize("call", COORDINATE_CALLS)
def test_a_numpy_int_coordinate_is_refused(call, nb):
    """A numpy integer is not an int, as field.validate has it: every
    layer refuses it, in range or not, including the ones that test the
    exact type first."""
    np = pytest.importorskip("numpy")
    for value in (np.int64(1), np.uint8(3)):
        with pytest.raises(InvalidElementError):
            call(nb, value)


def test_hex_round_trip():
    rng = random.Random(20240810)
    for ctx in _contexts():
        for _ in range(20):
            x = _rand_elem(rng, ctx)
            s = xb.ext_to_hex(ctx, x)
            assert s.count(":") == ctx.d - 1
            assert xb.ext_parse(ctx, s) == x
    ctx = xb.build_kind(NB2, "as2")
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
    ctx = xb.build_kind(NB2, "k3")
    x = _rand_elem(rng, ctx)
    acc = xb.identity(ctx)
    for e in range(12):
        assert xb.power(ctx, x, e) == acc
        acc = xb.mul(ctx, acc, x)


def test_power_refuses_a_negative_exponent():
    """-1 >> 1 == -1, so square-and-multiply would never end on e < 0; an
    exponent that is not an int is refused too, and a bool is an int."""
    ctx = xb.build_kind(NB2, "as2")
    for e in (-1, -6, 1.5, 2.0, "3", None):
        with pytest.raises(DomainError):
            xb.power(ctx, xb.identity(ctx), e)
    b = xb.generator_element(ctx, "b")
    assert xb.power(ctx, b, True) == b
    assert xb.power(ctx, b, False) == xb.identity(ctx)


def test_power_validates_its_base_at_every_exponent():
    """At e = 0 square-and-multiply calls no mul, so power validates x itself:
    a block out of range, a wrong block count and a non-element raise at
    e = 0 as at e = 1, and a valid x at e = 0 gives the identity with a zero
    tally."""
    ctx = xb.build_kind(NB4, "as2")
    for bad in (xb.ExtElem((999, 0)), xb.ExtElem((1,)), "junk"):
        for e in (0, 1):
            with pytest.raises(InvalidElementError):
                xb.power(ctx, bad, e)
    ctx.counter.reset()
    assert xb.power(ctx, _rand_elem(random.Random(0), ctx), 0) == xb.identity(ctx)
    assert ctx.counter.as_tuple() == (0, 0, 0)


def test_defining_equation_as2():
    """b^2 = b + alpha."""
    for nb in (NB2, NB4, NB6):
        ctx = xb.build_kind(nb, "as2")
        b = xb.quad_generator(ctx)
        expected = _xor(b, xb.embed_base(ctx, 1))
        assert xb.square(ctx, b) == expected


def test_defining_equation_k3():
    """b^3 = alpha."""
    ctx = xb.build_kind(NB2, "k3")
    b = xb.generator_element(ctx, "b")
    cube = xb.mul(ctx, xb.mul(ctx, b, b), b)
    assert cube == xb.embed_base(ctx, 1)


def test_defining_equation_asw4():
    """b0^2 = b0 + alpha and b1^2 = b1 + (1 + alpha) b0 + alpha^2."""
    for nb in (NB2, NB4):
        ctx = xb.build_kind(nb, "asw4")
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
    ctx = xb.build_kind(NB2, "ka6")
    g = xb.generator_element(ctx, "g")
    b = xb.generator_element(ctx, "b")
    cube = xb.mul(ctx, xb.mul(ctx, g, g), g)
    assert cube == b
    assert xb.square(ctx, b) == _xor(b, xb.embed_base(ctx, 1))


def test_generator_element_errors():
    ctx = xb.build_kind(NB2, "as2")
    with pytest.raises(DomainError):
        xb.generator_element(ctx, "g")
    with pytest.raises(DomainError):
        xb.quad_generator(xb.build_kind(NB2, "k3"))


def test_element_is_cube_does_not_disturb_tally():
    """The cube test of b (rule g^3 = b of ka6 over as2's base), made by
    kummer_over_as2_possible and by build_kind, runs on polynomial
    coordinates and adds nothing to as2's tally or to a new ka6's."""
    ctx = xb.build_kind(NB2, "as2")
    ctx.counter.reset()
    assert tower.kummer_over_as2_possible(ctx)   # b is not a cube at NB2
    assert ctx.counter.as_tuple() == (0, 0, 0)
    assert xb.build_kind(NB2, "ka6").counter.as_tuple() == (0, 0, 0)


# --- operation counting ---------------------------------------------------

MUL_EXPECT = {"as2": (3, 4, 1), "k3": (6, 15, 2), "asw4": (9, 33, 9), "ka6": (18, 56, 8)}
SQ_EXPECT = {"as2": (0, 1, 1), "k3": (0, 0, 1), "asw4": (0, 9, 6), "ka6": (0, 4, 3)}


def _source_program(rules):
    """The source product program that _compiled(rules) records: asw4's
    hand-written one, else the fold over the rules."""
    return xb._HAND_WRITTEN.get(rules, partial(xb._fold, rules))


# Every product program with its (program, kind, tally): each kind's, and the
# fold over asw4's rules, which asw4 does not run while its tally is frozen.
PROGRAMS = [pytest.param(_source_program(xb.RULES[kind]), kind, MUL_EXPECT[kind], id=kind)
            for kind in KINDS] + [
    pytest.param(partial(xb._fold, xb.RULES["asw4"]), "asw4", (9, 26, 7), id="asw4-fold")]

# Every tuple of rules a kind compiles: its own and each prefix rules[:g],
# g >= 1, which its rule test multiplies in.  ka6's first is as2's tuple.
COMPILED_TUPLES = [pytest.param(rules[:g], id=f"{kind}-{g}")
                   for kind, rules in xb.RULES.items() for g in range(1, len(rules) + 1)]


def test_frozen_count_tables_match_module_constants():
    assert xb.EXPECTED_MUL_COUNTS == MUL_EXPECT
    assert xb.EXPECTED_SQUARE_COUNTS == SQ_EXPECT


def _counting(log, add, mul, tvp):
    """add, mul and tvp, each also appending its name to log per call."""
    def counted(name, op):
        def run(*args):
            log.append(name)
            return op(*args)
        return run
    return counted("add", add), counted("mul", mul), counted("tvp", tvp)


def _tally(log):
    return tuple(map(log.count, ("mul", "add", "tvp")))


def _counted_runs(ctx, x, y):
    """The product and square programs run on x, y with the base field's
    operations, each counting its calls: (product, its tally, square, its
    tally)."""
    ops = (int.__xor__, partial(normal.normal_mul, ctx.base),
           partial(normal.alpha_mul, ctx.base))
    mul_log, sq_log = [], []
    prod = _source_program(ctx.rules)(*_counting(mul_log, *ops), x.blocks, y.blocks)
    add, _, tvp = _counting(sq_log, *ops)
    sq = xb._square_walk(add, tvp, ctx.rules,
                         [normal.frobenius_shift(ctx.n, v) for v in x.blocks])
    return prod, _tally(mul_log), sq, _tally(sq_log)


@pytest.mark.parametrize("kind", KINDS)
def test_mul_and_square_counts_exact_and_input_independent(kind):
    """Counted on random operands, every run of the programs makes the frozen
    count of operations, and mul and square add exactly that to the tally."""
    rng = random.Random(f"counts:{kind}")
    for nb in (NB2, NB4, NB6):
        try:
            ctx = xb.build_kind(nb, kind)
        except (NoKummerExtensionError, UnsupportedDegreeError):
            continue
        for _ in range(10):
            x, y = _rand_elem(rng, ctx), _rand_elem(rng, ctx)
            prod, mul_tally, sq, sq_tally = _counted_runs(ctx, x, y)
            assert (mul_tally, sq_tally) == (MUL_EXPECT[kind], SQ_EXPECT[kind])
            ctx.counter.reset()
            assert xb.mul(ctx, x, y).blocks == prod
            assert ctx.counter.as_tuple() == MUL_EXPECT[kind]
            ctx.counter.reset()
            assert xb.square(ctx, x).blocks == sq
            assert ctx.counter.as_tuple() == SQ_EXPECT[kind]


def _edge_and_random_elems(rng, ctx):
    """Zero, one, all-ones, every element with a single set bit, and eight
    seeded elements of ctx."""
    mask = ctx.base.field.mask
    return [xb.zero(ctx), xb.identity(ctx), xb.ExtElem((mask,) * ctx.d),
            *(xb.ExtElem(tuple(1 << i if q == p else 0 for q in range(ctx.d)))
              for p in range(ctx.d) for i in range(ctx.n)),
            *(_rand_elem(rng, ctx) for _ in range(8))]


def _assert_prefix_fields_run_the_source(rng, nb, rules):
    """For each tuple rules[:g], g >= 1: _prefix_field's product and square,
    on lanes of polynomial coordinates, give what the source program and
    walk give on poly_mul_mod and its product by a, for zero, one, all-ones,
    each single set bit and eight seeded elements."""
    field, n = nb.field, nb.n
    mul, tvp = partial(gf.poly_mul_mod, field), partial(gf.poly_mul_mod, field, nb.alpha)
    for g in range(1, len(rules) + 1):
        prefix = rules[:g]
        d = len(xb._monomials(prefix))
        lanes = partial(unpack_lanes, width=n, count=d)
        prefix_mul, prefix_square = xb._prefix_field(nb, prefix)
        elems = [0, 1, (1 << n * d) - 1, *(1 << i for i in range(n * d)),
                 *(rng.getrandbits(n * d) for _ in range(8))]
        for x in elems:
            for y in (x, elems[2], rng.getrandbits(n * d)):
                assert lanes(prefix_mul(x, y)) == _source_program(prefix)(
                    xor, mul, tvp, lanes(x), lanes(y)), (n, g, x, y)
            assert lanes(prefix_square(x)) == xb._square_walk(
                xor, tvp, prefix, [gf.square(field, v) for v in lanes(x)]), (n, g, x)


@pytest.mark.parametrize("kind", KINDS)
def test_compiled_programs_are_the_source_programs(kind):
    """Over every fixture of degree at most 26 that admits the kind, mul and
    square give what the source program and walk give when run on xor,
    normal_mul and alpha_mul.  Over every fixture of degree at most 26,
    _prefix_field of each of the kind's tuples, the compiled code the rule
    test runs, gives what they give on poly_mul_mod."""
    rng = random.Random(f"compiled:{kind}")
    built = 0
    for n in fixture_degrees():
        if n > 26:
            continue
        _assert_prefix_fields_run_the_source(rng, get_fixture(n).basis(), xb.RULES[kind])
        try:
            ctx = xb.build_kind(get_fixture(n).basis(), kind)
        except (NoKummerExtensionError, UnsupportedDegreeError):
            continue
        built += 1
        mul, tvp = partial(normal.normal_mul, ctx.base), partial(normal.alpha_mul, ctx.base)
        elems = _edge_and_random_elems(rng, ctx)
        for x in elems:
            for y in (x, elems[2], _rand_elem(rng, ctx)):
                assert xb.mul(ctx, x, y).blocks == _source_program(ctx.rules)(
                    int.__xor__, mul, tvp, x.blocks, y.blocks), (n, x, y)
            assert xb.square(ctx, x).blocks == xb._square_walk(
                int.__xor__, tvp, ctx.rules,
                [normal.frobenius_shift(n, v) for v in x.blocks]), (n, x)
    assert built >= 3


def test_building_runs_no_source_program_once_compiled(monkeypatch):
    """Extended products have one runtime path: with every tuple compiled,
    building every kind over every fixture of degree at most 26 calls
    _fold, _walk and _square_walk not once.  The same counters see the
    calls that compiling a tuple makes."""
    bases = [get_fixture(n).basis() for n in fixture_degrees() if n <= 26]

    def build_all():
        for nb, kind in product(bases, KINDS):
            try:
                xb.build_kind(nb, kind)
            except (NoKummerExtensionError, UnsupportedDegreeError):
                pass
    build_all()
    calls = Counter()
    for name in ("_fold", "_walk", "_square_walk"):
        def counted(*args, _name=name, _fn=getattr(xb, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(xb, name, counted)
    build_all()
    assert calls == {}
    xb._compiled.__wrapped__(xb.RULES["ka6"])
    assert calls["_fold"] and calls["_walk"] and calls["_square_walk"] == 1


@pytest.mark.parametrize("kind", KINDS)
def test_compiled_programs_call_the_kernels_by_name(kind, monkeypatch):
    """mul and square look up normal_mul and alpha_mul in extbasis at each
    call, as a tracer that rebinds them there needs, and call them as often
    as the frozen tally says: so the tally is what runs."""
    ctx = next(ctx for ctx in _contexts() if ctx.kind == kind)
    calls = Counter()

    def counted(name):
        kernel = getattr(xb, name)

        def run(*args):
            calls[name] += 1
            return kernel(*args)
        monkeypatch.setattr(xb, name, run)
    counted("normal_mul")
    counted("alpha_mul")
    x, y = _rand_elem(random.Random(kind), ctx), xb.identity(ctx)
    assert xb.mul(ctx, x, y) == x
    assert (calls["normal_mul"], calls["alpha_mul"]) == \
        (xb.EXPECTED_MUL_COUNTS[kind][0], xb.EXPECTED_MUL_COUNTS[kind][2])
    calls.clear()
    xb.square(ctx, x)
    assert (calls["normal_mul"], calls["alpha_mul"]) == \
        (0, xb.EXPECTED_SQUARE_COUNTS[kind][2])


def test_product_programs_have_no_branches():
    """The hand-written programs (the fold's two step templates and asw4's
    program) have no branch and call nothing but their arguments."""
    branches = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.ListComp,
                ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.IfExp,
                ast.Match, ast.BoolOp, ast.Try)
    templates = {*xb._STEP.values(), *xb._HAND_WRITTEN.values()}
    assert {f.__name__ for f in templates} == {"_as2_mul", "_cubic_mul", "_asw4_mul"}
    for program in templates:
        tree = ast.parse(textwrap.dedent(inspect.getsource(program)))
        nodes = list(ast.walk(tree))
        assert [type(n).__name__ for n in nodes if isinstance(n, branches)] == [], \
            program.__name__
        names = [n for n in nodes if isinstance(n, ast.Name)]
        bound = {n.arg for n in nodes if isinstance(n, ast.arg)}
        bound |= {n.id for n in names if isinstance(n.ctx, ast.Store)}
        free = {n.id for n in names if isinstance(n.ctx, ast.Load)} - bound
        assert free == set(), (program.__name__, free)


class _ValueRead(Exception):
    """Code read the value of an _Opaque operand."""


class _Opaque:
    """An operand whose value cannot be read: a truth test, comparison, hash,
    conversion to int, length or iteration raises _ValueRead."""

    def _read(self, *args):
        raise _ValueRead

    __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _read
    __hash__ = __index__ = __int__ = __len__ = __iter__ = _read


def _opaque(*args):
    """A new _Opaque from _Opaque operands: the sum, product and product by a
    of opaque operands alike."""
    assert all(isinstance(v, _Opaque) for v in args)
    return _Opaque()


def _opaque_tallies(program, kind):
    """The tallies of program and of the kind's square walk, each run on
    opaque blocks."""
    d = len(xb._monomials(xb.RULES[kind]))
    x, y = [_Opaque() for _ in range(d)], [_Opaque() for _ in range(d)]
    mul_log, sq_log = [], []
    prod = program(*_counting(mul_log, _opaque, _opaque, _opaque), x, y)
    add, _, tvp = _counting(sq_log, _opaque, _opaque, _opaque)
    sq = xb._square_walk(add, tvp, xb.RULES[kind], x)
    assert len(prod) == len(sq) == d
    assert all(isinstance(v, _Opaque) for v in prod + sq)
    return _tally(mul_log), _tally(sq_log)


@pytest.mark.parametrize("program, kind, tally", PROGRAMS)
def test_programs_run_on_operands_whose_value_cannot_be_read(program, kind, tally):
    """_compiled records and counts one run of each product program and
    square walk; that run stands for every run only if nothing in their call
    tree, the fold, the plans and the walk included, branches on an
    operand.  On opaque operands both run to the end with their tallies."""
    assert _opaque_tallies(program, kind) == (tally, SQ_EXPECT[kind])


def _zero_skipping_step(add, mul, by_c, x, y):
    """The degree-2 step with a branch on an operand: when C1 = 0 it makes
    only C0 D0 and C0 D1, a right product with another tally."""
    C0, C1 = x
    if all(v == 0 for v in C1):
        return (mul(C0, y[0]), mul(C0, y[1]))
    return xb._as2_mul(add, mul, by_c, x, y)


def test_a_branch_on_an_operand_fails_the_opaque_run(monkeypatch):
    """Negative control: with the zero-skipping step as the fold's degree-2
    step, the as2 and ka6 programs still multiply right, but their opaque
    runs fail, in ka6 two folds down."""
    ctx = xb.build_kind(NB2, "ka6")
    ops = (int.__xor__, partial(normal.normal_mul, NB2), partial(normal.alpha_mul, NB2))
    elems = _edge_and_random_elems(random.Random("zero-skipping"), ctx)
    want = [xb.mul(ctx, x, y).blocks for x, y in product(elems, repeat=2)]
    monkeypatch.setitem(xb._STEP, 2, _zero_skipping_step)
    assert [_source_program(ctx.rules)(*ops, x.blocks, y.blocks)
            for x, y in product(elems, repeat=2)] == want
    for kind in ("as2", "ka6"):
        with pytest.raises(_ValueRead):
            _opaque_tallies(_source_program(xb.RULES[kind]), kind)


def test_counter_accumulates():
    ctx = xb.build_kind(NB2, "as2")
    rng = random.Random(20240816)
    x, y = _rand_elem(rng, ctx), _rand_elem(rng, ctx)
    ctx.counter.reset()
    xb.mul(ctx, x, y)
    xb.mul(ctx, x, y)
    assert ctx.counter.as_tuple() == (6, 8, 2)


@pytest.mark.parametrize("kind", KINDS)
def test_a_context_keeps_its_compiled_program(kind, monkeypatch):
    """Building a context reads the compiled code of its prefix tuples at
    most, never its own tuple's; its first mul or square reads
    _compiled(ctx.rules) once and keeps it, so later products make no
    lookup. A pickled or copied context, used or not, has equal rules,
    multiplies the same and compiles on its own first use."""
    base = next(ctx for ctx in _contexts() if ctx.kind == kind).base
    calls = Counter()
    compiled = xb._compiled

    def counted(rules):
        calls[rules] += 1
        return compiled(rules)
    monkeypatch.setattr(xb, "_compiled", counted)
    ctx = xb.build_kind(base, kind)
    assert ctx.rules is xb.RULES[kind]
    assert ctx._program is None and set(calls) <= {ctx.rules[:g] for g in range(1, len(ctx.rules))}
    calls.clear()
    x, y = (_rand_elem(random.Random(kind), ctx) for _ in range(2))
    want = xb.mul(ctx, x, y)
    for _ in range(3):
        assert xb.mul(ctx, x, y) == want and xb.square(ctx, x) == xb.mul(ctx, x, x)
    assert calls == {ctx.rules: 1} and ctx._program is compiled(ctx.rules)
    for twin in (pickle.loads(pickle.dumps(ctx)), copy.deepcopy(ctx), copy.copy(ctx)):
        assert twin.rules == ctx.rules and xb.mul(twin, x, y) == want
    assert xb.square(xb.build_kind(base, kind), x) == xb.mul(ctx, x, x)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_a_context_squares_and_multiplies_by_its_own_rules(n, monkeypatch):
    """A context built before RULES["as2"] changes, here to b^2 + b = a^2,
    and first used after it, on a fresh compile cache, still multiplies
    and squares by the rules it was built and checked with: square(x) is
    mul(x, x), and both are what they were before the change."""
    nb = get_fixture(n).basis()
    ctx, twin = xb.build_kind(nb, "as2"), xb.build_kind(nb, "as2")
    rng = random.Random(f"rules-split:{n}")
    elems = [xb.generator_element(ctx, "b"), *(_rand_elem(rng, ctx) for _ in range(4))]
    want = [xb.mul(twin, x, x) for x in elems]
    assert want[0] == _xor(elems[0], xb.embed_base(ctx, 1))  # b^2 = b + a
    monkeypatch.setattr(xb, "_compiled", cache(xb._compiled.__wrapped__))
    monkeypatch.setitem(xb.RULES, "as2", (xb.Rule("b", 2, (((), 0b100),)),))
    got = [(xb.square(ctx, x), xb.mul(ctx, x, x)) for x in elems]
    assert got == [(w, w) for w in want]


def test_copies_keep_their_rules(monkeypatch):
    """A copy, a deep copy and a pickle of an as2 context keep the rules
    tuple it was built with, and multiply and square as it does, after
    RULES["as2"] is rebound."""
    ctx = xb.build_kind(get_fixture(4).basis(), "as2")
    rng = random.Random("copies")
    x, y = (_rand_elem(rng, ctx) for _ in range(2))
    want = xb.mul(ctx, x, y)
    pickled = pickle.dumps(ctx)  # loaded after the rebinding
    monkeypatch.setitem(xb.RULES, "as2", (xb.Rule("b", 2, (((), 0b100),)),))
    for twin in (copy.copy(ctx), copy.deepcopy(ctx), pickle.loads(pickled),
                 pickle.loads(pickle.dumps(ctx))):
        assert twin.rules == ctx.rules and twin.kind == "as2"
        assert xb.mul(twin, x, y) == want and xb.square(twin, x) == xb.mul(ctx, x, x)


def test_rules_are_values():
    """RULES holds plain data, which pickles as it is. A rules tuple built
    separately from equal data is equal to RULES["asw4"], hashes equal and
    gets its one compiled program; one flipped bitmask is another key."""
    assert all(isinstance(r.rhs, tuple) and all(isinstance(m, int) and
                                                all(isinstance(e, int) for e in exps)
                                                for exps, m in r.rhs)
               for rules in xb.RULES.values() for r in rules)
    assert pickle.loads(pickle.dumps(xb.RULES)) == xb.RULES
    twin = (xb.Rule("b0", 2, (((), 0b10),)), xb.Rule("b1", 2, (((1,), 0b11), ((0,), 0b100))))
    assert twin == xb.RULES["asw4"] and hash(twin) == hash(xb.RULES["asw4"])
    assert twin is not xb.RULES["asw4"] and xb._compiled(twin) is xb._compiled(xb.RULES["asw4"])
    flipped = (twin[0], twin[1]._replace(rhs=(((1,), 0b11), ((0,), 0b101))))
    assert flipped != twin and xb._compiled(flipped) is not xb._compiled(twin)


def _powers_sum(rhs, mul, a, gens):
    """A rule's c by the definition: sum over its terms and the set bits i
    of each mask of a^i times the monomial, each power a product from 1."""
    def power(x, e):
        return reduce(mul, [x] * e, 1)
    return reduce(xor, (mul(power(a, i), reduce(mul, map(power, gens, exps), 1))
                        for exps, mask in rhs for i in range(mask.bit_length())
                        if mask >> i & 1), 0)


@pytest.mark.parametrize("rhs,products", [
    *((r.rhs, 0) for r in (*xb.RULES["as2"], *xb.RULES["k3"], xb.RULES["asw4"][0],
                           xb.RULES["ka6"][1])),
    (xb.RULES["asw4"][1].rhs, 1),
    ((((2, 1), 0b1), ((0, 0), 0b1000), ((1, 3), 0b110)), 7),
])
def test_rule_value_is_the_sum_of_its_terms(rhs, products):
    """rule_value in F_2^8 is the sum of mask(a) times each monomial, on
    random a and generators, with the pinned number of products, none of
    them by 0 or 1: none for c = a or c = b, one for asw4's
    c = (1 + a) b0 + a^2 (Horner: (a + b0) a + b0)."""
    F = gf.FieldCtx(0b100011011)
    calls = []

    def mul(x, y):
        assert x > 1 and y > 1, (x, y)
        calls.append((x, y))
        return gf.poly_mul_mod(F, x, y)
    rng = random.Random(repr(rhs))
    for _ in range(20):
        a, *gens = (rng.randrange(2, 256) for _ in range(1 + max(map(len, (e for e, _ in rhs)))))
        calls.clear()
        got = xb.rule_value(rhs, mul, a, gens)
        assert len(calls) == products
        assert got == _powers_sum(rhs, partial(gf.poly_mul_mod, F), a, gens)


def test_ext_elem_and_op_counter_are_values():
    """ExtElem is immutable and equal and hashed by its blocks; OpCounter
    records, resets and compares by its tally."""
    x, y = xb.ExtElem((1, 2)), xb.ExtElem((1, 2))
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1 and x is not y
    assert x != xb.ExtElem((2, 1)) and x != (1, 2) and list(x) == [1, 2]
    assert copy.copy(x) == pickle.loads(pickle.dumps(x)) == x
    with pytest.raises(AttributeError):
        x.blocks = (3, 4)
    with pytest.raises(AttributeError):
        del x.blocks
    with pytest.raises(AttributeError):
        x.extra = 0
    assert x.blocks == (1, 2)
    counter = xb.OpCounter()
    counter.record((3, 4, 1))
    counter.record((0, 1, 1))
    assert counter == xb.OpCounter(3, 5, 2) and counter.as_tuple() == (3, 5, 2)
    counter.reset()
    assert counter == xb.OpCounter() and counter.as_tuple() == (0, 0, 0)


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


def _dropping(count, drop=None):
    """SymPoly's sum and product by a, over `count` generators, and a list
    holding the number of their calls so far.  The call numbered `drop` is
    a mutant: the sum returns its first operand and the product by a its
    operand unchanged."""
    a = SymPoly.const(A, count)
    calls = [0]

    def kept():
        calls[0] += 1
        return calls[0] - 1 != drop

    def add(u, v):
        return u + v if kept() else u

    def tvp(v):
        return v * a if kept() else v

    return add, tvp, calls


def _symbolic_product(program, d, drop=None):
    """A product program run on x_0..x_{d-1}, y_0..y_{d-1}."""
    add, tvp, calls = _dropping(2 * d, drop)
    gens = [SymPoly.gen(g, 2 * d) for g in range(2 * d)]
    out = program(add, SymPoly.__mul__, tvp, gens[:d], gens[d:])
    return calls[0], [z.terms for z in out]


@pytest.mark.parametrize("program, kind, tally", PROGRAMS)
def test_product_program_is_the_structure_constants_over_f2_a(program, kind, tally):
    """Output r of the program is sum c_pqr x_p y_q as a polynomial over
    F_2[a]: so the product is right for every n, basis and input.  Each
    mutant that drops one add or one product by a gives a different
    polynomial."""
    d = xb.ExtBasisCtx(NB2, kind).d
    gens = [SymPoly.gen(g, 2 * d) for g in range(2 * d)]
    want = [SymPoly() for _ in range(d)]
    for (p, q), cs in xb.structure_constants(kind).items():
        for r, c in cs.items():
            want[r] += SymPoly.const(c, 2 * d) * gens[p] * gens[d + q]
    calls, got = _symbolic_product(program, d)
    assert got == [w.terms for w in want]
    _, adds, tvps = tally
    assert calls == adds + tvps
    for drop in range(calls):
        assert _symbolic_product(program, d, drop)[1] != got, drop


def _symbolic_square(kind, drop=None):
    """square's walk run on X_0..X_{d-1}, where X_p stands for x_p^2."""
    d = xb.ExtBasisCtx(NB2, kind).d
    add, tvp, calls = _dropping(d, drop)
    out = xb._square_walk(add, tvp, xb.RULES[kind], [SymPoly.gen(p, d) for p in range(d)])
    return calls[0], [z.terms for z in out]


@pytest.mark.parametrize("kind", KINDS)
def test_square_walk_is_the_diagonal_over_f2_a(kind):
    """In characteristic 2, (sum_p x_p m_p)^2 = sum_p x_p^2 m_p^2, so output
    r of the walk must be sum_p c_ppr X_p as a polynomial over F_2[a].  Each
    mutant that drops one add or one product by a gives a different
    polynomial."""
    d = xb.ExtBasisCtx(NB2, kind).d
    want = [SymPoly() for _ in range(d)]
    for (p, q), cs in xb.structure_constants(kind).items():
        for r, c in cs.items():
            if p == q:
                want[r] += SymPoly.const(c, d) * SymPoly.gen(p, d)
    calls, got = _symbolic_square(kind)
    assert got == [w.terms for w in want]
    _, adds, tvps = SQ_EXPECT[kind]
    assert calls == adds + tvps
    for drop in range(calls):
        assert _symbolic_square(kind, drop)[1] != got, drop


@pytest.mark.parametrize("kind", KINDS)
def test_product_by_c_is_read_off_the_structure_constants(kind):
    """For every rule of the kind, over the field E of the rules before it,
    the fold's product by c takes blocks X_p to sum_p (c m_p)_r X_p: c m_p
    computed here from the rule's rhs and E's rewrites alone.  This covers
    asw4's b1, c = b0 + a b0 + a^2, and ka6's g, c = b."""
    for g, rule in enumerate(xb.RULES[kind]):
        lower = xb.RULES[kind][:g]
        monomials = xb._monomials(lower)
        rewrites = xb.rule_rewrites(lower)
        c = SymPoly(dict(rule.rhs)).reduce(rewrites)
        d = len(monomials)
        xs = [SymPoly.gen(p, d) for p in range(d)]
        want = [SymPoly() for _ in range(d)]
        for p, e in enumerate(monomials):
            for mono, coeff in (c * SymPoly({e: 1})).reduce(rewrites).terms.items():
                want[monomials.index(mono)] += SymPoly.const(coeff, d) * xs[p]
        a = SymPoly.const(A, d)
        got = xb._walk(SymPoly.__add__, lambda v: v * a,
                       xb._plan(xb.RULES[kind][:g + 1], by_c=True), xs)
        assert [z.terms for z in got] == [w.terms for w in want], (kind, rule.gen)


@pytest.mark.parametrize("rules", COMPILED_TUPLES)
def test_compiled_code_is_the_structure_constants_over_f2_a(rules):
    """The compiled product of every tuple a kind compiles, its prefixes
    included, run on SymPoly generators (a compiled sum is an inline ^,
    which SymPoly takes as its sum), gives sum c_pqr x_p y_q in output r,
    and its compiled walk on X_0..X_{d-1} gives the diagonal sum_p c_ppr X_p:
    so the code that runs, not only its source, is right for every n,
    basis and input."""
    d = len(xb._monomials(rules))
    gens = [SymPoly.gen(g, 2 * d) for g in range(2 * d)]
    a = SymPoly.const(A, 2 * d)
    product_want, walk_want = [SymPoly() for _ in range(d)], [SymPoly() for _ in range(d)]
    for (p, q), cs in xb._structure_constants(rules).items():
        for r, c in cs.items():
            product_want[r] += SymPoly.const(c, 2 * d) * gens[p] * gens[d + q]
            if p == q:
                walk_want[r] += SymPoly.const(c, 2 * d) * gens[p]
    program = xb._compiled(rules)
    got = program.product(lambda ctx, u, v: u * v, lambda ctx, v: v * a, None, *gens)
    assert [z.terms for z in got] == [w.terms for w in product_want]
    got = program.walk(lambda ctx, v: v * a, None, *gens[:d])
    assert [z.terms for z in got] == [w.terms for w in walk_want]
