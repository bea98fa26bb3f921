"""Tests for extended bases: build_kind, counted arithmetic, and op-count contracts."""

import ast
import inspect
import random
import textwrap
from functools import partial
from itertools import islice, product

import pytest

from charfield2 import bitpoly, extbasis as xb, field as gf, normal, tower
from charfield2.witt import SymPoly
from charfield2.errors import (DomainError, InvalidElementError,
                               NoKummerExtensionError, UnsupportedDegreeError)
from charfield2.fixtures import fixture_degrees, get_fixture

NB1 = get_fixture(1).basis()
NB2 = get_fixture(2).basis()
NB4 = get_fixture(4).basis()
NB6 = get_fixture(6).basis()

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


def test_build_kind_refuses_what_the_hand_written_builders_refused():
    """Every fixture and the first 60 normal elements under min_irreducible(n)
    for n = 1 ... 12, every kind: the same refusals with the same error
    types.  A degree refusal depends on (kind, n) alone, which lets
    cli._first_basis stop its scan at the first one."""
    bases = [get_fixture(n).basis() for n in fixture_degrees()]
    for n in range(1, 13):
        ctx = gf.FieldCtx(bitpoly.min_irreducible(n))
        bases += [normal.build_normal_basis(ctx, a)
                  for a in islice(normal.normal_elements(ctx), 60)]
    degree_refused = {}
    for nb, kind in product(bases, KINDS):
        try:
            xb.build_kind(nb, kind)
            got = None
        except (UnsupportedDegreeError, NoKummerExtensionError) as exc:
            got = type(exc)
        assert got is _hand_written_verdict(nb, kind), (kind, nb.field, nb.alpha)
        degree_refused.setdefault((kind, nb.n), set()).add(got is UnsupportedDegreeError)
    assert len(bases) * len(KINDS) == 1664
    assert all(len(seen) == 1 for seen in degree_refused.values())


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


@pytest.mark.parametrize("value", [-1, 1 << NB4.n])
@pytest.mark.parametrize("call", [
    lambda v: normal.normal_mul(NB4, v, 1),
    lambda v: normal.normal_mul(NB4, 1, v),
    lambda v: normal.alpha_mul(NB4, v),
    lambda v: NB4.to_poly(v),
    lambda v: xb.embed_base(xb.build_kind(NB4, "as2"), v),
    lambda v: xb.build_kind(NB4, "as2").validate(xb.ExtElem((0, v))),
], ids=["normal_mul_u", "normal_mul_v", "alpha_mul", "to_poly", "embed_base", "validate"])
def test_out_of_range_coordinates_raise_invalid_element_error(call, value):
    """Every layer refuses a normal coordinate outside [0, 2^n) with one error type."""
    with pytest.raises(InvalidElementError):
        call(value)


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
    """-1 >> 1 == -1, so square-and-multiply would never end on e < 0."""
    ctx = xb.build_kind(NB2, "as2")
    for e in (-1, -6):
        with pytest.raises(DomainError):
            xb.power(ctx, xb.identity(ctx), e)


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
    prod = xb._MUL[ctx.kind](*_counting(mul_log, *ops), x.blocks, y.blocks)
    add, _, tvp = _counting(sq_log, *ops)
    sq = xb._square_walk(add, tvp, ctx.kind,
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


def test_product_programs_have_no_branches():
    """_tally counts one run of each product program on zeros; that run
    stands for every run only if no program, nor any function it calls, can
    take another path on other operands."""
    branches = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.ListComp,
                ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.IfExp,
                ast.Match, ast.BoolOp, ast.Try)
    programs = {f.__name__ for f in xb._MUL.values()}
    for program in set(xb._MUL.values()):
        tree = ast.parse(textwrap.dedent(inspect.getsource(program)))
        nodes = list(ast.walk(tree))
        assert [type(n).__name__ for n in nodes if isinstance(n, branches)] == [], \
            program.__name__
        names = [n for n in nodes if isinstance(n, ast.Name)]
        bound = {n.arg for n in nodes if isinstance(n, ast.arg)}
        bound |= {n.id for n in names if isinstance(n.ctx, ast.Store)}
        free = {n.id for n in names if isinstance(n.ctx, ast.Load)} - bound
        assert free <= programs | {"partial"}, (program.__name__, free)


def test_counter_accumulates():
    ctx = xb.build_kind(NB2, "as2")
    rng = random.Random(20240816)
    x, y = _rand_elem(rng, ctx), _rand_elem(rng, ctx)
    ctx.counter.reset()
    xb.mul(ctx, x, y)
    xb.mul(ctx, x, y)
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


def _symbolic_product(kind, drop=None):
    """The kind's product program run on x_0..x_{d-1}, y_0..y_{d-1}."""
    d = xb.ExtBasisCtx(NB2, kind).d
    add, tvp, calls = _dropping(2 * d, drop)
    gens = [SymPoly.gen(g, 2 * d) for g in range(2 * d)]
    out = xb._MUL[kind](add, SymPoly.__mul__, tvp, gens[:d], gens[d:])
    return calls[0], [z.terms for z in out]


@pytest.mark.parametrize("kind", KINDS)
def test_product_program_is_the_structure_constants_over_f2_a(kind):
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
    calls, got = _symbolic_product(kind)
    assert got == [w.terms for w in want]
    _, adds, tvps = MUL_EXPECT[kind]
    assert calls == adds + tvps
    for drop in range(calls):
        assert _symbolic_product(kind, drop)[1] != got, drop


def _symbolic_square(kind, drop=None):
    """square's walk run on X_0..X_{d-1}, where X_p stands for x_p^2."""
    d = xb.ExtBasisCtx(NB2, kind).d
    add, tvp, calls = _dropping(d, drop)
    out = xb._square_walk(add, tvp, kind, [SymPoly.gen(p, d) for p in range(d)])
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
