"""Tests for the length-2 Witt vector formulas and the quartic reduction rules.

The formulas `_w2_add`, `_w2_mul` and `_wp` take the component ring's
operations as arguments; here they run on pairs of F_4 and F_8 elements, and
over polynomials with F_2[a] coefficients for the basis-free quartic rules.
"""

import itertools

import pytest

from charfield2 import extbasis as xb, field as gf, normal, witt
from charfield2.witt import SymPoly, _w2_add, _w2_mul, _wp

F4 = gf.FieldCtx(0b111)
F8 = gf.FieldCtx(0b1011)
A = 0b10  # the basis generator a as an element of F_2[a]


def _ring(ctx):
    """add, mul and square of W_2(ctx), each on (x0, x1) pairs."""
    mul = lambda a, b: gf.poly_mul_mod(ctx, a, b)
    sq = lambda a: gf.square(ctx, a)
    return (lambda x, y: _w2_add(int.__xor__, mul, x, y),
            lambda x, y: _w2_mul(int.__xor__, mul, sq, x, y),
            lambda x: _wp(int.__xor__, mul, sq, x))


def _pairs(ctx):
    """All 4^n elements of W_2(F_{2^n})."""
    return list(itertools.product(range(1 << ctx.n), repeat=2))


ADD4, MUL4, WP4 = _ring(F4)
ALL4 = _pairs(F4)  # 16 vectors
ZERO, ONE = (0, 0), (1, 0)


def test_zero_and_one_are_neutral():
    for v in ALL4:
        assert ADD4(v, ZERO) == v
        assert MUL4(v, ONE) == v
        assert MUL4(v, ZERO) == ZERO


def test_addition_group_axioms():
    for x, y in itertools.product(ALL4, repeat=2):
        assert ADD4(x, y) == ADD4(y, x)
    for x, y, z in itertools.product(ALL4[:8], ALL4[:8], ALL4[:8]):
        assert ADD4(ADD4(x, y), z) == ADD4(x, ADD4(y, z))


def test_neg_is_additive_inverse():
    """The additive inverse of (a, b) is (a, b + a^2)."""
    for a, b in ALL4:
        assert ADD4((a, b), (a, b ^ gf.square(F4, a))) == ZERO


def test_multiplication_ring_axioms():
    for x, y in itertools.product(ALL4, repeat=2):
        assert MUL4(x, y) == MUL4(y, x)
    for x, y, z in itertools.product(ALL4[:8], ALL4[:8], ALL4[:8]):
        assert MUL4(MUL4(x, y), z) == MUL4(x, MUL4(y, z))
        assert MUL4(x, ADD4(y, z)) == ADD4(MUL4(x, y), MUL4(x, z))


def test_characteristic_four():
    two = ADD4(ONE, ONE)
    assert two == (0, 1)
    assert ADD4(two, two) == ZERO
    assert two != ZERO


def test_wp_map_known_value_and_additivity():
    assert WP4(ONE) == (0, 1)
    assert WP4(ZERO) == ZERO
    for x, y in itertools.product(ALL4, repeat=2):
        assert WP4(ADD4(x, y)) == ADD4(WP4(x), WP4(y))


def test_wp_map_component_formula():
    for x0, x1 in ALL4:
        img = WP4((x0, x1))
        assert img[0] == gf.square(F4, x0) ^ x0
        cube = gf.poly_mul_mod(F4, gf.square(F4, x0), x0)
        assert img[1] == gf.square(F4, x1) ^ x1 ^ cube


def _stated(rules):
    """The package's reduction rules for `rules`, as dicts in the shape
    asw4_reduction_rules returns: y^2 = y + c as the terms of y + c."""
    return [poly.terms for _, poly in xb.rule_rewrites(rules).values()]


def test_asw4_rule_shapes():
    """The derived rules as F_2[a] bitmasks (bit i: coefficient of a^i)."""
    rule_b0, rule_b1 = witt.asw4_reduction_rules()
    # b0^2 rewrites to b0 + a
    assert rule_b0 == {(1, 0): 1, (0, 0): A}
    # b1^2 rewrites to b1 + (1+a) b0 + a^2
    assert rule_b1 == {(0, 1): 1, (1, 0): 1 ^ A, (0, 0): 0b100}


def test_derived_rules_plug_back_to_zero_over_f2_a():
    """Under the derived rules, wp((b0, b1)) + (a, a) reduces to (0, 0) over F_2[a]."""
    rule_b0, rule_b1 = witt.asw4_reduction_rules()
    rules = {0: (2, SymPoly(rule_b0)), 1: (2, SymPoly(rule_b1))}
    gens = (SymPoly.gen(0, 2), SymPoly.gen(1, 2))
    a = SymPoly.const(A, 2)
    s = _wp(SymPoly.__add__, SymPoly.__mul__, SymPoly.square, gens)
    t = _w2_add(SymPoly.__add__, SymPoly.__mul__, s, (a, a))
    assert [c.reduce(rules).terms for c in t] == [{}, {}]


@pytest.mark.parametrize("n,modulus,alpha", [
    (2, 0b111, 0b10),
    (4, 0b10011, 0b1000),
    (6, 0b1000011, 0b111000),
])
def test_asw4_rules_plug_back_to_zero(n, modulus, alpha):
    """On each built quartic basis, b0^2 and b1^2 are the derived rules at
    a = alpha, and wp((b0, b1)) + (alpha, alpha) is (0, 0)."""
    nb = normal.build_normal_basis(gf.FieldCtx(modulus), alpha)
    ctx = xb.build_kind(nb, "asw4")
    assert ctx.n == n
    add = lambda x, y: xb.ExtElem(tuple(u ^ v for u, v in zip(x, y)))
    mul = lambda x, y: xb.mul(ctx, x, y)
    sq = lambda x: xb.square(ctx, x)
    gens = (xb.generator_element(ctx, "b0"), xb.generator_element(ctx, "b1"))
    a = xb.embed_base(ctx, nb.to_normal(alpha))

    def at_alpha(rule):
        """The F_2[a] polynomial rule evaluated at a = alpha in the extension."""
        out = xb.zero(ctx)
        for (e0, e1), coeff in rule.items():
            c = xb.zero(ctx)
            for i in range(coeff.bit_length()):
                if coeff >> i & 1:
                    c = add(c, xb.power(ctx, a, i))
            out = add(out, mul(c, mul(xb.power(ctx, gens[0], e0),
                                      xb.power(ctx, gens[1], e1))))
        return out

    rule_b0, rule_b1 = witt.asw4_reduction_rules()
    assert sq(gens[0]) == at_alpha(rule_b0)
    assert sq(gens[1]) == at_alpha(rule_b1)
    t = _w2_add(add, mul, _wp(add, mul, sq, gens), (a, a))
    assert list(t) == [xb.zero(ctx), xb.zero(ctx)]


def test_derived_rules_equal_the_stated_rules():
    """The Witt derivation is RULES["asw4"] as the package reduces by it, the
    rewrite behind the squares and the closed-form counts (the oracle reads
    the same RULES); both are polynomials in a, so this holds for every
    basis and build_kind need not check it."""
    assert list(witt.asw4_reduction_rules()) == _stated(xb.RULES["asw4"])


def test_flipped_derived_coefficient_fails_the_comparison():
    """Negative control: a derivation with one coefficient flipped differs
    from RULES["asw4"]."""
    rule_b0, rule_b1 = witt.asw4_reduction_rules()
    wrong_b1 = dict(rule_b1)
    wrong_b1[(0, 0)] ^= 1
    assert [rule_b0, wrong_b1] != _stated(xb.RULES["asw4"])


def test_stated_rule_without_its_a_squared_term_fails_the_comparison():
    """Negative control: RULES["asw4"] with b1's side missing its a^2 term
    differs from the Witt derivation."""
    rule_b0, rule_b1 = xb.RULES["asw4"]
    wrong_b1 = rule_b1._replace(rhs=lambda mul, a, b0: b0 ^ mul(a, b0))
    assert list(witt.asw4_reduction_rules()) != _stated((rule_b0, wrong_b1))


def _wp_fiber_size(ctx, target):
    wp = _ring(ctx)[2]
    return sum(wp(v) == target for v in _pairs(ctx))


def test_wp_fiber_over_alpha_pair_is_empty():
    """A normal element has trace 1, so (alpha, alpha) is never hit in the base ring.

    That is what forces the quartic construction to adjoin genuinely new generators.
    """
    assert _wp_fiber_size(F4, (0b10, 0b10)) == 0        # n = 2: alpha = x
    alpha3 = 0b11                                       # a normal element of F_8
    assert normal.is_normal_element(F8, alpha3)
    assert _wp_fiber_size(F8, (alpha3, alpha3)) == 0    # n = 3 likewise


def test_wp_kernel_size_tracks_parity():
    """ker wp is all of W_2(F_2) (cyclic of order 4) iff n is even, else just 2Z/4."""
    kernel4 = [v for v in ALL4 if WP4(v) == ZERO]
    assert len(kernel4) == 4
    gens = [v for v in kernel4 if ADD4(v, v) != ZERO]
    assert len(gens) == 2  # two elements of additive order 4: the kernel is cyclic
    wp8 = _ring(F8)[2]
    assert [v for v in _pairs(F8) if wp8(v) == ZERO] == [(0, 0), (0, 1)]
    # additivity makes every nonempty fiber a kernel coset
    assert _wp_fiber_size(F4, WP4((0b11, 0b01))) == 4
