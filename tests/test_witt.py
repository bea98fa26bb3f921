"""Tests for the length-2 Witt vector formulas and the quartic reduction rules.

The formulas `_w2_add`, `_w2_mul` and `_wp` take the component ring's
operations as arguments; here they run on pairs of F_4 and F_8 elements.
"""

import itertools

import pytest

from charfield2 import field as gf, normal, witt
from charfield2.witt import SymPoly, _w2_add, _w2_mul, _wp

F4 = gf.FieldCtx(0b111)
F8 = gf.FieldCtx(0b1011)


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


@pytest.mark.parametrize("n,modulus,alpha", [
    (2, 0b111, 0b10),
    (4, 0b10011, 0b1000),
    (6, 0b1000011, 0b111000),
])
def test_asw4_rules_plug_back_to_zero(n, modulus, alpha):
    """Under the derived rules, wp((b0, b1)) + (alpha, alpha) reduces to (0, 0)."""
    nb = normal.build_normal_basis(gf.FieldCtx(modulus), alpha)
    rule_b0, rule_b1 = witt.asw4_reduction_rules(nb)
    rules = {0: SymPoly(nb, rule_b0), 1: SymPoly(nb, rule_b1)}
    gens = (SymPoly.gen(nb, 0), SymPoly.gen(nb, 1))
    alpha_c = SymPoly.const(nb, nb.alpha_coords())
    s = _wp(SymPoly.__add__, SymPoly.__mul__, SymPoly.square, gens)
    t = _w2_add(SymPoly.__add__, SymPoly.__mul__, s, (alpha_c, alpha_c))
    assert [c.reduce(rules).terms for c in t] == [{}, {}]


def test_asw4_rule_shapes():
    nb = normal.build_normal_basis(F4, 0b10)
    rule_b0, rule_b1 = witt.asw4_reduction_rules(nb)
    # b0^2 rewrites to b0 + alpha
    assert rule_b0 == {(1, 0): nb.one(), (0, 0): nb.alpha_coords()}
    # b1^2 rewrites to b1 + (1+alpha) b0 + alpha^2
    sq_alpha = normal.frobenius_shift(nb.n, nb.alpha_coords())
    assert rule_b1 == {(0, 1): nb.one(),
                       (1, 0): nb.one() ^ nb.alpha_coords(),
                       (0, 0): sq_alpha}


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
