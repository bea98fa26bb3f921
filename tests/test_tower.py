"""Tests for the two-step tower predicates and their witnesses in the oracle."""

import pytest

from charfield2 import bitpoly, extbasis as xb, field as gf, normal, tables, tower
from charfield2.cli import _basis_for_kind
from charfield2.errors import DomainError, NoKummerExtensionError
from charfield2.fixtures import get_fixture

NB2 = get_fixture(2).basis()
NB4 = get_fixture(4).basis()
NB6 = get_fixture(6).basis()


def test_biquadratic_parity_rule():
    assert tower.biquadratic_possible(1)
    assert not tower.biquadratic_possible(2)
    assert tower.biquadratic_possible(3)
    assert not tower.biquadratic_possible(8)
    with pytest.raises(DomainError):
        tower.biquadratic_possible(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_biquadratic_matches_big_field_trace(n):
    """Second quadratic step exists iff the embedded generator has trace 1 in F_2^(2n)."""
    ctx = gf.FieldCtx(bitpoly.min_irreducible(n))
    alpha = normal.search_normal_elements(ctx, limit=1)[0]
    nb = normal.build_normal_basis(ctx, alpha)
    emb = tables.build_embedding(xb.build_kind(nb, "as2"))
    b_img = emb.gen_images["b"]
    assert tower.biquadratic_possible(n) == (gf.trace(emb.big, b_img) == 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_kummer_over_as2_matches_sextic_builder(n):
    ctx = gf.FieldCtx(bitpoly.min_irreducible(n))
    alpha = normal.search_normal_elements(ctx, limit=1)[0]
    nb = normal.build_normal_basis(ctx, alpha)
    verdict = tower.kummer_over_as2_possible(xb.build_kind(nb, "as2"))
    try:
        xb.build_kind(nb, "ka6")
        built = True
    except NoKummerExtensionError:
        built = False
    assert verdict == built


def test_kind_guards():
    with pytest.raises(DomainError):
        tower.kummer_over_as2_possible(xb.build_kind(NB2, "k3"))
    with pytest.raises(DomainError):
        tower.as2_over_k3_possible(xb.build_kind(NB2, "as2"))
    with pytest.raises(DomainError):
        tower.bicubic_possible(xb.build_kind(NB2, "as2"))


def test_as2_over_k3_is_never_possible():
    """At n = 2, 4 and 6 the generator's image has trace 0 in the big field,
    and the program's square sends the oracle's root gamma of y^2 + y = b,
    mapped back to coordinates, to gamma^2 = beta + gamma."""
    for n in (2, 4, 6):
        k3 = _basis_for_kind("k3", n)
        assert tower.as2_over_k3_possible(k3) is False
        emb = tables.build_embedding(k3)
        b_img = emb.gen_images["b"]
        assert gf.trace(emb.big, b_img) == 0
        roots = gf.solve_artin_schreier(emb.big, b_img)
        assert len(roots) == 2
        gamma = xb.ExtElem(emb.to_blocks(roots[0]))
        recovered = xb.ExtElem(tuple(u ^ v for u, v in
                                     zip(xb.square(k3, gamma).blocks, gamma.blocks)))
        assert recovered == xb.generator_element(k3, "b")


def test_preimage_none_when_trace_one():
    """as2 at n = 1 (m = 2): b^2 + b = a = 1 in F_4, so y^2 + y = b has
    trace 1 in the big field and no root there."""
    as2 = xb.build_kind(get_fixture(1).basis(), "as2")
    emb = tables.build_embedding(as2)
    b_img = emb.gen_images["b"]
    assert gf.trace(emb.big, b_img) == 1
    assert gf.solve_artin_schreier(emb.big, b_img) == []


def test_kummer_over_as2_possible_agrees_with_the_power_cube_test():
    """Over the first 20 normal elements for n = 1 ... 8, the predicate is
    true exactly when b^((2^m - 1)/3) != 1 under the program's own power
    (m = 2n, so 3 | 2^m - 1), and the oracle's cube test of b's image
    agrees with that power test."""
    for n in range(1, 9):
        ctx = gf.FieldCtx(bitpoly.min_irreducible(n))
        for a in normal.search_normal_elements(ctx, limit=20):
            as2 = xb.build_kind(normal.build_normal_basis(ctx, a), "as2")
            b = xb.quad_generator(as2)
            cube = xb.power(as2, b, ((1 << as2.m) - 1) // 3) == xb.identity(as2)
            emb = tables.build_embedding(as2)
            assert gf.is_cube(emb.big, emb.gen_images["b"]) == cube, (n, a)
            assert tower.kummer_over_as2_possible(as2) is not cube, (n, a)


def test_tower_predicates_leave_the_tally_alone():
    """The predicates run on polynomial coordinates, not on the programs,
    so they add nothing to the extension's operation tally."""
    as2, k3 = xb.build_kind(NB2, "as2"), xb.build_kind(NB2, "k3")
    for ctx in (as2, k3):
        ctx.counter.reset()
    tower.kummer_over_as2_possible(as2)
    tower.as2_over_k3_possible(k3)
    tower.bicubic_possible(k3)
    assert as2.counter.as_tuple() == k3.counter.as_tuple() == (0, 0, 0)


def test_ext_trace_and_preimage_leave_tally_alone():
    """The witness's trace and Artin-Schreier preimage are taken in the
    oracle's big field, so they add nothing to the k3 tally."""
    ctx = xb.build_kind(NB2, "k3")
    ctx.counter.reset()
    emb = tables.build_embedding(ctx)
    beta = emb.gen_images["b"]
    gf.trace(emb.big, beta)
    emb.to_blocks(gf.solve_artin_schreier(emb.big, beta)[0])
    assert ctx.counter.as_tuple() == (0, 0, 0)


def test_bicubic_known_values_and_refusals():
    """The criterion is asked of a built cubic Kummer basis. The degrees and
    generators it does not hold for never get one: build_kind refuses k3 on
    them (test_extbasis::test_build_kummer3_requires_divisibility_first and
    ::test_build_kummer3_rejects_non_primitive_non_cube)."""
    assert tower.bicubic_possible(xb.build_kind(NB2, "k3"))   # q = 21 = 3 (mod 9)
    assert tower.bicubic_possible(_basis_for_kind("k3", 4))   # q = 273 = 3 (mod 9)
    for n in (1, 3):                                        # 3 does not divide 2^n - 1
        assert _basis_for_kind("k3", n) is None
    for ctx in (xb.build_kind(NB4, "as2"), xb.build_kind(NB2, "asw4"),
                xb.build_kind(NB2, "ka6")):
        with pytest.raises(DomainError):
            tower.bicubic_possible(ctx)


def test_bicubic_q_is_3_mod_9_at_every_even_degree():
    """The theorem behind bicubic_possible: for even n, 2^n = 1 + 3t, so
    q = (2^(3n) - 1)/(2^n - 1) = 3 + 9t + 9t^2 = 3 (mod 9)."""
    for n in range(2, 3000, 2):
        q, r = divmod((1 << (3 * n)) - 1, (1 << n) - 1)
        assert r == 0 and q % 9 == 3, n


def test_no_odd_degree_has_a_cubic_step():
    """3 never divides 2^n - 1 for odd n, so build_kind refuses k3 at every
    odd n and bicubic_possible is only asked at even n."""
    for n in range(1, 3000, 2):
        assert ((1 << n) - 1) % 3 != 0, n


def test_bicubic_possible_on_every_built_k3_basis():
    for n in range(2, 21, 2):
        k3 = _basis_for_kind("k3", n)
        assert k3 is not None, n
        assert tower.bicubic_possible(k3) is True
