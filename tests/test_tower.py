"""Tests for the two-step tower predicates and their constructive witnesses."""

import pytest

from charfield2 import extbasis as xb, field as gf, normal, tower
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
    from charfield2 import bitpoly, tables
    ctx = gf.FieldCtx(bitpoly.min_irreducible(n))
    alpha = normal.search_normal_elements(ctx, limit=1)[0]
    nb = normal.build_normal_basis(ctx, alpha)
    emb = tables.build_embedding(xb.build_kind(nb, "as2"))
    b_img = emb.gen_images["b"]
    assert tower.biquadratic_possible(n) == (gf.trace(emb.big, b_img) == 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_kummer_over_as2_matches_sextic_builder(n):
    from charfield2 import bitpoly
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
    for nb in (NB2, NB6):
        k3 = xb.build_kind(nb, "k3")
        assert tower.as2_over_k3_possible(k3) is False
        # constructive reason: the generator's trace is 0, so a preimage exists
        beta = xb.generator_element(k3, "b")
        assert tower.ext_trace(k3, beta) == xb.zero(k3)
        gamma = tower.artin_schreier_preimage(k3, beta)
        assert gamma is not None
        assert tower.ext_trace(k3, gamma) in (xb.zero(k3), xb.identity(k3))
        recovered = xb.ExtElem(tuple(u ^ v for u, v in
                                     zip(xb.square(k3, gamma).blocks, gamma.blocks)))
        assert recovered == beta


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


def test_ext_trace_values():
    for ctx in (xb.build_kind(NB2, kind) for kind in ("as2", "k3", "asw4")):
        assert tower.ext_trace(ctx, xb.zero(ctx)) == xb.zero(ctx)
        # m is even here, so the identity sums to zero over its orbit
        assert tower.ext_trace(ctx, xb.identity(ctx)) == xb.zero(ctx)


def test_ext_trace_and_preimage_leave_tally_alone():
    ctx = xb.build_kind(NB2, "k3")
    ctx.counter.reset()
    beta = xb.generator_element(ctx, "b")
    tower.ext_trace(ctx, beta)
    tower.artin_schreier_preimage(ctx, beta)
    assert ctx.counter.as_tuple() == (0, 0, 0)


def test_preimage_none_when_trace_one():
    ctx = xb.build_kind(get_fixture(1).basis(), "as2")  # m = 2
    b = xb.quad_generator(ctx)
    assert tower.ext_trace(ctx, b) == xb.identity(ctx)
    assert tower.artin_schreier_preimage(ctx, b) is None
