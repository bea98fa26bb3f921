"""Tests for the frozen reference corpus: every fixture rebuilds and re-verifies."""

import pytest

from charfield2 import bitpoly, extbasis as xb, field as gf, fixtures, normal
from charfield2.errors import MissingFixtureError, NoKummerExtensionError


def test_fixture_degrees_enumeration():
    degs = fixtures.fixture_degrees()
    assert degs == (1,) + tuple(range(2, 27, 2))
    assert len(degs) == 14
    assert set(fixtures.FIXTURES) == set(degs)


def test_get_fixture_rejects_unknown_degree():
    with pytest.raises(MissingFixtureError):
        fixtures.get_fixture(5)
    with pytest.raises(MissingFixtureError):
        fixtures.get_fixture(28)


def test_fixture_is_an_immutable_hashable_value():
    fx = fixtures.get_fixture(8)
    same = fixtures.Fixture(8, fx.modulus, fx.alpha, fx.cross_sum, fx.table_weight)
    assert same == fx and hash(same) == hash(fx) and len({fx, same}) == 1
    assert fx.comment == "" and fx != fixtures.get_fixture(6)
    with pytest.raises(AttributeError):
        fx.cross_sum = 0
    assert fx.cross_sum == 233


@pytest.mark.parametrize("n", fixtures.fixture_degrees())
def test_fixture_rebuilds_and_matches_frozen_invariants(n):
    fx = fixtures.get_fixture(n)
    nb = fx.basis()
    assert nb.n == n
    assert bitpoly.is_irreducible(bitpoly.parse(fx.modulus))
    assert normal.is_normal_element(nb.field, nb.alpha)
    assert nb.weight == fx.table_weight
    assert normal.cross_product_sum(nb) == fx.cross_sum


def test_n18_adjudication_counts_every_normal_element():
    """The n = 18 adjudication scans "all 96768 normal elements" of 1+x^3+x^18;
    x^18 - 1 = ((x+1)(x^2+x+1)(x^6+x^3+1))^2 gives 96768 = 2 * 12 * 4032."""
    ctx = gf.FieldCtx(bitpoly.parse(fixtures.get_fixture(18).modulus))
    assert "all 96768 normal elements" in fixtures.get_fixture(18).comment
    assert len(normal.search_normal_elements(ctx)) == 96768 == 2 * 12 * 4032


def test_n18_adjudication_minimum_weight_orbits():
    """Conjugates share one table, so one least element per Frobenius orbit
    covers all 96768 normal elements (5376 orbits of 18). Minimum weight 35
    occurs in exactly two orbits, with cross sums 613 and 1157; the fixture
    stores the least element of the 613 orbit."""
    fx = fixtures.get_fixture(18)
    ctx = gf.FieldCtx(bitpoly.parse(fx.modulus))
    reps, seen = [], set()
    for a in normal.search_normal_elements(ctx):  # ascending: a is its orbit's least
        if a in seen:
            continue
        reps.append(a)
        for _ in range(18):
            seen.add(a)
            a = gf.square(ctx, a)
    assert len(reps) == 5376 and len(seen) == 96768
    bases = [normal.build_normal_basis(ctx, a) for a in reps]
    lightest = min(nb.weight for nb in bases)
    best = sorted((normal.cross_product_sum(nb), nb.alpha)
                  for nb in bases if nb.weight == lightest)
    assert lightest == fx.table_weight == 35
    assert [cs for cs, _ in best] == [613, 1157]
    assert best[0] == (fx.cross_sum, bitpoly.parse(fx.alpha))


def test_density_record_tables_are_consistent():
    assert fixtures.DENSITY_DEGREES == tuple(range(6, 79, 6))
    # quadratic records stop at 66 (no reference values above that)
    assert set(fixtures.EXPECTED_QUAD_DENSITY) == {
        m for m in fixtures.DENSITY_DEGREES if m <= 66}
    # cubic records and refusals partition all record degrees
    have = set(fixtures.EXPECTED_KUMMER_DENSITY)
    none = set(fixtures.KUMMER_NONE)
    assert have | none == set(fixtures.DENSITY_DEGREES)
    assert not have & none


@pytest.mark.parametrize("m", [m for m in sorted(fixtures.EXPECTED_QUAD_DENSITY)
                               if m // 2 in fixtures.FIXTURES])
def test_quadratic_density_records_match_formula(m):
    """Where a fixture covers n = m/2, the record equals 4 d(N) + CS."""
    nb = fixtures.get_fixture(m // 2).basis()
    cs = normal.cross_product_sum(nb)
    assert 4 * nb.density + cs == fixtures.EXPECTED_QUAD_DENSITY[m]


@pytest.mark.parametrize("m", sorted(fixtures.EXPECTED_KUMMER_DENSITY))
def test_kummer_density_records_match_formula(m):
    nb = fixtures.get_fixture(m // 3).basis()
    xb.build_kind(nb, "k3")  # must be constructible
    cs = normal.cross_product_sum(nb)
    assert 6 * nb.density + 3 * cs == fixtures.EXPECTED_KUMMER_DENSITY[m]


@pytest.mark.parametrize("m", sorted(fixtures.KUMMER_NONE))
def test_kummer_refusal_degrees_really_refuse(m):
    nb = fixtures.get_fixture(m // 3).basis()
    with pytest.raises(NoKummerExtensionError):
        xb.build_kind(nb, "k3")


def test_annotated_fixtures_explain_their_adjudication():
    assert "repeated x^16" in fixtures.get_fixture(16).comment
    assert "613" in fixtures.get_fixture(18).comment
    assert fixtures.get_fixture(26).comment != ""
    assert fixtures.get_fixture(2).comment == ""


def test_quad_record_at_m6_is_the_exhaustive_minimum():
    """No degree-3 fixture exists, so recompute the m=6 record from scratch."""
    ctx = gf.FieldCtx(bitpoly.min_irreducible(3))
    best = min(4 * nb.density + normal.cross_product_sum(nb)
               for nb in (normal.build_normal_basis(ctx, a)
                          for a in normal.search_normal_elements(ctx)))
    assert best == fixtures.EXPECTED_QUAD_DENSITY[6] == 77


def test_generator_order_classification():
    """Cube/primitive status of each fixture generator drives the cubic records."""
    for n in range(2, 27, 2):
        nb = fixtures.get_fixture(n).basis()
        cube = gf.is_cube(nb.field, nb.alpha)
        prim = gf.is_primitive(nb.field, nb.alpha)
        if 3 * n in fixtures.EXPECTED_KUMMER_DENSITY:
            assert not cube and prim
        else:
            assert cube or not prim
