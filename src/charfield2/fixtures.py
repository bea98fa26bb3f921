"""Frozen reference corpus: best known normal elements and density records.

Each fixture pins one normal basis of F_{2^n} (modulus, generator) together
with its verified table weight and cross-product sum. The density records
give, for each multiple-of-6 extension degree m, the reference densities of
the best known normal basis of F_{2^m} (d_n), of the quadratic extended
basis built over n = m/2 (d_a), and of the cubic Kummer extended basis
built over n = m/3 (d_k, absent when no such basis exists over the n = m/3
fixture because its generator is not primitive).

Three fixtures required adjudication against the upstream table, recorded
in their comment fields; everything stored here has been recomputed from
scratch by this package and cross-checked against the density records.
"""

from typing import NamedTuple

from . import bitpoly, field as gf, normal
from .errors import DomainError, MissingFixtureError


class Fixture(NamedTuple):
    """One pinned normal basis with its verified invariants."""
    n: int
    modulus: str
    alpha: str
    cross_sum: int
    table_weight: int
    comment: str = ""

    def basis(self) -> normal.NormalBasisCtx:
        """Build the normal-basis context this fixture pins."""
        ctx = gf.FieldCtx(bitpoly.parse(self.modulus))
        return normal.build_normal_basis(ctx, bitpoly.parse(self.alpha))


_FIXTURE_ROWS = (
    Fixture(1, "1+x", "1", 1, 1,
            "Degenerate base case: F_2 itself, single-entry table."),
    Fixture(2, "1+x+x^2", "x", 5, 3),
    Fixture(4, "1+x+x^4", "x^3", 25, 7),
    Fixture(6, "1+x+x^6", "x^3+x^4+x^5", 101, 11),
    Fixture(8, "1+x+x^3+x^4+x^8", "x^6+x^7", 233, 21),
    Fixture(10, "1+x^3+x^10", "x^3+x^5+x^7+x^9", 181, 19),
    Fixture(12, "1+x^3+x^12", "x^2+x^3+x^4+x^5+x^6+x^7+x^8+x^9", 265, 23),
    Fixture(14, "1+x^5+x^14", "x^5+x^6+x^7+x^9+x^12+x^13", 677, 27),
    Fixture(16, "1+x+x^3+x^5+x^16",
            "x^6+x^8+x^9+x^11+x^12+x^13+x^14+x^15", 1921, 85,
            "The upstream table prints the modulus with a repeated x^16 term "
            "(not a well-formed polynomial). Stored is the unique irreducible "
            "degree-16 completion under which the printed element is normal "
            "and its cross sum equals the printed 1921."),
    Fixture(18, "1+x^3+x^18", "x+x^4+x^6+x^7+x^10+x^11+x^14+x^15", 613, 35,
            "The upstream table prints an element whose cross sum computes "
            "to 1157, not the printed 613 (its table weight 35 is correct). "
            "An exhaustive scan of all 96768 normal elements of this field "
            "finds minimum table weight 35 in exactly two conjugacy orbits, "
            "one summing to 613 and one to 1157; the density records pin the "
            "613 orbit (m=36: 3133 = 4*630 + 613; d_k absent at m=54, "
            "forcing a cube), and its least representative is stored."),
    Fixture(20, "1+x^3+x^20", "x^3+x^8+x^11+x^15+x^16+x^17+x^18+x^19",
            1625, 63),
    Fixture(22, "1+x+x^22", "x^8+x^11+x^12+x^19+x^20+x^21", 2005, 63),
    Fixture(24, "1+x+x^3+x^4+x^24", "x^5+x^6+x^10+x^16+x^17+x^18+x^19+x^23",
            3961, 105),
    Fixture(26, "1+x+x^3+x^4+x^26",
            "x^5+x^10+x^12+x^15+x^16+x^19+x^20+x^21+x^22+x^24+x^25", 2501, 51,
            "The upstream table prints an element that is not normal at all. "
            "A one-term edit search under the printed modulus finds exactly "
            "one normal candidate with table weight 51 and cross sum 2501 "
            "(both pinned by the m=78 density record 15459 = 156*51 + "
            "3*2501): the printed x^23 should be x^24, as stored."),
)

FIXTURES = {f.n: f for f in _FIXTURE_ROWS}

# Reference density records for F_{2^m}, m a multiple of 6 up to 78.
DENSITY_DEGREES = tuple(range(6, 79, 6))

EXPECTED_NORMAL_DENSITY = {
    6: 66, 12: 276, 18: 630, 24: 2520, 30: 1770, 36: 2556, 42: 5670,
    48: 20400, 54: 11286, 60: 7140, 66: 8646, 72: 25704, 78: 18018,
}

# Quadratic extended-basis densities; m = 72 and 78 have no recorded value.
EXPECTED_QUAD_DENSITY = {
    6: 77, 12: 365, 18: 869, 24: 1369, 30: 3805, 36: 3133, 42: 10921,
    48: 14041, 54: 23245, 60: 10445, 66: 12677,
}

# Cubic Kummer extended-basis densities; the degrees in KUMMER_NONE have no
# Kummer extended basis over their n = m/3 fixture (generator not primitive).
EXPECTED_KUMMER_DENSITY = {
    6: 51, 18: 699, 24: 1707, 42: 4299, 48: 13923, 78: 15459,
}
KUMMER_NONE = frozenset((12, 30, 36, 54, 60, 66, 72))


def get_fixture(n: int) -> Fixture:
    """The pinned fixture for degree n, or a missing-fixture error; a
    degree that is not an int of at least 1 is a domain error."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"degree must be a positive integer, got {n!r}")
    try:
        return FIXTURES[n]
    except KeyError:
        raise MissingFixtureError(
            f"no pinned normal basis for n = {n}; available: "
            f"{sorted(FIXTURES)}") from None


def fixture_degrees() -> tuple:
    """All degrees with a pinned fixture, ascending."""
    return tuple(sorted(FIXTURES))
