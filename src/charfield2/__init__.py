"""charfield2: normal bases of F_{2^n} and their extended bases.

Carry-less polynomial arithmetic over F_2, field contexts for F_{2^n},
normal-basis construction with multiplication tables and cross-product
sums, quadratic/cubic-Kummer/quartic/sextic extended bases with exactly
counted arithmetic, the quartic rules derived from length-2 Witt vectors,
tower existence predicates, an independent big-field oracle embedding for
verification, and a reproduction corpus of reference densities.
"""

from . import bitpoly, field, fixtures, linalg, normal, tables, tower, witt
from .errors import (CharField2Error, ConstructionContradictionError,
                     DomainError, InvalidElementError, MissingFixtureError,
                     NoKummerExtensionError, NotNormalError,
                     UnsupportedDegreeError)
from .field import FieldCtx
from .normal import (NormalBasisCtx, build_normal_basis, cross_product_sum,
                     is_normal_element, search_normal_elements)
from .extbasis import (EXPECTED_MUL_COUNTS, EXPECTED_SQUARE_COUNTS,
                       ExtBasisCtx, ExtElem, OpCounter, build_as2,
                       build_asw4, build_ka6, build_kind, build_kummer3,
                       element_is_cube, mul, power, square)
from .fixtures import FIXTURES, Fixture, get_fixture
from .tables import (OracleEmbedding, TableSet, build_embedding, build_tables,
                     expected_counts, expected_density, normal_table_set,
                     table_mul, verify_table_entries)
from .tower import (TowerReport, as2_over_k3_possible, bicubic_possible,
                    biquadratic_possible, build_tower_report,
                    kummer_over_as2_possible)

__version__ = "0.1.0"

__all__ = [
    "CharField2Error", "ConstructionContradictionError", "DomainError",
    "InvalidElementError", "MissingFixtureError", "NoKummerExtensionError",
    "NotNormalError", "UnsupportedDegreeError",
    "FieldCtx", "NormalBasisCtx", "build_normal_basis", "cross_product_sum",
    "is_normal_element", "search_normal_elements",
    "EXPECTED_MUL_COUNTS", "EXPECTED_SQUARE_COUNTS", "ExtBasisCtx", "ExtElem",
    "OpCounter", "build_as2", "build_asw4", "build_ka6", "build_kind",
    "build_kummer3", "element_is_cube", "mul", "power", "square",
    "FIXTURES", "Fixture", "get_fixture",
    "OracleEmbedding", "TableSet", "build_embedding", "build_tables",
    "expected_counts", "expected_density", "normal_table_set", "table_mul",
    "verify_table_entries",
    "TowerReport", "as2_over_k3_possible", "bicubic_possible",
    "biquadratic_possible", "build_tower_report", "kummer_over_as2_possible",
    "bitpoly", "field", "fixtures", "linalg", "normal", "tables", "tower",
    "witt", "__version__",
]
