"""charfield2: normal bases of F_{2^n} and their extended bases.

Carry-less polynomial arithmetic over F_2, field contexts for F_{2^n},
normal-basis construction with multiplication tables and cross-product
sums, quadratic/cubic-Kummer/quartic/sextic extended bases with exactly
counted arithmetic, the quartic rules derived once from length-2 Witt
vectors over F_2[a] (basis-free), tower existence predicates (three of the
four are theorems), an independent big-field oracle embedding for
verification, and a reproduction corpus of reference densities.
"""

from . import bitpoly, errors, extbasis, field, fixtures, linalg, normal, tables, tower, witt
from .errors import (CharField2Error, ConstructionContradictionError,
                     DomainError, InvalidElementError, MissingFixtureError,
                     NoKummerExtensionError, NotNormalError,
                     UnsupportedDegreeError)
from .field import FieldCtx
from .normal import (NormalBasisCtx, build_normal_basis, cross_product_sum,
                     is_normal_element, search_normal_elements)
from .extbasis import (EXPECTED_MUL_COUNTS, EXPECTED_SQUARE_COUNTS,
                       ExtBasisCtx, ExtElem, OpCounter, build_kind, mul,
                       power, square)
from .fixtures import FIXTURES, Fixture, get_fixture
from .tables import (OracleEmbedding, TableSet, build_embedding, build_tables,
                     closed_form_tables, expected_counts, normal_table_set,
                     table_mul, verify_table_entries)
from .tower import (as2_over_k3_possible, bicubic_possible,
                    biquadratic_possible, kummer_over_as2_possible)

__version__ = "0.1.0"

__all__ = [
    "CharField2Error", "ConstructionContradictionError", "DomainError",
    "InvalidElementError", "MissingFixtureError", "NoKummerExtensionError",
    "NotNormalError", "UnsupportedDegreeError",
    "FieldCtx", "NormalBasisCtx", "build_normal_basis", "cross_product_sum",
    "is_normal_element", "search_normal_elements",
    "EXPECTED_MUL_COUNTS", "EXPECTED_SQUARE_COUNTS", "ExtBasisCtx", "ExtElem",
    "OpCounter", "build_kind", "mul", "power", "square",
    "FIXTURES", "Fixture", "get_fixture",
    "OracleEmbedding", "TableSet", "build_embedding", "build_tables",
    "closed_form_tables", "expected_counts", "normal_table_set", "table_mul",
    "verify_table_entries",
    "as2_over_k3_possible", "bicubic_possible", "biquadratic_possible",
    "kummer_over_as2_possible",
    "bitpoly", "errors", "extbasis", "field", "fixtures", "linalg", "normal",
    "tables", "tower", "witt", "__version__",
]
