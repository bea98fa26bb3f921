"""Tests for bit-packed GF(2)[x] polynomial arithmetic."""

import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from charfield2 import bitpoly
from charfield2.errors import DomainError, UnsupportedDegreeError

polys = st.integers(min_value=0, max_value=(1 << 64) - 1)
nonzero_polys = st.integers(min_value=1, max_value=(1 << 64) - 1)


def test_degree_basics():
    """Degree is the top set bit; the zero polynomial gets None."""
    assert bitpoly.degree(0) is None
    assert bitpoly.degree(1) == 0
    assert bitpoly.degree(0b10011) == 4
    assert bitpoly.degree(1 << 63) == 63


def test_weight_counts_terms():
    assert bitpoly.weight(0) == 0
    assert bitpoly.weight(0b10011) == 3
    assert bitpoly.weight((1 << 20) - 1) == 20


@given(polys, polys)
def test_poly_mul_commutative(a, b):
    assert bitpoly.poly_mul(a, b) == bitpoly.poly_mul(b, a)


@given(polys, polys, polys)
def test_poly_mul_associative(a, b, c):
    left = bitpoly.poly_mul(bitpoly.poly_mul(a, b), c)
    right = bitpoly.poly_mul(a, bitpoly.poly_mul(b, c))
    assert left == right


@given(polys, polys, polys)
def test_poly_mul_distributes_over_xor(a, b, c):
    left = bitpoly.poly_mul(a, b ^ c)
    right = bitpoly.poly_mul(a, b) ^ bitpoly.poly_mul(a, c)
    assert left == right


@given(polys)
def test_poly_mul_identity_and_zero(a):
    assert bitpoly.poly_mul(a, 1) == a
    assert bitpoly.poly_mul(a, 0) == 0


@given(polys, polys)
def test_poly_mul_degree_adds(a, b):
    prod = bitpoly.poly_mul(a, b)
    if a and b:
        assert bitpoly.degree(prod) == bitpoly.degree(a) + bitpoly.degree(b)
    else:
        assert prod == 0


def _schoolbook(a, b):
    """The carry-less product one bit pair at a time."""
    out = 0
    for i in range(a.bit_length()):
        for j in range(b.bit_length()):
            out ^= (a >> i & b >> j & 1) << (i + j)
    return out


# Operands of exactly `length` bits, 0 to 130, so lengths on each side of
# bitpoly.COMB_BITS and unequal lengths are drawn.
_by_length = st.integers(0, 130).flatmap(
    lambda k: st.integers(1 << k >> 1, (1 << k) - 1))


@given(_by_length, _by_length)
def test_poly_mul_matches_the_schoolbook_product(a, b):
    assert bitpoly.poly_mul(a, b) == _schoolbook(a, b)


@pytest.mark.parametrize("k", [1, 4, bitpoly.COMB_BITS - 1, bitpoly.COMB_BITS, 64, 130])
def test_poly_mul_of_zero_one_and_all_ones(k):
    ones = (1 << k) - 1
    dense = random.Random(k).getrandbits(k)
    for a in (0, 1, ones, dense):
        for b in (0, 1, ones):
            assert bitpoly.poly_mul(a, b) == _schoolbook(a, b), (a, b)
            assert bitpoly.poly_mul(b, a) == _schoolbook(a, b), (a, b)


@pytest.mark.parametrize("m", [32, 48, 64])
def test_poly_mul_of_an_element_by_packed_lanes(m):
    """The shape build_tables passes: an m-bit element times m elements
    packed in lanes 2m bits apart."""
    rng = random.Random(m)
    packed = sum(rng.getrandbits(m) << 2 * m * j for j in range(m)) | 1 << 2 * m * (m - 1)
    for a in (rng.getrandbits(m) | 1 << (m - 1), (1 << m) - 1):
        assert bitpoly.poly_mul(a, packed) == _schoolbook(a, packed)
        assert bitpoly.poly_mul(packed, a) == _schoolbook(a, packed)


@pytest.mark.parametrize("call", [
    lambda: bitpoly.poly_mul(-1, 3), lambda: bitpoly.poly_mul(3, -1),
    lambda: bitpoly.poly_mul(-1 << 40, 1 << 40),
    lambda: bitpoly.poly_square(-3), lambda: bitpoly.poly_divmod(-5, 3),
    lambda: bitpoly.poly_divmod(5, -3), lambda: bitpoly.poly_mod(-5, 3),
    lambda: bitpoly.poly_gcd(-5, 3), lambda: bitpoly.poly_gcd(-5, 0),
    lambda: bitpoly.is_irreducible(-7)],
    ids=["mul", "mul-right", "mul-comb", "square", "divmod", "divmod-divisor", "mod",
         "gcd", "gcd-by-zero", "is_irreducible"])
def test_a_negative_operand_is_a_domain_error(call):
    """A negative int is no polynomial: every function refuses it at once,
    where a loop on it would never end."""
    with pytest.raises(DomainError, match="non-negative"):
        call()


@given(polys)
def test_poly_square_matches_poly_mul(a):
    assert bitpoly.poly_square(a) == bitpoly.poly_mul(a, a)


def test_poly_square_of_zero_and_of_a_long_polynomial():
    """Base-4 int() is exempt from the int-str digit limit (4300 digits by
    default), so a 20,011-bit square needs no raised limit."""
    assert bitpoly.poly_square(0) == 0
    a = random.Random(20011).getrandbits(20011) | 1 << 20010
    assert bitpoly.poly_square(a) == bitpoly.poly_mul(a, a)


@given(polys, nonzero_polys)
def test_poly_divmod_invariant(a, b):
    """a == q*b + r with deg r < deg b."""
    q, r = bitpoly.poly_divmod(a, b)
    assert bitpoly.poly_mul(q, b) ^ r == a
    assert r == 0 or bitpoly.degree(r) < bitpoly.degree(b)


def test_poly_divmod_by_zero_raises():
    with pytest.raises(DomainError):
        bitpoly.poly_divmod(5, 0)


@given(polys, nonzero_polys)
def test_poly_mod_matches_divmod(a, b):
    assert bitpoly.poly_mod(a, b) == bitpoly.poly_divmod(a, b)[1]


@given(polys, polys)
def test_poly_gcd_divides_both(a, b):
    g = bitpoly.poly_gcd(a, b)
    if g == 0:
        assert a == 0 and b == 0
        return
    assert bitpoly.poly_mod(a, g) == 0
    assert bitpoly.poly_mod(b, g) == 0


@given(polys, polys)
def test_poly_gcd_symmetric(a, b):
    assert bitpoly.poly_gcd(a, b) == bitpoly.poly_gcd(b, a)


@given(polys, nonzero_polys)
def test_poly_gcd_common_factor(a, b):
    """gcd(ca, cb) is divisible by c."""
    c = 0b111  # 1 + x + x^2, irreducible
    g = bitpoly.poly_gcd(bitpoly.poly_mul(c, a), bitpoly.poly_mul(c, b))
    assert bitpoly.poly_mod(g, c) == 0


def _brute_irreducible(f):
    """Trial division by every lower-degree polynomial of degree >= 1."""
    d = bitpoly.degree(f)
    if d is None or d < 1:
        return False
    for g in range(2, 1 << d):
        if bitpoly.poly_mod(f, g) == 0:
            return False
    return True


def test_is_irreducible_matches_trial_division_through_degree_8():
    for f in range(2, 1 << 9):
        assert bitpoly.is_irreducible(f) == _brute_irreducible(f), bitpoly.to_human(f)


def test_is_irreducible_known_values():
    assert bitpoly.is_irreducible(0b111)        # 1+x+x^2
    assert bitpoly.is_irreducible(0b10011)      # 1+x+x^4
    assert not bitpoly.is_irreducible(0b101)    # (1+x)^2
    assert not bitpoly.is_irreducible(0b10101)  # (1+x+x^2)^2
    assert not bitpoly.is_irreducible(1)


def test_min_irreducible_known_values():
    assert bitpoly.to_human(bitpoly.min_irreducible(1)) == "1+x"
    assert bitpoly.to_human(bitpoly.min_irreducible(2)) == "1+x+x^2"
    assert bitpoly.to_human(bitpoly.min_irreducible(3)) == "1+x+x^3"
    assert bitpoly.to_human(bitpoly.min_irreducible(4)) == "1+x+x^4"
    assert bitpoly.to_human(bitpoly.min_irreducible(8)) == "1+x+x^3+x^4+x^8"


@pytest.mark.parametrize("n", range(1, 17))
def test_min_irreducible_properties(n):
    """Result is irreducible of the right degree and is stable across calls."""
    f = bitpoly.min_irreducible(n)
    assert bitpoly.degree(f) == n
    assert bitpoly.is_irreducible(f)
    if n >= 2:
        assert bitpoly.weight(f) % 2 == 1  # degree >= 2 irreducible => odd term count
    assert bitpoly.min_irreducible(n) == f


def _min_irreducible_by_sorting(n):
    """Reference: sort all C(n - 1, w) middle-term sums for each odd term
    count w = 1, 3, ... and take the first irreducible."""
    if n == 1:
        return 0b11
    top = (1 << n) | 1
    for extra in range(1, n, 2):
        for f in sorted(sum(1 << e for e in combo) | top
                        for combo in combinations(range(1, n), extra)):
            if bitpoly.is_irreducible(f):
                return f


def test_min_irreducible_matches_the_sorted_definition():
    for n in range(1, 41):
        assert bitpoly.min_irreducible(n) == _min_irreducible_by_sorting(n), n


@pytest.mark.parametrize("n,f", [(48, "1+x^2+x^3+x^5+x^48"),
                                 (64, "1+x+x^3+x^4+x^64"),
                                 (78, "1+x^3+x^5+x^6+x^78")])
def test_min_irreducible_pinned_pentanomials(n, f):
    assert bitpoly.to_human(bitpoly.min_irreducible(n)) == f


def test_min_irreducible_searches_each_degree_once(monkeypatch):
    monkeypatch.setattr(bitpoly, "_MIN_IRREDUCIBLE", {})
    real, tested = bitpoly.is_irreducible, []
    monkeypatch.setattr(bitpoly, "is_irreducible", lambda g: tested.append(g) or real(g))
    f = bitpoly.min_irreducible(33)
    assert tested[-1] == f

    def searched(g):
        raise AssertionError("min_irreducible searched a degree again")

    monkeypatch.setattr(bitpoly, "is_irreducible", searched)
    assert bitpoly.min_irreducible(33) == f


def test_min_irreducible_rejects_nonpositive_degree():
    with pytest.raises(DomainError):
        bitpoly.min_irreducible(0)


def _cyclotomic_cosets(m):
    """The cyclotomic cosets {s, 2s, 4s, ...} of 2 modulo m."""
    return {frozenset(s * 2 ** k % m for k in range(m)) for s in range(m)}


@pytest.mark.parametrize("n", range(1, 81))
def test_xn_minus_1_factors(n):
    """Distinct irreducibles whose product raised to 2^e is x^n - 1, one
    for each cyclotomic coset of 2 modulo the odd part of n."""
    factors, e = bitpoly.xn_minus_1_factors(n)
    assert n % 2 ** e == 0 and (n >> e) % 2 == 1
    assert factors == sorted(set(factors))
    assert all(bitpoly.is_irreducible(f) for f in factors)
    prod = 1
    for f in factors:
        prod = bitpoly.poly_mul(prod, f)
    for _ in range(e):
        prod = bitpoly.poly_mul(prod, prod)
    assert prod == (1 << n) | 1
    assert len(factors) == len(_cyclotomic_cosets(n >> e))


def test_xn_minus_1_factors_known_values():
    human = lambda n: [bitpoly.to_human(f) for f in bitpoly.xn_minus_1_factors(n)[0]]
    assert human(16) == ["1+x"]
    assert human(7) == ["1+x", "1+x+x^3", "1+x^2+x^3"]
    assert human(18) == ["1+x", "1+x+x^2", "1+x^3+x^6"]
    assert bitpoly.xn_minus_1_factors(18)[1] == 1
    with pytest.raises(DomainError):
        bitpoly.xn_minus_1_factors(0)


@given(polys)
def test_hex_round_trip(p):
    assert bitpoly.parse(bitpoly.to_hex(p)) == p


@given(polys)
def test_human_round_trip(p):
    assert bitpoly.parse(bitpoly.to_human(p)) == p


def test_serialization_known_forms():
    assert bitpoly.to_hex(0b10011) == "13"
    assert bitpoly.to_human(0b10011) == "1+x+x^4"
    assert bitpoly.to_hex(0) == "00"
    assert bitpoly.to_human(0) == "0"
    assert bitpoly.parse("1 + x + x^4") == 0b10011
    assert bitpoly.parse("13") == 0b10011


def test_parse_rejects_garbage():
    for bad in ["", "y^2", "x^-1", "zz", "1++x"]:
        with pytest.raises(DomainError):
            bitpoly.parse(bad)


@given(st.text(alphabet="x^+0123456789abcdef ", max_size=8))
def test_parse_raises_only_typed_errors(s):
    """A short string parses to a polynomial or raises DomainError; the one
    other error is the degree cap's, for an exponent above it (x^999999
    fits in eight characters)."""
    try:
        p = bitpoly.parse(s)
    except DomainError:
        return
    except UnsupportedDegreeError as exc:
        assert "exceeds cap" in str(exc)
        return
    assert isinstance(p, int) and p >= 0


def test_parse_refuses_an_exponent_above_the_cap(monkeypatch):
    monkeypatch.setenv("CHARFIELD2_MAX_N", "8")
    assert bitpoly.parse("1+x^8") == 0x101
    with pytest.raises(UnsupportedDegreeError, match="degree 9 exceeds cap 8"):
        bitpoly.parse("1+x^9")
    with pytest.raises(DomainError, match="too long"):
        bitpoly.parse("x^" + "9" * 5000)  # past int()'s digit limit
