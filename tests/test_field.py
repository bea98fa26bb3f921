"""Tests for binary field contexts and element arithmetic."""

import random
import time

import pytest
from hypothesis import given, strategies as st

from charfield2 import bitpoly, field as gf
from charfield2.errors import DomainError, InvalidElementError, UnsupportedDegreeError

F4 = gf.FieldCtx(0b111)          # 1+x+x^2
F16 = gf.FieldCtx(0b10011)       # 1+x+x^4
F256 = gf.FieldCtx(0b100011011)  # 1+x+x^3+x^4+x^8

elems16 = st.integers(min_value=0, max_value=15)
elems256 = st.integers(min_value=0, max_value=255)


def test_ctx_construction_and_validation():
    assert F16.n == 4
    assert F16.order == 15
    assert F16.order_factors == (3, 5)
    with pytest.raises(DomainError):
        gf.FieldCtx(0)
    with pytest.raises(DomainError):
        gf.FieldCtx(1)
    with pytest.raises(DomainError):
        gf.FieldCtx(0b101)  # (1+x)^2 is reducible
    # the check can be bypassed for internal callers that already know
    assert gf.FieldCtx(0b101, check_irreducible=False).n == 2


# The distinct primes of 2^n - 1 for n <= 128, frozen from an independent
# factorisation (sympy's factorint).
MERSENNE_PRIMES = {
    1: [],
    2: [3],
    3: [7],
    4: [3, 5],
    5: [31],
    6: [3, 7],
    7: [127],
    8: [3, 5, 17],
    9: [7, 73],
    10: [3, 11, 31],
    11: [23, 89],
    12: [3, 5, 7, 13],
    13: [8191],
    14: [3, 43, 127],
    15: [7, 31, 151],
    16: [3, 5, 17, 257],
    17: [131071],
    18: [3, 7, 19, 73],
    19: [524287],
    20: [3, 5, 11, 31, 41],
    21: [7, 127, 337],
    22: [3, 23, 89, 683],
    23: [47, 178481],
    24: [3, 5, 7, 13, 17, 241],
    25: [31, 601, 1801],
    26: [3, 2731, 8191],
    27: [7, 73, 262657],
    28: [3, 5, 29, 43, 113, 127],
    29: [233, 1103, 2089],
    30: [3, 7, 11, 31, 151, 331],
    31: [2147483647],
    32: [3, 5, 17, 257, 65537],
    33: [7, 23, 89, 599479],
    34: [3, 43691, 131071],
    35: [31, 71, 127, 122921],
    36: [3, 5, 7, 13, 19, 37, 73, 109],
    37: [223, 616318177],
    38: [3, 174763, 524287],
    39: [7, 79, 8191, 121369],
    40: [3, 5, 11, 17, 31, 41, 61681],
    41: [13367, 164511353],
    42: [3, 7, 43, 127, 337, 5419],
    43: [431, 9719, 2099863],
    44: [3, 5, 23, 89, 397, 683, 2113],
    45: [7, 31, 73, 151, 631, 23311],
    46: [3, 47, 178481, 2796203],
    47: [2351, 4513, 13264529],
    48: [3, 5, 7, 13, 17, 97, 241, 257, 673],
    49: [127, 4432676798593],
    50: [3, 11, 31, 251, 601, 1801, 4051],
    51: [7, 103, 2143, 11119, 131071],
    52: [3, 5, 53, 157, 1613, 2731, 8191],
    53: [6361, 69431, 20394401],
    54: [3, 7, 19, 73, 87211, 262657],
    55: [23, 31, 89, 881, 3191, 201961],
    56: [3, 5, 17, 29, 43, 113, 127, 15790321],
    57: [7, 32377, 524287, 1212847],
    58: [3, 59, 233, 1103, 2089, 3033169],
    59: [179951, 3203431780337],
    60: [3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321],
    61: [2305843009213693951],
    62: [3, 715827883, 2147483647],
    63: [7, 73, 127, 337, 92737, 649657],
    64: [3, 5, 17, 257, 641, 65537, 6700417],
    65: [31, 8191, 145295143558111],
    66: [3, 7, 23, 67, 89, 683, 20857, 599479],
    67: [193707721, 761838257287],
    68: [3, 5, 137, 953, 26317, 43691, 131071],
    69: [7, 47, 178481, 10052678938039],
    70: [3, 11, 31, 43, 71, 127, 281, 86171, 122921],
    71: [228479, 48544121, 212885833],
    72: [3, 5, 7, 13, 17, 19, 37, 73, 109, 241, 433, 38737],
    73: [439, 2298041, 9361973132609],
    74: [3, 223, 1777, 25781083, 616318177],
    75: [7, 31, 151, 601, 1801, 100801, 10567201],
    76: [3, 5, 229, 457, 174763, 524287, 525313],
    77: [23, 89, 127, 581283643249112959],
    78: [3, 7, 79, 2731, 8191, 121369, 22366891],
    79: [2687, 202029703, 1113491139767],
    80: [3, 5, 11, 17, 31, 41, 257, 61681, 4278255361],
    81: [7, 73, 2593, 71119, 262657, 97685839],
    82: [3, 83, 13367, 164511353, 8831418697],
    83: [167, 57912614113275649087721],
    84: [3, 5, 7, 13, 29, 43, 113, 127, 337, 1429, 5419, 14449],
    85: [31, 131071, 9520972806333758431],
    86: [3, 431, 9719, 2099863, 2932031007403],
    87: [7, 233, 1103, 2089, 4177, 9857737155463],
    88: [3, 5, 17, 23, 89, 353, 397, 683, 2113, 2931542417],
    89: [618970019642690137449562111],
    90: [3, 7, 11, 19, 31, 73, 151, 331, 631, 23311, 18837001],
    91: [127, 911, 8191, 112901153, 23140471537],
    92: [3, 5, 47, 277, 1013, 1657, 30269, 178481, 2796203],
    93: [7, 2147483647, 658812288653553079],
    94: [3, 283, 2351, 4513, 13264529, 165768537521],
    95: [31, 191, 524287, 420778751, 30327152671],
    96: [3, 5, 7, 13, 17, 97, 193, 241, 257, 673, 65537, 22253377],
    97: [11447, 13842607235828485645766393],
    98: [3, 43, 127, 4363953127297, 4432676798593],
    99: [7, 23, 73, 89, 199, 153649, 599479, 33057806959],
    100: [3, 5, 11, 31, 41, 101, 251, 601, 1801, 4051, 8101, 268501],
    101: [7432339208719, 341117531003194129],
    102: [3, 7, 103, 307, 2143, 2857, 6529, 11119, 43691, 131071],
    103: [2550183799, 3976656429941438590393],
    104: [3, 5, 17, 53, 157, 1613, 2731, 8191, 858001, 308761441],
    105: [7, 31, 71, 127, 151, 337, 29191, 106681, 122921, 152041],
    106: [3, 107, 6361, 69431, 20394401, 28059810762433],
    107: [162259276829213363391578010288127],
    108: [3, 5, 7, 13, 19, 37, 73, 109, 87211, 246241, 262657, 279073],
    109: [745988807, 870035986098720987332873],
    110: [3, 11, 23, 31, 89, 683, 881, 2971, 3191, 201961, 48912491],
    111: [7, 223, 321679, 26295457, 319020217, 616318177],
    112: [3, 5, 17, 29, 43, 113, 127, 257, 5153, 15790321, 54410972897],
    113: [3391, 23279, 65993, 1868569, 1066818132868207],
    114: [3, 7, 571, 32377, 174763, 524287, 1212847, 160465489],
    115: [31, 47, 14951, 178481, 4036961, 2646507710984041],
    116: [3, 5, 59, 233, 1103, 2089, 3033169, 107367629, 536903681],
    117: [7, 73, 79, 937, 6553, 8191, 86113, 121369, 7830118297],
    118: [3, 2833, 37171, 179951, 1824726041, 3203431780337],
    119: [127, 239, 20231, 131071, 62983048367, 131105292137],
    120: [3, 5, 7, 11, 13, 17, 31, 41, 61, 151, 241, 331, 1321, 61681, 4562284561],
    121: [23, 89, 727, 1786393878363164227858270210279],
    122: [3, 768614336404564651, 2305843009213693951],
    123: [7, 13367, 3887047, 164511353, 177722253954175633],
    124: [3, 5, 5581, 8681, 49477, 384773, 715827883, 2147483647],
    125: [31, 601, 1801, 269089806001, 4710883168879506001],
    126: [3, 7, 19, 43, 73, 127, 337, 5419, 92737, 649657, 77158673929],
    127: [170141183460469231731687303715884105727],
    128: [3, 5, 17, 257, 641, 65537, 274177, 6700417, 67280421310721],
}


def test_mersenne_prime_factors_match_the_frozen_table():
    """Each frozen list is complete (dividing its primes out of 2^n - 1
    leaves 1) and prime, and the package finds exactly it."""
    for n, primes in MERSENNE_PRIMES.items():
        rest = (1 << n) - 1
        for p in primes:
            assert gf._is_prime(p) and rest % p == 0, (n, p)
            while rest % p == 0:
                rest //= p
        assert rest == 1, n
        assert gf.mersenne_prime_factors(n) == tuple(primes), n


def test_mersenne_prime_factors_refuse_past_the_rho_budget():
    """2^137 - 1 = 32032215596496435569 * 5439042183600204290159 needs
    longer rho runs than any n <= 128: a typed refusal in seconds, where it
    used to run for minutes."""
    start = time.perf_counter()
    with pytest.raises(UnsupportedDegreeError, match="n = 137"):
        gf.mersenne_prime_factors(137)
    assert time.perf_counter() - start < 60


def test_is_prime_against_a_sieve_and_pseudoprimes():
    limit = 20000
    sieve = [False, False] + [True] * (limit - 2)
    for i in range(2, limit):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    assert [m for m in range(limit) if gf._is_prime(m)] == [
        m for m in range(limit) if sieve[m]]
    # Carmichael numbers and strong pseudoprimes to the first bases
    for m in (561, 1105, 2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051,
              318665857834031151167461):
        assert not gf._is_prime(m), m
    assert gf._is_prime((1 << 127) - 1)


def test_ctx_equality_and_repr():
    assert gf.FieldCtx(0b10011) == F16
    assert F16 != F4
    assert hash(gf.FieldCtx(0b10011)) == hash(F16)
    assert "1+x+x^4" in repr(F16)


def test_degree_cap_env(monkeypatch):
    monkeypatch.delenv("CHARFIELD2_MAX_N", raising=False)
    assert gf.max_degree() == 64
    with pytest.raises(UnsupportedDegreeError):
        gf.FieldCtx((1 << 65) | 3, check_irreducible=False)
    monkeypatch.setenv("CHARFIELD2_MAX_N", "100")
    assert gf.max_degree() == 100
    assert gf.FieldCtx((1 << 65) | 3, check_irreducible=False).n == 65
    monkeypatch.setenv("CHARFIELD2_MAX_N", "4")
    with pytest.raises(UnsupportedDegreeError):
        gf.FieldCtx(0b100101)
    for bad in ("bogus", "0", "-3"):
        monkeypatch.setenv("CHARFIELD2_MAX_N", bad)
        with pytest.raises(UnsupportedDegreeError, match=repr(bad)):
            gf.max_degree()


def test_validate_rejects_out_of_range():
    with pytest.raises(InvalidElementError):
        gf.validate(F16, -1)
    with pytest.raises(InvalidElementError):
        gf.validate(F16, 16)
    with pytest.raises(InvalidElementError):
        gf.validate(F16, "x")
    assert gf.validate(F16, 15) == 15


@given(elems256, elems256)
def test_mul_matches_naive_reduction(a, b):
    expected = bitpoly.poly_mod(bitpoly.poly_mul(a, b), F256.modulus)
    assert gf.poly_mul_mod(F256, a, b) == expected


# (modulus, takes the sparse fold): every min_irreducible(n) for n <= 64, the
# boundary pair 2k = n + 1 (fold, two passes) and 2k = n + 2 (per-bit) for k
# the second-highest degree, a dense modulus, and both moduli of degree 1.
REDUCTION_MODULI = (
    [(bitpoly.min_irreducible(n), True) for n in range(1, 65)]
    + [(bitpoly.parse("1+x^4+x^7"), True),
       (bitpoly.parse("1+x^7+x^12"), False),
       (bitpoly.parse("1+x+x^2+x^3+x^4"), False),
       (bitpoly.parse("x"), True)])


@pytest.mark.parametrize("f,folds", REDUCTION_MODULI,
                         ids=[bitpoly.to_human(f) for f, _ in REDUCTION_MODULI])
def test_reduce_product_and_square_match_poly_mod(f, folds):
    ctx = gf.FieldCtx(f)
    assert (ctx.fold_terms is not None) == folds
    assert (ctx.reduction is None) == folds  # only the path in use is built
    n = ctx.n
    rng = random.Random(f)
    # x^(2n-2) overflows into the second fold at 2k = n + 1: for 1+x^4+x^7,
    # x^12 = x^5 (1 + x^4) = x^5 + x^9 and x^9 = x^2 (1 + x^4)
    prods = [0, 1 << 2 * n - 2, (1 << 2 * n - 1) - 1]
    prods += [rng.getrandbits(2 * n - 1) for _ in range(40)]
    for p in prods:
        assert gf.reduce_product(ctx, p) == bitpoly.poly_mod(p, f)
    for a in [0, ctx.mask] + [rng.getrandbits(n) for _ in range(40)]:
        assert gf.square(ctx, a) == bitpoly.poly_mod(bitpoly.poly_mul(a, a), f)


@pytest.mark.parametrize("f,folds", REDUCTION_MODULI,
                         ids=[bitpoly.to_human(f) for f, _ in REDUCTION_MODULI])
def test_reduce_lanes_matches_reduce_product_per_lane(f, folds):
    """Lanes 2n and 2n + 3 bits apart, each holding a raw product of up to
    2n - 1 bits, the widest first and last; moduli that fold by shifts of
    their terms and those that reduce bit by bit alike."""
    ctx = gf.FieldCtx(f)
    assert (ctx.fold_terms is not None) == folds
    n = ctx.n
    rng = random.Random(f)
    prods = [(1 << 2 * n - 1) - 1, 0, 1 << 2 * n - 2]
    prods += [rng.getrandbits(2 * n - 1) for _ in range(20)] + [(1 << 2 * n - 1) - 1]
    for lane in (2 * n, 2 * n + 3):
        packed = ones = 0
        for p in reversed(prods):
            packed = packed << lane | p
            ones = ones << lane | 1
        want = 0
        for p in reversed(prods):
            want = want << lane | gf.reduce_product(ctx, p)
        assert gf.reduce_lanes(ctx, packed, ones) == want, lane


@given(elems16, elems16, elems16)
def test_field_axioms(a, b, c):
    mul = lambda x, y: gf.poly_mul_mod(F16, x, y)
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)
    assert mul(a, 1) == a
    assert mul(a, 0) == 0


def test_inverse_round_trip():
    for a in range(1, 16):
        assert gf.poly_mul_mod(F16, a, gf.inverse(F16, a)) == 1
    with pytest.raises(DomainError):
        gf.inverse(F16, 0)


@pytest.mark.parametrize("n", range(1, 11))
def test_inverse_is_the_power_order_minus_one(n):
    ctx = gf.FieldCtx(bitpoly.min_irreducible(n))
    for a in range(1, 1 << n):
        assert gf.inverse(ctx, a) == gf.power(ctx, a, ctx.order - 1), a


@pytest.mark.parametrize("f,folds", [(f, folds) for f, folds in REDUCTION_MODULI
                                     if bitpoly.degree(f) in (33, 48, 64)
                                     or not folds])
def test_inverse_matches_the_power_at_large_degree(f, folds):
    """200 random elements at n = 33, 48 and 64, and under the moduli that
    reduce bit by bit."""
    ctx = gf.FieldCtx(f)
    rng = random.Random(f)
    for _ in range(200):
        a = rng.getrandbits(ctx.n) or 1
        assert gf.inverse(ctx, a) == gf.power(ctx, a, ctx.order - 1), a
    with pytest.raises(DomainError):
        gf.inverse(ctx, 0)
    for a in (1 << ctx.n, -1):
        with pytest.raises(InvalidElementError):
            gf.inverse(ctx, a)


def test_inverse_refuses_a_factor_of_a_reducible_modulus():
    ctx = gf.FieldCtx(0b101, check_irreducible=False)  # (1 + x)^2
    assert gf.inverse(ctx, 0b10) == 0b10  # x^2 = 1
    with pytest.raises(DomainError):
        gf.inverse(ctx, 0b11)


@given(elems256)
def test_square_and_frobenius(a):
    assert gf.square(F256, a) == gf.poly_mul_mod(F256, a, a)
    assert gf.frobenius(F256, a) == gf.square(F256, a)
    assert gf.frobenius(F256, a, F256.n) == a  # full orbit returns home
    assert gf.frobenius(F256, gf.frobenius(F256, a, 3), 5) == a


@given(elems256, elems256)
def test_frobenius_is_additive_and_multiplicative(a, b):
    fr = lambda x: gf.frobenius(F256, x)
    assert fr(a ^ b) == fr(a) ^ fr(b)
    assert fr(gf.poly_mul_mod(F256, a, b)) == gf.poly_mul_mod(F256, fr(a), fr(b))


def test_power_matches_repeated_mul():
    for a in range(16):
        acc = 1
        for e in range(20):
            assert gf.power(F16, a, e) == acc
            acc = gf.poly_mul_mod(F16, acc, a)


def test_power_refuses_a_negative_exponent():
    """-1 >> 1 == -1, so square-and-multiply would never end on e < 0."""
    for e in (-1, -6):
        with pytest.raises(DomainError):
            gf.power(F16, 0b10, e)


def test_trace_properties():
    # additive, Frobenius-invariant, and balanced across the field
    for a in range(256):
        assert gf.trace(F256, a) == gf.trace(F256, gf.square(F256, a))
    for a in range(16):
        for b in range(16):
            assert gf.trace(F16, a ^ b) == gf.trace(F16, a) ^ gf.trace(F16, b)
    assert sum(gf.trace(F256, a) for a in range(256)) == 128
    assert gf.trace(F16, 0) == 0


def test_trace_over_a_reducible_modulus_is_a_domain_error():
    # x in F_2[x]/(x^2 + 1) has "trace" x + x^2 = x + 1, outside F_2
    ctx = gf.FieldCtx(0b101, check_irreducible=False)
    with pytest.raises(DomainError, match=r"modulus 1\+x\^2 is reducible"):
        gf.trace(ctx, 0b10)


def test_multiplicative_order_divides_group_order():
    for a in range(1, 16):
        t = gf.multiplicative_order(F16, a)
        assert F16.order % t == 0
        assert gf.power(F16, a, t) == 1
        for p in (3, 5):
            if t % p == 0:
                assert gf.power(F16, a, t // p) != 1
    with pytest.raises(DomainError):
        gf.multiplicative_order(F16, 0)


def test_is_primitive_counts():
    # F_16 has phi(15) = 8 primitive elements; x itself is one of them
    assert gf.is_primitive(F16, 0b10)
    assert not gf.is_primitive(F16, 0)
    assert not gf.is_primitive(F16, 1)
    assert sum(gf.is_primitive(F16, a) for a in range(16)) == 8
    assert gf.is_primitive(F4, 0b10)


def _order_by_powers(ctx, a):
    """The reference order: one power call per prime tested."""
    t = ctx.order
    for p in ctx.order_factors:
        while t % p == 0 and gf.power(ctx, a, t // p) == 1:
            t //= p
    return t


def _euler_phi(ctx):
    phi = ctx.order
    for p in ctx.order_factors:
        phi = phi // p * (p - 1)
    return phi


@pytest.mark.parametrize("n", range(1, 13))
def test_multiplicative_order_matches_the_powers_everywhere(n):
    """Every a != 0 has the reference order, and is_primitive accepts
    phi(2^n - 1) elements."""
    ctx = gf.FieldCtx(bitpoly.min_irreducible(n))
    orders = [gf.multiplicative_order(ctx, a) for a in range(1, 1 << n)]
    assert orders == [_order_by_powers(ctx, a) for a in range(1, 1 << n)]
    assert sum(gf.is_primitive(ctx, a) for a in range(1 << n)) == _euler_phi(ctx)


@pytest.mark.parametrize("f,folds", [(f, folds) for f, folds in REDUCTION_MODULI
                                     if bitpoly.degree(f) in (33, 48, 64)
                                     or not folds])
def test_multiplicative_order_matches_the_powers_at_large_degree(f, folds):
    """200 seeded elements at n = 33, 48 and 64, and under the moduli that
    reduce bit by bit: 100 random draws, each also raised to a prime factor
    of 2^n - 1 so that lower orders come up."""
    ctx = gf.FieldCtx(f)
    rng = random.Random(f)
    for _ in range(100):
        a = rng.getrandbits(ctx.n) or 1
        for x in (a, gf.power(ctx, a, rng.choice(ctx.order_factors))):
            assert gf.multiplicative_order(ctx, x) == _order_by_powers(ctx, x), x


def _least_irreducibles(n, count=2):
    """The `count` least irreducibles of degree n (fewer where fewer exist)."""
    return [f for f in range((1 << n) | 1, 1 << (n + 1), 2)
            if bitpoly.is_irreducible(f)][:count]


@pytest.mark.parametrize("n", range(1, 13))
def test_is_primitive_matches_the_order_everywhere(n):
    """is_primitive, which stops at the first prime p with a^((2^n - 1)/p)
    = 1, accepts exactly the elements of full order, under two moduli per
    degree (one where only one exists)."""
    for f in _least_irreducibles(n):
        ctx = gf.FieldCtx(f)
        assert not gf.is_primitive(ctx, 0)
        for a in range(1, 1 << n):
            assert gf.is_primitive(ctx, a) == (gf.multiplicative_order(ctx, a) == ctx.order), (f, a)


@pytest.mark.parametrize("n", range(13, 65))
def test_is_primitive_matches_the_order_at_large_degree(n):
    """200 seeded draws under min_irreducible(n)."""
    ctx = gf.FieldCtx(bitpoly.min_irreducible(n))
    rng = random.Random(n)
    for _ in range(200):
        a = rng.getrandbits(n) or 1
        assert gf.is_primitive(ctx, a) == (gf.multiplicative_order(ctx, a) == ctx.order), a


def test_is_primitive_operation_counts(monkeypatch):
    """Deterministic cost guard: each call squares n - 1 times, and forms one
    conjugate product chain per prime up to the first that fails. A cube in
    F_2^12 fails at the first prime, 3, after one chain; a primitive element
    takes one chain for each of the four primes of 2^12 - 1."""
    calls = {}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(gf, "square", counting("square", gf.square))
    monkeypatch.setattr(gf, "_conjugate_power", counting("chain", gf._conjugate_power))
    f12 = gf.FieldCtx(bitpoly.min_irreducible(12))
    assert f12.order_factors == (3, 5, 7, 13)
    cube = gf.power(f12, 0b10, 3)
    prim = next(a for a in range(2, 1 << 12) if gf.is_primitive(f12, a))
    for a, chains in ((cube, 1), (prim, 4)):
        calls.clear()
        gf.is_primitive(f12, a)
        assert calls == {"square": 11, "chain": chains}, a
    f64 = gf.FieldCtx(bitpoly.min_irreducible(64))
    rng = random.Random(64)
    for ctx in (F256, f64):
        for a in [1, ctx.mask] + [rng.getrandbits(ctx.n) or 1 for _ in range(5)]:
            calls.clear()
            gf.is_primitive(ctx, a)
            assert calls["square"] == ctx.n - 1, a
            assert 1 <= calls["chain"] <= len(ctx.order_factors), a


def test_is_cube_counts():
    # 3 | 15: cubes of F_16 are 0 plus the 5 fifth roots of unity
    cubes = {gf.power(F16, a, 3) for a in range(16)}
    assert {a for a in range(16) if gf.is_cube(F16, a)} == cubes
    assert len(cubes) == 6
    # 3 does not divide 2^3 - 1 = 7: everything is a cube in F_8
    f8 = gf.FieldCtx(0b1011)
    assert all(gf.is_cube(f8, a) for a in range(8))


def test_solve_artin_schreier_iff_trace_zero():
    for c in range(256):
        roots = gf.solve_artin_schreier(F256, c)
        if gf.trace(F256, c) == 0:
            assert len(roots) == 2
            assert roots[1] == roots[0] ^ 1  # the two preimages differ by 1
            for y in roots:
                assert gf.square(F256, y) ^ y == c
        else:
            assert roots == []


def test_elem_hex_round_trip():
    for a in range(16):
        s = gf.elem_to_hex(F16, a)
        assert len(s) == 2  # one byte for n=4
        assert gf.elem_parse(F16, s) == a
    assert gf.elem_to_hex(F256, 0xAB) == "ab"
    f1024 = gf.FieldCtx(bitpoly.min_irreducible(10))
    assert len(gf.elem_to_hex(f1024, 1)) == 4  # two bytes for n=10
    assert gf.elem_parse(F16, "x^3") == 8
    with pytest.raises(InvalidElementError):
        gf.elem_parse(F16, "x^4")
