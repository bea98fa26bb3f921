"""Polynomials over GF(2) packed into Python ints (bit i = coefficient of x^i)."""

from .errors import DomainError
from .linalg import null_space

# A BitPoly is a non-negative int; bit i holds the coefficient of x^i.
BitPoly = int


def degree(p: BitPoly):
    """Degree of p, or None for the zero polynomial."""
    return p.bit_length() - 1 if p else None


def weight(p: BitPoly) -> int:
    """Number of nonzero coefficients."""
    return p.bit_count()


# The shorter operand's length from which poly_mul takes the comb.  On
# uniform random operands of equal length the comb breaks even with the
# set-bit loop at 12 to 14 bits, and is 10 to 13 % faster at 16 bits and
# 25 % faster at 22 (CPython 3.11, best of 7 interleaved timings).
COMB_BITS = 16
_COMB_LEAST = 1 << COMB_BITS - 1  # the least int of COMB_BITS bits


def _negative(*polys) -> DomainError:
    return DomainError(f"a polynomial is a non-negative int, got {min(polys)}")


def poly_mul(a: BitPoly, b: BitPoly) -> BitPoly:
    """Carry-less product of two GF(2) polynomials; DomainError for a
    negative operand.

    When either operand is shorter than COMB_BITS bits, one shifted xor per
    set bit of the sparser operand.  Otherwise a 4-bit comb (Lopez and
    Dahab, INDOCRYPT 2000; Hankerson, Menezes and Vanstone, Guide to
    Elliptic Curve Cryptography, Alg. 2.36): the 16 multiples t b of the
    longer operand b, deg t < 4, by 3 shifts and 11 xors, then one lookup,
    one shift and one xor per nibble of the shorter operand."""
    if (a | b) < 0:
        raise _negative(a, b)
    if a < _COMB_LEAST or b < _COMB_LEAST:
        if a.bit_count() > b.bit_count():
            a, b = b, a
        out = 0
        while a:
            low = a & -a
            out ^= b << (low.bit_length() - 1)
            a ^= low
        return out
    if a > b:
        a, b = b, a
    b2, b4, b8 = b << 1, b << 2, b << 3
    b3, b5, b6 = b2 ^ b, b4 ^ b, b4 ^ b2
    b7 = b6 ^ b
    comb = (0, b, b2, b3, b4, b5, b6, b7,
            b8, b8 ^ b, b8 ^ b2, b8 ^ b3, b8 ^ b4, b8 ^ b5, b8 ^ b6, b8 ^ b7)
    out = shift = 0
    while a:
        out ^= comb[a & 15] << shift
        a >>= 4
        shift += 4
    return out


def poly_square(a: BitPoly) -> BitPoly:
    """a^2: in characteristic 2 the square spreads bit i to bit 2i, which is
    reading a's binary digits in base 4 (exempt from the int-str digit limit,
    as every power-of-two base is).  DomainError for a negative a."""
    if a < 0:
        raise _negative(a)
    return int(bin(a)[2:], 4)


def poly_divmod(a: BitPoly, b: BitPoly):
    """Quotient and remainder of a by b (b != 0); DomainError for a
    negative operand."""
    if (a | b) < 0:
        raise _negative(a, b)
    if b == 0:
        raise DomainError("division by zero polynomial")
    db = b.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= db and a:
        shift = a.bit_length() - 1 - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def poly_mod(a: BitPoly, b: BitPoly) -> BitPoly:
    """Remainder of a modulo b."""
    return poly_divmod(a, b)[1]


def poly_gcd(a: BitPoly, b: BitPoly) -> BitPoly:
    """Greatest common divisor (monic by construction over GF(2));
    DomainError for a negative operand."""
    if (a | b) < 0:
        raise _negative(a, b)
    while b:
        a, b = b, poly_mod(a, b)
    return a


def is_irreducible(f: BitPoly) -> bool:
    """Rabin test (Rabin, SIAM J. Comput. 9(2), 1980): x^(2^n) == x mod f and
    gcd(x^(2^(n/q)) - x, f) = 1 for prime q | n.  Each of the n squarings is
    reduced by field.reduce_product, which folds by the terms of f, or by
    its table of x^(n+i) mod f when f is dense.  Any degree is accepted.
    DomainError unless f is a non-negative int.

    f = min_irreducible(n), once found, is True at once: the search that
    recorded it in _MIN_IRREDUCIBLE ran this test on it."""
    if not isinstance(f, int) or f < 0:
        raise _negative(f)
    n = degree(f)
    if n is None or n == 0:
        return False
    if n == 1 or _MIN_IRREDUCIBLE.get(n) == f:
        return True
    x = 2
    red, reduce_product = field.Reducer(f), field.reduce_product
    # x^(2^k) mod f by repeated squaring, saving intermediate stages.
    stages = [x]
    t = x
    for _ in range(n):
        t = reduce_product(red, poly_square(t))
        stages.append(t)
    if stages[n] != x:  # x mod f = x, as n >= 2
        return False
    k = n
    primes = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            primes.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        primes.append(k)
    for q in primes:
        if poly_gcd(stages[n // q] ^ x, f) != 1:
            return False
    return True


_MIN_IRREDUCIBLE = {}  # degree -> min_irreducible(degree), filled on first use


def min_irreducible(n: int) -> BitPoly:
    """Deterministic irreducible of degree n: fewest terms, then least
    bit-packed value.  Each degree is searched once per process.
    DomainError unless n is a positive int."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"degree must be a positive integer, got {n!r}")
    f = _MIN_IRREDUCIBLE.get(n)
    if f is None:
        f = _MIN_IRREDUCIBLE[n] = _search_min_irreducible(n)
    return f


def _search_min_irreducible(n: int) -> BitPoly:
    """The least irreducible of degree n by fewest terms, then value: term
    counts 3, 5, 7, ..., each scanned in ascending value.  When 8 | n the
    scan starts at 5 terms, as no trinomial of degree 8k is irreducible
    (Swan, Pacific J. Math. 12, 1962)."""
    if n == 1:
        return 0b11  # 1 + x
    top = (1 << n) | 1
    for extra in range(3 if n % 8 == 0 else 1, n, 2):  # term counts 3, 5, 7, ...
        for middle in _ascending_sums(extra, n - 1):
            if is_irreducible(middle | top):
                return middle | top
    raise DomainError(f"no irreducible of degree {n} found")  # unreachable


def _ascending_sums(count: int, hi: int):
    """Every sum of `count` distinct powers x^e with 1 <= e <= hi, in ascending
    value: a sum is ordered by its top exponent first, so for each top exponent
    in increasing order, recurse on the exponents below it."""
    if count == 0:
        yield 0
        return
    for top in range(count, hi + 1):
        for rest in _ascending_sums(count - 1, top - 1):
            yield rest | 1 << top


def xn_minus_1_factors(n: int):
    """(factors, e): the distinct irreducible factors of x^n - 1 over F_2,
    ascending, and the e with x^n - 1 = (their product)^(2^e).

    x^n - 1 = (x^m - 1)^(2^e) with m odd, and x^m - 1 is squarefree. Berlekamp
    splits it: the g with g^2 = g mod x^m - 1 form the null space of Q - I,
    where row i of Q is x^(2i) mod x^m - 1 = x^(2i mod m), and every pair of
    factors is separated by gcd with one g of a basis of that space.
    DomainError unless n is a positive int.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"degree must be a positive integer, got {n!r}")
    e = (n & -n).bit_length() - 1
    m = n >> e
    basis = null_space([(1 << 2 * i % m) ^ (1 << i) for i in range(m)], m)
    factors = [(1 << m) | 1]
    for g in basis:
        if len(factors) == len(basis):
            break
        split = []
        for h in factors:
            d = poly_gcd(h, g)
            if 0 < degree(d) < degree(h):
                split += [d, poly_divmod(h, d)[0]]
            else:
                split.append(h)
        factors = split
    return sorted(factors), e


def to_hex(p: BitPoly) -> str:
    """Serialize as lowercase hex of the little-endian byte string."""
    nbytes = max(1, (p.bit_length() + 7) // 8)
    return p.to_bytes(nbytes, "little").hex()


def to_human(p: BitPoly) -> str:
    """Serialize as a human-readable sum of monomials, e.g. '1+x+x^4'."""
    if p == 0:
        return "0"
    terms = []
    for i in range(p.bit_length()):
        if (p >> i) & 1:
            terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
    return "+".join(terms)


def parse(s: str) -> BitPoly:
    """Parse either serialization: hex ('13') or human ('1+x+x^4')."""
    s = s.strip()
    if not s:
        raise DomainError("empty polynomial string")
    if any(c in s for c in "x+^ ") or s == "0" or s == "1":
        return _parse_human(s)
    try:
        raw = bytes.fromhex(s)
    except ValueError as exc:
        raise DomainError(f"not a valid polynomial string: {s!r}") from exc
    return int.from_bytes(raw, "little")


def _parse_human(s: str) -> BitPoly:
    p = 0
    for term in s.replace(" ", "").split("+"):
        if term == "0":
            continue
        if term == "1":
            i = 0
        elif term == "x":
            i = 1
        elif term.startswith("x^") and term[2:].isdecimal():
            try:
                i = int(term[2:])
            except ValueError:  # past int()'s digit limit
                raise DomainError(f"exponent too long in {s!r}") from None
            field._check_cap(i)  # before 1 << i allocates an oversized int
        else:
            raise DomainError(f"bad monomial {term!r} in {s!r}")
        p ^= 1 << i
    return p


# Last, because field imports this module: by the time is_irreducible or
# _parse_human reaches into field, both modules are complete.
from . import field  # noqa: E402
