"""Binary field contexts F_2[x]/(f) with elements packed into ints."""

import os
from functools import partial, reduce
from itertools import compress, count
from math import gcd

from . import bitpoly
from .errors import DomainError, InvalidElementError, UnsupportedDegreeError
from .linalg import PreparedMap, parity, solve_linear

DEFAULT_MAX_N = 64

# The largest n at which FieldCtx.primitive_flags is built: a table of 2^n
# bytes, filled by a walk of 2^n - 1 steps that costs about as much as 30
# orbit tests of _primitive_orbit at n = 12, so it pays only in small fields.
PRIMITIVE_FLAGS_MAX_N = 12


def max_degree() -> int:
    """Configured degree cap (env CHARFIELD2_MAX_N, default 64); a value
    that is not a positive integer raises UnsupportedDegreeError."""
    raw = os.environ.get("CHARFIELD2_MAX_N", "")
    try:
        cap = int(raw) if raw else DEFAULT_MAX_N
    except ValueError:
        cap = 0
    if cap < 1:
        raise UnsupportedDegreeError(
            f"CHARFIELD2_MAX_N={raw!r} is not a positive integer")
    return cap


def _check_cap(deg: int) -> None:
    """UnsupportedDegreeError when degree deg exceeds max_degree()."""
    if deg > max_degree():
        raise UnsupportedDegreeError(
            f"degree {deg} exceeds cap {max_degree()} (set CHARFIELD2_MAX_N)")


class Reducer:
    """Reduction modulo f = x^n + r, deg f = n >= 1: what reduce_product reads.

    When r's degree k has 2k <= n + 1, fold_terms holds the set-bit
    positions of r, and the overflow folds by one shift per term in at most
    two passes; otherwise reduction[i] = x^(n+i) mod f, enough to fold a
    (2n - 1)-bit product bit by bit. Only the path in use is built."""

    def __init__(self, modulus: int):
        deg = modulus.bit_length() - 1
        self.n = deg
        self.modulus = modulus
        self.mask = (1 << deg) - 1
        xn = modulus & self.mask  # x^n mod f = f - x^n, of degree k
        if 2 * xn.bit_length() <= deg + 3:  # 2k <= n + 1
            self.fold_terms = [i for i in range(xn.bit_length()) if xn >> i & 1]
            self.reduction = None
        else:
            self.fold_terms = None
            red = []
            t = xn
            for _ in range(deg):
                red.append(t)
                t <<= 1
                if t >> deg:
                    t = (t & self.mask) ^ xn
            self.reduction = red


class FieldCtx(Reducer):
    """Arithmetic context for F_2[x]/(modulus), modulus irreducible of degree n.

    A modulus that is not an int, or is constant or reducible, is a
    DomainError and a degree above the cap an UnsupportedDegreeError, so
    every FieldCtx is a field.  The modulus is Rabin-tested by
    bitpoly.is_irreducible, which passes min_irreducible(n) without a
    second test.

    Tables that only some callers read are built on their first read and
    kept: order_factors, trace_functional (trace), normality_maps (the
    normality test and scan), squaring_map (conjugates and normality_maps)
    and, at n <= PRIMITIVE_FLAGS_MAX_N, primitive_flags (the primitive
    scan).  squaring_map is the package's one Frobenius: conjugates walks
    it for multiplicative_order, is_primitive and the normal bases, and
    normality_maps forms the squaring matrix's powers by it.  The oracle in
    tables reads neither it nor conjugates; it takes its orbits by square."""

    def __init__(self, modulus: int):
        if not isinstance(modulus, int):
            raise DomainError(f"modulus must be an integer, got {modulus!r}")
        deg = bitpoly.degree(modulus)
        if deg is None or deg == 0:
            raise DomainError("modulus must be non-constant")
        _check_cap(deg)
        if not bitpoly.is_irreducible(modulus):
            raise DomainError(f"modulus {bitpoly.to_human(modulus)} is not irreducible")
        super().__init__(modulus)
        self._order_factors = None
        self._trace_functional = None
        self._normality_maps = None
        self._squaring_map = None
        self._primitive_flags = None

    @property
    def order(self) -> int:
        """Size of the multiplicative group, 2^n - 1."""
        return (1 << self.n) - 1

    @property
    def order_factors(self):
        """Sorted prime factors of 2^n - 1 (computed once on demand)."""
        if self._order_factors is None:
            self._order_factors = mersenne_prime_factors(self.n)
        return self._order_factors

    @property
    def trace_functional(self):
        """The trace as the functional t, bit i = Tr(x^i), built once on
        demand by _trace_functional: Tr(a) is the parity of a & t."""
        if self._trace_functional is None:
            self._trace_functional = _trace_functional(self)
        return self._trace_functional

    @property
    def normality_maps(self):
        """(t, maps), built once on demand: for each irreducible phi dividing
        x^n - 1, the linear map ((x^n - 1)/phi)(Frobenius). For phi = x + 1
        it is the trace, given as trace_functional; the others are matrices,
        sums of the squaring matrix's powers up to the degree of their
        quotient, and there are none when n is a power of two. a is normal
        iff Tr(a) = 1 and no matrix sends a to 0."""
        if self._normality_maps is None:
            self._normality_maps = _normality_maps(self)
        return self._normality_maps

    @property
    def squaring_map(self):
        """The Frobenius a -> a^2 as a PreparedMap of the rows x^(2i) mod f,
        built once on demand: one lookup per 8 bits of a."""
        if self._squaring_map is None:
            rows = [reduce_product(self, 1 << 2 * i) for i in range(self.n)]
            self._squaring_map = PreparedMap(rows)
        return self._squaring_map

    @property
    def primitive_flags(self):
        """Bytes of 2^n entries, entry a 1 iff a is primitive, built once on
        demand by _primitive_flags; None above PRIMITIVE_FLAGS_MAX_N.
        is_primitive does not read them, so it stays an independent test."""
        if self._primitive_flags is None and self.n <= PRIMITIVE_FLAGS_MAX_N:
            self._primitive_flags = _primitive_flags(self)
        return self._primitive_flags

    def __repr__(self):
        return f"FieldCtx(n={self.n}, modulus={bitpoly.to_human(self.modulus)})"

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("FieldCtx", self.modulus))


def mersenne_prime_factors(n: int) -> tuple:
    """Sorted distinct primes dividing 2^n - 1.

    2^n - 1 is the product of the cyclotomic values Phi_d(2) over d | n,
    each the quotient of 2^d - 1 by the Phi_e(2) of its proper divisors e,
    and each is split on its own. A prime q dividing Phi_d(2) but not d is
    1 mod d (2 has order d mod q), and odd, so 1 mod k = lcm(2, d); the rho
    map x^k + c then takes about (q - 1)/k values mod q, which shortens its
    cycles by about sqrt(k) (Brent and Pollard's factorisation of F_8).

    Checked against a table of known factorisations for n <= 128 (1.4 s for
    all of them together). Above that, rho's run time grows with the square
    root of each prime it splits off, so each split gets _RHO_STEP_BUDGET
    steps and UnsupportedDegreeError names n past it: 2^137 - 1, whose
    smaller prime is about 3.2e19, is refused after a few seconds.
    DomainError unless n is an int.
    """
    if not isinstance(n, int):
        raise DomainError(f"n must be an integer, got {n!r}")
    phi, primes = {}, set()
    for d in (d for d in range(1, n + 1) if n % d == 0):
        m = (1 << d) - 1
        for e, v in phi.items():
            if d % e == 0:
                m //= v
        phi[d] = m
        stack = [m]
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if _is_prime(m):
                primes.add(m)
            else:
                f = _rho_factor(m, d if d % 2 == 0 else 2 * d)
                if f is None:
                    raise UnsupportedDegreeError(
                        f"cannot factor 2^n - 1 for n = {n}: Pollard rho did not "
                        f"split {m} in {_RHO_STEP_BUDGET} steps")
                stack += [f, m // f]
    return tuple(sorted(primes))


# The least strong pseudoprime to all of these bases is 3317044064679887385961981
# (> 2^81), so _is_prime is exact for every factor of 2^n - 1 with n <= 81.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(m: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES; a strong probable prime test
    above 3317044064679887385961981."""
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


# Map steps one _rho_factor call may take.  Its longest run for n <= 128
# counts 524,286 (the split of 2^101 - 1, a 2^18-step cycle search), so the
# budget admits one more doubling of the search; past it, at about 5 us a
# step for 2^137 - 1, rho gives up after a few seconds.
_RHO_STEP_BUDGET = 1 << 20


def _rho_factor(m: int, k: int):
    """A proper factor of an odd composite m: Brent's variant of Pollard rho
    on x -> x^k + c from x = 3 (2^k + 1 is 2 again when m | 2^k - 1), with
    gcds taken over batches of 128 steps.  None once the steps, counted as
    2r for each cycle search of length r, pass _RHO_STEP_BUDGET."""
    steps = 0
    for c in count(1):
        y, r, q, g = 3, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > _RHO_STEP_BUDGET:
                return None
            x = y
            for _ in range(r):
                y = (pow(y, k, m) + c) % m
            j = 0
            while j < r and g == 1:
                ys = y
                for _ in range(min(128, r - j)):
                    y = (pow(y, k, m) + c) % m
                    q = q * abs(x - y) % m
                g = gcd(q, m)
                j += 128
            r *= 2
        if g == m:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (pow(ys, k, m) + c) % m
                g = gcd(abs(x - ys), m)
        if g != m:
            return g


def _trace_functional(ctx: FieldCtx) -> int:
    """See FieldCtx.trace_functional.  Tr(x^k) is the power sum s_k of the
    roots of the modulus x^n + c_(n-1) x^(n-1) + ... + c_0, and Newton's
    identities (Lidl-Niederreiter, Finite Fields, Thm 1.75) over F_2 give
    s_0 = n mod 2 and s_k = sum_(0<j<k) c_(n-j) s_(k-j) + k c_(n-k)."""
    n, f = ctx.n, ctx.modulus
    rev = int(bin(f)[:1:-1], 2)  # bit j = c_(n-j)
    coeffs = rev >> 1  # bit j - 1 = c_(n-j), beside s_(k-j) in past
    trace = n & 1
    past = 0  # bit i = s_(k-1-i) for 0 <= i < k - 1
    for k in range(1, n):
        s = ((past & coeffs).bit_count() + (k & 1 & rev >> k)) & 1
        past = past << 1 | s
        trace |= s << k
    return trace


def _normality_maps(ctx: FieldCtx):
    """See FieldCtx.normality_maps (ibid., Thm 2.39).  The maps other than
    the trace need the powers S^j of the squaring matrix S only up to the
    highest degree of their quotients (x^n - 1)/phi; when n is a power of
    two, x^n - 1 = (x + 1)^n and there is no other map."""
    n, trace = ctx.n, ctx.trace_functional
    quots = [bitpoly.poly_divmod((1 << n) | 1, phi)[0]
             for phi in bitpoly.xn_minus_1_factors(n)[0][1:]]  # x + 1 sorts first
    if not quots:
        return trace, ()
    # powers[j] = S^j, S the squaring matrix: row i = (x^i)^(2^j), the
    # square of row i of S^(j-1)
    powers = [[1 << i for i in range(n)]]
    for _ in range(max(quots).bit_length() - 1):
        powers.append(list(map(ctx.squaring_map.apply, powers[-1])))
    maps = []
    for quot in quots:
        rows = [0] * n
        while quot:
            low = quot & -quot
            rows = [r ^ p for r, p in zip(rows, powers[low.bit_length() - 1])]
            quot ^= low
        maps.append(tuple(rows))
    return trace, tuple(maps)


def _primitive_flags(ctx: FieldCtx) -> bytes:
    """See FieldCtx.primitive_flags: the table of indices to the least
    primitive g (Lidl-Niederreiter, Finite Fields, on tables of indices),
    read for primitivity alone. g^k has order (2^n - 1)/gcd(k, 2^n - 1), so
    it is primitive iff no prime of 2^n - 1 divides k. One walk of the
    PreparedMap of the rows g x^i lists g^k for k < 2^n - 1, and a sieve
    zeroes the k that are multiples of a prime of 2^n - 1 (k = 0 among
    them, unless n = 1). g is the first candidate that _primitive_orbit
    finds primitive."""
    order = ctx.order
    g = next(a for a in range(1, order + 1) if _primitive_orbit(ctx, a)[1])
    times_g = PreparedMap([poly_mul_mod(ctx, g, 1 << i) for i in range(ctx.n)])
    coprime = bytearray([1]) * order
    for p in ctx.order_factors:
        coprime[::p] = bytes(order // p)
    flags = bytearray(order + 1)
    for x in compress(times_g.cycle(1), coprime):
        flags[x] = 1
    return bytes(flags)


def validate(ctx: FieldCtx, a: int) -> int:
    """Check a is a valid coordinate vector for ctx, return it."""
    if not isinstance(a, int) or a < 0 or a > ctx.mask:
        raise InvalidElementError(f"element {a!r} out of range for n={ctx.n}")
    return a


def poly_mul_mod(ctx: FieldCtx, a: int, b: int) -> int:
    """Field product of a and b; InvalidElementError unless both are ints in
    [0, 2^n). The check is an exact int type and one shift of a | b, which
    fails for every negative or too large operand; validate runs only then,
    to raise its error or to pass a bool or an int subclass, so valid
    operands cost no call."""
    if a.__class__ is not int or b.__class__ is not int or (a | b) >> ctx.n:
        validate(ctx, a)
        validate(ctx, b)
    return reduce_product(ctx, bitpoly.poly_mul(a, b))


def reduce_product(ctx: Reducer, prod: int) -> int:
    """Reduce a raw carry-less product (up to 2n-1 bits) modulo the modulus
    of ctx, a FieldCtx or a bare Reducer.

    With f = x^n + r and k = deg r, the overflow h = prod >> n has degree at
    most n - 2, and x^n h = r h. When 2k <= n + 1 (ctx.fold_terms) r h is
    formed by one shift per term of r: its overflow has degree at most k - 2,
    and that of the second fold at most 2k - 2 < n. Denser moduli fold one
    overflow bit at a time through ctx.reduction."""
    n = ctx.n
    high = prod >> n
    out = prod & ctx.mask
    terms = ctx.fold_terms
    if terms is not None:
        while high:
            fold = 0
            for e in terms:
                fold ^= high << e
            out ^= fold & ctx.mask
            high = fold >> n
        return out
    red = ctx.reduction
    while high:
        low = high & -high
        out ^= red[low.bit_length() - 1]
        high ^= low
    return out


def reduce_lanes(ctx: FieldCtx, prods: int, ones: int) -> int:
    """reduce_product of every lane of prods at once.

    Lane t starts at the t-th set bit of `ones` and holds a raw product of
    up to 2n - 1 bits.  Lanes at least 2n bits apart keep each fold in its
    own lane, and a shift by n brings no bit of the next lane into the low
    n bits.  With ctx.fold_terms each fold is one shift per term for all
    lanes; otherwise each overflow bit n + i of every lane at once, one bit
    per lane, is replaced by ctx.reduction[i] with one integer product,
    which cannot carry."""
    n = ctx.n
    low = ones * ctx.mask
    out = prods & low
    terms = ctx.fold_terms
    if terms is None:
        for i, r in enumerate(ctx.reduction):
            out ^= ((prods >> (n + i)) & ones) * r
        return out
    high = (prods >> n) & low
    while high:
        fold = 0
        for e in terms:
            fold ^= high << e
        out ^= fold & low
        high = (fold >> n) & low
    return out


def square(ctx: FieldCtx, a: int) -> int:
    """Field square of a: the spread bits of a, reduced. a is checked as in
    poly_mul_mod, by its exact type and one shift."""
    if a.__class__ is not int or a >> ctx.n:  # also every negative a
        validate(ctx, a)
    return reduce_product(ctx, bitpoly.poly_square(a))


def power(ctx: FieldCtx, a: int, e: int) -> int:
    """a^e for an int e >= 0 (0^0 = 1)."""
    validate(ctx, a)
    return _square_and_multiply(partial(poly_mul_mod, ctx), partial(square, ctx), 1, a, e)


def _square_and_multiply(mul, square, one, x, e):
    """x^e in a ring with product mul, squaring and identity one; DomainError
    unless e is an int >= 0 (a bool counts as one).  -1 >> 1 == -1, so the
    loop would never end on e < 0."""
    if not isinstance(e, int) or e < 0:
        raise DomainError(f"exponent must be a nonnegative integer, got {e!r}")
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        x = square(x)
        e >>= 1
    return result


def inverse(ctx: FieldCtx, a: int) -> int:
    """Multiplicative inverse of nonzero a, by the extended Euclidean algorithm
    on (a, modulus) (Hankerson, Menezes and Vanstone, Guide to Elliptic Curve
    Cryptography, Alg. 2.48).

    Throughout, u = g1 a and v = g2 a modulo f, and deg g1 + deg v <= n.
    v is f or an earlier u, never 1, so once u = 1, g1 is the inverse
    already reduced.  The modulus is irreducible (FieldCtx tests it), so
    gcd(a, f) = 1 and u reaches 1 before 0."""
    validate(ctx, a)
    if a == 0:
        raise DomainError("zero has no inverse")
    u, v = a, ctx.modulus
    g1, g2 = 1, 0
    while u != 1:
        j = u.bit_length() - v.bit_length()
        if j < 0:
            u, v, g1, g2, j = v, u, g2, g1, -j
        u ^= v << j
        g1 ^= g2 << j
    return g1


def frobenius(ctx: FieldCtx, a: int, k: int = 1) -> int:
    """a^(2^k); the Frobenius automorphism applied k times (k mod n).
    DomainError unless k is an int."""
    validate(ctx, a)
    if not isinstance(k, int):
        raise DomainError(f"Frobenius count must be an integer, got {k!r}")
    for _ in range(k % ctx.n):
        a = square(ctx, a)
    return a


def trace(ctx: FieldCtx, a: int) -> int:
    """Absolute trace of a into F_2, returned as 0 or 1: the sum of a's n
    conjugates, which lies in F_2 as the modulus is irreducible.  It is
    linear, so it is the parity of a & t for t = ctx.trace_functional."""
    return parity(validate(ctx, a) & ctx.trace_functional)


def conjugates(ctx: FieldCtx, a: int):
    """[a, a^2, a^4, ...] -- the Frobenius orbit, length n: the cycle of a
    under ctx.squaring_map, n/8 lookups a step, repeated n/d times when a
    lies in the subfield of 2^d elements."""
    orbit = ctx.squaring_map.cycle(validate(ctx, a))
    return orbit * (ctx.n // len(orbit))


def _conjugate_power(ctx: FieldCtx, conj, e: int) -> int:
    """a^e for 0 < e < 2^n, from conj = [a, a^2, a^4, ...]: the product of
    the conjugates a^(2^i) at the set bits of e.  One orbit serves every
    exponent, where a power per exponent would square n - 1 times for each."""
    return reduce(partial(poly_mul_mod, ctx), [c for i, c in enumerate(conj) if e >> i & 1])


def multiplicative_order(ctx: FieldCtx, a: int) -> int:
    """Order of a in the multiplicative group (a != 0).

    From t = 2^n - 1, each prime p of t is divided out of t for as long as
    a^(t/p) = 1, each power a _conjugate_power of the conjugates of a."""
    conj = conjugates(ctx, a)
    if a == 0:
        raise DomainError("zero has no multiplicative order")
    t = ctx.order
    for p in ctx.order_factors:
        while t % p == 0:
            e = t // p
            if _conjugate_power(ctx, conj, e) != 1:
                break
            t = e
    return t


def is_primitive(ctx: FieldCtx, a: int) -> bool:
    """True iff a generates the multiplicative group: a != 0 and
    _primitive_orbit finds it primitive."""
    return a != 0 and _primitive_orbit(ctx, a)[1]


def _primitive_orbit(ctx: FieldCtx, a: int):
    """(conj, verdict) for nonzero a: conj = [a, a^2, a^4, ...], n entries,
    and whether a is primitive, that is whether a^((2^n - 1)/p) != 1 for
    every prime p of 2^n - 1, tested in ascending order up to the first p
    that fails, each power a _conjugate_power of conj.  Conjugates share
    their multiplicative order (Lidl-Niederreiter, Finite Fields, Thm 2.18),
    so the verdict holds for every entry of conj."""
    conj = conjugates(ctx, a)
    return conj, all(_conjugate_power(ctx, conj, ctx.order // p) != 1
                     for p in ctx.order_factors)


def is_cube(ctx: FieldCtx, a: int) -> bool:
    """True iff a = c^3 for some c; via a^((2^n-1)/3) when 3 divides 2^n - 1."""
    validate(ctx, a)
    return _is_cube(partial(power, ctx), 0, 1, ctx.order, a)


def _is_cube(power, zero, one, order, x):
    """Whether x = c^3 in a field of order + 1 elements with the given power,
    zero and identity: zero is a cube, every element is one when 3 does not
    divide order (cubing is then a bijection on the multiplicative group),
    and otherwise x is a cube iff x^(order/3) = 1."""
    return x == zero or order % 3 != 0 or power(x, order // 3) == one


def solve_artin_schreier(ctx: FieldCtx, c: int):
    """All y with y^2 + y = c, sorted ascending ([] when trace(c) = 1)."""
    validate(ctx, c)
    # y -> y^2 + y is F_2-linear, with row i the image of x^i
    rows = [square(ctx, 1 << i) ^ (1 << i) for i in range(ctx.n)]
    y = solve_linear(rows, ctx.n, c)
    if y is None:
        return []
    return sorted((y, y ^ 1))


def elem_to_hex(ctx: FieldCtx, a: int) -> str:
    """Fixed-width little-endian hex of an element's coordinate bits."""
    validate(ctx, a)
    return a.to_bytes((ctx.n + 7) // 8, "little").hex()


def elem_parse(ctx: FieldCtx, s: str) -> int:
    """Parse an element from hex or human polynomial form."""
    a = bitpoly.parse(s)
    return validate(ctx, a)
