"""Binary field contexts F_2[x]/(f) with elements packed into ints."""

import os
from functools import partial, reduce
from itertools import count
from math import gcd
from operator import xor

from . import bitpoly
from .errors import DomainError, InvalidElementError, UnsupportedDegreeError
from .linalg import row_apply, solve_linear

DEFAULT_MAX_N = 64


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


class FieldCtx:
    """Arithmetic context for F_2[x]/(modulus), modulus irreducible of degree n."""

    def __init__(self, modulus: int, check_irreducible: bool = True):
        deg = bitpoly.degree(modulus)
        if deg is None or deg == 0:
            raise DomainError("modulus must be non-constant")
        _check_cap(deg)
        if check_irreducible and not bitpoly.is_irreducible(modulus):
            raise DomainError(f"modulus {bitpoly.to_human(modulus)} is not irreducible")
        self.n = deg
        self.modulus = modulus
        self.mask = (1 << deg) - 1
        xn = modulus & self.mask  # x^n mod f = f - x^n, of degree k
        if 2 * xn.bit_length() <= deg + 3:  # 2k <= n + 1
            # the set-bit positions of f - x^n: reduce_product folds the
            # overflow by one shift per term, in at most two passes
            self.fold_terms = tuple(i for i in range(deg) if xn >> i & 1)
            self.reduction = None
        else:
            # reduction[i] = x^(n+i) mod f, enough to fold a (2n-1)-bit product
            self.fold_terms = None
            red = []
            t = xn
            for _ in range(deg):
                red.append(t)
                t <<= 1
                if t >> deg:
                    t = (t & self.mask) ^ xn
            self.reduction = red
        self._order_factors = None
        self._normality_maps = None

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
    def normality_maps(self):
        """(t, maps), built once on demand: for each irreducible phi dividing
        x^n - 1, the linear map ((x^n - 1)/phi)(Frobenius). For phi = x + 1
        it is the trace, given as the functional t (bit i = Tr(x^i)); the
        others are matrices. a is normal iff Tr(a) = 1 and no matrix sends
        a to 0."""
        if self._normality_maps is None:
            self._normality_maps = _normality_maps(self)
        return self._normality_maps

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
    """
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


def _normality_maps(ctx: FieldCtx):
    """See FieldCtx.normality_maps (Lidl-Niederreiter, Finite Fields, Thm 2.39)."""
    n = ctx.n
    sq = [reduce_product(ctx, 1 << 2 * i) for i in range(n)]  # row i = x^(2i)
    # powers[j] = S^j, S the squaring matrix: row i = (x^i)^(2^j)
    powers = [[1 << i for i in range(n)]]
    for _ in range(n - 1):
        powers.append([row_apply(sq, r) for r in powers[-1]])
    factors, _ = bitpoly.xn_minus_1_factors(n)
    maps = []
    for phi in factors:
        rows = [0] * n
        quot = bitpoly.poly_divmod((1 << n) | 1, phi)[0]
        while quot:
            low = quot & -quot
            rows = [r ^ p for r, p in zip(rows, powers[low.bit_length() - 1])]
            quot ^= low
        maps.append(tuple(rows))
    trace = sum(r << i for i, r in enumerate(maps[0]))  # phi = x + 1 sorts first
    return trace, tuple(maps[1:])


def validate(ctx: FieldCtx, a: int) -> int:
    """Check a is a valid coordinate vector for ctx, return it."""
    if not isinstance(a, int) or a < 0 or a > ctx.mask:
        raise InvalidElementError(f"element {a!r} out of range for n={ctx.n}")
    return a


def poly_mul_mod(ctx: FieldCtx, a: int, b: int) -> int:
    """Field product of a and b."""
    validate(ctx, a)
    validate(ctx, b)
    prod = bitpoly.poly_mul(a, b)
    return reduce_product(ctx, prod)


def reduce_product(ctx: FieldCtx, prod: int) -> int:
    """Reduce a raw carry-less product (up to 2n-1 bits) modulo the field modulus.

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
    """Field square of a: the spread bits of a, reduced."""
    return reduce_product(ctx, bitpoly.poly_square(validate(ctx, a)))


def power(ctx: FieldCtx, a: int, e: int) -> int:
    """a^e for e >= 0 (0^0 = 1)."""
    validate(ctx, a)
    if e < 0:
        raise DomainError(f"exponent must be nonnegative, got {e}")
    return _square_and_multiply(partial(poly_mul_mod, ctx), partial(square, ctx), 1, a, e)


def _square_and_multiply(mul, square, one, x, e):
    """x^e for e >= 0 in a ring with product mul, squaring and identity one."""
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
    already reduced."""
    validate(ctx, a)
    if a == 0:
        raise DomainError("zero has no inverse")
    u, v = a, ctx.modulus
    g1, g2 = 1, 0
    while u != 1:
        if not u:  # the last nonzero u was gcd(a, f) != 1: f is reducible
            raise DomainError(f"{a} is not invertible modulo "
                              f"{bitpoly.to_human(ctx.modulus)}")
        j = u.bit_length() - v.bit_length()
        if j < 0:
            u, v, g1, g2, j = v, u, g2, g1, -j
        u ^= v << j
        g1 ^= g2 << j
    return g1


def frobenius(ctx: FieldCtx, a: int, k: int = 1) -> int:
    """a^(2^k); the Frobenius automorphism applied k times (k mod n)."""
    validate(ctx, a)
    for _ in range(k % ctx.n):
        a = square(ctx, a)
    return a


def trace(ctx: FieldCtx, a: int) -> int:
    """Absolute trace of a into F_2, returned as 0 or 1."""
    validate(ctx, a)
    t = reduce(xor, _frobenius_orbit(partial(square, ctx), a, ctx.n))
    if t not in (0, 1):
        raise DomainError(f"trace landed outside F_2: modulus "
                          f"{bitpoly.to_human(ctx.modulus)} is reducible")
    return t


def _frobenius_orbit(square, x, count):
    """[x, x^2, x^4, ...], count >= 1 entries, for a ring with squaring `square`."""
    orbit = [x]
    for _ in range(count - 1):
        orbit.append(square(orbit[-1]))
    return orbit


def _conjugate_power(ctx: FieldCtx, conj, e: int) -> int:
    """a^e for 0 < e < 2^n, from conj = [a, a^2, a^4, ...]: the product of
    the conjugates a^(2^i) at the set bits of e.  One chain of n - 1
    squarings serves every exponent, where a power per exponent would redo
    it each time."""
    return reduce(partial(poly_mul_mod, ctx), [c for i, c in enumerate(conj) if e >> i & 1])


def multiplicative_order(ctx: FieldCtx, a: int) -> int:
    """Order of a in the multiplicative group (a != 0).

    From t = 2^n - 1, each prime p of t is divided out of t for as long as
    a^(t/p) = 1, each power a _conjugate_power of one Frobenius orbit."""
    validate(ctx, a)
    if a == 0:
        raise DomainError("zero has no multiplicative order")
    conj = _frobenius_orbit(partial(square, ctx), a, ctx.n)
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
    return a != 0 and _primitive_orbit(ctx, validate(ctx, a))[1]


def _primitive_orbit(ctx: FieldCtx, a: int):
    """(conj, verdict) for nonzero a: conj = [a, a^2, a^4, ...], n entries,
    and whether a is primitive, that is whether a^((2^n - 1)/p) != 1 for
    every prime p of 2^n - 1, tested in ascending order up to the first p
    that fails, each power a _conjugate_power of conj.  Conjugates share
    their multiplicative order (Lidl-Niederreiter, Finite Fields, Thm 2.18),
    so the verdict holds for every entry of conj."""
    conj = _frobenius_orbit(partial(square, ctx), a, ctx.n)
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
