"""Normal bases of F_{2^n} over F_2: construction, tables, weights, cross sums.

A normal basis is (a, a^2, a^4, ..., a^(2^(n-1))) for a normal element a.
Coordinates relative to it are packed into ints (bit i = coefficient of a^(2^i)).
The structure table T = (t_{i,j}) is defined by a * a^(2^i) = sum_j t_{i,j} a^(2^j);
row i of T is stored as an int with bit j = t_{i,j}.

Only rows 0 .. n//2 of T are formed by field products; the others are
their rotations T[n - d] = rotl(T[d], -d).

normal_mul reads T alone: a product costs n ANDs plus at most w(N) shifted
XORs, so the density d(N) = n * w(N) is its cost. The paper's n product
tables z_k = u T_k v^t (mul_rows, n^3 bits) are built only on request.

product_planes holds the n^2 basis products a^(2^i) a^(2^j) as n bit-planes,
one int per normal coordinate, built by lane shifts and masks. A linear map
acts on all n^2 products at once through them: the cross-product sum is the
popcount of the planes of a times them, and tables' closed form starts from
them.
"""

from functools import partial
from itertools import chain, islice

from . import field as gf
from .errors import DomainError, NotNormalError
from .linalg import (PreparedMap, mat_invert, mat_transpose, pack_lanes, parity,
                     row_apply)

# Coordinates w.r.t. a normal basis: n-bit int, bit i = coefficient of a^(2^i).
NormalCoords = int


def rotl(x: int, s: int, n: int) -> int:
    """Cyclic left rotation in index space: bit r of result = bit (r-s) mod n of x."""
    s %= n
    if s == 0:
        return x
    mask = (1 << n) - 1
    return ((x << s) | (x >> (n - s))) & mask


def conjugates(ctx: gf.FieldCtx, a: int):
    """[a, a^2, a^4, ...] -- the Frobenius orbit, length n."""
    return gf._frobenius_orbit(partial(gf.square, ctx), gf.validate(ctx, a), ctx.n)


def is_normal_element(ctx: gf.FieldCtx, a: int) -> bool:
    """True iff the Frobenius orbit of a spans F_{2^n} over F_2, that is iff
    ((x^n - 1)/phi)(Frobenius) sends a to nonzero for every irreducible
    phi | x^n - 1 (ctx.normality_maps: the trace first, then the matrices)."""
    trace, maps = ctx.normality_maps
    if not parity(gf.validate(ctx, a) & trace):
        return False
    return all(row_apply(m, a) for m in maps)


class NormalBasisCtx:
    """A normal basis of F_{2^n} together with its structure table."""

    def __init__(self, ctx: gf.FieldCtx, alpha: int):
        self.conj = conjugates(ctx, alpha)  # row i = poly coords of a^(2^i)
        self._to_normal = mat_invert(self.conj, ctx.n)
        if self._to_normal is None:
            raise NotNormalError(
                f"{gf.elem_to_hex(ctx, alpha)} does not generate a normal basis (n={ctx.n})")
        self.field = ctx
        self.alpha = alpha
        self.n = ctx.n
        # rows 0 .. n//2 by field products; a a^(2^(n-d)) = (a a^(2^d))^(2^(n-d))
        # gives the rest as T[n - d] = rotl(T[d], -d), as normal_mul reads them
        n = ctx.n
        table = [row_apply(self._to_normal, gf.poly_mul_mod(ctx, alpha, c))
                 for c in self.conj[:n // 2 + 1]]
        table += [rotl(table[n - e], e, n) for e in range(n // 2 + 1, n)]
        self.table = table
        self.weight = sum(r.bit_count() for r in table)
        self.density = ctx.n * self.weight
        # set-bit positions of T[d] for d = 0..n//2: the terms of normal_mul,
        # listed by its first call, as most bases never multiply
        self._mul_terms = None
        self._mul_rows = None

    def to_poly(self, v: NormalCoords) -> int:
        """Normal coordinates -> polynomial-basis element."""
        return row_apply(self.conj, gf.validate(self.field, v))

    def to_normal(self, p: int) -> NormalCoords:
        """Polynomial-basis element -> normal coordinates."""
        gf.validate(self.field, p)
        return row_apply(self._to_normal, p)

    def one(self) -> NormalCoords:
        """Coordinates of the field identity (all-ones for a normal basis)."""
        return self.to_normal(1)

    @property
    def mul_rows(self):
        """Product tables T_k (k = 0..n-1), rows over i: bit j = t_{(j-i) mod n, (k-i) mod n}.

        These are the paper's z_k = u T_k v^t, n^3 bits built on first use.
        normal_mul does not read them; tables.normal_table_set does, and the
        tests use them as the reference for normal_mul."""
        if self._mul_rows is None:
            n = self.n
            tabs = []
            for k in range(n):
                rows = []
                for i in range(n):
                    r = 0
                    ki = (k - i) % n
                    for j in range(n):
                        if (self.table[(j - i) % n] >> ki) & 1:
                            r |= 1 << j
                    rows.append(r)
                tabs.append(rows)
            self._mul_rows = tabs
        return self._mul_rows

    def __repr__(self):
        return (f"NormalBasisCtx(n={self.n}, alpha={gf.elem_to_hex(self.field, self.alpha)}, "
                f"weight={self.weight})")


def build_normal_basis(ctx: gf.FieldCtx, alpha: int) -> NormalBasisCtx:
    """Construct the normal-basis context for a normal element alpha."""
    return NormalBasisCtx(ctx, alpha)


def frobenius_shift(n: int, v: NormalCoords) -> NormalCoords:
    """Squaring in normal coordinates: cyclic shift of v by one position."""
    return rotl(v, 1, n)


def alpha_mul(nb: NormalBasisCtx, v: NormalCoords) -> NormalCoords:
    """Multiply v by the basis generator: the table-vector product over T."""
    return row_apply(nb.table, gf.validate(nb.field, v))


def normal_mul(nb: NormalBasisCtx, u: NormalCoords, v: NormalCoords) -> NormalCoords:
    """Full product in normal coordinates from the base table alone.

    a^(2^i) a^(2^(i+d)) = rotl(T[d], i), so u v is the sum over d of
    w_d (*) T[d], where bit i of w_d = u & rotl(v, -d) is u_i v_(i+d) and (*)
    is the cyclic carry-less product mod x^n - 1. Since T[n-d] = rotl(T[d], -d),
    the terms d and n - d are one product by T[d] with
    w = (u & rotl(v, -d)) ^ (v & rotl(u, -d)). The non-cyclic products go
    into one 2n-bit accumulator, folded once at the end. Each product loops
    over the stored set-bit positions of T[d].
    """
    n = nb.n
    uu = gf.validate(nb.field, u) | u << n
    vv = gf.validate(nb.field, v) | v << n
    terms = nb._mul_terms
    if terms is None:
        terms = nb._mul_terms = [tuple(j for j in range(n) if r >> j & 1)
                                 for r in nb.table[:n // 2 + 1]]
    acc = 0
    for d, bits in enumerate(terms):
        w = u & (vv >> d)
        if 0 < d and 2 * d != n:
            w ^= v & (uu >> d)
        for j in bits:
            acc ^= w << j
    return (acc & nb.field.mask) ^ (acc >> n)


def product_planes(tt, m: int):
    """The n^2 products u_ij = a^(2^i) a^(2^j) = rotl(T[(j - i) mod n], i) in
    normal coordinates as n bit-planes in lanes of m >= n bits: bit i m + j
    of plane k is bit k of u_ij.  tt is T' = mat_transpose(nb.table, n),
    the transpose of T, which the callers read as well and form once.

    Lane i of plane b is rotl(T'[(b - i) mod n], i), so plane b + 1 is
    plane b moved up one lane (the top lane wrapping to lane 0) with each
    lane rotated by one: masked shifts of the whole int
    (Warren, Hacker's Delight, 2nd ed., section 7-3).  A linear map M on
    normal coordinates acts on every lane at once: plane k of M u is the xor
    of the planes b with bit b of row k of M set."""
    n = len(tt)
    everything = (1 << n * m) - 1
    feet = pack_lanes([1] * n, m)  # bit 0 of every lane
    rest = feet * ((1 << n) - 1) ^ feet  # bits 1 .. n - 1 of every lane
    plane = pack_lanes([rotl(tt[-i % n], i, n) for i in range(n)], m)
    planes = [plane]
    for _ in range(n - 1):
        plane = (plane << m & everything) | plane >> (n - 1) * m
        plane = (plane << 1 & rest) | (plane >> n - 1 & feet)
        planes.append(plane)
    return planes


def cross_product_sum(nb: NormalBasisCtx) -> int:
    """CS = sum over i, j of the weight of a * a^(2^i) * a^(2^j): the
    popcount of the planes of a u_ij, each one row_apply of product_planes
    by a row of T', since a v = sum_b v_b T[b]."""
    tt = mat_transpose(nb.table, nb.n)
    planes = product_planes(tt, nb.n)
    return sum(row_apply(planes, r).bit_count() for r in tt)


def normal_elements(ctx: gf.FieldCtx, require_primitive: bool = False):
    """Normal elements of F_{2^n} in ascending order (optionally only primitive
    ones), found block by block as the caller asks for the next: the chain
    of the per-block iterators of _normal_blocks, so making the scan does
    no work and no Python frame runs per element on the plain path.

    A block is the 2^min(n, 8) candidates a = base | lo sharing their high
    bits. The trace and the other normality maps M are linear, so
    Tr(a) = Tr(base) ^ Tr(lo) and M(a) = M(base) ^ M(lo): once per scan the
    low values are sorted by trace bit and each map's image table of them
    (its PreparedMap's first window) is inverted, and then a block costs one
    parity and one PreparedMap.apply per map. Its normal elements are the
    low values of the other trace bit, less those that some M sends to
    M(base). A map that sends x^0 ... x^(j-1) to 0 sends every candidate
    below x^j to 0, so the scan starts at the block holding the highest of
    the least monomials that the trace and each map do not kill.

    The primitive filter runs one test per Frobenius orbit. The n conjugates
    of a normal element are distinct and normal, and conjugates share their
    order, so the first member of an orbit the ascending scan reaches is its
    least: that one takes its orbit and verdict from field._primitive_orbit
    and leaves the verdict for the other n - 1, which each pop it when the
    scan reaches them. The pending verdicts are those of conjugates still
    ahead of the scan: at most n - 1 per orbit tested so far, and never more
    than the normal elements left above the scan."""
    return chain.from_iterable(_normal_blocks(ctx, require_primitive))


def _normal_blocks(ctx: gf.FieldCtx, require_primitive: bool):
    """One iterator per block of normal_elements, each block examined only
    when the next iterator is asked for."""
    trace, maps = ctx.normality_maps
    low = min(ctx.n, 8)
    # the trace bit of each low value: the table of the trace as 1-bit rows
    trace_bits = PreparedMap([trace >> i & 1 for i in range(low)]).windows[0]
    by_trace = ([], [])
    for lo, bit in enumerate(trace_bits):
        by_trace[bit].append(lo)
    prepared = [PreparedMap(m) for m in maps]
    fibres = []  # per map: image -> the low values it sends there
    for pm in prepared:
        fibre = {}
        for lo, image in enumerate(pm.windows[0]):
            fibre.setdefault(image, []).append(lo)
        fibres.append(fibre)
    pending = {}  # conjugate ahead of the scan -> its orbit's verdict

    def primitive(a):
        verdict = pending.pop(a, None)
        if verdict is None:
            conj, verdict = gf._primitive_orbit(ctx, a)
            pending.update(dict.fromkeys(conj[1:], verdict))
        return verdict

    first = max([(trace & -trace).bit_length() - 1]
                + [next(j for j, row in enumerate(m) if row) for m in maps])
    start = (1 << first) >> low << low
    for base in range(start, 1 << ctx.n, 1 << low):
        lows = by_trace[parity(base & trace) ^ 1]
        bad = set()
        for pm, fibre in zip(prepared, fibres):
            bad.update(fibre.get(pm.apply(base), ()))
        if bad:
            lows = [lo for lo in lows if lo not in bad]
        block = map(base.__or__, lows)
        yield filter(primitive, block) if require_primitive else block


def search_normal_elements(ctx: gf.FieldCtx, require_primitive: bool = False,
                           limit: int = None):
    """The first `limit` of normal_elements(ctx, require_primitive); `limit`
    None takes them all, and a `limit` below 1 is a DomainError."""
    if limit is not None and limit < 1:
        raise DomainError(f"limit must be at least 1, got {limit}")
    return list(islice(normal_elements(ctx, require_primitive), limit))
