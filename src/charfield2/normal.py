"""Normal bases of F_{2^n} over F_2: construction, tables, weights, cross sums.

A normal basis is (a, a^2, a^4, ..., a^(2^(n-1))) for a normal element a.
Coordinates relative to it are packed into ints (bit i = coefficient of a^(2^i)).
The structure table T = (t_{i,j}) is defined by a * a^(2^i) = sum_j t_{i,j} a^(2^j);
row i of T is stored as an int with bit j = t_{i,j}.

Building a basis takes the conjugates by one walk of the field's prepared
squaring map, the map to normal coordinates by one elimination
(linalg.mat_invert), and rows 0 .. n//2 of T by one carry-less product of a
by those conjugates in 2n-bit lanes, reduced in every lane at once; the
other rows are their rotations T[n - d] = rotl(T[d], -d).

Above n = LOG_TABLE_MAX_N = 8, normal_mul reads T alone: a product costs
n ANDs plus at most w(N) shifted XORs, so the density d(N) = n * w(N), the
paper's hardware (Massey-Omura) cost, also predicts its time. At n <= 8 the
field has at most 256 elements, and a product is two lookups in tables of
indices (discrete logarithms) to a generator, built from T on the basis's
first product (Lidl and Niederreiter, Finite Fields, on tables of indices);
there w(N) does not predict normal_mul's time. The paper's n product tables
z_k = u T_k v^t (mul_rows, n^3 bits) are built only on request.

alpha_mul, the table-vector product v T, applies T as a PreparedMap built on
the basis's first product by a: one lookup per 8 bits of v (the method of
Four Russians: Arlazarov, Dinic, Kronrod and Faradzev, 1970), where
row_apply takes one step per set bit. Both kernels check their operands by
exact type and one shift, and call field.validate only to raise its error,
so the check costs no call on valid input.

The n^2 basis products u_ij = a^(2^i) a^(2^j) are rotated rows of T, and
squaring sends u_ij to u_(i+1)(j+1), so every product is reached from one
packed int by one lane step (_lane_steps: a lane move and a rotation of
every lane, by shifts and masks). product_planes holds them as n
bit-planes, one int per normal coordinate, through which a linear map acts
on all n^2 products at once; tables' closed form starts from them. The
cross-product sum needs no planes and no transpose: from T's rows packed as
lanes, the lane step gives u_kj in lane j of the k-th int, and a u_ij is
the xor of these ints at the set bits of T[i].
"""

from itertools import chain, islice

from . import bitpoly, field as gf
from .errors import DomainError, NotNormalError
from .linalg import PreparedMap, mat_invert, pack_lanes, parity, row_apply, unpack_lanes

# Coordinates w.r.t. a normal basis: n-bit int, bit i = coefficient of a^(2^i).
NormalCoords = int

# The largest n at which normal_mul multiplies by logarithm tables: they
# hold about 3 * 2^n entries and take about 2^n map steps to build, so they
# pay only while the field is small.
LOG_TABLE_MAX_N = 8


def rotl(x: int, s: int, n: int) -> int:
    """Cyclic left rotation in index space: bit r of result = bit (r-s) mod n of x."""
    s %= n
    if s == 0:
        return x
    mask = (1 << n) - 1
    return ((x << s) | (x >> (n - s))) & mask


def conjugates(ctx: gf.FieldCtx, a: int):
    """[a, a^2, a^4, ...] -- the Frobenius orbit, length n: the cycle of a
    under ctx.squaring_map, n/8 lookups a step, repeated n/d times when a
    lies in the subfield of 2^d elements."""
    orbit = ctx.squaring_map.cycle(gf.validate(ctx, a))
    return orbit * (ctx.n // len(orbit))


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
        # rows 0 .. n//2 by one packed product; a a^(2^(n-d)) = (a a^(2^d))^(2^(n-d))
        # gives the rest as T[n - d] = rotl(T[d], -d), as normal_mul reads them
        n = ctx.n
        half, lane = n // 2 + 1, 2 * n
        prods = bitpoly.poly_mul(alpha, pack_lanes(self.conj[:half], lane))
        prods = gf.reduce_lanes(ctx, prods, pack_lanes([1] * half, lane))
        table = [row_apply(self._to_normal, c) for c in unpack_lanes(prods, lane, half)]
        table += [rotl(table[n - e], e, n) for e in range(half, n)]
        self.table = table
        self.weight = sum(r.bit_count() for r in table)
        self.density = ctx.n * self.weight
        # the kernels' data, made by their first calls, as most bases never
        # multiply: for normal_mul the set-bit positions of T[d] for
        # d = 0..n//2 above LOG_TABLE_MAX_N, the (log, exp) tables of
        # _log_tables at or below; for alpha_mul the windows of PreparedMap(T)
        self._mul_terms = None
        self._log_exp = None
        self._alpha_windows = None
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
    """Multiply v by the basis generator: the table-vector product v T, by
    the byte windows of PreparedMap(nb.table), built on the first call and
    kept on the basis. It takes n/8 lookups, rounded up, where row_apply
    takes one step per set bit of v. InvalidElementError unless v is an int
    in [0, 2^n)."""
    windows = nb._alpha_windows
    if windows is None:
        windows = nb._alpha_windows = PreparedMap(nb.table).windows
    if v.__class__ is not int or v >> nb.n:  # also every negative v
        gf.validate(nb.field, v)  # raises, or passes a bool or an int subclass
    out = 0
    for table in windows:
        out ^= table[v & 0xFF]
        v >>= 8
    return out


def normal_mul(nb: NormalBasisCtx, u: NormalCoords, v: NormalCoords) -> NormalCoords:
    """Full product in normal coordinates from the base table alone;
    InvalidElementError unless u and v are ints in [0, 2^n).

    The operands are checked first, as a negative index would wrap
    silently: an exact int type and one shift of u | v, with field.validate
    called only when that test fails, to raise its error (or to pass a bool
    or an int subclass), so valid operands cost no call.

    At n <= LOG_TABLE_MAX_N it is exp[log[u] + log[v]] (0 when u or v is 0)
    over the tables of _log_tables.

    Above it, a^(2^i) a^(2^(i+d)) = rotl(T[d], i), so u v is the sum over d of
    w_d (*) T[d], where bit i of w_d = u & rotl(v, -d) is u_i v_(i+d) and (*)
    is the cyclic carry-less product mod x^n - 1. Since T[n-d] = rotl(T[d], -d),
    the terms d and n - d are one product by T[d] with
    w = (u & rotl(v, -d)) ^ (v & rotl(u, -d)). The non-cyclic products go
    into one 2n-bit accumulator, folded once at the end. Each product loops
    over the stored set-bit positions of T[d], so it costs n ANDs and at most
    w(N) shifted XORs.
    """
    n = nb.n
    if u.__class__ is not int or v.__class__ is not int or (u | v) >> n:
        gf.validate(nb.field, u)
        gf.validate(nb.field, v)
    if n <= LOG_TABLE_MAX_N:
        tables = nb._log_exp
        if tables is None:
            tables = nb._log_exp = _log_tables(nb)
        log, exp = tables
        return exp[log[u] + log[v]] if u and v else 0
    uu = u | u << n
    vv = v | v << n
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


def _log_tables(nb: NormalBasisCtx):
    """(log, exp) for the least g in normal coordinates whose powers run
    through all 2^n - 1 nonzero elements: exp[k] = g^k for k < 2 (2^n - 1),
    doubled so that a sum of two logs needs no reduction, and log[x] the k
    < 2^n - 1 with g^k = x (log[0] is unused).

    Multiplication by a candidate g is a PreparedMap whose row i is
    a^(2^i) g = (a g^(2^(n-i)))^(2^i): a rotation, one product by a over T
    and a rotation back. Its cycle through the identity (the all-ones
    vector, as Tr(a) = 1) lists the powers of g, as many as g's order; the
    first g of order 2^n - 1 gives the tables. field.FieldCtx.primitive_flags
    walks the powers of its generator by the same PreparedMap.cycle."""
    n = nb.n
    order = (1 << n) - 1
    one = nb.field.mask
    for g in range(1, order + 1):
        times_g = PreparedMap([rotl(row_apply(nb.table, rotl(g, -i, n)), i, n)
                               for i in range(n)])
        exp = times_g.cycle(one)
        if len(exp) == order:
            break
    log = [0] * (order + 1)
    for k, x in enumerate(exp):
        log[x] = k
    return log, exp + exp


def _lane_steps(r: int, n: int, m: int):
    """[R_0, ..., R_(n-1)] for R_0 = r, n lanes of m >= n bits each
    holding n bits: R_(k+1) is R_k moved up one lane (the top lane wrapping
    to lane 0) with each lane rotated by one, by masked shifts of the whole
    int (Warren, Hacker's Delight, 2nd ed., section 7-3).  Squaring sends
    u_ij = a^(2^i) a^(2^j) to u_(i+1)(j+1) = rotl(u_ij, 1), so a lane
    holding u_ij in R_k holds u_(i+1)(j+1) in R_(k+1)."""
    everything = (1 << n * m) - 1
    feet = pack_lanes([1] * n, m)  # bit 0 of every lane
    rest = feet * ((1 << n) - 1) ^ feet  # bits 1 .. n - 1 of every lane
    steps = [r]
    for _ in range(n - 1):
        r = (r << m & everything) | r >> (n - 1) * m
        r = (r << 1 & rest) | (r >> n - 1 & feet)
        steps.append(r)
    return steps


def product_planes(tt, m: int):
    """The n^2 products u_ij = a^(2^i) a^(2^j) = rotl(T[(j - i) mod n], i) in
    normal coordinates as n bit-planes in lanes of m >= n bits: bit i m + j
    of plane k is bit k of u_ij.  tt is T' = mat_transpose(nb.table, n),
    the transpose of T, which the caller (tables' closed form) reads as
    well and forms once.

    Lane i of plane b is rotl(T'[(b - i) mod n], i), so plane b + 1 is
    plane b moved up one lane with each lane rotated by one: the lane step
    of _lane_steps.  A linear map M on normal coordinates acts on every
    lane at once: plane k of M u is the xor of the planes b with bit b of
    row k of M set."""
    n = len(tt)
    return _lane_steps(pack_lanes([rotl(tt[-i % n], i, n) for i in range(n)], m), n, m)


def cross_product_sum(nb: NormalBasisCtx) -> int:
    """CS = sum over i, j of the weight of a u_ij, u_ij = a^(2^i) a^(2^j),
    from T's rows as lanes, with no transpose: R_0 = pack_lanes(T, n)
    holds u_0j = T[j] in lane j, and the lane step of _lane_steps gives
    R_k, whose lane j is u_kj.  Since a a^(2^i) = sum_k T[i]_k a^(2^k),
    a u_ij = sum_k T[i]_k u_kj, so lane j of row_apply(R, T[i]) is a u_ij,
    and CS is the total popcount of these n vectors of lanes."""
    n, table = nb.n, nb.table
    lanes = _lane_steps(pack_lanes(table, n), n, n)
    return sum(row_apply(lanes, r).bit_count() for r in table)


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
    M(base). A block they fill, as when the trace kills every low value
    and no map removes any, is the range of its candidates, with no call
    per element; the other blocks are map(base.__or__, lows). Every
    non-empty block is full when n is a power of two (there are no maps)
    and the trace kills x^0 ... x^7, as under the eight least pentanomials
    of degree 16, whose least trace monomial is x^9, x^11 or x^15. A map
    that sends x^0 ... x^(j-1) to 0 sends every candidate below x^j to 0,
    so the scan starts at the block holding the highest of the least
    monomials that the trace and each map do not kill.

    At n <= field.PRIMITIVE_FLAGS_MAX_N the primitive filter reads
    ctx.primitive_flags, one byte per element, built by the scan's first
    block when the field has not built it yet, and each block is filtered
    by a lookup with no Python frame per element. Above that it runs one
    test per Frobenius orbit. The n conjugates of a normal element are
    distinct and normal, and conjugates share their order, so the first
    member of an orbit the ascending scan reaches is its least: that one
    takes its orbit and verdict from field._primitive_orbit and leaves the
    verdict for the other n - 1, which each pop it when the scan reaches
    them. The pending verdicts are those of conjugates still ahead of the
    scan: at most n - 1 per orbit tested so far, and never more than the
    normal elements left above the scan."""
    return chain.from_iterable(_normal_blocks(ctx, require_primitive))


def _normal_blocks(ctx: gf.FieldCtx, require_primitive: bool):
    """One iterator per block of normal_elements, each block examined only
    when the next iterator is asked for: a range when the block is full,
    else a map over its low values. With require_primitive each block
    is filtered by ctx.primitive_flags where the field has them, else by
    the orbit test."""
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

    flags = ctx.primitive_flags if require_primitive else None
    keep = primitive if flags is None else flags.__getitem__
    first = max([(trace & -trace).bit_length() - 1]
                + [next(j for j, row in enumerate(m) if row) for m in maps])
    size = 1 << low
    start = (1 << first) >> low << low
    for base in range(start, 1 << ctx.n, size):
        lows = by_trace[parity(base & trace) ^ 1]
        bad = set()
        for pm, fibre in zip(prepared, fibres):
            bad.update(fibre.get(pm.apply(base), ()))
        if bad:
            lows = [lo for lo in lows if lo not in bad]
        if len(lows) == size:
            block = range(base, base + size)
        else:
            block = map(base.__or__, lows)
        yield filter(keep, block) if require_primitive else block


def search_normal_elements(ctx: gf.FieldCtx, require_primitive: bool = False,
                           limit: int = None):
    """The first `limit` of normal_elements(ctx, require_primitive); `limit`
    None takes them all, and a `limit` that is not an int of at least 1 is a
    DomainError."""
    if limit is not None and (not isinstance(limit, int) or limit < 1):
        raise DomainError(f"limit must be an integer of at least 1, got {limit!r}")
    return list(islice(normal_elements(ctx, require_primitive), limit))
