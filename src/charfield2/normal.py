"""Normal bases of F_{2^n} over F_2: construction, tables, weights, cross sums.

A normal basis is (a, a^2, a^4, ..., a^(2^(n-1))) for a normal element a.
Coordinates relative to it are packed into ints (bit i = coefficient of a^(2^i)).
The structure table T = (t_{i,j}) is defined by a * a^(2^i) = sum_j t_{i,j} a^(2^j);
row i of T is stored as an int with bit j = t_{i,j}.

normal_mul reads T alone: a product costs n ANDs plus at most w(N) shifted
XORs, so the density d(N) = n * w(N) is its cost. The paper's n product
tables z_k = u T_k v^t (mul_rows, n^3 bits) are built only on request.
"""

from concurrent.futures import ProcessPoolExecutor

from . import field as gf
from .errors import DomainError, NotNormalError
from .linalg import mat_invert, parity, row_apply

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
    out = []
    cur = gf.validate(ctx, a)
    for _ in range(ctx.n):
        out.append(cur)
        cur = gf.poly_mul_mod(ctx, cur, cur)
    return out


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
        table = []
        for i in range(ctx.n):
            prod = gf.poly_mul_mod(ctx, alpha, self.conj[i])
            table.append(row_apply(self._to_normal, prod))
        self.table = table
        self.weight = sum(r.bit_count() for r in table)
        self.density = ctx.n * self.weight
        # set-bit positions of T[d] for d = 0..n//2: the terms of normal_mul
        self._mul_terms = [tuple(j for j in range(ctx.n) if r >> j & 1)
                           for r in table[:ctx.n // 2 + 1]]
        self._mul_rows = None

    def to_poly(self, v: NormalCoords) -> int:
        """Normal coordinates -> polynomial-basis element."""
        self._check(v)
        return row_apply(self.conj, v)

    def to_normal(self, p: int) -> NormalCoords:
        """Polynomial-basis element -> normal coordinates."""
        gf.validate(self.field, p)
        return row_apply(self._to_normal, p)

    def _check(self, v: int) -> int:
        if not isinstance(v, int) or v < 0 or v > self.field.mask:
            raise DomainError(f"coordinate vector {v!r} out of range for n={self.n}")
        return v

    def one(self) -> NormalCoords:
        """Coordinates of the field identity (all-ones for a normal basis)."""
        return self.to_normal(1)

    def alpha_coords(self) -> NormalCoords:
        """Coordinates of the basis generator itself (unit bit 0)."""
        return 1

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


def frobenius_shift(n: int, v: NormalCoords, k: int = 1) -> NormalCoords:
    """Squaring in normal coordinates: cyclic shift of v by k positions."""
    return rotl(v, k, n)


def alpha_mul(nb: NormalBasisCtx, v: NormalCoords) -> NormalCoords:
    """Multiply v by the basis generator: the table-vector product over T."""
    nb._check(v)
    return row_apply(nb.table, v)


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
    uu = nb._check(u) | u << n
    vv = nb._check(v) | v << n
    acc = 0
    for d, bits in enumerate(nb._mul_terms):
        w = u & (vv >> d)
        if 0 < d and 2 * d != n:
            w ^= v & (uu >> d)
        for j in bits:
            acc ^= w << j
    return (acc & nb.field.mask) ^ (acc >> n)


def basis_products(nb: NormalBasisCtx):
    """The n^2 products a^(2^i) * a^(2^j) in normal coordinates, as
    rotl(T[d], i) = (a * a^(2^d))^(2^i) for j = i + d, d-major."""
    n = nb.n
    return [rotl(row, i, n) for row in nb.table for i in range(n)]


def cross_product_sum(nb: NormalBasisCtx) -> int:
    """CS = sum over i, j of the weight of a * a^(2^i) * a^(2^j)."""
    return sum(row_apply(nb.table, u).bit_count() for u in basis_products(nb))


def _scan(ctx: gf.FieldCtx, require_primitive: bool, start: int, stop: int,
          limit: int = None):
    """Normal elements among candidates start..stop-1, ascending, at most `limit`.

    Normal elements have trace 1, and every candidate below the least
    monomial of trace 1 has trace 0, so the scan starts there.
    """
    trace = ctx.normality_maps[0]
    found = []
    for a in range(max(start, trace & -trace), stop):
        if is_normal_element(ctx, a):
            if require_primitive and not gf.is_primitive(ctx, a):
                continue
            found.append(a)
            if limit is not None and len(found) >= limit:
                break
    return found


def search_normal_elements(ctx: gf.FieldCtx, require_primitive: bool = False,
                           limit: int = None, workers: int = 1):
    """Normal elements of F_{2^n} in ascending candidate order (optionally primitive).

    Scans candidates 1..2^n-1; stops after `limit` hits (scans all when None).
    With workers > 1 the range is partitioned and results merged in candidate order.
    """
    top = 1 << ctx.n
    if not (workers and workers > 1 and top > 4096):
        return _scan(ctx, require_primitive, 1, top, limit)
    chunk = (top + workers - 1) // workers
    out = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_scan, ctx, require_primitive, s, min(s + chunk, top), limit)
                   for s in range(1, top, chunk)]
        for fut in futures:  # submission order == candidate order
            out.extend(fut.result())
            if limit is not None and len(out) >= limit:
                break
    return out[:limit] if limit is not None else out
