"""Multiplication tables of extended bases, oracle embeddings, and closed-form counts.

The ground truth for every table is an independent embedding into one big field
F_2[x]/(g) of degree m: basis vectors are mapped to explicit elements there, all
m^2 pairwise products are expanded back over the basis, and the resulting tables
can be compared against the closed-form per-table counts.
"""

from dataclasses import dataclass
from functools import partial

from . import bitpoly
from . import field as gf
from .errors import ConstructionContradictionError, DomainError, InvalidElementError
from .extbasis import RULES, ExtBasisCtx, ExtElem, _monomials, _pack, _unpack
from .linalg import PreparedMap, mat_invert, mat_transpose, parity, row_apply
from .normal import NormalBasisCtx, basis_products


# --- polynomial helpers with coefficients in a big field ----------------
#
# Products by 0 and 1 are skipped throughout: the base modulus and the
# Frobenius powers X^(2^i) mod it have coefficients in F_2, so splitting it
# needs field products only where coefficients leave F_2.

def _fp_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _mul(big, u, v):
    """u*v in `big`, with no field product when either factor is 0 or 1."""
    return u * v if u < 2 or v < 2 else gf.poly_mul_mod(big, u, v)


def _sq(big, c):
    """c^2 in `big`, with no field product when c is 0 or 1."""
    return c if c < 2 else gf.square(big, c)


def _fp_monic(big, p):
    p = _fp_trim(list(p))
    if not p or p[-1] == 1:
        return p
    inv = gf.inverse(big, p[-1])
    return [_mul(big, inv, c) for c in p]


def _fp_divmod(big, a, b):
    """Quotient and remainder of a by a nonzero b."""
    a = _fp_trim(list(a))
    b = _fp_trim(list(b))
    db = len(b) - 1
    binv = 1 if b[-1] == 1 else gf.inverse(big, b[-1])
    q = [0] * max(len(a) - db, 0)
    while len(a) > db:
        shift = len(a) - 1 - db
        factor = _mul(big, a.pop(), binv)  # cancels the leading term
        q[shift] = factor
        for i in range(db):
            if b[i]:
                a[shift + i] ^= _mul(big, factor, b[i])
        _fp_trim(a)
    return q, a


def _fp_mod(big, a, b):
    return _fp_divmod(big, a, b)[1]


def _fp_mulmod(big, a, b, mod):
    """a*b mod `mod` by the schoolbook product (the reference for _fp_sqmod)."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, u in enumerate(a):
        if not u:
            continue
        for j, v in enumerate(b):
            if v:
                out[i + j] ^= gf.poly_mul_mod(big, u, v)
    return _fp_mod(big, out, mod)


def _fp_sqmod(big, t, mod):
    """t^2 mod `mod`: in characteristic 2, (sum c_i X^i)^2 = sum c_i^2 X^(2i)."""
    out = [0] * (2 * len(t) - 1) if t else []
    for i, c in enumerate(t):
        out[2 * i] = _sq(big, c)
    return _fp_mod(big, out, mod)


def _fp_gcd(big, a, b):
    a, b = list(a), list(b)
    while _fp_trim(b):
        a, b = b, _fp_mod(big, a, b)
    return _fp_monic(big, a)


def _frobenius_powers(big, h):
    """X^(2^i) mod h for i < big.n."""
    t = _fp_mod(big, [0, 1], h)
    powers = [t]
    for _ in range(big.n - 1):
        t = _fp_sqmod(big, t, h)
        powers.append(t)
    return powers


def _trace_split(big, h, powers):
    """A proper monic factor of a monic h of degree >= 2 that is squarefree and
    splits in `big`: gcd(h, T_c) for the first c = x^j that separates two roots.

    T_c(X) = sum_{i<m} (cX)^(2^i) maps each root r to the trace of cr, so the
    gcd collects the roots where that trace is 0; the x^j jointly separate any
    two roots.  T_c is built from powers[i] = X^(2^i) modulo h or any multiple
    of it.  c = 1 comes last: it cannot split a factor of an irreducible
    polynomial over F_2, whose roots are conjugate and so share one trace."""
    width = max(map(len, powers))
    for j in (*range(1, big.n), 0):
        c = 1 << j
        acc = [0] * width
        for p in powers:
            for k, v in enumerate(p):
                if v:
                    acc[k] ^= _mul(big, c, v)
            c = _sq(big, c)
        g = _fp_gcd(big, h, _fp_mod(big, acc, h))
        if 1 < len(g) < len(h):
            return g
    raise ConstructionContradictionError("root splitting did not converge")


def find_root(big: gf.FieldCtx, coeffs) -> int:
    """A root in `big` of the polynomial with coefficients `coeffs` (low to
    high), which must be squarefree and split in `big`; DomainError otherwise.

    Splits it down to a linear factor, keeping the smaller factor each time.
    Which root comes out does not matter to the oracle: the automorphisms of
    `big` carry any choice of roots to any other."""
    h = _fp_monic(big, coeffs)
    if len(h) < 2:
        raise DomainError("a constant polynomial has no root")
    powers = _frobenius_powers(big, h)
    if _fp_sqmod(big, powers[-1], h) != powers[0]:  # X^(2^m) != X mod h
        raise DomainError(
            f"the polynomial is not squarefree or does not split in F_2^{big.n}")
    while len(h) > 2:
        g = _trace_split(big, h, powers)
        if 2 * len(g) > len(h) + 1:  # deg g > deg h / 2: keep the cofactor
            g = _fp_divmod(big, h, g)[0]
        h = g
    return h[0]  # monic X + c: the root is c (char 2)


# --- oracle embedding ---------------------------------------------------

class OracleEmbedding:
    """Deterministic embedding of a (possibly extended) basis into one big field."""

    def __init__(self, source):
        if isinstance(source, ExtBasisCtx):
            nb, self.rules = source.base, RULES[source.kind]
        elif isinstance(source, NormalBasisCtx):  # the kind with no generators
            nb, self.rules = source, ()
        else:
            raise DomainError("source must be a normal or extended basis context")
        monomials = _monomials(self.rules)
        self.base = nb
        self.d = len(monomials)
        self.m = nb.n * self.d
        self.big = gf.FieldCtx(bitpoly.min_irreducible(self.m), check_irreducible=False)
        big = self.big

        # image of the base field: a root of its modulus in the big field
        f = nb.field.modulus
        root = find_root(big, [(f >> i) & 1 for i in range(nb.n + 1)])
        self.alpha_img = self._eval_base(nb.alpha, root)
        self.gen_images = self._solve_generators()
        conj = [self.alpha_img]
        for _ in range(nb.n - 1):
            conj.append(gf.square(big, conj[-1]))
        images = []
        for mono in monomials:
            img = 1
            for y, e in zip(self.gen_images.values(), mono):
                for _ in range(e):
                    img = gf.poly_mul_mod(big, img, y)
            images += [gf.poly_mul_mod(big, c, img) for c in conj]
        self.basis_images = images
        inv = mat_invert(images, self.m)
        if inv is None:
            raise ConstructionContradictionError("basis images are linearly dependent")
        self.coord_map = PreparedMap(inv)  # big-field element -> flat coordinates

    def _eval_base(self, elem: int, root: int) -> int:
        """Image of a base-field element (poly coords) under x -> root."""
        big = self.big
        out = 0
        power = 1
        for i in range(self.base.n):
            if (elem >> i) & 1:
                out ^= power
            power = gf.poly_mul_mod(big, power, root)
        return out

    def _solve_generators(self):
        """A root in the big field of each rule, in adjunction order."""
        big = self.big
        mul = partial(gf.poly_mul_mod, big)
        images = {}
        for gen, degree, rhs in self.rules:
            c = rhs(mul, self.alpha_img, *images.values())
            if degree == 2:
                roots = gf.solve_artin_schreier(big, c)
            else:
                try:
                    roots = [find_root(big, [c, 0, 0, 1])]
                except DomainError:  # y^3 = c does not split in the big field
                    roots = []
            if not roots:
                raise ConstructionContradictionError(
                    f"the defining rule of {gen} has no root in the big field")
            images[gen] = roots[0]
        return images

    # conversions ------------------------------------------------------
    def embed_blocks(self, blocks) -> int:
        """Blocks of normal coordinates -> big-field element; InvalidElementError
        unless there are d blocks, each of n bits."""
        if len(blocks) != self.d:
            raise InvalidElementError(f"expected {self.d} blocks, got {len(blocks)}")
        for b in blocks:
            gf.validate(self.base.field, b)
        return row_apply(self.basis_images, _pack(blocks, self.base.n))

    def embed_ext(self, x: ExtElem) -> int:
        return self.embed_blocks(x.blocks)

    def to_blocks(self, y: int):
        """Big-field element -> blocks of coordinates over the basis;
        InvalidElementError when y is not an element of the big field."""
        flat = self.coord_map.apply(gf.validate(self.big, y))
        return _unpack(flat, self.base.n, self.d)

    def check_rules(self) -> bool:
        """Plug each generator image back into its rule with big-field products."""
        mul = partial(gf.poly_mul_mod, self.big)
        earlier = []
        for gen, degree, rhs in self.rules:
            y = self.gen_images[gen]
            lhs = mul(y, y) ^ y if degree == 2 else mul(mul(y, y), y)
            if lhs != rhs(mul, self.alpha_img, *earlier):
                return False
            earlier.append(y)
        return True


def build_embedding(source) -> OracleEmbedding:
    """Construct the deterministic oracle embedding for a basis context."""
    emb = OracleEmbedding(source)
    if not emb.check_rules():
        raise ConstructionContradictionError("generator images violate their rules")
    return emb


# --- multiplication tables ----------------------------------------------

@dataclass
class TableSet:
    """All m multiplication tables of an m-element basis (rows as bit ints)."""
    m: int
    tables: list          # tables[k][i] = row int over j
    per_table_nonzeros: list
    density: int


def build_tables(emb: OracleEmbedding) -> TableSet:
    """Brute-force tables: expand every basis product over the basis.  The
    big field commutes, so each product with j >= i fills entries (i, j) and
    (j, i).

    Row i takes one carry-less product of imgs[i] by imgs[i..m-1] packed in
    lanes 2m bits apart: each lane's product has at most 2m - 1 bits, so no
    lane spills into the next, and lane j - i is imgs[i] imgs[j] unreduced."""
    m = emb.m
    big = emb.big
    imgs = emb.basis_images
    to_coords = emb.coord_map.apply
    lane = 2 * m
    lane_mask = (1 << lane) - 1
    tables = [[0] * m for _ in range(m)]
    packed = 0
    for i in reversed(range(m)):
        packed = packed << lane | imgs[i]  # imgs[j] in lane j - i
        prods = bitpoly.poly_mul(imgs[i], packed)
        bit_i = 1 << i
        for j in range(i, m):
            coords = to_coords(gf.reduce_product(big, prods & lane_mask))
            prods >>= lane
            bit_j = 1 << j
            while coords:
                rows = tables[(coords & -coords).bit_length() - 1]
                rows[i] |= bit_j
                rows[j] |= bit_i
                coords &= coords - 1
    nz = [sum(r.bit_count() for r in t) for t in tables]
    return TableSet(m, tables, nz, sum(nz))


def table_mul(ts: TableSet, x: int, y: int) -> int:
    """Product of coordinate vectors via z_k = x T_k y^t."""
    z = 0
    for k, rows in enumerate(ts.tables):
        if parity(row_apply(rows, x) & y):
            z |= 1 << k
    return z


def normal_table_set(nb: NormalBasisCtx) -> TableSet:
    """The n tables of the base normal basis itself (t^k_{i,j} = t_{j-i,k-i})."""
    rows = nb.mul_rows
    nz = [sum(r.bit_count() for r in t) for t in rows]
    return TableSet(nb.n, [list(t) for t in rows], nz, sum(nz))


# --- closed-form per-table counts ----------------------------------------
#
# Every count is a column count over the n^2 products u = a^(2^i) a^(2^j) of
# the base basis (normal.basis_products): S(v)[l] is the number of u whose
# vector v(u) has bit l set, and v is a sum of u, a*u, a^2*u and a^3*u.

def _column_counts(vectors, n):
    return [c.bit_count() for c in mat_transpose(vectors, n)]


CLOSED_FORM_KINDS = ("as2", "k3", "asw4")  # the kinds expected_counts covers


def expected_counts(nb: NormalBasisCtx, kind: str):
    """Per-table nonzero counts of the as2 (2n tables), k3 (3n) or asw4 (4n)
    extended basis over nb."""
    if kind not in CLOSED_FORM_KINDS:
        raise DomainError(f"no closed-form counts for kind {kind!r}")
    n, w, T = nb.n, nb.weight, nb.table
    u0 = basis_products(nb)
    u1 = [row_apply(T, u) for u in u0]
    s1 = _column_counts(u1, n)
    if kind == "as2":
        return [w + a for a in s1] + [3 * w] * n
    if kind == "k3":
        return [w + 2 * a for a in s1] + [2 * w + a for a in s1] + [3 * w] * n
    u2 = [row_apply(T, u) for u in u1]
    u3 = [row_apply(T, u) for u in u2]
    u12 = [a ^ b for a, b in zip(u1, u2)]
    s2 = _column_counts(u2, n)
    s12 = _column_counts(u12, n)
    s123 = _column_counts([a ^ b for a, b in zip(u12, u3)], n)
    s01 = _column_counts([a ^ b for a, b in zip(u0, u1)], n)
    s012 = _column_counts([a ^ b for a, b in zip(u0, u12)], n)
    return ([w + a + b + 2 * c + d for a, b, c, d in zip(s1, s2, s12, s123)]
            + [4 * w + p + 2 * q for p, q in zip(s01, s012)]
            + [3 * w + 3 * a for a in s1]
            + [9 * w] * n)


def expected_density(nb: NormalBasisCtx, kind: str) -> int:
    """Closed-form density: 4d(N)+CS for as2, 6d(N)+3CS for k3, and the
    quartic tower's sum of counts."""
    return sum(expected_counts(nb, kind))


# --- verification -------------------------------------------------------

def verify_table_entries(emb: OracleEmbedding, ts: TableSet):
    """Rebuild the tables from `emb`; return (k, i, j) witnesses of the
    entries of `ts` that differ, in (i, j, k) order.

    The rebuild runs the same build_tables on the same embedding, so an
    empty result proves only that `ts` is the table set build_tables makes
    from `emb`: it catches a table set built from another embedding or
    altered afterwards, not a fault of build_tables or of the embedding.
    Closed-form tables derived from RULES would be an independent reference."""
    bad = []
    for k, (rows, fresh) in enumerate(zip(ts.tables, build_tables(emb).tables)):
        for i, (row, ref) in enumerate(zip(rows, fresh)):
            diff = row ^ ref
            while diff:
                low = diff & -diff
                bad.append((k, i, low.bit_length() - 1))
                diff ^= low
    return sorted(bad, key=lambda kij: (kij[1], kij[2], kij[0]))
