"""Multiplication tables of extended bases, by the oracle and by the closed form.

The oracle embeds a basis into one big field F_2[x]/(g) of degree m: it maps
the basis vectors to explicit elements there by solving RULES, and
build_tables expands all m^2 pairwise products back over the basis.  The
base modulus f is rooted in the subfield of degree n, built as F_2[z]/(p)
from a generator beta and mapped in by the powers of beta; find_root splits
by trace maps, trying each c = x^j once per call.  The
closed form derives the same tables from the kind's structure constants and
the base normal basis's table T alone: _structure_columns holds the n^2
products c(T) u_ij of the base basis as bit-planes, (i, j) at bit i m + j,
which closed_form_tables shifts into place and expected_counts counts.
verify_table_entries compares the two, which start from disjoint data.
"""

from dataclasses import dataclass, field
from functools import partial, reduce
from operator import xor

from . import bitpoly
from . import field as gf
from .errors import ConstructionContradictionError, DomainError, InvalidElementError
from .extbasis import (RULES, ExtBasisCtx, ExtElem, _monomials, build_kind,
                       structure_constants)
from .linalg import (PreparedMap, mat_invert, mat_transpose, null_space, pack_lanes,
                     row_apply, transpose_packed, unpack_lanes)
from .normal import NormalBasisCtx, rotl


# --- polynomials over a big field, lane-packed --------------------------
#
# A polynomial over F_2^m is one int: coefficient k sits in lane k, of 2m
# bits, as in build_tables.  A product c*p by a field element c is one
# carry-less product, each lane unreduced, and one field.reduce_lanes
# reduces every lane.  When p's coefficients are all 0 or 1, as for the base
# modulus, its Frobenius powers X^(2^i) mod it and every division by it,
# c*p is the plain integer product: one set bit per lane, lanes 2m bits
# apart, so nothing carries.  `ones` has a set bit at the foot of every
# lane in use.

def _deg(big, p):
    """Degree of packed p; -1 for 0."""
    return (p.bit_length() - 1) // (2 * big.n)


def _clmul(c, p, ones):
    """c times each coefficient of packed p, unreduced."""
    return c * p if not p & ~ones else bitpoly.poly_mul(c, p)


def _scale(big, c, p, ones):
    """c times each coefficient of packed p, reduced."""
    return c * p if not p & ~ones else gf.reduce_lanes(big, bitpoly.poly_mul(c, p), ones)


def _fp_monic(big, p, ones):
    lead = p and p >> _deg(big, p) * 2 * big.n
    return p if lead < 2 else _scale(big, gf.inverse(big, lead), p, ones)


def _fp_divmod(big, a, b, ones):
    """Quotient and remainder of a by a nonzero b: each step cancels the
    leading term of a by one product of the whole of b, or raises."""
    lane = 2 * big.n
    db = _deg(big, b)
    lead = b >> db * lane
    binv = 1 if lead == 1 else gf.inverse(big, lead)
    q = 0
    while (da := _deg(big, a)) >= db:
        factor = a >> da * lane
        if binv != 1:
            factor = gf.poly_mul_mod(big, factor, binv)
        shift = (da - db) * lane
        q |= factor << shift
        a ^= _scale(big, factor, b, ones) << shift
        if a >> da * lane:  # the top coefficient did not cancel
            raise ConstructionContradictionError("a division step kept the degree")
    return q, a


def _fp_mod(big, a, b, ones):
    return _fp_divmod(big, a, b, ones)[1]


def _fp_sqmod(big, t, mod, ones):
    """t^2 mod `mod`: in characteristic 2, (sum c_i X^i)^2 = sum c_i^2 X^(2i),
    and poly_square moves lane i to lane 2i squaring its coefficient."""
    return _fp_mod(big, gf.reduce_lanes(big, bitpoly.poly_square(t), ones), mod, ones)


def _fp_gcd(big, a, b, ones):
    while b:
        a, b = b, _fp_mod(big, a, b, ones)
    return _fp_monic(big, a, ones)


def _trace_split(big, h, powers, ones, cs):
    """A proper monic factor of a monic h of degree >= 2 that is squarefree and
    splits in `big`: gcd(h, T_c) for the next c from the iterator cs that
    separates two roots.

    T_c(X) = sum_{i<m} (cX)^(2^i) maps each root r to the trace of cr, so the
    gcd collects the roots where that trace is 0.  T_c is built from
    powers[i] = X^(2^i) modulo h or any multiple of it, summed unreduced and
    reduced once; each c^(2^i) is one poly_square and reduce_product,
    without field.square's validation.  A c taken from cs is not put back:
    whether it failed on h or split it, the roots of each factor of h share
    one value of Tr(cr), so it can split no factor of h."""
    for c in cs:
        acc = 0
        for p in powers:
            acc ^= _clmul(c, p, ones)
            c = gf.reduce_product(big, bitpoly.poly_square(c))
        g = _fp_gcd(big, h, _fp_mod(big, gf.reduce_lanes(big, acc, ones), h, ones), ones)
        if 0 < _deg(big, g) < _deg(big, h):
            return g
    raise ConstructionContradictionError("root splitting did not converge")


def find_root(big: gf.FieldCtx, coeffs) -> int:
    """A root in `big` of the polynomial with coefficients `coeffs` (low to
    high), which must be squarefree and split in `big`; DomainError otherwise,
    and InvalidElementError for a coefficient that is not an element of `big`.

    Splits it down to a linear factor, keeping the smaller factor each time,
    by the trace maps of c = x, x^2, ..., x^(m-1), 1 taken in turn through
    every split: the x^j jointly separate any two roots, and each c is tried
    once in all (see _trace_split).  c = 1 comes last: it cannot split a
    factor of a polynomial irreducible over F_2, such as a base modulus,
    whose roots are conjugate and so share one trace.  Which root comes out
    does not matter to the oracle: the automorphisms of `big` carry any
    choice of roots to any other."""
    lane = 2 * big.n
    h = pack_lanes([gf.validate(big, c) for c in coeffs], lane)
    deg = _deg(big, h)
    if deg < 1:
        raise DomainError("a constant polynomial has no root")
    ones = pack_lanes([1] * 2 * deg, lane)  # room for the square of h
    h = _fp_monic(big, h, ones)
    # X^(2^i) mod h until X^(2^p) = X, p <= m: the least such p divides m iff
    # h is squarefree and splits, and then the powers repeat with period p
    x = _fp_mod(big, 1 << lane, h, ones)
    powers = [x]
    while (last := _fp_sqmod(big, powers[-1], h, ones)) != x and len(powers) < big.n:
        powers.append(last)
    if last != x or big.n % len(powers):
        raise DomainError(
            f"the polynomial is not squarefree or does not split in F_2^{big.n}")
    powers *= big.n // len(powers)
    cs = (1 << j for j in (*range(1, big.n), 0))
    while deg > 1:
        g = _trace_split(big, h, powers, ones, cs)
        if 2 * _deg(big, g) > deg:  # keep the cofactor
            g = _fp_divmod(big, h, g, ones)[0]
        h, deg = g, _deg(big, g)
    return h & big.mask  # monic X + c: the root is c (char 2)


# --- oracle embedding ---------------------------------------------------

def _subfield(big: gf.FieldCtx, n: int):
    """The subfield K of degree n < m of `big` (L) as a field of its own:
    (F_2[z]/(p), powers), where powers[i] = beta^i in `big` for i < n, so
    z -> beta maps y in F_2[z]/(p) to row_apply(powers, y) in K.

    beta = Tr_{L/K}(x^j) = sum_{i < m/n} (x^j)^(2^(n i)) for the first j >= 1
    whose powers 1, ..., beta^(n-1) are independent, that is, for the first
    beta that lies in no proper subfield of K.  One exists: the trace maps L
    onto K and the x^j span L, while the proper subfields of K together
    span a proper subspace of it.  Only odd j are tried, since
    Tr(x^(2j)) = Tr(x^j)^2 lies in the same subfields as Tr(x^j).  Then
    1, ..., beta^n satisfy exactly one linear relation, whose coefficients
    are those of p, beta's minimal polynomial; a beta of lower degree e
    leaves n + 1 - e > 1 of them."""
    m = big.n
    for j in range(1, m, 2):
        beta = reduce(xor, gf._frobenius_orbit(partial(gf.square, big), 1 << j, m)[::n])
        powers = gf._frobenius_orbit(partial(gf.poly_mul_mod, big, beta), 1, n + 1)
        relations = null_space(powers, m)
        if len(relations) == 1:
            return gf.FieldCtx(relations[0], check_irreducible=False), powers[:n]
    raise ConstructionContradictionError(f"no generator of the subfield of degree {n}")


class OracleEmbedding:
    """Deterministic embedding of a (possibly extended) basis into one big field."""

    def __init__(self, source):
        if isinstance(source, ExtBasisCtx):
            nb, self.kind = source.base, source.kind
            self.rules = RULES[self.kind]
        elif isinstance(source, NormalBasisCtx):  # the kind with no generators
            nb, self.kind, self.rules = source, None, ()
        else:
            raise DomainError("source must be a normal or extended basis context")
        monomials = _monomials(self.rules)
        self.base = nb
        self.d = len(monomials)
        self.m = nb.n * self.d
        self.big = gf.FieldCtx(bitpoly.min_irreducible(self.m), check_irreducible=False)
        big = self.big

        # image of the base field: a root of its modulus f, which lies in the
        # subfield K of degree n, so for n < m it is found in K on its own
        f = nb.field.modulus
        coeffs = [(f >> i) & 1 for i in range(nb.n + 1)]
        if self.d == 1:
            root = find_root(big, coeffs)
        else:
            small, powers = _subfield(big, nb.n)
            root = row_apply(powers, find_root(small, coeffs))
        self.alpha_img = self._eval_base(nb.alpha, root)
        self.gen_images = self._solve_generators()
        conj = gf._frobenius_orbit(partial(gf.square, big), self.alpha_img, nb.n)
        images = []
        for mono in monomials:
            img = 1
            for y, e in zip(self.gen_images.values(), mono):
                for _ in range(e):
                    img = gf.poly_mul_mod(big, img, y)
            images += [gf.poly_mul_mod(big, c, img) for c in conj]
        self.basis_images = images
        self.embed_map = PreparedMap(images)  # flat coordinates -> big-field element
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
        return self.embed_map.apply(pack_lanes(blocks, self.base.n))

    def embed_ext(self, x: ExtElem) -> int:
        return self.embed_blocks(x.blocks)

    def to_blocks(self, y: int):
        """Big-field element -> blocks of coordinates over the basis;
        InvalidElementError when y is not an element of the big field."""
        flat = self.coord_map.apply(gf.validate(self.big, y))
        return unpack_lanes(flat, self.base.n, self.d)

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

def _lane_width(m: int) -> int:
    """L, the power of two >= m: TableSet.products[i] is an L x L matrix."""
    return 1 << (m - 1).bit_length()


@dataclass
class TableSet:
    """All m multiplication tables of an m-element basis (rows as bit ints).

    products[i] holds the same entries by basis product: its lane j, of
    _lane_width(m) bits, is coord(b_i b_j), whose bit k is bit j of
    tables[k][i].  It is left out of repr and ==, so both read the tables."""
    m: int
    tables: list          # tables[k][i] = row int over j
    per_table_nonzeros: list
    density: int
    products: list = field(repr=False, compare=False)


def build_tables(emb: OracleEmbedding) -> TableSet:
    """Brute-force tables: expand every basis product over the basis.

    Row i takes one carry-less product of imgs[i] by imgs[i..m-1] packed in
    lanes 2m bits apart: each lane's product has at most 2m - 1 bits, so no
    lane spills, and lane j - i is imgs[i] imgs[j] unreduced.  One
    reduce_lanes reduces every lane, and the coordinate map takes each to
    coord(b_i b_j).  The big field commutes, so that is lane j of
    products[i] and lane i of products[j], and row i of every table is one
    lane of the transpose of products[i]."""
    m = emb.m
    imgs = emb.basis_images
    to_coords = emb.coord_map.apply
    lane = 2 * m
    lane_mask = (1 << lane) - 1
    coords = [[0] * m for _ in range(m)]
    packed = ones = 0
    for i in reversed(range(m)):
        packed = packed << lane | imgs[i]  # imgs[j] in lane j - i
        ones = ones << lane | 1
        prods = gf.reduce_lanes(emb.big, bitpoly.poly_mul(imgs[i], packed), ones)
        for j in range(i, m):
            coords[i][j] = coords[j][i] = to_coords(prods & lane_mask)
            prods >>= lane
    size = _lane_width(m)
    products = [pack_lanes(row, size) for row in coords]
    tables = [[0] * m for _ in range(m)]
    for i, p in enumerate(products):
        for rows, row in zip(tables, unpack_lanes(transpose_packed(p, size), size, m)):
            rows[i] = row
    nz = [sum(map(int.bit_count, t)) for t in tables]
    return TableSet(m, tables, nz, sum(nz), products)


def table_mul(ts: TableSet, x: int, y: int) -> int:
    """Product of coordinate vectors, z_k = x T_k y^t for every k at once;
    InvalidElementError unless x and y are in [0, 2^m).

    Lane j of row_apply(products, x) is the sum of coord(b_i b_j) over the
    bits i of x.  y spread over the lanes (one transpose puts bit j at the
    foot of lane j, a product by 2^m - 1 fills the lane) keeps the lanes j
    in y, and folding the lanes onto each other sums them."""
    m = ts.m
    for v in (x, y):
        if not isinstance(v, int) or v < 0 or v >> m:
            raise InvalidElementError(f"vector {v!r} out of range for m={m}")
    size = _lane_width(m)
    z = row_apply(ts.products, x) & (transpose_packed(y, size) * ((1 << m) - 1))
    width = size * size
    while width > size:
        width >>= 1
        z = (z ^ z >> width) & ((1 << width) - 1)
    return z


def normal_table_set(nb: NormalBasisCtx) -> TableSet:
    """The n tables of the base normal basis itself (t^k_{i,j} = t_{j-i,k-i}),
    with products[i] the transpose of the rows i of the n tables."""
    n, rows = nb.n, nb.mul_rows
    size = _lane_width(n)
    products = [transpose_packed(pack_lanes([t[i] for t in rows], size), size)
                for i in range(n)]
    nz = [sum(r.bit_count() for r in t) for t in rows]
    return TableSet(n, [list(t) for t in rows], nz, sum(nz), products)


# --- closed-form tables and counts -----------------------------------------

# The kinds whose closed-form column `tables` and `verify` print. ka6 stays out only
# until a benchmark change re-records goldens/tables.ka6.n8.txt and verify.n8.txt.
CLOSED_FORM_KINDS = ("as2", "k3", "asw4")


def _kind_degree(nb: NormalBasisCtx, kind) -> int:
    """d of the kind's extended basis over nb, 1 for kind None (the plain
    normal basis).  A basis build_kind refuses raises its error."""
    return 1 if kind is None else build_kind(nb, kind).d


def _structure_columns(nb: NormalBasisCtx, kind, d: int):
    """(constants, columns) for the kind's extended basis of degree d over
    nb, which the caller has built or checked with _kind_degree.

    constants is structure_constants(kind), {(p, q): {r: c_pqr}}; kind None
    is the plain normal basis, with the one constant c_000 = 1.
    columns[c], for each constant c, is the n bit-planes of the n^2 vectors
    c(T) u_ij with u_ij = a^(2^i) a^(2^j) = rotl(T[(j - i) mod n], i) and
    T = nb.table: bit i m + j of column k, m = d n, is bit k of c(T) u_ij.

    Lane i of column b is rotl(T'[(b - i) mod n], i), T' the transpose of T,
    so column b + 1 is column b moved up one lane (the top lane wrapping to
    lane 0) with each lane rotated by one.  Column k of a u is the xor of
    the columns b of u with bit k of T[b] set."""
    n = nb.n
    sc = {(0, 0): {0: 1}} if kind is None else structure_constants(kind)
    m = d * n
    everything = (1 << n * m) - 1
    feet = pack_lanes([1] * n, m)  # bit 0 of every lane
    rest = feet * ((1 << n) - 1) ^ feet  # bits 1 .. n - 1 of every lane
    tt = mat_transpose(nb.table, n)
    col = pack_lanes([rotl(tt[-i % n], i, n) for i in range(n)], m)
    cols = [col]
    for _ in range(n - 1):
        col = (col << m & everything) | col >> (n - 1) * m
        col = (col << 1 & rest) | (col >> n - 1 & feet)
        cols.append(col)
    powers = [cols]  # powers[e][k]: column k of a^e u
    top = max(c.bit_length() for cs in sc.values() for c in cs.values())
    while len(powers) < top:
        powers.append([row_apply(powers[-1], r) for r in tt])
    columns = {}
    for cs in sc.values():
        for c in cs.values():
            if c not in columns:
                columns[c] = list(reduce(partial(map, int.__xor__), (
                    pe for e, pe in enumerate(powers) if c >> e & 1)))
    return sc, columns


def closed_form_tables(nb: NormalBasisCtx, kind):
    """The m tables of the kind's extended basis over nb (kind None: the
    normal basis itself, which gives nb.mul_rows), from its structure
    constants and nb.table alone, laid out as TableSet.tables.

    Basis element (i, p) = a^(2^i) m_p is row and bit p n + i, as in
    OracleEmbedding.basis_images.  Since m_p m_q = sum_r c_pqr(a) m_r,
    entry ((i, p), (j, q)) of table (r, k) is bit k of c_pqr(T) u_ij: bit
    i m + j of column k of _structure_columns, which a shift by
    p n m + q n moves to bit (p n + i) m + q n + j of table (r, k) held as
    one int of m rows.  A basis build_kind refuses raises its error."""
    return _closed_form_tables(nb, kind, _kind_degree(nb, kind))


def _closed_form_tables(nb: NormalBasisCtx, kind, d: int):
    sc, columns = _structure_columns(nb, kind, d)
    n = nb.n
    m = d * n
    packed = [0] * m
    for (p, q), cs in sc.items():
        shift = p * n * m + q * n
        for r, c in cs.items():
            for k, col in enumerate(columns[c], r * n):
                packed[k] |= col << shift
    return [list(unpack_lanes(t, m, m)) for t in packed]


def expected_counts(nb: NormalBasisCtx, kind):
    """Per-table nonzero counts of closed_form_tables(nb, kind) without
    laying them out: table (r, k) sums over every (p, q) the popcount of
    column k of the vectors c_pqr(T) u_ij.  A basis build_kind refuses
    raises its error."""
    n, d = nb.n, _kind_degree(nb, kind)
    sc, columns = _structure_columns(nb, kind, d)
    weights = {c: [col.bit_count() for col in cols] for c, cols in columns.items()}
    counts = [0] * (d * n)
    for cs in sc.values():
        for r, c in cs.items():
            for k, s in enumerate(weights[c], r * n):
                counts[k] += s
    return counts


def expected_density(nb: NormalBasisCtx, kind: str) -> int:
    """Closed-form density, the sum of the counts: 4d(N)+CS for as2 and
    6d(N)+3CS for k3."""
    return sum(expected_counts(nb, kind))


# --- verification -------------------------------------------------------

def verify_table_entries(emb: OracleEmbedding, ts: TableSet):
    """Compare `ts` with closed_form_tables(emb.base, emb.kind); return (k, i, j)
    witnesses of the entries that differ, in (i, j, k) order.  The degree d
    comes from the embedding, built from a plain basis or from a context
    build_kind accepted, so the kind is not built again.

    The two sides start from disjoint data: build_tables reads only the big
    field (the images of the basis and their products), the closed form
    only the structure constants and the base table nb.table.  So an empty
    result checks the embedding, build_tables and the base table against
    each other, not build_tables against itself."""
    bad = []
    closed = _closed_form_tables(emb.base, emb.kind, emb.d)
    for k, (rows, ref) in enumerate(zip(ts.tables, closed)):
        if rows == ref:
            continue
        for i, (row, want) in enumerate(zip(rows, ref)):
            diff = row ^ want
            while diff:
                low = diff & -diff
                bad.append((k, i, low.bit_length() - 1))
                diff ^= low
    return sorted(bad, key=lambda kij: (kij[1], kij[2], kij[0]))
