"""Multiplication tables of extended bases, by the oracle and by the closed form.

The oracle embeds a basis into one big field F_2[x]/(g) of degree m: it maps
the basis vectors to explicit elements there by solving RULES, each c and
each basis monomial evaluated by rule_value on big-field products, and
build_tables expands all m^2 pairwise products back over the basis.  The
base modulus f has its roots in the subfield of degree n, generated by
beta: find_root roots beta's minimal polynomial p in the base field
F_2[x]/(f), whose modulus is sparse for every fixture while p is dense for
n < m (at n = m, p is the big modulus), x is
written in the powers of that root, and the same powers of beta give the
image of x, checked as a root of f in the big field.  find_root splits by
trace maps, trying each c = x^j once per call.  The oracle's big-field
products, of m-bit operands, take bitpoly.poly_mul's 4-bit comb from m = 16
on.  The closed form derives the same tables from the kind's structure
constants and the base normal basis's table T alone: _structure_columns holds the n^2
products c(T) u_ij of the base basis as bit-planes, (i, j) at bit i m + j,
formed from normal.product_planes (the planes of u_ij) by table-vector
products, shifted into place as m tables of one int each.  Both checkers
read the built basis through _basis_parts and give a TableSet: the oracle
by build_tables, one lane-packed product per row, the bit-planes of the
big-field products read off the rows' bit string by one stride slice each,
and one row_apply per table on them; and closed_form_tables.
verify_table_entries xors the two.  They start from disjoint data, and
the oracle reads no product_planes and no squaring map: its orbits and
power chains are _chain's, by field.square and field.poly_mul_mod.
"""

from functools import cache, cached_property, partial, reduce
from operator import xor

from . import bitpoly
from . import field as gf
from .errors import ConstructionContradictionError, DomainError, InvalidElementError
from .extbasis import (RULES, ExtBasisCtx, ExtElem, _monomials, build_kind, rule_value,
                       structure_constants)
from .linalg import (PreparedMap, mat_invert, mat_transpose, null_space, pack_lanes,
                     row_apply, solve_linear, unpack_lanes)
from .normal import NormalBasisCtx, product_planes


# --- polynomials over a big field, lane-packed --------------------------
#
# A polynomial over F_2^m is one int: coefficient k sits in lane k, of 2m
# bits, as in build_tables.  A product c*p by a field element c is one
# carry-less product, each lane unreduced, and one field.reduce_lanes
# reduces every lane.  When p's coefficients are all 0 or 1, as for a
# polynomial over F_2, its Frobenius powers X^(2^i) mod it and every
# division by it, c*p is the plain integer product: one set bit per lane,
# lanes 2m bits apart, so nothing carries.  `ones` has a set bit at the foot of every
# lane in use.

def _deg(big, p):
    """Degree of packed p; -1 for 0."""
    return (p.bit_length() - 1) // (2 * big.n)


def _scale(big, c, p, ones):
    """c times each coefficient of packed p, reduced."""
    return c * p if not p & ~ones else gf.reduce_lanes(big, bitpoly.poly_mul(c, p), ones)


def _fp_monic(big, p, ones):
    lead = p and p >> _deg(big, p) * 2 * big.n
    return p if lead < 2 else _scale(big, gf.inverse(big, lead), p, ones)


def _fp_divmod(big, a, b, ones):
    """Quotient and remainder of a by a monic b: each step cancels the
    leading term of a by one product of the whole of b, or raises, as any
    step by a b that is not monic does."""
    lane = 2 * big.n
    db = _deg(big, b)
    q = 0
    while (da := _deg(big, a)) >= db:
        factor = a >> da * lane
        shift = (da - db) * lane
        q |= factor << shift
        a ^= _scale(big, factor, b, ones) << shift
        if a >> da * lane:  # the top coefficient did not cancel
            raise ConstructionContradictionError("a division step kept the degree")
    return q, a


def _fp_sqmod(big, t, mod, ones):
    """t^2 mod `mod`: in characteristic 2, (sum c_i X^i)^2 = sum c_i^2 X^(2i),
    and poly_square moves lane i to lane 2i squaring its coefficient."""
    return _fp_divmod(big, gf.reduce_lanes(big, bitpoly.poly_square(t), ones), mod, ones)[1]


def _fp_gcd(big, a, b, ones):
    """The monic gcd of a and b; each remainder is made monic before it
    divides."""
    while b:
        b = _fp_monic(big, b, ones)
        a, b = b, _fp_divmod(big, a, b, ones)[1]
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
            acc ^= c * p if not p & ~ones else bitpoly.poly_mul(c, p)
            c = gf.reduce_product(big, bitpoly.poly_square(c))
        g = _fp_gcd(big, h, _fp_divmod(big, gf.reduce_lanes(big, acc, ones), h, ones)[1], ones)
        if 0 < _deg(big, g) < _deg(big, h):
            return g
    raise ConstructionContradictionError("root splitting did not converge")


def find_root(big: gf.FieldCtx, coeffs) -> int:
    """A root in `big` of the polynomial with coefficients `coeffs` (low to
    high), which must be squarefree and split in `big`; DomainError otherwise,
    and InvalidElementError for a coefficient that is not an element of `big`.

    Splits it, made monic, down to a linear factor, keeping the smaller
    factor each time (a monic gcd or cofactor: _fp_divmod divides by these),
    by the trace maps of c = x, x^2, ..., x^(m-1), 1 taken in turn through
    every split: the x^j jointly separate any two roots, and each c is tried
    once in all (see _trace_split).  c = 1 comes last: it cannot split a
    factor of a polynomial irreducible over F_2, such as a base modulus or
    the minimal polynomial of a subfield's generator, whose roots are
    conjugate and so share one trace.  Each reduction in `big` takes one
    shift per term of its modulus when big.fold_terms is set, and one
    overflow bit at a time otherwise, as over a dense base modulus given by
    the user; over the fixtures the oracle calls it only over fields with
    fold_terms (see _base_root).  Which root comes out does not matter to
    the oracle: the automorphisms of `big` carry any choice of roots to any
    other."""
    lane = 2 * big.n
    h = pack_lanes([gf.validate(big, c) for c in coeffs], lane)
    deg = _deg(big, h)
    if deg < 1:
        raise DomainError("a constant polynomial has no root")
    ones = pack_lanes([1] * 2 * deg, lane)  # room for the square of h
    h = _fp_monic(big, h, ones)
    # X^(2^i) mod h until X^(2^p) = X, p <= m: the least such p divides m iff
    # h is squarefree and splits, and then the powers repeat with period p
    x = _fp_divmod(big, 1 << lane, h, ones)[1]
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

def _chain(step, x, count):
    """[x, step(x), step(step(x)), ...], count >= 1 entries: the oracle's
    Frobenius orbits (step field.square) and power chains (step a
    field.poly_mul_mod by a fixed element).  It walks no squaring map, so
    the oracle shares no Frobenius with the bases it checks."""
    out = [x]
    for _ in range(count - 1):
        out.append(step(out[-1]))
    return out


def _subfield(big: gf.FieldCtx, n: int):
    """The subfield K of degree n | m of `big` (L), by a generator beta:
    (p, powers), where p is beta's minimal polynomial, irreducible of degree
    n, and powers[i] = beta^i in `big` for i < n.

    beta = Tr_{L/K}(x^j) = sum_{i < m/n} (x^j)^(2^(n i)), x^j reduced in L,
    for the first odd j <= m whose powers 1, ..., beta^(n-1) are
    independent, that is, for the first beta that lies in no proper
    subfield of K.  One exists: the trace maps L onto K and the x^j span L,
    while the proper subfields of K together span a proper subspace of it,
    and Tr(x^(2j)) = Tr(x^j)^2 lies in the same subfields as Tr(x^j).  At
    n = m, j = 1 gives beta = x and p the modulus of L; at m = 1, where
    x = 1, it gives beta = 1 and p = 1 + X.  Then 1, ..., beta^n satisfy
    exactly one linear relation, whose coefficients are those of p; a beta
    of lower degree e leaves n + 1 - e > 1 of them."""
    m = big.n
    for j in range(1, m + 1, 2):
        xj = gf.reduce_product(big, 1 << j)
        beta = reduce(xor, _chain(partial(gf.square, big), xj, m)[::n])
        powers = _chain(partial(gf.poly_mul_mod, big, beta), 1, n + 1)
        relations = null_space(powers, m)
        if len(relations) == 1:
            return relations[0], powers[:n]
    raise ConstructionContradictionError(f"no generator of the subfield of degree {n}")


def _base_root(big: gf.FieldCtx, base: gf.FieldCtx) -> int:
    """A root in `big` (L, of degree m) of the modulus f of `base`,
    F = F_2[x]/(f) of degree n | m.

    The roots of f lie in the subfield K of degree n, and K = F_2(beta)
    with beta's minimal polynomial p (_subfield).  p is rooted in F: a root
    s there gives the isomorphism F -> K that sends sum c_i s^i to
    sum c_i beta^i, and x = sum c_i s^i, one n x n solve, goes to a root of
    f.  The split then reduces modulo f, a trinomial or pentanomial for
    every fixture, whereas p is dense for n < m (11 terms at as2 n = 24)."""
    n = base.n
    p, powers = _subfield(big, n)
    s = find_root(base, [(p >> i) & 1 for i in range(n + 1)])
    c = solve_linear(_chain(partial(gf.poly_mul_mod, base, s), 1, n),
                     n, gf.reduce_product(base, 2))
    if c is None:
        raise ConstructionContradictionError("the root of p does not generate the base field")
    return row_apply(powers, c)


def _basis_parts(source):
    """(nb, kind, d) of a basis context: its base normal basis, its kind and
    the degree d of the extension; (source, None, 1) for a plain normal
    basis, the kind with no generators.  DomainError for anything else."""
    if isinstance(source, ExtBasisCtx):
        return source.base, source.kind, source.d
    if isinstance(source, NormalBasisCtx):
        return source, None, 1
    raise DomainError("source must be a normal or extended basis context")


class OracleEmbedding:
    """Deterministic embedding of a built basis, a NormalBasisCtx or an
    ExtBasisCtx, into one big field; the basis is kept as `source`.

    The big field's modulus is min_irreducible(m), which FieldCtx takes
    without a second Rabin test.  ConstructionContradictionError when the
    base modulus does not vanish at its root, a rule has no root, the basis
    images are dependent, or check_rules finds a generator image that
    breaks its rule."""

    def __init__(self, source):
        nb, self.kind, self.d = _basis_parts(source)
        self.source = source
        self.rules = RULES[self.kind] if self.kind else ()
        self.base = nb
        self.m = nb.n * self.d
        self.big = gf.FieldCtx(bitpoly.min_irreducible(self.m))
        big = self.big

        # image of the base field: a root of its modulus f, checked in the
        # big field alone as f(root) = root^n + (f - x^n)(root) = 0
        base = nb.field
        root = _base_root(big, base)
        powers = _chain(partial(gf.poly_mul_mod, big, root), 1, nb.n)
        if gf.poly_mul_mod(big, powers[-1], root) != row_apply(powers, base.modulus & base.mask):
            raise ConstructionContradictionError("the base modulus does not vanish at its root")
        self.alpha_img = row_apply(powers, nb.alpha)
        self.gen_images = self._solve_generators()
        conj = _chain(partial(gf.square, big), self.alpha_img, nb.n)
        mul, gens = partial(gf.poly_mul_mod, big), list(self.gen_images.values())
        monos = [rule_value(((e, 1),), mul, self.alpha_img, gens) for e in _monomials(self.rules)]
        self.basis_images = images = [c if mono == 1 else mul(c, mono)
                                      for mono in monos for c in conj]
        self.embed_map = PreparedMap(images)  # flat coordinates -> big-field element
        inv = mat_invert(images, self.m)
        if inv is None:
            raise ConstructionContradictionError("basis images are linearly dependent")
        self._coord_rows = inv  # big-field element -> flat coordinates
        self.coord_cols = mat_transpose(inv, self.m)  # bit t of [k]: bit k of inv[t]
        if not self.check_rules():
            raise ConstructionContradictionError("generator images violate their rules")

    def _solve_generators(self):
        """A root in the big field of each rule, in adjunction order."""
        big = self.big
        mul = partial(gf.poly_mul_mod, big)
        images = {}
        for gen, degree, rhs in self.rules:
            c = rule_value(rhs, mul, self.alpha_img, list(images.values()))
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
    @cached_property
    def coord_map(self):
        """Big-field element -> flat coordinates, prepared on the first
        to_blocks: build_tables reads coord_cols instead, so most embeddings
        never need it."""
        return PreparedMap(self._coord_rows)

    def embed_blocks(self, blocks) -> int:
        """Blocks of normal coordinates -> big-field element; InvalidElementError
        unless there are d blocks, each an int in [0, 2^n).  One loop checks
        and packs the blocks as pack_lanes would, field.validate running
        only for a block whose exact type or one shift fails."""
        if len(blocks) != self.d:
            raise InvalidElementError(f"expected {self.d} blocks, got {len(blocks)}")
        n = self.base.n
        flat = 0
        for b in reversed(blocks):
            if b.__class__ is not int or b >> n:  # also every negative b
                gf.validate(self.base.field, b)
            flat = flat << n | b
        return self.embed_map.apply(flat)

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
            if lhs != rule_value(rhs, mul, self.alpha_img, earlier):
                return False
            earlier.append(y)
        return True


def build_embedding(source) -> OracleEmbedding:
    """The deterministic oracle embedding of a basis context:
    OracleEmbedding(source), which checks itself."""
    return OracleEmbedding(source)


# --- multiplication tables ----------------------------------------------

class TableSet:
    """All m multiplication tables of an m-element basis, each one int:
    entry (i, j) of table k is bit i m + j of tables[k].  DomainError
    unless there are m tables, each in [0, 2^(m^2)); the counts are taken
    from the tables as given.  Two sets are equal when their m and tables
    are."""

    def __init__(self, m: int, tables: list):
        if len(tables) != m or any(
                not isinstance(t, int) or t < 0 or t >> m * m for t in tables):
            raise DomainError(f"a table set of m = {m} needs {m} tables of {m * m} bits")
        self.m = m
        self.tables = tables
        self.per_table_nonzeros = [t.bit_count() for t in tables]
        self.density = sum(self.per_table_nonzeros)

    def __eq__(self, other):
        return isinstance(other, TableSet) and (self.m, self.tables) == (other.m, other.tables)


def build_tables(emb: OracleEmbedding) -> TableSet:
    """Brute-force tables: expand every basis product over the basis.

    packed holds every image, imgs[j] in lane j of 2m bits.  Row i takes
    one carry-less product of imgs[i] by packed: each lane's product has at
    most 2m - 1 bits, so no lane spills, and one reduce_lanes leaves
    b_i b_j, of m bits, in lane j.  The rows, row m - 1 first, written as
    one bit string hold b_i b_j in lane i m + j, and bit t of every lane
    sits 2m characters apart, so one stride slice reads bit-plane t (bit
    slicing, Biham 1997): bit i m + j of planes[t] is bit t of b_i b_j.
    Coordinates are linear, so table k is the xor of the planes
    emb.coord_cols[k] names."""
    m = emb.m
    imgs = emb.basis_images
    lane = 2 * m
    packed = pack_lanes(imgs, lane)
    ones = pack_lanes([1] * m, lane)
    width = f"0{lane * m}b"
    bits = "".join([format(gf.reduce_lanes(emb.big, bitpoly.poly_mul(imgs[i], packed), ones),
                           width) for i in reversed(range(m))])
    planes = [int(bits[lane - 1 - t::lane], 2) for t in range(m)]
    return TableSet(m, [row_apply(planes, c) for c in emb.coord_cols])


@cache
def _spread_nibbles(m: int):
    """Entry b < 16: bit i of b moved to bit i m (a byte table cost memory)."""
    return tuple(sum(1 << i * m for i in range(4) if b >> i & 1) for b in range(16))


def table_mul(ts: TableSet, x: int, y: int) -> int:
    """Product of coordinate vectors, z_k = x T_k y^t for every k at once;
    InvalidElementError unless x and y are in [0, 2^m).

    The outer product x^t y, bit i m + j = x_i y_j, is y times x spread to
    bits i m, one table lookup per 4 bits of x; y < 2^m, so nothing carries.
    Then z_k is the parity of tables[k] AND it."""
    m = ts.m
    for v in (x, y):
        if not isinstance(v, int) or v < 0 or v >> m:
            raise InvalidElementError(f"vector {v!r} out of range for m={m}")
    spread, sx = _spread_nibbles(m), 0
    for shift in range(0, m * m, 4 * m):
        sx |= spread[x & 0xF] << shift
        x >>= 4
    outer = y * sx
    z = 0
    for t in reversed(ts.tables):
        z = z << 1 | (t & outer).bit_count() & 1
    return z


def normal_table_set(nb: NormalBasisCtx) -> TableSet:
    """The n tables of the base normal basis itself (t^k_{i,j} = t_{j-i,k-i})."""
    return TableSet(nb.n, [pack_lanes(t, nb.n) for t in nb.mul_rows])


# --- closed-form tables and counts -----------------------------------------

# The kinds whose closed-form column `tables` and `verify` print. ka6 stays out only
# until a benchmark change re-records goldens/tables.ka6.n8.txt and verify.n8.txt.
CLOSED_FORM_KINDS = ("as2", "k3", "asw4")


def _structure_columns(nb: NormalBasisCtx, kind, d: int):
    """(constants, columns) for the kind's extended basis of degree d over
    nb, which the caller has built.

    constants is structure_constants(kind), {(p, q): {r: c_pqr}}; kind None
    is the plain normal basis, with the one constant c_000 = 1.
    columns[c], for each constant c, is the n bit-planes of the n^2 vectors
    c(T) u_ij with u_ij = a^(2^i) a^(2^j) = rotl(T[(j - i) mod n], i) and
    T = nb.table: bit i m + j of column k, m = d n, is bit k of c(T) u_ij.

    The columns of u itself are normal.product_planes(T', d n), T' the
    transpose of T.  Column k of a u is the xor of the columns b of u with
    bit k of T[b] set, that is row_apply of them by row k of T'."""
    sc = {(0, 0): {0: 1}} if kind is None else structure_constants(kind)
    tt = mat_transpose(nb.table, nb.n)
    powers = [product_planes(tt, d * nb.n)]  # powers[e][k]: column k of a^e u
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


def closed_form_tables(source) -> TableSet:
    """The m tables of a built basis context (see _basis_parts) from its
    structure constants and nb.table alone; nothing is built again.  The
    density is n w(N) for a plain basis, 4d(N)+CS for as2 and 6d(N)+3CS for k3.

    Basis element (i, p) = a^(2^i) m_p is row and bit p n + i, as in
    OracleEmbedding.basis_images.  Since m_p m_q = sum_r c_pqr(a) m_r,
    entry ((i, p), (j, q)) of table (r, k) is bit k of c_pqr(T) u_ij: bit
    i m + j of column k of _structure_columns, which a shift by
    p n m + q n moves to bit (p n + i) m + q n + j of table (r, k)."""
    nb, kind, d = _basis_parts(source)
    sc, columns = _structure_columns(nb, kind, d)
    n = nb.n
    m = d * n
    packed = [0] * m
    for (p, q), cs in sc.items():
        shift = p * n * m + q * n
        for r, c in cs.items():
            for k, col in enumerate(columns[c], r * n):
                packed[k] |= col << shift
    return TableSet(m, packed)


def expected_counts(nb: NormalBasisCtx, kind):
    """Per-table nonzero counts of the closed form of the kind's extended
    basis over nb (kind None: nb itself).  The one build_kind call in this
    module: a basis build_kind refuses raises its error."""
    return closed_form_tables(nb if kind is None else build_kind(nb, kind)).per_table_nonzeros


# --- verification -------------------------------------------------------

def verify_table_entries(emb: OracleEmbedding, ts: TableSet):
    """Compare `ts` with closed_form_tables(emb.source); return (k, i, j)
    witnesses of the entries that differ, in (i, j, k) order, or DomainError
    unless ts.m is emb.m.  Nothing is built again.

    The two sides start from disjoint data: build_tables reads only the big
    field (the images of the basis and their products), the closed form
    only the structure constants and the base table nb.table.  So an empty
    result checks the embedding, build_tables and the base table against
    each other, not build_tables against itself."""
    m = emb.m
    if ts.m != m:
        raise DomainError(f"tables of m = {ts.m} checked against an embedding of m = {m}")
    bad = []
    for k, diff in enumerate(map(xor, ts.tables, closed_form_tables(emb.source).tables)):
        while diff:
            low = diff & -diff
            bad.append((k, *divmod(low.bit_length() - 1, m)))
            diff ^= low
    return sorted(bad, key=lambda kij: (kij[1], kij[2], kij[0]))
