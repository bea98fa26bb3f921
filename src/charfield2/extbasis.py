"""Extended bases over normal bases of F_{2^n}: construction and counted arithmetic.

Four kinds of degree-d extension bases over a normal basis N = (a^(2^i)) of F_{2^n}:

  as2  (d=2): quadratic, generator b with b^2 = b + a; blocks (1, b)
  k3   (d=3): cubic Kummer, generator b with b^3 = a; blocks (1, b, b^2)
  asw4 (d=4): quartic tower, generators b0, b1 with b0^2 = b0 + a and
              b1^2 = b1 + (1+a)b0 + a^2; blocks (1, b0, b1, b0*b1)
  ka6  (d=6): sextic tower, b^2 = b + a and g^3 = b;
              blocks (1, b, g, g*b, g^2, g^2*b)

Each rule's c is data, a polynomial in a and the earlier generators (Rule), read two
ways: rule_rewrites turns it into SymPoly rewrites over F_2[a], and rule_value
evaluates it in a ring on ints with sum ^ and identity 1, for the rule test and the
oracle.

Elements are tuples of d NormalCoords blocks. Each product is a fixed straight-line
program, one function of the base field's sum, product and product by a (tvp). For
as2, k3 and ka6 it is _fold over the kind's RULES: each rule's step template
(Karatsuba for y^2 = y + c, six products for y^3 = c) runs over the field the earlier
rules build, on runs of its blocks, with that field's sum, its product (the fold again)
and the product by c. asw4 keeps its hand-written program, whose tally is frozen. The
product by c and each square are linear maps read off structure_constants (basis
monomials multiplied and reduced by RULES) and walked as chains of products by a.
Each operation adds its fixed tally of base operations to the OpCounter.

The source functions (_fold or asw4's program, and _square_walk) are the statement,
the proof over F_2[a] and the tally: one recording run compiles each, once per tuple
of rules on first use, into straight-line Python whose sums are inline ^ and whose
base products are calls to kernels passed in by name at each call.  That compiled
code is the one runtime path: mul and square run it on normal_mul and alpha_mul, and
the rule test that every ExtBasisCtx runs when constructed runs the compiled code of
the rules before each rule on poly_mul_mod.  The tests run the source functions as
the reference for both.
"""

from functools import cache, partial, reduce
from itertools import accumulate, product
from typing import Callable, NamedTuple

from . import field as gf
from .errors import (DomainError, InvalidElementError, NoKummerExtensionError,
                     UnsupportedDegreeError)
from .linalg import pack_lanes, unpack_lanes
from .normal import NormalBasisCtx, alpha_mul, normal_mul
from .witt import SymPoly


class Rule(NamedTuple):
    """One adjoined generator y: a root of y^2 + y = c (degree 2, an
    Artin-Schreier step) or of y^3 = c (degree 3, a Kummer step).  rhs is c,
    a polynomial in the earlier generators over F_2[a], a the base
    generator, as SymPoly.terms holds one: (exponents over the earlier
    generators, F_2[a] bitmask) pairs.  A Rule is plain data, so it hashes,
    compares and pickles by value."""
    gen: str
    degree: int
    rhs: tuple


# Each kind's generators in adjunction order: the one statement of the
# defining rules, read by the contexts, the structure constants and the
# oracle, and checked against the Witt derivation by the tests.
RULES = {
    "as2": (Rule("b", 2, (((), 0b10),)),),                       # c = a
    "k3": (Rule("b", 3, (((), 0b10),)),),                        # c = a
    "asw4": (Rule("b0", 2, (((), 0b10),)),                       # c = a
             Rule("b1", 2, (((1,), 0b11), ((0,), 0b100)))),      # c = (1 + a) b0 + a^2
}
# ka6 is as2's tower with g^3 = b on top: its prefix is as2's own tuple, so
# the two share one compiled program and one table of structure constants.
RULES["ka6"] = RULES["as2"] + (Rule("g", 3, (((1,), 1),)),)     # c = b
KINDS = tuple(RULES)


def rule_value(rhs, mul, a: int, gens) -> int:
    """The value of a rule's rhs in a ring of ints with sum ^, identity 1 and
    product mul, at base generator a and earlier generators gens: the sum of
    mask(a) times each monomial, by Horner in a from the top power.  Each
    monomial starts from its first factor, and the Horner sum from its top
    term, taken times a with no product while it is 0 or 1: so no product
    has a factor 0 or 1."""
    terms = []
    for exps, mask in rhs:
        factors = [g for g, e in zip(gens, exps) for _ in range(e)]
        terms.append((reduce(mul, factors) if factors else 1, mask))
    z = 0
    for i in reversed(range(max((mask for _, mask in terms), default=0).bit_length())):
        z = mul(z, a) if z > 1 else z * a
        for v, mask in terms:
            if mask >> i & 1:
                z ^= v
    return z


def _monomials(rules) -> tuple:
    """Exponent tuples of the basis monomials, the first generator's
    exponent varying fastest; ((),) for no generators."""
    degrees = [r.degree for r in reversed(rules)]
    return tuple(e[::-1] for e in product(*map(range, degrees)))


def rule_rewrites(rules) -> dict:
    """The rules over F_2[a] as SymPoly.reduce rewrites {g: (degree, y^degree)}:
    y^2 = y + c for an Artin-Schreier step, y^3 = c for a Kummer step, each
    c's exponents padded with zeros to one per generator."""
    count = len(rules)
    return {g: (r.degree, SymPoly({e + (0,) * (count - len(e)): mask for e, mask in r.rhs})
                + (SymPoly.gen(g, count) if r.degree == 2 else SymPoly()))
            for g, r in enumerate(rules)}


def structure_constants(kind: str) -> dict:
    """(p, q) -> {r: c_pqr} with m_p m_q = sum_r c_pqr(a) m_r, each c_pqr an
    F_2[a] bitmask: the product of basis monomials reduced by RULES[kind].
    These are identities of polynomials in a, so they hold over every basis.
    The result is cached per tuple of rules and shared: callers must not
    change it."""
    if kind not in RULES:
        raise DomainError(f"unknown kind {kind!r}")
    return _structure_constants(RULES[kind])


@cache
def _structure_constants(rules) -> dict:
    """structure_constants of the field a tuple of rules builds."""
    monomials = _monomials(rules)
    rewrites = rule_rewrites(rules)
    out = {}
    for (p, e), (q, f) in product(enumerate(monomials), repeat=2):
        prod = SymPoly({tuple(map(int.__add__, e, f)): 1}).reduce(rewrites)
        out[p, q] = {monomials.index(g): c for g, c in prod.terms.items()}
    return out


@cache
def _plan(rules, by_c=False):
    """The walk of an F_2[a]-linear map on the blocks of a field, read off the
    structure constants of `rules`, column p being the image of m_p: per
    input block p, the length of its chain of products by a (the top power
    of a in column p); per output block r, the indices of the chain entries
    a^k x_p it sums (chains laid end to end).

    Without by_c the map takes the squares x_p^2 of x's blocks to x^2, and
    column p is m_p^2.  With by_c it is the product by the last rule's c in
    the field E of rules[:-1], whose d monomials come first.  For the last
    generator y, of degree k, y^(k-1) (y m_p) = y^k m_p: that is
    y m_p + c m_p for a degree-2 step and c m_p for a degree-3 one, so
    column p is its part on E's monomials."""
    sc = _structure_constants(rules)
    if by_c:
        d, k = len(_monomials(rules[:-1])), rules[-1].degree
        columns = [{r: c for r, c in sc[(k - 1) * d, d + p].items() if r < d}
                   for p in range(d)]
    else:
        columns = [cs for (p, q), cs in sc.items() if p == q]
    tops = [max(cs.values()).bit_length() - 1 for cs in columns]
    starts = list(accumulate(tops, lambda s, t: s + t + 1, initial=0))
    sums = tuple(tuple(starts[p] + i for p, cs in enumerate(columns)
                       for i in range(tops[p] + 1) if cs.get(r, 0) >> i & 1)
                 for r in range(len(columns)))
    return tuple(tops), sums


def _walk(add, tvp, plan, x):
    """The blocks of the image of x under the map of a _plan: each block runs
    up its chain of products by a, and each output is one sum of chain
    entries."""
    tops, sums = plan
    chains = []
    for v, top in zip(x, tops):
        chains.append(v)
        for _ in range(top):
            chains.append(tvp(chains[-1]))
    out = []
    for s in sums:
        z = chains[s[0]]
        for i in s[1:]:
            z = add(z, chains[i])
        out.append(z)
    return tuple(out)


def _square_walk(add, tvp, rules, sq):
    """The blocks of x^2 in the field `rules` build, from sq, the squares
    x_p^2 of x's blocks."""
    return _walk(add, tvp, _plan(rules), sq)


class OpCounter:
    """Tally of base-field operations: each mul and square records its fixed one."""

    def __init__(self, base_mults=0, base_adds=0, table_vector_products=0):
        self.base_mults = base_mults
        self.base_adds = base_adds
        self.table_vector_products = table_vector_products

    def reset(self):
        self.base_mults = self.base_adds = self.table_vector_products = 0

    def record(self, tally):
        """Add one operation's (mults, adds, table-vector products)."""
        self.base_mults += tally[0]
        self.base_adds += tally[1]
        self.table_vector_products += tally[2]

    def as_tuple(self):
        return (self.base_mults, self.base_adds, self.table_vector_products)

    def __eq__(self, other):
        return isinstance(other, OpCounter) and self.as_tuple() == other.as_tuple()

    def __repr__(self):
        return f"OpCounter{self.as_tuple()}"


class ExtElem:
    """An element of the extended field as d blocks of normal coordinates:
    immutable, equal and hashed by its blocks."""
    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple):
        _set_blocks(self, blocks)

    def __setattr__(self, name, *_):
        raise AttributeError(f"ExtElem is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __iter__(self):
        return iter(self.blocks)

    def __eq__(self, other):
        return isinstance(other, ExtElem) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"ExtElem(blocks={self.blocks!r})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return ExtElem, (self.blocks,)


# The slot's own setter, past the __setattr__ that refuses every other
# write: ExtElem.__init__ and mul and square set blocks through it.
_set_blocks = ExtElem.blocks.__set__


class ExtBasisCtx:
    """The extended basis of `kind` over the normal basis `base`, with an
    OpCounter.  It is built only once _check_rule passes each rule of
    RULES[kind] in turn; k3 also needs a primitive a, the paper's
    condition.  Reads only base.field and base.alpha.  It keeps that tuple
    as self.rules, and its generators, monomials and compiled program all
    come from it, so a later change to RULES cannot split them: copies and
    pickles carry the tuple by value.

    A cube c or a non-primitive a raises NoKummerExtensionError, any other
    refusal UnsupportedDegreeError, which depends on (kind, n) alone: k is n
    times the earlier degrees, and each Artin-Schreier trace in RULES is
    fixed by n.  _check_rule reads Tr_E(c) as Tr_n of c's coordinate on e*,
    the monomial with exponent 1 at each earlier Artin-Schreier step and 0
    at each Kummer step.  With no earlier step that is c itself, and
    Tr_n(a) = 1, the sum of the normal basis: in F_2, nonzero.  Over
    F_{2^n}(b0), e* = b0, so Tr_2n(b0 + a b0 + a^2) = Tr_n(1 + a) = n + 1
    (mod 2).  An unknown kind is a DomainError."""

    def __init__(self, base: NormalBasisCtx, kind: str):
        if kind not in RULES:
            raise DomainError(f"unknown kind {kind!r}")
        rules = RULES[kind]
        for g in range(len(rules)):
            _check_rule(base, rules, g)
        if kind == "k3" and not gf.is_primitive(base.field, base.alpha):
            raise NoKummerExtensionError("no cubic Kummer extension: a is not primitive")
        self.base = base
        self.kind = kind
        self.n = base.n
        self.rules = rules
        self.gens = tuple(r.gen for r in rules)
        self.monomials = _monomials(rules)
        self.d = len(self.monomials)
        self.m = self.n * self.d
        self.counter = OpCounter()
        self._program = None  # _compiled(rules), kept by the first mul or square

    def __repr__(self):
        return f"ExtBasisCtx(kind={self.kind}, n={self.n}, m={self.m})"

    # exec'd code does not pickle: a copy or pickle compiles on first use
    def __getstate__(self):
        return {**self.__dict__, "_program": None}

    def validate(self, x: ExtElem) -> ExtElem:
        """x, unless it is not an ExtElem of d blocks, each an int in
        [0, 2^n): then InvalidElementError.  One pass tests each block's
        exact type and one shift; field.validate runs only for a block that
        fails them, to raise its error or to pass a bool or an int subclass."""
        if not isinstance(x, ExtElem) or len(x.blocks) != self.d:
            raise InvalidElementError(f"expected {self.d} blocks for kind {self.kind}")
        n = self.n
        for b in x.blocks:
            if b.__class__ is not int or b >> n:  # also every negative b
                gf.validate(self.base.field, b)
        return x


# --- builder ----------------------------------------------------------

def _prefix_field(nb: NormalBasisCtx, rules):
    """Product and squaring of the field `rules` build over nb.field, on d
    lanes of n polynomial coordinates: the compiled product and walk of
    _compiled(rules), the code mul and square run and the F_2[a] proof
    checks, on poly_mul_mod and its product by a, with nb.field as ctx."""
    n, field, alpha = nb.n, nb.field, nb.alpha
    sq = partial(gf.square, field)
    if not rules:
        return partial(gf.poly_mul_mod, field), sq
    program = _compiled(rules)
    blocks = partial(unpack_lanes, width=n, count=len(_monomials(rules)))

    def tvp(ctx, v):
        return gf.poly_mul_mod(ctx, alpha, v)
    return (lambda x, y: pack_lanes(program.product(gf.poly_mul_mod, tvp, field,
                                                    *blocks(x), *blocks(y)), n),
            lambda x: pack_lanes(program.walk(tvp, field, *map(sq, blocks(x))), n))


def _check_rule(nb: NormalBasisCtx, rules, g: int) -> None:
    """Raise unless rule g of the tuple `rules` is irreducible over the field
    E of degree k that the rules before it build over nb: y^2 + y = c iff
    Tr_E(c) = 1, y^3 = c iff 3 | 2^k - 1 and c is not a cube
    (Lidl-Niederreiter, Finite Fields, Thms 3.78 and 3.75).  A cube c raises
    NoKummerExtensionError, any other refusal UnsupportedDegreeError.  Reads
    only nb.field and nb.alpha.

    Tr_E is the trace through the tower (ibid., Thm 2.26): over a field K, a
    step y^2 + y = c' has Tr(u + v y) = v, as y's conjugate is y + 1, and a
    step y^3 = c' has Tr(u + v y + w y^2) = 3u = u, as y's conjugates are y,
    z y and z^2 y with 1 + z + z^2 = 0.  So Tr_E(c) = Tr_n(c_e*), the
    absolute trace of c's coordinate on the monomial e* whose exponent is 1
    at each earlier Artin-Schreier step and 0 at each Kummer step."""
    y, degree, rhs = rules[g]
    rules = rules[:g]
    mul, sq = _prefix_field(nb, rules)
    monomials = _monomials(rules)
    k = nb.n * len(monomials)
    c = rule_value(rhs, mul, nb.alpha, [1 << nb.n * i for i, e in enumerate(monomials)
                                        if sum(e) == 1])
    star = monomials.index(tuple(int(r.degree == 2) for r in rules))
    if degree == 2 and gf.trace(nb.field, c >> nb.n * star & nb.field.mask) != 1:
        raise UnsupportedDegreeError(f"no Artin-Schreier extension: {y}^2 + {y} = c "
                                     f"is reducible over F_{{2^{k}}}, as Tr(c) = 0")
    if degree == 3 and ((1 << k) - 1) % 3:
        raise UnsupportedDegreeError(f"no cubic Kummer extension: 3 does not divide 2^{k} - 1")
    if degree == 3 and _is_cube_in_prefix(nb, rules, k, mul, sq, c):
        raise NoKummerExtensionError(f"no cubic Kummer extension: {y}^3 = c is "
                                     f"reducible over F_{{2^{k}}}, as c is a cube")


def _is_cube_in_prefix(nb: NormalBasisCtx, rules, k: int, mul, sq, c: int) -> bool:
    """Whether c is a cube in the field E of degree k that `rules` build over
    K = nb.field, given E's product and squaring on lanes.

    When E = K(y) with y^2 + y = c' and n is even, 3 | 2^n - 1 and
    (2^k - 1)/3 = (2^n + 1)(2^n - 1)/3, so c^((2^k - 1)/3) = N(c)^((2^n - 1)/3)
    for the norm N(c) = c^(2^n + 1) = c c^(2^n) to K: c is a cube in E iff
    N(c) is one in K, one power in K. The conjugate of c = u + v y is
    u + v + v y, as y^(2^n) is the other root y + 1 (y is not in K: its own
    rule passed _check_rule). Otherwise c is raised to (2^k - 1)/3 in E."""
    if [r.degree for r in rules] == [2] and nb.n % 2 == 0:
        return gf.is_cube(nb.field, mul(c, c ^ c >> nb.n))
    return gf._is_cube(partial(gf._square_and_multiply, mul, sq, 1), 0, 1, (1 << k) - 1, c)


def build_kind(nb: NormalBasisCtx, kind: str) -> ExtBasisCtx:
    """The extended basis of `kind` over nb: ExtBasisCtx(nb, kind), which
    tests each rule and refuses with the errors it names."""
    return ExtBasisCtx(nb, kind)


# --- element utilities ------------------------------------------------

def zero(ctx: ExtBasisCtx) -> ExtElem:
    return ExtElem((0,) * ctx.d)


def identity(ctx: ExtBasisCtx) -> ExtElem:
    """The field identity: the base identity embedded in the constant block."""
    return embed_base(ctx, ctx.base.one())


def embed_base(ctx: ExtBasisCtx, v: int) -> ExtElem:
    """Inject base-field normal coordinates into the constant block."""
    gf.validate(ctx.base.field, v)
    return ExtElem((v,) + (0,) * (ctx.d - 1))


def project_base(ctx: ExtBasisCtx, x: ExtElem) -> int:
    """Extract base-field coordinates; error if any non-constant block is set."""
    ctx.validate(x)
    if any(b for b in x.blocks[1:]):
        raise DomainError("element does not lie in the base field")
    return x.blocks[0]


def ext_to_hex(ctx: ExtBasisCtx, x: ExtElem) -> str:
    """Fixed-width little-endian hex blocks joined by ':'."""
    ctx.validate(x)
    width = (ctx.n + 7) // 8
    return ":".join(b.to_bytes(width, "little").hex() for b in x.blocks)


def ext_parse(ctx: ExtBasisCtx, s: str) -> ExtElem:
    parts = s.strip().split(":")
    if len(parts) != ctx.d:
        raise InvalidElementError(f"expected {ctx.d} blocks, got {len(parts)}")
    try:
        blocks = tuple(int.from_bytes(bytes.fromhex(p), "little") for p in parts)
    except ValueError as exc:
        raise InvalidElementError(f"bad hex block in {s!r}") from exc
    return ctx.validate(ExtElem(blocks))


# --- arithmetic -------------------------------------------------------

# mul and square make their results by object.__new__ and the slot's
# setter, without the frame of ExtElem.__init__.
_new_elem = object.__new__


def square(ctx: ExtBasisCtx, x: ExtElem) -> ExtElem:
    """x^2 = sum_p x_p^2 m_p^2, with m_p^2 reduced by the kind's rules: the
    compiled walk, each x_p^2 a rotation and each product by a alpha_mul."""
    ctx.validate(x)
    program = ctx._program
    if program is None:
        program = ctx._program = _compiled(ctx.rules)
    ctx.counter.record(program.square_tally)
    z = _new_elem(ExtElem)
    _set_blocks(z, program.square(alpha_mul, ctx.base, ctx.n - 1, ctx.base.field.mask,
                                 *x.blocks))
    return z


def mul(ctx: ExtBasisCtx, x: ExtElem, y: ExtElem) -> ExtElem:
    """Multiplication by the kind's fixed subquadratic straight-line program,
    compiled, on normal_mul and alpha_mul."""
    ctx.validate(x)
    ctx.validate(y)
    program = ctx._program
    if program is None:
        program = ctx._program = _compiled(ctx.rules)
    ctx.counter.record(program.mul_tally)
    z = _new_elem(ExtElem)
    _set_blocks(z, program.product(normal_mul, alpha_mul, ctx.base, *x.blocks, *y.blocks))
    return z


def power(ctx: ExtBasisCtx, x: ExtElem, e: int) -> ExtElem:
    """x^e for an int e >= 0 by square-and-multiply (ops are counted like any
    other); DomainError for any other e."""
    ctx.validate(x)
    return gf._square_and_multiply(partial(mul, ctx), partial(square, ctx),
                                   identity(ctx), x, e)


def generator_element(ctx: ExtBasisCtx, name: str) -> ExtElem:
    """A named generator of the extension as an element (coefficient 1 on
    its degree-1 monomial)."""
    if name not in ctx.gens:
        raise DomainError(f"no generator {name!r} in kind {ctx.kind}")
    idx = ctx.gens.index(name)
    expt = tuple(1 if k == idx else 0 for k in range(len(ctx.gens)))
    j = ctx.monomials.index(expt)
    blocks = [0] * ctx.d
    blocks[j] = ctx.base.one()
    return ExtElem(tuple(blocks))


def quad_generator(ctx: ExtBasisCtx) -> ExtElem:
    """The generator b of a quadratic extension basis as an element."""
    if ctx.kind != "as2":
        raise DomainError("quad_generator needs a quadratic extension context")
    return generator_element(ctx, "b")


def _as2_mul(add, mul, by_c, x, y):
    """Product in an Artin-Schreier basis (1, y) with y^2 = y + c, by three
    coefficient products (Karatsuba); add, mul and by_c are the coefficient
    ring's sum, product and product by c."""
    C0, C1 = x
    D0, D1 = y
    c01 = add(C0, C1)
    d01 = add(D0, D1)
    m0 = mul(C0, D0)
    m1 = mul(C1, D1)
    m01 = mul(c01, d01)
    z0 = add(m0, by_c(m1))
    z1 = add(m01, m0)
    return (z0, z1)


def _cubic_mul(add, mul, by_c, x, y):
    """Product in a cubic Kummer basis (1, g, g^2) with g^3 = c, by six
    coefficient products; add, mul and by_c are the coefficient ring's sum,
    product and product by c."""
    C0, C1, C2 = x
    D0, D1, D2 = y
    c01 = add(C0, C1)
    d01 = add(D0, D1)
    c02 = add(C0, C2)
    d02 = add(D0, D2)
    c012 = add(c01, C2)
    d012 = add(d01, D2)
    m0 = mul(C0, D0)
    m1 = mul(C1, D1)
    m2 = mul(C2, D2)
    m01 = mul(c01, d01)
    m02 = mul(c02, d02)
    m012 = mul(c012, d012)
    w = add(add(add(m0, m01), m02), m012)
    z0 = add(m0, by_c(w))
    s = add(m0, m1)
    z1 = add(add(s, by_c(m2)), m01)
    z2 = add(add(s, m2), m02)
    return (z0, z1, z2)


def _asw4_mul(add, mul, tvp, x, y):
    A1, B1, C1, D1 = x
    A2, B2, C2, D2 = y
    a1 = add(A1, B1)
    a2 = add(A2, B2)
    c1 = add(C1, D1)
    c2 = add(C2, D2)
    e1 = add(A1, C1)
    e2 = add(A2, C2)
    f1 = add(B1, D1)
    f2 = add(B2, D2)
    g1 = add(add(a1, C1), D1)
    g2 = add(add(a2, C2), D2)
    m1 = mul(A1, A2)
    m2 = mul(B1, B2)
    m3 = mul(a1, a2)
    m4 = mul(C1, C2)
    m5 = mul(D1, D2)
    m6 = mul(c1, c2)
    m7 = mul(e1, e2)
    m8 = mul(f1, f2)
    m9 = mul(g1, g2)
    u = add(add(m6, m4), m5)
    t2 = tvp(m2)
    t4a = tvp(m4)
    t4b = tvp(t4a)
    t5a = tvp(m5)
    t5b = tvp(t5a)
    t5c = tvp(t5b)
    tua = tvp(u)
    tub = tvp(tua)
    t8 = tvp(m8)
    poly5 = add(add(t5a, t5b), t5c)
    pu = add(tua, tub)
    uq = add(add(u, tua), tub)
    m4x = add(m4, t4a)
    j = add(m1, t2)
    z0 = add(add(add(j, t4b), poly5), pu)
    z1 = add(add(add(add(m1, m4x), m5), m3), uq)
    z2 = add(add(j, m7), t8)
    z3 = add(add(add(m1, m3), m7), m9)
    return (z0, z1, z2, z3)


_STEP = {2: _as2_mul, 3: _cubic_mul}


def _fold(rules, add, mul, tvp, x, y):
    """The product of x and y, blocks of the field `rules` build over the base
    field with sum add, product mul and product by a tvp: the last rule's
    step template over the field E of the rules before it, run on runs of
    E's blocks with E's blockwise sum, E's product (the fold again) and the
    product by c, the walk of _plan(rules, by_c=True).  With no rules, the
    base product."""
    if not rules:
        return (mul(x[0], y[0]),)
    degree = rules[-1].degree
    d = len(x) // degree

    def runs(v):
        return [tuple(v[j * d:(j + 1) * d]) for j in range(degree)]
    z = _STEP[degree](lambda u, v: tuple(map(add, u, v)),
                      partial(_fold, rules[:-1], add, mul, tvp),
                      partial(_walk, add, tvp, _plan(rules, by_c=True)),
                      runs(x), runs(y))
    return tuple(b for run in z for b in run)


# asw4 keeps its hand-written program while its tally (9, 33, 9) is frozen:
# the fold over its rules takes (9, 26, 7).  Every other tuple runs the fold.
_HAND_WRITTEN = {RULES["asw4"]: _asw4_mul}


def _record(program):
    """Run program(add, mul, tvp) once on operations that each write one line
    of Python: a sum is an inline ^, a product mul(ctx, u, v), a product by a
    tvp(ctx, v), each into a new local.  Values are the names of locals, so the
    program gets and returns names.  The lines, the returned names and the
    (mults, adds, table-vector products) tally of the run."""
    lines, tally = [], [0, 0, 0]

    def step(op, expr):
        tally[op] += 1
        lines.append(f"    t{len(lines)} = {expr}")
        return f"t{len(lines) - 1}"

    out = program(lambda u, v: step(1, f"{u} ^ {v}"),
                  lambda u, v: step(0, f"mul(ctx, {u}, {v})"),
                  lambda v: step(2, f"tvp(ctx, {v})"))
    return lines, out, tuple(tally)


class _Compiled(NamedTuple):
    """The product and square of the field a tuple of rules builds, as
    straight-line Python, run by mul and square on normal_mul and alpha_mul
    and by _prefix_field on poly_mul_mod: the base kernels and their ctx are
    arguments, so a caller names them at each call.  The tallies are those
    of the recorded runs, which every run repeats as the source programs
    have no branches."""
    product: Callable      # (mul, tvp, ctx, *x, *y) -> blocks of x y
    square: Callable       # (tvp, ctx, n - 1, mask, *x) -> blocks of x^2, each
                           # x_p^2 the rotation of x_p's normal coordinates
    walk: Callable         # (tvp, ctx, *sq) -> blocks of x^2 from the x_p^2
    mul_tally: tuple
    square_tally: tuple


@cache
def _compiled(rules) -> _Compiled:
    """The product program of the field `rules` build (_HAND_WRITTEN's, or
    the fold over them) and their square walk, each recorded once and
    compiled into the one Python function that every caller runs."""
    d = len(_monomials(rules))
    x, y, sq = ([f"{v}{p}" for p in range(d)] for v in "xys")
    program = _HAND_WRITTEN.get(rules, partial(_fold, rules))
    mul_lines, mul_out, mul_tally = _record(lambda add, mul, tvp: program(add, mul, tvp, x, y))
    walk_lines, walk_out, square_tally = _record(
        lambda add, mul, tvp: _square_walk(add, tvp, rules, sq))
    walk = [*walk_lines, f"    return ({', '.join(walk_out)},)"]
    source = "\n".join((
        f"def product(mul, tvp, ctx, {', '.join(x + y)}):", *mul_lines,
        f"    return ({', '.join(mul_out)},)",
        f"def square(tvp, ctx, hi, mask, {', '.join(x)}):",
        *(f"    {s} = ({v} << 1 | {v} >> hi) & mask" for s, v in zip(sq, x)), *walk,
        f"def walk(tvp, ctx, {', '.join(sq)}):", *walk, ""))
    namespace = {}
    exec(compile(source, f"<{' '.join(r.gen for r in rules)} program>", "exec"), namespace)
    return _Compiled(namespace["product"], namespace["square"], namespace["walk"],
                     mul_tally, square_tally)


# frozen per-operation tallies (base_mults, base_adds, table_vector_products)
EXPECTED_MUL_COUNTS = {"as2": (3, 4, 1), "k3": (6, 15, 2),
                       "asw4": (9, 33, 9), "ka6": (18, 56, 8)}
EXPECTED_SQUARE_COUNTS = {"as2": (0, 1, 1), "k3": (0, 0, 1),
                          "asw4": (0, 9, 6), "ka6": (0, 4, 3)}
