"""Extended bases over normal bases of F_{2^n}: construction and counted arithmetic.

Four kinds of degree-d extension bases over a normal basis N = (a^(2^i)) of F_{2^n}:

  as2  (d=2): quadratic, generator b with b^2 = b + a; blocks (1, b)
  k3   (d=3): cubic Kummer, generator b with b^3 = a; blocks (1, b, b^2)
  asw4 (d=4): quartic tower, generators b0, b1 with b0^2 = b0 + a and
              b1^2 = b1 + (1+a)b0 + a^2; blocks (1, b0, b1, b0*b1)
  ka6  (d=6): sextic tower, b^2 = b + a and g^3 = b;
              blocks (1, b, g, g*b, g^2, g^2*b)

Elements are tuples of d NormalCoords blocks. Each product is a fixed straight-line
program, one function of the base field's sum, product and product by a (tvp); each
square is read off the diagonal of structure_constants (basis monomials multiplied
and reduced by RULES). Each adds its fixed tally of those operations to the OpCounter.
"""

from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import accumulate, product
from operator import xor
from typing import Callable, NamedTuple

from . import field as gf
from .errors import (DomainError, InvalidElementError, NoKummerExtensionError,
                     UnsupportedDegreeError)
from .linalg import pack_lanes, unpack_lanes
from .normal import NormalBasisCtx, alpha_mul, frobenius_shift, normal_mul
from .witt import SymPoly


class Rule(NamedTuple):
    """One adjoined generator y: a root of y^2 + y = c (degree 2, an
    Artin-Schreier step) or of y^3 = c (degree 3, a Kummer step), where
    c = rhs(mul, a, *earlier generators) for a product `mul` and the base
    generator a."""
    gen: str
    degree: int
    rhs: Callable


# Each kind's generators in adjunction order: the one statement of the
# defining rules, read by the contexts, the structure constants and the
# oracle, and checked against the Witt derivation by the tests.
RULES = {
    "as2": (Rule("b", 2, lambda mul, a: a),),
    "k3": (Rule("b", 3, lambda mul, a: a),),
    "asw4": (Rule("b0", 2, lambda mul, a: a),
             Rule("b1", 2, lambda mul, a, b0: b0 ^ mul(a, b0) ^ mul(a, a))),
    "ka6": (Rule("b", 2, lambda mul, a: a),
            Rule("g", 3, lambda mul, a, b: b)),
}
KINDS = tuple(RULES)


def _monomials(rules) -> tuple:
    """Exponent tuples of the basis monomials, the first generator's
    exponent varying fastest; ((),) for no generators."""
    degrees = [r.degree for r in reversed(rules)]
    return tuple(e[::-1] for e in product(*map(range, degrees)))


def rule_rewrites(rules) -> dict:
    """The rules over F_2[a] as SymPoly.reduce rewrites {g: (degree, y^degree)}:
    y^2 = y + c for an Artin-Schreier step, y^3 = c for a Kummer step."""
    gens = [SymPoly.gen(g, len(rules)) for g in range(len(rules))]
    a = SymPoly.const(0b10, len(rules))
    return {g: (r.degree, r.rhs(SymPoly.__mul__, a, *gens[:g])
                + (gens[g] if r.degree == 2 else SymPoly()))
            for g, r in enumerate(rules)}


@cache
def structure_constants(kind: str) -> dict:
    """(p, q) -> {r: c_pqr} with m_p m_q = sum_r c_pqr(a) m_r, each c_pqr an
    F_2[a] bitmask: the product of basis monomials reduced by RULES[kind].
    These are identities of polynomials in a, so they hold over every basis.
    The result is cached per kind and shared: callers must not change it."""
    if kind not in RULES:
        raise DomainError(f"unknown kind {kind!r}")
    monomials = _monomials(RULES[kind])
    rewrites = rule_rewrites(RULES[kind])
    out = {}
    for (p, e), (q, f) in product(enumerate(monomials), repeat=2):
        prod = SymPoly({tuple(map(int.__add__, e, f)): 1}).reduce(rewrites)
        out[p, q] = {monomials.index(g): c for g, c in prod.terms.items()}
    return out


@cache
def _square_plan(kind: str):
    """Per input block p, the length of its chain of products by a (the top
    power of a in the reduced m_p^2); per output block r, the indices of the
    chain entries a^k x_p^2 it sums (chains laid end to end); the walk's tally."""
    diag = [cs for (p, q), cs in structure_constants(kind).items() if p == q]
    tops = [max(cs.values()).bit_length() - 1 for cs in diag]
    starts = list(accumulate(tops, lambda s, t: s + t + 1, initial=0))
    sums = tuple(tuple(starts[p] + k for p, cs in enumerate(diag)
                       for k in range(tops[p] + 1) if cs.get(r, 0) >> k & 1)
                 for r in range(len(diag)))
    return tuple(tops), sums, (0, sum(len(s) - 1 for s in sums), sum(tops))


def _square_walk(add, tvp, kind, sq):
    """The blocks of x^2 from sq, the squares x_p^2 of x's blocks: each runs up
    its chain of products by a, and each output is one sum of chain entries."""
    tops, sums, _ = _square_plan(kind)
    chains = []
    for v, top in zip(sq, tops):
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


@dataclass
class OpCounter:
    """Tally of base-field operations: each mul and square records its fixed one."""
    base_mults: int = 0
    base_adds: int = 0
    table_vector_products: int = 0

    def reset(self):
        self.base_mults = self.base_adds = self.table_vector_products = 0

    def record(self, tally):
        """Add one operation's (mults, adds, table-vector products)."""
        self.base_mults += tally[0]
        self.base_adds += tally[1]
        self.table_vector_products += tally[2]

    def as_tuple(self):
        return (self.base_mults, self.base_adds, self.table_vector_products)


@dataclass(frozen=True)
class ExtElem:
    """An element of the extended field as d blocks of normal coordinates."""
    blocks: tuple

    def __iter__(self):
        return iter(self.blocks)


class ExtBasisCtx:
    """An extended basis over a normal basis, with an OpCounter."""

    def __init__(self, base: NormalBasisCtx, kind: str):
        if kind not in RULES:
            raise DomainError(f"unknown kind {kind!r}")
        self.base = base
        self.kind = kind
        self.n = base.n
        self.gens = tuple(r.gen for r in RULES[kind])
        self.monomials = _monomials(RULES[kind])
        self.d = len(self.monomials)
        self.m = self.n * self.d
        self.counter = OpCounter()

    def __repr__(self):
        return f"ExtBasisCtx(kind={self.kind}, n={self.n}, m={self.m})"

    def validate(self, x: ExtElem) -> ExtElem:
        if not isinstance(x, ExtElem) or len(x.blocks) != self.d:
            raise InvalidElementError(f"expected {self.d} blocks for kind {self.kind}")
        for b in x.blocks:
            gf.validate(self.base.field, b)
        return x


# --- builder ----------------------------------------------------------

@cache
def _prefix_kind(kind: str, g: int):
    """The kind whose rules reduce as RULES[kind][:g] do, names aside; None for g = 0."""
    def rewrites(rules):
        return [(deg, poly.terms) for deg, poly in rule_rewrites(rules).values()]
    return next((k for k in RULES if rewrites(RULES[k]) == rewrites(RULES[kind][:g])), None)


def _prefix_field(nb: NormalBasisCtx, kind):
    """Product and squaring of the field `kind` (None: no rules) builds over nb.field, on
    d lanes of n polynomial coordinates: its own program and square walk on poly_mul_mod."""
    n, mul, sq = nb.n, partial(gf.poly_mul_mod, nb.field), partial(gf.square, nb.field)
    if kind is None:
        return mul, sq
    tvp, blocks = partial(mul, nb.alpha), partial(unpack_lanes, width=n,
                                                  count=len(_monomials(RULES[kind])))
    return (lambda x, y: pack_lanes(_MUL[kind](xor, mul, tvp, blocks(x), blocks(y)), n),
            lambda x: pack_lanes(_square_walk(xor, tvp, kind, map(sq, blocks(x))), n))


def _check_rule(nb: NormalBasisCtx, kind: str, g: int) -> None:
    """Raise unless rule g of RULES[kind] is irreducible over the field of
    degree k that the rules before it build over nb: y^2 + y = c iff
    Tr_k(c) = 1, y^3 = c iff 3 | 2^k - 1 and c is not a cube
    (Lidl-Niederreiter, Finite Fields, Thms 3.78 and 3.75).  A cube c raises
    NoKummerExtensionError, any other refusal UnsupportedDegreeError.  Reads
    only nb.field and nb.alpha."""
    y, degree, rhs = RULES[kind][g]
    mul, sq = _prefix_field(nb, _prefix_kind(kind, g))
    monomials = _monomials(RULES[kind][:g])
    k = nb.n * len(monomials)
    c = rhs(mul, nb.alpha, *(1 << nb.n * i for i, e in enumerate(monomials) if sum(e) == 1))
    if degree == 2 and reduce(xor, gf._frobenius_orbit(sq, c, k)) != 1:
        raise UnsupportedDegreeError(f"no Artin-Schreier extension: {y}^2 + {y} = c "
                                     f"is reducible over F_{{2^{k}}}, as Tr(c) = 0")
    if degree == 3 and ((1 << k) - 1) % 3:
        raise UnsupportedDegreeError(f"no cubic Kummer extension: 3 does not divide 2^{k} - 1")
    if degree == 3 and gf._is_cube(partial(gf._square_and_multiply, mul, sq, 1), 0, 1,
                                   (1 << k) - 1, c):
        raise NoKummerExtensionError(f"no cubic Kummer extension: {y}^3 = c is "
                                     f"reducible over F_{{2^{k}}}, as c is a cube")


def build_kind(nb: NormalBasisCtx, kind: str) -> ExtBasisCtx:
    """The extended basis of `kind` over nb, once _check_rule passes each rule
    of RULES[kind] in turn.  k3 also needs a primitive a, the paper's
    condition.  Reads only nb.field and nb.alpha.

    A cube c or a non-primitive a raises NoKummerExtensionError, any other
    refusal UnsupportedDegreeError, which depends on (kind, n) alone: k is n
    times the earlier degrees, and each Artin-Schreier trace in RULES is
    fixed by n.  Tr_n(a) = 1, the sum of the normal basis: in F_2, nonzero.
    Over F_{2^n}(b0), b0^(2^n) = b0 + 1, so Tr_2n(u + v b0) = Tr_n(v) and
    Tr_2n(b0 + a b0 + a^2) = Tr_n(1 + a) = n + 1 (mod 2)."""
    ctx = ExtBasisCtx(nb, kind)
    for g in range(len(RULES[kind])):
        _check_rule(nb, kind, g)
    if kind == "k3" and not gf.is_primitive(nb.field, nb.alpha):
        raise NoKummerExtensionError("no cubic Kummer extension: a is not primitive")
    return ctx


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

def square(ctx: ExtBasisCtx, x: ExtElem) -> ExtElem:
    """x^2 = sum_p x_p^2 m_p^2, with m_p^2 reduced by the kind's rules."""
    ctx.validate(x)
    ctx.counter.record(_square_plan(ctx.kind)[2])
    return ExtElem(_square_walk(xor, partial(alpha_mul, ctx.base), ctx.kind,
                                map(partial(frobenius_shift, ctx.n), x.blocks)))


def mul(ctx: ExtBasisCtx, x: ExtElem, y: ExtElem) -> ExtElem:
    """Multiplication by the kind's fixed subquadratic straight-line program."""
    ctx.validate(x)
    ctx.validate(y)
    ctx.counter.record(_tally(ctx.kind))
    return ExtElem(_MUL[ctx.kind](xor, partial(normal_mul, ctx.base),
                                  partial(alpha_mul, ctx.base), x.blocks, y.blocks))


def power(ctx: ExtBasisCtx, x: ExtElem, e: int) -> ExtElem:
    """x^e for e >= 0 by square-and-multiply (ops are counted like any other)."""
    if e < 0:
        raise DomainError(f"exponent must be nonnegative, got {e}")
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


def _as2_mul(add, mul, tvp, x, y):
    C0, C1 = x
    D0, D1 = y
    c01 = add(C0, C1)
    d01 = add(D0, D1)
    m0 = mul(C0, D0)
    m1 = mul(C1, D1)
    m01 = mul(c01, d01)
    z0 = add(m0, tvp(m1))
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


def _ka6_mul(add, mul, tvp, x, y):
    """The k3 program over F_{2^(2n)}: coefficients u + bv are pairs (u, v)
    multiplied by the as2 program, and c = b, with b(u + bv) = av + b(u + v)."""
    z0, z1, z2 = _cubic_mul(lambda p, q: (add(p[0], q[0]), add(p[1], q[1])),
                            partial(_as2_mul, add, mul, tvp),
                            lambda p: (tvp(p[1]), add(p[0], p[1])),
                            (x[0:2], x[2:4], x[4:6]), (y[0:2], y[2:4], y[4:6]))
    return (*z0, *z1, *z2)


_MUL = {"as2": _as2_mul, "k3": _cubic_mul, "asw4": _asw4_mul, "ka6": _ka6_mul}


@cache
def _tally(kind: str) -> tuple:
    """(mults, adds, table-vector products) of every run of the kind's product
    program (add, mul, tvp, x, y), which has no branches: one run counted on
    operations that only log their calls."""
    log, zeros = [], (0,) * len(_monomials(RULES[kind]))
    _MUL[kind](lambda u, v: log.append("add"), lambda u, v: log.append("mul"),
               lambda v: log.append("tvp"), zeros, zeros)
    return tuple(map(log.count, ("mul", "add", "tvp")))


# frozen per-operation tallies (base_mults, base_adds, table_vector_products)
EXPECTED_MUL_COUNTS = {"as2": (3, 4, 1), "k3": (6, 15, 2),
                       "asw4": (9, 33, 9), "ka6": (18, 56, 8)}
EXPECTED_SQUARE_COUNTS = {"as2": (0, 1, 1), "k3": (0, 0, 1),
                          "asw4": (0, 9, 6), "ka6": (0, 4, 3)}
