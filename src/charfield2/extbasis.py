"""Extended bases over normal bases of F_{2^n}: construction and counted arithmetic.

Four kinds of degree-d extension bases over a normal basis N = (a^(2^i)) of F_{2^n}:

  as2  (d=2): quadratic, generator b with b^2 = b + a; blocks (1, b)
  k3   (d=3): cubic Kummer, generator b with b^3 = a; blocks (1, b, b^2)
  asw4 (d=4): quartic tower, generators b0, b1 with b0^2 = b0 + a and
              b1^2 = b1 + (1+a)b0 + a^2; blocks (1, b0, b1, b0*b1)
  ka6  (d=6): sextic tower, b^2 = b + a and g^3 = b;
              blocks (1, b, g, g*b, g^2, g^2*b)

Elements are tuples of d NormalCoords blocks. Each product is a fixed straight-line
program; each square is read off the diagonal of structure_constants, the products
of basis monomials reduced by RULES. Their base-field multiplications, additions,
and table-vector products (multiplications by a) are tallied in the OpCounter.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, partial
from itertools import accumulate, product
from typing import Callable, NamedTuple

from . import field as gf
from .errors import (DomainError, InvalidElementError, NoKummerExtensionError,
                     UnsupportedDegreeError)
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
    chain entries a^k x_p^2 it sums, in the chains laid end to end."""
    diag = [cs for (p, q), cs in structure_constants(kind).items() if p == q]
    tops = [max(cs.values()).bit_length() - 1 for cs in diag]
    starts = list(accumulate(tops, lambda s, t: s + t + 1, initial=0))
    sums = tuple(tuple(starts[p] + k for p, cs in enumerate(diag)
                       for k in range(tops[p] + 1) if cs.get(r, 0) >> k & 1)
                 for r in range(len(diag)))
    return tuple(tops), sums


@dataclass
class OpCounter:
    """Tally of base-field operations performed through an ExtBasisCtx."""
    base_mults: int = 0
    base_adds: int = 0
    table_vector_products: int = 0

    def reset(self):
        self.base_mults = self.base_adds = self.table_vector_products = 0

    def as_tuple(self):
        return (self.base_mults, self.base_adds, self.table_vector_products)

    @contextmanager
    def paused(self):
        """Run a block without letting it disturb the tally."""
        saved = self.as_tuple()
        try:
            yield
        finally:
            (self.base_mults, self.base_adds,
             self.table_vector_products) = saved


@dataclass(frozen=True)
class ExtElem:
    """An element of the extended field as d blocks of normal coordinates."""
    blocks: tuple

    def __iter__(self):
        return iter(self.blocks)


class ExtBasisCtx:
    """An extended basis over a normal basis, with counted arithmetic."""

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

    # counted base-field primitives ------------------------------------
    def _add(self, u, v):
        self.counter.base_adds += 1
        return u ^ v

    def _mul(self, u, v):
        self.counter.base_mults += 1
        return normal_mul(self.base, u, v)

    def _tvp(self, v):
        self.counter.table_vector_products += 1
        return alpha_mul(self.base, v)

    def validate(self, x: ExtElem) -> ExtElem:
        if not isinstance(x, ExtElem) or len(x.blocks) != self.d:
            raise InvalidElementError(f"expected {self.d} blocks for kind {self.kind}")
        for b in x.blocks:
            if not isinstance(b, int) or b < 0 or b > self.base.field.mask:
                raise InvalidElementError(f"block {b!r} out of range for n={self.n}")
        return x


# --- builders ---------------------------------------------------------

def build_as2(nb: NormalBasisCtx) -> ExtBasisCtx:
    """Quadratic extension basis: b^2 = b + a (always defined; trace(a) = 1)."""
    return ExtBasisCtx(nb, "as2")


def build_kummer3(nb: NormalBasisCtx) -> ExtBasisCtx:
    """Cubic Kummer extension basis: b^3 = a (needs 3 | 2^n - 1 and a primitive)."""
    ctx = nb.field
    if ctx.order % 3 != 0:
        raise UnsupportedDegreeError(
            f"no cubic Kummer extension: 3 does not divide 2^{ctx.n} - 1")
    if gf.is_cube(ctx, nb.alpha):
        raise NoKummerExtensionError(
            "basis generator is a cube; x^3 - a is reducible")
    if not gf.is_primitive(ctx, nb.alpha):
        raise NoKummerExtensionError(
            "cubic Kummer construction requires a primitive basis generator; "
            "this one is a non-cube but does not generate the multiplicative group")
    return ExtBasisCtx(nb, "k3")


def build_asw4(nb: NormalBasisCtx) -> ExtBasisCtx:
    """Quartic tower basis from length-2 Witt vectors: b0^2 = b0 + a,
    b1^2 = b1 + (1+a)b0 + a^2 (defined for even n only). These are the
    rules witt.asw4_reduction_rules derives over F_2[a], for every a."""
    if nb.n % 2 != 0:
        raise UnsupportedDegreeError(
            "quartic tower rules define a field only for even n "
            "(the defining quadratic for b1 becomes reducible for odd n)")
    return ExtBasisCtx(nb, "asw4")


def build_ka6(nb: NormalBasisCtx) -> ExtBasisCtx:
    """Sextic tower basis: b^2 = b + a, then g^3 = b (needs b a non-cube
    in F_{2^(2n)}, tested with the quadratic extension's own arithmetic)."""
    as2 = build_as2(nb)
    if element_is_cube(as2, quad_generator(as2)):
        raise NoKummerExtensionError(
            "quadratic generator is a cube in F_{2^(2n)}; x^3 - b is reducible")
    return ExtBasisCtx(nb, "ka6")


def build_kind(nb: NormalBasisCtx, kind: str) -> ExtBasisCtx:
    """Dispatch to the builder for `kind`."""
    builders = {"as2": build_as2, "k3": build_kummer3,
                "asw4": build_asw4, "ka6": build_ka6}
    if kind not in builders:
        raise DomainError(f"unknown kind {kind!r}")
    return builders[kind](nb)


# --- element utilities ------------------------------------------------

def zero(ctx: ExtBasisCtx) -> ExtElem:
    return ExtElem((0,) * ctx.d)


def identity(ctx: ExtBasisCtx) -> ExtElem:
    """The field identity: the base identity embedded in the constant block."""
    return embed_base(ctx, ctx.base.one())


def embed_base(ctx: ExtBasisCtx, v: int) -> ExtElem:
    """Inject base-field normal coordinates into the constant block."""
    ctx.base._check(v)
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


# --- counted arithmetic -----------------------------------------------

def square(ctx: ExtBasisCtx, x: ExtElem) -> ExtElem:
    """x^2 = sum_p x_p^2 m_p^2, with m_p^2 reduced by the kind's rules: each
    block is shifted and run up its chain of table-vector products, and each
    output block is one sum of chain entries."""
    ctx.validate(x)
    tops, sums = _square_plan(ctx.kind)
    chains = []
    for v, top in zip(x.blocks, tops):
        chains.append(frobenius_shift(ctx.n, v))
        for _ in range(top):
            chains.append(ctx._tvp(chains[-1]))
    out = []
    for s in sums:
        z = chains[s[0]]
        for i in s[1:]:
            z = ctx._add(z, chains[i])
        out.append(z)
    return ExtElem(tuple(out))


def mul(ctx: ExtBasisCtx, x: ExtElem, y: ExtElem) -> ExtElem:
    """Multiplication by the kind's fixed subquadratic straight-line program."""
    ctx.validate(x)
    ctx.validate(y)
    return ExtElem(_MUL[ctx.kind](ctx, x.blocks, y.blocks))


def power(ctx: ExtBasisCtx, x: ExtElem, e: int) -> ExtElem:
    """x^e for e >= 0 by square-and-multiply (ops are counted like any other)."""
    if e < 0:
        raise DomainError(f"exponent must be nonnegative, got {e}")
    result = identity(ctx)
    base = x
    while e:
        if e & 1:
            result = mul(ctx, result, base)
        base = square(ctx, base)
        e >>= 1
    return result


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


def element_is_cube(ctx: ExtBasisCtx, x: ExtElem) -> bool:
    """Whether x is a cube in F_{2^m}, decided with the extension's own
    arithmetic (x^((2^m - 1)/3) = 1); does not disturb the op tally."""
    ctx.validate(x)
    if x == zero(ctx):
        return True
    q1 = (1 << ctx.m) - 1
    if q1 % 3 != 0:
        return True
    with ctx.counter.paused():
        return power(ctx, x, q1 // 3) == identity(ctx)


def _as2_mul(ctx, x, y):
    C0, C1 = x
    D0, D1 = y
    c01 = ctx._add(C0, C1)
    d01 = ctx._add(D0, D1)
    m0 = ctx._mul(C0, D0)
    m1 = ctx._mul(C1, D1)
    m01 = ctx._mul(c01, d01)
    z0 = ctx._add(m0, ctx._tvp(m1))
    z1 = ctx._add(m01, m0)
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


def _k3_mul(ctx, x, y):
    """k3 over F_{2^n}: coefficients are blocks and c = a."""
    return _cubic_mul(ctx._add, ctx._mul, ctx._tvp, x, y)


def _asw4_mul(ctx, x, y):
    A1, B1, C1, D1 = x
    A2, B2, C2, D2 = y
    a1 = ctx._add(A1, B1)
    a2 = ctx._add(A2, B2)
    c1 = ctx._add(C1, D1)
    c2 = ctx._add(C2, D2)
    e1 = ctx._add(A1, C1)
    e2 = ctx._add(A2, C2)
    f1 = ctx._add(B1, D1)
    f2 = ctx._add(B2, D2)
    g1 = ctx._add(ctx._add(a1, C1), D1)
    g2 = ctx._add(ctx._add(a2, C2), D2)
    m1 = ctx._mul(A1, A2)
    m2 = ctx._mul(B1, B2)
    m3 = ctx._mul(a1, a2)
    m4 = ctx._mul(C1, C2)
    m5 = ctx._mul(D1, D2)
    m6 = ctx._mul(c1, c2)
    m7 = ctx._mul(e1, e2)
    m8 = ctx._mul(f1, f2)
    m9 = ctx._mul(g1, g2)
    u = ctx._add(ctx._add(m6, m4), m5)
    t2 = ctx._tvp(m2)
    t4a = ctx._tvp(m4)
    t4b = ctx._tvp(t4a)
    t5a = ctx._tvp(m5)
    t5b = ctx._tvp(t5a)
    t5c = ctx._tvp(t5b)
    tua = ctx._tvp(u)
    tub = ctx._tvp(tua)
    t8 = ctx._tvp(m8)
    poly5 = ctx._add(ctx._add(t5a, t5b), t5c)
    pu = ctx._add(tua, tub)
    uq = ctx._add(ctx._add(u, tua), tub)
    m4x = ctx._add(m4, t4a)
    j = ctx._add(m1, t2)
    z0 = ctx._add(ctx._add(ctx._add(j, t4b), poly5), pu)
    z1 = ctx._add(ctx._add(ctx._add(ctx._add(m1, m4x), m5), m3), uq)
    z2 = ctx._add(ctx._add(j, m7), t8)
    z3 = ctx._add(ctx._add(ctx._add(m1, m3), m7), m9)
    return (z0, z1, z2, z3)


# ka6 helpers: elements of the quadratic subfield are (u, v) pairs of blocks

def _ka6_padd(ctx, p, q):
    return (ctx._add(p[0], q[0]), ctx._add(p[1], q[1]))


def _ka6_bmul(ctx, p):
    """Multiply (u + b*v) by b: b(u + bv) = a*v + b(u + v)."""
    u, v = p
    return (ctx._tvp(v), ctx._add(u, v))


def _ka6_mul(ctx, x, y):
    """The k3 program over F_{2^(2n)}: coefficients are (u, v) pairs, c = b."""
    z0, z1, z2 = _cubic_mul(partial(_ka6_padd, ctx), partial(_as2_mul, ctx),
                            partial(_ka6_bmul, ctx),
                            (x[0:2], x[2:4], x[4:6]), (y[0:2], y[2:4], y[4:6]))
    return (*z0, *z1, *z2)


_MUL = {"as2": _as2_mul, "k3": _k3_mul, "asw4": _asw4_mul, "ka6": _ka6_mul}

# frozen per-operation tallies (base_mults, base_adds, table_vector_products)
EXPECTED_MUL_COUNTS = {"as2": (3, 4, 1), "k3": (6, 15, 2),
                       "asw4": (9, 33, 9), "ka6": (18, 56, 8)}
EXPECTED_SQUARE_COUNTS = {"as2": (0, 1, 1), "k3": (0, 0, 1),
                          "asw4": (0, 9, 6), "ka6": (0, 4, 3)}
