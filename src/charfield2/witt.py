"""Length-2 Witt vectors over F_{2^n} and the quartic reduction-rule derivation.

W_2(F_{2^n}) elements are pairs (x0, x1) of field elements with
    (x0,x1) + (y0,y1) = (x0+y0, x1+y1+x0*y0)
    (x0,x1) * (y0,y1) = (x0*y0, x1*y0^2 + y1*x0^2)
The additive inverse of (a,b) is (a, b+a^2); the ring has characteristic 4.
"""

from dataclasses import dataclass

from . import field as gf
from .errors import DomainError
from .normal import NormalBasisCtx, normal_mul


# --- generic Witt formulas (shared by concrete and symbolic evaluation) ---

def _w2_add(add, mul, x, y):
    return (add(x[0], y[0]), add(add(x[1], y[1]), mul(x[0], y[0])))


def _w2_mul(add, mul, square, x, y):
    return (mul(x[0], y[0]), add(mul(x[1], square(y[0])), mul(y[1], square(x[0]))))


def _wp(add, mul, square, x):
    frob = (square(x[0]), square(x[1]))
    return _w2_add(add, mul, frob, x)


# --- concrete Witt vectors over a field context ---

@dataclass(frozen=True)
class W2Vector:
    """A length-2 Witt vector over F_{2^n} (components in polynomial coordinates)."""
    ctx: gf.FieldCtx
    x0: int
    x1: int

    def __post_init__(self):
        gf.validate(self.ctx, self.x0)
        gf.validate(self.ctx, self.x1)

    def pair(self):
        return (self.x0, self.x1)


def _same_ctx(x: W2Vector, y: W2Vector) -> gf.FieldCtx:
    if x.ctx != y.ctx:
        raise DomainError("Witt vectors from different field contexts")
    return x.ctx


def w2_zero(ctx: gf.FieldCtx) -> W2Vector:
    return W2Vector(ctx, 0, 0)


def w2_one(ctx: gf.FieldCtx) -> W2Vector:
    return W2Vector(ctx, 1, 0)


def w2_add(x: W2Vector, y: W2Vector) -> W2Vector:
    ctx = _same_ctx(x, y)
    mul = lambda a, b: gf.poly_mul_mod(ctx, a, b)
    r = _w2_add(int.__xor__, mul, x.pair(), y.pair())
    return W2Vector(ctx, *r)


def w2_neg(x: W2Vector) -> W2Vector:
    """Additive inverse: (a, b) -> (a, b + a^2)."""
    return W2Vector(x.ctx, x.x0, x.x1 ^ gf.square(x.ctx, x.x0))


def w2_mul(x: W2Vector, y: W2Vector) -> W2Vector:
    ctx = _same_ctx(x, y)
    mul = lambda a, b: gf.poly_mul_mod(ctx, a, b)
    sq = lambda a: gf.square(ctx, a)
    r = _w2_mul(int.__xor__, mul, sq, x.pair(), y.pair())
    return W2Vector(ctx, *r)


def wp_map(x: W2Vector) -> W2Vector:
    """The additive map (x0, x1) -> (x0^2 + x0, x1^2 + x1 + x0^3)."""
    ctx = x.ctx
    mul = lambda a, b: gf.poly_mul_mod(ctx, a, b)
    sq = lambda a: gf.square(ctx, a)
    r = _wp(int.__xor__, mul, sq, x.pair())
    return W2Vector(ctx, *r)


def w2_enumerate(ctx: gf.FieldCtx):
    """All 4^n Witt vectors over F_{2^n} (for small n)."""
    top = 1 << ctx.n
    for x0 in range(top):
        for x1 in range(top):
            yield W2Vector(ctx, x0, x1)


# --- symbolic layer: polynomials in two generators over normal coordinates ---

class SymPoly:
    """Polynomial in generators (b0, b1) with NormalCoords coefficients."""

    __slots__ = ("nb", "terms")

    def __init__(self, nb: NormalBasisCtx, terms=None):
        self.nb = nb
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def const(cls, nb, coords):
        return cls(nb, {(0, 0): coords})

    @classmethod
    def gen(cls, nb, which: int):
        key = (1, 0) if which == 0 else (0, 1)
        return cls(nb, {key: nb.one()})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) ^ v
        return SymPoly(self.nb, out)

    __xor__ = __add__

    def __mul__(self, other):
        out = {}
        for (a0, a1), u in self.terms.items():
            for (b0, b1), v in other.terms.items():
                k = (a0 + b0, a1 + b1)
                out[k] = out.get(k, 0) ^ normal_mul(self.nb, u, v)
        return SymPoly(self.nb, out)

    def square(self):
        return self * self

    def reduce(self, rules):
        """Rewrite generator powers >= 2 using rules[g] = SymPoly for gen g squared."""
        cur = self
        while True:
            hit = None
            for (e0, e1), coeff in cur.terms.items():
                if e0 >= 2 and 0 in rules:
                    hit = ((e0, e1), coeff, 0)
                    break
                if e1 >= 2 and 1 in rules:
                    hit = ((e0, e1), coeff, 1)
                    break
            if hit is None:
                return cur
            (e0, e1), coeff, g = hit
            rest = dict(cur.terms)
            del rest[(e0, e1)]
            lower = (e0 - 2, e1) if g == 0 else (e0, e1 - 2)
            mono = SymPoly(self.nb, {lower: coeff})
            cur = SymPoly(self.nb, rest) + mono * rules[g]

    def __eq__(self, other):
        return isinstance(other, SymPoly) and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "SymPoly(0)"
        bits = []
        for (e0, e1), c in sorted(self.terms.items()):
            bits.append(f"b0^{e0} b1^{e1}: {c:#x}")
        return "SymPoly(" + ", ".join(bits) + ")"


def asw4_reduction_rules(nb: NormalBasisCtx):
    """Derive the quartic tower's reduction rules over a normal basis.

    Symbolically expands the defining equation wp((b0,b1)) + (alpha,alpha) = 0 in
    W_2 arithmetic and isolates b0^2 and b1^2. Returns (rule_b0, rule_b1), each a
    dict mapping generator-exponent pairs (e0,e1) to NormalCoords coefficients:
        rule_b0: b0^2 = b0 + alpha
        rule_b1: b1^2 = b1 + (1+alpha)*b0 + alpha^2
    (coefficients computed, not hard-coded).
    """
    b0 = SymPoly.gen(nb, 0)
    b1 = SymPoly.gen(nb, 1)
    alpha = SymPoly.const(nb, nb.alpha_coords())
    add = SymPoly.__add__
    mul = SymPoly.__mul__
    sq = SymPoly.square

    s = _wp(add, mul, lambda p: sq(p), (b0, b1))
    t = _w2_add(add, mul, s, (alpha, alpha))

    # t[0] = b0^2 + b0 + alpha = 0  ->  b0^2 = b0 + alpha
    rule_b0 = _isolate(t[0], (2, 0))
    # eliminate b0 powers >= 2 from t[1], then isolate b1^2
    t1 = t[1].reduce({0: rule_b0})
    rule_b1 = _isolate(t1, (0, 2))
    return _as_dict(rule_b0), _as_dict(rule_b1)


def _isolate(poly: SymPoly, mono):
    """Given poly = mono + rest = 0 with unit coefficient on mono, return rest."""
    if poly.terms.get(mono) != poly.nb.one():
        raise DomainError(f"cannot isolate {mono}: coefficient is not 1")
    rest = dict(poly.terms)
    del rest[mono]
    return SymPoly(poly.nb, rest)


def _as_dict(poly: SymPoly):
    return dict(poly.terms)


def asw4_rules_plugback(nb: NormalBasisCtx) -> bool:
    """Check wp((b0,b1)) + (alpha,alpha) == (0,0) symbolically under the rules."""
    rule_b0, rule_b1 = asw4_reduction_rules(nb)
    rules = {0: SymPoly(nb, rule_b0), 1: SymPoly(nb, rule_b1)}
    b0 = SymPoly.gen(nb, 0)
    b1 = SymPoly.gen(nb, 1)
    alpha = SymPoly.const(nb, nb.alpha_coords())
    add = SymPoly.__add__
    mul = SymPoly.__mul__

    s = _wp(add, mul, lambda p: p.square(), (b0, b1))
    t = _w2_add(add, mul, s, (alpha, alpha))
    return t[0].reduce(rules).is_zero() and t[1].reduce(rules).is_zero()
