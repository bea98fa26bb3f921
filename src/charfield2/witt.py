"""Length-2 Witt vector formulas and the quartic reduction-rule derivation.

W_2(F_{2^n}) elements are pairs (x0, x1) of field elements with
    (x0,x1) + (y0,y1) = (x0+y0, x1+y1+x0*y0)
    (x0,x1) * (y0,y1) = (x0*y0, x1*y0^2 + y1*x0^2)
The additive inverse of (a,b) is (a, b+a^2); the ring has characteristic 4.
The formulas take the component ring's operations as arguments; the package
evaluates them symbolically, over polynomials in the quartic generators with
coefficients in F_2[a], where a stands for any normal basis generator.
SymPoly also reduces by any kind's rules, for extbasis.structure_constants.
"""

from .bitpoly import poly_mul
from .errors import DomainError


# --- Witt formulas, generic in the component ring's operations ---

def _w2_add(add, mul, x, y):
    return (add(x[0], y[0]), add(add(x[1], y[1]), mul(x[0], y[0])))


def _w2_mul(add, mul, square, x, y):
    return (mul(x[0], y[0]), add(mul(x[1], square(y[0])), mul(y[1], square(x[0]))))


def _wp(add, mul, square, x):
    """The additive map (x0, x1) -> (x0^2 + x0, x1^2 + x1 + x0^3)."""
    frob = (square(x[0]), square(x[1]))
    return _w2_add(add, mul, frob, x)


# --- symbolic layer: polynomials in generators over F_2[a] ---

class SymPoly:
    """Polynomial in some count of generators with coefficients in F_2[a]:
    terms map exponent tuples to int bitmasks (bit i is the coefficient of a^i)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def const(cls, coeff, count):
        return cls({(0,) * count: coeff})

    @classmethod
    def gen(cls, which: int, count: int):
        return cls({tuple(int(g == which) for g in range(count)): 1})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) ^ v
        return SymPoly(out)

    __xor__ = __add__

    def __mul__(self, other):
        out = {}
        for e, u in self.terms.items():
            for f, v in other.terms.items():
                k = tuple(map(int.__add__, e, f))
                out[k] = out.get(k, 0) ^ poly_mul(u, v)
        return SymPoly(out)

    def square(self):
        return self * self

    def reduce(self, rewrites):
        """Rewrite every power g^e with e >= degree by rewrites[g] =
        (degree, the SymPoly equal to g^degree) until none is left."""
        for e in self.terms:
            for g, (deg, poly) in rewrites.items():
                if e[g] >= deg:
                    rest = dict(self.terms)
                    lower = SymPoly({e[:g] + (e[g] - deg,) + e[g + 1:]: rest.pop(e)})
                    return (SymPoly(rest) + lower * poly).reduce(rewrites)
        return self


def asw4_reduction_rules():
    """Derive the quartic tower's reduction rules, basis-free.

    Symbolically expands the defining equation wp((b0,b1)) + (a,a) = 0 in
    W_2 arithmetic over F_2[a] and isolates b0^2 and b1^2. Returns
    (rule_b0, rule_b1), each a dict mapping generator-exponent pairs (e0,e1)
    to F_2[a] bitmasks:
        rule_b0: b0^2 = b0 + a
        rule_b1: b1^2 = b1 + (1+a)*b0 + a^2
    (coefficients computed, not hard-coded). These are identities of
    polynomials in a, so they hold over every normal basis generator a.
    """
    b0 = SymPoly.gen(0, 2)
    b1 = SymPoly.gen(1, 2)
    a = SymPoly.const(0b10, 2)
    add = SymPoly.__add__
    mul = SymPoly.__mul__

    s = _wp(add, mul, SymPoly.square, (b0, b1))
    t = _w2_add(add, mul, s, (a, a))

    # t[0] = b0^2 + b0 + a = 0  ->  b0^2 = b0 + a
    rule_b0 = _isolate(t[0], (2, 0))
    # eliminate b0 powers >= 2 from t[1], then isolate b1^2
    t1 = t[1].reduce({0: (2, rule_b0)})
    rule_b1 = _isolate(t1, (0, 2))
    return rule_b0.terms, rule_b1.terms


def _isolate(poly: SymPoly, mono):
    """Given poly = mono + rest = 0 with unit coefficient on mono, return rest."""
    if poly.terms.get(mono) != 1:
        raise DomainError(f"cannot isolate {mono}: coefficient is not 1")
    rest = dict(poly.terms)
    del rest[mono]
    return SymPoly(rest)
