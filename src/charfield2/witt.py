"""Length-2 Witt vector formulas and the quartic reduction-rule derivation.

W_2(F_{2^n}) elements are pairs (x0, x1) of field elements with
    (x0,x1) + (y0,y1) = (x0+y0, x1+y1+x0*y0)
    (x0,x1) * (y0,y1) = (x0*y0, x1*y0^2 + y1*x0^2)
The additive inverse of (a,b) is (a, b+a^2); the ring has characteristic 4.
The formulas take the component ring's operations as arguments; the package
evaluates them symbolically, over polynomials in the quartic generators.
"""

from .errors import DomainError
from .normal import NormalBasisCtx, normal_mul


# --- Witt formulas, generic in the component ring's operations ---

def _w2_add(add, mul, x, y):
    return (add(x[0], y[0]), add(add(x[1], y[1]), mul(x[0], y[0])))


def _w2_mul(add, mul, square, x, y):
    return (mul(x[0], y[0]), add(mul(x[1], square(y[0])), mul(y[1], square(x[0]))))


def _wp(add, mul, square, x):
    """The additive map (x0, x1) -> (x0^2 + x0, x1^2 + x1 + x0^3)."""
    frob = (square(x[0]), square(x[1]))
    return _w2_add(add, mul, frob, x)


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

