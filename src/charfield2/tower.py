"""Existence predicates for stacking a second extension atop a first.

Given a normal basis N of F_{2^n}, the four questions answered here are
whether each of these two-step towers yields a field extension basis:

  as2 over as2 (degree 4 via two quadratic steps): possible iff n is odd.
  k3 over as2 (degree 6, the sextic tower): possible iff the quadratic
      generator b is a non-cube in F_{2^(2n)}.
  as2 over k3: never possible — the cube-root generator has absolute
      trace 0, so y^2 + y = b is solvable inside F_{2^(3n)} and the
      quadratic is reducible; a preimage y is produced as a witness.
  k3 over k3 (degree 9, bicubic): always possible over a built cubic
      Kummer basis, whose generator is primitive and whose n is even.

The first, third and fourth are theorems, proved in the docstrings below;
only the second depends on the basis and is computed.
"""

from . import extbasis, linalg
from .errors import DomainError
from .extbasis import ExtBasisCtx, ExtElem


def biquadratic_possible(n: int) -> bool:
    """Whether a quadratic extension basis of F_{2^n} admits a second
    quadratic step (equivalently y^2 + y + b is irreducible over F_{2^(2n)}).

    That is Tr_2n(b) = 1, and Tr_2n(b) = Tr_n(b + b^(2^n)) = Tr_n(1) = n mod 2,
    since b^(2^n) = b + 1 (the conjugate root of y^2 + y = a)."""
    if n < 1:
        raise DomainError("degree must be a positive integer")
    return n % 2 == 1


def kummer_over_as2_possible(ctx: ExtBasisCtx) -> bool:
    """Whether a quadratic extension basis admits a degree-3 Kummer step:
    true iff its generator b is a non-cube in F_{2^(2n)}."""
    if ctx.kind != "as2":
        raise DomainError("expected a quadratic extension context")
    return not extbasis.element_is_cube(ctx, extbasis.quad_generator(ctx))


def as2_over_k3_possible(ctx: ExtBasisCtx) -> bool:
    """Whether a cubic Kummer extension basis admits a quadratic step:
    never — the generator's absolute trace is 0, so y^2 + y + b splits."""
    if ctx.kind != "k3":
        raise DomainError("expected a cubic Kummer extension context")
    return False


def bicubic_possible(ctx: ExtBasisCtx) -> bool:
    """Whether a cubic Kummer extension basis admits a second cube-root step:
    always. build_kummer3 demands a primitive generator a and 3 | 2^n - 1,
    so n is even, and b (b^3 = a) has order 3(2^n - 1) in F_{2^(3n)}; b is a
    cube there iff 9 divides q = (2^(3n) - 1)/(2^n - 1) = 1 + 2^n + 2^(2n).
    Write 2^n = 1 + 3t: then q = 3 + 9t + 9t^2 = 3 (mod 9), so b is never a
    cube and y^3 = b is irreducible."""
    if ctx.kind != "k3":
        raise DomainError("expected a cubic Kummer extension context")
    return True


# --- constructive witnesses --------------------------------------------

def ext_trace(ctx: ExtBasisCtx, x: ExtElem) -> ExtElem:
    """Absolute trace of x down to F_2, summed with the extension's own
    arithmetic; the result is the zero or the identity element."""
    ctx.validate(x)
    with ctx.counter.paused():
        acc, t = x, x
        for _ in range(ctx.m - 1):
            t = extbasis.square(ctx, t)
            acc = ExtElem(tuple(u ^ v for u, v in zip(acc.blocks, t.blocks)))
    return acc


def artin_schreier_preimage(ctx: ExtBasisCtx, x: ExtElem):
    """Solve y^2 + y = x inside the extension; None when no solution exists
    (i.e. when the absolute trace of x is 1)."""
    ctx.validate(x)
    with ctx.counter.paused():
        rows = []
        for i in range(ctx.m):
            e = ExtElem(linalg.unpack_lanes(1 << i, ctx.n, ctx.d))
            img = extbasis.square(ctx, e)
            rows.append(linalg.pack_lanes(img.blocks, ctx.n) ^ (1 << i))
        sol = linalg.solve_linear(rows, ctx.m, linalg.pack_lanes(x.blocks, ctx.n))
    return None if sol is None else ExtElem(linalg.unpack_lanes(sol, ctx.n, ctx.d))
