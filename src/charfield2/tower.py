"""Existence predicates for stacking a second extension atop a first.

Given a normal basis N of F_{2^n}, the four questions answered here are
whether each of these two-step towers yields a field extension basis:

  as2 over as2 (degree 4 via two quadratic steps): possible iff n is odd.
  k3 over as2 (degree 6, the sextic tower): possible iff the quadratic
      generator b is a non-cube in F_{2^(2n)}.
  as2 over k3: never possible — the cube-root generator has absolute
      trace 0, so y^2 + y = b is solvable inside F_{2^(3n)} and the
      quadratic is reducible.
  k3 over k3 (degree 9, bicubic): always possible over a built cubic
      Kummer basis, whose generator is primitive and whose n is even.

The first, third and fourth are theorems, proved in the docstrings below;
only the second depends on the basis, and build_kind's own test of the
sextic's cube-root rule decides it. `charfield2 verify` checks each answer
against the oracle's big field.
"""

from . import extbasis
from .errors import DomainError, NoKummerExtensionError
from .extbasis import ExtBasisCtx


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
    true iff its generator b is a non-cube in F_{2^(2n)}, which is the test
    build_kind makes of the second rule of ka6 (g^3 = b) over the same base."""
    if ctx.kind != "as2":
        raise DomainError("expected a quadratic extension context")
    try:
        extbasis._check_rule(ctx.base, "ka6", 1)
    except NoKummerExtensionError:
        return False
    return True


def as2_over_k3_possible(ctx: ExtBasisCtx) -> bool:
    """Whether a cubic Kummer extension basis admits a quadratic step:
    never — the generator's absolute trace is 0, so y^2 + y + b splits."""
    if ctx.kind != "k3":
        raise DomainError("expected a cubic Kummer extension context")
    return False


def bicubic_possible(ctx: ExtBasisCtx) -> bool:
    """Whether a cubic Kummer extension basis admits a second cube-root step:
    always. build_kind demands for k3 a primitive a and 3 | 2^n - 1,
    so n is even, and b (b^3 = a) has order 3(2^n - 1) in F_{2^(3n)}; b is a
    cube there iff 9 divides q = (2^(3n) - 1)/(2^n - 1) = 1 + 2^n + 2^(2n).
    Write 2^n = 1 + 3t: then q = 3 + 9t + 9t^2 = 3 (mod 9), so b is never a
    cube and y^3 = b is irreducible."""
    if ctx.kind != "k3":
        raise DomainError("expected a cubic Kummer extension context")
    return True
