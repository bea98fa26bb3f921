"""Existence predicates for stacking a second extension atop a first.

Given a normal basis N of F_{2^n}, the four questions answered here are
whether each of these two-step towers yields a field extension basis:

  as2 over as2 (degree 4 via two quadratic steps): possible iff n is odd.
  k3 over as2 (degree 6, the sextic tower): possible iff the quadratic
      generator b is a non-cube in F_{2^(2n)}.
  as2 over k3: never possible — the cube-root generator has absolute
      trace 0, so y^2 + y = b is solvable inside F_{2^(3n)} and the
      quadratic is reducible; a preimage y is produced as a witness.
  k3 over k3 (degree 9, bicubic): asked of a built cubic Kummer basis;
      possible when v3((2^(3n) - 1)/(2^n - 1)) = 1 (a sufficient
      criterion; the valuation is computed with exact integers).
"""

import json
from dataclasses import asdict, dataclass
from typing import Optional

from . import extbasis, linalg
from .errors import (ConstructionContradictionError, DomainError,
                     NoKummerExtensionError, UnsupportedDegreeError)
from .extbasis import ExtBasisCtx, ExtElem, _pack, _unpack
from .normal import NormalBasisCtx


def v3(q: int) -> int:
    """3-adic valuation of a positive integer."""
    if q <= 0:
        raise DomainError("valuation needs a positive integer")
    v = 0
    while q % 3 == 0:
        q //= 3
        v += 1
    return v


def biquadratic_possible(n: int) -> bool:
    """Whether a quadratic extension basis of F_{2^n} admits a second
    quadratic step (equivalently y^2 + y + b is irreducible over F_{2^(2n)})."""
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
    sufficient criterion v3((2^(3n)-1)/(2^n-1)) = 1, established for the
    primitive generator that build_kummer3 demands."""
    if ctx.kind != "k3":
        raise DomainError("expected a cubic Kummer extension context")
    q = ((1 << (3 * ctx.n)) - 1) // ((1 << ctx.n) - 1)
    return v3(q) == 1


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
            e = ExtElem(_unpack(1 << i, ctx.n, ctx.d))
            img = extbasis.square(ctx, e)
            rows.append(_pack(img.blocks, ctx.n) ^ (1 << i))
        sol = linalg.solve_linear(rows, ctx.m, _pack(x.blocks, ctx.n))
    return None if sol is None else ExtElem(_unpack(sol, ctx.n, ctx.d))


# --- report -------------------------------------------------------------

@dataclass
class TowerReport:
    """Verdicts for all four two-step towers over one base, with witnesses."""
    base_n: int
    as2_over_as2: bool
    k3_over_as2: bool
    as2_over_k3: bool
    k3_over_k3: Optional[bool]
    witnesses: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def build_tower_report(nb: NormalBasisCtx) -> TowerReport:
    """Evaluate every two-step tower predicate over one normal basis.

    k3_over_k3 is None when no cubic Kummer step exists to build upon.
    """
    n = nb.n
    witnesses = {}

    biq = biquadratic_possible(n)
    witnesses["as2_over_as2"] = f"n = {n} is {'odd' if biq else 'even'}"

    as2 = extbasis.build_as2(nb)
    k3a = kummer_over_as2_possible(as2)
    witnesses["k3_over_as2"] = (
        f"quadratic generator is a {'non-cube' if k3a else 'cube'} in F_2^{2 * n}")

    k3k3 = None
    try:
        k3 = extbasis.build_kummer3(nb)
    except (NoKummerExtensionError, UnsupportedDegreeError) as exc:
        witnesses["as2_over_k3"] = f"vacuous, no cubic step exists here: {exc}"
        witnesses["k3_over_k3"] = f"no cubic step exists here: {exc}"
    else:
        beta = extbasis.generator_element(k3, "b")
        if ext_trace(k3, beta) != extbasis.zero(k3):
            raise ConstructionContradictionError(
                "cube-root generator has nonzero absolute trace")
        gamma = artin_schreier_preimage(k3, beta)
        if gamma is None:
            raise ConstructionContradictionError(
                "no quadratic preimage despite zero trace")
        witnesses["as2_over_k3"] = (
            "trace(b) = 0; y with y^2 + y = b: "
            + extbasis.ext_to_hex(k3, gamma))
        k3k3 = bicubic_possible(k3)
        q = ((1 << (3 * n)) - 1) // ((1 << n) - 1)
        witnesses["k3_over_k3"] = f"v3((2^{3 * n} - 1)/(2^{n} - 1)) = v3({q}) = {v3(q)}"

    return TowerReport(base_n=n, as2_over_as2=biq, k3_over_as2=k3a,
                       as2_over_k3=False, k3_over_k3=k3k3, witnesses=witnesses)
