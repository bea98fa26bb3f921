"""Command-line front end: searches, tables, densities, verification, benchmarks.

Subcommands
  cross-sums  table cross-product sums of the pinned normal bases
  densities   normal/quadratic/Kummer extended-basis density records
  tables      multiplication tables (base or extended, computed vs closed form)
  verify      oracle-equivalence, count, and tower-predicate suites
  bench       per-operation cost accounting for the extended-basis programs
  search      enumerate normal elements of a field

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 missing fixture.
All CSV/JSON output is byte-identical across runs for the same arguments
(wall-clock timing is only written to stderr).
"""

import argparse
import csv
import functools
import io
import json
import random
import sys
import time
from itertools import chain, islice
from math import prod

from . import bitpoly, extbasis, field as gf, fixtures, normal, tables, tower
from .errors import (CharField2Error, ConstructionContradictionError,
                     DomainError, MissingFixtureError, NoKummerExtensionError,
                     NotNormalError, UnsupportedDegreeError)

_KIND_CHOICES = extbasis.KINDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charfield2",
        description="Normal bases of F_2^n and their quadratic, cubic Kummer, "
                    "quartic, and sextic extended bases: tables, densities, "
                    "counted arithmetic, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_default="csv"):
        p.add_argument("--format", choices=("csv", "json"), default=fmt_default,
                       help="output format (default %(default)s)")
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("cross-sums",
                       help="table cross-product sums of pinned normal bases")
    p.add_argument("--n", type=int, nargs="+", default=None,
                   help="degrees to report (default: all pinned degrees)")
    p.add_argument("--modulus", default=None,
                   help="explicit modulus ('auto' = least irreducible); "
                        "needs a single --n")
    p.add_argument("--alpha", default=None,
                   help="explicit normal element ('search' = first found)")
    common(p)

    p = sub.add_parser("densities",
                       help="density records for degrees that are multiples of 6")
    p.add_argument("--m", type=int, nargs="+", default=None,
                   help="degrees to report (default: 6, 12, ..., 78)")
    common(p)

    p = sub.add_parser("tables",
                       help="multiplication table of a base or extended basis")
    p.add_argument("--n", type=int, required=True, help="base degree")
    p.add_argument("--kind", choices=_KIND_CHOICES, default=None,
                   help="extended-basis kind (omit for the base table)")
    p.add_argument("--modulus", default=None,
                   help="explicit modulus ('auto' = least irreducible)")
    p.add_argument("--alpha", default=None,
                   help="explicit normal element ('search' = first normal "
                        "element the kind's builder accepts)")
    common(p)

    p = sub.add_parser("verify",
                       help="run equivalence/count/tower suites, report failures")
    p.add_argument("--n", type=int, default=8,
                   help="largest base degree exercised (default %(default)s)")
    p.add_argument("--kind", choices=_KIND_CHOICES, nargs="+",
                   default=list(_KIND_CHOICES),
                   help="kinds to exercise (default: all)")
    p.add_argument("--limit", type=int, default=50,
                   help="random pairs per equivalence check (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random pairs (default %(default)s)")
    common(p, fmt_default="json")

    p = sub.add_parser("bench",
                       help="per-operation cost accounting for one kind")
    p.add_argument("--kind", choices=_KIND_CHOICES, required=True)
    p.add_argument("--n", type=int, required=True, help="base degree")
    p.add_argument("--modulus", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--limit", type=int, default=100,
                   help="iterations (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random operands (default %(default)s)")
    common(p)

    p = sub.add_parser("search", help="enumerate normal elements of a field")
    p.add_argument("--n", type=int, required=True, help="degree")
    p.add_argument("--modulus", default=None,
                   help="modulus (default: least irreducible of the degree)")
    p.add_argument("--require-primitive", action="store_true",
                   help="only elements generating the multiplicative group")
    p.add_argument("--limit", type=int, default=10,
                   help="stop after this many hits (default %(default)s)")
    common(p)

    return parser


# --- output plumbing ----------------------------------------------------

def _emit(args, header, rows, json_obj) -> None:
    if args.format == "json":
        text = json.dumps(json_obj, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise CharField2Error(
                f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _field_for(n, modulus):
    """The field of degree n modulo --modulus (None or 'auto': the least
    irreducible of degree n); a degree over the cap is refused first."""
    gf._check_cap(n)
    mod = (bitpoly.min_irreducible(n) if modulus in (None, "auto")
           else bitpoly.parse(modulus))
    ctx = gf.FieldCtx(mod)
    if ctx.n != n:
        raise UnsupportedDegreeError(
            f"modulus degree {ctx.n} does not match --n {n}")
    return ctx


def _first_basis(ctx, cands, kind=None):
    """The normal basis over the first candidate when kind is None, else the
    first extended basis of `kind` its builder accepts. A refused degree (n
    alone decides it) raises at once; so does the last refused candidate."""
    refusal = NotNormalError(f"no normal element found for n={ctx.n}")
    for a in cands:
        nb = normal.build_normal_basis(ctx, a)
        if kind is None:
            return nb
        try:
            return extbasis.build_kind(nb, kind)
        except NoKummerExtensionError as exc:
            refusal = exc.with_traceback(None)  # its frames would form a cycle
    raise refusal


def _fixture_field(n):
    """The pinned fixture's field of degree n, and its generator as candidate."""
    fixture = fixtures.get_fixture(n)
    return (gf.FieldCtx(bitpoly.parse(fixture.modulus)),
            [bitpoly.parse(fixture.alpha)])


def _resolve_basis(n, modulus, alpha, kind=None):
    """The basis of `kind` (None: the normal basis) over the pinned fixture
    when neither --modulus nor --alpha is given, else over --alpha, where
    'search' takes the first normal element the kind's builder accepts."""
    if modulus is None and alpha is None:
        return _first_basis(*_fixture_field(n), kind)
    if modulus is None or alpha is None:
        raise UnsupportedDegreeError(
            "--modulus and --alpha must be given together")
    ctx = _field_for(n, modulus)
    cands = (normal.normal_elements(ctx) if alpha == "search"
             else [bitpoly.parse(alpha)])
    return _first_basis(ctx, cands, kind)


def _basis_for_kind(kind, n):
    """The extended basis of `kind` at degree n over the pinned fixture, else
    over the first of 60 normal elements its builder accepts; None when the
    builder refuses the degree or every candidate."""
    if n in fixtures.FIXTURES:
        ctx, cands = _fixture_field(n)
    else:
        ctx, cands = gf.FieldCtx(bitpoly.min_irreducible(n)), []
    scan = (a for a in islice(normal.normal_elements(ctx), 60)
            if a not in cands)
    try:
        return _first_basis(ctx, chain(cands, scan), kind)
    except (UnsupportedDegreeError, NoKummerExtensionError):
        return None


# --- subcommands ----------------------------------------------------------

def cmd_cross_sums(args) -> int:
    if args.modulus is not None or args.alpha is not None:
        if args.n is None or len(args.n) != 1:
            raise UnsupportedDegreeError(
                "an explicit --modulus/--alpha needs exactly one --n")
        entries = [(_resolve_basis(args.n[0], args.modulus, args.alpha), None)]
    else:
        degrees = args.n if args.n is not None else fixtures.fixture_degrees()
        entries = [(f.basis(), f) for f in map(fixtures.get_fixture, degrees)]

    header = ("n", "modulus", "normal_element", "cross_sum", "expected", "match")
    rows, failures = [], 0
    for nb, fixture in entries:
        cs = normal.cross_product_sum(nb)
        expected = fixture.cross_sum if fixture else ""
        match = "" if fixture is None else ("yes" if cs == expected else "no")
        failures += match == "no"
        rows.append((nb.n, bitpoly.to_human(nb.field.modulus),
                     bitpoly.to_human(nb.alpha), cs, expected, match))
    _emit(args, header, rows,
          [dict(zip(header, r)) for r in rows])
    return 1 if failures else 0


# (divisor, kind, records): a column's closed form is over fixture m / divisor.
_DENSITY_COLUMNS = (
    (1, None, fixtures.EXPECTED_NORMAL_DENSITY),
    (2, "as2", fixtures.EXPECTED_QUAD_DENSITY),
    (3, "k3", {**fixtures.EXPECTED_KUMMER_DENSITY,
               **dict.fromkeys(fixtures.KUMMER_NONE, "-")}),
)


def cmd_densities(args) -> int:
    degrees = args.m if args.m is not None else list(fixtures.DENSITY_DEGREES)
    if min(degrees) < 1:
        raise DomainError(f"--m must be at least 1, got {min(degrees)}")
    header = ("m", "d_n", "d_n_expected", "d_a", "d_a_expected",
              "d_k", "d_k_expected")
    rows, failures = [], 0
    basis = functools.cache(lambda n: fixtures.get_fixture(n).basis())  # one build per degree
    for m in degrees:
        row = [m]
        for divisor, kind, records in _DENSITY_COLUMNS:
            computed = ""
            if m % divisor == 0 and m // divisor in fixtures.FIXTURES:
                try:
                    computed = sum(tables.expected_counts(basis(m // divisor), kind))
                except (UnsupportedDegreeError, NoKummerExtensionError):
                    computed = "-"
            expected = records.get(m, "")
            failures += "" not in (computed, expected) and computed != expected
            row += (computed, expected)
        if all(v == "" for v in row[1:]):
            raise DomainError(
                f"no density is computable or recorded for m = {m}")
        rows.append(row)
    _emit(args, header, rows, [dict(zip(header, r)) for r in rows])
    return 1 if failures else 0


def cmd_tables(args) -> int:
    if args.kind is not None:  # refuse an over-cap oracle field before any scan
        gf._check_cap(args.n * prod(r.degree for r in extbasis.RULES[args.kind]))
    basis = _resolve_basis(args.n, args.modulus, args.alpha, args.kind)
    if args.kind is None:
        width = (basis.n + 7) // 8
        header = ("i", "row", "popcount")
        rows = [(i, r.to_bytes(width, "little").hex(), r.bit_count())
                for i, r in enumerate(basis.table)]
        _emit(args, header, rows,
              {"n": basis.n, "weight": basis.weight, "density": basis.density,
               "rows": [r for _, r, _ in rows]})
        return 0

    ts = tables.build_tables(tables.build_embedding(basis))
    expected = (tables.closed_form_tables(basis).per_table_nonzeros
                if args.kind in tables.CLOSED_FORM_KINDS else None)
    header = ("table_index", "nonzeros", "closed_form", "match")
    rows, failures = [], 0
    for k, nz in enumerate(ts.per_table_nonzeros):
        exp = expected[k] if expected is not None else ""
        match = "" if expected is None else ("yes" if nz == exp else "no")
        failures += match == "no"
        rows.append((k, nz, exp, match))
    _emit(args, header, rows,
          {"kind": args.kind, "n": basis.n, "m": ts.m,
           "per_table_nonzeros": list(ts.per_table_nonzeros),
           "closed_form": None if expected is None else list(expected),
           "density": ts.density})
    return 1 if failures else 0


def _oracle(ctx, oracles):
    """The oracle embedding of ctx, built on the first request and kept in
    `oracles` by (kind, n); None when its field is over the degree cap, after
    a passing oracle_skipped row naming the cap on the first request."""
    key = (ctx.kind, ctx.n)
    if key not in oracles:
        try:
            oracles[key] = tables.build_embedding(ctx)
        except UnsupportedDegreeError as exc:
            oracles[key] = None
            yield ("oracle_skipped", *key, True, str(exc))
    return oracles[key]


def _op_counts(ctx, op, pairs):
    """Run `op` ("mul" or "square") on each (x, y) of `pairs` (square takes
    x). Returns the tally per operation, the tally expected of ctx.kind, and
    whether they agree (every call adds the same fixed tally)."""
    ctx.counter.reset()
    if op == "mul":
        for x, y in pairs:
            extbasis.mul(ctx, x, y)
        want = extbasis.EXPECTED_MUL_COUNTS[ctx.kind]
    else:
        for x, _ in pairs:
            extbasis.square(ctx, x)
        want = extbasis.EXPECTED_SQUARE_COUNTS[ctx.kind]
    got = tuple(t // len(pairs) for t in ctx.counter.as_tuple())
    return got, want, got == want


def _random_elem(rng, ctx):
    """A uniformly drawn element of the extension ctx, block by block: each
    block the draw randrange(1 << n) makes, n + 1 random bits until the top
    one is clear, without randrange's frames."""
    draw, n, blocks = rng.getrandbits, ctx.n, []
    for _ in range(ctx.d):
        while (r := draw(n + 1)) >> n:
            pass
        blocks.append(r)
    return extbasis.ExtElem(tuple(blocks))


def _verify_checks(args):
    """Yield (name, kind, n, ok, detail) rows for the verification suites.
    Each (kind, n) case is built once and its oracle embedding at most once."""
    pairs = args.limit
    case = functools.cache(_basis_for_kind)
    oracles = {}
    for kind in args.kind:
        for n in range(1, args.n + 1):
            ctx = case(kind, n)
            if ctx is None:
                continue
            emb = yield from _oracle(ctx, oracles)
            if emb is not None:
                rng = random.Random(f"{args.seed}:{kind}:{n}")
                bad = 0
                for _ in range(pairs):
                    x, y = _random_elem(rng, ctx), _random_elem(rng, ctx)
                    ix = emb.embed_ext(x)
                    z = extbasis.mul(ctx, x, y)
                    if emb.embed_ext(z) != gf.poly_mul_mod(
                            emb.big, ix, emb.embed_ext(y)):
                        bad += 1
                    s = extbasis.square(ctx, x)
                    if emb.embed_ext(s) != gf.square(emb.big, ix):
                        bad += 1
                yield ("oracle_equivalence", kind, n, bad == 0,
                       f"{pairs} pairs, {bad} mismatches")

            for op in ("mul", "square"):
                got, want, ok = _op_counts(
                    ctx, op, [(extbasis.zero(ctx), extbasis.zero(ctx))])
                yield (f"{op}_op_counts", kind, n, ok, f"got {got}, want {want}")

            if emb is None:
                continue

            if kind in tables.CLOSED_FORM_KINDS and (kind != "asw4" or n <= 4):
                want = tables.closed_form_tables(ctx).per_table_nonzeros
                got = tables.build_tables(emb).per_table_nonzeros
                yield ("closed_form_counts", kind, n, got == want,
                       f"expected {want}, actual {got}")

    for n in range(1, min(args.n, 6) + 1):
        as2 = case("as2", n)
        emb = yield from _oracle(as2, oracles)
        if emb is not None:
            b_img = emb.gen_images["b"]
            ok = tower.biquadratic_possible(n) == (gf.trace(emb.big, b_img) == 1)
            yield ("tower_biquadratic", "as2", n, ok,
                   "predicate vs trace of the quadratic generator's image")
        # Every kind tries the same candidates and as2 takes the first, so
        # the sextic builder accepted as2's base iff the ka6 case sits on it.
        ka6 = case("ka6", n)
        built = ka6 is not None and ka6.base.alpha == as2.base.alpha
        verdict = tower.kummer_over_as2_possible(as2)
        ok = verdict == built and (
            emb is None or verdict != gf.is_cube(emb.big, emb.gen_images["b"]))
        yield ("tower_kummer_over_quadratic", "as2", n, ok,
               "predicate vs sextic builder outcome")
        k3 = case("k3", n)
        embk = None if k3 is None else (yield from _oracle(k3, oracles))
        if embk is not None:
            # The oracle solves y^2 + y = b in the big field and maps a root
            # back to coordinates; the program's square must send it to b.
            b_img = embk.gen_images["b"]
            roots = gf.solve_artin_schreier(embk.big, b_img)
            ok = (tower.as2_over_k3_possible(k3) is False
                  and gf.trace(embk.big, b_img) == 0 and roots != [])
            if ok:
                gamma = extbasis.ExtElem(embk.to_blocks(roots[0]))
                ok = extbasis.generator_element(k3, "b").blocks == tuple(
                    map(int.__xor__, extbasis.square(k3, gamma), gamma))
            yield ("tower_no_quadratic_over_cubic", "k3", n, ok,
                   "trace 0 and a solved quadratic preimage")
            ok = tower.bicubic_possible(k3) == (not gf.is_cube(embk.big, b_img))
            yield ("tower_bicubic", "k3", n, ok,
                   "valuation criterion vs direct cube test in the big field")


def cmd_verify(args) -> int:
    if args.n < 1:
        raise DomainError(f"--n must be at least 1, got {args.n}")
    if args.limit < 0:
        raise DomainError(f"--limit must be at least 0, got {args.limit}")
    gf._check_cap(args.n)  # every case's field has degree at most --n
    args.kind = list(dict.fromkeys(args.kind))
    checks = [
        {"name": name, "kind": kind, "n": n, "ok": ok, "detail": detail}
        for name, kind, n, ok, detail in _verify_checks(args)
    ]
    failures = sum(not c["ok"] for c in checks)
    report = {"max_n": args.n, "seed": args.seed, "pairs": args.limit,
              "kinds": list(args.kind), "failures": failures,
              "checks": checks}
    header = ("name", "kind", "n", "ok", "detail")
    rows = [(c["name"], c["kind"], c["n"], "yes" if c["ok"] else "no",
             c["detail"]) for c in checks]
    _emit(args, header, rows, report)
    return 1 if failures else 0


def cmd_bench(args) -> int:
    if args.limit < 1:
        raise DomainError(f"--limit must be at least 1, got {args.limit}")
    ctx = _resolve_basis(args.n, args.modulus, args.alpha, args.kind)
    rng = random.Random(args.seed)
    iters = args.limit
    xs = [_random_elem(rng, ctx) for _ in range(iters)]
    ys = [_random_elem(rng, ctx) for _ in range(iters)]
    pairs = list(zip(xs, ys))

    extbasis.mul(ctx, *pairs[0])  # compile the kind's programs before timing
    extbasis.square(ctx, xs[0])
    results, failures = [], 0
    for op in ("mul", "square"):
        t0 = time.perf_counter()
        got, want, exact = _op_counts(ctx, op, pairs)
        elapsed = time.perf_counter() - t0
        failures += not exact
        mean_ns = round(elapsed / iters * 1e9)
        print(f"bench {args.kind} n={args.n} {op}: "
              f"mean {mean_ns} ns over {iters} iterations", file=sys.stderr)
        results.append((op, got, want, exact))

    header = ("kind", "n", "iterations", "op", "base_mults", "base_adds",
              "table_vector_products", "expected_mults", "expected_adds",
              "expected_tvp", "match")
    rows = [(args.kind, args.n, iters, op, *got, *want, "yes" if exact else "no")
            for op, got, want, exact in results]
    _emit(args, header, rows, [dict(zip(header, r)) for r in rows])
    return 1 if failures else 0


def cmd_search(args) -> int:
    ctx = _field_for(args.n, args.modulus)
    hits = normal.search_normal_elements(
        ctx, require_primitive=args.require_primitive,
        limit=args.limit)
    header = ("element", "element_hex", "table_weight", "density", "cross_sum")
    rows = []
    for a in hits:
        nb = normal.build_normal_basis(ctx, a)
        rows.append((bitpoly.to_human(a), gf.elem_to_hex(ctx, a),
                     nb.weight, nb.density, normal.cross_product_sum(nb)))
    _emit(args, header, rows,
          {"n": args.n, "modulus": bitpoly.to_human(ctx.modulus),
           "hits": [dict(zip(header, r)) for r in rows]})
    return 0


_COMMANDS = {
    "cross-sums": cmd_cross_sums,
    "densities": cmd_densities,
    "tables": cmd_tables,
    "verify": cmd_verify,
    "bench": cmd_bench,
    "search": cmd_search,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except MissingFixtureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConstructionContradictionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CharField2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
