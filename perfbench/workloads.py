"""The four benchmark workloads.

Each workload is a closed loop with one caller.  Constructing it is the
set-up; `run(i, rnd)` performs item i of round rnd (the timed call) and
returns its output; `check(i, rnd, out, checker)` checks that output outside
the timed region; `finish(checker)` runs the checks that need the whole run.
Every input is derived from the workload seed.
"""

import contextlib
import io
import random
from itertools import combinations
from pathlib import Path

from charfield2 import (bitpoly, cli, extbasis, field as gf, fixtures, normal,
                        tables)
from charfield2.errors import NoKummerExtensionError, UnsupportedDegreeError

GOLDENS = Path(__file__).resolve().parent / "goldens"


def _flip(value):
    """`value` with one bit changed (the negative control)."""
    if isinstance(value, int):
        return value ^ 1
    if isinstance(value, str):
        return chr(ord(value[0]) ^ 1) + value[1:] if value else "\x01"
    if isinstance(value, (list, tuple)):
        if not value:
            return type(value)([1])
        return type(value)([_flip(value[0]), *value[1:]])
    raise TypeError(f"cannot flip a {type(value).__name__}")


class Checker:
    """Counts checks attempted and failed; keeps the first few failures.

    With corrupt=True the first checked output has one bit flipped before it
    is compared, which must make that check fail."""

    def __init__(self, corrupt=False):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.corrupt = corrupt

    def check(self, what, got, want):
        self.attempted += 1
        if self.corrupt:
            got, self.corrupt = _flip(got), False
        if got != want:
            self._fail(f"{what}: got {str(got)[:120]}, want {str(want)[:120]}")

    def error(self, what, exc):
        self.attempted += 1
        self._fail(f"{what}: raised {type(exc).__name__}: {exc}")

    def _fail(self, message):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def _blocks(flat, n, d):
    mask = (1 << n) - 1
    return tuple((flat >> (b * n)) & mask for b in range(d))


def _flat(blocks, n):
    return sum(v << (b * n) for b, v in enumerate(blocks))


# --- arith ---------------------------------------------------------------

class Arith:
    """extbasis.mul and extbasis.square of every kind at n = 26 and n = 64."""

    name = "arith"
    trace_rounds = 40
    degrees = (26, 64)
    pool = 64              # seeded operand pairs per kind and degree
    sample = 16            # pairs checked by commutativity, squaring, oracle
    # The n = 64 basis is drawn from a fixed seed, so it and the set-up cost
    # are the same on every run; this seed's first draw qualifies.
    draw_seed = 2

    def __init__(self, seed):
        nb26 = fixtures.get_fixture(26).basis()
        self.ctxs = {(k, 26): extbasis.build_kind(nb26, k) for k in extbasis.KINDS}
        self.ctxs.update(((k, 64), c) for k, c in self._draw_64().items())
        rng = random.Random(f"arith:{seed}")
        self.pools = {}
        for (kind, n), ctx in self.ctxs.items():
            self.pools[kind, n] = [
                tuple(extbasis.ExtElem(tuple(rng.getrandbits(n) for _ in range(ctx.d)))
                      for _ in range(2))
                for _ in range(self.pool)]
            ctx.counter.reset()
        self.labels = [f"{op}.{k}.n{n}" for n in self.degrees
                       for k in extbasis.KINDS for op in ("mul", "square")]
        self._items = [(op, self.ctxs[k, n], self.pools[k, n])
                       for n in self.degrees for k in extbasis.KINDS
                       for op in ("mul", "square")]
        self.memo = {}

    def _draw_64(self):
        """Contexts of every kind over the first seeded random normal element
        of F_2[x]/(min_irreducible(64)) over which all four kinds build."""
        ctx = gf.FieldCtx(bitpoly.min_irreducible(64))
        rng = random.Random(self.draw_seed)
        while True:
            a = rng.getrandbits(64)
            if not normal.is_normal_element(ctx, a):
                continue
            nb = normal.build_normal_basis(ctx, a)
            try:
                return {k: extbasis.build_kind(nb, k) for k in extbasis.KINDS}
            except (UnsupportedDegreeError, NoKummerExtensionError):
                continue

    def run(self, i, rnd):
        op, ctx, pool = self._items[i]
        x, y = pool[rnd % self.pool]
        if op == "mul":
            return extbasis.mul(ctx, x, y)
        return extbasis.square(ctx, x)

    def check(self, i, rnd, out, checker):
        op, ctx, _ = self._items[i]
        want = (extbasis.EXPECTED_MUL_COUNTS if op == "mul"
                else extbasis.EXPECTED_SQUARE_COUNTS)[ctx.kind]
        checker.check(f"op counts {self.labels[i]}", ctx.counter.as_tuple(), want)
        ctx.counter.reset()
        key = (i, rnd % self.pool)
        if key in self.memo:
            checker.check(f"repeat {self.labels[i]}", out, self.memo[key])
        else:
            self.memo[key] = out

    def finish(self, checker):
        for i, (op, ctx, pool) in enumerate(self._items):
            for j in range(self.sample):
                if (i, j) not in self.memo:
                    continue
                x, y = pool[j]
                got = self.memo[i, j]
                if op == "mul":
                    checker.check(f"x*y == y*x {self.labels[i]}", got,
                                  extbasis.mul(ctx, y, x))
                else:
                    checker.check(f"square(x) == x*x {self.labels[i]}", got,
                                  extbasis.mul(ctx, x, x))
        # big-field oracle for as2 at n = 26 (m = 52, under the degree cap)
        ctx = self.ctxs["as2", 26]
        emb = tables.build_embedding(ctx)
        big = emb.big
        for i, (op, c, pool) in enumerate(self._items):
            if c is not ctx:
                continue
            for j in range(self.sample):
                if (i, j) not in self.memo:
                    continue
                x, y = (emb.embed_ext(e) for e in pool[j])
                want = gf.poly_mul_mod(big, x, y if op == "mul" else x)
                checker.check(f"oracle {self.labels[i]}",
                              emb.embed_ext(self.memo[i, j]), want)

    def rates(self, medians):
        """mul_per_s and square_per_s: programs of each op per second when
        cycling through all kinds and degrees at their median latency."""
        out = {}
        for op in ("mul", "square"):
            ts = [t for lab, t in zip(self.labels, medians) if lab.startswith(op + ".")]
            out[f"{op}_per_s"] = len(ts) / sum(ts)
        return out


# --- oracle ----------------------------------------------------------------

class Oracle:
    """The paper's brute-force records that fit under the degree cap of 64."""

    name = "oracle"
    trace_rounds = 1
    sample = 32            # seeded products checked per case
    # (kind, n, frozen density record or None)
    cases = (
        ("k3", 14, fixtures.EXPECTED_KUMMER_DENSITY[42]),
        ("k3", 16, fixtures.EXPECTED_KUMMER_DENSITY[48]),
        ("as2", 18, fixtures.EXPECTED_QUAD_DENSITY[36]),
        ("as2", 24, fixtures.EXPECTED_QUAD_DENSITY[48]),
        ("asw4", 8, None),   # closed-form counts, no record
        ("ka6", 8, None),    # entries only
    )

    def __init__(self, seed):
        self.seed = seed
        self.exts = [extbasis.build_kind(fixtures.get_fixture(n).basis(), kind)
                     for kind, n, _ in self.cases]
        self.labels = [f"{kind}.n{n}" for kind, n, _ in self.cases]

    def run(self, i, rnd):
        ext = self.exts[i]
        n, d, m = ext.n, ext.d, ext.m
        emb = tables.build_embedding(ext)
        ts = tables.build_tables(emb)
        closed = (tables.expected_counts(ext.base, ext.kind)
                  if ext.kind != "ka6" else None)
        bad = tables.verify_table_entries(emb, ts)
        rng = random.Random(f"oracle:{self.seed}:{i}:{rnd}")
        pairs = [(rng.getrandbits(m), rng.getrandbits(m)) for _ in range(self.sample)]
        by_table = [tables.table_mul(ts, x, y) for x, y in pairs]
        by_field = [_flat(emb.to_blocks(gf.poly_mul_mod(
                        emb.big, emb.embed_blocks(_blocks(x, n, d)),
                        emb.embed_blocks(_blocks(y, n, d)))), n)
                    for x, y in pairs]
        return ts.per_table_nonzeros, ts.density, closed, bad, by_table, by_field

    def check(self, i, rnd, out, checker):
        counts, density, closed, bad, by_table, by_field = out
        label = self.labels[i]
        record = self.cases[i][2]
        if closed is not None:
            checker.check(f"closed-form counts {label}", counts, closed)
        if record is not None:
            checker.check(f"density record {label}", density, record)
        checker.check(f"table entries {label}", bad, [])
        checker.check(f"table_mul vs big field {label}", by_table, by_field)

    def finish(self, checker):
        pass

    def rates(self, medians):
        return {"cases_per_s": len(medians) / sum(medians)}


# --- search ------------------------------------------------------------------

def low_weight_irreducibles(n, count=8):
    """The `count` least irreducibles of degree n among those of fewest terms."""
    top = (1 << n) | 1
    for extra in range(1, n, 2):
        found = [f for f in sorted(sum(1 << e for e in combo) | top
                                   for combo in combinations(range(1, n), extra))
                 if bitpoly.is_irreducible(f)]
        if found:
            return found[:count]
    raise ValueError(f"no irreducible of degree {n}")


class Search:
    """Building normal bases: an exhaustive scan, a primitive first-K scan,
    and the basis and cross sum of each first-K hit."""

    name = "search"
    trace_rounds = 1
    scan_n = 16
    # Phi_2(x^16 - 1): x^16 - 1 = (x + 1)^16, so 2^16 - 2^15 normal elements,
    # whatever the modulus.
    scan_hits = 2 ** 16 - 2 ** 15
    first_n = 12
    first_k = 50
    labels = ["scan.n16", "first_k.n12", "bases.n12"]

    def __init__(self, seed):
        rng = random.Random(f"search:{seed}")
        self.scan_ctx = gf.FieldCtx(rng.choice(low_weight_irreducibles(self.scan_n)))
        self.first_ctx = gf.FieldCtx(rng.choice(low_weight_irreducibles(self.first_n)))
        self.hits = []
        self.memo = {}

    def run(self, i, rnd):
        if i == 0:
            return normal.search_normal_elements(self.scan_ctx)
        if i == 1:
            self.hits = normal.search_normal_elements(
                self.first_ctx, require_primitive=True, limit=self.first_k)
            return self.hits
        ctx = self.first_ctx
        out = []
        for a in self.hits:
            nb = normal.build_normal_basis(ctx, a)
            out.append((nb.weight, nb.density, normal.cross_product_sum(nb)))
        return out

    def check(self, i, rnd, out, checker):
        label = self.labels[i]
        if i == 0:
            checker.check(f"normal element count {label}", len(out), self.scan_hits)
        if i in self.memo:
            checker.check(f"repeat {label}", out, self.memo[i])
            return
        self.memo[i] = out
        if i == 1:
            ctx = self.first_ctx
            checker.check(f"hit count {label}", len(out), self.first_k)
            checker.check(f"ascending {label}", out, sorted(set(out)))
            checker.check(f"normal and primitive {label}",
                          [normal.is_normal_element(ctx, a) and gf.is_primitive(ctx, a)
                           for a in out], [True] * len(out))
        elif i == 2:
            checker.check(f"density = n * weight {label}",
                          [d for _, d, _ in out], [self.first_n * w for w, _, _ in out])

    def finish(self, checker):
        pass

    def rates(self, medians):
        scanned = (1 << self.scan_n) - 1 + (self.hits[-1] if self.hits else 0)
        return {"candidates_per_s": scanned / (medians[0] + medians[1]),
                "bases_per_s": len(self.hits) / medians[2]}


# --- cli -------------------------------------------------------------------------

class Cli:
    """The commands the ROADMAP names, through cli.main in this process."""

    name = "cli"
    trace_rounds = 1
    commands = (
        ("verify.n8", ["verify", "--n", "8", "--format", "csv", "--seed", "{seed}"]),
        ("tables.ka6.n8", ["tables", "--kind", "ka6", "--n", "8"]),
        ("tables.asw4.n8", ["tables", "--kind", "asw4", "--n", "8"]),
        ("densities", ["densities"]),
        ("cross-sums", ["cross-sums"]),
        ("search.n12", ["search", "--n", "12", "--limit", "50"]),
        ("bench.ka6.n8", ["bench", "--kind", "ka6", "--n", "8", "--seed", "{seed}"]),
    )

    def __init__(self, seed):
        self.labels = [label for label, _ in self.commands]
        self.argvs = [[a.format(seed=seed) for a in argv] for _, argv in self.commands]
        self.goldens = [(GOLDENS / f"{label}.txt").read_text(encoding="utf-8")
                        for label in self.labels]

    def run(self, i, rnd):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(self.argvs[i])
        return code, out.getvalue()

    def check(self, i, rnd, out, checker):
        code, stdout = out
        checker.check(f"exit code {self.labels[i]}", code, 0)
        checker.check(f"stdout vs golden {self.labels[i]}", stdout, self.goldens[i])

    def finish(self, checker):
        pass

    def rates(self, medians):
        return {"commands_per_s": len(medians) / sum(medians)}


WORKLOADS = {w.name: w for w in (Arith, Oracle, Search, Cli)}
