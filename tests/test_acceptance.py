"""Acceptance suite: the frozen reference results this package must reproduce.

Each test pins one headline result end to end, with its runtime budget
asserted where the result is computational. Expected values are frozen
reference data (see fixtures.py); nothing here is tuned to the code under test.
"""

import random
import time
from functools import partial

import pytest

from charfield2 import extbasis as xb, field as gf
from charfield2 import fixtures, normal, tables, tower
from charfield2.cli import _basis_for_kind
from charfield2.errors import NoKummerExtensionError

# ---------------------------------------------------------------------------
# frozen expectations

CROSS_SUMS_SMALL = {2: 5, 4: 25, 6: 101, 8: 233, 10: 181, 12: 265, 14: 677}
CROSS_SUMS_LARGE = {16: 1921, 18: 613, 20: 1625, 22: 2005, 24: 3961, 26: 2501}
KUMMER_DENSITY = {6: 51, 18: 699, 42: 4299, 48: 13923, 78: 15459}
KUMMER_REFUSED = (12, 30, 36, 54, 60, 66, 72)
MUL_COUNTS = {"as2": (3, 4, 1), "k3": (6, 15, 2), "asw4": (9, 33, 9)}


# ---------------------------------------------------------------------------
# 1. cross-product sums, small degrees

def test_cross_sums_small_degrees_exact_and_fast():
    t0 = time.perf_counter()
    got = {n: normal.cross_product_sum(fixtures.get_fixture(n).basis())
           for n in CROSS_SUMS_SMALL}
    elapsed = time.perf_counter() - t0
    assert got == CROSS_SUMS_SMALL
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. cross-product sums, large degrees

def test_cross_sums_large_degrees_exact_and_fast():
    t0 = time.perf_counter()
    got = {n: normal.cross_product_sum(fixtures.get_fixture(n).basis())
           for n in CROSS_SUMS_LARGE}
    elapsed = time.perf_counter() - t0
    assert got == CROSS_SUMS_LARGE
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 3. cubic Kummer density records: formula, brute force, and refusals

def test_kummer_density_records_by_formula_and_brute_force(monkeypatch):
    t0 = time.perf_counter()
    # closed-form path covers every record
    for m, expected in KUMMER_DENSITY.items():
        nb = fixtures.get_fixture(m // 3).basis()
        ctx = xb.build_kind(nb, "k3")  # must construct
        assert tables.closed_form_tables(ctx).density == expected
    # brute-force table counting confirms every record; the oracle field for
    # m = 78 is above the default degree cap of 64
    monkeypatch.setenv("CHARFIELD2_MAX_N", "80")
    for m in KUMMER_DENSITY:
        nb = fixtures.get_fixture(m // 3).basis()
        ts = tables.build_tables(tables.build_embedding(xb.build_kind(nb, "k3")))
        assert ts.m == m
        assert ts.density == KUMMER_DENSITY[m]
    # the refused degrees raise, and only those
    for m in KUMMER_REFUSED:
        nb = fixtures.get_fixture(m // 3).basis()
        with pytest.raises(NoKummerExtensionError):
            xb.build_kind(nb, "k3")
    # m = 24 is the one remaining constructible degree; its record is pinned too
    nb8 = fixtures.get_fixture(8).basis()
    density = tables.closed_form_tables(xb.build_kind(nb8, "k3")).density
    assert density == fixtures.EXPECTED_KUMMER_DENSITY[24] == 1707
    elapsed = time.perf_counter() - t0
    assert (set(KUMMER_DENSITY) | set(KUMMER_REFUSED) | {24}
            == set(fixtures.DENSITY_DEGREES))
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 4. oracle equivalence for every kind and degree where it exists

def test_oracle_equivalence_200_pairs_per_context():
    t0 = time.perf_counter()
    covered = set()
    for kind in ("as2", "k3", "asw4", "ka6"):
        for n in range(1, 9):
            ctx = _basis_for_kind(kind, n)
            if ctx is None:
                continue
            covered.add((kind, n))
            emb = tables.build_embedding(ctx)
            rng = random.Random(f"accept:{kind}:{n}")
            failures = 0
            for _ in range(200):
                x = xb.ExtElem(tuple(rng.randrange(1 << n) for _ in range(ctx.d)))
                y = xb.ExtElem(tuple(rng.randrange(1 << n) for _ in range(ctx.d)))
                ix, iy = emb.embed_ext(x), emb.embed_ext(y)
                if emb.embed_ext(xb.mul(ctx, x, y)) != gf.poly_mul_mod(emb.big, ix, iy):
                    failures += 1
                if emb.embed_ext(xb.square(ctx, x)) != gf.square(emb.big, ix):
                    failures += 1
            assert failures == 0, (kind, n)
    elapsed = time.perf_counter() - t0
    # the combinations known to exist must all have been exercised
    expected_coverage = ({("as2", n) for n in range(1, 9)}
                         | {("k3", n) for n in (2, 4, 6, 8)}
                         | {("asw4", n) for n in (2, 4, 6, 8)}
                         | {("ka6", n) for n in range(1, 9)})
    assert covered == expected_coverage
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 5. closed-form per-table counts vs brute force

def test_closed_form_counts_match_brute_force_everywhere_applicable():
    cases = ([("as2", n) for n in (2, 4, 6, 8)]
             + [("k3", n) for n in (2, 6, 8)]      # the n=4 generator is a cube
             + [("asw4", n) for n in (2, 4)])
    for kind, n in cases:
        nb = fixtures.get_fixture(n).basis()
        ctx = xb.build_kind(nb, kind)
        ts = tables.build_tables(tables.build_embedding(ctx))
        expected = tables.expected_counts(nb, kind)
        assert ts.per_table_nonzeros == expected, (kind, n)
        assert ts.density == sum(expected)
        # the constant tail ranges must hold exactly
        w = nb.weight
        if kind in ("as2", "k3"):
            assert ts.per_table_nonzeros[-n:] == [3 * w] * n
        if kind == "asw4":
            assert ts.per_table_nonzeros[-n:] == [9 * w] * n


# ---------------------------------------------------------------------------
# 6. exact per-multiplication operation accounting

def test_multiplication_operation_counts_exact():
    for kind, want in MUL_COUNTS.items():
        nb = fixtures.get_fixture(2).basis()
        ctx = xb.build_kind(nb, kind)
        ctx.counter.reset()
        xb.mul(ctx, xb.zero(ctx), xb.zero(ctx))
        assert ctx.counter.as_tuple() == want, kind
    assert MUL_COUNTS == {k: xb.EXPECTED_MUL_COUNTS[k] for k in MUL_COUNTS}


# ---------------------------------------------------------------------------
# 7. tower predicates against the independent oracle

def test_tower_predicates_match_oracle_evidence():
    # second quadratic step: predicate vs trace of the generator's image
    for n in range(1, 7):
        emb = tables.build_embedding(_basis_for_kind("as2", n))
        oracle = gf.trace(emb.big, emb.gen_images["b"]) == 1
        assert tower.biquadratic_possible(n) == oracle == (n % 2 == 1)

    # quadratic over cubic: impossible, witnessed by the oracle's root of
    # y^2 + y = b, which the program's square sends back to b
    for n in (2, 4, 6):
        k3 = _basis_for_kind("k3", n)
        assert k3 is not None
        assert tower.as2_over_k3_possible(k3) is False
        emb = tables.build_embedding(k3)
        b_img = emb.gen_images["b"]
        assert gf.trace(emb.big, b_img) == 0
        gamma = xb.ExtElem(emb.to_blocks(gf.solve_artin_schreier(emb.big, b_img)[0]))
        sq = xb.square(k3, gamma)
        recovered = xb.ExtElem(tuple(u ^ v for u, v in zip(sq.blocks, gamma.blocks)))
        assert recovered == xb.generator_element(k3, "b")

    # over as2 at n = 1 the generator's image has trace 1 and no root
    emb = tables.build_embedding(_basis_for_kind("as2", 1))
    assert gf.trace(emb.big, emb.gen_images["b"]) == 1
    assert gf.solve_artin_schreier(emb.big, emb.gen_images["b"]) == []

    # second cube-root step at n = 2 and 4: the theorem says always, and the
    # direct cube test in the big field agrees
    for n in (2, 4):
        k3 = _basis_for_kind("k3", n)
        assert tower.bicubic_possible(k3) is True
        emb = tables.build_embedding(k3)
        assert not gf.is_cube(emb.big, emb.gen_images["b"])


# ---------------------------------------------------------------------------
# 8. multiplication cost is a fixed count, independent of the operands

def _counting(log, add, mul, tvp):
    """add, mul and tvp, each also appending its name to log per call."""
    def counted(name, op):
        def run(*args):
            log.append(name)
            return op(*args)
        return run
    return counted("add", add), counted("mul", mul), counted("tvp", tvp)


def _tally(log):
    return tuple(map(log.count, ("mul", "add", "tvp")))


def test_mul_cost_is_operand_independent():
    """The programs run on random operands with operations that count their
    calls: every run makes the same count, the frozen one."""
    rng = random.Random("accept:flat-cost")
    bases = {"as2": 4, "k3": 6, "asw4": 4, "ka6": 2}  # a working degree per kind
    for kind, n in bases.items():
        ctx = xb.build_kind(fixtures.get_fixture(n).basis(), kind)
        ops = (int.__xor__, partial(normal.normal_mul, ctx.base),
               partial(normal.alpha_mul, ctx.base))
        seen_mul, seen_sq = set(), set()
        for _ in range(25):
            x = xb.ExtElem(tuple(rng.randrange(1 << ctx.n) for _ in range(ctx.d)))
            y = xb.ExtElem(tuple(rng.randrange(1 << ctx.n) for _ in range(ctx.d)))
            log = []
            prod = xb._MUL[kind](*_counting(log, *ops), x.blocks, y.blocks)
            assert prod == xb.mul(ctx, x, y).blocks
            seen_mul.add(_tally(log))
            log = []
            add, _, tvp = _counting(log, *ops)
            sq = xb._square_walk(add, tvp, kind,
                                 [normal.frobenius_shift(n, v) for v in x.blocks])
            assert sq == xb.square(ctx, x).blocks
            seen_sq.add(_tally(log))
        assert seen_mul == {xb.EXPECTED_MUL_COUNTS[kind]}, kind
        assert seen_sq == {xb.EXPECTED_SQUARE_COUNTS[kind]}, kind
