"""Tests for GF(2) linear algebra on bit-packed rows."""

import random

import pytest
from hypothesis import given, strategies as st

from charfield2 import linalg
from charfield2.errors import DomainError


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_parity_matches_popcount(x):
    assert linalg.parity(x) == bin(x).count("1") % 2


def _random_matrix(rng, rows, width):
    return [rng.getrandbits(width) for _ in range(rows)]


def test_mat_rank_known_cases():
    assert linalg.mat_rank([], 4) == 0
    assert linalg.mat_rank([0, 0], 4) == 0
    assert linalg.mat_rank([0b0001, 0b0010, 0b0011], 4) == 2
    assert linalg.mat_rank([1 << i for i in range(4)], 4) == 4


def test_mat_rank_bounded_by_dimensions():
    rng = random.Random(20240801)
    for _ in range(50):
        m, w = rng.randint(1, 8), rng.randint(1, 8)
        rows = _random_matrix(rng, m, w)
        r = linalg.mat_rank(rows, w)
        assert 0 <= r <= min(m, w)


def test_mat_invert_round_trip():
    rng = random.Random(20240802)
    found = 0
    while found < 30:
        w = rng.randint(1, 8)
        rows = _random_matrix(rng, w, w)
        inv = linalg.mat_invert(rows, w)
        if inv is None:
            assert linalg.mat_rank(rows, w) < w
            continue
        found += 1
        for i in range(w):
            # row i of M times inv must be the i-th unit vector
            assert linalg.row_apply(inv, rows[i]) == 1 << i
            assert linalg.row_apply(rows, inv[i]) == 1 << i


def test_mat_invert_identity_and_singular():
    ident = [1 << i for i in range(5)]
    assert linalg.mat_invert(ident, 5) == ident
    assert linalg.mat_invert([1, 1], 2) is None
    with pytest.raises(DomainError):
        linalg.mat_invert([1, 2, 3], 2)


def test_row_apply_is_xor_of_selected_rows():
    rows = [0b001, 0b010, 0b100]
    assert linalg.row_apply(rows, 0b000) == 0
    assert linalg.row_apply(rows, 0b101) == 0b101
    assert linalg.row_apply(rows, 0b111) == 0b111
    rows = [0b11, 0b10]
    assert linalg.row_apply(rows, 0b11) == 0b01


@given(st.integers(min_value=1, max_value=6), st.data())
def test_row_apply_linear(w, data):
    rows = data.draw(st.lists(st.integers(min_value=0, max_value=(1 << w) - 1),
                              min_size=w, max_size=w))
    u = data.draw(st.integers(min_value=0, max_value=(1 << w) - 1))
    v = data.draw(st.integers(min_value=0, max_value=(1 << w) - 1))
    assert (linalg.row_apply(rows, u ^ v)
            == linalg.row_apply(rows, u) ^ linalg.row_apply(rows, v))


@pytest.mark.parametrize("width", [1, 7, 8, 9, 48, 64, 65, 127])
def test_prepared_map_matches_row_apply(width):
    """Square matrices of `width` rows, including a last window of fewer
    than 8 rows; a vector past the last row is refused."""
    rng = random.Random(width)
    rows = _random_matrix(rng, width, width)
    prepared = linalg.PreparedMap(rows)
    ones = (1 << width) - 1
    for v in [0, ones] + [rng.getrandbits(width) for _ in range(50)]:
        assert prepared.apply(v) == linalg.row_apply(rows, v), v
    for v in (1 << width, ones + 1 + rng.getrandbits(width), -1):
        with pytest.raises(DomainError):
            prepared.apply(v)


@pytest.mark.parametrize("width", [1, 5, 8, 9, 12])
def test_prepared_map_cycle_walks_to_the_start(width):
    """cycle lists v, M v, M^2 v, ... until the walk is back at v, as
    repeated apply gives them: under the cyclic shift every v has a period
    dividing width, and a random invertible matrix's cycles partition the
    vectors. A vector past the last row is refused, and so
    is a walk that does not come back, as under a singular map."""
    rng = random.Random(f"cycle:{width}")
    shift = [1 << (i + 1) % width for i in range(width)]
    for v in range(1 << width):
        walk = linalg.PreparedMap(shift).cycle(v)
        assert walk[0] == v and width % len(walk) == 0, v
        assert all(linalg.row_apply(shift, a) == b for a, b in zip(walk, walk[1:] + walk[:1]))
    while True:
        rows = _random_matrix(rng, width, width)
        if linalg.mat_invert(rows, width) is not None:
            break
    prepared, seen = linalg.PreparedMap(rows), set()
    for v in range(1 << width):
        if v not in seen:
            walk = prepared.cycle(v)
            assert len(set(walk)) == len(walk) and seen.isdisjoint(walk), v
            assert all(prepared.apply(a) == b for a, b in zip(walk, walk[1:] + walk[:1]))
            seen.update(walk)
    assert len(seen) == 1 << width
    for v in (1 << width, -1):
        with pytest.raises(DomainError):
            prepared.cycle(v)
    with pytest.raises(DomainError):  # 1 -> 0 -> 0 -> ...
        linalg.PreparedMap([0] * width).cycle(1)


def test_mat_transpose_involution_and_entries():
    rng = random.Random(20240803)
    for _ in range(30):
        m, w = rng.randint(1, 8), rng.randint(1, 8)
        rows = _random_matrix(rng, m, w)
        cols = linalg.mat_transpose(rows, w)
        assert len(cols) == w
        for i in range(m):
            for j in range(w):
                assert (rows[i] >> j) & 1 == (cols[j] >> i) & 1
        assert linalg.mat_transpose(cols, m) == rows


def _transpose_by_bits(rows, width):
    """Reference for mat_transpose: one step per set bit."""
    cols = [0] * width
    for i, r in enumerate(rows):
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= 1 << i
            r ^= low
    return cols


@pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 9, 31, 32, 33, 48, 63, 64, 65])
def test_mat_transpose_matches_the_bit_loop(width):
    """Row counts 0, 1, L - 1, L, L + 1 and width^2, L the power of two
    >= width: partial, whole and several tiles; transposed back, the
    columns are a matrix wider than it is tall."""
    rng = random.Random(width)
    size = 1 << (width - 1).bit_length()
    ones = (1 << width) - 1
    for count in (0, 1, size - 1, size, size + 1, width * width):
        rows = _random_matrix(rng, count, width)
        if rows:
            rows[0] = ones
            rows[-1] |= 1 << (width - 1)
        cols = linalg.mat_transpose(rows, width)
        assert cols == _transpose_by_bits(rows, width), count
        assert linalg.mat_transpose(cols, count) == rows
    with pytest.raises(DomainError):
        linalg.mat_transpose([0, 1 << width], width)
    with pytest.raises(DomainError):
        linalg.mat_transpose([-1], width)


@pytest.mark.parametrize("size", [1, 2, 4, 8, 64])
def test_transpose_packed_moves_each_entry(size):
    """Entry (r, c) of a packed size x size matrix lands at (c, r)."""
    for r in range(size):
        for c in range(size):
            assert (linalg.transpose_packed(1 << (r * size + c), size)
                    == 1 << (c * size + r)), (r, c)


@pytest.mark.parametrize("size", [0, 3, 6, 48])
def test_transpose_packed_refuses_a_size_that_is_not_a_power_of_two(size):
    """Every time: the steps are cached per size, the refusal is not."""
    for _ in range(2):
        with pytest.raises(DomainError):
            linalg.transpose_packed(1, size)


def test_solve_linear_finds_solutions():
    rng = random.Random(20240804)
    for _ in range(60):
        m, w = rng.randint(1, 8), rng.randint(1, 8)
        rows = _random_matrix(rng, m, w)
        picked = rng.getrandbits(m)
        target = linalg.row_apply(rows, picked)
        sol = linalg.solve_linear(rows, w, target)
        assert sol is not None
        assert linalg.row_apply(rows, sol) == target


def test_solve_linear_detects_unsolvable():
    # rows span only the first coordinate
    assert linalg.solve_linear([0b01, 0b01], 2, 0b10) is None
    assert linalg.solve_linear([], 2, 0b01) is None
    assert linalg.solve_linear([], 2, 0) == 0
    # a target with bits beyond the width is outside any row span
    assert linalg.solve_linear([0b1, 0b1], 1, 0b10) is None


def test_rows_wider_than_width_are_refused():
    with pytest.raises(DomainError):
        linalg.solve_linear([0b11], 1, 0b1)
    with pytest.raises(DomainError):
        linalg.mat_invert([0b10], 1)


def test_elimination_matches_exhaustive_enumeration():
    """rank, solvability, invertibility and the null space against the span
    and the kernel listed by brute force, for every shape m x w with m, w <= 5."""
    rng = random.Random(20240805)
    for m in range(6):
        for w in range(1, 6):
            for _ in range(20):
                rows = _random_matrix(rng, m, w)
                span = {linalg.row_apply(rows, v) for v in range(1 << m)}
                assert 1 << linalg.mat_rank(rows, w) == len(span)
                kernel = {v for v in range(1 << m) if linalg.row_apply(rows, v) == 0}
                basis = linalg.null_space(rows, w)
                assert {linalg.row_apply(basis, c) for c in range(1 << len(basis))} == kernel
                assert 1 << len(basis) == len(kernel)  # the basis is independent
                for t in range(1 << w):
                    sol = linalg.solve_linear(rows, w, t)
                    assert (sol is None) == (t not in span)
                    if sol is not None:
                        assert 0 <= sol < 1 << m
                        assert linalg.row_apply(rows, sol) == t
                if m == w:
                    inv = linalg.mat_invert(rows, w)
                    assert (inv is None) == (len(span) < 1 << w)
                    if inv is not None:
                        assert all(linalg.row_apply(rows, inv[k]) == 1 << k
                                   for k in range(w))
