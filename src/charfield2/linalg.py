"""GF(2) linear algebra on bit-packed rows (row = int, bit j = entry j, j < width)."""

from functools import cache

from .errors import DomainError


def parity(x: int) -> int:
    """Parity of the popcount of x."""
    return x.bit_count() & 1


def _echelon(rows, width: int):
    """Column-by-column elimination: (pivot bit, pivot row) pairs, by column.

    Each column below `width` takes as pivot the first remaining row with
    that bit set and clears the bit from the rows after it. Bits at or
    above `width` ride along without being eliminated.
    """
    pivots = []
    work = list(rows)
    for col in range(width):
        bit = 1 << col
        for row in work:
            if row & bit:
                work.remove(row)
                pivots.append((bit, row))
                work = [r ^ row if r & bit else r for r in work]
                break
    return pivots


def _reduce(pivots, t: int) -> int:
    """Clear t's pivot columns by xoring in pivot rows, in column order."""
    for bit, row in pivots:
        if t & bit:
            t ^= row
    return t


def _pivots_with_index(rows, width: int):
    """Pivots of the rows, each carrying its index i as bit width + i."""
    if any(r >> width for r in rows):
        raise DomainError(f"a row has bits at or above width {width}")
    return _echelon([r | 1 << (width + i) for i, r in enumerate(rows)], width)


def mat_rank(rows, width: int) -> int:
    """Rank of the matrix whose rows are the given ints."""
    return len(_echelon(rows, width))


def mat_invert(rows, width: int):
    """Inverse of a square bit matrix (rows as ints), or None if singular."""
    n = len(rows)
    if n != width:
        raise DomainError("matrix must be square")
    pivots = _pivots_with_index(rows, n)
    if len(pivots) < n:
        return None
    return [_reduce(pivots, 1 << k) >> n for k in range(n)]


def null_space(rows, width: int):
    """A basis of {v : row_apply(rows, v) == 0}, as ints over the row index space.

    Row i with its index bit, reduced against the pivots, keeps no bit below
    `width`, so its index bits name rows that sum to 0. That is 0 for a row
    the elimination took as a pivot; any other row keeps its own index bit,
    which no pivot carries, so the nonzero results are independent.
    """
    pivots = _pivots_with_index(rows, width)
    vecs = (_reduce(pivots, r | 1 << (width + i)) >> width for i, r in enumerate(rows))
    return [v for v in vecs if v]


def row_apply(rows, v: int) -> int:
    """Row-vector times matrix: xor of rows[i] over set bits i of v."""
    out = 0
    while v:
        low = v & -v
        out ^= rows[low.bit_length() - 1]
        v ^= low
    return out


class PreparedMap:
    """A fixed matrix prepared for row_apply by byte windows: rows 8w..8w+7
    give one table of the xors of every subset of them, so applying the map
    takes one lookup per 8 rows instead of one step per set bit.  Building
    the tables costs about as much as 70 to 100 row_apply calls, so prepare
    a matrix only where it is applied more often than that."""

    def __init__(self, rows):
        self.nrows = len(rows)
        self.windows = []
        for base in range(0, self.nrows, 8):
            table = [0]  # table[s] = xor of rows[base + i] over set bits i of s
            for row in rows[base:base + 8]:
                table += [t ^ row for t in table]
            self.windows.append(table)

    def apply(self, v: int) -> int:
        """row_apply(rows, v); DomainError when v has a bit at or above the
        row count."""
        if v >> self.nrows:  # also every negative v
            raise DomainError(f"vector has bits outside {self.nrows} rows")
        out = 0
        for table in self.windows:
            out ^= table[v & 0xFF]
            v >>= 8
        return out

    def cycle(self, v: int) -> list:
        """[v, M v, M^2 v, ...] up to the last vector before the walk is back
        at v, where M v is apply(v): for an invertible M, the cycle of v.
        DomainError when v has a bit at or above the row count, or when the
        walk is not back at v within 2^nrows steps, as for a singular M."""
        if v >> self.nrows:
            raise DomainError(f"vector has bits outside {self.nrows} rows")
        start, out = v, []
        for _ in range(1 << self.nrows):
            out.append(v)
            w = 0
            for table in self.windows:
                w ^= table[v & 0xFF]
                v >>= 8
            v = w
            if v == start:
                return out
        raise DomainError(f"the map does not bring {start} back in "
                          f"{1 << self.nrows} steps")


def pack_lanes(values, width: int) -> int:
    """Values of at most `width` bits each -> one int, value j at bits
    j*width..(j+1)*width - 1."""
    out = 0
    for v in reversed(values):
        out = out << width | v
    return out


def unpack_lanes(packed: int, width: int, count: int) -> tuple:
    """Inverse of pack_lanes: the first `count` lanes of `width` bits."""
    mask = (1 << width) - 1
    return tuple([(packed >> (j * width)) & mask for j in range(count)])


@cache
def _transpose_steps(size: int):
    """The swaps of transpose_packed at one size: for s = size/2, ..., 2, 1,
    each entry (r, c) with bit s set in c and clear in r trades places with
    (r + s, c - s), which sits s(size - 1) bits higher.  Doing this for
    every s exchanges the bits of r and c, which is the transpose."""
    if size < 1 or size & (size - 1):
        raise DomainError(f"size {size} is not a power of two")
    steps = []
    s = size >> 1
    while s:
        row = sum(1 << c for c in range(size) if c & s)
        mask = pack_lanes([0 if r & s else row for r in range(size)], size)
        steps.append((s * (size - 1), mask))
        s >>= 1
    return tuple(steps)


def transpose_packed(x: int, size: int) -> int:
    """Transpose of the size x size bit matrix held in x as
    pack_lanes(rows, size), for size a power of two (else DomainError):
    log2(size) masked swaps on the whole int (Warren, Hacker's Delight,
    2nd ed., section 7-3)."""
    for shift, mask in _transpose_steps(size):
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    return x


def mat_transpose(rows, width: int):
    """Transpose a bit matrix given as a list of row ints; DomainError when
    a row has bits at or above width.

    The matrix is cut into size x size tiles, size the power of two at or
    above the smaller of its dimensions and of 64, so no tile's int or
    masks grow past 4096 bits; each tile is packed into one int and
    transposed by transpose_packed."""
    if any(r >> width for r in rows):
        raise DomainError(f"a row has bits at or above width {width}")
    cols = [0] * width
    if not rows:
        return cols
    size = 1 << (min(width, len(rows), 64) - 1).bit_length()
    mask = (1 << size) - 1
    for base in range(0, len(rows), size):
        block = rows[base:base + size]
        for first in range(0, width, size):
            tile = pack_lanes([r >> first & mask for r in block], size)
            lanes = unpack_lanes(transpose_packed(tile, size), size,
                                 min(size, width - first))
            for c, v in enumerate(lanes, first):
                cols[c] |= v << base
    return cols


def solve_linear(rows, width: int, target: int):
    """One solution v of v x M = target for row-matrix M, or None.

    Returns a vector over the row index space (len(rows) bits).
    """
    pivots = _pivots_with_index(rows, width)
    t = _reduce(pivots, target)
    if t & ((1 << width) - 1) or target >> width:
        return None
    return t >> width
