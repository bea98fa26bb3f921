"""GF(2) linear algebra on bit-packed rows (row = int, bit j = entry j, j < width).

Rank, inverse, null space and solve share one Gauss-Jordan elimination,
_eliminate, which holds every row in a lane of one int and clears a column
in all lanes by one integer product."""

from functools import cache

from .errors import DomainError


def parity(x: int) -> int:
    """Parity of the popcount of x."""
    return x.bit_count() & 1


def _eliminate(rows, width: int):
    """Gauss-Jordan elimination on packed lanes: (lanes, pivots).

    Row i, carrying its index as bit width + i, sits in lane i of one int
    whose lanes are width + len(rows) bits wide. For each column below
    `width` the lowest free lane with that bit set becomes the column's
    pivot, and one integer product by the pivot row clears the column in
    every other lane, pivot lanes included; each lane is wider than the
    row, so the product cannot carry. lanes are the rows so reduced and
    pivots maps each pivot column to its lane, in column order. A free
    lane keeps no bit below `width`, and its index bits name rows that sum
    to 0. DomainError when a row has bits at or above `width`.
    """
    if any(r >> width for r in rows):
        raise DomainError(f"a row has bits at or above width {width}")
    count = len(rows)
    lane = width + count
    mask = (1 << lane) - 1
    # bit 0 of every lane, and the index bits: bit width + i of lane i, a
    # step of lane + 1 bits
    ones = free = ((1 << lane * count) - 1) // mask if count else 0
    x = pack_lanes(rows, lane) | ((1 << (lane + 1) * count) - 1) // (2 * mask + 1) << width
    pivots = {}
    for col in range(width):
        bits = x >> col & ones
        low = bits & free
        if low:
            low &= -low
            at = low.bit_length() - 1
            x ^= (bits ^ low) * (x >> at & mask)
            free ^= low
            pivots[col] = at // lane
    return unpack_lanes(x, lane, count), pivots


def mat_rank(rows, width: int) -> int:
    """Rank of the matrix whose rows are the given ints; DomainError when a
    row has bits at or above width."""
    return len(_eliminate(rows, width)[1])


def mat_invert(rows, width: int):
    """Inverse of a square bit matrix (rows as ints), or None if singular:
    row k is the index bits of column k's pivot lane, whose row bits the
    elimination has brought down to 1 << k."""
    n = len(rows)
    if n != width:
        raise DomainError("matrix must be square")
    lanes, pivots = _eliminate(rows, n)
    if len(pivots) < n:
        return None
    return [lanes[i] >> n for i in pivots.values()]


def null_space(rows, width: int):
    """A basis of {v : row_apply(rows, v) == 0}, as ints over the row index space:
    the index bits of the free lanes, in row order. Each carries its own
    index bit, which no other free lane does, so they are independent."""
    lanes, pivots = _eliminate(rows, width)
    taken = set(pivots.values())
    return [v >> width for i, v in enumerate(lanes) if i not in taken]


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

    Returns a vector over the row index space (len(rows) bits): the target
    reduced by the pivot rows, whose index bits then name the solution.
    """
    lanes, pivots = _eliminate(rows, width)
    t = target
    for col, i in pivots.items():
        if target >> col & 1:
            t ^= lanes[i]
    if t & ((1 << width) - 1) or target >> width:
        return None
    return t >> width
