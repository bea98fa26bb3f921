"""GF(2) linear algebra on bit-packed rows (row = int, bit j = entry j)."""

from .errors import DomainError


def parity(x: int) -> int:
    """Parity of the popcount of x."""
    return bin(x).count("1") & 1


def mat_rank(rows, width: int) -> int:
    """Rank of the matrix whose rows are the given ints."""
    rank = 0
    work = list(rows)
    for col in range(width):
        bit = 1 << col
        pivot = None
        for idx in range(len(work)):
            if work[idx] & bit:
                pivot = work[idx]
                del work[idx]
                break
        if pivot is None:
            continue
        rank += 1
        work = [r ^ pivot if r & bit else r for r in work]
    return rank


def mat_invert(rows, width: int):
    """Inverse of a square bit matrix (rows as ints), or None if singular."""
    n = len(rows)
    if n != width:
        raise DomainError("matrix must be square")
    aug = [(rows[i], 1 << i) for i in range(n)]
    for col in range(n):
        bit = 1 << col
        pivot = None
        for idx in range(col, n):
            if aug[idx][0] & bit:
                pivot = idx
                break
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        prow, pinv = aug[col]
        for idx in range(n):
            if idx != col and aug[idx][0] & bit:
                aug[idx] = (aug[idx][0] ^ prow, aug[idx][1] ^ pinv)
    return [inv for _, inv in aug]


def row_apply(rows, v: int) -> int:
    """Row-vector times matrix: xor of rows[i] over set bits i of v."""
    out = 0
    while v:
        low = v & -v
        out ^= rows[low.bit_length() - 1]
        v ^= low
    return out


def mat_transpose(rows, width: int):
    """Transpose a bit matrix given as a list of row ints."""
    cols = [0] * width
    for i, r in enumerate(rows):
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= 1 << i
            r ^= low
    return cols


def solve_linear(rows, width: int, target: int):
    """One solution v of v x M = target for row-matrix M, or None.

    Returns a vector over the row index space (len(rows) bits).
    """
    m = len(rows)
    aug = [(rows[i], 1 << i) for i in range(m)]
    t = (target, 0)
    for col in range(width):
        bit = 1 << col
        pivot = None
        for idx in range(len(aug)):
            if aug[idx][0] & bit:
                pivot = aug[idx]
                del aug[idx]
                break
        if pivot is None:
            if t[0] & bit:
                return None
            continue
        aug = [(r ^ pivot[0], c ^ pivot[1]) if r & bit else (r, c) for r, c in aug]
        if t[0] & bit:
            t = (t[0] ^ pivot[0], t[1] ^ pivot[1])
    return t[1] if t[0] == 0 else None
