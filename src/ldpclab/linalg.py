"""Dense vectors and matrices over F_q: RREF, rank, kernels, subspaces.

Matrices are plain numpy int64 arrays with entries in [0, q); the field is
passed alongside.  Subspaces of F_q^l are canonically represented by their
unique reduced-row-echelon basis matrix, which makes subspace equality a
structural comparison.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from .errors import MalformedInput, ResourceGuardError
from .gf import Field

MAX_SUBSPACES = 10 ** 6
BLOCK_BYTES = 1 << 19  # bytes of one array of every blocked loop (0.5 MiB, L2-sized)


def as_matrix(entries, field: Field | None = None) -> np.ndarray:
    """`entries` as a 2-D int64 array; every entry must be an integer, and
    with a field lie in [0, q)."""
    try:
        m = np.asarray(entries, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as e:
        raise MalformedInput(f"not an integer matrix: {e}") from None
    truncated = m is not entries and not np.array_equal(m, entries)
    # the cast reads a bool as 0 or 1, so a list is searched for one
    if truncated or not isinstance(entries, np.ndarray) and any(
            isinstance(x, bool) for x in np.asarray(entries, dtype=object).ravel().tolist()):
        raise MalformedInput("matrix entry is not an integer")
    if m.ndim != 2:
        raise MalformedInput(f"expected a 2-D matrix, got shape {m.shape}")
    if field is not None and m.size and (m.min() < 0 or m.max() >= field.q):
        raise MalformedInput(f"matrix entry outside [0, {field.q})")
    return m


def matmul(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over F_q; leading axes of `a` are batch axes.

    Prime fields reduce the integer product mod p (on int64: a uint8 `@`
    wraps); extension fields accumulate one column of `a` at a time.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    b = np.asarray(b, dtype=np.int64)
    b2 = b[:, None] if b.ndim == 1 else b
    if a.shape[-1] != b2.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} x {b2.shape}")
    if field.h == 1:
        out = (a @ b2) % field.p
    else:
        out = np.zeros(a.shape[:-1] + b2.shape[1:], dtype=np.int64)
        for k in range(a.shape[-1]):
            out = field.add(out, field.mul(a[..., k, None], b2[k]))
    return out[..., 0] if b.ndim == 1 else out


def rref(field: Field, m: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form; returns (R, rank, pivot columns).

    Over F_2 the whole matrix is one Python int: row i sits at bits
    [iW, (i+1)W) with W = 8 * ceil(cols / 8), bit j of a row being column
    j (numpy's little-endian `packbits` layout).  Per column, one shift
    and one AND against "bit 0 of every row" give the set S of rows that
    hold it; a swap is two XORs, and `big ^= p * (S minus the pivot row)`
    adds the pivot row p to every other row of S in one carry-free
    multiply.  Over other fields each pivot clears its whole column in
    one array update.  The RREF is unique, so both give the same R as a
    row-at-a-time elimination.  R is always a fresh int64 array.
    """
    r = as_matrix(m)
    if field.q == 2:
        return _rref_gf2(r)
    r = r.copy()
    rows, cols = r.shape
    pivots: list[int] = []
    pr = 0
    for col in range(cols):
        if pr >= rows:
            break
        nz = np.nonzero(r[pr:, col])[0]
        if nz.size == 0:
            continue
        lead = pr + int(nz[0])
        if lead != pr:
            r[[pr, lead]] = r[[lead, pr]]
        r[pr] = field.mul(field.inv(int(r[pr, col])), r[pr])
        f = r[:, col].copy()
        f[pr] = 0
        hit = np.flatnonzero(f)
        if hit.size:
            r[hit] = field.sub(r[hit], field.mul(f[hit, None], r[pr]))
        pivots.append(col)
        pr += 1
    return r, len(pivots), pivots


def _rref_gf2(m: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    rows, cols = m.shape
    if not rows or not cols:
        return np.zeros((rows, cols), dtype=np.int64), 0, []
    packed = np.packbits(m.astype(np.uint8), axis=1, bitorder="little")
    width = packed.shape[1]
    w = 8 * width
    big = int.from_bytes(packed.tobytes(), "little")  # row i at bits [i*w, (i+1)*w)
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * rows, "little")  # bit 0 of each row
    mask = (1 << w) - 1
    pivots: list[int] = []
    pr = 0
    for col in range(cols):
        if pr >= rows:
            break
        hold = (big >> col) & ones  # bit i*w set iff row i holds the column
        below = hold >> (pr * w)
        if not below:
            continue
        lead = pr + ((below & -below).bit_length() - 1) // w
        p = (big >> (lead * w)) & mask
        if lead != pr:
            d = p ^ ((big >> (pr * w)) & mask)
            big ^= (d << (pr * w)) | (d << (lead * w))
            hold ^= (1 << (pr * w)) | (1 << (lead * w))
        # p < 2^w and hold's bits are w apart: one carry-free multiply adds
        # the pivot row to every other row that holds the column
        big ^= p * (hold ^ (1 << (pr * w)))
        pivots.append(col)
        pr += 1
    bits = np.frombuffer(big.to_bytes(rows * width, "little"), dtype=np.uint8)
    out = np.unpackbits(bits.reshape(rows, width), axis=1, count=cols, bitorder="little")
    return out.astype(np.int64), len(pivots), pivots


def rank(field: Field, m: np.ndarray) -> int:
    return rref(field, m)[1]


def kernel_basis(field: Field, m: np.ndarray) -> np.ndarray:
    """Basis of ker(m) as the columns of a cols x (cols - rank) matrix: the
    identity on the free (non-pivot) columns, as `has_codeword_of_weight`
    needs, and -R's free entries on the pivot ones, R the RREF of m."""
    r, rk, pivots = rref(field, m)
    is_free = np.ones(r.shape[1], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((r.shape[1], len(free)), dtype=np.int64)
    basis[free, np.arange(len(free))] = 1
    basis[pivots] = field.neg(r[:rk, free])
    return basis


def gaussian_binomial(ell: int, m: int, q: int) -> int:
    """Number of m-dimensional subspaces of F_q^ell."""
    if m < 0 or m > ell:
        return 0
    num = den = 1
    for i in range(m):
        num *= q ** (ell - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_count(ell: int, q: int) -> int:
    return sum(gaussian_binomial(ell, m, q) for m in range(ell + 1))


def enumerate_subspaces(field: Field, ell: int, batch: int):
    """Every subspace of F_q^ell exactly once, as stacks of RREF bases.

    The dimension-m subspaces are generated by choosing pivot columns and
    filling the free entries, so each basis is already in RREF and no two
    represent the same subspace.  Dimensions ascend, pivot sets come in
    `combinations` order, and the free entries count up in `product`
    order (the last fastest).  Each yield is a fresh (b, m, ell) array of
    b <= `batch` bases of one dimension, which may span several pivot
    sets: a stack is filled one pivot set at a time and yielded when full
    or when its dimension ends, so memory is one stack whatever the number
    of subspaces.  The subspace count is checked against MAX_SUBSPACES
    here, before the first stack is built.
    """
    q = field.q
    total = subspace_count(ell, q)
    if total > MAX_SUBSPACES:
        raise ResourceGuardError(f"{total} subspaces of F_{q}^{ell} exceeds {MAX_SUBSPACES}")

    def stacks():
        for m in range(ell + 1):
            size, fill = min(batch, gaussian_binomial(ell, m, q)), 0
            for pivots in combinations(range(ell), m):
                # free positions: entries (i, c) with c > pivots[i], c not a pivot
                rows, cols = np.array([
                    (i, c)
                    for i in range(m)
                    for c in range(pivots[i] + 1, ell)
                    if c not in pivots
                ], dtype=np.intp).reshape(-1, 2).T
                count = q ** len(rows)
                lo = 0
                while lo < count:
                    if not fill:
                        b = np.zeros((size, m, ell), dtype=np.int64)
                    hi = min(lo + size - fill, count)
                    part = b[fill:fill + hi - lo]
                    part[:, np.arange(m), list(pivots)] = 1
                    # reversed: index_vector counts its first entry fastest, product its last
                    part[:, rows, cols] = index_vector(np.arange(lo, hi), len(rows), q)[:, ::-1]
                    fill, lo = fill + hi - lo, hi
                    if fill == size:
                        yield b
                        fill = 0
            if fill:
                yield b[:fill]

    return stacks()


def vector_index(v, q: int) -> int:
    """Encode a vector over F_q as an integer, first coordinate least significant."""
    idx = 0
    for x in reversed(np.asarray(v)):
        idx = idx * q + int(x)
    return idx


def index_vector(idx, ell: int, q: int) -> np.ndarray:
    """Decode an index, or an array of indices into one vector per row."""
    idx = np.asarray(idx, dtype=np.int64)
    out = np.zeros(idx.shape + (ell,), dtype=np.int64)
    for i in range(ell):
        out[..., i] = idx % q
        idx = idx // q
    return out


def all_vectors(ell: int, q: int) -> np.ndarray:
    """All q^ell vectors as a (q^ell, ell) array, row i encoding index i."""
    return index_vector(np.arange(q ** ell), ell, q)
