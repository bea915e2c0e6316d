"""Dense vectors and matrices over F_q: RREF, rank, kernels, subspaces.

Matrices are plain numpy int64 arrays with entries in [0, q); the field is
passed alongside.  Subspaces of F_q^l are canonically represented by their
unique reduced-row-echelon basis matrix, which makes subspace equality a
structural comparison.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from .errors import MalformedInput, TooManySubspaces
from .gf import Field

MAX_SUBSPACES = 10 ** 6


def as_matrix(entries, field: Field | None = None) -> np.ndarray:
    """`entries` as a 2-D int64 array; with a field, every entry must lie in [0, q)."""
    try:
        m = np.asarray(entries, dtype=np.int64)
    except (TypeError, ValueError) as e:
        raise MalformedInput(f"not an integer matrix: {e}") from None
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
    """Reduced row echelon form; returns (R, rank, pivot columns)."""
    r = as_matrix(m).copy()
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
        for i in range(rows):
            if i != pr and r[i, col]:
                r[i] = field.sub(r[i], field.mul(int(r[i, col]), r[pr]))
        pivots.append(col)
        pr += 1
    return r, len(pivots), pivots


def rank(field: Field, m: np.ndarray) -> int:
    return rref(field, m)[1]


def kernel_basis(field: Field, m: np.ndarray) -> np.ndarray:
    """Basis of ker(m) as the columns of a cols x (cols - rank) matrix."""
    m = as_matrix(m)
    r, rk, pivots = rref(field, m)
    cols = m.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for i, pc in enumerate(pivots):
            basis[pc, j] = field.neg(int(r[i, fc]))
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


def enumerate_subspaces(field: Field, ell: int, max_count: int = MAX_SUBSPACES):
    """Yield every subspace of F_q^ell exactly once, as its RREF basis.

    The dimension-m subspaces are generated by choosing pivot columns and
    filling the free entries; each matrix produced is already in RREF, so
    no two yields represent the same subspace.
    """
    q = field.q
    total = subspace_count(ell, q)
    if total > max_count:
        raise TooManySubspaces(f"{total} subspaces of F_{q}^{ell} exceeds {max_count}")
    yield np.zeros((0, ell), dtype=np.int64)  # the trivial subspace
    for m in range(1, ell + 1):
        for pivots in combinations(range(ell), m):
            # free positions: entries (i, c) with c > pivots[i], c not a pivot
            free = [
                (i, c)
                for i in range(m)
                for c in range(pivots[i] + 1, ell)
                if c not in pivots
            ]
            for values in product(range(q), repeat=len(free)):
                b = np.zeros((m, ell), dtype=np.int64)
                for i, p in enumerate(pivots):
                    b[i, p] = 1
                for (i, c), v in zip(free, values):
                    b[i, c] = v
                yield b


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
