import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpclab import linalg
from ldpclab.errors import ResourceGuardError
from ldpclab.gf import field_new


def rref_oracle(field, m):
    """Row-at-a-time reduced row echelon form, the reference for `linalg.rref`."""
    r = linalg.as_matrix(m).copy()
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


def kernel_basis_oracle(field, m):
    r, rk, pivots = rref_oracle(field, m)
    cols = r.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for i, pc in enumerate(pivots):
            basis[pc, j] = field.neg(int(r[i, fc]))
    return basis


@st.composite
def matrices(draw, q, max_rows=8, min_cols=0, max_cols=8):
    """Matrices over [0, q), some with duplicated rows."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = rng.integers(0, q, size=(rows, cols))
    if rows > 1 and draw(st.booleans()):
        m[rng.integers(0, rows, size=rows // 2)] = m[rng.integers(0, rows)]
    return m


def assert_matches_oracle(f, m):
    r, rk, piv = linalg.rref(f, m)
    r0, rk0, piv0 = rref_oracle(f, m)
    assert r.dtype == np.int64 and np.array_equal(r, r0)
    assert rk == rk0 and piv == piv0
    assert all(type(c) is int for c in piv)
    assert np.array_equal(linalg.kernel_basis(f, m), kernel_basis_oracle(f, m))


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1)])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rref_matches_row_oracle(p, h, data):
    f = field_new(p, h)
    assert_matches_oracle(f, data.draw(matrices(f.q)))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rref_gf2_wider_than_a_word(data):
    assert_matches_oracle(field_new(2), data.draw(matrices(2, 40, 65, 150)))


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1)])
@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (4, 0), (9, 3)])
def test_rref_edge_shapes_match_row_oracle(p, h, shape):
    f = field_new(p, h)
    m = np.random.default_rng(5).integers(0, f.q, size=shape)
    assert_matches_oracle(f, m)
    if shape[0] > 1:
        assert_matches_oracle(f, np.repeat(m[:1], shape[0], axis=0))


@pytest.mark.parametrize("cols", [1, 7, 8, 9, 47, 48, 49, 63, 64, 65, 127, 128, 129])
def test_rref_gf2_packed_widths_match_row_oracle(cols):
    # F_2 rows are packed W = 8 * ceil(cols / 8) bits apart in one integer:
    # widths on each side of a byte and of a 64-bit word, with fewer, as
    # many and more rows than columns, dense and sparse
    f = field_new(2)
    rng = np.random.default_rng(cols)
    for rows in (1, cols - 1, cols, cols + 1, 70):
        for density in (0.5, 0.05):
            assert_matches_oracle(f, (rng.random((rows, cols)) < density).astype(np.int64))


@pytest.mark.parametrize("shape", [(1, 1), (5, 9), (9, 5), (48, 48), (70, 65)])
@pytest.mark.parametrize("fill", ["zeros", "ones", "repeated-row"])
def test_rref_gf2_degenerate_matrices_match_row_oracle(shape, fill):
    f = field_new(2)
    rank = 0 if fill == "zeros" else 1
    if fill == "repeated-row":
        row = np.random.default_rng(7).integers(0, 2, size=shape[1])
    else:
        row = np.full(shape[1], rank)
    row[0] = rank
    m = np.tile(row, (shape[0], 1))
    assert_matches_oracle(f, m)
    assert linalg.rref(f, m)[1] == rank


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1)])
@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (4, 0), (1, 1), (9, 3), (6, 70)])
def test_rref_returns_a_fresh_writable_array(p, h, shape):
    f = field_new(p, h)
    m = np.random.default_rng(8).integers(0, f.q, size=shape)
    before = m.copy()
    r = linalg.rref(f, m)[0]
    assert r.dtype == np.int64 and r.shape == shape and r.flags.writeable
    assert not np.shares_memory(r, m)
    r[...] = 1
    assert np.array_equal(m, before)


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_rref_idempotent_and_kernel(p, h):
    f = field_new(p, h)
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.integers(0, f.q, size=(rng.integers(1, 6), rng.integers(1, 7)))
        r, rk, piv = linalg.rref(f, m)
        r2, rk2, piv2 = linalg.rref(f, r)
        assert np.array_equal(r, r2) and rk == rk2 and piv == piv2
        kb = linalg.kernel_basis(f, m)
        assert kb.shape == (m.shape[1], m.shape[1] - rk)
        if kb.shape[1]:
            assert not np.any(linalg.matmul(f, m, kb))
        # kernel basis columns independent
        assert linalg.rank(f, kb.T) == kb.shape[1]


def test_matmul_matches_schoolbook():
    f = field_new(3, 2)
    rng = np.random.default_rng(4)
    a = rng.integers(0, f.q, size=(3, 4))
    b = rng.integers(0, f.q, size=(4, 2))
    out = linalg.matmul(f, a, b)
    for i in range(3):
        for j in range(2):
            acc = 0
            for k in range(4):
                acc = f.add(acc, f.mul(int(a[i, k]), int(b[k, j])))
            assert out[i, j] == acc
    v = rng.integers(0, f.q, size=4)
    assert np.array_equal(linalg.matmul(f, a, v), linalg.matmul(f, a, v[:, None])[:, 0])


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1)])
@settings(max_examples=20, deadline=None)
@given(batch=st.lists(st.integers(1, 3), max_size=2), rows=st.integers(1, 4),
       inner=st.integers(0, 6), cols=st.integers(1, 3), seed=st.integers(0, 2 ** 32))
def test_batched_matmul_matches_per_slice(p, h, batch, rows, inner, cols, seed):
    f = field_new(p, h)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, f.q, size=(*batch, rows, inner)).astype(np.uint8)
    b = rng.integers(0, f.q, size=(inner, cols)).astype(np.uint8)
    out = linalg.matmul(f, a, b)
    assert out.shape == (*batch, rows, cols) and out.dtype == np.int64
    for i in np.ndindex(*batch):
        assert np.array_equal(out[i], linalg.matmul(f, a[i], b))
        for r in range(rows):
            for c in range(cols):
                acc = 0
                for k in range(inner):
                    acc = f.add(acc, f.mul(int(a[i][r, k]), int(b[k, c])))
                assert out[i][r, c] == acc


def test_gaussian_binomials():
    assert linalg.gaussian_binomial(3, 1, 2) == 7
    assert linalg.gaussian_binomial(3, 2, 2) == 7
    assert linalg.gaussian_binomial(4, 2, 2) == 35
    assert linalg.gaussian_binomial(3, 1, 3) == 13
    assert linalg.gaussian_binomial(3, 0, 2) == 1
    assert linalg.gaussian_binomial(3, 4, 2) == 0
    assert linalg.subspace_count(3, 2) == 16


@pytest.mark.parametrize("p,ell", [(2, 3), (3, 2), (2, 4)])
def test_enumerate_subspaces_complete_distinct_rref(p, ell):
    f = field_new(p)
    seen = set()
    stacks = linalg.enumerate_subspaces(f, ell, linalg.MAX_SUBSPACES)
    for b in (b for stack in stacks for b in stack):
        r, rk, _ = linalg.rref(f, b) if b.shape[0] else (b, 0, [])
        assert rk == b.shape[0]  # basis rows independent and already RREF
        if b.shape[0]:
            assert np.array_equal(r, b)
        seen.add(b.tobytes() + bytes([b.shape[0]]))
    assert len(seen) == linalg.subspace_count(ell, p)


def enumerate_subspaces_oracle(field, ell):
    """One RREF basis at a time: dimensions ascending, pivot sets in
    `combinations` order, free entries in `product` order."""
    q = field.q
    yield np.zeros((0, ell), dtype=np.int64)
    for m in range(1, ell + 1):
        for pivots in combinations(range(ell), m):
            free = [(i, c) for i in range(m) for c in range(pivots[i] + 1, ell)
                    if c not in pivots]
            for values in product(range(q), repeat=len(free)):
                b = np.zeros((m, ell), dtype=np.int64)
                for i, p in enumerate(pivots):
                    b[i, p] = 1
                for (i, c), v in zip(free, values):
                    b[i, c] = v
                yield b


@pytest.mark.parametrize("p,h,ell", [(2, 1, 3), (3, 1, 2), (2, 1, 4), (2, 2, 3), (5, 1, 3)])
@pytest.mark.parametrize("batch", [1, 3, linalg.MAX_SUBSPACES])
def test_enumerate_subspaces_stacks_follow_the_per_basis_order(p, h, ell, batch):
    # the stacks, read in order, are the oracle's bases in the oracle's
    # order; each holds at most `batch` bases of one dimension (the stack's
    # shape), only the last of a dimension is short, and a stack may cross
    # from one pivot set into the next
    f = field_new(p, h)
    flat, crossings, short = [], 0, set()  # short: dimensions whose last stack has come
    for stack in linalg.enumerate_subspaces(f, ell, batch):
        assert stack.dtype == np.int64 and stack.ndim == 3 and 1 <= len(stack) <= batch
        assert stack.shape[1] not in short
        if len(stack) < batch:
            short.add(stack.shape[1])
        pivots = (stack != 0).argmax(axis=2)
        crossings += not (pivots == pivots[0]).all()
        flat.extend(stack)
    if batch == 3 and (f.q, ell) != (3, 2):  # F_3^2's lines: pivot sets of 3 and 1
        assert crossings
    expected = list(enumerate_subspaces_oracle(f, ell))
    assert len(flat) == len(expected) == linalg.subspace_count(ell, f.q)
    for b, e in zip(flat, expected):
        assert b.shape == e.shape and np.array_equal(b, e)


def test_enumerate_subspaces_memory_is_flat():
    # F_2^8 holds 417,199 subspaces; its 200,787 of dimension 4 alone take
    # 51 MiB as int64 bases, while 256-basis stacks peak near 0.2 MiB
    f = field_new(2)
    tracemalloc.start()
    try:
        count = sum(len(stack) for stack in linalg.enumerate_subspaces(f, 8, 256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == linalg.subspace_count(8, 2) == 417199
    assert peak < 2 ** 20


def test_enumerate_subspaces_guard():
    # refused at the call, before any stack is built
    f = field_new(2)
    with pytest.raises(ResourceGuardError, match="subspaces of F_"):
        linalg.enumerate_subspaces(f, 50, 1)


def test_vector_index_roundtrip():
    for q, ell in [(2, 5), (3, 3), (4, 2)]:
        for idx in range(q ** ell):
            v = linalg.index_vector(idx, ell, q)
            assert linalg.vector_index(v, q) == idx
    # first coordinate least significant
    assert linalg.vector_index([1, 0, 0], 2) == 1
    assert linalg.vector_index([0, 0, 1], 2) == 4


def test_all_vectors_ordering():
    av = linalg.all_vectors(3, 2)
    assert av.shape == (8, 3)
    for i in range(8):
        assert linalg.vector_index(av[i], 2) == i
