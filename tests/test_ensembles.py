import json
import math
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpclab import ensembles, linalg
from ldpclab.errors import CodeTooLarge, MalformedInput, PreconditionError
from ldpclab.gf import field_new

F2 = field_new(2)
F3 = field_new(3)


def test_params_validation():
    with pytest.raises(PreconditionError, match="rate must be in"):
        ensembles.LdpcEnsembleParams(F2, 12, 3, Fraction(0))
    with pytest.raises(PreconditionError, match="s=3 does not divide n=13"):
        ensembles.LdpcEnsembleParams(F2, 13, 3, Fraction(1, 3))
    with pytest.raises(PreconditionError, match="must be a positive integer"):
        ensembles.LdpcEnsembleParams(F2, 12, 4, Fraction(1, 3))  # t = 8/3
    with pytest.raises(PreconditionError, match="s=0 does not divide n=12"):
        ensembles.LdpcEnsembleParams(F2, 12, 0, Fraction(1, 3))
    p = ensembles.LdpcEnsembleParams(F2, 12, 3, Fraction(1, 3))
    assert p.t == 2 and p.checks_per_layer == 4


@pytest.mark.parametrize("fld,n,s,rate", [
    (F2, 24, 3, Fraction(1, 3)),
    (F3, 20, 5, Fraction(2, 5)),
    (field_new(2, 2), 12, 4, Fraction(1, 2)),
])
def test_ldpc_regularity(fld, n, s, rate):
    params = ensembles.LdpcEnsembleParams(fld, n, s, rate)
    code = ensembles.sample_ldpc(params, 11)
    t = params.t
    assert code.h.shape == (t * n // s, n)
    assert np.all(np.count_nonzero(code.h, axis=1) == s)
    assert np.all(np.count_nonzero(code.h, axis=0) == t)
    # every nonzero entry is a unit (trivially true; checked for q > 2 scaling)
    assert np.all((code.h == 0) | (code.h >= 1))


def test_determinism_and_seed_sensitivity():
    params = ensembles.LdpcEnsembleParams(F2, 24, 3, Fraction(1, 3))
    a = ensembles.sample_ldpc(params, 5)
    b = ensembles.sample_ldpc(params, 5)
    c = ensembles.sample_ldpc(params, 6)
    assert a == b
    assert a != c
    r1 = ensembles.sample_rlc(12, Fraction(1, 2), F3, 9)
    r2 = ensembles.sample_rlc(12, Fraction(1, 2), F3, 9)
    assert r1 == r2


def test_rlc_rate_checks():
    with pytest.raises(PreconditionError, match="is not an integer"):
        ensembles.sample_rlc(10, Fraction(1, 3), F2, 0)
    code = ensembles.sample_rlc(12, Fraction(1, 3), F2, 0)
    assert code.h.shape == (8, 12)


@pytest.mark.parametrize("code", [
    ensembles.sample_rlc(12, Fraction(1, 3), F2, 2),
    ensembles.sample_ldpc(ensembles.LdpcEnsembleParams(F3, 10, 5, Fraction(1, 5)), 3),
    ensembles.sample_rlc(8, Fraction(1, 2), field_new(13), 4),
])
def test_json_roundtrip(code):
    again = ensembles.LinearCode.from_json(code.to_json())
    assert again == code
    assert again.to_json() == code.to_json()


def test_generator_columns_are_codewords():
    params = ensembles.LdpcEnsembleParams(F3, 15, 3, Fraction(1, 3))
    code = ensembles.sample_ldpc(params, 1)
    g = code.generator
    for j in range(g.shape[1]):
        assert ensembles.contains(code, g[:, j])
    with pytest.raises(PreconditionError, match="vector length"):
        ensembles.contains(code, np.zeros(14, dtype=np.int64))


FIELDS = {2: F2, 3: F3, 4: field_new(2, 2), 5: field_new(5)}


def enumerate_codewords(code, chunk=1 << 16):
    """Test oracle: all q^k codewords in message order, message m being
    `index_vector(m)` times the transposed generator."""
    k, q = code.dimension, code.field.q
    gen_t = code.generator.T
    for start in range(0, q ** k, chunk):
        idx = np.arange(start, min(start + chunk, q ** k))
        yield from linalg.matmul(code.field, linalg.index_vector(idx, k, q), gen_t)


def nonzero_weights(code):
    """Weights of the nonzero codewords in message order (message 0 is the
    zero codeword)."""
    return np.count_nonzero(np.array(list(enumerate_codewords(code)))[1:], axis=1)


def min_distance_oracle(code):
    """Brute-force reference for `min_distance`: the lightest nonzero
    codeword over all q^k messages, the first in message order."""
    if code.dimension == 0:
        return 1.0, np.zeros(code.n, dtype=np.int64)
    weights = nonzero_weights(code)
    first = int(np.argmin(weights))
    msg = linalg.index_vector(first + 1, code.dimension, code.field.q)
    return int(weights[first]) / code.n, linalg.matmul(code.field, code.generator, msg)


def assert_min_distance_matches_oracle(code):
    d, witness = ensembles.min_distance(code)
    assert d == min_distance_oracle(code)[0]
    if code.dimension:
        assert witness.any() and ensembles.contains(code, witness)
        assert np.count_nonzero(witness) == round(d * code.n)


def test_min_distance_known_code():
    # parity-check of the binary repetition code of length 3
    code = ensembles.LinearCode(F2, np.array([[1, 1, 0], [0, 1, 1]]), 0, Fraction(1, 3), 0)
    d, w = code_dist = ensembles.min_distance(code)
    assert d == 1.0
    assert np.array_equal(w, [1, 1, 1])


def test_min_distance_bitmask_vs_generic():
    # min_distance against a scan of every codeword by the test oracle
    code = ensembles.sample_ldpc(
        ensembles.LdpcEnsembleParams(F2, 18, 3, Fraction(1, 3)), 7
    )
    d_fast, w_fast = ensembles.min_distance(code)
    weights = nonzero_weights(code)
    d_slow = weights.min() / code.n if len(weights) else 1.0
    assert d_fast == d_slow
    assert np.count_nonzero(w_fast) == round(d_fast * code.n)
    assert ensembles.contains(code, w_fast)


def free_top_code(n, k):
    """H = [I | A] over F_2: the last k coordinates are free, so for k > 0
    some codeword has coordinate n - 1 set."""
    a = np.random.default_rng(k).integers(0, 2, size=(n - k, k))
    return ensembles.LinearCode(F2, np.hstack([np.eye(n - k, dtype=np.int64), a]),
                                0, Fraction(k, n), 0)


@pytest.mark.parametrize("k", range(11))
def test_codeword_bitmasks_match_enumeration(k):
    # over F_2 the level walk on the generator rows yields the nonzero
    # codewords as uint64 bitmasks; at n = 64 the top bit is set
    n = 64
    code = free_top_code(n, k)
    assert code.dimension == k
    sizes, walk = ensembles._levels(F2, code.generator.T, k)
    masks = np.concatenate(list(walk))[1:, 0]  # the zero message first
    assert len(masks) == sum(sizes) - 1
    expected = [linalg.vector_index(cw, 2) for cw in enumerate_codewords(code)][1:]
    assert masks.dtype == np.uint64 and sorted(masks.tolist()) == sorted(expected)
    if k:
        assert int(masks.max()) >> (n - 1) == 1


def test_has_codeword_of_weight():
    code = ensembles.sample_rlc(12, Fraction(1, 3), F2, 8)
    present = set(nonzero_weights(code).tolist())
    for w in range(13):
        assert ensembles.has_codeword_of_weight(code, w) == (w in present)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_has_codeword_of_weight_matches_oracle(q, data):
    # random H with zero and duplicated rows, k from 0 up to what the
    # oracle enumerates quickly; over F_2 also n = 64 with the top
    # coordinate free and n = 70, where codewords take two words
    fld = FIELDS[q]
    shape = data.draw(st.sampled_from(["random", "top", "two words"] if q == 2 else ["random"]),
                      label="shape")
    if shape == "top":
        code = free_top_code(64, data.draw(st.integers(0, 10), label="k"))
    elif shape == "two words":
        k = data.draw(st.integers(0, 10), label="k")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32), label="seed"))
        code = ensembles.LinearCode(fld, rng.integers(0, 2, size=(70 - k, 70)), 0,
                                    Fraction(1, 2), 0)
    else:
        n = data.draw(st.integers(1, {2: 12, 3: 8, 4: 6, 5: 6}[q]), label="n")
        m = data.draw(st.integers(0, n), label="rows")
        entries = data.draw(st.lists(st.integers(0, q - 1), min_size=m * n, max_size=m * n))
        h = np.array(entries, dtype=np.int64).reshape(m, n)
        if m and data.draw(st.booleans(), label="duplicate rows"):
            h = h[data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))]
        zero_rows = data.draw(st.integers(0, 2), label="zero rows")
        code = ensembles.LinearCode(fld, np.vstack([h, np.zeros((zero_rows, n), dtype=np.int64)]),
                                    0, Fraction(1, 2), 0)
    present = set(nonzero_weights(code).tolist())
    # weights 0..n+1 take in 0, k and k + 1, on either side of where the
    # walk's radius min(w, k) stops growing
    for w in range(code.n + 2):
        assert ensembles.has_codeword_of_weight(code, w) == (w in present)


def spy_levels(monkeypatch):
    """Record the weight of every level `_level_sums` is asked to sum."""
    summed, level_sums = [], ensembles._level_sums

    def spy(fld, multiples, prev, w):
        summed.append(w)
        return level_sums(fld, multiples, prev, w)

    monkeypatch.setattr(ensembles, "_level_sums", spy)
    return summed


@pytest.mark.parametrize("fld,n,rate", [(F3, 30, Fraction(7, 15)), (F3, 24, Fraction(1, 2)),
                                        (FIELDS[4], 20, Fraction(2, 5))])
def test_has_codeword_of_weight_misses_below_min_distance(monkeypatch, fld, n, rate):
    # a weight w below the minimum distance d is a miss, found from the
    # messages of weight <= w alone: over F_3 at n = 30, k = 14 and d = 7,
    # weight 6 walks 275577 messages, not all 3^14 = 4782969; weight d hits
    code = ensembles.sample_rlc(n, rate, fld, 0)
    d = round(ensembles.min_distance(code)[0] * n)
    summed = spy_levels(monkeypatch)
    for w in range(d):
        summed.clear()
        assert not ensembles.has_codeword_of_weight(code, w)
        assert max(summed, default=0) <= w
    assert ensembles.has_codeword_of_weight(code, d)
    assert max(summed) <= d


def test_has_codeword_of_weight_guard(monkeypatch):
    # k = 25: weight 1 walks the 25 messages of weight 1; weight 13 would
    # walk the radius-13 ball of F_2^25, 2^24 + C(25, 13) vectors, and is
    # refused before any level is summed
    code = ensembles.LinearCode(F2, np.zeros((0, 25), dtype=np.int64), 0, Fraction(1, 2), 0)
    assert ensembles.has_codeword_of_weight(code, 1)

    def spy(*args):
        raise AssertionError("level summed past the guard")

    monkeypatch.setattr(ensembles, "_level_sums", spy)
    monkeypatch.setattr(ensembles, "_unit_multiples", spy)
    with pytest.raises(CodeTooLarge, match=r"^the radius-13 ball has 21977516 vectors, "
                                           r"more than 16777216$"):
        ensembles.has_codeword_of_weight(code, 13)
    # no codeword weighs more than n = 25: answered with no walk
    assert ensembles.has_codeword_of_weight(code, 26) is False


@pytest.mark.parametrize("fld,n", [(F3, 9), (field_new(2, 2), 6), (F2, 70)])
def test_nonzero_weights_match_enumeration(fld, n):
    # q > 2 and codewords of two words, all through the level walk
    code = ensembles.sample_rlc(n, Fraction(1, 3) if n < 70 else Fraction(1, 7), fld, 4)
    weights = nonzero_weights(code).tolist()
    d, witness = ensembles.min_distance(code)
    assert round(d * n) == min(weights) and np.count_nonzero(witness) == min(weights)
    assert ensembles.contains(code, witness)
    for w in range(n + 1):
        assert ensembles.has_codeword_of_weight(code, w) == (w in weights)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_min_distance_matches_oracle(q, data):
    # random H, possibly empty, with duplicated rows or forced zero
    # coordinates (unit rows of H); q^k stays small enough for the oracle
    fld = FIELDS[q]
    n = data.draw(st.integers(1, {2: 12, 3: 8, 4: 6, 5: 6}[q]), label="n")
    m = data.draw(st.integers(0, n), label="rows")
    entries = data.draw(st.lists(st.integers(0, q - 1), min_size=m * n, max_size=m * n))
    h = np.array(entries, dtype=np.int64).reshape(m, n)
    if m and data.draw(st.booleans(), label="duplicate rows"):
        h = h[data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))]
    zeros = data.draw(st.lists(st.integers(0, n - 1), max_size=n), label="zero coordinates")
    h = np.vstack([h, np.eye(n, dtype=np.int64)[zeros]])
    assert_min_distance_matches_oracle(ensembles.LinearCode(fld, h, 0, Fraction(1, 2), 0))


@pytest.mark.parametrize("n", [70, 130])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_min_distance_matches_oracle_multiword(n, data):
    # binary codes of length 70 and 130 pack each generator row into 2 and
    # 3 words; n - k random checks, with forced zero coordinates, keep
    # k <= 12 or so
    k = data.draw(st.integers(1, 10), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32), label="seed"))
    h = rng.integers(0, 2, size=(n - k, n))
    zeros = data.draw(st.lists(st.integers(0, n - 1), max_size=4), label="zero coordinates")
    h = np.vstack([h, np.eye(n, dtype=np.int64)[zeros]])
    assert_min_distance_matches_oracle(ensembles.LinearCode(F2, h, 0, Fraction(1, 2), 0))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_min_distance_at_extreme_dimensions(q):
    fld = FIELDS[q]
    trivial = ensembles.LinearCode(fld, np.eye(5, dtype=np.int64), 0, Fraction(1, 2), 0)
    d, witness = ensembles.min_distance(trivial)
    assert trivial.dimension == 0 and d == 1.0 and not witness.any()
    for h in (np.zeros((0, 5), dtype=np.int64), np.zeros((2, 5), dtype=np.int64)):
        code = ensembles.LinearCode(fld, h, 0, Fraction(1, 2), 0)
        assert code.dimension == 5
        assert_min_distance_matches_oracle(code)


def test_min_distance_past_message_enumeration():
    # q^k = 2^30 messages: the brute force refused this code; the first
    # information set alone gives d = 1 and the bound 2 stops the search
    code = ensembles.LinearCode(F2, np.zeros((1, 30), dtype=np.int64), 0, Fraction(1, 2), 0)
    d, witness = ensembles.min_distance(code)
    assert d == 1 / 30
    assert np.count_nonzero(witness) == 1 and witness.max() == 1


def test_enum_guard(monkeypatch):
    # n = 200, k = 100: weights 1..4 of each information set fit the guard,
    # weight 5 (about 1.5e8 messages) does not and is refused unenumerated
    code = ensembles.sample_rlc(200, Fraction(1, 2), F2, 1)
    enumerated = spy_levels(monkeypatch)
    t0 = time.perf_counter()
    with pytest.raises(CodeTooLarge):
        ensembles.min_distance(code)
    assert time.perf_counter() - t0 < 1
    assert max(enumerated) == 4


@pytest.mark.parametrize("q, rows, w", [(3, 16, 5), (4, 14, 4)])
def test_level_sums_follow_rank_order_past_one_chunk(q, rows, w):
    # C(rows, w) (q-1)^w sums span several chunks of int64 rows of 7, 9362
    # = 2^19 // 56 rows a chunk; at sampled ranks, chunk edges included,
    # each is the combination of the rows of m that `_ball_vector` decodes
    # from the rank
    fld = field_new(*{3: (3,), 4: (2, 2)}[q])
    rng = np.random.default_rng(q)
    m = rng.integers(0, q, size=(rows, 7))
    multiples = ensembles._unit_multiples(fld, m)
    level = ensembles._zero_sum(multiples)
    for v in range(1, w + 1):
        chunks = list(ensembles._level_sums(fld, multiples, level, v))
        level = np.concatenate(chunks)
    chunk = linalg.BLOCK_BYTES // 56
    assert {len(sums) for sums in chunks[:-1]} == {chunk} == {9362}
    assert len(level) == math.comb(rows, w) * (q - 1) ** w > 2 * chunk
    edges = [chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, len(level) - 1]
    for rank in rng.integers(0, len(level), 200).tolist() + edges:
        x = ensembles._ball_vector(rows, q, w, rank)
        assert np.array_equal(level[rank], linalg.matmul(fld, x, m)[0])


def test_level_sums_keep_the_benchmark_chunks():
    # one-word F_2 rows (n <= 64: rlc-weight and ldpc-distance, items and
    # CLI passes) come 65,536 sums a chunk, as before the byte budget;
    # two-word rows (n = 90) half as many
    rng = np.random.default_rng(0)
    for n, chunk in ((60, 1 << 16), (90, 1 << 15)):
        multiples = ensembles._unit_multiples(F2, rng.integers(0, 2, size=(45, n)))
        level = ensembles._zero_sum(multiples)
        for w in range(1, 5):
            chunks = list(ensembles._level_sums(F2, multiples, level, w))
            level = np.concatenate(chunks)
        assert len(level) == math.comb(45, 4) > 2 * chunk
        assert {len(sums) for sums in chunks[:-1]} == {chunk} and len(chunks[-1]) <= chunk


def test_level_sums_of_an_empty_parity_check():
    # H with no rows gives zero-width syndromes; every ball vector shares
    # the one syndrome, so the list is the whole radius-2 ball of F_3^4
    code = ensembles.LinearCode(F3, np.zeros((0, 4), dtype=np.int64), 0, Fraction(1, 2), 0)
    assert ensembles.max_list_size(code, 0.5).max_list_size == 1 + 4 * 2 + 6 * 4


def list_size_at(code, center, alpha):
    """Per-center oracle: the codewords within relative distance alpha of
    `center` (one vector, or one center per row), counted by enumeration."""
    radius = int(np.floor(alpha * code.n + 1e-9))
    cws = np.array(list(enumerate_codewords(code)), dtype=np.int64)
    far = np.count_nonzero(np.asarray(center)[..., None, :] != cws.reshape(-1, code.n),
                           axis=-1)
    return np.count_nonzero(far <= radius, axis=-1)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_max_list_size_matches_per_center_scan(q, data):
    fld = field_new(*{2: (2,), 3: (3,), 4: (2, 2), 5: (5,)}[q])
    n = data.draw(st.integers(1, 8 if q < 4 else 5), label="n")
    m = data.draw(st.integers(0, n), label="rows")
    entries = data.draw(st.lists(st.integers(0, q - 1), min_size=m * n, max_size=m * n))
    h = np.array(entries, dtype=np.int64).reshape(m, n)
    if m and data.draw(st.booleans(), label="duplicate rows"):
        h = h[data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))]
    code = ensembles.LinearCode(fld, h, 0, Fraction(1, 2), 0)
    radius = data.draw(st.integers(0, n + 1), label="radius")
    alpha = radius / n
    if radius > n:
        with pytest.raises(PreconditionError, match="alpha must lie in"):
            ensembles.max_list_size(code, alpha)
        return
    res = ensembles.max_list_size(code, alpha)
    centers = linalg.all_vectors(n, q)
    best = max(int(list_size_at(code, centers[i:i + 256], alpha).max())
               for i in range(0, len(centers), 256))
    assert res.max_list_size == best
    assert list_size_at(code, res.worst_center, alpha) == best


def test_max_list_size_without_checks_counts_the_ball():
    # every center's list is its whole ball; the first ball vector is 0
    code = ensembles.LinearCode(F3, np.zeros((0, 6), dtype=np.int64), 0, Fraction(1, 2), 0)
    res = ensembles.max_list_size(code, 2 / 6)
    assert res.max_list_size == 1 + 6 * 2 + 15 * 4
    assert not res.worst_center.any()


def test_max_list_size_beyond_center_enumeration():
    # q^n = 2^32 centers, but the radius-4 ball holds 41449 vectors
    code = ensembles.sample_rlc(32, Fraction(1, 2), F2, 1)
    alpha = 4 / 32
    res = ensembles.max_list_size(code, alpha)
    assert list_size_at(code, res.worst_center, alpha) == res.max_list_size
    centers = np.random.default_rng(20).integers(0, 2, size=(20, 32))
    assert res.max_list_size >= list_size_at(code, centers, alpha).max()


def test_max_list_size_ball_guard():
    # the radius-6 ball in F_2^60 holds 5.6e7 vectors: refused before any work
    code = ensembles.sample_rlc(60, Fraction(1, 2), F2, 1)
    t0 = time.perf_counter()
    with pytest.raises(CodeTooLarge):
        ensembles.max_list_size(code, 6 / 60)
    assert time.perf_counter() - t0 < 1
    with pytest.raises(PreconditionError, match="alpha must lie in"):
        ensembles.max_list_size(code, float("nan"))


def test_ball_guard_precedes_the_unit_multiples(monkeypatch):
    # over F_{2^16} at n = 48 the unit multiples of H^T alone would take
    # 48 x 65535 x 36 words; the ball is refused before any are built
    code = ensembles.sample_rlc(48, Fraction(1, 4), field_new(2, 16), 0)

    def spy(*args):
        raise AssertionError("unit multiples built past the guard")

    monkeypatch.setattr(ensembles, "_unit_multiples", spy)
    with pytest.raises(CodeTooLarge, match=r"^the radius-4 ball has \d+ vectors"):
        ensembles.max_list_size(code, 0.1)
    with pytest.raises(CodeTooLarge, match=r"^the radius-2 ball has \d+ vectors"):
        ensembles.has_codeword_of_weight(code, 2)


def test_list_size_at_zero_center_counts_ball_codewords():
    code = ensembles.sample_rlc(10, Fraction(1, 2), F2, 5)
    alpha = 0.3
    by_enum = sum(
        1 for cw in enumerate_codewords(code) if np.count_nonzero(cw) <= 3
    )
    assert list_size_at(code, np.zeros(10, dtype=np.int64), alpha) == by_enum


def test_mc_contains_trivial_cases():
    z = np.zeros((12, 1), dtype=np.int64)
    assert ensembles.mc_rlc_contains(z, Fraction(1, 3), F2, 500, 0) == 1.0
    params = ensembles.LdpcEnsembleParams(F2, 12, 3, Fraction(1, 3))
    assert ensembles.mc_ldpc_contains(z, params, 500, 0) == 1.0
    # determinism of the estimators
    m = np.zeros((12, 1), dtype=np.int64)
    m[:4, 0] = 1
    a = ensembles.mc_ldpc_contains(m, params, 2000, 42)
    b = ensembles.mc_ldpc_contains(m, params, 2000, 42)
    assert a == b


def test_mc_contains_rejects_zero_trials():
    m = np.zeros((12, 1), dtype=np.int64)
    params = ensembles.LdpcEnsembleParams(F2, 12, 3, Fraction(1, 3))
    with pytest.raises(PreconditionError, match="trials must be at least 1"):
        ensembles.mc_ldpc_contains(m, params, 0, 0)
    with pytest.raises(PreconditionError, match="trials must be at least 1"):
        ensembles.mc_rlc_contains(m, Fraction(1, 3), F2, 0, 0)


def test_mc_contains_rejects_entries_outside_the_field():
    m = np.zeros((12, 1), dtype=np.int64)
    m[:3, 0] = [1, 5, 1]
    params = ensembles.LdpcEnsembleParams(F2, 12, 3, Fraction(1, 3))
    with pytest.raises(MalformedInput):
        ensembles.mc_ldpc_contains(m, params, 100, 0)
    with pytest.raises(MalformedInput):
        ensembles.mc_rlc_contains(m, Fraction(1, 3), F2, 100, 0)


def test_mc_rlc_contains_rejects_fractional_check_count():
    # (1 - 1/3) * 10 is not an integer, as in sample_rlc
    with pytest.raises(PreconditionError, match="is not an integer"):
        ensembles.mc_rlc_contains(np.zeros((10, 1), dtype=np.int64), Fraction(1, 3), F2, 100, 0)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 65521, 3 * 2 ** 30, 2 ** 31 + 1])
@pytest.mark.parametrize("key", [0, 2 ** 127 + 5])
def test_bounded_words_are_the_words_behind_integers(q, key):
    # 3*2^30 rejects a quarter of all words and 2^31 + 1 almost half; the
    # counts split each total into odd and even calls, so the carry runs
    # on both sides (numpy's buffered half-word, the reader's own carry)
    gen = np.random.Generator(np.random.Philox(key=key))
    words = ensembles._BoundedWords(np.random.Philox(key=key), q)
    for count in (1, 9999, 20001, 20000, 2):
        u = words.take(count)
        assert u.dtype == np.uint32 and u.shape == (count,)
        assert words.carry.base is None  # a copy: the words taken free their block
        draws = (u.astype(np.uint64) * q >> 32).astype(np.int64)
        assert np.array_equal(draws, gen.integers(0, q, size=count, dtype=np.int64))


def mc_rlc_contains_oracle(m, rate, fld, trials, seed):
    """The estimator as `Generator.integers` draws of whole parity-check
    matrices, 4096 trials at a time, each multiplied by all of M: the slow
    reference for `mc_rlc_contains`."""
    m = np.asarray(m, dtype=np.int64)
    n = m.shape[0]
    rows = int((1 - rate) * n)
    rng = ensembles.make_rng(seed)
    hits = 0
    for start in range(0, trials, 4096):
        b = min(4096, trials - start)
        hs = rng.integers(0, fld.q, size=(b, rows, n))
        prod = linalg.matmul(fld, hs, m)
        hits += int(np.count_nonzero(~prod.any(axis=(1, 2))))
    return hits / trials


RLC_FIELDS = {**FIELDS, 7: field_new(7), 8: field_new(2, 3), 9: field_new(3, 2)}


@pytest.mark.parametrize("q", sorted(RLC_FIELDS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_mc_rlc_contains_matches_oracle(q, data):
    # dense, sparse and all-zero M; 4097 trials cross the oracle's batch
    # and, at n = 12, several of the estimator's, and its word total is odd
    # whenever (1-R)n and n are; a budget of a few words makes one trial a
    # batch, so a word carries over between batches
    fld = RLC_FIELDS[q]
    n = data.draw(st.integers(2, 12), label="n")
    rate = Fraction(data.draw(st.integers(1, n - 1), label="k"), n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32), label="matrix seed"))
    m = rng.integers(0, q, size=(n, data.draw(st.integers(1, 3), label="ell")))
    kind = data.draw(st.sampled_from(["dense", "sparse", "zero"]), label="kind")
    if kind == "sparse":
        m[rng.random(n) < 0.7] = 0
    elif kind == "zero":
        m[:] = 0
    trials = data.draw(st.sampled_from([1, 37, 4097]), label="trials")
    seed = data.draw(st.integers(0, 2 ** 63), label="seed")
    freq = ensembles.mc_rlc_contains(m, rate, fld, trials, seed)
    assert freq == mc_rlc_contains_oracle(m, rate, fld, trials, seed)
    words = data.draw(st.integers(1, 7), label="words")
    with mock.patch.object(linalg, "BLOCK_BYTES", 4 * words):  # uint32 words
        assert ensembles.mc_rlc_contains(m, rate, fld, trials, seed) == freq
    if kind == "zero":
        assert freq == 1.0


def test_mc_rlc_contains_matches_oracle_when_containment_is_common():
    # one check row: a rank-1 M is contained with probability 1/q, so a
    # wrong zero test shows in many of the trials
    for q, fld in sorted(RLC_FIELDS.items()):
        m = np.zeros((6, 2), dtype=np.int64)
        m[[0, 2, 5]] = [[1, 1], [q - 1, q - 1], [1, 1]]
        freq = ensembles.mc_rlc_contains(m, Fraction(5, 6), fld, 3000, q)
        assert freq == mc_rlc_contains_oracle(m, Fraction(5, 6), fld, 3000, q)
        assert abs(freq - 1 / q) < 0.05


def test_mc_rlc_contains_memory_is_flat():
    # one trial's H over F_2 at n = 600, R = 1/2 holds 180,000 draws, so
    # the int64 H of all 64 trials would take 88 MiB
    m = np.random.default_rng(0).integers(0, 2, size=(600, 2))
    tracemalloc.start()
    try:
        ensembles.mc_rlc_contains(m, Fraction(1, 2), F2, 64, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_mc_ldpc_contains_memory_is_flat():
    # at n = 600 the float64 keys of one layer of LDPC_CHUNK trials alone
    # would take 75 MiB; one trial past the chunk starts a second one
    m = np.zeros((600, 2), dtype=np.int64)
    m[[3, 150, 151, 599]] = [[1, 0], [1, 1], [0, 1], [1, 1]]
    params = {q: ensembles.LdpcEnsembleParams(FIELDS[q], 600, 3, Fraction(1, 3)) for q in (2, 3)}
    for q in (2, 3):
        tracemalloc.start()
        try:
            ensembles.mc_ldpc_contains(m, params[q], ensembles.LDPC_CHUNK + 1, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


def test_layer_blocks_are_permutations_and_units():
    for fld in (F2, F3, field_new(2, 2), field_new(7)):
        params = ensembles.LdpcEnsembleParams(fld, 12, 3, Fraction(1, 3))
        units = ensembles._unit_stream(params, 0)
        layers = set()
        for layer, start, keys, words in ensembles._layer_blocks(params, units, 50):
            layers.add(layer)
            assert start == 0 and keys.shape == (12, 50) and keys.dtype == np.uint64
            assert np.all(keys < 1 << 53)
            perms = np.argsort(keys, axis=0, kind="stable")
            assert np.array_equal(np.sort(perms, axis=0), np.tile(np.arange(12)[:, None], 50))
            if fld.q == 2:
                assert words is None
            else:
                assert words.shape == (50, 12)
                draws = 1 + units.draws(words)
                assert np.all((draws >= 1) & (draws < fld.q))
        assert layers == set(range(params.t))
        # a one-trial draw is the layer stack of sample_ldpc at the same seed
        h = np.zeros((params.t * params.checks_per_layer, 12), dtype=np.int64)
        units = ensembles._unit_stream(params, 3)
        for j, _, keys, words in ensembles._layer_blocks(params, units, 1):
            perm = np.argsort(keys[:, 0], kind="stable")
            scale = np.ones(12, dtype=np.int64) if words is None else 1 + units.draws(words[0])
            for c in range(params.checks_per_layer):
                cols = perm[c * 3:(c + 1) * 3]
                h[j * params.checks_per_layer + c, cols] = scale[c * 3:(c + 1) * 3]
        assert np.array_equal(h, ensembles.sample_ldpc(params, 3).h)


def test_layer_blocks_read_the_generator_stream():
    # keys and units are those of Generator.random and Generator.integers,
    # layer after layer; 37 trials at n = 9 leave a half-word to carry over
    for q in (3, 4, 9):
        params = ensembles.LdpcEnsembleParams(RLC_FIELDS[q], 9, 3, Fraction(1, 3))
        rng = ensembles.make_rng(5)
        units = ensembles._unit_stream(params, 5)
        with mock.patch.object(linalg, "BLOCK_BYTES", 800):  # the next block reuses keys
            blocks = [(j, k.copy(), w) for j, _, k, w in ensembles._layer_blocks(params, units, 37)]
        for layer in range(params.t):
            keys = np.hstack([k for j, k, _ in blocks if j == layer])
            words = np.vstack([w for j, _, w in blocks if j == layer])
            assert np.array_equal(keys.T * 2.0 ** -53, rng.random(size=(37, 9)))
            assert np.array_equal(1 + units.draws(words), rng.integers(1, q, size=(37, 9)))


def test_slots_invert_the_stable_argsort():
    # keys drawn from three values force ties in every trial; at n = 64 all
    # rows take the argsort branch, and a few rows the counting one
    rng = np.random.default_rng(0)
    for n in (12, 64):
        keys = rng.integers(0, 3, size=(n, 200)).astype(np.uint64)
        inverse = np.argsort(np.argsort(keys, axis=0, kind="stable"), axis=0, kind="stable")
        for rows in (np.arange(n), np.array([0, 5, n - 1]), np.array([7])):
            assert np.array_equal(ensembles._slots(keys, rows), inverse[rows])


def mc_ldpc_contains_oracle(m, params, trials, seed):
    """The estimator as `Generator.random` sort keys and `Generator.integers`
    units per layer, LDPC_CHUNK trials at a time, a gather of all n rows of
    M per permuted position, scaled by `fld.mul` and summed over each check,
    with every trial kept to the last layer: the slow reference for
    `mc_ldpc_contains`."""
    fld, n, s, blocks = params.field, params.n, params.s, params.checks_per_layer
    m = np.asarray(m, dtype=np.int64)
    ell = m.shape[1]
    rng = ensembles.make_rng(seed)
    hits = 0
    for start in range(0, trials, ensembles.LDPC_CHUNK):
        b = min(ensembles.LDPC_CHUNK, trials - start)
        ok = np.ones(b, dtype=bool)
        for _ in range(params.t):
            perms = np.argsort(rng.random(size=(b, n)), axis=1, kind="stable")
            units = rng.integers(1, fld.q, size=(b, n))
            checks = fld.mul(m[perms], units[:, :, None]).reshape(b, blocks, s, ell)
            sums = checks[:, :, 0]
            for j in range(1, s):
                sums = fld.add(sums, checks[:, :, j])
            ok &= ~sums.any(axis=(1, 2))
        hits += int(np.count_nonzero(ok))
    return hits / trials


@pytest.mark.parametrize("q", sorted(RLC_FIELDS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_mc_ldpc_contains_matches_oracle(q, data):
    # M with zero rows, dense M, or the generator of the code sampled at
    # the estimator's own seed, which one trial tests; at n = 9 an odd
    # trial count leaves a unit half-word to carry into the next layer.
    # The unit draws of q = 4, 7 and 8 reject words.  A block budget below
    # n words makes every trial its own block, so unit words carry over
    # between blocks
    fld = RLC_FIELDS[q]
    n = data.draw(st.sampled_from([9, 12, 24]), label="n")
    params = ensembles.LdpcEnsembleParams(fld, n, 3, Fraction(1, 3))
    seed = data.draw(st.integers(0, 2 ** 63 - 1), label="seed")
    kind = data.draw(st.sampled_from(["sparse", "dense", "generator"]), label="kind")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32), label="matrix seed"))
    if kind == "generator":
        m = ensembles.sample_ldpc(params, seed).generator
    else:
        m = rng.integers(0, q, size=(n, data.draw(st.integers(1, 3), label="ell")))
        if kind == "sparse":
            m[rng.random(n) < 0.7] = 0
    trials = data.draw(st.sampled_from([1, 37, ensembles.LDPC_CHUNK + 1]), label="trials")
    freq = ensembles.mc_ldpc_contains(m, params, trials, seed)
    assert freq == mc_ldpc_contains_oracle(m, params, trials, seed)
    if trials < 100:
        words = data.draw(st.integers(1, 2 * n), label="words")
        with mock.patch.object(linalg, "BLOCK_BYTES", 8 * words):  # uint64 keys
            assert ensembles.mc_ldpc_contains(m, params, trials, seed) == freq
    if kind == "generator" and trials == 1:
        assert freq == 1.0


@settings(max_examples=50, deadline=None)
@given(shape=st.sampled_from([(24, 3, Fraction(1, 3)), (48, 12, Fraction(1, 6)),
                              (60, 6, Fraction(1, 3)), (48, 6, Fraction(1, 2))]),
       seed=st.integers(0, 2 ** 63 - 1))
def test_binary_ldpc_dimension_exceeds_nominal(shape, seed):
    # over F_2 the n/s checks of each layer sum to the all-ones row, so
    # rank(H) <= t n/s - (t - 1); the dimension usually meets the bound
    # with equality, but only the inequality is guaranteed
    n, s, rate = shape
    params = ensembles.LdpcEnsembleParams(F2, n, s, rate)
    code = ensembles.sample_ldpc(params, seed)
    for layer in code.h.reshape(params.t, params.checks_per_layer, n):
        assert np.array_equal(layer.sum(axis=0), np.ones(n))
    assert code.dimension >= rate * n + params.t - 1


@pytest.mark.parametrize("fld", [F2, F3, field_new(2, 2)])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 63 - 1))
def test_one_mc_trial_tests_the_sampled_code(fld, seed):
    # a single Monte Carlo trial at `seed` tests the code sample_ldpc draws
    # at `seed`: its generator is contained, a perturbed copy is not
    params = ensembles.LdpcEnsembleParams(fld, 12, 3, Fraction(1, 3))
    code = ensembles.sample_ldpc(params, seed)
    g = code.generator
    bad = g.copy()
    bad[0, 0] = fld.add(int(bad[0, 0]), 1)
    outcomes = []
    for m in (g, bad):
        contained = not np.any(linalg.matmul(fld, code.h, m))
        assert ensembles.mc_ldpc_contains(m, params, 1, seed) == float(contained)
        outcomes.append(contained)
    assert outcomes == [True, False]


@pytest.mark.parametrize("key,value,message", [
    ("rate", [True, 2], "must be integers"), ("rate", [1, False], "must be integers"),
    ("rate", [1.0, 2], "must be integers"), ("seed", True, "must be integers"),
    ("seed", "3", "must be integers"), ("s", False, "must be integers"),
    ("n", True, "must be integers"), ("n", 8.0, "must be integers"),
    ("rate", [1, 0], "ZeroDivisionError"),
])
def test_code_json_refuses_non_integer_fields(key, value, message):
    # a bool is refused, though True == 1 and False == 0
    doc = json.loads(ensembles.sample_rlc(8, Fraction(1, 2), F2, 3).to_json())
    doc[key] = value
    with pytest.raises(MalformedInput, match=message):
        ensembles.LinearCode.from_json(json.dumps(doc))


def test_code_json_rejects_bad_entries():
    code = ensembles.sample_rlc(6, Fraction(1, 3), F3, 1)
    doc = json.loads(code.to_json())
    doc["h_rows"][0] = "5" + doc["h_rows"][0][1:]
    with pytest.raises(MalformedInput):
        ensembles.LinearCode.from_json(json.dumps(doc))
    doc = json.loads(code.to_json())
    doc["h_rows"][0] = doc["h_rows"][0][1:]
    with pytest.raises(MalformedInput):
        ensembles.LinearCode.from_json(json.dumps(doc))
    del doc["seed"]
    with pytest.raises(MalformedInput):
        ensembles.LinearCode.from_json(json.dumps(doc))


def test_monte_carlo_keeps_the_benchmark_blocks(monkeypatch):
    # ldpc-contain's shapes: F_2 and F_3 at n = 24 and F_4 at n = 12, s = 3,
    # R = 1/3, M with 2 or 4 nonzero rows.  The LDPC keys come 2^16 // n
    # trials a block, and the RLC words 2^17 // (rows max(n, 4 |supp M|))
    # trials a batch, as before the byte budget
    for fld, n, step in ((F2, 24, 2730), (F3, 24, 2730), (FIELDS[4], 12, 5461)):
        params = ensembles.LdpcEnsembleParams(fld, n, 3, Fraction(1, 3))
        blocks = [keys.shape[1] for layer, _, keys, _ in
                  ensembles._layer_blocks(params, ensembles._unit_stream(params, 0), 10_000)
                  if layer == 0]
        assert blocks == [step] * (10_000 // step) + [10_000 % step]
    taken, take = [], ensembles._BoundedWords.take

    def spy(self, count):
        taken.append(count)
        return take(self, count)

    monkeypatch.setattr(ensembles._BoundedWords, "take", spy)
    for fld, n, supp, trials, chunk in ((F2, 24, 4, 10_000, 341), (F3, 24, 2, 10_000, 341),
                                        (FIELDS[4], 12, 4, 3000, 1024),
                                        (FIELDS[4], 12, 2, 3000, 1365)):
        m = np.zeros((n, 1), dtype=np.int64)
        m[:supp] = 1
        rows = n * 2 // 3
        taken.clear()
        ensembles.mc_rlc_contains(m, Fraction(1, 3), fld, trials, 1)
        assert taken == [chunk * rows * n] * (trials // chunk) + [trials % chunk * rows * n]
