import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpclab import ensembles, linalg
from ldpclab.errors import (
    BadRate,
    CodeTooLarge,
    DivisibilityViolation,
    LengthMismatch,
    MalformedInput,
)
from ldpclab.gf import field_new

F2 = field_new(2)
F3 = field_new(3)


def test_params_validation():
    with pytest.raises(BadRate):
        ensembles.LdpcEnsembleParams(F2, 12, 3, Fraction(0))
    with pytest.raises(DivisibilityViolation):
        ensembles.LdpcEnsembleParams(F2, 13, 3, Fraction(1, 3))
    with pytest.raises(DivisibilityViolation):
        ensembles.LdpcEnsembleParams(F2, 12, 4, Fraction(1, 3))  # t = 8/3
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
    with pytest.raises(BadRate):
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
    with pytest.raises(LengthMismatch):
        ensembles.contains(code, np.zeros(14, dtype=np.int64))


def test_min_distance_known_code():
    # parity-check of the binary repetition code of length 3
    code = ensembles.LinearCode(F2, np.array([[1, 1, 0], [0, 1, 1]]), 0, Fraction(1, 3), 0)
    d, w = code_dist = ensembles.min_distance(code)
    assert d == 1.0
    assert np.array_equal(w, [1, 1, 1])


def test_min_distance_bitmask_vs_generic():
    # same code checked through the q=2 bitmask path and the generic path
    code = ensembles.sample_ldpc(
        ensembles.LdpcEnsembleParams(F2, 18, 3, Fraction(1, 3)), 7
    )
    d_fast, w_fast = ensembles.min_distance(code)
    weights = [
        int(np.count_nonzero(cw))
        for cw in ensembles.enumerate_codewords(code)
    ]
    d_slow = min(w for w in weights[1:]) / code.n if len(weights) > 1 else 1.0
    assert d_fast == d_slow
    assert np.count_nonzero(w_fast) == round(d_fast * code.n)
    assert ensembles.contains(code, w_fast)


@pytest.mark.parametrize("k", range(11))
def test_codeword_bitmasks_match_enumeration(k):
    # H = [I | A] leaves the last k coordinates free, so at n = 64 the top
    # bit of the masks is set
    n = 64
    a = np.random.default_rng(k).integers(0, 2, size=(n - k, k))
    code = ensembles.LinearCode(F2, np.hstack([np.eye(n - k, dtype=np.int64), a]),
                                0, Fraction(k, n), 0)
    assert code.dimension == k
    masks = ensembles._codeword_bitmasks(code)
    expected = [linalg.vector_index(cw, 2) for cw in ensembles.enumerate_codewords(code)]
    assert masks.dtype == np.uint64 and masks.tolist() == expected
    if k:
        assert int(masks.max()) >> (n - 1) == 1


def test_has_codeword_of_weight():
    code = ensembles.sample_rlc(12, Fraction(1, 3), F2, 8)
    present = {
        int(w)
        for _, ws in ensembles._codeword_weights(code)
        for w in np.asarray(ws).ravel()
    }
    for w in range(13):
        assert ensembles.has_codeword_of_weight(code, w) == (w in present and w > 0)


def test_enum_guard():
    code = ensembles.LinearCode(F2, np.zeros((1, 30), dtype=np.int64), 0, Fraction(1, 2), 0)
    with pytest.raises(CodeTooLarge):
        ensembles.min_distance(code)


@pytest.mark.parametrize("fld,n,rate", [(F2, 8, Fraction(1, 4)), (F3, 6, Fraction(1, 3))])
def test_max_list_size_matches_per_center_scan(fld, n, rate):
    code = ensembles.sample_rlc(n, rate, fld, 3)
    alpha = 1 / n
    res = ensembles.max_list_size(code, alpha)
    assert res.exhaustive
    best = max(
        ensembles.list_size_at(code, linalg.index_vector(i, n, fld.q), alpha)
        for i in range(fld.q ** n)
    )
    assert res.max_list_size == best
    assert ensembles.list_size_at(code, res.worst_center, alpha) == best


def test_list_size_at_zero_center_counts_ball_codewords():
    code = ensembles.sample_rlc(10, Fraction(1, 2), F2, 5)
    alpha = 0.3
    by_enum = sum(
        1 for cw in ensembles.enumerate_codewords(code) if np.count_nonzero(cw) <= 3
    )
    assert ensembles.list_size_at(code, np.zeros(10, dtype=np.int64), alpha) == by_enum


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


def test_layer_draws_are_permutations_and_units():
    for fld in (F2, F3, field_new(2, 2), field_new(7)):
        params = ensembles.LdpcEnsembleParams(fld, 12, 3, Fraction(1, 3))
        layers = list(ensembles._layer_draws(params, ensembles.make_rng(0), 50))
        assert len(layers) == params.t
        for perms, scalars in layers:
            assert perms.shape == scalars.shape == (50, 12)
            assert np.array_equal(np.sort(perms, axis=1), np.tile(np.arange(12), (50, 1)))
            assert np.all((scalars >= 1) & (scalars < fld.q))


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
