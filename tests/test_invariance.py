"""Metamorphic tests: every quantity of a row distribution tau or a matrix M
that the paper's theorems use is invariant under v -> v.A for A in
GL_l(F_q), since H.M = 0 iff H.M.A = 0 and v -> v.A permutes F_q^l."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpclab import ensembles, fourier, linalg, rowdist
from ldpclab.gf import field_new

# q: (field, largest l)
FIELDS = {2: (field_new(2), 3), 3: (field_new(3), 2), 4: (field_new(2, 2), 2)}


def invertible(fld, ell, rng):
    while True:
        a = rng.integers(0, fld.q, size=(ell, ell))
        if linalg.rank(fld, a) == ell:
            return a


def close(x, y):
    return math.isclose(float(x), float(y), rel_tol=1e-12, abs_tol=0)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_thresholds_and_layer_probability_are_gl_invariant(data):
    # tau is the row distribution of an n x l matrix M, so tau.n is
    # integral; the kernel rstar reports moves with A and is not compared
    q = data.draw(st.sampled_from(sorted(FIELDS)), label="q")
    fld, top = FIELDS[q]
    ell = data.draw(st.integers(1, top), label="ell")
    n = data.draw(st.integers(2, 12), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    m = rng.integers(0, q, size=(n, ell))
    m[rng.random(n) < data.draw(st.sampled_from([0.0, 0.5, 0.8]), label="zeros")] = 0
    m[0] = m[0] if m[0].any() else 1  # not the point mass at 0, which has no threshold
    ma = linalg.matmul(fld, m, invertible(fld, ell, rng))
    tau, tau_a = (rowdist.row_distribution_of(fld, x) for x in (m, ma))
    rep, rep_a = rowdist.rstar(tau), rowdist.rstar(tau_a)
    assert close(rep.r_star, rep_a.r_star) and close(rep.r_expected, rep_a.r_expected)
    assert rowdist.smoothness(tau) == rowdist.smoothness(tau_a)
    for s in (s for s in range(1, n + 1) if n % s == 0):
        assert close(fourier.exact_layer_prob(tau, n, s), fourier.exact_layer_prob(tau_a, n, s))


@settings(max_examples=30, deadline=None)
@given(q=st.sampled_from(sorted(FIELDS)), seed=st.integers(0, 2 ** 63 - 1),
       matrix_seed=st.integers(0, 2 ** 32 - 1))
def test_monte_carlo_frequencies_are_gl_invariant(q, seed, matrix_seed):
    # at n = 12, R = 2/3 (one layer of four checks): a rank-1 M on two rows
    # is in an LDPC code with probability 2/11 (q-1)^-1, at least 1/17, and
    # the first RLC the estimator draws contains its own generator, so each
    # field has nonzero frequencies; a random M is compared alongside
    fld, rate, trials = FIELDS[q][0], Fraction(2, 3), 2000
    params = ensembles.LdpcEnsembleParams(fld, 12, 3, rate)
    rng = np.random.default_rng(matrix_seed)
    pair = np.zeros((12, 2), dtype=np.int64)
    pair[rng.choice(12, 2, replace=False)] = fld.mul(rng.integers(1, q, size=(2, 1)),
                                                      np.array([1, rng.integers(0, q)]))
    dense = rng.integers(0, q, size=(12, 2))
    for estimate, common in ((lambda m: ensembles.mc_ldpc_contains(m, params, trials, seed), pair),
                             (lambda m: ensembles.mc_rlc_contains(m, rate, fld, trials, seed),
                              ensembles.sample_rlc(12, rate, fld, seed).generator)):
        assert estimate(common) > 0
        for m in (common, dense):
            assert estimate(m) == estimate(linalg.matmul(fld, m, invertible(fld, m.shape[1], rng)))
