import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ldpclab import fourier, linalg
from ldpclab.ensembles import LdpcEnsembleParams
from ldpclab.errors import (
    EvenSparsity,
    LengthMismatch,
    NonRealResult,
    NotSmooth,
    NotSmoothEnough,
    StateSpaceTooLarge,
)
from ldpclab.gf import field_new
from ldpclab.rowdist import RowDistribution

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)


def make_tau(fld, ell, d):
    return RowDistribution.from_dict(fld, ell, d)


def uniform_values(fld, ell):
    size = fld.q ** ell
    return np.full(size, 1 / size, dtype=np.complex128)


def test_scalar_twist():
    tau = make_tau(F2, 2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
    tw = fourier.scalar_twist(tau)
    assert np.allclose(tw.values, fourier.distribution_table(tau).values)
    point = make_tau(F3, 1, {(1,): Fraction(1)})
    tw3 = fourier.scalar_twist(point)
    expect = np.zeros(3)
    expect[1] = expect[2] = 0.5
    assert np.allclose(tw3.values, expect)
    assert tw3.is_probability()


def test_transform_of_uniform_and_point_mass():
    for fld, ell in [(F2, 3), (F3, 2), (F4, 1)]:
        size = fld.q ** ell
        u = fourier.ComplexDistribution(fld, ell, uniform_values(fld, ell))
        coeffs = fourier.fourier_transform(u).values
        expect = np.zeros(size, dtype=np.complex128)
        expect[0] = 1 / size
        assert np.allclose(coeffs, expect, atol=1e-12)
        point = fourier.ComplexDistribution.zeros(fld, ell)
        point.values[0] = 1.0
        coeffs = fourier.fourier_transform(point).values
        assert np.allclose(coeffs, np.full(size, 1 / size), atol=1e-12)


@pytest.mark.parametrize("fld,ell", [(F2, 2), (F2, 4), (F3, 2), (F4, 2), (field_new(5), 1)])
def test_inversion_and_parseval(fld, ell):
    rng = np.random.default_rng(7)
    size = fld.q ** ell
    for _ in range(5):
        vals = rng.normal(size=size) + 1j * rng.normal(size=size)
        f = fourier.ComplexDistribution(fld, ell, vals)
        t = fourier.fourier_transform(f)
        back = fourier.inverse_transform(t)
        assert np.allclose(back.values, vals, atol=1e-10)
        lhs = np.sum(np.abs(t.values) ** 2)
        rhs = np.mean(np.abs(vals) ** 2)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_conv_power_at_zero_closed_forms():
    for fld, ell, s in [(F2, 2, 3), (F3, 1, 4), (F4, 1, 5)]:
        size = fld.q ** ell
        u = fourier.ComplexDistribution(fld, ell, uniform_values(fld, ell))
        assert fourier.conv_power_at_zero(u, s) == pytest.approx(size ** -s, abs=1e-14)
        point = fourier.ComplexDistribution.zeros(fld, ell)
        point.values[0] = 1.0
        assert fourier.conv_power_at_zero(point, s) == pytest.approx(
            size ** (1 - s), abs=1e-14)
    with pytest.raises(ValueError):
        fourier.conv_power_at_zero(
            fourier.ComplexDistribution.zeros(F2, 1), 0)


def random_tau(fld, ell, rng, den=12):
    n = fld.q ** ell
    cuts = np.sort(rng.integers(0, den + 1, size=n - 1))
    parts = np.diff([0, *cuts.tolist(), den])
    d = {
        tuple(linalg.index_vector(i, ell, fld.q)): Fraction(int(c), den)
        for i, c in enumerate(parts) if c
    }
    return RowDistribution.from_dict(fld, ell, d)


@pytest.mark.parametrize("fld,ell", [(F2, 2), (F3, 1), (F3, 3), (F4, 1)])
@pytest.mark.parametrize("s", [2, 3, 6])
def test_conv_power_matches_probability_space(fld, ell, s):
    # q^(l(s-1)) * sum_y phat^s equals the s-fold direct convolution at 0
    rng = np.random.default_rng(11)
    size = fld.q ** ell
    vecs = linalg.all_vectors(ell, fld.q)
    for _ in range(3):
        p = fourier.scalar_twist(random_tau(fld, ell, rng)).values.real
        dist = np.zeros(size)
        dist[0] = 1.0
        for _ in range(s):
            nxt = np.zeros(size)
            for i in range(size):
                if dist[i] == 0:
                    continue
                summed = fld.add(vecs[i][None, :], vecs)
                for j in range(size):
                    nxt[linalg.vector_index(summed[j], fld.q)] += dist[i] * p[j]
            dist = nxt
        via_fourier = size ** (s - 1) * fourier.conv_power_at_zero(
            fourier.ComplexDistribution(fld, ell, p.astype(np.complex128)), s)
        assert via_fourier == pytest.approx(dist[0], abs=1e-10)


def test_conv_power_rejects_asymmetric_complex_input():
    f = fourier.ComplexDistribution(F3, 1, np.array([0, 1j, 1], dtype=np.complex128))
    with pytest.raises(NonRealResult):
        fourier.conv_power_at_zero(f, 2)


def test_fourier_coefficient_bound():
    tau = make_tau(F2, 3, {
        (1, 0, 0): Fraction(1, 4), (0, 1, 0): Fraction(1, 4),
        (1, 0, 1): Fraction(1, 4), (0, 1, 1): Fraction(1, 4)})
    max_c, bound, holds = fourier.fourier_coefficient_bound(tau, Fraction(1, 2))
    assert holds
    assert bound == pytest.approx(0.0, abs=1e-15)
    assert max_c <= bound + 1e-10
    # tight case: uniform on the three nonzero vectors of F_2^2
    tri = make_tau(F2, 2, {
        (1, 0): Fraction(1, 3), (0, 1): Fraction(1, 3), (1, 1): Fraction(1, 3)})
    max_c, bound, holds = fourier.fourier_coefficient_bound(tri, Fraction(2, 3))
    assert holds
    assert max_c == pytest.approx(bound, abs=1e-12)
    assert bound == pytest.approx(-1 / 12, abs=1e-12)
    with pytest.raises(NotSmoothEnough):
        fourier.fourier_coefficient_bound(tri, 0.9)


def test_exact_layer_prob_point_mass_and_weight_path():
    zero = make_tau(F2, 2, {(0, 0): Fraction(1)})
    assert fourier.exact_layer_prob(zero, 8, 4) == pytest.approx(1.0)
    # l = 1: weight-2 vector in n = 6, blocks of 3
    tau = make_tau(F2, 1, {(0,): Fraction(2, 3), (1,): Fraction(1, 3)})
    assert fourier.exact_layer_prob(tau, 6, 3) == pytest.approx(0.4, abs=1e-12)
    # many blocks: two nonzeros share a block with probability (s-1)/(n-1),
    # and over F_3 two uniform units cancel with probability 1/2
    tau = make_tau(F3, 1, {(0,): Fraction(2998, 3000), (2,): Fraction(2, 3000)})
    assert fourier.exact_layer_prob(tau, 3000, 3) == pytest.approx(
        2 / 2999 / 2, rel=1e-12)


def test_exact_layer_prob_small_matrices():
    # q = 2, l = 2: only the pairing matching equal rows annihilates
    tau = make_tau(F2, 2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
    assert fourier.exact_layer_prob(tau, 4, 2) == pytest.approx(1 / 3, abs=1e-12)
    # q = 3: rows (1,0) and (2,0) in one block, random unit scalings
    tau3 = make_tau(F3, 2, {(1, 0): Fraction(1, 2), (2, 0): Fraction(1, 2)})
    assert fourier.exact_layer_prob(tau3, 2, 2) == pytest.approx(0.5, abs=1e-12)


def test_exact_layer_prob_general_path_matches_weight_path():
    # an l = 2 distribution supported on a single line reduces to the l = 1 DP
    tau2 = make_tau(F2, 2, {(0, 0): Fraction(2, 3), (1, 0): Fraction(1, 3)})
    tau1 = make_tau(F2, 1, {(0,): Fraction(2, 3), (1,): Fraction(1, 3)})
    for n, s in [(6, 3), (12, 3), (12, 4)]:
        assert fourier.exact_layer_prob(tau2, n, s) == pytest.approx(
            fourier.exact_layer_prob(tau1, n, s), abs=1e-12)


def test_exact_layer_prob_oracle_by_partition_enumeration():
    # brute force over every partition of 6 rows into blocks and every
    # unit-scaling assignment
    fld = F3
    rows = [(1, 0), (1, 0), (2, 1), (0, 1), (0, 1), (1, 2)]
    n, s = 6, 3
    tau = RowDistribution.from_dict(
        fld, 2,
        {(1, 0): Fraction(2, 6), (2, 1): Fraction(1, 6),
         (0, 1): Fraction(2, 6), (1, 2): Fraction(1, 6)})
    r = fld
    total = 0.0
    count = 0
    for perm in itertools.permutations(range(n)):
        p = 1.0
        for b in range(n // s):
            idx = perm[b * s:(b + 1) * s]
            good = 0
            for scales in itertools.product(r.units(), repeat=s):
                acc = np.zeros(2, dtype=np.int64)
                for i, lam in zip(idx, scales):
                    acc = r.add(acc, r.mul(lam, np.array(rows[i], dtype=np.int64)))
                if not np.any(acc):
                    good += 1
            p *= good / (r.q - 1) ** s
        total += p
        count += 1
    assert fourier.exact_layer_prob(tau, n, s) == pytest.approx(
        total / count, abs=1e-10)


def test_exact_layer_prob_guards():
    big = RowDistribution.from_dict(
        F2, 3,
        {tuple(linalg.index_vector(i, 3, 2)): Fraction(1, 8) for i in range(8)})
    with pytest.raises(StateSpaceTooLarge):
        fourier.exact_layer_prob(big, 16, 2)
    tau = make_tau(F2, 2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
    with pytest.raises(ValueError):
        fourier.exact_layer_prob(tau, 10, 3)


def test_ldpc_contain_bound_report():
    m = np.zeros((24, 2), dtype=np.int64)
    m[:2, 0] = 1
    m[2:4, 1] = 1
    m[4:6] = 1
    params = LdpcEnsembleParams(F2, 24, 3, Fraction(1, 3))
    rep = fourier.ldpc_contain_bound(m, params, 0.1)
    assert rep.n == 24 and rep.ell == 2 and rep.s == 3
    assert rep.log_q_bound == pytest.approx(2 * rep.layer_log)
    assert rep.layer_log == pytest.approx(8 * rep.per_block_log + rep.conditioning_log)
    assert rep.log_q_bound < 0
    doc = json.loads(rep.to_json())
    assert doc["rate"] == [1, 3]
    assert doc["log_q_bound"] == rep.log_q_bound


def test_ldpc_contain_bound_rejections():
    params_even = LdpcEnsembleParams(F2, 24, 4, Fraction(1, 2))
    m = np.zeros((24, 2), dtype=np.int64)
    m[:2, 0] = 1
    m[2:4, 1] = 1
    m[4:6] = 1
    with pytest.raises(EvenSparsity):
        fourier.ldpc_contain_bound(m, params_even, 0.1)
    params = LdpcEnsembleParams(F2, 24, 3, Fraction(1, 3))
    flat = np.zeros((24, 2), dtype=np.int64)
    flat[:6, 0] = 1  # second column identically zero: support in a proper subspace
    with pytest.raises(NotSmooth):
        fourier.ldpc_contain_bound(flat, params, 0.1)
    with pytest.raises(LengthMismatch):
        fourier.ldpc_contain_bound(np.zeros((12, 2), dtype=np.int64), params, 0.1)
