import math
from fractions import Fraction

import numpy as np
import pytest

from ldpclab import linalg, rowdist
from ldpclab.errors import (
    DegenerateDistribution,
    KernelFullSpace,
    NotInLtau,
    SupportTooLarge,
)
from ldpclab.gf import field_new

F2 = field_new(2)
F3 = field_new(3)


def four_point_tau():
    return rowdist.RowDistribution.from_dict(F2, 3, {
        (1, 0, 0): Fraction(1, 4), (0, 1, 0): Fraction(1, 4),
        (1, 0, 1): Fraction(1, 4), (0, 1, 1): Fraction(1, 4)})


def uniform_tau(fld, ell):
    q = fld.q
    return rowdist.RowDistribution.from_dict(
        fld, ell,
        {tuple(linalg.index_vector(i, ell, q)): Fraction(1, q ** ell)
         for i in range(q ** ell)},
    )


def random_tau(fld, ell, rng, den=12):
    n = fld.q ** ell
    cuts = np.sort(rng.integers(0, den + 1, size=n - 1))
    parts = np.diff([0, *cuts.tolist(), den])
    d = {
        tuple(linalg.index_vector(i, ell, fld.q)): Fraction(int(c), den)
        for i, c in enumerate(parts) if c
    }
    return rowdist.RowDistribution.from_dict(fld, ell, d)


def test_validation():
    with pytest.raises(ValueError):
        rowdist.RowDistribution.from_dict(F2, 1, {(0,): Fraction(1, 2)})
    with pytest.raises(ValueError):
        rowdist.RowDistribution.from_dict(F2, 1, {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)})


def test_row_distribution_of():
    m = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]] * 3)
    tau = rowdist.row_distribution_of(F2, m)
    assert tau.as_dict() == four_point_tau().as_dict()
    z = rowdist.row_distribution_of(F2, np.zeros((5, 2), dtype=np.int64))
    assert z.as_dict() == {(0, 0): Fraction(1)}
    two = rowdist.row_distribution_of(F2, np.eye(2, dtype=np.int64))
    assert two.as_dict() == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}


def test_entropy():
    tau = four_point_tau()
    h = rowdist.entropy_q(tau)
    assert isinstance(h, Fraction) and h == 2
    point = rowdist.RowDistribution.from_dict(F2, 2, {(1, 1): Fraction(1)})
    assert rowdist.entropy_q(point) == 0
    assert rowdist.entropy_q(uniform_tau(F3, 2)) == pytest.approx(2)
    # non-power-of-q masses fall back to floats
    t = rowdist.RowDistribution.from_dict(F2, 1, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
    h = rowdist.entropy_q(t)
    assert isinstance(h, float)
    assert h == pytest.approx(-(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3))


def test_span_dim_and_smoothness():
    tau = four_point_tau()
    assert rowdist.span_dim(tau) == 3
    assert rowdist.smoothness(tau) == Fraction(1, 2)
    assert rowdist.smoothness(uniform_tau(F3, 2)) == Fraction(2, 3)
    # support inside a proper subspace -> 0
    sub = rowdist.RowDistribution.from_dict(F2, 2, {(1, 0): Fraction(1)})
    assert rowdist.smoothness(sub) == 0


def test_implied_distribution():
    tau = four_point_tau()
    # trivial kernel: bijective relabeling
    same = rowdist.implied_distribution(tau, np.zeros((0, 3), dtype=np.int64))
    assert rowdist.entropy_q(same) == rowdist.entropy_q(tau)
    assert rowdist.span_dim(same) == rowdist.span_dim(tau)
    # projection to the first two coordinates
    proj = rowdist.implied_distribution(tau, np.array([[0, 0, 1]]))
    assert proj.as_dict() == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}
    with pytest.raises(KernelFullSpace):
        rowdist.implied_distribution(tau, np.eye(3, dtype=np.int64))


def test_expectation_threshold():
    tau = four_point_tau()
    assert rowdist.expectation_threshold(tau) == Fraction(1, 3)
    proj = rowdist.implied_distribution(tau, np.array([[0, 0, 1]]))
    assert rowdist.expectation_threshold(proj) == Fraction(1, 2)
    point = rowdist.RowDistribution.from_dict(F2, 2, {(1, 1): Fraction(1)})
    assert rowdist.expectation_threshold(point) == 1
    origin = rowdist.RowDistribution.from_dict(F2, 2, {(0, 0): Fraction(1)})
    with pytest.raises(DegenerateDistribution):
        rowdist.expectation_threshold(origin)


def test_rstar_uniform_and_point_mass():
    rep = rowdist.rstar(uniform_tau(F2, 2))
    assert rep.r_star == 0 and rep.r_expected == 0
    point = rowdist.RowDistribution.from_dict(F2, 2, {(1, 1): Fraction(1)})
    assert rowdist.rstar(point).r_star == 1


def test_rstar_dominates_expectation_threshold():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        fld = F2 if rng.random() < 0.5 else F3
        ell = int(rng.integers(1, 4))
        tau = random_tau(fld, ell, rng)
        if rowdist.span_dim(tau) == 0:
            continue
        rep = rowdist.rstar(tau)
        assert rep.r_star >= rep.r_expected
        assert 0 <= rep.r_expected <= 1 and 0 <= rep.r_star <= 1


def test_rstar_monotone_under_implication_and_data_processing():
    rng = np.random.default_rng(11)
    for _ in range(10):
        tau = random_tau(F2, 3, rng)
        if rowdist.span_dim(tau) == 0:
            continue
        r = rowdist.rstar(tau).r_star
        for kernel in linalg.enumerate_subspaces(F2, 3):
            if kernel.shape[0] == 3:
                continue
            implied = rowdist.implied_distribution(tau, kernel)
            assert rowdist.entropy_q(implied) <= rowdist.entropy_q(tau) + 1e-12
            if rowdist.span_dim(implied) == 0:
                continue
            assert rowdist.rstar(implied).r_star <= r + 1e-12


def test_smoothness_iff_full_span():
    rng = np.random.default_rng(12)
    for _ in range(200):
        fld = F2 if rng.random() < 0.5 else F3
        ell = int(rng.integers(1, 4))
        tau = random_tau(fld, ell, rng)
        assert (rowdist.smoothness(tau) > 0) == (rowdist.span_dim(tau) == ell)


def test_prob_rlc_contains():
    # single-column Bernoulli weight distribution
    tau = rowdist.RowDistribution.from_dict(
        F2, 1, {(0,): Fraction(4, 5), (1,): Fraction(1, 5)})
    est = rowdist.prob_rlc_contains(tau, 20, Fraction(1, 10))
    assert est.matrix_count == math.comb(20, 4)
    assert est.expected_count == pytest.approx(math.comb(20, 4) * 2 ** (-18), rel=1e-9)
    assert est.union_bound == min(1.0, est.expected_count)
    with pytest.raises(NotInLtau):
        rowdist.prob_rlc_contains(tau, 21, Fraction(1, 3))
    origin = rowdist.RowDistribution.from_dict(F2, 2, {(0, 0): Fraction(1)})
    est0 = rowdist.prob_rlc_contains(origin, 10, Fraction(1, 2))
    assert est0.matrix_count == 1 and est0.union_bound == 1.0


def test_is_bad_list():
    tau = rowdist.RowDistribution.from_dict(
        F2, 2, {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)})
    bad, witness = rowdist.is_bad_list(tau, Fraction(1, 2))
    assert bad and witness is not None
    # radius too small
    bad, _ = rowdist.is_bad_list(tau, Fraction(1, 4))
    assert not bad
    # indistinct columns are never a bad list
    point = rowdist.RowDistribution.from_dict(F2, 2, {(1, 1): Fraction(1)})
    assert rowdist.is_bad_list(point, Fraction(3, 4))[0] is False
    # alpha = 1 accepts any distinct-column distribution
    assert rowdist.is_bad_list(tau, Fraction(1))[0]
    big = rowdist.RowDistribution.from_dict(
        field_new(2), 5,
        {tuple(linalg.index_vector(i, 5, 2)): Fraction(1, 32) for i in range(32)})
    with pytest.raises(SupportTooLarge):
        rowdist.is_bad_list(big, Fraction(1))


def test_bad_list_witness_is_valid():
    rng = np.random.default_rng(13)
    for _ in range(50):
        tau = random_tau(F2, 2, rng)
        alpha = Fraction(int(rng.integers(1, 12)), 12)
        bad, witness = rowdist.is_bad_list(tau, alpha)
        if not bad:
            continue
        for j in range(2):
            dist = sum(m for v, m in tau.masses if v[j] != witness[v])
            assert dist <= alpha


def test_listdec_threshold_search():
    from ldpclab import gvdistance as gv

    tau, r = rowdist.listdec_threshold_search(
        F2, Fraction(1, 4), 1, iterations=400, seed=0)
    assert rowdist.is_bad_list(tau, Fraction(1, 4))[0]
    # internal consistency: reported value is the rstar of the witness
    assert rowdist.rstar(tau).r_star == r
    # upper estimate lands near or below the capacity benchmark
    assert float(r) <= 1 - gv.hq(0.25, 2) + 0.15
    with pytest.raises(Exception):
        rowdist.listdec_threshold_search(F2, Fraction(1, 4), 0)


def test_serialization_roundtrip():
    tau = four_point_tau()
    again = rowdist.RowDistribution.from_json(tau.to_json())
    assert again.as_dict() == tau.as_dict()
    assert again.field == tau.field and again.ell == tau.ell
    rep = rowdist.rstar(tau)
    doc = rep.to_json()
    assert "r_star" in doc and "kernel_rows" in doc
