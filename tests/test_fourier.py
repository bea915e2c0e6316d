import functools
import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpclab import fourier, gvdistance, linalg, rowdist
from ldpclab.ensembles import LdpcEnsembleParams
from ldpclab.errors import (MalformedInput, NumericError, PreconditionError, ResourceGuardError,
                            StateSpaceTooLarge)
from ldpclab.gf import field_new
from ldpclab.rowdist import RowDistribution
from test_gvdistance import layer_prob_exact

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)


def make_tau(fld, ell, d):
    return RowDistribution.from_dict(fld, ell, d)


def uniform_values(fld, ell):
    size = fld.q ** ell
    return np.full(size, 1 / size, dtype=np.complex128)


def transform_oracle(f):
    """fhat(y) = q^-l sum_x f(x) conj(chi_x(y)), a direct sum over the
    dense character matrix built from Field.character."""
    fld, ell = f.field, f.ell
    vecs = linalg.all_vectors(ell, fld.q)
    chi = np.ones((len(vecs), len(vecs)), dtype=np.complex128)
    for i in range(ell):
        chi *= fld.character(vecs[:, i][:, None], vecs[:, i][None, :])
    return (f.values @ np.conj(chi)) / len(vecs)


TRANSFORM_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                    (2, 4), (5, 2), (3, 3)]


@pytest.mark.parametrize("p,h", TRANSFORM_FIELDS,
                         ids=[f"F{p ** h}" for p, h in TRANSFORM_FIELDS])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_transform_matches_oracle(p, h, data):
    # F_4's trace form is [[0, 1], [1, 1]]: reading the FFT at d(y) instead
    # of T d(y) fails here for every extension field
    fld = field_new(p, h)
    ell = data.draw(st.integers(1, int(math.log(256, fld.q) + 1e-9)), label="ell")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    size = fld.q ** ell
    f = fourier.ComplexDistribution(
        fld, ell, rng.normal(size=size) + 1j * rng.normal(size=size))
    assert np.allclose(fourier.fourier_transform(f).values, transform_oracle(f),
                       rtol=0, atol=1e-12)


def test_scalar_twist():
    tau = make_tau(F2, 2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
    tw = fourier.scalar_twist(tau)
    assert np.allclose(tw.values, [0, 0.5, 0.5, 0])
    point = make_tau(F3, 1, {(1,): Fraction(1)})
    tw3 = fourier.scalar_twist(point)
    expect = np.zeros(3)
    expect[1] = expect[2] = 0.5
    assert np.allclose(tw3.values, expect)
    assert tw3.is_probability()


def row_distribution_oracle(field, m):
    """Rows counted one at a time, each entry read with int()."""
    m = linalg.as_matrix(m)
    n = m.shape[0]
    counts = {}
    for row in m:
        key = tuple(int(x) for x in row)
        counts[key] = counts.get(key, 0) + 1
    return RowDistribution.from_dict(
        field, m.shape[1], {v: Fraction(c, n) for v, c in counts.items()})


def scalar_twist_oracle(tau):
    """One += per (v, lambda) pair, v in mass order and lambda = 1, ..., q - 1."""
    fld = tau.field
    q = fld.q
    out = fourier.ComplexDistribution.zeros(fld, tau.ell)
    for v, m in tau.masses:
        va = np.array(v, dtype=np.int64)
        for lam in fld.units():
            out.values[linalg.vector_index(fld.mul(lam, va), q)] += float(m) / (q - 1)
    return out


TWIST_FIELDS = {2: F2, 3: F3, 4: F4, 5: field_new(5), 9: field_new(3, 2)}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_row_distribution_and_twist_match_oracles(q, data):
    # rows drawn with repeats from the zero vector, every unit multiple of
    # one vector and a few others: a twist cell then sums the masses of
    # several (v, lambda) pairs, so a changed summation order shows
    fld = TWIST_FIELDS[q]
    ell = data.draw(st.integers(1, 4), label="ell")
    vector = st.lists(st.integers(0, q - 1), min_size=ell, max_size=ell)
    base = np.array(data.draw(vector, label="base"), dtype=np.int64)
    pool = ([[0] * ell] + [fld.mul(lam, base).tolist() for lam in fld.units()]
            + data.draw(st.lists(vector, max_size=4), label="others"))
    rows = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40), label="rows")
    m = np.array(rows, dtype=np.int64)
    tau = rowdist.row_distribution_of(fld, m)
    assert tau.to_json() == row_distribution_oracle(fld, m).to_json()
    assert fourier.scalar_twist(tau).values.tobytes() == scalar_twist_oracle(tau).values.tobytes()


@pytest.mark.parametrize("shape", [(3, 0), (0, 2)])
def test_row_distribution_of_refuses_empty_shapes(shape):
    # no columns: ell = 0; no rows: no mass to sum to 1
    m = np.zeros(shape, dtype=np.int64)
    for count in (rowdist.row_distribution_of, row_distribution_oracle):
        with pytest.raises(MalformedInput):
            count(F2, m)


def test_transform_of_uniform_and_point_mass():
    # F_2^14 and F_3^9 have q^l > 4000: a dense character matrix would
    # hold more than 1.6e7 entries
    for fld, ell in [(F2, 3), (F3, 2), (F4, 1), (F2, 14), (F3, 9)]:
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
        lhs = np.sum(np.abs(t.values) ** 2)
        rhs = np.mean(np.abs(vals) ** 2)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_conv_power_at_zero_closed_forms():
    for fld, ell, s in [(F2, 2, 3), (F3, 1, 4), (F4, 1, 5), (F2, 14, 3), (F3, 9, 2)]:
        size = fld.q ** ell
        u = fourier.ComplexDistribution(fld, ell, uniform_values(fld, ell))
        assert fourier.conv_power_at_zero(u, s) == pytest.approx(size ** -s, abs=1e-14)
        point = fourier.ComplexDistribution.zeros(fld, ell)
        point.values[0] = 1.0
        assert fourier.conv_power_at_zero(point, s) == pytest.approx(
            size ** (1 - s), abs=1e-14)
    with pytest.raises(PreconditionError, match="s = 0 must be >= 1"):
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
    with pytest.raises(NumericError, match="imaginary residue"):
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
    with pytest.raises(PreconditionError, match=r"is not 0\.9-smooth"):
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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_exact_layer_prob_matches_weight_layer_prob(q):
    # for l = 1 the lines are the zero vector and every nonzero one, so the
    # table's DP runs on the counts the weight DP runs on, in the other order;
    # the two floats each lie within about 1e-14 of the exact rational
    fld = field_new(*{4: (2, 2), 8: (2, 3), 9: (3, 2)}.get(q, (q,)))
    for n, s, w in [(6, 3, 2), (24, 4, 10), (60, 6, 31), (96, 3, 40), (300, 3, 7),
                    (300, 3, 150), (300, 4, 298), (300, 6, 299)]:
        units = list(range(1, q))
        tau = make_tau(fld, 1, {(0,): Fraction(n - w, n), **{
            (u,): Fraction(w // len(units) + (i < w % len(units)), n)
            for i, u in enumerate(units)}})
        assert fourier.exact_layer_prob(tau, n, s) == pytest.approx(
            gvdistance.weight_layer_prob(q, n, s, w), rel=1e-13, abs=0)
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


def walk_oracle(counts, s, block_zero):
    """The layer DP as a plain forward push over the remaining row-type
    counts: states in the order first reached, compositions in
    `itertools.product` order; `layer_prob` must reproduce its floats bit
    for bit."""
    frontier = {tuple(counts): 1.0}
    for _ in range(sum(counts) // s):
        pushed = {}
        for rem, prob in frontier.items():
            for comp in itertools.product(*(range(c + 1) for c in rem)):
                z = block_zero(comp) if sum(comp) == s else 0.0
                if z == 0.0:
                    continue
                weight = math.prod(math.comb(c, k) for c, k in zip(rem, comp))
                nxt = tuple(c - k for c, k in zip(rem, comp))
                pushed[nxt] = pushed.get(nxt, 0.0) + prob * (weight / math.comb(sum(rem), s) * z)
        frontier = pushed
    return frontier.get((0,) * len(counts), 0.0)


def block_zero_by_count(tau, s):
    """Each block's zero-sum probability as the exact count of vanishing
    unit scalings, from the patterns of <v_i, y> = 0 over the support."""
    fld, ell, q = tau.field, tau.ell, tau.field.q
    orth = linalg.matmul(fld, linalg.all_vectors(ell, q), tau.support_matrix().T) == 0
    rows, mult = np.unique(orth, axis=0, return_counts=True)
    patterns = list(zip(mult.tolist(), rows.tolist()))

    @functools.cache
    def block_zero(comp):
        total = sum(m * math.prod((q - 1 if o else -1) ** k for o, k in zip(row, comp))
                    for m, row in patterns)
        return total // q ** ell / (q - 1) ** s

    return block_zero


def line_types(tau):
    """tau with the mass of each line of its support on the line's first
    support vector: v and c.v share their column of <y, v> = 0, and the
    sorted support meets each line first at that vector."""
    rep, d = {}, {}
    for (v, m), col in zip(tau.masses, rowdist.orthogonality(tau).T.tolist()):
        v = rep.setdefault(tuple(col), v)
        d[v] = d.get(v, 0) + m
    return make_tau(tau.field, tau.ell, d)


def exact_layer_prob_oracle(tau, n, s):
    """The layer probability by the same block DP, with each block's
    zero-sum probability from repeated index-addition convolutions of the
    twisted point masses."""
    fld, ell, q = tau.field, tau.ell, tau.field.q
    size = q ** ell
    counts = [int(m * n) for _, m in tau.masses]
    twists = []
    for v in tau.support():
        tbl = np.zeros(size)
        for lam in fld.units():
            tbl[linalg.vector_index(fld.mul(lam, np.array(v)), q)] += 1 / (q - 1)
        twists.append(tbl)
    vecs = linalg.all_vectors(ell, q)
    add_idx = np.array([
        [linalg.vector_index(x, q) for x in fld.add(vecs[i][None, :], vecs)]
        for i in range(size)])

    @functools.cache
    def block_zero_prob(comp):
        acc = np.zeros(size)
        acc[0] = 1.0
        for tbl, k in zip(twists, comp):
            for _ in range(k):
                nxt = np.zeros(size)
                np.add.at(nxt, add_idx, acc[:, None] * tbl[None, :])
                acc = nxt
        return float(acc[0])

    return walk_oracle(counts, s, block_zero_prob)


LAYER_SHAPES = [
    (fld, ell)
    for fld in (F2, F3, F4, field_new(5), field_new(2, 3), field_new(3, 2))
    for ell in (2, 3) if fld.q ** ell <= 130]


@pytest.mark.parametrize("fld,ell", LAYER_SHAPES,
                         ids=[f"F{fld.q}^{ell}" for fld, ell in LAYER_SHAPES])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_exact_layer_prob_matches_oracle(fld, ell, data):
    n = data.draw(st.integers(1, 12), label="n")
    s = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]), label="s")
    idx = data.draw(st.lists(st.integers(0, fld.q ** ell - 1), min_size=1,
                             max_size=min(4, n), unique=True), label="support")
    # a positive count per support vector, summing to n
    cuts = sorted(data.draw(st.lists(st.integers(1, max(1, n - 1)), min_size=len(idx) - 1,
                                     max_size=len(idx) - 1, unique=True), label="cuts"))
    parts = np.diff([0, *cuts, n])
    tau = make_tau(fld, ell, {
        tuple(linalg.index_vector(i, ell, fld.q).tolist()): Fraction(int(c), n)
        for i, c in zip(idx, parts)})
    got = fourier.exact_layer_prob(tau, n, s)
    want = exact_layer_prob_oracle(tau, n, s)
    assert (got == 0) == (want == 0)
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    lines = line_types(tau)
    counts = [int(m * n) for _, m in lines.masses]
    assert got == walk_oracle(counts, s, block_zero_by_count(lines, s))


def test_exact_layer_prob_guards():
    big = RowDistribution.from_dict(
        F2, 3,
        {tuple(linalg.index_vector(i, 3, 2)): Fraction(1, 8) for i in range(8)})
    assert fourier.exact_layer_prob(big, 16, 2) == walk_oracle(
        [2] * 8, 2, block_zero_by_count(big, 2))
    tau = make_tau(F2, 2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
    with pytest.raises(PreconditionError, match="s = 3 does not divide n = 10"):
        fourier.exact_layer_prob(tau, 10, 3)
    for s in (0, -3):
        with pytest.raises(PreconditionError, match=f"s = {s} must be >= 1"):
            fourier.exact_layer_prob(tau, 6, s)


def test_exact_layer_prob_state_guard(monkeypatch):
    tau1 = make_tau(F3, 1, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    tau2 = make_tau(F3, 2, {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 4),
                            (2, 0): Fraction(1, 4)})
    monkeypatch.setattr(gvdistance, "WORK_GUARD", 20)
    for tau in (tau1, tau2):
        assert 0 < fourier.exact_layer_prob(tau, 4, 2) < 1
        with pytest.raises(StateSpaceTooLarge):
            fourier.exact_layer_prob(tau, 48, 3)


def spanning_21_types():
    # 15 unit vectors of F_2^15, five more spanning rows and the zero row
    # ×4 at n = 24: 32768 dual vectors, nearly all with distinct patterns
    rows = [tuple(int(a == b) for b in range(15)) for a in range(15)]
    rows += [tuple(int(b in (a, a + 1)) for b in range(15)) for a in range(5)]
    return make_tau(F2, 15, {**{v: Fraction(1, 24) for v in rows}, (0,) * 15: Fraction(4, 24)})


@pytest.mark.parametrize("case,n,s,quantity", [
    # six row types at n = 96, s = 6 took 18 s and 379 MiB walked in full
    ("six", 96, 6, "composition entries"),
    # sixteen at n = 208, s = 13 have 3.7e7 block compositions
    ("sixteen", 208, 13, "block pattern entries"),
    # 1351 block compositions, each scored over about 32768 patterns
    ("spanning", 24, 3, "block pattern entries"),
])
def test_exact_layer_prob_work_guard(case, n, s, quantity):
    tau = {
        "six": lambda: make_tau(F2, 3, {(0, 0, 0): Fraction(56, 96), **{
            v: Fraction(8, 96) for v in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1)]}}),
        "sixteen": lambda: RowDistribution.from_dict(
            F2, 4, {tuple(linalg.index_vector(i, 4, 2)): Fraction(1, 16) for i in range(16)}),
        "spanning": spanning_21_types,
    }[case]()
    start = time.perf_counter()
    with pytest.raises(StateSpaceTooLarge) as err:
        fourier.exact_layer_prob(tau, n, s)
    assert time.perf_counter() - start < 10  # unguarded, these ran 18 s or more
    msg = str(err.value)
    assert msg.startswith("layer DP examined ")
    assert msg.endswith(f" {quantity}, more than WORK_GUARD = 2000000")
    assert int(msg.split()[3]) > gvdistance.WORK_GUARD
    if case == "six":  # the states the DP expands, in the order it reaches them
        assert int(msg.split()[3]) == 2001096


def pair_layer_prob_by_egf(counts, s):
    """The layer probability of an l = 2 matrix over F_2 with `counts` rows
    (1, 1), (1, 0), (0, 1), (0, 0): a layer annihilates it iff each of its
    n / s blocks holds an even number of ones in both columns.  The layers
    that do, as ordered blocks, are prod(c!) [x^c] B(x)^(n/s) for B the
    exponential generating function of an even block; all of them number
    n! / s!^(n/s)."""
    n = sum(counts)
    block = np.zeros([c + 1 for c in counts])
    for k in itertools.product(*(range(min(c, s) + 1) for c in counts)):
        if sum(k) == s and (k[0] + k[1]) % 2 == 0 and (k[0] + k[2]) % 2 == 0:
            block[k] = 1 / math.prod(map(math.factorial, k))
    power = np.zeros_like(block)
    power[0, 0, 0, 0] = 1.0
    for _ in range(n // s):
        nxt = np.zeros_like(power)
        for k in zip(*np.nonzero(block)):
            nxt[tuple(slice(a, None) for a in k)] += block[k] * power[
                tuple(slice(0, c + 1 - a) for c, a in zip(counts, k))]
        power = nxt
    good = power[tuple(counts)] * math.prod(map(math.factorial, counts))
    return good * math.factorial(s) ** (n // s) / math.factorial(n)


def test_exact_layer_prob_admits_the_n96_pair():
    # two weight-n/4 columns overlapping in n/16 rows, at n = 96, s = 12:
    # about 1.9e6 composition entries, inside WORK_GUARD
    n, s, counts = 96, 12, {(1, 1): 6, (1, 0): 18, (0, 1): 18, (0, 0): 54}
    tau = make_tau(F2, 2, {v: Fraction(c, n) for v, c in counts.items()})
    got = fourier.exact_layer_prob(tau, n, s)
    assert got == pytest.approx(pair_layer_prob_by_egf(list(counts.values()), s), rel=1e-9)
    assert 0 < got < 1


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_layer_prob_is_invariant_under_row_scaling(data):
    # each row of M scaled by its own unit: the lines keep their counts
    fld, ell = data.draw(st.sampled_from([(f, e) for f, e in LAYER_SHAPES if f.q > 2]),
                         label="shape")
    n = data.draw(st.integers(1, 24), label="n")
    s = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]), label="s")
    pool = data.draw(st.lists(st.integers(0, fld.q ** ell - 1), min_size=1, max_size=4,
                              unique=True), label="pool")
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n), label="rows")
    units = data.draw(st.lists(st.integers(1, fld.q - 1), min_size=n, max_size=n), label="units")
    m = np.array([linalg.index_vector(i, ell, fld.q) for i in picks], dtype=np.int64)
    scaled = fld.mul(np.array(units)[:, None], m)
    want = fourier.exact_layer_prob(rowdist.row_distribution_of(fld, m), n, s)
    got = fourier.exact_layer_prob(rowdist.row_distribution_of(fld, scaled), n, s)
    assert got == pytest.approx(want, rel=1e-13, abs=0)


def test_exact_layer_prob_admits_an_f3_pair_by_lines():
    # six vector types on four lines of F_3^2: per vector type the layer DP
    # examined more than WORK_GUARD entries at s = 3, 6 and 12
    n, s = 48, 6
    tau = make_tau(F3, 2, {v: Fraction(c, n) for v, c in {
        (0, 0): 24, (1, 0): 6, (2, 0): 6, (0, 1): 6, (0, 2): 3, (2, 2): 3}.items()})
    start = time.perf_counter()
    got = fourier.exact_layer_prob(tau, n, s)
    assert time.perf_counter() - start < 1
    lines = line_types(tau)
    assert [int(m * n) for _, m in lines.masses] == [24, 9, 12, 3]
    want = layer_prob_exact([24, 9, 12, 3], s, block_zero_by_count(lines, s))
    assert 0 < want < 1
    assert abs(Fraction(got) - want) <= want * Fraction(1e-14)


def test_exact_layer_prob_checks_counts_before_the_table():
    # two unit vectors of F_2^20 make a 2^21-cell table, past TABLE_GUARD
    tau = make_tau(F2, 20, {tuple(int(j == i) for j in range(20)): Fraction(1, 2)
                            for i in range(2)})
    with pytest.raises(PreconditionError, match=r"\* n = 3/2 is not an integer"):
        fourier.exact_layer_prob(tau, 3, 3)
    with pytest.raises(PreconditionError, match="s = 4 does not divide n = 6"):
        fourier.exact_layer_prob(tau, 6, 4)
    with pytest.raises(ResourceGuardError, match="TABLE_GUARD"):
        fourier.exact_layer_prob(tau, 4, 2)


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
    with pytest.raises(PreconditionError, match="is even; bound proven for odd s"):
        fourier.ldpc_contain_bound(m, params_even, 0.1)
    params = LdpcEnsembleParams(F2, 24, 3, Fraction(1, 3))
    flat = np.zeros((24, 2), dtype=np.int64)
    flat[:6, 0] = 1  # second column identically zero: support in a proper subspace
    with pytest.raises(PreconditionError, match="row distribution is not smooth"):
        fourier.ldpc_contain_bound(flat, params, 0.1)
    with pytest.raises(PreconditionError, match="matrix has 12 rows"):
        fourier.ldpc_contain_bound(np.zeros((12, 2), dtype=np.int64), params, 0.1)
