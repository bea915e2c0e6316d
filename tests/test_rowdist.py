import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpclab import linalg, rowdist
from ldpclab.errors import MalformedInput, PreconditionError, ResourceGuardError
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
    with pytest.raises(PreconditionError, match="kernel must be a proper subspace"):
        rowdist.implied_distribution(tau, np.eye(3, dtype=np.int64))


def implied_distribution_oracle(tau, kernel):
    """The annihilator form: A's rows are the basis of ker(kernel) from
    `linalg.kernel_basis`, after a separate rank check of the kernel."""
    kernel = np.asarray(kernel, dtype=np.int64).reshape(-1, tau.ell)
    if kernel.shape[0] >= tau.ell and linalg.rank(tau.field, kernel) == tau.ell:
        raise PreconditionError("kernel must be a proper subspace")
    a_t = linalg.kernel_basis(tau.field, kernel)  # l x (l - dim kernel)
    images = linalg.matmul(tau.field, tau.support_matrix(), a_t)  # row i is A.v_i
    out = {}
    for (_, mass), img in zip(tau.masses, images.tolist()):
        out[tuple(img)] = out.get(tuple(img), Fraction(0)) + mass
    return rowdist.RowDistribution.from_dict(tau.field, a_t.shape[1], out)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_implied_distribution_matches_oracle(q, data):
    # kernels as drawn (rarely in RREF), as their RREF with or without its
    # zero rows, or with a zero or a repeated row added; up to l + 3 rows,
    # so a kernel of dimension l is often drawn and must be refused alike
    fld = field_new(*{2: (2,), 3: (3,), 4: (2, 2), 5: (5,), 9: (3, 2)}[q])
    ell = data.draw(st.integers(1, 4), label="ell")
    size = q ** ell
    idx = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=8, unique=True),
                    label="support")
    weights = data.draw(st.lists(st.integers(1, 6), min_size=len(idx), max_size=len(idx)),
                        label="weights")
    tau = rowdist.RowDistribution.from_dict(fld, ell, {
        tuple(linalg.index_vector(i, ell, q).tolist()): Fraction(w, sum(weights))
        for i, w in zip(idx, weights)})
    rows = data.draw(st.lists(st.integers(0, size - 1), max_size=ell + 2), label="rows")
    kernel = linalg.index_vector(np.array(rows, dtype=np.int64), ell, q).reshape(-1, ell)
    form = data.draw(st.sampled_from(["drawn", "rref", "basis", "zero row", "repeated row"]),
                     label="form")
    r, rk, _ = linalg.rref(fld, kernel)
    kernel = {"drawn": kernel, "rref": r, "basis": r[:rk],
              "zero row": np.vstack([kernel, np.zeros((1, ell), dtype=np.int64)]),
              "repeated row": np.vstack([kernel, kernel[:1]])}[form]

    def outcome(fn):
        try:
            return fn(tau, kernel).to_json()
        except PreconditionError as e:
            return f"refused: {e}"

    assert outcome(rowdist.implied_distribution) == outcome(implied_distribution_oracle)


def test_expectation_threshold():
    tau = four_point_tau()
    assert rowdist.expectation_threshold(tau) == Fraction(1, 3)
    proj = rowdist.implied_distribution(tau, np.array([[0, 0, 1]]))
    assert rowdist.expectation_threshold(proj) == Fraction(1, 2)
    point = rowdist.RowDistribution.from_dict(F2, 2, {(1, 1): Fraction(1)})
    assert rowdist.expectation_threshold(point) == 1
    origin = rowdist.RowDistribution.from_dict(F2, 2, {(0, 0): Fraction(1)})
    with pytest.raises(PreconditionError, match="point mass at 0"):
        rowdist.expectation_threshold(origin)


def test_rstar_uniform_and_point_mass():
    rep = rowdist.rstar(uniform_tau(F2, 2))
    assert rep.r_star == 0 and rep.r_expected == 0
    point = rowdist.RowDistribution.from_dict(F2, 2, {(1, 1): Fraction(1)})
    assert rowdist.rstar(point).r_star == 1
    # the point mass at 0 spans no dimension, so no threshold is defined
    for fld, ell in ((F2, 2), (F3, 1)):
        origin = rowdist.RowDistribution.from_dict(fld, ell, {(0,) * ell: Fraction(1)})
        with pytest.raises(PreconditionError, match=r"^point mass at 0 has d\(tau\) = 0$"):
            rowdist.rstar(origin)


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
        for kernel in (k for stack in linalg.enumerate_subspaces(F2, 3, 16) for k in stack):
            if kernel.shape[0] == 3:
                continue
            implied = rowdist.implied_distribution(tau, kernel)
            assert rowdist.entropy_q(implied) <= rowdist.entropy_q(tau) + 1e-12
            if rowdist.span_dim(implied) == 0:
                continue
            assert rowdist.rstar(implied).r_star <= r + 1e-12


def rstar_oracle(tau, span_only=True):
    """The per-kernel scan: every proper subspace in enumeration order
    gives its implied distribution through `implied_distribution`, scored
    by the expectation threshold written out here; the first strict
    maximum wins.  With `span_only` it skips the kernels K outside the span
    of the support (the rank of its RREF basis stacked on K exceeds s):
    each implies the distribution of K & S, relabeled, though a float
    threshold may sum its masses in another order."""
    def threshold(t):
        q = t.field.q
        logs = [rowdist._exact_log_q(m, q) for _, m in t.masses]
        if all(lg is not None for lg in logs):
            h = -sum(m * lg for (_, m), lg in zip(t.masses, logs))
        else:
            h = -sum(float(m) * math.log(float(m), q) for _, m in t.masses)
        d = rowdist.span_dim(t)
        return 1 - h / d if isinstance(h, Fraction) else 1.0 - h / d

    best = None
    span, s, _ = linalg.rref(tau.field, tau.support_matrix())
    stacks = linalg.enumerate_subspaces(tau.field, tau.ell, linalg.MAX_SUBSPACES)
    for kernel in (k for stack in stacks for k in stack):
        if kernel.shape[0] == tau.ell:
            continue
        if span_only and linalg.rank(tau.field, np.vstack([span[:s], kernel])) > s:
            continue
        implied = rowdist.implied_distribution(tau, kernel)
        if implied.support() == [(0,) * implied.ell]:
            continue
        r = threshold(implied)
        if best is None or r > best:
            best, best_kernel, best_implied = r, kernel, implied
    return rowdist.ThresholdReport(threshold(tau), best, best_kernel, best_implied)


def assert_rstar_matches_oracle(tau, block_bytes=linalg.BLOCK_BYTES):
    # a small `block_bytes` splits pivot sets over several stacks
    with mock.patch.object(linalg, "BLOCK_BYTES", block_bytes):
        rep = rowdist.rstar(tau)
    ref = rstar_oracle(tau)
    assert rep.to_json() == ref.to_json()
    assert type(rep.r_star) is type(ref.r_star)
    assert type(rep.r_expected) is type(ref.r_expected)
    # the scan over every kernel of F_q^l reaches the same maximum: exactly,
    # or up to the order in which a kernel outside the span sums its float
    # entropy terms, an error on the scale of 1 in 1 - h / d (at most 1 ulp of
    # 1.0 over 10,222 random proper-span tau; 256 ulps of a small r_star)
    full = rstar_oracle(tau, span_only=False).r_star
    if isinstance(full, Fraction):
        assert rep.r_star == full
    else:
        assert abs(rep.r_star - full) <= 16 * math.ulp(1.0)


RSTAR_FIELDS = {2: F2, 3: F3, 4: field_new(2, 2), 5: field_new(5)}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rstar_matches_oracle(q, data):
    # dense tau (every vector of F_q^l while the oracle is quick, else up
    # to 8 vectors), a support spanning a proper subspace, a point mass at
    # a nonzero vector, and masses that are all powers of q, made by
    # splitting one mass q ways at a time: their images mix exact and
    # float thresholds, so the Fraction-against-float tie rule runs too
    fld = RSTAR_FIELDS[q]
    ell = data.draw(st.integers(1, 4), label="ell")
    size = q ** ell
    kind = data.draw(st.sampled_from(["dense", "subspace", "point", "powers"]), label="kind")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    if kind == "powers":
        d = {0: Fraction(1)}
        for _ in range(data.draw(st.integers(0, 3), label="splits")):
            if len(d) + q - 1 > size:
                break
            v = list(d)[int(rng.integers(len(d)))]
            d[v] /= q
            for u in rng.choice(np.setdiff1d(np.arange(size), list(d)), size=q - 1, replace=False):
                d[int(u)] = d[v]
        if list(d) == [0]:
            return  # the point mass at 0 has no threshold
    else:
        if kind == "dense" and size <= 125:
            idx = list(range(size))
        elif kind == "point":
            idx = [int(rng.integers(1, size))]
        else:  # up to 8 vectors of a random subspace, proper for "subspace"
            dim = int(rng.integers(1, ell)) if kind == "subspace" and ell > 1 else ell
            basis = rng.integers(0, q, size=(dim, ell))
            coeffs = rng.choice(q ** dim, size=min(q ** dim, 8), replace=False)
            vecs = linalg.matmul(fld, linalg.index_vector(coeffs, dim, q), basis)
            idx = sorted({linalg.vector_index(v, q) for v in vecs} - {0}) or [1]
        # weights past 2^63 make the common denominator overflow int64
        top = data.draw(st.sampled_from([6, 2 ** 70]), label="top")
        weights = data.draw(st.lists(st.integers(1, top), min_size=len(idx), max_size=len(idx)),
                            label="weights")
        d = {i: Fraction(w, sum(weights)) for i, w in zip(idx, weights)}
    tau = rowdist.RowDistribution.from_dict(
        fld, ell, {tuple(linalg.index_vector(i, ell, q).tolist()): m for i, m in d.items()})
    block = data.draw(st.sampled_from([linalg.BLOCK_BYTES, 8, 400]), label="block bytes")
    assert_rstar_matches_oracle(tau, block)


def test_rstar_over_a_large_field():
    # F_1009^2 has 1012 subspaces: answered, as by the per-kernel scan,
    # with no table over the 1009^2 vectors; full span and a line
    fld = field_new(1009)
    rng = np.random.default_rng(5)
    for vecs in (rng.integers(0, 1009, size=(20, 2)),
                 np.outer(rng.integers(1, 1009, size=20), [1, 5]) % 1009):
        d = {tuple(int(x) for x in v): Fraction(1, 20) for v in vecs}
        total = sum(d.values())
        tau = rowdist.RowDistribution.from_dict(fld, 2, {v: m / total for v, m in d.items()})
        for block in (linalg.BLOCK_BYTES, 24000):  # the 1009 lines in one stack, or split
            assert_rstar_matches_oracle(tau, block)


def test_rstar_keeps_the_benchmark_stacks(monkeypatch):
    # the threshold workload's rstar shapes stack 2^16 // (s max(s, |supp|))
    # kernels at a time, as before the byte budget: dense F_2^4, F_3^3 and
    # F_4^2, and a 5-vector and a 4-vector support spanning s = 4 and s = 3
    batches, enumerate_subspaces = [], linalg.enumerate_subspaces

    def spy(fld, ell, batch):
        batches.append(batch)
        return enumerate_subspaces(fld, ell, batch)

    monkeypatch.setattr(linalg, "enumerate_subspaces", spy)
    f4 = field_new(2, 2)
    span4 = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (1, 1, 0, 0, 0)]
    span3 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)]
    for tau in (uniform_tau(F2, 4), uniform_tau(F3, 3), uniform_tau(f4, 2),
                rowdist.RowDistribution.from_dict(F2, 5, {v: Fraction(1, 5) for v in span4}),
                rowdist.RowDistribution.from_dict(F3, 4, {v: Fraction(1, 4) for v in span3})):
        rowdist.rstar(tau)
    assert batches == [1024, 809, 2048, 3276, 5461]


def test_real_json():
    assert rowdist._real_json(Fraction(3, 4)) == [3, 4]
    assert rowdist._real_json(Fraction(-2, 1)) == [-2, 1]
    for x in (0.1, np.float64(0.1)):
        out = rowdist._real_json(x)
        assert out == 0.1 and type(out) is float
    # masses 1/3 and 2/3 are no powers of 2: both thresholds are floats
    tau = rowdist.RowDistribution.from_dict(F2, 1, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
    rep = rowdist.rstar(tau)
    assert '"r_expected": %r' % rep.r_expected in rep.to_json()
    assert '"r_star": %r' % rep.r_star in rep.to_json()


def test_bool_is_not_an_integer_entry():
    with pytest.raises(MalformedInput, match=r"\(True,\) is not a vector of integers"):
        rowdist.RowDistribution.from_dict(F2, 1, {(0,): Fraction(1, 2), (True,): Fraction(1, 2)})
    text = '{"ell": 1, "field": {"p": 2, "h": 1}, "masses": [[[0], true, 2], [[1], 1, 2]]}'
    with pytest.raises(MalformedInput, match="mass True/2 at \\(0,\\) is not a ratio"):
        rowdist.RowDistribution.from_json(text)
    with pytest.raises(MalformedInput, match="matrix entry is not an integer"):
        linalg.as_matrix([[1, False], [0, 1]])


def test_smoothness_iff_full_span():
    rng = np.random.default_rng(12)
    for _ in range(200):
        fld = F2 if rng.random() < 0.5 else F3
        ell = int(rng.integers(1, 4))
        tau = random_tau(fld, ell, rng)
        assert (rowdist.smoothness(tau) > 0) == (rowdist.span_dim(tau) == ell)


def smoothness_oracle(tau):
    """min over nonzero dual vectors u of Pr_v[<u,v> != 0], one
    matrix-vector product per u."""
    q, ell = tau.field.q, tau.ell
    supp = tau.support_matrix()
    best = Fraction(1)
    for u_idx in range(1, q ** ell):
        prods = linalg.matmul(tau.field, supp, linalg.index_vector(u_idx, ell, q))
        best = min(best, sum(m for (_, m), p_ in zip(tau.masses, prods) if p_ != 0))
    return best


SMOOTH_FIELDS = [F2, F3, field_new(2, 2), field_new(5), field_new(2, 3), field_new(3, 2)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_smoothness_matches_dual_vector_loop(data):
    fld = data.draw(st.sampled_from(SMOOTH_FIELDS), label="field")
    ell = data.draw(st.sampled_from([e for e in (1, 2, 3) if fld.q ** e <= 130]), label="ell")
    idx = data.draw(st.lists(st.integers(0, fld.q ** ell - 1), min_size=1, max_size=8,
                             unique=True), label="support")
    # weights past 2^63 make the common denominator overflow int64
    top = data.draw(st.sampled_from([12, 2 ** 70]), label="top")
    weights = data.draw(st.lists(st.integers(1, top), min_size=len(idx), max_size=len(idx)),
                        label="weights")
    tau = rowdist.RowDistribution.from_dict(fld, ell, {
        tuple(linalg.index_vector(i, ell, fld.q).tolist()): Fraction(w, sum(weights))
        for i, w in zip(idx, weights)})
    assert rowdist.smoothness(tau) == smoothness_oracle(tau)


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
    with pytest.raises(ResourceGuardError, match="support size 32 exceeds 20"):
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


def is_bad_list_oracle(tau, alpha):
    """Reference search: every center value in F_q at every support row,
    depth first in order of decreasing mass, pruned once a column's
    partial distance passes alpha."""
    alpha = Fraction(alpha)
    ell, q = tau.ell, tau.field.q
    supp = tau.support()
    if any(all(v[j] == v[j2] for v in supp) for j in range(ell) for j2 in range(j + 1, ell)):
        return False
    rows = sorted(tau.masses, key=lambda vm: -vm[1])

    def search(i, dists):
        if max(dists) > alpha:
            return False
        if i == len(rows):
            return True
        v, mass = rows[i]
        return any(search(i + 1, [d + (mass if v[j] != a else 0) for j, d in enumerate(dists)])
                   for a in range(q))

    return search(0, [Fraction(0)] * ell)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_is_bad_list_matches_oracle(q, data):
    # the search tries only the values each support row holds; the answer
    # is the all-of-F_q search's, and a witness is a valid center
    fld = field_new(*{2: (2,), 3: (3,), 4: (2, 2), 5: (5,)}[q])
    ell = data.draw(st.sampled_from([2, 3]), label="ell")
    idx = data.draw(st.lists(st.integers(0, q ** ell - 1), min_size=1, max_size=6, unique=True),
                    label="support")
    weights = data.draw(st.lists(st.integers(1, 6), min_size=len(idx), max_size=len(idx)),
                        label="weights")
    tau = rowdist.RowDistribution.from_dict(fld, ell, {
        tuple(linalg.index_vector(i, ell, q).tolist()): Fraction(w, sum(weights))
        for i, w in zip(idx, weights)})
    alpha = Fraction(data.draw(st.integers(0, 12), label="alpha * 12"), 12)
    bad, witness = rowdist.is_bad_list(tau, alpha)
    assert bad == is_bad_list_oracle(tau, alpha)
    assert (witness is not None) == bad
    if bad:
        assert set(witness) == set(tau.support())
        for j in range(ell):
            assert sum(m for v, m in tau.masses if v[j] != witness[v]) <= alpha


def test_listdec_threshold_search():
    from ldpclab import gvdistance as gv

    with mock.patch.object(rowdist, "SEARCH_ITERATIONS", 400):
        tau, r = rowdist.listdec_threshold_search(F2, Fraction(1, 4), 1, seed=0)
    assert rowdist.is_bad_list(tau, Fraction(1, 4))[0]
    # internal consistency: reported value is the rstar of the witness
    assert rowdist.rstar(tau).r_star == r
    # upper estimate lands near or below the capacity benchmark
    assert float(r) <= 1 - gv.hq(0.25, 2) + 0.15
    with pytest.raises(PreconditionError, match="list size must be >= 1"):
        rowdist.listdec_threshold_search(F2, Fraction(1, 4), 0)


def test_serialization_roundtrip():
    tau = four_point_tau()
    again = rowdist.RowDistribution.from_json(tau.to_json())
    assert again.as_dict() == tau.as_dict()
    assert again.field == tau.field and again.ell == tau.ell
    rep = rowdist.rstar(tau)
    doc = rep.to_json()
    assert "r_star" in doc and "kernel_rows" in doc
