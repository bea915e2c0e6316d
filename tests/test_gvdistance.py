import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ldpclab import gvdistance as gv
from ldpclab.errors import PreconditionError, StateSpaceTooLarge


def test_hq_values():
    assert gv.hq(0.5, 2) == pytest.approx(1.0)
    assert gv.hq(0.0, 3) == 0.0
    assert gv.hq(2 / 3, 3) == pytest.approx(1.0)
    assert gv.hq(1.0, 2) == 0.0
    assert gv.hq(1.0, 4) == pytest.approx(math.log(3, 4))
    with pytest.raises(PreconditionError, match=r"entropy argument 1\.5 outside"):
        gv.hq(1.5, 2)


def test_hq_inverse():
    for q in (2, 3, 4, 7):
        for y in (0.01, 0.2, 0.5, 0.9, 0.999):
            x = gv.hq_inverse(y, q)
            assert gv.hq(x, q) == pytest.approx(y, abs=1e-10)
    assert gv.hq_inverse(0.5, 2) == pytest.approx(0.1100278644, abs=1e-9)


def test_zero_sum_probs_recurrence():
    r = gv.zero_sum_probs(2, 6)
    assert r == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    r3 = gv.zero_sum_probs(3, 4)
    assert r3[2] == pytest.approx(0.5)
    assert r3[3] == pytest.approx(0.25)
    # closed form r_k = ((q-1)^k + (q-1)(-1)^k) / ((q-1)^k q) ... check q=5
    r5 = gv.zero_sum_probs(5, 8)
    for k in range(8 + 1):
        closed = (4 ** k + 4 * (-1) ** k) / (4 ** k * 5)
        assert r5[k] == pytest.approx(closed, abs=1e-12)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
def test_zed_against_brute_convolution(q, s):
    for beta in (0.05, 0.2, (q - 1) / q):
        # distribution of one sample over F_q, convolved s times
        base = np.full(q, beta / (q - 1))
        base[0] = 1 - beta
        dist = np.zeros(q)
        dist[0] = 1.0
        for _ in range(s):
            nxt = np.zeros(q)
            for a in range(q):
                for b in range(q):
                    nxt[(a + b) % q] += dist[a] * base[b]
            dist = nxt
        # additive structure of F_q only matters through the zero count,
        # and for prime q the cyclic convolution is the field addition
        if q in (2, 3, 5):
            assert gv.zed(beta, q, s) == pytest.approx(dist[0], abs=1e-12)
        assert gv.zed(beta, q, s) == pytest.approx(gv.zed_mixture(beta, q, s), abs=1e-12)


def test_zed_triple_agreement_grid():
    for q in (2, 3, 4, 5):
        for s in range(2, 13):
            for beta in np.linspace(0.01, (q - 1) / q, 17):
                a = gv.zed(float(beta), q, s)
                b = gv.zed_mixture(float(beta), q, s)
                assert abs(a - b) < 1e-12


def test_psi_on_diagonal():
    for q, s in [(2, 3), (3, 5), (4, 7)]:
        for lam in (0.1, 0.3, (q - 1) / q):
            assert gv.psi(lam, lam, q, s) == pytest.approx(
                math.log(gv.zed(lam, q, s), q), abs=1e-12)


def test_lambda_of_beta():
    assert gv.lambda_of_beta(0.25, 2, 3) == pytest.approx(1 / 6, abs=1e-12)
    for q, s in [(2, 3), (2, 9), (3, 5), (4, 6)]:
        grid = np.linspace(1e-6, (q - 1) / q, 200)
        vals = [gv.lambda_of_beta(float(b), q, s) for b in grid]
        assert all(b2 > b1 for b1, b2 in zip(vals, vals[1:]))
        assert vals[0] < 1e-4
        assert vals[-1] == pytest.approx((q - 1) / q, abs=1e-12)


def test_phi_fixed_point_and_bounds():
    for q, s in [(2, 3), (2, 9), (3, 5)]:
        for lam in (0.05, 0.2, 0.4 * (q - 1) / q):
            val, beta = gv.phi(lam, q, s)
            assert gv.lambda_of_beta(beta, q, s) == pytest.approx(lam, abs=1e-9)
            assert val <= gv.psi(lam, lam, q, s) + 1e-12
            assert val >= -1 - 1e-12
        # endpoint
        end, beta_end = gv.phi((q - 1) / q, q, s)
        assert end == pytest.approx(-1.0, abs=1e-9)
        assert beta_end == pytest.approx((q - 1) / q, abs=1e-9)


def test_phi_matches_golden_section_minimization():
    inv = (math.sqrt(5) - 1) / 2
    for q, s in [(2, 5), (2, 9), (3, 5), (3, 9)]:
        for lam in np.linspace(0.02, (q - 1) / q - 0.02, 25):
            lam = float(lam)
            a, b = 1e-9, (q - 1) / q
            c, d = b - inv * (b - a), a + inv * (b - a)
            for _ in range(120):
                if gv.psi(lam, c, q, s) < gv.psi(lam, d, q, s):
                    b, d = d, c
                    c = b - inv * (b - a)
                else:
                    a, c = c, d
                    d = a + inv * (b - a)
            direct = gv.psi(lam, (a + b) / 2, q, s)
            assert gv.phi(lam, q, s)[0] == pytest.approx(direct, abs=1e-8)


def test_phi_rejects_weight_outside_domain():
    with pytest.raises(PreconditionError, match=r"lambda = 0\.9 outside"):
        gv.phi(0.9, 2, 3)


def test_gv_params_validation():
    with pytest.raises(PreconditionError, match="sparsity s = 1 < 2"):
        gv.GvParams(2, 1, Fraction(1, 3), 0.1, 0.1)
    with pytest.raises(PreconditionError, match="rate 1 outside"):
        gv.GvParams(2, 4, Fraction(1), 0.1, 0.1)
    with pytest.raises(PreconditionError, match=r"delta = 0\.6 outside"):
        gv.GvParams(2, 4, Fraction(1, 3), 0.6, 0.1)
    with pytest.raises(PreconditionError, match=r"eps = 0\.99 outside"):
        gv.GvParams(2, 4, Fraction(1, 3), 0.1, 0.99)
    p = gv.GvParams(2, 6, Fraction(1, 3), 0.11, 0.05)
    assert p.t == Fraction(4)
    assert p.certifiable()


def layer_prob_oracle(n, s, w, q):
    """Average over all placements of a block partition of the probability
    that every block's intersection with a fixed weight-w support can be
    scaled to sum to zero."""
    r = gv.zero_sum_probs(q, s)
    support = set(range(w))
    total = 0.0
    count = 0
    for perm in itertools.permutations(range(n)):
        p = 1.0
        for b in range(n // s):
            k = sum(1 for i in perm[b * s:(b + 1) * s] if i in support)
            p *= r[k]
        total += p
        count += 1
    return total / count


def test_p_lambda_exact_small_cases():
    params = gv.GvParams(2, 2, Fraction(1, 2), 0.2, 0.1)
    assert gv.p_lambda_exact(1.0, 4, params) == pytest.approx(0.0)
    assert gv.p_lambda_exact(0.25, 4, params) == -math.inf  # single nonzero
    params3 = gv.GvParams(2, 3, Fraction(1, 3), 0.2, 0.1)
    # n = 6, w = 2: hand count gives layer probability 8/20
    assert gv.p_lambda_exact(2 / 6, 6, params3) == pytest.approx(
        2 * math.log2(0.4), abs=1e-12)
    assert gv.p_lambda_exact(0.0, 6, params3) == pytest.approx(0.0)


@pytest.mark.parametrize("q,w", [(2, 2), (2, 4), (3, 3), (3, 2)])
def test_p_lambda_exact_vs_permutation_oracle(q, w):
    n, s = 6, 3
    params = gv.GvParams(q, s, Fraction(1, 3), 0.2, 0.1)
    got = gv.p_lambda_exact(w / n, n, params)
    oracle = layer_prob_oracle(n, s, w, q)
    if oracle == 0.0:
        assert got == -math.inf
    else:
        assert got == pytest.approx(float(params.t) * math.log(oracle, q), abs=1e-10)


def weight_layer_prob_oracle(q, n, s, w):
    """The weight DP as a plain forward loop over the nonzero count x left
    after each block, largest x first and k ascending, with hypergeometric
    weights; the iteration order and float operations `layer_prob` must
    reproduce bit for bit."""
    r = gv.zero_sum_probs(q, s)
    # prob[x]: probability that the blocks so far vanished and left x of
    # the w nonzero coordinates among the n_rem coordinates still to place
    prob = {w: 1.0}
    for n_rem in range(n, 0, -s):
        pushed = {}
        for x in sorted(prob, reverse=True):
            for k in range(max(0, x - (n_rem - s)), min(s, x) + 1):
                if r[k] == 0.0:
                    continue
                pk = math.comb(x, k) * math.comb(n_rem - x, s - k) / math.comb(n_rem, s)
                pushed[x - k] = pushed.get(x - k, 0.0) + prob[x] * (pk * r[k])
        prob = pushed
    return prob.get(0, 0.0)


def layer_prob_exact(counts, s, block_zero):
    """The layer DP in exact rationals: each state's probability pushed
    along every vanishing block composition, with block_zero(k) read as
    the exact value of its float."""
    frontier = {tuple(counts): Fraction(1)}
    for _ in range(sum(counts) // s):
        pushed = {}
        for rem, prob in frontier.items():
            for comp in itertools.product(*(range(min(c, s) + 1) for c in rem)):
                if sum(comp) != s:
                    continue
                weight = math.prod(math.comb(c, k) for c, k in zip(rem, comp))
                nxt = tuple(c - k for c, k in zip(rem, comp))
                pushed[nxt] = pushed.get(nxt, 0) + prob * Fraction(block_zero(comp)) * Fraction(
                    weight, math.comb(sum(rem), s))
        frontier = pushed
    return frontier.get((0,) * len(counts), Fraction(0))


def pair_block_zero(k):
    """Over F_2 with rows (1, 1), (1, 0), (0, 1), (0, 0) counted by k, a
    block sums to zero iff it holds an even number of ones in each column."""
    return float((k[0] + k[1]) % 2 == 0 and (k[0] + k[2]) % 2 == 0)


@pytest.mark.parametrize("counts,s", [
    ((2, 4, 4, 14), 3), ((2, 4, 4, 14), 4), ((2, 4, 4, 14), 6), ((3, 9, 9, 27), 4),
    ((3, 9, 9, 27), 6), ((3, 9, 9, 27), 12), ((1, 5, 7, 11), 8)])
def test_layer_prob_is_exact_on_f2_pairs(counts, s):
    # block_zero is 0 or 1, so every input of the DP is exact
    want = layer_prob_exact(counts, s, pair_block_zero)
    got = gv.layer_prob(counts, s, pair_block_zero)
    assert 0 < want < 1
    assert abs(Fraction(got) - want) <= want * Fraction(1e-14)


@pytest.mark.parametrize("q,n,s,w", [
    (2, 48, 4, 24), (2, 96, 6, 40), (3, 60, 3, 30), (3, 96, 6, 48),
    (3, 300, 3, 150), (3, 300, 3, 7), (2, 300, 3, 100)])
def test_weight_layer_prob_is_exact(q, n, s, w):
    # for q in {2, 3}, r_k = (1 - r_{k-1}) / (q - 1) is dyadic, so exact in a float
    r = gv.zero_sum_probs(q, s)
    want = layer_prob_exact((w, n - w), s, lambda k: r[k[0]])
    got = gv.weight_layer_prob(q, n, s, w)
    assert 0 < want < 1
    assert abs(Fraction(got) - want) <= want * Fraction(1e-14)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 16])
def test_weight_layer_prob_matches_loop_oracle(q):
    for s in (2, 3, 4, 6):
        for blocks in (1, 2, 5, 9):
            n = s * blocks
            for w in range(n + 1):
                assert gv.weight_layer_prob(q, n, s, w) == weight_layer_prob_oracle(q, n, s, w)
    # a thousand blocks: the DP does not recurse
    assert gv.weight_layer_prob(3, 3000, 3, 2) == weight_layer_prob_oracle(3, 3000, 3, 2)


def test_weight_layer_prob_at_the_old_shape_limit():
    # n/s = 64 and s = 16, the largest shape an n/s and s limit admitted
    assert gv.weight_layer_prob(3, 1024, 16, 512) == weight_layer_prob_oracle(3, 1024, 16, 512)


def test_layer_prob_rejects_partial_blocks():
    with pytest.raises(PreconditionError, match="s = 3 does not divide the 10 rows"):
        gv.weight_layer_prob(2, 10, 3, 2)
    with pytest.raises(PreconditionError, match="s = 2 does not divide the 5 rows"):
        gv.layer_prob((1, 2, 2), 2, lambda k: 1.0)


def test_layer_prob_rejects_nonpositive_block_size():
    for s in (0, -2, -3):
        with pytest.raises(PreconditionError, match=f"s = {s} must be >= 1"):
            gv.weight_layer_prob(2, 6, s, 2)
        with pytest.raises(PreconditionError, match=f"s = {s} must be >= 1"):
            gv.layer_prob((2, 4), s, lambda k: 1.0)


def test_weight_layer_prob_work_count():
    # each state examines four compositions of two entries, so the guard
    # trips at the 250,001st state expanded; another state set or order
    # would read another count
    with pytest.raises(StateSpaceTooLarge) as err:
        gv.weight_layer_prob(3, 1800, 3, 900)
    assert str(err.value) == (
        "layer DP examined 2000008 composition entries, more than WORK_GUARD = 2000000")


def test_layer_prob_memory_is_flat():
    # n = 240, s = 3, w = 120 walks 80 blocks of up to 121 states; storing
    # every block's steps peaked near 1 MiB, and two frontiers take a few
    # KiB plus the interpreter's tuple free lists (at most about 0.11 MiB)
    tracemalloc.start()
    try:
        p = gv.weight_layer_prob(3, 240, 3, 120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < p < 1
    assert peak < 2 ** 20 // 5


def test_layer_dp_state_guard(monkeypatch):
    params = gv.GvParams(3, 3, Fraction(1, 3), 0.2, 0.1)
    # n = 60, s = 3, w = 30 reaches 311 states
    assert gv.p_lambda_exact(0.5, 60, params) < 0
    monkeypatch.setattr(gv, "WORK_GUARD", 100)
    with pytest.raises(StateSpaceTooLarge):
        gv.p_lambda_exact(0.5, 60, params)
    assert gv.p_lambda_exact(2 / 6, 6, params) < 0


def test_p_lambda_exact_guards():
    params = gv.GvParams(2, 3, Fraction(1, 3), 0.2, 0.1)
    with pytest.raises(PreconditionError, match="s = 3 does not divide n = 8"):
        gv.p_lambda_exact(0.5, 8, params)
    with pytest.raises(PreconditionError, match="is not an integer"):
        gv.p_lambda_exact(0.35, 10, gv.GvParams(2, 2, Fraction(1, 2), 0.2, 0.1))
    big = gv.GvParams(2, 3, Fraction(1, 3), 0.2, 0.1)
    assert gv.p_lambda_exact(0.5, 3 * 100, big) == float(big.t) * math.log(
        weight_layer_prob_oracle(2, 300, 3, 150), 2)


def test_p_lambda_bound_scales_linearly():
    # The bound is the exponent phi(lambda) (1-R) n, linear in n, plus the
    # Stirling factor (t/2) log_q(2 pi n lambda (1-lambda)) of the binomial
    # point probability that the finite-n bound keeps.
    params = gv.GvParams(2, 9, Fraction(1, 3), 0.11, 0.1)
    lam = 0.25
    exponent = gv.phi(lam, 2, 9)[0] * float(1 - params.rate)
    bounds = {n: gv.p_lambda_bound(lam, n, params) for n in (36, 72)}
    for n, b in bounds.items():
        stirling = float(params.t) / 2 * math.log2(
            2 * math.pi * n * lam * (1 - lam))
        assert b - exponent * n == pytest.approx(stirling, abs=0.15)
    assert bounds[36] < 0


def test_failure_bound_behavior():
    params = gv.GvParams(2, 20, Fraction(2, 5), 0.11, 0.09)
    f1000 = gv.failure_bound(params, 1000)
    f2000 = gv.failure_bound(params, 2000)
    assert f2000 < f1000 < 1e-4
    # Recorded from the finite-n bound on P_lambda.  The earlier value
    # 1.1476605073558441e-10 came from the asymptotic exponent alone, which
    # drops the polynomial factor and so is not an upper bound at this n.
    assert f1000 == pytest.approx(1.85671133321985e-05, rel=1e-9)
    # tiny delta keeps the bound tiny too
    small = gv.GvParams(2, 40, Fraction(1, 2), 0.02, 0.05)
    assert gv.failure_bound(small, 500) < 1e-3
    # uncertifiable rate is rejected
    with pytest.raises(PreconditionError, match="exceeds 1 - h_q"):
        gv.failure_bound(gv.GvParams(2, 20, Fraction(9, 10), 0.11, 0.05), 100)
    # at or above the exact union sum; the asymptotic exponent gave 3.16e-6
    # here, below the exact 4.95e-4
    dense = gv.GvParams(2, 12, Fraction(1, 6), 0.2, 0.05)
    exact = sum(
        math.comb(144, i) * 2 ** gv.p_lambda_exact(i / 144, 144, dense)
        for i in range(1, math.floor(0.2 * 144) + 1)
    )
    assert exact == pytest.approx(4.949e-4, rel=1e-3)
    assert gv.failure_bound(dense, 144) >= exact


def test_s0_for_distance():
    s = gv.s0_for_distance(2, 0.11, 0.1)
    assert s == 28
    # harder target needs at least as much sparsity
    assert gv.s0_for_distance(2, 0.05, 0.1) >= s


def test_s0_main_and_smoothness():
    q, eps, rbar, b = 2, 0.1, 0.5, 3
    expect = math.ceil((b * math.log2(q) + math.log2(q / eps)) / gv.hq_inverse(1 - rbar, q))
    assert gv.s0_main(q, eps, rbar, b) == expect
    assert gv.s0_main(q, eps, 0.2, b) <= expect


def test_certificate_outputs():
    cert = gv.certify_distance(2, 0.05, 0.1, Fraction(1, 3), 120, s=24)
    assert len(cert.rows) == 6
    alphas = [r[3] for r in cert.rows]
    assert all(a2 > a1 for a1, a2 in zip(alphas, alphas[1:]))
    csv = cert.to_csv()
    assert csv.splitlines()[0] == "lambda,beta_star,phi,alpha"
    assert len(csv.splitlines()) == 7
    import json
    doc = json.loads(cert.to_json())
    assert doc["q"] == 2 and doc["s"] == 24 and len(doc["rows"]) == 6
    assert 0 <= doc["failure_probability"] <= 1


@pytest.mark.parametrize("n, s", [(120, 25), (120, 4)], ids=["s-not-dividing-n", "t-fractional"])
def test_certificate_needs_an_ensemble(n, s):
    # s = 25 does not divide 120; s = 4 at R = 1/3 gives t = 8/3 layers
    with pytest.raises(PreconditionError, match=f"no LDPC ensemble at s = {s}, n = {n}"):
        gv.certify_distance(2, 0.05, 0.1, Fraction(1, 3), n, s=s)
