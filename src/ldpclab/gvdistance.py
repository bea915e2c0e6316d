"""Distance certificates for sparse layered codes, and the layer DP.

The chain of quantities: mu_q(beta) is the F_q distribution that is 0 with
probability 1-beta and uniform on the units otherwise; Z(beta) is the
probability that s i.i.d. mu_q(beta) samples sum to zero; psi tilts log_q Z
by a KL term; phi(lambda) = inf_beta psi(lambda, beta) is the asymptotic
exponent of the probability P_lambda that a fixed weight-(lambda n) vector
lies in the code.  The layer DP `layer_prob` is the exact probability
that one layer annihilates a fixed word or matrix (P_lambda is its t-th
power).  p_lambda_bound keeps the binomial factor that the exponent drops,
so it bounds P_lambda at every n, and a union bound over weights up to
delta*n turns it into a failure-probability certificate for distance delta.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import NumericError, PreconditionError, ResourceGuardError, StateSpaceTooLarge

BISECT_TOL = 1e-12
WORK_GUARD = 2 * 10 ** 6  # composition entries one layer DP may examine


def hq(x: float, q: int) -> float:
    """q-ary entropy x log_q(q-1) - x log_q x - (1-x) log_q(1-x)."""
    if not 0 <= x <= 1:
        raise PreconditionError(f"entropy argument {x} outside [0, 1]")
    if x == 0:
        return 0.0
    if x == 1:
        return math.log(q - 1, q) if q > 2 else 0.0
    lq = math.log(q)
    return (
        x * math.log(q - 1) / lq
        - x * math.log(x) / lq
        - (1 - x) * math.log(1 - x) / lq
    )


def _bisect(f, y: float, lo: float, hi: float) -> float:
    """The x in [lo, hi] where the increasing f crosses y: the midpoint of
    the first halving of [lo, hi] narrower than BISECT_TOL."""
    while hi - lo > BISECT_TOL:
        mid = (lo + hi) / 2
        if f(mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def hq_inverse(y: float, q: int) -> float:
    """Inverse of hq on [0, 1 - 1/q], by bisection."""
    if not 0 <= y <= 1:
        raise PreconditionError(f"entropy value {y} outside [0, 1]")
    return _bisect(lambda x: hq(x, q), y, 0.0, (q - 1) / q)


def zero_sum_probs(q: int, kmax: int) -> list[float]:
    """r_k = Pr[k i.i.d. uniform F_q^* elements sum to 0], k = 0..kmax.

    r_0 = 1, r_1 = 0, r_k = (1 - r_{k-1}) / (q - 1): conditioning on the
    partial sum of the first k-1 summands being zero or not.
    """
    r = [1.0, 0.0]
    for _ in range(2, kmax + 1):
        r.append((1 - r[-1]) / (q - 1))
    return r[: kmax + 1]


def compositions(total: int, caps: tuple[int, ...]):
    """Vectors k <= caps with sum total, lazily in lexicographic order: an
    odometer that raises the last entry it can and refills the rest least."""
    if total > sum(caps):
        return
    room = list(itertools.accumulate(caps[:0:-1], initial=0))[::-1]  # sum(caps[i + 1:])
    k, i, tail = [0] * len(caps), 0, total
    while True:
        for j in range(i, len(caps)):
            k[j] = max(0, tail - room[j])
            tail -= k[j]
        yield tuple(k)
        tail = k[-1]
        for i in range(len(caps) - 2, -1, -1):
            if k[i] < caps[i] and tail:
                break
            tail += k[i]
        else:
            return
        k[i], i, tail = k[i] + 1, i + 1, tail - 1


def check_work(entries: int, what: str) -> None:
    """Refuse a layer DP that has examined more than WORK_GUARD entries."""
    if entries > WORK_GUARD:
        raise StateSpaceTooLarge(
            f"layer DP examined {entries} {what}, more than WORK_GUARD = {WORK_GUARD}")


def layer_prob(counts, s: int, block_zero) -> float:
    """Probability that one layer annihilates rows with these type counts.

    The layer cuts the rows into blocks of s uniformly, and a block holding
    k_i rows of type i vanishes with probability block_zero(k).  Drawing
    the blocks in turn, the remaining counts move from rem to rem - k with
    weight prod_i C(rem_i, k_i) / C(sum rem, s).  One forward pass pushes
    each state's probability along its vanishing blocks, holding only the
    current and the next block's states.  s must divide sum(counts).
    Each composition examined at a state costs one entry per row type;
    past WORK_GUARD entries the DP stops before it lists any more.
    """
    if s < 1:
        raise PreconditionError(f"s = {s} must be >= 1")
    if sum(counts) % s:
        raise PreconditionError(f"s = {s} does not divide the {sum(counts)} rows")
    frontier = {tuple(counts): 1.0}
    work, comps, s_caps = 0, {}, (s,) * len(counts)
    for _ in range(sum(counts) // s):
        nxt_frontier = {}
        for rem, prob in frontier.items():
            denom = math.comb(sum(rem), s)
            caps = tuple(map(min, rem, s_caps))
            if caps not in comps:
                budget = (WORK_GUARD - work) // len(counts)
                comps[caps] = list(itertools.islice(compositions(s, caps), budget + 1))
            work += len(comps[caps]) * len(counts)
            check_work(work, "composition entries")
            for comp in comps[caps]:
                z = block_zero(comp)
                if z == 0.0:
                    continue
                nxt = tuple(map(operator.sub, rem, comp))
                weight = math.prod(map(math.comb, rem, comp))
                nxt_frontier[nxt] = nxt_frontier.get(nxt, 0.0) + prob * (weight / denom * z)
        frontier = nxt_frontier
    return frontier.get((0,) * len(counts), 0.0)


def weight_layer_prob(q: int, n: int, s: int, w: int) -> float:
    """Probability that one layer annihilates a fixed weight-w word in F_q^n:
    `layer_prob` on the (nonzero, zero) counts, where a block holding k
    nonzero entries, each scaled by a uniform unit, vanishes with
    probability r_k."""
    r = zero_sum_probs(q, s)
    return layer_prob((w, n - w), s, lambda k: r[k[0]])


def _check_beta(beta: float, q: int, name: str = "beta") -> None:
    if not 0 < beta <= (q - 1) / q:
        raise PreconditionError(f"{name} = {beta} outside (0, (q-1)/q]")


def zed(beta: float, q: int, s: int) -> float:
    """Z(beta) = (1 + (q-1)(1 - q beta/(q-1))^s) / q."""
    _check_beta(beta, q)
    return (1 + (q - 1) * (1 - q * beta / (q - 1)) ** s) / q


def zed_mixture(beta: float, q: int, s: int) -> float:
    """Z(beta) as the binomial mixture sum_k C(s,k) beta^k (1-beta)^(s-k) r_k."""
    _check_beta(beta, q)
    r = zero_sum_probs(q, s)
    return sum(
        math.comb(s, k) * beta ** k * (1 - beta) ** (s - k) * r[k]
        for k in range(s + 1)
    )


def kl_q(lam: float, beta: float, q: int) -> float:
    """D_q(lambda || beta) = -lam log_q(beta/lam) - (1-lam) log_q((1-beta)/(1-lam))."""
    _check_beta(beta, q)
    _check_beta(lam, q, "lambda")
    lq = math.log(q)
    return (
        -lam * math.log(beta / lam) / lq
        - (1 - lam) * math.log((1 - beta) / (1 - lam)) / lq
    )


def psi(lam: float, beta: float, q: int, s: int) -> float:
    """psi(lambda, beta) = s D_q(lambda||beta) + log_q Z(beta)."""
    return s * kl_q(lam, beta, q) + math.log(zed(beta, q, s), q)


def lambda_of_beta(beta: float, q: int, s: int) -> float:
    """The weight at which beta is the stationary point of psi.

    Strictly increasing in beta, from 0 at 0+ to (q-1)/q at (q-1)/q.
    """
    _check_beta(beta, q)
    x = 1 - q * beta / (q - 1)
    return beta * (1 - x ** (s - 1)) / (1 + (q - 1) * x ** s)


def phi(lam: float, q: int, s: int) -> tuple[float, float]:
    """(phi(lambda), beta*) with phi = inf_beta psi(lambda, beta).

    The unique minimizer solves lambda_of_beta(beta*) = lambda, found by
    bisection on the strictly increasing lambda_of_beta.
    """
    _check_beta(lam, q, "lambda")
    hi = (q - 1) / q
    if lambda_of_beta(hi, q, s) < lam - 1e-15:
        raise NumericError(f"lambda = {lam} above lambda((q-1)/q)")
    beta_star = _bisect(lambda beta: lambda_of_beta(beta, q, s), lam, 1e-300, hi)
    return psi(lam, beta_star, q, s), beta_star


def _check_delta_eps(q: int, delta: float, eps: float) -> None:
    if not 0 < delta < 1 - 1 / q:
        raise PreconditionError(f"delta = {delta} outside (0, 1 - 1/q)")
    if not 0 < eps < 1 - hq(delta, q):
        raise PreconditionError(f"eps = {eps} outside (0, 1 - h_q(delta))")


@dataclass(frozen=True)
class GvParams:
    """Parameters of a distance certificate."""

    q: int
    s: int
    rate: Fraction
    delta: float
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "rate", Fraction(self.rate))
        if self.s < 2:
            raise PreconditionError(f"sparsity s = {self.s} < 2")
        if not 0 < self.rate < 1:
            raise PreconditionError(f"rate {self.rate} outside (0, 1)")
        _check_delta_eps(self.q, self.delta, self.eps)

    @property
    def t(self) -> Fraction:
        return (1 - self.rate) * self.s

    def certifiable(self) -> bool:
        return float(self.rate) <= 1 - hq(self.delta, self.q) - self.eps


def _check_weight(lam: float, n: int) -> int:
    w = lam * n
    if abs(w - round(w)) > 1e-9:
        raise PreconditionError(f"lambda*n = {w} is not an integer")
    return round(w)


def p_lambda_bound(lam: float, n: int, params: GvParams) -> float:
    """log_q upper bound on P_lambda that holds at this n, capped at 0.

    Draw a word with i.i.d. mu_q(beta) coordinates.  Its weight W is
    Bin(n, beta), and the n/s blocks of one layer all sum to zero with
    probability Z(beta)^(n/s) = sum_w Pr[W = w] P1(w), where P1(w) is the
    layer probability of a fixed weight-w word.  Keeping the w = lambda n
    term gives P1(w) <= Z(beta)^(n/s) / Pr[W = w], and the t independent
    layers give

        log_q P_lambda <= t [(n/s) log_q Z(beta*) - log_q Pr_Bin(n,beta*)[W = w]]

    at the minimizer beta* of phi.  The exponent phi(lambda) (1-R) n alone
    drops the Stirling factor of the binomial, about
    (t/2) log_q(2 pi n lambda (1-lambda)), and is not a bound at finite n.
    """
    w = _check_weight(lam, n)
    q, s = params.q, params.s
    beta = phi(lam, q, s)[1]
    log_zed = math.log(zed(beta, q, s), q)
    log_bin = (
        math.log(math.comb(n, w), q)
        + w * math.log(beta, q)
        + (n - w) * math.log(1 - beta, q)
    )
    return min(0.0, float(params.t) * (n / s * log_zed - log_bin))


def p_lambda_exact(lam: float, n: int, params: GvParams) -> float:
    """Exact log_q P_lambda from the layer DP, via `weight_layer_prob`.

    Layers are independent, so P_lambda = (layer prob)^t.  Returns -inf
    when the probability is 0.
    """
    q, s = params.q, params.s
    if n % s != 0:
        raise PreconditionError(f"s = {s} does not divide n = {n}")
    p1 = weight_layer_prob(q, n, s, _check_weight(lam, n))
    if p1 == 0.0:
        return -math.inf
    return float(params.t) * math.log(p1, q)


def _log_q_sum(terms: list[float], q: int) -> float:
    """log_q of a sum of q^term values, stable against underflow."""
    if not terms:
        return -math.inf
    m = max(terms)
    return m + math.log(sum(q ** (t - m) for t in terms), q)


def failure_bound(params: GvParams, n: int) -> float:
    """Union bound on the probability of a codeword of weight <= delta*n.

    Each weight i contributes the count C(n,i) (q-1)^i of weight-i vectors
    times the finite-n bound p_lambda_bound(i/n) on P_{i/n}, so the result
    is at least the exact union sum.  Accumulated in log space, capped at 1.
    """
    if not params.certifiable():
        raise PreconditionError(
            f"rate {params.rate} exceeds 1 - h_q(delta) - eps"
        )
    q = params.q
    terms = [
        math.log(math.comb(n, i), q) + i * math.log(q - 1, q)
        + p_lambda_bound(i / n, n, params)
        for i in range(1, math.floor(params.delta * n) + 1)
    ]
    total = _log_q_sum(terms, q)
    return min(1.0, q ** total) if total < 0 else 1.0


def s0_for_distance(q: int, delta: float, eps: float) -> int:
    """Smallest certified sparsity: ceil(ln(q/eps)/delta), then verified.

    The analytic formula carries an unspecified constant (set to 1 here),
    so the result is checked a posteriori: the failure bound must shrink
    from n = 1000 to n = 2000 at the boundary rate 1 - h_q(delta) - eps.
    The sparsity doubles until it does, at most 10 times.
    """
    _check_delta_eps(q, delta, eps)
    s = max(2, math.ceil(math.log(q / eps) / delta))
    # round the boundary rate down so it stays certifiable
    rate = Fraction(math.floor((1 - hq(delta, q) - eps) * 10 ** 6), 10 ** 6)
    if rate <= 0:
        raise PreconditionError("boundary rate 1 - h_q(delta) - eps <= 0")
    for _ in range(10):
        params = GvParams(q, s, rate, delta, eps)
        if failure_bound(params, 2000) < failure_bound(params, 1000):
            return s
        s *= 2
    raise ResourceGuardError(
        f"failure bound not decreasing after 10 doublings (s = {s})"
    )


def s0_main(q: int, eps: float, rbar: float, b: int) -> int:
    """Sparsity sufficient for b-local properties up to rate rbar."""
    denom = hq_inverse(1 - rbar, q)
    if denom <= 0:
        raise PreconditionError(f"h_q^-1(1 - {rbar}) = 0")
    return math.ceil((b * math.log2(q) + math.log2(q / eps)) / denom)


@dataclass
class DistanceCertificate:
    params: GvParams
    n: int
    rows: list[tuple[float, float, float, float]]  # lam, beta*, phi, alpha
    failure_probability: float

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("lambda,beta_star,phi,alpha\n")
        for lam, beta, ph, al in self.rows:
            buf.write(f"{lam:.12g},{beta:.12g},{ph:.12g},{al:.12g}\n")
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "q": self.params.q,
                "s": self.params.s,
                "rate": [self.params.rate.numerator, self.params.rate.denominator],
                "delta": self.params.delta,
                "eps": self.params.eps,
                "n": self.n,
                "failure_probability": self.failure_probability,
                "rows": [list(r) for r in self.rows],
            },
            indent=1,
        )


def certify_distance(
    q: int, delta: float, eps: float, rate, n: int, s: int | None = None
) -> DistanceCertificate:
    """Build the certificate grid for weights 1/n .. delta of the s-LDPC ensemble at n."""
    if s is None:
        s = s0_for_distance(q, delta, eps)
    params = GvParams(q, s, Fraction(rate), delta, eps)
    if n % s or params.t.denominator != 1:
        raise PreconditionError(f"no LDPC ensemble at s = {s}, n = {n}: s must divide n "
                                f"and t = (1-R)*s = {params.t} must be an integer")
    rows = []
    for i in range(1, math.floor(delta * n) + 1):
        lam = i / n
        ph, beta = phi(lam, q, s)
        rows.append((lam, beta, ph, ph / hq(lam, q)))
    return DistanceCertificate(params, n, rows, failure_bound(params, n))
