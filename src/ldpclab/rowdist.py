"""Row distributions over F_q^l and their containment-threshold theory.

Masses are exact rationals so that length-divisibility checks and orbit
counts are exact.  Entropies stay exact (as Fractions) whenever every mass
is an integer power of q, which covers the hand-checkable examples; other
distributions fall back to double precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from . import linalg
from .errors import (
    DegenerateDistribution,
    KernelFullSpace,
    MalformedInput,
    NotInLtau,
    PreconditionViolated,
    SearchBudgetExhausted,
    SupportTooLarge,
    TooManyDualVectors,
)
from .gf import Field, field_new

Real = Union[Fraction, float]

DUAL_ENUM_GUARD = 10 ** 6


@dataclass(frozen=True)
class RowDistribution:
    """A distribution tau over F_q^ell with positive rational masses."""

    field: Field
    ell: int
    masses: tuple[tuple[tuple[int, ...], Fraction], ...]

    @staticmethod
    def from_dict(field: Field, ell: int, d: dict) -> "RowDistribution":
        items = []
        for vec, mass in sorted(d.items()):
            vec = tuple(int(x) for x in vec)
            if len(vec) != ell or not all(0 <= x < field.q for x in vec):
                raise MalformedInput(f"{vec} is not a vector of F_{field.q}^{ell}")
            mass = Fraction(mass)
            if mass < 0:
                raise MalformedInput(f"negative mass at {vec}")
            if mass > 0:
                items.append((vec, mass))
        total = sum(m for _, m in items)
        if total != 1:
            raise MalformedInput(f"masses sum to {total}, not 1")
        return RowDistribution(field, ell, tuple(items))

    def as_dict(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.masses)

    def support(self) -> list[tuple[int, ...]]:
        return [v for v, _ in self.masses]

    def mass(self, v) -> Fraction:
        return self.as_dict().get(tuple(int(x) for x in v), Fraction(0))

    def support_matrix(self) -> np.ndarray:
        return np.array(self.support(), dtype=np.int64).reshape(-1, self.ell)

    # -- serialization --

    def to_json(self) -> str:
        doc = {
            "ell": self.ell,
            "field": {"p": self.field.p, "h": self.field.h},
            "masses": [
                [list(v), m.numerator, m.denominator] for v, m in self.masses
            ],
        }
        return json.dumps(doc, indent=1)

    @staticmethod
    def from_json(text: str) -> "RowDistribution":
        try:
            doc = json.loads(text)
            p, h, ell = doc["field"]["p"], doc["field"]["h"], doc["ell"]
            d = {tuple(v): Fraction(num, den) for v, num, den in doc["masses"]}
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            raise MalformedInput(f"malformed distribution JSON: {e!r}") from None
        return RowDistribution.from_dict(field_new(p, h), ell, d)


def row_distribution_of(field: Field, m: np.ndarray) -> RowDistribution:
    """Empirical distribution of the rows of an n x l matrix."""
    m = linalg.as_matrix(m)
    n = m.shape[0]
    counts: dict[tuple[int, ...], int] = {}
    for row in m:
        key = tuple(int(x) for x in row)
        counts[key] = counts.get(key, 0) + 1
    return RowDistribution.from_dict(
        field, m.shape[1], {v: Fraction(c, n) for v, c in counts.items()}
    )


def _exact_log_q(x: Fraction, q: int) -> Optional[int]:
    """log_q(x) if it is an integer (x a power of q), else None."""
    if x.numerator == 1:
        e, d = 0, x.denominator
        while d % q == 0:
            d //= q
            e += 1
        return -e if d == 1 else None
    if x.denominator == 1:
        e, n = 0, x.numerator
        while n % q == 0:
            n //= q
            e += 1
        return e if n == 1 else None
    return None


def entropy_q(tau: RowDistribution) -> Real:
    """Base-q entropy; exact Fraction when every mass is a power of q."""
    q = tau.field.q
    logs = [_exact_log_q(m, q) for _, m in tau.masses]
    if all(lg is not None for lg in logs):
        return -sum(m * lg for (_, m), lg in zip(tau.masses, logs))
    return -sum(float(m) * math.log(float(m), q) for _, m in tau.masses)


def span_dim(tau: RowDistribution) -> int:
    """Dimension of the span of the support."""
    return linalg.rank(tau.field, tau.support_matrix())


def smoothness(tau: RowDistribution) -> Fraction:
    """min over nonzero dual vectors u of Pr_v[<u,v> != 0]."""
    q, ell = tau.field.q, tau.ell
    if q ** ell > DUAL_ENUM_GUARD:
        raise TooManyDualVectors(f"q^l = {q}^{ell} exceeds {DUAL_ENUM_GUARD}")
    supp = tau.support_matrix()
    best = Fraction(1)
    for u_idx in range(1, q ** ell):
        u = linalg.index_vector(u_idx, ell, q)
        prods = linalg.matmul(tau.field, supp, u)
        pr = sum(m for (v, m), p_ in zip(tau.masses, prods) if p_ != 0)
        if pr < best:
            best = pr
            if best == 0:
                break
    return best


def implied_distribution(tau: RowDistribution, kernel: np.ndarray) -> RowDistribution:
    """Distribution of A.v for v ~ tau, where ker(A) is the given subspace.

    The kernel is an RREF basis matrix (rows span the subspace); A's rows
    are a basis of the annihilator, so the image masses are sums of tau
    over kernel cosets.
    """
    kernel = np.asarray(kernel, dtype=np.int64).reshape(-1, tau.ell)
    if kernel.shape[0] >= tau.ell and linalg.rank(tau.field, kernel) == tau.ell:
        raise KernelFullSpace("kernel must be a proper subspace")
    a_t = linalg.kernel_basis(tau.field, kernel)  # l x (l - dim kernel)
    m = a_t.shape[1]
    images = linalg.matmul(tau.field, tau.support_matrix(), a_t)  # row i is A.v_i
    out: dict[tuple[int, ...], Fraction] = {}
    for (_, mass), img in zip(tau.masses, images.tolist()):
        img = tuple(img)
        out[img] = out.get(img, Fraction(0)) + mass
    return RowDistribution.from_dict(tau.field, m, out)


def expectation_threshold(tau: RowDistribution) -> Real:
    """1 - H_q(tau) / d(tau); errors on the point mass at the origin."""
    d = span_dim(tau)
    if d == 0:
        raise DegenerateDistribution("point mass at 0 has d(tau) = 0")
    h = entropy_q(tau)
    if isinstance(h, Fraction):
        return 1 - h / d
    return 1.0 - h / d


@dataclass
class ThresholdReport:
    r_expected: Real
    r_star: Real
    kernel: np.ndarray  # RREF basis rows of the maximizing kernel
    implied: RowDistribution

    def to_json(self) -> str:
        return json.dumps(
            {
                "r_expected": [Fraction(self.r_expected).numerator,
                               Fraction(self.r_expected).denominator]
                if isinstance(self.r_expected, Fraction)
                else float(self.r_expected),
                "r_star": [Fraction(self.r_star).numerator,
                           Fraction(self.r_star).denominator]
                if isinstance(self.r_star, Fraction)
                else float(self.r_star),
                "kernel_rows": self.kernel.tolist(),
                "implied": json.loads(self.implied.to_json()),
            },
            indent=1,
        )


def rstar(tau: RowDistribution) -> ThresholdReport:
    """Max of the expectation threshold over all tau-implied distributions.

    Implied distributions are indexed by the kernel of the defining map, so
    the unbounded max over matrices reduces to enumerating the proper
    subspaces of F_q^l.  Images that collapse to the point mass at 0 are
    skipped (their threshold is undefined).  A point mass at a nonzero
    vector is kept and gives threshold 1: a code containing a tau-matrix
    then contains one fixed nonzero word, which a random linear code of
    any rate R < 1 contains with probability q^{-(1-R) n} -> 0.
    """
    r_exp = expectation_threshold(tau)
    best: Optional[Real] = None
    best_kernel = best_implied = None
    for kernel in linalg.enumerate_subspaces(tau.field, tau.ell):
        if kernel.shape[0] == tau.ell:
            continue  # full space: A would have rank 0
        implied = implied_distribution(tau, kernel)
        if implied.support() == [(0,) * implied.ell]:
            continue  # spans {0}
        r = expectation_threshold(implied)
        if best is None or r > best:
            best, best_kernel, best_implied = r, kernel, implied
    assert best is not None  # the zero kernel always yields a candidate
    return ThresholdReport(r_exp, best, best_kernel, best_implied)


@dataclass
class ContainmentEstimate:
    matrix_count: int          # |M_{n,tau}|, exact multinomial
    log_q_expected: float      # log_q of the expected contained-matrix count
    expected_count: float
    union_bound: float


def prob_rlc_contains(tau: RowDistribution, n: int, rate) -> ContainmentEstimate:
    """First-moment containment estimate for a random linear code.

    |M_{n,tau}| is the exact multinomial coefficient; the expected count is
    |M_{n,tau}| * q^{-(1-R) d(tau) n}, evaluated in log space.
    """
    rate = Fraction(rate)
    counts = []
    for v, m in tau.masses:
        c = m * n
        if c.denominator != 1:
            raise NotInLtau(f"tau({v}) * n = {c} is not an integer")
        counts.append(int(c))
    mcount = math.factorial(n)
    for c in counts:
        mcount //= math.factorial(c)
    d = span_dim(tau)
    q = tau.field.q
    log_expected = math.log(mcount, q) - float((1 - rate) * d) * n
    expected = q ** log_expected if log_expected < 300 else math.inf
    return ContainmentEstimate(mcount, log_expected, expected, min(1.0, expected))


# ---------------------------------------------------------------------------
# Bad-list search for the list-decoding property


def is_bad_list(
    tau: RowDistribution, alpha
) -> tuple[bool, Optional[dict[tuple[int, ...], int]]]:
    """Does some center place all l columns within relative radius alpha?

    The center is an assignment a: supp(tau) -> F_q; column j's distance to
    it is sum_v tau(v) [v_j != a(v)].  Requires the l columns to be pairwise
    distinct as mass-weighted multisets.  Exhaustive search over q^{|supp|}
    assignments with branch-and-bound pruning on partial column distances.
    """
    alpha = Fraction(alpha)
    supp = tau.support()
    masses = [m for _, m in tau.masses]
    k = len(supp)
    if k > 20:
        raise SupportTooLarge(f"support size {k} exceeds 20")
    ell, q = tau.ell, tau.field.q
    # columns must be pairwise distinct somewhere on the support
    for j in range(ell):
        for j2 in range(j + 1, ell):
            if all(v[j] == v[j2] for v in supp):
                return False, None
    # order support by decreasing mass so pruning bites early
    order = sorted(range(k), key=lambda i: -masses[i])
    supp_o = [supp[i] for i in order]
    mass_o = [masses[i] for i in order]

    assignment = [0] * k

    def search(i: int, dists: tuple[Fraction, ...]) -> Optional[list[int]]:
        if max(dists) > alpha:
            return None
        if i == k:
            return assignment[:k]
        v = supp_o[i]
        for a in range(q):
            nd = tuple(
                dists[j] + (mass_o[i] if v[j] != a else 0) for j in range(ell)
            )
            assignment[i] = a
            found = search(i + 1, nd)
            if found is not None:
                return found
        return None

    found = search(0, tuple(Fraction(0) for _ in range(ell)))
    if found is None:
        return False, None
    return True, {supp_o[i]: found[i] for i in range(k)}


def listdec_threshold_search(
    fld: Field,
    alpha,
    list_size: int,
    support_cap: int = 8,
    iterations: int = 200,
    seed: int = 0,
    denominator: int = 24,
) -> tuple[RowDistribution, Real]:
    """Heuristic upper bound on the list-decoding threshold min-max.

    Minimizes rstar over bad-list distributions with bounded support via
    random restarts plus mass-perturbation hill climbing; each candidate is
    projected back into the bad-list region by rejection.  The result is an
    upper estimate of the true min over all bad-list distributions.
    """
    if list_size < 1:
        raise PreconditionViolated("list size must be >= 1 (l = L+1 >= 2)")
    ell = list_size + 1
    if support_cap > 20:
        raise SupportTooLarge(f"support cap {support_cap} exceeds 20")
    alpha = Fraction(alpha)
    q = fld.q
    rng = np.random.default_rng(seed)

    def random_candidate() -> Optional[RowDistribution]:
        k = int(rng.integers(2, support_cap + 1))
        vecs = {
            tuple(int(x) for x in rng.integers(0, q, size=ell)) for _ in range(k)
        }
        vecs = sorted(vecs)
        if len(vecs) < 2:
            return None
        cuts = sorted(rng.choice(denominator - 1, size=len(vecs) - 1, replace=False) + 1)
        parts = np.diff([0, *cuts, denominator])
        d = {v: Fraction(int(c), denominator) for v, c in zip(vecs, parts) if c > 0}
        if len(d) < 2:
            return None
        return RowDistribution.from_dict(fld, ell, d)

    def perturb(tau: RowDistribution) -> Optional[RowDistribution]:
        d = {v: m for v, m in tau.masses}
        keys = list(d)
        if len(keys) < 2:
            return None
        i, j = rng.choice(len(keys), size=2, replace=False)
        step = Fraction(1, denominator)
        if d[keys[i]] <= step:
            return None
        d[keys[i]] -= step
        d[keys[j]] += step
        d = {v: m for v, m in d.items() if m > 0}
        if len(d) < 2:
            return None
        return RowDistribution.from_dict(fld, ell, d)

    best_tau: Optional[RowDistribution] = None
    best_r: Optional[Real] = None
    current: Optional[RowDistribution] = None
    current_r: Optional[Real] = None
    for _ in range(iterations):
        cand = perturb(current) if current is not None and rng.random() < 0.7 else random_candidate()
        if cand is None:
            continue
        try:
            bad, _ = is_bad_list(cand, alpha)
        except SupportTooLarge:
            continue
        if not bad:
            continue
        r = rstar(cand).r_star
        if current_r is None or r <= current_r:
            current, current_r = cand, r
        if best_r is None or r < best_r:
            best_tau, best_r = cand, r
    if best_tau is None:
        raise SearchBudgetExhausted(
            f"no bad-list distribution found in {iterations} iterations")
    return best_tau, best_r
