"""Row distributions over F_q^l and their containment-threshold theory.

Masses are exact rationals so that length-divisibility checks and orbit
counts are exact.  Entropies stay exact (as Fractions) whenever every mass
is an integer power of q, which covers the hand-checkable examples; other
distributions fall back to double precision.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from . import linalg
from .errors import MalformedInput, PreconditionError, ResourceGuardError
from .gf import Field, field_new

Real = Union[Fraction, float]

TABLE_GUARD = 10 ** 6  # cells of any dense table indexed by F_q^l
SEARCH_SUPPORT_CAP, SEARCH_DENOMINATOR = 8, 24  # threshold search: support, mass grain
SEARCH_ITERATIONS = 200  # threshold search: candidates drawn


@dataclass(frozen=True)
class RowDistribution:
    """A distribution tau over F_q^ell with positive rational masses."""

    field: Field
    ell: int
    masses: tuple[tuple[tuple[int, ...], Fraction], ...]

    @staticmethod
    def from_dict(field: Field, ell: int, d: dict) -> "RowDistribution":
        if isinstance(ell, bool) or not isinstance(ell, (int, np.integer)) or ell < 1:
            raise MalformedInput(f"ell = {ell!r} must be an integer >= 1")
        items = []
        for vec, mass in d.items():
            try:
                ints = tuple(int(x) for x in vec)
            except (TypeError, ValueError):
                ints = None
            # int() truncated, or refused, an entry, or read a bool as 0 or 1
            if ints != tuple(vec) or any(isinstance(x, bool) for x in vec):
                raise MalformedInput(f"{tuple(vec)} is not a vector of integers")
            vec = ints
            if len(vec) != ell or not all(0 <= x < field.q for x in vec):
                raise MalformedInput(f"{vec} is not a vector of F_{field.q}^{ell}")
            mass = Fraction(mass)
            if mass < 0:
                raise MalformedInput(f"negative mass at {vec}")
            if mass > 0:
                items.append((vec, mass))
        items.sort()  # every vector is checked first: mixed types cannot reach the sort
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
        for v, num, den in doc["masses"]:
            if isinstance(num, bool) or isinstance(den, bool):
                raise MalformedInput(f"mass {num!r}/{den!r} at {tuple(v)} is not a ratio of "
                                     "integers")
        return RowDistribution.from_dict(field_new(p, h), ell, d)


def row_distribution_of(field: Field, m: np.ndarray) -> RowDistribution:
    """Empirical distribution of the rows of an n x l matrix."""
    m = linalg.as_matrix(m)
    n = m.shape[0]
    counts = Counter(map(tuple, m.tolist()))
    return RowDistribution.from_dict(
        field, m.shape[1], {v: Fraction(c, n) for v, c in counts.items()}
    )


def _exact_log_q(x: Fraction, q: int) -> Optional[int]:
    """log_q(x) of a mass x in (0, 1] if it is an integer (x = q^-e), else None."""
    if x.numerator == 1:
        e, d = 0, x.denominator
        while d % q == 0:
            d //= q
            e += 1
        return -e if d == 1 else None
    return None


def _mass_terms(m: Fraction, q: int) -> tuple[Fraction, Optional[int], float]:
    """A mass with its exact log_q (or None) and its float entropy term."""
    x = float(m)
    return m, _exact_log_q(m, q), x * math.log(x, q)


def _entropy(terms: list[tuple[Fraction, Optional[int], float]]) -> Real:
    """Base-q entropy of the masses of `terms` (from `_mass_terms`), summed
    in list order; exact Fraction when every mass is a power of q."""
    if all(lg is not None for _, lg, _ in terms):
        return -sum(m * lg for m, lg, _ in terms)
    return -sum(t for _, _, t in terms)


def entropy_q(tau: RowDistribution) -> Real:
    """Base-q entropy; exact Fraction when every mass is a power of q."""
    return _entropy([_mass_terms(m, tau.field.q) for _, m in tau.masses])


def span_dim(tau: RowDistribution) -> int:
    """Dimension of the span of the support."""
    return linalg.rank(tau.field, tau.support_matrix())


def table_rows(field: Field, ell: int, width: int = 1) -> int:
    """q^l, once a (q^l, width) table over F_q^l is checked against TABLE_GUARD."""
    rows = field.q ** ell
    if rows * width > TABLE_GUARD:
        raise ResourceGuardError(f"table over F_{field.q}^{ell} holds {rows * width} cells, "
                                 f"more than TABLE_GUARD = {TABLE_GUARD}")
    return rows


def orthogonality(tau: RowDistribution) -> np.ndarray:
    """(q^l, |supp|) table of <y, v_i> = 0, row y in vector encoding."""
    fld, ell = tau.field, tau.ell
    table_rows(fld, ell, len(tau.masses))
    return linalg.matmul(fld, linalg.all_vectors(ell, fld.q), tau.support_matrix().T) == 0


def smoothness(tau: RowDistribution) -> Fraction:
    """min over nonzero dual vectors y of Pr_v[<y,v> != 0]: an exact
    integer dot product of each row of `orthogonality` with the masses."""
    den = math.lcm(*(m.denominator for _, m in tau.masses))
    weights = np.array([m.numerator * (den // m.denominator) for _, m in tau.masses], dtype=object)
    return Fraction(int(((~orthogonality(tau)[1:]) @ weights).min()), den)


def _project(fld: Field, kernels: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """(b, l, n) array of v - v[P].K for each row v of `vecs` and each RREF
    basis K (pivots P, no zero row) of the stack `kernels`: one `matmul` by
    I - K, the identity minus K's rows put at rows P."""
    b, _, ell = kernels.shape
    proj = np.tile(np.eye(ell, dtype=np.int64), (b, 1, 1))
    at = np.arange(b)[:, None], (kernels != 0).argmax(axis=2)
    proj[at] = fld.sub(proj[at], kernels)
    return linalg.matmul(fld, proj.transpose(0, 2, 1), vecs.T)


def implied_distribution(tau: RowDistribution, kernel: np.ndarray) -> RowDistribution:
    """Distribution of A.v for v ~ tau, where ker(A) is the row space of
    `kernel`.  With R, P and F the kernel's RREF, pivots and free columns,
    A.v is `_project`'s v - v[P].R on F (A's rows: the annihilator's basis
    that is the identity on F), so image masses sum tau over kernel cosets."""
    kernel = np.asarray(kernel, dtype=np.int64).reshape(-1, tau.ell)
    r, rk, piv = linalg.rref(tau.field, kernel)
    if rk == tau.ell:
        raise PreconditionError("kernel must be a proper subspace")
    free = [c for c in range(tau.ell) if c not in piv]
    images = _project(tau.field, r[None, :rk], tau.support_matrix())[0, free].T  # row i is A.v_i
    out: dict[tuple[int, ...], Fraction] = {}
    for (_, mass), img in zip(tau.masses, images.tolist()):
        img = tuple(img)
        out[img] = out.get(img, Fraction(0)) + mass
    return RowDistribution.from_dict(tau.field, len(free), out)


def expectation_threshold(tau: RowDistribution) -> Real:
    """1 - H_q(tau) / d(tau); errors on the point mass at the origin."""
    d = span_dim(tau)
    if d == 0:
        raise PreconditionError("point mass at 0 has d(tau) = 0")
    return _threshold(entropy_q(tau), d)


def _threshold(h: Real, d: int) -> Real:
    """1 - h / d, exact when the entropy h is."""
    return 1 - h / d if isinstance(h, Fraction) else 1.0 - h / d


def _real_json(x: Real) -> list[int] | float:
    """An exact threshold as [numerator, denominator], a float as itself."""
    return [x.numerator, x.denominator] if isinstance(x, Fraction) else float(x)


@dataclass
class ThresholdReport:
    r_expected: Real
    r_star: Real
    kernel: np.ndarray  # RREF basis rows of the maximizing kernel
    implied: RowDistribution

    def to_json(self) -> str:
        return json.dumps(
            {
                "r_expected": _real_json(self.r_expected),
                "r_star": _real_json(self.r_star),
                "kernel_rows": self.kernel.tolist(),
                "implied": json.loads(self.implied.to_json()),
            },
            indent=1,
        )


def rstar(tau: RowDistribution) -> ThresholdReport:
    """Max of the expectation threshold over all tau-implied distributions.

    Implied distributions are indexed by the kernel K of the defining map
    and depend only on K & S, S the span of the support: two support
    vectors share an image iff their difference lies in K & S.  So a kernel
    outside S implies the same distribution, relabeled, as K & S, and the
    max runs over the proper subspaces of S alone (S itself maps every
    vector to 0, where the threshold is undefined).  A point mass at a
    nonzero vector gives threshold 1: a code containing a tau-matrix then
    contains one fixed nonzero word, which a random linear code of any rate
    R < 1 contains with probability q^{-(1-R) n} -> 0.

    One `rref` of the support gives B, S's RREF basis, with pivot columns P
    and s = dim S = d(tau).  v = v[P].B on S, so the support becomes
    vectors c of F_q^s, and a kernel K' of F_q^s stands for K'.B (in RREF,
    with pivots P[P']).  x -> x.B keeps the lexicographic order of vectors,
    so the kernels inside S come in the order `enumerate_subspaces` lists
    them in F_q^l.  They are scored a stack at a time, each int64 array
    holding about `linalg.BLOCK_BYTES`, so memory stays flat.  `_project`,
    the image map `implied_distribution` also reads, gives every
    c - c[P'].K' of the stack in one `matmul`: zero on K''s pivot columns
    P' and the image of c on the free ones.  Their codes sort them in
    tuple order, the masses are summed per image in that order, and the
    images span d = s - dim K' dimensions.  Each threshold is then the
    `expectation_threshold` of the implied distribution, by the same
    expressions: an exact Fraction when every image mass is q^-e, otherwise
    a float summed by Python's `sum` in image order.  The first kernel in
    enumeration order wins a tie (strict `>`, Fractions compared with
    floats exactly).
    """
    fld, n = tau.field, len(tau.masses)
    supp = tau.support_matrix()
    basis, s, piv = linalg.rref(fld, supp)
    if s == 0:
        raise PreconditionError("point mass at 0 has d(tau) = 0")
    r_exp = _threshold(entropy_q(tau), s)  # expectation_threshold, with d(tau) = s
    coords = supp[:, piv]  # supp = coords . basis[:s]
    batch = max(1, linalg.BLOCK_BYTES // (8 * s * max(s, n)))  # kernels of a stack
    stacks = linalg.enumerate_subspaces(fld, s, batch)
    den = math.lcm(*(m.denominator for _, m in tau.masses))
    nums = np.array([m.numerator * (den // m.denominator) for _, m in tau.masses],
                    dtype=np.int64 if den < 2 ** 63 else object)  # they sum to den
    terms: dict[int, tuple] = {}  # image mass numerator -> _mass_terms
    best: Optional[Real] = None
    best_kernel = None
    for kernels in stacks:
        m = kernels.shape[1]
        if m == s:
            continue  # the whole span: every image is 0
        images = _project(fld, kernels, coords)  # (b, s, n)
        # codes < q^s, first coordinate most significant (tuple order; P' is
        # zero in every image of a kernel): far inside int64 for any F_q^s
        # the subspace guard admits
        codes = fld.q ** np.arange(s - 1, -1, -1) @ images
        order = np.argsort(codes, axis=1)
        codes = np.sort(codes, axis=1)
        starts = np.ones(codes.shape, dtype=bool)
        starts[:, 1:] = codes[:, 1:] != codes[:, :-1]
        sums = np.add.reduceat(nums[order].ravel(), np.flatnonzero(starts)).tolist()
        for num in set(sums).difference(terms):
            terms[num] = _mass_terms(Fraction(num, den), fld.q)
        pos = 0
        for k, groups in enumerate(starts.sum(axis=1).tolist()):
            masses, pos = sums[pos:pos + groups], pos + groups
            r = _threshold(_entropy([terms[num] for num in masses]), s - m)
            if best is None or r > best:
                best, best_kernel = r, kernels[k]
    assert best is not None  # the zero kernel always yields a candidate
    kernel = linalg.matmul(fld, best_kernel, basis[:s])  # RREF, pivots P[P']
    return ThresholdReport(r_exp, best, kernel, implied_distribution(tau, kernel))


# ---------------------------------------------------------------------------
# Bad-list search for the list-decoding property


def is_bad_list(
    tau: RowDistribution, alpha
) -> tuple[bool, Optional[dict[tuple[int, ...], int]]]:
    """Does some center place all l columns within relative radius alpha?

    The center is an assignment a: supp(tau) -> F_q; column j's distance to
    it is sum_v tau(v) [v_j != a(v)].  Requires the l columns to be pairwise
    distinct as mass-weighted multisets.  A value a(v) outside v adds tau(v)
    to every column, so only the entries of each v are tried, whatever q
    is, in a search pruned on partial column distances.
    """
    alpha = Fraction(alpha)
    supp = tau.support()
    k = len(supp)
    if k > 20:
        raise ResourceGuardError(f"support size {k} exceeds 20")
    ell = tau.ell
    # columns must be pairwise distinct somewhere on the support
    for j in range(ell):
        for j2 in range(j + 1, ell):
            if all(v[j] == v[j2] for v in supp):
                return False, None
    # order support by decreasing mass so pruning bites early
    rows = sorted(tau.masses, key=lambda vm: -vm[1])

    def search(i: int, dists: tuple[Fraction, ...]) -> Optional[tuple[int, ...]]:
        if max(dists) > alpha:
            return None
        if i == k:
            return ()
        v, mass = rows[i]
        for a in sorted(set(v)):
            nd = tuple(d + (mass if v[j] != a else 0) for j, d in enumerate(dists))
            found = search(i + 1, nd)
            if found is not None:
                return (a, *found)
        return None

    found = search(0, (Fraction(0),) * ell)
    if found is None:
        return False, None
    return True, {v: a for (v, _), a in zip(rows, found)}


def listdec_threshold_search(fld: Field, alpha, list_size: int,
                             seed: int = 0) -> tuple[RowDistribution, Real]:
    """Heuristic upper bound on the list-decoding threshold min-max.

    Minimizes rstar over bad-list distributions with bounded support via
    random restarts plus mass-perturbation hill climbing; each candidate is
    projected back into the bad-list region by rejection.  The result is an
    upper estimate of the true min over all bad-list distributions.
    """
    if list_size < 1:
        raise PreconditionError("list size must be >= 1 (l = L+1 >= 2)")
    ell = list_size + 1
    alpha = Fraction(alpha)
    q = fld.q
    rng = np.random.default_rng(seed)

    def random_candidate() -> Optional[RowDistribution]:
        k = int(rng.integers(2, SEARCH_SUPPORT_CAP + 1))
        vecs = {
            tuple(int(x) for x in rng.integers(0, q, size=ell)) for _ in range(k)
        }
        vecs = sorted(vecs)
        if len(vecs) < 2:
            return None
        cuts = sorted(rng.choice(SEARCH_DENOMINATOR - 1, size=len(vecs) - 1, replace=False) + 1)
        parts = np.diff([0, *cuts, SEARCH_DENOMINATOR])
        d = {v: Fraction(int(c), SEARCH_DENOMINATOR) for v, c in zip(vecs, parts)}
        return RowDistribution.from_dict(fld, ell, d)

    def perturb(tau: RowDistribution) -> Optional[RowDistribution]:
        d = {v: m for v, m in tau.masses}
        keys = list(d)
        i, j = rng.choice(len(keys), size=2, replace=False)
        step = Fraction(1, SEARCH_DENOMINATOR)
        if d[keys[i]] <= step:
            return None
        d[keys[i]] -= step
        d[keys[j]] += step
        return RowDistribution.from_dict(fld, ell, d)

    best_tau: Optional[RowDistribution] = None
    best_r: Optional[Real] = None
    current: Optional[RowDistribution] = None
    current_r: Optional[Real] = None
    for _ in range(SEARCH_ITERATIONS):
        cand = perturb(current) if current is not None and rng.random() < 0.7 else random_candidate()
        if cand is None:
            continue
        bad, _ = is_bad_list(cand, alpha)
        if not bad:
            continue
        r = rstar(cand).r_star
        if current_r is None or r <= current_r:
            current, current_r = cand, r
        if best_r is None or r < best_r:
            best_tau, best_r = cand, r
    if best_tau is None:
        raise ResourceGuardError(
            f"no bad-list distribution found in {SEARCH_ITERATIONS} iterations")
    return best_tau, best_r
