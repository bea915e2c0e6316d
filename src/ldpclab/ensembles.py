"""Random linear and random s-LDPC code samplers with brute-force analytics.

The LDPC ensemble stacks t = (1-R)*s independent layers; each layer
partitions the n coordinates into n/s parity checks via a uniform
permutation and scales every coordinate by a uniform nonzero element.  One
batched layer sampler serves both `sample_ldpc` (one trial) and the Monte
Carlo estimator (many).  Sampling is driven by a counter-based PRNG (numpy
Philox keyed on the 64-bit seed), so a (params, seed) pair reproduces a code
bit-for-bit and Monte Carlo workers can partition seed space
deterministically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from . import linalg
from .errors import (
    BadRate,
    CodeTooLarge,
    DivisibilityViolation,
    LengthMismatch,
    MalformedInput,
)
from .gf import Field, field_new

ENUM_GUARD = 1 << 24


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class LdpcEnsembleParams:
    """Parameters (q, n, s, R) of the layered LDPC ensemble; t = (1-R)s."""

    field: Field
    n: int
    s: int
    rate: Fraction

    def __post_init__(self):
        if not (0 < self.rate < 1):
            raise BadRate(f"rate must be in (0,1), got {self.rate}")
        if self.n % self.s != 0:
            raise DivisibilityViolation(f"s={self.s} does not divide n={self.n}")
        t = (1 - self.rate) * self.s
        if t.denominator != 1 or t <= 0:
            raise DivisibilityViolation(
                f"t = (1-R)*s = {t} must be a positive integer"
            )

    @property
    def t(self) -> int:
        return int((1 - self.rate) * self.s)

    @property
    def checks_per_layer(self) -> int:
        return self.n // self.s


class LinearCode:
    """A linear code given by its parity-check matrix H; kernel cached."""

    def __init__(self, field: Field, h: np.ndarray, s: int, rate: Fraction, seed: int):
        self.field = field
        self.h = np.asarray(h, dtype=np.int64)
        self.n = self.h.shape[1]
        self.s = s  # 0 marks a random linear code
        self.rate = rate
        self.seed = seed
        self._generator: Optional[np.ndarray] = None

    @property
    def generator(self) -> np.ndarray:
        """n x k matrix whose columns span the code."""
        if self._generator is None:
            self._generator = linalg.kernel_basis(self.field, self.h)
        return self._generator

    @property
    def dimension(self) -> int:
        return self.generator.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearCode)
            and self.field == other.field
            and self.s == other.s
            and self.rate == other.rate
            and np.array_equal(self.h, other.h)
        )

    # -- serialization --

    def to_json(self) -> str:
        q = self.field.q
        sep = "" if q <= 10 else ","
        rows = [sep.join(str(int(x)) for x in row) for row in self.h]
        doc = {
            "field": {"p": self.field.p, "h": self.field.h,
                      "modulus": list(self.field.modulus)},
            "n": self.n,
            "s": self.s,
            "rate": [self.rate.numerator, self.rate.denominator],
            "seed": self.seed,
            "h_rows": rows,
        }
        return json.dumps(doc, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "LinearCode":
        try:
            doc = json.loads(text)
            p, h, modulus = (doc["field"][key] for key in ("p", "h", "modulus"))
            comma = p ** h > 10
            rows = [[int(c) for c in (row.split(",") if comma else row)]
                    for row in doc["h_rows"]]
            hmat = np.array(rows, dtype=np.int64).reshape(len(rows), doc["n"])
            rest = (doc["s"], Fraction(*doc["rate"]), doc["seed"])
        except (KeyError, TypeError, ValueError) as e:
            raise MalformedInput(f"malformed code JSON: {e!r}") from None
        fld = field_new(p, h)
        if list(fld.modulus) != modulus:
            raise MalformedInput("field modulus mismatch in serialized code")
        return cls(fld, linalg.as_matrix(hmat, fld), *rest)


def sample_rlc(n: int, rate: Fraction, fld: Field, seed: int) -> LinearCode:
    """Kernel of a uniformly random (1-R)n x n matrix over F_q."""
    rate = Fraction(rate)
    if not (0 < rate < 1):
        raise BadRate(f"rate must be in (0,1), got {rate}")
    if (rate * n).denominator != 1:
        raise BadRate(f"R*n = {rate * n} is not an integer")
    m = int((1 - rate) * n)
    rng = make_rng(seed)
    h = rng.integers(0, fld.q, size=(m, n)).astype(np.int64)
    return LinearCode(fld, h, 0, rate, seed)


def _layer_draws(params: LdpcEnsembleParams, rng: np.random.Generator, trials: int):
    """Yield the t layers of `trials` independent codes as (perms, scalars).

    Both arrays are (trials, n): a uniform permutation of [0, n) per trial,
    and a uniform unit per permuted position (for q = 2 the only unit is 1,
    and `integers(1, 2)` consumes no random bits).  Check i of a layer
    holds the positions perms[i*s:(i+1)*s], scaled by the matching scalars.
    """
    n, q = params.n, params.field.q
    for _ in range(params.t):
        perms = np.argsort(rng.random(size=(trials, n)), axis=1)
        yield perms, rng.integers(1, q, size=(trials, n))


def sample_ldpc(params: LdpcEnsembleParams, seed: int) -> LinearCode:
    """Stack t independent layers, each a scaled random partition into checks."""
    n, blocks = params.n, params.checks_per_layer
    h = np.zeros((params.t * blocks, n), dtype=np.int64)
    check = np.arange(n) // params.s  # check of each permuted position
    for j, (perms, scalars) in enumerate(_layer_draws(params, make_rng(seed), 1)):
        h[j * blocks + check, perms[0]] = scalars[0]
    return LinearCode(params.field, h, params.s, params.rate, seed)


def contains(code: LinearCode, v: np.ndarray) -> bool:
    v = np.asarray(v, dtype=np.int64)
    if v.shape != (code.n,):
        raise LengthMismatch(f"vector length {v.shape} vs n={code.n}")
    return not np.any(linalg.matmul(code.field, code.h, v))


def _check_enum_guard(code: LinearCode) -> int:
    k = code.dimension
    if code.field.q ** k > ENUM_GUARD:
        raise CodeTooLarge(f"q^k = {code.field.q}^{k} exceeds {ENUM_GUARD}")
    return k


def _codeword_bitmasks(code: LinearCode) -> np.ndarray:
    """All codewords of a binary code with n <= 64, as uint64 bitmasks.

    Codeword for message index m is the XOR of the generators selected by
    the bits of m; built by doubling in place so index order matches
    message order.  Bit i of a mask is coordinate i, as in `vector_index`.
    """
    assert code.field.q == 2 and code.n <= 64
    k = code.dimension
    packed = np.packbits(code.generator.T.astype(np.uint8), axis=1, bitorder="little")
    words = np.zeros((k, 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    gens = words.view("<u8")[:, 0]
    cws = np.empty(1 << k, dtype=np.uint64)
    cws[0] = 0
    for j in range(k):
        np.bitwise_xor(cws[:1 << j], gens[j], out=cws[1 << j:2 << j])
    return cws


def _codeword_chunks(code: LinearCode, chunk: int = 1 << 16):
    """Yield (message indices, codewords as rows) over all q^k messages."""
    k = _check_enum_guard(code)
    q = code.field.q
    total = q ** k
    gen_t = code.generator.T
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        yield idx, linalg.matmul(code.field, linalg.index_vector(idx, k, q), gen_t)


def enumerate_codewords(code: LinearCode, chunk: int = 1 << 16) -> Iterator[np.ndarray]:
    """Yield all q^k codewords in message order."""
    for _, cws in _codeword_chunks(code, chunk):
        yield from cws


def _codeword_weights(code: LinearCode, chunk: int = 1 << 16):
    """Yield (message index array, weight array) over all codewords."""
    if code.field.q == 2 and code.n <= 64:
        _check_enum_guard(code)
        cws = _codeword_bitmasks(code)
        yield np.arange(cws.size), np.bitwise_count(cws)
        return
    for idx, cws in _codeword_chunks(code, chunk):
        yield idx, np.count_nonzero(cws, axis=1)


def min_distance(code: LinearCode) -> tuple[float, np.ndarray]:
    """Minimum relative weight of a nonzero codeword, with a witness."""
    if code.dimension == 0:
        return 1.0, np.zeros(code.n, dtype=np.int64)
    best_w, best_idx = code.n + 1, 0
    for idx, w in _codeword_weights(code):
        nz = idx != 0
        if np.any(nz):
            j = int(np.argmin(np.where(nz, w, code.n + 1)))
            if w[j] < best_w and idx[j] != 0:
                best_w, best_idx = int(w[j]), int(idx[j])
    msg = linalg.index_vector(best_idx, code.dimension, code.field.q)
    return best_w / code.n, linalg.matmul(code.field, code.generator, msg)


def has_codeword_of_weight(code: LinearCode, weight: int) -> bool:
    """Exhaustively check for a codeword of exact Hamming weight."""
    for idx, w in _codeword_weights(code):
        hits = (w == weight) & (idx != 0)
        if np.any(hits):
            return True
    return False


def list_size_at(code: LinearCode, center: np.ndarray, alpha: float) -> int:
    """Exact count of codewords within relative distance alpha of center."""
    center = np.asarray(center, dtype=np.int64)
    if center.shape != (code.n,):
        raise LengthMismatch(f"center length {center.shape} vs n={code.n}")
    _check_enum_guard(code)
    radius = int(np.floor(alpha * code.n + 1e-9))
    if code.field.q == 2 and code.n <= 64:
        cws = _codeword_bitmasks(code)
        c = np.uint64(linalg.vector_index(center, 2))
        return int(np.count_nonzero(np.bitwise_count(cws ^ c) <= radius))
    count = 0
    for cw in enumerate_codewords(code):
        if np.count_nonzero(cw != center) <= radius:
            count += 1
    return count


@dataclass
class ListSizeResult:
    max_list_size: int
    worst_center: np.ndarray
    exhaustive: bool


def _ball_difference_indices(fld: Field, n: int, radius: int) -> np.ndarray:
    """Indices of all vectors of weight <= radius in F_q^n."""
    from itertools import combinations, product

    q = fld.q
    out = [0]
    for w in range(1, radius + 1):
        for pos in combinations(range(n), w):
            for vals in product(range(1, q), repeat=w):
                idx = 0
                for p_, v_ in zip(pos, vals):
                    idx += v_ * q ** p_
                out.append(idx)
    return np.array(out, dtype=np.int64)


def max_list_size(
    code: LinearCode,
    alpha: float,
    center_budget: Optional[int] = None,
    seed: int = 0,
) -> ListSizeResult:
    """Max codeword count over Hamming balls of relative radius alpha.

    Exhaustive over all q^n centers when q^n <= 2^24; otherwise a
    center-sampling budget must be supplied and the result is a lower
    bound (exhaustive=False).
    """
    q = code.field.q
    radius = int(np.floor(alpha * code.n + 1e-9))
    if q ** code.n <= ENUM_GUARD:
        _check_enum_guard(code)
        counts = np.zeros(q ** code.n, dtype=np.int64)
        diffs = _ball_difference_indices(code.field, code.n, radius)
        if q == 2:
            cw_idx = np.array(
                [linalg.vector_index(cw, 2) for cw in enumerate_codewords(code)],
                dtype=np.int64,
            )
            for d in diffs:
                np.add.at(counts, cw_idx ^ d, 1)
        else:
            diff_vecs = linalg.index_vector(diffs, code.n, q)
            powers = q ** np.arange(code.n, dtype=np.int64)
            for cw in enumerate_codewords(code):
                centers = code.field.add(cw[None, :], diff_vecs)
                np.add.at(counts, centers @ powers, 1)
        worst = int(np.argmax(counts))
        return ListSizeResult(
            int(counts[worst]),
            linalg.index_vector(worst, code.n, q),
            exhaustive=True,
        )
    if center_budget is None:
        raise CodeTooLarge(
            f"q^n = {q}^{code.n} exceeds {ENUM_GUARD}; supply a center budget"
        )
    rng = make_rng(seed)
    best, best_center = -1, None
    for _ in range(center_budget):
        center = rng.integers(0, q, size=code.n).astype(np.int64)
        l_ = list_size_at(code, center, alpha)
        if l_ > best:
            best, best_center = l_, center
    return ListSizeResult(best, best_center, exhaustive=False)


# ---------------------------------------------------------------------------
# Monte Carlo containment estimators


def mc_rlc_contains(
    m: np.ndarray,
    rate: Fraction,
    fld: Field,
    trials: int,
    seed: int,
    chunk: int = 1 << 12,
) -> float:
    """Fraction of random linear codes (over `trials` seeds) containing M.

    A fresh uniform parity-check matrix is drawn per trial and M is
    contained iff H.M = 0; trials are batched `chunk` at a time.
    """
    m = np.asarray(m, dtype=np.int64)
    n, ell = m.shape
    rows = int((1 - Fraction(rate)) * n)
    rng = make_rng(seed)
    hits = 0
    for start in range(0, trials, chunk):
        b = min(chunk, trials - start)
        hs = rng.integers(0, fld.q, size=(b, rows, n))
        prod = linalg.matmul(fld, hs, m)
        hits += int(np.count_nonzero(~prod.any(axis=(1, 2))))
    return hits / trials


def mc_ldpc_contains(
    m: np.ndarray,
    params: LdpcEnsembleParams,
    trials: int,
    seed: int,
    chunk: int = 1 << 14,
) -> float:
    """Fraction of sampled s-LDPC codes containing M.

    Per layer, M is annihilated iff every check's scaled row sum vanishes;
    the layers of `chunk` trials at a time come from the batched sampler
    that `sample_ldpc` uses, so one trial at `seed` tests exactly the code
    `sample_ldpc(params, seed)`.
    """
    m = np.asarray(m, dtype=np.int64)
    n, ell = m.shape
    if n != params.n:
        raise LengthMismatch(f"M has {n} rows, params.n = {params.n}")
    fld = params.field
    s, blocks = params.s, params.checks_per_layer
    rng = make_rng(seed)
    hits = 0
    for start in range(0, trials, chunk):
        b = min(chunk, trials - start)
        ok = np.ones(b, dtype=bool)
        for perms, scalars in _layer_draws(params, rng, b):
            rows = fld.mul(m[perms], scalars[:, :, None])  # (b, n, ell)
            checks = rows.reshape(b, blocks, s, ell)
            sums = checks[:, :, 0]
            for j in range(1, s):
                sums = fld.add(sums, checks[:, :, j])
            ok &= ~sums.any(axis=(1, 2))
        hits += int(np.count_nonzero(ok))
    return hits / trials
