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
import math
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
    PreconditionViolated,
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
        if self.s < 1 or self.n % self.s != 0:
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
    """Yield (first message index, codewords as rows) over all q^k messages."""
    k = _check_enum_guard(code)
    q = code.field.q
    total = q ** k
    gen_t = code.generator.T
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        yield start, linalg.matmul(code.field, linalg.index_vector(idx, k, q), gen_t)


def enumerate_codewords(code: LinearCode, chunk: int = 1 << 16) -> Iterator[np.ndarray]:
    """Yield all q^k codewords in message order."""
    for _, cws in _codeword_chunks(code, chunk):
        yield from cws


def _codeword_weights(code: LinearCode, chunk: int = 1 << 16):
    """Yield (message index of the first weight, weights) over the nonzero
    codewords, in message order; message 0 is the zero codeword."""
    if code.field.q == 2 and code.n <= 64:
        _check_enum_guard(code)
        yield 1, np.bitwise_count(_codeword_bitmasks(code)[1:])
        return
    for start, cws in _codeword_chunks(code, chunk):
        w = np.count_nonzero(cws, axis=1)
        yield (1, w[1:]) if start == 0 else (start, w)


def min_distance(code: LinearCode) -> tuple[float, np.ndarray]:
    """Minimum relative weight of a nonzero codeword, with a witness."""
    if code.dimension == 0:
        return 1.0, np.zeros(code.n, dtype=np.int64)
    best_w, best_idx = code.n + 1, 0
    for start, w in _codeword_weights(code):
        if w.size:
            j = int(np.argmin(w))
            if w[j] < best_w:
                best_w, best_idx = int(w[j]), start + j
    msg = linalg.index_vector(best_idx, code.dimension, code.field.q)
    return best_w / code.n, linalg.matmul(code.field, code.generator, msg)


def has_codeword_of_weight(code: LinearCode, weight: int) -> bool:
    """Exhaustively check for a nonzero codeword of exact Hamming weight."""
    return any(np.any(w == weight) for _, w in _codeword_weights(code))


@dataclass
class ListSizeResult:
    max_list_size: int
    worst_center: np.ndarray


def _ball_vectors(comb: np.ndarray, q: int, w: int, ranks: np.ndarray):
    """Positions and units of the weight-w ball vectors with these ranks.

    Rank i takes unit tuple i % (q-1)^w (digits 1..q-1 in `index_vector`
    order) on position combination i // (q-1)^w, the combinations in
    colexicographic order.  A combination is decoded by the combinatorial
    number system: its largest position c is the largest with
    C(c, w) <= rank, and so on down; `comb[c, j]` is C(c, j).
    """
    rest, unit = np.divmod(ranks, (q - 1) ** w)
    positions = np.empty((ranks.size, w), dtype=np.int64)
    for j in range(w, 0, -1):
        c = np.searchsorted(comb[:, j], rest, side="right") - 1
        positions[:, j - 1] = c
        rest = rest - comb[c, j]
    return positions, linalg.index_vector(unit, w, q - 1) + 1


def max_list_size(code: LinearCode, alpha: float) -> ListSizeResult:
    """Exact max codeword count over Hamming balls of relative radius alpha.

    The list at a center x holds the codewords c with e = x - c in
    Ball(0, r), and then He = Hx; so it has as many codewords as the ball
    has vectors e with syndrome Hx.  The worst list size is the largest
    number of ball vectors sharing one syndrome, and any of those vectors
    is a worst center.  The ball is walked by weight, then position
    combination, then unit tuple, about 2^16 vectors at a time; each
    syndrome is a field sum of w scaled columns of H, packed into bytes as
    bit planes, and one `np.unique` counts them.  The worst center returned
    is the first ball vector in walk order with a most frequent syndrome.
    """
    if not 0 <= alpha <= 1:
        raise PreconditionViolated(f"alpha must lie in [0, 1], got {alpha}")
    fld, n, chunk = code.field, code.n, 1 << 16
    q = fld.q
    radius = int(np.floor(alpha * n + 1e-9))
    sizes = [math.comb(n, w) * (q - 1) ** w for w in range(radius + 1)]
    if sum(sizes) > ENUM_GUARD:
        raise CodeTooLarge(f"the radius-{radius} ball has {sum(sizes)} vectors, "
                           f"more than {ENUM_GUARD}")
    comb = np.array([[math.comb(c, j) for j in range(radius + 1)] for c in range(n)],
                    dtype=np.int64)
    ht = code.h.T
    planes = range((q - 1).bit_length())
    keys = []
    for w, size in enumerate(sizes):
        for start in range(0, size, chunk):
            ranks = np.arange(start, min(start + chunk, size))
            positions, units = _ball_vectors(comb, q, w, ranks)
            syn = np.zeros((ranks.size, ht.shape[1]), dtype=np.int64)
            for j in range(w):
                syn = fld.add(syn, fld.mul(ht[positions[:, j]], units[:, j, None]))
            keys.append(np.packbits(np.hstack([(syn >> b) & 1 for b in planes]), axis=1))
    _, first, counts = np.unique(np.concatenate(keys), axis=0,
                                 return_index=True, return_counts=True)
    worst = int(first[counts == counts.max()].min())
    offsets = np.cumsum(sizes)
    w = int(np.searchsorted(offsets, worst, side="right"))
    positions, units = _ball_vectors(comb, q, w, np.array([worst - offsets[w] + sizes[w]]))
    center = np.zeros(n, dtype=np.int64)
    center[positions[0]] = units[0]
    return ListSizeResult(int(counts.max()), center)


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
