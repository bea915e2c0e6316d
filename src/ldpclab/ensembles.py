"""Random linear and random s-LDPC code samplers, and exact weight analytics.

The LDPC ensemble stacks t = (1-R)*s independent layers; each layer
partitions the n coordinates into n/s parity checks via a uniform
permutation and scales every coordinate by a uniform nonzero element.
Sampling is driven by a counter-based PRNG (numpy Philox keyed on a seed in
[0, 2^128)), so a (params, seed) pair reproduces a code bit-for-bit and
Monte Carlo workers can partition seed space deterministically.

Both Monte Carlo estimators keep the streams of plain numpy draws but not
their cost: they read the bit generator's words themselves, in blocks of
about `linalg.BLOCK_BYTES` bytes, so that memory stays flat in n and in
the trial count.  `_BoundedWords` reads the 32-bit words behind
`integers`, dropping the ones numpy's bounded-integer draw rejects
(u*q mod 2^32 < 2^32 mod q).  One block reader, `_layer_blocks`, yields each
LDPC layer's sort keys (the raw words behind `random`, shifted right by 11)
and its unit words: `sample_ldpc` (one trial) orders the keys by a stable
argsort, and the estimator (many) ranks only M's nonzero rows, by counting
smaller keys or, for many rows, by one stable argsort, and decodes units
only at their slots.  The RLC estimator tests only the columns of H that
M's nonzero rows meet: over F_2 by the XOR of their words, over F_p by
exact float sums.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import linalg
from .errors import CodeTooLarge, MalformedInput, PreconditionError
from .gf import Field, field_new

ENUM_GUARD = 1 << 24
LDPC_CHUNK = 1 << 14  # LDPC Monte Carlo trials per batch; fixes LDPC's stream


def make_rng(seed: int) -> np.random.Generator:
    """The Philox stream keyed on `seed`, which must be a 128-bit key."""
    if not 0 <= seed < 1 << 128:
        raise PreconditionError(f"seed {seed} is outside [0, 2^128)")
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
            raise PreconditionError(f"rate must be in (0,1), got {self.rate}")
        if self.s < 1 or self.n % self.s != 0:
            raise PreconditionError(f"s={self.s} does not divide n={self.n}")
        t = (1 - self.rate) * self.s
        if t.denominator != 1 or t <= 0:
            raise PreconditionError(
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
            n, s, (num, den), seed = doc["n"], doc["s"], doc["rate"], doc["seed"]
            if not all(type(x) is int for x in (n, s, num, den, seed)):  # a bool is no int here
                raise TypeError(f"n = {n!r}, s = {s!r}, rate = {num!r}/{den!r} "
                                f"and seed = {seed!r} must be integers")
            comma = p ** h > 10
            rows = [[int(c) for c in (row.split(",") if comma else row)]
                    for row in doc["h_rows"]]
            hmat = np.array(rows, dtype=np.int64).reshape(len(rows), n)
            rate = Fraction(num, den)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            raise MalformedInput(f"malformed code JSON: {e!r}") from None
        fld = field_new(p, h)
        if list(fld.modulus) != modulus:
            raise MalformedInput("field modulus mismatch in serialized code")
        return cls(fld, linalg.as_matrix(hmat, fld), s, rate, seed)


def _rlc_rows(n: int, rate: Fraction) -> int:
    """The (1-R)n rows of a random linear code's parity-check matrix."""
    rate = Fraction(rate)
    if not (0 < rate < 1):
        raise PreconditionError(f"rate must be in (0,1), got {rate}")
    if (rate * n).denominator != 1:
        raise PreconditionError(f"R*n = {rate * n} is not an integer")
    return int((1 - rate) * n)


def sample_rlc(n: int, rate: Fraction, fld: Field, seed: int) -> LinearCode:
    """Kernel of a uniformly random (1-R)n x n matrix over F_q."""
    m = _rlc_rows(n, rate)
    rng = make_rng(seed)
    h = rng.integers(0, fld.q, size=(m, n)).astype(np.int64)
    return LinearCode(fld, h, 0, rate, seed)


class _BoundedWords:
    """The 32-bit Philox words that `Generator.integers(low, low + q,
    dtype=np.int64)` turns into draws, read straight from the bit generator.

    For q < 2^32 numpy maps a word u to the draw low + (u*q) >> 32 (Lemire's
    bounded integers), rejecting u when u*q mod 2^32 < 2^32 mod q and
    drawing again from the next word.  Words come from `random_raw`, low
    half first; every fresh word is scanned, since one rejected word
    shifts every later draw, and the rejected ones are dropped (none when
    q is a power of 2, a 2^-32 share for q = 3), so `take` returns the
    accepted words in stream order.  The words read past a call's count
    carry over to the next call, as numpy's buffered half-word does, even
    across other draws from the same bit generator.
    """

    def __init__(self, bitgen: np.random.BitGenerator, q: int):
        self.bitgen, self.q = bitgen, q
        self.threshold = (1 << 32) % q
        self.carry = self.low = np.empty(0, dtype=np.uint32)

    def take(self, count: int) -> np.ndarray:
        words = self.carry
        while len(words) < count:
            raw = self.bitgen.random_raw(-(-(count - len(words)) // 2))
            fresh = raw.astype("<u8", copy=False).view("<u4")
            if self.threshold:
                if len(self.low) < len(fresh):  # reused: a fresh array would fault in
                    self.low = np.empty(len(fresh), dtype=np.uint32)
                # u*q mod 2^32
                low = np.multiply(fresh, np.uint32(self.q), out=self.low[:len(fresh)])
                if low.min() < self.threshold:
                    fresh = fresh[low >= self.threshold]
            words = np.concatenate([words, fresh]) if len(words) else fresh
        self.carry = words[count:].copy()  # not a view that keeps the block alive
        return words[:count]

    def draws(self, words: np.ndarray) -> np.ndarray:
        """The draws (u*q) >> 32 of accepted words u, before adding low."""
        return (words * np.uint64(self.q) >> 32).view(np.int64)


def _ahead(bitgen: np.random.Philox, words: int) -> np.random.Philox:
    """A copy of the Philox bit generator `words` 64-bit words further on.

    Philox buffers the four words of one counter value; `advance(k)`
    skips k counter values and empties the buffer."""
    ahead = np.random.Philox(key=0)
    ahead.state = state = bitgen.state
    buffered = 4 - state["buffer_pos"]
    if words > buffered:
        ahead.advance((words - buffered) // 4)
        words = (words - buffered) % 4
    ahead.random_raw(words)
    return ahead


def _layer_blocks(params: LdpcEnsembleParams, units: _BoundedWords, trials: int):
    """Yield the t layers of `trials` codes in blocks of `linalg.BLOCK_BYTES`
    bytes of keys, as (layer, first trial, keys, unit words): the keys as
    (n, trials) uint64 rows, one per coordinate, the unit words as (trials, n).

    The stream is that of `rng.random(size=(trials, n))` and then
    `rng.integers(1, q, size=(trials, n))` per layer, where rng owns
    `units.bitgen`.  A double from `random` is (w >> 11) 2^-53 for a raw
    word w, so the uint64 keys w >> 11 have the doubles' order and ties,
    and the stable argsort of a trial's keys is a uniform permutation of
    [0, n).  The units are 1 + `units.draws` of the unit words; for q = 2
    the only unit is 1, `integers(1, 2)` reads nothing and the words are
    None.  A layer's unit words follow all its keys, so when the layer
    takes several blocks they are read alongside them by a copy of the bit
    generator `_ahead` of the keys, which then reads the next layer's keys.
    Check i of a layer holds the coordinates at slots [i*s, (i+1)*s) of the
    permutation, scaled by the units at those slots.  The keys of a block
    are overwritten by the next.
    """
    n, q = params.n, params.field.q
    step = max(1, min(trials, linalg.BLOCK_BYTES // (8 * n)))
    keys = np.empty((n, step), dtype=np.uint64)  # refilled: a fresh array would fault in
    for layer in range(params.t):
        stream = units.bitgen
        if q > 2 and trials > step:
            units.bitgen = _ahead(stream, trials * n)
        for start in range(0, trials, step):
            count = min(step, trials - start)
            np.right_shift(stream.random_raw(count * n).reshape(count, n).T, 11,
                           out=keys[:, :count])
            yield (layer, start, keys[:, :count],
                   units.take(count * n).reshape(count, n) if q > 2 else None)


def _unit_stream(params: LdpcEnsembleParams, seed: int) -> _BoundedWords:
    """The reader of the LDPC stream at `seed`, units in [1, q)."""
    return _BoundedWords(make_rng(seed).bit_generator, params.field.q - 1)


def sample_ldpc(params: LdpcEnsembleParams, seed: int) -> LinearCode:
    """Stack t independent layers, each a scaled random partition into checks:
    the one-trial blocks of `_layer_blocks`, whose Monte Carlo trials at
    `seed` test exactly this code."""
    n, blocks = params.n, params.checks_per_layer
    h = np.zeros((params.t * blocks, n), dtype=np.int64)
    check = np.arange(n) // params.s  # check of each permuted position
    units = _unit_stream(params, seed)
    for j, _, keys, words in _layer_blocks(params, units, 1):
        h[j * blocks + check, np.argsort(keys[:, 0], kind="stable")] = (
            1 if words is None else 1 + units.draws(words[0]))
    return LinearCode(params.field, h, params.s, params.rate, seed)


def contains(code: LinearCode, v: np.ndarray) -> bool:
    v = np.asarray(v, dtype=np.int64)
    if v.shape != (code.n,):
        raise PreconditionError(f"vector length {v.shape} vs n={code.n}")
    return not np.any(linalg.matmul(code.field, code.h, v))


# ---------------------------------------------------------------------------
# Sums of w selected rows, one weight from the last: the kernel of
# `min_distance` (rows of a systematic generator), `has_codeword_of_weight`
# (rows of the generator) and `max_list_size` (columns of H)


def _pack_gf2(m: np.ndarray) -> np.ndarray:
    """Rows of a 0/1 matrix as little-endian uint64 words, at least one per
    row; bit i of word j is column 64*j + i, as in `vector_index`."""
    packed = np.packbits(m.astype(np.uint8), axis=1, bitorder="little")
    words = np.zeros((m.shape[0], 8 * max(1, -(-m.shape[1] // 64))), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    return words.view("<u8")


def _ball_vector(n: int, q: int, w: int, rank: int) -> np.ndarray:
    """The weight-w vector of F_q^n with this rank, the order in which
    `_level_sums` walks them.

    Rank i takes unit tuple i % (q-1)^w (digits 1..q-1 in `index_vector`
    order, the first on the smallest position) on position combination
    i // (q-1)^w, the combinations in colexicographic order.  A
    combination is decoded by the combinatorial number system: its
    largest position c is the largest with C(c, w) <= rank, and so on down.
    """
    rest, unit = divmod(rank, (q - 1) ** w)
    positions = []
    for j in range(w, 0, -1):
        c = j - 1
        while math.comb(c + 1, j) <= rest:
            c += 1
        rest -= math.comb(c, j)
        positions.insert(0, c)
    v = np.zeros(n, dtype=np.int64)
    v[positions] = linalg.index_vector(unit, w, q - 1) + 1
    return v


def _ball_size(n: int, q: int, w: int) -> int:
    return math.comb(n, w) * (q - 1) ** w


def _unit_multiples(fld: Field, m: np.ndarray) -> np.ndarray:
    """Each unit multiple of each row of m, as (rows, q-1, row) in the form
    `_level_sums` adds: over F_2 the row itself as `_pack_gf2` words."""
    if fld.q == 2:
        return _pack_gf2(m)[:, None, :]
    return fld.mul(m[:, None, :], np.arange(1, fld.q)[None, :, None])


def _zero_sum(multiples: np.ndarray) -> np.ndarray:
    """The one weight-0 sum, the input of `_level_sums` at weight 1."""
    return np.zeros((1,) + multiples.shape[2:], dtype=multiples.dtype)


def _level_sums(fld: Field, multiples: np.ndarray, prev: np.ndarray, w: int):
    """Yield, `linalg.BLOCK_BYTES` bytes at a time, the sum for each weight-w
    vector x of F_q^rows in `_ball_vector` rank order: the x_c multiple of
    row c, summed over the support of x.  `prev` holds the weight w-1 sums.

    In colexicographic order the w-combinations with largest position c
    follow those with a smaller one, and without c they are the first
    C(c, w-1) (w-1)-combinations.  So rank (C(c, w) + r)(q-1)^w +
    d (q-1)^(w-1) + u is row r (q-1)^(w-1) + u of `prev` plus the
    multiple d+1 of row c: one gather and one add per vector.  Over F_2
    the add is an XOR of packed words.  The gathers use `np.take`, which
    copies whole rows, not fancy indexing.
    """
    rows, units = multiples.shape[:2]
    flat = multiples.reshape(rows * units, *multiples.shape[2:])
    big, small = units ** w, units ** (w - 1)
    comb = np.array([math.comb(c, w) for c in range(rows)], dtype=np.int64)
    size = math.comb(rows, w) * big
    chunk = max(1, linalg.BLOCK_BYTES // max(1, prev[:1].nbytes))  # empty H: 0-byte rows
    for start in range(0, size, chunk):
        top, u = np.divmod(np.arange(start, min(start + chunk, size)), big)
        c = np.searchsorted(comb, top, side="right") - 1
        d, u = np.divmod(u, small)
        yield fld.add(np.take(prev, (top - comb[c]) * small + u, axis=0),
                      np.take(flat, c * units + d, axis=0))


def _weights(fld: Field, sums: np.ndarray) -> np.ndarray:
    """Hamming weights of the rows `_level_sums` yields."""
    if fld.q == 2:
        # a column sum per word: a reduction along the short axis is slower
        return sum(np.bitwise_count(sums).T, np.zeros(len(sums), dtype=np.int64))
    return np.count_nonzero(sums, axis=1)


def _levels(fld: Field, m: np.ndarray, radius: int):
    """Walk the radius ball of F_q^rows, rows those of m, for `_level_sums`:
    return the number of its vectors of each weight 0..radius and a
    generator of their sums, weight by weight, each in rank order.  A ball
    of more than ENUM_GUARD vectors is refused here, before the unit
    multiples of m are built.  Each level below the radius is filled into
    a preallocated array, kept while the next weight reads it."""
    sizes = [_ball_size(len(m), fld.q, w) for w in range(radius + 1)]
    if sum(sizes) > ENUM_GUARD:
        raise CodeTooLarge(f"the radius-{radius} ball has {sum(sizes)} vectors, "
                           f"more than {ENUM_GUARD}")
    multiples = _unit_multiples(fld, m)

    def walk():
        prev = _zero_sum(multiples)
        yield prev
        for w, size in enumerate(sizes[1:], 1):
            level = np.empty((size,) + prev.shape[1:], prev.dtype) if w < radius else None
            start = 0
            for sums in _level_sums(fld, multiples, prev, w):
                if level is not None:
                    level[start:start + len(sums)] = sums
                start += len(sums)
                yield sums
            prev = level

    return sizes, walk()


def has_codeword_of_weight(code: LinearCode, weight: int) -> bool:
    """Exhaustively check for a nonzero codeword of exact Hamming weight.

    `kernel_basis` makes the generator the identity on the free columns of
    H, so a codeword of weight w has a message of weight at most w: the
    messages of weight 0..min(w, k) are walked with `_levels` on the rows
    of the generator, up to the first block holding a weight-w codeword.
    """
    if not 0 < weight <= code.n:
        return False  # no nonzero codeword weighs 0 or more than n
    fld, k = code.field, code.dimension
    _, walk = _levels(fld, code.generator.T, min(weight, k))
    return any((_weights(fld, sums) == weight).any() for sums in walk)


def _information_sets(fld: Field, g: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """Systematic generators G_j of the k x n generator g, with ranks r_j.

    Each round row-reduces g with the columns no earlier set covers placed
    first; the r_j pivots that land there are new, the other k - r_j lie
    in earlier sets, so the new parts of the sets are disjoint.  Rounds
    stop when the uncovered columns have rank 0 (only zero coordinates are
    left).  G_j is returned in the original column order.
    """
    covered = np.zeros(g.shape[1], dtype=bool)
    sets = []
    while True:
        free = np.flatnonzero(~covered)
        if not g[:, free].any():
            return sets
        order = np.concatenate([free, np.flatnonzero(covered)])
        r, _, pivots = linalg.rref(fld, g[:, order])
        new = [p for p in pivots if p < free.size]
        gj = np.empty_like(r)
        gj[:, order] = r
        sets.append((gj, len(new)))
        covered[order[new]] = True


def _schedule(k: int, q: int, ranks: list[int]):
    """Yield the Brouwer-Zimmermann steps (set j, message weight v, LB).

    Weights w = 1, 2, ... are taken set by set.  A set joins at the first
    w where it raises LB, and then brings all its weights <= w.  LB is the
    lower bound on every codeword not yet seen once the step is done.
    Before weight w starts, its messages are checked against ENUM_GUARD.
    """
    done = [0] * len(ranks)  # weight through which each set is enumerated
    for w in range(1, k + 1):
        steps = [(j, v) for j, r in enumerate(ranks) if w + 1 > k - r
                 for v in range(done[j] + 1, w + 1)]
        total = sum(_ball_size(k, q, v) for _, v in steps)
        if total > ENUM_GUARD:
            raise CodeTooLarge(f"weight {w} of {len(ranks)} information sets needs "
                               f"{total} messages, more than {ENUM_GUARD}")
        for j, v in steps:
            done[j] = v
            yield j, v, sum(max(0, d + 1 - (k - r)) for d, r in zip(done, ranks))


def min_distance(code: LinearCode) -> tuple[float, np.ndarray]:
    """Minimum relative weight of a nonzero codeword, with a witness.

    Brouwer-Zimmermann enumeration.  Every nonzero codeword is m G_j for
    each systematic generator G_j of `_information_sets`, where m is its
    restriction to the k pivots of G_j.  Once every message of weight
    <= w_j of each G_j is enumerated, a codeword not yet seen has more
    than w_j nonzeros on the pivots of G_j, so at least w_j + 1 - (k - r_j)
    on its r_j new ones; the new parts are disjoint, so the codeword
    weighs at least LB = sum_j max(0, w_j + 1 - (k - r_j)).  `_schedule`
    orders the steps; the search stops once the lightest codeword seen
    weighs at most LB.  If it never does, the last step has enumerated
    every message of G_1.  Each set keeps only the sums of one weight
    below the step, rebuilt from the one before when a step needs them.
    Keeping each level as it is scanned would spare the re-sums, but it
    holds the scanned level whole: the peak would be L(v-1) + L(v) rows
    instead of L(v-2) + 2 L(v-1), over F_2 at k = 32, v = 8 about 111 MB
    instead of 62 MB.
    """
    fld, n, k = code.field, code.n, code.dimension
    if k == 0:
        return 1.0, np.zeros(n, dtype=np.int64)
    sets = _information_sets(fld, code.generator.T)
    multiples = [_unit_multiples(fld, gj) for gj, _ in sets]
    kept = [(0, _zero_sum(m)) for m in multiples]  # (weight, its sums) per set
    best_w, best = n + 1, None
    for j, v, bound in _schedule(k, fld.q, [r for _, r in sets]):
        w, prev = kept[j]
        while w < v - 1:
            w += 1
            prev = np.concatenate(list(_level_sums(fld, multiples[j], prev, w)))
        kept[j] = (w, prev)
        start = 0
        for sums in _level_sums(fld, multiples[j], prev, v):
            weights = _weights(fld, sums)
            i = int(np.argmin(weights))
            if weights[i] < best_w:
                best_w, best = int(weights[i]), (j, v, start + i)
            start += len(sums)
        if best_w <= bound:
            break
    j, v, rank = best
    msg = _ball_vector(k, fld.q, v, rank)
    return best_w / n, linalg.matmul(fld, sets[j][0].T, msg)


@dataclass
class ListSizeResult:
    max_list_size: int
    worst_center: np.ndarray


def _syndrome_keys(fld: Field, syn: np.ndarray) -> np.ndarray:
    """`_level_sums` syndromes as uint64 words, equal iff the syndromes
    are: over F_2 the sums themselves, else their bit planes packed."""
    if fld.q == 2:
        return syn
    planes = range((fld.q - 1).bit_length())
    return _pack_gf2(np.hstack([(syn >> b) & 1 for b in planes]))


def max_list_size(code: LinearCode, alpha: float) -> ListSizeResult:
    """Exact max codeword count over Hamming balls of relative radius alpha.

    The list at a center x holds the codewords c with e = x - c in
    Ball(0, r), and then He = Hx; so it has as many codewords as the ball
    has vectors e with syndrome Hx.  The worst list size is the largest
    number of ball vectors sharing one syndrome, and any of those vectors
    is a worst center.  The ball is walked by weight, then position
    combination, then unit tuple; each weight's syndromes come from the
    last weight's by `_levels`, keyed as uint64 words, and one stable
    sort counts them.  The worst center returned is the first ball vector
    in walk order with a most frequent syndrome.
    """
    if not 0 <= alpha <= 1:
        raise PreconditionError(f"alpha must lie in [0, 1], got {alpha}")
    fld, n = code.field, code.n
    radius = int(np.floor(alpha * n + 1e-9))
    sizes, walk = _levels(fld, code.h.T, radius)
    keys = [_syndrome_keys(fld, syn) for syn in walk]
    count, worst = _most_frequent(np.concatenate(keys))
    offsets = np.cumsum(sizes)
    w = int(np.searchsorted(offsets, worst, side="right"))
    return ListSizeResult(count, _ball_vector(n, fld.q, w, worst - int(offsets[w]) + sizes[w]))


def _most_frequent(keys: np.ndarray) -> tuple[int, int]:
    """The largest multiplicity of a row of `keys`, and the first row index
    holding a row of that multiplicity.  A stable sort makes each run of
    equal rows start at its smallest index."""
    order = np.lexsort(keys.T)
    keys = keys[order]
    change = np.ones(len(keys), dtype=bool)
    change[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    del keys  # free the sorted copy before the run arrays are built
    starts = np.flatnonzero(change)
    counts = np.diff(starts, append=len(change))
    return int(counts.max()), int(order[starts[counts == counts.max()]].min())


# ---------------------------------------------------------------------------
# Monte Carlo containment estimators


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise PreconditionError(f"trials must be at least 1, got {trials}")


def mc_rlc_contains(
    m: np.ndarray,
    rate: Fraction,
    fld: Field,
    trials: int,
    seed: int,
) -> float:
    """Fraction of random linear codes (over `trials` seeds) containing M.

    Trial j draws a uniform (1-R)n x n parity-check matrix H, the j-th in
    `make_rng(seed).integers(0, q, size=(trials, (1-R)n, n))`, and M is
    contained iff H.M = 0.  The words behind those draws (`_BoundedWords`)
    are read in batches of whole trials, `linalg.BLOCK_BYTES` bytes each
    (one trial when H alone is larger), fewer when M has over n/4 nonzero
    rows, so that a batch decodes at most BLOCK_BYTES/16 draws; the stream
    does not depend on the batching.  H.M reads only the columns of H at
    M's nonzero rows, so only those words are tested (`_zero_rows`).
    """
    m = linalg.as_matrix(m, fld)
    n = len(m)
    rows = _rlc_rows(n, rate)
    _check_trials(trials)
    supp = np.flatnonzero(m.any(axis=1))
    words = _BoundedWords(make_rng(seed).bit_generator, fld.q)
    chunk = max(1, linalg.BLOCK_BYTES // (4 * rows * max(n, 4 * len(supp))))
    hits = 0
    for start in range(0, trials, chunk):
        b = min(chunk, trials - start)
        cols = words.take(b * rows * n).reshape(b * rows, n).T[supp]
        zero = _zero_rows(fld, words, cols, m[supp])
        hits += int(np.count_nonzero(zero.reshape(b, rows).all(axis=1)))
    return hits / trials


def _zero_rows(fld: Field, words: _BoundedWords, cols: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """Whether each row of H.M vanishes, for the (rows of M, rows of H)
    accepted words `cols` of H's columns at M's nonzero rows `ms`.

    Over F_2 a draw is the top bit of its word, so column c of H.M is the
    top bit of the XOR of the words that column c of M selects.  Over F_p
    the draws are floor(u p 2^-32), exact in float64, and the column sums
    of H.M before reduction are below n p^2 < 2^53, so one float product
    gives them exactly; a sum S is a multiple of p iff rint(S/p) p = S.
    Over other fields the decoded draws go through `linalg.matmul`.
    """
    if fld.q == 2:
        top = np.zeros(cols.shape[1], dtype=np.uint32)
        for c in ms.T.astype(bool):
            top |= np.bitwise_xor.reduce(cols[c], axis=0)
        return top < 1 << 31
    if fld.h == 1:
        draws = np.multiply(cols, fld.p / 2 ** 32)
        sums = ms.T.astype(np.float64) @ np.floor(draws, out=draws)
        return (np.rint(sums / fld.p) * fld.p == sums).all(axis=0)
    return ~linalg.matmul(fld, words.draws(cols).T, ms).any(axis=1)


def _slots(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Slot of each coordinate in `rows` in the stable argsort of each
    trial's column of the (n, trials) `keys`, as a (rows, trials) array.

    A coordinate's slot is the number of keys below its own, plus the
    equal keys at a lower index: counting costs |rows| n comparisons per
    trial.  One stable argsort of a block costs about as much as counting
    for 7 log2 n rows (2-vCPU x86_64, numpy 2.4.6, n = 24 to 600), so past
    that it ranks every coordinate instead.
    """
    n = len(keys)
    if len(rows) > 7 * n.bit_length():
        order = np.argsort(keys, axis=0, kind="stable")
        inverse = np.empty_like(order)
        np.put_along_axis(inverse, order, np.arange(n)[:, None], axis=0)
        return inverse[rows]
    count = np.min_scalar_type(n)
    return np.array([(keys[:i] <= keys[i]).sum(axis=0, dtype=count)
                     + (keys[i + 1:] < keys[i]).sum(axis=0, dtype=count) for i in rows],
                    dtype=np.intp)


def mc_ldpc_contains(
    m: np.ndarray,
    params: LdpcEnsembleParams,
    trials: int,
    seed: int,
) -> float:
    """Fraction of sampled s-LDPC codes containing M.

    Per layer, M is annihilated iff every check's scaled row sum vanishes.
    The layers of LDPC_CHUNK trials at a time are read in blocks by
    `_layer_blocks`, the sampler of `sample_ldpc`, so one trial at `seed`
    tests exactly the code `sample_ldpc(params, seed)`.  Every block is
    read whole, but only M's nonzero rows and the trials no earlier layer
    rejected are summed: the slot of coordinate i in a trial's permutation
    comes from `_slots`, its unit is decoded from the unit word at that
    slot alone, and its unit multiple of row i goes to check slot // s.
    Memory is that of a block, whatever n and the trial count.
    """
    fld, n, s, checks = params.field, params.n, params.s, params.checks_per_layer
    m = linalg.as_matrix(m, fld)
    if m.shape[0] != n:
        raise PreconditionError(f"M has {m.shape[0]} rows, params.n = {n}")
    _check_trials(trials)
    supp = np.flatnonzero(m.any(axis=1))
    # entry e of unit multiple u+1 of nonzero row j at [j, e, u], in a dtype that
    # holds the sum of two entries; over F_2 the entries are bytes of packed bits
    if fld.q == 2:
        multiples = np.packbits(m[supp].astype(np.uint8), axis=1, bitorder="little")[:, :, None]
    else:
        multiples = (_unit_multiples(fld, m[supp]).transpose(0, 2, 1)
                     .astype(np.min_scalar_type(2 * (fld.q - 1))))
    units = _unit_stream(params, seed)
    hits = 0
    for chunk in range(0, trials, LDPC_CHUNK):
        alive = np.ones(min(LDPC_CHUNK, trials - chunk), dtype=bool)
        for _, start, keys, words in _layer_blocks(params, units, len(alive)):
            trial = np.flatnonzero(alive[start:start + keys.shape[1]])
            if not len(trial):
                continue
            if len(trial) < keys.shape[1]:
                keys = keys[:, trial]
            here = np.arange(len(trial))
            sums = np.zeros((multiples.shape[1], checks * len(trial)), dtype=multiples.dtype)
            for row, slot in zip(multiples, _slots(keys, supp)):
                unit = 0 if words is None else units.draws(np.take(words, trial * n + slot))
                at = slot // s * len(trial) + here
                for total, entry in zip(sums, row):
                    total[at] = fld.add(total[at], entry[unit])
            dead = sums.reshape(-1, len(trial)).any(axis=0)
            alive[start + trial[dead]] = False
        hits += int(np.count_nonzero(alive))
    return hits / trials
