"""Finite field arithmetic for prime powers q = p^h, q <= 2^16.

Elements are represented as integers in [0, q): the base-p digits of the
integer are the coefficients of the residue polynomial (digit i is the
coefficient of x^i).  Every field, prime or not, multiplies by one gather
through log/antilog tables built from a fixed generator, padded so that
zero needs no mask.  Prime fields add mod p, extension fields digit-wise
mod p (XOR when p = 2).  The trace map, with Frobenius read off those
tables, and the additive characters are precomputed at construction.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import NumericError, PreconditionError

MAX_Q = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# Schoolbook polynomial arithmetic over F_p.  Polynomials are tuples of
# coefficients, lowest degree first, with no trailing zeros.

def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a mod m over F_p for a monic m: the trial divisors and the modulus."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < dm:
            break
        factor = a[-1]
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
    return _poly_trim(a)


def _poly_is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        # monic degree-d polynomials, indexed by their p^d lower coefficients
        for code in range(p ** d):
            if not _poly_mod(f, _int_to_poly(code + p ** d, p), p):
                return False
    return True


def _least_irreducible(p: int, h: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree h over F_p.

    Candidates are ordered by the integer encoding of their lower
    coefficients (constant term is the least significant base-p digit), so
    the choice is deterministic.
    """
    for code in range(p ** h):
        f = _int_to_poly(code + p ** h, p)
        if _poly_is_irreducible(f, p):
            return f
    raise NumericError(f"no irreducible polynomial of degree {h} over F_{p}")


def _int_to_poly(e: int, p: int) -> tuple[int, ...]:
    c = []
    while e:
        c.append(e % p)
        e //= p
    return tuple(c)


def _poly_to_int(f: tuple[int, ...], p: int) -> int:
    e = 0
    for c in reversed(f):
        e = e * p + c
    return e


def _check_integers(p, h) -> None:
    """Refuse a p or h that is not an integer, a bool included (True == 1)."""
    if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in (p, h)):
        raise PreconditionError(f"p = {p!r} and h = {h!r} must be integers")


class Field:
    """An immutable F_q with log/antilog tables, trace, and characters."""

    def __init__(self, p: int, h: int):
        _check_integers(p, h)
        if h < 1:
            raise PreconditionError(f"extension degree must be >= 1, got {h}")
        if p > MAX_Q or (p >= 2 and h > 16):  # then p^h > MAX_Q: refused before a primality test
            raise PreconditionError(f"q = {p}^{h} exceeds {MAX_Q}")
        if not _is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        q = p ** h
        if q > MAX_Q:
            raise PreconditionError(f"q = {p}^{h} = {q} exceeds {MAX_Q}")
        self.p, self.h, self.q = p, h, q
        self.modulus: tuple[int, ...] = () if h == 1 else _least_irreducible(p, h)
        if p != 2 and h > 1:
            # for add: digit i of element e is _digits[e, i]; _powers re-encodes digits
            self._powers = p ** np.arange(h)
            self._digits = np.arange(q)[:, None] // self._powers % p
        self._build_tables()
        self._build_trace()
        self._char_roots = np.array(
            [cmath.exp(2j * cmath.pi * k / p) for k in range(p)], dtype=np.complex128
        )
        self._verify()

    # -- construction helpers --

    def _mul_schoolbook(self, a: int, b: int) -> int:
        if self.h == 1:
            return (a * b) % self.p
        prod = _poly_mul(_int_to_poly(a, self.p), _int_to_poly(b, self.p), self.p)
        return _poly_to_int(_poly_mod(prod, self.modulus, self.p), self.p)

    def _pow_schoolbook(self, a: int, e: int) -> int:
        """a^e by square-and-multiply on schoolbook products."""
        out = 1
        while e:
            if e & 1:
                out = self._mul_schoolbook(out, a)
            a = self._mul_schoolbook(a, a)
            e >>= 1
        return out

    def _build_tables(self) -> None:
        """The generator is the first g = 1, 2, ... of order q - 1, that is
        with g^((q-1)/r) != 1 for every prime r | q - 1; its one walk of
        q - 1 powers is the antilog table `_exp`.

        log 0 is 2(q - 1), past every sum of two unit logs, and `_exp_pad`
        holds the walk twice and then zeros up to index 4(q - 1), so
        `_exp_pad[log a + log b]` is a*b for every pair, zero included."""
        q = self.q
        primes = [r for r in range(2, q) if (q - 1) % r == 0 and _is_prime(r)]
        g = next(g for g in range(1, q)
                 if all(self._pow_schoolbook(g, (q - 1) // r) != 1 for r in primes))
        exp, x = [1], g
        for _ in range(q - 2):
            exp.append(x)
            x = self._mul_schoolbook(x, g)
        if x != 1:
            raise NumericError(f"generator {g} has order other than {q - 1}")
        self.generator = g
        self._exp_pad = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
        self._exp_pad[:2 * (q - 1)] = exp + exp  # the walk, twice
        self._exp = self._exp_pad[:q - 1]
        self._log = np.full(q, 2 * (q - 1), dtype=np.int64)
        self._log[self._exp] = np.arange(q - 1)

    def _build_trace(self) -> None:
        """tr(a) = sum of a^(p^i), i < h, with Frobenius read off the tables."""
        q = self.q
        x = np.arange(q)
        tr = np.zeros(q, dtype=np.int64)
        for _ in range(self.h):
            tr = self.add(tr, x)
            x[1:] = self._exp[self.p * self._log[x[1:]] % (q - 1)]
        # trace lands in the prime subfield: its encoding is a digit < p
        assert (tr < self.p).all()
        self._trace = tr

    def _verify(self) -> None:
        """Cross-check table multiplication against schoolbook arithmetic."""
        if self.q <= 64:
            pairs = [(a, b) for a in range(self.q) for b in range(self.q)]
        else:
            rng = np.random.default_rng(0)
            pairs = zip(
                rng.integers(0, self.q, 512).tolist(),
                rng.integers(0, self.q, 512).tolist(),
            )
        for a, b in pairs:
            if self.mul(a, b) != self._mul_schoolbook(a, b):
                raise NumericError(f"table/schoolbook mismatch at ({a}, {b})")

    # -- arithmetic (accepts ints or numpy integer arrays) --

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if self.h == 1:
            return (a + b) % self.p
        out = (self._digits[a] + self._digits[b]) % self.p @ self._powers
        return out if out.shape else int(out)

    def neg(self, a):
        # p - 1 encodes -1 of the prime subfield
        return a if self.p == 2 else self.mul(a, self.p - 1)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        out = self._exp_pad[self._log[a] + self._log[b]]
        return out if out.shape else int(out)

    def inv(self, a):
        scalar = not isinstance(a, np.ndarray)
        a = np.asarray(a)
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of 0 in F_q")
        out = self._exp[(-self._log[a]) % (self.q - 1)]
        return int(out) if scalar else out

    # -- trace and characters --

    def trace(self, a):
        """Trace to F_p: a + a^p + ... + a^(p^(h-1)), encoded in [0, p)."""
        if isinstance(a, np.ndarray):
            return self._trace[a]
        return int(self._trace[a])

    def character(self, x, y):
        """chi_x(y) = omega_p^trace(x*y), a complex unit (1 when x = 0)."""
        return self._char_roots[self.trace(self.mul(x, y))]

    # -- misc --

    def units(self) -> range:
        return range(1, self.q)

    def __repr__(self) -> str:
        return f"Field(p={self.p}, h={self.h})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.p, self.h) == (other.p, other.h)

    def __hash__(self) -> int:
        return hash((self.p, self.h))


_field_cache: dict[tuple[int, int], Field] = {}


def field_new(p: int, h: int = 1) -> Field:
    """Construct (or fetch the cached) F_{p^h} with its canonical modulus."""
    _check_integers(p, h)  # before the lookup: (2, True) == (2, 1)
    key = (p, h)
    if key not in _field_cache:
        _field_cache[key] = Field(p, h)
    return _field_cache[key]
