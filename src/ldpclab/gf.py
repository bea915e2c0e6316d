"""Finite field arithmetic for prime powers q = p^h, q <= 2^16.

Elements are represented as integers in [0, q): the base-p digits of the
integer are the coefficients of the residue polynomial (digit i is the
coefficient of x^i).  Prime fields multiply and add mod p directly;
extension fields multiply through log/antilog tables built from a fixed
generator and add digit-wise mod p (XOR when p = 2).  The trace map and
the additive characters needed for Fourier analysis are precomputed at
construction.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import FieldTooLarge, NonPrime, PreconditionError

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
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p) if m[-1] != 1 else 1
    while len(a) - 1 >= dm and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < dm:
            break
        factor = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
    return _poly_trim(a)


def _poly_is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        # enumerate monic degree-d polynomials by their p^d lower coefficients
        for code in range(p ** d):
            g = [0] * (d + 1)
            g[d] = 1
            c = code
            for i in range(d):
                g[i] = c % p
                c //= p
            g = tuple(g)
            if not _poly_mod(f, g, p):
                return False
    return True


def _least_irreducible(p: int, h: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree h over F_p.

    Candidates are ordered by the integer encoding of their lower
    coefficients (constant term is the least significant base-p digit), so
    the choice is deterministic.
    """
    for code in range(p ** h):
        f = [0] * (h + 1)
        f[h] = 1
        c = code
        for i in range(h):
            f[i] = c % p
            c //= p
        f = tuple(f)
        if _poly_is_irreducible(f, p):
            return f
    raise RuntimeError(f"no irreducible polynomial of degree {h} over F_{p}")


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


class Field:
    """An immutable F_q with log/antilog tables, trace, and characters."""

    def __init__(self, p: int, h: int):
        if not all(isinstance(x, (int, np.integer)) for x in (p, h)):
            raise PreconditionError(f"p = {p!r} and h = {h!r} must be integers")
        if h < 1:
            raise PreconditionError(f"extension degree must be >= 1, got {h}")
        if not _is_prime(p):
            raise NonPrime(f"{p} is not prime")
        q = p ** h
        if q > MAX_Q:
            raise FieldTooLarge(f"q = {p}^{h} = {q} exceeds {MAX_Q}")
        self.p = p
        self.h = h
        self.q = q
        self.modulus: tuple[int, ...] = () if h == 1 else _least_irreducible(p, h)
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

    def _element_order(self, g: int) -> int:
        x, k = g, 1
        while x != 1:
            x = self._mul_schoolbook(x, g)
            k += 1
            if k > self.q:
                raise RuntimeError("order computation ran away")
        return k

    def _build_tables(self) -> None:
        q = self.q
        gen = next(g for g in range(1, q) if self._element_order(g) == q - 1)
        exp = np.zeros(q - 1, dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = self._mul_schoolbook(x, gen)
        self.generator = gen
        self._exp = exp
        self._log = log

    def _build_trace(self) -> None:
        tr = np.zeros(self.q, dtype=np.int64)
        for a in range(1, self.q):
            acc, x = 0, a
            for _ in range(self.h):
                acc = self.add(acc, x)
                x = self._pow_schoolbook(x, self.p)
            # trace lands in the prime subfield: its encoding is a digit < p
            assert acc < self.p
            tr[a] = acc
        self._trace = tr

    def _pow_schoolbook(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_schoolbook(r, a)
            a = self._mul_schoolbook(a, a)
            e >>= 1
        return r

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
                raise RuntimeError(f"table/schoolbook mismatch at ({a}, {b})")

    # -- arithmetic (accepts ints or numpy integer arrays) --

    def add(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else a ^ b
        if self.h == 1:
            return (a + b) % self.p
        a = np.asarray(a)
        b = np.asarray(b)
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
        pk = 1
        for _ in range(self.h):
            out += (((a // pk) % self.p + (b // pk) % self.p) % self.p) * pk
            pk *= self.p
        return out if out.shape else int(out)

    def neg(self, a):
        if self.p == 2:
            return a
        if self.h == 1:
            return (-np.asarray(a)) % self.p if isinstance(a, np.ndarray) else (-a) % self.p
        a = np.asarray(a)
        out = np.zeros(a.shape, dtype=np.int64)
        pk = 1
        for _ in range(self.h):
            out += ((-((a // pk) % self.p)) % self.p) * pk
            pk *= self.p
        return out if out.shape else int(out)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        scalar = not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray))
        if self.h == 1:
            if scalar:
                return int(a) * int(b) % self.p
            return np.multiply(a, b, dtype=np.int64) % self.p
        a = np.asarray(a)
        b = np.asarray(b)
        nz = (a != 0) & (b != 0)
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
        if np.any(nz):
            la = self._log[np.broadcast_to(a, out.shape)[nz]]
            lb = self._log[np.broadcast_to(b, out.shape)[nz]]
            out[nz] = self._exp[(la + lb) % (self.q - 1)]
        return int(out) if scalar else out

    def inv(self, a):
        scalar = not isinstance(a, np.ndarray)
        a = np.asarray(a)
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of 0 in F_q")
        out = self._exp[(-self._log[a]) % (self.q - 1)]
        return int(out) if scalar else out

    def dot(self, u, v) -> int:
        """Inner product <u, v> of two equal-length vectors."""
        prods = self.mul(np.asarray(u), np.asarray(v))
        acc = 0
        for x in np.atleast_1d(prods):
            acc = self.add(acc, int(x))
        return acc

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

    def elements(self) -> range:
        return range(self.q)

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
    key = (p, h)
    if key not in _field_cache:
        _field_cache[key] = Field(p, h)
    return _field_cache[key]
