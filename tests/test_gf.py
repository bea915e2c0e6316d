import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpclab.errors import PreconditionError
from ldpclab.gf import Field, field_new

FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (13, 1), (2, 2), (2, 3), (2, 4), (3, 2), (5, 2)]


@pytest.mark.parametrize("p,h", FIELDS)
def test_field_axioms(p, h):
    f = field_new(p, h)
    rng = np.random.default_rng(0)
    a = rng.integers(0, f.q, 64)
    b = rng.integers(0, f.q, 64)
    c = rng.integers(0, f.q, 64)
    assert np.array_equal(f.add(a, b), f.add(b, a))
    assert np.array_equal(f.add(f.add(a, b), c), f.add(a, f.add(b, c)))
    assert np.array_equal(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)))
    # distributivity
    assert np.array_equal(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)))
    # inverses
    nz = a[a != 0]
    assert np.all(f.mul(nz, f.inv(nz)) == 1)
    assert np.all(f.add(a, f.neg(a)) == 0)


@pytest.mark.parametrize("p,h", [(p, h) for p, h in FIELDS if p ** h <= 64])
def test_character_orthogonality(p, h):
    f = field_new(p, h)
    for x in range(f.q):
        s = sum(f.character(x, y) for y in range(f.q))
        expect = f.q if x == 0 else 0.0
        assert abs(s - expect) < 1e-9


@pytest.mark.parametrize("p,h", [(2, 2), (2, 4), (3, 2), (5, 2)])
def test_trace_additive_and_into_prime_field(p, h):
    f = field_new(p, h)
    for a in range(f.q):
        assert 0 <= f.trace(a) < p
    rng = np.random.default_rng(1)
    a = rng.integers(0, f.q, 50)
    b = rng.integers(0, f.q, 50)
    assert np.array_equal(f.trace(f.add(a, b)), (f.trace(a) + f.trace(b)) % p)
    # trace is onto F_p (not identically zero)
    assert set(int(f.trace(a)) for a in range(f.q)) == set(range(p))


def digit_add(p, h, a, b):
    """Digit-wise sum mod p of the base-p encodings, one digit at a time."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    pk = 1
    for _ in range(h):
        out += (((a // pk) % p + (b // pk) % p) % p) * pk
        pk *= p
    return out


def digit_neg(p, h, a):
    a = np.asarray(a)
    out = np.zeros(a.shape, dtype=np.int64)
    pk = 1
    for _ in range(h):
        out += ((-((a // pk) % p)) % p) * pk
        pk *= p
    return out


def trace_by_definition(f, a):
    """a + a^p + ... + a^(p^(h-1)), each power by schoolbook products."""
    acc, x = 0, a
    for i in range(f.h):
        acc = int(digit_add(f.p, f.h, acc, x))
        if i + 1 < f.h:
            y = 1
            for _ in range(f.p):
                y = f._mul_schoolbook(y, x)
            x = y
    return acc


TRACE_FIELDS = FIELDS + [(3, 3), (7, 2), (2, 8), (3, 4), (5, 3), (11, 2), (13, 2), (251, 1)]


@pytest.mark.parametrize("p,h", TRACE_FIELDS)
def test_trace_matches_definition(p, h):
    f = field_new(p, h)
    assert f.trace(np.arange(f.q)).tolist() == [trace_by_definition(f, a) for a in range(f.q)]


@pytest.mark.parametrize("p,h", [(2, 12), (3, 5), (2, 16)])
def test_trace_matches_definition_sampled(p, h):
    # (2, 16) is MAX_Q: the largest field must build, tables and trace
    f = field_new(p, h)
    for a in np.random.default_rng(2).integers(0, f.q, 256).tolist():
        assert f.trace(a) == trace_by_definition(f, a)


@pytest.mark.parametrize("p,h", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4)])
def test_extension_add_neg_sub_match_digit_loops(p, h):
    f = field_new(p, h)
    a = np.repeat(np.arange(f.q), f.q)
    b = np.tile(np.arange(f.q), f.q)
    assert np.array_equal(f.add(a, b), digit_add(p, h, a, b))
    assert np.array_equal(f.neg(a), digit_neg(p, h, a))
    assert np.array_equal(f.sub(a, b), digit_add(p, h, a, digit_neg(p, h, b)))
    grid = np.arange(f.q).reshape(p, -1)  # broadcasting against a row
    assert np.array_equal(f.add(grid, grid[0]), digit_add(p, h, grid, grid[0]))
    for x, y in zip(a[::97].tolist(), b[::97].tolist()):
        for got, want in ((f.add(x, y), digit_add(p, h, x, y)),
                          (f.neg(x), digit_neg(p, h, x)),
                          (f.sub(x, y), digit_add(p, h, x, digit_neg(p, h, y)))):
            assert type(got) is int and got == int(want)


PROPERTY_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (251, 1), (65521, 1),
                   (2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (3, 3), (2, 16), (3, 10)]


@st.composite
def operand_pair(draw, q):
    """Two operands, zero drawn often, as Python ints, numpy scalars, 0-d
    arrays, a (k, 1) column against a (1, m) row, or a scalar and an array."""
    entry = st.one_of(st.just(0), st.integers(0, q - 1))
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def grid(*shape):
        cells = draw(st.lists(entry, min_size=math.prod(shape), max_size=math.prod(shape)))
        return np.array(cells, dtype=np.int64).reshape(shape)

    a, b = draw(entry), draw(entry)
    return draw(st.sampled_from([
        (a, b), (np.int64(a), b), (np.array(a), np.array(b)),
        (grid(k, 1), grid(1, m)), (a, grid(k, m)), (grid(k, m), np.int64(b)),
    ]))


def elementwise(fn, *operands):
    """fn on each entry of the broadcast operands, as an int64 array."""
    xs = np.broadcast_arrays(*(np.asarray(x, dtype=np.int64) for x in operands))
    out = [fn(*map(int, entries)) for entries in zip(*(x.ravel() for x in xs))]
    return np.array(out, dtype=np.int64).reshape(xs[0].shape)


def assert_form(got, shape, *operands):
    """An int64 array of the broadcast shape; a Python int when every
    operand is one."""
    assert np.shape(got) == shape and np.asarray(got).dtype == np.int64
    if shape:
        assert isinstance(got, np.ndarray)
    elif all(type(x) is int for x in operands):
        assert type(got) is int


@pytest.mark.parametrize("p,h", PROPERTY_FIELDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_schoolbook(p, h, data):
    f = field_new(p, h)
    a, b = data.draw(operand_pair(f.q))
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    product = f.mul(a, b)
    assert_form(product, shape, a, b)
    assert np.array_equal(product, elementwise(f._mul_schoolbook, a, b))
    if not shape:
        assert type(product) is int
    minus_b = f.neg(b)
    schoolbook_minus_b = elementwise(lambda x: f._mul_schoolbook(x, p - 1), b)
    assert_form(minus_b, np.shape(b), b)
    assert np.array_equal(minus_b, schoolbook_minus_b)
    assert np.array_equal(minus_b, digit_neg(p, h, b))
    difference = f.sub(a, b)
    assert_form(difference, shape, a, b)
    assert np.array_equal(difference, digit_add(p, h, a, schoolbook_minus_b))
    if np.any(np.asarray(a) == 0):
        with pytest.raises(ZeroDivisionError):
            f.inv(a)
    else:
        inverse = f.inv(a)
        assert_form(inverse, np.shape(a), a)
        assert (elementwise(f._mul_schoolbook, a, inverse) == 1).all()


def test_canonical_moduli():
    # least monic irreducible, constant coefficient least significant
    assert field_new(2, 2).modulus == (1, 1, 1)        # 1 + x + x^2
    assert field_new(2, 3).modulus == (1, 1, 0, 1)     # 1 + x + x^3
    assert field_new(2, 4).modulus == (1, 1, 0, 0, 1)  # 1 + x + x^4
    assert field_new(3, 2).modulus == (1, 0, 1)        # 1 + x^2
    assert field_new(2, 1).modulus == ()


def test_generator_order():
    for p, h in FIELDS:
        f = field_new(p, h)
        x, seen = 1, set()
        for _ in range(f.q - 1):
            seen.add(x)
            x = f.mul(x, f.generator)
        assert len(seen) == f.q - 1


def generator_by_full_walk(f):
    """The first g = 1, 2, ... whose schoolbook powers reach order q - 1,
    found by walking every candidate's powers, with that walk."""
    for g in range(1, f.q):
        exp, x = [1], g
        while x != 1:
            exp.append(x)
            x = f._mul_schoolbook(x, g)
        if len(exp) == f.q - 1:
            return g, exp
    raise AssertionError("no generator")


@pytest.mark.parametrize("p,h", TRACE_FIELDS + [(2, 10), (3, 6), (17, 1), (257, 1)])
def test_generator_matches_full_walk(p, h):
    f = field_new(p, h)
    g, exp = generator_by_full_walk(f)
    assert f.generator == g
    assert f._exp.tolist() == exp


def test_construction_errors():
    with pytest.raises(PreconditionError, match="4 is not prime"):
        Field(4, 1)
    with pytest.raises(PreconditionError, match="1 is not prime"):
        Field(1, 1)
    with pytest.raises(PreconditionError, match="^1 is not prime$"):
        Field(1, 17)
    with pytest.raises(PreconditionError, match="^0 is not prime$"):
        Field(0, 20)
    with pytest.raises(PreconditionError, match="exceeds 65536"):
        Field(2, 17)
    with pytest.raises(PreconditionError):
        Field(2, 0)
    with pytest.raises(PreconditionError):
        Field("2", 1)  # as read from a malformed input file


@pytest.mark.parametrize("p,h", [(2, True), (3, True), (True, 1), (np.int64(2), False)])
def test_bool_is_not_an_integer(p, h):
    # (2, True) == (2, 1): the cache lookup alone would return F_2
    field_new(2, 1)
    for make in (field_new, Field):
        with pytest.raises(PreconditionError, match="must be integers"):
            make(p, h)


def test_scalar_vs_array_consistency():
    f = field_new(3, 2)
    for a in range(f.q):
        for b in range(0, f.q, 3):
            arr = f.mul(np.array([a]), np.array([b]))
            assert int(arr[0]) == f.mul(a, b)
            arr = f.add(np.array([a]), np.array([b]))
            assert int(arr[0]) == f.add(a, b)


def test_dot_and_elements():
    f = field_new(2)
    assert list(f.units()) == [1]


def test_field_cache_identity():
    assert field_new(2, 2) is field_new(2, 2)
    assert field_new(2) == field_new(2, 1)
    assert field_new(2) != field_new(3)
