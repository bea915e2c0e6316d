import numpy as np
import pytest

from ldpclab.errors import FieldTooLarge, NonPrime, PreconditionError
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
    for x in f.elements():
        s = sum(f.character(x, y) for y in f.elements())
        expect = f.q if x == 0 else 0.0
        assert abs(s - expect) < 1e-9


@pytest.mark.parametrize("p,h", [(2, 2), (2, 4), (3, 2), (5, 2)])
def test_trace_additive_and_into_prime_field(p, h):
    f = field_new(p, h)
    for a in f.elements():
        assert 0 <= f.trace(a) < p
    rng = np.random.default_rng(1)
    a = rng.integers(0, f.q, 50)
    b = rng.integers(0, f.q, 50)
    assert np.array_equal(f.trace(f.add(a, b)), (f.trace(a) + f.trace(b)) % p)
    # trace is onto F_p (not identically zero)
    assert set(int(f.trace(a)) for a in f.elements()) == set(range(p))


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


def test_construction_errors():
    with pytest.raises(NonPrime):
        Field(4, 1)
    with pytest.raises(NonPrime):
        Field(1, 1)
    with pytest.raises(FieldTooLarge):
        Field(2, 17)
    with pytest.raises(PreconditionError):
        Field(2, 0)
    with pytest.raises(PreconditionError):
        Field("2", 1)  # as read from a malformed input file


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
    assert f.dot([1, 0, 1], [1, 1, 1]) == 0
    assert f.dot([1, 0, 1], [1, 1, 0]) == 1
    assert list(f.units()) == [1]


def test_field_cache_identity():
    assert field_new(2, 2) is field_new(2, 2)
    assert field_new(2) == field_new(2, 1)
    assert field_new(2) != field_new(3)
