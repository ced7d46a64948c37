from math import isqrt

import numpy as np
import pytest
from oracles import field_tables_schoolbook, mult_order, smallest_irreducible

from hfl import gf
from hfl.errors import (
    DegreeOutOfRangeError,
    FieldNotSquareOrderError,
    NonPrimeError,
    TargetNotInSubfieldError,
)

SQUARE_FIELDS = [(2, 2), (3, 2), (2, 4), (5, 2), (7, 2), (2, 6)]


def _tables(F):
    n = F.order
    add = np.array([[F.add(a, b) for b in range(n)] for a in range(n)], dtype=np.int64)
    mul = np.array([[F.mul(a, b) for b in range(n)] for a in range(n)], dtype=np.int64)
    return add, mul


@pytest.mark.parametrize("p,k", SQUARE_FIELDS)
def test_field_axioms_exhaustive(p, k):
    """Every axiom checked on every triple via table gathers."""
    F = gf.field_make(p, k)
    n = F.order
    add, mul = _tables(F)
    idx = np.arange(n)

    # commutativity
    assert (add == add.T).all()
    assert (mul == mul.T).all()
    # identities
    assert (add[0] == idx).all()
    assert (mul[1] == idx).all()
    assert (mul[0] == 0).all()
    # additive inverse
    negs = np.array([F.neg(a) for a in range(n)])
    assert (add[idx, negs] == 0).all()
    # each row of each table is a permutation (add) / permutation of units (mul)
    assert all(len(set(add[a])) == n for a in range(n))
    assert all(len(set(mul[a][1:])) == n - 1 for a in range(1, n))

    # associativity and distributivity on the full cube
    a = idx[:, None, None]
    b = idx[None, :, None]
    c = idx[None, None, :]
    assert (add[add[a, b], c] == add[a, add[b, c]]).all()
    assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()

    # multiplicative inverse
    for x in range(1, n):
        assert F.mul(x, F.inv(x)) == 1


@pytest.mark.parametrize("p,k", SQUARE_FIELDS)
def test_square_order_structure(p, k):
    F = gf.field_make(p, k)
    q = F.q
    assert q * q == F.order

    # frobenius is an involutive field automorphism
    for a in range(F.order):
        assert F.frobenius(F.frobenius(a)) == a
    for a in range(F.order):
        for b in (0, 1, F.order - 1, a):
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
            assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))

    # trace and norm land in the subfield; fixed points are exactly GF(q)
    sub = [a for a in range(F.order) if F.in_subfield(a)]
    assert len(sub) == q
    for a in range(F.order):
        assert F.in_subfield(F.trace(a))
        assert F.in_subfield(F.norm(a))

    # fiber sizes: trace is q-to-1 onto GF(q); norm is (q+1)-to-1 on units
    for c in sub:
        fib = F.trace_fiber(c)
        assert len(fib) == q
        assert list(fib) == sorted(fib)
        for z in fib:
            assert F.trace(z) == c
        nf = F.norm_fiber(c)
        assert len(nf) == (1 if c == 0 else q + 1)
        for z in nf:
            assert F.norm(z) == c
        assert F.norm_preimage(c) == nf[0]

    # fiber targets outside GF(q) are rejected
    outside = next(a for a in range(F.order) if not F.in_subfield(a))
    with pytest.raises(TargetNotInSubfieldError):
        F.trace_fiber(outside)
    with pytest.raises(TargetNotInSubfieldError):
        F.norm_fiber(outside)


@pytest.mark.parametrize("p,k", SQUARE_FIELDS)
def test_roots_of_unity(p, k):
    F = gf.field_make(p, k)
    n = F.order - 1
    for m in sorted({1, 2, F.q + 1, n}):
        if n % m:
            continue
        z = F.root_of_unity(m)
        assert mult_order(F, z) == m
    with pytest.raises(ValueError):
        F.root_of_unity(F.order)  # does not divide order - 1


# the largest table fields: 2^8 = 256, 3^5 = 243 and the prime 251
ORACLE_FIELDS = SQUARE_FIELDS + [(2, 8), (3, 5), (251, 1)]
FIELD_IDS = [f"{p}^{k}" for p, k in ORACLE_FIELDS]


@pytest.mark.parametrize("p,k", ORACLE_FIELDS, ids=FIELD_IDS)
def test_tables_match_schoolbook_oracle(p, k):
    """F.add and F.mul on every pair equal digit-wise addition and the
    schoolbook product mod F.modulus: this pins values, where the axioms
    hold for any field isomorphic to the right one."""
    F = gf.field_make(p, k)
    add, mul = field_tables_schoolbook(p, k, F.modulus)
    els = F.elements()
    assert [[F.add(a, b) for b in els] for a in els] == add
    assert [[F.mul(a, b) for b in els] for a in els] == mul


NEG_FIELDS = [(7, 2), (2, 4), (3, 5), (2, 8)]


@pytest.mark.parametrize("p,k", NEG_FIELDS, ids=[f"{p}^{k}" for p, k in NEG_FIELDS])
def test_neg_is_digitwise_negation(p, k):
    """neg(a) = (p - 1) * a is the additive inverse and negates every digit."""
    F = gf.field_make(p, k)
    for a in F.elements():
        assert F.add(a, F.neg(a)) == 0
        assert F.decode(F.neg(a)) == tuple(-x % p for x in F.decode(a))
        assert F.sub(0, a) == F.neg(a)


def test_gf4_pinned_values():
    F = gf.field_make(2, 2)
    # power-basis encoding: 2 encodes x; smallest irreducible is x^2 + x + 1
    assert F.modulus == (1, 1, 1)
    omega = 2
    assert F.mul(omega, omega) == F.add(omega, 1)  # x^2 = x + 1
    assert F.trace(omega) == 1
    assert F.norm(omega) == 1
    assert mult_order(F, omega) == 3
    assert F.trace_fiber(0) == (0, 1)
    assert F.trace_fiber(1) == (2, 3)


def test_gf9_pinned_values():
    F = gf.field_make(3, 2)
    # smallest irreducible over GF(3) is x^2 + 1
    assert F.modulus == (1, 0, 1)
    assert F.q == 3
    # x (enc 3) squares to -1 (enc 2), so it has order 4 = q + 1
    assert F.mul(3, 3) == 2
    assert F.root_of_unity(4) == 3
    assert F.norm_preimage(2) == 4
    assert F.norm(4) == 2


def test_pow_and_mult_order():
    F = gf.field_make(3, 2)
    g = F.root_of_unity(8)
    assert mult_order(F, g) == 8
    seen = {F.pow(g, e) for e in range(8)}
    assert len(seen) == 8
    assert F.pow(g, -1) == F.inv(g)
    assert F.pow(0, 0) == 1 and F.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        mult_order(F, 0)


def test_encode_decode_roundtrip():
    F = gf.field_make(5, 2)
    for a in range(F.order):
        assert F.encode(F.decode(a)) == a
    assert F.decode(7) == (2, 1)  # 2 + 1*5


def test_construction_errors():
    with pytest.raises(NonPrimeError):
        gf.field_make(6, 2)
    with pytest.raises(DegreeOutOfRangeError):
        gf.field_make(2, 0)
    with pytest.raises(DegreeOutOfRangeError):
        gf.field_make(2, 25)
    # the modulus exists up to 2^20, arithmetic tables up to 256 elements
    assert len(gf.modulus(3, 6)) == 7
    with pytest.raises(DegreeOutOfRangeError, match="256"):
        gf.field_make(3, 6)
    with pytest.raises(DegreeOutOfRangeError, match=str(gf.MAX_ORDER)):
        gf.modulus(1031, 2)
    with pytest.raises(FieldNotSquareOrderError):
        _ = gf.field_make(2, 3).q


def test_field_cache_identity():
    assert gf.field_make(2, 2) is gf.field_make(2, 2)


def test_modulus_is_deterministic_and_monic():
    for p, k in SQUARE_FIELDS:
        F = gf.field_make(p, k)
        assert F.modulus == gf.modulus(p, k)
        assert len(F.modulus) == k + 1
        assert F.modulus[-1] == 1


def test_modulus_is_the_smallest_irreducible():
    """modulus(p, k) is the first monic irreducible of degree k in encoding
    order, found by trial division, for every p^k <= MAX_ORDER with p < 1024."""
    primes = [p for p in range(2, 1024) if all(p % d for d in range(2, isqrt(p) + 1))]
    pairs = [(p, k) for p in primes for k in range(1, 9) if p**k <= gf.MAX_ORDER]
    assert len(pairs) == 398
    for p, k in pairs:
        assert gf.modulus(p, k) == smallest_irreducible(p, k), (p, k)
