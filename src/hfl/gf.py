"""Exact arithmetic in GF(p^k) on integer-encoded elements.

An element of GF(p^k) is a plain Python int in [0, p**k): the integer
a0 + a1*p + ... + a_{k-1}*p**(k-1) encodes the coordinate vector
(a0, ..., a_{k-1}) with respect to the power basis 1, x, ..., x^(k-1).
The modulus is the monic irreducible polynomial of degree k over GF(p)
whose non-leading coefficient vector has the smallest integer encoding,
so field construction is deterministic with no lookup tables shipped.
``modulus(p, k)`` finds it for every p^k up to MAX_ORDER = 2^20.

Arithmetic runs on add, mul, exp and log tables built once per field,
so a Field accepts p^k up to TABLE_MAX_ORDER = 256 elements; every
GF(q^2) of a supported curve has at most 64.

Fields of square order p^(2m) = q^2 additionally expose the q-power
Frobenius, the relative trace and norm onto GF(q), exact fiber solvers
for both, and roots of unity of order dividing q + 1.
"""

import functools

from .errors import (
    DegreeOutOfRangeError,
    FieldNotSquareOrderError,
    NonPrimeError,
    TargetNotInSubfieldError,
)

MAX_ORDER = 2**20        # largest p^k whose modulus is searched
TABLE_MAX_ORDER = 256    # largest p^k with arithmetic tables


def _prime_powers(m: int):
    """(p, e) for each prime power p^e exactly dividing m, p increasing;
    nothing for m < 2."""
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            yield p, e
        p += 1
    if m > 1:
        yield m, 1


# -- polynomial helpers over GF(p); coefficients are little-endian tuples --

def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_rem(a, b, p):
    """a mod b over GF(p), trimmed; b trimmed and nonzero."""
    r, k, inv = list(a), len(b) - 1, pow(b[-1], p - 2, p)
    for i in range(len(r) - 1, k - 1, -1):
        c = r[i] * inv % p
        if c:
            for j, bj in enumerate(b):
                r[i - k + j] = (r[i - k + j] - c * bj) % p
    return _poly_trim(tuple(r[:k]))


def _poly_mulmod(a, b, mod, p):
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    return _poly_rem(res, mod, p)


def _poly_powmod(a, e, mod, p):
    result = (1,)
    base = a
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def _is_irreducible(coeffs, p):
    """Monic coeffs of degree k: irreducible over GF(p)?

    Uses the standard criterion: x^(p^k) == x mod f, and for every prime
    r | k the polynomial x^(p^(k/r)) - x is coprime to f.
    """
    k = len(coeffs) - 1
    if k == 1:
        return True
    x = (0, 1)
    xq = _poly_powmod(x, p**k, coeffs, p)
    if xq != x:
        return False
    for r, _ in _prime_powers(k):
        d = k // r
        xd = _poly_powmod(x, p**d, coeffs, p)
        diff = list(xd) + [0] * (2 - len(xd))
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(coeffs, tuple(diff), p)
        if len(g) > 1:
            return False
    return True


@functools.lru_cache(maxsize=None)
def modulus(p: int, k: int):
    """The monic irreducible of degree k over GF(p) with the smallest
    low-coefficient encoding, little-endian; p prime, 1 <= k <= 8 and
    p^k <= MAX_ORDER."""
    if [*_prime_powers(p)] != [(p, 1)]:
        raise NonPrimeError(f"p = {p} is not prime")
    if not 1 <= k <= 8:
        raise DegreeOutOfRangeError(f"k = {k} outside 1..8")
    if p**k > MAX_ORDER:
        raise DegreeOutOfRangeError(f"p^k = {p**k} exceeds {MAX_ORDER}")
    for enc in range(p**k):
        coeffs = []
        e = enc
        for _ in range(k):
            coeffs.append(e % p)
            e //= p
        cand = tuple(coeffs) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


class Field:
    """GF(p^k) with all operations on integer encodings, by table lookup."""

    def __init__(self, p: int, k: int):
        self.modulus = modulus(p, k)
        if p**k > TABLE_MAX_ORDER:
            raise DegreeOutOfRangeError(
                f"p^k = {p**k} exceeds {TABLE_MAX_ORDER}, the largest field with arithmetic"
            )
        self.p = p
        self.k = k
        self.order = p**k
        self._trace_fibers = None
        self._norm_fibers = None
        self._build_tables()

    # -- encoding ----------------------------------------------------------

    def decode(self, a: int):
        digits = []
        for _ in range(self.k):
            digits.append(a % self.p)
            a //= self.p
        return tuple(digits)

    def encode(self, digits) -> int:
        a = 0
        for d in reversed(tuple(digits)):
            a = a * self.p + d % self.p
        return a

    def elements(self):
        return range(self.order)

    # -- table construction --------------------------------------------------

    def _mul_generic(self, a: int, b: int) -> int:
        prod = _poly_mulmod(self.decode(a), self.decode(b), self.modulus, self.p)
        return self.encode(prod + (0,) * (self.k - len(prod)))

    def _build_tables(self):
        """exp and log from the smallest primitive element, found by
        stepping the powers of each candidate back to 1; then the full
        add and mul tables."""
        q = self.order
        n = q - 1
        for g in range(1, q):  # the unit 1 generates GF(2)* alone
            exp = [1]
            acc = g
            while acc != 1:
                exp.append(acc)
                acc = self._mul_generic(acc, g)
            if len(exp) == n:
                break
        exp += exp  # exp[i] for 0 <= i < 2n, so a sum of two logs indexes it
        log = [0] * q
        for i in range(n):
            log[exp[i]] = i
        add = [0] * (q * q)
        mul = [0] * (q * q)
        digits = [self.decode(a) for a in range(q)]
        for a in range(q):
            da = digits[a]
            arow = a * q
            for b in range(a, q):
                s = self.encode(tuple((x + y) % self.p for x, y in zip(da, digits[b])))
                add[arow + b] = s
                add[b * q + a] = s
        for a in range(1, q):
            la = log[a]
            arow = a * q
            for b in range(a, q):
                m = exp[la + log[b]]
                mul[arow + b] = m
                mul[b * q + a] = m
        self._exp, self._log = exp, log
        self._add_table = add
        self._mul_table = mul

    # -- ring operations -----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add_table[a * self.order + b]

    def neg(self, a: int) -> int:
        return self.mul(a, self.p - 1)  # -1 is p - 1 in the prime field

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._mul_table[a * self.order + b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[self.order - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no inverse")
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.order - 1)]

    # -- square-order structure ---------------------------------------------

    @property
    def q(self) -> int:
        """Subfield size q for fields of order q^2."""
        if self.k % 2:
            raise FieldNotSquareOrderError(f"GF({self.p}^{self.k}) has no square order")
        return self.p ** (self.k // 2)

    def frobenius(self, a: int) -> int:
        """The q-power map a -> a^q; an involution on GF(q^2)."""
        return self.pow(a, self.q)

    def trace(self, a: int) -> int:
        """Relative trace a^q + a, landing in GF(q)."""
        return self.add(self.frobenius(a), a)

    def norm(self, a: int) -> int:
        """Relative norm a^(q+1), landing in GF(q)."""
        return self.mul(self.frobenius(a), a)

    def in_subfield(self, a: int) -> bool:
        return self.frobenius(a) == a

    def _build_fibers(self):
        tf: dict[int, list[int]] = {}
        nf: dict[int, list[int]] = {}
        for z in range(self.order):
            tf.setdefault(self.trace(z), []).append(z)
            nf.setdefault(self.norm(z), []).append(z)
        self._trace_fibers = {c: tuple(v) for c, v in tf.items()}
        self._norm_fibers = {c: tuple(v) for c, v in nf.items()}

    def trace_fiber(self, c: int):
        """All q solutions z of z^q + z = c, ascending; c must lie in GF(q)."""
        if not self.in_subfield(c):
            raise TargetNotInSubfieldError(f"trace target {c} not in GF({self.q})")
        if self._trace_fibers is None:
            self._build_fibers()
        return self._trace_fibers[c]

    def norm_fiber(self, t: int):
        """All solutions z of z^(q+1) = t, ascending (q+1 of them for t != 0)."""
        if not self.in_subfield(t):
            raise TargetNotInSubfieldError(f"norm target {t} not in GF({self.q})")
        if self._norm_fibers is None:
            self._build_fibers()
        return self._norm_fibers.get(t, ())

    def norm_preimage(self, t: int) -> int:
        """The smallest z with z^(q+1) = t; zero exactly for t = 0."""
        fiber = self.norm_fiber(t)
        return fiber[0]

    def root_of_unity(self, m: int) -> int:
        """Smallest element of multiplicative order exactly m."""
        if m < 1 or (self.order - 1) % m:
            raise ValueError(f"no element of order {m} in GF({self.order})*")
        for z in range(1, self.order):
            if self.pow(z, m) == 1 and all(self.pow(z, m // f) != 1 for f, _ in _prime_powers(m)):
                return z
        raise AssertionError("unreachable: cyclic group has elements of every dividing order")

    def __repr__(self):
        return f"Field(p={self.p}, k={self.k})"


@functools.lru_cache(maxsize=None)
def field_make(p: int, k: int) -> Field:
    """Canonical GF(p^k); repeated calls return the same object."""
    return Field(p, k)
