"""Exact integer matrix kernels: row echelon and Hermite forms, left
kernels, and the elementary divisors of a matrix whose span holds
m * Z^n, counted off Hermite forms modulo the prime powers of m.
The Hermite form is the one normal form; everything runs on
arbitrary-precision Python ints, no floating point.  A Hermite form
whose input certifies m * Z^r in its span, for a small m, is built
modulo m on rows packed one byte per column, each packed from its
nonzero entries: rows given dense (hnf) are read through nonzeros, and
rows given sparse (hnf_of_supports) go in as they are.
"""

from bisect import bisect_left
from functools import cache
from itertools import compress
from math import gcd, lcm, prod

from . import gf


def _nearest_div(b: int, a: int) -> int:
    """Quotient q minimizing |b - q*a| (a != 0)."""
    q, r = divmod(b, a)
    if 2 * abs(r) > abs(a):
        q += 1
    return q


def _subtract(v, m, r, c) -> None:
    """v -= m * r in place, for a row r that vanishes before column c."""
    for j in range(c, len(v)):
        if r[j]:
            v[j] -= m * r[j]


def _tail_reduce(rows, pivots, v, pos) -> None:
    """Shrink v in place against the echelon rows from pos on; preserves
    the joint span, keeps freshly built rows from carrying big entries."""
    for k in range(pos, len(rows)):
        c = pivots[k]
        if v[c]:
            r = rows[k]
            m = _nearest_div(v[c], r[c])
            if m:
                _subtract(v, m, r, c)


def echelon_insert(rows: list[list[int]], pivots: list[int], vec) -> None:
    """Reduce vec against an echelon basis in place, extending it if needed.

    rows are kept sorted by pivot column; the span of rows is unchanged
    except possibly growing by vec.  Leading entries are combined by
    Euclidean division-with-swap: unlike a one-shot Bezout combination
    this never scales a row by a large factor, so entries stay near the
    size of the inputs across thousands of insertions.  A row inserted or
    swapped in is reduced against the rows below it.
    """
    v = list(vec)
    for c in range(len(v)):
        if not v[c]:
            continue
        pos = bisect_left(pivots, c)
        if pos == len(pivots) or pivots[pos] != c:
            if v[c] < 0:
                v = [-x for x in v]
            _tail_reduce(rows, pivots, v, pos)
            rows.insert(pos, v)
            pivots.insert(pos, c)
            return
        r = rows[pos]
        swapped = False
        while v[c]:
            m = _nearest_div(v[c], r[c])
            if m:
                _subtract(v, m, r, c)
            if v[c]:
                rows[pos], v = v, r
                r = rows[pos]
                swapped = True
        if swapped:
            _tail_reduce(rows, pivots, r, pos + 1)


def echelon(vectors, width: int) -> tuple[list[list[int]], list[int]]:
    """Row echelon form of the vectors, each row reduced against every row
    below it: 2*|rows[i][pivots[k]]| <= |rows[k][pivots[k]]| for i < k."""
    rows: list[list[int]] = []
    pivots: list[int] = []
    for vec in vectors:
        if len(vec) != width:
            raise ValueError(f"row width {len(vec)} != {width}")
        echelon_insert(rows, pivots, vec)
    # bottom up, so every row subtracted is already reduced
    for i in range(len(rows) - 2, -1, -1):
        _tail_reduce(rows, pivots, rows[i], i + 1)
    return rows, pivots


def _distinct_by_leading_column(vectors) -> list[tuple[int, ...]]:
    """The rows up to sign, each once, latest leading column first.

    Dropping v when v or -v was already seen keeps the span.  Feeding the
    rows that start furthest right first lets every later row be reduced
    against a nearly finished tail, which keeps echelon entries small.
    """
    seen = set()
    keyed = []
    for vec in vectors:
        v = tuple(vec)
        c = next(compress(range(len(v)), v), -1)
        if c >= 0 and v[c] < 0:
            v = tuple(-x for x in v)
        if v not in seen:
            seen.add(v)
            keyed.append((c, v))
    keyed.sort(key=lambda cv: -cv[0])
    return [v for _, v in keyed]


MODULAR_MAX = 16  # (m - 1) + (m - 1)**2 <= 255: a row operation mod m fits a byte per digit


def _certified_modulus(units, width: int) -> int:
    """The m <= MODULAR_MAX with m * Z^width inside the span that the
    rows' unit multiples c * e_j, given as their entries (j, c), certify,
    or 0 when some column has no such row or m is larger."""
    g = [0] * width
    for j, c in units:
        g[j] = gcd(g[j], c)
    m = lcm(*g) if g else 0
    return m if 0 not in g and m <= MODULAR_MAX else 0


@cache
def digit_mod_table(m: int) -> bytes:
    """The bytes.translate table taking each byte d to d mod m."""
    return bytes(d % m for d in range(256))


def reduce_digits(x: int, size: int, table: bytes) -> bytes:
    """The size little-endian bytes of x, each digit taken through table."""
    return x.to_bytes(size, "little").translate(table)


def _howell_hnf(supports: list, width: int, m: int) -> tuple[list[list[int]], list[int]]:
    """hnf of a span that holds m * Z^width, built modulo m from the rows'
    nonzero entries, a list that it sorts and empties.

    A row is one int with the digit of column c in byte c, each below m,
    packed from its pairs only when the loop takes it, so the input rows
    are freed as they go and no more than one of them is held packed;
    x - f*y is one multiply-add, x + (m - f)*y, and a reduction of every
    digit mod m (reduce_digits).  The rows are fed latest leading column
    first and put in Howell form (Howell 1986; Storjohann 2000): a new
    pivot a becomes g = gcd(a, m) by a unit multiplier and its annihilator
    row (m / g) * row is queued, a leading digit that the pivot g does
    not divide is merged with it by a Bezout combination, and each pivot
    row is reduced against the rows below when it is placed, and the rows
    above against it.  Then the rows at or after column c span exactly
    the vectors of the span mod m that vanish before c, so the Hermite
    pivot of column c is its Howell pivot, or m where there is none, and
    one bottom-up pass reducing each row's digits into [0, pivot) gives
    the canonical form.  Its entries all lie in [0, m), so they are the
    digits themselves.
    """
    table = digit_mod_table(m)

    def red(x):
        return int.from_bytes(reduce_digits(x, width, table), "little")

    # unit[a]: a unit u of Z_m with u * a = gcd(a, m) mod m
    unit = [0] + [next(u for u in range(1, m) if gcd(u, m) == 1 and u * a % m == gcd(a, m))
                  for a in range(1, m)]
    piv = [0] * width  # the pivot row of each column, 0 for none
    pd = [256] * width  # its pivot, a divisor of m; 256 (above every digit) for none

    def reduce_tail(x, c):
        """x reduced at every pivot column after c, into [0, pivot)."""
        b = x.to_bytes(width, "little")
        for k in range(c + 1, width):
            if b[k] >= pd[k]:
                x = red(x + (m - b[k] // pd[k]) * piv[k])
                b = x.to_bytes(width, "little")
        return x

    def pack(sup):
        digits = bytearray(width)
        for j, x in sup:
            digits[j] = x % m
        return int.from_bytes(digits, "little")

    # latest leading column (mod m) last, to be popped first; zero rows first
    supports.sort(key=lambda sup: min((j for j, x in sup if x % m), default=-1))
    todo = []  # rows made on the way, each taken before the next input row
    while todo or supports:
        x = todo.pop() if todo else pack(supports.pop())
        while x:
            c = ((x & -x).bit_length() - 1) >> 3
            a = (x >> 8 * c) & 255
            y, p = piv[c], pd[c]
            if y and not a % p:  # the pivot divides a: clear column c, walk on
                x = red(x + (m - a // p) * y)
                continue
            if y:  # merge x and y into one row with pivot gcd(a, p)
                h = gcd(a, p)
                s, t = next((s, t) for s in range(m) for t in range(m) if (s * p + t * a) % m == h)
                z = red(red(s * y) + t * x)
                todo += [red(y + (m - p // h) * z), red(x + (m - a // h) * z)]
            else:  # a new pivot, made gcd(a, m) by a unit
                h, z = gcd(a, m), red(unit[a] * x)
            z = piv[c] = reduce_tail(z, c)
            pd[c] = h
            if h != 1:
                todo.append(red(m // h * z))
            for k in range(c):
                d = (piv[k] >> 8 * c) & 255
                if d >= h:
                    piv[k] = red(piv[k] + (m - d // h) * z)
            break
    rows = []
    for c in range(width - 1, -1, -1):
        if piv[c]:
            piv[c] = reduce_tail(piv[c], c)
            rows.append(list(piv[c].to_bytes(width, "little")))
        else:
            rows.append([0] * c + [m] + [0] * (width - 1 - c))
    return rows[::-1], list(range(width))


def nonzeros(vec) -> tuple[tuple[int, int], ...]:
    """The (column, value) pairs of the row's nonzero entries, by column."""
    return tuple(zip(compress(range(len(vec)), vec), filter(None, vec)))


def hnf(vectors, width: int) -> tuple[list[list[int]], list[int]]:
    """Canonical row-style Hermite form: positive pivots, entries above a
    pivot reduced into [0, pivot).  Unique per row span, so the output is
    independent of generator order and of the route that computes it.

    The input picks one of two routes.  When every column j has an input
    row c_j * e_j (c_j != 0), m = lcm over j of gcd|c_j| puts m * Z^width
    in the span, and for m <= MODULAR_MAX the span is read off its image
    in (Z_m)^width, each row packed from its nonzero entries: _howell_hnf.
    Otherwise the rows go through the integer echelon, fed in whichever
    order keeps its entries small.  A row whose length is not width
    raises ValueError.
    """
    if not isinstance(vectors, (list, tuple)):
        vectors = list(vectors)
    for v in vectors:
        if len(v) != width:
            raise ValueError(f"row width {len(v)} != {width}")
    units = (nonzeros(v)[0] for v in vectors if v.count(0) == width - 1)
    m = _certified_modulus(units, width)
    if not m:
        return _echelon_hnf(vectors, width)
    return _howell_hnf(list(map(nonzeros, vectors)), width, m)


def hnf_of_supports(supports, width: int) -> tuple[list[list[int]], list[int]]:
    """hnf of the rows given by their nonzero entries: each row a sequence
    of (column, value) pairs with distinct columns in [0, width), as
    nonzeros gives them.  A certified span goes straight to _howell_hnf,
    which packs each row from its pairs and frees it once packed (the
    rows are read into a list of this call's own); any other is expanded
    for the integer echelon."""
    supports = list(supports)
    m = _certified_modulus((sup[0] for sup in supports if len(sup) == 1), width)
    if m:
        return _howell_hnf(supports, width, m)
    return _echelon_hnf([_dense(sup, width) for sup in supports], width)


def _dense(sup, width: int) -> list[int]:
    vec = [0] * width
    for j, x in sup:
        vec[j] = x
    return vec


def _echelon_hnf(vectors, width: int) -> tuple[list[list[int]], list[int]]:
    """hnf by the integer echelon, then signs and a bottom-up reduction."""
    rows, pivots = echelon(_distinct_by_leading_column(vectors), width)
    for i, c in enumerate(pivots):
        if rows[i][c] < 0:
            rows[i] = [-x for x in rows[i]]
    # bottom up, so every row subtracted is already reduced
    for i in range(len(rows) - 1, -1, -1):
        r = rows[i]
        for below in range(i + 1, len(rows)):
            b, c = rows[below], pivots[below]
            f = r[c] // b[c]
            if f:
                _subtract(r, f, b, c)
    return rows, pivots


def left_kernel(rows, width: int) -> list[list[int]]:
    """Basis of {y : y * A = 0} for A given by rows."""
    m = len(rows)
    aug = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(rows)]
    erows, epivots = echelon(aug, width + m)
    return [r[width:] for r, c in zip(erows, epivots) if c >= width]


def smith_normal_form(mat, m: int):
    """Elementary divisors of a square integer matrix whose row span S
    holds m * Z^n, counted off Hermite forms with no elimination of its
    own.

    Every divisor divides m.  For a prime power p^k dividing m, the index
    of S + p^k * Z^n is the product over the divisors d of gcd(d, p^k),
    so going from p^(k-1) to p^k it grows by p once per divisor that p^k
    divides, and those, the largest of the chain, take one more factor p.
    That index is the product of the pivots of hnf over the rows reduced
    mod p^k and the rows p^k * e_j, which certify p^k (the Howell route
    for p^k <= MODULAR_MAX).  Returns (divisors,): the ascending chain as
    the first item.
    """
    n = len(mat)
    divisors = [1] * n
    for p, e in gf._prime_powers(m):
        last = 1  # the index of S + p^(k-1) * Z^n
        for k in range(1, e + 1):
            pk = p**k
            rows = [[x % pk for x in row] for row in mat]
            rows += ([pk * (i == j) for j in range(n)] for i in range(n))
            index = prod(r[c] for r, c in zip(*hnf(rows, n)))
            count = 0
            while last < index:
                last *= p
                count += 1
            if not count:  # no divisor that p^k divides, so none for higher k
                break
            divisors[n - count :] = [d * p for d in divisors[n - count :]]
    return (divisors,)
