"""Full-rank sublattices of the root lattice A_{n-1} = {x in Z^n : sum(x) = 0}.

A lattice is stored once, as the Hermite form of its projection that
drops coordinate 0 with each row lifted back to a sum-zero vector (the
projection is injective on sum-zero vectors), which makes bases
canonical; a generating set of lower rank is refused.  On top of that
sit the class map of A_{n-1}/L, read off the inverse of the Hermite
form's non-unit block and held in one object (ClassWords) that also
runs the class sums, with membership through it, the
elementary divisors of that block, counted off Hermite forms modulo the
prime powers of the quotient's exponent, exact determinants,
short vectors shape by shape, integral LLL with an integer sphere
enumerator for small ranks, and a search for coordinate-permutation
automorphisms.
"""

import itertools
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from math import factorial, gcd, lcm, perm, prod
from operator import floordiv, mul

from . import intmat
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    EmptyGeneratorSetError,
    InternalIdentityViolationError,
    NotFullRankError,
    SearchInfeasibleError,
)

DEFAULT_CENSUS_CAP = 10**8
ENUM_MAX_RANK = 12
LLL_DELTA = (99, 100)  # the Lovasz constant 99/100 as (numerator, denominator)
PERM_MAX_WORK = 10**6  # partial maps the permutation search may try


@dataclass(frozen=True)
class QuotientStructure:
    """Elementary divisor chain of A_{n-1}/L."""

    divisors: tuple[int, ...]

    @property
    def nontrivial(self) -> tuple[int, ...]:
        return tuple(d for d in self.divisors if d != 1)


def permute(vec, perm):
    """Move the value at coordinate i to coordinate perm[i]."""
    out = [0] * len(vec)
    for i, x in enumerate(vec):
        out[perm[i]] = x
    return tuple(out)


class Lattice:
    """Full-rank sublattice of A_{n-1} with a canonical (Hermite) basis,
    `rows`: rows[i] is the Hermite form's row i with coordinate 0 put
    back, so its pivot is rows[i][i + 1]."""

    def __init__(self, n: int, hnf_rows):
        self.n = n
        self.rows = tuple((-sum(r), *r) for r in hnf_rows)
        self.rank = len(self.rows)
        # the coordinates whose Hermite pivot is not 1: their classes
        # generate A_{n-1}/L
        self.block = tuple(i + 1 for i, r in enumerate(self.rows) if r[i + 1] != 1)
        self._quotient = None
        self._words = None

    @classmethod
    def from_generators(cls, vectors, n: int) -> "Lattice":
        """The lattice the sum-zero vectors generate; refused unless n >= 2
        and they span a sublattice of rank n - 1; read in one pass keeping
        only each one's projection, so a one-shot iterator will do."""
        if n < 2:
            raise NotFullRankError(f"n = {n} < 2: A_{n - 1} is zero")
        tails = []
        for v in vectors:
            if len(v) != n:
                raise DimensionMismatchError(f"generator length {len(v)} != n = {n}")
            if sum(v) != 0:
                raise ValueError(f"generator does not sum to zero: {v}")
            tails.append(v[1:])
        if not tails:
            raise EmptyGeneratorSetError("need at least one generator")
        rows, _ = intmat.hnf(tails, n - 1)
        if len(rows) < n - 1:
            raise NotFullRankError(f"generators span rank {len(rows)} < n - 1 = {n - 1}")
        return cls(n, rows)

    def index_in_ambient(self) -> int:
        """[A_{n-1} : L], the product of the Hermite pivots."""
        return prod(r[i + 1] for i, r in enumerate(self.rows))

    def quotient(self) -> QuotientStructure:
        """Elementary divisors of A_{n-1}/L (ascending chain, 1s included):
        the non-unit block B's, counted modulo the class map's exponent M
        on first use."""
        if self._quotient is None:
            units = [1] * (self.rank - len(self.block))
            divisors = intmat.smith_normal_form(self._block_matrix(), self.class_words().M)[0]
            self._quotient = QuotientStructure(tuple(units + divisors))
        return self._quotient

    def determinant(self) -> tuple[int, int]:
        """det L as (index, radicand): the exact value is index * sqrt(radicand)."""
        return self.index_in_ambient(), self.n

    def _block_matrix(self):
        """B: the Hermite form restricted to the block coordinates."""
        return [[self.rows[i - 1][j] for j in self.block] for i in self.block]

    def class_map(self):
        """(mods, cls): v in L iff sum(v[i]*cls[i]) == 0 mod mods, componentwise.

        cls[i] is the image of e_i - e_0 in the quotient group, embedded in
        the product of the Z_mods[t] (mods[t] is the order of component t,
        so there can be more components than nontrivial elementary
        divisors).  One ClassWords, built on first use, holds the class map
        and runs the class sums on packed words (class_words).

        In canonical HNF a unit-pivot column is zero off its pivot, so
        A_{n-1}/L is Z^N / rowspan(B) for B the non-unit block, and a
        unit-pivot row c maps e_c to -sum_j H[c][j] e_j over the block
        coordinates j.  B is upper triangular with determinant
        d = [A_{n-1} : L], so one back-substitution gives the integral
        X = d * B^-1, and x lies in rowspan(B) iff x * X = 0 mod d.  With
        g = gcd(d, X), M = d / g is the quotient's exponent and
        C = X / g mod M its class map: block coordinate j's class is row j
        of C, each column taken mod its own additive order, a column of
        order 1 dropped, and the rest sorted by decreasing order into mods.
        """
        if self._words is None:
            B, d, N = self._block_matrix(), self.index_in_ambient(), len(self.block)
            X = [None] * N
            for i in reversed(range(N)):
                acc = [0] * N
                acc[i] = d
                for k in range(i + 1, N):
                    if B[i][k]:
                        acc = [a - B[i][k] * x for a, x in zip(acc, X[k])]
                X[i] = [a // B[i][i] for a in acc]
            g = gcd(d, *itertools.chain.from_iterable(X))
            M = d // g
            cols = []
            for col in zip(*X):
                col = [x // g % M for x in col]
                s = gcd(M, *col)
                if s != M:
                    cols.append((M // s, [x // s for x in col]))
            # largest order first: the shape walk holds one of mods[0] passes of keys at a time
            cols.sort(key=lambda oc: -oc[0])
            mods = [o for o, _ in cols]
            C = dict(zip(self.block, zip(*(c for _, c in cols))))
            words = ClassWords(mods, list(C.values()))
            cls = [(0,) * len(mods)] + [
                C[c] if c in C else words.decode(words.key([-row[j] for j in self.block]))
                for c, row in enumerate(self.rows, 1)
            ]
            self._words = ClassWords(mods, cls)
        return self._words.mods, self._words.cls

    def class_words(self) -> "ClassWords":
        """The class map as packed words (class_map builds it)."""
        if self._words is None:
            self.class_map()
        return self._words

    def member_fast(self, v) -> bool:
        """Membership through the quotient map: v sums to zero and its
        class is trivial."""
        words = self.class_words()
        return words.key(v) == words.zero and sum(v) == 0

    def fixed_by(self, perm) -> bool:
        """Does the coordinate permutation perm map L onto itself?

        Checking that every permuted basis row lies in L is enough: perm
        has finite order k, so perm(L) <= L gives L = perm^k(L) <= perm(L).
        A perm whose length is not n raises DimensionMismatchError.
        """
        if len(perm) != self.n:
            raise DimensionMismatchError(f"permutation length {len(perm)} != n = {self.n}")
        return all(self.member_fast(permute(row, perm)) for row in self.rows)

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Lattice(n={self.n}, rank={self.rank})"


class _WordTables(dict):
    """Word tables by raw multiplier: self[x][i] is the word of x * cls[i],
    built on the first lookup of x (shared with x mod M)."""

    def __init__(self, digits, M: int, width: int):
        super().__init__()
        self._digits, self._M, self._shift = digits, M, 8 * width

    def __missing__(self, x):
        r, M, shift = x % self._M, self._M, self._shift
        if r == x:
            table = [sum(r * d % M << shift * t for t, d in enumerate(ds)) for ds in self._digits]
        else:
            table = self[r]
        self[x] = table
        return table


class ClassWords:
    """The class map (mods, cls) of A_{n-1}/L, with its class sums as one
    integer add per nonzero entry.

    Component t of a class is scaled into Z_M, M = lcm(mods), by
    M // mods[t] and held as one little-endian digit of `width` bytes, so
    x times the class of coordinate i is one int, tables[x][i], with
    digits below M.  Up to `every` words added to a reduced sum keep each
    digit below 256**width; reduce() takes each digit mod M
    (intmat.reduce_digits when width is 1) and gives the class's key, zero
    bytes for the trivial class.  key() counts down from `every` between
    reductions, and looks a multiplier's table up by its raw value.

    keys() keys a word sum plus each of many reduced words at once.  When
    every position-tagged digit t * M + digit fits a byte (one-byte digits
    and len(mods) * M <= 256), tail() stores each word tagged, and one
    256-byte table, built from the sum's reduced digits, maps every tagged
    tail to its key bytes in one bytes.translate (the trivial group has
    empty tails).  Any other class group adds and reduces its keys: a
    reduced sum plus a reduced word stays below 2M - 1, within its digits.
    Tables are built on first use.
    """

    def __init__(self, mods, cls):
        self.mods, self.cls = tuple(mods), tuple(cls)
        self.M = M = lcm(*mods)
        self.scale = [M // m for m in mods]
        # wide enough that a word fits on a reduced sum: every >= 1
        self.width = w = max(1, ((2 * M - 2).bit_length() + 7) // 8)
        self.size = w * len(mods)
        self.every = (256**w - 1) // max(M - 1, 1) - 1
        self.zero = bytes(self.size)
        tagged = w == 1 and len(mods) * M <= 256
        self._tags = sum(t * M << 8 * t for t in range(len(mods))) if tagged else None
        self._mod = intmat.digit_mod_table(M)
        self.tables = _WordTables([[c * s for c, s in zip(ci, self.scale)] for ci in cls], M, w)

    def reduce(self, acc: int) -> bytes:
        """The key of a word sum: each digit taken mod M."""
        if self.width == 1:
            return intmat.reduce_digits(acc, self.size, self._mod)
        raw = acc.to_bytes(self.size, "little")
        return b"".join((d % self.M).to_bytes(self.width, "little") for d in self._split(raw))

    def tail(self, word: int):
        """A reduced word as keys() takes it: its tagged bytes when the
        tags fit a byte, else the word itself."""
        if self._tags is None:
            return word
        return (word + self._tags).to_bytes(self.size, "little")

    def keys(self, acc: int, tails):
        """The keys of the word sum acc plus each reduced word, given in
        tail() form."""
        if self._tags is None:
            return map(self.reduce, map(acc.__add__, tails))
        M = self.M
        cycle = bytes(range(M)) * 2  # cycle[p : p + M] maps d to (p + d) mod M
        table = b"".join([cycle[p : p + M] for p in self.reduce(acc)]).ljust(256, b"\0")
        return map(bytes.translate, tails, itertools.repeat(table))

    def key(self, v) -> bytes:
        """The key of sum(v[i] * cls[i]) over the nonzero entries of v."""
        if len(v) != len(self.cls):
            raise DimensionMismatchError(f"vector length {len(v)} != n = {len(self.cls)}")
        tables, every = self.tables, self.every
        acc, left = 0, every
        for i in itertools.compress(range(len(v)), v):
            if not left:
                acc, left = int.from_bytes(self.reduce(acc), "little"), every
            left -= 1
            acc += tables[v[i]][i]
        return self.reduce(acc)

    def decode(self, key: bytes) -> tuple:
        """The class tuple of a key, componentwise mod mods."""
        return tuple(map(floordiv, self._split(key), self.scale))

    def _split(self, raw: bytes):
        w = self.width
        return (int.from_bytes(raw[j : j + w], "little") for j in range(0, self.size, w))


# -- short vectors by shape ----------------------------------------------------


def _placements(n: int, part) -> int:
    """Ways to put the values of `part` on distinct coordinates of Z^n."""
    return perm(n, len(part)) // prod(factorial(part.count(v)) for v in set(part))


class _Budget:
    """One cap on the placements of every shape to walk, charged before
    any walk, plus the pairs tested while pairing."""

    def __init__(self, n: int, shapes, cap: int | None):
        self.cap = DEFAULT_CENSUS_CAP if cap is None else cap
        self.spent = 0
        self.charge(sum(_placements(n, p) + (p != m) * _placements(n, m) for p, m in shapes),
                    "placements")

    def charge(self, work: int, what: str = "placements and pairs tested"):
        self.spent += work
        if self.spent > self.cap:
            raise BudgetExceededError(f"shape walk needs {self.spent} {what} > cap {self.cap}")


def _keyed_passes(n: int, part, words: ClassWords):
    """Placements of the values `part` (non-increasing) on distinct
    coordinates, keyed by class, in one pass per value r of the key's
    first class digit (mods[0] passes, one when the class group is
    trivial).  Each pass yields (keys, rows): the keys whose first digit
    is r, in walk order, and the leaf rows (start, prefix, tails, idx),
    each putting keys[start + t] on the coordinates prefix + tails[idx[t]].

    Equal values take increasing coordinates, and packed class sums grow
    down the combination tree from one word table per slot, whose range
    leaves room for the equal values after it.  The prefix tree is walked
    once and its leaves kept as (start, prefix, acc).  The last slot is
    the tail: when the last two values are equal it is one pair slot,
    whose tails are the pairs i < j in combination order and whose words
    are the reduced sums table(v)[i] + table(v)[j], one word each;
    otherwise it is the last value alone.  The tails are grouped by their
    word's first digit d, each group in combination order and each word
    stored once in ClassWords.tail form (position-tagged bytes when the
    tags fit a byte), and in the pass for r a leaf extends only the
    group d = r - (acc's first digit) mod M, so every placement is keyed
    in exactly one pass.  A group's tails from coordinate `start` on are a
    suffix of it, so a leaf's idx is a range, filtered only when a
    coordinate of its prefix lies in the suffix (a larger value placed
    before), and its keys come from one ClassWords.keys call: one
    256-byte table built from acc's reduced digits and one bytes.translate
    per tail, or one add and reduce per tail when the tags do not fit."""
    v, last = part[-1], len(part) - 1
    vtab = words.tables[v]
    if last and part[-2] == v:
        last -= 1
        tails = list(itertools.combinations(range(n), 2))
        tail_words = (int.from_bytes(words.reduce(vtab[i] + vtab[j]), "little") for i, j in tails)
    else:
        tails, tail_words = [(i,) for i in range(n)], vtab
    M, first = words.M, 256**words.width - 1  # a word's first digit: word & first
    groups = {}
    for t, word in zip(tails, tail_words):
        ts, ws = groups.setdefault(word & first, ([], []))
        ts.append(t)
        ws.append(words.tail(word))
    # off[s]: index of the group's first tail whose coordinates are all >= s
    groups = {
        d: (ts, ws, [bisect_left(ts, (s,)) for s in range(n + 1)])
        for d, (ts, ws) in groups.items()
    }
    plan = [(words.tables[x], n - part[s + 1 :].count(x)) for s, x in enumerate(part[:last])]
    # depth first from an explicit stack (no self-referencing closure, so
    # the keys are freed when the caller drops them, not at a later gc pass)
    leaves, stack = [], [(0, 0, (), 0)]
    while stack:
        s, start, prefix, acc = stack.pop()
        if s and not s % words.every:
            acc = int.from_bytes(words.reduce(acc), "little")
        if s == last:
            leaves.append((start, prefix, acc))
            continue
        tab, stop = plan[s]
        same = part[s + 1] == part[s]
        stack += [
            (s + 1, i + 1 if same else 0, prefix + (i,), acc + tab[i])
            for i in reversed(range(start, stop))
            if i not in prefix
        ]
    for r in range(0, M, words.scale[0] if words.scale else 1):
        keys, rows = [], []
        for start, prefix, acc in leaves:
            group = groups.get((r - (acc & first)) % M)
            if group is None:
                continue
            ts, ws, off = group
            o = off[start]
            idx, sel = range(o, len(ts)), ws[o:]
            if prefix and max(prefix) >= start:
                free = list(map(set(prefix).isdisjoint, ts[o:]))
                idx, sel = list(itertools.compress(idx, free)), itertools.compress(sel, free)
            rows.append((len(keys), prefix, ts, idx))
            keys.extend(words.keys(acc, sel))
        yield keys, rows


def _buckets(keys, rows, wanted):
    """Coordinate tuples of the placements of one pass whose key is in
    `wanted`, by key: placement start + t of a leaf row
    (start, prefix, tails, idx) of _keyed_passes is prefix + tails[idx[t]]."""
    starts = [row[0] for row in rows]
    out: dict[bytes, list[tuple]] = {}
    for j in itertools.compress(itertools.count(), map(wanted.__contains__, keys)):
        start, prefix, tails, idx = rows[bisect_right(starts, j) - 1]
        out.setdefault(keys[j], []).append(prefix + tails[idx[j - start]])
    return out


def _self_shared(placed):
    """One pass's buckets of the keys held by two or more placements."""
    counts = Counter(placed[0])
    plus = _buckets(*placed, set(itertools.compress(counts, map((1).__lt__, counts.values()))))
    return plus, plus


def _cross_shared(plus, minus):
    """One pass's buckets of the keys held by placements of both sides."""
    shared = set(plus[0]).intersection(minus[0])
    return _buckets(*plus, shared), _buckets(*minus, shared)


def shape_vectors(L: Lattice, pos, neg, cap=None):
    """All lattice vectors whose positive entries are the values `pos` and
    whose negative entries are minus the values `neg` (non-increasing
    tuples with equal sums), sorted.

    Meet in the middle (Horowitz-Sahni): placements of pos and of neg on
    disjoint coordinates give a lattice vector iff their class keys agree.
    Each side is walked once, in passes by the key's first class digit
    (_keyed_passes), and two matching keys share that digit, so pairing
    runs inside each pass and only one pass's keys are held at a time.
    A key is one bytes.translate of a stored tail (ClassWords.keys).
    In a pass the keys shared by the two sides, or by two or more
    placements when pos == neg, are picked in C, and only their
    placements are read back as coordinate tuples (_buckets), so disjoint
    pairs are tested within each shared key alone.  `cap`, or a scan's
    shared budget, bounds the placements (of one side when pos == neg)
    plus the pairs tested in those buckets, summed over the passes.
    """
    if not pos:
        return []  # the zero vector is left out
    budget = cap if isinstance(cap, _Budget) else _Budget(L.n, [(pos, neg)], cap)
    words = L.class_words()
    # map drops a pass's keys once they are bucketed, before the next pass
    if neg == pos:
        paired = map(_self_shared, _keyed_passes(L.n, pos, words))
    else:
        paired = map(
            _cross_shared, _keyed_passes(L.n, pos, words), _keyed_passes(L.n, neg, words)
        )
    signed = pos + tuple(-x for x in neg)
    out = []
    for plus, minus in paired:
        for key, A in plus.items():
            B = minus[key]
            budget.charge(len(A) * len(B))
            for a in A:
                aset = set(a)
                for b in B:
                    if aset.isdisjoint(b):
                        v = [0] * L.n
                        for i, x in zip(a + b, signed):
                            v[i] = x
                        out.append(tuple(v))
    return sorted(out)


def census_pm1(L: Lattice, q: int, cap=None, workers: int = 1):
    """All lattice vectors with exactly q entries +1 and q entries -1,
    sorted: shape_vectors on (1^q | 1^q), C(n, q) placements plus the
    pairs tested, walked in mods[0] passes by the first class digit so
    that one pass's keys are held at a time (at q = 4, five passes of
    about 135,400 of the 677,040 keys).  `workers` is accepted and
    ignored."""
    return shape_vectors(L, (1,) * q, (1,) * q, cap)


def _partitions(s: int, top: int | None = None):
    """Non-increasing tuples of positive ints summing to s."""
    if s == 0:
        yield ()
    for first in range(min(s, top or s), 0, -1):
        for rest in _partitions(s - first, first):
            yield (first,) + rest


def _shape_pairs(bound: int, n: int):
    """(positive parts, negative parts) with equal sums, at most n parts
    and squared weight <= bound; of a mirrored pair only the one with
    neg <= pos, as the other holds the negatives of its vectors."""
    parts = [p for s in range(1, bound // 2 + 1) for p in _partitions(s)]
    return [
        (p, m)
        for p in parts
        for m in parts
        if sum(p) == sum(m) and m <= p and len(p + m) <= n and sum(x * x for x in p + m) <= bound
    ]


def scan_short_vectors(L: Lattice, bound: int, cap: int | None = None, workers: int = 1):
    """Every nonzero lattice vector with squared norm <= bound, sorted.

    Complete over all integer entry shapes, so the minimum it reports is
    exact with no structural assumptions.  One shape of each mirrored pair
    is walked (the +-1 shapes by census_pm1), the other read off as -v.
    `cap` bounds the placements of all shapes, refused before any walk,
    plus the pairs tested.  Every vector found is re-checked with
    member_fast.  `workers` is accepted and ignored.
    """
    shapes = _shape_pairs(bound, L.n)
    budget = _Budget(L.n, shapes, cap)
    found = []
    for pos, neg in shapes:
        if pos == neg and set(pos) == {1}:
            vecs = census_pm1(L, len(pos), cap=budget)
        else:
            vecs = shape_vectors(L, pos, neg, budget)
        found += vecs + [tuple(-x for x in v) for v in vecs if pos != neg]
    found.sort()
    for v in found:
        if not L.member_fast(v):
            raise InternalIdentityViolationError(f"shape walk returned {v}, outside the lattice")
    return found


# -- integral LLL and exact sphere enumeration --------------------------------


def _gso_row(basis, k, d, lam):
    """Integral Gram-Schmidt data of row k from that of rows < k (Cohen,
    Alg. 2.6.7, step 2): d[k + 1] = d[k] * |b*_k|^2 with d[0] = 1, so d[i]
    is the Gram determinant of the first i rows, and lam[k][j] =
    d[j + 1] * mu_kj for j < k.  Every division is exact."""
    bk, lk = basis[k], lam[k]
    for j in range(k + 1):
        u, lj = sum(map(mul, bk, basis[j])), lam[j]
        for i in range(j):
            u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
        if j < k:
            lk[j] = u
        else:
            d[k + 1] = u
    if not d[k + 1]:
        raise ValueError("basis rows are linearly dependent")


def lll_reduce(rows):
    """An LLL-reduced basis (delta = LLL_DELTA) of the span of independent
    integer rows, as a list of tuples.

    Integral LLL (de Weger 1987; Cohen, Alg. 2.6.7): the Gram
    determinants d and the scaled coefficients lam = d * mu are integers
    and are updated in place by size reduction and swaps, so no rational
    number is formed.  Rows are size-reduced (|mu_kj| <= 1/2) and meet
    the Lovasz condition |b*_k|^2 >= (delta - mu_k,k-1^2) |b*_k-1|^2,
    which in integers reads den * (d[k+1] d[k-1] + lam^2) >= num * d[k]^2.
    """
    b = [list(row) for row in rows]
    r = len(b)
    d, lam = [1] + [0] * r, [[0] * r for _ in range(r)]
    num, den = LLL_DELTA

    def reduce(k, j):  # b_k -= round(mu_kj) * b_j
        dj, lk = d[j + 1], lam[k]
        if 2 * abs(lk[j]) > dj:
            c = (2 * lk[j] + dj) // (2 * dj)
            b[k] = [x - c * y for x, y in zip(b[k], b[j])]
            lk[j] -= c * dj
            for i, y in enumerate(lam[j][:j]):
                lk[i] -= c * y

    def swap(k, kmax):  # exchange b_k-1 and b_k
        b[k - 1], b[k] = b[k], b[k - 1]
        lo, hi = lam[k - 1], lam[k]
        lo[: k - 1], hi[: k - 1] = hi[: k - 1], lo[: k - 1]
        lk = hi[k - 1]
        B = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for li in lam[k + 1 : kmax + 1]:
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lk * t) // d[k]
            li[k - 1] = (B * t + lk * li[k]) // d[k + 1]
        d[k] = B

    if r:
        _gso_row(b, 0, d, lam)
    k, kmax = 1, 0
    while k < r:
        if k > kmax:
            kmax = k
            _gso_row(b, k, d, lam)
        reduce(k, k - 1)
        if den * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < num * d[k] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for j in range(k - 2, -1, -1):
                reduce(k, j)
            k += 1
    return [tuple(row) for row in b]


def enumerate_short_vectors(L: Lattice, bound: int, basis=None):
    """All nonzero v in L with |v|^2 <= bound as sorted (|v|^2, v) pairs,
    by Fincke-Pohst enumeration in integers only.

    `basis` is a basis of L, LLL-reduced by lll_reduce when not given.
    With d and lam its integral Gram-Schmidt data, the coefficient t of
    row i adds (t * d[i+1] + N)^2 * w_i to the scaled squared norm, where
    N = sum over j > i of c_j * lam[j][i] (the centre is -N / d[i+1]),
    w_i = D / (d[i] * d[i+1]) and D = lcm of the d[i] * d[i+1].  The
    budget is bound * D, so every comparison is between integers.  Each
    level scans up from the centre's ceiling and down from one below it,
    so the cost is monotone in each direction, and every vector found is
    re-checked against the bound.  Rank is capped at ENUM_MAX_RANK.  It is
    the engine of every Abelian minimal-vector count (the Z_7 catalogue,
    `group ls`), and the tests' oracle for the shape walk.
    """
    r = L.rank
    if r > ENUM_MAX_RANK:
        raise SearchInfeasibleError(f"rank {r} > {ENUM_MAX_RANK} for exact enumeration")
    if basis is None:
        basis = lll_reduce(L.rows)
    d, lam = [1] + [0] * r, [[0] * r for _ in range(r)]
    for k in range(r):
        _gso_row(basis, k, d, lam)
    scale = lcm(*(d[i] * d[i + 1] for i in range(r)))
    w = [scale // (d[i] * d[i + 1]) for i in range(r)]
    out = []
    coeff = [0] * r

    def descend(i, remaining):
        if i < 0:
            if any(coeff):
                v = [0] * L.n
                for c, row in zip(coeff, basis):
                    if c:
                        v = [x + c * y for x, y in zip(v, row)]
                norm2 = sum(x * x for x in v)
                if 0 < norm2 <= bound:
                    out.append((norm2, tuple(v)))
            return
        N = sum(coeff[j] * lam[j][i] for j in range(i + 1, r))
        di, wi = d[i + 1], w[i]
        up0 = -(N // di)  # ceil(-N / di)
        for t, step in ((up0, 1), (up0 - 1, -1)):
            while (cost := (t * di + N) ** 2 * wi) <= remaining:
                coeff[i] = t
                descend(i - 1, remaining - cost)
                t += step
        coeff[i] = 0

    descend(r - 1, bound * scale)
    return sorted(set(out))


def minimal_vectors(L: Lattice):
    """All minimal vectors of L, sorted.

    The basis is LLL-reduced once; its shortest row bounds the minimum
    from above, and enumerate_short_vectors walks that same basis up to
    it.  The rank is capped as for enumerate_short_vectors.
    """
    if L.rank > ENUM_MAX_RANK:
        raise SearchInfeasibleError(f"rank {L.rank} > {ENUM_MAX_RANK} for exact enumeration")
    basis = lll_reduce(L.rows)
    found = enumerate_short_vectors(L, min(sum(x * x for x in row) for row in basis), basis)
    best = found[0][0]
    return [v for norm2, v in found if norm2 == best]


# -- invariants built on minimal vectors ---------------------------------------


def generated_by_minimals_index(L: Lattice, minvecs) -> int:
    """Index [L : span(minvecs)], or 0 when the span has lower rank.

    The Hermite form of the span gives its rank and its index in A_{n-1},
    which L's index divides while the span lies in L."""
    rows, _ = intmat.hnf([v[1:] for v in minvecs], L.n - 1)
    if len(rows) < L.rank:
        return 0
    index, rest = divmod(prod(r[i] for i, r in enumerate(rows)), L.index_in_ambient())
    if rest:
        raise InternalIdentityViolationError("span of minimal vectors escaped the lattice")
    return index


# -- coordinate-permutation automorphisms --------------------------------------


def permutation_automorphisms(L: Lattice):
    """All coordinate permutations fixing index 0 that map L onto itself.

    One backtracking search over images (Plesken-Souvignier).  The
    coordinates are placed so that the basis rows with the fewest
    unplaced support coordinates are completed first, and each basis row
    is checked once, with Lattice.member_fast, as soon as its support is
    placed: a row mapped outside L drops the whole subtree.  A leaf has
    mapped every basis row into L, which is enough: a permutation has
    finite order, so one mapping L into L maps it onto L.  Every image
    tried for a coordinate is one partial map; past PERM_MAX_WORK of them
    the search raises SearchInfeasibleError naming the count and the cap.
    """
    n = L.n
    supports = [[(i, x) for i, x in enumerate(row) if x] for row in L.rows]
    # next: the unplaced support of the row with the fewest unplaced
    # coordinates (row i has its pivot at coordinate i + 1, so every
    # coordinate is in some row's support)
    order, placed = [], {0}
    while len(placed) < n:
        rest = [u for u in ({i for i, _ in sup} - placed for sup in supports) if u]
        nxt = sorted(min(rest, key=len))
        order += nxt
        placed.update(nxt)
    level = {i: k for k, i in enumerate(order)}
    checks = [[] for _ in order]  # per level: the rows whose support it completes
    for sup in supports:
        checks[max(level.get(i, -1) for i, _ in sup)].append(sup)

    out = []
    image = list(range(n))
    used = [False] * n
    used[0] = True
    tried = 0

    def maps_into_L(sup):
        v = [0] * n
        for i, x in sup:
            v[image[i]] = x
        return L.member_fast(v)

    def extend(k):
        nonlocal tried
        if k == len(order):
            out.append(tuple(image))
            return
        i = order[k]
        free = [j for j in order if not used[j]]
        tried += len(free)
        if tried > PERM_MAX_WORK:
            raise SearchInfeasibleError(
                f"permutation search tried {tried} partial maps > cap {PERM_MAX_WORK}"
            )
        for j in free:
            image[i] = j
            if all(map(maps_into_L, checks[k])):
                used[j] = True
                extend(k + 1)
                used[j] = False
        image[i] = i

    extend(0)
    return sorted(out)
