"""Lattices cut out by linear relations over a finite Abelian group.

Given G = Z_{m_1} x ... x Z_{m_k} and a subset S = {0, g_1, ..., g_{n-1}},
the lattice consists of the sum-zero integer vectors (b, x_1, ..., x_{n-1})
whose weighted sum x_1 g_1 + ... + x_{n-1} g_{n-1} vanishes in G.  The
balancing coordinate b = -(x_1 + ... + x_{n-1}) belongs to 0 in S and sits
first, as P_inf does in the Hermitian lattice: coordinate i is the S-index
i, and a coordinate permutation of interest fixes index 0.

The catalogue() report walks every proper subset of Z_7 containing 0 and
records minimal distance, well-roundedness, the index of the span of the
minimal vectors, and the subset-preserving group automorphisms.

The permutation correspondence compares two independent searches: the
automorphisms of G preserving S, from AbelianGroup.automorphisms pruned
by S, and the lattice's coordinate permutations, from
lattice.permutation_automorphisms pruned by its basis rows.
"""

import csv
import io
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from . import intmat, lattice
from .errors import EmptyGeneratorSetError, GroupTooLargeError
from .gf import _prime_powers

AUT_MAX_WORK = 10**6  # |Aut(G)| * |G|: the entries of the full listing, bounding any search
ENUMERATION_MAX_ORDER = 10**6


class AbelianGroup:
    """Direct product of cyclic groups, elements as mixed-radix tuples."""

    def __init__(self, moduli):
        moduli = tuple(int(m) for m in moduli)
        if not moduli or any(m < 2 for m in moduli):
            raise ValueError(f"moduli must all be >= 2, got {moduli}")
        self.moduli = moduli
        self.order = 1
        for m in moduli:
            self.order *= m
        if self.order > ENUMERATION_MAX_ORDER:
            raise GroupTooLargeError(f"|G| = {self.order} > {ENUMERATION_MAX_ORDER}")
        self.zero = (0,) * len(moduli)

    def decode(self, enc: int):
        digits = []
        for m in self.moduli:
            digits.append(enc % m)
            enc //= m
        return tuple(digits)

    def encode(self, g) -> int:
        out = 0
        for d, m in zip(reversed(g), reversed(self.moduli)):
            out = out * m + d
        return out

    def elements(self):
        return [self.decode(e) for e in range(self.order)]

    def add(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def neg(self, a):
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def scale(self, k: int, a):
        return tuple((k * x) % m for x, m in zip(a, self.moduli))

    def subgroup_generated(self, gens):
        """Set of elements reachable from gens; gens may be encodings or tuples."""
        gens = [self.decode(g) if isinstance(g, int) else tuple(g) for g in gens]
        seen = {self.zero}
        frontier = [self.zero]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = self.add(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def automorphism_count(self) -> int:
        """|Aut(G)| from Hillar and Rhea's closed form (Amer. Math. Monthly
        114, 2007), one p-primary part at a time: for exponents
        e_1 <= ... <= e_n with d_k = max{l : e_l = e_k} and
        c_k = min{l : e_l = e_k}, |Aut| is the product over k of
        (p^d_k - p^(k-1)) * p^(e_k (n - d_k)) * p^((e_k - 1)(n - c_k + 1))."""
        parts = {}
        for m in self.moduli:
            for p, e in _prime_powers(m):
                parts.setdefault(p, []).append(e)
        out = 1
        for p, es in parts.items():
            es.sort()
            n = len(es)
            for k, e in enumerate(es, 1):
                d, c = bisect_right(es, e), bisect_left(es, e) + 1
                out *= (p**d - p ** (k - 1)) * p ** (e * (n - d) + (e - 1) * (n - c + 1))
        return out

    def automorphisms(self, preserving=()):
        """The automorphisms phi with phi(S) = S for S the encodings
        `preserving` (all of Aut(G) by default), each a tuple perm with
        perm[enc(g)] = enc(phi(g)), in increasing order.

        Depth-first extension one canonical generator e_j at a time.  The
        encodings below m_1...m_{j-1} are the subgroup H = <e_1..e_{j-1}>,
        whose images are already fixed; an image x of e_j needs m_j x = 0
        and d x outside phi(H) for 0 < d < m_j (cosets are equal or
        disjoint, so one element per coset decides it).  Then the coset
        d e_j + H maps to d x + phi(H), built by translating the previous
        coset with a table of enc(a + x), made once per call for each image
        x chosen.  A rejected x is never built, and trying images in
        increasing order emits the perms sorted.  The elements of S first
        reached at level j, the encodings in [m_1...m_{j-1}, m_1...m_j),
        are settled there: a partial map sending one of them outside S is
        dropped with its whole subtree.  As phi is a bijection,
        phi(S) <= S already gives phi(S) = S.

        The work is at most the full listing, |Aut(G)| * |G| entries,
        charged from the closed form before any search; above AUT_MAX_WORK
        the call raises GroupTooLargeError naming the cost and the cap.  An
        encoding outside [0, |G|) in `preserving` raises ValueError.
        """
        for s in preserving:
            if not 0 <= s < self.order:
                raise ValueError(f"preserved element {s} outside 0..{self.order - 1}")
        cost = self.automorphism_count() * self.order
        if cost > AUT_MAX_WORK:
            raise GroupTooLargeError(
                f"listing Aut(G) costs |Aut(G)|*|G| = {cost} > cap {AUT_MAX_WORK}"
            )
        moduli = self.moduli
        strides = [1]
        for m in moduli[:-1]:
            strides.append(strides[-1] * m)

        def encodings(digit_lists):
            """Encodings of the digit product, position i for digits decode(i)."""
            out = [0]
            for digits, s in zip(digit_lists, strides):
                out = [d * s + c for d in digits for c in out]
            return out

        # per level: (x, enc(d x) for 0 < d < m_j) for every x of order m_j
        levels = []
        for m in moduli:
            level = []
            for x in encodings([[t for t in range(mt) if m * t % mt == 0] for mt in moduli]):
                cols = [
                    [v % mt * s for v in range(t, t * m, t)] if t else [0] * (m - 1)
                    for t, mt, s in zip(self.decode(x), moduli, strides)
                ]
                mults = list(map(sum, zip(*cols)))
                if 0 not in mults:
                    level.append((x, mults))
            levels.append(level)
        in_S = bytearray(self.order)
        for s in preserving:
            in_S[s] = 1
        settled = [[s for s in preserving if t <= s < t * m] for t, m in zip(strides, moduli)]
        shifts = {}
        out = []

        def extend(j, img):
            if j == len(moduli):
                out.append(tuple(img))
                return
            inside = bytearray(self.order)
            for y in img:
                inside[y] = 1
            for x, mults in levels[j]:
                if any(map(inside.__getitem__, mults)):
                    continue
                if j == 0:  # phi(H) = {0}: the cosets are the multiples of x
                    new = [0, *mults]
                else:
                    shift = shifts.get(x)
                    if shift is None:
                        xs = zip(self.decode(x), moduli)
                        shift = encodings([[(d + t) % mt for d in range(mt)] for t, mt in xs])
                        shifts[x] = shift
                    new = list(img)
                    block = img
                    for _ in range(1, moduli[j]):
                        block = list(map(shift.__getitem__, block))
                        new += block
                if all(map(in_S.__getitem__, map(new.__getitem__, settled[j]))):
                    extend(j + 1, new)

        extend(0, (0,))
        return out

    def __repr__(self):
        return f"AbelianGroup{self.moduli}"


def _check_subset(group: AbelianGroup, gens):
    gens = [int(g) for g in gens]
    if not gens:
        raise EmptyGeneratorSetError("subset needs at least one nonzero element")
    if len(set(gens)) != len(gens):
        raise ValueError(f"subset elements must be distinct: {gens}")
    for g in gens:
        if not 0 < g < group.order:
            raise ValueError(f"subset element {g} outside 1..{group.order - 1}")
    return gens


def lattice_for_subset(group: AbelianGroup, gens) -> lattice.Lattice:
    """The kernel lattice of S = {0} + gens, balancing coordinate first.

    gens are encodings of the nonzero elements g_1, ..., g_{n-1}; the
    lattice lives in Z^n and coordinate i > 0 weights g_i.  Basis rows
    come from the integer left kernel of the digit matrix stacked on
    diag(moduli).
    """
    gens = _check_subset(group, gens)
    k = len(group.moduli)
    m = len(gens)
    rows = [list(group.decode(g)) for g in gens]
    for t in range(k):
        rel = [0] * k
        rel[t] = group.moduli[t]
        rows.append(rel)
    kernel = intmat.left_kernel(rows, k)
    vecs = []
    for w in kernel:
        y = w[:m]
        vecs.append((-sum(y), *y))
    return lattice.Lattice.from_generators(vecs, m + 1)


def subset_index_in_ambient(group: AbelianGroup, gens) -> int:
    """|<S>|, which must equal the lattice index in A_{n-1}."""
    return len(group.subgroup_generated(gens))


def extendable_subset_perms(group: AbelianGroup, gens):
    """Permutations of S = (0, g_1, ..., g_{n-1}) that extend to Aut(G).

    Returned as sorted, deduplicated index tuples of length n fixing 0
    (position i holds the S-index of the image of g_i), read off the
    automorphisms that AbelianGroup.automorphisms lists preserving S.
    """
    gens = _check_subset(group, gens)
    pos = {g: i + 1 for i, g in enumerate(gens)}
    perms = group.automorphisms(gens)
    return sorted({(0, *map(pos.__getitem__, map(phi.__getitem__, gens))) for phi in perms})


def perms_correspond(L: lattice.Lattice, subset_perms) -> bool:
    """Do the subset permutations, read as coordinate permutations, equal
    those of L fixing its balancing index 0?"""
    return set(subset_perms) == set(lattice.permutation_automorphisms(L))


def check_permutation_correspondence(group: AbelianGroup, gens) -> bool:
    """Subset-extendable permutations vs the lattice's own coordinate
    permutation group, computed by independent routes; true iff equal."""
    gens = _check_subset(group, gens)
    return perms_correspond(lattice_for_subset(group, gens), extendable_subset_perms(group, gens))


# -- the Z_7 catalogue ----------------------------------------------------------


@dataclass(frozen=True)
class CatalogueRow:
    n_minus_1: int
    label: str
    d_squared: int
    well_rounded: bool
    gen_by_min_index: int
    aut_star: str


def catalogue():
    """One row per proper subset {0} < S < Z_7 with 0 in S, in report order:
    by subset size, then minimal distance descending, then label.  aut_star
    lists phi(1) for the automorphisms phi of Z_7 with phi(S) = S."""
    group = AbelianGroup((7,))
    rows = []
    for k in range(1, 6):
        for gens in itertools.combinations(range(1, 7), k):
            L = lattice_for_subset(group, gens)
            minvecs = lattice.minimal_vectors(L)
            d2 = sum(x * x for x in minvecs[0])
            index = lattice.generated_by_minimals_index(L, minvecs)  # 0: rank-deficient span
            rows.append(
                CatalogueRow(
                    n_minus_1=k,
                    label="".join(str(g) for g in gens),
                    d_squared=d2,
                    well_rounded=index != 0,
                    gen_by_min_index=index,
                    aut_star="".join(str(phi[1]) for phi in group.automorphisms(gens)),
                )
            )
    rows.sort(key=lambda r: (r.n_minus_1, -r.d_squared, r.label))
    return rows


CSV_HEADER = ["n_minus_1", "label", "d_squared", "well_rounded", "gen_by_min_index", "aut_star"]


def catalogue_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in rows:
        w.writerow(
            [
                r.n_minus_1,
                r.label,
                r.d_squared,
                "true" if r.well_rounded else "false",
                r.gen_by_min_index,
                r.aut_star,
            ]
        )
    return buf.getvalue()
