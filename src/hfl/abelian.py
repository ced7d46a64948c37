"""Lattices cut out by linear relations over a finite Abelian group.

Given G = Z_{m_1} x ... x Z_{m_k} and a subset S = {0, g_1, ..., g_{n-1}},
the lattice consists of the sum-zero integer vectors (x_1, ..., x_{n-1}, b)
whose weighted sum x_1 g_1 + ... + x_{n-1} g_{n-1} vanishes in G.  The
balancing coordinate b = -(x_1 + ... + x_{n-1}) sits last; a coordinate
permutation of interest therefore fixes the final index.

The catalogue() report walks every proper subset of Z_7 containing 0 and
records minimal distance, well-roundedness, the index of the span of the
minimal vectors, and the subset-preserving group automorphisms.
"""

import csv
import io
import itertools
from dataclasses import dataclass

from . import intmat, lattice
from .errors import EmptyGeneratorSetError, GroupTooLargeError

AUT_MAX_ORDER = 10**4
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

    def element_order(self, a) -> int:
        g, k = a, 1
        while any(g):
            g = self.add(g, a)
            k += 1
        return k

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

    def automorphisms(self):
        """All automorphisms, each a tuple perm with perm[enc(g)] = enc(phi(g)).

        Brute force over images of the canonical cyclic generators,
        pruned by element order, then checked for bijectivity.
        """
        if self.order > AUT_MAX_ORDER:
            raise GroupTooLargeError(f"|G| = {self.order} > {AUT_MAX_ORDER}")
        els = self.elements()
        candidates = []
        for i, m in enumerate(self.moduli):
            candidates.append([g for g in els if self.element_order(g) in _divisors_of(m)])
        out = []
        for images in itertools.product(*candidates):
            perm = []
            ok = True
            seen = set()
            for g in els:
                h = self.zero
                for d, img in zip(g, images):
                    if d:
                        h = self.add(h, self.scale(d, img))
                e = self.encode(h)
                if e in seen:
                    ok = False
                    break
                seen.add(e)
                perm.append(e)
            if ok:
                out.append(tuple(perm))
        return sorted(out)

    def __repr__(self):
        return f"AbelianGroup{self.moduli}"


def _divisors_of(m: int):
    return {d for d in range(1, m + 1) if m % d == 0}


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
    """The kernel lattice of S = {0} + gens, balancing coordinate last.

    gens are encodings of the nonzero elements g_1, ..., g_{n-1}; the
    lattice lives in Z^n and coordinate i < n-1 weights g_{i+1}.  Basis
    rows come from the integer left kernel of the digit matrix stacked
    on diag(moduli).
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
        vecs.append(tuple(y) + (-sum(y),))
    return lattice.Lattice.from_generators(vecs, m + 1)


def subset_index_in_ambient(group: AbelianGroup, gens) -> int:
    """|<S>|, which must equal the lattice index in A_{n-1}."""
    return len(group.subgroup_generated(gens))


def extendable_subset_perms(group: AbelianGroup, gens):
    """Permutations of S = (0, g_1, ..., g_{n-1}) that extend to Aut(G).

    Returned as sorted, deduplicated index tuples of length n fixing 0
    (position i holds the S-index of the image of g_i).
    """
    gens = _check_subset(group, gens)
    pos = {g: i + 1 for i, g in enumerate(gens)}
    out = set()
    for phi in group.automorphisms():
        images = [phi[g] for g in gens]
        if all(h in pos for h in images):
            out.add((0,) + tuple(pos[h] for h in images))
    return sorted(out)


def subset_perm_to_coordinate_perm(perm):
    """S-index permutation -> lattice coordinate permutation.

    S-index i (1-based) is coordinate i-1; the balancing coordinate
    n-1 stays put.
    """
    n = len(perm)
    out = [0] * n
    for i in range(1, n):
        out[i - 1] = perm[i] - 1
    out[n - 1] = n - 1
    return tuple(out)


def perms_correspond(L: lattice.Lattice, subset_perms, minvecs=None) -> bool:
    """Do the subset permutations, as coordinate permutations, equal those
    of L fixing its balancing index (searched over minvecs when given)?"""
    from_group = {subset_perm_to_coordinate_perm(p) for p in subset_perms}
    return from_group == set(lattice.permutation_automorphisms(L, L.n - 1, minvecs))


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


def _z7_aut_star_digits(gens) -> str:
    """Digits j for which s -> j*s mod 7 preserves {0} | gens."""
    s = set(gens)
    out = []
    for j in range(1, 7):
        if {(j * g) % 7 for g in s} == s:
            out.append(str(j))
    return "".join(out)


def catalogue():
    """One row per proper subset {0} < S < Z_7 with 0 in S, in report order:
    by subset size, then minimal distance descending, then label."""
    group = AbelianGroup((7,))
    rows = []
    for k in range(1, 6):
        for gens in itertools.combinations(range(1, 7), k):
            L = lattice_for_subset(group, gens)
            minvecs = lattice.minimal_vectors(L)
            d2 = sum(x * x for x in minvecs[0])
            rows.append(
                CatalogueRow(
                    n_minus_1=k,
                    label="".join(str(g) for g in gens),
                    d_squared=d2,
                    well_rounded=lattice.well_rounded(L, minvecs),
                    gen_by_min_index=lattice.generated_by_minimals_index(L, minvecs),
                    aut_star=_z7_aut_star_digits(gens),
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
