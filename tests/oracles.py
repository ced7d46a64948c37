"""Slow, independent routes that the tests compare the library against."""

import itertools
from array import array
from collections import Counter

from hfl import hermlat, intmat
from hfl.curve import Slope, Vertical
from hfl.errors import DimensionMismatchError, NotOnCurveError
from hfl.lattice import Lattice


def permute(vec, perm):
    """Move the value at coordinate i to coordinate perm[i], densely."""
    out = [0] * len(vec)
    for i, x in enumerate(vec):
        out[perm[i]] = x
    return tuple(out)


def points_on_line_bruteforce(curve, line):
    """Affine curve points on the line, by substituting every affine place
    into the line equation."""
    F = curve.field
    pts = []
    for pl in curve.places[1:]:
        a, b = pl
        if isinstance(line, Vertical):
            onit = a == line.c
        else:
            onit = F.add(b, F.add(F.mul(line.b, a), line.c)) == 0
        if onit:
            pts.append(pl)
    return tuple(pts)


def divisor_from_points(curve, line, pts):
    """The line's valuation vector from its affine points: each point
    weighted 1, or q + 1 at a tangency, and the balancing pole at infinity."""
    div = [0] * curve.n
    weight = curve.q + 1 if len(pts) == 1 else 1
    for pt in pts:
        div[curve.place_index[pt]] = weight
    div[0] = -sum(div)
    return tuple(div)


def dense_vector(n, support):
    """The n-wide vector with the given {index: value} entries, zero elsewhere."""
    vec = [0] * n
    for i, x in support.items():
        vec[i] = x
    return tuple(vec)


def dense_lattice(curve):
    """L built the dense way: every line's n-wide divisor, its projection
    dropping coordinate 0, and the Hermite form of those rows, each row
    lifted back to sum zero by Lattice."""
    tails = [curve.divisor_of_line(line)[1:] for line in curve.all_lines()]
    rows, _ = intmat.hnf(tails, curve.n - 1)
    return Lattice(curve.n, rows)


def family_pass(curve):
    """(sizes, norms, distinct) of the family vectors, by walking them:
    counts per family and in total, a Counter of squared norms, and how
    many are distinct.  One walk over hermlat.family_pairs holds no dense
    vector: each Curve.quotient_support is kept as a packed key, index << 8
    | value & 255 per nonzero entry, which is injective while every |value|
    < 128, as norm^2 = 2q <= 16 ensures."""
    sizes = dict.fromkeys(hermlat.FAMILIES, 0)
    norms = Counter()
    keys = set()
    for family, num, den in hermlat.family_pairs(curve):
        sizes[family] += 1
        vec = curve.quotient_support(num, den)
        norms[sum(x * x for x in vec.values())] += 1
        keys.add(array("i", sorted([i << 8 | x & 255 for i, x in vec.items()])).tobytes())
    sizes["total"] = sum(sizes.values())
    return sizes, norms, len(keys)


def element_order(G, a) -> int:
    """The least k >= 1 with k * a = 0 in G, by repeated addition."""
    g, k = a, 1
    while any(g):
        g = G.add(g, a)
        k += 1
    return k


def automorphisms_bruteforce(G):
    """Aut(G) as sorted perms with perm[enc(g)] = enc(phi(g)): every tuple of
    images of the canonical generators whose orders divide the moduli,
    kept when the map it defines is a bijection."""
    els = G.elements()
    candidates = [[g for g in els if m % element_order(G, g) == 0] for m in G.moduli]
    out = []
    for images in itertools.product(*candidates):
        perm = []
        seen = set()
        for g in els:
            h = G.zero
            for d, img in zip(g, images):
                if d:
                    h = G.add(h, G.scale(d, img))
            e = G.encode(h)
            if e in seen:
                break
            seen.add(e)
            perm.append(e)
        else:
            out.append(tuple(perm))
    return sorted(out)


def field_tables_schoolbook(p, k, modulus):
    """The add and mul tables of GF(p^k) on integer encodings (digit i is
    the coefficient of x^i), as lists of rows: digit-wise sums mod p, and
    schoolbook polynomial products reduced by the monic modulus."""
    order = p**k
    digits = []
    for a in range(order):
        d = []
        for _ in range(k):
            a, r = divmod(a, p)
            d.append(r)
        digits.append(d)
    weights = [p**i for i in range(k)]

    def encode(coeffs):
        return sum(c % p * w for c, w in zip(coeffs, weights))

    add = [[encode([x + y for x, y in zip(da, db)]) for db in digits] for da in digits]
    mul = []
    for da in digits:
        row = []
        for db in digits:
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(da):
                if x:
                    for j, y in enumerate(db):
                        prod[i + j] += x * y
            for top in range(2 * k - 2, k - 1, -1):  # x^k = -(m_0 + ... + m_{k-1} x^{k-1})
                c = prod[top] % p
                if c:
                    for j in range(k):
                        prod[top - k + j] -= c * modulus[j]
            row.append(encode(prod[:k]))
        mul.append(row)
    return add, mul


def smallest_irreducible(p, k):
    """The monic irreducible of degree k over GF(p) whose non-leading
    coefficients have the smallest integer encoding, little-endian: the
    first monic polynomial in encoding order that no monic polynomial of
    degree 1 to k // 2 divides, by trial division."""

    def monic(d):  # every monic polynomial of degree d, in encoding order
        for high_first in itertools.product(range(p), repeat=d):
            yield high_first[::-1] + (1,)

    def divides(g, f):
        r = list(f)
        for top in range(len(f) - 1, len(g) - 2, -1):
            c = r[top] % p
            for j, x in enumerate(g):
                r[top - len(g) + 1 + j] -= c * x
        return not any(x % p for x in r)

    for f in monic(k):
        if not any(divides(g, f) for d in range(1, k // 2 + 1) for g in monic(d)):
            return f
    raise AssertionError(f"no irreducible of degree {k} over GF({p})")


def solve_in_span(rows, pivots, vec):
    """Coefficients expressing vec over echelon rows, or None: plain
    back-substitution.  Row i must vanish at the pivots of the rows
    before it, and rows[i][pivots[i]] != 0."""
    v = list(vec)
    coeffs = [0] * len(rows)
    for i, (r, c) in enumerate(zip(rows, pivots)):
        if v[c]:
            if v[c] % r[c]:
                return None
            coeffs[i] = m = v[c] // r[c]
            v = [x - m * y for x, y in zip(v, r)]
    return None if any(v) else coeffs


def contains(L, v) -> bool:
    """Membership in L by back-substitution over its basis rows, whose
    pivots are coordinates 1 to n - 1; a vector of nonzero sum keeps a
    residue at coordinate 0."""
    if len(v) != L.n:
        raise DimensionMismatchError(f"vector length {len(v)} != n = {L.n}")
    return solve_in_span(L.rows, range(1, L.n), v) is not None


def class_of(L, v) -> tuple:
    """The class of v, sum(v[i] * cls[i]) over the class map (mods, cls),
    summed component by component and taken mod mods, with no packing."""
    if len(v) != L.n:
        raise DimensionMismatchError(f"vector length {len(v)} != n = {L.n}")
    mods, cls = L.class_map()
    return tuple(sum(x * c[t] for x, c in zip(v, cls)) % m for t, m in enumerate(mods))


def mult_order(F, a) -> int:
    """The least k >= 1 with a^k = 1 in F, by repeated multiplication."""
    if a == 0:
        raise ZeroDivisionError("0 is not a unit")
    x, k = a, 1
    while x != 1:
        x = F.mul(x, a)
        k += 1
    return k


def tangent_line_at(curve, a, b) -> Slope:
    """The unique line meeting the curve only at (a, b): y - a^q*x + b^q."""
    F = curve.field
    if F.trace(b) != F.norm(a):
        raise NotOnCurveError(f"({a}, {b}) does not satisfy the curve equation")
    return Slope(F.neg(F.frobenius(a)), F.frobenius(b))


def orbit_of_vector(group, v):
    """The orbit of v under the group's generators, as a set."""
    seen, todo = {tuple(v)}, [tuple(v)]
    while todo:
        w = todo.pop()
        for g in group.generators:
            u = permute(w, g)
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return seen


def orbit_of_pair(group, i, j):
    """The orbit of the ordered pair (i, j) under the group's generators."""
    seen, todo = {(i, j)}, [(i, j)]
    while todo:
        a, b = todo.pop()
        for g in group.generators:
            if (g[a], g[b]) not in seen:
                seen.add((g[a], g[b]))
                todo.append((g[a], g[b]))
    return seen


def smith_normal_form(mat, width: int):
    """The integer Smith form with both column transforms: the dense
    diagonalization by unimodular row and column operations that the
    library's divisor count modulo the exponent is checked against.

    Returns (divisors, V, Vinv) where divisors is the full diagonal
    (nonnegative, each dividing the next among the nonzero ones) and V,
    Vinv are the accumulated column transform and its inverse: for the
    input A there is a unimodular U with U*A*V = diag(divisors), hence a
    row vector x lies in the row span of A iff (x*V)[t] is divisible by
    divisors[t] for every t (zero divisors demand zero entries).
    """
    W = [list(row) for row in mat]
    R, C = len(W), width
    for row in W:
        if len(row) != C:
            raise ValueError("ragged matrix")
    V = [[int(i == j) for j in range(C)] for i in range(C)]
    Vinv = [row[:] for row in V]

    def col_swap(a, b):
        for row in W:
            row[a], row[b] = row[b], row[a]
        for row in V:
            row[a], row[b] = row[b], row[a]
        Vinv[a], Vinv[b] = Vinv[b], Vinv[a]

    def col_add(src, dst, k):
        for row in W:
            if row[src]:
                row[dst] += k * row[src]
        for row in V:
            if row[src]:
                row[dst] += k * row[src]
        Vinv[src] = [x - k * y for x, y in zip(Vinv[src], Vinv[dst])]

    def col_neg(a):
        for row in W:
            row[a] = -row[a]
        for row in V:
            row[a] = -row[a]
        Vinv[a] = [-x for x in Vinv[a]]

    t = 0
    bound = min(R, C)
    while t < bound:
        best = None
        for i in range(t, R):
            wr = W[i]
            for j in range(t, C):
                w = wr[j]
                if w and (best is None or abs(w) < best[0]):
                    best = (abs(w), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            W[t], W[bi] = W[bi], W[t]
        if bj != t:
            col_swap(t, bj)
        while True:
            restart = False
            for i in range(t + 1, R):
                if W[i][t]:
                    q, rm = divmod(W[i][t], W[t][t])
                    if q:
                        W[i] = [x - q * y for x, y in zip(W[i], W[t])]
                    if rm:
                        W[t], W[i] = W[i], W[t]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, C):
                if W[t][j]:
                    q, rm = divmod(W[t][j], W[t][t])
                    if q:
                        col_add(t, j, -q)
                    if rm:
                        col_swap(t, j)
                        restart = True
                        break
            if restart:
                continue
            stray = None
            for i in range(t + 1, R):
                wr = W[i]
                for j in range(t + 1, C):
                    if wr[j] % W[t][t]:
                        stray = i
                        break
                if stray is not None:
                    break
            if stray is None:
                break
            W[t] = [x + y for x, y in zip(W[t], W[stray])]
        if W[t][t] < 0:
            col_neg(t)
        t += 1
    divisors = [W[i][i] if i < R else 0 for i in range(bound)]
    return divisors, V, Vinv
