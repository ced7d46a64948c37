"""Curve automorphisms as permutations of the rational places.

A permutation is its image tuple: g[i] is the index of the place that
place i goes to, and _mul(a, b) is a after b.  Three explicit families
act on the place list: translations by curve points, scalings compatible
with the defining equation's weighting, and the inversion swapping the
infinite place with the origin.  The group
they generate is held as a base and strong generating set, built by
deterministic Schreier-Sims (Sims 1970; Seress, *Permutation Group
Algorithms*, 2003).  Its order, point stabilizers, orbits, membership and
the kernel of the induced action on the divisor class group are all
computed exactly from the stabilizer chain, never assumed, and without
listing the group, so no group order is refused.  ``closure`` lists every
element by BFS, within ``max_order``, and is kept as the independent
oracle that the tests compare the chain against.
"""

from dataclasses import dataclass
from math import prod

from .curve import Curve
from .errors import (
    InternalIdentityViolationError,
    LatticeNotStableError,
    NotOnCurveError,
    OrderBudgetExceededError,
    ZeroScalarError,
)

DEFAULT_ORDER_CAP = 10**6


def _mul(a, b):
    """a after b on image tuples: _mul(a, b)[i] = a[b[i]]."""
    return tuple(map(a.__getitem__, b))


def _inv(a):
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def _affine_perm(curve: Curve, point_map, tag: str, inf_image=None) -> tuple:
    """The image tuple of an affine point map, checking every image lands
    back on the curve and the whole map is a bijection.  The infinite
    place is None (index 0): a point mapped to None goes there, and
    inf_image is where it goes."""
    image = [0] * curve.n
    image[0] = curve.place_index[inf_image]
    for idx, pt in enumerate(curve.places[1:], start=1):
        target = point_map(pt)
        j = curve.place_index.get(target)
        if j is None:
            raise NotOnCurveError(f"{tag} maps {pt} to {target}, not a curve point")
        image[idx] = j
    if len(set(image)) != curve.n:
        raise InternalIdentityViolationError(f"{tag} is not a bijection")
    return tuple(image)


def translation(curve: Curve, a: int, b: int) -> tuple:
    """(u, v) -> (u + a, v + a^q u + b); a curve automorphism exactly
    when (a, b) is itself a curve point, and the infinite place stays put."""
    F = curve.field
    if (a, b) not in curve.place_index:
        raise NotOnCurveError(f"translation parameters ({a}, {b}) not on the curve")
    aq = F.frobenius(a)

    def step(pt):
        u, v = pt
        return (F.add(u, a), F.add(v, F.add(F.mul(aq, u), b)))

    return _affine_perm(curve, step, f"translation({a},{b})")


def scaling(curve: Curve, lam: int) -> tuple:
    """(u, v) -> (lam u, lam^{q+1} v), fixing the infinite place."""
    F = curve.field
    if lam == 0:
        raise ZeroScalarError("scaling by zero is not invertible")
    lam_pow = F.pow(lam, curve.q + 1)

    def step(pt):
        u, v = pt
        return (F.mul(lam, u), F.mul(lam_pow, v))

    return _affine_perm(curve, step, f"scaling({lam})")


def inversion(curve: Curve) -> tuple:
    """Swap the infinite place with the origin place; elsewhere
    (u, v) -> (u/v, 1/v).  Only the origin has v = 0."""
    F = curve.field

    def step(pt):
        u, v = pt
        return None if v == 0 else (F.div(u, v), F.inv(v))

    return _affine_perm(curve, step, "inversion", inf_image=(0, 0))


@dataclass(frozen=True, eq=False)
class PermGroup:
    """A permutation group as a base and strong generating set.

    Every permutation here is an image tuple: generators, strong[l] and
    the coset representatives alike.  Level l of the stabilizer chain has
    base point base[l]; strong[l] generates the pointwise stabilizer of
    base[:l], and transversals[l] maps each point p of the basic orbit of
    base[l] to a coset representative u with u(base[l]) = p.
    """

    degree: int
    generators: tuple
    base: tuple
    transversals: tuple
    strong: tuple

    @property
    def order(self) -> int:
        return prod(len(t) for t in self.transversals)

    def __contains__(self, g: tuple) -> bool:
        """Sift g through the chain."""
        if len(g) != self.degree:
            return False
        for b, t in zip(self.base, self.transversals):
            u = t.get(g[b])
            if u is None:
                return False
            g = _mul(_inv(u), g)
        return all(i == j for i, j in enumerate(g))


def _chain(gens, n: int, prefix=()):
    """Deterministic Schreier-Sims on image tuples.

    Returns (kept, base, transversals, strong) with the base starting
    with prefix.  Generators are added one at a time, each as its residue
    after sifting, and only when that residue is not the identity; kept
    lists those, each outside the group of the ones before it.  Coset
    representatives are only ever added, never replaced, so a Schreier
    generator that has been sifted once never needs sifting again;
    done[l] records those (point, generator) pairs.
    """
    ident = tuple(range(n))
    base = list(prefix)
    strong = [[] for _ in base]
    trans = [{b: ident} for b in base]
    invs = [{b: ident} for b in base]
    done = [set() for _ in base]

    def extend_orbit(l):
        t, inv, pts = trans[l], invs[l], list(trans[l])
        for p in pts:
            for s in strong[l]:
                r = s[p]
                if r not in t:
                    t[r] = u = _mul(s, t[p])
                    inv[r] = _inv(u)
                    pts.append(r)

    def sift(g, start):
        for l in range(start, len(base)):
            u = invs[l].get(g[base[l]])
            if u is None:
                return g, l
            g = _mul(u, g)
        return g, len(base)

    def add(h, top, j):
        """Add h, which fixes base[:j], to levels top..j."""
        if j == len(base):
            b = next(i for i in range(n) if h[i] != i)
            base.append(b)
            strong.append([])
            trans.append({b: ident})
            invs.append({b: ident})
            done.append(set())
        for m in range(top, j + 1):
            strong[m].append(h)
            extend_orbit(m)

    def schreier_generators(l):
        t, inv = trans[l], invs[l]
        for p, u in list(t.items()):
            for k, s in enumerate(strong[l]):
                if (p, k) not in done[l]:
                    done[l].add((p, k))
                    yield _mul(inv[s[p]], _mul(s, u))

    def complete(l):
        """Make levels l, l-1, ..., 0 complete, given that levels below l are."""
        while l >= 0:
            for h in schreier_generators(l):
                h, j = sift(h, l + 1)
                if j < len(base) or h != ident:
                    add(h, l + 1, j)
                    l = j
                    break
            else:
                l -= 1

    # generators that already sift through the chain so far are redundant
    kept = []
    for g in gens:
        h, j = sift(g, 0)
        if j < len(base) or h != ident:
            kept.append(g)
            add(h, 0, j)
            complete(j)
    return tuple(kept), tuple(base), tuple(trans), tuple(tuple(s) for s in strong)


def schreier_sims(generators, base=()) -> PermGroup:
    """The group generated by image tuples, as a BSGS whose base starts
    with `base`, keeping as its generators those that extend the chain."""
    generators = tuple(generators)
    if not generators:
        raise ValueError("need at least one generator")
    n = len(generators[0])
    return PermGroup(n, *_chain(generators, n, base))


@dataclass(frozen=True)
class ListedGroup:
    """A group given by the list of all its elements (image tuples), sorted."""

    elements: tuple
    generators: tuple

    @property
    def order(self) -> int:
        return len(self.elements)


def closure(generators, max_order: int = DEFAULT_ORDER_CAP) -> ListedGroup:
    """Every element of the group the image tuples generate, by BFS under
    _mul, refused above max_order elements.  The oracle that the tests
    compare the stabilizer chain against; the benchmark's tracer wraps it
    and reads ListedGroup.order."""
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    identity = tuple(range(len(generators[0])))
    seen = {identity}
    queue = [identity]
    while queue:
        cur = queue.pop()
        for g in generators:
            nxt = _mul(g, cur)
            if nxt not in seen:
                if len(seen) >= max_order:
                    raise OrderBudgetExceededError(
                        f"closure exceeded {max_order} elements"
                    )
                seen.add(nxt)
                queue.append(nxt)
    return ListedGroup(tuple(sorted(seen)), tuple(generators))


def translation_generators(curve: Curve):
    """A compact set generating all q^3 translations: one translation per
    x-coordinate plus the vertical translations by trace-zero shifts."""
    F = curve.field
    gens = []
    for a in range(F.order):
        b = F.trace_fiber(F.norm(a))[0]
        gens.append(translation(curve, a, b))
    for rho in F.trace_fiber(0):
        if rho != 0:
            gens.append(translation(curve, 0, rho))
    return gens


def full_group(curve: Curve, max_order=None) -> PermGroup:
    """The group generated by translations, scalings, and the inversion,
    with the infinite place as first base point.  max_order is accepted
    and ignored: the chain never lists the group, so no order is refused."""
    F = curve.field
    gens = translation_generators(curve)
    gens.append(scaling(curve, F.root_of_unity(F.order - 1)))
    gens.append(inversion(curve))
    return schreier_sims(gens, base=(0,))


def stabilizer(group: PermGroup, index: int = 0) -> PermGroup:
    """The stabilizer of one place: level 1 of a chain whose base starts
    at index (the chain is rebuilt when it starts elsewhere)."""
    if group.base[:1] != (index,):
        group = PermGroup(group.degree, *_chain(group.generators, group.degree, (index,)))
    return PermGroup(
        group.degree,
        group.strong[1] if len(group.strong) > 1 else (),
        group.base[1:],
        group.transversals[1:],
        group.strong[1:],
    )


def orbit_of_index(group: PermGroup, index: int):
    """The orbit of a place index, by BFS over the group's generators."""
    seen, todo = {index}, [index]
    while todo:
        i = todo.pop()
        for g in group.generators:
            if g[i] not in seen:
                seen.add(g[i])
                todo.append(g[i])
    return seen


def lattice_stable_under(group: PermGroup, L, generators_only=True) -> bool:
    """True iff every group element maps the lattice onto itself.

    The check runs over group.generators alone, which is equivalent:
    stability is closed under composition and, the group being finite,
    under inversion.  generators_only is accepted and ignored.
    """
    return all(L.fixed_by(g) for g in group.generators)


@dataclass(frozen=True)
class ClassgroupAction:
    """The induced action on the quotient group A_{n-1}/L.

    mods are the orders of the class map's components, and matrices[i]
    holds, for group.generators[i], the class of its image of e_b - e_0
    for each block coordinate b in L.block: those whose Hermite pivot is
    not 1, whose classes generate the quotient.  kernel_size is counted
    exactly on the stabilizer chain, and image_order is |G| / kernel_size."""

    mods: tuple
    matrices: tuple
    kernel_size: int
    injective: bool
    image_order: int


def _shift(c, d, mods, sign=1):
    """The class c + sign * d, componentwise mod mods."""
    return tuple((x + sign * y) % m for x, y, m in zip(c, d, mods))


def _kernel_size(group: PermGroup, cls, mods) -> int:
    """Count the g with c[g(i)] - c[g(b0)] = c[i] - c[b0] for every place
    i, where c is the class map and b0 the first base point.

    Backtracking over the transversals: g = u_0 u_1 ... u_k ... and the
    product of the first k + 1 factors already determines g(b_k), so a branch
    survives only while the identity holds at every base point fixed so
    far.  A leaf counts only if it holds at every place.
    """
    base, trans, n = group.base, group.transversals, group.degree
    if not base:
        return 1

    ids = {}
    cid = [ids.setdefault(c, len(ids)) for c in cls]
    want = [_shift(c, cls[base[0]], mods, -1) for c in cls]  # c[i] - c[b0]
    count = 0

    def descend(level, g, anchor, targets):
        nonlocal count
        if level == len(base):
            count += all(cls[g[i]] == _shift(anchor, want[i], mods) for i in range(n))
            return
        t = targets[level]
        for p, u in trans[level].items():
            if cid[g[p]] == t:  # g(u(b_level)) = g(p)
                descend(level + 1, _mul(g, u), anchor, targets)

    for p0, u0 in trans[0].items():
        anchor = cls[p0]
        targets = [ids.get(_shift(anchor, want[b], mods), -1) for b in base]
        descend(1, u0, anchor, targets)
    return count


def induced_classgroup_action(group: PermGroup, L) -> ClassgroupAction:
    """The action on A_{n-1}/L, after re-checking that the generators fix L."""
    if not lattice_stable_under(group, L):
        raise LatticeNotStableError("a generator moves the lattice; no induced action")
    mods, cls = L.class_map()
    matrices = tuple(
        tuple(_shift(cls[g[b]], cls[g[0]], mods, -1) for b in L.block) for g in group.generators
    )
    kernel = _kernel_size(group, cls, mods)
    return ClassgroupAction(
        mods=tuple(mods),
        matrices=matrices,
        kernel_size=kernel,
        injective=(kernel == 1),
        image_order=group.order // kernel,
    )
