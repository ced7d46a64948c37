"""Curve automorphisms: explicit families, the stabilizer chain against
the BFS closure, and induced actions."""

import random
import time

import pytest
from oracles import class_of, contains, orbit_of_pair, orbit_of_vector, permute, tangent_line_at

from hfl import autgrp, hermlat, lattice
from hfl.curve import curve_make
from hfl.autgrp import _inv, _mul
from hfl.errors import (
    DimensionMismatchError,
    InternalIdentityViolationError,
    LatticeNotStableError,
    NotOnCurveError,
    OrderBudgetExceededError,
    ZeroScalarError,
)
from hfl.lattice import Lattice


@pytest.fixture(scope="module")
def G2(curve2):
    return autgrp.full_group(curve2)


@pytest.fixture(scope="module")
def G3(curve3):
    return autgrp.full_group(curve3)


def full_order(q):
    return q**3 * (q**2 - 1) * (q**3 + 1)


def test_translation_composition_law(curve2, curve3):
    for curve in (curve2, curve3):
        F = curve.field
        pts = curve.places[1:]
        rng = random.Random(11)
        for _ in range(20):
            a1, b1 = rng.choice(pts)
            a2, b2 = rng.choice(pts)
            lhs = _mul(autgrp.translation(curve, a1, b1), autgrp.translation(curve, a2, b2))
            a3 = F.add(a1, a2)
            b3 = F.add(F.add(b1, b2), F.mul(F.frobenius(a1), a2))
            assert lhs == autgrp.translation(curve, a3, b3)


def test_translation_requires_curve_point(curve2):
    F = curve2.field
    bad = next(
        (a, b)
        for a in range(F.order)
        for b in range(F.order)
        if (a, b) not in curve2.place_index
    )
    with pytest.raises(NotOnCurveError):
        autgrp.translation(curve2, *bad)


def _all_translations(curve):
    return [autgrp.translation(curve, a, b) for a, b in curve.places[1:]]


def _three_maps(curve):
    """The translation by (1, b), the primitive scaling and the inversion."""
    F = curve.field
    return (
        autgrp.translation(curve, 1, F.trace_fiber(F.norm(1))[0]),
        autgrp.scaling(curve, F.root_of_unity(F.order - 1)),
        autgrp.inversion(curve),
    )


def test_translations_fix_infinity_and_close(curve2, curve3):
    for curve in (curve2, curve3):
        translations = _all_translations(curve)
        T = autgrp.closure(translations)
        assert T.order == curve.q**3
        assert all(g[0] == 0 for g in T.elements)
        G = autgrp.full_group(curve)
        assert all(g in G for g in translations)


def test_scaling_group(curve2, curve3):
    for curve in (curve2, curve3):
        F = curve.field
        lam = F.root_of_unity(F.order - 1)
        S = autgrp.closure([autgrp.scaling(curve, lam)])
        assert S.order == F.order - 1
        assert all(g[0] == 0 for g in S.elements)
    with pytest.raises(ZeroScalarError):
        autgrp.scaling(curve2, 0)


def test_inversion_is_an_involution(curve2, curve3):
    for curve in (curve2, curve3):
        inv = autgrp.inversion(curve)
        origin = curve.place_index[(0, 0)]
        assert inv[0] == origin
        assert inv[origin] == 0
        assert _mul(inv, inv) == tuple(range(curve.n))
        assert _inv(inv) == inv


def test_perm_algebra(curve2):
    g = autgrp.inversion(curve2)
    h = autgrp.translation(curve2, *curve2.places[1])
    assert _mul(g, _inv(g)) == tuple(range(curve2.n))
    assert _mul(h, _inv(h)) == tuple(range(curve2.n))
    # composition order matters and matches image chasing
    gh = _mul(g, h)
    for i in range(curve2.n):
        assert gh[i] == g[h[i]]


def test_full_group_orders(G2, G3):
    assert G2.order == full_order(2) == 216
    assert G3.order == full_order(3) == 6048


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_full_group_is_three_maps(q):
    """Aut(H) is built from the translation by (1, b), the primitive
    scaling and the inversion, and holds every scaling.  At q <= 4 the
    chain over every translation, every scaling and the inversion, on the
    same base, has the same order and transversal sizes, and at q <= 3
    both generating sets give the same BFS closure.  The base is given
    because a chain picks each base point after 0 from its generators."""
    curve = curve_make(q)
    F = curve.field
    G = autgrp.full_group(curve)
    assert G.generators == _three_maps(curve)
    scalings = [autgrp.scaling(curve, lam) for lam in range(1, F.order)]
    assert all(g in G for g in scalings)
    if q <= 4:
        every = _all_translations(curve) + scalings + [autgrp.inversion(curve)]
        big = autgrp.schreier_sims(every, base=G.base)
        assert big.base == G.base
        assert big.order == G.order == full_order(q)
        assert [len(t) for t in big.transversals] == [len(t) for t in G.transversals]
        if q <= 3:
            assert autgrp.closure(every).elements == autgrp.closure(G.generators).elements
    # each transversal holds u^-1, which sends its orbit point back to the base
    for b, t in zip(G.base, G.transversals):
        assert all(u_inv[p] == b for p, u_inv in t.items())


def test_group_closure_properties(G2):
    listed = autgrp.closure(G2.generators).elements
    els = set(listed)
    sample = random.Random(3).sample(listed, 20)
    for g in sample:
        assert _inv(g) in els and _inv(g) in G2
        for h in sample:
            assert _mul(g, h) in els and _mul(g, h) in G2


def test_stabilizer_orders(G2, G3):
    assert autgrp.stabilizer(G2, 0).order == 24
    assert autgrp.stabilizer(G3, 0).order == 216
    for q, G in ((2, G2), (3, G3)):
        assert autgrp.stabilizer(G, 0).order * (q**3 + 1) == G.order


def test_transitivity(G2, G3, curve2, curve3):
    assert autgrp.orbit_of_index(G2, 0) == set(range(curve2.n))
    assert autgrp.orbit_of_index(G3, 0) == set(range(curve3.n))
    # sharply 2-transitive on ordered pairs for q = 2: 9 * 8 = 72
    assert len(orbit_of_pair(G2, 0, 1)) == 72


def test_lattice_stability(G2, G3, hl2, hl3):
    assert autgrp.lattice_stable_under(G2, hl2.L)
    assert autgrp.lattice_stable_under(G3, hl3.L)
    # every element, not only every generator, fixes the lattice
    assert all(hl2.L.fixed_by(g) for g in autgrp.closure(G2.generators).elements)


def test_orbit_of_minimal_vector_is_census(G2, hl2):
    vecs = set(lattice.census_pm1(hl2.L, 2))
    v = min(vecs)
    assert orbit_of_vector(G2, v) == vecs


def test_classgroup_action_q2(G2, hl2):
    act = autgrp.induced_classgroup_action(G2, hl2.L)
    assert act.mods == (3, 3)
    assert act.kernel_size == 9
    assert not act.injective
    assert len(act.matrices) == len(G2.generators)
    assert act.image_order == G2.order // act.kernel_size == 24


def test_classgroup_action_q3(G3, hl3):
    act = autgrp.induced_classgroup_action(G3, hl3.L)
    # one component per column of the class map, each of its own order
    assert act.mods == (4,) * 6 + (2, 2)
    assert act.kernel_size == 1
    assert act.injective
    # generator i sends each block coordinate b, e_b - e_0, to a class
    block = [i + 1 for i, row in enumerate(hl3.L.rows) if row[i + 1] != 1]
    assert len(block) == 8
    for g, matrix in zip(G3.generators, act.matrices):
        assert matrix == tuple(
            class_of(hl3.L, tuple(int(j == g[b]) - int(j == g[0]) for j in range(hl3.L.n)))
            for b in block
        )


def test_tangent_divisors_permuted(G2, curve2, hl2):
    tangents = {
        tuple(curve2.divisor_of_line(tangent_line_at(curve2, *pt)))
        for pt in curve2.places[1:]
    }
    assert len(tangents) == 8
    # the affine tangent divisors all look like 3(P - Q_inf), so only the
    # stabilizer of the infinite place permutes them among themselves
    stab = autgrp.stabilizer(G2, 0)
    for g in autgrp.closure(stab.generators).elements:
        assert {permute(d, g) for d in tangents} == tangents
    # the full group spreads one of them over every 3(e_i - e_j), i != j
    orbit = orbit_of_vector(G2, min(tangents))
    expected = set()
    for i in range(curve2.n):
        for j in range(curve2.n):
            if i != j:
                v = [0] * curve2.n
                v[i], v[j] = 3, -3
                expected.add(tuple(v))
    assert orbit == expected
    assert all(contains(hl2.L, v) for v in orbit)


def test_closure_budget_and_validation(curve2):
    gens = _three_maps(curve2)
    with pytest.raises(OrderBudgetExceededError):
        autgrp.closure(gens, max_order=3)
    with pytest.raises(ValueError):
        autgrp.closure([])
    with pytest.raises(ValueError):
        autgrp.schreier_sims([])
    for base in [(-1,), (3,), (0, 3)]:
        with pytest.raises(ValueError):
            autgrp.schreier_sims([(1, 0, 2)], base=base)
    assert autgrp.schreier_sims([(1, 0, 2)], base=(2, 0)).order == 2


# three non-bijections, then generators of two lengths and an image out of range
MALFORMED = [
    [(0, 0, 1)],
    [(1, 1, 0, 2)],
    [(0, 2, 2, 3, 1)],
    [(0, 1, 2), (0, 1)],
    [(1, 0, 2), (0, 1, 5)],
]


@pytest.mark.parametrize("gens", MALFORMED)
def test_schreier_sims_refuses_malformed_generators(gens):
    with pytest.raises(ValueError):
        autgrp.schreier_sims(gens)


@pytest.mark.parametrize("gens", MALFORMED[:3])
def test_chain_stops_on_a_non_bijection(gens):
    """Given a non-bijection, the chain's own checks end it at once: a
    transversal entry that does not send its point back to the base
    point raises, where the chain would otherwise grow without bound."""
    start = time.perf_counter()
    with pytest.raises(InternalIdentityViolationError):
        autgrp._chain(gens, len(gens[0]))
    assert time.perf_counter() - start < 1


def test_place_index_outside_the_curve_is_refused(G2, curve2):
    for index in (-1, curve2.n):
        with pytest.raises(ValueError):
            autgrp.stabilizer(G2, index)
        with pytest.raises(ValueError):
            autgrp.orbit_of_index(G2, index)


# -- the stabilizer chain against the BFS closure -----------------------------------


@pytest.fixture(scope="module")
def oracles(G2, G3):
    """q -> (group, every element listed by BFS closure)."""
    return {
        2: (G2, autgrp.closure(G2.generators).elements),
        3: (G3, autgrp.closure(G3.generators).elements),
    }


@pytest.mark.parametrize("q", [2, 3])
def test_chain_order_and_elements_match_closure(oracles, q):
    G, listed = oracles[q]
    # equal orders and every listed element sifting into the chain make
    # the two element sets equal
    assert G.order == len(listed) == full_order(q)
    assert all(g in G for g in listed)
    swap = list(range(G.degree))  # a transposition of two affine places
    swap[1], swap[2] = 2, 1
    assert tuple(swap) not in G and tuple(range(G.degree + 1)) not in G


@pytest.mark.parametrize("q", [2, 3])
def test_stabilizer_at_every_index_matches_closure(oracles, q):
    G, listed = oracles[q]
    for i in range(G.degree):
        stab = autgrp.stabilizer(G, i)
        fixing = tuple(g for g in listed if g[i] == i)
        assert stab.order == len(fixing) == q**3 * (q * q - 1)
        assert all(g[i] == i for g in stab.generators)
        assert all(g in stab for g in fixing)


@pytest.mark.parametrize("q", [2, 3])
def test_orbits_match_closure(oracles, q):
    G, listed = oracles[q]
    rng = random.Random(q)
    for i in rng.sample(range(G.degree), 4):
        assert autgrp.orbit_of_index(G, i) == {g[i] for g in listed}
    assert orbit_of_pair(G, 0, 1) == {(g[0], g[1]) for g in listed}
    v = tuple(rng.randrange(-2, 3) for _ in range(G.degree))
    assert orbit_of_vector(G, v) == {permute(v, g) for g in listed}


@pytest.mark.parametrize("q", [2, 3])
def test_membership_of_products_and_random_perms(oracles, q):
    G, listed = oracles[q]
    els = set(listed)
    rng = random.Random(5 + q)
    for _ in range(50):
        g = rng.choice(G.generators)
        for _ in range(rng.randrange(1, 12)):
            g = _mul(rng.choice(G.generators), g)
        assert g in els and g in G
        assert _inv(g) in G
    for _ in range(200):
        image = list(range(G.degree))
        rng.shuffle(image)
        p = tuple(image)
        assert (p in G) == (p in els)
    assert tuple(range(G.degree + 1)) not in G  # wrong degree


def _kernel_by_place_classes(listed, L):
    """Listed elements acting trivially on the quotient, one at a time:
    g(e_i - e_0) - (e_i - e_0) lies in L for every place i, by
    back-substitution."""
    n = L.n

    def unit(i):
        return tuple(int(j == i) - int(j == 0) for j in range(n))

    return sum(
        1
        for g in listed
        if all(
            contains(L, tuple(x - y for x, y in zip(permute(unit(i), g), unit(i))))
            for i in range(1, n)
        )
    )


@pytest.mark.parametrize("q", [2, 3])
def test_kernel_matches_per_element_matrices(oracles, hl2, hl3, q):
    G, listed = oracles[q]
    L = {2: hl2, 3: hl3}[q].L
    act = autgrp.induced_classgroup_action(G, L)
    assert act.kernel_size == _kernel_by_place_classes(listed, L) == {2: 9, 3: 1}[q]
    assert act.image_order * act.kernel_size == G.order


@pytest.mark.parametrize("q", [4, 5])
def test_chain_formulas_q4_q5(q):
    hl = hermlat.build(q)
    G = autgrp.full_group(hl.curve)
    assert G.order == full_order(q)
    assert autgrp.stabilizer(G, 0).order == q**3 * (q * q - 1)
    assert autgrp.orbit_of_index(G, 0) == set(range(hl.curve.n))
    act = autgrp.induced_classgroup_action(G, hl.L)
    assert act.kernel_size == 1 and act.injective
    assert act.image_order == G.order


def test_classgroup_action_needs_stable_lattice(G2, curve2):
    # second differences along the place order and 3(e_1 - e_0): a
    # full-rank lattice that the translations move
    n = curve2.n
    rows = [(-3, 3) + (0,) * (n - 2)]
    for i in range(1, n - 1):
        v = [0] * n
        v[i - 1], v[i], v[i + 1] = 1, -2, 1
        rows.append(tuple(v))
    L = Lattice.from_generators(rows, n)
    assert L.rank == n - 1
    assert not autgrp.lattice_stable_under(G2, L)
    with pytest.raises(LatticeNotStableError):
        autgrp.induced_classgroup_action(G2, L)


def test_fixed_by_refuses_a_permutation_of_another_length(G3, hl2):
    """A permutation of 10 or 28 places on the 9-coordinate q = 2 lattice
    is refused, directly and through the induced action of the q = 3 group."""
    n = hl2.L.n
    for perm in (tuple(range(n + 1)), tuple(range(n - 1))):
        with pytest.raises(DimensionMismatchError):
            hl2.L.fixed_by(perm)
    with pytest.raises(DimensionMismatchError):
        autgrp.induced_classgroup_action(G3, hl2.L)


def _random_generators(rng, degree, count):
    """Random permutations, some confined to blocks so that orders vary."""
    gens = []
    for _ in range(count):
        image = list(range(degree))
        if rng.random() < 0.5:
            cut = rng.randrange(1, degree)
            head, tail = image[:cut], image[cut:]
            rng.shuffle(head)
            rng.shuffle(tail)
            image = head + tail
        else:
            rng.shuffle(image)
        gens.append(tuple(image))
    return gens


def test_chain_matches_closure_on_random_groups():
    rng = random.Random(17)
    for _ in range(40):
        degree = rng.randint(3, 7)
        gens = _random_generators(rng, degree, rng.randint(1, 3))
        listed = autgrp.closure(gens).elements
        G = autgrp.schreier_sims(gens, base=(rng.randrange(degree),))
        assert G.order == len(listed)
        assert all(g in G for g in listed)
        i = rng.randrange(degree)
        stab = autgrp.stabilizer(G, i)
        fixing = [g for g in listed if g[i] == i]
        assert stab.order == len(fixing)
        assert all(g in stab for g in fixing)


def test_duplicate_generator_changes_no_chain(G3):
    """A generator given twice stays in generators, and the chain is the
    one built without the repeat."""
    rng = random.Random(29)
    cases = [list(G3.generators)] + [_random_generators(rng, 7, 3) for _ in range(10)]
    for gens in cases:
        once = autgrp.schreier_sims(gens)
        twice = autgrp.schreier_sims(gens + [gens[0]])
        assert twice.generators == tuple(gens) + (gens[0],)
        assert twice.base == once.base
        assert [len(t) for t in twice.transversals] == [len(t) for t in once.transversals]
        assert twice.order == once.order


def test_kernel_search_needs_every_place_at_the_leaves():
    # random class maps on symmetric and smaller groups: the count must
    # equal the definition, also where base points alone admit extra g
    rng = random.Random(23)
    for _ in range(30):
        degree = rng.randint(3, 6)
        gens = _random_generators(rng, degree, 2)
        G = autgrp.schreier_sims(gens)
        mods = rng.choice([(5,), (2, 4), (7,)])
        cls = [tuple(rng.randrange(m) for m in mods) for _ in range(degree)]

        def diff(a, b):
            return tuple((x - y) % m for x, y, m in zip(a, b, mods))

        expected = sum(
            1
            for g in autgrp.closure(gens).elements
            if all(
                diff(cls[g[i]], cls[g[0]]) == diff(cls[i], cls[0])
                for i in range(degree)
            )
        )
        assert autgrp._kernel_size(G, cls, mods) == expected
