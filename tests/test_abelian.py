"""Finite abelian groups, subset lattices, and the Z_7 catalogue."""

import itertools
import random
from pathlib import Path

import pytest

from hfl import abelian, lattice
from hfl.errors import EmptyGeneratorSetError, GroupTooLargeError
from oracles import automorphisms_bruteforce, contains, element_order

GOLDEN = Path(__file__).parent / "golden" / "table1_golden.csv"


def test_encode_decode_roundtrip():
    G = abelian.AbelianGroup((3, 4, 5))
    assert G.order == 60
    for e in range(G.order):
        assert G.encode(G.decode(e)) == e
    els = G.elements()
    assert len(set(els)) == 60
    assert G.decode(0) == (0, 0, 0)


def test_group_ops():
    G = abelian.AbelianGroup((6, 10))
    rng = random.Random(5)
    for _ in range(200):
        a = G.decode(rng.randrange(G.order))
        b = G.decode(rng.randrange(G.order))
        c = G.decode(rng.randrange(G.order))
        assert G.add(a, b) == G.add(b, a)
        assert G.add(G.add(a, b), c) == G.add(a, G.add(b, c))
        assert G.add(a, G.neg(a)) == G.zero
        assert G.scale(3, a) == G.add(a, G.add(a, a))
    assert G.scale(0, (5, 9)) == G.zero


def test_element_order():
    G = abelian.AbelianGroup((4, 6))
    for g in G.elements():
        k = element_order(G, g)
        assert G.scale(k, g) == G.zero
        # k is the least such positive integer
        for j in range(1, k):
            assert G.scale(j, g) != G.zero
    assert element_order(G, (0, 0)) == 1
    assert element_order(G, (1, 0)) == 4
    assert element_order(G, (2, 3)) == 2
    assert element_order(G, (1, 1)) == 12


def test_subgroup_generated():
    G = abelian.AbelianGroup((4, 6))
    assert len(G.subgroup_generated([(1, 0)])) == 4
    assert len(G.subgroup_generated([(0, 1)])) == 6
    assert len(G.subgroup_generated([(1, 0), (0, 1)])) == 24
    assert len(G.subgroup_generated([(2, 0), (0, 3)])) == 4
    # encodings accepted too
    assert len(G.subgroup_generated([G.encode((1, 1))])) == 12
    # subgroup is closed
    H = G.subgroup_generated([(1, 2)])
    for a in H:
        for b in H:
            assert G.add(a, b) in H


AUT_COUNTS = [
    ((2,), 1),
    ((7,), 6),
    ((3, 3), 48),
    ((2, 4), 8),
    ((2, 2, 2), 168),
]


@pytest.mark.parametrize("moduli,count", AUT_COUNTS)
def test_automorphism_counts(moduli, count):
    G = abelian.AbelianGroup(moduli)
    auts = G.automorphisms()
    assert len(auts) == count
    assert len(set(auts)) == count


def test_automorphisms_are_additive_bijections():
    G = abelian.AbelianGroup((2, 4))
    els = G.elements()
    for phi in G.automorphisms():
        assert sorted(phi) == list(range(G.order))
        assert phi[0] == 0
        for a, b in itertools.product(els, repeat=2):
            lhs = phi[G.encode(G.add(a, b))]
            rhs = G.encode(G.add(G.decode(phi[G.encode(a)]), G.decode(phi[G.encode(b)])))
            assert lhs == rhs


def test_automorphism_group_closed():
    G = abelian.AbelianGroup((3, 3))
    auts = set(G.automorphisms())
    sample = random.Random(9).sample(sorted(auts), 12)
    for p in sample:
        for s in sample:
            assert tuple(p[s[i]] for i in range(G.order)) in auts


def _ordered_factorizations(n):
    """Every moduli tuple (factors >= 2, in order) with product n."""
    if n == 1:
        yield ()
        return
    for m in range(2, n + 1):
        if n % m == 0:
            for rest in _ordered_factorizations(n // m):
                yield (m,) + rest


def _bruteforce_work(G):
    """|G| times the image tuples the brute force tries."""
    work = G.order
    for m in G.moduli:
        work *= sum(1 for g in G.elements() if G.scale(m, g) == G.zero)
    return work


def test_automorphisms_match_bruteforce_oracle():
    """Every moduli tuple with |G| <= 32 whose brute force tries at most
    2^18 image-entries (about a second): the same sorted list, of the
    length the closed form gives."""
    compared = 0
    for order in range(2, 33):
        for moduli in _ordered_factorizations(order):
            G = abelian.AbelianGroup(moduli)
            if _bruteforce_work(G) > 2**18:
                continue
            want = automorphisms_bruteforce(G)
            assert G.automorphisms() == want, moduli
            assert G.automorphism_count() == len(want), moduli
            compared += 1
    assert compared == 128


@pytest.mark.parametrize(
    "moduli,count",
    [((2, 2, 2, 2), 20160), ((3, 3, 3), 11232), ((2, 4, 4), 1536), ((257,), 256)],
)
def test_automorphism_listing_has_closed_form_length(moduli, count):
    G = abelian.AbelianGroup(moduli)
    assert G.automorphism_count() == count
    auts = G.automorphisms()
    assert len(auts) == count and auts == sorted(set(auts))


def _oracle_subset_perms(auts, gens):
    """The S-index tuples of the automorphisms in `auts` mapping S into S."""
    pos = {g: i + 1 for i, g in enumerate(gens)}
    kept = [phi for phi in auts if all(phi[g] in pos for g in gens)]
    return sorted({(0,) + tuple(pos[phi[g]] for g in gens) for phi in kept})


def test_subset_preserving_search_matches_bruteforce_oracle():
    """The pruned search against the brute-force Aut(G) filtered by S, on
    every nonempty subset of the nonzero elements of five small groups and
    on seeded samples of 6 to 9 elements in three groups of order 16; the
    preserving listing is the full listing filtered by S, in order."""
    rng = random.Random(24)
    cases = []
    for moduli in [(7,), (8,), (2, 2, 2), (2, 4), (3, 3)]:
        G = abelian.AbelianGroup(moduli)
        nonzero = range(1, G.order)
        cases.append((G, [s for k in nonzero for s in itertools.combinations(nonzero, k)]))
    for moduli in [(2, 2, 2, 2), (2, 2, 4), (4, 4)]:
        G = abelian.AbelianGroup(moduli)
        draws = [rng.sample(range(1, G.order), k) for k in range(6, 10) for _ in range(5)]
        cases.append((G, draws))
    for G, subsets in cases:
        brute, full = automorphisms_bruteforce(G), G.automorphisms()
        for gens in subsets:
            want = _oracle_subset_perms(brute, gens)
            assert abelian.extendable_subset_perms(G, gens) == want, (G, gens)
            S = set(gens)
            kept = [phi for phi in full if S.issuperset(map(phi.__getitem__, gens))]
            assert G.automorphisms(gens) == kept, (G, gens)


def test_size_limits():
    with pytest.raises(GroupTooLargeError):
        abelian.AbelianGroup((1009, 1009))
    G = abelian.AbelianGroup((101, 101))  # fine to build, too costly to list Aut
    with pytest.raises(GroupTooLargeError) as e:
        G.automorphisms()
    # |GL_2(101)| * 101^2, named with the cap
    assert f"= {10200 * 10100 * 10201} > cap {abelian.AUT_MAX_WORK}" in str(e.value)
    with pytest.raises(ValueError):
        abelian.AbelianGroup(())
    with pytest.raises(ValueError):
        abelian.AbelianGroup((5, 1))


def test_subset_validation():
    G = abelian.AbelianGroup((7,))
    with pytest.raises(EmptyGeneratorSetError):
        abelian.lattice_for_subset(G, [])
    with pytest.raises(ValueError):
        abelian.lattice_for_subset(G, [1, 1])
    with pytest.raises(ValueError):
        abelian.lattice_for_subset(G, [0])
    with pytest.raises(ValueError):
        abelian.lattice_for_subset(G, [7])
    # -1 is not read as 6, nor 7 as an IndexError
    for bad in ([-1], [7], [1, 7]):
        with pytest.raises(ValueError):
            G.automorphisms(bad)


def test_z7_single_element_subset():
    G = abelian.AbelianGroup((7,))
    L = abelian.lattice_for_subset(G, [1])
    assert L.n == 2
    assert L.index_in_ambient() == 7
    mv = lattice.minimal_vectors(L)
    assert sorted(mv) == [(-7, 7), (7, -7)]
    assert sum(x * x for x in mv[0]) == 98


def test_z7_124_minimal_vectors():
    G = abelian.AbelianGroup((7,))
    L = abelian.lattice_for_subset(G, [1, 2, 4])
    assert L.n == 4
    assert L.index_in_ambient() == 7
    mv = set(lattice.minimal_vectors(L))
    expected = set()
    for v in [(1, -2, 1, 0), (1, 0, -2, 1), (1, 1, 0, -2)]:
        expected.add(v)
        expected.add(tuple(-x for x in v))
    assert mv == expected
    assert all(sum(x * x for x in v) == 6 for v in mv)
    assert lattice.generated_by_minimals_index(L, sorted(mv)) != 0


def test_subset_lattice_membership_meaning():
    # v in L iff sum(v[i] * s_i) = 0 in G, where s_0 = 0 and s_1, s_2, s_3
    # are the chosen generators; exhaustive for a small case
    G = abelian.AbelianGroup((2, 4))
    gens = [G.encode((1, 0)), G.encode((0, 1)), G.encode((1, 2))]
    L = abelian.lattice_for_subset(G, gens)
    tup = [G.decode(g) for g in gens]
    for v in itertools.product(range(-3, 4), repeat=4):
        if sum(v) != 0:
            assert not contains(L, v)
            continue
        acc = G.zero
        for x, s in zip(v[1:], tup):
            acc = G.add(acc, G.scale(x, s))
        assert contains(L, v) == (acc == G.zero)


def test_index_matches_generated_subgroup():
    rng = random.Random(31)
    for moduli in [(7,), (9,), (3, 3), (2, 4), (12,), (2, 2, 3)]:
        G = abelian.AbelianGroup(moduli)
        for _ in range(6):
            k = rng.randrange(1, min(6, G.order - 1) + 1)
            gens = rng.sample(range(1, G.order), k)
            L = abelian.lattice_for_subset(G, gens)
            assert L.index_in_ambient() == abelian.subset_index_in_ambient(G, gens)


def test_extendable_subset_perms_z7_124():
    G = abelian.AbelianGroup((7,))
    perms = abelian.extendable_subset_perms(G, [1, 2, 4])
    # multiplication by 1, 2, 4 preserves {1,2,4}; by 3, 5, 6 does not
    assert perms == [(0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)]


def test_correspondence_z7_samples():
    G = abelian.AbelianGroup((7,))
    for gens in [[1], [1, 2, 4], [3, 5, 6], [1, 2, 3, 4, 5, 6]]:
        assert abelian.check_permutation_correspondence(G, gens)


def test_correspondence_never_computes_minimal_vectors(monkeypatch):
    """The permutation search is pruned by basis rows alone: with Min(L)
    out of reach, every Z_7 subset still corresponds."""

    def refuse(L):
        raise AssertionError("minimal_vectors called")

    monkeypatch.setattr(lattice, "minimal_vectors", refuse)
    G = abelian.AbelianGroup((7,))
    subsets = [g for k in range(1, 6) for g in itertools.combinations(range(1, 7), k)]
    assert len(subsets) == 62
    assert all(abelian.check_permutation_correspondence(G, gens) for gens in subsets)


def test_correspondence_z3z3_full_group():
    G = abelian.AbelianGroup((3, 3))
    gens = list(range(1, 9))
    perms = abelian.extendable_subset_perms(G, gens)
    assert len(perms) == 48
    assert abelian.check_permutation_correspondence(G, gens)


def test_catalogue_shape():
    rows = abelian.catalogue()
    assert len(rows) == 62
    assert sum(1 for r in rows if r.well_rounded) == 26
    assert all(r.well_rounded == (r.gen_by_min_index == 1) for r in rows)
    # labels enumerate every proper nonzero subset once
    labels = {r.label for r in rows}
    assert len(labels) == 62
    sizes = [0] * 6
    for r in rows:
        sizes[r.n_minus_1] += 1
    assert sizes == [0, 6, 15, 20, 15, 6]


def test_catalogue_golden_bytes():
    rows = abelian.catalogue()
    got = abelian.catalogue_csv(rows)
    assert got == GOLDEN.read_text()


def test_csv_header():
    first = abelian.catalogue_csv(abelian.catalogue()).splitlines()[0]
    assert first == ",".join(abelian.CSV_HEADER)
