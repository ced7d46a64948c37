import itertools
import random
import signal
import time
import tracemalloc
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from oracles import class_of, contains, permute, smith_normal_form

from hfl import abelian, curve, hermlat, intmat, lattice
from hfl.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    EmptyGeneratorSetError,
    InternalIdentityViolationError,
    NotFullRankError,
    SearchInfeasibleError,
)


def full_root_lattice(n):
    """All of A_{n-1}: differences of consecutive unit vectors."""
    gens = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        gens.append(tuple(v))
    return lattice.Lattice.from_generators(gens, n)


def random_full_rank(rng, n):
    while True:
        gens = []
        for _ in range(n + 1):
            v = [rng.randint(-3, 3) for _ in range(n - 1)]
            gens.append(tuple(v) + (-sum(v),))
        try:
            return lattice.Lattice.from_generators(gens, n)
        except NotFullRankError:
            pass


def test_construction_errors():
    with pytest.raises(EmptyGeneratorSetError):
        lattice.Lattice.from_generators([], 3)
    with pytest.raises(DimensionMismatchError):
        lattice.Lattice.from_generators([(1, -1)], 3)
    with pytest.raises(ValueError):
        lattice.Lattice.from_generators([(1, 1, 1)], 3)


def test_from_generators_reads_a_one_shot_iterator():
    gens = [(2, -2, 0, 0), (0, 3, -3, 0), (1, 0, 0, -1), (0, 2, -1, -1)]
    L = lattice.Lattice.from_generators(iter(gens), 4)
    assert L == lattice.Lattice.from_generators(gens, 4)
    assert L.rank == 3
    with pytest.raises(EmptyGeneratorSetError):
        lattice.Lattice.from_generators(iter(()), 3)


def test_rows_reconstruct_dropped_coordinate():
    L = lattice.Lattice.from_generators([(2, -2, 0), (0, 2, -2)], 3)
    for row in L.rows:
        assert sum(row) == 0
        assert len(row) == 3


def test_scaled_a2_example():
    L = lattice.Lattice.from_generators([(2, -2, 0), (0, 2, -2)], 3)
    assert L.rank == 2
    assert L.index_in_ambient() == 4
    assert L.quotient().nontrivial == (2, 2)
    assert L.determinant() == (4, 3)
    mv = lattice.minimal_vectors(L)
    assert len(mv) == 6
    assert all(sum(x * x for x in v) == 8 for v in mv)
    assert lattice.generated_by_minimals_index(L, mv) == 1


def test_from_supports_matches_from_generators():
    """The same generators, dense or as their nonzero entries in shuffled
    order, give the same lattice: on random full-rank sets with no zero
    entry, so that no row certifies a modulus (the integer echelon, with
    e_0 beside them), and on the rows of the block-route lattices, the
    q = 2, 3, 4 lattices among them (the Howell form); one generator
    alone spans too low a rank on both."""
    rng = random.Random(44)
    cases = []
    while len(cases) < 30:
        n = rng.randint(3, 7)
        gens = [[rng.choice((-1, 1)) * rng.randint(1, 3) for _ in range(n - 1)] for _ in range(n)]
        gens = [(-sum(v), *v) for v in gens if sum(v)]
        try:
            lattice.Lattice.from_generators(gens, n)
        except NotFullRankError:
            continue
        cases.append(gens)
    cases += [L.rows for _, L in _block_route_cases()]
    for gens in cases:
        n = len(gens[0])
        supports = []
        for v in gens:
            pairs = [(i, x) for i, x in enumerate(v) if x]
            rng.shuffle(pairs)
            supports.append(pairs)
        L = lattice.Lattice.from_generators(gens, n)
        assert lattice.Lattice.from_supports(supports, n) == L
        with pytest.raises(NotFullRankError):
            lattice.Lattice.from_supports(supports[:1], n)


def test_contains_and_member_fast_agree():
    """member_fast against back-substitution over the Hermite rows."""
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(3, 7)
        L = random_full_rank(rng, n)
        for _ in range(30):
            v = [rng.randint(-4, 4) for _ in range(n - 1)]
            v = tuple(v) + (-sum(v),)
            assert contains(L, v) == L.member_fast(v)
        # rows of the lattice itself are members
        for row in L.rows:
            assert contains(L, row) and L.member_fast(row)
        # vectors with nonzero sum are never members
        w = (1,) + (0,) * (n - 1)
        assert not contains(L, w)
        assert not L.member_fast(w)
    # a vector of the wrong length is refused by every route
    L = hermlat.build(2).L
    for route in (lambda v: contains(L, v), L.member_fast, lambda v: class_of(L, v)):
        with pytest.raises(DimensionMismatchError):
            route(L.rows[0] + (0,))


def test_closure_properties():
    rng = random.Random(9)
    L = random_full_rank(rng, 5)
    rows = list(L.rows)
    for a, b in itertools.combinations(rows, 2):
        s = tuple(x + y for x, y in zip(a, b))
        d = tuple(x - y for x, y in zip(a, b))
        assert contains(L, s) and contains(L, d)
        assert contains(L, tuple(-x for x in a))


def test_quotient_and_index_consistency():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(3, 6)
        L = random_full_rank(rng, n)
        q = L.quotient()
        assert prod(q.divisors) == L.index_in_ambient()
        nontrivial = q.nontrivial
        for a, b in zip(nontrivial, nontrivial[1:]):
            assert b % a == 0
        # each class-map component has its own order, reached by the
        # coordinate classes, and together they have the quotient's exponent;
        # the classes generate a group of order [A_{n-1} : L]
        mods, cls = L.class_map()
        assert lcm(*mods) == (nontrivial[-1] if nontrivial else 1)
        for t, m in enumerate(mods):
            assert m > 1 and gcd(m, *(c[t] for c in cls)) == 1
        if prod(q.divisors) <= 5000:
            group, todo = {cls[0]}, [cls[0]]
            while todo:
                a = todo.pop()
                for c in cls:
                    b = tuple((x + y) % m for x, y, m in zip(a, c, mods))
                    if b not in group:
                        group.add(b)
                        todo.append(b)
            assert len(group) == prod(q.divisors)


def _block_route_cases():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(3, 8)
        # scaling some basis rows forces non-unit pivots next to unit ones
        rows = []
        for row in random_full_rank(rng, n).rows:
            f = rng.choice((1, 1, 2, 3, 4))
            rows.append(tuple(f * x for x in row))
        yield rng, lattice.Lattice.from_generators(rows, n)
    for q in (2, 3, 4):
        yield rng, hermlat.build(q).L
    # exponent 257 takes two-byte digits, exponent 128 reduces after every
    # word, and A_4 itself has the trivial quotient
    yield rng, abelian.lattice_for_subset(abelian.AbelianGroup((257,)), (1, 2, 3))
    yield rng, abelian.lattice_for_subset(abelian.AbelianGroup((2, 128)), range(1, 8))
    yield rng, full_root_lattice(5)


def test_block_smith_form_matches_dense_oracle():
    """The quotient read off the non-unit block of the HNF agrees with the
    dense Smith form of the whole HNF, with contains, and gives each of
    the dense form's quotient generators a class of its divisor's order.  The packed class sums agree
    with the componentwise oracle, also on dense vectors with entries
    beyond the exponent M (at q = 4, more nonzeros than one reduction
    interval)."""
    non_unit = 0
    for rng, L in _block_route_cases():
        n = L.n
        dense, _, Vinv = smith_normal_form([row[1:] for row in L.rows], n - 1)
        assert list(L.quotient().divisors) == dense
        mods, _ = L.class_map()
        words = L.class_words()
        non_unit += bool(mods)
        # the oracle's quotient generator t, row t of V^-1, has a class of
        # order dense[t]
        for d, row in zip(dense, Vinv):
            c = class_of(L, [-sum(row)] + row)
            assert lcm(*(m // gcd(m, x) for m, x in zip(mods, c))) == d
        for _ in range(30):
            # a lattice vector plus, half the time, a random sum-zero offset
            v = [0] * n
            for row in L.rows:
                c = rng.randint(-2, 2)
                v = [x + c * y for x, y in zip(v, row)]
            if rng.random() < 0.5:
                w = [rng.randint(-3, 3) for _ in range(n - 1)]
                v = [x + y for x, y in zip(v, w + [-sum(w)])]
            v = tuple(v)
            assert L.member_fast(v) == contains(L, v)
            assert words.decode(words.key(v)) == class_of(L, v)
            assert (class_of(L, v) == (0,) * len(mods)) == contains(L, v)
        M = words.M
        for _ in range(5):
            w = [rng.randint(-3 * M, 3 * M) for _ in range(n - 1)]
            dense = tuple(w + [-sum(w)])
            assert words.decode(words.key(dense)) == class_of(L, dense)
            assert L.member_fast(dense) == contains(L, dense)
    assert non_unit > 30


def test_q9_quotient_has_no_cliff(monkeypatch):
    """With q = 9 admitted, the lattice of line divisors has the quotient
    Z_10^72, and the class map and divisors come from the inverse of the
    92 x 92 Hermite block in well under 10 s (the integer Smith form with
    column transforms took 26-41 s on its entries of 560,000 bits)."""
    monkeypatch.setattr(curve, "SUPPORTED_Q", curve.SUPPORTED_Q + (9,))
    c = curve.curve_make(9)
    L = lattice.Lattice.from_generators([c.divisor_of_line(line) for line in c.all_lines()], c.n)
    start = time.perf_counter()
    assert L.quotient().nontrivial == (10,) * 72
    assert time.perf_counter() - start < 10


def test_divisors_counted_only_for_the_quotient(monkeypatch):
    """Membership and the class map count no elementary divisors; the
    first quotient() counts them once, and a second reads the cache."""
    count = intmat.smith_normal_form
    calls = []

    def counted(mat, m):
        calls.append(m)
        return count(mat, m)

    monkeypatch.setattr(intmat, "smith_normal_form", counted)
    L = abelian.lattice_for_subset(abelian.AbelianGroup((2, 2, 4)), (1, 2, 5, 6, 11))
    assert L.block
    assert L.member_fast(L.rows[0]) and not L.member_fast((1, -1) + (0,) * (L.n - 2))
    mods, _ = L.class_map()
    assert calls == []
    q = L.quotient()
    assert calls == [lcm(*mods)]
    assert L.quotient() is q and len(calls) == 1


def test_not_full_rank_errors():
    """Generators of rank below n - 1 are refused at construction, naming
    the rank and n - 1, and so is n < 2, where A_{n-1} = {0}."""
    for gens, n, rank in (
        ([(1, -1, 0, 0)], 4, 1),
        ([(1, -1, 0, 0), (-2, 2, 0, 0), (0, 0, 1, -1)], 4, 2),
        ([(2, -2, 0), (-3, 3, 0)], 3, 1),
    ):
        with pytest.raises(NotFullRankError, match=f"rank {rank} < n - 1 = {n - 1}$"):
            lattice.Lattice.from_generators(gens, n)
    for n in (0, 1):
        with pytest.raises(NotFullRankError, match=f"^n = {n} < 2"):
            lattice.Lattice.from_generators([(0,) * n], n)


def test_census_on_full_root_lattice():
    # A_{n-1} contains every e_i - e_j: n(n-1) ordered pairs
    for n in (3, 4, 5, 6):
        L = full_root_lattice(n)
        found = lattice.census_pm1(L, 1)
        assert len(found) == n * (n - 1)
        assert all(sum(v) == 0 and sum(x * x for x in v) == 2 for v in found)
        assert found == sorted(found)


def test_census_negation_closure_and_determinism(hl2):
    c = lattice.census_pm1(hl2.L, 2)
    assert c == sorted(c)
    s = set(c)
    assert all(tuple(-x for x in v) in s for v in s)


def test_census_budget():
    L = full_root_lattice(6)
    with pytest.raises(BudgetExceededError):
        lattice.census_pm1(L, 2, cap=10)


def _lattice_of_640_tags():
    """The lattice of Z_2^4 x Z_128 on its five unit vectors and
    (1, 1, 1, 1, 3), which generate it: 5 * 128 = 640 tags."""
    G = abelian.AbelianGroup((2, 2, 2, 2, 128))
    S = [G.encode(tuple(int(i == t) for i in range(5))) for t in range(5)]
    S.append(G.encode((1, 1, 1, 1, 3)))
    assert len(G.subgroup_generated(S)) == G.order
    return abelian.lattice_for_subset(G, S)


def test_census_brute_oracle():
    """Census against direct support enumeration with contains;
    support size 3 checks the incremental class sums below the top level,
    size 4 the pair slot under a two-slot prefix, and the subset lattices
    give quotients with two and three factors.  Z_2 x Z_128 reduces after
    every word and Z_257 takes two-byte digits, at n = 8 to 10, and
    Z_2^4 x Z_128 has 640 tags, so its keys are added."""
    rng = random.Random(29)
    lattices = [random_full_rank(rng, rng.randint(4, 8)) for _ in range(10)]
    lattices += [random_full_rank(rng, n) for n in (8, 9, 10)]
    for moduli in ((3, 3), (2, 4), (2, 2, 2)):
        G = abelian.AbelianGroup(moduli)
        for n in (6, 8):
            lattices.append(abelian.lattice_for_subset(G, rng.sample(range(1, G.order), n - 1)))
    for moduli in ((2, 128), (257,)):
        G = abelian.AbelianGroup(moduli)
        for n in (8, 9, 10):
            lattices.append(abelian.lattice_for_subset(G, range(1, n)))
        lattices.append(abelian.lattice_for_subset(G, rng.sample(range(1, G.order), 9)))
    lattices.append(_lattice_of_640_tags())
    for L in lattices:
        n = L.n
        for q in (1, 2, 3, 4):
            if 2 * q > n:
                continue
            expected = set()
            for plus in itertools.combinations(range(n), q):
                rest = [i for i in range(n) if i not in plus]
                for minus in itertools.combinations(rest, q):
                    v = [0] * n
                    for i in plus:
                        v[i] = 1
                    for i in minus:
                        v[i] = -1
                    if contains(L, v):
                        expected.add(tuple(v))
            assert set(lattice.census_pm1(L, q)) == expected


def _check_keyed_walk(L, part):
    """Walk the placements of `part` on L once, in passes: as many keys as
    _placements charges, read back as distinct placements on distinct
    coordinates, each under the key ClassWords.key gives it, and every key
    of a pass starting with that pass's class digit, one digit a pass."""
    n, words = L.n, L.class_words()
    passes = list(lattice._keyed_passes(n, part, words))
    assert len(passes) == (words.mods[0] if words.mods else 1), part
    assert sum(len(keys) for keys, _ in passes) == lattice._placements(n, part), part
    placed, digits = set(), []
    for keys, rows in passes:
        first = {key[: words.width] for key in keys}
        assert len(first) <= 1, part
        digits += first
        buckets = lattice._buckets(keys, rows, set(keys))
        for key, coords in buckets.items():
            for c in coords:
                assert len(set(c)) == len(c) == len(part), (part, c)
                v = [0] * n
                for i, x in zip(c, part):
                    v[i] = x
                assert words.key(v) == key, (part, c)
                placed.add(tuple(v))
    assert len(placed) == lattice._placements(n, part), part
    assert len(set(digits)) == len(digits), part


def test_walk_places_what_the_budget_charges():
    """Each side of every shape is walked once per placement, summed over
    the passes (_check_keyed_walk).  A_8 has one class, so it runs one
    pass in which every placement shares a key; Z_2 x Z_128 reduces after
    every word and Z_257 takes two-byte digits."""
    n = 9
    lattices = [full_root_lattice(n)]
    for moduli in ((2, 128), (257,)):
        lattices.append(abelian.lattice_for_subset(abelian.AbelianGroup(moduli), range(1, n)))
    for L in lattices:
        for part in {p for shape in lattice._shape_pairs(10, n) for p in shape}:
            _check_keyed_walk(L, part)
    assert lattices[0].class_map()[0] == ()  # A_8: the single pass above


def test_keys_by_one_table_or_by_adding(hl2):
    """The walk keys each tail by one translate through one 256-byte table
    when every tag t * M + digit fits a byte (len(mods) * M <= 256 with
    one-byte digits), and otherwise adds and reduces it; either way its
    keys equal ClassWords.key.  Tagged: the trivial group of A_8 (no
    tags), Z_2 x Z_128 with exactly 256 tags, and q = 2 (6 tags).  Added:
    Z_2 x Z_128 with 384 tags, q = 7 (384), Z_2^4 x Z_128 (640) and the
    two-byte digits of Z_257.  tail() is the tagged bytes on the first
    route and the word itself on the second."""
    z2_128 = abelian.AbelianGroup((2, 128))
    small = [(1, 1), (1, 1, 1), (2, 1), (2, 1, 1), (3, 2, 1), (2, 2, 1, 1)]
    cases = [
        # lattice, tagged, len(mods) * M, shapes
        (full_root_lattice(9), True, 0, small),
        (abelian.lattice_for_subset(z2_128, range(1, 12)), True, 256, small),
        (hl2.L, True, 6, small),
        (abelian.lattice_for_subset(z2_128, range(1, 9)), False, 384, small),
        (hermlat.build(7).L, False, 384, [(1, 1)]),
        (_lattice_of_640_tags(), False, 640, small),
        (abelian.lattice_for_subset(abelian.AbelianGroup((257,)), range(1, 9)), False, 257, small),
    ]
    for L, tagged, tags, shapes in cases:
        words = L.class_words()
        assert len(words.mods) * words.M == tags, L
        assert words.size == words.width * len(words.mods)
        assert isinstance(words.tail(words.tables[1][1]), bytes) == tagged, L
        for part in shapes:
            _check_keyed_walk(L, part)


def _unit_class_vector(rng, words, k, member):
    """A sum-zero vector with exactly k nonzero entries, of both signs and
    some beyond +-M, for a cyclic class group in which every coordinate
    but 0 has a unit class: k - 2 entries give the largest word, M - 1,
    one more brings the class to 0 (plus its own class unless `member`),
    and coordinate 0, of class 0, balances the sum."""
    M, n = words.M, len(words.cls)
    c = [ci[0] for ci in words.cls]
    while True:
        *rest, j = rng.sample(range(1, n), k - 1)
        v = [0] * n
        for i in rest:
            v[i] = -pow(c[i], -1, M) % M + M * rng.randint(-3, 2)
        s = sum(v[i] * c[i] for i in rest)
        v[j] = -s * pow(c[j], -1, M) % M + M * rng.randint(-3, 2) + (not member)
        v[0] = -sum(v)
        if all(v[i] for i in rest + [j, 0]) and max(map(abs, v)) > M:
            return tuple(v)


def test_key_counts_down_between_reductions():
    """ClassWords.key reduces after every `every` words: at every - 1,
    every, every + 1 and 2 * every + 1 nonzeros, most of them the largest
    word, its class is the componentwise oracle's and member_fast agrees
    with contains, for a class group of one-byte digits (Z_60) and one of
    two-byte digits (Z_15000), both with every = 3."""
    rng = random.Random(34)
    units = (1, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)  # prime to 60 and to 15000
    for M, width in ((60, 1), (15000, 2)):
        L = abelian.lattice_for_subset(abelian.AbelianGroup((M,)), units)
        words = L.class_words()
        assert (words.mods, words.width, words.every) == ((M,), width, 3)
        for k in (2, 3, 4, 7):
            for t in range(20):
                v = _unit_class_vector(rng, words, k, t % 2)
                assert sum(map(bool, v)) == k and min(v) < 0 < max(v)
                assert words.decode(words.key(v)) == class_of(L, v), v
                assert L.member_fast(v) == contains(L, v) == bool(t % 2), v


def _pairs(v):
    """The (index, value) pairs of v's nonzero entries."""
    return [(i, x) for i, x in enumerate(v) if x]


def test_trivial_class_with_nonzero_sum_is_refused():
    """e_0 has the trivial class, so the sum, read in the same pass as the
    class, is all that refuses e_0, 3 e_0 and e_0 plus a basis row, on the
    dense and the pair entry, at q = 2 and on an Abelian lattice."""
    cases = [
        hermlat.build(2).L,
        abelian.lattice_for_subset(abelian.AbelianGroup((2, 2, 4)), (1, 2, 5, 6, 11)),
    ]
    for L in cases:
        words = L.class_words()
        e0 = (1,) + (0,) * (L.n - 1)
        for v in (e0, tuple(3 * x for x in e0), tuple(x + y for x, y in zip(e0, L.rows[0]))):
            assert words.key(v) == words.zero and sum(v)
            assert not L.member_fast(v) and not L.member_support(_pairs(v))
            assert not contains(L, v)


def test_one_pass_past_every_at_both_digit_widths():
    """Membership reduces its class sum every `every` words on both entries:
    with more nonzeros than every = 3, for one-byte digits (Z_60) and
    two-byte digits (Z_15000), member_fast and member_support agree with
    contains on members, on non-members, and on members moved off sum
    zero at coordinate 0, whose class is trivial."""
    rng = random.Random(38)
    units = (1, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for M, width in ((60, 1), (15000, 2)):
        L = abelian.lattice_for_subset(abelian.AbelianGroup((M,)), units)
        words = L.class_words()
        assert (words.width, words.every) == (width, 3)
        for k in (4, 7, 10):
            for t in range(20):
                v = _unit_class_vector(rng, words, k, t % 2)
                off = (v[0] + 1,) + v[1:]
                assert sum(map(bool, v)) == k > words.every
                for w, want in ((v, bool(t % 2)), (off, False)):
                    assert L.member_fast(w) == L.member_support(_pairs(w)) == want
                    assert contains(L, w) == want


def test_dense_and_pair_entries_agree_with_contains():
    """On random vectors, lattice vectors with a random offset half the
    time and a nonzero sum a third of the time, member_fast and
    member_support, fed the pairs in shuffled order, agree with
    contains."""
    checked = 0
    for rng, L in _block_route_cases():
        for _ in range(10):
            v = [0] * L.n
            for row in L.rows:
                c = rng.randint(-2, 2)
                v = [x + c * y for x, y in zip(v, row)]
            if rng.random() < 0.5:
                v[rng.randrange(L.n)] += rng.randint(-3, 3)
                v[rng.randrange(L.n)] -= rng.randint(-3, 3)
            if rng.random() < 1 / 3:
                v[rng.randrange(L.n)] += rng.choice((-1, 1))
            pairs = _pairs(v)
            rng.shuffle(pairs)
            want = contains(L, v)
            assert L.member_fast(v) == L.member_support(pairs) == want, v
            checked += want
    assert checked > 100


def test_membership_entries_refuse_bad_input():
    """A dense vector of the wrong length is a DimensionMismatchError on
    member_fast and ClassWords.key; pairs with a repeated index are a
    ValueError, and an index outside [0, n) a DimensionMismatchError, on
    member_support and on Lattice.from_supports."""
    L = hermlat.build(2).L
    row = L.rows[0]
    for bad in (row + (0,), row[:-1]):
        with pytest.raises(DimensionMismatchError):
            L.member_fast(bad)
        with pytest.raises(DimensionMismatchError):
            L.class_words().key(bad)
    pairs = _pairs(row)
    i, x = pairs[-1]
    with pytest.raises(ValueError, match="repeated"):
        L.member_support(pairs + [(i, 0)])
    with pytest.raises(ValueError, match="repeated"):
        lattice.Lattice.from_supports([pairs + [(i, 0)]], L.n)
    for j in (L.n, -1):
        with pytest.raises(DimensionMismatchError):
            L.member_support(pairs + [(j, 0)])
        with pytest.raises(DimensionMismatchError):
            lattice.Lattice.from_supports([pairs + [(j, 0)]], L.n)
    with pytest.raises(ValueError, match="sum to zero"):
        lattice.Lattice.from_supports([[(0, 1)]], L.n)


def test_census_holds_one_pass_of_keys():
    """The q = 4 census keys its 677,040 placements in five passes by the
    first class digit and pairs each pass before the next is walked, so
    its traced peak stays below 28 MB (all the keys and their Counter at
    once would take about 65 MB)."""
    L = hermlat.build(4).L
    L.class_words()
    tracemalloc.start()
    try:
        vectors = lattice.census_pm1(L, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(vectors) == 15600
    assert peak < 28 * 2**20, peak


def test_scan_vs_enumeration():
    """Shape-complete scan and Fincke-Pohst enumeration must agree
    exactly.  The subset lattices have short vectors in shapes with
    repeated parts, entries 2 and 3, and mirrored pairs, with quotients
    of two or three factors."""
    rng = random.Random(7)
    a2_scaled = lattice.Lattice.from_generators([(2, -2, 0), (0, 2, -2)], 3)
    cases = [(a2_scaled, 2), (a2_scaled, 8)]  # none, then the six vectors of shape (2 | 2)
    for _ in range(25):
        cases.append((random_full_rank(rng, rng.randint(3, 7)), rng.randint(2, 12)))
    for moduli in ((3, 3), (2, 4), (2, 2, 2)):
        G = abelian.AbelianGroup(moduli)
        for n in (4, 6, 8):
            L = abelian.lattice_for_subset(G, rng.sample(range(1, G.order), n - 1))
            cases.append((L, rng.randint(8, 12)))
    for L, bound in cases:
        a = {v for _, v in lattice.enumerate_short_vectors(L, bound)}
        b = lattice.scan_short_vectors(L, bound)
        assert a == set(b) and len(b) == len(a), (L.rows, bound)
        for v in a:
            assert 0 < sum(x * x for x in v) <= bound


def test_shape_vectors_places_repeated_and_mirrored_parts():
    """Each shape's vectors, against a filter of the enumeration."""
    # Z_257 takes two-byte digits; Z_2 x Z_128 reduces after every word
    for moduli in ((2, 4), (257,), (2, 128)):
        L = abelian.lattice_for_subset(abelian.AbelianGroup(moduli), range(1, 8))
        enum = [v for _, v in lattice.enumerate_short_vectors(L, 14)]
        for pos, neg in (((2,), (1, 1)), ((1, 1), (2,)), ((2, 1), (1, 1, 1)), ((2, 1), (2, 1)),
                         ((3,), (1, 1, 1)), ((2, 2), (1, 1, 1, 1))):
            want = sorted(
                v for v in enum
                if sorted((x for x in v if x > 0), reverse=True) == list(pos)
                and sorted((-x for x in v if x < 0), reverse=True) == list(neg)
            )
            assert lattice.shape_vectors(L, pos, neg) == want, (moduli, pos, neg)


def test_scan_refuses_before_any_walk(monkeypatch):
    """The placements of every shape are summed before the first walk;
    the walk's first step is the class map."""
    L = full_root_lattice(9)

    def no_walk(self):
        raise AssertionError("class sums taken by a refused scan")

    monkeypatch.setattr(lattice.Lattice, "class_map", no_walk)
    # bound 6 at n = 9: 9 + 36 + 84 placements for the +-1 shapes, and
    # 9 + 36 for (2 | 1,1), whose mirror (1,1 | 2) is not walked
    with pytest.raises(BudgetExceededError):
        lattice.scan_short_vectors(L, 6, cap=173)
    with pytest.raises(AssertionError):
        lattice.scan_short_vectors(L, 6, cap=174)


def test_enumeration_norms_and_antipodes():
    L = full_root_lattice(5)
    found = lattice.enumerate_short_vectors(L, 2)
    assert len(found) == 20
    vs = {v for _, v in found}
    assert all(tuple(-x for x in v) in vs for v in vs)


def test_enumeration_rank_cap():
    L = full_root_lattice(15)
    with pytest.raises(SearchInfeasibleError):
        lattice.enumerate_short_vectors(L, 2)


def _gram_schmidt(rows):
    """mu and |b*_i|^2 of a basis, in rationals (the oracle)."""
    star, mu, norms = [], [], []
    for b in rows:
        coeffs = [sum(x * y for x, y in zip(b, s)) / n for s, n in zip(star, norms)]
        v = [Fraction(x) for x in b]
        for c, s in zip(coeffs, star):
            v = [x - c * y for x, y in zip(v, s)]
        star.append(v)
        mu.append(coeffs)
        norms.append(sum(x * x for x in v))
    return mu, norms


def _lll_cases():
    rng = random.Random(11)
    for n in range(3, 11):
        for _ in range(3):
            yield random_full_rank(rng, n)
    for moduli in ((11,), (3, 3), (2, 2, 4)):
        G = abelian.AbelianGroup(moduli)
        for n in (4, 7, G.order - 1):
            yield abelian.lattice_for_subset(G, rng.sample(range(1, G.order), n - 1))
    yield hermlat.build(2).L


@pytest.fixture
def deadline():
    """Fail, rather than hang, when a broken reduction stops terminating."""

    def expire(signum, frame):
        raise TimeoutError("no result within 20 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def test_lll_reduce_against_rational_oracle(deadline):
    """The reduced basis spans L, is size-reduced and meets the Lovasz
    condition for delta = 99/100, each recomputed in rationals."""
    delta = Fraction(*lattice.LLL_DELTA)
    assert delta == Fraction(99, 100)
    for L in _lll_cases():
        reduced = lattice.lll_reduce(L.rows)
        assert len(reduced) == L.rank
        assert lattice.Lattice.from_generators(reduced, L.n) == L
        mu, norms = _gram_schmidt(reduced)
        for k in range(1, L.rank):
            assert all(abs(m) <= Fraction(1, 2) for m in mu[k]), (L.rows, k)
            assert norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1], (L.rows, k)


def test_lll_reduce_keeps_a_reduced_basis_and_refuses_dependence():
    L = full_root_lattice(6)
    assert lattice.lll_reduce(L.rows) == list(L.rows)  # already LLL-reduced
    assert lattice.lll_reduce([]) == []
    with pytest.raises(ValueError):
        lattice.lll_reduce([(1, -1, 0), (2, -2, 0)])


def test_enumeration_on_given_basis(monkeypatch):
    """minimal_vectors reduces once and hands the basis on."""
    L = hermlat.build(2).L
    calls = []
    real = lattice.lll_reduce
    monkeypatch.setattr(lattice, "lll_reduce", lambda rows: calls.append(1) or real(rows))
    mv = lattice.minimal_vectors(L)
    assert len(calls) == 1 and len(mv) == 108
    assert lattice.enumerate_short_vectors(L, 4, L.rows) == lattice.enumerate_short_vectors(L, 4)


def test_enumeration_is_a_second_route_to_min_at_q3(monkeypatch):
    """On the rank-27 Hermitian lattice of q = 3 the LLL basis makes the
    enumeration short: it equals the +-1 census, 2,016 vectors of norm 6."""
    monkeypatch.setattr(lattice, "ENUM_MAX_RANK", 27)
    L = hermlat.build(3).L
    t0 = time.perf_counter()
    found = lattice.enumerate_short_vectors(L, 6)
    assert time.perf_counter() - t0 < 10
    assert {norm for norm, _ in found} == {6}
    assert {v for _, v in found} == set(lattice.census_pm1(L, 3))
    assert len(found) == 2016


def test_permute_moves_values():
    v = (5, 6, 7)
    # value at position i lands at position perm[i]
    assert permute(v, (1, 2, 0)) == (7, 5, 6)
    assert permute(v, (0, 1, 2)) == v


def test_permutation_automorphisms_full_root():
    # A_{n-1} is fixed by every coordinate permutation
    for n in (3, 4, 5):
        L = full_root_lattice(n)
        perms = lattice.permutation_automorphisms(L)
        import math

        assert len(perms) == math.factorial(n - 1)
        assert all(p[0] == 0 for p in perms)


def _reversed(L):
    """L with its coordinates in reverse order."""
    return lattice.Lattice.from_generators([row[::-1] for row in L.rows], L.n)


def test_permutation_automorphisms_fix_index_0():
    # scaling one coordinate pair breaks most symmetries; reversed, the
    # scaled pair ends the coordinates instead of starting them
    L = lattice.Lattice.from_generators([(3, -3, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)], 4)
    for M in (L, _reversed(L)):
        perms = lattice.permutation_automorphisms(M)
        # identity plus anything permuting coordinates with equal roles
        assert all(p[0] == 0 for p in perms)
        assert tuple(range(4)) in perms
        for p in perms:
            assert M.fixed_by(p)


def test_permutation_group_closure():
    rng = random.Random(43)
    for _ in range(10):
        L = random_full_rank(rng, rng.randint(3, 5))
        perms = lattice.permutation_automorphisms(L)
        pset = set(perms)
        assert tuple(range(L.n)) in pset
        for p in perms:
            inv = [0] * L.n
            for i, j in enumerate(p):
                inv[j] = i
            assert tuple(inv) in pset
        for a in perms[:6]:
            for b in perms[:6]:
                comp = tuple(a[b[i]] for i in range(L.n))
                assert comp in pset


def _brute_perm_automorphisms(L):
    """Every permutation of the coordinates after 0, kept when it maps
    each basis row into L by contains."""
    out = []
    for images in itertools.permutations(range(1, L.n)):
        perm = (0, *images)
        if all(contains(L, permute(row, perm)) for row in L.rows):
            out.append(perm)
    return sorted(out)


def test_profile_search_matches_brute_force(hl2):
    """The pruned search against trying every permutation, on random
    lattices and the Z_3 x Z_3 subset lattices.  A random generator set
    of echelon rank below n - 1 is refused at construction instead."""
    cases = [
        full_root_lattice(5),
        lattice.Lattice.from_generators([(2, -2, 0), (0, 2, -2)], 3),
        lattice.Lattice.from_generators(
            [(1, 1, -1, -1, 0), (0, 1, 1, -1, -1), (2, 0, -2, 0, 0), (1, -1, 1, -1, 0)], 5
        ),
        hl2.L,
    ]
    rng = random.Random(53)
    refused = 0
    for _ in range(40):
        n = rng.randint(3, 8)
        gens = []
        for _ in range(rng.randint(1, n)):  # fewer than n - 1 rows may leave rank short
            v = [rng.randint(-2, 2) for _ in range(n - 1)]
            gens.append(tuple(v) + (-sum(v),))
        if len(intmat.echelon([v[1:] for v in gens], n - 1)[0]) < n - 1:
            with pytest.raises(NotFullRankError):
                lattice.Lattice.from_generators(gens, n)
            refused += 1
        else:
            cases.append(lattice.Lattice.from_generators(gens, n))
    assert 0 < refused < 40
    G = abelian.AbelianGroup((3, 3))
    for gens in ([1, 3, 4], [1, 2, 3, 6], [1, 2, 4, 5, 7], list(range(1, 9))):
        cases.append(abelian.lattice_for_subset(G, gens))
    for L in cases:
        for M in (L, _reversed(L)):
            assert lattice.permutation_automorphisms(M) == _brute_perm_automorphisms(M), M.rows


def test_permutation_search_prunes_by_basis_rows(hl2, monkeypatch):
    """On the q = 2 Hermitian lattice and the Z_3 x Z_3 lattice of S = G,
    checking each basis row once its support is placed makes far fewer
    membership checks than the 8! = 40,320 leaves of an unpruned search."""
    G = abelian.AbelianGroup((3, 3))
    L9 = abelian.lattice_for_subset(G, list(range(1, 9)))
    cases = [hl2.L, L9]
    calls = []
    member = lattice.Lattice._member

    def counted(self, indices, values):
        calls.append(values)
        return member(self, indices, values)

    monkeypatch.setattr(lattice.Lattice, "_member", counted)
    for L in cases:
        calls.clear()
        perms = lattice.permutation_automorphisms(L)
        assert len(perms) == 48
        assert 0 < len(calls) < 40320 // 20, len(calls)


def test_zero_lattice():
    with pytest.raises(NotFullRankError, match="rank 0 < n - 1 = 2$"):
        lattice.Lattice.from_generators([(0, 0, 0)], 3)


def test_permutation_search_on_q3_hermitian_lattice(hl3):
    """Rank 27, past the enumeration cap: the basis-row search needs no
    minimal vectors and finds the 432 permutations fixing place 0."""
    assert hl3.L.rank == 27
    assert len(lattice.permutation_automorphisms(hl3.L)) == 432


def test_permutation_search_caps():
    """A_14 and A_30 keep all (n - 1)! permutations fixing index 0: the
    search is refused once it has tried PERM_MAX_WORK partial maps."""
    refusal = rf"tried \d+ partial maps > cap {lattice.PERM_MAX_WORK}$"
    for n in (15, 31):
        with pytest.raises(SearchInfeasibleError, match=refusal):
            lattice.permutation_automorphisms(full_root_lattice(n))


def test_generated_by_minimals_index_cases():
    # full-rank minimal span generating the whole lattice: index 1
    L = lattice.Lattice.from_generators([(2, -2, 0), (0, 2, -2)], 3)
    mv = lattice.minimal_vectors(L)
    assert lattice.generated_by_minimals_index(L, mv) == 1
    # (1,1,-2) collapses onto <(1,-1,0),(0,2,-2)>; minimals are just
    # +-(1,-1,0), spanning rank 1 of 2, so the index reports 0
    L1 = lattice.Lattice.from_generators([(2, -2, 0), (0, 2, -2), (1, 1, -2)], 3)
    mv1 = lattice.minimal_vectors(L1)
    assert sorted(mv1) == sorted([(1, -1, 0), (-1, 1, 0)])
    assert lattice.generated_by_minimals_index(L1, mv1) == 0
    # minimal span of rank 1 in a rank-3 lattice reports 0
    L2 = lattice.Lattice.from_generators([(5, -5, 0, 0), (0, 5, -5, 0), (0, 0, 1, -1)], 4)
    mv2 = lattice.minimal_vectors(L2)
    assert sorted(mv2) == [(0, 0, -1, 1), (0, 0, 1, -1)]
    assert lattice.generated_by_minimals_index(L2, mv2) == 0
    # a span whose index L's index does not divide has left L: an internal error
    L3 = lattice.Lattice.from_generators([(2, -2, 0), (0, 2, -2)], 3)
    with pytest.raises(InternalIdentityViolationError, match="escaped"):
        lattice.generated_by_minimals_index(L3, [(1, -1, 0), (0, 1, -1)])


@pytest.mark.parametrize("gens, n, expected", [
    ([(2, -2, 0), (0, 2, -2)], 3, True),
    ([(2, -2, 0), (0, 2, -2), (1, 1, -2)], 3, False),
    ([(5, -5, 0, 0), (0, 5, -5, 0), (0, 0, 1, -1)], 4, False),
], ids=["scaled_a2", "collapsed", "rank_deficient"])
def test_well_rounded_is_a_nonzero_index(gens, n, expected):
    """One Hermite span decides well-roundedness: index != 0 agrees with
    the echelon rank of the minimal vectors."""
    L = lattice.Lattice.from_generators(gens, n)
    mv = lattice.minimal_vectors(L)
    index = lattice.generated_by_minimals_index(L, mv)
    echelon_rank = len(intmat.echelon([list(v) for v in mv], n)[0])
    assert (index != 0) == (echelon_rank == L.rank) == expected


def test_eq_and_hash_canonical():
    A = lattice.Lattice.from_generators([(1, -1, 0), (0, 1, -1)], 3)
    B = lattice.Lattice.from_generators([(0, 1, -1), (1, 0, -1), (1, -1, 0)], 3)
    assert A == B
    assert hash(A) == hash(B)
    C = lattice.Lattice.from_generators([(2, -2, 0), (0, 2, -2)], 3)
    assert A != C
