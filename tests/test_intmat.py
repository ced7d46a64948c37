import random
from collections import Counter
from functools import reduce
from math import gcd, prod

import pytest
from oracles import smith_normal_form, solve_in_span

from hfl import abelian, hermlat, intmat
from hfl.curve import curve_make


def _random_vectors(rng, n, k, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(k)]


def test_hnf_canonical_under_unimodular_changes():
    """Same row span (shuffles, row mixes, sign flips) -> same HNF."""
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(3, 8)
        k = rng.randint(1, n + 2)
        vecs = _random_vectors(rng, n, k)
        h1, p1 = intmat.hnf([list(v) for v in vecs], n)
        rng.shuffle(vecs)
        if len(vecs) >= 2:
            i, j = rng.sample(range(len(vecs)), 2)
            m = rng.randint(-3, 3)
            vecs[i] = [x + m * y for x, y in zip(vecs[i], vecs[j])]
        i = rng.randrange(len(vecs))
        vecs[i] = [-x for x in vecs[i]]
        h2, p2 = intmat.hnf([list(v) for v in vecs], n)
        assert (h1, p1) == (h2, p2)


def test_hnf_invariant_under_duplicate_and_negated_rows():
    """Repeated rows and -v copies, in any order, leave the HNF unchanged."""
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randint(2, 8)
        vecs = _random_vectors(rng, n, rng.randint(1, n + 2))
        want = intmat.hnf([list(v) for v in vecs], n)
        extra = [list(v) for v in vecs]
        for _ in range(rng.randint(1, 2 * len(vecs))):
            v = rng.choice(vecs)
            extra.append(list(v) if rng.random() < 0.5 else [-x for x in v])
        rng.shuffle(extra)
        assert intmat.hnf(extra, n) == want


def test_hnf_shape():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(2, 7)
        vecs = _random_vectors(rng, n, rng.randint(1, n + 1))
        rows, pivots = intmat.hnf([list(v) for v in vecs], n)
        assert pivots == sorted(pivots)
        for i, c in enumerate(pivots):
            assert rows[i][c] > 0
            assert all(rows[i][j] == 0 for j in range(c))
            # entries above a pivot are reduced into [0, pivot)
            for above in range(i):
                assert 0 <= rows[above][c] < rows[i][c]


def test_membership_and_solve():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(3, 7)
        vecs = _random_vectors(rng, n, rng.randint(2, n))
        rows, pivots = intmat.hnf([list(v) for v in vecs], n)
        # an actual span member
        coeffs = [rng.randint(-4, 4) for _ in rows]
        member = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
        got = solve_in_span(rows, pivots, member)
        assert got is not None
        rebuilt = [sum(c * r[j] for c, r in zip(got, rows)) for j in range(n)]
        assert rebuilt == member
        # membership agrees with the HNF being canonical: a probe lies in
        # the span iff adding it changes nothing.  Arbitrary probes mostly
        # lie outside, a member divided by its content mostly inside.
        content = reduce(gcd, member) or 1
        for probe in ([rng.randint(-5, 5) for _ in range(n)], [x // content for x in member]):
            in_span = intmat.hnf([list(v) for v in vecs] + [probe], n) == (rows, pivots)
            assert (solve_in_span(rows, pivots, probe) is not None) == in_span


def test_left_kernel():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 6)
        k = rng.randint(2, 6)
        rows = _random_vectors(rng, n, k)
        ker = intmat.left_kernel([list(r) for r in rows], n)
        # every kernel row annihilates the matrix
        for y in ker:
            for col in zip(*rows):
                assert sum(a * b for a, b in zip(y, col)) == 0
        # dimension count: len(ker) == k - rank
        assert len(ker) == k - len(intmat.echelon([list(r) for r in rows], n)[0])


def test_left_kernel_saturated():
    """Kernel rows form a full integer kernel basis, not a finite-index
    sublattice: any integer kernel vector must reduce to zero against it."""
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(2, 5)
        k = rng.randint(2, 5)
        rows = _random_vectors(rng, n, k, lo=-4, hi=4)
        ker = intmat.left_kernel([list(r) for r in rows], n)
        if not ker:
            continue
        krows, kpivots = intmat.echelon([list(y) for y in ker], k)
        # brute force small kernel vectors
        span = [list(col) for col in zip(*rows)]
        for trial in range(200):
            y = [rng.randint(-3, 3) for _ in range(k)]
            if all(sum(a * b for a, b in zip(y, col)) == 0 for col in span):
                assert solve_in_span(krows, kpivots, y) is not None


def test_smith_normal_form():
    """The divisors counted off Hermite forms equal the integer Smith
    form's on square matrices of full rank, for m their exponent or a
    multiple of it, in an ascending divisor chain whose product is the
    Hermite index; they hold for three primes, for prime powers above
    MODULAR_MAX, where the count runs through the integer echelon, and
    for the empty block."""
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(1, 6)
        mat = _random_vectors(rng, n, n)
        dense, _, _ = smith_normal_form(mat, n)
        if not all(dense):
            continue
        for m in (dense[-1], 6 * dense[-1]):
            divisors = intmat.smith_normal_form(mat, m)[0]
            assert divisors == dense
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0
        rows, pivots = intmat.hnf(mat, n)
        assert prod(r[c] for r, c in zip(rows, pivots)) == prod(divisors)
    assert intmat.smith_normal_form([[6, 0], [0, 6]], 6)[0] == [6, 6]
    assert intmat.smith_normal_form([[2, 0], [0, 6]], 6)[0] == [2, 6]
    assert intmat.smith_normal_form([[4, 2], [0, 6]], 12)[0] == [2, 12]
    assert intmat.smith_normal_form([[2, 0, 0], [0, 3, 0], [0, 0, 5]], 30)[0] == [1, 1, 30]
    assert 32 > intmat.MODULAR_MAX
    assert intmat.smith_normal_form([[32, 0], [0, 64]], 64)[0] == [32, 64]
    # the block of the Z_2 x Z_128 subset {(1, 0), (0, 2), (1, 2)}
    L = abelian.lattice_for_subset(abelian.AbelianGroup((2, 128)), (1, 4, 5))
    block = [[L.rows[i - 1][j] for j in L.block] for i in L.block]
    assert block == [[2, 62], [0, 64]]
    assert intmat.smith_normal_form(block, 64)[0] == [2, 64]
    assert intmat.smith_normal_form([], 1) == ([],)


def test_echelon_rejects_ragged():
    import pytest

    with pytest.raises(ValueError):
        intmat.echelon([[1, 2], [1, 2, 3]], 2)


def _sparse_random_matrix(rng):
    n = rng.randint(3, 40)
    k = rng.randint(1, n + 8)
    density = rng.choice((0.08, 0.2, 0.5, 1.0))
    return n, [
        [rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(k)
    ]


def _line_divisor_rows(q):
    curve = curve_make(q)
    divs = [list(curve.divisor_of_line(line)[1:]) for line in curve.all_lines()]
    return divs, curve.n - 1


def _assert_reduced_above_pivots(rows, pivots):
    """2|entry| <= |pivot| above every pivot, so 0 above a unit pivot."""
    for k, c in enumerate(pivots):
        p = abs(rows[k][c])
        for i in range(k):
            assert 2 * abs(rows[i][c]) <= p, (i, k, rows[i][c], p)


def test_echelon_rows_reduced_above_each_pivot():
    """echelon's closing bottom-up pass reduces every row at the pivots
    below it, on random matrices and on the line divisors up to q = 5."""
    rng = random.Random(7)
    for _ in range(300):
        n, vecs = _sparse_random_matrix(rng)
        _assert_reduced_above_pivots(*intmat.echelon(vecs, n))
    for q in (2, 3, 4, 5):
        _assert_reduced_above_pivots(*intmat.echelon(*_line_divisor_rows(q)))


# -- the modular route: inputs with a row c_j * e_j in every column -----------


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_modular_hnf_matches_dense_on_line_divisors(q):
    """A tangent line's divisor is (q+1)(P - P_inf), so the line divisors
    certify m = q + 1, and the form built mod q + 1 is the integer
    echelon's."""
    divs, width = _line_divisor_rows(q)
    assert intmat._certified_modulus(divs, width) == q + 1
    assert intmat.hnf(divs, width) == intmat._echelon_hnf(divs, width)


def _with_unit_multiples(rng, m, vecs, n):
    """vecs and a row +-c_j * e_j for every column j, each c_j dividing m
    and their lcm m, shuffled together."""
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    cs = [rng.choice(divisors) for _ in range(n)]
    cs[rng.randrange(n)] = m
    units = [[rng.choice((c, -c)) if j == i else 0 for j in range(n)] for i, c in enumerate(cs)]
    rows = vecs + units
    rng.shuffle(rows)
    return rows


def test_modular_hnf_matches_dense_on_certified_inputs():
    """Random rows with injected unit multiples, prime and composite m:
    the modular route gives the integer echelon's form."""
    rng = random.Random(17)
    moduli = Counter()
    for _ in range(400):
        m = rng.choice((2, 3, 4, 5, 6, 8, 9, 10, 12, 16))
        n = rng.randint(1, 12)
        density = rng.choice((0.2, 0.5, 1.0))
        vecs = [
            [rng.randint(-20, 20) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(rng.randint(0, n + 4))
        ]
        vecs = _with_unit_multiples(rng, m, vecs, n)
        certified = intmat._certified_modulus(vecs, n)
        assert certified and m % certified == 0
        moduli[certified] += 1
        assert intmat.hnf(vecs, n) == intmat._echelon_hnf(vecs, n)
    assert all(moduli[m] >= 10 for m in (4, 6, 8, 9, 12)), moduli


def test_hnf_reads_a_one_shot_iterator_on_both_routes():
    """hnf gives the same form on a one-shot iterator as on its list, on
    certified line-divisor rows (the Howell route) and on uncertified
    random rows (the integer echelon): the rows are read once, before
    the certificate and the route consume them."""
    divs, width = _line_divisor_rows(3)
    assert intmat._certified_modulus(divs, width) == 4
    cases = [(divs, width)]
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 6)
        # no zero entry, so no row is a multiple of a unit vector
        vecs = [
            [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n)]
            for _ in range(rng.randint(1, n + 2))
        ]
        assert intmat._certified_modulus(vecs, n) == 0
        cases.append((vecs, n))
    for vecs, n in cases:
        want = intmat.hnf(vecs, n)
        assert want[0]
        assert intmat.hnf(iter(vecs), n) == want
        assert intmat.hnf((list(v) for v in vecs), n) == want


def _refuse_echelon(*args):
    raise AssertionError("the integer echelon ran")


@pytest.mark.parametrize("q", [2, 3, 4])
def test_hermitian_line_divisors_skip_the_integer_echelon(q, monkeypatch):
    monkeypatch.setattr(intmat, "echelon", _refuse_echelon)
    hl = hermlat.build(q)
    assert hl.L.rank == hl.curve.n - 1


@pytest.mark.parametrize(
    "vecs",
    [
        [[2, 0, 0], [0, 3, 0], [1, 1, 1]],  # column 2 has no row c * e_2
        [[17, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 3]],  # m = 17
        [[9, 0], [0, 8], [1, 1]],  # m = 72
    ],
)
def test_uncertified_inputs_take_the_integer_echelon(vecs, monkeypatch):
    calls = []
    real = intmat.echelon

    def counted(*args):
        calls.append(args)
        return real(*args)

    want = intmat._echelon_hnf(vecs, len(vecs[0]))
    monkeypatch.setattr(intmat, "echelon", counted)
    assert intmat.hnf(vecs, len(vecs[0])) == want
    assert len(calls) == 1


@pytest.mark.parametrize(
    "vecs",
    [
        [[2, 0], [0, 2], [1, 2, 3]],  # the square rows certify m = 2
        [[2, 0], [0, 2], [1]],
        [[1, 2], [1, 2, 3]],  # the integer route's input
    ],
)
def test_hnf_rejects_ragged_on_both_routes(vecs):
    with pytest.raises(ValueError):
        intmat.hnf(vecs, 2)
    with pytest.raises(ValueError):
        intmat._echelon_hnf(vecs, 2)
