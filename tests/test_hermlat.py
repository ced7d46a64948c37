"""Hermitian function-field lattices: structure, kissing vectors, census."""

import itertools
import re
import tracemalloc

import pytest

from hfl import hermlat, lattice
from hfl.curve import Slope, Vertical, curve_make
from hfl.errors import BudgetExceededError, InternalIdentityViolationError, NotMinimalPairError
from oracles import contains, dense_vector, tangent_line_at


def norm2(v):
    return sum(x * x for x in v)


def dense_difference(curve, num, den):
    """div(num) - div(den) from the two dense line divisors."""
    return tuple(x - y for x, y in zip(curve.divisor_of_line(num), curve.divisor_of_line(den)))


def test_structure_q2(hl2):
    assert hl2.curve.n == 9
    assert hl2.L.rank == 8
    assert hl2.L.index_in_ambient() == 9
    assert hl2.quotient.divisors[-2:] == (3, 3)
    assert all(d == 1 for d in hl2.quotient.divisors[:-2])
    assert hl2.L.determinant() == (9, 9)


def test_structure_q3(hl3):
    assert hl3.curve.n == 28
    assert hl3.L.rank == 27
    assert hl3.L.index_in_ambient() == 4**6
    nontrivial = [d for d in hl3.quotient.divisors if d != 1]
    assert nontrivial == [4] * 6


def test_structure_q7():
    """The q = 7 build, about a second: index 8^42, quotient Z_8^42."""
    hl = hermlat.build(7)
    assert hl.L.rank == 343
    assert hl.L.index_in_ambient() == 8**42
    assert hl.quotient.nontrivial == (8,) * 42


def test_divisors_span_checked_at_build(hl2):
    # every line divisor is in the lattice it spans, and the rank is full
    for line in hl2.curve.all_lines():
        assert contains(hl2.L, hl2.curve.divisor_of_line(line))
    assert hl2.L.rank == hl2.curve.n - 1


def test_minimal_pair_vector_accepts(curve2):
    q = curve2.q
    # two verticals
    v = hermlat.minimal_pair_vector(curve2, Vertical(1), Vertical(2))
    assert norm2(v.values()) == 2 * q
    d1, d2 = curve2.divisor_of_line(Vertical(1)), curve2.divisor_of_line(Vertical(2))
    assert dense_vector(curve2.n, v) == tuple(x - y for x, y in zip(d1, d2))
    assert sum(v.values()) == 0 and 0 not in v
    # vertical and secant through a shared point
    secant = next(
        l for l in curve2.all_lines() if isinstance(l, Slope) and not curve2.is_tangent(l)
    )
    pt = curve2.points_on_line(secant)[0]
    v2 = hermlat.minimal_pair_vector(curve2, Vertical(pt[0]), secant)
    assert norm2(v2.values()) == 2 * q
    # two secants through a shared point
    other = next(
        l
        for l in curve2.all_lines()
        if isinstance(l, Slope)
        and not curve2.is_tangent(l)
        and l != secant
        and pt in curve2.points_on_line(l)
    )
    v3 = hermlat.minimal_pair_vector(curve2, secant, other)
    assert norm2(v3.values()) == 2 * q


def test_minimal_pair_vector_is_the_sparse_dense_difference(curve2, curve3):
    """Every ordered pair of distinct lines at q = 2 and 3 is refused, or
    gives exactly the nonzero entries of the dense difference, of norm^2
    2q: the 108 and 2,016 family vectors come from distinct pairs, all of
    them accepted, among the 380 and 8,010 pairs of the 20 and 90 lines."""
    for curve, families in ((curve2, 108), (curve3, 2016)):
        accepted = 0
        for num, den in itertools.permutations(curve.all_lines(), 2):
            try:
                v = hermlat.minimal_pair_vector(curve, num, den)
            except NotMinimalPairError:
                continue
            dense = dense_difference(curve, num, den)
            assert v == {i: x for i, x in enumerate(dense) if x}
            assert norm2(v.values()) == norm2(dense) == 2 * curve.q
            accepted += 1
        assert accepted == families


def test_minimal_pair_vector_rejects(curve2):
    with pytest.raises(NotMinimalPairError, match="identical"):
        hermlat.minimal_pair_vector(curve2, Vertical(1), Vertical(1))
    tangent = tangent_line_at(curve2, *curve2.places[1])
    with pytest.raises(NotMinimalPairError, match="tangent"):
        hermlat.minimal_pair_vector(curve2, Vertical(0), tangent)
    with pytest.raises(NotMinimalPairError, match="tangent"):
        hermlat.minimal_pair_vector(curve2, tangent, Vertical(0))
    # a vertical missing every point of the secant: 0 shared points
    secant = next(
        l for l in curve2.all_lines() if isinstance(l, Slope) and not curve2.is_tangent(l)
    )
    xs = {p[0] for p in curve2.points_on_line(secant)}
    missing = next(a for a in range(curve2.field.order) if a not in xs)
    with pytest.raises(NotMinimalPairError, match="shares 0"):
        hermlat.minimal_pair_vector(curve2, Vertical(missing), secant)
    # parallel secants never share an affine point
    parallel = next(
        l
        for l in curve2.all_lines()
        if isinstance(l, Slope)
        and not curve2.is_tangent(l)
        and l.b == secant.b
        and l.c != secant.c
    )
    with pytest.raises(NotMinimalPairError, match="shares 0"):
        hermlat.minimal_pair_vector(curve2, secant, parallel)


STEPS_PER_KIND = {"vertical": lambda q: q, "secant": lambda q: 3 * q - 1, "tangent": lambda q: 4 * q - 1}


def classify(curve, line):
    if isinstance(line, Vertical):
        return "vertical"
    return "tangent" if curve.is_tangent(line) else "secant"


@pytest.mark.parametrize("q,total_steps", [(2, 104), (3, 756)])
def test_decompose_all_lines(q, total_steps, curve2, curve3):
    curve = curve2 if q == 2 else curve3
    seen = 0
    for line in curve.all_lines():
        steps = hermlat.decompose_line(curve, line)
        kind = classify(curve, line)
        assert len(steps) == STEPS_PER_KIND[kind](q)
        for s in steps:
            assert s.sign in (-1, 1)
            # every step is a checked pair quotient
            vec = hermlat.minimal_pair_vector(curve, s.numerator, s.denominator)
            assert norm2(vec.values()) == 2 * q
        seen += len(steps)
    assert seen == total_steps


def test_decompose_step_tags(curve2):
    steps = hermlat.decompose_line(curve2, Vertical(1))
    assert [s.tag for s in steps] == ["vertical"] * 2
    origin = hermlat.decompose_line(curve2, Vertical(0))
    assert all(s.tag == "vertical_origin" for s in origin) or all(
        s.tag == "vertical" for s in origin
    )
    tangent = next(
        l for l in curve2.all_lines() if isinstance(l, Slope) and curve2.is_tangent(l)
    )
    tags = {s.tag for s in hermlat.decompose_line(curve2, tangent)}
    assert tags & {"tangent", "tangent_origin"}


def test_decompose_beta_choices(curve3):
    F = curve3.field
    secant = next(
        l for l in curve3.all_lines() if isinstance(l, Slope) and not curve3.is_tangent(l)
    )
    target = F.norm(F.neg(F.frobenius(secant.b)))
    betas = F.trace_fiber(target)
    assert len(betas) == curve3.q
    runs = []
    for beta in betas:
        steps = hermlat.decompose_line(curve3, secant, beta=beta)
        assert len(steps) == 3 * curve3.q - 1
        runs.append(tuple(
            (s.sign, tuple(sorted(
                hermlat.minimal_pair_vector(curve3, s.numerator, s.denominator).items()
            )))
            for s in steps
        ))
    # different beta, different route, same verified divisor sum
    assert len(set(runs)) > 1
    bad = next(x for x in range(F.order) if F.trace(x) != target)
    with pytest.raises(ValueError, match="beta"):
        hermlat.decompose_line(curve3, secant, beta=bad)


def test_decompose_beta_only_on_secants(curve2):
    with pytest.raises(ValueError):
        hermlat.decompose_line(curve2, Vertical(1), beta=0)
    tangent = next(
        l for l in curve2.all_lines() if isinstance(l, Slope) and curve2.is_tangent(l)
    )
    with pytest.raises(ValueError):
        hermlat.decompose_line(curve2, tangent, beta=0)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_memoized_decompositions_match_fresh_ones(q):
    """Each line's steps, decomposed in turn on one curve, equal those
    built on a second curve whose memo is emptied before every line."""
    curve, fresh = curve_make(q), curve_make(q)
    for line in curve.all_lines():
        fresh._decompositions.clear()
        assert hermlat.decompose_line(curve, line) == hermlat.decompose_line(fresh, line)


def test_decompose_returns_a_fresh_list():
    curve = curve_make(2)
    line = Slope(0, 1)
    first = hermlat.decompose_line(curve, line)
    expected = list(first)
    first.append(first[0])
    first.pop(0)
    assert hermlat.decompose_line(curve, line) == expected


def test_each_pair_vector_built_once_per_curve(monkeypatch):
    calls = []
    real = hermlat.minimal_pair_vector

    def counted(curve, num, den):
        calls.append((num, den))
        return real(curve, num, den)

    monkeypatch.setattr(hermlat, "minimal_pair_vector", counted)
    curve = curve_make(4)
    steps = sum(len(hermlat.decompose_line(curve, line)) for line in curve.all_lines())
    # without the memo every one of the 3,136 steps built its own vector
    assert steps == 3136 and len(calls) <= 896
    calls.clear()
    assert sum(len(hermlat.decompose_line(curve, line)) for line in curve.all_lines()) == steps
    assert calls == []


def test_decompositions_hold_no_dense_vectors():
    """A step keeps its checked line pair, not an n-wide vector: at q = 5
    the 650 decompositions add under 1.5 MB (dense steps held 3.6 MB)."""
    hl = hermlat.build(5)
    tracemalloc.start()
    try:
        assert hl.lines_decomposed == 650
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1.5 * 2**20, held


def test_beta_decompositions_bypass_the_memo(curve3):
    """An explicit beta gives the same steps on a cold and on a warm
    curve, leaves no entry for its line, and the smallest beta is the
    default route."""
    F = curve3.field
    secants = [
        l for l in curve3.all_lines() if isinstance(l, Slope) and not curve3.is_tangent(l)
    ]
    for line in curve3.all_lines():
        hermlat.decompose_line(curve3, line)
    cold = curve_make(3)
    for secant in secants[:6]:
        betas = F.trace_fiber(F.norm(F.neg(F.frobenius(secant.b))))
        for beta in betas:
            got = hermlat.decompose_line(cold, secant, beta=beta)
            assert secant not in cold._decompositions
            assert got == hermlat.decompose_line(curve3, secant, beta=beta)
        default = hermlat.decompose_line(cold, secant, beta=betas[0])
        assert default == hermlat.decompose_line(curve3, secant)


FAMILY_SIZES = {
    2: (12, 48, 48),
    3: (72, 432, 1512),
}


@pytest.mark.parametrize("q", [2, 3])
def test_kissing_families(q, curve2, curve3, hl2, hl3):
    curve = curve2 if q == 2 else curve3
    hl = hl2 if q == 2 else hl3
    fams = hermlat.kissing_families(curve)
    sizes = (len(fams.pair_vertical), len(fams.vertical_slope), len(fams.slope_slope))
    assert sizes == FAMILY_SIZES[q]
    assert fams.total == sum(FAMILY_SIZES[q])
    assert fams.total == q**2 * (q**2 - 1) * (q**3 + 1)
    groups = [set(fams.pair_vertical), set(fams.vertical_slope), set(fams.slope_slope)]
    # no repeats inside a family, none across families
    assert [len(g) for g in groups] == list(sizes)
    assert not (groups[0] & groups[1]) and not (groups[0] & groups[2])
    assert not (groups[1] & groups[2])
    for v in fams.union():
        assert norm2(v) == 2 * q
        assert contains(hl.L, v)


def brute_census(L, q):
    """Direct support enumeration, no signature bucketing."""
    out = set()
    idx = range(L.n)
    for pos in itertools.combinations(idx, q):
        rest = [i for i in idx if i not in pos]
        for neg in itertools.combinations(rest, q):
            v = [0] * L.n
            for i in pos:
                v[i] = 1
            for i in neg:
                v[i] = -1
            if contains(L, v):
                out.add(tuple(v))
    return out


def test_census_q2_matches_bruteforce(hl2):
    vecs = lattice.census_pm1(hl2.L, 2)
    assert len(vecs) == 108
    assert set(vecs) == brute_census(hl2.L, 2)
    fams = hermlat.kissing_families(hl2.curve)
    assert set(vecs) == fams.union()


def test_census_q3_equals_families(hl3):
    vecs = lattice.census_pm1(hl3.L, 3)
    assert len(vecs) == 2016
    fams = hermlat.kissing_families(hl3.curve)
    assert set(vecs) == fams.union()


def test_census_q4_equals_families():
    # q^2 (q^2 - 1)(q^3 + 1) = 15,600 at q = 4, from C(65, 4) placements
    hl4 = hermlat.build(4)
    vecs = lattice.census_pm1(hl4.L, 4)
    assert len(vecs) == 15600
    assert set(vecs) == hermlat.kissing_families(hl4.curve).union()


def test_census_budget(hl2):
    with pytest.raises(BudgetExceededError):
        lattice.census_pm1(hl2.L, 2, cap=10)


@pytest.mark.parametrize("q, kissing", [(2, 108), (3, 2016)])
def test_min_distance_matches_the_scan(q, kissing, hl2, hl3):
    """The certificate against its oracle: the scan of every shape up to
    2q finds its minimum at min_distance, and the minimal vectors it finds
    are exactly the +-1 census."""
    hl = hl2 if q == 2 else hl3
    d2 = hermlat.min_distance(hl)
    vecs = lattice.scan_short_vectors(hl.L, 2 * q)
    minimal = [v for v in vecs if norm2(v) == d2]
    assert d2 == 2 * q == min(map(norm2, vecs))
    assert len(minimal) == kissing
    assert all(set(v) <= {-1, 0, 1} for v in minimal)
    assert minimal == lattice.census_pm1(hl.L, q)


def test_min_distance_builds_no_family_and_walks_no_shape(monkeypatch):
    """The certificate reads the line supports and one vertical pair: at
    q = 4 and 5 it builds no family and takes no class sum, where the scan
    up to 2q charges 772,915 and 265,916,028 placements."""
    hls = {q: hermlat.build(q) for q in (4, 5)}

    def refuse(*args, **kwargs):
        raise AssertionError("the certificate built a family or walked a shape")

    monkeypatch.setattr(hermlat, "kissing_families", refuse)
    monkeypatch.setattr(hermlat, "family_pairs", refuse)
    monkeypatch.setattr(lattice.Lattice, "class_map", refuse)
    assert [hermlat.min_distance(hls[q]) for q in (4, 5)] == [8, 10]
    for q, placements, cap in ((4, 772915, 10**5), (5, 265916028, None)):
        with pytest.raises(BudgetExceededError, match=f"needs {placements} placements"):
            lattice.scan_short_vectors(hls[q].L, 2 * q, cap=cap)


def test_min_distance_refuses_a_short_ceiling(hl2, monkeypatch):
    """With five of the nine places left, 2 ceil(5 / 5) = 2 falls short of
    the vertical pair's norm^2 4: the certificate is refused, not passed."""
    monkeypatch.setattr(hl2.curve, "places", hl2.curve.places[:5])
    with pytest.raises(NotMinimalPairError, match="bound over 5 places gives 2"):
        hermlat.min_distance(hl2)


def test_min_distance_checks_each_line_pole():
    """A line whose pole at infinity is not q (vertical) or q + 1 (slope)
    would have zeros off the rational places: an internal defect."""
    hl = hermlat.build(2)
    for line in (Vertical(1), Slope(0, 0)):
        support = hl.curve.line_support(line)
        (pole, deg), (pt, mult), *rest = support
        hl.curve._supports[line] = ((pole, deg - 1), (pt, mult + 1), *rest)
        wrong = re.escape(f"{line!r} has divisor")
        with pytest.raises(InternalIdentityViolationError, match=wrong):
            hermlat.min_distance(hl)
        hl.curve._supports[line] = support
    assert hermlat.min_distance(hl) == 4


@pytest.mark.parametrize("q", [2, 3])
def test_generated_by_minimals(q, hl2, hl3):
    hl = hl2 if q == 2 else hl3
    assert hermlat.generated_by_minimals(hl) == 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_certificate_matches_hnf_oracle(q):
    """The per-line certificate against the Hermite form of every step
    vector, the route it replaced."""
    hl = hermlat.build(q)
    curve = hl.curve
    steps = [
        dense_vector(curve.n, hermlat.minimal_pair_vector(curve, s.numerator, s.denominator))
        for line in curve.all_lines()
        for s in hermlat.decompose_line(curve, line)
    ]
    assert lattice.generated_by_minimals_index(hl.L, steps) == 1
    assert hl.lines_outside == ()
    assert hermlat.generated_by_minimals(hl) == 1
    assert hl.lines_decomposed == q**4 + q * q
