import pytest

from hfl.curve import Slope, Vertical, curve_make
from hfl.errors import NotOnCurveError, UnsupportedQError
from oracles import divisor_from_points, mult_order, points_on_line_bruteforce, tangent_line_at


@pytest.mark.parametrize("q", [2, 3, 4])
def test_place_set(q):
    curve = curve_make(q)
    F = curve.field
    assert curve.n == q**3 + 1
    assert len(curve.places) == curve.n
    assert curve.places[0] is None
    assert curve.genus == q * (q - 1) // 2
    # every affine place satisfies y^q + y = x^(q+1)
    for a, b in curve.places[1:]:
        assert F.trace(b) == F.norm(a)
    # places are distinct and the index map inverts the tuple
    assert len(set(curve.places[1:])) == q**3
    for i, pl in enumerate(curve.places[1:], start=1):
        assert curve.place_index[pl] == i
    # sorted by encoding pairs
    assert list(curve.places[1:]) == sorted(curve.places[1:])


@pytest.mark.parametrize("q", [2, 3, 4])
def test_line_census(q):
    curve = curve_make(q)
    lines = curve.all_lines()
    assert len(lines) == q**4 + q * q
    assert len(set(lines)) == len(lines)
    tangents = [l for l in lines if curve.is_tangent(l)]
    assert len(tangents) == q**3
    # through each affine point: one vertical and q^2 slope lines
    F = curve.field
    for a, b in curve.places[1:]:
        through = [
            l
            for l in lines
            if (isinstance(l, Vertical) and l.c == a)
            or (isinstance(l, Slope) and F.add(b, F.add(F.mul(l.b, a), l.c)) == 0)
        ]
        assert len(through) == q * q + 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_points_closed_form_vs_bruteforce(q):
    curve = curve_make(q)
    for line in curve.all_lines():
        fast = curve.points_on_line(line)
        slow = points_on_line_bruteforce(curve, line)
        assert sorted(fast) == sorted(slow), line
        if isinstance(line, Vertical):
            assert len(fast) == q
        elif curve.is_tangent(line):
            assert len(fast) == 1
        else:
            assert len(fast) == q + 1


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_divisors(q):
    curve = curve_make(q)
    for line in curve.all_lines():
        div = curve.divisor_of_line(line)
        assert len(div) == curve.n
        assert sum(div) == 0
        if isinstance(line, Vertical):
            assert div[0] == -q
            assert sorted(div[1:], reverse=True) == [1] * q + [0] * (q**3 - q)
        elif curve.is_tangent(line):
            assert div[0] == -(q + 1)
            assert max(div[1:]) == q + 1
        else:
            assert div[0] == -(q + 1)
            assert sorted(div[1:], reverse=True) == [1] * (q + 1) + [0] * (q**3 - q - 1)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_line_caches_match_fresh_computation(q):
    curve, other = curve_make(q), curve_make(q)
    lines = curve.all_lines()
    first = {line: (curve.points_on_line(line), curve.line_support(line)) for line in lines}
    for line in lines:
        pts, sup = curve.points_on_line(line), curve.line_support(line)
        assert sup is first[line][1]
        want = points_on_line_bruteforce(curve, line)
        assert sorted(pts) == sorted(want), line
        assert curve.divisor_of_line(line) == divisor_from_points(curve, line, want), line
    # a second curve answers from its own cache, so each answer is computed afresh
    for line in reversed(lines):
        pts, sup = other.points_on_line(line), other.line_support(line)
        assert pts == first[line][0]
        assert sup == first[line][1] and sup is not first[line][1]
        want = points_on_line_bruteforce(other, line)
        assert other.divisor_of_line(line) == divisor_from_points(other, line, want), line


@pytest.mark.parametrize("q", [2, 3])
def test_pair_vector_is_the_divisor_difference(q):
    curve = curve_make(q)
    lines = curve.all_lines()
    for num in lines:
        for den in lines[::5]:
            want = tuple(a - b for a, b in zip(curve.divisor_of_line(num), curve.divisor_of_line(den)))
            vec = curve.pair_vector(num, den)
            assert vec == want, (num, den)
            assert {i: x for i, x in enumerate(vec) if x} == curve.quotient_support(num, den)


@pytest.mark.parametrize("q", [2, 3])
def test_tangent_line_at(q):
    curve = curve_make(q)
    for a, b in curve.places[1:]:
        t = tangent_line_at(curve, a, b)
        assert curve.is_tangent(t)
        assert curve.points_on_line(t) == ((a, b),)
    # tangency criterion c^q + c = b^(q+1) matches the point count
    for line in curve.all_lines():
        if isinstance(line, Slope):
            assert curve.is_tangent(line) == (len(curve.points_on_line(line)) == 1)
    # distinct points get distinct tangents, covering all q^3 of them
    tangents = {tangent_line_at(curve, a, b) for a, b in curve.places[1:]}
    assert len(tangents) == q**3


def test_tangent_line_at_rejects_off_curve():
    curve = curve_make(2)
    F = curve.field
    off = next(
        (a, b)
        for a in F.elements()
        for b in F.elements()
        if F.trace(b) != F.norm(a)
    )
    with pytest.raises(NotOnCurveError):
        tangent_line_at(curve, *off)


def test_unsupported_q():
    for bad in (1, 6, 9, 11):
        with pytest.raises(UnsupportedQError):
            curve_make(bad)


def test_zeta_has_order_q_plus_1():
    for q in (2, 3, 4):
        curve = curve_make(q)
        assert mult_order(curve.field, curve.zeta) == q + 1
