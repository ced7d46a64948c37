"""Rational places of the Hermitian curve y^q + y = x^(q+1) over GF(q^2).

Places are indexed 0..q^3: index 0 is the place at infinity, the affine
places follow sorted by (alpha, beta) encoding.  Lines come in two
canonical forms, x - c and y + b*x + c, and every line's divisor of
zeros/poles on the curve is computed in closed form: a vertical meets the
curve in the q points above x = c, a tangent meets it in one point with
multiplicity q + 1, and any other line meets it in q + 1 distinct points.

Lines are named tuples, so a line's hash and equality run in C.  A
Slope(b, c) therefore equals the plain tuple (b, c), which is also how an
affine place is written: no dict or set holds both lines and places.
"""

from typing import NamedTuple

from .errors import InternalIdentityViolationError, UnsupportedQError
from .gf import Field, _prime_powers, field_make

SUPPORTED_Q = (2, 3, 4, 5, 7, 8)


class Vertical(NamedTuple):
    """The line x - c."""

    c: int


class Slope(NamedTuple):
    """The line y + b*x + c."""

    b: int
    c: int


Line = Vertical | Slope

Place = tuple[int, int] | None  # None is the place at infinity


def _q_to_prime_power(q: int) -> tuple[int, int]:
    powers = list(_prime_powers(q))
    if len(powers) != 1:
        raise UnsupportedQError(f"q = {q} is not a supported prime power")
    return powers[0]


class Curve:
    """Hermitian curve data for one q: places, lines, divisors."""

    def __init__(self, q: int):
        if q not in SUPPORTED_Q:
            raise UnsupportedQError(f"q = {q} not in {SUPPORTED_Q}")
        p, e = _q_to_prime_power(q)
        self.q = q
        self.field: Field = field_make(p, 2 * e)
        if self.field.q != q:
            raise InternalIdentityViolationError(f"GF(p^{2 * e}) has q = {self.field.q}, not {q}")
        self.genus = q * (q - 1) // 2
        self.n = q**3 + 1
        F = self.field
        places: list[Place] = [None]
        for a in F.elements():
            for b in F.trace_fiber(F.norm(a)):
                places.append((a, b))
        self.places: tuple[Place, ...] = tuple(places)
        if len(self.places) != self.n:
            raise InternalIdentityViolationError(f"{len(places)} places, expected {self.n}")
        self.place_index: dict[Place, int] = {pl: i for i, pl in enumerate(self.places)}
        self.zeta = F.root_of_unity(q + 1)
        # line -> its divisor's support (the only per-line vector kept), its
        # block and its decomposition steps (line pairs); each computed once
        self._supports: dict[Line, tuple[tuple[int, int], ...]] = {}
        self._blocks: dict[Line, frozenset[int] | None] = {}
        self._decompositions: dict[Line, tuple] = {}

    # -- lines ----------------------------------------------------------------

    def all_lines(self) -> list[Line]:
        """All q^4 + q^2 lines: verticals by c, then slopes by (b, c)."""
        F = self.field
        lines: list[Line] = [Vertical(c) for c in F.elements()]
        lines.extend(Slope(b, c) for b in F.elements() for c in F.elements())
        return lines

    def check_line(self, line: Line) -> Line:
        """Validate the coefficient encodings against the field order."""
        order = self.field.order
        coeffs = (line.c,) if isinstance(line, Vertical) else (line.b, line.c)
        for enc in coeffs:
            if not 0 <= enc < order:
                raise ValueError(f"coefficient {enc} outside field of order {order}")
        return line

    def is_tangent(self, line: Line) -> bool:
        """Tangency of y + b*x + c amounts to c^q + c = b^(q+1)."""
        if isinstance(line, Vertical):
            return False
        F = self.field
        return F.trace(line.c) == F.norm(line.b)

    def points_on_line(self, line: Line) -> tuple[tuple[int, int], ...]:
        """Affine curve points on the line, in closed form, sorted by place
        order; line_support caches what it reads of them."""
        self.check_line(line)
        F = self.field
        if isinstance(line, Vertical):
            return tuple((line.c, d) for d in F.trace_fiber(F.norm(line.c)))
        b, c = line.b, line.c
        t = F.sub(F.norm(b), F.trace(c))
        if t == 0:
            return ((F.neg(F.frobenius(b)), F.frobenius(c)),)
        delta = F.norm_preimage(t)
        x0 = F.neg(F.frobenius(b))
        nb = F.norm(b)
        pts = []
        for i in range(self.q + 1):
            s = F.mul(delta, F.pow(self.zeta, i))
            pts.append((F.add(x0, s), F.sub(F.sub(nb, c), F.mul(b, s))))
        return tuple(sorted(pts))

    # -- divisors ---------------------------------------------------------------

    def line_support(self, line: Line) -> tuple[tuple[int, int], ...]:
        """The nonzero entries (place index, value) of the line's divisor,
        by place index: its affine points with multiplicity 1, or q + 1 at a
        tangency, and the balancing pole at infinity."""
        sup = self._supports.get(line)
        if sup is None:
            pts = self.points_on_line(line)
            mult = self.q + 1 if len(pts) == 1 else 1  # a vertical has q > 1 points
            zeros = sorted((self.place_index[pt], mult) for pt in pts)
            sup = self._supports[line] = ((0, -mult * len(pts)), *zeros)
        return sup

    def block(self, line: Line) -> frozenset[int] | None:
        """The line's block of the Hermitian unital: None for a tangent, else
        the frozenset of its q + 1 places, P_inf (index 0) added to a
        vertical.  A support other than (q+1)(e_P - e_0) for a tangent, or
        1_B - (q+1) e_0 with pole q for a vertical and q + 1 for a slope
        line, is an internal defect."""
        if line in self._blocks:
            return self._blocks[line]
        sup, vert = self.line_support(line), isinstance(line, Vertical)
        pole = self.q + 1 - vert
        pts = [i for i, _ in sup if i]
        blk = frozenset([0] * vert + pts)
        if not vert and sup == ((0, -pole), (*pts, pole)):  # one point, q + 1 times
            blk = None
        elif sup != ((0, -pole), *((i, 1) for i in pts)) or not len(pts) == pole == len(blk) - vert:
            raise InternalIdentityViolationError(f"{line!r} has divisor {sup}, need pole {pole}")
        self._blocks[line] = blk
        return blk

    def quotient_support(self, num: Line, den: Line) -> dict[int, int]:
        """The nonzero entries of div(num) - div(den), place index ->
        value, merged from the two cached line supports."""
        vec = dict(self.line_support(num))
        for i, x in self.line_support(den):
            if y := vec.get(i, 0) - x:
                vec[i] = y
            else:
                del vec[i]
        return vec

    def divisor_of_line(self, line: Line) -> tuple[int, ...]:
        """Valuation vector of the line, expanded from its support; sums to 0."""
        return self._dense(self.line_support(line))

    def pair_vector(self, num: Line, den: Line) -> tuple[int, ...]:
        """div(num) - div(den) over all places, from the two line supports."""
        return self._dense(self.line_support(num), self.line_support(den))

    def _dense(self, plus, minus=()) -> tuple[int, ...]:
        vec = [0] * self.n
        for i, x in plus:
            vec[i] = x
        for i, x in minus:
            vec[i] -= x
        return tuple(vec)

    def __repr__(self):
        return f"Curve(q={self.q}, n={self.n})"


def curve_make(q: int) -> Curve:
    return Curve(q)
