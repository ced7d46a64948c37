"""The function-field lattice of a Hermitian curve.

The lattice is spanned by the divisors of all lines.  A tangent line
meets the curve only at its point P, so its divisor is (q+1)(P - P_inf):
with coordinate 0, the place at infinity, dropped, the generators hold
(q+1) e_j for every affine place j, and intmat.hnf reads the modulus
q + 1 off them (it is not assumed) and builds L modulo q + 1.  Every
other line's divisor is 1_B - (q+1) e_0 for its block B of the Hermitian
unital, the 2-(q^3+1, q+1, 1) design (Curve.block).

Everything here is verified construction: two lines whose blocks share
one place give a vector of squared norm exactly 2q (minimal_pair_vector),
and decompose_line rewrites any line divisor as a signed sum of such
vectors, kept as checked line pairs, with the sum re-checked on every
call; generated_by_minimals turns that into the proof that minimal
vectors generate L.  unital_families reads the sizes of the three
families of such quotients, the kissing-number lower bound
q^2(q^2-1)(q^3+1), off the blocks; family_pairs lists the pairs and
kissing_families builds the vectors.  min_distance certifies d^2 = 2q by
the degree bound, with no scan.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations

from . import lattice
from .curve import Curve, Line, Slope, Vertical, curve_make
from .errors import InternalIdentityViolationError, NotMinimalPairError

__all__ = [
    "FAMILIES",
    "DecompositionStep",
    "HermitianLattice",
    "KissingFamilies",
    "build",
    "decompose_line",
    "family_pairs",
    "generated_by_minimals",
    "kissing_families",
    "min_distance",
    "minimal_pair_vector",
    "unital_families",
]


@dataclass(frozen=True, slots=True)
class DecompositionStep:
    """One signed minimal vector in a line decomposition, kept as the
    checked line pair: the step contributes sign * (divisor(numerator) -
    divisor(denominator)) to the decomposed divisor, and that vector is
    rebuilt on demand from the line supports (Curve.pair_vector)."""

    sign: int
    numerator: Line
    denominator: Line
    tag: str


class HermitianLattice:
    """Lattice of line divisors with its quotient-group structure, and the
    per-line facts behind generated_by_minimals, each computed once."""

    def __init__(self, curve: Curve):
        self.curve = curve
        divs = (curve.divisor_of_line(line) for line in curve.all_lines())
        self.L = lattice.Lattice.from_generators(divs, curve.n)
        self.quotient = self.L.quotient()

    @cached_property
    def lines_outside(self) -> tuple:
        """The lines whose divisor member_fast puts outside L."""
        div = self.curve.divisor_of_line
        return tuple(line for line in self.curve.all_lines() if not self.L.member_fast(div(line)))

    @cached_property
    def lines_decomposed(self) -> int:
        """Decomposes every line once and counts the lines."""
        lines = self.curve.all_lines()
        for line in lines:
            decompose_line(self.curve, line)
        return len(lines)

    def __repr__(self):
        q = self.curve.q
        return f"HermitianLattice(q={q}, n={self.curve.n}, rank={self.L.rank})"


def build(q: int) -> HermitianLattice:
    return HermitianLattice(curve_make(q))


def minimal_pair_vector(curve: Curve, num: Line, den: Line) -> dict[int, int]:
    """divisor(num) - divisor(den) as {place index: value}, its nonzero
    entries, when the pair provably gives a vector of squared norm 2q:
    both lines have blocks (Curve.block), and these share exactly one
    place.  Otherwise NotMinimalPairError with the reason.
    """
    if num == den:
        raise NotMinimalPairError("identical lines")
    blocks = curve.block(num), curve.block(den)
    if None in blocks:
        raise NotMinimalPairError(f"tangent line in the pair: {den if blocks[0] else num}")
    if len(common := blocks[0] & blocks[1]) != 1:
        raise NotMinimalPairError(f"pair shares {len(common)} places, need exactly 1")
    vec = curve.quotient_support(num, den)
    norm2 = sum(x * x for x in vec.values())
    if norm2 != 2 * curve.q:
        raise InternalIdentityViolationError(f"pair vector has norm^2 {norm2} != {2 * curve.q}")
    return vec


def _step(curve, sign, num, den, tag):
    minimal_pair_vector(curve, num, den)  # checks the pair, drops the vector
    return DecompositionStep(sign, num, den, tag)


def _vertical_steps(curve: Curve, c: int):
    """x - c with c != 0 equals the product over i of (y - d_i)/(x - z^i c),
    d_i the trace fiber of norm(c), z the chosen (q+1)st root of unity."""
    F = curve.field
    return [
        _step(curve, 1, Slope(0, F.neg(d)), Vertical(F.mul(F.pow(curve.zeta, i), c)), "vertical")
        for i, d in enumerate(F.trace_fiber(F.norm(c)), start=1)
    ]


def _vertical_origin_steps(curve: Curve):
    """The line x equals the product of (y - x - r_i)/(x - z_i) with r_i
    the trace-zero elements and z_i the values 1 + zeta^m, zeta^m != -1."""
    F = curve.field
    minus_one = F.neg(1)
    zms = (F.pow(curve.zeta, m) for m in range(curve.q + 1))
    zs = [F.add(1, zm) for zm in zms if zm != minus_one]
    return [
        _step(curve, 1, Slope(minus_one, F.neg(rho)), Vertical(z), "vertical_origin")
        for rho, z in zip(F.trace_fiber(0), zs)
    ]


def _secant_steps(curve: Curve, line: Slope, beta=None):
    """Non-tangent y + bx + c: q - 1 inverted pair steps against the
    shifted tangent-pencil lines, plus two vertical lines decomposed
    recursively.  Any beta with trace(beta) = norm(b) works; the default
    is the smallest."""
    F = curve.field
    b, c = line.b, line.c
    alpha = F.neg(F.frobenius(b))
    target = F.norm(alpha)
    if beta is None:
        beta = F.trace_fiber(target)[0]
    elif F.trace(beta) != target:
        raise ValueError(f"beta={beta} has trace {F.trace(beta)}, need {target}")
    beta_q = F.frobenius(beta)
    d = F.sub(beta_q, c)
    e = F.norm_preimage(F.trace(d))
    ds = [d] + [x for x in F.trace_fiber(F.trace(d)) if x != d]

    steps = []
    for i in range(2, curve.q + 1):
        num = Slope(b, F.sub(beta_q, ds[i - 1]))
        den = Vertical(F.add(alpha, F.mul(F.pow(curve.zeta, i), e)))
        steps.append(_step(curve, -1, num, den, "secant"))
    for i in (0, 1):
        v = Vertical(F.add(alpha, F.mul(F.pow(curve.zeta, i), e)))
        steps.extend(_dispatch(curve, v))
    return steps


def _tangent_steps(curve: Curve, line: Slope):
    """Tangent y + bx + c: shear the defining identity of the tangent at
    the origin by the curve automorphism moving (0,0) to the point of
    tangency; q pair steps plus one non-tangent line decomposed
    recursively."""
    F = curve.field
    b, c = line.b, line.c
    alpha = F.neg(F.frobenius(b))
    minus_one = F.neg(1)
    tag = "tangent_origin" if b == 0 and c == 0 else "tangent"

    j = next(m for m in range(curve.q + 1) if F.pow(curve.zeta, m) == minus_one)
    steps = []
    for i in range(curve.q + 1):
        if i == j:
            continue
        zi = F.pow(curve.zeta, i)
        num = Slope(F.sub(b, zi), F.add(c, F.mul(zi, alpha)))
        den = Slope(b, F.sub(c, F.add(1, zi)))
        steps.append(_step(curve, 1, num, den, tag))
    zj = F.pow(curve.zeta, j)
    rest = Slope(F.sub(b, zj), F.add(c, F.mul(zj, alpha)))
    steps.extend(_dispatch(curve, rest))
    return steps


def _dispatch(curve: Curve, line: Line, beta=None):
    """A fresh list of the line's steps.  Without beta the steps are built
    once per curve and kept on it, so the secant and tangent recursions
    reuse the decompositions of their inner lines."""
    if beta is not None:
        if isinstance(line, Vertical) or curve.is_tangent(line):
            raise ValueError("beta applies only to non-tangent slope lines")
        return _secant_steps(curve, line, beta=beta)
    steps = curve._decompositions.get(line)
    if steps is None:
        if isinstance(line, Vertical) and line.c == 0:
            built = _vertical_origin_steps(curve)
        elif isinstance(line, Vertical):
            built = _vertical_steps(curve, line.c)
        elif curve.is_tangent(line):
            built = _tangent_steps(curve, line)
        else:
            built = _secant_steps(curve, line)
        steps = curve._decompositions[line] = tuple(built)
    return list(steps)


def decompose_line(curve: Curve, line: Line, beta=None):
    """Signed minimal vectors summing exactly to divisor_of_line(line).

    Every step's pair is checked through minimal_pair_vector.  A curve
    decomposes each line once and hands out a fresh list on every call; a
    route with an explicit beta is built anew each time.  Every call gives
    each line a net coefficient (the line -1, each step's numerator +sign
    and denominator -sign) and requires the weighted line supports, each
    added once, to sum to zero; a mismatch is an internal defect.
    """
    curve.check_line(line)
    if beta is not None and not 0 <= beta < curve.field.order:
        raise ValueError(f"beta {beta} outside field of order {curve.field.order}")
    steps = _dispatch(curve, line, beta=beta)
    coeffs = {line: -1}
    for s in steps:
        coeffs[s.numerator] = coeffs.get(s.numerator, 0) + s.sign
        coeffs[s.denominator] = coeffs.get(s.denominator, 0) - s.sign
    sums = {}
    for other, k in coeffs.items():
        if k:
            for i, x in curve.line_support(other):
                sums[i] = sums.get(i, 0) + k * x
    if any(sums.values()):
        expected = curve.line_support(line)
        for i, x in expected:  # back to the steps' sum
            sums[i] = sums.get(i, 0) + x
        total = sorted((i, x) for i, x in sums.items() if x)
        raise InternalIdentityViolationError(
            f"decomposition of {line} sums to {total}, divisor is {list(expected)}"
        )
    return steps


FAMILIES = ("pair_vertical", "vertical_slope", "slope_slope")


@dataclass(frozen=True)
class KissingFamilies:
    """The three families of norm^2 = 2q line-quotient vectors, held dense:
    the ordered pairs of verticals, of a vertical and a slope line (both
    ways round) and of two slope lines through one place, q^2(q^2-1),
    2q^3(q^2-1) and q^3(q^2-1)(q^2-2) vectors (unital_families)."""

    pair_vertical: tuple
    vertical_slope: tuple
    slope_slope: tuple

    @property
    def total(self) -> int:
        return len(self.pair_vertical) + len(self.vertical_slope) + len(self.slope_slope)

    def union(self):
        return set().union(self.pair_vertical, self.vertical_slope, self.slope_slope)


def family_pairs(curve: Curve):
    """(family, num, den) for every vector div(num) - div(den) of the
    three families: the ordered pairs of verticals, then point by point
    the vertical and each non-tangent slope line through the point, both
    ways round, and the ordered pairs of those slope lines."""
    F = curve.field
    verts = [Vertical(a) for a in range(F.order)]
    for num, den in permutations(verts, 2):
        yield "pair_vertical", num, den
    for a, b in curve.places[1:]:
        aq = F.frobenius(a)
        slopes = [Slope(F.neg(m), F.sub(F.mul(m, a), b)) for m in range(F.order) if m != aq]
        for s in slopes:
            yield "vertical_slope", verts[a], s
            yield "vertical_slope", s, verts[a]
        for num, den in permutations(slopes, 2):
            yield "slope_slope", num, den


def kissing_families(curve: Curve) -> KissingFamilies:
    """The vectors div(num) - div(den) of family_pairs (Curve.pair_vector), by family."""
    fams = {name: [] for name in FAMILIES}
    for family, num, den in family_pairs(curve):
        fams[family].append(curve.pair_vector(num, den))
    return KissingFamilies(*map(tuple, fams.values()))


def unital_families(curve: Curve) -> tuple[dict[str, int], bool]:
    """The family sizes, and whether each pair of places lies in exactly
    one block, in one pass over the blocks (Curve.block).  A family vector
    is 1_B' - 1_B for the blocks of two lines through one place, so each
    family counts the ordered pairs of distinct blocks through each place
    by kind.  In a 2-design B and B' share only that place, so the norm^2
    is 2(q + 1) - 2 = 2q; and the q >= 2 places of the positive support lie
    in B' alone, as those of the negative lie in B: the vectors are distinct."""
    n, marks = curve.n, 0
    seen = bytearray(n * n)  # seen[i * n + j] for each pair i < j in a block
    vert, slope = [0] * n, [0] * n
    for line in curve.all_lines():
        if (blk := curve.block(line)) is not None:
            through = slope if isinstance(line, Slope) else vert
            for i in blk:
                through[i] += 1
            for i, j in combinations(sorted(blk), 2):
                seen[i * n + j] = 1
            marks += len(blk) * (len(blk) - 1) // 2
    sizes = {
        "pair_vertical": sum(v * (v - 1) for v in vert),
        "vertical_slope": sum(2 * v * s for v, s in zip(vert, slope)),
        "slope_slope": sum(s * (s - 1) for s in slope),
    }
    sizes["total"] = sum(sizes.values())
    return sizes, marks == n * n - seen.count(0) == n * (n - 1) // 2


def min_distance(hl: HermitianLattice) -> int:
    """d^2 = 2q, certified by the degree bound for function-field lattices
    (Rosenbloom and Tsfasman, 1990; Fukshansky and Maharaj, 2014), with
    no scan.

    Every v in L is div(f) for a product f of lines, so deg f = |v|_1 / 2
    and, v being integral, |v|^2 >= |v|_1 = 2 deg f.  Each fibre of f over
    the q^2 + 1 points of P^1(GF(q^2)) holds at most deg f of the n
    rational places, so n <= (q^2 + 1) deg f and d^2 >= 2 ceil(n / (q^2 +
    1)).  The quotient of the verticals x and x - 1 meets that bound.
    Equality forces every |v_i| <= 1 and deg f = q, so Min(L) is the +-1
    census.

    Recomputed here: n, the ceiling, the witness's norm, and each line's
    pole at infinity, q for a vertical and q + 1 for a slope line, balanced
    by zeros at rational places (Curve.block), so no line has other zeros.
    Quoted: the fibre inequality and the pole orders v_inf(x) = -q and
    v_inf(y) = -(q + 1).  A line with another pole is an internal defect;
    a bound that misses the witness is NotMinimalPairError.
    """
    curve = hl.curve
    q = curve.q
    for line in curve.all_lines():
        curve.block(line)  # checks the line's pole and rational zeros
    n = len(curve.places)
    bound = 2 * -(-n // (q * q + 1))
    witness = minimal_pair_vector(curve, Vertical(0), Vertical(1))
    d2 = sum(x * x for x in witness.values())
    if d2 != bound:
        raise NotMinimalPairError(
            f"the vertical pair has norm^2 {d2}, the degree bound over {n} places gives {bound}"
        )
    return d2


def generated_by_minimals(hl: HermitianLattice) -> int:
    """Index in L of the span of the decomposition steps: 1, certified per
    line with no Hermite form.  L is spanned by the line divisors, each of
    which passes member_fast and is the signed sum of its steps, and each
    step div(num) - div(den) lies in L as a difference of line divisors."""
    if hl.lines_outside:
        raise InternalIdentityViolationError(f"divisor of {hl.lines_outside[0]} lies outside L")
    hl.lines_decomposed  # each decomposition rechecks its signed sum
    return 1
