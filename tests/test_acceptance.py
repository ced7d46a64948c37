"""Acceptance: every headline claim, exact arithmetic, stated time budget.

Each criterion prints one [PASS]/[FAIL] line (visible under pytest -s)
and fails loudly on any mismatch or budget overrun.
"""

import itertools
import random
import time
from math import isqrt
from pathlib import Path

import numpy as np

from hfl import abelian, autgrp, cli, gf, hermlat, intmat, lattice
from hfl.curve import Vertical, curve_make
from oracles import (
    contains,
    dense_vector,
    orbit_of_vector,
    points_on_line_bruteforce,
    smith_normal_form,
)

GOLDEN = Path(__file__).parent / "golden" / "table1_golden.csv"


class Criterion:
    def __init__(self, name: str, limit_s: float):
        self.name = name
        self.limit = limit_s
        self.problems = []
        self.t0 = time.perf_counter()

    def expect(self, cond, msg: str):
        if not cond:
            self.problems.append(msg)

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        ok = not self.problems and elapsed < self.limit
        print(f"[{'PASS' if ok else 'FAIL'}] {self.name} ({elapsed:.2f}s, limit {self.limit:.0f}s)")
        assert not self.problems, "; ".join(self.problems)
        assert elapsed < self.limit, f"{self.name}: {elapsed:.2f}s over {self.limit:.0f}s budget"


def test_c01_structure_q2():
    c = Criterion("C1 q=2 structure: index 9, quotient (3,3), det 27", 1.0)
    hl = hermlat.build(2)
    c.expect(hl.L.index_in_ambient() == 9, f"index {hl.L.index_in_ambient()}")
    nontrivial = tuple(d for d in hl.quotient.divisors if d != 1)
    c.expect(nontrivial == (3, 3), f"divisors {nontrivial}")
    index, radicand = hl.L.determinant()
    c.expect((index, radicand) == (9, 9), f"det {(index, radicand)}")
    c.expect(index * isqrt(radicand) == 27 and isqrt(radicand) ** 2 == radicand,
             "det != 27")
    c.finish()


def test_c02_structure_q3():
    c = Criterion("C2 q=3 structure: quotient Z4^6, det 4096*sqrt(28)", 10.0)
    hl = hermlat.build(3)
    nontrivial = tuple(d for d in hl.quotient.divisors if d != 1)
    c.expect(nontrivial == (4,) * 6, f"divisors {nontrivial}")
    c.expect(hl.L.determinant() == (4096, 28), f"det {hl.L.determinant()}")
    c.finish()


def test_c03_structure_q4():
    c = Criterion("C3 q=4 structure: quotient Z5^12", 120.0)
    hl = hermlat.build(4)
    nontrivial = tuple(d for d in hl.quotient.divisors if d != 1)
    c.expect(nontrivial == (5,) * 12, f"divisors {nontrivial}")
    c.expect(hl.L.index_in_ambient() == 5**12, "index")
    c.finish()


def test_c04_min_distance_census():
    c = Criterion("C4 certified min distance d^2=4 (q=2), 6 (q=3); the scan finds 108, 2016", 300.0)
    for q, kissing in ((2, 108), (3, 2016)):
        hl = hermlat.build(q)
        d2 = hermlat.min_distance(hl)
        vecs = lattice.scan_short_vectors(hl.L, 2 * q)
        norms = [sum(x * x for x in v) for v in vecs]
        c.expect(d2 == 2 * q == min(norms), f"q={q}: d^2 {d2}, scan minimum {min(norms)}")
        minimal = [v for v, m in zip(vecs, norms) if m == d2]
        c.expect(len(minimal) == kissing, f"q={q}: {len(minimal)} minimal vectors")
        c.expect(all(set(v) <= {-1, 0, 1} for v in minimal), f"q={q}: minimal vector off +-1")
    c.finish()


def test_c04_min_distance_q4_exact():
    c = Criterion("C4 q=4: d^2=8 certified; the scan up to 8 is the 15600 family vectors", 120.0)
    hl = hermlat.build(4)
    d2 = hermlat.min_distance(hl)
    vecs = lattice.scan_short_vectors(hl.L, 8)
    norms = {sum(x * x for x in v) for v in vecs}
    c.expect(d2 == 8 and norms == {8}, f"q=4: d^2 {d2}, scan norms {sorted(norms)}")
    c.expect(all(set(v) <= {-1, 0, 1} for v in vecs), "q=4: minimal vector off +-1")
    # every shape of squared norm <= 8 was scanned, so the kissing number
    # is the family count with no orbit argument
    union = hermlat.kissing_families(hl.curve).union()
    c.expect(len(vecs) == 15600 and set(vecs) == union, "q=4 scan != family union")
    c.finish()


def test_c05_kissing_families():
    c = Criterion("C5 kissing families: 12/48/48 -> 108 and 72/432/1512 -> 2016", 300.0)
    c.expect(108 == 2**7 - 2**5 + 2**4 - 2**2, "q=2 count identity")
    for q, sizes in ((2, (12, 48, 48)), (3, (72, 432, 1512))):
        hl = hermlat.build(q)
        fams = hermlat.kissing_families(hl.curve)
        got = (len(fams.pair_vertical), len(fams.vertical_slope), len(fams.slope_slope))
        c.expect(got == sizes, f"q={q} family sizes {got}")
        union = fams.union()
        c.expect(len(union) == sum(sizes), f"q={q} families overlap")
        c.expect(all(sum(x * x for x in v) == 2 * q for v in union), f"q={q} norms")
        c.expect(all(contains(hl.L, v) for v in union), f"q={q} membership")
        census = set(lattice.census_pm1(hl.L, q))
        c.expect(census >= union, f"q={q} census misses family vectors")
        # the census oracle settles the exact count: families already
        # exhaust it at these q
        c.expect(census == union, f"q={q} census size {len(census)}")
    c.finish()


def test_c06_decompose_all_lines():
    c = Criterion("C6 every line decomposes into minimal vectors; span index 1", 300.0)
    for q, n_lines in ((2, 20), (3, 90), (4, 272)):
        hl = hermlat.build(q)
        lines = hl.curve.all_lines()
        c.expect(len(lines) == n_lines, f"q={q} line count {len(lines)}")
        for line in lines:
            # decompose_line re-checks the signed-sum identity internally
            steps = hermlat.decompose_line(hl.curve, line)
            vectors = [
                hermlat.minimal_pair_vector(hl.curve, s.numerator, s.denominator) for s in steps
            ]
            c.expect(
                all(sum(x * x for x in v.values()) == 2 * q for v in vectors),
                f"q={q} {line} step norms",
            )
        c.expect(hermlat.generated_by_minimals(hl) == 1, f"q={q} span index != 1")
    c.finish()


def test_c07_table1_golden():
    c = Criterion("C7 Z7 catalogue CSV matches the golden file byte for byte", 10.0)
    rows = abelian.catalogue()
    c.expect(len(rows) == 62, f"{len(rows)} rows")
    c.expect(sum(1 for r in rows if r.well_rounded) == 26, "well-rounded count")
    c.expect(abelian.catalogue_csv(rows) == GOLDEN.read_text(), "CSV bytes differ")
    c.finish()


def test_c08_subset_perm_correspondence():
    c = Criterion("C8 subset perms == lattice perms: 62 Z7 subsets + Z3xZ3 full", 60.0)
    G7 = abelian.AbelianGroup((7,))
    for k in range(1, 6):
        for gens in itertools.combinations(range(1, 7), k):
            c.expect(
                abelian.check_permutation_correspondence(G7, gens),
                f"mismatch at Z7 subset {gens}",
            )
    G9 = abelian.AbelianGroup((3, 3))
    full = list(range(1, 9))
    c.expect(len(abelian.extendable_subset_perms(G9, full)) == 48, "Z3xZ3 order != 48")
    c.expect(abelian.check_permutation_correspondence(G9, full), "Z3xZ3 mismatch")
    c.finish()


def test_c09_automorphism_group():
    c = Criterion("C9 Aut: orders 216/6048, stabilizers 24/216, lattice stable", 120.0)
    for q, order, stab_order in ((2, 216, 24), (3, 6048, 216)):
        hl = hermlat.build(q)
        G = autgrp.full_group(hl.curve)
        c.expect(G.order == order, f"q={q} order {G.order}")
        stab = autgrp.stabilizer(G, 0)
        c.expect(stab.order == stab_order, f"q={q} stabilizer {stab.order}")
        affine = set(range(1, hl.curve.n))
        c.expect(autgrp.orbit_of_index(stab, 1) == affine,
                 f"q={q} stabilizer not transitive on affine places")
        c.expect(autgrp.lattice_stable_under(G, hl.L),
                 f"q={q} some element moves the lattice")
        if q == 2:
            v = hermlat.minimal_pair_vector(hl.curve, Vertical(0), Vertical(1))
            orbit = orbit_of_vector(G, dense_vector(hl.curve.n, v))
            c.expect(len(orbit) == 108, f"orbit size {len(orbit)}")
            c.expect(orbit == hermlat.kissing_families(hl.curve).union(),
                     "orbit != family union")
    c.finish()


def test_c11_aut_checks_q7():
    c = Criterion("C11 q=7 aut checks at default settings: order 5,663,616, kernel 1", 60.0)
    report = cli.run_checks(cli.aut_checks(hermlat.build(7)))
    actual = {rec["check_id"]: rec.get("actual") for rec in report["checks"]}
    c.expect(report["counts"] == {"passed": 5, "failed": 0, "skipped": 0},
             f"counts {report['counts']}")
    c.expect(actual["aut_order"] == 5_663_616, f"order {actual['aut_order']}")
    c.expect(actual["classgroup_kernel"] == 1, f"kernel {actual['classgroup_kernel']}")
    c.finish()


def _prime_powers_upto(bound):
    sieve = [True] * (bound + 1)
    out = []
    for p in range(2, bound + 1):
        if sieve[p]:
            for m in range(2 * p, bound + 1, p):
                sieve[m] = False
            pk = p
            while pk <= bound:
                out.append(pk)
                pk *= p
    return sorted(out)


def _field_axioms_exhaustive(order):
    ps = [p for p in range(2, order + 1) if order % p == 0][0]
    k = 0
    t = order
    while t > 1:
        t //= ps
        k += 1
    F = gf.field_make(ps, k)
    N = F.order
    add = np.array([[F.add(a, b) for b in range(N)] for a in range(N)], dtype=np.int32)
    mul = np.array([[F.mul(a, b) for b in range(N)] for a in range(N)], dtype=np.int32)
    assert (add == add.T).all() and (mul == mul.T).all()
    assert (add[0] == np.arange(N)).all()
    assert (mul[1] == np.arange(N)).all() and (mul[0] == 0).all()
    # every element has an additive inverse, every nonzero a multiplicative one
    assert sorted(np.argwhere(add == 0)[:, 0].tolist()) == list(range(N))
    assert (mul[1:, 1:] == 1).sum(axis=1).min() == 1
    for a in range(N):
        # [b, c] entries: row-gathers give a+(b+c) vs (a+b)+c, same for *
        assert (add[a][add] == add[add[a]]).all(), f"add assoc fails, order {N}, a={a}"
        assert (mul[a][mul] == mul[mul[a]]).all(), f"mul assoc fails, order {N}, a={a}"
        lhs = mul[a][add]             # a * (b + c)
        rhs = add[np.ix_(mul[a], mul[a])]
        assert (lhs == rhs).all(), f"distributivity fails, order {N}, a={a}"


def test_c10_property_suites():
    c = Criterion("C10 property suites: fields, lines, HNF/SNF, census routes", 600.0)
    # exhaustive field axioms for every constructible order up to 256
    orders = _prime_powers_upto(256)
    c.expect(256 in orders and 243 in orders and len(orders) > 60, "order list")
    for order in orders:
        _field_axioms_exhaustive(order)
    # closed-form line points against brute-force substitution
    for q in (2, 3, 4):
        curve = curve_make(q)
        for line in curve.all_lines():
            got = set(curve.points_on_line(line))
            want = set(points_on_line_bruteforce(curve, line))
            c.expect(got == want, f"q={q} {line} point mismatch")
    # HNF/SNF invariance under random unimodular row (and column) mixes
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randrange(2, 6)
        k = rng.randrange(n, n + 3)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(k)]
        mixed = [list(r) for r in rows]
        for _ in range(12):
            i, j = rng.randrange(k), rng.randrange(k)
            if i != j:
                f = rng.randrange(-3, 4)
                mixed[i] = [a + f * b for a, b in zip(mixed[i], mixed[j])]
            if rng.random() < 0.3:
                mixed[i] = [-a for a in mixed[i]]
        rng.shuffle(mixed)
        h1, p1 = intmat.hnf(rows, n)
        h2, p2 = intmat.hnf(mixed, n)
        c.expect(h1 == h2 and p1 == p2, "HNF not invariant")
        d1, _, _ = smith_normal_form(h1, n)
        if len(h2) == n:  # full rank: the divisors counted modulo the exponent
            d2 = intmat.smith_normal_form(h2, d1[-1])[0]
        else:
            d2, _, _ = smith_normal_form(h2, n)
        c.expect(d1 == d2, "SNF divisors not invariant")
    # census: the signature route matches the Fincke-Pohst
    # enumeration route
    hl2 = hermlat.build(2)
    census = lattice.census_pm1(hl2.L, 2)
    c.expect(len(census) == 108, f"census size {len(census)}")
    enum = {v for norm, v in lattice.enumerate_short_vectors(hl2.L, 4) if norm == 4}
    c.expect(set(census) == enum, "census != enumeration")
    c.finish()
