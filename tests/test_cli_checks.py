"""Verify runs share one lattice, one line pass, one pass over the
unital's blocks, one census, one group chain and one class-group action."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import hfl
from hfl import abelian, autgrp, cli, hermlat, lattice
from hfl.curve import Slope, curve_make
from hfl.errors import InternalIdentityViolationError

import oracles


@pytest.fixture
def counted(monkeypatch):
    """Count calls of the costly builders while passing them through."""
    calls = {}

    def count(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count(abelian, "catalogue")
    count(autgrp, "full_group")
    count(autgrp, "lattice_stable_under")
    count(autgrp, "induced_classgroup_action")
    count(hermlat, "kissing_families")
    count(hermlat, "family_pairs")
    count(hermlat, "decompose_line")
    count(hermlat, "HermitianLattice")
    count(lattice, "census_pm1")
    return calls


def test_verify_builds_each_object_once(counted, capsys):
    assert cli.main(["verify", "--q", "2"]) == 0
    capsys.readouterr()
    # the two census checks share one +-1 census, and min_distance walks
    # no shape.  The family checks read the unital's blocks, so the families
    # are walked once, against the census, and never held.  Each of the 20
    # lines is decomposed once, and lattice stability is read off the
    # class-group action.
    assert counted == {
        "HermitianLattice": 1,
        "family_pairs": 1,
        "decompose_line": 20,
        "full_group": 1,
        "induced_classgroup_action": 1,
        "lattice_stable_under": 1,
        "census_pm1": 1,
    }


def test_group_verify_builds_the_catalogue_once(counted, capsys):
    """The row counts and the golden CSV are read off one catalogue."""
    golden = Path(__file__).parent / "golden" / "table1_golden.csv"
    assert cli.main(["verify", "--group", "7", "--table1", "--golden", str(golden)]) == 0
    capsys.readouterr()
    assert counted == {"catalogue": 1}


def test_memory_and_internal_defects_exit_4(monkeypatch, capsys):
    """Exit code 1 stays a verification mismatch: running out of memory
    and a failed self-check end with code 4 and one `hfl:` line."""

    def exhausted(curve):
        raise MemoryError

    with monkeypatch.context() as m:
        m.setattr(hermlat, "family_pairs", exhausted)
        assert cli.main(["verify", "--q", "2"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("hfl:")] == ["hfl: out of memory"]

    real = hermlat._dispatch
    # a decomposition missing its last step no longer sums to the divisor
    monkeypatch.setattr(hermlat, "_dispatch", lambda *a, **k: real(*a, **k)[:-1])
    assert cli.main(["herm", "decompose", "--q", "2", "--line", "x-c:c=1"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("hfl: internal defect: decomposition of")


def _other_numerator(curve, s):
    """The step with its numerator swapped for another non-tangent slope
    line through the pair's common point: still a checked pair."""
    pt = (set(curve.points_on_line(s.numerator)) & set(curve.points_on_line(s.denominator))).pop()
    other = next(
        line for line in curve.all_lines()
        if isinstance(line, Slope) and line != s.numerator and not curve.is_tangent(line)
        and pt in curve.points_on_line(line)
    )
    hermlat.minimal_pair_vector(curve, other, s.denominator)
    return dataclasses.replace(s, numerator=other)


@pytest.mark.parametrize("defect", [
    lambda curve, s: dataclasses.replace(s, sign=-s.sign),
    lambda curve, s: dataclasses.replace(s, numerator=s.denominator, denominator=s.numerator),
    _other_numerator,
], ids=["flipped_sign", "swapped_pair", "other_numerator"])
def test_sparse_decomposition_check_catches_a_wrong_step(defect, monkeypatch, capsys):
    """The net line coefficients miss the line's divisor when one step has
    the wrong sign, its lines swapped, or another line through the same
    point as its numerator."""
    real = hermlat._dispatch

    def faulty(curve, *a, **k):
        steps = real(curve, *a, **k)
        steps[0] = defect(curve, steps[0])
        return steps

    monkeypatch.setattr(hermlat, "_dispatch", faulty)
    for spec in ("x-c:c=1", "y+bx+c:b=1,c=3"):
        assert cli.main(["herm", "decompose", "--q", "3", "--line", spec]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("hfl: internal defect: decomposition of")


def _census_checks(q, cap):
    """The records of verify's minimum and census checks at q under cap."""
    wanted = ("min_distance", "census_contains_families", "census_size")
    hl = hermlat.HermitianLattice(curve_make(q))
    checks = [c for c in cli.herm_checks(hl, cap=cap) if c.check_id in wanted]
    report = cli.run_checks(checks)
    return {rec["check_id"]: rec for rec in report["checks"]}


def test_census_checks_walk_the_census_alone():
    """The cap bounds the census alone: at q = 4 it charges 693,680
    (placements plus pairs), so a cap of 700,000 passes all three checks,
    where the scan up to 2q would have charged 772,915.  At q = 5 the
    census is refused before any walk, by its placements alone and with
    the flags that lift the cap, and the minimum is still certified."""
    recs = _census_checks(4, 700_000)
    assert all(rec["pass"] for rec in recs.values())
    assert recs["census_size"]["actual"] == 15600

    recs = _census_checks(5, lattice.DEFAULT_CENSUS_CAP)
    assert set(recs) == {"min_distance", "census_contains_families"}
    assert recs["min_distance"]["pass"] and recs["min_distance"]["actual"] == 10
    assert recs["census_contains_families"]["skipped"]
    reason = recs["census_contains_families"]["reason"]
    assert "244222650 placements >" in reason
    assert reason.endswith(cli.BUDGET_HINT) and "--cap" in reason


def test_short_degree_bound_fails_min_distance(monkeypatch):
    """A place count whose ceiling falls short of the vertical pair makes
    min_distance FAIL with the reason, not PASS or SKIP, and the run goes
    on to the census checks."""
    hl = hermlat.build(2)
    checks = [c for c in cli.herm_checks(hl, cap=None) if c.check_id.startswith(("min", "census"))]
    monkeypatch.setattr(hl.curve, "places", hl.curve.places[:5])
    recs = {rec["check_id"]: rec for rec in cli.run_checks(checks)["checks"]}
    assert recs["min_distance"]["pass"] is False and "skipped" not in recs["min_distance"]
    assert recs["min_distance"]["reason"].endswith("the degree bound over 5 places gives 2")
    assert recs["census_size"]["pass"] and recs["census_contains_families"]["pass"]


def test_verify_runs_no_scan(monkeypatch, capsys):
    """verify --q 2, 3 and 4 pass with the shape scan refused outright."""

    def no_scan(*args, **kwargs):
        raise AssertionError("verify ran the shape scan")

    monkeypatch.setattr(lattice, "scan_short_vectors", no_scan)
    for q in ("2", "3", "4"):
        assert cli.main(["verify", "--q", q]) == 0
    capsys.readouterr()


def test_census_refusal_while_pairing_is_kept(counted):
    """At q = 4 the census charges 677,040 placements and then 16,640
    pairs; at a cap inside the pair charge it is refused only after the
    walk, which both census checks must share."""
    recs = _census_checks(4, 693_679)
    assert counted["census_pm1"] == 1
    assert recs["census_contains_families"]["skipped"] and recs["census_size"]["skipped"]
    assert recs["census_contains_families"]["reason"] == recs["census_size"]["reason"]
    assert "693679" in recs["census_size"]["reason"]


def _records(checks, wanted):
    report = cli.run_checks([c for c in checks if c.check_id in wanted])
    return {rec["check_id"]: rec for rec in report["checks"]}


FAMILY_IDS = ("family_sizes", "family_membership")


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_family_pass_matches_dense_oracle(q):
    """The sizes read off the unital's blocks equal those of the walk
    oracle, whose vectors all have norm^2 2q and are distinct, and at
    q <= 4 those of the dense families; membership from the line divisors
    agrees with each dense vector's HNF test."""
    hl = hermlat.build(q)
    sizes, design = hermlat.unital_families(hl.curve)
    walked, norms, distinct = oracles.family_pass(hl.curve)
    assert design and sizes == walked
    assert norms == {2 * q: sizes["total"]} and distinct == sizes["total"]
    assert hl.lines_outside == ()
    if q == 5:  # 75,600 dense vectors of length 126 would take about 80 MB
        return
    dense = hermlat.kissing_families(hl.curve)
    vectors = [v for name in hermlat.FAMILIES for v in getattr(dense, name)]
    assert sizes == {
        **{name: len(getattr(dense, name)) for name in hermlat.FAMILIES},
        "total": dense.total,
    }
    assert Counter(sum(x * x for x in v) for v in vectors) == norms
    assert len(dense.union()) == distinct
    assert all(oracles.contains(hl.L, v) for v in vectors)


def test_non_member_line_divisors_fail_family_membership():
    """With L swapped for 2L no line divisor is a member: the family
    vectors are not certified, and neither is the span."""
    hl = hermlat.build(2)
    divs = [hl.curve.divisor_of_line(line) for line in hl.curve.all_lines()]
    hl.L = lattice.Lattice.from_generators([[2 * x for x in d] for d in divs], hl.curve.n)
    recs = _records(cli.herm_checks(hl, cap=None), FAMILY_IDS)
    assert recs["family_sizes"]["pass"]
    assert not recs["family_membership"]["pass"]
    assert recs["family_membership"]["actual"] == "line divisor outside lattice"
    with pytest.raises(InternalIdentityViolationError, match="outside L"):
        hermlat.generated_by_minimals(hl)


def test_repeated_pair_reports_overlap(monkeypatch):
    """The walk oracle counts a repeated pair twice but keeps one key."""
    real = hermlat.family_pairs

    def repeated(curve):
        pairs = list(real(curve))
        return pairs + pairs[:1]

    monkeypatch.setattr(hermlat, "family_pairs", repeated)
    sizes, norms, distinct = oracles.family_pass(curve_make(2))
    assert sizes["total"] == 109 and distinct == 108 < sizes["total"]


def _secant_support(curve):
    """A non-tangent slope line of the curve and its divisor's support."""
    line = next(l for l in curve.all_lines() if isinstance(l, Slope) and not curve.is_tangent(l))
    return line, curve.line_support(line)


def _verify_with(hl, monkeypatch, tmp_path):
    """`verify --q` on the given lattice: the exit code and the report."""
    monkeypatch.setattr(hermlat, "build", lambda q: hl)
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--q", str(hl.curve.q), "--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def test_dropped_block_fails_the_family_checks(monkeypatch, capsys, tmp_path):
    """With one secant gone from the lines, its q + 1 places lose a block:
    the pencil counts fall short and the pairs of its places lie in no
    block, so both family checks FAIL, as does the line count of the
    decompositions, and verify exits 1."""
    hl = hermlat.build(2)
    lines = hl.curve.all_lines()
    dropped, _ = _secant_support(hl.curve)
    monkeypatch.setattr(hl.curve, "all_lines", lambda: [l for l in lines if l != dropped])
    code, report = _verify_with(hl, monkeypatch, tmp_path)
    capsys.readouterr()
    failed = {r["check_id"]: r.get("actual") for r in report["checks"] if r.get("pass") is False}
    assert code == 1
    assert set(failed) == {"family_sizes", "family_membership", "decompose_all_lines"}
    assert failed["family_sizes"]["total"] < 108
    assert failed["family_membership"] == "blocks not a 2-design"


def test_moved_place_breaks_the_design():
    """A secant's support with one affine place moved to a place off the
    line is still of the form 1_B - (q+1) e_0, but the design is broken:
    both family checks FAIL, and two more slope pairs are counted."""
    hl = hermlat.build(2)
    line, (pole, *zeros) = _secant_support(hl.curve)
    off = next(i for i in range(1, hl.curve.n) if (i, 1) not in zeros)
    hl.curve._supports[line] = (pole, *sorted(zeros[1:] + [(off, 1)]))
    assert len(hl.curve.block(line)) == 3
    recs = _records(cli.herm_checks(hl, cap=None), FAMILY_IDS)
    assert recs["family_sizes"]["pass"] is False and recs["family_sizes"]["actual"]["total"] == 110
    assert recs["family_membership"]["actual"] == "blocks not a 2-design"


def test_slope_zero_at_infinity_is_a_defect(monkeypatch, capsys, tmp_path):
    """A secant's support with a zero at P_inf, so a pole of q, is a block
    shape only a vertical may have: verify ends with an internal defect."""
    hl = hermlat.build(2)
    line, (_, *zeros) = _secant_support(hl.curve)
    hl.curve._supports[line] = ((0, -hl.curve.q), *zeros[1:])
    code, report = _verify_with(hl, monkeypatch, tmp_path)
    err = capsys.readouterr().err.splitlines()
    assert code == 4 and report is None
    assert err[-1].startswith(f"hfl: internal defect: {line!r} has divisor")


def test_family_checks_hold_no_dense_vectors():
    """At q = 5 the 75,600 family vectors of length 126 take about 80 MB
    as tuples; the family checks read the 525 blocks and their 7,875
    pairs of places instead."""
    hl = hermlat.build(5)
    checks = cli.herm_checks(hl, cap=None)
    tracemalloc.start()
    try:
        recs = _records(checks, FAMILY_IDS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert recs["family_sizes"]["pass"] and recs["family_membership"]["pass"]
    assert peak < 4 * 2**20, peak


def _verify_from_parent(parent_source, q):
    """The report of `python -m hfl verify --q q` run by a Python parent
    that first executes parent_source."""
    src = os.path.dirname(os.path.dirname(hfl.__file__))
    launcher = parent_source + (
        "\nimport subprocess, sys\n"
        f"argv = [sys.executable, '-m', 'hfl', 'verify', '--q', '{q}']\n"
        "sys.exit(subprocess.run(argv).returncode)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_verify_q4_peak_rss_bound():
    """`python -m hfl verify --q 4` passes every check with nothing
    skipped, and its report's own peak RSS stays below 56 MB: the census
    holds one pass of its keys at a time."""
    report = _verify_from_parent("", 4)
    assert report["pass"] and report["counts"]["failed"] == report["counts"]["skipped"] == 0
    assert report["peak_rss_mb"] < 56, report["peak_rss_mb"]


def test_verify_q7_peak_rss_bound():
    """`python -m hfl verify --q 7` passes 16 checks and skips only
    census_contains_families, refused by the cap, and its report's own
    peak RSS stays below 64 MB: no family vector is walked or held."""
    report = _verify_from_parent("", 7)
    assert report["counts"] == {"passed": 16, "failed": 0, "skipped": 1}
    assert report["peak_rss_mb"] < 64, report["peak_rss_mb"]


def test_verify_q8_peak_rss_bound():
    """`python -m hfl verify --q 8` passes 16 checks and skips only
    census_contains_families, and its report's own peak RSS stays below
    44 MB (about 37 MB): the curve keeps each line only as its support,
    the build packs each support straight into a row of one byte per
    place, and the chain of Aut(H) holds each coset representative
    once."""
    report = _verify_from_parent("", 8)
    assert report["counts"] == {"passed": 16, "failed": 0, "skipped": 1}
    assert report["peak_rss_mb"] < 44, report["peak_rss_mb"]


_STAGE_RISE = """
import sys
from hfl import autgrp, hermlat
from hfl.cli import _peak_rss_mb
from hfl.curve import curve_make
if sys.argv[1] == "build":
    before = _peak_rss_mb()
    assert hermlat.build(8).L.rank == 512
    print(_peak_rss_mb() - before)
    sys.exit()
curve = curve_make(8)
if sys.argv[1] == "unital_families":
    for line in curve.all_lines():
        curve.block(line)  # the build caches every block before this stage
before = _peak_rss_mb()
if sys.argv[1] == "full_group":
    assert autgrp.full_group(curve).order == 16547328
else:
    assert hermlat.unital_families(curve)[1]
print(_peak_rss_mb() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no VmHWM to read")
@pytest.mark.parametrize(
    "stage, bound", [("full_group", 8), ("unital_families", 4), ("build", 16)]
)
def test_q8_stage_peak_rss_rise_bound(stage, bound):
    """At q = 8, in a child of its own, the chain of Aut(H) raises the
    peak RSS by under 8 MB (about 3 MB), holding each coset representative
    once as u^-1, the unital's 2-design check by under 4 MB (about
    0.4 MB), marking pairs in one bytearray(n^2) of 263 KB, and
    hermlat.build(8), curve included, by under 16 MB (about 7 MB), as it
    reads each line as its support and packs it straight into a Howell
    row (dense divisors and their projections raised it by about 24 MB)."""
    src = os.path.dirname(os.path.dirname(hfl.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _STAGE_RISE, stage],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < bound, proc.stdout


_Q11_BUILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from hfl import curve, hermlat
from hfl.cli import _peak_rss_mb
curve.SUPPORTED_Q += (11,)
hl = hermlat.build(11)
assert hl.L.rank == 1331 and hl.quotient.nontrivial == (12,) * 110
print(_peak_rss_mb())
"""


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no VmHWM to read")
def test_q11_build_peak_rss_bound():
    """With q = 11 admitted in a child of its own, under a 1 GiB address
    space limit, building L (14,762 line supports packed into Howell rows
    of 1,331 bytes, and the quotient Z_12^110) peaks below 100 MB, about
    61 MB; the dense divisors and their projections took it to 217 MB."""
    src = os.path.dirname(os.path.dirname(hfl.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _Q11_BUILD],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 100, proc.stdout


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no VmHWM to read")
def test_peak_rss_is_the_process_own_after_exec():
    """A parent holding about 120 MB runs `verify --q 2`, which needs about
    18 MB: the report gives the child's peak, not the parent's, which
    getrusage would carry across the exec on Linux."""
    report = _verify_from_parent("held = b'x' * (120 * 2**20)", 2)
    assert report["pass"]
    assert report["peak_rss_mb"] < 40, report["peak_rss_mb"]


def test_aut_fixes_lattice_reads_the_action(monkeypatch):
    """A lattice that a generator moves fails aut_fixes_lattice and
    classgroup_kernel with the action's refusal, and the refused action
    is not recomputed."""
    hl = hermlat.build(2)
    n = hl.curve.n
    rows = [[-3, 3] + [0] * (n - 2)]  # with the second differences, rank n - 1
    for i in range(1, n - 1):
        v = [0] * n
        v[i - 1], v[i], v[i + 1] = 1, -2, 1
        rows.append(v)
    hl.L = lattice.Lattice.from_generators(rows, n)
    calls = []
    real = autgrp.induced_classgroup_action
    monkeypatch.setattr(
        autgrp, "induced_classgroup_action", lambda *a: calls.append(1) or real(*a)
    )
    recs = _records(cli.aut_checks(hl), ("aut_fixes_lattice", "classgroup_kernel"))
    assert len(calls) == 1  # stability is read from the action, and its refusal is kept
    assert set(recs) == {"aut_fixes_lattice", "classgroup_kernel"}
    for rec in recs.values():
        assert rec["pass"] is False and "actual" not in rec
        assert rec["reason"].startswith("a generator moves the lattice")


def test_moved_lattice_is_a_mismatch_with_a_report(monkeypatch, capsys, tmp_path):
    """When a generator moves L, `verify` writes its report and exits 1:
    both aut checks that read the action FAIL with its refusal."""
    monkeypatch.setattr(autgrp, "lattice_stable_under", lambda *a, **k: False)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--q", "2", "--out", str(out)]) == 1
    capsys.readouterr()
    report = json.loads(out.read_text())
    failed = {r["check_id"]: r["reason"] for r in report["checks"] if not r.get("pass")}
    assert set(failed) == {"aut_fixes_lattice", "classgroup_kernel"}
    assert all(reason.startswith("a generator moves the lattice") for reason in failed.values())


def test_aut_payload_runs_one_stability_pass(counted, monkeypatch):
    """`aut` reads lattice_check off the class-group action; a generator
    that moves L gives False and no action."""
    payload = cli.aut_payload(curve_make(2))
    assert counted["lattice_stable_under"] == counted["induced_classgroup_action"] == 1
    assert payload["lattice_check"] is True and payload["classgroup_injective"] is False
    monkeypatch.setattr(autgrp, "lattice_stable_under", lambda *a, **k: False)
    payload = cli.aut_payload(curve_make(2))
    assert payload["lattice_check"] is False and payload["classgroup_injective"] is None


SELF_CHECKS = """
from hfl import autgrp, gf, hermlat, lattice
from hfl.curve import Curve, Vertical, curve_make
from hfl.errors import InternalIdentityViolationError, LatticeNotStableError


def raises(fn):
    try:
        fn()
    except InternalIdentityViolationError:
        return True
    return False


curve = curve_make(2)
# a wrong line divisor: one point of x - 1 doubled, the pole deepened
(pole, deg), (pt, mult), *rest = curve.line_support(Vertical(1))
curve._supports[Vertical(1)] = ((pole, deg - 1), (pt, mult + 1), *rest)
found = [raises(lambda: hermlat.minimal_pair_vector(curve, Vertical(0), Vertical(1)))]
found.append(raises(lambda: autgrp._affine_perm(curve, lambda pt: curve.places[1], "collapse")))
L = lattice.Lattice.from_generators([(2, -2, 0), (0, 2, -2)], 3)
found.append(raises(lambda: lattice.generated_by_minimals_index(L, [(1, -1, 0), (0, 1, -1)])))
real = gf.Field.trace_fiber
gf.Field.trace_fiber = lambda self, c: real(self, c)[:1]
found.append(raises(lambda: Curve(3)))
print(__debug__, found)
"""


def test_self_checks_survive_python_O():
    """Under -O, where asserts vanish, a wrong line divisor, a map that is
    no bijection, a span escaping its lattice and a short place list
    still raise InternalIdentityViolationError."""
    src = os.path.dirname(os.path.dirname(hfl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SELF_CHECKS],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "[True,", "True,", "True,", "True]"]
