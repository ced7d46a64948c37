"""Verify runs share one lattice, one family build, one census and one group chain."""

import pytest

from hfl import autgrp, cli, hermlat, lattice
from hfl.curve import curve_make


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

    count(autgrp, "full_group")
    count(hermlat, "kissing_families")
    count(hermlat, "HermitianLattice")
    count(lattice, "census_pm1")
    return calls


def test_verify_builds_each_object_once(counted, capsys):
    assert cli.main(["verify", "--q", "2"]) == 0
    capsys.readouterr()
    # min_distance's scan runs the k = 1 and k = 2 censuses; the two
    # census checks reuse the k = 2 vectors of that scan
    assert counted == {
        "HermitianLattice": 1,
        "kissing_families": 1,
        "full_group": 1,
        "census_pm1": 2,
    }


def test_memory_and_internal_defects_exit_4(monkeypatch, capsys):
    """Exit code 1 stays a verification mismatch: running out of memory
    and a failed self-check end with code 4 and one `hfl:` line."""

    def exhausted(curve):
        raise MemoryError

    with monkeypatch.context() as m:
        m.setattr(hermlat, "kissing_families", exhausted)
        assert cli.main(["verify", "--q", "2"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("hfl:")] == ["hfl: out of memory"]

    real = hermlat._dispatch
    # a decomposition missing its last step no longer sums to the divisor
    monkeypatch.setattr(hermlat, "_dispatch", lambda *a, **k: real(*a, **k)[:-1])
    assert cli.main(["herm", "decompose", "--q", "2", "--line", "x-c:c=1"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("hfl: internal defect: decomposition of")


def _census_checks(q, cap):
    """The records of verify's minimum and census checks at q under cap."""
    wanted = ("min_distance", "census_contains_families", "census_size")
    hl = hermlat.HermitianLattice(curve_make(q))
    checks = [c for c in cli.herm_checks(hl, cap=cap) if c.check_id in wanted]
    report = cli.run_checks(checks, verbose=False)
    return {rec["check_id"]: rec for rec in report["checks"]}


def test_refused_scan_falls_back_on_the_census():
    """At q = 4 the scan up to 2q charges 772,915 and the census alone
    693,680 (placements plus pairs), so a cap between them refuses the
    minimum but still runs both census checks.  At q = 5 both refuse
    before any walk, and the census checks give the census's own refusal."""
    recs = _census_checks(4, 700_000)
    assert recs["min_distance"]["skipped"]
    assert "772915" in recs["min_distance"]["reason"]
    assert recs["census_contains_families"]["pass"]
    assert recs["census_size"]["pass"] and recs["census_size"]["actual"] == 15600

    recs = _census_checks(5, lattice.DEFAULT_CENSUS_CAP)
    assert set(recs) == {"min_distance", "census_contains_families"}
    assert all(rec["skipped"] for rec in recs.values())
    assert "244222650 placements" in recs["census_contains_families"]["reason"]


def test_census_refusal_while_pairing_is_kept(counted):
    """At q = 4 the census charges 677,040 placements and then 16,640
    pairs; at a cap inside the pair charge it is refused only after the
    walk, which both census checks must share."""
    recs = _census_checks(4, 693_679)
    assert counted["census_pm1"] == 1
    assert recs["census_contains_families"]["skipped"] and recs["census_size"]["skipped"]
    assert recs["census_contains_families"]["reason"] == recs["census_size"]["reason"]
    assert "693679" in recs["census_size"]["reason"]
