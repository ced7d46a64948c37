"""Verify runs share one lattice, one family build, one census and one group chain."""

import pytest

from hfl import autgrp, cli, hermlat, lattice


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


def test_order_refusal_is_cached(counted, hl2):
    checks = cli.aut_checks(hl2, max_order=10)
    report = cli.run_checks(checks, verbose=False)
    assert report["counts"] == {"passed": 0, "failed": 0, "skipped": len(checks)}
    assert all("exceeds cap" in rec["reason"] for rec in report["checks"])
    assert counted == {"full_group": 1}
