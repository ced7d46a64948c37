"""What the benchmark in perfbench/ uses of the library still exists.

The benchmark's modules are imported from their directory, as its runner
does, so renaming a traced function or growing a benchmark group past a
budget fails here rather than only in a traced benchmark pass.
"""

import importlib
from pathlib import Path

import pytest

from hfl import abelian, autgrp
from hfl.curve import curve_make
from hfl.lattice import Lattice

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def test_tracer_installs_and_uninstalls_every_target(perfbench):
    tracer = perfbench("tracer")
    original = abelian.AbelianGroup.__dict__["automorphisms"]
    tr = tracer.Tracer("tier-1")
    tr.install()  # raises if a target is missing
    try:
        assert abelian.AbelianGroup.__dict__["automorphisms"] is not original
        abelian.AbelianGroup((7,)).automorphisms()
    finally:
        tr.uninstall()
    assert abelian.AbelianGroup.__dict__["automorphisms"] is original
    assert len(tr.stats) == len(tracer.TARGETS)
    assert tr.stats["abelian.AbelianGroup.automorphisms"]["calls"] == 1


def test_benchmark_groups_within_the_listing_budget(perfbench):
    plan = perfbench("workloads").SUBSET_PLAN
    costs = {}
    for moduli in {moduli for moduli, _, _ in plan} | {(7,)}:
        G = abelian.AbelianGroup(moduli)
        costs[moduli] = G.automorphism_count() * G.order
    # the largest is Z_2^4: 20,160 automorphisms of 16 entries
    assert max(costs.values()) == costs[(2, 2, 2, 2)] == 322560 <= abelian.AUT_MAX_WORK


def test_benchmark_operations_all_pass(perfbench):
    """One small pass over each workload's kinds of operation: whatever the
    benchmark passes (max_order=, generators_only=, workers=) is still
    accepted, and every operation returns its expected value."""
    workloads = perfbench("workloads")
    plan = (((11,), (6,), 1), ((2, 2, 4), (6,), 1), ((2, 2, 2, 2), (6,), 1))
    ops = (
        workloads.hermitian_verify_ops(2)
        + workloads.build_families_ops(3, 2)
        + workloads.abelian_ops(workloads.read_golden(str(ROOT)), workloads.draw_subsets(5, plan))
    )
    records = workloads.run_ops(ops)
    assert len(records) == len(ops) > 60
    assert [r for r in records if not r["ok"]] == []


def test_traced_pass_decomposes_each_line_once(perfbench):
    """The benchmark's own tracer sees fewer pair vectors built than
    decomposition steps handed out: the secant and tangent recursions
    reuse the decompositions of their inner lines."""
    tracer, workloads = perfbench("tracer"), perfbench("workloads")
    tr = tracer.Tracer("tier-1")
    tr.install()
    try:
        records = workloads.run_ops(workloads.build_families_ops(3, 3))
    finally:
        tr.uninstall()
    assert [r for r in records if not r["ok"]] == []
    layers = tr.metrics(0.0)
    # every q = 3 line once: 756 steps from 216 pair vectors
    assert layers["hermlat.decompose_line.steps"] == 756
    assert layers["hermlat.minimal_pair_vector.calls"] < layers["hermlat.decompose_line.steps"]


def test_traced_pass_reads_divisors_and_action(perfbench):
    """The tracer counts the unit entries of smith_normal_form's first
    result item, the divisor list, and len(result.matrices) of the
    class-group action: a traced q = 2 pass still produces both counters.
    At q = 2 the non-unit Hermite block [[3, 0], [0, 3]] has no unit
    divisor, and the action holds one matrix per generator of Aut(H).
    The block [[2, 1], [0, 2]] then adds its unit divisor."""
    tracer, workloads = perfbench("tracer"), perfbench("workloads")
    tr = tracer.Tracer("tier-1")
    tr.install()
    try:
        records = workloads.run_ops(workloads.hermitian_verify_ops(2))
        layers = tr.metrics(0.0)
        assert layers["intmat.smith_normal_form.calls"] == 1
        assert layers["intmat.smith_normal_form.unit_divisors"] == 0
        generators = autgrp.full_group(curve_make(2)).generators
        assert layers["autgrp.induced_classgroup_action.elements"] == len(generators) == 3
        L = Lattice.from_generators([(-3, 2, 1), (-2, 0, 2)], 3)
        assert L.quotient().nontrivial == (4,)
    finally:
        tr.uninstall()
    assert [r for r in records if not r["ok"]] == []
    assert tr.metrics(0.0)["intmat.smith_normal_form.unit_divisors"] == 1
