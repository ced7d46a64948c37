"""Tests of the benchmark itself, on a small configuration (q = 2, 3, Z_7).

    python3 -m unittest discover -s perfbench

Standard library only; the library is imported from src/ beside this
directory.
"""

import importlib
import json
import os
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL_PLAN = (((7,), (3, 4), 1), ((3, 3), (4,), 1))


def _scan_with_placements():
    """At q = 2, bound 6 reaches the (2 | 1,1) shapes, which the scan
    places one by one; the scans below 2q at q = 2, 3 place nothing."""
    from hfl import hermlat, lattice

    found = lattice.scan_short_vectors(hermlat.build(2).L, 6, cap=workloads.CAP, workers=1)
    return bool(found), True


def small_ops():
    return (
        workloads.hermitian_verify_ops(2)
        + workloads.hermitian_verify_ops(3)
        + workloads.build_families_ops(3, 2)
        + workloads.abelian_ops(workloads.read_golden(ROOT), workloads.draw_subsets(5, SMALL_PLAN))
        + [("q2.scan_bound_6", _scan_with_placements)]
    )


def _snapshot():
    """Every attribute of every hfl module and class, by identity."""
    out = {}
    mods = [importlib.import_module("hfl")] + [
        importlib.import_module(f"hfl.{m}") for m in tracer.MODULES
    ]
    for mod in mods:
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("hfl"):
                for ckey, cvalue in vars(value).items():
                    out[(mod.__name__, key, ckey)] = cvalue
    return out


class TracedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.before = _snapshot()
        cls.plain = workloads.run_ops(small_ops())
        cls.tr = tracer.Tracer(run_id="test")
        ops = small_ops()
        cls.tr.install()
        try:
            t0 = time.perf_counter()
            cls.traced = workloads.run_ops(ops)
            cls.traced_s = time.perf_counter() - t0
        finally:
            cls.tr.uninstall()
        cls.after = _snapshot()

    def test_every_operation_passes(self):
        failed = [r for r in self.plain + self.traced if not r["ok"]]
        self.assertEqual(failed, [])

    def test_traced_and_untraced_results_identical(self):
        self.assertEqual(
            [(r["op"], r["result"]) for r in self.plain],
            [(r["op"], r["result"]) for r in self.traced],
        )

    def test_wrappers_removed_after_run(self):
        self.assertEqual(self.before.keys(), self.after.keys())
        changed = [k for k in self.before if self.before[k] is not self.after[k]]
        self.assertEqual(changed, [])

    def test_intra_module_calls_are_caught(self):
        stats = self.tr.stats
        # scan_short_vectors reaches census_pm1 through lattice's globals,
        # kissing_families reaches divisor_of_line through the class
        self.assertGreater(stats["lattice.census_pm1"]["calls"], 2)
        self.assertGreater(stats["curve.Curve.divisor_of_line"]["calls"], 0)

    def test_placements_count_member_fast_under_the_scan(self):
        from hfl import hermlat, lattice

        L = hermlat.build(2).L
        tr = tracer.Tracer(run_id="scan")
        tr.install()
        try:
            L.member_fast((0,) * L.n)
            # bound 6 reaches the (2 | 1,1) shapes, placed one by one
            found = lattice.scan_short_vectors(L, 6, cap=workloads.CAP, workers=1)
        finally:
            tr.uninstall()
        m = tr.metrics(1.0)
        self.assertTrue(found)
        self.assertGreater(m["lattice.scan_short_vectors.placements"], 0)
        self.assertEqual(m["lattice.Lattice.member_fast.calls"],
                         m["lattice.scan_short_vectors.placements"] + 1)

    def test_self_times_and_uncovered_account_for_traced_time(self):
        m = self.tr.metrics(self.traced_s)
        layers = sum(m[f"{mod}.self_s"] for mod in tracer.MODULES)
        self.assertGreaterEqual(m["bench.uncovered_s"], 0.0)
        self.assertAlmostEqual(layers + m["bench.uncovered_s"], self.traced_s, places=9)
        roots = sum(end - start for _, _, start, end, parent in self.tr.spans if parent is None)
        self.assertLessEqual(roots, self.traced_s)

    def test_every_per_layer_metric_is_produced(self):
        m = self.tr.metrics(self.traced_s)
        produced_by_run = {"bench.trace_overhead_s", "lattice.census_pm1.worker_peak_rss_mb"}
        missing = [n for n, _ in run.PER_LAYER if n not in m and n not in produced_by_run]
        self.assertEqual(missing, [])

    def test_jsonl_spans(self):
        path = os.path.join(ROOT, ".perfbench_out", "test-spans.jsonl")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self.tr.write_jsonl(path)
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        os.remove(path)
        spans, summary = lines[:-1], lines[-1]
        self.assertTrue(spans)
        self.assertEqual(set(spans[0]), {"id", "name", "start", "end", "parent", "run"})
        self.assertIn("census_pm1", summary["note"])


class SpeedProbeTest(unittest.TestCase):
    def test_samples_during_work_and_restores_the_signal(self):
        import signal

        before = signal.getsignal(signal.SIGALRM)
        with workloads.SpeedProbe() as probe:
            t_end = time.perf_counter() + 0.35
            while time.perf_counter() < t_end:
                pass
        self.assertGreaterEqual(len(probe.samples), 2)
        self.assertTrue(all(x > 0 for x in probe.samples))
        self.assertGreater(probe.spent_wall, 0.0)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_a_short_pass_still_gets_a_sample(self):
        with workloads.SpeedProbe() as probe:
            pass
        self.assertEqual(len(probe.samples), 1)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_every_metric_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_report_prints_every_metric_with_its_unit(self):
        import io

        samples = {name: [1.0, 2.0] for name, _ in run.REPORTED}
        record = {"workload": "w", "seed": 1, "trace": 1, "run_s": 1.0, "samples": samples,
                  "passes": [], "layers": {}, "conditions": {}}
        buf = io.StringIO()
        run.print_table(record, out=buf)
        lines = buf.getvalue().splitlines()
        for name, unit in run.REPORTED + run.PER_LAYER:
            self.assertTrue(any(line.split()[:2] == [name, unit] for line in lines), name)

    def test_seed_drives_the_draws(self):
        self.assertEqual(workloads.draw_subsets(3), workloads.draw_subsets(3))
        self.assertNotEqual(workloads.draw_subsets(3), workloads.draw_subsets(4))
        for moduli, subset in workloads.draw_subsets(3):
            order = 1
            for m in moduli:
                order *= m
            self.assertLessEqual(len(subset), order - 2)
            self.assertEqual(len(set(subset)), len(subset))


if __name__ == "__main__":
    unittest.main()
