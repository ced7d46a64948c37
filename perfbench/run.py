"""Benchmark for hfl: exact-verification workloads, end to end and per layer.

    python3 perfbench/run.py --workload q4-census-aut --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Run from anywhere; the library is imported from ``src/`` beside this
directory.  Every pass runs in a fresh Python process (``workloads.py``),
so set-up, peak RSS and CPU time belong to that pass alone.

``--trace 0`` measures the end-to-end metrics with tracing off: twenty
set-up-only starts, passes until ``--seconds`` would be exceeded (at least
one), twenty more set-up-only starts; each metric the median over its
samples.  Times are in reference seconds (see ``workloads.py``): wall and
CPU time scaled by the speed of a fixed kernel sampled during each pass
and, for set-up, by samples the parent takes after each start.  The
wall-clock times are printed beside them as ``*_raw_s``.  ``--trace 1`` runs
one untraced and one traced pass and reports the per-layer metrics of the
traced one; ``bench.trace_overhead_s`` is the difference of the two.

Output: a table of every metric with its unit, median, quartiles and
sample count, a line with the run conditions (seed, drawn inputs, nproc,
Python, CPU model, steal ticks, calibration loop time; recorded beside the
metrics, never used to scale them), and as the last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when any operation failed, 2 when the benchmark cannot run at all.
Records and span files go to ``.perfbench_out/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

# The end-to-end metrics of BENCHMARK.json, then those printed but not
# compared there: the unscaled wall-clock times, and two that are 0 by
# design on a healthy run.
END_TO_END = (("verify_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
REPORTED = END_TO_END + (
    ("verify_raw_s", "s"),
    ("cpu_raw_s", "s"),
    ("setup_raw_s", "s"),
    ("worker_peak_rss_mb", "MB"),
    ("ops_failed_frac", "ratio"),
)

PER_LAYER = (
    ("intmat.echelon.calls", "count"),
    ("intmat.echelon.busy_s", "s"),
    ("intmat.echelon.self_s", "s"),
    ("intmat.hnf.self_s", "s"),
    ("intmat.hnf.rows_in", "count"),
    ("intmat.hnf.max_entry_bits", "bits"),
    ("intmat.smith_normal_form.busy_s", "s"),
    ("intmat.smith_normal_form.unit_divisors", "count"),
    ("intmat.left_kernel.calls", "count"),
    ("intmat.left_kernel.busy_s", "s"),
    ("lattice.Lattice.from_generators.calls", "count"),
    ("lattice.Lattice.from_generators.busy_s", "s"),
    ("lattice.Lattice.quotient.self_s", "s"),
    ("lattice.census_pm1.busy_s", "s"),
    ("lattice.census_pm1.rss_rise_mb", "MB"),
    ("lattice.census_pm1.worker_peak_rss_mb", "MB"),
    ("lattice.census_pm1.supports", "count"),
    ("lattice.census_pm1.pairs_modeled", "count"),
    ("lattice.census_pm1.vectors", "count"),
    ("lattice.census_pm1.hit_ratio", "ratio"),
    ("lattice.scan_short_vectors.busy_s", "s"),
    ("lattice.scan_short_vectors.self_s", "s"),
    ("lattice.scan_short_vectors.placements", "count"),
    ("lattice.Lattice.member_fast.calls", "count"),
    ("lattice.Lattice.member_fast.busy_s", "s"),
    ("lattice.enumerate_short_vectors.calls", "count"),
    ("lattice.enumerate_short_vectors.busy_s", "s"),
    ("lattice.enumerate_short_vectors.vectors", "count"),
    ("lattice.permutation_automorphisms.calls", "count"),
    ("lattice.permutation_automorphisms.busy_s", "s"),
    ("lattice.permutation_automorphisms.found", "count"),
    ("lattice.generated_by_minimals_index.busy_s", "s"),
    ("hermlat.HermitianLattice.busy_s", "s"),
    ("hermlat.kissing_families.busy_s", "s"),
    ("hermlat.kissing_families.rss_rise_mb", "MB"),
    ("hermlat.kissing_families.vectors", "count"),
    ("hermlat.decompose_line.calls", "count"),
    ("hermlat.decompose_line.busy_s", "s"),
    ("hermlat.decompose_line.steps", "count"),
    ("hermlat.minimal_pair_vector.calls", "count"),
    ("hermlat.minimal_pair_vector.busy_s", "s"),
    ("hermlat.generated_by_minimals.busy_s", "s"),
    ("hermlat.generated_by_minimals.self_s", "s"),
    ("hermlat.generated_by_minimals.vectors_in", "count"),
    ("autgrp.closure.busy_s", "s"),
    ("autgrp.closure.rss_rise_mb", "MB"),
    ("autgrp.closure.elements", "count"),
    ("autgrp.full_group.self_s", "s"),
    ("autgrp.induced_classgroup_action.busy_s", "s"),
    ("autgrp.induced_classgroup_action.rss_rise_mb", "MB"),
    ("autgrp.induced_classgroup_action.elements", "count"),
    ("autgrp.stabilizer.busy_s", "s"),
    ("autgrp.orbit_of_index.busy_s", "s"),
    ("autgrp.lattice_stable_under.busy_s", "s"),
    ("abelian.AbelianGroup.automorphisms.calls", "count"),
    ("abelian.AbelianGroup.automorphisms.busy_s", "s"),
    ("abelian.AbelianGroup.automorphisms.repeat_ratio", "ratio"),
    ("abelian.lattice_for_subset.busy_s", "s"),
    ("abelian.extendable_subset_perms.busy_s", "s"),
    ("abelian.check_permutation_correspondence.busy_s", "s"),
    ("abelian.catalogue.busy_s", "s"),
    ("cli.group_subset_payload.calls", "count"),
    ("cli.group_subset_payload.busy_s", "s"),
    ("curve.Curve.busy_s", "s"),
    ("curve.Curve.divisor_of_line.calls", "count"),
    ("curve.Curve.divisor_of_line.busy_s", "s"),
    ("gf.field_make.busy_s", "s"),
    ("gf.self_s", "s"),
    ("curve.self_s", "s"),
    ("intmat.self_s", "s"),
    ("lattice.self_s", "s"),
    ("hermlat.self_s", "s"),
    ("autgrp.self_s", "s"),
    ("abelian.self_s", "s"),
    ("cli.self_s", "s"),
    ("bench.traced_verify_s", "s"),
    ("bench.uncovered_s", "s"),
    ("bench.trace_overhead_s", "s"),
)

SETUP_STARTS = 40  # set-up-only starts per --trace 0 run
SETUP_REF_SAMPLES = 10  # reference samples the parent takes after each start
RUN_LIMIT_S = 170.0  # a run starts no pass it cannot finish within this


class BenchError(Exception):
    """The benchmark itself cannot run (missing sources, a pass crashed)."""


def _child(args, deadline):
    """Run one child pass; (spawn time, parsed last stdout line)."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # same set/dict iteration order in every pass
    cmd = [sys.executable, os.path.join(HERE, "workloads.py")] + args
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {' '.join(args)} did not finish within the run limit")
    if proc.returncode != 0:
        raise BenchError(f"pass {' '.join(args)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_starts(base, n, deadline, ref):
    """Set-up times of n starts that stop before the first operation;
    reference samples, appended to ref, follow each start."""
    out = []
    for _ in range(n):
        spawned, rec = _child(base + ["--setup-only"], deadline)
        out.append(rec["first_op"] - spawned)
        ref += [workloads.reference_kernel_s() for _ in range(SETUP_REF_SAMPLES)]
    return out


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def _steal_ticks():
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]), sum(int(x) for x in fields[1:])
    except (OSError, IndexError, ValueError):
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibration_loop_s():
    """Time of a fixed pure-stdlib loop: a record of machine speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i & 7
    return time.perf_counter() - t0


def _check_pass(rec):
    """Operation counts of one pass; the pass must have used ROOT/src."""
    ops = rec["ops"]
    failed = sum(1 for r in ops if not r["ok"])
    if os.path.realpath(rec["hfl"]) != os.path.realpath(os.path.join(ROOT, "src", "hfl")):
        raise BenchError(f"pass imported hfl from {rec['hfl']}, not from src/")
    return len(ops), failed


def run_workload(workload, seed, seconds, traced):
    """One benchmark run of one workload: its record as a dict."""
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    steal0 = _steal_ticks()
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "conditions": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "cpu_model": _cpu_model(),
            "calibration_loop_s": calibration_loop_s(),
        },
    }
    base = ["--workload", workload, "--seed", str(seed)]
    passes = []
    ref = []  # the parent's reference samples, for set-up
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.jsonl")
        for args in (base + ["--trace", "0"], base + ["--trace", "1", "--trace-out", trace_path]):
            passes.append(_child(args, deadline)[1])
        setup = _setup_starts(base, 2, deadline, ref)
        record["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        # half the set-up starts open the run and half close it, so that
        # setup_s samples the machine over the whole run, not one moment
        t_measure = time.monotonic()
        setup = _setup_starts(base, SETUP_STARTS // 2, deadline, ref)
        closing = time.monotonic() - t_measure  # the closing half takes as long
        walls = []
        while True:
            spawned, rec = _child(base + ["--trace", "0"], deadline)
            done = time.monotonic()
            walls.append(done - spawned)
            passes.append(rec)
            next_end = done + statistics.median(walls) + closing
            if next_end - t_measure > seconds or done + max(walls) + closing > deadline:
                break
        setup += _setup_starts(base, SETUP_STARTS - SETUP_STARTS // 2, deadline, ref)
    attempted = failed = 0
    for rec in passes:
        a, f = _check_pass(rec)
        attempted += a
        failed += f
    untraced = passes[:1] if traced else passes
    samples = {name: [p[name] for p in untraced]
               for name in ("verify_s", "cpu_s", "verify_raw_s", "cpu_raw_s", "peak_rss_mb",
                            "worker_peak_rss_mb")}
    scale = workloads.reference_scale(ref)
    samples["setup_s"] = [x * scale for x in setup]
    samples["setup_raw_s"] = setup
    record["setup_ref_samples"] = ref
    samples["ops_failed_frac"] = [failed / attempted]
    correct = failed == 0
    if traced:
        plain, rec = passes
        layers = dict(rec["layers"])
        layers["bench.trace_overhead_s"] = rec["verify_raw_s"] - plain["verify_raw_s"]
        layers["lattice.census_pm1.worker_peak_rss_mb"] = plain["worker_peak_rss_mb"]
        # tracing must not change a single operation's result
        if [(r["op"], r.get("result")) for r in plain["ops"]] != [
            (r["op"], r.get("result")) for r in rec["ops"]
        ]:
            correct = False
            record["trace_mismatch"] = True
        record["layers"] = layers
        metrics = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END}
    steal1 = _steal_ticks()
    if steal0 and steal1:
        record["conditions"]["steal_ticks"] = steal1[0] - steal0[0]
        record["conditions"]["total_ticks"] = steal1[1] - steal0[1]
    record["conditions"]["inputs"] = passes[0]["inputs"]
    record.update(
        samples=samples,
        passes=passes,
        result={"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics},
        run_s=time.monotonic() - t0,
    )
    return record


def print_table(record, out=sys.stdout):
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"run {record['run_s']:.1f} s", file=out)
    print(f"  {'metric':<22}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}", file=out)
    for name, unit in REPORTED:
        xs = record["samples"][name]
        q1, q3 = _quartiles(xs)
        med = statistics.median(xs)
        print(f"  {name:<22}{unit:<7}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{len(xs):>4}", file=out)
    for p in record["passes"]:
        for r in p["ops"]:
            if not r["ok"]:
                print(f"  FAILED {r['op']}: {r.get('error', '')}", file=out)
    if "layers" in record:
        for name, unit in PER_LAYER:
            print(f"  {name:<48}{unit:<7}{record['layers'].get(name, 0):>16.6f}", file=out)
        print("  note: census pool workers are separate processes and not traced; "
              "spans stop at lattice.census_pm1", file=out)
    print("conditions " + json.dumps(record["conditions"], sort_keys=True), file=out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    missing = [p for p in (os.path.join("src", "hfl", "__init__.py"), workloads.GOLDEN_CSV)
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: cannot run, missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            os.makedirs(OUT_DIR, exist_ok=True)
            path = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1, sort_keys=True)
            print_table(record)
            results[name] = record["result"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
