"""The benchmark's workloads: fixed sequences of checked operations on hfl.

Each operation calls one public function of the library and returns
``(actual, expected)``; the expected side is the paper's formula, a pinned
value or a second, independent route to the same number.  A mismatch, an
exception (MemoryError included) or a budget refusal counts as a failed
operation, so an API change shows up as a named failure rather than as a
silent change in the work measured.

Budgets are passed explicitly (``CAP``, ``MAX_ORDER``, ``WORKERS``) so the
work stays fixed when the library's default caps or budget models change.

Run as a script, this module is one benchmark pass in a fresh process:

    PYTHONPATH=src python3 perfbench/workloads.py --workload q4-census-aut \
        --seed 1 --trace 0

It prints one JSON line with the pass's measurements.  ``--setup-only``
stops just before the first operation, which is how set-up time is sampled.

The host's speed swings by tens of percent within seconds and drifts over
minutes, so times are also reported in reference seconds.  While a pass
runs, a fixed pure-stdlib kernel of about 2 ms is timed ten times a second
from a timer signal (``SpeedProbe``); the pass's wall and CPU time, less
the probe's own, are multiplied by ``REF_NOMINAL_S`` over the mean kernel
time.  The kernel runs no hfl code, so a change to hfl moves a scaled time
by the same share as the wall time.
"""

import argparse
import contextlib
import itertools
import json
import os
import random
import resource
import signal
import statistics
import sys
import time

CAP = 10**12
MAX_ORDER = 10**7
WORKERS = 2

GOLDEN_CSV = os.path.join("tests", "golden", "table1_golden.csv")

REF_ITERS = 5_000  # one reference sample: 1.2-2.5 ms on a 2-vCPU Xeon VM
REF_NOMINAL_S = 0.002  # a reference second: the kernel takes exactly this long
REF_EVERY_S = 0.1  # wall time between two samples during a pass

# (moduli, subset sizes k, draws per k) for the seeded abelian-subsets draws;
# k counts the nonzero elements, k <= |G| - 2 so the subset is proper.  Some
# seeds draw a k = 9 subset whose permutation search prunes badly and visits
# most of the 9! orderings (tens of seconds); such draws stay in, so that the
# search's cost shows.
SUBSET_PLAN = (
    ((11,), (6, 7, 8, 9), 2),
    ((13,), (6, 7, 8, 9), 2),
    ((17,), (6, 7, 8, 9), 2),
    ((3, 3), (6, 7), 2),
    ((4, 4), (6, 7, 8, 9), 2),
    ((2, 8), (6, 7, 8, 9), 2),
    ((2, 2, 4), (6, 7, 8, 9), 2),
    # Aut(Z_2^4) is brute-forced in seconds per call, so one draw only
    ((2, 2, 2, 2), (6,), 1),
)


def draw_subsets(seed: int, plan=SUBSET_PLAN):
    """Seeded subset draws: a list of (moduli, sorted nonzero encodings)."""
    rng = random.Random(seed)
    out = []
    for moduli, sizes, draws in plan:
        order = 1
        for m in moduli:
            order *= m
        for k in sizes:
            for _ in range(draws):
                out.append((moduli, tuple(sorted(rng.sample(range(1, order), k)))))
    return out


def read_golden(root: str = ".") -> str:
    with open(os.path.join(root, GOLDEN_CSV), "r", encoding="utf-8", newline="") as fh:
        return fh.read()


# -- operation lists -------------------------------------------------------------


def hermitian_verify_ops(q: int):
    """Everything ``hfl verify --q Q`` checks, at budgets that skip nothing.

    The scan below 2q finding nothing, together with the norm-2q family
    vectors, makes d^2 = 2q exact.
    """
    from hfl import autgrp, hermlat, lattice

    n = q**3 + 1
    fam_total = q * q * (q * q - 1) * (q**3 + 1)
    st = {}

    def build():
        st["hl"] = hermlat.build(q)
        L = st["hl"].L
        return (L.index_in_ambient(), st["hl"].quotient.nontrivial), (
            (q + 1) ** (q * q - q),
            (q + 1,) * (q * q - q),
        )

    def families():
        st["fam"] = fam = hermlat.kissing_families(st["hl"].curve)
        sizes = (len(fam.pair_vertical), len(fam.vertical_slope), len(fam.slope_slope))
        return sizes, (
            q * q * (q * q - 1),
            2 * q**3 * (q * q - 1),
            q**3 * (q * q - 1) * (q * q - 2),
        )

    def family_membership():
        return _families_in_lattice(st["fam"], st["hl"].L, q), ("ok", fam_total)

    def decompose_all():
        curve = st["hl"].curve
        return sum(1 for line in curve.all_lines() if hermlat.decompose_line(curve, line)), (
            q**4 + q * q
        )

    def span_index():
        return hermlat.generated_by_minimals(st["hl"]), 1

    def census():
        st["census"] = found = lattice.census_pm1(st["hl"].L, q, cap=CAP, workers=WORKERS)
        return len(found), fam_total

    def census_contains_families():
        return st["fam"].union() <= set(st["census"]), True

    def scan_below_2q():
        return lattice.scan_short_vectors(st["hl"].L, 2 * q - 2, cap=CAP, workers=WORKERS), []

    def aut_order():
        st["G"] = autgrp.full_group(st["hl"].curve, max_order=MAX_ORDER)
        return st["G"].order, q**3 * (q * q - 1) * (q**3 + 1)

    def aut_stabilizer():
        return autgrp.stabilizer(st["G"], 0).order, q**3 * (q * q - 1)

    def aut_transitive():
        return len(autgrp.orbit_of_index(st["G"], 0)), n

    def aut_fixes_lattice():
        return autgrp.lattice_stable_under(st["G"], st["hl"].L, generators_only=True), True

    def classgroup_kernel():
        # pinned at q = 2 (the action has a kernel of order 9), faithful above
        kernel = autgrp.induced_classgroup_action(st["G"], st["hl"].L).kernel_size
        return kernel, 9 if q == 2 else 1

    steps = [
        build, families, family_membership, decompose_all, span_index, census,
        census_contains_families, scan_below_2q, aut_order, aut_stabilizer,
        aut_transitive, aut_fixes_lattice, classgroup_kernel,
    ]
    return [(f"q{q}.{f.__name__}", f) for f in steps]


def _families_in_lattice(fam, L, q: int):
    """("ok", count) when the families are disjoint, of norm 2q and in L."""
    union = fam.union()
    if len(union) != fam.total:
        return "families overlap", len(union)
    for v in union:
        if sum(x * x for x in v) != 2 * q:
            return f"norm of {v} is not {2 * q}", len(union)
        if not L.member_fast(v):
            return f"{v} outside the lattice", len(union)
    return "ok", len(union)


def build_families_ops(quotient_q: int, family_q: int):
    """The quotient Z_{q+1}^(q^2-q) at quotient_q, then families,
    membership and the decomposition span index at family_q."""
    from hfl import hermlat

    st = {}

    def build_quotient():
        hl = hermlat.build(quotient_q)
        q = quotient_q
        return (hl.L.index_in_ambient(), hl.quotient.nontrivial), (
            (q + 1) ** (q * q - q),
            (q + 1,) * (q * q - q),
        )

    def build():
        st["hl"] = hl = hermlat.build(family_q)
        q = family_q
        return (hl.L.rank, hl.L.index_in_ambient()), (q**3, (q + 1) ** (q * q - q))

    def families():
        q = family_q
        st["fam"] = fam = hermlat.kissing_families(st["hl"].curve)
        return fam.total, q * q * (q * q - 1) * (q**3 + 1)

    def family_membership():
        q = family_q
        return _families_in_lattice(st["fam"], st["hl"].L, q), (
            "ok",
            q * q * (q * q - 1) * (q**3 + 1),
        )

    def span_index():
        return hermlat.generated_by_minimals(st["hl"]), 1

    out = [(f"q{quotient_q}.build_quotient", build_quotient)]
    for f in (build, families, family_membership, span_index):
        out.append((f"q{family_q}.{f.__name__}", f))
    return out


def abelian_ops(golden: str, subsets):
    """The Z_7 catalogue byte for byte, the 62-subset permutation
    correspondence, then one group_subset_payload per drawn subset."""
    from hfl import abelian, cli

    z7 = abelian.AbelianGroup((7,))

    def catalogue_golden():
        return abelian.catalogue_csv(abelian.catalogue()) == golden, True

    def correspondence(gens):
        return lambda: (abelian.check_permutation_correspondence(z7, gens), True)

    def payload(moduli, subset):
        def op():
            got = cli.group_subset_payload(moduli, list(subset), correspondence=True)
            # second route to the index |<S>|: the lattice's own HNF pivots
            G = abelian.AbelianGroup(moduli)
            index = abelian.lattice_for_subset(G, subset).index_in_ambient()
            # The lattice sees only <S>: its coordinate permutations are the
            # subset permutations extending to Aut(<S>), which equal those
            # extending to Aut(G) when S generates G.  Otherwise the lattice
            # may have more, so equality is checked only for generating S.
            generates = got["index"] == G.order
            return (got["index"], got["correspondence"] or not generates), (index, True)

        return op

    out = [("z7.catalogue_golden", catalogue_golden)]
    for k in range(1, 6):
        for gens in itertools.combinations(range(1, 7), k):
            out.append((f"z7.correspondence.{''.join(map(str, gens))}", correspondence(gens)))
    for moduli, subset in subsets:
        name = "x".join(map(str, moduli)) + "." + ",".join(map(str, subset))
        out.append((f"payload.{name}", payload(moduli, subset)))
    return out


WORKLOADS = ("q4-census-aut", "q57-build-families", "abelian-subsets")


def make_ops(workload: str, seed: int):
    """(ops, inputs) for a named workload; inputs is what the seed drew."""
    if workload == "q4-census-aut":
        return hermitian_verify_ops(4), {}
    if workload == "q57-build-families":
        return build_families_ops(7, 5), {}
    if workload == "abelian-subsets":
        subsets = draw_subsets(seed)
        inputs = {"subsets": [[list(m), list(s)] for m, s in subsets]}
        return abelian_ops(read_golden(), subsets), inputs
    raise ValueError(f"unknown workload {workload!r}")


# -- running a pass --------------------------------------------------------------


def reference_kernel_s() -> float:
    """CPU time of a fixed pure-stdlib kernel (integer arithmetic and a
    small dict, about 2 ms).  It allocates nothing the garbage collector
    tracks and stays under a few hundred kB, so it neither triggers a
    collection of the pass's heap nor raises the pass's peak RSS."""
    t0 = time.thread_time()
    acc = 0
    table = {}
    for i in range(REF_ITERS):
        k = (i * 2654435761) & 4095
        table[k] = table.get(k, 0) + ((i ^ acc) % 7)
        acc += i & 7
    return time.thread_time() - t0


def reference_scale(samples) -> float:
    """Factor from wall seconds to reference seconds."""
    return REF_NOMINAL_S / statistics.fmean(samples)


class SpeedProbe:
    """Times the reference kernel every ``REF_EVERY_S`` of wall time while
    a pass runs, from a SIGALRM handler, and keeps the wall and CPU time
    the handler took so that they can be taken off the pass's times.

    Interval timers are not inherited across fork, so census pool workers
    are not interrupted; the samples keep coming while the pass waits on
    them."""

    def __init__(self):
        self.samples = []
        self.spent_wall = self.spent_cpu = 0.0

    def _on_alarm(self, signum, frame):
        w0 = time.perf_counter()
        c0 = time.process_time()
        self.samples.append(reference_kernel_s())
        self.spent_wall += time.perf_counter() - w0
        self.spent_cpu += time.process_time() - c0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:  # a pass shorter than one period
            self._on_alarm(None, None)


def run_ops(ops):
    """Run every operation; return per-op records (name, ok, seconds, result).

    The result is the repr of the actual value, so that traced and untraced
    passes can be compared; a failure carries its reason instead.
    """
    records = []
    for name, fn in ops:
        t0 = time.perf_counter()
        try:
            actual, expected = fn()
        except Exception as exc:  # a failed operation, counted and reported
            rec = {"op": name, "ok": False, "error": f"{type(exc).__name__}: {exc}"[:300]}
        else:
            rec = {"op": name, "ok": actual == expected, "result": repr(actual)[:300]}
            if not rec["ok"]:
                rec["error"] = f"expected {expected!r}"[:300]
        rec["seconds"] = time.perf_counter() - t0
        records.append(rec)
    return records


def _cpu_seconds():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(workload: str, seed: int, traced: bool, trace_path: str | None = None):
    """One pass in this process (run from the repository root): the
    measurements as a dict."""
    import hfl

    ops, inputs = make_ops(workload, seed)
    tr = None
    if traced:
        import tracer

        tr = tracer.Tracer(run_id=f"{workload}-{seed}")
        tr.install()
    # RUSAGE_CHILDREN can report a nonzero ru_maxrss before any worker has
    # run, so only a rise during the operations is a census worker's
    kids_rss0 = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    first_op = time.monotonic()
    # the traced pass is compared with an untraced one by wall time only
    probe = contextlib.nullcontext() if traced else SpeedProbe()
    t0 = time.perf_counter()
    cpu0 = _cpu_seconds()
    try:
        with probe:
            records = run_ops(ops)
    finally:
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        if tr is not None:
            tr.uninstall()
    kids_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "workload": workload,
        "seed": seed,
        "hfl": os.path.dirname(hfl.__file__),
        "inputs": inputs,
        "first_op": first_op,
        "verify_raw_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "worker_peak_rss_mb": kids_rss / 1024 if kids_rss > kids_rss0 else 0.0,
        "ops": records,
    }
    if not traced:
        wall -= probe.spent_wall
        cpu -= probe.spent_cpu
        f = reference_scale(probe.samples)
        out.update(verify_raw_s=wall, cpu_raw_s=cpu, verify_s=wall * f, cpu_s=cpu * f,
                   ref_samples=probe.samples)
    if tr is not None:
        out["layers"] = tr.metrics(out["verify_raw_s"])
        if trace_path:
            tr.write_jsonl(trace_path)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one benchmark pass in this process")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None, help="JSONL file for the spans")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop where the first operation would start")
    args = ap.parse_args(argv)
    if args.setup_only:
        import hfl  # noqa: F401  (set-up covers the import)

        make_ops(args.workload, args.seed)
        print(json.dumps({"first_op": time.monotonic()}))
        return 0
    result = run_pass(args.workload, args.seed, bool(args.trace), args.trace_out)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
