"""Command-line front end.

Exit codes: 0 success, 1 verification mismatch, 2 bad usage or refused
budget, 3 I/O failure, 4 out of memory or an internal defect.  All
artifact output is deterministic: JSON with sorted keys, integers above
2^53 - 1 rendered as decimal strings, and a trailing newline.
Verification reports carry timings and are the one output that is not
byte-stable across runs.
"""

import argparse
import itertools
import json
import os
import resource
import sys
import time
from collections import Counter
from dataclasses import asdict

from . import abelian, autgrp, hermlat, lattice
from .curve import Curve, Slope, Vertical, curve_make
from .errors import (
    BudgetExceededError,
    Error,
    InternalIdentityViolationError,
    LatticeNotStableError,
    SearchInfeasibleError,
)
from .gf import modulus

MAX_SAFE_INT = 2**53 - 1
BUDGET_HINT = "(raise --cap)"  # the flag that lifts a BudgetExceededError

# census sizes confirmed independently (subset-pair brute force for q <= 3,
# the kissing families at q = 4); only pinned values become equality checks
CENSUS_SIZE: dict[int, int] = {2: 108, 3: 2016, 4: 15600}

# size of the kernel of Aut(H) -> Aut(classgroup), confirmed by direct
# computation; for q > 2 the action is faithful
CLASSGROUP_KERNEL: dict[int, int] = {2: 9, 3: 1}


class UsageError(Exception):
    pass


# -- output plumbing --------------------------------------------------------------


def _jsonify(obj):
    """Recursively make obj json-safe; big ints become decimal strings."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (float, str)):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > MAX_SAFE_INT else obj
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_jsonify(x) for x in items]
    return str(obj)


def _render(payload) -> str:
    if isinstance(payload, str):
        return payload
    return json.dumps(_jsonify(payload), indent=2, sort_keys=True) + "\n"


def _emit(payload, out_path):
    """Write the payload to stdout, or to out_path.  A regular file is
    replaced whole through a temporary file beside the one a symlink names,
    so the link stays a link; an existing FIFO, device or other non-regular
    target is written in place, as renaming over it would replace it."""
    text = _render(payload)
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    target = os.path.realpath(out_path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    tmp = f"{target}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except OSError:
        try:
            if os.path.exists(tmp):
                os.unlink(tmp)
        except OSError:
            pass
        raise


def _positive_int(text: str) -> int:
    """A budget, from --cap: a positive integer."""
    try:
        val = int(text)
    except ValueError:
        val = 0
    if val <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return val


# -- payload builders -------------------------------------------------------------


def _line_str(line) -> str:
    if isinstance(line, Vertical):
        return f"x-c:c={line.c}"
    return f"y+bx+c:b={line.b},c={line.c}"


def parse_line_spec(spec: str):
    """Parse "x-c:c=3" or "y+bx+c:b=1,c=2" into a line object.

    Coefficients are field-element encodings, validated downstream.
    """
    head, sep, tail = spec.partition(":")
    head = head.replace(" ", "")
    if not sep:
        raise UsageError(f"line spec needs ':<params>': {spec!r}")
    params = {}
    for piece in tail.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, eq, val = piece.partition("=")
        key = key.strip()
        if not eq:
            raise UsageError(f"bad parameter {piece!r} in line spec")
        if key in params:
            raise UsageError(f"parameter {key!r} repeated in line spec")
        try:
            params[key] = int(val)
        except ValueError:
            raise UsageError(f"parameter {key!r} must be an integer")
    if head == "x-c":
        if set(params) != {"c"}:
            raise UsageError("vertical line spec takes exactly c=<enc>")
        return Vertical(params["c"])
    if head == "y+bx+c":
        if set(params) != {"b", "c"}:
            raise UsageError("slope line spec takes exactly b=<enc>,c=<enc>")
        return Slope(params["b"], params["c"])
    raise UsageError(f"unknown line form {head!r}; use x-c or y+bx+c")


def field_payload(p: int, k: int):
    return {
        "p": p,
        "k": k,
        "order": p**k,
        "modulus_coeffs": list(modulus(p, k)),
    }


def places_payload(curve: Curve):
    recs = [{"index": 0, "at_infinity": True}]
    for i, (a, b) in enumerate(curve.places[1:], start=1):
        recs.append({"index": i, "x": a, "y": b})
    return {"q": curve.q, "n": curve.n, "genus": curve.genus, "places": recs}


def lines_payload(curve: Curve):
    recs = []
    for i, line in enumerate(curve.all_lines()):
        kind = "vertical" if isinstance(line, Vertical) else "slope"
        recs.append({"index": i, "tangent": curve.is_tangent(line), "kind": kind, **line._asdict()})
    return {"q": curve.q, "count": len(recs), "lines": recs}


def lattice_payload(hl: hermlat.HermitianLattice):
    index, radicand = hl.L.determinant()
    return {
        "n": hl.L.n,
        "rank": hl.L.rank,
        "basis": [list(r) for r in hl.L.rows],
        "elementary_divisors": list(hl.quotient.divisors),
        "det": {"index": index, "radicand": radicand},
    }


def census_payload(hl: hermlat.HermitianLattice, cap: int | None):
    vectors = lattice.census_pm1(hl.L, hl.curve.q, cap=cap)
    return {
        "q": hl.curve.q,
        "count": len(vectors),
        "vectors": [list(v) for v in vectors],
    }


def decompose_payload(curve: Curve, line, beta=None):
    steps = hermlat.decompose_line(curve, line, beta=beta)
    return {
        "q": curve.q,
        "line": _line_str(line),
        "divisor": list(curve.divisor_of_line(line)),
        "steps": [
            {
                "sign": s.sign,
                "tag": s.tag,
                "numerator": _line_str(s.numerator),
                "denominator": _line_str(s.denominator),
                "vector": list(curve.pair_vector(s.numerator, s.denominator)),
            }
            for s in steps
        ],
        "verified": True,
    }


def aut_payload(curve: Curve):
    group, action = _aut_facts(hermlat.HermitianLattice(curve))
    try:
        injective = action().injective
    except LatticeNotStableError:
        injective = None
    return {
        "order": group().order,
        "stabilizer_order": autgrp.stabilizer(group(), 0).order,
        "orbit_sizes": _orbit_sizes(group(), curve.n),
        "lattice_check": injective is not None,
        "classgroup_injective": injective,
    }


def _orbit_sizes(group, n: int):
    seen = set()
    sizes = []
    for i in range(n):
        if i in seen:
            continue
        orb = autgrp.orbit_of_index(group, i)
        seen |= orb
        sizes.append(len(orb))
    return sorted(sizes, reverse=True)


def group_subset_payload(moduli, subset, correspondence: bool = True):
    G = abelian.AbelianGroup(tuple(moduli))
    L = abelian.lattice_for_subset(G, subset)
    minvecs = lattice.minimal_vectors(L)
    perms = abelian.extendable_subset_perms(G, subset)
    d2 = sum(x * x for x in minvecs[0])
    index = lattice.generated_by_minimals_index(L, minvecs)  # 0: rank-deficient span
    payload = {
        "moduli": list(G.moduli),
        "subset": list(subset),
        "n": L.n,
        "rank": L.rank,
        "index": abelian.subset_index_in_ambient(G, subset),
        "d_squared": d2,
        "minimal_count": len(minvecs),
        "well_rounded": index != 0,
        "gen_by_min_index": index,
        "subset_aut_count": len(perms),
    }
    if correspondence:
        payload["correspondence"] = abelian.perms_correspond(L, perms)
    return payload


# -- verification -----------------------------------------------------------------


class Check:
    def __init__(self, check_id, tag, expected, fn):
        self.check_id = check_id
        self.tag = tag  # formula | pinned
        self.expected = expected
        self.fn = fn


def run_checks(checks):
    """Run each check once; its status follows one rule.  PASS or FAIL
    compares its value with the expected one; a budget refusal
    (BudgetExceededError, SearchInfeasibleError) is SKIP; any other
    hfl.errors.Error is FAIL with the error as `reason`.  A blown budget's
    reason ends with BUDGET_HINT; no flag lifts a SearchInfeasibleError.
    An internal defect and MemoryError end the run.  Each status goes to
    stderr as its check ends."""
    records = []
    counts = Counter()
    t_all = time.perf_counter()
    for c in checks:
        t0 = time.perf_counter()
        rec = {"check_id": c.check_id, "tag": c.tag, "expected": c.expected}
        try:
            rec["actual"] = c.fn()
        except (BudgetExceededError, SearchInfeasibleError) as e:
            rec["skipped"] = True
            rec["reason"] = f"{e} {BUDGET_HINT}" if isinstance(e, BudgetExceededError) else str(e)
        except InternalIdentityViolationError:
            raise
        except Error as e:
            rec["pass"] = False
            rec["reason"] = str(e)
        else:
            rec["pass"] = rec["actual"] == c.expected
        status = "SKIP" if rec.get("skipped") else "PASS" if rec["pass"] else "FAIL"
        counts[status] += 1
        rec["seconds"] = round(time.perf_counter() - t0, 6)
        records.append(rec)
        detail = rec["reason"] if "reason" in rec else f"expected {c.expected}, got {rec['actual']}"
        print(f"[{status}] {c.check_id}: {detail} ({rec['seconds']:.2f}s)", file=sys.stderr)
    return {
        "checks": records,
        "pass": counts["FAIL"] == 0,
        "counts": {"passed": counts["PASS"], "failed": counts["FAIL"], "skipped": counts["SKIP"]},
        "seconds": round(time.perf_counter() - t_all, 6),
    }


def _once(fn):
    """fn() computed on the first call and returned on every call.  A
    refusal (any hfl.errors.Error that fn raises) is kept and raised again
    on every later call, so each fact of a run is computed at most once,
    refused or not."""
    kept = []

    def get():
        if not kept:
            try:
                kept.append(fn())
            except Error as e:
                kept.append(e)
        if isinstance(kept[0], Error):
            raise kept[0]
        return kept[0]

    return get


def herm_checks(hl: hermlat.HermitianLattice, cap: int | None):
    curve = hl.curve
    q, n = curve.q, curve.n
    index = (q + 1) ** (q * q - q)
    families = _once(lambda: hermlat.unital_families(curve))

    def families_valid():
        # a 2-design gives the family vectors norm^2 2q and makes them distinct;
        # L is a group, so each lies in L once every line divisor does
        if not families()[1]:
            return "blocks not a 2-design"
        return "line divisor outside lattice" if hl.lines_outside else "ok"

    # d^2 = 2q forces every entry into {-1, 0, 1} and deg f = q, so Min(L)
    # is exactly the +-1 census and census_size is the kissing number
    census = _once(lambda: lattice.census_pm1(hl.L, q, cap=cap))

    def census_superset():
        found = set(census())  # a refused census streams no family vector
        return all(curve.pair_vector(u, v) in found for _, u, v in hermlat.family_pairs(curve))

    family_sizes = {
        "pair_vertical": q * q * (q * q - 1),
        "vertical_slope": 2 * q**3 * (q * q - 1),
        "slope_slope": q**3 * (q * q - 1) * (q * q - 2),
        "total": q * q * (q * q - 1) * (q**3 + 1),
    }
    checks = [
        Check("places", "formula", q**3 + 1, lambda: n),
        Check("rank", "formula", n - 1, lambda: hl.L.rank),
        Check("index", "formula", index, hl.L.index_in_ambient),
        Check("quotient", "formula", [q + 1] * (q * q - q), lambda: list(hl.quotient.nontrivial)),
        Check("det", "formula", {"index": index, "radicand": n},
              lambda: dict(zip(("index", "radicand"), hl.L.determinant()))),
        Check("tangent_count", "formula", q**3,
              lambda: sum(map(curve.is_tangent, curve.all_lines()))),
        Check("family_sizes", "formula", family_sizes, lambda: families()[0]),
        Check("family_membership", "formula", "ok", families_valid),
        Check("decompose_all_lines", "formula", q**4 + q * q, lambda: hl.lines_decomposed),
        Check("minimal_step_span", "formula", 1, lambda: hermlat.generated_by_minimals(hl)),
        Check("min_distance", "formula", 2 * q, lambda: hermlat.min_distance(hl)),
        Check("census_contains_families", "formula", True, census_superset),
    ]
    if q in CENSUS_SIZE:
        checks.append(Check("census_size", "pinned", CENSUS_SIZE[q], lambda: len(census())))
    return checks


def _aut_facts(hl: hermlat.HermitianLattice):
    """The `group` and `action` memos of one run: Aut(H) as a chain, and
    its induced action on the class group A_{n-1}/L.  The action re-checks
    that every generator fixes L and is refused with LatticeNotStableError
    when one moves it, so stability is read from it: one stability pass
    per run."""
    group = _once(lambda: autgrp.full_group(hl.curve))
    action = _once(lambda: autgrp.induced_classgroup_action(group(), hl.L))
    return group, action


def aut_checks(hl: hermlat.HermitianLattice):
    curve = hl.curve
    q = curve.q
    stab_order = q**3 * (q * q - 1)
    group, action = _aut_facts(hl)
    checks = [
        Check("aut_order", "formula", stab_order * curve.n, lambda: group().order),
        Check("aut_stabilizer", "formula", stab_order, lambda: autgrp.stabilizer(group(), 0).order),
        Check("aut_transitive", "formula", curve.n, lambda: len(autgrp.orbit_of_index(group(), 0))),
        Check("aut_fixes_lattice", "formula", True, lambda: action() is not None),
    ]

    def kernel():
        return action().kernel_size

    if q in CLASSGROUP_KERNEL:
        checks.append(Check("classgroup_kernel", "pinned", CLASSGROUP_KERNEL[q], kernel))
    else:
        checks.append(Check("classgroup_kernel", "formula", 1, kernel))
    return checks


def group_checks(moduli, table1=False, golden_path=None):
    if tuple(moduli) != (7,):
        raise UsageError("the reference catalogue is defined for --group 7")
    if golden_path is not None and not table1:
        raise UsageError("--golden needs --table1")

    # the catalogue is built once per run; the CSV is derived from its rows
    rows = _once(abelian.catalogue)
    checks = []
    if table1:
        checks += [
            Check("catalogue_rows", "formula", 62, lambda: len(rows())),
            Check("catalogue_wr_rows", "pinned", 26, lambda: sum(r.well_rounded for r in rows())),
        ]
        if golden_path is not None:
            with open(golden_path, "r", encoding="utf-8", newline="") as fh:
                golden = fh.read()
            checks.append(Check("catalogue_golden", "pinned", True,
                                lambda: abelian.catalogue_csv(rows()) == golden))

    def correspondence_all():
        G = abelian.AbelianGroup((7,))
        for k in range(1, 6):
            for gens in itertools.combinations(range(1, 7), k):
                if not abelian.check_permutation_correspondence(G, gens):
                    return f"mismatch at {gens}"
        return "ok"

    checks.append(Check("perm_correspondence", "formula", "ok", correspondence_all))
    return checks


# -- command handlers -------------------------------------------------------------


def cmd_field(args):
    if args.q is not None:
        _refuse(args, "field --q", "p", "k")
        curve = curve_make(args.q)  # validates q
        F = curve.field
        payload = field_payload(F.p, F.k)
        payload["q"] = args.q
        payload["zeta_q_plus_1"] = curve.zeta
    else:
        if args.p is None or args.k is None:
            raise UsageError("field needs --q or both --p and --k")
        payload = field_payload(args.p, args.k)
    _emit(payload, args.out)
    return 0


def cmd_herm_decompose(args):
    curve = curve_make(args.q)
    line = parse_line_spec(args.line)
    _emit(decompose_payload(curve, line, beta=args.beta), args.out)  # a bad beta: ValueError, exit 2
    return 0


def cmd_group_ls(args):
    moduli = args.moduli
    if args.subset is None:
        if tuple(moduli) != (7,):
            raise UsageError("listing every subset is supported for --moduli 7 only")
        payload = {"moduli": [7], "rows": [asdict(r) for r in abelian.catalogue()]}
    else:
        payload = group_subset_payload(moduli, args.subset)
    _emit(payload, args.out)
    return 0


def _refuse(args, path, *flags):
    """Refuse, rather than ignore, a flag that path never reads: any of
    flags whose value is not None."""
    for flag in flags:
        if getattr(args, flag, None) is not None:
            raise UsageError(f"{path} does not read --{flag}")


def _export_curve(args):
    if args.q is None:
        raise UsageError(f"export --kind {args.kind} needs --q")
    return curve_make(args.q)


def _export_census(args):
    return census_payload(hermlat.HermitianLattice(_export_curve(args)), cap=args.cap)


# every export kind and its payload builder
EXPORTS = {
    "places": lambda args: places_payload(_export_curve(args)),
    "lines": lambda args: lines_payload(_export_curve(args)),
    "lattice": lambda args: lattice_payload(hermlat.HermitianLattice(_export_curve(args))),
    "census": _export_census,
    "table1": lambda args: abelian.catalogue_csv(abelian.catalogue()),
    "aut": lambda args: aut_payload(_export_curve(args)),
}


def cmd_export(args):
    if args.kind != "census":
        _refuse(args, f"export --kind {args.kind}", "cap")
    if args.kind == "table1":
        _refuse(args, "export --kind table1", "q")
    _emit(EXPORTS[args.kind](args), args.out)
    return 0


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB.

    VmHWM in /proc/self/status starts afresh at exec; ru_maxrss, the
    fallback where that file is absent, carries on Linux the peak of the
    process that forked this one.
    """
    try:
        with open("/proc/self/status") as status:
            kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":  # reported in bytes there
            kib //= 1024
    return round(kib / 1024, 1)


def cmd_verify(args):
    if args.group is not None:
        _refuse(args, "verify --group", "q", "cap")
        report = run_checks(group_checks(args.group, table1=args.table1, golden_path=args.golden))
        report["target"] = "group " + "x".join(str(m) for m in args.group)
    elif args.q is not None:
        _refuse(args, "verify --q", "table1", "golden")
        t0 = time.perf_counter()
        hl = hermlat.build(args.q)
        build_seconds = round(time.perf_counter() - t0, 6)
        report = run_checks(herm_checks(hl, cap=args.cap) + aut_checks(hl))
        report["target"] = f"herm q={args.q}"
        report["build_seconds"] = build_seconds
        report["peak_rss_mb"] = _peak_rss_mb()
    else:
        raise UsageError("verify needs --q or --group")
    _emit(report, args.out)
    return 0 if report["pass"] else 1


# -- parser -----------------------------------------------------------------------


def _int_list(text: str):
    try:
        vals = [int(x) for x in text.replace(" ", "").split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return vals


def _add_out(p):
    p.add_argument("--out", help="write to this path (atomic); default stdout")


def _add_budget(p):
    p.add_argument("--cap", type=_positive_int, help="enumeration budget override")


def build_parser():
    top = argparse.ArgumentParser(
        prog="hfl",
        description="Exact lattices from Hermitian curves and finite abelian groups.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="coefficient field data")
    p.add_argument("--q", type=int, help="curve parameter; uses GF(q^2)")
    p.add_argument("--p", type=int, help="characteristic")
    p.add_argument("--k", type=int, help="extension degree")
    _add_out(p)
    p.set_defaults(fn=cmd_field)

    herm = sub.add_parser("herm", help="Hermitian-curve lattice commands")
    hs = herm.add_subparsers(dest="herm_command", required=True)

    p = hs.add_parser("decompose", help="split a line divisor into minimal vectors")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--line", required=True, help='"x-c:c=0" or "y+bx+c:b=0,c=0"')
    p.add_argument("--beta", type=int, help="chart choice for non-tangent slopes")
    _add_out(p)
    p.set_defaults(fn=cmd_herm_decompose)

    grp = sub.add_parser("group", help="abelian subset lattice commands")
    gs = grp.add_subparsers(dest="group_command", required=True)

    p = gs.add_parser("ls", help="subset lattice data")
    p.add_argument("--moduli", type=_int_list, required=True, help="e.g. 7 or 3,3")
    p.add_argument("--subset", type=_int_list, help="nonzero element encodings")
    _add_out(p)
    p.set_defaults(fn=cmd_group_ls)

    p = sub.add_parser("export", help="deterministic artifacts")
    p.add_argument("--kind", required=True, choices=list(EXPORTS))
    p.add_argument("--q", type=int)
    _add_budget(p)
    _add_out(p)
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("verify", help="full verification report")
    p.add_argument("--q", type=int)
    p.add_argument("--group", type=_int_list, help="moduli, e.g. 7")
    p.add_argument("--table1", action="store_true", default=None,  # None unless given
                   help="(with --group) catalogue checks")
    p.add_argument("--golden", help="CSV file the catalogue must match byte for byte")
    _add_budget(p)
    _add_out(p)
    p.set_defaults(fn=cmd_verify)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceededError as e:
        print(f"hfl: {e} {BUDGET_HINT}", file=sys.stderr)
        return 2
    except InternalIdentityViolationError as e:
        print(f"hfl: internal defect: {e}", file=sys.stderr)
        return 4
    except (UsageError, Error, ValueError) as e:  # every deliberate refusal
        print(f"hfl: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"hfl: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        print("hfl: out of memory", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
