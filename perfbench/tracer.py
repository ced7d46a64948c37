"""Per-layer spans for a traced benchmark pass, recorded from outside hfl.

``Tracer.install`` replaces the functions and methods named in ``TARGETS``
with timing wrappers, both in every ``hfl`` module dict that holds them and
on their classes, so calls from inside a module (through its globals) and
``from``-imported names are caught too.  ``uninstall`` puts every original
back.

A span is (id, name, start, end, parent id, run id).  Spans are kept in
memory and written as JSONL at the end; past ``SPAN_RECORD_LIMIT`` spans
of one name the calls are still counted and timed but their records are
dropped (the JSONL summary says how many), so a hot function cannot
inflate the traced pass's memory.  Self time is a span's duration minus
the time covered by its direct children, computed exactly for every call.

Census pool workers run in other processes and are not traced: spans stop
at ``lattice.census_pm1``.
"""

import functools
import importlib
import json
import resource
import time

SPAN_RECORD_LIMIT = 2000

MODULES = ("gf", "curve", "intmat", "lattice", "hermlat", "autgrp", "abelian", "cli")


def _count(key, fn):
    """A counter hook adding fn(args, kwargs, result) under `key`."""

    def hook(tr, name, args, kwargs, result):
        tr.add(name, key, fn(args, kwargs, result))

    return hook


def _hnf_hooks():
    def rows_in(tr, name, args, kwargs, result):
        rows = args[0] if args else kwargs["vectors"]
        if hasattr(rows, "__len__"):  # a consumed iterator cannot be counted
            tr.add(name, "rows_in", len(rows))

    def bits(tr, name, args, kwargs, result):
        rows, _ = result
        tr.peak(name, "max_entry_bits", max((abs(x).bit_length() for r in rows for x in r),
                                            default=0))

    return (rows_in, bits)


def _census_hooks():
    from math import comb

    def model(tr, name, args, kwargs, result):
        L, q = args[0], args[1]
        tr.add(name, "supports", comb(L.n, q))
        tr.add(name, "pairs_modeled", comb(L.n, q) * comb(L.n - q, q))
        tr.add(name, "vectors", len(result))

    return (model,)


def _under(ancestor, key, fn=lambda args, kwargs, result: 1):
    """Count into `ancestor`'s `key` while a span of `ancestor` is open."""

    def hook(tr, name, args, kwargs, result):
        if tr.depth.get(ancestor):
            tr.add(ancestor, key, fn(args, kwargs, result))

    return hook


def _groups_seen(tr, name, args, kwargs, result):
    tr.distinct.setdefault(name, set()).add(args[0].moduli)


# (module, attribute path, span name or None for "<module>.<path>",
#  keep the rise of ru_maxrss, counter hooks)
TARGETS = (
    ("gf", "field_make", None, False, ()),
    ("curve", "Curve.__init__", "curve.Curve", False, ()),
    ("curve", "Curve.divisor_of_line", None, False, ()),
    ("intmat", "echelon", None, False, ()),
    ("intmat", "hnf", None, False, _hnf_hooks()),
    ("intmat", "smith_normal_form", None, False,
     (_count("unit_divisors", lambda a, k, r: sum(1 for d in r[0] if d == 1)),)),
    ("intmat", "left_kernel", None, False, ()),
    ("lattice", "Lattice.from_generators", None, False, ()),
    ("lattice", "Lattice.quotient", None, False, ()),
    ("lattice", "Lattice.member_fast", None, False,
     (_under("lattice.scan_short_vectors", "placements"),)),
    ("lattice", "census_pm1", None, True, _census_hooks()),
    ("lattice", "scan_short_vectors", None, False, ()),
    ("lattice", "enumerate_short_vectors", None, False,
     (_count("vectors", lambda a, k, r: len(r)),)),
    ("lattice", "permutation_automorphisms", None, False,
     (_count("found", lambda a, k, r: len(r)),)),
    ("lattice", "generated_by_minimals_index", None, False,
     (_under("hermlat.generated_by_minimals", "vectors_in", lambda a, k, r: len(a[1])),)),
    ("hermlat", "HermitianLattice.__init__", "hermlat.HermitianLattice", False, ()),
    ("hermlat", "kissing_families", None, True,
     (_count("vectors", lambda a, k, r: r.total),)),
    ("hermlat", "decompose_line", None, False, (_count("steps", lambda a, k, r: len(r)),)),
    ("hermlat", "minimal_pair_vector", None, False, ()),
    ("hermlat", "generated_by_minimals", None, False, ()),
    ("autgrp", "closure", None, True, (_count("elements", lambda a, k, r: r.order),)),
    ("autgrp", "full_group", None, False, ()),
    ("autgrp", "stabilizer", None, False, ()),
    ("autgrp", "orbit_of_index", None, False, ()),
    ("autgrp", "lattice_stable_under", None, False, ()),
    ("autgrp", "induced_classgroup_action", None, True,
     (_count("elements", lambda a, k, r: len(r.matrices)),)),
    ("abelian", "AbelianGroup.automorphisms", None, False, (_groups_seen,)),
    ("abelian", "lattice_for_subset", None, False, ()),
    ("abelian", "extendable_subset_perms", None, False, ()),
    ("abelian", "check_permutation_correspondence", None, False, ()),
    ("abelian", "catalogue", None, False, ()),
    ("cli", "group_subset_payload", None, False, ()),
)


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Span recorder and the wrappers that feed it; single-threaded."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (id, name, start, end, parent id)
        self.stack = []  # open frames: [id, name, start, child time, rss at entry]
        self.depth = {}  # name -> open spans of that name
        self.stats = {}  # name -> {"calls", "busy_s", "self_s", counters...}
        self.dropped = {}
        self.distinct = {}  # name -> distinct argument keys (repeat ratios)
        self._next_id = 1
        self._saved = []  # (owner, attribute, original) for uninstall

    # -- recording ----------------------------------------------------------

    def add(self, name, key, k):
        st = self.stats[name]
        st[key] = st.get(key, 0) + k

    def peak(self, name, key, v):
        st = self.stats[name]
        st[key] = max(st.get(key, 0), v)

    def _enter(self, name, rss):
        sid = self._next_id
        self._next_id += 1
        self.depth[name] = self.depth.get(name, 0) + 1
        frame = [sid, name, 0.0, 0.0, _maxrss_mb() if rss else None]
        self.stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        sid, name, start, child, rss0 = frame
        self.stack.pop()
        dur = end - start
        depth = self.depth[name] - 1
        self.depth[name] = depth
        st = self.stats[name]
        st["calls"] += 1
        st["self_s"] += dur - child
        if depth == 0:  # inclusive time counts the outermost span only
            st["busy_s"] += dur
        if rss0 is not None:
            st["rss_rise_mb"] = st.get("rss_rise_mb", 0.0) + _maxrss_mb() - rss0
        parent = None
        if self.stack:
            self.stack[-1][3] += dur
            parent = self.stack[-1][0]
        if st["calls"] <= SPAN_RECORD_LIMIT:
            self.spans.append((sid, name, start, end, parent))
        else:
            self.dropped[name] = self.dropped.get(name, 0) + 1

    def wrap(self, name, fn, rss, hooks):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name, rss)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            for hook in hooks:
                hook(self, name, args, kwargs, result)
            return result

        return traced

    # -- installing the wrappers ----------------------------------------------

    def install(self):
        """Wrap every target; raise if one is missing (an API change)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"hfl.{m}") for m in MODULES}
        everywhere = [importlib.import_module("hfl")] + list(mods.values())
        try:
            for mod_name, path, span_name, rss, hooks in TARGETS:
                name = span_name or f"{mod_name}.{path}"
                self.stats[name] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
                owner = mods[mod_name]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                if cls_path:
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(name, raw.__func__, rss, hooks))
                    else:
                        new = self.wrap(name, raw, rss, hooks)
                    self._replace(owner, attr, raw, new)
                    continue
                original = getattr(owner, attr)
                wrapped = self.wrap(name, original, rss, hooks)
                for mod in everywhere:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, original, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def _replace(self, owner, attr, original, new):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def metrics(self, traced_verify_s: float):
        """Flat per-layer metrics: <span>.<measure>, <module>.self_s and
        the bench.* accounting of the traced wall time."""
        out = {}
        module_self = {m: 0.0 for m in MODULES}
        for name, st in self.stats.items():
            for key, v in st.items():
                out[f"{name}.{key}"] = v
            module_self[name.split(".", 1)[0]] += st["self_s"]
        for name, seen in self.distinct.items():
            out[f"{name}.repeat_ratio"] = self.stats[name]["calls"] / len(seen)
        census = self.stats.get("lattice.census_pm1", {})
        if census.get("pairs_modeled"):
            out["lattice.census_pm1.hit_ratio"] = census["vectors"] / census["pairs_modeled"]
        for m, v in module_self.items():
            out[f"{m}.self_s"] = v
        covered = sum(module_self.values())
        out["bench.traced_verify_s"] = traced_verify_s
        out["bench.uncovered_s"] = traced_verify_s - covered
        return out

    def write_jsonl(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")
            fh.write(json.dumps({
                "run": self.run_id,
                "summary": self.stats,
                "dropped_spans": self.dropped,
                "note": "census pool workers are separate processes and not traced; "
                        "spans stop at lattice.census_pm1",
            }, sort_keys=True) + "\n")
