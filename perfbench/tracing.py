"""Layer-boundary tracing for the benchmark's traced pass.

`Tracer.install()` replaces public functions of `hecke5.*` with wrappers, in
this process only and without touching the sources.  A function is replaced
at every module attribute that holds it (`from .quotients import
build_quotient` makes `congruence.build_quotient` such an attribute), so calls
from one module into another are seen wherever they come from.  A name that
no longer exists is skipped and its metrics are left out.

Spans carry an id, the id of the enclosing span, the job they ran in, their
duration and their self time (duration minus the spans directly inside).
`QuotientGroup.mult` and `Modulus.reduce_pair` are counted, not spanned:
they run millions of times per job.
"""

from __future__ import annotations

import inspect
import itertools
import json
import random
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import workloads

# (span name, module, attribute): timed spans
SPANS = [
    ("hecke_matrices.decompose", "hecke_matrices", "decompose"),
    ("hecke_matrices.eval_word", "hecke_matrices", "eval_word"),
    ("farey.parse_hfs", "farey", "parse_hfs"),
    ("farey.side_pairing", "farey", "side_pairing"),
    ("closure.generated_closure", "closure", "generated_closure"),
    ("closure.normal_closure", "closure", "normal_closure"),
    ("quotients.build_quotient", "quotients", "build_quotient"),
    ("quotients.subgroup_closure", "quotients", "subgroup_closure"),
    ("quotients.normal_closure", "quotients", "normal_closure"),
    ("quotients.kernel_subgroup", "quotients", "kernel_subgroup"),
    ("quotients.order_histogram", "quotients", "QuotientGroup.order_histogram"),
    ("congruence.coset_table", "congruence", "coset_table"),
    ("congruence.is_congruence", "congruence", "is_congruence"),
    ("congruence.algebraic_level", "congruence", "algebraic_level"),
    ("congruence.schreier_generators", "congruence", "schreier_generators"),
    ("congruence.enumerate_index", "congruence", "enumerate_index"),
    ("congruence.is_normal_table", "congruence", "is_normal_table"),
    ("modular_oracle.build_sl2_quotient", "modular_oracle", "build_sl2_quotient"),
    ("modular_oracle.reduction_kernel_order", "modular_oracle",
     "reduction_kernel_order"),
    ("modular_oracle.check_lemma_d1", "modular_oracle", "check_lemma_d1"),
    ("modular_oracle.check_lemma_d2", "modular_oracle", "check_lemma_d2"),
    ("modular_oracle.d2_closure_order", "modular_oracle", "d2_closure_order"),
    ("modular_oracle.check_wohlfahrt_instance", "modular_oracle",
     "check_wohlfahrt_instance"),
    ("verify.run_check", "verify", "run_check"),
]

# (counter name, module, attribute): call counts only
COUNTS = [
    ("golden_ring.reduce_pair", "golden_ring", "Modulus.reduce_pair"),
    ("quotients.mult", "quotients", "QuotientGroup.mult"),
]


def _proc_io() -> dict[str, int]:
    try:
        with open("/proc/self/io") as fh:
            return {k: int(v) for k, v in (line.split(": ") for line in fh)}
    except OSError:
        return {}


def _cache_listing(cache_dir) -> set[str]:
    p = Path(cache_dir)
    return {f.name for f in p.iterdir()} if p.is_dir() else set()


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, name, job, dur, self, info)
        self.counts: dict[str, itertools.count] = {}
        self.job = ""
        self.installed: set[str] = set()
        self._stack: list[list] = []   # [id, child time]
        self._ids = itertools.count(1)
        self._restore: list[tuple] = []
        self.built: set = set()   # (modulus, projective) built so far

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, mod, attr in SPANS:
            self._replace(name, mod, attr, self._span_wrapper)
        for name, mod, attr in COUNTS:
            self._replace(name, mod, attr, self._count_wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _replace(self, name, mod, attr, make) -> None:
        module = sys.modules.get(f"hecke5.{mod}")
        owner, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner, None) if owner else module
        orig = getattr(owner, fn_name, None)
        if orig is None:
            return
        wrapper = make(name, orig)
        if owner is module:
            # every hecke5 module attribute bound to the same function
            for m_name, m in list(sys.modules.items()):
                if m_name.startswith("hecke5"):
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._restore.append((m, key, orig))
                            setattr(m, key, wrapper)
        else:
            self._restore.append((owner, fn_name, orig))
            setattr(owner, fn_name, wrapper)
        self.installed.add(name)

    def _count_wrapper(self, name, orig):
        counter = self.counts[name] = itertools.count()
        tick = counter.__next__

        def wrapper(*args, **kwargs):
            tick()
            return orig(*args, **kwargs)
        return wrapper

    def _span_wrapper(self, name, orig):
        before_hook, after_hook = BEFORE.get(name), AFTER.get(name)
        sig = inspect.signature(orig) if after_hook else None
        stack, spans, ids = self._stack, self.spans, self._ids
        tracer = self

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            bound = sig.bind(*args, **kwargs) if sig else None
            if bound:
                bound.apply_defaults()
            before = before_hook(bound.arguments) if before_hook else None
            frame = [sid, 0.0]
            stack.append(frame)
            raised, result = None, None
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                return result
            except BaseException as exc:
                raised = type(exc).__name__
                raise
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                info = {"raised": raised} if raised else {}
                if after_hook and result is not None:
                    info.update(after_hook(tracer, bound.arguments, result,
                                           before))
                spans.append((sid, parent, name, tracer.job, dur,
                              dur - frame[1], info or None))
        return wrapper

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "name", "job", "s", "self_s", "info")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# -- per-span hooks: counts taken from arguments and results ------------------


def _before_build(args):
    cache_dir = args.get("cache_dir")
    if cache_dir is None:
        return None
    return _cache_listing(cache_dir), _proc_io()


def _after_build(tracer, args, q, before):
    """Disk-cache hit or miss, its bytes, and elements of a first build."""
    info = {}
    if before is not None:
        listing, io_before = before
        new = _cache_listing(args["cache_dir"]) - listing
        if new:
            info["cache"] = "miss"
            info["bytes"] = sum((Path(args["cache_dir"]) / n).stat().st_size
                                for n in new)
        else:
            info["cache"] = "hit"
            io_after = _proc_io()
            if io_before and io_after:
                info["bytes"] = io_after["rchar"] - io_before["rchar"]
    key = (args.get("modulus"), args.get("projective"))
    if info.get("cache") != "hit" and key not in tracer.built:
        tracer.built.add(key)
        if q.elements is not None:
            info["elements_built"] = len(q.elements)
    return info


AFTER = {
    "closure.generated_closure": lambda t, a, r, b: {"elements": len(r)},
    "closure.normal_closure": lambda t, a, r, b: {"elements": len(r)},
    "quotients.build_quotient": _after_build,
    "quotients.kernel_subgroup":
        lambda t, a, r, b: {"elements_scanned": len(a["q"].elements)},
    "congruence.coset_table": lambda t, a, r, b: {"cosets": r.degree},
    "hecke_matrices.eval_word":
        lambda t, a, r, b: {"letters": sum(abs(e) for _, e in a["w"].letters)},
    "congruence.schreier_generators": lambda t, a, r, b: {"n": len(r)},
    "congruence.enumerate_index": lambda t, a, r, b: {"n": len(r)},
    "verify.run_check":
        lambda t, a, r, b: {"failed": sum(1 for x in r if not x.passed)},
}
BEFORE = {"quotients.build_quotient": _before_build}


# -- aggregation ---------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}

    def ancestors(span):
        parent = span[1]
        while parent in by_id:
            yield by_id[parent]
            parent = by_id[parent][1]

    def under(span, prefix):
        return any(a[2].startswith(prefix) for a in ancestors(span))

    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)   # outermost spans of a name only
    self_s: defaultdict = defaultdict(float)
    info_sum: defaultdict = defaultdict(int)
    for span in spans:
        _, _, name, _, dur, own, info = span
        calls[name] += 1
        self_s[name] += own
        if not any(a[2] == name for a in ancestors(span)):
            total[name] += dur
        for k, v in (info or {}).items():
            if isinstance(v, (int, float)):
                info_sum[name, k] += v

    out: dict[str, float] = {}
    have = tracer.installed

    for name, counter in tracer.counts.items():
        out[f"{name}.calls"] = next(counter)  # calls so far, then one more

    for name, _, _ in SPANS:
        if name in have and not name.startswith("modular_oracle."):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]

    if "quotients.build_quotient" in have:
        built = [s for s in spans if s[2] == "quotients.build_quotient"
                 and s[6] and "elements_built" in s[6]]
        elements = sum(s[6]["elements_built"] for s in built)
        build_s = sum(s[4] for s in built)
        out["quotients.build_quotient.elements_built"] = elements
        out["quotients.build_quotient.elements_per_s"] = (
            elements / build_s if build_s else 0.0)
        cached = [s for s in spans if s[2] == "quotients.build_quotient"
                  and s[6] and "cache" in s[6]]
        hits = [s for s in cached if s[6]["cache"] == "hit"]
        misses = [s for s in cached if s[6]["cache"] == "miss"]
        out["quotients.cache.hits"] = len(hits)
        out["quotients.cache.misses"] = len(misses)
        out["quotients.cache.hit_s"] = sum(s[4] for s in hits)
        out["quotients.cache.miss_s"] = sum(s[4] for s in misses)
        out["quotients.cache.bytes"] = sum(s[6].get("bytes", 0) for s in cached)

    if "quotients.kernel_subgroup" in have:
        out["quotients.kernel_subgroup.elements_scanned"] = info_sum[
            "quotients.kernel_subgroup", "elements_scanned"]

    if "closure.generated_closure" in have:
        elements = info_sum["closure.generated_closure", "elements"]
        gc_s = total["closure.generated_closure"]
        out["closure.generated_closure.elements"] = elements
        out["closure.generated_closure.elements_per_s"] = (
            elements / gc_s if gc_s else 0.0)

    if "closure.normal_closure" in have:
        rounds = [s for s in spans if s[2] == "closure.generated_closure"
                  and s[1] in by_id and by_id[s[1]][2] == "closure.normal_closure"]
        regenerated = sum((s[6] or {}).get("elements", 0) for s in rounds)
        final = info_sum["closure.normal_closure", "elements"]
        out["closure.normal_closure.rounds"] = len(rounds)
        out["closure.normal_closure.regenerated_elements"] = regenerated
        out["closure.normal_closure.waste_ratio"] = (
            regenerated / final if final else 0.0)

    if "congruence.coset_table" in have:
        out["congruence.coset_table.cosets"] = info_sum[
            "congruence.coset_table", "cosets"]
        out["congruence.coset_table.undecided"] = sum(
            1 for s in spans if s[2] == "congruence.coset_table" and s[6]
            and s[6].get("raised") == "UndecidedError")

    if "congruence.algebraic_level" in have:
        out["congruence.algebraic_level.divisors_tested"] = sum(
            1 for s in spans if s[2] == "quotients.subgroup_closure"
            and under(s, "congruence.algebraic_level"))

    for name, key, metric in [
        ("congruence.schreier_generators", "n", "words"),
        ("congruence.enumerate_index", "n", "tables"),
        ("hecke_matrices.eval_word", "letters", "letters"),
        ("verify.run_check", "failed", "failed"),
    ]:
        if name in have:
            out[f"{name}.{metric}"] = info_sum[name, key]

    if any(n.startswith("modular_oracle.") for n in have):
        out["modular_oracle.s"] = sum(
            s[4] for s in spans if s[2].startswith("modular_oracle.")
            and not under(s, "modular_oracle."))
        out["modular_oracle.elements"] = sum(
            (s[6] or {}).get("elements", 0) for s in spans
            if s[2] == "closure.generated_closure"
            and under(s, "modular_oracle."))
    return out


def reduce_pair_ns(seed: int) -> float | None:
    """ns per `Modulus.reduce_pair` call on a fixed batch at the quotient moduli.

    Timed from outside with the unwrapped method; the median of five sweeps.
    """
    from hecke5 import golden_ring
    if not hasattr(golden_ring.Modulus, "reduce_pair"):
        return None
    rng = random.Random(seed)
    moduli = [workloads.modulus(text) for text in
              dict.fromkeys(mod for mod, _, _ in workloads.QUOTIENT_JOBS)]
    batches = []
    for m in moduli:
        n = max(m.d1, m.d2)
        lo, hi = -n * n, 5 * n * n
        batches.append((m.reduce_pair, [(rng.randrange(lo, hi), rng.randrange(lo, hi))
                                        for _ in range(20_000)]))
    sweeps = []
    for _ in range(5):
        t0 = time.perf_counter()
        for red, pairs in batches:
            for a, b in pairs:
                red(a, b)
        sweeps.append(time.perf_counter() - t0)
    calls = sum(len(p) for _, p in batches)
    return statistics.median(sweeps) / calls * 1e9
