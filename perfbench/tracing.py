"""Span tracing of seqsched's layers from outside the package.

`Tracer.install` replaces each traced function, in its defining module and in
every seqsched module that bound it by name, with a wrapper that records a
span ``[name, start, end, parent]`` in memory while tracing is enabled.
Because module globals are patched, calls inside one module are caught too
(``search`` -> ``simplex_solve``, ``spoa_fixed`` -> ``spe_outcome_set``).
Nothing under ``src/`` is edited; `uninstall` puts the originals back.

`layer_metrics` turns the spans of the traced passes into the per-layer
metrics: call counts, self time (a span's duration minus the time its direct
children cover), per-call medians, and the counters the wrappers record.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import statistics
from collections import defaultdict
from time import perf_counter

def _internal_nodes(m: int, n: int) -> int:
    """Internal nodes of a complete m-ary tree of depth n: every tree `spe` walks."""
    return sum(m**d for d in range(n))


def _simplex_kind(lp) -> str:
    """Split simplex calls by the LP they solve: tie mode and job count."""
    strict = any(b < 0 for b in lp.rhs[:-2])
    n = lp.n_vars // 2
    kind = f"{'strict' if strict else 'weak'}_n{n}"
    return kind if kind in ("weak_n4", "strict_n4", "weak_n5") else "other"


def _count_simplex(counts, result, lp) -> None:
    counts[f"lpsearch.simplex_solve.{result.status}"] += 1
    rows = len(lp.rows)
    artificial = sum(1 for b in lp.rhs if b < 0)
    counts["lpsearch.simplex_solve.tableau_cells"] += rows * (
        lp.n_vars + rows + artificial + 1
    )


def _count_opt(counts, result, inst, *args, **kwargs) -> None:
    counts["core.opt.leaves"] += inst.m**inst.n


def _count_spe(counts, result, inst, tree, rule) -> None:
    counts["equilibria.spe.tree_nodes"] += _internal_nodes(inst.m, inst.n)


def _count_outcome_set(counts, result, inst, *args, **kwargs) -> None:
    counts["equilibria.spe_outcome_set.outcomes"] += len(result)
    counts["equilibria.spe_outcome_set.leaves"] += inst.m**inst.n


def _count_spos(counts, result, inst, *args, **kwargs) -> None:
    counts["measures.spos.orders"] += math.factorial(inst.n)


def _spe_name(inst, tree, rule) -> str:
    history_free = type(rule).__name__ in ("PreferLowest", "PreferHighest")
    return "equilibria.spe." + ("history_free" if history_free else "history_rule")


def _adaptive_name(inst, method="auto", *args, **kwargs) -> str:
    return "measures.adaptive_spos." + ("enumerate" if method == "enumerate" else "dp")


def _simplex_name(lp) -> str:
    return "lpsearch.simplex_solve." + _simplex_kind(lp)


#: (module, function, span name or namer, counter or None).
TARGETS = (
    ("core", "opt", "core.opt", _count_opt),
    ("equilibria", "spe", _spe_name, _count_spe),
    ("equilibria", "spe_outcome_set", "equilibria.spe_outcome_set", _count_outcome_set),
    ("measures", "spoa_fixed", "measures.spoa_fixed", None),
    ("measures", "spos", "measures.spos", _count_spos),
    ("measures", "adaptive_spos", _adaptive_name, None),
    ("lpsearch", "build_lp", "lpsearch.build_lp", None),
    ("lpsearch", "simplex_solve", _simplex_name, _count_simplex),
    ("lpsearch", "search", "lpsearch.search", None),
    ("constructions", "thm4_tree", "constructions.thm4_tree", None),
    ("constructions", "thm3_order", "constructions.thm3_order", None),
    ("cli", "main", "cli.main", None),
)

VERIFY_CHECKS = (
    "thm1", "thm2", "thm3", "thm4", "thm5",
    "appendix-d", "example1", "counts", "lp", "chain",
)


class Tracer:
    """In-memory span recorder; a no-op pass-through while disabled."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            record = tracer._open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if counter is not None:
                counter(tracer.counts, result, *args, **kwargs)
            return result

        return traced

    def wrap_search(self, fn):
        """`search`, plus a count of best-value improvements via `on_improve`."""
        tracer = self
        traced = self.wrap(fn, "lpsearch.search")

        @functools.wraps(fn)
        def counting(*args, on_improve=None, **kwargs):
            def improved(*improve_args):
                if tracer.enabled:
                    tracer.counts["lpsearch.improvements"] += 1
                if on_improve is not None:
                    on_improve(*improve_args)

            return traced(*args, on_improve=improved, **kwargs)

        return counting

    def wrap_generator(self, fn, name: str, count_key: str):
        """A generator function: one span per `next`, one count per item."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not tracer.enabled:
                return inner
            return tracer._timed_items(inner, name, count_key)

        return traced

    def _timed_items(self, inner, name: str, count_key: str):
        while True:
            record = self._open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                self._close(record)
            self.counts[count_key] += 1
            yield item

    def install(self, modules: dict) -> None:
        """Patch every target in `modules` (name -> seqsched module object)."""
        replacements: dict[int, object] = {}  # id(original) -> wrapper
        for module_name, attr, name, counter in TARGETS:
            original = getattr(modules[module_name], attr)
            if attr == "search":
                replacements[id(original)] = self.wrap_search(original)
            else:
                replacements[id(original)] = self.wrap(original, name, counter)
        enumerate_structures = modules["lpsearch"].enumerate_structures
        replacements[id(enumerate_structures)] = self.wrap_generator(
            enumerate_structures,
            "lpsearch.enumerate_structures",
            "lpsearch.enumerate_structures.structures",
        )
        verify = modules["verify"]
        for check_name, fn in verify.CHECKS:
            replacements[id(fn)] = self.wrap(fn, f"verify.{check_name}")
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._patches.append((module, key, value))
                    setattr(module, key, replacements[id(value)])
        self._patches.append((verify, "CHECKS", verify.CHECKS))
        verify.CHECKS = tuple(
            (check_name, replacements[id(fn)]) for check_name, fn in verify.CHECKS
        )

    def uninstall(self) -> None:
        for module, key, value in reversed(self._patches):
            setattr(module, key, value)
        self._patches.clear()

    def write(self, path) -> None:
        """Write the spans as gzip'd JSON lines: name, start, end, parent."""
        with gzip.open(path, "wt") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps([name, start, end, parent]) + "\n")


def span_stats(spans: list[list], ranges) -> dict[str, dict]:
    """Per span name over the (lo, hi) index ranges: calls, self time, durations.

    Spans of one range nest: each parent index lies in the same range.
    """
    stats: dict[str, dict] = {}
    for lo, hi in ranges:
        covered = [0.0] * (hi - lo)
        for name, start, end, parent in spans[lo:hi]:
            if parent >= lo:
                covered[parent - lo] += end - start
        for offset, (name, start, end, parent) in enumerate(spans[lo:hi]):
            entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["self_s"] += end - start - covered[offset]
            entry["durations"].append(end - start)
    return stats


def _merge(stats: dict[str, dict], names) -> dict:
    merged = {"calls": 0, "self_s": 0.0, "durations": []}
    for name in names:
        entry = stats.get(name)
        if entry is not None:
            merged["calls"] += entry["calls"]
            merged["self_s"] += entry["self_s"]
            merged["durations"] += entry["durations"]
    return merged


def _p50_ms(entry: dict) -> float:
    return statistics.median(entry["durations"]) * 1000 if entry["durations"] else 0.0


#: The pruned n=5 structure stream that `search(5)` scans by default
#: (Observation-1 last layers, root on M1, equilibrium leaf not extreme):
#: 2**14 upper choices x 168 monotone last layers, minus the 2**11 x 1
#: whose equilibrium leaf is the leftmost one.  The same formula gives the
#: 1,264 structures `enumerate_structures(4)` yields.
N5_PRUNED_STRUCTURES = 2**14 * 168 - 2**11
N5_LPS_PER_STRUCTURE = 58


def n5_scan_core_h(seconds_per_lp: float) -> float:
    """Projected single-core hours for the full pruned n=5 weak scan."""
    return N5_PRUNED_STRUCTURES * N5_LPS_PER_STRUCTURE * seconds_per_lp / 3600


def layer_metrics(
    pass_stats: dict[str, dict],
    counts: dict[str, float],
    passes: int,
    overhead_ratio: float,
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, per traced pass."""
    out: dict[str, tuple[float, str]] = {}

    def per_pass(value: float) -> float:
        return value / passes

    simplex_kinds = ("weak_n4", "strict_n4", "weak_n5", "other")
    simplex = _merge(pass_stats, [f"lpsearch.simplex_solve.{k}" for k in simplex_kinds])
    out["lpsearch.simplex_solve.calls"] = (per_pass(simplex["calls"]), "count")
    out["lpsearch.simplex_solve.self_s"] = (per_pass(simplex["self_s"]), "s")
    out["lpsearch.simplex_solve.p50_ms"] = (_p50_ms(simplex), "ms")
    for kind in simplex_kinds[:3]:
        entry = _merge(pass_stats, [f"lpsearch.simplex_solve.{kind}"])
        out[f"lpsearch.simplex_solve.{kind}.calls"] = (per_pass(entry["calls"]), "count")
        out[f"lpsearch.simplex_solve.{kind}.self_s"] = (per_pass(entry["self_s"]), "s")
        out[f"lpsearch.simplex_solve.{kind}.p50_ms"] = (_p50_ms(entry), "ms")
    for key in ("optimal", "infeasible", "unbounded", "tableau_cells"):
        name = f"lpsearch.simplex_solve.{key}"
        out[name] = (per_pass(counts.get(name, 0)), "count")
    n5 = _merge(pass_stats, ["lpsearch.simplex_solve.weak_n5"])
    out["lpsearch.n5_scan_core_h"] = (n5_scan_core_h(_p50_ms(n5) / 1000), "h")
    build = _merge(pass_stats, ["lpsearch.build_lp"])
    out["lpsearch.build_lp.calls"] = (per_pass(build["calls"]), "count")
    out["lpsearch.build_lp.self_s"] = (per_pass(build["self_s"]), "s")
    enum = _merge(pass_stats, ["lpsearch.enumerate_structures"])
    out["lpsearch.enumerate_structures.structures"] = (
        per_pass(counts.get("lpsearch.enumerate_structures.structures", 0)), "count")
    out["lpsearch.enumerate_structures.self_s"] = (per_pass(enum["self_s"]), "s")
    out["lpsearch.search.self_s"] = (
        per_pass(_merge(pass_stats, ["lpsearch.search"])["self_s"]), "s")
    out["lpsearch.improvements"] = (per_pass(counts.get("lpsearch.improvements", 0)), "count")

    opt = _merge(pass_stats, ["core.opt"])
    out["core.opt.calls"] = (per_pass(opt["calls"]), "count")
    out["core.opt.self_s"] = (per_pass(opt["self_s"]), "s")
    out["core.opt.leaves"] = (per_pass(counts.get("core.opt.leaves", 0)), "count")

    free = _merge(pass_stats, ["equilibria.spe.history_free"])
    rule = _merge(pass_stats, ["equilibria.spe.history_rule"])
    out["equilibria.spe.calls"] = (per_pass(free["calls"] + rule["calls"]), "count")
    out["equilibria.spe.tree_nodes"] = (
        per_pass(counts.get("equilibria.spe.tree_nodes", 0)), "count")
    out["equilibria.spe.history_free_s"] = (per_pass(free["self_s"]), "s")
    out["equilibria.spe.history_rule_s"] = (per_pass(rule["self_s"]), "s")

    outcome_set = _merge(pass_stats, ["equilibria.spe_outcome_set"])
    outcomes = counts.get("equilibria.spe_outcome_set.outcomes", 0)
    leaves = counts.get("equilibria.spe_outcome_set.leaves", 0)
    out["equilibria.spe_outcome_set.calls"] = (per_pass(outcome_set["calls"]), "count")
    out["equilibria.spe_outcome_set.self_s"] = (per_pass(outcome_set["self_s"]), "s")
    out["equilibria.spe_outcome_set.outcomes"] = (per_pass(outcomes), "count")
    out["equilibria.spe_outcome_set.survival_ratio"] = (
        outcomes / leaves if leaves else 0.0, "ratio")

    dp = _merge(pass_stats, ["measures.adaptive_spos.dp"])
    out["measures.adaptive_spos.dp.calls"] = (per_pass(dp["calls"]), "count")
    out["measures.adaptive_spos.dp.self_s"] = (per_pass(dp["self_s"]), "s")
    out["measures.adaptive_spos.dp.p50_ms"] = (_p50_ms(dp), "ms")
    out["measures.adaptive_spos.dp.max_ms"] = (
        max(dp["durations"]) * 1000 if dp["durations"] else 0.0, "ms")
    out["measures.adaptive_spos.enumerate.self_s"] = (
        per_pass(_merge(pass_stats, ["measures.adaptive_spos.enumerate"])["self_s"]), "s")
    spos = _merge(pass_stats, ["measures.spos"])
    out["measures.spos.self_s"] = (per_pass(spos["self_s"]), "s")
    out["measures.spos.orders"] = (per_pass(counts.get("measures.spos.orders", 0)), "count")
    out["measures.spoa_fixed.self_s"] = (
        per_pass(_merge(pass_stats, ["measures.spoa_fixed"])["self_s"]), "s")

    for name in ("constructions.thm4_tree", "constructions.thm3_order", "cli.main"):
        out[f"{name}.self_s"] = (per_pass(_merge(pass_stats, [name])["self_s"]), "s")
    for check in VERIFY_CHECKS:
        entry = _merge(pass_stats, [f"verify.{check}"])
        out[f"verify.{check}.s"] = (per_pass(sum(entry["durations"])), "s")

    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
