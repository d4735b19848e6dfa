"""Closed-loop benchmark of the seqsched library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lp-scan --seed 1 --seconds 50 --trace 0

One client in one process issues each op only after the previous one
returns; no threads.  A run:

1. sets up several times (fresh import of `seqsched` from `src/`, input
   generation from the seed), and keeps the last set-up's ops;
2. runs the workload's fixed op list once untimed as a warm-up (verify-paper
   warms up on its quick checks only) and checks every result against its
   expected value (an op left out of the warm-up is checked on its first
   timed result);
3. repeats the op list in timed passes for about `--seconds`, requiring every
   result to equal the first one.  Without `--trace`, between ops and
   outside their time, `BetweenOps` times reference chunks and further
   set-ups; `setup_s` is the median of all set-ups, and every reported time
   is scaled to the reference chunk's speed;
4. prints a human-readable report, then one JSON line with the end-to-end
   metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

With `--trace 1`, untraced and traced passes alternate; the per-layer metrics
come from the traced passes and `trace.overhead_ratio` compares the two.
Manifests and spans go to `perfbench/out/`.  The exit code is 1 when any op
failed its check and 2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 3
SETUP_EVERY_S = 0.5
#: Share of each op's time spent on reference chunks after it.
REF_SHARE = 0.05
#: The reference chunk's lower-decile time on the machine the benchmark was
#: written on, in its fast state: the unit of the reported times.
REF_CHUNK_S = 0.85e-3 * 12
REF_REPEAT = 12
MIN_PASSES = 3
MODULES = ("core", "equilibria", "measures", "constructions", "lpsearch", "verify", "cli")


class Lib:
    """The freshly imported seqsched modules, looked up by attribute at call time."""

    def __init__(self) -> None:
        self.modules = {"seqsched": importlib.import_module("seqsched")}
        for name in MODULES:
            module = importlib.import_module(f"seqsched.{name}")
            self.modules[name] = module
            setattr(self, name, module)


def fresh_import() -> Lib:
    for name in [m for m in sys.modules if m == "seqsched" or m.startswith("seqsched.")]:
        del sys.modules[name]
    return Lib()


def setup_once(workload: str, seed: int):
    """One timed fresh set-up: its seconds, library and workload."""
    gc.collect()  # earlier libraries' modules, so that they do not pile up
    start = perf_counter()
    lib = fresh_import()
    work = workloads.BUILDERS[workload](lib, seed)
    return perf_counter() - start, lib, work


def setup(workload: str, seed: int):
    """Times of SETUP_REPS set-ups, and the last one's library and workload."""
    times = []
    for _ in range(SETUP_REPS):
        seconds, lib, work = setup_once(workload, seed)
        times.append(seconds)
    return times, lib, work


def reference_chunk() -> None:
    """A fixed exact-arithmetic kernel: Gauss-Jordan on a 6x7 Fraction matrix,
    REF_REPEAT times."""
    for _ in range(REF_REPEAT):
        m = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 5 + 1) for j in range(7)]
             for i in range(6)]
        for c in range(6):
            for r in range(6):
                if r != c:
                    f = m[r][c] / m[c][c]
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]


class BetweenOps:
    """What an untraced run does after each timed op, outside its time.

    The shared machine the benchmark was written on drifts between a fast
    state and one 1.3-1.5x slower that lasts a minute or more, and every op
    slows alike, so no statistic over one run's passes removes it.  After
    each op the run therefore times reference chunks, about REF_SHARE of the
    ops' time in all.  The lower decile of the chunk times tracks the state
    the ops' fastest passes ran in, and `scale` converts the run's times to
    seconds at REF_CHUNK_S per chunk.  A set-up every SETUP_EVERY_S spreads
    the set-ups that `setup_s` is the median of over the whole run, for the
    same reason.
    """

    def __init__(self, workload: str, seed: int, setup_times: list[float]):
        self.workload, self.seed = workload, seed
        self.setup_times = setup_times
        self.ref_times: list[float] = []
        self.ref_budget = 0.0
        self.last_setup = perf_counter()

    def __call__(self, op_seconds: float) -> None:
        self.ref_budget += REF_SHARE * op_seconds
        while self.ref_budget > 0 or len(self.ref_times) < 2:
            start = perf_counter()
            reference_chunk()
            self.ref_times.append(perf_counter() - start)
            self.ref_budget -= self.ref_times[-1]
        if perf_counter() - self.last_setup >= SETUP_EVERY_S:
            self.setup_times.append(setup_once(self.workload, self.seed)[0])
            self.last_setup = perf_counter()

    def scale(self) -> float:
        return REF_CHUNK_S / statistics.quantiles(self.ref_times, n=10)[0]


def run_pass(ops, between=None):
    """One pass of the op list: per-op (seconds, result or exception).

    `between`, if given, is called untimed after each op with its seconds.
    """
    samples = []
    for op in ops:
        start = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # counted as a failed op; the run goes on
            result = exc
        samples.append((perf_counter() - start, result))
        if between is not None:
            between(samples[-1][0])
    return samples


def failures(op, result) -> list[str]:
    if isinstance(result, Exception):
        return [f"{type(result).__name__}: {result}"]
    try:
        return op.check(result)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def measure(work, seconds: float, tracer: tracing.Tracer | None, between=None):
    """Warm-up, then timed passes for about `seconds`.

    The first result of each op is checked against its expected value;
    every later result of that op must repeat it exactly.  Without a tracer
    every timed pass is untraced, and there are at least MIN_PASSES of them.
    With one, passes alternate untraced / traced, starting untraced, with at
    least one of each.  Beyond those minimums a new pass starts only if the
    median pass so far would still end within `seconds`.  `between` runs
    after each op of a timed pass.
    """
    reference: dict[int, tuple] = {}  # id(op) -> (first result, failed)
    failed_ops: dict[int, list[str]] = {}
    index_of = {id(op): index for index, op in enumerate(work.ops)}

    def judge(op, result) -> bool:
        index = index_of[id(op)]
        if isinstance(result, Exception):
            failed_ops.setdefault(index, failures(op, result))
            return True
        if id(op) not in reference:
            messages = failures(op, result)
            if messages:
                failed_ops[index] = messages
            reference[id(op)] = (result, bool(messages))
            return bool(messages)
        first, failed = reference[id(op)]
        if result != first:
            failed_ops.setdefault(index, ["result differs from the first one"])
            return True
        return failed

    warm_ops = work.ops if work.warmup is None else work.warmup
    for op, (_, result) in zip(warm_ops, run_pass(warm_ops)):
        judge(op, result)

    passes = {"untraced": [], "traced": []}
    traced_spans = []
    attempted = failed = 0
    begin = perf_counter()
    durations = []
    while True:
        kind = "untraced"
        if tracer is not None and len(passes["traced"]) < len(passes["untraced"]):
            kind = "traced"
        if kind == "traced":
            lo = len(tracer.spans)
            tracer.enabled = True
        pass_start = perf_counter()
        samples = run_pass(work.ops, between)
        durations.append(perf_counter() - pass_start)
        if kind == "traced":
            tracer.enabled = False
            traced_spans.append((lo, len(tracer.spans)))
        for op, (_, result) in zip(work.ops, samples):
            attempted += 1
            failed += judge(op, result)
        passes[kind].append(samples)
        elapsed = perf_counter() - begin
        if tracer is None:
            enough = len(passes["untraced"]) >= MIN_PASSES
        else:
            enough = bool(passes["untraced"]) and bool(passes["traced"])
        if enough and elapsed + statistics.median(durations) > seconds:
            break
    return passes, traced_spans, attempted, failed, failed_ops


def op_times(ops, passes, kind=None):
    """Each op's fastest time over the passes (of ops of `kind`, if given).

    Every pass runs the same inputs, so an op's time varies between passes
    only through interference from other processes on the machine, which
    only adds time; the minimum filters it out.
    """
    return sorted(
        min(samples[index][0] for samples in passes)
        for index, op in enumerate(ops)
        if kind is None or op.kind == kind
    )


def tail(sorted_units: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten ops beyond it.

    With fewer than 20 ops that percentile would lie below the median, so
    the slowest op is reported instead.
    """
    count = len(sorted_units)
    if count < 20:
        return sorted_units[-1], "max"
    return sorted_units[count - 11], f"p{100 * (count - 10) / count:.1f}"


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = ROOT / ".git" / ref[5:]
        if target.exists():
            return target.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "commit": commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "seqsched" / "__init__.py").is_file():
        print(f"error: no seqsched package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    run_stamp = stamp()
    tracer = tracing.Tracer() if args.trace else None

    setup_times, lib, work = setup(args.workload, args.seed)
    if tracer is not None:
        tracer.install(lib.modules)
    tag = f"{args.workload}-seed{args.seed}"
    manifest = {"workload": work.name, "why": work.why, "seed": args.seed,
                "stamp": run_stamp, "ops": [op.manifest for op in work.ops]}
    (OUT / f"manifest-{tag}.json").write_text(json.dumps(manifest, indent=1, default=str))

    between = None if args.trace else BetweenOps(args.workload, args.seed, setup_times)
    gc.collect()
    passes, traced_spans, attempted, failed, failed_ops = measure(
        work, args.seconds, tracer, between)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = op_times(work.ops, passes["untraced"])
    wall_s = sum(units)

    print(f"# perfbench workload={work.name} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in run_stamp.items()))
    print(f"# why: {work.why}")
    print(f"# setups={len(setup_times)} ops/pass={len(units)} untraced_passes={len(passes['untraced'])} "
          f"traced_passes={len(passes['traced'])}")
    for index, messages in sorted(failed_ops.items()):
        print(f"# FAIL op {index} {work.ops[index].manifest}: {'; '.join(messages)}")

    print(f"fail_ratio {failed / attempted:.6g} ratio")
    if args.trace:
        ratio = sum(op_times(work.ops, passes["traced"])) / wall_s
        metrics = tracing.layer_metrics(
            tracing.span_stats(tracer.spans, traced_spans), tracer.counts, len(traced_spans), ratio)
        tracer.uninstall()
        tracer.write(OUT / f"spans-{tag}.jsonl.gz")
    else:
        scale = between.scale()
        print(f"# unscaled: wall_s {wall_s:.6g} s, setup_s {statistics.median(setup_times):.6g} s; "
              f"scale {scale:.4g} from {len(between.ref_times)} reference chunks")
        units = [seconds * scale for seconds in units]
        setup_times = [seconds * scale for seconds in setup_times]
        wall_s *= scale
        n5 = [seconds * scale for seconds in op_times(work.ops, passes["untraced"], "weak_n5")]
        lps = sum(op.manifest.get("lps", 0) for op in work.ops)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall_s, "s"),
            "ops_per_s": (len(units) / wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        # Reported but not in the JSON: their spread between runs reaches the
        # largest bound the benchmark may set (see README.md).
        tail_ms, tail_pct = tail(units)
        print(f"op_p50_ms {statistics.median(units) * 1000:.6g} ms")
        print(f"op_tail_ms {tail_ms * 1000:.6g} ms ({tail_pct} of {len(units)} ops)")
        if lps:
            print(f"lp_per_s {lps / wall_s:.6g} 1/s")
        if n5:  # each n=5 op solves the two LPs of one (structure, leaf) pair
            print(f"n5_scan_core_h {tracing.n5_scan_core_h(statistics.median(n5) / 2):.1f} h")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
