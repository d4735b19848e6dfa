"""The benchmark's workloads: seeded inputs, the fixed op list, exact checks.

Each workload's `build(lib, seed)` runs during set-up.  It generates its
inputs from the seed and returns the fixed list of `Op`s that every pass
runs.  An op is one timed library call: a `search` call (two LPs for one
structure and optimum leaf, or a whole scan), or one verify-paper check.

Every op carries a check.  Results are compared with the paper's pinned
rationals (n=3 best=3, verify-paper failed=0), with values the library
computed when the benchmark was written for a fixed panel of LP pairs, and
with exact invariants recomputed through an independent path for the seeded
LP pairs.  Checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable

from tracing import VERIFY_CHECKS

#: The LP pairs of `lp-scan`'s fixed panel: (n, structure bits, optimum
#: leaf, tie mode, value of `search` on the pair, None when both LPs are
#: infeasible).  Drawn once from `random.Random(2024)` like the seeded pairs
#: and solved by the library; no pair is unbounded.  The strict pairs are the
#: first eight weak ones again, four of them infeasible under eps = 1/100.
LP_PANEL = (
    (4, 11232, 7, "weak", F(0)), (4, 16292, 11, "weak", F(1)),
    (4, 120, 5, "weak", F(1)), (4, 4030, 8, "weak", F(1)),
    (4, 12200, 5, "weak", F(3, 2)), (4, 6612, 5, "weak", F(1)),
    (4, 6582, 1, "weak", F(1)), (4, 2030, 13, "weak", F(1)),
    (4, 2994, 4, "weak", F(2, 3)), (4, 10982, 14, "weak", F(1)),
    (4, 11208, 1, "weak", F(1)), (4, 726, 5, "weak", F(2)),
    (4, 11232, 7, "strict", None), (4, 16292, 11, "strict", None),
    (4, 120, 5, "strict", F(49, 50)), (4, 4030, 8, "strict", F(49, 50)),
    (4, 12200, 5, "strict", F(297, 200)), (4, 6612, 5, "strict", None),
    (4, 6582, 1, "strict", None), (4, 2030, 13, "strict", F(19, 20)),
    (5, 161478742, 25, "weak", F(0)), (5, 10472898, 30, "weak", F(0)),
    (5, 261089530, 19, "weak", F(1)), (5, 143179458, 28, "weak", F(1, 2)),
)

#: Pinned expected values from the paper.
PINNED = {
    "lp_n3_best": F(3),
    "lp_n4_max": F(3),
    "verify_failed": 0,
    "lp_panel": LP_PANEL,
}

#: Seeded (structure, optimum leaf) pairs per pass of `lp-scan`.
LP_SIZES = {"weak_n4": 40, "strict_n4": 10, "weak_n5": 10}

#: The verify-paper checks that take well under a second; the warm-up runs these.
QUICK_CHECKS = ("thm1", "thm2", "thm5", "appendix-d", "example1", "counts")


@dataclass
class Op:
    """One call in the fixed op list of a pass."""

    kind: str
    manifest: dict
    call: Callable[[], object]
    #: result -> list of failure messages (empty when correct).
    check: Callable[[object], list[str]]


@dataclass
class Workload:
    name: str
    why: str
    ops: list[Op] = field(default_factory=list)
    #: Ops run once untimed before the timed passes; None means `ops`.
    warmup: list[Op] | None = None


def _expect(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: expected {want}, got {got}"]


# --------------------------------------------------------------------- lp-scan


def _random_n5_structure(lib, rng: random.Random):
    """A uniform draw from the pruned n=5 stream that `search(5)` scans."""
    last_nodes = 16
    lasts = [((1 << last_nodes) - 1) & ~mask for mask in lib.lpsearch.monotone_masks(4)]
    while True:
        upper = rng.randrange(1 << (last_nodes - 1)) & ~1  # root on M1 (mirror)
        structure = lib.lpsearch.TreeStructure(5, upper | (rng.choice(lasts) << 15))
        if structure.equilibrium_leaf() not in (0, 31):
            return structure


def _lp_check(lib, n: int, structure, leaf, bound=None):
    """Witness re-verification for one search result.

    The witness must realize the LP value as an SPE outcome at the
    equilibrium leaf (checked through `spe_outcome_set`, not the LP) while
    both machine loads at the optimum leaf stay at most 1.
    """
    leaf_schedule = lambda lf: tuple(lib.lpsearch.leaf_machine(n, lf, d) for d in range(n))

    def check(result) -> list[str]:
        if result.value is None:
            return []
        errors = []
        if result.value < 0 or (bound is not None and result.value > bound):
            errors.append(f"value {result.value} outside [0, {bound}]")
        inst = result.witness
        used = structure if structure is not None else result.structure
        used_leaf = leaf if leaf is not None else result.opt_leaf
        if max(lib.core.loads(inst, leaf_schedule(used_leaf))) > 1:
            errors.append("witness optimum leaf exceeds load 1")
        target = leaf_schedule(used.equilibrium_leaf())
        tree = lib.equilibria.AdaptiveTree.from_order(tuple(range(n)), inst.m)
        outcomes = lib.equilibria.spe_outcome_set(inst, tree)
        if not any(o.schedule == target and o.makespan == result.value for o in outcomes):
            errors.append("witness does not realize the value as an SPE outcome")
        return errors

    return check


def build_lp_scan(lib, seed: int) -> Workload:
    work = Workload(
        "lp-scan",
        "lpsearch does almost all the work and the game-tree layers sit idle; "
        "weak and strict LPs take different simplex pivot paths",
    )
    rng = random.Random(seed)
    eps = F(1, 100)
    structures = list(lib.lpsearch.enumerate_structures(4))
    pairs = []
    for structure in rng.sample(structures, LP_SIZES["weak_n4"]):
        eq_leaf = structure.equilibrium_leaf()
        leaf = rng.choice([lf for lf in range(1, 15) if lf != eq_leaf])
        pairs.append((structure, leaf))
    weak_results: dict[int, object] = {}

    def search_op(n, structure, leaf, mode, family, index=None, pin=None):
        kind = f"{mode}_n{n}"

        def call():
            return lib.lpsearch.search(
                n, structures=[structure], opt_leaves=[leaf], tie_mode=mode,
                eps=eps if mode == "strict" else None,
            )

        base = _lp_check(lib, n, structure, leaf, PINNED["lp_n4_max"] if n == 4 else None)

        def check(result):
            errors = base(result)
            if pin is not None:
                errors += _expect("panel value", result.value, pin[0])
                errors += _expect("panel unbounded LPs", result.unbounded, ())
            if index is not None and mode == "weak":
                weak_results[index] = result
            if index is not None and mode == "strict":
                weak = weak_results[index].value
                if result.value is not None and (weak is None or result.value > weak):
                    errors.append(f"strict value {result.value} exceeds weak value {weak}")
            return errors

        expected = "witness realizes value, optimum leaf loads <= 1"
        if n == 4:
            expected += ", value <= 3"
        if index is not None and mode == "strict":
            expected += ", value <= weak value"
        if pin is not None:
            expected = f"value {pin[0]}, no unbounded LP; " + expected
        manifest = {
            "family": family, "m": 2, "n": n, "seed": seed if pin is None else None,
            "bits": str(structure), "opt_leaf": leaf, "lps": 2,
            "rule": mode if mode == "weak" else "strict eps=1/100", "expected": expected,
        }
        return Op(kind, manifest, call, check)

    for index, (structure, leaf) in enumerate(pairs):
        work.ops.append(search_op(4, structure, leaf, "weak", "structure", index))
    for index, (structure, leaf) in enumerate(pairs[: LP_SIZES["strict_n4"]]):
        work.ops.append(search_op(4, structure, leaf, "strict", "structure", index))
    for _ in range(LP_SIZES["weak_n5"]):
        structure = _random_n5_structure(lib, rng)
        leaf = rng.choice([lf for lf in range(1, 31) if lf != structure.equilibrium_leaf()])
        work.ops.append(search_op(5, structure, leaf, "weak", "structure"))
    for n, bits, leaf, mode, value in PINNED["lp_panel"]:
        structure = lib.lpsearch.TreeStructure(n, bits)
        work.ops.append(search_op(n, structure, leaf, mode, "pinned panel", pin=(value,)))

    scan_lps = 2 * sum(
        sum(1 for lf in range(1, 7) if lf != s.equilibrium_leaf())
        for s in lib.lpsearch.enumerate_structures(3)
    )
    scan_check = _lp_check(lib, 3, None, None)

    def check_scan(result):
        return _expect("n=3 best", result.value, PINNED["lp_n3_best"]) + scan_check(result)

    work.ops.append(Op(
        "scan_n3",
        {"family": "full pruned scan", "m": 2, "n": 3, "seed": None, "lps": scan_lps,
         "rule": "weak", "expected": "best=3"},
        lambda: lib.lpsearch.search(3), check_scan,
    ))
    return work


# ---------------------------------------------------------------- verify-paper


def build_verify_paper(lib, seed: int) -> Workload:
    """`cli.main(["verify-paper", "--json", "--only", check])` in-process.

    The seed is unused: the checks recompute the paper's fixed results.  Each
    check is one op, with stdout captured; its pass or fail comes from the
    CLI's own output.  The warm-up runs only the quick checks: all ten take
    about 13 s, and the minimum over the timed passes absorbs the cold start
    of the slow checks' first iterations.
    """
    work = Workload(
        "verify-paper",
        "the user's reproduce-the-paper action; the only workload that covers "
        "thm4_tree, the enumerate tree oracle and the cli layer",
    )

    def cli_op(name) -> Op:
        argv = ["verify-paper", "--json", "--only", name]

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = lib.cli.main(argv)
            passed = failed = None
            for line in out.getvalue().splitlines():
                if line.startswith("check="):
                    fields = dict(part.split("=", 1) for part in line.split())
                    passed = fields["check"] == name and fields["pass"] == "true"
                elif line.startswith("failed="):
                    failed = int(line.split("=", 1)[1])
            return {"code": code, "passed": passed, "failed": failed}

        def check(result):
            if result == {"code": 0, "passed": True, "failed": PINNED["verify_failed"]}:
                return []
            return [f"check {name}: exit={result['code']} pass={result['passed']} "
                    f"failed={result['failed']}"]

        return Op(
            "check", {"family": "verify-paper", "argv": argv, "seed": None, "rule": None,
                      "expected": f"pass, failed={PINNED['verify_failed']}"},
            call, check,
        )

    work.ops = [cli_op(name) for name in VERIFY_CHECKS]
    work.warmup = [op for op, name in zip(work.ops, VERIFY_CHECKS) if name in QUICK_CHECKS]
    return work


BUILDERS = {
    "lp-scan": build_lp_scan,
    "verify-paper": build_verify_paper,
}
