"""One-shot verification harness: recompute the paper's numbers and bounds.

Each check recomputes one headline result (exact rationals, fixed seeds) and
returns two strings, its expected facts and its computed ones; it passes iff
``computed == expected``.  The CLI's `verify-paper` subcommand prints these
as a table; the full n = 5 LP search is deliberately not here (it is an
offline command).
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import constructions, core, equilibria, lpsearch, measures
from .core import Instance, format_machines
from .equilibria import AdaptiveTree, PreferLowest, identity_order


@dataclass(frozen=True)
class CheckResult:
    """One check's facts; `passed` is ``computed == expected``."""

    name: str
    expected: str
    computed: str
    passed: bool
    elapsed: float


def random_instance(
    rng: random.Random, m: int, n: int, high: int = 10
) -> Instance:
    """Uniform integer processing times in [0, high]."""
    rows = [
        [Fraction(rng.randint(0, high)) for _ in range(n)] for _ in range(m)
    ]
    return Instance.from_rows(rows)


def check_thm1() -> tuple[str, str]:
    eps = Fraction(1, 100)
    inst = constructions.gen_thm1(eps)
    tree = AdaptiveTree.from_order(identity_order(5), 2)
    outcome = equilibria.spe(inst, tree, PreferLowest())
    spoa = measures.spoa_fixed(inst, identity_order(5))
    expected = "schedule=M1,M2,M1,M2,M2 makespan=387/100 opt=1 spoa=387/100"
    computed = (
        f"schedule={format_machines(outcome.schedule)} makespan={outcome.makespan}"
        f" opt={spoa.opt_makespan} spoa={spoa.value}"
    )
    return expected, computed


def check_thm2() -> tuple[str, str]:
    parts = []
    for k in (2, 3, 4):
        inst = constructions.gen_thm2(k)
        order = identity_order(inst.n)
        spoa = measures.spoa_fixed(inst, order)
        scripted = equilibria.spe(
            inst, AdaptiveTree.from_order(order, 2), equilibria.scripted_rule_thm2(k)
        ).makespan
        parts.append(
            f"k={k}:worst={spoa.witness_makespan},opt={spoa.opt_makespan}"
            f",scripted={scripted}"
        )
    expected = " ".join(
        f"k={k}:worst={k + 2},opt=1,scripted={k + 2}" for k in (2, 3, 4)
    )
    return expected, " ".join(parts)


def check_thm3() -> tuple[str, str]:
    rng = random.Random(31459)
    violations = 0
    total = 0
    for n in (4, 5, 6, 7):
        for _ in range(50):
            total += 1
            inst = random_instance(rng, 2, n)
            den, p, start = core.integer_form(inst)
            opt_ms = core.opt(inst)[0] * den
            (best,) = _least_makespans(p, start, [constructions.thm3_order(inst)])
            if best > (Fraction(n, 2) + 1) * opt_ms:
                violations += 1
                continue
            if n <= 5:
                first, rest = constructions.thm3_groups(inst)
                bound = (len(first) + 1) * opt_ms
                heads = itertools.permutations(first)
                orders = [h + t for h in heads for t in itertools.permutations(rest)]
                violations += sum(b > bound for b in _least_makespans(p, start, orders))
    return (
        f"0 violations in {total} instances",
        f"{violations} violations in {total} instances",
    )


def _least_makespans(p, start, orders) -> list[int]:
    """Each order's least outcome makespan on `core.integer_form`'s scaled
    instance; shared suffix nodes are solved once under one memo."""
    memo = equilibria.OutcomeMemo()
    return [
        min(max(final) for _, final in equilibria.survivors(p, root, start, memo))
        for _, root in measures.order_roots(orders, len(p))
    ]


def check_thm4() -> tuple[str, str]:
    rng = random.Random(27182)
    mismatches = 0
    nontrivial = 0
    total = 200
    for _ in range(total):
        n = rng.randint(2, 7)
        inst = random_instance(rng, 2, n)
        opt_ms, _ = core.opt(inst)
        built = constructions.thm4_tree(inst)
        outcome = equilibria.spe(inst, built.tree, built.tie_rule())
        if outcome.makespan != opt_ms:
            mismatches += 1
            continue
        if n <= 5:
            method = "enumerate" if n <= 4 else "dp"
            report = measures.adaptive_spos(inst, method=method)
            if report.witness_makespan != opt_ms:
                mismatches += 1
            nontrivial += 1
    return (
        f"0 mismatches in {total} instances (adaptive checked on {nontrivial})",
        f"{mismatches} mismatches in {total} instances"
        f" (adaptive checked on {nontrivial})",
    )


def check_thm5() -> tuple[str, str]:
    eps = Fraction(1, 10)
    inst = constructions.gen_thm5(eps)
    report = measures.adaptive_spos(inst, method="enumerate")
    trees = measures.adaptive_tree_count(3, 3)
    bound = Fraction(3, 2) - eps / 4
    expected = "value=59/40 witness=59/10 trees=24 bound_holds=True"
    computed = (
        f"value={report.value} witness={report.witness_makespan}"
        f" trees={trees} bound_holds={report.value >= bound}"
    )
    return expected, computed


def check_appendix_d() -> tuple[str, str]:
    report = constructions.appendix_d_check()
    expected = "opt=10 loads=10,9,6 all_jobs_improve=True"
    computed = (
        f"opt={report.opt_makespan}"
        f" loads={','.join(str(x) for x in report.opt_loads)}"
        f" all_jobs_improve={report.all_jobs_improve}"
    )
    return expected, computed


def check_example1() -> tuple[str, str]:
    report5 = measures.poa_pos(constructions.gen_example1(5))
    nash = report5.equilibria
    report100 = measures.poa_pos(constructions.gen_example1(100))
    shown = ";".join(format_machines(s) for s in sorted(nash))
    expected = "nash={M1,M2;M2,M1} poa_pos(5)=(5,1) poa_pos(100)=(100,1)"
    computed = (
        f"nash={{{shown}}}"
        f" poa_pos(5)=({report5.poa},{report5.pos})"
        f" poa_pos(100)=({report100.poa},{report100.pos})"
    )
    return expected, computed


def check_counts() -> tuple[str, str]:
    got = [lpsearch.count_structures(n)[1] for n in (3, 4, 5)]
    total5 = lpsearch.count_structures(5)[0]
    expected = "pruned(3,4,5)=48,2560,5505024 total(5)=2147483648"
    computed = (
        f"pruned(3,4,5)={','.join(str(x) for x in got)} total(5)={total5}"
    )
    return expected, computed


def check_lp() -> tuple[str, str]:
    unit = _simplex_unit_suite()
    inst = constructions.gen_thm1(Fraction(1, 100))
    structure = lpsearch.structure_from_spe(inst)
    lp = lpsearch.build_lp(structure, 17, 1)
    flat = constructions.gen_thm1(0)
    point = [flat.p[i][j] for j in range(5) for i in (0, 1)]
    objective = sum(c * x for c, x in zip(lp.objective, point))
    feasible = lpsearch.primal_feasible(lp, point)
    restricted = lpsearch.search(5, structures=[structure], opt_leaves=[17])
    assert restricted.value is not None
    parity = True
    roundtrip = True
    for n in (2, 3):
        pruned = lpsearch.search(n)
        full = lpsearch.search(
            n,
            structures=lpsearch.enumerate_structures(
                n, prune_obs1=False, prune_mirror=False, exclude_extreme_eq_leaf=False
            ),
        )
        parity = parity and pruned.value == full.value
        for result in (pruned, full):
            roundtrip = roundtrip and _witness_roundtrip(result)
    expected = (
        "unit=True eps0_feasible=True objective=4 restricted>=4"
        " parity(2,3)=True roundtrip=True"
    )
    computed = (
        f"unit={unit} eps0_feasible={feasible} objective={objective}"
        f" restricted>={'4' if restricted.value >= 4 else restricted.value}"
        f" parity(2,3)={parity} roundtrip={roundtrip}"
    )
    return expected, computed


def _simplex_unit_suite() -> bool:
    """Textbook LPs by status; each optimum must pass the exact certificate."""
    one = Fraction(1)
    lp_a = lpsearch.LpProblem(2, (one, Fraction(0)), ((one, one),), (one,))
    lp_b = lpsearch.LpProblem(
        2,
        (Fraction(3), Fraction(5)),
        ((one, Fraction(0)), (Fraction(0), Fraction(2)), (Fraction(3), Fraction(2))),
        (Fraction(4), Fraction(12), Fraction(18)),
    )
    a = lpsearch.simplex_solve(lp_a)
    b = lpsearch.simplex_solve(lp_b)
    c = lpsearch.simplex_solve(
        lpsearch.LpProblem(1, (one,), ((one,),), (Fraction(-1),))
    )
    d = lpsearch.simplex_solve(lpsearch.LpProblem(1, (one,), (), ()))
    return (
        (a.status, a.value) == ("optimal", 1)
        and (b.status, b.value, b.point) == ("optimal", 36, (Fraction(2), Fraction(6)))
        and lpsearch.certify_optimal(lp_a, a)
        and lpsearch.certify_optimal(lp_b, b)
        and c.status == "infeasible"
        and d.status == "unbounded"
    )


def _witness_roundtrip(result) -> bool:
    """The search witness re-verifies through the SPE outcome set."""
    if result.value is None:
        return True
    assert result.structure is not None and result.witness is not None
    inst = result.witness
    eq_leaf = result.structure.equilibrium_leaf()
    target = tuple(
        lpsearch.leaf_machine(inst.n, eq_leaf, d) for d in range(inst.n)
    )
    tree = AdaptiveTree.from_order(identity_order(inst.n), 2)
    for outcome in equilibria.spe_outcome_set(inst, tree):
        if outcome.schedule == target and outcome.makespan == result.value:
            return True
    return False


def check_chain() -> tuple[str, str]:
    rng = random.Random(16180)
    violations = 0
    for _ in range(100):
        n = rng.randint(2, 5)
        inst = random_instance(rng, 2, n)
        adaptive = measures.adaptive_spos(inst)
        best_order = measures.spos(inst)
        fixed = measures.spoa_fixed(inst, identity_order(n))
        if not (
            adaptive.witness_makespan
            <= best_order.witness_makespan
            <= fixed.witness_makespan
        ):
            violations += 1
    nash_misses = 0
    for _ in range(100):
        m = rng.randint(2, 3)
        n = rng.randint(2, 4)
        if measures.poa_pos(random_instance(rng, m, n)).pos != 1:
            nash_misses += 1
    return (
        "0 chain violations, 0 optimal-Nash misses",
        f"{violations} chain violations, {nash_misses} optimal-Nash misses",
    )


CHECKS: tuple[tuple[str, object], ...] = (
    ("thm1", check_thm1),
    ("thm2", check_thm2),
    ("thm3", check_thm3),
    ("thm4", check_thm4),
    ("thm5", check_thm5),
    ("appendix-d", check_appendix_d),
    ("example1", check_example1),
    ("counts", check_counts),
    ("lp", check_lp),
    ("chain", check_chain),
)


def run_checks(names: list[str] | None = None) -> list[CheckResult]:
    """Run the named checks (all by default) and time each one."""
    known = {name for name, _ in CHECKS}
    if names is not None:
        unknown = [name for name in names if name not in known]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(map(repr, unknown))}")
    results = []
    for name, fn in CHECKS:
        if names is not None and name not in names:
            continue
        start = time.perf_counter()
        expected, computed = fn()
        elapsed = time.perf_counter() - start
        passed = computed == expected
        results.append(CheckResult(name, expected, computed, passed, elapsed))
    return results
