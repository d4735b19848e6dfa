"""Acceptance suite: one test per headline criterion.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Every numeric claim is asserted as an exact rational, and each
test enforces its own wall-clock budget.  Random sampling uses fixed seeds so
the suite is deterministic.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from seqsched import constructions, equilibria, lpsearch, measures
from seqsched.core import Instance, constrained_opt, makespan, opt
from seqsched.equilibria import AdaptiveTree, PreferLowest, identity_order
from seqsched.verify import random_instance

F = Fraction


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"budget {seconds}s exceeded: {elapsed:.1f}s"


def test_criterion_01_thm1_gray_equilibrium_and_spoa():
    with budget(1):
        inst = constructions.gen_thm1(F(1, 100))
        tree = AdaptiveTree.from_order(identity_order(5), 2)
        outcome = equilibria.spe(inst, tree, PreferLowest())
        assert outcome.schedule == (0, 1, 0, 1, 1)  # M1,M2,M1,M2,M2
        assert outcome.makespan == F(387, 100)
        assert opt(inst)[0] == 1
        assert measures.spoa_fixed(inst, identity_order(5)).value == F(387, 100)


def test_criterion_02_thm2_outcome_sets_and_scripted_rule():
    with budget(60):
        for k in (2, 3, 4):
            inst = constructions.gen_thm2(k)
            assert inst.n == 3 * k - 1
            tree = AdaptiveTree.from_order(identity_order(inst.n), 2)
            outcomes = equilibria.spe_outcome_set(inst, tree)
            assert max(o.makespan for o in outcomes) == k + 2
            assert opt(inst)[0] == 1
            scripted = equilibria.spe(inst, tree, equilibria.Thm2Rule(k))
            assert scripted.makespan == k + 2


def test_criterion_03_thm3_two_group_order_bounds():
    with budget(120):
        rng = random.Random(31459)
        for n in (4, 5, 6, 7):
            for _ in range(50):
                inst = random_instance(rng, 2, n)
                opt_ms = opt(inst)[0]
                order = constructions.thm3_order(inst)
                tree = AdaptiveTree.from_order(order, 2)
                best = min(
                    o.makespan for o in equilibria.spe_outcome_set(inst, tree)
                )
                assert best <= (F(n, 2) + 1) * opt_ms
                if n <= 5:
                    bound = constructions.thm3_bound(inst)
                    first, rest = constructions.thm3_groups(inst)
                    assert bound == (len(first) + 1) * opt_ms
                    for head in itertools.permutations(first):
                        for tail in itertools.permutations(rest):
                            t = AdaptiveTree.from_order(head + tail, 2)
                            best_ht = min(
                                o.makespan
                                for o in equilibria.spe_outcome_set(inst, t)
                            )
                            assert best_ht <= bound


def test_criterion_04_thm4_tree_reaches_opt_and_adaptive_spos_is_one():
    # Adaptive trees are enumerated exhaustively for n <= 4; at n = 5 the
    # 1,658,880-tree scan is replaced by the exact state-collapsing dynamic
    # program, which is cross-checked against enumeration elsewhere.
    with budget(180):
        rng = random.Random(27182)
        for _ in range(200):
            n = rng.randint(2, 7)
            inst = random_instance(rng, 2, n)
            opt_ms = opt(inst)[0]
            built = constructions.thm4_tree(inst)
            outcome = equilibria.spe(inst, built.tree, built)
            assert outcome.makespan == opt_ms
            if n <= 5:
                method = "enumerate" if n <= 4 else "dp"
                report = measures.adaptive_spos(inst, method=method)
                assert report.witness_makespan == opt_ms
                if opt_ms > 0:
                    assert report.value == 1


def test_criterion_05_thm5_adaptive_spos_is_59_40():
    with budget(5):
        eps = F(1, 10)
        inst = constructions.gen_thm5(eps)
        assert measures.adaptive_tree_count(3, 3) == 24
        report = measures.adaptive_spos(inst, method="enumerate")
        assert report.value == F(59, 40)
        assert report.witness_makespan == F(59, 10)
        assert opt(inst)[0] == 4
        # The construction's exact value is 3/2 - eps/4 (with equality here),
        # consistent with the eps -> 0 bound of 3/2.
        assert report.value == F(3, 2) - eps / 4
        assert report.value >= F(3, 2) - eps / 4


def test_criterion_06_appendix_d_every_job_escapes_the_optimum():
    with budget(1):
        report = constructions.appendix_d_check()
        assert report.opt_makespan == 10
        assert report.opt_loads == (F(10), F(9), F(6))
        assert report.all_jobs_improve
        # Job 1 (size 7) improves by moving to M1: cost 7 < 9.
        (to_m1,) = [p for p in report.improving(0)]
        assert (to_m1.machine, to_m1.cost, to_m1.base_cost) == (0, F(7), F(9))
        # Each size-5 job improves by moving to M2: cost 7 < 10.
        for job in (1, 2):
            (to_m2,) = [p for p in report.improving(job)]
            assert (to_m2.machine, to_m2.cost, to_m2.base_cost) == (
                1,
                F(7),
                F(10),
            )


def test_criterion_07_example1_nash_set_and_poa_growth():
    with budget(1):
        five = constructions.gen_example1(5)
        assert equilibria.pure_nash(five) == {(1, 0), (0, 1)}
        report5 = measures.poa_pos(five)
        assert (report5.poa, report5.pos) == (5, 1)
        report100 = measures.poa_pos(constructions.gen_example1(100))
        assert (report100.poa, report100.pos) == (100, 1)


def test_criterion_08_structure_counts_with_pruning():
    with budget(120):
        assert lpsearch.count_structures(3)[1] == 48
        assert lpsearch.count_structures(4)[1] == 2560
        total5, pruned5 = lpsearch.count_structures(5)
        assert pruned5 == 5505024
        assert total5 == 2**31 == 2147483648


def test_criterion_09_lp_suite_and_search_invariants():
    with budget(120):
        # Simplex unit suite.
        one = F(1)
        a = lpsearch.simplex_solve(
            lpsearch.LpProblem(2, (one, F(0)), ((one, one),), (one,))
        )
        assert (a.status, a.value) == ("optimal", 1)
        b = lpsearch.simplex_solve(
            lpsearch.LpProblem(
                2,
                (F(3), F(5)),
                ((one, F(0)), (F(0), F(2)), (F(3), F(2))),
                (F(4), F(12), F(18)),
            )
        )
        assert (b.status, b.value, b.point) == ("optimal", 36, (F(2), F(6)))
        c = lpsearch.simplex_solve(
            lpsearch.LpProblem(1, (one,), ((one,),), (F(-1),))
        )
        assert c.status == "infeasible"
        d = lpsearch.simplex_solve(lpsearch.LpProblem(1, (one,), (), ()))
        assert d.status == "unbounded"

        # The flat (eps = 0) point is feasible for the proof structure's LP
        # with objective value 4, and the restricted search confirms >= 4.
        inst = constructions.gen_thm1(F(1, 100))
        structure = lpsearch.structure_from_spe(inst)
        lp = lpsearch.build_lp(structure, 17, 1)
        flat = constructions.gen_thm1(0)
        point = [flat.p[i][j] for j in range(5) for i in (0, 1)]
        for row, bound in zip(lp.rows, lp.rhs):
            assert sum(c * x for c, x in zip(row, point)) <= bound
        assert sum(c * x for c, x in zip(lp.objective, point)) == 4
        restricted = lpsearch.search(5, structures=[structure], opt_leaves=[17])
        assert restricted.value >= 4

        # Pruning parity and witness round-trips for n <= 3.
        for n in (2, 3):
            pruned = lpsearch.search(n)
            full = lpsearch.search(
                n,
                structures=lpsearch.enumerate_structures(
                    n, prune_obs1=False, prune_mirror=False, exclude_extreme_eq_leaf=False
                ),
            )
            assert pruned.value == full.value
            for result in (pruned, full):
                eq_leaf = result.structure.equilibrium_leaf()
                target = tuple(
                    lpsearch.leaf_machine(n, eq_leaf, depth)
                    for depth in range(n)
                )
                tree = AdaptiveTree.from_order(identity_order(n), 2)
                outcomes = equilibria.spe_outcome_set(result.witness, tree)
                assert any(
                    o.schedule == target and o.makespan == result.value
                    for o in outcomes
                )


def test_criterion_10_measure_chain_and_optimal_nash_existence():
    with budget(120):
        rng = random.Random(16180)
        for _ in range(100):
            n = rng.randint(2, 5)
            inst = random_instance(rng, 2, n)
            adaptive = measures.adaptive_spos(inst)
            best_order = measures.spos(inst)
            fixed = measures.spoa_fixed(inst, identity_order(n))
            assert (
                adaptive.witness_makespan
                <= best_order.witness_makespan
                <= fixed.witness_makespan
            )
            if opt(inst)[0] > 0:
                assert adaptive.value <= best_order.value <= fixed.value
        for _ in range(100):
            m = rng.randint(2, 3)
            n = rng.randint(2, 4)
            inst = random_instance(rng, m, n)
            opt_ms = opt(inst)[0]
            assert any(
                makespan(inst, schedule) == opt_ms
                for schedule in equilibria.pure_nash(inst)
            )
