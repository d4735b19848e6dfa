"""Instance generators, the two-group order, the punishment tree, and the
three-machine no-suitable-player check."""

import itertools
from fractions import Fraction

import pytest

from seqsched import (
    AdaptiveTree,
    BudgetExceededError,
    Instance,
    PreferHighest,
    appendix_d_check,
    constrained_opt,
    gen_appendix_d,
    gen_example1,
    gen_thm1,
    gen_thm2,
    gen_thm5,
    loads,
    makespan,
    opt,
    spe,
    spe_outcome_set,
    thm3_bound,
    thm3_groups,
    thm3_order,
    thm4_tree,
)
from seqsched.verify import random_instance

EPS = Fraction(1, 100)


class TestGenThm1:
    def test_exact_matrix(self):
        inst = gen_thm1(EPS)
        assert inst.p[0] == (
            3 - 11 * EPS,
            EPS,
            EPS,
            1 - 2 * EPS,
            2 - 8 * EPS,
        )
        assert inst.p[1] == (
            EPS,
            2 - 9 * EPS,
            2 - 8 * EPS,
            1 - 2 * EPS,
            1 - 2 * EPS,
        )
        assert opt(inst)[0] == 1

    @pytest.mark.parametrize("eps", [Fraction(-1, 100), Fraction(1, 13)])
    def test_rejects_out_of_range_eps(self, eps):
        with pytest.raises(ValueError):
            gen_thm1(eps)

    def test_eps_zero_collapses_to_integers(self):
        inst = gen_thm1(0)
        assert inst.p[0] == (3, 0, 0, 1, 2)
        assert inst.p[1] == (0, 2, 2, 1, 1)


class TestGenThm2:
    def test_k2_columns(self):
        inst = gen_thm2(2)
        columns = list(zip(*inst.p))
        assert columns == [(3, 0), (0, 2), (0, 2), (1, 1), (2, 1)]

    def test_k3_block_structure(self):
        inst = gen_thm2(3)
        columns = list(zip(*inst.p))
        assert inst.n == 8
        assert columns[0] == (4, 0)
        assert columns[3] == (3, 0)
        assert columns[6] == (1, 1)
        assert columns[7] == (2, 1)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_optimum_is_one(self, k):
        assert opt(gen_thm2(k))[0] == 1

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            gen_thm2(1)


class TestGenThm5:
    def test_exact_matrix(self):
        eps = Fraction(1, 10)
        inst = gen_thm5(eps)
        assert inst.p == (
            (4 - eps, 2, 2),
            (4, 3, 3),
            (6, 6 - eps, 6 - eps),
        )
        assert inst.p[2][1] == Fraction(59, 10)
        assert opt(inst)[0] == 4

    @pytest.mark.parametrize("eps", [-1, 1])
    def test_rejects_out_of_range_eps(self, eps):
        with pytest.raises(ValueError):
            gen_thm5(eps)


class TestGenExample1:
    def test_matrix_and_equilibria(self):
        inst = gen_example1(5)
        assert inst.p == ((1, 5), (5, 1))
        assert opt(inst)[0] == 1

    def test_rejects_small_l(self):
        with pytest.raises(ValueError):
            gen_example1(Fraction(1, 2))


class TestGenAppendixD:
    def test_identical_machines_with_presets(self):
        inst = gen_appendix_d()
        assert inst.m == 3
        assert all(row == (7, 5, 5) for row in inst.p)
        assert inst.initial_loads == (0, 2, 6)

    def test_constrained_optimum(self):
        ms, schedule = constrained_opt(gen_appendix_d(), {})
        assert ms == 10
        assert loads(gen_appendix_d(), schedule) == (10, 9, 6)


class TestThm3Order:
    def test_thm1_grouping(self):
        inst = gen_thm1(EPS)
        first, second = thm3_groups(inst)
        # Optimum puts jobs 1 and 5 on machine 2; the smaller group moves
        # first.
        assert first == (0, 4)
        assert second == (1, 2, 3)
        assert thm3_order(inst) == (0, 4, 1, 2, 3)
        assert thm3_bound(inst) == 3

    def test_groups_partition_by_the_optimum(self, rng):
        for _ in range(20):
            inst = random_instance(rng, 2, rng.randint(2, 6))
            first, second = thm3_groups(inst)
            order = thm3_order(inst)
            assert sorted(order) == list(range(inst.n))
            assert order == first + second
            assert len(first) <= len(second)
            _, schedule = opt(inst)
            machines_first = {schedule[j] for j in first}
            machines_second = {schedule[j] for j in second}
            if first:
                assert len(machines_first) == 1
                assert not (machines_first & machines_second)

    def test_bound_holds_on_the_outcome_set_minimum(self, rng):
        for _ in range(25):
            inst = random_instance(rng, 2, rng.randint(2, 6))
            opt_ms = opt(inst)[0]
            tree = AdaptiveTree.from_order(thm3_order(inst), 2)
            best = min(o.makespan for o in spe_outcome_set(inst, tree))
            assert best <= thm3_bound(inst)
            assert best <= (Fraction(inst.n, 2) + 1) * opt_ms


class TestThm4Tree:
    def test_thm1_root_recommendation(self):
        inst = gen_thm1(EPS)
        built = thm4_tree(inst)
        assert built.tree.root.player == 0
        assert built.recommendations[frozenset()] == 1
        forced_ms, _ = constrained_opt(inst, {0: 0})
        assert forced_ms == Fraction(291, 100)

    def test_single_job(self):
        built = thm4_tree(Instance.from_rows([[5], [2]]))
        assert built.tree.root.player == 0
        assert built.recommendations[frozenset()] == 1

    def test_recommended_play_is_optimal(self, rng):
        for _ in range(40):
            inst = random_instance(rng, 2, rng.randint(1, 7))
            built = thm4_tree(inst)
            outcome = spe(inst, built.tree, built.tie_rule())
            assert outcome.makespan == opt(inst)[0]

    @pytest.mark.parametrize(
        ("rows", "label"),
        [
            # Forcing the light-machine job onto the heavy machine can leave
            # the heavy load exactly at the old optimum while re-optimization
            # pulls nothing back; the indifferent mover must be selectable
            # (previously an internal error).
            ([[10, 10, 4, 0, 6, 9, 10], [1, 3, 1, 9, 0, 2, 0]], "equality"),
            # A job pulled off the heavy machine by the forced re-optimization
            # can still profit by deviating: pinning her frees the forced job
            # to return, leaving her machine light.  Selection must verify
            # the punishment instead of trusting the pull.
            ([[5, 3, 0, 8], [8, 1, 5, 10]], "unsafe-pull"),
            # Costs checked against canonical child optima go stale once a
            # deeper mover strictly deviates into an equally good optimum;
            # selection must use realized subtree outcomes.
            ([[0, 3, 5, 7, 8], [4, 10, 2, 4, 10]], "realized-costs"),
        ],
    )
    def test_selection_corner_regressions(self, rows, label):
        inst = Instance.from_rows(rows)
        built = thm4_tree(inst)
        outcome = spe(inst, built.tree, built.tie_rule())
        assert outcome.makespan == opt(inst)[0], label

    def test_adversarial_ties_still_optimal_here(self):
        # Exploratory, not a general guarantee: on this instance even the
        # worst outcome of the punishment tree stays optimal.
        inst = gen_thm1(EPS)
        built = thm4_tree(inst)
        worst = max(o.makespan for o in spe_outcome_set(inst, built.tree))
        assert worst == opt(inst)[0]

    def test_rejects_three_machines(self):
        with pytest.raises(ValueError, match="m = 2"):
            thm4_tree(gen_thm5(Fraction(1, 10)))

    def test_refuses_past_the_leaf_budget(self):
        with pytest.raises(BudgetExceededError, match=r"2\*\*27 leaves"):
            thm4_tree(Instance.from_rows([[1] * 27, [1] * 27]))

    def test_witnesses_annotate_every_node(self, rng):
        inst = random_instance(rng, 2, 4)
        built = thm4_tree(inst)
        root_ms, root_sched = built.witnesses[frozenset()]
        assert root_ms == opt(inst)[0]
        assert loads(inst, root_sched) == loads(inst, opt(inst)[1])

    def test_every_witness_is_the_constrained_optimum(self, rng):
        # Integer and rational instances, some with nonzero initial loads:
        # thm4_tree runs its optima on the integer-scaled instance.
        for index in range(24):
            n = rng.randint(1, 5)
            if index % 2:
                inst = random_instance(rng, 2, n)
            else:
                den = rng.choice((3, 7, 100))
                rows = [[Fraction(rng.randint(0, 9), den) for _ in range(n)] for _ in range(2)]
                inst = Instance.from_rows(rows, [Fraction(rng.randint(0, 4), den), 0])
            built = thm4_tree(inst)
            assert built.witnesses.keys() == built.recommendations.keys()
            for history, witness in built.witnesses.items():
                fixed = dict(history)
                assert witness == constrained_opt(inst, fixed)
                completions = [
                    s
                    for s in itertools.product(range(2), repeat=n)
                    if all(s[j] == c for j, c in fixed.items())
                ]
                best = min(completions, key=lambda s: (makespan(inst, s), s))
                assert witness == (makespan(inst, best), best)


class TestAppendixDCheck:
    def test_every_job_escapes_its_optimum_machine(self):
        report = appendix_d_check()
        assert report.opt_makespan == 10
        assert report.opt_loads == (10, 9, 6)
        assert report.all_jobs_improve
        for job in range(3):
            assert report.improving(job)

    def test_exact_probe_values(self):
        report = appendix_d_check()
        by_key = {(p.job, p.machine): p for p in report.probes}
        # The 7-job moves to the empty machine; each 5-job joins the 2-load
        # machine.
        assert by_key[(0, 0)].cost == 7
        assert by_key[(0, 0)].base_cost == 9
        assert by_key[(1, 1)].cost == 7
        assert by_key[(1, 1)].base_cost == 10
        assert by_key[(2, 1)].cost == 7
        assert by_key[(2, 1)].base_cost == 10
        assert not by_key[(0, 2)].improves
        assert not by_key[(1, 2)].improves

    def test_custom_instance_without_escapes(self):
        # Two dominant-machine jobs: nobody gains by deviating.
        inst = Instance.from_rows([[1, 1], [5, 5], [5, 5]])
        report = appendix_d_check(inst)
        assert not report.all_jobs_improve
