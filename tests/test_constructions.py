"""Instance generators, the two-group order, the punishment tree, and the
three-machine no-suitable-player check."""

import itertools
import random
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
from seqsched import core
from seqsched.core import integer_form
from seqsched.equilibria import Node
from seqsched.verify import random_instance

EPS = Fraction(1, 100)


def thm4_oracle(inst):
    """(tree, recommendations, witnesses, movers) of the Theorem-4
    construction with its memo keyed by frozenset(assignment.items()) and
    each node's realized loads summed from the start loads: an oracle for
    `thm4_tree`'s job-mask recursion.  All three maps cover every internal
    node built; `movers` gives its player."""
    den, p, start = integer_form(inst)
    memo = {}

    def subtree(assign):
        key = frozenset(assign.items())
        if key in memo:
            return memo[key]
        remaining = [j for j in range(inst.n) if j not in assign]
        if not remaining:
            final = list(start)
            for j, machine in assign.items():
                final[machine] += p[machine][j]
            schedule = tuple(assign[j] for j in range(inst.n))
            memo[key] = (None, tuple(final), max(final), schedule)
            return memo[key]
        least = [subtree({**assign, remaining[0]: machine}) for machine in (0, 1)]
        _, _, opt_ms, opt_sched = min(least, key=lambda entry: entry[2])
        star, fallback = None, None
        for j in remaining:
            plan = opt_sched[j]
            follow = subtree({**assign, j: plan})[1]
            deviated = subtree({**assign, j: 1 - plan})[1]
            if deviated[1 - plan] >= follow[plan]:
                star, realized = j, follow
                break
            if fallback is None and max(deviated) == opt_ms:
                fallback = (j, deviated)
        if star is None:
            star, realized = fallback
        children = tuple(subtree({**assign, star: machine})[0] for machine in (0, 1))
        memo[key] = (Node(star, children), realized, opt_ms, opt_sched)
        return memo[key]

    tree = AdaptiveTree(2, inst.n, subtree({})[0])
    internal = [(key, entry) for key, entry in memo.items() if entry[0] is not None]
    recommendations = {key: s[node.player] for key, (node, _, _, s) in internal}
    witnesses = {key: (Fraction(ms, den), s) for key, (_, _, ms, s) in internal}
    movers = {key: node.player for key, (node, _, _, _) in internal}
    return tree, recommendations, witnesses, movers


def reference_thm4_tree(inst):
    """(tree, plans) of `thm4_tree` built by the recursion it replaced, which
    lists the free jobs by index, slices the load tuples and picks the first
    job's better child with `min`: the reference for the bitmask walk."""
    _, p, start = integer_form(inst)
    memo = core.StateMemo("thm4 tree too large: over {} partial assignments")
    root = reference_thm4_subtree(0, 0, start, (p, memo))[0]
    plans = {key: opt_m2 for key, (node, _, _, opt_m2) in memo.items() if node}
    return AdaptiveTree(2, inst.n, root), plans


def reference_thm4_subtree(done, on_m2, cur, tables):
    p, memo = tables
    key = (done, on_m2)
    memo.charge(1)
    n = len(p[0])
    remaining = [j for j in range(n) if not done >> j & 1]
    if not remaining:
        memo[key] = (None, cur, max(cur), on_m2)
        return memo[key]

    def child(j, machine):
        below = (done | 1 << j, on_m2 | machine << j)
        entry = memo.get(below)
        if entry is None:
            nxt = cur[:machine] + (cur[machine] + p[machine][j],) + cur[machine + 1 :]
            entry = reference_thm4_subtree(*below, nxt, tables)
        return entry

    first = remaining[0]
    _, _, opt_ms, opt_m2 = min((child(first, 0), child(first, 1)), key=lambda e: e[2])
    star = None
    realized = None
    fallback = None
    for j in remaining:
        plan = opt_m2 >> j & 1
        follow_real = child(j, plan)[1]
        dev_real = child(j, 1 - plan)[1]
        if dev_real[1 - plan] >= follow_real[plan]:
            star = j
            realized = follow_real
            break
        if fallback is None and max(dev_real) == opt_ms:
            fallback = (j, dev_real)
    if star is None and fallback is not None:
        star, realized = fallback
    if star is None:
        raise RuntimeError("no safe mover")
    children = (child(star, 0)[0], child(star, 1)[0])
    memo[key] = (Node(star, children), realized, opt_ms, opt_m2)
    return memo[key]


def same_nodes(got, want, twins):
    """Whether two trees are equal node by node and share the same subtrees:
    `twins` maps the id of each node visited, in either tree, to its twin's."""
    if got is None or want is None:
        return got is None and want is None
    if id(got) in twins or id(want) in twins:
        return twins.get(id(got)) == id(want) and twins.get(id(want)) == id(got)
    twins[id(got)], twins[id(want)] = id(want), id(got)
    return (
        got.player == want.player
        and len(got.children) == len(want.children)
        and all(same_nodes(g, w, twins) for g, w in zip(got.children, want.children))
    )


def planned_history(key, n):
    """The assignment {job: machine} of a `Thm4Tree.plans` key."""
    done, on_m2 = key
    return {j: on_m2 >> j & 1 for j in range(n) if done >> j & 1}


def planned_schedule(plan, n):
    """The schedule of a `Thm4Tree.plans` value (an on-M2 mask)."""
    return tuple(plan >> j & 1 for j in range(n))


def thm4_oracle_cases():
    """Seeded two-machine instances with n <= 7: integer and rational entries,
    initial loads, and all-ones rows."""
    rng = random.Random(1729)
    cases = [Instance.from_rows([[1] * n, [1] * n]) for n in range(1, 8)]
    for index in range(150):
        n = rng.randint(1, 7)
        high = rng.choice((1, 2, 10))
        den = rng.choice((1, 3, 7, 100)) if index % 3 else 1
        rows = [[Fraction(rng.randint(0, high), den) for _ in range(n)] for _ in range(2)]
        loads = [Fraction(rng.randint(0, high), den) for _ in range(2)]
        cases.append(Instance.from_rows(rows, loads if index % 2 else None))
    return cases


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
        assert built.plans[0, 0] & 1 == 1
        forced_ms, _ = constrained_opt(inst, {0: 0})
        assert forced_ms == Fraction(291, 100)

    def test_single_job(self):
        built = thm4_tree(Instance.from_rows([[5], [2]]))
        assert built.tree.root.player == 0
        assert built.plans == {(0, 0): 1}

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

    def test_matches_the_frozenset_oracle(self):
        for inst in thm4_oracle_cases():
            built = thm4_tree(inst)
            tree, recommendations, witnesses, movers = thm4_oracle(inst)
            assert built.tree == tree
            histories = {
                frozenset(planned_history(key, inst.n).items()): plan
                for key, plan in built.plans.items()
            }
            planned = {h: plan >> movers[h] & 1 for h, plan in histories.items()}
            assert list(planned.items()) == list(recommendations.items())
            schedules = {h: planned_schedule(plan, inst.n) for h, plan in histories.items()}
            optima = {h: (makespan(inst, s), s) for h, s in schedules.items()}
            assert list(optima.items()) == list(witnesses.items())
            rule = built.tie_rule()
            for history, machine in recommendations.items():
                assert rule.choose(movers[history], dict(history), (0, 1)) == machine

    def test_matches_the_list_and_slice_recursion(self):
        rng = random.Random(2124)
        cases = thm4_oracle_cases()
        for index in range(320):
            n = rng.randint(0, 7)
            rows = [[rng.randint(0, 4) for _ in range(n)] for _ in range(2)]
            starts = [rng.randint(0, 4) for _ in range(2)] if index % 3 == 0 else None
            cases.append(Instance.from_rows(rows, starts))
        for inst in cases:
            built = thm4_tree(inst)
            built.tree.validate()  # `thm4_tree` does not validate its own tree
            tree, plans = reference_thm4_tree(inst)
            assert built.tree == tree
            assert same_nodes(built.tree.root, tree.root, {})
            assert list(built.plans.items()) == list(plans.items())

    def test_refuses_past_the_memo_budget(self, monkeypatch):
        # An all-ones 2 x 9 instance memoizes more than 1,000 assignments.
        inst = Instance.from_rows([[1] * 9, [1] * 9])
        monkeypatch.setattr(core, "STATE_BUDGET", 1000)
        with pytest.raises(BudgetExceededError, match="over 1000 partial assignments"):
            thm4_tree(inst)
        assert thm4_tree(Instance.from_rows([[1] * 5, [1] * 5])).tree.n == 5

    @pytest.mark.slow
    def test_memo_budget_falls_between_eleven_and_thirteen_jobs(self):
        ones = [Instance.from_rows([[1] * n, [1] * n]) for n in (11, 13)]
        assert len(thm4_tree(ones[0]).plans) == 85008
        with pytest.raises(BudgetExceededError, match="partial assignments"):
            thm4_tree(ones[1])

    def test_root_plan_is_the_optimum(self, rng):
        inst = random_instance(rng, 2, 4)
        built = thm4_tree(inst)
        root_sched = planned_schedule(built.plans[0, 0], inst.n)
        assert makespan(inst, root_sched) == opt(inst)[0]
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
            full = (1 << n) - 1
            assert all(on_m2 & ~done == 0 and done != full for done, on_m2 in built.plans)
            for key, plan in built.plans.items():
                fixed = planned_history(key, n)
                schedule = planned_schedule(plan, n)
                witness = (makespan(inst, schedule), schedule)
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
