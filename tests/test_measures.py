"""SPoA / SPoS / adaptive SPoS and the pure-Nash PoA/PoS pair."""

import itertools
import random
from fractions import Fraction

import pytest

from seqsched import (
    AdaptiveTree,
    BudgetExceededError,
    Instance,
    adaptive_spos,
    adaptive_tree_count,
    gen_example1,
    gen_thm1,
    gen_thm2,
    gen_thm5,
    identity_order,
    iter_adaptive_trees,
    opt,
    poa_pos,
    spe_outcome_set,
    spoa_fixed,
    spos,
)
from seqsched import measures
from seqsched.core import integer_form
from seqsched.equilibria import Node
from seqsched.verify import random_instance


def provenance_dp(inst):
    """The adaptive DP that records each outcome set's (mover, child sets)
    and then rebuilds the witness tree in a second walk: an oracle for the
    witness, value and outcome of `adaptive_spos`."""
    _, p, start = integer_form(inst)
    table = {}

    def collect(remaining, cur):
        key = (remaining, cur)
        if key not in table:
            if not remaining:
                table[key] = {(cur,): None}
                return table[key]
            found = {}
            for j in sorted(remaining):
                child_options = []
                for c in range(len(p)):
                    nxt = cur[:c] + (cur[c] + p[c][j],) + cur[c + 1 :]
                    sets = collect(remaining - {j}, nxt)
                    child_options.append([(s, max(v[c] for v in s)) for s in sets])
                for combo in itertools.product(*child_options):
                    bar = min(w for _, w in combo)
                    merged = {
                        v for c, (s, _) in enumerate(combo) for v in s if v[c] <= bar
                    }
                    found.setdefault(tuple(sorted(merged)), (j, tuple(s for s, _ in combo)))
            table[key] = found
        return table[key]

    def realize(remaining, cur, target):
        if not remaining:
            return None
        j, combo = table[(remaining, cur)][target]
        children = []
        for c, s in enumerate(combo):
            nxt = cur[:c] + (cur[c] + p[c][j],) + cur[c + 1 :]
            children.append(realize(remaining - {j}, nxt, s))
        return Node(j, tuple(children))

    jobs = frozenset(range(inst.n))
    options = collect(jobs, start)
    target = min(options, key=lambda s: (max(max(v) for v in s), s))
    tree = AdaptiveTree(inst.m, inst.n, realize(jobs, start, target))
    outcome = max(spe_outcome_set(inst, tree), key=lambda o: o.makespan)
    return tree, measures._ratio(outcome.makespan, opt(inst)[0]), outcome


class TestSpoaFixed:
    def test_thm1_headline_value(self):
        report = spoa_fixed(gen_thm1(Fraction(1, 100)), identity_order(5))
        assert report.value == Fraction(387, 100)
        assert report.witness_makespan == Fraction(387, 100)
        assert report.opt_makespan == 1
        assert not report.unbounded

    def test_single_job_is_trivially_one(self):
        report = spoa_fixed(Instance.from_rows([[3], [5]]), identity_order(1))
        assert report.value == 1

    def test_is_the_outcome_set_maximum(self, rng):
        for _ in range(15):
            inst = random_instance(rng, 2, 4, high=4)
            report = spoa_fixed(inst, identity_order(4))
            outcomes = spe_outcome_set(inst, AdaptiveTree.from_order(range(4), 2))
            assert report.witness_makespan == max(o.makespan for o in outcomes)
            assert report.outcome.makespan == report.witness_makespan

    def test_zero_over_zero_is_one(self):
        report = spoa_fixed(Instance.from_rows([[0], [0]]), identity_order(1))
        assert report.value == 1
        assert report.opt_makespan == 0

    @pytest.mark.parametrize("k", range(2, 8))
    def test_thm2_family_forces_k_plus_2(self, k):
        # n = 3k - 1 reaches 20 jobs: 2**20 leaves, but the fixed-order tree
        # shares its nodes, so the outcome memo stays far below its budget.
        report = spoa_fixed(gen_thm2(k), identity_order(3 * k - 1))
        assert report.value == k + 2
        assert report.opt_makespan == 1


class TestSpos:
    def test_example1_reaches_the_optimum(self):
        assert spos(gen_example1(5)).value == 1

    def test_thm1_stays_under_the_order_bound(self):
        report = spos(gen_thm1(Fraction(1, 100)))
        assert report.value <= Fraction(7, 2)
        assert report.value >= 1

    def test_is_the_min_over_orders_of_the_outcome_minimum(self, rng):
        import itertools

        for _ in range(10):
            inst = random_instance(rng, 2, 3, high=4)
            expected = min(
                min(
                    o.makespan
                    for o in spe_outcome_set(
                        inst, AdaptiveTree.from_order(perm, 2)
                    )
                )
                for perm in itertools.permutations(range(3))
            )
            assert spos(inst).witness_makespan == expected

    def test_budget_guard(self, monkeypatch):
        inst = Instance.from_rows([[1] * 8, [1] * 8])
        with pytest.raises(BudgetExceededError):
            spos(inst)
        # 9! orders exceed the state budget: refused before any is scored.
        monkeypatch.setattr(measures, "survivors", None)
        with pytest.raises(BudgetExceededError, match=r"9! orders"):
            spos(Instance.from_rows([[1] * 9]))


def test_outcome_budget_counts_stored_outcomes():
    # 5**6 leaves, all tied: the orders' subgames hold too many outcomes.
    inst = Instance.from_rows([[1] * 6 for _ in range(5)])
    with pytest.raises(BudgetExceededError, match="outcome sets too large"):
        spos(inst)
    # 70**2 leaves, but two trees and few stored outcomes.
    inst = Instance.from_rows([[1] * 2 for _ in range(70)])
    assert adaptive_spos(inst, method="enumerate").value == 1


class TestAdaptiveTreeEnumeration:
    @pytest.mark.parametrize(
        "n, m, count",
        [(1, 2, 1), (2, 2, 2), (3, 2, 12), (4, 2, 576), (3, 3, 24), (5, 2, 1658880)],
    )
    def test_count_formula(self, n, m, count):
        assert adaptive_tree_count(n, m) == count

    @pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (3, 3)])
    def test_iterator_agrees_with_formula(self, n, m):
        trees = list(iter_adaptive_trees(n, m))
        assert len(trees) == adaptive_tree_count(n, m)
        assert len({t.root for t in trees}) == len(trees)
        for tree in trees:
            tree.validate()


class TestAdaptiveSpos:
    def test_thm5_guarantee_is_59_40(self):
        inst = gen_thm5(Fraction(1, 10))
        for method in ("dp", "enumerate"):
            report = adaptive_spos(inst, method=method)
            assert report.value == Fraction(59, 40)
            assert report.witness_makespan == Fraction(59, 10)
            assert report.opt_makespan == 4

    def test_thm5_witness_tree_reverifies(self):
        inst = gen_thm5(Fraction(1, 10))
        report = adaptive_spos(inst)
        outcomes = spe_outcome_set(inst, report.witness)
        assert max(o.makespan for o in outcomes) == report.witness_makespan

    def test_every_tree_scores_at_least_the_guarantee(self):
        inst = gen_thm5(Fraction(1, 10))
        scores = [
            max(o.makespan for o in spe_outcome_set(inst, tree))
            for tree in iter_adaptive_trees(3, 3)
        ]
        assert len(scores) == 24
        assert min(scores) == Fraction(59, 10)

    def test_optimistic_ties_would_collapse_the_thm5_bound(self):
        # The J1-first fixed order admits an optimal SPE outcome (the last
        # mover's 6-eps tie broken toward M1 pushes J1 onto M2), so a
        # min-over-outcomes convention could never certify a ratio above 1.
        inst = gen_thm5(Fraction(1, 10))
        tree = AdaptiveTree.from_order(range(3), 3)
        outcomes = spe_outcome_set(inst, tree)
        assert min(o.makespan for o in outcomes) == 4 == opt(inst)[0]

    def test_dp_equals_enumeration(self, rng):
        for _ in range(25):
            m = rng.choice([2, 2, 3])
            n = rng.randint(1, 4 if m == 2 else 3)
            inst = random_instance(rng, m, n, high=5)
            a = adaptive_spos(inst, method="dp")
            b = adaptive_spos(inst, method="enumerate")
            assert a.value == b.value
            assert a.witness_makespan == b.witness_makespan

    @pytest.mark.parametrize(
        ("m", "max_n", "high"), [(2, 5, 2), (2, 5, 10), (3, 4, 2), (3, 4, 10)]
    )
    def test_dp_witness_matches_the_provenance_oracle(self, m, max_n, high):
        rng = random.Random(9000 + 10 * m + high)
        for n in range(1, max_n + 1):
            for _ in range(25):
                inst = random_instance(rng, m, n, high=high)
                report = adaptive_spos(inst)
                assert (report.witness, report.value, report.outcome) == provenance_dp(
                    inst
                )

    def test_two_machines_always_reach_the_optimum(self, rng):
        for _ in range(25):
            inst = random_instance(rng, 2, rng.randint(1, 5))
            assert adaptive_spos(inst).value == 1

    def test_single_job(self):
        assert adaptive_spos(Instance.from_rows([[2], [1]])).value == 1

    def test_enumerate_budget_guard(self, monkeypatch):
        # 1,658,880 trees exceed the state budget: refused before any is scored.
        monkeypatch.setattr(measures, "survivors", None)
        inst = Instance.from_rows([[1] * 5, [1] * 5])
        with pytest.raises(BudgetExceededError, match="1658880 trees"):
            adaptive_spos(inst, method="enumerate")

    def test_unknown_method_rejected(self, two_by_two):
        with pytest.raises(ValueError, match="method"):
            adaptive_spos(two_by_two, method="guess")


class TestMeasureChain:
    def test_adaptive_le_spos_le_spoa(self, rng):
        for _ in range(25):
            inst = random_instance(rng, 2, rng.randint(2, 5), high=5)
            a = adaptive_spos(inst)
            s = spos(inst)
            w = spoa_fixed(inst, identity_order(inst.n))
            assert a.witness_makespan <= s.witness_makespan <= w.witness_makespan


class TestPoaPos:
    @pytest.mark.parametrize("l, expected", [(5, 5), (100, 100)])
    def test_example1_scales_with_l(self, l, expected):
        report = poa_pos(gen_example1(l))
        assert report.has_nash
        assert report.poa == expected
        assert report.pos == 1
        assert report.opt_makespan == 1

    def test_single_job(self):
        report = poa_pos(Instance.from_rows([[2], [3]]))
        assert (report.poa, report.pos) == (1, 1)

    def test_unbounded_ratio(self):
        # (M2, M1) is a Nash with makespan 1 while the optimum is 0.
        inst = Instance.from_rows([[0, 1], [1, 0]])
        report = poa_pos(inst)
        assert report.opt_makespan == 0
        assert report.has_nash
        assert report.poa is None
        assert report.pos == 1

    def test_witnesses_are_nash_schedules(self, rng):
        from seqsched import pure_nash

        for _ in range(10):
            inst = random_instance(rng, 2, 3, high=4)
            report = poa_pos(inst)
            if report.has_nash:
                nash = pure_nash(inst)
                assert report.worst in nash
                assert report.best in nash
