"""SPoA / SPoS / adaptive SPoS and the pure-Nash PoA/PoS pair."""

import functools
import gc
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
    gen_appendix_d,
    gen_example1,
    gen_thm1,
    gen_thm2,
    gen_thm5,
    identity_order,
    iter_adaptive_trees,
    opt,
    poa_pos,
    pure_nash,
    spe_outcome_set,
    spoa_fixed,
    spos,
)
from seqsched import core, measures
from seqsched.core import integer_form
from seqsched.equilibria import Node, OutcomeMemo, outcome_from_int, survivors
from seqsched.verify import random_instance


def provenance_dp(inst, floor_stop=True, table=None):
    """The adaptive DP that records each outcome set's (mover, child sets)
    and then rebuilds the witness tree in a second walk: an oracle for the
    witness, value and outcome of `adaptive_spos`.  Its full root table
    gives the witness: the first root set, in insertion order, whose worst
    equals OPT (with `floor_stop`), else the least (worst, set).  Every
    state is collected in full, into `table` when one is given."""
    den, p, start = integer_form(inst)
    table = {} if table is None else table

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
    worst = {s: max(max(v) for v in s) for s in options}
    opt_ms = opt(inst)[0]
    target = min(options, key=lambda s: (worst[s], s))
    if floor_stop:
        target = next((s for s in options if worst[s] == opt_ms * den), target)
    tree = AdaptiveTree(inst.m, inst.n, realize(jobs, start, target))
    outcome = max(spe_outcome_set(inst, tree), key=lambda o: o.makespan)
    return tree, measures._ratio(outcome.makespan, opt_ms), outcome


def full_scan_dp(inst):
    """`measures._adaptive_minmax_dp` without the stop at the optimum: the
    witness is the least (worst, set) of the complete root table."""
    tree, value, outcome = provenance_dp(inst, floor_stop=False)
    return measures.MeasureReport(value, outcome.makespan, opt(inst)[0], tree, outcome)


MEASURES = {
    "spoa_fixed": lambda inst: spoa_fixed(inst, identity_order(inst.n)),
    "spos": spos,
    "dp": adaptive_spos,
    "enumerate": functools.partial(adaptive_spos, method="enumerate"),
}


def report_cases():
    """Seeded instances on 1 to 3 machines with positive rational entries,
    some with initial loads."""
    rng = random.Random(20250)
    cases = []
    for m in (1, 2, 3):
        for n in range(1, 5 if m < 3 else 4):
            for _ in range(3):
                rows = [
                    [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(m)
                ]
                loads = [rng.randint(0, 4) for _ in range(m)] if rng.random() < 0.4 else None
                cases.append(Instance.from_rows(rows, initial_loads=loads))
    return cases


@pytest.mark.parametrize("name", MEASURES)
class TestMeasureReports:
    """Every measure reports the instance's OPT and witness / OPT."""

    def test_zero_over_zero_is_one(self, name):
        report = MEASURES[name](Instance.from_rows([[0, 0], [0, 0]]))
        assert (report.value, report.witness_makespan, report.opt_makespan) == (1, 0, 0)

    def test_value_is_the_witness_over_opt(self, name):
        cases = report_cases()
        assert any(inst.initial_loads != (0,) * inst.m for inst in cases)
        for inst in cases:
            report = MEASURES[name](inst)
            assert report.opt_makespan == opt(inst)[0]
            assert report.value == report.witness_makespan / report.opt_makespan
            assert report.outcome.makespan == report.witness_makespan


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

    def test_report_matches_the_outcome_set_maximum(self):
        """The report equals the one built from the first outcome of greatest
        makespan in `spe_outcome_set`, whose order the kernel keeps."""
        rng = random.Random(4711)
        cases = [gen_thm2(k) for k in range(2, 6)]
        for m in (1, 2, 3):
            for n in range(7):
                for _ in range(3):

                    def entry():
                        return Fraction(rng.randint(0, 6), rng.randint(1, 3))

                    rows = [[entry() for _ in range(n)] for _ in range(m)]
                    loads = [entry() for _ in range(m)] if rng.random() < 0.5 else None
                    cases.append(Instance.from_rows(rows, initial_loads=loads))
        for inst in cases:
            order = tuple(rng.sample(range(inst.n), inst.n))
            opt_ms, _ = opt(inst)
            outcomes = spe_outcome_set(inst, AdaptiveTree.from_order(order, inst.m))
            worst = max(outcomes, key=lambda o: o.makespan)
            assert spoa_fixed(inst, order) == measures.MeasureReport(
                measures._ratio(worst.makespan, opt_ms), worst.makespan, opt_ms, order, worst
            )

    @pytest.mark.parametrize(
        "order, message",
        [
            ((0, 1, 2, 3, 3), "not a permutation"),
            ((0, 1, 2, 3), "tree shape does not match the instance"),
            ((0, 1, 2, 3, 4, 5), "tree shape does not match the instance"),
        ],
    )
    def test_rejects_bad_orders(self, order, message):
        with pytest.raises(ValueError, match=message):
            spoa_fixed(gen_thm1(Fraction(1, 100)), order)


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
        # All ties, but the first order already reaches the optimum.
        report = spos(Instance.from_rows([[1] * 8, [1] * 8]))
        assert (report.value, report.witness) == (1, identity_order(8))
        # 9! orders exceed the state budget: refused before any is scored.
        monkeypatch.setattr(measures, "survivors", None)
        with pytest.raises(BudgetExceededError, match=r"9! orders"):
            spos(Instance.from_rows([[1] * 9]))


def test_outcome_budget_counts_stored_outcomes(monkeypatch):
    # 5**6 leaves, all tied: the first order's subgames fit and reach OPT.
    report = spos(Instance.from_rows([[1] * 6 for _ in range(5)]))
    assert (report.value, report.witness) == (1, identity_order(6))
    # Five zero-time jobs tie every later subgame; no order reaches OPT
    # (spos is 11/10), so the orders' subgames hold too many outcomes.
    base = gen_appendix_d()
    inst = Instance.from_rows(
        [list(row) + [0] * 5 for row in base.p], initial_loads=base.initial_loads
    )
    with pytest.raises(BudgetExceededError, match="outcome sets too large"):
        spos(inst)
    # 70**2 leaves, but two trees and few stored outcomes.
    inst = Instance.from_rows([[1] * 2 for _ in range(70)])
    assert adaptive_spos(inst, method="enumerate").value == 1
    # The all-zero 2 x 4 order stores 3 subgames holding 2 + 4 + 8 outcomes.
    zeros, tree = Instance.from_rows([[0] * 4] * 2), AdaptiveTree.from_order(range(4), 2)
    monkeypatch.setattr(core, "STATE_BUDGET", 13)
    with pytest.raises(BudgetExceededError, match="over 13 subgame outcomes"):
        spe_outcome_set(zeros, tree)
    monkeypatch.setattr(core, "STATE_BUDGET", 14)
    assert len(spe_outcome_set(zeros, tree)) == 16


def full_scan_least_outcome(inst, candidates, pick):
    """`measures._least_outcome` without the stop at the optimum: every
    candidate is scored."""
    opt_ms, _ = opt(inst)
    den, p, start = integer_form(inst)
    memo = OutcomeMemo()
    best = None
    for witness, root in candidates:
        found = pick(survivors(p, root, start, memo), key=lambda o: max(o[1]))
        if best is None or max(found[1]) < max(best[1][1]):
            best = (witness, found)
    witness, (path, final) = best
    outcome = outcome_from_int(den, path, final)
    return measures.MeasureReport(
        measures._ratio(outcome.makespan, opt_ms), outcome.makespan, opt_ms, witness, outcome
    )


def floor_cases():
    """Seeded instances on 1 to 3 machines: entries 0..2 and 0..10, rational
    entries, initial loads, and zero optima."""
    rng = random.Random(20160)
    cases = [
        Instance.from_rows([[0, 0], [0, 0]]),
        Instance.from_rows([[0, 1, 2], [3, 0, 0]]),
        Instance.from_rows([[0, 2], [1, 0], [0, 0]]),
        Instance.from_rows([[0, 0, 0]]),
    ]
    for _ in range(80):
        m = rng.choice((1, 2, 3))
        n = rng.randint(1, 4 if m < 3 else 3)
        high = rng.choice((2, 10))
        den = rng.choice((1, 1, 2, 3))

        def entry():
            return Fraction(rng.randint(0, high), rng.choice((1, den)))

        rows = [[entry() for _ in range(n)] for _ in range(m)]
        loads = [entry() for _ in range(m)] if rng.random() < 0.3 else None
        cases.append(Instance.from_rows(rows, initial_loads=loads))
    return cases


def dp_floor_cases():
    """Seeded instances for the adaptive DP: m 1..3 and n 0..5, entries
    0..2 and 0..10, rational entries, initial loads, and zero optima; the
    first three admit no tree that reaches OPT."""
    rng = random.Random(20161)
    cases = [
        gen_appendix_d(),
        gen_thm5(Fraction(1, 3)),
        Instance.from_rows([[0, 2, 2, 4, 4], [5, 0, 2, 2, 4]]),
        Instance.from_rows([[0, 0, 0], [0, 0, 0]]),
        Instance.from_rows([[0, 1, 2, 0], [3, 0, 0, 1]]),
        Instance.from_rows([[0, 2, 0], [1, 0, 0], [0, 0, 1]]),
        Instance.from_rows([[0, 0, 0, 0, 0]]),
    ]
    for m in (1, 2, 3):
        for n in range(6):
            for _ in range(4):
                high = rng.choice((2, 10))
                den = rng.choice((1, 1, 2, 3))

                def entry():
                    return Fraction(rng.randint(0, high), rng.choice((1, den)))

                rows = [[entry() for _ in range(n)] for _ in range(m)]
                loads = [entry() for _ in range(m)] if rng.random() < 0.3 else None
                cases.append(Instance.from_rows(rows, initial_loads=loads))
    return cases


class TestOptimumFloor:
    """`spos` and `--method enumerate` stop at the first order or tree whose
    outcome reaches OPT; no later one could replace it.  The adaptive DP's
    root scan stops at the first outcome set whose worst reaches OPT; no
    later one could lower the value."""

    MEASURES = {
        "spos": spos,
        "enumerate": functools.partial(adaptive_spos, method="enumerate"),
    }

    @pytest.mark.parametrize("name", MEASURES)
    def test_reports_match_the_full_scan(self, name, monkeypatch):
        measure = self.MEASURES[name]
        cases = floor_cases()
        got = [measure(inst) for inst in cases]
        monkeypatch.setattr(measures, "_least_outcome", full_scan_least_outcome)
        assert [measure(inst) for inst in cases] == got

    def scored(self, monkeypatch, measure, inst):
        """The report, and how many candidates `_least_outcome` solved."""
        roots = []

        def counting(p, root, *rest):
            roots.append(root)
            return survivors(p, root, *rest)

        monkeypatch.setattr(measures, "survivors", counting)
        return measure(inst), len(roots)

    def test_floor_cuts_the_thm1_order_scan(self, monkeypatch):
        report, scored = self.scored(monkeypatch, spos, gen_thm1(Fraction(1, 100)))
        assert report.value == 1
        assert report.witness == (0, 1, 2, 4, 3)
        assert scored == 2  # of 5! orders

    def test_floor_never_fires_on_thm5(self, monkeypatch):
        measure = self.MEASURES["enumerate"]
        report, scored = self.scored(monkeypatch, measure, gen_thm5(Fraction(1, 10)))
        assert report.value == Fraction(59, 40)
        assert scored == adaptive_tree_count(3, 3)

    def test_dp_matches_the_full_scan(self, monkeypatch):
        cases = dp_floor_cases()
        got = [adaptive_spos(inst) for inst in cases]
        monkeypatch.setattr(measures, "_adaptive_minmax_dp", full_scan_dp)
        full = [adaptive_spos(inst) for inst in cases]
        assert [(r.value, r.witness_makespan) for r in got] == [
            (r.value, r.witness_makespan) for r in full
        ]
        # The root scan stops where some set's worst is OPT, so only there
        # may the witness tree differ from the full scan's.
        hits = [r.witness_makespan == r.opt_makespan for r in got]
        assert [r for r, hit in zip(got, hits) if not hit] == [
            r for r, hit in zip(full, hits) if not hit
        ]
        assert (sum(hits), len(cases)) == (75, 79)

    def test_dp_matches_the_provenance_oracle(self):
        for inst in dp_floor_cases():
            report = adaptive_spos(inst)
            assert (report.witness, report.value, report.outcome) == provenance_dp(inst)

    def test_dp_floor_never_fires_on_thm5(self, monkeypatch):
        inst = gen_thm5(Fraction(1, 10))
        report = adaptive_spos(inst)
        assert report.value == Fraction(59, 40)
        monkeypatch.setattr(measures, "_adaptive_minmax_dp", full_scan_dp)
        assert adaptive_spos(inst) == report


class TestLazyDp:
    """Every DP state produces its outcome sets on demand, so the root's
    stop at OPT also stops the states below it, and the sets it does store
    are held to `STATE_BUDGET` load vectors."""

    BUDGET = 2000

    def test_floor_stops_the_inner_states(self, monkeypatch):
        inst = random_instance(random.Random(1), 2, 8)
        table = {}
        provenance_dp(inst, table=table)
        inner = [sets for (remaining, _), sets in table.items() if 0 < len(remaining) < 8]
        assert sum(len(s) for sets in inner for s in sets) > self.BUDGET
        monkeypatch.setattr(core, "STATE_BUDGET", self.BUDGET)
        assert adaptive_spos(inst).value == 1

    def test_budget_counts_stored_load_vectors(self, monkeypatch):
        inst = gen_thm5(Fraction(1, 10))
        stored = []
        def clear(table):
            stored.append(table.stored)
            dict.clear(table)

        monkeypatch.setattr(core.StateMemo, "clear", clear)
        adaptive_spos(inst)
        assert stored == [46]
        monkeypatch.setattr(core, "STATE_BUDGET", 45)
        with pytest.raises(BudgetExceededError, match="over 45 stored load vectors"):
            adaptive_spos(inst)
        monkeypatch.setattr(core, "STATE_BUDGET", 46)
        assert adaptive_spos(inst).value == Fraction(59, 40)

    def test_symmetric_five_machines_are_refused(self):
        # Five equal rows 1..6: the load vectors grow past the budget.
        inst = Instance.from_rows([[1, 2, 3, 4, 5, 6]] * 5)
        with pytest.raises(BudgetExceededError, match="adaptive DP too large"):
            adaptive_spos(inst)

    def test_refusal_leaves_no_reference_cycles(self):
        inst = Instance.from_rows([[1, 2, 3, 4, 5, 6]] * 5)
        gc.collect()
        gc.disable()
        try:
            with pytest.raises(BudgetExceededError):
                adaptive_spos(inst)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.slow
    def test_two_by_nine_reaches_the_optimum(self):
        assert adaptive_spos(random_instance(random.Random(1), 2, 9)).value == 1


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

    def test_dp_witness_outcome_is_its_outcome_sets_first_maximum(self):
        # The DP scores its own witness through `_least_outcome`; the outcome
        # set of the validated witness tree is the oracle.  The 3 x 5
        # instance of value 5/4 and thm5 are ones where the floor never fires.
        rng = random.Random(2200)
        cases = [
            random_instance(rng, m, n)
            for m, top in ((2, 7), (3, 5))
            for n in range(2, top + 1)
            for _ in range(4)
        ]
        rows = [[1, 1, 1, 3, 0], [4, 4, 1, 3, 0], [2, 3, 4, 4, 0]]
        cases += [Instance.from_rows(rows, [1, 3, 0]), gen_thm5(Fraction(1, 10))]
        reports = [adaptive_spos(inst) for inst in cases]
        for inst, report in zip(cases, reports):
            report.witness.validate()
            outcomes = spe_outcome_set(inst, report.witness)
            assert report.outcome == max(outcomes, key=lambda o: o.makespan)
        assert [r.value for r in reports[-2:]] == [Fraction(5, 4), Fraction(59, 40)]

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
        with pytest.raises(BudgetExceededError, match="more than 200000 trees"):
            adaptive_spos(inst, method="enumerate")

    @pytest.mark.parametrize("n", [15, 40])
    def test_enumerate_refusal_is_short(self, n):
        # The tree count has thousands of digits at n=15, and building it
        # would not end at n=40; the refusal names the budget instead, and
        # comes before OPT's own refusal of 2**40 leaves.
        with pytest.raises(BudgetExceededError, match="trees") as refusal:
            adaptive_spos(Instance.from_rows([[1] * n] * 2), method="enumerate")
        assert len(str(refusal.value)) < 100

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
        assert report.equilibria
        assert report.poa == expected
        assert report.pos == 1
        assert report.opt_makespan == 1

    def test_a_pure_nash_equilibrium_always_exists(self):
        rng = random.Random(31337)
        for m in (1, 2, 3):
            for n in range(7):
                for _ in range(3):
                    rows = [
                        [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(n)]
                        for _ in range(m)
                    ]
                    loads = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(m)]
                    assert pure_nash(Instance.from_rows(rows, initial_loads=loads))

    def test_single_job(self):
        report = poa_pos(Instance.from_rows([[2], [3]]))
        assert (report.poa, report.pos) == (1, 1)

    def test_unbounded_ratio(self):
        # (M2, M1) is a Nash with makespan 1 while the optimum is 0.
        inst = Instance.from_rows([[0, 1], [1, 0]])
        report = poa_pos(inst)
        assert report.opt_makespan == 0
        assert report.equilibria
        assert report.poa is None
        assert report.pos == 1

    def test_witnesses_are_nash_schedules(self, rng):
        for _ in range(10):
            inst = random_instance(rng, 2, 3, high=4)
            report = poa_pos(inst)
            assert report.equilibria == pure_nash(inst)
            assert report.worst in report.equilibria
            assert report.best in report.equilibria
