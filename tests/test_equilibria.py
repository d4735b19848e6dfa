"""Backward induction, outcome sets, and tie-breaking rules.

The oracles here recompute equilibria from the definitions with none of the
library's shortcuts: plain recursion over continuation choices, one outcome
per branch, every argmin branch taken.
"""

import itertools
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from seqsched import (
    AdaptiveTree,
    Instance,
    Node,
    PreferHighest,
    PreferLowest,
    ScriptedRule,
    SpeOutcome,
    Thm2Rule,
    TieBreakContractError,
    TieBreakRule,
    adaptive_spos,
    adaptive_tree_count,
    gen_thm1,
    gen_thm2,
    identity_order,
    iter_adaptive_trees,
    loads,
    opt,
    pure_nash,
    scripted_rule_thm2,
    spe,
    spe_outcome_set,
    spos,
    thm4_tree,
)
from seqsched.core import integer_form
from seqsched.equilibria import (
    OutcomeMemo,
    backward_induction,
    survivors,
)
from seqsched.measures import order_roots
from seqsched.verify import random_instance


def oracle_spe_schedule(inst, order, prefer_lowest=True):
    """Definitional backward induction for a fixed order and uniform ties."""

    def solve(idx, history):
        if idx == len(order):
            schedule = tuple(history[j] for j in range(inst.n))
            final = loads(inst, schedule)
            return schedule, final
        j = order[idx]
        best = None
        machines = range(inst.m) if prefer_lowest else reversed(range(inst.m))
        for c in machines:
            schedule, final = solve(idx + 1, {**history, j: c})
            cost = final[c]
            if best is None or cost < best[0]:
                best = (cost, schedule, final)
        return best[1], best[2]

    schedule, final = solve(0, {})
    return schedule, max(final)


def oracle_outcome_schedules(inst, tree):
    """Definitional outcome set: pick one continuation per branch, then any
    argmin branch; union over all combinations."""

    def solve(node, history):
        if node is None:
            schedule = tuple(history[j] for j in range(inst.n))
            return {schedule}
        j = node.player
        branch_sets = [
            solve(node.children[c], {**history, j: c}) for c in range(inst.m)
        ]
        results = set()
        for combo in itertools.product(*branch_sets):
            costs = [loads(inst, combo[c])[c] for c in range(inst.m)]
            floor = min(costs)
            for c in range(inst.m):
                if costs[c] == floor:
                    results.add(combo[c])
        return results

    return solve(tree.root, {})


def fraction_outcome_set(inst, tree):
    """The outcome-set recursion on `Fraction` loads, one `SpeOutcome` per
    leaf and a path prepended per level: the reference for the integer-scaled
    `spe_outcome_set`."""
    history = {}

    def collect(node, cur):
        if node is None:
            schedule = tuple(history[j] for j in range(inst.n))
            costs = tuple(cur[machine] for machine in schedule)
            return [SpeOutcome(schedule, cur, max(cur), costs, ())]
        j = node.player
        per_branch = []
        for machine, child in enumerate(node.children):
            nxt = list(cur)
            nxt[machine] += inst.p[machine][j]
            history[j] = machine
            per_branch.append(collect(child, tuple(nxt)))
            del history[j]
        worst = [max(o.costs[j] for o in branch) for branch in per_branch]
        result = []
        for machine, branch in enumerate(per_branch):
            others = [w for c, w in enumerate(worst) if c != machine]
            bar = min(others) if others else worst[machine]
            for o in branch:
                if o.costs[j] <= bar:
                    result.append(replace(o, path=((j, machine),) + o.path))
        return result

    return tuple(collect(tree.root, inst.initial_loads))


def fraction_spe(inst, tree, rule):
    """The `spe` recursion on `Fraction` loads, one `SpeOutcome` per leaf and
    a path prepended per level: the reference for the integer kernel."""
    history = {}

    def solve(node, cur):
        if node is None:
            schedule = tuple(history[j] for j in range(inst.n))
            costs = tuple(cur[machine] for machine in schedule)
            return SpeOutcome(schedule, cur, max(cur), costs, ())
        j = node.player
        options = []
        for machine, child in enumerate(node.children):
            nxt = list(cur)
            nxt[machine] += inst.p[machine][j]
            history[j] = machine
            options.append((machine, solve(child, tuple(nxt))))
            del history[j]
        best = min(outcome.costs[j] for _, outcome in options)
        tied = [(mach, o) for mach, o in options if o.costs[j] == best]
        machine, outcome = tied[0]
        if len(tied) > 1:
            machine = rule.choose(j, dict(history), tuple(m for m, _ in tied))
            outcome = dict(tied)[machine]
        return replace(outcome, path=((j, machine),) + outcome.path)

    return solve(tree.root, inst.initial_loads)


def fractional_instance(rng, m, n, den):
    """Small numerators over `den` (or a per-entry mix of 3, 7 and 100), so
    ties stay common, with nonzero initial loads on some machines."""

    def value():
        d = den or rng.choice((3, 7, 100))
        return Fraction(rng.randint(0, 3), d)

    rows = [[value() for _ in range(n)] for _ in range(m)]
    return Instance.from_rows(rows, [value() for _ in range(m)])


DENOMINATORS = (3, 7, 100, None)


def unshared_adaptive_trees(n, m):
    """Every adaptive tree built afresh, no node shared between trees: the
    reference for the order and content of `iter_adaptive_trees`."""

    def nodes(jobs):
        if not jobs:
            yield None
            return
        for j in jobs:
            rest = tuple(x for x in jobs if x != j)
            for children in child_tuples(rest, m):
                yield Node(j, children)

    def child_tuples(jobs, remaining):
        if remaining == 0:
            yield ()
            return
        for first in nodes(jobs):
            for rest in child_tuples(jobs, remaining - 1):
                yield (first,) + rest

    for root in nodes(tuple(range(n))):
        yield AdaptiveTree(m, n, root)


def unmemoized_best(candidates, score, pick):
    """First (candidate, outcome) minimizing `pick`'s choice from each
    candidate's `fraction_outcome_set`, replaced only on strict improvement."""
    best = None
    for candidate, tree in candidates:
        outcome = pick(score(tree), key=lambda o: o.makespan)
        if best is None or outcome.makespan < best[1].makespan:
            best = (candidate, outcome)
    return best


def expected_ratio(ms, opt_ms):
    if opt_ms > 0:
        return ms / opt_ms
    return Fraction(1) if ms == 0 else None


class TestIntegerKernel:
    """`spe_outcome_set` and the adaptive DP run on integer-scaled loads;
    they must return what the `Fraction` recursion returns."""

    @pytest.mark.parametrize("den", DENOMINATORS, ids=lambda d: f"den{d or 'mix'}")
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_fixed_order_trees_match_the_fraction_recursion(self, m, den):
        rng = random.Random(1000 * m + (den or 1))
        for n in range(6):
            for _ in range(4):
                inst = fractional_instance(rng, m, n, den)
                order = list(range(n))
                rng.shuffle(order)
                for tree in (
                    AdaptiveTree.from_order(order, m),
                    AdaptiveTree.from_order(range(n), m),
                ):
                    got = spe_outcome_set(inst, tree)
                    want = fraction_outcome_set(inst, tree)
                    assert got == want
                    assert repr(got) == repr(want)

    @pytest.mark.parametrize("den", DENOMINATORS, ids=lambda d: f"den{d or 'mix'}")
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_every_adaptive_tree_matches_the_fraction_recursion(self, m, den):
        rng = random.Random(2000 * m + (den or 1))
        for n in range(4):
            inst = fractional_instance(rng, m, n, den)
            for tree in iter_adaptive_trees(n, m):
                got = spe_outcome_set(inst, tree)
                assert got == fraction_outcome_set(inst, tree)

    @pytest.mark.parametrize("m,n", [(2, 4), (3, 3)])
    def test_dp_matches_tree_enumeration(self, m, n):
        rng = random.Random(31 * m + n)
        for den in DENOMINATORS:
            inst = fractional_instance(rng, m, n, den)
            dp = adaptive_spos(inst, method="dp")
            enum = adaptive_spos(inst, method="enumerate")
            assert dp.value == enum.value
            assert dp.witness_makespan == enum.witness_makespan

    @pytest.mark.parametrize("n, m", [(3, 2), (4, 2), (2, 3)])
    def test_shared_tree_iterator_yields_the_unshared_trees(self, n, m):
        trees = list(iter_adaptive_trees(n, m))
        assert trees == list(unshared_adaptive_trees(n, m))
        below_root = {id(child) for tree in trees for child in tree.root.children}
        assert len(below_root) == n * adaptive_tree_count(n - 1, m)

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_enumerate_and_spos_match_the_unmemoized_fraction_path(self, m):
        rng = random.Random(3000 + m)
        for n in range(4 if m == 3 else 5):
            for den in DENOMINATORS:
                inst = fractional_instance(rng, m, n, den)
                opt_ms = opt(inst)[0]
                score = lambda tree: fraction_outcome_set(inst, tree)
                reports = (
                    (
                        adaptive_spos(inst, method="enumerate"),
                        unmemoized_best(
                            ((t, t) for t in unshared_adaptive_trees(n, m)), score, max
                        ),
                    ),
                    (
                        spos(inst),
                        unmemoized_best(
                            (
                                (perm, AdaptiveTree.from_order(perm, m))
                                for perm in itertools.permutations(range(n))
                            ),
                            score,
                            min,
                        ),
                    ),
                )
                for report, (witness, outcome) in reports:
                    assert report.witness == witness
                    assert repr(report.outcome) == repr(outcome)
                    assert report.witness_makespan == outcome.makespan
                    assert report.value == expected_ratio(outcome.makespan, opt_ms)

    @pytest.mark.parametrize("n", (0, 1, 3))
    def test_one_machine_keeps_its_only_outcome(self, n):
        inst = Instance.from_rows([[Fraction(j + 1, 3) for j in range(n)]], [1])
        outcomes = spe_outcome_set(inst, AdaptiveTree.from_order(range(n), 1))
        assert [o.schedule for o in outcomes] == [(0,) * n]
        assert outcomes[0].makespan == 1 + Fraction(n * (n + 1), 6)
        assert adaptive_spos(inst).value == 1


SCRIPT = ScriptedRule(
    "player 2 when 1=M2 prefer 1\n"
    "player 2 when * prefer 2\n"
    "player 3 when 1=M1,2=M2 prefer 3\n"
    "player 4 when 3=M2 prefer 2\n"
    "player 5 when * prefer 2\n"
)


class TestSpeKernel:
    """`spe` runs the integer `backward_induction`; it must return what the
    `Fraction` recursion returns, path included."""

    @pytest.mark.parametrize("den", DENOMINATORS, ids=lambda d: f"den{d or 'mix'}")
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_fixed_and_adaptive_trees_match_the_fraction_recursion(self, m, den):
        rng = random.Random(4000 * m + (den or 1))
        for n in range(7):
            for _ in range(3):
                inst = fractional_instance(rng, m, n, den)
                order = list(range(n))
                rng.shuffle(order)
                trees = [AdaptiveTree.from_order(order, m)]
                if n <= 2:
                    trees += iter_adaptive_trees(n, m)
                for tree in trees:
                    for rule in (PreferLowest(), PreferHighest(), SCRIPT):
                        got = spe(inst, tree, rule)
                        assert got == fraction_spe(inst, tree, rule)

    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_thm2_rule_matches_the_fraction_recursion(self, k):
        inst = gen_thm2(k)
        tree = AdaptiveTree.from_order(range(inst.n), 2)
        got = spe(inst, tree, Thm2Rule(k))
        assert got == fraction_spe(inst, tree, Thm2Rule(k))
        assert got.makespan == k + 2

    def test_recommended_ties_match_the_fraction_recursion(self):
        rng = random.Random(4100)
        instances = [gen_thm1(Fraction(1, 100)), gen_thm1(0)]
        instances += [fractional_instance(rng, 2, n, None) for n in range(1, 6)]
        for inst in instances:
            built = thm4_tree(inst)
            got = spe(inst, built.tree, built.tie_rule())
            assert got == fraction_spe(inst, built.tree, built.tie_rule())
            assert got.makespan == opt(inst)[0]

    def test_rules_see_only_the_tied_machines(self):
        seen = []

        class Recorder(TieBreakRule):
            def choose(self, player, history, candidates):
                seen.append((player, history, candidates))
                return candidates[-1]

        # J2 ties between the two machines J1 left empty, so J1's branches
        # tie at cost 1 on all three machines.
        inst = Instance.from_rows([[1, 1], [1, 1], [1, 1]])
        outcome = spe(inst, AdaptiveTree.from_order((0, 1), 3), Recorder())
        assert outcome.schedule == (2, 1)
        assert seen[-1] == (0, {}, (0, 1, 2))
        assert all(candidates == tuple(sorted(candidates)) for *_, candidates in seen)
        assert (1, {0: 0}, (1, 2)) in seen


def reference_backward_induction(p, node, cur, rule, history, decisions=None):
    """The two-pass `backward_induction` the one-pass kernel replaced: every
    child solved into a list, then the least cost and the tied machines read
    off it by two generators.  The reference for `backward_induction`."""
    if node is None:
        return None, cur
    j = node.player
    options = []
    for c, child in enumerate(node.children):
        history[j] = c
        nxt = cur[:c] + (cur[c] + p[c][j],) + cur[c + 1 :]
        options.append(
            reference_backward_induction(p, child, nxt, rule, history, decisions)
        )
    del history[j]
    best = min(final[c] for c, (_, final) in enumerate(options))
    tied = tuple(c for c, (_, final) in enumerate(options) if final[c] == best)
    machine = tied[0]
    if len(tied) > 1:
        machine = rule.choose(j, dict(history), tied)
        if machine not in tied:
            raise TieBreakContractError(
                f"rule {rule.name!r} chose non-candidate machine {machine}"
            )
    if decisions is not None:
        decisions[tuple(history.values())] = machine
    path, final = options[machine]
    return ((j, machine), path), final


def reference_survivors(p, node, cur, memo):
    """The two-pass `survivors` the one-pass kernel replaced: the bar taken
    after every branch is read.  The reference for `survivors`."""
    if node is None:
        return [(None, cur)]
    j = node.player
    per_branch = []
    for c, child in enumerate(node.children):
        nxt = cur[:c] + (cur[c] + p[c][j],) + cur[c + 1 :]
        if child is None:
            per_branch.append([(None, nxt)])
            continue
        key = (id(child), nxt)
        entry = memo.get(key)
        if entry is None:
            found = reference_survivors(p, child, nxt, memo)
            memo.charge(len(found))
            entry = memo[key] = (child, found)
        per_branch.append(entry[1])
    bar = min(
        max(final[c] for _, final in branch) for c, branch in enumerate(per_branch)
    )
    return [
        (((j, c), path), final)
        for c, branch in enumerate(per_branch)
        for path, final in branch
        if final[c] <= bar
    ]


def reference_validate(tree):
    """`AdaptiveTree.validate` as it was with the set of child masks: the
    reference for its errors, and for which of several faults it names."""

    def players_below(node, seen):
        if node is None:
            return 0
        if id(node) not in seen:
            if not 0 <= node.player < tree.n:
                raise ValueError(f"player {node.player} out of range")
            if len(node.children) != tree.m:
                raise ValueError("internal node without exactly m children")
            below = {players_below(child, seen) for child in node.children}
            if len(below) != 1:
                raise ValueError("a path misses some players")
            (players,) = below
            if players >> node.player & 1:
                raise ValueError(f"player {node.player} repeats on a path")
            seen[id(node)] = players | 1 << node.player
        return seen[id(node)]

    if players_below(tree.root, {}) != (1 << tree.n) - 1:
        raise ValueError("a path misses some players")


def tie_instance(rng, m, n):
    """Entries 0..4, so ties are common; initial loads on about a third."""
    rows = [[rng.randint(0, 4) for _ in range(n)] for _ in range(m)]
    starts = [rng.randint(0, 4) for _ in range(m)] if rng.random() < 0.35 else None
    return Instance.from_rows(rows, starts)


def random_adaptive_tree(rng, m, n):
    """An adaptive tree whose every node picks its mover afresh at random."""

    def build(jobs):
        if not jobs:
            return None
        j = rng.choice(jobs)
        rest = [x for x in jobs if x != j]
        return Node(j, tuple(build(rest) for _ in range(m)))

    return AdaptiveTree(m, n, build(list(range(n))))


def kernel_cases():
    """(instance, tree, tie rules) on 420 seeded instances: m in {1, 2, 3},
    n in 0..6, a random order's tree and a random adaptive tree each, and on
    two machines the Theorem-4 tree with its own tie rule too."""
    rng = random.Random(2121)
    cases = []
    for index in range(420):
        m = (1, 2, 3)[index % 3]
        n = rng.randint(0, 6)
        inst = tie_instance(rng, m, n)
        rules = [PreferLowest(), PreferHighest(), SCRIPT, Thm2Rule(2)]
        order = list(range(n))
        rng.shuffle(order)
        cases.append((inst, AdaptiveTree.from_order(order, m), rules))
        cases.append((inst, random_adaptive_tree(rng, m, n), rules))
        if m == 2:
            built = thm4_tree(inst)
            cases.append((inst, built.tree, [built.tie_rule(), SCRIPT]))
    return cases


def break_node(rng, node, m, n):
    """`node` with one random fault at a random depth below it: a player out
    of range, a repeated or changed player, a child dropped or added, or a
    subtree cut to a leaf.  May leave the tree valid."""
    if node is None:
        return Node(rng.randint(0, n - 1), (None,) * m)
    if not node.children or rng.random() < 0.4:
        kind = rng.randrange(5)
        if kind == 0:
            return Node(rng.choice((-1, n, n + 2)), node.children)
        if kind == 1:
            return Node(rng.randint(0, n - 1), node.children)
        if kind == 2:
            return Node(node.player, node.children[:-1])
        if kind == 3:
            return Node(node.player, node.children + (None,))
        return None
    children = list(node.children)
    c = rng.randrange(len(children))
    children[c] = break_node(rng, children[c], m, n)
    return Node(node.player, tuple(children))


class RecordingRule(TieBreakRule):
    """Records every `choose` call, arguments in order, and takes the last
    candidate: a rule that sees the order of the tied machines."""

    def __init__(self):
        self.calls = []

    def choose(self, player, history, candidates):
        self.calls.append((player, list(history.items()), candidates))
        return candidates[-1]


class TestOnePassKernelsMatchTheReference:
    """`backward_induction`, `survivors` and `AdaptiveTree.validate` read each
    node's children once; the two-pass code they replaced, kept above, must
    give the same results and errors."""

    def test_backward_induction(self):
        for inst, tree, rules in kernel_cases():
            _, p, start = integer_form(inst)
            pairs = [(rule, rule) for rule in rules] + [(RecordingRule(), RecordingRule())]
            for got_rule, want_rule in pairs:
                got_decisions, want_decisions = {}, {}
                got = backward_induction(
                    p, tree.root, start, got_rule, {}, got_decisions
                )
                want = reference_backward_induction(
                    p, tree.root, start, want_rule, {}, want_decisions
                )
                assert got == want
                assert list(got_decisions.items()) == list(want_decisions.items())
            assert got_rule.calls == want_rule.calls

    def test_survivors(self):
        for inst, tree, _ in kernel_cases():
            _, p, start = integer_form(inst)
            got_memo, want_memo = OutcomeMemo(), OutcomeMemo()
            got = survivors(p, tree.root, start, got_memo)
            assert got == reference_survivors(p, tree.root, start, want_memo)
            assert list(got_memo) == list(want_memo)
            assert got_memo.stored == want_memo.stored

    def test_survivors_over_orders_sharing_one_memo(self):
        rng = random.Random(2122)
        for m in (1, 2, 3):
            for n in range(5):
                inst = tie_instance(rng, m, n)
                _, p, start = integer_form(inst)
                orders = list(itertools.permutations(range(n)))
                got_memo, want_memo = OutcomeMemo(), OutcomeMemo()
                for _, root in order_roots(orders, m):
                    got = survivors(p, root, start, got_memo)
                    assert got == reference_survivors(p, root, start, want_memo)
                assert list(got_memo) == list(want_memo)

    def test_tie_rule_contract_error(self):
        class Outsider(TieBreakRule):
            def choose(self, player, history, candidates):
                return 7

        inst = Instance.from_rows([[1, 1], [1, 1]])
        _, p, start = integer_form(inst)
        root = AdaptiveTree.from_order((0, 1), 2).root
        messages = []
        for kernel in (backward_induction, reference_backward_induction):
            with pytest.raises(TieBreakContractError) as caught:
                kernel(p, root, start, Outsider(), {})
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    def test_validate_errors(self):
        rng = random.Random(2123)
        faults = []
        trees = [AdaptiveTree(0, 1, Node(0, ()))]  # no children: no path
        for index in range(400):
            m, n = rng.randint(1, 3), rng.randint(1, 5)
            tree = random_adaptive_tree(rng, m, n)
            for _ in range(1 + index % 3):
                tree = AdaptiveTree(m, n, break_node(rng, tree.root, m, n))
            trees.append(tree)
        for tree in trees:
            try:
                reference_validate(tree)
                want = None
            except ValueError as exc:
                want = str(exc)
            try:
                tree.validate()
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == want
            faults.append(want)
        # Each kind of fault, and valid trees, among the cases.
        assert {
            None,
            "a path misses some players",
            "internal node without exactly m children",
        } <= set(faults)
        assert any(f and f.endswith("out of range") for f in faults)
        assert any(f and f.endswith("repeats on a path") for f in faults)


class TestSpe:
    def test_first_mover_takes_the_short_side(self, two_by_two):
        tree = AdaptiveTree.from_order((0, 1), 2)
        outcome = spe(two_by_two, tree, PreferLowest())
        assert outcome.schedule == (1, 0)
        assert outcome.makespan == 1
        assert outcome.costs == (Fraction(1), Fraction(1))
        assert outcome.path == ((0, 1), (1, 0))

    def test_matches_definitional_oracle(self, rng):
        for _ in range(30):
            m = rng.choice([2, 2, 3])
            n = rng.randint(1, 4)
            inst = random_instance(rng, m, n)
            order = list(range(n))
            rng.shuffle(order)
            tree = AdaptiveTree.from_order(order, m)
            for rule, lowest in ((PreferLowest(), True), (PreferHighest(), False)):
                outcome = spe(inst, tree, rule)
                schedule, ms = oracle_spe_schedule(inst, order, lowest)
                assert outcome.schedule == schedule
                assert outcome.makespan == ms

    def test_costs_are_final_loads(self, rng):
        inst = random_instance(rng, 2, 4)
        outcome = spe(inst, AdaptiveTree.from_order(range(4), 2), PreferLowest())
        final = loads(inst, outcome.schedule)
        assert outcome.loads == final
        assert outcome.costs == tuple(final[c] for c in outcome.schedule)

    def test_shape_mismatch_rejected(self, two_by_two):
        with pytest.raises(ValueError, match="shape"):
            spe(two_by_two, AdaptiveTree.from_order((0, 1, 2), 2), PreferLowest())

    def test_contract_violation_surfaces(self):
        class Defector(TieBreakRule):
            name = "defector"

            def choose(self, player, history, candidates):
                return next(c for c in range(3) if c not in candidates)

        # The only job is tied between M1 and M2; the rule picks M3.
        tie_instance = Instance.from_rows([[1], [1], [5]])
        with pytest.raises(TieBreakContractError):
            spe(tie_instance, AdaptiveTree.from_order((0,), 3), Defector())


class TestOutcomeSet:
    def test_singleton_without_ties(self, two_by_two):
        tree = AdaptiveTree.from_order((0, 1), 2)
        outcomes = spe_outcome_set(two_by_two, tree)
        assert [o.schedule for o in outcomes] == [(1, 0)]

    def test_matches_definitional_oracle(self, rng):
        # Small integer times make exact ties common.
        for _ in range(40):
            m = rng.choice([2, 2, 3])
            n = rng.randint(1, 4 if m == 2 else 3)
            inst = random_instance(rng, m, n, high=3)
            tree = AdaptiveTree.from_order(range(n), m)
            got = {o.schedule for o in spe_outcome_set(inst, tree)}
            assert got == oracle_outcome_schedules(inst, tree)

    def test_every_tie_rule_spe_lands_in_the_set(self, rng):
        for _ in range(20):
            inst = random_instance(rng, 2, 4, high=3)
            tree = AdaptiveTree.from_order(range(4), 2)
            schedules = {o.schedule for o in spe_outcome_set(inst, tree)}
            for rule in (PreferLowest(), PreferHighest()):
                assert spe(inst, tree, rule).schedule in schedules

    def test_outcome_fields_are_consistent(self, rng):
        inst = random_instance(rng, 2, 4, high=3)
        tree = AdaptiveTree.from_order(range(4), 2)
        for outcome in spe_outcome_set(inst, tree):
            assert outcome.loads == loads(inst, outcome.schedule)
            assert outcome.makespan == max(outcome.loads)
            node = tree.root
            for player, machine in outcome.path:
                assert node.player == player
                node = node.children[machine]
            assert node is None
            assert dict(outcome.path) == dict(enumerate(outcome.schedule))


class TestThm1:
    def test_lowest_tie_equilibrium_is_the_gray_allocation(self):
        inst = gen_thm1(Fraction(1, 100))
        tree = AdaptiveTree.from_order(range(5), 2)
        outcome = spe(inst, tree, PreferLowest())
        assert outcome.schedule == (0, 1, 0, 1, 1)
        assert outcome.makespan == Fraction(387, 100)
        assert opt(inst)[0] == 1

    def test_worst_outcome_is_the_lowest_tie_one(self):
        inst = gen_thm1(Fraction(1, 100))
        tree = AdaptiveTree.from_order(range(5), 2)
        worst = max(o.makespan for o in spe_outcome_set(inst, tree))
        assert worst == Fraction(387, 100)


class TestThm2Rule:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_scripted_equilibrium_attains_the_outcome_set_worst(self, k):
        inst = gen_thm2(k)
        tree = AdaptiveTree.from_order(range(inst.n), 2)
        outcome = spe(inst, tree, scripted_rule_thm2(k))
        assert outcome.makespan == k + 2
        worst = max(o.makespan for o in spe_outcome_set(inst, tree))
        assert worst == k + 2
        assert opt(inst)[0] == 1

    def test_factory_returns_the_rule(self):
        assert isinstance(scripted_rule_thm2(3), Thm2Rule)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            Thm2Rule(1)


class TestScriptedRule:
    def test_table_first_match_wins(self):
        rule = ScriptedRule(
            "# punish deviations\n"
            "player 2 when 1=M2 prefer 1\n"
            "player 2 when * prefer 2\n"
        )
        tie = (0, 1)
        assert rule.choose(1, {0: 1}, tie) == 0
        assert rule.choose(1, {0: 0}, tie) == 1

    def test_unmatched_histories_fall_back_to_lowest(self):
        rule = ScriptedRule("player 1 when * prefer 2\n")
        assert rule.choose(3, {}, (0, 1)) == 0

    def test_conditions_must_all_hold(self):
        rule = ScriptedRule("player 3 when 1=M1,2=M2 prefer 2\n")
        tie = (0, 1)
        assert rule.choose(2, {0: 0, 1: 1}, tie) == 1
        assert rule.choose(2, {0: 0, 1: 0}, tie) == 0

    @pytest.mark.parametrize(
        "table, fragment",
        [
            ("player x when * prefer 1\n", "player must be"),
            ("player 1 prefer 1\n", "bad rule syntax"),
            ("when * prefer 1\n", "bad rule syntax"),
            ("player 0 when * prefer M0\n", "player must be"),
            ("player -1 when * prefer 1\n", "player must be"),
            ("player 1 when * prefer M0\n", "machine must be"),
            ("player 1 when * prefer Mx\n", "machine must be"),
            ("player 1.5 when * prefer 1\n", "player must be"),
            ("player 1 when 0=M1 prefer 1\n", "bad entry '0=M1'"),
            ("player 1 when x=M1 prefer 1\n", "bad entry 'x=M1'"),
            ("player 1 when 2=M0 prefer 1\n", "bad entry '2=M0'"),
            ("player 1 when 2=M1, prefer 1\n", "bad entry ''"),
            ("player 2 when 1=M1,1=M2 prefer M2\n", "entry '1=M2' repeats job 1"),
        ],
    )
    def test_malformed_lines_rejected(self, table, fragment):
        with pytest.raises(ValueError, match="^line 2: " + fragment):
            ScriptedRule("# header\n" + table)

    def test_condition_machine_prefix_is_optional(self):
        # `core.assignments` reads conditions as it reads `--fix`: `2=1` is J2 on M1.
        rule = ScriptedRule("player 1 when 2=1 prefer 1\n")
        assert rule.rows == [(0, {1: 0}, 0, 1)]
        assert rule.rows == ScriptedRule("player 1 when 2=M1 prefer M1\n").rows

    def test_lines_are_split_like_instance_files(self):
        # One `core.data_lines` reader: CRLF and tabs read as LF and spaces,
        # other Unicode whitespace stays inside its token.
        lf = "# header\nplayer 2 when 1=M2 prefer 1\n\nplayer 2 when * prefer 2\n"
        want = ScriptedRule(lf).rows
        assert ScriptedRule(lf.replace("\n", "\r\n")).rows == want
        assert ScriptedRule(lf.replace(" ", " \t ")).rows == want
        for blank in ("\xa0", "\u3000", "\x0b", "\u2028"):
            with pytest.raises(ValueError, match="^line 4: bad rule syntax"):
                ScriptedRule(lf.replace("when * prefer", f"when{blank}* prefer"))

    def test_shape_check_names_the_line(self):
        rule = ScriptedRule("player 2 when 1=M2 prefer 1\nplayer 3 when * prefer 1\n")
        rule.check_shape(3, 2)
        with pytest.raises(ValueError, match="^line 2: job 3 out of range 1..2"):
            rule.check_shape(2, 2)
        with pytest.raises(ValueError, match="^line 1: machine M2 out of range M1..M1"):
            rule.check_shape(3, 1)


class TestAdaptiveTreeShape:
    def test_from_order_and_identity(self):
        assert identity_order(4) == (0, 1, 2, 3)
        tree = AdaptiveTree.from_order(identity_order(3), 2)
        tree.validate()
        assert tree.root.player == 0
        assert {child.player for child in tree.root.children} == {1}

    def test_validate_rejects_wrong_arity(self):
        bad = AdaptiveTree(2, 1, Node(0, ()))
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_rejects_repeated_player(self):
        leafpair = (None, None)
        bad = AdaptiveTree(
            2, 2, Node(0, (Node(0, leafpair), Node(1, leafpair)))
        )
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_names_the_repeated_player(self):
        leafpair = (None, None)
        twice = AdaptiveTree(2, 2, Node(1, (Node(1, leafpair), Node(1, leafpair))))
        with pytest.raises(ValueError, match="player 1 repeats on a path"):
            twice.validate()
        with pytest.raises(ValueError, match="player 5 out of range"):
            AdaptiveTree(2, 1, Node(5, (None, None))).validate()
        AdaptiveTree(2, 2, Node(1, (Node(0, leafpair),) * 2)).validate()

    @pytest.mark.parametrize("solve", [
        lambda inst, tree: spe(inst, tree, PreferLowest()),
        spe_outcome_set,
    ], ids=["spe", "spe_outcome_set"])
    def test_solvers_reject_paths_that_miss_players(self, solve):
        inst = Instance.from_rows([[1, 2], [2, 1]])
        short = AdaptiveTree(2, 2, Node(0, (None, None)))
        with pytest.raises(ValueError, match="a path misses some players"):
            solve(inst, short)

    def test_validate_visits_shared_nodes_once(self):
        # 2**20 root-to-leaf paths, but 20 distinct nodes.
        tree = AdaptiveTree.from_order(range(20), 2)
        start = time.perf_counter()
        tree.validate()
        assert time.perf_counter() - start < 0.05


def fraction_pure_nash(inst):
    """`pure_nash` by its definition on `Fraction` loads: the reference for
    the integer kernel."""
    found = set()
    for schedule in itertools.product(range(inst.m), repeat=inst.n):
        final = loads(inst, schedule)
        if all(
            final[c] + inst.p[c][j] >= final[schedule[j]]
            for j in range(inst.n)
            for c in range(inst.m)
            if c != schedule[j]
        ):
            found.add(schedule)
    return found


class TestPureNash:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("den", DENOMINATORS)
    def test_matches_the_fraction_oracle(self, m, den):
        rng = random.Random(31 * m + (den or 0))
        for _ in range(12):
            inst = fractional_instance(rng, m, rng.randint(0, 5 if m < 3 else 4), den)
            assert pure_nash(inst) == fraction_pure_nash(inst)

    def test_brute_force_definition(self, rng):
        for _ in range(25):
            m = rng.choice([2, 3])
            inst = random_instance(rng, m, rng.randint(1, 4), high=4)
            assert pure_nash(inst) == fraction_pure_nash(inst)
