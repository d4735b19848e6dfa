"""Named instance families and constructive orderings/trees.

Generators reproduce the lower-bound instances exactly (as rationals); the
ordering and tree builders implement the two upper-bound constructions: the
two-group player order (linear SPoS bound) and the adaptive tree whose SPE is
the optimum, built from constrained optima.

`thm4_tree` scales the instance to integers once (`core.integer_form`) and
finds every constrained optimum and realized load vector in one recursion on
ints.  Its subtree memo, a `core.StateMemo` charged with one assignment per
entry, lives for one call and is keyed by two job bitmasks, the assigned
jobs and those of them on M2; the returned `Thm4Tree.plans` keeps that key
and each internal node's optimum, as the on-M2 mask of its schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .core import (
    Instance,
    LoadVector,
    Rational,
    Schedule,
    StateMemo,
    as_rational,
    check_leaves,
    constrained_opt,
    integer_form,
    loads,
    opt,
)
from .equilibria import AdaptiveTree, Node, PlayerOrder, TieBreakRule


def gen_thm1(eps: Rational) -> Instance:
    """The 2x5 instance whose SPE makespan is 4 - 13*eps while opt is 1.

    Requires 0 <= eps < 1/13 (keeps every entry nonnegative and the gray
    allocation an equilibrium).
    """
    e = as_rational(eps)
    if not 0 <= e < Fraction(1, 13):
        raise ValueError(f"eps must lie in [0, 1/13), got {e}")
    one = Fraction(1)
    return Instance.from_rows(
        [
            [3 - 11 * e, e, e, one - 2 * e, 2 - 8 * e],
            [e, 2 - 9 * e, 2 - 8 * e, one - 2 * e, one - 2 * e],
        ]
    )


def gen_thm2(k: int) -> Instance:
    """The 3k-1 job family whose SPE makespan is k+2 while opt is 1.

    Jobs come in k-1 blocks of three followed by a two-job tail; block t
    (t = 0..k-2) has columns (k+1-t, 0), (0, k-t), (0, k-t), and the tail
    jobs are (1, 1) and (2, 1).
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    row1: list[Fraction] = []
    row2: list[Fraction] = []
    for t in range(k - 1):
        row1 += [Fraction(k + 1 - t), Fraction(0), Fraction(0)]
        row2 += [Fraction(0), Fraction(k - t), Fraction(k - t)]
    row1 += [Fraction(1), Fraction(2)]
    row2 += [Fraction(1), Fraction(1)]
    return Instance.from_rows([row1, row2])


def gen_thm5(eps: Rational) -> Instance:
    """The 3x3 instance showing adaptive SPoS >= (6 - eps) / 4.

    Requires 0 <= eps < 1.
    """
    e = as_rational(eps)
    if not 0 <= e < 1:
        raise ValueError(f"eps must lie in [0, 1), got {e}")
    return Instance.from_rows(
        [
            [4 - e, Fraction(2), Fraction(2)],
            [Fraction(4), Fraction(3), Fraction(3)],
            [Fraction(6), 6 - e, 6 - e],
        ]
    )


def gen_appendix_d() -> Instance:
    """Three identical machines with initial loads (0, 2, 6), jobs 7, 5, 5."""
    row = [Fraction(7), Fraction(5), Fraction(5)]
    return Instance.from_rows(
        [row, row, row], initial_loads=[Fraction(0), Fraction(2), Fraction(6)]
    )


def gen_example1(l: Rational) -> Instance:
    """Two jobs, two machines: M1 = (1, l), M2 = (l, 1); opt is always 1.

    Requires l >= 1; the one-shot game's PoA grows linearly in l while its
    PoS stays 1.
    """
    value = as_rational(l)
    if value < 1:
        raise ValueError(f"l must be >= 1, got {value}")
    one = Fraction(1)
    return Instance.from_rows([[one, value], [value, one]])


def thm3_groups(inst: Instance) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two optimal groups: (fewer-jobs group, the rest), both ascending.

    Group membership comes from the canonical optimum; when both machines
    hold equally many jobs, the first group is machine M1's.
    """
    if inst.m != 2:
        raise ValueError("the two-group order is defined for m = 2")
    _, schedule = opt(inst)
    on_m1 = tuple(j for j in range(inst.n) if schedule[j] == 0)
    on_m2 = tuple(j for j in range(inst.n) if schedule[j] == 1)
    first = on_m2 if len(on_m2) < len(on_m1) else on_m1
    rest = on_m1 if first is on_m2 else on_m2
    return first, rest


def thm3_order(inst: Instance) -> PlayerOrder:
    """The two-group order: the smaller optimal group first, then the rest."""
    first, rest = thm3_groups(inst)
    return first + rest


def thm3_bound(inst: Instance) -> Fraction:
    """The per-instance bound (|G1| + 1) * OPT certified for thm3_order."""
    first, _ = thm3_groups(inst)
    opt_ms, _ = opt(inst)
    return (len(first) + 1) * opt_ms


@dataclass(frozen=True)
class Thm4Tree:
    """An adaptive tree whose SPE (with recommended ties) is the optimum.

    `plans` maps each internal node built, keyed by (mask of the jobs assigned
    above it, mask of those on M2), to the on-M2 mask of its constrained
    optimum, so the node player's planned machine is ``plans[key] >> player & 1``.
    """

    tree: AdaptiveTree
    plans: Mapping[tuple[int, int], int]

    def tie_rule(self) -> TieBreakRule:
        """Ties go to the mover's planned machine.  Defined on this tree's
        histories only; at m = 2 a tie offers both machines, the plan's too."""
        return _PlannedTies(self.plans)


class _PlannedTies(TieBreakRule):
    def __init__(self, plans: Mapping[tuple[int, int], int]):
        self.plans = plans

    def choose(self, player, history, candidates):
        done = sum(1 << j for j in history)
        on_m2 = sum(machine << j for j, machine in history.items())
        return self.plans[done, on_m2] >> player & 1


def thm4_tree(inst: Instance) -> Thm4Tree:
    """Build the tree that makes the constrained optimum subgame perfect.

    At each node h with partial assignment A_h, the mover J*(h) is a player
    who cannot gain by deviating from the constrained optimum opt_h.  That
    is verified directly rather than inferred: subtrees are built bottom-up
    together with the final load vector that recommended play realizes in
    them, so the mover's staying cost is her planned machine's realized load
    in the follow child and her deviation cost is the other machine's
    realized load in the deviated child.  The first remaining job whose
    deviation cost is at least its staying cost is selected; she weakly
    prefers the plan, and the follow child's optimum extends opt_h, so the
    realized makespan is opt_h's.  When no job is punishable, a job whose
    deviated child still realizes makespan opt_h is accepted instead — the
    mover then strictly deviates, but into an equally good outcome.  Only
    when neither exists is the failure surfaced as an internal error, never
    patched.

    Subtrees are memoized by the partial assignment: the construction only
    depends on A_h, so histories reaching the same assignment share nodes.
    The memo holds at most `core.STATE_BUDGET` assignments.
    opt_h comes from the same recursion: a complete assignment is its own
    optimum, and a node takes the better optimum of its least free job's two
    children, M1's on a tie.  That is the lexicographically least minimizer
    `core.constrained_opt` returns.

    Raises:
        ValueError: if the instance does not have exactly two machines.
        BudgetExceededError: if 2 ** n exceeds `core.DEFAULT_BUDGET`, or
            the memo would exceed `core.STATE_BUDGET` assignments.
        RuntimeError: if no remaining job is safe to move (this would
            contradict the selection claim).
    """
    if inst.m != 2:
        raise ValueError("the construction is defined for m = 2")
    check_leaves(2, inst.n, "exact search")
    _, (p0, p1), start = integer_form(inst)
    memo = StateMemo("thm4 tree too large: over {} partial assignments")
    root = _thm4_subtree(0, 0, start, (p0, p1, (1 << inst.n) - 1, memo))[0]
    tree = AdaptiveTree(2, inst.n, root)
    tree.validate()
    plans = {key: opt_m2 for key, (node, _, _, opt_m2) in memo.items() if node}
    return Thm4Tree(tree, plans)


def _thm4_subtree(done: int, on_m2: int, cur: tuple[int, int], tables: tuple) -> tuple:
    """(node, realized int loads, opt makespan, opt on-M2 mask) below the
    partial assignment of the jobs in mask `done`, those in `on_m2` on M2,
    whose loads are `cur`.

    `tables` is (M1's row, M2's row, mask of all jobs, memo) of one
    `thm4_tree` call, whose memo does not hold the assignment yet and is
    charged for it on entry.  The optimum is the lexicographically least
    schedule of least makespan extending it; job j is on M2 in it iff bit j
    of its mask is set.  Free jobs are read by lowest set bit, ascending.
    """
    p0, p1, full, memo = tables
    key = (done, on_m2)
    memo.charge(1)
    free = full & ~done
    if not free:
        memo[key] = (None, cur, max(cur), on_m2)
        return memo[key]

    def child(bit: int, machine: int) -> tuple:
        below = (done | bit, on_m2 | bit if machine else on_m2)
        entry = memo.get(below)  # one lookup: the memo is a dict subclass
        if entry is None:
            j = bit.bit_length() - 1
            nxt = (cur[0], cur[1] + p1[j]) if machine else (cur[0] + p0[j], cur[1])
            entry = _thm4_subtree(*below, nxt, tables)
        return entry

    first = free & -free
    on1, on2 = child(first, 0), child(first, 1)
    _, _, opt_ms, opt_m2 = on2 if on2[2] < on1[2] else on1
    star = realized = fallback = None
    while free:
        bit = free & -free
        free ^= bit
        plan = 1 if opt_m2 & bit else 0
        follow_real = child(bit, plan)[1]
        dev_real = child(bit, 1 - plan)[1]
        if dev_real[1 - plan] >= follow_real[plan]:
            star, realized = bit, follow_real
            break
        if fallback is None and max(dev_real) == opt_ms:
            fallback = (bit, dev_real)
    if star is None and fallback is not None:
        # No job is punishable, but this mover's strict deviation
        # still realizes the optimum makespan, so the guarantee
        # survives her leaving the canonical plan.
        star, realized = fallback
    if star is None:
        n = full.bit_length()
        assigned = [(j, on_m2 >> j & 1) for j in range(n) if done >> j & 1]
        raise RuntimeError(
            f"no safe mover at assignment {assigned}; the selection claim fails"
        )
    children = (child(star, 0)[0], child(star, 1)[0])
    memo[key] = (Node(star.bit_length() - 1, children), realized, opt_ms, opt_m2)
    return memo[key]


@dataclass(frozen=True)
class DeviationProbe:
    """One forced deviation: job j moved to a non-optimal machine.

    `cost` is j's cost in the re-optimized completion; the probe improves
    when that is strictly below j's cost in the unforced constrained optimum.
    """

    job: int
    machine: int
    cost: Fraction
    base_cost: Fraction

    @property
    def improves(self) -> bool:
        return self.cost < self.base_cost


@dataclass(frozen=True)
class AppendixDReport:
    """Per-job deviation probes against the constrained optimum."""

    instance: Instance
    opt_makespan: Fraction
    opt_loads: LoadVector
    opt_schedule: Schedule
    probes: tuple[DeviationProbe, ...]

    def improving(self, job: int) -> tuple[DeviationProbe, ...]:
        return tuple(p for p in self.probes if p.job == job and p.improves)

    @property
    def all_jobs_improve(self) -> bool:
        return all(self.improving(j) for j in range(self.instance.n))


def appendix_d_check(inst: Instance | None = None) -> AppendixDReport:
    """Probe every job's deviations from the constrained optimum.

    On the appendix instance (the default) every job has an improving
    deviation, so no player satisfies the selection claim behind the
    two-machine optimum construction: it cannot extend to three machines.
    """
    if inst is None:
        inst = gen_appendix_d()
    opt_ms, opt_sched = constrained_opt(inst, {})
    opt_loads = loads(inst, opt_sched)
    probes: list[DeviationProbe] = []
    for j in range(inst.n):
        base = opt_loads[opt_sched[j]]
        for machine in range(inst.m):
            if machine == opt_sched[j]:
                continue
            _, deviated = constrained_opt(inst, {j: machine})
            cost = loads(inst, deviated)[machine]
            probes.append(DeviationProbe(j, machine, cost, base))
    return AppendixDReport(inst, opt_ms, opt_loads, opt_sched, tuple(probes))
