"""Inefficiency measures: SPoA, SPoS, adaptive SPoS, and PoA/PoS.

Tie conventions: `spoa_fixed` takes the *maximum* makespan over the outcome
set (adversarial ties); `spos` takes the minimum (optimistic ties) before
minimizing over orders; `adaptive_spos` scores each tree by its *worst*
outcome and then minimizes over trees, so the reported value is a guarantee
that holds no matter how ties are resolved once the tree is fixed.  Under
the optimistic convention the gen_thm5 lower bound would vanish: the
J1-first order's outcome set contains the optimum (the last mover's tie
broken toward machine 1 makes J1 strictly prefer machine 2), so every
measure would collapse to 1 there.

Every measure runs on the instance scaled to integers by one common
denominator (`core.integer_form`).  The scaling is exact; `Fraction`s
appear only at the API boundary (the reports and the witness check).  A
measure names only its candidates and how it scores ties (`min` or `max`);
`_least_outcome` reads OPT from the instance (`core.opt` is kept there),
scores the candidates and builds the `MeasureReport`.  No outcome is below
OPT, so its scan, like the adaptive DP's root scan, stops at the first
candidate that reaches it.  Each call makes its own memo (the outcomes of
`_least_outcome`, the DP's lazy state table), a `core.StateMemo` charged
with what it stores and held to `core.STATE_BUDGET`, like the number of
orders or trees to score.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterator

from . import core
from .core import (
    BudgetExceededError,
    Instance,
    Schedule,
    StateMemo,
    integer_form,
    makespan,
    opt,
)
from .equilibria import (
    AdaptiveTree,
    Node,
    OutcomeMemo,
    PlayerOrder,
    SpeOutcome,
    order_roots,
    outcome_from_int,
    pure_nash,
    survivors,
)


@dataclass(frozen=True)
class MeasureReport:
    """A measured ratio together with the object attaining it.

    `value` is witness_makespan / opt_makespan, or ``None`` when the ratio is
    unbounded (zero optimum, positive witness).
    """

    value: Fraction | None
    witness_makespan: Fraction
    opt_makespan: Fraction
    witness: object
    outcome: SpeOutcome

    @property
    def unbounded(self) -> bool:
        return self.value is None


def _ratio(ms: Fraction, optimum: Fraction) -> Fraction | None:
    if optimum > 0:
        return ms / optimum
    return Fraction(1) if ms == 0 else None


def spoa_fixed(inst: Instance, order: PlayerOrder) -> MeasureReport:
    """Worst-tie SPE makespan over OPT for a fixed player order; ValueError
    unless `order` is a permutation of the instance's jobs."""
    tree = AdaptiveTree.from_order(order, inst.m)
    if tree.n != inst.n:
        raise ValueError("tree shape does not match the instance")
    return _least_outcome(inst, [(tuple(order), tree.root)], max)


def spos(inst: Instance) -> MeasureReport:
    """Best order, best ties: min over orders of the outcome-set minimum.

    Raises:
        BudgetExceededError: if n! or the stored outcomes exceed
            `core.STATE_BUDGET`.
    """
    if math.factorial(inst.n) > core.STATE_BUDGET:
        raise BudgetExceededError(f"spos over {inst.n}! orders refused")
    orders = order_roots(itertools.permutations(range(inst.n)), inst.m)
    return _least_outcome(inst, orders, min)


def _least_outcome(inst: Instance, candidates, pick) -> MeasureReport:
    """The report of the first (witness, root) candidate whose `pick` (min or
    max) outcome makespan is least.

    Every root is solved by the `survivors` kernel under one `OutcomeMemo`,
    so their shared subtrees are solved once per load vector, and all roots
    together are held to its outcome budget; only the winner becomes an
    `SpeOutcome`.  No outcome is below OPT, and the best is replaced only
    on a strict `<`, so the scan stops at the first candidate that reaches
    it.
    """
    opt_ms, _ = opt(inst)
    den, p, start = integer_form(inst)
    floor = opt_ms * den
    memo = OutcomeMemo()
    best: tuple[object, tuple] | None = None
    for witness, root in candidates:
        found = pick(survivors(p, root, start, memo), key=lambda o: max(o[1]))
        if best is None or max(found[1]) < max(best[1][1]):
            best = (witness, found)
            if max(found[1]) == floor:
                break
    assert best is not None
    witness, (path, final) = best
    outcome = outcome_from_int(den, path, final)
    return MeasureReport(
        _ratio(outcome.makespan, opt_ms), outcome.makespan, opt_ms, witness, outcome
    )


def adaptive_tree_count(n: int, m: int) -> int:
    """Number of valid adaptive trees: f(0) = 1, f(r) = r * f(r-1)**m.

    Raises:
        BudgetExceededError: before a step whose power, about m times
            f(r-1)'s bits, would pass `core.STATE_BUDGET` bits.
    """
    count = 1
    for r in range(1, n + 1):
        if count.bit_length() * m > core.STATE_BUDGET:
            raise BudgetExceededError(f"tree count f({r}) over {core.STATE_BUDGET} bits refused")
        count = r * count**m
    return count


def iter_adaptive_trees(n: int, m: int) -> Iterator[AdaptiveTree]:
    """All valid trees, root players ascending, children in machine order.

    The subtrees over each proper subset of the jobs are built once and
    shared: every tree yielded by one call reuses the same `Node` objects
    below its root.
    """
    for root in _iter_nodes(tuple(range(n)), m, {}):
        yield AdaptiveTree(m, n, root)


def _iter_nodes(
    jobs: tuple[int, ...], m: int, subtrees: dict[tuple[int, ...], list]
) -> Iterator[Node | None]:
    """Every tree node over `jobs`; `subtrees` caches the lists for subsets."""
    if not jobs:
        yield None
    for j in jobs:
        rest = tuple(x for x in jobs if x != j)
        if rest not in subtrees:
            subtrees[rest] = list(_iter_nodes(rest, m, subtrees))
        for children in itertools.product(subtrees[rest], repeat=m):
            yield Node(j, children)


def adaptive_spos(inst: Instance, method: str = "dp") -> MeasureReport:
    """Min over all adaptive trees of the outcome-set *maximum*, over OPT.

    Each tree is scored by its worst outcome (ties are adversarial once the
    tree is fixed); the best such guarantee over all trees is returned.

    Methods:
        "dp": exact dynamic program over subgame states; equivalent to
            enumerating every tree, with shared subgames (`_adaptive_minmax_dp`).
        "enumerate": literally iterate all trees in canonical order; refused
            when the tree count or the stored outcomes exceed
            `core.STATE_BUDGET`.

    Both return the same value; the witness tree is canonical per method.
    """
    if method == "dp":
        return _adaptive_minmax_dp(inst)
    if method != "enumerate":
        raise ValueError(f"unknown method {method!r}")
    # f(r) grows with r, so stop at the first count past the budget.
    if any(adaptive_tree_count(r, inst.m) > core.STATE_BUDGET for r in range(inst.n + 1)):
        raise BudgetExceededError(f"enumerate over more than {core.STATE_BUDGET} trees refused")
    trees = iter_adaptive_trees(inst.n, inst.m)
    return _least_outcome(inst, ((t, t.root) for t in trees), max)


def _adaptive_minmax_dp(inst: Instance) -> MeasureReport:
    """The report of a witness tree whose worst outcome-set makespan is
    minimal over all trees.

    State = (remaining jobs, current loads); two subtrees below the same
    state are interchangeable, so only their outcome sets matter upstream.
    `_dp_produce` yields every distinct outcome set (a sorted tuple of final
    load vectors) some subtree rooted at the state can produce: pick a mover
    j and one outcome set per branch, then an outcome o from branch c
    survives iff o[c] <= the maximum cost on every branch (the bar of
    `spe_outcome_set`; with one machine, every outcome survives).
    De-duplication keeps the collections small even when the raw tree count
    is astronomical.  Each set keeps the first subtree found for it.  A
    state yields its sets on demand (movers ascending, `_dp_combos` in
    `product` order) into a list every reader resumes (`_dp_read`).  No
    root set's worst is below OPT, so the root scan stops at the first
    set that reaches it, the witness, and so does every state below; failing
    that, the least (worst, set) is.  Loads are the integer-scaled ones of
    `core.integer_form`; the DP value becomes a `Fraction` only to check it.

    Raises:
        BudgetExceededError: past `core.STATE_BUDGET` stored load vectors.
    """
    den, p, start = integer_form(inst)
    floor = opt(inst)[0] * den
    table = StateMemo("adaptive DP too large: over {} stored load vectors")
    best = None
    try:
        for entry in _dp_read(_dp_state(p, frozenset(range(inst.n)), start, table)):
            if best is None or (max(entry[2]), entry[0]) < (max(best[2]), best[0]):
                best = entry
                if max(entry[2]) == floor:
                    break
    finally:
        table.clear()  # suspended producers refer to the table
    _, node, worst = best
    report = _least_outcome(inst, [(AdaptiveTree(inst.m, inst.n, node), node)], max)
    if report.witness_makespan != Fraction(max(worst), den):
        raise AssertionError("witness tree does not attain the DP value")
    return report


# A combination entry's subtree and worst cost on its own branch.
_node, _worst = itemgetter(1), itemgetter(2)


def _dp_state(p, remaining: frozenset, cur: tuple[int, ...], table: StateMemo) -> list:
    """The state's table entry, ``(remaining, loads) -> [found, more]``: the
    entries produced so far, and the generator of the rest, None once it is
    exhausted.  With one job left it is complete at once: the job ends on
    any machine where it finishes first."""
    key = (remaining, cur)
    state = table.get(key)
    if state is None:
        if len(remaining) > 1:
            state = [[], _dp_produce(p, remaining, cur, table)]
        elif remaining:
            (j,) = remaining
            ends = [cur[:c] + (cur[c] + p[c][j],) + cur[c + 1 :] for c in range(len(p))]
            least = min(v[c] for c, v in enumerate(ends))
            s = tuple(sorted({v for c, v in enumerate(ends) if v[c] == least}))
            table.charge(len(s))
            state = [[(s, Node(j, (None,) * len(p)), tuple(map(max, zip(*s))))], None]
        else:
            state = [[((cur,), None, cur)], None]
        table[key] = state
    return state


def _dp_read(state: list) -> Iterator[tuple]:
    """The state's entries, each produced on first demand into the list
    that every reader resumes."""
    found, i = state[0], 0
    while True:
        if i == len(found):
            entry = None if state[1] is None else next(state[1], None)
            if entry is None:
                state[1] = None
                return
            found.append(entry)
        yield found[i]
        i += 1


def _dp_produce(p, remaining: frozenset, cur: tuple[int, ...], table: StateMemo):
    """Yield the state's distinct outcome sets as (set, first subtree, worst
    cost per machine)."""
    seen = set()
    for j in sorted(remaining):
        rest = remaining - {j}
        states = [
            _dp_state(p, rest, cur[:c] + (cur[c] + p[c][j],) + cur[c + 1 :], table)
            for c in range(len(p))
        ]
        for combo in _dp_combos(states, 0):
            bar = min(map(_worst, combo))
            merged = {v for c, (s, _, _) in enumerate(combo) for v in s if v[c] <= bar}
            outcome_set = tuple(sorted(merged))
            if outcome_set not in seen:
                seen.add(outcome_set)
                table.charge(len(outcome_set))
                children = tuple(map(_node, combo))
                yield outcome_set, Node(j, children), tuple(map(max, zip(*outcome_set)))


def _dp_combos(states: list, c: int) -> Iterator[tuple]:
    """Every combination of one entry per state of states[c:], in `product`
    order, each entry as (set, subtree, worst cost on its own branch) and
    read through `_dp_read`, so produced on first demand."""
    for s, node, worst in _dp_read(states[c]):
        head = ((s, node, worst[c]),)
        if c + 1 == len(states):
            yield head
        else:
            for tail in _dp_combos(states, c + 1):
                yield head + tail


@dataclass(frozen=True)
class PoaPosReport:
    """Pure-Nash price of anarchy and stability over one instance's equilibria."""

    poa: Fraction | None
    pos: Fraction | None
    opt_makespan: Fraction
    worst: Schedule
    best: Schedule
    equilibria: set[Schedule]


def poa_pos(inst: Instance) -> PoaPosReport:
    """(worst Nash makespan / OPT, best Nash makespan / OPT).

    Either ratio is ``None`` when unbounded.  A pure Nash equilibrium always
    exists: a job's improving move lowers the loads sorted in decreasing
    order lexicographically, so a schedule that minimizes them is one.
    """
    opt_ms, _ = opt(inst)
    equilibria = pure_nash(inst)
    ranked = sorted((makespan(inst, s), s) for s in equilibria)
    (best_ms, best), (worst_ms, worst) = ranked[0], ranked[-1]
    return PoaPosReport(
        _ratio(worst_ms, opt_ms), _ratio(best_ms, opt_ms), opt_ms, worst, best, equilibria
    )
