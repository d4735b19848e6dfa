"""Decision trees, tie-breaking rules, backward induction, and pure Nash.

The sequential game: players (jobs) move in the order given by a decision
tree, each picking a machine; a player's final cost is the completed load of
the machine she chose.  `spe` computes the subgame perfect equilibrium for a
deterministic tie-breaking rule; `spe_outcome_set` computes every outcome
achievable when each tie may be resolved arbitrarily per history.

Both run on the instance scaled to integers by one common denominator
(`core.integer_form`).  The scaling is exact, so every sum and comparison
matches the rational one; `Fraction`s appear only when `outcome_from_int`
builds an `SpeOutcome`.  `spe` and `lpsearch.structure_from_spe` share one
backward-induction kernel, `backward_induction`, with no memo, since
history rules read the history; both refuse trees of more than
`core.DEFAULT_BUDGET` leaves.  Outcome sets come from the kernel
`survivors`, which memoizes subgames on (node identity, loads) in an
`OutcomeMemo`.  Every caller makes one memo per call and drops it with the
call; OPT is read from the instance, since a `core.Instance` keeps only
its `integer_form` and `opt`.  The memo is a `core.StateMemo` charged with
the outcomes it stores, so an outcome set costs what its distinct subgames
hold, not m ** n leaves.
Only `spe` and `spe_outcome_set` validate trees; `tests/` checks the ones the
library builds (`order_roots`, `iter_adaptive_trees`, `thm4_tree`, the DP).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (
    Instance,
    LoadVector,
    Schedule,
    StateMemo,
    assignments,
    check_leaves,
    data_lines,
    integer_form,
    one_based,
)

#: A permutation of job indices; position d is the depth-d mover.
PlayerOrder = tuple[int, ...]


class TieBreakContractError(RuntimeError):
    """A tie-breaking rule returned a machine that was not tied."""


@dataclass(frozen=True)
class Node:
    """Internal tree node: the moving player and one subtree per machine.

    A ``None`` child is a leaf (the game ends below it).
    """

    player: int
    children: tuple["Node | None", ...]


@dataclass(frozen=True)
class AdaptiveTree:
    """A complete m-ary decision tree of depth n.

    Every root-to-leaf path must contain each of the n players exactly once.
    """

    m: int
    n: int
    root: Node | None

    def validate(self) -> None:
        """Check arity and the path-coverage invariant; raise ValueError.

        Bottom-up and memoized on node identity, so a tree whose subtrees
        are shared (a fixed-order tree has n distinct nodes) costs one visit
        per distinct node, not one per root-to-leaf path.
        """
        if self._players_below(self.root, {}) != (1 << self.n) - 1:
            raise ValueError("a path misses some players")

    def _players_below(self, node: Node | None, seen: dict) -> int:
        """The players on every path below `node`, itself included, as a
        mask (bit j for player j); the paths must agree.  `seen` maps node
        ids already checked to it."""
        if node is None:
            return 0
        if id(node) not in seen:
            if not 0 <= node.player < self.n:
                raise ValueError(f"player {node.player} out of range")
            if len(node.children) != self.m:
                raise ValueError("internal node without exactly m children")
            below = [0 if c is None else self._players_below(c, seen) for c in node.children]
            if not below or below.count(below[0]) != len(below):
                raise ValueError("a path misses some players")
            players = below[0]
            if players >> node.player & 1:
                raise ValueError(f"player {node.player} repeats on a path")
            seen[id(node)] = players | 1 << node.player
        return seen[id(node)]

    @classmethod
    def from_order(cls, order: Sequence[int], m: int) -> "AdaptiveTree":
        """The fixed-order tree: all depth-d nodes carry player order[d]."""
        n = len(order)
        if sorted(order) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {order!r}")
        ((_, root),) = order_roots([tuple(order)], m)
        return cls(m, n, root)


def order_roots(
    orders: Iterable[PlayerOrder], m: int
) -> Iterator[tuple[PlayerOrder, Node | None]]:
    """Each order with the root of its fixed-order tree on m machines; orders
    ending in the same jobs share the nodes of that suffix."""
    suffix_nodes: dict[PlayerOrder, Node | None] = {(): None}
    for order in orders:
        for d in range(len(order) - 1, -1, -1):
            if order[d:] not in suffix_nodes:
                child = suffix_nodes[order[d + 1 :]]
                suffix_nodes[order[d:]] = Node(order[d], (child,) * m)
        yield order, suffix_nodes[order]


def identity_order(n: int) -> PlayerOrder:
    return tuple(range(n))


@dataclass(frozen=True)
class SpeOutcome:
    """One equilibrium outcome: the leaf schedule and everything derived.

    Attributes:
        schedule: machine of each job at the leaf.
        loads: final machine loads.
        makespan: max load.
        costs: per-player final cost, costs[j] == loads[schedule[j]].
        path: (player, machine) choices from the root down.
    """

    schedule: Schedule
    loads: LoadVector
    makespan: Fraction
    costs: tuple[Fraction, ...]
    path: tuple[tuple[int, int], ...]


class TieBreakRule:
    """Deterministic choice among machines whose continuations tie.

    `choose` receives the moving player, the history (machines of earlier
    movers), and the tied candidates as the ascending tuple of the machines
    whose continuations give her the same least cost; it must return one of
    them.
    """

    name = "tie-rule"

    def choose(
        self,
        player: int,
        history: Mapping[int, int],
        candidates: tuple[int, ...],
    ) -> int:
        raise NotImplementedError


class PreferLowest(TieBreakRule):
    """Ties go to the lowest machine index (the paper's M1 convention)."""

    name = "lowest"

    def choose(self, player, history, candidates):
        return min(candidates)


class PreferHighest(TieBreakRule):
    """Ties go to the highest machine index."""

    name = "highest"

    def choose(self, player, history, candidates):
        return max(candidates)


class ScriptedRule(TieBreakRule):
    """Ties follow a finite text table of per-player, per-history preferences.

    Table grammar, one rule per `core.data_lines` line (`#` comments allowed)::

        player <j> when <pattern> prefer <i>

    where `<j>` and `<i>` (or `M<i>`) are 1-indexed, and `<pattern>` is `*` or
    a `core.assignments` list of `<job>=M<machine>` conditions that must all
    hold in the history.  The first matching line whose machine is among the
    tied candidates wins; a matching line naming another machine is passed
    over.  With no such line, ties go to the lowest candidate machine.
    """

    name = "scripted"

    def __init__(self, table: str):
        #: (player, conditions, machine, line number), all 0-indexed but the line.
        self.rows: list[tuple[int, dict[int, int], int, int]] = []
        for line_no, line, tokens in data_lines(table):
            if (
                len(tokens) != 6
                or tokens[0] != "player"
                or tokens[2] != "when"
                or tokens[4] != "prefer"
            ):
                raise ValueError(f"line {line_no}: bad rule syntax: {line!r}")
            try:
                player = one_based(tokens[1], "player")
                conditions = {} if tokens[3] == "*" else assignments(tokens[3])
                machine = one_based(tokens[5].removeprefix("M"), "machine")
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}") from None
            self.rows.append((player, conditions, machine, line_no))

    def check_shape(self, n: int, m: int) -> None:
        """Raise ValueError for a row naming a job above n or a machine above m."""
        for player, conditions, machine, line_no in self.rows:
            jobs = [player, *conditions]
            machines = [machine, *conditions.values()]
            if max(jobs) >= n:
                raise ValueError(
                    f"line {line_no}: job {max(jobs) + 1} out of range 1..{n}"
                    " of the instance"
                )
            if max(machines) >= m:
                raise ValueError(
                    f"line {line_no}: machine M{max(machines) + 1} out of range"
                    f" M1..M{m} of the instance"
                )

    def choose(self, player, history, candidates):
        for row_player, conditions, machine, _ in self.rows:
            if row_player != player:
                continue
            if all(history.get(job) == mach for job, mach in conditions.items()):
                if machine in candidates:
                    return machine
        return min(candidates)


class Thm2Rule(TieBreakRule):
    """The tie table that realizes the k+2 equilibrium on the k-block family.

    Jobs come in blocks (J_{3t+1}, J_{3t+2}, J_{3t+3}); once a leading block
    has settled on its zero-cost machines (M2, M1, M1) the remaining jobs play
    the k-1 sub-instance, so the rule is applied relative to the first
    unsettled block, the "governing" block (capped so the governing
    sub-instance keeps k' = k - t >= 2).  With b1, b2, b3 the governing
    block's 1-indexed jobs:

    * the tail job 3k-2 prefers M1 exactly when b3 sits on M2 and b2 does
      not, and the last job 3k-1 prefers M1 exactly when b1 sits on M2 and
      b2 on M1 (the punishment branches after the first job's deviation);
    * b1 prefers M1 (the k'+1 cost on the first machine);
    * b2 and b3 avoid b1 when she deviated to M2 - except in the k' = 2
      endgame, where they follow her (the five-job base construction);
      on the main branch (b1 on M1) they prefer M2;
    * later-block jobs prefer their zero-cost machines.
    """

    def __init__(self, k: int):
        if k < 2:
            raise ValueError("the family needs k >= 2")
        self.k = k
        self.name = f"thm2:{k}"

    def choose(self, player, history, candidates):
        preferred = self._preferred(player + 1, history)
        return preferred if preferred in candidates else min(candidates)

    def _preferred(self, j: int, history: Mapping[int, int]) -> int:
        M1, M2 = 0, 1
        k = self.k

        def at(job_1indexed: int) -> int | None:
            return history.get(job_1indexed - 1)

        t = 0
        while (
            t < k - 2
            and at(3 * t + 1) == M2
            and at(3 * t + 2) == M1
            and at(3 * t + 3) == M1
        ):
            t += 1
        b1, b2, b3 = 3 * t + 1, 3 * t + 2, 3 * t + 3

        if j == 3 * k - 2:
            return M1 if (at(b3) == M2 and at(b2) != M2) else M2
        if j == 3 * k - 1:
            return M1 if (at(b1) == M2 and at(b2) == M1) else M2
        if j == b1:
            return M1
        if j in (b2, b3):
            if at(b1) == M2:
                return M1 if k - t >= 3 else M2
            return M2
        return M2 if (j - 1) % 3 == 0 else M1


def spe(inst: Instance, tree: AdaptiveTree, rule: TieBreakRule) -> SpeOutcome:
    """Subgame perfect equilibrium by backward induction.

    At every node the mover takes the child minimizing her own final cost;
    exact ties are resolved by `rule`.  Runs `backward_induction` on the
    integer-scaled instance.

    Raises:
        ValueError: if the tree does not match the instance or fails
            `AdaptiveTree.validate`.
        BudgetExceededError: if the tree's m ** n leaves exceed
            `core.DEFAULT_BUDGET`.
        TieBreakContractError: if the rule picks a non-tied machine.
    """
    _check_tree(inst, tree)
    check_leaves(inst.m, inst.n, "backward induction")
    den, p, start = integer_form(inst)
    return outcome_from_int(den, *backward_induction(p, tree.root, start, rule, {}))


def _check_tree(inst: Instance, tree: AdaptiveTree) -> None:
    if tree.m != inst.m or tree.n != inst.n:
        raise ValueError("tree shape does not match the instance")
    tree.validate()


def backward_induction(
    p: Sequence[Sequence[int]],
    node: Node | None,
    cur: tuple[int, ...],
    rule: TieBreakRule,
    history: dict[int, int],
    decisions: dict[tuple[int, ...], int] | None = None,
) -> tuple[tuple | None, tuple[int, ...]]:
    """The equilibrium (path suffix, final int loads) below `node` under `rule`.

    Integer-scaled like `survivors`, and returns a pair of the same shape.
    The mover takes the child with her least final cost; only a tie asks
    ``rule.choose``, with the ascending tuple of tied machines.  `history`
    (movers above `node` -> machines) is restored on return.  `decisions`,
    if given, receives every node's machine keyed by the machines chosen
    above it, root first.  There is no memo: history rules may decide
    differently in equal subgames.
    """
    if node is None:
        return None, cur
    j = node.player
    options = []
    for c, child in enumerate(node.children):
        history[j] = c
        nxt = cur[:c] + (cur[c] + p[c][j],) + cur[c + 1 :]
        option = (None, nxt)
        if child is not None:
            option = backward_induction(p, child, nxt, rule, history, decisions)
        options.append(option)
        if c == 0 or option[1][c] < best:
            best, tied = option[1][c], (c,)
        elif option[1][c] == best:
            tied += (c,)
    del history[j]
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


def spe_outcome_set(inst: Instance, tree: AdaptiveTree) -> tuple[SpeOutcome, ...]:
    """All SPE outcomes achievable under arbitrary per-history tie rules.

    At a node, an outcome o of the branch-c subtree survives iff choosing c
    with continuation o can be optimal for the mover against *some* choice of
    continuations on the other branches; the worst available cost on branch c'
    is max over that subtree's outcomes, so the test is
    ``o.costs[j] <= min over c' != c of worst(c')``.  As o.costs[j] <=
    worst(c) anyway, the bar may take the min over every branch, c included;
    with one machine, every outcome then survives.

    Returns outcomes in a canonical order (branch-major, recursively).

    Raises:
        ValueError: if the tree does not match the instance or fails
            `AdaptiveTree.validate`.
        BudgetExceededError: if the subgame outcome sets hold more than
            `core.STATE_BUDGET` outcomes (see `OutcomeMemo`).
    """
    _check_tree(inst, tree)
    den, p, start = integer_form(inst)
    return tuple(
        outcome_from_int(den, path, final)
        for path, final in survivors(p, tree.root, start, OutcomeMemo())
    )


def OutcomeMemo() -> StateMemo:
    """A `survivors` memo, ``(id(node), loads) -> (node, outcomes)``, charged
    with its outcomes, not its entries: on the all-zero 2 x n instance an
    order's memo has n - 1 entries but 2 ** n - 2 outcomes."""
    return StateMemo("outcome sets too large: over {} subgame outcomes")


def survivors(
    p: Sequence[Sequence[int]],
    node: Node | None,
    cur: tuple[int, ...],
    memo: StateMemo,
) -> list[tuple[tuple | None, tuple[int, ...]]]:
    """The outcome set below `node` on integer-scaled loads.

    Returns the surviving (path suffix, final int loads) pairs, branch-major,
    for the subgame that starts at `node` with loads `cur`; `p` is the scaled
    matrix of `core.integer_form`.  The survival bar is `spe_outcome_set`'s.
    A path suffix is a cons list ``((player, machine), rest)``, ``None`` at
    the leaf, so a level is prepended in O(1); `outcome_from_int` flattens it.

    The result below a node depends only on the node and its loads, so
    children are memoized in `memo` on ``(id(child), loads)``.  A memo entry
    holds its node, so the id cannot be reused while the memo lives.  The
    node passed in is not stored: a caller that walks many distinct roots
    (all trees, all orders) keeps only the shared subtrees.  The memo belongs
    to one call of the caller and is dropped with it.

    Raises:
        BudgetExceededError: when `memo` would hold more than
            `core.STATE_BUDGET` outcomes.
    """
    if node is None:
        return [(None, cur)]
    j = node.player
    per_branch = []
    for c, child in enumerate(node.children):
        nxt = cur[:c] + (cur[c] + p[c][j],) + cur[c + 1 :]
        if child is None:
            branch, worst = [(None, nxt)], nxt[c]
        else:
            key = (id(child), nxt)
            entry = memo.get(key)
            if entry is None:
                found = survivors(p, child, nxt, memo)
                memo.charge(len(found))
                entry = memo[key] = (child, found)
            branch = entry[1]
            worst = max([final[c] for _, final in branch])
        per_branch.append(branch)
        if c == 0 or worst < bar:
            bar = worst
    return [
        (((j, c), path), final)
        for c, branch in enumerate(per_branch)
        for path, final in branch
        if final[c] <= bar
    ]


def outcome_from_int(
    den: int, path: tuple | None, int_loads: tuple[int, ...]
) -> SpeOutcome:
    """The `SpeOutcome` of one `survivors` pair, loads mapped back over `den`."""
    steps = []
    while path is not None:
        step, path = path
        steps.append(step)
    schedule = tuple(machine for _, machine in sorted(steps))
    final = tuple(Fraction(x, den) for x in int_loads)
    costs = tuple(final[machine] for machine in schedule)
    return SpeOutcome(schedule, final, max(final), costs, tuple(steps))


def pure_nash(inst: Instance) -> set[Schedule]:
    """All pure Nash equilibria of the one-shot (strategic) game.

    A schedule is Nash iff no single job can strictly lower its cost by
    switching machines; the cost after switching to d is loads[d] + p[d][j].
    Runs on the integer-scaled instance of `core.integer_form`.

    Raises:
        BudgetExceededError: if m ** n exceeds `core.DEFAULT_BUDGET`, or past
            `core.STATE_BUDGET` equilibria, which a `core.StateMemo` counts.
    """
    check_leaves(inst.m, inst.n, "Nash enumeration")
    _, p, start = integer_form(inst)
    machines = range(inst.m)
    found = StateMemo("Nash enumeration too large: over {} equilibria")
    for schedule in itertools.product(machines, repeat=inst.n):
        totals = list(start)
        for j, machine in enumerate(schedule):
            totals[machine] += p[machine][j]
        if all(
            totals[d] + p[d][j] >= totals[machine]
            for j, machine in enumerate(schedule)
            for d in machines
            if d != machine
        ):
            found[schedule] = None
            found.charge(1)
    return set(found)
