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

`spos`, `adaptive_spos` and the adaptive DP run on the instance scaled to
integers by one common denominator (`core.integer_form`).  The scaling is
exact; `Fraction`s appear only at the API boundary (the reports and the
witness check).  `spos` and the `enumerate` method score every order or
tree with the `equilibria.survivors` kernel and one memo per call
(`_least_outcome`), so subtrees shared between trees (the suffix nodes of
the orders, the subset subtrees of `iter_adaptive_trees`) are solved once
per load vector; only the winner becomes an `SpeOutcome`.  Every memo,
like the DP's tables, lives for one call.  The memo's outcome count and the
number of orders or trees to score are each held to `core.STATE_BUDGET`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import (
    STATE_BUDGET,
    BudgetExceededError,
    Instance,
    Schedule,
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
    outcome_from_int,
    pure_nash,
    spe_outcome_set,
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


def _ratio(ms: Fraction, opt_ms: Fraction) -> Fraction | None:
    if opt_ms > 0:
        return ms / opt_ms
    return Fraction(1) if ms == 0 else None


def spoa_fixed(inst: Instance, order: PlayerOrder) -> MeasureReport:
    """Worst-tie SPE makespan over OPT for a fixed player order."""
    opt_ms, _ = opt(inst)
    tree = AdaptiveTree.from_order(order, inst.m)
    outcomes = spe_outcome_set(inst, tree)
    worst = max(outcomes, key=lambda o: o.makespan)
    return MeasureReport(
        _ratio(worst.makespan, opt_ms), worst.makespan, opt_ms, tuple(order), worst
    )


def spos(inst: Instance) -> MeasureReport:
    """Best order, best ties: min over orders of the outcome-set minimum.

    Raises:
        BudgetExceededError: if n! or the stored outcomes exceed
            `core.STATE_BUDGET`.
    """
    if math.factorial(inst.n) > STATE_BUDGET:
        raise BudgetExceededError(f"spos over {inst.n}! orders refused")
    opt_ms, _ = opt(inst)

    def order_roots() -> Iterator[tuple[PlayerOrder, Node | None]]:
        # Orders ending in the same jobs share the nodes of that suffix.
        suffix_nodes: dict[PlayerOrder, Node | None] = {(): None}
        for perm in itertools.permutations(range(inst.n)):
            for d in range(inst.n - 1, -1, -1):
                if perm[d:] not in suffix_nodes:
                    child = suffix_nodes[perm[d + 1 :]]
                    suffix_nodes[perm[d:]] = Node(perm[d], (child,) * inst.m)
            yield perm, suffix_nodes[perm]

    order, outcome = _least_outcome(inst, order_roots(), min)
    return MeasureReport(
        _ratio(outcome.makespan, opt_ms), outcome.makespan, opt_ms, order, outcome
    )


def _least_outcome(inst: Instance, candidates, pick) -> tuple[object, SpeOutcome]:
    """The first (witness, root) candidate whose `pick` (min or max) outcome
    makespan is least, with that outcome.

    Every root is solved by the `survivors` kernel under one `OutcomeMemo`,
    so their shared subtrees are solved once per load vector, and all roots
    together are held to its outcome budget; only the winner becomes an
    `SpeOutcome`.
    """
    den, p, start = integer_form(inst)
    memo = OutcomeMemo()
    best: tuple[object, tuple] | None = None
    for witness, root in candidates:
        found = pick(survivors(p, root, start, memo), key=lambda o: max(o[1]))
        if best is None or max(found[1]) < max(best[1][1]):
            best = (witness, found)
    assert best is not None
    witness, (path, final) = best
    return witness, outcome_from_int(den, path, final)


def adaptive_tree_count(n: int, m: int) -> int:
    """Number of valid adaptive trees: f(0) = 1, f(r) = r * f(r-1)**m."""
    count = 1
    for r in range(1, n + 1):
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
    opt_ms, _ = opt(inst)
    if method == "dp":
        tree, outcome = _adaptive_minmax_dp(inst)
    elif method == "enumerate":
        count = adaptive_tree_count(inst.n, inst.m)
        if count > STATE_BUDGET:
            raise BudgetExceededError(f"{count} trees exceed the budget")
        tree, outcome = _least_outcome(
            inst,
            ((t, t.root) for t in iter_adaptive_trees(inst.n, inst.m)),
            max,
        )
    else:
        raise ValueError(f"unknown method {method!r}")
    return MeasureReport(
        _ratio(outcome.makespan, opt_ms), outcome.makespan, opt_ms, tree, outcome
    )


def _adaptive_minmax_dp(inst: Instance) -> tuple[AdaptiveTree, SpeOutcome]:
    """Witness tree whose worst outcome-set makespan is minimal, over all trees.

    State = (remaining jobs, current loads); two subtrees below the same
    state are interchangeable, so only their outcome sets matter upstream.
    `_dp_collect` finds every distinct outcome set (a sorted tuple of final
    load vectors) some subtree rooted at the state can produce: pick a mover
    j and one outcome set per branch, then an outcome o from branch c
    survives iff o[c] <= the maximum cost on every branch (the bar of
    `spe_outcome_set`; with one machine, every outcome survives).
    De-duplication keeps the collections small even when the raw tree count
    is astronomical.  Each set keeps the first subtree found for it, so the
    root's best set is the witness.  Loads are the integer-scaled ones of
    `core.integer_form`; the DP value becomes a `Fraction` only to check it.
    """
    den, p, start = integer_form(inst)
    options = _dp_collect(p, frozenset(range(inst.n)), start, {})
    target = min(options, key=lambda s: (max(max(v) for v in s), s))
    tree = AdaptiveTree(inst.m, inst.n, options[target])
    outcome = max(spe_outcome_set(inst, tree), key=lambda o: o.makespan)
    if outcome.makespan != Fraction(max(max(v) for v in target), den):
        raise AssertionError("witness tree does not attain the DP value")
    return tree, outcome


def _dp_collect(p, remaining: frozenset, cur: tuple[int, ...], table: dict) -> dict:
    """The outcome sets of the state, each mapped to the first subtree found
    that yields it (None at a leaf); its children are the child states'."""
    key = (remaining, cur)
    if key in table:
        return table[key]
    if not remaining:
        table[key] = {(cur,): None}
        return table[key]
    found: dict[tuple, Node] = {}
    for j in sorted(remaining):
        rest = remaining - {j}
        child_options = []
        for c in range(len(p)):
            nxt = cur[:c] + (cur[c] + p[c][j],) + cur[c + 1 :]
            sets = _dp_collect(p, rest, nxt, table)
            child_options.append(
                [(s, node, max(v[c] for v in s)) for s, node in sets.items()]
            )
        for combo in itertools.product(*child_options):
            bar = min(w for _, _, w in combo)
            merged = {v for c, (s, _, _) in enumerate(combo) for v in s if v[c] <= bar}
            outcome_set = tuple(sorted(merged))
            if outcome_set not in found:
                found[outcome_set] = Node(j, tuple(node for _, node, _ in combo))
    table[key] = found
    return found


@dataclass(frozen=True)
class PoaPosReport:
    """Pure-Nash price of anarchy and stability over one instance's equilibria."""

    poa: Fraction | None
    pos: Fraction | None
    opt_makespan: Fraction
    worst: Schedule | None
    best: Schedule | None
    equilibria: set[Schedule]

    @property
    def has_nash(self) -> bool:
        return bool(self.equilibria)


def poa_pos(inst: Instance) -> PoaPosReport:
    """(worst Nash makespan / OPT, best Nash makespan / OPT).

    Either ratio is ``None`` when unbounded; `has_nash` is False (and all
    other fields None-ish) when no pure Nash equilibrium exists.
    """
    opt_ms, _ = opt(inst)
    equilibria = pure_nash(inst)
    if not equilibria:
        return PoaPosReport(None, None, opt_ms, None, None, equilibria)
    ranked = sorted((makespan(inst, s), s) for s in equilibria)
    (best_ms, best), (worst_ms, worst) = ranked[0], ranked[-1]
    return PoaPosReport(
        _ratio(worst_ms, opt_ms), _ratio(best_ms, opt_ms), opt_ms, worst, best, equilibria
    )
