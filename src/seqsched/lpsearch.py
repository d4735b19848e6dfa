"""Adversarial-instance search over fixed-order SPE tree structures (m = 2).

A `TreeStructure` fixes the branch chosen at every internal node of the
identity-order binary tree.  Each structure plus a designated optimum leaf
induces a linear program over the processing times whose optimum is the worst
makespan that structure can force while the optimum stays at most 1; the
search maximizes over structures and leaves with the paper's prunings.

All LP arithmetic is exact (`fractions.Fraction`); the solver is a two-phase
tableau simplex with Bland's anti-cycling rule, and every optimum carries its
dual, read off the final reduced costs.  `certify_optimal` checks point and
dual exactly, outside the solver.  A node's best-response row depends only on
(chosen leaf, other leaf, branch), so it recurs across structures: `search`
builds each such row once per call, under an int id, and assembles its LPs
from those rows.  It pools the node-row duals of the LPs it solves and skips
every LP that one of them, completed on the optimum-leaf rows, bounds by the
running best (weak duality, checked in integers).  An entry's columns short of
the objective form a bitmask, and only an entry whose mask lies within the
optimum leaf's columns is weighed.  On the unpruned n=3 scan 1,190 of 1,344
LPs are skipped, and on the pruned n=4 scan 31,677 of 32,864.

The two LPs of one (structure, optimum leaf) pair differ only in the
objective machine, so `search` builds one `_Tableau` per pair: phase 1 runs
once, the M1-objective LP is maximized from the phase-1 basis exactly as
`simplex_solve` would, and the M2-objective LP from M1's final basis.  A warm
optimum has the cold value, and the cold point too when it is unique (no
nonbasic column outside the artificials has reduced cost 0).  When it is not
unique and would replace the running best, phase 2 reruns on a copy of the
pair's phase-1 tableau, so the pivots and the witness are the cold solve's.
`structure_from_spe` reads its node decisions off
`equilibria.backward_induction`, the integer kernel behind `spe`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from math import lcm
from typing import Callable, Iterable, Iterator, Sequence

from .core import Instance, check_leaves, integer_form
from .equilibria import (
    AdaptiveTree,
    PreferLowest,
    TieBreakRule,
    backward_induction,
    identity_order,
)


@dataclass(frozen=True, slots=True)
class TreeStructure:
    """Chosen branches for the depth-n identity-order binary tree.

    Internal nodes are indexed level-order (node i has children 2i+1, 2i+2);
    bit i of `bits` set means node i chooses M2.  Leaves are indexed 0..2^n-1
    left to right, so the leaf reached by choices b_1..b_n (first mover's bit
    most significant) has index sum(b_d << (n-1-d)).
    """

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("structures need n >= 1")
        if not 0 <= self.bits < 1 << (2**self.n - 1):
            raise ValueError("bits out of range for n")

    def choice(self, node: int) -> int:
        return (self.bits >> node) & 1

    def leaf_below(self, node: int) -> int:
        """The leaf reached from `node` by following chosen branches."""
        first_leaf = 2**self.n - 1
        while node < first_leaf:
            node = 2 * node + 1 + self.choice(node)
        return node - first_leaf

    def equilibrium_leaf(self) -> int:
        return self.leaf_below(0)

    def __str__(self) -> str:
        return f"{self.bits:#x}"


def leaf_machine(n: int, leaf: int, depth: int) -> int:
    """Machine chosen at `depth` on the path to `leaf` (0 = M1, 1 = M2)."""
    return (leaf >> (n - 1 - depth)) & 1


def monotone_masks(k: int) -> list[int]:
    """All monotone increasing boolean functions on k variables, as bitmasks.

    Bit p of a mask is the value at the point whose variable set is the bit
    pattern of p.  Built recursively: f = (f0, f1) with f0 <= f1 pointwise.
    The counts are the Dedekind numbers 2, 3, 6, 20, 168, ...
    """
    if k == 0:
        return [0, 1]
    half = monotone_masks(k - 1)
    shift = 1 << (k - 1)
    out = []
    for lo in half:
        for hi in half:
            if lo & ~hi == 0:
                out.append(lo | (hi << shift))
    return out


def _count_monotone_masks(k: int) -> int:
    """``len(monotone_masks(k))`` without the list.  For k >= 2 a mask is
    ((a, b), (c, d)) with a <= b, c <= d, a <= c, b <= d over k - 2
    variables, and those masks are closed under & and |, so given (b, c),
    a is any mask below b & c and d any mask above b | c."""
    if k < 2:
        return len(monotone_masks(k))
    quarter = monotone_masks(k - 2)
    below = {x: sum(a & ~x == 0 for a in quarter) for x in quarter}
    above = {x: sum(x & ~d == 0 for d in quarter) for x in quarter}
    return sum(below[b & c] * above[b | c] for b in quarter for c in quarter)


def enumerate_structures(
    n: int,
    *,
    prune_obs1: bool = True,
    prune_mirror: bool = True,
    exclude_extreme_eq_leaf: bool = True,
) -> Iterator[TreeStructure]:
    """Stream structures passing the enabled filters, in bit order.

    Filters: Observation-1 consistency of the last layer; mirror
    canonicalization (keep the representative whose root chooses M1); and
    exclusion of structures whose equilibrium leaf is leftmost or rightmost.

    Raises:
        ValueError: unless 1 <= n <= 6, at the call, not at the first read.
    """
    if not 1 <= n <= 6:
        raise ValueError(f"full enumeration needs 1 <= n <= 6, got n={n}")
    last_nodes = 2 ** (n - 1)
    upper_bits = last_nodes - 1  # nodes above the last layer
    if prune_obs1:
        full = (1 << last_nodes) - 1
        lasts = sorted(full & ~mask for mask in monotone_masks(n - 1))
    else:
        lasts = list(range(1 << last_nodes))
    uppers = range(1 << upper_bits)
    patterns = (upper | (last << upper_bits) for upper in uppers for last in lasts)
    kept = (TreeStructure(n, bits) for bits in patterns if not (prune_mirror and bits & 1))
    if not exclude_extreme_eq_leaf:
        return kept
    return (s for s in kept if s.equilibrium_leaf() not in (0, 2**n - 1))


def count_structures(
    n: int,
    *,
    prune_obs1: bool = True,
    prune_mirror: bool = False,
    exclude_extreme_eq_leaf: bool = False,
) -> tuple[int, int]:
    """(unpruned total, count passing the filters).

    The count factorizes into (upper choices) x (consistent last layers).
    An extreme equilibrium leaf fixes the n - 1 upper nodes on its root path
    and the last-layer node below them, and under Observation 1 that node
    fixes the whole last layer, so those structures are subtracted.  The
    mirror filter fixes the root's bit, so it halves the count: for n >= 2
    the root is an upper node, and for n = 1 it is the one last-layer node,
    whose two choices are both consistent.  A leftmost equilibrium leaf puts
    the root on M1 and a rightmost one puts it on M2, so the halving holds
    with the extreme-leaf filter too.

    Raises:
        ValueError: unless 1 <= n <= 7 (n = 8 would list Dedekind(7) masks).
    """
    if not 1 <= n <= 7:
        raise ValueError(f"structure counts need 1 <= n <= 7, got n={n}")
    total = 1 << (2**n - 1)
    last_nodes = 2 ** (n - 1)
    lasts = _count_monotone_masks(n - 1) if prune_obs1 else 1 << last_nodes
    kept = (1 << (last_nodes - 1)) * lasts
    if exclude_extreme_eq_leaf:
        extreme_lasts = 1 if prune_obs1 else 1 << (last_nodes - 1)
        kept -= 2 * (1 << (last_nodes - n)) * extreme_lasts
    return total, kept // 2 if prune_mirror else kept


@dataclass(frozen=True, slots=True)
class LpProblem:
    """maximize objective . x subject to rows . x <= rhs, x >= 0."""

    n_vars: int
    objective: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]


@dataclass(frozen=True, slots=True)
class LpResult:
    """A simplex outcome; an optimum carries its point and its dual `y`."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    point: tuple[Fraction, ...] | None
    dual: tuple[Fraction, ...] | None = None


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def primal_feasible(lp: LpProblem, point: Sequence[Fraction]) -> bool:
    """x >= 0 and A x <= b: the primal half of `certify_optimal`."""
    return len(point) == lp.n_vars and all(x >= 0 for x in point) and all(
        _dot(row, point) <= bound for row, bound in zip(lp.rows, lp.rhs)
    )


def dual_feasible(lp: LpProblem, dual: Sequence[Fraction]) -> bool:
    """y >= 0 and y^T A >= c, so that y^T b bounds the LP by weak duality."""
    return (
        len(dual) == len(lp.rows)
        and all(y >= 0 for y in dual)
        and all(
            _dot(dual, [row[j] for row in lp.rows]) >= lp.objective[j]
            for j in range(lp.n_vars)
        )
    )


def certify_optimal(lp: LpProblem, result: LpResult) -> bool:
    """Exact optimality check of a simplex result, outside the solver.

    The point must be feasible with objective `value` and the dual feasible
    with y^T b == value; by weak duality no feasible point then does better.
    """
    if result.status != "optimal" or result.point is None or result.dual is None:
        return False
    return (
        primal_feasible(lp, result.point)
        and _dot(lp.objective, result.point) == result.value
        and dual_feasible(lp, result.dual)
        and _dot(result.dual, lp.rhs) == result.value
    )


def _load_coeffs(n: int, leaf: int, machine: int) -> list[Fraction]:
    """Coefficient vector (over p-variables) of `machine`'s load at `leaf`."""
    coeffs = [Fraction(0)] * (2 * n)
    for depth in range(n):
        if leaf_machine(n, leaf, depth) == machine:
            coeffs[2 * depth + machine] = Fraction(1)
    return coeffs


def var_index(machine: int, job: int) -> int:
    """Column of p[machine][job] in the LP variable vector."""
    return 2 * job + machine


def node_rows(structure: TreeStructure) -> list[tuple[int, int, int]]:
    """(chosen leaf, other leaf, branch) of every internal node, level order.

    The node's best-response row in `build_lp` depends on nothing else, so
    one key names one row across all structures of the same n.
    """
    keys = []
    for node in range(2**structure.n - 1):
        chosen = structure.choice(node)
        child = 2 * node + 1
        keys.append(
            (
                structure.leaf_below(child + chosen),
                structure.leaf_below(child + 1 - chosen),
                chosen,
            )
        )
    return keys


def _node_row(n: int, key: tuple[int, int, int]) -> tuple[Fraction, ...]:
    """The best-response row of the node with `node_rows` key `key`: its
    mover's load on the chosen branch minus the other branch's."""
    leaf_chosen, leaf_other, chosen = key
    cost_chosen = _load_coeffs(n, leaf_chosen, chosen)
    cost_other = _load_coeffs(n, leaf_other, 1 - chosen)
    return tuple(a - b for a, b in zip(cost_chosen, cost_other))


def _check_opt_leaf(structure: TreeStructure, opt_leaf: int) -> None:
    if opt_leaf == structure.equilibrium_leaf():
        raise ValueError("the optimum leaf must differ from the equilibrium leaf")
    if opt_leaf in (0, 2**structure.n - 1):
        raise ValueError("extreme leaves are excluded as optimum positions")


def _slack(tie_mode: str, eps: Fraction | None) -> Fraction:
    """The node rows' rhs is minus this: 0 when weak, eps when strict."""
    if tie_mode == "weak":
        return Fraction(0)
    if tie_mode != "strict":
        raise ValueError(f"unknown tie mode {tie_mode!r}")
    if eps is None or eps <= 0:
        raise ValueError("strict mode needs a positive eps")
    return eps


def build_lp(
    structure: TreeStructure,
    opt_leaf: int,
    objective_machine: int,
    tie_mode: str = "weak",
    eps: Fraction | None = None,
) -> LpProblem:
    """The Appendix-B program for one structure and optimum-leaf position.

    Variables are the 2n processing times p[i][j] >= 0.  Every internal node
    contributes the mover's best-response constraint between the equilibrium
    continuations of its two children (weak by default, or strict with an
    explicit eps); the optimum leaf's two machine loads are constrained to 1;
    the objective maximizes one machine's load at the equilibrium leaf.
    """
    _check_opt_leaf(structure, opt_leaf)
    rows = [_node_row(structure.n, key) for key in node_rows(structure)]
    return _assemble(structure, rows, _slack(tie_mode, eps), opt_leaf, objective_machine)


def _assemble(
    structure: TreeStructure, rows: list[tuple[Fraction, ...]], slack: Fraction,
    opt_leaf: int, objective_machine: int,
) -> LpProblem:
    """`build_lp`'s program from the structure's node rows, in level order."""
    n = structure.n
    leaf_rows = tuple(tuple(_load_coeffs(n, opt_leaf, m)) for m in (0, 1))
    objective = _load_coeffs(n, structure.equilibrium_leaf(), objective_machine)
    rhs = (-slack,) * len(rows) + (Fraction(1),) * 2
    return LpProblem(2 * n, tuple(objective), tuple(rows) + leaf_rows, rhs)


class _Tableau:
    """The two-phase Bland simplex on the rows of one LP.

    Building it runs phase 1 and drives degenerate artificials out of the
    basis, once; `maximize` then runs phase 2 for an objective over these
    rows from the current basis and leaves the tableau at its final one.
    Every basis phase 2 ends at is primal feasible, so a later `maximize` of
    another objective warm-starts there.
    """

    def __init__(self, lp: LpProblem) -> None:
        n = lp.n_vars
        m = len(lp.rows)
        self.n = n
        self.art0 = art0 = n + m
        n_art = sum(1 for b in lp.rhs if b < 0)
        self.width = width = art0 + n_art
        self.rows: list[list[Fraction]] = []
        self.basis: list[int] = []
        self.z: list[Fraction] = []
        art = art0
        for i in range(m):
            row = list(lp.rows[i]) + [Fraction(0)] * (width - n) + [lp.rhs[i]]
            row[n + i] = Fraction(1)
            if lp.rhs[i] < 0:
                row = [-a for a in row]
                row[art] = Fraction(1)
                self.basis.append(art)
                art += 1
            else:
                self.basis.append(n + i)
            self.rows.append(row)
        self.feasible = True
        if not n_art:
            return
        self._run([Fraction(0)] * art0 + [Fraction(-1)] * n_art, width)
        if any(
            col >= art0 and row[width] != 0 for row, col in zip(self.rows, self.basis)
        ):
            self.feasible = False
            return
        # Drive the degenerate artificials out of the basis.  Row i began
        # with its own +-1 slack column n + i, and pivots are invertible row
        # operations, so the columns before the artificials keep full row
        # rank: every row has a nonzero entry there, in a nonbasic column.
        for i, col in enumerate(self.basis):
            if col >= art0:
                self._pivot(i, next(j for j in range(art0) if self.rows[i][j]), None)

    def _run(self, costs: list[Fraction], allowed: int) -> str:
        """Bland simplex maximizing costs.x, entering only columns < allowed.

        Returns the status; `z` holds the final row of reduced costs.
        """
        rows, basis, width = self.rows, self.basis, self.width
        z = self.z = [-c for c in costs] + [Fraction(0)]
        for row, col in zip(rows, basis):
            c = costs[col]
            if c:
                for j, a in enumerate(row):
                    if a:
                        z[j] += c * a
        while True:
            enter = next((j for j in range(allowed) if z[j] < 0), None)
            if enter is None:
                return "optimal"
            best_ratio = None
            leave = -1
            for i, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    ratio = row[width] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leave])
                    ):
                        best_ratio = ratio
                        leave = i
            if best_ratio is None:
                return "unbounded"
            self._pivot(leave, enter, z)

    def _pivot(self, leave: int, col: int, z: list[Fraction] | None) -> None:
        """Pivot on (leave, col), and on `z` unless None.  Only the pivot
        row's nonzero columns change; a changed row is replaced by an edited
        copy, never edited in place, since `snapshot` copies share rows."""
        rows = self.rows
        piv = rows[leave][col]
        pivot_row = rows[leave] = [a / piv if a else a for a in rows[leave]]
        nonzero = [(j, b) for j, b in enumerate(pivot_row) if b]
        for i, row in enumerate(rows):
            factor = row[col]
            if factor and i != leave:
                row = rows[i] = row[:]
                for j, b in nonzero:
                    row[j] -= factor * b
        if z is not None and z[col]:
            factor = z[col]
            for j, b in nonzero:
                z[j] -= factor * b
        self.basis[leave] = col

    def maximize(self, objective: Sequence[Fraction]) -> LpResult:
        """Phase 2 for `objective` from the current basis."""
        if not self.feasible:
            return LpResult("infeasible", None, None)
        n = self.n
        costs = list(objective) + [Fraction(0)] * (self.width - n)
        status = self._run(costs, self.art0)
        if status != "optimal":
            return LpResult(status, None, None)
        point = [Fraction(0)] * n
        for row, col in zip(self.rows, self.basis):
            if col < n:
                point[col] = row[self.width]
        value = sum(c * x for c, x in zip(objective, point))
        # Slack column i starts as d_i e_i, with d_i = -1 on the rows negated
        # above, so z there is d_i times the tableau's dual: the dual y_i of the
        # original row, with no sign flip.
        return LpResult("optimal", value, tuple(point), tuple(self.z[n : self.art0]))

    def unique(self) -> bool:
        """Whether the last optimum is the LP's only optimal point.

        It is when every nonbasic column before the artificials has a
        positive reduced cost: any other feasible point puts one of those
        columns above 0 and so has a smaller objective.
        """
        basic = set(self.basis)
        return all(self.z[j] for j in range(self.art0) if j not in basic)

    def snapshot(self) -> "_Tableau":
        """An independent copy; a pivot replaces each row it changes and never
        edits a row list in place, so the two copies may share row lists."""
        twin = copy.copy(self)
        twin.rows, twin.basis = list(self.rows), list(self.basis)
        return twin


def simplex_solve(lp: LpProblem) -> LpResult:
    """Exact two-phase simplex with Bland's rule: `lp.objective` maximized on
    a fresh `_Tableau`."""
    return _Tableau(lp).maximize(lp.objective)


def witness_instance(n: int, point: Sequence[Fraction]) -> Instance:
    """Assemble an LP point back into a 2-machine Instance."""
    rows = [[point[var_index(i, j)] for j in range(n)] for i in (0, 1)]
    return Instance.from_rows(rows)


def structure_from_spe(
    inst: Instance, rule: TieBreakRule | None = None
) -> TreeStructure:
    """The SPE decisions of every identity-order node, as a TreeStructure.

    `equilibria.backward_induction` records each node's machine under the
    machines chosen above it; those bits, first mover most significant, are
    the node's offset in its level.

    Raises:
        ValueError: unless `inst` has two machines.
        BudgetExceededError: if 2 ** n exceeds `core.DEFAULT_BUDGET`.
    """
    if inst.m != 2:
        raise ValueError("structures are defined for m = 2")
    check_leaves(2, inst.n, "backward induction")
    _, p, start = integer_form(inst)
    root = AdaptiveTree.from_order(identity_order(inst.n), 2).root
    decisions: dict[tuple[int, ...], int] = {}
    backward_induction(p, root, start, rule or PreferLowest(), {}, decisions)
    bits = 0
    for above, machine in decisions.items():
        offset = sum(b << i for i, b in enumerate(reversed(above)))
        bits |= machine << ((1 << len(above)) - 1 + offset)
    return TreeStructure(inst.n, bits)


_RowKey = tuple[int, int, int]  # a `node_rows` key
# (scale, scaled y by row id, scaled cover y^T A over the 2n columns, y total)
_Entry = tuple[int, dict[int, int], list[int], int]


class _DualPool:
    """Node-row duals of the LPs that one `search` call has solved.

    An entry is the node-row part of one optimal dual, keyed by `node_rows`
    and scaled to integers by the lcm of its denominators.  Mapped onto
    another LP of the call (rows that LP lacks get y = 0), with the two
    optimum-leaf duals raised to the least values that keep y^T A >= c, an
    entry is a dual feasible y for that LP, so y^T b bounds it by weak
    duality.  The optimum-leaf rows are 0/1 and cover each column at most
    once, so the least raise of each is the largest deficit c - y^T A among
    the columns it covers; a positive deficit on a column neither covers
    leaves no bound.  Every LP of one call has the node-row rhs -slack, so
    the slack is fixed for the pool.

    Each key is interned as an int id on first sight, with its `Fraction`
    row, which `search` assembles LPs from, and its integer (column,
    coefficient) terms.  An entry keeps its cover y^T A over all its keys
    and its y total; `_map` takes away the keys the current structure lacks
    and keeps, per objective machine, the deficit columns as a bitmask and
    the largest deficit on either machine's columns.  `certificate` then
    tests `mask & ~leafmask` against the optimum leaf's columns before the
    integer bound.
    """

    def __init__(self, n: int, slack: Fraction) -> None:
        self.n = n
        self.ids: dict[_RowKey, int] = {}
        self.rows: list[tuple[Fraction, ...]] = []
        self.terms: list[list[tuple[int, int]]] = []
        self.entries: list[_Entry] = []
        self.node_rhs = -slack
        self.last = 0
        # Set by `enter`: the structure's row ids, the objective columns of
        # either machine, and each entry's `_map`, filled lazily.
        self.keys: dict[int, None] = {}
        self.objective: list[list[int]] = [[], []]
        self.mapped: list[tuple[tuple[int, list[int], int], ...] | None] = []

    def enter(self, structure: TreeStructure) -> None:
        """Make `structure` the one whose LPs `add` and `certificate` see."""
        self.keys = {}
        for key in node_rows(structure):
            if key not in self.ids:
                self.ids[key] = len(self.rows)
                self.rows.append(_node_row(self.n, key))
                self.terms.append([(col, int(a)) for col, a in enumerate(self.rows[-1]) if a])
            self.keys[self.ids[key]] = None
        eq_leaf = structure.equilibrium_leaf()
        self.objective = [
            [var_index(k, d) for d in range(self.n) if leaf_machine(self.n, eq_leaf, d) == k]
            for k in (0, 1)
        ]
        self.mapped = [None] * len(self.entries)

    def add(self, dual: Sequence[Fraction]) -> None:
        """Pool the node-row part of an optimal dual of one of the LPs."""
        part = [(key, y) for key, y in zip(self.keys, dual) if y]
        scale = lcm(*(y.denominator for _, y in part))
        ys = {key: y.numerator * (scale // y.denominator) for key, y in part}
        cover = [0] * (2 * self.n)
        for key, y in ys.items():
            for col, a in self.terms[key]:
                cover[col] += a * y
        self.entries.append((scale, ys, cover, sum(ys.values())))
        self.mapped.append(None)

    def _map(self, index: int) -> tuple[tuple[int, list[int], int], ...]:
        """Entry `index` on the current structure: per objective machine, the
        mask of columns with a deficit scale * c - y^T A > 0, the largest one on
        each machine's columns and y^T b * scale * rhs.denominator with those
        raises; then scale * rhs.denominator."""
        scale, ys, cover, total = self.entries[index]
        cover = cover[:]
        for key, y in ys.items():
            if key not in self.keys:
                total -= y
                for col, a in self.terms[key]:
                    cover[col] -= a * y
        # Off the objective the deficit is -y^T A; on it, scale - y^T A.
        mask, low = 0, [0, 0]
        for col, have in enumerate(cover):
            if have < 0:
                mask |= 1 << col
                if -have > low[col & 1]:
                    low[col & 1] = -have
        den, base = self.node_rhs.denominator, self.node_rhs.numerator * total
        mapped = []
        for machine, cols in enumerate(self.objective):
            deficits, raised = mask, low[:]
            for col in cols:
                deficit = scale - cover[col]
                if deficit > 0:
                    deficits |= 1 << col
                    if deficit > raised[machine]:
                        raised[machine] = deficit
            mapped.append((deficits, raised, (raised[0] + raised[1]) * den + base))
        self.mapped[index] = result = (*mapped, scale * den)
        return result

    def certificate(
        self, opt_leaf: int, objective_machine: int, best: Fraction
    ) -> tuple[int, list[int]] | None:
        """A pooled dual that bounds the current structure's LP by `best`.

        Returns `(scale, y)`, with y the dual of every row of `build_lp`'s
        program, in its order, times `scale`; or None when no entry proves
        y^T b <= best.  The entry that last succeeded is tried first.
        """
        n = self.n
        leafmask = sum(1 << var_index(leaf_machine(n, opt_leaf, d), d) for d in range(n))
        numerator, denominator = best.numerator, best.denominator
        size, maps = len(self.entries), self.mapped
        for index in chain(range(self.last, size), range(self.last)):
            mapped = maps[index] or self._map(index)
            mask, raised, bound = mapped[objective_machine]
            if not mask & ~leafmask and bound * denominator <= numerator * mapped[2]:
                self.last = index
                scale, ys = self.entries[index][:2]
                return scale, [ys.get(key, 0) for key in self.keys] + raised
        return None


@dataclass(frozen=True, slots=True)
class SearchResult:
    """Best LP value over the scanned structures, with its certificate.

    `solved` LPs went through the simplex; `skipped` ones were proved
    unable to beat the running best without it.  `warm` of the solved LPs
    are M2-objective LPs maximized on their M1 twin's tableau, and
    `resolved` of those were solved again cold for their witness.
    """

    value: Fraction | None
    structure: TreeStructure | None
    opt_leaf: int | None
    objective_machine: int | None
    witness: Instance | None
    unbounded: tuple[tuple[int, int, int], ...]  # (structure bits, leaf, machine)
    scanned: int
    next_index: int | None
    solved: int
    skipped: int
    warm: int
    resolved: int


def search(
    n: int,
    *,
    tie_mode: str = "weak",
    eps: Fraction | None = None,
    structures: Iterable[TreeStructure] | None = None,
    opt_leaves: Sequence[int] | None = None,
    start: int = 0,
    limit: int | None = None,
    on_improve: Callable[[Fraction, TreeStructure, int, Instance], None] | None = None,
) -> SearchResult:
    """Maximize the equilibrium-leaf load over structures and optimum leaves.

    Every structure and admissible optimum leaf gives two LPs (one per
    objective machine); the global maximum, its witness instance, and any
    unbounded (structure, leaf, machine) combinations are reported.  The
    structures default to `enumerate_structures(n)` with every filter on;
    pass `structures=enumerate_structures(n, ...)` for other filters.
    `start` and `limit` give a resumable window over the structure stream;
    `next_index` is None once the stream ends, also for a `start` past its
    end.  `opt_leaves=[]` tries no leaf, and None every admissible one.

    An LP is skipped, not solved, when a dual pooled from this call's optima
    bounds it by the running best, or when it is the machine-1 twin of an
    infeasible machine-0 LP.  The best changes only on a strict improvement
    and a finite bound rules out unboundedness, so skipping changes no output
    except the `solved` and `skipped` counts.

    A machine-1 LP whose machine-0 twin was solved is maximized on the
    twin's tableau (see the module docstring); when its optimum would
    replace the best and is not provably unique, it is maximized again on a
    copy of the pair's phase-1 tableau, so the witness is the cold one.

    Raises:
        ValueError: if `start` or `limit` is negative, `tie_mode` or `eps`
            is bad (checked before the scan), or a structure's n is not `n`.
    """
    if start < 0 or (limit is not None and limit < 0):
        raise ValueError(f"start and limit must be >= 0, got {start} and {limit}")
    slack = _slack(tie_mode, eps)
    stream = enumerate_structures(n) if structures is None else structures
    best: tuple[Fraction, TreeStructure, int, int, Instance] | None = None
    unbounded: list[tuple[int, int, int]] = []
    pool = _DualPool(n, slack)
    scanned = solved = skipped = warm = resolved = 0
    next_index = None
    for index, structure in enumerate(islice(stream, start, None), start):
        if scanned == limit:
            next_index = index
            break
        if structure.n != n:
            raise ValueError(f"structure {structure} has n={structure.n}, not {n}")
        scanned += 1
        pool.enter(structure)
        rows = [pool.rows[key] for key in pool.keys]
        eq_leaf = structure.equilibrium_leaf()
        inner = [leaf for leaf in range(1, 2**n - 1) if leaf != eq_leaf]
        for leaf in inner if opt_leaves is None else opt_leaves:
            _check_opt_leaf(structure, leaf)
            tableau: _Tableau | None = None
            for machine in (0, 1):
                # Machine 1's LP has machine 0's rows, so it is infeasible
                # too; a bounded-by-best LP cannot replace the best (strict >).
                if (tableau is not None and not tableau.feasible) or (
                    best is not None and pool.certificate(leaf, machine, best[0]) is not None
                ):
                    skipped += 1
                    continue
                lp = _assemble(structure, rows, slack, leaf, machine)
                warm_start = tableau is not None
                if tableau is None:
                    tableau = _Tableau(lp)
                    # Where a cold solve of either LP starts phase 2.
                    phase1 = tableau.snapshot()
                else:
                    warm += 1
                result = tableau.maximize(lp.objective)
                solved += 1
                if result.status == "unbounded":
                    unbounded.append((structure.bits, leaf, machine))
                elif result.status == "optimal":
                    assert result.value is not None and result.dual is not None
                    pool.add(result.dual)
                    if best is None or result.value > best[0]:
                        if warm_start and not tableau.unique():
                            # Another optimal vertex may exist, so the cold
                            # solve's point is the witness.
                            resolved += 1
                            result = phase1.maximize(lp.objective)
                        assert result.value is not None and result.point is not None
                        witness = witness_instance(n, result.point)
                        best = (result.value, structure, leaf, machine, witness)
                        if on_improve is not None:
                            on_improve(result.value, structure, leaf, witness)
    return SearchResult(
        *(best or (None,) * 5), tuple(unbounded), scanned, next_index,
        solved, skipped, warm, resolved,
    )
