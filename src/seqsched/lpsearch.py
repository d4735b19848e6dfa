"""Adversarial-instance search over fixed-order SPE tree structures (m = 2).

A `TreeStructure` fixes the branch chosen at every internal node of the
identity-order binary tree.  Each structure plus a designated optimum leaf
induces a linear program over the processing times whose optimum is the worst
makespan that structure can force while the optimum stays at most 1; the
search maximizes over structures and leaves with the paper's prunings.

All LP arithmetic is exact (`fractions.Fraction`); the solver is a two-phase
tableau simplex with Bland's anti-cycling rule, whose phase 1 adds one
artificial column (weak LPs, with no negative rhs, skip it).  A pivot skips
each multiply or divide by 1 or -1, which most of these LPs' factors are; in
exact arithmetic that gives the same values, so no result moves.  Every optimum
carries its dual, read off the final reduced costs, and `certify_optimal`
checks point and dual exactly, outside the solver.  A node's best-response
row depends only on (chosen leaf, other leaf, branch), so it recurs across
structures: `build_lp` builds each such row once per process, and `search`
builds every LP it solves through `build_lp`.  `search` pools the node-row
duals of those LPs and skips every LP that one of them, completed on the
optimum-leaf rows, bounds by the running best (weak duality, checked in
integers).  An entry's columns short of the objective form a bitmask, and
only an entry whose mask lies within the optimum leaf's columns is weighed.
On the unpruned n=3 scan 1,190 of 1,344 LPs are skipped, and on the pruned
n=4 scan 31,677 of 32,864.

The two LPs of one (structure, optimum leaf) pair differ only in the
objective machine, so `search` builds one `_Tableau` per pair: phase 1 runs
once, the M1-objective LP is maximized from the phase-1 basis exactly as
`simplex_solve` would, and the M2-objective LP from M1's final basis.  A warm
optimum has the cold value, and the cold point too when it is unique (no
nonbasic column has reduced cost 0).  When it is not unique and would
replace the running best, `simplex_solve(lp)` solves it again cold, so the
pivots and the witness are the cold solve's.
`structure_from_spe` reads its node decisions off
`equilibria.backward_induction`, the integer kernel behind `spe`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice
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
    """Stream structures passing the enabled filters.

    Upper-node patterns come ascending, each with every kept last layer
    ascending.  Filters: Observation-1 consistency of the last layer; mirror
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

    def __post_init__(self) -> None:
        if len(self.objective) != self.n_vars or any(len(row) != self.n_vars for row in self.rows):
            raise ValueError(f"the objective and every row need n_vars={self.n_vars} entries")
        if len(self.rhs) != len(self.rows):
            raise ValueError(f"{len(self.rows)} rows but {len(self.rhs)} rhs entries")


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


def var_index(machine: int, job: int) -> int:
    """Column of p[machine][job] in the LP variable vector."""
    return 2 * job + machine


@cache
def _load_mask(n: int, leaf: int, machine: int) -> int:
    """`machine`'s load at `leaf`, as the bitmask of the p-columns it sums."""
    return sum(1 << var_index(machine, d) for d in range(n) if leaf_machine(n, leaf, d) == machine)


_UNIT = (Fraction(0), Fraction(1), Fraction(-1))  # indexed by value


@cache
def _row(n: int, plus: int, minus: int = 0) -> tuple[Fraction, ...]:
    """The 2n-column row of shared `_UNIT`s: 1 on `plus`'s bits, -1 on `minus`'s."""
    return tuple(_UNIT[(plus >> col & 1) - (minus >> col & 1)] for col in range(2 * n))


def node_rows(structure: TreeStructure) -> list[tuple[int, int, int]]:
    """(chosen leaf, other leaf, branch) of every internal node, level order.

    The node's best-response row in `build_lp` depends on nothing else, so
    one key names one row across all structures of the same n.
    """
    first_leaf = 2**structure.n - 1
    # One bottom-up pass: below[v] is the leaf reached from node v.
    below = [0] * first_leaf + list(range(first_leaf + 1))
    keys = [(0, 0, 0)] * first_leaf
    for node in reversed(range(first_leaf)):
        chosen = structure.choice(node)
        below[node] = below[2 * node + 1 + chosen]
        keys[node] = (below[node], below[2 * node + 2 - chosen], chosen)
    return keys


def _node_row(n: int, key: tuple[int, int, int]) -> tuple[Fraction, ...]:
    """The best-response row of the node with `node_rows` key `key`: its
    mover's load on the chosen branch minus the other branch's."""
    leaf_chosen, leaf_other, chosen = key
    return _row(n, _load_mask(n, leaf_chosen, chosen), _load_mask(n, leaf_other, 1 - chosen))


def _check_opt_leaf(n: int, opt_leaf: int) -> None:
    """Refuse an optimum leaf that is not an int inner leaf; it may be the equilibrium leaf."""
    if isinstance(opt_leaf, bool) or not isinstance(opt_leaf, int):
        raise ValueError(f"optimum leaf {opt_leaf!r} is not an int")
    if not 0 < opt_leaf < 2**n - 1:
        raise ValueError(f"optimum leaf {opt_leaf} is not an inner leaf (1 to 2^n - 2)")


def _slack(tie_mode: str, eps: Fraction | None) -> Fraction:
    """The node rows' rhs is minus this: 0 when weak, eps when strict."""
    if tie_mode not in ("weak", "strict"):
        raise ValueError(f"unknown tie mode {tie_mode!r}")
    if tie_mode == "weak" and eps is not None:
        raise ValueError("eps belongs to strict mode only")
    if tie_mode == "strict" and (eps is None or eps <= 0):
        raise ValueError("strict mode needs a positive eps")
    return Fraction(0) if eps is None else eps


def build_lp(
    structure: TreeStructure,
    opt_leaf: int,
    objective_machine: int,
    tie_mode: str = "weak",
    eps: Fraction | None = None,
) -> LpProblem:
    """The Appendix-B program for one structure and any inner optimum leaf.

    Variables are the 2n processing times p[i][j] >= 0.  Every internal node
    contributes the mover's best-response constraint between the equilibrium
    continuations of its two children (weak by default, or strict with a
    positive eps, which only strict mode takes); the optimum leaf's two
    machine loads are constrained to 1; the objective maximizes one
    machine's load at the equilibrium leaf (0 = M1, 1 = M2).

    Rows and load masks are cached per process, so LPs that share a node
    key share its row; the cache holds at most 2 * 4^n node rows per n.
    """
    _check_opt_leaf(structure.n, opt_leaf)
    if objective_machine not in (0, 1):
        raise ValueError(f"objective machine must be 0 or 1, got {objective_machine}")
    n = structure.n
    rows = tuple(_node_row(n, key) for key in node_rows(structure))
    leaf_rows = tuple(_row(n, _load_mask(n, opt_leaf, m)) for m in (0, 1))
    objective = _row(n, _load_mask(n, structure.equilibrium_leaf(), objective_machine))
    rhs = (-_slack(tie_mode, eps),) * len(rows) + (Fraction(1),) * 2
    return LpProblem(2 * n, objective, rows + leaf_rows, rhs)


class _Tableau:
    """The two-phase Bland simplex on the rows of one LP.

    Building it runs phase 1 once, on Chvátal's auxiliary problem: the rows
    with a negative rhs get -1 in one artificial column x0, which enters on
    the most negative of them, and the simplex maximizes -x0; an x0 left in
    the basis at 0 is pivoted out, and its column deleted.  `maximize` then
    runs phase 2 for an objective over these rows from the current basis and
    leaves the tableau at its final one.  Every basis phase 2 ends at is
    primal feasible, so a later `maximize` of another objective warm-starts
    there; pivots edit its own rows in place, and it makes no copies.  A
    pivot of 1 divides nothing, and a row factor of +-1 adds or subtracts the
    pivot row as it is: these are the exact values scaling gives, so no
    basis, point or dual moves.
    """

    def __init__(self, lp: LpProblem) -> None:
        n, m = lp.n_vars, len(lp.rows)
        self.n = n
        self.width = x0 = n + m
        self.basis: list[int] = list(range(n, x0))
        self.z: list[Fraction] = []
        self.rows: list[list[Fraction]] = []
        phase1 = min(lp.rhs, default=0) < 0
        for i, (coeffs, b) in enumerate(zip(lp.rows, lp.rhs)):
            row = list(coeffs) + [Fraction(0)] * (m + phase1) + [b]
            row[n + i] = Fraction(1)
            if b < 0:
                row[x0] = Fraction(-1)
            self.rows.append(row)
        self.feasible = True
        if not phase1:
            return
        self.width += 1
        self._pivot(lp.rhs.index(min(lp.rhs)), x0, None)
        self._run([Fraction(0)] * x0 + [Fraction(-1)])
        if x0 in self.basis:
            leave = self.basis.index(x0)
            if self.rows[leave][-1]:
                self.feasible = False
                return
            # Row `leave` began with its own slack column n + leave, and
            # pivots are invertible row operations, so the columns before x0
            # keep full row rank: the row's first nonzero entry is in one.
            self._pivot(leave, next(j for j, a in enumerate(self.rows[leave]) if a), None)
        for row in self.rows:
            del row[x0]
        self.width = x0

    def _run(self, costs: list[Fraction]) -> str:
        """Bland simplex maximizing costs.x over every column.

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
            enter = next((j for j in range(width) if z[j] < 0), None)
            if enter is None:
                return "optimal"
            best_ratio = None
            leave = -1
            for i, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    ratio = row[width] if a == 1 else row[width] / a
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
        """Pivot on (leave, col), and on `z` unless None, in the pivot row's nonzero columns."""
        pivot_row = self.rows[leave]
        piv = pivot_row[col]
        nonzero = [(j, a) for j, a in enumerate(pivot_row) if a]
        if piv != 1:
            nonzero = [(j, a / piv) for j, a in nonzero]
            for j, b in nonzero:
                pivot_row[j] = b
        def subtract(t: list[Fraction], factor: Fraction) -> None:
            if factor == 1:
                for j, b in nonzero:
                    t[j] -= b
            elif factor == -1:
                for j, b in nonzero:
                    t[j] += b
            else:
                for j, b in nonzero:
                    t[j] -= factor * b
        for i, row in enumerate(self.rows):
            factor = row[col]
            if factor and i != leave:
                subtract(row, factor)
        if z is not None and z[col]:
            subtract(z, z[col])
        self.basis[leave] = col

    def maximize(self, objective: Sequence[Fraction]) -> LpResult:
        """Phase 2 for `objective` from the current basis."""
        if not self.feasible:
            return LpResult("infeasible", None, None)
        n = self.n
        costs = list(objective) + [Fraction(0)] * (self.width - n)
        status = self._run(costs)
        if status != "optimal":
            return LpResult(status, None, None)
        point = [Fraction(0)] * n
        for row, col in zip(self.rows, self.basis):
            if col < n:
                point[col] = row[self.width]
        # Every pivot keeps z's rhs entry at c.x; slack column i starts as
        # e_i, so z there is the dual y_i of row i.
        z = self.z
        return LpResult("optimal", z[self.width], tuple(point), tuple(z[n : self.width]))

    def unique(self) -> bool:
        """Whether the last optimum is the LP's only optimal point.

        It is when every nonbasic column has a positive reduced cost: any
        other feasible point puts one of those columns above 0 and so has a
        smaller objective.
        """
        basic = set(self.basis)
        return all(self.z[j] for j in range(self.width) if j not in basic)


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
# Per objective machine (deficit mask, raised optimum-leaf duals, scaled
# bound), then the scale of the bound's right-hand side.
_Mapped = tuple[tuple[int, list[int], int], tuple[int, list[int], int], int]


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
    the slack is fixed for the pool, as an integer numerator and denominator.

    The pool holds only ints.  Each key is interned as an int id on first
    sight, with its (column, +-1) terms.  An entry is stored as solved,
    `(scale, ys)`.
    `_map` sums y^T A over the entry's keys that the current structure has
    and keeps, per objective machine, the deficit columns as a bitmask and
    the largest deficit on either machine's columns.  `certificate` tests
    `mask & ~leafmask` against the optimum leaf's columns before the
    integer bound.  Entries are tried in the order solved, so the entries
    mapped for one structure are always a prefix of the pool.
    """

    def __init__(self, n: int, slack: Fraction) -> None:
        self.n = n
        self.ids: dict[_RowKey, int] = {}
        self.terms: list[list[tuple[int, int]]] = []
        self.entries: list[tuple[int, dict[int, int]]] = []  # (scale, scaled y by row id)
        self.rhs_num, self.rhs_den = -slack.numerator, slack.denominator
        # Set by `enter`: the structure's row ids, the objective columns of
        # either machine, and the `_map` of each entry scanned so far.
        self.keys: dict[int, None] = {}
        self.objective: list[list[int]] = [[], []]
        self.mapped: list[_Mapped] = []

    def enter(self, structure: TreeStructure) -> None:
        """Make `structure` the one whose LPs `add` and `certificate` see."""
        self.keys = {}
        n = self.n
        for key in node_rows(structure):
            if key not in self.ids:
                self.ids[key] = len(self.terms)
                self.terms.append([(col, int(a)) for col, a in enumerate(_node_row(n, key)) if a])
            self.keys[self.ids[key]] = None
        masks = (_load_mask(n, structure.equilibrium_leaf(), m) for m in (0, 1))
        self.objective = [[col for col in range(2 * n) if mask >> col & 1] for mask in masks]
        self.mapped = []

    def add(self, dual: Sequence[Fraction]) -> None:
        """Pool the node-row part of an optimal dual of one of the LPs."""
        part = [(key, y) for key, y in zip(self.keys, dual) if y]
        scale = lcm(*(y.denominator for _, y in part))
        ys = {key: y.numerator * (scale // y.denominator) for key, y in part}
        self.entries.append((scale, ys))

    def _map(self, scale: int, ys: dict[int, int]) -> _Mapped:
        """Entry `(scale, ys)` on the current structure: per objective machine,
        the mask of columns with a deficit scale * c - y^T A > 0, the largest
        one on each machine's columns and y^T b * scale * rhs.denominator with
        those raises; then scale * rhs.denominator."""
        cover, total = [0] * (2 * self.n), 0
        for key, y in ys.items():
            if key in self.keys:
                total += y
                for col, a in self.terms[key]:
                    cover[col] += a * y
        # Off the objective the deficit is -y^T A; on it, scale - y^T A.
        mask, low = 0, [0, 0]
        for col, have in enumerate(cover):
            if have < 0:
                mask |= 1 << col
                if -have > low[col & 1]:
                    low[col & 1] = -have
        den, base = self.rhs_den, self.rhs_num * total
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
        return (*mapped, scale * den)

    def certificate(
        self, opt_leaf: int, objective_machine: int, best: Fraction
    ) -> tuple[int, list[int]] | None:
        """The first pooled dual that bounds the current structure's LP by `best`.

        Returns `(scale, y)`, with y the dual of every row of `build_lp`'s
        program, in its order, times `scale`; or None when no entry proves
        y^T b <= best.
        """
        leafmask = _load_mask(self.n, opt_leaf, 0) | _load_mask(self.n, opt_leaf, 1)
        numerator, denominator = best.numerator, best.denominator
        maps = self.mapped
        for index, (scale, ys) in enumerate(self.entries):
            if index == len(maps):
                maps.append(self._map(scale, ys))
            mapped = maps[index]
            mask, raised, bound = mapped[objective_machine]
            if not mask & ~leafmask and bound * denominator <= numerator * mapped[2]:
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

    Each structure and optimum leaf gives two LPs, one per objective machine;
    the maximum, its witness instance and every unbounded (structure, leaf,
    machine) are reported.  The structures default to
    `enumerate_structures(n)`, every filter on, and the optimum leaves to every
    inner leaf but the equilibrium leaf; `opt_leaves=[]` tries none, and a
    listed leaf may be the equilibrium leaf, whose LPs are then at most 1.
    `start` and `limit` give a resumable window over the structure stream;
    `next_index` is None once the stream ends, also for a `start` past its end.

    An LP is skipped, not solved, when a dual pooled from this call's optima
    bounds it by the running best, or when it is the machine-1 twin of an
    infeasible machine-0 LP.  The best changes only on a strict improvement
    and a finite bound rules out unboundedness, so skipping changes no output
    except the `solved` and `skipped` counts.

    A machine-1 LP whose machine-0 twin was solved is maximized on the
    twin's tableau (see the module docstring); when its optimum would
    replace the best and is not provably unique, `simplex_solve(lp)` solves
    it again cold, so the witness is the cold one.

    Raises:
        ValueError: before the scan, if `start` or `limit` is negative, a
            listed optimum leaf is not an int inner leaf, `tie_mode` is
            unknown or `eps` is bad (eps belongs to strict mode only, and
            must be positive there); later, if a structure's n is not `n`.
    """
    if start < 0 or (limit is not None and limit < 0):
        raise ValueError(f"start and limit must be >= 0, got {start} and {limit}")
    for leaf in opt_leaves or ():
        _check_opt_leaf(n, leaf)
    pool = _DualPool(n, _slack(tie_mode, eps))
    stream = enumerate_structures(n) if structures is None else structures
    best: tuple[Fraction, TreeStructure, int, int, Instance] | None = None
    unbounded: list[tuple[int, int, int]] = []
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
        eq_leaf = structure.equilibrium_leaf()
        inner = [leaf for leaf in range(1, 2**n - 1) if leaf != eq_leaf]
        for leaf in inner if opt_leaves is None else opt_leaves:
            tableau: _Tableau | None = None
            for machine in (0, 1):
                # Machine 1's LP has machine 0's rows, so it is infeasible
                # too; a bounded-by-best LP cannot replace the best (strict >).
                if (tableau is not None and not tableau.feasible) or (
                    best is not None and pool.certificate(leaf, machine, best[0]) is not None
                ):
                    skipped += 1
                    continue
                lp = build_lp(structure, leaf, machine, tie_mode, eps)
                warm_start = tableau is not None
                if tableau is None:
                    tableau = _Tableau(lp)
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
                            result = simplex_solve(lp)
                        assert result.value is not None and result.point is not None
                        witness = witness_instance(n, result.point)
                        best = (result.value, structure, leaf, machine, witness)
                        if on_improve is not None:
                            on_improve(result.value, structure, leaf, witness)
    return SearchResult(
        *(best or (None,) * 5), tuple(unbounded), scanned, next_index,
        solved, skipped, warm, resolved,
    )
