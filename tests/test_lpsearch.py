"""Tests for seqsched.lpsearch: exact simplex, structure enumeration, search."""

import collections
import copy
import dataclasses
import itertools
import pickle
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsched import lpsearch
from seqsched.core import BudgetExceededError, Instance, opt
from seqsched.constructions import gen_thm1
from seqsched.equilibria import (
    AdaptiveTree,
    PreferHighest,
    PreferLowest,
    TieBreakContractError,
    TieBreakRule,
    identity_order,
    spe,
    spe_outcome_set,
)
from seqsched.lpsearch import (
    LpProblem,
    LpResult,
    SearchResult,
    TreeStructure,
    _DualPool,
    _Tableau,
    _count_monotone_masks,
    _load_mask,
    _node_row,
    _row,
    build_lp,
    certify_optimal,
    count_structures,
    dual_feasible,
    enumerate_structures,
    leaf_machine,
    monotone_masks,
    node_rows,
    primal_feasible,
    search,
    simplex_solve,
    structure_from_spe,
    var_index,
    witness_instance,
)
from seqsched.measures import spoa_fixed

from conftest import random_instance

EPS = Fraction(1, 100)

F = Fraction


def fraction_structure_bits(inst, rule):
    """The `structure_from_spe` recursion on `Fraction` loads, setting node
    bits as it returns: the reference for the shared integer kernel."""
    n = inst.n
    bits = 0
    history = {}

    def solve(node, depth, cur):
        nonlocal bits
        if depth == n:
            return cur
        j = depth
        options = []
        for machine in (0, 1):
            nxt = list(cur)
            nxt[machine] += inst.p[machine][j]
            history[j] = machine
            options.append((machine, solve(2 * node + 1 + machine, depth + 1, nxt)))
            del history[j]
        best = min(final[machine] for machine, final in options)
        tied = tuple(machine for machine, final in options if final[machine] == best)
        machine = tied[0] if len(tied) == 1 else rule.choose(j, dict(history), tied)
        if machine:
            bits |= 1 << node
        return options[machine][1]

    solve(0, 0, list(inst.initial_loads))
    return bits


def lp(objective, rows, rhs):
    return LpProblem(
        len(objective),
        tuple(F(c) for c in objective),
        tuple(tuple(F(a) for a in row) for row in rows),
        tuple(F(b) for b in rhs),
    )


class TestSimplex:
    def test_bounded_box(self):
        result = simplex_solve(lp([1, 1], [[1, 0], [0, 1]], [2, 3]))
        assert result.status == "optimal"
        assert result.value == 5
        assert result.point == (2, 3)

    def test_infeasible(self):
        # x <= -1 with x >= 0 has no solution.
        result = simplex_solve(lp([1], [[1]], [-1]))
        assert result.status == "infeasible"
        assert result.value is None and result.point is None

    def test_unbounded(self):
        result = simplex_solve(lp([1], [[-1]], [1]))
        assert result.status == "unbounded"

    def test_unbounded_without_constraints(self):
        result = simplex_solve(lp([1, 2], [], []))
        assert result.status == "unbounded"

    def test_negative_rhs_uses_phase_one(self):
        # -x <= -2 forces x >= 2 through an artificial variable.
        result = simplex_solve(lp([1], [[-1], [1]], [-2, 5]))
        assert result.status == "optimal"
        assert result.value == 5

    def test_phase_one_feasible_interior(self):
        # minimize nothing, just find a point with x + y >= 4, x <= 3, y <= 3
        result = simplex_solve(lp([0, 0], [[-1, -1], [1, 0], [0, 1]], [-4, 3, 3]))
        assert result.status == "optimal"
        x, y = result.point
        assert x + y >= 4 and x <= 3 and y <= 3

    def test_beale_cycling_example_terminates(self):
        # Classic degenerate program that cycles without an anti-cycling
        # rule; Bland's rule must terminate at value 1/20.
        problem = lp(
            [F(3, 4), -150, F(1, 50), -6],
            [
                [F(1, 4), -60, F(-1, 25), 9],
                [F(1, 2), -90, F(-1, 50), 3],
                [0, 0, 1, 0],
            ],
            [0, 0, 1],
        )
        result = simplex_solve(problem)
        assert result.status == "optimal"
        assert result.value == F(1, 20)
        for row, limit in zip(problem.rows, problem.rhs):
            assert sum(a * x for a, x in zip(row, result.point)) <= limit

    @pytest.mark.parametrize(
        ("n_vars", "objective", "rows", "rhs"),
        [
            (2, [1, 1], [[1, 0], [0, 1]], [1]),  # zip would drop the last row
            (2, [1, 1], [[1, 0]], [1, 1]),
            (1, [1, 5], [[1, 0]], [1]),  # read as optimal with value 0
            (1, [1], [[1, 0]], [1]),
            (2, [1, 1], [[1], [0, 1]], [1, 1]),  # an IndexError in `_run`
            (2, [1], [[1, 0]], [1]),
        ],
        ids=["rhs-short", "rhs-long", "objective-long", "row-long", "row-short", "objective-short"],
    )
    def test_malformed_shapes_are_refused(self, n_vars, objective, rows, rhs):
        with pytest.raises(ValueError):
            LpProblem(
                n_vars,
                tuple(map(F, objective)),
                tuple(tuple(map(F, row)) for row in rows),
                tuple(map(F, rhs)),
            )

    def test_exactness_with_awkward_fractions(self):
        # maximize x + 3y with 3x + 7y <= 1, y <= 1/13: the optimal vertex
        # (2/13, 1/13) has value 5/13, which floats cannot represent.
        result = simplex_solve(lp([1, 3], [[3, 7], [0, 1]], [1, F(1, 13)]))
        assert result.status == "optimal"
        assert result.value == F(5, 13)
        assert result.point == (F(2, 13), F(1, 13))


UNPRUNED = dict(prune_obs1=False, prune_mirror=False, exclude_extreme_eq_leaf=False)
N3_STRUCTURES = list(enumerate_structures(3, **UNPRUNED))


def perturbed(result, problem, index, delta):
    """The optimal dual with one entry moved so y^T b no longer equals the
    value, or made negative when every rhs is 0."""
    dual = list(result.dual)
    nonzero = [i for i, b in enumerate(problem.rhs) if b]
    if nonzero:
        dual[nonzero[index % len(nonzero)]] += delta
    else:
        dual[index % len(dual)] = -delta
    return dataclasses.replace(result, dual=tuple(dual))


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)


class TestCertificates:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(N3_STRUCTURES),
        st.integers(1, 6),
        st.sampled_from([0, 1]),
        st.sampled_from(["weak", "strict"]),
        st.integers(0, 16),
        st.fractions(min_value=F(1, 7), max_value=3),
    )
    def test_n3_optima_carry_checked_duals(
        self, structure, leaf, machine, mode, index, delta
    ):
        if leaf == structure.equilibrium_leaf():
            return
        problem = build_lp(
            structure, leaf, machine, mode, EPS if mode == "strict" else None
        )
        result = simplex_solve(problem)
        if result.status != "optimal":
            assert result.dual is None
            return
        assert certify_optimal(problem, result)
        assert not certify_optimal(problem, perturbed(result, problem, index, delta))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.tuples(
                st.lists(small_fractions, min_size=n, max_size=n),
                st.lists(
                    st.tuples(
                        st.lists(small_fractions, min_size=n, max_size=n),
                        small_fractions,
                    ),
                    max_size=4,
                ),
            )
        ),
        st.integers(0, 8),
        st.fractions(min_value=F(1, 7), max_value=3),
    )
    def test_random_optima_carry_checked_duals(self, data, index, delta):
        objective, constraints = data
        # A box row keeps the LP bounded; the random rows mix rhs signs.
        rows = [row for row, _ in constraints] + [[1] * len(objective)]
        rhs = [b for _, b in constraints] + [10]
        problem = lp(objective, rows, rhs)
        result = simplex_solve(problem)
        assert result.status in ("optimal", "infeasible")
        if result.status == "optimal":
            assert certify_optimal(problem, result)
            assert not certify_optimal(
                problem, perturbed(result, problem, index, delta)
            )

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(small_fractions, min_size=n, max_size=n),
                    min_size=2,
                    max_size=2,
                ),
                st.lists(
                    st.tuples(
                        st.lists(small_fractions, min_size=n, max_size=n),
                        small_fractions,
                    ),
                    max_size=4,
                ),
            )
        )
    )
    def test_warm_maximize_matches_cold(self, data):
        objectives, constraints = data
        rows = [row for row, _ in constraints] + [[1] * len(objectives[0])]
        rhs = [b for _, b in constraints] + [10]
        first, second = (lp(objective, rows, rhs) for objective in objectives)
        tableau = _Tableau(first)
        assert tableau.maximize(first.objective) == simplex_solve(first)
        warm = tableau.maximize(second.objective)
        cold = simplex_solve(second)
        assert (warm.status, warm.value) == (cold.status, cold.value)
        if warm.status == "optimal":
            assert certify_optimal(second, warm)
            if tableau.unique():
                assert warm.point == cold.point

    def test_warm_start_keeps_the_last_basis(self):
        # max y ends at (0, 1); x + y is optimal there too, so the warm
        # solve stays, while the cold solve's first pivot reaches (1, 0).
        problem = lp([1, 1], [[1, 1], [1, 0], [0, 1]], [1, 1, 1])
        tableau = _Tableau(problem)
        assert tableau.maximize((F(0), F(1))).point == (0, 1)
        assert tableau.unique()
        warm = tableau.maximize(problem.objective)
        assert (warm.value, warm.point) == (1, (0, 1))
        assert not tableau.unique()
        assert simplex_solve(problem).point == (1, 0)

    def test_checker_halves(self):
        problem = lp([3, 5], [[1, 0], [0, 2], [3, 2]], [4, 12, 18])
        result = simplex_solve(problem)
        assert result.dual == (0, F(3, 2), 1)
        assert certify_optimal(problem, result)
        assert primal_feasible(problem, (F(2), F(6)))
        assert not primal_feasible(problem, (F(-1), F(0)))
        assert not primal_feasible(problem, (F(5), F(0)))
        assert dual_feasible(problem, (0, F(3, 2), 1))
        assert not dual_feasible(problem, (0, 1, 1))
        assert not dual_feasible(problem, (-1, F(3, 2), 2))
        # A feasible but suboptimal point fails the y^T b == value check.
        assert not certify_optimal(
            problem, dataclasses.replace(result, value=F(34), point=(F(2), F(28, 5)))
        )
        assert not certify_optimal(problem, simplex_solve(lp([1], [[1]], [-1])))


class DenseTableau(_Tableau):
    """The simplex kernel before sparse pivoting, kept as the reference: the
    initial `z` row and every pivot recompute all width + 1 columns."""

    def _run(self, costs):
        rows, basis, width = self.rows, self.basis, self.width
        z = self.z = [-c for c in costs] + [F(0)]
        for row, col in zip(rows, basis):
            c = costs[col]
            if c:
                for j in range(width + 1):
                    z[j] += c * row[j]
        while True:
            enter = next((j for j in range(width) if z[j] < 0), None)
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

    def _pivot(self, leave, col, z):
        rows = self.rows
        piv = rows[leave][col]
        pivot_row = rows[leave] = [a / piv for a in rows[leave]]
        for i, row in enumerate(rows):
            if i != leave and row[col]:
                factor = row[col]
                rows[i] = [a - factor * b for a, b in zip(row, pivot_row)]
        if z is not None and z[col]:
            factor = z[col]
            for j in range(self.width + 1):
                z[j] -= factor * pivot_row[j]
        self.basis[leave] = col


def pivot_log(tableau_cls, first, second):
    """Every step of one (structure, leaf) pair as `search` takes it: cold
    M1 and warm M2 on one tableau, then M2 cold on a fresh one, as its
    re-solve.  After each pivot the log holds the basis, rows and `z`; after
    each solve, the result and `unique()`."""
    log = []

    class Logged(tableau_cls):
        def _pivot(self, leave, col, z):
            super()._pivot(leave, col, z)
            log.append((tuple(self.basis), tuple(map(tuple, self.rows)), tuple(self.z)))

    def solve(tableau, objective):
        log.append((tableau.maximize(objective), tableau.unique()))

    tableau = Logged(first)
    solve(tableau, first.objective)
    solve(tableau, second.objective)
    solve(Logged(second), second.objective)
    return log


def oracle_pairs(step, n4, n5):
    """build_lp pairs: every `step`-th structure of the unpruned n=3 stream
    with each of its leaves, then `n4` and `n5` seeded n=4 and n=5 draws."""
    for structure in N3_STRUCTURES[::step]:
        for leaf in range(1, 7):
            if leaf != structure.equilibrium_leaf():
                yield structure, leaf
    rng = random.Random(17)
    for n, count in ((4, n4), (5, n5)):
        yield from seeded_pairs(rng, n, count)


def seeded_pairs(rng, n, count):
    """`count` (structure, optimum leaf) pairs of size n drawn from `rng`."""
    drawn = 0
    while drawn < count:
        structure = TreeStructure(n, rng.randrange(1 << (2**n - 1)))
        leaf = rng.randrange(1, 2**n - 1)
        if leaf != structure.equilibrium_leaf():
            drawn += 1
            yield structure, leaf


MODES = pytest.mark.parametrize(("mode", "eps"), [("weak", None), ("strict", EPS)])


class TestSparsePivotOracle:
    """Sparse pivoting does the dense kernel's arithmetic on every nonzero
    entry, so every pivot, result and `unique()` answer is the dense one's."""

    def check(self, mode, eps, pairs):
        for structure, leaf in pairs:
            first, second = (
                build_lp(structure, leaf, machine, mode, eps) for machine in (0, 1)
            )
            got = pivot_log(_Tableau, first, second)
            want = pivot_log(DenseTableau, first, second)
            assert len(got) == len(want), (structure, leaf)
            for step, (a, b) in enumerate(zip(got, want)):
                assert a == b, (structure, leaf, step)

    @MODES
    def test_sampled_pairs(self, mode, eps):
        self.check(mode, eps, oracle_pairs(8, 8, 3))

    @pytest.mark.slow
    @MODES
    def test_every_n3_pair(self, mode, eps):
        self.check(mode, eps, oracle_pairs(1, 40, 16))

    @MODES
    def test_sampled_pairs_take_every_unit_path(self, mode, eps):
        # `_Tableau` skips the divide by a pivot of 1 and the multiply by a
        # row or z factor of +-1, and the ratio test's divide by an entry of
        # 1.  Counted on the dense kernel's operands, which the sparse one
        # shares pivot by pivot, every such case and its general one occur
        # in the sampled pairs, so the oracle compares each branch.  Phase 2
        # enters a column whose z is negative, so the z factor is never 1.
        seen = collections.Counter()

        def unit(a):
            return int(a) if a in (1, -1) else "other"

        class Counting(DenseTableau):
            def _pivot(self, leave, col, z):
                seen["pivot", self.rows[leave][col] == 1] += 1
                for i, row in enumerate(self.rows):
                    if row[col] and i != leave:
                        seen["row", unit(row[col])] += 1
                if z is not None:  # only `_run` pivots, after its ratio test
                    seen["z", unit(z[col])] += 1
                    for row in self.rows:
                        if row[col] > 0:
                            seen["ratio", row[col] == 1] += 1
                super()._pivot(leave, col, z)

        for structure, leaf in oracle_pairs(8, 8, 3):
            first, second = (
                build_lp(structure, leaf, machine, mode, eps) for machine in (0, 1)
            )
            pivot_log(Counting, first, second)
        cases = [("pivot", True), ("pivot", False), ("z", -1), ("z", "other")]
        cases += [("row", 1), ("row", -1), ("row", "other")]
        cases += [("ratio", True), ("ratio", False)]
        assert all(seen[case] for case in cases), seen
        assert seen["z", 1] == 0


class ArtificialTableau(_Tableau):
    """Phase 1 before the single artificial column x0, kept as the
    reference: every row with a negative rhs is negated and given its own
    artificial column, the simplex maximizes minus their sum, and each
    degenerate artificial left basic is driven out.  Phase 2 then never let
    an artificial enter, and no pivot carries an artificial column into
    another, so deleting their columns here leaves every later pivot,
    point and dual as they were.  The slack of a negated row starts at -1,
    so its reduced cost is still the dual of the original row."""

    def __init__(self, lp):
        n = lp.n_vars
        m = len(lp.rows)
        self.n = n
        art0 = n + m
        n_art = sum(1 for b in lp.rhs if b < 0)
        self.width = width = art0 + n_art
        self.rows, self.basis, self.z = [], [], []
        art = art0
        for i in range(m):
            row = list(lp.rows[i]) + [F(0)] * (width - n) + [lp.rhs[i]]
            row[n + i] = F(1)
            if lp.rhs[i] < 0:
                row = [-a for a in row]
                row[art] = F(1)
                self.basis.append(art)
                art += 1
            else:
                self.basis.append(n + i)
            self.rows.append(row)
        self.feasible = True
        if not n_art:
            return
        self._run([F(0)] * art0 + [F(-1)] * n_art)
        if any(col >= art0 and row[width] for row, col in zip(self.rows, self.basis)):
            self.feasible = False
            return
        for i, col in enumerate(self.basis):
            if col >= art0:
                self._pivot(i, next(j for j in range(art0) if self.rows[i][j]), None)
        for row in self.rows:
            del row[art0:width]
        self.width = art0


# rows (1,-2,2), (-1,-2,0), (1,2,2), rhs (1,-2,2): x0 is still basic, at 0,
# when phase 1 ends, so the constructor pivots it out.
DRIVE_OUT = lp([2, -1, 1], [[1, -2, 2], [-1, -2, 0], [1, 2, 2]], [1, -2, 2])
# x + y <= 1 with x >= 1 and y >= 1: x0 ends basic at 1/2.
INFEASIBLE = lp([1, 1], [[1, 1], [-1, 0], [0, -1]], [1, -1, -1])
UNIT_LPS = [
    lp([1, 1], [[1, 0], [0, 1]], [2, 3]),
    lp([1], [[1]], [-1]),
    INFEASIBLE,
    lp([1], [[-1]], [1]),
    lp([1, 2], [], []),
    lp([1], [[-1], [1]], [-2, 5]),
    lp([0, 0], [[-1, -1], [1, 0], [0, 1]], [-4, 3, 3]),
    lp([-1, -1], [[-1, -1], [1, -1], [-1, 1]], [-4, -1, 3]),
    lp([3, 5], [[1, 0], [0, 2], [3, 2]], [4, 12, 18]),
    lp([1, 3], [[3, 7], [0, 1]], [1, F(1, 13)]),
    DRIVE_OUT,
]


class TestPhaseOneOracle:
    """One artificial column x0 reaches the status and value of one
    artificial per negative row, each optimum with a checked dual; at a
    degenerate optimum the vertex or dual may differ."""

    def check(self, problem):
        got = simplex_solve(problem)
        want = ArtificialTableau(problem).maximize(problem.objective)
        assert (got.status, got.value) == (want.status, want.value)
        if got.status == "optimal":
            assert certify_optimal(problem, got) and certify_optimal(problem, want)
        return got

    @pytest.mark.parametrize("eps", [EPS, F(1, 3)])
    def test_every_strict_n3_pair(self, eps):
        for structure, leaf in oracle_pairs(1, 0, 0):
            for machine in (0, 1):
                self.check(build_lp(structure, leaf, machine, "strict", eps))

    @pytest.mark.parametrize(("n", "count"), [(4, 40), (5, 8)])
    def test_seeded_strict_pairs(self, n, count):
        for structure, leaf in seeded_pairs(random.Random(27), n, count):
            for machine in (0, 1):
                self.check(build_lp(structure, leaf, machine, "strict", EPS))

    @pytest.mark.parametrize("problem", UNIT_LPS)
    def test_unit_lps(self, problem):
        self.check(problem)

    def test_infeasible(self):
        assert self.check(INFEASIBLE).status == "infeasible"
        assert not _Tableau(INFEASIBLE).feasible

    def test_degenerate_x0_is_pivoted_out(self):
        pivots = []

        class Logged(_Tableau):
            def _pivot(self, leave, col, z):
                pivots.append((col, z is None))
                super()._pivot(leave, col, z)

        tableau = Logged(DRIVE_OUT)
        # x0 (column 6) enters first, and the drive-out, the last pivot,
        # updates no z row.
        assert pivots[0] == (6, True) and pivots[-1][1] and len(pivots) > 2
        assert tableau.width == 6 and all(len(row) == 7 for row in tableau.rows)
        assert self.check(DRIVE_OUT).value == F(11, 4)

    def test_no_negative_rhs_skips_phase_one(self):
        # A weak LP: node rows at rhs 0, optimum-leaf rows at 1.
        problem = build_lp(N3_STRUCTURES[9], 3, 0)
        tableau = _Tableau(problem)
        assert tableau.width == 6 + len(problem.rows)
        assert tableau.basis == list(range(6, tableau.width))


class TestSlottedTypes:
    """The frozen value types carry `__slots__`: no instance dict, and still
    frozen, picklable and deep-copyable."""

    VALUES = [
        Instance.from_rows([[1, 2], [2, 1]]),
        TreeStructure(2, 0b010),
        lp([1], [[1]], [1]),
        simplex_solve(lp([1], [[1]], [1])),
        search(2),
    ]

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_frozen_without_dict(self, value):
        assert not hasattr(value, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, dataclasses.fields(value)[0].name, None)

    def test_search_result_round_trips(self):
        result = search(2)
        assert result.witness is not None
        for twin in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
            assert twin == result


class TestMonotoneMasks:
    @pytest.mark.parametrize(
        ("k", "dedekind"), [(0, 2), (1, 3), (2, 6), (3, 20), (4, 168)]
    )
    def test_dedekind_counts(self, k, dedekind):
        masks = monotone_masks(k)
        assert len(masks) == dedekind
        assert len(set(masks)) == dedekind

    @pytest.mark.parametrize("k", range(6))
    def test_count_matches_the_list(self, k):
        assert _count_monotone_masks(k) == len(monotone_masks(k))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_brute_force(self, k):
        points = 1 << k

        def monotone(mask):
            # f(p) <= f(p | bit) for every point p and variable bit
            return all(
                (mask >> p) & 1 <= (mask >> (p | (1 << v))) & 1
                for p in range(points)
                for v in range(k)
            )

        expected = {mask for mask in range(1 << points) if monotone(mask)}
        assert set(monotone_masks(k)) == expected


class TestTreeStructure:
    def test_leaf_below_by_hand(self):
        # n=2: root (bit 0) -> M1, node 1 (bit 1) -> M2 reaches leaf 1.
        st = TreeStructure(2, 0b010)
        assert st.choice(0) == 0
        assert st.equilibrium_leaf() == 1
        # The right subtree's node (index 2, bit 2) is unset -> leaf 2.
        assert st.leaf_below(2) == 2

    def test_leaf_machine_decodes_paths(self):
        n = 3
        for leaf in range(2**n):
            rebuilt = sum(
                leaf_machine(n, leaf, depth) << (n - 1 - depth)
                for depth in range(n)
            )
            assert rebuilt == leaf

    def test_validation(self):
        with pytest.raises(ValueError):
            TreeStructure(0, 0)
        with pytest.raises(ValueError):
            TreeStructure(2, 1 << 7)
        with pytest.raises(ValueError):
            TreeStructure(2, -1)

    def test_str_is_hex(self):
        assert str(TreeStructure(3, 0x3A)) == "0x3a"


def load_coeffs(n, leaf, machine):
    """`machine`'s load at `leaf` as a `Fraction` vector over the 2n columns,
    with the column layout written inline: the row builder before load
    masks, kept as the oracle of `_row(n, _load_mask(...))`."""
    coeffs = [F(0)] * (2 * n)
    for depth in range(n):
        if leaf_machine(n, leaf, depth) == machine:
            coeffs[2 * depth + machine] = F(1)
    return coeffs


def reference_node_row(n, key):
    """`_node_row` as the difference of two `load_coeffs` vectors."""
    leaf_chosen, leaf_other, chosen = key
    cost_chosen = load_coeffs(n, leaf_chosen, chosen)
    cost_other = load_coeffs(n, leaf_other, 1 - chosen)
    return tuple(a - b for a, b in zip(cost_chosen, cost_other))


def walking_node_rows(structure):
    """`node_rows` walking down from each node's two children through
    `leaf_below`, kept as the oracle of its bottom-up pass."""
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


def row_oracle_structures():
    """Every structure with n <= 3, then seeded n=4 and n=5 draws."""
    for n in (1, 2, 3):
        yield from (TreeStructure(n, bits) for bits in range(1 << (2**n - 1)))
    rng = random.Random(24)
    for n in (4, 5):
        for _ in range(200):
            yield TreeStructure(n, rng.randrange(1 << (2**n - 1)))


class TestRowOracles:
    """Load masks and the bottom-up `node_rows` give the rows and keys that
    the inline coefficient vectors and the per-node walks gave."""

    def test_node_rows_match_the_walk(self):
        for structure in row_oracle_structures():
            assert node_rows(structure) == walking_node_rows(structure), structure

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_load_rows_match_the_coefficients(self, n):
        for leaf in range(2**n):
            for machine in (0, 1):
                got = _row(n, _load_mask(n, leaf, machine))
                assert got == tuple(load_coeffs(n, leaf, machine)), (leaf, machine)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_node_rows_match_the_coefficients(self, n):
        for chosen_leaf, other_leaf in itertools.product(range(2**n), repeat=2):
            for chosen in (0, 1):
                key = (chosen_leaf, other_leaf, chosen)
                assert _node_row(n, key) == reference_node_row(n, key), key

    def test_rows_share_their_coefficients(self):
        # Every coefficient is one of three shared Fractions, never a new one.
        units = {id(unit) for unit in lpsearch._UNIT}
        for structure in N3_STRUCTURES[::5]:
            problem = build_lp(structure, 3 if structure.equilibrium_leaf() != 3 else 4, 1)
            for row in problem.rows + (problem.objective,):
                assert {id(a) for a in row} <= units


def obs1_consistent(structure: TreeStructure) -> bool:
    """Observation-1 check on the last layer of a structure, point by point:
    the oracle for the `monotone_masks` filter of `enumerate_structures`.

    Viewing the last player's decisions as f(S) over the set S of earlier
    players on M2: if f(S) = M1 then f(S') = M1 for every S' >= S (more
    predecessors on M2 only make M1 relatively better).
    """
    n = structure.n
    k = n - 1
    first = 2**k - 1  # first last-layer node index
    m1 = [1 - structure.choice(first + p) for p in range(2**k)]
    for p in range(2**k):
        if not m1[p]:
            continue
        for v in range(k):
            if m1[p] and not m1[p | (1 << v)]:
                return False
    return True


class TestObs1:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_monotone_complements(self, n):
        last_nodes = 2 ** (n - 1)
        upper_bits = last_nodes - 1
        full = (1 << last_nodes) - 1
        consistent = {
            last
            for last in range(1 << last_nodes)
            if obs1_consistent(TreeStructure(n, last << upper_bits))
        }
        assert consistent == {full & ~mask for mask in monotone_masks(n - 1)}

    def test_ignores_upper_layers(self):
        n = 3
        last = 0b0101 << 3
        for upper in range(8):
            a = obs1_consistent(TreeStructure(n, last | upper))
            b = obs1_consistent(TreeStructure(n, last))
            assert a == b


class TestEnumeration:
    def test_counts_n3(self):
        assert count_structures(3) == (128, 48)

    def test_counts_n4(self):
        assert count_structures(4) == (32768, 2560)

    def test_counts_n5(self):
        total, pruned = count_structures(5)
        assert total == 2**31 == 2147483648
        assert pruned == 5505024
        # What streaming the n = 5 structures counts.
        assert count_structures(5, exclude_extreme_eq_leaf=True)[1] == 5500928
        assert count_structures(
            5, prune_mirror=True, exclude_extreme_eq_leaf=True
        )[1] == 2750464

    def test_counts_n7(self):
        # 2**63 upper choices times Dedekind(6) consistent last layers.
        assert count_structures(7) == (2**127, 72203821378200231615660032)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_count_matches_stream_for_all_flags(self, n):
        for obs1, mirror, extreme in itertools.product([False, True], repeat=3):
            _, kept = count_structures(
                n,
                prune_obs1=obs1,
                prune_mirror=mirror,
                exclude_extreme_eq_leaf=extreme,
            )
            stream = sum(
                1
                for _ in enumerate_structures(
                    n,
                    prune_obs1=obs1,
                    prune_mirror=mirror,
                    exclude_extreme_eq_leaf=extreme,
                )
            )
            assert kept == stream

    def test_unfiltered_stream_is_every_bit_pattern(self):
        stream = enumerate_structures(
            2, prune_obs1=False, prune_mirror=False, exclude_extreme_eq_leaf=False
        )
        assert sorted(st.bits for st in stream) == list(range(8))

    def test_default_stream_respects_all_filters(self):
        for st in enumerate_structures(3):
            assert obs1_consistent(st)
            assert st.bits & 1 == 0  # root chooses M1 (mirror representative)
            assert st.equilibrium_leaf() not in (0, 7)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            next(enumerate_structures(7))


class TestBuildLp:
    def test_shape(self):
        st = TreeStructure(2, 0b010)
        problem = build_lp(st, 2, 0)
        assert problem.n_vars == 4
        assert len(problem.rows) == (2**2 - 1) + 2
        assert len(problem.rhs) == len(problem.rows)

    def test_var_index_layout(self):
        assert [var_index(i, j) for j in range(2) for i in (0, 1)] == [0, 1, 2, 3]

    @pytest.mark.parametrize("machine", [0, 1])
    def test_equilibrium_leaf_as_optimum_is_at_most_1(self, machine):
        # The objective is then one of the optimum leaf's loads, each capped at 1.
        for st in N3_STRUCTURES:
            if st.equilibrium_leaf() in (0, 7):
                continue
            problem = build_lp(st, st.equilibrium_leaf(), machine)
            result = simplex_solve(problem)
            assert certify_optimal(problem, result)
            assert result.value <= 1

    @pytest.mark.parametrize("leaf", [0, 3, 4, -1])
    def test_rejects_extreme_leaves(self, leaf):
        st = TreeStructure(2, 0b010)
        with pytest.raises(ValueError):
            build_lp(st, leaf, 0)

    @pytest.mark.parametrize("leaf", [2.0, True, F(2)])
    def test_rejects_leaves_that_are_not_ints(self, leaf):
        # With an empty `_load_mask` cache a float leaf used to raise
        # TypeError, and with a filled one `search` solved it as leaf 2.
        _load_mask.cache_clear()
        with pytest.raises(ValueError, match="not an int"):
            build_lp(TreeStructure(3, 0x3A), leaf, 0)
        _load_mask.cache_clear()
        with pytest.raises(ValueError, match="not an int"):
            search(3, opt_leaves=[leaf])

    def test_rejects_bad_tie_mode(self):
        st = TreeStructure(2, 0b010)
        with pytest.raises(ValueError):
            build_lp(st, 2, 0, tie_mode="loose")

    def test_strict_mode_needs_positive_eps(self):
        st = TreeStructure(2, 0b010)
        with pytest.raises(ValueError):
            build_lp(st, 2, 0, tie_mode="strict")
        with pytest.raises(ValueError):
            build_lp(st, 2, 0, tie_mode="strict", eps=Fraction(0))

    @pytest.mark.parametrize("eps", [EPS, F(0)])
    def test_weak_mode_refuses_an_eps(self, eps):
        # eps belongs to strict mode only; weak mode must not drop it silently.
        with pytest.raises(ValueError, match="strict mode only"):
            build_lp(TreeStructure(2, 0b010), 2, 0, "weak", eps)

    @pytest.mark.parametrize("machine", [2, -1])
    def test_rejects_objective_machines_other_than_0_and_1(self, machine):
        # Machine 2 or -1 has no load, so the objective would be all zero.
        with pytest.raises(ValueError, match="objective machine"):
            build_lp(TreeStructure(3, 0x3A), 6, machine)

    def test_structures_sharing_a_node_key_share_its_row(self):
        first, second = TreeStructure(3, 0x0), TreeStructure(3, 0x8)
        first_keys, second_keys = node_rows(first), node_rows(second)
        shared = set(first_keys) & set(second_keys)
        assert shared
        first_rows = build_lp(first, 3, 0).rows
        second_rows = build_lp(second, 2, 1, "strict", EPS).rows
        for key in shared:
            assert first_rows[first_keys.index(key)] is second_rows[second_keys.index(key)]

    def test_thm1_structure_lp_value(self):
        st = structure_from_spe(gen_thm1(EPS))
        result = simplex_solve(build_lp(st, 17, 1))
        assert result.status == "optimal"
        assert result.value == 4

    def test_strict_mode_only_tightens(self):
        st = structure_from_spe(gen_thm1(EPS))
        weak = simplex_solve(build_lp(st, 17, 1))
        strict = simplex_solve(
            build_lp(st, 17, 1, tie_mode="strict", eps=Fraction(1, 1000))
        )
        assert strict.status == "optimal"
        assert strict.value <= weak.value


class TestStructureFromSpe:
    def test_thm1_frozen_bits(self):
        st = structure_from_spe(gen_thm1(EPS))
        assert str(st) == "0x8bf8aae"
        assert st.equilibrium_leaf() == 11

    def test_requires_two_machines(self):
        with pytest.raises(ValueError):
            structure_from_spe(Instance.from_rows([[1], [1], [1]]))

    def test_leaf_budget(self):
        # 2**27 leaves exceed DEFAULT_BUDGET.
        with pytest.raises(BudgetExceededError, match=r"2\*\*27 leaves"):
            structure_from_spe(Instance.from_rows([[1] * 27, [1] * 27]))

    def test_non_candidate_machine_is_a_contract_error(self):
        class Defector(TieBreakRule):
            name = "defector"

            def choose(self, player, history, candidates):
                return 5

        with pytest.raises(TieBreakContractError, match="non-candidate machine 5"):
            structure_from_spe(Instance.from_rows([[1, 1], [1, 1]]), Defector())

    @pytest.mark.parametrize(
        "rule", (PreferLowest(), PreferHighest()), ids=lambda rule: rule.name
    )
    def test_bits_match_the_fraction_recursion(self, rule):
        rng = random.Random(77)
        for n in range(1, 7):
            for _ in range(8):
                rows = [
                    [F(rng.randint(0, 3), rng.choice((1, 3, 7))) for _ in range(n)]
                    for _ in range(2)
                ]
                inst = Instance.from_rows(rows, [F(rng.randint(0, 2), 3), 0])
                got = structure_from_spe(inst, rule)
                assert got.bits == fraction_structure_bits(inst, rule)

    def test_equilibrium_leaf_reproduces_spe_schedule(self, rng):
        for _ in range(25):
            inst = random_instance(rng, 2, rng.randint(1, 4))
            st = structure_from_spe(inst)
            leaf = st.equilibrium_leaf()
            decoded = tuple(
                leaf_machine(inst.n, leaf, depth) for depth in range(inst.n)
            )
            tree = AdaptiveTree.from_order(identity_order(inst.n), 2)
            outcome = spe(inst, tree, PreferLowest())
            assert decoded == outcome.schedule


class UnboundedTableau(_Tableau):
    def maximize(self, objective):
        return LpResult("unbounded", None, None)


class TestSearch:
    def test_n2_frozen_result(self):
        result = search(2)
        assert result.value == 2
        assert result.structure.bits == 0x2
        assert result.opt_leaf == 2
        assert result.objective_machine == 1
        assert result.scanned == 2
        assert result.unbounded == ()
        assert result.next_index is None

    def test_unbounded_lps_are_reported(self, monkeypatch):
        # No Appendix-B LP has been seen unbounded, so a stub forces it.
        monkeypatch.setattr(lpsearch, "_Tableau", UnboundedTableau)
        result = search(3, structures=[TreeStructure(3, 0x3A)], opt_leaves=[6])
        assert result.unbounded == ((0x3A, 6, 0), (0x3A, 6, 1))
        assert result.value is None
        assert (result.solved, result.skipped, result.warm) == (2, 0, 1)

    def test_n2_witness_certifies_the_gap(self):
        result = search(2)
        witness = result.witness
        assert opt(witness)[0] <= 1
        tree = AdaptiveTree.from_order(identity_order(witness.n), 2)
        worst = max(o.makespan for o in spe_outcome_set(witness, tree))
        assert worst >= result.value

    def test_n3_frozen_result(self):
        result = search(3)
        assert result.value == 3
        assert result.structure.bits == 0x3A
        assert result.scanned == 22
        assert result.unbounded == ()

    @pytest.mark.parametrize("n", [2, 3])
    def test_prunings_do_not_change_the_best_value(self, n):
        pruned = search(n)
        full = search(n, structures=enumerate_structures(n, **UNPRUNED))
        assert pruned.value == full.value

    def test_window_resume_covers_the_full_scan(self):
        full = search(3)
        first = search(3, limit=7)
        assert first.next_index is not None
        assert first.scanned == 7
        second = search(3, start=first.next_index)
        assert second.next_index is None
        assert first.scanned + second.scanned == full.scanned
        assert max(first.value, second.value) == full.value

    @MODES
    def test_every_solved_lp_is_built_through_build_lp(self, monkeypatch, mode, eps):
        calls = []

        def counting_build_lp(*args):
            calls.append(args)
            return build_lp(*args)

        monkeypatch.setattr(lpsearch, "build_lp", counting_build_lp)
        result = search(3, tie_mode=mode, eps=eps)
        assert len(calls) == result.solved > 0

    def test_opt_leaves_restriction(self):
        unrestricted = search(2)
        restricted = search(2, opt_leaves=[unrestricted.opt_leaf])
        assert restricted.value == unrestricted.value

    def test_on_improve_reports_the_final_best(self):
        seen = []
        result = search(
            3, on_improve=lambda v, st, leaf, wit: seen.append((v, st.bits))
        )
        assert seen, "at least one improvement must be reported"
        assert seen[-1][0] == result.value
        assert [v for v, _ in seen] == sorted(set(v for v, _ in seen))

    def test_explicit_structures_iterable(self):
        st = structure_from_spe(gen_thm1(EPS))
        result = search(5, structures=[st])
        assert result.scanned == 1
        assert result.value >= 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tie_mode="bogus"),
            dict(tie_mode="strict"),
            dict(tie_mode="strict", eps=F(0)),
            dict(tie_mode="strict", eps=F(-1)),
        ],
    )
    def test_tie_mode_and_eps_are_checked_before_the_scan(self, kwargs):
        # None of these scans builds an LP: n = 1 has no admissible leaf.
        for n, window in ((3, dict(structures=[])), (3, dict(limit=0)), (1, {})):
            with pytest.raises(ValueError):
                search(n, **window, **kwargs)

    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            (dict(start=-1), "start and limit"),
            (dict(limit=-1), "start and limit"),
            (dict(tie_mode="loose"), "unknown tie mode"),
            (dict(tie_mode="strict", eps=None), "positive eps"),
            (dict(tie_mode="strict", eps=F(0)), "positive eps"),
            (dict(eps=EPS), "strict mode only"),
            (dict(tie_mode="weak", eps=F(0)), "strict mode only"),
            (dict(opt_leaves=[0]), "not an inner leaf"),
            (dict(opt_leaves=[2, 7]), "not an inner leaf"),
            (dict(opt_leaves=[9]), "not an inner leaf"),
            (dict(opt_leaves=[2.0]), "not an int"),
            (dict(opt_leaves=[True]), "not an int"),
        ],
    )
    def test_bad_arguments_are_refused_before_the_stream_is_read(self, kwargs, message):
        def untouchable():
            raise AssertionError("the structure stream was read")
            yield

        with pytest.raises(ValueError, match=message):
            search(3, structures=untouchable(), **kwargs)

    @pytest.mark.slow
    def test_n4_pruned_search_frozen_value(self):
        result = search(4)
        assert (result.value, result.structure) == (3, TreeStructure(4, 0xA82))
        assert (result.opt_leaf, result.objective_machine) == (12, 1)
        assert result.witness == Instance.from_rows([[2, 1, 0, 1], [0, 1, 3, 2]])
        assert (result.scanned, result.unbounded, result.next_index) == (1264, (), None)
        counters = (result.solved, result.skipped, result.warm, result.resolved)
        assert counters == (1187, 31677, 233, 2)

    @pytest.mark.slow
    def test_n4_pruning_soundness_sampled(self):
        # The full unpruned scan (32768 structures) is out of reach, so
        # probe soundness on a deterministic stride sample of the
        # structures the filters drop: none may beat the pruned best (3).
        kept = {st.bits for st in enumerate_structures(4)}
        dropped = [
            st
            for st in enumerate_structures(
                4,
                prune_obs1=False,
                prune_mirror=False,
                exclude_extreme_eq_leaf=False,
            )
            if st.bits not in kept
        ]
        sample = dropped[:: max(1, len(dropped) // 300)]
        result = search(4, structures=sample)
        assert result.scanned == len(sample)
        assert result.value is None or result.value <= 3


def reference_search(
    n,
    *,
    tie_mode="weak",
    eps=None,
    structures=None,
    opt_leaves=None,
    start=0,
    limit=None,
    on_improve=None,
):
    """`search` without skipping: build and solve every LP."""
    if structures is None:
        structures = enumerate_structures(n)
    best = None
    unbounded = []
    scanned = solved = 0
    index = -1
    exhausted = True
    for index, structure in enumerate(structures):
        if index < start:
            continue
        if limit is not None and scanned >= limit:
            exhausted = False
            break
        scanned += 1
        eq_leaf = structure.equilibrium_leaf()
        leaves = [lf for lf in range(1, 2**n - 1) if lf != eq_leaf]
        for leaf in leaves if opt_leaves is None else opt_leaves:
            for machine in (0, 1):
                result = simplex_solve(build_lp(structure, leaf, machine, tie_mode, eps))
                solved += 1
                if result.status == "unbounded":
                    unbounded.append((structure.bits, leaf, machine))
                elif result.status == "optimal" and (
                    best is None or result.value > best[0]
                ):
                    witness = witness_instance(n, result.point)
                    best = (result.value, structure, leaf, machine, witness)
                    if on_improve is not None:
                        on_improve(result.value, structure, leaf, witness)
    return SearchResult(
        *(best or (None,) * 5),
        tuple(unbounded),
        scanned,
        None if exhausted else index,
        solved,
        0,
        0,
        0,
    )


STRICT = dict(tie_mode="strict", eps=EPS)


class TestSearchMatchesReference:
    """Dual-bound skipping and warm starts leave every output of `search`
    unchanged."""

    def check(self, n, **kwargs):
        got_seen, want_seen = [], []
        got = search(n, on_improve=lambda *a: got_seen.append(a), **kwargs)
        want = reference_search(n, on_improve=lambda *a: want_seen.append(a), **kwargs)
        assert got.solved + got.skipped == want.solved
        assert got.resolved <= got.warm <= got.solved
        counts = dict(solved=want.solved, skipped=0, warm=0, resolved=0)
        assert dataclasses.replace(got, **counts) == want
        assert got_seen == want_seen
        return got

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("filters", [{}, UNPRUNED])
    def test_weak_scans(self, n, filters):
        self.check(n, structures=list(enumerate_structures(n, **filters)))

    @pytest.mark.parametrize(
        ("n", "filters"), [(2, {}), (2, UNPRUNED), (3, {})]
    )
    def test_strict_scans(self, n, filters):
        self.check(n, **STRICT, structures=list(enumerate_structures(n, **filters)))

    @pytest.mark.slow
    def test_strict_unpruned_n3(self):
        self.check(3, **STRICT, structures=list(enumerate_structures(3, **UNPRUNED)))

    @pytest.mark.parametrize(
        ("start", "limit", "next_index"),
        [(0, 3, 3), (5, 7, 12), (20, 10, None), (12, 10, None), (30, 5, None), (4, 0, 4)],
    )
    def test_windows(self, start, limit, next_index):
        # The n=3 stream has 22 structures: (12, 10) ends with it, and
        # (30, 5) starts past it.
        result = self.check(3, start=start, limit=limit)
        assert result.next_index == next_index
        assert result.scanned == max(0, min(limit, 22 - start))

    def test_structure_subset(self):
        shard = [s for i, s in enumerate(N3_STRUCTURES) if i % 5 == 2]
        self.check(3, structures=shard)

    def test_opt_leaves(self):
        # Equilibrium leaves 2 and 5 included.
        self.check(3, structures=N3_STRUCTURES, opt_leaves=[2, 5])

    def test_no_opt_leaf_tries_no_lp(self):
        result = self.check(3, opt_leaves=[])
        assert (result.scanned, result.solved, result.value) == (22, 0, None)

    def test_n4_window(self):
        result = self.check(4, start=600, limit=3)
        assert result.skipped > 0

    def test_the_full_n3_scan_skips_most_lps(self):
        result = search(3, structures=enumerate_structures(3, **UNPRUNED))
        assert (result.solved, result.skipped) == (154, 1190)

    def test_listed_equilibrium_leaf_is_solved_after_an_improvement(self):
        # The first structure sets a best; the second's only optimum leaf is
        # its equilibrium leaf, whose LPs are at most 1.
        first, second = (
            next(s for s in N3_STRUCTURES if s.equilibrium_leaf() == eq_leaf)
            for eq_leaf in (1, 2)
        )
        result = self.check(3, structures=[first, second], opt_leaves=[2])
        assert result.scanned == 2
        assert result.solved + result.skipped == 4

    @pytest.mark.parametrize("leaf", [8, 9, -1])
    def test_leaves_outside_the_tree_are_rejected(self, leaf):
        # Read modulo the path bits, leaf 9 would be solved as leaf 1 and -1
        # as the excluded extreme leaf 7.
        with pytest.raises(ValueError, match="not an inner leaf"):
            search(3, structures=N3_STRUCTURES[:1], opt_leaves=[leaf])

    def test_structures_of_another_n_are_rejected(self):
        with pytest.raises(ValueError):
            search(3, structures=[TreeStructure(4, 0xA82)])

    def test_infeasible_twin_is_skipped(self):
        result = search(
            4,
            structures=[TreeStructure(4, 0x2BE0)],
            opt_leaves=[7],
            **STRICT,
        )
        assert result.value is None
        assert (result.solved, result.skipped, result.warm) == (1, 1, 0)

    def test_warm_duals_move_the_n4_split(self):
        # Pooled warm duals differ from cold ones on dual-degenerate LPs:
        # solving the M2-objective LPs cold gives 39 solved and 65 skipped.
        result = search(4, start=608, limit=4)
        assert (result.solved, result.skipped) == (33, 71)
        assert (result.warm, result.resolved) == (11, 0)

    def test_non_unique_warm_optimum_is_resolved_cold(self):
        # verify's restricted Theorem-1 pair: the M2-objective LP is
        # maximized on the M1 LP's tableau, and its optimum is not provably
        # unique.
        structure = structure_from_spe(gen_thm1(EPS))
        result = self.check(5, structures=[structure], opt_leaves=[17])
        assert (result.value, result.objective_machine) == (4, 1)
        assert (result.solved, result.warm, result.resolved) == (2, 1, 1)
        cold = simplex_solve(build_lp(structure, 17, 1))
        assert result.witness == witness_instance(5, cold.point)

    def test_non_unique_strict_warm_optimum_is_resolved_cold(self):
        # The warm M2 optimum (49/50, 99/100, 0, 0, 1/50, 99/100) is not the
        # cold one, so only the re-solve gives the cold witness.
        structure = TreeStructure(3, 0x18)
        result = self.check(3, structures=[structure], opt_leaves=[2], **STRICT)
        assert (result.value, result.objective_machine) == (F(99, 100), 1)
        assert (result.solved, result.warm, result.resolved) == (2, 1, 1)
        cold = simplex_solve(build_lp(structure, 2, 1, "strict", EPS))
        assert result.witness == witness_instance(3, cold.point)


THM3_SCANS = [
    # (n, k, value, structure bits, optimum leaf, witness rows, (solved, skipped))
    pytest.param(3, 1, 2, 0x8, 4, [[1, 0, 1], [1, 1, 2]], (32, 64), id="n3-k1"),
    pytest.param(
        4, 1, 2, 0x80, 8, [[1, 0, 0, 1], [1, 1, 1, 2]], (326, 4794),
        marks=pytest.mark.slow, id="n4-k1",
    ),
    pytest.param(
        4, 2, 3, 0xA82, 12, [[2, 1, 0, 1], [0, 1, 3, 2]], (406, 4714),
        marks=pytest.mark.slow, id="n4-k2",
    ),
]


class TestThm3WorstCase:
    """Theorem 3's order puts the smaller optimal group G1 first and bounds
    its equilibria by (|G1| + 1) * OPT.  With G1 the first k jobs that order
    is the identity, so `search` restricted to the two optimum leaves putting
    the first k jobs on one machine finds its worst case exactly."""

    @pytest.mark.parametrize(("n", "k", "value", "bits", "leaf", "rows", "counts"), THM3_SCANS)
    def test_restricted_scan(self, n, k, value, bits, leaf, rows, counts):
        first_k = (1 << n) - (1 << (n - k))
        leaves = [(1 << n) - 1 - first_k, first_k]
        structures = enumerate_structures(n, exclude_extreme_eq_leaf=False)
        result = search(n, structures=structures, opt_leaves=leaves)
        found = (result.value, result.structure, result.opt_leaf, result.objective_machine)
        assert found == (value, TreeStructure(n, bits), leaf, 1)
        assert (result.solved, result.skipped) == counts
        assert result.value <= 3  # the full search's value, n = 3 and n = 4
        problem = build_lp(result.structure, leaf, 1)
        cold = simplex_solve(problem)
        assert certify_optimal(problem, cold)
        assert cold.value == value
        assert result.witness == witness_instance(n, cold.point) == Instance.from_rows(rows)
        # The leaf puts jobs 0..k-1 on one machine and the rest on the other,
        # so its group-first order is the identity.
        first = {leaf_machine(n, leaf, job) for job in range(k)}
        rest = {leaf_machine(n, leaf, job) for job in range(k, n)}
        assert len(first) == len(rest) == 1 and first != rest
        assert spoa_fixed(result.witness, identity_order(n)).value == value


class TestDualPool:
    @pytest.mark.parametrize(
        ("mode", "structures"),
        [("weak", N3_STRUCTURES[::3]), ("strict", N3_STRUCTURES[::16])],
    )
    def test_mapped_duals_bound_every_lp(self, mode, structures):
        eps = EPS if mode == "strict" else None
        solved = {}
        pool = _DualPool(3, eps or F(0))
        for structure in structures:
            pool.enter(structure)
            for leaf in range(1, 7):
                if leaf == structure.equilibrium_leaf():
                    continue
                for machine in (0, 1):
                    problem = build_lp(structure, leaf, machine, mode, eps)
                    result = simplex_solve(problem)
                    solved[structure, leaf, machine] = problem, result
                    if result.status == "optimal":
                        pool.add(result.dual)
        for (structure, leaf, machine), (problem, result) in solved.items():
            pool.enter(structure)
            found = pool.certificate(leaf, machine, F(10**6))
            if found is None:
                assert result.status == "infeasible"
                continue
            scale, ints = found
            dual = [F(y, scale) for y in ints]
            assert dual_feasible(problem, dual)
            if result.status == "infeasible":
                continue
            bound = sum(y * b for y, b in zip(dual, problem.rhs))
            assert bound >= result.value
            # The LP's own pooled dual certifies its value, and no entry
            # certifies anything below it.
            assert pool.certificate(leaf, machine, result.value) is not None
            assert pool.certificate(leaf, machine, result.value - F(1, 10**4)) is None

    @MODES
    def test_no_fraction_is_reachable_after_a_scan(self, monkeypatch, mode, eps):
        pools = []

        def recording_pool(n, slack):
            pools.append(_DualPool(n, slack))
            return pools[-1]

        monkeypatch.setattr(lpsearch, "_DualPool", recording_pool)
        search(3, tie_mode=mode, eps=eps)
        (pool,) = pools
        assert pool.entries
        pending = list(vars(pool).values())
        while pending:
            value = pending.pop()
            assert not isinstance(value, Fraction), value
            if isinstance(value, dict):
                pending.extend(value.items())
            elif isinstance(value, (list, tuple)):
                pending.extend(value)

    def test_entries_are_tried_in_the_order_solved(self):
        # Leaf 3's LP is bounded by leaf 1's dual, added first, and tightly
        # by its own; a query only the later entry answers must not make it
        # the first one tried.
        structure = TreeStructure(3, 0)
        pool = _DualPool(3, F(0))
        pool.enter(structure)
        earlier, own = (simplex_solve(build_lp(structure, leaf, 0, "weak")) for leaf in (1, 3))
        pool.add(earlier.dual)
        pool.add(own.dual)
        scale, ys = first = pool.certificate(3, 0, F(10**6))
        bound = sum(F(y, scale) * b for y, b in zip(ys, build_lp(structure, 3, 0, "weak").rhs))
        assert (bound, own.value) == (1, F(1, 2))
        later = pool.certificate(3, 0, own.value)
        assert later is not None and later != first
        assert pool.certificate(3, 0, bound) == first


class ReferencePool:
    """The dual pool before interned rows and mask tests, kept as the
    reference: entries keyed by `node_rows` tuples, mapped by summing y * row
    over the structure's keys, tried in the order added, and each deficit
    column checked against the optimum leaf's path.  Its keys come from
    `walking_node_rows` and its rows from `load_coeffs`, so it shares no load
    mask with the pool."""

    def __init__(self, n, slack):
        self.n = n
        self.entries = []
        self.node_rhs = -slack
        self.terms = {}
        self.keys = []
        self.keyset = set()
        self.objective = [set(), set()]
        self.mapped = []

    def enter(self, structure):
        self.keys = walking_node_rows(structure)
        self.keyset = set(self.keys)
        eq_leaf = structure.equilibrium_leaf()
        self.objective = [
            {col for col, c in enumerate(load_coeffs(self.n, eq_leaf, machine)) if c}
            for machine in (0, 1)
        ]
        self.mapped = [None] * len(self.entries)

    def add(self, dual):
        part = [(key, y) for key, y in zip(self.keys, dual) if y]
        scale = lcm(*(y.denominator for _, y in part))
        entry = (
            scale,
            tuple((key, y.numerator * (scale // y.denominator)) for key, y in part),
        )
        self.entries.append(entry)
        self.mapped.append(None)

    def _map(self, index):
        scale, ys = self.entries[index]
        covered = [0] * (2 * self.n)
        total = 0
        for key, y in ys:
            if key in self.keyset:
                total += y
                terms = self.terms.get(key)
                if terms is None:
                    row = reference_node_row(self.n, key)
                    terms = self.terms[key] = [(col, int(a)) for col, a in enumerate(row) if a]
                for col, a in terms:
                    covered[col] += a * y
        deficits = []
        for cols in self.objective:
            need = [(col, scale * (col in cols) - have) for col, have in enumerate(covered)]
            deficits.append([(col, d) for col, d in need if d > 0])
        mapped = self.mapped[index] = (deficits[0], deficits[1], total)
        return mapped

    def certificate(self, opt_leaf, objective_machine, best):
        rhs = self.node_rhs
        for index in range(len(self.entries)):
            deficits_0, deficits_1, total = self.mapped[index] or self._map(index)
            raised = [0, 0]
            for col, deficit in deficits_1 if objective_machine else deficits_0:
                machine = col & 1
                if leaf_machine(self.n, opt_leaf, col >> 1) != machine:
                    break
                raised[machine] = max(raised[machine], deficit)
            else:
                scale, ys = self.entries[index]
                bound = (raised[0] + raised[1]) * rhs.denominator + rhs.numerator * total
                if bound * best.denominator <= best.numerator * scale * rhs.denominator:
                    node_ys = dict(ys)
                    return scale, [node_ys.get(key, 0) for key in self.keys] + raised
        return None


class TwinPool:
    """The pool `search` uses, with every `certificate` answer checked
    against `ReferencePool` fed the same structures and duals."""

    def __init__(self, n, slack):
        self.pool, self.reference = _DualPool(n, slack), ReferencePool(n, slack)
        self.queries = self.bounded = 0

    def __getattr__(self, name):
        return getattr(self.pool, name)

    def enter(self, structure):
        self.pool.enter(structure)
        self.reference.enter(structure)

    def add(self, dual):
        self.pool.add(dual)
        self.reference.add(dual)

    def certificate(self, *query):
        got = self.pool.certificate(*query)
        assert got == self.reference.certificate(*query), query
        self.queries += 1
        self.bounded += got is not None
        return got


def n4_window(seed, size):
    """`size` structures of the pruned n=4 stream from a seeded start."""
    count = count_structures(4, prune_mirror=True, exclude_extreme_eq_leaf=True)[1]
    return dict(start=random.Random(seed).randrange(count - size), limit=size)


class TestPoolMatchesReference:
    """Interned rows and mask tests leave every `certificate` answer, None or
    the identical (scale, y), and so every skip, unchanged."""

    @pytest.mark.parametrize(
        ("n", "kwargs", "counts"),
        [
            (3, dict(structures=N3_STRUCTURES), (1343, 1190)),
            (3, dict(structures=N3_STRUCTURES, **STRICT), (1236, 931)),
            (4, n4_window(18, 60), (1559, 1361)),
        ],
        ids=["n3-weak", "n3-strict", "n4-window"],
    )
    def test_every_query(self, monkeypatch, n, kwargs, counts):
        twins = []

        def twin_pool(n, slack):
            twins.append(TwinPool(n, slack))
            return twins[-1]

        monkeypatch.setattr(lpsearch, "_DualPool", twin_pool)
        got = search(n, **kwargs)
        monkeypatch.undo()
        assert got == search(n, **kwargs)
        (twin,) = twins
        # (queries, queries answered with a certificate)
        assert (twin.queries, twin.bounded) == counts


class TestWitnessInstance:
    def test_roundtrip_layout(self):
        point = tuple(F(k) for k in range(1, 7))
        inst = witness_instance(3, point)
        assert inst.m == 2 and inst.n == 3
        for j in range(3):
            for i in (0, 1):
                assert inst.p[i][j] == point[var_index(i, j)]
