"""Exact types, schedules, optimum search, and the instance file format;
Hypothesis properties of the solvers on small rational instances."""

import dataclasses
import gc
import itertools
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsched import (
    AdaptiveTree,
    BudgetExceededError,
    Instance,
    InstanceFormatError,
    PreferHighest,
    PreferLowest,
    adaptive_spos,
    as_rational,
    constrained_opt,
    format_instance,
    gen_thm1,
    gen_thm5,
    loads,
    makespan,
    opt,
    parse_instance,
    spe,
    spe_outcome_set,
    spoa_fixed,
    spos,
    structure_from_spe,
    thm4_tree,
)
from seqsched import core, verify
from seqsched.verify import random_instance

#: Tokens outside the rational grammar.  `Fraction(str)` reads all but `1/0`
#: on some supported Python: `1_0` and `1/2_0` from 3.11 on, the rest on all.
OFF_GRAMMAR = ("1_0", "1/2_0", " 3", "+1", "1e-3", ".5", "5.", "\u0663", "1/0")


class TestAsRational:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (3, Fraction(3)),
            (Fraction(2, 7), Fraction(2, 7)),
            ("3", Fraction(3)),
            ("2/3", Fraction(2, 3)),
            ("0.01", Fraction(1, 100)),
            ("387/100", Fraction(387, 100)),
        ],
    )
    def test_exact_conversions(self, value, expected):
        result = as_rational(value)
        assert result == expected
        assert isinstance(result, Fraction)

    def test_decimal_strings_are_exact_not_binary_floats(self):
        assert as_rational("0.1") == Fraction(1, 10) != Fraction(0.1)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            as_rational(0.1)

    def test_rejects_garbage_strings(self):
        with pytest.raises(ValueError):
            as_rational("three")

    @pytest.mark.parametrize("token", OFF_GRAMMAR)
    def test_rejects_tokens_outside_the_grammar(self, token):
        with pytest.raises(ValueError, match="not a rational"):
            as_rational(token)


#: The README grammar, written independently of `core`'s pattern.
GRAMMAR = re.compile(r"\A(?:[0-9]+|[0-9]+/[0-9]*[1-9][0-9]*|[0-9]+\.[0-9]+)\Z")


class TestRationalGrammar:
    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet="0123456789/.+-_e \u0663", max_size=8))
    def test_matches_fraction_inside_the_grammar_and_refuses_outside(self, text):
        if GRAMMAR.match(text):
            assert core.rational(text) == Fraction(text)
        else:
            with pytest.raises(ValueError):
                core.rational(text)

    @given(st.fractions(min_value=0))
    def test_reads_back_what_format_instance_writes(self, q):
        assert core.rational(str(q)) == q

    @pytest.mark.parametrize("token", ["0", "007", "3/2", "0/5", "1/05", "0.01", "00.50"])
    def test_every_form_is_accepted(self, token):
        assert core.rational(token) == Fraction(token)


class TestAssignments:
    def test_reads_one_based_entries_with_optional_machine_prefix(self):
        assert core.assignments("1=M2,3=1") == {0: 1, 2: 0}
        assert core.assignments("") == {}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0=M1", "bad entry '0=M1'"),
            ("1=M0", "bad entry '1=M0'"),
            ("1=MM2", "bad entry '1=MM2'"),
            ("+1=M2", "bad entry '+1=M2'"),
            ("1=M1,", "bad entry ''"),
            ("1M1", "bad entry '1M1'"),
            ("1=M1,1=2", "entry '1=2' repeats job 1"),
        ],
    )
    def test_refusals(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            core.assignments(text)


class TestInstance:
    def test_from_rows_mixed_tokens(self):
        inst = Instance.from_rows([["1/2", 1], [2, "0.25"]])
        assert inst.p == ((Fraction(1, 2), Fraction(1)), (Fraction(2), Fraction(1, 4)))
        assert inst.m == 2
        assert inst.n == 2
        assert inst.initial_loads == (Fraction(0), Fraction(0))
        assert Instance.from_rows([[1]] * 3).initial_loads == (0,) * 3

    def test_initial_loads(self):
        inst = Instance.from_rows([[1], [1]], initial_loads=["3/2", 0])
        assert inst.initial_loads == (Fraction(3, 2), Fraction(0))

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="unequal"):
            Instance.from_rows([[1, 2], [3]])

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError, match="negative"):
            Instance.from_rows([[1, -1]])
        with pytest.raises(ValueError, match="negative initial load"):
            Instance.from_rows([[1]], initial_loads=[-1])

    def test_rejects_wrong_load_count(self):
        with pytest.raises(ValueError, match="initial_loads"):
            Instance.from_rows([[1], [1]], initial_loads=[0])

    def test_rejects_zero_machines(self):
        with pytest.raises(ValueError, match="at least one machine"):
            Instance.from_rows([])


class TestLoadsAndMakespan:
    def test_complete_schedule(self, two_by_two):
        assert loads(two_by_two, (0, 1)) == (Fraction(2), Fraction(2))
        assert loads(two_by_two, (1, 0)) == (Fraction(1), Fraction(1))
        assert makespan(two_by_two, (1, 0)) == 1

    def test_partial_schedule_mapping(self, two_by_two):
        assert loads(two_by_two, {1: 0}) == (Fraction(1), Fraction(0))
        assert loads(two_by_two, {}) == (Fraction(0), Fraction(0))

    def test_initial_loads_are_included(self):
        inst = Instance.from_rows([[1], [1]], initial_loads=[5, 0])
        assert loads(inst, (1,)) == (Fraction(5), Fraction(1))

    def test_wrong_length_schedule_rejected(self, two_by_two):
        with pytest.raises(ValueError, match="covers"):
            loads(two_by_two, (0,))

    def test_out_of_range_machine_rejected(self, two_by_two):
        with pytest.raises(ValueError, match="machine index"):
            loads(two_by_two, (0, 2))


def brute_force_opt(inst):
    """Independent oracle: scan every schedule, keep the lexicographically
    smallest argmin."""
    best = None
    for schedule in itertools.product(range(inst.m), repeat=inst.n):
        ms = makespan(inst, schedule)
        if best is None or ms < best[0]:
            best = (ms, schedule)
    return best


class TestOpt:
    def test_known_instance(self, two_by_two):
        assert opt(two_by_two) == (Fraction(1), (1, 0))

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(40):
            m = rng.randint(1, 3)
            n = rng.randint(1, 5)
            inst = random_instance(rng, m, n)
            assert opt(inst) == brute_force_opt(inst)

    def test_budget_guard(self):
        # 2**27 leaves exceed DEFAULT_BUDGET.
        inst = Instance.from_rows([[1] * 27, [1] * 27])
        with pytest.raises(BudgetExceededError, match=r"2\*\*27 leaves"):
            opt(inst)

    def test_respects_initial_loads(self):
        inst = Instance.from_rows([[1], [1]], initial_loads=[10, 0])
        assert opt(inst) == (Fraction(10), (1,))


class TestInstanceFacts:
    """An instance keeps its `integer_form` and `opt` once computed, outside
    everything else that reads or writes it."""

    def make(self):
        return Instance.from_rows([[1, "1/2", 4], [2, 3, "5/3"]], ["1/3", 0])

    def test_each_fact_is_computed_once(self):
        inst = self.make()
        assert core.integer_form(inst) is core.integer_form(inst)
        assert opt(inst) is opt(inst)
        assert core.integer_form(inst) == (6, ((6, 3, 24), (12, 18, 10)), (2, 0))
        assert opt(inst) == constrained_opt(inst, {}) == (Fraction(11, 6), (0, 0, 1))

    def test_identity_and_text_are_unchanged(self):
        fresh, used = self.make(), self.make()
        opt(used), core.integer_form(used)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == (
            "Instance(p=((Fraction(1, 1), Fraction(1, 2), Fraction(4, 1)),"
            " (Fraction(2, 1), Fraction(3, 1), Fraction(5, 3))),"
            " initial_loads=(Fraction(1, 3), Fraction(0, 1)))"
        )
        assert format_instance(used) == format_instance(fresh)
        assert parse_instance(format_instance(used)) == used
        for inst in (fresh, used):
            twin = pickle.loads(pickle.dumps(inst))
            assert twin == inst and hash(twin) == hash(inst)
            assert opt(twin) == opt(used)
            assert core.integer_form(twin) == core.integer_form(used)

    def test_replace_starts_empty(self):
        inst = self.make()
        opt(inst), core.integer_form(inst)
        same = dataclasses.replace(inst)
        assert (same._scaled, same._optimum) == (None, None)
        assert core.integer_form(same) is not core.integer_form(inst)
        assert opt(same) == opt(inst)
        moved = dataclasses.replace(inst, initial_loads=(Fraction(9), Fraction(0)))
        assert core.integer_form(moved)[2] == (54, 0)
        assert opt(moved) == (Fraction(9), (1, 1, 1))
        # 3.10-3.12 raise ValueError for an init=False field, 3.13 TypeError.
        with pytest.raises((ValueError, TypeError)):
            dataclasses.replace(inst, _optimum=(Fraction(0), ()))

    def test_a_fresh_instance_is_held_to_the_budget(self, monkeypatch):
        monkeypatch.setattr(core, "DEFAULT_BUDGET", 10)
        with pytest.raises(BudgetExceededError, match=r"2\*\*4 leaves"):
            opt(Instance.from_rows([[1] * 4, [1] * 4]))


def test_budgets_live_only_in_core():
    """The package does not re-export the budgets: a copy bound at import
    would not move when `core.STATE_BUDGET` or `core.DEFAULT_BUDGET` is set."""
    import seqsched

    assert not hasattr(seqsched, "STATE_BUDGET")
    assert not hasattr(seqsched, "DEFAULT_BUDGET")


class TestConstrainedOpt:
    def test_empty_fixed_equals_opt(self, two_by_two):
        assert constrained_opt(two_by_two, {}) == opt(two_by_two)

    def test_pin_forces_completion(self, two_by_two):
        ms, schedule = constrained_opt(two_by_two, {0: 0})
        assert schedule[0] == 0
        assert ms == Fraction(2)

    def test_matches_filtered_brute_force(self, rng):
        for _ in range(25):
            inst = random_instance(rng, 2, 4)
            fixed = {0: rng.randrange(2), 2: rng.randrange(2)}
            ms, schedule = constrained_opt(inst, fixed)
            candidates = [
                s
                for s in itertools.product(range(2), repeat=4)
                if all(s[j] == c for j, c in fixed.items())
            ]
            expected = min(candidates, key=lambda s: (makespan(inst, s), s))
            assert (ms, schedule) == (makespan(inst, expected), expected)

    def test_rejects_bad_pin(self, two_by_two):
        with pytest.raises(ValueError, match="job index"):
            constrained_opt(two_by_two, {7: 0})


class TestFileFormat:
    def test_round_trip(self, rng):
        for _ in range(20):
            inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 5))
            assert parse_instance(format_instance(inst)) == inst

    def test_round_trip_with_initial_loads(self):
        inst = Instance.from_rows([[1, "1/3"], [2, 0]], initial_loads=["5/7", 1])
        text = format_instance(inst)
        assert "initial_loads 5/7 1" in text
        assert parse_instance(text) == inst

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\n2 1\n3\n\n# trailing\n4\n"
        assert parse_instance(text) == Instance.from_rows([[3], [4]])

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "empty"),
            ("2\n1 2\n3 4\n", "header"),
            ("x y\n", "integer"),
            ("+2 1\n1\n2\n", "integer"),
            ("2 0_1\n1\n2\n", "integer"),
            ("0 2\n", "dimensions"),
            ("2 2\n1 2\n", "machine rows"),
            ("1 2\n1 2 3\n", "2 values"),
            ("1 1\n-1\n", "negative"),
            ("1 1\n1\nloads 0\n", "unexpected line"),
            ("2 1\n1\n2\ninitial_loads 1\n", "expected 2 initial loads"),
            ("1 1\n1\ninitial_loads 0\nx\n", "trailing content"),
        ],
    )
    def test_malformed_inputs(self, text, fragment):
        with pytest.raises(InstanceFormatError, match=fragment):
            parse_instance(text)

    # Whitespace separates tokens, so " 3" reaches the reader as "3".
    @pytest.mark.parametrize("token", [t for t in OFF_GRAMMAR if t != " 3"])
    @pytest.mark.parametrize("line", ["{} 1", "1 1\ninitial_loads 0 {}"])
    def test_tokens_outside_the_grammar_name_their_line(self, line, token):
        text = "# header\n2 2\n1 1\n" + line.format(token) + "\n"
        with pytest.raises(InstanceFormatError) as exc_info:
            parse_instance(text)
        assert str(exc_info.value) == f"line {text.count(chr(10))}: bad rational token {token!r}"

    @pytest.mark.parametrize(
        "inst",
        [
            Instance(((),), (Fraction(0),)),
            Instance(((), (), ()), (Fraction(1, 3), Fraction(0), Fraction(2))),
        ],
        ids=["1x0", "3x0-initial-loads"],
    )
    def test_round_trip_without_jobs(self, inst):
        assert parse_instance(format_instance(inst)) == inst

    def test_crlf_and_tabs_parse_like_lf_and_spaces(self):
        lf = "# comment\n2 2\n1 1/2\n3 0\ninitial_loads 0 1\n"
        want = parse_instance(lf)
        assert parse_instance(lf.replace("\n", "\r\n")) == want
        assert parse_instance(lf.replace(" ", "\t").replace("\n", "\t\r\n")) == want
        assert parse_instance("\t2  1 \n 1\n\t 2\r\n") == Instance.from_rows([[1], [2]])

    # Only ASCII space and tab separate tokens, and only a line feed ends a
    # line: any other Unicode whitespace stays inside its token.
    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            ("2\xa01\n1\n\u30002\n", 1, "expected header 'm n'"),
            ("2 1\n1\n\u30002\n", 3, "bad rational token " + repr("\u30002")),
            ("1 2\n1\x0b2\n", 2, "expected 2 values, got 1"),
            ("1 2\n1\u20282\n", 2, "expected 2 values, got 1"),
            ("1 2\n1 2\u2028\n", 2, "bad rational token " + repr("2\u2028")),
            ("1 1\n1\r\r\n", 2, "bad rational token " + repr("1\r")),
        ],
        ids=["no-break-space", "ideographic-space", "vertical-tab", "u2028", "u2028-end", "cr"],
    )
    def test_only_ascii_space_and_tab_separate(self, text, line_no, message):
        with pytest.raises(InstanceFormatError) as exc_info:
            parse_instance(text)
        assert str(exc_info.value) == f"line {line_no}: {message}"

    def test_error_carries_line_number(self):
        with pytest.raises(InstanceFormatError) as exc_info:
            parse_instance("# comment\n2 1\n1\nbogus\n")
        assert exc_info.value.line_no == 4


#: Small exact rationals over mixed denominators: ties stay common and the
#: integer scaling of `integer_form` is exercised.
rationals = st.builds(
    Fraction, st.integers(0, 6), st.sampled_from((1, 1, 2, 3, 100))
)


@st.composite
def instances(draw, min_n=0, max_n=4, max_m=3, max_leaves=81):
    """m >= 1 machines, n >= min_n jobs with m**n <= max_leaves, rational
    times and initial loads (often nonzero)."""
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(min_n, max_n).filter(lambda n: m**n <= max_leaves))
    rows = [[draw(rationals) for _ in range(n)] for _ in range(m)]
    return Instance.from_rows(rows, [draw(rationals) for _ in range(m)])


@settings(max_examples=60, deadline=None)
@given(inst=instances(max_n=5, max_leaves=10**4))
def test_format_parse_identity_property(inst):
    assert parse_instance(format_instance(inst)) == inst


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_opt_is_a_lower_bound_for_every_schedule(data):
    inst = data.draw(instances(min_n=1))
    ms, witness = opt(inst)
    assert makespan(inst, witness) == ms
    schedule = tuple(data.draw(st.integers(0, inst.m - 1)) for _ in range(inst.n))
    assert ms <= makespan(inst, schedule)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_history_free_spe_is_in_the_outcome_set(data):
    inst = data.draw(instances())
    order = data.draw(st.permutations(range(inst.n)))
    tree = AdaptiveTree.from_order(order, inst.m)
    outcomes = spe_outcome_set(inst, tree)
    for rule in (PreferLowest(), PreferHighest()):
        assert spe(inst, tree, rule) in outcomes


@settings(max_examples=30, deadline=None)
@given(inst=instances(max_m=2, max_leaves=32))
def test_adaptive_le_spos_le_spoa_fixed(inst):
    # On two machines the adaptive guarantee is the optimum (Theorem 4).  On
    # three it can exceed the optimistic spos: gen_thm5 has 59/10 against 4.
    adaptive = adaptive_spos(inst).witness_makespan
    best_order = spos(inst).witness_makespan
    fixed = spoa_fixed(inst, tuple(range(inst.n))).witness_makespan
    assert adaptive <= best_order <= fixed


@settings(max_examples=30, deadline=None)
@given(inst=instances(max_n=3))
def test_dp_equals_enumerate(inst):
    dp = adaptive_spos(inst, method="dp")
    enum = adaptive_spos(inst, method="enumerate")
    assert (dp.value, dp.witness_makespan) == (enum.value, enum.witness_makespan)


THM1 = gen_thm1(0)
THM1_TREE = AdaptiveTree.from_order(range(THM1.n), 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: opt(THM1),
        lambda: constrained_opt(THM1, {0: 1}),
        lambda: spe(THM1, THM1_TREE, PreferLowest()),
        lambda: structure_from_spe(THM1),
        lambda: spe_outcome_set(THM1, THM1_TREE),
        lambda: spos(THM1),
        lambda: adaptive_spos(THM1, method="dp"),
        lambda: adaptive_spos(gen_thm5(Fraction(1, 10)), method="enumerate"),
        lambda: thm4_tree(THM1),
        verify.check_thm3,
    ],
    ids=[
        "opt", "constrained_opt", "spe", "structure_from_spe", "spe_outcome_set",
        "spos", "adaptive_spos_dp", "adaptive_spos_enumerate", "thm4_tree",
        "check_thm3",
    ],
)
def test_solvers_leave_no_reference_cycles(call):
    """A solver's tables are freed by reference counting when it returns,
    not left as cyclic garbage for the collector."""
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
