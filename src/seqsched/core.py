"""Exact-rational scheduling instances, schedules, loads, and brute-force optima.

Everything here is exact: processing times, loads, and makespans are
`fractions.Fraction` values, and the optimizers enumerate assignments
exhaustively (with pruning) rather than approximating.  The optimum search
(`constrained_opt`) runs on the instance scaled exactly to integers by
`integer_form` and maps its result back.  Machines and jobs are 0-indexed
throughout the library; the 1-indexed names (M1, J1, ...) appear only in the
text formats and the CLI.  Each text token has one reader here, with its own
ASCII grammar rather than `int`'s or `Fraction`'s, so every supported Python
reads the same inputs: `digits`, `one_based`, `rational` and `assignments`,
split by `data_lines`.  Each `Instance` keeps its own `integer_form` and `opt`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

Rational = Fraction
RationalLike = Union[Fraction, int, str]

#: A complete assignment: entry j is the machine of job j.
Schedule = tuple[int, ...]
#: A partial assignment: job index -> machine index.
PartialSchedule = Mapping[int, int]
#: Per-machine totals.
LoadVector = tuple[Fraction, ...]

#: Cap on the leaves of an unmemoized exhaustive walk (`check_leaves`).
DEFAULT_BUDGET = 10**8
#: Cap on the work of one memoized game-tree solve: what its `StateMemo`
#: stores, and the orders or trees a scan would score.
STATE_BUDGET = 2 * 10**5


#: The default initial load, shared by every instance that has none.
_ZERO = Fraction(0)


class InstanceFormatError(ValueError):
    """Malformed instance text; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive search would exceed its evaluation budget."""


def as_rational(value: RationalLike) -> Fraction:
    """Convert an int, Fraction, or `rational` string token exactly."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return rational(value)
    raise TypeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True, slots=True)
class Instance:
    """A scheduling instance on unrelated machines.

    Attributes:
        p: m x n matrix of processing times; p[i][j] is the time of job j on
            machine i.
        initial_loads: length-m vector of preexisting machine loads.
        _scaled, _optimum: `integer_form` and `opt`, kept once computed.
    """

    p: tuple[tuple[Fraction, ...], ...]
    initial_loads: tuple[Fraction, ...]
    _scaled: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _optimum: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.p) < 1:
            raise ValueError("an instance needs at least one machine")
        n = len(self.p[0])
        for row in self.p:
            if len(row) != n:
                raise ValueError("processing-time rows have unequal lengths")
            for value in row:
                if value < 0:
                    raise ValueError("negative processing time")
        if len(self.initial_loads) != len(self.p):
            raise ValueError("initial_loads length differs from machine count")
        for value in self.initial_loads:
            if value < 0:
                raise ValueError("negative initial load")

    @property
    def m(self) -> int:
        return len(self.p)

    @property
    def n(self) -> int:
        return len(self.p[0])

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Iterable[RationalLike]],
        initial_loads: Iterable[RationalLike] | None = None,
    ) -> "Instance":
        """Build an Instance from per-machine rows of int/str/Fraction values."""
        p = tuple(tuple(as_rational(x) for x in row) for row in rows)
        if initial_loads is None:
            loads0 = (_ZERO,) * len(p)
        else:
            loads0 = tuple(as_rational(x) for x in initial_loads)
        return cls(p, loads0)


class StateMemo(dict):
    """The memo of one game-tree solve, held to `STATE_BUDGET`.

    `charge` adds what the caller stores to `stored` and past the budget
    raises `BudgetExceededError` with `refusal`, formatted with the budget.
    """

    __slots__ = ("refusal", "stored")  # no instance dict: a cheap `charge`

    def __init__(self, refusal: str):
        super().__init__()
        self.refusal = refusal
        self.stored = 0

    def charge(self, count: int) -> None:
        self.stored += count
        if self.stored > STATE_BUDGET:
            raise BudgetExceededError(self.refusal.format(STATE_BUDGET))


def check_leaves(m: int, depth: int, walk: str) -> None:
    """Refuse a walk over all m ** depth leaves past `DEFAULT_BUDGET`.

    Raises:
        BudgetExceededError: if m ** depth exceeds `DEFAULT_BUDGET`.
    """
    if m**depth > DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"instance too large for {walk}: {m}**{depth} leaves"
        )


def integer_form(
    inst: Instance,
) -> tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The instance scaled exactly to integers: (den, p_int, loads_int).

    `den` is the lcm of every denominator in `p` and `initial_loads`, and
    ``p_int[i][j] == p[i][j] * den``, ``loads_int[i] == initial_loads[i] * den``.
    Sums and comparisons of scaled loads equal those of the rationals, so a
    solver may run on ints and map a result x back as ``Fraction(x, den)``.
    Computed once per instance, which keeps it.
    """
    if inst._scaled is None:
        rows = [*inst.p, inst.initial_loads]
        den = math.lcm(*(x.denominator for row in rows for x in row))
        *p_int, loads_int = [
            tuple(x.numerator * den // x.denominator for x in row) for row in rows
        ]
        object.__setattr__(inst, "_scaled", (den, tuple(p_int), loads_int))
    return inst._scaled


def _assignment_items(inst: Instance, assignment) -> Iterator[tuple[int, int]]:
    """Normalize a Schedule or PartialSchedule into (job, machine) pairs."""
    if isinstance(assignment, Mapping):
        items = assignment.items()
    else:
        if len(assignment) != inst.n:
            raise ValueError(
                f"schedule covers {len(assignment)} jobs, expected {inst.n}"
            )
        items = enumerate(assignment)
    for job, machine in items:
        if not 0 <= job < inst.n:
            raise ValueError(f"job index {job} out of range")
        if not 0 <= machine < inst.m:
            raise ValueError(f"machine index {machine} out of range")
        yield job, machine


def loads(inst: Instance, assignment) -> LoadVector:
    """Per-machine load totals of a (partial) assignment.

    Args:
        inst: the instance.
        assignment: a complete Schedule (sequence) or a PartialSchedule
            (mapping job -> machine); unassigned jobs contribute nothing.

    Returns:
        Tuple of m exact loads, including initial loads.
    """
    totals = list(inst.initial_loads)
    for job, machine in _assignment_items(inst, assignment):
        totals[machine] += inst.p[machine][job]
    return tuple(totals)


def makespan(inst: Instance, schedule: Sequence[int]) -> Fraction:
    """Maximum machine load of a complete schedule."""
    return max(loads(inst, schedule))


def opt(inst: Instance) -> tuple[Fraction, Schedule]:
    """Exact optimum makespan and its canonical witness schedule.

    The witness is the lexicographically smallest assignment vector among all
    minimizers (machine indices compared numerically, jobs in index order).
    Computed once per instance, which keeps it.

    Raises:
        BudgetExceededError: if m ** n exceeds `DEFAULT_BUDGET`.
    """
    if inst._optimum is None:
        object.__setattr__(inst, "_optimum", constrained_opt(inst, {}))
    return inst._optimum


def constrained_opt(inst: Instance, fixed: PartialSchedule) -> tuple[Fraction, Schedule]:
    """Exact optimum over completions of a fixed partial assignment.

    Args:
        inst: the instance.
        fixed: jobs whose machines are pinned; the search runs over the rest.

    Returns:
        (makespan, schedule) where the schedule extends `fixed` and is the
        lexicographically smallest minimizer among completions.

    Raises:
        BudgetExceededError: if m ** (free jobs) exceeds `DEFAULT_BUDGET`.
    """
    pinned = dict(_assignment_items(inst, fixed))
    den, p, start = integer_form(inst)
    free = [j for j in range(inst.n) if j not in pinned]
    check_leaves(inst.m, len(free), "exact search")
    assign = [pinned.get(j, -1) for j in range(inst.n)]
    cur = list(start)
    for j, machine in pinned.items():
        cur[machine] += p[machine][j]
    best_ms, best = _opt_dfs(p, free, 0, cur, max(cur), assign, None)
    return Fraction(best_ms, den), best


def _opt_dfs(
    p: Sequence[Sequence[int]],
    free: list[int],
    idx: int,
    cur: list[int],
    cur_max: int,
    assign: list[int],
    best: tuple[int, Schedule] | None,
) -> tuple[int, Schedule] | None:
    """`best` improved by the completions of free[idx:], in DFS order."""
    if best is not None and cur_max >= best[0]:
        return best
    if idx == len(free):
        # Strict improvement only, so the first optimum found in DFS
        # (= lexicographic) order is kept as the canonical witness.
        return cur_max, tuple(assign)
    job = free[idx]
    for machine in range(len(p)):
        t = p[machine][job]
        cur[machine] += t
        assign[job] = machine
        best = _opt_dfs(p, free, idx + 1, cur, max(cur_max, cur[machine]), assign, best)
        cur[machine] -= t
    assign[job] = -1
    return best


_INITIAL_LOADS_KEY = "initial_loads"


def digits(text: str) -> int:
    """A number token of ASCII digits only: no sign, space or underscore."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a digit string: {text!r}")
    return int(text)


def one_based(text: str, what: str) -> int:
    """A 1-indexed `digits` token naming a `what`, as a 0-based index."""
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {text!r}")
    return int(text) - 1


#: `digits`, `digits/digits` with a nonzero denominator, or `digits.digits`.
_RATIONAL = re.compile(r"[0-9]+(/0*[1-9][0-9]*|\.[0-9]+)?")


def rational(text: str) -> Fraction:
    """A nonnegative rational token: `3`, `2/3` or `0.01`; else ValueError."""
    if _RATIONAL.fullmatch(text) is None:
        raise ValueError(f"not a rational: {text!r}")
    return Fraction(text)


def assignments(text: str) -> dict[int, int]:
    """Comma-separated 1-indexed `job=M<machine>` entries, the `M` optional,
    as a 0-indexed {job: machine} map; "" is the empty list.

    Raises:
        ValueError: for a malformed entry or a job named twice.
    """
    pairs: dict[int, int] = {}
    for entry in text.split(",") if text else ():
        job_text, _, machine_text = entry.partition("=")
        try:
            job = one_based(job_text, "job")
            machine = one_based(machine_text.removeprefix("M"), "machine")
        except ValueError:
            raise ValueError(f"bad entry {entry!r}") from None
        if job in pairs:
            raise ValueError(f"entry {entry!r} repeats job {job + 1}")
        pairs[job] = machine
    return pairs


def data_lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(1-based number, stripped line, tokens) of each line of `text` that is
    neither blank nor a `#` comment.  A line ends at a line feed, less one
    carriage return (so CRLF text reads the same); only ASCII space and tab
    strip and split it, so other whitespace (a no-break space, U+3000, a
    vertical tab, U+2028) stays inside its token."""
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.removesuffix("\r").strip(" \t")
        if line and not line.startswith("#"):
            yield line_no, line, re.split("[ \t]+", line)


def _parse_token(token: str, line_no: int) -> Fraction:
    """Parse one nonnegative rational token, reporting the line on failure."""
    if token.startswith("-"):
        raise InstanceFormatError(line_no, f"negative value {token!r}")
    try:
        return rational(token)
    except ValueError:
        raise InstanceFormatError(line_no, f"bad rational token {token!r}") from None


def parse_instance(text: str) -> Instance:
    """Parse the instance file format.

    Format: optional `#` comment lines; first data line `m n`; then m lines
    of n `rational` tokens; optionally a final line `initial_loads l_1 ...
    l_m`.  Lines and tokens are split by `data_lines`.
    """
    data = [(line_no, tokens) for line_no, _, tokens in data_lines(text)]

    if not data:
        raise InstanceFormatError(1, "empty instance")
    line_no, header = data[0]
    if len(header) != 2:
        raise InstanceFormatError(line_no, "expected header 'm n'")
    try:
        m, n = digits(header[0]), digits(header[1])
    except ValueError:
        raise InstanceFormatError(line_no, "expected integer 'm n'") from None
    if m < 1:
        raise InstanceFormatError(line_no, f"bad dimensions m={m} n={n}")

    # With n = 0 the machine rows are empty lines, which the scan skips.
    row_lines = m if n else 0
    if len(data) < 1 + row_lines:
        last = data[-1][0]
        raise InstanceFormatError(last, f"expected {m} machine rows")
    rows = [()] * m
    for i in range(row_lines):
        line_no, tokens = data[1 + i]
        if len(tokens) != n:
            raise InstanceFormatError(
                line_no, f"expected {n} values, got {len(tokens)}"
            )
        rows[i] = tuple(_parse_token(tok, line_no) for tok in tokens)

    initial = tuple(Fraction(0) for _ in range(m))
    rest = data[1 + row_lines :]
    if rest:
        line_no, tokens = rest[0]
        if tokens[0] != _INITIAL_LOADS_KEY:
            raise InstanceFormatError(line_no, f"unexpected line {tokens[0]!r}")
        if len(tokens) != 1 + m:
            raise InstanceFormatError(line_no, f"expected {m} initial loads")
        initial = tuple(_parse_token(tok, line_no) for tok in tokens[1:])
        if len(rest) > 1:
            raise InstanceFormatError(rest[1][0], "trailing content")

    return Instance(tuple(rows), initial)


def format_instance(inst: Instance) -> str:
    """Render an Instance in the file format; parse(format(x)) == x."""
    lines = [f"{inst.m} {inst.n}"]
    for row in inst.p:
        lines.append(" ".join(str(x) for x in row))
    if any(load != 0 for load in inst.initial_loads):
        lines.append(
            _INITIAL_LOADS_KEY + " " + " ".join(str(x) for x in inst.initial_loads)
        )
    return "\n".join(lines) + "\n"


def format_machines(schedule: Sequence[int]) -> str:
    """A schedule as its 1-indexed machine names: `M1,M2,...`."""
    return ",".join(f"M{machine + 1}" for machine in schedule)
