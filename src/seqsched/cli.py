"""Command-line interface: batch solvers, generators, and verification.

Every value is printed as `key=value` with exact rationals (`a/b` or an
integer); in the default human mode non-integers carry a 6-significant-digit
decimal in parentheses, which `--json` drops for machine parsing.  Exit
codes: 0 success, 1 check failure, 2 usage or input errors, 141 when the
reader closes stdout early (as a SIGPIPE death reads in the shell).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from itertools import islice

from . import constructions, equilibria, lpsearch, measures, verify
from .core import (
    BudgetExceededError,
    Instance,
    InstanceFormatError,
    assignments,
    constrained_opt,
    digits,
    format_instance,
    format_machines,
    loads,
    opt,
    parse_instance,
    rational,
)
from .equilibria import (
    AdaptiveTree,
    PreferHighest,
    PreferLowest,
    ScriptedRule,
    Thm2Rule,
    TieBreakContractError,
    TieBreakRule,
    identity_order,
)


class CliError(Exception):
    """Bad arguments or inputs; maps to exit code 2."""


def _format_value(value: Fraction, json_mode: bool) -> str:
    if json_mode or value.denominator == 1:
        return str(value)
    return f"{value} ({float(value):.6g})"


def _format_order(order) -> str:
    return ",".join(str(j + 1) for j in order)


def _read_instance(path: str) -> Instance:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path!r}: {exc}") from exc
    try:
        return parse_instance(text)
    except InstanceFormatError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path!r}: {exc}") from exc


def _parse_order(text: str, n: int):
    try:
        order = tuple(digits(tok) - 1 for tok in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad --order {text!r}") from exc
    if sorted(order) != list(range(n)):
        raise CliError(f"--order must be a permutation of 1..{n}")
    return order


def _parse_tie(name: str) -> TieBreakRule:
    if name == "lowest":
        return PreferLowest()
    if name == "highest":
        return PreferHighest()
    if name.startswith("thm2:"):
        try:
            k = digits(name.split(":", 1)[1])
        except ValueError as exc:
            raise CliError(f"bad tie rule {name!r}") from exc
        return Thm2Rule(k)
    if name.startswith("scripted:"):
        path = name.split(":", 1)[1]
        try:
            with open(path, encoding="utf-8") as handle:
                return ScriptedRule(handle.read())
        except (OSError, ValueError) as exc:
            raise CliError(f"bad scripted table {path!r}: {exc}") from exc
    if name == "recommended":
        raise CliError("recommended ties are built by tree-thm4; use that command")
    raise CliError(f"unknown tie rule {name!r}")


def _parse_fixed(text: str, inst: Instance):
    try:
        fixed = assignments(text)
    except ValueError as exc:
        raise CliError(f"--fix: {exc}") from exc
    for job, machine in fixed.items():
        if job >= inst.n or machine >= inst.m:
            raise CliError(f"--fix entry '{job + 1}=M{machine + 1}' out of range")
    return fixed


def _emit(key: str, text: str) -> None:
    print(f"{key}={text}")


def _format_ratio(value: Fraction | None, json_mode: bool) -> str:
    """A measured ratio; ``None`` means unbounded (zero optimum)."""
    return "unbounded" if value is None else _format_value(value, json_mode)


def _emit_report(key: str, report: measures.MeasureReport, json_mode: bool, **extra) -> None:
    """The ratio of a `MeasureReport` under `key`, the `extra` lines, then the
    witness and optimum makespans."""
    _emit(key, _format_ratio(report.value, json_mode))
    for name, text in extra.items():
        _emit(name, text)
    _emit("witness_makespan", _format_value(report.witness_makespan, json_mode))
    _emit("opt", _format_value(report.opt_makespan, json_mode))


def _order(args, inst: Instance):
    """The `--order` permutation, or the identity order when it is absent."""
    if args.order is None:
        return identity_order(inst.n)
    return _parse_order(args.order, inst.n)


def cmd_spe(args, inst: Instance) -> int:
    tree = AdaptiveTree.from_order(_order(args, inst), inst.m)
    rule = _parse_tie(args.tie)
    if isinstance(rule, ScriptedRule):
        rule.check_shape(inst.n, inst.m)
    outcome = equilibria.spe(inst, tree, rule)
    _emit("makespan", _format_value(outcome.makespan, args.json))
    _emit("schedule", format_machines(outcome.schedule))
    _emit("loads", ",".join(str(x) for x in outcome.loads))
    _emit("costs", ",".join(str(x) for x in outcome.costs))
    return 0


def cmd_spe_set(args, inst: Instance) -> int:
    tree = AdaptiveTree.from_order(_order(args, inst), inst.m)
    outcomes = equilibria.spe_outcome_set(inst, tree)
    _emit("count", str(len(outcomes)))
    for index, outcome in enumerate(outcomes, start=1):
        print(
            f"outcome={index} makespan={_format_value(outcome.makespan, True)}"
            f" schedule={format_machines(outcome.schedule)}"
        )
    worst = max(o.makespan for o in outcomes)
    best = min(o.makespan for o in outcomes)
    _emit("worst", _format_value(worst, args.json))
    _emit("best", _format_value(best, args.json))
    return 0


def cmd_constrained_opt(args, inst: Instance) -> int:
    """`constrained-opt`, and `opt` as the case with no job fixed."""
    fixed = _parse_fixed(args.fix, inst)
    value, schedule = constrained_opt(inst, fixed)
    _emit("opt", _format_value(value, args.json))
    _emit("schedule", format_machines(schedule))
    _emit("loads", ",".join(str(x) for x in loads(inst, schedule)))
    return 0


def cmd_nash(args, inst: Instance) -> int:
    report = measures.poa_pos(inst)
    _emit("count", str(len(report.equilibria)))
    for schedule in sorted(report.equilibria):
        _emit("nash", format_machines(schedule))
    for key, value in (("poa", report.poa), ("pos", report.pos)):
        _emit(key, _format_ratio(value, args.json))
    return 0


def cmd_spoa(args, inst: Instance) -> int:
    _emit_report("spoa", measures.spoa_fixed(inst, _order(args, inst)), args.json)
    return 0


def cmd_spos(args, inst: Instance) -> int:
    report = measures.spos(inst)
    _emit_report("spos", report, args.json, order=_format_order(report.witness))
    return 0


def cmd_adaptive_spos(args, inst: Instance) -> int:
    report = measures.adaptive_spos(inst, method=args.method)
    _emit_report("adaptive_spos", report, args.json)
    return 0


def cmd_order_thm3(args, inst: Instance) -> int:
    order = constructions.thm3_order(inst)
    _emit("order", _format_order(order))
    _emit("bound", _format_value(constructions.thm3_bound(inst), args.json))
    return 0


def cmd_tree_thm4(args, inst: Instance) -> int:
    built = constructions.thm4_tree(inst)
    outcome = equilibria.spe(inst, built.tree, built.tie_rule())
    opt_ms, _ = opt(inst)
    _emit("makespan", _format_value(outcome.makespan, args.json))
    _emit("opt", _format_value(opt_ms, args.json))
    _emit("schedule", format_machines(outcome.schedule))
    match = outcome.makespan == opt_ms
    _emit("match", "true" if match else "false")
    if args.worst_ties:
        worst = max(o.makespan for o in equilibria.spe_outcome_set(inst, built.tree))
        _emit("worst_makespan", _format_value(worst, args.json))
    return 0 if match else 1


def cmd_check_appendix_d(args) -> int:
    inst = None if args.instance is None else _read_instance(args.instance)
    report = constructions.appendix_d_check(inst)
    _emit("opt", _format_value(report.opt_makespan, args.json))
    _emit("loads", ",".join(str(x) for x in report.opt_loads))
    _emit("schedule", format_machines(report.opt_schedule))
    for probe in report.probes:
        print(
            f"job={probe.job + 1} to=M{probe.machine + 1}"
            f" cost={probe.cost} base={probe.base_cost}"
            f" improves={'true' if probe.improves else 'false'}"
        )
    _emit("all_jobs_improve", "true" if report.all_jobs_improve else "false")
    return 0 if report.all_jobs_improve else 1


# gen family -> (builder, its parameter's flag or None, the flag's argparse type)
_GEN_FAMILIES = {
    "thm1": (constructions.gen_thm1, "--eps", rational),
    "thm2": (constructions.gen_thm2, "--k", digits),
    "thm5": (constructions.gen_thm5, "--eps", rational),
    "appendix-d": (constructions.gen_appendix_d, None, None),
    "example1": (constructions.gen_example1, "--l", rational),
}


def cmd_gen(args) -> int:
    build, flag, _ = _GEN_FAMILIES[args.family]
    inst = build() if flag is None else build(getattr(args, flag.lstrip("-")))
    text = format_instance(inst)
    if args.output is None:
        sys.stdout.write(text)
    else:
        _write_text(args.output, text)
    return 0


def cmd_lp_search(args) -> int:
    structures = lpsearch.enumerate_structures(
        args.n,
        prune_obs1=not args.no_prune_obs1,
        prune_mirror=not args.no_mirror,
        exclude_extreme_eq_leaf=not args.no_exclude_extreme,
    )
    tag = ""
    if args.shard is not None:
        try:
            part, of = (digits(x) for x in args.shard.split("/"))
        except ValueError as exc:
            raise CliError(f"bad --shard {args.shard!r}") from exc
        if not 0 <= part < of:
            raise CliError("--shard wants i/k with 0 <= i < k")
        structures = islice(structures, part, None, of)
        tag = f"{part}of{of}-"  # shards can share one --out-dir
    improvements = []

    def on_improve(value, structure, leaf, witness) -> None:
        # The directory is made with the first witness, after `search`'s checks.
        if args.out_dir is not None and not improvements:
            try:
                os.makedirs(args.out_dir, exist_ok=True)
            except OSError as exc:
                raise CliError(f"cannot write {args.out_dir!r}: {exc}") from exc
        print(f"value={value} structure={structure} optleaf={leaf}", flush=True)
        if args.out_dir is not None:
            name = os.path.join(args.out_dir, f"witness-{tag}{len(improvements):03d}.txt")
            _write_text(name, format_instance(witness))
            print(f"witness_file={name}", flush=True)
        improvements.append(value)

    result = lpsearch.search(
        args.n,
        tie_mode="weak" if args.strict_eps is None else "strict",
        eps=args.strict_eps,
        structures=structures,
        start=args.start,
        limit=args.limit,
        on_improve=on_improve,
    )
    _emit("scanned", str(result.scanned))
    _emit("unbounded", str(len(result.unbounded)))
    if result.value is None:
        _emit("best", "none")
    else:
        _emit("best", _format_value(result.value, args.json))
        _emit("structure", str(result.structure))
        _emit("optleaf", str(result.opt_leaf))
        _emit("machine", f"M{result.objective_machine + 1}")
    if result.next_index is not None:
        _emit("resume_at", str(result.next_index))
    if args.stats:
        for counter in ("solved", "skipped", "warm", "resolved"):
            print(f"stat.lps_{counter}={getattr(result, counter)}", file=sys.stderr)
    return 0


def cmd_count_structures(args) -> int:
    total, pruned = lpsearch.count_structures(
        args.n,
        prune_obs1=not args.no_prune_obs1,
        prune_mirror=args.mirror,
        exclude_extreme_eq_leaf=args.exclude_extreme,
    )
    _emit("total", str(total))
    _emit("pruned", str(pruned))
    return 0


def cmd_verify_paper(args) -> int:
    names = None if args.only is None else args.only.split(",")
    results = verify.run_checks(names)
    failed = 0
    for result in results:
        if args.json:
            print(
                f"check={result.name} pass={'true' if result.passed else 'false'}"
                f" elapsed={result.elapsed:.3f}"
            )
            print(f"expected={result.expected}")
            print(f"computed={result.computed}")
        else:
            status = "PASS" if result.passed else "FAIL"
            print(f"{status} {result.name:<12} {result.elapsed:8.2f}s")
            if not result.passed:
                print(f"     expected: {result.expected}")
                print(f"     computed: {result.computed}")
        if not result.passed:
            failed += 1
    _emit("checks", str(len(results)))
    _emit("failed", str(failed))
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqsched",
        description="Sequential scheduling games on unrelated machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *, order=False, tie=False, instance=True, **defaults):
        """A subcommand with `--json` and, if asked, `--order`, `--tie` and
        the instance file argument, read before `func(args, inst)` runs;
        `defaults` go to `set_defaults`."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--json", action="store_true", help="bare key=value output")
        if order:
            p.add_argument("--order", help="player order, 1-indexed, e.g. 1,3,2")
        if tie:
            p.add_argument(
                "--tie",
                default="lowest",
                help="tie rule: lowest | highest | thm2:<k> | scripted:<file>",
            )
        if instance:
            p.add_argument(
                "instance", nargs="?", default="-", help="instance file (default: stdin)"
            )
            run = func
            func = lambda args: run(args, _read_instance(args.instance))
        p.set_defaults(func=func, **defaults)
        return p

    command("spe", cmd_spe, "subgame perfect equilibrium, fixed order", order=True, tie=True)
    command("spe-set", cmd_spe_set, "all SPE outcomes under arbitrary ties", order=True)
    command("opt", cmd_constrained_opt, "optimal makespan (exact brute force)", fix="")
    p = command("constrained-opt", cmd_constrained_opt, "optimum completing fixed jobs")
    p.add_argument("--fix", default="", help="fixed jobs, e.g. 1=M2,3=M1")
    command("nash", cmd_nash, "pure Nash equilibria and PoA/PoS")
    command("spoa", cmd_spoa, "SPoA for a fixed order (worst ties)", order=True)
    command("spos", cmd_spos, "SPoS over all orders (best ties)")
    p = command(
        "adaptive-spos",
        cmd_adaptive_spos,
        "best worst-tie guarantee over all adaptive trees",
    )
    p.add_argument(
        "--method",
        choices=("dp", "enumerate"),
        default="dp",
        help="dynamic program (default) or literal tree enumeration",
    )
    command("order-thm3", cmd_order_thm3, "two-group order and its bound")
    p = command("tree-thm4", cmd_tree_thm4, "optimum-achieving adaptive tree")
    p.add_argument(
        "--worst-ties",
        action="store_true",
        help="also report the worst makespan over the tree's outcome set",
    )
    p = command(
        "check-appendix-d",
        cmd_check_appendix_d,
        "per-job deviation probes (default instance)",
        instance=False,
    )
    p.add_argument("instance", nargs="?", default=None)

    p = sub.add_parser("gen", help="emit a named instance family")
    gen_sub = p.add_subparsers(dest="family", required=True)
    for family, (_, flag, kind) in _GEN_FAMILIES.items():
        g = gen_sub.add_parser(family)
        if flag is not None:
            g.add_argument(flag, type=kind, required=True)
        g.add_argument("-o", "--output")
        g.set_defaults(func=cmd_gen)

    p = command(
        "lp-search", cmd_lp_search, "adversarial LP search over structures", instance=False
    )
    p.add_argument("--n", type=digits, required=True)
    p.add_argument("--no-prune-obs1", action="store_true")
    p.add_argument("--no-mirror", action="store_true")
    p.add_argument("--no-exclude-extreme", action="store_true")
    p.add_argument("--strict-eps", type=rational, help="strict SPE inequalities with this eps")
    p.add_argument("--shard", help="i/k: process structures with index = i mod k")
    p.add_argument("--start", type=digits, default=0)
    p.add_argument("--limit", type=digits)
    p.add_argument("--out-dir", help="write witness instance files here")
    p.add_argument("--stats", action="store_true", help="print LP counters to stderr")

    p = command(
        "count-structures",
        cmd_count_structures,
        "structure counts with pruning",
        instance=False,
    )
    p.add_argument("--n", type=digits, required=True)
    p.add_argument("--no-prune-obs1", action="store_true")
    p.add_argument("--mirror", action="store_true")
    p.add_argument("--exclude-extreme", action="store_true")

    p = command(
        "verify-paper", cmd_verify_paper, "recompute the headline results", instance=False
    )
    p.add_argument("--only", help="comma-separated subset of checks")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader stopped early (`| head`).  Point stdout at devnull so
        # the interpreter's own flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    # ValueError covers InstanceFormatError and the library's bad arguments.
    except (CliError, ValueError, BudgetExceededError, TieBreakContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
