"""Command-line interface: batch solvers, generators, and verification.

Every value is printed as `key=value` with exact rationals (`a/b` or an
integer); in the default human mode non-integers carry a 6-significant-digit
decimal in parentheses, which `--json` drops for machine parsing.  Exit
codes: 0 success, 1 check failure, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import constructions, equilibria, lpsearch, measures, verify
from .core import (
    BudgetExceededError,
    Instance,
    InstanceFormatError,
    as_rational,
    constrained_opt,
    format_instance,
    loads,
    opt,
    parse_instance,
)
from .equilibria import (
    AdaptiveTree,
    PreferHighest,
    PreferLowest,
    ScriptedRule,
    TieBreakContractError,
    TieBreakRule,
    identity_order,
    scripted_rule_thm2,
)


class CliError(Exception):
    """Bad arguments or inputs; maps to exit code 2."""


def _format_value(value: Fraction, json_mode: bool) -> str:
    value = Fraction(value)
    if json_mode or value.denominator == 1:
        return str(value)
    return f"{value} ({float(value):.6g})"


def _format_machines(schedule) -> str:
    return ",".join(f"M{machine + 1}" for machine in schedule)


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
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_instance(text)
    except InstanceFormatError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _parse_order(text: str, n: int):
    try:
        order = tuple(int(tok) - 1 for tok in text.split(","))
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
            k = int(name.split(":", 1)[1])
        except ValueError as exc:
            raise CliError(f"bad tie rule {name!r}") from exc
        return scripted_rule_thm2(k)
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


def _parse_rational(text: str) -> Fraction:
    try:
        return as_rational(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad rational {text!r}") from exc


def _parse_fixed(text: str, inst: Instance):
    fixed = {}
    if not text:
        return fixed
    for part in text.split(","):
        job_text, _, machine_text = part.partition("=")
        try:
            job = int(job_text) - 1
            machine = int(machine_text.lstrip("M")) - 1
        except ValueError as exc:
            raise CliError(f"bad --fix entry {part!r}") from exc
        if not 0 <= job < inst.n or not 0 <= machine < inst.m:
            raise CliError(f"--fix entry {part!r} out of range")
        fixed[job] = machine
    return fixed


def _emit(key: str, text: str) -> None:
    print(f"{key}={text}")


def cmd_spe(args) -> int:
    inst = _read_instance(args.instance)
    order = (
        _parse_order(args.order, inst.n) if args.order else identity_order(inst.n)
    )
    rule = _parse_tie(args.tie)
    if isinstance(rule, ScriptedRule):
        rule.check_shape(inst.n, inst.m)
    tree = AdaptiveTree.from_order(order, inst.m)
    outcome = equilibria.spe(inst, tree, rule)
    _emit("makespan", _format_value(outcome.makespan, args.json))
    _emit("schedule", _format_machines(outcome.schedule))
    _emit("loads", ",".join(str(x) for x in outcome.loads))
    _emit("costs", ",".join(str(x) for x in outcome.costs))
    return 0


def cmd_spe_set(args) -> int:
    inst = _read_instance(args.instance)
    order = (
        _parse_order(args.order, inst.n) if args.order else identity_order(inst.n)
    )
    tree = AdaptiveTree.from_order(order, inst.m)
    outcomes = equilibria.spe_outcome_set(inst, tree)
    _emit("count", str(len(outcomes)))
    for index, outcome in enumerate(outcomes, start=1):
        print(
            f"outcome={index} makespan={_format_value(outcome.makespan, True)}"
            f" schedule={_format_machines(outcome.schedule)}"
        )
    worst = max(o.makespan for o in outcomes)
    best = min(o.makespan for o in outcomes)
    _emit("worst", _format_value(worst, args.json))
    _emit("best", _format_value(best, args.json))
    return 0


def cmd_opt(args) -> int:
    inst = _read_instance(args.instance)
    value, schedule = opt(inst)
    _emit("opt", _format_value(value, args.json))
    _emit("schedule", _format_machines(schedule))
    _emit("loads", ",".join(str(x) for x in loads(inst, schedule)))
    return 0


def cmd_constrained_opt(args) -> int:
    inst = _read_instance(args.instance)
    fixed = _parse_fixed(args.fix, inst)
    value, schedule = constrained_opt(inst, fixed)
    _emit("opt", _format_value(value, args.json))
    _emit("schedule", _format_machines(schedule))
    _emit("loads", ",".join(str(x) for x in loads(inst, schedule)))
    return 0


def cmd_nash(args) -> int:
    inst = _read_instance(args.instance)
    report = measures.poa_pos(inst)
    equilibria_set = sorted(equilibria.pure_nash(inst))
    _emit("count", str(len(equilibria_set)))
    for schedule in equilibria_set:
        _emit("nash", _format_machines(schedule))
    if report.has_nash:
        _emit("poa", _format_value(report.poa, args.json) if report.poa is not None else "unbounded")
        _emit("pos", _format_value(report.pos, args.json) if report.pos is not None else "unbounded")
    else:
        _emit("poa", "none")
        _emit("pos", "none")
    return 0


def cmd_spoa(args) -> int:
    inst = _read_instance(args.instance)
    order = (
        _parse_order(args.order, inst.n) if args.order else identity_order(inst.n)
    )
    report = measures.spoa_fixed(inst, order)
    _emit(
        "spoa",
        "unbounded" if report.unbounded else _format_value(report.value, args.json),
    )
    _emit("witness_makespan", _format_value(report.witness_makespan, args.json))
    _emit("opt", _format_value(report.opt_makespan, args.json))
    return 0


def cmd_spos(args) -> int:
    inst = _read_instance(args.instance)
    report = measures.spos(inst)
    _emit(
        "spos",
        "unbounded" if report.unbounded else _format_value(report.value, args.json),
    )
    _emit("order", _format_order(report.witness))
    _emit("witness_makespan", _format_value(report.witness_makespan, args.json))
    _emit("opt", _format_value(report.opt_makespan, args.json))
    return 0


def cmd_adaptive_spos(args) -> int:
    inst = _read_instance(args.instance)
    report = measures.adaptive_spos(inst, method=args.method)
    _emit(
        "adaptive_spos",
        "unbounded" if report.unbounded else _format_value(report.value, args.json),
    )
    _emit("witness_makespan", _format_value(report.witness_makespan, args.json))
    _emit("opt", _format_value(report.opt_makespan, args.json))
    return 0


def cmd_order_thm3(args) -> int:
    inst = _read_instance(args.instance)
    order = constructions.thm3_order(inst)
    _emit("order", _format_order(order))
    _emit("bound", _format_value(constructions.thm3_bound(inst), args.json))
    return 0


def cmd_tree_thm4(args) -> int:
    inst = _read_instance(args.instance)
    built = constructions.thm4_tree(inst)
    outcome = equilibria.spe(inst, built.tree, built.tie_rule())
    opt_ms, _ = opt(inst)
    _emit("makespan", _format_value(outcome.makespan, args.json))
    _emit("opt", _format_value(opt_ms, args.json))
    _emit("schedule", _format_machines(outcome.schedule))
    match = outcome.makespan == opt_ms
    _emit("match", "true" if match else "false")
    if args.worst_ties:
        worst = max(
            o.makespan for o in equilibria.spe_outcome_set(inst, built.tree)
        )
        _emit("worst_makespan", _format_value(worst, args.json))
    return 0 if match else 1


def cmd_check_appendix_d(args) -> int:
    inst = _read_instance(args.instance) if args.instance else None
    report = constructions.appendix_d_check(inst)
    _emit("opt", _format_value(report.opt_makespan, args.json))
    _emit("loads", ",".join(str(x) for x in report.opt_loads))
    _emit("schedule", _format_machines(report.opt_schedule))
    for probe in report.probes:
        print(
            f"job={probe.job + 1} to=M{probe.machine + 1}"
            f" cost={probe.cost} base={probe.base_cost}"
            f" improves={'true' if probe.improves else 'false'}"
        )
    all_improve = report.all_jobs_improve
    _emit("all_jobs_improve", "true" if all_improve else "false")
    return 0 if all_improve else 1


def cmd_gen(args) -> int:
    if args.family == "thm1":
        inst = constructions.gen_thm1(_parse_rational(args.eps))
    elif args.family == "thm2":
        inst = constructions.gen_thm2(args.k)
    elif args.family == "thm5":
        inst = constructions.gen_thm5(_parse_rational(args.eps))
    elif args.family == "appendix-d":
        inst = constructions.gen_appendix_d()
    else:
        inst = constructions.gen_example1(_parse_rational(args.l))
    text = format_instance(inst)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_lp_search(args) -> int:
    eps = _parse_rational(args.strict_eps) if args.strict_eps else None
    structures = lpsearch.enumerate_structures(
        args.n,
        prune_obs1=not args.no_prune_obs1,
        prune_mirror=not args.no_mirror,
        exclude_extreme_eq_leaf=not args.no_exclude_extreme,
    )
    if args.shard:
        try:
            part, of = (int(x) for x in args.shard.split("/"))
        except ValueError as exc:
            raise CliError(f"bad --shard {args.shard!r}") from exc
        if not 0 <= part < of:
            raise CliError("--shard wants i/k with 0 <= i < k")
        structures = (
            s for i, s in enumerate(structures) if i % of == part
        )
    improvements = []

    def on_improve(value, structure, leaf, witness) -> None:
        print(f"value={value} structure={structure} optleaf={leaf}", flush=True)
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            name = os.path.join(
                args.out_dir, f"witness-{len(improvements):03d}.txt"
            )
            with open(name, "w", encoding="utf-8") as handle:
                handle.write(format_instance(witness))
            print(f"witness_file={name}", flush=True)
        improvements.append(value)

    result = lpsearch.search(
        args.n,
        tie_mode="strict" if eps is not None else "weak",
        eps=eps,
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
        print(f"stat.lps_solved={result.solved}", file=sys.stderr)
        print(f"stat.lps_skipped={result.skipped}", file=sys.stderr)
        print(f"stat.lps_warm={result.warm}", file=sys.stderr)
        print(f"stat.lps_resolved={result.resolved}", file=sys.stderr)
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
    names = args.only.split(",") if args.only else None
    try:
        results = verify.run_checks(names)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
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


def _add_instance_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "instance",
        nargs="?",
        default="-",
        help="instance file (default: stdin)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqsched",
        description="Sequential scheduling games on unrelated machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, order=False, tie=False):
        p.add_argument("--json", action="store_true", help="bare key=value output")
        if order:
            p.add_argument("--order", help="player order, 1-indexed, e.g. 1,3,2")
        if tie:
            p.add_argument(
                "--tie",
                default="lowest",
                help="tie rule: lowest | highest | thm2:<k> | scripted:<file>",
            )

    p = sub.add_parser("spe", help="subgame perfect equilibrium, fixed order")
    common(p, order=True, tie=True)
    _add_instance_arg(p)
    p.set_defaults(func=cmd_spe)

    p = sub.add_parser("spe-set", help="all SPE outcomes under arbitrary ties")
    common(p, order=True)
    _add_instance_arg(p)
    p.set_defaults(func=cmd_spe_set)

    p = sub.add_parser("opt", help="optimal makespan (exact brute force)")
    common(p)
    _add_instance_arg(p)
    p.set_defaults(func=cmd_opt)

    p = sub.add_parser("constrained-opt", help="optimum completing fixed jobs")
    common(p)
    p.add_argument("--fix", default="", help="fixed jobs, e.g. 1=M2,3=M1")
    _add_instance_arg(p)
    p.set_defaults(func=cmd_constrained_opt)

    p = sub.add_parser("nash", help="pure Nash equilibria and PoA/PoS")
    common(p)
    _add_instance_arg(p)
    p.set_defaults(func=cmd_nash)

    p = sub.add_parser("spoa", help="SPoA for a fixed order (worst ties)")
    common(p, order=True)
    _add_instance_arg(p)
    p.set_defaults(func=cmd_spoa)

    p = sub.add_parser("spos", help="SPoS over all orders (best ties)")
    common(p)
    _add_instance_arg(p)
    p.set_defaults(func=cmd_spos)

    p = sub.add_parser(
        "adaptive-spos",
        help="best worst-tie guarantee over all adaptive trees",
    )
    common(p)
    p.add_argument(
        "--method",
        choices=("dp", "enumerate"),
        default="dp",
        help="dynamic program (default) or literal tree enumeration",
    )
    _add_instance_arg(p)
    p.set_defaults(func=cmd_adaptive_spos)

    p = sub.add_parser("order-thm3", help="two-group order and its bound")
    common(p)
    _add_instance_arg(p)
    p.set_defaults(func=cmd_order_thm3)

    p = sub.add_parser("tree-thm4", help="optimum-achieving adaptive tree")
    common(p)
    p.add_argument(
        "--worst-ties",
        action="store_true",
        help="also report the worst makespan over the tree's outcome set",
    )
    _add_instance_arg(p)
    p.set_defaults(func=cmd_tree_thm4)

    p = sub.add_parser(
        "check-appendix-d", help="per-job deviation probes (default instance)"
    )
    common(p)
    p.add_argument("instance", nargs="?", default=None)
    p.set_defaults(func=cmd_check_appendix_d)

    p = sub.add_parser("gen", help="emit a named instance family")
    gen_sub = p.add_subparsers(dest="family", required=True)
    g = gen_sub.add_parser("thm1")
    g.add_argument("--eps", required=True)
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_gen)
    g = gen_sub.add_parser("thm2")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_gen)
    g = gen_sub.add_parser("thm5")
    g.add_argument("--eps", required=True)
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_gen)
    g = gen_sub.add_parser("appendix-d")
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_gen)
    g = gen_sub.add_parser("example1")
    g.add_argument("--l", required=True)
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_gen)

    p = sub.add_parser("lp-search", help="adversarial LP search over structures")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--no-prune-obs1", action="store_true")
    p.add_argument("--no-mirror", action="store_true")
    p.add_argument("--no-exclude-extreme", action="store_true")
    p.add_argument("--strict-eps", help="strict SPE inequalities with this eps")
    p.add_argument("--shard", help="i/k: process structures with index = i mod k")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--limit", type=int)
    p.add_argument("--out-dir", help="write witness instance files here")
    p.add_argument(
        "--stats", action="store_true", help="print LP counters to stderr"
    )
    p.set_defaults(func=cmd_lp_search)

    p = sub.add_parser("count-structures", help="structure counts with pruning")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--no-prune-obs1", action="store_true")
    p.add_argument("--mirror", action="store_true")
    p.add_argument("--exclude-extreme", action="store_true")
    p.set_defaults(func=cmd_count_structures)

    p = sub.add_parser("verify-paper", help="recompute the headline results")
    common(p)
    p.add_argument("--only", help="comma-separated subset of checks")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        CliError,
        InstanceFormatError,
        ValueError,
        BudgetExceededError,
        TieBreakContractError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
