"""CLI tests: output contracts, exit codes, flags, and one real pipe."""

import dataclasses
import io
import itertools
import os
import random
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import seqsched
from seqsched import cli, constructions, core, equilibria, lpsearch, measures, verify
from seqsched.core import Instance, format_instance, integer_form, parse_instance


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out):
    """Last value per key over `key=value` lines (repeated keys collect)."""
    pairs = {}
    for line in out.splitlines():
        key, sep, value = line.partition("=")
        if sep and " " not in key:
            pairs.setdefault(key, []).append(value)
    return {key: values[-1] if len(values) == 1 else values for key, values in pairs.items()}


# The child runs the seqsched this test imported, whatever the cwd.
MODULE_COMMAND = [sys.executable, "-m", "seqsched"]
SEQSCHED_ROOT = str(Path(seqsched.__file__).resolve().parent.parent)


def module_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SEQSCHED_ROOT, env.get("PYTHONPATH")])
    )
    return env


def run_shell(line, env=None):
    return subprocess.run(
        ["sh", "-c", line],
        capture_output=True,
        text=True,
        env=env,
        stdin=subprocess.DEVNULL,
        timeout=60,
    )


def assert_pipe_gives_opt_1(command, env=None):
    gen = shlex.join([*command, "gen", "thm2", "--k", "2"])
    opt = shlex.join([*command, "opt", "-", "--json"])
    proc = run_shell(f"{gen} | {opt}", env)
    assert proc.returncode == 0, proc.stderr
    assert "opt=1" in proc.stdout.splitlines()


def assert_missing_file_exits_2(command, env=None):
    proc = run_shell(shlex.join([*command, "opt", "/definitely/not/a/file"]), env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.fixture
def thm1_file(tmp_path):
    path = tmp_path / "thm1.txt"
    path.write_text(format_instance(constructions.gen_thm1(Fraction(1, 100))))
    return str(path)


@pytest.fixture
def thm5_file(tmp_path):
    path = tmp_path / "thm5.txt"
    path.write_text(format_instance(constructions.gen_thm5(Fraction(1, 10))))
    return str(path)


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "example1.txt"
    path.write_text(format_instance(constructions.gen_example1(Fraction(5))))
    return str(path)


class TestInstanceIo:
    def test_opt_reads_file(self, capsys, thm1_file):
        code, out, _ = run_cli(capsys, "opt", thm1_file)
        assert code == 0
        values = kv(out)
        assert values["opt"] == "1"
        assert values["schedule"] == "M2,M1,M1,M1,M2"
        assert values["loads"] == "1,99/100"

    def test_opt_reads_stdin_by_default(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("2 1\n3\n4\n"))
        code, out, _ = run_cli(capsys, "opt")
        assert code == 0
        assert kv(out)["opt"] == "3"

    def test_missing_file_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "opt", str(tmp_path / "absent.txt"))
        assert code == 2
        assert "error:" in err

    def test_malformed_instance_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 1\n")
        code, _, err = run_cli(capsys, "opt", str(path))
        assert code == 2
        assert "error:" in err

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["no-such-command"])
        assert excinfo.value.code == 2


class TestSpe:
    def test_human_mode_annotates_decimals(self, capsys, thm1_file):
        code, out, _ = run_cli(capsys, "spe", thm1_file)
        assert code == 0
        values = kv(out)
        assert values["makespan"] == "387/100 (3.87)"
        assert values["schedule"] == "M1,M2,M1,M2,M2"

    def test_json_mode_is_bare(self, capsys, thm1_file):
        _, out, _ = run_cli(capsys, "spe", thm1_file, "--json")
        assert kv(out)["makespan"] == "387/100"

    def test_order_flag(self, capsys, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("2 2\n2 1\n1 2\n")
        _, default_out, _ = run_cli(capsys, "spe", str(path))
        _, reversed_out, _ = run_cli(capsys, "spe", str(path), "--order", "2,1")
        assert kv(default_out)["schedule"] == "M2,M1"
        assert kv(reversed_out)["schedule"] == "M2,M1"

    def test_bad_order_is_a_usage_error(self, capsys, thm1_file):
        code, _, err = run_cli(capsys, "spe", thm1_file, "--order", "1,2")
        assert code == 2
        assert "permutation" in err

    @pytest.mark.parametrize("order", ["+1,2,3,4,5", "1, 2,3,4,5", "1,2,3,4,5_"])
    def test_order_numbers_are_plain_digits(self, capsys, thm1_file, order):
        code, out, err = run_cli(capsys, "spe", thm1_file, "--order", order)
        assert (code, out, err) == (2, "", f"error: bad --order {order!r}\n")

    def test_thm2_tie_rule(self, capsys, tmp_path):
        path = tmp_path / "thm2.txt"
        path.write_text(format_instance(constructions.gen_thm2(2)))
        code, out, _ = run_cli(capsys, "spe", str(path), "--tie", "thm2:2")
        assert code == 0
        assert kv(out)["makespan"] == "4"

    def test_scripted_tie_rule_from_file(self, capsys, tmp_path):
        inst = tmp_path / "tie.txt"
        inst.write_text("2 1\n1\n1\n")
        table = tmp_path / "rule.txt"
        table.write_text("player 1 when * prefer 2\n")
        code, out, _ = run_cli(
            capsys, "spe", str(inst), "--tie", f"scripted:{table}"
        )
        assert code == 0
        assert kv(out)["schedule"] == "M2"

    @pytest.mark.parametrize(
        "row, fragment",
        [
            ("player 9 when * prefer M7", "job 9 out of range 1..2"),
            ("player 1 when * prefer M7", "machine M7 out of range M1..M2"),
            ("player 1 when 3=M1 prefer 1", "job 3 out of range"),
            ("player 1 when 2=M3 prefer 1", "machine M3 out of range"),
        ],
    )
    def test_scripted_table_outside_the_instance_is_refused(
        self, capsys, tmp_path, row, fragment
    ):
        inst = tmp_path / "tie.txt"
        inst.write_text("2 2\n1 1\n1 1\n")
        table = tmp_path / "rule.txt"
        table.write_text(f"# header\n{row}\n")
        code, out, err = run_cli(
            capsys, "spe", str(inst), "--tie", f"scripted:{table}"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert f"line 2: {fragment}" in err

    @pytest.mark.parametrize(
        "rule", ["bogus", "thm2:x", "thm2:+2", "thm2: 2", "thm2:-2", "recommended"]
    )
    def test_bad_tie_rules_are_usage_errors(self, capsys, thm1_file, rule):
        code, _, err = run_cli(capsys, "spe", thm1_file, "--tie", rule)
        assert code == 2
        assert "error:" in err


class TestSpeSet:
    def test_tied_instance_lists_every_outcome(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("2 2\n1 1\n1 1\n"))
        code, out, _ = run_cli(capsys, "spe-set")
        assert code == 0
        values = kv(out)
        assert values["count"] == "2"
        assert values["worst"] == "1"
        assert values["best"] == "1"
        assert "outcome=1 makespan=1 schedule=M1,M2" in out
        assert "outcome=2 makespan=1 schedule=M2,M1" in out

    def test_thm1_worst_is_the_gray_equilibrium(self, capsys, thm1_file):
        _, out, _ = run_cli(capsys, "spe-set", thm1_file, "--json")
        values = kv(out)
        assert values["count"] == "3"
        assert values["worst"] == "387/100"
        assert values["best"] == "97/50"
        assert "outcome=1 makespan=387/100 schedule=M1,M2,M1,M2,M2" in out


class TestConstrainedOpt:
    def test_fix_flag(self, capsys, thm1_file):
        code, out, _ = run_cli(
            capsys, "constrained-opt", thm1_file, "--fix", "1=M1", "--json"
        )
        assert code == 0
        assert kv(out)["opt"] == "291/100"

    def test_no_fix_matches_opt(self, capsys, thm1_file):
        _, constrained, _ = run_cli(capsys, "constrained-opt", thm1_file)
        _, plain, _ = run_cli(capsys, "opt", thm1_file)
        assert kv(constrained)["opt"] == kv(plain)["opt"]
        assert kv(constrained)["schedule"] == kv(plain)["schedule"]

    @pytest.mark.parametrize(
        "fix",
        ["9=M1", "1=M9", "junk", "1M1", "1=M1,1=M2", "1=MM2", "1=M+2", "+1=M2", "1_0=M1"],
    )
    def test_bad_fix_entries_are_usage_errors(self, capsys, thm1_file, fix):
        code, _, err = run_cli(capsys, "constrained-opt", thm1_file, "--fix", fix)
        assert code == 2
        assert "error:" in err


#: `--fix` entries and tie-table conditions on the thm1 instance (5 jobs, 2
#: machines), with the map both must read, or None for a refusal.
ASSIGNMENT_ENTRIES = {
    "1=M1": {0: 0},
    "2=1": {1: 0},
    "1=M2,3=M1": {0: 1, 2: 0},
    "5=2,4=M1": {4: 1, 3: 0},
    "0=M1": None,
    "1=M0": None,
    "x=M1": None,
    "1=Mx": None,
    "1=MM2": None,
    "1=M+2": None,
    "+1=M2": None,
    "1_0=M1": None,
    "1=m1": None,
    "1M1": None,
    "1=M1=M2": None,
    "1=M1,": None,
    ",1=M1": None,
    "1=M1,1=M2": None,
    "1=M1,1=1": None,
    "\u0663=M1": None,
}


class TestAssignmentEntries:
    """`--fix` and tie-table conditions read one grammar, `core.assignments`."""

    @pytest.mark.parametrize("entry", ASSIGNMENT_ENTRIES)
    def test_fix_and_condition_agree(self, capsys, thm1_file, entry):
        expected = ASSIGNMENT_ENTRIES[entry]
        code, out, err = run_cli(capsys, "constrained-opt", thm1_file, "--fix", entry)
        try:
            rule = equilibria.ScriptedRule(f"# header\nplayer 1 when {entry} prefer 1\n")
        except ValueError as exc:
            condition, message = None, str(exc)
        else:
            condition, message = rule.rows[0][1], None
        assert condition == expected
        if expected is None:
            assert (code, out) == (2, "")
            assert err.startswith("error: --fix: ")
            assert message.startswith("line 2: ")
            assert err[len("error: --fix: ") :] == message[len("line 2: ") :] + "\n"
        else:
            assert code == 0
            schedule = kv(out)["schedule"].split(",")
            assert all(schedule[j] == f"M{i + 1}" for j, i in expected.items())


class TestNash:
    def test_example1(self, capsys, example1_file):
        code, out, _ = run_cli(capsys, "nash", example1_file)
        assert code == 0
        values = kv(out)
        assert values["count"] == "2"
        assert values["nash"] == ["M1,M2", "M2,M1"]
        assert values["poa"] == "5"
        assert values["pos"] == "1"

    def test_unbounded_poa(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("2 2\n0 1\n1 0\n"))
        _, out, _ = run_cli(capsys, "nash")
        values = kv(out)
        assert values["poa"] == "unbounded"
        assert values["pos"] == "1"


class TestMeasures:
    def test_spoa(self, capsys, thm1_file):
        code, out, _ = run_cli(capsys, "spoa", thm1_file, "--json")
        assert code == 0
        values = kv(out)
        assert values["spoa"] == "387/100"
        assert values["witness_makespan"] == "387/100"
        assert values["opt"] == "1"

    def test_spos_finds_an_optimal_order(self, capsys, thm1_file):
        code, out, _ = run_cli(capsys, "spos", thm1_file, "--json")
        assert code == 0
        values = kv(out)
        assert values["spos"] == "1"
        assert values["order"] == "1,2,3,5,4"
        assert values["opt"] == "1"

    def test_adaptive_spos_thm5(self, capsys, thm5_file):
        code, out, _ = run_cli(capsys, "adaptive-spos", thm5_file, "--json")
        assert code == 0
        values = kv(out)
        assert values["adaptive_spos"] == "59/40"
        assert values["witness_makespan"] == "59/10"
        assert values["opt"] == "4"

    def test_adaptive_spos_enumerate_agrees(self, capsys, thm5_file):
        _, dp_out, _ = run_cli(capsys, "adaptive-spos", thm5_file, "--json")
        _, enum_out, _ = run_cli(
            capsys, "adaptive-spos", thm5_file, "--json", "--method", "enumerate"
        )
        assert kv(dp_out)["adaptive_spos"] == kv(enum_out)["adaptive_spos"]


class TestSolverRefusalsAndEdgeCases:
    @pytest.mark.parametrize(
        "command,key",
        [("spoa", "spoa"), ("spos", "spos"), ("adaptive-spos", "adaptive_spos")],
    )
    def test_one_machine_instance_gives_1(self, capsys, monkeypatch, command, key):
        monkeypatch.setattr(sys, "stdin", io.StringIO("1 2\n1 1\n"))
        code, out, err = run_cli(capsys, command, "-")
        assert (code, err) == (0, "")
        assert kv(out)[key] == "1"

    def test_thm2_family_runs_past_the_leaf_count(self, capsys, monkeypatch):
        # 2**14 leaves; the shared fixed-order subgames fit the state budget.
        _, text, _ = run_cli(capsys, "gen", "thm2", "--k", "5")
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, "spoa", "-")
        assert (code, err) == (0, "")
        assert kv(out)["spoa"] == "7"

    def test_outcome_set_budget_is_a_usage_error(self, capsys, monkeypatch):
        # All ties: 2**21 outcomes, more than the state budget.
        text = "2 20\n" + "0 " * 19 + "0\n" + "0 " * 19 + "0\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, "spe-set", "-")
        assert code == 2
        assert out == ""
        assert err.startswith("error: outcome sets too large")

    def test_adaptive_dp_budget_is_a_usage_error(self, capsys, monkeypatch):
        # Five equal rows 1..6: the DP's load vectors outgrow the budget.
        text = "5 6\n" + "1 2 3 4 5 6\n" * 5
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, "adaptive-spos", "-")
        assert (code, out) == (2, "")
        assert err == "error: adaptive DP too large: over 200000 stored load vectors\n"

    def test_thm4_memo_budget_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(core, "STATE_BUDGET", 1000)
        text = "2 9\n" + "1 " * 8 + "1\n" + "1 " * 8 + "1\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, "tree-thm4", "-")
        assert (code, out) == (2, "")
        assert err == "error: thm4 tree too large: over 1000 partial assignments\n"

    def test_spe_leaf_budget_is_a_usage_error(self, capsys, monkeypatch):
        # 2**30 leaves exceed DEFAULT_BUDGET; the check runs before the walk.
        text = "2 30\n" + " ".join(["1"] * 30) + "\n" + " ".join(["1"] * 30) + "\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, "spe", "-")
        assert code == 2
        assert out == ""
        assert err == (
            "error: instance too large for backward induction: 2**30 leaves\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("lp-search", "--n", "0"),
            ("lp-search", "--n", "7"),
            ("lp-search", "--n", "40"),
            ("count-structures", "--n", "0"),
            ("count-structures", "--n", "8"),
            ("count-structures", "--n", "40"),
        ],
    )
    def test_out_of_range_sizes_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("lp-search", "--n", "-1"),
            ("lp-search", "--n", "3", "--start", "-3"),
            ("lp-search", "--n", "3", "--limit", "-1"),
            ("lp-search", "--n", "3", "--limit", "+1"),
            ("count-structures", "--n", "-1"),
        ],
    )
    def test_signed_numbers_are_argparse_usage_errors(self, capsys, argv):
        assert_argparse_refuses(capsys, argv, "digits")

    def test_tie_rule_contract_violation_is_a_usage_error(self, capsys, monkeypatch):
        # The only job ties on both machines; the rule names neither.
        class Defector(equilibria.TieBreakRule):
            name = "defector"

            def choose(self, player, history, candidates):
                return 7

        monkeypatch.setattr(cli, "_parse_tie", lambda name: Defector())
        monkeypatch.setattr(sys, "stdin", io.StringIO("2 1\n1\n1\n"))
        code, out, err = run_cli(capsys, "spe", "-")
        assert code == 2
        assert out == ""
        assert err == "error: rule 'defector' chose non-candidate machine 7\n"
        assert "Traceback" not in err


def assert_argparse_refuses(capsys, argv, kind):
    """argparse exits 2 before any output, naming the last flag and its value."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    assert (excinfo.value.code, out) == (2, "")
    prog = " ".join(argv[:2] if argv[0] == "gen" else argv[:1])
    assert err.splitlines()[-1] == (
        f"seqsched {prog}: error: argument {argv[-2]}:"
        f" invalid {kind} value: {argv[-1]!r}"
    )


def assert_usage_error(code, out, err, message):
    """Exit 2 before any output, with one `error:` line and no traceback."""
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err


class TestEmptyOptionValues:
    """An empty option value goes through its parser; it is not read as absent."""

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (("spe", "THM1", "--order", ""), "bad --order ''"),
            (("spoa", "THM1", "--order", ""), "bad --order ''"),
            (("spe-set", "THM1", "--order", ""), "bad --order ''"),
            (("lp-search", "--n", "3", "--shard", ""), "bad --shard ''"),
            (("lp-search", "--n", "3", "--out-dir", ""), "cannot write '': "),
            (("verify-paper", "--only", ""), "unknown checks: ''\n"),
            (("check-appendix-d", ""), "cannot read '': "),
            (("gen", "thm1", "--eps", "1/100", "-o", ""), "cannot write '': "),
        ],
        ids=[
            "spe-order", "spoa-order", "spe-set-order", "shard",
            "out-dir", "only", "appendix-d-instance", "gen-output",
        ],
    )
    def test_empty_value_is_a_usage_error(self, capsys, thm1_file, argv, message):
        argv = [thm1_file if arg == "THM1" else arg for arg in argv]
        assert_usage_error(*run_cli(capsys, *argv), message)

    def test_empty_fix_fixes_no_job(self, capsys, thm1_file):
        fixed = run_cli(capsys, "constrained-opt", thm1_file, "--fix", "")
        assert fixed == run_cli(capsys, "opt", thm1_file)
        assert fixed[0] == 0


class TestUnwritableOutput:
    """A path that cannot be written is a usage error, not a traceback."""

    @pytest.mark.parametrize("target", ["a-directory", "missing/x.txt"])
    def test_gen_output(self, capsys, tmp_path, target):
        (tmp_path / "a-directory").mkdir()
        path = str(tmp_path / target)
        result = run_cli(capsys, "gen", "thm1", "--eps", "1/100", "-o", path)
        assert_usage_error(*result, f"cannot write {path!r}: ")

    def test_lp_search_out_dir_is_a_file(self, capsys, tmp_path):
        path = tmp_path / "a-file"
        path.write_text("kept\n")
        result = run_cli(capsys, "lp-search", "--n", "3", "--out-dir", str(path))
        assert_usage_error(*result, f"cannot write {str(path)!r}: ")
        assert path.read_text() == "kept\n"


class TestConstructionCommands:
    def test_order_thm3(self, capsys, thm1_file):
        code, out, _ = run_cli(capsys, "order-thm3", thm1_file)
        assert code == 0
        values = kv(out)
        assert values["order"] == "1,5,2,3,4"
        assert values["bound"] == "3"

    def test_tree_thm4_match(self, capsys, thm1_file):
        code, out, _ = run_cli(
            capsys, "tree-thm4", thm1_file, "--worst-ties", "--json"
        )
        assert code == 0
        values = kv(out)
        assert values["makespan"] == "1"
        assert values["opt"] == "1"
        assert values["match"] == "true"
        assert values["worst_makespan"] == "1"

    def test_check_appendix_d_default(self, capsys):
        code, out, _ = run_cli(capsys, "check-appendix-d")
        assert code == 0
        values = kv(out)
        assert values["opt"] == "10"
        assert values["loads"] == "10,9,6"
        assert values["all_jobs_improve"] == "true"
        assert "job=1 to=M1 cost=7 base=9 improves=true" in out
        assert "job=2 to=M2 cost=7 base=10 improves=true" in out
        assert "job=3 to=M3 cost=11 base=10 improves=false" in out

    def test_check_appendix_d_custom_failure_exits_1(self, capsys, monkeypatch):
        # A job with no improving deviation refutes the pattern: exit 1.
        monkeypatch.setattr(sys, "stdin", io.StringIO("2 1\n1\n1\n"))
        code, out, _ = run_cli(capsys, "check-appendix-d", "-")
        assert code == 1
        assert kv(out)["all_jobs_improve"] == "false"


#: Tokens outside the rational grammar.  `Fraction(str)` reads all but `1/0`
#: on some supported Python: `1_0` and `1/2_0` from 3.11 on, the rest on all.
OFF_GRAMMAR = ("1_0", "1/2_0", " 3", "+1", "1e-3", ".5", "5.", "\u0663", "1/0")


class TestRationalTokens:
    """Every rational a user types goes through `core.rational`."""

    @pytest.mark.parametrize("token", [*OFF_GRAMMAR, "x", ""])
    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "thm1", "--eps"),
            ("gen", "thm5", "--eps"),
            ("gen", "example1", "--l"),
            ("lp-search", "--n", "3", "--strict-eps"),
        ],
        ids=["thm1", "thm5", "example1", "lp-search"],
    )
    def test_flags_refuse(self, capsys, argv, token):
        assert_argparse_refuses(capsys, (*argv, token), "rational")

    # Whitespace separates file tokens, so " 3" reaches the reader as "3".
    @pytest.mark.parametrize("token", [t for t in OFF_GRAMMAR if t != " 3"])
    def test_file_tokens_refuse_naming_their_line(self, capsys, monkeypatch, token):
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"1 2\n1 {token}\n"))
        message = f"-: line 2: bad rational token {token!r}\n"
        assert_usage_error(*run_cli(capsys, "opt", "-"), message)

    def test_flag_forms_are_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "example1", "--l", "3/2")
        assert code == 0
        assert parse_instance(out) == constructions.gen_example1(Fraction(3, 2))
        assert out == run_cli(capsys, "gen", "example1", "--l", "1.5")[1]


class TestGen:
    def test_gen_to_stdout_parses_back(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "thm1", "--eps", "1/100")
        assert code == 0
        assert parse_instance(out) == constructions.gen_thm1(Fraction(1, 100))

    def test_gen_to_file(self, capsys, tmp_path):
        path = tmp_path / "gen.txt"
        code, out, _ = run_cli(capsys, "gen", "thm5", "--eps", "1/10", "-o", str(path))
        assert code == 0
        assert out == ""
        assert parse_instance(path.read_text()) == constructions.gen_thm5(
            Fraction(1, 10)
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "thm1", "--eps", "1"),
            ("gen", "thm2", "--k", "1"),
            ("gen", "thm5", "--eps", "1"),
            ("gen", "example1", "--l", "1/2"),
        ],
    )
    def test_bad_parameters_are_usage_errors(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "error:" in err


class TestLpSearchCommand:
    def test_n2_full(self, capsys):
        code, out, _ = run_cli(capsys, "lp-search", "--n", "2", "--json")
        assert code == 0
        values = kv(out)
        assert values["scanned"] == "2"
        assert values["unbounded"] == "0"
        assert values["best"] == "2"
        assert values["structure"] == "0x2"
        assert values["optleaf"] == "2"
        assert values["machine"] == "M2"
        assert "resume_at" not in values
        assert "value=2 structure=0x2 optleaf=2" in out

    def test_limit_reports_resume_point(self, capsys):
        _, out, _ = run_cli(
            capsys, "lp-search", "--n", "3", "--json", "--limit", "7"
        )
        values = kv(out)
        assert values["scanned"] == "7"
        assert values["resume_at"] == "7"

    def test_resume_finishes_the_scan(self, capsys):
        _, full, _ = run_cli(capsys, "lp-search", "--n", "3", "--json")
        _, first, _ = run_cli(
            capsys, "lp-search", "--n", "3", "--json", "--limit", "7"
        )
        _, second, _ = run_cli(
            capsys,
            "lp-search", "--n", "3", "--json",
            "--start", kv(first)["resume_at"].strip(),
        )
        assert "resume_at" not in kv(second)
        scanned = int(kv(first)["scanned"]) + int(kv(second)["scanned"])
        assert scanned == int(kv(full)["scanned"])
        best = max(
            Fraction(kv(first)["best"]), Fraction(kv(second)["best"])
        )
        assert best == Fraction(kv(full)["best"])

    def test_shards_partition_the_scan(self, capsys):
        _, full, _ = run_cli(capsys, "lp-search", "--n", "3", "--json")
        shard_scans = 0
        shard_best = None
        for part in range(3):
            _, out, _ = run_cli(
                capsys, "lp-search", "--n", "3", "--json", "--shard", f"{part}/3"
            )
            values = kv(out)
            shard_scans += int(values["scanned"])
            if values.get("best", "none") != "none":
                value = Fraction(values["best"])
                shard_best = value if shard_best is None else max(shard_best, value)
        assert shard_scans == int(kv(full)["scanned"])
        assert shard_best == Fraction(kv(full)["best"])

    @pytest.mark.parametrize("shard", ["x", "3/2", "2/2", "1", "+0/2", "0/+2"])
    def test_bad_shard_is_a_usage_error(self, capsys, shard):
        code, _, err = run_cli(capsys, "lp-search", "--n", "2", "--shard", shard)
        assert code == 2
        assert "error:" in err

    def test_out_dir_writes_witnesses(self, capsys, tmp_path):
        out_dir = tmp_path / "witnesses"
        code, out, _ = run_cli(
            capsys, "lp-search", "--n", "2", "--out-dir", str(out_dir)
        )
        assert code == 0
        files = sorted(out_dir.iterdir())
        assert files, "improvements must drop witness files"
        witness = parse_instance(files[-1].read_text())
        assert witness.m == 2 and witness.n == 2
        assert f"witness_file={files[0]}" in out

    @pytest.mark.parametrize(
        "argv", [("--n", "7"), ("--n", "3", "--strict-eps", "0")], ids=["n", "strict-eps"]
    )
    def test_input_error_makes_no_out_dir(self, capsys, tmp_path, argv):
        out_dir = tmp_path / "witnesses"
        code, out, err = run_cli(capsys, "lp-search", *argv, "--out-dir", str(out_dir))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert not out_dir.exists()

    def test_stats_go_to_stderr(self, capsys):
        _, plain, plain_err = run_cli(capsys, "lp-search", "--n", "3")
        code, out, err = run_cli(capsys, "lp-search", "--n", "3", "--stats")
        assert code == 0
        assert out == plain
        assert plain_err == ""
        assert err == (
            "stat.lps_solved=59\nstat.lps_skipped=161\n"
            "stat.lps_warm=19\nstat.lps_resolved=2\n"
        )

    def test_zero_strict_eps_is_refused_before_the_scan(self, capsys):
        argv = ("--n", "3", "--strict-eps", "0", "--limit", "0")
        code, out, err = run_cli(capsys, "lp-search", *argv)
        assert (code, out) == (2, "")
        assert err == "error: strict mode needs a positive eps\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--n", "3", "--limit", "0", "--strict-eps", "-1"),
            ("--n", "1", "--strict-eps", "-1"),
        ],
    )
    def test_negative_strict_eps_is_an_argparse_usage_error(self, capsys, argv):
        assert_argparse_refuses(capsys, ("lp-search", *argv), "rational")

    def test_strict_eps_tightens(self, capsys):
        _, weak, _ = run_cli(capsys, "lp-search", "--n", "2", "--json")
        _, strict, _ = run_cli(
            capsys, "lp-search", "--n", "2", "--json", "--strict-eps", "1/100"
        )
        assert Fraction(kv(strict)["best"]) <= Fraction(kv(weak)["best"])


class TestCountStructuresCommand:
    def test_default_flags(self, capsys):
        code, out, _ = run_cli(capsys, "count-structures", "--n", "3")
        assert code == 0
        values = kv(out)
        assert values["total"] == "128"
        assert values["pruned"] == "48"

    def test_all_filters(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "count-structures", "--n", "3", "--mirror", "--exclude-extreme",
        )
        assert kv(out)["pruned"] == "22"

    def test_no_pruning(self, capsys):
        _, out, _ = run_cli(
            capsys, "count-structures", "--n", "5", "--no-prune-obs1"
        )
        values = kv(out)
        assert values["total"] == "2147483648"
        assert values["pruned"] == "2147483648"


class TestVerifyPaper:
    def test_every_check_passes(self):
        results = verify.run_checks()
        assert [r.name for r in results] == [name for name, _ in verify.CHECKS]
        assert [(r.name, r.computed) for r in results if not r.passed] == []

    @pytest.mark.parametrize("den", [1, 3])
    def test_thm3_shared_memo_matches_each_orders_outcome_set(self, den):
        rng = random.Random(31460 + den)
        for n in (4, 5):
            for _ in range(10):
                rows = [
                    [Fraction(rng.randint(0, 10), rng.choice((1, den))) for _ in range(n)]
                    for _ in range(2)
                ]
                loads = [Fraction(rng.randint(0, 4), den) for _ in range(2)]
                inst = Instance.from_rows(rows, initial_loads=loads)
                first, rest = constructions.thm3_groups(inst)
                orders = [
                    head + tail
                    for head in itertools.permutations(first)
                    for tail in itertools.permutations(rest)
                ]
                scale, p, start = integer_form(inst)
                shared = verify._least_makespans(p, start, orders)
                assert [Fraction(best, scale) for best in shared] == [
                    min(
                        o.makespan
                        for o in equilibria.spe_outcome_set(
                            inst, equilibria.AdaptiveTree.from_order(order, 2)
                        )
                    )
                    for order in orders
                ]

    def test_thm3_counts_each_instance_once(self, monkeypatch):
        # Every group-first order of the n = 4 and 5 instances breaks its
        # bound, and each of those 100 instances counts once, not per order.
        real = verify._least_makespans

        def over(p, start, orders):
            found = real(p, start, orders)
            return found if len(orders) == 1 else [100 * best + 100 for best in found]

        monkeypatch.setattr(verify, "_least_makespans", over)
        assert verify.check_thm3()[1] == "100 violations in 200 instances"

    def test_subset_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-paper", "--only", "thm1,example1,counts"
        )
        assert code == 0
        values = kv(out)
        assert values["checks"] == "3"
        assert values["failed"] == "0"
        assert out.count("PASS") == 3

    def test_json_lines(self, capsys):
        _, out, _ = run_cli(capsys, "verify-paper", "--only", "thm1", "--json")
        assert "check=thm1 pass=true" in out

    def test_unknown_check_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify-paper", "--only", "nope")
        assert code == 2
        assert err == "error: unknown checks: 'nope'\n"

    def test_negative_control_fails_loudly(self, capsys, monkeypatch):
        real = constructions.gen_thm1

        def perturbed(eps):
            rows = [list(row) for row in real(eps).p]
            rows[0][0] += 1
            return Instance.from_rows(rows)

        monkeypatch.setattr(constructions, "gen_thm1", perturbed)
        code, out, _ = run_cli(capsys, "verify-paper", "--only", "thm1")
        assert code == 1
        values = kv(out)
        assert values["failed"] == "1"
        assert "FAIL" in out
        assert "expected:" in out and "computed:" in out


def _bump(field, by=1):
    """A perturbation: the result with `field` moved by `by`."""
    return lambda r: dataclasses.replace(r, **{field: getattr(r, field) + by})


def _constant(value):
    return lambda r: value


def _always(*args, **kwargs):
    return True


#: case -> (check, module, function, calls to perturb, perturbation, the
#: computed fact it moves).  The check computes that fact with the function;
#: the perturbation maps the function's result on the calls whose arguments
#: pass the filter.
PERTURBATIONS = {
    "thm1": ("thm1", measures, "spoa_fixed", _always, _bump("value"), "spoa=487/100"),
    "thm2-worst": (
        "thm2",
        measures,
        "spoa_fixed",
        _always,
        _bump("witness_makespan"),
        "k=2:worst=5,",
    ),
    "thm2-opt": (
        "thm2", measures, "spoa_fixed", _always, _bump("opt_makespan"), ",opt=2,"
    ),
    "thm2-scripted": (
        "thm2", equilibria, "spe", _always, _bump("makespan"), "opt=1,scripted=5 k=3"
    ),
    "thm3": (
        "thm3",
        verify,
        "_least_makespans",
        _always,
        lambda r: [100 * best + 100 for best in r],
        "200 violations",
    ),
    "thm4": (
        "thm4",
        measures,
        "adaptive_spos",
        _always,
        _bump("witness_makespan"),
        "138 mismatches",
    ),
    "thm5-value": (
        "thm5", measures, "adaptive_spos", _always, _bump("value"), "value=99/40 "
    ),
    "thm5-witness": (
        "thm5",
        measures,
        "adaptive_spos",
        _always,
        _bump("witness_makespan"),
        "witness=69/10",
    ),
    "thm5-trees": (
        "thm5", measures, "adaptive_tree_count", _always, _constant(25), "trees=25"
    ),
    "thm5-bound": (
        "thm5",
        measures,
        "adaptive_spos",
        _always,
        _bump("value", Fraction(-1, 2)),
        "bound_holds=False",
    ),
    "appendix-d-opt": (
        "appendix-d",
        constructions,
        "appendix_d_check",
        _always,
        _bump("opt_makespan"),
        "opt=11",
    ),
    "appendix-d-loads": (
        "appendix-d",
        constructions,
        "appendix_d_check",
        _always,
        lambda r: dataclasses.replace(r, opt_loads=r.opt_loads[:2] + (7,)),
        "loads=10,9,7",
    ),
    "appendix-d-improve": (
        "appendix-d",
        constructions,
        "appendix_d_check",
        _always,
        lambda r: dataclasses.replace(r, probes=()),
        "all_jobs_improve=False",
    ),
    "example1-nash": (
        "example1",
        measures,
        "poa_pos",
        _always,
        lambda r: dataclasses.replace(r, equilibria={(0, 1)}),
        "nash={M1,M2}",
    ),
    "example1-poa_pos(5)": (
        "example1",
        measures,
        "poa_pos",
        lambda inst: inst.p[1][0] == 5,
        _bump("pos"),
        "poa_pos(5)=(5,2)",
    ),
    "example1-poa_pos(100)": (
        "example1",
        measures,
        "poa_pos",
        lambda inst: inst.p[1][0] == 100,
        _bump("poa"),
        "poa_pos(100)=(101,1)",
    ),
    "counts-pruned": (
        "counts",
        lpsearch,
        "count_structures",
        lambda n: n == 4,
        lambda r: (r[0], r[1] + 1),
        "=48,2561,",
    ),
    "counts-total": (
        "counts",
        lpsearch,
        "count_structures",
        _always,
        lambda r: (r[0] + 1, r[1]),
        "total(5)=2147483649",
    ),
    "lp-unit": (
        "lp", verify, "_simplex_unit_suite", _always, _constant(False), "unit=False"
    ),
    "lp-feasible": (
        "lp",
        lpsearch,
        "primal_feasible",
        _always,
        _constant(False),
        "eps0_feasible=False",
    ),
    "lp-objective": (
        "lp",
        lpsearch,
        "build_lp",
        lambda *args: len(args) == 3,
        lambda r: dataclasses.replace(r, objective=tuple(2 * c for c in r.objective)),
        "objective=8",
    ),
    "lp-restricted": (
        "lp",
        lpsearch,
        "search",
        lambda n, **kwargs: "opt_leaves" in kwargs,
        lambda r: dataclasses.replace(r, value=Fraction(3)),
        "restricted>=3",
    ),
    "lp-parity": (
        "lp",
        lpsearch,
        "enumerate_structures",
        lambda n, **kwargs: kwargs.get("prune_obs1") is False,
        _constant(iter(())),
        "parity(2,3)=False roundtrip=True",
    ),
    "lp-roundtrip": (
        "lp", equilibria, "spe_outcome_set", _always, _constant(()), "roundtrip=False"
    ),
    "chain-order": (
        "chain",
        measures,
        "spos",
        _always,
        _bump("witness_makespan", 1000),
        "100 chain violations",
    ),
    "chain-nash": (
        "chain", measures, "poa_pos", _always, _bump("pos"), "100 optimal-Nash misses"
    ),
}


class TestPassRule:
    """A check passes iff its computed facts equal its expected ones, so
    moving any one fact it prints makes it fail."""

    @pytest.mark.parametrize("case", list(PERTURBATIONS))
    def test_a_perturbed_fact_fails_its_check(self, capsys, monkeypatch, case):
        name, module, attr, when, perturb, moved = PERTURBATIONS[case]
        real = getattr(module, attr)

        def perturbed(*args, **kwargs):
            result = real(*args, **kwargs)
            return perturb(result) if when(*args, **kwargs) else result

        monkeypatch.setattr(module, attr, perturbed)
        code, out, _ = run_cli(capsys, "verify-paper", "--json", "--only", name)
        assert code == 1
        status, expected, computed = out.splitlines()[:3]
        assert status.startswith(f"check={name} pass=false ")
        assert moved in computed and moved not in expected
        assert kv(out)["failed"] == "1"


class TestConsoleScriptPipe:
    """The real pipe: `cli.main` in separate OS processes joined by `sh`.

    `python -m seqsched` runs from a plain checkout; the installed `seqsched`
    console script is checked too wherever it is on PATH.
    """

    def test_gen_pipes_into_opt(self):
        assert_pipe_gives_opt_1(MODULE_COMMAND, module_env())

    def test_exit_code_2_from_shell(self):
        assert_missing_file_exits_2(MODULE_COMMAND, module_env())

    @pytest.mark.skipif(
        shutil.which("seqsched") is None,
        reason="seqsched console script not installed",
    )
    def test_installed_console_script_pipe(self):
        assert_pipe_gives_opt_1(["seqsched"])
        assert_missing_file_exits_2(["seqsched"])

    def test_unwritable_output_exits_2_from_shell(self, tmp_path):
        argv = ["gen", "thm1", "--eps", "1/100", "-o", str(tmp_path)]
        proc = run_shell(shlex.join([*MODULE_COMMAND, *argv]), module_env())
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: cannot write {str(tmp_path)!r}: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_closed_stdout_exits_141_quietly(self, tmp_path):
        # 4,096 outcome lines, far more than a pipe buffer holds, so the
        # child is still writing when the reader closes its end.
        path = tmp_path / "zero.txt"
        path.write_text("2 12\n" + "0 " * 12 + "\n" + "0 " * 12 + "\n")
        proc = subprocess.Popen(
            [*MODULE_COMMAND, "spe-set", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            env=module_env(),
        )
        try:
            assert proc.stdout.readline() == b"count=4096\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.stderr.close()

    def test_console_script_calls_cli_main(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts["seqsched"] == "seqsched.cli:main"

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "thm1", "--eps", "1/100"),
            ("count-structures", "--n", "3"),
            ("opt", "/definitely/not/a/file"),
        ],
        ids=["gen", "count-structures", "missing-file"],
    )
    def test_module_entry_matches_in_process_main(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        proc = run_shell(shlex.join([*MODULE_COMMAND, *argv]), module_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
