"""Golden CLI transcripts: full stdout, stderr and exit code per command line.

Every case runs `cli.main` in-process in a directory holding one generated
instance file per `gen` family.  Its exit code, stdout, stderr and the files
it wrote are rendered as one text block and compared with the block stored
under the same command line in `cli_golden.txt`.  Timings are masked.  Help
and usage-error text is argparse's, printed at a fixed 80-column width.

After a deliberate output change, rewrite the transcript file with
`PYTHONPATH=src python tests/test_cli_golden.py` and review its diff.
"""

import contextlib
import io
import os
import re
import shlex
import sys
from pathlib import Path

import pytest

from seqsched import cli

GOLDEN = Path(__file__).with_name("cli_golden.txt")

FAMILIES = {
    "thm1": "thm1 --eps 1/100",
    "thm2": "thm2 --k 2",
    "thm5": "thm5 --eps 1/10",
    "appendix-d": "appendix-d",
    "example1": "example1 --l 5",
}
INSTANCE_COMMANDS = (
    "spe", "spe-set", "opt", "constrained-opt", "nash", "spoa", "spos",
    "adaptive-spos", "order-thm3", "tree-thm4", "check-appendix-d",
)
# Extra files in the working directory besides the family instances.
FILES = {
    "bad.txt": "2 2\n1 1\n",
    "tie.txt": "2 2\n1 1\n1 1\n",
    "rule.txt": "player 1 when * prefer 2\n",
    "far-rule.txt": "# header\nplayer 9 when * prefer M7\n",
    "repeat-rule.txt": "player 2 when 1=M1,1=M2 prefer M2\n",
    "plain-rule.txt": "player 2 when 1=1 prefer 2\n",
    "zero-rule.txt": "# header\nplayer 2 when 0=M1 prefer 2\n",
    "zero.txt": "2 2\n0 1\n1 0\n",
    "one-machine.txt": "1 2\n1 1\n",
    "plus-header.txt": "+2 1\n1\n2\n",
    "underscore-header.txt": "2 0_1\n1\n2\n",
    "underscore-token.txt": "1 1\n1_0\n",
    "exponent-token.txt": "# header\n1 2\n1 1\ninitial_loads 1e-3\n",
    "nbsp-header.txt": "2\xa01\n1\n\u30002\n",
    "ideographic-row.txt": "2 1\n1\n\u30002\n",
    "vtab-row.txt": "1 2\n1\x0b2\n",
    "line-separator-row.txt": "1 2\n1\u20282\n",
    "crlf.txt": "# header\r\n2 2\r\n1\t1/2\r\n3 0\r\n",
    "ones-2x27.txt": "2 27\n" + ("1 " * 27 + "\n") * 2,
    "rows-5x6.txt": "5 6\n" + "1 2 3 4 5 6\n" * 5,
}
# What stdin holds for the commands that read it.
STDIN = "2 3\n1 2 3/2\n2 1 5/2\ninitial_loads 0 1/3\n"

CASES = (
    [f"{command} {family}.txt" for command in INSTANCE_COMMANDS for family in FAMILIES]
    + [
        f"{command} {family}.txt --json"
        for command in INSTANCE_COMMANDS
        for family in FAMILIES
    ]
    + [
        "opt",
        "opt -",
        "spe - --json",
        "spe thm1.txt --order 5,4,3,2,1",
        "spe thm1.txt --tie highest",
        "spe thm2.txt --tie thm2:2",
        "spe tie.txt --tie scripted:rule.txt",
        "spe-set thm1.txt --order 2,1,3,4,5",
        "spoa thm1.txt --order 5,4,3,2,1 --json",
        "adaptive-spos thm5.txt --method enumerate",
        "adaptive-spos example1.txt --method enumerate --json",
        "tree-thm4 thm1.txt --worst-ties",
        "tree-thm4 thm2.txt --worst-ties --json",
        "constrained-opt thm1.txt --fix 1=M1",
        "constrained-opt thm1.txt --fix 1=M2,3=M1 --json",
        "constrained-opt thm5.txt --fix 2=3",
        "check-appendix-d",
        "check-appendix-d --json",
    ]
    + [f"{command} zero.txt" for command in ("nash", "spoa", "spos", "adaptive-spos")]
    + [f"{command} one-machine.txt --json" for command in ("nash", "spoa", "spe-set")]
    + ["adaptive-spos one-machine.txt", "adaptive-spos one-machine.txt --method enumerate"]
    + [f"gen {args}" for args in FAMILIES.values()]
    + [
        "gen thm2 --k 3",
        "gen thm1 --eps 0",
        "gen thm1 --eps 1/100 -o out.txt",
        "gen appendix-d --output out.txt",
    ]
    + [
        "lp-search --n 2",
        "lp-search --n 3",
        "lp-search --n 3 --json",
        "lp-search --n 3 --stats",
        "lp-search --n 3 --limit 10",
        "lp-search --n 3 --start 5 --limit 10 --stats",
        "lp-search --n 3 --start 40",
        "lp-search --n 3 --shard 0/2",
        "lp-search --n 3 --shard 1/2 --stats",
        "lp-search --n 3 --strict-eps 1/100",
        "lp-search --n 3 --strict-eps 1/3 --stats",
        "lp-search --n 3 --out-dir wit",
        "lp-search --n 3 --no-mirror --limit 8",
        "lp-search --n 2 --no-prune-obs1 --no-mirror --no-exclude-extreme --stats",
        "lp-search --n 3 --limit 0",
    ]
    + [
        "count-structures --n 3",
        "count-structures --n 4 --json",
        "count-structures --n 5",
        "count-structures --n 3 --no-prune-obs1",
        "count-structures --n 4 --mirror",
        "count-structures --n 4 --exclude-extreme",
        "count-structures --n 4 --mirror --exclude-extreme",
        "count-structures --n 2 --no-prune-obs1 --mirror --exclude-extreme",
        "count-structures --n 6 --exclude-extreme",
        "count-structures --n 7 --mirror --exclude-extreme",
    ]
    + [
        "verify-paper --only thm1,counts,thm5",
        "verify-paper --only thm1,counts,thm5 --json",
    ]
    + [
        "",
        "no-such-command",
        "opt missing.txt",
        "opt bad.txt",
        "opt thm1.txt extra.txt",
        "opt plus-header.txt",
        "opt underscore-header.txt",
        "spe thm1.txt --order 1,2",
        "spe thm1.txt --order x",
        "spe thm1.txt --order +1,2,3,4,5",
        "spe-set thm1.txt --order ''",
        "spe thm1.txt --tie bogus",
        "spe thm1.txt --tie thm2:x",
        "spe thm1.txt --tie thm2:+2",
        "spe thm1.txt --tie recommended",
        "spe thm1.txt --tie scripted:missing.txt",
        "spe tie.txt --tie scripted:far-rule.txt",
        "spe tie.txt --tie scripted:repeat-rule.txt",
        "spe tie.txt --tie scripted:plain-rule.txt",
        "spe tie.txt --tie scripted:zero-rule.txt",
        "spe-set thm1.txt --tie lowest",
        "constrained-opt thm1.txt --fix 9=M1",
        "constrained-opt thm1.txt --fix 1=Mx",
        "constrained-opt thm1.txt --fix 1=M1,1=M2",
        "constrained-opt thm1.txt --fix 1=MM2",
        "constrained-opt thm1.txt --fix 1=M+2",
        "constrained-opt thm1.txt --fix +1=M2",
        "constrained-opt thm1.txt --fix 2=1",
        "constrained-opt thm1.txt --fix 1=M1,",
        "constrained-opt thm1.txt --fix 0=M1",
        "opt underscore-token.txt",
        "opt exponent-token.txt",
        "opt nbsp-header.txt",
        "opt ideographic-row.txt",
        "opt vtab-row.txt",
        "opt line-separator-row.txt",
        "opt crlf.txt",
        "tree-thm4 ones-2x27.txt",
        "adaptive-spos rows-5x6.txt",
        "adaptive-spos thm1.txt --method bogus",
        "gen",
        "gen thm1",
        "gen thm1 --eps x",
        "gen thm1 --eps 1_0",
        "gen thm1 --eps +1",
        "gen thm5 --eps 1e-3",
        "gen thm5 --eps .5",
        "gen example1 --l '3 / 2'",
        "gen example1 --l 3/2",
        "gen example1 --l 1/0",
        "gen thm1 --eps 1/100 -o ''",
        "gen thm1 --eps 1",
        "gen thm2 --k 1",
        "gen thm2 --k x",
        "gen thm2 --k +2",
        "gen thm5 --eps 1",
        "gen example1 --l 1/2",
        "lp-search",
        "lp-search --n x",
        "lp-search --n +2",
        "lp-search --n ' 3'",
        "count-structures --n +3",
        "lp-search --n 3 --shard 2/2",
        "lp-search --n 3 --shard x",
        "lp-search --n 3 --strict-eps x",
        "lp-search --n 3 --strict-eps -1",
        "lp-search --n 3 --strict-eps 1/0",
        "lp-search --n 3 --out-dir ''",
        "lp-search --n 3 --start -1",
        "lp-search --n 3 --start 0_0",
        "count-structures",
        "verify-paper --only nope",
        "verify-paper --only ''",
        "check-appendix-d ''",
    ]
    + ["--help"]
    + [f"{command} --help" for command in INSTANCE_COMMANDS]
    + [f"gen {family} --help" for family in FAMILIES]
    + [f"{command} --help" for command in ("gen", "lp-search", "count-structures", "verify-paper")]
)

_ELAPSED = (
    (re.compile(r"elapsed=\d+\.\d+"), "elapsed=*"),
    (re.compile(r"^(PASS|FAIL) (\S+ *) +\d+\.\d+s$", re.M), r"\1 \2 *s"),
)


def run_case(line: str, workdir: Path) -> str:
    """The transcript block of one command line run in `workdir`."""
    before = {p for p in workdir.rglob("*") if p.is_file()}
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(STDIN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(shlex.split(line))
            except SystemExit as exc:
                code = exc.code or 0
    finally:
        sys.stdin = saved_stdin
    text = f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    for path in sorted(p for p in workdir.rglob("*") if p.is_file() and p not in before):
        text += f"--- file {path.relative_to(workdir).as_posix()}\n{path.read_text()}"
        path.unlink()
    if line.startswith("verify-paper"):
        for pattern, repl in _ELAPSED:
            text = pattern.sub(repl, text)
    return text


def make_workdir(workdir: Path) -> None:
    for family, args in FAMILIES.items():
        assert cli.main(["gen", *args.split(), "-o", str(workdir / f"{family}.txt")]) == 0
    for name, text in FILES.items():
        (workdir / name).write_text(text, encoding="utf-8")


def parse_golden(text: str) -> dict[str, str]:
    blocks: dict[str, str] = {}
    for chunk in text.split("\n=== ")[1:]:
        line, _, block = chunk.partition("\n")
        blocks[line] = block
    return blocks


def render_golden(blocks: dict[str, str]) -> str:
    return "".join(f"\n=== {line}\n{block}" for line, block in blocks.items())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    make_workdir(path)
    return path


@pytest.fixture(scope="module")
def golden():
    return parse_golden(GOLDEN.read_text())


def test_cases_are_unique():
    assert len(set(CASES)) == len(CASES)


@pytest.mark.parametrize("line", CASES)
def test_transcript(line, workdir, golden, monkeypatch):
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("COLUMNS", "80")
    assert run_case(line, workdir) == golden[line]


if __name__ == "__main__":
    import tempfile

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        make_workdir(root)
        os.chdir(root)
        blocks = {line: run_case(line, root) for line in CASES}
    GOLDEN.write_text(render_golden(blocks))
    print(f"wrote {len(blocks)} cases to {GOLDEN}")
