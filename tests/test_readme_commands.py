"""Every command line in README.md names a script or msflow mode that
exists, and only options that its --help lists; every BENCH_*.json it
names is a committed file.

A command is `[python[3]] scripts/<name>.py ...`,
`[python[3]] perfbench/run.py ...` or `msflow <mode> ...` (modes may be
listed as `mesh|fine|...`) in a fenced code block, one line at a time, or
in an inline code span, whose line breaks are read as spaces.  Its options
are the `--name` words after it in that line or span.
"""

import contextlib
import functools
import io
import re
import subprocess
import sys
from pathlib import Path

import pytest

from msflow.cli import main

ROOT = Path(__file__).resolve().parents[1]
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
COMMAND = re.compile(r"(?:python3? )?(?:(scripts/\w+\.py|perfbench/run\.py)|msflow ((?:[a-z]+\|)*[a-z]+))(.*)")
OPTION = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def readme_commands(text):
    """{target: options} of the commands in a README text; a target is a
    script path or `msflow <mode>`, and options is the set of every option
    that a command of that target names."""
    code = [line for block in FENCE.findall(text) for line in block.splitlines()]
    code += [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", FENCE.sub("", text))]
    commands = {}
    for line in code:
        for script, modes, rest in COMMAND.findall(line):
            options = set(OPTION.findall(rest))
            for target in [script] if script else [f"msflow {mode}" for mode in modes.split("|")]:
                commands.setdefault(target, set()).update(options)
    return commands


README = (ROOT / "README.md").read_text()
COMMANDS = readme_commands(README)


@functools.cache
def help_text(target):
    """The --help output of a script (run in its own process; argparse
    exits before perfbench/run.py imports a workload) or of an msflow
    mode."""
    if target.endswith(".py"):
        run = subprocess.run(
            [sys.executable, str(ROOT / target), "--help"], capture_output=True, text=True, check=True
        )
        return run.stdout
    mode, out = target.split()[1], io.StringIO()
    with pytest.raises(SystemExit) as exit_info, contextlib.redirect_stdout(out):
        main([mode, "--help"])
    assert exit_info.value.code == 0, f"msflow has no mode {mode!r}"
    return out.getvalue()


def test_the_readme_names_scripts_and_modes():
    assert any(t.startswith("scripts/") for t in COMMANDS)
    assert any(t.startswith("msflow ") for t in COMMANDS)


@pytest.mark.parametrize("target", sorted(COMMANDS))
def test_a_readme_command_names_what_exists(target):
    if target.endswith(".py"):
        assert (ROOT / target).is_file(), f"README names {target}, which does not exist"
    listed = set(OPTION.findall(help_text(target)))
    assert COMMANDS[target] <= listed, f"{target} --help lists no {sorted(COMMANDS[target] - listed)}"


def test_commands_are_read_across_line_breaks_and_mode_lists():
    text = (
        "Run `python\nscripts/solve_paths.py --level fine`, then\n\n"
        "```sh\nmsflow ms|sweep --config c.cfg [--out d]\n```\n"
        "and `scripts/operator_digest.py [--src other/src]`; `--rtol` alone names no command.\n"
        "Time it with `python3 perfbench/run.py --workload desk-ms --seed 1\n--seconds 10 --trace 0`.\n"
    )
    assert readme_commands(text) == {
        "scripts/solve_paths.py": {"--level"},
        "msflow ms": {"--config", "--out"},
        "msflow sweep": {"--config", "--out"},
        "scripts/operator_digest.py": {"--src"},
        "perfbench/run.py": {"--workload", "--seed", "--seconds", "--trace"},
    }


def test_every_bench_record_the_readme_names_is_committed():
    named = set(re.findall(r"BENCH_\w+\.json", README))
    assert named, "the README names no BENCH_*.json"
    missing = sorted(name for name in named if not (ROOT / name).is_file())
    assert not missing, f"README names {missing}, which are not at the repository root"
