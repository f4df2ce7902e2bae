"""The README's command-line examples and library block, run as written."""

import ast
import json
import re
import shlex
from pathlib import Path

import pytest

from varsep.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def cli_examples():
    """(argv, exit code, output) for each `$ varsep` line of a shell block.

    A trailing backslash continues the command on the next line, as in the
    shell; a trailing `# exits N` comment gives the exit code, else it is 0;
    the output runs to the next blank line. Each example's id is its command
    name; a later example of the same command adds its ordinal, `numeric-2`.
    """
    examples = []
    seen: dict[str, int] = {}
    for block in fenced_blocks("sh"):
        for example in re.split(r"^(?=\$ )", block, flags=re.M):
            if not example.startswith("$ varsep "):
                continue
            lines = example.split("\n")
            command = lines.pop(0)[2:]
            while command.endswith("\\"):
                command = command[:-1] + lines.pop(0)
            output = "\n".join(lines).strip("\n").split("\n\n")[0]
            exits = re.search(r"#\s*exits (\d+)\s*$", command)
            argv = shlex.split(command, comments=True)[1:]
            seen[argv[0]] = seen.get(argv[0], 0) + 1
            name = argv[0] if seen[argv[0]] == 1 else f"{argv[0]}-{seen[argv[0]]}"
            examples.append(pytest.param(argv, int(exits.group(1)) if exits else 0, output, id=name))
    return examples


@pytest.mark.parametrize("argv, code, output", cli_examples())
def test_readme_command_line_example(argv, code, output, capsys):
    assert run(argv) == code
    captured = capsys.readouterr()
    if output.startswith("{"):
        assert json.loads(captured.out) == json.loads(output)
    else:
        assert captured.out.rstrip("\n") == output
    assert captured.err == ""


def test_readme_examples_are_found():
    assert {"separate", "check", "numeric"} <= {example.values[0][0] for example in cli_examples()}


def test_readme_library_block_runs_and_its_stated_values_hold():
    # an expression statement followed by `# <literal>` states its value
    (block,) = fenced_blocks("python")
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(block).body:
        line = lines[statement.end_lineno - 1]
        if isinstance(statement, ast.Expr) and "#" in line:
            claimed = ast.literal_eval(line.split("#", 1)[1].strip())
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
            assert value == claimed, line
            checked += 1
        else:
            exec(compile(ast.Module([statement], type_ignores=[]), "README.md", "exec"), namespace)
    assert checked >= 2
