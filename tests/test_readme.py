"""README's examples, run as written: each command-line example whose output
the README shows goes through `cli.main`, and the Library snippet runs as
Python, so the README cannot drift from what the program prints."""

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from hpindex.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(section: str, lang: str) -> str:
    """The first ```lang block after the heading `section`."""
    start = README.index(f"\n## {section}\n")
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


def _examples() -> list[tuple[str, str, str]]:
    """(command line, stdin text, expected stdout) for each `$ ...` example
    of the Command line section that shows its output; an example whose
    output is `...` or not shown is left out."""
    found = []
    for chunk in re.split(r"\n(?=\$ )", _block("Command line", "sh")):
        command, *output = chunk.strip("\n").split("\n")
        if not output or output == ["..."]:
            continue
        stdin = ""
        piped = re.fullmatch(r"\$ printf '([^']*)' \| (hpindex .*)", command)
        if piped:
            stdin = piped.group(1).replace("\\n", "\n")
            command = "$ " + piped.group(2)
        found.append((command[2:], stdin, "\n".join(output) + "\n"))
    return found


EXAMPLES = _examples()


def test_the_examples_are_found():
    assert [cmd.split("#")[0].split()[1] for cmd, _, _ in EXAMPLES] == [
        "hp", "iterate", "branches", "enum"]


@pytest.mark.parametrize("command, stdin, expected", EXAMPLES,
                         ids=[cmd.split("#")[0].strip() for cmd, _, _ in EXAMPLES])
def test_command_line_example(command, stdin, expected, monkeypatch):
    argv = shlex.split(command, comments=True)
    assert argv[0] == "hpindex"
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv[1:]) == 0
    assert out.getvalue() == expected


def test_library_snippet():
    code = _block("Library", "python")
    # each print line states its value in its comment: `print(x)  # 2, ...`
    expected = [re.search(r"#\s*([^,\s]+)", line).group(1)
                for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert expected and out.getvalue().split() == expected
