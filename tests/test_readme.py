"""The README's command line examples and its caps table, checked against
the command line itself, and its library example, run as written."""

import ast
import json
import re
import shlex
from pathlib import Path

import pytest

from wordmix import Alphabet, ParamList, is_member, word_from_str
from wordmix.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(heading: str) -> str:
    """The text under a markdown heading, up to the next heading."""
    start = README.index(f"{heading}\n")
    rest = README[start + len(heading) + 1:]
    end = re.search(r"^#+ ", rest, re.MULTILINE)
    return rest if end is None else rest[:end.start()]


def _examples(heading: str) -> list[tuple[str, str]]:
    """(command, expected output) for every `$ wordmix` line in the
    section's text blocks; an example runs up to the next one."""
    out = []
    for block in re.findall(r"```text\n(.*?)```", _section(heading),
                            re.DOTALL):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.MULTILINE):
            if chunk.startswith("$ wordmix "):
                command, _, expected = chunk.partition("\n")
                out.append((command, expected.rstrip("\n")))
    return out


COMMAND_LINE = _examples("## Command line")
JSON_OUTPUT = _examples("### JSON output")


def _run(capsys, command: str) -> str:
    run(shlex.split(command)[2:])
    return capsys.readouterr().out.rstrip("\n")


def test_every_section_has_examples():
    assert len(COMMAND_LINE) == 9
    assert len(JSON_OUTPUT) == 1


@pytest.mark.parametrize("command, expected", COMMAND_LINE,
                         ids=[c for c, _ in COMMAND_LINE])
def test_command_line_example(capsys, command, expected):
    assert _run(capsys, command) == expected


@pytest.mark.parametrize("command, expected", JSON_OUTPUT,
                         ids=[c for c, _ in JSON_OUTPUT])
def test_json_example(capsys, command, expected):
    got = json.loads(_run(capsys, command))
    want = json.loads(expected)
    got["stats"].pop("elapsed_ms")
    want["stats"].pop("elapsed_ms")
    assert got == want


# the options of finite, equiv and witness that are not caps
NOT_CAPS = {"--help", "--alphabet", "--json", "--dump-systems", "--n"}


@pytest.mark.parametrize("command", ["finite", "equiv", "witness"])
def test_caps_table_lists_the_decision_cap_flags(capsys, command):
    table = re.findall(r"^\| `(--[a-z-]+)` \|",
                       _section("### Caps and budgets"), re.MULTILINE)
    assert run([command, "--help"]) == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*",
                           capsys.readouterr().out))
    assert sorted(table) == sorted(flags - NOT_CAPS)


def test_library_example(capsys):
    """The Library section's Python example runs, its own assert holds,
    and the word it prints is a member of M(ab,ba,a)."""
    (code,) = re.findall(r"```python\n(.*?)```", _section("## Library"),
                         re.DOTALL)
    exec(code, {})
    word = ast.literal_eval(capsys.readouterr().out.strip())
    p = ParamList(Alphabet(("a", "b")),
                  tuple(word_from_str(s) for s in ("ab", "ba", "a")))
    assert is_member(word, p)
