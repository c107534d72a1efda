"""The README's examples run as written.

Each `console` block is a list of `$ homomesy ...` commands, each followed
by its expected stdout, where a `...` line stands for any number of
omitted lines. The commands run in process through `cli.main`, in a
directory holding `cycle4.sg` from the README's graph block. The library
quick start runs as is, and the README's code names every export of
`homomesy` and imports nothing else from it.
"""
import ast
import re
import shlex
from pathlib import Path

import pytest

import homomesy
from homomesy.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)


def blocks(language):
    return [body for lang, body in BLOCKS if lang == language]


def console_examples():
    """(command, expected stdout lines) for every command of every console block."""
    examples = []
    for body in blocks("console"):
        for chunk in re.split(r"^\$ ", body, flags=re.M)[1:]:
            command, *expected = chunk.rstrip("\n").split("\n")
            examples.append((command, expected))
    return examples


def matches(expected, actual) -> bool:
    """Whether actual equals expected, with each "..." line standing for any
    run of lines, possibly empty."""
    segments = [[]]
    for line in expected:
        if line == "...":
            segments.append([])
        else:
            segments[-1].append(line)
    if len(segments) == 1:
        return actual == expected
    head, *middle, tail = segments
    if actual[:len(head)] != head:
        return False
    pos = len(head)
    for segment in middle:
        found = next((i for i in range(pos, len(actual) - len(segment) + 1)
                      if actual[i:i + len(segment)] == segment), None)
        if found is None:
            return False
        pos = found + len(segment)
    return len(actual) - len(tail) >= pos and actual[len(actual) - len(tail):] == tail


def test_the_readme_has_examples():
    assert len(console_examples()) >= 3
    assert len(blocks("python")) == 1


@pytest.mark.parametrize("command,expected", console_examples(),
                         ids=[c for c, _ in console_examples()])
def test_console_example(capsys, monkeypatch, tmp_path, command, expected):
    (graph,) = [body for lang, body in BLOCKS if lang == "" and "\nsink " in body]
    (tmp_path / "cycle4.sg").write_text(graph, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    program, *argv = shlex.split(command)
    assert program == "homomesy"
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert matches(expected, captured.out.splitlines()), captured.out


def test_library_quick_start():
    (source,) = blocks("python")
    exec(compile(source, "README.md", "exec"), {})


def test_the_readme_and_the_exports_agree():
    code = "\n".join(re.findall(r"`([^`\n]+)`", README) + blocks("python"))
    assert [name for name in homomesy.__all__ if not re.search(rf"\b{name}\b", code)] == []
    imported = [alias.name for body in blocks("python") for node in ast.walk(ast.parse(body))
                if isinstance(node, ast.ImportFrom) and node.module == "homomesy"
                for alias in node.names]
    assert imported and set(imported) <= set(homomesy.__all__)


@pytest.mark.parametrize("expected,actual,ok", [
    (["a", "b"], ["a", "b"], True),
    (["a", "b"], ["a", "b "], False),
    (["a", "...", "d"], ["a", "b", "c", "d"], True),
    (["a", "...", "d"], ["a", "d"], True),
    (["...", "c", "...", "e"], ["a", "c", "d", "e"], True),
    (["...", "c", "...", "e"], ["a", "d", "e"], False),
    (["a", "..."], ["b"], False),
])
def test_the_ellipsis_matcher(expected, actual, ok):
    assert matches(expected, actual) is ok
