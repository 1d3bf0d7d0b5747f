"""The README's examples run as written: the library sketch prints what its
comments say, and every command line example exits 0."""

import ast
import contextlib
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from pstiefel.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text()


def _blocks(language, after):
    """The fenced blocks of a language, from the heading `after` on."""
    text = README[README.index(after):]
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.S | re.M)


def _comments(source):
    """{line number: text} of every comment in source."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string.lstrip("#").strip()
            for tok in tokens if tok.type == tokenize.COMMENT}


def test_library_sketch_prints_what_its_comments_say():
    source = _blocks("python", "## Library sketch")[0]
    comments = _comments(source)
    assert comments
    namespace = {}
    for stmt in ast.parse(source).body:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                 namespace)
        said = [comments.pop(line)
                for line in range(stmt.lineno, stmt.end_lineno + 1)
                if line in comments]
        if said:
            assert out.getvalue().splitlines() == said, ast.unparse(stmt)
    # every comment sits on a statement that printed it
    assert not comments


COMMANDS = [line for block in _blocks("sh", "## Command line")
            for line in block.splitlines() if line.startswith("pstiefel ")]


def test_the_command_line_examples_are_found():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_example_exits_0(line, capsys):
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out
