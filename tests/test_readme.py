"""The examples of README.md, run as written.

Each ``shufflealg ...`` line of the "Command line" block goes through
``cli.main``, and its stdout must equal the ``# `` lines under it; a ``...``
line stands for any run of lines.  Each expression of the "Library example"
block must print as the text before the first colon of its ``# `` line.
"""

import re
import shlex
from pathlib import Path

from shufflealg.cli import main
from shufflealg.rigidity import save_presentation, shuffle_presentation

README = (Path(__file__).parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> list[str]:
    """The lines of the first ``lang`` code block after ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0].splitlines()


def _examples(lines):
    """(code line, the ``# `` lines under it) pairs, blank lines skipped."""
    out = []
    for line in lines:
        if line.startswith("# "):
            out[-1][1].append(line[2:])
        elif line.strip():
            out.append((line, []))
    return out


def _shown(expected: list[str], got: list[str]) -> bool:
    pattern = "\n".join(".*?" if line == "..." else re.escape(line) for line in expected)
    return re.fullmatch(pattern, "\n".join(got), re.S) is not None


def test_command_line_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # the decompose example reads a word presentation that holds a1.b1.a2
    save_presentation(shuffle_presentation({1: 2, 2: 2}, 4), "presentation.json")
    examples = _examples(_block("## Command line", "sh"))
    assert len(examples) == 8
    for command, expected in examples:
        argv = shlex.split(command)
        assert argv[0] == "shufflealg"
        code = main(argv[1:])
        got = capsys.readouterr().out.splitlines()
        assert code == 0, command
        assert _shown(expected, got), (command, got)


def test_library_examples():
    examples = _examples(_block("## Library example", "python"))
    namespace = {}
    statements = [code for code, shown in examples if not shown]
    assert all(s.startswith("from ") for s in statements)
    exec("\n".join(statements), namespace)
    results = [(code, shown[0]) for code, shown in examples if shown]
    assert len(results) == 4
    for code, shown in results:
        assert str(eval(code, namespace)) == shown.split(":", 1)[0], code
