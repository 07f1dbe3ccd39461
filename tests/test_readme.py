"""The README's quickstart runs as written: each `python -m modgrow.cli` line
of its first block goes through `cli.main`, with `run/` moved to a temporary
directory."""

from __future__ import annotations

import json
import shlex
from pathlib import Path

from modgrow import cli

README = Path(__file__).resolve().parents[1] / "README.md"
PREFIX = "python -m modgrow.cli "


def quickstart_commands(text: str) -> list[list[str]]:
    """The argument lists of the CLI lines in the README's first code block,
    continued lines joined."""
    block = text.split("```", 2)[1].replace("\\\n", " ")
    return [shlex.split(line[len(PREFIX):]) for line in block.splitlines() if line.startswith(PREFIX)]


def test_the_readme_quickstart_runs(tmp_path, capsys):
    commands = quickstart_commands(README.read_text(encoding="utf-8"))
    assert [argv[0] for argv in commands] == ["cache", "learn", "eval"]
    for argv in commands:
        argv = [str(tmp_path / arg[len("run/"):]) if arg.startswith("run/") else arg for arg in argv]
        capsys.readouterr()
        assert cli.main(argv) == 0, argv
    assert "accuracy=1.0000" in capsys.readouterr().out  # the eval's
    lib = tmp_path / "lib"
    learned = json.loads((lib / "manifest.json").read_text(encoding="utf-8"))["modules"]
    assert learned
    assert {p.name for p in lib.iterdir()} == {
        "manifest.json", *(f"{name}.py" for name in learned), *(f"{name}.json" for name in learned)
    }
