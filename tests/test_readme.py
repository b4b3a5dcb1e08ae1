"""Every `pm` line of the README's "Command line" block runs, so the README cannot drift from the CLI."""

import contextlib
import io
import shlex
from pathlib import Path

from partialmetric import points
from partialmetric.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_lines() -> list[str]:
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```")[1::2]
    return [line for block in blocks for line in block.splitlines() if line.startswith("pm ")]


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def test_readme_command_lines_run(tmp_path, monkeypatch):
    lines = _command_lines()
    assert any("table.json" in line for line in lines)
    monkeypatch.chdir(tmp_path)
    code, table = _run(["catalog", "export", "ex3.2"])
    assert code == 0
    (tmp_path / "table.json").write_text(table)
    for line in lines:
        code, _ = _run(shlex.split(line)[1:])
        assert code in (0, 1), line


def test_text_mode_builds_no_json(tmp_path, monkeypatch):
    # Without --json a report is only its text lines; `catalog export` and
    # `random generate` print JSON in either mode.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.json").write_text(_run(["catalog", "export", "ex3.2"])[1])
    lines = [shlex.split(line)[1:] for line in _command_lines() if "--json" not in line
             and not line.startswith(("pm catalog export", "pm random generate"))]
    before = [_run(argv)[0] for argv in lines]

    def refuse(value):
        raise AssertionError("text mode built a JSON document")

    monkeypatch.setattr(points, "to_json", refuse)
    assert [_run(argv)[0] for argv in lines] == before
