"""The README's Python quick start and CLI examples run as written against the package."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from merminlab import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python block"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue().splitlines()[0] == "4.0"


def test_cli_block_runs(tmp_path, monkeypatch):
    # every "$ merminlab" line exits 0 next to the README's own planar settings.json,
    # and a line followed by output prints exactly that output
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"```sh\n(\$ merminlab .*?)```", text, re.S)
    (planar,) = (b for b in re.findall(r"```json\n(.*?)```", text, re.S) if '"planar"' in b)
    (tmp_path / "settings.json").write_text(planar, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    commands = re.findall(r"^\$ merminlab (.*)\n((?:[^$].*\n)*)", block, re.M)
    assert len(commands) == 6
    for line, expected in commands:
        argv = shlex.split(line, comments=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0, line
        if expected:
            assert out.getvalue() == expected, line
