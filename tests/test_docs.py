"""The documented commands and the demos run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ckhopf.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _readme_commands() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("ckhopf ")]


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert len(commands) >= 10
    # in order and in one folder: a later line may read a file an earlier one wrote
    monkeypatch.chdir(tmp_path)
    for line in commands:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
    capsys.readouterr()


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_0(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
