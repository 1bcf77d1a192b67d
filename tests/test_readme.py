"""The README's examples run as written: each Python block in a fresh
interpreter with warnings as errors, and each ``hetlab`` line of the CLI
block in one temporary directory, in order."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def _blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


PYTHON_BLOCKS = _blocks("python")
CLI_LINES = [line for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("hetlab ")]


def test_examples_are_found():
    assert len(PYTHON_BLOCKS) == 2 and len(CLI_LINES) == 7


@pytest.mark.parametrize("code", PYTHON_BLOCKS, ids=["library", "stacks"])
def test_python_block_runs_cleanly(code):
    res = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                         text=True, env=ENV, timeout=120)
    assert res.returncode == 0 and res.stderr == "", res.stderr


def test_cli_lines_run(tmp_path):
    # the one input file the block reads without making it first
    (tmp_path / "assignments.csv").write_text(
        "id,p_1,p_2,p_3\na,0.5,0.25,0.25\nb,0.1,0.1,0.8\nc,1,0,0\n")
    for line in CLI_LINES:
        res = subprocess.run([sys.executable, "-m", "hetlab.cli", *shlex.split(line)[1:]],
                             cwd=tmp_path, capture_output=True, text=True, env=ENV,
                             timeout=300)
        assert res.returncode == 0 and res.stderr == "", (line, res.stderr)
