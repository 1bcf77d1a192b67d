"""Package metadata."""

from pathlib import Path

import pytest

import hetlab

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_has_one_source():
    config = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "hetlab.__version__"}
    assert hetlab.__version__ == "0.1.0"
