"""Package metadata."""

import importlib
import importlib.util
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


def test_tracer_targets_exist():
    # perfbench/tracing.py patches hetlab from outside by name; a rename in
    # hetlab must not silently drop a span from the traced benchmark.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_hetlab_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = list(tracing.SPANS) + list(tracing.COUNTS)
    assert len(targets) == 24
    for mod_name, attr in targets:
        module = importlib.import_module(f"hetlab.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(module, cls_name)).get(meth)), attr
        else:
            assert callable(getattr(module, attr, None)), (mod_name, attr)
