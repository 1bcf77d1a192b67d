"""Package metadata."""

import ast
import gc
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import hetlab
from hetlab import cli

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code):
    """Run ``python -c code`` in a fresh interpreter that imports hetlab from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          timeout=120)


def test_version_has_one_source():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    config = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "hetlab.__version__"}
    assert hetlab.__version__ == "0.1.0"


def test_both_launchers_end_in_run():
    # the installed `hetlab` script and `python -m hetlab.cli`; pyproject.toml
    # is read as text because tomllib is not in Python 3.10
    scripts = PYPROJECT.read_text().split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'hetlab = "hetlab.cli:run"'
    assert (SRC / "hetlab" / "cli.py").read_text().endswith(
        '\nif __name__ == "__main__":\n    run()\n')


def test_in_process_call_does_not_freeze():
    # a frozen cycle is never collected, which a long-lived caller would leak
    before = gc.get_freeze_count()
    res = CliRunner().invoke(cli.main, ["bmm-sweep", "--grid", "0.5"])
    assert res.exit_code == 0 and gc.get_freeze_count() == before


def test_atexit_runs_after_the_exit_freeze():
    proc = _python(textwrap.dedent("""
        import atexit, gc, sys
        atexit.register(lambda: sys.stderr.write(f"frozen: {gc.get_freeze_count()}"))
        sys.argv = ["hetlab", "bmm-sweep", "--grid", "0.5"]
        from hetlab import cli
        cli.run()
        """))
    assert proc.returncode == 0 and proc.stdout.startswith(b"# command=bmm-sweep\n")
    assert int(proc.stderr.decode().rsplit(": ", 1)[1]) > 0


def _tracing():
    """perfbench/tracing.py, loaded from its file; nothing there is changed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_hetlab_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_targets_exist():
    # perfbench/tracing.py patches hetlab from outside by name; a rename in
    # hetlab must not silently drop a span from the traced benchmark.
    tracing = _tracing()
    targets = list(tracing.SPANS) + list(tracing.COUNTS)
    assert len(targets) == 24
    for mod_name, attr in targets:
        module = importlib.import_module(f"hetlab.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(module, cls_name)).get(meth)), attr
        else:
            assert callable(getattr(module, attr, None)), (mod_name, attr)


def test_tracer_spans_every_file_layer(tmp_path):
    # The benchmark's file and output layers are timed through these names: a
    # command that writes or reads without going through them reads 0 s there.
    tracing = _tracing()
    emb, asg = tmp_path / "emb.csv", tmp_path / "asg.csv"
    asg.write_text("id,p_1,p_2\na,0.5,0.5\nb,1,0\n")
    runs = [["embeddings", "synth", "--labels", "2", "--per-label", "3", "--out", str(emb)],
            ["embeddings", "decompose", str(emb)],
            ["embeddings", "neighborhoods", str(emb), "--k", "2"],
            ["assignments", "rrh", str(asg)]]
    tracer, emit = tracing.Tracer(), cli._emit
    with tracer.installed():
        for args in runs:
            res = CliRunner().invoke(cli.main, args)
            assert res.exit_code == 0, res.output
    names = [span[0] for span in tracer.spans]
    assert names.count("cli._emit") == len(runs)
    for layer in ("write_embeddings", "read_embeddings", "group_decomposition",
                  "neighborhood_between", "read_assignments"):
        assert f"datasets.{layer}" in names, layer
    assert cli._emit is emit  # restored on exit


def test_tracer_patches_and_restores_lazy_modules():
    # perfbench/trace.py imports only hetlab.cli, so every other module is
    # still unexecuted when the tracer looks its targets up in sys.modules
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    proc = _python(textwrap.dedent(f"""
        import importlib.util, sys, types
        from hetlab import cli
        spec = importlib.util.spec_from_file_location("_hetlab_tracing", {str(path)!r})
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert type(sys.modules["hetlab.special"]) is not types.ModuleType

        def target(mod, attr):
            owner = sys.modules[f"hetlab.{{mod}}"]
            cls, _, meth = attr.rpartition(".")
            return vars(getattr(owner, cls))[meth] if cls else getattr(owner, attr)

        tracer = tracing.Tracer()
        with tracer.installed():
            wrapped = {{key: target(*key) for key in [*tracing.SPANS, *tracing.COUNTS]}}
            cli.main(["three-state-sweep", "--grid", "1", "--q", "1,2"], standalone_mode=False)
        assert all(hasattr(fn, "__wrapped__") for fn in wrapped.values())
        assert all(target(*key) is fn.__wrapped__ for key, fn in wrapped.items())
        names = [span[0] for span in tracer.spans]
        sys.stderr.write(repr((len(wrapped), names.count("core.renyi_heterogeneity"),
                               names.count("classic.functional_hill"))))
        """))
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stderr.decode()) == (24, 2, 2)


def _executed(runs):
    """The hetlab submodules executed, and which of ``fractions``, ``decimal``,
    ``csv``, ``dataclasses`` and ``json`` were loaded, in a fresh interpreter
    that ran ``cli.main`` on each argument list."""
    proc = _python(textwrap.dedent(f"""
        import sys, types
        from hetlab import cli
        for args in {runs!r}:
            try:
                cli.main(args)
            except SystemExit as exc:
                assert not exc.code, (args, exc.code)
        executed = {{name[len("hetlab."):] for name, module in sys.modules.items()
                    if name.startswith("hetlab.") and type(module) is types.ModuleType}}
        stdlib = {{"fractions", "decimal", "csv", "dataclasses", "json"}}
        sys.stderr.write(repr((executed, stdlib & set(sys.modules))))
        """))
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stderr.decode())


def _command_paths(group, path=()):
    yield list(path)
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from _command_paths(command, (*path, name))
        else:
            yield [*path, name]


def test_help_executes_no_computing_module():
    runs = [[*path, "--help"] for path in _command_paths(cli.main)]
    assert len(runs) == 9
    assert _executed(runs) == ({"cli", "errors"}, set())


@pytest.mark.parametrize("args,modules", [
    (["bmm-sweep"], {"core", "classic", "special", "betamix", "tables"}),
    (["bmm-sweep", "--tau-mode", "grid"], {"core", "classic", "special", "betamix", "tables"}),
    (["three-state-sweep"], {"core", "classic", "tables"}),
    (["embeddings", "synth", "--labels", "2", "--per-label", "3"],
     {"core", "gaussian", "datasets", "tables"}),
    (["embeddings", "decompose", "{emb}"], {"core", "gaussian", "datasets", "tables"}),
    (["embeddings", "neighborhoods", "{emb}", "--k", "2"],
     {"core", "gaussian", "datasets", "tables"}),
    (["assignments", "rrh", "{asg}"], {"core", "decomposition", "datasets", "tables"}),
    (["assignments", "rrh", "{asg}", "--format", "json"],
     {"core", "decomposition", "datasets", "tables"}),
])
def test_command_executes_only_the_modules_it_calls(tmp_path, args, modules):
    # no command loads fractions or decimal: the exact 3F~2 prefix works in
    # plain ints. csv comes in with datasets, which no sweep command executes,
    # json only with a JSON input or output, and dataclasses never: the
    # records are plain classes
    emb, asg = tmp_path / "emb.csv", tmp_path / "asg.csv"
    emb.write_text("id,label,m_1,s_1\na,x,0,-1\nb,x,1,-1\nc,y,2,-1\n")
    asg.write_text("id,p_1,p_2\na,0.5,0.5\nb,1,0\n")
    args = [arg.format(emb=emb, asg=asg) for arg in args]
    stdlib = set() if args[0].endswith("-sweep") else {"csv"}
    if "json" in args:
        stdlib.add("json")
    assert _executed([args]) == ({"cli", "errors", *modules}, stdlib)


def test_public_names_resolve():
    namespace = {}
    exec("from hetlab import *", namespace)
    assert len(hetlab.__all__) == 66 and hetlab.__all__ == sorted(set(hetlab.__all__))
    for name in hetlab.__all__:
        assert namespace[name] is getattr(hetlab, name), name
    assert set(hetlab.__all__) <= set(dir(hetlab))
    assert hetlab.renyi_heterogeneity is hetlab.core.renyi_heterogeneity
    assert hetlab.decomposition is sys.modules["hetlab.decomposition"]
    assert hetlab.SweepResult is hetlab.tables.SweepResult is hetlab.datasets.SweepResult
    with pytest.raises(AttributeError, match="'hetlab' has no attribute 'no_such_name'"):
        hetlab.no_such_name


def test_array_holding_records_compare_by_identity():
    # a generated field-tuple __eq__ would ask numpy for the truth value of an
    # array comparison, and __hash__ would hash the arrays
    from hetlab.betamix import BetaMixtureParams
    from hetlab.datasets import EmbeddingDataset
    from hetlab.decomposition import SubsystemEnsemble
    from hetlab.gaussian import GaussianComponent, GaussianEnsemble
    from hetlab.special import BetaShape
    from hetlab.tables import SweepResult

    makers = [
        lambda: BetaMixtureParams([0.2, 0.5], 5.0, 20.0),
        lambda: EmbeddingDataset(ids=("a", "b"), labels=("x", "x"),
                                 means=[[0.0], [1.0]], log_var=[[0.0], [0.0]]),
        lambda: SweepResult(columns={"a": [1.0, 2.0]}, metadata={}),
        lambda: SubsystemEnsemble(table=[[0.5, 0.5], [1.0, 0.0]]),
        lambda: GaussianComponent(mean=[0.0, 1.0], covariance=[1.0, 1.0]),
        lambda: GaussianEnsemble(means=[[0.0], [1.0]], covariances=[[1.0], [1.0]]),
    ]
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b and len({a, b, a}) == 2
        assert hash(a) == hash(a)
    assert BetaShape(2.0, 3.0) == BetaShape(2.0, 3.0)


def test_scipy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    config = tomllib.loads(PYPROJECT.read_text())

    def names(reqs):
        return {re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower() for r in reqs}

    assert "scipy" not in names(config["project"]["dependencies"])
    assert "scipy" in names(config["project"]["optional-dependencies"]["test"])


def test_cli_import_loads_no_scipy():
    proc = _python("import sys, hetlab.cli\n"
                   "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == b"[]"


def test_tail_path_runs_with_scipy_blocked():
    # sys.modules["scipy"] = None makes every scipy import raise ImportError;
    # (0.3, 0.45) takes the 3F~2 tail closure, counted through _hurwitz_zeta
    args = ["bmm-sweep", "--grid", "0.3,0.6", "--theta2", "0.3", "--theta3", "0.45",
            "--q", "1,2"]
    proc = _python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from hetlab import cli, special\n"
        "inner = special._hurwitz_zeta\n"
        "calls = []\n"
        "special._hurwitz_zeta = lambda s, a: calls.append(s) or inner(s, a)\n"
        "try:\n"
        f"    cli.main({args!r})\n"
        "finally:\n"
        "    sys.stderr.write(f'zeta calls: {len(calls)}')\n")
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stderr.decode().rsplit(": ", 1)[1]) > 0
    normal = CliRunner().invoke(cli.main, args)
    assert normal.exit_code == 0
    assert proc.stdout == normal.stdout_bytes
