"""Self-tests of the benchmark's output checkers: each accepts the CLI's
real output on small inputs and rejects that output with one value moved
by 1e-6 relative, with one row dropped, and (neighbourhoods) with two
entries of the top list swapped. Also checks that tracing restores the
program and counts what it should.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "EMB_DECOMPOSE": (3, 40, 2),
    "EMB_NEIGHBORHOODS": (4, 30, 2),
    "EMB_SYNTH": (2, 20, 2),
    "ASSIGN_SHAPE": (400, 5),
    "BMM_PARTS": {"terminating": (5.0, 20.0, 4, (0.01, 0.99)),
                  "prefix": (2.5, 20.5, 1, (0.05, 0.95)),
                  "tail": (0.3, 0.45, 1, (0.2, 0.8))},
    "TAU_GRID": (20, (0.005, 0.995)),
    "THREE_STATE_H": (6, (0.02, 3.0)),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """name -> (command, its real CLI output) for every command of every
    workload, built on small inputs."""
    patch = pytest.MonkeyPatch()
    for key, value in SMALL.items():
        patch.setattr(workloads, key, value)
    cli = run.import_hetlab()
    found = {}
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.prepare(name, 7, tmp_path_factory.mktemp(name))
            run.run_in_process(cli, wl)
            for cmd in wl.commands:
                found[cmd.name] = (cmd, cmd.out.read_text())
    finally:
        patch.undo()
    return found


COMMANDS = ["synth", "decompose", "neighborhoods", "rrh", "bmm-terminating",
            "bmm-prefix", "bmm-tail", "bmm-grid", "three-state"]


def failures(cmd, text):
    """Failed ops other than known program faults."""
    return [op for op in cmd.check(text) if not op.ok and not op.known]


def split(text):
    lines = text.splitlines(keepends=True)
    head = sum(1 for line in lines if line.startswith("#")) + 1  # metadata + header
    return lines[:head], lines[head:]


def moved(cell: str) -> str:
    return "%.12g" % (float(cell) * (1.0 + 1e-6))


@pytest.mark.parametrize("name", COMMANDS)
def test_accepts_real_output(outputs, name):
    cmd, text = outputs[name]
    ops = cmd.check(text)
    assert ops and not failures(cmd, text)


@pytest.mark.parametrize("name", COMMANDS)
def test_rejects_empty_output(outputs, name):
    cmd, _ = outputs[name]
    assert all(not op.ok for op in cmd.check(""))


@pytest.mark.parametrize("name", COMMANDS)
def test_rejects_value_moved_by_1e_6(outputs, name):
    """Every numeric cell of the first and last passing rows, moved alone."""
    cmd, text = outputs[name]
    head, body = split(text)
    ops = cmd.check(text)
    # rows that pass today (synth is one op for the whole file)
    passing = range(len(body)) if len(ops) == 1 else [i for i, op in enumerate(ops) if op.ok]
    tried = 0
    for r in (passing[0], passing[-1]):
        cells = body[r].rstrip("\n").split(",")
        for j, cell in enumerate(cells):
            try:
                new = moved(cell)
            except ValueError:
                continue
            if new == cell:  # 0 and inf do not move
                continue
            bad = body[:r] + [",".join(cells[:j] + [new] + cells[j + 1:]) + "\n"] + body[r + 1:]
            assert failures(cmd, "".join(head + bad)), (r, j, cell, new)
            tried += 1
    assert tried >= 2


@pytest.mark.parametrize("name", COMMANDS)
def test_rejects_dropped_row(outputs, name):
    cmd, text = outputs[name]
    head, body = split(text)
    for r in (0, len(body) // 2, len(body) - 1):
        assert failures(cmd, "".join(head + body[:r] + body[r + 1:])), r


def test_neighborhoods_rejects_swapped_pair(outputs):
    cmd, text = outputs["neighborhoods"]
    head, body = split(text)
    rows = [line.rstrip("\n").split(",") for line in body]
    # whole rows 1 and 2 of the high list trade places
    swapped = body[:]
    swapped[1], swapped[2] = body[2], body[1]
    assert failures(cmd, "".join(head + swapped))
    # only their ids trade places
    a, b = rows[1][:], rows[2][:]
    a[2], b[2] = rows[2][2], rows[1][2]
    ids_swapped = body[:1] + [",".join(a) + "\n", ",".join(b) + "\n"] + body[3:]
    assert failures(cmd, "".join(head + ids_swapped))


def test_rrh_counts_only_the_q_inf_row_as_known(outputs):
    cmd, text = outputs["rrh"]
    known = [op for op in cmd.check(text) if op.known]
    assert len(known) == 1 and known[0].key == "rrh[3]"


def test_tracer_counts_and_restores(tmp_path, monkeypatch):
    for key, value in SMALL.items():
        monkeypatch.setattr(workloads, key, value)
    cli = run.import_hetlab()
    import hetlab.core
    import hetlab.gaussian
    original = hetlab.core.renyi_heterogeneity
    post_init = hetlab.gaussian.GaussianComponent.__post_init__
    wl = workloads.prepare("embeddings", 3, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        run.run_in_process(cli, wl)
    metrics = tracing.layer_metrics(tracer)
    assert hetlab.core.renyi_heterogeneity is original
    assert hetlab.gaussian.GaussianComponent.__post_init__ is post_init
    n_nb = 4 * 30
    # one ensemble per neighbourhood and per label group
    assert metrics["datasets.ensemble_calls"] == n_nb + 3
    assert metrics["gaussian.components_built"] > n_nb * 50
    assert metrics["datasets.neighborhood_between_s"] > metrics["gaussian.gaussian_pool_s"] > 0
    stats = tracing.span_stats(tracer.spans)
    for entry in stats.values():
        assert entry["total_s"] >= entry["self_s"] >= 0
