"""The three seeded workloads: their generated inputs, the CLI commands of
one round, and the reference each command's output is checked against.

Inputs depend only on the seed. The program sees only the files written
here and the command-line arguments built here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("embeddings", "assign-rrh", "sweeps")

# embeddings: (labels, records per label, latent dimension)
EMB_DECOMPOSE = (12, 2000, 4)
EMB_NEIGHBORHOODS = (10, 100, 2)
EMB_SYNTH = (10, 1000, 4)
NEIGHBORHOOD_K = 49
NEIGHBORHOOD_TOP = 10
DECOMPOSE_Q = (0.5, 1.0, 2.0)

# assign-rrh: rows x categories
ASSIGN_SHAPE = (24000, 10)
ASSIGN_Q = (0.0, 1.0, 2.0, math.inf)

# sweeps: one bmm-sweep part per 3F~2 path, (theta2, theta3, n theta1, theta1 range)
BMM_PARTS = {
    "terminating": (5.0, 20.0, 99, (0.01, 0.99)),
    "prefix": (2.5, 20.5, 8, (0.05, 0.95)),
    "tail": (0.3, 0.45, 8, (0.2, 0.8)),
}
BMM_Q = (0.5, 1.0, 2.0, 4.0)
TAU_GRID = (990, (0.005, 0.995))
TAU_GRID_Q = (0.0, 1.0, 2.0, math.inf)
THREE_STATE_H = (300, (0.02, 3.0))
THREE_STATE_KAPPA = (0.25, 1.0, 4.0)
THREE_STATE_Q = (0.5, 1.0, 2.0, math.inf)
THREE_STATE_U = (0.5, 1.0, 2.0)


@dataclass
class Command:
    """One CLI invocation: ``hetlab <argv>`` writing ``out``."""

    name: str
    argv: list
    out: Path
    inputs: tuple
    check: Callable[[str], list]


@dataclass
class Workload:
    name: str
    setup_argv: list  # a subcommand with no work: its start-up is setup_s
    commands: list


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _jittered(rng, count, lo, hi) -> np.ndarray:
    """count increasing points, one uniform draw in each equal cell of [lo, hi]."""
    return lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) / count


def gaussian_clusters(rng, n_labels, per_label, nz):
    """Labelled Gaussian clusters in shuffled order: posterior means around
    per-label centres with per-label spread, and log-variances."""
    n = n_labels * per_label
    centers = rng.normal(0.0, 10.0, size=(n_labels, nz))
    spread = rng.uniform(0.5, 2.0, size=n_labels)
    labels = np.repeat(np.arange(n_labels), per_label)
    means = centers[labels] + rng.normal(size=(n, nz)) * spread[labels, None]
    logvar = rng.uniform(-2.5, -0.5, size=(n, nz))
    order = rng.permutation(n)
    return [f"L{v:02d}" for v in labels[order]], means[order], logvar[order]


def write_embedding_csv(path: Path, labels, means, logvar) -> list:
    nz = means.shape[1]
    ids = [f"e{i}" for i in range(len(labels))]
    with open(path, "w") as fh:
        fh.write(",".join(["id", "label"] + [f"m_{j + 1}" for j in range(nz)]
                          + [f"s_{j + 1}" for j in range(nz)]) + "\n")
        for rid, lab, m, s in zip(ids, labels, means.tolist(), logvar.tolist()):
            fh.write(f"{rid},{lab},{_floats(m)},{_floats(s)}\n")
    return ids


def embeddings(rng, work: Path) -> Workload:
    big = work / "decompose_in.csv"
    labels, means, logvar = gaussian_clusters(rng, *EMB_DECOMPOSE)
    write_embedding_csv(big, labels, means, logvar)
    dec_expected = checks.decompose_reference(labels, means, logvar, DECOMPOSE_Q)

    small = work / "neighborhoods_in.csv"
    nb_labels, nb_means, nb_logvar = gaussian_clusters(rng, *EMB_NEIGHBORHOODS)
    nb_ids = write_embedding_csv(small, nb_labels, nb_means, nb_logvar)
    between = checks.neighborhood_reference(nb_means, nb_logvar, NEIGHBORHOOD_K, 1.0)

    n_labels, per_label, nz = EMB_SYNTH
    synth_seed = int(rng.integers(2 ** 31))
    contract = int(rng.integers(n_labels))
    synth_expected = checks.synth_reference(n_labels, per_label, nz, synth_seed, 10.0,
                                            1.0, (-2.0, -1.0), contract, 10.0)
    synth_out = work / "synth.csv"
    dec_out = work / "decompose.csv"
    nb_out = work / "neighborhoods.csv"
    return Workload("embeddings", ["embeddings", "decompose", "--help"], [
        Command("synth",
                ["embeddings", "synth", "--labels", str(n_labels), "--per-label",
                 str(per_label), "--nz", str(nz), "--seed", str(synth_seed),
                 "--contract-label", str(contract), "--out", str(synth_out)],
                synth_out, (),
                functools.partial(checks.check_synth, expected_rows=synth_expected, nz=nz)),
        Command("decompose",
                ["embeddings", "decompose", str(big), "--q", _floats(DECOMPOSE_Q),
                 "--out", str(dec_out)],
                dec_out, (big,),
                functools.partial(checks.check_decompose, expected=dec_expected)),
        Command("neighborhoods",
                ["embeddings", "neighborhoods", str(small), "--k", str(NEIGHBORHOOD_K),
                 "--q", "1", "--top", str(NEIGHBORHOOD_TOP), "--out", str(nb_out)],
                nb_out, (small,),
                functools.partial(checks.check_neighborhoods, ids=nb_ids, labels=nb_labels,
                                  between=between, top=NEIGHBORHOOD_TOP, q=1.0)),
    ])


def assignment_table(rng, n_rows, n_cat) -> np.ndarray:
    """Dirichlet(0.7) soft assignments, each row over a random support of
    2..n_cat categories (the rest exactly 0)."""
    table = np.zeros((n_rows, n_cat))
    support = rng.integers(2, n_cat + 1, size=n_rows)
    for size in range(2, n_cat + 1):
        rows = np.flatnonzero(support == size)
        cols = np.argsort(rng.uniform(size=(rows.size, n_cat)), axis=1)[:, :size]
        table[rows[:, None], cols] = rng.dirichlet(np.full(size, 0.7), size=rows.size)
    return table


def assign_rrh(rng, work: Path) -> Workload:
    table = assignment_table(rng, *ASSIGN_SHAPE)
    path = work / "assignments_in.csv"
    with open(path, "w") as fh:
        fh.write("id," + ",".join(f"p_{j + 1}" for j in range(table.shape[1])) + "\n")
        for i, row in enumerate(table.tolist()):
            fh.write(f"a{i},{_floats(row)}\n")
    out = work / "rrh.csv"
    expected = checks.rrh_reference(table, ASSIGN_Q)
    return Workload("assign-rrh", ["assignments", "rrh", "--help"], [
        Command("rrh", ["assignments", "rrh", str(path), "--q", _floats(ASSIGN_Q),
                        "--out", str(out)],
                out, (path,), functools.partial(checks.check_rrh, expected=expected)),
    ])


def sweeps(rng, work: Path) -> Workload:
    commands = []
    for part, (theta2, theta3, count, (lo, hi)) in BMM_PARTS.items():
        theta1 = _jittered(rng, count, lo, hi)
        out = work / f"bmm_{part}.csv"
        expected = checks.bmm_optimal_reference(theta1, theta2, theta3, BMM_Q, 1.0)
        commands.append(Command(
            f"bmm-{part}",
            ["bmm-sweep", "--grid", _floats(theta1), "--theta2", repr(theta2),
             "--theta3", repr(theta3), "--q", _floats(BMM_Q), "--out", str(out)],
            out, (), functools.partial(checks.check_bmm_optimal, expected=expected)))

    theta1 = float(rng.uniform(0.2, 0.8))
    taus = _jittered(rng, TAU_GRID[0], *TAU_GRID[1])
    out = work / "bmm_grid.csv"
    expected = checks.bmm_grid_reference(theta1, 5.0, 20.0, taus, TAU_GRID_Q)
    commands.append(Command(
        "bmm-grid",
        ["bmm-sweep", "--tau-mode", "grid", "--grid", _floats(taus), "--theta1",
         repr(theta1), "--theta2", "5", "--theta3", "20", "--q", _floats(TAU_GRID_Q),
         "--out", str(out)],
        out, (), functools.partial(checks.check_bmm_grid, expected=expected)))

    hs = _jittered(rng, THREE_STATE_H[0], *THREE_STATE_H[1])
    # Keep heights clear of the ultrametric boundary leg == base (h = sqrt(3)/2),
    # where the predicate's 1e-9 tolerance would decide the answer.
    hs = np.where(np.abs(hs - math.sqrt(0.75)) < 1e-4, hs + 2e-4, hs)
    out = work / "three_state.csv"
    expected = checks.three_state_reference(hs, 1.0, THREE_STATE_KAPPA, THREE_STATE_Q,
                                            THREE_STATE_U)
    commands.append(Command(
        "three-state",
        ["three-state-sweep", "--grid", _floats(hs), "--b", "1",
         "--kappa", _floats(THREE_STATE_KAPPA), "--q", _floats(THREE_STATE_Q),
         "--u", _floats(THREE_STATE_U), "--out", str(out)],
        out, (), functools.partial(checks.check_three_state, expected=expected)))
    return Workload("sweeps", ["bmm-sweep", "--help"], commands)


_BUILDERS = {"embeddings": embeddings, "assign-rrh": assign_rrh, "sweeps": sweeps}


def prepare(name: str, seed: int, work: Path) -> Workload:
    """Generate the inputs of workload ``name`` for ``seed`` under ``work``."""
    rng = np.random.default_rng([WORKLOADS.index(name), seed])
    return _BUILDERS[name](rng, work)
