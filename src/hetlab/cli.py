"""Command-line front end.

Subcommands: three-state-sweep, bmm-sweep, embeddings (decompose /
neighborhoods / synth), assignments (rrh). Output is a CSV table with
``# key=value`` metadata comment lines, or an equivalent JSON document;
both are byte-identical across runs with identical inputs and seeds.

Input files are read as UTF-8, with or without a byte-order mark, and
their format is taken from the content: a file whose first non-blank
character is ``{`` or ``[`` is JSON, anything else is CSV.

Exit codes: 0 success, 2 usage error, 3 validation/ingestion error,
4 numerical error.
"""

from __future__ import annotations

import functools
import io
import math
import sys

import click
import numpy as np

from . import betamix, classic, datasets
from .core import renyi_heterogeneity
from .decomposition import decompose
from .errors import NumericalError, ValidationError

_VALIDATION_EXIT = 3
_NUMERICAL_EXIT = 4


def _parse_floats(text: str, name: str, *, allow_inf: bool = False) -> list:
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            v = float(tok)
        except ValueError:
            raise click.UsageError(f"--{name}: cannot parse {tok!r} as a number")
        if math.isnan(v) or (math.isinf(v) and not allow_inf):
            raise click.UsageError(f"--{name}: value {tok!r} out of range")
        vals.append(v)
    if not vals:
        raise click.UsageError(f"--{name}: at least one value required")
    return vals


def _read_input(path: str, reader):
    """Parse an input file with ``reader``. The file is read as UTF-8 with
    ``newline=""`` so that line breaks inside quoted CSV fields survive; a
    leading byte-order mark is dropped, and a byte sequence that is not
    UTF-8 is a validation error naming the file."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return reader(fh)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _emit(write, out, fmt: str) -> None:
    """Write through ``write(stream, fmt)`` to the file ``out`` or to stdout."""
    buf = io.StringIO()
    write(buf, fmt)
    if out is None:
        # color=True: click strips escape sequences (as in ids) when stdout is no terminal
        click.echo(buf.getvalue(), nl=False, color=True)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(buf.getvalue())


def _grid(shape: tuple, columns: dict) -> dict:
    """Each column broadcast to the sweep grid ``shape`` and read in row order."""
    return {name: np.broadcast_to(values, shape).ravel() for name, values in columns.items()}


def _command(group, name: str):
    """Register the decorated function as the command ``name`` of ``group``,
    with ``--out`` and ``--format`` after its own options. The function
    returns a writer ``write(stream, fmt)``, which goes out through
    ``_emit``; a ``ValidationError`` exits 3 and a ``NumericalError`` 4."""
    def register(fn):
        @functools.wraps(fn)
        def run(out, fmt, **options):
            try:
                _emit(fn(**options), out, fmt)
            except (ValidationError, NumericalError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(_VALIDATION_EXIT if isinstance(exc, ValidationError)
                         else _NUMERICAL_EXIT)

        command = group.command(name)(run)
        command.params += [
            click.Option(["--out"], type=click.Path(dir_okay=False), default=None,
                         help="Output file (default: stdout)."),
            click.Option(["--format", "fmt"], type=click.Choice(["csv", "json"]),
                         default="csv", show_default=True, help="Output format."),
        ]
        return command
    return register


@click.group()
def main():
    """Categorical and representational heterogeneity toolkit."""


@_command(main, "three-state-sweep")
@click.option("--grid", default="0.1:3.0:0.1", show_default=True,
              help="Triangle heights h: comma list or start:stop:step.")
@click.option("--b", type=float, default=1.0, show_default=True,
              help="Triangle base length.")
@click.option("--kappa", default="1", show_default=True,
              help="Comma list of skewness values (inf allowed).")
@click.option("--q", default="1", show_default=True, help="Comma list of orders.")
@click.option("--u", default="1", show_default=True,
              help="Comma list of similarity scaling factors.")
def three_state_sweep(grid, b, kappa, q, u):
    """Sweep the 3-state triangle system over heights, skewness, q and u."""
    h_list = _parse_grid(grid, "grid")
    kappa_list = _parse_floats(kappa, "kappa", allow_inf=True)
    q_list = _parse_floats(q, "q", allow_inf=True)
    u_list = _parse_floats(u, "u")
    if not 0 < b < math.inf:
        raise click.UsageError(f"--b: value {b!r} out of range, need 0 < b < inf")
    for h in h_list:
        if not h > 0:
            raise click.UsageError(f"--grid: height {h!r} out of range, need h > 0")
    for uv in u_list:
        if uv < 0:
            raise click.UsageError(f"--u: value {uv!r} out of range, need 0 <= u < inf")

    # Every index is evaluated once per order on the (H, K[, U]) broadcast of
    # the heights (and scaling factors) against the (K, 3) stack of
    # distributions: dist is (H, 1, 3, 3), sims (H, 1, U, 3, 3) against p[:, None].
    dist = np.stack([classic.three_state_distance(h, b) for h in h_list])[:, None]
    p = np.array([classic.three_state_probs(kap) for kap in kappa_list])
    sims = classic.similarity_from_distance(dist[:, :, None], np.array(u_list)[:, None, None])
    shape = H, K, Q, U = len(h_list), len(kappa_list), len(q_list), len(u_list)
    return datasets.SweepResult(
        columns=_grid(shape, {
            "h": np.reshape(h_list, (H, 1, 1, 1)), "b": b,
            "kappa": np.reshape(kappa_list, (K, 1, 1)), "q": np.reshape(q_list, (Q, 1)),
            "u": u_list, "qe": classic.neqrqe(classic.rescale_distance(dist), p)[..., None, None],
            "fhn": np.stack([classic.functional_hill(dist, p, qv) for qv in q_list], 2)[..., None],
            "lci": np.stack([classic.leinster_cobbold(sims, p[:, None], qv) for qv in q_list], 2),
            "rrh": np.stack([renyi_heterogeneity(p, qv) for qv in q_list], 1)[..., None],
            "metric": np.reshape(classic.is_metric(dist), (H, 1, 1, 1)),
            "ultrametric": np.reshape(classic.is_ultrametric(dist), (H, 1, 1, 1))}),
        metadata={"command": "three-state-sweep", "b": b,
                  "n_h": H, "n_kappa": K, "n_q": Q, "n_u": U},
    ).write


def _parse_grid(text: str, name: str) -> list:
    """A comma list of floats, or start:stop:step inclusive of the stop
    point (within half a step)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise click.UsageError(f"--{name}: range syntax is start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise click.UsageError(f"--{name}: cannot parse range {text!r}")
        if step <= 0 or stop < start:
            raise click.UsageError(f"--{name}: need step > 0 and stop >= start")
        steps = (stop - start) / step
        if not all(map(math.isfinite, (start, stop, step, steps))):
            raise click.UsageError(
                f"--{name}: range {text!r} must be finite, in finitely many steps")
        count = int(math.floor(steps + 0.5)) + 1
        return [start + i * step for i in range(count)]
    return _parse_floats(text, name)


@_command(main, "bmm-sweep")
@click.option("--grid", default="0.5:0.95:0.05", show_default=True,
              help="theta1 grid (tau-mode=optimal) or tau grid (tau-mode=grid).")
@click.option("--theta1", type=float, default=0.5, show_default=True,
              help="Fixed theta1, used only with tau-mode=grid.")
@click.option("--theta2", type=float, default=5.0, show_default=True)
@click.option("--theta3", type=float, default=20.0, show_default=True)
@click.option("--q", default="1,2", show_default=True, help="Comma list of orders.")
@click.option("--u", type=float, default=1.0, show_default=True,
              help="Similarity scaling factor for the Leinster-Cobbold column.")
@click.option("--tau-mode", type=click.Choice(["optimal", "grid"]),
              default="optimal", show_default=True,
              help="Threshold choice: posterior-optimal or swept over --grid.")
def bmm_sweep(grid, theta1, theta2, theta3, q, u, tau_mode):
    """Sweep the two-component beta mixture; optimal mode emits the full
    index comparison per theta1, grid mode emits the RRH curve over tau."""
    q_list = _parse_floats(q, "q", allow_inf=True)
    grid_vals = _parse_grid(grid, "grid")
    if not 0 <= u < math.inf:
        raise click.UsageError(f"--u: value {u!r} out of range, need 0 <= u < inf")

    shape = (len(grid_vals), len(q_list))
    if tau_mode == "optimal":
        for t1 in grid_vals:
            if not 0.0 < t1 < 1.0:
                raise click.UsageError(f"--grid: theta1 value {t1} outside (0, 1)")
        columns = {"theta1": np.reshape(grid_vals, (-1, 1)), "theta2": theta2,
                   "theta3": theta3, "q": q_list, "u": u,
                   **betamix.bmm_index_comparison(
                       betamix.BetaMixtureParams(np.array(grid_vals), theta2, theta3),
                       q_list, u)}
    else:
        theta = betamix.BetaMixtureParams(theta1, theta2, theta3)
        for tau in grid_vals:
            if not 0.0 <= tau <= 1.0:
                raise click.UsageError(f"--grid: tau value {tau} outside [0, 1]")
        columns = {"theta1": theta1, "theta2": theta2, "theta3": theta3,
                   "tau": np.reshape(grid_vals, (-1, 1)), "q": q_list,
                   "rrh": betamix.bmm_between_rrh(theta, grid_vals, q_list)}
    return datasets.SweepResult(
        columns=_grid(shape, columns),
        metadata={"command": "bmm-sweep", "tau_mode": tau_mode,
                  "theta2": theta2, "theta3": theta3, "u": u,
                  "n_grid": len(grid_vals), "n_q": len(q_list)},
    ).write


@main.group()
def embeddings():
    """Gaussian embedding ingestion, decomposition and generation."""


@_command(embeddings, "decompose")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--q", default="1,2", show_default=True, help="Comma list of orders.")
@click.option("--group-by/--whole", "group_by", default=True, show_default=True,
              help="Decompose per label group or over the whole dataset.")
def embeddings_decompose(file, q, group_by):
    """Pooled/within/between heterogeneity per label group."""
    q_list = _parse_floats(q, "q", allow_inf=True)
    dataset = _read_input(file, datasets.read_embeddings)
    return datasets.group_decomposition(dataset, q_list, group_by_label=group_by).write


@_command(embeddings, "neighborhoods")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--k", type=int, default=49, show_default=True,
              help="Neighbors per record (neighborhood = record + k).")
@click.option("--q", type=float, default=1.0, show_default=True)
@click.option("--top", type=click.IntRange(min=1), default=10, show_default=True,
              help="How many highest and lowest neighborhoods to report.")
def embeddings_neighborhoods(file, k, q, top):
    """Heterogeneity of each record's k-nearest-neighbor neighborhood."""
    dataset = _read_input(file, datasets.read_embeddings)
    if not 1 <= k < len(dataset):
        raise click.UsageError(f"--k must satisfy 1 <= k < N={len(dataset)}")
    return datasets.neighborhood_sweep(dataset, k, q, top).write


@_command(embeddings, "synth")
@click.option("--labels", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--per-label", type=click.IntRange(min=1), default=500, show_default=True)
@click.option("--nz", type=click.IntRange(min=1), default=2, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--separation", type=float, default=10.0, show_default=True,
              help="Scale of the cluster-center draws.")
@click.option("--spread", type=float, default=1.0, show_default=True,
              help="Within-cluster standard deviation of the means.")
@click.option("--log-var-min", type=float, default=-2.0, show_default=True)
@click.option("--log-var-max", type=float, default=-1.0, show_default=True)
@click.option("--contract-label", type=int, default=None,
              help="Label index whose cluster is contracted.")
@click.option("--contract-factor", type=float, default=10.0, show_default=True)
def embeddings_synth(labels, per_label, nz, seed, separation, spread,
                     log_var_min, log_var_max, contract_label, contract_factor):
    """Generate a deterministic synthetic embedding dataset."""
    dataset = datasets.synth_embeddings(
        labels, per_label, nz, seed,
        separation=separation, spread=spread,
        log_var_range=(log_var_min, log_var_max),
        contract_label=contract_label, contract_factor=contract_factor,
    )
    return functools.partial(datasets.write_embeddings, dataset)


@main.group()
def assignments():
    """Soft category assignment tables."""


@_command(assignments, "rrh")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--q", default="1,2", show_default=True, help="Comma list of orders.")
def assignments_rrh(file, q):
    """Pooled/within/between heterogeneity of a soft-assignment table."""
    q_list = _parse_floats(q, "q", allow_inf=True)
    ids, ensemble = _read_input(file, datasets.read_assignments)
    return datasets.SweepResult(
        columns={"q": np.array(q_list), **decompose(ensemble, q_list)},
        metadata={"command": "assignments-rrh", "n_records": len(ids),
                  "n_categories": ensemble.n_states},
    ).write


if __name__ == "__main__":
    main()
