"""Command-line front end.

Subcommands: three-state-sweep, bmm-sweep, embeddings (decompose /
neighborhoods / synth), assignments (rrh). Output is a CSV table with
``# key=value`` metadata comment lines, or an equivalent JSON document;
both are byte-identical across runs with identical inputs and seeds.

Input files are read as UTF-8, with or without a byte-order mark, and
their format is taken from the content: a file whose first non-blank
character is ``{`` or ``[`` is JSON, anything else is CSV.

Every option value is parsed and range-checked by its declared type, and
``--help`` shows the range: a value outside it is a usage error naming the
option. A list option takes ``a,b,c`` or ``start:stop:step`` (at most 10**6
points). A value that conflicts with the input file (``--k`` >= N) or with
another option keeps its own exit code.

Exit codes: 0 success, 2 usage, 3 validation/ingestion, 4 numerical error.
An input ``FILE`` or an ``--out`` path that cannot be opened is a usage
error naming it (exit 2), as click's own path checks are.
"""

from __future__ import annotations

import functools
import gc
import io
import math
import sys

import click
import numpy as np

# modules, not names: each one executes only when a command first reads it
from . import betamix, classic, core, datasets, decomposition, ingest, tables
from .errors import NumericalError, ValidationError

_VALIDATION_EXIT = 3
_NUMERICAL_EXIT = 4
_MAX_GRID_POINTS = 10 ** 6


class _Real(click.FloatRange):
    """A float in a declared range, which unlike `click.FloatRange` refuses NaN."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if math.isnan(rv):
            self.fail(f"{value!r} is not a number.", param, ctx)
        return rv


class _Reals(_Real):
    """A non-empty list of floats in a declared range, ``a,b,c`` or
    ``start:stop:step`` inclusive of stop, which no point passes by more than
    rounding, of at most ``_MAX_GRID_POINTS`` points: one NaN scan, two range
    checks (min, max)."""

    name = "floats"

    def convert(self, value, param, ctx):
        try:
            vals = (self._range(value, param, ctx) if ":" in value
                    else [float(tok) for tok in value.split(",") if tok.strip()])
            bounds = min(vals), max(vals)  # ValueError for an empty list
        except ValueError:
            self.fail(f"{value!r} is not a,b,c or start:stop:step", param, ctx)
        if any(map(math.isnan, vals)):
            self.fail(f"{value!r} holds a value that is not a number.", param, ctx)
        for bound in bounds:
            super().convert(bound, param, ctx)
        return vals

    def _range(self, text: str, param, ctx) -> list:
        start, stop, step = map(float, text.split(":"))
        if step <= 0 or stop < start:
            self.fail("need step > 0 and stop >= start", param, ctx)
        steps = (stop - start) / step
        if not all(map(math.isfinite, (start, stop, step, steps))):
            self.fail(f"range {text!r} must be finite, in finitely many steps", param, ctx)
        # a step count up to 1e-9 relative short of a whole number, as a rounded
        # (stop - start) / step can be, still reaches the stop; none passes it
        count = int(math.floor(steps * (1.0 + 1e-9))) + 1
        if count > _MAX_GRID_POINTS:
            self.fail(f"range {text!r} has {count} points, more than the limit "
                      f"{_MAX_GRID_POINTS}", param, ctx)
        return (start + step * np.arange(count)).tolist()


_POSITIVE = _Real(0, math.inf, min_open=True, max_open=True)  # (0, inf)
_NON_NEGATIVE = _Real(0, math.inf, max_open=True)             # [0, inf)
_ORDERS = _Reals(0)                                           # [0, inf], a list
_POSITIVE_ORDER = _Real(0, min_open=True)                     # (0, inf]
_FINITE = _Real(-math.inf, math.inf, min_open=True, max_open=True)


def _open(path: str, hint: str, mode: str, **kwargs):
    """``open(path, mode)``, where an ``OSError`` is a usage error naming the
    parameter ``hint``, as click's own path checks are."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise click.BadParameter(f"cannot open {path!r}: {exc.strerror or exc}",
                                 param_hint=hint) from exc


def _read_input(path: str, reader):
    """Parse an input file with ``reader``. The file is read as UTF-8 with
    ``newline=""`` so that line breaks inside quoted CSV fields survive; a
    leading byte-order mark is dropped, and a byte sequence that is not
    UTF-8 is a validation error naming the file."""
    try:
        with _open(path, "'FILE'", "r", encoding="utf-8-sig", newline="") as fh:
            return reader(fh)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _emit(write, out, fmt: str) -> None:
    """Write through ``write(stream, fmt)`` to the file ``out`` or to stdout;
    ``out`` is opened only once the text is whole, so a failed command
    leaves no file behind."""
    buf = io.StringIO()
    write(buf, fmt)
    if out is None:
        # color=True: click strips escape sequences (as in ids) when stdout is no terminal
        click.echo(buf.getvalue(), nl=False, color=True)
    else:
        with _open(out, "'--out'", "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())


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
@click.option("--grid", "h_list", type=_Reals(0, math.inf, min_open=True, max_open=True),
              default="0.1:3.0:0.1", show_default=True,
              help="Triangle heights h: a,b,c or start:stop:step.")
@click.option("--b", type=_POSITIVE, default=1.0, show_default=True,
              help="Triangle base length.")
@click.option("--kappa", "kappa_list", type=_ORDERS, default="1", show_default=True,
              help="Skewness values: a,b,c or start:stop:step.")
@click.option("--q", "q_list", type=_ORDERS, default="1", show_default=True,
              help="Orders: a,b,c or start:stop:step.")
@click.option("--u", "u_list", type=_Reals(0, math.inf, max_open=True), default="1",
              show_default=True, help="Similarity scaling factors: a,b,c or start:stop:step.")
def three_state_sweep(h_list, b, kappa_list, q_list, u_list):
    """Sweep the 3-state triangle system over heights, skewness, q and u."""
    # Every index is evaluated once per order on the (H, K[, U]) broadcast of
    # the heights (and scaling factors) against the (K, 3) stack of
    # distributions: dist is (H, 1, 3, 3), sims (H, 1, U, 3, 3) against p[:, None].
    dist = classic.three_state_distance(h_list, b)[:, None]
    p = classic.three_state_probs(kappa_list)
    sims = classic.similarity_from_distance(dist[:, :, None], np.array(u_list)[:, None, None])
    H, K, Q, U = len(h_list), len(kappa_list), len(q_list), len(u_list)
    # the columns broadcast to the (H, K, Q, U) grid as they are written
    return tables.SweepResult(
        columns={
            "h": np.reshape(h_list, (H, 1, 1, 1)), "b": b,
            "kappa": np.reshape(kappa_list, (K, 1, 1)), "q": np.reshape(q_list, (Q, 1)),
            "u": np.array(u_list),
            "qe": classic.neqrqe(classic.rescale_distance(dist), p)[..., None, None],
            "fhn": np.stack([classic.functional_hill(dist, p, qv) for qv in q_list], 2)[..., None],
            "lci": np.stack([classic.leinster_cobbold(sims, p[:, None], qv) for qv in q_list], 2),
            "rrh": np.stack([core.renyi_heterogeneity(p, qv) for qv in q_list], 1)[..., None],
            "metric": np.reshape(classic.is_metric(dist), (H, 1, 1, 1)),
            "ultrametric": np.reshape(classic.is_ultrametric(dist), (H, 1, 1, 1))},
        metadata={"command": "three-state-sweep", "b": b,
                  "n_h": H, "n_kappa": K, "n_q": Q, "n_u": U},
    ).write


@_command(main, "bmm-sweep")
@click.option("--grid", "grid_vals", type=_Reals(0, 1), default="0.5:0.95:0.05",
              show_default=True, help="theta1 grid (tau-mode=optimal) or tau grid "
              "(tau-mode=grid): a,b,c or start:stop:step.")
@click.option("--theta1", type=_Real(0, 1, min_open=True, max_open=True), default=0.5,
              show_default=True, help="Fixed theta1, used only with tau-mode=grid.")
@click.option("--theta2", type=_POSITIVE, default=5.0, show_default=True)
@click.option("--theta3", type=_POSITIVE, default=20.0, show_default=True)
@click.option("--q", "q_list", type=_ORDERS, default="1,2", show_default=True,
              help="Orders: a,b,c or start:stop:step.")
@click.option("--u", type=_NON_NEGATIVE, default=1.0, show_default=True,
              help="Similarity scaling factor for the Leinster-Cobbold column.")
@click.option("--tau-mode", type=click.Choice(["optimal", "grid"]), default="optimal",
              show_default=True, help="Threshold choice: posterior-optimal or swept over --grid.")
def bmm_sweep(grid_vals, theta1, theta2, theta3, q_list, u, tau_mode):
    """Sweep the two-component beta mixture; optimal mode emits the full
    index comparison per theta1, grid mode emits the RRH curve over tau."""
    # the columns broadcast to the (len(grid_vals), len(q_list)) grid as they are written
    if tau_mode == "optimal":
        if min(grid_vals) <= 0.0 or max(grid_vals) >= 1.0:
            raise click.BadParameter("theta1 must lie in (0, 1) with --tau-mode optimal",
                                     param_hint="'--grid'")
        columns = {"theta1": np.reshape(grid_vals, (-1, 1)), "theta2": theta2,
                   "theta3": theta3, "q": np.array(q_list), "u": u,
                   **betamix.bmm_index_comparison(
                       betamix.BetaMixtureParams(np.array(grid_vals), theta2, theta3),
                       q_list, u)}
    else:
        theta = betamix.BetaMixtureParams(theta1, theta2, theta3)
        columns = {"theta1": theta1, "theta2": theta2, "theta3": theta3,
                   "tau": np.reshape(grid_vals, (-1, 1)), "q": np.array(q_list),
                   "rrh": betamix.bmm_between_rrh(theta, grid_vals, q_list)}
    return tables.SweepResult(
        columns=columns,
        metadata={"command": "bmm-sweep", "tau_mode": tau_mode,
                  "theta2": theta2, "theta3": theta3, "u": u,
                  "n_grid": len(grid_vals), "n_q": len(q_list)},
    ).write


@main.group()
def embeddings():
    """Gaussian embedding ingestion, decomposition and generation."""


@_command(embeddings, "decompose")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--q", "q_list", type=_Reals(0, min_open=True), default="1,2",
              show_default=True, help="Orders: a,b,c or start:stop:step.")
@click.option("--group-by/--whole", "group_by", default=True, show_default=True,
              help="Decompose per label group or over the whole dataset.")
def embeddings_decompose(file, q_list, group_by):
    """Pooled/within/between heterogeneity per label group."""
    dataset = _read_input(file, datasets.read_embeddings)
    return datasets.group_decomposition(dataset, q_list, group_by_label=group_by).write


@_command(embeddings, "neighborhoods")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--k", type=click.IntRange(min=1), default=49, show_default=True,
              help="Neighbors per record (neighborhood = record + k).")
@click.option("--q", type=_POSITIVE_ORDER, default=1.0, show_default=True)
@click.option("--top", type=click.IntRange(min=1), default=10, show_default=True,
              help="How many highest and lowest neighborhoods to report.")
def embeddings_neighborhoods(file, k, q, top):
    """Heterogeneity of each record's k-nearest-neighbor neighborhood."""
    dataset = _read_input(file, datasets.read_embeddings)
    if k >= len(dataset):
        raise click.BadParameter(f"must be < N={len(dataset)}", param_hint="'--k'")
    return datasets.neighborhood_sweep(dataset, k, q, top).write


@_command(embeddings, "synth")
@click.option("--labels", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--per-label", type=click.IntRange(min=1), default=500, show_default=True)
@click.option("--nz", type=click.IntRange(min=1), default=2, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--separation", type=_NON_NEGATIVE, default=10.0, show_default=True,
              help="Scale of the cluster-center draws.")
@click.option("--spread", type=_NON_NEGATIVE, default=1.0, show_default=True,
              help="Within-cluster standard deviation of the means.")
@click.option("--log-var-min", type=_FINITE, default=-2.0, show_default=True)
@click.option("--log-var-max", type=_FINITE, default=-1.0, show_default=True)
@click.option("--contract-label", type=click.IntRange(min=0), default=None,
              help="Label index whose cluster is contracted.")
@click.option("--contract-factor", type=_POSITIVE_ORDER, default=10.0, show_default=True)
def embeddings_synth(labels, per_label, nz, seed, log_var_min, log_var_max, **shape):
    """Generate a deterministic synthetic embedding dataset."""
    return functools.partial(datasets.write_embeddings, datasets.synth_embeddings(
        labels, per_label, nz, seed, log_var_range=(log_var_min, log_var_max), **shape))


@main.group()
def assignments():
    """Soft category assignment tables."""


@_command(assignments, "rrh")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--q", "q_list", type=_ORDERS, default="1,2", show_default=True,
              help="Orders: a,b,c or start:stop:step.")
def assignments_rrh(file, q_list):
    """Pooled/within/between heterogeneity of a soft-assignment table."""
    ids, ensemble = _read_input(file, ingest.read_assignments)
    return tables.SweepResult(
        columns={"q": np.array(q_list), **decomposition.decompose(ensemble, q_list)},
        metadata={"command": "assignments-rrh", "n_records": len(ids),
                  "n_categories": ensemble.n_states},
    ).write


def run() -> None:
    """The process entry point of ``hetlab`` and ``python -m hetlab.cli``:
    `main`, then ``gc.freeze()`` on every way out, so that the objects still
    alive when the command ends (numpy, click and hetlab state, about 23,000
    of them) die with the process without a final collection traversing
    them. atexit handlers, stdio flushing, exit codes and tracebacks are
    unchanged. In-process callers call `main` and never freeze: a frozen
    cycle is never collected."""
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
