"""hetlab: categorical and representational Renyi heterogeneity.

Effective-number heterogeneity of probability distributions and latent
representations: Hill-number style indices, pooled/within/between
decomposition, distance- and similarity-sensitive alternatives, a fully
analytic beta-mixture testbed, and Gaussian latent-space heterogeneity
with embedding ingestion.

Submodules load on first use (PEP 562 and ``importlib.util.LazyLoader``):
``import hetlab`` executes only ``hetlab.errors`` and puts the other
modules in ``sys.modules`` unexecuted; each one executes when one of its
attributes is first read, through ``hetlab.<module>.<name>``,
``hetlab.<name>`` or ``from hetlab.<module> import <name>``. So a CLI
process executes only the modules its command calls: ``--help`` none
beyond ``errors``, ``three-state-sweep`` ``core``, ``classic`` and
``datasets``, ``bmm-sweep`` those and ``special`` and ``betamix``, an
``embeddings`` command ``core``, ``gaussian`` and ``datasets``, and
``assignments rrh`` ``core``, ``decomposition`` and ``datasets``.
"""

import importlib.util as _util
import sys as _sys

from .errors import (
    ConvergenceError,
    DegenerateDistanceError,
    DegeneratePoolError,
    HetlabError,
    NumericalError,
    SingularityError,
    UndefinedOrderError,
    ValidationError,
)

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "betamix": ("BetaMixtureParams", "assignment_mass", "beta_abs_distance",
                "bmm_between_rrh", "bmm_index_comparison", "bmm_marginal_pdf",
                "expected_distance_matrix", "optimal_threshold"),
    "classic": ("functional_hill", "is_metric", "is_ultrametric", "leinster_cobbold",
                "neqrqe", "rescale_distance", "rqe", "similarity_from_distance",
                "three_state_distance", "three_state_probs"),
    "core": ("TABLE_INDICES", "IndexValue", "renyi_heterogeneity", "table1_index"),
    "datasets": ("EmbeddingDataset", "SweepResult", "group_decomposition",
                 "neighborhood_between", "neighborhood_sweep", "read_assignments",
                 "read_embeddings", "synth_embeddings", "write_embeddings"),
    "decomposition": ("SubsystemEnsemble", "decompose", "pooled_heterogeneity",
                      "within_heterogeneity"),
    "gaussian": ("GaussianComponent", "GaussianEnsemble", "gaussian_between",
                 "gaussian_decomposition", "gaussian_pool", "gaussian_renyi",
                 "gaussian_within"),
    "special": ("BetaShape", "beta_pdf", "beta_tails", "log_beta", "log_gamma",
                "reg_hyp3f2_unit", "reg_inc_beta"),
}.items() for name in names}


def _lazy(name: str):
    """The submodule ``name``, in ``sys.modules`` and executed on first use."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({module: _lazy(module) for module in set(_EXPORTS.values())})

__all__ = sorted({*_EXPORTS, *(name for name in dir() if not name.startswith("_"))})


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)


def __dir__():
    return [*globals(), *_EXPORTS]
