"""hetlab: categorical and representational Renyi heterogeneity.

Effective-number heterogeneity of probability distributions and latent
representations: Hill-number style indices, pooled/within/between
decomposition, distance- and similarity-sensitive alternatives, a fully
analytic beta-mixture testbed, and Gaussian latent-space heterogeneity
with embedding ingestion.
"""

from .betamix import (
    BetaMixtureParams,
    assignment_mass,
    beta_abs_distance,
    bmm_between_rrh,
    bmm_index_comparison,
    bmm_marginal_pdf,
    expected_distance_matrix,
    optimal_threshold,
)
from .classic import (
    functional_hill,
    is_metric,
    is_ultrametric,
    leinster_cobbold,
    neqrqe,
    rescale_distance,
    rqe,
    similarity_from_distance,
    three_state_distance,
    three_state_probs,
)
from .core import (
    TABLE_INDICES,
    IndexValue,
    as_distribution,
    normalize,
    renyi_heterogeneity,
    table1_index,
)
from .datasets import (
    EmbeddingDataset,
    SweepResult,
    group_decomposition,
    neighborhood_between,
    neighborhood_sweep,
    read_assignments,
    read_embeddings,
    synth_embeddings,
    write_embeddings,
)
from .decomposition import (
    SubsystemEnsemble,
    decompose,
    pooled_heterogeneity,
    within_heterogeneity,
)
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
from .gaussian import (
    GaussianComponent,
    GaussianEnsemble,
    gaussian_between,
    gaussian_decomposition,
    gaussian_pool,
    gaussian_renyi,
    gaussian_within,
)
from .special import (
    BetaShape,
    beta_pdf,
    log_beta,
    log_gamma,
    reg_hyp3f2_unit,
    reg_inc_beta,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
