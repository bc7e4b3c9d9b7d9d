"""latentpath: latent-variable path models over covariance data.

Parse a lavaan-style model description, estimate it by maximum likelihood
against a sample covariance matrix, and report fit indices, reliability
and validity statistics, exploratory factor structure, and mediation
effect decompositions with bootstrap intervals.
"""

from .data import (
    Dataset,
    SampleMoments,
    covariance,
    load_table,
    save_table,
)
from .efa import LoadingMatrix, extract, rotated_component_table, varimax
from .effects import (
    EffectDecomposition,
    EffectMatrices,
    bootstrap_ci,
    classify_hypotheses,
    decompose,
    decompose_fit,
    delta_ci,
)
from .errors import (
    DataError,
    EstimationError,
    LatentPathError,
    ModelSpecificationError,
    ModelSyntaxError,
    NotPositiveDefiniteError,
    UnderIdentifiedError,
)
from .fit_indices import FitIndices, baseline, from_fit, indices
from .model import (
    ModelSpec,
    ParamMatrices,
    build_matrices,
    count_df,
    parse_model,
)
from .reliability import (
    average_variance_extracted,
    bartlett,
    composite_reliability,
    cronbach_alpha,
    fornell_larcker,
    kmo,
)
from .sem import (
    EstimationOptions,
    FitResult,
    f_ml,
    fit,
    implied_covariance,
    simulate,
    standardize,
    start_values,
    theta_from_config,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "SampleMoments", "covariance", "load_table", "save_table",
    "LoadingMatrix", "extract", "varimax", "rotated_component_table",
    "EffectDecomposition", "EffectMatrices", "bootstrap_ci",
    "classify_hypotheses", "decompose", "decompose_fit", "delta_ci",
    "LatentPathError", "ModelSyntaxError", "ModelSpecificationError",
    "DataError", "NotPositiveDefiniteError", "UnderIdentifiedError",
    "EstimationError",
    "FitIndices", "baseline", "from_fit", "indices",
    "ModelSpec", "ParamMatrices", "parse_model",
    "build_matrices", "count_df",
    "cronbach_alpha", "composite_reliability", "average_variance_extracted",
    "kmo", "bartlett", "fornell_larcker",
    "EstimationOptions", "FitResult", "f_ml", "fit", "implied_covariance",
    "simulate", "standardize",
    "start_values", "theta_from_config",
    "__version__",
]
