"""Multilinear subspace learning for labeled tensor data.

The package trains discriminant projections with four related criteria:
vectorized multi-class (``lda``) and class-specific (``csda``) analysis,
and their multilinear counterparts (``mda``, ``mcsda``) that learn one
small projection matrix per tensor mode through alternating eigensolves.
Trained models score samples by inverse distance to a projected
reference mean, which feeds one-vs-rest verification (average precision)
and classification (argmax score) pipelines.
"""

from .datasets import (
    DatasetFormatError,
    DatasetManifest,
    LabeledDataset,
    SynthSpec,
    load_dataset,
    save_dataset,
    stratified_split,
    synth_generate,
)
from .discriminant import (
    METHODS,
    TENSOR_METHODS,
    VECTOR_METHODS,
    ClassStatistics,
    DiscriminantModel,
    FitReport,
    TrainConfig,
    class_specific_objective,
    class_statistics,
    convergence_metric,
    csda_scatters,
    fit_class_specific,
    fit_csda,
    fit_lda,
    fit_mcsda,
    fit_mda,
    fit_one_vs_rest,
    lda_scatters,
    mda_mode_scatters,
    mode_k_class_specific_scatters,
    multiclass_objective,
    parameter_count,
    project,
    score_batch,
    similarity_score,
)
from .linalg import EigenBasis, ScatterPair, regularize, solve_ratio_trace
from .metrics import (
    MetricReport,
    average_precision,
    classification_report,
    mean_average_precision,
    predict_class,
    summarize_folds,
    verification_report,
)
from .model_io import load_model, save_model
from .tensor_ops import fold, mode_product, multi_project, unfold

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "unfold",
    "fold",
    "mode_product",
    "multi_project",
    "ScatterPair",
    "EigenBasis",
    "regularize",
    "solve_ratio_trace",
    "LabeledDataset",
    "DatasetManifest",
    "DatasetFormatError",
    "SynthSpec",
    "load_dataset",
    "save_dataset",
    "stratified_split",
    "synth_generate",
    "METHODS",
    "VECTOR_METHODS",
    "TENSOR_METHODS",
    "TrainConfig",
    "ClassStatistics",
    "FitReport",
    "DiscriminantModel",
    "class_statistics",
    "lda_scatters",
    "csda_scatters",
    "mode_k_class_specific_scatters",
    "mda_mode_scatters",
    "class_specific_objective",
    "multiclass_objective",
    "convergence_metric",
    "fit_lda",
    "fit_csda",
    "fit_mda",
    "fit_mcsda",
    "fit_class_specific",
    "fit_one_vs_rest",
    "project",
    "similarity_score",
    "score_batch",
    "parameter_count",
    "MetricReport",
    "average_precision",
    "mean_average_precision",
    "classification_report",
    "verification_report",
    "predict_class",
    "summarize_folds",
    "load_model",
    "save_model",
]
