"""mvsubspace: multi-view subspace learning.

Nine linear multi-view methods expressed as one regularized generalized
eigenproblem over stacked views, a deep extension trained on the spectral
objective, and the evaluation protocol (linear / 1-NN classification and
cross-modal retrieval) that goes with them.
"""

from .data import (
    IndicatorMatrix,
    MultiViewDataset,
    PcaReducer,
    build_indicator,
    load_dataset,
    make_target,
    pca_reduce,
    split_dataset,
)
from .deep import MlpConfig, MlpNetwork, TrainerConfig, forward, spectral_loss, train
from .evaluation import (
    LinearClassifier,
    RetrievalResult,
    accuracy,
    average_precision,
    classify,
    cross_modal_retrieve,
    knn1_classify,
    train_linear_classifier,
)
from .framework import (
    ModelSpec,
    SubspaceModel,
    embed,
    load_model,
    predict,
    save_model,
)
from .gevd import GevdProblem, GevdSolution, NumericalError, solve
from .methods import METHOD_NAMES, MethodId, build
from .methods import fit as fit_method
from .toy import make_toy_dataset, save_dataset

__version__ = "0.1.0"

__all__ = [
    "IndicatorMatrix",
    "MultiViewDataset",
    "PcaReducer",
    "build_indicator",
    "load_dataset",
    "make_target",
    "pca_reduce",
    "split_dataset",
    "MlpConfig",
    "MlpNetwork",
    "TrainerConfig",
    "forward",
    "spectral_loss",
    "train",
    "LinearClassifier",
    "RetrievalResult",
    "accuracy",
    "average_precision",
    "classify",
    "cross_modal_retrieve",
    "knn1_classify",
    "train_linear_classifier",
    "ModelSpec",
    "SubspaceModel",
    "embed",
    "load_model",
    "predict",
    "save_model",
    "GevdProblem",
    "GevdSolution",
    "NumericalError",
    "solve",
    "METHOD_NAMES",
    "MethodId",
    "build",
    "fit_method",
    "make_toy_dataset",
    "save_dataset",
    "__version__",
]
