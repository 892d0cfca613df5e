"""tsclab: a self-contained deep-learning engine and evaluation harness
for time series classification.

Nine classifiers (eight gradient-trained networks plus an echo-state
reservoir), a seeded multi-run experiment protocol with rank-based
statistical comparison, and two interpretability tools (class activation
maps and metric MDS of the learned feature space).
"""

from .data import (
    SlicingConfig,
    TimeSeriesDataset,
    load_pair,
    load_single,
    one_hot,
    split_train_val,
    window_warp,
)
from .models import (
    ARCHITECTURES,
    ModelSpec,
    TrainedModel,
    build_model,
    forward,
    load_model,
    predict,
    save_model,
)
from .optim import TrainConfig, TrainHistory, default_config, train
from .reservoir import ReservoirConfig, TwiesnModel, twiesn_fit, twiesn_predict
from .stats import (
    ComparisonReport,
    ResultsTable,
    RunRecord,
    aggregate,
    average_ranks,
    compare_classifiers,
    form_cliques,
    friedman_test,
    holm_correction,
    render_cd_diagram,
    wilcoxon_signed_rank,
)
from .cli import ExperimentConfig, run_experiment
from .explain import CamOutput, MdsEmbedding, compute_cam, distance_matrix, gap_features, mds_embed
from .tensor import SplitMix64, glorot_uniform

__version__ = "0.1.0"

__all__ = [
    "ARCHITECTURES",
    "CamOutput",
    "ComparisonReport",
    "ExperimentConfig",
    "MdsEmbedding",
    "ModelSpec",
    "ReservoirConfig",
    "ResultsTable",
    "RunRecord",
    "SlicingConfig",
    "SplitMix64",
    "TimeSeriesDataset",
    "TrainConfig",
    "TrainHistory",
    "TrainedModel",
    "TwiesnModel",
    "aggregate",
    "average_ranks",
    "build_model",
    "compare_classifiers",
    "compute_cam",
    "default_config",
    "distance_matrix",
    "form_cliques",
    "forward",
    "friedman_test",
    "gap_features",
    "glorot_uniform",
    "holm_correction",
    "load_model",
    "load_pair",
    "load_single",
    "mds_embed",
    "one_hot",
    "predict",
    "render_cd_diagram",
    "run_experiment",
    "save_model",
    "split_train_val",
    "train",
    "twiesn_fit",
    "twiesn_predict",
    "wilcoxon_signed_rank",
    "window_warp",
]
