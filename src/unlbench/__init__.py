"""Desk-scale machine-unlearning benchmark.

Synthetic data with controllable class similarity, a small deterministic
classifier, nine unlearning methods plus exact retraining, and the full
logit- and representation-based metric suite (AGL, CKA, k-NN transfer,
AGR, H-LR, membership inference).
"""

from .data import (
    Dataset,
    DownstreamSpec,
    ForgetSplit,
    SyntheticSpec,
    generate_universe,
    split_random_forget,
    split_top_forget,
)
from .harness import (
    ExperimentConfig,
    RankedClasses,
    ScenarioSpec,
    default_method_config,
    emit_report,
    last_layer_analysis,
    run_scenario,
    select_top_classes,
    sweep_dp_noise,
    sweep_hyperparameters,
)
from .kernels import center_gram, gram_linear, hsic
from .metrics import (
    LogitGaps,
    MetricsReport,
    ReprScores,
    compute_agl,
    compute_agr,
    compute_cka,
    compute_hlr,
    compute_knn_accuracy,
    logit_gaps,
    mia_efficacy,
)
from .model import (
    MlpParams,
    ModelCheckpoint,
    TrainConfig,
    accuracy,
    forward,
    grad_cross_entropy,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_train,
)
from .rng import make_rng
from .unlearning import (
    METHODS,
    Centroids,
    UnlearnConfig,
    run_unlearning,
)

__version__ = "0.1.0"
