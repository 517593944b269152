"""Batch-difficulty-scaled Adam with its full experimental apparatus.

The package bundles, in pure NumPy:

- the Adam family (Adam, AMSGrad, AdamW, AdaBound) plus a variant whose
  global learning rate is rescaled per batch by a difficulty score built
  from EMA-normalized gradient norms and batch losses
- a stacked bidirectional LSTM classifier with exact hand-derived BPTT
  gradients, checked against central finite differences
- imbalance tooling: one focal-form loss whose cases are cross-entropy,
  class-weighted cross-entropy and multiclass focal loss, plus SMOTE-ENN and
  ADASYN resampling
- evaluation and a multi-seed experiment harness with paired t-tests and
  Cohen's d effect sizes

See the demos/ directory for narrative walkthroughs and `python -m dbsadam`
for the experiment CLI.
"""

from .data import (
    FeatureEncoder,
    FeatureSchema,
    LabeledDataset,
    class_distribution,
    load_csv_dataset,
    synthetic_benchmark,
)
from .evaluation import (
    MetricsReport,
    SignificanceResult,
    aggregate_runs,
    cohens_d,
    confusion_matrix,
    metrics_from_confusion,
    paired_t_test,
    split_indices,
)
from .harness import (
    ComparisonReport,
    ConfigError,
    ExperimentConfig,
    RunResult,
    compare_optimizers,
    emit_report,
    load_config,
    sensitivity_sweep,
    train,
)
from .losses import (
    LossConfig,
    loss_gradient,
    loss_per_sample,
    loss_value,
    one_hot,
    softmax,
)
from .models import (
    SequenceNetwork,
    network_backward,
    network_forward,
)
from .numerics import (
    SeededRng,
    finite_difference_gradient,
)
from .optimizers import (
    DifficultyTracker,
    OptimizerConfig,
    OptimizerState,
    adabound_step,
    adam_step,
    adamw_step,
    amsgrad_step,
    dbs_adam_step,
    observe_batch,
)
from .resampling import (
    NeighborIndex,
    adasyn_generate,
    enn_filter,
    smote_enn,
    smote_generate,
)

__version__ = "0.1.0"
