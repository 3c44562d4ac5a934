"""Weakly supervised multi-label learning with assume-negative targets and
large-loss rejection/correction."""

from .dataset import (
    FormatError,
    LabelState,
    PartialDataset,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    make_fraction_observed,
    make_single_positive,
    save_dataset,
)
from .evaluation import APResult, average_precision, grouped_map, mean_average_precision, phase_distribution
from .model import Classifier, OptimizerState, forward, grad_check, init_classifier, load_model, make_optimizer, save_model, step
from .schemes import (
    Scheme,
    SchemeConfig,
    apply_permanent_corrections,
    bce_elementwise,
    rejection_rate,
    select_large_losses,
)
from .trainer import EpochRecord, MemorizationTracker, RunReport, TrainConfig, TrainingDiverged, run, split

__version__ = "0.1.0"
