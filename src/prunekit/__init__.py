"""prunekit: a self-contained neural-network sparsification engine.

Four orthogonal knobs describe any pruning technique: granularity (how),
context (where), criterion (what), schedule (when). Static pruning goes
through Sparsifier, training-time pruning through SparsifyCallback, and
lottery-ticket experiments through run_lth.
"""

from .criteria import CRITERIA, Criterion, score
from .datasets import make_dataset, train_eval_split
from .fields import FieldError
from .granularity import (BlockPartition, GranularitySpec, aggregate_scores, all_specs,
                          enumerate_blocks, parse_granularity)
from .layers import Conv2d, Dense, Flatten, Model, ReLU
from .rng import Rng
from .schedule import (BUILTIN_SCHEDULES, ScheduleSpec, current_target, eval_schedule,
                       register_custom_schedule, window_steps)
from .selection import (ContextSpec, LayerScores, pruned_count, select, select_global,
                        select_local, select_per_layer)
from .sparsifier import (Sparsifier, SparsifyCallback, SparsifyPlan, Ticket,
                         compute_masks, model_sparsity, run_lth)
from .tensor import apply_mask, init_weights, sparsity_of
from .train import Callback, TrainConfig, TrainingAborted, accuracy, fit, sgd_step

__version__ = "0.1.0"
