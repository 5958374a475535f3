"""prunekit: a self-contained neural-network sparsification engine.

Four orthogonal knobs describe any pruning technique: granularity (how),
context (where), criterion (what), schedule (when). Static pruning goes
through Sparsifier, and training-time pruning, lottery-ticket experiments
included, through SparsifyCallback.
"""

from .criteria import CRITERIA, Criterion, score
from .datasets import make_dataset, train_eval_split
from .fields import FieldError
from .granularity import (BlockPartition, aggregate_scores, all_specs, enumerate_blocks,
                          parse_granularity)
from .layers import Conv2d, Dense, Flatten, Model, ReLU
from .rng import Rng
from .schedule import (BUILTIN_SCHEDULES, ScheduleSpec, current_target, eval_schedule,
                       register_custom_schedule, window_steps)
from .selection import (ContextSpec, LayerScores, pruned_count, select, select_global,
                        select_local)
from .sparsifier import (Sparsifier, SparsifyCallback, SparsifyPlan, Ticket,
                         compute_masks, model_sparsity)
from .tensor import init_weights, sparsity_of
from .train import Callback, TrainConfig, TrainingAborted, accuracy, fit, sgd_step

__version__ = "0.1.0"
