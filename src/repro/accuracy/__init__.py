"""Accuracy harness: synthetic LMs, perplexity, and proxy tasks.

Reproduces the quantization accuracy results (Fig. 4, Fig. 6's y-axis,
Table 2) with a teacher–student construction; see
``repro.accuracy.synthetic_lm`` for the substitution argument.
"""

from repro.accuracy.harness import (
    FIG4_FAMILIES,
    Table2Row,
    fig4_study,
    table2_row,
)
from repro.accuracy.perplexity import (
    evaluate_perplexity,
    perplexity_delta,
    quantization_sweep,
)
from repro.accuracy.synthetic_lm import (
    MIXER_GAIN,
    TEMPERATURE,
    SyntheticLm,
    log_softmax,
    target_logprob,
)
from repro.accuracy.tasks import (
    TABLE2_TASKS,
    TaskItem,
    TaskSpec,
    build_items,
    choice_logprobs,
    sequence_logprob,
    task_accuracy,
)

__all__ = [
    "FIG4_FAMILIES",
    "Table2Row",
    "fig4_study",
    "table2_row",
    "evaluate_perplexity",
    "perplexity_delta",
    "quantization_sweep",
    "MIXER_GAIN",
    "TEMPERATURE",
    "SyntheticLm",
    "log_softmax",
    "target_logprob",
    "TABLE2_TASKS",
    "TaskItem",
    "TaskSpec",
    "build_items",
    "choice_logprobs",
    "sequence_logprob",
    "task_accuracy",
]
