"""Proxy multiple-choice tasks for Table 2.

The paper scores six models on PIQA, Lambada, HellaSwag, ARC-Easy,
ARC-Challenge and WinoGrande — all of which reduce to *pick the
continuation with the highest sequence log-likelihood*.  The offline
proxy keeps exactly that decision rule:

* each item has a context sampled from the teacher;
* the correct choice is a low-temperature (likely) teacher continuation
  of that context;
* distractors are likely continuations of *other* contexts, so choosing
  correctly requires carrying the context through the recurrent state.

Task definitions vary context length, continuation length and choice
count to mirror the benchmark suite's spread of difficulty.  Table 2's
claim — Pimba (MX8+SR) scores within noise of the fp16 GPU baseline — is
then checked on identical items.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.accuracy.synthetic_lm import SyntheticLm, log_softmax, target_logprob
from repro.models.base import BaseLlm


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    """Shape of one proxy benchmark."""

    name: str
    n_choices: int
    context_len: int
    continuation_len: int

    def __post_init__(self) -> None:
        if self.n_choices < 2:
            raise ValueError("need at least two choices")


#: proxies mirroring the paper's Table 2 column structure
TABLE2_TASKS = (
    TaskSpec("Piqa", n_choices=2, context_len=48, continuation_len=12),
    TaskSpec("Lambada", n_choices=2, context_len=96, continuation_len=4),
    TaskSpec("HellaSwag", n_choices=4, context_len=64, continuation_len=16),
    TaskSpec("ARC-E", n_choices=4, context_len=32, continuation_len=8),
    TaskSpec("ARC-C", n_choices=4, context_len=80, continuation_len=8),
    TaskSpec("WinoGrande", n_choices=2, context_len=64, continuation_len=6),
)


@dataclasses.dataclass(frozen=True)
class TaskItem:
    """One multiple-choice item."""

    context: np.ndarray  #: (context_len,)
    choices: np.ndarray  #: (n_choices, continuation_len)
    answer: int


#: tokens of the item context shared by the distractors' source contexts,
#: so local (bigram) cues cannot separate the choices — only the long-range
#: state can, which is what state quantization damages
SHARED_TAIL = 8


def build_items(
    lm: SyntheticLm,
    task: TaskSpec,
    n_items: int,
    rng: np.random.Generator,
) -> list[TaskItem]:
    """Generate items whose choices differ only through long-range context.

    Every choice is a likely teacher continuation of a context ending in
    the *same* ``SHARED_TAIL`` tokens as the item's context; only the
    earlier prefix (and therefore the recurrent state) differs.
    """
    if n_items < 1:
        raise ValueError("n_items must be positive")
    contexts = lm.sample_stream(n_items * task.n_choices, task.context_len, rng)
    contexts = contexts[:, 1:]  # drop the random seed token
    items = []
    for i in range(n_items):
        block = slice(i * task.n_choices, (i + 1) * task.n_choices)
        ctx_block = contexts[block].copy()
        # All source contexts share the item context's tail.
        ctx_block[:, -SHARED_TAIL:] = ctx_block[0, -SHARED_TAIL:]
        cont_block = lm.continue_stream(
            ctx_block, task.continuation_len, rng,
            temperature=lm.temperature / 2,
        )
        answer = int(rng.integers(task.n_choices))
        items.append(TaskItem(
            context=ctx_block[0],
            choices=cont_block[_place_answer(task.n_choices, answer)],
            answer=answer,
        ))
    return items


def _place_answer(n_choices: int, answer: int) -> np.ndarray:
    """Index order putting choice 0 (the correct one) at ``answer``."""
    order = np.empty(n_choices, dtype=np.int64)
    order[answer] = 0
    others = [i for i in range(n_choices) if i != answer]
    for slot, src in zip(others, range(1, n_choices)):
        order[slot] = src
    return order


def sequence_logprob(
    model: BaseLlm,
    context: np.ndarray,
    continuation: np.ndarray,
    temperature: float,
) -> float:
    """Log-likelihood of ``continuation`` given ``context``."""
    tokens = np.concatenate([context, continuation])[None, :]
    logits = model.forward(tokens[:, :-1])
    logp = log_softmax(logits, temperature)
    targets = tokens[:, 1:]
    per_pos = np.take_along_axis(logp, targets[:, :, None], axis=2)[0, :, 0]
    return float(per_pos[len(context) - 1:].sum())


def choice_logprobs(
    model: BaseLlm,
    items: list[TaskItem],
    temperature: float,
) -> np.ndarray:
    """Log-likelihood of every choice of every item, as (items, choices).

    The items must share one context length and one choices shape.  Their
    contexts run once, one row per item; the recurrent cache is then
    forked once per choice and the continuations run as ``items *
    choices`` rows.  Each step keeps only the targets' log-probs, never a
    (batch, seq, vocab) logit tensor.  Matches :func:`sequence_logprob`
    to float rounding (BLAS reduces a batch in a different order).
    """
    if not items:
        raise ValueError("items must not be empty")
    contexts = np.stack([item.context for item in items])
    choices = np.stack([item.choices for item in items])
    n_items, n_choices, cont_len = choices.shape
    if contexts.shape[1] < 1 or cont_len < 1:
        raise ValueError("contexts and continuations must be non-empty")
    cache = model.init_cache(n_items)
    for token in contexts.T:
        logits = model.step(token, cache)
    cache = model.fork_cache(cache, n_choices)
    logits = np.repeat(logits, n_choices, axis=0)
    targets = choices.reshape(n_items * n_choices, cont_len)
    total = np.zeros(n_items * n_choices)
    for t in range(cont_len):
        total += target_logprob(logits, targets[:, t], temperature)
        if t + 1 < cont_len:
            logits = model.step(targets[:, t], cache)
    return total.reshape(n_items, n_choices)


def task_accuracy(
    model: BaseLlm,
    items: list[TaskItem],
    temperature: float,
) -> float:
    """Fraction of items where the model ranks the true continuation first.

    Items are scored in batches of one shape (context length and choices
    shape), in order of each shape's first appearance.
    """
    if not items:
        raise ValueError("items must not be empty")
    by_shape: dict[tuple, list[TaskItem]] = {}
    for item in items:
        key = (len(item.context), np.shape(item.choices))
        by_shape.setdefault(key, []).append(item)
    correct = 0
    for group in by_shape.values():
        scores = choice_logprobs(model, group, temperature)
        answers = np.array([item.answer for item in group])
        correct += int(np.sum(np.argmax(scores, axis=1) == answers))
    return correct / len(items)
