"""Batched, prefix-shared scoring against the serial ``forward`` oracle.

``choice_logprobs`` runs each item's context once and forks the cache per
choice; ``sequence_logprob`` re-runs the whole sequence for every choice
through ``BaseLlm.forward``.  BLAS reduces a batch in a different order,
so the two agree to float rounding, not bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from repro.accuracy import (
    TEMPERATURE,
    SyntheticLm,
    TaskItem,
    TaskSpec,
    build_items,
    choice_logprobs,
    sequence_logprob,
    task_accuracy,
)
from repro.models import Family
from repro.models.config import accuracy_spec
from repro.models.registry import build_model
from repro.quant.registry import get_format

FAMILIES = [
    Family.RETNET,
    Family.GLA,
    Family.HGRN2,
    Family.MAMBA2,
    Family.ZAMBA2,
    Family.TRANSFORMER,
]


def _model(family: Family, fmt: str | None):
    spec = accuracy_spec(family)
    if family is Family.ZAMBA2:
        # Enough layers for one attention layer next to the Mamba-2 ones.
        spec = dataclasses.replace(spec, n_layers=spec.attn_every + 1)
    kwargs = {}
    if fmt is not None:
        kwargs = {"state_format": get_format(fmt), "kv_format": get_format(fmt)}
    return build_model(spec, rng=np.random.default_rng(1), **kwargs)


def _random_items(vocab, n_items, n_choices, context_len, continuation_len):
    rng = np.random.default_rng(n_items * 100 + context_len)
    return [
        TaskItem(
            context=rng.integers(0, vocab, size=context_len),
            choices=rng.integers(0, vocab, size=(n_choices, continuation_len)),
            answer=int(rng.integers(n_choices)),
        )
        for _ in range(n_items)
    ]


def _serial_logprobs(model, items, temperature):
    return np.array([
        [sequence_logprob(model, item.context, c, temperature) for c in item.choices]
        for item in items
    ])


@pytest.mark.parametrize("fmt", [None, "mx8"], ids=["teacher", "mx8"])
@pytest.mark.parametrize("family", FAMILIES, ids=[f.value for f in FAMILIES])
def test_batched_logprobs_match_the_serial_oracle(family, fmt):
    model = _model(family, fmt)
    items = _random_items(model.spec.vocab_size, 4, 3, 10, 5)
    batched = choice_logprobs(model, items, TEMPERATURE)
    serial = _serial_logprobs(model, items, TEMPERATURE)
    assert batched.shape == (4, 3)
    assert np.max(np.abs(batched - serial)) <= 1e-9
    np.testing.assert_array_equal(batched.argmax(axis=1), serial.argmax(axis=1))


def test_one_token_continuations_score_the_context_logits():
    model = _model(Family.GLA, None)
    items = _random_items(model.spec.vocab_size, 3, 2, 6, 1)
    np.testing.assert_allclose(
        choice_logprobs(model, items, TEMPERATURE),
        _serial_logprobs(model, items, TEMPERATURE),
        rtol=0, atol=1e-9,
    )


@pytest.fixture(scope="module")
def gla_lm():
    return SyntheticLm(Family.GLA)


def test_empty_items_rejected(gla_lm):
    with pytest.raises(ValueError, match="empty"):
        task_accuracy(gla_lm.teacher, [], gla_lm.temperature)
    with pytest.raises(ValueError, match="empty"):
        choice_logprobs(gla_lm.teacher, [], gla_lm.temperature)


def test_mixed_shapes_are_grouped_and_each_group_batched(gla_lm):
    rng = np.random.default_rng(8)
    specs = [
        TaskSpec("a", n_choices=2, context_len=12, continuation_len=4),
        TaskSpec("longer-context", n_choices=2, context_len=20, continuation_len=4),
        TaskSpec("more-choices", n_choices=3, context_len=12, continuation_len=6),
    ]
    groups = [build_items(gla_lm, spec, 3, rng) for spec in specs]
    mixed = [item for row in zip(*groups) for item in row]  # interleaved

    model = gla_lm.teacher
    rows = []
    step = model.step
    model.step = lambda tokens, cache: rows.append(len(tokens)) or step(tokens, cache)
    try:
        got = task_accuracy(model, mixed, gla_lm.temperature)
    finally:
        del model.step
    wins = [
        np.argmax(_serial_logprobs(model, [item], gla_lm.temperature)[0])
        == item.answer
        for item in mixed
    ]
    assert got == pytest.approx(np.mean(wins), abs=1e-12)
    # One pass per shape: the contexts at 3 rows, then every choice.
    want_rows = []
    for spec in specs:
        want_rows += [3] * spec.context_len
        want_rows += [3 * spec.n_choices] * (spec.continuation_len - 1)
    assert rows == want_rows
