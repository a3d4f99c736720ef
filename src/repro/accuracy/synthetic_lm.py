"""Teacher–student synthetic language models for the accuracy study.

The paper evaluates state quantization on pretrained checkpoints and
WikiText-2; offline, we substitute a *teacher–student* construction that
isolates exactly the quantity Figs. 4/6 and Table 2 measure — the
perplexity damage caused by storing the recurrent state (or KV cache) in
a low-precision format:

* the **teacher** is a randomly-initialized but structurally faithful
  model (``repro.models``) evaluated in float64; it defines the data
  distribution by sampling token streams from itself;
* each **student** shares the teacher's weights bit-for-bit and differs
  only in its state/KV storage format.

The teacher's perplexity on its own samples is the fp16 reference row;
any student excess perplexity is purely quantization-induced.  Because
the mechanism (swamping under round-to-nearest, noise under stochastic
rounding, one-shot KV quantization for transformers) is numerical rather
than linguistic, the *ordering* of formats transfers to real models.

Two calibrations keep the synthetic LM in the regime where the paper's
models live: the mixer output is amplified so the data depends on state
(not just the last token), and sampling uses a temperature that puts
teacher perplexity in the WikiText-like range.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.models.base import BaseLlm
from repro.models.config import Family, accuracy_spec
from repro.models.registry import build_model
from repro.quant.registry import get_format

#: softmax temperature of the synthetic LM (defines the data distribution)
TEMPERATURE = 5.0
#: amplification of each mixer's output projection, making generated text
#: depend on the recurrent state rather than only the previous token
MIXER_GAIN = 4.0


def log_softmax(logits: np.ndarray, temperature: float = TEMPERATURE) -> np.ndarray:
    """Temperature-scaled log-probabilities over the last axis."""
    z = logits / temperature
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))


def target_logprob(
    logits: np.ndarray, targets: np.ndarray, temperature: float = TEMPERATURE
) -> np.ndarray:
    """``log_softmax(logits, temperature)[row, targets[row]]`` for every
    row of (rows, vocab) logits, with :func:`log_softmax`'s operations but
    without building the full log-softmax."""
    z = logits / temperature
    z -= z.max(axis=-1, keepdims=True)
    picked = z[np.arange(len(targets)), targets]
    return picked - np.log(np.sum(np.exp(z), axis=-1))


def _amplify(model: BaseLlm, gain: float) -> BaseLlm:
    for layer in model.params["layers"]:
        layer["w_o"] = layer["w_o"] * gain
    return model


@dataclasses.dataclass
class SyntheticLm:
    """A teacher plus factory for format-quantized students."""

    family: Family
    seed: int = 1
    mixer_gain: float = MIXER_GAIN
    temperature: float = TEMPERATURE

    def __post_init__(self) -> None:
        self.spec = accuracy_spec(self.family)
        self.teacher = self.build_student(None)

    def build_student(self, format_name: str | None, quant_seed: int = 77) -> BaseLlm:
        """A weight-identical model storing state/KV in ``format_name``."""
        kwargs = {}
        if format_name is not None:
            kwargs["state_format"] = get_format(format_name)
            kwargs["kv_format"] = get_format(format_name)
            kwargs["quant_seed"] = quant_seed
        model = build_model(
            self.spec, rng=np.random.default_rng(self.seed), **kwargs
        )
        return _amplify(model, self.mixer_gain)

    def sample_stream(
        self, batch: int, seq_len: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample (batch, seq_len + 1) token ids from the teacher."""
        if batch < 1 or seq_len < 1:
            raise ValueError("batch and seq_len must be positive")
        vocab = self.spec.vocab_size
        tokens = np.zeros((batch, seq_len + 1), dtype=np.int64)
        tokens[:, 0] = rng.integers(0, vocab, size=batch)
        cache = self.teacher.init_cache(batch)
        for t in range(seq_len):
            logp = log_softmax(
                self.teacher.step(tokens[:, t], cache), self.temperature
            )
            probs = np.exp(logp)
            tokens[:, t + 1] = [rng.choice(vocab, p=p) for p in probs]
        return tokens

    def continue_stream(
        self,
        prefix: np.ndarray,
        n_tokens: int,
        rng: np.random.Generator,
        temperature: float | None = None,
    ) -> np.ndarray:
        """Sample ``n_tokens`` continuations of each prefix row."""
        prefix = np.asarray(prefix)
        cache = self.teacher.init_cache(prefix.shape[0])
        logits = None
        for t in range(prefix.shape[1]):
            logits = self.teacher.step(prefix[:, t], cache)
        temp = temperature if temperature is not None else self.temperature
        out = np.zeros((prefix.shape[0], n_tokens), dtype=np.int64)
        for t in range(n_tokens):
            probs = np.exp(log_softmax(logits, temp))
            out[:, t] = [rng.choice(self.spec.vocab_size, p=p) for p in probs]
            logits = self.teacher.step(out[:, t], cache)
        return out
