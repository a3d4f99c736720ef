"""Base functional LLM: embeddings, blocks, generation loop.

Models here are *functional* reproductions: random-but-structured weights
at configurable width, exercising exactly the per-token compute graph of
Fig. 2 (projections → mixer → FFN with residuals and norms).  They exist
so the quantization study (Figs. 4/6, Table 2) can measure how storage
formats perturb a real forward pass, and so tests can validate the serving
stack end to end.  ``repro.accuracy`` builds its teacher–student harness
on top.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.models.config import ModelSpec
from repro.models.layers import CausalConvState, rms_norm, swiglu_ffn
from repro.models.state_update import StateUpdateOp
from repro.quant.formats import StorageFormat


class BaseLlm(abc.ABC):
    """A decoder-only LM with a pluggable per-layer sequence mixer.

    Args:
        spec: architecture hyper-parameters.
        rng: weight-initialization generator (models with the same seed and
            spec are identical — the teacher/student trick).
        state_format: storage format applied to recurrent state every step
            (None = exact fp64 reference, the paper's "GPU" rows).
        kv_format: storage format applied to KV-cache entries *once* at
            append time (the transformer quantization semantics).
        quant_seed: seed of the stochastic-rounding stream, independent of
            the weights.
    """

    def __init__(
        self,
        spec: ModelSpec,
        rng: np.random.Generator | None = None,
        state_format: StorageFormat | None = None,
        kv_format: StorageFormat | None = None,
        quant_seed: int = 1234,
    ):
        self.spec = spec
        rng = rng or np.random.default_rng(0)
        self._quant_rng = np.random.default_rng(quant_seed)
        self.state_format = state_format
        self.kv_format = kv_format
        self.state_op = StateUpdateOp(state_format, self._quant_rng)
        self.params = self._build_params(rng)

    # -- parameter construction ---------------------------------------------

    def _build_params(self, rng: np.random.Generator) -> dict:
        s = self.spec
        scale = 1.0 / np.sqrt(s.d_model)
        params = {
            "embedding": rng.normal(scale=1.0, size=(s.vocab_size, s.d_model)),
            "final_norm": np.ones(s.d_model),
            "layers": [],
        }
        for li in range(s.n_layers):
            layer = {
                "ln1": np.ones(s.d_model),
                "w_q": rng.normal(scale=scale, size=(s.d_model, s.qk_width)),
                "w_k": rng.normal(scale=scale, size=(s.d_model, s.qk_width)),
                "w_v": rng.normal(
                    scale=scale, size=(s.d_model, s.n_heads * s.dim_state)
                ),
                "w_o": rng.normal(
                    scale=1.0 / np.sqrt(s.n_heads * s.dim_state),
                    size=(s.n_heads * s.dim_state, s.d_model),
                ),
                "y_norm": np.ones(s.n_heads * s.dim_state),
            }
            if s.ffn_mult:
                hidden = s.ffn_mult * s.d_model
                layer.update(
                    ln2=np.ones(s.d_model),
                    w_gate=rng.normal(scale=scale, size=(s.d_model, hidden)),
                    w_up=rng.normal(scale=scale, size=(s.d_model, hidden)),
                    w_down=rng.normal(
                        scale=1.0 / np.sqrt(hidden), size=(hidden, s.d_model)
                    ),
                )
            layer.update(self._build_mixer(rng, li))
            params["layers"].append(layer)
        return params

    @abc.abstractmethod
    def _build_mixer(self, rng: np.random.Generator, layer_index: int) -> dict:
        """Family-specific mixer parameters for one layer."""

    @abc.abstractmethod
    def _mixer_step(self, layer_index: int, x: np.ndarray, cache: dict) -> np.ndarray:
        """One token through the layer's sequence mixer.

        Args:
            x: normalized block input, (batch, d_model).
            cache: this layer's mutable recurrent cache.
        Returns the mixer output, (batch, d_model).
        """

    @abc.abstractmethod
    def _init_layer_cache(self, layer_index: int, batch: int) -> dict:
        """Fresh recurrent cache for one layer."""

    # -- projections shared by every SU mixer --------------------------------

    def _project_qkv(
        self, layer: dict, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project to per-head q, k, v with 1/sqrt(dh) query scaling.

        Models with ``shared_qk`` (Mamba-2 family: B/C shared across heads)
        broadcast one q/k vector to every head.
        """
        s = self.spec
        batch = x.shape[0]
        q = x @ layer["w_q"]
        k = x @ layer["w_k"]
        if s.shared_qk:
            q = np.broadcast_to(q[:, None, :], (batch, s.n_heads, s.dim_head))
            k = np.broadcast_to(k[:, None, :], (batch, s.n_heads, s.dim_head))
        else:
            q = q.reshape(batch, s.n_heads, s.dim_head)
            k = k.reshape(batch, s.n_heads, s.dim_head)
        v = (x @ layer["w_v"]).reshape(batch, s.n_heads, s.dim_state)
        return q / np.sqrt(s.dim_head), k / np.sqrt(s.dim_head), v

    def _mixer_output(self, layer: dict, y: np.ndarray) -> np.ndarray:
        """Normalize per-head outputs and project back to d_model."""
        batch = y.shape[0]
        flat = y.reshape(batch, -1)
        return rms_norm(flat, layer["y_norm"]) @ layer["w_o"]

    # -- generation ----------------------------------------------------------

    def init_cache(self, batch: int) -> list[dict]:
        """Fresh caches for a batch of sequences."""
        if batch <= 0:
            raise ValueError("batch must be positive")
        return [self._init_layer_cache(li, batch) for li in range(self.spec.n_layers)]

    def step(self, tokens: np.ndarray, cache: list[dict]) -> np.ndarray:
        """One generation step: token ids (batch,) -> logits (batch, vocab)."""
        tokens = np.asarray(tokens)
        if tokens.ndim != 1:
            raise ValueError("step expects a 1-D batch of token ids")
        params = self.params
        x = params["embedding"][tokens]
        for li, layer in enumerate(params["layers"]):
            h = rms_norm(x, layer["ln1"])
            x = x + self._mixer_step(li, h, cache[li])
            if self.spec.ffn_mult:
                h = rms_norm(x, layer["ln2"])
                x = x + swiglu_ffn(h, layer["w_gate"], layer["w_up"], layer["w_down"])
        x = rms_norm(x, params["final_norm"])
        return x @ params["embedding"].T

    def fork_cache(self, cache: list[dict], n_copies: int) -> list[dict]:
        """Independent copy of ``cache`` with every row repeated
        ``n_copies`` times: row ``i`` becomes rows ``i * n_copies`` to
        ``(i + 1) * n_copies - 1``, as ``np.repeat`` orders them.

        Covers every cache entry the mixers keep: state arrays, KV lists
        and :class:`CausalConvState` buffers.
        """
        if n_copies < 1:
            raise ValueError("n_copies must be positive")
        return [
            {key: _fork_entry(value, n_copies) for key, value in layer.items()}
            for layer in cache
        ]

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        """Teacher-forced pass over (batch, seq); returns (batch, seq, vocab)."""
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError("forward expects (batch, seq) token ids")
        cache = self.init_cache(tokens.shape[0])
        logits = [self.step(tokens[:, t], cache) for t in range(tokens.shape[1])]
        return np.stack(logits, axis=1)

    # -- KV-cache helpers for attention mixers --------------------------------

    def _append_kv(self, cache: dict, k: np.ndarray, v: np.ndarray) -> None:
        """Append one token's K/V (batch, heads, dh), quantizing once."""
        if self.kv_format is not None:
            rng = self._quant_rng if self.kv_format.is_stochastic else None
            k = self.kv_format.quantize(k, rng=rng)
            v = self.kv_format.quantize(v, rng=rng)
        cache["k"].append(k)
        cache["v"].append(v)


def _fork_entry(value, n_copies: int):
    if isinstance(value, np.ndarray):
        return np.repeat(value, n_copies, axis=0)
    if isinstance(value, list):
        return [np.repeat(entry, n_copies, axis=0) for entry in value]
    if isinstance(value, CausalConvState):
        return value.fork(n_copies)
    raise TypeError(f"cannot fork a cache entry of type {type(value).__name__}")
