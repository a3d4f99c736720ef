"""Shared neural layers for the functional models (numpy, float64).

Everything a post-transformer block needs besides its sequence mixer:
RMSNorm, SwiGLU FFN, depthwise causal convolution (Mamba-2's ``Causal
Conv`` box in Fig. 2b), softplus discretization, projections, and softmax
attention over a KV cache.
"""

from __future__ import annotations

import copy

import numpy as np


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Root-mean-square layer norm over the last axis."""
    scale = np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + eps)
    return x / scale * weight


def silu(x: np.ndarray) -> np.ndarray:
    """Sigmoid-weighted linear unit."""
    return x * sigmoid(x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign for numerical stability at large |x|.
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x), stable for large x."""
    return np.logaddexp(0.0, x)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def swiglu_ffn(x: np.ndarray, w_gate: np.ndarray, w_up: np.ndarray,
               w_down: np.ndarray) -> np.ndarray:
    """SwiGLU feed-forward: down( silu(gate(x)) * up(x) )."""
    return (silu(x @ w_gate) * (x @ w_up)) @ w_down


class CausalConvState:
    """Rolling window buffer for single-token depthwise causal conv."""

    def __init__(self, batch: int, channels: int, width: int):
        if width < 1:
            raise ValueError("conv width must be >= 1")
        self.width = width
        self.buffer = np.zeros((batch, width, channels))

    def step(self, x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
        """Push one token (batch, channels); return the conv output.

        ``kernel`` has shape (width, channels) — depthwise.
        """
        if x.shape != self.buffer.shape[::2]:
            expected = (self.buffer.shape[0], self.buffer.shape[2])
            if x.shape != expected:
                raise ValueError(f"expected token shape {expected}, got {x.shape}")
        self.buffer = np.roll(self.buffer, -1, axis=1)
        self.buffer[:, -1, :] = x
        return np.einsum("bwc,wc->bc", self.buffer, kernel)

    def fork(self, n_copies: int) -> "CausalConvState":
        """A new state whose buffer repeats each row ``n_copies`` times,
        copies adjacent."""
        out = copy.copy(self)
        out.buffer = np.repeat(self.buffer, n_copies, axis=0)
        return out


def attention_step(
    q: np.ndarray, k_cache: np.ndarray, v_cache: np.ndarray
) -> np.ndarray:
    """Single-token multi-head attention.

    Shapes: q (batch, heads, dh); caches (batch, heads, seq, dh).
    """
    scores = np.einsum("bhd,bhsd->bhs", q, k_cache) / np.sqrt(q.shape[-1])
    weights = softmax(scores, axis=-1)
    return np.einsum("bhs,bhsd->bhd", weights, v_cache)
