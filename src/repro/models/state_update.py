"""The generalized state-update operation (Eq. 2) shared by all SU-LLMs.

    S_t = d_t ⊙ S_{t-1} + k_t v_tᵀ
    y_t = S_tᵀ q_t

``d_t``, ``q_t``, ``k_t`` have ``dim_head`` elements, ``v_t`` has
``dim_state`` elements, and the per-head state is a ``(dim_head,
dim_state)`` matrix.  The decay ``d_t`` may be a scalar (RetNet, Mamba-2)
or a vector gate broadcast along ``dim_state`` (GLA, HGRN2) — Section 2.2.

:class:`StateUpdateOp` optionally quantizes the *stored* state with any
``repro.quant`` format, which is exactly how a Pimba device (or a
quantized GPU baseline) would hold it.  This single class is the hinge of
the whole accuracy study: Fig. 4 is this op iterated thousands of steps
under nine formats.
"""

from __future__ import annotations

import numpy as np

from repro.quant.formats import StorageFormat


def state_update_step(
    state: np.ndarray,
    d: np.ndarray | float,
    k: np.ndarray,
    v: np.ndarray,
    q: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One full-precision Eq. 2 step; leading axes broadcast (batch, heads).

    Shapes: state (..., H, dh, ds); d scalar, (..., H) or (..., H, dh);
    k, q (..., H, dh); v (..., H, ds).
    """
    new_state = _next_state(state, d, k, v)
    return new_state, _state_output(new_state, q)


def _next_state(
    state: np.ndarray, d: np.ndarray | float, k: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """``d ⊙ S + k vᵀ`` with the decay broadcast by its rank."""
    d_arr = np.asarray(d, dtype=np.float64)
    if d_arr.ndim == state.ndim - 1:  # per-head vector gate
        decay = d_arr[..., :, None]
    elif d_arr.ndim == state.ndim - 2:  # per-head scalar decay
        decay = d_arr[..., None, None]
    elif d_arr.ndim == 0:
        decay = d_arr
    else:
        raise ValueError(
            f"decay with {d_arr.ndim} dims does not match state with {state.ndim}"
        )
    return decay * state + k[..., :, None] * v[..., None, :]


def _state_output(state: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The output GEMV ``Sᵀ q``."""
    return np.einsum("...hs,...h->...s", state, q)


class StateUpdateOp:
    """Stateful Eq. 2 executor with optional quantized state storage."""

    def __init__(
        self,
        state_format: StorageFormat | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.state_format = state_format
        self.rng = rng
        if state_format is not None and state_format.is_stochastic and rng is None:
            raise ValueError("stochastic storage formats need an rng")

    def __call__(
        self,
        state: np.ndarray,
        d: np.ndarray | float,
        k: np.ndarray,
        v: np.ndarray,
        q: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run one step; the returned state has been through storage."""
        if self.state_format is None:
            return state_update_step(state, d, k, v, q)
        new_state = self.state_format.quantize(
            _next_state(state, d, k, v), rng=self.rng
        )
        # The output GEMV reads the *stored* state (it is computed from the
        # row-buffer contents on hardware).
        return new_state, _state_output(new_state, q)
