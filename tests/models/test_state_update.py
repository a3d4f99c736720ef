"""Tests for the generalized state-update op (Eq. 2)."""

import numpy as np
import pytest

from repro.models.state_update import StateUpdateOp, state_update_step
from repro.quant.registry import get_format


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestStateUpdateStep:
    def test_scalar_decay_broadcasts(self, rng):
        state = rng.normal(size=(2, 4, 8, 6))  # (batch, H, dh, ds)
        d = rng.uniform(0.5, 1.0, size=(2, 4))
        k = rng.normal(size=(2, 4, 8))
        v = rng.normal(size=(2, 4, 6))
        q = rng.normal(size=(2, 4, 8))
        new_state, y = state_update_step(state, d, k, v, q)
        expected = d[..., None, None] * state + k[..., :, None] * v[..., None, :]
        np.testing.assert_allclose(new_state, expected)
        assert y.shape == (2, 4, 6)

    def test_vector_gate_broadcasts_along_state_dim(self, rng):
        state = rng.normal(size=(3, 2, 4, 5))
        d = rng.uniform(size=(3, 2, 4))
        k = rng.normal(size=(3, 2, 4))
        v = rng.normal(size=(3, 2, 5))
        q = rng.normal(size=(3, 2, 4))
        new_state, _ = state_update_step(state, d, k, v, q)
        expected = d[..., :, None] * state + k[..., :, None] * v[..., None, :]
        np.testing.assert_allclose(new_state, expected)

    def test_output_is_transposed_state_gemv(self, rng):
        state = rng.normal(size=(4, 6))
        k = rng.normal(size=4)
        v = rng.normal(size=6)
        q = rng.normal(size=4)
        new_state, y = state_update_step(state, 0.9, k, v, q)
        np.testing.assert_allclose(y, new_state.T @ q)

    def test_bad_decay_rank_rejected(self, rng):
        state = rng.normal(size=(2, 4, 8, 6))
        with pytest.raises(ValueError):
            state_update_step(state, rng.normal(size=(2,)), state[..., 0],
                              state[..., 0, :], state[..., 0])

    def test_zero_decay_erases_history(self, rng):
        state = rng.normal(size=(4, 6))
        k = rng.normal(size=4)
        v = rng.normal(size=6)
        new_state, _ = state_update_step(state, 0.0, k, v, k)
        np.testing.assert_allclose(new_state, np.outer(k, v))


class TestStateUpdateOp:
    def test_exact_without_format(self, rng):
        op = StateUpdateOp()
        state = rng.normal(size=(2, 2, 8, 8))
        args = (rng.uniform(size=(2, 2)), rng.normal(size=(2, 2, 8)),
                rng.normal(size=(2, 2, 8)), rng.normal(size=(2, 2, 8)))
        got, got_y = op(state, *args)
        want, want_y = state_update_step(state, *args)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_y, want_y)

    def test_quantized_state_is_on_lattice(self, rng):
        fmt = get_format("mx8")
        op = StateUpdateOp(fmt)
        state = rng.normal(size=(2, 2, 16, 16))
        args = (rng.uniform(size=(2, 2)), rng.normal(size=(2, 2, 16)),
                rng.normal(size=(2, 2, 16)), rng.normal(size=(2, 2, 16)))
        got, _ = op(state, *args)
        np.testing.assert_array_equal(fmt.quantize(got), got)

    def test_stochastic_format_requires_rng(self):
        with pytest.raises(ValueError):
            StateUpdateOp(get_format("mx8SR"))

    def test_output_computed_from_stored_state(self, rng):
        fmt = get_format("e5m2")
        op = StateUpdateOp(fmt)
        state = np.zeros((1, 1, 16, 16))
        d = np.ones((1, 1))
        k = rng.normal(size=(1, 1, 16))
        v = rng.normal(size=(1, 1, 16))
        q = rng.normal(size=(1, 1, 16))
        new_state, y = op(state, d, k, v, q)
        np.testing.assert_allclose(
            y, np.einsum("bhds,bhd->bhs", new_state, q)
        )

    @pytest.mark.parametrize("name", ["mx8", "mx8SR", "e5m2SR", "int8"])
    def test_stored_state_and_its_output_are_pinned(self, rng, name):
        """A formatted step stores quantize(exact state) with one draw
        from the op's stream, and reads y from the stored state."""
        fmt = get_format(name)
        state = rng.normal(size=(3, 2, 16, 24))
        args = (rng.uniform(size=(3, 2, 16)), rng.normal(size=(3, 2, 16)),
                rng.normal(size=(3, 2, 24)), rng.normal(size=(3, 2, 16)))
        op = StateUpdateOp(fmt, np.random.default_rng(5))
        got_state, got_y = op(state, *args)
        exact, _ = state_update_step(state, *args)
        want_state = fmt.quantize(exact, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(got_state, want_state)
        np.testing.assert_array_equal(
            got_y, np.einsum("bhds,bhd->bhs", want_state, args[3])
        )
