"""Tests for the six functional models."""

import numpy as np
import pytest

from repro.models import Family, build_tiny, spec_for, tiny_spec
from repro.models.registry import MODEL_NAMES, build_model
from repro.quant.registry import get_format

ALL_FAMILIES = list(Family)


@pytest.fixture(scope="module")
def tokens():
    rng = np.random.default_rng(0)
    return rng.integers(0, 256, size=(2, 12))


class TestAllFamilies:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_step_produces_finite_logits(self, family, tokens):
        model = build_tiny(family)
        cache = model.init_cache(batch=2)
        logits = model.step(tokens[:, 0], cache)
        assert logits.shape == (2, model.spec.vocab_size)
        assert np.all(np.isfinite(logits))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_forward_shape(self, family, tokens):
        model = build_tiny(family)
        logits = model.forward(tokens)
        assert logits.shape == (2, 12, model.spec.vocab_size)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_deterministic_given_seed(self, family, tokens):
        a = build_tiny(family, seed=5).forward(tokens)
        b = build_tiny(family, seed=5).forward(tokens)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_different_seeds_differ(self, family, tokens):
        a = build_tiny(family, seed=1).forward(tokens)
        b = build_tiny(family, seed=2).forward(tokens)
        assert not np.allclose(a, b)

    @pytest.mark.parametrize(
        "family", [f for f in ALL_FAMILIES if f is not Family.TRANSFORMER]
    )
    def test_state_depends_on_history(self, family):
        # Same final token, different prefix -> different logits (the state
        # carries context).
        model = build_tiny(family)
        rng = np.random.default_rng(1)
        prefix_a = rng.integers(0, 256, size=(1, 8))
        prefix_b = rng.integers(0, 256, size=(1, 8))
        last = np.array([[7]])
        la = model.forward(np.concatenate([prefix_a, last], axis=1))[:, -1]
        lb = model.forward(np.concatenate([prefix_b, last], axis=1))[:, -1]
        assert not np.allclose(la, lb)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_quantized_state_changes_logits_slightly(self, family, tokens):
        exact = build_tiny(family, seed=3)
        quant = build_tiny(
            family, seed=3,
            state_format=get_format("mx8"), kv_format=get_format("mx8"),
        )
        le = exact.forward(tokens)
        lq = quant.forward(tokens)
        assert not np.array_equal(le, lq)
        # mx8 keeps the forward pass close.
        denom = np.maximum(np.abs(le).max(), 1.0)
        assert np.abs(le - lq).max() / denom < 0.3

    def test_wrong_family_rejected(self):
        from repro.models.retnet import RetNet
        with pytest.raises(ValueError):
            RetNet(tiny_spec(Family.GLA))

    def test_step_requires_1d_tokens(self):
        model = build_tiny(Family.RETNET)
        with pytest.raises(ValueError):
            model.step(np.zeros((2, 2), dtype=int), model.init_cache(2))


class TestZamba2Hybrid:
    def test_attention_layer_cadence(self):
        spec = spec_for("Zamba2")
        assert spec.attention_layers == spec.n_layers // 7
        assert spec.state_update_layers == spec.n_layers - spec.attention_layers

    def test_tiny_zamba_has_kv_and_state_caches(self):
        model = build_tiny(Family.ZAMBA2)
        # Force at least one attention layer in the tiny config.
        assert model.spec.attn_every == 6
        cache = model.init_cache(1)
        kinds = {("k" in c) for c in cache}
        assert kinds <= {True, False}


class TestSpecs:
    def test_small_scale_parameter_counts(self):
        # Within a loose band of the nominal sizes.
        for name, nominal in [("RetNet", 2.7e9), ("GLA", 2.7e9),
                              ("HGRN2", 2.7e9), ("Mamba-2", 2.7e9),
                              ("Zamba2", 7e9), ("OPT", 7e9)]:
            params = spec_for(name).param_count
            assert 0.4 * nominal < params < 2.5 * nominal, name

    def test_large_scale_near_70b(self):
        for name in MODEL_NAMES:
            params = spec_for(name, scale="large").param_count
            assert 45e9 < params < 110e9, name

    def test_scaling_preserves_head_count(self):
        small = spec_for("Mamba-2")
        large = spec_for("Mamba-2", scale="large")
        assert large.n_heads == small.n_heads
        assert large.dim_head > small.dim_head

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            spec_for("GPT-5")

    def test_state_values_per_layer(self):
        spec = spec_for("Mamba-2")
        assert spec.state_values_per_layer == 80 * 128 * 64


def _entry_rows(value):
    """The per-row arrays a cache entry holds (KV lists hold one per token)."""
    if isinstance(value, list):
        return value
    return [getattr(value, "buffer", value)]


class TestForkCache:
    FORKED = [Family.GLA, Family.MAMBA2, Family.TRANSFORMER]

    def _warm_cache(self, model, tokens):
        cache = model.init_cache(batch=2)
        for t in range(3):
            model.step(tokens[:, t], cache)
        return cache

    @pytest.mark.parametrize("family", FORKED)
    def test_fork_repeats_each_row_adjacently(self, family, tokens):
        model = build_tiny(family)
        cache = self._warm_cache(model, tokens)
        forked = model.fork_cache(cache, 3)
        for layer, new in zip(cache, forked):
            assert layer.keys() == new.keys()
            for key in layer:
                for old, rep in zip(_entry_rows(layer[key]), _entry_rows(new[key])):
                    np.testing.assert_array_equal(rep, np.repeat(old, 3, axis=0))

    @pytest.mark.parametrize("family", FORKED)
    def test_mutating_one_forked_row_leaves_the_others(self, family, tokens):
        model = build_tiny(family)
        cache = self._warm_cache(model, tokens)
        forked = model.fork_cache(cache, 3)
        before = [
            {key: [a.copy() for a in _entry_rows(v)] for key, v in layer.items()}
            for layer in forked
        ]
        original = [
            {key: [a.copy() for a in _entry_rows(v)] for key, v in layer.items()}
            for layer in cache
        ]
        for layer in forked:
            for value in layer.values():
                for rows in _entry_rows(value):
                    rows[4] += 1.0
        for layer, snap in zip(forked, before):
            for key, value in layer.items():
                for rows, old in zip(_entry_rows(value), snap[key]):
                    np.testing.assert_array_equal(np.delete(rows, 4, 0),
                                                  np.delete(old, 4, 0))
                    assert not np.array_equal(rows[4], old[4])
        for layer, snap in zip(cache, original):
            for key, value in layer.items():
                for rows, old in zip(_entry_rows(value), snap[key]):
                    np.testing.assert_array_equal(rows, old)

    @pytest.mark.parametrize("family", FORKED)
    def test_forked_rows_continue_like_their_source(self, family, tokens):
        model = build_tiny(family)
        forked = model.fork_cache(self._warm_cache(model, tokens), 2)
        logits = model.step(tokens[[0, 0, 1, 1], 3], forked)
        want = model.forward(tokens[:, :4])[:, -1]
        np.testing.assert_allclose(logits[::2], want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(logits[1::2], want, rtol=0, atol=1e-12)

    def test_bad_copy_count_and_entry_rejected(self):
        model = build_tiny(Family.GLA)
        with pytest.raises(ValueError):
            model.fork_cache(model.init_cache(1), 0)
        with pytest.raises(TypeError):
            model.fork_cache([{"state": 1.0}], 2)
