"""Unit tests for the MX8 block floating point format."""

import numpy as np
import pytest

from repro.quant.mx import (
    EXPONENT_MAX,
    GROUP_SIZE,
    MANTISSA_BITS,
    MANTISSA_MAX,
    Mx8Format,
    MxBlock,
)
from repro.quant.rounding import RoundingMode


def test_bits_per_value_is_exactly_eight():
    assert Mx8Format().bits_per_value == 8.0


def test_zero_tensor_roundtrips_exactly():
    fmt = Mx8Format()
    x = np.zeros(64)
    assert np.array_equal(fmt.quantize(x), x)


def test_relative_error_bounded_by_mantissa_width():
    rng = np.random.default_rng(0)
    fmt = Mx8Format()
    x = rng.normal(size=(8, 128))
    q = fmt.quantize(x)
    # Group max elements have mantissa in [32, 64); worst relative error for
    # the largest element of each group is one half ulp of a 6-bit mantissa.
    amax = np.max(np.abs(x.reshape(8, -1, GROUP_SIZE)), axis=-1)
    qmax_err = np.max(
        np.abs((q - x).reshape(8, -1, GROUP_SIZE)), axis=-1
    )
    assert np.all(qmax_err <= amax * 2.0 ** (-MANTISSA_BITS + 1))


def test_quantize_is_idempotent():
    rng = np.random.default_rng(1)
    fmt = Mx8Format()
    x = rng.normal(size=256)
    q = fmt.quantize(x)
    assert np.array_equal(fmt.quantize(q), q)


def test_pair_microexponent_recovers_precision_for_small_pairs():
    # One huge pair and one tiny pair: without the microexponent the tiny
    # pair would quantize with the huge pair's ulp.
    x = np.zeros(GROUP_SIZE)
    x[0] = 1.0
    x[2] = 1.0 / 128.0  # two octaves below: microexponent saturates at 1
    q = Mx8Format().quantize(x)
    ulp_with_micro = 2.0 ** (1 - 1 - MANTISSA_BITS)  # exp=1, micro=1
    assert abs(q[2] - x[2]) <= ulp_with_micro / 2


def test_non_multiple_of_group_length_is_preserved():
    rng = np.random.default_rng(2)
    x = rng.normal(size=37)
    q = Mx8Format().quantize(x)
    assert q.shape == x.shape


def test_stochastic_rounding_unbiased_on_midpoints():
    rng = np.random.default_rng(3)
    fmt = Mx8Format(rounding=RoundingMode.STOCHASTIC)
    # A value exactly halfway between two mantissa steps relative to a
    # max element of 1.0 (exp=1 -> ulp = 2**-5).
    x = np.zeros((4000, GROUP_SIZE))
    x[:, 0] = 1.0
    x[:, 1] = 1.5 * 2.0**-5
    q = fmt.quantize(x, rng=rng)
    mean = q[:, 1].mean()
    assert abs(mean - x[0, 1]) < 0.05 * x[0, 1]


def test_stochastic_requires_rng():
    fmt = Mx8Format(rounding=RoundingMode.STOCHASTIC)
    with pytest.raises(ValueError):
        fmt.quantize(np.ones(16))


class TestMxBlock:
    def test_encode_decode_roundtrip_error(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=GROUP_SIZE)
        block = MxBlock.encode(values)
        err = np.abs(block.decode() - values)
        assert np.max(err) <= np.max(np.abs(values)) * 2.0**-MANTISSA_BITS

    def test_encode_matches_vectorized_format(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=GROUP_SIZE)
        block = MxBlock.encode(values)
        vec = Mx8Format().quantize(values)
        np.testing.assert_allclose(block.decode(), vec, rtol=0, atol=0)

    def test_invalid_mantissa_rejected(self):
        with pytest.raises(ValueError):
            MxBlock(exp=0, micro=np.zeros(8), mant=np.full(16, MANTISSA_MAX + 1))

    def test_invalid_micro_rejected(self):
        with pytest.raises(ValueError):
            MxBlock(exp=0, micro=np.full(8, 2), mant=np.zeros(16))

    def test_exponent_clipped_to_field_range(self):
        big = np.full(GROUP_SIZE, 1e30)
        block = MxBlock.encode(big)
        assert block.exp <= EXPONENT_MAX


def _prechange_quantize(x, rounding, rng=None):
    """``Mx8Format.quantize`` before it was fused, kept as its oracle:
    ``floor(log2)`` exponents, separate group and pair reductions, and
    division by ``exp2`` scales."""

    def exponent(amax):
        with np.errstate(divide="ignore"):
            e = np.floor(np.log2(np.where(amax > 0, amax, 1.0))) + 1.0
        return np.clip(e, -127, 128)

    n = x.shape[-1]
    padded = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, (-n) % GROUP_SIZE)])
    grouped = padded.reshape(*padded.shape[:-1], -1, GROUP_SIZE)
    exp = exponent(np.max(np.abs(grouped), axis=-1, keepdims=True))
    pairs = grouped.reshape(*grouped.shape[:-1], GROUP_SIZE // 2, 2)
    pexp = exponent(np.max(np.abs(pairs), axis=-1, keepdims=True))
    micro = np.clip(exp[..., None] - pexp, 0, 1)
    scale = np.exp2(exp[..., None] - micro - MANTISSA_BITS)
    grid = pairs / scale
    if rounding is RoundingMode.NEAREST:
        mant = np.rint(grid)
    else:
        floor = np.floor(grid)
        mant = floor + (rng.random(size=grid.shape) < grid - floor)
    mant = np.clip(mant, -MANTISSA_MAX, MANTISSA_MAX)
    return (mant * scale).reshape(padded.shape)[..., :n]


@pytest.mark.parametrize("rounding", list(RoundingMode))
@pytest.mark.parametrize(
    "shape", [(48, 2, 64, 32), (1, 2, 64, 32), (3, 37), (5, 7, 16), (25,)]
)
def test_fused_quantizer_is_bit_equal_to_the_prechange_formula(shape, rounding):
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    x = rng.normal(size=shape) * np.exp2(rng.integers(-40, 40, size=shape))
    x[rng.random(shape) < 0.2] = 0.0  # zero elements and zero pairs
    x.reshape(-1)[:GROUP_SIZE] = 0.0  # a whole zero group
    got = Mx8Format(rounding).quantize(x, rng=np.random.default_rng(11))
    want = _prechange_quantize(x, rounding, np.random.default_rng(11))
    np.testing.assert_array_equal(got, want)
