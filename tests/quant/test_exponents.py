"""Exponent selection at power-of-two boundaries, against exact arithmetic.

Every value here is checked against a :class:`fractions.Fraction`
reference at ``2**k`` and at both of its 1-ulp neighbours, for every
``k`` across (and just past) each format's exponent field.  Float
``log2`` rounds ``2**k - ulp`` up to ``k``, so a ``log2``-based exponent
is one too large there; ``np.frexp`` is exact.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant import RoundingMode, e4m3, e5m2
from repro.quant.mx import (
    EXPONENT_MAX,
    EXPONENT_MIN,
    GROUP_SIZE,
    MANTISSA_BITS,
    MANTISSA_MAX,
    Mx8Format,
    MxBlock,
)

TWO = Fraction(2)


def _smallest_exponent_above(v: float) -> int:
    """Smallest integer E with ``v < 2**E``, in exact arithmetic (v > 0)."""
    assert v > 0
    f = Fraction(v)
    e = f.numerator.bit_length() - f.denominator.bit_length()
    while f >= TWO**e:
        e += 1
    while f < TWO ** (e - 1):
        e -= 1
    return e


def _boundary_values(k_lo: int, k_hi: int) -> list[float]:
    """``2**k`` and its two 1-ulp neighbours for every k in [k_lo, k_hi]."""
    out = []
    for k in range(k_lo, k_hi + 1):
        p = float(TWO**k)
        out += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    return out


#: every exponent the 8-bit MX field holds, plus a few clipped ones
MX_VALUES = _boundary_values(EXPONENT_MIN - 3, EXPONENT_MAX + 2)


def _mx_exponent(v: float) -> int:
    return int(np.clip(_smallest_exponent_above(v), EXPONENT_MIN, EXPONENT_MAX))


def _mx_reference(v: float) -> float:
    """``v`` quantized as the largest element of an MX8 group."""
    ulp = TWO ** (_mx_exponent(abs(v)) - MANTISSA_BITS)
    mant = max(-MANTISSA_MAX, min(MANTISSA_MAX, round(Fraction(v) / ulp)))
    return float(mant * ulp)


def _group(v: float) -> np.ndarray:
    values = np.zeros(GROUP_SIZE)
    values[0] = v
    values[5] = -v / 3
    return values


def test_mx_block_exponent_is_exact_at_every_boundary():
    for v in MX_VALUES:
        block = MxBlock.encode(_group(v))
        assert block.exp == _mx_exponent(v), v
        assert block.micro[0] == 0
        assert block.decode()[0] == _mx_reference(v), v


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_mx8_quantize_is_exact_at_every_boundary(sign):
    groups = np.stack([_group(sign * v) for v in MX_VALUES])
    q = Mx8Format().quantize(groups)
    want = np.array([_mx_reference(sign * v) for v in MX_VALUES])
    np.testing.assert_array_equal(q[:, 0], want)


def test_mx8_stochastic_rounds_to_a_neighbour_on_the_exact_grid():
    groups = np.stack([_group(v) for v in MX_VALUES])
    q = Mx8Format(RoundingMode.STOCHASTIC).quantize(
        groups, rng=np.random.default_rng(0)
    )
    for v, got in zip(MX_VALUES, q[:, 0]):
        ulp = TWO ** (_mx_exponent(v) - MANTISSA_BITS)
        grid = Fraction(v) / ulp
        neighbours = {min(n, MANTISSA_MAX) for n in (math.floor(grid), math.ceil(grid))}
        assert Fraction(got) / ulp in neighbours


@given(st.floats(min_value=2.0**-140, max_value=2.0**140))
@settings(max_examples=200, deadline=None)
def test_mx_block_exponent_matches_exact_reference(v):
    assert MxBlock.encode(_group(v)).exp == _mx_exponent(v)


@pytest.mark.parametrize("make", [e4m3, e5m2], ids=["e4m3", "e5m2"])
def test_minifloat_step_is_exact_at_every_boundary(make):
    fmt = make()
    values = _boundary_values(fmt.min_norm_exp - 3, fmt.max_exp + 2)
    steps = fmt._step(np.array(values))
    for v, step in zip(values, steps):
        # The bucket is the largest e with 2**e <= v.
        bucket = _smallest_exponent_above(v) - 1
        bucket = min(max(bucket, fmt.min_norm_exp), fmt.max_exp)
        assert Fraction(step) == TWO ** (bucket - fmt.man_bits), v


@pytest.mark.parametrize("make", [e4m3, e5m2], ids=["e4m3", "e5m2"])
def test_minifloat_quantize_matches_exact_reference(make):
    fmt = make()
    values = _boundary_values(fmt.min_norm_exp - 3, fmt.max_exp + 2)
    q = fmt.quantize(np.array(values))
    for v, got in zip(values, q):
        bucket = _smallest_exponent_above(v) - 1
        bucket = min(max(bucket, fmt.min_norm_exp), fmt.max_exp)
        step = TWO ** (bucket - fmt.man_bits)
        want = min(round(Fraction(v) / step) * step, Fraction(fmt.max_finite))
        assert Fraction(got) == want, v
