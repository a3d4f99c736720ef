"""MX8 block floating point — the paper's Pareto-optimal state format.

Pimba's MX8 variant (Section 3.2): groups of 16 values share an 8-bit
exponent, each adjacent *pair* of values shares a 1-bit microexponent, and
every element stores a sign and a 6-bit mantissa.  Storage cost is exactly

    (16 * (1 + 6) + 8 + 8) / 16 = 8 bits per value.

An element decodes as::

    value_i = mant_i * 2 ** (E - u_pair(i) - MANTISSA_BITS)

with ``mant_i`` a signed integer, ``|mant_i| <= 63``.  The shared exponent
``E`` is the smallest with ``amax < 2**E``, so the largest group element
scales to a mantissa magnitude in [32, 64) (rounding to 64 saturates at
63); a pair whose own maximum is at least one octave below the group
maximum sets its microexponent to 1, recovering one bit of precision.

Two views are provided:

* :class:`Mx8Format` — vectorized value-semantics storage quantizer used by
  the accuracy harness (Figs. 4/6, Table 2).
* :class:`MxBlock` — an explicit (exponent, microexponents, mantissas)
  container consumed by the bit-faithful SPE datapath in
  ``repro.quant.arithmetic`` and ``repro.core.spe``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.quant.formats import StorageFormat, pad_to_group
from repro.quant.rounding import RoundingMode, round_lattice

#: elements per shared-exponent group
GROUP_SIZE = 16
#: elements per shared-microexponent sub-group
PAIR_SIZE = 2
#: explicit (no hidden bit) mantissa width
MANTISSA_BITS = 6
#: max mantissa magnitude
MANTISSA_MAX = (1 << MANTISSA_BITS) - 1
#: shared exponent field width / bias (stored biased like IEEE)
EXPONENT_BITS = 8
EXPONENT_BIAS = 127
EXPONENT_MIN = -EXPONENT_BIAS
EXPONENT_MAX = (1 << EXPONENT_BITS) - 1 - EXPONENT_BIAS
_FLOAT_MAX = np.finfo(np.float64).max


def _group_exponent(amax: np.ndarray) -> np.ndarray:
    """Shared exponent: the smallest integer E with ``amax < 2**E``.

    ``np.frexp`` gives exactly that E for finite ``amax > 0``; float
    ``log2`` rounds up within an ulp below a power of two, which makes
    ``floor(log2(amax)) + 1`` one too large there.  An all-zero group
    gets E = 1, an infinite one the field's maximum; the result is
    clipped to the exponent field.
    """
    frac, e = np.frexp(np.minimum(amax, _FLOAT_MAX))
    e += frac == 0
    return np.clip(e, EXPONENT_MIN, EXPONENT_MAX)


class Mx8Format(StorageFormat):
    """Vectorized MX8 storage quantizer (value semantics)."""

    def __init__(self, rounding: RoundingMode = RoundingMode.NEAREST):
        self.rounding = rounding
        self.name = "mx8SR" if rounding is RoundingMode.STOCHASTIC else "mx8"
        self.bits_per_value = (
            GROUP_SIZE * (1 + MANTISSA_BITS) + EXPONENT_BITS
            + GROUP_SIZE // PAIR_SIZE
        ) / GROUP_SIZE

    def quantize(
        self, x: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        padded, n = pad_to_group(x, GROUP_SIZE)
        shift = _mantissa_shift(padded)
        # ldexp by a power of two is exact; the noise of stochastic
        # rounding is one draw over the padded tensor.
        grid = np.ldexp(padded, shift)
        mant = round_lattice(grid, self.rounding, rng)
        np.clip(mant, -MANTISSA_MAX, MANTISSA_MAX, out=mant)
        out = np.ldexp(mant, np.negative(shift, out=shift), out=mant)
        return out[..., :n] if n != padded.shape[-1] else out


def _mantissa_shift(padded: np.ndarray) -> np.ndarray:
    """Per-element ``MANTISSA_BITS - (E - micro)``: the power of two that
    scales each value of ``padded`` (last axis a multiple of the group)
    onto its integer mantissa grid."""
    mag = np.abs(padded)
    pmax = np.maximum(mag[..., 0::2], mag[..., 1::2])
    del mag
    # Group maxima by halving adjacent pair maxima: the groups are aligned
    # powers of two, so no halving crosses a group boundary.
    gmax = pmax
    while gmax.shape[-1] * GROUP_SIZE > padded.shape[-1]:
        gmax = np.maximum(gmax[..., 0::2], gmax[..., 1::2])
    exp = np.repeat(_group_exponent(gmax), GROUP_SIZE // PAIR_SIZE, axis=-1)
    micro = np.clip(exp - _group_exponent(pmax), 0, 1)
    return np.repeat(MANTISSA_BITS - exp + micro, PAIR_SIZE, axis=-1)


@dataclasses.dataclass
class MxBlock:
    """One 16-element MX8 group in explicit hardware fields.

    Attributes:
        exp: shared (unbiased) exponent, scalar int.
        micro: per-pair microexponents, shape ``(8,)``, values in {0, 1}.
        mant: signed integer mantissas, shape ``(16,)``, ``|mant| <= 63``.
    """

    exp: int
    micro: np.ndarray
    mant: np.ndarray

    def __post_init__(self) -> None:
        self.micro = np.asarray(self.micro, dtype=np.int64)
        self.mant = np.asarray(self.mant, dtype=np.int64)
        if self.micro.shape != (GROUP_SIZE // PAIR_SIZE,):
            raise ValueError("micro must have shape (8,)")
        if self.mant.shape != (GROUP_SIZE,):
            raise ValueError("mant must have shape (16,)")
        if np.any((self.micro < 0) | (self.micro > 1)):
            raise ValueError("microexponents must be 0 or 1")
        if np.any(np.abs(self.mant) > MANTISSA_MAX):
            raise ValueError(f"mantissa magnitude exceeds {MANTISSA_MAX}")

    @property
    def element_micro(self) -> np.ndarray:
        """Microexponent broadcast to all 16 elements."""
        return np.repeat(self.micro, PAIR_SIZE)

    def decode(self) -> np.ndarray:
        """Return the 16 represented values as float64."""
        return self.mant * np.exp2(self.exp - self.element_micro - MANTISSA_BITS)

    @classmethod
    def encode(
        cls,
        values: np.ndarray,
        rounding: RoundingMode = RoundingMode.NEAREST,
        rng: np.random.Generator | None = None,
    ) -> "MxBlock":
        """Quantize 16 float values into an explicit block."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (GROUP_SIZE,):
            raise ValueError(f"expected {GROUP_SIZE} values, got shape {values.shape}")
        exp = int(_group_exponent(np.max(np.abs(values))))
        pairs = values.reshape(-1, PAIR_SIZE)
        pexp = _group_exponent(np.max(np.abs(pairs), axis=-1))
        micro = np.clip(exp - pexp, 0, 1).astype(np.int64)
        scale = np.exp2(exp - np.repeat(micro, PAIR_SIZE) - MANTISSA_BITS)
        mant = round_lattice(values / scale, rounding, rng)
        mant = np.clip(mant, -MANTISSA_MAX, MANTISSA_MAX).astype(np.int64)
        return cls(exp=exp, micro=micro, mant=mant)
