"""Minifloat (FP8) storage formats: ``e4m3`` and ``e5m2`` (± stochastic).

These follow the OCP FP8 conventions: ``e4m3`` has 4 exponent bits, 3
mantissa bits, bias 7, max finite 448; ``e5m2`` has 5 exponent bits, 2
mantissa bits, bias 15, max finite 57344.  Subnormals are representable.
Out-of-range values saturate to the max finite magnitude (the behaviour a
PIM datapath would implement — no NaN/Inf plumbing in a state buffer).

With only 2–3 mantissa bits, the quantization step near a value of
magnitude ``2^e`` is ``2^(e - m)``.  During SU-LLM state updates the per-step
increment is orders of magnitude below the accumulated state, so under
round-to-nearest it is *swallowed* (swamping, Section 3.2) — the mechanism
behind the perplexity blow-ups in Fig. 4.  Stochastic rounding preserves the
increment in expectation, which is why ``e5m2SR`` recovers.
"""

from __future__ import annotations

import numpy as np

from repro.quant.formats import StorageFormat
from repro.quant.rounding import RoundingMode, round_lattice


class MiniFloatFormat(StorageFormat):
    """A saturating sign/exponent/mantissa minifloat with subnormals."""

    def __init__(
        self,
        exp_bits: int,
        man_bits: int,
        bias: int | None = None,
        max_finite: float | None = None,
        name: str | None = None,
        rounding: RoundingMode = RoundingMode.NEAREST,
    ):
        if exp_bits < 2 or man_bits < 1:
            raise ValueError("need at least 2 exponent and 1 mantissa bit")
        self.exp_bits = exp_bits
        self.man_bits = man_bits
        self.bias = bias if bias is not None else (1 << (exp_bits - 1)) - 1
        self.rounding = rounding
        # Exponent of the smallest normal number.
        self.min_norm_exp = 1 - self.bias
        # Largest exponent usable for finite values.
        self.max_exp = (1 << exp_bits) - 2 - self.bias
        default_max = (2.0 - 2.0 ** (-man_bits)) * 2.0**self.max_exp
        self.max_finite = max_finite if max_finite is not None else default_max
        base = name or f"e{exp_bits}m{man_bits}"
        self.name = base + ("SR" if rounding is RoundingMode.STOCHASTIC else "")
        self.bits_per_value = float(1 + exp_bits + man_bits)

    def _step(self, x: np.ndarray) -> np.ndarray:
        """Quantization step (ulp) of the bucket each element falls in.

        The bucket of a normal ``|x|`` is the largest integer ``e`` with
        ``2**e <= |x|`` (``np.frexp`` gives it exactly), clipped to the
        format's normal exponent range (zero quantizes to zero whatever
        its step).
        """
        _, e = np.frexp(np.abs(x))
        e = np.clip(e - 1, self.min_norm_exp, self.max_exp)
        return np.ldexp(1.0, e - self.man_bits)

    def quantize(
        self, x: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        step = self._step(x)
        q = round_lattice(x / step, self.rounding, rng) * step
        # Rounding up across a power of two lands on a representable point
        # with the next exponent, so only saturation needs fixing up.
        return np.clip(q, -self.max_finite, self.max_finite)


def e4m3(rounding: RoundingMode = RoundingMode.NEAREST) -> MiniFloatFormat:
    """OCP e4m3: bias 7, max finite 448."""
    return MiniFloatFormat(4, 3, bias=7, max_finite=448.0, rounding=rounding)


def e5m2(rounding: RoundingMode = RoundingMode.NEAREST) -> MiniFloatFormat:
    """OCP e5m2: bias 15, max finite 57344."""
    return MiniFloatFormat(5, 2, bias=15, max_finite=57344.0, rounding=rounding)
