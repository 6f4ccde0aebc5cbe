"""Deterministic, platform-independent random streams for experiment generation.

The experiment harness must produce bit-identical output for a given seed on
any platform, so we avoid numpy's Generator (whose stream is an implementation
detail) and use an algorithmically specified generator instead: SplitMix64 for
the integer stream, 53-bit uniforms, and Box-Muller for standard normals.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_INV_2_53 = 1.0 / (1 << 53)


class SplitMix64:
    """SplitMix64 stream with 53-bit uniforms and Box-Muller normals.

    Each normal consumes exactly two uniforms (no caching of the sine
    counterpart), so the draw positions are a pure function of the seed.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_uniform(self) -> float:
        """Uniform on [0, 1) with 53-bit resolution."""
        return (self.next_uint64() >> 11) * _INV_2_53

    def next_normal(self) -> float:
        """Standard normal via Box-Muller on two successive uniforms."""
        # u1 is shifted into (0, 1] so log(u1) is always finite.
        u1 = ((self.next_uint64() >> 11) + 1) * _INV_2_53
        u2 = (self.next_uint64() >> 11) * _INV_2_53
        return float(np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))

    def normals(self, shape) -> np.ndarray:
        """Array of standard normals drawn in row-major order.

        Bit-identical to one ``next_normal`` per entry. The k-th state after
        ``s`` is ``s + k * GOLDEN mod 2**64``, so every draw goes through the
        mixer at once as one uint64 array (array arithmetic wraps silently).
        """
        size = int(np.prod(shape))
        z = np.arange(1, 2 * size + 1, dtype=np.uint64) * _GOLDEN + self._state
        self._state = (self._state + 2 * size * _GOLDEN) & _MASK64
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        z ^= z >> 31
        u1 = ((z[0::2] >> 11) + 1) * _INV_2_53
        u2 = (z[1::2] >> 11) * _INV_2_53
        return (np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)).reshape(shape)


def derive_seed(master: int, label: str) -> int:
    """Derive a named substream seed from a master seed.

    The label is hashed with FNV-1a and mixed into the master seed through one
    SplitMix64 step, so distinct labels give statistically independent streams
    while remaining reproducible from the single master seed.
    """
    h = _FNV_OFFSET
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return SplitMix64((int(master) & _MASK64) ^ h).next_uint64()
