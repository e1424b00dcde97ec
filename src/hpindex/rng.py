"""Deterministic 64-bit random number generator.

SplitMix64 (Steele, Lea, Flood 2014). The algorithm is pinned here on purpose:
seeded runs must produce identical streams on every platform and Python
version, which rules out `random.Random`'s underspecified integer methods.

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)

All arithmetic is modulo 2**64. `below(n)` uses rejection sampling, so it is
exactly uniform.
"""

from __future__ import annotations

from .errors import ValidationError

_MASK = (1 << 64) - 1


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValidationError("below() needs n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n
