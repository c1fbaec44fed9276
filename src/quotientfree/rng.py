"""Counter-based deterministic pseudo-random generator (splitmix64).

Every randomized verification suite draws from this generator with an
explicit integer seed, so a run is reproducible bit-for-bit from
(seed, counter) alone, independent of platform or language.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(seed: int, counter: int) -> int:
    """The 64-bit output word for a (seed, counter) pair."""
    z = (seed + (counter + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class CounterRng:
    """Stateful view over splitmix64: each draw advances the counter by one."""

    def __init__(self, seed: int):
        self.seed = seed
        self.counter = 0

    def next_u64(self) -> int:
        value = splitmix64(self.seed, self.counter)
        self.counter += 1
        return value

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]; the tiny modulo bias is irrelevant here."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]
