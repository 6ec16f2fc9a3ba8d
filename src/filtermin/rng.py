"""Portable splittable PRNG (splitmix64).

Everything random in this package flows through this module so that a seed
reproduces the same stream on any platform and in any implementation of the
algorithm, which is more than the stdlib promises.  The generator is the
classic splitmix64: a 64-bit counter advanced by the golden-gamma constant,
pushed through a two-round xor-multiply finalizer.

Child seeds for independent streams (one benchmark instance, one retry
attempt) come from `derive`, a pure function of the parent seed and an index
path, so instance i of a suite never depends on how many draws instance i-1
consumed.
"""
from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finalizer: scramble a 64-bit value into a 64-bit value."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def derive(seed: int, *path: int) -> int:
    """Derive a child seed from `seed` and an index path, deterministically.

    derive(s) == mix of s alone; derive(s, 3, 1) folds each index in order,
    so (suite seed, config index, repeat index) yields a stable per-instance
    seed.
    """
    out = mix64(seed ^ _GAMMA)
    for k in path:
        out = mix64(out ^ ((k + 1) * _GAMMA))
    return out


class SplitMix64:
    """Sequential splitmix64 stream with the small sampling helpers we need."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return mix64(self.state)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n); unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        limit = (_MASK + 1) - ((_MASK + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def choice(self, seq):
        if not seq:
            raise ValueError("choice on empty sequence")
        return seq[self.randbelow(len(seq))]

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), in draw order (partial Fisher-Yates)."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} from {n}")
        pool = list(range(n))
        out = []
        for i in range(k):
            j = i + self.randbelow(n - i)
            pool[i], pool[j] = pool[j], pool[i]
            out.append(pool[i])
        return out
