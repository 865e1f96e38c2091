"""Named, independent random-number streams.

Every stochastic component of the simulator (per-worker compute jitter,
straggler onset, measurement noise, …) draws from its own named stream so
that changing one component's consumption pattern does not perturb any other
component.  This is the standard variance-reduction discipline for
simulation studies: comparing two tuners on "the same" cluster requires the
cluster's randomness to be identical across runs.

Streams are derived from a root seed with SeedSequence spawning, so
``RngRegistry(seed).stream("x")`` is stable across processes and platforms.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


class RngRegistry:
    """Factory for named, reproducible ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The stream is keyed by a stable hash of the name combined with the
        root seed, so the same (seed, name) pair always yields the same
        sequence, independent of creation order.
        """
        if name not in self._streams:
            # Stable 64-bit hash of the name (Python's hash() is salted).
            digest = np.uint64(0xCBF29CE484222325)
            for ch in name.encode("utf-8"):
                digest = np.uint64((int(digest) ^ ch) * 0x100000001B3 % (1 << 64))
            seq = np.random.SeedSequence([self.seed, int(digest)])
            self._streams[name] = np.random.Generator(np.random.PCG64(seq))
        return self._streams[name]

    def fork(self, salt: int) -> "RngRegistry":
        """A registry with a seed derived from this one and ``salt``.

        Used to give each simulated trial its own noise while keeping the
        whole experiment a pure function of the root seed.
        """
        return RngRegistry((self.seed * 1_000_003 + salt) % (1 << 63))
