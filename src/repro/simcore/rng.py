"""Named, independently-seeded random streams.

Reproducibility discipline: *all* stochastic behaviour in the library
(random job arrival times, contention jitter, workload parameter noise)
draws from a named stream obtained here.  Streams are derived from one root
seed via ``numpy`` ``SeedSequence.spawn``-style keying, so

* the same ``(root_seed, name)`` pair always yields the same stream, and
* adding a new consumer never perturbs the draws seen by existing ones —
  experiments stay comparable as the library grows.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngRegistry", "derive_seed"]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``(root_seed, name)``.

    Uses BLAKE2b over the root seed and the stream name, which is stable
    across processes and Python versions (unlike ``hash``).
    """
    digest = hashlib.blake2b(
        f"{root_seed}:{name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


class RngRegistry:
    """A factory and cache of named :class:`numpy.random.Generator` streams.

    Examples
    --------
    >>> rngs = RngRegistry(seed=7)
    >>> a = rngs.stream("arrivals")
    >>> b = rngs.stream("jitter")
    >>> a is rngs.stream("arrivals")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._root_seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for stream *name*."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self._root_seed, name))
            self._streams[name] = gen
        return gen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RngRegistry(seed={self._root_seed}, "
            f"streams={sorted(self._streams)})"
        )
