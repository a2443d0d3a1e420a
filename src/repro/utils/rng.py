"""Seeded random-number-generator helpers.

Every stochastic component of the library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None``.  Centralising the
coercion here keeps experiments reproducible: a single integer seed at the top
of an experiment deterministically derives the seeds of every sub-component.
A child stream is one word drawn from its parent plus keys; a caller that
builds several children of one parent state draws the word once.
"""

from __future__ import annotations

import functools
from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` for fresh OS entropy, an ``int`` for a deterministic
        generator, or an existing generator which is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)  # repro: allow-det002 -- this IS the canonical construction seam every other module must route through


def derive_rng(rng: np.random.Generator, *keys: Union[int, str]) -> np.random.Generator:
    """Derive an independent child generator from *rng* and a key sequence.

    The derivation is deterministic given the parent generator state and the
    keys, which lets large experiments hand out per-packet or per-location
    streams without the components interfering with one another.

    Parameters
    ----------
    rng:
        Parent generator.  Its state is advanced by exactly one ``integers``
        draw.
    keys:
        Arbitrary integers or strings identifying the child stream (for
        example ``derive_rng(rng, "packet", 17)``).
    """
    return child_rng(draw_word(rng), *keys)


def draw_word(rng: np.random.Generator) -> int:
    """One seed word from *rng*: the draw :func:`derive_rng` makes."""
    return int(rng.integers(0, 2**31 - 1))


def child_rng(base: int, *keys: Union[int, str]) -> np.random.Generator:
    """The child of an already-drawn word: ``derive_rng(rng, *keys)`` is
    ``child_rng(draw_word(rng), *keys)``.

    The seed is a ``uint32`` word array; every word is below ``2**31``, so
    its entropy pool is the one the ``[base, *words]`` list gives.
    """
    words = [base, *(_string_word(k) if isinstance(k, str) else int(k) % (2**31 - 1) for k in keys)]
    seed_seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))  # repro: allow-det002 -- canonical child-stream derivation (the seam the contract routes through)
    return np.random.default_rng(seed_seq)  # repro: allow-det002 -- canonical child-stream derivation (the seam the contract routes through)


@functools.lru_cache(maxsize=1024)
def _string_word(key: str) -> int:
    """A string key's seed word (memoised: stream names are constants)."""
    return sum(ord(c) * (i + 1) for i, c in enumerate(key)) % (2**31 - 1)
