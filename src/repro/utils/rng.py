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


def draw_word(rng: np.random.Generator) -> int:
    """One seed word from *rng*, advancing it by exactly one ``integers``
    draw: the parent's part of a child stream (:func:`child_rng`)."""
    return int(rng.integers(0, 2**31 - 1))


def child_rng(base: int, *keys: Union[int, str]) -> np.random.Generator:
    """The child generator of a drawn word and a key sequence.

    ``child_rng(draw_word(rng), "loss")`` is an independent stream that is
    deterministic given the parent's state and the keys (integers or
    strings), so components that each own one never interfere.  The seed
    is a ``uint32`` word array; every word is below ``2**31``, so its
    entropy pool is the one the ``[base, *words]`` list gives.
    """
    words = [base, *(_string_word(k) if isinstance(k, str) else int(k) % (2**31 - 1) for k in keys)]
    seed_seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))  # repro: allow-det002 -- canonical child-stream derivation (the seam the contract routes through)
    return np.random.default_rng(seed_seq)  # repro: allow-det002 -- canonical child-stream derivation (the seam the contract routes through)


@functools.lru_cache(maxsize=1024)
def _string_word(key: str) -> int:
    """A string key's seed word (memoised: stream names are constants)."""
    return sum(ord(c) * (i + 1) for i, c in enumerate(key)) % (2**31 - 1)
