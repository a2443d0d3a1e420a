"""A module the determinism lint has nothing to say about."""

import math

from repro.utils.rng import child_rng, draw_word, ensure_rng
from repro.utils.validation import check_known_keys


class CleanConfig:
    def __init__(self, seed):
        self.seed = seed

    @classmethod
    def from_dict(cls, data):
        check_known_keys("CleanConfig", data, ("seed",))
        return cls(seed=data.get("seed", 0))


def draw(seed, count):
    rng = child_rng(draw_word(ensure_rng(seed)), "draws")
    return [rng.random() for _ in range(count)]


def ordered(items):
    return [math.exp(value) for value in sorted(set(items))]
