"""DET002 true positives: RNG not flowing through ensure_rng/child_rng."""

import random

import numpy as np
from numpy.random import default_rng


def fresh_generator():
    return np.random.default_rng(3)  # line 10: direct construction fires


def renamed_construction():
    return default_rng()  # line 14: from-import resolves and fires


def legacy_draw():
    return np.random.normal(0.0, 1.0)  # line 18: legacy global distribution fires


def stdlib_draw():
    return random.random()  # line 22: stdlib Mersenne Twister fires
