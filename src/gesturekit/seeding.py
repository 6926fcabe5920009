"""Deterministic RNG derivation.

Every random draw in the package flows from a master seed through
``derive_rng(master, *key)``. The key is a tuple of small integers naming
the task (fold index, balance iteration, tree index...), so results do not
depend on execution order or on how work is split across workers.
"""

import numpy as np

# stream-kind tags used as the first key component
SUBJECT = 1
SEGMENT = 2
ADL = 3
FOLD = 4
BALANCE = 5
PERMUTE = 6
TRAINER = 7
AUGMENT = 9
FINAL = 10
NOISE = 11


def derive_seq(master_seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(derive_seq(master_seed, *key))


def derive_int(master_seed: int, *key: int) -> int:
    """A plain integer seed for components that take one (e.g. a trainer)."""
    return int(derive_seq(master_seed, *key).generate_state(1)[0])
