import random

import pytest

from motivelab import characters, twisted


@pytest.fixture
def split_seed(monkeypatch):
    """split_seed(s) makes every class-algebra split, of character tables and
    of block dimensions, draw from random.Random(s) in place of the library's
    random.Random(0): the splitting order changes, and no output may.  A
    later call replaces the seed of an earlier one."""
    split = characters.split_class_algebra

    def use(seed):
        def seeded(a, partner, n, p, rng):
            return split(a, partner, n, p, random.Random(seed))

        monkeypatch.setattr(characters, "split_class_algebra", seeded)
        monkeypatch.setattr(twisted, "split_class_algebra", seeded)
    return use
