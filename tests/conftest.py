"""Shared fixtures: one lazily-built engine stack per group per session."""
from __future__ import annotations

import pytest

from kflag import SchubertModel, SchubertRing, WeylGroup, build_root_datum


class EngineCache:
    """Builds and memoizes (datum, group, model, ring) per group label."""

    def __init__(self):
        self._stacks = {}

    def stack(self, label: str):
        if label not in self._stacks:
            letter, rank = label[0], int(label[1:])
            datum = build_root_datum(letter, rank)
            group = WeylGroup(datum)
            model = SchubertModel(group)
            self._stacks[label] = (datum, group, model, SchubertRing(model))
        return self._stacks[label]

    def datum(self, label):
        return self.stack(label)[0]

    def group(self, label):
        return self.stack(label)[1]

    def model(self, label):
        return self.stack(label)[2]

    def ring(self, label):
        return self.stack(label)[3]


@pytest.fixture(scope="session")
def engines() -> EngineCache:
    return EngineCache()

