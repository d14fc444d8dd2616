"""Trivial reference models the learned ones must beat."""

from __future__ import annotations

import numpy as np

from gradrec.data import InteractionTable


class GlobalMeanRating:
    """Predicts the train-set mean rating for every pair."""

    def __init__(self, train: InteractionTable):
        self.mean = train.global_mean

    def predict(self, user: int, item: int) -> float:
        return self.mean


class PopularityRanker:
    """Scores items by their train-set interaction count."""

    def __init__(self, train: InteractionTable):
        self.counts = np.bincount(train.items, minlength=train.n_items).astype(np.float64)

    def score(self, user: int, item: int) -> float:
        return float(self.counts[item])
