"""Trivial reference models the learned ones must beat."""

from __future__ import annotations

import numpy as np

from gradrec.data import InteractionTable


class GlobalMeanRating:
    """Predicts the train-set mean rating for every pair."""

    def __init__(self, train: InteractionTable):
        self.mean = train.global_mean
        self.n_items = train.n_items

    def score_matrix(self, users) -> np.ndarray:
        return np.full((len(users), self.n_items), self.mean)


class PopularityRanker:
    """Scores items by their train-set interaction count."""

    def __init__(self, train: InteractionTable):
        self.counts = np.bincount(train.items, minlength=train.n_items).astype(np.float64)

    def score_matrix(self, users) -> np.ndarray:
        return np.tile(self.counts, (len(users), 1))
