"""Evaluation: RMSE/MAE for rating prediction, Precision/Recall/NDCG/MRR
for ranking, and the protocol that ranks each relevant item among a user's
candidates from ``score_matrix(users) -> (len(users), n_items)`` rows.

Conventions fixed here, so reports are reproducible bit for bit: binary
gains, 1-based ranks with 1/log2(rank+1) discount, macro (per-user)
averaging over users with a non-empty relevant set, MRR over the full
candidate ranking, score ties broken by ascending item id, and one array
pass per ``BLOCK`` users that adds ``math.log2`` discounts in ascending
rank order and averages users in ascending id, left to right from 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gradrec.data import InteractionTable
from gradrec.errors import EvaluationError, GradrecError

ScoreRows = Callable[[np.ndarray], np.ndarray]

BLOCK = 64  # users per score_matrix call, relevant items per rank compare


@dataclass(frozen=True)
class FullRanking:
    """Rank every item the user has not consumed in train."""

    def describe(self) -> str:
        return "full"


@dataclass(frozen=True)
class SampledRanking:
    """Rank the user's test items against m seeded negative items."""

    m: int
    seed: int

    def describe(self) -> str:
        return f"sampled:{self.m}"


Protocol = FullRanking | SampledRanking


@dataclass
class MetricReport:
    values: dict[str, float]
    protocol: str
    seed: int
    users: int
    order: list[str]
    drawn: tuple[int, float] | None = None  # min and median negatives, when some user drew < m

    def to_text(self) -> str:
        lines = [f"protocol\t{self.protocol}"]
        if self.drawn is not None:
            lines.append(f"negatives\tmin {self.drawn[0]}, median {self.drawn[1]:.1f}")
        lines += [f"seed\t{self.seed}", f"users\t{self.users}"]
        lines += [f"{name}\t{self.values[name]:.6f}" for name in self.order]
        return "\n".join(lines) + "\n"


def rmse_mae(predicted: np.ndarray, actual: np.ndarray) -> tuple[float, float]:
    """Root mean squared error and mean absolute error of ``predicted`` against ``actual``."""
    errs = np.asarray(predicted, dtype=np.float64) - np.asarray(actual, dtype=np.float64)
    if not errs.size:
        raise GradrecError("rmse_mae: empty prediction list")
    if not np.all(np.isfinite(errs)):
        raise EvaluationError("rmse_mae: non-finite prediction or target")
    return float(np.sqrt(np.mean(errs * errs))), float(np.mean(np.abs(errs)))


def ranking_metrics(users: np.ndarray, rows: np.ndarray, ranks: np.ndarray,
                    n_relevant: np.ndarray, cutoffs: list[int]) -> dict[str, np.ndarray]:
    """Per-user Precision/Recall/NDCG@n and MRR: ``ranks[k]`` ranks a relevant item of
    ``users[rows[k]]``; ``n_relevant`` counts each user's relevant items, ranked or not."""
    if not n_relevant.all():
        raise GradrecError(f"user {users[np.argmin(n_relevant)]} has an empty relevant set")
    if any(n < 1 for n in cutoffs):
        raise GradrecError(f"cutoffs must be >= 1, got {cutoffs}")
    # no rank or relevant count exceeds n_items, so neither does the width
    width = min(max(cutoffs, default=1), max(int(n_relevant.max()), int(ranks.max(initial=0))))
    hit = np.zeros((users.size, width), dtype=bool)
    hit[rows[ranks <= width], ranks[ranks <= width] - 1] = True
    discount = np.array([1.0 / math.log2(r + 1) for r in range(1, width + 1)])
    # cumsum adds left to right, so every prefix is a sum in ascending rank order
    hits, dcg = np.cumsum(hit, axis=1), np.cumsum(np.where(hit, discount, 0.0), axis=1)
    ideal = np.cumsum([0.0, *discount])
    out = {}
    for n in cutoffs:
        col = min(n, width) - 1
        out[f"precision@{n}"] = hits[:, col] / n
        out[f"recall@{n}"] = hits[:, col] / n_relevant
        out[f"ndcg@{n}"] = dcg[:, col] / ideal[np.minimum(n_relevant, n)]
    best = np.full(users.size, np.inf)  # 1 / inf is the 0.0 MRR of no ranked item
    np.minimum.at(best, rows, ranks)
    out["mrr"] = 1.0 / best
    return out


def metric_order(cutoffs: list[int]) -> list[str]:
    names = []
    for n in sorted(cutoffs):
        names += [f"precision@{n}", f"recall@{n}", f"ndcg@{n}"]
    return names + ["mrr"]


def rank_candidates(users: np.ndarray, scores: np.ndarray, candidates: np.ndarray,
                    rows: np.ndarray, items: np.ndarray) -> np.ndarray:
    """1-based ranks of the candidate pairs (``rows[k]``, ``items[k]``) among
    the (B, n_items) ``candidates`` mask of their row of ``scores``, the rows
    of ``users``: item i with score s ranks 1 + #{j: s_j > s or s_j == s,
    j < i}, the (-score, item id) order. A non-finite candidate score
    raises; other scores are never read."""
    bad = candidates & ~np.isfinite(scores)
    if bad.any():
        row, item = divmod(int(np.argmax(bad)), scores.shape[1])
        raise EvaluationError(f"non-finite score for user {users[row]}, item {item}")
    ranks = np.empty(rows.size, dtype=np.int64)
    ids = np.arange(scores.shape[1])
    for lo in range(0, rows.size, BLOCK):
        r, i = rows[lo:lo + BLOCK], items[lo:lo + BLOCK]
        row_scores = scores[r]
        own = row_scores[np.arange(r.size), i][:, None]
        ahead = (row_scores > own) | ((row_scores == own) & (ids < i[:, None]))
        ahead &= candidates[r]
        ranks[lo:lo + BLOCK] = 1 + np.count_nonzero(ahead, axis=1)
    return ranks


def evaluate_ranking(score_rows: ScoreRows, train: InteractionTable, test: InteractionTable,
                     protocol: Protocol, cutoffs: list[int],
                     seed_echo: int | None = None) -> MetricReport:
    """Macro-averaged metrics under the full protocol (candidates: the items not consumed
    in train) or the sampled one (relevant items plus m negatives, one RNG stream per user)."""
    users = np.unique(test.users)
    if users.size == 0:
        raise GradrecError("no users could be evaluated")
    position = np.full(train.n_users, users.size)  # users without test rows sort last
    position[users] = np.arange(users.size)
    los = list(range(0, users.size, BLOCK))
    groups = []  # per table: row positions and items sorted by position, and block bounds
    for table in (train, test):
        order = np.argsort(position[table.users], kind="stable")
        at = position[table.users[order]]
        groups.append((at, table.items[order], np.searchsorted(at, los + [users.size]).tolist()))
    per_user, drawn = [], []
    for k, lo in enumerate(los):
        block = users[lo:lo + BLOCK]
        consumed, relevant = np.zeros((2, block.size, train.n_items), dtype=bool)
        for mask, (at, items, bounds) in zip((consumed, relevant), groups):
            mask[at[bounds[k]:bounds[k + 1]] - lo, items[bounds[k]:bounds[k + 1]]] = True
        if isinstance(protocol, FullRanking):
            candidates = ~consumed
        else:
            candidates = relevant.copy()
            cells = np.flatnonzero(~(consumed | relevant))  # the free (row, item) cells, flat
            bounds = np.searchsorted(cells, np.arange(block.size + 1) * train.n_items).tolist()
            for user, start, stop in zip(block.tolist(), bounds, bounds[1:]):
                rng = np.random.default_rng([protocol.seed, user])
                drawn.append(min(protocol.m, stop - start))
                candidates.flat[rng.choice(cells[start:stop], drawn[-1], replace=False)] = True
        rows, items = np.nonzero(relevant & candidates)
        ranks = rank_candidates(block, score_rows(block), candidates, rows, items)
        per_user.append(ranking_metrics(block, rows, ranks, np.count_nonzero(relevant, axis=1),
                                        cutoffs))
    # cumsum adds the users' values left to right in ascending id
    values = {name: np.cumsum(np.concatenate([part[name] for part in per_user]))[-1].item()
              / users.size for name in per_user[0]}
    seed = seed_echo if seed_echo is not None else getattr(protocol, "seed", 0)
    short = drawn and min(drawn) < protocol.m  # a pool smaller than m was ranked whole
    return MetricReport(values=values, protocol=protocol.describe(), seed=seed,
                        users=users.size, order=metric_order(cutoffs),
                        drawn=(min(drawn), float(np.median(drawn))) if short else None)


def pair_scores(score_rows: ScoreRows, users: np.ndarray, items: np.ndarray) -> np.ndarray:
    """``score_rows([u])[0, i]`` for each (u, i) pair; every distinct user
    is scored once, ``BLOCK`` users per call."""
    distinct, inverse = np.unique(users, return_inverse=True)
    out = np.empty(users.size)
    for lo in range(0, distinct.size, BLOCK):
        sel = np.flatnonzero((inverse >= lo) & (inverse < lo + BLOCK))
        out[sel] = score_rows(distinct[lo:lo + BLOCK])[inverse[sel] - lo, items[sel]]
    return out


def rating_report(predicted: np.ndarray, actual: np.ndarray, seed: int, users: int) -> MetricReport:
    rmse, mae = rmse_mae(predicted, actual)
    return MetricReport(values={"rmse": rmse, "mae": mae}, protocol="rating",
                        seed=seed, users=users, order=["rmse", "mae"])
