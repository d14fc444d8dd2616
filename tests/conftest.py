import dataclasses

import numpy as np
import pytest

from gradrec import data as datamod
from gradrec import synthetic


@pytest.fixture
def ratings_file(tmp_path):
    """Explicit 1-5 ratings, ~90 interactions, every user has >= 4."""
    table, _ = synthetic.planted_factor_ratings(10, 10, rank=2, density=0.85,
                                                mean=3.0, seed=13)
    # squash into the 1..5 range so clipping is meaningful
    squashed = dataclasses.replace(table, ratings=np.clip(np.rint(table.ratings), 1, 5))
    path = tmp_path / "ratings.txt"
    datamod.write_uirt(path, squashed)
    return path


@pytest.fixture
def implicit_file(tmp_path):
    """Markov-structured implicit data usable by ranking and sequential models."""
    table = synthetic.markov_chains(n_users=25, n_items=12, history=7, seed=21)
    path = tmp_path / "implicit.txt"
    datamod.write_uirt(path, table)
    return path


def consumed(table) -> dict[int, set[int]]:
    """user -> the set of items of its rows."""
    out: dict[int, set[int]] = {}
    for user, item in zip(table.users.tolist(), table.items.tolist()):
        out.setdefault(user, set()).add(item)
    return out


def ranking_result(ranked, relevant, user=0):
    """The (users, rows, ranks, n_relevant) arguments ``ranking_metrics``
    reduces, for one user, from a best-first candidate list and the relevant set."""
    ranks = [rank for rank, item in enumerate(ranked, start=1) if item in relevant]
    return (np.array([user]), np.zeros(len(ranks), dtype=np.int64),
            np.array(ranks, dtype=np.int64), np.array([len(relevant)]))


def score_rows(score_fn, n_items):
    """A ``score_matrix``-style row function from a per-pair score function."""
    def rows(users):
        return np.array([[float(score_fn(u, i)) for i in range(n_items)]
                         for u in np.asarray(users).tolist()]).reshape(len(users), n_items)
    return rows


def config_text(path, model_lines, train_lines, data_lines="", eval_lines=None):
    text = f"""\
[data]
path = {path}
format = uirt
{data_lines}
[model]
{model_lines}

[train]
{train_lines}
"""
    if eval_lines is not None:
        text += f"\n[eval]\n{eval_lines}\n"
    return text
