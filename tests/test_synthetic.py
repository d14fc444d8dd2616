"""The desk corpus generator against the per-record loop it replaced: the
same RNG calls, so the same table, id for id and rating for rating."""

import numpy as np
import pytest

from gradrec import data, synthetic


def reference_desk_scale_ratings(n_users, n_items, n_ratings, n_clusters=8, seed=7):
    """``desk_scale_ratings`` as one record per rating: a ``choice(p=)`` per
    draw, a set of seen pairs and ``table_from_records``."""
    rng = np.random.default_rng(seed)
    user_bias = rng.normal(0.0, 0.45, size=n_users)
    item_bias = rng.normal(0.0, 0.3, size=n_items)
    user_cluster = rng.integers(0, n_clusters, size=n_users)
    item_cluster = rng.integers(0, n_clusters, size=n_items)
    weights = 1.0 / np.arange(1, n_items + 1) ** 0.35
    weights = weights[rng.permutation(n_items)]
    weights /= weights.sum()

    records = []
    seen = set()
    t = 0
    while len(records) < n_ratings:
        u = int(rng.integers(0, n_users))
        i = int(rng.choice(n_items, p=weights))
        if (u, i) in seen:
            continue
        seen.add((u, i))
        taste = 1.8 if user_cluster[u] == item_cluster[i] else -0.8
        value = 3.4 + user_bias[u] + item_bias[i] + taste + rng.normal(0.0, 0.6)
        rating = float(np.clip(np.rint(value), 1, 5))
        records.append((f"u{u}", f"i{i}", rating, t))
        t += 1
    return data.table_from_records(records)


@pytest.mark.parametrize("seed,shape", [
    (7, (943, 400, 3_000)),   # the desk's users over fewer items
    (1, (60, 900, 2_500)),    # more items than users
    (42, (300, 300, 4_000)),
    (3, (4, 5, 19)),          # 19 of 20 pairs: most late draws repeat a pair
    (91, (1, 1, 1)),          # one pair
])
def test_desk_corpus_equals_the_per_record_loop(seed, shape):
    n_users, n_items, n_ratings = shape
    got = synthetic.desk_scale_ratings(n_users, n_items, n_ratings, seed=seed)
    want = reference_desk_scale_ratings(n_users, n_items, n_ratings, seed=seed)
    assert (got.user_ids, got.item_ids) == (want.user_ids, want.item_ids)
    assert (got.user_index, got.item_index) == (want.user_index, want.item_index)
    for column in ("users", "items", "ratings", "timestamps"):
        mine, theirs = getattr(got, column), getattr(want, column)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), column
