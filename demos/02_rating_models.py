"""Rating prediction on synthetic data with planted structure: biased SVD
against the global-mean baseline, a factorization machine on sparse feature
rows, and the item autoencoder."""

import numpy as np

from gradrec import data, engine as E, metrics, synthetic
from gradrec.models import train
from gradrec.models.baselines import GlobalMeanRating
from gradrec.models.rating import BiasedSvd, FactorizationMachine, ItemAutoRec

# ---- biased SVD recovers planted rank-2 ratings ---------------------------

print("== biased SVD on noiseless rank-2 ratings ==")
table, _ = synthetic.planted_factor_ratings(20, 16, rank=2, density=0.6, seed=1)
train_set, test = data.split(table, data.RandomHoldout(0.2, seed=7))

model = BiasedSvd.for_table(train_set, k=2, l2=0.0, seed=2)
trace = train(model, {"train": train_set}, E.Adam(lr=0.05), epochs=150, batch_size=64, seed=3)
print(f"training loss: {trace[0]:.4f} -> {trace[-1]:.6f}")



def test_predictions(scorer):
    """The scorer's prediction per test row, read from its score_matrix rows."""
    return metrics.pair_scores(scorer.score_matrix, test.users, test.items)


rmse, mae = metrics.rmse_mae(test_predictions(model), test.ratings)
base_rmse, _ = metrics.rmse_mae(test_predictions(GlobalMeanRating(train_set)), test.ratings)
print(f"test RMSE {rmse:.4f} vs global-mean baseline {base_rmse:.4f}")

# ---- factorization machine ------------------------------------------------

print("\n== factorization machine on sparse rows ==")
rng = np.random.default_rng(4)
v_true = rng.normal(size=(6, 2))
w_true = rng.normal(size=6)


def planted(x):
    acc = float(w_true @ x)
    for i in range(6):
        for j in range(i + 1, 6):
            acc += float(v_true[i] @ v_true[j]) * x[i] * x[j]
    return acc


xs = np.array([np.where(rng.random(6) < 0.5, rng.normal(size=6), 0.0) for _ in range(80)])
labels = np.array([planted(x) for x in xs])
# every row lists all six features; a zero value adds nothing
rows = data.FeatureRows(labels, np.tile(np.arange(6), (80, 1)), xs, n_features=6)

fm = FactorizationMachine(6, k=2, l2=0.0, label_range=(labels.min(), labels.max()), seed=5)
train(fm, {"train_rows": rows}, E.Adam(lr=0.05), epochs=300, batch_size=80, seed=6)
preds = fm.raw(fm.const_leaves(), rows.index, rows.value).value
rmse = float(np.sqrt(np.mean((preds - labels) ** 2)))
print(f"train RMSE on the planted degree-2 function: {rmse:.4f}")

# ---- item autoencoder ------------------------------------------------------

print("\n== item-based autoencoder ==")
ar = ItemAutoRec.for_table(train_set, hidden=8, l2=0.01, seed=7)
trace = train(ar, {"train": train_set}, E.Adam(lr=0.05), epochs=200, seed=8)
predicted = test_predictions(ar)
rmse, mae = metrics.rmse_mae(predicted, test.ratings)
print(f"reconstruction loss {trace[0]:.1f} -> {trace[-1]:.3f}; test RMSE {rmse:.4f}")
report = metrics.rating_report(predicted, test.ratings, seed=7,
                               users=len(set(test.users.tolist())))
print("\nreport block:\n" + report.to_text())
