"""Top-n ranking on implicit feedback: BPR matrix factorization against
the popularity baseline, metric learning with its unit-ball projection,
the NeuMF family, and the denoising autoencoder."""

import numpy as np

from gradrec import data, engine as E, metrics, synthetic
from gradrec.models import train
from gradrec.models.baselines import PopularityRanker
from gradrec.models.ranking import BprMf, Cdae, Cml, NeuMf

table = synthetic.clustered_implicit(n_clusters=3, users_per_cluster=14,
                                     items_per_cluster=8, likes_per_user=5, seed=1)
train_set, test = data.split(table, data.LeaveOneOut())
pop = PopularityRanker(train_set)
pop_report = metrics.evaluate_ranking(pop.score_matrix, train_set, test,
                                      metrics.FullRanking(), [5, 10])
print("users:", table.n_users, "items:", table.n_items,
      "train interactions:", len(train_set.interactions))
print(f"popularity baseline ndcg@10 = {pop_report.values['ndcg@10']:.4f}")

# ---- BPR -------------------------------------------------------------------

print("\n== BPR matrix factorization ==")
bpr = BprMf(table.n_users, table.n_items, k=8, l2=0.001, seed=2)
trace = train(bpr, {"train": train_set}, E.Adam(lr=0.05), epochs=30, batch_size=64, seed=3)
report = metrics.evaluate_ranking(bpr.score_matrix, train_set, test, metrics.FullRanking(),
                                  [5, 10])
print(f"pairwise loss {trace[0]:.4f} -> {trace[-1]:.4f}")
print(f"ndcg@10 = {report.values['ndcg@10']:.4f} "
      f"({report.values['ndcg@10'] / pop_report.values['ndcg@10']:.2f}x popularity)")

# ---- CML and its projection invariant ---------------------------------------

print("\n== collaborative metric learning ==")
cml = Cml(table.n_users, table.n_items, k=8, margin=0.8, seed=4)
step_norms = []  # on_step sees the parameters after every optimizer step


def largest_norm(params):
    step_norms.append(np.linalg.norm(np.vstack([params["user_points"],
                                                params["item_points"]]), axis=1).max())


train(cml, {"train": train_set}, E.Adam(lr=0.05), epochs=30, batch_size=32, seed=5,
      neg_samples=4, on_step=largest_norm)
report = metrics.evaluate_ranking(cml.score_matrix, train_set, test, metrics.FullRanking(),
                                  [10])
print(f"max embedding norm over {len(step_norms)} steps: {max(step_norms):.6f} (unit ball)")
print(f"ndcg@10 = {report.values['ndcg@10']:.4f}")

# ---- the NeuMF family --------------------------------------------------------

print("\n== GMF / MLP / NeuMF ==")
for variant in NeuMf.VARIANTS:
    net = NeuMf(table.n_users, table.n_items, k=8, variant=variant, seed=6)
    train(net, {"train": train_set}, E.Adam(lr=0.05), epochs=25, batch_size=128, seed=7,
          neg_samples=4)
    report = metrics.evaluate_ranking(net.score_matrix, train_set, test,
                                      metrics.FullRanking(), [10])
    print(f"{variant:6s} ndcg@10 = {report.values['ndcg@10']:.4f}")

# ---- CDAE --------------------------------------------------------------------

print("\n== collaborative denoising autoencoder ==")
cdae = Cdae(table.n_users, table.n_items, hidden=12, corruption=0.2, seed=8)
trace = train(cdae, {"train": train_set}, E.Adam(lr=0.05), epochs=40, seed=9, neg_samples=4)
report = metrics.evaluate_ranking(cdae.score_matrix, train_set, test, metrics.FullRanking(),
                                  [10])
print(f"logistic loss {trace[0]:.4f} -> {trace[-1]:.4f}")
print(f"ndcg@10 = {report.values['ndcg@10']:.4f} "
      f"({report.values['ndcg@10'] / pop_report.values['ndcg@10']:.2f}x popularity)")
