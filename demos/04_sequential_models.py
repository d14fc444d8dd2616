"""Next-item prediction on planted first-order chains: every item is
always followed by the next one in a fixed cycle, so a sequence model
that learns the transition should place the true next item first."""

import numpy as np

from gradrec import data, engine as E, metrics, synthetic
from gradrec.models import train
from gradrec.models.baselines import PopularityRanker
from gradrec.models.sequential import AttRec, Caser, Prme

table = synthetic.markov_chains(n_users=60, n_items=15, history=8, seed=1)
train_set, test = data.split(table, data.LeaveOneOut())
print("users:", table.n_users, "items:", table.n_items,
      "held-out next items:", len(test.interactions))

pop = PopularityRanker(train_set)
pop_hr1 = metrics.evaluate_ranking(pop.score_matrix, train_set, test,
                                   metrics.FullRanking(), [1]).values["recall@1"]
print(f"popularity HR@1 = {pop_hr1:.3f}")

# ---- PRME: first-order metric embedding -----------------------------------

print("\n== PRME (L=1) ==")
seq1 = {"train": train_set, "sequences": data.build_sequences(train_set, window=1, horizon=1)}
prme = Prme(table.n_users, table.n_items, k=8, alpha=0.2, seed=2)
trace = train(prme, seq1, E.Adam(lr=0.05), epochs=30, batch_size=64, seed=3)
hr1 = metrics.evaluate_ranking(prme.score_matrix, train_set, test,
                               metrics.FullRanking(), [1]).values["recall@1"]
print(f"pairwise loss {trace[0]:.4f} -> {trace[-1]:.4f}; next-item HR@1 = {hr1:.3f}")

# ---- Caser: convolutions over the window -----------------------------------

print("\n== Caser (L=5) ==")
seq5 = {"train": train_set, "sequences": data.build_sequences(train_set, window=5, horizon=1)}
caser = Caser(table.n_users, table.n_items, d=8, window=5, n_h=2, n_v=1, seed=4)
trace = train(caser, seq5, E.Adam(lr=0.05), epochs=12, batch_size=16, seed=5, neg_samples=3)
hr1 = metrics.evaluate_ranking(caser.score_matrix, train_set, test,
                               metrics.FullRanking(), [1]).values["recall@1"]
print(f"BCE loss {trace[0]:.4f} -> {trace[-1]:.4f}; next-item HR@1 = {hr1:.3f}")
pad_row = caser.params["item_embed"][caser.padding_id]
print("padding row still zero:", bool(np.all(pad_row == 0.0)))

# ---- AttRec: self-attention + long-term metric term -------------------------

print("\n== AttRec (L=3) ==")
seq3 = {"train": train_set, "sequences": data.build_sequences(train_set, window=3, horizon=1)}
attrec = AttRec(table.n_users, table.n_items, d=8, window=3, omega=0.3,
                margin=0.5, clip_rho=1.5, seed=6)
trace = train(attrec, seq3, E.Adam(lr=0.05), epochs=15, batch_size=16, seed=7)
report = metrics.evaluate_ranking(attrec.score_matrix, train_set, test,
                                  metrics.FullRanking(), [1, 5])
print(f"hinge loss {trace[0]:.4f} -> {trace[-1]:.4f}")
print(f"HR@1 = {report.values['recall@1']:.3f}, HR@5 = {report.values['recall@5']:.3f}")
norms = [float(np.linalg.norm(attrec.params[n], axis=1).max())
         for n in ("att_item", "lt_user", "lt_item")]
print(f"max embedding norms after clipping: {[round(v, 4) for v in norms]} (rho = 1.5)")
