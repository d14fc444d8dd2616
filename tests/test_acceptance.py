"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from gradrec import cli
from gradrec import config as cfgmod
from gradrec import data as datamod
from gradrec import engine as E
from gradrec import metrics, runner, synthetic
from gradrec.models import train
from gradrec.models.baselines import PopularityRanker
from gradrec.models.ranking import BprMf, Cdae, Cml, NeuMf
from gradrec.models.rating import BiasedSvd, FactorizationMachine, ItemAutoRec
from gradrec.models.sequential import AttRec, Caser, Prme

from conftest import consumed as consumed_items, ranking_result


def announce(criterion: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


# --------------------------------------------------------------------------
# shared fixtures
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("desk") / "desk100k.txt"
    datamod.write_uirt(path, synthetic.desk_scale_ratings())
    return path


def scaled_params(model, seed, scale=0.5, zero_pad=None):
    """Random parameter values away from relu kinks for finite differences."""
    rng = np.random.default_rng(seed)
    for name in model.params:
        model.params[name] = rng.normal(scale=scale, size=model.params[name].shape)
    if zero_pad is not None:
        model.params[zero_pad][-1] = 0.0
    return model


# --------------------------------------------------------------------------
# criterion 1: gradient suite, rel err < 1e-4, < 60 s
# --------------------------------------------------------------------------


def gradient_cases():
    """(label, build_loss, params) per implemented loss; dims <= 8,
    <= 20 interactions each."""
    cases = []

    table, _ = synthetic.planted_factor_ratings(4, 4, rank=2, density=1.0, seed=1)
    svd = BiasedSvd.for_table(table, k=4, l2=0.01, seed=2)
    users, items, ratings = table.users[:16], table.items[:16], table.ratings[:16]
    cases.append(("biasedsvd", lambda lv: svd.build_loss(lv, (users, items, ratings)),
                  svd.params))

    ks = np.arange(10)
    rows = datamod.FeatureRows((ks % 3).astype(float), np.stack([ks % 5, 5 + ks % 3], axis=1),
                               np.tile([1.0, 0.5], (10, 1)), 8)
    fm = FactorizationMachine(8, 4, l2=0.01, seed=3)
    cases.append(("fm", lambda lv: fm.build_loss(lv, rows),
                  fm.params))

    ar_table, _ = synthetic.planted_factor_ratings(5, 4, rank=2, density=0.8, seed=4)
    autorec = ItemAutoRec.for_table(ar_table, hidden=4, l2=0.02, seed=5)
    autorec.load_columns(ar_table)
    ar_items = np.arange(ar_table.n_items)
    cases.append(("autorec", lambda lv: autorec.build_loss(lv, ar_items),
                  autorec.params))

    bpr = BprMf(5, 8, k=4, l2=0.02, seed=6)
    bu = np.array([0, 1, 2, 3, 4, 0, 1, 2])
    bi = np.array([0, 1, 2, 3, 4, 5, 6, 7])
    bj = np.array([7, 6, 5, 4, 3, 2, 1, 0])
    cases.append(("bpr", lambda lv: bpr.build_loss(lv, (bu, bi, bj)),
                  bpr.params))

    cml = Cml(4, 6, k=3, margin=0.4, seed=7)
    rng = np.random.default_rng(8)
    cml.params["user_points"] = rng.normal(scale=0.4, size=(4, 3))
    cml.params["item_points"] = rng.normal(scale=0.4, size=(6, 3))
    cu = np.array([0, 1, 2, 3])
    ci = np.array([0, 1, 2, 3])
    cj = np.array([4, 5, 4, 5])
    cases.append(("cml", lambda lv: cml.build_loss(lv, (cu, ci, cj)),
                  cml.params))

    nu = np.array([0, 1, 2, 0])
    ni = np.array([1, 2, 3, 4])
    ny = np.array([1.0, 0.0, 1.0, 0.0])
    for variant in NeuMf.VARIANTS:
        net = scaled_params(NeuMf(3, 5, k=4, variant=variant, seed=9), seed=10)
        cases.append((f"neumf[{variant}]",
                      lambda lv, net=net: net.build_loss(lv, (nu, ni, ny)),
                      net.params))

    cdae = Cdae(3, 6, hidden=3, corruption=0.0, seed=11)
    corrupted = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    targets = np.array([0, 2, 4, 1, 5])
    labels = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    cases.append(("cdae", lambda lv: cdae.build_loss(lv, (1, corrupted, targets, labels)),
                  cdae.params))

    prme = scaled_params(Prme(3, 5, k=3, alpha=0.4, l2=0.01, seed=12), seed=13)
    pu = np.array([0, 1, 2])
    pp = np.array([0, 1, 2])
    pi = np.array([1, 2, 3])
    pj = np.array([4, 0, 4])
    prme_batch = (pu, pp[:, None], pi[:, None], pj[:, None])
    cases.append(("prme", lambda lv: prme.build_loss(lv, prme_batch),
                  prme.params))

    seq_table = synthetic.markov_chains(n_users=3, n_items=6, history=5, seed=14)
    ds3 = datamod.build_sequences(seq_table, 3, 1)
    caser = scaled_params(Caser(3, 6, d=4, window=3, n_h=1, n_v=1, seed=15), seed=16,
                          scale=0.4, zero_pad="item_embed")
    picked = np.array([0, 2])
    caser_batch = (ds3.users[picked], ds3.windows[picked], ds3.targets[picked],
                   np.array([[4, 5], [0, 1]]))
    cases.append(("caser", lambda lv: caser.build_loss(lv, caser_batch),
                  caser.params))

    ds2 = datamod.build_sequences(seq_table, 2, 1)
    clean = np.flatnonzero((ds2.windows != 6).all(axis=1))[[0, 2]]
    attrec = scaled_params(AttRec(3, 6, d=4, window=2, omega=0.4, margin=2.0, seed=17),
                           seed=18, scale=0.6, zero_pad="att_item")
    att_batch = (ds2.users[clean], ds2.windows[clean], ds2.targets[clean], np.array([[4], [5]]))
    cases.append(("attrec", lambda lv: attrec.build_loss(lv, att_batch),
                  attrec.params))
    return cases


def test_criterion_1_gradient_suite():
    start = time.monotonic()
    worst = {}
    for label, build, params in gradient_cases():
        result = E.grad_check(build, params)
        worst[label] = result.max_rel_err
        assert result.max_rel_err < 1e-4, f"{label}: {result.max_rel_err:.2e}"
    elapsed = time.monotonic() - start
    peak = max(worst.values())
    announce("1 (gradient suite)", peak < 1e-4 and elapsed < 60,
             f"{len(worst)} losses, max rel err {peak:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 2: FM linear-time identity vs brute force, 1000 instances, < 5 s
# --------------------------------------------------------------------------


def test_criterion_2_fm_identity():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        k = int(rng.integers(1, 9))
        w0 = float(rng.normal())
        w = rng.normal(size=n)
        v = rng.normal(size=(n, k))
        x = rng.normal(size=n)
        brute = w0 + float(w @ x)
        for i in range(n):
            for j in range(i + 1, n):
                brute += float(v[i] @ v[j]) * x[i] * x[j]
        model = FactorizationMachine(n, k)
        model.params["intercept"] = np.asarray(w0)
        model.params["linear"] = w
        model.params["factors"] = v
        fast = float(model.raw(model.const_leaves(), np.arange(n)[None], x[None]).value[0])
        worst = max(worst, abs(fast - brute))
    elapsed = time.monotonic() - start
    announce("2 (FM identity)", worst < 1e-9 and elapsed < 5,
             f"1000 instances, max abs diff {worst:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 3: metric oracle, 200 instances, exact / 1e-12, < 5 s
# --------------------------------------------------------------------------


def oracle_metrics(ranked, relevant, cutoffs):
    out = {}
    for n in cutoffs:
        hits = len([x for x in ranked[:n] if x in relevant])
        out[f"precision@{n}"] = hits / n
        out[f"recall@{n}"] = hits / len(relevant)
        dcg = sum(1.0 / math.log2(r + 1)
                  for r, item in enumerate(ranked[:n], 1) if item in relevant)
        ideal = sum(1.0 / math.log2(r + 1)
                    for r in range(1, min(len(relevant), n) + 1))
        out[f"ndcg@{n}"] = dcg / ideal
    out["mrr"] = next((1.0 / r for r, item in enumerate(ranked, 1) if item in relevant), 0.0)
    return out


def test_criterion_3_metric_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst_ndcg = 0.0
    for trial in range(200):
        n_items = int(rng.integers(3, 40))
        ranked = rng.permutation(n_items).tolist()
        n_rel = int(rng.integers(1, min(6, n_items) + 1))
        relevant = set(rng.choice(n_items, size=n_rel, replace=False).tolist())
        cutoffs = sorted(set(rng.integers(1, n_items + 1, size=3).tolist()))
        got = {name: value[0] for name, value in
               metrics.ranking_metrics(*ranking_result(ranked, relevant), cutoffs).items()}
        want = oracle_metrics(ranked, relevant, cutoffs)
        for n in cutoffs:
            assert got[f"precision@{n}"] == want[f"precision@{n}"], trial  # bitwise
            assert got[f"recall@{n}"] == want[f"recall@{n}"], trial
            worst_ndcg = max(worst_ndcg, abs(got[f"ndcg@{n}"] - want[f"ndcg@{n}"]))
            assert abs(got[f"ndcg@{n}"] - want[f"ndcg@{n}"]) <= 1e-12
        assert got["mrr"] == want["mrr"]

        preds = rng.normal(3, 1, size=8)
        actual = rng.normal(3, 1, size=8)
        rmse, mae = metrics.rmse_mae(preds, actual)
        o_rmse = math.sqrt(sum((p - a) ** 2 for p, a in zip(preds, actual)) / 8)
        o_mae = sum(abs(p - a) for p, a in zip(preds, actual)) / 8
        assert abs(rmse - o_rmse) <= 1e-12 and abs(mae - o_mae) <= 1e-12
    elapsed = time.monotonic() - start
    announce("3 (metric oracle)", elapsed < 5,
             f"200 instances exact, ndcg max diff {worst_ndcg:.1e}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 4: planted-structure recovery, each run < 2 min
# --------------------------------------------------------------------------


def test_criterion_4a_biasedsvd_planted_rank2():
    start = time.monotonic()
    table, _ = synthetic.planted_factor_ratings(15, 12, rank=2, density=0.7,
                                                mean=3.0, seed=4)
    model = BiasedSvd.for_table(table, k=2, l2=0.0, seed=1)
    train(model, {"train": table}, E.Adam(lr=0.05), epochs=220, batch_size=64, seed=2)
    rmse = float(np.sqrt(np.mean([(model.predict(x.user, x.item) - x.rating) ** 2
                                  for x in table.interactions])))
    elapsed = time.monotonic() - start
    announce("4a (biasedSVD rank-2)", rmse < 0.05 and elapsed < 120,
             f"train RMSE {rmse:.4f} (< 0.05), {elapsed:.1f}s")


def test_criterion_4b_bprmf_block_auc():
    start = time.monotonic()
    train_table, held = synthetic.block_preferences(seed=5)
    model = BprMf(train_table.n_users, train_table.n_items, k=2, l2=0.001, seed=1)
    train(model, {"train": train_table}, E.Adam(lr=0.05), epochs=30, batch_size=64, seed=2)

    rng = np.random.default_rng(0)
    consumed = consumed_items(train_table)
    held_by_user = consumed_items(held)
    wins, total = 0.0, 0
    for user, positives in sorted(held_by_user.items()):
        negatives = [i for i in range(train_table.n_items)
                     if i not in consumed.get(user, set()) and i not in positives]
        for pos in sorted(positives):
            s_pos = model.score(user, pos)
            for neg in rng.choice(negatives, size=min(20, len(negatives)), replace=False):
                s_neg = model.score(user, int(neg))
                wins += 1.0 if s_pos > s_neg else (0.5 if s_pos == s_neg else 0.0)
                total += 1
    auc = wins / total
    elapsed = time.monotonic() - start
    announce("4b (BPRMF block AUC)", auc >= 0.95 and elapsed < 120,
             f"held-out AUC {auc:.4f} (>= 0.95), {elapsed:.1f}s")


def markov_next_item_setup(window, n_items=15, n_users=60, history=8, seed=2):
    """(table, train table, test table, training bundle)."""
    table = synthetic.markov_chains(n_users=n_users, n_items=n_items,
                                    history=history, seed=seed)
    train_table, test = datamod.split(table, datamod.LeaveOneOut())
    bundle = {"train": train_table, "sequences": datamod.build_sequences(train_table, window, 1)}
    return table, train_table, test, bundle


def test_criterion_4c_sequential_planted_markov():
    start = time.monotonic()
    details = []

    table, train_table, test, bundle = markov_next_item_setup(window=1)
    prme = Prme(table.n_users, table.n_items, k=8, alpha=0.2, l2=0.0, seed=1)
    train(prme, bundle, E.Adam(lr=0.05), epochs=30, batch_size=64, seed=2)
    hr1 = metrics.evaluate_ranking(prme.score_matrix, train_table, test,
                                   metrics.FullRanking(), [1]).values["recall@1"]
    details.append(f"PRME HR@1 {hr1:.3f}")
    assert hr1 >= 0.9

    table, train_table, test, bundle = markov_next_item_setup(window=5, seed=6)
    caser = Caser(table.n_users, table.n_items, d=8, window=5, n_h=2, n_v=1, seed=7)
    train(caser, bundle, E.Adam(lr=0.05), epochs=12, batch_size=16, seed=8, neg_samples=3)
    hr1c = metrics.evaluate_ranking(caser.score_matrix, train_table, test,
                                    metrics.FullRanking(), [1]).values["recall@1"]
    details.append(f"Caser HR@1 {hr1c:.3f}")
    assert hr1c >= 0.9

    table, train_table, test, bundle = markov_next_item_setup(window=3, n_items=20, seed=8)
    attrec = AttRec(table.n_users, table.n_items, d=8, window=3, omega=0.3,
                    margin=0.5, clip_rho=1.5, seed=9)
    train(attrec, bundle, E.Adam(lr=0.05), epochs=15, batch_size=16, seed=10)
    hr5 = metrics.evaluate_ranking(attrec.score_matrix, train_table, test,
                                   metrics.FullRanking(), [5]).values["recall@5"]
    pop5 = metrics.evaluate_ranking(PopularityRanker(train_table).score_matrix, train_table, test,
                                    metrics.FullRanking(), [5]).values["recall@5"]
    details.append(f"AttRec HR@5 {hr5:.3f} vs 1.5x popularity {1.5 * pop5:.3f}")
    assert hr5 >= 1.5 * pop5

    elapsed = time.monotonic() - start
    announce("4c (planted Markov)", elapsed < 360, "; ".join(details) + f", {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 5: overfit sanity, loss < 5% of initial within 500 epochs
# --------------------------------------------------------------------------


def overfit_runs():
    """(model name, trace) on <= 50-interaction fixtures; epochs <= 500."""
    out = []
    ratings, _ = synthetic.planted_factor_ratings(6, 6, rank=2, density=0.9,
                                                  mean=3.0, seed=20)
    ratings = ratings.take(np.arange(len(ratings))[:50])

    svd = BiasedSvd.for_table(ratings, k=4, l2=0.0, seed=1)
    out.append(("biasedsvd", train(svd, {"train": ratings}, E.Adam(lr=0.05), 300, 64, seed=2)))

    fm = FactorizationMachine(ratings.n_users + ratings.n_items, k=4, l2=0.0,
                              label_range=ratings.rating_range, seed=3)
    out.append(("fm", train(fm, {"train": ratings}, E.Adam(lr=0.05), 400, 64, seed=4)))

    autorec = ItemAutoRec.for_table(ratings, hidden=8, l2=0.0, seed=5)
    out.append(("autorec", train(autorec, {"train": ratings}, E.Adam(lr=0.05), 500, seed=6)))

    implicit = synthetic.clustered_implicit(n_clusters=2, users_per_cluster=5,
                                            items_per_cluster=5, likes_per_user=4,
                                            seed=21)  # 40 interactions
    bpr = BprMf(implicit.n_users, implicit.n_items, k=4, l2=0.0, seed=7)
    out.append(("bprmf", train(bpr, {"train": implicit}, E.Adam(lr=0.05), 200, 64, seed=8)))

    cml = Cml(implicit.n_users, implicit.n_items, k=4, margin=0.2, seed=9)
    out.append(("cml", train(cml, {"train": implicit}, E.Adam(lr=0.05), 200, 64, seed=10,
                             neg_samples=2)))

    for variant in NeuMf.VARIANTS:
        net = NeuMf(implicit.n_users, implicit.n_items, k=8, variant=variant, seed=11)
        out.append((variant, train(net, {"train": implicit}, E.Adam(lr=0.05), 400, 128,
                                   seed=12, neg_samples=2)))

    cdae = Cdae(implicit.n_users, implicit.n_items, hidden=12, corruption=0.0, seed=13)
    out.append(("cdae", train(cdae, {"train": implicit}, E.Adam(lr=0.1), 400, seed=14,
                              neg_samples=4)))

    chains = synthetic.markov_chains(n_users=8, n_items=9, history=6, seed=22)  # 48
    seq1 = {"train": chains, "sequences": datamod.build_sequences(chains, 1, 1)}
    prme = Prme(chains.n_users, chains.n_items, k=4, alpha=0.3, l2=0.0, seed=15)
    out.append(("prme", train(prme, seq1, E.Adam(lr=0.05), 200, 64, seed=16)))

    seq3 = {"train": chains, "sequences": datamod.build_sequences(chains, 3, 1)}
    caser = Caser(chains.n_users, chains.n_items, d=4, window=3, n_h=2, n_v=1, seed=17)
    out.append(("caser", train(caser, seq3, E.Adam(lr=0.05), 150, 16, seed=18,
                               neg_samples=2)))

    attrec = AttRec(chains.n_users, chains.n_items, d=4, window=3, omega=0.3,
                    margin=0.5, clip_rho=2.0, seed=19)
    out.append(("attrec", train(attrec, seq3, E.Adam(lr=0.05), 200, 16, seed=20)))
    return out


def test_criterion_5_overfit_sanity():
    start = time.monotonic()
    ratios = {}
    for name, trace in overfit_runs():
        assert len(trace) <= 500, name
        ratios[name] = trace[-1] / trace[0] if trace[0] else 0.0
        assert ratios[name] < 0.05, f"{name}: final/initial = {ratios[name]:.3f}"
    elapsed = time.monotonic() - start
    worst = max(ratios, key=ratios.get)
    announce("5 (overfit sanity)", True,
             f"12 models, worst {worst} at {ratios[worst] * 100:.2f}% of initial, "
             f"{elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 6: desk-scale run, < 5 min each
# --------------------------------------------------------------------------


def test_criterion_6a_desk_scale_biasedsvd(desk_file):
    start = time.monotonic()
    cfg = cfgmod.parse_config(f"""\
[data]
path = {desk_file}
format = uirt
split = random:0.1
seed = 42

[model]
name = biasedsvd
k = 16

[train]
optimizer = adam
lr = 0.01
l2 = 0.02
epochs = 15
batch_size = 2048
seed = 7
""")
    report, _, _ = runner.run(cfg)
    bundle = runner.prepare_data(cfg)
    mean = bundle["train"].global_mean
    baseline = float(np.sqrt(np.mean([(mean - x.rating) ** 2
                                      for x in bundle["test"].interactions])))
    improvement = 1.0 - report.values["rmse"] / baseline
    elapsed = time.monotonic() - start
    announce("6a (desk-scale biasedSVD)", improvement >= 0.10 and elapsed < 300,
             f"RMSE {report.values['rmse']:.4f} vs global-mean {baseline:.4f}: "
             f"{improvement * 100:.1f}% better (>= 10%), {elapsed:.0f}s")


def test_criterion_6b_desk_scale_bprmf(desk_file):
    start = time.monotonic()
    cfg = cfgmod.parse_config(f"""\
[data]
path = {desk_file}
format = uirt
split = loo
seed = 42
binarize_threshold = 4.0

[model]
name = bprmf
k = 32

[train]
optimizer = adam
lr = 0.02
l2 = 0.002
epochs = 40
batch_size = 1024
neg_samples = 4
seed = 7

[eval]
cutoffs = 10
protocol = sampled:100
""")
    report, _, _ = runner.run(cfg)
    bundle = runner.prepare_data(cfg)
    pop = PopularityRanker(bundle["train"])
    base = metrics.evaluate_ranking(pop.score_matrix, bundle["train"], bundle["test"],
                                    cfg.eval.protocol_obj(cfg.data.seed),
                                    [10]).values["ndcg@10"]
    ratio = report.values["ndcg@10"] / base
    elapsed = time.monotonic() - start
    announce("6b (desk-scale BPRMF)", ratio >= 1.2 and elapsed < 300,
             f"NDCG@10 {report.values['ndcg@10']:.4f} vs popularity {base:.4f}: "
             f"{ratio:.2f}x (>= 1.2x), {elapsed:.0f}s")


# --------------------------------------------------------------------------
# criterion 7: reproducibility and persistence
# --------------------------------------------------------------------------


TRAIN = {"optimizer": "adam", "lr": "0.03", "l2": "0.001", "epochs": "2", "batch_size": "32",
         "seed": "5"}


# name -> (data kind, [model] lines, [eval] lines[, [train] values that
# replace TRAIN's]). Each entry trains until its scores differ between
# pairs: at TRAIN's 2 epochs fm and autorec still serve the rating clip,
# and at k = 4 every unit of mlp's last relu layer dies.
ALL_MODEL_CONFIGS = {
    "biasedsvd": ("ratings", "name = biasedsvd\nk = 4", ""),
    "fm": ("ratings", "name = fm\nk = 4", "", {"lr": "0.2", "epochs": "20"}),
    "autorec": ("ratings", "name = autorec\nk = 6", "", {"lr": "0.2", "epochs": "20"}),
    "bprmf": ("implicit", "name = bprmf\nk = 4", "cutoffs = 5\nprotocol = full"),
    "cml": ("implicit", "name = cml\nk = 4\nmargin = 0.5",
            "cutoffs = 5\nprotocol = full"),
    "gmf": ("implicit", "name = gmf\nk = 4", "cutoffs = 5\nprotocol = full"),
    "mlp": ("implicit", "name = mlp\nk = 8", "cutoffs = 5\nprotocol = full"),
    "neumf": ("implicit", "name = neumf\nk = 4", "cutoffs = 5\nprotocol = full"),
    "cdae": ("implicit", "name = cdae\nk = 6\ndropout_q = 0.2",
             "cutoffs = 5\nprotocol = full"),
    "prme": ("implicit", "name = prme\nk = 4\nalpha = 0.5",
             "cutoffs = 5\nprotocol = full"),
    "caser": ("implicit", "name = caser\nk = 4\nL = 3\nT = 1\nn_h = 2\nn_v = 1",
              "cutoffs = 5\nprotocol = full"),
    "attrec": ("implicit",
               "name = attrec\nk = 4\nL = 3\nomega = 0.4\nmargin = 0.5\nclip_rho = 1.5",
               "cutoffs = 5\nprotocol = full"),
}


def model_config_text(name, data_path):
    kind, model_lines, eval_lines, *train = ALL_MODEL_CONFIGS[name]
    train_lines = "".join(f"{key} = {value}\n" for key, value in {**TRAIN, **dict(*train)}.items())
    split = "random:0.2" if kind == "ratings" else "loo"
    binarize = "" if kind == "ratings" else "binarize_threshold = 1.0\n"
    text = f"""\
[data]
path = {data_path}
format = uirt
split = {split}
seed = 11
{binarize}
[model]
{model_lines}

[train]
{train_lines}"""
    if eval_lines:
        text += f"\n[eval]\n{eval_lines}\n"
    return text


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("seven")
    ratings, _ = synthetic.planted_factor_ratings(10, 10, rank=2, density=0.85,
                                                  mean=3.0, seed=13)
    squashed = dataclasses.replace(ratings, ratings=np.clip(np.rint(ratings.ratings), 1, 5))
    ratings_path = root / "ratings.txt"
    datamod.write_uirt(ratings_path, squashed)
    implicit_path = root / "implicit.txt"
    datamod.write_uirt(implicit_path, synthetic.markov_chains(25, 12, 7, seed=21))
    return {"ratings": ratings_path, "implicit": implicit_path, "root": root}


def test_criterion_7_reproducibility_and_persistence(small_files):
    start = time.monotonic()
    # byte-identical reports under identical config+seed
    cfg_path = small_files["root"] / "repro.ini"
    cfg_path.write_text(model_config_text("bprmf", small_files["implicit"]))
    blobs = []
    for tag in ("a", "b"):
        report_path = small_files["root"] / f"{tag}.report"
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out", str(small_files["root"] / f"{tag}.drec"),
                         "--report", str(report_path)]) == 0
        blobs.append(report_path.read_bytes())
    assert blobs[0] == blobs[1]

    # lossless round-trip for every model name
    checked = []
    for name in ALL_MODEL_CONFIGS:
        kind = ALL_MODEL_CONFIGS[name][0]
        cfg = cfgmod.parse_config(model_config_text(name, small_files[kind]))
        out = small_files["root"] / f"{name}.drec"
        _, model, _ = runner.run(cfg, checkpoint_path=out)
        _, restored, bundle = runner.load_model(out)

        table = bundle["table"]
        rng = np.random.default_rng(3)
        score_a = model.predict if cfg.model.task == "rating" else model.score
        score_b = restored.predict if cfg.model.task == "rating" else restored.score
        users = np.unique(bundle["train"].users).tolist()
        for _ in range(100):
            u = int(rng.choice(users))
            i = int(rng.integers(0, table.n_items))
            assert score_b(u, i) == score_a(u, i), name  # 0 ulps
        checked.append(name)
    elapsed = time.monotonic() - start
    announce("7 (reproducibility & persistence)", len(checked) == 12,
             f"byte-identical reports; 0-ulp round-trip for {len(checked)} models, "
             f"{elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 8: structural invariants after every optimizer step
# --------------------------------------------------------------------------


def test_criterion_8_structural_invariants():
    start = time.monotonic()
    implicit = synthetic.clustered_implicit(seed=30)
    steps = {"cml": 0, "attrec": 0, "caser": 0}

    cml = Cml(implicit.n_users, implicit.n_items, k=4, margin=0.5, seed=1)

    def watch_cml(params):
        steps["cml"] += 1
        for name in ("user_points", "item_points"):
            assert np.linalg.norm(params[name], axis=1).max() <= 1.0 + 1e-12

    train(cml, {"train": implicit}, E.Adam(lr=0.1), epochs=4, batch_size=16, seed=2,
          neg_samples=2, on_step=watch_cml)

    chains = synthetic.markov_chains(n_users=15, n_items=8, history=6, seed=31)
    seqs = datamod.build_sequences(chains, 3, 1)
    bundle = {"train": chains, "sequences": seqs}

    rho = 1.25
    attrec = AttRec(chains.n_users, chains.n_items, d=4, window=3, omega=0.4,
                    margin=0.5, clip_rho=rho, seed=3)

    def watch_attrec(params):
        steps["attrec"] += 1
        for name in ("att_item", "lt_user", "lt_item"):
            assert np.linalg.norm(params[name], axis=1).max() <= rho + 1e-12
        assert np.array_equal(params["att_item"][attrec.padding_id], np.zeros(4))
        # softmax row normalization on a live attention matrix
        ew = params["att_item"][seqs.windows[0]]
        q = np.maximum(ew @ params["w_query"], 0.0)
        k = np.maximum(ew @ params["w_key"], 0.0)
        attn = E.softmax_rows(E.const(q @ k.T / 2.0)).value
        assert np.all(attn >= 0.0)
        np.testing.assert_allclose(attn.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    train(attrec, bundle, E.Adam(lr=0.1), epochs=3, batch_size=8, seed=4,
          on_step=watch_attrec)

    caser = Caser(chains.n_users, chains.n_items, d=4, window=3, n_h=1, n_v=1, seed=5)

    def watch_caser(params):
        steps["caser"] += 1
        assert np.array_equal(params["item_embed"][caser.padding_id], np.zeros(4))

    train(caser, bundle, E.Adam(lr=0.1), epochs=3, batch_size=8, seed=6, on_step=watch_caser)

    assert all(count > 0 for count in steps.values())
    elapsed = time.monotonic() - start
    announce("8 (structural invariants)", True,
             f"checked after every step: cml x{steps['cml']}, attrec x{steps['attrec']}, "
             f"caser x{steps['caser']}, {elapsed:.1f}s")
