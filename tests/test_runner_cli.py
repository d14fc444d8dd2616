import ctypes
import gc
import math
import subprocess
import sys

import numpy as np
import pytest

from gradrec import checkpoint as ckpt
from gradrec import cli
from gradrec import config as cfgmod
from gradrec import data as datamod
from gradrec import runner, synthetic

from conftest import config_text, consumed
from test_acceptance import ALL_MODEL_CONFIGS, model_config_text


def rating_config(path, **over):
    return config_text(
        path,
        model_lines="name = biasedsvd\nk = 4",
        train_lines="optimizer = adam\nlr = 0.02\nl2 = 0.001\nepochs = 8\n"
                    "batch_size = 32\nseed = 5",
        data_lines="split = random:0.2\nseed = 11\n",
    )


def ranking_config(path):
    return config_text(
        path,
        model_lines="name = bprmf\nk = 8",
        train_lines="optimizer = adam\nlr = 0.05\nl2 = 0.0\nepochs = 10\n"
                    "batch_size = 64\nseed = 5",
        data_lines="split = loo\nseed = 11\nbinarize_threshold = 1.0\n",
        eval_lines="cutoffs = 5,10\nprotocol = full",
    )


def sequential_config(path):
    return config_text(
        path,
        model_lines="name = caser\nk = 8\nL = 3\nT = 1\nn_h = 2\nn_v = 1",
        train_lines="optimizer = adam\nlr = 0.05\nl2 = 0.0\nepochs = 6\n"
                    "batch_size = 16\nseed = 5",
        data_lines="split = loo\nseed = 11\nbinarize_threshold = 1.0\n",
        eval_lines="cutoffs = 5\nprotocol = full",
    )


def libfm_config(path):
    return config_text(
        path,
        model_lines="name = fm\nk = 4",
        train_lines="optimizer = adam\nlr = 0.05\nl2 = 0.0\nepochs = 60\n"
                    "batch_size = 32\nseed = 5",
        data_lines="split = random:0.2\nseed = 11\n",
    ).replace("format = uirt", "format = libfm")


def planted_libfm_file(path, n_rows=300, n_features=10, seed=3):
    """libfm rows of 2-4 features (values 1 or 0.5) labelled by a planted
    rank-2 FM."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=n_features)
    v = rng.normal(scale=0.7, size=(n_features, 2))
    lines = []
    for _ in range(n_rows):
        idx = np.sort(rng.choice(n_features, size=int(rng.integers(2, 5)), replace=False))
        x = rng.choice([1.0, 0.5], size=idx.size)
        xv = x @ v[idx]
        label = 1.0 + x @ w[idx] + 0.5 * (xv @ xv - ((x[:, None] * v[idx]) ** 2).sum())
        feats = " ".join(f"{i}:{val:g}" for i, val in zip(idx.tolist(), x.tolist()))
        lines.append(f"{round(float(label), 3):g} {feats}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def libfm_rows(path):
    """The rows of a libfm file as sortable (label, features) tuples, padding left out."""
    rows = datamod.parse_libfm(path)
    return sorted((label, tuple((i, v) for i, v in zip(index, value) if v != 0.0))
                  for label, index, value in zip(rows.labels.tolist(), rows.index.tolist(),
                                                 rows.value.tolist()))


class TestRun:
    def test_rating_report_has_exactly_rmse_mae(self, ratings_file):
        cfg = cfgmod.parse_config(rating_config(ratings_file))
        report, model, trace = runner.run(cfg)
        assert list(report.values) == ["rmse", "mae"]
        assert report.values["rmse"] >= report.values["mae"]
        assert len(trace) == 8

    def test_ranking_report_keys(self, implicit_file):
        cfg = cfgmod.parse_config(ranking_config(implicit_file))
        report, _, _ = runner.run(cfg)
        assert list(report.values) == ["precision@5", "recall@5", "ndcg@5",
                                       "precision@10", "recall@10", "ndcg@10", "mrr"]

    def test_sampled_m_above_a_pool_reports_the_negatives_drawn(self, implicit_file):
        # 12 items: every user's pool is below 500, so each ranks its whole pool
        text = ranking_config(implicit_file).replace("protocol = full", "protocol = sampled:500")
        cfg = cfgmod.parse_config(text)
        bundle = runner.prepare_data(cfg)
        train, test = consumed(bundle["train"]), consumed(bundle["test"])
        pools = [bundle["train"].n_items - len(train.get(user, set()) | items)
                 for user, items in sorted(test.items())]
        lines = runner.run(cfg)[0].to_text().splitlines()
        assert lines[:3] == ["protocol\tsampled:500",
                             f"negatives\tmin {min(pools)}, median {np.median(pools):.1f}",
                             "seed\t11"]
        # every user drew m: the header keeps its three lines
        text = text.replace("sampled:500", f"sampled:{min(pools)}")
        lines = runner.run(cfgmod.parse_config(text))[0].to_text().splitlines()
        assert [line.split("\t")[0] for line in lines[:4]] == ["protocol", "seed", "users",
                                                              "precision@5"]

    def test_sequential_pipeline_runs(self, implicit_file):
        cfg = cfgmod.parse_config(sequential_config(implicit_file))
        report, _, _ = runner.run(cfg)
        assert set(report.values) == {"precision@5", "recall@5", "ndcg@5", "mrr"}

    def test_same_config_gives_byte_identical_reports(self, ratings_file, tmp_path):
        cfg = cfgmod.parse_config(rating_config(ratings_file))
        a, b = tmp_path / "a.report", tmp_path / "b.report"
        runner.run(cfg, report_path=a)
        runner.run(cfg, report_path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_checkpoint_roundtrip_predictions_identical(self, ratings_file, tmp_path):
        cfg = cfgmod.parse_config(rating_config(ratings_file))
        out = tmp_path / "model.drec"
        _, model, _ = runner.run(cfg, checkpoint_path=out)
        _, restored, bundle = runner.load_model(out)
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = int(rng.integers(0, 10))
            i = int(rng.integers(0, 10))
            assert restored.predict(u, i) == model.predict(u, i)  # 0 ulps

    def test_fm_on_uirt_one_hot(self, ratings_file):
        text = rating_config(ratings_file).replace("name = biasedsvd\nk = 4",
                                                   "name = fm\nk = 4")
        report, _, _ = runner.run(cfgmod.parse_config(text))
        assert list(report.values) == ["rmse", "mae"]
        svd, _, _ = runner.run(cfgmod.parse_config(rating_config(ratings_file)))
        # both count distinct test users
        users = [line for line in report.to_text().splitlines() if line.startswith("users")]
        assert users == [line for line in svd.to_text().splitlines()
                         if line.startswith("users")]


class TestCliWorkflows:
    def write(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p

    def test_split_materializes_files(self, ratings_file, tmp_path, capsys):
        cfg_path = self.write(tmp_path, "c.ini", rating_config(ratings_file))
        code = cli.main(["split", "--config", str(cfg_path),
                         "--train-out", str(tmp_path / "train.txt"),
                         "--test-out", str(tmp_path / "test.txt")])
        assert code == 0
        train = datamod.load_interactions(tmp_path / "train.txt")
        test = datamod.load_interactions(tmp_path / "test.txt")
        full = datamod.load_interactions(ratings_file)
        assert 0 < len(test) < len(train)
        assert len(train) + len(test) <= len(full)

    def test_split_keeps_ratings_bitwise(self, tmp_path, capsys):
        # {:g} alone would write 2.123456789 as 2.12346
        values = [2.123456789, 0.1, 3.5, 4.0]
        lines = [f"u{u}\ti{i}\t{values[(u + i) % 4]!r}\t{u * 10 + i}"
                 for u in range(6) for i in range(5)]
        source = tmp_path / "src.txt"
        source.write_text("\n".join(lines) + "\n")
        cfg_path = self.write(tmp_path, "c.ini", rating_config(source))
        code = cli.main(["split", "--config", str(cfg_path),
                         "--train-out", str(tmp_path / "train.txt"),
                         "--test-out", str(tmp_path / "test.txt")])
        assert code == 0
        full = datamod.load_interactions(source)
        want = {(full.user_ids[u], full.item_ids[i]): r for u, i, r in
                zip(full.users.tolist(), full.items.tolist(), full.ratings.tolist())}
        seen = set()
        for name in ("train.txt", "test.txt"):
            part = datamod.load_interactions(tmp_path / name)
            for u, i, r in zip(part.users.tolist(), part.items.tolist(), part.ratings.tolist()):
                key = (part.user_ids[u], part.item_ids[i])
                assert r.hex() == want[key].hex(), key  # bitwise
                seen.add(r)
        assert seen == set(values)
        assert "\t4\t" in (tmp_path / "train.txt").read_text()  # integers stay short

    def test_train_then_evaluate_and_recommend(self, implicit_file, tmp_path, capsys):
        cfg_path = self.write(tmp_path, "c.ini", ranking_config(implicit_file))
        out = tmp_path / "bpr.drec"
        report_path = tmp_path / "r1.txt"
        code = cli.main(["train", "--config", str(cfg_path), "--out", str(out),
                         "--report", str(report_path)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "ndcg@10\t" in stdout
        assert report_path.read_text().startswith("protocol\tfull")

        # evaluate with different cutoffs
        eval_cfg = self.write(tmp_path, "e.ini",
                              ranking_config(implicit_file).replace("cutoffs = 5,10",
                                                                    "cutoffs = 3"))
        code = cli.main(["evaluate", "--ckpt", str(out), "--config", str(eval_cfg)])
        assert code == 0
        assert "ndcg@3\t" in capsys.readouterr().out

        code = cli.main(["recommend", "--ckpt", str(out), "--user", "u3", "--n", "4"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        scores = [float(line.split("\t")[1]) for line in lines]
        assert scores == sorted(scores, reverse=True)

    def test_libfm_train_evaluate_split(self, tmp_path, capsys):
        source = planted_libfm_file(tmp_path / "planted.libfm")
        cfg_path = self.write(tmp_path, "c.ini", libfm_config(source))
        out, trained = tmp_path / "fm.drec", tmp_path / "train.report"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out),
                         "--report", str(trained)]) == 0
        evaluated = tmp_path / "eval.report"
        assert cli.main(["evaluate", "--ckpt", str(out), "--config", str(cfg_path),
                         "--report", str(evaluated)]) == 0
        assert evaluated.read_bytes() == trained.read_bytes()
        report = dict(line.split("\t") for line in trained.read_text().splitlines())
        assert report["users"] == "60"  # libfm rows have no users: the test row count
        assert float(report["rmse"]) < 0.25

        assert cli.main(["split", "--config", str(cfg_path),
                         "--train-out", str(tmp_path / "train.libfm"),
                         "--test-out", str(tmp_path / "test.libfm")]) == 0
        parts = libfm_rows(tmp_path / "train.libfm"), libfm_rows(tmp_path / "test.libfm")
        assert len(parts[1]) == 60
        assert sorted(parts[0] + parts[1]) == libfm_rows(source)

        capsys.readouterr()
        assert cli.main(["recommend", "--ckpt", str(out), "--user", "u0", "--n", "3"]) == 1
        assert "trained on libfm data" in capsys.readouterr().err

    def test_recommend_ties_break_by_ascending_raw_id(self, ratings_file, tmp_path, capsys):
        # hand-build a checkpoint whose scores are all identical
        cfg_text = rating_config(ratings_file)
        tensors = {
            "global_mean": np.asarray(3.0),
            "rating_min": np.asarray(1.0),
            "rating_max": np.asarray(5.0),
            "user_bias": np.zeros(10),
            "item_bias": np.zeros(10),
            "user_factors": np.zeros((10, 4)),
            "item_factors": np.zeros((10, 4)),
        }
        # ... over the train table it serves from
        train = runner.prepare_data(cfgmod.parse_config(cfg_text))["train"]
        tensors.update({runner.TRAIN_PREFIX + column: getattr(train, column)
                        for column in datamod.TABLE_COLUMNS})
        out = tmp_path / "flat.drec"
        ckpt.save_checkpoint(out, "biasedsvd", cfg_text, tensors)
        code = cli.main(["recommend", "--ckpt", str(out), "--user", "u0", "--n", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        raw_ids = [line.split("\t")[0] for line in lines]
        table = datamod.load_interactions(ratings_file)
        assert raw_ids == sorted(table.item_ids)[:3]

    def test_recommend_breaks_a_tie_group_at_the_cut_by_raw_id(self, ratings_file, tmp_path,
                                                              monkeypatch):
        cfg = cfgmod.parse_config(rating_config(ratings_file))
        out = tmp_path / "m.drec"
        _, model, _ = runner.run(cfg, checkpoint_path=out)
        item_ids = runner.prepare_data(cfg)["table"].item_ids
        # tie groups of 2, 4 and 3 (signed zeros among them) straddle several cuts
        row = np.array([0.5, 0.25, -0.0, 0.25, 0.0, 0.25, 0.5, -1.0, 0.0, 0.25])
        assert row.size == len(item_ids)
        monkeypatch.setattr(type(model), "score_matrix", lambda self, users: row[None, :])
        want = sorted((-row[item], item_ids[item]) for item in range(row.size))
        for n in range(1, row.size + 2):
            got = runner.recommend(out, "u0", n)
            assert got == [(raw, -neg) for neg, raw in want[:n]]
            assert [math.copysign(1.0, score) for _, score in got] == \
                [math.copysign(1.0, -neg) for neg, _ in want[:n]]

    @pytest.mark.parametrize("name", ["prme", "caser", "attrec", "bprmf"])
    def test_recommend_to_a_user_without_train_rows(self, name, implicit_file, tmp_path,
                                                    capsys):
        # every rating of "ghost" is below the binarize threshold of 1.0: the
        # id maps know the user, the train split has no row of it
        source = tmp_path / "ghost.txt"
        source.write_text(implicit_file.read_text() + "ghost\ti1\t0.5\t1\nghost\ti2\t0.25\t2\n")
        cfg_path = self.write(tmp_path, "c.ini", model_config_text(name, source))
        out = tmp_path / "m.drec"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        code = cli.main(["recommend", "--ckpt", str(out), "--user", "ghost", "--n", "3"])
        captured = capsys.readouterr()
        if name == "bprmf":  # scores from the user's own factors
            assert code == 0 and len(captured.out.splitlines()) == 3
        else:  # a sequence model has no window to score from
            assert code == 2 and captured.out == ""
            assert "no history recorded" in captured.err

    @pytest.mark.parametrize("command", ["split", "train"])
    def test_nothing_left_after_binarization_exits_2(self, command, tmp_path, capsys):
        source = tmp_path / "low.txt"
        source.write_text("u1\ti1\t0.5\t1\nu2\ti2\t0.5\t2\nu2\ti1\t0.25\t3\n")
        cfg_path = self.write(tmp_path, "c.ini", ranking_config(source))
        outputs = {"split": ["--train-out", str(tmp_path / "train.txt"),
                             "--test-out", str(tmp_path / "test.txt")],
                   "train": ["--out", str(tmp_path / "x.drec")]}
        assert cli.main([command, "--config", str(cfg_path), *outputs[command]]) == 2
        assert "no interactions left after binarization" in capsys.readouterr().err
        assert not any((tmp_path / name).exists() for name in ("train.txt", "test.txt"))

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        cfg_path = self.write(tmp_path, "c.ini", rating_config(tmp_path / "nope.txt"))
        code = cli.main(["train", "--config", str(cfg_path),
                         "--out", str(tmp_path / "x.drec")])
        assert code == 2
        assert "nope.txt" in capsys.readouterr().err

    def test_task_metric_mismatch_exits_1(self, ratings_file, implicit_file,
                                          tmp_path, capsys):
        cfg_path = self.write(tmp_path, "c.ini", rating_config(ratings_file))
        out = tmp_path / "svd.drec"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        # rating checkpoint + config that declares ranking cutoffs
        bad = rating_config(ratings_file) + "\n[eval]\ncutoffs = 5\nprotocol = full\n"
        bad_path = self.write(tmp_path, "bad.ini", bad)
        code = cli.main(["evaluate", "--ckpt", str(out), "--config", str(bad_path)])
        assert code == 1
        assert "rmse/mae" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, capsys):
        assert cli.main(["train", "--bogus", "x"]) == 1

    def test_config_typo_lists_all_issues_exit_1(self, ratings_file, tmp_path, capsys):
        text = rating_config(ratings_file).replace("lr = 0.02", "lr = 0.02\nwarmup = 3")
        text = text.replace("k = 4", "k = 0")
        cfg_path = self.write(tmp_path, "c.ini", text)
        code = cli.main(["train", "--config", str(cfg_path),
                         "--out", str(tmp_path / "x.drec")])
        assert code == 1
        err = capsys.readouterr().err
        assert "warmup" in err and "k must be >= 1" in err

    @pytest.mark.parametrize("old, new", [
        ("seed = 5", "seed = 5\nneg_samples = -1"),
        ("seed = 5", "seed = 5\nneg_samples = 0"),
        ("L = 3", "L = 0"),
        ("n_h = 2", "n_h = 0"),
    ])
    def test_out_of_range_count_exits_1(self, implicit_file, tmp_path, capsys, old, new):
        cfg_path = self.write(tmp_path, "c.ini",
                              sequential_config(implicit_file).replace(old, new, 1))
        code = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "x.drec")])
        assert code == 1
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, key", [
        ("seed = 5", "seed = -1", "[train] seed must be >= 0"),
        ("seed = 11", "seed = -1", "[data] seed must be >= 0"),
        ("protocol = full", "protocol = sampled:-5", "[eval] protocol must be"),
        ("protocol = full", "protocol = sampled:0", "[eval] protocol must be"),
        ("name = bprmf\nk = 8", "name = cml\nk = 8\nmargin = 0", "[model] margin must be > 0"),
        ("name = bprmf\nk = 8",
         "name = attrec\nk = 8\nL = 3\nomega = 0.3\nmargin = -0.5\nclip_rho = 1.0",
         "[model] margin must be > 0"),
        ("name = bprmf\nk = 8",
         "name = attrec\nk = 8\nL = 3\nomega = 0.3\nmargin = 0.5\nclip_rho = 0",
         "[model] clip_rho must be > 0"),
        ("l2 = 0.0", "l2 = -0.1", "[train] l2 must be >= 0"),
        ("cutoffs = 5,10", "cutoffs = 5,5", "[eval] cutoffs must list distinct values"),
        ("binarize_threshold = 1.0", "binarize_threshold = nan",
         "[data] binarize_threshold must be finite"),
    ])
    def test_out_of_bound_value_exits_1_before_the_data_is_read(self, tmp_path, capsys,
                                                                 old, new, key):
        text = ranking_config(tmp_path / "missing.txt")
        assert old in text
        cfg_path = self.write(tmp_path, "c.ini", text.replace(old, new, 1))
        code = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "x.drec")])
        err = capsys.readouterr().err
        assert code == 1, err  # reading the missing data file would exit 2
        assert key in err

    def test_recommend_serves_uirt_fm(self, ratings_file, tmp_path, capsys):
        text = rating_config(ratings_file).replace("name = biasedsvd\nk = 4", "name = fm\nk = 4")
        # trained far enough that scores sit inside the rating range, not at its clip
        text = text.replace("lr = 0.02", "lr = 0.2").replace("epochs = 8", "epochs = 20")
        cfg_path = self.write(tmp_path, "c.ini", text)
        out = tmp_path / "fm.drec"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        code = cli.main(["recommend", "--ckpt", str(out), "--user", "u0", "--n", "5"])
        assert code == 0
        _, model, bundle = runner.load_model(out)
        table = bundle["table"]
        row = model.score_matrix(np.array([table.user_index["u0"]]))[0]
        assert np.unique(row).size > 5  # the order is not settled by raw ids alone
        want = sorted((-row[item], table.item_ids[item]) for item in range(table.n_items))[:5]
        assert capsys.readouterr().out == "".join(f"{raw}\t{-neg:.6f}\n" for neg, raw in want)

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_recommend_n_below_one_exits_1(self, ratings_file, tmp_path, capsys, n):
        cfg_path = self.write(tmp_path, "c.ini", rating_config(ratings_file))
        out = tmp_path / "svd.drec"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        code = cli.main(["recommend", "--ckpt", str(out), "--user", "u0", "--n", n])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"recommend needs n >= 1, got {n}" in captured.err

    def test_undecodable_data_file_exits_2_naming_the_line(self, tmp_path, capsys):
        source = tmp_path / "bad.txt"
        source.write_bytes(b"u1\ti1\t5\t1\nu2\t\xffi2\t4\t2\n")
        cfg_path = self.write(tmp_path, "c.ini", rating_config(source))
        code = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "x.drec")])
        assert code == 2
        assert f"{source}:2: not UTF-8" in capsys.readouterr().err

    def test_undecodable_config_exits_1(self, ratings_file, tmp_path, capsys):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_bytes(rating_config(ratings_file).encode() + b"# \xff\n")
        code = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "x.drec")])
        assert code == 1
        assert "not UTF-8" in capsys.readouterr().err

    def test_config_directory_exits_2(self, tmp_path, capsys):
        code = cli.main(["train", "--config", str(tmp_path), "--out", str(tmp_path / "x.drec")])
        assert code == 2
        assert f"error: {tmp_path}: Is a directory" in capsys.readouterr().err

    def test_out_directory_exits_2_and_leaves_no_temporary(self, ratings_file, tmp_path,
                                                           capsys):
        cfg_path = self.write(tmp_path, "c.ini", rating_config(ratings_file))
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"error: {out}: Is a directory" in capsys.readouterr().err
        assert not (tmp_path / "out.tmp").exists() and not any(out.iterdir())

    def test_out_in_missing_directory_names_the_out_path(self, ratings_file, tmp_path,
                                                         capsys):
        cfg_path = self.write(tmp_path, "c.ini", rating_config(ratings_file))
        out = tmp_path / "missing" / "x.drec"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == f"error: file not found: {out}"

    def test_os_error_without_a_file_exits_2(self, monkeypatch, capsys):
        def broken_pipe(args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setitem(cli.COMMANDS, "recommend", broken_pipe)
        assert cli.main(["recommend", "--ckpt", "x.drec", "--user", "u0", "--n", "1"]) == 2
        assert capsys.readouterr().err.strip() == "error: [Errno 32] Broken pipe"

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_waits_for_the_command_and_is_restored(self, monkeypatch, enabled):
        seen = []

        def crash(args):
            seen.append(gc.isenabled())
            raise RuntimeError("boom")

        monkeypatch.setitem(cli.COMMANDS, "recommend", crash)
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(RuntimeError):
                cli.main(["recommend", "--ckpt", "x.drec", "--user", "u0", "--n", "1"])
            assert seen == [False] and gc.isenabled() == enabled
        finally:
            gc.enable()

    def test_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.drec"
        bad.write_bytes(b"XXXX" + b"\x00" * 16)
        code = cli.main(["recommend", "--ckpt", str(bad), "--user", "u0", "--n", "1"])
        assert code == 2
        assert "magic" in capsys.readouterr().err

    def test_repeated_main_calls_share_no_state(self, implicit_file, tmp_path, capsys):
        # main reuses one parser per process, so no option may leak into the next call
        cfg_path = self.write(tmp_path, "c.ini", ranking_config(implicit_file))
        out, report_path = tmp_path / "bpr.drec", tmp_path / "eval.txt"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli.main(["evaluate", "--ckpt", str(out), "--config", str(cfg_path),
                         "--report", str(report_path)]) == 0
        report = report_path.read_text()
        report_path.unlink()
        capsys.readouterr()

        assert cli.main([]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err and "required: command" in captured.err

        assert cli.main(["recommend", "--ckpt", str(out), "--user", "u3", "--n", "four"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid int value: 'four'" in captured.err

        assert cli.main(["recommend", "--ckpt", str(out), "--user", "u3", "--n", "4"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 4 and captured.err == ""

        assert cli.main(["evaluate", "--ckpt", str(out), "--config", str(cfg_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == report and captured.err == ""
        assert not report_path.exists()  # the earlier --report did not carry over

    def test_module_entrypoint_smoke(self, ratings_file, tmp_path):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(rating_config(ratings_file), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "gradrec.cli", "train", "--config", str(cfg_path),
             "--out", str(tmp_path / "m.drec")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "rmse\t" in proc.stdout


def top_lines(model, table, raw_user, n):
    """recommend's output from a Python sort of the model's row."""
    row = model.score_matrix(np.array([table.user_index[raw_user]]))[0]
    want = sorted((-row[item], table.item_ids[item]) for item in range(table.n_items))[:n]
    return "".join(f"{raw}\t{-neg:.6f}\n" for neg, raw in want)


class TestServingReadsOnlyTheCheckpoint:
    def test_recommend_never_reads_the_data(self, ratings_file, implicit_file, tmp_path,
                                            capsys, monkeypatch):
        expected = {}
        for name in ALL_MODEL_CONFIGS:
            data_file = ratings_file if ALL_MODEL_CONFIGS[name][0] == "ratings" else implicit_file
            cfg = cfgmod.parse_config(model_config_text(name, data_file))
            _, model, _ = runner.run(cfg, checkpoint_path=tmp_path / f"{name}.drec")
            train = runner.prepare_data(cfg)["train"]
            user = train.user_ids[int(train.users[0])]  # sequence models need a history
            expected[name] = (user, top_lines(model, train, user, 5))

        def forbidden(*args, **kwargs):
            raise AssertionError("recommend read the data")

        monkeypatch.setattr(runner, "prepare_data", forbidden)
        for fn in ("load_interactions", "parse_libfm", "split", "binarize", "build_sequences"):
            monkeypatch.setattr(datamod, fn, forbidden)
        capsys.readouterr()
        for name, (user, lines) in expected.items():
            code = cli.main(["recommend", "--ckpt", str(tmp_path / f"{name}.drec"),
                             "--user", user, "--n", "5"])
            assert code == 0, name
            assert capsys.readouterr().out == lines, name

    @pytest.mark.parametrize("maker", [rating_config, ranking_config, sequential_config])
    def test_recommend_works_with_the_data_deleted(self, maker, ratings_file, implicit_file,
                                                   tmp_path, capsys):
        data_file = ratings_file if maker is rating_config else implicit_file
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(maker(data_file), encoding="utf-8")
        out = tmp_path / "m.drec"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        recommend = ["recommend", "--ckpt", str(out), "--user", "u3", "--n", "4"]
        capsys.readouterr()
        assert cli.main(recommend) == 0
        answer = capsys.readouterr().out
        data_file.unlink()
        assert cli.main(recommend) == 0
        assert capsys.readouterr().out == answer
        assert len(answer.splitlines()) == 4

    def test_checkpoint_without_a_train_table_exits_2(self, ratings_file, tmp_path, capsys):
        cfg = cfgmod.parse_config(rating_config(ratings_file))
        out = tmp_path / "m.drec"
        _, model, _ = runner.run(cfg)
        ckpt.save_checkpoint(out, "biasedsvd", cfg.text, dict(model.params))
        capsys.readouterr()
        assert cli.main(["recommend", "--ckpt", str(out), "--user", "u0", "--n", "1"]) == 2
        assert "no train table" in capsys.readouterr().err

    def test_evaluate_refuses_edited_data(self, implicit_file, tmp_path, capsys):
        trained_on = tmp_path / "trained_on.txt"
        trained_on.write_bytes(implicit_file.read_bytes())
        same_bytes = tmp_path / "elsewhere" / "copy.txt"
        same_bytes.parent.mkdir()
        same_bytes.write_bytes(implicit_file.read_bytes())
        cfg_path, copy_cfg = tmp_path / "c.ini", tmp_path / "copy.ini"
        cfg_path.write_text(ranking_config(trained_on), encoding="utf-8")
        copy_cfg.write_text(ranking_config(same_bytes), encoding="utf-8")
        out, trained, evaluated = tmp_path / "m.drec", tmp_path / "t.report", tmp_path / "e.report"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out),
                         "--report", str(trained)]) == 0

        stored = datamod.file_sha256(trained_on)
        with open(trained_on, "a", encoding="utf-8") as fh:
            fh.write("u0\ti1\t5\t999\n")
        capsys.readouterr()
        assert cli.main(["evaluate", "--ckpt", str(out), "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert stored in err and datamod.file_sha256(trained_on) in err

        assert cli.main(["evaluate", "--ckpt", str(out), "--config", str(copy_cfg),
                         "--report", str(evaluated)]) == 0
        assert evaluated.read_bytes() == trained.read_bytes()


def count_parses(monkeypatch) -> list:
    """Record each ``load_interactions`` call, which still runs."""
    calls = []
    real = datamod.load_interactions

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(datamod, "load_interactions", counted)
    return calls


class TestEvaluateReadsTheSplitFromTheCheckpoint:
    @pytest.mark.parametrize("maker, old, new", [
        (rating_config, "split = random:0.2", "split = random:0.3"),
        (rating_config, "seed = 11", "seed = 12"),  # another random split
        (ranking_config, "split = loo", "split = temporal:0.3"),
        (ranking_config, "binarize_threshold = 1.0", "binarize_threshold = 0.5"),
        (sequential_config, "split = loo", "split = temporal:0.3"),
    ])
    def test_another_split_rereads_the_data(self, maker, old, new, ratings_file,
                                            implicit_file, tmp_path, monkeypatch):
        data_file = ratings_file if maker is rating_config else implicit_file
        cfg = cfgmod.parse_config(maker(data_file))
        out = tmp_path / "m.drec"
        _, model, _ = runner.run(cfg, checkpoint_path=out)
        assert old in cfg.text
        override = cfgmod.parse_config(cfg.text.replace(old, new))
        bundle = runner.prepare_data(override)
        reference = type(model).restore(dict(model.params), override)
        reference.serve(bundle)
        want = runner.evaluate_model(override, reference, bundle).to_text()

        calls = count_parses(monkeypatch)
        eval_cfg, evaluated, eval_bundle = runner.load_model(out, override)
        assert len(calls) == 1
        assert runner.evaluate_model(eval_cfg, evaluated, eval_bundle).to_text() == want

    def test_other_cutoffs_read_no_data(self, implicit_file, tmp_path, capsys, monkeypatch):
        cfg = cfgmod.parse_config(ranking_config(implicit_file))
        out, other = tmp_path / "m.drec", tmp_path / "other.ini"
        _, model, _ = runner.run(cfg, checkpoint_path=out)
        text = cfg.text.replace("cutoffs = 5,10", "cutoffs = 3")
        other.write_text(text, encoding="utf-8")
        want = runner.evaluate_model(cfgmod.parse_config(text), model,
                                     runner.prepare_data(cfg)).to_text()

        calls = count_parses(monkeypatch)
        capsys.readouterr()
        assert cli.main(["evaluate", "--ckpt", str(out), "--config", str(other)]) == 0
        assert capsys.readouterr().out == want
        assert "recall@3" in want and calls == []

    @pytest.mark.parametrize("maker", [rating_config, ranking_config, sequential_config])
    def test_checkpoint_without_a_test_split_rereads_the_data(self, maker, ratings_file,
                                                              implicit_file, tmp_path,
                                                              capsys, monkeypatch):
        data_file = ratings_file if maker is rating_config else implicit_file
        cfg_path, out, trained = tmp_path / "c.ini", tmp_path / "m.drec", tmp_path / "t.report"
        cfg_path.write_text(maker(data_file), encoding="utf-8")
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out),
                         "--report", str(trained)]) == 0
        # the layout written before checkpoints stored the test split
        name, echo, tensors = ckpt.load_checkpoint(out)
        dropped = [key for key in tensors if key.startswith(runner.TEST_PREFIX)]
        assert len(dropped) == 4
        ckpt.save_checkpoint(out, name, echo, {key: value for key, value in tensors.items()
                                              if key not in dropped})

        calls = count_parses(monkeypatch)
        evaluated = tmp_path / "e.report"
        assert cli.main(["evaluate", "--ckpt", str(out), "--config", str(cfg_path),
                         "--report", str(evaluated)]) == 0
        assert evaluated.read_bytes() == trained.read_bytes()
        assert len(calls) == 1


class TestEndToEndDeterminism:
    @pytest.mark.parametrize("maker", [rating_config, ranking_config, sequential_config])
    def test_cli_reports_are_byte_identical(self, maker, ratings_file, implicit_file,
                                            tmp_path):
        data_file = ratings_file if maker is rating_config else implicit_file
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(maker(data_file), encoding="utf-8")
        outs = []
        for tag in ("a", "b"):
            report = tmp_path / f"{tag}.report"
            code = cli.main(["train", "--config", str(cfg_path),
                             "--out", str(tmp_path / f"{tag}.drec"),
                             "--report", str(report)])
            assert code == 0
            outs.append(report.read_bytes())
        assert outs[0] == outs[1]


FIT_FAULTS = """
import contextlib, io, resource, sys
from gradrec import cli
faults = []
for out in sys.argv[2:]:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--config", sys.argv[1], "--out", out]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_minflt and glibc's mallopt are Linux's")
def test_training_reuses_freed_memory_instead_of_page_faulting(tmp_path):
    """Each bprmf step here builds and frees arrays of about 1 MB. Under
    glibc's dynamic thresholds the heap handed them back to the kernel
    between steps, and a second train in the same process page-faulted
    22K-25K times on this corpus; under the thresholds ``cli.main`` pins,
    170-460 times (the first train, which grows the heap: 28K and 6.4K)."""
    if getattr(ctypes.CDLL(None), "mallopt", None) is None:
        pytest.skip("the C library has no mallopt")
    path = tmp_path / "desk.uirt"
    datamod.write_uirt(path, synthetic.desk_scale_ratings(n_users=943, n_items=1682,
                                                          n_ratings=30_000, seed=3))
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(config_text(
        path, "name = bprmf\nk = 32",
        "optimizer = adam\nlr = 0.02\nl2 = 0.002\nepochs = 2\nbatch_size = 1024\n"
        "neg_samples = 4\nseed = 7",
        data_lines="split = loo\nseed = 42\nbinarize_threshold = 4.0\n",
        eval_lines="cutoffs = 10\nprotocol = sampled:100"), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", FIT_FAULTS, str(cfg_path),
                           str(tmp_path / "a.drec"), str(tmp_path / "b.drec")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    first, second = map(int, proc.stdout.split())
    assert second < 2_000, (first, second)
