import subprocess
import sys

import numpy as np
import pytest

from gradrec import checkpoint as ckpt
from gradrec import cli
from gradrec import config as cfgmod
from gradrec import data as datamod
from gradrec import runner

from conftest import config_text


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
        out = tmp_path / "flat.drec"
        ckpt.save_checkpoint(out, "biasedsvd", cfg_text, tensors)
        code = cli.main(["recommend", "--ckpt", str(out), "--user", "u0", "--n", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        raw_ids = [line.split("\t")[0] for line in lines]
        table = datamod.load_interactions(ratings_file)
        assert raw_ids == sorted(table.item_ids)[:3]

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

    def test_recommend_refuses_fm_exits_1(self, ratings_file, tmp_path, capsys):
        # even an fm trained on uirt data: recommend serves no fm checkpoint
        text = rating_config(ratings_file).replace("name = biasedsvd\nk = 4", "name = fm\nk = 4")
        cfg_path = self.write(tmp_path, "c.ini", text)
        out = tmp_path / "fm.drec"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        code = cli.main(["recommend", "--ckpt", str(out), "--user", "u0", "--n", "3"])
        assert code == 1
        assert "recommend does not serve fm checkpoints" in capsys.readouterr().err

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

    def test_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.drec"
        bad.write_bytes(b"XXXX" + b"\x00" * 16)
        code = cli.main(["recommend", "--ckpt", str(bad), "--user", "u0", "--n", "1"])
        assert code == 2
        assert "magic" in capsys.readouterr().err

    def test_module_entrypoint_smoke(self, ratings_file, tmp_path):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(rating_config(ratings_file), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "gradrec.cli", "train", "--config", str(cfg_path),
             "--out", str(tmp_path / "m.drec")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "rmse\t" in proc.stdout


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
