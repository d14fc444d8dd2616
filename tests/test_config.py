from pathlib import Path

import pytest

from gradrec import config as cfgmod
from gradrec.data import LeaveOneOut, RandomHoldout, Temporal
from gradrec.errors import ConfigError
from gradrec.metrics import FullRanking, SampledRanking
from gradrec.models import MODELS


BASE = """\
[data]
path = ratings.txt
format = uirt
split = random:0.2
seed = 42

[model]
name = biasedsvd
k = 8

[train]
optimizer = adam
lr = 0.01
l2 = 0.001
epochs = 5
batch_size = 64
seed = 7
"""

RANKING = """\
[data]
path = ratings.txt
format = uirt
split = loo
seed = 42
binarize_threshold = 1.0

[model]
name = bprmf
k = 16

[train]
optimizer = adam
lr = 0.05
l2 = 0.0
epochs = 10
batch_size = 128
seed = 3

[eval]
cutoffs = 5,10
protocol = sampled:100
"""


class TestParseValid:
    def test_rating_config(self):
        cfg = cfgmod.parse_config(BASE)
        assert cfg.model.name == "biasedsvd"
        assert cfg.model.task == "rating"
        assert cfg.data.split == RandomHoldout(0.2, seed=42)
        assert cfg.eval is None
        assert cfg.train.lr == 0.01

    def test_ranking_config(self):
        cfg = cfgmod.parse_config(RANKING)
        assert isinstance(cfg.data.split, LeaveOneOut)
        assert cfg.eval.cutoffs == [5, 10]
        assert cfg.eval.protocol_obj(seed=9) == SampledRanking(m=100, seed=9)
        assert cfg.data.binarize_threshold == 1.0

    def test_temporal_split(self):
        cfg = cfgmod.parse_config(BASE.replace("random:0.2", "temporal:0.3"))
        assert cfg.data.split == Temporal(0.3)

    def test_full_protocol(self):
        cfg = cfgmod.parse_config(RANKING.replace("sampled:100", "full"))
        assert cfg.eval.protocol_obj(seed=1) == FullRanking()

    def test_neg_samples_default_per_model(self):
        cfg = cfgmod.parse_config(RANKING)
        assert cfg.train.neg_samples == 1  # bprmf default
        cfg2 = cfgmod.parse_config(RANKING.replace("name = bprmf", "name = neumf"))
        assert cfg2.train.neg_samples == 4
        cfg3 = cfgmod.parse_config(RANKING.replace("k = 16", "k = 16\nL = 3")
                                   .replace("name = bprmf", "name = caser"))
        assert (cfg3.model.T, cfg3.model.n_h, cfg3.model.n_v, cfg3.train.neg_samples) == \
            (1, 4, 2, 3)

    @pytest.mark.parametrize("old, new, read", [
        ("seed = 3", "seed = 0", lambda cfg: cfg.train.seed),
        ("seed = 42", "seed = 0", lambda cfg: cfg.data.seed),
        ("sampled:100", "sampled:1", lambda cfg: cfg.eval.protocol_obj(seed=0).m - 1),
        ("l2 = 0.0", "l2 = 0", lambda cfg: cfg.train.l2),
        ("name = bprmf", "name = cdae\ndropout_q = 0", lambda cfg: cfg.model.dropout_q),
    ])
    def test_edge_of_each_bound_accepted(self, old, new, read):
        assert old in RANKING
        assert read(cfgmod.parse_config(RANKING.replace(old, new, 1))) == 0

    def test_raw_text_is_echoed(self):
        cfg = cfgmod.parse_config(BASE)
        assert cfg.text == BASE


def test_undecodable_config_is_a_config_error(tmp_path):
    path = tmp_path / "c.ini"
    path.write_bytes(BASE.encode() + b"# \xff\n")
    with pytest.raises(ConfigError, match=f"c.ini:{BASE.count(chr(10)) + 1}: not UTF-8"):
        cfgmod.load_config(path)


class TestValidationErrors:
    def test_unknown_model_key_rejected(self):
        bad = BASE.replace("k = 8", "k = 8\nmargin = 0.5")
        with pytest.raises(ConfigError) as err:
            cfgmod.parse_config(bad)
        assert any("margin" in issue for issue in err.value.issues)

    def test_typo_key_rejected(self):
        bad = BASE.replace("lr = 0.01", "lr = 0.01\nlearningrate = 0.5")
        with pytest.raises(ConfigError) as err:
            cfgmod.parse_config(bad)
        assert any("learningrate" in issue for issue in err.value.issues)

    def test_all_issues_reported_at_once(self):
        bad = (BASE.replace("k = 8", "k = 0")
                   .replace("optimizer = adam", "optimizer = adagrad")
                   .replace("split = random:0.2", "split = bogus"))
        with pytest.raises(ConfigError) as err:
            cfgmod.parse_config(bad)
        text = "\n".join(err.value.issues)
        assert "k must be >= 1" in text
        assert "adagrad" in text
        assert "bogus" in text

    @pytest.mark.parametrize("text, expected", [
        ("[data]\n[model]\n[train]\n[eval]\n", [
            "[data] missing key 'path'", "[data] missing key 'format'",
            "[data] missing key 'split'", "[data] missing key 'seed'",
            "[model] missing key 'name'",
            "[train] missing key 'optimizer'", "[train] missing key 'lr'",
            "[train] missing key 'l2'", "[train] missing key 'epochs'",
            "[train] missing key 'seed'"]),
        ("[data]\nbogus = 1\nseed = x\n[model]\nname = cdae\n[train]\nlr = -1\n", [
            "[data] unknown key 'bogus'", "[data] seed: expected int, got 'x'",
            "[data] missing key 'path'", "[data] missing key 'format'",
            "[data] missing key 'split'",
            "[model] model 'cdae' requires key 'dropout_q'",
            "[model] model 'cdae' requires key 'k'",
            "[train] lr must be > 0, got -1.0",
            "[train] missing key 'optimizer'", "[train] missing key 'l2'",
            "[train] missing key 'epochs'", "[train] missing key 'seed'",
            "[eval] missing key 'cutoffs'", "[eval] missing key 'protocol'"]),
        ("[data]\n[model]\nname = bprmf\nk = 4\n[train]\n[eval]\n", [
            "[data] missing key 'path'", "[data] missing key 'format'",
            "[data] missing key 'split'", "[data] missing key 'seed'",
            "[train] missing key 'optimizer'", "[train] missing key 'lr'",
            "[train] missing key 'l2'", "[train] missing key 'epochs'",
            "[train] missing key 'batch_size'", "[train] missing key 'seed'",
            "[eval] missing key 'cutoffs'", "[eval] missing key 'protocol'"]),
    ])
    def test_issues_come_in_section_then_declared_key_order(self, text, expected):
        with pytest.raises(ConfigError) as err:
            cfgmod.parse_config(text)
        assert err.value.issues == expected

    def test_rating_model_with_eval_section_rejected(self):
        bad = BASE + "\n[eval]\ncutoffs = 5\nprotocol = full\n"
        with pytest.raises(ConfigError) as err:
            cfgmod.parse_config(bad)
        assert any("rmse/mae" in issue for issue in err.value.issues)

    def test_ranking_model_requires_eval(self):
        bad = RANKING.split("[eval]")[0]
        with pytest.raises(ConfigError) as err:
            cfgmod.parse_config(bad)
        assert any("cutoffs" in issue for issue in err.value.issues)

    def test_missing_seed_rejected(self):
        bad = BASE.replace("seed = 42\n", "")
        with pytest.raises(ConfigError) as err:
            cfgmod.parse_config(bad)
        assert any("[data] missing key 'seed'" in issue for issue in err.value.issues)

    def test_sequential_random_split_rejected(self):
        bad = RANKING.replace("name = bprmf\nk = 16",
                              "name = prme\nk = 16\nalpha = 0.5")
        bad = bad.replace("split = loo", "split = random:0.2")
        with pytest.raises(ConfigError) as err:
            cfgmod.parse_config(bad)
        assert any("chronology" in issue for issue in err.value.issues)

    def test_libfm_requires_fm(self):
        bad = BASE.replace("format = uirt", "format = libfm")
        with pytest.raises(ConfigError) as err:
            cfgmod.parse_config(bad)
        assert any("libfm" in issue for issue in err.value.issues)

    def test_prme_window_must_be_one(self):
        bad = RANKING.replace("name = bprmf\nk = 16",
                              "name = prme\nk = 16\nalpha = 0.5\nL = 3")
        with pytest.raises(ConfigError) as err:
            cfgmod.parse_config(bad)
        assert any("first-order" in issue for issue in err.value.issues)

    def test_required_model_keys_reported(self):
        bad = RANKING.replace("name = bprmf\nk = 16",
                              "name = attrec\nk = 16")
        with pytest.raises(ConfigError) as err:
            cfgmod.parse_config(bad)
        text = "\n".join(err.value.issues)
        for key in ("L", "omega", "margin", "clip_rho"):
            assert f"requires key '{key}'" in text

    def test_binarize_threshold_rejected_for_rating(self):
        bad = BASE.replace("seed = 42", "seed = 42\nbinarize_threshold = 4")
        with pytest.raises(ConfigError) as err:
            cfgmod.parse_config(bad)
        assert any("binarize_threshold" in issue for issue in err.value.issues)

    @pytest.mark.parametrize("model_lines, train_extra, expected", [
        ("name = bprmf\nk = 16", "neg_samples = -1", "neg_samples must be >= 1"),
        ("name = bprmf\nk = 16", "neg_samples = 0", "neg_samples must be >= 1"),
        ("name = caser\nk = 16\nL = 3\nn_h = 0", "", "n_h must be >= 1"),
        ("name = caser\nk = 16\nL = 3\nn_v = 0", "", "n_v must be >= 1"),
        ("name = caser\nk = 16\nL = 3\nT = 0", "", "T must be >= 1"),
        ("name = caser\nk = 16\nL = 0", "", "L must be >= 1"),
        ("name = neumf\nk = 16\nlayers =", "", "layers must list sizes >= 1"),
        ("name = gmf\nk = 16\nlayers = 8", "", "'layers' does not apply to model 'gmf'"),
        ("name = prme\nk = 16\nalpha = 0.5\nmargin = 0.5", "",
         "'margin' does not apply to model 'prme'"),
        # models that read no negative count reject it (rating models also
        # reject the [eval] section here, which does not matter)
        ("name = biasedsvd\nk = 16", "neg_samples = 2", "neg_samples does not apply"),
        ("name = fm\nk = 16", "neg_samples = 2", "neg_samples does not apply"),
        ("name = autorec\nk = 16", "neg_samples = 2", "neg_samples does not apply"),
        ("name = prme\nk = 16\nalpha = 0.5", "neg_samples = 9", "neg_samples does not apply"),
        ("name = attrec\nk = 16\nL = 3\nomega = 0.3\nmargin = 0.5\nclip_rho = 1.0",
         "neg_samples = 9", "neg_samples does not apply"),
    ])
    def test_out_of_range_or_unused_model_values_rejected(self, model_lines, train_extra,
                                                          expected):
        bad = RANKING.replace("name = bprmf\nk = 16", model_lines)
        bad = bad.replace("seed = 3", f"seed = 3\n{train_extra}")
        with pytest.raises(ConfigError) as err:
            cfgmod.parse_config(bad)
        assert any(expected in issue for issue in err.value.issues), err.value.issues


def test_key_table_matches_models_sections_and_docs():
    declared = {key for cls in MODELS.values() for key in (*cls.required, *cls.defaults)}
    assert declared == set(cfgmod.KEYS["model"]) - {"name"}
    docs = (Path(__file__).parents[1] / "docs" / "config.md").read_text(encoding="utf-8")
    missing = [key for keys in cfgmod.KEYS.values() for key in keys if f"`{key}`" not in docs]
    assert not missing
