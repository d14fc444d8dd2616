"""Experiment configuration: INI-style sections [data] [model] [train]
[eval], strict key validation, and every issue reported in one pass.

Numeric training hyperparameters must be explicit in the file; only
structural defaults (layer shapes, filter counts, negative-sample counts)
live in code, declared by each model class (see ``gradrec.models.MODELS``).
All randomness is seeded from the config: nothing is drawn from the
environment.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field
from pathlib import Path

from gradrec.data import LeaveOneOut, RandomHoldout, SplitSpec, Temporal
from gradrec.errors import ConfigError
from gradrec.metrics import FullRanking, Protocol, SampledRanking
from gradrec.models import MODELS

DEFAULT_BINARIZE_THRESHOLD = 4.0

TRAIN_KEYS = {"optimizer", "lr", "l2", "epochs", "batch_size", "neg_samples", "seed"}
DATA_KEYS = {"path", "format", "split", "seed", "binarize_threshold"}
EVAL_KEYS = {"cutoffs", "protocol"}
MODEL_KEYS = {"name", "k", "layers", "L", "T", "margin", "alpha", "omega",
              "dropout_q", "n_h", "n_v", "clip_rho"}


@dataclass
class DataConfig:
    path: str
    format: str
    split: SplitSpec
    seed: int
    binarize_threshold: float | None = None


@dataclass
class ModelConfig:
    name: str
    k: int | None = None
    layers: list[int] | None = None
    L: int | None = None
    T: int = 1  # targets per sequence instance; only caser takes the key
    margin: float | None = None
    alpha: float | None = None
    omega: float | None = None
    dropout_q: float | None = None
    n_h: int | None = None
    n_v: int | None = None
    clip_rho: float | None = None

    @property
    def task(self) -> str:
        return MODELS[self.name].task


@dataclass
class TrainConfig:
    optimizer: str
    lr: float
    l2: float
    epochs: int
    seed: int
    batch_size: int | None = None
    neg_samples: int | None = None


@dataclass
class EvalConfig:
    cutoffs: list[int]
    protocol: str  # "full" or "sampled:<m>"

    def protocol_obj(self, seed: int) -> Protocol:
        if self.protocol == "full":
            return FullRanking()
        m = int(self.protocol.split(":", 1)[1])
        return SampledRanking(m=m, seed=seed)


@dataclass
class ExperimentConfig:
    data: DataConfig
    model: ModelConfig
    train: TrainConfig
    eval: EvalConfig | None
    text: str = field(repr=False, default="")  # raw config file contents


def parse_split(value: str) -> SplitSpec | str:
    """Returns a SplitSpec or an error message string."""
    if value == "loo":
        return LeaveOneOut()
    for prefix, cls in (("random:", RandomHoldout), ("temporal:", Temporal)):
        if value.startswith(prefix):
            try:
                ratio = float(value[len(prefix):])
            except ValueError:
                return f"bad split ratio in {value!r}"
            if not 0.0 < ratio < 1.0:
                return f"split ratio must be in (0, 1), got {ratio}"
            if cls is RandomHoldout:
                return RandomHoldout(ratio, seed=0)  # seed filled from data.seed
            return Temporal(ratio)
    return f"unknown split {value!r} (expected random:<ratio>, loo or temporal:<ratio>)"


def _convert(raw: str, kind: str, key: str, issues: list[str]):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "ints":
            return [int(tok) for tok in raw.replace(" ", "").split(",") if tok]
    except ValueError:
        issues.append(f"{key}: expected {kind}, got {raw!r}")
        return None
    return raw


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def parse_config(text: str) -> ExperimentConfig:
    """Parse + validate; raises ConfigError listing every problem found."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    issues: list[str] = []
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as err:
        raise ConfigError([f"unparseable config: {err}"]) from None

    sections = set(parser.sections())
    for unknown in sorted(sections - {"data", "model", "train", "eval"}):
        issues.append(f"unknown section [{unknown}]")
    for required in ("data", "model", "train"):
        if required not in sections:
            issues.append(f"missing section [{required}]")
    if issues:
        raise ConfigError(issues)

    def section_items(name: str) -> dict[str, str]:
        return dict(parser.items(name)) if parser.has_section(name) else {}

    data_raw = section_items("data")
    model_raw = section_items("model")
    train_raw = section_items("train")
    eval_raw = section_items("eval")

    for key in sorted(set(data_raw) - DATA_KEYS):
        issues.append(f"[data] unknown key {key!r}")
    for key in sorted(set(model_raw) - MODEL_KEYS):
        issues.append(f"[model] unknown key {key!r}")
    for key in sorted(set(train_raw) - TRAIN_KEYS):
        issues.append(f"[train] unknown key {key!r}")
    for key in sorted(set(eval_raw) - EVAL_KEYS):
        issues.append(f"[eval] unknown key {key!r}")

    # ---- data ----
    for key in ("path", "format", "split", "seed"):
        if key not in data_raw:
            issues.append(f"[data] missing key {key!r}")
    fmt = data_raw.get("format", "uirt")
    if fmt not in ("uirt", "libfm"):
        issues.append(f"[data] format must be uirt or libfm, got {fmt!r}")
    data_seed = _convert(data_raw.get("seed", "0"), "int", "[data] seed", issues)
    split_spec: SplitSpec | None = None
    if "split" in data_raw:
        parsed = parse_split(data_raw["split"])
        if isinstance(parsed, str):
            issues.append(f"[data] {parsed}")
        else:
            split_spec = parsed
    threshold = None
    if "binarize_threshold" in data_raw:
        threshold = _convert(data_raw["binarize_threshold"], "float",
                             "[data] binarize_threshold", issues)

    # ---- model ----
    name = model_raw.get("name")
    cls = MODELS.get(name)
    if name is None:
        issues.append("[model] missing key 'name'")
    elif cls is None:
        issues.append(f"[model] unknown model {name!r} (expected one of {', '.join(MODELS)})")
    else:
        allowed = set(cls.required) | set(cls.defaults) | {"name"}
        for key in sorted((set(model_raw) & MODEL_KEYS) - allowed):
            issues.append(f"[model] key {key!r} does not apply to model {name!r}")
        for key in sorted(set(cls.required) - set(model_raw)):
            issues.append(f"[model] model {name!r} requires key {key!r}")

    # the model's defaults apply only to keys absent from the file
    model_cfg = ModelConfig(name=name or "", **(cls.defaults if cls else {}))
    int_keys = {"k", "L", "T", "n_h", "n_v"}
    float_keys = {"margin", "alpha", "omega", "dropout_q", "clip_rho"}
    for key, raw in model_raw.items():
        if key == "name" or key not in MODEL_KEYS:
            continue
        if key == "layers":
            model_cfg.layers = _convert(raw, "ints", "[model] layers", issues)
        elif key in int_keys:
            setattr(model_cfg, key, _convert(raw, "int", f"[model] {key}", issues))
        elif key in float_keys:
            setattr(model_cfg, key, _convert(raw, "float", f"[model] {key}", issues))

    for key in sorted(int_keys):
        value = getattr(model_cfg, key)
        if value is not None and value < 1:
            issues.append(f"[model] {key} must be >= 1, got {value}")
    if model_cfg.layers is not None and (not model_cfg.layers or min(model_cfg.layers) < 1):
        issues.append(f"[model] layers must list sizes >= 1, got {model_raw['layers']!r}")
    for key, lo, hi in (("alpha", 0.0, 1.0), ("omega", 0.0, 1.0)):
        value = getattr(model_cfg, key)
        if value is not None and not lo <= value <= hi:
            issues.append(f"[model] {key} must be in [{lo}, {hi}], got {value}")
    if model_cfg.dropout_q is not None and not 0.0 <= model_cfg.dropout_q < 1.0:
        issues.append(f"[model] dropout_q must be in [0, 1), got {model_cfg.dropout_q}")
    if cls is not None:
        issues.extend(cls.config_issues(model_cfg))

    # ---- train ----
    for key in ("optimizer", "lr", "l2", "epochs", "seed"):
        if key not in train_raw:
            issues.append(f"[train] missing key {key!r}")
    opt = train_raw.get("optimizer", "sgd")
    if opt not in ("sgd", "adam"):
        issues.append(f"[train] optimizer must be sgd or adam, got {opt!r}")
    lr = _convert(train_raw.get("lr", "0"), "float", "[train] lr", issues)
    l2 = _convert(train_raw.get("l2", "0"), "float", "[train] l2", issues)
    epochs = _convert(train_raw.get("epochs", "0"), "int", "[train] epochs", issues)
    train_seed = _convert(train_raw.get("seed", "0"), "int", "[train] seed", issues)
    batch_size = None
    if "batch_size" in train_raw:
        batch_size = _convert(train_raw["batch_size"], "int", "[train] batch_size", issues)
    neg_samples = None
    if "neg_samples" in train_raw:
        neg_samples = _convert(train_raw["neg_samples"], "int", "[train] neg_samples", issues)
        if cls is not None and cls.neg_samples is None:
            issues.append(f"[train] neg_samples does not apply to model {name!r}")
    elif cls is not None:
        neg_samples = cls.neg_samples
    if cls is not None and cls.batched and batch_size is None:
        issues.append("[train] missing key 'batch_size'")
    if lr is not None and lr <= 0 and "lr" in train_raw:
        issues.append(f"[train] lr must be > 0, got {lr}")
    if epochs is not None and epochs < 1 and "epochs" in train_raw:
        issues.append(f"[train] epochs must be >= 1, got {epochs}")
    if batch_size is not None and batch_size < 1:
        issues.append(f"[train] batch_size must be >= 1, got {batch_size}")
    if neg_samples is not None and neg_samples < 1:
        issues.append(f"[train] neg_samples must be >= 1, got {neg_samples}")

    # ---- eval / task coupling ----
    eval_cfg: EvalConfig | None = None
    task = cls.task if cls else None
    if task == "rating":
        if eval_raw:
            issues.append(f"[eval] rating model {name!r} reports rmse/mae only; "
                          "cutoffs/protocol do not apply")
    elif task in ("ranking", "sequential"):
        for key in ("cutoffs", "protocol"):
            if key not in eval_raw:
                issues.append(f"[eval] missing key {key!r}")
        cutoffs = _convert(eval_raw.get("cutoffs", "10"), "ints", "[eval] cutoffs", issues)
        protocol = eval_raw.get("protocol", "full")
        if protocol != "full" and not protocol.startswith("sampled:"):
            issues.append(f"[eval] protocol must be full or sampled:<m>, got {protocol!r}")
        elif protocol.startswith("sampled:"):
            _convert(protocol.split(":", 1)[1], "int", "[eval] protocol m", issues)
        if cutoffs is not None:
            if not cutoffs:
                issues.append("[eval] cutoffs list is empty")
            elif any(n < 1 for n in cutoffs):
                issues.append(f"[eval] cutoffs must be >= 1, got {cutoffs}")
        eval_cfg = EvalConfig(cutoffs=cutoffs or [10], protocol=protocol)

    # format / task coupling
    if fmt == "libfm":
        if cls is not None and name != "fm":
            issues.append(f"[data] libfm format requires model fm, got {name!r}")
        if split_spec is not None and not isinstance(split_spec, RandomHoldout):
            issues.append("[data] libfm rows carry no user/timestamp; split must be random:<ratio>")
        if threshold is not None:
            issues.append("[data] binarize_threshold does not apply to libfm data")
    if task == "rating" and threshold is not None:
        issues.append("[data] binarize_threshold does not apply to rating models")
    if task == "sequential" and isinstance(split_spec, RandomHoldout):
        issues.append("[data] sequential models need a chronology-preserving split: loo "
                      "or temporal:<ratio>")

    if issues:
        raise ConfigError(issues)

    if isinstance(split_spec, RandomHoldout):
        split_spec = RandomHoldout(split_spec.ratio, seed=data_seed)
    data_cfg = DataConfig(path=data_raw["path"], format=fmt, split=split_spec,
                          seed=data_seed, binarize_threshold=threshold)
    train_cfg = TrainConfig(optimizer=opt, lr=lr, l2=l2, epochs=epochs, seed=train_seed,
                            batch_size=batch_size, neg_samples=neg_samples)
    return ExperimentConfig(data=data_cfg, model=model_cfg, train=train_cfg,
                            eval=eval_cfg, text=text)


def binarize_threshold_for(cfg: ExperimentConfig) -> float:
    if cfg.data.binarize_threshold is not None:
        return cfg.data.binarize_threshold
    return DEFAULT_BINARIZE_THRESHOLD
