"""Experiment configuration: INI-style sections [data] [model] [train]
[eval], strict key validation, and every issue reported in one pass.

Every key of every section is declared once, as a field of the section's
dataclass that carries its kind and its bound; :data:`KEYS` collects them,
and one loop per section converts and checks the values against it. The
rules that span sections (which ``[model]`` keys a model takes, task and
format coupling) follow as explicit checks. Numeric training
hyperparameters must be explicit in the file; only structural defaults
(layer shapes, filter counts, negative-sample counts) live in code,
declared by each model class (see ``gradrec.models.MODELS``). All
randomness is seeded from the config: nothing is drawn from the
environment.
"""

from __future__ import annotations

import configparser
import io
import math
from collections.abc import Container
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, NamedTuple

from gradrec.data import LeaveOneOut, RandomHoldout, SplitSpec, Temporal, read_text
from gradrec.errors import ConfigError, DataFormatError
from gradrec.metrics import FullRanking, Protocol, SampledRanking
from gradrec.models import MODELS

DEFAULT_BINARIZE_THRESHOLD = 4.0


class Key(NamedTuple):
    """One config key: the kind its text converts to (``str``, ``int``,
    ``float`` or :func:`ints`), its bound as a test and the phrase that
    completes "<key> must ...", and whether its section requires it."""

    kind: Callable[[str], Any]
    bound: tuple[Callable[[Any], Any], str] | None = None
    required: bool = False


def ints(text: str) -> list[int]:
    """A comma list of ints; blanks and empty items are skipped."""
    return [int(tok) for tok in text.replace(" ", "").split(",") if tok]


def _sampled_m(protocol: str) -> int:
    """The m of a ``sampled:<m>`` protocol; 0 for any other text."""
    prefix, _, m = protocol.partition(":")
    try:
        return int(m) if prefix == "sampled" else 0
    except ValueError:
        return 0


AT_LEAST_1 = (lambda v: v >= 1, "be >= 1")
NON_NEGATIVE = (lambda v: v >= 0, "be >= 0")
POSITIVE = (lambda v: v > 0, "be > 0")
UNIT = (lambda v: 0.0 <= v <= 1.0, "be in [0.0, 1.0]")


def _declare(*key: Any, required: bool = False, default: Any = None) -> Any:
    """A section field declaring its config key: the value it holds when the
    file omits the key, and the key's :class:`Key` (``kind``, ``bound``)."""
    return field(default=default, metadata={"key": Key(*key, required=required)})


# One field per key, in the order missing keys are reported. Which [model]
# keys a model takes, and which of them it requires, is the model class's
# declaration; the field gives every key its kind and bound.
@dataclass
class DataConfig:
    path: str = _declare(str, required=True)
    format: str = _declare(str, (("uirt", "libfm").__contains__, "be uirt or libfm"), required=True)
    split: SplitSpec = _declare(str, required=True)  # the text goes through parse_split
    seed: int = _declare(int, NON_NEGATIVE, required=True)
    binarize_threshold: float | None = _declare(float, (math.isfinite, "be finite"))


@dataclass
class ModelConfig:
    name: str = _declare(str, required=True)
    k: int | None = _declare(int, AT_LEAST_1)
    layers: list[int] | None = _declare(ints, (lambda v: v and min(v) >= 1, "list sizes >= 1"))
    L: int | None = _declare(int, AT_LEAST_1)
    T: int = _declare(int, AT_LEAST_1, default=1)  # targets per instance; only caser takes it
    margin: float | None = _declare(float, POSITIVE)
    alpha: float | None = _declare(float, UNIT)
    omega: float | None = _declare(float, UNIT)
    dropout_q: float | None = _declare(float, (lambda v: 0.0 <= v < 1.0, "be in [0, 1)"))
    n_h: int | None = _declare(int, AT_LEAST_1)
    n_v: int | None = _declare(int, AT_LEAST_1)
    clip_rho: float | None = _declare(float, POSITIVE)

    @property
    def task(self) -> str:
        return MODELS[self.name].task


@dataclass
class TrainConfig:
    optimizer: str = _declare(str, (("sgd", "adam").__contains__, "be sgd or adam"), required=True)
    lr: float = _declare(float, POSITIVE, required=True)
    l2: float = _declare(float, NON_NEGATIVE, required=True)
    epochs: int = _declare(int, AT_LEAST_1, required=True)
    batch_size: int | None = _declare(int, AT_LEAST_1, required=True)  # unbatched models omit it
    neg_samples: int | None = _declare(int, AT_LEAST_1)
    seed: int = _declare(int, NON_NEGATIVE, required=True)


@dataclass
class EvalConfig:
    cutoffs: list[int] = _declare(ints, (lambda v: v and min(v) >= 1 and len(set(v)) == len(v),
                                         "list distinct values >= 1"), required=True)
    protocol: str = _declare(str, (lambda v: v == "full" or _sampled_m(v) >= 1,
                                   "be full or sampled:<m> with m >= 1"), required=True)

    def protocol_obj(self, seed: int) -> Protocol:
        if self.protocol == "full":
            return FullRanking()
        return SampledRanking(m=_sampled_m(self.protocol), seed=seed)


KEYS: dict[str, dict[str, Key]] = {
    section: {f.name: f.metadata["key"] for f in fields(cls)}
    for section, cls in (("data", DataConfig), ("model", ModelConfig),
                         ("train", TrainConfig), ("eval", EvalConfig))}
REQUIRED = {section: [key for key, spec in keys.items() if spec.required]
            for section, keys in KEYS.items()}


@dataclass
class ExperimentConfig:
    data: DataConfig
    model: ModelConfig
    train: TrainConfig
    eval: EvalConfig | None
    text: str = field(repr=False, default="")  # raw config file contents


def parse_split(value: str, seed: int) -> SplitSpec | str:
    """The split a ``[data] split`` value names, a random one drawn with
    ``seed``; an error message string when it names none."""
    if value == "loo":
        return LeaveOneOut()
    for prefix in ("random:", "temporal:"):
        if value.startswith(prefix):
            try:
                ratio = float(value[len(prefix):])
            except ValueError:
                return f"bad split ratio in {value!r}"
            if not 0.0 < ratio < 1.0:
                return f"split ratio must be in (0, 1), got {ratio}"
            return RandomHoldout(ratio, seed) if prefix == "random:" else Temporal(ratio)
    return f"unknown split {value!r} (expected random:<ratio>, loo or temporal:<ratio>)"


def _read(section: str, raw: dict[str, str], issues: list[str],
          optional: Container[str] = ()) -> dict[str, Any]:
    """The section's values by key, converted and checked against
    :data:`KEYS`. Appends every unknown, malformed or out-of-bound key, and
    every required key that is absent and not in ``optional``, to ``issues``."""
    keys = KEYS[section]
    values = {}
    for key, text in raw.items():
        spec = keys.get(key)
        if spec is None:
            issues.append(f"[{section}] unknown key {key!r}")
            continue
        kind, bound, _ = spec
        try:
            value = kind(text)
        except ValueError:
            issues.append(f"[{section}] {key}: expected {kind.__name__}, got {text!r}")
            continue
        if bound is not None and not bound[0](value):
            issues.append(f"[{section}] {key} must {bound[1]}, got {value!r}")
        values[key] = value
    for key in REQUIRED[section]:
        if key not in raw and key not in optional:
            issues.append(f"[{section}] missing key {key!r}")
    return values


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        return parse_config(read_text(Path(path)))
    except DataFormatError as err:  # a byte that is not UTF-8
        raise ConfigError([str(err)]) from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse + validate; raises ConfigError listing every problem found."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    issues: list[str] = []
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as err:
        raise ConfigError([f"unparseable config: {err}"]) from None

    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    for unknown in sorted(sections.keys() - KEYS.keys()):
        issues.append(f"unknown section [{unknown}]")
    for required in ("data", "model", "train"):
        if required not in sections:
            issues.append(f"missing section [{required}]")
    if issues:
        raise ConfigError(issues)

    data = _read("data", sections["data"], issues)
    split = parse_split(data["split"], data.get("seed", 0)) if "split" in data else None
    if isinstance(split, str):
        issues.append(f"[data] {split}")
        split = None

    model = _read("model", sections["model"], issues)
    name = model.get("name")
    cls = MODELS.get(name)
    if name is not None and cls is None:
        issues.append(f"[model] unknown model {name!r} (expected one of {', '.join(MODELS)})")
    elif cls is not None:
        allowed = {"name", *cls.required, *cls.defaults}
        for key in sorted(set(sections["model"]).intersection(KEYS["model"]) - allowed):
            issues.append(f"[model] key {key!r} does not apply to model {name!r}")
        for key in sorted(set(cls.required) - set(sections["model"])):
            issues.append(f"[model] model {name!r} requires key {key!r}")
        # the model's defaults apply only to keys absent from the file
        model_cfg = ModelConfig(**{**cls.defaults, **model})
        issues.extend(cls.config_issues(model_cfg))

    train = _read("train", sections["train"], issues,
                  optional=() if cls is not None and cls.batched else ("batch_size",))
    if cls is not None:
        if "neg_samples" in train and cls.neg_samples is None:
            issues.append(f"[train] neg_samples does not apply to model {name!r}")
        train.setdefault("neg_samples", cls.neg_samples)

    task = cls.task if cls else None
    evaluation = None
    if task == "rating":
        if sections.get("eval"):
            issues.append(f"[eval] rating model {name!r} reports rmse/mae only; "
                          "cutoffs/protocol do not apply")
    else:  # what an unknown model needs is unknown, so nothing is missing
        evaluation = _read("eval", sections.get("eval", {}), issues,
                           optional=KEYS["eval"] if cls is None else ())

    # format / task coupling
    threshold = data.get("binarize_threshold")
    if data.get("format") == "libfm":
        if cls is not None and name != "fm":
            issues.append(f"[data] libfm format requires model fm, got {name!r}")
        if split is not None and not isinstance(split, RandomHoldout):
            issues.append("[data] libfm rows carry no user/timestamp; split must be random:<ratio>")
        if threshold is not None:
            issues.append("[data] binarize_threshold does not apply to libfm data")
    if task == "rating" and threshold is not None:
        issues.append("[data] binarize_threshold does not apply to rating models")
    if task == "sequential" and isinstance(split, RandomHoldout):
        issues.append("[data] sequential models need a chronology-preserving split: loo "
                      "or temporal:<ratio>")

    if issues:
        raise ConfigError(issues)
    if task in ("ranking", "sequential") and threshold is None:
        data["binarize_threshold"] = DEFAULT_BINARIZE_THRESHOLD
    return ExperimentConfig(data=DataConfig(**{**data, "split": split}),
                            model=model_cfg, train=TrainConfig(**train),
                            eval=None if evaluation is None else EvalConfig(**evaluation),
                            text=text)

