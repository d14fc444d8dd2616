"""SHA-256 fingerprints of every model's outputs on the criterion-7 fixtures.

The reproducibility contract is that a fixed config and data file give
byte-identical reports and checkpoint tensors. This script trains the 12
``ALL_MODEL_CONFIGS`` entries, plus the 9 implicit ones again under the
``sampled:5`` protocol, and prints one line per output:

    <config> train <sha256 of the train report>
    <config> evaluate <sha256 of the evaluate report>
    <config> recommend <sha256 of `recommend --n 5` for USERS>
    <config> tensor <name> <sha256 of its dtype, shape and bytes>

The config echo is left out: it holds the absolute data path. The first
line names the numpy version and machine the values were made on. Run
``PYTHONPATH=src python tests/fingerprint.py > tests/fingerprints.txt`` to
regenerate the committed file after a change that alters bits on purpose.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from gradrec import checkpoint, cli, data, synthetic
from test_acceptance import ALL_MODEL_CONFIGS, model_config_text

USERS = ("u0", "u3", "u7")


def header() -> str:
    return f"# numpy {np.__version__} {platform.machine()}"


def write_fixtures(root: Path) -> dict[str, Path]:
    """The criterion-7 ratings and implicit files."""
    ratings, _ = synthetic.planted_factor_ratings(10, 10, rank=2, density=0.85,
                                                  mean=3.0, seed=13)
    squashed = dataclasses.replace(ratings, ratings=np.clip(np.rint(ratings.ratings), 1, 5))
    paths = {"ratings": root / "ratings.txt", "implicit": root / "implicit.txt"}
    data.write_uirt(paths["ratings"], squashed)
    data.write_uirt(paths["implicit"], synthetic.markov_chains(25, 12, 7, seed=21))
    return paths


def configs(paths: dict[str, Path]) -> dict[str, str]:
    """Config text by tag: every model name, then ``<name>:sampled`` for the implicit ones."""
    out = {name: model_config_text(name, paths[entry[0]])
           for name, entry in ALL_MODEL_CONFIGS.items()}
    for name, entry in ALL_MODEL_CONFIGS.items():
        if entry[0] == "implicit":
            out[f"{name}:sampled"] = out[name].replace("protocol = full", "protocol = sampled:5")
    return out


def sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def tensor_sha(value) -> str:
    if isinstance(value, list):
        return sha("\0".join(["str", *value]).encode("utf-8"))
    return sha(f"{value.dtype.str} {value.shape}".encode() + value.tobytes())


def cli_output(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"gradrec {' '.join(argv)} exited {code}")
    return out.getvalue()


def lines(root: Path) -> list[str]:
    """The fingerprint lines, header first, from a run in the empty directory ``root``."""
    result = [header()]
    for tag, text in configs(write_fixtures(root)).items():
        stem = tag.replace(":", "-")
        cfg, ckpt = root / f"{stem}.ini", root / f"{stem}.drec"
        train, evaluated = root / f"{stem}.train", root / f"{stem}.eval"
        cfg.write_text(text)
        cli_output(["train", "--config", str(cfg), "--out", str(ckpt), "--report", str(train)])
        cli_output(["evaluate", "--ckpt", str(ckpt), "--config", str(cfg),
                    "--report", str(evaluated)])
        served = "".join(cli_output(["recommend", "--ckpt", str(ckpt), "--user", user,
                                     "--n", "5"]) for user in USERS)
        result += [f"{tag} train {sha(train.read_bytes())}",
                   f"{tag} evaluate {sha(evaluated.read_bytes())}",
                   f"{tag} recommend {sha(served.encode())}"]
        _, _, tensors = checkpoint.load_checkpoint(ckpt)
        result += [f"{tag} tensor {name} {tensor_sha(value)}" for name, value in tensors.items()]
    return result


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("".join(line + "\n" for line in lines(Path(tmp))))
