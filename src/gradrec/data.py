"""Dataset ingestion, id remapping, splitting, sequences.

File formats:

* **uirt** — one interaction per line: ``user item rating [timestamp]``,
  separated by tab, comma or space (auto-detected, overridable). Raw ids
  are arbitrary tokens and get remapped to dense 0-based ids in order of
  first appearance. A missing timestamp column falls back to the 0-based
  data-line index so file order is chronological order.
* **libfm** — ``<label> <index>:<value> ...`` with 0-based feature
  indices, as used for factorization machines.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from gradrec.errors import DataFormatError, GradrecError

log = logging.getLogger(__name__)


class Interaction(NamedTuple):
    user: int
    item: int
    rating: float
    timestamp: int


@dataclass
class InteractionTable:
    """Deduplicated interactions plus the raw<->dense id bijections."""

    interactions: list[Interaction]
    user_ids: list[str]  # dense id -> raw id
    item_ids: list[str]
    user_index: dict[str, int] = field(repr=False)  # raw id -> dense id
    item_index: dict[str, int] = field(repr=False)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def rating_range(self) -> tuple[float, float]:
        ratings = [x.rating for x in self.interactions]
        return (min(ratings), max(ratings))

    @property
    def global_mean(self) -> float:
        return float(np.mean([x.rating for x in self.interactions]))

    def with_interactions(self, interactions: list[Interaction]) -> "InteractionTable":
        """Same id space, different interaction subset."""
        return InteractionTable(interactions, self.user_ids, self.item_ids,
                                self.user_index, self.item_index)

    def by_user(self) -> dict[int, list[Interaction]]:
        out: dict[int, list[Interaction]] = {}
        for x in self.interactions:
            out.setdefault(x.user, []).append(x)
        return out

    def consumed(self) -> dict[int, set[int]]:
        out: dict[int, set[int]] = {}
        for x in self.interactions:
            out.setdefault(x.user, set()).add(x.item)
        return out


@dataclass(frozen=True)
class SparseRow:
    """A libfm-format labeled sparse feature vector."""

    label: float
    features: tuple[tuple[int, float], ...]  # (index, value), strictly increasing indices


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------


def _detect_separator(line: str) -> str:
    for sep in ("\t", ",", " "):
        if sep in line:
            return sep
    return " "


def table_from_records(records: list[tuple[str, str, float, int]]) -> InteractionTable:
    """Build a dense-id table from (raw user, raw item, rating, timestamp)
    records: ids remapped in first-appearance order, duplicate (user, item)
    pairs collapsed to the latest timestamp (later record wins ties)."""
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    user_ids: list[str] = []
    item_ids: list[str] = []
    # (user, item) -> (timestamp, record index, rating); a key keeps the
    # dict position of its first appearance when a later record replaces it
    latest: dict[tuple[int, int], tuple[int, int, float]] = {}

    for pos, (u_raw, i_raw, rating, timestamp) in enumerate(records):
        if u_raw not in user_index:
            user_index[u_raw] = len(user_ids)
            user_ids.append(u_raw)
        if i_raw not in item_index:
            item_index[i_raw] = len(item_ids)
            item_ids.append(i_raw)
        key = (user_index[u_raw], item_index[i_raw])
        prev = latest.get(key)
        if prev is None or (timestamp, pos) >= prev[:2]:
            latest[key] = (timestamp, pos, float(rating))

    # first-appearance order of the surviving pairs
    interactions = [Interaction(u, i, rating, timestamp)
                    for (u, i), (timestamp, _, rating) in latest.items()]
    if len(interactions) < len(records):
        log.info("collapsed %d duplicate (user, item) pairs", len(records) - len(interactions))
    return InteractionTable(interactions, user_ids, item_ids, user_index, item_index)


def load_interactions(path: str | Path, separator: str | None = None,
                      has_header: bool = False) -> InteractionTable:
    """Parse a uirt file into a dense-id interaction table.

    Duplicate (user, item) pairs collapse to the one with the latest
    timestamp (later line wins ties).
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if has_header and lines:
        lines = lines[1:]

    records: list[tuple[str, str, float, int]] = []
    sep = separator
    first_line = 2 if has_header else 1
    for offset, raw in enumerate(lines):
        line = raw.strip()
        if not line:
            continue
        line_no = offset + first_line
        if sep is None:
            sep = _detect_separator(line)
        fields = line.split(sep)
        if "" in fields:
            fields = [f for f in fields if f != ""]
        if len(fields) < 3 or len(fields) > 4:
            raise DataFormatError(str(path), line_no,
                                  f"expected 3 or 4 fields, got {len(fields)}")
        u_raw, i_raw, r_raw = fields[0], fields[1], fields[2]
        try:
            rating = float(r_raw)
        except ValueError:
            raise DataFormatError(str(path), line_no, f"bad rating {r_raw!r}") from None
        if len(fields) == 4:
            try:
                timestamp = int(fields[3])
            except ValueError:
                raise DataFormatError(str(path), line_no, f"bad timestamp {fields[3]!r}") from None
        else:
            timestamp = len(records)
        records.append((u_raw, i_raw, rating, timestamp))

    if not records:
        raise DataFormatError(str(path), None, "no interactions found")
    return table_from_records(records)


def write_uirt(path: str | Path, table: InteractionTable) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x in table.interactions:
            fh.write(f"{table.user_ids[x.user]}\t{table.item_ids[x.item]}\t"
                     f"{x.rating:g}\t{x.timestamp}\n")


def parse_libfm(path: str | Path) -> list[SparseRow]:
    """Parse libfm-format rows; indices must be unique and non-negative."""
    path = Path(path)
    rows: list[SparseRow] = []
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise DataFormatError(str(path), line_no, f"bad label {tokens[0]!r}") from None
        feats: list[tuple[int, float]] = []
        seen: set[int] = set()
        for tok in tokens[1:]:
            idx_str, _, val_str = tok.partition(":")
            try:
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise DataFormatError(str(path), line_no, f"bad feature token {tok!r}") from None
            if idx < 0:
                raise DataFormatError(str(path), line_no, f"negative feature index {idx}")
            if idx in seen:
                raise DataFormatError(str(path), line_no, f"duplicate feature index {idx}")
            seen.add(idx)
            feats.append((idx, val))
        feats.sort(key=lambda p: p[0])
        rows.append(SparseRow(label=label, features=tuple(feats)))
    if not rows:
        raise DataFormatError(str(path), None, "no rows found")
    return rows


def write_libfm(path: str | Path, rows: list[SparseRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            feats = " ".join(f"{i}:{v:g}" for i, v in row.features)
            fh.write(f"{row.label:g}{' ' if feats else ''}{feats}\n")


def n_features(rows: list[SparseRow]) -> int:
    return 1 + max((i for row in rows for i, _ in row.features), default=-1)


# --------------------------------------------------------------------------
# splitting
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomHoldout:
    ratio: float  # test fraction
    seed: int


@dataclass(frozen=True)
class LeaveOneOut:
    pass


@dataclass(frozen=True)
class Temporal:
    ratio: float  # per-user test fraction, latest interactions


SplitSpec = RandomHoldout | LeaveOneOut | Temporal


def split(table: InteractionTable, spec: SplitSpec) -> tuple[InteractionTable, InteractionTable]:
    """Partition interactions into train/test per the protocol.

    Test entries whose user or item never occurs in train are dropped
    (and counted in the log): id-based models cannot score them.
    """
    if isinstance(spec, (RandomHoldout, Temporal)) and not (0.0 < spec.ratio < 1.0):
        raise GradrecError(f"split ratio must be in (0, 1), got {spec.ratio}")

    interactions = table.interactions
    if isinstance(spec, RandomHoldout):
        rng = np.random.default_rng(spec.seed)
        order = rng.permutation(len(interactions))
        n_test = int(round(spec.ratio * len(interactions)))
        test_idx = set(order[:n_test].tolist())
        train = [x for k, x in enumerate(interactions) if k not in test_idx]
        test = [x for k, x in enumerate(interactions) if k in test_idx]
    elif isinstance(spec, LeaveOneOut):
        train, test = [], []
        for user, hist in sorted(table.by_user().items()):
            if len(hist) < 2:
                train.extend(hist)
                continue
            ordered = sorted(range(len(hist)), key=lambda k: (hist[k].timestamp, k))
            held = ordered[-1]
            for k, x in enumerate(hist):
                (test if k == held else train).append(x)
    elif isinstance(spec, Temporal):
        train, test = [], []
        for user, hist in sorted(table.by_user().items()):
            n_test = int(np.ceil(spec.ratio * len(hist)))
            if n_test >= len(hist):
                n_test = len(hist) - 1
            ordered = sorted(range(len(hist)), key=lambda k: (hist[k].timestamp, k))
            held = set(ordered[len(hist) - n_test:])
            for k, x in enumerate(hist):
                (test if k in held else train).append(x)
    else:
        raise GradrecError(f"unknown split spec: {spec!r}")

    train_users = {x.user for x in train}
    train_items = {x.item for x in train}
    kept = [x for x in test if x.user in train_users and x.item in train_items]
    dropped = len(test) - len(kept)
    if dropped:
        log.info("dropped %d cold-start test interactions", dropped)
    return table.with_interactions(train), table.with_interactions(kept)


def binarize(table: InteractionTable, threshold: float) -> InteractionTable:
    """Keep interactions with rating >= threshold as implicit positives."""
    kept = [x for x in table.interactions if x.rating >= threshold]
    return table.with_interactions(kept)


# --------------------------------------------------------------------------
# sequences
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceInstance:
    user: int
    window: tuple[int, ...]  # length L, left-padded with padding_id
    targets: tuple[int, ...]  # 1..T next items


@dataclass
class SequenceDataset:
    instances: list[SequenceInstance]
    histories: dict[int, list[int]]  # user -> chronological item ids
    window: int
    horizon: int
    padding_id: int
    n_items: int
    n_users: int

    def latest_window(self, user: int) -> tuple[int, ...]:
        """The last L consumed items of a user, left-padded; serving input."""
        hist = self.histories.get(user, [])
        tail = hist[-self.window:]
        pad = [self.padding_id] * (self.window - len(tail))
        return tuple(pad + tail)


def build_sequences(table: InteractionTable, window: int, horizon: int) -> SequenceDataset:
    """Slide an (L window, T targets) frame over each user's history.

    An instance exists for every target position with at least one
    preceding item, so single-interaction histories produce nothing.
    """
    if window < 1 or horizon < 1:
        raise GradrecError(f"window and horizon must be >= 1, got L={window}, T={horizon}")
    padding_id = table.n_items
    histories: dict[int, list[int]] = {}
    for user, hist in sorted(table.by_user().items()):
        ordered = sorted(range(len(hist)), key=lambda k: (hist[k].timestamp, k))
        histories[user] = [hist[k].item for k in ordered]

    instances: list[SequenceInstance] = []
    for user, items in histories.items():
        for pos in range(1, len(items)):
            past = items[max(0, pos - window):pos]
            pad = [padding_id] * (window - len(past))
            targets = tuple(items[pos:pos + horizon])
            instances.append(SequenceInstance(user, tuple(pad + past), targets))
    return SequenceDataset(instances, histories, window, horizon, padding_id,
                           table.n_items, table.n_users)
