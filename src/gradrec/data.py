"""Dataset ingestion, id remapping, splitting, sequences.

File formats:

* **uirt** — one interaction per line: ``user item rating [timestamp]``,
  separated by tab, comma or space (auto-detected from the first data
  line). Raw ids are arbitrary tokens and get remapped to dense 0-based
  ids in order of first appearance. A missing timestamp column falls
  back to the 0-based data-line index so file order is chronological
  order. Ratings must be finite and timestamps must fit in int64.
* **libfm** — ``<label> <index>:<value> ...`` with 0-based feature
  indices, as used for factorization machines. Parsed into
  :class:`FeatureRows`, padded arrays with one row per line.

An :class:`InteractionTable` is columnar: row r is the interaction
``(users[r], items[r], ratings[r], timestamps[r])``, int64 ids and
timestamps and float64 ratings, next to the raw<->dense id maps. The row
orders are fixed here:

* Loading collapses each duplicated (user, item) pair to its row with the
  largest (timestamp, line) and keeps the pairs in order of first
  appearance.
* Splits and binarization select rows with :meth:`InteractionTable.take`,
  which shares the id maps. Binarization and the random split keep table
  order. Leave-one-out and temporal splits list users ascending, then
  table order within a user, and hold out each user's latest rows in
  (timestamp, row) order.
* Sequences read each user's items in (timestamp, row) order.
"""

from __future__ import annotations

import hashlib
import logging
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, filterfalse
from pathlib import Path
from typing import NamedTuple

import numpy as np

from gradrec.errors import DataFormatError, GradrecError

log = logging.getLogger(__name__)

Array = np.ndarray
_INT64 = np.iinfo(np.int64)
BLOCK_CHARS = 1 << 16  # characters split into lines and parsed at a time


class Interaction(NamedTuple):
    user: int
    item: int
    rating: float
    timestamp: int


class InteractionRows(Sequence):
    """A read-only row view of a table: :class:`Interaction` tuples built
    from the columns on access, with an O(1) ``len``."""

    def __init__(self, table: InteractionTable):
        self._table = table

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, row: int) -> Interaction:
        t = self._table
        return Interaction(int(t.users[row]), int(t.items[row]), float(t.ratings[row]),
                           int(t.timestamps[row]))

    def __iter__(self):
        t = self._table
        return map(Interaction, t.users.tolist(), t.items.tolist(), t.ratings.tolist(),
                   t.timestamps.tolist())


@dataclass(eq=False)
class InteractionTable:
    """Deduplicated interactions as columns plus the raw<->dense id
    bijections."""

    users: Array  # int64 dense user id per row
    items: Array  # int64 dense item id per row
    ratings: Array  # float64
    timestamps: Array  # int64
    user_ids: list[str]  # dense id -> raw id
    item_ids: list[str]
    user_index: dict[str, int] = field(repr=False)  # raw id -> dense id
    item_index: dict[str, int] = field(repr=False)

    def __len__(self) -> int:
        return self.users.size

    @property
    def interactions(self) -> InteractionRows:
        """The rows as :class:`Interaction` tuples, built on access."""
        return InteractionRows(self)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def rating_range(self) -> tuple[float, float]:
        return (float(self.ratings.min()), float(self.ratings.max()))

    @property
    def global_mean(self) -> float:
        return float(np.mean(self.ratings))

    def take(self, rows: Array) -> InteractionTable:
        """The given rows, in the given order, over the same id maps."""
        return InteractionTable(self.users[rows], self.items[rows], self.ratings[rows],
                                self.timestamps[rows], self.user_ids, self.item_ids,
                                self.user_index, self.item_index)

    def user_rows(self) -> tuple[Array, Array]:
        """Row indices grouped by ascending user, table order within a user,
        and the group bounds: user u's rows are ``rows[bounds[u]:bounds[u + 1]]``."""
        bounds = np.zeros(self.n_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.users, minlength=self.n_users), out=bounds[1:])
        return np.argsort(self.users, kind="stable"), bounds

    def chronological(self) -> Array:
        """Row indices by ascending user, then (timestamp, row)."""
        return np.lexsort((self.timestamps, self.users))


# what a table is without its raw -> dense maps, which the id lists give
TABLE_COLUMNS = ("users", "items", "ratings", "timestamps", "user_ids", "item_ids")


def file_sha256(path: str | Path) -> str:
    """The hex SHA-256 of a file's bytes, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_text(path: Path) -> str:
    """A file's text; a byte that is not UTF-8 raises :class:`DataFormatError` at its line."""
    blob = path.read_bytes()
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as err:
        # \n, \r\n and \r end a line, as the parsers count; no UTF-8 sequence holds either byte
        line_no = (blob.count(b"\n", 0, err.start) + blob.count(b"\r", 0, err.start)
                   - blob.count(b"\r\n", 0, err.start) + 1)
        raise DataFormatError(str(path), line_no, f"not UTF-8: {err.reason}") from None


@dataclass(frozen=True, eq=False)
class FeatureRows:
    """Labelled sparse feature rows as arrays: row r has label ``labels[r]``
    and value ``value[r, j]`` at feature ``index[r, j]``. Rows narrower than
    the widest are padded with (index 0, value 0.0), which adds nothing to
    a linear or a pairwise term."""

    labels: Array  # float64 (N,)
    index: Array  # int64 (N, width), ascending within a row before the padding
    value: Array  # float64 (N, width)
    n_features: int  # one more than the largest index of the source

    def __len__(self) -> int:
        return self.labels.size

    def take(self, rows: Array) -> FeatureRows:
        return FeatureRows(self.labels[rows], self.index[rows], self.value[rows],
                           self.n_features)

    @classmethod
    def one_hot(cls, table: InteractionTable) -> FeatureRows:
        """A table's ratings as width-2 rows: feature u for the user and
        n_users + i for the item, both 1.0."""
        index = np.stack([table.users, table.n_users + table.items], axis=1)
        return cls(table.ratings, index, np.ones(index.shape), table.n_users + table.n_items)


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------


def _detect_separator(line: str) -> str:
    for sep in ("\t", ",", " "):
        if sep in line:
            return sep
    return " "


def _extend(index: dict[str, int], raw) -> Array:
    """Dense ids of raw id tokens: a token not in ``index`` joins it with
    the next id, in order of first appearance."""
    fresh = list(filterfalse(index.__contains__, dict.fromkeys(raw)))
    index.update(zip(fresh, range(len(index), len(index) + len(fresh))))
    return np.fromiter(map(index.__getitem__, raw), np.int64, len(raw))


def _remap(raw) -> tuple[Array, list[str], dict[str, int]]:
    """Dense ids of raw id tokens, assigned in order of first appearance."""
    index: dict[str, int] = {}
    dense = _extend(index, raw)
    return dense, list(index), index


def _collapse(users, items, ratings: Array, timestamps: Array) -> InteractionTable:
    """A table from remapped (ids, id list, index) users and items: each
    duplicated (user, item) pair keeps its row with the largest
    (timestamp, row), at the position of the pair's first row."""
    table = InteractionTable(users[0], items[0], ratings, timestamps, users[1], items[1],
                             users[2], items[2])
    key = table.users * table.n_items + table.items
    ordered = np.sort(key)
    if (ordered[1:] != ordered[:-1]).all():
        return table
    # lexsort is stable, so rows with equal (key, timestamp) stay in row order
    order = np.lexsort((timestamps, key))
    ordered = key[order]
    new_key = np.ones(key.size + 1, dtype=bool)
    new_key[1:-1] = ordered[1:] != ordered[:-1]
    winners = order[new_key[1:]]
    log.info("collapsed %d duplicate (user, item) pairs", key.size - winners.size)
    first_rows = np.minimum.reduceat(order, np.flatnonzero(new_key[:-1]))
    return table.take(winners[np.argsort(first_rows)])


def table_from_records(records: list[tuple[str, str, float, int]]) -> InteractionTable:
    """Build a dense-id table from (raw user, raw item, rating, timestamp)
    records, as :func:`load_interactions` builds one from the lines of a
    file."""
    raw_users, raw_items, ratings, timestamps = tuple(zip(*records)) or ((),) * 4
    return _collapse(_remap(raw_users), _remap(raw_items),
                     np.array(ratings, dtype=np.float64), np.array(timestamps, dtype=np.int64))


def _first_bad(tokens: list[str], convert, accept) -> int:
    """Index of the first token that ``convert`` rejects or whose value
    ``accept`` rejects."""
    for k, tok in enumerate(tokens):
        try:
            if not accept(convert(tok)):
                return k
        except ValueError:
            return k
    return len(tokens)


def _numbers(tokens: list[str], convert, dtype, accept) -> tuple[Array | None, int]:
    """The tokens converted in bulk, and the index of the first bad one
    (``len(tokens)`` when all are good): a token ``convert`` rejects or a
    value that is not finite or that ``accept`` rejects. The tokens are
    scanned one by one only after the bulk conversion has failed."""
    try:
        values = np.fromiter(map(convert, tokens), dtype, len(tokens))
    except (ValueError, OverflowError):
        return None, _first_bad(tokens, convert, accept)
    finite = np.isfinite(values)
    return values, len(tokens) if finite.all() else int(np.argmin(finite))


def _lines(tokens: list[str], n: int) -> tuple[Array, Array]:
    """The first token index and the field count of each of the n lines in
    ``tokens``, where a "\r" token ends every line but the last."""
    width = tokens.index("\r") if n > 1 else len(tokens)
    if len(tokens) == n * (width + 1) - 1 and tokens[width::width + 1].count("\r") == n - 1:
        return np.arange(n) * (width + 1), np.full(n, width)
    ends = np.append(np.flatnonzero(np.fromiter(map("\r".__eq__, tokens), bool, len(tokens))),
                     len(tokens))
    starts = np.append(0, ends[:-1] + 1)
    return starts, ends - starts


def _fields(tokens: list[str], starts: Array, widths: Array, k: int) -> list[str]:
    """Field k of every line with more than k fields."""
    width = int(widths[0]) if widths.size else 0
    if (widths == width).all():  # lines start every width + 1 tokens
        return tokens[k:(width + 1) * widths.size:width + 1] if k < width else []
    return list(map(tokens.__getitem__, (starts[widths > k] + k).tolist()))


def _line_blocks(text: str) -> Iterator[list[str]]:
    """The lines of ``text``, one list per block of about ``BLOCK_CHARS``
    characters: unlike ``str.splitlines``, only \\n, \\r\\n and \\r end a
    line. A block ends after a \\n, so no \\r\\n pair is cut in two."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + BLOCK_CHARS) + 1 or len(text)
        block = text[start:end]
        if "\r" in block:
            block = block.replace("\r\n", "\n").replace("\r", "\n")
        lines = block.split("\n")
        if text[end - 1] == "\n":
            lines.pop()  # the empty split after the block's last \n is no line
        yield lines
        start = end


def _parse_chunk(lines: list[str], sep: str, first: int, indexes: tuple[dict, dict],
                 fail) -> tuple[Array, Array, Array, Array]:
    """The dense users and items (``indexes`` extended), ratings and
    timestamps of data lines ``first``, ``first + 1``, ...; a line without a
    timestamp gets its data line index. The first bad line, ``lines[k]``,
    raises ``fail(k, message)``, a bad rating before a bad timestamp on the
    same line."""
    # every line's fields in one list, a "\r" token after each line
    n = len(lines)
    text = "\n\r\n".join(lines).replace(sep, "\n")
    tokens = text.split("\n")
    if "\n\n" in text or text[0] == "\n" or text[-1] == "\n":  # empty fields
        tokens = list(filter(None, tokens))
    del text
    starts, widths = _lines(tokens, n)

    # an error on a line before the first of a bad width comes first
    bad_width = (widths < 3) | (widths > 4)
    n_ok = int(np.argmax(bad_width)) if bad_width.any() else n
    got = int(widths[n_ok]) if n_ok < n else 0
    starts, widths = starts[:n_ok], widths[:n_ok]
    rating_tokens = _fields(tokens, starts, widths, 2)
    ratings, bad_rating = _numbers(rating_tokens, float, np.float64, math.isfinite)
    stamped = np.flatnonzero(widths[:bad_rating] == 4)
    stamp_tokens = _fields(tokens, starts, widths, 3)[:stamped.size]
    stamps, bad_stamp = _numbers(stamp_tokens, int, np.int64,
                                 lambda v: _INT64.min <= v <= _INT64.max)
    if bad_stamp < stamped.size:
        raise fail(int(stamped[bad_stamp]), f"bad timestamp {stamp_tokens[bad_stamp]!r}")
    if bad_rating < n_ok:
        raise fail(bad_rating, f"bad rating {rating_tokens[bad_rating]!r}")
    if n_ok < n:
        raise fail(n_ok, f"expected 3 or 4 fields, got {got}")

    timestamps = np.arange(first, first + n, dtype=np.int64)
    timestamps[stamped] = stamps
    return (_extend(indexes[0], _fields(tokens, starts, widths, 0)),
            _extend(indexes[1], _fields(tokens, starts, widths, 1)), ratings, timestamps)


def load_interactions(path: str | Path) -> InteractionTable:
    """Parse a uirt file into a dense-id interaction table.

    Duplicate (user, item) pairs collapse to the one with the latest
    timestamp (later line wins ties). Besides the file's text and the
    columns, the parse holds the tokens of one ``BLOCK_CHARS`` block at a
    time.
    """
    path = Path(path)

    def fail(k: int, message: str) -> DataFormatError:
        """The error at the current block's k-th data line, numbered only now."""
        offsets = [offset for offset, raw in enumerate(lines) if raw.strip()]
        return DataFormatError(str(path), before + offsets[k] + 1, message)

    user_index, item_index = indexes = {}, {}
    columns = []
    n = before = 0  # data lines parsed, file lines before the block
    for lines in _line_blocks(read_text(path)):
        if data := list(filter(None, map(str.strip, lines))):
            if not n:
                sep = _detect_separator(data[0])
            columns.append(_parse_chunk(data, sep, n, indexes, fail))
            n += len(data)
        before += len(lines)
    if not n:
        raise DataFormatError(str(path), None, "no interactions found")
    users, items, ratings, timestamps = map(np.concatenate, zip(*columns))
    del columns
    return _collapse((users, list(user_index), user_index),
                     (items, list(item_index), item_index), ratings, timestamps)


def _exact(x: float) -> str:
    """``{:g}``, which keeps integers short, when it reads back as the same
    float; the exact ``repr`` otherwise."""
    return g if float(g := f"{x:g}") == x else repr(x)


def write_uirt(path: str | Path, table: InteractionTable) -> None:
    users = map(table.user_ids.__getitem__, table.users.tolist())
    items = map(table.item_ids.__getitem__, table.items.tolist())
    ratings = map(_exact, table.ratings.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{u}\t{i}\t{r}\t{t}\n" for u, i, r, t in
                      zip(users, items, ratings, table.timestamps.tolist()))


def parse_libfm(path: str | Path) -> FeatureRows:
    """Parse libfm-format rows; indices must be unique and non-negative.
    A zero-valued feature adds nothing to a model, so it is checked, then
    dropped."""
    path = Path(path)
    labels: list[float] = []
    rows: list[list[tuple[int, float]]] = []
    n_features = 0
    for line_no, raw in enumerate(chain.from_iterable(_line_blocks(read_text(path))), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        try:
            labels.append(float(tokens[0]))
        except ValueError:
            raise DataFormatError(str(path), line_no, f"bad label {tokens[0]!r}") from None
        feats: dict[int, float] = {}
        for tok in tokens[1:]:
            idx_str, _, val_str = tok.partition(":")
            try:
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise DataFormatError(str(path), line_no, f"bad feature token {tok!r}") from None
            if idx < 0:
                raise DataFormatError(str(path), line_no, f"negative feature index {idx}")
            if idx >= _INT64.max:
                raise DataFormatError(str(path), line_no, f"feature index {idx} out of range")
            if idx in feats:
                raise DataFormatError(str(path), line_no, f"duplicate feature index {idx}")
            feats[idx] = val
        n_features = max(n_features, 1 + max(feats, default=-1))
        rows.append(sorted((idx, val) for idx, val in feats.items() if val != 0.0))
    if not rows:
        raise DataFormatError(str(path), None, "no rows found")
    width = max(map(len, rows))
    index = np.zeros((len(rows), width), dtype=np.int64)
    value = np.zeros((len(rows), width))
    for r, feats in enumerate(rows):
        index[r, :len(feats)] = [idx for idx, _ in feats]
        value[r, :len(feats)] = [val for _, val in feats]
    return FeatureRows(np.array(labels), index, value, n_features)


def write_libfm(path: str | Path, rows: FeatureRows) -> None:
    """One line per row, padding left out; numbers read back bit for bit."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for label, index, value in zip(rows.labels.tolist(), rows.index.tolist(),
                                       rows.value.tolist()):
            feats = "".join(f" {i}:{_exact(v)}" for i, v in zip(index, value) if v != 0.0)
            fh.write(f"{_exact(label)}{feats}\n")


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


def held_out(n: int, spec: RandomHoldout) -> Array:
    """The random holdout's test mask over n rows: the first
    round(ratio * n) positions of a seeded permutation."""
    held = np.zeros(n, dtype=bool)
    held[np.random.default_rng(spec.seed).permutation(n)[:int(round(spec.ratio * n))]] = True
    return held


def split(table: InteractionTable, spec: SplitSpec) -> tuple[InteractionTable, InteractionTable]:
    """Partition interactions into train/test per the protocol.

    Test entries whose user or item never occurs in train are dropped
    (and counted in the log): id-based models cannot score them.
    """
    if isinstance(spec, (RandomHoldout, Temporal)) and not (0.0 < spec.ratio < 1.0):
        raise GradrecError(f"split ratio must be in (0, 1), got {spec.ratio}")

    n = len(table)
    if isinstance(spec, RandomHoldout):
        held = held_out(n, spec)
        rows = np.arange(n)
    elif isinstance(spec, (LeaveOneOut, Temporal)):
        held = np.zeros(n, dtype=bool)
        rows, bounds = table.user_rows()
        counts = np.diff(bounds)
        if isinstance(spec, LeaveOneOut):
            n_test = (counts >= 2).astype(np.int64)
        else:
            # a user keeps at least one train row
            n_test = np.minimum(np.ceil(spec.ratio * counts).astype(np.int64), counts - 1)
        # the rank of each row in its user's (timestamp, row) order
        chrono = table.chronological()
        users = table.users[chrono]
        held[chrono] = np.arange(n) - bounds[users] >= (counts - n_test)[users]
    else:
        raise GradrecError(f"unknown split spec: {spec!r}")

    train, test = rows[~held[rows]], rows[held[rows]]
    warm = (np.isin(table.users[test], table.users[train])
            & np.isin(table.items[test], table.items[train]))
    if not warm.all():
        log.info("dropped %d cold-start test interactions", warm.size - np.count_nonzero(warm))
    return table.take(train), table.take(test[warm])


def binarize(table: InteractionTable, threshold: float) -> InteractionTable:
    """Keep interactions with rating >= threshold as implicit positives."""
    return table.take(np.flatnonzero(table.ratings >= threshold))


# --------------------------------------------------------------------------
# sequences
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SequenceDataset:
    """Training instances as arrays: instance n is user ``users[n]``, the
    ``window`` items before a target position, left-padded with
    ``padding_id``, and the ``horizon`` items from it on, right-padded with
    ``padding_id`` where the history ends. Serving reads
    :func:`latest_windows` instead."""

    users: Array  # int64 (N,)
    windows: Array  # int64 (N, window)
    targets: Array  # int64 (N, horizon)
    padding_id: int

    instances = property(lambda self: self.users)  # bench/workloads.py counts these

    @property
    def window(self) -> int:
        return self.windows.shape[1]

    @property
    def horizon(self) -> int:
        return self.targets.shape[1]


def _frames(table: InteractionTable, window: int, horizon: int,
            last: bool) -> tuple[Array, Array, Array]:
    """(users, windows, targets) of frames over each user's items in
    (timestamp, row) order: the ``window`` items before a position,
    left-padded with ``table.n_items``, and the ``horizon`` items from it
    on, right-padded. With ``last``, one frame per user with a row, one past
    its last item; otherwise one at each position after a user's first."""
    chrono = table.chronological()
    users, items = table.users[chrono], table.items[chrono]
    owners, starts, counts = np.unique(users, return_index=True, return_counts=True)
    if last:
        at, first, end = starts + counts, starts, starts + counts
    else:
        first = np.repeat(starts, counts)
        end = first + np.repeat(counts, counts)
        at = np.flatnonzero(np.arange(users.size) > first)
        owners, first, end = users[at], first[at], end[at]
    rows = at[:, None] + np.arange(-window, 0)
    windows = np.where(rows >= first[:, None], items[np.maximum(rows, 0)], table.n_items)
    rows = at[:, None] + np.arange(horizon)
    targets = np.where(rows < end[:, None], items[np.minimum(rows, users.size - 1)],
                       table.n_items)
    return owners, windows, targets


def build_sequences(table: InteractionTable, window: int, horizon: int) -> SequenceDataset:
    """Slide an (L window, T targets) frame over each user's history.

    An instance exists for every target position with at least one
    preceding item, so single-interaction histories produce nothing.
    Instances list users ascending, then target positions in order.
    """
    if window < 1 or horizon < 1:
        raise GradrecError(f"window and horizon must be >= 1, got L={window}, T={horizon}")
    return SequenceDataset(*_frames(table, window, horizon, last=False), table.n_items)


def latest_windows(table: InteractionTable, window: int) -> tuple[Array, Array]:
    """The users with a row, ascending, and each one's last ``window`` items
    in (timestamp, row) order, left-padded with ``table.n_items``, shape
    (users, window): the sequence models' serving input, the window
    :func:`build_sequences` would slide one past the end of the history."""
    return _frames(table, window, 0, last=True)[:2]
