import gc
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradrec import cli, data, runner, synthetic
from gradrec import config as cfgmod
from gradrec.errors import DataFormatError, GradrecError
from gradrec.models.base import NegativeSampler

from conftest import config_text, consumed


def write(tmp_path, text, name="data.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadInteractions:
    def test_dense_remapping(self, tmp_path):
        table = data.load_interactions(write(tmp_path, "u1 i9 5 10\nu2 i9 3 20\n"))
        assert table.n_users == 2
        assert table.n_items == 1
        assert table.item_index["i9"] == 0
        assert [x.user for x in table.interactions] == [0, 1]

    def test_duplicate_keeps_latest_timestamp(self, tmp_path):
        table = data.load_interactions(write(tmp_path, "u1 i9 5 10\nu1 i9 2 30\n"))
        assert len(table.interactions) == 1
        assert table.interactions[0].rating == 2.0
        assert table.interactions[0].timestamp == 30

    def test_latest_wins_regardless_of_line_order(self, tmp_path):
        table = data.load_interactions(write(tmp_path, "u1 i9 5 30\nu1 i9 2 10\n"))
        assert table.interactions[0].rating == 5.0

    def test_missing_timestamp_uses_line_order(self, tmp_path):
        table = data.load_interactions(write(tmp_path, "a x 1\nb y 2\nc z 3\n"))
        assert [x.timestamp for x in table.interactions] == [0, 1, 2]

    def test_separator_autodetect(self, tmp_path):
        for sep in ["\t", ",", " "]:
            text = sep.join(["u", "i", "4", "7"]) + "\n"
            table = data.load_interactions(write(tmp_path, text, f"f{ord(sep)}.txt"))
            assert table.interactions[0].rating == 4.0

    def test_malformed_line_reports_line_number(self, tmp_path):
        with pytest.raises(DataFormatError) as err:
            data.load_interactions(write(tmp_path, "u i 5 1\nu i\n"))
        assert err.value.line_no == 2

    def test_bad_rating_reports_line_number(self, tmp_path):
        with pytest.raises(DataFormatError) as err:
            data.load_interactions(write(tmp_path, "u i five 1\n"))
        assert err.value.line_no == 1

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_rating_rejected(self, tmp_path, token):
        text = f"u1 i1 4 1\nu2 i1 3 2\nu1 i2 {token} 3\nu3 i3 5 4\nu2 i2 2 5\n"
        with pytest.raises(DataFormatError, match=f"bad rating '{token}'") as err:
            data.load_interactions(write(tmp_path, text))
        assert err.value.line_no == 3

    @pytest.mark.parametrize("token", ["9223372036854775808", "-9223372036854775809",
                                       "1" + "0" * 30])
    def test_timestamp_beyond_int64_rejected(self, tmp_path, token):
        text = f"u1 i1 4 9223372036854775807\nu2 i1 3 -9223372036854775808\nu1 i2 5 {token}\n"
        with pytest.raises(DataFormatError, match=f"bad timestamp '{token}'") as err:
            data.load_interactions(write(tmp_path, text))
        assert err.value.line_no == 3
        table = data.load_interactions(write(tmp_path, text.rsplit("\n", 2)[0] + "\n"))
        assert table.timestamps.tolist() == [2**63 - 1, -2**63]

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            data.load_interactions(write(tmp_path, "\n\n"))

    def test_roundtrip_raw_dense_raw(self, tmp_path):
        table = data.load_interactions(write(tmp_path, "alice m1 5 1\nbob m2 3 2\nalice m2 4 3\n"))
        for raw, dense in table.user_index.items():
            assert table.user_ids[dense] == raw
        for raw, dense in table.item_index.items():
            assert table.item_ids[dense] == raw

    def test_write_uirt_roundtrip(self, tmp_path):
        table = data.load_interactions(write(tmp_path, "alice m1 5 1\nbob m2 3 2\nalice m2 4 3\n"))
        out = tmp_path / "copy.txt"
        data.write_uirt(out, table)
        again = data.load_interactions(out)
        assert list(again.interactions) == list(table.interactions)
        assert again.user_ids == table.user_ids


@pytest.mark.parametrize("parse, blob, line_no", [
    (data.load_interactions, b"u1\ti1\t5\t1\r\nu2\t\xffi2\t4\t2\r\n", 2),
    (data.load_interactions, b"u1\ti1\t5\t1\ru2\ti2\t4\t2\ru3\t\xffi2\t4\t3\r", 3),
    (data.parse_libfm, b"5 0:1\n\n4 \xff1:1\n", 3),
])
def test_undecodable_byte_is_a_format_error_at_its_line(tmp_path, parse, blob, line_no):
    path = tmp_path / "bad.txt"
    path.write_bytes(blob)
    with pytest.raises(DataFormatError, match="not UTF-8") as err:
        parse(path)
    assert err.value.path == str(path) and err.value.line_no == line_no


@pytest.mark.parametrize("ending", ["\r\n", "\r"])
def test_line_endings_parse_alike(tmp_path, ending):
    text = "u1\ti1\t5\t3\n\nu2\ti1\t4\t1\nu1\ti2\t2\t2\n"
    want = data.load_interactions(write(tmp_path, text))
    path = tmp_path / "other.txt"
    path.write_bytes(text.replace("\n", ending).encode())
    got = data.load_interactions(path)
    for column in data.TABLE_COLUMNS:
        assert np.array_equal(getattr(got, column), getattr(want, column)), column
    path.write_bytes(text.replace("\t2\t2", "\tx\t2").replace("\n", ending).encode())
    with pytest.raises(DataFormatError, match="bad rating") as err:
        data.load_interactions(path)
    assert err.value.line_no == 4


@pytest.mark.parametrize("mark", ["\u2028", "\u0085", "\x0c"])
def test_only_newline_and_carriage_return_end_a_line(tmp_path, mark):
    # str.splitlines also breaks at these, which would cut the ids in two
    table = data.load_interactions(write(tmp_path, f"u{mark}1\ti1\t5\t1\nu2\ti{mark}x\t4\t2\n"))
    assert table.user_ids == [f"u{mark}1", "u2"] and table.item_ids == ["i1", f"i{mark}x"]
    path = write(tmp_path, f"5 0:1{mark}\n4 x\n")
    with pytest.raises(DataFormatError, match="bad feature token 'x'") as err:
        data.parse_libfm(path)
    assert err.value.line_no == 2
    path.write_bytes(f"u1\ti{mark}1\t5\t1\nu2\t".encode() + b"\xffi2\t4\t2\n")
    with pytest.raises(DataFormatError, match="not UTF-8") as err:
        data.load_interactions(path)
    assert err.value.line_no == 2


class TestParseLibfm:
    def test_basic_row(self, tmp_path):
        rows = data.parse_libfm(write(tmp_path, "5 0:1 3:2.5\n"))
        assert rows.labels.tolist() == [5.0]
        assert rows.index.tolist() == [[0, 3]] and rows.value.tolist() == [[1.0, 2.5]]
        assert rows.n_features == 4

    def test_label_only_row(self, tmp_path):
        rows = data.parse_libfm(write(tmp_path, "0\n"))
        assert rows.index.shape == rows.value.shape == (1, 0)

    def test_rows_pad_to_the_widest_and_drop_zero_values(self, tmp_path):
        rows = data.parse_libfm(write(tmp_path, "1 4:2 0:1 7:0\n\n2 5:3\n3\n"))
        assert rows.labels.tolist() == [1.0, 2.0, 3.0]
        assert rows.index.tolist() == [[0, 4], [5, 0], [0, 0]]
        assert rows.value.tolist() == [[1.0, 2.0], [3.0, 0.0], [0.0, 0.0]]
        assert rows.n_features == 8  # the dropped 7:0 still counts

    def test_duplicate_index_rejected(self, tmp_path):
        with pytest.raises(DataFormatError) as err:
            data.parse_libfm(write(tmp_path, "1 3:1 3:2\n"))
        assert err.value.line_no == 1

    def test_negative_index_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            data.parse_libfm(write(tmp_path, "1 -2:1\n"))

    def test_non_numeric_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            data.parse_libfm(write(tmp_path, "1 a:b\n"))

    def test_index_beyond_int64_rejected(self, tmp_path):
        with pytest.raises(DataFormatError) as err:
            data.parse_libfm(write(tmp_path, "2 0:1\n1 99999999999999999999:1\n"))
        assert err.value.line_no == 2

    def test_indices_sorted(self, tmp_path):
        rows = data.parse_libfm(write(tmp_path, "1 5:1 2:3\n"))
        assert rows.index.tolist() == [[2, 5]] and rows.value.tolist() == [[3.0, 1.0]]


@st.composite
def padded_rows(draw):
    """FeatureRows as the parser builds them: nonzero values at ascending
    indices, padded to the widest row."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.tuples(finite, st.dictionaries(
        st.integers(0, 40), finite.filter(lambda v: v != 0.0), max_size=5)),
        min_size=1, max_size=12))
    width = max(len(feats) for _, feats in rows)
    index = np.zeros((len(rows), width), dtype=np.int64)
    value = np.zeros((len(rows), width))
    for r, (_, feats) in enumerate(rows):
        index[r, :len(feats)] = sorted(feats)
        value[r, :len(feats)] = [feats[i] for i in sorted(feats)]
    n_features = 1 + max((i for _, feats in rows for i in feats), default=-1)
    return data.FeatureRows(np.array([label for label, _ in rows]), index, value, n_features)


@given(padded_rows())
@settings(max_examples=100, deadline=None)
def test_write_libfm_round_trips_bitwise(tmp_path_factory, rows):
    # {:g} alone keeps 6 significant digits
    path = tmp_path_factory.getbasetemp() / "rows.libfm"
    data.write_libfm(path, rows)
    again = data.parse_libfm(path)
    for name in ("labels", "index", "value"):
        want, got = getattr(rows, name), getattr(again, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert again.n_features == rows.n_features


def make_table(entries):
    """entries: (user_raw, item_raw, rating, ts)"""
    lines = "\n".join(f"{u}\t{i}\t{r}\t{t}" for u, i, r, t in entries)
    import tempfile, os
    fd, path = tempfile.mkstemp(suffix=".txt")
    with os.fdopen(fd, "w") as fh:
        fh.write(lines + "\n")
    try:
        return data.load_interactions(path)
    finally:
        os.unlink(path)


class TestSplit:
    def test_leave_one_out_takes_latest(self):
        table = make_table([("u", "a", 1, 1), ("u", "c", 1, 2), ("u", "b", 1, 3),
                            ("v", "b", 1, 1), ("v", "c", 1, 9)])
        train, test = data.split(table, data.LeaveOneOut())
        test_items = {(x.user, x.item) for x in test.interactions}
        u, v = table.user_index["u"], table.user_index["v"]
        b, c = table.item_index["b"], table.item_index["c"]
        assert test_items == {(u, b), (v, c)}
        assert len(train.interactions) == 3

    def test_leave_one_out_single_interaction_user_stays_in_train(self):
        table = make_table([("u", "a", 1, 1), ("u", "b", 1, 2), ("w", "a", 1, 5)])
        train, test = data.split(table, data.LeaveOneOut())
        assert all(x.user != table.user_index["w"] for x in test.interactions)
        assert any(x.user == table.user_index["w"] for x in train.interactions)

    def test_random_holdout_is_deterministic(self):
        table = make_table([("u%d" % k, "i%d" % (k % 5), 1, k) for k in range(40)])
        a = data.split(table, data.RandomHoldout(0.2, seed=7))
        b = data.split(table, data.RandomHoldout(0.2, seed=7))
        assert [x for x in a[1].interactions] == [x for x in b[1].interactions]

    def test_random_holdout_partitions(self):
        table = make_table([("u%d" % (k % 7), "i%d" % (k % 5), 1, k) for k in range(60)])
        train, test = data.split(table, data.RandomHoldout(0.25, seed=3))
        joined = list(train.interactions) + list(test.interactions)
        assert len(joined) <= len(table.interactions)
        assert set(joined) <= set(table.interactions)
        assert not (set(train.interactions) & set(test.interactions))

    def test_temporal_holds_out_latest_per_user(self):
        table = make_table([("u", "a", 1, 1), ("u", "b", 1, 2), ("u", "c", 1, 3),
                            ("u", "d", 1, 4),
                            ("v", "c", 1, 1), ("v", "d", 1, 2), ("v", "a", 1, 3),
                            ("v", "b", 1, 4)])
        train, test = data.split(table, data.Temporal(0.5))
        u = table.user_index["u"]
        test_u = sorted(x.timestamp for x in test.interactions if x.user == u)
        assert test_u == [3, 4]

    def test_cold_start_items_dropped_from_test(self):
        # item "z" appears once, so under leave-one-out it lands in test
        # without train support and must be dropped
        table = make_table([("u", "a", 1, 1), ("u", "z", 1, 9),
                            ("v", "a", 1, 1), ("v", "b", 1, 2)])
        train, test = data.split(table, data.LeaveOneOut())
        z = table.item_index["z"]
        assert all(x.item != z for x in test.interactions)

    def test_bad_ratio_rejected(self):
        table = make_table([("u", "a", 1, 1), ("u", "b", 1, 2)])
        with pytest.raises(GradrecError):
            data.split(table, data.RandomHoldout(1.5, seed=0))


class TestSampleNegatives:
    """The training loops' NegativeSampler, built from the train table."""

    def table(self):
        return make_table([("u", "i1", 1, 1), ("u", "i2", 1, 2),
                           ("v", "i0", 1, 1), ("v", "i3", 1, 2), ("v", "i4", 1, 3)])

    def test_support_excludes_consumed(self):
        table = self.table()
        sampler = NegativeSampler(table)
        u = table.user_index["u"]
        own = consumed(table)[u]
        for seed in range(5):
            drawn = sampler.draw(u, 50, np.random.default_rng(seed))
            assert set(drawn.tolist()) <= set(range(table.n_items)) - own

    def test_k_zero(self):
        table = self.table()
        assert NegativeSampler(table).draw(0, 0, np.random.default_rng(1)).size == 0

    def test_exclude_respected(self):
        # draw_many excludes each row's own user's items, not one shared set
        table = self.table()
        items = consumed(table)
        users = np.array([table.user_index[u] for u in ("u", "v", "u", "v")])
        drawn = NegativeSampler(table).draw_many(users, 100, np.random.default_rng(2))
        assert drawn.shape == (4, 100)
        for user, row in zip(users, drawn):
            assert set(row.tolist()) == set(range(table.n_items)) - items[user]

    def test_all_consumed_raises(self):
        table = make_table([("u", "a", 1, 1), ("u", "b", 1, 2)])
        u = table.user_index["u"]
        with pytest.raises(GradrecError):
            NegativeSampler(table).draw(u, 1, np.random.default_rng(0))

    def test_uniform_frequencies(self):
        # u consumed {i1, i2}; catalog has 5 items -> 3 candidates
        table = self.table()
        u = table.user_index["u"]
        drawn = NegativeSampler(table).draw(u, 30_000, np.random.default_rng(123))
        values, counts = np.unique(drawn, return_counts=True)
        assert len(values) == 3
        freqs = counts / drawn.size
        assert np.all(np.abs(freqs - 1 / 3) < 0.02)

    def test_deterministic_given_seed(self):
        table = self.table()
        a = NegativeSampler(table).draw(1, 20, np.random.default_rng(9))
        b = NegativeSampler(table).draw(1, 20, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def reference_draws(self, table, users, k, rng):
        """One setdiff1d candidate array and one rng.integers call per row."""
        items = consumed(table)
        rows = []
        for user in users:
            blocked = np.array(sorted(items.get(int(user), ())), dtype=np.int64)
            cand = np.setdiff1d(np.arange(table.n_items), blocked)
            rows.append(cand[rng.integers(0, cand.size, size=k)])
        return np.array(rows, dtype=np.int64).reshape(len(users), k)

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_draws_match_per_row_reference(self, k):
        # u0 has one candidate left; the rest have from a few to all 40
        entries = [("u0", f"i{j}", 1, j) for j in range(39)]
        rng = np.random.default_rng(31)
        for u in range(1, 12):
            for j in rng.choice(40, size=int(rng.integers(0, 30)), replace=False):
                entries.append((f"u{u}", f"i{j}", 1, int(j)))
        table = make_table(entries)
        assert table.n_items == 40
        users = np.random.default_rng(32).integers(0, table.n_users, size=200)
        sampler = NegativeSampler(table)

        got_rng, want_rng = np.random.default_rng(33), np.random.default_rng(33)
        got = sampler.draw_many(users, k, got_rng)
        want = self.reference_draws(table, users, k, want_rng)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        for user in users[:20]:
            assert np.array_equal(sampler.draw(int(user), k, got_rng),
                                  self.reference_draws(table, [user], k, want_rng)[0])
        assert got_rng.random() == want_rng.random()  # same stream position

    def test_draw_many_exhausted_user_raises_before_drawing(self):
        table = make_table([("u", "a", 1, 1), ("u", "b", 1, 2), ("v", "a", 1, 1)])
        users = [table.user_index["v"], table.user_index["u"]]
        rng = np.random.default_rng(4)
        with pytest.raises(GradrecError, match="user 0 has consumed every item"):
            NegativeSampler(table).draw_many(users, 2, rng)
        assert rng.random() == np.random.default_rng(4).random()


def instance_tuples(ds):
    """A sequence dataset's instances as (user, window, targets) tuples."""
    return list(zip(ds.users.tolist(), map(tuple, ds.windows.tolist()),
                    map(tuple, ds.targets.tolist())))


def window_dict(users, windows):
    """:func:`data.latest_windows` arrays as user -> window tuple."""
    return dict(zip(users.tolist(), map(tuple, windows.tolist())))


class TestBuildSequences:
    def test_window_definition(self):
        table = make_table([("u", "a", 1, 1), ("u", "b", 1, 2), ("u", "c", 1, 3)])
        ds = data.build_sequences(table, window=2, horizon=1)
        a, b, c = (table.item_index[x] for x in "abc")
        pad = ds.padding_id
        got = [(w, t) for _, w, t in instance_tuples(ds)]
        assert got == [((pad, a), (b,)), ((a, b), (c,))]

    def test_single_item_history_yields_nothing(self):
        table = make_table([("u", "a", 1, 1), ("v", "a", 1, 1), ("v", "b", 1, 2)])
        ds = data.build_sequences(table, window=3, horizon=1)
        assert all(user != table.user_index["u"] for user in ds.users.tolist())

    def test_truncated_horizon(self):
        table = make_table([("u", x, 1, t) for t, x in enumerate("abcd", 1)])
        ds = data.build_sequences(table, window=3, horizon=2)
        ids = [table.item_index[x] for x in "abcd"]
        _, window, targets = instance_tuples(ds)[-1]
        assert window == (ids[0], ids[1], ids[2])
        assert targets == (ids[3], ds.padding_id)  # right-padded where the history ends

    def test_bad_params_rejected(self):
        table = make_table([("u", "a", 1, 1), ("u", "b", 1, 2)])
        with pytest.raises(GradrecError):
            data.build_sequences(table, window=0, horizon=1)
        with pytest.raises(GradrecError):
            data.build_sequences(table, window=1, horizon=0)

    def test_latest_windows_left_pad(self):
        table = make_table([("u", "a", 1, 1), ("u", "b", 1, 2)])
        u = table.user_index["u"]
        a, b = table.item_index["a"], table.item_index["b"]
        pad = data.build_sequences(table, window=4, horizon=1).padding_id
        assert window_dict(*data.latest_windows(table, 4)) == {u: (pad, pad, a, b)}
        users, windows = data.latest_windows(table.take(np.arange(0)), 4)
        assert windows.shape == (0, 4) and window_dict(users, windows) == {}


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 8)), min_size=2, max_size=60),
       st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_split_partition_property(pairs, seed):
    entries = [(f"u{u}", f"i{i}", 1.0, t) for t, (u, i) in enumerate(pairs)]
    table = make_table(entries)
    if len(table.interactions) < 2:
        return
    train, test = data.split(table, data.RandomHoldout(0.3, seed=seed))
    total = set(train.interactions) | set(test.interactions)
    assert set(train.interactions).isdisjoint(test.interactions)
    assert total <= set(table.interactions)
    # anything missing was a logged cold-start drop from test
    assert set(train.interactions) <= set(table.interactions)


def test_binarize_threshold():
    table = make_table([("u", "a", 5, 1), ("u", "b", 2, 2), ("v", "a", 4, 1)])
    implicit = data.binarize(table, 4.0)
    assert len(implicit.interactions) == 2
    assert all(x.rating >= 4.0 for x in implicit.interactions)


# --------------------------------------------------------------------------
# reference: the row-wise parser, dedupe, splits and histories that the
# columnar code replaced, kept as the oracle it must match bit for bit
# --------------------------------------------------------------------------


def reference_separator(line):
    for sep in ("\t", ",", " "):
        if sep in line:
            return sep
    return " "


def reference_table(records):
    """(rows, user_ids, item_ids): ids in first-appearance order; a
    duplicated pair keeps the record with the largest (timestamp, record
    index), at the position of the pair's first record."""
    user_index, item_index = {}, {}
    latest = {}
    for pos, (u_raw, i_raw, rating, timestamp) in enumerate(records):
        user = user_index.setdefault(u_raw, len(user_index))
        item = item_index.setdefault(i_raw, len(item_index))
        prev = latest.get((user, item))
        if prev is None or (timestamp, pos) >= prev[:2]:
            latest[(user, item)] = (timestamp, pos, float(rating))
    rows = [(u, i, rating, t) for (u, i), (t, _, rating) in latest.items()]
    return rows, list(user_index), list(item_index)


def reference_load(path):
    path = Path(path)
    lines = path.read_text(encoding="utf-8").split("\n")
    records = []
    sep = None
    for offset, raw in enumerate(lines):
        line = raw.strip()
        if not line:
            continue
        line_no = offset + 1
        if sep is None:
            sep = reference_separator(line)
        fields = [f for f in line.split(sep) if f != ""]
        if len(fields) < 3 or len(fields) > 4:
            raise DataFormatError(str(path), line_no,
                                  f"expected 3 or 4 fields, got {len(fields)}")
        try:
            rating = float(fields[2])
        except ValueError:
            rating = math.nan
        if not math.isfinite(rating):
            raise DataFormatError(str(path), line_no, f"bad rating {fields[2]!r}")
        if len(fields) == 4:
            try:
                timestamp = int(fields[3])
            except ValueError:
                timestamp = None
            if timestamp is None or not -2**63 <= timestamp < 2**63:
                raise DataFormatError(str(path), line_no, f"bad timestamp {fields[3]!r}")
        else:
            timestamp = len(records)
        records.append((fields[0], fields[1], rating, timestamp))
    if not records:
        raise DataFormatError(str(path), None, "no interactions found")
    return reference_table(records)


def reference_binarize(rows, threshold):
    return [x for x in rows if x[2] >= threshold]


def reference_by_user(rows):
    by_user = {}
    for x in rows:
        by_user.setdefault(x[0], []).append(x)
    return sorted(by_user.items())


def reference_chronological(hist):
    return sorted(range(len(hist)), key=lambda k: (hist[k][3], k))


def reference_split(rows, spec):
    if isinstance(spec, data.RandomHoldout):
        order = np.random.default_rng(spec.seed).permutation(len(rows))
        test_idx = set(order[:int(round(spec.ratio * len(rows)))].tolist())
        train = [x for k, x in enumerate(rows) if k not in test_idx]
        test = [x for k, x in enumerate(rows) if k in test_idx]
    else:
        train, test = [], []
        for _, hist in reference_by_user(rows):
            if isinstance(spec, data.LeaveOneOut):
                n_test = 1 if len(hist) >= 2 else 0
            else:
                n_test = min(int(np.ceil(spec.ratio * len(hist))), len(hist) - 1)
            held = set(reference_chronological(hist)[len(hist) - n_test:])
            for k, x in enumerate(hist):
                (test if k in held else train).append(x)
    train_users = {x[0] for x in train}
    train_items = {x[1] for x in train}
    return train, [x for x in test if x[0] in train_users and x[1] in train_items]


def reference_histories(rows):
    return {user: [hist[k][1] for k in reference_chronological(hist)]
            for user, hist in reference_by_user(rows)}


def reference_latest_windows(histories, window, padding_id):
    """Each history's last ``window`` items, left-padded."""
    return {user: tuple([padding_id] * (window - len(hist[-window:])) + hist[-window:])
            for user, hist in histories.items()}


def reference_sequences(histories, window, horizon, padding_id):
    """The per-instance loop sequences were built with before they became
    arrays: (user, window, targets) for every target position after a
    history's first, windows left-padded, targets right-padded."""
    instances = []
    for user, items in histories.items():
        for pos in range(1, len(items)):
            past = items[max(0, pos - window):pos]
            targets = items[pos:pos + horizon]
            instances.append((user, tuple([padding_id] * (window - len(past)) + past),
                              tuple(targets + [padding_id] * (horizon - len(targets)))))
    return instances


def reference_uirt(rows, user_ids, item_ids) -> bytes:
    return "".join(f"{user_ids[u]}\t{item_ids[i]}\t{r:g}\t{t}\n"
                   for u, i, r, t in rows).encode("utf-8")


def assert_rows(table, rows):
    """The table holds exactly ``rows``, in order, ratings bit for bit."""
    assert [c.dtype for c in (table.users, table.items, table.ratings, table.timestamps)] \
        == [np.int64, np.int64, np.float64, np.int64]
    assert list(zip(table.users.tolist(), table.items.tolist(),
                    table.timestamps.tolist())) == [(u, i, t) for u, i, _, t in rows]
    assert table.ratings.tobytes() == np.array([x[2] for x in rows], dtype=np.float64).tobytes()


RAW_IDS = ("u1", "u2", "10", "x-y", "\u00fc", "007")
RATINGS = ("1", "2.5", "4", "5.0", "3e0", "-0", "+2", "0.5")
BAD_LINES = ("{u}{s}{i}", "{u}{s}{i}{s}4{s}1{s}9", "{u}{s}{i}{s}x{s}1", "{u}{s}{i}{s}nan",
             "{u}{s}{i}{s}-inf{s}2", "{u}{s}{i}{s}1e999", "{u}{s}{i}{s}3{s}t1",
             "{u}{s}{i}{s}3{s}1.5", "{u}{s}{i}{s}3{s}9223372036854775808",
             "{u}{s}{i}{s}x{s}t1")


@st.composite
def uirt_files(draw, bad_lines=0):
    """uirt file text: duplicate pairs at earlier, equal and later
    timestamps, mixed 3/4 fields, blank lines, doubled and leading or
    trailing separators, CRLF, each separator."""
    sep = draw(st.sampled_from(["\t", ",", " "]))
    lines = []
    for _ in range(draw(st.integers(1, 30))):
        fields = [draw(st.sampled_from(RAW_IDS[:4])), draw(st.sampled_from(RAW_IDS)),
                  draw(st.sampled_from(RATINGS))]
        if draw(st.booleans()):
            fields.append(str(draw(st.integers(-2, 40))))
        line = fields[0]
        for f in fields[1:]:
            line += sep * draw(st.integers(1, 2)) + f
        lines.append(sep * draw(st.integers(0, 1)) + line + sep * draw(st.integers(0, 1)))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    for _ in range(bad_lines):
        bad = draw(st.sampled_from(BAD_LINES)).format(u="u9", i="i9", s=sep)
        lines.insert(draw(st.integers(0, len(lines))), bad)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def load_both(path):
    results = []
    for load in (data.load_interactions, reference_load):
        try:
            results.append(load(path))
        except DataFormatError as err:
            results.append(err)
    return results


SPECS = (data.LeaveOneOut(), data.Temporal(0.3), data.Temporal(0.7),
         data.RandomHoldout(0.3, seed=4))


@given(uirt_files())
@settings(max_examples=150, deadline=None)
def test_columnar_table_splits_and_histories_match_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "parity.uirt"
    path.write_bytes(text.encode("utf-8"))
    got, want = load_both(path)
    if isinstance(want, DataFormatError):  # a file of blank lines only
        assert isinstance(got, DataFormatError) and str(got) == str(want)
        return
    rows, user_ids, item_ids = want
    assert got.user_ids == user_ids and got.item_ids == item_ids
    assert got.user_index == {raw: k for k, raw in enumerate(user_ids)}
    assert got.item_index == {raw: k for k, raw in enumerate(item_ids)}
    assert_rows(got, rows)
    for threshold in (None, 2.5):
        table, ref = got, rows
        if threshold is not None:
            table, ref = data.binarize(got, threshold), reference_binarize(rows, threshold)
            assert_rows(table, ref)
        for spec in SPECS:
            train, test = data.split(table, spec)
            ref_train, ref_test = reference_split(ref, spec)
            assert_rows(train, ref_train)
            assert_rows(test, ref_test)
            assert train.user_ids is got.user_ids and test.item_index is got.item_index
        histories = reference_histories(ref)
        assert instance_tuples(data.build_sequences(table, 2, 1)) == \
            reference_sequences(histories, 2, 1, table.n_items)
        for window in (1, 3):
            assert window_dict(*data.latest_windows(table, window)) == \
                reference_latest_windows(histories, window, table.n_items)


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7), st.integers(0, 3)),
                max_size=40),
       st.integers(0, 7), st.integers(1, 5), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_sequence_arrays_match_reference_loop(records, solo_item, window, horizon):
    # four timestamps, so rows of a user tie often; user "solo" has one row
    table = data.table_from_records([(f"u{u}", f"i{i}", 1.0, t) for u, i, t in records]
                                    + [("solo", f"i{solo_item}", 1.0, 0)])
    rows = list(zip(table.users.tolist(), table.items.tolist(), table.ratings.tolist(),
                    table.timestamps.tolist()))
    histories = reference_histories(rows)
    pad = table.n_items
    ds = data.build_sequences(table, window, horizon)
    want = reference_sequences(histories, window, horizon, pad)
    assert ds.padding_id == pad and (ds.window, ds.horizon) == (window, horizon)
    assert [x.dtype for x in (ds.users, ds.windows, ds.targets)] == [np.int64] * 3
    assert ds.windows.shape == (len(want), window) and ds.targets.shape == (len(want), horizon)
    assert instance_tuples(ds) == want
    assert len(ds.instances) == len(want)
    users, windows = data.latest_windows(table, window)
    assert users.tolist() == list(histories)  # ascending, every user with a row
    assert window_dict(users, windows) == reference_latest_windows(histories, window, pad)


@given(uirt_files(bad_lines=2))
@example("u1 i1 5\nu1 i2 4 7\nu2 i1\n")  # 3 lines, 9 fields
@settings(max_examples=150, deadline=None)
def test_malformed_files_fail_like_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "malformed.uirt"
    path.write_bytes(text.encode("utf-8"))
    got, want = load_both(path)
    assert isinstance(want, DataFormatError) and isinstance(got, DataFormatError)
    assert (str(got), got.line_no) == (str(want), want.line_no)


def desk_file_with_duplicates(path):
    """A small desk-shaped file plus re-rated pairs at earlier, equal and
    later timestamps, some without a timestamp field."""
    table = synthetic.desk_scale_ratings(n_users=40, n_items=60, n_ratings=900, seed=3)
    lines = [f"{table.user_ids[u]}\t{table.item_ids[i]}\t{r:g}\t{t}"
             for u, i, r, t in zip(table.users.tolist(), table.items.tolist(),
                                   table.ratings.tolist(), table.timestamps.tolist())]
    rng = np.random.default_rng(8)
    for row in rng.choice(len(lines), size=120, replace=False).tolist():
        user, item, _, stamp = lines[row].split("\t")
        rating = int(rng.integers(1, 6))
        shift = int(rng.integers(-1, 2))
        lines.append(f"{user}\t{item}\t{rating}" if shift == 0 and row % 2 else
                     f"{user}\t{item}\t{rating}\t{int(stamp) + shift * 500}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("split,model", [("random:0.3", "biasedsvd"), ("loo", "bprmf"),
                                         ("temporal:0.4", "bprmf")])
def test_cli_split_writes_reference_bytes(tmp_path, split, model):
    path = desk_file_with_duplicates(tmp_path / "desk.uirt")
    ranking = model == "bprmf"
    cfg_path = tmp_path / "split.ini"
    cfg_path.write_text(config_text(
        path, f"name = {model}\nk = 4",
        "optimizer = adam\nlr = 0.01\nl2 = 0.0\nepochs = 1\nbatch_size = 64\nseed = 1",
        data_lines=f"split = {split}\nseed = 9\n"
                   + ("binarize_threshold = 3.0\n" if ranking else ""),
        eval_lines="cutoffs = 5\nprotocol = full" if ranking else None), encoding="utf-8")
    assert cli.main(["split", "--config", str(cfg_path), "--train-out",
                     str(tmp_path / "train.uirt"), "--test-out", str(tmp_path / "test.uirt")]) == 0

    cfg = cfgmod.load_config(cfg_path)
    rows, user_ids, item_ids = reference_load(path)
    if ranking:
        rows = reference_binarize(rows, cfg.data.binarize_threshold)
    ref_train, ref_test = reference_split(rows, cfg.data.split)
    assert len(ref_test) > 20
    assert (tmp_path / "train.uirt").read_bytes() == reference_uirt(ref_train, user_ids, item_ids)
    assert (tmp_path / "test.uirt").read_bytes() == reference_uirt(ref_test, user_ids, item_ids)


def test_prepare_data_keeps_no_per_row_objects(tmp_path):
    """The bundle of a 24K-row ranking set-up holds a few GC-tracked
    objects, not one or more per row."""
    path = tmp_path / "desk.uirt"
    data.write_uirt(path, synthetic.desk_scale_ratings(n_users=943, n_items=400,
                                                       n_ratings=24_000))
    cfg = cfgmod.parse_config(config_text(
        path, "name = bprmf\nk = 8",
        "optimizer = adam\nlr = 0.01\nl2 = 0.0\nepochs = 1\nbatch_size = 256\nseed = 1",
        data_lines="split = loo\nseed = 3\nbinarize_threshold = 4.0\n",
        eval_lines="cutoffs = 10\nprotocol = full"))
    runner.prepare_data(cfg)  # first-call imports and caches do not count
    gc.collect()
    before = len(gc.get_objects())
    bundle = runner.prepare_data(cfg)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert len(bundle["train"]) > 4_000
    assert added < 100, added


@given(st.one_of(uirt_files(), uirt_files(bad_lines=2)), st.integers(1, 24))
@settings(max_examples=200, deadline=None)
def test_chunked_parse_matches_reference_at_every_boundary(tmp_path_factory, text, block_chars):
    """Blocks of a few characters cut the file everywhere: ids keep
    first-appearance order across blocks, and the first bad line raises as
    the whole-file reference does."""
    path = tmp_path_factory.getbasetemp() / "chunked.uirt"
    path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "BLOCK_CHARS", block_chars)
        got, want = load_both(path)
    if isinstance(want, DataFormatError):
        assert isinstance(got, DataFormatError)
        assert (str(got), got.line_no) == (str(want), want.line_no)
        return
    rows, user_ids, item_ids = want
    assert (got.user_ids, got.item_ids) == (user_ids, item_ids)
    assert got.user_index == {raw: k for k, raw in enumerate(user_ids)}
    assert_rows(got, rows)


def test_parse_peak_memory_is_bounded_by_the_file(tmp_path):
    """The parse holds the file's text and the columns, not a list of every
    line's tokens: about 5x the bytes of a desk-shaped file, where a token
    list took about 20x."""
    path = tmp_path / "desk.uirt"
    data.write_uirt(path, synthetic.desk_scale_ratings(n_users=943, n_items=1682,
                                                       n_ratings=60_000, seed=5))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        table = data.load_interactions(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 60_000
    assert peak < 8 * size, f"parse peak {peak} B = {peak / size:.1f}x the file's {size} B"


def test_decode_error_peak_memory_is_bounded_by_the_file(tmp_path):
    """A byte that is not UTF-8 on the last line of a desk-sized file is
    numbered from the file's bytes, not from a list of every line before
    it, which took about 7x the file's bytes."""
    path = tmp_path / "desk.uirt"
    data.write_uirt(path, synthetic.desk_scale_ratings())
    with open(path, "ab") as fh:
        fh.write(b"u1\ti1\t\xff\t1\n")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match="not UTF-8") as err:
            data.load_interactions(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.line_no == 100_001
    assert peak < 4 * size, f"decode error peak {peak} B = {peak / size:.1f}x the file's {size} B"
