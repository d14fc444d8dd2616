import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradrec import data
from gradrec.errors import DataFormatError, GradrecError
from gradrec.models.base import NegativeSampler


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

    def test_separator_override(self, tmp_path):
        # raw ids containing spaces survive when the separator is forced
        table = data.load_interactions(write(tmp_path, "a user,item x,3,1\n"),
                                       separator=",")
        assert table.user_ids == ["a user"]
        assert table.item_ids == ["item x"]

    def test_header_skipped(self, tmp_path):
        table = data.load_interactions(
            write(tmp_path, "user\titem\trating\nu\ti\t3\n"), has_header=True)
        assert table.n_users == 1

    def test_malformed_line_reports_line_number(self, tmp_path):
        with pytest.raises(DataFormatError) as err:
            data.load_interactions(write(tmp_path, "u i 5 1\nu i\n"))
        assert err.value.line_no == 2

    def test_bad_rating_reports_line_number(self, tmp_path):
        with pytest.raises(DataFormatError) as err:
            data.load_interactions(write(tmp_path, "u i five 1\n"))
        assert err.value.line_no == 1

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
        assert again.interactions == table.interactions
        assert again.user_ids == table.user_ids


class TestParseLibfm:
    def test_basic_row(self, tmp_path):
        rows = data.parse_libfm(write(tmp_path, "5 0:1 3:2.5\n"))
        assert rows[0].label == 5.0
        assert rows[0].features == ((0, 1.0), (3, 2.5))

    def test_label_only_row(self, tmp_path):
        rows = data.parse_libfm(write(tmp_path, "0\n"))
        assert rows[0].features == ()

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

    def test_indices_sorted(self, tmp_path):
        rows = data.parse_libfm(write(tmp_path, "1 5:1 2:3\n"))
        assert rows[0].features == ((2, 3.0), (5, 1.0))


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
        joined = train.interactions + test.interactions
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
        consumed = table.consumed()[u]
        for seed in range(5):
            drawn = sampler.draw(u, 50, np.random.default_rng(seed))
            assert set(drawn.tolist()) <= set(range(table.n_items)) - consumed

    def test_k_zero(self):
        table = self.table()
        assert NegativeSampler(table).draw(0, 0, np.random.default_rng(1)).size == 0

    def test_exclude_respected(self):
        # draw_many excludes each row's own user's items, not one shared set
        table = self.table()
        consumed = table.consumed()
        users = np.array([table.user_index[u] for u in ("u", "v", "u", "v")])
        drawn = NegativeSampler(table).draw_many(users, 100, np.random.default_rng(2))
        assert drawn.shape == (4, 100)
        for user, row in zip(users, drawn):
            assert set(row.tolist()) == set(range(table.n_items)) - consumed[user]

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
        consumed = table.consumed()
        rows = []
        for user in users:
            blocked = np.array(sorted(consumed.get(int(user), ())), dtype=np.int64)
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


class TestBuildSequences:
    def test_window_definition(self):
        table = make_table([("u", "a", 1, 1), ("u", "b", 1, 2), ("u", "c", 1, 3)])
        ds = data.build_sequences(table, window=2, horizon=1)
        a, b, c = (table.item_index[x] for x in "abc")
        pad = ds.padding_id
        got = [(x.window, x.targets) for x in ds.instances]
        assert got == [((pad, a), (b,)), ((a, b), (c,))]

    def test_single_item_history_yields_nothing(self):
        table = make_table([("u", "a", 1, 1), ("v", "a", 1, 1), ("v", "b", 1, 2)])
        ds = data.build_sequences(table, window=3, horizon=1)
        assert all(x.user != table.user_index["u"] for x in ds.instances)

    def test_truncated_horizon(self):
        table = make_table([("u", x, 1, t) for t, x in enumerate("abcd", 1)])
        ds = data.build_sequences(table, window=3, horizon=2)
        ids = [table.item_index[x] for x in "abcd"]
        last = ds.instances[-1]
        assert last.window == (ids[0], ids[1], ids[2])
        assert last.targets == (ids[3],)

    def test_bad_params_rejected(self):
        table = make_table([("u", "a", 1, 1), ("u", "b", 1, 2)])
        with pytest.raises(GradrecError):
            data.build_sequences(table, window=0, horizon=1)
        with pytest.raises(GradrecError):
            data.build_sequences(table, window=1, horizon=0)

    def test_latest_window_left_pads(self):
        table = make_table([("u", "a", 1, 1), ("u", "b", 1, 2)])
        ds = data.build_sequences(table, window=4, horizon=1)
        u = table.user_index["u"]
        a, b = table.item_index["a"], table.item_index["b"]
        assert ds.latest_window(u) == (ds.padding_id, ds.padding_id, a, b)


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
