import numpy as np
import pytest

from gradrec import checkpoint as ckpt
from gradrec.errors import (CheckpointChecksumError, CheckpointError, CheckpointMagicError,
                            CheckpointTrailingBytesError, CheckpointTruncatedError,
                            CheckpointVersionError)


def sample_tensors():
    rng = np.random.default_rng(3)
    return {
        "scalar": np.asarray(3.25),
        "vector": rng.normal(size=7),
        "matrix": rng.normal(size=(4, 5)),
        "cube": rng.normal(size=(2, 3, 2)),
    }


class TestRoundTrip:
    def test_bitwise_lossless(self, tmp_path):
        path = tmp_path / "model.drec"
        tensors = sample_tensors()
        ckpt.save_checkpoint(path, "bprmf", "[data]\npath=x\n", tensors)
        name, echo, loaded = ckpt.load_checkpoint(path)
        assert name == "bprmf"
        assert echo == "[data]\npath=x\n"
        assert list(loaded) == list(tensors)  # order preserved
        for key in tensors:
            assert loaded[key].shape == tensors[key].shape
            assert np.array_equal(loaded[key], tensors[key])
            assert loaded[key].dtype == np.float64

    def test_unicode_strings(self, tmp_path):
        path = tmp_path / "model.drec"
        ckpt.save_checkpoint(path, "cml", "# cönfig ✓\n", {"t": np.zeros(2)})
        _, echo, _ = ckpt.load_checkpoint(path)
        assert "✓" in echo

    def test_layout_starts_with_magic_and_version(self, tmp_path):
        path = tmp_path / "model.drec"
        ckpt.save_checkpoint(path, "fm", "", {})
        blob = path.read_bytes()
        assert blob[:4] == b"DREC"
        assert int.from_bytes(blob[4:6], "little") == ckpt.VERSION


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.drec"
        ckpt.save_checkpoint(path, "fm", "", sample_tensors())
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointMagicError):
            ckpt.load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "model.drec"
        ckpt.save_checkpoint(path, "fm", "", sample_tensors())
        blob = bytearray(path.read_bytes())
        blob[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            ckpt.load_checkpoint(path)

    def test_truncation_is_an_error_not_a_crash(self, tmp_path):
        path = tmp_path / "model.drec"
        ckpt.save_checkpoint(path, "fm", "config", sample_tensors())
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointTruncatedError):
            ckpt.load_checkpoint(path)

    def test_every_truncation_point_is_handled(self, tmp_path):
        # cut the file at many offsets; each must raise a checkpoint error
        path = tmp_path / "model.drec"
        ckpt.save_checkpoint(path, "neumf", "[data]\n", {"w": np.ones((3, 3))})
        blob = path.read_bytes()
        for cut in range(0, len(blob) - 1, 7):
            path.write_bytes(blob[:cut])
            with pytest.raises((CheckpointTruncatedError, CheckpointMagicError)):
                ckpt.load_checkpoint(path)

    def test_appended_byte_is_rejected(self, tmp_path):
        path = tmp_path / "model.drec"
        ckpt.save_checkpoint(path, "fm", "config", sample_tensors())
        blob = path.read_bytes()
        path.write_bytes(blob + b"\x00")
        with pytest.raises(CheckpointTrailingBytesError, match="1 trailing bytes"):
            ckpt.load_checkpoint(path)

    def test_error_codes_are_distinct(self):
        codes = [cls.code for cls in (CheckpointMagicError, CheckpointVersionError,
                                      CheckpointTruncatedError, CheckpointTrailingBytesError,
                                      CheckpointChecksumError)]
        assert len(set(codes)) == len(codes)


def mixed_checkpoint(path):
    """A small checkpoint holding f64, i64 and string tensors; its bytes."""
    ckpt.save_checkpoint(path, "bprmf", "[data]\npath = d.txt\n", {
        "w": np.arange(6.0).reshape(2, 3),
        "train.users": np.array([0, 1, 1], dtype=np.int64),
        "train.user_ids": ["u0", "ü1", ""],
    })
    return path.read_bytes()


class TestIntegrity:
    def test_dtypes_round_trip(self, tmp_path):
        mixed_checkpoint(tmp_path / "m.drec")
        _, _, tensors = ckpt.load_checkpoint(tmp_path / "m.drec")
        assert tensors["w"].dtype == np.float64 and tensors["w"].shape == (2, 3)
        assert tensors["train.users"].dtype == np.int64
        assert tensors["train.users"].tolist() == [0, 1, 1]
        assert tensors["train.user_ids"] == ["u0", "ü1", ""]

    def test_every_bit_flip_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "m.drec"
        blob = mixed_checkpoint(path)
        header = 4 + 2 + 8  # magic, version, payload length
        for pos in range(len(blob)):
            for bit in range(8):
                corrupt = bytearray(blob)
                corrupt[pos] ^= 1 << bit
                path.write_bytes(bytes(corrupt))
                with pytest.raises(CheckpointError) as caught:
                    ckpt.load_checkpoint(path)
                if pos >= header:  # the payload and the checksum itself
                    assert type(caught.value) is CheckpointChecksumError, (pos, bit)

    def test_every_truncation_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "m.drec"
        blob = mixed_checkpoint(path)
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError):
                ckpt.load_checkpoint(path)

    def test_version_1_file_asks_for_retraining(self, tmp_path):
        # v1: magic, u16 version, then the payload with f64 tensors and no checksum
        def text(s):
            return len(s).to_bytes(4, "little") + s
        v1 = (b"DREC" + (1).to_bytes(2, "little") + text(b"bprmf") + text(b"[data]\n")
              + (1).to_bytes(4, "little") + text(b"w") + bytes([1]) + (2).to_bytes(8, "little")
              + np.ones(2).tobytes())
        path = tmp_path / "v1.drec"
        path.write_bytes(v1)
        with pytest.raises(CheckpointVersionError, match="retrain"):
            ckpt.load_checkpoint(path)


class TestAtomicSave:
    def test_failed_write_leaves_the_old_file_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "model.drec"
        ckpt.save_checkpoint(path, "fm", "old", sample_tensors())
        old = path.read_bytes()
        real_open = type(path).open

        class FullDisk:
            """A file that takes the first 10,000 bytes written, then fails."""

            def __init__(self, fh):
                self.fh, self.room = fh, 10_000

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                data = memoryview(data).cast("B")
                self.fh.write(data[:self.room])
                if len(data) > self.room:
                    raise OSError("no space left on device")
                self.room -= len(data)

        def open_full_disk(self, *args, **kwargs):
            return FullDisk(real_open(self, *args, **kwargs))

        monkeypatch.setattr(type(path), "open", open_full_disk)
        with pytest.raises(OSError, match="no space"):
            ckpt.save_checkpoint(path, "fm", "new", {"w": np.ones((50, 50))})
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.drec"]
        assert ckpt.load_checkpoint(path)[1] == "old"

    def test_save_replaces_an_existing_file(self, tmp_path):
        path = tmp_path / "model.drec"
        ckpt.save_checkpoint(path, "fm", "old", sample_tensors())
        ckpt.save_checkpoint(path, "fm", "new", {"w": np.ones(2)})
        assert ckpt.load_checkpoint(path)[1] == "new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.drec"]
