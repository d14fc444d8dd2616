import numpy as np
import pytest

from gradrec import checkpoint as ckpt
from gradrec.errors import (CheckpointMagicError, CheckpointTrailingBytesError,
                            CheckpointTruncatedError, CheckpointVersionError)


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
                                      CheckpointTruncatedError, CheckpointTrailingBytesError)]
        assert len(set(codes)) == len(codes)


class TestAtomicSave:
    def test_failed_write_leaves_the_old_file_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "model.drec"
        ckpt.save_checkpoint(path, "fm", "old", sample_tensors())
        old = path.read_bytes()

        def write_half_then_fail(self, data):
            with open(self, "wb") as f:
                f.write(data[:len(data) // 2])
            raise OSError("no space left on device")

        monkeypatch.setattr(type(path), "write_bytes", write_half_then_fail)
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
