"""Exception types shared across the toolkit."""

from __future__ import annotations


class GradrecError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(GradrecError):
    """An operation received inputs whose shapes violate its shape rule."""

    def __init__(self, op: str, expected: str, actual: str):
        self.op = op
        self.expected = expected
        self.actual = actual
        super().__init__(f"{op}: expected {expected}, got {actual}")


class UnknownOpError(GradrecError):
    def __init__(self, op_kind: str):
        self.op_kind = op_kind
        super().__init__(f"unknown op kind: {op_kind!r}")


class GradCheckError(GradrecError):
    """Non-finite loss or gradient encountered during a gradient check."""


class DataFormatError(GradrecError):
    """A data file could not be parsed; carries the offending line number."""

    def __init__(self, path: str, line_no: int | None, message: str):
        self.path = path
        self.line_no = line_no
        where = f"{path}:{line_no}" if line_no is not None else path
        super().__init__(f"{where}: {message}")


class ConfigError(GradrecError):
    """Experiment configuration failed validation; lists every issue at once."""

    def __init__(self, issues: list[str]):
        self.issues = list(issues)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {m}" for m in self.issues))


class TrainingDivergedError(GradrecError):
    """A step's loss was not finite. ``step`` counts optimizer steps from
    the start of training, from 0."""

    def __init__(self, epoch: int, step: int, loss: float):
        self.epoch = epoch
        self.step = step
        self.loss = loss
        super().__init__(f"training diverged at epoch {epoch}, step {step}: loss={loss!r}")


class EvaluationError(GradrecError):
    """A scoring function produced an unusable value during evaluation."""


class CheckpointError(GradrecError):
    code = "checkpoint"


class CheckpointMagicError(CheckpointError):
    code = "bad_magic"


class CheckpointVersionError(CheckpointError):
    code = "unsupported_version"


class CheckpointTruncatedError(CheckpointError):
    code = "truncated"


class CheckpointTrailingBytesError(CheckpointError):
    code = "trailing_bytes"


class CheckpointChecksumError(CheckpointError):
    code = "checksum"
